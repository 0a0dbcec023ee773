//! The persistent event-loop scheduler.
//!
//! The daemon advances a virtual clock over three merged event sources
//! — task arrivals, machine completions ([`rds_sim::event::EventQueue`],
//! the same min-heap the batch engine runs on), and retry timers — and
//! keeps **bounded state**: a task table capped by the admission queue
//! bound, per-machine FIFO queues with lazy deletion and periodic
//! compaction (the streaming analogue of the indexed dispatcher's
//! per-machine cursors), and fixed-size reservoirs for statistics.
//! Nothing in the loop grows with the length of the stream.
//!
//! Placement is incremental chained declustering: each admitted task is
//! replicated on `k` ring-consecutive machines starting from the least
//! loaded, and whichever replica idles first runs it — the streaming
//! form of the paper's grouped placement, with `k` degrading under
//! overload (see [`crate::overload`]).
//!
//! Determinism: every decision is a function of the config and the
//! virtual clock — arrival stream, per-`(seq, attempt)` realization
//! draws, and backoff jitter are all keyed off `cfg.seed`. Two runs of
//! the same config produce identical histories, which is what makes
//! journal replay-with-dedup a correct crash-recovery strategy.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::path::Path;

use rand::Rng;
use rds_core::{Error, MachineId, Result, TaskId, Time};
use rds_par::WatchdogPolicy;
use rds_sim::event::{EventQueue, IdleEvent};
use rds_workloads::rng as wrng;
use rds_workloads::ArrivalGen;

use crate::config::ServeConfig;
use crate::journal::{DrainRecord, ServeJournal, TerminalKind, TerminalRecord};
use crate::overload::{Admission, OverloadState, OverloadTracker, Rejection};
use crate::stats::{BoundedSeries, Reservoir, StatsDigest};

/// Seed salt for realization draws (decorrelates them from the arrival
/// stream, which consumes the raw seed).
const REALIZE_SALT: u64 = 0x9c2f_31d6_a0b4_77e1;

/// What the control callback tells the loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep running.
    Continue,
    /// Close intake and run down to empty (SIGTERM path).
    Drain,
    /// Stop immediately without draining or syncing — the in-process
    /// stand-in for SIGKILL (unsynced journal tail is lost).
    Halt,
}

/// Liveness/readiness snapshot handed to the control callback and the
/// line-protocol `stat` command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Health {
    /// Current overload state.
    pub state: OverloadState,
    /// Queued (admitted, not started) tasks.
    pub depth: usize,
    /// Tasks currently running on machines.
    pub running: usize,
    /// Virtual clock.
    pub now: f64,
    /// Events processed so far (monotone — the liveness signal).
    pub events: u64,
    /// Tasks admitted so far.
    pub admitted: u64,
    /// Tasks completed so far.
    pub completed: u64,
}

impl Health {
    /// Readiness: the daemon accepts new work.
    pub fn ready(&self) -> bool {
        self.state < OverloadState::Draining
    }

    /// One-line render for `stat` and `--status-every`.
    pub fn line(&self) -> String {
        format!(
            "state={} ready={} depth={} running={} admitted={} completed={} t={:.3} events={}",
            self.state.label(),
            self.ready(),
            self.depth,
            self.running,
            self.admitted,
            self.completed,
            self.now,
            self.events,
        )
    }
}

/// Final accounting of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Tasks admitted into the queue.
    pub admitted: u64,
    /// Tasks completed successfully.
    pub completed: u64,
    /// Tasks shed by deadline-based load shedding.
    pub shed: u64,
    /// Tasks that exhausted their retry budget.
    pub failed: u64,
    /// Arrivals rejected: queue at cap.
    pub rejected_full: u64,
    /// Arrivals rejected: deadline provably unmeetable while shedding.
    pub rejected_deadline: u64,
    /// Arrivals rejected: intake closed while draining.
    pub rejected_draining: u64,
    /// Failed attempts that were re-queued with backoff.
    pub retries: u64,
    /// Times the daemon entered a degraded state from Accepting.
    pub degraded_entries: u64,
    /// Total overload-state transitions.
    pub transitions: u64,
    /// Largest queue depth observed.
    pub max_depth: usize,
    /// State when the loop exited.
    pub final_state: OverloadState,
    /// Virtual time of the last processed event.
    pub makespan: f64,
    /// `true` when the run was halted (crash stand-in) rather than
    /// drained or completed.
    pub halted: bool,
    /// Events processed.
    pub events: u64,
    /// Response time (arrival → first dispatch).
    pub wait: StatsDigest,
    /// Flow time (arrival → completion).
    pub flow: StatsDigest,
    /// Queue depth over virtual time (bounded sample).
    pub depth_series: Vec<(f64, f64)>,
    /// Flow time over completion time (bounded sample).
    pub flow_series: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Queued,
    Running,
    RetryWait,
}

#[derive(Debug)]
struct TaskState {
    estimate: f64,
    arrival: f64,
    deadline: f64,
    attempts: u32,
    status: Status,
    attempt_failed: bool,
    replicas: Vec<u32>,
}

#[derive(Debug, Default)]
struct Counters {
    admitted: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    rejected_full: u64,
    rejected_deadline: u64,
    rejected_draining: u64,
    retries: u64,
    max_depth: usize,
}

/// The streaming scheduler. See the module docs for the architecture.
#[derive(Debug)]
pub struct Daemon {
    cfg: ServeConfig,
    backoff: WatchdogPolicy,
    journal: Option<ServeJournal>,
    gen: Option<ArrivalGen>,
    pending_arrival: Option<rds_workloads::Arrival>,
    now: f64,
    next_seq: u64,
    tracker: OverloadTracker,
    tasks: HashMap<u64, TaskState>,
    queues: Vec<VecDeque<u64>>,
    queued_load: Vec<usize>,
    parked: Vec<bool>,
    running: usize,
    depth: usize,
    events: EventQueue,
    retries: BinaryHeap<Reverse<(u64, u64)>>,
    est_sum: f64,
    counters: Counters,
    wait_stats: Reservoir,
    flow_stats: Reservoir,
    depth_series: BoundedSeries,
    flow_series: BoundedSeries,
    events_processed: u64,
}

impl Daemon {
    /// A daemon with no journal (tests, line protocol without
    /// persistence).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] and friends from config validation.
    pub fn new(cfg: ServeConfig) -> Result<Self> {
        Self::build(cfg, None)
    }

    /// A daemon journaling to `path`. With `resume`, an existing
    /// journal is scanned and replay-dedup takes over; without, the
    /// file is truncated.
    ///
    /// # Errors
    /// Config validation plus journal open/scan errors.
    pub fn with_journal(cfg: ServeConfig, path: impl AsRef<Path>, resume: bool) -> Result<Self> {
        let journal = if resume {
            ServeJournal::resume(path.as_ref(), &cfg)?
        } else {
            ServeJournal::create(path.as_ref(), &cfg)?
        };
        Self::build(cfg, Some(journal))
    }

    fn build(cfg: ServeConfig, journal: Option<ServeJournal>) -> Result<Self> {
        cfg.validate()?;
        if cfg.count >= u64::from(u32::MAX) {
            return Err(Error::InvalidParameter {
                what: "count must fit a u32 task id",
            });
        }
        let m = cfg.machines;
        let mut gen = ArrivalGen::new(
            cfg.process.clone(),
            cfg.estimates.clone(),
            cfg.count,
            cfg.seed,
        )?;
        let pending_arrival = gen.next_arrival();
        let backoff = WatchdogPolicy {
            max_attempts: cfg.max_attempts,
            ..WatchdogPolicy::default()
        };
        let tracker = OverloadTracker::new(&cfg);
        let seed = cfg.seed;
        Ok(Daemon {
            backoff,
            journal,
            gen: Some(gen),
            pending_arrival,
            now: 0.0,
            next_seq: 0,
            tracker,
            tasks: HashMap::new(),
            queues: vec![VecDeque::new(); m],
            queued_load: vec![0; m],
            parked: vec![true; m],
            running: 0,
            depth: 0,
            events: EventQueue::new(),
            retries: BinaryHeap::new(),
            est_sum: 0.0,
            counters: Counters::default(),
            wait_stats: Reservoir::new(4096, wrng::child_seed(seed, 1)),
            flow_stats: Reservoir::new(4096, wrng::child_seed(seed, 2)),
            depth_series: BoundedSeries::new(512),
            flow_series: BoundedSeries::new(512),
            events_processed: 0,
            cfg,
        })
    }

    /// Switches off the internal arrival generator — the line-protocol
    /// mode where arrivals come from [`Daemon::offer`] instead.
    pub fn external_arrivals(&mut self) {
        self.gen = None;
        self.pending_arrival = None;
    }

    /// Current health snapshot.
    pub fn health(&self) -> Health {
        Health {
            state: self.tracker.state(),
            depth: self.depth,
            running: self.running,
            now: self.now,
            events: self.events_processed,
            admitted: self.counters.admitted,
            completed: self.counters.completed,
        }
    }

    /// Virtual clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The replication factor in force right now (degrades under
    /// overload).
    fn effective_k(&self) -> usize {
        if self.tracker.degraded() {
            self.cfg.degraded_replication
        } else {
            self.cfg.replication
        }
    }

    // -- admission ----------------------------------------------------

    /// Offers one arrival with the given estimate at the current
    /// virtual time. This is the admission path both the internal
    /// generator and the line protocol go through.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] for a non-finite or negative
    /// estimate.
    pub fn offer(&mut self, estimate: f64) -> Result<Admission> {
        if !(estimate.is_finite() && estimate > 0.0) {
            return Err(Error::InvalidParameter {
                what: "estimate must be finite and > 0",
            });
        }
        if self.tracker.state() == OverloadState::Draining {
            self.counters.rejected_draining += 1;
            self.obs_reject();
            return Ok(Admission::Rejected(Rejection::Draining));
        }
        if self.depth >= self.cfg.queue_cap {
            self.counters.rejected_full += 1;
            self.obs_reject();
            return Ok(Admission::Rejected(Rejection::QueueFull));
        }
        let deadline = self.now + self.cfg.deadline_factor * estimate;
        if self.tracker.state() == OverloadState::Shedding {
            let avg = if self.counters.admitted == 0 {
                estimate
            } else {
                self.est_sum / self.counters.admitted as f64
            };
            let projected_start = self.now + self.depth as f64 * avg / self.cfg.machines as f64;
            if projected_start > deadline {
                self.counters.rejected_deadline += 1;
                self.obs_reject();
                return Ok(Admission::Rejected(Rejection::DeadlineUnmeetable));
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counters.admitted += 1;
        self.est_sum += estimate;
        let replicas = self.place(self.effective_k());
        self.tasks.insert(
            seq,
            TaskState {
                estimate,
                arrival: self.now,
                deadline,
                attempts: 0,
                status: Status::Queued,
                attempt_failed: false,
                replicas: replicas.clone(),
            },
        );
        self.enqueue(seq, &replicas);
        if rds_obs::enabled() {
            rds_obs::global().counter("serve.admitted").inc();
        }
        self.after_depth_change();
        Ok(Admission::Admitted(seq))
    }

    fn obs_reject(&self) {
        if rds_obs::enabled() {
            rds_obs::global().counter("serve.rejected").inc();
        }
    }

    /// Chained-declustering placement: `k` ring-consecutive machines
    /// starting from the least-loaded one (ties → smallest index).
    fn place(&self, k: usize) -> Vec<u32> {
        let m = self.cfg.machines;
        let start = (0..m)
            .min_by_key(|&i| (self.queued_load[i], i))
            .unwrap_or(0);
        (0..k).map(|j| ((start + j) % m) as u32).collect()
    }

    fn enqueue(&mut self, seq: u64, replicas: &[u32]) {
        self.depth += 1;
        self.counters.max_depth = self.counters.max_depth.max(self.depth);
        for &r in replicas {
            let ri = r as usize;
            self.queues[ri].push_back(seq);
            self.queued_load[ri] += 1;
            // Compaction bound: lazy deletion may leave stale entries
            // behind a busy machine; purge once the queue outgrows the
            // cap by a wide factor so per-machine state stays bounded.
            if self.queues[ri].len() > self.cfg.queue_cap * 4 + 64 {
                let tasks = &self.tasks;
                self.queues[ri]
                    .retain(|s| tasks.get(s).is_some_and(|t| t.status == Status::Queued));
            }
            if self.parked[ri] {
                self.parked[ri] = false;
                self.events.push(IdleEvent {
                    time: Time::of(self.now),
                    machine: MachineId::new(ri),
                    finished: None,
                    actual: Time::ZERO,
                });
            }
        }
        self.depth_series.push(self.now, self.depth as f64);
        if rds_obs::enabled() {
            rds_obs::global()
                .histogram("serve.queue_depth")
                .record_nanos(self.depth as u64);
        }
    }

    fn after_depth_change(&mut self) {
        if let Some(next) = self.tracker.observe_depth(self.depth) {
            if rds_obs::enabled() {
                let g = rds_obs::global();
                g.counter("serve.transitions").inc();
                if next > OverloadState::Accepting && next < OverloadState::Draining {
                    g.counter("serve.degraded").inc();
                }
            }
        }
    }

    // -- dispatch / completion ---------------------------------------

    /// Pops queued work for a newly idle machine; starts at most one
    /// task, shedding expired ones along the way while in Shedding.
    fn dispatch(&mut self, mi: usize) -> Result<()> {
        loop {
            let Some(seq) = self.queues[mi].pop_front() else {
                self.parked[mi] = true;
                return Ok(());
            };
            let Some(task) = self.tasks.get(&seq) else {
                continue; // lazily deleted
            };
            if task.status != Status::Queued {
                continue; // started or waiting elsewhere
            }
            let expired = task.deadline < self.now;
            if self.tracker.state() >= OverloadState::Shedding && expired {
                self.shed(seq)?;
                continue;
            }
            self.start(seq, mi);
            return Ok(());
        }
    }

    fn start(&mut self, seq: u64, mi: usize) {
        let alpha = self.cfg.alpha;
        let fail_rate = self.cfg.fail_rate;
        let task = self.tasks.get_mut(&seq).expect("started task exists");
        task.status = Status::Running;
        task.attempts += 1;
        // Per-(seq, attempt) realization draw: deterministic across
        // replays, independent across attempts.
        let mut r = wrng::rng(wrng::child_seed(
            wrng::child_seed(self.cfg.seed ^ REALIZE_SALT, seq),
            u64::from(task.attempts),
        ));
        let factor = if alpha == 1.0 {
            1.0
        } else {
            r.gen_range(1.0 / alpha..=alpha)
        };
        task.attempt_failed = fail_rate > 0.0 && r.gen::<f64>() < fail_rate;
        let duration = task.estimate * factor;
        if task.attempts == 1 {
            let wait = self.now - task.arrival;
            self.wait_stats.push(wait);
        }
        let replicas = task.replicas.clone();
        self.events.push(IdleEvent {
            time: Time::of(self.now + duration),
            machine: MachineId::new(mi),
            finished: Some(TaskId::new(seq as usize)),
            actual: Time::of(duration),
        });
        self.depth -= 1;
        self.running += 1;
        for &r in &replicas {
            self.queued_load[r as usize] = self.queued_load[r as usize].saturating_sub(1);
        }
        self.after_depth_change();
    }

    fn shed(&mut self, seq: u64) -> Result<()> {
        let task = self.tasks.remove(&seq).expect("shed task exists");
        self.depth -= 1;
        for &r in &task.replicas {
            self.queued_load[r as usize] = self.queued_load[r as usize].saturating_sub(1);
        }
        self.counters.shed += 1;
        if rds_obs::enabled() {
            rds_obs::global().counter("serve.shed").inc();
        }
        self.journal_terminal(&TerminalRecord {
            seq,
            kind: TerminalKind::Shed,
            arrival: task.arrival,
            at: self.now,
            attempts: task.attempts,
            machine: None,
        })?;
        self.after_depth_change();
        Ok(())
    }

    fn complete(&mut self, seq: u64, mi: usize) -> Result<()> {
        self.running -= 1;
        let give_up;
        {
            let task = self.tasks.get_mut(&seq).expect("completed task exists");
            debug_assert_eq!(task.status, Status::Running);
            if task.attempt_failed {
                self.counters.retries += 1;
                if rds_obs::enabled() {
                    rds_obs::global().counter("serve.retries").inc();
                }
                give_up = task.attempts >= self.cfg.max_attempts;
                if !give_up {
                    task.status = Status::RetryWait;
                    let delay = self
                        .backoff
                        .backoff_delay(task.attempts, wrng::child_seed(self.cfg.seed, seq))
                        .as_secs_f64();
                    let at = self.now + delay;
                    self.retries.push(Reverse((at.to_bits(), seq)));
                    return Ok(());
                }
            } else {
                give_up = false;
            }
        }
        let task = self.tasks.remove(&seq).expect("terminal task exists");
        if give_up {
            self.counters.failed += 1;
            self.journal_terminal(&TerminalRecord {
                seq,
                kind: TerminalKind::Failed,
                arrival: task.arrival,
                at: self.now,
                attempts: task.attempts,
                machine: None,
            })?;
            return Ok(());
        }
        self.counters.completed += 1;
        let flow = self.now - task.arrival;
        self.flow_stats.push(flow);
        self.flow_series.push(self.now, flow);
        if rds_obs::enabled() {
            let g = rds_obs::global();
            g.counter("serve.completed").inc();
            g.histogram("serve.response_time")
                .record(std::time::Duration::from_secs_f64(flow.max(0.0)));
        }
        self.journal_terminal(&TerminalRecord {
            seq,
            kind: TerminalKind::Done,
            arrival: task.arrival,
            at: self.now,
            attempts: task.attempts,
            machine: Some(mi),
        })?;
        Ok(())
    }

    fn requeue_retry(&mut self, seq: u64) {
        let Some(task) = self.tasks.get_mut(&seq) else {
            return;
        };
        debug_assert_eq!(task.status, Status::RetryWait);
        task.status = Status::Queued;
        let replicas = task.replicas.clone();
        self.enqueue(seq, &replicas);
        self.after_depth_change();
    }

    fn journal_terminal(&mut self, rec: &TerminalRecord) -> Result<()> {
        if let Some(j) = self.journal.as_mut() {
            j.append_terminal(rec)?;
        }
        Ok(())
    }

    // -- the event loop ----------------------------------------------

    /// Closes intake: future arrivals are not consumed, and
    /// line-protocol offers get typed `Draining` rejections. If an
    /// arrival was already pulled from the generator but not yet
    /// admitted, it is counted as a draining rejection.
    pub fn begin_drain(&mut self) {
        if self.tracker.drain() {
            if self.pending_arrival.take().is_some() {
                self.counters.rejected_draining += 1;
                self.obs_reject();
            }
            if rds_obs::enabled() {
                rds_obs::global().counter("serve.transitions").inc();
            }
        }
    }

    /// Processes the single earliest event. Returns `false` when there
    /// was nothing to process. Event-order tie-break at equal times:
    /// machine events, then retries, then arrivals — fixed so replays
    /// are deterministic.
    fn step_one(&mut self) -> Result<bool> {
        let t_evt = self.events.peek().map(|e| e.time.get());
        let t_rty = self
            .retries
            .peek()
            .map(|Reverse((b, _))| f64::from_bits(*b));
        let t_arr = self.pending_arrival.as_ref().map(|a| a.at);
        let next = [t_evt, t_rty, t_arr]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if !next.is_finite() {
            return Ok(false);
        }
        self.events_processed += 1;
        if t_evt == Some(next) {
            let ev = self.events.pop().expect("peeked event");
            self.now = ev.time.get();
            if let Some(tid) = ev.finished {
                self.complete(tid.index() as u64, ev.machine.index())?;
            }
            self.dispatch(ev.machine.index())?;
        } else if t_rty == Some(next) {
            let Reverse((bits, seq)) = self.retries.pop().expect("peeked retry");
            self.now = f64::from_bits(bits);
            self.requeue_retry(seq);
        } else {
            let a = self.pending_arrival.take().expect("peeked arrival");
            self.now = a.at;
            self.pending_arrival = self.gen.as_mut().and_then(ArrivalGen::next_arrival);
            self.offer(a.estimate)?;
        }
        Ok(true)
    }

    /// Processes all events up to virtual time `t`, then advances the
    /// clock to `t` (line-protocol `step`).
    ///
    /// # Errors
    /// Journal I/O errors.
    pub fn step_until(&mut self, t: f64) -> Result<()> {
        loop {
            let due = [
                self.events.peek().map(|e| e.time.get()),
                self.retries
                    .peek()
                    .map(|Reverse((b, _))| f64::from_bits(*b)),
                self.pending_arrival.as_ref().map(|a| a.at),
            ]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
            if due > t {
                break;
            }
            if !self.step_one()? {
                break;
            }
        }
        if t > self.now {
            self.now = t;
        }
        Ok(())
    }

    /// Runs the event loop to completion, polling `control` between
    /// events. Returns the final report; the journal (if any) is sealed
    /// with a drain record unless the run was halted.
    ///
    /// # Errors
    /// Journal I/O, or [`Error::InvariantViolation`] if the terminal
    /// accounting does not add up on a clean finish.
    pub fn run(&mut self, control: &mut dyn FnMut(&Health) -> Control) -> Result<ServeReport> {
        let _span = rds_obs::span("serve.run");
        loop {
            match control(&self.health()) {
                Control::Continue => {}
                Control::Drain => self.begin_drain(),
                Control::Halt => return self.finish(true),
            }
            if !self.step_one()? {
                break;
            }
        }
        self.finish(false)
    }

    /// Closes intake and runs down to empty (line-protocol `drain`).
    ///
    /// # Errors
    /// Same as [`Daemon::run`].
    pub fn drain_now(&mut self) -> Result<ServeReport> {
        self.begin_drain();
        while self.step_one()? {}
        self.finish(false)
    }

    fn finish(&mut self, halted: bool) -> Result<ServeReport> {
        if halted {
            // SIGKILL stand-in: the unsynced tail evaporates with the
            // process.
            if let Some(j) = self.journal.as_mut() {
                j.drop_unsynced();
            }
        } else {
            let accounted = self.counters.completed + self.counters.shed + self.counters.failed;
            if accounted != self.counters.admitted || !self.tasks.is_empty() {
                return Err(Error::InvariantViolation {
                    invariant: "serve-accounting",
                    detail: format!(
                        "admitted {} != completed {} + shed {} + failed {} (live tasks: {})",
                        self.counters.admitted,
                        self.counters.completed,
                        self.counters.shed,
                        self.counters.failed,
                        self.tasks.len(),
                    ),
                });
            }
            if let Some(j) = self.journal.as_mut() {
                j.seal(&DrainRecord {
                    at: self.now,
                    admitted: self.counters.admitted,
                    completed: self.counters.completed,
                    shed: self.counters.shed,
                    failed: self.counters.failed,
                })?;
            }
        }
        Ok(ServeReport {
            admitted: self.counters.admitted,
            completed: self.counters.completed,
            shed: self.counters.shed,
            failed: self.counters.failed,
            rejected_full: self.counters.rejected_full,
            rejected_deadline: self.counters.rejected_deadline,
            rejected_draining: self.counters.rejected_draining,
            retries: self.counters.retries,
            degraded_entries: self.tracker.degraded_entries,
            transitions: self.tracker.transitions,
            max_depth: self.counters.max_depth,
            final_state: self.tracker.state(),
            makespan: self.now,
            halted,
            events: self.events_processed,
            wait: self.wait_stats.digest(),
            flow: self.flow_stats.digest(),
            depth_series: self.depth_series.points().to_vec(),
            flow_series: self.flow_series.points().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_workloads::{ArrivalProcess, EstimateDistribution};

    fn run_all(cfg: ServeConfig) -> ServeReport {
        Daemon::new(cfg)
            .unwrap()
            .run(&mut |_| Control::Continue)
            .unwrap()
    }

    #[test]
    fn completes_every_task_under_light_load() {
        let cfg = ServeConfig::poisson(8, 2, 2.0, 500);
        let r = run_all(cfg);
        assert_eq!(r.admitted, 500);
        assert_eq!(r.completed, 500);
        assert_eq!(r.shed + r.failed, 0);
        assert_eq!(r.final_state, OverloadState::Accepting);
        assert!(r.flow.mean > 0.0);
        assert!(r.makespan > 0.0);
        assert!(!r.halted);
    }

    #[test]
    fn identical_configs_replay_identically() {
        let cfg = ServeConfig::poisson(4, 2, 6.0, 300);
        let a = run_all(cfg.clone());
        let b = run_all(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn overload_degrades_and_sheds_without_panicking() {
        // 4 machines × unit work, arrivals at 2× service capacity, tiny
        // queue and tight deadlines: the daemon must shed, not die.
        let mut cfg = ServeConfig::poisson(4, 2, 8.0, 3000);
        cfg.queue_cap = 64;
        cfg.degrade_hi = 32;
        cfg.degrade_lo = 24;
        cfg.shed_hi = 48;
        cfg.shed_lo = 40;
        cfg.deadline_factor = 4.0;
        cfg.estimates = EstimateDistribution::Identical { value: 1.0 };
        let r = run_all(cfg);
        assert!(r.degraded_entries > 0, "never degraded: {r:?}");
        assert!(
            r.shed + r.rejected_deadline + r.rejected_full > 0,
            "overload never shed or rejected: {r:?}"
        );
        assert_eq!(r.admitted, r.completed + r.shed + r.failed);
        assert!(
            r.max_depth <= 64 + 4,
            "depth blew past cap: {}",
            r.max_depth
        );
    }

    #[test]
    fn failures_retry_and_eventually_exhaust() {
        let mut cfg = ServeConfig::poisson(4, 1, 1.0, 400);
        cfg.fail_rate = 0.3;
        cfg.max_attempts = 2;
        let r = run_all(cfg);
        assert!(r.retries > 0);
        assert!(r.failed > 0, "with 30% fail and 2 attempts some must fail");
        assert_eq!(r.admitted, r.completed + r.shed + r.failed);
    }

    #[test]
    fn drain_control_closes_intake_and_quiesces() {
        let cfg = ServeConfig::poisson(4, 2, 5.0, 10_000);
        let mut daemon = Daemon::new(cfg).unwrap();
        let mut polls = 0u64;
        let r = daemon
            .run(&mut |_h| {
                polls += 1;
                if polls == 500 {
                    Control::Drain
                } else {
                    Control::Continue
                }
            })
            .unwrap();
        assert!(r.admitted < 10_000, "drain should cut the stream short");
        assert_eq!(r.admitted, r.completed + r.shed + r.failed);
        assert_eq!(r.final_state, OverloadState::Draining);
    }

    #[test]
    fn offers_after_drain_are_rejected_typed() {
        let mut cfg = ServeConfig::poisson(2, 1, 1.0, 0);
        cfg.count = 0;
        let mut d = Daemon::new(cfg).unwrap();
        d.external_arrivals();
        assert!(matches!(d.offer(1.0).unwrap(), Admission::Admitted(0)));
        d.begin_drain();
        assert_eq!(
            d.offer(1.0).unwrap(),
            Admission::Rejected(Rejection::Draining)
        );
        let r = d.drain_now().unwrap();
        assert_eq!(r.admitted, 1);
        assert_eq!(r.completed, 1);
        assert_eq!(r.rejected_draining, 1);
    }

    #[test]
    fn queue_cap_rejects_typed_when_full() {
        let mut cfg = ServeConfig::poisson(1, 1, 1.0, 0);
        cfg.queue_cap = 4;
        cfg.degrade_hi = 2;
        cfg.degrade_lo = 1;
        cfg.shed_hi = 3;
        cfg.shed_lo = 2;
        cfg.deadline_factor = 1000.0;
        let mut d = Daemon::new(cfg).unwrap();
        d.external_arrivals();
        let mut rejected_full = 0;
        for _ in 0..10 {
            if let Admission::Rejected(Rejection::QueueFull) = d.offer(1.0).unwrap() {
                rejected_full += 1;
            }
        }
        assert!(rejected_full > 0);
        let r = d.drain_now().unwrap();
        assert_eq!(r.rejected_full, rejected_full);
        assert_eq!(r.admitted, r.completed + r.shed + r.failed);
    }

    #[test]
    fn sustains_a_large_stream_with_bounded_state() {
        // The acceptance-bar shape scaled into unit-test time: high
        // arrival churn, bounded queue, everything accounted for.
        let mut cfg = ServeConfig::poisson(16, 2, 14.0, 20_000);
        cfg.queue_cap = 256;
        cfg.degrade_hi = 128;
        cfg.degrade_lo = 96;
        cfg.shed_hi = 192;
        cfg.shed_lo = 160;
        let r = run_all(cfg);
        assert_eq!(r.admitted, r.completed + r.shed + r.failed);
        assert!(r.max_depth <= 256 + 16);
        assert!(r.completed > 15_000);
    }

    #[test]
    fn bursty_overload_recovers_replication() {
        let mut cfg = ServeConfig::poisson(4, 2, 1.0, 4000);
        cfg.process = ArrivalProcess::Bursty {
            base_rate: 1.0,
            burst_rate: 20.0,
            period: 50.0,
            burst_fraction: 0.2,
        };
        cfg.queue_cap = 128;
        cfg.degrade_hi = 48;
        cfg.degrade_lo = 16;
        cfg.shed_hi = 96;
        cfg.shed_lo = 64;
        cfg.estimates = EstimateDistribution::Identical { value: 1.0 };
        let r = run_all(cfg);
        // Bursts push it into degradation; calm phases recover it —
        // more than one degraded entry proves the k was restored.
        assert!(r.degraded_entries >= 2, "no degrade/recover cycles: {r:?}");
        assert_eq!(r.admitted, r.completed + r.shed + r.failed);
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rds-serve-daemon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Runs a journaled daemon to the end, draining at poll `drain_at`
    /// (polls count from 1, so 0 never drains).
    fn journaled(cfg: &ServeConfig, path: &Path, resume: bool, drain_at: u64) -> ServeReport {
        let mut polls = 0u64;
        Daemon::with_journal(cfg.clone(), path, resume)
            .unwrap()
            .run(&mut |_| {
                polls += 1;
                if polls == drain_at {
                    Control::Drain
                } else {
                    Control::Continue
                }
            })
            .unwrap()
    }

    #[test]
    fn resuming_a_sealed_journal_leaves_its_bytes_unchanged() {
        let mut cfg = ServeConfig::poisson(6, 2, 8.0, 600);
        cfg.fsync_every = 16;
        let path = journal_path("sealed.jsonl");
        let first = journaled(&cfg, &path, false, 0);
        let sealed = std::fs::read(&path).unwrap();
        for _ in 0..2 {
            assert_eq!(journaled(&cfg, &path, true, 0), first);
            assert_eq!(std::fs::read(&path).unwrap(), sealed);
        }
    }

    #[test]
    fn resuming_an_early_drained_journal_appends_the_rest_and_a_new_drain() {
        let mut cfg = ServeConfig::poisson(6, 2, 8.0, 600);
        cfg.fsync_every = 16;
        let path = journal_path("early.jsonl");
        let early = journaled(&cfg, &path, false, 200);
        let full = journaled(&cfg, &path, true, 0);
        assert!(early.admitted < full.admitted);
        let log = ServeJournal::read(&path).unwrap();
        assert_eq!(log.records.len() as u64, full.admitted);
        let drain = log.drain.unwrap();
        assert_eq!((drain.admitted, drain.at), (full.admitted, full.makespan));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"kind\":\"drain\"").count(), 2);
        assert!(text.ends_with(&format!(
            ",\"admitted\":{},\"completed\":{},\"shed\":{},\"failed\":{}}}\n",
            full.admitted, full.completed, full.shed, full.failed
        )));
    }

    #[test]
    fn a_drain_that_terminal_records_follow_is_not_reported() {
        let mut cfg = ServeConfig::poisson(6, 2, 8.0, 600);
        cfg.fsync_every = 16;
        let path = journal_path("halted-after-drain.jsonl");
        let early = journaled(&cfg, &path, false, 200);
        let drain = ServeJournal::read(&path).unwrap().drain.unwrap();
        assert_eq!(drain.admitted, early.admitted);
        // Resume, then halt before the run drains again: terminal
        // records now follow the first drain line, so the run did not
        // quiesce.
        let mut polls = 0u64;
        Daemon::with_journal(cfg, &path, true)
            .unwrap()
            .run(&mut |_| {
                polls += 1;
                if polls == 900 {
                    Control::Halt
                } else {
                    Control::Continue
                }
            })
            .unwrap();
        let log = ServeJournal::read(&path).unwrap();
        assert!(log.records.len() as u64 > early.admitted);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"kind\":\"drain\"").count(), 1);
        assert_eq!(log.drain, None);
    }
}
