//! The discrete-event phase-2 execution engine.
//!
//! The engine owns the clock and the pending set; the [`Dispatcher`] owns
//! the policy. Machines start idle at time zero; every time one becomes
//! idle the dispatcher is consulted. Actual processing times are looked
//! up only when a task *starts* (to schedule its completion event) and
//! are reported to the dispatcher only at *completion* — the dispatcher
//! itself never sees them earlier, enforcing semi-clairvoyance
//! structurally.
//!
//! One event loop serves every run. Three const-generic arms compile
//! in only where used: instrumentation (`OBS`), machine speeds and
//! transfer latencies (`HET`), and scripted faults with speculative
//! backups (`FLT`, driven by [`crate::faults::ResilienceEngine`]). With
//! an arm off its code folds away, so the plain homogeneous run pays
//! nothing for the others.

use crate::arena::SimArena;
use crate::dispatcher::{Dispatcher, HotTask, SimView};
use crate::event::{EventQueue, IdleEvent, QueueMode};
use crate::faults::FaultArm;
use crate::trace::{Trace, TraceEvent};
use rds_core::{
    Error, Instance, MachineId, MachineSpeeds, NetworkTopology, Placement, Realization, Result,
    Schedule, TaskId, Time,
};

/// Below this task count the heap always wins — the calendar's reset
/// and width prepass cost more than `log m` pops save.
const AUTO_BUCKET_MIN_TASKS: usize = 4096;

/// Below this machine count bucketing cannot beat a tiny heap.
const AUTO_BUCKET_MIN_MACHINES: usize = 8;

/// Look-ahead window: how many events (whole timestamp groups) the
/// event loop accumulates before dispatching, so the per-event frontier
/// warm-ups ([`Dispatcher::warm`]) issue independent loads whose cache
/// misses overlap. Sized to the depth a core can keep in flight.
const EVENT_WINDOW: usize = 8;

/// Resolved heterogeneity context of one run, internal to the engine.
///
/// Unit speeds resolve to an empty slice and a free network to `None`,
/// so the `HET = true` loop applies *no* float operation in those cases
/// and the uniform/zero metamorphic collapse to the baseline engine is
/// bit-identical by construction.
struct HeteroCtx<'a> {
    /// Per-machine speeds, or empty for the identical-machines model.
    speeds: &'a [f64],
    /// Transfer matrix plus each task's data-home machine
    /// ([`Placement::primary`]), or `None` when transfers are free.
    locality: Option<(&'a NetworkTopology, Vec<u32>)>,
}

/// Result of one simulated execution.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The executed schedule (slots per machine, with start/end times).
    pub schedule: Schedule,
    /// The achieved makespan.
    pub makespan: Time,
    /// Chronological event trace.
    pub trace: Trace,
}

/// Discrete-event executor for one (instance, placement, realization).
#[derive(Debug)]
pub struct Engine<'a> {
    pub(crate) instance: &'a Instance,
    pub(crate) placement: &'a Placement,
    pub(crate) realization: &'a Realization,
}

impl<'a> Engine<'a> {
    /// Creates an engine for the given execution context.
    ///
    /// # Errors
    /// - [`Error::TaskCountMismatch`] when the pieces disagree on the
    ///   task count;
    /// - [`Error::InvalidParameter`] when the task or machine count
    ///   exceeds the event queue's `u32` id range
    ///   ([`EventQueue::check_capacity`] — an id that large would alias
    ///   a queue sentinel and silently corrupt the calendar).
    pub fn new(
        instance: &'a Instance,
        placement: &'a Placement,
        realization: &'a Realization,
    ) -> Result<Self> {
        EventQueue::check_capacity(instance.n(), instance.m())?;
        // Name the component that actually disagreed: `min()` of the two
        // counts could report the *matching* one on a one-sided mismatch.
        if placement.n() != instance.n() {
            return Err(Error::TaskCountMismatch {
                what: "placement",
                expected: instance.n(),
                got: placement.n(),
            });
        }
        if realization.n() != instance.n() {
            return Err(Error::TaskCountMismatch {
                what: "realization",
                expected: instance.n(),
                got: realization.n(),
            });
        }
        Ok(Engine {
            instance,
            placement,
            realization,
        })
    }

    /// Runs the simulation to completion under `dispatcher`.
    ///
    /// # Errors
    /// - [`Error::InfeasibleAssignment`] if the dispatcher picks a task
    ///   not placed on the idle machine;
    /// - [`Error::TaskOutOfRange`] if it picks an unknown task;
    /// - [`Error::InvalidParameter`] if it picks an already-started task
    ///   or leaves tasks unscheduled although machines could run them.
    pub fn run(&self, dispatcher: &mut dyn Dispatcher) -> Result<SimResult> {
        let mut arena = SimArena::with_capacity(self.instance.n(), self.instance.m());
        self.run_in(&mut arena, dispatcher)?;
        Ok(arena.take_result())
    }

    /// Runs the simulation to completion under `dispatcher`, using
    /// `arena` as scratch and output storage. This is the allocation-free
    /// entry point for Monte-Carlo campaigns: reusing one arena across
    /// runs of the same instance shape performs zero heap allocations per
    /// run. Returns the makespan; the executed slots and the trace stay
    /// readable in the arena until the next run ([`SimArena::slots`],
    /// [`SimArena::trace`], [`SimArena::to_sim_result`]).
    ///
    /// Generic over the dispatcher type so concrete dispatchers get a
    /// devirtualized, inlinable dispatch call in the event loop (`&mut
    /// dyn Dispatcher` still works through the `?Sized` bound).
    ///
    /// # Errors
    /// Same contract as [`Engine::run`].
    pub fn run_in<D: Dispatcher + ?Sized>(
        &self,
        arena: &mut SimArena,
        dispatcher: &mut D,
    ) -> Result<Time> {
        // Monomorphize the loop on the instrumentation flag: the
        // `OBS = false` instantiation contains no guard code at all, so
        // disabled instrumentation costs one atomic load per *run*
        // (the `obs_overhead` bench in rds-bench certifies < 2%).
        // `HET = false` likewise folds the heterogeneity math away, so
        // the homogeneous hot path is byte-for-byte the PR 9 loop.
        if rds_obs::enabled() {
            self.run_inner::<true, false, false, D>(arena, dispatcher, None, None)
        } else {
            self.run_inner::<false, false, false, D>(arena, dispatcher, None, None)
        }
    }

    /// Runs the simulation under heterogeneous machine speeds and/or a
    /// transfer-latency topology. A task with actual work `p` started
    /// on machine `i` occupies it for `p / s_i + L(home, i)` where
    /// `home` is the task's primary replica ([`Placement::primary`]) —
    /// the one-time cost of pulling the data to a non-home replica.
    /// `None` (or unit speeds / a zero topology) collapses exactly to
    /// [`Engine::run`]: with both `None` the run *is* [`Engine::run`]'s
    /// loop, no heterogeneity float op is applied in the other `None`
    /// cases, and `p / 1.0` and `d + 0.0` are bit-identical otherwise.
    ///
    /// # Errors
    /// - [`Error::InvalidParameter`] when `speeds` or `topology` covers
    ///   a different machine count than the instance;
    /// - the same dispatcher-misbehavior errors as [`Engine::run`].
    pub fn run_hetero(
        &self,
        dispatcher: &mut dyn Dispatcher,
        speeds: Option<&MachineSpeeds>,
        topology: Option<&NetworkTopology>,
    ) -> Result<SimResult> {
        let mut arena = SimArena::with_capacity(self.instance.n(), self.instance.m());
        self.run_hetero_in(&mut arena, dispatcher, speeds, topology)?;
        Ok(arena.take_result())
    }

    /// Arena-reusing variant of [`Engine::run_hetero`] (the analogue of
    /// [`Engine::run_in`]). The per-task home column is derived from
    /// the placement once per call when a topology is present.
    ///
    /// # Errors
    /// Same contract as [`Engine::run_hetero`].
    pub fn run_hetero_in<D: Dispatcher + ?Sized>(
        &self,
        arena: &mut SimArena,
        dispatcher: &mut D,
        speeds: Option<&MachineSpeeds>,
        topology: Option<&NetworkTopology>,
    ) -> Result<Time> {
        if speeds.is_none() && topology.is_none() {
            return self.run_in(arena, dispatcher);
        }
        let m = self.instance.m();
        if speeds.is_some_and(|s| s.m() != m) {
            return Err(Error::InvalidParameter {
                what: "machine speeds cover a different machine count than the instance",
            });
        }
        if topology.is_some_and(|t| t.m() != m) {
            return Err(Error::InvalidParameter {
                what: "network topology covers a different machine count than the instance",
            });
        }
        let locality = topology.map(|t| {
            let homes = (0..self.instance.n())
                .map(|j| self.placement.primary(TaskId::new(j)).index() as u32)
                .collect();
            (t, homes)
        });
        let ctx = HeteroCtx {
            speeds: speeds.map_or(&[][..], MachineSpeeds::speeds),
            locality,
        };
        if rds_obs::enabled() {
            self.run_inner::<true, true, false, D>(arena, dispatcher, Some(&ctx), None)
        } else {
            self.run_inner::<false, true, false, D>(arena, dispatcher, Some(&ctx), None)
        }
    }

    /// Runs the loop with the fault arm on: `faults` seeds its scripted
    /// events, handles every event the arm owns, and keeps the attempt
    /// state the report is assembled from. The returned time is the
    /// arm's makespan. Only [`crate::faults::ResilienceEngine`] calls
    /// this.
    pub(crate) fn run_faults_in<D: Dispatcher + ?Sized>(
        &self,
        arena: &mut SimArena,
        dispatcher: &mut D,
        faults: &mut FaultArm<'_>,
    ) -> Result<Time> {
        if rds_obs::enabled() {
            self.run_inner::<true, false, true, D>(arena, dispatcher, None, Some(faults))
        } else {
            self.run_inner::<false, false, true, D>(arena, dispatcher, None, Some(faults))
        }
    }

    /// Bucket width for the calendar queue, or `None` to use the heap.
    ///
    /// The width targets ~1 event per bucket: completions are spaced by
    /// roughly `mean actual / m` on a busy cluster. A degenerate hint
    /// (zero or non-finite mean) falls back to the heap, as does any
    /// instance too small for the calendar's reset cost to pay off.
    fn bucket_width(&self, mode: QueueMode, n: usize, m: usize) -> Option<f64> {
        match mode {
            QueueMode::Heap => None,
            QueueMode::Auto if n < AUTO_BUCKET_MIN_TASKS || m < AUTO_BUCKET_MIN_MACHINES => None,
            QueueMode::Auto | QueueMode::Bucketed => {
                let total: f64 = self.realization.times().iter().map(|t| t.get()).sum();
                let width = total / (n as f64 * m as f64);
                (width.is_finite() && width > 0.0).then_some(width)
            }
        }
    }

    fn run_inner<const OBS: bool, const HET: bool, const FLT: bool, D: Dispatcher + ?Sized>(
        &self,
        arena: &mut SimArena,
        dispatcher: &mut D,
        hetero: Option<&HeteroCtx<'_>>,
        mut faults: Option<&mut FaultArm<'_>>,
    ) -> Result<Time> {
        let n = self.instance.n();
        let m = self.instance.m();
        let bucket_width = self.bucket_width(arena.queue_mode(), n, m);
        arena.prepare(n, m, bucket_width);
        if let Some(f) = faults.as_deref_mut() {
            // The fault arm lays out its own event ids (faults,
            // recoveries, idle/completion, speculation checks).
            f.seed(&mut arena.queue, bucket_width);
        }
        // Pack each task's hot data — pending flag, eligibility span,
        // actual duration — into one 16-byte record, filled in a single
        // sequential pass. Every later touch (dispatcher scan, engine
        // feasibility check, completion scheduling) then reads the one
        // cache line this pass wrote, instead of three scattered arrays.
        // Fill the hot column — in the dispatcher's own layout when it
        // declares one (records at order positions, making its probe
        // frontier a sequential sweep), in task-id order otherwise.
        let embeds = dispatcher.embeds_task_ids();
        let by_slot = {
            let actuals = self.realization.times();
            let sets = self.placement.sets();
            match dispatcher.hot_order() {
                Some(ord) if ord.len() == n => {
                    if embeds {
                        // Id-embedding records: the span field carries the
                        // task id so a dispatch never leaves this line.
                        arena.pending.extend(
                            ord.iter()
                                .map(|t| HotTask::slotted(actuals[t.index()], t.index() as u32)),
                        );
                    } else {
                        arena.pending.extend(ord.iter().map(|t| {
                            let j = t.index();
                            HotTask::new(actuals[j], &sets[j], m)
                        }));
                    }
                    true
                }
                _ => {
                    arena
                        .pending
                        .extend((0..n).map(|j| HotTask::new(actuals[j], &sets[j], m)));
                    false
                }
            }
        };
        // An id-embedding slotted run has no span data in the records;
        // the dispatcher vouches for eligibility (RDS_VALIDATE still
        // checks the finished schedule against the placement).
        let trusted = by_slot && embeds;
        let SimArena {
            pending,
            trace,
            queue,
            round,
            ..
        } = arena;
        let mut remaining = n;
        let mut makespan = Time::ZERO;

        // Metric handles are resolved once per run. `OBS` is a const:
        // in the disabled instantiation every guard below folds away.
        let obs = OBS.then(|| {
            let g = rds_obs::global();
            (
                g.counter("engine.events"),
                g.counter("engine.dispatch"),
                g.counter("engine.starved"),
            )
        });
        let _run_span = rds_obs::span_if(OBS, if FLT { "resilience.run" } else { "engine.run" });

        // Batched event loop: the queue is drained in whole timestamp
        // groups (each in ascending machine order), and up to
        // `EVENT_WINDOW` events' worth of groups are accumulated before
        // any of them dispatches. Group boundaries keep the global
        // `(time, machine)` order intact: everything in the window
        // precedes everything still queued, and a dispatch whose
        // completion lands *inside* the window is order-inserted there
        // (the zero-duration re-entry is the `pos == i` special case of
        // that rule) — so the trace is byte-identical to the
        // one-pop-at-a-time loop. The window exists for memory-level
        // parallelism: `Dispatcher::warm` touches each upcoming event's
        // frontier line with independent loads, overlapping DRAM misses
        // that a serial loop would pay one dependent latency each.
        while queue.pop_round(round) {
            while round.len() < EVENT_WINDOW && queue.append_round(round) {}
            // Fault-arm event ids are not machines, so nothing to warm.
            if !FLT && round.len() > 1 && remaining > 0 {
                let view = SimView {
                    instance: self.instance,
                    placement: self.placement,
                    tasks: pending,
                    by_slot,
                };
                for ev in round.iter() {
                    dispatcher.warm(ev.machine, &view);
                }
            }
            let mut i = 0;
            while i < round.len() {
                let IdleEvent {
                    time,
                    machine,
                    finished,
                    actual: finished_actual,
                } = round[i];
                i += 1;
                let _event_span = rds_obs::span_if(OBS && !FLT, "engine.event");
                if let Some((events, _, _)) = &obs {
                    events.inc();
                }
                let machine = if FLT {
                    // The arm handles its own event kinds and answers
                    // with the machine to offer work to, if any.
                    let Some(f) = faults.as_deref_mut() else {
                        unreachable!("the fault arm runs with its state")
                    };
                    let io = &mut LoopIo {
                        trace,
                        pending,
                        dispatcher,
                        queue,
                        round,
                        next: i,
                    };
                    match f.on_event(time, machine.index(), io) {
                        Some(w) => w,
                        None => continue,
                    }
                } else {
                    // Report the completion that made this machine idle.
                    // The finishing task's identity travels in the event
                    // itself, so no float comparison can silently drop a
                    // `Complete`.
                    if let Some(task) = finished {
                        let actual = finished_actual;
                        trace.push(TraceEvent::Complete {
                            time,
                            task,
                            machine,
                            actual,
                        });
                        dispatcher.on_complete(task, machine, actual, time);
                    }
                    if remaining == 0 {
                        continue;
                    }
                    machine
                };
                let view = SimView {
                    instance: self.instance,
                    placement: self.placement,
                    tasks: pending,
                    by_slot,
                };
                if let Some((_, dispatch, _)) = &obs {
                    dispatch.inc();
                }
                let choice = {
                    let _dispatch_span = rds_obs::span_if(OBS, "engine.dispatch");
                    dispatcher.next_task(machine, time, &view)
                };
                match choice {
                    Some(task) => {
                        if task.index() >= n {
                            return Err(Error::TaskOutOfRange {
                                task: task.index(),
                                n,
                            });
                        }
                        // In a slotted run the record lives at the order
                        // position the dispatcher just reported; its
                        // layout contract guarantees the slot is valid.
                        let si = if by_slot {
                            let s = dispatcher.last_slot();
                            if s as usize >= n {
                                return Err(Error::InvalidParameter {
                                    what: "slotted dispatcher did not report the task's slot",
                                });
                            }
                            s as usize
                        } else {
                            task.index()
                        };
                        let hot = pending[si];
                        if !hot.is_pending() {
                            return Err(Error::InvalidParameter {
                                what: "dispatcher returned an already-started task",
                            });
                        }
                        let allowed = trusted
                            || hot
                                .span_allows(machine.index() as u32)
                                .unwrap_or_else(|| self.placement.allows(task, machine));
                        if !allowed {
                            return Err(Error::InfeasibleAssignment {
                                task: task.index(),
                                machine: machine.index(),
                            });
                        }
                        pending[si].mark_started();
                        if FLT {
                            if let Some(f) = faults.as_deref_mut() {
                                let io = &mut LoopIo {
                                    trace,
                                    pending,
                                    dispatcher,
                                    queue,
                                    round,
                                    next: i,
                                };
                                f.start(time, machine, task, si as u32, io);
                            }
                            continue;
                        }
                        remaining -= 1;
                        let actual = hot.actual();
                        // Wall-clock occupancy: the actual work, speed-
                        // stretched and transfer-charged on the hetero
                        // path (`HET` is const — the homogeneous
                        // instantiation contains none of this).
                        let dur = match (HET, hetero) {
                            (true, Some(h)) => {
                                let mut d = actual.get();
                                if !h.speeds.is_empty() {
                                    d /= h.speeds[machine.index()];
                                }
                                if let Some((topo, homes)) = &h.locality {
                                    let home = MachineId::new(homes[task.index()] as usize);
                                    d += topo.latency(home, machine);
                                }
                                Time::new(d)?
                            }
                            _ => actual,
                        };
                        let end = time + dur;
                        trace.push(TraceEvent::Start {
                            time,
                            task,
                            machine,
                        });
                        makespan = makespan.max(end);
                        let next = IdleEvent {
                            time: end,
                            machine,
                            finished: Some(task),
                            actual: dur,
                        };
                        schedule(queue, round, i, next);
                    }
                    None => {
                        if FLT {
                            if let Some(f) = faults.as_deref_mut() {
                                let io = &mut LoopIo {
                                    trace,
                                    pending,
                                    dispatcher,
                                    queue,
                                    round,
                                    next: i,
                                };
                                f.no_pick(time, machine, io);
                            }
                            continue;
                        }
                        trace.push(TraceEvent::Starved { time, machine });
                        if let Some((_, _, starved)) = &obs {
                            starved.inc();
                        }
                    }
                }
            }
        }

        if FLT {
            // Stranded tasks are the arm's partial outcome, not an error;
            // it assembles and validates its own report.
            return Ok(faults.map_or(Time::ZERO, |f| f.makespan()));
        }
        if remaining > 0 {
            // Some pending task was eligible nowhere (or the dispatcher
            // starved every machine that could run it).
            return Err(Error::InvalidParameter {
                what: "simulation ended with unscheduled tasks",
            });
        }
        arena.makespan = makespan;
        if crate::validate::enabled() {
            // Validation is debug-/opt-in-only, so materializing the slot
            // log into a Schedule here never touches the production path.
            // Hetero runs skip the duration check: speed-stretched and
            // transfer-charged slots deliberately differ from the
            // realization's actuals (the conformance parity arm checks
            // those durations against an independent reference instead).
            let schedule = Schedule::from_slots(arena.per_machine_slots());
            let checks = if HET {
                crate::validate::Checks {
                    durations: false,
                    ..crate::validate::Checks::engine()
                }
            } else {
                crate::validate::Checks::engine()
            };
            crate::validate::check_schedule(
                self.instance,
                self.placement,
                self.realization,
                &schedule,
                &checks,
            )?;
        }
        Ok(makespan)
    }
}

/// Inserts `ev` where the event loop will meet it in global
/// `(time, id)` order: into the unprocessed part `round[next..]` of the
/// look-ahead window when it is due no later than the window's tail —
/// the queue only ever holds strictly later timestamp groups — and into
/// the queue otherwise. An event that sorts before everything left in
/// the window (e.g. a zero-delay re-entry) lands at `next` and runs
/// immediately, exactly as a heap would pop it.
#[inline(always)]
fn schedule(queue: &mut EventQueue, round: &mut Vec<IdleEvent>, next: usize, ev: IdleEvent) {
    let tail = round.last().map_or(Time::ZERO, |e| e.time);
    if ev.time <= tail {
        let pos =
            next + round[next..].partition_point(|e| (e.time, e.machine) < (ev.time, ev.machine));
        round.insert(pos, ev);
    } else {
        queue.push(ev);
    }
}

/// What the fault arm may touch of a running loop: the trace, the hot
/// column, the dispatcher, and the pending events — the unprocessed
/// look-ahead window `round[next..]` plus the queue behind it.
pub(crate) struct LoopIo<'r, D: ?Sized> {
    pub(crate) trace: &'r mut Trace,
    pub(crate) pending: &'r mut [HotTask],
    pub(crate) dispatcher: &'r mut D,
    queue: &'r mut EventQueue,
    round: &'r mut Vec<IdleEvent>,
    next: usize,
}

impl<D: ?Sized> LoopIo<'_, D> {
    /// Schedules the fault arm's event id `id` at `time`.
    pub(crate) fn push(&mut self, time: Time, id: usize) {
        schedule(self.queue, self.round, self.next, IdleEvent::bare(time, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::{LocalityDispatcher, OrderedDispatcher};
    use rds_core::Uncertainty;

    #[test]
    fn fifo_everywhere_matches_hand_computation() {
        let inst = Instance::from_estimates(&[3.0, 3.0, 2.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let engine = Engine::new(&inst, &p, &r).unwrap();
        let res = engine.run(&mut OrderedDispatcher::fifo(&inst)).unwrap();
        // t0→p0, t1→p1, first idle is p1@3? both idle at 3, tie → p0:
        // actually p0 idle at 3 (tie, machine 0 first) takes t2 → ends 5.
        assert_eq!(res.makespan, Time::of(5.0));
        crate::check_schedule(&inst, &p, &r, &res.schedule, &crate::Checks::engine()).unwrap();
        assert_eq!(res.trace.starts(), 3);
    }

    #[test]
    fn completion_reveals_actual_times_to_dispatcher() {
        // A dispatcher that records completions; verify ordering.
        struct Recorder {
            inner: OrderedDispatcher,
            seen: Vec<(usize, f64)>,
        }
        impl Dispatcher for Recorder {
            fn next_task(
                &mut self,
                machine: MachineId,
                now: Time,
                view: &SimView<'_>,
            ) -> Option<TaskId> {
                self.inner.next_task(machine, now, view)
            }
            fn on_complete(&mut self, task: TaskId, _m: MachineId, actual: Time, _now: Time) {
                self.seen.push((task.index(), actual.get()));
            }
        }
        let inst = Instance::from_estimates(&[2.0, 1.0], 1).unwrap();
        let unc = Uncertainty::of(2.0);
        let real = Realization::from_factors(&inst, unc, &[2.0, 1.0]).unwrap();
        let p = Placement::everywhere(&inst);
        let engine = Engine::new(&inst, &p, &real).unwrap();
        let mut d = Recorder {
            inner: OrderedDispatcher::fifo(&inst),
            seen: Vec::new(),
        };
        engine.run(&mut d).unwrap();
        assert_eq!(d.seen, vec![(0, 4.0), (1, 1.0)]);
    }

    #[test]
    fn infeasible_dispatch_is_rejected() {
        struct Rogue;
        impl Dispatcher for Rogue {
            fn next_task(
                &mut self,
                _machine: MachineId,
                _now: Time,
                _view: &SimView<'_>,
            ) -> Option<TaskId> {
                Some(TaskId::new(0))
            }
        }
        let inst = Instance::from_estimates(&[1.0], 2).unwrap();
        // Task 0 pinned to machine 1; machine 0 is asked first and Rogue
        // returns task 0 anyway.
        let p = Placement::pinned(&inst, &[MachineId::new(1)]).unwrap();
        let r = Realization::exact(&inst);
        let engine = Engine::new(&inst, &p, &r).unwrap();
        let err = engine.run(&mut Rogue).unwrap_err();
        assert!(matches!(
            err,
            Error::InfeasibleAssignment {
                task: 0,
                machine: 0
            }
        ));
    }

    #[test]
    fn lazy_dispatcher_leaves_tasks_unscheduled() {
        struct Lazy;
        impl Dispatcher for Lazy {
            fn next_task(
                &mut self,
                _machine: MachineId,
                _now: Time,
                _view: &SimView<'_>,
            ) -> Option<TaskId> {
                None
            }
        }
        let inst = Instance::from_estimates(&[1.0], 1).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let engine = Engine::new(&inst, &p, &r).unwrap();
        assert!(matches!(
            engine.run(&mut Lazy).unwrap_err(),
            Error::InvalidParameter { .. }
        ));
    }

    #[test]
    fn starved_machines_are_traced_not_fatal() {
        // Both tasks pinned to machine 0: machine 1 starves harmlessly
        // while work remains pending elsewhere.
        let inst = Instance::from_estimates(&[2.0, 1.0], 2).unwrap();
        let p = Placement::pinned(&inst, &[MachineId::new(0), MachineId::new(0)]).unwrap();
        let r = Realization::exact(&inst);
        let engine = Engine::new(&inst, &p, &r).unwrap();
        let res = engine.run(&mut OrderedDispatcher::fifo(&inst)).unwrap();
        assert_eq!(res.makespan, Time::of(3.0));
        assert!(res
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Starved { .. })));
    }

    #[test]
    fn speeds_stretch_durations() {
        // Machine 1 runs twice as fast: its 4.0-work task takes 2.0, so
        // it also absorbs the third task and finishes exactly with m0.
        let inst = Instance::from_estimates(&[4.0, 4.0, 4.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let engine = Engine::new(&inst, &p, &r).unwrap();
        let speeds = MachineSpeeds::new(vec![1.0, 2.0]).unwrap();
        let res = engine
            .run_hetero(&mut OrderedDispatcher::fifo(&inst), Some(&speeds), None)
            .unwrap();
        assert_eq!(res.makespan, Time::of(4.0));
        let m1 = res.schedule.slots(MachineId::new(1));
        assert_eq!(m1.len(), 2);
        assert_eq!(m1[0].end, Time::of(2.0));
    }

    #[test]
    fn transfer_latency_is_charged_on_remote_start() {
        // Both tasks homed on m0 (everywhere placement → primary 0):
        // m1's pick pays the 10.0 transfer on top of its work.
        let inst = Instance::from_estimates(&[2.0, 2.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let topo = NetworkTopology::uniform(2, 10.0).unwrap();
        let engine = Engine::new(&inst, &p, &r).unwrap();
        let mut d = LocalityDispatcher::fifo(&inst, &p, topo.clone()).unwrap();
        let res = engine.run_hetero(&mut d, None, Some(&topo)).unwrap();
        assert_eq!(res.makespan, Time::of(12.0));
        assert_eq!(res.schedule.slots(MachineId::new(0))[0].end, Time::of(2.0));
        assert_eq!(res.schedule.slots(MachineId::new(1))[0].end, Time::of(12.0));
    }

    #[test]
    fn unit_speeds_and_zero_topology_collapse_to_baseline() {
        let inst = Instance::from_estimates(&[3.0, 3.0, 2.0, 1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let engine = Engine::new(&inst, &p, &r).unwrap();
        let base = engine
            .run(&mut OrderedDispatcher::lpt_by_estimate(&inst))
            .unwrap();
        let speeds = MachineSpeeds::uniform(2).unwrap();
        let topo = NetworkTopology::zero(2).unwrap();
        let mut d = LocalityDispatcher::lpt_by_estimate(&inst, &p, topo.clone()).unwrap();
        let het = engine
            .run_hetero(&mut d, Some(&speeds), Some(&topo))
            .unwrap();
        assert_eq!(het.makespan, base.makespan);
        assert_eq!(het.trace.events(), base.trace.events());
    }

    #[test]
    fn hetero_rejects_mismatched_machine_counts() {
        let inst = Instance::from_estimates(&[1.0], 2).unwrap();
        let p = Placement::everywhere(&inst);
        let r = Realization::exact(&inst);
        let engine = Engine::new(&inst, &p, &r).unwrap();
        let speeds = MachineSpeeds::uniform(3).unwrap();
        assert!(matches!(
            engine
                .run_hetero(&mut OrderedDispatcher::fifo(&inst), Some(&speeds), None)
                .unwrap_err(),
            Error::InvalidParameter { .. }
        ));
        let topo = NetworkTopology::zero(3).unwrap();
        assert!(matches!(
            engine
                .run_hetero(&mut OrderedDispatcher::fifo(&inst), None, Some(&topo))
                .unwrap_err(),
            Error::InvalidParameter { .. }
        ));
    }

    #[test]
    fn mismatched_placement_is_named_with_its_count() {
        let inst = Instance::from_estimates(&[1.0, 2.0], 2).unwrap();
        let other = Instance::from_estimates(&[1.0], 2).unwrap();
        let p = Placement::everywhere(&other); // 1 task — the culprit
        let r = Realization::exact(&inst); // 2 tasks — matches
        let err = Engine::new(&inst, &p, &r).unwrap_err();
        assert_eq!(
            err,
            Error::TaskCountMismatch {
                what: "placement",
                expected: 2,
                got: 1,
            }
        );
    }

    #[test]
    fn mismatched_realization_is_named_with_its_count() {
        // An over-long realization: the old `min(placement.n(),
        // realization.n())` reported 2 here — the count of the component
        // that *matched* — hiding the culprit entirely.
        let inst = Instance::from_estimates(&[1.0, 2.0], 2).unwrap();
        let bigger = Instance::from_estimates(&[1.0, 2.0, 3.0], 2).unwrap();
        let p = Placement::everywhere(&inst); // 2 tasks — matches
        let r = Realization::exact(&bigger); // 3 tasks — the culprit
        let err = Engine::new(&inst, &p, &r).unwrap_err();
        assert_eq!(
            err,
            Error::TaskCountMismatch {
                what: "realization",
                expected: 2,
                got: 3,
            }
        );
    }
}
