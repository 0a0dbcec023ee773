//! Reusable scratch storage for the engine hot path.
//!
//! Every empirical result in the paper is a Monte-Carlo campaign:
//! thousands of engine runs per (instance, placement) pair where only
//! the realization changes. Allocating `pending`, the slot log, the
//! trace, and the event queue from scratch each run puts the
//! allocator on the hottest path in the repo. A [`SimArena`] owns that
//! storage once; [`crate::Engine::run_in`] resets and refills it, so in
//! steady state (same instance shape run after run) a trial performs
//! **zero** heap allocations — the `engine_scaling` bench in `rds-bench`
//! counts them at every size and fails on a nonzero count.
//! [`crate::ResilienceEngine::run_in`] uses the same arena: its queue,
//! hot column, and fault-state columns are reused across trials too.
//!
//! Executed slots are not recorded separately at all: a `Start` trace
//! event carries the slot's task, machine, and start time, and the
//! matching `Complete` carries its end, so the slot list is fully
//! derivable. [`SimArena::per_machine_slots`] materializes it on
//! demand (reports, validation); the hot loop writes only the trace's
//! struct-of-arrays columns instead of a second, redundant slot log.
//!
//! Typical use: one arena per worker thread, reused across trials
//! (`rds_par::parallel_map_with` hands each worker a long-lived arena):
//!
//! ```
//! use rds_core::prelude::*;
//! use rds_sim::{Engine, OrderedDispatcher, SimArena};
//!
//! let inst = Instance::from_estimates(&[3.0, 2.0, 2.0, 1.0], 2)?;
//! let placement = Placement::everywhere(&inst);
//! let mut arena = SimArena::with_capacity(inst.n(), inst.m());
//! let mut dispatcher = OrderedDispatcher::fifo(&inst);
//! for _trial in 0..3 {
//!     let real = Realization::exact(&inst); // varies per trial in practice
//!     let engine = Engine::new(&inst, &placement, &real)?;
//!     dispatcher.reset();
//!     let makespan = engine.run_in(&mut arena, &mut dispatcher)?;
//!     assert_eq!(makespan.get(), 4.0);
//!     assert_eq!(arena.trace().starts(), 4);
//! }
//! # Ok::<(), rds_core::Error>(())
//! ```

use crate::dispatcher::HotTask;
use crate::engine::SimResult;
use crate::event::{EventQueue, IdleEvent, QueueMode};
use crate::faults::FaultColumns;
use crate::trace::{Trace, TraceEvent};
use rds_core::{Schedule, Slot, Time};

/// Scratch storage for one engine run, reusable across runs.
///
/// After a successful [`crate::Engine::run_in`], the arena holds that
/// run's outputs until the next run overwrites them: [`Self::trace`]
/// and [`Self::makespan`] read them in place (no copies);
/// [`Self::per_machine_slots`] derives the executed slot lists from
/// the trace, and [`Self::to_sim_result`] clones everything into an
/// owned [`SimResult`] for callers that need one.
#[derive(Debug, Default)]
pub struct SimArena {
    /// Packed per-task hot records: pending flag, eligibility span,
    /// and actual duration in one 16-byte line-friendly struct. The
    /// engine refills it each run from the realization and placement.
    pub(crate) pending: Vec<HotTask>,
    /// Machine count of the last prepared run (sizes derived views).
    pub(crate) m: usize,
    /// Chronological event trace of the last run.
    pub(crate) trace: Trace,
    /// The idle-event queue (heap or calendar backend).
    pub(crate) queue: EventQueue,
    /// Scratch for one dispatch round (all events at one timestamp).
    pub(crate) round: Vec<IdleEvent>,
    /// Which event-queue backend runs should use.
    pub(crate) queue_mode: QueueMode,
    /// Per-task and per-machine state of the engine's fault arm.
    pub(crate) faults: FaultColumns,
    /// Makespan of the last completed run.
    pub(crate) makespan: Time,
}

impl SimArena {
    /// An empty arena; storage grows on first use and is kept thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-sized for instances of `n` tasks on `m` machines:
    /// `pending` holds `n` hot records, the trace holds the engine's `2n + m`
    /// event bound, and the queue holds the `m` events the engine needs
    /// at most (one outstanding idle event per machine).
    pub fn with_capacity(n: usize, m: usize) -> Self {
        SimArena {
            pending: Vec::with_capacity(n),
            m: 0,
            trace: Trace::with_capacity(2 * n + m),
            queue: EventQueue::with_capacity(m),
            round: Vec::with_capacity(m.min(64)),
            queue_mode: QueueMode::Auto,
            faults: FaultColumns::default(),
            makespan: Time::ZERO,
        }
    }

    /// Selects the event-queue backend for subsequent runs (default
    /// [`QueueMode::Auto`]). The backends are schedule-identical; this
    /// knob exists for benchmarks and the differential proptests.
    pub fn set_queue_mode(&mut self, mode: QueueMode) {
        self.queue_mode = mode;
    }

    /// The configured event-queue backend policy.
    pub fn queue_mode(&self) -> QueueMode {
        self.queue_mode
    }

    /// Resets every buffer for a fresh `(n, m)` run, keeping storage.
    /// Steady state (same shape as the previous run) allocates nothing;
    /// a larger shape grows the buffers once and keeps the new capacity.
    ///
    /// `bucket_width` arms the calendar queue for this run (`None`
    /// selects the heap); the engine derives it from the realization's
    /// mean task duration and the configured [`QueueMode`].
    pub(crate) fn prepare(&mut self, n: usize, m: usize, bucket_width: Option<f64>) {
        // Cleared, not refilled: the engine repopulates the hot records
        // in one sequential pass over the realization and placement, so
        // filling defaults here would write the column twice.
        self.pending.clear();
        self.pending.reserve(n);
        self.m = m;
        self.trace.clear();
        self.trace.reserve(2 * n + m);
        match bucket_width {
            Some(w) => self.queue.reset_bucketed(m, w),
            None => self.queue.reset_all_idle(m),
        }
        self.round.clear();
        self.makespan = Time::ZERO;
    }

    /// Makespan of the last completed run.
    #[inline]
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// Event trace of the last run, read in place.
    #[inline]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Materializes the last run's executed slots per machine (each in
    /// execution order) from the trace: a `Start` event opens the slot,
    /// the matching `Complete` closes it. This allocates; the hot loop
    /// itself records nothing beyond the trace columns.
    pub fn per_machine_slots(&self) -> Vec<Vec<Slot>> {
        let mut out: Vec<Vec<Slot>> = vec![Vec::new(); self.m];
        // `(machine, position)` of each task's open slot, for end fixup.
        let mut open: Vec<(u32, u32)> = vec![(u32::MAX, 0); self.pending.len()];
        for ev in self.trace.iter() {
            match ev {
                TraceEvent::Start {
                    time,
                    task,
                    machine,
                } => {
                    let mi = machine.index();
                    open[task.index()] = (mi as u32, out[mi].len() as u32);
                    out[mi].push(Slot {
                        task,
                        start: time,
                        end: time,
                    });
                }
                TraceEvent::Complete { time, task, .. } => {
                    let (mi, si) = open[task.index()];
                    out[mi as usize][si as usize].end = time;
                }
                _ => {}
            }
        }
        out
    }

    /// Clones the last run's outputs into an owned [`SimResult`] —
    /// identical to what [`crate::Engine::run`] would have returned.
    /// This allocates; hot paths should read the arena in place instead.
    pub fn to_sim_result(&self) -> SimResult {
        SimResult {
            schedule: Schedule::from_slots(self.per_machine_slots()),
            makespan: self.makespan,
            trace: self.trace.clone(),
        }
    }

    /// Moves the last run's outputs out as a [`SimResult`]; the slot
    /// log's storage stays in the arena for the next run.
    pub(crate) fn take_result(&mut self) -> SimResult {
        SimResult {
            schedule: Schedule::from_slots(self.per_machine_slots()),
            makespan: self.makespan,
            trace: std::mem::take(&mut self.trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::{MachineId, TaskId};

    #[test]
    fn prepare_resets_dirty_state_and_resizes() {
        let mut arena = SimArena::with_capacity(4, 2);
        arena.prepare(4, 2, None);
        arena
            .pending
            .resize(4, crate::dispatcher::HotTask::pending_only(true));
        arena.pending[1].mark_started();
        arena.trace.push(crate::trace::TraceEvent::Starved {
            time: Time::ZERO,
            machine: MachineId::new(0),
        });
        arena.makespan = Time::of(9.0);
        arena.queue.pop();

        // Shrink to a smaller shape: everything must come back pristine.
        arena.prepare(2, 1, None);
        assert!(arena.pending.is_empty());
        assert!(arena.pending.capacity() >= 2);
        assert_eq!(arena.m, 1);
        assert!(arena.trace.is_empty());
        assert_eq!(arena.makespan, Time::ZERO);
        assert_eq!(arena.queue.len(), 1);

        // Grow again: shape follows, state still pristine.
        arena.prepare(6, 3, None);
        assert!(arena.pending.capacity() >= 6);
        assert_eq!(arena.m, 3);
        assert_eq!(arena.queue.len(), 3);
    }

    #[test]
    fn steady_state_prepare_keeps_capacity() {
        let mut arena = SimArena::with_capacity(8, 4);
        arena.prepare(8, 4, None);
        let pending_cap = arena.pending.capacity();
        arena.prepare(8, 4, None);
        assert_eq!(arena.pending.capacity(), pending_cap);
    }

    #[test]
    fn per_machine_slots_derive_from_trace_in_execution_order() {
        use crate::trace::TraceEvent;
        let mut arena = SimArena::with_capacity(3, 3);
        arena.prepare(3, 3, None);
        arena
            .pending
            .resize(3, crate::dispatcher::HotTask::pending_only(true));
        let start = |task: usize, machine: usize, t: f64| TraceEvent::Start {
            time: Time::of(t),
            task: TaskId::new(task),
            machine: MachineId::new(machine),
        };
        let complete = |task: usize, machine: usize, t: f64| TraceEvent::Complete {
            time: Time::of(t),
            task: TaskId::new(task),
            machine: MachineId::new(machine),
            actual: Time::of(1.0),
        };
        arena.trace.push(start(0, 2, 0.0));
        arena.trace.push(start(1, 0, 0.0));
        arena.trace.push(complete(1, 0, 1.0));
        arena.trace.push(start(2, 0, 1.0));
        arena.trace.push(complete(0, 2, 2.0));
        arena.trace.push(complete(2, 0, 3.0));
        let per = arena.per_machine_slots();
        assert_eq!(per.len(), 3);
        assert_eq!(per[0].len(), 2);
        assert_eq!(per[0][0].task, TaskId::new(1));
        assert_eq!(per[0][0].end, Time::of(1.0));
        assert_eq!(per[0][1].task, TaskId::new(2));
        assert_eq!(per[0][1].end, Time::of(3.0));
        assert_eq!(per[1], vec![]);
        assert_eq!(per[2][0].task, TaskId::new(0));
        assert_eq!(per[2][0].start, Time::ZERO);
        assert_eq!(per[2][0].end, Time::of(2.0));
    }
}
