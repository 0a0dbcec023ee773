//! The event queue driving the phase-2 execution engine.
//!
//! Two interchangeable backends sit behind [`EventQueue`]:
//!
//! - a binary **heap** (`BinaryHeap<Reverse<Entry>>`), the general
//!   min-priority queue — always correct, `O(log m)` per operation;
//! - a **calendar queue** (bucketed/radix), exploiting the engine's
//!   near-monotone completion times for amortized `O(1)` per event.
//!
//! The calendar maps an event time `t` to a virtual bucket index
//! `⌊t / width⌋` and keeps a power-of-two window of `B` buckets
//! starting at the current index `vidx`; events landing past the
//! window wait in a small overflow heap and are drained in as the
//! window advances. The engine picks `width` so the expected bucket
//! occupancy is ~1 event (mean task duration / m), which makes every
//! push and pop touch a handful of contiguous words.
//!
//! Degenerate time distributions (all mass in one bucket, or times so
//! spread the window scans emptily forever) are caught by a cheap
//! work counter: when bucket scanning exceeds a fixed multiple of the
//! events actually delivered, the queue migrates its remaining events
//! to the heap backend mid-run. Ordering is identical either way, so
//! the fallback is invisible to the engine.

use rds_core::{Error, MachineId, Result, TaskId, Time};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A machine-becomes-idle event.
///
/// Ordering: earliest time first; ties broken by smallest machine id,
/// which matches the deterministic tie-break of the closed-form greedy
/// implementations in `rds-algs`.
///
/// `finished` carries the identity of the task whose completion produced
/// this event (`None` for the initial idle-at-zero seeds). The engine
/// reports completions from this field rather than re-deriving "the slot
/// that just ended" from a floating-point time comparison, which could
/// silently drop a `Complete` trace event whenever derived times drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleEvent {
    /// When the machine becomes idle.
    pub time: Time,
    /// Which machine.
    pub machine: MachineId,
    /// The task whose completion freed the machine, if any.
    pub finished: Option<TaskId>,
    /// Actual processing time of `finished` ([`Time::ZERO`] when
    /// `finished` is `None`). Carrying it in the event spares the
    /// engine a second random read into the realization's actuals at
    /// completion — at n=10^6 that lookup is a guaranteed cache miss
    /// per event.
    pub actual: Time,
}

impl IdleEvent {
    /// A payload-free event for queue id `id` at `time`. The engine's
    /// fault arm keys its events by ids that are not all machines (see
    /// `faults::FaultArm`); the queue orders them by `(time, id)` all
    /// the same.
    pub(crate) fn bare(time: Time, id: usize) -> Self {
        IdleEvent {
            time,
            machine: MachineId::new(id),
            finished: None,
            actual: Time::ZERO,
        }
    }
}

/// Heap entry ordering [`IdleEvent`]s by `(time, machine)` only — the
/// `finished` payload rides along without affecting queue order.
#[derive(Debug)]
struct Entry(IdleEvent);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.0.time, self.0.machine) == (other.0.time, other.0.machine)
    }
}

impl Eq for Entry {}

// Intentional `PartialOrd` *definition*: it delegates to the total
// `Ord` below (which compares `Time` newtypes, never raw floats), so
// the clippy.toml `partial_cmp` fence is not weakened — the fence bans
// NaN-unsafe `f64::partial_cmp` *calls*, not trait impls.
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.0.time, self.0.machine).cmp(&(other.0.time, other.0.machine))
    }
}

/// Which backend a simulation run should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueMode {
    /// Pick per run: calendar for large instances with a usable time
    /// scale, heap otherwise.
    #[default]
    Auto,
    /// Always the binary heap.
    Heap,
    /// Always the calendar queue (still subject to the runtime
    /// degeneracy fallback, which preserves ordering exactly).
    Bucketed,
}

/// Chain terminator in the per-machine `next` links.
///
/// Sentinel-aliasing hazard: the calendar's columns store machine and
/// task ids as `u32`, so a real id equal to [`NIL`], [`FREE`], or
/// [`NO_TASK`] would be silently misread as the sentinel (a task
/// `u32::MAX` would vanish as "no finished task"; a machine
/// `u32::MAX - 1` would never link onto the wheel).
/// [`EventQueue::check_capacity`] rejects such counts up front, and the
/// engine calls it at construction.
const NIL: u32 = u32::MAX;

/// Sentinel in `next` marking a machine with no event on the wheel
/// (see the aliasing note on [`NIL`]).
const FREE: u32 = u32::MAX - 1;

/// Sentinel in the per-machine task column for `finished == None`
/// (see the aliasing note on [`NIL`]).
const NO_TASK: u32 = u32::MAX;

/// The calendar backend: an intrusive timer wheel over virtual index
/// `⌊t / width⌋`, plus an overflow heap for events past the window.
///
/// Storage exploits the engine's invariant that each machine has at
/// most one outstanding idle event: the event payload lives in dense
/// per-machine columns (`ev_time` / `ev_task` / `ev_actual`), and each
/// of the `B` ring buckets is just a `u32` head of an intrusive linked
/// list through the per-machine `next` column. Every queue operation
/// therefore touches a few small flat arrays (`≈ 4·B + 16·m` bytes —
/// L2-resident even at m = 10^4) instead of per-bucket `Vec`s whose
/// headers and payloads each cost a cache miss at scale.
///
/// The public [`EventQueue::push`] API still accepts a second event
/// for a machine already on the wheel (or an event for a machine id
/// past the reset size): such events wait in the overflow heap and are
/// merged back strictly in `(time, machine)` order at pop, so ordering
/// stays identical to the heap backend for any input.
#[derive(Debug, Default)]
struct CalendarQueue {
    /// `head.len()` is a power of two `B`; bucket for virtual index
    /// `i` is `head[i & mask]`, holding a machine id or [`NIL`]. The
    /// window covers `[vidx, vidx + B)`.
    head: Vec<u32>,
    /// Per machine: next machine in the same bucket's chain ([`NIL`]
    /// ends a chain, [`FREE`] means not on the wheel).
    next: Vec<u32>,
    /// Per machine: queued event time.
    ev_time: Vec<f64>,
    /// Per machine: queued event's finished task, or [`NO_TASK`].
    ev_task: Vec<u32>,
    /// Per machine: queued event's actual duration.
    ev_actual: Vec<f64>,
    mask: u64,
    inv_width: f64,
    vidx: u64,
    /// Events currently on the wheel.
    bucketed: usize,
    /// Events whose virtual index falls outside the window, plus any
    /// conflicting second-event-per-machine pushes.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Work counters feeding the degeneracy fallback.
    scanned: u64,
    popped: u64,
}

impl CalendarQueue {
    fn reset(&mut self, m: usize, width: f64) {
        debug_assert!(width.is_finite() && width > 0.0);
        let b = (2 * m).max(8).next_power_of_two();
        self.head.clear();
        self.head.resize(b, NIL);
        self.next.clear();
        self.next.resize(m, FREE);
        self.ev_time.clear();
        self.ev_time.resize(m, 0.0);
        self.ev_task.clear();
        self.ev_task.resize(m, NO_TASK);
        self.ev_actual.clear();
        self.ev_actual.resize(m, 0.0);
        self.mask = (b - 1) as u64;
        self.inv_width = 1.0 / width;
        self.vidx = 0;
        self.bucketed = 0;
        self.overflow.clear();
        self.scanned = 0;
        self.popped = 0;
    }

    /// Virtual bucket index of a time; saturates for extreme times
    /// (which then route to the overflow heap — still correct).
    fn idx(&self, t: Time) -> u64 {
        (t.get() * self.inv_width) as u64
    }

    fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// Reconstructs the queued event of machine `mi` from the columns.
    fn event_of(&self, mi: usize) -> IdleEvent {
        IdleEvent {
            time: Time::of(self.ev_time[mi]),
            machine: MachineId::new(mi),
            finished: (self.ev_task[mi] != NO_TASK).then(|| TaskId::new(self.ev_task[mi] as usize)),
            actual: Time::of(self.ev_actual[mi]),
        }
    }

    /// Links `ev` into the bucket for virtual index `i` (must be inside
    /// the window and the machine must be free).
    fn link(&mut self, ev: IdleEvent, i: u64) {
        let mi = ev.machine.index();
        let ring = (i & self.mask) as usize;
        self.next[mi] = self.head[ring];
        self.head[ring] = mi as u32;
        self.ev_time[mi] = ev.time.get();
        self.ev_task[mi] = ev.finished.map_or(NO_TASK, |t| t.index() as u32);
        self.ev_actual[mi] = ev.actual.get();
        self.bucketed += 1;
    }

    fn push(&mut self, ev: IdleEvent) {
        // Clamp a (theoretical) time regression into the current
        // bucket: its time is below everything still queued, so the
        // min-scan of the current bucket pops it first regardless.
        let i = self.idx(ev.time).max(self.vidx);
        let mi = ev.machine.index();
        if i - self.vidx >= self.head.len() as u64 || mi >= self.next.len() || self.next[mi] != FREE
        {
            self.overflow.push(Reverse(Entry(ev)));
        } else {
            self.link(ev, i);
        }
    }

    /// Moves overflow events now inside the window onto the wheel,
    /// stopping at the first that is still out of window or whose
    /// machine is occupied (the pop-side merge keeps order for those).
    fn drain_overflow(&mut self) {
        let b = self.head.len() as u64;
        while let Some(Reverse(Entry(ev))) = self.overflow.peek() {
            let i = self.idx(ev.time).max(self.vidx);
            let mi = ev.machine.index();
            if i - self.vidx >= b || mi >= self.next.len() || self.next[mi] != FREE {
                break;
            }
            let Some(Reverse(Entry(ev))) = self.overflow.pop() else {
                unreachable!("peeked entry vanished");
            };
            self.link(ev, i);
        }
    }

    /// Advances `vidx` to the first non-empty bucket and returns its
    /// ring index. Caller guarantees `bucketed > 0`.
    fn seek(&mut self) -> usize {
        loop {
            let ring = (self.vidx & self.mask) as usize;
            if self.head[ring] != NIL {
                return ring;
            }
            self.vidx += 1;
            self.scanned += 1;
        }
    }

    /// Minimum time on the chain of ring bucket `ring` (also counts
    /// the walk toward the degeneracy work counter).
    fn chain_min(&mut self, ring: usize) -> f64 {
        let mut tmin = f64::INFINITY;
        let mut mi = self.head[ring];
        while mi != NIL {
            self.scanned += 1;
            tmin = tmin.min(self.ev_time[mi as usize]);
            mi = self.next[mi as usize];
        }
        tmin
    }

    /// Unlinks every chain node of `ring` whose time equals `t` into
    /// `out`.
    fn unlink_time(&mut self, ring: usize, t: f64, out: &mut Vec<IdleEvent>) {
        let mut prev = NIL;
        let mut mi = self.head[ring];
        while mi != NIL {
            let nxt = self.next[mi as usize];
            if self.ev_time[mi as usize] == t {
                out.push(self.event_of(mi as usize));
                if prev == NIL {
                    self.head[ring] = nxt;
                } else {
                    self.next[prev as usize] = nxt;
                }
                self.next[mi as usize] = FREE;
                self.bucketed -= 1;
            } else {
                prev = mi;
            }
            mi = nxt;
        }
    }

    /// Pops every overflow event whose time equals `t` into `out`.
    fn pop_overflow_time(&mut self, t: f64, out: &mut Vec<IdleEvent>) {
        while let Some(Reverse(Entry(ev))) = self.overflow.peek() {
            if ev.time.get() != t {
                break;
            }
            let Some(Reverse(Entry(ev))) = self.overflow.pop() else {
                unreachable!("peeked entry vanished");
            };
            out.push(ev);
        }
    }

    /// Appends every event carrying the minimal time to `out`, sorted by
    /// machine id — one dispatch round. Returns `false` when empty.
    fn pop_round(&mut self, out: &mut Vec<IdleEvent>) -> bool {
        let start = out.len();
        if self.len() == 0 {
            return false;
        }
        self.drain_overflow();
        // Window invariant: every bucket past the seek point holds
        // strictly later virtual indices, hence strictly later times —
        // the first non-empty bucket's chain minimum is the wheel
        // minimum. Overflow events blocked by an occupied machine may
        // still undercut it, so the two minima merge here.
        let wheel = (self.bucketed > 0).then(|| {
            let ring = self.seek();
            (ring, self.chain_min(ring))
        });
        let over = self.overflow.peek().map(|Reverse(Entry(ev))| ev.time.get());
        let t = match (wheel, over) {
            (Some((_, tw)), Some(to)) => tw.min(to),
            (Some((_, tw)), None) => tw,
            (None, Some(to)) => to,
            (None, None) => return false,
        };
        if let Some((ring, tw)) = wheel {
            if tw == t {
                self.unlink_time(ring, t, out);
            }
        }
        self.pop_overflow_time(t, out);
        self.popped += (out.len() - start) as u64;
        if out.len() - start > 1 {
            out[start..].sort_unstable_by_key(|e| e.machine);
        }
        true
    }

    /// `true` once bucket scanning has cost markedly more than the
    /// events it delivered — the signal that this time distribution
    /// defeats the calendar and the heap should take over.
    fn degenerate(&self) -> bool {
        self.scanned > 8 * self.popped + 4 * self.head.len() as u64
    }

    /// Drains every remaining event (used by the heap migration).
    fn drain_into(&mut self, heap: &mut BinaryHeap<Reverse<Entry>>) {
        for ring in 0..self.head.len() {
            let mut mi = self.head[ring];
            while mi != NIL {
                heap.push(Reverse(Entry(self.event_of(mi as usize))));
                let nxt = self.next[mi as usize];
                self.next[mi as usize] = FREE;
                mi = nxt;
            }
            self.head[ring] = NIL;
        }
        self.bucketed = 0;
        heap.extend(self.overflow.drain());
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Active {
    #[default]
    Heap,
    Calendar,
}

/// Min-priority queue of [`IdleEvent`]s.
///
/// Defaults to the heap backend; [`EventQueue::reset_bucketed`] arms
/// the calendar for one engine run. Both backends expose identical
/// ordering, so callers never observe which one is active.
#[derive(Debug, Default)]
pub struct EventQueue {
    active: Active,
    heap: BinaryHeap<Reverse<Entry>>,
    cal: CalendarQueue,
}

impl EventQueue {
    /// Largest task or machine count whose ids stay clear of every
    /// `u32` sentinel in the calendar's columns ([`NIL`], [`FREE`],
    /// [`NO_TASK`]): ids must stay strictly below `u32::MAX - 1`, the
    /// smallest sentinel value.
    pub const MAX_IDS: usize = FREE as usize;

    /// Guards the calendar's `u32` id columns against sentinel
    /// aliasing: a task index `≥ u32::MAX - 1` (or such a machine
    /// index) would be indistinguishable from [`FREE`]/[`NO_TASK`] once
    /// stored, silently corrupting the wheel. The engine calls this at
    /// construction so the impossible ids are rejected with a typed
    /// error instead.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `n_tasks` or `m` exceeds
    /// [`Self::MAX_IDS`].
    pub fn check_capacity(n_tasks: usize, m: usize) -> Result<()> {
        if n_tasks > Self::MAX_IDS {
            return Err(Error::InvalidParameter {
                what: "task count exceeds the event queue's u32 id range (sentinel aliasing)",
            });
        }
        if m > Self::MAX_IDS {
            return Err(Error::InvalidParameter {
                what: "machine count exceeds the event queue's u32 id range (sentinel aliasing)",
            });
        }
        Ok(())
    }

    /// An empty queue (heap backend).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            active: Active::Heap,
            heap: BinaryHeap::with_capacity(cap),
            cal: CalendarQueue::default(),
        }
    }

    /// Queue with every machine idle at time zero (no finished task),
    /// sized for `m` events up front — each machine has at most one
    /// outstanding idle event, so the engine never grows the heap.
    pub fn all_idle(m: usize) -> Self {
        let mut q = Self::with_capacity(m);
        q.reset_all_idle(m);
        q
    }

    /// Clears the queue (keeping its storage), selects the **heap**
    /// backend, and reseeds every machine idle at time zero, exactly
    /// like a fresh [`EventQueue::all_idle`]. Once the heap has
    /// capacity for `m` events this never allocates.
    pub fn reset_all_idle(&mut self, m: usize) {
        self.reset_empty(m, None);
        self.seed_idle(m);
    }

    /// Clears the queue, selects the **calendar** backend with bucket
    /// width `width` (must be finite and positive — the caller derives
    /// it from the workload's mean task duration), and reseeds every
    /// machine idle at time zero. Bucket storage is retained across
    /// resets with the same `m`.
    pub fn reset_bucketed(&mut self, m: usize, width: f64) {
        self.reset_empty(m, Some(width));
        self.seed_idle(m);
    }

    /// Clears the queue (keeping its storage) without seeding anything,
    /// sized for `ids` distinct event ids: the calendar backend with
    /// bucket `width`, or the heap when `width` is `None`. The engine's
    /// fault arm uses this to lay out its own event ids (see
    /// `faults::FaultArm`).
    pub(crate) fn reset_empty(&mut self, ids: usize, width: Option<f64>) {
        self.heap.clear();
        match width {
            Some(w) => {
                self.active = Active::Calendar;
                self.cal.reset(ids, w);
            }
            None => {
                self.active = Active::Heap;
                self.heap.reserve(ids);
            }
        }
    }

    /// Pushes one idle-at-zero seed per machine.
    fn seed_idle(&mut self, m: usize) {
        for i in 0..m {
            self.push(IdleEvent {
                time: Time::ZERO,
                machine: MachineId::new(i),
                finished: None,
                actual: Time::ZERO,
            });
        }
    }

    /// Inserts an event.
    pub fn push(&mut self, ev: IdleEvent) {
        match self.active {
            Active::Heap => self.heap.push(Reverse(Entry(ev))),
            Active::Calendar => self.cal.push(ev),
        }
    }

    /// Removes and returns the earliest event (ties → smallest machine).
    /// A calendar-armed queue first moves all its events to the heap,
    /// as the degeneracy fallback does; the engine pops by round instead.
    pub fn pop(&mut self) -> Option<IdleEvent> {
        self.use_heap();
        self.heap.pop().map(|Reverse(Entry(ev))| ev)
    }

    /// Pops **every** event sharing the minimal time into `out`
    /// (cleared first), sorted by machine id — one dispatch round.
    /// Returns `false` when the queue is empty.
    ///
    /// On the calendar backend this is also where the degeneracy
    /// fallback triggers: when bucket scanning has cost more than a
    /// fixed multiple of the events delivered, all remaining events
    /// migrate to the heap. The migration reorders nothing.
    pub fn pop_round(&mut self, out: &mut Vec<IdleEvent>) -> bool {
        out.clear();
        self.append_round(out)
    }

    /// Like [`Self::pop_round`] but *appends* the next round to `out`,
    /// letting the engine accumulate a small look-ahead window of whole
    /// timestamp groups. Group boundaries stay intact, so everything in
    /// `out` still precedes everything left in the queue under the
    /// global `(time, machine)` order.
    pub fn append_round(&mut self, out: &mut Vec<IdleEvent>) -> bool {
        match self.active {
            Active::Heap => {
                let Some(Reverse(Entry(first))) = self.heap.pop() else {
                    return false;
                };
                out.push(first);
                // Heap order is (time, machine), so equal-time pops
                // already arrive in ascending machine order.
                while let Some(Reverse(Entry(ev))) = self.heap.peek() {
                    if ev.time != first.time {
                        break;
                    }
                    let Some(Reverse(Entry(ev))) = self.heap.pop() else {
                        unreachable!("peeked entry vanished");
                    };
                    out.push(ev);
                }
                true
            }
            Active::Calendar => {
                let any = self.cal.pop_round(out);
                if any && self.cal.degenerate() {
                    self.use_heap();
                }
                any
            }
        }
    }

    /// The earliest event without removing it — lets an outer loop (the
    /// serve daemon) merge this queue with other event sources (task
    /// arrivals, retry timers) by comparing heads. Like [`Self::pop`],
    /// it moves a calendar-armed queue's events to the heap first.
    pub fn peek(&mut self) -> Option<IdleEvent> {
        self.use_heap();
        self.heap.peek().map(|Reverse(Entry(ev))| *ev)
    }

    /// Switches a calendar-armed queue to the heap backend, moving every
    /// queued event over — the degeneracy fallback's migration, which
    /// reorders nothing. A no-op on the heap backend.
    fn use_heap(&mut self) {
        if self.active == Active::Calendar {
            self.cal.drain_into(&mut self.heap);
            self.active = Active::Heap;
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        match self.active {
            Active::Heap => self.heap.len(),
            Active::Calendar => self.cal.len(),
        }
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` while the calendar backend is active (it may flip to the
    /// heap mid-run via the degeneracy fallback). Diagnostic only.
    pub fn is_bucketed(&self) -> bool {
        self.active == Active::Calendar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::all_idle(3);
        let head = q.peek().unwrap();
        assert_eq!(q.pop().unwrap(), head);
        assert_eq!(head.machine.index(), 0);
    }

    #[test]
    fn pops_in_time_then_machine_order() {
        let mut q = EventQueue::new();
        q.push(IdleEvent {
            time: Time::of(2.0),
            machine: MachineId::new(0),
            finished: Some(TaskId::new(7)),
            actual: Time::of(2.0),
        });
        q.push(IdleEvent {
            time: Time::of(1.0),
            machine: MachineId::new(5),
            finished: None,
            actual: Time::ZERO,
        });
        q.push(IdleEvent {
            time: Time::of(1.0),
            machine: MachineId::new(3),
            finished: Some(TaskId::new(1)),
            actual: Time::of(1.0),
        });
        let order: Vec<(f64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.get(), e.machine.index()))
            .collect();
        assert_eq!(order, vec![(1.0, 3), (1.0, 5), (2.0, 0)]);
    }

    #[test]
    fn finished_task_rides_through_the_queue() {
        let mut q = EventQueue::new();
        q.push(IdleEvent {
            time: Time::of(3.0),
            machine: MachineId::new(1),
            finished: Some(TaskId::new(4)),
            actual: Time::of(3.0),
        });
        let e = q.pop().unwrap();
        assert_eq!(e.finished, Some(TaskId::new(4)));
    }

    #[test]
    fn all_idle_seeds_every_machine_at_zero() {
        let mut q = EventQueue::all_idle(3);
        assert_eq!(q.len(), 3);
        for expected in 0..3 {
            let e = q.pop().unwrap();
            assert_eq!(e.time, Time::ZERO);
            assert_eq!(e.machine.index(), expected);
            assert_eq!(e.finished, None);
        }
        assert!(q.is_empty());
    }

    fn ev(t: f64, m: usize) -> IdleEvent {
        IdleEvent {
            time: Time::of(t),
            machine: MachineId::new(m),
            finished: None,
            actual: Time::ZERO,
        }
    }

    /// Drains a queue round by round into `(time, machine)` pairs.
    fn drain_rounds(q: &mut EventQueue) -> Vec<Vec<(f64, usize)>> {
        let mut rounds = Vec::new();
        let mut buf = Vec::new();
        while q.pop_round(&mut buf) {
            rounds.push(
                buf.iter()
                    .map(|e| (e.time.get(), e.machine.index()))
                    .collect(),
            );
        }
        rounds
    }

    #[test]
    fn heap_pop_round_groups_equal_times_in_machine_order() {
        let mut q = EventQueue::new();
        for (t, m) in [(2.0, 1), (1.0, 4), (1.0, 2), (3.0, 0), (1.0, 9)] {
            q.push(ev(t, m));
        }
        let rounds = drain_rounds(&mut q);
        assert_eq!(
            rounds,
            vec![
                vec![(1.0, 2), (1.0, 4), (1.0, 9)],
                vec![(2.0, 1)],
                vec![(3.0, 0)],
            ]
        );
    }

    #[test]
    fn calendar_matches_heap_on_random_pushes() {
        // Deterministic pseudo-random times over a wide range, popped
        // interleaved with pushes — the exact sequences must agree.
        let mut heap = EventQueue::new();
        heap.reset_all_idle(4);
        let mut cal = EventQueue::new();
        cal.reset_bucketed(4, 0.37);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut clock = 0.0f64;
        for step in 0..500 {
            // Pop one round from each and compare.
            let mut a = Vec::new();
            let mut b = Vec::new();
            assert_eq!(heap.pop_round(&mut a), cal.pop_round(&mut b));
            assert_eq!(a, b, "diverged at step {step}");
            if let Some(first) = a.first() {
                clock = first.time.get();
            }
            // Push a replacement per popped event, at or after `clock`.
            for e in &a {
                let t = clock + next() * 10.0;
                heap.push(ev(t, e.machine.index()));
                cal.push(ev(t, e.machine.index()));
            }
            assert_eq!(heap.len(), cal.len());
        }
    }

    #[test]
    fn pop_and_peek_on_a_calendar_queue_match_the_heap() {
        let mut heap = EventQueue::new();
        heap.reset_all_idle(6);
        let mut cal = EventQueue::new();
        cal.reset_bucketed(6, 0.5);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(heap.pop_round(&mut a) && cal.pop_round(&mut b));
        assert_eq!(a, b);
        // On the calendar these land on the wheel, past its window in
        // the overflow heap (1e9), and as a second event for machine 4
        // in the overflow heap too.
        for (t, m) in [(0.7, 0), (0.2, 4), (3.1, 2), (1e9, 5), (0.7, 3), (0.2, 4)] {
            heap.push(ev(t, m));
            cal.push(ev(t, m));
        }
        assert!(cal.is_bucketed());
        let mut seq = Vec::new();
        for step in 0..2 {
            let head = cal.peek();
            assert_eq!(head, heap.peek(), "peek diverged at step {step}");
            assert_eq!(cal.pop(), head, "pop differs from peek at step {step}");
            assert_eq!(heap.pop(), head, "pop diverged at step {step}");
            seq.push(head.map(|e| (e.time.get(), e.machine.index())));
        }
        for q in [&mut heap, &mut cal] {
            q.push(ev(0.5, 1));
        }
        while let Some(e) = cal.pop() {
            assert_eq!(heap.pop(), Some(e));
            seq.push(Some((e.time.get(), e.machine.index())));
        }
        assert!(heap.is_empty());
        assert_eq!(
            seq,
            [
                (0.2, 4),
                (0.2, 4),
                (0.5, 1),
                (0.7, 0),
                (0.7, 3),
                (3.1, 2),
                (1e9, 5)
            ]
            .map(Some)
        );
    }

    #[test]
    fn calendar_survives_all_equal_timestamps() {
        let mut q = EventQueue::new();
        q.reset_bucketed(6, 1.0);
        // All six machines idle at 0 come out as one round.
        let mut buf = Vec::new();
        assert!(q.pop_round(&mut buf));
        assert_eq!(buf.len(), 6);
        // Re-push all at the same far-future instant: one bucket, one
        // round, machine-ordered.
        for m in [5usize, 0, 3, 1, 4, 2] {
            q.push(ev(1e6, m));
        }
        assert!(q.pop_round(&mut buf));
        let machines: Vec<usize> = buf.iter().map(|e| e.machine.index()).collect();
        assert_eq!(machines, vec![0, 1, 2, 3, 4, 5]);
        assert!(!q.pop_round(&mut buf));
    }

    #[test]
    fn calendar_handles_huge_dynamic_range_via_overflow() {
        let mut q = EventQueue::new();
        q.reset_bucketed(4, 1e-6);
        // Times spanning 12 orders of magnitude; extreme ones saturate
        // the virtual index and route through the overflow heap.
        let times = [0.0, 1e-9, 3.0, 1e6, 1e12, 2.5e12];
        for (m, &t) in times.iter().enumerate() {
            q.push(ev(t, m + 4));
        }
        let mut seen = Vec::new();
        let mut buf = Vec::new();
        while q.pop_round(&mut buf) {
            for e in &buf {
                seen.push(e.time.get());
            }
        }
        // 4 idle seeds at 0.0 first, then the pushed times ascending.
        let mut expected = vec![0.0, 0.0, 0.0, 0.0];
        expected.extend_from_slice(&times);
        assert_eq!(seen, expected);
    }

    #[test]
    fn degeneracy_fallback_migrates_to_heap_without_reordering() {
        let mut q = EventQueue::new();
        // Huge width: every distinct time collapses into one bucket, so
        // each round chain-walks all 32 machines to deliver one event —
        // exactly the quadratic pattern the fallback exists for.
        q.reset_bucketed(32, 1e6);
        let mut buf = Vec::new();
        assert!(q.pop_round(&mut buf)); // the 32 idle seeds at t = 0
        assert_eq!(buf.len(), 32);
        // One outstanding event per machine, all times distinct. Each
        // pop re-arms the machine 32 units later, keeping the chain at
        // full length until scanning overwhelms delivery.
        for m in 0..32usize {
            q.push(ev(1.0 + m as f64, m));
        }
        let mut popped = Vec::new();
        while q.pop_round(&mut buf) {
            assert_eq!(buf.len(), 1, "all times are distinct");
            let e = buf[0];
            popped.push(e.time.get());
            if e.time.get() < 200.0 {
                q.push(ev(e.time.get() + 32.0, e.machine.index()));
            }
        }
        assert!(!q.is_bucketed(), "fallback should have migrated to heap");
        let mut sorted = popped.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(popped, sorted, "migration must not reorder events");
    }

    #[test]
    fn capacity_guard_rejects_sentinel_aliasing_counts() {
        // Ids live in u32 columns with sentinels at u32::MAX (NIL,
        // NO_TASK) and u32::MAX - 1 (FREE): a count that reaches either
        // would make a real id alias a sentinel. The guard rejects it
        // with a typed error; everything below passes.
        assert!(EventQueue::check_capacity(0, 0).is_ok());
        assert!(EventQueue::check_capacity(EventQueue::MAX_IDS, 4).is_ok());
        assert!(matches!(
            EventQueue::check_capacity(EventQueue::MAX_IDS + 1, 4).unwrap_err(),
            Error::InvalidParameter { .. }
        ));
        assert!(matches!(
            EventQueue::check_capacity(4, EventQueue::MAX_IDS + 1).unwrap_err(),
            Error::InvalidParameter { .. }
        ));
        assert!(matches!(
            EventQueue::check_capacity(u32::MAX as usize, 4).unwrap_err(),
            Error::InvalidParameter { .. }
        ));
        assert_eq!(EventQueue::MAX_IDS, u32::MAX as usize - 1);
    }

    #[test]
    fn reset_bucketed_reuses_storage_and_clears_state() {
        let mut q = EventQueue::new();
        q.reset_bucketed(8, 0.5);
        for i in 0..8 {
            q.push(ev(i as f64, i));
        }
        q.reset_bucketed(8, 0.25);
        assert_eq!(q.len(), 8, "only the idle seeds survive a reset");
        let mut buf = Vec::new();
        assert!(q.pop_round(&mut buf));
        assert_eq!(buf.len(), 8);
        assert!(buf.iter().all(|e| e.time == Time::ZERO));
    }
}
