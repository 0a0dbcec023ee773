//! The harness-owned span recorder behind the per-layer metrics.
//!
//! Spans are opened around calls from the harness into the crates'
//! public functions; nothing inside the program is instrumented. Each
//! span keeps its name, start, end and parent in a preallocated buffer
//! (written out as JSONL when the run ends) and is folded into its
//! layer's totals when it closes. A span's self time is its duration
//! minus the durations of its direct children.
//!
//! The recorder is thread-local and absent by default: in an untraced
//! pass [`span`] costs one thread-local lookup.

use crate::stats::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept for the JSONL dump; later spans still count toward the
/// layer totals.
const BUFFER_SPANS: usize = 1 << 16;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Per-layer totals.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub calls: u64,
    pub failed: u64,
    pub self_ns: u64,
    /// Self time per call.
    pub hist: Histogram,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    slot: u32,
    failed: bool,
}

/// The recorder, driven with explicit timestamps (nanoseconds since an
/// arbitrary origin) so tests can replay exact span trees.
pub struct Recorder {
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, Layer>,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            spans: Vec::with_capacity(BUFFER_SPANS),
            dropped: 0,
            stack: Vec::with_capacity(64),
            layers: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Recorder {
    pub fn open(&mut self, name: &'static str, now_ns: u64) {
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.slot);
        let slot = if self.spans.len() < BUFFER_SPANS {
            self.spans.push(Span {
                name,
                start_ns: now_ns,
                end_ns: now_ns,
                parent,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start_ns: now_ns,
            children_ns: 0,
            slot,
            failed: false,
        });
    }

    /// Marks the innermost open span as failed.
    pub fn fail(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            top.failed = true;
        }
    }

    pub fn close(&mut self, now_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let duration = now_ns.saturating_sub(open.start_ns);
        if let Some(span) = self.spans.get_mut(open.slot as usize) {
            span.end_ns = now_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += duration;
        }
        let self_ns = duration.saturating_sub(open.children_ns);
        let layer = self.layers.entry(open.name).or_default();
        layer.calls += 1;
        layer.failed += u64::from(open.failed);
        layer.self_ns += self_ns;
        layer.hist.record(self_ns);
    }

    /// Records a closed leaf span in one step.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.open(name, start_ns);
        self.close(end_ns);
    }

    /// Moves `ns` of self time from layer `from` to layer `to` — for a
    /// cost measured by a paired run rather than by its own spans.
    pub fn attribute(&mut self, from: &'static str, to: &'static str, ns: u64) {
        let moved = self.layers.get(from).map_or(0, |l| l.self_ns.min(ns));
        if let Some(l) = self.layers.get_mut(from) {
            l.self_ns -= moved;
        }
        self.layers.entry(to).or_default().self_ns += moved;
    }

    pub fn layers(&self) -> &BTreeMap<&'static str, Layer> {
        &self.layers
    }

    /// Work counted at layer boundaries with [`add`].
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The span buffer as JSONL, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

struct Installed {
    epoch: Instant,
    recording: bool,
    rec: Recorder,
}

thread_local! {
    static ACTIVE: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

fn with_active<R>(f: impl FnOnce(&mut Recorder, u64) -> R) -> Option<R> {
    ACTIVE.with(|cell| {
        let mut guard = cell.borrow_mut();
        guard.as_mut().filter(|i| i.recording).map(|i| {
            let now = i.epoch.elapsed().as_nanos() as u64;
            f(&mut i.rec, now)
        })
    })
}

/// Installs a fresh recorder on this thread; spans opened from now on
/// are recorded.
pub fn start() {
    ACTIVE.with(|cell| {
        *cell.borrow_mut() = Some(Installed {
            epoch: Instant::now(),
            recording: true,
            rec: Recorder::default(),
        })
    });
}

/// Pauses or resumes recording without discarding what was recorded.
pub fn set_recording(on: bool) {
    ACTIVE.with(|cell| {
        if let Some(i) = cell.borrow_mut().as_mut() {
            i.recording = on;
        }
    });
}

/// Removes and returns this thread's recorder, if one is installed.
pub fn stop() -> Option<Recorder> {
    ACTIVE.with(|cell| cell.borrow_mut().take().map(|i| i.rec))
}

/// Applies `f` to the recorder (no-op when untraced).
pub fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    with_active(|rec, _| f(rec));
}

/// Records the interval since `*last` as a leaf span of layer `name`
/// and moves `*last` to now. `*last` starts from [`now_ns`].
pub fn lap(name: &'static str, last: &mut u64) {
    with_active(|rec, now| {
        rec.leaf(name, *last, now);
        *last = now;
    });
}

/// Adds `n` to counter `name` (no-op when untraced).
pub fn add(name: &'static str, n: u64) {
    with_active(|rec, _| *rec.counters.entry(name).or_default() += n);
}

/// Nanoseconds on the recorder's clock (0 when untraced).
pub fn now_ns() -> u64 {
    with_active(|_, now| now).unwrap_or(0)
}

/// An open span; closes when dropped.
pub struct Guard {
    live: bool,
}

impl Guard {
    /// Counts this call as failed in its layer.
    pub fn fail(&self) {
        if self.live {
            with_active(|rec, _| rec.fail());
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.live {
            with_active(|rec, now| rec.close(now));
        }
    }
}

/// Opens a span for layer `name` when a recorder is installed.
pub fn span(name: &'static str) -> Guard {
    Guard {
        live: with_active(|rec, now| rec.open(name, now)).is_some(),
    }
}

/// Runs `f` inside a span for layer `name`, marking the span failed when
/// `f` returns an error.
pub fn timed<T, E>(name: &'static str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    let guard = span(name);
    let out = f();
    if out.is_err() {
        guard.fail();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::default();
        r.open("outer", 0);
        r.open("mid", 10);
        r.leaf("leaf", 20, 50); // 30 ns
        r.close(70); // mid: 60 ns, self 30
        r.leaf("leaf", 80, 90); // 10 ns, direct child of outer
        r.close(100); // outer: 100 ns, self 100 - 60 - 10 = 30
        let layers = r.layers();
        assert_eq!(layers["outer"].self_ns, 30);
        assert_eq!(layers["mid"].self_ns, 30);
        assert_eq!(layers["leaf"].self_ns, 40);
        assert_eq!(layers["leaf"].calls, 2);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
        // Parents point at buffer slots: mid -> outer, first leaf -> mid.
        let spans = r.spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 0);
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (10, 70));
    }

    #[test]
    fn failures_and_attribution_stay_in_their_layer() {
        let mut r = Recorder::default();
        r.open("step", 0);
        r.fail();
        r.close(100);
        r.leaf("step", 100, 200);
        r.attribute("step", "journal", 150);
        let layers = r.layers();
        assert_eq!(layers["step"].failed, 1);
        assert_eq!(layers["step"].self_ns, 50);
        assert_eq!(layers["journal"].self_ns, 150);
    }

    #[test]
    fn guards_record_only_while_a_recorder_is_installed() {
        drop(span("ignored"));
        add("work", 1);
        assert!(stop().is_none());
        start();
        {
            let _outer = span("outer");
            let failed: Result<(), ()> = timed("inner", || Err(()));
            assert!(failed.is_err());
            add("work", 2);
        }
        set_recording(false);
        drop(span("paused"));
        add("work", 4);
        set_recording(true);
        add("work", 8);
        let rec = stop().unwrap();
        assert_eq!(rec.layers()["outer"].calls, 1);
        assert_eq!(rec.layers()["inner"].failed, 1);
        assert!(!rec.layers().contains_key("paused"));
        assert_eq!(rec.counter("work"), 10);
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }
}
