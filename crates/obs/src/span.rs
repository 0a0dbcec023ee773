//! Scoped tracing spans with monotonic timestamps and JSONL export.
//!
//! A span is opened with [`Registry::span`] (or [`crate::span`], which
//! opens it on [`crate::global`]) and closed when its guard drops;
//! nesting depth is tracked per thread. Timestamps are nanoseconds since
//! a process-wide monotonic epoch, so spans from different threads order
//! consistently.
//!
//! A closed span lands in the registry that opened it, never in another,
//! so code that drains a private registry sees only its own spans. Each
//! registry keeps at most [`MAX_SPANS`] records; past that, new spans are
//! counted as dropped rather than growing memory without limit.

use crate::Registry;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Per-registry retained-span bound; beyond it spans are dropped (and
/// counted) instead of exhausting memory on multi-million-event sweeps.
pub const MAX_SPANS: usize = 1 << 20;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"engine.run"`).
    pub name: &'static str,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
    /// Nesting depth on the opening thread (0 = top level).
    pub depth: u32,
    /// Opening thread's registration id.
    pub thread: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide monotonic epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

// Neither thread-local needs dropping, so `with` never finds one torn
// down, not even from a guard's `Drop`.
thread_local! {
    /// How many spans this thread has open.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This thread's id in span records, assigned when it first opens one.
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// An open span; records itself into the registry that opened it on
/// drop. Spans opened by [`crate::span`] borrow the `'static` global
/// registry.
///
/// A disabled-at-open guard holds nothing and its drop is a no-op —
/// that is the entire cost of compiled-in-but-disabled tracing.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard<'r>(Option<(&'r Registry, SpanRecord)>);

impl<'r> SpanGuard<'r> {
    /// A guard that records nothing (the disabled path).
    #[inline]
    pub fn disabled() -> Self {
        SpanGuard(None)
    }

    pub(crate) fn open(sink: &'r Registry, name: &'static str) -> Self {
        let depth = DEPTH.with(|d| d.replace(d.get() + 1));
        let span = SpanRecord {
            name,
            start_ns: now_ns(),
            end_ns: 0, // set when the guard drops
            depth,
            thread: THREAD.with(|t| *t),
        };
        SpanGuard(Some((sink, span)))
    }
}

impl Drop for SpanGuard<'_> {
    // `#[inline]` matters: without it a *disabled* guard's drop is a
    // cross-crate function call per span site, which is exactly the
    // overhead the disabled path promises not to have.
    #[inline]
    fn drop(&mut self) {
        let Some((sink, mut span)) = self.0.take() else {
            return;
        };
        span.end_ns = now_ns();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        sink.record_span(span);
    }
}

/// Serializes spans as JSONL, one object per line:
/// `{"name":...,"start_ns":...,"end_ns":...,"dur_ns":...,"depth":...,"thread":...}`.
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"dur_ns\":{},\
             \"depth\":{},\"thread\":{}}}\n",
            crate::registry::json_string(s.name),
            s.start_ns,
            s.end_ns,
            s.duration_ns(),
            s.depth,
            s.thread,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_records_nothing() {
        let r = Registry::new();
        {
            let _off = SpanGuard::disabled();
            let _on = r.span("inside");
        }
        // The disabled guard neither recorded itself nor opened a level.
        let spans = r.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].depth), ("inside", 0));
    }

    #[test]
    fn nested_spans_track_depth_and_order() {
        let r = Registry::new();
        {
            let _outer = r.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = r.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let spans = r.take_spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert!(inner.duration_ns() > 0);
    }

    #[test]
    fn spans_export_as_jsonl() {
        let rec = SpanRecord {
            name: "engine.run",
            start_ns: 10,
            end_ns: 30,
            depth: 0,
            thread: 2,
        };
        let line = spans_to_jsonl(&[rec]);
        assert_eq!(
            line,
            "{\"name\":\"engine.run\",\"start_ns\":10,\"end_ns\":30,\
             \"dur_ns\":20,\"depth\":0,\"thread\":2}\n"
        );
    }

    #[test]
    fn cross_thread_spans_are_collected() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _g = r.span("worker");
                });
            }
        });
        let spans = r.take_spans();
        assert!(spans.iter().filter(|s| s.name == "worker").count() >= 3);
        // Distinct threads got distinct ids.
        let mut threads: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "worker")
            .map(|s| s.thread)
            .collect();
        threads.sort_unstable();
        threads.dedup();
        assert!(threads.len() >= 3);
    }

    #[test]
    fn registries_keep_their_own_spans() {
        let (a, b) = (Registry::new(), Registry::new());
        let all_open = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _in_a = a.span("a");
                    let _in_b = b.span("b");
                    // Every thread holds a span open on each registry at once.
                    all_open.wait();
                });
            }
        });
        let (in_a, in_b) = (a.take_spans(), b.take_spans());
        assert_eq!(in_a.len(), 4);
        assert!(in_a.iter().all(|s| s.name == "a" && s.depth == 0));
        // Depth is per thread, not per registry.
        assert_eq!(in_b.len(), 4);
        assert!(in_b.iter().all(|s| s.name == "b" && s.depth == 1));
        assert!(a.take_spans().is_empty() && b.take_spans().is_empty());
    }

    #[test]
    fn a_full_registry_counts_the_spans_it_drops() {
        let r = Registry::new();
        for _ in 0..MAX_SPANS + 5 {
            let _g = r.span("capped");
        }
        assert_eq!(r.dropped_spans(), 5);
        assert_eq!(r.take_spans().len(), MAX_SPANS);
    }
}
