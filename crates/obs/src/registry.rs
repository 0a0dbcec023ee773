//! Named metric registry with snapshot/merge aggregation, and the sink
//! for the spans opened on it.
//!
//! A [`Registry`] maps names to shared [`Counter`]s and
//! [`LatencyHistogram`]s. Lookup takes a lock, so hot paths resolve
//! their handles **once** (an `Arc` clone) and then update through
//! plain atomics; per-worker registries aggregate by snapshotting and
//! [`MetricsSnapshot::merge`]-ing, never by sharing locks.

use crate::metrics::{Counter, HistogramSnapshot, LatencyHistogram};
use crate::span::{SpanGuard, SpanRecord, MAX_SPANS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A named collection of counters and histograms, and the spans closed
/// on it.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
    spans: Mutex<Vec<SpanRecord>>,
    dropped_spans: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating on first use) the counter called `name`.
    ///
    /// Resolve once per hot loop and keep the `Arc`; lookup locks.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry poisoned");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns (creating on first use) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut map = self.histograms.lock().expect("registry poisoned");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(LatencyHistogram::new())),
        )
    }

    /// Opens a scoped span named `name`; the returned guard records it
    /// into this registry when dropped. Unlike [`crate::span`], it
    /// records whatever [`crate::enabled`] says.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard::open(self, name)
    }

    /// Drains the spans closed on this registry, ordered by start time
    /// (then end time, then thread).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        let mut out = std::mem::take(&mut *self.span_sink());
        out.sort_by_key(|s| (s.start_ns, s.end_ns, s.thread));
        out
    }

    /// Spans dropped because this registry already held [`MAX_SPANS`]
    /// (cumulative).
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans.load(Ordering::Relaxed)
    }

    pub(crate) fn record_span(&self, span: SpanRecord) {
        let mut spans = self.span_sink();
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The span buffer. A holder only pushes or takes, so the buffer is
    /// whole even after a holder panicked; recovering it keeps a span
    /// guard's `Drop` from panicking.
    fn span_sink(&self) -> MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// An owned, mergeable, serializable copy of a [`Registry`]'s state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, histograms merge. The
    /// associative/commutative reduction per-worker registries need.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Total number of distinct metrics.
    pub fn len(&self) -> usize {
        self.counters.len() + self.histograms.len()
    }

    /// `true` when no metric exists.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the snapshot as a two-section JSON object:
    /// `{"counters":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json_string(name)));
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{}", json_string(name), h.to_json()));
        }
        s.push_str("}}");
        s
    }
}

/// Minimal JSON string escaping (metric names are ASCII identifiers, but
/// stay correct for anything).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counters["x"], 3);
    }

    #[test]
    fn snapshot_merge_aggregates_workers() {
        let workers: Vec<Registry> = (0..4).map(|_| Registry::new()).collect();
        for (i, w) in workers.iter().enumerate() {
            w.counter("trials").add(i as u64 + 1);
            w.histogram("latency").record_nanos(100 * (i as u64 + 1));
        }
        let mut total = MetricsSnapshot::default();
        for w in &workers {
            total.merge(&w.snapshot());
        }
        assert_eq!(total.counters["trials"], 1 + 2 + 3 + 4);
        assert_eq!(total.histograms["latency"].count, 4);
        assert_eq!(total.histograms["latency"].sum, 1000);
        assert_eq!(total.len(), 2);
        assert!(!total.is_empty());
    }

    #[test]
    fn json_shape_is_flat_and_parsable_by_eye() {
        let r = Registry::new();
        r.counter("engine.dispatch").add(5);
        r.histogram("trial.latency").record_nanos(1000);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"engine.dispatch\":5"));
        assert!(json.contains("\"trial.latency\":{\"count\":1"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn merge_is_commutative_on_disjoint_names() {
        let a = Registry::new();
        a.counter("only.a").inc();
        let b = Registry::new();
        b.histogram("only.b").record_nanos(7);
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
