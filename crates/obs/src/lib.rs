//! # rds-obs — lightweight observability for the rds workspace
//!
//! Three primitives, all zero-cost when disabled:
//!
//! - **Spans** ([`span`], [`Registry::span`]): scoped wall-clock timings
//!   with per-thread nesting depth, drained from the registry that opened
//!   them by [`Registry::take_spans`] and exported as JSONL by
//!   [`spans_to_jsonl`]. Use them to see *where* a run spends time.
//! - **Counters and histograms** ([`Counter`], [`LatencyHistogram`]):
//!   lock-free atomics for event counts and log-scale latency
//!   distributions. Use them to see *how often* and *how slow*.
//! - **Registry** ([`Registry`], [`MetricsSnapshot`]): a name → metric
//!   map whose snapshots merge associatively, so per-worker registries
//!   aggregate without any shared-lock contention. It also keeps the
//!   spans opened on it.
//!
//! ## The enabled guard
//!
//! Instrumentation is compiled in but off by default. [`set_enabled`]
//! flips one process-global relaxed `AtomicBool`; hot paths either call
//! [`enabled`] once per run and skip handle resolution entirely, or use
//! [`span`], which returns an inert guard when disabled. The per-event
//! disabled cost is a relaxed load or an `Option` branch — small enough
//! that the engine-loop overhead bound (<2%, see the `obs_overhead`
//! benchmark in `rds-bench`) holds with wide margin.
//!
//! ## Typical wiring
//!
//! ```
//! rds_obs::set_enabled(true);
//! let hist = rds_obs::global().histogram("trial.latency");
//! let out = hist.time(|| {
//!     let _span = rds_obs::span("trial");
//!     2 + 2
//! });
//! assert_eq!(out, 4);
//! let snap = rds_obs::global().snapshot();
//! assert_eq!(snap.histograms["trial.latency"].count, 1);
//! rds_obs::set_enabled(false);
//! ```

mod metrics;
mod registry;
mod span;

pub use metrics::{Counter, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use registry::{MetricsSnapshot, Registry};
pub use span::{now_ns, spans_to_jsonl, SpanGuard, SpanRecord, MAX_SPANS};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns instrumentation on or off process-wide.
///
/// Flip this once at startup (the CLI does so when `--metrics` or
/// `--trace-out` is passed); it is not meant for per-call toggling.
#[inline]
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently on.
///
/// Hot loops should read this once per run and cache the resolved
/// metric handles, not re-check per event.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide default registry.
///
/// Library code records here, and [`span`] opens its spans here; the
/// CLI snapshots it at exit for `--metrics` and drains its spans for
/// `--trace-out`. Code needing isolation (tests, per-worker aggregation
/// experiments) can build private [`Registry`] values instead.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Opens a scoped span named `name` on the [`global`] registry; the
/// returned guard records the span there when dropped. Inert (no clock
/// read, no allocation) while instrumentation is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard<'static> {
    span_if(enabled(), name)
}

/// Like [`span`], but gated on a caller-supplied flag instead of the
/// global atomic. Per-event loops resolve [`enabled`] once, keep the
/// result in a local, and pay only a register-resident branch per span
/// site afterwards — no atomic load in the hot path.
#[inline]
pub fn span_if(on: bool, name: &'static str) -> SpanGuard<'static> {
    if on {
        global().span(name)
    } else {
        SpanGuard::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let a = global().counter("lib.test.shared");
        let b = global().counter("lib.test.shared");
        a.inc();
        b.inc();
        assert_eq!(global().counter("lib.test.shared").get(), 2);
    }

    /// The only test in this binary that flips the global flag or
    /// drains the global registry's spans.
    #[test]
    fn span_follows_the_global_flag_and_span_if_its_own() {
        set_enabled(false);
        {
            let _g = span("lib.test.disabled");
        }
        {
            let _g = span_if(true, "lib.test.span_if");
        }
        set_enabled(true);
        {
            let _g = span("lib.test.enabled");
        }
        set_enabled(false);
        let spans = global().take_spans();
        assert!(spans.iter().any(|s| s.name == "lib.test.enabled"));
        assert!(spans.iter().any(|s| s.name == "lib.test.span_if"));
        assert!(!spans.iter().any(|s| s.name == "lib.test.disabled"));
    }
}
