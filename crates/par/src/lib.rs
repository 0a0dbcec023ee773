//! Minimal execution substrate for the experiment harness.
//!
//! The paper's evaluation sweeps (m, k, α, Δ, seeds) are embarrassingly
//! parallel, and its campaigns must survive a SIGKILL; this crate
//! provides just enough machinery for both without pulling in a
//! framework:
//!
//! - [`sweep::parallel_map`]: order-preserving scoped parallel map with
//!   dynamic work claiming, sized by [`sweep::plan_workers`];
//! - [`pool::supervise`]: the trial watchdog — per-trial wall-clock
//!   budgets with cooperative cancellation, bounded retry with
//!   exponential backoff and deterministic jitter, and quarantine of
//!   repeatedly-failing trials;
//! - [`journal::Journal`]: the append-only fsync'd campaign journal
//!   (JSONL) that checkpoint/resume is built on;
//! - [`wire`]: the flat-JSON codec and the crash-safe record log
//!   ([`wire::RecordLog`], [`wire::scan_log`]) under both the campaign
//!   journal and the `rds-serve` task journal.
//!
//! # Example
//! ```
//! let squares = rds_par::parallel_map((0..100).collect(), 4, |x: u64| x * x);
//! assert_eq!(squares[9], 81);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod journal;
pub mod pool;
pub mod sweep;
pub mod wire;

pub use journal::{CampaignMeta, Journal, TrialRecord, TrialStatus};
pub use pool::{supervise, CancelToken, Supervised, WatchdogPolicy};
pub use sweep::{parallel_map, plan_workers};
