//! Discrete-event execution engine for phase 2 of *Replicated Data
//! Placement for Uncertain Scheduling*.
//!
//! The paper's phase 2 is an online, semi-clairvoyant process: a task may
//! only start on a machine holding its data, the scheduler dispatches
//! when machines become idle, and actual processing times are revealed
//! only at completion. This crate is that runtime:
//!
//! - [`engine::Engine`]: the one event loop (machines, clock, pending
//!   set, feasibility enforcement) — [`engine::Engine::run_in`] reuses a
//!   caller-owned [`arena::SimArena`] so steady-state Monte-Carlo trials
//!   allocate nothing; heterogeneous speeds and scripted faults run in
//!   the same loop as compile-time arms;
//! - [`arena`]: the reusable scratch storage behind that hot path;
//! - [`dispatcher`]: pluggable online policies (FIFO/LPT priority orders,
//!   pinned queues, the staged policy of `ABO_Δ`);
//! - [`executors`]: one-call simulations of each paper strategy;
//! - [`faults`]: the resilience engine — scripted crashes, outages with
//!   recovery, degraded-speed phases, stragglers, speculative
//!   re-execution, and graceful degradation with [`faults::Outcome`] and
//!   [`faults::ResilienceMetrics`] — built on the engine's fault arm;
//! - [`trace`]: chronological event traces for inspection and Gantt
//!   rendering;
//! - [`validate`]: the always-on schedule invariant validator (placement
//!   feasibility, no overlap, replication budget, duration honesty, the
//!   α-envelope, memory accounting) — on in debug builds, opt-in via
//!   `RDS_VALIDATE=1` in release.
//!
//! The closed-form greedy implementations in `rds-algs` and this engine
//! must produce identical schedules; the workspace integration tests
//! assert that equivalence — the engine is the ground truth, the closed
//! forms are the fast path.
//!
//! # Example
//! ```
//! use rds_core::prelude::*;
//! use rds_sim::executors::simulate_no_restriction;
//!
//! let inst = Instance::from_estimates(&[3.0, 2.0, 2.0, 1.0], 2)?;
//! let unc = Uncertainty::of(2.0);
//! let real = Realization::from_factors(&inst, unc, &[2.0, 0.5, 1.0, 1.0])?;
//! let res = simulate_no_restriction(&inst, &real)?;
//! assert_eq!(res.trace.starts(), 4);
//! # Ok::<(), rds_core::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod dispatcher;
pub mod engine;
pub mod event;
pub mod executors;
pub mod faults;
pub mod trace;
pub mod validate;

pub use arena::SimArena;
pub use dispatcher::{
    Dispatcher, LocalityDispatcher, OrderedDispatcher, PinnedDispatcher, SimView, StagedDispatcher,
};
pub use engine::{Engine, SimResult};
pub use event::QueueMode;
pub use faults::{
    FaultEvent, FaultScript, Outcome, ResilienceEngine, ResilienceMetrics, ResilienceReport,
    Speculation,
};
pub use trace::{Trace, TraceEvent};
pub use validate::{check_schedule, validate_schedule, Checks, Violation};
