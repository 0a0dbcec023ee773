//! Extended replication policies — the paper's future-work directions
//! (§8), made concrete:
//!
//! - [`chained::ChainedReplication`]: `k` consecutive machines per task
//!   (chained declustering) — overlapping replica sets let load spill
//!   around the ring instead of being confined to groups;
//! - [`critical::CriticalTaskReplication`]: replicate *only* the
//!   processing-time-critical tasks ("introduce a cost of replicating a
//!   task… replicate only some critical tasks and limit memory usage");
//! - [`random_k::RandomKReplication`]: uniformly random `k`-subsets, the
//!   baseline separating "how many replicas" from "which replicas".
//!
//! Unlike the paper's three strategies, these placements have
//! *overlapping* eligibility sets, so phase 2 runs through the
//! `rds-sim` event engine (see [`executor`]) rather than a closed-form
//! greedy — the engine semantics is the ground truth for the online,
//! semi-clairvoyant process.
//!
//! # Example
//! ```
//! use rds_algs::Strategy;
//! use rds_core::prelude::*;
//! use rds_policies::chained::ChainedReplication;
//!
//! let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 2.0, 1.0], 3)?;
//! let unc = Uncertainty::of(1.5);
//! let real = Realization::uniform_factor(&inst, unc, 1.5)?;
//! let out = ChainedReplication::new(2)?.run(&inst, unc, &real)?;
//! assert_eq!(out.placement.max_replicas(), 2);
//! # Ok::<(), rds_core::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod chained;
pub mod critical;
pub mod executor;
pub mod frontier;
pub mod random_k;
pub mod reliability;
pub mod resilience;

pub use campaign::{
    run_campaign_resumable, run_supervised, run_sweep_trial, CampaignConfig, CampaignReport,
    CellOrder, QuarantinedTrial, StallInjection, SweepRep, Trial,
};
pub use chained::ChainedReplication;
pub use critical::CriticalTaskReplication;
pub use frontier::{
    budget_grid, mark_frontier, pareto_sweep, pareto_sweep_hetero, HeteroProfile, ParetoPoint,
    ParetoSweep, SkippedPoint,
};
pub use random_k::RandomKReplication;
pub use reliability::{dominance, engine_survival, frontier, placement_memory, FrontierPoint};
pub use resilience::{
    aggregate_row, run_campaign, run_trial, standard_suite, CampaignRow, ResiliencePolicy,
    TrialMeasurement,
};
