//! # replicated-placement
//!
//! A full reproduction of *Replicated Data Placement for Uncertain
//! Scheduling* (Chaubey & Saule, 2015): scheduling independent tasks on
//! identical machines when processing times are known only within a
//! multiplicative factor `α`, and replicating task data buys runtime
//! flexibility.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`core`]: the model — instances, uncertainty,
//!   realizations, placements, schedules;
//! - [`algs`]: `LPT-No Choice`, `LPT-No Restriction`,
//!   `LS-Group`, `SABO_Δ`, `ABO_Δ` and the classical substrates;
//! - [`exact`]: optimal-makespan solvers for measuring
//!   competitive ratios;
//! - [`adversary`]: the Theorem-1 adversary and worst-case
//!   realization search;
//! - [`sim`]: the discrete-event semi-clairvoyant execution
//!   engine;
//! - [`workloads`]: estimate distributions, realization
//!   models, named scenarios;
//! - [`bounds`]: every theorem as a closed-form function;
//! - [`par`]: parallel sweep executor;
//! - [`policies`]: future-work replication policies
//!   (chained, critical-task, randomized);
//! - [`robust`]: robustness envelopes, criticality, the
//!   expected value of adaptivity;
//! - [`report`]: stats, tables, CSV, ASCII plots and Gantts;
//! - [`conformance`]: the differential/metamorphic oracle checking every
//!   algorithm against the exact solvers and proven bounds.
//!
//! ## Quickstart
//! ```
//! use replicated_placement::prelude::*;
//!
//! // 8 tasks, 4 machines, runtimes known within a factor of 2.
//! let inst = Instance::from_estimates(&[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 4)?;
//! let unc = Uncertainty::of(2.0);
//! let real = Realization::uniform_factor(&inst, unc, 1.0)?;
//!
//! // Replicate everywhere and schedule online.
//! let out = LptNoRestriction.run(&inst, unc, &real)?;
//! assert!(out.makespan.get() >= 8.0);
//! # Ok::<(), replicated_placement::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rds_adversary as adversary;
pub use rds_algs as algs;
pub use rds_bounds as bounds;
pub use rds_conformance as conformance;
pub use rds_core as core;
pub use rds_exact as exact;
pub use rds_par as par;
pub use rds_policies as policies;
pub use rds_report as report;
pub use rds_robust as robust;
pub use rds_sim as sim;
pub use rds_workloads as workloads;

pub use rds_core::{Error, Result};

/// One-stop imports for applications.
pub mod prelude {
    pub use rds_algs::memory::{abo::Abo, sabo::Sabo, MemoryOutcome, MemoryStrategy};
    pub use rds_algs::{LptNoChoice, LptNoRestriction, LsGroup, Outcome, Strategy};
    pub use rds_core::prelude::*;
    pub use rds_exact::{Certainty, OptMakespan, OptimalSolver};
    pub use rds_policies::{ChainedReplication, CriticalTaskReplication, RandomKReplication};
    pub use rds_sim::executors;
    pub use rds_workloads::{EstimateDistribution, RealizationModel};
}
