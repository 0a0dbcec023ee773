//! Robustness analysis under bounded multiplicative uncertainty.
//!
//! The paper's related work (§2) surveys robust-scheduling metrics —
//! slack-based techniques, sensitivity analysis, makespan/robustness
//! correlations. This crate provides the corresponding analyses for the
//! two-phase model:
//!
//! - [`envelope`](mod@envelope): tight analytic worst/best-case makespan envelopes of
//!   static schedules and machine/task criticality;
//! - [`montecarlo`]: the expected value of adaptivity (how much
//!   replication buys on average, not just in the worst case), sampled
//!   over seeded realizations.
//!
//! # Example
//! ```
//! use rds_algs::{LptNoChoice, Strategy};
//! use rds_core::prelude::*;
//! use rds_robust::envelope;
//!
//! let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 1.0], 2)?;
//! let unc = Uncertainty::of(2.0);
//! let p = LptNoChoice.place(&inst, unc)?;
//! let a = LptNoChoice.execute(&inst, &p, &Realization::exact(&inst))?;
//! let env = envelope::envelope(&inst, &a, unc);
//! assert_eq!(env.worst, env.planned * 2.0);
//! # Ok::<(), rds_core::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod envelope;
pub mod montecarlo;

pub use envelope::{envelope, machine_criticality, task_criticality, Envelope};
pub use montecarlo::expected_value_of_adaptivity;
