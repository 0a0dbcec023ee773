//! Exact and near-exact optimal makespan solvers for `P || C_max`.
//!
//! The paper's competitive ratios are all relative to the clairvoyant
//! optimum `C*_max` on the *actual* processing times. This crate computes
//! or brackets it:
//!
//! - [`lower_bounds`]: pigeonhole bounds valid for every schedule;
//! - [`dp`]: exact subset dynamic programming (`n ≤ 18`), pruned by its
//!   own LPT incumbent;
//! - [`branch_bound`]: exact anytime branch-and-bound with LPT/MULTIFIT
//!   incumbents and symmetry pruning;
//! - [`bin_packing`]: First Fit Decreasing and MULTIFIT;
//! - [`dual_approx`]: a Hochbaum–Shmoys style dual `(1+ε)`-approximation
//!   (the scheme the paper cites as "arbitrarily good" \[Hoch87\]);
//! - [`optimal`]: a facade routing instances to the right solver and
//!   reporting `C*` exactly or as a certified bracket.
//!
//! # Example
//! ```
//! use rds_core::Time;
//! use rds_exact::optimal::{OptimalSolver, Certainty};
//!
//! let times: Vec<Time> = [3.0, 3.0, 2.0, 2.0, 2.0].iter().map(|&v| Time::of(v)).collect();
//! let opt = OptimalSolver::default().solve(&times, 2);
//! assert_eq!(opt.certainty, Certainty::Exact);
//! assert_eq!(opt.lo.get(), 6.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bin_packing;
pub mod branch_bound;
pub mod dp;
pub mod dual_approx;
pub mod ilp;
pub mod lower_bounds;
pub mod lp;
pub mod optimal;
pub mod survival;

pub use ilp::{IlpError, IlpResult, LpRelaxation, PlacementModel, RoundingResult};
pub use optimal::{Certainty, OptMakespan, OptimalSolver};
pub use survival::{min_memory_survival, ExactSurvival, ExactTaskPlacement};
