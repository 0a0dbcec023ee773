//! Core model for *Replicated Data Placement for Uncertain Scheduling*
//! (Chaubey & Saule, 2015).
//!
//! This crate defines the vocabulary every other `rds-*` crate speaks:
//!
//! - [`Time`]/[`Size`]: validated non-negative scalars;
//! - [`Task`], [`Instance`]: what the scheduler is given;
//! - [`Uncertainty`]: the bounded multiplicative error model
//!   `p̃_j/α ≤ p_j ≤ α·p̃_j`;
//! - [`Realization`]: actual processing times, validated against the model;
//! - [`Placement`]/[`MachineSet`]/[`GroupPartition`]: the phase-1 output —
//!   where data is replicated;
//! - [`Assignment`]/[`Schedule`]: the phase-2 output — who ran what, when;
//! - [`fnv1a`]: the 64-bit hash behind every journal digest;
//! - [`metrics`], [`memory`]: makespan, competitive ratios, and memory
//!   occupation.
//!
//! # Example
//! ```
//! use rds_core::prelude::*;
//!
//! // 4 tasks with estimates, 2 machines, uncertainty factor α = 2.
//! let inst = Instance::from_estimates(&[4.0, 3.0, 2.0, 1.0], 2)?;
//! let unc = Uncertainty::of(2.0);
//!
//! // Phase 1 decided to pin tasks {0,3} to p0 and {1,2} to p1.
//! let assign = Assignment::new(
//!     &inst,
//!     vec![MachineId::new(0), MachineId::new(1), MachineId::new(1), MachineId::new(0)],
//! )?;
//!
//! // Reality deviated from the estimates within the allowed interval.
//! let real = Realization::from_factors(&inst, unc, &[2.0, 0.5, 1.0, 1.0])?;
//! assert_eq!(assign.makespan(&real).get(), 9.0);
//! # Ok::<(), rds_core::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod error;
pub mod fnv;
pub mod hetero;
pub mod ids;
pub mod instance;
pub mod memory;
pub mod metrics;
pub mod placement;
pub mod realization;
pub mod reliability;
pub mod scalar;
pub mod schedule;
pub mod task;
pub mod uncertainty;

pub use bitset::MachineMask;
pub use error::{Error, Result};
pub use fnv::fnv1a;
pub use hetero::{MachineSpeeds, NetworkTopology};
pub use ids::{MachineId, TaskId};
pub use instance::Instance;
pub use placement::{GroupPartition, MachineSet, Placement};
pub use realization::Realization;
pub use reliability::ReliabilityModel;
pub use scalar::{Size, Time};
pub use schedule::{Assignment, Schedule, Slot};
pub use task::Task;
pub use uncertainty::Uncertainty;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::bitset::MachineMask;
    pub use crate::error::{Error, Result};
    pub use crate::hetero::{MachineSpeeds, NetworkTopology};
    pub use crate::ids::{machines, tasks, MachineId, TaskId};
    pub use crate::instance::Instance;
    pub use crate::memory;
    pub use crate::metrics;
    pub use crate::placement::{GroupPartition, MachineSet, Placement};
    pub use crate::realization::Realization;
    pub use crate::reliability::ReliabilityModel;
    pub use crate::scalar::{Size, Time};
    pub use crate::schedule::{Assignment, Schedule, Slot};
    pub use crate::task::Task;
    pub use crate::uncertainty::Uncertainty;
}
