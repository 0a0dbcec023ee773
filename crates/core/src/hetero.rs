//! Heterogeneity primitives: per-machine speeds and machine-pair
//! transfer latencies.
//!
//! The paper's model assumes identical machines with free data access
//! inside each replica set `M_j`. Two scenario families relax that:
//!
//! - [`MachineSpeeds`]: a per-machine speed vector revealed only in
//!   phase 2 (speed-robust scheduling in the spirit of Eberle et al.,
//!   "Speed-Robust Scheduling — Sand, Bricks, and Rocks"). A task with
//!   actual work `p_j` run on machine `i` takes `p_j / s_i` wall-clock
//!   time.
//! - [`NetworkTopology`]: a dense machine-pair transfer-latency matrix
//!   (data-locality-aware dispatch after Zhao et al.). Starting task
//!   `j` on machine `i` charges `latency(home_j, i)` once, where
//!   `home_j` is the task's primary replica ([`crate::Placement::primary`]);
//!   running on the home machine itself is free by the zero-diagonal
//!   invariant.
//!
//! Both types validate on construction so NaN, negative, or non-square
//! data can never reach the dispatch hot path.

use crate::error::{Error, Result};
use crate::ids::MachineId;

/// Per-machine execution speeds (work units per unit time).
///
/// Speed `1.0` is the paper's identical machine; every entry must be
/// finite and strictly positive. A task with actual work `p` takes
/// `p / speed(i)` wall-clock time on machine `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpeeds {
    speeds: Vec<f64>,
}

impl MachineSpeeds {
    /// Validates and wraps a per-machine speed vector.
    ///
    /// # Errors
    /// - [`Error::NoMachines`] when `speeds` is empty;
    /// - [`Error::InvalidParameter`] when any entry is non-finite or
    ///   not strictly positive.
    pub fn new(speeds: Vec<f64>) -> Result<Self> {
        if speeds.is_empty() {
            return Err(Error::NoMachines);
        }
        if speeds.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(Error::InvalidParameter {
                what: "machine speeds must be finite and strictly positive",
            });
        }
        Ok(MachineSpeeds { speeds })
    }

    /// The identical-machines vector: `m` machines at speed `1.0`.
    ///
    /// # Errors
    /// [`Error::NoMachines`] when `m == 0`.
    pub fn uniform(m: usize) -> Result<Self> {
        Self::new(vec![1.0; m])
    }

    /// Number of machines covered.
    #[inline]
    pub fn m(&self) -> usize {
        self.speeds.len()
    }

    /// Speed of one machine.
    ///
    /// # Panics
    /// Panics if `machine` is out of range.
    #[inline]
    pub fn speed(&self, machine: MachineId) -> f64 {
        self.speeds[machine.index()]
    }

    /// All speeds, indexed by machine id.
    #[inline]
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// `true` when every machine runs at exactly speed `1.0` — the
    /// paper's identical-machines model. The heterogeneous engine path
    /// is bit-identical to the baseline in this case (`p / 1.0 == p`).
    pub fn is_uniform(&self) -> bool {
        self.speeds.iter().all(|&s| s == 1.0)
    }

    /// Fastest machine's speed `max_i s_i`.
    pub fn max(&self) -> f64 {
        self.speeds
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Aggregate capacity `Σ_i s_i`.
    pub fn total(&self) -> f64 {
        self.speeds.iter().sum()
    }
}

/// Dense machine-pair transfer-latency matrix, row-major:
/// `latency(from, to)` is the one-time cost of moving a task's data
/// from its replica on `from` to run on `to`.
///
/// Invariants enforced at construction (so the dispatcher hot path can
/// read entries unguarded): the matrix is square (`m × m`), every entry
/// is finite and non-negative, and the diagonal is exactly zero (local
/// access is free).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    m: usize,
    /// Row-major `m × m`: `latency[from * m + to]`.
    latency: Vec<f64>,
}

impl NetworkTopology {
    /// Validates and wraps a row-major `m × m` latency matrix.
    ///
    /// # Errors
    /// - [`Error::NoMachines`] when `m == 0`;
    /// - [`Error::InvalidParameter`] when the data length is not
    ///   `m * m`, any entry is non-finite or negative, or any diagonal
    ///   entry is nonzero.
    pub fn new(m: usize, latency: Vec<f64>) -> Result<Self> {
        if m == 0 {
            return Err(Error::NoMachines);
        }
        if latency.len() != m * m {
            return Err(Error::InvalidParameter {
                what: "topology matrix must be square (len == m * m)",
            });
        }
        if latency.iter().any(|l| !l.is_finite() || *l < 0.0) {
            return Err(Error::InvalidParameter {
                what: "transfer latencies must be finite and non-negative",
            });
        }
        if (0..m).any(|i| latency[i * m + i] != 0.0) {
            return Err(Error::InvalidParameter {
                what: "topology diagonal must be zero (local access is free)",
            });
        }
        Ok(NetworkTopology { m, latency })
    }

    /// The free-transfer topology: all-zero latencies. Dispatch under
    /// this topology is schedule-identical to ignoring locality.
    ///
    /// # Errors
    /// [`Error::NoMachines`] when `m == 0`.
    pub fn zero(m: usize) -> Result<Self> {
        Self::new(m, vec![0.0; m * m])
    }

    /// Uniform remote cost: every off-diagonal pair costs `remote`.
    ///
    /// # Errors
    /// Same domain errors as [`Self::new`].
    pub fn uniform(m: usize, remote: f64) -> Result<Self> {
        let mut data = vec![remote; m * m];
        for i in 0..m {
            data[i * m + i] = 0.0;
        }
        Self::new(m, data)
    }

    /// Clustered topology: machines in the same zone pay `local`,
    /// cross-zone pairs pay `remote`, the diagonal is free.
    ///
    /// # Errors
    /// Same domain errors as [`Self::new`]; `zone_of.len()` is `m`.
    pub fn clustered(zone_of: &[usize], local: f64, remote: f64) -> Result<Self> {
        let m = zone_of.len();
        if m == 0 {
            return Err(Error::NoMachines);
        }
        let mut data = Vec::with_capacity(m * m);
        for i in 0..m {
            for j in 0..m {
                data.push(if i == j {
                    0.0
                } else if zone_of[i] == zone_of[j] {
                    local
                } else {
                    remote
                });
            }
        }
        Self::new(m, data)
    }

    /// Number of machines (rows/columns).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Transfer latency from `from`'s replica to execution on `to`.
    ///
    /// # Panics
    /// Panics if either id is out of range.
    #[inline]
    pub fn latency(&self, from: MachineId, to: MachineId) -> f64 {
        self.latency[from.index() * self.m + to.index()]
    }

    /// Row of outgoing latencies from one machine.
    ///
    /// # Panics
    /// Panics if `from` is out of range.
    #[inline]
    pub fn row(&self, from: MachineId) -> &[f64] {
        let s = from.index() * self.m;
        &self.latency[s..s + self.m]
    }

    /// `true` when every latency is exactly zero — locality-aware
    /// dispatch then collapses, schedule-identically, to the baseline.
    pub fn is_zero(&self) -> bool {
        self.latency.iter().all(|&l| l == 0.0)
    }

    /// Largest latency in the matrix.
    pub fn max_latency(&self) -> f64 {
        self.latency.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_speeds_are_uniform() {
        let s = MachineSpeeds::uniform(4).unwrap();
        assert_eq!(s.m(), 4);
        assert!(s.is_uniform());
        assert_eq!(s.speed(MachineId::new(3)), 1.0);
        assert_eq!(s.total(), 4.0);
        assert_eq!(s.max(), 1.0);
    }

    #[test]
    fn speeds_reject_bad_values() {
        assert!(matches!(
            MachineSpeeds::new(vec![]).unwrap_err(),
            Error::NoMachines
        ));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                MachineSpeeds::new(vec![1.0, bad]).unwrap_err(),
                Error::InvalidParameter { .. }
            ));
        }
        let s = MachineSpeeds::new(vec![1.0, 2.5]).unwrap();
        assert!(!s.is_uniform());
        assert_eq!(s.max(), 2.5);
    }

    #[test]
    fn topology_validates_shape_and_values() {
        // Wrong length.
        assert!(matches!(
            NetworkTopology::new(2, vec![0.0; 3]).unwrap_err(),
            Error::InvalidParameter { .. }
        ));
        // Negative / NaN / infinite entries.
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                NetworkTopology::new(2, vec![0.0, bad, 1.0, 0.0]).unwrap_err(),
                Error::InvalidParameter { .. }
            ));
        }
        // Nonzero diagonal.
        assert!(matches!(
            NetworkTopology::new(2, vec![1.0, 2.0, 2.0, 0.0]).unwrap_err(),
            Error::InvalidParameter { .. }
        ));
        assert!(matches!(
            NetworkTopology::new(0, vec![]).unwrap_err(),
            Error::NoMachines
        ));
        let t = NetworkTopology::new(2, vec![0.0, 3.0, 4.0, 0.0]).unwrap();
        assert_eq!(t.latency(MachineId::new(0), MachineId::new(1)), 3.0);
        assert_eq!(t.latency(MachineId::new(1), MachineId::new(0)), 4.0);
        assert_eq!(t.row(MachineId::new(1)), &[4.0, 0.0]);
        assert_eq!(t.max_latency(), 4.0);
        assert!(!t.is_zero());
    }

    #[test]
    fn zero_and_uniform_constructors() {
        assert!(NetworkTopology::zero(3).unwrap().is_zero());
        let u = NetworkTopology::uniform(3, 2.0).unwrap();
        assert_eq!(u.latency(MachineId::new(0), MachineId::new(0)), 0.0);
        assert_eq!(u.latency(MachineId::new(0), MachineId::new(2)), 2.0);
        assert!(NetworkTopology::uniform(2, -1.0).is_err());
    }

    #[test]
    fn clustered_charges_local_and_remote() {
        let t = NetworkTopology::clustered(&[0, 0, 1, 1], 1.0, 5.0).unwrap();
        let m = MachineId::new;
        assert_eq!(t.latency(m(0), m(1)), 1.0);
        assert_eq!(t.latency(m(0), m(2)), 5.0);
        assert_eq!(t.latency(m(2), m(3)), 1.0);
        assert_eq!(t.latency(m(3), m(3)), 0.0);
    }
}
