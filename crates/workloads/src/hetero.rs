//! Heterogeneity generators: machine-speed profiles and network
//! topologies.
//!
//! The paper's base model assumes identical machines and free data
//! access on any replica holder. This module generates the two
//! relaxations of that assumption the hetero scenario axis explores:
//!
//! - [`SpeedDistribution`]: per-machine speed factors, revealed only in
//!   phase 2 (the placement is chosen against estimates on nominally
//!   identical machines, then executed on the realized speeds);
//! - [`TopologyModel`]: machine-pair transfer latencies charged when a
//!   task starts away from its primary replica.
//!
//! Both mirror the [`EstimateDistribution`](crate::EstimateDistribution)
//! idiom: `validate()` for typed parameter errors at the construction
//! boundary, then a seeded realization step.

use rand::Rng;
use rds_core::{Error, MachineSpeeds, NetworkTopology, Result};

/// A distribution over per-machine speed factors.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeedDistribution {
    /// Every machine runs at speed 1 (the homogeneous baseline; realizes
    /// to a profile for which [`MachineSpeeds::is_uniform`] holds, so
    /// the engine's homogeneous fast path applies).
    Unit,
    /// Speeds uniform in `[lo, hi]`.
    Uniform {
        /// Slowest speed factor.
        lo: f64,
        /// Fastest speed factor.
        hi: f64,
    },
    /// Two machine classes: speed `fast` with probability `p_fast`,
    /// `slow` otherwise. Models a cluster mid-upgrade.
    TwoClass {
        /// Speed of the old machine class.
        slow: f64,
        /// Speed of the new machine class.
        fast: f64,
        /// Probability a machine belongs to the fast class.
        p_fast: f64,
    },
}

impl SpeedDistribution {
    /// Checks the parameters against their documented domain.
    ///
    /// Non-finite or non-positive speeds yield
    /// [`Error::InvalidParameter`].
    pub fn validate(&self) -> Result<()> {
        fn bad(what: &'static str) -> Result<()> {
            Err(Error::InvalidParameter { what })
        }
        match *self {
            SpeedDistribution::Unit => {}
            SpeedDistribution::Uniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi) {
                    return bad("speed Uniform requires finite 0 < lo <= hi");
                }
            }
            SpeedDistribution::TwoClass { slow, fast, p_fast } => {
                if !(slow.is_finite() && fast.is_finite() && slow > 0.0 && fast > 0.0) {
                    return bad("TwoClass speeds must be finite and > 0");
                }
                if !(p_fast.is_finite() && (0.0..=1.0).contains(&p_fast)) {
                    return bad("TwoClass.p_fast must be in [0, 1]");
                }
            }
        }
        Ok(())
    }

    /// Realizes a speed profile for `m` machines.
    ///
    /// # Errors
    /// [`Error::NoMachines`] if `m == 0`; propagates
    /// [`MachineSpeeds::new`] validation.
    pub fn realize(&self, m: usize, rng: &mut impl Rng) -> Result<MachineSpeeds> {
        if m == 0 {
            return Err(Error::NoMachines);
        }
        let speeds: Vec<f64> = match *self {
            SpeedDistribution::Unit => vec![1.0; m],
            SpeedDistribution::Uniform { lo, hi } => (0..m)
                .map(|_| if lo == hi { lo } else { rng.gen_range(lo..=hi) })
                .collect(),
            SpeedDistribution::TwoClass { slow, fast, p_fast } => (0..m)
                .map(|_| {
                    if rng.gen::<f64>() < p_fast {
                        fast
                    } else {
                        slow
                    }
                })
                .collect(),
        };
        MachineSpeeds::new(speeds)
    }
}

/// A model of machine-pair transfer latencies.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyModel {
    /// All transfers are free (the paper's base model; realizes to a
    /// topology for which [`NetworkTopology::is_zero`] holds).
    Zero,
    /// Local access is free, every remote pair costs `latency`.
    UniformRemote {
        /// Cost of any cross-machine transfer.
        latency: f64,
    },
    /// Machines are striped round-robin across `zones`; same-zone
    /// transfers cost `local`, cross-zone transfers cost `remote`.
    Clustered {
        /// Number of zones (racks).
        zones: usize,
        /// Same-zone transfer cost.
        local: f64,
        /// Cross-zone transfer cost.
        remote: f64,
    },
    /// Each unordered machine pair draws an independent symmetric
    /// latency uniform in `[lo, hi]`.
    RandomPairs {
        /// Smallest pairwise latency.
        lo: f64,
        /// Largest pairwise latency.
        hi: f64,
    },
}

impl TopologyModel {
    /// Checks the parameters against their documented domain.
    pub fn validate(&self) -> Result<()> {
        fn bad(what: &'static str) -> Result<()> {
            Err(Error::InvalidParameter { what })
        }
        match *self {
            TopologyModel::Zero => {}
            TopologyModel::UniformRemote { latency } => {
                if !(latency.is_finite() && latency >= 0.0) {
                    return bad("UniformRemote.latency must be finite and >= 0");
                }
            }
            TopologyModel::Clustered {
                zones,
                local,
                remote,
            } => {
                if zones == 0 {
                    return bad("Clustered.zones must be >= 1");
                }
                if !(local.is_finite() && remote.is_finite() && local >= 0.0 && remote >= 0.0) {
                    return bad("Clustered latencies must be finite and >= 0");
                }
            }
            TopologyModel::RandomPairs { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi) {
                    return bad("RandomPairs requires finite 0 <= lo <= hi");
                }
            }
        }
        Ok(())
    }

    /// Builds a transfer-latency matrix for `m` machines.
    ///
    /// # Errors
    /// [`Error::NoMachines`] if `m == 0`; propagates
    /// [`NetworkTopology::new`] validation.
    pub fn build(&self, m: usize, rng: &mut impl Rng) -> Result<NetworkTopology> {
        if m == 0 {
            return Err(Error::NoMachines);
        }
        match *self {
            TopologyModel::Zero => NetworkTopology::zero(m),
            TopologyModel::UniformRemote { latency } => NetworkTopology::uniform(m, latency),
            TopologyModel::Clustered {
                zones,
                local,
                remote,
            } => {
                let zone_of: Vec<usize> = (0..m).map(|i| i % zones.max(1)).collect();
                NetworkTopology::clustered(&zone_of, local, remote)
            }
            TopologyModel::RandomPairs { lo, hi } => {
                let mut latency = vec![0.0; m * m];
                for i in 0..m {
                    for j in (i + 1)..m {
                        let v = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
                        latency[i * m + j] = v;
                        latency[j * m + i] = v;
                    }
                }
                NetworkTopology::new(m, latency)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng;
    use rds_core::MachineId;

    #[test]
    fn unit_speeds_are_uniform() {
        let mut r = rng(10);
        let s = SpeedDistribution::Unit.realize(4, &mut r).unwrap();
        assert!(s.is_uniform());
    }

    #[test]
    fn uniform_speeds_stay_in_range() {
        let mut r = rng(11);
        let d = SpeedDistribution::Uniform { lo: 0.5, hi: 2.0 };
        let s = d.realize(64, &mut r).unwrap();
        assert!(s.speeds().iter().all(|&v| (0.5..=2.0).contains(&v)));
    }

    #[test]
    fn two_class_hits_both_classes() {
        let mut r = rng(12);
        let d = SpeedDistribution::TwoClass {
            slow: 1.0,
            fast: 3.0,
            p_fast: 0.5,
        };
        let s = d.realize(256, &mut r).unwrap();
        let fasts = s.speeds().iter().filter(|&&v| v == 3.0).count();
        assert!(fasts > 0 && fasts < 256, "fasts = {fasts}");
    }

    #[test]
    fn clustered_topology_shapes_latencies() {
        let mut r = rng(13);
        let t = TopologyModel::Clustered {
            zones: 2,
            local: 1.0,
            remote: 9.0,
        }
        .build(4, &mut r)
        .unwrap();
        // Round-robin striping: machines 0 and 2 share zone 0.
        let m0 = MachineId::new(0);
        assert_eq!(t.latency(m0, MachineId::new(2)), 1.0);
        assert_eq!(t.latency(m0, MachineId::new(1)), 9.0);
        assert_eq!(t.latency(m0, m0), 0.0);
    }

    #[test]
    fn random_pairs_is_symmetric_with_zero_diagonal() {
        let mut r = rng(14);
        let t = TopologyModel::RandomPairs { lo: 1.0, hi: 5.0 }
            .build(6, &mut r)
            .unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let (a, b) = (MachineId::new(i), MachineId::new(j));
                assert_eq!(t.latency(a, b), t.latency(b, a));
                if i == j {
                    assert_eq!(t.latency(a, b), 0.0);
                } else {
                    assert!((1.0..=5.0).contains(&t.latency(a, b)));
                }
            }
        }
    }

    #[test]
    fn validate_rejects_bad_parameters_with_typed_error() {
        let bad_speed = [
            SpeedDistribution::Uniform { lo: 0.0, hi: 1.0 },
            SpeedDistribution::Uniform {
                lo: 2.0,
                hi: f64::NAN,
            },
            SpeedDistribution::TwoClass {
                slow: -1.0,
                fast: 1.0,
                p_fast: 0.5,
            },
            SpeedDistribution::TwoClass {
                slow: 1.0,
                fast: 2.0,
                p_fast: 1.5,
            },
        ];
        for d in bad_speed {
            assert!(
                matches!(d.validate(), Err(Error::InvalidParameter { .. })),
                "{d:?}"
            );
        }
        let bad_topo = [
            TopologyModel::UniformRemote {
                latency: f64::INFINITY,
            },
            TopologyModel::Clustered {
                zones: 0,
                local: 1.0,
                remote: 2.0,
            },
            TopologyModel::RandomPairs { lo: -1.0, hi: 1.0 },
        ];
        for t in bad_topo {
            assert!(
                matches!(t.validate(), Err(Error::InvalidParameter { .. })),
                "{t:?}"
            );
        }
        assert!(SpeedDistribution::Unit.validate().is_ok());
        assert!(TopologyModel::Zero.validate().is_ok());
    }

    #[test]
    fn zero_machines_is_a_typed_error() {
        let mut r = rng(15);
        assert!(matches!(
            SpeedDistribution::Unit.realize(0, &mut r),
            Err(Error::NoMachines)
        ));
        assert!(matches!(
            TopologyModel::Zero.build(0, &mut r),
            Err(Error::NoMachines)
        ));
    }
}
