//! MTBF-driven fault-workload generation.
//!
//! Produces [`FaultScript`]s for the resilience engine from a cluster
//! reliability model: each machine suffers failures as a Poisson process
//! with the given mean time between failures, each failure drawn from a
//! weighted mix of permanent crashes, transient outages, and
//! degraded-speed phases. Independently, each task may be a straggler
//! whose actual time violates the `α` envelope.
//!
//! [`HeterogeneousFaultModel`] is the reliability-aware counterpart: it
//! samples crash scripts from a per-machine / per-zone
//! [`ReliabilityModel`], so the empirical survival of a placement under
//! its scripts is differentially comparable to the analytic
//! [`ReliabilityModel::survival`] bound ([`monte_carlo_survival`] does
//! the comparison without the engine in the loop).
//!
//! Generation is fully deterministic in the RNG, so fault campaigns in
//! EXPERIMENTS.md regenerate bit-for-bit.

use rand::rngs::StdRng;
use rand::Rng;
use rds_core::{Error, MachineId, Placement, ReliabilityModel, Result, TaskId, Time};
use rds_sim::faults::{FaultEvent, FaultScript};

/// A cluster reliability model: MTBF plus a fault-shape mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Mean time between failures per machine. `0` disables machine
    /// faults entirely.
    pub mtbf: f64,
    /// Faults are generated in `[0, horizon)`.
    pub horizon: f64,
    /// Relative weight of permanent crashes in the mix.
    pub crash_weight: f64,
    /// Relative weight of transient outages in the mix.
    pub outage_weight: f64,
    /// Relative weight of degraded-speed phases in the mix.
    pub slowdown_weight: f64,
    /// Mean outage length (exponentially distributed).
    pub mean_downtime: f64,
    /// Processing-speed fraction during a degraded phase.
    pub slowdown_speed: f64,
    /// Mean degraded-phase length (exponentially distributed).
    pub mean_slowdown: f64,
    /// Independent probability that a task is a straggler.
    pub straggler_rate: f64,
    /// Actual-time multiplier applied to straggling tasks.
    pub straggler_factor: f64,
}

impl FaultModel {
    /// The standard mix for a given MTBF and horizon: mostly transient
    /// trouble (50% outages, 30% slowdowns at half speed) with 20%
    /// permanent crashes; recovery times scale with the MTBF. Stragglers
    /// are off — opt in with [`FaultModel::with_stragglers`].
    ///
    /// `mtbf == 0` or `horizon == 0` is valid and disables machine
    /// faults (used to generate straggler-only scripts).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `mtbf` or `horizon` is negative
    /// or non-finite.
    pub fn mtbf(mtbf: f64, horizon: f64) -> Result<Self> {
        if !mtbf.is_finite() || mtbf < 0.0 {
            return Err(Error::InvalidParameter {
                what: "mtbf must be finite and >= 0",
            });
        }
        if !horizon.is_finite() || horizon < 0.0 {
            return Err(Error::InvalidParameter {
                what: "fault horizon must be finite and >= 0",
            });
        }
        Ok(FaultModel {
            mtbf,
            horizon,
            crash_weight: 0.2,
            outage_weight: 0.5,
            slowdown_weight: 0.3,
            mean_downtime: mtbf / 5.0,
            slowdown_speed: 0.5,
            mean_slowdown: mtbf / 5.0,
            straggler_rate: 0.0,
            straggler_factor: 3.0,
        })
    }

    /// Enables envelope-violating stragglers.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `rate` is outside `[0, 1]` or
    /// `factor` is non-finite or not positive.
    pub fn with_stragglers(mut self, rate: f64, factor: f64) -> Result<Self> {
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(Error::InvalidParameter {
                what: "straggler rate must be a probability in [0, 1]",
            });
        }
        if !factor.is_finite() || factor <= 0.0 {
            return Err(Error::InvalidParameter {
                what: "straggler factor must be finite and > 0",
            });
        }
        self.straggler_rate = rate;
        self.straggler_factor = factor;
        Ok(self)
    }

    /// Samples a fault script for `m` machines and `n` tasks.
    ///
    /// Each machine's failure times are a Poisson process (exponential
    /// inter-arrival with mean `mtbf`) truncated at `horizon`; a crash
    /// ends the machine's stream (nothing fails twice permanently).
    pub fn generate(&self, m: usize, n: usize, rng: &mut StdRng) -> FaultScript {
        let mut events = Vec::new();
        let total = self.crash_weight + self.outage_weight + self.slowdown_weight;
        if self.mtbf > 0.0 && self.horizon > 0.0 && total > 0.0 {
            for i in 0..m {
                let machine = MachineId::new(i);
                let mut t = 0.0;
                loop {
                    t += exponential(self.mtbf, rng);
                    if t >= self.horizon {
                        break;
                    }
                    let pick = rng.gen::<f64>() * total;
                    if pick < self.crash_weight {
                        events.push(FaultEvent::Crash {
                            machine,
                            at: Time::of(t),
                        });
                        break; // permanent: the stream ends here
                    } else if pick < self.crash_weight + self.outage_weight {
                        events.push(FaultEvent::Outage {
                            machine,
                            at: Time::of(t),
                            down_for: Time::of(exponential(self.mean_downtime, rng)),
                        });
                    } else {
                        events.push(FaultEvent::Slowdown {
                            machine,
                            at: Time::of(t),
                            lasting: Time::of(exponential(self.mean_slowdown, rng)),
                            speed: self.slowdown_speed,
                        });
                    }
                }
            }
        }
        if self.straggler_rate > 0.0 {
            for j in 0..n {
                if rng.gen_bool(self.straggler_rate.min(1.0)) {
                    events.push(FaultEvent::Straggler {
                        task: TaskId::new(j),
                        factor: self.straggler_factor,
                    });
                }
            }
        }
        FaultScript::new(events)
    }
}

/// Heterogeneous crash-script generation from a per-machine / per-zone
/// [`ReliabilityModel`].
///
/// One sampled script is one draw of the horizon experiment the analytic
/// model describes: each zone suffers a total outage with its
/// probability `g_z` (killing every member), and each machine
/// additionally crashes on its own with probability `f_i`. Dead machines
/// get exactly one permanent [`FaultEvent::Crash`] at a uniform time in
/// `[0, horizon)` (the earlier of the zone's and the machine's own crash
/// time when both hit).
///
/// Note the engine-observed survival under these scripts is an *upper*
/// bound on [`ReliabilityModel::survival`]: a task that completes before
/// its last holder crashes still survives. Use [`monte_carlo_survival`]
/// for a sampler that matches the analytic horizon semantics exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneousFaultModel {
    model: ReliabilityModel,
    horizon: f64,
}

impl HeterogeneousFaultModel {
    /// Builds a generator over the given reliability model and horizon.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `horizon` is non-finite or not
    /// positive.
    pub fn new(model: ReliabilityModel, horizon: f64) -> Result<Self> {
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(Error::InvalidParameter {
                what: "fault horizon must be finite and > 0",
            });
        }
        Ok(HeterogeneousFaultModel { model, horizon })
    }

    /// The underlying reliability model.
    #[inline]
    pub fn model(&self) -> &ReliabilityModel {
        &self.model
    }

    /// The script horizon.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Samples one crash script. Draw order is fixed (zones `0..Z`, then
    /// machines `0..m`), so scripts regenerate bit-for-bit from the seed.
    pub fn generate(&self, rng: &mut StdRng) -> FaultScript {
        let m = self.model.m();
        // Zone outages first: a dead zone stamps a shared crash time on
        // every member.
        let mut zone_down: Vec<Option<f64>> = Vec::with_capacity(self.model.zones());
        for z in 0..self.model.zones() {
            let g = self.model.zone_outage(z);
            if g > 0.0 && rng.gen_bool(g.min(1.0)) {
                zone_down.push(Some(rng.gen::<f64>() * self.horizon));
            } else {
                zone_down.push(None);
            }
        }
        let mut events = Vec::new();
        for i in 0..m {
            let machine = MachineId::new(i);
            let f = self.model.machine_fail(machine);
            let own = if f > 0.0 && rng.gen_bool(f.min(1.0)) {
                Some(rng.gen::<f64>() * self.horizon)
            } else {
                None
            };
            let zone = zone_down[self.model.zone_of(machine)];
            let at = match (own, zone) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            };
            if let Some(t) = at {
                events.push(FaultEvent::Crash {
                    machine,
                    at: Time::of(t),
                });
            }
        }
        FaultScript::new(events)
    }

    /// Samples one crash script with every crash at `t = 0` — the
    /// worst case where no task sneaks in before its holders die. The
    /// engine-observed survival under these scripts matches the analytic
    /// horizon semantics.
    pub fn generate_at_zero(&self, rng: &mut StdRng) -> FaultScript {
        let mut dead = DeadMachines::new(&self.model);
        dead.sample(&self.model, rng);
        let events = (0..self.model.m())
            .filter(|&i| dead.contains(i))
            .map(|i| FaultEvent::Crash {
                machine: MachineId::new(i),
                at: Time::ZERO,
            })
            .collect();
        FaultScript::new(events)
    }
}

/// The dead machines of one Bernoulli draw of the horizon experiment,
/// as a word mask, with the buffers reused from draw to draw. Raw
/// words, not a `MachineMask`, so that `monte_carlo_survival`'s subset
/// test runs over one flat buffer; a `MachineMask` per task timed
/// 1.1–1.6x slower per estimate (DESIGN §13).
struct DeadMachines {
    zone_dead: Vec<bool>,
    words: Vec<u64>,
}

impl DeadMachines {
    fn new(model: &ReliabilityModel) -> Self {
        DeadMachines {
            zone_dead: vec![false; model.zones()],
            words: vec![0; model.m().div_ceil(64)],
        }
    }

    /// One draw: machine `i` is dead when its zone went down or it
    /// failed on its own. Each zone draws first, in id order; then each
    /// machine draws, in id order, only when its zone is up and its own
    /// failure probability is positive.
    fn sample(&mut self, model: &ReliabilityModel, rng: &mut StdRng) {
        for (z, dead) in self.zone_dead.iter_mut().enumerate() {
            let g = model.zone_outage(z);
            *dead = g > 0.0 && rng.gen_bool(g.min(1.0));
        }
        self.words.fill(0);
        for i in 0..model.m() {
            let id = MachineId::new(i);
            let f = model.machine_fail(id);
            if self.zone_dead[model.zone_of(id)] || (f > 0.0 && rng.gen_bool(f.min(1.0))) {
                self.words[i / 64] |= 1 << (i % 64);
            }
        }
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Monte-Carlo estimate of each task's survival probability under a
/// placement: the fraction of sampled horizon draws in which at least
/// one holder machine stays alive.
///
/// This samples the [`ReliabilityModel`] directly (no engine in the
/// loop), so by the law of large numbers the estimates converge to
/// [`ReliabilityModel::survival`] of each task's machine set — the
/// differential check the conformance oracle runs. Each task's holders
/// become a word mask once; a task is alive in a draw when its mask is
/// not a subset of the dead machines'.
pub fn monte_carlo_survival(
    placement: &Placement,
    model: &ReliabilityModel,
    trials: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let m = model.m();
    let mut dead = DeadMachines::new(model);
    let words = dead.words.len();
    let mut holders = vec![0u64; placement.sets().len() * words];
    for (set, mask) in placement.sets().iter().zip(holders.chunks_exact_mut(words)) {
        for id in set.iter(m) {
            mask[id.index() / 64] |= 1 << (id.index() % 64);
        }
    }
    let mut alive_counts = vec![0usize; placement.sets().len()];
    for _ in 0..trials {
        dead.sample(model, rng);
        for (count, mask) in alive_counts.iter_mut().zip(holders.chunks_exact(words)) {
            if mask.iter().zip(&dead.words).any(|(h, d)| h & !d != 0) {
                *count += 1;
            }
        }
    }
    alive_counts
        .into_iter()
        .map(|c| {
            if trials == 0 {
                0.0
            } else {
                c as f64 / trials as f64
            }
        })
        .collect()
}

/// Exponential sample with the given mean (0 when the mean is not
/// positive).
fn exponential(mean: f64, rng: &mut StdRng) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng;
    use rds_core::{Instance, MachineSet};

    #[test]
    fn zero_mtbf_generates_nothing() {
        let model = FaultModel::mtbf(0.0, 100.0).unwrap();
        let script = model.generate(8, 64, &mut rng(1));
        assert!(script.is_empty());
    }

    #[test]
    fn constructors_reject_bad_domains() {
        assert!(matches!(
            FaultModel::mtbf(-1.0, 100.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            FaultModel::mtbf(f64::NAN, 100.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            FaultModel::mtbf(10.0, -5.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            FaultModel::mtbf(10.0, f64::INFINITY),
            Err(Error::InvalidParameter { .. })
        ));
        let ok = FaultModel::mtbf(10.0, 100.0).unwrap();
        assert!(matches!(
            ok.with_stragglers(1.5, 3.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            ok.with_stragglers(-0.1, 3.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            ok.with_stragglers(0.2, 0.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            ok.with_stragglers(0.2, f64::NAN),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(ok.with_stragglers(0.2, 3.0).is_ok());
    }

    #[test]
    fn generation_is_deterministic() {
        let model = FaultModel::mtbf(10.0, 100.0)
            .unwrap()
            .with_stragglers(0.2, 3.0)
            .unwrap();
        let a = model.generate(8, 64, &mut rng(7));
        let b = model.generate(8, 64, &mut rng(7));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn machine_faults_stay_inside_the_horizon() {
        let model = FaultModel::mtbf(5.0, 50.0).unwrap();
        let script = model.generate(16, 0, &mut rng(3));
        for ev in script.events() {
            let at = match *ev {
                FaultEvent::Crash { at, .. }
                | FaultEvent::Outage { at, .. }
                | FaultEvent::Slowdown { at, .. } => at,
                FaultEvent::Straggler { .. } => continue,
            };
            assert!(at < Time::of(50.0));
        }
    }

    #[test]
    fn a_crash_ends_a_machines_fault_stream() {
        let model = FaultModel::mtbf(2.0, 200.0).unwrap();
        let script = model.generate(12, 0, &mut rng(11));
        for i in 0..12 {
            let machine = MachineId::new(i);
            let mut crashed_at: Option<Time> = None;
            for ev in script.events() {
                match *ev {
                    FaultEvent::Crash { machine: mc, at } if mc == machine => {
                        assert!(crashed_at.is_none(), "double crash on {machine}");
                        crashed_at = Some(at);
                    }
                    FaultEvent::Outage {
                        machine: mc, at, ..
                    }
                    | FaultEvent::Slowdown {
                        machine: mc, at, ..
                    } if mc == machine => {
                        assert!(
                            crashed_at.is_none_or(|c| at < c),
                            "fault after permanent crash on {machine}"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn straggler_rate_one_marks_every_task() {
        let model = FaultModel::mtbf(0.0, 0.0)
            .unwrap()
            .with_stragglers(1.0, 2.5)
            .unwrap();
        let script = model.generate(4, 10, &mut rng(5));
        let stragglers = script
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::Straggler { .. }))
            .count();
        assert_eq!(stragglers, 10);
    }

    fn hetero() -> HeterogeneousFaultModel {
        let model = ReliabilityModel::new(
            vec![0.3, 0.1, 0.2, 0.4, 0.05, 0.15],
            vec![0, 0, 1, 1, 2, 2],
            vec![0.1, 0.05, 0.0],
        )
        .unwrap();
        HeterogeneousFaultModel::new(model, 50.0).unwrap()
    }

    #[test]
    fn heterogeneous_validates_horizon() {
        let m = ReliabilityModel::uniform(4, 0.1).unwrap();
        assert!(matches!(
            HeterogeneousFaultModel::new(m.clone(), 0.0),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            HeterogeneousFaultModel::new(m, f64::NAN),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn heterogeneous_scripts_are_deterministic_single_crash_in_horizon() {
        let h = hetero();
        let a = h.generate(&mut rng(9));
        let b = h.generate(&mut rng(9));
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for ev in a.events() {
            match *ev {
                FaultEvent::Crash { machine, at } => {
                    assert!(seen.insert(machine), "double crash on {machine}");
                    assert!(at < Time::of(50.0));
                }
                _ => panic!("heterogeneous scripts are crash-only"),
            }
        }
    }

    #[test]
    fn certain_zone_outage_kills_every_member() {
        let model =
            ReliabilityModel::new(vec![0.0, 0.0, 0.0, 0.0], vec![0, 0, 1, 1], vec![1.0, 0.0])
                .unwrap();
        let h = HeterogeneousFaultModel::new(model, 10.0).unwrap();
        let script = h.generate(&mut rng(2));
        let crashed: Vec<usize> = script
            .events()
            .iter()
            .map(|e| match *e {
                FaultEvent::Crash { machine, .. } => machine.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(crashed, vec![0, 1]);
        // Zone members share the outage instant.
        let times: Vec<Time> = script
            .events()
            .iter()
            .map(|e| match *e {
                FaultEvent::Crash { at, .. } => at,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(times[0], times[1]);
    }

    #[test]
    fn monte_carlo_tracks_the_analytic_survival() {
        let h = hetero();
        let inst = Instance::from_estimates(&[1.0, 1.0, 1.0], 6).unwrap();
        let placement = Placement::new(
            &inst,
            vec![
                MachineSet::One(MachineId::new(0)),
                MachineSet::Span { start: 2, end: 4 },
                MachineSet::All,
            ],
        )
        .unwrap();
        let est = monte_carlo_survival(&placement, h.model(), 20_000, &mut rng(13));
        let exact = h.model().placement_survival(&placement);
        for (j, (e, x)) in est.iter().zip(exact.iter()).enumerate() {
            assert!((e - x).abs() < 0.02, "task {j}: mc {e} vs analytic {x}");
        }
        // Richer sets strictly safer under this model.
        assert!(est[2] >= est[1] && est[1] >= est[0]);
    }

    #[test]
    fn generate_at_zero_crashes_at_time_zero() {
        let h = hetero();
        let script = h.generate_at_zero(&mut rng(21));
        for ev in script.events() {
            match *ev {
                FaultEvent::Crash { at, .. } => assert_eq!(at, Time::ZERO),
                _ => panic!("crash-only"),
            }
        }
    }
}
