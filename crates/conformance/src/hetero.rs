//! The heterogeneity arm of the conformance oracle: differential and
//! metamorphic verification of the speed-robust and locality-aware
//! execution paths.
//!
//! Each case of the stream gets a seeded instance, a two-point-free
//! realization, a non-uniform speed profile, a symmetric transfer
//! topology, and a `SpeedRobust-Bags` group placement, then the engine
//! is checked from five directions:
//!
//! 1. **Collapse metamorphics**: running the hetero path with unit
//!    speeds and no topology — and the locality dispatcher over an
//!    all-zero topology — must reproduce the homogeneous LPT engine
//!    run *trace-identically* (same events, same times, same machines).
//! 2. **Speed parity**: the engine's makespan under the speed profile
//!    equals an independent closed-form greedy reference that performs
//!    the same float operations — exactly, no tolerance.
//! 3. **Locality parity**: likewise for the locality dispatcher with
//!    transfer charging.
//! 4. **Lower bound**: the combined speeds+topology run never beats
//!    `max(Σp/Σs, max p/s_max)` ([`rds_algs::speed_lower_bound`]).
//! 5. **Determinism**: re-running the combined case is trace-identical.
//!
//! The [`Mutation::IgnoreSpeeds`] mutant runs the engine side of the
//! speed-parity check with unit speeds (a scheduler that never reads
//! the realized speeds); [`Mutation::IgnoreTransferCost`] runs the
//! locality side with a zero topology (a dispatcher that believes data
//! movement is free). Parity against the truth-charging reference
//! catches both.

use crate::arm::{ArmReport, Violation};
use crate::registry::Mutation;
use rand::Rng;
use rds_algs::{speed_lower_bound, SpeedRobustBags, Strategy};
use rds_core::{
    Instance, MachineId, MachineSpeeds, NetworkTopology, Placement, Realization, Result, TaskId,
    Uncertainty,
};
use rds_sim::executors::{simulate_hetero, simulate_ordered};
use rds_workloads::rng::{child_seed, rng};

/// One hetero case: an instance, realization factors, a speed profile,
/// a transfer topology, and the group count of its bag placement.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroSpec {
    /// Estimated processing times.
    pub estimates: Vec<f64>,
    /// Machine count.
    pub m: usize,
    /// Uncertainty factor.
    pub alpha: f64,
    /// Per-task deviation factors in `[1/α, α]`.
    pub factors: Vec<f64>,
    /// Per-machine speed factors.
    pub speeds: Vec<f64>,
    /// Row-major `m × m` transfer-latency matrix.
    pub latency: Vec<f64>,
    /// Group count of the `SpeedRobust-Bags` placement.
    pub k: usize,
}

/// Everything a hetero case needs at check time.
pub struct HeteroCase {
    /// The instance.
    pub instance: Instance,
    /// The realization.
    pub realization: Realization,
    /// The true speed profile.
    pub speeds: MachineSpeeds,
    /// The true topology.
    pub topology: NetworkTopology,
    /// The bag placement under test.
    pub placement: Placement,
}

impl HeteroSpec {
    /// Builds the case.
    ///
    /// # Errors
    /// Propagates validation failures (a well-formed generator never
    /// triggers them).
    pub fn build(&self) -> Result<HeteroCase> {
        let instance = Instance::from_estimates(&self.estimates, self.m)?;
        let uncertainty = Uncertainty::new(self.alpha)?;
        let realization = Realization::from_factors(&instance, uncertainty, &self.factors)?;
        let speeds = MachineSpeeds::new(self.speeds.clone())?;
        let topology = NetworkTopology::new(self.m, self.latency.clone())?;
        let placement = SpeedRobustBags::new(self.k).place(&instance, uncertainty)?;
        Ok(HeteroCase {
            instance,
            realization,
            speeds,
            topology,
            placement,
        })
    }
}

/// The individual hetero checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeteroCheck {
    /// The engine returned an error on a valid case.
    EngineError,
    /// Unit speeds + no topology did not collapse to the homogeneous
    /// trace.
    UnitSpeedCollapse,
    /// The locality dispatcher over a zero topology did not collapse to
    /// the homogeneous trace.
    ZeroLatencyCollapse,
    /// Engine and reference disagree under the speed profile.
    SpeedParity,
    /// Engine and reference disagree under the topology.
    LocalityParity,
    /// The combined run beat the sound speed lower bound.
    LowerBound,
    /// Re-running the combined case changed the trace.
    Determinism,
}

impl HeteroCheck {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            HeteroCheck::EngineError => "engine-error",
            HeteroCheck::UnitSpeedCollapse => "unit-speed-collapse",
            HeteroCheck::ZeroLatencyCollapse => "zero-latency-collapse",
            HeteroCheck::SpeedParity => "speed-parity",
            HeteroCheck::LocalityParity => "locality-parity",
            HeteroCheck::LowerBound => "lower-bound",
            HeteroCheck::Determinism => "determinism",
        }
    }
}

/// Generates the `index`-th hetero case of the stream rooted at `seed`.
///
/// Profiles are deliberately non-degenerate: speeds span `[0.4, 2.5]`
/// and every machine pair carries a positive latency, so a speed-blind
/// or transfer-blind engine is actually wrong, not just untested. The
/// group count keeps every group ≥ 2 machines whenever `m ≥ 4`, so
/// remote starts (and therefore transfer charges) really occur.
pub fn generate_hetero_case(seed: u64, index: u64, max_n: usize, max_m: usize) -> HeteroSpec {
    // Offset the stream so hetero cases never share RNG streams with
    // the makespan/survival/ILP cases of the same index.
    let case_seed = child_seed(seed ^ 0x9u64.rotate_left(57), index);
    let mut r = rng(case_seed);
    let m = r.gen_range(2..=max_m.max(2));
    let n = r.gen_range(1..=max_n.max(1));
    let estimates: Vec<f64> = (0..n).map(|_| r.gen_range(0.5..12.0)).collect();
    let alpha = r.gen_range(1.1..2.5);
    let factors: Vec<f64> = (0..n).map(|_| r.gen_range(1.0 / alpha..alpha)).collect();
    let speeds: Vec<f64> = (0..m).map(|_| r.gen_range(0.4..2.5)).collect();
    let mut latency = vec![0.0; m * m];
    for i in 0..m {
        for j in (i + 1)..m {
            let v = r.gen_range(0.1..4.0);
            latency[i * m + j] = v;
            latency[j * m + i] = v;
        }
    }
    let k = r.gen_range(1..=(m / 2).max(1));
    HeteroSpec {
        estimates,
        m,
        alpha,
        factors,
        speeds,
        latency,
        k,
    }
}

/// Independent closed-form greedy reference for the hetero engine.
///
/// Machines are served in `(available time, id)` order, exactly like
/// the engine's idle-event queue; the dispatch rule matches the engine
/// side (first task in LPT order without a topology, cheapest-transfer
/// with first-rank tie-break with one); a machine with no eligible task
/// is never offered again (all tasks are pending from t = 0, so its
/// situation cannot improve). The duration arithmetic performs the
/// *same float operations in the same order* as the engine
/// (`actual / speed + latency`), so parity is exact equality.
fn reference_makespan(
    instance: &Instance,
    placement: &Placement,
    realization: &Realization,
    speeds: Option<&MachineSpeeds>,
    topology: Option<&NetworkTopology>,
) -> f64 {
    let m = instance.m();
    let n = instance.n();
    let order = instance.ids_by_estimate_desc();
    let homes: Vec<MachineId> = (0..n).map(|j| placement.primary(TaskId::new(j))).collect();
    let mut avail = vec![0.0f64; m];
    let mut starved = vec![false; m];
    let mut done = vec![false; n];
    let mut remaining = n;
    while remaining > 0 {
        let mut machine = None;
        for i in 0..m {
            if starved[i] {
                continue;
            }
            match machine {
                None => machine = Some(i),
                Some(b) => {
                    if avail[i] < avail[b] {
                        machine = Some(i);
                    }
                }
            }
        }
        let Some(i) = machine else { break };
        let mid = MachineId::new(i);
        let mut pick: Option<TaskId> = None;
        match topology {
            None => {
                for &t in &order {
                    if !done[t.index()] && placement.set(t).contains(mid) {
                        pick = Some(t);
                        break;
                    }
                }
            }
            Some(topo) => {
                let mut best_cost = f64::INFINITY;
                for &t in &order {
                    if done[t.index()] || !placement.set(t).contains(mid) {
                        continue;
                    }
                    let cost = topo.latency(homes[t.index()], mid);
                    if cost == 0.0 {
                        pick = Some(t);
                        break;
                    }
                    if cost < best_cost {
                        best_cost = cost;
                        pick = Some(t);
                    }
                }
            }
        }
        match pick {
            None => starved[i] = true,
            Some(t) => {
                done[t.index()] = true;
                remaining -= 1;
                let mut d = realization.actual(t).get();
                if let Some(s) = speeds {
                    d /= s.speed(mid);
                }
                if let Some(topo) = topology {
                    d += topo.latency(homes[t.index()], mid);
                }
                avail[i] += d;
            }
        }
    }
    avail.iter().copied().fold(0.0f64, f64::max)
}

/// Runs the hetero-check battery for one case.
///
/// # Errors
/// Only on invalid specs (a well-formed generator never triggers them);
/// engine failures on valid cases are *violations*, not errors.
pub fn check_hetero_case(spec: &HeteroSpec, mutation: Mutation) -> Result<ArmReport<HeteroCheck>> {
    let mut report = ArmReport::default();
    let case = spec.build()?;
    let HeteroCase {
        instance,
        realization,
        speeds,
        topology,
        placement,
    } = &case;

    let engine_error = |report: &mut ArmReport<HeteroCheck>, what: &str, e: &rds_core::Error| {
        report.violations.push(Violation {
            check: HeteroCheck::EngineError,
            observed: 0.0,
            limit: 0.0,
            detail: format!("{what}: {e}"),
        });
    };

    // The homogeneous baseline every collapse check compares against.
    report.checks_run += 1;
    let baseline = match simulate_ordered(
        instance,
        placement,
        instance.ids_by_estimate_desc(),
        realization,
    ) {
        Ok(res) => res,
        Err(e) => {
            engine_error(&mut report, "baseline run failed", &e);
            return Ok(report);
        }
    };

    // Check 1: unit speeds + no topology collapse to the baseline trace.
    report.checks_run += 1;
    match simulate_hetero(instance, placement, realization, None, None) {
        Err(e) => engine_error(&mut report, "hetero run (no profile) failed", &e),
        Ok(res) => {
            if res.trace.events() != baseline.trace.events() {
                report.violations.push(Violation {
                    check: HeteroCheck::UnitSpeedCollapse,
                    observed: res.makespan.get(),
                    limit: baseline.makespan.get(),
                    detail: "hetero path without a profile diverged from the homogeneous trace"
                        .into(),
                });
            }
        }
    }

    // Check 2: the locality dispatcher over a zero topology collapses to
    // the baseline trace (same decisions, no charges).
    report.checks_run += 1;
    let zero = NetworkTopology::zero(instance.m())?;
    match simulate_hetero(instance, placement, realization, None, Some(&zero)) {
        Err(e) => engine_error(&mut report, "zero-topology run failed", &e),
        Ok(res) => {
            if res.trace.events() != baseline.trace.events() {
                report.violations.push(Violation {
                    check: HeteroCheck::ZeroLatencyCollapse,
                    observed: res.makespan.get(),
                    limit: baseline.makespan.get(),
                    detail: "locality dispatch over a zero topology diverged from the \
                             homogeneous trace"
                        .into(),
                });
            }
        }
    }

    // Check 3: speed parity — the engine side honors the mutation, the
    // reference always charges the truth.
    report.checks_run += 1;
    let engine_speeds = match mutation {
        Mutation::IgnoreSpeeds => None,
        _ => Some(speeds),
    };
    match simulate_hetero(instance, placement, realization, engine_speeds, None) {
        Err(e) => engine_error(&mut report, "speed run failed", &e),
        Ok(res) => {
            let expect = reference_makespan(instance, placement, realization, Some(speeds), None);
            if res.makespan.get() != expect {
                report.violations.push(Violation {
                    check: HeteroCheck::SpeedParity,
                    observed: res.makespan.get(),
                    limit: expect,
                    detail: format!(
                        "engine makespan {} != speed-charging reference {expect}",
                        res.makespan
                    ),
                });
            }
        }
    }

    // Check 4: locality parity — same discipline for the topology.
    report.checks_run += 1;
    let engine_topology = match mutation {
        Mutation::IgnoreTransferCost => &zero,
        _ => topology,
    };
    match simulate_hetero(
        instance,
        placement,
        realization,
        None,
        Some(engine_topology),
    ) {
        Err(e) => engine_error(&mut report, "locality run failed", &e),
        Ok(res) => {
            let expect = reference_makespan(instance, placement, realization, None, Some(topology));
            if res.makespan.get() != expect {
                report.violations.push(Violation {
                    check: HeteroCheck::LocalityParity,
                    observed: res.makespan.get(),
                    limit: expect,
                    detail: format!(
                        "engine makespan {} != transfer-charging reference {expect}",
                        res.makespan
                    ),
                });
            }
        }
    }

    // Checks 5 + 6: the combined run respects the sound speed lower
    // bound and is deterministic.
    report.checks_run += 2;
    let combined = simulate_hetero(
        instance,
        placement,
        realization,
        Some(speeds),
        Some(topology),
    );
    match combined {
        Err(e) => engine_error(&mut report, "combined run failed", &e),
        Ok(res) => {
            let lb = speed_lower_bound(realization.times(), speeds).get();
            // Transfer charges only add time, so the speed-only bound
            // stays sound; the tiny relative slack covers the different
            // float summation orders of bound and engine.
            if res.makespan.get() < lb * (1.0 - 1e-9) {
                report.violations.push(Violation {
                    check: HeteroCheck::LowerBound,
                    observed: res.makespan.get(),
                    limit: lb,
                    detail: format!(
                        "combined makespan {} beat the lower bound {lb}",
                        res.makespan
                    ),
                });
            }
            match simulate_hetero(
                instance,
                placement,
                realization,
                Some(speeds),
                Some(topology),
            ) {
                Err(e) => engine_error(&mut report, "combined re-run failed", &e),
                Ok(again) => {
                    if again.trace.events() != res.trace.events() {
                        report.violations.push(Violation {
                            check: HeteroCheck::Determinism,
                            observed: again.makespan.get(),
                            limit: res.makespan.get(),
                            detail: "re-running the combined case changed the trace".into(),
                        });
                    }
                }
            }
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_domain() {
        for index in 0..32 {
            let a = generate_hetero_case(42, index, 12, 8);
            let b = generate_hetero_case(42, index, 12, 8);
            assert_eq!(a, b);
            let case = a.build().unwrap();
            assert!(case.instance.n() >= 1 && case.instance.m() >= 2);
            assert!(!case.speeds.is_uniform());
            assert!(!case.topology.is_zero());
        }
    }

    #[test]
    fn clean_stream_has_no_violations() {
        for index in 0..24 {
            let spec = generate_hetero_case(42, index, 12, 8);
            let report = check_hetero_case(&spec, Mutation::None).unwrap();
            assert!(
                report.violations.is_empty(),
                "case {index}: {:?}",
                report.violations
            );
            assert_eq!(report.checks_run, 7);
        }
    }

    #[test]
    fn ignore_speeds_mutant_is_caught() {
        let mut caught = 0;
        for index in 0..32 {
            let spec = generate_hetero_case(42, index, 12, 8);
            let report = check_hetero_case(&spec, Mutation::IgnoreSpeeds).unwrap();
            if report
                .violations
                .iter()
                .any(|v| v.check == HeteroCheck::SpeedParity)
            {
                caught += 1;
            }
        }
        assert!(
            caught >= 24,
            "speed-blind mutant escaped parity ({caught}/32 caught)"
        );
    }

    #[test]
    fn ignore_transfer_cost_mutant_is_caught() {
        let mut caught = 0;
        for index in 0..32 {
            let spec = generate_hetero_case(42, index, 12, 8);
            let report = check_hetero_case(&spec, Mutation::IgnoreTransferCost).unwrap();
            if report
                .violations
                .iter()
                .any(|v| v.check == HeteroCheck::LocalityParity)
            {
                caught += 1;
            }
        }
        assert!(
            caught >= 16,
            "transfer-blind mutant escaped parity ({caught}/32 caught)"
        );
    }

    #[test]
    fn other_mutations_leave_hetero_checks_clean() {
        // DropReplica / IgnoreReliability / IgnoreMemoryBudget mutate
        // other arms; the hetero arm must stay quiet under them.
        for mutation in [
            Mutation::DropReplica,
            Mutation::IgnoreReliability,
            Mutation::IgnoreMemoryBudget,
        ] {
            for index in 0..8 {
                let spec = generate_hetero_case(42, index, 12, 8);
                let report = check_hetero_case(&spec, mutation).unwrap();
                assert!(report.violations.is_empty(), "case {index} ({mutation:?})");
            }
        }
    }
}
