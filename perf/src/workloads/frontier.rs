//! `frontier`: the ILP / LP-rounding placement layer behind
//! `rds frontier`, which no other workload uses. Each pass solves the
//! frontier grid of 16 seeded instances, calling `IlpPlacement::place`
//! and `LpRoundingPlacement::place` per point (the command aborts on its
//! first `ResourceLimit`; here that is a counted failure).
//!
//! The size, m = 4 and n = 14, is the largest found where the ILP never
//! exhausts its node budget (0 of 20,480 solves over 1,024 seeded
//! instances). At m = 6, n = 18 it does on 32 of 320 solves at seed 42.

use super::{core_err, mean, Pass, Spec, Workload};
use crate::trace;
use rand::Rng;
use rds_algs::{IlpPlacement, LpRoundingPlacement, Strategy};
use rds_core::{memory, Error, Instance, Realization, Size, Uncertainty};
use rds_exact::ilp::ILP_TOL;
use rds_policies::budget_grid;
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution};

const M: usize = 4;
const N: usize = 14;
const INSTANCES: u64 = 16;
const BUDGET_STEPS: usize = 5;
const KS: [usize; 2] = [1, 2];
const ALPHA: f64 = 1.5;

pub const SPEC: Spec = Spec {
    name: "frontier",
    item: "point solve (one placement at one budget and k)",
    quality: "mean over solved points of realized C_max / max(sum p / m, max p)",
    min_passes: 4,
    repeat_check: false,
    build: || Box::new(Frontier),
};

struct Frontier;

/// The sized instance, realization and budget grid `rds frontier`
/// builds for `seed`.
fn instance(seed: u64, unc: Uncertainty) -> Result<(Instance, Realization, Vec<f64>), String> {
    let mut r = rng::rng(seed);
    let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(N, &mut r);
    let pairs: Vec<(f64, f64)> = est.iter().map(|&p| (p, r.gen_range(1.0..8.0))).collect();
    let inst = Instance::from_estimates_and_sizes(&pairs, M).map_err(core_err)?;
    let real = trace::timed("workloads.realize", || {
        RealizationModel::UniformFactor.realize(&inst, unc, &mut r)
    })
    .map_err(core_err)?;
    let budgets = budget_grid(&inst, BUDGET_STEPS);
    Ok((inst, real, budgets))
}

impl Workload for Frontier {
    fn setup(&mut self, seed: u64) -> Result<(), String> {
        let unc = Uncertainty::new(ALPHA).map_err(core_err)?;
        for i in 0..INSTANCES {
            std::hint::black_box(instance(rng::child_seed(seed, i), unc)?);
        }
        Ok(())
    }

    fn pass(&mut self, seed: u64, _traced: bool) -> Result<Pass, String> {
        let unc = Uncertainty::new(ALPHA).map_err(core_err)?;
        let mut pass = Pass::default();
        let mut ratios = Vec::new();
        for i in 0..INSTANCES {
            let (inst, real, budgets) = instance(rng::child_seed(seed, i), unc)?;
            let lower_bound = (real.total().get() / M as f64).max(real.max().get());
            for k in KS {
                for &b in &budgets {
                    let budget = Size::of(b);
                    let ilp = IlpPlacement::new(k).map_err(core_err)?.with_budget(budget);
                    let lp = LpRoundingPlacement::new(k)
                        .map_err(core_err)?
                        .with_budget(budget);
                    let solvers: [(&'static str, &dyn Strategy); 2] =
                        [("algs.ilp", &ilp), ("algs.lp_round", &lp)];
                    for (layer, solver) in solvers {
                        pass.items += 1;
                        let guard = trace::span(layer);
                        let placed = solver.place(&inst, unc);
                        if matches!(placed, Err(Error::ResourceLimit { .. })) {
                            guard.fail();
                        }
                        drop(guard);
                        let placement = match placed {
                            Ok(p) => p,
                            // A budget below the partition minimum is a
                            // proven answer, not a failure.
                            Err(Error::InvalidParameter { .. }) => {
                                pass.key.push_str("infeasible;");
                                continue;
                            }
                            Err(Error::ResourceLimit { .. }) => {
                                pass.failed += 1;
                                pass.key.push_str("resource-limit;");
                                continue;
                            }
                            Err(e) => return Err(format!("frontier: {}: {e}", solver.name())),
                        };
                        let mem = memory::mem_max(&inst, &placement).get();
                        if mem > b * (1.0 + ILP_TOL) || placement.max_replicas() > k {
                            return Err(format!(
                                "frontier: {} placed Mem_max {mem} with {} replicas",
                                solver.name(),
                                placement.max_replicas()
                            ));
                        }
                        let makespan = solver
                            .execute(&inst, &placement, &real)
                            .map_err(core_err)?
                            .makespan(&real)
                            .get();
                        ratios.push(makespan / lower_bound);
                        pass.key.push_str(&format!("{placement:?};"));
                    }
                }
            }
        }
        pass.quality = mean(&ratios);
        Ok(pass)
    }
}
