//! `engine-million`: `Engine::run_in` on a reused `SimArena` with
//! `OrderedDispatcher::auto` over n = 10^6 tasks, m = 10^4 machines and
//! the paper's k = 2 group placement in LPT order. One trial per pass,
//! realized inside the pass. No fault engine, no solver.

use super::{core_err, Pass, Spec, Workload};
use crate::{alloc, trace};
use rds_core::{Instance, MachineSet, Placement, Uncertainty};
use rds_sim::{Engine, OrderedDispatcher, SimArena};
use rds_workloads::{realize::RealizationModel, rng, EstimateDistribution};

const N: usize = 1_000_000;
const M: usize = 10_000;
const ALPHA: f64 = 2.0;

pub const SPEC: Spec = Spec {
    name: "engine-million",
    item: "trial (realize + one engine run)",
    quality: "mean over trials of C_max / max(sum p / m, max p)",
    min_passes: 4,
    repeat_check: true,
    build: || Box::new(EngineMillion { setup: None }),
};

struct Setup {
    inst: Instance,
    placement: Placement,
    arena: SimArena,
    dispatcher: OrderedDispatcher,
}

struct EngineMillion {
    setup: Option<Setup>,
}

impl Workload for EngineMillion {
    fn setup(&mut self, seed: u64) -> Result<(), String> {
        // Free the previous inputs first, so repeated setups do not
        // stack up in peak RSS.
        self.setup = None;
        let mut r = rng::rng(seed);
        let est = EstimateDistribution::Uniform { lo: 1.0, hi: 10.0 }.sample_n(N, &mut r);
        let inst = Instance::from_estimates(&est, M).map_err(core_err)?;
        let groups = (M / 2) as u32;
        let sets = (0..N as u32)
            .map(|j| {
                let g = j % groups;
                MachineSet::Span {
                    start: g * 2,
                    end: g * 2 + 2,
                }
            })
            .collect();
        let placement = Placement::new(&inst, sets).map_err(core_err)?;
        let mut arena = SimArena::with_capacity(N, M);
        let mut dispatcher = OrderedDispatcher::auto(inst.ids_by_estimate_desc(), &placement);
        if !dispatcher.is_indexed() {
            return Err(
                "engine-million: group placement did not take the indexed dispatcher".into(),
            );
        }
        // One warm-up trial grows every arena buffer to its high-water
        // mark, so measured trials run in steady state.
        let unc = Uncertainty::new(ALPHA).map_err(core_err)?;
        let real = RealizationModel::UniformFactor
            .realize(&inst, unc, &mut rng::rng(rng::child_seed(seed, u64::MAX)))
            .map_err(core_err)?;
        Engine::new(&inst, &placement, &real)
            .and_then(|e| e.run_in(&mut arena, &mut dispatcher))
            .map_err(core_err)?;
        self.setup = Some(Setup {
            inst,
            placement,
            arena,
            dispatcher,
        });
        Ok(())
    }

    fn pass(&mut self, seed: u64, _traced: bool) -> Result<Pass, String> {
        let s = self
            .setup
            .as_mut()
            .ok_or("engine-million: pass before setup")?;
        let unc = Uncertainty::new(ALPHA).map_err(core_err)?;
        let real = trace::timed("workloads.realize", || {
            RealizationModel::UniformFactor.realize(&s.inst, unc, &mut rng::rng(seed))
        })
        .map_err(core_err)?;
        let engine = Engine::new(&s.inst, &s.placement, &real).map_err(core_err)?;
        // Counted inside the spans, so the recorder's own bookkeeping
        // never shows up as an engine allocation.
        let mut allocs = 0;
        {
            let _s = trace::span("sim.dispatcher");
            let before = alloc::count();
            s.dispatcher.reset();
            allocs += alloc::count() - before;
        }
        let makespan = trace::timed("sim.engine", || {
            let before = alloc::count();
            let makespan = engine.run_in(&mut s.arena, &mut s.dispatcher);
            allocs += alloc::count() - before;
            makespan
        })
        .map_err(core_err)?;
        // The schedule validator (always on in debug builds) allocates.
        if allocs != 0 && !rds_sim::validate::enabled() {
            return Err(format!(
                "engine-million: {allocs} allocation(s) in a steady-state trial"
            ));
        }
        trace::add("sim.engine.events", s.arena.trace().len() as u64);
        trace::add("sim.engine.allocs", allocs);
        let lower_bound = (real.total().get() / M as f64).max(real.max().get());
        Ok(Pass {
            items: 1,
            quality: makespan.get() / lower_bound,
            key: format!("{:016x}", makespan.get().to_bits()),
            ..Pass::default()
        })
    }
}
