//! `monte_carlo_survival` against the per-trial `Vec<bool>` loop it
//! replaced, kept here as the reference: the same estimates to the bit,
//! and the RNG left in the same state (the next `next_u64` agrees).
//!
//! Models run up to m = 130, so masks span three words, with failure
//! and outage probabilities of exactly 0 and 1 and zones that always
//! fail. Placements mix every `MachineSet` form.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use rds_core::{Instance, MachineId, MachineMask, MachineSet, Placement, ReliabilityModel};
use rds_workloads::monte_carlo_survival;
use rds_workloads::rng::rng;

/// One Bernoulli draw of the horizon experiment: `dead[i]` is `true`
/// when machine `i`'s zone went down or the machine failed on its own.
fn sample_dead(model: &ReliabilityModel, rng: &mut StdRng) -> Vec<bool> {
    let zone_dead: Vec<bool> = (0..model.zones())
        .map(|z| {
            let g = model.zone_outage(z);
            g > 0.0 && rng.gen_bool(g.min(1.0))
        })
        .collect();
    (0..model.m())
        .map(|i| {
            let id = MachineId::new(i);
            let f = model.machine_fail(id);
            zone_dead[model.zone_of(id)] || (f > 0.0 && rng.gen_bool(f.min(1.0)))
        })
        .collect()
}

fn reference(
    placement: &Placement,
    model: &ReliabilityModel,
    trials: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let m = model.m();
    let n = placement.sets().len();
    let mut alive_counts = vec![0usize; n];
    for _ in 0..trials {
        let dead = sample_dead(model, rng);
        for (j, set) in placement.sets().iter().enumerate() {
            if set.iter(m).any(|id| !dead[id.index()]) {
                alive_counts[j] += 1;
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

/// A probability: exactly 0 a third of the time, exactly 1 a sixth of
/// the time, else uniform.
fn probability() -> impl Strategy<Value = f64> {
    (0usize..6, 0.0f64..1.0).prop_map(|(pick, u)| match pick {
        0 | 1 => 0.0,
        2 => 1.0,
        _ => u,
    })
}

/// A model on `m` machines: each machine in a random one of `zones`
/// zones, and zone 0 always fails when `doomed`.
fn model() -> impl Strategy<Value = ReliabilityModel> {
    (1usize..=130, 1usize..=6, any::<bool>()).prop_flat_map(|(m, zones, doomed)| {
        let zones = zones.min(m);
        (
            prop::collection::vec(probability(), m),
            prop::collection::vec(0..zones, m),
            prop::collection::vec(probability(), zones),
        )
            .prop_map(move |(fail, zone_of, mut zone_fail)| {
                if doomed {
                    zone_fail[0] = 1.0;
                }
                ReliabilityModel::new(fail, zone_of, zone_fail).unwrap()
            })
    })
}

/// A set of the `m` machines in one of the four forms, drawn from
/// `(form, a, b, bits)`.
fn machine_set(m: usize, (form, a, b, bits): (usize, usize, usize, u64)) -> MachineSet {
    let (a, b) = (a % m, b % m);
    match form {
        0 => MachineSet::One(MachineId::new(a)),
        1 => MachineSet::Span {
            start: a.min(b) as u32,
            end: a.max(b) as u32 + 1,
        },
        2 => MachineSet::All,
        _ => {
            // A sparse mask over every word, never empty: machine `i`
            // joins when the 3-bit window of `bits` at `3i mod 64` is 0.
            let mut mask = MachineMask::singleton(m, MachineId::new(a));
            for i in 0..m {
                if bits.rotate_right((3 * i % 64) as u32) & 0b111 == 0 {
                    mask.insert(MachineId::new(i));
                }
            }
            MachineSet::Mask(mask)
        }
    }
}

fn case() -> impl Strategy<Value = (ReliabilityModel, Placement, usize, u64)> {
    (model(), 1usize..=10, 0usize..=120, any::<u64>()).prop_flat_map(|(model, n, trials, seed)| {
        let draw = (0usize..4, any::<usize>(), any::<usize>(), any::<u64>());
        prop::collection::vec(draw, n).prop_map(move |draws| {
            let m = model.m();
            let inst = Instance::from_estimates(&vec![1.0; draws.len()], m).unwrap();
            let sets = draws.into_iter().map(|d| machine_set(m, d)).collect();
            let placement = Placement::new(&inst, sets).unwrap();
            (model.clone(), placement, trials, seed)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn mask_sampler_matches_the_vec_bool_loop((model, placement, trials, seed) in case()) {
        let (mut a, mut b) = (rng(seed), rng(seed));
        let new = monte_carlo_survival(&placement, &model, trials, &mut a);
        let old = reference(&placement, &model, trials, &mut b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&new), bits(&old), "m = {}, trials = {}", model.m(), trials);
        prop_assert_eq!(a.next_u64(), b.next_u64(), "the RNG streams diverged");
    }
}
