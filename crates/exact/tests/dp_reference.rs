//! Differential test: the incumbent-pruned subset DP against a verbatim
//! copy of the unpruned `(m−1)·3ⁿ` recurrence it replaced, which is the
//! reference.
//!
//! The pruned DP must return the reference's makespan to the bit, and an
//! assignment on machines `< m` whose largest table load is that
//! makespan. The generators aim at the places where a pruning could cut
//! off every optimal partition: ties with the LPT incumbent (small
//! integers, two values `{α, 1/α}`, all-equal times), part sums that
//! round (a 0.1 grid, `1/α`, reals), zero-length tasks, and `m` from 1
//! to `n + 2`.

use proptest::prelude::*;
use rds_core::Time;
use rds_exact::dp;

/// The subset DP exactly as it was before the incumbent pruning.
mod reference {
    use rds_core::{Error, MachineId, Result, Time};
    use rds_exact::dp::MAX_TASKS;

    /// Exact optimal makespan and an optimal assignment.
    ///
    /// # Errors
    /// Returns [`Error::ResourceLimit`] when `n > MAX_TASKS`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn optimal(times: &[Time], m: usize) -> Result<(Time, Vec<MachineId>)> {
        assert!(m >= 1, "m must be >= 1");
        let n = times.len();
        if n > MAX_TASKS {
            return Err(Error::ResourceLimit {
                what: "dp task count",
            });
        }
        if n == 0 {
            return Ok((Time::ZERO, Vec::new()));
        }
        // More machines than tasks never helps beyond n machines.
        let m_eff = m.min(n);
        let full: usize = (1usize << n) - 1;

        // Subset sums.
        let mut sum = vec![0.0f64; 1 << n];
        for s in 1..=full {
            let low = s.trailing_zeros() as usize;
            sum[s] = sum[s & (s - 1)] + times[low].get();
        }

        // f[s] for the current machine count; choice[k][s] = subset given to
        // machine k when solving s with k+1 machines.
        let mut f: Vec<f64> = sum.clone(); // one machine: makespan = subset sum
        let mut choice: Vec<Vec<usize>> = vec![vec![0; 1 << n]; m_eff];
        for (s, c) in choice[0].iter_mut().enumerate() {
            *c = s; // with one machine, the machine takes everything
        }
        for choice_k in choice.iter_mut().take(m_eff).skip(1) {
            let mut g = vec![f64::INFINITY; 1 << n];
            g[0] = 0.0;
            for s in 1..=full {
                // Iterate over non-empty subsets t of s (the last machine's
                // share); allow empty t implicitly via t = 0 case below.
                let mut best = f[s]; // t = ∅ → last machine idle
                let mut best_t = 0usize;
                let mut t = s;
                while t > 0 {
                    let cand = sum[t].max(f[s & !t]);
                    if cand < best {
                        best = cand;
                        best_t = t;
                    }
                    t = (t - 1) & s;
                }
                g[s] = best;
                choice_k[s] = best_t;
            }
            f = g;
        }

        // Reconstruct.
        let mut assignment = vec![MachineId::new(0); n];
        let mut s = full;
        for k in (0..m_eff).rev() {
            let t = choice[k][s];
            let mut bits = t;
            while bits > 0 {
                let j = bits.trailing_zeros() as usize;
                assignment[j] = MachineId::new(k);
                bits &= bits - 1;
            }
            s &= !t;
        }
        debug_assert_eq!(s, 0, "all tasks assigned");
        let makespan = Time::new(f[full]).expect("finite makespan");
        Ok((makespan, assignment))
    }
}

/// A machine's table load as the DP sums it: tasks from the highest
/// index down, starting at zero.
fn largest_table_load(times: &[Time], assignment: &[rds_core::MachineId], m: usize) -> f64 {
    let mut loads = vec![0.0f64; m];
    for j in (0..times.len()).rev() {
        loads[assignment[j].index()] += times[j].get();
    }
    loads.into_iter().fold(0.0, f64::max)
}

fn assert_matches_reference(times: &[Time], m: usize) {
    let (mk, assignment) = dp::optimal(times, m).unwrap();
    let (want, _) = reference::optimal(times, m).unwrap();
    let raw: Vec<f64> = times.iter().map(|t| t.get()).collect();
    assert_eq!(
        mk.get().to_bits(),
        want.get().to_bits(),
        "makespan {mk} vs {want} on {raw:?}, m={m}"
    );
    assert_eq!(assignment.len(), times.len());
    assert!(
        assignment.iter().all(|id| id.index() < m),
        "machine out of range in {assignment:?}, m={m}"
    );
    assert_eq!(
        largest_table_load(times, &assignment, m).to_bits(),
        mk.get().to_bits(),
        "assignment {assignment:?} does not attain {mk} on {raw:?}, m={m}"
    );
}

/// Up to 12 task times in one of six shapes, and `m` in `1..=n + 2`:
/// uniform reals, integers 1–5, the two values `{α, 1/α}`, a 0.1 grid,
/// all-equal times, and reals with about a third zeros.
fn instance() -> impl Strategy<Value = (Vec<Time>, usize)> {
    (
        prop::collection::vec(0.0f64..1.0, 0..=12),
        0usize..6,
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(u, shape, v, w)| {
            let alpha = [1.1, 1.5, 2.0, 3.0][(4.0 * v) as usize % 4];
            let times = u
                .iter()
                .map(|&x| {
                    Time::of(match shape {
                        0 => 0.1 + 49.9 * x,
                        1 => 1.0 + (5.0 * x).floor(),
                        2 if x < 0.5 => alpha,
                        2 => 1.0 / alpha,
                        3 => 0.1 * (1.0 + (30.0 * x).floor()),
                        4 => 0.1 + 9.9 * v,
                        _ if x < 0.3 => 0.0,
                        _ => 20.0 * (x - 0.3),
                    })
                })
                .collect::<Vec<_>>();
            let m = 1 + ((w * (times.len() + 2) as f64) as usize).min(times.len() + 1);
            (times, m)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn pruned_dp_matches_the_unpruned_recurrence((times, m) in instance()) {
        assert_matches_reference(&times, m);
    }
}

#[test]
fn known_tight_inputs_match() {
    let ts = |v: &[f64]| v.iter().map(|&x| Time::of(x)).collect::<Vec<_>>();
    let cases = [
        // Equal parts: ten 4/3 sum to one step above five times the sum
        // of two, so the band needs its slack.
        (ts(&[4.0 / 3.0; 12]), 6),
        // LPT is optimal, so the best parts tie with the incumbent.
        (ts(&[1.0; 7]), 3),
        // LPT is not (7 against 6).
        (ts(&[3.0, 3.0, 2.0, 2.0, 2.0]), 2),
        // The Theorem-1 adversary shape at α = 1.5.
        (
            (0..10)
                .map(|j| Time::of(if j < 4 { 1.5 } else { 1.0 / 1.5 }))
                .collect(),
            5,
        ),
        // Zero-length tasks and more machines than tasks.
        (ts(&[0.0, 2.5, 0.0, 1.5]), 6),
        (ts(&[0.0; 5]), 2),
    ];
    for (times, m) in cases {
        assert_matches_reference(&times, m);
    }
}
