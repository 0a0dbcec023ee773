//! Hochbaum–Shmoys style dual approximation (the "arbitrarily good"
//! approximation cited in the paper's related work).
//!
//! A *dual ρ-approximation* takes a makespan target `C` and either proves
//! `C < C*` or produces a schedule of makespan at most `ρ·C`. Binary
//! searching `C` then brackets `C*` within a factor `ρ = 1 + ε`.
//!
//! Feasibility test for a target `C` with precision `ε`: round every task
//! with `p_j > ε·C` down to a multiple of `ε²·C` and decide packing of
//! the rounded big tasks into bins of capacity `C` exactly by search over
//! rounded-size multisets (at most `⌈1/ε²⌉` distinct sizes); small tasks
//! are greedily poured on top up to `(1 + ε)·C`.
//!
//! The exact multiset search is exponential in the worst case, so it runs
//! under a node budget: when the budget trips, the search aborts and the
//! caller keeps the bracket certified so far (the combinatorial lower
//! bound and the Graham `2·LB` upper bound are always valid).

use crate::lower_bounds;
use rds_core::{Error, Result, Time};
use std::collections::HashMap;

/// Result of the dual-approximation bracket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracket {
    /// Proven lower bound on `C*`.
    pub lo: Time,
    /// Achievable makespan (a real schedule exists at this value),
    /// hence an upper bound on `C*` within the advertised factor.
    pub hi: Time,
}

/// Resource limits for the exact big-task packing search.
const MAX_BIG: usize = 72;
const MAX_CLASSES: usize = 40;
const MAX_NODES: u64 = 400_000;

struct Budget {
    nodes: u64,
    aborted: bool,
}

impl Budget {
    fn tick(&mut self) -> bool {
        self.nodes += 1;
        if self.nodes > MAX_NODES {
            self.aborted = true;
        }
        !self.aborted
    }
}

/// Decides whether the tasks pack into `m` bins of capacity `(1+ε)·c`
/// (`Some(true)`), provably cannot fit in capacity `c` (`Some(false)`),
/// or the search exceeded its budget (`None`).
fn feasible(times_desc: &[Time], m: usize, c: f64, eps: f64) -> Option<bool> {
    debug_assert!(c > 0.0);
    let small_cut = eps * c;
    let big: Vec<f64> = times_desc
        .iter()
        .map(|t| t.get())
        .filter(|&p| p > small_cut)
        .collect();
    let small_sum: f64 = times_desc
        .iter()
        .map(|t| t.get())
        .filter(|&p| p <= small_cut)
        .sum();
    if big.iter().any(|&p| p > c) {
        return Some(false);
    }
    if big.len() > MAX_BIG {
        return None;
    }
    // Round big tasks down to multiples of ε²·c → at most 1/ε² classes.
    let quantum = eps * eps * c;
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for &p in &big {
        let class = (p / quantum).floor() as u32;
        *counts.entry(class).or_insert(0) += 1;
    }
    let classes: Vec<(u32, u32)> = {
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_unstable();
        v
    };
    if classes.len() > MAX_CLASSES {
        return None;
    }
    if classes.is_empty() {
        // Only small tasks: greedy pouring into (1+ε)c bins wastes less
        // than ε·c per bin, so volume is the only constraint at cap c.
        return Some(small_sum <= m as f64 * c);
    }
    let cap_units = (c / quantum).floor() as u32;

    // Enumerate bin configurations (class multisets fitting in cap_units).
    let mut configs: Vec<Vec<u32>> = Vec::new();
    let mut cur = vec![0u32; classes.len()];
    let mut budget = Budget {
        nodes: 0,
        aborted: false,
    };
    enumerate_configs(&classes, cap_units, 0, &mut cur, &mut configs, &mut budget);
    if budget.aborted {
        return None;
    }
    configs.retain(|cfg| cfg.iter().any(|&x| x > 0));
    if configs.is_empty() {
        return Some(false); // some big class does not fit at all
    }

    let target: Vec<u32> = classes.iter().map(|&(_, n)| n).collect();
    let mut memo: HashMap<Vec<u32>, u32> = HashMap::new();
    let bins_needed = min_bins(&target, &configs, &mut memo, m as u32 + 1, &mut budget);
    if budget.aborted {
        return None;
    }
    if bins_needed > m as u32 {
        return Some(false);
    }
    // Big tasks fit into ≤ m bins of capacity c on rounded sizes; true
    // sizes exceed rounded ones by < ε²·c each and a bin holds ≤ 1/ε big
    // tasks, so the true overflow is < ε·c — inside the (1+ε)c slack.
    // Pour small tasks into the remaining volume across all m bins.
    let big_sum: f64 = big.iter().sum();
    Some(big_sum + small_sum <= m as f64 * (1.0 + eps) * c)
}

/// Recursively enumerates class multisets fitting in `cap_units`.
fn enumerate_configs(
    classes: &[(u32, u32)],
    cap_units: u32,
    idx: usize,
    cur: &mut Vec<u32>,
    out: &mut Vec<Vec<u32>>,
    budget: &mut Budget,
) {
    if !budget.tick() {
        return;
    }
    if idx == classes.len() {
        out.push(cur.clone());
        return;
    }
    let (class_size, avail) = classes[idx];
    let used: u32 = classes[..idx]
        .iter()
        .zip(cur.iter())
        .map(|(&(sz, _), &cnt)| sz * cnt)
        .sum();
    let room = cap_units.saturating_sub(used);
    // p < ε²c rounds to 0 units and always fits.
    let max_here = room.checked_div(class_size).unwrap_or(avail).min(avail);
    for take in 0..=max_here {
        cur[idx] = take;
        enumerate_configs(classes, cap_units, idx + 1, cur, out, budget);
        if budget.aborted {
            break;
        }
    }
    cur[idx] = 0;
}

/// Minimal number of bins covering `remaining`, or `cutoff` if ≥ cutoff.
fn min_bins(
    remaining: &[u32],
    configs: &[Vec<u32>],
    memo: &mut HashMap<Vec<u32>, u32>,
    cutoff: u32,
    budget: &mut Budget,
) -> u32 {
    if remaining.iter().all(|&x| x == 0) {
        return 0;
    }
    if !budget.tick() {
        return cutoff;
    }
    if let Some(&v) = memo.get(remaining) {
        return v;
    }
    let mut best = cutoff;
    for cfg in configs {
        let next: Vec<u32> = remaining
            .iter()
            .zip(cfg)
            .map(|(&r, &c)| r.saturating_sub(c))
            .collect();
        if next == remaining {
            continue; // config consumed nothing
        }
        if best <= 1 {
            break;
        }
        let sub = min_bins(&next, configs, memo, best - 1, budget);
        best = best.min(1 + sub);
        if budget.aborted {
            return best;
        }
    }
    memo.insert(remaining.to_vec(), best);
    best
}

/// Brackets `C*` within a factor around `1 + ε` by binary search on the
/// dual test. Starts from the always-valid bracket
/// `[combined lower bound, 2·LB]` (List Scheduling achieves
/// `avg + p_max ≤ 2·LB`), then tightens both sides as far as the search
/// budget allows. The returned bracket is always certified; only its
/// width depends on the budget.
///
/// # Errors
/// Returns [`Error::InvalidParameter`] unless `0 < eps <= 0.5`.
///
/// # Panics
/// Panics if `m == 0`.
pub fn bracket(times: &[Time], m: usize, eps: f64) -> Result<Bracket> {
    assert!(m >= 1, "m must be >= 1");
    let desc = lower_bounds::sorted_desc(times);
    bracket_sorted(
        &desc,
        m,
        eps,
        lower_bounds::combined_sorted(times, &desc, m),
    )
}

/// [`bracket`] on `desc`, the times sorted non-increasing, from `lb`,
/// their [`lower_bounds::combined`] bound: the caller sorts once for
/// both.
pub(crate) fn bracket_sorted(desc: &[Time], m: usize, eps: f64, lb: Time) -> Result<Bracket> {
    if !(eps > 0.0 && eps <= 0.5) {
        return Err(Error::InvalidParameter {
            what: "dual approximation epsilon must be in (0, 0.5]",
        });
    }
    if lb.is_zero() {
        return Ok(Bracket {
            lo: Time::ZERO,
            hi: Time::ZERO,
        });
    }

    // Always-valid initial bracket: C* ∈ [lb, 2·lb].
    let mut lo = lb.get();
    // `hi_pack` tracks the best capacity whose (1+ε)-relaxed packing is
    // certified; starts at 2·lb where plain List Scheduling already fits
    // without relaxation.
    let mut hi_sched = 2.0 * lb.get(); // certified achievable makespan
    let mut hi_pack = 2.0 * lb.get();
    while hi_pack - lo > eps * lo {
        let mid = 0.5 * (lo + hi_pack);
        match feasible(desc, m, mid, eps) {
            Some(true) => {
                hi_pack = mid;
                hi_sched = hi_sched.min(mid * (1.0 + eps));
            }
            Some(false) => lo = mid,
            None => break, // budget: keep the certified bracket
        }
    }
    Ok(Bracket {
        lo: Time::of(lo),
        hi: Time::of(hi_sched.max(lo)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> Vec<Time> {
        v.iter().map(|&x| Time::of(x)).collect()
    }

    #[test]
    fn bracket_contains_known_optimum() {
        let cases: &[(&[f64], usize, f64)] = &[
            (&[3.0, 3.0, 2.0, 2.0, 2.0], 2, 6.0),
            (&[4.0, 3.0, 2.0], 2, 5.0),
            (&[1.0; 7], 2, 4.0),
            (&[5.0, 5.0, 4.0, 4.0, 3.0, 3.0], 3, 8.0),
        ];
        for &(raw, m, opt) in cases {
            let t = ts(raw);
            for &eps in &[0.5, 0.25, 0.1] {
                let b = bracket(&t, m, eps).unwrap();
                assert!(
                    b.lo.get() <= opt + 1e-9,
                    "{raw:?} m={m} eps={eps}: lo {} > opt {opt}",
                    b.lo
                );
                assert!(
                    b.hi.get() >= opt - 1e-9,
                    "{raw:?} m={m} eps={eps}: hi {} < opt {opt}",
                    b.hi
                );
            }
        }
    }

    #[test]
    fn tighter_eps_gives_tighter_bracket() {
        let t = ts(&[9.0, 8.0, 7.5, 6.0, 5.5, 4.0, 3.0, 2.5, 2.0, 1.0]);
        let wide = bracket(&t, 3, 0.5).unwrap();
        let tight = bracket(&t, 3, 0.05).unwrap();
        let w1 = wide.hi.get() / wide.lo.get();
        let w2 = tight.hi.get() / tight.lo.get();
        assert!(w2 <= w1 + 1e-9, "w1={w1} w2={w2}");
        assert!(w2 <= 1.3, "w2={w2}");
    }

    #[test]
    fn zero_instance() {
        let b = bracket(&ts(&[0.0, 0.0]), 2, 0.2).unwrap();
        assert_eq!(b.lo, Time::ZERO);
        assert_eq!(b.hi, Time::ZERO);
    }

    #[test]
    fn rejects_bad_eps() {
        assert!(bracket(&ts(&[1.0]), 1, 0.0).is_err());
        assert!(bracket(&ts(&[1.0]), 1, 0.9).is_err());
    }

    #[test]
    fn many_small_tasks() {
        // 100 tasks of 0.01 on 4 machines: C* = 0.25.
        let t = ts(&[0.01; 100]);
        let b = bracket(&t, 4, 0.1).unwrap();
        assert!(b.lo.get() <= 0.25 + 1e-9);
        assert!(b.hi.get() >= 0.25 - 1e-9);
    }

    #[test]
    fn huge_instance_stays_within_budget_and_certified() {
        // The search must degrade gracefully (no blow-up) and still
        // return a valid bracket on a 500-big-task instance.
        let raw: Vec<f64> = (0..500).map(|i| ((i * 7919) % 100 + 50) as f64).collect();
        let t = ts(&raw);
        let b = bracket(&t, 16, 0.1).unwrap();
        let lb = crate::lower_bounds::combined(&t, 16);
        assert!(b.lo >= lb);
        assert!(b.hi.get() <= 2.0 * lb.get() * (1.0 + 0.1) + 1e-9);
        assert!(b.lo <= b.hi);
    }

    #[test]
    fn bracket_monotone_consistency_random() {
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 30) as f64 + 1.0
        };
        for trial in 0..10 {
            let n = 9 + trial % 4;
            let m = 2 + trial % 3;
            let t = ts(&(0..n).map(|_| next()).collect::<Vec<_>>());
            let truth = crate::dp::optimal(&t, m).unwrap().0;
            let b = bracket(&t, m, 0.2).unwrap();
            assert!(b.lo.get() <= truth.get() + 1e-9, "trial {trial}");
            assert!(b.hi.get() >= truth.get() - 1e-9, "trial {trial}");
        }
    }
}
