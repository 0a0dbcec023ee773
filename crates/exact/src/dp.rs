//! Exact optimal makespan by dynamic programming over task subsets,
//! pruned by its own incumbent.
//!
//! `sum[S]` is the float sum of the times in `S`, and every value the DP
//! returns is one of these table entries. `f_k(S)`, the best makespan of
//! `S` on `k` machines, follows the recurrence
//!
//! `f_1(S) = sum[S]`, `f_k(S) = min max(sum[T], f_{k−1}(S∖T))` over the
//! parts `T ⊆ S` that hold the lowest task of `S`,
//!
//! where fixing the lowest task drops only relabelings of identical
//! machines. Three prunings cut the `3ⁿ` subset pairs per level:
//!
//! - **Incumbent cap.** `ub` is the largest table load of an LPT
//!   partition. A part above `ub` cannot be on an optimal partition, so
//!   only parts with `sum[T] ≤ ub` are tried and `f_1(S)` is ∞ above it.
//!   Parts are grown task by task, so those above the cap are never
//!   enumerated.
//! - **Band.** On an optimal partition's path, level `k` holds `k` parts
//!   and `m − k` parts are already placed, each at most `ub`. So `f_k(S)`
//!   is computed only where `sum[S] ≤ k·ub·(1 + 1e-12)` and
//!   `sum[full∖S] ≤ (m − k)·ub·(1 + 1e-12)`, and is ∞ elsewhere. The
//!   slack is required: a union's table sum can exceed the sum of its
//!   parts' table sums by up to about `n·2⁻⁵³` relative, and without the
//!   slack twelve tasks of 4/3 on six machines lose their optimal path.
//! - **Top level.** `f_m` is evaluated at the full set only.
//!
//! The result is the bit pattern the unpruned recurrence returns: `min`
//! and `max` only select among table entries, so no rounding enters
//! beyond the table, and each pruning keeps at least one optimal
//! partition's path whole (`ub` is attained by a real partition, so the
//! optimum is at most `ub`). Worst case `O(m·3ⁿ)` time and `O(m·2ⁿ)`
//! space, reserved for small `n`.

use rds_core::{Error, MachineId, Result, Time};

/// Hard cap on `n` for the DP (3ⁿ work).
pub const MAX_TASKS: usize = 18;

/// Relative slack on the band's capacity bounds; far above the rounding
/// gap between a union's table sum and its parts' (`n ≤ MAX_TASKS`).
const BAND_SLACK: f64 = 1e-12;

/// Exact optimal makespan and an optimal assignment.
///
/// The makespan is the largest table load of the assignment, where a
/// machine's table load sums its tasks from the highest index down.
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
    let size = 1usize << n;
    let full = size - 1;

    // Subset sums.
    let mut sum = vec![0.0f64; size];
    for s in 1..=full {
        let low = s.trailing_zeros() as usize;
        sum[s] = sum[s & (s - 1)] + times[low].get();
    }

    // Incumbent: LPT on table loads, ties to the lower index and the
    // first least-loaded machine.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| times[b].cmp(&times[a]));
    let mut parts = vec![0usize; m_eff];
    for &j in &order {
        let k = (0..m_eff)
            .min_by(|&a, &b| sum[parts[a]].total_cmp(&sum[parts[b]]))
            .expect("m_eff >= 1");
        parts[k] |= 1 << j;
    }
    let ub = parts.iter().map(|&p| sum[p]).fold(0.0, f64::max);
    // Every part's table sum is at least its longest time (adding
    // non-negative floats never decreases a sum), so `ub` at or below the
    // longest time is optimal.
    let longest = times.iter().map(|t| t.get()).fold(0.0, f64::max);
    if m_eff == 1 || ub <= longest {
        return Ok((finite(ub), assign(n, &parts)));
    }

    // f[(k−1)·size + s] = f_k(s) for k = 1..m_eff−1.
    let mut f = vec![f64::INFINITY; (m_eff - 1) * size];
    let cap = ub * (1.0 + BAND_SLACK);
    for k in 1..m_eff {
        let (lower, upper) = f.split_at_mut((k - 1) * size);
        // The level below; empty for k = 1.
        let prev = &lower[lower.len().saturating_sub(size)..];
        let cur = &mut upper[..size];
        let (inside, placed) = (k as f64 * cap, (m_eff - k) as f64 * cap);
        cur[0] = 0.0;
        for s in 1..=full {
            if sum[s] > inside || sum[full ^ s] > placed {
                continue;
            }
            cur[s] = if k == 1 {
                if sum[s] <= ub {
                    sum[s]
                } else {
                    f64::INFINITY
                }
            } else {
                best_split(s, &sum, prev, ub).0
            };
        }
    }

    // Top level at the full set, then the same split search down the
    // stored levels rebuilds an optimal partition.
    let level = |k: usize| &f[(k - 1) * size..k * size];
    let (best, mut t) = best_split(full, &sum, level(m_eff - 1), ub);
    let mut s = full;
    for k in (1..m_eff).rev() {
        parts[k] = t;
        s ^= t;
        t = if k == 1 {
            s
        } else {
            best_split(s, &sum, level(k - 1), ub).1
        };
    }
    parts[0] = t;
    Ok((finite(best), assign(n, &parts)))
}

/// The best split of `s` at some level `k ≥ 2`, given `prev` = `f_{k−1}`:
/// `(min max(sum[T], prev[s∖T]), T)` over the parts `T ⊆ s` that hold
/// the lowest task of `s` and have `sum[T] ≤ ub`. The value is ∞ when no
/// such part leads to a finite state, and `(0, 0)` for the empty set.
///
/// Parts grow from the lowest task by adding tasks of `s` in increasing
/// index order, depth first. A part above `ub`, or not below the best
/// value so far, is not grown: IEEE addition is monotone in each
/// operand, so adding a non-negative time never lowers a table sum, and
/// no superset could qualify or improve.
fn best_split(s: usize, sum: &[f64], prev: &[f64], ub: f64) -> (f64, usize) {
    if s == 0 {
        return (0.0, 0);
    }
    let low = s & s.wrapping_neg();
    // `sum[low] ≤ ub`: the incumbent's part holding `low` sums at least that.
    let (mut best, mut best_t) = (sum[low].max(prev[s ^ low]), low);
    // `stack[d]`: a part and the tasks of `s` above its highest one.
    let mut stack = [(0usize, 0usize); MAX_TASKS];
    stack[0] = (low, s ^ low);
    let mut depth = 0;
    loop {
        let (t, above) = stack[depth];
        if above == 0 {
            if depth == 0 {
                break;
            }
            depth -= 1;
            continue;
        }
        let next = above & above.wrapping_neg();
        stack[depth].1 = above ^ next;
        let grown = t | next;
        if sum[grown] <= ub && sum[grown] < best {
            let cand = sum[grown].max(prev[s ^ grown]);
            if cand < best {
                best = cand;
                best_t = grown;
            }
            depth += 1;
            stack[depth] = (grown, above ^ next);
        }
    }
    (best, best_t)
}

/// Machine `k` runs the tasks in `parts[k]`.
fn assign(n: usize, parts: &[usize]) -> Vec<MachineId> {
    let mut assignment = vec![MachineId::new(0); n];
    for (k, &part) in parts.iter().enumerate() {
        let mut bits = part;
        while bits > 0 {
            assignment[bits.trailing_zeros() as usize] = MachineId::new(k);
            bits &= bits - 1;
        }
    }
    assignment
}

fn finite(makespan: f64) -> Time {
    Time::new(makespan).expect("finite makespan")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> Vec<Time> {
        v.iter().map(|&x| Time::of(x)).collect()
    }

    fn check_assignment(times: &[Time], a: &[MachineId], m: usize, expect: f64) {
        let mut loads = vec![0.0; m];
        for (j, id) in a.iter().enumerate() {
            loads[id.index()] += times[j].get();
        }
        let mk = loads.into_iter().fold(0.0, f64::max);
        assert!(
            (mk - expect).abs() < 1e-9,
            "assignment makespan {mk} != {expect}"
        );
    }

    #[test]
    fn known_optima() {
        let cases: &[(&[f64], usize, f64)] = &[
            (&[3.0, 3.0, 2.0, 2.0, 2.0], 2, 6.0),
            (&[4.0, 3.0, 2.0], 2, 5.0),
            (&[1.0; 7], 2, 4.0),
            (&[5.0, 5.0, 4.0, 4.0, 3.0, 3.0], 3, 8.0),
            (&[10.0, 1.0, 1.0], 3, 10.0),
            (&[6.0], 1, 6.0),
        ];
        for &(raw, m, expect) in cases {
            let t = ts(raw);
            let (mk, a) = optimal(&t, m).unwrap();
            assert!((mk.get() - expect).abs() < 1e-9, "{raw:?} on {m}: {mk}");
            check_assignment(&t, &a, m, mk.get());
        }
    }

    #[test]
    fn more_machines_than_tasks() {
        let t = ts(&[2.0, 3.0]);
        let (mk, a) = optimal(&t, 10).unwrap();
        assert!((mk.get() - 3.0).abs() < 1e-12);
        check_assignment(&t, &a, 10, 3.0);
    }

    #[test]
    fn empty_input() {
        let (mk, a) = optimal(&[], 3).unwrap();
        assert_eq!(mk, Time::ZERO);
        assert!(a.is_empty());
    }

    #[test]
    fn rejects_large_n() {
        let t = ts(&[1.0; MAX_TASKS + 1]);
        assert!(matches!(
            optimal(&t, 2).unwrap_err(),
            Error::ResourceLimit { .. }
        ));
    }

    #[test]
    fn dp_at_least_lower_bound() {
        let t = ts(&[7.0, 5.0, 4.0, 4.0, 3.0, 2.0, 2.0, 1.0]);
        for m in 1..=4 {
            let (mk, _) = optimal(&t, m).unwrap();
            let lb = crate::lower_bounds::combined(&t, m);
            assert!(mk >= lb, "m={m}: {mk} < {lb}");
        }
    }
}
