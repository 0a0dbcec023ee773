//! Combinatorial lower bounds on the optimal makespan `C*_max`.
//!
//! These are valid for *any* schedule of the given processing times on
//! `m` identical machines, and are the yardsticks every guarantee proof
//! in the paper leans on.

use rds_core::Time;

/// Average-load bound: `C* ≥ Σ p_j / m` (pigeonhole).
pub fn average_load(times: &[Time], m: usize) -> Time {
    assert!(m >= 1, "m must be >= 1");
    times.iter().copied().sum::<Time>() / m as f64
}

/// Longest-task bound: `C* ≥ max_j p_j`.
pub fn longest_task(times: &[Time]) -> Time {
    times.iter().copied().max().unwrap_or(Time::ZERO)
}

/// Pairing bound: when `n > m`, at least one machine runs two of the
/// `m + 1` longest tasks, so `C* ≥ p_(m) + p_(m+1)` (1-indexed, sorted
/// non-increasing). Returns zero when `n ≤ m`.
pub fn pair_bound(times: &[Time], m: usize) -> Time {
    assert!(m >= 1, "m must be >= 1");
    pair_of_sorted(&sorted_desc(times), m)
}

/// k-th slice bound, generalizing [`pair_bound`]: for any `h ≥ 1`, if
/// `n > h·m` then some machine runs `h + 1` of the `h·m + 1` longest
/// tasks, so `C* ≥ Σ_{i=0..h} p_(h·m + 1 − i·m)`-style sums. We use the
/// simplest strong version: `C* ≥ (h+1)·p_(h·m+1)` — the `h·m + 1`
/// longest tasks pigeonhole `h + 1` onto one machine, each at least as
/// long as the `(h·m+1)`-th. Maximized over all valid `h`.
pub fn slice_bound(times: &[Time], m: usize) -> Time {
    assert!(m >= 1, "m must be >= 1");
    slice_of_sorted(&sorted_desc(times), m)
}

/// The combined bound: the maximum of all of the above.
pub fn combined(times: &[Time], m: usize) -> Time {
    combined_sorted(times, &sorted_desc(times), m)
}

/// [`combined`], given `sorted`: `times` sorted non-increasing. One
/// sorted copy serves both order-statistic bounds (and, through the
/// solver, the dual-approximation search). The average keeps summing
/// `times` in input order: a sorted sum can differ in the last bit.
pub(crate) fn combined_sorted(times: &[Time], sorted: &[Time], m: usize) -> Time {
    average_load(times, m)
        .max(longest_task(times))
        .max(pair_of_sorted(sorted, m))
        .max(slice_of_sorted(sorted, m))
}

/// A copy of `times` sorted non-increasing.
pub(crate) fn sorted_desc(times: &[Time]) -> Vec<Time> {
    let mut sorted = times.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted
}

/// [`pair_bound`] on times already sorted non-increasing.
fn pair_of_sorted(sorted: &[Time], m: usize) -> Time {
    if sorted.len() <= m {
        return Time::ZERO;
    }
    sorted[m - 1] + sorted[m]
}

/// [`slice_bound`] on times already sorted non-increasing.
fn slice_of_sorted(sorted: &[Time], m: usize) -> Time {
    let mut best = Time::ZERO;
    let mut h = 1usize;
    while h * m < sorted.len() {
        // sorted[h*m] is the (h·m + 1)-th longest (0-indexed).
        let candidate = sorted[h * m] * (h + 1) as f64;
        best = best.max(candidate);
        h += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> Vec<Time> {
        v.iter().map(|&x| Time::of(x)).collect()
    }

    #[test]
    fn average_and_longest() {
        let t = ts(&[3.0, 1.0, 2.0]);
        assert_eq!(average_load(&t, 2), Time::of(3.0));
        assert_eq!(longest_task(&t), Time::of(3.0));
        assert_eq!(longest_task(&[]), Time::ZERO);
    }

    #[test]
    fn pair_bound_requires_overflow() {
        let t = ts(&[5.0, 4.0, 3.0]);
        // n = m: no machine needs two tasks.
        assert_eq!(pair_bound(&t, 3), Time::ZERO);
        // m = 2: the 2nd and 3rd longest must share → 4 + 3.
        assert_eq!(pair_bound(&t, 2), Time::of(7.0));
        // m = 1: everything shares; bound is top two = 9.
        assert_eq!(pair_bound(&t, 1), Time::of(9.0));
    }

    #[test]
    fn slice_bound_catches_many_medium_tasks() {
        // 7 equal tasks of 1 on 2 machines: some machine gets 4 → C* ≥ 4.
        let t = ts(&[1.0; 7]);
        assert_eq!(slice_bound(&t, 2), Time::of(4.0));
        // average gives only 3.5; combined picks 4.
        assert_eq!(combined(&t, 2), Time::of(4.0));
    }

    #[test]
    fn combined_is_max_of_parts() {
        let t = ts(&[10.0, 1.0, 1.0]);
        // longest (10) dominates avg (6) and pair (2).
        assert_eq!(combined(&t, 2), Time::of(10.0));
    }

    #[test]
    fn bounds_never_exceed_true_optimum_small_cases() {
        // Brute force tiny instances and compare.
        let cases: &[(&[f64], usize, f64)] = &[
            (&[3.0, 3.0, 2.0, 2.0, 2.0], 2, 6.0),
            (&[4.0, 3.0, 2.0], 2, 5.0),
            (&[1.0, 1.0, 1.0, 1.0], 4, 1.0),
            (&[7.0], 3, 7.0),
        ];
        for &(raw, m, opt) in cases {
            let t = ts(raw);
            let c = combined(&t, m);
            assert!(
                c.get() <= opt + 1e-9,
                "combined {c} exceeds optimum {opt} for {raw:?} on {m}"
            );
        }
    }
}
