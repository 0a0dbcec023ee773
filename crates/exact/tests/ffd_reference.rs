//! Differential test: FFD and MULTIFIT against a verbatim copy of the
//! linear-scan implementation they replaced, which is the reference.
//!
//! The tournament-tree FFD must pick exactly the bin the linear scan
//! picks for every task, so every packing, `bins_needed` and MULTIFIT
//! makespan has to match to the bit. The generators aim at the places
//! where the two could part: ties and zero-length tasks, `m = 1`, `m`
//! not a power of two, fewer tasks than bins, and capacities at the
//! MULTIFIT makespan (the exact-fit boundary), below the longest task,
//! and where every bin opens and still overflows.

use proptest::prelude::*;
use rds_core::{MachineId, Time};
use rds_exact::bin_packing::{first_fit_decreasing, multifit, FfdResult};
use rds_exact::lower_bounds;

/// The linear-scan FFD and MULTIFIT, and the lower bounds MULTIFIT
/// starts from, exactly as they were before the tournament tree.
mod reference {
    use super::*;

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
        if times.len() <= m {
            return Time::ZERO;
        }
        let mut sorted: Vec<Time> = times.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted[m - 1] + sorted[m]
    }

    /// k-th slice bound, generalizing [`pair_bound`]: for any `h ≥ 1`, if
    /// `n > h·m` then some machine runs `h + 1` of the `h·m + 1` longest
    /// tasks, so `C* ≥ Σ_{i=0..h} p_(h·m + 1 − i·m)`-style sums. We use the
    /// simplest strong version: `C* ≥ (h+1)·p_(h·m+1)` — the `h·m + 1`
    /// longest tasks pigeonhole `h + 1` onto one machine, each at least as
    /// long as the `(h·m+1)`-th. Maximized over all valid `h`.
    pub fn slice_bound(times: &[Time], m: usize) -> Time {
        assert!(m >= 1, "m must be >= 1");
        let mut sorted: Vec<Time> = times.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
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

    /// The combined bound: the maximum of all of the above.
    pub fn combined(times: &[Time], m: usize) -> Time {
        average_load(times, m)
            .max(longest_task(times))
            .max(pair_bound(times, m))
            .max(slice_bound(times, m))
    }

    /// Packs `times` into at most `m` bins of capacity `cap` with First Fit
    /// Decreasing. A small relative tolerance absorbs floating-point fuzz at
    /// exact-fit boundaries.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn first_fit_decreasing(times: &[Time], m: usize, cap: Time) -> FfdResult {
        assert!(m >= 1, "m must be >= 1");
        let tol = 1e-12 * cap.get().max(1.0);
        let mut order: Vec<usize> = (0..times.len()).collect();
        order.sort_by(|&a, &b| times[b].cmp(&times[a]).then(a.cmp(&b)));

        let mut loads: Vec<f64> = Vec::with_capacity(m);
        let mut assignment = vec![MachineId::new(0); times.len()];
        let mut overflow_bins = 0usize;
        for &j in &order {
            let p = times[j].get();
            match loads.iter().position(|&load| load + p <= cap.get() + tol) {
                Some(bin) => {
                    loads[bin] += p;
                    assignment[j] = MachineId::new(bin);
                }
                None if loads.len() < m => {
                    if p > cap.get() + tol {
                        // The task alone exceeds the capacity: unpackable.
                        return FfdResult::Overflow {
                            bins_needed: usize::MAX,
                        };
                    }
                    assignment[j] = MachineId::new(loads.len());
                    loads.push(p);
                }
                None => {
                    overflow_bins += 1;
                }
            }
        }
        if overflow_bins == 0 {
            FfdResult::Packed(assignment)
        } else {
            FfdResult::Overflow {
                bins_needed: m + overflow_bins,
            }
        }
    }

    /// MULTIFIT (Coffman, Garey & Johnson): binary search the capacity with
    /// FFD as the feasibility oracle. Returns `(capacity, assignment)` of the
    /// best packing found. The resulting makespan is at most `13/11 · C*`.
    ///
    /// # Panics
    /// Panics if `m == 0` or `iterations == 0`.
    pub fn multifit(times: &[Time], m: usize, iterations: usize) -> (Time, Vec<MachineId>) {
        assert!(m >= 1 && iterations >= 1);
        let lb = combined(times, m);
        // Upper start: an LPT-like bound — avg·2 + pmax always packs.
        let mut hi = (average_load(times, m) * 2.0)
            .max(longest_task(times))
            .max(Time::of(1e-12));
        let mut lo = lb;
        // Ensure hi is genuinely feasible before the search.
        let mut best = loop {
            match first_fit_decreasing(times, m, hi) {
                FfdResult::Packed(a) => break (hi, a),
                FfdResult::Overflow { .. } => hi = hi * 2.0,
            }
        };
        for _ in 0..iterations {
            let mid = (lo + best.0) / 2.0;
            match first_fit_decreasing(times, m, mid) {
                FfdResult::Packed(a) => {
                    best = (mid, a);
                }
                FfdResult::Overflow { .. } => lo = mid,
            }
            if (best.0 - lo).get() <= 1e-12 * best.0.get().max(1.0) {
                break;
            }
        }
        // Tighten the reported capacity to the actual max bin load.
        let mut loads = vec![Time::ZERO; m];
        for (j, &bin) in best.1.iter().enumerate() {
            loads[bin.index()] += times[j];
        }
        let makespan = loads.into_iter().max().unwrap_or(Time::ZERO);
        (makespan, best.1)
    }
}

/// Task times: zero, a small integer (ties and exact fits) or a real,
/// all scaled by one per-instance magnitude so the packing tolerance is
/// exercised both absolute (capacities below 1) and relative. `n` runs
/// from 0 to 64 and `m` from 1 to 24, so `n < m` is common.
fn instance() -> impl Strategy<Value = (Vec<Time>, usize)> {
    (
        prop::collection::vec((0u32..8, 1u32..7, 0.0f64..10.0), 0..=64),
        1usize..=24,
        0usize..3,
    )
        .prop_map(|(raw, m, scale)| {
            let scale = [1e-3, 1.0, 1e6][scale];
            let times = raw
                .into_iter()
                .map(|(kind, int, real)| {
                    Time::of(
                        scale
                            * match kind {
                                0 => 0.0,
                                1..=3 => f64::from(int),
                                _ => real,
                            },
                    )
                })
                .collect();
            (times, m)
        })
}

/// FFD's slack at capacity `cap`, as both implementations compute it.
fn tolerance(cap: f64) -> f64 {
    1e-12 * cap.max(1.0)
}

/// A capacity whose slackened limit `cap + tolerance(cap)` is exactly
/// `target`, if a float near `target` has one: packing there puts some
/// `load + p` exactly on the limit.
fn capacity_with_limit(target: f64) -> Option<f64> {
    let mut cap = target - tolerance(target);
    for _ in 0..8 {
        cap = cap.next_down();
    }
    (0..16)
        .map(|_| {
            cap = cap.next_up();
            cap
        })
        .find(|&c| c >= 0.0 && c + tolerance(c) == target)
}

/// Capacities to pack `times` at:
/// - the MULTIFIT makespan (the exact-fit boundary), the floats either
///   side of it, and capacities just inside and just outside its
///   tolerance band;
/// - capacities whose slackened limit lands exactly on the makespan or
///   on the longest task;
/// - the lower bounds;
/// - a fraction `u` of the longest task;
/// - a capacity between the longest task and the average load, where
///   every bin opens and FFD still overflows;
/// - a random share of the total.
fn capacities(times: &[Time], m: usize, u: f64) -> Vec<Time> {
    let mf = reference::multifit(times, m, 40).0.get();
    let longest = reference::longest_task(times).get();
    let avg = reference::average_load(times, m).get();
    let total: f64 = times.iter().map(|t| t.get()).sum();
    let mut caps = vec![
        mf,
        mf.next_up(),
        mf.next_down(),
        mf - 0.5 * tolerance(mf),
        mf - 2.0 * tolerance(mf),
        reference::combined(times, m).get(),
        avg,
        longest * u,
        total * u * 1.5,
    ];
    caps.extend(capacity_with_limit(mf));
    caps.extend(capacity_with_limit(longest));
    if longest < avg {
        caps.push(longest + (avg - longest) * u);
    }
    caps.into_iter().map(|c| Time::of(c.max(0.0))).collect()
}

fn assert_multifit_matches(times: &[Time], m: usize, iterations: usize) {
    let (mk, assign) = multifit(times, m, iterations);
    let (want_mk, want_assign) = reference::multifit(times, m, iterations);
    assert_eq!(
        mk.get().to_bits(),
        want_mk.get().to_bits(),
        "makespan {mk} vs {want_mk} (n={}, m={m})",
        times.len()
    );
    assert_eq!(assign, want_assign, "assignment (n={}, m={m})", times.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn ffd_matches_linear_scan((times, m) in instance(), u in 0.0f64..1.0) {
        for cap in capacities(&times, m, u) {
            prop_assert_eq!(
                first_fit_decreasing(&times, m, cap),
                reference::first_fit_decreasing(&times, m, cap),
                "cap {} on {:?}, m={}", cap, times, m
            );
        }
    }

    #[test]
    fn multifit_matches_linear_scan((times, m) in instance(), iterations in 1usize..=40) {
        assert_multifit_matches(&times, m, iterations);
    }

    #[test]
    fn lower_bounds_match_two_sort_versions((times, m) in instance()) {
        let bits = |t: Time| t.get().to_bits();
        prop_assert_eq!(
            bits(lower_bounds::pair_bound(&times, m)),
            bits(reference::pair_bound(&times, m))
        );
        prop_assert_eq!(
            bits(lower_bounds::slice_bound(&times, m)),
            bits(reference::slice_bound(&times, m))
        );
        prop_assert_eq!(
            bits(lower_bounds::combined(&times, m)),
            bits(reference::combined(&times, m))
        );
    }
}

#[test]
fn every_ffd_outcome_matches() {
    let ts = |v: &[f64]| v.iter().map(|&x| Time::of(x)).collect::<Vec<_>>();
    let bins = |v: &[usize]| v.iter().map(|&b| MachineId::new(b)).collect();
    let cases = [
        // Exact fit: 4 + 2 and 3 + 3.
        (
            ts(&[4.0, 3.0, 3.0, 2.0]),
            2,
            6.0,
            FfdResult::Packed(bins(&[0, 1, 1, 0])),
        ),
        // A task longer than the capacity.
        (
            ts(&[5.0, 1.0]),
            3,
            4.0,
            FfdResult::Overflow {
                bins_needed: usize::MAX,
            },
        ),
        // Every bin open, seven tasks left over.
        (
            ts(&[3.0; 10]),
            3,
            4.0,
            FfdResult::Overflow { bins_needed: 10 },
        ),
    ];
    for (times, m, cap, want) in cases {
        let cap = Time::of(cap);
        assert_eq!(reference::first_fit_decreasing(&times, m, cap), want);
        assert_eq!(first_fit_decreasing(&times, m, cap), want);
    }
}

#[test]
fn multifit_matches_at_sweep_scale() {
    // Larger and deeper trees than the proptest reaches, including the
    // sweep's m = 256 and a non-power-of-two m either side of it.
    let mut seed = 11u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    for (n, m) in [(2000, 100), (2000, 255), (3000, 256), (1500, 257)] {
        let times: Vec<Time> = (0..n).map(|_| Time::of(1.0 + 14.0 * next())).collect();
        assert_multifit_matches(&times, m, 40);
    }
}
