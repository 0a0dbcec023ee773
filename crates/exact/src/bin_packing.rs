//! First Fit Decreasing bin packing — the engine behind MULTIFIT and the
//! Hochbaum–Shmoys dual-approximation scheme.
//!
//! Scheduling with a makespan target `C` is bin packing with bin capacity
//! `C`: the schedule fits on `m` machines iff the tasks pack into `m`
//! bins.

use rds_core::{MachineId, Time};

/// Outcome of an FFD packing attempt against `m` bins of capacity `cap`.
#[derive(Debug, Clone, PartialEq)]
pub enum FfdResult {
    /// Everything packed; the per-task bin assignment (indexed by the
    /// position in the *input* slice).
    Packed(Vec<MachineId>),
    /// FFD needed more than `m` bins. This does **not** prove that no
    /// packing exists — FFD is a heuristic.
    Overflow {
        /// Number of bins FFD would have needed.
        bins_needed: usize,
    },
}

/// Packs `times` into at most `m` bins of capacity `cap` with First Fit
/// Decreasing. A small relative tolerance absorbs floating-point fuzz at
/// exact-fit boundaries.
///
/// # Panics
/// Panics if `m == 0`.
pub fn first_fit_decreasing(times: &[Time], m: usize, cap: Time) -> FfdResult {
    assert!(m >= 1, "m must be >= 1");
    let order = decreasing(times);
    let mut assignment = vec![MachineId::new(0); times.len()];
    match ffd_pass(&order, cap, &mut MinLoadTree::new(m), &mut assignment) {
        Ok(()) => FfdResult::Packed(assignment),
        Err(bins_needed) => FfdResult::Overflow { bins_needed },
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
    let lb = crate::lower_bounds::combined(times, m);
    // Upper start: an LPT-like bound — avg·2 + pmax always packs.
    let mut hi = (crate::lower_bounds::average_load(times, m) * 2.0)
        .max(crate::lower_bounds::longest_task(times))
        .max(Time::of(1e-12));
    let mut lo = lb;
    // Every pass packs the same order into the same bins; only the
    // capacity changes, so sort once and reuse the buffers.
    let order = decreasing(times);
    let mut bins = MinLoadTree::new(m);
    let mut best = vec![MachineId::new(0); times.len()];
    let mut attempt = best.clone();
    // Ensure hi is genuinely feasible before the search.
    while ffd_pass(&order, hi, &mut bins, &mut best).is_err() {
        hi = hi * 2.0;
    }
    for _ in 0..iterations {
        let mid = (lo + hi) / 2.0;
        if ffd_pass(&order, mid, &mut bins, &mut attempt).is_ok() {
            hi = mid;
            std::mem::swap(&mut best, &mut attempt);
        } else {
            lo = mid;
        }
        if (hi - lo).get() <= 1e-12 * hi.get().max(1.0) {
            break;
        }
    }
    // Tighten the reported capacity to the actual max bin load.
    let mut loads = vec![Time::ZERO; m];
    for (j, &bin) in best.iter().enumerate() {
        loads[bin.index()] += times[j];
    }
    let makespan = loads.into_iter().max().unwrap_or(Time::ZERO);
    (makespan, best)
}

/// `(task index, time)` by non-increasing time, ties by index: the order
/// FFD considers tasks in.
fn decreasing(times: &[Time]) -> Vec<(usize, f64)> {
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_unstable_by(|&a, &b| times[b].cmp(&times[a]).then(a.cmp(&b)));
    order.into_iter().map(|j| (j, times[j].get())).collect()
}

/// One FFD pass of `order` into `bins` at capacity `cap`. `Ok` when
/// every task packed, with each task's bin in `assignment`; otherwise
/// the number of bins FFD needed (`usize::MAX` when a task alone
/// exceeds the capacity), with `assignment` partly overwritten.
fn ffd_pass(
    order: &[(usize, f64)],
    cap: Time,
    bins: &mut MinLoadTree,
    assignment: &mut [MachineId],
) -> Result<(), usize> {
    let limit = cap.get() + 1e-12 * cap.get().max(1.0);
    bins.clear();
    let mut opened = 0usize;
    let mut overflow_bins = 0usize;
    for &(j, p) in order {
        match bins.first_fit(p, limit) {
            Some(bin) => {
                bins.add(bin, p);
                // Bins open left to right: a fit at `opened` opens one.
                opened += usize::from(bin == opened);
                assignment[j] = MachineId::new(bin);
            }
            // Not even an empty bin fits: the task alone exceeds the
            // capacity, so it is unpackable.
            None if opened < bins.m => return Err(usize::MAX),
            None => overflow_bins += 1,
        }
    }
    if overflow_bins == 0 {
        Ok(())
    } else {
        Err(bins.m + overflow_bins)
    }
}

/// Min-load tournament tree over `m` bins. `node[1]` is the root, node
/// `i` has children `2i` and `2i + 1`, and leaves `size..size + m` hold
/// the bin loads, with `size` the next power of two. Unopened bins hold
/// `0.0`, so the first of them is where FFD opens a new bin; padding
/// leaves hold `+∞` and never fit.
struct MinLoadTree {
    m: usize,
    size: usize,
    node: Vec<f64>,
}

impl MinLoadTree {
    fn new(m: usize) -> Self {
        let size = m.next_power_of_two();
        let mut tree = MinLoadTree {
            m,
            size,
            node: vec![0.0; 2 * size],
        };
        tree.clear();
        tree
    }

    /// Empties every bin.
    fn clear(&mut self) {
        let (size, m) = (self.size, self.m);
        self.node[size..size + m].fill(0.0);
        self.node[size + m..].fill(f64::INFINITY);
        for i in (1..size).rev() {
            self.node[i] = self.node[2 * i].min(self.node[2 * i + 1]);
        }
    }

    /// The leftmost bin with `load + p <= limit`: the bin a left-to-right
    /// scan picks. IEEE addition rounds monotonically, so a subtree holds
    /// such a bin iff its minimum load qualifies, and the descent takes
    /// the left child whenever it does.
    fn first_fit(&self, p: f64, limit: f64) -> Option<usize> {
        if self.node[1] + p > limit {
            return None;
        }
        let mut i = 1;
        while i < self.size {
            i = 2 * i + usize::from(self.node[2 * i] + p > limit);
        }
        Some(i - self.size)
    }

    /// Adds `p` to `bin`'s load, repairing minima upward until one is
    /// unchanged (loads only grow, so the ancestors above it are too).
    fn add(&mut self, bin: usize, p: f64) {
        let mut i = self.size + bin;
        self.node[i] += p;
        while i > 1 {
            i /= 2;
            let min = self.node[2 * i].min(self.node[2 * i + 1]);
            if self.node[i] == min {
                break;
            }
            self.node[i] = min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> Vec<Time> {
        v.iter().map(|&x| Time::of(x)).collect()
    }

    fn max_load(times: &[Time], a: &[MachineId], m: usize) -> f64 {
        let mut loads = vec![0.0; m];
        for (j, id) in a.iter().enumerate() {
            loads[id.index()] += times[j].get();
        }
        loads.into_iter().fold(0.0, f64::max)
    }

    #[test]
    fn ffd_packs_exact_fit() {
        let t = ts(&[4.0, 3.0, 3.0, 2.0]);
        match first_fit_decreasing(&t, 2, Time::of(6.0)) {
            FfdResult::Packed(a) => {
                assert!(max_load(&t, &a, 2) <= 6.0 + 1e-9);
            }
            other => panic!("expected packed, got {other:?}"),
        }
    }

    #[test]
    fn ffd_reports_overflow() {
        let t = ts(&[4.0, 4.0, 4.0]);
        match first_fit_decreasing(&t, 2, Time::of(4.0)) {
            FfdResult::Overflow { bins_needed } => assert_eq!(bins_needed, 3),
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn ffd_rejects_oversized_task() {
        let t = ts(&[10.0]);
        assert!(matches!(
            first_fit_decreasing(&t, 3, Time::of(5.0)),
            FfdResult::Overflow { .. }
        ));
    }

    #[test]
    fn ffd_respects_capacity_tolerance() {
        // 0.1 added ten times is not exactly 1.0 in binary; the packing
        // must still succeed with capacity 1.0.
        let t = ts(&[0.1; 10]);
        assert!(matches!(
            first_fit_decreasing(&t, 1, Time::of(1.0)),
            FfdResult::Packed(_)
        ));
    }

    #[test]
    fn multifit_reaches_optimum_on_balanced_instance() {
        // {3,3,2,2,2} on 2 machines: optimum 6.
        let t = ts(&[3.0, 3.0, 2.0, 2.0, 2.0]);
        let (mk, a) = multifit(&t, 2, 40);
        assert!((mk.get() - 6.0).abs() < 1e-9, "got {mk}");
        assert!((max_load(&t, &a, 2) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn multifit_within_13_over_11() {
        let t = ts(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        let (mk, _) = multifit(&t, 3, 40);
        let lb = crate::lower_bounds::combined(&t, 3);
        assert!(mk.get() <= 13.0 / 11.0 * lb.get() * 1.2 + 1e-9);
        // Here the instance is benign: 45/3 = 15 and a perfect split exists.
        assert!((mk.get() - 15.0).abs() < 1e-9, "got {mk}");
    }

    #[test]
    fn multifit_single_machine() {
        let t = ts(&[1.0, 2.0, 3.0]);
        let (mk, a) = multifit(&t, 1, 10);
        assert!((mk.get() - 6.0).abs() < 1e-9);
        assert!(a.iter().all(|id| id.index() == 0));
    }
}
