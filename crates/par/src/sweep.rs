//! Order-preserving parallel map for experiment sweeps.
//!
//! The `threads` argument is an execution-resource knob: how many OS
//! threads drain the work queue of one process, capped at the item
//! count by [`plan_workers`] because an idle worker is pure overhead.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads actually spawned for `items` work items
/// when `threads` were requested: `max(1, min(threads, items))`.
///
/// Extracted so the capping rule is stated (and tested) once instead of
/// being implied by a spawn loop: requesting more workers than items
/// never spawns idle threads, and a zero request still makes progress
/// on one.
pub fn plan_workers(threads: usize, items: usize) -> usize {
    threads.max(1).min(items.max(1))
}

/// Applies `f` to every item on `threads` worker threads (scoped — no
/// `'static` bound needed) and returns the results in input order.
///
/// Work is claimed dynamically through an atomic cursor, so uneven item
/// costs (e.g. exact solves of different sizes) still balance well.
///
/// # Panics
/// Propagates the first panic raised inside `f`.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let _span = rds_obs::span("sweep.parallel_map");
    if rds_obs::enabled() {
        rds_obs::global().counter("sweep.items").add(n as u64);
    }
    if threads == 1 || n == 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    crossbeam::thread::scope(|scope| {
        for _ in 0..plan_workers(threads, n) {
            scope.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().take().expect("each slot claimed once");
                let r = f(item);
                *results[i].lock() = Some(r);
            });
        }
    })
    .expect("worker panicked");

    results
        .into_iter()
        .map(|m| m.into_inner().expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_workers_caps_at_items_and_floors_at_one() {
        assert_eq!(plan_workers(8, 3), 3);
        assert_eq!(plan_workers(3, 8), 3);
        assert_eq!(plan_workers(0, 5), 1);
        assert_eq!(plan_workers(4, 0), 1);
        assert_eq!(plan_workers(0, 0), 1);
    }

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..1000).collect(), 8, |x: i32| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
        let out = parallel_map(vec![7], 4, |x: i32| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn balances_uneven_work() {
        // Items with wildly different costs still all complete.
        let out = parallel_map((0..64).collect(), 4, |x: u64| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 64);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    #[should_panic]
    fn panics_propagate() {
        parallel_map(vec![1, 2, 3], 2, |x: i32| {
            if x == 2 {
                panic!("inner");
            }
            x
        });
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(vec![1, 2, 3], 1, |x: i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
