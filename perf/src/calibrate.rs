//! The clock passes are timed with, and the machine's current speed.
//!
//! On a shared host other tenants slow this process by up to 2x, for
//! seconds to minutes at a time, mostly without descheduling it: thread
//! CPU time swings nearly as much as wall time. So a run also times a
//! fixed reference kernel, code of the harness's own that shares nothing
//! with the program, before and after every pass and set-up. A pass's
//! time is divided by how slow the kernel ran around it, which reads it
//! as if on the machine at its nominal speed. A change to the program
//! still moves it in full, since the kernel does not change with it.

use std::fs::File;
use std::io::Read;
use std::sync::OnceLock;
use std::time::Instant;

/// The reference kernel's thread CPU time with the core at full speed:
/// the fastest twentieth of its runs on a 2-core Xeon VM at 2.1 GHz. It
/// only scales the normalized metrics.
pub const NOMINAL_S: f64 = 0.0065;

/// Iterations of the reference kernel's dependent chain.
const STEPS: u32 = 2_000_000;

/// This thread's CPU time in nanoseconds from the scheduler's own
/// accounting, which leaves out time stolen by the hypervisor.
fn thread_cpu_ns() -> Option<u64> {
    // The scheduler brings the running thread's total up to date only
    // when it reschedules; without a yield it lags by up to a tick.
    std::thread::yield_now();
    let mut buf = [0u8; 128];
    let n = File::open("/proc/thread-self/schedstat")
        .and_then(|mut f| f.read(&mut buf))
        .ok()?;
    std::str::from_utf8(&buf[..n])
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Seconds on this thread's CPU clock, or on the wall clock where the
/// kernel does not expose one. Only differences are meaningful.
pub fn now_s() -> f64 {
    static START: OnceLock<(bool, Instant)> = OnceLock::new();
    let &(cpu, start) = START.get_or_init(|| (thread_cpu_ns().is_some(), Instant::now()));
    match cpu.then(thread_cpu_ns).flatten() {
        Some(ns) => ns as f64 / 1e9,
        None => start.elapsed().as_secs_f64(),
    }
}

/// The reference kernel: one dependent chain of floating-point square
/// roots, multiplies and remainders. It touches no memory, so its time
/// follows the core's speed alone. Of the kernels tried (dependent and
/// independent loads through 8 and 64 MB, sorting, a binary heap, this
/// chain), it was the one whose slowdown the workloads' passes followed
/// one for one, on every workload; the others moved less than the
/// passes did, so dividing by them left most of a slow spell in.
fn kernel_s() -> f64 {
    let t = now_s();
    let mut f = 1.0f64;
    for i in 0..STEPS {
        f = (f * 1.000_001 + f64::from(i).sqrt()) % 1e6;
    }
    std::hint::black_box(f);
    now_s() - t
}

/// Reads how slow the machine ran over each interval between readings.
pub struct Gauge {
    last: f64,
}

impl Gauge {
    /// Runs the kernel twice; the first run only warms it up.
    pub fn new() -> Self {
        kernel_s();
        Gauge { last: kernel_s() }
    }

    /// Times the kernel again and returns the slowdown since the last
    /// reading: the mean of the two kernel times over [`NOMINAL_S`].
    pub fn slowdown(&mut self) -> f64 {
        let before = self.last;
        self.last = kernel_s();
        (before + self.last) / 2.0 / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gauge_reads_a_slowdown() {
        let s = Gauge::new().slowdown();
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
    }

    #[test]
    fn the_clock_resolves_a_millisecond() {
        // A clock that lags by up to a tick reads 0 or a whole tick for
        // most spins; preemption shortens only a few of them.
        let mut spins: Vec<f64> = (0..9)
            .map(|_| {
                let (t, wall) = (now_s(), Instant::now());
                while wall.elapsed().as_micros() < 1_000 {}
                now_s() - t
            })
            .collect();
        spins.sort_by(f64::total_cmp);
        let median = spins[4];
        assert!(
            (0.00075..0.00125).contains(&median),
            "1 ms spins read {spins:?} s"
        );
    }
}
