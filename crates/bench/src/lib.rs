//! The paper's tables and figures, and the scaling benches.
//!
//! [`artifacts`] renders every table and figure of the paper, plus the
//! measured extensions and ablations, from one registry; the
//! `artifacts` binary writes them under `results/`. [`measure_ratio`]
//! measures a strategy's competitive ratio; the other binaries in
//! `src/bin/` are scaling and overhead benches, which share the small
//! flag helpers below.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifacts;

use rds_algs::Strategy;
use rds_core::{Instance, Realization, Result, Uncertainty};
use rds_exact::OptimalSolver;

/// A measured competitive-ratio observation.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredRatio {
    /// Certified lower side (`C_max / opt.hi`).
    pub lo: f64,
    /// Certified upper side (`C_max / opt.lo`).
    pub hi: f64,
    /// The algorithm's makespan.
    pub makespan: f64,
    /// The optimum bracket's lower end.
    pub opt_lo: f64,
    /// The optimum bracket's upper end.
    pub opt_hi: f64,
}

/// Runs a strategy end-to-end and measures its competitive ratio against
/// the exact/bracketed optimum of the realization.
///
/// # Errors
/// Propagates strategy failures.
pub fn measure_ratio<S: Strategy>(
    strategy: &S,
    instance: &Instance,
    uncertainty: Uncertainty,
    realization: &Realization,
    solver: &OptimalSolver,
) -> Result<MeasuredRatio> {
    let out = strategy.run(instance, uncertainty, realization)?;
    let opt = solver.solve_realization(realization, instance.m());
    Ok(MeasuredRatio {
        lo: out.makespan.ratio(opt.hi).unwrap_or(1.0),
        hi: out.makespan.ratio(opt.lo).unwrap_or(1.0),
        makespan: out.makespan.get(),
        opt_lo: opt.lo.get(),
        opt_hi: opt.hi.get(),
    })
}

/// `true` when the binary was invoked with `--quick` (or `RDS_QUICK=1`):
/// shrinks sweeps to smoke-test size.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("RDS_QUICK").is_ok_and(|v| v == "1")
}

/// Returns the value following `--<name>` on the command line, if any
/// (`--journal out/campaign.journal` style). Bench binaries keep their
/// flag handling this small on purpose.
pub fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

/// Standard section header for the binaries' stdout reports.
pub fn header(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_algs::LptNoRestriction;

    #[test]
    fn measure_ratio_is_at_least_one_on_exact_bracket() {
        let inst = Instance::from_estimates(&[3.0, 2.0, 2.0, 1.0], 2).unwrap();
        let unc = Uncertainty::of(1.5);
        let real = Realization::exact(&inst);
        let solver = OptimalSolver::default();
        let r = measure_ratio(&LptNoRestriction, &inst, unc, &real, &solver).unwrap();
        assert!(r.lo <= r.hi);
        assert!(r.hi >= 1.0 - 1e-9);
        assert!(r.makespan >= r.opt_lo - 1e-9);
    }
}
