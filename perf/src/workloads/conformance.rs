//! `conformance`: `rds conformance`, the CI gate. Thousands of small
//! instances (n ≤ 12) across all eight case shapes, so per-run fixed
//! costs and small-n mode choices dominate.

use super::{core_err, rds, words, Pass, Spec, Workload};
use crate::trace;
use rds_conformance::{
    generate_case, generate_hetero_case, generate_ilp_case, generate_survival_case,
    ConformanceConfig,
};

/// Cases per pass (~0.25 s).
const CASES: u64 = 200;

pub const SPEC: Spec = Spec {
    name: "conformance",
    item: "case (every arm's check battery on one seeded case)",
    quality: "checks run over checks passed (1 when clean)",
    min_passes: 4,
    repeat_check: false,
    build: || Box::new(Conformance),
};

struct Conformance;

fn finish(cases: u64, checks: u64) -> Result<Pass, String> {
    if cases != CASES || checks == 0 {
        return Err(format!(
            "conformance: ran {cases} of {CASES} cases, {checks} checks"
        ));
    }
    Ok(Pass {
        items: cases,
        quality: 1.0,
        key: format!("cases={cases} checks={checks}"),
        ..Pass::default()
    })
}

/// Reads `cases: <n> run, ...; <k> checks in ...` from the report.
fn counts(out: &str) -> Result<(u64, u64), String> {
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix("cases: "))
        .ok_or_else(|| format!("conformance: no case count in\n{out}"))?;
    let first = |s: &str| s.split_whitespace().next()?.parse().ok();
    first(line)
        .zip(line.split("; ").nth(1).and_then(first))
        .ok_or_else(|| format!("conformance: unreadable count line {line:?}"))
}

impl Workload for Conformance {
    /// The command has no input building of its own; its inputs are the
    /// seeded case specs every arm generates per case index.
    fn setup(&mut self, seed: u64) -> Result<(), String> {
        let c = ConformanceConfig::default();
        for i in 0..CASES {
            std::hint::black_box((
                generate_case(seed, i, c.max_n, c.max_m),
                generate_survival_case(seed, i, c.max_n, c.max_m),
                generate_ilp_case(seed, i, c.max_n, c.max_m),
                generate_hetero_case(seed, i, c.max_n, c.max_m),
            ));
        }
        Ok(())
    }

    fn pass(&mut self, seed: u64, traced: bool) -> Result<Pass, String> {
        if !traced {
            let out = rds(&words(&format!(
                "conformance --cases {CASES} --seed {seed}"
            )))?;
            if !out.contains("no violations: every check passed") {
                return Err(format!("conformance: violations\n{out}"));
            }
            let (cases, checks) = counts(&out)?;
            return finish(cases, checks);
        }
        let config = ConformanceConfig {
            seed,
            cases: CASES,
            ..ConformanceConfig::default()
        };
        let guard = trace::span("conformance.run");
        let report = rds_conformance::run(&config).map_err(core_err)?;
        if report.violations > 0 {
            guard.fail();
            return Err(format!("conformance: {} violation(s)", report.violations));
        }
        drop(guard);
        trace::add("conformance.run.cases", report.cases_run);
        trace::add("conformance.run.checks", report.checks_run);
        finish(report.cases_run, report.checks_run)
    }
}

#[cfg(test)]
mod tests {
    use super::counts;

    #[test]
    fn reads_the_printed_counts() {
        let out = "conformance: seed = 42, cases = 1600, max n = 12\n\
                   cases: 1600 run, 0 resumed from journal; 129472 checks in 1.75s\n\
                   no violations: every check passed\n";
        assert_eq!(counts(out), Ok((1600, 129_472)));
        assert!(counts("cases: many run; some checks in 1s").is_err());
        assert!(counts("nothing here").is_err());
    }
}
