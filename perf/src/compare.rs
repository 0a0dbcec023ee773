//! `perf compare A.json B.json`: judges result file B against baseline
//! A, one verdict per (end-to-end metric, workload), with the bounds
//! `BENCHMARK.json` fixes.

use crate::bench::{self, MetricDef};
use crate::json::{self, Value};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A run-to-run spread wider than the bound hides the change.
    Unresolved,
}

/// Interquartile range over the median's magnitude.
fn spread(runs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(runs);
    let m = median(runs).abs();
    if q3 == q1 {
        0.0
    } else if m == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / m
    }
}

/// The verdict on `b` against baseline `a`.
///
/// Worse or better means the median moved by more than `bound` times
/// the baseline median. When either side's interquartile range exceeds
/// the bound, the verdict is unresolved, unless every run of one side
/// beats every run of the other.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let dominates = |p: &[f64], q: &[f64]| p.iter().all(|&x| q.iter().all(|&y| beats(x, y)));
    if (spread(a) > bound || spread(b) > bound) && !dominates(a, b) && !dominates(b, a) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    // Positive when b is worse.
    let worse_by = if lower_is_better { mb - ma } else { ma - mb };
    let limit = bound * ma.abs();
    if worse_by > limit {
        Verdict::Worse
    } else if -worse_by > limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Failures get no slack and no spread rule: more failed operations
/// over all runs is worse.
pub fn failure_verdict(a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (
        a.iter().sum::<f64>() / a.len() as f64,
        b.iter().sum::<f64>() / b.len() as f64,
    );
    match sb.total_cmp(&sa) {
        std::cmp::Ordering::Greater => Verdict::Worse,
        std::cmp::Ordering::Less => Verdict::Better,
        std::cmp::Ordering::Equal => Verdict::Same,
    }
}

fn runs(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?
        .as_arr();
    Some(runs.iter().filter_map(Value::as_f64).collect())
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the verdict table; returns whether any verdict is worse.
///
/// # Errors
/// When a file cannot be read or parsed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bench = bench::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut defs = bench.end_to_end.clone();
    defs.push(MetricDef {
        name: "failed_frac".into(),
        unit: "fraction".into(),
        lower_is_better: true,
        bound: Some(0.0),
    });
    println!(
        "| workload | metric | unit | bound | A median | B median | change | verdict |\n\
         |---|---|---|--:|--:|--:|--:|---|"
    );
    let mut any_worse = false;
    for workload in &bench.workloads {
        for def in &defs {
            let (Some(ra), Some(rb)) =
                (runs(&a, workload, &def.name), runs(&b, workload, &def.name))
            else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let v = if def.name == "failed_frac" {
                failure_verdict(&ra, &rb)
            } else {
                verdict(&ra, &rb, bound, def.lower_is_better)
            };
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (median(&ra), median(&rb));
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            println!(
                "| {workload} | {} | {} | {:.0}% | {ma:.6} | {mb:.6} | {change:+.2}% | {v:?} |",
                def.name,
                def.unit,
                bound * 100.0
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_beyond_the_bound_are_better_or_worse() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&a, &faster, 0.10, false), Verdict::Better);
        assert_eq!(verdict(&faster, &a, 0.10, false), Verdict::Worse);
        // The same move on a lower-is-better metric flips the verdict.
        assert_eq!(verdict(&a, &faster, 0.10, true), Verdict::Worse);
        let close = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(verdict(&a, &close, 0.10, false), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let noisy = [70.0, 130.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&a, &noisy, 0.10, false), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &a, 0.10, false), Verdict::Unresolved);
    }

    #[test]
    fn dominance_resolves_a_wide_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Wide spread, but every run is slower than every baseline run.
        let slower = [50.0, 80.0, 65.0, 40.0, 90.0];
        assert_eq!(verdict(&a, &slower, 0.10, false), Verdict::Worse);
        let faster = [150.0, 190.0, 170.0, 140.0, 200.0];
        assert_eq!(verdict(&a, &faster, 0.10, false), Verdict::Better);
    }

    #[test]
    fn any_extra_failure_is_worse() {
        assert_eq!(failure_verdict(&[0.0; 5], &[0.0; 5]), Verdict::Same);
        let one_failure = [0.0, 0.0, 0.01, 0.0, 0.0];
        assert_eq!(failure_verdict(&[0.0; 5], &one_failure), Verdict::Worse);
        assert_eq!(failure_verdict(&one_failure, &[0.0; 5]), Verdict::Better);
    }
}
