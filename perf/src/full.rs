//! The full run: every workload, repeated in fresh child processes,
//! aggregated into one result file.
//!
//! Each (workload, repeat) is its own process, as every `rds` run is, so
//! process globals (`RDS_VALIDATE`, the instrumentation switch) cannot
//! leak between workloads. Repeats go round-robin across workloads, so
//! a slow spell on the machine spreads over all of them; children run
//! one at a time, each single-threaded. One more traced child per
//! workload gives the per-layer metrics.

use crate::json::{obj, Value};
use crate::stats::{median, quartiles};
use crate::workloads::{out_dir, Spec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Untraced children per workload; each metric reports their median,
/// quartiles and count.
const REPEATS: usize = 5;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub out: Option<PathBuf>,
}

/// Runs one child and returns its report.
fn child(spec: &Spec, o: &Options, traced: bool, tag: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let report = out_dir()?.join(format!("run-{}-{tag}.json", spec.name));
    let _ = std::fs::remove_file(&report);
    let status = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--report")
        .arg(&report)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    let text = std::fs::read_to_string(&report)
        .map_err(|e| format!("{} ({status}) left no report: {e}", spec.name))?;
    let doc = crate::json::parse(&text)?;
    if !status.success() && doc.get("correct").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{} exited with {status}", spec.name));
    }
    Ok(doc)
}

fn metric_values(doc: &Value) -> BTreeMap<String, (f64, String)> {
    doc.get("metrics")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| {
                    Some((
                        k.clone(),
                        (
                            v.get("value")?.as_f64()?,
                            v.get("unit")?.as_str()?.to_string(),
                        ),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn read_first_line(path: &str, prefix: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix(prefix)
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and source the numbers came from.
pub fn fingerprint() -> Value {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let head = command_output("git", &["rev-parse", "HEAD"], root);
    let dirty = head
        .as_ref()
        .and_then(|_| command_output("git", &["status", "--porcelain"], root))
        .map(|s| !s.is_empty());
    obj([
        ("nproc", Value::Num(nproc as f64)),
        (
            "cpu_model",
            Value::Str(read_first_line("/proc/cpuinfo", "model name")),
        ),
        (
            "mem_total",
            Value::Str(read_first_line("/proc/meminfo", "MemTotal")),
        ),
        (
            "kernel",
            Value::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            ),
        ),
        (
            "rustc",
            Value::Str(command_output("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into())),
        ),
        ("git_head", head.map_or(Value::Null, Value::Str)),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
    ])
}

/// Runs the full benchmark; returns whether every check passed.
///
/// # Errors
/// When a child cannot be started or leaves no readable report.
pub fn run(specs: &[&Spec], o: &Options) -> Result<bool, String> {
    let mut e2e: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    for r in 0..REPEATS {
        for spec in specs {
            eprintln!("perf: {} repeat {}/{REPEATS}", spec.name, r + 1);
            e2e.entry(spec.name)
                .or_default()
                .push(child(spec, o, false, &r.to_string())?);
        }
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in specs {
        eprintln!("perf: {} traced", spec.name);
        let traced = child(spec, o, true, "traced")?;
        let runs = &e2e[spec.name];
        let mut errors: Vec<String> = runs
            .iter()
            .chain([&traced])
            .filter_map(|d| d.get("error").and_then(Value::as_str).map(String::from))
            .collect();
        if spec.repeat_check {
            let keys: Vec<_> = runs.iter().map(|d| d.get("key").cloned()).collect();
            if keys.windows(2).any(|w| w[0] != w[1]) {
                errors.push(format!(
                    "{}: repeats disagree on the first pass's results",
                    spec.name
                ));
            }
        }
        let correct = errors.is_empty();
        all_correct &= correct;
        let count = |key: &str| {
            runs.iter()
                .filter_map(|d| d.get(key)?.as_f64())
                .sum::<f64>()
        };

        println!(
            "\n## {} ({})",
            spec.name,
            if correct { "correct" } else { "FAILED" }
        );
        println!("item: {}; result_ratio: {}", spec.item, spec.quality);
        for e in &errors {
            println!("check failed: {e}");
        }
        println!("| metric | unit | median | q1 | q3 | n |\n|---|---|--:|--:|--:|--:|");
        let per_run: Vec<_> = runs.iter().map(metric_values).collect();
        let mut end_to_end = Vec::new();
        for (name, (_, unit)) in per_run.first().cloned().unwrap_or_default() {
            let values: Vec<f64> = per_run
                .iter()
                .filter_map(|m| Some(m.get(&name)?.0))
                .collect();
            let (q1, q3) = quartiles(&values);
            let med = median(&values);
            println!(
                "| {name} | {unit} | {med:.6} | {q1:.6} | {q3:.6} | {} |",
                values.len()
            );
            end_to_end.push((
                name,
                obj([
                    ("unit", Value::Str(unit)),
                    ("median", Value::Num(med)),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("n", Value::Num(values.len() as f64)),
                    (
                        "runs",
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ));
        }
        println!("\nper layer (traced run):\n| metric | unit | value |\n|---|---|--:|");
        let mut per_layer = Vec::new();
        for (name, (value, unit)) in metric_values(&traced) {
            println!("| {name} | {unit} | {value:.6} |");
            per_layer.push((
                name,
                obj([("value", Value::Num(value)), ("unit", Value::Str(unit))]),
            ));
        }
        workloads.push((
            spec.name,
            obj([
                ("correct", Value::Bool(correct)),
                (
                    "errors",
                    Value::Arr(errors.into_iter().map(Value::Str).collect()),
                ),
                ("attempted", Value::Num(count("attempted"))),
                ("failed", Value::Num(count("failed"))),
                ("end_to_end", obj(end_to_end)),
                ("per_layer", obj(per_layer)),
            ]),
        ));
    }

    let result = obj([
        ("seed", Value::Num(o.seed as f64)),
        ("seconds", Value::Num(o.seconds)),
        ("repeats", Value::Num(REPEATS as f64)),
        ("fingerprint", fingerprint()),
        ("workloads", obj(workloads)),
    ]);
    let path = match &o.out {
        Some(p) => p.clone(),
        None => out_dir()?.join(format!("perf-seed{}.json", o.seed)),
    };
    std::fs::write(&path, result.to_json() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(all_correct)
}
