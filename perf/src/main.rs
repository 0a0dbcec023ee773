//! `perf`: the repository benchmark. See `perf/README.md`.
//!
//! ```text
//! perf [--seed S] [--workload NAME] [--seconds T] [--out FILE]
//!     full run: every workload (or NAME), 5 fresh-process repeats plus a
//!     traced run each; prints every metric and writes a result file
//! perf --workload NAME --seed S --seconds T --trace 0|1 [--report FILE]
//!     one run; the last stdout line is its JSON result
//! perf compare A.json B.json
//!     verdicts for result file B against baseline A
//! ```

mod alloc;
mod bench;
mod calibrate;
mod compare;
mod full;
mod json;
mod runner;
mod stats;
mod tables;
mod trace;
mod workloads;

use json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage:
  perf [--seed S] [--workload NAME] [--seconds T] [--out FILE]
  perf --workload NAME --seed S --seconds T --trace 0|1 [--report FILE]
  perf compare A.json B.json";

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_flags(argv: &[String]) -> Result<BTreeMap<String, String>, String> {
    const KNOWN: &[&str] = &["seed", "workload", "seconds", "trace", "report", "out"];
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|k| KNOWN.contains(k))
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(key) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {raw:?}")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

/// One run; its JSON summary is the last line on stdout.
fn single(flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let name: String = get(flags, "workload", None)?;
    let spec = workloads::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = get(flags, "seed", None)?;
    let seconds: f64 = get(flags, "seconds", None)?;
    let traced = match get::<u8>(flags, "trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let bench = bench::load()?;
    let run = runner::run(spec, seed, seconds, traced);
    if let Some(path) = flags.get("report") {
        std::fs::write(path, run.to_json(spec.name, seed, traced).to_json() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let wanted = if traced {
        &bench.per_layer
    } else {
        &bench.end_to_end
    };
    let mut metrics = Vec::new();
    let mut error = run.error.clone();
    if error.is_none() {
        for def in wanted {
            match run.metrics.get(&def.name) {
                Some(&(value, unit)) if unit == def.unit => metrics.push((
                    def.name.clone(),
                    json::obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                )),
                Some(&(_, unit)) => {
                    error = Some(format!(
                        "{} is in {unit}, BENCHMARK.json says {}",
                        def.name, def.unit
                    ))
                }
                None => error = Some(format!("{name} does not report {}", def.name)),
            }
        }
    }
    if let Some(e) = &error {
        eprintln!("perf: check failed: {e}");
        metrics.clear();
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        error.is_none(),
        run.attempted.max(1),
        run.failed,
        json::obj(metrics).to_json()
    );
    Ok(if error.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return usage("compare takes two result files");
        };
        return match compare::compare(a, b) {
            Ok(worse) => ExitCode::from(u8::from(worse)),
            Err(e) => usage(&e),
        };
    }
    let flags = match parse_flags(&argv) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    if flags.contains_key("trace") {
        return single(&flags).unwrap_or_else(|e| usage(&e));
    }
    let full = || -> Result<ExitCode, String> {
        let specs: Vec<_> = match flags.get("workload") {
            Some(name) => {
                vec![workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
            }
            None => workloads::ALL.iter().collect(),
        };
        let options = full::Options {
            seed: get(&flags, "seed", Some(42))?,
            seconds: get(&flags, "seconds", Some(2.0))?,
            out: flags.get("out").map(PathBuf::from),
        };
        let ok = full::run(&specs, &options)?;
        Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    };
    full().unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::FAILURE
    })
}
