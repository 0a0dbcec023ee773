//! The six workloads. Each builds its inputs from the run seed, runs one
//! pass per derived seed, checks its own outputs, and can re-run a pass
//! through the harness's traced replica of the same public calls.

mod conformance;
mod engine;
mod frontier;
mod resilience;
mod serve;
mod sweep;

use std::path::PathBuf;

/// What one pass did.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Operations attempted (trials, cases, arrivals, point solves).
    pub items: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The pass's result quality (see [`Spec::quality`]); lower is
    /// better, 1 is ideal.
    pub quality: f64,
    /// The pass's results in a form that compares exactly: the traced
    /// replica must reproduce it, and a repeated pass must too.
    pub key: String,
    /// Seconds of the pass spent in a paired reference run that is not
    /// part of the traced window.
    pub excluded_s: f64,
}

pub trait Workload {
    /// Builds the workload's inputs for `seed`, the part timed as
    /// `setup_s`. Called several times; the last call's inputs stay.
    fn setup(&mut self, seed: u64) -> Result<(), String>;

    /// Runs one pass on inputs derived from `seed`: the command itself,
    /// or with `traced` the harness's replica of it, with a span around
    /// every call into a layer.
    fn pass(&mut self, seed: u64, traced: bool) -> Result<Pass, String>;
}

/// Static facts about a workload.
pub struct Spec {
    pub name: &'static str,
    /// What one item is, for `norm_items_per_s` and `items_per_s`.
    pub item: &'static str,
    /// What `result_ratio` measures for this workload.
    pub quality: &'static str,
    /// Passes every run makes whatever `--seconds` says; `result_ratio`
    /// averages exactly these, so it depends on the seed alone.
    pub min_passes: u64,
    /// Re-run the first pass at the end and require identical results.
    pub repeat_check: bool,
    pub build: fn() -> Box<dyn Workload>,
}

pub const ALL: &[Spec] = &[
    sweep::SPEC,
    resilience::SPEC,
    engine::SPEC,
    conformance::SPEC,
    serve::SPEC,
    frontier::SPEC,
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// Every layer a traced pass can report, in report order. Layers marked
/// `true` can fail and also report `.failed`.
pub const LAYERS: &[(&str, bool)] = &[
    ("sim.faults.baseline", false),
    ("sim.faults.run", false),
    ("sim.engine", false),
    ("exact.bracket", false),
    ("workloads.realize", false),
    ("workloads.faults", false),
    ("algs.place", false),
    ("sim.dispatcher", false),
    ("sim.validate", true),
    ("par.supervise", true),
    ("par.journal", false),
    ("serve.step", false),
    ("serve.journal", false),
    ("algs.ilp", true),
    ("algs.lp_round", true),
    ("conformance.run", true),
];

/// Work counters recorded at layer boundaries with [`crate::trace::add`].
pub const COUNTERS: &[&str] = &[
    "sim.engine.events",
    "sim.engine.allocs",
    "conformance.run.cases",
    "conformance.run.checks",
];

/// Scratch directory for journals and traces, inside the benchmark's
/// own directory so a run writes nowhere else.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one `rds` command line in-process and returns what it printed.
fn rds(argv: &[String]) -> Result<String, String> {
    let mut out = Vec::new();
    let result = rds_cli::run(argv, &mut out);
    let text = String::from_utf8_lossy(&out).into_owned();
    result
        .map(|()| text.clone())
        .map_err(|e| format!("rds {}: {e}\n{text}", argv.join(" ")))
}

/// Splits a command line on whitespace.
fn words(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn core_err(e: rds_core::Error) -> String {
    e.to_string()
}
