//! One run of one workload: the unit a regression check repeats and the
//! full run launches as a fresh child process.
//!
//! A run times the workload's setup, then runs passes on seeds derived
//! from the run seed until `--seconds` have passed (and at least the
//! workload's minimum number of passes). Untraced, it reports the
//! end-to-end metrics. Traced, every pass runs twice on the same seed,
//! once as the command and once as the traced replica; the two must
//! agree exactly, and the replica's spans give the per-layer metrics.
//!
//! Other tenants of a shared machine slow a process down by up to 2x,
//! for seconds to minutes at a time. So passes and set-ups are timed on
//! the thread's CPU clock and divided by the slowdown the reference
//! kernel of [`crate::calibrate`] read around them, and set-up is timed
//! throughout the run rather than in one burst at its start.

use crate::calibrate::{self, Gauge};
use crate::json::{obj, Value};
use crate::stats::{median, trimmed_mean};
use crate::trace;
use crate::workloads::{out_dir, Spec, Workload, COUNTERS, LAYERS};
use rds_workloads::rng::child_seed;
use std::collections::BTreeMap;
use std::time::Instant;

/// Setups timed before the first pass. `setup_s` is the median of all
/// setups timed.
const FIRST_SETUPS: usize = 3;

/// Setup is timed again before a pass once it costs less than this
/// share of the passes run since it was last timed: before every pass
/// for cheap set-ups, every few seconds for the engine's.
const SETUP_SHARE: f64 = 0.05;

/// CPU seconds one set-up sample spans at least. A cheap set-up (tens
/// of microseconds for frontier) is repeated within a sample, so neither
/// the clock's own cost nor a cache another tenant emptied outweighs it.
const SETUP_SAMPLE_S: f64 = 0.01;

/// Share of passes dropped at each end before averaging their
/// normalized costs.
const TRIM: f64 = 0.1;

/// Share of traced wall time the layer spans must explain.
const MIN_COVERAGE: f64 = 0.95;

pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Results of the first pass, for comparing repeated runs.
    pub key: String,
    /// The failed check, when the run is not correct.
    pub error: Option<String>,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.error.is_none()
    }

    /// The per-run report the full run collects.
    pub fn to_json(&self, workload: &str, seed: u64, traced: bool) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, &(v, unit))| {
                (
                    k.clone(),
                    obj([("value", Value::Num(v)), ("unit", Value::Str(unit.into()))]),
                )
            })
            .collect::<Vec<_>>();
        obj([
            ("workload", Value::Str(workload.into())),
            ("seed", Value::Num(seed as f64)),
            ("trace", Value::Bool(traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("key", Value::Str(self.key.clone())),
            ("error", self.error.clone().map_or(Value::Null, Value::Str)),
            ("metrics", obj(metrics)),
        ])
    }
}

/// Peak resident set size of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Runs `spec` once. Check failures land in [`Run::error`].
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut run = Run::default();
    if let Err(e) = measure(spec, seed, seconds, traced, &mut run) {
        run.error = Some(e);
    }
    trace::stop();
    run
}

fn measure(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    run: &mut Run,
) -> Result<(), String> {
    let mut w = (spec.build)();
    let mut gauge = Gauge::new();
    // Per sample, one set-up's time on the wall clock, and its CPU time
    // over the slowdown around the sample. Each sample repeats set-up
    // `batch` times, sized from the sample before.
    let mut setups = Vec::new();
    let mut norm_setups = Vec::new();
    let mut batch = 1u32;
    let mut time_setup = |w: &mut dyn Workload, gauge: &mut Gauge| -> Result<f64, String> {
        let (wall, cpu) = (Instant::now(), calibrate::now_s());
        for _ in 0..batch {
            w.setup(seed)?;
        }
        let cpu = (calibrate::now_s() - cpu) / f64::from(batch);
        let wall = wall.elapsed().as_secs_f64();
        setups.push(wall / f64::from(batch));
        norm_setups.push(cpu / gauge.slowdown());
        batch = (SETUP_SAMPLE_S / cpu.max(1e-7)).ceil().min(1e4) as u32;
        // What the next sample will cost on the wall clock.
        Ok(median(&setups) * f64::from(batch))
    };
    let mut setup_cost = 0.0;
    for _ in 0..FIRST_SETUPS {
        setup_cost = time_setup(w.as_mut(), &mut gauge)?;
    }

    let mut pass_wall = 0.0;
    // Per pass: CPU seconds per item over the slowdown around the pass.
    let mut norm_costs = Vec::new();
    let mut slowdowns = Vec::new();
    let mut quality = Vec::new();
    let mut overheads = Vec::new();
    let mut traced_wall = 0.0;
    if traced {
        trace::start();
        trace::set_recording(false);
    }
    let started = Instant::now();
    let mut i = 0;
    let mut since_setup = 0.0;
    while i < spec.min_passes || started.elapsed().as_secs_f64() < seconds {
        if setup_cost < SETUP_SHARE * since_setup {
            setup_cost = time_setup(w.as_mut(), &mut gauge)?;
            since_setup = 0.0;
        }
        let pass_seed = child_seed(seed, i);
        let (t, cpu) = (Instant::now(), calibrate::now_s());
        let p = w.pass(pass_seed, false)?;
        let cpu = calibrate::now_s() - cpu;
        let wall = t.elapsed().as_secs_f64();
        let slowdown = gauge.slowdown();
        slowdowns.push(slowdown);
        norm_costs.push(cpu / slowdown / p.items.max(1) as f64);
        since_setup += wall;
        pass_wall += wall;
        run.attempted += p.items;
        run.failed += p.failed;
        if i < spec.min_passes {
            quality.push(p.quality);
        }
        if i == 0 {
            run.key = p.key.clone();
        }
        if traced {
            trace::set_recording(true);
            let t = Instant::now();
            let replica = w.pass(pass_seed, true);
            let window = t.elapsed().as_secs_f64();
            trace::set_recording(false);
            let replica = replica?;
            run.attempted += replica.items;
            run.failed += replica.failed;
            if replica.key != p.key {
                return Err(format!(
                    "{}: the traced replica of pass {i} differs from the command:\n  command: {}\n  replica: {}",
                    spec.name, p.key, replica.key
                ));
            }
            let window = window - replica.excluded_s;
            traced_wall += window;
            overheads.push(window / wall);
        }
        i += 1;
    }
    if spec.repeat_check {
        let again = w.pass(child_seed(seed, 0), false)?;
        if again.key != run.key {
            return Err(format!(
                "{}: pass 0 gave different results when repeated",
                spec.name
            ));
        }
    }

    let m = &mut run.metrics;
    if !traced {
        m.insert("setup_s".into(), (median(&norm_setups), "s"));
        // Trimmed, so a pass the kernel did not see slowed weighs nothing.
        m.insert(
            "norm_items_per_s".into(),
            (1.0 / trimmed_mean(&norm_costs, TRIM), "1/s"),
        );
        // The same on the wall clock, unnormalized: what a user waits.
        m.insert("raw_setup_s".into(), (median(&setups), "s"));
        m.insert("slowdown".into(), (median(&slowdowns), "ratio"));
        m.insert(
            "items_per_s".into(),
            (run.attempted as f64 / pass_wall, "1/s"),
        );
        m.insert("peak_rss_mb".into(), (peak_rss_mb()?, "MB"));
        m.insert(
            "result_ratio".into(),
            (quality.iter().sum::<f64>() / quality.len() as f64, "ratio"),
        );
        m.insert(
            "failed_frac".into(),
            (run.failed as f64 / run.attempted.max(1) as f64, "fraction"),
        );
        return Ok(());
    }

    let rec = trace::stop().ok_or("trace recorder vanished")?;
    let path = out_dir()?.join(format!("trace-{}.jsonl", spec.name));
    std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    let wall_ns = traced_wall * 1e9;
    let layers = rec.layers();
    let mut covered = 0.0;
    for &(name, can_fail) in LAYERS {
        let l = layers.get(name).cloned().unwrap_or_default();
        covered += l.self_ns as f64;
        m.insert(format!("{name}.calls"), (l.calls as f64, "count"));
        m.insert(format!("{name}.self_s"), (l.self_ns as f64 / 1e9, "s"));
        m.insert(
            format!("{name}.share"),
            (l.self_ns as f64 / wall_ns, "fraction"),
        );
        if let Some(p50) = l.hist.quantile(1, 2) {
            m.insert(format!("{name}.p50_us"), (p50 / 1e3, "us"));
        }
        if let Some((q, v)) = l.hist.tail() {
            m.insert(format!("{name}.tail_us"), (v / 1e3, "us"));
            m.insert(format!("{name}.tail_q"), (q, "quantile"));
        }
        if can_fail {
            m.insert(format!("{name}.failed"), (l.failed as f64, "count"));
        }
    }
    if let Some(unknown) = layers.keys().find(|k| !LAYERS.iter().any(|(n, _)| n == *k)) {
        return Err(format!("span for unlisted layer {unknown}"));
    }
    for &name in COUNTERS {
        m.insert(name.into(), (rec.counter(name) as f64, "count"));
    }
    let engine = layers.get("sim.engine");
    let events = rec.counter("sim.engine.events").max(1) as f64;
    m.insert(
        "sim.engine.ns_per_event".into(),
        (engine.map_or(0.0, |l| l.self_ns as f64) / events, "ns"),
    );
    m.insert(
        "sim.engine.allocs_per_trial".into(),
        (
            rec.counter("sim.engine.allocs") as f64 / engine.map_or(1, |l| l.calls.max(1)) as f64,
            "count",
        ),
    );
    let coverage = covered / wall_ns;
    m.insert("trace.coverage".into(), (coverage, "fraction"));
    m.insert(
        "trace.overhead".into(),
        (median(&overheads) - 1.0, "fraction"),
    );
    m.insert(
        "trace.dropped_spans".into(),
        (rec.dropped() as f64, "count"),
    );
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "{}: layer spans cover {:.1}% of the traced wall time (need {:.0}%)",
            spec.name,
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    Ok(())
}
