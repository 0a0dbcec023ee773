//! `BENCHMARK.json`, the benchmark's declaration: workloads, metrics,
//! units, directions and regression bounds. The harness reads it rather
//! than repeating it, so the two cannot drift apart.

use crate::json::{self, Value};

/// Where the declaration lives: the repository root, one level above
/// this package.
const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Benchmark {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    doc.get(key)
        .ok_or_else(|| format!("BENCHMARK.json has no {key:?}"))?
        .as_arr()
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(String::from)
                    .ok_or_else(|| format!("a {key} metric lacks {f:?}"))
            };
            Ok(MetricDef {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Parses a `BENCHMARK.json` document.
///
/// # Errors
/// When a section or field is missing.
pub fn parse(text: &str) -> Result<Benchmark, String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .ok_or("BENCHMARK.json has no \"workloads\"")?
        .as_arr()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| "a workload lacks \"name\"".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Benchmark {
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// Loads the repository's `BENCHMARK.json`.
///
/// # Errors
/// When the file is missing or malformed.
pub fn load() -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
    parse(&text)
}
