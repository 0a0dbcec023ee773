//! Writes the paper's tables and figures under `results/`.
//!
//! `artifacts [ID…]` renders the registry entries with the given
//! DESIGN §3 ids (`T1`, `F3E`, `A4`, …), or all of them when none is
//! given, and writes `results/<stem>.txt` plus each figure. Run it from
//! the repository root:
//!
//! `cargo run --release -p rds-bench --bin artifacts [ID…]`
//!
//! Exits 2 on an unknown id and 1 when a render or a write fails.

use rds_bench::artifacts::{Entry, REGISTRY};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut selected = Vec::new();
    for id in std::env::args().skip(1) {
        let Some(entry) = REGISTRY.iter().find(|e| e.id == id) else {
            let known: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
            eprintln!(
                "artifacts: unknown id `{id}`; known ids: {}",
                known.join(" ")
            );
            return ExitCode::from(2);
        };
        selected.push(entry);
    }
    if selected.is_empty() {
        selected = REGISTRY.iter().collect();
    }
    match write(&selected) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("artifacts: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders `entries` and writes their files under `results/`.
fn write(entries: &[&Entry]) -> Result<(), String> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for entry in entries {
        let files = entry
            .files()
            .map_err(|e| format!("{} failed: {e}", entry.id))?;
        for (name, contents) in files {
            let path = dir.join(name);
            rds_report::write_atomic_str(&path, &contents)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
    }
    Ok(())
}
