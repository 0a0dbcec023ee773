//! Every registered artifact renders, byte for byte, what `results/`
//! holds.
//!
//! A change to an algorithm, the engine, the solver or the RNG that moves
//! a paper number fails here. Regenerate from the repository root with
//! `cargo run --release -p rds-bench --bin artifacts` and commit the
//! diff, which shows the moved number.

use rds_bench::artifacts::REGISTRY;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Committed files no entry renders: bench JSON, and the example outputs
/// that CI regenerates from the cargo examples.
fn exempt(name: &str) -> bool {
    (name.starts_with("BENCH_") && name.ends_with(".json"))
        || (name.starts_with("example_") && name.ends_with(".txt"))
}

/// Where `rendered` first departs from `committed`.
fn first_difference(rendered: &str, committed: &str) -> String {
    let (r, c): (Vec<&str>, Vec<&str>) = (
        rendered.split('\n').collect(),
        committed.split('\n').collect(),
    );
    match r.iter().zip(&c).position(|(a, b)| a != b) {
        Some(i) => format!(
            "line {}:\n  rendered:  {:?}\n  committed: {:?}",
            i + 1,
            r[i],
            c[i]
        ),
        None => format!(
            "line {}: rendered {} lines, committed {}",
            r.len().min(c.len()) + 1,
            r.len(),
            c.len()
        ),
    }
}

#[test]
fn ids_and_stems_are_unique() {
    let ids: BTreeSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
    let stems: BTreeSet<&str> = REGISTRY.iter().map(|e| e.stem).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "duplicate experiment id");
    assert_eq!(stems.len(), REGISTRY.len(), "duplicate file stem");
}

#[test]
fn every_artifact_matches_results_byte_for_byte() {
    let dir = results_dir();
    let mut failures = Vec::new();
    let mut rendered = BTreeSet::new();
    for entry in REGISTRY {
        let files = entry
            .files()
            .unwrap_or_else(|e| panic!("{} failed to render: {e}", entry.id));
        for (name, contents) in files {
            assert!(
                rendered.insert(name.clone()),
                "{}: {name} is rendered by two entries",
                entry.id
            );
            match std::fs::read_to_string(dir.join(&name)) {
                Ok(committed) if committed == contents => {}
                Ok(committed) => failures.push(format!(
                    "{} results/{name} differs at {}",
                    entry.id,
                    first_difference(&contents, &committed)
                )),
                Err(e) => failures.push(format!(
                    "{} renders results/{name}, which is not committed: {e}",
                    entry.id
                )),
            }
        }
    }
    for file in std::fs::read_dir(&dir).expect("results/ is readable") {
        let name = file.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        if !exempt(&name) && !rendered.contains(name.as_ref()) {
            failures.push(format!("results/{name} is rendered by no entry"));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n\nregenerate with `cargo run --release -p rds-bench --bin artifacts` \
         from the repository root",
        failures.join("\n")
    );
}

/// A scratch working directory for one binary run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rds-artifacts-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn unknown_id_exits_2_and_lists_the_ids() {
    let dir = scratch("unknown");
    let out = Command::new(env!("CARGO_BIN_EXE_artifacts"))
        .args(["T1", "Z9"])
        .current_dir(&dir)
        .output()
        .expect("artifacts runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("`Z9`"), "{stderr}");
    for entry in REGISTRY {
        assert!(
            stderr.contains(entry.id),
            "{} missing from: {stderr}",
            entry.id
        );
    }
    assert!(
        !dir.join("results").exists(),
        "nothing is written on a usage error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_write_exits_1() {
    let dir = scratch("unwritable");
    // A directory where the report should go makes its write fail.
    std::fs::create_dir_all(dir.join("results/table1_guarantees.txt")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_artifacts"))
        .arg("T1")
        .current_dir(&dir)
        .output()
        .expect("artifacts runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write results/table1_guarantees.txt"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
