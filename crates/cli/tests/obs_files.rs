//! What `--metrics` and `--trace-out` leave behind when a run fails, and
//! the spans `rds conformance` records per case.
//!
//! A run that fails a gate after doing its work still writes both files
//! and keeps its exit code 1; a usage error exits 2 before any work and
//! writes neither.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const RDS: &str = env!("CARGO_BIN_EXE_rds");

/// Runs `rds args` with stdin closed.
fn rds(args: &[&str]) -> Output {
    Command::new(RDS)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory for one test's files.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rds-obs-files-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// A minimal JSON reader: `true` when `text` is exactly one JSON value.
fn is_json(text: &str) -> bool {
    fn ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn string(b: &[u8], mut i: usize) -> Option<usize> {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        i += 1;
        loop {
            match *b.get(i)? {
                b'"' => return Some(i + 1),
                b'\\' => i += 2,
                c if c < 0x20 => return None,
                _ => i += 1,
            }
        }
    }
    fn value(b: &[u8], i: usize) -> Option<usize> {
        let i = ws(b, i);
        match *b.get(i)? {
            b'{' | b'[' => {
                let (close, keyed) = if b[i] == b'{' {
                    (b'}', true)
                } else {
                    (b']', false)
                };
                let mut i = ws(b, i + 1);
                if b.get(i) == Some(&close) {
                    return Some(i + 1);
                }
                loop {
                    if keyed {
                        i = ws(b, string(b, ws(b, i))?);
                        if b.get(i) != Some(&b':') {
                            return None;
                        }
                        i += 1;
                    }
                    i = ws(b, value(b, i)?);
                    match *b.get(i)? {
                        b',' => i += 1,
                        c if c == close => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'"' => string(b, i),
            b't' => literal(b, i, "true"),
            b'f' => literal(b, i, "false"),
            b'n' => literal(b, i, "null"),
            _ => number(b, i),
        }
    }
    fn literal(b: &[u8], i: usize, word: &str) -> Option<usize> {
        b[i..]
            .starts_with(word.as_bytes())
            .then_some(i + word.len())
    }
    fn digits(b: &[u8], i: usize) -> Option<usize> {
        let end = (i..b.len())
            .find(|&k| !b[k].is_ascii_digit())
            .unwrap_or(b.len());
        (end > i).then_some(end)
    }
    fn number(b: &[u8], mut i: usize) -> Option<usize> {
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        i = digits(b, i)?;
        if b.get(i) == Some(&b'.') {
            i = digits(b, i + 1)?;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            i = digits(b, i)?;
        }
        Some(i)
    }
    let b = text.as_bytes();
    value(b, 0).is_some_and(|end| ws(b, end) == b.len())
}

#[test]
fn the_json_reader_accepts_json_and_only_json() {
    for good in [
        "{}",
        "[]",
        r#"{"a": [1, -2.5e3, "x\"y", true, null], "b": {}}"#,
        " 0 ",
    ] {
        assert!(is_json(good), "{good}");
    }
    for bad in [
        "",
        "{",
        r#"{"a" 1}"#,
        "[1,]",
        "nan",
        "{} {}",
        r#"{"a": inf}"#,
    ] {
        assert!(!is_json(bad), "{bad}");
    }
}

#[test]
fn a_gate_failure_exits_1_and_still_writes_what_it_measured() {
    let dir = fresh_dir("gate");
    let (metrics, trace) = (dir.join("metrics.json"), dir.join("trace.jsonl"));
    let files = [
        "--metrics",
        path_str(&metrics),
        "--trace-out",
        path_str(&trace),
    ];
    let resilience = [
        "resilience",
        "--m",
        "4",
        "--n",
        "16",
        "--mtbf",
        "2",
        "--reps",
        "5",
        "--seed",
        "3",
        "--min-survival",
        "0.999",
    ];
    let mutant = [
        "conformance",
        "--cases",
        "24",
        "--seed",
        "42",
        "--mutate",
        "drop-replica",
    ];
    for line in [&resilience[..], &mutant[..]] {
        let argv: Vec<&str> = line.iter().chain(&files).copied().collect();
        let out = rds(&argv);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {}", stderr(&out));
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(is_json(&json), "{argv:?} wrote {json}");
        assert!(json.contains("\"counters\""), "{json}");
        let spans = std::fs::read_to_string(&trace).unwrap();
        assert!(spans.lines().count() > 0, "{argv:?} traced nothing");
        assert!(spans.lines().all(is_json), "{spans}");
        std::fs::remove_file(&metrics).unwrap();
        std::fs::remove_file(&trace).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_usage_error_exits_2_and_writes_no_file() {
    let dir = fresh_dir("usage");
    let (metrics, trace) = (dir.join("metrics.json"), dir.join("trace.jsonl"));
    for line in [
        "resilience --m 4 --n 16 --mtbf 2 --reps 5 --seed 3 --min-survival 1.5",
        "conformance --cases 1 --max-n 18446744073709551615",
        "conformance --cases 1 --mutate no-such-mutant",
    ] {
        let mut argv: Vec<&str> = line.split(' ').collect();
        argv.extend([
            "--metrics",
            path_str(&metrics),
            "--trace-out",
            path_str(&trace),
        ]);
        let out = rds(&argv);
        assert_eq!(out.status.code(), Some(2), "{line}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{line} printed before failing");
        assert!(!metrics.exists() && !trace.exists(), "{line} wrote a file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conformance_traces_one_span_per_arm_and_case() {
    let dir = fresh_dir("arms");
    let trace = dir.join("t.jsonl");
    let out = rds(&[
        "conformance",
        "--cases",
        "4",
        "--trace-out",
        path_str(&trace),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let spans = std::fs::read_to_string(&trace).unwrap();
    for name in [
        "conformance.case",
        "conformance.arm.survival",
        "conformance.arm.ilp",
        "conformance.arm.hetero",
    ] {
        let tag = format!("\"name\":\"{name}\"");
        let count = spans.lines().filter(|l| l.contains(&tag)).count();
        assert_eq!(count, 4, "{name} in\n{spans}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
