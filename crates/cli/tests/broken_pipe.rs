//! A reader that closes the pipe early (`rds plan ... | head -1`) ends
//! the output, not the run: `rds` says nothing about the pipe, its gates
//! still decide the exit code, and `--metrics` is still written.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

const RDS: &str = env!("CARGO_BIN_EXE_rds");

/// Runs `rds args`, reads the first line of its stdout, closes the pipe
/// and waits for the process. Every command line here prints well over a
/// 64 KB pipe buffer, so `rds` is still writing when the pipe closes.
fn close_after_first_line(args: &[&str]) -> (String, Output) {
    let mut child = Command::new(RDS)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader went out of scope above, which closed the pipe.
    (first, child.wait_with_output().unwrap())
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn closed_stdout_ends_the_output_not_the_run() {
    // About 1.2 MB of table. The metrics file is written after the
    // table has gone nowhere.
    let path = std::env::temp_dir().join(format!("rds-broken-pipe-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (first, out) = close_after_first_line(&[
        "plan",
        "--m",
        "50",
        "--n",
        "20000",
        "--alpha",
        "1.5",
        "--metrics",
        path.to_str().unwrap(),
    ]);
    assert!(
        first.contains("n = 20000"),
        "unexpected first line {first:?}"
    );
    assert!(
        out.status.success(),
        "exit {:?}, stderr {:?}",
        out.status.code(),
        stderr(&out)
    );
    assert!(out.stderr.is_empty(), "stderr: {}", stderr(&out));
    let metrics = std::fs::read_to_string(&path).unwrap();
    assert!(metrics.starts_with("{\"counters\""), "metrics: {metrics}");
    std::fs::remove_file(&path).unwrap();

    // About 120 KB of Gantt chart comes before the --min-survival check,
    // which fails: no policy survives mtbf = 1.
    let (_, out) = close_after_first_line(&[
        "resilience",
        "--m",
        "1000",
        "--n",
        "2000",
        "--mtbf",
        "1",
        "--reps",
        "1",
        "--gantt",
        "--min-survival",
        "0.999",
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr {:?}", stderr(&out));
    assert!(
        stderr(&out).starts_with("error: survival gate failed"),
        "stderr: {}",
        stderr(&out)
    );
}
