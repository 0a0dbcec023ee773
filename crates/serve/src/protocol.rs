//! A line protocol over the daemon — the socket-less "simple
//! line-protocol mode" of `rds serve --stdin`.
//!
//! One command per line, one reply per line:
//!
//! | command        | effect                                            |
//! |----------------|---------------------------------------------------|
//! | `task <est>`   | offer an arrival now → `ok <seq> …` / `reject <why>` |
//! | `step <dt>`    | advance the virtual clock by `dt`, running events |
//! | `stat`         | print a liveness/readiness line                   |
//! | `drain`        | close intake, run down, print summary, exit       |
//! | `quit`         | stop immediately without draining (crash-like)    |
//!
//! The protocol is transport-agnostic (`BufRead` in, `Write` out) so
//! tests drive it with in-memory buffers and the CLI with stdio.

use std::io::{BufRead, Write};

use rds_core::{Error, Result};

use crate::daemon::{Daemon, ServeReport};
use crate::overload::Admission;

fn io_err(e: &std::io::Error) -> Error {
    Error::Io {
        op: "protocol",
        path: "<stream>".to_string(),
        why: e.to_string(),
    }
}

/// Runs the protocol until `drain`/`quit`/EOF (EOF drains gracefully —
/// closing stdin is a clean shutdown). Lines end at `\n`, with a
/// trailing `\r` stripped as [`BufRead::lines`] does; a line that is not
/// UTF-8 gets an `err` reply like any other bad command.
///
/// # Errors
/// Stream I/O failures, journal failures, or daemon invariant errors.
pub fn serve_lines<R: BufRead, W: Write>(
    daemon: &mut Daemon,
    mut input: R,
    mut out: W,
) -> Result<ServeReport> {
    daemon.external_arrivals();
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if input.read_until(b'\n', &mut raw).map_err(|e| io_err(&e))? == 0 {
            break;
        }
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            writeln!(out, "err line is not valid UTF-8").map_err(|e| io_err(&e))?;
            continue;
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            None => {}
            Some("task") => match parts.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(est) => match daemon.offer(est) {
                    Ok(Admission::Admitted(seq)) => {
                        let h = daemon.health();
                        writeln!(out, "ok {seq} state={} depth={}", h.state.label(), h.depth)
                            .map_err(|e| io_err(&e))?;
                    }
                    Ok(Admission::Rejected(r)) => {
                        writeln!(out, "reject {}", r.label()).map_err(|e| io_err(&e))?;
                    }
                    Err(e) => {
                        writeln!(out, "err {e}").map_err(|e| io_err(&e))?;
                    }
                },
                None => {
                    writeln!(out, "err task needs a numeric estimate").map_err(|e| io_err(&e))?;
                }
            },
            Some("step") => match parts.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(dt) if dt.is_finite() && dt >= 0.0 => {
                    daemon.step_until(daemon.now() + dt)?;
                    let h = daemon.health();
                    writeln!(
                        out,
                        "t={:.3} depth={} running={}",
                        h.now, h.depth, h.running
                    )
                    .map_err(|e| io_err(&e))?;
                }
                _ => {
                    writeln!(out, "err step needs a non-negative duration")
                        .map_err(|e| io_err(&e))?;
                }
            },
            Some("stat") => {
                writeln!(out, "{}", daemon.health().line()).map_err(|e| io_err(&e))?;
            }
            Some("drain") => {
                let report = daemon.drain_now()?;
                writeln!(
                    out,
                    "drained t={:.3} admitted={} completed={} shed={} failed={}",
                    report.makespan, report.admitted, report.completed, report.shed, report.failed
                )
                .map_err(|e| io_err(&e))?;
                return Ok(report);
            }
            Some("quit") => {
                writeln!(out, "bye").map_err(|e| io_err(&e))?;
                return daemon.drain_now();
            }
            Some(other) => {
                writeln!(out, "err unknown command: {other}").map_err(|e| io_err(&e))?;
            }
        }
    }
    daemon.drain_now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;

    fn daemon() -> Daemon {
        let mut cfg = ServeConfig::poisson(2, 1, 1.0, 0);
        cfg.count = 0;
        Daemon::new(cfg).unwrap()
    }

    fn drive(input: &str) -> (ServeReport, String) {
        let mut d = daemon();
        let mut out = Vec::new();
        let report = serve_lines(&mut d, input.as_bytes(), &mut out).unwrap();
        (report, String::from_utf8(out).unwrap())
    }

    #[test]
    fn tasks_step_and_drain() {
        let (report, out) = drive("task 1.0\ntask 2.0\nstep 0.5\nstat\ndrain\n");
        assert_eq!(report.admitted, 2);
        assert_eq!(report.completed, 2);
        assert!(out.contains("ok 0"));
        assert!(out.contains("ok 1"));
        assert!(out.contains("t=0.500"));
        assert!(out.contains("state=accepting"));
        assert!(out.contains("drained"));
    }

    #[test]
    fn bad_input_gets_err_lines_not_panics() {
        let (report, out) = drive("task\ntask abc\nstep -1\nfoo\ntask -3\ndrain\n");
        assert_eq!(report.admitted, 0);
        assert_eq!(out.matches("err").count(), 5);
    }

    #[test]
    fn non_utf8_line_gets_err_and_the_run_goes_on() {
        let mut d = daemon();
        let mut out = Vec::new();
        let input: &[u8] = b"stat\r\n\xff\xfe\nstat\ndrain\n";
        let report = serve_lines(&mut d, input, &mut out).unwrap();
        assert!(!report.halted);
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert_eq!(lines[1], "err line is not valid UTF-8");
        assert!(lines[3].starts_with("drained"), "{out}");
    }

    #[test]
    fn eof_drains_cleanly() {
        let (report, _) = drive("task 1.0\n");
        assert_eq!(report.admitted, 1);
        assert_eq!(report.completed, 1);
        assert!(!report.halted);
    }
}
