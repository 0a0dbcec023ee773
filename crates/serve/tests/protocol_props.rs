//! The `rds serve --stdin` line protocol on arbitrary bytes: it never
//! panics, answers each non-blank line before `drain` or `quit` with
//! exactly one reply, and ends with the daemon drained.

use proptest::prelude::*;
use rds_serve::{serve_lines, Daemon, ServeConfig};

/// One input line: a command, whitespace, or raw bytes (which may hold
/// invalid UTF-8, `\r` and further newlines).
fn line_strategy() -> impl Strategy<Value = Vec<u8>> {
    (0u8..9, prop::collection::vec(0u8..=255, 0..8), 0.0f64..4.0).prop_map(|(kind, bytes, x)| {
        match kind {
            0 | 1 => bytes,
            2 => format!("task {x}").into_bytes(),
            3 => format!("step {x}").into_bytes(),
            4 => b"stat".to_vec(),
            5 => b" \t ".to_vec(),
            6 => [b"task ".as_slice(), &bytes].concat(),
            7 => [bytes.as_slice(), b"\xff\xfe"].concat(),
            _ => (if x < 2.0 { "drain" } else { "quit" }).into(),
        }
    })
}

/// The replies the protocol owes `input`: one per non-blank line, up to
/// and including the first `drain` or `quit`, and that command if any.
fn owed(input: &[u8]) -> (usize, Option<&'static str>) {
    let mut lines: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
    if input.ends_with(b"\n") || input.is_empty() {
        lines.pop();
    }
    let mut replies = 0;
    for line in lines {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        match std::str::from_utf8(line).map(|s| s.split_whitespace().next()) {
            Ok(None) => {}
            Ok(Some(cmd @ ("drain" | "quit"))) => {
                return (
                    replies + 1,
                    Some(if cmd == "drain" { "drain" } else { "quit" }),
                );
            }
            _ => replies += 1,
        }
    }
    (replies, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn every_non_blank_line_gets_exactly_one_reply(
        lines in prop::collection::vec(line_strategy(), 0..16),
        crlf in any::<bool>(),
        trailing in any::<bool>(),
    ) {
        let sep: &[u8] = if crlf { b"\r\n" } else { b"\n" };
        let mut input = lines.join(sep);
        if trailing {
            input.extend_from_slice(sep);
        }
        let mut cfg = ServeConfig::poisson(2, 1, 1.0, 0);
        cfg.count = 0;
        let mut daemon = Daemon::new(cfg).unwrap();
        let mut out = Vec::new();
        let report = serve_lines(&mut daemon, input.as_slice(), &mut out);
        prop_assert!(report.is_ok(), "{report:?}");
        let out = String::from_utf8(out).unwrap();
        let (replies, stop) = owed(&input);
        prop_assert_eq!(out.lines().count(), replies, "{:?}\n{}", String::from_utf8_lossy(&input), out);
        let last = out.lines().last().unwrap_or("");
        match stop {
            Some("drain") => prop_assert!(last.starts_with("drained "), "{}", out),
            Some(_) => prop_assert_eq!(last, "bye"),
            None => {}
        }
    }
}
