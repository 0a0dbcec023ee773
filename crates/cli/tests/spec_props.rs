//! Property tests on the `--speeds` and `--topology` spec parsers and on
//! `rds serve`'s `--trace-file`: any spec string given to `rds sweep`, and
//! any bytes in a trace file, either run or are rejected with a typed
//! usage error (`ArgError`, exit code 2). They never panic and never fail
//! as a runtime error.

use proptest::prelude::*;
use rds_cli::ArgError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `(head, arity)` of every `--speeds` form, and one unknown head.
const SPEED_FORMS: &[(&str, usize)] = &[("unit", 0), ("uniform", 2), ("two-class", 3), ("warp", 1)];

/// `(head, arity)` of every `--topology` form, and one unknown head.
const TOPOLOGY_FORMS: &[(&str, usize)] = &[
    ("zero", 0),
    ("uniform", 1),
    ("clustered", 3),
    ("random", 2),
    ("warp", 1),
];

/// Components inside most domains.
const PLAIN: &[&str] = &["0", "1", "2", "3", "0.5", "1.5", "0.25"];

/// Components at and beyond each domain edge: negatives, subnormals,
/// overflow, NaN, infinities, a zone count past `usize::MAX`, padding,
/// and text that is no number.
const EDGES: &[&str] = &[
    "-1",
    "-0",
    "1e-320",
    "2.2e-308",
    "1e-300",
    "1e308",
    "1.7976931348623157e308",
    "18446744073709551616",
    "nan",
    "inf",
    "-inf",
    " 2 ",
    "",
    "x",
    "1:2",
];

/// Stray characters, spliced into otherwise well-formed specs.
const NOISE: &[&str] = &[":", ",", " ", "é", "🦀", "\u{0}", "--", "=", "\n"];

/// Mostly `<head>:<x>,<y>,...` specs over `forms` with the form's arity
/// and a third of the components at a domain edge, so every domain check
/// is reached; otherwise a wrong arity, a stray character spliced in, or
/// a string of arbitrary Unicode scalar values.
fn spec(forms: &'static [(&'static str, usize)]) -> impl Strategy<Value = String> {
    (
        (0..forms.len(), 0u8..8, 0usize..5),
        prop::collection::vec((0..PLAIN.len(), 0..EDGES.len(), 0u8..3), 5),
        (0..NOISE.len(), any::<usize>()),
        prop::collection::vec(any::<u32>(), 0..12),
    )
        .prop_map(move |((form, kind, count), parts, (noise, at), raw)| {
            if kind == 0 {
                return raw.into_iter().filter_map(char::from_u32).collect();
            }
            let (head, arity) = forms[form];
            let count = if kind <= 2 { count } else { arity };
            let parts: Vec<&str> = parts[..count]
                .iter()
                .map(|&(plain, edge, pick)| if pick == 0 { EDGES[edge] } else { PLAIN[plain] })
                .collect();
            let mut spec = head.to_string();
            if count > 0 {
                spec.push(':');
                spec.push_str(&parts.join(","));
            }
            if kind == 1 {
                let at = spec
                    .char_indices()
                    .map(|(i, _)| i)
                    .nth(at % (spec.chars().count() + 1))
                    .unwrap_or(spec.len());
                spec.insert_str(at, NOISE[noise]);
            }
            spec
        })
}

/// Trace-file tokens: arrival times inside and outside the trace domain,
/// and text that is no number.
const TRACE_TOKENS: &[&str] = &[
    "0", "0.5", "1", "2.5", "10", "1e3", "-1", "-0", "nan", "inf", "1e308", "x", "é",
];

/// Separators between trace tokens, empty runs included.
const TRACE_SEPARATORS: &[&str] = &[",", " ", "\n", "\t", ", ", "\r\n", ",,"];

/// Trace-file bytes: arbitrary bytes, tokens in any order, tokens with
/// arbitrary bytes spliced in, or a non-decreasing trace that runs.
fn trace_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        (0u8..4, any::<usize>()),
        prop::collection::vec((0..TRACE_TOKENS.len(), 0..TRACE_SEPARATORS.len()), 0..12),
        prop::collection::vec(0u8..=255, 0..24),
    )
        .prop_map(|((kind, at), tokens, raw)| {
            if kind == 0 {
                return raw;
            }
            let mut bytes = Vec::new();
            let mut time = 0.0;
            for (token, sep) in tokens {
                if kind == 3 {
                    time += token as f64 * 0.5;
                    bytes.extend(time.to_string().bytes());
                } else {
                    bytes.extend(TRACE_TOKENS[token].bytes());
                }
                bytes.extend(TRACE_SEPARATORS[sep].bytes());
            }
            if kind == 2 {
                let at = at % (bytes.len() + 1);
                bytes.splice(at..at, raw);
            }
            bytes
        })
}

/// Runs `rds <argv>`; panics with the arguments unless the run succeeds
/// or fails with an [`ArgError`].
fn runs_or_is_a_usage_error(argv: &[String]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut out = Vec::new();
        rds_cli::run(argv, &mut out)
    }));
    match outcome {
        Err(_) => panic!("rds {argv:?} panicked"),
        Ok(Ok(())) => {}
        Ok(Err(e)) => assert!(
            e.downcast_ref::<ArgError>().is_some(),
            "rds {argv:?} failed with a runtime error, not a usage error: {e}"
        ),
    }
}

/// Runs `rds sweep --m 4 --n 8 --reps 1` plus `extra`.
fn sweep_runs_or_is_a_usage_error(extra: &[(&str, &str)]) {
    let mut argv: Vec<String> = ["sweep", "--m", "4", "--n", "8", "--reps", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for (key, value) in extra {
        argv.push(format!("--{key}"));
        argv.push(value.to_string());
    }
    runs_or_is_a_usage_error(&argv);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn arbitrary_hetero_specs_run_or_are_usage_errors(
        speeds in spec(SPEED_FORMS),
        topology in spec(TOPOLOGY_FORMS),
    ) {
        sweep_runs_or_is_a_usage_error(&[("speeds", &speeds)]);
        sweep_runs_or_is_a_usage_error(&[("topology", &topology)]);
        sweep_runs_or_is_a_usage_error(&[("speeds", &speeds), ("topology", &topology)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_trace_files_run_or_are_usage_errors(bytes in trace_bytes()) {
        let path = std::env::temp_dir().join(format!("rds-cli-trace-prop-{}", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let argv: Vec<String> = ["serve", "--m", "2", "--arrivals", "trace", "--trace-file"]
            .iter()
            .map(|s| s.to_string())
            .chain([path.to_string_lossy().into_owned()])
            .collect();
        runs_or_is_a_usage_error(&argv);
        std::fs::remove_file(&path).ok();
    }
}
