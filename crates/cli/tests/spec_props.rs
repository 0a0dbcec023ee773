//! Property tests on the `--speeds` and `--topology` spec parsers: any
//! string given to `rds sweep` either runs or is rejected with a typed
//! usage error (`ArgError`, exit code 2). It never panics and never
//! fails as a runtime error.

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

/// Runs `rds sweep --m 4 --n 8 --reps 1` plus `extra`; panics with the
/// arguments unless the run succeeds or fails with an [`ArgError`].
fn sweep_runs_or_is_a_usage_error(extra: &[(&str, &str)]) {
    let mut argv: Vec<String> = ["sweep", "--m", "4", "--n", "8", "--reps", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for (key, value) in extra {
        argv.push(format!("--{key}"));
        argv.push(value.to_string());
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut out = Vec::new();
        rds_cli::run(&argv, &mut out)
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
