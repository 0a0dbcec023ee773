//! `Counterexample::parse`, the reader behind `rds conformance
//! --replay`, on arbitrary bytes: each input gives a typed error or a
//! counterexample that round-trips cleanly, never a panic.
//!
//! Random bytes alone almost never come near an artifact, so most inputs
//! are a real artifact with a few bytes overwritten, inserted or cut.

use proptest::prelude::*;
use rds_conformance::{CaseSpec, CheckKind, Counterexample, Mutation, StrategyId};
use rds_core::Error;

/// A well-formed artifact whose detail string needs escaping.
fn artifact() -> String {
    Counterexample {
        strategy: StrategyId::LsGroup(2),
        mutation: Mutation::DropReplica,
        check: CheckKind::GuaranteeRatio,
        observed: 2.5,
        limit: f64::NAN,
        detail: "makespan 2.5 > \"bound\"\\ 2.4\n\tµ".to_string(),
        seed: 42,
        case_index: 7,
        shrink_steps: 3,
        spec: CaseSpec {
            estimates: vec![3.0, 1.5, -0.0],
            m: 2,
            alpha: 1.5,
            factors: vec![1.0, 0.75, 1e-300],
        },
    }
    .to_json()
}

/// `(kind, edits, noise)`: random bytes, or the artifact with up to
/// eight bytes overwritten, inserted or cut, or cut short.
fn input() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..4,
        prop::collection::vec((0usize..3, any::<usize>(), 0u8..=255), 1..=8),
        prop::collection::vec(0u8..=255, 0..=160),
    )
        .prop_map(|(kind, edits, noise)| {
            let mut bytes = artifact().into_bytes();
            match kind {
                0 => return noise,
                1 => {
                    let cut = edits[0].1 % bytes.len();
                    bytes.truncate(cut);
                }
                _ => {
                    for (op, at, byte) in edits {
                        let at = at % (bytes.len() + 1);
                        match op {
                            0 if at < bytes.len() => bytes[at] = byte,
                            1 => bytes.insert(at, byte),
                            _ if at < bytes.len() => {
                                bytes.remove(at);
                            }
                            _ => {}
                        }
                    }
                }
            }
            bytes
        })
}

#[test]
fn the_pristine_artifact_round_trips() {
    let text = artifact();
    let ce = Counterexample::parse(&text).unwrap();
    assert_eq!(ce.to_json(), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn arbitrary_bytes_give_a_typed_error_or_a_clean_round_trip(bytes in input()) {
        // `--replay` reads the file as UTF-8 text first and rejects bytes
        // that are not text, so the parser only ever sees text.
        let text = String::from_utf8_lossy(&bytes);
        match Counterexample::parse(&text) {
            Err(Error::InvalidParameter { .. }) => {}
            Err(other) => panic!("untyped error {other:?} for {text:?}"),
            Ok(ce) => {
                // What parses writes back out as an artifact that parses
                // to itself.
                let json = ce.to_json();
                let again = Counterexample::parse(&json).unwrap();
                prop_assert_eq!(again.to_json(), json, "from {:?}", text);
            }
        }
    }
}
