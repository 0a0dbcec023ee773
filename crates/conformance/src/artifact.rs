//! Reproducible counterexample artifacts.
//!
//! A counterexample is written as one flat JSON object, its strings
//! escaped by the journals' encoder ([`rds_par::wire::push_json_string`];
//! no serde in this workspace). Number arrays are encoded as comma-joined strings so the
//! object stays flat and greppable. `rds conformance --replay <file>`
//! parses the artifact back and re-runs the exact case.

use crate::case::CaseSpec;
use crate::checks::CheckKind;
use crate::registry::{Mutation, StrategyId};
use rds_core::{Error, Result};
use rds_par::wire::push_json_string;
use std::path::Path;

/// Current artifact format version.
pub const ARTIFACT_VERSION: u64 = 1;

/// One minimized, reproducible conformance failure.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The strategy that broke the invariant.
    pub strategy: StrategyId,
    /// The mutation active during the run.
    pub mutation: Mutation,
    /// Which invariant broke.
    pub check: CheckKind,
    /// Measured quantity at the violation.
    pub observed: f64,
    /// The limit it breached.
    pub limit: f64,
    /// Human-readable context from the original violation.
    pub detail: String,
    /// Master seed of the campaign that found it.
    pub seed: u64,
    /// Case index within the campaign.
    pub case_index: u64,
    /// Shrink candidate evaluations spent minimizing it.
    pub shrink_steps: u64,
    /// The minimized case.
    pub spec: CaseSpec,
}

fn join_floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:?}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_floats(s: &str) -> Option<Vec<f64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|p| p.trim().parse().ok()).collect()
}

impl Counterexample {
    /// Serializes to one flat JSON object (with trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        let field = |out: &mut String, key: &str, first: bool| {
            if !first {
                out.push(',');
            }
            push_json_string(out, key);
            out.push(':');
        };
        field(&mut out, "version", true);
        out.push_str(&ARTIFACT_VERSION.to_string());
        field(&mut out, "kind", false);
        push_json_string(&mut out, "rds-conformance-counterexample");
        field(&mut out, "strategy", false);
        push_json_string(&mut out, &self.strategy.name());
        field(&mut out, "mutation", false);
        push_json_string(&mut out, self.mutation.as_str());
        field(&mut out, "check", false);
        push_json_string(&mut out, self.check.as_str());
        field(&mut out, "observed", false);
        out.push_str(&format!("{:?}", self.observed));
        field(&mut out, "limit", false);
        out.push_str(&format!("{:?}", self.limit));
        field(&mut out, "detail", false);
        push_json_string(&mut out, &self.detail);
        field(&mut out, "seed", false);
        out.push_str(&self.seed.to_string());
        field(&mut out, "case_index", false);
        out.push_str(&self.case_index.to_string());
        field(&mut out, "shrink_steps", false);
        out.push_str(&self.shrink_steps.to_string());
        field(&mut out, "m", false);
        out.push_str(&self.spec.m.to_string());
        field(&mut out, "alpha", false);
        out.push_str(&format!("{:?}", self.spec.alpha));
        field(&mut out, "estimates", false);
        push_json_string(&mut out, &join_floats(&self.spec.estimates));
        field(&mut out, "factors", false);
        push_json_string(&mut out, &join_floats(&self.spec.factors));
        out.push_str("}\n");
        out
    }

    /// Parses a serialized counterexample.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on malformed JSON or missing fields.
    pub fn parse(s: &str) -> Result<Counterexample> {
        let fields = parse_flat_object(s.trim()).ok_or(Error::InvalidParameter {
            what: "counterexample artifact is not a flat JSON object",
        })?;
        let get = |key: &str| -> Result<&str> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .ok_or(Error::InvalidParameter {
                    what: "counterexample artifact is missing a required field",
                })
        };
        fn bad<E>(_: E) -> Error {
            Error::InvalidParameter {
                what: "counterexample artifact has a malformed field",
            }
        }
        let strategy = StrategyId::parse(get("strategy")?).ok_or(Error::InvalidParameter {
            what: "counterexample artifact names an unknown strategy",
        })?;
        let mutation = Mutation::parse(get("mutation")?).ok_or(Error::InvalidParameter {
            what: "counterexample artifact names an unknown mutation",
        })?;
        let check = CheckKind::parse(get("check")?).ok_or(Error::InvalidParameter {
            what: "counterexample artifact names an unknown check",
        })?;
        let estimates = parse_floats(get("estimates")?).ok_or(Error::InvalidParameter {
            what: "counterexample artifact has malformed estimates",
        })?;
        let factors = parse_floats(get("factors")?).ok_or(Error::InvalidParameter {
            what: "counterexample artifact has malformed factors",
        })?;
        Ok(Counterexample {
            strategy,
            mutation,
            check,
            observed: get("observed")?.parse().map_err(bad)?,
            limit: get("limit")?.parse().map_err(bad)?,
            detail: get("detail")?.to_string(),
            seed: get("seed")?.parse().map_err(bad)?,
            case_index: get("case_index")?.parse().map_err(bad)?,
            shrink_steps: get("shrink_steps")?.parse().map_err(bad)?,
            spec: CaseSpec {
                estimates,
                m: get("m")?.parse().map_err(bad)?,
                alpha: get("alpha")?.parse().map_err(bad)?,
                factors,
            },
        })
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    /// [`Error::Io`] on filesystem failures.
    pub fn write(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_json()).map_err(|e| Error::Io {
            op: "write",
            path: path.display().to_string(),
            why: e.to_string(),
        })
    }
}

/// Parses a single-level JSON object of string/number values into
/// `(key, raw value)` pairs (strings are unescaped, numbers kept as
/// text). Not the journals' [`rds_par::wire::parse_flat_object`]: that
/// one rejects the `NaN` number tokens artifacts write for violations
/// without a measured quantity.
fn parse_flat_object(s: &str) -> Option<Vec<(String, String)>> {
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    let chars: Vec<char> = inner.chars().collect();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < chars.len() && chars[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Option<String> {
        if chars.get(*i) != Some(&'"') {
            return None;
        }
        *i += 1;
        let mut s = String::new();
        while *i < chars.len() {
            match chars[*i] {
                '"' => {
                    *i += 1;
                    return Some(s);
                }
                '\\' => {
                    *i += 1;
                    match chars.get(*i)? {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        'n' => s.push('\n'),
                        'r' => s.push('\r'),
                        't' => s.push('\t'),
                        'u' => {
                            let code: String = chars.get(*i + 1..*i + 5)?.iter().collect();
                            let v = u32::from_str_radix(&code, 16).ok()?;
                            s.push(char::from_u32(v)?);
                            *i += 4;
                        }
                        _ => return None,
                    }
                    *i += 1;
                }
                c => {
                    s.push(c);
                    *i += 1;
                }
            }
        }
        None
    };
    loop {
        skip_ws(&mut i);
        if i >= chars.len() {
            break;
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if chars.get(i) != Some(&':') {
            return None;
        }
        i += 1;
        skip_ws(&mut i);
        let value = if chars.get(i) == Some(&'"') {
            parse_string(&mut i)?
        } else {
            let start = i;
            while i < chars.len() && chars[i] != ',' {
                i += 1;
            }
            chars[start..i]
                .iter()
                .collect::<String>()
                .trim()
                .to_string()
        };
        out.push((key, value));
        skip_ws(&mut i);
        match chars.get(i) {
            Some(',') => i += 1,
            None => break,
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counterexample {
        Counterexample {
            strategy: StrategyId::LsGroup(2),
            mutation: Mutation::DropReplica,
            check: CheckKind::GuaranteeRatio,
            observed: 4.0,
            limit: 2.6666666666666665,
            detail: "makespan 4 exceeds guarantee \"bound\"\n".into(),
            seed: 42,
            case_index: 17,
            shrink_steps: 23,
            spec: CaseSpec {
                estimates: vec![1.0, 2.5, 0.1],
                m: 2,
                alpha: 1.5,
                factors: vec![1.5, 1.0, 0.6666666666666666],
            },
        }
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let ce = sample();
        let parsed = Counterexample::parse(&ce.to_json()).unwrap();
        assert_eq!(parsed.strategy, ce.strategy);
        assert_eq!(parsed.mutation, ce.mutation);
        assert_eq!(parsed.check, ce.check);
        assert_eq!(parsed.observed.to_bits(), ce.observed.to_bits());
        assert_eq!(parsed.limit.to_bits(), ce.limit.to_bits());
        assert_eq!(parsed.detail, ce.detail);
        assert_eq!(parsed.seed, ce.seed);
        assert_eq!(parsed.case_index, ce.case_index);
        assert_eq!(parsed.shrink_steps, ce.shrink_steps);
        assert_eq!(parsed.spec, ce.spec);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rds-conformance-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ce.json");
        let ce = sample();
        ce.write(&path).unwrap();
        let back = Counterexample::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.spec, ce.spec);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_malformed_artifacts() {
        assert!(Counterexample::parse("not json").is_err());
        assert!(Counterexample::parse("{}").is_err());
        let mangled = sample().to_json().replace("ls-group-2", "who-knows");
        assert!(Counterexample::parse(&mangled).is_err());
    }
}
