//! Tiny dependency-free argument parser for the `rds` CLI.
//!
//! Supports `--key value`, `--key=value`, bare flags, and positional
//! arguments — enough for this tool without pulling a parser crate into
//! the approved dependency set.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    options: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

/// Errors from argument parsing and typed accessors.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// `--key` given without a value where one was required.
    MissingValue(String),
    /// A required option was absent.
    MissingOption(String),
    /// A value failed to parse into the requested type, or parsed to a
    /// value outside the option's domain.
    BadValue {
        /// The option name.
        key: String,
        /// The offending text.
        value: String,
    },
    /// A spec (`--model`, `--speeds`, `--topology`, `--ks`, or `rds
    /// serve`'s arrival process and `--trace-file`) that breaks its
    /// grammar or names a parameter outside its domain; also an `rds
    /// serve` configuration its flags put outside its domain, and a
    /// `--min-survival` outside `[0, 1]`.
    BadSpec {
        /// The option name, or `serve` for a configuration check that
        /// spans several flags.
        key: String,
        /// The message shown to the user: it names the grammar or the
        /// violated domain.
        reason: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::MissingOption(k) => write!(f, "missing required option --{k}"),
            ArgError::BadValue { key, value } => {
                write!(f, "invalid --{key} value {value:?}")
            }
            ArgError::BadSpec { reason, .. } => f.write_str(reason),
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that are flags (no value).
const FLAGS: &[&str] = &[
    "help", "quick", "gantt", "csv", "resume", "validate", "stdin", "plot",
];

impl Args {
    /// Parses a raw argument list (without the program/subcommand name).
    pub fn parse<S: AsRef<str>>(raw: &[S]) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut it = raw.iter().map(|s| s.as_ref().to_string()).peekable();
        while let Some(tok) = it.next() {
            if let Some(stripped) = tok.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    args.options.insert(k.to_string(), v.to_string());
                } else if FLAGS.contains(&stripped) {
                    args.flags.push(stripped.to_string());
                } else {
                    let value = match it.peek() {
                        Some(next) if !next.starts_with("--") => it.next(),
                        _ => None,
                    };
                    match value {
                        Some(v) => {
                            args.options.insert(stripped.to_string(), v);
                        }
                        None => return Err(ArgError::MissingValue(stripped.to_string())),
                    }
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// `true` when the bare flag was present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Typed optional accessor.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// Typed accessor with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Typed required accessor.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        self.get(key)?
            .ok_or_else(|| ArgError::MissingOption(key.to_string()))
    }

    /// Comma-separated float list (`--estimates 3,2.5,1`).
    pub fn floats(&self, key: &str) -> Result<Option<Vec<f64>>, ArgError> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim().parse::<f64>().map_err(|_| ArgError::BadValue {
                        key: key.to_string(),
                        value: p.to_string(),
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_value_both_styles() {
        let a = Args::parse(&["--m", "6", "--alpha=1.5", "pos1"]).unwrap();
        assert_eq!(a.get::<usize>("m").unwrap(), Some(6));
        assert_eq!(a.get::<f64>("alpha").unwrap(), Some(1.5));
        assert_eq!(a.positional(), &["pos1".to_string()]);
    }

    #[test]
    fn flags_do_not_eat_values() {
        let a = Args::parse(&["--quick", "--m", "4"]).unwrap();
        assert!(a.flag("quick"));
        assert!(!a.flag("gantt"));
        assert_eq!(a.get::<usize>("m").unwrap(), Some(4));
    }

    #[test]
    fn missing_value_detected() {
        assert_eq!(
            Args::parse(&["--m"]).unwrap_err(),
            ArgError::MissingValue("m".into())
        );
        assert_eq!(
            Args::parse(&["--m", "--alpha", "2"]).unwrap_err(),
            ArgError::MissingValue("m".into())
        );
    }

    #[test]
    fn typed_accessors() {
        let a = Args::parse(&["--k", "three"]).unwrap();
        assert!(matches!(
            a.get::<usize>("k").unwrap_err(),
            ArgError::BadValue { .. }
        ));
        let a = Args::parse::<&str>(&[]).unwrap();
        assert_eq!(a.get_or("k", 7usize).unwrap(), 7);
        assert!(matches!(
            a.require::<usize>("k").unwrap_err(),
            ArgError::MissingOption(_)
        ));
    }

    #[test]
    fn float_lists() {
        let a = Args::parse(&["--estimates", "3, 2.5 ,1"]).unwrap();
        assert_eq!(a.floats("estimates").unwrap(), Some(vec![3.0, 2.5, 1.0]));
        let bad = Args::parse(&["--estimates", "3,x"]).unwrap();
        assert!(bad.floats("estimates").is_err());
    }

    #[test]
    fn error_display() {
        assert!(ArgError::MissingOption("m".into())
            .to_string()
            .contains("--m"));
    }
}
