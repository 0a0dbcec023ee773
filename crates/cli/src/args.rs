//! Tiny dependency-free argument parser for the `rds` CLI.
//!
//! A command declares its flags in its help text: each `--name` in the
//! text is a flag, valued when a `<…>` placeholder follows it.
//! [`Args::parse`] accepts `--key value`, `--key=value` and bare flags
//! that the command, or every command, declares, and nothing else.

use std::collections::HashMap;

/// The flags every command takes, declared as in a help text.
pub(crate) const GLOBAL: &str = "--metrics <path> --trace-out <path> --help";

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    declaration: &'static str,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Errors from argument parsing and typed accessors.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// A `--key` that neither the command nor every command declares.
    Unknown(String),
    /// A token that is neither a `--key` nor the value of one.
    Unexpected(String),
    /// `--key` given without a value where one was required.
    MissingValue(String),
    /// A required option was absent.
    MissingOption(String),
    /// The same option or flag was given more than once.
    Duplicate(String),
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
    /// grammar or names a parameter outside its domain; also an unknown
    /// `--strategy` or `--mutate`, an `rds serve` configuration its flags
    /// put outside its domain, and a `--min-survival` outside `[0, 1]`.
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
            ArgError::Unknown(k) => write!(f, "unknown option --{k}"),
            ArgError::Unexpected(t) => write!(f, "unexpected argument {t:?}"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::MissingOption(k) => write!(f, "missing required option --{k}"),
            ArgError::Duplicate(k) => write!(f, "option --{k} given more than once"),
            ArgError::BadValue { key, value } => {
                write!(f, "invalid --{key} value {value:?}")
            }
            ArgError::BadSpec { reason, .. } => f.write_str(reason),
        }
    }
}

impl std::error::Error for ArgError {}

/// The flags a help text declares, in order: each `--name` in it, with
/// whether a `<…>` placeholder follows, which makes it take a value.
pub(crate) fn declared(text: &str) -> impl Iterator<Item = (&str, bool)> {
    text.match_indices("--").filter_map(|(at, _)| {
        let rest = &text[at + 2..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(rest.len());
        let valued = rest[end..].trim_start().starts_with('<');
        (end > 0).then_some((&rest[..end], valued))
    })
}

/// Whether `--{key}` takes a value; `None` when neither `declaration`
/// nor [`GLOBAL`] declares it.
fn arity(declaration: &str, key: &str) -> Option<bool> {
    declared(declaration)
        .chain(declared(GLOBAL))
        .find_map(|(name, valued)| (name == key).then_some(valued))
}

impl Args {
    /// Parses a raw argument list (without the program/subcommand name)
    /// against `declaration`, the command's help text. A key that it and
    /// the global flags omit is [`ArgError::Unknown`], a stray token
    /// [`ArgError::Unexpected`], a key given twice in any form
    /// [`ArgError::Duplicate`], and `--resume=yes` [`ArgError::BadValue`].
    pub fn parse<S: AsRef<str>>(declaration: &'static str, raw: &[S]) -> Result<Self, ArgError> {
        let mut args = Args {
            declaration,
            ..Args::default()
        };
        let mut it = raw.iter().map(AsRef::as_ref).peekable();
        while let Some(tok) = it.next() {
            let Some(stripped) = tok.strip_prefix("--") else {
                return Err(ArgError::Unexpected(tok.to_string()));
            };
            let (key, inline) = stripped
                .split_once('=')
                .map_or((stripped, None), |(k, v)| (k, Some(v)));
            let value = match (arity(declaration, key), inline) {
                (None, _) => return Err(ArgError::Unknown(key.to_string())),
                // A bare flag takes no value; `--resume=yes` must not be
                // read as `--resume`.
                (Some(false), Some(v)) => {
                    return Err(ArgError::BadValue {
                        key: key.into(),
                        value: v.into(),
                    })
                }
                (Some(false), None) => None,
                (Some(true), Some(v)) => Some(v),
                (Some(true), None) => match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next(),
                    _ => return Err(ArgError::MissingValue(key.to_string())),
                },
            };
            if args.options.contains_key(key) || args.flags.iter().any(|f| f == key) {
                return Err(ArgError::Duplicate(key.to_string()));
            }
            match value {
                Some(v) => {
                    args.options.insert(key.to_string(), v.to_string());
                }
                None => args.flags.push(key.to_string()),
            }
        }
        Ok(args)
    }

    /// Panics in debug builds unless `--{key}` is declared with this
    /// arity: no command reads a flag its help text omits.
    fn expect_declared(&self, key: &str, valued: bool) {
        debug_assert_eq!(arity(self.declaration, key), Some(valued), "--{key}");
    }

    /// `true` when the bare flag was present.
    pub fn flag(&self, name: &str) -> bool {
        self.expect_declared(name, false);
        self.flags.iter().any(|f| f == name)
    }

    /// Typed optional accessor.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.expect_declared(key, true);
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
        self.expect_declared(key, true);
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

    /// A declaration as a command's help text writes it.
    const DECL: &str = "--m <usize> --alpha <f64> [--k <usize>] [--n <usize>]
            [--estimates <a,b,c,...>] [--quick] [--gantt] [--resume]";

    #[test]
    fn a_help_text_declares_its_flags_and_their_arity() {
        let text =
            "[--k <usize>] [--gantt]\n  --model\n  <exact|uniform> (see --resume) -- --x-2 <p>";
        assert_eq!(
            declared(text).collect::<Vec<_>>(),
            [
                ("k", true),
                ("gantt", false),
                ("model", true),
                ("resume", false),
                ("x-2", true)
            ]
        );
        assert_eq!(arity(DECL, "estimates"), Some(true));
        assert_eq!(arity(DECL, "help"), Some(false));
        assert_eq!(arity(DECL, "metrics"), Some(true));
        assert_eq!(arity(DECL, "seed"), None);
        assert_eq!(
            Args::parse(DECL, &["--m", "4", "--seed", "3"]).unwrap_err(),
            ArgError::Unknown("seed".into())
        );
    }

    #[test]
    fn parses_key_value_both_styles() {
        let a = Args::parse(DECL, &["--m", "6", "--alpha=1.5"]).unwrap();
        assert_eq!(a.get::<usize>("m").unwrap(), Some(6));
        assert_eq!(a.get::<f64>("alpha").unwrap(), Some(1.5));
        assert_eq!(
            Args::parse(DECL, &["--m", "6", "--alpha=1.5", "pos1"]).unwrap_err(),
            ArgError::Unexpected("pos1".into())
        );
    }

    #[test]
    fn flags_do_not_eat_values() {
        let a = Args::parse(DECL, &["--quick", "--m", "4"]).unwrap();
        assert!(a.flag("quick"));
        assert!(!a.flag("gantt"));
        assert_eq!(a.get::<usize>("m").unwrap(), Some(4));
        assert_eq!(
            Args::parse(DECL, &["--resume=yes"]).unwrap_err(),
            ArgError::BadValue {
                key: "resume".into(),
                value: "yes".into()
            }
        );
    }

    #[test]
    fn missing_value_detected() {
        assert_eq!(
            Args::parse(DECL, &["--m"]).unwrap_err(),
            ArgError::MissingValue("m".into())
        );
        assert_eq!(
            Args::parse(DECL, &["--m", "--alpha", "2"]).unwrap_err(),
            ArgError::MissingValue("m".into())
        );
    }

    #[test]
    fn a_key_given_twice_is_rejected_in_any_form() {
        for (raw, key) in [
            (&["--m", "4", "--m", "8"][..], "m"),
            (&["--m=4", "--m", "8"][..], "m"),
            (&["--resume", "--n", "3", "--resume"][..], "resume"),
        ] {
            assert_eq!(
                Args::parse(DECL, raw).unwrap_err(),
                ArgError::Duplicate(key.into()),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn typed_accessors() {
        let a = Args::parse(DECL, &["--k", "three"]).unwrap();
        assert!(matches!(
            a.get::<usize>("k").unwrap_err(),
            ArgError::BadValue { .. }
        ));
        let a = Args::parse::<&str>(DECL, &[]).unwrap();
        assert_eq!(a.get_or("k", 7usize).unwrap(), 7);
        assert!(matches!(
            a.require::<usize>("k").unwrap_err(),
            ArgError::MissingOption(_)
        ));
    }

    #[test]
    fn float_lists() {
        let a = Args::parse(DECL, &["--estimates", "3, 2.5 ,1"]).unwrap();
        assert_eq!(a.floats("estimates").unwrap(), Some(vec![3.0, 2.5, 1.0]));
        let bad = Args::parse(DECL, &["--estimates", "3,x"]).unwrap();
        assert!(bad.floats("estimates").is_err());
    }

    #[test]
    fn error_display() {
        assert!(ArgError::MissingOption("m".into())
            .to_string()
            .contains("--m"));
    }
}
