//! Library behind the `rds` command-line tool.
//!
//! Split from the binary so every command is unit-testable against an
//! in-memory writer. Each command accepts exactly the flags its help text
//! lists (`rds help`); any other flag or token is an [`ArgError`], which
//! the binary reports with exit code 2 before any work.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
pub use commands::run;
