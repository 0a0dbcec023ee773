//! Reporting utilities for the benchmark harness and examples.
//!
//! - [`stats`]: streaming [`stats::Summary`] (Welford, mergeable for
//!   parallel reductions);
//! - [`table`]: aligned markdown tables;
//! - [`csv`]: RFC-4180 CSV emission;
//! - [`plot`]: ASCII line/scatter charts (terminal renderings of the
//!   paper's figures);
//! - [`gantt`]: ASCII Gantt charts of executed schedules (Figures 2/4/5),
//!   with optional fault-timeline overlays;
//! - [`marks`]: fault-timeline [`marks::Mark`]s (failures, recoveries,
//!   degraded phases, speculation) the Gantt renderers draw on top;
//! - [`svg`]: dependency-free SVG renderings of the same charts and
//!   Gantts, for publication-style output;
//! - [`metrics`]: human-readable tables for [`rds_obs`] metric
//!   snapshots (the `--metrics` report);
//! - [`output`]: atomic (tempfile + fsync + rename) file emission so a
//!   crash never leaves a torn figure or table on disk.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod gantt;
pub mod marks;
pub mod metrics;
pub mod output;
pub mod plot;
pub mod stats;
pub mod svg;
pub mod table;

pub use csv::Csv;
pub use marks::{Mark, MarkKind};
pub use output::{write_atomic, write_atomic_str};
pub use plot::{Chart, Series};
pub use stats::Summary;
pub use svg::{gantt_svg, gantt_svg_with_marks, SvgChart};
pub use table::{Align, Table};
