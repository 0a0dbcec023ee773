//! The paper's tables and figures, plus the measured extensions, as one
//! registry of render functions.
//!
//! Each [`Entry`] is keyed by its DESIGN §3 experiment id and renders an
//! [`Artifact`]: the report text that `results/<stem>.txt` holds and the
//! SVG figures it draws. Rendering prints nothing and touches no file;
//! the `artifacts` binary writes the files, and
//! `tests/artifacts_golden.rs` compares every render byte for byte with
//! the committed `results/`. Every run is seeded, so a change that moves
//! a paper number shows up as a diff of those files.

use rds_core::Result;
use rds_report::{Align, Summary};

/// A rendered artifact: the report text, and its figures as
/// `(file name under results/, contents)` pairs.
#[derive(Debug, Default)]
pub struct Artifact {
    text: String,
    files: Vec<(String, String)>,
}

impl Artifact {
    /// Appends to the text. `write!` and `writeln!` call this, so a
    /// render writes `writeln!(art, …)` where a binary would `println!`.
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        std::fmt::Write::write_fmt(&mut self.text, args).expect("a String accepts any text");
    }

    /// Standard section header, as [`crate::header`] prints it.
    fn header(&mut self, title: &str) {
        writeln!(self, "\n=== {title} ===\n");
    }
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// DESIGN §3 experiment id (`T1`, `F3E`, `A4`, …).
    pub id: &'static str,
    /// File stem of the report text: `results/<stem>.txt`.
    pub stem: &'static str,
    render: fn() -> Result<Artifact>,
}

impl Entry {
    /// Renders the entry into `(file name under results/, contents)`
    /// pairs: `<stem>.txt` first, then its figures.
    ///
    /// # Errors
    /// Propagates the render's error.
    pub fn files(&self) -> Result<Vec<(String, String)>> {
        let art = (self.render)()?;
        let mut files = vec![(format!("{}.txt", self.stem), art.text)];
        files.extend(art.files);
        Ok(files)
    }
}

/// Declares each artifact's module, named after its `results/` stem,
/// and lists it in [`REGISTRY`] under its DESIGN §3 id.
macro_rules! registry {
    ($($id:literal => $stem:ident,)*) => {
        $(mod $stem;)*

        /// Every artifact, in DESIGN §3 order.
        pub const REGISTRY: &[Entry] = &[$(Entry {
            id: $id,
            stem: stringify!($stem),
            render: $stem::render,
        }),*];
    };
}

registry! {
    "T1" => table1_guarantees,
    "T2" => table2_memory,
    "F1" => fig1_adversary,
    "F2" => fig2_groups,
    "F3" => fig3_ratio_replication,
    "F4" => fig4_sabo_schedule,
    "F5" => fig5_abo_schedule,
    "F6" => fig6_memory_makespan,
    "F3E" => fig3_empirical,
    "E1" => empirical_ratios,
    "E2" => crossover,
    "E3" => robustness,
    "E4" => fault_tolerance,
    "A1" => ablation_group_policy,
    "A2" => ablation_replication_shape,
    "A3" => ablation_critical_fraction,
    "A4" => ablation_phase2_order,
}

/// Worker threads for the sweeps: all cores. Results do not depend on
/// the count, since `parallel_map` preserves order.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Summary statistics of `xs`, pushed in order.
fn summary(xs: impl IntoIterator<Item = f64>) -> Summary {
    let mut s = Summary::new();
    xs.into_iter().for_each(|x| s.push(x));
    s
}

/// Column alignment for a table whose first column is a label and the
/// other `numbers` are numbers.
fn label_then_numbers(numbers: usize) -> Vec<Align> {
    let mut align = vec![Align::Right; numbers + 1];
    align[0] = Align::Left;
    align
}
