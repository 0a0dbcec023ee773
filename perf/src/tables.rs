//! Reads the markdown tables `rds sweep` and `rds resilience` print, so
//! the harness checks the numbers the user sees. A changed header or an
//! unparsable cell is an error, never a silent NaN.

/// Header of the `rds sweep` result table.
pub const SWEEP: &[&str] = &["policy", "replicas", "runs", "mean ratio", "worst ratio"];

/// Header of the `rds resilience` result table.
pub const RESILIENCE: &[&str] = &[
    "policy",
    "replicas",
    "survival rate",
    "completed runs",
    "mean restarts",
    "mean wasted work",
    "spec wins",
    "mean degradation",
    "worst degradation",
];

/// One parsed table: cells as printed, one `Vec` per row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

fn cells(line: &str) -> Option<Vec<String>> {
    let inner = line.trim().strip_prefix('|')?.strip_suffix('|')?;
    Some(inner.split('|').map(|c| c.trim().to_string()).collect())
}

/// Finds the table whose header row is exactly `headers` and returns its
/// rows.
///
/// # Errors
/// When no such header exists, the separator row is missing, a row has
/// the wrong number of cells, or the table has no rows.
pub fn parse(text: &str, headers: &[&str]) -> Result<Table, String> {
    let mut lines = text.lines();
    lines
        .by_ref()
        .find(|l| cells(l).is_some_and(|c| c == headers))
        .ok_or_else(|| format!("no table with header {headers:?} in the output"))?;
    let sep = lines.next().and_then(cells);
    if !sep.is_some_and(|s| s.len() == headers.len() && s.iter().all(|c| c.contains("---"))) {
        return Err(format!("table {headers:?} has no separator row"));
    }
    let mut rows = Vec::new();
    for line in lines {
        let Some(row) = cells(line) else { break };
        if row.len() != headers.len() {
            return Err(format!(
                "row {line:?} does not have {} cells",
                headers.len()
            ));
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(format!("table {headers:?} has no rows"));
    }
    Ok(Table {
        headers: headers.iter().map(|h| h.to_string()).collect(),
        rows,
    })
}

impl Table {
    /// Cell `column` of row `row`, as printed.
    pub fn cell(&self, row: usize, column: &str) -> &str {
        let c = self
            .headers
            .iter()
            .position(|h| h == column)
            .unwrap_or_else(|| panic!("column {column:?} is not part of the table header"));
        &self.rows[row][c]
    }

    /// Cell `column` of row `row` as a finite number.
    ///
    /// # Errors
    /// When the cell is not a finite decimal number.
    pub fn num(&self, row: usize, column: &str) -> Result<f64, String> {
        let raw = self.cell(row, column);
        raw.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("{column} of row {row} is {raw:?}, not a number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEEP_OUT: &str = "\
competitive-ratio sweep: n = 4096, m = 256, alpha = 1.5, model = uniform, reps = 24, seed = 42
| policy             | replicas | runs | mean ratio | worst ratio |
| ------------------ | --------:| ----:| ----------:| -----------:|
| LPT-No Choice      |        1 |   24 |     1.1681 |      1.2404 |
| Chained(k=2)       |        2 |   24 |     1.0535 |      1.0693 |
| Chained(k=3)       |        3 |   24 |     1.0386 |      1.0513 |
| LS-Group(k=85)     |        4 |   24 |     1.0957 |      1.1281 |
| LPT-No Restriction |      256 |   24 |     1.0085 |      1.0092 |

";

    const RESILIENCE_OUT: &str = "\
resilience campaign: n = 4096, m = 256, mtbf = 400, alpha = 1.5, beta = 1.5, stragglers = 0, reps = 8, seed = 42
| policy             | replicas | survival rate | completed runs | mean restarts | mean wasted work | spec wins | mean degradation | worst degradation |
| ------------------ | --------:| -------------:| --------------:| -------------:| ----------------:| ---------:| ----------------:| -----------------:|
| LPT-No Choice      |        1 |         0.976 |            0/8 |         43.38 |           171.50 |      0.00 |                - |                 - |
| Chained(k=2)       |        2 |         0.998 |            5/8 |         44.25 |           183.46 |      0.00 |            2.477 |             4.501 |
| LPT-No Restriction |      256 |         1.000 |            8/8 |         44.50 |           177.91 |      0.00 |            1.100 |             1.125 |

journal: perf/out/resilience.journal (40 trial(s) executed, 0 resumed)
";

    #[test]
    fn parses_captured_sweep_table() {
        let t = parse(SWEEP_OUT, SWEEP).unwrap();
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.cell(3, "policy"), "LS-Group(k=85)");
        assert_eq!(t.num(0, "mean ratio").unwrap(), 1.1681);
        assert_eq!(t.num(4, "replicas").unwrap(), 256.0);
        assert_eq!(t.cell(4, "worst ratio"), "1.0092");
    }

    #[test]
    fn parses_captured_resilience_table() {
        let t = parse(RESILIENCE_OUT, RESILIENCE).unwrap();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.cell(1, "completed runs"), "5/8");
        assert_eq!(t.num(1, "mean degradation").unwrap(), 2.477);
        assert_eq!(t.cell(0, "mean degradation"), "-");
        assert!(t.num(0, "mean degradation").is_err(), "'-' is not a number");
    }

    #[test]
    fn format_changes_fail_loudly() {
        let renamed = SWEEP_OUT.replace("mean ratio", "avg ratio ");
        assert!(parse(&renamed, SWEEP).is_err());
        let extra_column = SWEEP_OUT.replacen("|   24 |", "|   24 | 7 |", 1);
        assert!(parse(&extra_column, SWEEP).is_err());
        let no_rows = SWEEP_OUT.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(parse(&no_rows, SWEEP).is_err());
        let nan = SWEEP_OUT.replace("1.1681", "NaN   ");
        let t = parse(&nan, SWEEP).unwrap();
        assert!(t.num(0, "mean ratio").is_err());
    }
}
