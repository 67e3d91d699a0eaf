//! The evaluation grid's other half: what a run measured, how one run
//! compares to another, and the one table every artifact renders through.
//!
//! Every query-grid artifact (Table 4, Figs. 4–8, 10, §5.8.3) is a list
//! of [`Row`]s — labels, a [`Measured`] run and the run it is compared
//! to — printed through a list of [`Col`]umns. The measurement-shaped
//! artifacts format their own cells and share only the aligned renderer
//! ([`Table::text`]).

use crate::common::improvement_pct;
use wanify_gda::QueryReport;
use wanify_workloads::quantization::TrainingReport;

/// The three quantities every cell of the paper's evaluation reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Query latency (training time for the ML workload), seconds.
    pub latency_s: f64,
    /// Total cost, USD.
    pub cost_usd: f64,
    /// Minimum observed bandwidth, Mbps.
    pub min_bw_mbps: f64,
}

impl From<&QueryReport> for Measured {
    fn from(r: &QueryReport) -> Self {
        Self { latency_s: r.latency_s, cost_usd: r.cost.total_usd(), min_bw_mbps: r.min_bw_mbps }
    }
}

impl From<&TrainingReport> for Measured {
    fn from(r: &TrainingReport) -> Self {
        Self { latency_s: r.training_s, cost_usd: r.cost.total_usd(), min_bw_mbps: r.min_bw_mbps }
    }
}

/// One run's improvement over another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gain {
    /// Latency improvement, percent (positive = faster).
    pub latency_pct: f64,
    /// Cost improvement, percent (positive = cheaper).
    pub cost_pct: f64,
    /// Minimum-bandwidth ratio (this / base); 1 when the base saw none.
    pub min_bw_ratio: f64,
}

impl Measured {
    /// The improvement of this run over `base`.
    pub fn gain_over(&self, base: &Measured) -> Gain {
        Gain {
            latency_pct: improvement_pct(base.latency_s, self.latency_s),
            cost_pct: improvement_pct(base.cost_usd, self.cost_usd),
            min_bw_ratio: if base.min_bw_mbps > 0.0 {
                self.min_bw_mbps / base.min_bw_mbps
            } else {
                1.0
            },
        }
    }
}

/// One keyed row of a query-grid table: a measured run next to the run
/// it is compared to (itself where the table has no baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The row's labels, one per key column.
    pub key: Vec<String>,
    /// The run this row reports (also reachable through `Deref`).
    pub run: Measured,
    /// The baseline run.
    pub base: Measured,
}

impl Row {
    /// A row compared against `base`.
    pub fn new(key: &[&str], run: Measured, base: Measured) -> Self {
        Self { key: key.iter().map(|k| k.to_string()).collect(), run, base }
    }

    /// The row's improvement over its baseline.
    pub fn gain(&self) -> Gain {
        self.run.gain_over(&self.base)
    }
}

/// What `col` prints of `run` compared against `base`.
fn cell(run: &Measured, base: &Measured, col: Col) -> String {
    let gain = run.gain_over(base);
    match col {
        Col::Latency(d) => format!("{:.d$}", run.latency_s),
        Col::Cost(d) => format!("${:.d$}", run.cost_usd),
        Col::MinBw => format!("{:.0}", run.min_bw_mbps),
        Col::LatencyGain => format!("{:+.1}%", gain.latency_pct),
        Col::CostGain => format!("{:+.1}%", gain.cost_pct),
        Col::MinBwRatio => format!("{:.2}x", gain.min_bw_ratio),
        Col::Base(of) => cell(base, base, *of),
    }
}

impl std::ops::Deref for Row {
    type Target = Measured;

    fn deref(&self) -> &Measured {
        &self.run
    }
}

/// What a value column of a query-grid table prints of a [`Row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    /// The run's latency in seconds, with this many decimals.
    Latency(usize),
    /// The run's cost as `$x`, with this many decimals.
    Cost(usize),
    /// The run's minimum bandwidth in whole Mbps.
    MinBw,
    /// Latency improvement over the baseline, signed percent.
    LatencyGain,
    /// Cost improvement over the baseline, signed percent.
    CostGain,
    /// Minimum-bandwidth ratio over the baseline.
    MinBwRatio,
    /// The wrapped column, of the baseline run instead.
    Base(&'static Col),
}

/// A row whose cell count differs from its table's header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaggedRow {
    /// Index of the offending row.
    pub row: usize,
    /// Cells it carries.
    pub cells: usize,
    /// Columns the header declares.
    pub columns: usize,
}

impl std::fmt::Display for RaggedRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row {} has {} cells under {} columns", self.row, self.cells, self.columns)
    }
}

impl std::error::Error for RaggedRow {}

/// One rendered artifact: a title line, an aligned grid and note lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    cells: Vec<Vec<String>>,
    /// Lines printed under the grid ("paper: …").
    pub notes: Vec<String>,
    /// Every measured run the artifact reports, keyed for lookup: the
    /// rows a [`Table::grid`] was built from, plus any an artifact
    /// reports in its notes. Empty for a [`Table::text`] table.
    pub rows: Vec<Row>,
}

impl Table {
    /// A table of pre-formatted cells.
    ///
    /// # Errors
    ///
    /// [`RaggedRow`] for the first row that is not as wide as `header`.
    pub fn text(title: &str, header: &[&str], cells: Vec<Vec<String>>) -> Result<Self, RaggedRow> {
        if let Some((row, bad)) = cells.iter().enumerate().find(|(_, c)| c.len() != header.len()) {
            return Err(RaggedRow { row, cells: bad.len(), columns: header.len() });
        }
        let header = header.iter().map(|h| h.to_string()).collect();
        Ok(Self { title: title.to_string(), header, cells, notes: Vec::new(), rows: Vec::new() })
    }

    /// A table without a grid: a title over note lines.
    pub fn lines(title: &str) -> Self {
        Self::text(title, &[], Vec::new()).expect("no rows under no columns")
    }

    /// A query-grid table: each row prints its labels under `keys`, then
    /// one cell per `(header, Col)` value column.
    ///
    /// # Errors
    ///
    /// [`RaggedRow`] for the first row whose label count is not `keys.len()`.
    pub fn grid(
        title: &str,
        keys: &[&str],
        cols: &[(&str, Col)],
        rows: Vec<Row>,
    ) -> Result<Self, RaggedRow> {
        let header: Vec<&str> = keys.iter().copied().chain(cols.iter().map(|c| c.0)).collect();
        let cells = rows
            .iter()
            .map(|r| {
                r.key
                    .iter()
                    .cloned()
                    .chain(cols.iter().map(|c| cell(&r.run, &r.base, c.1)))
                    .collect()
            })
            .collect();
        Ok(Self { rows, ..Self::text(title, &header, cells)? })
    }

    /// Appends a note line.
    #[must_use]
    pub fn note(mut self, line: impl Into<String>) -> Self {
        self.notes.push(line.into());
        self
    }

    /// The measured row labelled `key`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such row.
    pub fn row(&self, key: &[&str]) -> &Row {
        self.rows.iter().find(|r| r.key == key).unwrap_or_else(|| panic!("no row {key:?}"))
    }

    /// The title, the grid (left-aligned columns under a dashed rule,
    /// when there are columns) and the notes, one line each.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = (0..self.header.len())
            .map(|k| self.cells.iter().map(|r| r[k].len()).fold(self.header[k].len(), usize::max))
            .collect();
        // The dashed rule is one more row, under the header.
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        let grid = [&self.header, &rule].into_iter().chain(&self.cells);
        let mut out = format!("{}\n", self.title);
        for row in grid.filter(|row| !row.is_empty()) {
            for (cell, w) in row.iter().zip(&widths) {
                out += &format!("{cell:<w$}  ");
            }
            out.push('\n');
        }
        for note in &self.notes {
            out += note;
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(|c| c.to_string()).collect()).collect()
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = Table::text("T", &["name", "value"], cells(&[&["a", "1"], &["long-name", "2"]]))
            .expect("two cells under two columns")
            .note("paper: n/a");
        assert_eq!(
            t.render(),
            "T\nname       value  \n---------  -----  \na          1      \nlong-name  2      \npaper: n/a\n"
        );
    }

    #[test]
    fn a_ragged_row_is_an_error_not_a_panic() {
        let long = Table::text("T", &["a", "b"], cells(&[&["1", "2"], &["1", "2", "3"]]));
        assert_eq!(long.unwrap_err(), RaggedRow { row: 1, cells: 3, columns: 2 });
        let short = Table::text("T", &["a", "b"], cells(&[&["1"]]));
        assert_eq!(short.unwrap_err().to_string(), "row 0 has 1 cells under 2 columns");
        let m = Measured { latency_s: 1.0, cost_usd: 1.0, min_bw_mbps: 1.0 };
        let unlabelled =
            Table::grid("T", &["k"], &[("s", Col::Latency(0))], vec![Row::new(&[], m, m)]);
        assert_eq!(unlabelled.unwrap_err(), RaggedRow { row: 0, cells: 1, columns: 2 });
    }

    #[test]
    fn grid_columns_print_the_run_the_base_and_the_gain() {
        let base = Measured { latency_s: 100.0, cost_usd: 2.0, min_bw_mbps: 50.0 };
        let run = Measured { latency_s: 80.0, cost_usd: 2.5, min_bw_mbps: 125.0 };
        let cols = [
            ("base", Col::Base(&Col::Latency(0))),
            ("run", Col::Latency(1)),
            ("cost", Col::Cost(2)),
            ("bw", Col::MinBw),
            ("lat", Col::LatencyGain),
            ("usd", Col::CostGain),
            ("x", Col::MinBwRatio),
        ];
        let t =
            Table::grid("G", &["q", "s"], &cols, vec![Row::new(&["q78", "tetrium"], run, base)])
                .expect("two labels under two key columns");
        let last = t.render().lines().last().expect("one row").to_string();
        assert_eq!(
            last.split_whitespace().collect::<Vec<_>>(),
            ["q78", "tetrium", "100", "80.0", "$2.50", "125", "+20.0%", "-25.0%", "2.50x"]
        );
        let row = t.row(&["q78", "tetrium"]);
        assert_eq!((row.latency_s, row.base.latency_s), (80.0, 100.0));
        let unseen = Measured { min_bw_mbps: 0.0, ..base };
        assert_eq!(run.gain_over(&unseen).min_bw_ratio, 1.0);
    }
}
