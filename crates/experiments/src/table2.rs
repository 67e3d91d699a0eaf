//! Table 2: accurate prediction saves ~96% in monitoring costs.

use crate::table::Table;
use wanify::costs::{table2, table2_savings_pct, Table2Row};

/// Result of the Table 2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// One row per cluster size {4, 6, 8}.
    pub rows: Vec<Table2Row>,
    /// Overall savings of the prediction pipeline, percent.
    pub savings_pct: f64,
}

impl Table2 {
    /// Rendered table next to the paper's values.
    pub fn render(&self) -> String {
        let paper = [(703.0, 35.0, 29.0), (1055.0, 20.0, 16.0), (1406.0, 14.0, 11.0)];
        let mut rows = Vec::new();
        for (row, p) in self.rows.iter().zip(paper) {
            rows.push(vec![
                row.n_dcs.to_string(),
                format!("${:.0}", row.runtime_monitoring_usd),
                format!("${:.0}", row.training_usd),
                format!("${:.0}", row.predictions_usd),
                format!("${:.0} / ${:.0} / ${:.0}", p.0, p.1, p.2),
            ]);
        }
        Table::text(
            "Table 2: annual BW monitoring costs",
            &[
                "DCs",
                "runtime monitoring",
                "model training",
                "predictions",
                "paper (mon/train/pred)",
            ],
            rows,
        )
        .expect("five cells per row")
        .note(format!("overall savings: {:.1}% (paper: ~96%)", self.savings_pct))
        .render()
    }
}

/// Runs the cost model with the paper's parameters.
pub fn run() -> Table2 {
    Table2 { rows: table2(), savings_pct: table2_savings_pct() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitoring_dwarfs_prediction() {
        let t = run();
        assert_eq!(t.rows.len(), 3);
        assert!(t.savings_pct > 85.0, "got {:.1}%", t.savings_pct);
        for row in &t.rows {
            assert!(row.runtime_monitoring_usd > 5.0 * row.predictions_usd);
        }
    }

    #[test]
    fn n4_matches_paper_magnitude() {
        let t = run();
        let r = &t.rows[0];
        assert!((600.0..850.0).contains(&r.runtime_monitoring_usd), "paper: $703");
    }

    #[test]
    fn render_mentions_savings() {
        assert!(run().render().contains("savings"));
    }
}
