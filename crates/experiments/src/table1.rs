//! Table 1: gaps between statically measured and runtime bandwidth.
//!
//! The paper measures every DC pair independently (the existing-systems
//! approach), then all pairs simultaneously during execution, and buckets
//! the significant differences (>100 Mbps): 7 in (100, 200], 8 in
//! (200, 250] and 3 above 250 Mbps — 18 significant gaps in total.

use crate::table::Table;
use wanify::{BandwidthSource, MeasuredRuntime, StaticIndependent};
use wanify_netsim::{paper_testbed, LinkModelParams, NetSim, VmType};

/// Result of the Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Gaps in (100, 200] Mbps.
    pub bucket_100_200: usize,
    /// Gaps in (200, 250] Mbps.
    pub bucket_200_250: usize,
    /// Gaps above 250 Mbps.
    pub bucket_over_250: usize,
    /// Directed pairs measured (8 DCs ⇒ 56).
    pub n_pairs: usize,
    /// Example of a flipped "slowest DC" decision, if observed: DC labels
    /// `(from, static_slowest, runtime_slowest)` (the paper's SA East
    /// example, §2.2).
    pub flipped_slowest: Option<(String, String, String)>,
}

impl Table1 {
    /// Total significant gaps (paper: 18).
    pub fn total_significant(&self) -> usize {
        self.bucket_100_200 + self.bucket_200_250 + self.bucket_over_250
    }

    /// Rendered table next to the paper's values.
    pub fn render(&self) -> String {
        let mut table = Table::text(
            "Table 1: static vs runtime BW gap histogram",
            &["difference interval (Mbps)", "measured count", "paper count"],
            vec![
                vec!["(100, 200]".into(), self.bucket_100_200.to_string(), "7".into()],
                vec!["(200, 250]".into(), self.bucket_200_250.to_string(), "8".into()],
                vec!["> 250".into(), self.bucket_over_250.to_string(), "3".into()],
                vec!["total significant".into(), self.total_significant().to_string(), "18".into()],
            ],
        )
        .expect("three cells per row");
        if let Some((from, st, rt)) = &self.flipped_slowest {
            table =
                table.note(format!("slowest DC from {from}: static says {st}, runtime says {rt}"));
        }
        table.render()
    }
}

/// Runs the experiment on the 8-DC testbed: the same network gauged
/// through the static and the runtime [`BandwidthSource`], then bucketed.
pub fn run(seed: u64) -> Table1 {
    let topo = paper_testbed(VmType::t2_medium());
    let mut sim = NetSim::new(topo, LinkModelParams::default(), seed);
    let static_bw =
        StaticIndependent::new().gauge(&mut sim).expect("static probe matches topology");
    sim.shuffle_time();
    let runtime =
        MeasuredRuntime::default().gauge(&mut sim).expect("runtime probe matches topology");

    // Pairs whose static and runtime views differ by a gap in (lo, hi].
    let gaps_in = |lo: f64, hi: f64| {
        let gap = |(i, j, s): (usize, usize, f64)| (s - runtime.get(i, j)).abs();
        static_bw.iter_pairs().map(gap).filter(|&d| d > lo && d <= hi).count()
    };

    // The paper's flipped-decision example: the slowest destination from a
    // source differs between static and runtime views.
    let labels = sim.topology().labels();
    let n = static_bw.len();
    let flipped = (0..n).find_map(|i| {
        let slowest = |m: &wanify_netsim::BwMatrix| -> usize {
            (0..n)
                .filter(|&j| j != i)
                .min_by(|&a, &b| m.get(i, a).partial_cmp(&m.get(i, b)).expect("finite"))
                .expect("n >= 2")
        };
        let (s, r) = (slowest(&static_bw), slowest(&runtime));
        (s != r).then(|| (labels[i].clone(), labels[s].clone(), labels[r].clone()))
    });

    Table1 {
        bucket_100_200: gaps_in(100.0, 200.0),
        bucket_200_250: gaps_in(200.0, 250.0),
        bucket_over_250: gaps_in(250.0, f64::INFINITY),
        n_pairs: n * (n - 1),
        flipped_slowest: flipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substantial_fraction_of_pairs_gap_significantly() {
        let t = run(11);
        assert_eq!(t.n_pairs, 56);
        assert!(
            t.total_significant() >= 10,
            "paper found 18/56 significant gaps, got {}",
            t.total_significant()
        );
        assert!(
            t.total_significant() <= 45,
            "gaps should not cover nearly all pairs, got {}",
            t.total_significant()
        );
    }

    #[test]
    fn render_includes_paper_reference() {
        let t = run(12);
        let s = t.render();
        assert!(s.contains("(100, 200]") && s.contains("18"));
    }
}
