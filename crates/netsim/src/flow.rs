//! Flows and bulk transfers.

use crate::grid::BwMatrix;
use crate::topology::DcId;

/// Identifier of a flow within one allocation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub usize);

/// A live directed flow between two data centers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Source data center.
    pub src: DcId,
    /// Destination data center.
    pub dst: DcId,
    /// Number of parallel connections carrying the flow.
    pub conns: u32,
}

impl FlowSpec {
    /// Creates a flow with `conns` parallel connections.
    pub fn new(src: DcId, dst: DcId, conns: u32) -> Self {
        Self { src, dst, conns }
    }
}

/// A bulk data transfer request (paper's shuffle traffic between a DC pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Source data center.
    pub src: DcId,
    /// Destination data center.
    pub dst: DcId,
    /// Payload in gigabits (the paper's Fig. 2(d) uses Gb for data sizes).
    pub gigabits: f64,
}

impl Transfer {
    /// Creates a transfer of `gigabits` from `src` to `dst`.
    pub fn new(src: DcId, dst: DcId, gigabits: f64) -> Self {
        Self { src, dst, gigabits }
    }

    /// Creates a transfer sized in gigabytes.
    pub fn from_gigabytes(src: DcId, dst: DcId, gigabytes: f64) -> Self {
        Self { src, dst, gigabits: gigabytes * 8.0 }
    }
}

/// Outcome of simulating a batch of transfers to completion.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Wall-clock seconds until the last transfer finished.
    pub makespan_s: f64,
    /// Completion time of each transfer, parallel to the request slice.
    pub completion_s: Vec<f64>,
    /// Mean achieved throughput per directed pair while it was busy (Mbps).
    pub achieved_bw: BwMatrix,
    /// Smallest per-pair mean throughput among pairs that carried data.
    pub min_pair_bw_mbps: f64,
    /// Total gigabits moved per source DC (for egress cost accounting).
    pub egress_gigabits: Vec<f64>,
    /// Number of simulation epochs covered (each `epoch_dt_s` seconds).
    /// Coalesced runs *cover* the same epochs they skip re-solving for,
    /// so this count is identical on the fast and per-epoch paths.
    pub epochs: usize,
    /// Whether some payload was still undelivered when the run stopped:
    /// the transfers stalled for good or ran out of
    /// [`crate::sim::MAX_EPOCHS`], and the other fields describe them as
    /// they stood then.
    pub truncated: bool,
}

impl TransferReport {
    /// Mean throughput of the busiest pair, in Mbps.
    pub fn max_pair_bw_mbps(&self) -> f64 {
        self.achieved_bw.max_off_diag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabyte_conversion() {
        let t = Transfer::from_gigabytes(DcId(0), DcId(1), 2.0);
        assert!((t.gigabits - 16.0).abs() < 1e-12);
    }

    #[test]
    fn flow_spec_roundtrip() {
        let f = FlowSpec::new(DcId(3), DcId(1), 9);
        assert_eq!(f.src, DcId(3));
        assert_eq!(f.conns, 9);
    }
}
