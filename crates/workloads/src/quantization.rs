//! SAGQ-style geo-distributed ML training with gradient quantization.
//!
//! Models the paper's Fig. 4 experiment (§5.6): an MNIST classifier trained
//! on an 8-DC Spark cluster with a parameter server at the master. Each
//! epoch, every worker exchanges gradient traffic with the master; SAGQ
//! (Fan et al., TCC'23) picks each worker's quantization precision (bits)
//! from the *believed* bandwidth of its link so the exchange fits a time
//! budget. Beliefs that overestimate runtime bandwidth (static-independent
//! probes) choose too many bits and blow the budget on the wire.

use wanify_gda::{CostBreakdown, CostModel};
use wanify_netsim::{BwMatrix, ConnMatrix, DcId, EpochHook, NetSim, Transfer};

/// Smallest precision SAGQ may select, bits.
pub const MIN_BITS: u32 = 2;

/// Full precision, bits.
pub const MAX_BITS: u32 = 32;

/// Stored dataset size in GB (MNIST after union transforms ≈ 6.8).
pub const INPUT_GB: f64 = 6.8;

/// Configuration of the quantized training run. Precision ranges over
/// [`MIN_BITS`]..=[`MAX_BITS`] and the stored input is [`INPUT_GB`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantConfig {
    /// Data center hosting the parameter server (paper: US East).
    pub master: DcId,
    /// Gradient traffic per worker per epoch at full 32-bit precision, MB.
    pub grad_mb_per_epoch: f64,
    /// Pure computation seconds per epoch (forward/backward passes).
    pub compute_s_per_epoch: f64,
    /// Number of training epochs (paper: 10).
    pub epochs: u32,
    /// Per-link transfer-time budget SAGQ aims for, in seconds.
    pub target_transfer_s: f64,
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self {
            master: DcId(0),
            grad_mb_per_epoch: 1800.0,
            compute_s_per_epoch: 240.0,
            epochs: 10,
            target_transfer_s: 60.0,
        }
    }
}

/// Precision selection policy for gradient exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantPolicy {
    /// Full 32-bit gradients (the paper's NoQ baseline).
    FullPrecision,
    /// Bits per worker chosen from a believed bandwidth matrix — SAGQ on
    /// static BWs, SimQ on simultaneous BWs, PredQ/WQ on predicted BWs.
    BwDriven(BwMatrix),
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Wall-clock training time in seconds.
    pub training_s: f64,
    /// Dollar cost of the run.
    pub cost: CostBreakdown,
    /// Weakest observed per-pair mean bandwidth across epochs, Mbps.
    pub min_bw_mbps: f64,
    /// Precision selected per worker DC (master's entry = [`MAX_BITS`]).
    pub bits_per_worker: Vec<u32>,
}

/// Picks the precision for a worker whose believed bandwidth to the master
/// is `bw_mbps`: the largest `bits` whose exchange fits the time budget.
pub fn bits_for(bw_mbps: f64, cfg: &QuantConfig) -> u32 {
    // Exchange at `bits` moves grad_mb·bits/32 MB ⇒ seconds = MB·8/bw.
    let affordable =
        (cfg.target_transfer_s * bw_mbps * f64::from(MAX_BITS)) / (cfg.grad_mb_per_epoch * 8.0);
    (affordable.floor() as u32).clamp(MIN_BITS, MAX_BITS)
}

/// Runs the training loop on the simulated WAN.
///
/// `conns` and `hook` carry WANify's parallel-connection plan and local
/// agents for the WQ variant; pass `None` for single connections.
///
/// # Panics
///
/// Panics if the master id is out of range or a bandwidth matrix has the
/// wrong size.
pub fn run_training<'a, 'b: 'a>(
    sim: &mut NetSim,
    cfg: &QuantConfig,
    policy: &QuantPolicy,
    conns: Option<&ConnMatrix>,
    mut hook: Option<&'a mut (dyn EpochHook + 'b)>,
) -> TrainingReport {
    let n = sim.topology().len();
    assert!(cfg.master.0 < n, "master DC out of range");
    let conns = conns.cloned().unwrap_or_else(|| ConnMatrix::filled(n, 1));

    let bits: Vec<u32> = (0..n)
        .map(|w| {
            if w == cfg.master.0 {
                MAX_BITS
            } else {
                match policy {
                    QuantPolicy::FullPrecision => MAX_BITS,
                    QuantPolicy::BwDriven(bw) => {
                        assert_eq!(bw.len(), n, "belief matrix size mismatch");
                        // The exchange is bidirectional; the weaker believed
                        // direction gates the budget.
                        let up = bw.get(w, cfg.master.0);
                        let down = bw.get(cfg.master.0, w);
                        bits_for(up.min(down), cfg)
                    }
                }
            }
        })
        .collect();

    let mut training_s = 0.0;
    let mut min_bw = f64::INFINITY;
    let mut egress_gb = vec![0.0; n];
    for _ in 0..cfg.epochs {
        sim.advance(cfg.compute_s_per_epoch);
        training_s += cfg.compute_s_per_epoch;
        let mut transfers = Vec::new();
        for (w, &worker_bits) in bits.iter().enumerate() {
            if w == cfg.master.0 {
                continue;
            }
            let gb = cfg.grad_mb_per_epoch / 1024.0 * f64::from(worker_bits) / f64::from(MAX_BITS);
            // Gradients up, quantized model deltas down.
            transfers.push(Transfer::from_gigabytes(DcId(w), cfg.master, gb));
            transfers.push(Transfer::from_gigabytes(cfg.master, DcId(w), gb));
        }
        let report = sim.run_transfers(&transfers, &conns, hook.as_deref_mut());
        training_s += report.makespan_s;
        min_bw = min_bw.min(report.min_pair_bw_mbps);
        for (i, gb) in report.egress_gigabits.iter().enumerate() {
            egress_gb[i] += gb / 8.0;
        }
    }

    let cost = CostModel::new().price(sim.topology(), training_s, &egress_gb, INPUT_GB);
    TrainingReport {
        training_s,
        cost,
        min_bw_mbps: if min_bw.is_finite() { min_bw } else { 0.0 },
        bits_per_worker: bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanify_netsim::{paper_testbed_n, LinkModelParams, VmType};

    fn sim(n: usize) -> NetSim {
        NetSim::new(paper_testbed_n(VmType::t2_medium(), n), LinkModelParams::frozen(), 21)
    }

    fn small_cfg() -> QuantConfig {
        QuantConfig {
            grad_mb_per_epoch: 400.0,
            compute_s_per_epoch: 30.0,
            epochs: 2,
            target_transfer_s: 5.0,
            ..QuantConfig::default()
        }
    }

    #[test]
    fn bits_scale_with_believed_bandwidth() {
        let cfg = QuantConfig::default();
        assert_eq!(bits_for(10_000.0, &cfg), 32);
        let weak = bits_for(120.0, &cfg);
        let strong = bits_for(1700.0, &cfg);
        assert!(weak < strong, "weak link {weak} bits vs strong {strong} bits");
        assert!(weak >= MIN_BITS);
    }

    #[test]
    fn bits_clamped_to_range() {
        let cfg = QuantConfig::default();
        assert_eq!(bits_for(0.0, &cfg), MIN_BITS);
        assert_eq!(bits_for(f64::MAX, &cfg), MAX_BITS);
    }

    #[test]
    fn quantization_shortens_training() {
        let cfg = small_cfg();
        let mut s1 = sim(4);
        let noq = run_training(&mut s1, &cfg, &QuantPolicy::FullPrecision, None, None);
        let mut s2 = sim(4);
        let belief = s2.measure_runtime(&ConnMatrix::filled(4, 1), 5).bw;
        let quant = run_training(&mut s2, &cfg, &QuantPolicy::BwDriven(belief), None, None);
        assert!(
            quant.training_s < noq.training_s,
            "quantized {} vs full {}",
            quant.training_s,
            noq.training_s
        );
        assert!(quant.bits_per_worker.iter().any(|&b| b < 32));
    }

    #[test]
    fn master_keeps_full_precision() {
        let cfg = small_cfg();
        let mut s = sim(3);
        let belief = BwMatrix::filled(3, 50.0);
        let r = run_training(&mut s, &cfg, &QuantPolicy::BwDriven(belief), None, None);
        assert_eq!(r.bits_per_worker[cfg.master.0], MAX_BITS);
    }

    #[test]
    fn parallel_connections_cut_network_time() {
        let cfg = small_cfg();
        let mut s1 = sim(4);
        let single = run_training(&mut s1, &cfg, &QuantPolicy::FullPrecision, None, None);
        let mut s2 = sim(4);
        let conns = ConnMatrix::from_fn(4, |i, j| if i == j { 1 } else { 6 });
        let parallel = run_training(&mut s2, &cfg, &QuantPolicy::FullPrecision, Some(&conns), None);
        assert!(parallel.training_s < single.training_s);
    }

    #[test]
    fn report_costs_are_positive() {
        let cfg = small_cfg();
        let mut s = sim(3);
        let r = run_training(&mut s, &cfg, &QuantPolicy::FullPrecision, None, None);
        assert!(r.cost.total_usd() > 0.0);
        assert!(r.min_bw_mbps > 0.0);
    }
}
