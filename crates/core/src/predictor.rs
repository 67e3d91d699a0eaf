//! The offline module: bandwidth analyzer and WAN prediction model
//! (paper §3.1, §4.1.1).
//!
//! The **Bandwidth Analyzer** collects training data: for each cluster
//! size it repeatedly samples a cheap 1-second snapshot (features) paired
//! with a 20-second stable runtime measurement (target). The **WAN
//! Prediction Model** is a Random Forest regressor over the Table-3
//! features; it predicts, per directed DC pair, the stable runtime
//! bandwidth from a fresh snapshot — at a fraction of the monitoring cost
//! (§2.2). Staleness is tracked by comparing predictions against observed
//! runtime values and flagging retraining (§3.3.4), which proceeds via the
//! forest's warm start.

use crate::error::WanifyError;
use crate::features::{FeatureVector, FEATURE_COUNT};
use wanify_forest::{metrics, Dataset, ForestParams, RandomForest};
use wanify_netsim::{
    paper_testbed_n, BwMatrix, ConnMatrix, DcId, LinkModelParams, NetSim, ProbeReading, Topology,
    VmType,
};

/// Duration of the stable runtime measurement in seconds (§2.2: "stable
/// runtime BWs are achieved with at least 20 seconds of monitoring").
pub const STABLE_PROBE_S: u32 = 20;

/// Collects snapshot/stable training pairs across cluster sizes.
#[derive(Debug, Clone)]
pub struct BandwidthAnalyzer {
    /// VM flavor of the probe fleet (paper: unlimited-burst t3.nano).
    pub vm: VmType,
    /// Link-model parameters for the probe simulations.
    pub params: LinkModelParams,
    /// Samples collected per cluster size.
    pub samples_per_size: usize,
}

impl BandwidthAnalyzer {
    /// Creates an analyzer with the paper's probe fleet.
    pub fn new(samples_per_size: usize) -> Self {
        Self { vm: VmType::t3_nano(), params: LinkModelParams::default(), samples_per_size }
    }

    /// Collects a dataset over the given cluster sizes (each in `2..=8`).
    ///
    /// Every sample captures the cluster at an independent time (the paper
    /// gathers data "at different times over a week", §5.1): one snapshot
    /// probe provides the features, the following 20-second simultaneous
    /// measurement provides the target.
    ///
    /// # Panics
    ///
    /// Panics if any size is outside `2..=8`, or if a probe reads a
    /// non-finite feature or bandwidth, which [`Dataset::push`] refuses.
    pub fn collect(&self, sizes: &[usize], seed: u64) -> Dataset {
        let mut data = Dataset::new(FEATURE_COUNT);
        for (k, &n) in sizes.iter().enumerate() {
            let topo = paper_testbed_n(self.vm.clone(), n);
            let mut sim =
                NetSim::new(topo, self.params.clone(), seed.wrapping_add(k as u64 * 7919));
            let conns = ConnMatrix::filled(n, 1);
            for _ in 0..self.samples_per_size {
                sim.shuffle_time();
                let snapshot = sim.snapshot(&conns);
                let stable = sim.measure_runtime(&conns, STABLE_PROBE_S);
                append_pairs(&mut data, &snapshot, &stable.bw, sim.topology());
            }
        }
        data
    }
}

/// Adds one row per directed pair: snapshot features → stable target.
fn append_pairs(data: &mut Dataset, snapshot: &ProbeReading, stable: &BwMatrix, topo: &Topology) {
    let n = topo.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let fv = FeatureVector::from_probe(snapshot, topo, DcId(i), DcId(j));
            data.push(fv.to_array().to_vec(), stable.get(i, j))
                .expect("a probe row is FEATURE_COUNT wide and finite");
        }
    }
}

/// The trained WAN prediction model plus staleness tracking.
#[derive(Debug, Clone)]
pub struct WanPredictionModel {
    forest: RandomForest,
    error_threshold_pct: f64,
    recent_mape: Option<f64>,
    retrain_flagged: bool,
}

impl WanPredictionModel {
    /// Trains a forest of `n_estimators` trees (paper: 100) on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train(data: &Dataset, n_estimators: usize, seed: u64) -> Self {
        // Two thirds of the features per split: with only six features the
        // default p/3 subsampling starves splits of the snapshot feature.
        let params = ForestParams {
            n_estimators,
            features_per_split: Some((data.n_features() * 2 / 3).max(1)),
            ..ForestParams::default()
        };
        Self {
            forest: RandomForest::fit(data, &params, seed),
            error_threshold_pct: 15.0,
            recent_mape: None,
            retrain_flagged: false,
        }
    }

    /// Predicts the full runtime bandwidth matrix from a snapshot probe,
    /// in one pass over the forest for all directed pairs.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError::DimensionMismatch`] if the probe does not
    /// match the topology, and [`WanifyError::FeatureArityMismatch`] if the
    /// model was trained on rows that are not [`FEATURE_COUNT`] wide.
    pub fn predict_matrix(
        &self,
        snapshot: &ProbeReading,
        topo: &Topology,
    ) -> Result<BwMatrix, WanifyError> {
        let n = topo.len();
        if snapshot.bw.len() != n {
            return Err(WanifyError::DimensionMismatch { expected: n, got: snapshot.bw.len() });
        }
        if self.forest.n_features() != FEATURE_COUNT {
            return Err(WanifyError::FeatureArityMismatch {
                expected: FEATURE_COUNT,
                got: self.forest.n_features(),
            });
        }
        let mut rows = Vec::with_capacity(n * (n - 1) * FEATURE_COUNT);
        for (i, j, _) in snapshot.bw.iter_pairs() {
            let features = FeatureVector::from_probe(snapshot, topo, DcId(i), DcId(j));
            rows.extend_from_slice(&features.to_array());
        }
        let mut predicted = vec![0.0; rows.len() / FEATURE_COUNT];
        self.forest.predict_rows(&rows, &mut predicted);
        // `iter_pairs_mut` visits the pairs in `iter_pairs` order.
        let mut bw = BwMatrix::new(n);
        for ((_, _, cell), p) in bw.iter_pairs_mut().zip(predicted) {
            *cell = p.max(0.0);
        }
        Ok(bw)
    }

    /// Percentage training accuracy over `data` (paper §5.1: 98.51%).
    ///
    /// # Panics
    ///
    /// Panics if `data`'s width differs from the training data's.
    pub fn training_accuracy(&self, data: &Dataset) -> f64 {
        let mut preds = vec![0.0; data.len()];
        self.forest.predict_rows(data.row_major(), &mut preds);
        metrics::accuracy_pct(&preds, data.targets())
    }

    /// Compares a prediction with subsequently observed runtime values and
    /// flags retraining when the error exceeds the threshold (§3.3.4).
    pub fn record_error(&mut self, predicted: &BwMatrix, actual: &BwMatrix) {
        let preds: Vec<f64> = predicted.iter_pairs().map(|(_, _, v)| v).collect();
        let actuals: Vec<f64> = actual.iter_pairs().map(|(_, _, v)| v).collect();
        let mape = metrics::mape(&preds, &actuals) * 100.0;
        self.recent_mape = Some(mape);
        if mape > self.error_threshold_pct {
            self.retrain_flagged = true;
        }
    }

    /// Whether the staleness log has flagged retraining.
    pub fn needs_retraining(&self) -> bool {
        self.retrain_flagged
    }

    /// Most recent recorded prediction error (MAPE %), if any.
    pub fn recent_error_pct(&self) -> Option<f64> {
        self.recent_mape
    }

    /// Warm-start retraining on newly collected data (§3.3.2/§3.3.4);
    /// clears the retrain flag.
    pub fn retrain(&mut self, data: &Dataset, extra_trees: usize) {
        self.forest.warm_start(data, extra_trees);
        self.retrain_flagged = false;
    }

    /// Number of trees in the underlying ensemble.
    pub fn n_trees(&self) -> usize {
        self.forest.n_trees()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained(samples: usize, sizes: &[usize]) -> (WanPredictionModel, Dataset) {
        let analyzer = BandwidthAnalyzer::new(samples);
        let data = analyzer.collect(sizes, 42);
        let model = WanPredictionModel::train(&data, 30, 1);
        (model, data)
    }

    #[test]
    fn training_accuracy_is_high() {
        let (model, data) = trained(60, &[4]);
        let acc = model.training_accuracy(&data);
        assert!(acc > 90.0, "training accuracy {acc}% (paper: 98.51%)");
    }

    #[test]
    fn predictions_beat_static_independent_measurements() {
        // The paper's Fig. 11 claim: predicted runtime BW is significantly
        // closer to actual runtime BW than static-independent probes are.
        let analyzer = BandwidthAnalyzer::new(80);
        let data = analyzer.collect(&[4], 7);
        let model = WanPredictionModel::train(&data, 50, 2);
        let topo = paper_testbed_n(VmType::t3_nano(), 4);
        let mut sim = NetSim::new(topo, LinkModelParams::default(), 999);
        sim.shuffle_time();
        let static_bw = sim.measure_static_independent();
        let conns = ConnMatrix::filled(4, 1);
        let snapshot = sim.snapshot(&conns);
        let predicted = model.predict_matrix(&snapshot, sim.topology()).unwrap();
        let stable = sim.measure_runtime(&conns, STABLE_PROBE_S).bw;
        let err = |m: &BwMatrix| -> f64 {
            m.iter_pairs().map(|(i, j, v)| (v - stable.get(i, j)).abs()).sum()
        };
        assert!(
            err(&predicted) < err(&static_bw),
            "prediction error {} should beat static-independent error {}",
            err(&predicted),
            err(&static_bw)
        );
    }

    #[test]
    fn cross_cluster_size_generalization() {
        // Train on sizes {3, 5}, predict for size 4 (paper §3.3.2).
        let (model, _) = trained(10, &[3, 5]);
        let topo = paper_testbed_n(VmType::t3_nano(), 4);
        let mut sim = NetSim::new(topo, LinkModelParams::default(), 31);
        let snapshot = sim.snapshot(&ConnMatrix::filled(4, 1));
        let predicted = model.predict_matrix(&snapshot, sim.topology()).unwrap();
        assert!(predicted.min_off_diag() >= 0.0);
        assert!(predicted.max_off_diag() > 100.0, "plausible magnitudes expected");
    }

    #[test]
    fn staleness_flags_and_warm_start_clears() {
        let (mut model, data) = trained(8, &[3]);
        let n = 3;
        let predicted = BwMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1000.0 });
        let actual = BwMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 400.0 });
        model.record_error(&predicted, &actual);
        assert!(model.needs_retraining(), "150% error must flag retraining");
        assert!(model.recent_error_pct().unwrap() > 100.0);
        let trees_before = model.n_trees();
        model.retrain(&data, 10);
        assert!(!model.needs_retraining());
        assert_eq!(model.n_trees(), trees_before + 10);
    }

    #[test]
    fn small_errors_do_not_flag() {
        let (mut model, _) = trained(8, &[3]);
        let predicted = BwMatrix::from_fn(3, |i, j| if i == j { 0.0 } else { 500.0 });
        let actual = BwMatrix::from_fn(3, |i, j| if i == j { 0.0 } else { 520.0 });
        model.record_error(&predicted, &actual);
        assert!(!model.needs_retraining());
    }

    #[test]
    fn predict_matrix_checks_dimensions() {
        let (model, _) = trained(6, &[3]);
        let topo = paper_testbed_n(VmType::t3_nano(), 4);
        let mut sim3 =
            NetSim::new(paper_testbed_n(VmType::t3_nano(), 3), LinkModelParams::default(), 1);
        let probe3 = sim3.snapshot(&ConnMatrix::filled(3, 1));
        assert!(matches!(
            model.predict_matrix(&probe3, &topo),
            Err(WanifyError::DimensionMismatch { .. })
        ));
    }
}
