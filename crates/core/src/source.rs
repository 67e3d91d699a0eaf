//! Bandwidth provenance: where a `BwMatrix` comes from.
//!
//! The paper's central argument (§2.2) is that *how* a bandwidth matrix
//! was obtained — a cheap static probe, an expensive simultaneous
//! measurement, or a model prediction — determines how useful it is at
//! runtime, yet GDA systems consume all of them through the same N×N
//! interface (§2.3). [`BandwidthSource`] makes that interface explicit:
//! consumers ([`Wanify::plan`], the `wanify-gda` schedulers and executor,
//! the experiment drivers) ask a source to [`gauge`] the network and never
//! hard-wire the provenance again.
//!
//! Four provenances from the paper, plus a passthrough:
//!
//! * [`StaticIndependent`] — one pair at a time, measured **once** and
//!   cached (what existing GDA systems do; Table 1's "static" column).
//! * [`StaticSimultaneous`] — all pairs at once for 20 s, measured
//!   **once** and cached (the paper's upper-bound belief, §5.2).
//! * [`PredictedRuntime`] — WANify's model: a fresh 1-second snapshot
//!   through the trained Random Forest on **every** gauge (§3.1).
//! * [`MeasuredRuntime`] — ground truth: a fresh stable simultaneous
//!   measurement on every gauge (accurate but ~25× the monitoring cost,
//!   Table 2).
//! * [`Pregauged`] — wraps an already-obtained matrix, for derived
//!   beliefs (e.g. WANify's achievable-bandwidth matrix) and tests.
//!
//! The static sources cache deliberately: re-gauging them returns the
//! stale matrix, reproducing the static-vs-runtime divergence the paper
//! measures rather than hiding it.
//!
//! [`gauge`]: BandwidthSource::gauge
//! [`Wanify::plan`]: crate::Wanify::plan

use std::sync::Arc;

use crate::error::WanifyError;
use crate::predictor::{WanPredictionModel, STABLE_PROBE_S};
use wanify_netsim::{BwMatrix, ConnMatrix, DataCenter, NetSim};

/// A provider of directed bandwidth matrices for a live network.
///
/// Implementations are free to measure (`&mut NetSim` allows probing),
/// predict, or replay; callers treat every provenance identically.
pub trait BandwidthSource: Send {
    /// Short provenance label for reports (e.g. `"predicted"`).
    fn name(&self) -> &str;

    /// Produces the source's current belief about `net`'s directed
    /// runtime bandwidth, in Mbps.
    ///
    /// # Errors
    ///
    /// Returns [`WanifyError`] when the source cannot produce a matrix for
    /// the network (e.g. a prediction model trained for a different
    /// feature arity).
    fn gauge(&mut self, net: &mut NetSim) -> Result<BwMatrix, WanifyError>;
}

/// A cached static measurement, keyed to the cluster it was taken on.
///
/// Static sources are meant to go stale *in time* on one network, not
/// to replay one cluster's measurements onto another: re-gauging a
/// different cluster — another size, other regions, another VM flavor or
/// fleet size in any DC — re-measures.
#[derive(Debug, Clone)]
struct StaticCache {
    bw: BwMatrix,
    dcs: Vec<DataCenter>,
}

impl StaticCache {
    fn lookup(cache: &Option<Self>, net: &NetSim) -> Option<BwMatrix> {
        cache.as_ref().filter(|c| c.dcs.iter().eq(dcs(net))).map(|c| c.bw.clone())
    }

    fn store(bw: &BwMatrix, net: &NetSim) -> Option<Self> {
        Some(Self { bw: bw.clone(), dcs: dcs(net).cloned().collect() })
    }
}

/// Every DC of `net` — region, VM flavor, fleet size — in index order.
fn dcs(net: &NetSim) -> impl Iterator<Item = &DataCenter> {
    net.topology().iter().map(|(_, dc)| dc)
}

/// Every-pair-independently static probing, measured once then cached —
/// the belief existing GDA systems run on (§2.2).
#[derive(Debug, Clone, Default)]
pub struct StaticIndependent {
    cache: Option<StaticCache>,
}

impl StaticIndependent {
    /// Creates the source (nothing measured until the first gauge).
    pub fn new() -> Self {
        Self::default()
    }
}

impl BandwidthSource for StaticIndependent {
    fn name(&self) -> &str {
        "static-independent"
    }

    fn gauge(&mut self, net: &mut NetSim) -> Result<BwMatrix, WanifyError> {
        if let Some(bw) = StaticCache::lookup(&self.cache, net) {
            return Ok(bw);
        }
        let bw = net.measure_static_independent();
        self.cache = StaticCache::store(&bw, net);
        Ok(bw)
    }
}

/// All-pairs-simultaneously static measurement (single connections, 20 s
/// by default), measured once then cached — the paper's §5.2
/// "static-simultaneous" belief.
#[derive(Debug, Clone)]
pub struct StaticSimultaneous {
    probe_s: u32,
    cache: Option<StaticCache>,
}

impl Default for StaticSimultaneous {
    fn default() -> Self {
        Self::new(STABLE_PROBE_S)
    }
}

impl StaticSimultaneous {
    /// Creates the source with a measurement window of `probe_s` seconds.
    pub fn new(probe_s: u32) -> Self {
        Self { probe_s, cache: None }
    }
}

impl BandwidthSource for StaticSimultaneous {
    fn name(&self) -> &str {
        "static-simultaneous"
    }

    fn gauge(&mut self, net: &mut NetSim) -> Result<BwMatrix, WanifyError> {
        if let Some(bw) = StaticCache::lookup(&self.cache, net) {
            return Ok(bw);
        }
        let n = net.topology().len();
        let bw = net.measure_runtime(&ConnMatrix::filled(n, 1), self.probe_s).bw;
        self.cache = StaticCache::store(&bw, net);
        Ok(bw)
    }
}

/// WANify's cheap runtime belief: a fresh 1-second snapshot through the
/// trained Random Forest on every gauge (§3.1, §4.1.1).
///
/// The model is held behind an [`Arc`], so cloning the source (or
/// building many sources from one trained model) shares the forest
/// instead of deep-copying its trees.
#[derive(Debug, Clone)]
pub struct PredictedRuntime {
    model: Arc<WanPredictionModel>,
}

impl PredictedRuntime {
    /// Creates the source around a trained prediction model (an owned
    /// model or an already-shared `Arc<WanPredictionModel>`).
    pub fn new(model: impl Into<Arc<WanPredictionModel>>) -> Self {
        Self { model: model.into() }
    }

    /// Read access to the underlying model (e.g. for staleness queries).
    pub fn model(&self) -> &WanPredictionModel {
        &self.model
    }
}

impl BandwidthSource for PredictedRuntime {
    fn name(&self) -> &str {
        "predicted"
    }

    fn gauge(&mut self, net: &mut NetSim) -> Result<BwMatrix, WanifyError> {
        let n = net.topology().len();
        let snapshot = net.snapshot(&ConnMatrix::filled(n, 1));
        self.model.predict_matrix(&snapshot, net.topology())
    }
}

/// Ground-truth runtime bandwidth: a fresh stable simultaneous measurement
/// (single connections) on every gauge. Accurate, but it costs a full
/// measurement window each time — the monitoring cost WANify's prediction
/// avoids (Table 2).
#[derive(Debug, Clone)]
pub struct MeasuredRuntime {
    probe_s: u32,
}

impl Default for MeasuredRuntime {
    fn default() -> Self {
        Self::new(STABLE_PROBE_S)
    }
}

impl MeasuredRuntime {
    /// Creates the source with a measurement window of `probe_s` seconds.
    pub fn new(probe_s: u32) -> Self {
        Self { probe_s }
    }
}

impl BandwidthSource for MeasuredRuntime {
    fn name(&self) -> &str {
        "measured-runtime"
    }

    fn gauge(&mut self, net: &mut NetSim) -> Result<BwMatrix, WanifyError> {
        let n = net.topology().len();
        Ok(net.measure_runtime(&ConnMatrix::filled(n, 1), self.probe_s).bw)
    }
}

/// A matrix obtained elsewhere, wrapped as a source.
///
/// Used for derived beliefs (WANify's achievable-bandwidth matrix fed to a
/// scheduler), for error-injection studies, and for tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Pregauged {
    bw: BwMatrix,
    label: String,
}

impl Pregauged {
    /// Wraps `bw` with the generic `"pregauged"` provenance label.
    pub fn new(bw: BwMatrix) -> Self {
        Self::named(bw, "pregauged")
    }

    /// Wraps `bw` with an explicit provenance label for reports (e.g.
    /// `"wanify(predicted)"` for a derived achievable-bandwidth belief).
    pub fn named(bw: BwMatrix, label: impl Into<String>) -> Self {
        Self { bw, label: label.into() }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &BwMatrix {
        &self.bw
    }
}

impl BandwidthSource for Pregauged {
    fn name(&self) -> &str {
        &self.label
    }

    fn gauge(&mut self, _net: &mut NetSim) -> Result<BwMatrix, WanifyError> {
        Ok(self.bw.clone())
    }
}

impl From<BwMatrix> for Pregauged {
    fn from(bw: BwMatrix) -> Self {
        Self::new(bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanify_netsim::{paper_testbed_n, LinkModelParams, VmType};

    fn sim(n: usize, seed: u64) -> NetSim {
        NetSim::new(paper_testbed_n(VmType::t3_nano(), n), LinkModelParams::default(), seed)
    }

    #[test]
    fn static_sources_cache_their_first_measurement() {
        let mut net = sim(3, 5);
        let mut ind = StaticIndependent::new();
        let first = ind.gauge(&mut net).unwrap();
        net.shuffle_time();
        let second = ind.gauge(&mut net).unwrap();
        assert_eq!(first, second, "static-independent must return the stale view");

        let mut simu = StaticSimultaneous::default();
        let first = simu.gauge(&mut net).unwrap();
        net.shuffle_time();
        assert_eq!(first, simu.gauge(&mut net).unwrap());
    }

    #[test]
    fn static_cache_invalidates_on_topology_change() {
        let mut ind = StaticIndependent::new();
        let three = ind.gauge(&mut sim(3, 5)).unwrap();
        assert_eq!(three.len(), 3);
        let four = ind.gauge(&mut sim(4, 5)).unwrap();
        assert_eq!(four.len(), 4, "a different cluster must be re-measured");
    }

    #[test]
    fn static_cache_invalidates_on_different_regions_same_size() {
        use wanify_netsim::{Region, Topology};

        let mut ind = StaticIndependent::new();
        let first = ind.gauge(&mut sim(3, 5)).unwrap();
        // Same size, different regions: the cache must not replay the
        // first cluster's measurements.
        let other = Topology::builder()
            .dc(Region::EuWest, VmType::t3_nano(), 1)
            .dc(Region::SaEast, VmType::t3_nano(), 1)
            .dc(Region::ApNortheast, VmType::t3_nano(), 1)
            .build()
            .expect("3-DC cluster");
        let mut net = NetSim::new(other, LinkModelParams::default(), 5);
        let second = ind.gauge(&mut net).unwrap();
        assert_ne!(first, second, "a same-size but different cluster must be re-measured");
    }

    #[test]
    fn static_cache_invalidates_on_a_different_vm_fleet() {
        // Same regions, another cluster: two more VMs in one DC, or
        // another flavor everywhere, move the NIC caps the measurement
        // ran into. (No committed artifact reaches this: each builds a
        // fresh source per arm, which is why `REPRO.md` does not move.)
        let topo = |vm: VmType| paper_testbed_n(vm, 3);
        // A seed per simulator: probe noise tells a measurement from a replay.
        let net = |topo, seed| NetSim::new(topo, LinkModelParams::default(), seed);
        for mut source in [
            Box::new(StaticIndependent::new()) as Box<dyn BandwidthSource>,
            Box::new(StaticSimultaneous::default()),
        ] {
            let first = source.gauge(&mut net(topo(VmType::t3_nano()), 5)).unwrap();
            let again = source.gauge(&mut net(topo(VmType::t3_nano()), 6)).unwrap();
            assert_eq!(
                first,
                again,
                "{}: the same cluster is served from the cache",
                source.name()
            );
            let grown = topo(VmType::t3_nano()).with_extra_vms(wanify_netsim::DcId(1), 2);
            let second = source.gauge(&mut net(grown, 7)).unwrap();
            assert_ne!(first, second, "{}: a larger fleet must be re-measured", source.name());
            let third = source.gauge(&mut net(topo(VmType::t2_medium()), 8)).unwrap();
            assert_ne!(second, third, "{}: another flavor must be re-measured", source.name());
        }
    }

    #[test]
    fn predicted_runtime_reports_a_model_of_another_arity() {
        let mut data = wanify_forest::Dataset::new(4);
        for i in 0..20 {
            data.push(vec![f64::from(i), 1.0, 2.0, 3.0], f64::from(i)).unwrap();
        }
        let mut src = PredictedRuntime::new(WanPredictionModel::train(&data, 3, 1));
        assert_eq!(
            src.gauge(&mut sim(3, 1)),
            Err(WanifyError::FeatureArityMismatch { expected: 6, got: 4 })
        );
    }

    #[test]
    fn measured_runtime_tracks_network_dynamics() {
        let mut net = sim(3, 7);
        let mut src = MeasuredRuntime::default();
        let first = src.gauge(&mut net).unwrap();
        net.shuffle_time();
        let second = src.gauge(&mut net).unwrap();
        assert_ne!(first, second, "runtime gauges must follow the live network");
    }

    #[test]
    fn static_independent_diverges_from_runtime() {
        // Table 1 in trait form: the cluster-wide static view is brighter
        // than what simultaneous transfer achieves.
        let mut net = sim(4, 11);
        let static_bw = StaticIndependent::new().gauge(&mut net).unwrap();
        let runtime = MeasuredRuntime::default().gauge(&mut net).unwrap();
        assert!(static_bw.max_off_diag() > runtime.min_off_diag());
    }

    #[test]
    fn pregauged_returns_the_wrapped_matrix() {
        let bw = BwMatrix::filled(3, 250.0);
        let mut src = Pregauged::from(bw.clone());
        let mut net = sim(3, 1);
        assert_eq!(src.gauge(&mut net).unwrap(), bw);
        assert_eq!(src.name(), "pregauged");
    }

    #[test]
    fn source_names_are_distinct() {
        let names = [
            StaticIndependent::new().name().to_string(),
            StaticSimultaneous::default().name().to_string(),
            MeasuredRuntime::default().name().to_string(),
            Pregauged::new(BwMatrix::filled(2, 1.0)).name().to_string(),
        ];
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
