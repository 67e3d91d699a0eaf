//! Bandwidth probes: the simulator's iPerf and ifTop.
//!
//! Four measurement styles from the paper:
//!
//! * **static-independent** (§2.2) — one DC pair at a time, as existing GDA
//!   systems do; cheap but blind to runtime contention.
//! * **static-simultaneous** (§2.2) — all pairs at once; accurate but
//!   expensive (the paper's Table 2 cost bottleneck).
//! * **stable runtime** (§2.2) — ≥20 s of simultaneous monitoring; the
//!   ground truth that WANify's model predicts.
//! * **snapshot** (§2.2/§3.1) — a 1-second sample with observation noise;
//!   the cheap feature WANify feeds its Random Forest.
//!
//! Probes also report per-host metrics (memory, CPU, retransmissions) used
//! as prediction features (paper Table 3).

use crate::flow::FlowSpec;
use crate::grid::{BwMatrix, ConnMatrix};
use crate::sim::{with_scratch, NetSim};
use crate::stats::clamp;
use crate::topology::DcId;
use rand::Rng;

/// Node-level metrics sampled during a probe (paper Table 3 features).
#[derive(Debug, Clone, PartialEq)]
pub struct HostMetrics {
    /// Memory utilization in `[0, 1]` — each connection pins buffers.
    pub mem_util: f64,
    /// CPU load in `[0, 1]` — grows with throughput and connection count.
    pub cpu_load: f64,
    /// TCP retransmissions observed during the probe second.
    pub retransmissions: u32,
}

/// A bandwidth matrix plus the host metrics observed while measuring it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReading {
    /// Measured throughput per directed DC pair, in Mbps.
    pub bw: BwMatrix,
    /// Metrics for each host, indexed by `DcId`.
    pub hosts: Vec<HostMetrics>,
}

impl NetSim {
    /// Rates for an all-to-all measurement round under `conns`. The flow
    /// list and the solver scratch are the thread's, so repeated rounds (a
    /// stable-runtime probe solves one per second, a prediction loop
    /// snapshots thousands of times) stay allocation-free but for the
    /// matrix they return.
    fn measure_round(&self, conns: &ConnMatrix) -> BwMatrix {
        let n = self.topology().len();
        with_scratch(|s| {
            s.probe.clear();
            for i in 0..n {
                for j in 0..n {
                    if i != j && conns.get(i, j) > 0 {
                        s.probe.push(FlowSpec::new(DcId(i), DcId(j), conns.get(i, j)));
                    }
                }
            }
            let rates = self.allocate_rates_with(&s.probe, &mut s.solve);
            let mut bw = BwMatrix::new(n);
            for (f, &rate) in s.probe.iter().zip(rates) {
                bw.put(f.src, f.dst, rate);
            }
            bw
        })
    }

    /// Measures one directed pair in isolation with `conns` connections,
    /// like a lone iPerf run. Advances time by one second.
    pub fn measure_pair(&mut self, src: DcId, dst: DcId, conns: u32) -> f64 {
        let flow = [FlowSpec::new(src, dst, conns)];
        let rate = with_scratch(|s| self.allocate_rates_with(&flow, &mut s.solve)[0]);
        self.advance(1.0);
        rate
    }

    /// Static-independent probe: every directed pair measured alone with a
    /// single connection, sequentially (existing GDA systems' approach).
    pub fn measure_static_independent(&mut self) -> BwMatrix {
        let n = self.topology().len();
        let mut bw = BwMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let rate = self.measure_pair(DcId(i), DcId(j), 1);
                    bw.set(i, j, rate);
                }
            }
        }
        bw
    }

    /// Stable runtime probe: all pairs simultaneously under `conns`,
    /// averaged over `duration_s` seconds of evolving dynamics (the paper
    /// observes that ≥20 s is needed for stability, §2.2).
    pub fn measure_runtime(&mut self, conns: &ConnMatrix, duration_s: u32) -> ProbeReading {
        let n = self.topology().len();
        let secs = duration_s.max(1);
        let mut acc = BwMatrix::new(n);
        for _ in 0..secs {
            let round = self.measure_round(conns);
            for i in 0..n {
                for j in 0..n {
                    acc.set(i, j, acc.get(i, j) + round.get(i, j));
                }
            }
            self.advance(1.0);
        }
        let bw = acc.map(|v| v / f64::from(secs));
        let hosts = self.host_metrics(conns, &bw, 0.0);
        ProbeReading { bw, hosts }
    }

    /// Snapshot probe: one second of simultaneous measurement with
    /// observation noise — WANify's cheap model input (paper §3.1).
    pub fn snapshot(&mut self, conns: &ConnMatrix) -> ProbeReading {
        let noise = self.params().snapshot_noise;
        let round = self.measure_round(conns);
        let bw = {
            let rng = self.rng_mut();
            round.map(|v| {
                let eps: f64 = rng.gen_range(-1.0..1.0) * noise;
                (v * (1.0 + eps)).max(0.0)
            })
        };
        self.advance(1.0);
        let hosts = self.host_metrics(conns, &bw, noise);
        ProbeReading { bw, hosts }
    }

    /// Deterministic host metrics plus probe noise.
    fn host_metrics(&mut self, conns: &ConnMatrix, bw: &BwMatrix, noise: f64) -> Vec<HostMetrics> {
        let n = self.topology().len();
        // Connections per host under the all-pairs flow set of `conns`.
        let mut host_conns = vec![0u32; n];
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                host_conns[i] += conns.get(i, j);
                host_conns[j] += conns.get(i, j);
            }
        }
        (0..n)
            .map(|h| {
                let dc = self.topology().dc(DcId(h));
                let budget = dc.conn_budget();
                let divisor = self.params().congestion_divisor(host_conns[h], budget);
                let egress: f64 = (0..n).filter(|&j| j != h).map(|j| bw.get(h, j)).sum();
                let ingress: f64 = (0..n).filter(|&i| i != h).map(|i| bw.get(i, h)).sum();
                let util = (egress / dc.egress_cap_mbps() + ingress / dc.ingress_cap_mbps()) / 2.0;
                // Each connection pins socket buffers; receive side dominates.
                let mem_base = 0.25
                    + 0.012 * f64::from(host_conns[h]) / f64::from(dc.vm_count)
                    + 0.2 * (ingress / dc.ingress_cap_mbps());
                let cpu_base =
                    0.15 + 0.006 * f64::from(host_conns[h]) / f64::from(dc.vm_count) + 0.45 * util;
                let retrans_base = 40.0 * (divisor - 1.0) + 2.0 * util;
                let jitter = {
                    let rng = self.rng_mut();
                    let j: f64 = rng.gen_range(-1.0..1.0);
                    j * noise
                };
                HostMetrics {
                    mem_util: clamp(mem_base * (1.0 + jitter), 0.0, 0.98),
                    cpu_load: clamp(cpu_base * (1.0 + jitter), 0.0, 1.0),
                    retransmissions: (retrans_base.max(0.0) * (1.0 + jitter)).round() as u32,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Region;
    use crate::params::LinkModelParams;
    use crate::topology::Topology;
    use crate::vm::VmType;
    use crate::{paper_testbed, paper_testbed_n};

    fn sim8() -> NetSim {
        NetSim::new(paper_testbed(VmType::t2_medium()), LinkModelParams::frozen(), 11)
    }

    #[test]
    fn static_independent_matches_calibration_endpoints() {
        let mut sim = sim8();
        let bw = sim.measure_static_independent();
        let use_usw = bw.get(0, 1);
        let use_apse = bw.get(0, 3);
        assert!((1500.0..1900.0).contains(&use_usw), "US East→US West {use_usw}");
        assert!((100.0..150.0).contains(&use_apse), "US East→AP SE {use_apse}");
    }

    #[test]
    fn runtime_differs_from_static_under_contention() {
        let mut sim = sim8();
        let stat = sim.measure_static_independent();
        let runtime = sim.measure_runtime(&ConnMatrix::filled(8, 1), 20);
        let significant = stat.count_significant_diffs(&runtime.bw, 100.0);
        assert!(
            significant >= 6,
            "expected many significant static-vs-runtime gaps, got {significant}"
        );
        assert!(runtime.bw.min_off_diag() < stat.min_off_diag() + 1e-9);
    }

    #[test]
    fn snapshot_correlates_with_stable_runtime() {
        let topo = paper_testbed_n(VmType::t2_medium(), 5);
        let mut sim = NetSim::new(topo, LinkModelParams::default(), 5);
        let conns = ConnMatrix::filled(5, 1);
        let snap = sim.snapshot(&conns);
        let stable = sim.measure_runtime(&conns, 20);
        let xs: Vec<f64> = snap.bw.iter_pairs().map(|(_, _, v)| v).collect();
        let ys: Vec<f64> = stable.bw.iter_pairs().map(|(_, _, v)| v).collect();
        let r = crate::stats::pearson(&xs, &ys);
        assert!(r > 0.8, "snapshot/stable Pearson correlation {r} (paper: positive)");
    }

    #[test]
    fn host_metrics_within_bounds() {
        let mut sim = sim8();
        let reading = sim.measure_runtime(&ConnMatrix::filled(8, 8), 5);
        for h in &reading.hosts {
            assert!((0.0..=0.98).contains(&h.mem_util));
            assert!((0.0..=1.0).contains(&h.cpu_load));
        }
    }

    #[test]
    fn oversubscription_produces_retransmissions() {
        let mut sim = sim8();
        let calm = sim.measure_runtime(&ConnMatrix::filled(8, 1), 2);
        let flooded = sim.measure_runtime(&ConnMatrix::filled(8, 10), 2);
        let calm_total: u32 = calm.hosts.iter().map(|h| h.retransmissions).sum();
        let flooded_total: u32 = flooded.hosts.iter().map(|h| h.retransmissions).sum();
        assert!(flooded_total > calm_total, "flooded {flooded_total} vs calm {calm_total}");
    }

    #[test]
    fn measure_pair_is_isolated() {
        let topo = Topology::builder()
            .dc(Region::UsEast, VmType::t2_medium(), 1)
            .dc(Region::ApSoutheast1, VmType::t2_medium(), 1)
            .build()
            .unwrap();
        let mut sim = NetSim::new(topo, LinkModelParams::frozen(), 3);
        let one = sim.measure_pair(DcId(0), DcId(1), 1);
        let nine = sim.measure_pair(DcId(0), DcId(1), 9);
        assert!(nine > 6.0 * one);
    }

    #[test]
    fn probe_advances_simulated_time() {
        let mut sim = sim8();
        let t0 = sim.time_s();
        let _ = sim.snapshot(&ConnMatrix::filled(8, 1));
        assert!(sim.time_s() > t0);
    }
}
