//! The paper's headline claims, asserted end to end at test scale.
//!
//! Each test corresponds to a claim in the abstract/conclusion; exact
//! magnitudes are testbed-dependent (documented in REPRO.md), so the
//! assertions check directions and conservative lower bounds.

use wanify_experiments::common::ExpEnv;
use wanify_experiments::{fig11, fig2, fig5, fig7, model, table1, table2, Effort};

/// The 8-DC environment the query-grid claims run on.
fn env() -> ExpEnv {
    ExpEnv::new(8, Effort::Quick, 42)
}

/// "Existing GDA systems measure WAN BW statically ... such inaccurate WAN
/// BWs yield sub-optimal decisions" — a substantial fraction of pairs gap
/// significantly between static and runtime views (Table 1).
#[test]
fn claim_static_bandwidth_is_wrong_at_runtime() {
    let t = table1::run(42);
    assert!(t.total_significant() >= 10, "got {}", t.total_significant());
}

/// "Reduces ... WAN BW monitoring costs" by roughly an order of magnitude
/// (Table 2: ~96%).
#[test]
fn claim_monitoring_cost_savings() {
    let t = table2::run();
    assert!(t.savings_pct > 85.0, "got {:.1}%", t.savings_pct);
}

/// "WANify enhances WAN throughput by balancing between the strongest and
/// weakest WAN links" — heterogeneous connections raise the minimum link
/// while lowering the maximum (Fig. 2).
#[test]
fn claim_heterogeneous_connections_balance_links() {
    let f = fig2::run(42);
    let single = &f.strategies[0];
    let hetero = &f.strategies[2];
    assert!(hetero.bw.min_off_diag() > 1.5 * single.bw.min_off_diag());
    assert!(hetero.bw.max_off_diag() < single.bw.max_off_diag());
}

/// "Reduce latency ... with minimal effort" — enabling WANify on an
/// unmodified scheduler improves TeraSort latency, cost not worse than
/// marginally (Fig. 5).
#[test]
fn claim_wanify_tc_reduces_latency() {
    let f = fig5::run(&env());
    let base = f.row(&["No WANify"]);
    let tc = f.row(&["WANify-TC"]);
    assert!(tc.latency_s < base.latency_s);
    assert!(tc.cost_usd <= base.cost_usd * 1.02);
}

/// "Helps GDA systems reduce latency and cost" with a multi-fold minimum
/// bandwidth boost (Fig. 7: up to 24% latency, 3.3× min BW).
#[test]
fn claim_e2e_gains_on_gda_systems() {
    let f = fig7::run(&env());
    let gains: Vec<_> = f.rows.iter().map(|r| r.gain()).collect();
    let latency_pct = gains.iter().map(|g| g.latency_pct).fold(f64::NEG_INFINITY, f64::max);
    let min_bw_ratio = gains.iter().map(|g| g.min_bw_ratio).fold(f64::NEG_INFINITY, f64::max);
    assert!(latency_pct > 5.0, "best latency gain {latency_pct:.1}%");
    assert!(min_bw_ratio > 1.5, "best min BW ratio {min_bw_ratio:.2}x");
}

/// "Predicting the runtime WAN BW with an accuracy of 98.51%" — the forest
/// fits its training data in the high 90s and beats the baselines.
#[test]
fn claim_prediction_accuracy() {
    let m = model::run(Effort::Quick, 42);
    assert!(m.forest().train_accuracy_pct > 90.0, "got {:.2}%", m.forest().train_accuracy_pct);
}

/// "Handling dynamics and heterogeneity efficiently" — predicted matrices
/// beat static ones across cluster sizes and VM fleets (Fig. 11).
#[test]
fn claim_prediction_beats_static_across_shapes() {
    let f = fig11::run(&env());
    let s: usize =
        f.by_cluster_size.iter().chain(&f.by_extra_vms).map(|r| r.static_significant).sum();
    let p: usize =
        f.by_cluster_size.iter().chain(&f.by_extra_vms).map(|r| r.predicted_significant).sum();
    assert!(p < s, "predicted {p} significant diffs vs static {s}");
}
