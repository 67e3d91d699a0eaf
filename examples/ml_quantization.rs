//! Geo-distributed ML training with bandwidth-driven gradient quantization
//! (paper §5.6, Fig. 4).
//!
//! Trains an MNIST-scale model on the 8-DC cluster with a parameter server
//! in US East, comparing full-precision gradients against SAGQ-style
//! quantization driven by static, simultaneous and predicted bandwidth
//! beliefs, plus the WANify-enabled variant with parallel heterogeneous
//! connections.
//!
//! ```text
//! cargo run --release -p wanify-experiments --example ml_quantization
//! ```

use wanify::{Wanify, WanifyConfig};
use wanify_experiments::common::{Belief, Effort, ExpEnv};
use wanify_workloads::quantization::{run_training, QuantConfig, QuantPolicy};

fn main() {
    let env = ExpEnv::new(8, Effort::Quick, 23);
    let cfg = QuantConfig {
        grad_mb_per_epoch: 450.0,
        compute_s_per_epoch: 60.0,
        epochs: 5,
        target_transfer_s: 25.0,
        ..QuantConfig::default()
    };
    println!(
        "training {} epochs, {} MB gradient traffic/epoch, master at US East\n",
        cfg.epochs, cfg.grad_mb_per_epoch
    );

    // Full precision baseline (NoQ).
    let mut sim = env.sim(0);
    let noq = run_training(&mut sim, &cfg, &QuantPolicy::FullPrecision, None, None);
    println!("NoQ    (32-bit)      {:>6.0}s  cost {}", noq.training_s, noq.cost);

    // Quantization on three beliefs, all gauged through the shared
    // BandwidthSource harness.
    for (name, belief) in [
        ("SAGQ", Belief::StaticIndependent),
        ("SimQ", Belief::StaticSimultaneous),
        ("PredQ", Belief::Predicted),
    ] {
        let mut sim = env.sim(1);
        let bw = env.gauge(belief, &mut sim);
        let r = run_training(&mut sim, &cfg, &QuantPolicy::BwDriven(bw), None, None);
        println!(
            "{name:<6} ({:<19}) {:>4.0}s  cost {}  bits {:?}",
            env.source(belief).name(),
            r.training_s,
            r.cost,
            r.bits_per_worker
        );
    }

    // WANify-enabled quantization (WQ): predicted beliefs + parallel
    // heterogeneous connections + local agents.
    let mut sim = env.sim(2);
    let predicted = env.gauge(Belief::Predicted, &mut sim);
    let wanify = Wanify::new(WanifyConfig::default());
    let plan = wanify.try_plan_matrix(&predicted).expect("no skew or rvec vector to mismatch");
    sim.set_throttles(&plan.initial_throttles);
    let mut agent = wanify.agent(&plan);
    let conns = plan.initial_conns().clone();
    // Same precision policy as PredQ; the speedup comes from the transport.
    let policy = QuantPolicy::BwDriven(predicted.clone());
    let wq = run_training(&mut sim, &cfg, &policy, Some(&conns), Some(&mut agent));
    println!(
        "WQ     (WANify)      {:>6.0}s  cost {}  min BW {:.0} Mbps",
        wq.training_s, wq.cost, wq.min_bw_mbps
    );
    println!(
        "\nWQ vs NoQ: {:+.1}% training time",
        100.0 * (noq.training_s - wq.training_s) / noq.training_s
    );
}
