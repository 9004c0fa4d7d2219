//! Quickstart: minimize the energy bill of an edge object-recognition
//! service while honouring delay and precision SLOs.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the flow-level testbed (a simulated srsRAN vBS + GPU server
//! closed loop), wires an EdgeBOL agent through the O-RAN control plane,
//! runs 80 orchestration periods and prints the learning progress.

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_metrics::Registry;
use edgebol_oran::{ChaosConfig, TransportKind};
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};

fn main() {
    // The paper's §6.2 setting: server power at 1 mu/W, BS power at
    // 8 mu/W, delay SLO 0.4 s, precision SLO mAP >= 0.5.
    let spec = ProblemSpec::new(1.0, 8.0, 0.4, 0.5);

    // A single user with good wireless conditions (35 dB mean SNR).
    let env = FlowTestbed::new(Calibration::default(), Scenario::single_user(35.0), 42);
    let agent = EdgeBolAgent::paper(&spec, 42);

    let mut orch = Orchestrator::new_with_transport(
        Box::new(env),
        Box::new(agent),
        spec,
        ChaosConfig::disabled(),
        Registry::disabled(),
        TransportKind::Poll,
    )
    .expect("in-process O-RAN chain wires up");
    println!("t    cost     delay   mAP    server_W  bs_W   control [res, airtime, gpu, mcs]  ok");
    let mut trace = edgebol_core::trace::Trace::default();
    for t in 0..80 {
        // `try_step` surfaces control-plane failures as typed errors; the
        // in-process chain never loses a link, so failing is fatal here.
        let r = match orch.try_step() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("orchestration aborted at t = {t}: {e}");
                std::process::exit(1);
            }
        };
        if t % 5 == 0 || t < 3 {
            let u = r.control.to_unit();
            println!(
                "{:<4} {:<8.1} {:<7.3} {:<6.3} {:<9.1} {:<6.2} [{:.2}, {:.2}, {:.2}, {:.2}]  {}",
                r.t,
                r.cost,
                r.obs.delay_s,
                r.obs.map,
                r.obs.server_power_w,
                r.obs.bs_power_w,
                u[0],
                u[1],
                u[2],
                u[3],
                if r.satisfied { "yes" } else { "NO" }
            );
        }
        trace.records.push(r);
    }

    println!();
    println!("first 10 periods mean cost : {:>8.1} mu", mean(&trace.costs()[..10]));
    println!("last 10 periods mean cost  : {:>8.1} mu", trace.tail_mean_cost(10));
    println!(
        "constraint satisfaction (after warm-up): {:.1}%",
        trace.satisfaction_rate(15) * 100.0
    );
    println!(
        "energy saving vs always-max-resources: {:.1}%",
        (mean(&trace.costs()[..5]) - trace.tail_mean_cost(10)) / mean(&trace.costs()[..5]) * 100.0
    );
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}
