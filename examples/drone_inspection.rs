//! Drone inspection: a moving user, fast-fading context, and an SLO the
//! operator relaxes mid-mission.
//!
//! ```text
//! cargo run --example drone_inspection
//! ```
//!
//! A drone streams frames for defect detection while flying through good
//! and bad coverage (mean SNR stepping between 5 and 38 dB — the Fig. 13
//! setting). Halfway through, the operator relaxes the delay SLO from
//! 0.4 s to 0.6 s (the paper: EdgeBOL "can adapt if, for example, the
//! operator decides to relax [the constraints] during the system runtime
//! in order to avoid such infeasibilities"). The non-parametric safe set
//! is recomputed instantly for the new bounds — no relearning. This run
//! uses the subframe-level DES for full pipeline fidelity.

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_metrics::Registry;
use edgebol_oran::{ChaosConfig, TransportKind};
use edgebol_testbed::{Calibration, DesTestbed, Scenario};

fn main() {
    let spec = ProblemSpec::new(1.0, 8.0, 0.4, 0.5);
    let env = DesTestbed::new(Calibration::default(), Scenario::dynamic(), 11);
    let agent = EdgeBolAgent::paper(&spec, 11);
    let mut orch = Orchestrator::new_with_transport(
        Box::new(env),
        Box::new(agent),
        spec,
        ChaosConfig::disabled(),
        Registry::disabled(),
        TransportKind::Poll,
    )
    .expect("in-process O-RAN chain wires up")
    .with_constraint_schedule(vec![(75, 0.6, 0.5)]);
    orch.record_safe_set = true;

    println!("t    snr_zone  d_max  delay   mAP    |safe|   control [res, air, gpu, mcs]  ok");
    let scenario = Scenario::dynamic();
    let mut violations_before = 0;
    let mut violations_after = 0;
    for t in 0..150 {
        let r = orch.try_step().expect("in-process control plane");
        if t % 6 == 0 {
            let u = r.control.to_unit();
            println!(
                "{:<4} {:>5.0} dB  {:>5.2}  {:<7.3} {:<6.3} {:<8} [{:.2}, {:.2}, {:.2}, {:.2}]  {}",
                r.t,
                scenario.snr_db(0, r.t),
                orch.spec().d_max,
                r.obs.delay_s,
                r.obs.map,
                r.safe_set_size.unwrap_or(0),
                u[0],
                u[1],
                u[2],
                u[3],
                if r.satisfied { "yes" } else { "NO" }
            );
        }
        if t >= 20 {
            if t < 75 {
                violations_before += u32::from(!r.satisfied);
            } else {
                violations_after += u32::from(!r.satisfied);
            }
        }
    }
    println!();
    println!(
        "violations before SLO relaxation (t in 20..75): {violations_before} / 55 \
         (deep fades make d <= 0.4 s infeasible; EdgeBOL parks at S0)"
    );
    println!(
        "violations after  SLO relaxation (t in 75..150): {violations_after} / 75 \
         (the relaxed SLO reopens the safe set instantly; deep 5 dB fades remain hard)"
    );
}
