//! Campus surveillance: a multi-camera slice under day/night electricity
//! pricing.
//!
//! ```text
//! cargo run --example campus_surveillance
//! ```
//!
//! Four camera users with heterogeneous channels share the slice. The
//! operator reprices vBS energy at night (the paper motivates δ2 with
//! exactly this: "the price of electricity … may vary between day and
//! night depending on the rates set by the power suppliers"): daytime
//! δ2 = 2, night-time δ2 = 16 (the small cell switches to its battery
//! budget). Each tariff phase runs its own EdgeBOL agent — the cost
//! function changes, so the cost GP must be relearned — and the example
//! shows the converged policies shifting power away from whichever
//! resource became expensive.

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::Trace;
use edgebol_metrics::Registry;
use edgebol_oran::{ChaosConfig, TransportKind};
use edgebol_testbed::{Calibration, FlowTestbed, Scenario};

fn run_phase(label: &str, delta2: f64, periods: usize, seed: u64) -> Trace {
    let spec = ProblemSpec::new(1.0, delta2, 3.0, 0.5);
    let env = FlowTestbed::new(Calibration::default(), Scenario::heterogeneous(4), seed);
    let agent = EdgeBolAgent::paper(&spec, seed);
    let mut orch = Orchestrator::new_with_transport(
        Box::new(env),
        Box::new(agent),
        spec,
        ChaosConfig::disabled(),
        Registry::disabled(),
        TransportKind::Poll,
    )
    .expect("in-process O-RAN chain wires up");
    let trace = orch.try_run(periods).expect("in-process control plane");
    let u = trace.tail_mean_control(20);
    println!("--- {label} (delta2 = {delta2}) ---");
    println!("  converged cost            : {:>8.1} mu/period", trace.tail_mean_cost(20));
    println!(
        "  converged policies        : res {:.2}  airtime {:.2}  gpu {:.2}  mcs {:.2}",
        u[0], u[1], u[2], u[3]
    );
    println!(
        "  power split               : server {:>6.1} W | vBS {:>5.2} W",
        mean_tail(&trace.server_powers()),
        mean_tail(&trace.bs_powers()),
    );
    println!("  SLO satisfaction          : {:.1}%", trace.satisfaction_rate(15) * 100.0);
    trace
}

fn mean_tail(v: &[f64]) -> f64 {
    let n = v.len();
    v[n.saturating_sub(20)..].iter().sum::<f64>() / 20.0_f64.min(n as f64)
}

fn main() {
    println!("Campus surveillance slice: 4 cameras, SLO: delay <= 3 s, mAP >= 0.5\n");
    let day = run_phase("daytime tariff", 2.0, 150, 7);
    println!();
    let night = run_phase("night battery budget", 16.0, 150, 8);

    println!();
    let d_bs = mean_tail(&day.bs_powers());
    let n_bs = mean_tail(&night.bs_powers());
    println!(
        "vBS power, day vs night   : {:.2} W -> {:.2} W ({}) — pricier watts get trimmed",
        d_bs,
        n_bs,
        if n_bs < d_bs { "reduced" } else { "unchanged" }
    );
}
