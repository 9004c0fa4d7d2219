//! End-to-end learning tests: the full orchestration loop (agent ↔ O-RAN
//! control plane ↔ testbed) must learn, stay safe, and beat baselines.

use edgebol_bandit::{Constraints, ControlGrid, Oracle};
use edgebol_core::agent::{Agent, DdpgAgent, EdgeBolAgent};
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_core::trace::Trace;
use edgebol_metrics::Registry;
use edgebol_oran::ChaosConfig;
use edgebol_testbed::{Calibration, ControlInput, DesTestbed, Environment, FlowTestbed, Scenario};

/// Wires `env` and `agent` behind a fault-free O-RAN chain on the
/// transport `EDGEBOL_TRANSPORT` selects.
fn orchestrator(
    env: Box<dyn Environment>,
    agent: Box<dyn Agent>,
    spec: ProblemSpec,
) -> Orchestrator {
    Orchestrator::new_with_transport(
        env,
        agent,
        spec,
        ChaosConfig::disabled(),
        Registry::disabled(),
        edgebol_bench::env::transport(),
    )
    .expect("control-plane setup")
}

fn run_edgebol(spec: ProblemSpec, periods: usize, seed: u64) -> Trace {
    let env = FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), seed);
    let agent = EdgeBolAgent::paper(&spec, seed);
    orchestrator(Box::new(env), Box::new(agent), spec)
        .try_run(periods)
        .expect("fault-free control plane")
}

#[test]
fn converges_and_stays_safe_on_flow_testbed() {
    let spec = ProblemSpec::convergence(8.0);
    let trace = run_edgebol(spec, 120, 21);
    // Paper §6.2: converges within ~25 periods; constraints hold with
    // high probability upon convergence.
    assert!(trace.satisfaction_rate(30) > 0.9, "satisfaction {}", trace.satisfaction_rate(30));
    let early = trace.costs()[..12].iter().sum::<f64>() / 12.0;
    let late = trace.tail_mean_cost(20);
    assert!(late < early, "no learning: early {early:.1} late {late:.1}");
}

#[test]
fn learning_works_on_the_des_too() {
    // The learner never sees which fidelity it drives: the DES environment
    // must work through the same Orchestrator plumbing.
    let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
    let env = DesTestbed::new(Calibration::fast(), Scenario::single_user(35.0), 22);
    let agent = EdgeBolAgent::paper(&spec, 22);
    let trace = orchestrator(Box::new(env), Box::new(agent), spec)
        .try_run(60)
        .expect("fault-free control plane");
    assert!(trace.satisfaction_rate(20) > 0.8, "satisfaction {}", trace.satisfaction_rate(20));
    assert!(trace.tail_mean_cost(10) < trace.costs()[..8].iter().sum::<f64>() / 8.0);
}

#[test]
fn oracle_gap_is_small_on_the_convergence_setting() {
    // Fig. 10's empirical optimality claim, in test form: converged cost
    // within 15% of the exhaustive-search optimum (the paper's testbed
    // reports single-digit gaps; ours is conservative because the safe
    // set backs off by the observation-noise quantile).
    let spec = ProblemSpec::convergence(8.0);
    let trace = run_edgebol(spec, 150, 23);
    let grid = ControlGrid::paper();
    let probe = FlowTestbed::new(Calibration::default(), Scenario::single_user(35.0), 0);
    let mut map_cache = std::collections::HashMap::new();
    let oracle =
        Oracle::search(&grid, &Constraints { d_max: spec.d_max, rho_min: spec.rho_min }, |idx| {
            let c = grid.coords(idx);
            let control = ControlInput::from_unit(c[0], c[1], c[2], c[3]);
            let ss = probe.steady_state(&[35.0], &control);
            let key = (control.resolution * 1000.0).round() as i64;
            let rho =
                *map_cache.entry(key).or_insert_with(|| probe.expected_map(control.resolution));
            (ss.server_power_w + spec.delta2 * ss.bs_power_w, ss.worst_delay_s(), rho)
        });
    assert!(oracle.feasible, "medium setting must be feasible");
    let gap = (trace.tail_mean_cost(20) - oracle.best_cost) / oracle.best_cost;
    assert!(
        gap < 0.15,
        "optimality gap {:.1}% (cost {:.1} vs oracle {:.1})",
        gap * 100.0,
        trace.tail_mean_cost(20),
        oracle.best_cost
    );
    // And the learner actually beats naive max-resources operation.
    let max_cost = {
        let ss = probe.steady_state(&[35.0], &ControlInput::max_resources());
        ss.server_power_w + spec.delta2 * ss.bs_power_w
    };
    assert!(trace.tail_mean_cost(20) < max_cost, "no saving vs max resources");
}

#[test]
fn edgebol_adapts_to_constraint_changes_faster_than_ddpg() {
    // The Fig. 14 comparison in miniature: after a constraint tightening
    // at t = 120, EdgeBOL must violate the new constraints substantially
    // less often than DDPG over the adjustment window.
    let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
    let schedule = vec![(120usize, 0.4, 0.55)];
    let run = |agent: Box<dyn Agent>| -> Trace {
        let env = FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), 24);
        let mut orch =
            orchestrator(Box::new(env), agent, spec).with_constraint_schedule(schedule.clone());
        orch.try_run(240).expect("fault-free control plane")
    };
    let eb = run(Box::new(EdgeBolAgent::paper(&spec, 25)));
    let dd = run(Box::new(DdpgAgent::new(&spec, 25)));
    let viol =
        |t: &Trace| t.records[120..240].iter().filter(|r| !r.satisfied).count() as f64 / 120.0;
    let (v_eb, v_dd) = (viol(&eb), viol(&dd));
    assert!(v_eb < v_dd, "EdgeBOL should adapt better: {v_eb:.2} vs DDPG {v_dd:.2}");
    assert!(v_eb < 0.35, "EdgeBOL violation rate after change too high: {v_eb:.2}");
}

#[test]
fn multi_user_learning_close_to_oracle() {
    // Fig. 12 in test form, 4 heterogeneous users.
    let spec = ProblemSpec::new(1.0, 4.0, 3.0, 0.55);
    let scenario = Scenario::heterogeneous(4);
    // Full 150-scene dataset: the mAP observation noise of the fast
    // calibration widens the safe-set backoff enough to stall exploration
    // toward the (long-delay, low-power) optimum of this lax setting.
    let env = FlowTestbed::new(Calibration::default(), scenario.clone(), 0xC00);
    let agent = EdgeBolAgent::paper(&spec, 0x55);
    let trace = orchestrator(Box::new(env), Box::new(agent), spec)
        .try_run(250)
        .expect("fault-free control plane");

    let grid = ControlGrid::paper();
    let probe = FlowTestbed::new(Calibration::default(), scenario.clone(), 0);
    let snrs = [30.0, 24.0, 19.2, 15.36];
    let mut map_cache = std::collections::HashMap::new();
    let oracle =
        Oracle::search(&grid, &Constraints { d_max: spec.d_max, rho_min: spec.rho_min }, |idx| {
            let c = grid.coords(idx);
            let control = ControlInput::from_unit(c[0], c[1], c[2], c[3]);
            let ss = probe.steady_state(&snrs, &control);
            let key = (control.resolution * 1000.0).round() as i64;
            let rho =
                *map_cache.entry(key).or_insert_with(|| probe.expected_map(control.resolution));
            (ss.server_power_w + spec.delta2 * ss.bs_power_w, ss.worst_delay_s(), rho)
        });
    assert!(oracle.feasible);
    let gap = (trace.tail_mean_cost(20) - oracle.best_cost) / oracle.best_cost;
    assert!(gap < 0.20, "multi-user gap {:.1}%", gap * 100.0);
}
