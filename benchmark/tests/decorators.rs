//! The timing decorators must not change what the program does.

use edgebol_benchmark::decor::{SharedLog, TimedAgent, TimedEnv};
use edgebol_benchmark::stats::record_bits;
use edgebol_benchmark::workload::{cold_orch, episode_seed, quick_parts};
use edgebol_core::Agent;
use edgebol_testbed::Environment;

/// Periods of the fixed-seed `cold_start` comparison: the 12-round
/// warm-up, the hyperparameter fit and a growing GP window.
const PERIODS: usize = 40;

#[test]
fn decorated_cold_start_is_bit_identical_to_plain() {
    let log = SharedLog::default();
    let mut plain = cold_orch(42, 0, None).expect("reactor orchestrator");
    let mut decorated = cold_orch(42, 0, Some(&log)).expect("reactor orchestrator");
    for t in 0..PERIODS {
        let a = plain.try_step().expect("plain period");
        let b = decorated.try_step().expect("decorated period");
        assert_eq!(record_bits(&a), record_bits(&b), "period {t} differs");
    }
    let l = log.lock();
    for (stage, n) in
        [("select", &l.select), ("update", &l.update), ("context", &l.context), ("step", &l.step)]
    {
        assert_eq!(n.len(), PERIODS, "{stage} calls recorded");
    }
    assert_eq!(l.warmup_selects, 12, "the paper learner warms up for 12 periods");
}

#[test]
fn decorators_forward_every_trait_method() {
    let es = episode_seed(9, 0);
    let (mut env_a, mut agent_a) = quick_parts(es);
    let (env_b, agent_b) = quick_parts(es);
    let log = SharedLog::default();
    let mut env_b = TimedEnv::new(env_b, log.clone());
    let mut agent_b = TimedAgent::new(agent_b, log.clone());

    agent_a.set_constraints(1.5, 0.55);
    agent_b.set_constraints(1.5, 0.55);
    env_a.set_gpu_contention(1.7);
    env_b.set_gpu_contention(1.7);
    assert_eq!(env_a.num_users(), env_b.num_users());
    assert_eq!(agent_a.name(), agent_b.name());
    for _ in 0..10 {
        let (ca, cb) = (env_a.observe_context(), env_b.observe_context());
        assert_eq!(ca, cb);
        let (xa, xb) = (agent_a.select(&ca), agent_b.select(&cb));
        assert_eq!(xa, xb);
        let (oa, ob) = (env_a.step(&xa), env_b.step(&xb));
        assert_eq!(oa, ob);
        agent_a.update(&ca, &xa, &oa);
        agent_b.update(&cb, &xb, &ob);
    }
    let ctx = env_a.observe_context();
    assert_eq!(ctx, env_b.observe_context());
    assert_eq!(agent_a.safe_set_size(&ctx), agent_b.safe_set_size(&ctx));
    assert_eq!(agent_a.export_experience(), agent_b.export_experience());
    let agent_state = agent_a.save_state().expect("EdgeBOL saves state");
    assert_eq!(agent_b.save_state().as_ref(), Some(&agent_state));
    let env_state = env_a.save_state().expect("the flow testbed saves state");
    assert_eq!(env_b.save_state().as_ref(), Some(&env_state));

    let (fresh_env, fresh_agent) = quick_parts(es);
    let mut fresh_agent = TimedAgent::new(fresh_agent, log.clone());
    fresh_agent.load_state(&agent_state).expect("agent restore");
    assert_eq!(fresh_agent.save_state(), Some(agent_state));
    let mut fresh_env = TimedEnv::new(fresh_env, log);
    fresh_env.load_state(&env_state).expect("environment restore");
    assert_eq!(fresh_env.save_state(), Some(env_state));
}
