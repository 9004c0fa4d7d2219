//! The three workloads: their seeded inputs, their set-up and their
//! timed loops.
//!
//! Every input comes from the workload seed through [`derive`]: the
//! environment and agent seeds, the random controls that pre-fill the
//! `steady_T800` window, the fleet seed and the kill schedule. The program
//! under test receives only those inputs.

use crate::decor::{SharedLog, TimedAgent, TimedEnv};
use crate::stats::{derive, SplitMix};
use edgebol_bandit::EdgeBolConfig;
use edgebol_core::{Agent, EdgeBolAgent, Orchestrator, PeriodRecord, ProblemSpec};
use edgebol_fleet::FleetConfig;
use edgebol_metrics::Registry;
use edgebol_oran::{ChaosConfig, LinkId, TransportKind};
use edgebol_testbed::{Calibration, ControlInput, Environment, FlowTestbed, Scenario};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input streams derived from one seed.
const ENV: u64 = 1;
const AGENT: u64 = 2;
const PREFILL: u64 = 3;
const FLEET: u64 = 4;
const KILLS: u64 = 5;
const EPISODE: u64 = 6;

/// The `steady_T800` window: the paper learner's observation cap.
pub const STEADY_WINDOW: usize = 800;
/// Periods in one `cold_start` episode.
pub const COLD_PERIODS: usize = 200;
/// Periods in one fleet-shaped quick slice run alone.
pub const QUICK_PERIODS: usize = 80;
/// Slices in one `fleet_churn` pass.
pub const FLEET_SLICES: usize = 128;
/// Kill/restore cycles in one `fleet_churn` pass; the slice lifetime is
/// `8 * (cycles + 2)` periods, as in the soak harness.
pub const FLEET_CYCLES: usize = 8;
/// Periods whose decisions feed the `steady_T800` quality figures and
/// digest — a fixed prefix, so they repeat exactly at a fixed seed.
pub const STEADY_QUALITY_PERIODS: usize = 16;
/// `cold_start` episodes behind its quality figures and digest.
pub const COLD_QUALITY_EPISODES: usize = 3;
/// The paper's control period: a decision that takes longer overruns it.
pub const CONTROL_PERIOD_S: f64 = 1.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper learner with its 800-observation window full.
    SteadyT800,
    /// The paper learner from a fresh agent over the reactor transport.
    ColdStart,
    /// A churning fleet of quick-config slices under kills and E2 cuts.
    FleetChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::SteadyT800, Workload::ColdStart, Workload::FleetChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyT800 => "steady_T800",
            Workload::ColdStart => "cold_start",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The agent configuration the workload runs.
    pub fn agent_label(self) -> &'static str {
        match self {
            Workload::SteadyT800 | Workload::ColdStart => "paper",
            Workload::FleetChurn => "quick_for_tests",
        }
    }
}

/// The fig09 problem with delta2 = 8.
pub fn paper_spec() -> ProblemSpec {
    ProblemSpec::convergence(8.0)
}

/// The problem every fleet slice solves (`FleetConfig::quick` bounds).
pub fn fleet_spec() -> ProblemSpec {
    let cfg = FleetConfig::quick(1);
    ProblemSpec::new(1.0, 8.0, cfg.d_max, cfg.rho_min)
}

/// The seed of episode `episode` of the workload seed `seed`.
pub fn episode_seed(seed: u64, episode: usize) -> u64 {
    derive(seed, EPISODE.wrapping_add(episode as u64 * 16))
}

/// The fig09 single-user environment for an episode seed.
pub fn paper_env(es: u64) -> FlowTestbed {
    FlowTestbed::new(Calibration::fast(), Scenario::single_user(35.0), derive(es, ENV))
}

/// A fresh paper learner for an episode seed.
pub fn paper_agent(es: u64) -> EdgeBolAgent {
    EdgeBolAgent::paper(&paper_spec(), derive(es, AGENT))
}

/// A fleet-shaped slice (quick learner, `Scenario::fleet_slice`) for an
/// episode seed.
pub fn quick_parts(es: u64) -> (FlowTestbed, EdgeBolAgent) {
    let id = derive(es, ENV) % 1024;
    let env = FlowTestbed::new(Calibration::fast(), Scenario::fleet_slice(id), derive(es, ENV));
    (env, EdgeBolAgent::quick_for_tests(&fleet_spec(), derive(es, AGENT)))
}

/// Wires `env` and `agent` into an orchestrator over `transport`, wrapped
/// in the timing decorators when `log` is given.
///
/// # Errors
/// The orchestrator's construction error, as text.
pub fn orchestrate(
    env: FlowTestbed,
    agent: EdgeBolAgent,
    spec: ProblemSpec,
    transport: TransportKind,
    log: Option<&SharedLog>,
) -> Result<Orchestrator, String> {
    let (env, agent): (Box<dyn Environment>, Box<dyn Agent>) = match log {
        Some(l) => {
            (Box::new(TimedEnv::new(env, l.clone())), Box::new(TimedAgent::new(agent, l.clone())))
        }
        None => (Box::new(env), Box::new(agent)),
    };
    Orchestrator::new_with_transport(
        env,
        agent,
        spec,
        ChaosConfig::disabled(),
        Registry::disabled(),
        transport,
    )
    .map_err(|e| format!("orchestrator construction failed: {e}"))
}

/// The `steady_T800` slice before its orchestrator exists: the fig09
/// environment and a paper learner whose 800-observation window is full.
///
/// The first `warmup_rounds` controls come from `Agent::select`, which
/// covers warm-up and the hyperparameter fit; the rest are seeded random
/// controls, stepped on the environment and fed through `Agent::update`.
///
/// # Errors
/// A non-finite KPI during the pre-fill.
pub fn steady_parts(seed: u64) -> Result<(FlowTestbed, EdgeBolAgent), String> {
    let es = episode_seed(seed, 0);
    let mut env = paper_env(es);
    let mut agent = paper_agent(es);
    let warmup = EdgeBolConfig::paper(paper_spec().constraints()).warmup_rounds;
    let mut rng = SplitMix::new(derive(es, PREFILL));
    for i in 0..STEADY_WINDOW {
        let ctx = env.observe_context();
        let control = if i < warmup {
            agent.select(&ctx)
        } else {
            ControlInput::from_unit(rng.unit(), rng.unit(), rng.unit(), rng.unit())
        };
        let obs = env.step(&control);
        if !(obs.delay_s.is_finite() && obs.map.is_finite() && paper_spec().cost(&obs).is_finite())
        {
            return Err(format!("pre-fill period {i} produced a non-finite KPI"));
        }
        agent.update(&ctx, &control, &obs);
    }
    Ok((env, agent))
}

/// Observations in the learner's window (`export_experience().len()`).
pub fn window_len(orch: &Orchestrator) -> usize {
    orch.agent_experience().map_or(0, |e| e.len())
}

/// The `steady_T800` orchestrator (poll transport) with a full window.
///
/// # Errors
/// A pre-fill or construction failure, or a window that is not full.
pub fn steady_orch(seed: u64, log: Option<&SharedLog>) -> Result<Orchestrator, String> {
    let (env, agent) = steady_parts(seed)?;
    let orch = orchestrate(env, agent, paper_spec(), TransportKind::Poll, log)?;
    match window_len(&orch) {
        STEADY_WINDOW => Ok(orch),
        n => Err(format!("steady_T800 window holds {n} observations, not {STEADY_WINDOW}")),
    }
}

/// A `cold_start` episode's orchestrator: a fresh paper learner over the
/// reactor transport.
///
/// # Errors
/// A construction failure (socket or handshake).
pub fn cold_orch(
    seed: u64,
    episode: usize,
    log: Option<&SharedLog>,
) -> Result<Orchestrator, String> {
    let es = episode_seed(seed, episode);
    orchestrate(paper_env(es), paper_agent(es), paper_spec(), TransportKind::Reactor, log)
}

/// A fleet-shaped quick slice's orchestrator (poll transport, as the
/// fleet wires its slices).
///
/// # Errors
/// A construction failure.
pub fn quick_orch(
    seed: u64,
    episode: usize,
    log: Option<&SharedLog>,
) -> Result<Orchestrator, String> {
    let (env, agent) = quick_parts(episode_seed(seed, episode));
    orchestrate(env, agent, fleet_spec(), TransportKind::Poll, log)
}

/// One `fleet_churn` pass: `slices` quick-config slices with warm-start
/// transfer, a healing E2 cut on every slice, checkpoints every 8 periods
/// into `ckpt_dir` and `cycles` seeded kill/restore cycles.
pub fn fleet_config(
    seed: u64,
    pass: usize,
    slices: usize,
    cycles: usize,
    ckpt_dir: PathBuf,
    threads: usize,
) -> FleetConfig {
    let ps = episode_seed(seed, pass);
    let mut cfg = FleetConfig::quick(slices);
    cfg.periods = 8 * (cycles + 2);
    cfg.seed = derive(ps, FLEET);
    cfg.warm_start = true;
    cfg.ckpt_dir = Some(ckpt_dir);
    cfg.ckpt_every = 8;
    // Cycle c kills a seeded seed-wave slice at period 10 + 8c: the seed
    // wave runs from period 0, so its checkpoint of period 7 exists and
    // every restore resumes warm.
    let seed_wave = slices.div_ceil(4).max(1) as u64;
    let mut rng = SplitMix::new(derive(ps, KILLS));
    cfg.kill_schedule = (0..cycles).map(|c| (rng.below(seed_wave), 10 + 8 * c)).collect();
    cfg.chaos = ChaosConfig::disabled().with_cut(LinkId::E2, 60).with_heal(40);
    cfg.threads = Some(threads);
    cfg
}

/// When a timed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Stop before a unit of work that would end past this budget (but
    /// always run at least the given number of units).
    Time(Duration, usize),
    /// Run exactly this many units.
    Count(usize),
}

impl Until {
    /// Whether another unit should start, after `done` units took
    /// `elapsed` in total.
    pub fn more(self, done: usize, elapsed: Duration) -> bool {
        match self {
            Until::Count(n) => done < n,
            Until::Time(budget, min) => {
                if done < min {
                    return true;
                }
                let per_unit = elapsed / done.max(1) as u32;
                elapsed + per_unit <= budget
            }
        }
    }
}

/// Periods run in a timed loop.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall time of every `try_step`, in seconds.
    pub wall_s: Vec<f64>,
    /// Every period that completed.
    pub records: Vec<PeriodRecord>,
    /// Every `OrchestratorError`, as text.
    pub errors: Vec<String>,
    /// Decorated runs only: `try_step` minus the four wrapped calls.
    pub control_plane_s: Vec<f64>,
    /// Episodes run to completion.
    pub episodes: usize,
}

impl Tally {
    /// Runs and times one period.
    pub fn step(&mut self, orch: &mut Orchestrator, log: Option<&SharedLog>) {
        let mark = log.map(|l| l.lock().mark());
        let t0 = Instant::now();
        let r = orch.try_step();
        let dt = t0.elapsed().as_secs_f64();
        self.wall_s.push(dt);
        if let (Some(l), Some(m)) = (log, mark) {
            self.control_plane_s.push(dt - l.lock().total_since(m));
        }
        match r {
            Ok(rec) => self.records.push(rec),
            Err(e) => self.errors.push(e.to_string()),
        }
    }

    /// Steps `orch` until `until` says stop (a unit is one period).
    pub fn run(&mut self, orch: &mut Orchestrator, until: Until) {
        let t0 = Instant::now();
        let mut done = 0;
        while until.more(done, t0.elapsed()) {
            self.step(orch, None);
            done += 1;
        }
    }

    /// Runs whole episodes of `periods` periods until `until` says stop
    /// (a unit is one episode). Episode `e` runs on `build(e)`; the first
    /// may be handed in already built.
    ///
    /// # Errors
    /// A construction failure.
    pub fn episodes(
        &mut self,
        mut first: Option<Orchestrator>,
        mut build: impl FnMut(usize) -> Result<Orchestrator, String>,
        periods: usize,
        until: Until,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let mut e = 0;
        while until.more(e, t0.elapsed()) {
            let mut orch = match first.take() {
                Some(o) => o,
                None => build(e)?,
            };
            for _ in 0..periods {
                self.step(&mut orch, None);
            }
            self.episodes += 1;
            e += 1;
        }
        Ok(())
    }
}

/// Sets up `reps` instances with `build`, timing each build, and passes
/// each to `inspect` outside the timing. Returns the build times and the
/// last instance; the others are dropped as soon as inspected.
///
/// # Errors
/// The first build failure.
pub fn timed_setups<T>(
    reps: usize,
    mut build: impl FnMut(usize) -> Result<T, String>,
    mut inspect: impl FnMut(&T),
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let v = build(rep)?;
        times.push(t0.elapsed().as_secs_f64());
        inspect(&v);
        last = Some(v);
    }
    Ok((times, last.ok_or("no set-up ran")?))
}
