//! Timing decorators around the public [`Agent`] and [`Environment`]
//! traits.
//!
//! The orchestrator owns its agent and environment as trait objects, so
//! the benchmark hands it wrapped ones: each wrapper forwards every trait
//! method to the wrapped value and records how long the four per-period
//! calls took into a [`StageLog`] the benchmark keeps a handle to. The
//! wrappers change no argument and no result, so a decorated run makes
//! the same decisions as an undecorated one (the `decorators` test pins
//! this bit for bit).

use edgebol_ckpt::CkptError;
use edgebol_core::{Agent, EdgeBolAgent};
use edgebol_testbed::{ContextObs, ControlInput, Environment, PeriodObservation};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Per-call wall times in seconds, one entry per call, in call order.
#[derive(Debug, Default, Clone)]
pub struct StageLog {
    /// `Agent::select` — the optimize stage (`bandit.select_ms`).
    pub select: Vec<f64>,
    /// `Agent::update` — the learn stage (`bandit.update_ms`).
    pub update: Vec<f64>,
    /// `Environment::observe_context` (`testbed.context_us`).
    pub context: Vec<f64>,
    /// `Environment::step` (`testbed.step_us`).
    pub step: Vec<f64>,
    /// Selections made while the agent was still in warm-up.
    pub warmup_selects: usize,
}

impl StageLog {
    /// How many entries each stage holds — a mark for [`Self::total_since`].
    pub fn mark(&self) -> [usize; 4] {
        [self.select.len(), self.update.len(), self.context.len(), self.step.len()]
    }

    /// Seconds spent in the four wrapped calls since `mark`.
    pub fn total_since(&self, mark: [usize; 4]) -> f64 {
        [&self.select, &self.update, &self.context, &self.step]
            .iter()
            .zip(mark)
            .map(|(v, m)| v[m..].iter().sum::<f64>())
            .sum()
    }
}

/// A [`StageLog`] shared between the decorators and the benchmark.
#[derive(Debug, Default, Clone)]
pub struct SharedLog(Arc<Mutex<StageLog>>);

impl SharedLog {
    /// Locks the log.
    ///
    /// # Panics
    /// Panics if a decorator panicked while holding the lock.
    pub fn lock(&self) -> MutexGuard<'_, StageLog> {
        self.0.lock().expect("a decorator panicked while recording")
    }
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// An EdgeBOL [`Agent`] that times `select` and `update`.
pub struct TimedAgent {
    inner: EdgeBolAgent,
    log: SharedLog,
}

impl TimedAgent {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: EdgeBolAgent, log: SharedLog) -> Self {
        TimedAgent { inner, log }
    }
}

impl Agent for TimedAgent {
    fn select(&mut self, ctx: &ContextObs) -> ControlInput {
        let warm = self.inner.in_warmup();
        let t0 = Instant::now();
        let control = self.inner.select(ctx);
        let mut log = self.log.lock();
        log.select.push(secs_since(t0));
        log.warmup_selects += usize::from(warm);
        control
    }

    fn update(&mut self, ctx: &ContextObs, control: &ControlInput, obs: &PeriodObservation) {
        let t0 = Instant::now();
        self.inner.update(ctx, control, obs);
        self.log.lock().update.push(secs_since(t0));
    }

    fn set_constraints(&mut self, d_max: f64, rho_min: f64) {
        self.inner.set_constraints(d_max, rho_min);
    }

    fn safe_set_size(&mut self, ctx: &ContextObs) -> Option<usize> {
        self.inner.safe_set_size(ctx)
    }

    fn export_experience(&self) -> Option<Vec<(Vec<f64>, [f64; 3])>> {
        self.inner.export_experience()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        self.inner.load_state(bytes)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An [`Environment`] that times `observe_context` and `step`.
pub struct TimedEnv<E> {
    inner: E,
    log: SharedLog,
}

impl<E> TimedEnv<E> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: E, log: SharedLog) -> Self {
        TimedEnv { inner, log }
    }
}

impl<E: Environment> Environment for TimedEnv<E> {
    fn observe_context(&mut self) -> ContextObs {
        let t0 = Instant::now();
        let ctx = self.inner.observe_context();
        self.log.lock().context.push(secs_since(t0));
        ctx
    }

    fn step(&mut self, control: &ControlInput) -> PeriodObservation {
        let t0 = Instant::now();
        let obs = self.inner.step(control);
        self.log.lock().step.push(secs_since(t0));
        obs
    }

    fn num_users(&self) -> usize {
        self.inner.num_users()
    }

    fn set_gpu_contention(&mut self, factor: f64) {
        self.inner.set_gpu_contention(factor);
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        self.inner.load_state(bytes)
    }
}
