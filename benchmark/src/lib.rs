//! The EdgeBOL benchmark.
//!
//! It measures the program from outside. End-to-end figures come from an
//! untraced run of a workload; a separate traced run wraps the agent and
//! environment in timing decorators ([`decor`]) for the per-stage split
//! of a control period, and times direct calls into the layers beneath
//! ([`layers`]). See `README.md` in this directory for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod decor;
pub mod heap;
pub mod layers;
pub mod run;
pub mod stats;
pub mod workload;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing one sample.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit, samples: 1 }
    }

    /// The same metric, summarizing `samples` samples.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the final JSON line: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub metrics: Vec<Metric>,
    /// Further figures, printed but not part of the JSON line.
    pub info: Vec<Metric>,
    /// Correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Free-form lines (digests, counts, accounting).
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Report {
    /// Records a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}
