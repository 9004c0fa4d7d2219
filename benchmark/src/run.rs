//! One run of one workload, untraced (end-to-end metrics) or traced
//! (per-layer metrics).

use crate::decor::SharedLog;
use crate::heap;
use crate::layers::{self, Shape};
use crate::stats::{digest, fnv1a, mean, median, peak_rss_mb, percentile, record_bits};
use crate::workload::{
    cold_orch, episode_seed, fleet_config, orchestrate, paper_agent, paper_env, paper_spec,
    quick_orch, quick_parts, steady_orch, timed_setups, window_len, Tally, Until, Workload,
    COLD_PERIODS, COLD_QUALITY_EPISODES, CONTROL_PERIOD_S, FLEET_CYCLES, FLEET_SLICES,
    QUICK_PERIODS, STEADY_QUALITY_PERIODS, STEADY_WINDOW,
};
use crate::{Metric, Report};
use edgebol_core::{EdgeBolAgent, Orchestrator, PeriodRecord};
use edgebol_fleet::{Fleet, FleetReport};
use edgebol_oran::TransportKind;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. A `cold_start` set-up
/// takes about a millisecond, so it is repeated more often.
const SETUP_REPS: usize = 3;
const COLD_SETUP_REPS: usize = 15;
/// Slices in the warm-up fleet pass that is `fleet_churn`'s set-up.
const SETUP_FLEET_SLICES: usize = 8;
/// Quick-slice episodes behind `core.quick_period_us`.
const QUICK_EPISODES: usize = 5;
/// Candidates per posterior solve: the paper learner subsamples 2,048
/// grid points and adds its safe seed, elites and their neighbours; the
/// quick learner subsamples 256.
const PAPER_CANDIDATES: usize = 2100;
const QUICK_CANDIDATES: usize = 300;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end) run.
    pub trace: bool,
}

/// Runs one workload; `scratch` is a private directory for checkpoint
/// files.
///
/// # Errors
/// A failure that stops the run before it measured anything.
pub fn run(args: Args, scratch: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(args.seconds);
    match (args.workload, args.trace) {
        (Workload::SteadyT800, false) => steady(&mut report, args.seed, budget)?,
        (Workload::ColdStart, false) => cold(&mut report, args.seed, budget)?,
        (Workload::FleetChurn, false) => fleet(&mut report, args.seed, budget, scratch)?,
        (w, true) => traced(&mut report, w, args.seed, budget, scratch)?,
    }
    Ok(report)
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn us(s: f64) -> f64 {
    s * 1e6
}

/// Checks every record of `what` is finite and counts its try_step
/// errors.
fn check_periods(report: &mut Report, what: &str, tally: &Tally) {
    let finite = tally
        .records
        .iter()
        .all(|r| r.cost.is_finite() && r.obs.delay_s.is_finite() && r.obs.map.is_finite());
    report.check(format!("{what}: every period's cost, delay and mAP are finite"), finite);
    report.check(
        format!("{what}: no OrchestratorError ({} seen)", tally.errors.len()),
        tally.errors.is_empty(),
    );
    for e in tally.errors.iter().take(3) {
        report.notes.push(format!("error: {e}"));
    }
    report.attempted += tally.wall_s.len() as u64;
    report.failed += tally.errors.len() as u64;
}

/// The decision-quality figures of a fixed prefix of periods.
fn quality(report: &mut Report, records: &[PeriodRecord]) {
    let costs: Vec<f64> = records.iter().map(|r| r.cost).collect();
    let sat = records.iter().filter(|r| r.satisfied).count() as f64 / records.len().max(1) as f64;
    report.metrics.push(Metric::new("mean_cost", mean(&costs), "cost").samples(records.len()));
    report.info.push(Metric::new("satisfaction_frac", sat, "frac").samples(records.len()));
    report.notes.push(format!(
        "trace digest {:016x} over the first {} periods",
        digest(records),
        records.len()
    ));
}

/// The end-to-end figures of a single-slice timed loop.
fn single_slice_metrics(
    report: &mut Report,
    setup: &[f64],
    tally: &Tally,
    timed_s: f64,
    quality_prefix: usize,
) {
    let n = tally.wall_s.len();
    let overruns = tally.wall_s.iter().filter(|&&s| s > CONTROL_PERIOD_S).count();
    report.metrics.push(Metric::new("setup_s", median(setup), "s").samples(setup.len()));
    report
        .metrics
        .push(Metric::new("period_p50_ms", ms(percentile(&tally.wall_s, 0.5)), "ms").samples(n));
    let rates: Vec<f64> = tally.wall_s.iter().map(|s| 1.0 / s).collect();
    report.metrics.push(Metric::new("slice_periods_per_s", median(&rates), "1/s").samples(n));
    quality(report, &tally.records[..quality_prefix.min(tally.records.len())]);
    report.metrics.push(Metric::new("peak_heap_mb", heap::peak_mb(), "MiB"));
    report.info.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"));
    report.info.push(
        Metric::new("mean_slice_periods_per_s", tally.records.len() as f64 / timed_s, "1/s")
            .samples(tally.records.len()),
    );
    report
        .info
        .push(Metric::new("period_p95_ms", ms(percentile(&tally.wall_s, 0.95)), "ms").samples(n));
    report.info.push(Metric::new("overrun_frac", overruns as f64 / n as f64, "frac").samples(n));
    report
        .info
        .push(Metric::new("error_frac", tally.errors.len() as f64 / n as f64, "frac").samples(n));
    check_periods(report, "timed run", tally);
}

fn steady(report: &mut Report, seed: u64, budget: Duration) -> Result<(), String> {
    let mut first: Option<Vec<u8>> = None;
    let mut identical = true;
    let (setup, mut orch) = timed_setups(
        SETUP_REPS,
        |_| steady_orch(seed, None),
        |o| {
            let s = o.save_state();
            identical &= first.get_or_insert_with(|| s.clone()) == &s;
        },
    )?;
    report.check("repeated set-ups reach byte-identical learner state", identical);
    let len = window_len(&orch);
    report.check(
        format!("window_len == {STEADY_WINDOW} before timing ({len})"),
        len == STEADY_WINDOW,
    );
    let mut tally = Tally::default();
    let t0 = Instant::now();
    tally.run(&mut orch, Until::Time(budget, STEADY_QUALITY_PERIODS));
    let timed = t0.elapsed().as_secs_f64();
    single_slice_metrics(report, &setup, &tally, timed, STEADY_QUALITY_PERIODS);
    Ok(())
}

fn cold(report: &mut Report, seed: u64, budget: Duration) -> Result<(), String> {
    let (setup, first) = timed_setups(COLD_SETUP_REPS, |_| cold_orch(seed, 0, None), |_| {})?;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    tally.episodes(
        Some(first),
        |e| cold_orch(seed, e, None),
        COLD_PERIODS,
        Until::Time(budget, COLD_QUALITY_EPISODES),
    )?;
    let timed = t0.elapsed().as_secs_f64();
    report.notes.push(format!("{} episodes of {COLD_PERIODS} periods", tally.episodes));
    single_slice_metrics(report, &setup, &tally, timed, COLD_QUALITY_EPISODES * COLD_PERIODS);
    Ok(())
}

/// One fleet pass, timed.
fn fleet_pass(
    seed: u64,
    pass: usize,
    slices: usize,
    cycles: usize,
    dir: &Path,
) -> Result<(f64, FleetReport), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = fleet_config(seed, pass, slices, cycles, dir.to_path_buf(), threads);
    let t0 = Instant::now();
    let r = Fleet::new(cfg).run();
    Ok((t0.elapsed().as_secs_f64(), r))
}

/// Checks a fleet pass and counts its operations.
fn check_fleet(report: &mut Report, pass: usize, r: &FleetReport) {
    report.check(
        format!("pass {pass}: restores == kills ({} == {})", r.restores, r.kills),
        r.restores == r.kills && r.kills > 0,
    );
    report.check(
        format!("pass {pass}: cold_restores == 0 ({})", r.cold_restores),
        r.cold_restores == 0,
    );
    report.check(format!("pass {pass}: failed == 0 ({})", r.failed), r.failed == 0);
    report.check(
        format!("pass {pass}: mean cost is finite"),
        r.mean_cost().is_finite() && r.slices.iter().all(|s| s.mean_cost.is_finite()),
    );
    report.attempted += (r.slices.len() as u64) + r.kills;
    report.failed += r.failed + r.cold_restores;
}

fn fleet_counts(r: &FleetReport) -> String {
    format!(
        "fleet.slice_periods={} fleet.warm_spawns={} fleet.cold_spawns={} \
         fleet.admission_retries={} fleet.checkpoints={} fleet.kills={} fleet.restores={}",
        r.slice_periods,
        r.warm_spawns,
        r.cold_spawns,
        r.admission_retries,
        r.checkpoints,
        r.kills,
        r.restores
    )
}

/// `fleet_churn`'s set-up: warm-up passes of a small fleet of the same
/// shape, which must report identically every time.
fn fleet_setup(report: &mut Report, seed: u64, scratch: &Path) -> Result<Vec<f64>, String> {
    let mut first: Option<String> = None;
    let mut identical = true;
    let (setup, _) = timed_setups(
        SETUP_REPS,
        |rep| fleet_pass(seed, 0, SETUP_FLEET_SLICES, 1, &scratch.join(format!("setup-{rep}"))),
        |(_, r)| {
            let s = r.summary();
            identical &= first.get_or_insert_with(|| s.clone()) == &s;
        },
    )?;
    report.check("repeated warm-up fleet passes report identically", identical);
    Ok(setup)
}

fn fleet(report: &mut Report, seed: u64, budget: Duration, scratch: &Path) -> Result<(), String> {
    let setup = fleet_setup(report, seed, scratch)?;
    let t0 = Instant::now();
    let mut passes: Vec<(f64, FleetReport)> = Vec::new();
    while Until::Time(budget, 1).more(passes.len(), t0.elapsed()) {
        let pass = passes.len() + 1;
        let (wall, r) = fleet_pass(
            seed,
            pass,
            FLEET_SLICES,
            FLEET_CYCLES,
            &scratch.join(format!("pass-{pass}")),
        )?;
        check_fleet(report, pass, &r);
        passes.push((wall, r));
    }
    let slice_periods: usize = passes.iter().map(|(_, r)| r.slice_periods).sum();
    let period_ms: Vec<f64> =
        passes.iter().map(|(w, r)| ms(*w / r.total_periods.max(1) as f64)).collect();
    let rates: Vec<f64> = passes.iter().map(|(w, r)| r.slice_periods as f64 / w).collect();
    let first = &passes[0].1;
    report.metrics.push(Metric::new("setup_s", median(&setup), "s").samples(setup.len()));
    report
        .metrics
        .push(Metric::new("period_p50_ms", median(&period_ms), "ms").samples(period_ms.len()));
    report
        .metrics
        .push(Metric::new("slice_periods_per_s", median(&rates), "1/s").samples(rates.len()));
    report
        .metrics
        .push(Metric::new("mean_cost", first.mean_cost(), "cost").samples(first.slices.len()));
    report.metrics.push(Metric::new("peak_heap_mb", heap::peak_mb(), "MiB"));
    report.info.push(
        Metric::new("satisfaction_frac", first.mean_satisfaction(), "frac")
            .samples(first.slices.len()),
    );
    report.info.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"));
    report.info.push(
        Metric::new("error_frac", report.failed as f64 / report.attempted.max(1) as f64, "frac")
            .samples(report.attempted as usize),
    );
    report.notes.push(format!(
        "{} passes of {FLEET_SLICES} slices, {slice_periods} slice-periods, agent=quick_for_tests",
        passes.len()
    ));
    report.notes.push(format!("pass 1: {}", fleet_counts(first)));
    report.notes.push(format!("pass 1 digest {:016x}", fnv1a(first.summary().bytes())));
    Ok(())
}

/// Builds episode `e` of a workload seed, decorated when given a log.
type Build = fn(u64, usize, Option<&SharedLog>) -> Result<Orchestrator, String>;

/// A workload's single-slice loop, as its traced run drives it.
struct Slice {
    build: Build,
    /// A never-stepped orchestrator of episode `e`'s configuration, to
    /// restore a checkpoint into.
    fresh: fn(u64, usize) -> Result<Orchestrator, String>,
    /// A fresh learner of episode `e`'s configuration.
    agent: fn(u64, usize) -> EdgeBolAgent,
    /// Periods per episode; `None` steps one episode until the budget.
    periods: Option<usize>,
    shape: Shape,
}

fn slice(w: Workload) -> Slice {
    match w {
        Workload::SteadyT800 => Slice {
            build: |seed, _, log| steady_orch(seed, log),
            fresh: |seed, _| {
                let es = episode_seed(seed, 0);
                orchestrate(paper_env(es), paper_agent(es), paper_spec(), TransportKind::Poll, None)
            },
            agent: |seed, _| paper_agent(episode_seed(seed, 0)),
            periods: None,
            shape: Shape { window: STEADY_WINDOW, candidates: PAPER_CANDIDATES },
        },
        Workload::ColdStart => Slice {
            build: cold_orch,
            fresh: |seed, e| cold_orch(seed, e, None),
            agent: |seed, e| paper_agent(episode_seed(seed, e)),
            periods: Some(COLD_PERIODS),
            shape: Shape { window: COLD_PERIODS, candidates: PAPER_CANDIDATES },
        },
        Workload::FleetChurn => Slice {
            build: quick_orch,
            fresh: |seed, e| quick_orch(seed, e, None),
            agent: |seed, e| quick_parts(episode_seed(seed, e)).1,
            periods: Some(QUICK_PERIODS),
            shape: Shape { window: QUICK_PERIODS, candidates: QUICK_CANDIDATES },
        },
    }
}

/// Runs `s` plain and decorated over the same inputs, one period of each
/// in turn (which goes first alternates), so that drift in machine speed
/// and allocator state hits both alike, until `budget` is spent. Returns
/// both tallies, the last decorated orchestrator and its episode.
fn paired(
    report: &mut Report,
    s: &Slice,
    seed: u64,
    budget: Duration,
    log: &SharedLog,
) -> Result<(Tally, Tally, Orchestrator, usize), String> {
    let mut plain = Tally::default();
    let mut deco = Tally::default();
    let t0 = Instant::now();
    let mut e = 0;
    let last = loop {
        let mut p = (s.build)(seed, e, None)?;
        let mut d = (s.build)(seed, e, Some(log))?;
        let start = Instant::now();
        let until = match s.periods {
            Some(n) => Until::Count(n),
            None => Until::Time(budget, STEADY_QUALITY_PERIODS),
        };
        let mut t = 0;
        while until.more(t, start.elapsed()) {
            if t % 2 == 0 {
                plain.step(&mut p, None);
                deco.step(&mut d, Some(log));
            } else {
                deco.step(&mut d, Some(log));
                plain.step(&mut p, None);
            }
            t += 1;
        }
        plain.episodes += 1;
        deco.episodes += 1;
        e += 1;
        if s.periods.is_none() || !Until::Time(budget, 1).more(e, t0.elapsed()) {
            break d;
        }
    };
    let same = plain.records.len() == deco.records.len()
        && plain.records.iter().zip(&deco.records).all(|(a, b)| record_bits(a) == record_bits(b));
    report.check(
        format!(
            "decorated run is to_bits-identical to the plain run ({} periods)",
            plain.records.len()
        ),
        same,
    );
    check_periods(report, "plain run", &plain);
    check_periods(report, "decorated run", &deco);
    Ok((plain, deco, last, e - 1))
}

fn traced(
    report: &mut Report,
    w: Workload,
    seed: u64,
    budget: Duration,
    scratch: &Path,
) -> Result<(), String> {
    if w == Workload::FleetChurn {
        let (_, r) = fleet_pass(seed, 1, FLEET_SLICES, FLEET_CYCLES, &scratch.join("pass-1"))?;
        check_fleet(report, 1, &r);
        report.notes.push(format!("pass 1: {}", fleet_counts(&r)));
    }
    let s = slice(w);
    let log = SharedLog::default();
    let (plain, deco, orch, last) = paired(report, &s, seed, budget, &log)?;

    let l = log.lock().clone();
    let p50 = |v: &[f64]| percentile(v, 0.5);
    let episodes = deco.episodes.max(1);
    let (p50_plain, p50_deco) = (p50(&plain.wall_s), p50(&deco.wall_s));
    let n = deco.wall_s.len();
    let window = window_len(&orch);
    report.metrics.extend([
        Metric::new("bandit.select_ms", ms(p50(&l.select)), "ms").samples(l.select.len()),
        Metric::new("bandit.update_ms", ms(p50(&l.update)), "ms").samples(l.update.len()),
        Metric::new("testbed.context_us", us(p50(&l.context)), "us").samples(l.context.len()),
        Metric::new("testbed.step_us", us(p50(&l.step)), "us").samples(l.step.len()),
        Metric::new("core.control_plane_us", us(p50(&deco.control_plane_s)), "us").samples(n),
        Metric::new("bandit.window_len", window as f64, "count"),
        Metric::new("bandit.warmup_periods", (l.warmup_selects / episodes) as f64, "count")
            .samples(episodes),
        Metric::new("trace.overhead_frac", (p50_deco - p50_plain) / p50_plain, "frac").samples(n),
    ]);
    let stages = [&l.select, &l.update, &l.context, &l.step, &deco.control_plane_s].map(|v| p50(v));
    report.notes.push(format!(
        "accounting: select {:.3} ms + update {:.3} ms + context {:.1} us + step {:.1} us + \
         control plane {:.1} us = {:.3} ms against a traced period p50 of {:.3} ms \
         (untraced {:.3} ms, overhead {:+.3} ms)",
        ms(stages[0]),
        ms(stages[1]),
        us(stages[2]),
        us(stages[3]),
        us(stages[4]),
        ms(stages.iter().sum::<f64>()),
        ms(p50_deco),
        ms(p50_plain),
        ms(p50_deco - p50_plain),
    ));
    report.notes.push(format!("agent={} window_len={window}", w.agent_label()));

    report.metrics.extend(layers::gp_and_linalg(s.shape, seed)?);
    report.metrics.extend(layers::codecs()?);
    let mut fresh = || (s.fresh)(seed, last);
    report.metrics.extend(layers::state(&orch, &mut fresh, &|| (s.agent)(seed, last), scratch)?);
    let quick = quick_period(report, seed)?;
    report.metrics.push(quick);
    Ok(())
}

/// `core.quick_period_us`: one fleet-shaped quick slice stepped alone.
fn quick_period(report: &mut Report, seed: u64) -> Result<Metric, String> {
    let mut tally = Tally::default();
    tally.episodes(
        None,
        |e| quick_orch(seed, e, None),
        QUICK_PERIODS,
        Until::Count(QUICK_EPISODES),
    )?;
    check_periods(report, "quick slices", &tally);
    Ok(Metric::new("core.quick_period_us", us(percentile(&tally.wall_s, 0.5)), "us")
        .samples(tally.wall_s.len()))
}
