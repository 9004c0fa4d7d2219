//! CI perf gate for the GP hot paths — sliding-window eviction and the
//! batched candidate posterior — and for the optimize stage they feed.
//!
//! Measures the at-capacity `observe` cost (evict + bordered append) at
//! the paper-scale window `T = 200` under both eviction strategies and
//! fails (exit code 1) when either of two conditions breaks:
//!
//! * **Absolute**: the downdate-path median exceeds
//!   `EDGEBOL_GATE_EVICT_US` (default 161 µs — one tenth of the 1.61 ms
//!   rebuild baseline pinned in EXPERIMENTS.md §GP sliding-window, i.e.
//!   the ≥10× acceptance bar with the measured headroom behind it).
//! * **Relative**: the rebuild/downdate median ratio falls below
//!   `EDGEBOL_GATE_EVICT_RATIO` (default 5). The ratio is
//!   machine-independent, so this arm still bites on CI runners much
//!   slower or faster than the baseline box.
//!
//! Two batched-posterior bounds ride along:
//!
//! * the `T = 200`, `M = 1000` batch predict must stay under
//!   `EDGEBOL_GATE_BATCH_US` (default 50 000 µs, ~2× the measured figure —
//!   a coarse tripwire for accidental de-batching, not a tight regression
//!   bound);
//! * the paper learner's full-window posterior, `T = 800` over
//!   `M = 2100` candidates (the largest `predict_batch` call of a
//!   steady-state period; above the work threshold its tiles split over
//!   two threads), must stay under the fixed `POSTERIOR_T800_BOUND_US`
//!   (400 000 µs, ~2× the 157–197 ms medians on the 2-core baseline box,
//!   EXPERIMENTS.md §Staged safe set). Like the `M = 1000` arm it is a
//!   tripwire for gross regressions, not a tight bound.
//!
//! The optimize stage itself, which dominates the control period, is
//! gated end to end:
//!
//! * `edgebol_select_T800`: one `EdgeBol::select` of the paper learner
//!   (`EdgeBolConfig::paper` over `ControlGrid::paper`, ~2,100 candidates)
//!   with its 800-observation window full — the delay posterior over
//!   every candidate, the mAP posterior where delay passes and the cost
//!   posterior over the safe set — must stay under the fixed
//!   `SELECT_T800_BOUND_US` (350 000 µs, ~2× the 161–195 ms medians
//!   measured on the 2-core baseline box, EXPERIMENTS.md §Staged safe
//!   set).
//!
//! Medians over `EDGEBOL_GATE_SAMPLES` (default 30; at most 10 for the
//! `M = 1000` posterior and 5 for the `T = 800` posterior and select)
//! individually-timed steady-state iterations after 3 warm-ups each;
//! deterministic workload (the learner's RNG is seeded by its config).

use edgebol_bandit::{Constraints, ControlGrid, EdgeBol, EdgeBolConfig, Feedback, GridAgent};
use edgebol_bench::env::usize_knob;
use edgebol_gp::{EvictStrategy, GaussianProcess, Kernel};
use std::time::Instant;

/// Bound on the `T = 800`, `M = 2100` posterior median, in microseconds.
const POSTERIOR_T800_BOUND_US: f64 = 400_000.0;

/// Bound on the paper learner's full-window `select` median, in
/// microseconds.
const SELECT_T800_BOUND_US: f64 = 350_000.0;

/// Deterministically filled GP at exactly its window capacity.
fn gp_at_cap(cap: usize, strategy: EvictStrategy) -> GaussianProcess {
    let mut gp = GaussianProcess::new(Kernel::matern32(4.0, vec![0.4; 7]), 0.02)
        .with_max_observations(cap)
        .with_evict_strategy(strategy);
    let mut state = 1u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..cap {
        let z: Vec<f64> = (0..7).map(|_| next()).collect();
        let y = z.iter().sum::<f64>();
        gp.observe(&z, y).unwrap();
    }
    gp
}

/// The paper learner (`EdgeBolConfig::paper`, `ControlGrid::paper`) with
/// its 800-observation window full. Warm-up runs through `select`; the
/// rest of the window is filled with pseudo-random controls fed straight
/// to `update`. The synthetic feedback is deterministic: cost rises and
/// delay falls with the mean control level, and the delay bound leaves an
/// eq. (8) safe set of a few dozen candidates, the scale of the paper
/// runs.
fn paper_learner_at_cap() -> EdgeBol {
    let cfg = EdgeBolConfig::paper(Constraints { d_max: 0.3, rho_min: 0.5 });
    let cap = cfg.max_observations.expect("the paper config caps its window");
    let mut agent = EdgeBol::with_grid(cfg, ControlGrid::paper());
    let mut state = 7u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for t in 0..cap {
        let ctx = [next(), next(), 0.1];
        let idx = if agent.in_warmup() {
            agent.select(&ctx)
        } else {
            (next() * agent.grid().len() as f64) as usize
        };
        let coords = agent.grid().coords(idx);
        let level = coords.iter().sum::<f64>() / coords.len() as f64;
        let wiggle = 0.01 * ((t % 7) as f64 - 3.0);
        let fb = Feedback {
            cost: 100.0 + 200.0 * level + 20.0 * ctx[0] + wiggle,
            delay_s: 0.9 - 0.8 * level + 0.05 * ctx[1] + 0.1 * wiggle,
            map: 0.4 + 0.4 * level + 0.1 * wiggle,
        };
        agent.update(&ctx, idx, &fb);
    }
    agent
}

/// Median of `samples` individually-timed runs of `f` against one
/// long-lived state, in microseconds. Steady-state methodology: at
/// capacity every `observe` is a full evict + append cycle, so timing
/// consecutive calls on one GP measures exactly the per-period cost with
/// no per-sample reconstruction noise.
fn median_us<T>(samples: usize, state: &mut T, mut f: impl FnMut(&mut T)) -> f64 {
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..3 {
        f(state);
    }
    for _ in 0..samples {
        let t0 = Instant::now();
        f(state);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn main() {
    let samples = usize_knob("EDGEBOL_GATE_SAMPLES", 30);
    let evict_bound_us = usize_knob("EDGEBOL_GATE_EVICT_US", 161) as f64;
    let min_ratio = usize_knob("EDGEBOL_GATE_EVICT_RATIO", 5) as f64;
    let batch_bound_us = usize_knob("EDGEBOL_GATE_BATCH_US", 50_000) as f64;

    let mut gp_down = gp_at_cap(200, EvictStrategy::Downdate);
    let mut t = 0.0;
    let downdate = median_us(samples, &mut gp_down, |gp| {
        t += 0.001;
        gp.observe(&[0.5 + t; 7], 1.0).unwrap();
    });
    let mut gp_re = gp_at_cap(200, EvictStrategy::Rebuild);
    let rebuild = median_us(samples, &mut gp_re, |gp| {
        t += 0.001;
        gp.observe(&[0.5 + t; 7], 1.0).unwrap();
    });
    let queries: Vec<f64> = (0..1000 * 7).map(|i| (i % 97) as f64 / 97.0).collect();
    let batch = median_us(samples.min(10), &mut gp_down, |gp| {
        gp.predict_batch(&queries);
    });
    let mut gp_full = gp_at_cap(800, EvictStrategy::Downdate);
    let candidates: Vec<f64> = (0..2100 * 7).map(|i| (i % 89) as f64 / 89.0).collect();
    let posterior = median_us(samples.min(5), &mut gp_full, |gp| {
        gp.predict_batch(&candidates);
    });

    let mut learner = paper_learner_at_cap();
    let select = median_us(samples.min(5), &mut learner, |agent| {
        std::hint::black_box(agent.select(&[0.5, 0.5, 0.1]));
    });

    let ratio = rebuild / downdate;
    println!("perf gate (median over {samples} samples, window T=200 unless named):");
    println!("  gp_evict_downdate_T200          {downdate:10.1} us  (bound {evict_bound_us} us)");
    println!("  gp_observe_evict_refactor_T200  {rebuild:10.1} us");
    println!("  rebuild/downdate ratio          {ratio:10.1}x   (bound >= {min_ratio}x)");
    println!("  gp_predict_batch_T200_M1000     {batch:10.1} us  (bound {batch_bound_us} us)");
    println!(
        "  gp_predict_batch_T800_M2100     {posterior:10.1} us  (bound {POSTERIOR_T800_BOUND_US} us)"
    );
    println!(
        "  edgebol_select_T800             {select:10.1} us  (bound {SELECT_T800_BOUND_US} us)"
    );

    let mut failed = false;
    if downdate > evict_bound_us {
        eprintln!("FAIL: downdate evict {downdate:.1} us exceeds the {evict_bound_us} us bound");
        failed = true;
    }
    if ratio < min_ratio {
        eprintln!("FAIL: rebuild/downdate ratio {ratio:.1}x below the {min_ratio}x bound");
        failed = true;
    }
    if batch > batch_bound_us {
        eprintln!("FAIL: batched posterior {batch:.1} us exceeds the {batch_bound_us} us bound");
        failed = true;
    }
    if posterior > POSTERIOR_T800_BOUND_US {
        eprintln!(
            "FAIL: T=800 posterior {posterior:.1} us exceeds the {POSTERIOR_T800_BOUND_US} us bound"
        );
        failed = true;
    }
    if select > SELECT_T800_BOUND_US {
        eprintln!("FAIL: T=800 select {select:.1} us exceeds the {SELECT_T800_BOUND_US} us bound");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf gate passed");
}
