//! CI perf gate for the GP hot paths: sliding-window eviction and the
//! batched candidate posterior.
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
//!   `M = 2100` candidates (one of the three `predict_batch` calls of a
//!   steady-state period), must stay under the fixed
//!   `POSTERIOR_T800_BOUND_US` (600 000 µs, ~2× the 215–345 ms median of
//!   the tiled posterior on the 2-core baseline box, EXPERIMENTS.md
//!   §Tiled posterior). Like the `M = 1000` arm it is a tripwire for
//!   gross regressions, not a tight bound.
//!
//! Medians over `EDGEBOL_GATE_SAMPLES` (default 30; at most 10 for the
//! `M = 1000` posterior and 5 for the `T = 800` one) individually-timed
//! steady-state iterations after 3 warm-ups each; deterministic workload,
//! no RNG.

use edgebol_bench::env::usize_knob;
use edgebol_gp::{EvictStrategy, GaussianProcess, Kernel};
use std::time::Instant;

/// Bound on the `T = 800`, `M = 2100` posterior median, in microseconds.
const POSTERIOR_T800_BOUND_US: f64 = 600_000.0;

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

    let ratio = rebuild / downdate;
    println!("perf gate (median over {samples} samples, window T=200 unless named):");
    println!("  gp_evict_downdate_T200          {downdate:10.1} us  (bound {evict_bound_us} us)");
    println!("  gp_observe_evict_refactor_T200  {rebuild:10.1} us");
    println!("  rebuild/downdate ratio          {ratio:10.1}x   (bound >= {min_ratio}x)");
    println!("  gp_predict_batch_T200_M1000     {batch:10.1} us  (bound {batch_bound_us} us)");
    println!(
        "  gp_predict_batch_T800_M2100     {posterior:10.1} us  (bound {POSTERIOR_T800_BOUND_US} us)"
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
    if failed {
        std::process::exit(1);
    }
    println!("perf gate passed");
}
