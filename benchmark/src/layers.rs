//! Timed direct calls into the layers beneath the control loop, on
//! inputs shaped like the workload: the GP posterior and window updates,
//! the triangular solve and Cholesky factor behind them, the E2 and A1
//! codecs, the learner's transfer payload and the checkpoint path.

use crate::stats::{derive, time_median, SplitMix};
use crate::Metric;
use bytes::BytesMut;
use edgebol_core::{EdgeBolAgent, Orchestrator};
use edgebol_gp::{GaussianProcess, Kernel};
use edgebol_linalg::{solve_lower_mat, Cholesky, Mat};
use edgebol_oran::{
    A1Message, E2Codec, E2Message, KpiReport, PolicyId, PolicyStatus, RadioPolicy,
    A1_POLICY_TYPE_RADIO,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Input stream for the synthetic GP data.
const LAYERS: u64 = 7;
/// Joint context + control dimensions of the learner's GPs.
const DIMS: usize = 7;
/// Window appends timed for `gp.observe_append_us`.
const APPENDS: usize = 20;
/// Newest donor points a fleet spawn imports (`FleetConfig::transfer_cap`).
pub const TRANSFER_CAP: usize = 64;

/// The sizes a workload's learner works at.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// GP window length T.
    pub window: usize,
    /// Candidates per posterior solve M.
    pub candidates: usize,
}

/// A metric from a `(median seconds, samples)` timing, scaled to `unit`.
fn timing(name: &'static str, unit: &'static str, (s, n): (f64, usize)) -> Metric {
    let scale = if unit == "ms" { 1e3 } else { 1e6 };
    Metric::new(name, s * scale, unit).samples(n)
}

/// The median of hand-timed samples, as [`timing`] takes it.
fn sampled(samples: &[f64]) -> (f64, usize) {
    (crate::stats::median(samples), samples.len())
}

/// `gp.*` and `linalg.*`: a GP with the paper kernel at the workload's
/// window over seeded points, queried at the workload's candidate count.
///
/// # Errors
/// A GP or factorization failure.
pub fn gp_and_linalg(shape: Shape, seed: u64) -> Result<Vec<Metric>, String> {
    let Shape { window: t, candidates: m } = shape;
    let mut rng = SplitMix::new(derive(seed, LAYERS));
    let kernel = Kernel::matern32(4.0, vec![0.4; DIMS]);
    let noise = 0.02;
    let target = |z: &[f64]| z.iter().enumerate().map(|(i, v)| (v * (i + 1) as f64).sin()).sum();

    // Bordered appends up to T, then the same GP capped at T: every
    // further observation evicts the oldest and appends.
    let mut gp = GaussianProcess::new(kernel.clone(), noise);
    for _ in 0..t.saturating_sub(APPENDS + 1) {
        let z: Vec<f64> = (0..DIMS).map(|_| rng.unit()).collect();
        gp.observe(&z, target(&z)).map_err(|e| e.to_string())?;
    }
    let mut stream = SplitMix::new(derive(seed, LAYERS + 1));
    let mut observe = |gp: &mut GaussianProcess| {
        let z: Vec<f64> = (0..DIMS).map(|_| stream.unit()).collect();
        gp.observe(&z, target(&z)).expect("a noisy Matern window factorizes");
    };
    let append = time_median(APPENDS, 0.0, &mut gp, &mut observe);
    if gp.len() != t {
        return Err(format!("GP window holds {} points, expected {t}", gp.len()));
    }
    let mut gp = gp.with_max_observations(t);
    let evict = time_median(APPENDS, 0.2, &mut gp, &mut observe);

    let queries: Vec<f64> = (0..m * DIMS).map(|_| rng.unit()).collect();
    let predict = time_median(3, 1.0, &mut gp, |gp| {
        black_box(gp.predict_batch(black_box(&queries)));
    });

    let (xs, _) = gp.data();
    let x = |i: usize| &xs[i * DIMS..(i + 1) * DIMS];
    let mut k = Mat::from_fn(t, t, |i, j| kernel.eval(x(i), x(j)));
    k.add_diagonal(noise);
    let factor = time_median(3, 0.5, &mut (), |_| {
        black_box(Cholesky::factor(black_box(&k)).expect("kernel matrix is SPD"));
    });
    let chol = Cholesky::factor(&k).map_err(|e| e.to_string())?;
    let cross = Mat::from_fn(t, m, |i, j| kernel.eval(x(i), &queries[j * DIMS..(j + 1) * DIMS]));
    let solve = time_median(3, 1.0, &mut (), |_| {
        black_box(solve_lower_mat(chol.factor_l(), black_box(&cross)));
    });

    Ok(vec![
        timing("gp.predict_batch_ms", "ms", predict),
        timing("linalg.solve_lower_mat_ms", "ms", solve),
        timing("gp.observe_evict_us", "us", evict),
        timing("gp.observe_append_us", "us", append),
        timing("linalg.cholesky_factor_ms", "ms", factor),
    ])
}

/// `oran.*`: one period's E2 traffic (control request, ack, KPI
/// indication) and A1 traffic (policy, feedback, KPI sample), each
/// encoded and decoded; microseconds per period.
///
/// # Errors
/// A message that does not survive its round trip.
pub fn codecs() -> Result<Vec<Metric>, String> {
    const ROUNDS: usize = 1000;
    let e2 = [
        E2Message::ControlRequest { airtime_milli: 734, max_mcs: 22 },
        E2Message::ControlAck,
        E2Message::Indication(KpiReport {
            t_ms: 12_000,
            bs_power_mw: 5_912,
            duty_milli: 734,
            mean_mcs_centi: 2_150,
        }),
    ];
    let id = PolicyId("edgebol-radio".into());
    let a1 = [
        A1Message::PutPolicy {
            policy_id: id.clone(),
            policy_type: A1_POLICY_TYPE_RADIO,
            policy: RadioPolicy { airtime: 0.734, max_mcs: 22 },
        },
        A1Message::Feedback { policy_id: id, status: PolicyStatus::Enforced },
        A1Message::KpiSample { t_ms: 12_000, bs_power_mw: 5_912 },
    ];
    let mut buf = BytesMut::new();
    for msg in &e2 {
        E2Codec::encode(msg, &mut buf);
        match E2Codec::decode(&mut buf) {
            Ok(Some(back)) if back == *msg => {}
            other => return Err(format!("E2 round trip of {msg:?} gave {other:?}")),
        }
    }
    for msg in &a1 {
        match A1Message::from_json(&msg.to_json()) {
            Ok(back) if back == *msg => {}
            other => return Err(format!("A1 round trip of {msg:?} gave {other:?}")),
        }
    }
    let e2_s = time_median(5, 0.2, &mut buf, |buf| {
        for _ in 0..ROUNDS {
            for msg in &e2 {
                E2Codec::encode(black_box(msg), buf);
                black_box(E2Codec::decode(buf).expect("checked above"));
            }
        }
    });
    let a1_s = time_median(5, 0.2, &mut (), |_| {
        for _ in 0..ROUNDS {
            for msg in &a1 {
                black_box(A1Message::from_json(&black_box(msg).to_json()).expect("checked above"));
            }
        }
    });
    let per_period = |(s, n): (f64, usize)| (s / ROUNDS as f64, n);
    Ok(vec![
        timing("oran.e2_codec_us", "us", per_period(e2_s)),
        timing("oran.a1_codec_us", "us", per_period(a1_s)),
    ])
}

/// `bandit.export_ms`/`import_ms`, `core.save_state_us`/`restore_state_ms`
/// and `ckpt.write_atomic_ms` on the workload's own orchestrator after its
/// timed run. `fresh_orch` builds an identically configured orchestrator
/// to restore into; `fresh_agent` a learner of the workload's config to
/// import the newest [`TRANSFER_CAP`] exported points into.
///
/// # Errors
/// A save, restore or checkpoint that does not round-trip.
pub fn state(
    orch: &Orchestrator,
    fresh_orch: &mut dyn FnMut() -> Result<Orchestrator, String>,
    fresh_agent: &dyn Fn() -> EdgeBolAgent,
    scratch: &Path,
) -> Result<Vec<Metric>, String> {
    let export = time_median(5, 0.2, &mut (), |_| {
        black_box(orch.agent_experience());
    });
    let exp = orch.agent_experience().ok_or("the agent exports no experience")?;
    let donor = &exp[exp.len().saturating_sub(TRANSFER_CAP)..];
    let mut imports = Vec::new();
    for _ in 0..3 {
        let agent = fresh_agent();
        let t0 = Instant::now();
        black_box(agent.with_experience(black_box(donor)));
        imports.push(t0.elapsed().as_secs_f64());
    }

    let save = time_median(5, 0.2, &mut (), |_| {
        black_box(orch.save_state());
    });
    let bytes = orch.save_state();
    let mut restores = Vec::new();
    for _ in 0..3 {
        let mut target = fresh_orch()?;
        let t0 = Instant::now();
        target.restore_state(&bytes).map_err(|e| format!("restore failed: {e}"))?;
        restores.push(t0.elapsed().as_secs_f64());
        if target.save_state() != bytes {
            return Err("a restored orchestrator saves different state".into());
        }
    }

    let path = scratch.join("slice.ckpt");
    let kind = "edgebol-benchmark";
    let write = time_median(5, 0.2, &mut (), |_| {
        edgebol_ckpt::write_atomic(&path, kind, &bytes).expect("scratch directory is writable");
    });
    if edgebol_ckpt::read(&path, kind).map_err(|e| e.to_string())? != bytes {
        return Err("checkpoint file read back differs".into());
    }
    Ok(vec![
        timing("bandit.export_ms", "ms", export),
        timing("bandit.import_ms", "ms", sampled(&imports)),
        timing("core.save_state_us", "us", save),
        timing("core.restore_state_ms", "ms", sampled(&restores)),
        timing("ckpt.write_atomic_ms", "ms", write),
    ])
}
