//! Measurement helpers owned by the benchmark: order statistics, the
//! trace digest, a seeded input generator and process memory.
//!
//! None of this comes from the crates under test, so a change to them
//! cannot change how they are measured.

use edgebol_core::PeriodRecord;
use std::time::Instant;

/// Linearly interpolated percentile (`q` in `[0, 1]`) of `xs`; NaN when
/// `xs` is empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Arithmetic mean of `xs`; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median wall time in seconds of `f` and the number of timed calls:
/// at least `min_reps`, and more until `budget_s` seconds of samples have
/// accumulated (at most 10,000). One untimed call first lets lazy state
/// settle.
pub fn time_median<T>(
    min_reps: usize,
    budget_s: f64,
    state: &mut T,
    mut f: impl FnMut(&mut T),
) -> (f64, usize) {
    f(state);
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while samples.len() < min_reps || (spent < budget_s && samples.len() < 10_000) {
        let t0 = Instant::now();
        f(state);
        let dt = t0.elapsed().as_secs_f64();
        spent += dt;
        samples.push(dt);
    }
    (median(&samples), samples.len())
}

/// The words a period contributes to the trace digest and to the
/// bit-identity comparisons: the control, the cost and the KPIs, as
/// `f64::to_bits`.
pub fn record_bits(r: &PeriodRecord) -> [u64; 7] {
    [
        r.control.resolution.to_bits(),
        r.control.airtime.to_bits(),
        r.control.gpu_speed.to_bits(),
        r.control.mcs_cap.index() as u64,
        r.cost.to_bits(),
        r.obs.delay_s.to_bits(),
        r.obs.map.to_bits(),
    ]
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over the `to_bits` of every period's control and cost — equal
/// digests mean the learner made the same decisions at the same cost.
pub fn digest(records: &[PeriodRecord]) -> u64 {
    fnv1a(records.iter().flat_map(|r| record_bits(r)[..5].to_vec()).flat_map(u64::to_le_bytes))
}

/// Peak resident set size (`VmHWM`) of this process in MiB, or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return f64::NAN };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: derives independent seeds from the workload seed and
/// generates the benchmark's random inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator started at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seed for input stream `stream` of the workload seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}
