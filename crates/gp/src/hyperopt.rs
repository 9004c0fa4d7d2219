//! Derivative-free minimization for hyperparameter fitting.
//!
//! The paper (§5, "Kernel selection") fits length-scales and noise variance
//! "by maximizing the likelihood estimation over prior data" and freezes
//! them during execution. The bandit crate's grouped fit does that search
//! over log-parameters (so positivity is automatic) with the Nelder–Mead
//! simplex method implemented here.

/// Options for the Nelder–Mead optimizer.
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum number of objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Initial simplex edge length (in parameter units).
    pub init_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions { max_evals: 400, f_tol: 1e-7, init_step: 0.5 }
    }
}

/// Minimizes `f` with the Nelder–Mead simplex method starting at `x0`.
///
/// Returns `(x_best, f_best)`. This is a plain, allocation-light
/// implementation of the standard reflect/expand/contract/shrink scheme;
/// it is exposed publicly because the bandit crate reuses it.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    assert!(n > 0, "nelder_mead requires at least one parameter");
    // Standard coefficients.
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        v[i] += opts.init_step;
        simplex.push(v);
    }
    let mut fvals: Vec<f64> = simplex.iter().map(|x| f(x)).collect();
    let mut evals = fvals.len();

    while evals < opts.max_evals {
        // Order the simplex by objective value.
        let mut idx: Vec<usize> = (0..=n).collect();
        idx.sort_by(|&a, &b| fvals[a].partial_cmp(&fvals[b]).unwrap_or(std::cmp::Ordering::Equal));
        let reorder = |v: &mut Vec<Vec<f64>>, fv: &mut Vec<f64>, idx: &[usize]| {
            *v = idx.iter().map(|&i| v[i].clone()).collect();
            *fv = idx.iter().map(|&i| fv[i]).collect();
        };
        reorder(&mut simplex, &mut fvals, &idx);

        if fvals[n] - fvals[0] < opts.f_tol {
            break;
        }

        // Centroid of all but the worst.
        let mut cen = vec![0.0; n];
        for s in simplex.iter().take(n) {
            for (c, &v) in cen.iter_mut().zip(s) {
                *c += v / n as f64;
            }
        }

        let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(&av, &bv)| av + t * (bv - av)).collect()
        };

        // Reflection.
        let xr = lerp(&cen, &simplex[n], -alpha);
        let fr = f(&xr);
        evals += 1;
        if fr < fvals[0] {
            // Expansion.
            let xe = lerp(&cen, &simplex[n], -gamma);
            let fe = f(&xe);
            evals += 1;
            if fe < fr {
                simplex[n] = xe;
                fvals[n] = fe;
            } else {
                simplex[n] = xr;
                fvals[n] = fr;
            }
            continue;
        }
        if fr < fvals[n - 1] {
            simplex[n] = xr;
            fvals[n] = fr;
            continue;
        }
        // Contraction.
        let xc = lerp(&cen, &simplex[n], rho);
        let fc = f(&xc);
        evals += 1;
        if fc < fvals[n] {
            simplex[n] = xc;
            fvals[n] = fc;
            continue;
        }
        // Shrink toward the best vertex.
        let best = simplex[0].clone();
        for i in 1..=n {
            simplex[i] = lerp(&best, &simplex[i], sigma);
            fvals[i] = f(&simplex[i]);
            evals += 1;
        }
    }

    let besti = fvals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);
    (simplex[besti].clone(), fvals[besti])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + 2.0 * (x[1] + 1.0).powi(2);
        let (x, fv) = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!(fv < 1e-6, "f = {fv}");
        assert!((x[0] - 3.0).abs() < 1e-3);
        assert!((x[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn nelder_mead_rosenbrock_progress() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions { max_evals: 2000, ..Default::default() };
        let (_, fv) = nelder_mead(f, &[-1.2, 1.0], &opts);
        assert!(fv < 1e-2, "rosenbrock residual {fv}");
    }
}
