//! Least-squares fits for scaling-law checks.
//!
//! The experiments ask questions like *"do measured rounds grow like
//! `log n`?"* ([`fit_against`] with `x = log n`, check `R²`) and *"is
//! total-message growth polynomial or logarithmic in `n`?"*
//! ([`log_log_slope`]: slope ≈ 0 ⇒ polylog, slope ≈ 1 ⇒ linear).

use serde::{Deserialize, Serialize};

/// Ordinary least squares `y ≈ intercept + slope · x` with `R²`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    pub slope: f64,
    pub intercept: f64,
    /// Coefficient of determination; 1 = perfect linear relationship.
    pub r2: f64,
}

impl LinearFit {
    /// Fit `y` against `x`.
    ///
    /// # Panics
    /// Panics if the slices differ in length or hold fewer than 2 points.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
        assert!(xs.len() >= 2, "need ≥ 2 points to fit a line");
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            sxx += (x - mx) * (x - mx);
            sxy += (x - mx) * (y - my);
            syy += (y - my) * (y - my);
        }
        assert!(sxx > 0.0, "all x values identical; slope undefined");
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        // R² = 1 − SS_res / SS_tot; for constant y define R² = 1 (the line
        // y = const fits perfectly).
        let r2 = if syy == 0.0 {
            1.0
        } else {
            let ss_res: f64 = xs
                .iter()
                .zip(ys.iter())
                .map(|(&x, &y)| {
                    let e = y - (intercept + slope * x);
                    e * e
                })
                .sum();
            1.0 - ss_res / syy
        };
        LinearFit {
            slope,
            intercept,
            r2,
        }
    }
}

/// Fit `y` against a transformed predictor `f(x)` — e.g.
/// `fit_against(&ns, &rounds, |n| n.ln())` tests `rounds ~ a + b·ln n`.
pub fn fit_against<F: Fn(f64) -> f64>(xs: &[f64], ys: &[f64], f: F) -> LinearFit {
    let tx: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
    LinearFit::fit(&tx, ys)
}

/// Slope of `ln y` against `ln x` — the empirical polynomial exponent.
///
/// A measurement that is truly `Θ(polylog)` shows a slope drifting toward
/// 0 as `x` grows; `Θ(x)` shows slope ≈ 1.
///
/// # Panics
/// Panics if any value is non-positive (log undefined).
pub fn log_log_slope(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert!(
        xs.iter().chain(ys.iter()).all(|&v| v > 0.0),
        "log-log fit needs strictly positive data"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    LinearFit::fit(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let f = LinearFit::fit(&xs, &ys);
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept + 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r2_degrades_with_noise() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        // Deterministic "noise" with zero mean.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0 * x + if i % 2 == 0 { 20.0 } else { -20.0 })
            .collect();
        let f = LinearFit::fit(&xs, &ys);
        assert!((f.slope - 2.0).abs() < 0.1);
        assert!(f.r2 < 0.95);
        assert!(f.r2 > 0.5);
    }

    #[test]
    fn constant_y_has_r2_one() {
        let f = LinearFit::fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    fn log_log_recovers_exponent() {
        let xs: Vec<f64> = (1..=20).map(|i| (i * 100) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * x.powf(1.5)).collect();
        let f = log_log_slope(&xs, &ys);
        assert!((f.slope - 1.5).abs() < 1e-9, "slope = {}", f.slope);
    }

    #[test]
    fn log_growth_has_near_zero_loglog_slope() {
        let xs: Vec<f64> = (4..=17).map(|k| (1u64 << k) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 7.0 * x.ln()).collect();
        let f = log_log_slope(&xs, &ys);
        assert!(
            f.slope < 0.2,
            "log data fit slope {} should be ≪ 1",
            f.slope
        );
    }

    #[test]
    fn fit_against_log_predictor() {
        let ns: Vec<f64> = (4..=16).map(|k| (1u64 << k) as f64).collect();
        let ys: Vec<f64> = ns.iter().map(|n| 3.0 + 4.0 * n.ln()).collect();
        let f = fit_against(&ns, &ys, |n| n.ln());
        assert!((f.slope - 4.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn identical_x_panics() {
        let _ = LinearFit::fit(&[2.0, 2.0], &[1.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn log_log_rejects_nonpositive() {
        let _ = log_log_slope(&[1.0, 0.0], &[1.0, 1.0]);
    }
}
