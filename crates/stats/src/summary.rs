//! Descriptive statistics over trial samples.

use serde::{Deserialize, Serialize};

/// Mean of a sample; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolated quantile (`q ∈ [0, 1]`) of a sample.
///
/// # Panics
/// Panics on an empty slice or `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q = {q} out of [0,1]");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Full summary of a sample: count, mean, sample variance/std, extremes,
/// median and the 5 %/95 % quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    pub n: usize,
    pub mean: f64,
    /// Unbiased sample variance (n − 1 denominator); 0 when `n < 2`.
    pub var: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
    pub median: f64,
    pub q05: f64,
    pub q95: f64,
}

impl SummaryStats {
    /// Summarise a sample.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn from_slice(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "summary of empty sample");
        let n = xs.len();
        let m = mean(xs);
        let var = if n < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
        };
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        SummaryStats {
            n,
            mean: m,
            var,
            std: var.sqrt(),
            min,
            max,
            median: quantile(xs, 0.5),
            q05: quantile(xs, 0.05),
            q95: quantile(xs, 0.95),
        }
    }

    /// Summarise integer-valued samples (round counts, message counts).
    pub fn from_ints<I: IntoIterator<Item = u64>>(xs: I) -> Self {
        let v: Vec<f64> = xs.into_iter().map(|x| x as f64).collect();
        Self::from_slice(&v)
    }

    /// Half-width of the normal-approximation 95 % CI for the mean.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std / (self.n as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_order_invariant() {
        let a = [5.0, 1.0, 3.0];
        let b = [1.0, 3.0, 5.0];
        assert_eq!(quantile(&a, 0.5), quantile(&b, 0.5));
    }

    #[test]
    fn summary_known_values() {
        let s = SummaryStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.var - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_single_point() {
        let s = SummaryStats::from_slice(&[3.0]);
        assert_eq!(s.var, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn from_ints_matches() {
        let s = SummaryStats::from_ints([1u64, 2, 3]);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn summary_of_empty_panics() {
        let _ = SummaryStats::from_slice(&[]);
    }
}
