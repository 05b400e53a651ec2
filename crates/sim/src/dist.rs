//! Sampling distributions, implemented from first principles.
//!
//! The evaluation needs: exponential inter-arrival times (Poisson
//! transaction processes), a log-normal fitted to the Lightning channel
//! size statistics, a heavy-tailed log-normal for transaction values,
//! and Zipf-skewed endpoint choice. Rather than pulling `rand_distr` (the
//! workspace builds offline, with no crates.io dependency), the samplers
//! live here with moment tests backing them.

use crate::SimRng;

/// Exponential distribution with the given rate λ (mean 1/λ).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential with rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0` and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Exponential { rate }
    }

    /// Creates an exponential with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { rate: 1.0 / mean }
    }

    /// Draws a sample (inverse-CDF method).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // 1 - u avoids ln(0).
        -(1.0 - rng.f64()).ln() / self.rate
    }
}

/// Standard-normal sampler (Box–Muller, one value per call).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StandardNormal;

impl StandardNormal {
    /// Draws a standard normal sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u1 = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Log-normal distribution parameterized by the underlying normal's µ, σ.
///
/// Median = e^µ; mean = e^(µ+σ²/2). [`LogNormal::fit_median_mean`] inverts
/// those relations — exactly how the channel-size distribution is fitted to
/// the Lightning dataset statistics (min 10 / median 152 / mean 403).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0` and both are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "mu must be finite");
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
        LogNormal { mu, sigma }
    }

    /// Fits µ, σ from a target median and mean (`mean > median > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0` or `mean <= median`.
    pub fn fit_median_mean(median: f64, mean: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        assert!(mean > median, "mean must exceed median for a log-normal");
        let mu = median.ln();
        let sigma = (2.0 * (mean / median).ln()).sqrt();
        LogNormal { mu, sigma }
    }

    /// Theoretical mean e^(µ+σ²/2).
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Theoretical median e^µ.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * StandardNormal.sample(rng)).exp()
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Used for skewed endpoint popularity: a few "merchant" clients receive a
/// disproportionate share of payments.
#[derive(Clone, Debug, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf over `n ≥ 1` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(s.is_finite() && s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `[0, n)` (0 = most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed(1);
        let d = Exponential::with_mean(4.0);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let m = mean_of(&xs);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed(2);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| StandardNormal.sample(&mut rng))
            .collect();
        let m = mean_of(&xs);
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!(m.abs() < 0.03, "mean {m}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_fit_matches_lightning_stats() {
        // Channel sizes: median 152, mean 403 (paper §V-A).
        let d = LogNormal::fit_median_mean(152.0, 403.0);
        assert!((d.median() - 152.0).abs() < 1e-9);
        assert!((d.mean() - 403.0).abs() < 1e-9);
        let mut rng = SimRng::seed(3);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let sample_median = {
            let mut s = xs.clone();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        assert!(
            (sample_median - 152.0).abs() / 152.0 < 0.05,
            "{sample_median}"
        );
        let sample_mean = mean_of(&xs);
        assert!((sample_mean - 403.0).abs() / 403.0 < 0.1, "{sample_mean}");
    }

    #[test]
    fn zipf_rank_ordering() {
        let mut rng = SimRng::seed(6);
        let d = Zipf::new(20, 1.2);
        let mut counts = [0usize; 20];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        // Rank 0 strictly dominates rank 5 dominates rank 19.
        assert!(counts[0] > counts[5]);
        assert!(counts[5] > counts[19]);
        // Ratio of rank0/rank1 ≈ 2^1.2 ≈ 2.3
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.3).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut rng = SimRng::seed(7);
        let d = Zipf::new(10, 0.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "mean must exceed median")]
    fn lognormal_bad_fit_panics() {
        LogNormal::fit_median_mean(100.0, 50.0);
    }

    #[test]
    fn samplers_deterministic_per_seed() {
        let d = LogNormal::new(1.0, 0.5);
        let a: Vec<f64> = {
            let mut r = SimRng::seed(9);
            (0..5).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = SimRng::seed(9);
            (0..5).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
