//! Measurement primitives for experiment runs.

/// A streaming histogram over non-negative `f64` values.
///
/// Values are recorded exactly (stored); quantiles sort lazily. The
/// evaluation records at most a few hundred thousand values per run, so
/// exact storage beats bucketing error.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    values: Vec<f64>,
    sorted: bool,
}

impl PartialEq for Histogram {
    /// Histograms compare by recorded values only — the lazy `sorted`
    /// flag is an internal cache, not observable state.
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records a value (NaN is ignored).
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of recorded values.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Pre-sizes the backing storage for `additional` further records —
    /// lets a hot loop record without reallocating (the engine's
    /// steady-state allocation-freedom test relies on this).
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Quantile `q ∈ [0, 1]` (nearest-rank); 0.0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.values.len() - 1) as f64 * q).round() as usize;
        self.values[idx]
    }

    /// Appends every value recorded in `other`, preserving `other`'s
    /// recording order — so merging a histogram into an empty one
    /// reproduces it exactly (value-equality, which is what
    /// [`PartialEq`] compares).
    pub fn merge(&mut self, other: &Histogram) {
        self.values.extend_from_slice(&other.values);
        self.sorted = self.values.is_empty();
    }

    /// Maximum recorded value (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn histogram_empty_and_nan() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_quantile_after_more_records() {
        let mut h = Histogram::new();
        h.record(1.0);
        assert_eq!(h.quantile(1.0), 1.0);
        h.record(10.0);
        assert_eq!(h.quantile(1.0), 10.0); // re-sorts after new data
    }

    #[test]
    fn histogram_merge_concatenates_values() {
        let mut a = Histogram::new();
        a.record(2.0);
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 8.0);
        assert_eq!(a.quantile(0.0), 1.0);
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty, a, "merge into empty must reproduce the source");
    }
}
