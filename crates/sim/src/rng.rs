//! Seeded RNG with labelled sub-streams.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The simulation RNG: every random decision in an experiment flows from
/// one root seed through this wrapper, and independent subsystems get
/// independent labelled forks so adding a draw in one subsystem never
/// perturbs another.
///
/// # Examples
///
/// ```
/// use pcn_sim::SimRng;
///
/// let mut root = SimRng::seed(42);
/// let mut topo = root.fork("topology");
/// let mut load = root.fork("workload");
/// // Forks are independent and reproducible:
/// assert_eq!(SimRng::seed(42).fork("topology").next_u64(), topo.next_u64());
/// assert_ne!(topo.next_u64(), load.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a root RNG from a seed.
    pub fn seed(seed: u64) -> SimRng {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derives an independent labelled sub-stream. Forking does not
    /// consume randomness from `self`.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::seed(self.seed ^ h.rotate_left(17))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.random_range(lo..hi)
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty index range");
        self.inner.random_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.random_bool(p)
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Mutable access to the underlying `rand` RNG (for the graph
    /// generators, which take `impl rand::Rng`).
    pub fn as_rand(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(1);
        for _ in 0..20 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_stable_and_independent() {
        let root = SimRng::seed(10);
        let mut f1 = root.fork("x");
        let mut f1b = root.fork("x");
        let mut f2 = root.fork("y");
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn fork_does_not_consume() {
        let mut a = SimRng::seed(3);
        let _ = a.fork("ignored");
        let mut b = SimRng::seed(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_bounds() {
        let mut r = SimRng::seed(5);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
        for _ in 0..100 {
            assert!(r.index(3) < 3);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed(7);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>()); // astronomically unlikely
    }

    #[test]
    fn pick_handles_empty() {
        let mut r = SimRng::seed(9);
        let empty: [u8; 0] = [];
        assert_eq!(r.pick(&empty), None);
        assert_eq!(r.pick(&[42]), Some(&42));
    }
}
