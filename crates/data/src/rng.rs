//! Seeded randomness helpers.
//!
//! Every stochastic component in the workspace takes an explicit `u64`
//! seed so experiments are reproducible run-to-run; this module wraps
//! `rand::StdRng` with the sampling primitives the algorithms need
//! (index subsets, weighted choice, Gaussian noise via Box–Muller).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG with the sampling helpers used across the workspace.
///
/// `Clone` duplicates the full generator state: the clone and the
/// original produce identical streams from the point of cloning (used
/// by fault-isolated retries to replay a member's first attempt seed).
#[derive(Clone)]
pub struct SeededRng {
    inner: StdRng,
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl SeededRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Derives an independent child RNG; `salt` distinguishes siblings.
    pub fn fork(&mut self, salt: u64) -> SeededRng {
        SeededRng::new(self.child_seed(salt))
    }

    /// The seed [`Self::fork`] starts its child from, advancing this
    /// generator the same way.
    pub fn child_seed(&mut self, salt: u64) -> u64 {
        let s: u64 = self.inner.gen();
        s ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }

    /// Standard normal sample via the Box–Muller transform.
    ///
    /// `rand_distr` is outside the allowed dependency set, so the Gaussian
    /// source is implemented here.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0,1] to keep ln() finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.gaussian()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` without replacement.
    ///
    /// Uses a partial Fisher–Yates over an index buffer: O(n) memory,
    /// O(k) swaps. If `k >= n`, returns all of `0..n` shuffled.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        self.partial_shuffle(&mut idx, k);
        idx.truncate(k);
        idx
    }

    /// Moves a uniformly drawn `k`-subset of `xs` (clamped to its
    /// length) to the front, in draw order: the first `k` steps of a
    /// forward Fisher–Yates shuffle. On an identity slice this is exactly
    /// [`Self::sample_indices`]; on any other slice it picks the elements
    /// `sample_from` would, without the index buffer.
    pub fn partial_shuffle<T>(&mut self, xs: &mut [T], k: usize) {
        let n = xs.len();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            xs.swap(i, j);
        }
    }

    /// Samples `k` elements from `pool` without replacement (clamped to
    /// `pool.len()`).
    pub fn sample_from<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        self.sample_indices(pool.len(), k)
            .into_iter()
            .map(|i| pool[i])
            .collect()
    }

    /// Samples `k` indices from `0..n` *with* replacement (bootstrap).
    pub fn sample_with_replacement(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(n > 0, "cannot bootstrap from an empty pool");
        (0..k).map(|_| self.below(n)).collect()
    }

    /// Samples one index proportionally to the (non-negative) weights.
    ///
    /// # Panics
    /// Panics if the weights are empty or sum to a non-positive value.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weighted_index needs a positive finite weight sum"
        );
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Samples `k` indices with replacement, proportionally to weights.
    pub fn weighted_indices(&mut self, weights: &[f64], k: usize) -> Vec<usize> {
        // Precompute the CDF once: O(n + k log n) instead of O(n k).
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            debug_assert!(w >= 0.0, "negative weight");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0 && acc.is_finite(), "weight sum must be positive");
        (0..k)
            .map(|_| {
                let t = self.uniform() * acc;
                cdf.partition_point(|&c| c < t).min(weights.len() - 1)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SeededRng::new(3);
        let s = r.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_clamps() {
        let mut r = SeededRng::new(3);
        let s = r.sample_indices(5, 50);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SeededRng::new(42);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SeededRng::new(9);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        let frac2 = counts[2] as f64 / 10_000.0;
        assert!((frac2 - 0.75).abs() < 0.03, "frac {frac2}");
    }

    #[test]
    fn weighted_indices_matches_single_draw_distribution() {
        let mut r = SeededRng::new(11);
        let w = [2.0, 0.0, 2.0, 6.0];
        let draws = r.weighted_indices(&w, 20_000);
        assert!(draws.iter().all(|&i| i != 1));
        let frac3 = draws.iter().filter(|&&i| i == 3).count() as f64 / 20_000.0;
        assert!((frac3 - 0.6).abs() < 0.03);
    }

    #[test]
    fn bootstrap_covers_range() {
        let mut r = SeededRng::new(5);
        let s = r.sample_with_replacement(10, 1000);
        assert!(s.iter().all(|&i| i < 10));
        // With 1000 draws, every index should appear at least once.
        for target in 0..10 {
            assert!(s.contains(&target));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SeededRng::new(13);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SeededRng::new(1);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }
}
