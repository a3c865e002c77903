//! Hardness histogram: Algorithm 1, line 5 ("cut majority set into k
//! bins w.r.t. H").
//!
//! The paper assumes `H ∈ [0, 1]` w.l.o.g.; cross-entropy is unbounded,
//! so bins here span the observed `[min, max]` of the hardness values —
//! identical to the paper's construction for AE/SE on any classifier
//! whose outputs cover the probability range, and well-defined for CE.

/// Per-bin statistics of a hardness distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct BinStats {
    /// Number of samples in the bin.
    pub population: usize,
    /// Mean hardness `h_ℓ` of the bin (0 for empty bins).
    pub mean_hardness: f64,
    /// Total hardness contribution Σ H of the bin.
    pub contribution: f64,
}

/// A hardness histogram over `k` equal-width bins.
#[derive(Clone, Debug)]
pub struct HardnessBins {
    /// Bin index of each input sample.
    assignment: Vec<usize>,
    stats: Vec<BinStats>,
    lo: f64,
    hi: f64,
}

/// The `k` equal-width bins over a hardness slice's observed range —
/// shared by [`HardnessBins::cut`] and the self-paced sampler, so both
/// place every value in the same bin.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HardnessGrid {
    lo: f64,
    hi: f64,
    width: f64,
    k: usize,
}

impl HardnessGrid {
    /// The grid over `hardness`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `hardness` is empty or holds a non-finite
    /// value.
    pub(crate) fn over(hardness: &[f64], k: usize) -> Self {
        assert!(!hardness.is_empty(), "cannot bin an empty set");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &h in hardness {
            assert!(h.is_finite(), "hardness must be finite, got {h}");
            lo = lo.min(h);
            hi = hi.max(h);
        }
        Self::spanning(lo, hi, k)
    }

    /// The grid over the finite range `[lo, hi]`, already known.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub(crate) fn spanning(lo: f64, hi: f64, k: usize) -> Self {
        assert!(k > 0, "need at least one bin");
        Self {
            lo,
            hi,
            width: (hi - lo).max(1e-12),
            k,
        }
    }

    /// Number of bins.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Bin of one value.
    #[inline]
    pub(crate) fn bin(&self, h: f64) -> usize {
        ((((h - self.lo) / self.width) * self.k as f64) as usize).min(self.k - 1)
    }

    /// Per-bin statistics in one pass over `hardness`, handing each
    /// value's bin to `visit` in index order.
    pub(crate) fn stats(&self, hardness: &[f64], mut visit: impl FnMut(usize)) -> Vec<BinStats> {
        let mut stats = vec![
            BinStats {
                population: 0,
                mean_hardness: 0.0,
                contribution: 0.0,
            };
            self.k
        ];
        for &h in hardness {
            let b = self.bin(h);
            visit(b);
            stats[b].population += 1;
            stats[b].contribution += h;
        }
        for s in &mut stats {
            if s.population > 0 {
                s.mean_hardness = s.contribution / s.population as f64;
            }
        }
        stats
    }
}

impl HardnessBins {
    /// Bins `hardness` values into `k` equal-width bins over their
    /// observed range.
    ///
    /// # Panics
    /// Panics if `k == 0` or `hardness` is empty.
    pub fn cut(hardness: &[f64], k: usize) -> Self {
        let grid = HardnessGrid::over(hardness, k);
        let mut assignment = Vec::with_capacity(hardness.len());
        let stats = grid.stats(hardness, |b| assignment.push(b));
        Self {
            assignment,
            stats,
            lo: grid.lo,
            hi: grid.hi,
        }
    }

    /// Number of bins.
    pub fn k(&self) -> usize {
        self.stats.len()
    }

    /// Per-bin statistics.
    pub fn stats(&self) -> &[BinStats] {
        &self.stats
    }

    /// Bin index of each input sample.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Sample positions (into the original hardness slice) per bin.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.k()];
        for (i, &b) in self.assignment.iter().enumerate() {
            out[b].push(i);
        }
        out
    }

    /// Observed hardness range the bins span.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populations_sum_to_input_len() {
        let h = [0.0, 0.1, 0.2, 0.5, 0.9, 1.0];
        let bins = HardnessBins::cut(&h, 5);
        let total: usize = bins.stats().iter().map(|s| s.population).sum();
        assert_eq!(total, 6);
        assert_eq!(bins.k(), 5);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let h = [0.0, 0.5, 1.0];
        let bins = HardnessBins::cut(&h, 10);
        assert_eq!(bins.assignment()[2], 9);
        assert_eq!(bins.assignment()[0], 0);
    }

    #[test]
    fn mean_hardness_is_per_bin_average() {
        let h = [0.0, 0.05, 0.95, 1.0];
        let bins = HardnessBins::cut(&h, 2);
        let s = bins.stats();
        assert_eq!(s[0].population, 2);
        assert!((s[0].mean_hardness - 0.025).abs() < 1e-12);
        assert!((s[1].mean_hardness - 0.975).abs() < 1e-12);
        assert!((s[1].contribution - 1.95).abs() < 1e-12);
    }

    #[test]
    fn constant_hardness_fills_one_bin() {
        let h = [0.3; 8];
        let bins = HardnessBins::cut(&h, 4);
        let nonempty: Vec<usize> = bins
            .stats()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.population > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!(bins.stats()[nonempty[0]].population, 8);
    }

    #[test]
    fn unbounded_values_binned_by_observed_range() {
        // Cross-entropy style values far above 1.
        let h = [0.1, 5.0, 10.0, 27.6];
        let bins = HardnessBins::cut(&h, 4);
        assert_eq!(bins.assignment()[0], 0);
        assert_eq!(bins.assignment()[3], 3);
        let (lo, hi) = bins.range();
        assert_eq!(lo, 0.1);
        assert_eq!(hi, 27.6);
    }

    #[test]
    fn members_are_consistent_with_assignment() {
        let h = [0.0, 0.5, 1.0, 0.51];
        let bins = HardnessBins::cut(&h, 2);
        let members = bins.members();
        for (b, m) in members.iter().enumerate() {
            for &i in m {
                assert_eq!(bins.assignment()[i], b);
            }
        }
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    #[should_panic(expected = "hardness must be finite")]
    fn rejects_nan() {
        let _ = HardnessBins::cut(&[0.1, f64::NAN], 2);
    }
}
