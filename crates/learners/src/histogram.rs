//! Per-bin statistic accumulation for the histogram grower
//! ([`crate::grow::histogram`]), which grows both the classification
//! tree ([`crate::tree`]) and the gradient regression tree
//! ([`crate::regtree`]).
//!
//! For every candidate feature the grower sums a pair of per-sample
//! quantities into that feature's bins (weight / weighted-positive for
//! classification, gradient / hessian for regression), then scans bin
//! prefixes for the best split. The pair is kept generic as `(a, b)`
//! here; `n` counts samples so `min_samples_leaf` can be enforced
//! without a second pass.
//!
//! Node histograms are additive, which buys the classic subtraction
//! trick: `hist(parent) = hist(left) + hist(right)`, so after computing
//! the *smaller* child's histogram the sibling comes from an O(bins)
//! subtraction instead of an O(rows · features) re-accumulation.

use spe_data::BinIndex;

/// One bin's accumulated statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct BinStat {
    /// First summed quantity (sample weight, or gradient).
    pub a: f64,
    /// Second summed quantity (weighted positives, or hessian).
    pub b: f64,
    /// Number of samples in the bin (bootstrap repeats count each time).
    pub n: u32,
}

/// Where each feature's bins live inside a flat histogram buffer.
pub(crate) struct HistLayout {
    /// `offsets[f]..offsets[f + 1]` is feature `f`'s slice; the final
    /// entry is the total buffer length.
    offsets: Vec<usize>,
}

impl HistLayout {
    pub fn new(bins: &BinIndex) -> Self {
        let d = bins.n_features();
        let mut offsets = Vec::with_capacity(d + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for f in 0..d {
            acc += bins.n_bins(f);
            offsets.push(acc);
        }
        Self { offsets }
    }

    /// Total buffer length covering every feature.
    #[inline]
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Slice range of feature `f` inside the flat buffer.
    #[inline]
    pub fn feature_range(&self, f: usize) -> std::ops::Range<usize> {
        self.offsets[f]..self.offsets[f + 1]
    }
}

/// Fills `out` (layout-sized, will be zeroed) with per-bin sums of
/// `(a[r], b[r])` over the given rows, for every feature.
///
/// Features are processed in parallel on the shared runtime; each
/// feature's bins are summed sequentially in row order, so the result is
/// independent of thread count.
pub(crate) fn accumulate(
    bins: &BinIndex,
    rows: &[u32],
    a: &[f64],
    b: &[f64],
    layout: &HistLayout,
    out: &mut [BinStat],
) {
    debug_assert_eq!(out.len(), layout.total());
    out.fill(BinStat::default());
    // Carve the flat buffer into disjoint per-feature slices so the
    // parallel fill needs no locks.
    let mut slices: Vec<&mut [BinStat]> = Vec::with_capacity(bins.n_features());
    let mut rest = out;
    for f in 0..bins.n_features() {
        let (head, tail) = rest.split_at_mut(layout.feature_range(f).len());
        slices.push(head);
        rest = tail;
    }
    spe_runtime::par_for_each_mut(&mut slices, |f, slice| {
        accumulate_feature(bins, rows, a, b, f, slice);
    });
}

/// Fills `out` (zeroed by the caller or here) with feature `f`'s per-bin
/// sums over the given rows. Used directly by the sampled-feature mode
/// (Random Forest), where no persistent full histogram exists.
pub(crate) fn accumulate_feature(
    bins: &BinIndex,
    rows: &[u32],
    a: &[f64],
    b: &[f64],
    f: usize,
    out: &mut [BinStat],
) {
    debug_assert_eq!(out.len(), bins.n_bins(f));
    let codes = bins.feature_codes(f);
    for &r in rows {
        let r = r as usize;
        let s = &mut out[codes[r] as usize];
        s.a += a[r];
        s.b += b[r];
        s.n += 1;
    }
}

/// In-place `parent -= child`, turning the parent histogram into the
/// sibling of `child`. Counts use saturating subtraction: they can only
/// disagree when float drift has already made the stats approximate.
pub(crate) fn subtract(parent: &mut [BinStat], child: &[BinStat]) {
    debug_assert_eq!(parent.len(), child.len());
    for (p, c) in parent.iter_mut().zip(child) {
        p.a -= c.a;
        p.b -= c.b;
        p.n = p.n.saturating_sub(c.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::Matrix;

    fn small_index() -> BinIndex {
        // 6 rows, 2 features; feature values chosen so bins are obvious.
        let x = Matrix::from_vec(
            6,
            2,
            vec![
                0.0, 5.0, //
                1.0, 5.0, //
                2.0, 6.0, //
                0.0, 6.0, //
                1.0, 5.0, //
                2.0, 6.0,
            ],
        );
        BinIndex::build(&x, 8)
    }

    #[test]
    fn layout_matches_bin_counts() {
        let bins = small_index();
        let layout = HistLayout::new(&bins);
        assert_eq!(layout.total(), bins.total_bins());
        assert_eq!(layout.feature_range(0), 0..3);
        assert_eq!(layout.feature_range(1), 3..5);
    }

    #[test]
    fn accumulate_sums_per_bin() {
        let bins = small_index();
        let layout = HistLayout::new(&bins);
        let rows: Vec<u32> = (0..6).collect();
        let a = [1.0; 6];
        let b = [0.0, 1.0, 0.0, 0.0, 1.0, 1.0];
        let mut out = vec![BinStat::default(); layout.total()];
        accumulate(&bins, &rows, &a, &b, &layout, &mut out);
        // Feature 0: values 0,1,2 -> bins 0,1,2 with two rows each.
        for (bin, stat) in out[..3].iter().enumerate() {
            assert_eq!(stat.n, 2, "bin {bin}");
            assert_eq!(stat.a, 2.0);
        }
        assert_eq!(out[1].b, 2.0); // both value-1 rows are positive
                                   // Feature 1: value 5 (3 rows), value 6 (3 rows).
        assert_eq!(out[3].n, 3);
        assert_eq!(out[4].n, 3);
        assert_eq!(out[4].b, 1.0); // rows 2,3,5 have value 6; only row 5 is positive
                                   // Whole-node totals agree across features.
        let tot0: f64 = out[..3].iter().map(|s| s.a).sum();
        let tot1: f64 = out[3..].iter().map(|s| s.a).sum();
        assert_eq!(tot0, tot1);
    }

    #[test]
    fn bootstrap_repeats_count_each_occurrence() {
        let bins = small_index();
        let mut out = vec![BinStat::default(); bins.n_bins(0)];
        accumulate_feature(&bins, &[0, 0, 0], &[2.0; 6], &[1.0; 6], 0, &mut out);
        assert_eq!(out[0].n, 3);
        assert_eq!(out[0].a, 6.0);
    }

    #[test]
    fn subtraction_reconstructs_sibling() {
        let bins = small_index();
        let layout = HistLayout::new(&bins);
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [0.5; 6];
        let all: Vec<u32> = (0..6).collect();
        let (left, right) = ([0u32, 2, 4], [1u32, 3, 5]);
        let mut parent = vec![BinStat::default(); layout.total()];
        let mut lh = vec![BinStat::default(); layout.total()];
        let mut rh = vec![BinStat::default(); layout.total()];
        accumulate(&bins, &all, &a, &b, &layout, &mut parent);
        accumulate(&bins, &left, &a, &b, &layout, &mut lh);
        accumulate(&bins, &right, &a, &b, &layout, &mut rh);
        subtract(&mut parent, &lh);
        for (got, want) in parent.iter().zip(&rh) {
            assert_eq!(got.n, want.n);
            assert!((got.a - want.a).abs() < 1e-12);
            assert!((got.b - want.b).abs() < 1e-12);
        }
    }
}
