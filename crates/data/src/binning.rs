//! Feature quantization for histogram-based tree training.
//!
//! [`BinIndex`] maps every feature of a [`Matrix`](crate::Matrix) into at
//! most 256 quantile bins and stores the per-sample bin codes as `u8` in
//! column-major layout. It is built **once** per dataset and then shared
//! by every tree that trains on row subsets of that dataset — an
//! ensemble of `n` members pays the `O(n_rows · d · log n_rows)` sorting
//! cost once instead of per node per member, after which each tree level
//! costs only `O(n_rows · d)` histogram additions.
//!
//! Cut points are placed at midpoints between adjacent *distinct* sorted
//! values (all of them when a feature has ≤ `max_bins` distinct values,
//! quantile-subsampled otherwise), so on low-cardinality features the
//! histogram split finder considers exactly the thresholds the exact
//! sorted path would.
//!
//! The invariant that makes binned training and unbinned prediction
//! agree: for every finite value `v` and bin boundary `b`,
//! `code(v) <= b  ⟺  v <= cut(b)`. Non-finite values (`NaN`) sort above
//! every cut — the same "send to the right child" behaviour the exact
//! path gets from `total_cmp`.

use crate::matrix::{Matrix, MatrixView};

/// Hard ceiling on bins per feature (codes are stored as `u8`).
pub const MAX_BINS: usize = 256;

/// A pre-binned view of a feature matrix: per-feature quantile cut
/// points plus column-major `u8` bin codes for every sample.
#[derive(Clone, Debug)]
pub struct BinIndex {
    n_rows: usize,
    /// Per-feature ascending cut points; feature `f` has
    /// `cuts[f].len() + 1` bins and bin `b` holds values in
    /// `(cut(b-1), cut(b)]`.
    cuts: Vec<Vec<f64>>,
    /// Column-major codes: `codes[f * n_rows + row]`.
    codes: Vec<u8>,
}

impl BinIndex {
    /// Quantizes every feature of `x` into at most `max_bins` bins.
    ///
    /// Features are processed in parallel on the shared runtime; the
    /// result is a pure function of `(x, max_bins)`.
    ///
    /// # Panics
    /// Panics if `max_bins` is not in `2..=256`.
    pub fn build(x: &Matrix, max_bins: usize) -> Self {
        assert!(
            (2..=MAX_BINS).contains(&max_bins),
            "max_bins must be in 2..=256, got {max_bins}"
        );
        let n_rows = x.rows();
        let d = x.cols();
        let per_feature = spe_runtime::par_map_indexed(d, |f| {
            let mut column: Vec<f64> = (0..n_rows).map(|r| x.get(r, f)).collect();
            column.sort_unstable_by(|a, b| a.total_cmp(b));
            let cuts = quantile_cuts(&column, max_bins);
            let mut codes = Vec::with_capacity(n_rows);
            for r in 0..n_rows {
                codes.push(encode_value(&cuts, x.get(r, f)));
            }
            (cuts, codes)
        });
        let mut cuts = Vec::with_capacity(d);
        let mut codes = Vec::with_capacity(d * n_rows);
        for (c, col) in per_feature {
            cuts.push(c);
            codes.extend_from_slice(&col);
        }
        Self {
            n_rows,
            cuts,
            codes,
        }
    }

    /// Assembles a `BinIndex` from an externally built cut grid plus a
    /// column-major code buffer — the out-of-core path encodes streamed
    /// chunks against sketch-derived cuts and stitches each member's
    /// index from the stored codes without ever holding the `f64`
    /// matrix.
    ///
    /// Callers are responsible for the codes actually being
    /// [`encode_value`]-consistent with `cuts`; shape is validated
    /// here.
    ///
    /// # Panics
    /// Panics if any feature has `MAX_BINS` or more cuts, or if
    /// `codes.len() != cuts.len() * n_rows`.
    pub fn from_parts(cuts: Vec<Vec<f64>>, codes: Vec<u8>, n_rows: usize) -> Self {
        assert!(
            cuts.iter().all(|c| c.len() < MAX_BINS),
            "per-feature cut count must fit u8 codes"
        );
        assert_eq!(
            codes.len(),
            cuts.len() * n_rows,
            "column-major code buffer size"
        );
        Self {
            n_rows,
            cuts,
            codes,
        }
    }

    /// Number of binned samples.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.cuts.len()
    }

    /// Number of bins used by feature `f` (at least 1, at most 256).
    #[inline]
    pub fn n_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }

    /// Sum of `n_bins` over all features (histogram buffer size).
    pub fn total_bins(&self) -> usize {
        (0..self.n_features()).map(|f| self.n_bins(f)).sum()
    }

    /// The threshold separating bins `b` and `b + 1` of feature `f`:
    /// samples with `value <= cut` land in bins `0..=b`.
    #[inline]
    pub fn cut(&self, f: usize, b: usize) -> f64 {
        self.cuts[f][b]
    }

    /// All cut points of feature `f` (ascending).
    #[inline]
    pub fn cuts(&self, f: usize) -> &[f64] {
        &self.cuts[f]
    }

    /// Every feature's ascending cut grid, in feature order.
    #[inline]
    pub fn cut_grids(&self) -> &[Vec<f64>] {
        &self.cuts
    }

    /// All codes, column-major: `codes()[f * n_rows + row]`.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The contiguous code column of feature `f` (one `u8` per row).
    #[inline]
    pub fn feature_codes(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Bin code of sample `row` on feature `f`.
    #[inline]
    pub fn code(&self, row: usize, f: usize) -> u8 {
        debug_assert!(row < self.n_rows);
        self.codes[f * self.n_rows + row]
    }

    /// Heap footprint of the codes buffer in bytes (diagnostic).
    pub fn code_bytes(&self) -> usize {
        self.codes.len()
    }
}

impl serde::Serialize for BinIndex {
    fn serialize(&self, w: &mut serde::Writer) {
        serde::Serialize::serialize(&self.n_rows, w);
        serde::Serialize::serialize(&self.cuts, w);
        serde::Serialize::serialize(&self.codes, w);
    }
}

impl serde::Deserialize for BinIndex {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::DecodeError> {
        let n_rows = <usize as serde::Deserialize>::deserialize(r)?;
        let cuts = <Vec<Vec<f64>> as serde::Deserialize>::deserialize(r)?;
        let codes = <Vec<u8> as serde::Deserialize>::deserialize(r)?;
        if cuts.len().checked_mul(n_rows) != Some(codes.len()) {
            return Err(serde::DecodeError::Invalid(format!(
                "bin-index code buffer length {} does not match {} features x {n_rows} rows",
                codes.len(),
                cuts.len()
            )));
        }
        if cuts.iter().any(|c| c.len() >= MAX_BINS) {
            return Err(serde::DecodeError::Invalid(
                "bin-index feature exceeds 256 bins".into(),
            ));
        }
        Ok(Self {
            n_rows,
            cuts,
            codes,
        })
    }
}

/// Bin code of `v` against ascending `cuts`: the number of cuts below
/// `v` under `total_cmp` ordering, so `NaN` lands in the last bin.
///
/// For finite, ascending, `-0.0`-free `cuts` (every grid this crate
/// builds) the invariant `encode_value(cuts, v) <= b ⟺ v <= cuts[b]`
/// holds under plain IEEE comparison for *every* `v` including `NaN`
/// and `-0.0` — `total_cmp` and `<=` only disagree at signed zero and
/// `NaN`, and both land on the same side here. Serving-side quantized
/// inference leans on this to stay bit-exact with f64 tree traversal.
///
/// `cuts` must hold fewer than [`MAX_BINS`] entries so the code fits
/// in a `u8`.
#[inline]
pub fn encode_value(cuts: &[f64], v: f64) -> u8 {
    debug_assert!(cuts.len() < MAX_BINS);
    cuts.partition_point(|c| v.total_cmp(c) == std::cmp::Ordering::Greater) as u8
}

/// Encodes a batch to u8 bin codes, column-major, in one pass.
///
/// `cuts[f]` is the ascending cut grid for feature `f`; `out` receives
/// `x.rows()` codes per feature at `out[f * x.rows() + row]` — the
/// layout quantized tree traversal wants, where one cache line of
/// codes serves 64 rows.
///
/// Cuts must be finite-or-infinite (no NaN) and `-0.0`-free — every
/// grid this crate builds is — so the code can be computed with plain
/// IEEE comparisons: `code = #{c : !(v <= c)}` agrees with
/// [`encode_value`] for every `v` (NaN fails every `<=`, counting all
/// cuts and landing in the last bin, exactly where `total_cmp` puts
/// it). The batch is processed in sixteen-row panels: a panel's rows
/// stay L1-hot across every feature, each feature's sixteen values
/// gather into a lane array once, and every cut then costs a single
/// sixteen-wide packed compare plus a masked byte increment —
/// branchless counting of `code = #{c : !(v <= c)}`. Output lands
/// column-major directly, so the traversal side reads each feature's
/// codes as a contiguous run.
///
/// # Panics
/// Panics if `cuts.len() != x.cols()` or `out` is not exactly
/// `x.rows() * x.cols()` long.
// `!(v <= cut)` is NOT `v > cut`: NaN must fail the `<=` and count
// every cut to land in the last bin, matching `encode_value`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn encode_batch_into(cuts: &[Vec<f64>], x: MatrixView<'_>, out: &mut [u8]) {
    assert_eq!(cuts.len(), x.cols(), "one cut grid per feature");
    assert_eq!(out.len(), x.rows() * x.cols(), "code buffer size");
    debug_assert!(cuts
        .iter()
        .flatten()
        .all(|c| !c.is_nan() && (*c != 0.0 || c.is_sign_positive())));
    let rows = x.rows();
    let cols = x.cols();
    if rows == 0 {
        return;
    }
    let data = x.as_slice();
    let stride = cols.max(1);
    let mut r = 0;
    while r + 16 <= rows {
        let base = r * stride;
        for (f, feature_cuts) in cuts.iter().enumerate() {
            let dst = &mut out[f * rows + r..f * rows + r + 16];
            if feature_cuts.is_empty() {
                // Constant feature: never split on, every row is bin 0.
                dst.fill(0);
                continue;
            }
            let mut v = [0.0f64; 16];
            for (k, lane) in v.iter_mut().enumerate() {
                *lane = data[base + k * stride + f];
            }
            let mut cnt = [0u8; 16];
            for &cut in feature_cuts {
                for (c, lane) in cnt.iter_mut().zip(&v) {
                    *c += u8::from(!(*lane <= cut));
                }
            }
            dst.copy_from_slice(&cnt);
        }
        r += 16;
    }
    // Tail rows (fewer than a panel): scalar counting per cell.
    while r < rows {
        for (f, feature_cuts) in cuts.iter().enumerate() {
            let v = data[r * stride + f];
            out[f * rows + r] = if feature_cuts.len() <= 16 {
                let mut c = 0u8;
                for &cut in feature_cuts {
                    c += u8::from(!(v <= cut));
                }
                c
            } else {
                feature_cuts.partition_point(|&cut| !(v <= cut)) as u8
            };
        }
        r += 1;
    }
}

/// Cut points for one sorted column: midpoints between all adjacent
/// distinct values when few enough, otherwise midpoints at (deduped)
/// quantile ranks. Always strictly increasing, at most `max_bins - 1`.
fn quantile_cuts(sorted: &[f64], max_bins: usize) -> Vec<f64> {
    // Distinct finite values (NaNs sort to the end and never become
    // cut points: a midpoint with NaN would poison comparisons).
    let mut distinct: Vec<f64> = Vec::new();
    for &v in sorted {
        if !v.is_finite() {
            continue;
        }
        if distinct.last().is_none_or(|&last| v > last) {
            distinct.push(v);
        }
    }
    if distinct.len() <= 1 {
        return Vec::new();
    }
    let mut cuts = Vec::new();
    if distinct.len() <= max_bins {
        for w in distinct.windows(2) {
            cuts.push(crate::stats::midpoint(w[0], w[1]));
        }
    } else {
        // Quantile ranks over the *distinct* values: robust to heavy
        // duplication (a 99%-zeros feature still gets cuts across the
        // non-zero tail instead of 255 cuts inside the zero mass).
        for b in 1..max_bins {
            let rank = b * distinct.len() / max_bins;
            if rank == 0 {
                continue;
            }
            let cut = crate::stats::midpoint(distinct[rank - 1], distinct[rank]);
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: Vec<f64>) -> Matrix {
        let n = values.len();
        Matrix::from_vec(n, 1, values)
    }

    #[test]
    fn low_cardinality_gets_one_bin_per_distinct_value() {
        let x = col(vec![3.0, 1.0, 2.0, 1.0, 3.0, 2.0]);
        let idx = BinIndex::build(&x, 16);
        assert_eq!(idx.n_bins(0), 3);
        assert_eq!(idx.cuts(0), &[1.5, 2.5]);
        let codes: Vec<u8> = (0..6).map(|r| idx.code(r, 0)).collect();
        assert_eq!(codes, vec![2, 0, 1, 0, 2, 1]);
    }

    #[test]
    fn code_and_cut_agree_on_boundaries() {
        // The invariant the tree relies on: code(v) <= b  ⟺  v <= cut(b).
        let values = vec![-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0, 9.0];
        let x = col(values.clone());
        let idx = BinIndex::build(&x, 4);
        for (r, &v) in values.iter().enumerate() {
            for b in 0..idx.n_bins(0) - 1 {
                assert_eq!(
                    idx.code(r, 0) as usize <= b,
                    v <= idx.cut(0, b),
                    "value {v} boundary {b}"
                );
            }
        }
    }

    #[test]
    fn constant_feature_has_single_bin() {
        let x = col(vec![4.2; 10]);
        let idx = BinIndex::build(&x, 8);
        assert_eq!(idx.n_bins(0), 1);
        assert!((0..10).all(|r| idx.code(r, 0) == 0));
    }

    #[test]
    fn high_cardinality_respects_max_bins() {
        let x = col((0..1000).map(f64::from).collect());
        let idx = BinIndex::build(&x, 64);
        assert!(idx.n_bins(0) <= 64);
        assert!(idx.n_bins(0) > 32, "quantile cuts collapsed");
        // Codes are monotone in the value.
        for r in 1..1000 {
            assert!(idx.code(r, 0) >= idx.code(r - 1, 0));
        }
    }

    #[test]
    fn nan_lands_in_last_bin() {
        let x = col(vec![0.0, 1.0, 2.0, f64::NAN]);
        let idx = BinIndex::build(&x, 8);
        assert_eq!(idx.code(3, 0) as usize, idx.n_bins(0) - 1);
        // And never produces a NaN cut.
        assert!(idx.cuts(0).iter().all(|c| c.is_finite()));
    }

    #[test]
    fn column_major_codes_slice() {
        let x = Matrix::from_vec(3, 2, vec![0.0, 10.0, 1.0, 20.0, 2.0, 30.0]);
        let idx = BinIndex::build(&x, 8);
        assert_eq!(idx.feature_codes(0), &[0, 1, 2]);
        assert_eq!(idx.feature_codes(1), &[0, 1, 2]);
        assert_eq!(idx.n_features(), 2);
        assert_eq!(idx.total_bins(), 6);
        assert_eq!(idx.code_bytes(), 6);
    }

    #[test]
    #[should_panic(expected = "max_bins")]
    fn rejects_oversized_max_bins() {
        let _ = BinIndex::build(&col(vec![1.0]), 257);
    }
}
