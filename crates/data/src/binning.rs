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
//! [`BinIndex::build`] sorts each column, one task per feature, as `u64`
//! total-order keys (the quantile sketch's): equal keys are equal bits,
//! so the sorted values are those of a `total_cmp` sort. It then codes
//! every row with the batch encoder [`encode_batch_into`], one task per
//! block of 8,192 rows, which equals [`encode_value`] cell by cell on
//! these finite, `-0.0`-free grids.
//!
//! The invariant that makes binned training and unbinned prediction
//! agree: for every value `v` and bin boundary `b`,
//! `code(v) <= b  ⟺  v <= cut(b)`. `NaN` of either sign fails every
//! `<=` and lands in the last bin — the right child an f64 tree node's
//! `v <= cut` test sends it to.

use crate::matrix::{Matrix, MatrixView};
use crate::sketch::{key, value};

/// Hard ceiling on bins per feature (codes are stored as `u8`).
pub const MAX_BINS: usize = 256;

/// Rows per task of [`BinIndex::build`]'s encode.
const BUILD_BLOCK_ROWS: usize = 8192;

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
        // Each feature's grid from its column sorted as total-order keys:
        // equal keys are equal bits, so the sorted values, and the cuts,
        // are those of a `total_cmp` sort of the values.
        let cuts = spe_runtime::par_map_indexed(d, |f| {
            let mut keys: Vec<u64> = (0..n_rows).map(|r| key(x.get(r, f))).collect();
            keys.sort_unstable();
            quantile_cuts(keys.into_iter().map(value), max_bins)
        });
        // Codes by the batch encoder, one task per block of rows. Each
        // block owns its run of every feature's code column.
        let mut codes = vec![0u8; d * n_rows];
        let mut blocks: Vec<Vec<&mut [u8]>> = (0..n_rows.div_ceil(BUILD_BLOCK_ROWS))
            .map(|_| Vec::with_capacity(d))
            .collect();
        if n_rows > 0 {
            for column in codes.chunks_mut(n_rows) {
                for (runs, run) in blocks.iter_mut().zip(column.chunks_mut(BUILD_BLOCK_ROWS)) {
                    runs.push(run);
                }
            }
        }
        spe_runtime::par_for_each_mut(&mut blocks, |b, runs| {
            let start = b * BUILD_BLOCK_ROWS;
            let rows = (n_rows - start).min(BUILD_BLOCK_ROWS);
            let mut block = vec![0u8; rows * d];
            encode_batch_into(&cuts, x.view_rows(start..start + rows), &mut block);
            for (run, column) in runs.iter_mut().zip(block.chunks_exact(rows)) {
                run.copy_from_slice(column);
            }
        });
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

/// Bin code of `v` against ascending `cuts`: the number of cuts `c`
/// with `!(v <= c)` under IEEE comparison, so `NaN` of either sign
/// fails every `<=` and lands in the last bin.
///
/// Those cuts form a prefix of the ascending grid, so the invariant
/// `encode_value(cuts, v) <= b ⟺ v <= cuts[b]` holds for *every* `v`,
/// `NaN` and both zeros included — the very test an f64 tree node
/// makes. Serving-side quantized inference leans on this to stay
/// bit-exact with f64 tree traversal.
///
/// `cuts` must hold fewer than [`MAX_BINS`] entries so the code fits
/// in a `u8`.
// `!(v <= c)` is NOT `v > c`: NaN must fail the `<=`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
pub fn encode_value(cuts: &[f64], v: f64) -> u8 {
    debug_assert!(cuts.len() < MAX_BINS);
    cuts.partition_point(|&c| !(v <= c)) as u8
}

/// Grids with at least this many cuts encode by the two-level count,
/// shorter ones by the direct count. Chosen from timings of both on
/// 30-feature blocks of 16 and 256 rows, with values spread evenly over
/// the grid or half of them outside it (4 to 8 timings per length): the
/// two-level count took 0.49–0.90 of the direct count's time at 20–40
/// cuts and 0.09–0.10 at 255, but 0.70–1.01 at 17–19 cuts and
/// 0.88–1.08 at 16.
const TWO_LEVEL_MIN_CUTS: usize = 20;

/// Cuts per coarse block of the two-level count.
const BLOCK: usize = 16;

// The two-level count searches a whole 16-cut window.
const _: () = assert!(TWO_LEVEL_MIN_CUTS >= BLOCK);

/// Encodes a batch to u8 bin codes, column-major, in one pass.
///
/// `cuts[f]` is the ascending cut grid for feature `f`; `out` receives
/// `x.rows()` codes per feature at `out[f * x.rows() + row]` — the
/// layout quantized tree traversal wants, where one cache line of
/// codes serves 64 rows.
///
/// Cuts must be finite-or-infinite (no NaN) and `-0.0`-free — every
/// grid this crate builds is. Every code equals [`encode_value`]'s,
/// `code = #{c : !(v <= c)}` (NaN fails every `<=`, counting all cuts
/// and landing in the last bin), and those cuts form a prefix of the
/// ascending grid, so the code is the prefix's length. The batch is
/// processed in sixteen-row panels: a panel's rows stay L1-hot across
/// every feature and each feature's sixteen values gather into a lane
/// array once. A grid of fewer than 20 cuts is then counted directly,
/// one sixteen-wide compare per cut. A longer grid takes a two-level
/// count: one sixteen-wide compare per block of 16 cuts finds how many
/// whole blocks lie below each value, then a branchless binary search
/// of the 16-cut window at that block finds the prefix's end — at most
/// 15 + 5 compares per value for a 255-cut grid. Rows after the last
/// panel (at most 15) take [`encode_value`] one cell at a time. Output
/// lands column-major directly, so the traversal side reads each
/// feature's codes as a contiguous run.
///
/// # Panics
/// Panics if `cuts.len() != x.cols()` or `out` is not exactly
/// `x.rows() * x.cols()` long.
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
            let codes = if feature_cuts.len() < TWO_LEVEL_MIN_CUTS {
                let mut cnt = [0u8; 16];
                for &cut in feature_cuts {
                    count_below(&mut cnt, &v, cut);
                }
                cnt
            } else {
                let mut blocks = [0u8; 16];
                // The last cut of every whole block of 16 cuts.
                for &last in feature_cuts.iter().skip(BLOCK - 1).step_by(BLOCK) {
                    count_below(&mut blocks, &v, last);
                }
                std::array::from_fn(|k| within_block(feature_cuts, blocks[k], v[k]))
            };
            dst.copy_from_slice(&codes);
        }
        r += 16;
    }
    // Tail rows (fewer than a panel): one cell at a time.
    while r < rows {
        for (f, feature_cuts) in cuts.iter().enumerate() {
            out[f * rows + r] = encode_value(feature_cuts, data[r * stride + f]);
        }
        r += 1;
    }
}

/// Adds one to every lane whose value lies above `cut` (or is NaN).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
fn count_below(cnt: &mut [u8; 16], v: &[f64; 16], cut: f64) {
    for (c, lane) in cnt.iter_mut().zip(v) {
        *c += u8::from(!(*lane <= cut));
    }
}

/// The code of `v` when `blocks` whole blocks of 16 cuts lie below it:
/// the prefix of cuts below `v` ends inside the 16-cut window starting
/// at the first cut after those blocks (pulled back to the grid's last
/// 16 cuts at its end), and a branchless binary search of that window
/// finds where. Needs at least 16 cuts.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
fn within_block(cuts: &[f64], blocks: u8, v: f64) -> u8 {
    let start = (usize::from(blocks) * BLOCK).min(cuts.len() - BLOCK);
    let window: &[f64; BLOCK] = cuts[start..start + BLOCK]
        .try_into()
        .expect("a 16-cut window");
    let mut p = 0;
    for step in [8, 4, 2, 1] {
        p += step * usize::from(!(v <= window[p + step - 1]));
    }
    (start + p + usize::from(!(v <= window[p]))) as u8
}

/// Cut points for one column, given in ascending `total_cmp` order:
/// midpoints between all adjacent distinct values when few enough,
/// otherwise midpoints at (deduped) quantile ranks. Always strictly
/// increasing, at most `max_bins - 1`, finite and `-0.0`-free
/// ([`midpoint`](crate::stats::midpoint) of two distinct finite values
/// never returns `-0.0`), as [`encode_batch_into`] requires.
fn quantile_cuts(sorted: impl IntoIterator<Item = f64>, max_bins: usize) -> Vec<f64> {
    // Distinct finite values (NaNs and infinities never become cut
    // points: a midpoint with NaN would poison comparisons).
    let mut distinct: Vec<f64> = Vec::new();
    for v in sorted {
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
        // NaN of either sign: `total_cmp` would put a negative NaN
        // below every cut, while an f64 tree sends it right.
        let x = col(vec![0.0, 1.0, 2.0, f64::NAN, -f64::NAN]);
        let idx = BinIndex::build(&x, 8);
        assert_eq!(idx.code(3, 0) as usize, idx.n_bins(0) - 1);
        assert_eq!(idx.code(4, 0) as usize, idx.n_bins(0) - 1);
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
