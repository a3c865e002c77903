//! Mergeable quantile sketches for streaming bin-grid construction.
//!
//! [`QuantileSketch`] is a deterministic KLL/MRL-style compactor stack:
//! level `l` holds a buffer of values each standing for `2^l` original
//! items. When a level overflows its capacity `k` the buffer is sorted
//! and every other value survives (with doubled weight) into the level
//! above, alternating which parity survives so errors cancel in
//! expectation. Levels store each value as its `u64` total-order key
//! (sign bit set for a non-negative, every bit flipped for a negative),
//! so a compaction sorts plain `u64`s with the standard library's
//! stable sort, which also merges the sorted survivor runs that the
//! compactions below a level append to it. Equal keys are equal bits,
//! so the sort gives the one order `f64::total_cmp` gives. Each
//! compaction of level `l` perturbs any rank query by
//! at most `2^l`, so the sketch carries a *provable* worst-case rank
//! error: the running sum of `2^l` over every compaction it (or any
//! sketch merged into it) ever performed, exposed as
//! [`QuantileSketch::rank_error_bound`]. Inputs small enough to never
//! compact (`n <= k`) are answered exactly.
//!
//! Two sketches [`merge`](QuantileSketch::merge) by levelwise
//! concatenation followed by the usual compaction cascade; the error
//! bounds add. This is what makes the out-of-core path work: each
//! streamed chunk feeds per-feature sketches, and the final grids are
//! cut from the merged summary without ever materializing a column.
//!
//! With capacity `k` and `n` inserts the bound works out to roughly
//! `k · 2^L` absolute rank error where `L ≈ log2(n/k)` levels exist —
//! i.e. a relative rank error of about `log2(n/k) / k`. The default
//! `k = 4096` keeps that near 0.3% at 50M rows for ~100 KiB per
//! feature.

/// Default per-level buffer capacity (see module docs for the
/// error/memory trade-off).
pub const DEFAULT_SKETCH_CAPACITY: usize = 4096;

/// A deterministic mergeable quantile sketch over finite `f64` values.
///
/// Non-finite inserts (`NaN`, `±inf`) are counted separately and never
/// enter the summary — mirroring [`BinIndex`](crate::BinIndex), whose
/// cut grids are built from finite values only.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    /// Per-level buffer capacity (even, at least 8).
    capacity: usize,
    /// `levels[l]` holds the [`key`]s of values of weight `2^l`,
    /// unsorted between compactions.
    levels: Vec<Vec<u64>>,
    /// Finite values inserted (true total weight).
    count: u64,
    /// Non-finite values seen and skipped.
    non_finite: u64,
    /// Worst-case absolute rank error: `sum(2^l)` over all compactions.
    err: u64,
    /// Alternating survivor parity for the next compaction.
    parity: bool,
}

impl QuantileSketch {
    /// Creates an empty sketch with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SKETCH_CAPACITY)
    }

    /// Creates an empty sketch with per-level `capacity` (floored at 8
    /// and rounded up to even so compactions always pair values).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_multiple_of(2);
        Self {
            capacity,
            levels: vec![Vec::new()],
            count: 0,
            non_finite: 0,
            err: 0,
            parity: false,
        }
    }

    /// Inserts one value. Non-finite values are counted but excluded
    /// from the summary.
    #[inline]
    pub fn insert(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.levels[0].push(key(v));
        if self.levels[0].len() >= self.capacity {
            self.compact_cascade(0);
        }
    }

    /// Inserts every value of a slice.
    pub fn insert_slice(&mut self, values: &[f64]) {
        for &v in values {
            self.insert(v);
        }
    }

    /// Finite values inserted so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite values seen (skipped from the summary).
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// True when no finite value has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Worst-case absolute rank error of any quantile query, in items:
    /// for every finite `v`, the estimated rank differs from the true
    /// rank by at most this. Zero until the first compaction, i.e.
    /// small inputs are exact.
    pub fn rank_error_bound(&self) -> u64 {
        self.err
    }

    /// Heap bytes held by the level buffers (diagnostic).
    pub fn heap_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.capacity() * 8).sum()
    }

    /// Merges `other` into `self` (levelwise concat + compaction
    /// cascade). Error bounds add; the result summarizes the union of
    /// both input streams regardless of capacity mismatch.
    pub fn merge(&mut self, other: &QuantileSketch) {
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
        }
        for (l, buf) in other.levels.iter().enumerate() {
            self.levels[l].extend_from_slice(buf);
        }
        self.count += other.count;
        self.non_finite += other.non_finite;
        self.err += other.err;
        for l in 0..self.levels.len() {
            if self.levels[l].len() >= self.capacity {
                self.compact_cascade(l);
            }
        }
    }

    /// Compacts level `l` and cascades upward while buffers overflow.
    fn compact_cascade(&mut self, mut l: usize) {
        while self.levels[l].len() >= self.capacity {
            if l + 1 == self.levels.len() {
                self.levels.push(Vec::new());
            }
            let mut buf = std::mem::take(&mut self.levels[l]);
            buf.sort();
            let offset = usize::from(self.parity);
            self.parity = !self.parity;
            self.levels[l + 1].extend(buf.iter().skip(offset).step_by(2).copied());
            // One compaction of level l shifts any rank by <= 2^l.
            self.err += 1u64 << l;
            l += 1;
        }
    }

    /// The sketch's weighted summary, sorted ascending (ties by weight):
    /// `(value, weight)` pairs whose weights sum to roughly
    /// [`count`](Self::count) (within the error bound).
    pub fn summary(&self) -> Vec<(f64, u64)> {
        let mut items: Vec<(u64, u64)> = Vec::new();
        for (l, buf) in self.levels.iter().enumerate() {
            let w = 1u64 << l;
            items.extend(buf.iter().map(|&k| (k, w)));
        }
        items.sort_unstable();
        items.into_iter().map(|(k, w)| (value(k), w)).collect()
    }

    /// Estimated number of inserted finite values `<= v`. Exact when no
    /// compaction ever ran, otherwise within
    /// [`rank_error_bound`](Self::rank_error_bound) of the truth.
    pub fn estimate_rank(&self, v: f64) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(l, buf)| {
                let w = 1u64 << l;
                buf.iter().filter(|&&k| value(k) <= v).count() as u64 * w
            })
            .sum()
    }

    /// The smallest summarized value whose cumulative weight reaches
    /// `target` (1-based; clamped to the summary's total weight).
    /// `None` on an empty sketch.
    pub fn value_at_rank(&self, target: u64) -> Option<f64> {
        let summary = self.summary();
        if summary.is_empty() {
            return None;
        }
        let mut cum = 0u64;
        for &(v, w) in &summary {
            cum += w;
            if cum >= target {
                return Some(v);
            }
        }
        Some(summary.last().unwrap().0)
    }

    /// Builds an ascending cut grid with at most `max_bins - 1` cuts at
    /// (estimated) equi-depth quantile ranks — the streaming counterpart
    /// of the exact quantile grid [`BinIndex::build`](crate::BinIndex)
    /// computes from a sorted column. Cuts are strictly increasing,
    /// finite and `-0.0`-free, ready for
    /// [`encode_batch_into`](crate::encode_batch_into).
    ///
    /// # Panics
    /// Panics if `max_bins < 2`.
    pub fn cut_grid(&self, max_bins: usize) -> Vec<f64> {
        assert!(max_bins >= 2, "max_bins must be at least 2, got {max_bins}");
        let summary = self.summary();
        if summary.is_empty() {
            return Vec::new();
        }
        let total: u64 = summary.iter().map(|&(_, w)| w).sum();
        let mut cuts: Vec<f64> = Vec::new();
        let mut cursor = 0usize;
        let mut cum = 0u64;
        for b in 1..max_bins {
            let target = (b as u64 * total) / max_bins as u64;
            if target == 0 {
                continue;
            }
            while cursor < summary.len() && cum + summary[cursor].1 < target {
                cum += summary[cursor].1;
                cursor += 1;
            }
            if cursor >= summary.len() {
                break;
            }
            // Cut exactly *at* the quantile value: every summarized item
            // <= the cut stays left, matching the (v <= cut] bin rule.
            let cut = normalize_zero(summary[cursor].0);
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        // A grid whose last cut is the maximum would send nothing right;
        // harmless, but dropping it keeps bins non-degenerate.
        if let (Some(&last), Some(&(max, _))) = (cuts.last(), summary.last()) {
            if last >= max {
                cuts.pop();
            }
        }
        cuts
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// The total-order key of `v`: unsigned comparison of keys is
/// `f64::total_cmp` of values (flip every bit of a negative, the sign
/// bit of a non-negative), and equal keys are equal bits.
#[inline]
fn key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The value whose [`key`] is `k`.
#[inline]
fn value(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Maps `-0.0` to `+0.0` (cut grids are `-0.0`-free, as
/// [`encode_batch_into`](crate::encode_batch_into) requires).
#[inline]
fn normalize_zero(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;
    use proptest::prelude::*;

    /// The sketch with the compaction it had before the key sort: `f64`
    /// levels, each compaction a `sort_unstable_by(total_cmp)` of the
    /// taken buffer. Insert, merge and cascade mirror `QuantileSketch`.
    struct Reference {
        capacity: usize,
        levels: Vec<Vec<f64>>,
        count: u64,
        non_finite: u64,
        err: u64,
        parity: bool,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Self {
                capacity: capacity.max(8).next_multiple_of(2),
                levels: vec![Vec::new()],
                count: 0,
                non_finite: 0,
                err: 0,
                parity: false,
            }
        }

        fn insert(&mut self, v: f64) {
            if !v.is_finite() {
                self.non_finite += 1;
                return;
            }
            self.count += 1;
            self.levels[0].push(v);
            if self.levels[0].len() >= self.capacity {
                self.compact_cascade(0);
            }
        }

        fn merge(&mut self, other: &Reference) {
            while self.levels.len() < other.levels.len() {
                self.levels.push(Vec::new());
            }
            for (l, buf) in other.levels.iter().enumerate() {
                self.levels[l].extend_from_slice(buf);
            }
            self.count += other.count;
            self.non_finite += other.non_finite;
            self.err += other.err;
            for l in 0..self.levels.len() {
                if self.levels[l].len() >= self.capacity {
                    self.compact_cascade(l);
                }
            }
        }

        fn compact_cascade(&mut self, mut l: usize) {
            while self.levels[l].len() >= self.capacity {
                if l + 1 == self.levels.len() {
                    self.levels.push(Vec::new());
                }
                let mut buf = std::mem::take(&mut self.levels[l]);
                buf.sort_unstable_by(|a, b| a.total_cmp(b));
                let offset = usize::from(self.parity);
                self.parity = !self.parity;
                self.levels[l + 1].extend(buf.iter().skip(offset).step_by(2).copied());
                self.err += 1u64 << l;
                l += 1;
            }
        }

        /// The same state as a sketch, whose read side then answers for it.
        fn to_sketch(&self) -> QuantileSketch {
            QuantileSketch {
                capacity: self.capacity,
                levels: self
                    .levels
                    .iter()
                    .map(|buf| buf.iter().map(|&v| key(v)).collect())
                    .collect(),
                count: self.count,
                non_finite: self.non_finite,
                err: self.err,
                parity: self.parity,
            }
        }
    }

    /// Streams with heavy duplication, both zeros, NaN and both
    /// infinities (the draw picks the kind).
    fn stream() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0u8..10, -50.0f64..50.0), 0..700).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(kind, v)| match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    5 | 6 => v.round(),
                    _ => v,
                })
                .collect()
        })
    }

    fn bits(summary: Vec<(f64, u64)>) -> Vec<(u64, u64)> {
        summary.into_iter().map(|(v, w)| (v.to_bits(), w)).collect()
    }

    fn grid_bits(sk: &QuantileSketch, max_bins: usize) -> Vec<u64> {
        sk.cut_grid(max_bins).iter().map(|c| c.to_bits()).collect()
    }

    proptest! {
        // Part of the stream goes in by `insert`, part by `insert_slice`
        // and part through a second sketch that is then merged in; the
        // key-sorted compactions must reproduce the reference's levels
        // and everything read from them, bit for bit.
        #[test]
        fn key_sorted_compactions_match_the_total_cmp_reference(
            (vals, cap, other_cap, cut_a, cut_b) in (stream(), 8usize..64, 8usize..64, 0.0f64..1.0, 0.0f64..1.0)
        ) {
            let a = (cut_a * vals.len() as f64) as usize;
            let b = a + (cut_b * (vals.len() - a) as f64) as usize;
            let mut sk = QuantileSketch::with_capacity(cap);
            let mut reference = Reference::new(cap);
            for &v in &vals[..a] {
                sk.insert(v);
                reference.insert(v);
            }
            sk.insert_slice(&vals[a..b]);
            let mut other = QuantileSketch::with_capacity(other_cap);
            other.insert_slice(&vals[b..]);
            sk.merge(&other);
            let mut other_reference = Reference::new(other_cap);
            for &v in &vals[a..b] {
                reference.insert(v);
            }
            for &v in &vals[b..] {
                other_reference.insert(v);
            }
            reference.merge(&other_reference);
            let reference = reference.to_sketch();

            prop_assert_eq!(&sk.levels, &reference.levels);
            prop_assert_eq!(bits(sk.summary()), bits(reference.summary()));
            prop_assert_eq!(sk.count(), reference.count());
            prop_assert_eq!(sk.non_finite(), reference.non_finite());
            prop_assert_eq!(sk.rank_error_bound(), reference.rank_error_bound());
            for max_bins in [2, 16, 256] {
                prop_assert_eq!(grid_bits(&sk, max_bins), grid_bits(&reference, max_bins));
            }
        }
    }

    #[test]
    fn keys_order_like_total_cmp_and_round_trip() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in values {
            assert_eq!(value(key(a)).to_bits(), a.to_bits());
            for b in values {
                assert_eq!(key(a).cmp(&key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    fn true_rank(values: &[f64], v: f64) -> u64 {
        values.iter().filter(|&&x| x <= v).count() as u64
    }

    #[test]
    fn small_inputs_are_exact() {
        let mut sk = QuantileSketch::with_capacity(64);
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        sk.insert_slice(&values);
        assert_eq!(sk.rank_error_bound(), 0);
        for &v in &values {
            assert_eq!(sk.estimate_rank(v), true_rank(&values, v));
        }
        assert_eq!(sk.value_at_rank(1), Some(0.0));
        assert_eq!(sk.value_at_rank(50), Some(49.0));
    }

    #[test]
    fn rank_error_within_bound_after_compactions() {
        let mut rng = SeededRng::new(7);
        let mut sk = QuantileSketch::with_capacity(32);
        let values: Vec<f64> = (0..5000).map(|_| rng.normal(0.0, 10.0)).collect();
        sk.insert_slice(&values);
        assert!(sk.rank_error_bound() > 0, "should have compacted");
        for &v in values.iter().step_by(97) {
            let est = sk.estimate_rank(v);
            let truth = true_rank(&values, v);
            assert!(
                est.abs_diff(truth) <= sk.rank_error_bound(),
                "rank({v}) est {est} truth {truth} bound {}",
                sk.rank_error_bound()
            );
        }
    }

    #[test]
    fn merge_matches_single_stream_within_bounds() {
        let mut rng = SeededRng::new(11);
        let values: Vec<f64> = (0..4000).map(|_| rng.uniform()).collect();
        let mut whole = QuantileSketch::with_capacity(64);
        whole.insert_slice(&values);
        let mut left = QuantileSketch::with_capacity(64);
        let mut right = QuantileSketch::with_capacity(64);
        left.insert_slice(&values[..1500]);
        right.insert_slice(&values[1500..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        for &v in values.iter().step_by(131) {
            let truth = true_rank(&values, v);
            assert!(left.estimate_rank(v).abs_diff(truth) <= left.rank_error_bound());
            assert!(whole.estimate_rank(v).abs_diff(truth) <= whole.rank_error_bound());
        }
    }

    #[test]
    fn non_finite_values_are_skipped_and_counted() {
        let mut sk = QuantileSketch::new();
        sk.insert(f64::NAN);
        sk.insert(f64::INFINITY);
        sk.insert(1.0);
        assert_eq!(sk.count(), 1);
        assert_eq!(sk.non_finite(), 2);
        assert_eq!(sk.estimate_rank(2.0), 1);
    }

    #[test]
    fn cut_grid_is_strictly_increasing_and_finite() {
        let mut rng = SeededRng::new(3);
        let mut sk = QuantileSketch::with_capacity(128);
        for _ in 0..10_000 {
            sk.insert(rng.normal(0.0, 1.0));
        }
        let cuts = sk.cut_grid(64);
        assert!(!cuts.is_empty());
        assert!(cuts.len() <= 63);
        assert!(cuts.iter().all(|c| c.is_finite()));
        assert!(cuts.windows(2).all(|w| w[1] > w[0]));
        assert!(cuts.iter().all(|&c| c != 0.0 || c.is_sign_positive()));
    }

    #[test]
    fn cut_grid_on_constant_feature_is_empty() {
        let mut sk = QuantileSketch::new();
        sk.insert_slice(&[5.0; 100]);
        assert!(sk.cut_grid(16).is_empty());
    }

    #[test]
    fn cut_grid_empty_sketch() {
        assert!(QuantileSketch::new().cut_grid(8).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut sk = QuantileSketch::with_capacity(32);
            let mut rng = SeededRng::new(9);
            for _ in 0..3000 {
                sk.insert(rng.normal(0.0, 1.0));
            }
            sk.cut_grid(32)
        };
        assert_eq!(build(), build());
    }
}
