//! Property-based tests for the mergeable quantile sketch behind
//! out-of-core binning: the rank-error bound must hold for any input
//! and any merge tree, merging must be order-insensitive up to the
//! proven bounds, and sketch-built cut grids must sit within the
//! guaranteed error of exact quantiles.

use proptest::prelude::*;
use spe::data::QuantileSketch;

/// Exact rank of `v` in `sorted`: how many items are `<= v` (the
/// definition `estimate_rank` approximates).
fn exact_rank(sorted: &[f64], v: f64) -> u64 {
    sorted.partition_point(|x| x.total_cmp(&v) != std::cmp::Ordering::Greater) as u64
}

/// Asserts every summarized value's estimated rank is within the
/// sketch's own error bound of the exact rank over `values`.
fn assert_ranks_within_bound(sk: &QuantileSketch, values: &[f64]) {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    let bound = sk.rank_error_bound();
    for (v, _) in sk.summary() {
        let est = sk.estimate_rank(v);
        let exact = exact_rank(&sorted, v);
        prop_assert!(
            est.abs_diff(exact) <= bound,
            "rank of {v}: estimated {est}, exact {exact}, bound {bound}"
        );
    }
}

/// Strategy: a value vector with heavy duplication mixed in (the
/// vendored proptest has no `prop_oneof`; the choice is an integer
/// draw: 0-2 fresh float, 3 exact duplicate magnet, 4 zero).
fn values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u8..5, -1e6f64..1e6), 1..max_len).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(kind, v)| match kind {
                0..=2 => v,
                3 => 42.0,
                _ => 0.0,
            })
            .collect()
    })
}

proptest! {
    // One sketch, tiny capacity (lots of compaction): the advertised
    // bound holds and the count is exact.
    #[test]
    fn single_sketch_rank_bound_holds(vals in values(400), cap in 8usize..64) {
        let mut sk = QuantileSketch::with_capacity(cap);
        sk.insert_slice(&vals);
        prop_assert_eq!(sk.count(), vals.len() as u64);
        assert_ranks_within_bound(&sk, &vals);
    }

    // Merging in either order yields the same count, the same error
    // bound, and rank estimates valid for the combined data.
    #[test]
    fn merge_is_commutative_within_bounds(
        a in values(250),
        b in values(250),
        cap in 8usize..48,
    ) {
        let build = |v: &[f64]| {
            let mut s = QuantileSketch::with_capacity(cap);
            s.insert_slice(v);
            s
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));

        prop_assert_eq!(ab.count(), ba.count());
        let mut all = a.clone();
        all.extend_from_slice(&b);
        assert_ranks_within_bound(&ab, &all);
        assert_ranks_within_bound(&ba, &all);
    }

    // Left-leaning and right-leaning merge trees both stay within
    // their own (possibly different) bounds of the exact ranks.
    #[test]
    fn merge_is_associative_within_bounds(
        a in values(160),
        b in values(160),
        c in values(160),
        cap in 8usize..48,
    ) {
        let build = |v: &[f64]| {
            let mut s = QuantileSketch::with_capacity(cap);
            s.insert_slice(v);
            s
        };
        // (a + b) + c
        let mut left = build(&a);
        left.merge(&build(&b));
        left.merge(&build(&c));
        // a + (b + c)
        let mut bc = build(&b);
        bc.merge(&build(&c));
        let mut right = build(&a);
        right.merge(&bc);

        prop_assert_eq!(left.count(), right.count());
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        assert_ranks_within_bound(&left, &all);
        assert_ranks_within_bound(&right, &all);
    }

    // A random merge tree over many small shards — the streaming
    // pattern of a chunked pass 1 — still honors the bound.
    #[test]
    fn random_merge_trees_stay_within_bound(
        vals in values(600),
        shards in 2usize..9,
        order_seed in 0u64..1000,
        cap in 8usize..48,
    ) {
        // Split into shards, sketch each, then merge in a
        // seed-scrambled order.
        let chunk = vals.len().div_ceil(shards);
        let mut parts: Vec<QuantileSketch> = vals
            .chunks(chunk)
            .map(|c| {
                let mut s = QuantileSketch::with_capacity(cap);
                s.insert_slice(c);
                s
            })
            .collect();
        let mut state = order_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        while parts.len() > 1 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % parts.len();
            let taken = parts.swap_remove(i);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % parts.len();
            parts[j].merge(&taken);
        }
        let merged = parts.pop().unwrap();
        prop_assert_eq!(merged.count(), vals.len() as u64);
        assert_ranks_within_bound(&merged, &vals);
    }

    // On inputs small enough to stay uncompacted the sketch is exact,
    // so its cut grid must partition the data exactly like equi-depth
    // quantiles: every cut's exact rank within one inter-cut gap of
    // its target rank, cuts strictly increasing, and each cut an
    // actual data value.
    #[test]
    fn exact_sketch_cuts_match_exact_quantiles(
        vals in values(300),
        max_bins in 2usize..40,
    ) {
        let mut sk = QuantileSketch::with_capacity(1024);
        sk.insert_slice(&vals);
        prop_assert_eq!(sk.rank_error_bound(), 0, "no compaction expected");
        let cuts = sk.cut_grid(max_bins);
        prop_assert!(cuts.len() < max_bins);
        prop_assert!(cuts.windows(2).all(|w| w[1] > w[0]));

        let mut sorted = vals.clone();
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        let n = sorted.len() as u64;
        for (b, &cut) in cuts.iter().enumerate() {
            // -0.0 is normalized to +0.0 in grids; compare by value.
            prop_assert!(
                sorted.contains(&cut),
                "cut {cut} is not a data value"
            );
            // Equi-depth target for this cut index (cuts can be
            // deduplicated, so the matching target is >= b+1; the
            // weakest valid target is the (b+1)-th).
            let target = (b as u64 + 1) * n / max_bins as u64;
            let rank = exact_rank(&sorted, cut);
            // An exact sketch places the cut at the first value whose
            // cumulative count reaches the target, so the achieved
            // rank can only overshoot by that value's multiplicity.
            prop_assert!(
                rank >= target.min(1),
                "cut {b} at {cut}: rank {rank} fell below target {target}"
            );
        }
    }

    // A compacted sketch's cuts each sit within the error bound of
    // *some* achievable equi-depth rank: the bound transfers from
    // ranks to the grid the out-of-core fit actually uses.
    #[test]
    fn compacted_cuts_are_within_bound_of_equal_depth(
        vals in values(500),
        cap in 16usize..64,
    ) {
        let max_bins = 16usize;
        let mut sk = QuantileSketch::with_capacity(cap);
        sk.insert_slice(&vals);
        let cuts = sk.cut_grid(max_bins);
        let mut sorted = vals.clone();
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        let bound = sk.rank_error_bound();
        for &cut in &cuts {
            let est = sk.estimate_rank(cut);
            let exact = exact_rank(&sorted, cut);
            prop_assert!(
                est.abs_diff(exact) <= bound,
                "cut {cut}: estimated rank {est}, exact {exact}, bound {bound}"
            );
        }
    }
}
