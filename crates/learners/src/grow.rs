//! The one tree arena and the two growers behind every tree in this
//! crate.
//!
//! Classification trees ([`crate::tree::TreeModel`]) and the gradient
//! regression trees of GBDT ([`crate::regtree::RegTree`]) are the same
//! structure: a flat [`Arena`] of 24-byte nodes, grown greedily by one
//! of two split searches:
//!
//! - [`exact`]: per node, each candidate feature is sorted once and
//!   scanned with prefix sums, so every distinct value is a candidate
//!   threshold.
//! - [`histogram`]: over a shared [`BinIndex`], each node sums per-bin
//!   statistics in O(n·d) and scans bin boundaries. Sibling histograms
//!   come from parent−child subtraction whenever every feature is a
//!   candidate at every node.
//!
//! Both growers sum the same two per-row quantities `(a, b)`: weight and
//! weighted positives for CART, gradient and hessian for Newton
//! boosting. A [`Criterion`] turns those sums into node scores, split
//! gains and leaf values; the growers own everything else (stop rules,
//! feature sampling, tie-breaking and the arena layout).

use crate::histogram::{self, BinStat, HistLayout};
use crate::tree::NodeView;
use crate::tree_util::{midpoint, partition};
use spe_data::{BinIndex, Matrix, SeededRng};
use std::cell::Cell;

/// Sentinel feature id marking a leaf node.
const LEAF: u32 = u32::MAX;

/// One arena node: 24 bytes, no enum discriminant. `feature == LEAF`
/// marks a leaf, in which case `value` is the prediction and the child
/// indices are unused; otherwise `value` is the split threshold (`<=`
/// goes left).
#[derive(Clone, Copy, Debug)]
struct FlatNode {
    feature: u32,
    left: u32,
    right: u32,
    value: f64,
}

serde::impl_serde!(FlatNode {
    feature,
    left,
    right,
    value
});

impl FlatNode {
    #[inline]
    fn leaf(value: f64) -> Self {
        Self {
            feature: LEAF,
            left: 0,
            right: 0,
            value,
        }
    }
}

/// A trained tree: a flat node arena with the root at index 0. Both
/// growers push a split node before its subtrees, so child indices
/// point strictly forward; prediction walks a contiguous `Vec` with no
/// pointer chasing.
#[derive(Clone)]
pub(crate) struct Arena {
    nodes: Vec<FlatNode>,
}

impl serde::Serialize for Arena {
    fn serialize(&self, w: &mut serde::Writer) {
        serde::Serialize::serialize(&self.nodes, w);
    }
}

impl serde::Deserialize for Arena {
    /// Decodes and checks the parent-before-child invariant: every
    /// split node's children must point strictly forward and inside the
    /// arena. A decoded tree can then never loop or index outside its
    /// arena during prediction.
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::DecodeError> {
        let nodes = <Vec<FlatNode> as serde::Deserialize>::deserialize(r)?;
        if nodes.is_empty() {
            return Err(serde::DecodeError::Invalid("empty tree arena".into()));
        }
        let n = nodes.len() as u32;
        for (i, node) in nodes.iter().enumerate() {
            let i = i as u32;
            if node.feature != LEAF
                && (node.left <= i || node.right <= i || node.left >= n || node.right >= n)
            {
                return Err(serde::DecodeError::Invalid(format!(
                    "tree node {i} has out-of-order children ({}, {})",
                    node.left, node.right
                )));
            }
        }
        Ok(Self { nodes })
    }
}

impl Arena {
    /// The leaf value reached by one row.
    #[inline]
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let n = self.nodes[i];
            if n.feature == LEAF {
                return n.value;
            }
            i = if row[n.feature as usize] <= n.value {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth reached (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn go(nodes: &[FlatNode], i: usize) -> usize {
            let n = nodes[i];
            if n.feature == LEAF {
                0
            } else {
                1 + go(nodes, n.left as usize).max(go(nodes, n.right as usize))
            }
        }
        go(&self.nodes, 0)
    }

    /// Read-only view of node `i`; panics if `i >= self.n_nodes()`.
    pub fn node(&self, i: usize) -> NodeView {
        let n = self.nodes[i];
        if n.feature == LEAF {
            NodeView::Leaf { value: n.value }
        } else {
            NodeView::Split {
                feature: n.feature as usize,
                threshold: n.value,
                left: n.left as usize,
                right: n.right as usize,
            }
        }
    }

    /// Smallest row width this tree can score: one past the highest
    /// feature index it splits on (0 for a single leaf).
    pub fn required_features(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.feature != LEAF)
            .map(|n| n.feature as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// What a split search optimizes, over a node's two summed quantities
/// `(a, b)`. `score` is always the node's own [`Criterion::node_score`].
///
/// Each implementation keeps its float operations in one fixed order,
/// so a tree grown through it is bit-for-bit reproducible.
pub(crate) trait Criterion {
    /// The node's own score, from which split gains are measured.
    fn node_score(&self, a: f64, b: f64) -> f64;
    /// True when the node cannot improve, whatever the limits allow.
    fn is_final(&self, a: f64, score: f64) -> bool;
    /// Gain of sending the `left` sums left and the rest of `all`
    /// right, or `None` when that split is not allowed.
    fn gain(&self, left: (f64, f64), all: (f64, f64), score: f64) -> Option<f64>;
    /// True when a gain is large enough to split on.
    fn admits(&self, gain: f64) -> bool;
    /// The value stored in a leaf with these sums.
    fn leaf(&self, a: f64, b: f64) -> f64;
}

/// Shape limits shared by both growers.
pub(crate) struct Limits {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum rows on each side of a split.
    pub min_samples_leaf: usize,
    /// Features sampled per node (`None`, or at least the feature count,
    /// means all of them).
    pub max_features: Option<usize>,
}

/// Grows a tree over every row of `x` by exact sort-and-scan split
/// search. `a` and `b` hold each row's two summed quantities; `seed`
/// drives per-node feature sampling.
pub(crate) fn exact<C: Criterion>(
    x: &Matrix,
    a: &[f64],
    b: &[f64],
    crit: &C,
    limits: &Limits,
    seed: u64,
) -> Arena {
    debug_assert!(a.len() == x.rows() && b.len() == x.rows());
    with_buffers(|buf| {
        buf.idx.clear();
        buf.idx.extend(0..x.rows());
        let mut grower = Exact {
            g: Grower::new(crit, limits, seed),
            x,
            a,
            b,
            sorted: &mut buf.sorted,
        };
        let root = grower.build(&mut buf.idx, 0);
        debug_assert_eq!(root, 0);
        Arena {
            nodes: grower.g.nodes,
        }
    })
}

/// Grows a tree over `rows` (ids into `bins`, repeats allowed) by
/// histogram split search. `a` and `b` hold the two summed quantities
/// of every row of `bins`; `seed` drives per-node feature sampling.
pub(crate) fn histogram<C: Criterion>(
    bins: &BinIndex,
    rows: impl IntoIterator<Item = u32>,
    a: &[f64],
    b: &[f64],
    crit: &C,
    limits: &Limits,
    seed: u64,
) -> Arena {
    debug_assert!(a.len() == bins.n_rows() && b.len() == bins.n_rows());
    with_buffers(|buf| {
        buf.rows.clear();
        buf.rows.extend(rows);
        let mut grower = Hist {
            g: Grower::new(crit, limits, seed),
            bins,
            a,
            b,
            layout: HistLayout::new(bins),
            pool: &mut buf.pool,
            feat_hist: &mut buf.feat_hist,
        };
        let root = grower.build(&mut buf.rows, 0, None);
        debug_assert_eq!(root, 0);
        Arena {
            nodes: grower.g.nodes,
        }
    })
}

/// The growers' working memory, kept in a thread-local so repeated fits
/// on one thread (ensemble members, boosting rounds) stop re-allocating
/// their sort buffers, index vectors and histogram pool.
#[derive(Default)]
struct Buffers {
    /// Exact: (value, a, b) of one feature, sorted by value.
    sorted: Vec<(f64, f64, f64)>,
    /// Exact: row indices, partitioned in place.
    idx: Vec<usize>,
    /// Histogram: row ids, partitioned in place.
    rows: Vec<u32>,
    /// Histogram: recycled full-layout histograms.
    pool: Vec<Vec<BinStat>>,
    /// Histogram: one feature's bins in sampled-feature mode.
    feat_hist: Vec<BinStat>,
}

thread_local! {
    static BUFFERS: Cell<Buffers> = Cell::new(Buffers::default());
}

/// Runs `f` with this thread's [`Buffers`], restoring them (with any
/// grown capacity) afterwards. A panic inside `f` loses the buffers:
/// the next fit simply starts from empty ones.
fn with_buffers<R>(f: impl FnOnce(&mut Buffers) -> R) -> R {
    BUFFERS.with(|cell| {
        let mut buf = cell.take();
        let r = f(&mut buf);
        cell.set(buf);
        r
    })
}

/// The best split seen so far: feature, position (threshold or bin)
/// and gain.
struct Best<T> {
    feature: usize,
    at: T,
    gain: f64,
}

/// What both growers share: the criterion, the limits, the feature
/// sampler and the arena under construction.
struct Grower<'a, C> {
    crit: &'a C,
    limits: &'a Limits,
    rng: SeededRng,
    nodes: Vec<FlatNode>,
}

impl<'a, C: Criterion> Grower<'a, C> {
    fn new(crit: &'a C, limits: &'a Limits, seed: u64) -> Self {
        Self {
            crit,
            limits,
            rng: SeededRng::new(seed),
            nodes: Vec::new(),
        }
    }

    /// True when a node of `n` rows at `depth` with sums `(a, _)` and
    /// score `score` becomes a leaf without a split search. The budget
    /// check makes deep builds interruptible: once the installed
    /// wall-clock deadline passes, every pending subtree ends as a
    /// (valid) leaf.
    fn stops(&self, depth: usize, n: usize, a: f64, score: f64) -> bool {
        self.surely_leaf(depth, n)
            || self.crit.is_final(a, score)
            || (depth > 0 && spe_runtime::budget_exceeded())
    }

    /// True when the limits alone rule out splitting a node of `n` rows
    /// at `depth`, so computing its histogram would be wasted work.
    fn surely_leaf(&self, depth: usize, n: usize) -> bool {
        depth >= self.limits.max_depth || n < self.limits.min_samples_split
    }

    /// This node's candidate features, when they are a sample: the RNG
    /// is drawn only when `max_features` is below the feature count `d`.
    fn sampled_features(&mut self, d: usize) -> Option<Vec<usize>> {
        match self.limits.max_features {
            Some(m) if m < d => Some(self.rng.sample_indices(d, m)),
            _ => None,
        }
    }

    /// Offers the split sending `left` left to `best`. Across all
    /// features of a node, the first strict maximum among admitted
    /// gains wins.
    fn offer<T>(
        &self,
        best: &mut Option<Best<T>>,
        feature: usize,
        at: impl FnOnce() -> T,
        left: (f64, f64),
        all: (f64, f64),
        score: f64,
    ) {
        let Some(gain) = self.crit.gain(left, all, score) else {
            return;
        };
        if self.crit.admits(gain) && best.as_ref().is_none_or(|b| gain > b.gain) {
            *best = Some(Best {
                feature,
                at: at(),
                gain,
            });
        }
    }

    /// Offers every boundary of feature `f`'s bins `stats` that
    /// separates rows and leaves `min_samples_leaf` rows on each side.
    fn scan_bins(
        &self,
        f: usize,
        stats: &[BinStat],
        n_node: usize,
        all: (f64, f64),
        score: f64,
        best: &mut Option<Best<usize>>,
    ) {
        let min_leaf = self.limits.min_samples_leaf;
        let (mut a_left, mut b_left, mut n_left) = (0.0, 0.0, 0usize);
        for (bin, s) in stats.iter().enumerate().take(stats.len().saturating_sub(1)) {
            a_left += s.a;
            b_left += s.b;
            n_left += s.n as usize;
            let n_right = n_node - n_left;
            if n_left == 0 || n_right == 0 {
                continue; // threshold separates nothing
            }
            if n_left < min_leaf || n_right < min_leaf {
                continue;
            }
            self.offer(best, f, || bin, (a_left, b_left), all, score);
        }
    }

    fn leaf(&mut self, (a, b): (f64, f64)) -> u32 {
        self.nodes.push(FlatNode::leaf(self.crit.leaf(a, b)));
        (self.nodes.len() - 1) as u32
    }

    /// Reserves the slot of a split node before its subtrees are built.
    fn reserve(&mut self) -> u32 {
        self.nodes.push(FlatNode::leaf(0.0));
        (self.nodes.len() - 1) as u32
    }

    fn set_split(&mut self, me: u32, feature: usize, left: u32, right: u32, threshold: f64) {
        self.nodes[me as usize] = FlatNode {
            feature: feature as u32,
            left,
            right,
            value: threshold,
        };
    }
}

/// Sums a node's `(a, b)` pairs in row order.
fn sums(pairs: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    let (mut a, mut b) = (0.0, 0.0);
    for (pa, pb) in pairs {
        a += pa;
        b += pb;
    }
    (a, b)
}

/// Exact split search over the raw feature matrix.
struct Exact<'a, C> {
    g: Grower<'a, C>,
    x: &'a Matrix,
    a: &'a [f64],
    b: &'a [f64],
    sorted: &'a mut Vec<(f64, f64, f64)>,
}

impl<C: Criterion> Exact<'_, C> {
    /// Builds the subtree over `idx` at `depth`, returning its node index.
    fn build(&mut self, idx: &mut [usize], depth: usize) -> u32 {
        let all = sums(idx.iter().map(|&i| (self.a[i], self.b[i])));
        let score = self.g.crit.node_score(all.0, all.1);
        if self.g.stops(depth, idx.len(), all.0, score) {
            return self.g.leaf(all);
        }
        let mut best = None;
        let d = self.x.cols();
        match self.g.sampled_features(d) {
            Some(features) => features
                .into_iter()
                .for_each(|f| self.scan(f, idx, all, score, &mut best)),
            None => (0..d).for_each(|f| self.scan(f, idx, all, score, &mut best)),
        }
        let Some(best) = best else {
            return self.g.leaf(all);
        };
        let mid = partition(idx, |&i| self.x.get(i, best.feature) <= best.at);
        if mid == 0 || mid == idx.len() {
            // Numeric degeneracy (midpoint thresholds should rule it
            // out, but guard anyway).
            return self.g.leaf(all);
        }
        let me = self.g.reserve();
        let (li, ri) = idx.split_at_mut(mid);
        let left = self.build(li, depth + 1);
        let right = self.build(ri, depth + 1);
        self.g.set_split(me, best.feature, left, right, best.at);
        me
    }

    /// Sorts the node's rows by feature `f` and offers every threshold
    /// between two distinct values that leaves `min_samples_leaf` rows
    /// on each side.
    fn scan(
        &mut self,
        f: usize,
        idx: &[usize],
        all: (f64, f64),
        score: f64,
        best: &mut Option<Best<f64>>,
    ) {
        let min_leaf = self.g.limits.min_samples_leaf;
        self.sorted.clear();
        self.sorted.extend(
            idx.iter()
                .map(|&i| (self.x.get(i, f), self.a[i], self.b[i])),
        );
        self.sorted.sort_unstable_by(|p, q| p.0.total_cmp(&q.0));
        let n = self.sorted.len();
        let (mut a_left, mut b_left) = (0.0, 0.0);
        for s in 0..n - 1 {
            let (v, ai, bi) = self.sorted[s];
            a_left += ai;
            b_left += bi;
            let v_next = self.sorted[s + 1].0;
            if v == v_next {
                continue; // can't split between equal values
            }
            let n_left = s + 1;
            if n_left < min_leaf || n - n_left < min_leaf {
                continue;
            }
            let at = || midpoint(v, v_next);
            self.g.offer(best, f, at, (a_left, b_left), all, score);
        }
    }
}

/// Histogram split search over a shared [`BinIndex`].
struct Hist<'a, C> {
    g: Grower<'a, C>,
    bins: &'a BinIndex,
    a: &'a [f64],
    b: &'a [f64],
    layout: HistLayout,
    pool: &'a mut Vec<Vec<BinStat>>,
    feat_hist: &'a mut Vec<BinStat>,
}

impl<C: Criterion> Hist<'_, C> {
    fn alloc(&mut self) -> Vec<BinStat> {
        let mut h = self.pool.pop().unwrap_or_default();
        h.resize(self.layout.total(), BinStat::default());
        h
    }

    fn free(&mut self, h: Option<Vec<BinStat>>) {
        self.pool.extend(h);
    }

    /// Builds the subtree over `rows`; `hist_in`, when present, is this
    /// node's histogram, already derived by sibling subtraction.
    fn build(&mut self, rows: &mut [u32], depth: usize, hist_in: Option<Vec<BinStat>>) -> u32 {
        let all = sums(
            rows.iter()
                .map(|&r| (self.a[r as usize], self.b[r as usize])),
        );
        let score = self.g.crit.node_score(all.0, all.1);
        if self.g.stops(depth, rows.len(), all.0, score) {
            self.free(hist_in);
            return self.g.leaf(all);
        }

        // With every feature a candidate the node keeps its full
        // histogram, so its children can come from subtraction. With
        // sampled features the candidate sets of parent and child
        // differ, so each node bins only its own sample.
        let mut best = None;
        let hist = match self.g.sampled_features(self.bins.n_features()) {
            None => {
                let hist = hist_in.unwrap_or_else(|| {
                    let mut h = self.alloc();
                    histogram::accumulate(self.bins, rows, self.a, self.b, &self.layout, &mut h);
                    h
                });
                for f in 0..self.bins.n_features() {
                    let stats = &hist[self.layout.feature_range(f)];
                    self.g
                        .scan_bins(f, stats, rows.len(), all, score, &mut best);
                }
                Some(hist)
            }
            Some(features) => {
                debug_assert!(hist_in.is_none());
                let (bins, stats) = (self.bins, &mut *self.feat_hist);
                for f in features {
                    stats.clear();
                    stats.resize(bins.n_bins(f), BinStat::default());
                    histogram::accumulate_feature(bins, rows, self.a, self.b, f, stats);
                    self.g
                        .scan_bins(f, stats, rows.len(), all, score, &mut best);
                }
                None
            }
        };
        let Some(best) = best else {
            self.free(hist);
            return self.g.leaf(all);
        };

        // Partition rows by bin code; by the bin/cut invariant this is
        // exactly `value <= threshold` for every finite feature value.
        let codes = self.bins.feature_codes(best.feature);
        let split_bin = best.at as u8;
        let mid = partition(rows, |&r| codes[r as usize] <= split_bin);
        if mid == 0 || mid == rows.len() {
            self.free(hist);
            return self.g.leaf(all);
        }
        let me = self.g.reserve();
        let (lrows, rrows) = rows.split_at_mut(mid);

        // Derive child histograms: accumulate the smaller side, get the
        // sibling by subtracting it from the parent in place.
        let need_children = !self.g.surely_leaf(depth + 1, lrows.len())
            || !self.g.surely_leaf(depth + 1, rrows.len());
        let (lh, rh) = match hist {
            Some(mut parent) if need_children => {
                let mut child = self.alloc();
                let (small, child_is_left) = if lrows.len() <= rrows.len() {
                    (&*lrows, true)
                } else {
                    (&*rrows, false)
                };
                histogram::accumulate(self.bins, small, self.a, self.b, &self.layout, &mut child);
                histogram::subtract(&mut parent, &child);
                if child_is_left {
                    (Some(child), Some(parent))
                } else {
                    (Some(parent), Some(child))
                }
            }
            other => {
                self.free(other);
                (None, None)
            }
        };

        let left = self.build(lrows, depth + 1, lh);
        let right = self.build(rrows, depth + 1, rh);
        let threshold = self.bins.cut(best.feature, best.at);
        self.g.set_split(me, best.feature, left, right, threshold);
        me
    }
}
