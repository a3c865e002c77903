//! Bin-space tree compiler and QuickScorer kernels, shared by training
//! and serving.
//!
//! Histogram-trained trees only ever split *at* the cut values of a
//! per-feature grid, and the grid invariant from `spe_data::binning`
//!
//! ```text
//! encode(cuts, v) <= b  ⟺  v <= cuts[b]      for every v, incl. NaN
//! ```
//!
//! means a split `x[f] <= t` with `t = cuts[f][b]` routes every row
//! exactly like `code[f] <= b`. [`BinForest`] recompiles trees into that
//! form once and then scores u8 codes instead of `f64` features: one
//! 64-byte cache line of codes serves 64 rows, and trees with at most 64
//! leaves run the QuickScorer bitmask kernel (Lucchese et al., SIGIR
//! 2015) with no pointer chasing at all.
//!
//! Three callers share the one compiler:
//!
//! - in-memory SPE rounds score every row of the fit's `BinIndex`
//!   against its cuts ([`BinScorer`]);
//! - out-of-core SPE rounds score the spilled code blocks the same way;
//! - serving (`spe_serve::quantize`) harvests a grid from the trees' own
//!   thresholds, encodes each request batch against it, and adds GBDT
//!   and multi-class frames on top of [`BinForest`].
//!
//! # Kernel contract
//!
//! Codes are column-major with an explicit stride: feature `f` of row `r`
//! is `codes[f * stride + r]` ([`CodeView`]). Every kernel takes a row
//! range and writes (or adds) the result for row `rows.start + i` into
//! `out[i]`. A `BinIndex`, a spill block and a serving encode block are
//! therefore all scored in place, and disjoint ranges can be scored on
//! different threads: each row's result depends on that row alone, so the
//! output never depends on how the rows were split.
//!
//! A split threshold that is not on the grid (an exact-split tree, or a
//! tree trained on another grid) is a typed [`CompileError`], never a
//! silent misprediction.

use crate::persist::ModelSnapshot;
use crate::tree::NodeView;
use spe_data::SpeError;
use std::fmt;
use std::ops::Range;

/// Why a model cannot be compiled against a cut grid.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// A split tests a feature the grid has no cut list for.
    FeatureOutOfRange {
        /// Feature the tree tests.
        feature: usize,
        /// Features the grid covers.
        n_features: usize,
    },
    /// A split threshold is not one of the grid's cuts.
    OffGrid {
        /// Feature the split tests.
        feature: usize,
        /// The threshold that has no bin.
        threshold: f64,
    },
    /// The snapshot kind has no bin-space form.
    Unsupported(&'static str),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FeatureOutOfRange {
                feature,
                n_features,
            } => write!(
                f,
                "tree splits on feature {feature} but the grid has {n_features} features"
            ),
            Self::OffGrid { feature, threshold } => write!(
                f,
                "split threshold {threshold} on feature {feature} is not a cut of the grid \
                 (the tree was not histogram-trained on it)"
            ),
            Self::Unsupported(kind) => write!(
                f,
                "cannot bin-compile a {kind} model (only constants and trees)"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<CompileError> for SpeError {
    fn from(e: CompileError) -> Self {
        SpeError::InvalidConfig(e.to_string())
    }
}

/// Column-major u8 codes with an explicit stride: feature `f` of row `r`
/// is `codes[f * stride + r]`.
#[derive(Clone, Copy, Debug)]
pub struct CodeView<'a> {
    codes: &'a [u8],
    stride: usize,
}

impl<'a> CodeView<'a> {
    /// Views `codes` as columns of `stride` rows each.
    pub fn new(codes: &'a [u8], stride: usize) -> Self {
        Self { codes, stride }
    }

    #[inline]
    fn at(&self, feature: u32, row: usize) -> u8 {
        self.codes[feature as usize * self.stride + row]
    }

    /// Sixteen consecutive rows of one feature.
    #[inline]
    fn lanes(&self, feature: u32, row: usize) -> [u8; 16] {
        let base = feature as usize * self.stride + row;
        self.codes[base..base + 16].try_into().unwrap()
    }
}

/// One flat node. Children are explicit arena indices; leaves point at
/// themselves, so the walk can run a fixed `depth` iterations per row
/// with no branch — once a row reaches a leaf, further steps are no-ops.
#[derive(Clone, Copy, Debug)]
struct QNode {
    left: u32,
    right: u32,
    /// Feature whose code is compared (0 for leaves; a tree with any
    /// split implies at least one feature column, so reading column 0
    /// stays in bounds).
    feature: u32,
    /// Threshold as an index into the feature's cut grid: code `<= bin`
    /// goes left, exactly when `value <= cuts[feature][bin]`.
    bin: u8,
}

/// One split node in the bitmask form. `mask` clears the leaves of the
/// node's left subtree and is applied exactly when the node's test fails
/// (`code > bin`: the row goes right, so no left-subtree leaf can be its
/// exit). NaN codes compare greater than every bin, failing every test
/// on the row's path — the same "send right" routing the f64 tree
/// applies.
#[derive(Clone, Copy, Debug)]
struct MaskNode {
    mask: u64,
    feature: u32,
    bin: u8,
}

/// How a compiled tree is evaluated.
#[derive(Clone, Copy, Debug)]
enum TreeKind {
    /// Bitmask evaluation for trees with at most 64 leaves: apply every
    /// *failed* split's leaf mask, then the lowest surviving bit is the
    /// exit leaf.
    Masked {
        /// Range into [`BinForest::masked`].
        nodes: (u32, u32),
        /// Start of this tree's leaf values in [`BinForest::leaves`].
        leaves: u32,
    },
    /// Fixed-depth pointer walk from `root` — the fallback for trees
    /// whose leaf count overflows a u64 mask.
    Walk,
}

/// One compiled tree: root offset into the node arena, its depth (the
/// walk's fixed trip count) and the evaluation strategy.
#[derive(Clone, Copy, Debug)]
struct QTree {
    root: u32,
    depth: u32,
    kind: TreeKind,
}

/// Trees compiled to bin space, arena-concatenated.
#[derive(Clone, Debug, Default)]
pub struct BinForest {
    /// Every tree's nodes, in source order.
    nodes: Vec<QNode>,
    /// Leaf payload per node (0.0 for split nodes).
    values: Vec<f64>,
    /// Bitmask-form split nodes of all `Masked` trees (grouped by
    /// feature within each tree for cache locality).
    masked: Vec<MaskNode>,
    /// Leaf values of all `Masked` trees, left to right per tree.
    leaves: Vec<f64>,
    trees: Vec<QTree>,
}

impl BinForest {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles one tree — `node(i)` views over a parent-before-child
    /// arena rooted at 0 — against `cuts` and appends it, returning its
    /// index. Trees with at most 64 leaves also get the bitmask form,
    /// which the kernels prefer. On error the forest is unchanged.
    ///
    /// `cuts[f]` must be ascending with fewer than 256 entries, as every
    /// grid `spe_data` builds is.
    pub fn push_tree(
        &mut self,
        cuts: &[Vec<f64>],
        n_nodes: usize,
        node: impl Fn(usize) -> NodeView,
    ) -> Result<usize, CompileError> {
        let base = self.nodes.len() as u32;
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut values = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            match node(i) {
                NodeView::Leaf { value } => {
                    let me = base + i as u32;
                    nodes.push(QNode {
                        left: me,
                        right: me,
                        feature: 0,
                        bin: 0,
                    });
                    values.push(value);
                }
                NodeView::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    nodes.push(QNode {
                        left: base + left as u32,
                        right: base + right as u32,
                        feature: feature as u32,
                        bin: grid_bin(cuts, feature, threshold)?,
                    });
                    values.push(0.0);
                }
            }
        }
        self.nodes.extend_from_slice(&nodes);
        self.values.extend_from_slice(&values);
        let depth = self.depth_at(base as usize);
        let kind = self.build_masked(base as usize).unwrap_or(TreeKind::Walk);
        self.trees.push(QTree {
            root: base,
            depth: depth as u32,
            kind,
        });
        Ok(self.trees.len() - 1)
    }

    /// Number of compiled trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Whether every tree compiled to the bitmask form — the
    /// precondition of [`Self::eval_forest`].
    pub fn all_masked(&self) -> bool {
        self.trees
            .iter()
            .all(|t| matches!(t.kind, TreeKind::Masked { .. }))
    }

    /// Adds `scale · leaf_t(row)` of tree `t` to `out[i]` for every row
    /// `rows.start + i`.
    ///
    /// # Panics
    /// Panics if `out.len() != rows.len()` or the codes do not cover the
    /// rows and features the tree reads.
    pub fn accumulate_tree(
        &self,
        t: usize,
        codes: CodeView<'_>,
        rows: Range<usize>,
        scale: f64,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), rows.len(), "output buffer must match row range");
        let tree = self.trees[t];
        match tree.kind {
            TreeKind::Masked {
                nodes: (lo, hi),
                leaves,
            } => eval_masked(
                &self.masked[lo as usize..hi as usize],
                &self.leaves[leaves as usize..],
                codes,
                rows.start,
                scale,
                out,
            ),
            TreeKind::Walk => self.eval_walk(tree, codes, rows.start, scale, out),
        }
    }

    /// Fused forest kernel: writes `Σ_t 1.0 · leaf_t(row)` (from `0.0`,
    /// in tree order) into `out`. Each sixteen-row group keeps its
    /// running sum in registers across all trees and stores once, and the
    /// per-row addition order is exactly the one repeated
    /// [`Self::accumulate_tree`] calls over a zeroed `out` produce, so
    /// the result is bit-identical.
    ///
    /// # Panics
    /// Panics if some tree is not in bitmask form (see
    /// [`Self::all_masked`]) or on the buffer mismatches
    /// [`Self::accumulate_tree`] rejects.
    pub fn eval_forest(&self, codes: CodeView<'_>, rows: Range<usize>, out: &mut [f64]) {
        assert_eq!(out.len(), rows.len(), "output buffer must match row range");
        let masked = |t: &QTree| match t.kind {
            TreeKind::Masked {
                nodes: (lo, hi),
                leaves,
            } => (
                &self.masked[lo as usize..hi as usize],
                &self.leaves[leaves as usize..],
            ),
            TreeKind::Walk => panic!("eval_forest needs every tree in bitmask form"),
        };
        let n = rows.len();
        let mut i = 0;
        while i + 16 <= n {
            let r = rows.start + i;
            let mut acc = [0.0f64; 16];
            for t in &self.trees {
                let (splits, leaves) = masked(t);
                let mut m = [u64::MAX; 16];
                for s in splits {
                    let c = codes.lanes(s.feature, r);
                    for (lane, &code) in m.iter_mut().zip(&c) {
                        *lane &= s.mask | u64::from(code <= s.bin).wrapping_neg();
                    }
                }
                for (a, lane) in acc.iter_mut().zip(&m) {
                    *a += 1.0 * leaves[lane.trailing_zeros() as usize];
                }
            }
            out[i..i + 16].copy_from_slice(&acc);
            i += 16;
        }
        while i < n {
            let r = rows.start + i;
            let mut a = 0.0;
            for t in &self.trees {
                let (splits, leaves) = masked(t);
                a += 1.0 * leaves[exit_leaf(splits, codes, r)];
            }
            out[i] = a;
            i += 1;
        }
    }

    /// Depth of the subtree rooted at arena index `i`.
    fn depth_at(&self, i: usize) -> usize {
        let n = self.nodes[i];
        if n.left as usize == i {
            0
        } else {
            1 + self
                .depth_at(n.left as usize)
                .max(self.depth_at(n.right as usize))
        }
    }

    /// Builds the bitmask form of the tree rooted at arena index `root`,
    /// or `None` when its leaf count overflows a u64 mask.
    fn build_masked(&mut self, root: usize) -> Option<TreeKind> {
        // In-order walk: number leaves left to right and record each
        // split with the leaf range of its left subtree.
        fn walk(
            f: &BinForest,
            i: usize,
            leaves: &mut Vec<f64>,
            splits: &mut Vec<MaskNode>,
        ) -> Option<(u32, u32)> {
            let n = f.nodes[i];
            if n.left as usize == i {
                if leaves.len() == 64 {
                    return None;
                }
                let s = leaves.len() as u32;
                leaves.push(f.values[i]);
                return Some((s, s + 1));
            }
            let (l0, l1) = walk(f, n.left as usize, leaves, splits)?;
            let (_, r1) = walk(f, n.right as usize, leaves, splits)?;
            // The left subtree holds < 64 leaves (the right one has at
            // least one), so the shift cannot overflow.
            let bits = ((1u64 << (l1 - l0)) - 1) << l0;
            splits.push(MaskNode {
                mask: !bits,
                feature: n.feature,
                bin: n.bin,
            });
            Some((l0, r1))
        }
        let mut leaves = Vec::new();
        let mut splits = Vec::new();
        walk(self, root, &mut leaves, &mut splits)?;
        // Feature-major order: consecutive nodes reuse the same code
        // cache line. The masks are ANDs, so order does not change the
        // selected leaf.
        splits.sort_unstable_by_key(|n| (n.feature, n.bin));
        let lo = self.masked.len() as u32;
        let leaf_start = self.leaves.len() as u32;
        self.masked.extend_from_slice(&splits);
        self.leaves.extend_from_slice(&leaves);
        Some(TreeKind::Masked {
            nodes: (lo, self.masked.len() as u32),
            leaves: leaf_start,
        })
    }

    /// Walks `depth` levels for four rows at once (plus a scalar tail)
    /// and adds `scale · leaf` into `out`. Leaves self-loop, so the trip
    /// count is fixed and the inner step compiles to a branch-free
    /// select.
    fn eval_walk(
        &self,
        tree: QTree,
        codes: CodeView<'_>,
        start: usize,
        scale: f64,
        out: &mut [f64],
    ) {
        let root = tree.root as usize;
        let depth = tree.depth as usize;
        if depth == 0 {
            let v = scale * self.values[root];
            for o in out.iter_mut() {
                *o += v;
            }
            return;
        }
        let nodes = &self.nodes;
        let step = |r: usize, i: usize| -> usize {
            let n = nodes[i];
            (if codes.at(n.feature, r) <= n.bin {
                n.left
            } else {
                n.right
            }) as usize
        };
        let n = out.len();
        let mut i = 0;
        // Four independent traversal lanes hide the code-load latency.
        while i + 4 <= n {
            let r = start + i;
            let (mut i0, mut i1, mut i2, mut i3) = (root, root, root, root);
            for _ in 0..depth {
                i0 = step(r, i0);
                i1 = step(r + 1, i1);
                i2 = step(r + 2, i2);
                i3 = step(r + 3, i3);
            }
            out[i] += scale * self.values[i0];
            out[i + 1] += scale * self.values[i1];
            out[i + 2] += scale * self.values[i2];
            out[i + 3] += scale * self.values[i3];
            i += 4;
        }
        while i < n {
            let mut node = root;
            for _ in 0..depth {
                node = step(start + i, node);
            }
            out[i] += scale * self.values[node];
            i += 1;
        }
    }
}

/// Cut-grid index of `threshold` on `feature`, demanding an exact hit so
/// a foreign tree can never silently mis-route rows. IEEE comparison
/// matches `-0.0` thresholds to a `+0.0` cut, which `<=` cannot tell
/// apart anyway.
fn grid_bin(cuts: &[Vec<f64>], feature: usize, threshold: f64) -> Result<u8, CompileError> {
    let grid = cuts.get(feature).ok_or(CompileError::FeatureOutOfRange {
        feature,
        n_features: cuts.len(),
    })?;
    let b = grid.partition_point(|c| *c < threshold);
    match grid.get(b) {
        Some(&c) if c == threshold => Ok(b as u8),
        _ => Err(CompileError::OffGrid { feature, threshold }),
    }
}

/// Leaf index one row exits a bitmask tree at.
#[inline]
fn exit_leaf(splits: &[MaskNode], codes: CodeView<'_>, r: usize) -> usize {
    let mut live = u64::MAX;
    for s in splits {
        if codes.at(s.feature, r) > s.bin {
            live &= s.mask;
        }
    }
    live.trailing_zeros() as usize
}

/// Bitmask evaluation of one tree: every row starts with all leaves live
/// (`u64::MAX`), each *failed* split test ANDs away its left subtree's
/// leaves, and the lowest surviving bit is the exit leaf.
///
/// The nodes are visited unconditionally — no pointer chasing, no
/// data-dependent loads — and sixteen row lanes share each node's single
/// load, so the loop is one compare and masked AND per (node, row), fully
/// pipelined. Nodes are feature-grouped, so the sixteen code reads per
/// node hit one cache line and consecutive nodes often reuse it.
fn eval_masked(
    splits: &[MaskNode],
    leaves: &[f64],
    codes: CodeView<'_>,
    start: usize,
    scale: f64,
    out: &mut [f64],
) {
    let n = out.len();
    let mut i = 0;
    while i + 16 <= n {
        let r = start + i;
        let mut m = [u64::MAX; 16];
        for s in splits {
            let c = codes.lanes(s.feature, r);
            for (lane, &code) in m.iter_mut().zip(&c) {
                // Branchless select: all ones when the test passes (keep
                // every leaf), the node mask when it fails.
                *lane &= s.mask | u64::from(code <= s.bin).wrapping_neg();
            }
        }
        for (o, lane) in out[i..i + 16].iter_mut().zip(&m) {
            *o += scale * leaves[lane.trailing_zeros() as usize];
        }
        i += 16;
    }
    while i < n {
        out[i] += scale * leaves[exit_leaf(splits, codes, start + i)];
        i += 1;
    }
}

/// A model snapshot compiled against an explicit cut grid — the training
/// loops' entry point into the shared compiler.
///
/// Covers what an SPE member is: a tree, the constant a single-class
/// fit degrades to, or a soft vote of those. A tree's score is its leaf
/// value (`0.0 + 1.0·leaf` is exactly `leaf`) and a vote replays
/// `SoftVoteEnsemble`'s op order, so scores are bit-identical to
/// `predict_proba` whenever the codes were encoded against the same
/// `cuts`.
#[derive(Clone, Debug)]
pub enum BinScorer {
    /// Constant probability.
    Constant(f64),
    /// One compiled tree.
    Tree(BinForest),
    /// Mean of the members' probabilities.
    Vote(Vec<BinScorer>),
}

impl BinScorer {
    /// Compiles `snapshot` against `cuts` (one ascending grid per
    /// feature). A tree whose split threshold is not a cut of its
    /// feature's grid, or any other snapshot kind, is a
    /// [`CompileError`].
    pub fn compile(snapshot: &ModelSnapshot, cuts: &[Vec<f64>]) -> Result<Self, CompileError> {
        match snapshot {
            ModelSnapshot::Constant(p) => Ok(Self::Constant(*p)),
            ModelSnapshot::Tree(t) => {
                let mut forest = BinForest::new();
                forest.push_tree(cuts, t.n_nodes(), |i| t.node(i))?;
                Ok(Self::Tree(forest))
            }
            ModelSnapshot::SoftVote(members) => members
                .iter()
                .map(|m| Self::compile(m, cuts))
                .collect::<Result<_, _>>()
                .map(Self::Vote),
            other => Err(CompileError::Unsupported(other.kind())),
        }
    }

    /// Writes the positive-class probability of every row
    /// `rows.start + i` into `out[i]`.
    ///
    /// # Panics
    /// Panics if `out.len() != rows.len()` or the codes do not cover the
    /// rows and features the model reads.
    pub fn score_into(&self, codes: CodeView<'_>, rows: Range<usize>, out: &mut [f64]) {
        assert_eq!(out.len(), rows.len(), "output buffer must match row range");
        match self {
            Self::Constant(p) => out.fill(*p),
            Self::Tree(forest) => {
                out.fill(0.0);
                forest.accumulate_tree(0, codes, rows, 1.0, out);
            }
            Self::Vote(members) => {
                // Member by member, then one divide, as `SoftVoteEnsemble`
                // predicts.
                out.fill(0.0);
                let mut member = vec![0.0; out.len()];
                for m in members {
                    m.score_into(codes, rows.clone(), &mut member);
                    for (o, &p) in out.iter_mut().zip(&member) {
                        *o += p;
                    }
                }
                let k = members.len() as f64;
                for o in out.iter_mut() {
                    *o /= k;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{BinnedLearner, BinnedProblem, ConstantModel, Learner, Model};
    use crate::tree::{DecisionTreeConfig, SplitMethod};
    use proptest::prelude::*;
    use spe_data::{encode_batch_into, BinIndex, Matrix, SeededRng};

    fn hist_tree(max_depth: usize) -> DecisionTreeConfig {
        DecisionTreeConfig {
            max_depth,
            split_method: SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        }
    }

    fn random_data(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(rows, cols);
        let mut y = Vec::new();
        let mut row = vec![0.0; cols];
        for _ in 0..rows {
            for v in row.iter_mut() {
                *v = rng.normal(0.0, 1.0);
            }
            x.push_row(&row);
            y.push(u8::from(row[0] + row[1 % cols] > 0.0));
        }
        (x, y)
    }

    fn fit_on(bins: &BinIndex, y: &[u8], cfg: &DecisionTreeConfig, seed: u64) -> Box<dyn Model> {
        let rows: Vec<u32> = (0..bins.n_rows() as u32).collect();
        let problem = BinnedProblem {
            bins,
            y,
            weights: None,
        };
        cfg.fit_on_bins(&problem, &rows, seed)
    }

    fn score(scorer: &BinScorer, cuts: &[Vec<f64>], x: &Matrix) -> Vec<f64> {
        let mut codes = vec![0u8; x.rows() * x.cols()];
        encode_batch_into(cuts, x.view(), &mut codes);
        let mut out = vec![0.0; x.rows()];
        scorer.score_into(CodeView::new(&codes, x.rows()), 0..x.rows(), &mut out);
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn code_traversal_matches_f64_traversal() {
        let (x, y) = random_data(500, 4, 1);
        let bins = BinIndex::build(&x, 64);
        let model = fit_on(&bins, &y, &hist_tree(10), 7);
        let cuts = bins.cut_grids();
        let scorer = BinScorer::compile(&model.snapshot().unwrap(), cuts).unwrap();
        // Encode a *different* batch and compare against f64 prediction.
        let (test_x, _) = random_data(300, 4, 2);
        assert_eq!(
            score(&scorer, cuts, &test_x),
            model.predict_proba(&test_x),
            "bin-space traversal must be bit-exact"
        );
    }

    #[test]
    fn nan_rows_route_like_f64() {
        let (x, y) = random_data(200, 3, 3);
        let bins = BinIndex::build(&x, 32);
        let model = fit_on(&bins, &y, &hist_tree(10), 9);
        let cuts = bins.cut_grids();
        let scorer = BinScorer::compile(&model.snapshot().unwrap(), cuts).unwrap();
        let mut test_x = Matrix::zeros(4, 3);
        test_x.set(0, 0, f64::NAN);
        test_x.set(1, 1, f64::NAN);
        test_x.set(2, 2, f64::NAN);
        test_x.set(3, 0, 0.5);
        assert_eq!(score(&scorer, cuts, &test_x), model.predict_proba(&test_x));
    }

    #[test]
    fn exact_split_tree_is_rejected() {
        let (x, y) = random_data(200, 2, 4);
        let model = DecisionTreeConfig {
            split_method: SplitMethod::Exact,
            ..DecisionTreeConfig::default()
        }
        .fit(&x, &y, 5);
        let bins = BinIndex::build(&x, 8);
        // Exact midpoint thresholds almost never coincide with an 8-bin
        // grid; compile must refuse rather than mis-route.
        assert!(matches!(
            BinScorer::compile(&model.snapshot().unwrap(), bins.cut_grids()),
            Err(CompileError::OffGrid { .. })
        ));
        // A grid missing the tested feature is its own typed error.
        assert!(matches!(
            BinScorer::compile(&model.snapshot().unwrap(), &[]),
            Err(CompileError::FeatureOutOfRange { n_features: 0, .. })
        ));
    }

    #[test]
    fn constant_model_compiles() {
        let scorer =
            BinScorer::compile(&ConstantModel(0.25).snapshot().unwrap(), &[vec![0.5]]).unwrap();
        let mut out = vec![0.0; 3];
        scorer.score_into(CodeView::new(&[0, 1, 1], 3), 0..3, &mut out);
        assert_eq!(out, vec![0.25; 3]);
    }

    #[test]
    fn soft_votes_match_the_f64_ensemble() {
        let (x, y) = random_data(400, 3, 11);
        let bins = BinIndex::build(&x, 48);
        // Three members, so the final divide is not a power of two.
        let vote = crate::SoftVoteEnsemble::new(vec![
            fit_on(&bins, &y, &hist_tree(3), 1),
            fit_on(&bins, &y, &hist_tree(6), 2),
            Box::new(ConstantModel(0.3)),
        ]);
        let cuts = bins.cut_grids();
        let scorer = BinScorer::compile(&vote.snapshot().unwrap(), cuts).unwrap();
        let (test_x, _) = random_data(50, 3, 12);
        assert_eq!(
            bits(&score(&scorer, cuts, &test_x)),
            bits(&vote.predict_proba(&test_x))
        );
    }

    #[test]
    fn unsupported_kinds_are_typed_errors() {
        let spe = ModelSnapshot::SelfPaced {
            alphas: vec![0.0],
            members: vec![ModelSnapshot::Constant(0.5)],
        };
        assert_eq!(
            BinScorer::compile(&spe, &[]).map(|_| ()),
            Err(CompileError::Unsupported("SPE"))
        );
        let err: SpeError = CompileError::Unsupported("KNN").into();
        assert!(matches!(err, SpeError::InvalidConfig(_)), "{err}");
    }

    /// A random histogram tree, the codes of a scoring batch placed at
    /// row offset `offset` of a column stride `stride`, and the batch.
    struct Case {
        model: Box<dyn Model>,
        cuts: Vec<Vec<f64>>,
        codes: Vec<u8>,
        stride: usize,
        offset: usize,
        batch: Matrix,
    }

    fn case(
        (train_rows, cols, seed, batch_rows, offset): (usize, usize, u64, usize, usize),
        max_depth: usize,
        noisy: bool,
    ) -> Case {
        let (x, mut y) = random_data(train_rows, cols, seed);
        let mut rng = SeededRng::new(seed ^ 0x5EED);
        if noisy {
            // Random labels force a bushy tree (well over 64 leaves).
            for l in y.iter_mut() {
                *l = rng.below(2) as u8;
            }
        }
        let bins = BinIndex::build(&x, 32 + (seed % 200) as usize);
        let cfg = DecisionTreeConfig {
            min_samples_leaf: 1,
            ..hist_tree(max_depth)
        };
        let model = fit_on(&bins, &y, &cfg, seed);
        let cuts = bins.cut_grids().to_vec();
        // Batch values reuse training values (so cut hits happen), with
        // some NaN cells mixed in.
        let mut batch = Matrix::with_capacity(batch_rows, cols);
        for _ in 0..batch_rows {
            let src = x.row(rng.below(train_rows));
            let row: Vec<f64> = src
                .iter()
                .map(|&v| if rng.below(10) == 0 { f64::NAN } else { v })
                .collect();
            batch.push_row(&row);
        }
        let stride = offset + batch_rows + 5;
        let mut block = vec![0u8; batch_rows * cols];
        encode_batch_into(&cuts, batch.view(), &mut block);
        // Padding rows get arbitrary codes: the kernel must not read them.
        let mut codes: Vec<u8> = (0..stride * cols).map(|_| rng.below(256) as u8).collect();
        for f in 0..cols {
            codes[f * stride + offset..f * stride + offset + batch_rows]
                .copy_from_slice(&block[f * batch_rows..(f + 1) * batch_rows]);
        }
        Case {
            model,
            cuts,
            codes,
            stride,
            offset,
            batch,
        }
    }

    /// Checks the compiled tree against the f64 tree and reports whether
    /// it took the bitmask kernel.
    fn check(c: &Case) -> bool {
        let scorer = BinScorer::compile(&c.model.snapshot().unwrap(), &c.cuts).unwrap();
        let n = c.batch.rows();
        let mut out = vec![f64::NAN; n];
        scorer.score_into(
            CodeView::new(&c.codes, c.stride),
            c.offset..c.offset + n,
            &mut out,
        );
        assert_eq!(bits(&out), bits(&c.model.predict_proba(&c.batch)));
        match scorer {
            BinScorer::Tree(forest) => forest.all_masked(),
            _ => panic!("a tree compiles to a tree"),
        }
    }

    fn shape() -> impl Strategy<Value = (usize, usize, u64, usize, usize)> {
        // Batch sizes straddle the 16-row lane groups and the 4-row walk
        // lanes; offsets are arbitrary.
        (
            60usize..400,
            1usize..5,
            0u64..10_000,
            1usize..70,
            0usize..40,
        )
    }

    proptest! {
        #[test]
        fn small_trees_take_the_masked_kernel(s in shape(), depth in 0usize..6) {
            prop_assert!(check(&case(s, depth, false)));
        }

        #[test]
        fn bushy_trees_take_the_walk_kernel(s in shape()) {
            let c = case((s.0 + 600, s.1 + 1, s.2, s.3, s.4), 12, true);
            prop_assert!(!check(&c), "expected a >64-leaf tree");
        }

        #[test]
        fn constants_fill_any_row_range(s in shape(), p in 0.0f64..=1.0) {
            let c = case(s, 0, false);
            let scorer = BinScorer::compile(&ModelSnapshot::Constant(p), &c.cuts).unwrap();
            let n = c.batch.rows();
            let mut out = vec![f64::NAN; n];
            scorer.score_into(CodeView::new(&c.codes, c.stride), c.offset..c.offset + n, &mut out);
            prop_assert_eq!(bits(&out), bits(&ConstantModel(p).predict_proba(&c.batch)));
        }
    }

    #[test]
    fn forest_kernel_matches_per_tree_accumulation() {
        let (x, y) = random_data(800, 3, 21);
        let bins = BinIndex::build(&x, 64);
        let mut forest = BinForest::new();
        for seed in 0..5 {
            let model = fit_on(&bins, &y, &hist_tree(4), seed);
            let Some(ModelSnapshot::Tree(t)) = model.snapshot() else {
                panic!("tree snapshot expected");
            };
            forest
                .push_tree(bins.cut_grids(), t.n_nodes(), |i| t.node(i))
                .unwrap();
        }
        assert!(forest.all_masked());
        let codes = CodeView::new(bins.codes(), bins.n_rows());
        for rows in [0..0, 3..4, 5..37, 16..800, 0..800] {
            let mut fused = vec![f64::NAN; rows.len()];
            forest.eval_forest(codes, rows.clone(), &mut fused);
            let mut each = vec![0.0; rows.len()];
            for t in 0..forest.n_trees() {
                forest.accumulate_tree(t, codes, rows.clone(), 1.0, &mut each);
            }
            assert_eq!(bits(&fused), bits(&each), "{rows:?}");
        }
    }
}
