//! Classification decision tree (CART) with weighted samples.
//!
//! Serves as the paper's "DT / C4.5" base classifier (entropy criterion
//! approximates C4.5's information gain on numeric features) and as the
//! building block for AdaBoost, Bagging, Random Forest and every
//! under/over-sampling ensemble baseline.
//!
//! Two split-finding engines share one [`TreeModel`] representation:
//!
//! - **Exact** ([`SplitMethod::Exact`]): per node, each candidate
//!   feature is sorted once and scanned with weighted prefix sums —
//!   O(n·d·log n) per level, every distinct value a candidate.
//! - **Histogram** ([`SplitMethod::Histogram`]): features are quantized
//!   once into ≤256 bins ([`BinIndex`]), then each node accumulates
//!   per-bin (weight, weighted-positive) stats in O(n·d) and scans bin
//!   boundaries. Sibling histograms come from parent−child subtraction,
//!   and ensembles can share one index across all members via
//!   [`BinnedLearner`].
//!
//! Both engines and the flat node arena (with its decoder) are shared
//! with GBDT's regression trees. This module supplies CART's criterion
//! (weighted Gini or entropy decrease, with the positive fraction as the
//! leaf value) and the learner configuration.

use crate::grow::{self, Arena, Criterion, Limits};
use crate::persist::ModelSnapshot;
use crate::traits::{
    check_fit_inputs, validate_fit_inputs, BinRequest, BinnedLearner, BinnedProblem, ConstantModel,
    FeatureBound, Learner, Model,
};
use spe_data::binning::MAX_BINS;
use spe_data::{BinIndex, Matrix, MatrixView, SpeError};
use std::cell::Cell;

/// Split quality criterion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitCriterion {
    /// Gini impurity `2p(1-p)` (CART default).
    Gini,
    /// Shannon entropy (information gain, ≈ C4.5 on numeric features).
    Entropy,
}

impl SplitCriterion {
    /// Impurity of a node with weighted positive fraction `p`.
    #[inline]
    pub fn impurity(self, p: f64) -> f64 {
        match self {
            SplitCriterion::Gini => 2.0 * p * (1.0 - p),
            SplitCriterion::Entropy => {
                let q = 1.0 - p;
                let mut h = 0.0;
                if p > 0.0 {
                    h -= p * p.log2();
                }
                if q > 0.0 {
                    h -= q * q.log2();
                }
                h
            }
        }
    }
}

/// Which split-finding engine a tree uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitMethod {
    /// Sort-and-scan over raw feature values at every node.
    Exact,
    /// Pre-binned histogram split finding (≤ `max_bins` thresholds per
    /// feature), regardless of training-set size.
    Histogram,
    /// Exact below `threshold` training rows, histogram at or above —
    /// small fits keep every candidate threshold, large fits get the
    /// O(n·d)-per-level path.
    Auto {
        /// Row count at which the histogram engine takes over.
        threshold: usize,
    },
}

impl SplitMethod {
    /// Default crossover for [`SplitMethod::Auto`]: below this the exact
    /// engine's extra candidate resolution is cheap enough to keep.
    pub const DEFAULT_AUTO_THRESHOLD: usize = 8192;

    /// True when a fit on `n` rows should take the histogram path.
    #[inline]
    pub fn use_histogram(self, n: usize) -> bool {
        match self {
            SplitMethod::Exact => false,
            SplitMethod::Histogram => true,
            SplitMethod::Auto { threshold } => n >= threshold,
        }
    }
}

impl Default for SplitMethod {
    fn default() -> Self {
        SplitMethod::Auto {
            threshold: Self::DEFAULT_AUTO_THRESHOLD,
        }
    }
}

/// Decision-tree hyper-parameters. Paper settings: `max_depth = 10` for
/// the standalone DT (Table II); depth-1 stumps inside AdaBoost.
#[derive(Clone, Debug)]
pub struct DecisionTreeConfig {
    /// Split criterion.
    pub criterion: SplitCriterion,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples on each side of a split.
    pub min_samples_leaf: usize,
    /// Features sampled per node (None = all; Random Forest sets √d).
    pub max_features: Option<usize>,
    /// Minimum weighted impurity decrease to accept a split.
    pub min_impurity_decrease: f64,
    /// Split-finding engine (default: histogram for large fits).
    pub split_method: SplitMethod,
    /// Bin budget per feature for the histogram engine (≤ 256).
    pub max_bins: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self {
            criterion: SplitCriterion::Gini,
            max_depth: 10,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            min_impurity_decrease: 0.0,
            split_method: SplitMethod::default(),
            max_bins: spe_data::binning::MAX_BINS,
        }
    }
}

impl DecisionTreeConfig {
    /// Default config with the given depth cap.
    pub fn with_depth(max_depth: usize) -> Self {
        Self {
            max_depth,
            ..Self::default()
        }
    }

    /// Entropy-criterion config (the paper's C4.5 stand-in).
    pub fn c45(max_depth: usize) -> Self {
        Self {
            criterion: SplitCriterion::Entropy,
            max_depth,
            ..Self::default()
        }
    }

    /// A depth-1 decision stump (AdaBoost's default weak learner).
    pub fn stump() -> Self {
        Self::with_depth(1)
    }
}

/// Read-only view of one flat-arena tree node, for consumers that
/// re-compile trees into other layouts (the serving-side quantized
/// kernel) without exposing the private arena representation.
///
/// Indices come from [`TreeModel::node`] / `RegTree::node`; the root is
/// node 0 and children always point strictly forward in the arena.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeView {
    /// A terminal node carrying the prediction (probability for
    /// classification trees, leaf weight for regression trees).
    Leaf {
        /// Predicted value.
        value: f64,
    },
    /// An internal split: `x[feature] <= threshold` goes left.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold (`<=` goes left, `NaN` goes right).
        threshold: f64,
        /// Arena index of the left child (`> self`).
        left: usize,
        /// Arena index of the right child (`> self`).
        right: usize,
    },
}

/// A trained decision tree (flat node arena; root at index 0). Leaves
/// hold the positive-class probability.
#[derive(Clone)]
pub struct TreeModel {
    arena: Arena,
}

serde::impl_serde!(TreeModel { arena });

impl TreeModel {
    /// Probability of the positive class for one sample.
    #[inline]
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        self.arena.predict_one(row)
    }

    /// Number of nodes (diagnostic).
    pub fn n_nodes(&self) -> usize {
        self.arena.n_nodes()
    }

    /// Maximum depth actually reached (diagnostic).
    pub fn depth(&self) -> usize {
        self.arena.depth()
    }

    /// Read-only view of arena node `i` (root at 0).
    ///
    /// # Panics
    /// Panics if `i >= self.n_nodes()`.
    pub fn node(&self, i: usize) -> NodeView {
        self.arena.node(i)
    }
}

impl Model for TreeModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        x.iter_rows().map(|r| self.predict_one(r)).collect()
    }

    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        assert_eq!(out.len(), x.rows(), "output buffer must match row count");
        for (o, r) in out.iter_mut().zip(x.iter_rows()) {
            *o = self.predict_one(r);
        }
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(ModelSnapshot::Tree(self.clone()))
    }

    fn feature_bound(&self) -> FeatureBound {
        FeatureBound::AtLeast(self.arena.required_features())
    }
}

/// CART's criterion over a node's weight `w` and weighted positives
/// `w_pos`: impurity decrease, with the positive fraction as leaf value.
struct Impurity {
    criterion: SplitCriterion,
    min_decrease: f64,
}

impl Criterion for Impurity {
    fn node_score(&self, w: f64, w_pos: f64) -> f64 {
        let p = if w > 0.0 { w_pos / w } else { 0.0 };
        self.criterion.impurity(p)
    }

    fn is_final(&self, w: f64, impurity: f64) -> bool {
        impurity == 0.0 || w <= 0.0
    }

    fn gain(
        &self,
        (w_left, w_pos_left): (f64, f64),
        (w, w_pos): (f64, f64),
        impurity: f64,
    ) -> Option<f64> {
        let w_right = w - w_left;
        if w_left <= 0.0 || w_right <= 0.0 {
            return None;
        }
        let p_l = w_pos_left / w_left;
        let p_r = (w_pos - w_pos_left) / w_right;
        let child_imp =
            (w_left * self.criterion.impurity(p_l) + w_right * self.criterion.impurity(p_r)) / w;
        Some(impurity - child_imp)
    }

    /// Like scikit-learn, a split is admissible when its impurity
    /// decrease is >= the configured minimum; with the default of 0
    /// this allows zero-gain splits (necessary for XOR-like data, where
    /// every first split has zero gain).
    fn admits(&self, gain: f64) -> bool {
        gain >= self.min_decrease - 1e-15
    }

    fn leaf(&self, w: f64, w_pos: f64) -> f64 {
        if w > 0.0 {
            w_pos / w
        } else {
            0.5
        }
    }
}

thread_local! {
    /// Per-row weights and weighted positives, reused across fits.
    static SUMS: Cell<(Vec<f64>, Vec<f64>)> = Cell::default();
}

impl DecisionTreeConfig {
    /// Grows one tree with `grow` over this thread's per-row sums: each
    /// row's weight (`unit` when unweighted) and its weight again when
    /// the row is positive, 0 otherwise. `y` and `weights` cover every
    /// row of the sums; `rows` are the rows the grower visits, and only
    /// theirs are written (the rest hold stale values it never reads).
    ///
    /// The unit is a per-engine constant. Gains and leaf probabilities
    /// are ratios of these sums, so it picks no different split in exact
    /// arithmetic, but it moves their rounding. The exact engine has
    /// always weighed a row `1/n` and the histogram engine `1`, so each
    /// keeps its own unit and every trained model stays byte-identical.
    fn grow_on_sums(
        &self,
        y: &[u8],
        weights: Option<&[f64]>,
        rows: impl IntoIterator<Item = usize>,
        unit: f64,
        grow: impl FnOnce(&[f64], &[f64], &Impurity, &Limits) -> Arena,
    ) -> Box<dyn Model> {
        let crit = Impurity {
            criterion: self.criterion,
            min_decrease: self.min_impurity_decrease,
        };
        let limits = Limits {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            min_samples_leaf: self.min_samples_leaf,
            max_features: self.max_features,
        };
        let arena = SUMS.with(|cell| {
            let (mut w, mut w_pos) = cell.take();
            w.resize(y.len(), 0.0);
            w_pos.resize(y.len(), 0.0);
            for r in rows {
                let wi = weights.map_or(unit, |ws| ws[r]);
                w[r] = wi;
                w_pos[r] = if y[r] != 0 { wi } else { 0.0 };
            }
            let arena = grow(&w, &w_pos, &crit, &limits);
            cell.set((w, w_pos));
            arena
        });
        Box::new(TreeModel { arena })
    }

    /// Histogram-path fit over a subset of a pre-built bin index.
    ///
    /// `y` and `weights` cover **all** rows of `bins`; `rows` selects the
    /// training subset (repeats allowed). Single-class subsets degrade
    /// to a [`ConstantModel`], mirroring the plain `fit` path.
    fn fit_hist(
        &self,
        bins: &BinIndex,
        y: &[u8],
        weights: Option<&[f64]>,
        rows: &[u32],
        seed: u64,
    ) -> Box<dyn Model> {
        assert_eq!(y.len(), bins.n_rows(), "label/bin-index length mismatch");
        if let Some(w) = weights {
            assert_eq!(w.len(), bins.n_rows(), "weight/bin-index length mismatch");
        }
        assert!(!rows.is_empty(), "cannot fit on an empty row subset");
        if let Some(constant) = single_class(rows.iter().map(|&r| y[r as usize])) {
            return constant;
        }
        // The histogram grower reads the sums of `rows` only, so a
        // member drawn from a large index fills O(|rows|), not O(|y|).
        let visited = rows.iter().map(|&r| r as usize);
        self.grow_on_sums(y, weights, visited, 1.0, |w, w_pos, crit, limits| {
            grow::histogram(bins, rows.iter().copied(), w, w_pos, crit, limits, seed)
        })
    }
}

/// A [`ConstantModel`] when `labels` hold one class only.
fn single_class(labels: impl ExactSizeIterator<Item = u8>) -> Option<Box<dyn Model>> {
    let n = labels.len();
    let n_pos = labels.filter(|&l| l != 0).count();
    (n_pos == 0 || n_pos == n)
        .then(|| Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 })) as Box<dyn Model>)
}

/// Rejects a histogram bin budget outside `2..=MAX_BINS` (the range
/// [`BinIndex::build`] asserts) for learners whose `split_method` can
/// reach the histogram engine.
pub(crate) fn check_max_bins(split_method: SplitMethod, max_bins: usize) -> Result<(), SpeError> {
    if split_method != SplitMethod::Exact && !(2..=MAX_BINS).contains(&max_bins) {
        return Err(SpeError::InvalidConfig(format!(
            "max_bins must be in 2..={MAX_BINS}, got {max_bins}"
        )));
    }
    Ok(())
}

impl Learner for DecisionTreeConfig {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        check_fit_inputs(x, y, weights);
        if self.split_method.use_histogram(y.len()) {
            let bins = BinIndex::build(x, self.max_bins);
            let rows: Vec<u32> = (0..y.len() as u32).collect();
            return self.fit_hist(&bins, y, weights, &rows, seed);
        }
        if let Some(constant) = single_class(y.iter().copied()) {
            return constant;
        }
        let unit = 1.0 / y.len() as f64;
        self.grow_on_sums(y, weights, 0..y.len(), unit, |w, w_pos, crit, limits| {
            grow::exact(x, w, w_pos, crit, limits, seed)
        })
    }

    fn try_fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Result<Box<dyn Model>, SpeError> {
        check_max_bins(self.split_method, self.max_bins)?;
        validate_fit_inputs(x, y, weights)?;
        Ok(self.fit_weighted(x, y, weights, seed))
    }

    fn name(&self) -> &'static str {
        "DT"
    }

    fn as_binned(&self) -> Option<&dyn BinnedLearner> {
        Some(self)
    }
}

impl BinnedLearner for DecisionTreeConfig {
    fn bin_request(&self) -> Option<BinRequest> {
        match self.split_method {
            SplitMethod::Exact => None,
            SplitMethod::Histogram => Some(BinRequest {
                min_rows: 0,
                max_bins: self.max_bins,
            }),
            SplitMethod::Auto { threshold } => Some(BinRequest {
                min_rows: threshold,
                max_bins: self.max_bins,
            }),
        }
    }

    fn fit_on_bins(&self, problem: &BinnedProblem<'_>, rows: &[u32], seed: u64) -> Box<dyn Model> {
        self.fit_hist(problem.bins, problem.y, problem.weights, rows, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::SeededRng;

    fn xor_data() -> (Matrix, Vec<u8>) {
        // XOR pattern: needs depth >= 2.
        let pts = [(0.0, 0.0, 0u8), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)];
        let mut x = Matrix::with_capacity(4, 2);
        let mut y = Vec::new();
        for &(a, b, l) in &pts {
            x.push_row(&[a, b]);
            y.push(l);
        }
        (x, y)
    }

    fn hist_cfg(max_depth: usize) -> DecisionTreeConfig {
        DecisionTreeConfig {
            split_method: SplitMethod::Histogram,
            ..DecisionTreeConfig::with_depth(max_depth)
        }
    }

    #[test]
    fn learns_a_threshold() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = DecisionTreeConfig::with_depth(3).fit(&x, &y, 0);
        let test = Matrix::from_vec(2, 1, vec![1.5, 10.5]);
        assert_eq!(m.predict(&test), vec![0, 1]);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let (x, y) = xor_data();
        let m = DecisionTreeConfig::with_depth(2).fit(&x, &y, 0);
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn stump_cannot_learn_xor() {
        let (x, y) = xor_data();
        let m = DecisionTreeConfig::stump().fit(&x, &y, 0);
        assert_ne!(m.predict(&x), y);
    }

    #[test]
    fn entropy_criterion_also_works() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = DecisionTreeConfig::c45(3).fit(&x, &y, 0);
        assert_eq!(
            m.predict(&Matrix::from_vec(2, 1, vec![0.5, 11.5])),
            vec![0, 1]
        );
    }

    #[test]
    fn single_class_returns_constant() {
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let m = DecisionTreeConfig::default().fit(&x, &[1, 1, 1], 0);
        assert_eq!(m.predict_proba(&x), vec![1.0; 3]);
    }

    #[test]
    fn respects_max_depth() {
        // Alternating labels force deep trees if allowed.
        let x = Matrix::from_vec(16, 1, (0..16).map(f64::from).collect());
        let y: Vec<u8> = (0..16).map(|i| (i % 2) as u8).collect();
        let learner = DecisionTreeConfig::with_depth(2);
        let boxed = learner.fit(&x, &y, 0);
        // Downcast trick: verify via behaviour — a depth-2 tree has at
        // most 4 leaves, so it cannot match 16 alternating labels.
        let preds = boxed.predict(&x);
        assert_ne!(preds, y);
    }

    #[test]
    fn weights_dominate_split_choice() {
        // Unweighted majority at each x is label 0, but the positives
        // carry large weight, flipping leaf probabilities.
        let x = Matrix::from_vec(4, 1, vec![0.0, 0.0, 1.0, 1.0]);
        let y = vec![0, 1, 0, 1];
        let w = vec![1.0, 9.0, 1.0, 9.0];
        let m = DecisionTreeConfig::with_depth(2).fit_weighted(&x, &y, Some(&w), 0);
        let p = m.predict_proba(&x);
        assert!(p.iter().all(|&pi| pi > 0.5), "{p:?}");
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let x = Matrix::from_vec(5, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let y = vec![1, 0, 0, 0, 0];
        let cfg = DecisionTreeConfig {
            min_samples_leaf: 2,
            ..DecisionTreeConfig::with_depth(4)
        };
        let m = cfg.fit(&x, &y, 0);
        // The lone positive cannot be isolated: its leaf has >= 2 samples,
        // so its probability is at most 0.5.
        let p = m.predict_proba(&Matrix::from_vec(1, 1, vec![0.0]));
        assert!(p[0] <= 0.5 + 1e-12);
    }

    #[test]
    fn feature_subsampling_is_seeded() {
        let (x, y) = xor_data();
        let cfg = DecisionTreeConfig {
            max_features: Some(1),
            ..DecisionTreeConfig::with_depth(3)
        };
        let a = cfg.fit(&x, &y, 7).predict_proba(&x);
        let b = cfg.fit(&x, &y, 7).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_feature_values_never_split_between_ties() {
        let x = Matrix::from_vec(4, 1, vec![1.0, 1.0, 1.0, 1.0]);
        let y = vec![0, 1, 0, 1];
        let m = DecisionTreeConfig::default().fit(&x, &y, 0);
        let p = m.predict_proba(&x);
        assert!(p.iter().all(|&pi| (pi - 0.5).abs() < 1e-12));
    }

    #[test]
    fn probabilities_are_leaf_fractions() {
        // Only two distinct feature values, so only one split exists.
        let x = Matrix::from_vec(6, 1, vec![0.0, 0.0, 0.0, 5.0, 5.0, 5.0]);
        let y = vec![0, 0, 1, 1, 1, 0];
        let cfg = DecisionTreeConfig::with_depth(1);
        let m = cfg.fit(&x, &y, 0);
        let p = m.predict_proba(&Matrix::from_vec(2, 1, vec![0.0, 5.0]));
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    // ---- histogram engine ----

    #[test]
    fn histogram_learns_a_threshold() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = hist_cfg(3).fit(&x, &y, 0);
        let test = Matrix::from_vec(2, 1, vec![1.5, 10.5]);
        assert_eq!(m.predict(&test), vec![0, 1]);
    }

    #[test]
    fn histogram_learns_xor() {
        let (x, y) = xor_data();
        let m = hist_cfg(2).fit(&x, &y, 0);
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn histogram_matches_exact_on_training_data() {
        // Low-cardinality data: every distinct value gets its own bin,
        // so the histogram engine considers the same candidate
        // partitions as the exact engine and both produce identical
        // leaf assignments on the training set.
        let mut rng = SeededRng::new(42);
        let n = 400;
        let mut x = Matrix::with_capacity(n, 3);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.below(8) as f64;
            let b = rng.below(8) as f64;
            let c = rng.below(4) as f64;
            x.push_row(&[a, b, c]);
            y.push(u8::from(a + b >= 8.0));
        }
        let exact = DecisionTreeConfig {
            split_method: SplitMethod::Exact,
            ..DecisionTreeConfig::with_depth(6)
        };
        let hist = DecisionTreeConfig {
            split_method: SplitMethod::Histogram,
            ..DecisionTreeConfig::with_depth(6)
        };
        let pe = exact.fit(&x, &y, 0).predict_proba(&x);
        let ph = hist.fit(&x, &y, 0).predict_proba(&x);
        for (a, b) in pe.iter().zip(&ph) {
            assert!((a - b).abs() < 1e-9, "exact {a} vs hist {b}");
        }
    }

    #[test]
    fn histogram_subset_fit_uses_only_selected_rows() {
        // Rows outside the subset carry the opposite label; the model
        // must reflect the subset only.
        let x = Matrix::from_vec(8, 1, vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]);
        let y = vec![1, 1, 1, 1, 0, 0, 0, 0];
        let bins = BinIndex::build(&x, 16);
        let cfg = hist_cfg(3);
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        // Subset flips the apparent geometry: low rows are 1, high are 0.
        let m = BinnedLearner::fit_on_bins(&cfg, &problem, &[0, 1, 4, 5], 0);
        let p = m.predict_proba(&Matrix::from_vec(2, 1, vec![0.5, 12.0]));
        assert!(p[0] > 0.5 && p[1] < 0.5, "{p:?}");
    }

    #[test]
    fn histogram_single_class_subset_is_constant() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let y = vec![0, 0, 1, 1];
        let bins = BinIndex::build(&x, 8);
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        let m = BinnedLearner::fit_on_bins(&hist_cfg(3), &problem, &[2, 3], 0);
        assert_eq!(m.predict_proba(&x), vec![1.0; 4]);
    }

    #[test]
    fn histogram_respects_min_samples_leaf() {
        let x = Matrix::from_vec(5, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let y = vec![1, 0, 0, 0, 0];
        let cfg = DecisionTreeConfig {
            min_samples_leaf: 2,
            ..hist_cfg(4)
        };
        let m = cfg.fit(&x, &y, 0);
        let p = m.predict_proba(&Matrix::from_vec(1, 1, vec![0.0]));
        assert!(p[0] <= 0.5 + 1e-12);
    }

    #[test]
    fn histogram_sampled_features_deterministic() {
        let mut rng = SeededRng::new(9);
        let n = 200;
        let mut x = Matrix::with_capacity(n, 4);
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f64> = (0..4).map(|_| rng.below(16) as f64).collect();
            y.push(u8::from(row[0] >= 8.0));
            x.push_row(&row);
        }
        let cfg = DecisionTreeConfig {
            max_features: Some(2),
            ..hist_cfg(5)
        };
        let a = cfg.fit(&x, &y, 3).predict_proba(&x);
        let b = cfg.fit(&x, &y, 3).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn auto_threshold_switches_engines() {
        let cfg = DecisionTreeConfig::default();
        assert!(matches!(cfg.split_method, SplitMethod::Auto { .. }));
        assert!(!cfg.split_method.use_histogram(100));
        assert!(cfg
            .split_method
            .use_histogram(SplitMethod::DEFAULT_AUTO_THRESHOLD));
        assert!(SplitMethod::Histogram.use_histogram(1));
        assert!(!SplitMethod::Exact.use_histogram(usize::MAX));
    }

    #[test]
    fn bin_request_follows_split_method() {
        let exact = DecisionTreeConfig {
            split_method: SplitMethod::Exact,
            ..DecisionTreeConfig::default()
        };
        assert!(BinnedLearner::bin_request(&exact).is_none());
        let hist = hist_cfg(3);
        let req = BinnedLearner::bin_request(&hist).unwrap();
        assert_eq!(req.min_rows, 0);
        assert_eq!(req.max_bins, 256);
        let auto = DecisionTreeConfig::default();
        let req = BinnedLearner::bin_request(&auto).unwrap();
        assert_eq!(req.min_rows, SplitMethod::DEFAULT_AUTO_THRESHOLD);
    }

    #[test]
    fn predict_proba_view_matches_owned() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = DecisionTreeConfig::with_depth(3).fit(&x, &y, 0);
        assert_eq!(m.predict_proba(&x), m.predict_proba_view(x.view()));
        assert_eq!(
            m.predict_proba_view(x.view_rows(2..5)),
            m.predict_proba(&x.row_range(2..5))
        );
    }
}
