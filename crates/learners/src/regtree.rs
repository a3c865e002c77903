//! Regression tree on gradient/hessian targets (GBDT building block).
//!
//! Split gain and leaf values follow the second-order formulation
//! (Newton boosting, as in LightGBM/XGBoost): for a node with gradient
//! sum G and hessian sum H, the leaf value is `-G / (H + λ)` and the
//! split gain is `G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)`.
//!
//! The tree is grown by the same two engines, on the same node arena, as
//! the classification tree: the exact sort-and-scan path
//! ([`RegTree::fit`]) and a histogram path ([`RegTree::fit_binned`])
//! over a pre-built [`BinIndex`] — GBDT bins its training matrix once
//! and reuses the index for every boosting round, with sibling
//! histograms derived by parent−child subtraction. This module supplies
//! the Newton criterion.

use crate::grow::{self, Arena, Criterion, Limits};
use crate::tree::NodeView;
use spe_data::{BinIndex, Matrix, MatrixView};

/// Hyper-parameters for the gradient regression tree.
#[derive(Clone, Debug)]
pub struct RegTreeConfig {
    /// Maximum depth (root = 0).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// L2 regularization λ on leaf values.
    pub lambda: f64,
    /// Minimum gain to accept a split.
    pub min_gain: f64,
}

impl Default for RegTreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 3,
            min_samples_split: 2,
            min_samples_leaf: 1,
            lambda: 1.0,
            min_gain: 1e-12,
        }
    }
}

/// Newton boosting's criterion over a node's gradient sum `g` and
/// hessian sum `h`.
struct Newton {
    lambda: f64,
    min_gain: f64,
}

impl Criterion for Newton {
    fn node_score(&self, g: f64, h: f64) -> f64 {
        g * g / (h + self.lambda)
    }

    fn is_final(&self, _g: f64, _score: f64) -> bool {
        false
    }

    fn gain(&self, (g_l, h_l): (f64, f64), (g, h): (f64, f64), parent: f64) -> Option<f64> {
        let g_r = g - g_l;
        let h_r = h - h_l;
        Some(g_l * g_l / (h_l + self.lambda) + g_r * g_r / (h_r + self.lambda) - parent)
    }

    fn admits(&self, gain: f64) -> bool {
        gain > self.min_gain
    }

    fn leaf(&self, g: f64, h: f64) -> f64 {
        -g / (h + self.lambda)
    }
}

impl RegTreeConfig {
    fn rules(&self) -> (Newton, Limits) {
        let crit = Newton {
            lambda: self.lambda,
            min_gain: self.min_gain,
        };
        let limits = Limits {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            min_samples_leaf: self.min_samples_leaf,
            max_features: None,
        };
        (crit, limits)
    }
}

/// A fitted regression tree producing additive raw scores.
#[derive(Clone)]
pub struct RegTree {
    arena: Arena,
}

serde::impl_serde!(RegTree { arena });

impl RegTree {
    /// Smallest row width this tree can score: one past the highest
    /// feature index it splits on (0 for a single-leaf tree).
    pub fn required_features(&self) -> usize {
        self.arena.required_features()
    }

    /// Fits a tree to per-sample gradients and hessians (exact splits).
    ///
    /// # Panics
    /// Panics on length mismatches or empty input.
    pub fn fit(x: &Matrix, grad: &[f64], hess: &[f64], cfg: &RegTreeConfig) -> Self {
        assert_eq!(x.rows(), grad.len(), "gradient length mismatch");
        assert_eq!(grad.len(), hess.len(), "hessian length mismatch");
        assert!(!grad.is_empty(), "cannot fit on empty data");
        let (crit, limits) = cfg.rules();
        RegTree {
            arena: grow::exact(x, grad, hess, &crit, &limits, 0),
        }
    }

    /// Fits a tree on all rows of a pre-built bin index (histogram
    /// splits). `grad`/`hess` are indexed by bin-index row id.
    ///
    /// # Panics
    /// Panics on length mismatches or an empty index.
    pub fn fit_binned(bins: &BinIndex, grad: &[f64], hess: &[f64], cfg: &RegTreeConfig) -> Self {
        assert_eq!(bins.n_rows(), grad.len(), "gradient length mismatch");
        assert_eq!(grad.len(), hess.len(), "hessian length mismatch");
        assert!(!grad.is_empty(), "cannot fit on empty data");
        let (crit, limits) = cfg.rules();
        let rows = 0..grad.len() as u32;
        RegTree {
            arena: grow::histogram(bins, rows, grad, hess, &crit, &limits, 0),
        }
    }

    /// Raw additive score for one sample.
    #[inline]
    pub fn predict_one(&self, row: &[f64]) -> f64 {
        self.arena.predict_one(row)
    }

    /// Adds `eta * prediction` to the running scores, in place.
    pub fn add_scores(&self, x: &Matrix, eta: f64, scores: &mut [f64]) {
        self.add_scores_view(x.view(), eta, scores);
    }

    /// [`RegTree::add_scores`] over a borrowed row view.
    pub fn add_scores_view(&self, x: MatrixView<'_>, eta: f64, scores: &mut [f64]) {
        debug_assert_eq!(x.rows(), scores.len());
        for (s, row) in scores.iter_mut().zip(x.iter_rows()) {
            *s += eta * self.predict_one(row);
        }
    }

    /// Node count (diagnostic).
    pub fn n_nodes(&self) -> usize {
        self.arena.n_nodes()
    }

    /// Read-only view of arena node `i` (root at 0), in the same shape
    /// classification trees expose — `value` here is the leaf weight.
    ///
    /// # Panics
    /// Panics if `i >= self.n_nodes()`.
    pub fn node(&self, i: usize) -> NodeView {
        self.arena.node(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared-loss fitting: grad = pred - target with pred = 0, hess = 1
    /// turns leaf values into (regularized) target means.
    fn fit_mean(x: &Matrix, targets: &[f64], cfg: &RegTreeConfig) -> RegTree {
        let grad: Vec<f64> = targets.iter().map(|t| -t).collect();
        let hess = vec![1.0; targets.len()];
        RegTree::fit(x, &grad, &hess, cfg)
    }

    fn fit_mean_binned(x: &Matrix, targets: &[f64], cfg: &RegTreeConfig) -> RegTree {
        let grad: Vec<f64> = targets.iter().map(|t| -t).collect();
        let hess = vec![1.0; targets.len()];
        let bins = BinIndex::build(x, 64);
        RegTree::fit_binned(&bins, &grad, &hess, cfg)
    }

    #[test]
    fn fits_step_function() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let t = vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        let cfg = RegTreeConfig {
            lambda: 0.0,
            ..RegTreeConfig::default()
        };
        let tree = fit_mean(&x, &t, &cfg);
        assert!((tree.predict_one(&[1.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[11.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn lambda_shrinks_leaf_values() {
        let x = Matrix::from_vec(2, 1, vec![0.0, 10.0]);
        let t = vec![4.0, 4.0];
        let tree = fit_mean(
            &x,
            &t,
            &RegTreeConfig {
                lambda: 2.0,
                max_depth: 0,
                ..RegTreeConfig::default()
            },
        );
        // Leaf value = sum(t) / (n + lambda) = 8 / 4.
        assert!((tree.predict_one(&[0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn depth_zero_is_a_single_leaf() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let t = vec![0.0, 0.0, 10.0, 10.0];
        let cfg = RegTreeConfig {
            max_depth: 0,
            lambda: 0.0,
            ..RegTreeConfig::default()
        };
        let tree = fit_mean(&x, &t, &cfg);
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict_one(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn add_scores_accumulates() {
        let x = Matrix::from_vec(2, 1, vec![0.0, 10.0]);
        let t = vec![2.0, 6.0];
        let cfg = RegTreeConfig {
            lambda: 0.0,
            ..RegTreeConfig::default()
        };
        let tree = fit_mean(&x, &t, &cfg);
        let mut scores = vec![1.0, 1.0];
        tree.add_scores(&x, 0.5, &mut scores);
        assert!((scores[0] - 2.0).abs() < 1e-9);
        assert!((scores[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let t = vec![10.0, 0.0, 0.0, 0.0];
        let cfg = RegTreeConfig {
            min_samples_leaf: 2,
            lambda: 0.0,
            ..RegTreeConfig::default()
        };
        let tree = fit_mean(&x, &t, &cfg);
        // The outlier at x=0 cannot be isolated; its leaf mean is 5.
        assert!((tree.predict_one(&[0.0]) - 5.0).abs() < 1e-9);
    }

    // ---- histogram engine ----

    #[test]
    fn binned_fits_step_function() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let t = vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        let cfg = RegTreeConfig {
            lambda: 0.0,
            ..RegTreeConfig::default()
        };
        let tree = fit_mean_binned(&x, &t, &cfg);
        assert!((tree.predict_one(&[1.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[11.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn binned_matches_exact_on_low_cardinality_data() {
        use spe_data::SeededRng;
        let mut rng = SeededRng::new(5);
        let n = 300;
        let mut x = Matrix::with_capacity(n, 2);
        let mut t = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.below(10) as f64;
            let b = rng.below(10) as f64;
            t.push(a * 2.0 + b);
            x.push_row(&[a, b]);
        }
        let cfg = RegTreeConfig {
            max_depth: 4,
            lambda: 0.0,
            ..RegTreeConfig::default()
        };
        let exact = fit_mean(&x, &t, &cfg);
        let binned = fit_mean_binned(&x, &t, &cfg);
        for row in x.iter_rows() {
            let a = exact.predict_one(row);
            let b = binned.predict_one(row);
            assert!((a - b).abs() < 1e-9, "exact {a} vs binned {b}");
        }
    }

    #[test]
    fn binned_min_samples_leaf_enforced() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let t = [10.0, 0.0, 0.0, 0.0];
        let grad: Vec<f64> = t.iter().map(|v| -v).collect();
        let hess = vec![1.0; 4];
        let cfg = RegTreeConfig {
            min_samples_leaf: 2,
            lambda: 0.0,
            ..RegTreeConfig::default()
        };
        let bins = BinIndex::build(&x, 8);
        let tree = RegTree::fit_binned(&bins, &grad, &hess, &cfg);
        assert!((tree.predict_one(&[0.0]) - 5.0).abs() < 1e-9);
    }
}
