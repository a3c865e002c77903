//! Random Forest (Breiman 2001): bagged trees + per-node feature
//! sub-sampling (√d by default).
//!
//! Paper hyper-parameter (Table II): `n_estimators = 10`.

use crate::ensemble::{
    fit_on_bins_parallel, fit_parallel, BinnedTrainJob, SoftVoteEnsemble, TrainJob,
};
use crate::traits::{
    check_fit_inputs, validate_fit_inputs, BinnedProblem, ConstantModel, Learner, Model,
};
use crate::tree::{check_max_bins, DecisionTreeConfig, SplitMethod};
use spe_data::{BinIndex, Matrix, SeededRng, SpeError};

/// Random-forest hyper-parameters.
#[derive(Clone, Debug)]
pub struct RandomForestConfig {
    /// Number of trees (paper: 10).
    pub n_trees: usize,
    /// Depth cap per tree.
    pub max_depth: usize,
    /// Features sampled per node; `None` = √d.
    pub max_features: Option<usize>,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Split engine for the member trees. With the histogram engine the
    /// feature matrix is quantized once and every bootstrap member
    /// trains on row ids of the shared [`BinIndex`] — no per-member
    /// matrix copies.
    pub split_method: SplitMethod,
    /// Bin budget per feature for the histogram engine.
    pub max_bins: usize,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 10,
            max_depth: 16,
            max_features: None,
            min_samples_leaf: 1,
            split_method: SplitMethod::default(),
            max_bins: spe_data::binning::MAX_BINS,
        }
    }
}

impl RandomForestConfig {
    /// Forest with `n` trees and default tree shape.
    pub fn new(n_trees: usize) -> Self {
        Self {
            n_trees,
            ..Self::default()
        }
    }
}

impl Learner for RandomForestConfig {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        check_fit_inputs(x, y, weights);
        assert!(self.n_trees > 0, "need at least one tree");
        let n_pos = y.iter().filter(|&&l| l != 0).count();
        if n_pos == 0 || n_pos == y.len() {
            return Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 }));
        }

        let d = x.cols();
        let mtry = self
            .max_features
            .unwrap_or_else(|| (d as f64).sqrt().round().max(1.0) as usize)
            .min(d);
        let tree_cfg = DecisionTreeConfig {
            max_depth: self.max_depth,
            max_features: Some(mtry),
            min_samples_leaf: self.min_samples_leaf,
            split_method: self.split_method,
            max_bins: self.max_bins,
            ..DecisionTreeConfig::default()
        };

        let n = y.len();
        let mut rng = SeededRng::new(seed);
        if self.split_method.use_histogram(n) {
            // Bin once; members share the index and differ only in their
            // bootstrap row ids and seeds. Same bootstrap rng stream and
            // seed forking as the exact path below.
            let bins = BinIndex::build(x, self.max_bins);
            let problem = BinnedProblem {
                bins: &bins,
                y,
                weights,
            };
            let jobs: Vec<BinnedTrainJob> = (0..self.n_trees)
                .map(|m| BinnedTrainJob {
                    rows: rng
                        .sample_with_replacement(n, n)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect(),
                    seed: spe_runtime::fork_seed(seed.wrapping_add(101), m as u64),
                })
                .collect();
            let models = fit_on_bins_parallel(&tree_cfg, &problem, jobs);
            return Box::new(SoftVoteEnsemble::new(models));
        }
        let jobs: Vec<TrainJob> = (0..self.n_trees)
            .map(|m| {
                let idx = rng.sample_with_replacement(n, n);
                TrainJob {
                    x: x.select_rows(&idx),
                    y: idx.iter().map(|&i| y[i]).collect(),
                    w: weights.map(|w| idx.iter().map(|&i| w[i]).collect()),
                    seed: spe_runtime::fork_seed(seed.wrapping_add(101), m as u64),
                }
            })
            .collect();
        let models = fit_parallel(&tree_cfg, jobs);
        Box::new(SoftVoteEnsemble::new(models))
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
        "RandForest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::SeededRng;

    /// 2-D two-cluster data with 8 noise features appended — feature
    /// sub-sampling must still find the signal.
    fn noisy_clusters(n_per: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(2 * n_per, 10);
        let mut y = Vec::new();
        for label in [0u8, 1u8] {
            let c = if label == 0 { -2.0 } else { 2.0 };
            for _ in 0..n_per {
                let mut row = vec![rng.normal(c, 1.0), rng.normal(c, 1.0)];
                for _ in 0..8 {
                    row.push(rng.normal(0.0, 1.0));
                }
                x.push_row(&row);
                y.push(label);
            }
        }
        (x, y)
    }

    #[test]
    fn finds_signal_among_noise_features() {
        let (x, y) = noisy_clusters(150, 1);
        let m = RandomForestConfig::new(15).fit(&x, &y, 2);
        let acc =
            m.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn single_class_constant() {
        let x = Matrix::from_vec(3, 2, vec![0.0; 6]);
        let m = RandomForestConfig::default().fit(&x, &[0, 0, 0], 0);
        assert_eq!(m.predict_proba(&x), vec![0.0; 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_clusters(40, 3);
        let a = RandomForestConfig::new(5).fit(&x, &y, 4).predict_proba(&x);
        let b = RandomForestConfig::new(5).fit(&x, &y, 4).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_engine_finds_signal_among_noise_features() {
        let (x, y) = noisy_clusters(150, 1);
        let cfg = RandomForestConfig {
            split_method: crate::tree::SplitMethod::Histogram,
            ..RandomForestConfig::new(15)
        };
        let m = cfg.fit(&x, &y, 2);
        let acc =
            m.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn histogram_engine_deterministic_given_seed() {
        let (x, y) = noisy_clusters(40, 3);
        let cfg = RandomForestConfig {
            split_method: crate::tree::SplitMethod::Histogram,
            ..RandomForestConfig::new(5)
        };
        let a = cfg.fit(&x, &y, 4).predict_proba(&x);
        let b = cfg.fit(&x, &y, 4).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_mtry_respected() {
        let (x, y) = noisy_clusters(40, 5);
        let cfg = RandomForestConfig {
            max_features: Some(1),
            ..RandomForestConfig::new(5)
        };
        // Smoke: trains and predicts with the restricted feature pool.
        let m = cfg.fit(&x, &y, 6);
        assert_eq!(m.predict_proba(&x).len(), 80);
    }
}
