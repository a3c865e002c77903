//! Boosting-based imbalance ensembles: RUSBoost and SMOTEBoost.
//!
//! Both keep the AdaBoost weight-update loop over the *original* training
//! set but change what each weak learner sees:
//!
//! - **RUSBoost** (Seiffert et al. 2010): each round randomly removes
//!   majority samples until the round's training set is balanced; weak
//!   learners receive the surviving samples with their boosting weights.
//! - **SMOTEBoost** (Chawla et al. 2003): each round adds `|P|` synthetic
//!   minority samples (SMOTE) to the weighted training set; synthetics
//!   exist only for that round and never receive boosting weight updates.

use spe_data::{Matrix, MatrixView, SeededRng};
use spe_learners::traits::{check_fit_inputs, ConstantModel, Learner, Model, SharedLearner};
use spe_learners::DecisionTreeConfig;
use spe_sampling::generate_synthetics;
use std::sync::Arc;

/// Shared AdaBoost driver: each round asks `make_round` for the training
/// view (possibly resampled / augmented), then updates weights on the
/// original samples.
fn boost<F>(
    base: &dyn Learner,
    n_rounds: usize,
    x: &Matrix,
    y: &[u8],
    seed: u64,
    mut make_round: F,
) -> Box<dyn Model>
where
    F: FnMut(&[f64], u64, &mut SeededRng) -> (Matrix, Vec<u8>, Vec<f64>),
{
    let n = y.len();
    let mut w = vec![1.0 / n as f64; n];
    let mut rng = SeededRng::new(seed);
    let mut members: Vec<(f64, Box<dyn Model>)> = Vec::new();

    for round in 0..n_rounds {
        let (rx, ry, rw) = make_round(&w, seed.wrapping_add(round as u64), &mut rng);
        let model = base.fit_weighted(&rx, &ry, Some(&rw), seed.wrapping_add(round as u64));
        let preds = model.predict(x);
        let err: f64 = preds
            .iter()
            .zip(y)
            .zip(&w)
            .filter(|((p, t), _)| p != t)
            .map(|(_, &wi)| wi)
            .sum();
        if err >= 0.5 {
            if members.is_empty() {
                members.push((1.0, model));
            }
            break;
        }
        if err <= 1e-12 {
            members.push((10.0, model));
            break;
        }
        let alpha = 0.5 * ((1.0 - err) / err).ln();
        for ((&p, &t), wi) in preds.iter().zip(y).zip(w.iter_mut()) {
            *wi *= if p == t { (-alpha).exp() } else { alpha.exp() };
        }
        let total: f64 = w.iter().sum();
        for wi in &mut w {
            *wi /= total;
        }
        members.push((alpha, model));
    }

    let alpha_total: f64 = members.iter().map(|(a, _)| a).sum();
    Box::new(BoostedModel {
        members,
        alpha_total: alpha_total.max(1e-12),
    })
}

struct BoostedModel {
    members: Vec<(f64, Box<dyn Model>)>,
    alpha_total: f64,
}

impl Model for BoostedModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        let mut acc = vec![0.0; x.rows()];
        for (alpha, m) in &self.members {
            for (a, p) in acc.iter_mut().zip(m.predict_proba_view(x)) {
                *a += alpha * (2.0 * p - 1.0);
            }
        }
        acc.into_iter()
            .map(|m| ((m / self.alpha_total) + 1.0) / 2.0)
            .collect()
    }
}

/// RUSBoost configuration.
#[derive(Clone)]
pub struct RusBoost {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Weak learner (paper comparison: C4.5-style tree).
    pub base: SharedLearner,
}

impl std::fmt::Debug for RusBoost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RusBoost")
            .field("n_rounds", &self.n_rounds)
            .field("base", &self.base.name())
            .finish()
    }
}

impl RusBoost {
    /// RUSBoost with C4.5-style trees.
    pub fn new(n_rounds: usize) -> Self {
        Self {
            n_rounds,
            base: Arc::new(DecisionTreeConfig::c45(10)),
        }
    }

    /// Total training samples consumed (`2·|P|` per round).
    pub fn samples_per_fit(&self, n_pos: usize, _n_neg: usize) -> usize {
        2 * n_pos * self.n_rounds
    }
}

impl Learner for RusBoost {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        debug_assert!(weights.is_none(), "RusBoost manages its own weights");
        check_fit_inputs(x, y, None);
        let n_pos_total = y.iter().filter(|&&l| l != 0).count();
        if n_pos_total == 0 || n_pos_total == y.len() {
            return Box::new(ConstantModel(if n_pos_total == 0 { 0.0 } else { 1.0 }));
        }
        let pos_idx: Vec<usize> = (0..y.len()).filter(|&i| y[i] != 0).collect();
        let neg_idx: Vec<usize> = (0..y.len()).filter(|&i| y[i] == 0).collect();
        boost(
            self.base.as_ref(),
            self.n_rounds,
            x,
            y,
            seed,
            |w, _round_seed, rng| {
                // Random under-sampling of the majority for this round.
                let keep_neg = rng.sample_from(&neg_idx, pos_idx.len().max(1));
                let mut keep = pos_idx.clone();
                keep.extend(keep_neg);
                rng.shuffle(&mut keep);
                let rx = x.select_rows(&keep);
                let ry: Vec<u8> = keep.iter().map(|&i| y[i]).collect();
                let rw: Vec<f64> = keep.iter().map(|&i| w[i]).collect();
                (rx, ry, rw)
            },
        )
    }

    fn name(&self) -> &'static str {
        "RUSBoost"
    }

    fn base(&self) -> Option<&dyn Learner> {
        Some(self.base.as_ref())
    }
}

/// SMOTEBoost configuration.
#[derive(Clone)]
pub struct SmoteBoost {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Weak learner (paper comparison: C4.5-style tree).
    pub base: SharedLearner,
    /// SMOTE neighborhood size.
    pub k: usize,
}

impl std::fmt::Debug for SmoteBoost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmoteBoost")
            .field("n_rounds", &self.n_rounds)
            .field("base", &self.base.name())
            .finish()
    }
}

impl SmoteBoost {
    /// SMOTEBoost with C4.5-style trees.
    pub fn new(n_rounds: usize) -> Self {
        Self {
            n_rounds,
            base: Arc::new(DecisionTreeConfig::c45(10)),
            k: 5,
        }
    }

    /// Total training samples consumed: the full set plus `|P|`
    /// synthetics per round (matches Table VI's accounting).
    pub fn samples_per_fit(&self, n_pos: usize, n_neg: usize) -> usize {
        (n_pos + n_neg + n_pos) * self.n_rounds
    }
}

impl Learner for SmoteBoost {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        debug_assert!(weights.is_none(), "SmoteBoost manages its own weights");
        check_fit_inputs(x, y, None);
        let n_pos_total = y.iter().filter(|&&l| l != 0).count();
        if n_pos_total == 0 || n_pos_total == y.len() {
            return Box::new(ConstantModel(if n_pos_total == 0 { 0.0 } else { 1.0 }));
        }
        let pos_idx: Vec<usize> = (0..y.len()).filter(|&i| y[i] != 0).collect();
        let pos_x = x.select_rows(&pos_idx);
        let k = self.k;
        let n = y.len();
        boost(
            self.base.as_ref(),
            self.n_rounds,
            x,
            y,
            seed,
            |w, round_seed, _rng| {
                // |P| fresh synthetics per round.
                let doubled = generate_synthetics(&pos_x, k, pos_idx.len(), round_seed);
                let rx = x.vstack(&doubled);
                let mut ry = y.to_vec();
                ry.extend(std::iter::repeat_n(1u8, doubled.rows()));
                let mut rw = w.to_vec();
                // Synthetics receive the average minority weight so they
                // influence the fit but not the boosting bookkeeping.
                let avg_pos_w: f64 =
                    pos_idx.iter().map(|&i| w[i]).sum::<f64>() / pos_idx.len() as f64;
                rw.extend(std::iter::repeat_n(
                    avg_pos_w.max(1.0 / n as f64),
                    doubled.rows(),
                ));
                (rx, ry, rw)
            },
        )
    }

    fn name(&self) -> &'static str {
        "SMOTEBoost"
    }

    fn base(&self) -> Option<&dyn Learner> {
        Some(self.base.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::Dataset;
    use spe_metrics::aucprc;

    fn imbalanced_overlap(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(n_pos + n_neg, 2);
        let mut y = Vec::new();
        for _ in 0..n_neg {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + n_neg, 0);
        for _ in 0..n_pos {
            x.push_row(&[rng.normal(1.5, 1.0), rng.normal(1.5, 1.0)]);
        }
        y.resize(y.len() + n_pos, 1);
        Dataset::new(x, y)
    }

    #[test]
    fn rusboost_learns_minority() {
        let train = imbalanced_overlap(30, 600, 1);
        let test = imbalanced_overlap(30, 600, 2);
        let m = RusBoost::new(10).fit(train.x(), train.y(), 3);
        let auc = aucprc(test.y(), &m.predict_proba(test.x()));
        assert!(auc > 0.25, "AUCPRC {auc}");
    }

    #[test]
    fn smoteboost_learns_minority() {
        let train = imbalanced_overlap(30, 600, 4);
        let test = imbalanced_overlap(30, 600, 5);
        let m = SmoteBoost::new(10).fit(train.x(), train.y(), 6);
        let auc = aucprc(test.y(), &m.predict_proba(test.x()));
        assert!(auc > 0.25, "AUCPRC {auc}");
    }

    #[test]
    fn generate_synthetics_produces_requested_count() {
        let d = imbalanced_overlap(20, 0, 7);
        let pos: Vec<usize> = (0..20).collect();
        let synth = generate_synthetics(&d.x().select_rows(&pos), 5, 15, 8);
        assert_eq!(synth.rows(), 15);
        for r in synth.iter_rows() {
            assert!(r.iter().all(|&v| v.abs() < 1e3));
        }
    }

    #[test]
    fn sample_accounting_matches_paper() {
        // Table VI, Credit Fraud: |P| = 316, train ≈ 170,885 samples.
        let sb = SmoteBoost::new(10);
        let total = sb.samples_per_fit(316, 170_885 - 316);
        assert_eq!(total, (170_885 + 316) * 10);
        let rb = RusBoost::new(10);
        assert_eq!(rb.samples_per_fit(316, 170_569), 6320);
    }

    #[test]
    fn single_class_degenerates() {
        let x = Matrix::zeros(4, 1);
        assert_eq!(
            RusBoost::new(3).fit(&x, &[0; 4], 0).predict_proba(&x),
            vec![0.0; 4]
        );
        assert_eq!(
            SmoteBoost::new(3).fit(&x, &[1; 4], 0).predict_proba(&x),
            vec![1.0; 4]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = imbalanced_overlap(15, 150, 9);
        let a = RusBoost::new(4).fit(d.x(), d.y(), 10).predict_proba(d.x());
        let b = RusBoost::new(4).fit(d.x(), d.y(), 10).predict_proba(d.x());
        assert_eq!(a, b);
    }
}
