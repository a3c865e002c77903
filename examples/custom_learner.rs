//! Plugging a custom classifier into SPE.
//!
//! The paper stresses that SPE "can be easily adapted to most existing
//! learning methods". This example implements a from-scratch Gaussian
//! Naive Bayes classifier, wires it into the `Learner`/`Model` traits,
//! and lets SPE boost it — no changes to the framework needed.
//! The library ships no Naive Bayes of its own: the point here is
//! showing how little code a new `Learner` takes.
//!
//! ```sh
//! cargo run --release --example custom_learner
//! ```

use spe::prelude::*;
use std::sync::Arc;

/// Gaussian Naive Bayes: per-class, per-feature normal likelihoods with
/// weighted moment estimates.
#[derive(Clone, Debug, Default)]
struct GaussianNb;

struct NbModel {
    /// Per class: (log prior, per-feature mean, per-feature variance).
    classes: [(f64, Vec<f64>, Vec<f64>); 2],
}

impl Model for NbModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        x.iter_rows()
            .map(|row| {
                let ll: Vec<f64> = self
                    .classes
                    .iter()
                    .map(|(prior, mean, var)| {
                        let mut l = *prior;
                        for ((&v, &m), &s2) in row.iter().zip(mean).zip(var) {
                            let d = v - m;
                            l += -0.5 * (d * d / s2 + s2.ln());
                        }
                        l
                    })
                    .collect();
                // P(y=1 | x) via the log-sum-exp of the two class scores.
                let m = ll[0].max(ll[1]);
                let e0 = (ll[0] - m).exp();
                let e1 = (ll[1] - m).exp();
                e1 / (e0 + e1)
            })
            .collect()
    }
}

impl Learner for GaussianNb {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        _seed: u64,
    ) -> Box<dyn Model> {
        let d = x.cols();
        let mut classes = [
            (0.0, vec![0.0; d], vec![0.0; d]),
            (0.0, vec![0.0; d], vec![0.0; d]),
        ];
        let mut totals = [0.0, 0.0];
        for (i, row) in x.iter_rows().enumerate() {
            let w = weights.map_or(1.0, |w| w[i]);
            let c = usize::from(y[i] != 0);
            totals[c] += w;
            for (m, &v) in classes[c].1.iter_mut().zip(row) {
                *m += w * v;
            }
        }
        for c in 0..2 {
            for m in &mut classes[c].1 {
                *m /= totals[c].max(1e-12);
            }
        }
        for (i, row) in x.iter_rows().enumerate() {
            let w = weights.map_or(1.0, |w| w[i]);
            let c = usize::from(y[i] != 0);
            for ((s2, &m), &v) in classes[c].2.iter_mut().zip(&classes[c].1).zip(row) {
                let dv = v - m;
                *s2 += w * dv * dv;
            }
        }
        let grand_total = totals[0] + totals[1];
        for c in 0..2 {
            classes[c].0 = (totals[c].max(1e-12) / grand_total).ln();
            for s2 in &mut classes[c].2 {
                *s2 = (*s2 / totals[c].max(1e-12)).max(1e-6);
            }
        }
        Box::new(NbModel { classes })
    }

    fn name(&self) -> &'static str {
        "GaussianNB"
    }
}

fn main() {
    let data = credit_fraud_sim(40_000, 11);
    println!(
        "credit-fraud sim: {} rows, IR = {:.0}:1",
        data.len(),
        data.imbalance_ratio()
    );
    let split = train_val_test_split(&data, 0.6, 0.2, 11);

    // Naive Bayes straight on the imbalanced data.
    let solo = GaussianNb.fit(split.train.x(), split.train.y(), 0);
    let auc_solo = aucprc(split.test.y(), &solo.predict_proba(split.test.x()));

    // The same classifier inside SPE: each member sees a different
    // self-paced majority subset and the soft vote sharpens the ranking.
    let spe = SelfPacedEnsembleConfig::builder()
        .n_estimators(10)
        .base(Arc::new(GaussianNb))
        .build()
        .expect("valid config")
        .fit_dataset(&split.train, 0);
    let auc_spe = aucprc(split.test.y(), &spe.predict_proba(split.test.x()));

    println!("GaussianNB alone : AUCPRC = {auc_solo:.3}");
    println!("SPE(GaussianNB)  : AUCPRC = {auc_spe:.3}");
    println!("\nAny type implementing `Learner` plugs into SPE without");
    println!("touching the framework.");
}
