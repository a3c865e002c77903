//! Support vector machine: Pegasos SGD on the hinge loss, optionally in
//! a random-Fourier-feature (RFF) space approximating the RBF kernel.
//!
//! The paper uses scikit-learn's kernel `SVC(C=1000)`; exact kernel SVM
//! training is O(n²)–O(n³), so this workspace substitutes the standard
//! scalable approximation: map inputs through D random Fourier features
//! (`z(x) = √(2/D) · cos(Ωx + b)` with `Ω ~ N(0, 2γ·I)`), then train a
//! linear SVM with Pegasos. Probabilities come from a Platt-style
//! 1-D logistic fit on the training margins (see `DESIGN.md`).

use crate::logistic::sigmoid;
use crate::persist::ModelSnapshot;
use crate::traits::{
    check_fit_inputs, effective_weights, weighted_positive_fraction, ConstantModel, FeatureBound,
    Learner, Model,
};
use spe_data::{Matrix, MatrixView, SeededRng, Standardizer};

/// SVM hyper-parameters.
#[derive(Clone, Debug)]
pub struct SvmConfig {
    /// Soft-margin constant; Pegasos regularization is `λ = 1/(C·n)`.
    pub c: f64,
    /// RBF kernel width; `None` trains a plain linear SVM.
    pub gamma: Option<f64>,
    /// Number of random Fourier features when `gamma` is set.
    pub rff_dim: usize,
    /// Number of Pegasos epochs.
    pub epochs: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            c: 1000.0,
            gamma: Some(1.0),
            rff_dim: 128,
            epochs: 20,
        }
    }
}

impl SvmConfig {
    /// Linear SVM with the given `C`.
    pub fn linear(c: f64) -> Self {
        Self {
            c,
            gamma: None,
            ..Self::default()
        }
    }

    /// RBF-approximating SVM (paper setting: `C = 1000`).
    pub fn rbf(c: f64, gamma: f64) -> Self {
        Self {
            c,
            gamma: Some(gamma),
            ..Self::default()
        }
    }
}

/// Random Fourier feature map (fixed once sampled).
#[derive(Clone)]
struct RffMap {
    /// `rff_dim x d` projection matrix, row-major.
    omega: Vec<f64>,
    offsets: Vec<f64>,
    dim_in: usize,
    scale: f64,
}

impl RffMap {
    fn sample(dim_in: usize, dim_out: usize, gamma: f64, rng: &mut SeededRng) -> Self {
        let std = (2.0 * gamma).sqrt();
        let omega = (0..dim_in * dim_out)
            .map(|_| rng.normal(0.0, std))
            .collect();
        let offsets = (0..dim_out)
            .map(|_| rng.range(0.0, 2.0 * std::f64::consts::PI))
            .collect();
        Self {
            omega,
            offsets,
            dim_in,
            scale: (2.0 / dim_out as f64).sqrt(),
        }
    }

    fn transform_row_into(&self, row: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(row.len(), self.dim_in);
        out.clear();
        let d_out = self.offsets.len();
        for j in 0..d_out {
            let w = &self.omega[j * self.dim_in..(j + 1) * self.dim_in];
            let mut z = self.offsets[j];
            for (&wi, &xi) in w.iter().zip(row) {
                z += wi * xi;
            }
            out.push(self.scale * z.cos());
        }
    }
}

serde::impl_serde!(RffMap {
    omega,
    offsets,
    dim_in,
    scale
});

/// A trained (approximate-RBF) SVM: standardizer, optional RFF map,
/// linear weights and Platt calibration. Public so persisted models can
/// name the type; all state stays private.
#[derive(Clone)]
pub struct SvmModel {
    scaler: Standardizer,
    rff: Option<RffMap>,
    weights: Vec<f64>,
    bias: f64,
    /// Platt calibration: P = sigmoid(a·margin + b).
    platt_a: f64,
    platt_b: f64,
}

serde::impl_serde!(SvmModel {
    scaler,
    rff,
    weights,
    bias,
    platt_a,
    platt_b
});

impl SvmModel {
    fn margin(&self, row: &[f64], std_buf: &mut Vec<f64>, rff_buf: &mut Vec<f64>) -> f64 {
        self.scaler.transform_row_into(row, std_buf);
        let feat: &[f64] = match &self.rff {
            Some(map) => {
                map.transform_row_into(std_buf, rff_buf);
                rff_buf
            }
            None => std_buf,
        };
        let mut z = self.bias;
        for (&w, &v) in self.weights.iter().zip(feat) {
            z += w * v;
        }
        z
    }
}

impl Model for SvmModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        let mut std_buf = Vec::new();
        let mut rff_buf = Vec::new();
        x.iter_rows()
            .map(|r| {
                let m = self.margin(r, &mut std_buf, &mut rff_buf);
                sigmoid(self.platt_a * m + self.platt_b)
            })
            .collect()
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(ModelSnapshot::Svm(self.clone()))
    }

    fn feature_bound(&self) -> FeatureBound {
        // The standardizer was fitted on the training matrix, so its
        // per-column statistics pin the exact input width (the RFF map,
        // when present, projects from that same width).
        FeatureBound::Exact(self.scaler.means().len())
    }
}

impl Learner for SvmConfig {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        check_fit_inputs(x, y, weights);
        let w_samp = effective_weights(y.len(), weights);
        let prior = weighted_positive_fraction(y, &w_samp);
        if prior == 0.0 || prior == 1.0 {
            return Box::new(ConstantModel(prior));
        }

        let mut rng = SeededRng::new(seed);
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let n = y.len();

        // Optional RFF expansion, materialized once for training.
        let rff = self
            .gamma
            .map(|g| RffMap::sample(x.cols(), self.rff_dim, g, &mut rng));
        let feats: Matrix = match &rff {
            Some(map) => {
                let mut out = Matrix::with_capacity(n, self.rff_dim);
                let mut buf = Vec::with_capacity(self.rff_dim);
                for r in xs.iter_rows() {
                    map.transform_row_into(r, &mut buf);
                    out.push_row(&buf);
                }
                out
            }
            None => xs,
        };
        let d = feats.cols();

        // Pegasos: λ = 1/(C·n); weighted sampling keeps the expected
        // objective equal to the weighted hinge loss.
        let lambda = 1.0 / (self.c * n as f64);
        let mut w = vec![0.0; d];
        let mut bias = 0.0;
        let total_steps = self.epochs * n;
        let w_sum: f64 = w_samp.iter().sum();
        let cdf: Vec<f64> = w_samp
            .iter()
            .scan(0.0, |acc, &wi| {
                *acc += wi;
                Some(*acc)
            })
            .collect();
        for t in 1..=total_steps {
            // Weighted draw of a training example.
            let target = rng.uniform() * w_sum;
            let i = cdf.partition_point(|&c| c < target).min(n - 1);
            let eta = 1.0 / (lambda * t as f64);
            let row = feats.row(i);
            let yi = if y[i] != 0 { 1.0 } else { -1.0 };
            let mut z = bias;
            for (&wi, &v) in w.iter().zip(row) {
                z += wi * v;
            }
            let decay = 1.0 - eta * lambda;
            for wj in &mut w {
                *wj *= decay;
            }
            if yi * z < 1.0 {
                for (wj, &v) in w.iter_mut().zip(row) {
                    *wj += eta * yi * v;
                }
                bias += eta * yi * 0.1; // small unregularized bias step
            }
            // Pegasos projection onto the ball of radius 1/√λ keeps the
            // enormous early learning rates (η = 1/(λt) with tiny λ at
            // large C) from destabilizing the iterate.
            let norm_sq: f64 = w.iter().map(|v| v * v).sum();
            let radius = 1.0 / lambda.sqrt();
            if norm_sq > radius * radius {
                let scale = radius / norm_sq.sqrt();
                for wj in &mut w {
                    *wj *= scale;
                }
                bias *= scale;
            }
        }

        // Platt-style calibration on the training margins.
        let margins: Vec<f64> = feats
            .iter_rows()
            .map(|r| {
                let mut z = bias;
                for (&wi, &v) in w.iter().zip(r) {
                    z += wi * v;
                }
                z
            })
            .collect();
        let (platt_a, platt_b) = fit_platt(&margins, y, &w_samp);

        Box::new(SvmModel {
            scaler,
            rff,
            weights: w,
            bias,
            platt_a,
            platt_b,
        })
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

/// Fits `P(y=1|m) = sigmoid(a·m + b)` by weighted gradient descent.
fn fit_platt(margins: &[f64], y: &[u8], w: &[f64]) -> (f64, f64) {
    let mut a = 1.0;
    let mut b = 0.0;
    let w_total: f64 = w.iter().sum();
    for _ in 0..200 {
        let mut ga = 0.0;
        let mut gb = 0.0;
        for ((&m, &t), &wi) in margins.iter().zip(y).zip(w) {
            let err = (sigmoid(a * m + b) - f64::from(t)) * wi;
            ga += err * m;
            gb += err;
        }
        a -= 0.5 * ga / w_total;
        b -= 0.5 * gb / w_total;
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::SeededRng;

    fn blobs(n_per: usize, sep: f64, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(2 * n_per, 2);
        let mut y = Vec::new();
        for label in [0u8, 1u8] {
            let cx = if label == 0 { -sep } else { sep };
            for _ in 0..n_per {
                x.push_row(&[rng.normal(cx, 1.0), rng.normal(0.0, 1.0)]);
                y.push(label);
            }
        }
        (x, y)
    }

    fn circles(n_per: usize, seed: u64) -> (Matrix, Vec<u8>) {
        // Positives inside a ring of negatives — not linearly separable.
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(2 * n_per, 2);
        let mut y = Vec::new();
        for _ in 0..n_per {
            let a = rng.range(0.0, std::f64::consts::TAU);
            let r = rng.range(0.0, 0.8);
            x.push_row(&[r * a.cos(), r * a.sin()]);
        }
        y.resize(y.len() + n_per, 1);
        for _ in 0..n_per {
            let a = rng.range(0.0, std::f64::consts::TAU);
            let r = rng.range(2.0, 2.8);
            x.push_row(&[r * a.cos(), r * a.sin()]);
        }
        y.resize(y.len() + n_per, 0);
        (x, y)
    }

    fn accuracy(m: &dyn Model, x: &Matrix, y: &[u8]) -> f64 {
        m.predict(x).iter().zip(y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64
    }

    #[test]
    fn linear_svm_separates_blobs() {
        let (x, y) = blobs(150, 3.0, 1);
        let m = SvmConfig::linear(10.0).fit(&x, &y, 2);
        assert!(accuracy(m.as_ref(), &x, &y) > 0.95);
    }

    #[test]
    fn rbf_svm_solves_circles_where_linear_fails() {
        let (x, y) = circles(150, 3);
        let linear = SvmConfig::linear(10.0).fit(&x, &y, 4);
        let rbf = SvmConfig::rbf(10.0, 1.0).fit(&x, &y, 4);
        let acc_lin = accuracy(linear.as_ref(), &x, &y);
        let acc_rbf = accuracy(rbf.as_ref(), &x, &y);
        assert!(acc_rbf > 0.9, "rbf accuracy {acc_rbf}");
        assert!(acc_rbf > acc_lin + 0.2, "lin {acc_lin} rbf {acc_rbf}");
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = blobs(100, 1.0, 5);
        let m = SvmConfig::default().fit(&x, &y, 6);
        for p in m.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn single_class_constant() {
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let m = SvmConfig::default().fit(&x, &[0, 0, 0], 0);
        assert_eq!(m.predict_proba(&x), vec![0.0; 3]);
    }

    #[test]
    fn platt_fit_orients_probabilities() {
        // Margins perfectly ordered: calibration must be increasing.
        let margins = vec![-2.0, -1.0, 1.0, 2.0];
        let y = [0, 0, 1, 1];
        let w = [1.0; 4];
        let (a, b) = fit_platt(&margins, &y, &w);
        assert!(a > 0.0);
        assert!(sigmoid(a * 2.0 + b) > 0.5);
        assert!(sigmoid(a * -2.0 + b) < 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(60, 1.5, 7);
        let a = SvmConfig::default().fit(&x, &y, 8).predict_proba(&x);
        let b = SvmConfig::default().fit(&x, &y, 8).predict_proba(&x);
        assert_eq!(a, b);
    }
}
