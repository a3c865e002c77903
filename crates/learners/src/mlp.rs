//! Multi-layer perceptron: one ReLU hidden layer, sigmoid output,
//! weighted binary cross-entropy, Adam optimizer, mini-batch training.
//!
//! Paper hyper-parameter (Table II): 128 hidden units. The paper's
//! batch-training failure mode under imbalance — minority samples appear
//! in only a few batches, so the network collapses to the majority — is
//! reproduced faithfully by this implementation (see the
//! `collapses_on_extreme_imbalance` test), which is exactly the behaviour
//! SPE's balanced subsets fix.

use crate::logistic::sigmoid;
use crate::traits::{
    check_fit_inputs, effective_weights, weighted_positive_fraction, ConstantModel, Learner, Model,
};
use spe_data::{Matrix, MatrixView, SeededRng, Standardizer};

/// MLP hyper-parameters.
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Hidden layer width (paper: 128).
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub l2: f64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: 128,
            learning_rate: 1e-2,
            epochs: 60,
            batch_size: 64,
            l2: 1e-5,
        }
    }
}

impl MlpConfig {
    /// Config with the given hidden width.
    pub fn with_hidden(hidden: usize) -> Self {
        Self {
            hidden,
            ..Self::default()
        }
    }
}

/// Flattened parameters: W1 (h x d), b1 (h), w2 (h), b2 (1).
struct Params {
    w1: Vec<f64>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
    d: usize,
    h: usize,
}

impl Params {
    fn forward(&self, row: &[f64], hidden_buf: &mut Vec<f64>) -> f64 {
        hidden_buf.clear();
        for j in 0..self.h {
            let w = &self.w1[j * self.d..(j + 1) * self.d];
            let mut z = self.b1[j];
            for (&wi, &xi) in w.iter().zip(row) {
                z += wi * xi;
            }
            hidden_buf.push(z.max(0.0));
        }
        let mut out = self.b2;
        for (&w, &hval) in self.w2.iter().zip(hidden_buf.iter()) {
            out += w * hval;
        }
        out
    }
}

struct MlpModel {
    scaler: Standardizer,
    params: Params,
}

impl Model for MlpModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        let mut std_buf = Vec::new();
        let mut hid_buf = Vec::with_capacity(self.params.h);
        x.iter_rows()
            .map(|r| {
                self.scaler.transform_row_into(r, &mut std_buf);
                sigmoid(self.params.forward(&std_buf, &mut hid_buf))
            })
            .collect()
    }
}

/// Adam state for one parameter vector.
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    lr: f64,
}

impl Adam {
    const B1: f64 = 0.9;
    const B2: f64 = 0.999;
    const EPS: f64 = 1e-8;

    fn new(len: usize, lr: f64) -> Self {
        Self {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
            lr,
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        self.t += 1;
        let bc1 = 1.0 - Self::B1.powi(self.t as i32);
        let bc2 = 1.0 - Self::B2.powi(self.t as i32);
        for ((p, &g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            *m = Self::B1 * *m + (1.0 - Self::B1) * g;
            *v = Self::B2 * *v + (1.0 - Self::B2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + Self::EPS);
        }
    }
}

impl Learner for MlpConfig {
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

        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let n = y.len();
        let d = x.cols();
        let h = self.hidden;
        let mut rng = SeededRng::new(seed);

        // He initialization for the ReLU layer.
        let he = (2.0 / d as f64).sqrt();
        let mut params = Params {
            w1: (0..h * d).map(|_| rng.normal(0.0, he)).collect(),
            b1: vec![0.0; h],
            w2: (0..h)
                .map(|_| rng.normal(0.0, (2.0 / h as f64).sqrt()))
                .collect(),
            b2: 0.0,
            d,
            h,
        };
        let w_mean: f64 = w_samp.iter().sum::<f64>() / n as f64;
        let w_norm: Vec<f64> = w_samp.iter().map(|&w| w / w_mean).collect();

        let mut adam_w1 = Adam::new(h * d, self.learning_rate);
        let mut adam_b1 = Adam::new(h, self.learning_rate);
        let mut adam_w2 = Adam::new(h, self.learning_rate);
        let mut adam_b2 = Adam::new(1, self.learning_rate);

        let mut g_w1 = vec![0.0; h * d];
        let mut g_b1 = vec![0.0; h];
        let mut g_w2 = vec![0.0; h];
        let mut g_b2 = [0.0];
        let mut b2_param = [params.b2];
        let mut hidden = Vec::with_capacity(h);
        let mut order: Vec<usize> = (0..n).collect();

        for epoch in 0..self.epochs {
            // Cooperative budget: stop between epochs once the installed
            // wall-clock deadline passes; current weights remain valid.
            if epoch > 0 && spe_runtime::budget_exceeded() {
                break;
            }
            rng.shuffle(&mut order);
            for batch in order.chunks(self.batch_size.max(1)) {
                g_w1.iter_mut().for_each(|g| *g = 0.0);
                g_b1.iter_mut().for_each(|g| *g = 0.0);
                g_w2.iter_mut().for_each(|g| *g = 0.0);
                g_b2[0] = 0.0;
                let mut w_batch = 0.0;

                for &i in batch {
                    let row = xs.row(i);
                    let out = params.forward(row, &mut hidden);
                    // dL/d(out) for weighted BCE with sigmoid output.
                    let delta = (sigmoid(out) - f64::from(y[i])) * w_norm[i];
                    w_batch += w_norm[i];
                    g_b2[0] += delta;
                    for j in 0..h {
                        g_w2[j] += delta * hidden[j];
                        if hidden[j] > 0.0 {
                            let dh = delta * params.w2[j];
                            g_b1[j] += dh;
                            let gw = &mut g_w1[j * d..(j + 1) * d];
                            for (g, &xi) in gw.iter_mut().zip(row) {
                                *g += dh * xi;
                            }
                        }
                    }
                }
                if w_batch == 0.0 {
                    continue;
                }
                let inv = 1.0 / w_batch;
                for (g, &p) in g_w1.iter_mut().zip(&params.w1) {
                    *g = *g * inv + self.l2 * p;
                }
                for g in &mut g_b1 {
                    *g *= inv;
                }
                for (g, &p) in g_w2.iter_mut().zip(&params.w2) {
                    *g = *g * inv + self.l2 * p;
                }
                g_b2[0] *= inv;

                adam_w1.step(&mut params.w1, &g_w1);
                adam_b1.step(&mut params.b1, &g_b1);
                adam_w2.step(&mut params.w2, &g_w2);
                b2_param[0] = params.b2;
                adam_b2.step(&mut b2_param, &g_b2);
                params.b2 = b2_param[0];
            }
        }

        Box::new(MlpModel { scaler, params })
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::SeededRng;

    fn xor_cloud(n_per: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(4 * n_per, 2);
        let mut y = Vec::new();
        for &(cx, cy, l) in &[(0.0, 0.0, 0u8), (1.0, 1.0, 0), (0.0, 1.0, 1), (1.0, 0.0, 1)] {
            for _ in 0..n_per {
                x.push_row(&[rng.normal(cx, 0.1), rng.normal(cy, 0.1)]);
                y.push(l);
            }
        }
        (x, y)
    }

    #[test]
    fn learns_xor_clusters() {
        let (x, y) = xor_cloud(60, 1);
        let cfg = MlpConfig {
            hidden: 16,
            epochs: 80,
            ..MlpConfig::default()
        };
        let m = cfg.fit(&x, &y, 2);
        let acc =
            m.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn collapses_on_extreme_imbalance() {
        // 1000 negatives vs 5 positives, overlapping: plain batch
        // training predicts (almost) everything negative — the failure
        // mode the paper describes for batch learners (§III).
        let mut rng = SeededRng::new(3);
        let mut x = Matrix::with_capacity(1005, 2);
        let mut y = Vec::new();
        for _ in 0..1000 {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + 1000, 0);
        for _ in 0..5 {
            x.push_row(&[rng.normal(0.8, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + 5, 1);
        let cfg = MlpConfig {
            hidden: 16,
            epochs: 40,
            ..MlpConfig::default()
        };
        let m = cfg.fit(&x, &y, 4);
        let pos_preds: usize = m.predict(&x).iter().map(|&p| p as usize).sum();
        assert!(pos_preds <= 10, "predicted {pos_preds} positives");
    }

    #[test]
    fn single_class_constant() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let m = MlpConfig::with_hidden(4).fit(&x, &[1, 1, 1, 1], 0);
        assert_eq!(m.predict_proba(&x), vec![1.0; 4]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_cloud(20, 5);
        let cfg = MlpConfig {
            hidden: 8,
            epochs: 5,
            ..MlpConfig::default()
        };
        let a = cfg.fit(&x, &y, 6).predict_proba(&x);
        let b = cfg.fit(&x, &y, 6).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn outputs_are_probabilities() {
        let (x, y) = xor_cloud(20, 7);
        let m = MlpConfig::with_hidden(8).fit(&x, &y, 8);
        for p in m.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p), "{p}");
        }
    }
}
