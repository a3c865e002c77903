//! NearMiss under-sampling (Mani & Zhang 2003), versions 1–3.
//!
//! All three variants keep the full minority set and select `|P|`
//! majority samples by distance heuristics against the minority class:
//!
//! - **v1**: smallest mean distance to the k *nearest* minority samples,
//! - **v2**: smallest mean distance to the k *farthest* minority samples,
//! - **v3**: pre-select the m nearest majority neighbors of each minority
//!   sample, then among those keep samples with the *largest* mean
//!   distance to their k nearest minority samples.

use crate::Sampler;
use spe_data::{Dataset, Matrix};
use spe_learners::neighbors::knn_batch;

/// Which NearMiss heuristic to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NearMissVersion {
    /// Closest to nearest minority samples.
    V1,
    /// Closest to farthest minority samples.
    V2,
    /// Two-step pre-selection then farthest retained.
    V3,
}

/// NearMiss under-sampler.
#[derive(Clone, Copy, Debug)]
pub struct NearMiss {
    /// Heuristic version.
    pub version: NearMissVersion,
    /// Number of minority neighbors examined per majority sample.
    pub k: usize,
    /// Version-3 pre-selection width.
    pub m: usize,
}

impl Default for NearMiss {
    fn default() -> Self {
        Self {
            version: NearMissVersion::V1,
            k: 3,
            m: 3,
        }
    }
}

impl NearMiss {
    /// NearMiss of the given version with default neighborhood sizes.
    pub fn version(version: NearMissVersion) -> Self {
        Self {
            version,
            ..Self::default()
        }
    }

    /// Mean distance from each majority row to its k nearest (or
    /// farthest) minority points.
    fn mean_distances(
        majority_x: &Matrix,
        minority_x: &Matrix,
        k: usize,
        farthest: bool,
    ) -> Vec<f64> {
        if farthest {
            // Need all distances to pick the k farthest: query with
            // k = |minority| then take the tail.
            let all = knn_batch(minority_x, majority_x, minority_x.rows(), false);
            all.into_iter()
                .map(|hits| {
                    let tail = &hits[hits.len().saturating_sub(k)..];
                    mean_sqrt(tail.iter().map(|h| h.dist_sq))
                })
                .collect()
        } else {
            let hits = knn_batch(minority_x, majority_x, k, false);
            hits.into_iter()
                .map(|h| mean_sqrt(h.iter().map(|n| n.dist_sq)))
                .collect()
        }
    }
}

fn mean_sqrt(dists: impl Iterator<Item = f64>) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for d in dists {
        total += d.sqrt();
        n += 1;
    }
    if n == 0 {
        f64::INFINITY
    } else {
        total / n as f64
    }
}

impl Sampler for NearMiss {
    fn resample(&self, data: &Dataset, _seed: u64) -> Dataset {
        let idx = data.class_index();
        if idx.minority.is_empty() || idx.majority.len() <= idx.minority.len() {
            return data.clone();
        }
        let minority_x = data.x().select_rows(&idx.minority);
        let majority_x = data.x().select_rows(&idx.majority);
        let target = idx.minority.len();

        // Candidate majority rows (positions within idx.majority).
        let (candidates, scores, keep_largest): (Vec<usize>, Vec<f64>, bool) = match self.version {
            NearMissVersion::V1 => {
                let s = Self::mean_distances(&majority_x, &minority_x, self.k, false);
                ((0..idx.majority.len()).collect(), s, false)
            }
            NearMissVersion::V2 => {
                let s = Self::mean_distances(&majority_x, &minority_x, self.k, true);
                ((0..idx.majority.len()).collect(), s, false)
            }
            NearMissVersion::V3 => {
                // Pre-select: the m nearest majority neighbors of each
                // minority sample.
                let pre = knn_batch(&majority_x, &minority_x, self.m, false);
                let mut cand: Vec<usize> = pre
                    .into_iter()
                    .flat_map(|hits| hits.into_iter().map(|h| h.index))
                    .collect();
                cand.sort_unstable();
                cand.dedup();
                let cand_x = majority_x.select_rows(&cand);
                let s = Self::mean_distances(&cand_x, &minority_x, self.k, false);
                (cand, s, true)
            }
        };

        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            let cmp = scores[a].total_cmp(&scores[b]);
            if keep_largest {
                cmp.reverse()
            } else {
                cmp
            }
        });
        let mut keep: Vec<usize> = order
            .into_iter()
            .take(target)
            .map(|pos| idx.majority[candidates[pos]])
            .collect();
        keep.extend_from_slice(&idx.minority);
        keep.sort_unstable();
        data.select(&keep)
    }

    fn name(&self) -> &'static str {
        "NearMiss"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::SeededRng;

    /// Minority cluster at origin; majority split between a near ring and
    /// a far cluster.
    fn setup() -> Dataset {
        let mut rng = SeededRng::new(1);
        let mut x = Matrix::with_capacity(70, 2);
        let mut y = Vec::new();
        for _ in 0..10 {
            x.push_row(&[rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)]);
        }
        y.resize(y.len() + 10, 1);
        for _ in 0..30 {
            x.push_row(&[rng.normal(2.0, 0.1), rng.normal(0.0, 0.1)]);
        }
        y.resize(y.len() + 30, 0); // near majority
        for _ in 0..30 {
            x.push_row(&[rng.normal(10.0, 0.1), rng.normal(0.0, 0.1)]);
        }
        y.resize(y.len() + 30, 0); // far majority
        Dataset::new(x, y)
    }

    #[test]
    fn v1_selects_near_majority() {
        let d = setup();
        let r = NearMiss::version(NearMissVersion::V1).resample(&d, 0);
        assert_eq!(r.n_positive(), 10);
        assert_eq!(r.n_negative(), 10);
        // All retained majority should come from the near cluster (x≈2).
        for (row, &l) in r.x().iter_rows().zip(r.y()) {
            if l == 0 {
                assert!(row[0] < 5.0, "kept far majority at {}", row[0]);
            }
        }
    }

    #[test]
    fn v2_also_balances() {
        let d = setup();
        let r = NearMiss::version(NearMissVersion::V2).resample(&d, 0);
        assert_eq!(r.n_negative(), 10);
        assert_eq!(r.n_positive(), 10);
        for (row, &l) in r.x().iter_rows().zip(r.y()) {
            if l == 0 {
                assert!(row[0] < 5.0);
            }
        }
    }

    #[test]
    fn v3_balances_or_underfills_from_candidates() {
        let d = setup();
        let r = NearMiss::version(NearMissVersion::V3).resample(&d, 0);
        assert_eq!(r.n_positive(), 10);
        assert!(r.n_negative() <= 10);
        assert!(r.n_negative() > 0);
    }

    #[test]
    fn balanced_input_passthrough() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let d = Dataset::new(x, vec![1, 1, 0, 0]);
        let r = NearMiss::default().resample(&d, 0);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn deterministic() {
        let d = setup();
        let a = NearMiss::default().resample(&d, 0);
        let b = NearMiss::default().resample(&d, 42);
        assert_eq!(a.x().as_slice(), b.x().as_slice());
    }
}
