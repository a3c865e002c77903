//! Synthetic over-sampling: SMOTE, Borderline-SMOTE, ADASYN and the
//! hybrid SMOTE+cleaning combinations (SMOTEENN, SMOTETomek).
//!
//! Synthetic minority samples are linear interpolations between a seed
//! minority sample and one of its k nearest minority neighbors:
//! `x_new = x_i + u · (x_nn − x_i)`, `u ~ U[0, 1)`.

use crate::cleaning::{EditedNearestNeighbours, TomekLinks};
use crate::Sampler;
use spe_data::{Dataset, Matrix, SeededRng};
use spe_learners::neighbors::knn_batch;

/// Appends `count` synthetic samples interpolated from `seeds` (indices
/// into `minority_x`) toward their minority neighbors.
fn synthesize(
    minority_x: &Matrix,
    neighbor_lists: &[Vec<usize>],
    seeds: &[usize],
    count: usize,
    rng: &mut SeededRng,
    out: &mut Matrix,
) {
    if seeds.is_empty() || count == 0 {
        return;
    }
    let d = minority_x.cols();
    let mut row = vec![0.0; d];
    for _ in 0..count {
        let s = seeds[rng.below(seeds.len())];
        let neighbors = &neighbor_lists[s];
        if neighbors.is_empty() {
            // Isolated minority point: duplicate it.
            out.push_row(minority_x.row(s));
            continue;
        }
        let nb = neighbors[rng.below(neighbors.len())];
        let u = rng.uniform();
        let a = minority_x.row(s);
        let b = minority_x.row(nb);
        for ((r, &ai), &bi) in row.iter_mut().zip(a).zip(b) {
            *r = ai + u * (bi - ai);
        }
        out.push_row(&row);
    }
}

/// Builds the output dataset: original data plus `synthetic` positives.
fn with_synthetics(data: &Dataset, synthetic: Matrix) -> Dataset {
    let n_new = synthetic.rows();
    let x = data.x().vstack(&synthetic);
    let mut y = data.y().to_vec();
    y.extend(std::iter::repeat_n(1u8, n_new));
    Dataset::new(x, y)
}

/// Minority-to-minority neighbor lists (k nearest, leave-one-out).
fn minority_neighbors(minority_x: &Matrix, k: usize) -> Vec<Vec<usize>> {
    knn_batch(minority_x, minority_x, k, true)
        .into_iter()
        .map(|hits| hits.into_iter().map(|h| h.index).collect())
        .collect()
}

/// Generates `count` synthetic samples from a minority-only feature
/// matrix by SMOTE interpolation (public so boosting ensembles can
/// inject per-round synthetics without rebuilding a full dataset).
pub fn generate_synthetics(minority_x: &Matrix, k: usize, count: usize, seed: u64) -> Matrix {
    let mut out = Matrix::with_capacity(count, minority_x.cols());
    if minority_x.is_empty() || count == 0 {
        return out;
    }
    let neighbors = minority_neighbors(minority_x, k);
    let seeds: Vec<usize> = (0..minority_x.rows()).collect();
    let mut rng = SeededRng::new(seed);
    synthesize(minority_x, &neighbors, &seeds, count, &mut rng, &mut out);
    out
}

/// SMOTE (Chawla et al. 2002).
#[derive(Clone, Copy, Debug)]
pub struct Smote {
    /// Neighbors per seed (default 5).
    pub k: usize,
    /// Minority-to-majority ratio after sampling (1.0 = balanced).
    pub ratio: f64,
}

impl Default for Smote {
    fn default() -> Self {
        Self { k: 5, ratio: 1.0 }
    }
}

impl Sampler for Smote {
    fn resample(&self, data: &Dataset, seed: u64) -> Dataset {
        let idx = data.class_index();
        let target = ((idx.majority.len() as f64) * self.ratio).round() as usize;
        if idx.minority.is_empty() || idx.majority.is_empty() || target <= idx.minority.len() {
            return data.clone();
        }
        let minority_x = data.x().select_rows(&idx.minority);
        let neighbors = minority_neighbors(&minority_x, self.k);
        let seeds: Vec<usize> = (0..idx.minority.len()).collect();
        let mut rng = SeededRng::new(seed);
        let mut synthetic = Matrix::with_capacity(target - idx.minority.len(), data.n_features());
        synthesize(
            &minority_x,
            &neighbors,
            &seeds,
            target - idx.minority.len(),
            &mut rng,
            &mut synthetic,
        );
        with_synthetics(data, synthetic)
    }

    fn name(&self) -> &'static str {
        "SMOTE"
    }
}

/// Borderline-SMOTE, variant 1 (Han et al. 2005): only minority samples
/// in "danger" (at least half majority neighbors, but not all) seed the
/// interpolation.
#[derive(Clone, Copy, Debug)]
pub struct BorderlineSmote {
    /// Neighbors used both for danger detection and interpolation.
    pub k: usize,
    /// Target minority-to-majority ratio.
    pub ratio: f64,
}

impl Default for BorderlineSmote {
    fn default() -> Self {
        Self { k: 5, ratio: 1.0 }
    }
}

impl Sampler for BorderlineSmote {
    fn resample(&self, data: &Dataset, seed: u64) -> Dataset {
        let idx = data.class_index();
        let target = ((idx.majority.len() as f64) * self.ratio).round() as usize;
        if idx.minority.is_empty() || idx.majority.is_empty() || target <= idx.minority.len() {
            return data.clone();
        }
        // Danger detection against the full dataset.
        let minority_x = data.x().select_rows(&idx.minority);
        let y = data.y();
        let hits = knn_batch(data.x(), &minority_x, self.k, false);
        let seeds: Vec<usize> = hits
            .iter()
            .enumerate()
            .filter(|(_, neigh)| {
                let maj = neigh.iter().filter(|h| y[h.index] == 0).count();
                maj * 2 >= neigh.len() && maj < neigh.len()
            })
            .map(|(s, _)| s)
            .collect();
        if seeds.is_empty() {
            // No borderline region: fall back to plain SMOTE semantics.
            return Smote {
                k: self.k,
                ratio: self.ratio,
            }
            .resample(data, seed);
        }
        let neighbors = minority_neighbors(&minority_x, self.k);
        let mut rng = SeededRng::new(seed);
        let mut synthetic = Matrix::with_capacity(target - idx.minority.len(), data.n_features());
        synthesize(
            &minority_x,
            &neighbors,
            &seeds,
            target - idx.minority.len(),
            &mut rng,
            &mut synthetic,
        );
        with_synthetics(data, synthetic)
    }

    fn name(&self) -> &'static str {
        "BorderSMOTE"
    }
}

/// ADASYN (He et al. 2008): synthetic counts per minority seed are
/// proportional to the fraction of majority samples in its neighborhood.
#[derive(Clone, Copy, Debug)]
pub struct Adasyn {
    /// Neighborhood size (default 5).
    pub k: usize,
    /// Target minority-to-majority ratio.
    pub ratio: f64,
}

impl Default for Adasyn {
    fn default() -> Self {
        Self { k: 5, ratio: 1.0 }
    }
}

impl Sampler for Adasyn {
    fn resample(&self, data: &Dataset, seed: u64) -> Dataset {
        let idx = data.class_index();
        let target = ((idx.majority.len() as f64) * self.ratio).round() as usize;
        if idx.minority.is_empty() || idx.majority.is_empty() || target <= idx.minority.len() {
            return data.clone();
        }
        let total_new = target - idx.minority.len();
        let minority_x = data.x().select_rows(&idx.minority);
        let y = data.y();
        let hits = knn_batch(data.x(), &minority_x, self.k, false);
        let r: Vec<f64> = hits
            .iter()
            .map(|neigh| {
                if neigh.is_empty() {
                    0.0
                } else {
                    neigh.iter().filter(|h| y[h.index] == 0).count() as f64 / neigh.len() as f64
                }
            })
            .collect();
        let r_sum: f64 = r.iter().sum();
        let neighbors = minority_neighbors(&minority_x, self.k);
        let mut rng = SeededRng::new(seed);
        let mut synthetic = Matrix::with_capacity(total_new, data.n_features());
        if r_sum <= 0.0 {
            // No majority contamination anywhere: uniform seeding.
            let seeds: Vec<usize> = (0..idx.minority.len()).collect();
            synthesize(
                &minority_x,
                &neighbors,
                &seeds,
                total_new,
                &mut rng,
                &mut synthetic,
            );
        } else {
            for (s, &ri) in r.iter().enumerate() {
                let gi = ((ri / r_sum) * total_new as f64).round() as usize;
                synthesize(&minority_x, &neighbors, &[s], gi, &mut rng, &mut synthetic);
            }
        }
        with_synthetics(data, synthetic)
    }

    fn name(&self) -> &'static str {
        "ADASYN"
    }
}

/// SMOTE followed by ENN cleaning (Batista et al. 2004).
#[derive(Clone, Copy, Debug, Default)]
pub struct SmoteEnn {
    /// SMOTE stage.
    pub smote: Smote,
    /// ENN stage.
    pub enn: EditedNearestNeighbours,
}

impl Sampler for SmoteEnn {
    fn resample(&self, data: &Dataset, seed: u64) -> Dataset {
        let oversampled = self.smote.resample(data, seed);
        self.enn.resample(&oversampled, seed)
    }

    fn name(&self) -> &'static str {
        "SMOTEENN"
    }
}

/// SMOTE followed by Tomek-link cleaning (Batista et al. 2003).
#[derive(Clone, Copy, Debug, Default)]
pub struct SmoteTomek {
    /// SMOTE stage.
    pub smote: Smote,
    /// Tomek stage.
    pub tomek: TomekLinks,
}

impl Sampler for SmoteTomek {
    fn resample(&self, data: &Dataset, seed: u64) -> Dataset {
        let oversampled = self.smote.resample(data, seed);
        self.tomek.resample(&oversampled, seed)
    }

    fn name(&self) -> &'static str {
        "SMOTETomek"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imbalanced_clusters(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(n_pos + n_neg, 2);
        let mut y = Vec::new();
        for _ in 0..n_neg {
            x.push_row(&[rng.normal(-2.0, 0.5), rng.normal(0.0, 0.5)]);
        }
        y.resize(y.len() + n_neg, 0);
        for _ in 0..n_pos {
            x.push_row(&[rng.normal(2.0, 0.5), rng.normal(0.0, 0.5)]);
        }
        y.resize(y.len() + n_pos, 1);
        Dataset::new(x, y)
    }

    #[test]
    fn smote_balances_exactly() {
        let d = imbalanced_clusters(10, 100, 1);
        let r = Smote::default().resample(&d, 2);
        assert_eq!(r.n_positive(), 100);
        assert_eq!(r.n_negative(), 100);
    }

    #[test]
    fn smote_synthetics_stay_in_minority_hull() {
        let d = imbalanced_clusters(10, 100, 3);
        let r = Smote::default().resample(&d, 4);
        // Synthetic samples interpolate between minority points, so all
        // positives must lie in the minority cluster's bounding box.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (row, &l) in d.x().iter_rows().zip(d.y()) {
            if l == 1 {
                lo = lo.min(row[0]);
                hi = hi.max(row[0]);
            }
        }
        for (row, &l) in r.x().iter_rows().zip(r.y()) {
            if l == 1 {
                assert!(row[0] >= lo - 1e-9 && row[0] <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn smote_single_minority_duplicates() {
        let d = imbalanced_clusters(1, 20, 5);
        let r = Smote::default().resample(&d, 6);
        assert_eq!(r.n_positive(), 20);
    }

    #[test]
    fn borderline_smote_balances() {
        // Overlapping clusters so a danger zone exists.
        let mut rng = SeededRng::new(7);
        let mut x = Matrix::with_capacity(120, 2);
        let mut y = Vec::new();
        for _ in 0..100 {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + 100, 0);
        for _ in 0..20 {
            x.push_row(&[rng.normal(1.0, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + 20, 1);
        let d = Dataset::new(x, y);
        let r = BorderlineSmote::default().resample(&d, 8);
        assert_eq!(r.n_positive(), 100);
    }

    #[test]
    fn adasyn_approximately_balances() {
        let mut rng = SeededRng::new(9);
        let mut x = Matrix::with_capacity(120, 2);
        let mut y = Vec::new();
        for _ in 0..100 {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + 100, 0);
        for _ in 0..20 {
            x.push_row(&[rng.normal(1.5, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + 20, 1);
        let d = Dataset::new(x, y);
        let r = Adasyn::default().resample(&d, 10);
        // Rounding per-seed counts makes the balance approximate.
        assert!(
            r.n_positive() >= 90 && r.n_positive() <= 110,
            "{}",
            r.n_positive()
        );
    }

    #[test]
    fn hybrids_run_and_keep_rough_balance() {
        let d = imbalanced_clusters(15, 120, 11);
        let enn = SmoteEnn::default().resample(&d, 12);
        let tomek = SmoteTomek::default().resample(&d, 12);
        for r in [&enn, &tomek] {
            let ir = r.imbalance_ratio();
            assert!(ir < 2.0, "IR {ir}");
            assert!(r.n_positive() > 100);
        }
        // Cleaning can only shrink the SMOTE output.
        assert!(enn.len() <= 240);
        assert!(tomek.len() <= 240);
    }

    #[test]
    fn already_balanced_passthrough() {
        let d = imbalanced_clusters(50, 50, 13);
        assert_eq!(Smote::default().resample(&d, 0).len(), 100);
        assert_eq!(Adasyn::default().resample(&d, 0).len(), 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = imbalanced_clusters(10, 60, 14);
        let a = Smote::default().resample(&d, 15);
        let b = Smote::default().resample(&d, 15);
        assert_eq!(a.x().as_slice(), b.x().as_slice());
    }
}
