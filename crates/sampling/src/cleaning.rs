//! Neighbor-based cleaning under-samplers: ENN, AllKNN, Tomek links,
//! One-Side Selection and the Neighbourhood Cleaning Rule (the paper's
//! `Clean` baseline).
//!
//! These rules remove *noisy or borderline majority* samples rather than
//! balancing the classes; as Table V shows, they retain almost the whole
//! dataset (`#Sample` ≈ original) and pay a large O(n²) distance cost.

use crate::Sampler;
use spe_data::{Dataset, SeededRng};
use spe_learners::neighbors::{knn_batch, knn_query};

/// Keeps everything except the listed (sorted, deduped) indices.
fn drop_indices(data: &Dataset, remove: &[usize]) -> Dataset {
    let keep: Vec<usize> = (0..data.len())
        .filter(|i| remove.binary_search(i).is_err())
        .collect();
    data.select(&keep)
}

/// Majority samples whose k-neighborhood (leave-one-out, over the whole
/// set) disagrees with them, per the "mode" rule: removed when strictly
/// fewer than half of the neighbors share the majority label.
fn enn_removals(data: &Dataset, k: usize) -> Vec<usize> {
    let hits = knn_batch(data.x(), data.x(), k, true);
    let y = data.y();
    let mut remove = Vec::new();
    for (i, neigh) in hits.iter().enumerate() {
        if y[i] != 0 {
            continue; // only the majority class is cleaned
        }
        let same = neigh.iter().filter(|h| y[h.index] == 0).count();
        if same * 2 < neigh.len() {
            remove.push(i);
        }
    }
    remove
}

/// Edited Nearest Neighbours (Wilson 1972): removes majority samples
/// misclassified by their k nearest neighbors.
#[derive(Clone, Copy, Debug)]
pub struct EditedNearestNeighbours {
    /// Neighborhood size (default 3).
    pub k: usize,
}

impl Default for EditedNearestNeighbours {
    fn default() -> Self {
        Self { k: 3 }
    }
}

impl Sampler for EditedNearestNeighbours {
    fn resample(&self, data: &Dataset, _seed: u64) -> Dataset {
        if data.n_positive() == 0 || data.n_negative() == 0 {
            return data.clone();
        }
        drop_indices(data, &enn_removals(data, self.k))
    }

    fn name(&self) -> &'static str {
        "ENN"
    }
}

/// AllKNN (Tomek 1976): repeated ENN with the neighborhood size growing
/// from 1 to `k_max`, removing more aggressively each round.
#[derive(Clone, Copy, Debug)]
pub struct AllKnn {
    /// Final neighborhood size (default 3).
    pub k_max: usize,
}

impl Default for AllKnn {
    fn default() -> Self {
        Self { k_max: 3 }
    }
}

impl Sampler for AllKnn {
    fn resample(&self, data: &Dataset, _seed: u64) -> Dataset {
        let mut current = data.clone();
        for k in 1..=self.k_max {
            if current.n_positive() == 0 || current.n_negative() <= 1 {
                break;
            }
            current = drop_indices(&current, &enn_removals(&current, k));
        }
        current
    }

    fn name(&self) -> &'static str {
        "AllKNN"
    }
}

/// Positions `i` that form Tomek links with an opposite-class sample:
/// `i` and `j` are mutual 1-nearest neighbors of different classes.
/// Returns only the majority members of each link, sorted.
fn tomek_majority_members(data: &Dataset) -> Vec<usize> {
    let nn = knn_batch(data.x(), data.x(), 1, true);
    let y = data.y();
    let nearest: Vec<Option<usize>> = nn.iter().map(|h| h.first().map(|n| n.index)).collect();
    let mut remove = Vec::new();
    for (i, &nb) in nearest.iter().enumerate() {
        let Some(j) = nb else { continue };
        if y[i] == 0 && y[j] != 0 && nearest[j] == Some(i) {
            remove.push(i);
        }
    }
    remove
}

/// Tomek-link removal (Tomek 1976): drops the majority member of every
/// cross-class mutual-nearest-neighbor pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct TomekLinks;

impl Sampler for TomekLinks {
    fn resample(&self, data: &Dataset, _seed: u64) -> Dataset {
        if data.n_positive() == 0 || data.n_negative() == 0 {
            return data.clone();
        }
        drop_indices(data, &tomek_majority_members(data))
    }

    fn name(&self) -> &'static str {
        "TomekLink"
    }
}

/// One-Side Selection (Kubat & Matwin 1997): a 1-NN condensation pass
/// keeps the minority set, one random majority seed and every majority
/// sample the condensed set misclassifies; Tomek links are then removed.
#[derive(Clone, Copy, Debug, Default)]
pub struct OneSideSelection;

impl Sampler for OneSideSelection {
    fn resample(&self, data: &Dataset, seed: u64) -> Dataset {
        let idx = data.class_index();
        if idx.minority.is_empty() || idx.majority.len() <= 1 {
            return data.clone();
        }
        let mut rng = SeededRng::new(seed);

        // Condensation store: all minority + one random majority.
        let mut store: Vec<usize> = idx.minority.clone();
        let seed_maj = idx.majority[rng.below(idx.majority.len())];
        store.push(seed_maj);

        // Single CNN pass over the remaining majority.
        let store_x = data.x().select_rows(&store);
        let mut store_y: Vec<u8> = store.iter().map(|&i| data.y()[i]).collect();
        let mut store_x = store_x;
        for &i in &idx.majority {
            if i == seed_maj {
                continue;
            }
            let hit = knn_query(&store_x, data.x().row(i), 1, None);
            let predicted = hit.first().map_or(0, |h| store_y[h.index]);
            if predicted != 0 {
                // Misclassified by the current store: keep it.
                store.push(i);
                store_x.push_row(data.x().row(i));
                store_y.push(0);
            }
        }
        store.sort_unstable();
        let condensed = data.select(&store);

        // Final Tomek cleaning on the condensed set.
        drop_indices(&condensed, &tomek_majority_members(&condensed))
    }

    fn name(&self) -> &'static str {
        "OSS"
    }
}

/// Neighbourhood Cleaning Rule (Laurikkala 2001) — the paper's `Clean`:
/// ENN on the majority class, plus removal of majority neighbors of any
/// minority sample its neighborhood misclassifies.
#[derive(Clone, Copy, Debug)]
pub struct NeighbourhoodCleaningRule {
    /// Neighborhood size (default 3).
    pub k: usize,
}

impl Default for NeighbourhoodCleaningRule {
    fn default() -> Self {
        Self { k: 3 }
    }
}

impl Sampler for NeighbourhoodCleaningRule {
    fn resample(&self, data: &Dataset, _seed: u64) -> Dataset {
        if data.n_positive() == 0 || data.n_negative() == 0 {
            return data.clone();
        }
        let y = data.y();
        let hits = knn_batch(data.x(), data.x(), self.k, true);
        let mut remove = Vec::new();
        for (i, neigh) in hits.iter().enumerate() {
            if y[i] == 0 {
                // ENN part: majority sample misclassified by neighbors.
                let same = neigh.iter().filter(|h| y[h.index] == 0).count();
                if same * 2 < neigh.len() {
                    remove.push(i);
                }
            } else {
                // Minority sample misclassified: drop its majority
                // neighbors instead.
                let maj = neigh.iter().filter(|h| y[h.index] == 0).count();
                if maj * 2 > neigh.len() {
                    remove.extend(neigh.iter().filter(|h| y[h.index] == 0).map(|h| h.index));
                }
            }
        }
        remove.sort_unstable();
        remove.dedup();
        drop_indices(data, &remove)
    }

    fn name(&self) -> &'static str {
        "Clean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::{Matrix, SeededRng};

    /// Majority cluster with a few majority outliers sitting inside the
    /// minority cluster.
    fn noisy_clusters() -> Dataset {
        let mut rng = SeededRng::new(9);
        let mut x = Matrix::with_capacity(65, 2);
        let mut y = Vec::new();
        for _ in 0..40 {
            x.push_row(&[rng.normal(-3.0, 0.3), rng.normal(0.0, 0.3)]);
        }
        y.resize(y.len() + 40, 0);
        for _ in 0..20 {
            x.push_row(&[rng.normal(3.0, 0.3), rng.normal(0.0, 0.3)]);
        }
        y.resize(y.len() + 20, 1);
        // Majority outliers embedded in the minority cluster.
        for _ in 0..5 {
            x.push_row(&[rng.normal(3.0, 0.1), rng.normal(0.0, 0.1)]);
        }
        y.resize(y.len() + 5, 0);
        Dataset::new(x, y)
    }

    fn count_outliers_kept(r: &Dataset) -> usize {
        r.x()
            .iter_rows()
            .zip(r.y())
            .filter(|(row, &l)| l == 0 && row[0] > 0.0)
            .count()
    }

    #[test]
    fn enn_removes_embedded_outliers() {
        let d = noisy_clusters();
        let r = EditedNearestNeighbours::default().resample(&d, 0);
        assert_eq!(r.n_positive(), 20, "minority untouched");
        assert!(count_outliers_kept(&r) < 5);
        assert!(r.n_negative() >= 40, "bulk majority kept");
    }

    #[test]
    fn allknn_removes_at_least_as_much_as_enn() {
        let d = noisy_clusters();
        let enn = EditedNearestNeighbours::default().resample(&d, 0);
        let all = AllKnn::default().resample(&d, 0);
        assert!(all.len() <= enn.len());
        assert_eq!(all.n_positive(), 20);
    }

    #[test]
    fn tomek_removes_only_link_members() {
        // A clear Tomek link: one majority/minority pair adjacent, plus
        // far-away bulk on both sides.
        let x = Matrix::from_vec(6, 1, vec![0.0, 0.2, -5.0, -5.2, 5.0, 5.2]);
        let d = Dataset::new(x, vec![0, 1, 0, 0, 1, 1]);
        let r = TomekLinks.resample(&d, 0);
        // The majority sample at 0.0 forms a link with the minority at
        // 0.2 and must be removed; the rest stay.
        assert_eq!(r.len(), 5);
        assert!(r
            .x()
            .iter_rows()
            .zip(r.y())
            .all(|(row, &l)| !(l == 0 && row[0] == 0.0)));
    }

    #[test]
    fn ncr_cleans_more_than_enn() {
        let d = noisy_clusters();
        let enn = EditedNearestNeighbours::default().resample(&d, 0);
        let ncr = NeighbourhoodCleaningRule::default().resample(&d, 0);
        assert!(ncr.len() <= enn.len());
        assert_eq!(ncr.n_positive(), 20);
        assert_eq!(count_outliers_kept(&ncr), 0);
    }

    #[test]
    fn oss_keeps_minority_and_shrinks_majority() {
        let d = noisy_clusters();
        let r = OneSideSelection.resample(&d, 3);
        assert_eq!(r.n_positive(), 20);
        assert!(r.n_negative() < 45);
        assert!(r.n_negative() >= 1);
    }

    #[test]
    fn cleaning_is_deterministic() {
        let d = noisy_clusters();
        let a = NeighbourhoodCleaningRule::default().resample(&d, 0);
        let b = NeighbourhoodCleaningRule::default().resample(&d, 99);
        assert_eq!(a.x().as_slice(), b.x().as_slice());
    }

    #[test]
    fn single_class_passthrough() {
        let x = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]);
        let d = Dataset::new(x, vec![0, 0, 0]);
        assert_eq!(EditedNearestNeighbours::default().resample(&d, 0).len(), 3);
        assert_eq!(TomekLinks.resample(&d, 0).len(), 3);
        assert_eq!(
            NeighbourhoodCleaningRule::default().resample(&d, 0).len(),
            3
        );
    }
}
