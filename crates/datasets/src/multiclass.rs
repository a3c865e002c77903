//! K-class variants of the paper's synthetic generators.
//!
//! The paper's experiments are binary, but the SPE machinery generalizes
//! to k classes (see `DESIGN.md`); these generators produce the
//! multi-class fixtures the k-way pathway is exercised and benchmarked
//! on. Both accept explicit per-class sample counts, so any per-class
//! imbalance profile can be expressed; [`geometric_counts`] builds the
//! common "each class `ratio`× rarer than the previous" profile.

use spe_data::{Dataset, Matrix, SeededRng};

/// Per-class counts for a geometric imbalance profile: class `c` gets
/// `n_largest / ratio^c` samples (at least `floor` each).
///
/// # Panics
/// Panics when `k < 2`, `ratio < 1`, or `floor == 0`.
pub fn geometric_counts(k: usize, n_largest: usize, ratio: f64, floor: usize) -> Vec<usize> {
    assert!(k >= 2, "need at least two classes");
    assert!(ratio >= 1.0, "ratio must be >= 1");
    assert!(floor > 0, "floor must be positive");
    (0..k)
        .map(|c| {
            let n = (n_largest as f64 / ratio.powi(c as i32)).round() as usize;
            n.max(floor)
        })
        .collect()
}

/// K-class checkerboard generator parameters.
#[derive(Clone, Debug)]
pub struct MultiClassCheckerboardConfig {
    /// Board side length (cells = grid²); must be >= 2.
    pub grid: usize,
    /// Samples per class; `len()` is the class count `k` (2..=256).
    /// Imbalance between classes is expressed directly here.
    pub class_counts: Vec<usize>,
    /// Isotropic covariance factor shared by every component.
    pub cov: f64,
}

impl MultiClassCheckerboardConfig {
    /// A 4×4 board with `k` classes under a geometric imbalance profile:
    /// class 0 keeps `n_largest` samples, each later class is `ratio`×
    /// rarer (but at least 16 samples).
    pub fn geometric(k: usize, n_largest: usize, ratio: f64) -> Self {
        Self {
            grid: 4,
            class_counts: geometric_counts(k, n_largest, ratio, 16),
            cov: 0.1,
        }
    }
}

/// Samples a k-class checkerboard: grid cells are colored cyclically
/// `cell_index mod k` (the binary board's alternating pattern at k = 2,
/// up to class naming), and class `c` draws `class_counts[c]` samples
/// from its own cells' Gaussian components. Rows are shuffled.
///
/// # Panics
/// Panics when the grid is too small to give every class a cell, a
/// class count is zero, or `k` is out of `2..=256`.
pub fn multiclass_checkerboard(cfg: &MultiClassCheckerboardConfig, seed: u64) -> Dataset {
    let k = cfg.class_counts.len();
    assert!((2..=256).contains(&k), "need 2..=256 classes");
    assert!(cfg.grid >= 2, "grid must be at least 2");
    assert!(
        cfg.grid * cfg.grid >= k,
        "grid of {g}x{g} cannot host {k} classes",
        g = cfg.grid
    );
    assert!(cfg.cov > 0.0, "covariance must be positive");
    assert!(
        cfg.class_counts.iter().all(|&n| n > 0),
        "every class needs at least one sample"
    );

    let mut rng = SeededRng::new(seed);
    let std = cfg.cov.sqrt();

    // Cells in row-major order, colored cyclically so every class owns
    // ceil(grid² / k) or floor(grid² / k) components spread over the
    // board (classes interleave spatially like the binary board does).
    let mut cells: Vec<Vec<(f64, f64)>> = vec![Vec::new(); k];
    for i in 0..cfg.grid {
        for j in 0..cfg.grid {
            let cell = i * cfg.grid + j;
            cells[cell % k].push((i as f64 + 0.5, j as f64 + 0.5));
        }
    }

    let total: usize = cfg.class_counts.iter().sum();
    let mut x = Matrix::with_capacity(total, 2);
    let mut y = Vec::with_capacity(total);
    for (c, &n) in cfg.class_counts.iter().enumerate() {
        for _ in 0..n {
            let (cx, cy) = cells[c][rng.below(cells[c].len())];
            x.push_row(&[rng.normal(cx, std), rng.normal(cy, std)]);
            y.push(c as u8);
        }
    }
    let data = Dataset::multiclass(x, y, k);
    let mut order: Vec<usize> = (0..total).collect();
    rng.shuffle(&mut order);
    data.select(&order)
}

/// K-class overlap-study generator parameters.
#[derive(Clone, Debug)]
pub struct MultiClassOverlapConfig {
    /// Samples per class; `len()` is the class count `k` (2..=256).
    pub class_counts: Vec<usize>,
    /// Distance of the minority components from the majority center.
    /// Small radii push every class into the majority support
    /// (overlapped regime); large radii separate them.
    pub radius: f64,
    /// Component standard deviation.
    pub std: f64,
}

impl Default for MultiClassOverlapConfig {
    fn default() -> Self {
        Self {
            class_counts: geometric_counts(4, 2_000, 4.0, 16),
            radius: 1.0,
            std: 0.6,
        }
    }
}

/// Samples the k-class analogue of the Fig. 2 overlap study: class 0 is
/// a broad majority component at the origin, classes `1..k` sit on a
/// ring of the configured radius around it. With `radius` comparable to
/// `std` every minority class overlaps the majority *and* its ring
/// neighbours. Rows are shuffled.
///
/// # Panics
/// Panics when `k` is out of `2..=256`, a class count is zero, or the
/// geometry parameters are non-positive.
pub fn multiclass_overlap(cfg: &MultiClassOverlapConfig, seed: u64) -> Dataset {
    let k = cfg.class_counts.len();
    assert!((2..=256).contains(&k), "need 2..=256 classes");
    assert!(cfg.radius > 0.0, "radius must be positive");
    assert!(cfg.std > 0.0, "std must be positive");
    assert!(
        cfg.class_counts.iter().all(|&n| n > 0),
        "every class needs at least one sample"
    );

    let mut rng = SeededRng::new(seed);
    let total: usize = cfg.class_counts.iter().sum();
    let mut x = Matrix::with_capacity(total, 2);
    let mut y = Vec::with_capacity(total);
    for (c, &n) in cfg.class_counts.iter().enumerate() {
        let (cx, cy, std) = if c == 0 {
            // Majority: broad blob over the whole scene.
            (0.0, 0.0, cfg.std * 1.5)
        } else {
            let angle = (c - 1) as f64 * std::f64::consts::TAU / (k - 1) as f64;
            (cfg.radius * angle.cos(), cfg.radius * angle.sin(), cfg.std)
        };
        for _ in 0..n {
            x.push_row(&[rng.normal(cx, std), rng.normal(cy, std)]);
            y.push(c as u8);
        }
    }
    let data = Dataset::multiclass(x, y, k);
    let mut order: Vec<usize> = (0..total).collect();
    rng.shuffle(&mut order);
    data.select(&order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_counts_profile() {
        let counts = geometric_counts(4, 8_000, 4.0, 16);
        assert_eq!(counts, vec![8_000, 2_000, 500, 125]);
        // Floor kicks in for very rare classes.
        let floored = geometric_counts(4, 100, 10.0, 16);
        assert_eq!(floored, vec![100, 16, 16, 16]);
    }

    #[test]
    fn checkerboard_counts_and_k() {
        let cfg = MultiClassCheckerboardConfig::geometric(4, 2_000, 4.0);
        let d = multiclass_checkerboard(&cfg, 1);
        assert_eq!(d.n_classes(), 4);
        assert_eq!(d.class_counts(), vec![2_000, 500, 125, 31]);
        assert_eq!(d.n_features(), 2);
    }

    #[test]
    fn checkerboard_samples_sit_on_their_cells() {
        let cfg = MultiClassCheckerboardConfig {
            grid: 4,
            class_counts: vec![400, 300, 200, 100],
            cov: 0.01,
        };
        let d = multiclass_checkerboard(&cfg, 2);
        let mut misplaced = 0usize;
        for (row, &l) in d.x().iter_rows().zip(d.y()) {
            let i = (row[0] - 0.5).round().clamp(0.0, 3.0) as usize;
            let j = (row[1] - 0.5).round().clamp(0.0, 3.0) as usize;
            if ((i * 4 + j) % 4) as u8 != l {
                misplaced += 1;
            }
        }
        assert!(misplaced < 10, "{misplaced} samples off-cell");
    }

    #[test]
    fn checkerboard_binary_case_alternates_like_the_paper_board() {
        // k = 2 with a 4x4 grid colors cell (i, j) as (i*4 + j) % 2 =
        // (i + j) % 2 — the binary board's alternation, with classes
        // swapped relative to the binary generator's minority coloring.
        let cfg = MultiClassCheckerboardConfig {
            grid: 4,
            class_counts: vec![500, 500],
            cov: 0.01,
        };
        let d = multiclass_checkerboard(&cfg, 3);
        assert_eq!(d.n_classes(), 2);
        for (row, &l) in d.x().iter_rows().zip(d.y()) {
            let i = (row[0] - 0.5).round().clamp(0.0, 3.0) as usize;
            let j = (row[1] - 0.5).round().clamp(0.0, 3.0) as usize;
            if ((i + j) % 2) as u8 != l {
                // Tolerate the rare tail sample that crossed cells.
                continue;
            }
        }
    }

    #[test]
    fn overlap_ring_places_minority_classes_apart() {
        let cfg = MultiClassOverlapConfig {
            class_counts: vec![1_000, 200, 200, 200],
            radius: 6.0,
            std: 0.3,
        };
        let d = multiclass_overlap(&cfg, 4);
        assert_eq!(d.n_classes(), 4);
        // With a wide ring and tight components, per-class means are
        // near their centers: class means must be pairwise distant.
        let mut means = [(0.0, 0.0, 0usize); 4];
        for (row, &l) in d.x().iter_rows().zip(d.y()) {
            let m = &mut means[l as usize];
            m.0 += row[0];
            m.1 += row[1];
            m.2 += 1;
        }
        let centers: Vec<(f64, f64)> = means
            .iter()
            .map(|&(sx, sy, n)| (sx / n as f64, sy / n as f64))
            .collect();
        for a in 1..4 {
            for b in (a + 1)..4 {
                let dist = (centers[a].0 - centers[b].0).hypot(centers[a].1 - centers[b].1);
                assert!(dist > 3.0, "classes {a}/{b} too close: {dist}");
            }
        }
    }

    #[test]
    fn overlap_small_radius_mixes_classes() {
        let d = multiclass_overlap(&MultiClassOverlapConfig::default(), 5);
        // Majority samples intrude into every minority component's core.
        let mut intruders = 0usize;
        for (row, &l) in d.x().iter_rows().zip(d.y()) {
            if l == 0 && row[0].hypot(row[1]) > 0.7 {
                intruders += 1;
            }
        }
        assert!(intruders > 50, "{intruders} intruders");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MultiClassCheckerboardConfig::geometric(5, 400, 3.0);
        let a = multiclass_checkerboard(&cfg, 6);
        let b = multiclass_checkerboard(&cfg, 6);
        assert_eq!(a.x().as_slice(), b.x().as_slice());
        assert_eq!(a.y(), b.y());
        let o1 = multiclass_overlap(&MultiClassOverlapConfig::default(), 6);
        let o2 = multiclass_overlap(&MultiClassOverlapConfig::default(), 6);
        assert_eq!(o1.x().as_slice(), o2.x().as_slice());
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn rejects_more_classes_than_cells() {
        let cfg = MultiClassCheckerboardConfig {
            grid: 2,
            class_counts: vec![10; 5],
            cov: 0.1,
        };
        let _ = multiclass_checkerboard(&cfg, 0);
    }
}
