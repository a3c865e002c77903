//! A concept-drifting checkerboard stream for online-learning tests.
//!
//! [`DriftingStream`] emits the same Gaussian checkerboard family as
//! [`SyntheticStream`](crate::stream::SyntheticStream), but at a
//! configured row index the board's **parity flips**: every cell that
//! generated minority rows starts generating majority rows and vice
//! versa. A model trained on the pre-drift concept is not merely stale
//! after the flip — it is anti-correlated with the new labels, so
//! AUCPRC collapses toward (and below) the random baseline. That makes
//! the flip the sharpest possible probe for a drift detector: the
//! degradation is immediate, large and unambiguous.
//!
//! Batches are generated from a seed derived from `(seed, batch
//! index)`, so the stream is deterministic and cheap to replay, and
//! [`concept_dataset`] materializes an in-memory [`Dataset`] drawn from
//! either concept for training incumbents and measuring recovery.

use spe_data::{Dataset, Matrix, SeededRng};

/// Parameters of a [`DriftingStream`].
#[derive(Clone, Copy, Debug)]
pub struct DriftStreamConfig {
    /// Total rows the stream emits.
    pub rows: u64,
    /// Feature columns (at least 2; the first two are informative).
    pub features: usize,
    /// Probability that a row is minority/positive.
    pub minority_fraction: f64,
    /// Rows per emitted batch.
    pub batch_rows: usize,
    /// Checkerboard side length.
    pub grid: usize,
    /// Isotropic covariance of the informative dimensions.
    pub cov: f64,
    /// First row index drawn from the flipped concept. Rows before this
    /// index follow the base board; rows at or after it follow the
    /// parity-flipped board. `>= rows` means the stream never drifts.
    pub drift_at: u64,
}

impl Default for DriftStreamConfig {
    fn default() -> Self {
        Self {
            rows: 100_000,
            features: 6,
            minority_fraction: 0.1,
            batch_rows: 512,
            grid: 4,
            cov: 0.05,
            drift_at: 50_000,
        }
    }
}

/// Deterministic concept-drifting checkerboard stream (see module docs).
pub struct DriftingStream {
    cfg: DriftStreamConfig,
    seed: u64,
    next_row: u64,
    even_cells: Vec<(f64, f64)>,
    odd_cells: Vec<(f64, f64)>,
}

impl DriftingStream {
    /// Creates a stream positioned at its first batch.
    ///
    /// # Panics
    /// Panics on degenerate configs (fewer than 2 features, zero rows
    /// or batch budget, a minority fraction outside `(0, 1)`, a grid
    /// below 2, non-positive covariance).
    pub fn new(cfg: DriftStreamConfig, seed: u64) -> Self {
        assert!(cfg.features >= 2, "need at least 2 features");
        assert!(
            cfg.rows > 0 && cfg.batch_rows > 0,
            "need rows and a batch budget"
        );
        assert!(
            cfg.minority_fraction > 0.0 && cfg.minority_fraction < 1.0,
            "minority fraction must be in (0, 1)"
        );
        assert!(cfg.grid >= 2, "grid must be at least 2");
        assert!(cfg.cov > 0.0, "covariance must be positive");
        let (even_cells, odd_cells) = board_cells(cfg.grid);
        Self {
            cfg,
            seed,
            next_row: 0,
            even_cells,
            odd_cells,
        }
    }

    /// The stream's configuration.
    pub fn config(&self) -> &DriftStreamConfig {
        &self.cfg
    }

    /// Rows emitted so far.
    pub fn position(&self) -> u64 {
        self.next_row
    }

    /// Whether the next emitted row comes from the flipped concept.
    pub fn drifted(&self) -> bool {
        self.next_row >= self.cfg.drift_at
    }

    /// Rewinds to the first batch; replay is bit-identical.
    pub fn reset(&mut self) {
        self.next_row = 0;
    }

    /// Emits the next batch as `(features, labels)`, or `None` once the
    /// configured row count is exhausted. A batch that straddles
    /// `drift_at` switches concept mid-batch at the exact row.
    pub fn next_batch(&mut self) -> Option<(Matrix, Vec<u8>)> {
        if self.next_row >= self.cfg.rows {
            return None;
        }
        let batch_index = self.next_row / self.cfg.batch_rows as u64;
        let rows = (self.cfg.rows - self.next_row).min(self.cfg.batch_rows as u64) as usize;
        let mut rng = SeededRng::new(self.seed ^ batch_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let std = self.cfg.cov.sqrt();
        let mut x = Matrix::with_capacity(rows, self.cfg.features);
        let mut y = Vec::with_capacity(rows);
        let mut row = vec![0.0f64; self.cfg.features];
        for r in 0..rows {
            let drifted = self.next_row + r as u64 >= self.cfg.drift_at;
            let minority = rng.uniform() < self.cfg.minority_fraction;
            // Base concept: odd-parity cells are minority. Flipped
            // concept: even-parity cells are minority.
            let cells = if minority != drifted {
                &self.odd_cells
            } else {
                &self.even_cells
            };
            let (cx, cy) = cells[rng.below(cells.len())];
            row[0] = rng.normal(cx, std);
            row[1] = rng.normal(cy, std);
            for v in row.iter_mut().skip(2) {
                *v = rng.normal(0.0, 1.0);
            }
            x.push_row(&row);
            y.push(u8::from(minority));
        }
        self.next_row += rows as u64;
        Some((x, y))
    }
}

/// Cell centers, `(x, y)` pairs in board coordinates.
type Cells = Vec<(f64, f64)>;

/// Cell centers of a `grid × grid` board, split by parity: even-parity
/// cells first (the base concept's majority), odd-parity cells second
/// (the base concept's minority).
fn board_cells(grid: usize) -> (Cells, Cells) {
    let mut even = Vec::new();
    let mut odd = Vec::new();
    for i in 0..grid {
        for j in 0..grid {
            let center = (i as f64 + 0.5, j as f64 + 0.5);
            if (i + j) % 2 == 1 {
                odd.push(center);
            } else {
                even.push(center);
            }
        }
    }
    (even, odd)
}

/// Materializes `rows` rows of a single concept of `cfg`'s board as an
/// in-memory [`Dataset`] — pre-drift when `drifted` is false, the
/// parity-flipped concept when true. Used to train incumbents (concept
/// A), measure degradation and recovery (concept B test sets), and
/// build reference evaluations.
pub fn concept_dataset(cfg: &DriftStreamConfig, seed: u64, rows: u64, drifted: bool) -> Dataset {
    let mut one = DriftingStream::new(
        DriftStreamConfig {
            rows,
            drift_at: if drifted { 0 } else { rows },
            ..*cfg
        },
        seed,
    );
    let mut x = Matrix::with_capacity(rows as usize, cfg.features);
    let mut y = Vec::with_capacity(rows as usize);
    while let Some((bx, by)) = one.next_batch() {
        for r in 0..bx.rows() {
            x.push_row(bx.row(r));
        }
        y.extend_from_slice(&by);
    }
    Dataset::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DriftStreamConfig {
        DriftStreamConfig {
            rows: 4_000,
            features: 4,
            minority_fraction: 0.15,
            batch_rows: 300,
            grid: 4,
            cov: 0.01,
            drift_at: 2_000,
        }
    }

    /// Fraction of rows whose informative dims sit in an odd-parity
    /// cell among the minority rows.
    fn minority_odd_cell_fraction(x: &Matrix, y: &[u8]) -> f64 {
        let mut odd = 0usize;
        let mut total = 0usize;
        for (row, &l) in x.iter_rows().zip(y) {
            if l != 1 {
                continue;
            }
            let i = (row[0] - 0.5).round().clamp(0.0, 3.0) as usize;
            let j = (row[1] - 0.5).round().clamp(0.0, 3.0) as usize;
            total += 1;
            if (i + j) % 2 == 1 {
                odd += 1;
            }
        }
        odd as f64 / total.max(1) as f64
    }

    #[test]
    fn batches_cover_exactly_the_configured_rows() {
        let mut s = DriftingStream::new(small_cfg(), 1);
        let mut total = 0u64;
        let mut batches = 0usize;
        while let Some((x, y)) = s.next_batch() {
            assert_eq!(x.rows(), y.len());
            assert!(x.rows() <= 300);
            total += x.rows() as u64;
            batches += 1;
        }
        assert_eq!(total, 4_000);
        assert_eq!(batches, 14, "4000 rows in 300-row batches");
        assert!(s.next_batch().is_none());
    }

    #[test]
    fn reset_replays_bit_identically() {
        let mut s = DriftingStream::new(small_cfg(), 2);
        let (ax, ay) = s.next_batch().unwrap();
        let (bx, by) = s.next_batch().unwrap();
        s.reset();
        let (cx, cy) = s.next_batch().unwrap();
        let (dx, dy) = s.next_batch().unwrap();
        assert_eq!(ax.as_slice(), cx.as_slice());
        assert_eq!(ay, cy);
        assert_eq!(bx.as_slice(), dx.as_slice());
        assert_eq!(by, dy);
    }

    #[test]
    fn parity_flips_at_the_drift_row() {
        let mut s = DriftingStream::new(small_cfg(), 3);
        let mut pre_x = Matrix::with_capacity(2_000, 4);
        let mut pre_y = Vec::new();
        let mut post_x = Matrix::with_capacity(2_000, 4);
        let mut post_y = Vec::new();
        let mut seen = 0u64;
        while let Some((x, y)) = s.next_batch() {
            for (r, &label) in y.iter().enumerate() {
                if seen < 2_000 {
                    pre_x.push_row(x.row(r));
                    pre_y.push(label);
                } else {
                    post_x.push_row(x.row(r));
                    post_y.push(label);
                }
                seen += 1;
            }
        }
        // Pre-drift minority rows live in odd cells; post-drift they
        // live in even cells (tiny covariance keeps cells crisp).
        assert!(minority_odd_cell_fraction(&pre_x, &pre_y) > 0.95);
        assert!(minority_odd_cell_fraction(&post_x, &post_y) < 0.05);
    }

    #[test]
    fn concept_dataset_matches_stream_phases() {
        let cfg = small_cfg();
        let a = concept_dataset(&cfg, 7, 1_500, false);
        let b = concept_dataset(&cfg, 8, 1_500, true);
        assert_eq!(a.len(), 1_500);
        assert_eq!(b.len(), 1_500);
        assert!(minority_odd_cell_fraction(a.x(), a.y()) > 0.95);
        assert!(minority_odd_cell_fraction(b.x(), b.y()) < 0.05);
        let frac = a.n_positive() as f64 / a.len() as f64;
        assert!((frac - 0.15).abs() < 0.04, "minority fraction {frac}");
    }

    #[test]
    fn never_drifting_stream_stays_on_concept_a() {
        let cfg = DriftStreamConfig {
            drift_at: u64::MAX,
            ..small_cfg()
        };
        let mut s = DriftingStream::new(cfg, 9);
        let mut x = Matrix::with_capacity(4_000, 4);
        let mut y = Vec::new();
        while let Some((bx, by)) = s.next_batch() {
            for r in 0..bx.rows() {
                x.push_row(bx.row(r));
            }
            y.extend_from_slice(&by);
        }
        assert!(!s.drifted());
        assert!(minority_odd_cell_fraction(&x, &y) > 0.95);
    }
}
