//! Out-of-core SPE training: Algorithm 1 over a chunked stream.
//!
//! [`SelfPacedEnsembleConfig::try_fit_chunked`] fits an SPE whose peak
//! memory is bounded by one chunk plus small per-row sidecars — the
//! dense `f64` matrix never exists. Two streaming passes set it up:
//!
//! ```text
//! pass 1   chunk ──> per-feature QuantileSketch ──> shared cut grids
//!                └─> minority rows (kept dense: the imbalance
//!                    assumption makes |P| tiny) + majority count
//! pass 2   chunk ──> majority rows ──> encode_batch_into (u8 codes,
//!                    column-major) ──> on-disk spill blocks
//! ```
//!
//! Training then runs the shared round loop over the code store as a
//! row store: each member's training sub-index is stitched from the
//! precomputed minority codes plus the selected majority codes gathered
//! from the spill ([`BinIndex::from_parts`] + the `BinnedLearner`
//! row-subset hook), and the freshly trained member is recompiled
//! against the grid ([`BinScorer`], the compiler serving shares) to
//! score every spill block in place — inside the member's fault slot,
//! so a non-finite score retries the member.
//!
//! Memory accounting (per row of width `d`): the streaming working set
//! is ≈ `17 d` bytes (chunk `f64`s, the majority copy, its codes), the
//! resident sidecars are 16 B per majority row (probability sum +
//! hardness) plus the dense minority block. Chunk budgets should leave
//! roughly half the budget for the sidecars; see `bench_oocore`.

use crate::rounds::{fit_rounds, score_codes, RowStore};
use crate::SelfPacedEnsemble;
use crate::SelfPacedEnsembleConfig;
use spe_data::sketch::DEFAULT_SKETCH_CAPACITY;
use spe_data::{
    encode_batch_into, BinIndex, Chunk, ChunkedSource, Matrix, QuantileSketch, SanitizePolicy,
    SeededRng, SpeError, POSITIVE,
};
use spe_learners::binspace::{BinScorer, CodeView};
use spe_learners::traits::{BinnedLearner, BinnedProblem, Model};
use std::fs::{self, File};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Options of an out-of-core fit (the SPE hyper-parameters live on
/// [`SelfPacedEnsembleConfig`]; these only shape the streaming
/// machinery).
#[derive(Clone, Debug)]
pub struct ChunkedFitOptions {
    /// Per-level capacity of the pass-1 quantile sketches; larger is
    /// more accurate and more memory (~8 · capacity · levels bytes per
    /// feature).
    pub sketch_capacity: usize,
    /// Directory for the spilled majority code blocks. `None` puts a
    /// directory of its own under the system temp dir. Every fit spills
    /// to a file of its own, removed when the fit finishes (or fails).
    pub spill_dir: Option<PathBuf>,
    /// Cap on minority rows held dense in RAM — a guard rail for the
    /// imbalance assumption; exceeding it is a typed error rather than
    /// an OOM. `0` means unlimited.
    pub max_minority_rows: usize,
}

impl Default for ChunkedFitOptions {
    fn default() -> Self {
        Self {
            sketch_capacity: DEFAULT_SKETCH_CAPACITY,
            spill_dir: None,
            max_minority_rows: 0,
        }
    }
}

/// Streaming-side diagnostics of an out-of-core fit (the training-side
/// diagnostics are the ensemble's [`FitReport`]).
#[derive(Clone, Debug)]
pub struct OocReport {
    /// Rows streamed (after any `DropRows` sanitization).
    pub rows: u64,
    /// Minority rows held dense.
    pub n_minority: usize,
    /// Majority rows spilled as codes.
    pub n_majority: usize,
    /// Chunks per pass.
    pub chunks: usize,
    /// Bytes of spilled code blocks on disk.
    pub spill_bytes: u64,
    /// Worst per-feature *relative* rank-error bound of the sketches
    /// (absolute bound / rows) — the guaranteed grid quality.
    pub max_rank_error: f64,
    /// Rows dropped by [`SanitizePolicy::DropRows`].
    pub rows_dropped: u64,
}

/// Rows per chunk that keep the streaming working set inside
/// `budget_bytes / 2`, leaving the other half for the resident
/// sidecars: a chunk row costs ≈ `17 d` bytes across the `f64` chunk,
/// the majority copy and its codes, so this is
/// `budget / (2 · 17 · d)`, floored at 256 rows.
pub fn chunk_rows_for_budget(budget_bytes: usize, n_features: usize) -> usize {
    (budget_bytes / (34 * n_features.max(1))).max(256)
}

impl SelfPacedEnsembleConfig {
    /// Fits the ensemble from a rewindable chunk stream without ever
    /// materializing the dataset (see the [module docs](self) for the
    /// pipeline). Requires a histogram-capable base learner (one whose
    /// [`as_binned`](spe_learners::traits::Learner::as_binned) hook
    /// reports a bin request); [`SanitizePolicy::ImputeMean`] is not
    /// available — streamed means are unknown until the pass ends.
    ///
    /// Faulty members retry with fresh seeds and drop after
    /// `max_member_retries`, the wall-clock budget skips remaining
    /// slots, and `min_members` gates success — the same fault
    /// contract as [`Self::try_fit_dataset`].
    pub fn try_fit_chunked(
        &self,
        source: &mut dyn ChunkedSource,
        opts: &ChunkedFitOptions,
        seed: u64,
    ) -> Result<(SelfPacedEnsemble, OocReport), SpeError> {
        self.validate()?;
        if matches!(self.sanitize, SanitizePolicy::ImputeMean) {
            return Err(SpeError::InvalidConfig(
                "SanitizePolicy::ImputeMean is not supported for chunked fits \
                 (column means are unknown while streaming); use Reject or DropRows"
                    .into(),
            ));
        }
        let max_bins = self
            .base
            .as_binned()
            .and_then(|bl| bl.bin_request())
            .ok_or_else(|| {
                SpeError::InvalidConfig(
                    "out-of-core training requires a histogram-capable base learner \
                     (e.g. a decision tree with SplitMethod::Histogram)"
                        .into(),
                )
            })?
            .max_bins;
        if source.n_features() == 0 {
            return Err(SpeError::InvalidConfig(
                "chunked source reports zero features".into(),
            ));
        }
        self.runtime.install(|| {
            self.budget
                .install(|| self.fit_chunked_validated(source, opts, max_bins, seed))
        })
    }

    fn fit_chunked_validated(
        &self,
        source: &mut dyn ChunkedSource,
        opts: &ChunkedFitOptions,
        max_bins: usize,
        seed: u64,
    ) -> Result<(SelfPacedEnsemble, OocReport), SpeError> {
        let d = source.n_features();
        let drop_rows = matches!(self.sanitize, SanitizePolicy::DropRows);

        // ---- Pass 1: sketches + minority collection -----------------
        source.reset()?;
        let mut sketches: Vec<QuantileSketch> = (0..d)
            .map(|_| QuantileSketch::with_capacity(opts.sketch_capacity))
            .collect();
        let mut minority_x = Matrix::with_capacity(0, d);
        let mut n_majority = 0usize;
        let mut chunks = 0usize;
        let mut rows_dropped = 0u64;
        let mut stream_row = 0u64;
        // Preallocate every per-chunk buffer at the source's chunk size:
        // amortized doubling would transiently hold ~2x the bytes,
        // which matters when the chunk *is* the memory budget.
        let mut chunk = Chunk::with_capacity(d, source.chunk_rows());
        let mut keep = Vec::with_capacity(source.chunk_rows());
        while source.next_chunk(&mut chunk)? {
            chunks += 1;
            keep.clear();
            keep.resize(chunk.rows(), true);
            for (r, kept) in keep.iter_mut().enumerate() {
                let row = chunk.x().row(r);
                if let Some(col) = row.iter().position(|v| !v.is_finite()) {
                    if drop_rows {
                        *kept = false;
                        rows_dropped += 1;
                        continue;
                    }
                    return Err(SpeError::NonFiniteFeature {
                        row: (stream_row + r as u64) as usize,
                        col,
                    });
                }
                if chunk.y()[r] == POSITIVE {
                    minority_x.push_row(row);
                    if opts.max_minority_rows > 0 && minority_x.rows() > opts.max_minority_rows {
                        return Err(SpeError::InvalidConfig(format!(
                            "minority class exceeds max_minority_rows ({}) — the chunked fit \
                             keeps minority rows dense and assumes heavy imbalance",
                            opts.max_minority_rows
                        )));
                    }
                } else {
                    n_majority += 1;
                }
            }
            // Both classes feed the grids, like BinIndex::build on the
            // full matrix. Features sketch independently in parallel.
            let keep_ref = &keep;
            let chunk_ref = &chunk;
            spe_runtime::par_for_each_mut(&mut sketches, |f, sk| {
                for (r, &kept) in keep_ref.iter().enumerate() {
                    if kept {
                        sk.insert(chunk_ref.x().get(r, f));
                    }
                }
            });
            stream_row += chunk.rows() as u64;
        }

        let n_pos = minority_x.rows();
        let n_neg = n_majority;
        let rows = n_pos as u64 + n_neg as u64;
        if rows == 0 {
            return Err(SpeError::EmptyDataset);
        }
        if n_pos == 0 {
            return Err(SpeError::EmptyClass { label: 1 });
        }
        if n_neg == 0 {
            return Err(SpeError::EmptyClass { label: 0 });
        }

        let cuts: Vec<Vec<f64>> = sketches.iter().map(|s| s.cut_grid(max_bins)).collect();
        let max_rank_error = sketches
            .iter()
            .map(|s| s.rank_error_bound() as f64 / s.count().max(1) as f64)
            .fold(0.0, f64::max);
        drop(sketches);

        let mut minority_codes = vec![0u8; n_pos * d];
        encode_batch_into(&cuts, minority_x.view(), &mut minority_codes);
        drop(minority_x);

        // ---- Pass 2: encode majority chunks into the spill ----------
        source.reset()?;
        let mut spill = CodeSpill::create(opts.spill_dir.as_deref(), d)?;
        let mut maj_buf = Matrix::with_capacity(source.chunk_rows(), d);
        let mut code_buf: Vec<u8> = Vec::with_capacity(source.chunk_rows() * d);
        while source.next_chunk(&mut chunk)? {
            maj_buf.clear_rows();
            for r in 0..chunk.rows() {
                let row = chunk.x().row(r);
                // Replays pass 1's keep/drop decisions (pure function
                // of the row values).
                if drop_rows && row.iter().any(|v| !v.is_finite()) {
                    continue;
                }
                if chunk.y()[r] != POSITIVE {
                    maj_buf.push_row(row);
                }
            }
            if maj_buf.rows() == 0 {
                continue;
            }
            code_buf.resize(maj_buf.rows() * d, 0);
            encode_batch_into(&cuts, maj_buf.view(), &mut code_buf);
            spill.append_block(maj_buf.rows(), &code_buf)?;
        }
        spill.finish()?;
        debug_assert_eq!(spill.total_rows(), n_neg);
        // The streaming buffers are done; release them before the
        // per-majority-row sidecars below are allocated so the peak
        // working set holds one of the two, never both.
        drop(chunk);
        drop(maj_buf);
        drop(code_buf);
        drop(keep);

        // ---- Training rounds (Algorithm 1 over the code store) ------
        let mut store = Spilled {
            learner: self.base.as_binned().expect("checked in try_fit_chunked"),
            cuts,
            minority_codes,
            n_pos,
            spill,
        };
        let sanitize = spe_data::SanitizeReport {
            non_finite_cells: rows_dropped as usize,
            dropped_rows: rows_dropped as usize,
            ..Default::default()
        };
        let ensemble = fit_rounds(self, &mut store, seed, None, None, sanitize)?;
        Ok((
            ensemble,
            OocReport {
                rows,
                n_minority: n_pos,
                n_majority: n_neg,
                chunks,
                spill_bytes: store.spill.bytes(),
                max_rank_error,
                rows_dropped,
            },
        ))
    }
}

/// The out-of-core fit's rows: the dense minority codes and the spilled
/// majority codes, all on one cut grid.
struct Spilled<'a> {
    learner: &'a dyn BinnedLearner,
    cuts: Vec<Vec<f64>>,
    /// Column-major, `n_pos` rows.
    minority_codes: Vec<u8>,
    n_pos: usize,
    spill: CodeSpill,
}

impl RowStore for Spilled<'_> {
    fn class_counts(&self) -> (usize, usize) {
        (self.n_pos, self.spill.total_rows())
    }

    /// Stitches the member's sub-index from the minority codes plus the
    /// selected majority codes gathered from the spill.
    fn fit(&mut self, selected: &[usize], mut rng: SeededRng) -> Result<Box<dyn Model>, SpeError> {
        // Row order does not influence histogram training, and a sorted
        // copy turns the gather into one sequential scan.
        let mut sorted = selected.to_vec();
        sorted.sort_unstable();
        let (n_pos, d) = (self.n_pos, self.spill.d);
        let m = n_pos + sorted.len();
        let mut codes = vec![0u8; m * d];
        for f in 0..d {
            codes[f * m..f * m + n_pos]
                .copy_from_slice(&self.minority_codes[f * n_pos..(f + 1) * n_pos]);
        }
        self.spill.gather(&sorted, &mut codes, m, n_pos)?;
        let bins = BinIndex::from_parts(self.cuts.clone(), codes, m);
        let mut y = vec![POSITIVE; n_pos];
        y.resize(m, 0);
        let rows: Vec<u32> = (0..m as u32).collect();
        let problem = BinnedProblem {
            bins: &bins,
            y: &y,
            weights: None,
        };
        Ok(self
            .learner
            .fit_on_bins(&problem, &rows, rng.below(u32::MAX as usize) as u64))
    }

    /// Compiles the member against the grid and scores every spill block
    /// in place. There are no dense rows to fall back on, so a member
    /// that does not compile fails the fit.
    fn score(&mut self, model: &dyn Model, out: &mut [f64]) -> Result<(), SpeError> {
        let snapshot = model.snapshot().ok_or_else(|| {
            SpeError::InvalidConfig("model does not support snapshots, cannot bin-compile".into())
        })?;
        let scorer = BinScorer::compile(&snapshot, &self.cuts)?;
        self.spill.for_each_block(|start, rows, codes| {
            score_codes(
                &scorer,
                CodeView::new(codes, rows),
                &mut out[start..start + rows],
            );
            Ok(())
        })
    }
}

/// On-disk store of column-major u8 code blocks for the majority rows,
/// written once in pass 2 and scanned sequentially (gather + score)
/// every training round. Removed on drop.
struct CodeSpill {
    dir: PathBuf,
    path: PathBuf,
    d: usize,
    writer: Option<BufWriter<File>>,
    /// Rows of each block, in file order.
    block_rows: Vec<usize>,
    owns_dir: bool,
}

impl CodeSpill {
    /// A spill file in `dir`, or in a fresh directory under the system
    /// temp dir. Both names carry a process-wide counter, so concurrent
    /// fits in one process never share a file.
    fn create(dir: Option<&Path>, d: usize) -> Result<Self, SpeError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = dir.map_or_else(
            || std::env::temp_dir().join(format!("spe-oocore-{}-{n}", std::process::id())),
            Path::to_path_buf,
        );
        let owns_dir = !dir.exists();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("codes-{n}.spill"));
        let writer = BufWriter::new(File::create(&path)?);
        Ok(Self {
            dir,
            path,
            d,
            writer: Some(writer),
            block_rows: Vec::new(),
            owns_dir,
        })
    }

    fn append_block(&mut self, rows: usize, codes: &[u8]) -> Result<(), SpeError> {
        debug_assert_eq!(codes.len(), rows * self.d);
        let w = self.writer.as_mut().expect("spill already finished");
        w.write_all(codes)?;
        self.block_rows.push(rows);
        Ok(())
    }

    fn finish(&mut self) -> Result<(), SpeError> {
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        Ok(())
    }

    fn total_rows(&self) -> usize {
        self.block_rows.iter().sum()
    }

    fn bytes(&self) -> u64 {
        self.block_rows.iter().map(|&r| (r * self.d) as u64).sum()
    }

    /// Sequentially visits every block as `(start_row, rows, codes)`.
    fn for_each_block(
        &self,
        mut f: impl FnMut(usize, usize, &[u8]) -> Result<(), SpeError>,
    ) -> Result<(), SpeError> {
        // Every read is a whole block, so a buffered reader would only
        // add a copy (and a 1 MiB buffer per scan).
        let mut reader = File::open(&self.path)?;
        let mut buf: Vec<u8> = Vec::new();
        let mut start = 0usize;
        for &rows in &self.block_rows {
            buf.resize(rows * self.d, 0);
            reader.read_exact(&mut buf)?;
            f(start, rows, &buf)?;
            start += rows;
        }
        Ok(())
    }

    /// Copies the codes of `selected` (sorted ascending, global
    /// majority positions) into a column-major member buffer of `m`
    /// rows, placing selection `k` at row `dst_offset + k`.
    fn gather(
        &self,
        selected: &[usize],
        out: &mut [u8],
        m: usize,
        dst_offset: usize,
    ) -> Result<(), SpeError> {
        debug_assert!(selected.windows(2).all(|w| w[0] < w[1]));
        let d = self.d;
        let mut k = 0usize;
        self.for_each_block(|start, rows, codes| {
            let end = start + rows;
            while k < selected.len() && selected[k] < end {
                let local = selected[k] - start;
                for f in 0..d {
                    out[f * m + dst_offset + k] = codes[f * rows + local];
                }
                k += 1;
            }
            Ok(())
        })?;
        debug_assert_eq!(k, selected.len(), "selection outside the spill");
        Ok(())
    }
}

impl Drop for CodeSpill {
    fn drop(&mut self) {
        self.writer.take();
        let _ = fs::remove_file(&self.path);
        if self.owns_dir {
            let _ = fs::remove_dir(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlphaSchedule;
    use spe_data::{Dataset, DatasetChunks, SeededRng};
    use spe_learners::tree::{DecisionTreeConfig, SplitMethod};
    use spe_learners::SharedLearner;
    use std::sync::Arc;

    fn hist_base() -> SharedLearner {
        Arc::new(DecisionTreeConfig {
            split_method: SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        })
    }

    fn overlapping(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(n_pos + n_neg, 3);
        let mut y = Vec::new();
        for _ in 0..n_neg {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0), rng.uniform()]);
        }
        y.resize(y.len() + n_neg, 0);
        for _ in 0..n_pos {
            x.push_row(&[rng.normal(1.2, 1.0), rng.normal(1.2, 1.0), rng.uniform()]);
        }
        y.resize(y.len() + n_pos, 1);
        Dataset::new(x, y)
    }

    fn cfg(n: usize) -> SelfPacedEnsembleConfig {
        SelfPacedEnsembleConfig::with_base(n, hist_base())
    }

    #[test]
    fn trains_full_ensemble_from_chunks() {
        let d = overlapping(40, 800, 1);
        let mut src = DatasetChunks::new(&d, 97);
        let (m, report) = cfg(6)
            .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 2)
            .unwrap();
        assert_eq!(m.len(), 6);
        assert_eq!(m.alphas().len(), 6);
        assert!(m.fit_report().is_clean());
        assert_eq!(report.n_minority, 40);
        assert_eq!(report.n_majority, 800);
        assert_eq!(report.chunks, 9, "840 rows in 97-row chunks");
        assert_eq!(report.spill_bytes, 800 * 3);
        let p = m.predict_proba(d.x());
        assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn deterministic_and_chunk_size_invariant() {
        let d = overlapping(30, 500, 3);
        let fit = |chunk_rows: usize| {
            let mut src = DatasetChunks::new(&d, chunk_rows);
            cfg(4)
                .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 7)
                .unwrap()
                .0
                .predict_proba(d.x())
        };
        let a = fit(64);
        let b = fit(64);
        assert_eq!(a, b, "same chunking must be bit-identical");
        let c = fit(211);
        assert_eq!(a, c, "chunk size must not influence the model");
    }

    #[test]
    fn chunked_quality_close_to_in_memory_histogram_fit() {
        let train = overlapping(60, 1500, 5);
        let test = overlapping(60, 1500, 6);
        let in_mem = cfg(10).try_fit_dataset(&train, 11).unwrap();
        let mut src = DatasetChunks::new(&train, 128);
        let (chunked, _) = cfg(10)
            .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 11)
            .unwrap();
        let auc_mem = spe_metrics::aucprc(test.y(), &in_mem.predict_proba(test.x()));
        let auc_ch = spe_metrics::aucprc(test.y(), &chunked.predict_proba(test.x()));
        assert!(
            (auc_mem - auc_ch).abs() < 0.02,
            "in-memory {auc_mem:.4} vs chunked {auc_ch:.4}"
        );
    }

    #[test]
    fn rejects_non_histogram_base_and_impute_mean() {
        let d = overlapping(10, 100, 8);
        let mut src = DatasetChunks::new(&d, 32);
        let exact = SelfPacedEnsembleConfig::with_base(
            3,
            Arc::new(DecisionTreeConfig {
                split_method: SplitMethod::Exact,
                ..DecisionTreeConfig::default()
            }),
        );
        assert!(matches!(
            exact.try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 9),
            Err(SpeError::InvalidConfig(_))
        ));
        let impute = SelfPacedEnsembleConfig {
            sanitize: SanitizePolicy::ImputeMean,
            ..cfg(3)
        };
        assert!(matches!(
            impute.try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 9),
            Err(SpeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn single_class_streams_are_typed_errors() {
        let all_neg = Dataset::new(Matrix::zeros(20, 2), vec![0; 20]);
        let mut src = DatasetChunks::new(&all_neg, 7);
        assert_eq!(
            cfg(3)
                .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 1)
                .err(),
            Some(SpeError::EmptyClass { label: 1 })
        );
    }

    #[test]
    fn non_finite_rows_reject_or_drop_per_policy() {
        let mut d = overlapping(20, 200, 12);
        d.x_mut().row_mut(5)[1] = f64::NAN;
        let mut src = DatasetChunks::new(&d, 50);
        assert_eq!(
            cfg(3)
                .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 13)
                .err(),
            Some(SpeError::NonFiniteFeature { row: 5, col: 1 })
        );
        let dropping = SelfPacedEnsembleConfig {
            sanitize: SanitizePolicy::DropRows,
            ..cfg(3)
        };
        let mut src = DatasetChunks::new(&d, 50);
        let (m, report) = dropping
            .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 13)
            .unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(report.rows_dropped, 1);
        assert_eq!(report.rows, 219);
    }

    #[test]
    fn minority_cap_guards_the_imbalance_assumption() {
        let d = overlapping(100, 100, 14);
        let mut src = DatasetChunks::new(&d, 32);
        let opts = ChunkedFitOptions {
            max_minority_rows: 50,
            ..ChunkedFitOptions::default()
        };
        assert!(matches!(
            cfg(3).try_fit_chunked(&mut src, &opts, 15),
            Err(SpeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn uniform_schedule_works_chunked() {
        let d = overlapping(25, 300, 16);
        let mut src = DatasetChunks::new(&d, 64);
        let uniform = SelfPacedEnsembleConfig {
            alpha_schedule: AlphaSchedule::Uniform,
            ..cfg(4)
        };
        let (m, _) = uniform
            .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 17)
            .unwrap();
        assert_eq!(m.len(), 4);
        assert!(m.alphas()[1..].iter().all(|a| a.is_nan()));
    }

    #[test]
    fn chunk_rows_for_budget_accounting() {
        // 64 MiB, 30 features: half the budget across ~17·30 B/row.
        let rows = chunk_rows_for_budget(64 << 20, 30);
        assert_eq!(rows, (64 << 20) / (34 * 30));
        assert_eq!(chunk_rows_for_budget(0, 30), 256, "floored");
    }

    #[test]
    fn spills_in_one_dir_never_share_a_file() {
        let dir = std::env::temp_dir().join(format!("spe-spill-test-{}", std::process::id()));
        let mut a = CodeSpill::create(Some(&dir), 2).unwrap();
        let mut b = CodeSpill::create(Some(&dir), 2).unwrap();
        assert_ne!(a.path, b.path);
        a.append_block(3, &[1, 2, 3, 4, 5, 6]).unwrap();
        b.append_block(2, &[7, 8, 9, 10]).unwrap();
        a.finish().unwrap();
        b.finish().unwrap();
        drop(a);
        let mut blocks = Vec::new();
        b.for_each_block(|start, rows, codes| {
            blocks.push((start, rows, codes.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(blocks, [(0, 2, vec![7, 8, 9, 10])]);
        drop(b);
        fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn concurrent_same_seed_fits_match_a_sequential_fit() {
        let d = overlapping(400, 40_000, 18);
        let fit = || {
            let mut src = DatasetChunks::new(&d, 4_096);
            SelfPacedEnsembleConfig {
                runtime: spe_runtime::Runtime::with_threads(1),
                ..cfg(20)
            }
            .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 19)
            .map(|(m, _)| m.predict_proba(d.x()))
        };
        let sequential = fit().unwrap();
        // All four fits start together, so their spills overlap.
        let start = std::sync::Barrier::new(4);
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let fits: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        fit()
                    })
                })
                .collect();
            fits.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for result in concurrent {
            assert_eq!(result.unwrap(), sequential);
        }
    }
}
