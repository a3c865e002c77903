//! Workload sizes and input preparation.
//!
//! Inputs are made from the run's seed before the measured child starts
//! and written to the run's work directory: CSV files, SPSH shards and
//! a SPEM model — the program only ever sees these files.

use spe_core::{chunk_rows_for_budget, SelfPacedEnsembleConfig};
use spe_data::csv::write_dataset;
use spe_data::{pack_source, Dataset, DatasetChunks};
use spe_datasets::{
    credit_fraud_sim, multiclass_checkerboard, MultiClassCheckerboardConfig, StreamConfig,
    SyntheticStream,
};
use spe_runtime::{fork_seed, Runtime};
use std::error::Error;
use std::path::Path;

pub const TRAIN_CSV: &str = "train.csv";
pub const HELDOUT_CSV: &str = "heldout.csv";
pub const SHARDS: &str = "shards";
pub const SPILL: &str = "spill";
pub const MODEL: &str = "model.spe";

/// Problem sizes, chosen so a 2-core machine runs one fit in roughly a
/// second and a whole run (inputs, set-up, measurement, checks) in
/// under half a minute. `--smoke` shrinks everything for a quick check.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// fit-skewed: rows of a 10-feature board (2 informative + 8 noise
    /// features) at imbalance ratio 100, and ensemble members.
    pub skewed_rows: u64,
    pub skewed_members: usize,
    /// fit-multiclass: per-class counts of a 4-class board, members.
    pub multi_counts: Vec<usize>,
    pub multi_members: usize,
    /// fit-oocore: rows of the credit-fraud simulator (30 features,
    /// imbalance ratio about 580), the chunk budget they are packed and
    /// fit under, and members.
    pub oocore_rows: usize,
    pub oocore_budget_bytes: usize,
    pub oocore_members: usize,
    /// Held-out rows drawn from each fit workload's distribution.
    pub heldout_rows: usize,
    /// score-*: rows of the credit-fraud simulator the served model is
    /// fit on, held-out rows the load is built from, and members of the
    /// served model.
    pub score_train_rows: usize,
    pub score_heldout_rows: usize,
    pub score_members: usize,
    /// Seconds of each scoring run spent warming up before timing.
    pub warmup_s: f64,
    /// score-small: offered rate, requests per second.
    pub small_rate: f64,
}

impl Sizes {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                skewed_rows: 20_200,
                skewed_members: 10,
                multi_counts: vec![4_000, 1_000, 250, 64],
                multi_members: 5,
                oocore_rows: 20_000,
                oocore_budget_bytes: 1 << 20,
                oocore_members: 10,
                heldout_rows: 5_000,
                score_train_rows: 5_000,
                score_heldout_rows: 2_048,
                score_members: 10,
                warmup_s: 0.2,
                small_rate: 200.0,
            }
        } else {
            Self {
                skewed_rows: 242_400,
                skewed_members: 50,
                multi_counts: vec![50_000, 12_500, 3_125, 781],
                multi_members: 20,
                oocore_rows: 200_000,
                oocore_budget_bytes: 8 << 20,
                oocore_members: 50,
                heldout_rows: 100_000,
                score_train_rows: 100_000,
                score_heldout_rows: 50_000,
                score_members: 50,
                warmup_s: 1.0,
                small_rate: 400.0,
            }
        }
    }

    pub fn oocore_chunk_rows(&self) -> usize {
        chunk_rows_for_budget(self.oocore_budget_bytes, OOCORE_FEATURES)
    }
}

const SKEWED_FEATURES: usize = 10;
/// Width of the credit-fraud simulator's rows.
const OOCORE_FEATURES: usize = 30;

/// The fit-skewed board: two informative features on a 3×3 board of
/// tight cells (covariance 0.02) plus eight noise features, one
/// minority row per hundred majority rows. This keeps held-out quality
/// steady from seed to seed: on the default 4×4 board no single split
/// of an informative feature gains anything, so greedy trees sometimes
/// split on noise and some seeds fit a useless ensemble, and at
/// covariance 0.1 quality swings by a third between seeds.
fn skewed_board(rows: u64) -> StreamConfig {
    StreamConfig {
        rows,
        features: SKEWED_FEATURES,
        minority_fraction: 1.0 / 101.0,
        chunk_rows: 65_536,
        grid: 3,
        cov: 0.02,
    }
}

/// Training and held-out rows of one credit-fraud draw: the simulator
/// draws its feature mixing per seed, so held-out rows must share it.
fn fraud(train_rows: usize, heldout_rows: usize, seed: u64) -> (Dataset, Dataset) {
    let all = credit_fraud_sim(train_rows + heldout_rows, seed);
    let train = all.select(&(0..train_rows).collect::<Vec<_>>());
    let heldout = all.select(&(train_rows..train_rows + heldout_rows).collect::<Vec<_>>());
    (train, heldout)
}

fn multiclass_board(counts: &[usize]) -> MultiClassCheckerboardConfig {
    MultiClassCheckerboardConfig {
        grid: 4,
        class_counts: counts.to_vec(),
        cov: 0.1,
    }
}

/// Available hardware threads; every parallel knob is sized to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process (VmHWM), bytes; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Writes the inputs of `workload` for `seed` into `dir`.
pub fn prepare(workload: &str, sizes: &Sizes, seed: u64, dir: &Path) -> Result<(), Box<dyn Error>> {
    std::fs::create_dir_all(dir)?;
    let train_seed = fork_seed(seed, 1);
    let heldout_seed = fork_seed(seed, 2);
    match workload {
        "fit-skewed" => {
            let board = skewed_board(sizes.skewed_rows);
            write_dataset(
                &dir.join(TRAIN_CSV),
                &SyntheticStream::materialize(board, train_seed),
            )?;
            let board = skewed_board(sizes.heldout_rows as u64);
            write_dataset(
                &dir.join(HELDOUT_CSV),
                &SyntheticStream::materialize(board, heldout_seed),
            )?;
        }
        "fit-multiclass" => {
            let board = multiclass_board(&sizes.multi_counts);
            write_dataset(
                &dir.join(TRAIN_CSV),
                &multiclass_checkerboard(&board, train_seed),
            )?;
            write_dataset(
                &dir.join(HELDOUT_CSV),
                &multiclass_checkerboard(&board, heldout_seed),
            )?;
        }
        "fit-oocore" => {
            let (train, heldout) = fraud(sizes.oocore_rows, sizes.heldout_rows, train_seed);
            let chunk_rows = sizes.oocore_chunk_rows();
            pack_source(
                &mut DatasetChunks::new(&train, chunk_rows),
                &dir.join(SHARDS),
                chunk_rows,
            )?;
            write_dataset(&dir.join(HELDOUT_CSV), &heldout)?;
        }
        "score-small" | "score-bulk" => {
            let (train, heldout) =
                fraud(sizes.score_train_rows, sizes.score_heldout_rows, train_seed);
            let mut spe = SelfPacedEnsembleConfig::new(sizes.score_members);
            spe.runtime = Runtime::with_threads(nproc());
            let model = spe.try_fit_dataset(&train, fork_seed(seed, 3))?;
            spe_serve::save_model(&dir.join(MODEL), &model, Vec::new())?;
            write_dataset(&dir.join(HELDOUT_CSV), &heldout)?;
        }
        other => return Err(format!("unknown workload {other}").into()),
    }
    Ok(())
}
