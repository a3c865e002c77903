//! The three fit workloads, run inside the measured child process.
//!
//! Each loads its input several times (set-up), fits once to warm up,
//! then fits repeatedly until the run's time is spent. The traced run
//! alternates untraced fits with fits through the timing wrappers, then
//! replays the public calls a fit makes (sanitize, bin index, hardness
//! sampling, sketching, encoding) on the same inputs, one caller at a
//! time, to split the fit's own time into layers.

use crate::metrics::Outcome;
use crate::stats::{median, repeat_setup, tail};
use crate::trace::{
    op_totals, OpTotals, TimedLearner, TimedSource, Tracer, LEARNER_FIT, LEARNER_PREDICT, SOURCE,
};
use crate::workloads::{nproc, peak_rss_bytes, Sizes, HELDOUT_CSV, SHARDS, SPILL, TRAIN_CSV};
use serde::Serialize;
use spe_core::{
    AlphaSchedule, BalancingSchedule, ChunkedFitOptions, HardnessFn, MultiClassSpeConfig,
    MultiClassStrategy, SelfPacedEnsembleConfig, SelfPacedSampler,
};
use spe_data::csv::read_dataset;
use spe_data::{
    encode_batch_into, BinIndex, Chunk, ChunkedSource, Dataset, Matrix, QuantileSketch,
    SanitizePolicy, Sanitizer, SeededRng, ShardReader, SpeError,
};
use spe_learners::traits::{Model, SharedLearner};
use spe_learners::{DecisionTreeConfig, SplitMethod};
use spe_metrics::{aucprc, MultiConfusion};
use spe_runtime::{fork_seed, Runtime};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timed fits per run at the least, whatever `--seconds` says.
const MIN_FITS: usize = 3;
/// Traced and untraced fits per traced run at the least.
const MIN_TRACED_FITS: usize = 2;
const FIT_ROOT: &str = "fit";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Skewed,
    Multiclass,
    Oocore,
}

impl Kind {
    pub fn parse(workload: &str) -> Option<Self> {
        match workload {
            "fit-skewed" => Some(Self::Skewed),
            "fit-multiclass" => Some(Self::Multiclass),
            "fit-oocore" => Some(Self::Oocore),
            _ => None,
        }
    }

    fn members(self, sizes: &Sizes) -> usize {
        match self {
            Self::Skewed => sizes.skewed_members,
            Self::Multiclass => sizes.multi_members,
            Self::Oocore => sizes.oocore_members,
        }
    }

    /// The base learner: histogram trees (depth 10, leaf 16) for the
    /// binary fits, default-split trees (depth 8, leaf 8) for the
    /// multi-class fit.
    fn base(self) -> SharedLearner {
        let cfg = match self {
            Self::Skewed | Self::Oocore => DecisionTreeConfig {
                max_depth: 10,
                min_samples_leaf: 16,
                split_method: SplitMethod::Histogram,
                ..DecisionTreeConfig::default()
            },
            Self::Multiclass => DecisionTreeConfig {
                max_depth: 8,
                min_samples_leaf: 8,
                ..DecisionTreeConfig::default()
            },
        };
        Arc::new(cfg)
    }
}

/// What the program was given: a loaded dataset, or an open shard set.
enum Input {
    Data(Dataset),
    Shards(ShardReader),
}

/// Program-side loading: `read_dataset` for in-memory fits; for the
/// out-of-core fit, `ShardReader::open` plus one verifying read of every
/// shard (checksum and header), the cold start of the chunk reader.
fn load(kind: Kind, dir: &Path) -> Result<Input, SpeError> {
    if kind == Kind::Oocore {
        let mut reader = ShardReader::open(&dir.join(SHARDS))?;
        let mut chunk = Chunk::new(reader.n_features());
        while reader.next_chunk(&mut chunk)? {}
        reader.reset()?;
        Ok(Input::Shards(reader))
    } else {
        Ok(Input::Data(read_dataset(&dir.join(TRAIN_CSV))?))
    }
}

struct Fitted {
    model: Box<dyn Model>,
    trained: usize,
    spill_bytes: u64,
}

fn fit(
    kind: Kind,
    sizes: &Sizes,
    input: &mut Input,
    tracer: Option<&Arc<Tracer>>,
    dir: &Path,
    seed: u64,
) -> Result<Fitted, SpeError> {
    let n = kind.members(sizes);
    let base = match tracer {
        Some(t) => Arc::new(TimedLearner::new(kind.base(), Arc::clone(t))) as SharedLearner,
        None => kind.base(),
    };
    let mut spe = SelfPacedEnsembleConfig::with_base(n, base);
    spe.runtime = Runtime::with_threads(nproc());
    match (kind, input) {
        (Kind::Skewed, Input::Data(data)) => {
            let model = spe.try_fit_dataset(data, seed)?;
            Ok(Fitted {
                trained: model.fit_report().n_trained(),
                model: Box::new(model),
                spill_bytes: 0,
            })
        }
        (Kind::Multiclass, Input::Data(data)) => {
            let model = MultiClassSpeConfig {
                binary: spe,
                strategy: MultiClassStrategy::Native,
                balancing: BalancingSchedule::Progressive,
            }
            .try_fit_dataset(data, seed)?;
            // The native loop fails the whole fit on any member fault.
            Ok(Fitted {
                model: Box::new(model),
                trained: n,
                spill_bytes: 0,
            })
        }
        (Kind::Oocore, Input::Shards(reader)) => {
            let opts = ChunkedFitOptions {
                spill_dir: Some(dir.join(SPILL)),
                ..ChunkedFitOptions::default()
            };
            let (model, report) = match tracer {
                Some(t) => {
                    let mut timed = TimedSource::new(reader, Arc::clone(t));
                    spe.try_fit_chunked(&mut timed, &opts, seed)?
                }
                None => spe.try_fit_chunked(reader, &opts, seed)?,
            };
            Ok(Fitted {
                trained: model.fit_report().n_trained(),
                model: Box::new(model),
                spill_bytes: report.spill_bytes,
            })
        }
        _ => unreachable!("load() pairs every kind with its input"),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

pub fn run(
    kind: Kind,
    sizes: &Sizes,
    dir: &Path,
    seed: u64,
    seconds: f64,
    tracer: Option<Arc<Tracer>>,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let fit_seed = fork_seed(seed, 0xF17);
    let members = kind.members(sizes);

    let (mut input, setup_s) = repeat_setup(|| load(kind, dir), drop)?;
    out.set("setup_s", setup_s);
    let train_rows = match &input {
        Input::Data(d) => d.len() as f64,
        Input::Shards(r) => r.manifest().total_rows as f64,
    };

    // Every fit must build the same model as the first, byte for byte.
    // Only the first model and the latest traced one are kept: holding
    // every repeat would make peak RSS grow with the number of fits a
    // run has time for.
    let mut first: Option<(Box<dyn Model>, Vec<u8>)> = None;
    let mut last_traced: Option<Box<dyn Model>> = None;
    let mut repeats_identical = true;
    let mut trained = (0usize, 0usize);
    let mut spill_bytes = 0;
    let mut record = |fitted: Result<Fitted, SpeError>, traced: bool, out: &mut Outcome| {
        out.attempted += members as u64;
        trained.1 += members;
        let f = match fitted {
            Ok(f) => f,
            Err(e) => {
                eprintln!("fit failed: {e}");
                out.failed += members as u64;
                return;
            }
        };
        out.failed += (members - f.trained) as u64;
        trained.0 += f.trained;
        spill_bytes = f.spill_bytes;
        let bytes = f.model.snapshot().map(|s| s.to_bytes());
        match &first {
            None => first = Some((f.model, bytes.unwrap_or_default())),
            Some((_, reference)) => {
                repeats_identical &= bytes.as_ref() == Some(reference);
                if traced {
                    last_traced = Some(f.model);
                }
            }
        }
    };

    // Warm-up fit: the first fit in a process is measurably slower
    // (page faults, allocator growth) and is not what a user repeating
    // fits sees.
    record(
        fit(kind, sizes, &mut input, None, dir, fit_seed),
        false,
        &mut out,
    );

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    for i in 0u64.. {
        let traced = tracer.as_ref().filter(|_| i % 2 == 1);
        let t = Instant::now();
        let fitted = match traced {
            Some(tr) => tr.op(FIT_ROOT, i, || {
                fit(kind, sizes, &mut input, Some(tr), dir, fit_seed)
            }),
            None => fit(kind, sizes, &mut input, None, dir, fit_seed),
        };
        let wall = t.elapsed().as_secs_f64();
        record(fitted, traced.is_some(), &mut out);
        if traced.is_some() {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        let enough = match tracer {
            Some(_) => walls.len().min(traced_walls.len()) >= MIN_TRACED_FITS,
            None => walls.len() >= MIN_FITS,
        };
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Memory of the fits alone: read before anything is loaded for the
    // held-out evaluation.
    let rss = peak_rss_bytes();
    out.set("peak_rss_mb", rss as f64 / (1024.0 * 1024.0));
    out.set("p50_ms", median(&walls) * 1e3);
    let t = tail(&walls);
    out.set("tail_ms", t.value * 1e3);
    out.set("rows_per_s", train_rows / median(&walls));
    eprintln!(
        "{} timed fits, median {:.1} ms, tail (p{}) {:.1} ms",
        walls.len(),
        median(&walls) * 1e3,
        t.percentile,
        t.value * 1e3
    );
    out.check(
        "every fit builds the same model as the first, byte for byte",
        repeats_identical,
    );
    let Some((model, _)) = first else {
        out.check("at least one fit succeeded", false);
        return Ok(out);
    };

    if let Some(tracer) = &tracer {
        per_layer(&mut out, kind, sizes, &mut input, tracer, &*model, fit_seed)?;
        out.set(
            "spe_core.members_trained_frac",
            trained.0 as f64 / trained.1 as f64,
        );
        out.set("spe_core.spill_bytes", spill_bytes as f64);
        out.set(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        if kind == Kind::Oocore {
            out.set(
                "spe_core.rss_budget_ratio",
                rss as f64 / sizes.oocore_budget_bytes as f64,
            );
        }
    }
    drop(input);

    // Held-out evaluation: quality of the first model, and a traced fit
    // must predict the same bits as an untraced one.
    let heldout = read_dataset(&dir.join(HELDOUT_CSV))?;
    let predict = |m: &dyn Model| {
        if kind == Kind::Multiclass {
            m.predict_proba_k(heldout.x())
        } else {
            m.predict_proba(heldout.x())
        }
    };
    let proba = predict(&*model);
    let (auc, f1) = quality(&heldout, &proba, model.n_classes());
    out.set("aucprc", auc);
    out.set("macro_f1", f1);
    if let Some(traced) = last_traced {
        out.check(
            "a traced fit predicts the held-out set bit-identically to an untraced one",
            bits(&predict(&*traced)) == bits(&proba),
        );
    }
    Ok(out)
}

/// Held-out AUCPRC (macro over classes for k > 2) and macro-F1 of the
/// argmax labels (threshold 0.5 for binary).
fn quality(data: &Dataset, proba: &[f64], k: usize) -> (f64, f64) {
    let y = data.y();
    if k == 2 {
        let pred: Vec<u8> = proba.iter().map(|&p| u8::from(p >= 0.5)).collect();
        return (
            aucprc(y, proba),
            MultiConfusion::from_labels(y, &pred, 2).macro_f1(),
        );
    }
    let pred: Vec<u8> = proba
        .chunks_exact(k)
        .map(|row| {
            let mut best = 0;
            for c in 1..k {
                if row[c] > row[best] {
                    best = c;
                }
            }
            best as u8
        })
        .collect();
    let auc = (0..k)
        .map(|c| {
            let yc: Vec<u8> = y.iter().map(|&l| u8::from(l as usize == c)).collect();
            let pc: Vec<f64> = proba.chunks_exact(k).map(|row| row[c]).collect();
            aucprc(&yc, &pc)
        })
        .sum::<f64>()
        / k as f64;
    (auc, MultiConfusion::from_labels(y, &pred, k).macro_f1())
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Layer split of a fit: the wrappers' spans, then single-caller
/// replays of the calls the fit makes itself.
fn per_layer(
    out: &mut Outcome,
    kind: Kind,
    sizes: &Sizes,
    input: &mut Input,
    tracer: &Arc<Tracer>,
    model: &dyn Model,
    seed: u64,
) -> Result<(), SpeError> {
    let totals = op_totals(&tracer.spans(), FIT_ROOT);
    let med = |f: &dyn Fn(&OpTotals) -> f64| median(&totals.iter().map(f).collect::<Vec<_>>());
    out.set("spe_learners.fit_s", med(&|t| t.child(LEARNER_FIT).seconds));
    out.set(
        "spe_learners.fit_calls",
        med(&|t| t.child(LEARNER_FIT).calls as f64),
    );
    out.set(
        "spe_learners.fit_rows",
        med(&|t| t.child(LEARNER_FIT).rows as f64),
    );
    out.set(
        "spe_learners.predict_s",
        med(&|t| t.child(LEARNER_PREDICT).seconds),
    );
    out.set(
        "spe_learners.predict_rows",
        med(&|t| t.child(LEARNER_PREDICT).rows as f64),
    );
    out.set("spe_data.source_s", med(&|t| t.child(SOURCE).seconds));
    out.set(
        "spe_data.source_chunks",
        med(&|t| t.child(SOURCE).calls_with_rows as f64),
    );
    let self_s = med(&|t| t.self_s);
    out.set("spe_core.self_s", self_s);

    let n = kind.members(sizes);
    let mut rng = SeededRng::new(seed);
    let sampler = SelfPacedSampler::default();
    let mut attributed = 0.0;
    match input {
        Input::Data(data) => {
            let (_, sanitize) = timed(|| Sanitizer::new(SanitizePolicy::Reject).sanitize(data));
            out.set("spe_data.sanitize_s", sanitize);
            attributed += sanitize;
            if kind == Kind::Skewed {
                let (_, bin) = timed(|| BinIndex::build(data.x(), max_bins_of(kind)));
                out.set("spe_data.bin_index_s", bin);
                attributed += bin;
                let idx = data.class_index();
                let proba = model.predict_proba(&data.x().select_rows(&idx.majority));
                let sample =
                    replay_binary_sampling(&proba, idx.minority.len(), n, &sampler, &mut rng);
                out.set("spe_core.sample_s", sample);
                attributed += sample;
            } else {
                let k = data.n_classes();
                let proba = model.predict_proba_k(data.x());
                let rows = data.per_class_indices();
                let counts = data.class_counts();
                let (_, sample) = timed(|| {
                    for i in 1..n {
                        let targets = BalancingSchedule::Progressive.targets(&counts, i, n);
                        for (c, rows) in rows.iter().enumerate() {
                            let h: Vec<f64> = rows
                                .iter()
                                .map(|&r| HardnessFn::AbsoluteError.eval_class(proba[r * k + c]))
                                .collect();
                            let alpha = AlphaSchedule::SelfPaced.alpha(i, n).unwrap_or(0.0);
                            std::hint::black_box(sampler.sample(&h, alpha, targets[c], &mut rng));
                        }
                    }
                });
                out.set("spe_core.sample_s", sample);
                attributed += sample;
            }
        }
        Input::Shards(reader) => {
            let (sketch, encode, majority_proba, n_pos) =
                replay_streaming(reader, model, max_bins_of(kind))?;
            out.set("spe_data.sketch_s", sketch);
            out.set("spe_data.encode_s", encode);
            let sample = replay_binary_sampling(&majority_proba, n_pos, n, &sampler, &mut rng);
            out.set("spe_core.sample_s", sample);
            attributed += sketch + encode + sample;
        }
    }
    out.set("spe_core.round_overhead_s", (self_s - attributed).max(0.0));
    Ok(())
}

fn max_bins_of(kind: Kind) -> usize {
    kind.base()
        .as_binned()
        .and_then(|b| b.bin_request())
        .map_or(256, |r| r.max_bins)
}

/// Hardness evaluation plus self-paced under-sampling of the majority
/// class, once per round after the first, against the final model's
/// majority probabilities.
fn replay_binary_sampling(
    majority_proba: &[f64],
    n_pos: usize,
    n: usize,
    sampler: &SelfPacedSampler,
    rng: &mut SeededRng,
) -> f64 {
    let labels = vec![0u8; majority_proba.len()];
    timed(|| {
        for i in 1..n {
            let alpha = AlphaSchedule::SelfPaced.alpha(i, n).unwrap_or(0.0);
            let h = HardnessFn::AbsoluteError.eval_batch(majority_proba, &labels);
            std::hint::black_box(sampler.sample(&h, alpha, n_pos, rng));
        }
    })
    .1
}

/// The streaming passes of an out-of-core fit, replayed: sketch every
/// feature of every chunk, then encode every chunk's majority rows
/// against the sketched grid. Also returns the final model's
/// probabilities for the majority rows and the minority count.
fn replay_streaming(
    reader: &mut ShardReader,
    model: &dyn Model,
    max_bins: usize,
) -> Result<(f64, f64, Vec<f64>, usize), SpeError> {
    let d = reader.n_features();
    let mut sketches: Vec<QuantileSketch> = (0..d)
        .map(|_| QuantileSketch::with_capacity(ChunkedFitOptions::default().sketch_capacity))
        .collect();
    let mut chunk = Chunk::new(d);
    let mut column = Vec::new();
    let mut sketch_s = 0.0;
    reader.reset()?;
    while reader.next_chunk(&mut chunk)? {
        for (f, sk) in sketches.iter_mut().enumerate() {
            column.clear();
            column.extend((0..chunk.rows()).map(|r| chunk.x().get(r, f)));
            sketch_s += timed(|| sk.insert_slice(&column)).1;
        }
    }
    let cuts: Vec<Vec<f64>> = sketches.iter().map(|s| s.cut_grid(max_bins)).collect();
    let mut encode_s = 0.0;
    let mut majority_proba = Vec::new();
    let mut n_pos = 0;
    let mut codes = Vec::new();
    reader.reset()?;
    while reader.next_chunk(&mut chunk)? {
        let majority: Vec<usize> = (0..chunk.rows()).filter(|&r| chunk.y()[r] == 0).collect();
        n_pos += chunk.rows() - majority.len();
        let maj: Matrix = chunk.x().select_rows(&majority);
        codes.resize(maj.rows() * d, 0);
        encode_s += timed(|| encode_batch_into(&cuts, maj.view(), &mut codes)).1;
        majority_proba.extend(model.predict_proba(&maj));
    }
    reader.reset()?;
    Ok((sketch_s, encode_s, majority_proba, n_pos))
}
