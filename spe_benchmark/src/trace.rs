//! Spans recorded from outside the program.
//!
//! The traced run wraps the program's public extension points — the
//! base [`Learner`] (and the [`Model`]s it returns) and the
//! [`ChunkedSource`] a fit streams from — in delegating timers. They
//! change no argument and no result, so a traced fit is bit-identical
//! to an untraced one; they only record one span per call. Spans are
//! kept in memory and written out when the workload ends.

use spe_data::{Chunk, ChunkedSource, Matrix, MatrixView, SpeError};
use spe_learners::persist::ModelSnapshot;
use spe_learners::traits::{
    BinRequest, BinnedLearner, BinnedProblem, FeatureBound, Learner, Model, SharedLearner,
};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const LEARNER_FIT: &str = "spe_learners.fit";
pub const LEARNER_PREDICT: &str = "spe_learners.predict";
pub const SOURCE: &str = "spe_data.source";

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the operation's root span; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The fit or request this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rows the call handled (chunk rows, training rows, scored rows).
    pub rows: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store. Child spans are recorded only while an
/// operation is open, so calls made outside a measured operation (such
/// as held-out scoring) never pollute the trace.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// `(root span id, op id)` of the open operation; id 0 = none.
    open: Mutex<(u64, u64)>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            open: Mutex::new((0, 0)),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` as the root span `name` of operation `op`.
    pub fn op<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        *self.open.lock().expect("span store poisoned") = (id, op);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        *self.open.lock().expect("span store poisoned") = (0, 0);
        self.push(Span {
            id,
            parent: 0,
            name,
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            rows: 0,
        });
        out
    }

    /// Times `f` as a child of the open operation (untimed when none is
    /// open). `rows` reports the work the call did from its result.
    pub fn child<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        rows: impl Fn(&R) -> u64,
    ) -> R {
        let (parent, op) = *self.open.lock().expect("span store poisoned");
        if parent == 0 {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            rows: rows(&out),
        });
        out
    }

    /// Records a finished span measured by the caller (replays).
    pub fn record(&self, name: &'static str, op: u64, start: Instant, end: Instant, rows: u64) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            name,
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            rows,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"rows\":{}}}",
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns, s.rows
            )?;
        }
        out.flush()
    }
}

/// Summed child spans of one name within one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChildTotals {
    pub seconds: f64,
    pub calls: u64,
    /// Calls that handled at least one row.
    pub calls_with_rows: u64,
    pub rows: u64,
}

/// Per-operation totals derived from the span tree: the root's self
/// time (its duration minus the part its children cover — children of
/// one fit run one after another on the fitting thread, so they never
/// overlap) and each child name's totals.
#[derive(Clone, Debug, Default)]
pub struct OpTotals {
    pub self_s: f64,
    children: Vec<(&'static str, ChildTotals)>,
}

impl OpTotals {
    pub fn child(&self, name: &str) -> ChildTotals {
        self.children
            .iter()
            .find(|c| c.0 == name)
            .map_or(ChildTotals::default(), |c| c.1)
    }
}

/// Totals for every root span named `root`, in recording order.
pub fn op_totals(spans: &[Span], root: &str) -> Vec<OpTotals> {
    spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root)
        .map(|r| {
            let mut t = OpTotals::default();
            let mut covered = 0.0;
            for c in spans.iter().filter(|c| c.parent == r.id) {
                covered += c.seconds();
                let i = match t.children.iter().position(|e| e.0 == c.name) {
                    Some(i) => i,
                    None => {
                        t.children.push((c.name, ChildTotals::default()));
                        t.children.len() - 1
                    }
                };
                let e = &mut t.children[i].1;
                e.seconds += c.seconds();
                e.calls += 1;
                e.calls_with_rows += u64::from(c.rows > 0);
                e.rows += c.rows;
            }
            t.self_s = r.seconds() - covered;
            t
        })
        .collect()
}

/// A base learner that times every fit and wraps each trained member in
/// a [`TimedModel`].
pub struct TimedLearner {
    inner: SharedLearner,
    tracer: Arc<Tracer>,
}

impl TimedLearner {
    pub fn new(inner: SharedLearner, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn wrap(&self, model: Box<dyn Model>) -> Box<dyn Model> {
        Box::new(TimedModel {
            inner: model,
            tracer: Arc::clone(&self.tracer),
        })
    }
}

impl Learner for TimedLearner {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        let model = self.tracer.child(
            LEARNER_FIT,
            || self.inner.fit_weighted(x, y, weights, seed),
            |_| y.len() as u64,
        );
        self.wrap(model)
    }

    fn try_fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Result<Box<dyn Model>, SpeError> {
        let model = self.tracer.child(
            LEARNER_FIT,
            || self.inner.try_fit_weighted(x, y, weights, seed),
            |_| y.len() as u64,
        )?;
        Ok(self.wrap(model))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_binned(&self) -> Option<&dyn BinnedLearner> {
        self.inner.as_binned().map(|_| self as &dyn BinnedLearner)
    }
}

impl BinnedLearner for TimedLearner {
    fn bin_request(&self) -> Option<BinRequest> {
        self.inner.as_binned()?.bin_request()
    }

    fn fit_on_bins(&self, problem: &BinnedProblem<'_>, rows: &[u32], seed: u64) -> Box<dyn Model> {
        let inner = self
            .inner
            .as_binned()
            .expect("as_binned only offers the binned path when the inner learner has it");
        let model = self.tracer.child(
            LEARNER_FIT,
            || inner.fit_on_bins(problem, rows, seed),
            |_| rows.len() as u64,
        );
        self.wrap(model)
    }
}

/// A trained member that times every scoring call.
pub struct TimedModel {
    inner: Box<dyn Model>,
    tracer: Arc<Tracer>,
}

impl Model for TimedModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        self.tracer.child(
            LEARNER_PREDICT,
            || self.inner.predict_proba_view(x),
            |p| p.len() as u64,
        )
    }

    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        self.tracer.child(
            LEARNER_PREDICT,
            || self.inner.predict_proba_into(x, out),
            |_| x.rows() as u64,
        )
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn predict_proba_k_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        self.tracer.child(
            LEARNER_PREDICT,
            || self.inner.predict_proba_k_into(x, out),
            |_| x.rows() as u64,
        )
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        self.inner.snapshot()
    }

    fn feature_bound(&self) -> FeatureBound {
        self.inner.feature_bound()
    }
}

/// A chunk source that times every rewind and chunk read.
pub struct TimedSource<'a> {
    inner: &'a mut dyn ChunkedSource,
    tracer: Arc<Tracer>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn ChunkedSource, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl ChunkedSource for TimedSource<'_> {
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn chunk_rows(&self) -> usize {
        self.inner.chunk_rows()
    }

    fn total_rows_hint(&self) -> Option<u64> {
        self.inner.total_rows_hint()
    }

    fn reset(&mut self) -> Result<(), SpeError> {
        let inner = &mut *self.inner;
        self.tracer.child(SOURCE, || inner.reset(), |_| 0)
    }

    fn next_chunk(&mut self, out: &mut Chunk) -> Result<bool, SpeError> {
        let inner = &mut *self.inner;
        let (more, _) = self.tracer.child(
            SOURCE,
            || {
                let more = inner.next_chunk(&mut *out);
                (more, out.rows())
            },
            |r| r.1 as u64,
        );
        more
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_core::SelfPacedEnsembleConfig;
    use spe_data::DatasetChunks;
    use spe_learners::{DecisionTreeConfig, SplitMethod};

    fn tree(split_method: SplitMethod) -> SharedLearner {
        Arc::new(DecisionTreeConfig {
            max_depth: 6,
            min_samples_leaf: 4,
            split_method,
            ..DecisionTreeConfig::default()
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|p| p.to_bits()).collect()
    }

    fn data(seed: u64) -> spe_data::Dataset {
        let cfg = spe_datasets::StreamConfig {
            rows: 3_000,
            features: 4,
            minority_fraction: 0.05,
            chunk_rows: 700,
            ..spe_datasets::StreamConfig::default()
        };
        spe_datasets::SyntheticStream::materialize(cfg, seed)
    }

    #[test]
    fn timed_learner_leaves_fits_bit_identical() {
        let train = data(1);
        let test = data(2);
        for split in [SplitMethod::Exact, SplitMethod::Histogram] {
            let plain = SelfPacedEnsembleConfig::with_base(6, tree(split))
                .try_fit_dataset(&train, 7)
                .unwrap();
            let tracer = Tracer::new();
            let timed_base: SharedLearner =
                Arc::new(TimedLearner::new(tree(split), Arc::clone(&tracer)));
            let timed = tracer.op("fit", 1, || {
                SelfPacedEnsembleConfig::with_base(6, timed_base)
                    .try_fit_dataset(&train, 7)
                    .unwrap()
            });
            assert_eq!(
                bits(&plain.predict_proba(test.x())),
                bits(&timed.predict_proba(test.x())),
                "{split:?}"
            );
            let totals = op_totals(&tracer.spans(), "fit");
            assert_eq!(totals.len(), 1);
            assert_eq!(
                totals[0].child(LEARNER_FIT).calls,
                6,
                "one span per member fit"
            );
            let predict = totals[0].child(LEARNER_PREDICT);
            assert_eq!(predict.calls, 6, "each member rescores the majority once");
            assert_eq!(predict.rows, 6 * train.n_negative() as u64);
            assert!(totals[0].self_s >= 0.0);
        }
    }

    #[test]
    fn timed_source_leaves_chunked_fits_bit_identical() {
        let train = data(3);
        let test = data(4);
        let cfg = SelfPacedEnsembleConfig::with_base(5, tree(SplitMethod::Histogram));
        let dir = std::env::temp_dir().join(format!("spe-benchmark-trace-{}", std::process::id()));
        let opts = spe_core::ChunkedFitOptions {
            spill_dir: Some(dir.clone()),
            ..spe_core::ChunkedFitOptions::default()
        };
        let (plain, _) = cfg
            .try_fit_chunked(&mut DatasetChunks::new(&train, 700), &opts, 9)
            .unwrap();
        let tracer = Tracer::new();
        let mut chunks = DatasetChunks::new(&train, 700);
        let mut source = TimedSource::new(&mut chunks, Arc::clone(&tracer));
        let (timed, _) = tracer.op("fit", 1, || {
            cfg.try_fit_chunked(&mut source, &opts, 9).unwrap()
        });
        assert_eq!(
            bits(&plain.predict_proba(test.x())),
            bits(&timed.predict_proba(test.x()))
        );
        let totals = op_totals(&tracer.spans(), "fit");
        let source = totals[0].child(SOURCE);
        // Two passes of five chunks, each opened by a rewind and closed
        // by an empty read.
        assert_eq!(source.calls, 2 * (5 + 2));
        assert_eq!(source.calls_with_rows, 2 * 5);
        assert_eq!(source.rows, 2 * train.len() as u64);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn nothing_is_recorded_outside_an_operation() {
        let tracer = Tracer::new();
        let learner = TimedLearner::new(tree(SplitMethod::Exact), Arc::clone(&tracer));
        let d = data(5);
        let model = learner.fit(d.x(), d.y(), 1);
        let _ = model.predict_proba(d.x());
        assert!(tracer.spans().is_empty());
    }
}
