//! Multi-class self-paced ensembling.
//!
//! The paper defines SPE for binary imbalance, but the hardness-
//! harmonize loop generalizes to k classes once two knobs are made
//! class-aware (the IMBENS generalization): *which* per-class sample
//! counts each iteration trains on (a
//! [`BalancingSchedule`](crate::sampler::BalancingSchedule)), and *how*
//! hardness is measured (against the probability the running ensemble
//! assigns to a sample's own class,
//! [`HardnessFn::eval_class`](crate::hardness::HardnessFn::eval_class)).
//!
//! Two strategies are provided behind [`MultiClassStrategy`]:
//!
//! - **One-vs-rest** trains k independent binary SPEs, class `c` versus
//!   the rest, and normalizes their scores per row. Every sub-problem is
//!   exactly the paper's algorithm, so all binary machinery (retries,
//!   budget, binned fast path) applies unchanged.
//! - **Native** runs one joint loop: every iteration draws a per-class
//!   self-paced subset (per-class hardness bins, shared α), trains k
//!   one-vs-rest base fits on that *shared* subset, and accumulates raw
//!   scores. Members are regrouped per class at the end, so the final
//!   model shape is identical to one-vs-rest: per-class soft votes,
//!   normalized per row.
//!
//! Binary data (`k = 2`) always delegates to the plain
//! [`SelfPacedEnsemble`] — bit-exactly the paper's algorithm, and its
//! snapshots persist as ordinary binary `SelfPaced` envelopes.

use crate::ensemble::{SelfPacedEnsemble, SelfPacedEnsembleConfig};
use crate::report::{FitReport, MemberOutcome};
use crate::rounds::{ensure_finite, finish_report, member_slot};
use crate::sampler::{BalancingSchedule, SelfPacedSampler};
use spe_data::{Dataset, MatrixView, Sanitizer, SeededRng, SpeError};
use spe_learners::ensemble::SoftVoteEnsemble;
use spe_learners::multiclass::OneVsRestModel;
use spe_learners::persist::ModelSnapshot;
use spe_learners::traits::{shared_index, BinnedProblem, ConstantModel, FeatureBound, Model};
use spe_runtime::fork_seed;

/// How a k-class SPE decomposes the problem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MultiClassStrategy {
    /// K independent binary SPEs (class `c` vs rest), scores normalized
    /// per row. The default: every sub-problem is exactly Algorithm 1.
    #[default]
    OneVsRest,
    /// One joint self-paced loop with per-class balancing targets; each
    /// member is k one-vs-rest base fits on a shared resampled subset.
    Native,
}

/// Configuration for a k-class self-paced ensemble.
///
/// Wraps a binary [`SelfPacedEnsembleConfig`] (member count, bins,
/// hardness, base learner, α schedule, sanitize policy all reuse the
/// binary knobs) plus the two k-way knobs: decomposition strategy and
/// balancing schedule.
#[derive(Clone, Debug)]
pub struct MultiClassSpeConfig {
    /// Binary SPE hyper-parameters shared by both strategies.
    pub binary: SelfPacedEnsembleConfig,
    /// Problem decomposition (default: one-vs-rest).
    pub strategy: MultiClassStrategy,
    /// Per-class target counts per iteration — consumed by the native
    /// strategy's joint loop (one-vs-rest sub-problems follow the
    /// paper's `|N'| = |P|` rule instead). Default: uniform.
    pub balancing: BalancingSchedule,
}

impl Default for MultiClassSpeConfig {
    fn default() -> Self {
        Self {
            binary: SelfPacedEnsembleConfig::default(),
            strategy: MultiClassStrategy::default(),
            balancing: BalancingSchedule::Uniform,
        }
    }
}

impl MultiClassSpeConfig {
    /// K-class SPE with `n` members per (sub-)ensemble and defaults
    /// everywhere else.
    pub fn new(n_estimators: usize) -> Self {
        Self {
            binary: SelfPacedEnsembleConfig::new(n_estimators),
            ..Self::default()
        }
    }

    /// Sets the decomposition strategy.
    pub fn strategy(mut self, strategy: MultiClassStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the balancing schedule (native strategy).
    pub fn balancing(mut self, balancing: BalancingSchedule) -> Self {
        self.balancing = balancing;
        self
    }

    /// Trains a k-class SPE on `data` (k from
    /// [`Dataset::n_classes`]; labels must be dense class ids).
    ///
    /// `k = 2` always delegates to the plain binary
    /// [`SelfPacedEnsemble`] regardless of strategy — bit-exact with
    /// [`SelfPacedEnsembleConfig::try_fit_dataset`] at the same seed.
    pub fn try_fit_dataset(&self, data: &Dataset, seed: u64) -> Result<MultiClassSpe, SpeError> {
        let k = data.n_classes();
        let (inner, report) = match self.strategy {
            _ if k == 2 => {
                let spe = self.binary.try_fit_dataset(data, seed)?;
                let report = spe.fit_report().clone();
                (Box::new(spe) as Box<dyn Model>, report)
            }
            MultiClassStrategy::OneVsRest => self.fit_one_vs_rest(data, seed)?,
            MultiClassStrategy::Native => self.fit_native(data, seed)?,
        };
        Ok(MultiClassSpe {
            inner,
            n_classes: k,
            strategy: self.strategy,
            report,
        })
    }

    /// Panicking wrapper over [`Self::try_fit_dataset`].
    ///
    /// # Panics
    /// Panics with the error's `Display` output on the conditions
    /// [`Self::try_fit_dataset`] reports.
    pub fn fit_dataset(&self, data: &Dataset, seed: u64) -> MultiClassSpe {
        self.try_fit_dataset(data, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// One binary SPE per class (class `c` = positive, rest = negative),
    /// each seeded from an independent fork of `seed`. The report lists
    /// the sub-fits' slots class-major; the input, and so its sanitizer
    /// findings, is the same for every sub-fit.
    fn fit_one_vs_rest(
        &self,
        data: &Dataset,
        seed: u64,
    ) -> Result<(Box<dyn Model>, FitReport), SpeError> {
        let k = data.n_classes();
        let counts = data.class_counts();
        if let Some(missing) = counts.iter().position(|&c| c == 0) {
            return Err(SpeError::EmptyClass {
                label: missing as u8,
            });
        }
        let mut per_class: Vec<Box<dyn Model>> = Vec::with_capacity(k);
        let mut report = FitReport::default();
        for c in 0..k {
            let binary_y: Vec<u8> = data
                .y()
                .iter()
                .map(|&l| u8::from(l as usize == c))
                .collect();
            let sub = Dataset::new(data.x().clone(), binary_y);
            let spe = self
                .binary
                .try_fit_dataset(&sub, fork_seed(seed, 0x0C1A5500 + c as u64))?;
            let sub_report = spe.fit_report();
            report.members.extend_from_slice(&sub_report.members);
            report.sanitize = sub_report.sanitize.clone();
            report.budget_exhausted |= sub_report.budget_exhausted;
            per_class.push(Box::new(spe));
        }
        Ok((Box::new(OneVsRestModel::new(per_class)), report))
    }

    /// The joint k-way loop: per-iteration per-class self-paced
    /// subsets (schedule targets, k-way hardness), k one-vs-rest base
    /// fits per member on the shared subset, regrouped per class.
    ///
    /// Each member trains in a fault slot like a binary member. Its draw
    /// keeps its own RNG order — every class drawn from the round RNG,
    /// then a shuffle, members seeded from `fork_seed(seed, 0x3A71E000 +
    /// i)` — which is why it does not run on the binary round loop.
    /// When the base learner bins a subset of the member's size, the
    /// subset is binned once for all k class fits: a binned learner's
    /// `fit` is that index plus `fit_on_bins` over every row, and the
    /// index does not depend on the labels.
    fn fit_native(
        &self,
        data: &Dataset,
        seed: u64,
    ) -> Result<(Box<dyn Model>, FitReport), SpeError> {
        let cfg = &self.binary;
        cfg.validate()?;
        // Reject/repair dirty features and missing classes up front,
        // exactly like the binary path.
        let (clean, sanitize) = Sanitizer::new(cfg.sanitize).sanitize(data)?;
        let data = clean.as_ref();

        cfg.runtime.install(|| {
            cfg.budget.install(|| {
                let k = data.n_classes();
                let n = cfg.n_estimators;
                let class_rows = data.per_class_indices();
                let counts = data.class_counts();
                let sampler = SelfPacedSampler { k_bins: cfg.k_bins };
                let mut rng = SeededRng::new(seed);

                // Running sum of each member's *raw* one-vs-rest scores,
                // row-major [n_rows × k]. Normalizing a row of sums equals
                // normalizing the row of averages, so hardness is measured
                // against exactly the distribution the final model outputs.
                let mut score_sum = vec![0.0f64; data.len() * k];
                let mut members: Vec<Vec<Box<dyn Model>>> = Vec::with_capacity(n);
                let mut outcomes = Vec::with_capacity(n);

                for i in 0..n {
                    if !members.is_empty() && spe_runtime::budget_exceeded() {
                        outcomes.push(MemberOutcome::Skipped);
                        continue;
                    }
                    let targets = self.balancing.targets(&counts, i, n);

                    // Per-class subset selection (positions within each
                    // class's row list).
                    let mut subset_rows: Vec<usize> = Vec::new();
                    let alpha = cfg.alpha_schedule.alpha(i, n);
                    for (c, rows) in class_rows.iter().enumerate() {
                        if rows.is_empty() {
                            continue;
                        }
                        let selected: Vec<usize> = if members.is_empty() || alpha.is_none() {
                            // First member (line 2 of Algorithm 1) and the
                            // Uniform-ablation schedule: plain random.
                            rng.sample_indices(rows.len(), targets[c].min(rows.len()))
                        } else {
                            let hardness: Vec<f64> = rows
                                .iter()
                                .map(|&r| {
                                    let row = &score_sum[r * k..(r + 1) * k];
                                    let total: f64 = row.iter().sum();
                                    let p_true = if total > 0.0 {
                                        row[c] / total
                                    } else {
                                        1.0 / k as f64
                                    };
                                    cfg.hardness.eval_class(p_true)
                                })
                                .collect();
                            sampler
                                .sample(&hardness, alpha.unwrap_or(0.0), targets[c], &mut rng)
                                .selected
                        };
                        subset_rows.extend(selected.iter().map(|&s| rows[s]));
                    }

                    // Shuffle so batch-training base learners see mixed
                    // classes, then materialize the shared subset once.
                    rng.shuffle(&mut subset_rows);
                    let sub_x = data.x().select_rows(&subset_rows);
                    let sub_y: Vec<u8> = subset_rows.iter().map(|&r| data.y()[r]).collect();
                    // A base learner that bins a subset of this size bins
                    // it the same way for every class: build that index
                    // once for all k class fits.
                    let binned = shared_index(cfg.base.as_ref(), &sub_x, sub_y.len()).map(
                        |(learner, bins)| {
                            let rows: Vec<u32> = (0..sub_y.len() as u32).collect();
                            (learner, bins, rows)
                        },
                    );

                    // K one-vs-rest base fits on the shared subset, each
                    // scored and added to the running sums as it trains.
                    let first = fork_seed(seed, 0x3A71E000 + i as u64);
                    let (member, outcome) = member_slot(cfg, i, first, seed, |member_seed| {
                        let mut scorers: Vec<Box<dyn Model>> = Vec::with_capacity(k);
                        for c in 0..k {
                            let bin_y: Vec<u8> =
                                sub_y.iter().map(|&l| u8::from(l as usize == c)).collect();
                            let scorer: Box<dyn Model> = if !bin_y.contains(&1) {
                                Box::new(ConstantModel(0.0))
                            } else if !bin_y.contains(&0) {
                                Box::new(ConstantModel(1.0))
                            } else {
                                let class_seed = fork_seed(member_seed, c as u64);
                                match &binned {
                                    Some((learner, bins, rows)) => {
                                        let problem = BinnedProblem {
                                            bins,
                                            y: &bin_y,
                                            weights: None,
                                        };
                                        learner.fit_on_bins(&problem, rows, class_seed)
                                    }
                                    None => cfg.base.fit(&sub_x, &bin_y, class_seed),
                                }
                            };
                            let scores = scorer.predict_proba(data.x());
                            ensure_finite(&scores, || format!("member {i} class {c}"))?;
                            for (r, &p) in scores.iter().enumerate() {
                                score_sum[r * k + c] += p;
                            }
                            scorers.push(scorer);
                        }
                        Ok(scorers)
                    })?;
                    let faulted = outcome != MemberOutcome::Trained;
                    outcomes.push(outcome);
                    members.extend(member);
                    if faulted {
                        // A failed attempt may have added some of its
                        // scores: rebuild the sums from the accepted members
                        // — the same additions in the same order, so the
                        // same bits as a fault-free run.
                        score_sum.fill(0.0);
                        for (c, scorer) in members.iter().flat_map(|m| m.iter().enumerate()) {
                            for (r, p) in scorer.predict_proba(data.x()).into_iter().enumerate() {
                                score_sum[r * k + c] += p;
                            }
                        }
                    }
                }
                let report = finish_report(cfg, outcomes, sanitize)?;

                // Regroup member-major → class-major: class c's scorer is
                // the soft vote of every member's c-th fit.
                let mut by_class: Vec<Vec<Box<dyn Model>>> =
                    (0..k).map(|_| Vec::with_capacity(members.len())).collect();
                for member in members {
                    for (c, scorer) in member.into_iter().enumerate() {
                        by_class[c].push(scorer);
                    }
                }
                let per_class: Vec<Box<dyn Model>> = by_class
                    .into_iter()
                    .map(|ms| Box::new(SoftVoteEnsemble::new(ms)) as Box<dyn Model>)
                    .collect();
                Ok((
                    Box::new(OneVsRestModel::new(per_class)) as Box<dyn Model>,
                    report,
                ))
            })
        })
    }
}

/// A trained k-class self-paced ensemble.
///
/// For `k = 2` this wraps a plain binary [`SelfPacedEnsemble`]; for
/// `k > 2`, a per-class [`OneVsRestModel`] (either strategy). Snapshots
/// accordingly persist as binary `SelfPaced` or k-way `MultiClass`
/// envelopes.
pub struct MultiClassSpe {
    inner: Box<dyn Model>,
    n_classes: usize,
    strategy: MultiClassStrategy,
    report: FitReport,
}

impl std::fmt::Debug for MultiClassSpe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiClassSpe")
            .field("n_classes", &self.n_classes)
            .field("strategy", &self.strategy)
            .finish_non_exhaustive()
    }
}

impl MultiClassSpe {
    /// The strategy this model was trained with.
    pub fn strategy(&self) -> MultiClassStrategy {
        self.strategy
    }

    /// How the fit went: the native loop's own report, the binary
    /// report at `k = 2`, or the one-vs-rest sub-reports merged (slots
    /// class-major, budget flags OR-ed). Loaded models report
    /// empty-but-clean, like [`SelfPacedEnsemble::from_snapshot`].
    pub fn fit_report(&self) -> &FitReport {
        &self.report
    }

    /// Rebuilds a k-class SPE from a persisted snapshot: `MultiClass`
    /// restores the per-class model, `SelfPaced` restores the binary
    /// special case. Other kinds are a typed mismatch.
    pub fn from_snapshot(snapshot: ModelSnapshot) -> Result<Self, SpeError> {
        match snapshot {
            ModelSnapshot::MultiClass { per_class } => {
                let k = per_class.len();
                let scorers = per_class.into_iter().map(ModelSnapshot::restore).collect();
                Ok(Self {
                    inner: Box::new(OneVsRestModel::new(scorers)),
                    n_classes: k,
                    strategy: MultiClassStrategy::OneVsRest,
                    report: FitReport::default(),
                })
            }
            snap @ ModelSnapshot::SelfPaced { .. } => Ok(Self {
                inner: Box::new(SelfPacedEnsemble::from_snapshot(snap)?),
                n_classes: 2,
                strategy: MultiClassStrategy::OneVsRest,
                report: FitReport::default(),
            }),
            other => Err(SpeError::InvalidConfig(format!(
                "cannot rebuild a multi-class SPE from a {:?} snapshot",
                other.kind()
            ))),
        }
    }
}

impl Model for MultiClassSpe {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        self.inner.predict_proba_view(x)
    }

    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        self.inner.predict_proba_into(x, out);
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba_k_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        self.inner.predict_proba_k_into(x, out);
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        self.inner.snapshot()
    }

    fn feature_bound(&self) -> FeatureBound {
        self.inner.feature_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::Matrix;

    /// K Gaussian blobs on a ring with geometric per-class imbalance.
    fn blobs(k: usize, base: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(0, 2);
        let mut y = Vec::new();
        for c in 0..k {
            let n_c = (base >> c).max(12);
            let angle = c as f64 / k as f64 * std::f64::consts::TAU;
            let (cx, cy) = (2.2 * angle.cos(), 2.2 * angle.sin());
            for _ in 0..n_c {
                x.push_row(&[rng.normal(cx, 0.7), rng.normal(cy, 0.7)]);
                y.push(c as u8);
            }
        }
        Dataset::multiclass(x, y, k)
    }

    fn accuracy(model: &dyn Model, data: &Dataset) -> f64 {
        let pred = model.predict_class(data.x());
        let hits = pred.iter().zip(data.y()).filter(|(a, b)| a == b).count();
        hits as f64 / data.len() as f64
    }

    #[test]
    fn binary_data_delegates_bit_exactly() {
        let mut rng = SeededRng::new(3);
        let mut x = Matrix::with_capacity(0, 2);
        let mut y = Vec::new();
        for i in 0..300 {
            let label = u8::from(i % 10 == 0);
            let c = if label == 1 { 1.3 } else { -0.4 };
            x.push_row(&[rng.normal(c, 1.0), rng.normal(-c, 1.0)]);
            y.push(label);
        }
        let data = Dataset::new(x, y);
        for strategy in [MultiClassStrategy::OneVsRest, MultiClassStrategy::Native] {
            let mc = MultiClassSpeConfig::new(5)
                .strategy(strategy)
                .try_fit_dataset(&data, 42)
                .unwrap_or_else(|e| panic!("{e}"));
            let binary = SelfPacedEnsembleConfig::new(5)
                .try_fit_dataset(&data, 42)
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(mc.n_classes(), 2);
            assert_eq!(
                mc.predict_proba(data.x()),
                binary.predict_proba(data.x()),
                "{strategy:?} drifted from the binary path"
            );
            assert_eq!(mc.fit_report(), binary.fit_report());
        }
    }

    #[test]
    fn one_vs_rest_learns_separable_blobs() {
        let data = blobs(4, 240, 7);
        let model = MultiClassSpeConfig::new(8)
            .try_fit_dataset(&data, 1)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(model.n_classes(), 4);
        assert!(accuracy(&model, &data) > 0.8);
        // Rows are proper distributions.
        let proba = model.predict_proba_k(data.x());
        for row in proba.chunks_exact(4) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn native_strategy_learns_separable_blobs() {
        let data = blobs(4, 240, 9);
        for balancing in [
            BalancingSchedule::Uniform,
            BalancingSchedule::Progressive,
            BalancingSchedule::Custom(vec![60, 60, 40, 12]),
        ] {
            let model = MultiClassSpeConfig::new(8)
                .strategy(MultiClassStrategy::Native)
                .balancing(balancing.clone())
                .try_fit_dataset(&data, 2)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(
                accuracy(&model, &data) > 0.75,
                "{balancing:?} failed to learn"
            );
        }
    }

    #[test]
    fn fits_are_deterministic_in_the_seed() {
        let data = blobs(3, 160, 5);
        for strategy in [MultiClassStrategy::OneVsRest, MultiClassStrategy::Native] {
            let cfg = MultiClassSpeConfig::new(4).strategy(strategy);
            let a = cfg.try_fit_dataset(&data, 77).unwrap();
            let b = cfg.try_fit_dataset(&data, 77).unwrap();
            assert_eq!(
                a.predict_proba_k(data.x()),
                b.predict_proba_k(data.x()),
                "{strategy:?} not deterministic"
            );
        }
    }

    #[test]
    fn snapshot_round_trips_through_multiclass_envelope() {
        let data = blobs(3, 120, 11);
        for strategy in [MultiClassStrategy::OneVsRest, MultiClassStrategy::Native] {
            let model = MultiClassSpeConfig::new(3)
                .strategy(strategy)
                .try_fit_dataset(&data, 4)
                .unwrap();
            let snap = model.snapshot().unwrap_or_else(|| panic!("no snapshot"));
            assert_eq!(snap.kind(), "MultiClass");
            assert_eq!(snap.n_classes(), 3);
            let restored = MultiClassSpe::from_snapshot(snap).unwrap();
            assert_eq!(
                restored.predict_proba_k(data.x()),
                model.predict_proba_k(data.x()),
                "{strategy:?} snapshot drifted"
            );
        }
    }

    #[test]
    fn fit_report_covers_every_strategy() {
        let mut data = blobs(3, 160, 13);
        data.x_mut().row_mut(4)[1] = f64::NAN;
        let cfg = MultiClassSpeConfig {
            binary: SelfPacedEnsembleConfig {
                sanitize: spe_data::SanitizePolicy::ImputeMean,
                ..SelfPacedEnsembleConfig::new(4)
            },
            ..MultiClassSpeConfig::default()
        };
        let native = cfg
            .clone()
            .strategy(MultiClassStrategy::Native)
            .try_fit_dataset(&data, 5)
            .unwrap();
        let report = native.fit_report();
        assert_eq!(report.sanitize.imputed_cells, 1);
        assert_eq!(report.n_trained(), 4);
        // One-vs-rest: the k sub-reports, class-major.
        let ovr = cfg.try_fit_dataset(&data, 5).unwrap();
        assert_eq!(ovr.fit_report().members.len(), 3 * 4);
        assert_eq!(ovr.fit_report().sanitize.imputed_cells, 1);
        // Loaded models report empty-but-clean.
        let loaded = MultiClassSpe::from_snapshot(native.snapshot().unwrap()).unwrap();
        assert_eq!(loaded.fit_report(), &FitReport::default());
        // Native now validates like every other entry point.
        let too_many = MultiClassSpeConfig {
            binary: SelfPacedEnsembleConfig {
                min_members: 99,
                ..SelfPacedEnsembleConfig::new(6)
            },
            ..MultiClassSpeConfig::default()
        };
        assert!(matches!(
            too_many
                .strategy(MultiClassStrategy::Native)
                .try_fit_dataset(&data, 5),
            Err(SpeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn missing_class_is_a_typed_error() {
        let x = Matrix::zeros(4, 1);
        let d = Dataset::multiclass(x, vec![0, 0, 1, 1], 3);
        for strategy in [MultiClassStrategy::OneVsRest, MultiClassStrategy::Native] {
            let err = MultiClassSpeConfig::new(2)
                .strategy(strategy)
                .try_fit_dataset(&d, 0)
                .unwrap_err();
            assert_eq!(err, SpeError::EmptyClass { label: 2 }, "{strategy:?}");
        }
    }
}
