//! The self-paced round loop and the per-member fault contract.
//!
//! [`fit_rounds`] is Algorithm 1 for binary fits, once, over a
//! [`RowStore`]: the in-memory fit's dense class blocks and shared bin
//! index, or the out-of-core fit's spilled majority codes. The store
//! trains a member on `P ∪ N'` and scores every majority row; the loop
//! owns the rest — budget skips, hardness, α and the draw, running sums
//! and the optional [`FitTrace`]. [`member_slot`] isolates one member
//! for every fit, the native k-way loop included, and [`finish_report`]
//! turns the slot outcomes into a [`FitReport`] or a typed failure.

use crate::ensemble::{FitTrace, SelfPacedEnsemble, SelfPacedEnsembleConfig};
use crate::hardness::HardnessFn;
use crate::report::{FitReport, MemberOutcome};
use crate::sampler::{DrawBuffers, SelfPacedSampler};
use spe_data::{SanitizeReport, SeededRng, SpeError};
use spe_learners::binspace::{BinScorer, CodeView};
use spe_learners::traits::Model;
use spe_runtime::{fork_seed, panic_message};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Where a binary fit's rows live. Selections and scores address the
/// majority rows by position, `0..n_majority`.
pub(crate) trait RowStore {
    /// `(|P|, |N|)`: the minority and majority row counts.
    fn class_counts(&self) -> (usize, usize);

    /// Trains one member on every minority row plus the majority
    /// positions `selected`, drawing its randomness from `rng`.
    fn fit(&mut self, selected: &[usize], rng: SeededRng) -> Result<Box<dyn Model>, SpeError>;

    /// Writes `model`'s positive-class probability for every majority
    /// row into `out`.
    fn score(&mut self, model: &dyn Model, out: &mut [f64]) -> Result<(), SpeError>;
}

/// Runs the `n_estimators` rounds of Algorithm 1 over `store`. `warm`,
/// when present, is the hardness of every majority row under a live
/// model and drives member 0's draw; `trace` records every accepted
/// round. On the healthy path the round RNG advances exactly as in the
/// sequential paper loop and member `i` trains from `rng.fork(i)`.
/// Once a member is accepted, one parallel pass ([`hardness_pass`])
/// adds its scores to the running sums and leaves the next round's
/// hardness and its range for the draw.
pub(crate) fn fit_rounds(
    cfg: &SelfPacedEnsembleConfig,
    store: &mut impl RowStore,
    seed: u64,
    warm: Option<&[f64]>,
    mut trace: Option<&mut FitTrace>,
    sanitize: SanitizeReport,
) -> Result<SelfPacedEnsemble, SpeError> {
    let (n_pos, n_neg) = store.class_counts();
    let n = cfg.n_estimators;
    let sampler = SelfPacedSampler { k_bins: cfg.k_bins };
    let mut rng = SeededRng::new(seed);
    let mut models: Vec<Box<dyn Model>> = Vec::with_capacity(n);
    let mut alphas = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    // Running sum of majority probabilities: after i members,
    // F_i(x) = sum / i, with no rescoring of earlier members.
    let mut proba_sum = vec![0.0_f64; n_neg];
    // The round's hardness until the draw is made, then the new
    // member's majority scores, then — once the member is accepted —
    // the hardness under the grown ensemble, for the next round.
    let mut buf = vec![0.0_f64; n_neg];
    // Whether `buf` holds hardness under the current ensemble (no
    // attempt has written scores into it since), and its range when
    // every value is finite. Without a range the draw scans `buf`
    // itself, rejecting a non-finite value as it always has.
    let mut fresh = false;
    let mut range: Option<(f64, f64)> = None;
    let mut draw = DrawBuffers::default();

    for i in 0..n {
        // Once the budget trips, remaining slots are skipped — except
        // while no member has trained, so `min_members = 1` can succeed.
        if !models.is_empty() && spe_runtime::budget_exceeded() {
            outcomes.push(MemberOutcome::Skipped);
            continue;
        }

        // Hardness w.r.t. the current ensemble F_i (lines 4–5): the pass
        // after the last accepted member left it in `buf`, unless a
        // dropped slot wrote its scores there since. A warm refit takes
        // member 0's from the live model.
        let hardness: Option<&[f64]> = if !models.is_empty() {
            if !fresh {
                range = hardness_pass(cfg.hardness, &mut proba_sum, &mut buf, models.len(), false);
            }
            Some(&buf)
        } else if i == 0 {
            warm
        } else {
            None
        };
        // Self-paced under-sampling (lines 6–9), random under-sampling
        // without hardness (line 2), or the ablated α schedules.
        let (selected, alpha) = match hardness.map(|h| (h, cfg.alpha_schedule.alpha(i, n))) {
            Some((h, Some(alpha))) => (
                sampler
                    .sample_in(h, range, alpha, n_pos, &mut rng, &mut draw)
                    .selected,
                alpha,
            ),
            Some((_, None)) => (rng.sample_indices(n_neg, n_pos.min(n_neg)), f64::NAN),
            None => (rng.sample_indices(n_neg, n_pos.min(n_neg)), 0.0),
        };
        let traced = trace.as_ref().and(hardness).map(<[f64]>::to_vec);

        // Train f_i on P ∪ N' (line 10) and score the majority rows.
        fresh = false;
        let (model, outcome) = member_slot(cfg, i, rng.child_seed(i as u64), seed, |attempt| {
            let model = store.fit(&selected, SeededRng::new(attempt))?;
            store.score(model.as_ref(), &mut buf)?;
            ensure_finite(&buf, || format!("member {i}"))?;
            Ok(model)
        })?;
        outcomes.push(outcome);
        if let Some(model) = model {
            models.push(model);
            alphas.push(alpha);
            range = hardness_pass(cfg.hardness, &mut proba_sum, &mut buf, models.len(), true);
            fresh = true;
            if let Some(t) = trace.as_deref_mut() {
                t.selections.push(selected);
                t.hardness.extend(traced);
            }
        }
    }
    SelfPacedEnsemble::from_members(models, alphas, finish_report(cfg, outcomes, sanitize)?)
}

/// Trains one member slot under the fault contract. Attempt 0 runs with
/// seed `first`; retry `a` with `fork_seed(fork_seed(retry_root, i), a)`,
/// where `retry_root = fork_seed(fit_seed, 0xFA01)` is a chain apart
/// from the round RNG, so retries never shift later members. A panic or
/// a [`SpeError::NonFiniteOutput`] fails only the attempt, and the slot
/// drops after `max_member_retries` retries; any other error aborts the
/// fit.
pub(crate) fn member_slot<T>(
    cfg: &SelfPacedEnsembleConfig,
    i: usize,
    first: u64,
    fit_seed: u64,
    mut attempt: impl FnMut(u64) -> Result<T, SpeError>,
) -> Result<(Option<T>, MemberOutcome), SpeError> {
    let chain = fork_seed(fork_seed(fit_seed, 0xFA01), i as u64);
    let mut a = 0;
    loop {
        let seed = if a == 0 {
            first
        } else {
            fork_seed(chain, a as u64)
        };
        let error = match catch_unwind(AssertUnwindSafe(|| attempt(seed))) {
            Ok(Ok(value)) if a == 0 => return Ok((Some(value), MemberOutcome::Trained)),
            Ok(Ok(value)) => return Ok((Some(value), MemberOutcome::Retried { attempts: a + 1 })),
            Ok(Err(e @ SpeError::NonFiniteOutput { .. })) => e,
            Ok(Err(e)) => return Err(e),
            Err(payload) => SpeError::Panicked {
                context: format!("member {i}"),
                message: panic_message(payload.as_ref()),
            },
        };
        if a == cfg.max_member_retries {
            return Ok((None, MemberOutcome::Dropped { error }));
        }
        a += 1;
    }
}

/// Majority rows per task of the round loop's passes over them: the
/// hardness pass, the draw's count and scatter, and the in-memory
/// store's gather of their scores.
pub(crate) const ROUND_BLOCK: usize = 16_384;

/// The round loop's pass over the majority rows, in parallel blocks:
/// when `add` is set it first adds the newest member's scores, held in
/// `buf`, to the running sums; then it writes every row's hardness
/// under the ensemble of `members` members into `buf` and returns the
/// hardness range, `None` when a value is not finite. Each row's values
/// depend on that row alone, and the minimum and maximum of finite
/// values do not depend on grouping (but for the sign of a zero bound,
/// which moves no bin: it changes `h − lo` and `hi − lo` at most in the
/// sign of a zero), so the result is the same for every thread count.
fn hardness_pass(
    hardness: HardnessFn,
    sums: &mut [f64],
    buf: &mut [f64],
    members: usize,
    add: bool,
) -> Option<(f64, f64)> {
    let inv = 1.0 / members as f64;
    let empty = (f64::INFINITY, f64::NEG_INFINITY, true);
    let mut blocks: Vec<_> = sums
        .chunks_mut(ROUND_BLOCK)
        .zip(buf.chunks_mut(ROUND_BLOCK))
        .map(|(s, b)| (s, b, empty))
        .collect();
    spe_runtime::par_for_each_mut(&mut blocks, |_, (sums, buf, range)| {
        for (s, b) in sums.iter_mut().zip(buf.iter_mut()) {
            if add {
                *s += *b;
            }
            *b = hardness.eval(*s * inv, 0);
        }
        *range = buf.iter().fold(*range, |(lo, hi, finite), &h| {
            (lo.min(h), hi.max(h), finite & h.is_finite())
        });
    });
    let (lo, hi, finite) = blocks
        .iter()
        .fold(empty, |(lo, hi, finite), &(_, _, (l, h, f))| {
            (lo.min(l), hi.max(h), finite & f)
        });
    finite.then_some((lo, hi))
}

/// The member-level non-finite check: a NaN or infinite score fails the
/// attempt with [`SpeError::NonFiniteOutput`]. The check folds without
/// stopping early, so it vectorizes.
pub(crate) fn ensure_finite(
    scores: &[f64],
    context: impl FnOnce() -> String,
) -> Result<(), SpeError> {
    if scores.iter().fold(true, |finite, p| finite & p.is_finite()) {
        Ok(())
    } else {
        Err(SpeError::NonFiniteOutput { context: context() })
    }
}

/// Builds the [`FitReport`], failing with [`SpeError::TrainingFailed`]
/// when fewer than `min_members` slots trained.
pub(crate) fn finish_report(
    cfg: &SelfPacedEnsembleConfig,
    members: Vec<MemberOutcome>,
    sanitize: SanitizeReport,
) -> Result<FitReport, SpeError> {
    let report = FitReport {
        members,
        sanitize,
        budget_exhausted: spe_runtime::budget_exceeded(),
    };
    let (trained, required) = (report.n_trained(), cfg.min_members.max(1));
    if trained < required {
        return Err(SpeError::TrainingFailed { trained, required });
    }
    Ok(report)
}

/// Fewest rows one parallel scoring task takes: a multiple of the
/// kernels' 16-row lane groups, large enough to amortize the dispatch.
const MIN_SCORE_ROWS: usize = 4096;

/// Scores rows `0..out.len()` of `codes` into `out`, split into
/// 16-row-aligned ranges across the runtime. Every row's score depends
/// on that row alone, so the result is the same for every thread count.
pub(crate) fn score_codes(scorer: &BinScorer, codes: CodeView<'_>, out: &mut [f64]) {
    let per_task = out
        .len()
        .div_ceil(4 * spe_runtime::current_threads())
        .next_multiple_of(16)
        .max(MIN_SCORE_ROWS);
    let mut parts: Vec<&mut [f64]> = out.chunks_mut(per_task).collect();
    spe_runtime::par_for_each_mut(&mut parts, |i, part| {
        let start = i * per_task;
        scorer.score_into(codes, start..start + part.len(), part);
    });
}
