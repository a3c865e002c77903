//! The self-paced under-sampling step (Algorithm 1, lines 5–9).
//!
//! Given the hardness of every majority sample, the sampler bins them,
//! weights bin ℓ by `p_ℓ = 1 / (h_ℓ + α)` and draws a per-bin quota
//! proportional to `p_ℓ`, without replacement. Quotas exceeding a bin's
//! population are redistributed to the remaining bins (largest-remainder
//! style), matching the authors' reference implementation and keeping
//! the subset size at the target whenever enough majority samples exist.

use crate::bins::HardnessGrid;
use crate::rounds::ROUND_BLOCK;
use spe_data::SeededRng;

/// Self-paced factor `α = tan(i·π / 2n)` for iteration `i` of `n`
/// (Algorithm 1, line 7). `i = 0` gives 0; `i → n` diverges, so callers
/// use `i ∈ [0, n−1]`.
pub fn self_paced_factor(iteration: usize, n_estimators: usize) -> f64 {
    assert!(n_estimators > 0, "need at least one estimator");
    let ratio = iteration as f64 / n_estimators as f64;
    (ratio * std::f64::consts::FRAC_PI_2).tan()
}

/// How α evolves across iterations — the ablation axis of `DESIGN.md`.
///
/// The paper's Algorithm 1 uses [`AlphaSchedule::SelfPaced`]; the other
/// variants isolate the contribution of each ingredient:
///
/// - `Constant(0.0)` — pure hardness harmonization at every iteration
///   (the paper's Fig. 3(b) regime, which "still leaves a lot of trivial
///   samples"),
/// - `Constant(large)` — near-uniform bin weights from the start (easy
///   skeleton dominates, hard samples never get focus),
/// - `Uniform` — skip hardness entirely and under-sample uniformly at
///   random each iteration (reduces SPE to UnderBagging).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlphaSchedule {
    /// Paper schedule: `α = tan(iπ/2n)`.
    SelfPaced,
    /// Fixed α at every self-paced iteration.
    Constant(f64),
    /// Ignore hardness; uniform random majority subsets.
    Uniform,
}

impl AlphaSchedule {
    /// The α used at iteration `i` of `n`, or `None` for uniform random
    /// sampling.
    pub fn alpha(self, iteration: usize, n_estimators: usize) -> Option<f64> {
        match self {
            AlphaSchedule::SelfPaced => Some(self_paced_factor(iteration, n_estimators)),
            AlphaSchedule::Constant(a) => Some(a),
            AlphaSchedule::Uniform => None,
        }
    }
}

/// How many samples of each class a multi-class self-paced iteration
/// trains on — the k-way generalization of the paper's "|P| majority
/// samples" rule (which is exactly [`BalancingSchedule::Uniform`] at
/// `k = 2`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BalancingSchedule {
    /// Every class is under-sampled to the smallest class's count at
    /// every iteration — fully balanced subsets throughout.
    Uniform,
    /// Linear interpolation from the original class distribution toward
    /// the uniform target as iterations progress: iteration `i` of `n`
    /// uses fraction `(i + 1) / n` of the way to balanced. Early members
    /// see (near-)original skew, late members see balanced data —
    /// self-pacing applied to the class distribution itself.
    Progressive,
    /// Explicit per-class target counts (length `k`), each clamped to
    /// the class's available count at draw time.
    Custom(Vec<usize>),
}

impl BalancingSchedule {
    /// Per-class target counts for iteration `i` of `n`, given the
    /// observed per-class `counts`.
    ///
    /// Targets never exceed the observed counts and never drop below 1
    /// for a non-empty class (a class must not vanish from a subset).
    ///
    /// # Panics
    /// Panics when `n == 0`, `i >= n`, or a `Custom` schedule's length
    /// disagrees with `counts.len()`.
    pub fn targets(&self, counts: &[usize], iteration: usize, n_estimators: usize) -> Vec<usize> {
        assert!(n_estimators > 0, "need at least one estimator");
        assert!(
            iteration < n_estimators,
            "iteration {iteration} out of range for {n_estimators} estimators"
        );
        let min_count = counts.iter().copied().filter(|&c| c > 0).min().unwrap_or(0);
        match self {
            BalancingSchedule::Uniform => counts
                .iter()
                .map(|&c| if c == 0 { 0 } else { min_count })
                .collect(),
            BalancingSchedule::Progressive => {
                let t = (iteration + 1) as f64 / n_estimators as f64;
                counts
                    .iter()
                    .map(|&c| {
                        if c == 0 {
                            0
                        } else {
                            let interp = c as f64 + t * (min_count as f64 - c as f64);
                            (interp.round() as usize).clamp(1, c)
                        }
                    })
                    .collect()
            }
            BalancingSchedule::Custom(targets) => {
                assert_eq!(
                    targets.len(),
                    counts.len(),
                    "custom schedule must name a target per class"
                );
                targets
                    .iter()
                    .zip(counts)
                    .map(|(&t, &c)| if c == 0 { 0 } else { t.clamp(1, c) })
                    .collect()
            }
        }
    }
}

/// Self-paced under-sampler over a hardness distribution.
#[derive(Clone, Copy, Debug)]
pub struct SelfPacedSampler {
    /// Number of hardness bins `k` (paper default: 20).
    pub k_bins: usize,
}

impl Default for SelfPacedSampler {
    fn default() -> Self {
        Self { k_bins: 20 }
    }
}

/// Outcome of one self-paced sampling step, kept for diagnostics and the
/// Fig. 3 experiment.
#[derive(Clone, Debug)]
pub struct SampleOutcome {
    /// Selected positions into the hardness slice.
    pub selected: Vec<usize>,
    /// Per-bin quota actually drawn.
    pub per_bin: Vec<usize>,
    /// Unnormalized bin weights `p_ℓ` (0 for empty bins).
    pub weights: Vec<f64>,
}

impl SelfPacedSampler {
    /// Draws `target` positions (without replacement) from the hardness
    /// distribution using self-paced factor `alpha`.
    ///
    /// When `target >= hardness.len()` every position is returned.
    pub fn sample(
        &self,
        hardness: &[f64],
        alpha: f64,
        target: usize,
        rng: &mut SeededRng,
    ) -> SampleOutcome {
        self.sample_in(
            hardness,
            None,
            alpha,
            target,
            rng,
            &mut DrawBuffers::default(),
        )
    }

    /// [`Self::sample`], with the hardness range `[lo, hi]` already known
    /// when `range` holds it (the round loop's hardness pass returns it)
    /// and the draw's buffers kept by the caller across rounds. The same
    /// draw, bit for bit.
    pub(crate) fn sample_in(
        &self,
        hardness: &[f64],
        range: Option<(f64, f64)>,
        alpha: f64,
        target: usize,
        rng: &mut SeededRng,
        bufs: &mut DrawBuffers,
    ) -> SampleOutcome {
        assert!(alpha >= 0.0, "alpha must be non-negative");
        let n = hardness.len();
        if target >= n {
            return SampleOutcome {
                selected: (0..n).collect(),
                per_bin: vec![n],
                weights: vec![1.0],
            };
        }
        let grid = match range {
            Some((lo, hi)) => HardnessGrid::spanning(lo, hi, self.k_bins),
            None => HardnessGrid::over(hardness, self.k_bins),
        };
        let (starts, sums) = bufs.sort_by_bin(hardness, &grid);
        let populations: Vec<usize> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        let weights: Vec<f64> = populations
            .iter()
            .zip(&sums)
            .map(|(&population, &sum)| {
                if population == 0 {
                    0.0
                } else {
                    1.0 / (sum / population as f64 + alpha).max(1e-12)
                }
            })
            .collect();
        let per_bin = allocate_quota(&weights, &populations, target);

        // Draw each bin's quota in place with the swap sequence
        // `SeededRng::sample_from` runs over the bin's members: the same
        // draws pick the same positions, with no per-bin buffers.
        let mut selected = Vec::with_capacity(target);
        for (b, &quota) in per_bin.iter().enumerate() {
            if quota == 0 {
                continue;
            }
            let bin = &mut bufs.pool[starts[b]..starts[b + 1]];
            rng.partial_shuffle(bin, quota);
            selected.extend(bin[..quota].iter().map(|&p| p as usize));
        }
        SampleOutcome {
            selected,
            per_bin,
            weights,
        }
    }
}

/// The draw's working memory, 8 bytes per position: every position's
/// bin, and the positions counting-sorted by bin. The round loop keeps
/// one across rounds, so no round allocates or faults in fresh pages.
#[derive(Default)]
pub(crate) struct DrawBuffers {
    codes: Vec<u32>,
    pool: Vec<u32>,
}

impl DrawBuffers {
    /// Counting-sorts the positions of `hardness` by `grid` bin into
    /// `pool`, ascending within each bin — the order
    /// `HardnessBins::members` lists them in. Returns where each bin
    /// starts in `pool` (`k + 1` offsets) and each bin's hardness sum.
    ///
    /// Blocks of positions are binned and counted in parallel, and the
    /// per-block counts are merged in block order; each block then
    /// scatters its positions into its own run of every bin, runs laid
    /// out in block order, so the result is the same for every thread
    /// count. A bin's sum adds its hardness values in position order
    /// along its run — the additions of a sequential scan, which
    /// summing per-block partial sums would regroup.
    fn sort_by_bin(&mut self, hardness: &[f64], grid: &HardnessGrid) -> (Vec<usize>, Vec<f64>) {
        let n = hardness.len();
        let k = grid.k();
        assert!(u32::try_from(n).is_ok(), "{n} positions overflow u32");
        // Per-block counts cost `k` words a block: past one per position
        // a single block does. Every bin fits a `u32` code: counts for
        // more than `u32::MAX` bins could not be allocated.
        let block = if k.saturating_mul(n.div_ceil(ROUND_BLOCK)) > n {
            n
        } else {
            ROUND_BLOCK
        };
        self.codes.resize(n, 0);
        self.pool.resize(n, 0);

        let mut counted: Vec<(&mut [u32], Vec<usize>)> = self
            .codes
            .chunks_mut(block)
            .map(|codes| (codes, vec![0; k]))
            .collect();
        spe_runtime::par_for_each_mut(&mut counted, |j, (codes, counts)| {
            for (code, &h) in codes.iter_mut().zip(&hardness[j * block..]) {
                let b = grid.bin(h);
                *code = b as u32;
                counts[b] += 1;
            }
        });
        let counts: Vec<Vec<usize>> = counted.into_iter().map(|(_, counts)| counts).collect();
        let mut starts = Vec::with_capacity(k + 1);
        starts.push(0);
        for b in 0..k {
            starts.push(starts[b] + counts.iter().map(|c| c[b]).sum::<usize>());
        }

        let mut runs: Vec<Vec<&mut [u32]>> = counts.iter().map(|_| Vec::with_capacity(k)).collect();
        let mut rest = self.pool.as_mut_slice();
        for b in 0..k {
            for (block_runs, c) in runs.iter_mut().zip(&counts) {
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(c[b]);
                block_runs.push(run);
                rest = tail;
            }
        }
        let codes = &self.codes;
        spe_runtime::par_for_each_mut(&mut runs, |j, runs| {
            let start = j * block;
            let mut next = vec![0; k];
            for (i, &code) in codes[start..n.min(start + block)].iter().enumerate() {
                let b = code as usize;
                runs[b][next[b]] = (start + i) as u32;
                next[b] += 1;
            }
        });

        let pool = &self.pool;
        let sums = spe_runtime::par_chunks(k, 1, |bins| {
            bins.map(|b| {
                pool[starts[b]..starts[b + 1]]
                    .iter()
                    .fold(0.0, |sum, &p| sum + hardness[p as usize])
            })
            .collect::<Vec<f64>>()
        })
        .concat();
        (starts, sums)
    }
}

/// Splits `target` draws across bins proportionally to `weights`,
/// clamping each bin to its population and redistributing the shortfall.
fn allocate_quota(weights: &[f64], populations: &[usize], target: usize) -> Vec<usize> {
    let k = weights.len();
    let mut quota = vec![0usize; k];
    let mut remaining = target;
    // Iterate: proportional allocation over bins with spare capacity.
    // Terminates because each round either fills `remaining` or saturates
    // at least one bin.
    let mut active: Vec<usize> = (0..k).filter(|&l| populations[l] > 0).collect();
    while remaining > 0 && !active.is_empty() {
        let w_total: f64 = active.iter().map(|&l| weights[l]).sum();
        if w_total <= 0.0 {
            break;
        }
        // Real-valued shares with largest-remainder rounding.
        let mut shares: Vec<(usize, f64)> = active
            .iter()
            .map(|&l| (l, weights[l] / w_total * remaining as f64))
            .collect();
        let mut allocated = 0usize;
        let mut saturated = Vec::new();
        for &mut (l, share) in &mut shares {
            let cap = populations[l] - quota[l];
            let take = (share.floor() as usize).min(cap);
            quota[l] += take;
            allocated += take;
            if quota[l] == populations[l] {
                saturated.push(l);
            }
        }
        if allocated == 0 {
            // Floors were all zero: hand out singles by largest remainder.
            shares.sort_by(|a, b| {
                (b.1 - b.1.floor())
                    .total_cmp(&(a.1 - a.1.floor()))
                    .then(a.0.cmp(&b.0))
            });
            for &(l, _) in &shares {
                if allocated == remaining {
                    break;
                }
                if quota[l] < populations[l] {
                    quota[l] += 1;
                    allocated += 1;
                    if quota[l] == populations[l] {
                        saturated.push(l);
                    }
                }
            }
        }
        if allocated == 0 {
            break; // no capacity anywhere
        }
        remaining -= allocated.min(remaining);
        active.retain(|l| !saturated.contains(l));
    }
    quota
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_schedule_variants() {
        assert_eq!(AlphaSchedule::SelfPaced.alpha(0, 10), Some(0.0));
        let mid = AlphaSchedule::SelfPaced.alpha(5, 10).unwrap();
        assert!((mid - 1.0).abs() < 1e-12);
        assert_eq!(AlphaSchedule::Constant(0.3).alpha(7, 10), Some(0.3));
        assert_eq!(AlphaSchedule::Uniform.alpha(3, 10), None);
    }

    #[test]
    fn factor_schedule_matches_paper() {
        assert_eq!(self_paced_factor(0, 10), 0.0);
        // tan(pi/4) = 1 at i = n/2.
        assert!((self_paced_factor(5, 10) - 1.0).abs() < 1e-12);
        // Grows without bound toward i = n.
        assert!(self_paced_factor(9, 10) > 6.0);
    }

    /// Synthetic hardness profile: a huge trivial bin near 0, a medium
    /// borderline band, and a few hard/noise samples near 1.
    fn skewed_hardness() -> Vec<f64> {
        let mut h = vec![0.02; 1000];
        h.extend(vec![0.5; 100]);
        h.extend(vec![0.98; 10]);
        h
    }

    #[test]
    fn alpha_zero_harmonizes_contribution() {
        // With alpha = 0, p_l = 1/h_l, so expected per-bin contribution
        // (quota * h_l) is roughly constant across nonempty bins.
        let h = skewed_hardness();
        let mut rng = SeededRng::new(1);
        let out = SelfPacedSampler { k_bins: 20 }.sample(&h, 0.0, 200, &mut rng);
        assert_eq!(out.selected.len(), 200);
        // Bin of 0.02 has ~25x the quota of bin of 0.5 (1/0.02 vs 1/0.5),
        // even though its population is only 10x.
        let quota_easy = out.per_bin[0];
        let quota_mid = out.per_bin[10]; // (0.5-0.02)/0.96*20 = bin 10
        assert!(quota_easy > quota_mid, "{:?}", out.per_bin);
    }

    #[test]
    fn large_alpha_equalizes_bins() {
        // alpha >> h flattens p_l, so each nonempty bin gets a similar
        // quota (clamped by population).
        let h = skewed_hardness();
        let mut rng = SeededRng::new(2);
        let out = SelfPacedSampler { k_bins: 20 }.sample(&h, 1e6, 60, &mut rng);
        assert_eq!(out.selected.len(), 60);
        let nonzero: Vec<usize> = out.per_bin.iter().copied().filter(|&q| q > 0).collect();
        // Three nonempty bins -> roughly 20 each; the tiny hard bin (10
        // samples) saturates and redistributes.
        assert_eq!(nonzero.iter().sum::<usize>(), 60);
        assert!(nonzero.len() >= 2);
        assert!(nonzero.iter().all(|&q| q >= 10), "{nonzero:?}");
    }

    #[test]
    fn alpha_growth_shifts_mass_toward_hard_bins() {
        let h = skewed_hardness();
        let mut rng = SeededRng::new(3);
        let sampler = SelfPacedSampler { k_bins: 20 };
        let lo = sampler.sample(&h, 0.0, 100, &mut rng);
        let hi = sampler.sample(&h, 10.0, 100, &mut rng);
        let hard_share = |o: &SampleOutcome| {
            o.selected.iter().filter(|&&i| h[i] > 0.9).count() as f64 / o.selected.len() as f64
        };
        assert!(hard_share(&hi) >= hard_share(&lo));
    }

    #[test]
    fn selection_has_no_duplicates() {
        let h = skewed_hardness();
        let mut rng = SeededRng::new(4);
        let out = SelfPacedSampler::default().sample(&h, 0.5, 300, &mut rng);
        let mut s = out.selected.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 300);
    }

    #[test]
    fn target_larger_than_population_returns_all() {
        let h = vec![0.1, 0.2, 0.3];
        let mut rng = SeededRng::new(5);
        let out = SelfPacedSampler::default().sample(&h, 0.0, 10, &mut rng);
        assert_eq!(out.selected, vec![0, 1, 2]);
    }

    #[test]
    fn exact_target_met_when_capacity_allows() {
        let h = skewed_hardness();
        let mut rng = SeededRng::new(6);
        for target in [1, 7, 50, 333, 1109] {
            let out = SelfPacedSampler::default().sample(&h, 0.3, target, &mut rng);
            assert_eq!(out.selected.len(), target.min(h.len()), "target {target}");
        }
    }

    #[test]
    fn quota_allocation_respects_capacity() {
        let weights = vec![1.0, 1.0, 1.0];
        let quota = allocate_quota(&weights, &[2, 6, 1], 7);
        assert!(quota[0] <= 2);
        assert!(quota[2] <= 1);
        assert_eq!(quota.iter().sum::<usize>(), 7);
    }

    /// The sampler as it was before the flat buffer: per-bin member
    /// lists from [`HardnessBins`], one `sample_from` draw per bin.
    fn per_bin_reference(
        h: &[f64],
        k: usize,
        alpha: f64,
        target: usize,
        rng: &mut SeededRng,
    ) -> SampleOutcome {
        let bins = crate::bins::HardnessBins::cut(h, k);
        let members = bins.members();
        let weights: Vec<f64> = bins
            .stats()
            .iter()
            .map(|s| {
                if s.population == 0 {
                    0.0
                } else {
                    1.0 / (s.mean_hardness + alpha).max(1e-12)
                }
            })
            .collect();
        let populations: Vec<usize> = members.iter().map(Vec::len).collect();
        let per_bin = allocate_quota(&weights, &populations, target);
        let mut selected = Vec::new();
        for (q, member) in per_bin.iter().zip(&members) {
            if *q > 0 {
                selected.extend(rng.sample_from(member, *q));
            }
        }
        SampleOutcome {
            selected,
            per_bin,
            weights,
        }
    }

    /// Asserts two draws equal: selections, quotas, weight bits.
    fn assert_same_draw(got: &SampleOutcome, want: &SampleOutcome, context: &str) {
        assert_eq!(got.selected, want.selected, "{context}");
        assert_eq!(got.per_bin, want.per_bin, "{context}");
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.weights), bits(&want.weights), "{context}");
    }

    #[test]
    fn draws_match_the_per_bin_reference() {
        for seed in 0..20u64 {
            let mut gen = SeededRng::new(seed);
            let h: Vec<f64> = (0..300 + 37 * seed as usize)
                .map(|_| gen.uniform().powi(3))
                .collect();
            for (k, alpha, target) in [(20, 0.0, 40), (7, 0.7, 133), (20, 25.0, 290)] {
                let mut a = SeededRng::new(seed + 100);
                let mut b = a.clone();
                let got = SelfPacedSampler { k_bins: k }.sample(&h, alpha, target, &mut a);
                assert_same_draw(
                    &got,
                    &per_bin_reference(&h, k, alpha, target, &mut b),
                    "one block",
                );
                assert_eq!(a.below(1 << 30), b.below(1 << 30), "rng streams diverged");
            }
        }
    }

    #[test]
    fn multi_block_draws_match_the_per_bin_reference_at_every_thread_count() {
        // Three and five draw blocks, the last one ragged.
        for (seed, n) in [(7u64, 3 * ROUND_BLOCK - 5), (8, 4 * ROUND_BLOCK + 123)] {
            let mut gen = SeededRng::new(seed);
            let h: Vec<f64> = (0..n).map(|_| gen.uniform().powi(6)).collect();
            let target = n / 101 + 1;
            for k in [1, 7, 20, 300] {
                for alpha in [0.0, 1.0, 1e6] {
                    let mut b = SeededRng::new(seed + 100);
                    let want = per_bin_reference(&h, k, alpha, target, &mut b);
                    let next = b.below(1 << 30);
                    for threads in [1, 2, 4] {
                        let context = format!("n {n} k {k} alpha {alpha} threads {threads}");
                        let mut a = SeededRng::new(seed + 100);
                        let got = spe_runtime::Runtime::with_threads(threads).install(|| {
                            SelfPacedSampler { k_bins: k }.sample(&h, alpha, target, &mut a)
                        });
                        assert_same_draw(&got, &want, &context);
                        assert_eq!(a.below(1 << 30), next, "{context}: rng streams diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn kept_buffers_and_a_known_range_draw_like_a_fresh_sample() {
        let mut gen = SeededRng::new(9);
        let sampler = SelfPacedSampler { k_bins: 20 };
        let mut bufs = DrawBuffers::default();
        // Shrinking and growing inputs reuse the same buffers.
        for n in [2 * ROUND_BLOCK + 1, 500, 3 * ROUND_BLOCK + 17] {
            let h: Vec<f64> = (0..n).map(|_| gen.uniform().powi(3)).collect();
            let range = h
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let mut a = SeededRng::new(n as u64);
            let mut b = a.clone();
            let got = sampler.sample_in(&h, Some(range), 0.4, n / 50, &mut a, &mut bufs);
            let want = sampler.sample(&h, 0.4, n / 50, &mut b);
            assert_same_draw(&got, &want, &format!("n {n}"));
        }
    }

    #[test]
    fn uniform_schedule_targets_min_class() {
        let counts = [500usize, 40, 2000, 40];
        let t = BalancingSchedule::Uniform.targets(&counts, 0, 10);
        assert_eq!(t, vec![40, 40, 40, 40]);
        // Binary case reproduces the paper's |P| rule.
        assert_eq!(
            BalancingSchedule::Uniform.targets(&[900, 100], 5, 10),
            vec![100, 100]
        );
    }

    #[test]
    fn progressive_schedule_interpolates_toward_uniform() {
        let counts = [1000usize, 100];
        let first = BalancingSchedule::Progressive.targets(&counts, 0, 10);
        let mid = BalancingSchedule::Progressive.targets(&counts, 4, 10);
        let last = BalancingSchedule::Progressive.targets(&counts, 9, 10);
        assert_eq!(first, vec![910, 100]);
        assert_eq!(mid, vec![550, 100]);
        assert_eq!(last, vec![100, 100]);
        // Monotone non-increasing for the large class.
        let mut prev = usize::MAX;
        for i in 0..10 {
            let t = BalancingSchedule::Progressive.targets(&counts, i, 10)[0];
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn custom_schedule_clamps_to_population() {
        let counts = [50usize, 10, 0];
        let t = BalancingSchedule::Custom(vec![80, 5, 7]).targets(&counts, 0, 3);
        assert_eq!(t, vec![50, 5, 0]);
        // Zero targets are floored at 1 for non-empty classes.
        let t = BalancingSchedule::Custom(vec![0, 0, 0]).targets(&counts, 0, 3);
        assert_eq!(t, vec![1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "target per class")]
    fn custom_schedule_rejects_wrong_length() {
        let _ = BalancingSchedule::Custom(vec![1, 2]).targets(&[5, 5, 5], 0, 1);
    }

    #[test]
    fn empty_bins_get_zero_weight() {
        let h = vec![0.0, 1.0]; // only first and last bins populated
        let mut rng = SeededRng::new(7);
        let out = SelfPacedSampler { k_bins: 10 }.sample(&h, 0.0, 1, &mut rng);
        for (l, &w) in out.weights.iter().enumerate() {
            if l != 0 && l != 9 {
                assert_eq!(w, 0.0);
            }
        }
    }
}
