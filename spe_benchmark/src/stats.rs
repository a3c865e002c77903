//! Order statistics for timings.

use std::time::Instant;

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up runs at least this often, and for at least `SETUP_MIN_S`
/// seconds in all, but no more than `SETUP_MAX_REPS` times: a cheap
/// set-up (a server start takes well under a millisecond) is repeated
/// until its median is steady.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;

/// Times `setup` repeatedly, handing each result but the last to
/// `release` before the next starts, so set-up never holds two at once.
/// Returns the last result and the median set-up time in seconds.
pub fn repeat_setup<T, E>(
    mut setup: impl FnMut() -> Result<T, E>,
    mut release: impl FnMut(T),
) -> Result<(T, f64), E> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MAX_REPS
        && (times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < SETUP_MIN_S)
    {
        if let Some(prev) = last.take() {
            release(prev);
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// The tail of a sample: p95 (nearest rank) when at least ten samples
/// lie beyond it, else p90. A run of fits holds too few samples for ten
/// to lie beyond any percentile above the median; it reports p90 anyway,
/// because its slowest fit alone moves by a fifth between runs on a
/// small shared machine. Nothing above p95 is reported for the same
/// reason: a handful of scheduling stalls per run set p99, which then
/// moves by half between runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
}

const SAMPLES_BEYOND: usize = 10;

pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = |q: f64| (((q / 100.0) * n as f64).ceil() as usize).max(1);
    let percentile = if n - rank(95.0) >= SAMPLES_BEYOND {
        95.0
    } else {
        90.0
    };
    Tail {
        percentile,
        value: v[rank(percentile) - 1],
    }
}

/// First and third quartile by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`), used to report run-to-run
/// spread the same way the acceptance rule computes it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    // Python's arithmetic verbatim: j = i·(n+1) // 4 clamped to
    // 1..=n-1, then interpolate between the j-th and (j+1)-th values.
    let at = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_p95() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p95 is rank 190, with exactly ten beyond it.
        assert_eq!(
            tail(&v),
            Tail {
                percentile: 95.0,
                value: 190.0
            }
        );
        // 199 samples: p95 would leave nine beyond, so p90 is reported.
        assert_eq!(
            tail(&v[..199]),
            Tail {
                percentile: 90.0,
                value: 180.0
            }
        );
        // 10 000 samples would support p99.9, but p95 is the highest
        // percentile reported.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&big).percentile, 95.0);
        // A run of 25 fits reports its third slowest, and a run of three
        // its slowest.
        assert_eq!(tail(&v[..25]).value, 23.0);
        assert_eq!(tail(&[5.0, 9.0, 7.0]).value, 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
