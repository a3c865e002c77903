//! Helpers for the tree growers in [`crate::grow`].

/// Midpoint that is guaranteed to satisfy `lo <= m < hi` in floating
/// point (falls back to `lo` when the average rounds up to `hi`).
#[inline]
pub(crate) fn midpoint(lo: f64, hi: f64) -> f64 {
    let m = lo + (hi - lo) / 2.0;
    if m >= hi {
        lo
    } else {
        m
    }
}

/// In-place partition; returns the count of elements satisfying the
/// predicate (moved to the front). Not stable.
pub(crate) fn partition<T, F: FnMut(&T) -> bool>(xs: &mut [T], mut pred: F) -> usize {
    let mut store = 0;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs.swap(store, i);
            store += 1;
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_moves_matches_front() {
        let mut xs = vec![5, 2, 8, 1, 9, 3];
        let mid = partition(&mut xs, |&v| v < 5);
        assert_eq!(mid, 3);
        assert!(xs[..mid].iter().all(|&v| v < 5));
        assert!(xs[mid..].iter().all(|&v| v >= 5));
    }

    #[test]
    fn partition_all_or_none() {
        let mut xs = vec![1, 2, 3];
        assert_eq!(partition(&mut xs, |_| true), 3);
        assert_eq!(partition(&mut xs, |_| false), 0);
    }

    #[test]
    fn midpoint_strictly_below_hi() {
        let lo = 1.0;
        let hi = 1.0 + f64::EPSILON;
        let m = midpoint(lo, hi);
        assert!(m >= lo && m < hi);
        assert!((midpoint(0.0, 2.0) - 1.0).abs() < 1e-15);
    }
}
