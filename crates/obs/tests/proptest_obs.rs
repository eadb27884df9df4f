//! Property tests for the observability primitives: histogram quantile
//! estimates against the exact sample quantile, and exact summary stats.

use pinot_obs::{Histogram, LATENCY_MS_BOUNDARIES};
use proptest::prelude::*;

/// Exact sample quantile matching `pinot_bench::percentile`'s definition:
/// the value at rank `round(q * (n - 1))` of the sorted sample.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

proptest! {
    /// The histogram's quantile estimate interpolates inside the bucket
    /// holding the target rank. Because the target rank `q * (n - 1)` is
    /// fractional, the estimate must land between the lower bound of the
    /// bucket containing the sample at `floor(rank)` and the upper bound
    /// of the bucket containing the sample at `ceil(rank)` (the upper
    /// bound is `max` for the overflow bucket, and the estimate is
    /// clamped to `[min, max]`, which only tightens the interval).
    #[test]
    fn quantile_estimate_within_bucket_error(
        values in proptest::collection::vec(0.05f64..50_000.0, 1..300),
    ) {
        let mut hist = Histogram::new(LATENCY_MS_BOUNDARIES);
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));

        for q in [0.5, 0.99] {
            let est = hist.quantile(q);
            let rank = q * (sorted.len() - 1) as f64;
            let lo_sample = sorted[rank.floor() as usize];
            let hi_sample = sorted[rank.ceil() as usize];
            let lo = hist.bucket_bounds(lo_sample).0;
            let hi = hist.bucket_bounds(hi_sample).1.min(hist.max());
            prop_assert!(
                est >= lo - 1e-9 && est <= hi + 1e-9,
                "q={}: estimate {} outside [{}, {}] (exact sample quantile {})",
                q, est, lo, hi, exact_quantile(&sorted, q),
            );
        }
    }

    /// Count, min, max, and mean are tracked exactly, independent of the
    /// bucket boundaries.
    #[test]
    fn summary_stats_are_exact(
        values in proptest::collection::vec(0.01f64..60_000.0, 1..200),
    ) {
        let mut hist = Histogram::new(LATENCY_MS_BOUNDARIES);
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(hist.count(), values.len() as u64);
        prop_assert_eq!(hist.min(), sorted[0]);
        prop_assert_eq!(hist.max(), sorted[sorted.len() - 1]);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((hist.mean() - mean).abs() <= 1e-6 * mean.max(1.0));
    }

    /// Quantiles are monotone in `q` and bounded by the recorded extremes.
    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(0.05f64..50_000.0, 1..200),
    ) {
        let mut hist = Histogram::new(LATENCY_MS_BOUNDARIES);
        for &v in &values {
            hist.record(v);
        }
        let mut prev = hist.quantile(0.0);
        for i in 1..=20 {
            let q = i as f64 / 20.0;
            let cur = hist.quantile(q);
            prop_assert!(cur >= prev - 1e-9, "quantile({q}) = {cur} < {prev}");
            prev = cur;
        }
        prop_assert!(hist.quantile(0.0) >= hist.min() - 1e-9);
        prop_assert!(hist.quantile(1.0) <= hist.max() + 1e-9);
    }
}
