//! Pure arithmetic the harness rests on: exact order statistics, span
//! unions (a layer's self time), FIFO freshness attribution, and the
//! quartile spread the compare gate uses.

/// Exact nearest-rank order statistic on ascending `sorted`: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile worth reporting from `n` samples: the largest of
/// the candidates, none above `at_most`, that still has at least ten
/// samples beyond it.
pub fn supported_tail(n: usize, at_most: f64) -> f64 {
    const CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];
    for q in CANDIDATES.into_iter().filter(|q| *q <= at_most) {
        let beyond = n - ((q * n as f64).ceil() as usize).min(n);
        if beyond >= 10 {
            return q;
        }
    }
    0.50
}

pub fn sort_f64(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort_f64(&mut v);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method (what Python's
/// `statistics.quantiles(values, n=4)` returns), so the spread computed
/// here is the spread the acceptance procedure computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    sort_f64(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, linearly interpolated and clamped
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; `None` with fewer than
/// two values (a single run says nothing about its own noise).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// A percentile that one stall of the host cannot move: the window
/// `[lo, hi)` is cut into slices of length `slice` (the last may be
/// shorter), `q` is taken in each from the `(time, value)` samples that
/// fall in it, and the median of those is returned. A stall lands in one
/// slice (or two) and leaves the median be; what the system does all the
/// time is in every slice.
pub fn sliced_percentile(
    samples: &[(u64, f64)],
    lo: u64,
    hi: u64,
    slice: std::time::Duration,
    q: f64,
) -> f64 {
    let width = (slice.as_nanos() as u64).max(1);
    let parts = (hi - lo).div_ceil(width).max(1) as usize;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); parts];
    for &(t, v) in samples.iter().filter(|(t, _)| (lo..hi).contains(t)) {
        slices[((t - lo) / width) as usize].push(v);
    }
    let per_slice: Vec<f64> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            sort_f64(s);
            percentile(s, q)
        })
        .collect();
    median(&per_slice)
}

/// Length covered by the union of `spans` (start, end), each clipped to
/// `[lo, hi]`. Overlapping spans — parallel servers, or a hedge racing the
/// slice it duplicates — count once.
pub fn union_len(spans: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in spans.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Broker self time of one query: the client's wall interval minus the part
/// of it during which at least one server call of that query was running.
pub fn self_time(wall: (u64, u64), server_spans: &mut [(u64, u64)]) -> u64 {
    (wall.1 - wall.0) - union_len(server_spans, wall.0, wall.1)
}

/// FIFO freshness attribution. Event `k` (0-based, in production order)
/// was due at `due_ns(k)`; `ticks` lists `(return_ns, cumulative_consumed)`
/// of every consume tick in order. Event `k` became queryable when the
/// first tick with `cumulative_consumed > k` returned. Events no tick
/// covered are not reported (the caller counts them as failures).
pub fn freshness_ns(ticks: &[(u64, u64)], due_ns: impl Fn(u64) -> u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(ticks.last().map_or(0, |t| t.1 as usize));
    let mut next = 0u64;
    for &(returned, cumulative) in ticks {
        while next < cumulative {
            out.push(returned.saturating_sub(due_ns(next)));
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // No bucket quantization: an odd value comes back as is.
        assert_eq!(percentile(&[0.1234567, 5.0, 9.0], 0.3), 0.1234567);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(100_000, 0.99), 0.99);
        assert_eq!(supported_tail(100_000, 0.999), 0.999);
        assert_eq!(supported_tail(9_999, 0.999), 0.99);
        assert_eq!(supported_tail(1_000, 0.99), 0.99); // exactly ten beyond
        assert_eq!(supported_tail(999, 0.99), 0.95);
        assert_eq!(supported_tail(200, 0.99), 0.95);
        assert_eq!(supported_tail(199, 0.99), 0.90);
        assert_eq!(supported_tail(40, 0.99), 0.75);
        assert_eq!(supported_tail(24, 0.99), 0.50);
        assert_eq!(supported_tail(3, 0.99), 0.50);
    }

    #[test]
    fn sliced_percentile_shrugs_off_one_stall() {
        use std::time::Duration;
        // 1000 samples at 1 ms, one per time unit; a stall makes 30
        // consecutive ones take 100 ms: 3% of all, so the plain p99 is 100.
        let mut samples: Vec<(u64, f64)> = (0..1000).map(|t| (t, 1.0)).collect();
        for s in &mut samples[400..430] {
            s.1 = 100.0;
        }
        let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        sort_f64(&mut all);
        assert_eq!(percentile(&all, 0.99), 100.0);
        let slice = Duration::from_nanos(200);
        assert_eq!(sliced_percentile(&samples, 0, 1000, slice, 0.99), 1.0);
        // A tail present throughout is reported.
        for (i, s) in samples.iter_mut().enumerate() {
            s.1 = if i % 50 == 0 { 9.0 } else { 1.0 };
        }
        assert_eq!(sliced_percentile(&samples, 0, 1000, slice, 0.99), 9.0);
        // Samples outside [lo, hi) are ignored; a short last slice counts.
        let two = [(5, 2.0), (50, 7.0)];
        assert_eq!(
            sliced_percentile(&two, 0, 10, Duration::from_nanos(5), 0.5),
            2.0
        );
        assert_eq!(
            sliced_percentile(&two, 0, 9, Duration::from_nanos(5), 0.5),
            2.0
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn union_counts_overlap_once() {
        // Two servers in parallel, partly overlapping.
        assert_eq!(union_len(&mut [(10, 30), (20, 50)], 0, 100), 40);
        // Disjoint spans add up.
        assert_eq!(union_len(&mut [(60, 70), (10, 20)], 0, 100), 20);
        // A contained span adds nothing.
        assert_eq!(union_len(&mut [(10, 50), (20, 30)], 0, 100), 40);
        assert_eq!(union_len(&mut [], 0, 100), 0);
    }

    #[test]
    fn self_time_with_hedged_duplicate_slice() {
        // Primary runs 10..90, the hedge duplicates the slice on another
        // server 40..60 and a loser finishes after the client returned.
        let mut spans = vec![(10, 90), (40, 60), (70, 140)];
        assert_eq!(self_time((0, 100), &mut spans), 10);
        // No server span at all (cache hit, metadata answer): all self.
        assert_eq!(self_time((5, 25), &mut []), 20);
    }

    #[test]
    fn freshness_attributes_fifo() {
        // 1 event per 10 ns; tick one returns at 100 having consumed 3,
        // tick two at 250 having consumed 5 in total.
        let f = freshness_ns(&[(100, 3), (250, 5)], |k| k * 10);
        assert_eq!(f, vec![100, 90, 80, 220, 210]);
        // A tick that consumed nothing attributes nothing.
        let f = freshness_ns(&[(50, 0), (100, 1)], |k| k * 10);
        assert_eq!(f, vec![100]);
    }
}
