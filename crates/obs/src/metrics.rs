//! Sharded in-process metrics: monotonic counters, last-value gauges, and
//! fixed-boundary histograms with interpolated quantile estimation.
//!
//! The registry is keyed by flat metric names (`broker.phase.route_ms`,
//! `server.consume.lag.<table>.p<partition>`, ...). Names hash to one of a
//! fixed number of `parking_lot::Mutex`-guarded shards so concurrent
//! brokers/servers/controllers recording into one shared registry contend
//! only when their names collide on a shard, not on a global lock.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

const SHARDS: usize = 16;

/// Default latency bucket boundaries in milliseconds: roughly log-spaced
/// from 50µs to 60s, dense enough that interpolated p50/p95/p99 track the
/// exact sample percentiles closely at the latencies the figures report.
pub const LATENCY_MS_BOUNDARIES: &[f64] = &[
    0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.5, 6.5, 9.0, 13.0, 18.0, 25.0, 35.0,
    50.0, 75.0, 100.0, 150.0, 200.0, 300.0, 450.0, 650.0, 900.0, 1_300.0, 1_800.0, 2_500.0,
    3_500.0, 5_000.0, 7_500.0, 10_000.0, 15_000.0, 20_000.0, 30_000.0, 45_000.0, 60_000.0,
];

/// A standalone fixed-boundary histogram. The registry stores these per
/// name; the bench harness uses the same type directly so figure latency
/// percentiles and production metrics share one estimator.
#[derive(Debug, Clone)]
pub struct Histogram {
    boundaries: &'static [f64],
    /// `counts[i]` covers `[boundaries[i-1], boundaries[i])`; the final
    /// slot is the overflow bucket `[boundaries[last], +inf)`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new(LATENCY_MS_BOUNDARIES)
    }
}

impl Histogram {
    pub fn new(boundaries: &'static [f64]) -> Histogram {
        assert!(!boundaries.is_empty());
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly increasing"
        );
        Histogram {
            boundaries,
            counts: vec![0; boundaries.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .boundaries
            .partition_point(|&b| b <= value)
            .min(self.boundaries.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            std::ptr::eq(self.boundaries, other.boundaries) || self.boundaries == other.boundaries
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by locating the bucket
    /// holding the target rank and interpolating linearly inside it, then
    /// clamping to the observed min/max so estimates never leave the data
    /// range. Error is bounded by the width of the target's bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic q maps to under linear interpolation
        // over n samples: q * (n - 1), matching `percentile` on a sorted
        // sample vector.
        let target = q * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if target < (seen + c) as f64 || i == self.counts.len() - 1 {
                let lo = if i == 0 { 0.0 } else { self.boundaries[i - 1] };
                let hi = if i < self.boundaries.len() {
                    self.boundaries[i]
                } else {
                    self.max
                };
                let frac = if c > 1 {
                    ((target - seen as f64) / (c - 1).max(1) as f64).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                let est = lo + (hi - lo) * frac;
                return est.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Cumulative `(upper_bound, count)` pairs in Prometheus `le`
    /// presentation: the final bound is `+inf` and the final count equals
    /// `count()`. Internal buckets are half-open (`[lo, hi)`), so an
    /// observation exactly on a boundary counts toward the next bound —
    /// indistinguishable in practice for continuous latency samples.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut running = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            running += c;
            let bound = if i < self.boundaries.len() {
                self.boundaries[i]
            } else {
                f64::INFINITY
            };
            out.push((bound, running));
        }
        out
    }

    /// The half-open value range of the bucket `value` falls into —
    /// the resolution limit of quantile estimates near `value`.
    pub fn bucket_bounds(&self, value: f64) -> (f64, f64) {
        let idx = self
            .boundaries
            .partition_point(|&b| b <= value)
            .min(self.boundaries.len());
        let lo = if idx == 0 {
            0.0
        } else {
            self.boundaries[idx - 1]
        };
        let hi = if idx < self.boundaries.len() {
            self.boundaries[idx]
        } else {
            f64::INFINITY
        };
        (lo, hi)
    }
}

#[derive(Default)]
struct Shard {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, i64>,
    histograms: HashMap<String, Histogram>,
}

/// Process-wide metrics registry shared by every component of a cluster.
pub struct MetricsRegistry {
    shards: Vec<Mutex<Shard>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Add `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut shard = self.shard(name).lock();
        match shard.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                shard.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set the named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: i64) {
        let mut shard = self.shard(name).lock();
        match shard.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                shard.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Record one observation into the named latency histogram
    /// (milliseconds, default boundaries).
    pub fn observe_ms(&self, name: &str, ms: f64) {
        let mut shard = self.shard(name).lock();
        shard.histograms.entry_or_default(name).record(ms);
    }

    /// Consistent point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            let shard = shard.lock();
            for (k, v) in &shard.counters {
                snap.counters.insert(k.clone(), *v);
            }
            for (k, v) in &shard.gauges {
                snap.gauges.insert(k.clone(), *v);
            }
            for (k, v) in &shard.histograms {
                snap.histograms.insert(k.clone(), v.clone());
            }
        }
        snap
    }
}

// HashMap::entry(...).or_default() needs an owned key even on hits; this
// avoids the String allocation on the hot record path.
trait EntryOrDefault {
    fn entry_or_default(&mut self, name: &str) -> &mut Histogram;
}

impl EntryOrDefault for HashMap<String, Histogram> {
    fn entry_or_default(&mut self, name: &str) -> &mut Histogram {
        if !self.contains_key(name) {
            self.insert(name.to_string(), Histogram::default());
        }
        self.get_mut(name).unwrap()
    }
}

/// Point-in-time copy of a [`MetricsRegistry`].
#[derive(Default, Clone)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose names start with `prefix` — used for
    /// per-label families like `server.throttle.rejected.<tenant>`.
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Prometheus text exposition (version 0.0.4) of every metric, sorted
    /// by name. Dotted registry names map to underscore-separated
    /// Prometheus names under a `pinot_` prefix; histograms emit
    /// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 6);
            out.push_str("pinot_");
            for (i, c) in name.chars().enumerate() {
                if c.is_ascii_alphanumeric() || (c == '_' && i > 0) {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn fmt_bound(b: f64) -> String {
            if b.is_infinite() {
                "+Inf".to_string()
            } else if b.fract() == 0.0 {
                format!("{b:.1}")
            } else {
                format!("{b}")
            }
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = sanitize(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = sanitize(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let name = sanitize(k);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (bound, cumulative) in h.cumulative_buckets() {
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    fmt_bound(bound)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }

    /// Human-readable rendering, sorted by metric name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<56} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("{k:<56} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("== histograms (ms) ==\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "{k:<56} n={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}\n",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a.b", 2);
        reg.counter_add("a.b", 3);
        reg.gauge_set("lag", 41);
        reg.gauge_set("lag", 7);
        for i in 0..100 {
            reg.observe_ms("lat", i as f64);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.b"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("lag"), Some(7));
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count(), 100);
        assert!(h.max() == 99.0 && h.min() == 0.0);
        let text = snap.render_text();
        assert!(text.contains("a.b") && text.contains("lag") && text.contains("p99"));
    }

    #[test]
    fn counter_family_sums_prefix() {
        let reg = MetricsRegistry::new();
        reg.counter_add("x.rejected.tenantA", 1);
        reg.counter_add("x.rejected.tenantB", 2);
        reg.counter_add("x.other", 10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_family("x.rejected."), 3);
    }

    #[test]
    fn quantiles_track_exact_percentiles() {
        let mut h = Histogram::default();
        let mut values: Vec<f64> = (0..1000).map(|i| (i % 317) as f64 * 0.9 + 0.3).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(f64::total_cmp);
        for &(q, label) in &[(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let exact = values[(q * (values.len() - 1) as f64).round() as usize];
            let est = h.quantile(q);
            let (lo, hi) = h.bucket_bounds(exact);
            assert!(
                est >= lo * 0.99 && est <= hi * 1.01,
                "{label}: est {est} outside bucket [{lo},{hi}) of exact {exact}"
            );
        }
    }

    #[test]
    fn empty_and_single_value_histograms() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        let mut h = Histogram::default();
        h.record(42.0);
        assert_eq!(h.p50(), 42.0);
        assert_eq!(h.max(), 42.0);
    }

    #[test]
    fn prometheus_exposition_has_all_three_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter_add("broker.query.total", 4);
        reg.counter_add("server.throttle.rejected.adsTenant", 1);
        reg.gauge_set("server.consume.lag.events.p0", 12);
        reg.observe_ms("broker.phase.parse_ms", 0.07);
        reg.observe_ms("broker.phase.parse_ms", 120.0);
        let text = reg.snapshot().render_prometheus();

        assert!(text.contains("# TYPE pinot_broker_query_total counter"));
        assert!(text.contains("pinot_broker_query_total 4"));
        assert!(text.contains("pinot_server_throttle_rejected_adsTenant 1"));
        assert!(text.contains("# TYPE pinot_server_consume_lag_events_p0 gauge"));
        assert!(text.contains("pinot_server_consume_lag_events_p0 12"));
        assert!(text.contains("# TYPE pinot_broker_phase_parse_ms histogram"));
        // Buckets are cumulative and terminate in +Inf == count.
        assert!(text.contains("pinot_broker_phase_parse_ms_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("pinot_broker_phase_parse_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("pinot_broker_phase_parse_ms_count 2"));
        assert!(text.contains("pinot_broker_phase_parse_ms_sum 120.07"));
        // No raw dots survive sanitization in metric names.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(!name.contains('.'), "unsanitized name {name}");
        }
    }

    #[test]
    fn cumulative_buckets_are_monotonic() {
        let mut h = Histogram::default();
        for i in 0..50 {
            h.record(i as f64);
        }
        let buckets = h.cumulative_buckets();
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        let last = buckets.last().unwrap();
        assert!(last.0.is_infinite());
        assert_eq!(last.1, 50);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 100.0);
    }
}
