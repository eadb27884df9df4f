//! pinot-obs: dependency-light in-process observability for the cluster.
//!
//! Two pieces, both shareable across threads behind one [`Obs`] handle:
//!
//! - [`MetricsRegistry`] — name-sharded counters, gauges, and fixed-boundary
//!   latency histograms with interpolated p50/p95/p99 estimation.
//! - [`QueryLog`] — bounded ring of recent slow/partial/errored queries,
//!   each carrying its `QueryProfile` tree.
//!
//! Every cluster component records into the same registry under a flat
//! dotted namespace; the catalogue of names lives in DESIGN.md.

pub mod latency;
pub mod metrics;
pub mod querylog;

pub use latency::LatencyDigest;
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, LATENCY_MS_BOUNDARIES};
pub use querylog::{QueryLog, QueryLogEntry};

use std::sync::Arc;

/// Default capacity of the slow-query ring.
pub const DEFAULT_QUERY_LOG_CAPACITY: usize = 128;
/// Default slow-query threshold in milliseconds.
pub const DEFAULT_SLOW_QUERY_MS: u64 = 100;

/// The bundle of observability state one cluster shares: a metrics
/// registry plus the slow-query log.
pub struct Obs {
    pub metrics: MetricsRegistry,
    pub query_log: QueryLog,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    pub fn new() -> Obs {
        Obs::with_query_log(DEFAULT_QUERY_LOG_CAPACITY, DEFAULT_SLOW_QUERY_MS)
    }

    pub fn with_query_log(capacity: usize, slow_threshold_ms: u64) -> Obs {
        Obs {
            metrics: MetricsRegistry::new(),
            query_log: QueryLog::new(capacity, slow_threshold_ms),
        }
    }

    pub fn shared() -> Arc<Obs> {
        Arc::new(Obs::new())
    }

    /// Prometheus text exposition of a point-in-time snapshot of the
    /// metrics registry — counters, gauges, and cumulative histogram
    /// buckets. See [`MetricsSnapshot::render_prometheus`].
    pub fn render_prometheus(&self) -> String {
        self.metrics.snapshot().render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_is_share_and_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        let obs = Obs::shared();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let obs = Arc::clone(&obs);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        obs.metrics.counter_add("contended", 1);
                        obs.metrics
                            .observe_ms(if i % 2 == 0 { "a" } else { "b" }, 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(obs.metrics.snapshot().counter("contended"), 4000);
    }
}
