//! Bounded ring buffer of recent interesting queries: anything slow,
//! partial, or that raised exceptions. The broker records every finished
//! query; the ring keeps the most recent qualifying ones.

use parking_lot::Mutex;
use pinot_common::profile::QueryProfile;
use std::collections::VecDeque;

/// One logged query.
#[derive(Debug, Clone)]
pub struct QueryLogEntry {
    pub query: String,
    /// Broker-assigned query id; joins this entry with the response's
    /// stats and profile.
    pub query_id: u64,
    pub time_used_ms: u64,
    pub partial: bool,
    pub exception_count: usize,
    /// The response's broker → server → segment operator profile when
    /// the query ran with profiling enabled; otherwise a `broker` root
    /// holding only the broker's phase timings.
    pub profile: Option<QueryProfile>,
}

/// Fixed-capacity ring of recent slow/partial queries.
pub struct QueryLog {
    capacity: usize,
    slow_threshold_ms: u64,
    ring: Mutex<VecDeque<QueryLogEntry>>,
}

impl QueryLog {
    pub fn new(capacity: usize, slow_threshold_ms: u64) -> QueryLog {
        assert!(capacity > 0);
        QueryLog {
            capacity,
            slow_threshold_ms,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Whether a query with these outcomes would qualify for the log —
    /// callers on the hot path check this *before* building an entry, so
    /// fast clean queries never pay for cloning the pql and profile tree
    /// into an entry that would be dropped anyway.
    pub fn would_keep(&self, time_used_ms: u64, partial: bool, exceptions: usize) -> bool {
        partial || exceptions > 0 || time_used_ms >= self.slow_threshold_ms
    }

    /// Record a finished query. Returns whether it qualified for the log
    /// (slow, partial, or errored); fast clean queries are dropped.
    pub fn observe(&self, entry: QueryLogEntry) -> bool {
        if !self.would_keep(entry.time_used_ms, entry.partial, entry.exception_count) {
            return false;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// Most recent qualifying queries, oldest first.
    pub fn recent(&self) -> Vec<QueryLogEntry> {
        self.ring.lock().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(q: &str, ms: u64, partial: bool) -> QueryLogEntry {
        QueryLogEntry {
            query: q.to_string(),
            query_id: 0,
            time_used_ms: ms,
            partial,
            exception_count: 0,
            profile: None,
        }
    }

    #[test]
    fn keeps_only_interesting_bounded() {
        let log = QueryLog::new(3, 100);
        assert!(!log.observe(entry("fast", 5, false)));
        assert!(log.observe(entry("slow1", 150, false)));
        assert!(log.observe(entry("partial", 5, true)));
        for i in 0..5 {
            assert!(log.observe(entry(&format!("slow{i}"), 200 + i, false)));
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent.last().unwrap().query, "slow4");
    }

    #[test]
    fn threshold_zero_logs_everything() {
        let log = QueryLog::new(8, 0);
        assert!(log.observe(entry("q", 0, false)));
        assert_eq!(log.len(), 1);
    }
}
