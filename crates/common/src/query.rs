//! Client-facing query request/response types.
//!
//! Brokers accept a PQL string and return a [`QueryResponse`]: the merged
//! result plus execution statistics. Errors or timeouts on individual
//! servers mark the response *partial* rather than failing it (§3.3.3 step
//! 7), so the client can choose to display incomplete results or retry.

use crate::value::Value;

/// A query as submitted to a broker.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// PQL text, e.g. `SELECT SUM(clicks) FROM feed WHERE country = 'us'`.
    pub pql: String,
    /// Per-query deadline; servers abandon work past this.
    pub timeout_ms: u64,
    /// Tenant on whose token-bucket budget this query runs (§4.5).
    pub tenant: Option<String>,
    /// Collect a per-operator [`crate::profile::QueryProfile`] during
    /// execution. Off by default: unprofiled execution stays the zero-cost
    /// path and its results are byte-identical either way.
    pub profile: bool,
    /// Collect per-conjunct access-path measurements (chosen path,
    /// estimated vs actual docs) inside the profile. Only `EXPLAIN
    /// ANALYZE` sets this: the detail costs a report allocation per
    /// filter leaf per segment, which plain profiled execution skips to
    /// stay within its overhead budget. Implies nothing on its own —
    /// the report only exists when `profile` is also set.
    pub analyze: bool,
}

impl QueryRequest {
    pub fn new(pql: impl Into<String>) -> QueryRequest {
        QueryRequest {
            pql: pql.into(),
            timeout_ms: 10_000,
            tenant: None,
            profile: false,
            analyze: false,
        }
    }

    pub fn with_timeout_ms(mut self, ms: u64) -> QueryRequest {
        self.timeout_ms = ms;
        self
    }

    pub fn with_tenant(mut self, tenant: impl Into<String>) -> QueryRequest {
        self.tenant = Some(tenant.into());
        self
    }
}

/// One aggregation result: `SUM(clicks) -> 42`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationRow {
    /// Display name, e.g. `sum(clicks)`.
    pub function: String,
    pub value: Value,
}

/// One group-by result table for a single aggregation function.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByRows {
    pub function: String,
    pub group_columns: Vec<String>,
    /// Rows ordered by aggregate descending (top-n semantics).
    pub rows: Vec<(Vec<Value>, Value)>,
}

/// The merged result payload of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Plain aggregations without grouping.
    Aggregation(Vec<AggregationRow>),
    /// Aggregations with GROUP BY, one table per function.
    GroupBy(Vec<GroupByRows>),
    /// SELECT column projections.
    Selection {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
}

impl QueryResult {
    /// Convenience for tests: the single aggregate value, if that is the shape.
    pub fn single_aggregate(&self) -> Option<&Value> {
        match self {
            QueryResult::Aggregation(rows) if rows.len() == 1 => Some(&rows[0].value),
            _ => None,
        }
    }

    pub fn group_by(&self) -> Option<&[GroupByRows]> {
        match self {
            QueryResult::GroupBy(g) => Some(g),
            _ => None,
        }
    }
}

/// What one server contributed to a query — recorded by the broker during
/// gather so partial responses say exactly which servers answered and how
/// much data each returned, not just a boolean flag.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerContribution {
    pub server: String,
    /// False when this server timed out or errored. If `covered_by` is
    /// non-empty its segments were still answered (by other replicas), so
    /// the response is complete despite `responded: false`.
    pub responded: bool,
    pub segments_processed: u64,
    pub docs_scanned: u64,
    pub time_ms: u64,
    /// Replicas that took over this server's segment list after it failed.
    /// Empty for servers that answered themselves or whose segments were
    /// genuinely lost.
    pub covered_by: Vec<String>,
}

/// Execution statistics accumulated across all servers touched by a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionStats {
    /// Broker-assigned query id, propagated to every server so spans,
    /// per-server stats, and slow-query-log entries can be joined on it.
    /// Deterministic under test: derived from the broker's seeded RNG and
    /// a per-broker sequence number. Zero means "not yet assigned".
    pub query_id: u64,
    /// Segments the routing table asked servers to consider.
    pub num_segments_queried: u64,
    /// Segments actually processed (not pruned by metadata).
    pub num_segments_processed: u64,
    /// Segments pruned by metadata/time-range checks.
    pub num_segments_pruned: u64,
    /// Documents (or preaggregated documents) the filter matched and that
    /// were scanned post-filter.
    pub num_docs_scanned: u64,
    /// Column entries touched while evaluating filters.
    pub num_entries_scanned_in_filter: u64,
    /// Column entries touched while computing projections/aggregations.
    pub num_entries_scanned_post_filter: u64,
    /// Total documents in all queried segments.
    pub total_docs: u64,
    /// Raw (unaggregated) documents the query *would* have scanned without
    /// the star-tree; used for the paper's Figure 13 ratio.
    pub raw_docs_equivalent: u64,
    /// Servers asked / answered; unequal values imply a partial response.
    pub num_servers_queried: u64,
    pub num_servers_responded: u64,
    /// End-to-end broker time.
    pub time_used_ms: u64,
    /// Segments answered from metadata alone / the star-tree / raw scans.
    pub num_segments_metadata_only: u64,
    pub num_segments_star_tree: u64,
    pub num_segments_raw: u64,
    /// Per-server accounting filled in by the broker during gather; on a
    /// partial response the non-responding servers appear with
    /// `responded: false`.
    pub per_server: Vec<ServerContribution>,
    /// Hedged scatter accounting: speculative re-issues of a straggling
    /// server's segment slice to a surviving replica, and how many of them
    /// delivered the accepted (first) answer. Losers are discarded at
    /// gather and never double-count into `num_docs_scanned`/`per_server`.
    pub hedges_issued: u64,
    pub hedges_won: u64,
    /// Always false: no path sets it. Kept only because the benchmark
    /// client reads it for `broker.cache_hit_frac`; it goes together
    /// with that metric.
    pub served_from_cache: bool,
}

impl ExecutionStats {
    /// Merge per-server stats into broker-level totals.
    pub fn merge(&mut self, other: &ExecutionStats) {
        if self.query_id == 0 {
            self.query_id = other.query_id;
        }
        self.num_segments_queried += other.num_segments_queried;
        self.num_segments_processed += other.num_segments_processed;
        self.num_segments_pruned += other.num_segments_pruned;
        self.num_docs_scanned += other.num_docs_scanned;
        self.num_entries_scanned_in_filter += other.num_entries_scanned_in_filter;
        self.num_entries_scanned_post_filter += other.num_entries_scanned_post_filter;
        self.total_docs += other.total_docs;
        self.raw_docs_equivalent += other.raw_docs_equivalent;
        self.num_servers_queried += other.num_servers_queried;
        self.num_servers_responded += other.num_servers_responded;
        self.time_used_ms = self.time_used_ms.max(other.time_used_ms);
        self.num_segments_metadata_only += other.num_segments_metadata_only;
        self.num_segments_star_tree += other.num_segments_star_tree;
        self.num_segments_raw += other.num_segments_raw;
        self.per_server.extend(other.per_server.iter().cloned());
        self.hedges_issued += other.hedges_issued;
        self.hedges_won += other.hedges_won;
    }

    /// Figure 13's metric: preaggregated docs scanned / raw docs equivalent.
    /// `None` when the query did not use a preaggregated path.
    pub fn preaggregation_ratio(&self) -> Option<f64> {
        if self.raw_docs_equivalent == 0 {
            None
        } else {
            Some(self.num_docs_scanned as f64 / self.raw_docs_equivalent as f64)
        }
    }
}

/// The full broker response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    pub result: QueryResult,
    pub stats: ExecutionStats,
    /// True when some servers failed or timed out and their partial results
    /// are missing from `result`.
    pub partial: bool,
    /// Human-readable per-server errors that caused `partial`.
    pub exceptions: Vec<String>,
    /// Merged broker → server → segment operator profile; `None` unless
    /// the request set [`QueryRequest::profile`].
    pub profile: Option<crate::profile::QueryProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder() {
        let q = QueryRequest::new("SELECT COUNT(*) FROM t")
            .with_timeout_ms(250)
            .with_tenant("ads");
        assert_eq!(q.timeout_ms, 250);
        assert_eq!(q.tenant.as_deref(), Some("ads"));
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let mut a = ExecutionStats {
            num_docs_scanned: 10,
            time_used_ms: 5,
            num_servers_queried: 1,
            ..Default::default()
        };
        let b = ExecutionStats {
            num_docs_scanned: 7,
            time_used_ms: 9,
            num_servers_queried: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.num_docs_scanned, 17);
        assert_eq!(a.time_used_ms, 9); // max, not sum
        assert_eq!(a.num_servers_queried, 3);
    }

    #[test]
    fn preaggregation_ratio() {
        let s = ExecutionStats {
            num_docs_scanned: 25,
            raw_docs_equivalent: 100,
            ..Default::default()
        };
        assert_eq!(s.preaggregation_ratio(), Some(0.25));
        assert_eq!(ExecutionStats::default().preaggregation_ratio(), None);
    }

    #[test]
    fn single_aggregate_helper() {
        let r = QueryResult::Aggregation(vec![AggregationRow {
            function: "count(*)".into(),
            value: Value::Long(3),
        }]);
        assert_eq!(r.single_aggregate(), Some(&Value::Long(3)));
        let multi = QueryResult::Aggregation(vec![]);
        assert_eq!(multi.single_aggregate(), None);
    }
}
