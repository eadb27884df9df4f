//! Broker survival layer scenarios (ISSUE 7): hedged scatter, tiered
//! admission control, and the single-flight result cache.
//!
//! Every scenario is deterministic: straggler servers are made by `Delay`
//! faults at the `server.execute` chaos site, hedge targets are the first
//! sorted surviving replica, and cache keys are normalized-AST plus
//! view-generation, so no test depends on thread scheduling for its
//! result payload — only (generously bounded) wall-clock assertions do.

use pinot_common::config::TableConfig;
use pinot_common::query::{QueryRequest, QueryResult};
use pinot_common::{DataType, FieldSpec, PinotError, Record, Schema, TimeUnit, Value};
use pinot_core::broker::AdmissionLimits;
use pinot_core::chaos::{sites, Fault, FaultScope};
use pinot_core::{ClusterConfig, PinotCluster};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::new(
        "views",
        vec![
            FieldSpec::dimension("viewer", DataType::Long),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn rows(base: i64, n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::new(vec![
                Value::Long(base + i),
                Value::Long(1 + (base + i) % 7),
                Value::Long(10),
            ])
        })
        .collect()
}

fn count_of(resp: &pinot_common::query::QueryResponse) -> i64 {
    match &resp.result {
        QueryResult::Aggregation(rows) => rows
            .iter()
            .find(|r| r.function.starts_with("count"))
            .and_then(|r| r.value.as_i64())
            .unwrap_or(-1),
        _ => -1,
    }
}

/// A replicated 3-server cluster with enough uploaded segments that every
/// scatter fans out to all three servers, plus enough identical warmup
/// queries that every server crosses the latency digest's sample floor.
fn hedging_cluster() -> PinotCluster {
    let mut config = ClusterConfig::default().with_servers(3);
    config.engine.taskpool_threads = 8;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views").with_replication(3), schema())
        .unwrap();
    for base in [0i64, 100, 200, 300, 400, 500] {
        cluster.upload_rows("views", rows(base, 50)).unwrap();
    }
    // Warm the per-server latency digest past its sample floor (8) so the
    // broker has a healthy-p99 estimate to derive hedge delays from.
    for _ in 0..10 {
        let resp = cluster.query("SELECT COUNT(*) FROM views");
        assert!(!resp.partial, "{:?}", resp.exceptions);
    }
    cluster
}

const MASK_QUERY: &str = "SELECT COUNT(*), SUM(clicks) FROM views";

/// Tentpole acceptance: a Delay-faulted server is masked by a hedged
/// request — first answer wins, the result is byte-identical to the
/// un-faulted run, and latency stays far below the injected delay.
#[test]
fn hedging_masks_a_delay_faulted_server() {
    let cluster = hedging_cluster();
    let baseline = cluster.query(MASK_QUERY);
    assert!(!baseline.partial);

    // Server_1 straggles 300ms on every call; the hedge delay (floor 5ms,
    // healthy p99 well under it) fires two orders of magnitude earlier.
    let fault = cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::delay_ms(300).with_scope(FaultScope::any().instance("Server_1")),
    );
    let started = Instant::now();
    let resp = cluster.query(MASK_QUERY);
    let elapsed = started.elapsed();
    cluster.chaos().disarm(fault);

    assert!(
        !resp.partial,
        "hedging must mask, not fail: {:?}",
        resp.exceptions
    );
    assert_eq!(
        resp.result, baseline.result,
        "masked result must be byte-identical"
    );
    assert!(
        elapsed < Duration::from_millis(200),
        "hedge should beat the 300ms straggler, took {elapsed:?}"
    );
    assert!(
        resp.stats.hedges_issued >= 1,
        "stats: {:?}",
        resp.stats.hedges_issued
    );
    assert!(resp.stats.hedges_won >= 1);
    assert!(!resp.stats.served_from_cache);
    // The straggler's slice shows up as covered by its hedge target.
    let straggler = resp
        .stats
        .per_server
        .iter()
        .find(|s| s.server == "Server_1")
        .expect("straggler accounted for");
    assert!(!straggler.responded);
    assert!(!straggler.covered_by.is_empty());
    let snap = cluster.metrics_snapshot();
    assert!(snap.counter("broker.hedge_issued") >= 1);
    assert!(snap.counter("broker.hedge_won") >= 1);
}

/// Satellite: the hedge loser must not double-count into ExecutionStats.
/// Server_1 is mildly slow (its primary reply lands *after* its slice was
/// already won by a hedge, while another slice is still pending — the
/// classic loser) and Server_3 is very slow. Docs scanned and per-server
/// accounting must match the un-faulted baseline exactly.
#[test]
fn hedge_loser_is_discarded_not_double_counted() {
    let cluster = hedging_cluster();
    let baseline = cluster.query(MASK_QUERY);

    let f1 = cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::delay_ms(50).with_scope(FaultScope::any().instance("Server_1")),
    );
    let f3 = cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::delay_ms(200).with_scope(FaultScope::any().instance("Server_3")),
    );
    let resp = cluster.query(MASK_QUERY);
    cluster.chaos().disarm(f1);
    cluster.chaos().disarm(f3);

    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(resp.result, baseline.result);
    assert_eq!(
        resp.stats.num_docs_scanned, baseline.stats.num_docs_scanned,
        "a discarded loser must not inflate docs_scanned"
    );
    assert_eq!(
        resp.stats.num_segments_processed,
        baseline.stats.num_segments_processed
    );
    // No server may appear twice in the per-server accounting.
    let mut servers: Vec<&str> = resp
        .stats
        .per_server
        .iter()
        .map(|s| s.server.as_str())
        .collect();
    servers.sort_unstable();
    let before = servers.len();
    servers.dedup();
    assert_eq!(
        servers.len(),
        before,
        "duplicate per-server entries: {:?}",
        resp.stats.per_server
    );
    // The responding servers' docs sum to the broker total — nothing
    // counted twice, nothing dropped.
    let per_server_docs: u64 = resp.stats.per_server.iter().map(|s| s.docs_scanned).sum();
    assert_eq!(per_server_docs, resp.stats.num_docs_scanned);
    assert!(resp.stats.hedges_won >= 1);
    // Server_1's primary answered after its hedge won: a wasted hedge-race
    // reply, observed and discarded.
    assert!(
        cluster.metrics_snapshot().counter("broker.hedge_wasted") >= 1,
        "the loser reply should be counted as wasted"
    );
}

/// Satellite: when every replica of a slice is faulted, hedging cannot
/// help and the response degrades to the established partial semantics —
/// typed exceptions naming the unrecoverable loss, not a hang or a panic.
#[test]
fn all_replicas_faulted_degrades_to_partial() {
    let cluster = hedging_cluster();
    let fault = cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::fail(PinotError::Io("every nic is down".into())),
    );
    let started = Instant::now();
    let resp = cluster.execute(&QueryRequest::new(MASK_QUERY).with_timeout_ms(2_000));
    cluster.chaos().disarm(fault);

    assert!(resp.partial, "total outage must be partial");
    assert!(!resp.exceptions.is_empty());
    assert!(
        started.elapsed() < Duration::from_millis(2_000),
        "failover must give up before the deadline, not hang"
    );
}

/// Satellite: cache invalidation on segment commit. A cached result is
/// served until new data commits; the commit bumps the table's view
/// generation and the next query recomputes against fresh data.
#[test]
fn cache_invalidates_on_segment_commit() {
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.result_cache = true;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster.upload_rows("views", rows(0, 40)).unwrap();

    let q = "SELECT COUNT(*) FROM views";
    let first = cluster.query(q);
    assert_eq!(count_of(&first), 40);
    assert!(!first.stats.served_from_cache);

    let second = cluster.query(q);
    assert_eq!(count_of(&second), 40);
    assert!(
        second.stats.served_from_cache,
        "repeat query must hit the cache"
    );
    assert_eq!(second.result, first.result);
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("broker.cache_hit"), 1);

    // Commit new data: the view change invalidates every cached entry for
    // the table, so no stale read crosses the commit.
    cluster.upload_rows("views", rows(100, 10)).unwrap();
    let third = cluster.query(q);
    assert_eq!(count_of(&third), 50, "post-commit data must be visible");
    assert!(!third.stats.served_from_cache);
    let snap = cluster.metrics_snapshot();
    assert_eq!(
        snap.counter("broker.cache_hit"),
        1,
        "the stale entry must not be served after the commit"
    );
}

/// Satellite regression: partial/exception responses must never be
/// admitted to the result cache — a degraded answer served once is a
/// transient; served forever from cache it is data loss.
#[test]
fn partial_responses_are_never_cached() {
    let mut config = ClusterConfig::default().with_servers(2);
    config.engine.result_cache = true;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    for base in [0i64, 100] {
        cluster.upload_rows("views", rows(base, 30)).unwrap();
    }

    let q = "SELECT COUNT(*) FROM views";
    // Replication is 1, so a failed server is unrecoverable → partial.
    let fault = cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::fail(PinotError::Io("nic down".into()))
            .with_scope(FaultScope::any().instance("Server_1")),
    );
    let degraded = cluster.query(q);
    assert!(degraded.partial, "fault should degrade the query");
    cluster.chaos().disarm(fault);

    let healed = cluster.query(q);
    assert!(!healed.partial, "{:?}", healed.exceptions);
    assert!(
        !healed.stats.served_from_cache,
        "the partial response must not have been cached"
    );
    assert_eq!(count_of(&healed), 60);
    assert_eq!(cluster.metrics_snapshot().counter("broker.cache_hit"), 0);
}

/// Single-flight: concurrent identical queries coalesce onto one
/// execution — one miss leads, everyone else rides its answer.
#[test]
fn concurrent_identical_queries_coalesce() {
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.result_cache = true;
    let cluster = Arc::new(PinotCluster::start(config).unwrap());
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster.upload_rows("views", rows(0, 80)).unwrap();

    // Slow the one real execution down so the other threads arrive while
    // it is still in flight.
    cluster
        .chaos()
        .arm(sites::SERVER_EXECUTE, Fault::delay_ms(40).first_n(1));

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || cluster.query("SELECT SUM(clicks) FROM views"))
        })
        .collect();
    let responses: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    for resp in &responses {
        assert!(!resp.partial, "{:?}", resp.exceptions);
        assert_eq!(
            resp.result, responses[0].result,
            "coalesced answers must agree"
        );
    }
    let snap = cluster.metrics_snapshot();
    assert_eq!(
        snap.counter("broker.cache_miss"),
        1,
        "exactly one leader executes"
    );
    assert_eq!(
        snap.counter("broker.cache_hit") + snap.counter("broker.cache_coalesced"),
        7,
        "everyone else is served without touching the cluster"
    );
}

/// Admission control sheds with the typed `Overloaded` error — distinct
/// from the server-side `QuotaExceeded` — once the tenant's slots and the
/// wait queue are both exhausted.
#[test]
fn admission_sheds_with_typed_overloaded_error() {
    let cluster = Arc::new(PinotCluster::start(ClusterConfig::default().with_servers(1)).unwrap());
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster.upload_rows("views", rows(0, 40)).unwrap();
    cluster.brokers()[0].set_admission_limits(AdmissionLimits {
        per_tenant: 1,
        queue: 0,
    });

    // One slow in-flight query holds the tenant's only slot.
    cluster
        .chaos()
        .arm(sites::SERVER_EXECUTE, Fault::delay_ms(150).first_n(1));
    let holder = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || cluster.query("SELECT COUNT(*) FROM views"))
    };
    std::thread::sleep(Duration::from_millis(40));

    let shed = cluster.query("SELECT SUM(clicks) FROM views");
    assert!(shed.partial);
    assert!(
        shed.exceptions.iter().any(|e| e.starts_with("overloaded")),
        "expected a typed overloaded exception, got {:?}",
        shed.exceptions
    );
    assert!(
        !shed.exceptions.iter().any(|e| e.contains("quota")),
        "broker shedding must not masquerade as a server quota rejection"
    );
    assert!(cluster.metrics_snapshot().counter("broker.admission_shed") >= 1);

    let held = holder.join().unwrap();
    assert!(!held.partial, "{:?}", held.exceptions);
    // Slot released: the next query is admitted immediately.
    let after = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!after.partial, "{:?}", after.exceptions);
}

/// The bounded wait queue: a query arriving while the slot is held parks,
/// then runs when the slot frees — queued, not shed.
#[test]
fn admission_queues_within_bounds_instead_of_shedding() {
    let cluster = Arc::new(PinotCluster::start(ClusterConfig::default().with_servers(1)).unwrap());
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster.upload_rows("views", rows(0, 40)).unwrap();
    cluster.brokers()[0].set_admission_limits(AdmissionLimits {
        per_tenant: 1,
        queue: 2,
    });

    cluster
        .chaos()
        .arm(sites::SERVER_EXECUTE, Fault::delay_ms(80).first_n(1));
    let holder = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || cluster.query("SELECT COUNT(*) FROM views"))
    };
    std::thread::sleep(Duration::from_millis(25));

    let queued = cluster.query("SELECT COUNT(*) FROM views");
    assert!(
        !queued.partial,
        "queued query must succeed: {:?}",
        queued.exceptions
    );
    assert_eq!(count_of(&queued), 40);
    assert!(!holder.join().unwrap().partial);

    let snap = cluster.metrics_snapshot();
    assert!(snap.counter("broker.admission_queued") >= 1);
    assert_eq!(snap.counter("broker.admission_shed"), 0);
}

/// Graceful degradation: while the scatter path sheds everything, queries
/// answerable from the result cache are still admitted and served.
#[test]
fn cached_queries_are_served_while_shedding() {
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.result_cache = true;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster.upload_rows("views", rows(0, 40)).unwrap();

    let q = "SELECT COUNT(*) FROM views";
    let primed = cluster.query(q);
    assert!(!primed.partial);

    // Shed everything: zero slots, zero queue.
    cluster.brokers()[0].set_admission_limits(AdmissionLimits {
        per_tenant: 0,
        queue: 0,
    });
    let cached = cluster.query(q);
    assert!(
        !cached.partial,
        "cached-servable query must bypass shedding"
    );
    assert!(cached.stats.served_from_cache);
    assert_eq!(cached.result, primed.result);

    let fresh = cluster.query("SELECT SUM(clicks) FROM views");
    assert!(fresh.partial, "uncached query must shed while overloaded");
    assert!(fresh.exceptions.iter().any(|e| e.starts_with("overloaded")));
}

/// EXPLAIN ANALYZE surfaces the survival layer: a cache-served run is
/// annotated `cache=hit` and its profile tree names the result cache.
#[test]
fn explain_analyze_shows_cache_hit() {
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.result_cache = true;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster.upload_rows("views", rows(0, 40)).unwrap();

    let q = "SELECT COUNT(*) FROM views";
    let _prime = cluster.query(q);
    let report = cluster.explain(&format!("EXPLAIN ANALYZE {q}")).unwrap();
    assert!(report.contains("cache=hit"), "report:\n{report}");
    assert!(report.contains("result_cache"), "report:\n{report}");
}
