//! Fault-injection scenarios through `pinot-chaos` (ISSUE 2 acceptance).
//!
//! Every scenario is deterministic: faults are armed at named sites with
//! explicit scopes and budgets, time is a manual clock where it matters,
//! and the committer election is a BTreeMap order (lowest instance id at
//! the target offset wins), so `Server_1` is always the first committer.

use pinot_common::config::{StreamConfig, TableConfig};
use pinot_common::query::{QueryRequest, QueryResult};
use pinot_common::time::Clock;
use pinot_common::{DataType, FieldSpec, PinotError, Record, Schema, TimeUnit, Value};
use pinot_core::chaos::{sites, Fault, FaultScope};
use pinot_core::{ClusterConfig, PinotCluster};

fn schema() -> Schema {
    Schema::new(
        "views",
        vec![
            FieldSpec::dimension("viewer", DataType::Long),
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn row(viewer: i64, country: &str, clicks: i64, day: i64) -> Record {
    Record::new(vec![
        Value::Long(viewer),
        Value::String(country.into()),
        Value::Long(clicks),
        Value::Long(day),
    ])
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

/// A server killed mid-scatter: with replication 2, the broker re-routes
/// the dead server's segments to the surviving replica and the response
/// stays complete — `partial: false`, full count, and the per-server
/// stats name the covering replica.
#[test]
fn replica_crash_mid_query_recovers_via_failover() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(2)).unwrap();
    cluster
        .create_table(TableConfig::offline("views").with_replication(2), schema())
        .unwrap();
    for base in [0i64, 100] {
        let rows: Vec<Record> = (0..50).map(|i| row(base + i, "us", 1, 10)).collect();
        cluster.upload_rows("views", rows).unwrap();
    }
    // Healthy baseline.
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 100);

    // Server_1 dies the next time it is asked to execute anything.
    cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::crash().with_scope(FaultScope::any().instance("Server_1")),
    );

    let resp = cluster.query("SELECT COUNT(*) FROM views");
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("chaos.fault.injected"), 1, "crash never fired");
    assert!(
        !resp.partial,
        "failover should recover: {:?}",
        resp.exceptions
    );
    assert_eq!(count_of(&resp), 100);
    assert!(snap.counter("broker.scatter.failover_success") >= 1);
    assert!(snap.counter("broker.scatter.retry") >= 1);

    // The failed server is reported distinctly: it did not respond, but its
    // segments were covered by the surviving replica.
    let failed = resp
        .stats
        .per_server
        .iter()
        .find(|c| c.server == "Server_1")
        .expect("Server_1 appears in per-server stats");
    assert!(!failed.responded);
    assert_eq!(failed.covered_by, vec!["Server_2".to_string()]);
    let survivor = resp
        .stats
        .per_server
        .iter()
        .find(|c| c.server == "Server_2")
        .expect("Server_2 appears in per-server stats");
    assert!(survivor.responded);
}

/// The same crash with replication 1: no surviving replica exists, so the
/// response is partial and the exception names the dead server and how
/// many segments were lost.
#[test]
fn all_replicas_crashed_yields_partial_naming_the_server() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(1)).unwrap();
    cluster
        .create_table(TableConfig::offline("views").with_replication(1), schema())
        .unwrap();
    cluster
        .upload_rows("views", (0..50).map(|i| row(i, "us", 1, 10)).collect())
        .unwrap();
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 50);

    cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::crash().with_scope(FaultScope::any().instance("Server_1")),
    );

    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(resp.partial, "no replica can cover — must be partial");
    assert!(
        resp.exceptions.iter().any(|e| e.contains("Server_1")),
        "exception must name the dead server: {:?}",
        resp.exceptions
    );
    assert!(
        resp.exceptions.iter().any(|e| e.contains("unrecoverable")),
        "{:?}",
        resp.exceptions
    );
    let failed = resp
        .stats
        .per_server
        .iter()
        .find(|c| c.server == "Server_1")
        .unwrap();
    assert!(!failed.responded);
    assert!(failed.covered_by.is_empty(), "nobody covered the segments");
    // No failover succeeded.
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("broker.scatter.failover_success"), 0);
}

/// §3.3.6 committer failure: the elected committer crashes after winning
/// the election but before uploading. Once `commit_timeout_ms` passes, the
/// controller promotes the caught-up surviving replica, which commits the
/// segment — and the rows stay queryable throughout.
#[test]
fn committer_crash_promotes_caught_up_replica() {
    let clock = Clock::manual(1_700_000_000_000);
    let cluster = PinotCluster::start(
        ClusterConfig::default()
            .with_servers(2)
            .with_clock(clock.clone()),
    )
    .unwrap();
    cluster.streams().create_topic("view-events", 1).unwrap();
    cluster
        .create_table(
            TableConfig::realtime(
                "views",
                StreamConfig {
                    topic: "view-events".into(),
                    flush_threshold_rows: 10,
                    flush_threshold_millis: i64::MAX / 4,
                },
            )
            .with_replication(2),
            schema(),
        )
        .unwrap();

    for i in 0..10i64 {
        cluster
            .produce("view-events", &Value::Long(i), row(i, "us", 1, 20_000))
            .unwrap();
    }

    // The committer election picks the lowest caught-up instance id, which
    // is deterministically Server_1. Arm its death at the commit site:
    // it will crash after winning, before uploading.
    cluster.chaos().arm(
        sites::COMPLETION_COMMIT,
        Fault::crash().with_scope(FaultScope::any().instance("Server_1")),
    );

    // Tick 1: both replicas ingest 10 rows, reach the end criteria, and
    // poll. The FSM elects Server_1 once it has heard from both.
    // Tick 2: Server_1 receives COMMIT and crashes; Server_2 HOLDs.
    cluster.consume_tick().unwrap();
    cluster.consume_tick().unwrap();
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("server.chaos.crashed"), 1);
    assert_eq!(snap.counter("chaos.fault.injected"), 1);

    // Rows are still queryable from the survivor's consuming segment even
    // though the segment is not committed yet.
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 10);

    // Within the commit timeout the survivor keeps holding.
    cluster.servers()[1].consume_tick().unwrap();
    let leader = cluster.leader_controller().unwrap();
    assert!(leader
        .download_segment("views_REALTIME", "views_REALTIME__0__0")
        .is_err());

    // Past the timeout the survivor is promoted and commits. (Only the
    // survivor ticks — the crashed process is gone.)
    clock.advance(30_001);
    cluster.servers()[1].consume_tick().unwrap();
    assert!(
        leader
            .download_segment("views_REALTIME", "views_REALTIME__0__0")
            .is_ok(),
        "promoted replica must have committed the segment"
    );

    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 10);
}

/// A stalled stream partition: fetches fail (retried, then skipped), the
/// ingestion-lag gauge rises while the stall lasts, and recovery drains
/// the backlog back to lag 0. Queries keep answering with the rows already
/// ingested — a stall degrades freshness, not availability.
#[test]
fn stream_stall_raises_lag_then_recovers() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(1)).unwrap();
    cluster.streams().create_topic("view-events", 1).unwrap();
    cluster
        .create_table(
            TableConfig::realtime(
                "views",
                StreamConfig {
                    topic: "view-events".into(),
                    flush_threshold_rows: 1_000,
                    flush_threshold_millis: i64::MAX / 4,
                },
            ),
            schema(),
        )
        .unwrap();

    for i in 0..5i64 {
        cluster
            .produce("view-events", &Value::Long(i), row(i, "us", 1, 20_000))
            .unwrap();
    }
    cluster.consume_tick().unwrap();
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 5);

    // Stall partition 0: every fetch errors until disarmed.
    let stall = cluster.chaos().arm(
        sites::STREAM_FETCH,
        Fault::fail(PinotError::Io("stream partition unreachable".into()))
            .with_scope(FaultScope::any().partition(0)),
    );
    for i in 5..12i64 {
        cluster
            .produce("view-events", &Value::Long(i), row(i, "us", 1, 20_000))
            .unwrap();
    }
    cluster.consume_tick().unwrap();
    let snap = cluster.metrics_snapshot();
    assert!(snap.counter("server.consume.fetch_failed") >= 1);
    assert_eq!(
        snap.gauge("server.consume.lag.views_REALTIME.p0"),
        Some(7),
        "lag gauge must show the un-ingested backlog"
    );
    // Already-ingested rows still answer.
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 5);

    // Recovery: disarm and tick — the backlog drains.
    cluster.chaos().disarm(stall);
    cluster.consume_tick().unwrap();
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.gauge("server.consume.lag.views_REALTIME.p0"), Some(0));
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 12);
}

/// Metastore CAS flakes during a segment-metadata write: the controller's
/// retry loop absorbs exactly the injected failures and the upload
/// succeeds with no caller-visible error.
#[test]
fn metastore_cas_conflicts_are_retried_transparently() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(1)).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();

    // Two consecutive CAS failures; the third attempt goes through.
    cluster.chaos().arm(
        sites::METASTORE_CAS,
        Fault::fail(PinotError::Io("zk connection reset".into())).first_n(2),
    );

    cluster
        .upload_rows("views", (0..20).map(|i| row(i, "us", 1, 10)).collect())
        .unwrap();

    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("chaos.fault.injected"), 2);
    assert!(snap.counter("controller.meta.cas_retry") >= 1);
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 20);
}

/// Delay faults slow a site down without failing it — the query still
/// completes (the deadline is generous) and the injection is counted.
#[test]
fn delay_fault_slows_but_does_not_fail() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(1)).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster
        .upload_rows("views", (0..10).map(|i| row(i, "us", 1, 10)).collect())
        .unwrap();

    cluster
        .chaos()
        .arm(sites::SERVER_EXECUTE, Fault::delay_ms(5).first_n(1));
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 10);
    assert_eq!(
        cluster.metrics_snapshot().counter("chaos.fault.injected"),
        1
    );
}

// ---- chaos under parallel execution (ISSUE 3) ----
//
// The taskpool changed *how* a server runs a request (per-segment pool
// tasks) but must not change *what* chaos faults mean: injection stays
// request-level, and the PR 2 failover/partial-response semantics hold
// verbatim with a multi-thread pool active.

/// Flaky replica with the pool active: Server_1 fails every execute with a
/// retriable error, and failover still recovers a complete response.
#[test]
fn flaky_fault_under_parallel_pool_still_fails_over() {
    let mut config = ClusterConfig::default().with_servers(2);
    config.engine.taskpool_threads = 4;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views").with_replication(2), schema())
        .unwrap();
    for base in [0i64, 100, 200] {
        let rows: Vec<Record> = (0..50).map(|i| row(base + i, "us", 1, 10)).collect();
        cluster.upload_rows("views", rows).unwrap();
    }
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 150);

    cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::flaky(1.0, 7, PinotError::Io("flaky nic".into()))
            .with_scope(FaultScope::any().instance("Server_1")),
    );
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    let snap = cluster.metrics_snapshot();
    assert!(snap.counter("chaos.fault.injected") >= 1);
    assert!(
        !resp.partial,
        "failover should recover: {:?}",
        resp.exceptions
    );
    assert_eq!(count_of(&resp), 150);
    assert!(snap.counter("broker.scatter.failover_success") >= 1);
    // The recovered query really ran its segment plans as pool tasks.
    assert!(snap.counter("taskpool.tasks_run") > 0);
}

/// Delay with the pool active: a one-shot latency spike on a replicated
/// table is absorbed without going partial.
#[test]
fn delay_fault_under_parallel_pool_does_not_fail() {
    let mut config = ClusterConfig::default().with_servers(2);
    config.engine.taskpool_threads = 4;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views").with_replication(2), schema())
        .unwrap();
    for base in [0i64, 100] {
        let rows: Vec<Record> = (0..50).map(|i| row(base + i, "us", 1, 10)).collect();
        cluster.upload_rows("views", rows).unwrap();
    }

    cluster
        .chaos()
        .arm(sites::SERVER_EXECUTE, Fault::delay_ms(5).first_n(1));
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 100);
    assert!(cluster.metrics_snapshot().counter("chaos.fault.injected") >= 1);
}

/// A delay that eats the whole query deadline: by the time the server fans
/// out, the deadline has passed, so its queued per-segment tasks are
/// *cancelled* — never run — and the cancellations show up in the new
/// taskpool counters alongside the server's deadline-abandonment counter.
#[test]
fn deadline_expiry_cancels_queued_segment_tasks() {
    // Threshold 0 pins the fan-out gate open: this corpus is far below
    // the default gate and would otherwise run inline with no pool tasks
    // to cancel.
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.taskpool_threads = 2;
    config.engine.fanout_threshold_ns = 0;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    for base in [0i64, 100, 200] {
        let rows: Vec<Record> = (0..30).map(|i| row(base + i, "us", 1, 10)).collect();
        cluster.upload_rows("views", rows).unwrap();
    }

    // The delay fires at request admission (request-level chaos site),
    // after which the 10ms deadline has long passed.
    cluster
        .chaos()
        .arm(sites::SERVER_EXECUTE, Fault::delay_ms(50).first_n(1));
    let req = QueryRequest::new("SELECT COUNT(*) FROM views").with_timeout_ms(10);
    let resp = cluster.execute(&req);
    assert!(resp.partial, "deadline expiry must surface as partial");
    assert!(!resp.exceptions.is_empty());

    let snap = cluster.metrics_snapshot();
    assert!(
        snap.counter("taskpool.tasks_cancelled") >= 3,
        "all three queued segment tasks should be abandoned, got {}",
        snap.counter("taskpool.tasks_cancelled")
    );
    assert!(snap.counter("server.exec.deadline_abandoned") >= 1);

    // The cluster is healthy again once the fault budget is spent.
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 90);
}

/// Morsel-level deadline discipline (ISSUE 8): with fan-out forced and a
/// single 5000-row segment split into five 1024-doc morsels, a delay
/// fault at the morsel chaos site stalls every executing worker past the
/// query deadline. The still-queued morsels must be *abandoned* — never
/// run — surfacing as taskpool cancellations and the server's
/// deadline-abandonment counter, and no partially-merged morsel result
/// may leak into the response.
#[test]
fn delayed_morsel_abandons_queued_morsels_at_deadline() {
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.taskpool_threads = 2;
    // Gate open + minimum morsel size: the one segment below must
    // split into ⌈5000/1024⌉ = 5 morsels and fan out.
    config.engine.fanout_threshold_ns = 0;
    config.engine.morsel_docs = 1024;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    let rows: Vec<Record> = (0..5000).map(|i| row(i, "us", 1, 10)).collect();
    cluster.upload_rows("views", rows).unwrap();

    // Every morsel sleeps 30ms against a 10ms deadline. At most three
    // threads can execute morsels concurrently (two workers plus the
    // scope owner helping), and each blocks well past the deadline on its
    // first morsel — so at least two of the five morsels are still queued
    // when the deadline passes and must be cancelled at dequeue.
    cluster.chaos().arm(sites::EXEC_MORSEL, Fault::delay_ms(30));
    // SUM forces a raw column scan — a bare COUNT(*) would be answered
    // from segment metadata without ever reaching the morsel plane.
    let req = QueryRequest::new("SELECT COUNT(*), SUM(clicks) FROM views").with_timeout_ms(10);
    let resp = cluster.execute(&req);
    assert!(
        resp.partial,
        "morsel deadline expiry must surface as partial"
    );
    assert!(!resp.exceptions.is_empty());
    // No partial merge may leak: the segment's morsels did scan rows, but
    // an abandoned morsel poisons the whole segment result, so nothing a
    // completed morsel counted can reach the response.
    assert!(
        count_of(&resp) <= 0,
        "partially-merged morsel result leaked into the response: {:?}",
        resp.result
    );

    let snap = cluster.metrics_snapshot();
    assert!(
        snap.counter("taskpool.tasks_cancelled") >= 1,
        "queued morsels should be cancelled at dequeue, got {}",
        snap.counter("taskpool.tasks_cancelled")
    );
    assert!(
        snap.counter("server.exec.deadline_abandoned") >= 1,
        "abandoned morsel must be counted"
    );
    assert!(
        snap.counter("exec.morsels_split") >= 5,
        "the segment should have fanned out into five morsels"
    );

    // Disarm and the same query completes exactly — the abandoned morsels
    // left no residue in any accumulator.
    cluster.chaos().clear();
    let resp = cluster.query("SELECT COUNT(*), SUM(clicks) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 5000);
}
