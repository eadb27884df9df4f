//! End-to-end observability: after a hybrid (offline + realtime) workload
//! the cluster-wide metrics snapshot must show broker phase timings,
//! server queue/execute timings, ingestion lag, and completion-protocol
//! activity; profiled queries must expose broker phase nodes, per-segment
//! plan kinds, and per-server contributions; partial queries must land in
//! the slow/partial query log with a profile naming the broker's phases.

use pinot::common::config::{StreamConfig, TableConfig};
use pinot::common::profile::ProfileNode;
use pinot::common::query::QueryRequest;
use pinot::common::time::Clock;
use pinot::common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot::{ClusterConfig, PinotCluster};

fn schema() -> Schema {
    Schema::new(
        "events",
        vec![
            FieldSpec::dimension("user", DataType::Long),
            FieldSpec::dimension("kind", DataType::String),
            FieldSpec::metric("n", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn row(user: i64, kind: &str, n: i64, day: i64) -> Record {
    Record::new(vec![
        Value::Long(user),
        Value::String(kind.into()),
        Value::Long(n),
        Value::Long(day),
    ])
}

fn count(cluster: &PinotCluster, pql: &str) -> i64 {
    let resp = cluster.query(pql);
    assert!(!resp.partial, "{pql}: {:?}", resp.exceptions);
    match &resp.result {
        pinot::common::query::QueryResult::Aggregation(rows) => {
            rows[0].value.as_i64().unwrap_or(-1)
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn hybrid_workload_populates_metrics_and_traces() {
    let clock = Clock::manual(1_700_000_000_000);
    let cluster = PinotCluster::start(
        ClusterConfig::default()
            .with_servers(2)
            .with_clock(clock.clone()),
    )
    .unwrap();
    cluster.streams().create_topic("ev", 1).unwrap();
    cluster
        .create_table(TableConfig::offline("events"), schema())
        .unwrap();
    cluster
        .create_table(
            TableConfig::realtime(
                "events",
                StreamConfig {
                    topic: "ev".into(),
                    flush_threshold_rows: 25,
                    flush_threshold_millis: i64::MAX / 4,
                },
            ),
            schema(),
        )
        .unwrap();

    // Offline side: two segments covering days 100..=101.
    for batch in 0..2i64 {
        let rows: Vec<Record> = (0..30)
            .map(|i| row(batch * 100 + i, "a", 1, 100 + batch))
            .collect();
        cluster.upload_rows("events", rows).unwrap();
    }
    // Realtime side: 60 rows on days 101..=102; the 25-row flush threshold
    // forces at least two segment commits through the completion protocol.
    for i in 0..60i64 {
        let day = if i < 30 { 101 } else { 102 };
        cluster
            .produce("ev", &Value::Long(i), row(1000 + i, "b", 2, day))
            .unwrap();
    }
    cluster.consume_until_idle().unwrap();

    // A few queries to exercise parse/route/execute/merge on both sides of
    // the time boundary. Boundary = max offline day (101): the offline side
    // answers day < 101 (30 rows), the realtime side day >= 101 (60 rows).
    assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 90);
    let sum = cluster.query("SELECT SUM(n) FROM events");
    assert!(!sum.partial, "{:?}", sum.exceptions);
    assert!(sum.result.single_aggregate().is_some());
    assert_eq!(
        count(&cluster, "SELECT COUNT(*) FROM events WHERE day = 102"),
        30
    );

    // Profiled query: phase nodes, plan kinds, and per-server contributions.
    let resp = cluster.execute_profiled(&QueryRequest::new("SELECT COUNT(*) FROM events"));
    assert!(!resp.partial, "{:?}", resp.exceptions);
    let root = &resp.profile.as_ref().expect("profiled response").root;
    let tree = root.render_text();
    let phase_ns: Vec<u64> = root
        .children
        .iter()
        .filter(|c| matches!(c.operator, "scatter" | "gather" | "merge"))
        .map(|c| c.elapsed_ns)
        .collect();
    assert!(!phase_ns.is_empty(), "no phase nodes:\n{tree}");
    // Phases run inside the broker's execution, which runs inside the
    // reported query time (whole milliseconds, truncated).
    assert!(
        phase_ns.iter().sum::<u64>() <= root.elapsed_ns,
        "phases {phase_ns:?} exceed the broker root:\n{tree}"
    );
    assert!(
        root.elapsed_ns <= (resp.stats.time_used_ms + 1) * 1_000_000,
        "broker root {} ns vs time_used_ms {}",
        root.elapsed_ns,
        resp.stats.time_used_ms
    );
    // Executed segments name their plan; pruned ones name their prune.
    assert!(
        root.count_nodes(&|n| n.operator == "segment" && n.prune.is_none()) > 0,
        "no executed segment nodes:\n{tree}"
    );
    assert_eq!(
        root.count_nodes(&|n| {
            n.operator == "segment"
                && n.prune.is_none()
                && !matches!(n.plan_kind, Some("metadata_only" | "star_tree" | "raw"))
        }),
        0,
        "segment node without a known plan kind:\n{tree}"
    );
    assert!(!resp.stats.per_server.is_empty());
    assert!(resp.stats.per_server.iter().all(|c| c.responded));

    // Cluster-wide metrics snapshot.
    let snap = cluster.metrics_snapshot();
    for name in [
        "broker.phase.parse_ms",
        "broker.phase.route_ms",
        "broker.phase.merge_ms",
        "broker.phase.server_execute_ms",
        "broker.query.total_ms",
        "server.exec.queue_ms",
        "server.exec.execute_ms",
    ] {
        let hist = snap.histogram(name).unwrap_or_else(|| panic!("no {name}"));
        assert!(hist.count() > 0, "{name} is empty");
    }
    assert!(snap.counter("broker.query.total") >= 4);
    assert_eq!(snap.counter("broker.query.failed"), 0);
    assert!(snap.counter("server.consume.records") >= 60);
    assert!(
        snap.gauges
            .keys()
            .any(|k| k.starts_with("server.consume.lag.")),
        "no ingestion-lag gauge in {:?}",
        snap.gauges.keys().collect::<Vec<_>>()
    );
    assert!(snap.counter_family("controller.completion.instruction.") > 0);
    assert!(
        snap.counter_family("controller.fsm.transition.") > 0,
        "no FSM transitions recorded"
    );
    assert!(snap.counter("controller.commit.ok") >= 2);
    assert!(snap.counter("controller.leader.elections") >= 1);

    // The text rendering carries all three metric kinds.
    let text = cluster.render_metrics();
    assert!(text.contains("== counters =="));
    assert!(text.contains("== gauges =="));
    assert!(text.contains("== histograms (ms) =="));
    assert!(text.contains("broker.phase.parse_ms"));
}

/// Four segments spread over two servers, so the broker takes the
/// scatter/gather path (the single-server fast path has no timeout to hit
/// before the one server's synchronous call returns).
fn scatter_cluster() -> PinotCluster {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(2)).unwrap();
    cluster
        .create_table(TableConfig::offline("events"), schema())
        .unwrap();
    for batch in 0..4i64 {
        let rows: Vec<Record> = (0..20).map(|i| row(batch * 100 + i, "a", 1, 100)).collect();
        cluster.upload_rows("events", rows).unwrap();
    }
    cluster
}

#[test]
fn timed_out_queries_land_in_query_log_with_per_server_stats() {
    let cluster = scatter_cluster();
    assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 80);

    // An already-expired deadline forces a scatter timeout: the response is
    // partial and every routed server is reported as not responded.
    let req = QueryRequest::new("SELECT SUM(n) FROM events").with_timeout_ms(0);
    let resp = cluster.execute(&req);
    assert!(resp.partial);
    assert!(!resp.exceptions.is_empty());
    assert!(!resp.stats.per_server.is_empty());
    assert!(resp.stats.per_server.iter().any(|c| !c.responded));
    assert!(
        resp.profile.is_none(),
        "unprofiled responses carry no profile"
    );

    let snap = cluster.metrics_snapshot();
    assert!(snap.counter("broker.scatter.timeout") >= 1);
    assert!(snap.counter("broker.query.partial") >= 1);

    // Only the partial query is interesting enough for the query log; the
    // fast, complete COUNT(*) above is not retained.
    let recent = cluster.recent_queries();
    assert_eq!(recent.len(), 1);
    let entry = &recent[0];
    assert!(entry.partial);
    assert!(entry.exception_count > 0);
    assert_eq!(entry.query, "SELECT SUM(n) FROM events");
    // The unprofiled entry still names the broker's phases, and nothing
    // below them.
    let root = &entry.profile.as_ref().expect("log keeps the phases").root;
    assert_eq!(root.operator, "broker");
    assert!(root.children.iter().any(|c| c.operator == "scatter"));
    assert!(
        root.children.iter().all(|c| {
            matches!(
                c.operator,
                "parse" | "route" | "scatter" | "gather" | "merge"
            ) && c.children.is_empty()
        }),
        "phase nodes only:\n{}",
        root.render_text()
    );
    assert_eq!(
        root.count_nodes(&|n: &ProfileNode| matches!(n.operator, "server" | "segment")),
        0
    );

    // A profiled logged query logs exactly its response's profile.
    let resp = cluster.execute_profiled(&req);
    assert!(resp.partial);
    assert!(resp.profile.is_some());
    let recent = cluster.recent_queries();
    let entry = recent
        .iter()
        .find(|e| e.query_id == resp.stats.query_id)
        .expect("partial profiled query is logged");
    assert_eq!(entry.profile, resp.profile);
}

/// `broker.phase.server_execute_ms` is the broker-observed wall time of
/// each reply on the scatter path too, so sub-millisecond replies never
/// read as 0.
#[test]
fn server_execute_ms_is_broker_observed_wall_time() {
    let cluster = scatter_cluster();
    for _ in 0..10 {
        assert_eq!(count(&cluster, "SELECT COUNT(*) FROM events"), 80);
    }
    let snap = cluster.metrics_snapshot();
    let hist = snap
        .histogram("broker.phase.server_execute_ms")
        .expect("server_execute_ms recorded");
    assert!(
        hist.count() >= 20,
        "two replies per query: {}",
        hist.count()
    );
    assert!(hist.min() > 0.0, "a reply was recorded as 0 ms");
}
