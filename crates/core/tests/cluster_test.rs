//! End-to-end cluster tests: the full architecture of §3 exercised through
//! the public API — offline pushes, realtime ingestion with the segment
//! completion protocol, hybrid queries, failures, maintenance tasks.

use pinot_common::config::{RoutingStrategy, StarTreeConfig, StreamConfig, TableConfig};
use pinot_common::ids::TableType;
use pinot_common::query::{QueryRequest, QueryResult};
use pinot_common::time::Clock;
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::chaos::{sites, Fault, FaultScope};
use pinot_core::{ClusterConfig, PinotCluster};
use pinot_minion::PurgeSpec;

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

fn sum_of(resp: &pinot_common::query::QueryResponse) -> f64 {
    match &resp.result {
        QueryResult::Aggregation(rows) => rows
            .iter()
            .find(|r| r.function.starts_with("sum"))
            .and_then(|r| r.value.as_f64())
            .unwrap_or(f64::NAN),
        _ => f64::NAN,
    }
}

#[test]
fn offline_table_end_to_end() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(3)).unwrap();
    cluster
        .create_table(
            TableConfig::offline("views")
                .with_replication(2)
                .with_inverted_indexes(&["country"]),
            schema(),
        )
        .unwrap();

    // Three segment uploads.
    for base in [0i64, 100, 200] {
        let rows: Vec<Record> = (0..100)
            .map(|i| {
                row(
                    base + i,
                    ["us", "de", "jp"][(i % 3) as usize],
                    1,
                    10 + i % 5,
                )
            })
            .collect();
        cluster.upload_rows("views", rows).unwrap();
    }

    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 300);

    let resp = cluster.query("SELECT COUNT(*), SUM(clicks) FROM views WHERE country = 'us'");
    assert!(!resp.partial);
    assert_eq!(count_of(&resp), 102); // i%3==0 → 34 per segment
    assert_eq!(sum_of(&resp), 102.0);

    // Group by with top-n.
    let resp = cluster.query("SELECT COUNT(*) FROM views GROUP BY country TOP 2");
    match &resp.result {
        QueryResult::GroupBy(tables) => {
            assert_eq!(tables[0].rows.len(), 2);
            assert_eq!(tables[0].rows[0].1, Value::Long(102));
        }
        other => panic!("{other:?}"),
    }

    // Selection.
    let resp = cluster.query("SELECT viewer, country FROM views WHERE viewer = 5 LIMIT 10");
    match &resp.result {
        QueryResult::Selection { rows, .. } => {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][0], Value::Long(5));
        }
        other => panic!("{other:?}"),
    }

    // Every server hosts some replicas (replication 2 over 3 servers).
    let hosted: usize = cluster
        .servers()
        .iter()
        .map(|s| s.hosted_segments("views_OFFLINE").len())
        .sum();
    assert_eq!(hosted, 6); // 3 segments × 2 replicas
}

#[test]
fn realtime_ingestion_with_completion_protocol() {
    let clock = Clock::manual(1_700_000_000_000);
    let cluster = PinotCluster::start(
        ClusterConfig::default()
            .with_servers(2)
            .with_clock(clock.clone()),
    )
    .unwrap();
    cluster.streams().create_topic("view-events", 2).unwrap();
    cluster
        .create_table(
            TableConfig::realtime(
                "views",
                StreamConfig {
                    topic: "view-events".into(),
                    flush_threshold_rows: 50,
                    flush_threshold_millis: 3_600_000,
                },
            )
            .with_replication(2),
            schema(),
        )
        .unwrap();

    // 130 events per partition → two committed segments per partition plus
    // an open consuming one.
    for i in 0..260i64 {
        cluster
            .produce("view-events", &Value::Long(i), row(i, "us", 1, 20_000))
            .unwrap();
    }
    cluster.consume_until_idle().unwrap();

    // All data is queryable: committed + consuming.
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 260);

    // Committed segments exist in the object store with identical replicas.
    let leader = cluster.leader_controller().unwrap();
    let segments = leader.list_segments("views_REALTIME");
    assert!(
        segments.len() >= 4,
        "expected several segments, got {segments:?}"
    );
    let committed: Vec<_> = segments
        .iter()
        .filter(|s| leader.download_segment("views_REALTIME", s).is_ok())
        .collect();
    assert!(!committed.is_empty());

    // Freshness: a new event is visible after one tick (seconds-level
    // freshness in the paper; immediate here).
    cluster
        .produce(
            "view-events",
            &Value::Long(9999),
            row(9999, "jp", 1, 20_000),
        )
        .unwrap();
    cluster.consume_tick().unwrap();
    let resp = cluster.query("SELECT COUNT(*) FROM views WHERE viewer = 9999");
    assert_eq!(count_of(&resp), 1);
}

#[test]
fn hybrid_table_time_boundary() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(2)).unwrap();
    cluster.streams().create_topic("view-events", 1).unwrap();

    // Offline table with days 100..=101; realtime with days 101..=102.
    // Overlapping day 101 must not double count (Figure 6).
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
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

    let offline_rows: Vec<Record> = (0..60)
        .map(|i| row(i, "us", 1, if i < 30 { 100 } else { 101 }))
        .collect();
    cluster.upload_rows("views", offline_rows).unwrap();

    for i in 0..40i64 {
        let day = if i < 20 { 101 } else { 102 };
        cluster
            .produce("view-events", &Value::Long(i), row(1000 + i, "us", 1, day))
            .unwrap();
    }
    cluster.consume_until_idle().unwrap();

    // Offline alone has 60 rows; realtime alone has 40; the overlap day 101
    // exists on both sides (30 offline + 20 realtime rows).
    // Boundary = max offline day = 101: offline answers day < 101 (30 rows),
    // realtime answers day >= 101 (40 rows) → 70 total, no double counting
    // of the 20 realtime day-101 rows vs offline day-101 rows... the
    // offline day-101 rows represent the *same business events* as the
    // realtime ones in a production lambda setup; here they are distinct
    // synthetic rows, so the correct hybrid answer is 30 + 40 = 70.
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 70);

    // A filter wholly below the boundary only touches offline data.
    let resp = cluster.query("SELECT COUNT(*) FROM views WHERE day = 100");
    assert_eq!(count_of(&resp), 30);
    // A filter wholly at/after the boundary only touches realtime data.
    let resp = cluster.query("SELECT COUNT(*) FROM views WHERE day = 102");
    assert_eq!(count_of(&resp), 20);
}

/// A hybrid `views` table on `servers` servers: `offline` rows uploaded
/// in 10-row segments at `offline_replication`, `realtime` rows produced
/// into a one-partition stream and consumed.
fn hybrid_views(
    servers: usize,
    offline_replication: usize,
    offline: Vec<Record>,
    realtime: Vec<Record>,
) -> PinotCluster {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(servers)).unwrap();
    cluster.streams().create_topic("view-events", 1).unwrap();
    load_hybrid_views(&cluster, schema(), offline_replication, offline, realtime);
    cluster
}

/// Create both sides of `views` with `schema` and load them: `offline`
/// in 10-row segments, `realtime` through the `view-events` stream.
fn load_hybrid_views(
    cluster: &PinotCluster,
    schema: Schema,
    offline_replication: usize,
    offline: Vec<Record>,
    realtime: Vec<Record>,
) {
    cluster
        .create_table(
            TableConfig::offline("views").with_replication(offline_replication),
            schema.clone(),
        )
        .unwrap();
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
            schema,
        )
        .unwrap();
    for chunk in offline.chunks(10) {
        cluster.upload_rows("views", chunk.to_vec()).unwrap();
    }
    for (i, r) in realtime.into_iter().enumerate() {
        cluster
            .produce("view-events", &Value::Long(i as i64), r)
            .unwrap();
    }
    cluster.consume_until_idle().unwrap();
}

/// The answer's one aggregation value whose function starts with `prefix`.
fn agg_value(resp: &pinot_common::query::QueryResponse, prefix: &str) -> Value {
    assert!(!resp.partial, "{:?}", resp.exceptions);
    match &resp.result {
        QueryResult::Aggregation(rows) => rows
            .iter()
            .find(|r| r.function.starts_with(prefix))
            .map(|r| r.value.clone())
            .unwrap_or_else(|| panic!("no {prefix} in {rows:?}")),
        other => panic!("{other:?}"),
    }
}

/// 30 visible offline `us` rows (clicks 1) and 10 realtime `us` rows
/// (clicks 10) over viewers {0, 1, 2} on both sides, plus 5 offline rows
/// at the boundary day that realtime shadows. The second element is the
/// realtime rows.
fn motivation_rows() -> (Vec<Record>, Vec<Record>) {
    let mut offline: Vec<Record> = (0..30).map(|i| row(i % 3, "us", 1, 100)).collect();
    offline.extend((0..5).map(|_| row(7, "us", 100, 101)));
    let realtime = (0..10).map(|i| row(i % 3, "us", 10, 101 + i % 2)).collect();
    (offline, realtime)
}

/// Hybrid AVG, DISTINCTCOUNT and TOP are reduced from both sides'
/// intermediate states: averaging two finalized AVGs, adding two
/// DISTINCTCOUNTs or merging two top-1 lists each gives a wrong answer.
#[test]
fn hybrid_reduce_is_exact() {
    let (mut offline, mut realtime) = motivation_rows();
    // `x` is second on each side and first overall.
    offline.extend((0..10).map(|_| row(50, "a", 0, 100)));
    offline.extend((0..9).map(|_| row(50, "x", 0, 100)));
    realtime.extend((0..10).map(|_| row(50, "b", 0, 102)));
    realtime.extend((0..9).map(|_| row(50, "x", 0, 102)));
    let cluster = hybrid_views(2, 1, offline, realtime);

    let resp = cluster.query("SELECT AVG(clicks) FROM views WHERE country = 'us'");
    assert_eq!(agg_value(&resp, "avg"), Value::Double(130.0 / 40.0));
    let resp = cluster.query("SELECT DISTINCTCOUNT(viewer) FROM views WHERE country = 'us'");
    assert_eq!(agg_value(&resp, "distinctcount"), Value::Long(3));

    let top = |n: usize| {
        let resp = cluster.query(&format!(
            "SELECT COUNT(*) FROM views WHERE country != 'us' GROUP BY country TOP {n}"
        ));
        assert!(!resp.partial, "{:?}", resp.exceptions);
        match resp.result {
            QueryResult::GroupBy(tables) => tables[0].rows.clone(),
            other => panic!("{other:?}"),
        }
    };
    let group = |country: &str, n: i64| (vec![Value::from(country)], Value::Long(n));
    assert_eq!(top(1), vec![group("x", 18)]);
    assert_eq!(top(3), vec![group("x", 18), group("a", 10), group("b", 10)]);
}

/// On one server both sides' slices go to the same instance: the answer
/// is exact, each slice counts as a queried server (as when the sides
/// were separate responses), and the per-server stats name it once. A
/// filter the offline side cannot match leaves a one-slice plan.
#[test]
fn hybrid_sides_on_one_server() {
    let (offline, realtime) = motivation_rows();
    let cluster = hybrid_views(1, 1, offline, realtime);

    let resp = cluster.query("SELECT COUNT(*), SUM(clicks), AVG(clicks) FROM views");
    assert_eq!(agg_value(&resp, "count"), Value::Long(40));
    assert_eq!(agg_value(&resp, "sum"), Value::Double(130.0));
    assert_eq!(agg_value(&resp, "avg"), Value::Double(3.25));
    assert_eq!(resp.stats.num_servers_queried, 2);
    assert_eq!(resp.stats.num_servers_responded, 2);
    assert_eq!(
        resp.stats.per_server.len(),
        1,
        "{:?}",
        resp.stats.per_server
    );
    assert!(resp.stats.per_server[0].responded);

    let resp = cluster.query("SELECT COUNT(*), AVG(clicks) FROM views WHERE day = 102");
    assert_eq!(agg_value(&resp, "count"), Value::Long(5));
    assert_eq!(agg_value(&resp, "avg"), Value::Double(10.0));
    assert_eq!(resp.stats.num_servers_queried, 1);
}

/// A server that holds only offline replicas crashes when its offline
/// slice reaches it: the slice fails over to the other replica with its
/// own side's query and table, and the hybrid answer stays complete.
#[test]
fn hybrid_failover_recovers_offline_slice() {
    let (offline, realtime) = motivation_rows();
    let cluster = hybrid_views(2, 2, offline, realtime);
    let view = |table: &str| cluster.cluster_manager().routable_view(table);
    let realtime_servers = view("views_REALTIME");
    let victim = view("views_OFFLINE")
        .into_keys()
        .find(|s| !realtime_servers.contains_key(s))
        .expect("one server holds no realtime replica")
        .to_string();
    cluster.chaos().arm(
        sites::SERVER_EXECUTE,
        Fault::crash().with_scope(FaultScope::any().instance(victim)),
    );

    let resp = cluster.query("SELECT COUNT(*), SUM(clicks), AVG(clicks) FROM views");
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("chaos.fault.injected"), 1, "crash never fired");
    assert!(snap.counter("broker.scatter.failover_success") >= 1);
    assert_eq!(agg_value(&resp, "count"), Value::Long(40));
    assert_eq!(agg_value(&resp, "sum"), Value::Double(130.0));
    assert_eq!(agg_value(&resp, "avg"), Value::Double(3.25));
}

#[test]
fn server_failure_degrades_then_recovers() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(3)).unwrap();
    cluster
        .create_table(TableConfig::offline("views").with_replication(2), schema())
        .unwrap();
    for base in [0i64, 100] {
        let rows: Vec<Record> = (0..50).map(|i| row(base + i, "us", 1, 10)).collect();
        cluster.upload_rows("views", rows).unwrap();
    }
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 100);

    // Kill one server: with replication 2 over 3 servers, remaining
    // replicas still cover all segments → full answers continue.
    cluster.kill_server(1).unwrap();
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 100);

    // Kill a second server: some segments may lose all replicas; the
    // response either stays complete (if segments colocated) or is partial
    // — never an error.
    cluster.kill_server(2).unwrap();
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(count_of(&resp) <= 100);

    // Restart both: full coverage returns (blank-node restart, §3.4).
    cluster.restart_server(1).unwrap();
    cluster.restart_server(2).unwrap();
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 100);
}

#[test]
fn controller_failover_is_transparent() {
    let cluster = PinotCluster::start(ClusterConfig::default()).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    let old = cluster.crash_leader_controller().unwrap();
    // Admin operations keep working through the new leader.
    let rows: Vec<Record> = (0..10).map(|i| row(i, "us", 1, 10)).collect();
    cluster.upload_rows("views", rows).unwrap();
    let new_leader = cluster.leader_controller().unwrap();
    assert_ne!(new_leader.id(), &old);
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 10);
}

#[test]
fn purge_task_rewrites_segments() {
    let cluster = PinotCluster::start(ClusterConfig::default()).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    let rows: Vec<Record> = (0..100).map(|i| row(i % 10, "us", 1, 10)).collect();
    cluster.upload_rows("views", rows).unwrap();
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 100);

    // GDPR-style purge of members 3 and 7.
    let report = cluster
        .run_purge(&PurgeSpec {
            table: "views_OFFLINE".into(),
            column: "viewer".into(),
            values: vec![Value::Long(3), Value::Long(7)],
        })
        .unwrap();
    assert_eq!(report.records_removed, 20);
    assert_eq!(report.segments_rewritten, 1);

    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 80);
    assert_eq!(
        count_of(&cluster.query("SELECT COUNT(*) FROM views WHERE viewer = 3")),
        0
    );
}

#[test]
fn retention_gc_through_cluster() {
    let clock = Clock::manual(1_700_000_000_000);
    let cluster = PinotCluster::start(ClusterConfig::default().with_clock(clock.clone())).unwrap();
    cluster
        .create_table(
            TableConfig::offline("views").with_retention(TimeUnit::Days, 7),
            schema(),
        )
        .unwrap();
    let today = clock.now_millis() / TimeUnit::Days.millis();
    cluster
        .upload_rows("views", (0..10).map(|i| row(i, "us", 1, today)).collect())
        .unwrap();
    cluster
        .upload_rows(
            "views",
            (0..10).map(|i| row(i, "us", 1, today - 30)).collect(),
        )
        .unwrap();
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 20);

    let removed = cluster.run_retention().unwrap();
    assert_eq!(removed.len(), 1);
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 10);
}

#[test]
fn star_tree_answers_through_cluster() {
    let cluster = PinotCluster::start(ClusterConfig::default()).unwrap();
    cluster
        .create_table(
            TableConfig::offline("views").with_star_tree(StarTreeConfig {
                dimensions: vec!["country".into()],
                metrics: vec!["clicks".into()],
                max_leaf_records: 10,
                skip_star_dimensions: vec![],
            }),
            schema(),
        )
        .unwrap();
    let rows: Vec<Record> = (0..1000)
        .map(|i| row(i, ["us", "de"][(i % 2) as usize], i, 10))
        .collect();
    cluster.upload_rows("views", rows).unwrap();

    let resp = cluster.query("SELECT SUM(clicks) FROM views WHERE country = 'us'");
    assert!(!resp.partial);
    let expect: f64 = (0..1000).filter(|i| i % 2 == 0).map(|i| i as f64).sum();
    assert_eq!(sum_of(&resp), expect);
    // The star-tree path scanned far fewer docs than the 500 matching rows.
    assert!(
        resp.stats.num_docs_scanned < 50,
        "scanned {}",
        resp.stats.num_docs_scanned
    );
    assert_eq!(resp.stats.raw_docs_equivalent, 500);
}

#[test]
fn partitioned_routing_through_cluster() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(4)).unwrap();
    cluster
        .create_table(
            TableConfig::offline("views").with_routing(RoutingStrategy::Partitioned {
                column: "viewer".into(),
                num_partitions: 4,
            }),
            schema(),
        )
        .unwrap();
    let rows: Vec<Record> = (0..400).map(|i| row(i, "us", 1, 10)).collect();
    let names = cluster.upload_rows_partitioned("views", rows).unwrap();
    assert_eq!(names.len(), 4);

    // Point query on the partition column touches a single partition's
    // segments — and returns the right answer. The three partitions the
    // broker skipped are visible in the stats as pruned, so
    // queried == processed + pruned holds end to end.
    let resp = cluster.query("SELECT COUNT(*) FROM views WHERE viewer = 42");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 1);
    assert_eq!(resp.stats.num_segments_queried, 4);
    assert_eq!(resp.stats.num_segments_processed, 1);
    assert_eq!(resp.stats.num_segments_pruned, 3);
    assert_eq!(
        resp.stats.num_segments_queried,
        resp.stats.num_segments_processed + resp.stats.num_segments_pruned
    );
    assert_eq!(resp.stats.total_docs, 400);
    assert_eq!(resp.stats.num_servers_queried, 1);

    // Unpartitionable query fans out to everything and still answers.
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert_eq!(count_of(&resp), 400);
    assert_eq!(resp.stats.num_segments_queried, 4);
    assert_eq!(resp.stats.num_segments_processed, 4);
    assert_eq!(resp.stats.num_segments_pruned, 0);
}

/// A hybrid table deleted and recreated with its time column renamed
/// from `day` to `ts` is served with its new schema: the boundary
/// conjunct names `ts`, and every server answers.
#[test]
fn recreated_hybrid_table_uses_its_new_time_column() {
    let (offline, realtime) = motivation_rows();
    let cluster = hybrid_views(2, 1, offline.clone(), realtime.clone());
    assert_eq!(
        agg_value(&cluster.query("SELECT COUNT(*) FROM views"), "count"),
        Value::Long(40)
    );

    cluster.delete_table("views", TableType::Offline).unwrap();
    cluster.delete_table("views", TableType::Realtime).unwrap();
    let renamed = Schema::new(
        "views",
        vec![
            FieldSpec::dimension("viewer", DataType::Long),
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::time("ts", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap();
    load_hybrid_views(&cluster, renamed, 1, offline, realtime);

    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 40);
    let resp = cluster.query("SELECT COUNT(*) FROM views WHERE ts = 102");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 5);
}

/// A Balanced table deleted and recreated as `Partitioned{viewer, 4}` is
/// routed by its new config, though the new config node's version starts
/// over at 0: a point query on `viewer` reaches one segment on one server.
#[test]
fn recreated_table_uses_its_new_routing_config() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(4)).unwrap();
    let rows: Vec<Record> = (0..400).map(|i| row(i, "us", 1, 10)).collect();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    for chunk in rows.chunks(100) {
        cluster.upload_rows("views", chunk.to_vec()).unwrap();
    }
    assert_eq!(
        count_of(&cluster.query("SELECT COUNT(*) FROM views WHERE viewer = 42")),
        1
    );

    cluster.delete_table("views", TableType::Offline).unwrap();
    cluster
        .create_table(
            TableConfig::offline("views").with_routing(RoutingStrategy::Partitioned {
                column: "viewer".into(),
                num_partitions: 4,
            }),
            schema(),
        )
        .unwrap();
    assert_eq!(
        cluster
            .upload_rows_partitioned("views", rows)
            .unwrap()
            .len(),
        4
    );

    let resp = cluster.query("SELECT COUNT(*) FROM views WHERE viewer = 42");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 1);
    assert_eq!(resp.stats.num_segments_processed, 1);
    assert_eq!(resp.stats.num_segments_pruned, 3);
    assert_eq!(resp.stats.num_servers_queried, 1);
}

#[test]
fn schema_evolution_on_live_table() {
    let cluster = PinotCluster::start(ClusterConfig::default()).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster
        .upload_rows("views", (0..10).map(|i| row(i, "us", 1, 10)).collect())
        .unwrap();

    // Add a column on the fly.
    cluster
        .leader_controller()
        .unwrap()
        .add_column("views", FieldSpec::dimension("region", DataType::String))
        .unwrap();

    // New uploads carry the new column; old segments still answer queries
    // that don't reference it.
    let wide_schema = cluster
        .leader_controller()
        .unwrap()
        .table_schema("views")
        .unwrap();
    let wide_row = Record::from_pairs(
        &wide_schema,
        &[
            ("viewer", Value::Long(100)),
            ("country", Value::from("fr")),
            ("clicks", Value::Long(1)),
            ("day", Value::Long(10)),
            ("region", Value::from("emea")),
        ],
    )
    .unwrap();
    cluster.upload_rows("views", vec![wide_row]).unwrap();
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 11);
}

#[test]
fn delete_table_through_cluster() {
    let cluster = PinotCluster::start(ClusterConfig::default()).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    cluster
        .upload_rows("views", (0..5).map(|i| row(i, "us", 1, 10)).collect())
        .unwrap();
    cluster.delete_table("views", TableType::Offline).unwrap();
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(resp.partial); // unknown table surfaces as an exception
    assert!(!resp.exceptions.is_empty());
}

#[test]
fn tenant_throttling_isolates_noisy_tenant() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(1)).unwrap();
    cluster
        .create_table(
            TableConfig::offline("views").with_tenant("shared"),
            schema(),
        )
        .unwrap();
    cluster
        .upload_rows("views", (0..100).map(|i| row(i, "us", 1, 10)).collect())
        .unwrap();

    // Give the noisy tenant a tiny budget on the (single) server.
    cluster.servers()[0].throttle().configure_tenant(
        "noisy",
        pinot_server::tenancy::TokenBucketConfig {
            capacity: 1.0,
            refill_per_ms: 0.0,
        },
    );

    let q = QueryRequest::new("SELECT COUNT(*) FROM views").with_tenant("noisy");
    let first = cluster.execute(&q);
    assert!(!first.partial); // first query spends the budget
    let second = cluster.execute(&q);
    assert!(second.partial, "noisy tenant should be throttled");
    assert!(second.exceptions.iter().any(|e| e.contains("quota")));

    // Another tenant on the same hardware is unaffected.
    let other = QueryRequest::new("SELECT COUNT(*) FROM views").with_tenant("quiet");
    let resp = cluster.execute(&other);
    assert!(!resp.partial);
    assert_eq!(count_of(&resp), 100);
}

/// A malformed `PINOT_*` value must fail cluster boot with an error naming
/// the variable and the value — never run on a guessed knob. The lookup
/// stands in for the environment `ClusterConfig::default()` reads.
#[test]
fn malformed_knob_fails_boot() {
    let config = ClusterConfig {
        env_error: pinot_common::EngineConfig::from_lookup(|name| {
            (name == "PINOT_EXEC_HEDGE").then(|| "false".to_string())
        })
        .err(),
        ..ClusterConfig::default()
    };
    let err = match PinotCluster::start(config) {
        Ok(_) => panic!("booted on a malformed knob"),
        Err(e) => e.to_string(),
    };
    assert!(
        err.contains("PINOT_EXEC_HEDGE") && err.contains("\"false\""),
        "{err}"
    );
}
