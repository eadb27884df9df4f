//! Cost-gate regression tests (ISSUE 8 satellite): the fan-out gate must
//! keep cheap interactive queries — the fig7 WVMP shape: one aggregate
//! over one column with a selective filter — on the inline path with
//! *zero* task-spawn overhead, while a genuinely large scan still fans
//! out across the pool. Both directions are asserted against the
//! server's own task pool counter, so a regression in either the
//! estimate or the threshold plumbing shows up as spawned (or missing)
//! tasks, not just as noise in a benchmark.

use pinot_common::config::TableConfig;
use pinot_common::query::{QueryRequest, QueryResult};
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::{ClusterConfig, PinotCluster};

const TABLE: &str = "gateviews";

fn schema() -> Schema {
    Schema::new(
        TABLE,
        vec![
            FieldSpec::dimension("viewer", DataType::Long),
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn rows(n: usize) -> Vec<Record> {
    (0..n as i64)
        .map(|i| {
            Record::new(vec![
                Value::Long(i % 1000),
                Value::from(["us", "de", "in", "jp"][(i % 4) as usize]),
                Value::Long(i % 50),
                Value::Long(100 + i % 30),
            ])
        })
        .collect()
}

fn sum_of(resp: &pinot_common::query::QueryResponse) -> i64 {
    match &resp.result {
        QueryResult::Aggregation(rows) => rows
            .iter()
            .find(|r| r.function.starts_with("sum"))
            .and_then(|r| r.value.as_f64())
            .map(|v| v as i64)
            .unwrap_or(-1),
        _ => -1,
    }
}

/// fig7-shape workload at the *default* gate: 16 small segments, one
/// column touched per query. The estimated work sits far below the
/// 2ms threshold, so every query must run inline — the inline counter
/// ticks, no morsel ever splits, and the server pool spawns nothing.
#[test]
fn fig7_shape_workload_stays_inline_at_default_gate() {
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.taskpool_threads = 4;
    config.num_controllers = 1;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline(TABLE), schema())
        .unwrap();
    // 16 segments × 800 docs ≈ the per-query work of a WVMP point lookup.
    for chunk in rows(12_800).chunks(800) {
        cluster.upload_rows(TABLE, chunk.to_vec()).unwrap();
    }

    let server = &cluster.servers()[0];
    let tasks_before = server.task_pool().tasks_run();
    for viewer in [3i64, 250, 999] {
        let pql = format!("SELECT SUM(clicks) FROM {TABLE} WHERE viewer = {viewer}");
        let resp = cluster.execute(&QueryRequest::new(&pql));
        assert!(!resp.partial && resp.exceptions.is_empty(), "{pql} failed");
    }

    let snap = cluster.metrics_snapshot();
    assert!(
        snap.counter("exec.morsels_inline") > 0,
        "small scans must take the inline path"
    );
    assert_eq!(
        snap.counter("exec.morsels_split"),
        0,
        "no morsel may split below the gate"
    );
    assert_eq!(
        server.task_pool().tasks_run(),
        tasks_before,
        "inline execution must spawn zero server pool tasks"
    );
}

/// The opposite direction: with the gate forced open and 1024-doc
/// morsels, a 6000-row full-column scan must fan out — morsels split,
/// server pool tasks run — and still produce the exact answer.
#[test]
fn large_workload_fans_out_and_stays_exact() {
    const ROWS: usize = 6000;
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.taskpool_threads = 4;
    config.engine.fanout_threshold_ns = 1;
    config.engine.morsel_docs = 1024;
    config.num_controllers = 1;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline(TABLE), schema())
        .unwrap();
    cluster.upload_rows(TABLE, rows(ROWS)).unwrap();

    let server = &cluster.servers()[0];
    let tasks_before = server.task_pool().tasks_run();
    let pql = format!("SELECT SUM(clicks) FROM {TABLE}");
    let resp = cluster.execute(&QueryRequest::new(&pql));
    assert!(
        !resp.partial && resp.exceptions.is_empty(),
        "{:?}",
        resp.exceptions
    );
    let expected: i64 = (0..ROWS as i64).map(|i| i % 50).sum();
    assert_eq!(sum_of(&resp), expected, "fan-out changed the answer");

    let snap = cluster.metrics_snapshot();
    assert!(
        snap.counter("exec.morsels_split") >= (ROWS / 1024) as u64,
        "the segment should split into ⌈{ROWS}/1024⌉ morsels, split counter = {}",
        snap.counter("exec.morsels_split")
    );
    assert!(
        server.task_pool().tasks_run() > tasks_before,
        "fan-out must run tasks on the server pool"
    );
}
