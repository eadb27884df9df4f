//! Regression tests for the broker's scatter workers (ISSUE 3 satellite).
//!
//! Before the taskpool, each scatter target got a raw `std::thread::spawn`
//! that was never joined: a panicking server adapter silently killed the
//! thread before it could report anything (the broker then waited out the
//! full deadline and went partial), and a reply arriving after a scatter
//! timeout ran on an orphan thread. Scatter now runs as detached pool
//! tasks with panic capture: a panic surfaces as a retriable error that
//! the normal replica failover covers, and a late reply is a no-op send
//! into a disconnected channel on a pooled worker.

use pinot_common::config::TableConfig;
use pinot_common::query::{QueryRequest, QueryResult};
use pinot_common::{DataType, FieldSpec, Record, Result, Schema, TimeUnit, Value};
use pinot_core::broker::{RoutedRequest, SegmentQueryService};
use pinot_core::exec::IntermediateResult;
use pinot_core::server::Server;
use pinot_core::{ClusterConfig, PinotCluster};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
        .map(|i| Record::new(vec![Value::Long(base + i), Value::Long(1), Value::Long(10)]))
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

/// A broker-side adapter that panics instead of answering — the worst-case
/// stand-in for a bug in the server-facing RPC glue.
struct PanickingService;

impl SegmentQueryService for PanickingService {
    fn execute(&self, _req: &RoutedRequest) -> Result<IntermediateResult> {
        panic!("server adapter bug");
    }
}

/// Forwards to a real server, but the first `slow_calls` requests sleep
/// past any reasonable deadline first.
struct SlowOnceService {
    server: Arc<Server>,
    slow_calls: AtomicU32,
    delay: Duration,
}

impl SegmentQueryService for SlowOnceService {
    fn execute(&self, req: &RoutedRequest) -> Result<IntermediateResult> {
        if self
            .slow_calls
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            std::thread::sleep(self.delay);
        }
        self.server.execute(req)
    }
}

/// A panicking scatter target no longer loses the query: the panic is
/// captured, mapped to a retriable error, and replica failover covers the
/// segments. Pre-pool, the spawned thread died before sending anything and
/// the broker burned the whole deadline waiting, answering partial.
#[test]
fn panicking_server_adapter_is_recovered_by_failover() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(2)).unwrap();
    cluster
        .create_table(TableConfig::offline("views").with_replication(2), schema())
        .unwrap();
    for base in [0i64, 100] {
        cluster.upload_rows("views", rows(base, 50)).unwrap();
    }
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 100);

    // Break Server_1's endpoint on every broker.
    let server_1 = cluster.servers()[0].id().clone();
    for broker in cluster.brokers() {
        broker.register_server(server_1.clone(), Arc::new(PanickingService));
    }

    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(
        !resp.partial,
        "panic must be retriable, not fatal: {:?}",
        resp.exceptions
    );
    assert_eq!(count_of(&resp), 100);
    let snap = cluster.metrics_snapshot();
    assert!(snap.counter("broker.scatter.failover_success") >= 1);
}

/// A reply that arrives after the scatter deadline is dropped harmlessly:
/// the query answers partial at the deadline, the late worker's send hits
/// a disconnected channel, and the broker keeps serving queries.
#[test]
fn late_server_reply_after_scatter_timeout_is_harmless() {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(2)).unwrap();
    cluster
        .create_table(TableConfig::offline("views"), schema())
        .unwrap();
    for base in [0i64, 100, 200, 300] {
        cluster.upload_rows("views", rows(base, 25)).unwrap();
    }
    assert_eq!(count_of(&cluster.query("SELECT COUNT(*) FROM views")), 100);

    let slow = cluster.servers()[0].clone();
    let server_1 = slow.id().clone();
    let delay = Duration::from_millis(80);
    for broker in cluster.brokers() {
        broker.register_server(
            server_1.clone(),
            Arc::new(SlowOnceService {
                server: Arc::clone(&slow),
                slow_calls: AtomicU32::new(1),
                delay,
            }),
        );
    }

    let req = QueryRequest::new("SELECT COUNT(*) FROM views").with_timeout_ms(15);
    let resp = cluster.execute(&req);
    assert!(resp.partial, "slow server should time the query out");
    assert!(cluster.metrics_snapshot().counter("broker.scatter.timeout") >= 1);

    // Let the orphaned reply land on its pool worker, then verify the
    // broker is fully healthy — the late send touched nothing live.
    std::thread::sleep(delay + Duration::from_millis(40));
    let resp = cluster.query("SELECT COUNT(*) FROM views");
    assert!(!resp.partial, "{:?}", resp.exceptions);
    assert_eq!(count_of(&resp), 100);
}
