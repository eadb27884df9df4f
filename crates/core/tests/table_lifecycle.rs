//! Table lifecycle property test: seeded random sequences of create,
//! upload, produce + consume, config and schema changes, delete +
//! recreate, and queries. Every answer must equal the reference
//! interpreter (`pinot_baseline::reference`) over the rows the live table
//! holds, so no metadata of a deleted table, or of an earlier config or
//! schema, may leak into a later answer.
//!
//! A table is OFFLINE-only or hybrid. Hybrid answers follow the time
//! boundary rule of `differential_ingest.rs`: with the largest offline
//! time as the boundary, offline rows strictly below it and realtime rows
//! at or above it; with no offline rows, every realtime row.

use pinot_baseline::reference;
use pinot_common::config::{RoutingStrategy, StreamConfig, TableConfig};
use pinot_common::ids::TableType;
use pinot_common::query::{QueryRequest, QueryResponse, QueryResult};
use pinot_common::time::Clock;
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::{ClusterConfig, PinotCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SEQUENCES: u64 = 200;
const STEPS: usize = 16;
const VIEWERS: i64 = 40;
/// Partitions of an OFFLINE `Partitioned` table.
const PARTITIONS: u32 = 4;
/// Few stream partitions, so realtime segments commit within a few steps
/// and a recreated table soon reuses its predecessor's segment names.
const STREAM_PARTITIONS: u32 = 2;
const COUNTRIES: &[&str] = &["us", "de", "in", "br"];
/// Each incarnation's rows span `DAYS + 1` days from its own first day,
/// 100 or 200, so zone maps of a deleted table would misprune its
/// successor's rows.
const DAYS: i64 = 10;
/// Large enough that no selection is truncated.
const SELECTION_LIMIT: usize = 5000;

/// The model of one live table: its shape and every row it holds.
struct Live {
    table: String,
    topic: String,
    time_column: &'static str,
    first_day: i64,
    partitioned: bool,
    inverted: bool,
    hybrid: bool,
    /// Metric columns added by schema evolution, `extra0`, `extra1`, ...
    extra: usize,
    offline: Vec<Record>,
    /// Realtime rows produced and consumed.
    realtime: Vec<Record>,
}

impl Live {
    fn random(rng: &mut StdRng, table: &str) -> Live {
        Live {
            table: table.to_string(),
            topic: format!("{table}-events"),
            time_column: ["day", "ts"][rng.gen_range(0..2usize)],
            first_day: [100, 200][rng.gen_range(0..2usize)],
            partitioned: rng.gen_bool(0.5),
            inverted: rng.gen_bool(0.5),
            hybrid: rng.gen_bool(0.5),
            extra: 0,
            offline: Vec::new(),
            realtime: Vec::new(),
        }
    }

    fn schema(&self) -> Schema {
        let mut fields = vec![
            FieldSpec::dimension("viewer", DataType::Long),
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::time(self.time_column, DataType::Long, TimeUnit::Days),
        ];
        fields.extend(
            (0..self.extra).map(|k| FieldSpec::metric(format!("extra{k}"), DataType::Long)),
        );
        Schema::new(self.table.as_str(), fields).unwrap()
    }

    fn offline_config(&self) -> TableConfig {
        let mut config = TableConfig::offline(self.table.as_str());
        if self.partitioned {
            config = config.with_routing(RoutingStrategy::Partitioned {
                column: "viewer".into(),
                num_partitions: PARTITIONS,
            });
        }
        if self.inverted {
            config = config.with_inverted_indexes(&["country"]);
        }
        config
    }

    fn realtime_config(&self) -> TableConfig {
        TableConfig::realtime(
            self.table.as_str(),
            StreamConfig {
                topic: self.topic.clone(),
                flush_threshold_rows: 10,
                flush_threshold_millis: i64::MAX / 4,
            },
        )
    }

    fn create(&self, cluster: &PinotCluster) {
        cluster
            .create_table(self.offline_config(), self.schema())
            .unwrap();
        if self.hybrid {
            cluster
                .create_table(self.realtime_config(), self.schema())
                .unwrap();
        }
    }

    fn delete(&self, cluster: &PinotCluster) {
        cluster
            .delete_table(&self.table, TableType::Offline)
            .unwrap();
        if self.hybrid {
            cluster
                .delete_table(&self.table, TableType::Realtime)
                .unwrap();
        }
    }

    /// `n` rows whose days run from `first_day + skip` to the last day.
    fn rows(&self, rng: &mut StdRng, n: usize, skip: i64) -> Vec<Record> {
        let (lo, hi) = (self.first_day + skip, self.first_day + DAYS);
        (0..n)
            .map(|_| {
                let mut values = vec![
                    Value::Long(rng.gen_range(0..VIEWERS)),
                    Value::from(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]),
                    Value::Long(rng.gen_range(0..20)),
                    Value::Long(rng.gen_range(lo..=hi)),
                ];
                values.extend((0..self.extra).map(|_| Value::Long(rng.gen_range(0..5))));
                Record::new(values)
            })
            .collect()
    }

    /// The rows a query over the logical table sees.
    fn visible(&self) -> Vec<Record> {
        let time = |r: &Record| r.values()[3].as_i64().unwrap();
        if !self.hybrid {
            return self.offline.clone();
        }
        let boundary = self.offline.iter().map(time).max().unwrap_or(i64::MIN);
        self.offline
            .iter()
            .filter(|r| time(r) < boundary)
            .chain(self.realtime.iter().filter(|r| time(r) >= boundary))
            .cloned()
            .collect()
    }
}

fn gen_query(rng: &mut StdRng, live: &Live) -> String {
    let (table, tc) = (&live.table, live.time_column);
    let first = live.first_day;
    let day = |rng: &mut StdRng| rng.gen_range(first..=first + DAYS + 1);
    let filter = match rng.gen_range(0..8) {
        0 => String::new(),
        1 | 2 => format!(" WHERE viewer = {}", rng.gen_range(0..VIEWERS)),
        3 => format!(
            " WHERE viewer IN ({}, {})",
            rng.gen_range(0..VIEWERS),
            rng.gen_range(0..VIEWERS)
        ),
        4 => format!(
            " WHERE country = '{}'",
            COUNTRIES[rng.gen_range(0..COUNTRIES.len())]
        ),
        5 => format!(" WHERE {tc} >= {}", day(rng)),
        6 => {
            let lo = day(rng);
            let hi = lo + rng.gen_range(0..4i64);
            format!(" WHERE {tc} BETWEEN {lo} AND {hi}")
        }
        _ => format!(
            " WHERE clicks < {} AND {tc} < {}",
            rng.gen_range(0..20),
            day(rng)
        ),
    };
    match rng.gen_range(0..4) {
        0 => format!("SELECT COUNT(*), SUM(clicks) FROM {table}{filter}"),
        1 => {
            format!("SELECT COUNT(*), DISTINCTCOUNT(viewer), MAX({tc}) FROM {table}{filter}")
        }
        2 => format!(
            "SELECT COUNT(*), SUM(clicks) FROM {table}{filter} GROUP BY country TOP {}",
            rng.gen_range(1..=5)
        ),
        _ => format!("SELECT viewer, country, {tc} FROM {table}{filter} LIMIT {SELECTION_LIMIT}"),
    }
}

fn normalize(result: &QueryResult) -> QueryResult {
    match result {
        QueryResult::Selection { columns, rows } => {
            let mut rows = rows.clone();
            rows.sort_by_key(|r| format!("{r:?}"));
            QueryResult::Selection {
                columns: columns.clone(),
                rows,
            }
        }
        other => other.clone(),
    }
}

fn check(cluster: &PinotCluster, live: &Live, pql: &str, context: &str) -> QueryResponse {
    let got = cluster.execute(&QueryRequest::new(pql));
    assert!(
        !got.partial && got.exceptions.is_empty(),
        "{context}: partial answer to {pql}: {:?}",
        got.exceptions
    );
    let want = reference::evaluate(
        &live.schema(),
        &live.visible(),
        &pinot_pql::parse(pql).unwrap(),
    )
    .unwrap_or_else(|e| panic!("{context}: reference failed on {pql}: {e}"));
    assert_eq!(
        normalize(&got.result),
        normalize(&want),
        "{context}: answer differs from the reference on {pql}"
    );
    got
}

fn lifecycle_cluster(brokers: usize) -> PinotCluster {
    let mut config = ClusterConfig::default()
        .with_servers(2)
        .with_brokers(brokers)
        .with_clock(Clock::manual(1_700_000_000_000));
    config.num_controllers = 1;
    config.num_minions = 0;
    config.engine.taskpool_threads = 2;
    PinotCluster::start(config).unwrap()
}

/// Run one seeded sequence on its own table of `cluster`; the table is
/// deleted at the end.
fn run_sequence(cluster: &PinotCluster, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let table = format!("lc{seed}");
    let mut live = Live::random(&mut rng, &table);
    cluster
        .streams()
        .create_topic(&live.topic, STREAM_PARTITIONS)
        .unwrap();
    live.create(cluster);
    let mut trail = vec![format!(
        "create(hybrid={}, {}, partitioned={})",
        live.hybrid, live.time_column, live.partitioned
    )];
    for _ in 0..STEPS {
        match rng.gen_range(0..10) {
            0..=2 => {
                let n = rng.gen_range(1..=30);
                let rows = live.rows(&mut rng, n, 0);
                if live.partitioned && rng.gen_bool(0.5) {
                    cluster
                        .upload_rows_partitioned(&table, rows.clone())
                        .unwrap();
                    trail.push("upload_partitioned".into());
                } else {
                    cluster.upload_rows(&table, rows.clone()).unwrap();
                    trail.push("upload".into());
                }
                live.offline.extend(rows);
            }
            3 | 4 if live.hybrid => {
                let n = rng.gen_range(1..=40);
                let rows = live.rows(&mut rng, n, 4);
                for r in &rows {
                    cluster
                        .produce(&live.topic, &r.values()[0], r.clone())
                        .unwrap();
                }
                cluster.consume_until_idle().unwrap();
                live.realtime.extend(rows);
                trail.push("produce+consume".into());
            }
            5 => {
                // A consuming segment keeps the schema it started with, so
                // only an OFFLINE-only table evolves its schema here. A
                // segment built before the column was added answers
                // "unknown column" for it, so queries never name it.
                if !live.hybrid && rng.gen_bool(0.5) {
                    let field = FieldSpec::metric(format!("extra{}", live.extra), DataType::Long);
                    cluster
                        .leader_controller()
                        .unwrap()
                        .add_column(&table, field)
                        .unwrap();
                    live.extra += 1;
                    for r in &mut live.offline {
                        *r = Record::new(
                            r.values().iter().cloned().chain([Value::Long(0)]).collect(),
                        );
                    }
                    trail.push("add_column".into());
                } else {
                    live.partitioned = !live.partitioned;
                    live.inverted = rng.gen_bool(0.5);
                    cluster
                        .leader_controller()
                        .unwrap()
                        .update_table_config(live.offline_config())
                        .unwrap();
                    trail.push(format!("update_config(partitioned={})", live.partitioned));
                }
            }
            6 => {
                live.delete(cluster);
                let topic = live.topic.clone();
                live = Live::random(&mut rng, &table);
                live.topic = topic;
                live.create(cluster);
                trail.push(format!(
                    "recreate(hybrid={}, {}, partitioned={})",
                    live.hybrid, live.time_column, live.partitioned
                ));
            }
            _ => {
                for _ in 0..2 {
                    let pql = gen_query(&mut rng, &live);
                    check(
                        cluster,
                        &live,
                        &pql,
                        &format!("seed {seed} after {trail:?}"),
                    );
                }
                trail.push("query".into());
            }
        }
        // Half the steps go unobserved, so a broker meets several changes
        // at once as well as one at a time.
        if rng.gen_bool(0.5) {
            let pql = gen_query(&mut rng, &live);
            check(
                cluster,
                &live,
                &pql,
                &format!("seed {seed} after {trail:?}"),
            );
        }
    }
    live.delete(cluster);
}

#[test]
fn random_lifecycles_match_the_reference() {
    let started = Instant::now();
    let cluster = lifecycle_cluster(2);
    for seed in 0..SEQUENCES {
        run_sequence(&cluster, seed);
    }
    let elapsed = started.elapsed();
    eprintln!("{SEQUENCES} lifecycle sequences in {elapsed:?}");
}

/// Partition-routed point queries on a hybrid table whose offline side is
/// `Partitioned{viewer, 4}`.
fn point_query(viewer: i64) -> String {
    format!("SELECT COUNT(*), SUM(clicks) FROM steady WHERE viewer = {viewer}")
}

/// In steady state no query rebuilds the broker's table view: filtered,
/// hybrid, partition-routed queries all read the same snapshot. One config
/// update moves the metastore generation, and the next query rebuilds once
/// and routes by the new config.
#[test]
fn steady_state_queries_rebuild_no_view() {
    let cluster = lifecycle_cluster(1);
    let mut rng = StdRng::seed_from_u64(7);
    let mut live = Live::random(&mut rng, "steady");
    live.hybrid = true;
    live.partitioned = true;
    cluster
        .streams()
        .create_topic(&live.topic, STREAM_PARTITIONS)
        .unwrap();
    live.create(&cluster);
    live.offline = live.rows(&mut rng, 200, 0);
    cluster
        .upload_rows_partitioned("steady", live.offline.clone())
        .unwrap();
    live.realtime = live.rows(&mut rng, 100, DAYS);
    for r in &live.realtime {
        cluster
            .produce(&live.topic, &r.values()[0], r.clone())
            .unwrap();
    }
    cluster.consume_until_idle().unwrap();

    let counter = |name: &str| cluster.metrics_snapshot().counter(name);
    check(&cluster, &live, &point_query(0), "warm-up");
    let refreshes = counter("broker.routing.refresh");
    let routed = counter("broker.routing.partition_routed");
    let skipped = counter("prune.partition_segments");
    for i in 0..1000 {
        check(&cluster, &live, &point_query(i % VIEWERS), "steady state");
    }
    assert_eq!(counter("broker.routing.refresh"), refreshes);
    assert_eq!(counter("broker.routing.partition_routed"), routed + 1000);
    // Each point query skipped the three other offline partitions.
    assert_eq!(counter("prune.partition_segments"), skipped + 3000);

    live.partitioned = false;
    cluster
        .leader_controller()
        .unwrap()
        .update_table_config(live.offline_config())
        .unwrap();
    check(&cluster, &live, &point_query(1), "after the update");
    assert_eq!(counter("broker.routing.refresh"), refreshes + 1);
    assert_eq!(counter("broker.routing.partition_routed"), routed + 1000);
    assert_eq!(counter("prune.partition_segments"), skipped + 3000);
}
