//! The four workloads: what each generates from the seed and how its
//! cluster is set up. Sizes are for a 2-core host and for the run-time cap
//! of the benchmark contract (every run — five set-ups, warm-up, measured
//! window, oracle check — ends in well under a minute).

use pinot_common::config::{StarTreeConfig, StreamConfig, TableConfig};
use pinot_common::{Record, Result, Schema, Value};
use pinot_core::{ClusterConfig, PinotCluster};
use pinot_workloads::{anomaly, wvmp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

pub const BASE_DAY: i64 = 17_000;
pub const SERVERS: usize = 3;
pub const STREAM_TOPIC: &str = "anomaly-events";
pub const STREAM_PARTITIONS: u32 = 2;
/// Consumers poll the stream this often (the servers' consume loop is an
/// explicit tick in this codebase; the harness is the pump).
pub const TICK_INTERVAL: std::time::Duration = std::time::Duration::from_millis(5);
/// Inverted indexes of the anomaly tables, on two of the five dimensions
/// only: the other filters scan.
const INVERTED: [&str; 2] = ["metric_name", "country"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WvmpPoint,
    AnomalyScan,
    AnomalyStartree,
    HybridIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WvmpPoint,
        Workload::AnomalyScan,
        Workload::AnomalyStartree,
        Workload::HybridIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WvmpPoint => "wvmp_point",
            Workload::AnomalyScan => "anomaly_scan",
            Workload::AnomalyStartree => "anomaly_startree",
            Workload::HybridIngest => "hybrid_ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Logical table the workload queries.
    pub fn table(self) -> &'static str {
        match self {
            Workload::WvmpPoint => wvmp::TABLE,
            _ => anomaly::TABLE,
        }
    }

    /// Inverted indexes a consuming segment of the workload's schema builds
    /// when it seals (what `hybrid_ingest`'s realtime table asks for).
    pub fn realtime_inverted_columns(self) -> Vec<String> {
        match self {
            Workload::WvmpPoint => Vec::new(),
            _ => INVERTED.map(String::from).to_vec(),
        }
    }

    pub fn sizes(self, quick: bool) -> Sizes {
        let full = match self {
            Workload::WvmpPoint => Sizes {
                rows: 400_000,
                segments: 32,
                queries: 20_000,
                ..Sizes::OFFLINE
            },
            Workload::AnomalyScan => Sizes {
                rows: 1_000_000,
                segments: 8,
                queries: 4_000,
                ..Sizes::OFFLINE
            },
            Workload::AnomalyStartree => Sizes {
                rows: 80_000,
                segments: 8,
                queries: 4_000,
                ..Sizes::OFFLINE
            },
            Workload::HybridIngest => Sizes {
                rows: 200_000,
                segments: 4,
                queries: 4_000,
                check_queries: 256,
                // 1,600 queries in the window: p95 leaves 80 beyond it.
                tail_percentile: 0.95,
                ingest_rows_per_s: 20_000,
                query_rate_per_s: 100,
                flush_rows: 25_000,
                backlog_rows: 300_000,
                pool_rows: 100_000,
            },
        };
        if !quick {
            return full;
        }
        Sizes {
            rows: full.rows / 20,
            segments: full.segments.min(4),
            queries: 400,
            check_queries: 64,
            tail_percentile: full.tail_percentile,
            ingest_rows_per_s: full.ingest_rows_per_s / 2,
            query_rate_per_s: full.query_rate_per_s,
            flush_rows: full.flush_rows / 10,
            backlog_rows: full.backlog_rows / 20,
            pool_rows: full.pool_rows / 10,
        }
    }
}

/// Input sizes of one workload. The stream fields are zero for the three
/// offline workloads.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub rows: usize,
    pub segments: usize,
    pub queries: usize,
    /// Leading queries checked against the oracle and hashed into the
    /// result digest.
    pub check_queries: usize,
    /// The tail reported for latency and freshness: the highest percentile
    /// that repeats at this workload's sample count.
    pub tail_percentile: f64,
    pub ingest_rows_per_s: u64,
    pub query_rate_per_s: u64,
    pub flush_rows: usize,
    pub backlog_rows: usize,
    pub pool_rows: usize,
}

impl Sizes {
    const OFFLINE: Sizes = Sizes {
        rows: 0,
        segments: 0,
        queries: 0,
        check_queries: 256,
        tail_percentile: 0.99,
        ingest_rows_per_s: 0,
        query_rate_per_s: 0,
        flush_rows: 0,
        backlog_rows: 0,
        pool_rows: 0,
    };
}

/// Everything a run feeds the program under test, derived from the seed
/// alone.
pub struct Inputs {
    pub workload: Workload,
    pub sizes: Sizes,
    pub schema: Schema,
    pub rows: Vec<Record>,
    pub queries: Vec<String>,
    /// `hybrid_ingest`: records cycled into the stream; all on or after
    /// `boundary_day`, so none is shadowed by the offline side.
    pub stream_pool: Vec<Record>,
    /// `hybrid_ingest`: the newest offline day. The broker serves
    /// `day < boundary_day` from offline and the rest from realtime.
    pub boundary_day: i64,
}

pub fn generate(workload: Workload, seed: u64, quick: bool) -> Inputs {
    let sizes = workload.sizes(quick);
    // Rows and queries draw from separate streams so `anomaly_scan` and
    // `anomaly_startree` get the same queries although their row counts
    // differ.
    let mut row_rng = StdRng::seed_from_u64(seed);
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut inputs = Inputs {
        workload,
        sizes,
        schema: anomaly::schema(),
        rows: Vec::new(),
        queries: Vec::new(),
        stream_pool: Vec::new(),
        boundary_day: 0,
    };
    match workload {
        Workload::WvmpPoint => {
            let gen = wvmp::WvmpGen::new((sizes.rows / 100).max(100), BASE_DAY);
            inputs.schema = wvmp::schema();
            inputs.rows = gen.rows(sizes.rows, &mut row_rng);
            inputs.queries = gen.queries(sizes.queries, &mut query_rng);
        }
        Workload::AnomalyScan | Workload::AnomalyStartree => {
            inputs.rows = anomaly::rows(sizes.rows, BASE_DAY, &mut row_rng);
            inputs.queries = anomaly::queries(sizes.queries, BASE_DAY, &mut query_rng);
        }
        Workload::HybridIngest => {
            inputs.rows = anomaly::rows(sizes.rows, BASE_DAY, &mut row_rng);
            inputs.boundary_day = inputs.rows.iter().map(day_of).max().unwrap_or(BASE_DAY);
            inputs.stream_pool = anomaly::rows(sizes.pool_rows, inputs.boundary_day, &mut row_rng);
            // `day >= lo` with lo up to ten days before the boundary: every
            // query reads both the offline and the realtime side.
            inputs.queries =
                anomaly::queries(sizes.queries, inputs.boundary_day - 10, &mut query_rng);
        }
    }
    inputs
}

/// The anomaly schema's time column is its last.
pub fn day_of(record: &Record) -> i64 {
    record.values().last().and_then(Value::as_i64).unwrap_or(0)
}

/// The anomaly schema's `events` metric.
pub fn events_of(record: &Record) -> i64 {
    record.values()[6].as_i64().unwrap_or(0)
}

fn offline_config(workload: Workload) -> TableConfig {
    match workload {
        Workload::WvmpPoint => TableConfig::offline(wvmp::TABLE)
            .with_sorted_column("viewee_id")
            .with_replication(2),
        Workload::AnomalyScan | Workload::HybridIngest => {
            TableConfig::offline(anomaly::TABLE).with_inverted_indexes(&INVERTED)
        }
        // The star-tree of `pinot_bench::setup::anomaly_setup`.
        Workload::AnomalyStartree => {
            TableConfig::offline(anomaly::TABLE).with_star_tree(StarTreeConfig {
                dimensions: [
                    "metric_name",
                    "datacenter",
                    "country",
                    "platform",
                    "fabric",
                    "day",
                ]
                .map(String::from)
                .to_vec(),
                metrics: vec!["value".into(), "events".into()],
                max_leaf_records: 20,
                skip_star_dimensions: vec![],
            })
        }
    }
}

/// What one set-up took.
pub struct SetupTimes {
    /// Boot + table create + every segment built, uploaded and loaded.
    pub secs: f64,
    /// Per segment: `upload_rows` call to return, when it is queryable.
    pub push_secs: Vec<f64>,
}

pub struct Setup {
    pub cluster: Arc<PinotCluster>,
    pub times: SetupTimes,
}

/// Boot a cluster with shipped defaults (only the server count and the
/// table config are chosen here) and load the offline rows.
pub fn set_up(inputs: &Inputs) -> Result<Setup> {
    let started = Instant::now();
    let cluster = Arc::new(PinotCluster::start(
        ClusterConfig::default().with_servers(SERVERS),
    )?);
    let table = inputs.workload.table();
    cluster.create_table(offline_config(inputs.workload), inputs.schema.clone())?;
    if inputs.workload == Workload::HybridIngest {
        cluster
            .streams()
            .create_topic(STREAM_TOPIC, STREAM_PARTITIONS)?;
        cluster.create_table(
            TableConfig::realtime(
                table,
                StreamConfig {
                    topic: STREAM_TOPIC.into(),
                    flush_threshold_rows: inputs.sizes.flush_rows,
                    flush_threshold_millis: i64::MAX / 4,
                },
            )
            .with_inverted_indexes(&INVERTED),
            inputs.schema.clone(),
        )?;
    }
    let per_segment = inputs.rows.len().div_ceil(inputs.sizes.segments.max(1));
    let mut push_secs = Vec::with_capacity(inputs.sizes.segments);
    let mut copy_secs = 0.0;
    for chunk in inputs.rows.chunks(per_segment.max(1)) {
        // `upload_rows` takes ownership; the copy is the harness's cost,
        // not the system's, so it is taken out of the set-up time.
        let t = Instant::now();
        let rows = chunk.to_vec();
        copy_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        cluster.upload_rows(table, rows)?;
        push_secs.push(t.elapsed().as_secs_f64());
    }
    Ok(Setup {
        cluster,
        times: SetupTimes {
            secs: started.elapsed().as_secs_f64() - copy_secs,
            push_secs,
        },
    })
}
