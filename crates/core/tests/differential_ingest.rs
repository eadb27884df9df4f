//! Ingest-while-query differential suite (ISSUE 10 satellite).
//!
//! A hybrid table — offline segments plus a realtime stream consumed
//! through columnar consuming segments — must answer every query exactly
//! as the reference interpreter (`pinot_baseline::reference`) does over
//! the rows the time-boundary rewrite makes visible: offline rows
//! strictly below the boundary (the max offline day) plus every realtime
//! row at or above it. The corpus runs *during* ingestion (queries
//! interleaved with produce/tick) and again after the stream drains, on
//! 1- and 4-thread pools, and the answers must agree in both cells.
//! Selection rows are compared as unordered sets, since the gather appends
//! the offline and realtime slices in completion order; group tables,
//! `TOP`-truncated ones included, compare verbatim.

use pinot_baseline::reference;
use pinot_common::config::{StreamConfig, TableConfig};
use pinot_common::query::{QueryRequest, QueryResponse, QueryResult};
use pinot_common::time::Clock;
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::{ClusterConfig, PinotCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: &str = "ingestevents";
const TOPIC: &str = "ingest-events";
const PARTITIONS: usize = 2;
/// Large enough that no generated selection is truncated.
const SELECTION_LIMIT: usize = 5000;

const COUNTRIES: &[&str] = &["us", "de", "in", "br", "jp", "fr", "cn", "gb"];
const DEVICES: &[&str] = &["ios", "android", "web", "tv"];
const TAGS: &[&str] = &["a", "b", "c", "d", "e", "f"];
/// Offline rows span days 100..=BOUNDARY; realtime rows span
/// BOUNDARY..=DAY_HI. The boundary day exists on *both* sides so the
/// suite exercises the exclusion: offline rows at day == BOUNDARY are
/// invisible to hybrid queries (realtime answers day >= boundary).
const DAY_LO: i64 = 100;
const BOUNDARY: i64 = 115;
const DAY_HI: i64 = 129;

fn schema() -> Schema {
    Schema::new(
        TABLE,
        vec![
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::dimension("device", DataType::String),
            FieldSpec::multi_value_dimension("tags", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::metric("cost", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn gen_rows(seed: u64, n: usize, day_lo: i64, day_hi: i64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let ntags = rng.gen_range(1..=3usize);
            let mut tags: Vec<String> = Vec::with_capacity(ntags);
            while tags.len() < ntags {
                let t = TAGS[rng.gen_range(0..TAGS.len())].to_string();
                if !tags.contains(&t) {
                    tags.push(t);
                }
            }
            Record::new(vec![
                Value::from(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]),
                Value::from(DEVICES[rng.gen_range(0..DEVICES.len())]),
                Value::StringArray(tags),
                Value::Long(rng.gen_range(0..50i64)),
                Value::Long(rng.gen_range(1..1000i64)),
                Value::Long(rng.gen_range(day_lo..=day_hi)),
            ])
        })
        .collect()
}

// ---- seeded PQL generator (same shapes as the offline differential suite) ----

fn str_list(rng: &mut StdRng, pool: &[&str], max: usize) -> String {
    let n = rng.gen_range(1..=max.min(pool.len()));
    let mut picked: Vec<&str> = Vec::new();
    while picked.len() < n {
        let c = pool[rng.gen_range(0..pool.len())];
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    picked
        .iter()
        .map(|c| format!("'{c}'"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn gen_predicate(rng: &mut StdRng, depth: usize) -> String {
    if depth > 0 && rng.gen_range(0..100) < 40 {
        let a = gen_predicate(rng, depth - 1);
        let b = gen_predicate(rng, depth - 1);
        let op = if rng.gen_range(0..2) == 0 {
            "AND"
        } else {
            "OR"
        };
        return format!("({a} {op} {b})");
    }
    match rng.gen_range(0..8) {
        0 => {
            let op = ["=", "!="][rng.gen_range(0..2usize)];
            format!(
                "country {op} '{}'",
                COUNTRIES[rng.gen_range(0..COUNTRIES.len())]
            )
        }
        1 => format!("country IN ({})", str_list(rng, COUNTRIES, 4)),
        2 => format!("device NOT IN ({})", str_list(rng, DEVICES, 2)),
        3 => format!("tags = '{}'", TAGS[rng.gen_range(0..TAGS.len())]),
        4 => {
            let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
            format!("clicks {op} {}", rng.gen_range(0..50i64))
        }
        5 => {
            // Ranges straddling the time boundary: the rewrite must split
            // them between the offline and realtime sides exactly.
            let lo = rng.gen_range(DAY_LO..=DAY_HI);
            let hi = rng.gen_range(lo..=DAY_HI);
            format!("day BETWEEN {lo} AND {hi}")
        }
        6 => format!("day = {BOUNDARY}"),
        _ => {
            let op = ["<", ">=", "="][rng.gen_range(0..3usize)];
            format!("day {op} {}", rng.gen_range(DAY_LO..=DAY_HI + 1))
        }
    }
}

fn gen_aggs(rng: &mut StdRng) -> String {
    const AGGS: &[&str] = &[
        "COUNT(*)",
        "SUM(clicks)",
        "SUM(cost)",
        "MIN(cost)",
        "MAX(clicks)",
        "AVG(clicks)",
        "AVG(cost)",
        "DISTINCTCOUNT(country)",
        "DISTINCTCOUNT(device)",
        "DISTINCTCOUNT(clicks)",
    ];
    let n = rng.gen_range(1..=3usize);
    let mut picked: Vec<&str> = Vec::new();
    while picked.len() < n {
        let a = AGGS[rng.gen_range(0..AGGS.len())];
        if !picked.contains(&a) {
            picked.push(a);
        }
    }
    picked.join(", ")
}

fn gen_query(rng: &mut StdRng) -> String {
    let where_clause = if rng.gen_range(0..100) < 75 {
        format!(" WHERE {}", gen_predicate(rng, 2))
    } else {
        String::new()
    };
    match rng.gen_range(0..10) {
        0 | 1 => {
            const COLS: &[&str] = &["country", "device", "tags", "clicks", "cost", "day"];
            let n = rng.gen_range(1..=3usize);
            let mut cols: Vec<&str> = Vec::new();
            while cols.len() < n {
                let c = COLS[rng.gen_range(0..COLS.len())];
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            format!(
                "SELECT {} FROM {TABLE}{where_clause} LIMIT {SELECTION_LIMIT}",
                cols.join(", ")
            )
        }
        2..=5 => {
            const GROUPS: &[&str] = &["country", "device", "tags", "day"];
            let n = rng.gen_range(1..=2usize);
            let mut cols: Vec<&str> = Vec::new();
            while cols.len() < n {
                let c = GROUPS[rng.gen_range(0..GROUPS.len())];
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            // A small TOP cuts almost every group table; 1000 is above
            // every group-space cardinality (country×day is the largest
            // at 8×30).
            let top = if rng.gen_range(0..2) == 0 {
                rng.gen_range(1..=5)
            } else {
                1000
            };
            format!(
                "SELECT {} FROM {TABLE}{where_clause} GROUP BY {} TOP {top}",
                gen_aggs(rng),
                cols.join(", ")
            )
        }
        _ => format!("SELECT {} FROM {TABLE}{where_clause}", gen_aggs(rng)),
    }
}

// ---- comparison ----

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
        // Group tables compare verbatim: the engine and the reference both
        // order by value, descending, and break ties by the rendered key,
        // so a truncated table keeps the same groups in the same order.
        other => other.clone(),
    }
}

/// The hybrid answer must be complete and equal the interpreter's over
/// `visible` — the rows the table should currently expose.
fn assert_matches_reference(label: &str, pql: &str, hybrid: &QueryResponse, visible: &[Record]) {
    assert!(
        !hybrid.partial && hybrid.exceptions.is_empty(),
        "{label}: hybrid partial/failed for {pql}: {:?}",
        hybrid.exceptions
    );
    let query = pinot_pql::parse(pql).unwrap();
    let want = reference::evaluate(&schema(), visible, &query)
        .unwrap_or_else(|e| panic!("{label}: reference failed on {pql}: {e}"));
    assert_eq!(
        normalize(&hybrid.result),
        normalize(&want),
        "{label}: hybrid disagrees with the reference on {pql}"
    );
}

/// The rows the time-boundary rewrite makes visible on the hybrid table.
fn visible_rows(offline: &[Record], realtime: &[Record]) -> Vec<Record> {
    let day_of = |r: &Record| r.values()[5].as_i64().unwrap();
    offline
        .iter()
        .filter(|r| day_of(r) < BOUNDARY)
        .chain(realtime.iter())
        .cloned()
        .collect()
}

fn start_hybrid(threads: usize, offline: &[Record], flush_rows: usize) -> PinotCluster {
    let mut config = ClusterConfig::default()
        .with_servers(1)
        .with_clock(Clock::manual(1_700_000_000_000));
    config.engine.taskpool_threads = threads;
    config.num_controllers = 1;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .streams()
        .create_topic(TOPIC, PARTITIONS as u32)
        .unwrap();
    cluster
        .create_table(TableConfig::offline(TABLE), schema())
        .unwrap();
    cluster
        .create_table(
            TableConfig::realtime(
                TABLE,
                StreamConfig {
                    topic: TOPIC.into(),
                    flush_threshold_rows: flush_rows,
                    flush_threshold_millis: i64::MAX / 4,
                },
            )
            // Sorted + inverted + bloom so sealing from the columnar store
            // exercises every index build, not just the forward path.
            .with_sorted_column("day")
            .with_inverted_indexes(&["country"])
            .with_bloom_filters(&["device"]),
            schema(),
        )
        .unwrap();
    for chunk in offline.chunks(250) {
        cluster.upload_rows(TABLE, chunk.to_vec()).unwrap();
    }
    cluster
}

/// Produce `rows` into the stream round-robin over partitions, consuming
/// and (optionally) querying along the way.
fn ingest_interleaved(
    cluster: &PinotCluster,
    rows: &[Record],
    mut probe: impl FnMut(&PinotCluster, usize),
) {
    for (i, batch) in rows.chunks(120).enumerate() {
        for (j, r) in batch.iter().enumerate() {
            let key = Value::Long(((i * 120 + j) % PARTITIONS) as i64);
            cluster.produce(TOPIC, &key, r.clone()).unwrap();
        }
        cluster.consume_tick().unwrap();
        probe(cluster, (i + 1) * 120);
    }
    cluster.consume_until_idle().unwrap();
}

/// The main matrix: hybrid (ingesting) vs the reference interpreter on
/// {1, 4} threads — both cells must agree with the oracle on every
/// generated query, both mid-ingest and after the stream drains.
#[test]
fn hybrid_ingest_matches_reference() {
    const SEED: u64 = 77;
    const CASES: usize = 45;
    const OFFLINE_ROWS: usize = 700;
    const REALTIME_ROWS: usize = 1200;
    // Small enough that each partition seals several segments from the
    // columnar store mid-run, large enough that a consuming tail remains.
    const FLUSH_ROWS: usize = 170;

    let offline = gen_rows(SEED, OFFLINE_ROWS, DAY_LO, BOUNDARY);
    let realtime = gen_rows(SEED ^ 0xabcd, REALTIME_ROWS, BOUNDARY, DAY_HI);
    let visible = visible_rows(&offline, &realtime);

    let queries: Vec<String> = {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x1297);
        (0..CASES).map(|_| gen_query(&mut rng)).collect()
    };
    // Answers must not depend on the cell: aggregation/group-by results
    // are compared verbatim against the first cell's responses.
    let mut reference: Option<Vec<QueryResponse>> = None;

    for threads in [1usize, 4] {
        let label = format!("t={threads}");
        let cluster = start_hybrid(threads, &offline, FLUSH_ROWS);

        // Queries issued *during* ingestion: results must be complete
        // (never partial) and counts exactly track what was consumed.
        let below_boundary = visible_rows(&offline, &[]).len();
        ingest_interleaved(&cluster, &realtime, |c, _| {
            let resp = c.query(&format!("SELECT COUNT(*) FROM {TABLE}"));
            assert!(
                !resp.partial && resp.exceptions.is_empty(),
                "{label}: mid-ingest query failed: {:?}",
                resp.exceptions
            );
            let count = match &resp.result {
                QueryResult::Aggregation(rows) => rows[0].value.as_i64().unwrap(),
                other => panic!("{other:?}"),
            };
            assert!(
                count >= below_boundary as i64 && count <= (below_boundary + REALTIME_ROWS) as i64,
                "{label}: mid-ingest count {count} outside [{below_boundary}, {}]",
                below_boundary + REALTIME_ROWS
            );
        });

        let responses: Vec<QueryResponse> = queries
            .iter()
            .map(|pql| {
                let hybrid = cluster.execute(&QueryRequest::new(pql));
                assert_matches_reference(&label, pql, &hybrid, &visible);
                hybrid
            })
            .collect();
        match &reference {
            None => reference = Some(responses),
            Some(reference) => {
                for ((pql, got), want) in queries.iter().zip(&responses).zip(reference) {
                    assert_eq!(
                        normalize(&got.result),
                        normalize(&want.result),
                        "{label}: cell observable via {pql}"
                    );
                    if !matches!(got.result, QueryResult::Selection { .. }) {
                        // Aggregations and group-bys: verbatim, float
                        // accumulation order included.
                        assert_eq!(got.result, want.result, "{label}: bytes differ on {pql}");
                    }
                }
            }
        }

        // The realtime path really served queries from consistent cuts.
        let snap = cluster.metrics_snapshot();
        assert!(
            snap.counter("realtime.query_cut_rows") > 0,
            "{label}: no consuming-segment view was ever taken"
        );
        assert!(
            snap.gauge("ingest.rows_per_sec").is_some(),
            "{label}: ingest throughput gauge never set"
        );
    }
}

/// A consuming segment that grows past the 4096-row chunk size must seal
/// full chunks behind the readers, keep answering exactly, and report the
/// realtime plan in EXPLAIN with the cut's row count.
#[test]
fn large_consuming_segment_seals_chunks_and_explains_realtime() {
    const SEED: u64 = 5;
    // Rows are spread round-robin over 2 partitions; each partition's
    // consuming segment must clear the 4096-row chunk size on its own.
    const REALTIME_ROWS: usize = 12_000;

    let realtime = gen_rows(SEED, REALTIME_ROWS, BOUNDARY, DAY_HI);

    // Flush threshold far above the row count: everything stays in one
    // consuming segment per partition, spanning multiple sealed chunks.
    let cluster = start_hybrid(4, &[], 1_000_000);
    ingest_interleaved(&cluster, &realtime, |_, _| {});

    for pql in [
        format!("SELECT COUNT(*), SUM(clicks), SUM(cost) FROM {TABLE}"),
        format!("SELECT COUNT(*) FROM {TABLE} WHERE country = 'us'"),
        format!("SELECT SUM(cost) FROM {TABLE} WHERE day >= {BOUNDARY} GROUP BY device"),
        format!("SELECT country, clicks FROM {TABLE} WHERE clicks < 3 LIMIT {SELECTION_LIMIT}"),
    ] {
        let got = cluster.execute(&QueryRequest::new(&pql));
        assert_matches_reference("chunked", &pql, &got, &realtime);
    }

    let snap = cluster.metrics_snapshot();
    assert!(
        snap.counter("realtime.chunks_sealed") > 0,
        "a {REALTIME_ROWS}-row consuming segment never sealed a chunk"
    );

    let plan = cluster
        .explain(&format!(
            "EXPLAIN PLAN FOR SELECT SUM(clicks) FROM {TABLE} WHERE country = 'us'"
        ))
        .unwrap();
    assert!(
        plan.contains("plan=realtime("),
        "EXPLAIN does not mark consuming segments realtime:\n{plan}"
    );
    assert!(
        plan.contains("cut_rows="),
        "EXPLAIN does not report the cut row count:\n{plan}"
    );
}

/// Backpressure: with a buffered-row limit below what the stream holds,
/// consumption pauses (the stall counter fires) and resumes as sealing
/// drains the backlog — no rows lost, queries exact throughout.
#[test]
fn backpressure_pauses_and_drains_without_losing_rows() {
    const SEED: u64 = 31;
    const REALTIME_ROWS: usize = 2400;

    let realtime = gen_rows(SEED, REALTIME_ROWS, BOUNDARY, DAY_HI);

    let clock = Clock::manual(1_700_000_000_000);
    let mut config = ClusterConfig::default()
        .with_servers(1)
        .with_clock(clock.clone());
    config.engine.taskpool_threads = 4;
    config.engine.ingest_max_buffered_rows = 400;
    config.num_controllers = 1;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .streams()
        .create_topic(TOPIC, PARTITIONS as u32)
        .unwrap();
    // Size-based flush effectively off: only the age criterion seals, so
    // buffered rows genuinely pile up against the 400-row limit instead
    // of sealing away within the same tick they arrive.
    cluster
        .create_table(
            TableConfig::realtime(
                TABLE,
                StreamConfig {
                    topic: TOPIC.into(),
                    flush_threshold_rows: 1_000_000,
                    flush_threshold_millis: 60_000,
                },
            ),
            schema(),
        )
        .unwrap();

    // Produce everything up front, then drain: the first tick buffers
    // 1024 rows per partition — past the limit — so the next tick must
    // pause fetching, and only the age-based seal lets ingestion resume.
    for (i, r) in realtime.iter().enumerate() {
        let key = Value::Long((i % PARTITIONS) as i64);
        cluster.produce(TOPIC, &key, r.clone()).unwrap();
    }
    for _ in 0..10 {
        cluster.consume_tick().unwrap();
        clock.advance(61_000);
        cluster.consume_tick().unwrap();
    }
    cluster.consume_until_idle().unwrap();

    let pql = format!("SELECT COUNT(*), SUM(cost) FROM {TABLE}");
    let got = cluster.execute(&QueryRequest::new(&pql));
    assert_matches_reference("backpressure", &pql, &got, &realtime);

    let snap = cluster.metrics_snapshot();
    assert!(
        snap.counter("ingest.backpressure_stalls") > 0,
        "the buffered-row limit never paused consumption"
    );
}
