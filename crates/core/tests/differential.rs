//! Differential testing of the Pinot execution stack (ISSUE 3 satellite).
//!
//! A seeded generator builds one synthetic table and a few hundred PQL
//! queries covering selections, filters over dimensions/metrics/time,
//! group-bys, top-n, and multi-value columns. Every query runs through
//! the full Pinot cluster (broker parse → route → prune → scatter →
//! server taskpool fan-out → merge → finalize) and its answer must equal
//! what the reference interpreter (`pinot_baseline::reference`) computes
//! from the raw rows — an oracle that shares no segment, index, planner,
//! pruning or merge code with the engine. Metrics are integer-valued so
//! f64 aggregation is exact regardless of merge order, making exact
//! equality meaningful.
//!
//! Beside the oracle suites, matrices re-run the same queries across
//! thread counts, morsel schedules and planner modes and demand
//! *byte-identical* results among the cells — the taskpool's slot-ordered
//! merge guarantee. A proptest checks the underlying algebra: merging
//! aggregation states is associative/commutative versus a sequential
//! fold oracle.

use pinot_baseline::reference;
use pinot_common::config::TableConfig;
use pinot_common::query::{QueryRequest, QueryResponse, QueryResult};
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::{ClusterConfig, PinotCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: &str = "diffevents";
const NUM_ROWS: usize = 600;
const ROWS_PER_SEGMENT: usize = 97;
/// Large enough that no generated selection is truncated, so row-set
/// comparison is not sensitive to which rows an engine keeps.
const SELECTION_LIMIT: usize = 5000;

const COUNTRIES: &[&str] = &["us", "de", "in", "br", "jp", "fr", "cn", "gb"];
const DEVICES: &[&str] = &["ios", "android", "web", "tv"];
const TAGS: &[&str] = &["a", "b", "c", "d", "e", "f"];
const DAY_LO: i64 = 100;
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

fn gen_rows(seed: u64) -> Vec<Record> {
    gen_rows_n(seed, NUM_ROWS)
}

fn gen_rows_n(seed: u64, n: usize) -> Vec<Record> {
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
                Value::Long(rng.gen_range(DAY_LO..=DAY_HI)),
            ])
        })
        .collect()
}

// ---- seeded PQL generator ----

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
    if depth > 0 && rng.gen_range(0..100) < 10 {
        return format!("NOT {}", gen_predicate(rng, depth - 1));
    }
    match rng.gen_range(0..9) {
        0 => {
            let op = ["=", "!="][rng.gen_range(0..2usize)];
            format!(
                "country {op} '{}'",
                COUNTRIES[rng.gen_range(0..COUNTRIES.len())]
            )
        }
        // Selective probes outside the generated data: zone maps and time
        // stats can prove these empty (ISSUE 5), and every engine must
        // agree they match nothing.
        7 => {
            let day = [DAY_LO - 1, DAY_HI + 1][rng.gen_range(0..2usize)];
            let op = ["=", "<", ">"][rng.gen_range(0..3usize)];
            format!("day {op} {day}")
        }
        // Absent countries: 'aa'/'zz' sit outside the lexicographic zone
        // map; 'ca' is inside it, so only a bloom filter can prune it.
        8 => format!(
            "country = '{}'",
            ["aa", "ca", "zz"][rng.gen_range(0..3usize)]
        ),
        1 => format!("country IN ({})", str_list(rng, COUNTRIES, 4)),
        2 => format!("device NOT IN ({})", str_list(rng, DEVICES, 2)),
        // Multi-value semantics: matches if any element matches.
        3 => format!("tags = '{}'", TAGS[rng.gen_range(0..TAGS.len())]),
        4 => {
            let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
            format!("clicks {op} {}", rng.gen_range(0..50i64))
        }
        5 => {
            let lo = rng.gen_range(DAY_LO..=DAY_HI);
            let hi = rng.gen_range(lo..=DAY_HI);
            format!("day BETWEEN {lo} AND {hi}")
        }
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
        "AVG(cost)",
        "DISTINCTCOUNT(country)",
        "DISTINCTCOUNT(device)",
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
        // Selections with a limit past the table size (see SELECTION_LIMIT).
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
        // Group-bys, sometimes truncated by a small TOP (both engines share
        // finalize's deterministic value-then-key ordering, so equal data
        // means equal truncation).
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
            let top = match rng.gen_range(0..3) {
                0 => format!(" TOP {}", rng.gen_range(1..=5)),
                1 => " TOP 1000".to_string(),
                _ => String::new(),
            };
            format!(
                "SELECT {} FROM {TABLE}{where_clause} GROUP BY {}{top}",
                gen_aggs(rng),
                cols.join(", ")
            )
        }
        // Plain aggregations.
        _ => format!("SELECT {} FROM {TABLE}{where_clause}", gen_aggs(rng)),
    }
}

// ---- comparison ----

/// Selection rows are compared as unordered multisets: the cluster visits
/// segments in an order that is not part of the contract. Aggregations
/// and group-bys have one defined order (value descending, ties by key)
/// and are compared verbatim.
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

/// The cluster's answer must be complete and equal the interpreter's
/// over the same rows.
fn assert_matches_reference(label: &str, pql: &str, got: &QueryResponse, rows: &[Record]) {
    assert!(
        !got.partial && got.exceptions.is_empty(),
        "{label}: partial/failed for {pql}: {:?}",
        got.exceptions
    );
    let query = pinot_pql::parse(pql).unwrap();
    let want = reference::evaluate(&schema(), rows, &query)
        .unwrap_or_else(|e| panic!("{label}: reference failed on {pql}: {e}"));
    assert_eq!(
        normalize(&got.result),
        normalize(&want),
        "{label}: engine disagrees with the reference on {pql}"
    );
}

fn start_cluster(rows: &[Record], threads: Option<usize>) -> PinotCluster {
    let mut config = ClusterConfig::default().with_servers(3);
    if let Some(t) = threads {
        config.engine.taskpool_threads = t;
    }
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(TableConfig::offline(TABLE).with_replication(2), schema())
        .unwrap();
    for chunk in rows.chunks(ROWS_PER_SEGMENT) {
        cluster.upload_rows(TABLE, chunk.to_vec()).unwrap();
    }
    cluster
}

/// ≥200 seeded cases: the full Pinot stack (3 servers, replication 2) vs
/// the reference interpreter on the same generated table.
#[test]
fn pinot_matches_reference_on_generated_queries() {
    const SEEDS: &[u64] = &[11, 23, 57, 91];
    const QUERIES_PER_SEED: usize = 60;

    for &seed in SEEDS {
        let rows = gen_rows(seed);
        let cluster = start_cluster(&rows, None);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1f);
        for case in 0..QUERIES_PER_SEED {
            let pql = gen_query(&mut rng);
            let got = cluster.execute(&QueryRequest::new(&pql));
            assert_matches_reference(&format!("seed {seed} case {case}"), &pql, &got, &rows);
        }
    }
}

/// Determinism: the same query on the same single-server cluster must give
/// byte-identical results (including row and group order) on a 1-thread
/// pool and an N-thread pool — the taskpool's slot-ordered merge makes
/// thread count unobservable.
#[test]
fn parallel_results_are_byte_identical_to_single_thread() {
    const SEED: u64 = 42;
    const CASES: usize = 80;

    let rows = gen_rows(SEED);
    // Threshold 0 pins the cost gate open so this corpus — far below the
    // default gate — still exercises the pool fan-out it is meant to test.
    let build = |threads: usize| {
        let mut config = ClusterConfig::default().with_servers(1);
        config.engine.taskpool_threads = threads;
        config.engine.fanout_threshold_ns = 0;
        config.num_controllers = 1;
        let c = PinotCluster::start(config).unwrap();
        c.create_table(TableConfig::offline(TABLE), schema())
            .unwrap();
        for chunk in rows.chunks(ROWS_PER_SEGMENT) {
            c.upload_rows(TABLE, chunk.to_vec()).unwrap();
        }
        c
    };
    let sequential = build(1);
    let parallel = build(4);

    let mut rng = StdRng::seed_from_u64(SEED ^ 0xbeef);
    for _ in 0..CASES {
        let pql = gen_query(&mut rng);
        let req = QueryRequest::new(&pql);
        let seq = sequential.execute(&req);
        let par = parallel.execute(&req);
        assert!(!seq.partial && !par.partial, "partial response for {pql}");
        // Verbatim equality — not normalized — is the whole point.
        assert_eq!(seq.result, par.result, "thread count observable via {pql}");
    }

    // The parallel cluster really did run segment plans on pool workers.
    let snap = parallel.metrics_snapshot();
    assert!(snap.counter("taskpool.tasks_run") > 0);
    assert!(snap.histogram("server.exec.segment_ms").is_some());
}

/// Morsel determinism matrix (ISSUE 8): {1, 2, 4, 8} threads with
/// 1024-doc morsels forced on a corpus big enough that every broad
/// selection splits into several morsels per segment. The 1-thread cell
/// must match the reference interpreter, and every other cell must agree
/// with it *byte-for-byte* — results verbatim, and the deterministic
/// `ExecutionStats` totals too — so neither thread count nor morsel
/// scheduling is observable.
#[test]
fn morsel_thread_matrix_is_byte_identical() {
    const SEED: u64 = 8;
    const CASES: usize = 40;
    // Below SELECTION_LIMIT so no selection is ever truncated, while each
    // 2400-row segment still splits into three 1024-doc morsels.
    const ROWS: usize = 4800;
    const SEG_ROWS: usize = 2400;

    let rows = gen_rows_n(SEED, ROWS);
    let build = |threads: usize| {
        let mut config = ClusterConfig::default().with_servers(1);
        config.engine.taskpool_threads = threads;
        // Force multi-morsel execution regardless of the calibrated
        // cost model: gate open, morsels at the minimum block size.
        config.engine.fanout_threshold_ns = 0;
        config.engine.morsel_docs = 1024;
        config.num_controllers = 1;
        let c = PinotCluster::start(config).unwrap();
        c.create_table(TableConfig::offline(TABLE), schema())
            .unwrap();
        for chunk in rows.chunks(SEG_ROWS) {
            c.upload_rows(TABLE, chunk.to_vec()).unwrap();
        }
        c
    };

    let queries: Vec<String> = {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x305e1);
        (0..CASES).map(|_| gen_query(&mut rng)).collect()
    };

    let reference = build(1);
    let ref_responses: Vec<QueryResponse> = queries
        .iter()
        .map(|pql| reference.execute(&QueryRequest::new(pql)))
        .collect();
    for (pql, resp) in queries.iter().zip(&ref_responses) {
        assert_matches_reference("morsel cell t=1", pql, resp, &rows);
    }

    for &threads in &[2usize, 4, 8] {
        let cell = build(threads);
        for (pql, reference) in queries.iter().zip(&ref_responses) {
            let got = cell.execute(&QueryRequest::new(pql));
            assert!(
                !got.partial && got.exceptions.is_empty(),
                "cell t={threads} failed {pql}: {:?}",
                got.exceptions
            );
            // Verbatim equality: same rows, same order, same floats.
            assert_eq!(
                got.result, reference.result,
                "t={threads} observable via {pql}"
            );
            // The deterministic stats totals must agree across the
            // whole matrix too — morsels may change *scheduling*, not
            // what was scanned.
            assert_eq!(
                got.stats.num_docs_scanned, reference.stats.num_docs_scanned,
                "docs-scanned drift t={threads} on {pql}"
            );
            assert_eq!(
                got.stats.num_entries_scanned_in_filter,
                reference.stats.num_entries_scanned_in_filter,
                "filter-entries drift t={threads} on {pql}"
            );
            assert_eq!(
                got.stats.num_entries_scanned_post_filter,
                reference.stats.num_entries_scanned_post_filter,
                "post-filter-entries drift t={threads} on {pql}"
            );
            assert_eq!(
                got.stats.total_docs, reference.stats.total_docs,
                "total-docs drift t={threads} on {pql}"
            );
        }
        // Each cell genuinely split work into morsels — the matrix is
        // meaningless if everything quietly took the single-morsel path.
        let snap = cell.metrics_snapshot();
        assert!(
            snap.counter("exec.morsels_split") > 0,
            "cell t={threads} never fanned morsels out"
        );
    }
}

/// The block kernels (ISSUE 4) against the reference interpreter: ≥240
/// generated queries — multi-value filters, group columns and
/// projections and grouped DISTINCTCOUNT among them — on one server,
/// with both a sequential and a multi-thread pool.
#[test]
fn block_kernels_match_reference() {
    const SEEDS: &[u64] = &[11, 23, 57, 91];
    const QUERIES_PER_SEED: usize = 60;

    for &threads in &[1usize, 4] {
        for &seed in SEEDS {
            let rows = gen_rows(seed);
            let mut config = ClusterConfig::default().with_servers(1);
            config.engine.taskpool_threads = threads;
            config.num_controllers = 1;
            let cluster = PinotCluster::start(config).unwrap();
            cluster
                .create_table(TableConfig::offline(TABLE), schema())
                .unwrap();
            for chunk in rows.chunks(ROWS_PER_SEGMENT) {
                cluster.upload_rows(TABLE, chunk.to_vec()).unwrap();
            }

            let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c);
            for case in 0..QUERIES_PER_SEED {
                let pql = gen_query(&mut rng);
                let got = cluster.execute(&QueryRequest::new(&pql));
                assert_matches_reference(
                    &format!("t={threads} seed {seed} case {case}"),
                    &pql,
                    &got,
                    &rows,
                );
            }
            assert!(cluster.metrics_snapshot().counter("exec.blocks_decoded") > 0);
        }
    }
}

/// Zone-map/bloom/time pruning (ISSUE 5) against the reference
/// interpreter: pruning may only skip work the filter provably makes
/// irrelevant, so every generated query — the generator emits
/// out-of-range days and absent countries on purpose — must still match
/// the oracle, with `queried == processed + pruned` holding throughout.
#[test]
fn pruned_results_match_reference() {
    const SEEDS: &[u64] = &[11, 23, 57, 91];
    const QUERIES_PER_SEED: usize = 60;

    for &seed in SEEDS {
        let rows = gen_rows(seed);
        let mut config = ClusterConfig::default().with_servers(1);
        config.engine.taskpool_threads = 2;
        config.num_controllers = 1;
        let cluster = PinotCluster::start(config).unwrap();
        cluster
            .create_table(
                TableConfig::offline(TABLE).with_bloom_filters(&["country", "device"]),
                schema(),
            )
            .unwrap();
        for chunk in rows.chunks(ROWS_PER_SEGMENT) {
            cluster.upload_rows(TABLE, chunk.to_vec()).unwrap();
        }
        let num_segments = rows.len().div_ceil(ROWS_PER_SEGMENT) as u64;

        let check = |label: &str, pql: &str| {
            let got = cluster.execute(&QueryRequest::new(pql));
            assert_matches_reference(label, pql, &got, &rows);
            // Pruned segments are counted, not hidden.
            let s = &got.stats;
            assert_eq!(s.num_segments_queried, num_segments, "{label}: {pql}");
            assert_eq!(
                s.num_segments_queried,
                s.num_segments_processed + s.num_segments_pruned,
                "{label}: stats unbalanced on {pql}: {s:?}"
            );
            assert_eq!(s.total_docs, rows.len() as u64, "{label}: {pql}");
            got
        };

        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a3e);
        for case in 0..QUERIES_PER_SEED {
            check(&format!("seed {seed} case {case}"), &gen_query(&mut rng));
        }

        // Zone-map boundaries, where an off-by-one in a verdict hides:
        // probes sitting exactly on the table's min and max day.
        for day in [DAY_LO, DAY_HI] {
            for op in ["<", "<=", ">", ">=", "="] {
                let pql = format!("SELECT COUNT(*), SUM(clicks) FROM {TABLE} WHERE day {op} {day}");
                check("zone-map boundary", &pql);
            }
        }
        for (lo, hi) in [(DAY_LO - 5, DAY_LO), (DAY_HI, DAY_HI + 5)] {
            let pql = format!("SELECT COUNT(*) FROM {TABLE} WHERE day BETWEEN {lo} AND {hi}");
            check("zone-map boundary", &pql);
        }

        // Pruning really fired, deterministically: a day past every
        // segment's time range prunes all of them; 'ca' sits inside the
        // country zone map, so only the bloom filters can prune it.
        let got = check(
            "time-range",
            &format!("SELECT COUNT(*), SUM(cost) FROM {TABLE} WHERE day > {DAY_HI}"),
        );
        assert_eq!(got.stats.num_segments_pruned, num_segments);
        let before = cluster.metrics_snapshot().counter("prune.bloom_segments");
        let got = check(
            "bloom",
            &format!("SELECT COUNT(*) FROM {TABLE} WHERE country = 'ca' GROUP BY device"),
        );
        assert!(got.stats.num_segments_pruned > 0);
        let snap = cluster.metrics_snapshot();
        assert!(snap.counter("prune.bloom_segments") > before);
        assert!(snap.counter("prune.bloom_probes") > 0);
    }
}

/// Access-path strategy matrix: the cost-based planner's choice of
/// inverted probe vs sorted binary search vs scan is a pure performance
/// decision, so every cell of {auto, forced scan, forced inverted, forced
/// sorted} × {1, 4 threads} must return *byte-identical* results on
/// indexed segments, and the forced-scan reference cell must match the
/// reference interpreter. Strategy-invariant stats (docs scanned,
/// post-filter entries, segment accounting) must agree across the matrix
/// too; only `num_entries_scanned_in_filter` may differ — that's the
/// entire point of picking a cheaper access path. The mode is pinned per
/// execution through `ExecOptions::planner`, which no cluster sets, so
/// the cells drive the segments directly: each segment runs as a task on
/// a pool of the cell's thread count, partials merge in segment order and
/// finalize as the broker does.
#[test]
fn planner_strategy_matrix_is_byte_identical() {
    use pinot_core::exec::segment_exec::{
        execute_on_segment_with, IntermediateResult, SegmentHandle,
    };
    use pinot_core::exec::{finalize, merge_intermediate, ExecOptions, ParallelExec, PlannerMode};
    use pinot_core::obs::Obs;
    use pinot_core::segment::builder::{BuilderConfig, SegmentBuilder};
    use pinot_core::taskpool::TaskPool;
    use std::sync::{Arc, Mutex};

    const SEED: u64 = 19;
    const CASES: usize = 40;

    let rows = gen_rows(SEED);
    // Sorted day + inverted country/device so every access path has
    // real structure to pick (and the forced modes aren't all no-ops).
    let segments: Vec<SegmentHandle> = rows
        .chunks(ROWS_PER_SEGMENT)
        .enumerate()
        .map(|(i, chunk)| {
            let cfg = BuilderConfig::new(format!("{TABLE}_{i}"), TABLE)
                .with_sort_columns(&["day"])
                .with_inverted_columns(&["country", "device"]);
            let mut b = SegmentBuilder::new(schema(), cfg).unwrap();
            for r in chunk {
                b.add(r.clone()).unwrap();
            }
            SegmentHandle::new(Arc::new(b.build().unwrap()))
        })
        .collect();

    let queries: Vec<String> = {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x91a);
        (0..CASES).map(|_| gen_query(&mut rng)).collect()
    };

    // One cell's answers to every query, plus the metrics its executions
    // recorded. A failed segment surfaces as a partial response.
    let run_cell = |mode: PlannerMode, threads: usize| {
        let obs = Obs::shared();
        let pool = Arc::new(TaskPool::with_threads(threads, Some(Arc::clone(&obs))));
        let opts = ExecOptions {
            obs: Some(Arc::clone(&obs)),
            parallel: Some(ParallelExec::new(Arc::clone(&pool))),
            planner: mode,
            ..ExecOptions::default()
        };
        let responses: Vec<QueryResponse> = queries
            .iter()
            .map(|pql| {
                let query = pinot_pql::parse(pql).unwrap();
                let slots: Vec<Mutex<Option<pinot_common::Result<IntermediateResult>>>> =
                    segments.iter().map(|_| Mutex::new(None)).collect();
                pool.scope(|scope| {
                    for (handle, slot) in segments.iter().zip(&slots) {
                        let (query, opts) = (&query, &opts);
                        scope.spawn(move || {
                            *slot.lock().unwrap() =
                                Some(execute_on_segment_with(handle, query, opts));
                        });
                    }
                });
                let mut acc = IntermediateResult::empty_for(&query);
                let merged = slots.into_iter().try_for_each(|slot| {
                    let partial = slot.into_inner().unwrap().expect("scope ran every task")?;
                    merge_intermediate(&mut acc, partial)
                });
                let stats = acc.stats.clone();
                match merged.and_then(|()| finalize(acc, &query)) {
                    Ok(result) => QueryResponse {
                        result,
                        stats,
                        partial: false,
                        exceptions: Vec::new(),
                        profile: None,
                    },
                    Err(e) => QueryResponse {
                        result: QueryResult::Aggregation(Vec::new()),
                        stats,
                        partial: true,
                        exceptions: vec![e.to_string()],
                        profile: None,
                    },
                }
            })
            .collect();
        (responses, obs.metrics.snapshot())
    };

    let (ref_responses, _) = run_cell(PlannerMode::Scan, 1);
    for (pql, resp) in queries.iter().zip(&ref_responses) {
        assert_matches_reference("planner cell Scan t=1", pql, resp, &rows);
    }

    for mode in [
        PlannerMode::Auto,
        PlannerMode::Scan,
        PlannerMode::Inverted,
        PlannerMode::Sorted,
    ] {
        for &threads in &[1usize, 4] {
            if mode == PlannerMode::Scan && threads == 1 {
                continue; // the reference cell itself
            }
            let (responses, snap) = run_cell(mode, threads);
            for ((pql, reference), got) in queries.iter().zip(&ref_responses).zip(&responses) {
                assert!(
                    !got.partial && got.exceptions.is_empty(),
                    "cell {mode:?} t={threads} failed {pql}: {:?}",
                    got.exceptions
                );
                assert_eq!(
                    got.result, reference.result,
                    "access path observable via {mode:?} t={threads} on {pql}"
                );
                // Strategy-invariant stats: what matched and what the
                // aggregation read never depends on the access path.
                assert_eq!(
                    got.stats.num_docs_scanned, reference.stats.num_docs_scanned,
                    "docs-scanned drift {mode:?} on {pql}"
                );
                assert_eq!(
                    got.stats.num_entries_scanned_post_filter,
                    reference.stats.num_entries_scanned_post_filter,
                    "post-filter drift {mode:?} on {pql}"
                );
                assert_eq!(
                    got.stats.total_docs, reference.stats.total_docs,
                    "total-docs drift {mode:?} on {pql}"
                );
                assert_eq!(
                    got.stats.num_segments_queried,
                    got.stats.num_segments_processed + got.stats.num_segments_pruned,
                    "segment accounting unbalanced {mode:?} on {pql}"
                );
            }
            // Each cell really planned what it was told to: forced scan
            // never touches an index; auto uses all three paths on this
            // corpus (equality on inverted columns, ranges on the
            // sorted time column, metric predicates that only scan).
            let inverted = snap.counter("exec.plan_inverted");
            let sorted = snap.counter("exec.plan_sorted");
            let scan = snap.counter("exec.plan_scan");
            match mode {
                PlannerMode::Scan => {
                    assert_eq!(inverted + sorted, 0, "forced scan used an index");
                    assert!(scan > 0);
                }
                PlannerMode::Auto => {
                    assert!(
                        inverted > 0 && sorted > 0 && scan > 0,
                        "auto should exercise every path: inv={inverted} sort={sorted} scan={scan}"
                    );
                    assert!(
                        snap.counter("exec.plan_index_and") + snap.counter("exec.plan_index_or")
                            > 0,
                        "auto never took a bulk index operator"
                    );
                }
                PlannerMode::Inverted => assert!(inverted > 0),
                PlannerMode::Sorted => assert!(sorted > 0),
            }
        }
    }
}

/// Aggregating *over* a multi-value column used to panic inside a server
/// task (`ForwardIndex::get` on a multi-value index). Through the full
/// stack it is a typed, non-retriable server error: an exception naming
/// function and column, no panic captured by any pool, no failover
/// attempted — and the interpreter rejects the same query.
#[test]
fn mv_aggregation_is_a_typed_exception_not_a_panic() {
    let rows = gen_rows(3);
    let cluster = start_cluster(&rows, Some(2));
    for pql in [
        format!("SELECT SUM(tags) FROM {TABLE}"),
        format!(
            "SELECT COUNT(*), DISTINCTCOUNT(tags) FROM {TABLE} WHERE clicks > 3 GROUP BY country"
        ),
    ] {
        let resp = cluster.execute(&QueryRequest::new(&pql));
        assert!(
            resp.exceptions
                .iter()
                .any(|e| e.contains("invalid query") && e.contains("(tags)")),
            "{pql}: {:?}",
            resp.exceptions
        );
        let query = pinot_pql::parse(&pql).unwrap();
        assert!(matches!(
            reference::evaluate(&schema(), &rows, &query),
            Err(pinot_common::PinotError::InvalidQuery(_))
        ));
    }
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("taskpool.task_panics"), 0);
    assert_eq!(snap.counter("broker.scatter.retry"), 0);
    assert_eq!(snap.counter("broker.scatter.failover_success"), 0);

    // The cluster is unharmed: the next query is complete and correct.
    let pql = format!("SELECT COUNT(*) FROM {TABLE} GROUP BY tags");
    let got = cluster.execute(&QueryRequest::new(&pql));
    assert_matches_reference("after rejection", &pql, &got, &rows);
}

// ---- survival layer: hedging on vs off ----

/// Hedging is a pure availability mechanism: with it on, the answer to
/// any query must be byte-identical to a cluster with it off. Hedge
/// winners carry the same segment slice as the primary they replace.
/// Admission runs on both sides, and its default limits admit everything
/// without queueing. 4 seeds × 60 queries = 240 cases.
#[test]
fn survival_knobs_are_byte_invisible() {
    const SEEDS: &[u64] = &[11, 23, 57, 91];
    const QUERIES_PER_SEED: usize = 60;

    for &seed in SEEDS {
        let rows = gen_rows(seed);
        // One server: multi-server selection gather is completion-ordered,
        // which would make byte-identity timing-dependent rather than
        // knob-dependent.
        let build = |on: bool| {
            let mut config = ClusterConfig::default().with_servers(1);
            config.engine.taskpool_threads = 2;
            config.engine.hedge = on;
            config.num_controllers = 1;
            let c = PinotCluster::start(config).unwrap();
            c.create_table(TableConfig::offline(TABLE), schema())
                .unwrap();
            for chunk in rows.chunks(ROWS_PER_SEGMENT) {
                c.upload_rows(TABLE, chunk.to_vec()).unwrap();
            }
            c
        };
        let armored = build(true);
        let bare = build(false);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x51f7);
        for case in 0..QUERIES_PER_SEED {
            let pql = gen_query(&mut rng);
            let req = QueryRequest::new(&pql);
            let a = armored.execute(&req);
            let b = bare.execute(&req);
            assert!(
                !a.partial && a.exceptions.is_empty(),
                "armored partial/failed seed {seed} case {case} {pql}: {:?}",
                a.exceptions
            );
            assert!(
                !b.partial && b.exceptions.is_empty(),
                "bare partial/failed seed {seed} case {case} {pql}: {:?}",
                b.exceptions
            );
            assert_eq!(
                a.result, b.result,
                "hedging observable via seed {seed} case {case} {pql}"
            );
        }

        // The bare cluster never hedged; neither side queued or shed.
        let (asnap, bsnap) = (armored.metrics_snapshot(), bare.metrics_snapshot());
        assert_eq!(
            bsnap.counter("broker.hedge_issued"),
            0,
            "hedged with hedging off"
        );
        for snap in [&asnap, &bsnap] {
            for metric in ["broker.admission_queued", "broker.admission_shed"] {
                assert_eq!(snap.counter(metric), 0, "{metric} fired");
            }
        }
    }
}

// ---- merge algebra: pooled pairwise merges vs a sequential fold ----

mod merge_algebra {
    use pinot_core::exec::AggState;
    use pinot_pql::AggFunction;
    use proptest::prelude::*;

    const FUNCTIONS: &[AggFunction] = &[
        AggFunction::Count,
        AggFunction::Sum,
        AggFunction::Min,
        AggFunction::Max,
        AggFunction::Avg,
    ];

    fn state_of(f: AggFunction, values: &[i64]) -> AggState {
        let mut s = AggState::new(f);
        for &v in values {
            s.accept_numeric(v as f64);
        }
        s
    }

    fn merged(f: AggFunction, parts: &[&[i64]]) -> f64 {
        let mut acc = AggState::new(f);
        for p in parts {
            acc.merge(state_of(f, p)).unwrap();
        }
        acc.finalize_f64()
    }

    proptest! {
        /// merge(fold(a), fold(b)) == fold(a ++ b): any split of the rows
        /// into partials gives the fold oracle's answer.
        #[test]
        fn merge_agrees_with_fold_oracle(
            a in prop::collection::vec(0i64..1000, 0..30),
            b in prop::collection::vec(0i64..1000, 0..30),
            c in prop::collection::vec(0i64..1000, 0..30),
        ) {
            for &f in FUNCTIONS {
                let mut all = a.clone();
                all.extend_from_slice(&b);
                all.extend_from_slice(&c);
                // Skip empty MIN/MAX/AVG: finalize of "no rows" is a
                // sentinel the oracle can't fold to.
                if all.is_empty() {
                    continue;
                }
                let oracle = state_of(f, &all).finalize_f64();
                prop_assert_eq!(merged(f, &[&a, &b, &c]), oracle);
            }
        }

        /// Commutativity and associativity of the pairwise merge, which is
        /// what lets the pool combine partials in slot order rather than
        /// completion order without changing the answer.
        #[test]
        fn merge_is_commutative_and_associative(
            a in prop::collection::vec(0i64..1000, 1..30),
            b in prop::collection::vec(1i64..1000, 1..30),
            c in prop::collection::vec(0i64..1000, 1..30),
        ) {
            for &f in FUNCTIONS {
                let ab_c = merged(f, &[&a, &b, &c]);
                let c_ba = merged(f, &[&c, &b, &a]);
                let b_ac = merged(f, &[&b, &a, &c]);
                prop_assert_eq!(ab_c, c_ba);
                prop_assert_eq!(ab_c, b_ac);
            }
        }

        /// Worker-slot permutation invariance (ISSUE 8): morsel execution
        /// accumulates partials into per-worker slots, and which worker
        /// ends up holding which partial is a scheduling accident. Merging
        /// the slots under *any* seeded permutation must finalize to the
        /// same answer as slot order — the integer-valued inputs make the
        /// f64 accumulation exact, so equality is literal, not approximate.
        #[test]
        fn partial_merge_is_invariant_under_slot_permutation(
            slots in prop::collection::vec(
                prop::collection::vec(0i64..1000, 0..25), 1..9),
            perm_seed in 0u64..1_000_000,
        ) {
            use rand::rngs::StdRng;
            use rand::{SeedableRng, SliceRandom};

            if slots.iter().all(|s| s.is_empty()) {
                // finalize of "no rows" is a sentinel; covered elsewhere.
                return Ok(());
            }
            let mut order: Vec<usize> = (0..slots.len()).collect();
            order.shuffle(&mut StdRng::seed_from_u64(perm_seed));
            for &f in FUNCTIONS {
                let in_slot_order: Vec<&[i64]> =
                    slots.iter().map(|s| s.as_slice()).collect();
                let permuted: Vec<&[i64]> =
                    order.iter().map(|&i| slots[i].as_slice()).collect();
                prop_assert_eq!(
                    merged(f, &in_slot_order),
                    merged(f, &permuted),
                    "slot permutation observable for {:?}", f
                );
            }
        }
    }
}
