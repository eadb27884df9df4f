//! The query profiling plane (ISSUE 6): `execute_profiled` must be
//! observationally identical to `execute` (same bytes, same stats), and
//! the merged broker → server → segment profile tree must reconcile
//! *exactly* with `ExecutionStats` on the same seeded differential corpus
//! the engine-vs-baseline tests use. Also covers EXPLAIN rendering, the
//! slow-query-log profile attachment, deterministic query ids, and
//! segment nodes nesting under their server for scattered segment work.

use pinot_common::config::TableConfig;
use pinot_common::profile::ProfileNode;
use pinot_common::query::{QueryRequest, QueryResponse, QueryResult};
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::chaos::{sites, Fault, FaultInjector};
use pinot_core::{ClusterConfig, PinotCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const TABLE: &str = "diffevents";
const NUM_ROWS: usize = 600;
const ROWS_PER_SEGMENT: usize = 97;
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
    let mut rng = StdRng::seed_from_u64(seed);
    (0..NUM_ROWS)
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
        7 => {
            let day = [DAY_LO - 1, DAY_HI + 1][rng.gen_range(0..2usize)];
            let op = ["=", "<", ">"][rng.gen_range(0..3usize)];
            format!("day {op} {day}")
        }
        8 => format!(
            "country = '{}'",
            ["aa", "ca", "zz"][rng.gen_range(0..3usize)]
        ),
        1 => format!("country IN ({})", str_list(rng, COUNTRIES, 4)),
        2 => format!("device NOT IN ({})", str_list(rng, DEVICES, 2)),
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
        _ => format!("SELECT {} FROM {TABLE}{where_clause}", gen_aggs(rng)),
    }
}

fn start_cluster(rows: &[Record]) -> PinotCluster {
    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(3)).unwrap();
    cluster
        .create_table(TableConfig::offline(TABLE).with_replication(2), schema())
        .unwrap();
    for chunk in rows.chunks(ROWS_PER_SEGMENT) {
        cluster.upload_rows(TABLE, chunk.to_vec()).unwrap();
    }
    cluster
}

/// Documents scanned, summed over exact segment nodes *and* the summary
/// nodes the server folded colder segments into.
fn profile_docs_scanned(root: &ProfileNode) -> u64 {
    root.sum_docs_out("segment") + root.sum_docs_out("segments_summary")
}

/// Segment executions accounted anywhere in the tree: exact segment nodes
/// count once, summary nodes carry their fold count. Does not descend
/// into segment/summary nodes (their children are operators, not
/// segments).
fn profile_segments(node: &ProfileNode) -> u64 {
    match node.operator {
        "segment" => node.segments.max(1),
        "segments_summary" => node.segments,
        _ => node.children.iter().map(profile_segments).sum(),
    }
}

/// Selection rows as an unordered multiset: two executions of one query
/// may route to different replicas, and gather order is not part of the
/// contract. Aggregations and group-bys are compared verbatim.
fn rows_as_multiset(result: &QueryResult) -> QueryResult {
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

/// The stat counters that must be identical whether or not profiling is
/// on (everything except wall-clock times and the query id).
fn key_stats(resp: &QueryResponse) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    let s = &resp.stats;
    (
        s.num_docs_scanned,
        s.num_segments_queried,
        s.num_segments_processed,
        s.num_segments_pruned,
        s.total_docs,
        s.num_entries_scanned_in_filter,
        s.num_entries_scanned_post_filter,
        s.num_servers_queried,
    )
}

/// 240 seeded corpus queries: profiling must be unobservable in the
/// result and stats, and every returned profile must reconcile exactly
/// with the stats — docs scanned, segment accounting, and the
/// queried = processed + pruned identity.
#[test]
fn profiled_execution_is_byte_identical_and_reconciles_with_stats() {
    const SEEDS: &[u64] = &[11, 23, 57, 91];
    const QUERIES_PER_SEED: usize = 60;

    for &seed in SEEDS {
        let rows = gen_rows(seed);
        let cluster = start_cluster(&rows);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1f);
        for case in 0..QUERIES_PER_SEED {
            let pql = gen_query(&mut rng);
            let req = QueryRequest::new(&pql);
            let plain = cluster.execute(&req);
            let profiled = cluster.execute_profiled(&req);
            assert!(
                !plain.partial && !profiled.partial,
                "partial response seed {seed} case {case}: {pql}"
            );

            // Profiling is unobservable: same bytes, same counters.
            assert_eq!(
                rows_as_multiset(&plain.result),
                rows_as_multiset(&profiled.result),
                "profiling changed the result of {pql}"
            );
            assert_eq!(
                key_stats(&plain),
                key_stats(&profiled),
                "profiling changed stats of {pql}"
            );
            assert!(plain.profile.is_none());

            // The profile reconciles exactly with ExecutionStats.
            let stats = &profiled.stats;
            let profile = profiled
                .profile
                .as_ref()
                .unwrap_or_else(|| panic!("no profile for {pql}"));
            assert_ne!(profile.query_id, 0, "{pql}");
            assert_eq!(profile.query_id, stats.query_id, "{pql}");
            assert_eq!(
                profile_docs_scanned(&profile.root),
                stats.num_docs_scanned,
                "segment docs_out disagree with num_docs_scanned for {pql}\n{}",
                profile.render_text()
            );
            assert_eq!(
                profile_segments(&profile.root),
                stats.num_segments_queried,
                "segment accounting disagrees for {pql}\n{}",
                profile.render_text()
            );
            assert_eq!(
                stats.num_segments_queried,
                stats.num_segments_processed + stats.num_segments_pruned,
                "{pql}"
            );
            assert_eq!(profile.root.operator, "broker");
            assert_eq!(profile.root.docs_out, stats.num_docs_scanned);
            assert_eq!(profile.root.docs_in, stats.total_docs);
        }
    }
}

/// EXPLAIN PLAN renders every segment's plan decision without executing;
/// EXPLAIN ANALYZE executes and renders the measured profile plus stats.
#[test]
fn explain_plan_and_analyze_render() {
    let rows = gen_rows(7);
    let cluster = start_cluster(&rows);

    let plan = cluster
        .explain(&format!(
            "EXPLAIN PLAN FOR SELECT COUNT(*) FROM {TABLE} WHERE country = 'us'"
        ))
        .unwrap();
    assert!(plan.contains("EXPLAIN PLAN FOR"), "{plan}");
    assert!(plan.contains("segments of diffevents"), "{plan}");
    // Plans without execution: nothing scanned yet.
    assert!(plan.contains("plan=") || plan.contains("prune="), "{plan}");

    // A probe the zone maps can prove empty shows prune attribution.
    let pruned = cluster
        .explain(&format!(
            "EXPLAIN PLAN FOR SELECT COUNT(*) FROM {TABLE} WHERE day = {}",
            DAY_HI + 1
        ))
        .unwrap();
    assert!(pruned.contains("cannot_match"), "{pruned}");

    let analyze = cluster
        .explain(&format!(
            "EXPLAIN ANALYZE SELECT SUM(clicks) FROM {TABLE} WHERE device = 'ios'"
        ))
        .unwrap();
    assert!(analyze.contains("EXPLAIN ANALYZE"), "{analyze}");
    assert!(analyze.contains("query_id:"), "{analyze}");
    assert!(analyze.contains("broker"), "{analyze}");
    assert!(analyze.contains("segment"), "{analyze}");
    assert!(analyze.contains("stats: docs_scanned="), "{analyze}");
    // Per-conjunct access-path attribution (ISSUE 9): the filter node
    // carries one child per conjunct naming the chosen path, with
    // docs=estimated→actual from the cost model's estimate.
    assert!(
        analyze.contains("conjunct device = ios (scan)"),
        "{analyze}"
    );

    // Non-EXPLAIN statements are rejected with a helpful error.
    assert!(cluster
        .explain(&format!("SELECT COUNT(*) FROM {TABLE}"))
        .is_err());
}

/// A slow query's log entry carries the merged profile tree, joined to
/// the response by query id, and names the dominant operator.
#[test]
fn slow_query_log_entry_carries_profile_naming_dominant_operator() {
    let chaos = Arc::new(FaultInjector::new());
    let cluster = PinotCluster::start(
        ClusterConfig::default()
            .with_servers(2)
            .with_chaos(Arc::clone(&chaos)),
    )
    .unwrap();
    cluster
        .create_table(TableConfig::offline(TABLE).with_replication(2), schema())
        .unwrap();
    for chunk in gen_rows(3).chunks(ROWS_PER_SEGMENT) {
        cluster.upload_rows(TABLE, chunk.to_vec()).unwrap();
    }

    // Push the query past the slow threshold inside server execution.
    chaos.arm(sites::SERVER_EXECUTE, Fault::delay_ms(120));
    let resp = cluster.execute_profiled(&QueryRequest::new(format!(
        "SELECT COUNT(*), SUM(cost) FROM {TABLE} WHERE clicks >= 10"
    )));
    assert!(!resp.partial, "{:?}", resp.exceptions);
    let profile = resp.profile.as_ref().expect("profiled response");

    let entry = cluster
        .recent_queries()
        .into_iter()
        .find(|e| e.query_id == resp.stats.query_id)
        .expect("slow query must be logged with its query id");
    let logged = entry.profile.expect("log entry carries the profile");
    assert_eq!(logged.query_id, profile.query_id);

    // The tree reaches from broker through server to segment level and
    // names where the time went.
    assert_eq!(logged.root.operator, "broker");
    assert!(logged.root.children.iter().any(|c| c.operator == "server"));
    assert!(
        logged
            .root
            .count_nodes(&|n| n.operator == "segment" || n.operator == "segments_summary")
            > 0
    );
    let (op, ns) = logged.dominant_operator();
    assert!(!op.is_empty());
    assert!(ns > 0, "dominant operator {op} has no time");
}

/// Query ids are seeded and deterministic: two identically-configured
/// clusters assign the same id sequence, ids are nonzero, and distinct
/// within a sequence — so spans, profiles, and log entries can be joined
/// across reruns.
#[test]
fn query_ids_are_deterministic_nonzero_and_distinct() {
    let build = || {
        let cluster = PinotCluster::start(ClusterConfig::default().with_servers(2)).unwrap();
        cluster
            .create_table(TableConfig::offline(TABLE), schema())
            .unwrap();
        cluster
            .upload_rows(TABLE, gen_rows(5)[..ROWS_PER_SEGMENT].to_vec())
            .unwrap();
        cluster
    };
    let a = build();
    let b = build();
    let pql = format!("SELECT COUNT(*) FROM {TABLE}");
    let ids_a: Vec<u64> = (0..4)
        .map(|_| a.execute(&QueryRequest::new(&pql)).stats.query_id)
        .collect();
    let ids_b: Vec<u64> = (0..4)
        .map(|_| b.execute(&QueryRequest::new(&pql)).stats.query_id)
        .collect();
    assert_eq!(ids_a, ids_b, "id sequence must be deterministic");
    assert!(ids_a.iter().all(|&id| id != 0));
    let mut dedup = ids_a.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), ids_a.len(), "ids must be distinct: {ids_a:?}");
}

/// Segment nodes that do not sit under a `server` node.
fn segments_outside_servers(node: &ProfileNode, under_server: bool) -> u64 {
    let under_server = under_server || node.operator == "server";
    let own = u64::from(node.operator == "segment" && !under_server);
    own + node
        .children
        .iter()
        .map(|c| segments_outside_servers(c, under_server))
        .sum::<u64>()
}

/// Under a profiled scattered query, every per-segment node nests under
/// the server node that executed it.
#[test]
fn profiled_scatter_nests_segment_nodes_under_server_nodes() {
    let cluster = start_cluster(&gen_rows(9));
    let resp = cluster.execute_profiled(&QueryRequest::new(format!(
        "SELECT SUM(clicks) FROM {TABLE}"
    )));
    assert!(!resp.partial, "{:?}", resp.exceptions);
    let root = &resp.profile.as_ref().expect("profiled response").root;

    assert!(
        root.count_nodes(&|n| n.operator == "server") >= 2,
        "expected a multi-server scatter:\n{}",
        root.render_text()
    );
    assert!(
        root.count_nodes(&|n| n.operator == "segment") > 0,
        "profiled scatter must record per-segment nodes:\n{}",
        root.render_text()
    );
    assert_eq!(
        segments_outside_servers(root, false),
        0,
        "segment nodes outside any server:\n{}",
        root.render_text()
    );
}
