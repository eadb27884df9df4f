//! Multi-level pruning bench (ISSUE 5): a selective-filter workload over
//! many time-partitioned segments, with the zone-map/bloom pruning
//! pipeline forced on vs off.
//!
//! One segment per day is uploaded to a 3-server cluster. Day-equality
//! queries then touch exactly one segment's worth of data: with pruning
//! on, the broker's zone maps drop 35 of 36 segments (and the servers
//! that only held pruned segments) before any RPC; with pruning off,
//! every segment is planned and scanned. The bench demands a ≥5×
//! reduction in segments planned and a ≥2× p50 latency win, and persists
//! `BENCH_prune.json` at the repo root so the trajectory is tracked
//! across PRs.

use pinot_common::config::TableConfig;
use pinot_common::query::QueryResponse;
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::{ClusterConfig, PinotCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const TABLE: &str = "events";
const NUM_DAYS: i64 = 36;
const DAY_LO: i64 = 100;
const ROWS_PER_SEGMENT: usize = 2000;
const MEASURE_ITERS: usize = 6;
const COUNTRIES: &[&str] = &["us", "de", "in", "br", "jp", "fr", "cn", "gb"];

fn schema() -> Schema {
    Schema::new(
        TABLE,
        vec![
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn day_rows(day: i64, rng: &mut StdRng) -> Vec<Record> {
    (0..ROWS_PER_SEGMENT)
        .map(|_| {
            Record::new(vec![
                Value::from(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]),
                Value::Long(rng.gen_range(0..50i64)),
                Value::Long(day),
            ])
        })
        .collect()
}

fn start_cluster(prune: bool) -> PinotCluster {
    let mut config = ClusterConfig::default().with_servers(3);
    config.engine.taskpool_threads = 2;
    config.engine.prune = prune;
    config.num_controllers = 1;
    let cluster = PinotCluster::start(config).unwrap();
    cluster
        .create_table(
            TableConfig::offline(TABLE).with_bloom_filters(&["country"]),
            schema(),
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    for day in DAY_LO..DAY_LO + NUM_DAYS {
        cluster.upload_rows(TABLE, day_rows(day, &mut rng)).unwrap();
    }
    cluster
}

fn check(resp: &QueryResponse, pql: &str) {
    assert!(
        !resp.partial && resp.exceptions.is_empty(),
        "query failed: {pql}: {:?}",
        resp.exceptions
    );
    assert_eq!(
        resp.stats.num_segments_queried,
        resp.stats.num_segments_processed + resp.stats.num_segments_pruned,
        "unbalanced stats for {pql}: {:?}",
        resp.stats
    );
}

/// Run the selective workload once; returns (per-query latencies in µs,
/// total segments processed, total docs scanned).
fn run_workload(cluster: &PinotCluster, measure: bool) -> (Vec<f64>, u64, u64) {
    let mut latencies = Vec::new();
    let mut processed = 0u64;
    let mut scanned = 0u64;
    let iters = if measure { MEASURE_ITERS } else { 1 };
    for _ in 0..iters {
        for day in DAY_LO..DAY_LO + NUM_DAYS {
            let pql = format!("SELECT COUNT(*), SUM(clicks) FROM {TABLE} WHERE day = {day}");
            let t = Instant::now();
            let resp = cluster.query(&pql);
            latencies.push(t.elapsed().as_nanos() as f64 / 1e3);
            check(&resp, &pql);
            processed += resp.stats.num_segments_processed;
            scanned += resp.stats.num_docs_scanned;
        }
    }
    (latencies, processed, scanned)
}

fn p50(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    println!("# Prune bench — zone-map/bloom pruning on vs off");
    println!("# segments={NUM_DAYS} rows/segment={ROWS_PER_SEGMENT}");

    let pruned = start_cluster(true);
    let unpruned = start_cluster(false);

    // Warm caches (routing tables, broker zone maps) outside the clock.
    run_workload(&pruned, false);
    run_workload(&unpruned, false);

    let (mut on_lat, on_processed, on_scanned) = run_workload(&pruned, true);
    let (mut off_lat, off_processed, off_scanned) = run_workload(&unpruned, true);
    let queries = on_lat.len();

    // A bloom-only pass: the probe value is inside every segment's zone
    // map, so only the bloom filters can prove it absent.
    for day in DAY_LO..DAY_LO + NUM_DAYS {
        let pql = format!("SELECT COUNT(*) FROM {TABLE} WHERE country = 'ca' AND day >= {day}");
        check(&pruned.query(&pql), &pql);
    }

    let (on_p50, off_p50) = (p50(&mut on_lat), p50(&mut off_lat));
    let segment_reduction = off_processed as f64 / (on_processed.max(1)) as f64;
    let p50_speedup = off_p50 / on_p50;
    let snap = pruned.metrics_snapshot();
    let time_pruned = snap.counter("prune.time_segments");
    let zonemap_pruned = snap.counter("prune.zonemap_segments");
    let bloom_pruned = snap.counter("prune.bloom_segments");
    let servers_skipped = snap.counter("prune.broker_servers_skipped");

    println!("metric\tpruned\tunpruned\tratio");
    println!("segments_processed\t{on_processed}\t{off_processed}\t{segment_reduction:.1}x");
    println!("docs_scanned\t{on_scanned}\t{off_scanned}\t-");
    println!("p50_us\t{on_p50:.0}\t{off_p50:.0}\t{p50_speedup:.2}x");
    println!(
        "# prune counters: time={time_pruned} zonemap={zonemap_pruned} bloom={bloom_pruned} \
         servers_skipped={servers_skipped}"
    );

    let body = format!(
        "{{\n  \"segments\": {NUM_DAYS},\n  \"rows_per_segment\": {ROWS_PER_SEGMENT},\n  \
         \"queries\": {queries},\n  \"pruned\": {{\"p50_us\": {on_p50:.1}, \
         \"segments_processed\": {on_processed}, \"docs_scanned\": {on_scanned}}},\n  \
         \"unpruned\": {{\"p50_us\": {off_p50:.1}, \"segments_processed\": {off_processed}, \
         \"docs_scanned\": {off_scanned}}},\n  \"segment_reduction\": {segment_reduction:.2},\n  \
         \"p50_speedup\": {p50_speedup:.2},\n  \"counters\": {{\"time\": {time_pruned}, \
         \"zonemap\": {zonemap_pruned}, \"bloom\": {bloom_pruned}, \
         \"servers_skipped\": {servers_skipped}}}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prune.json");
    std::fs::write(path, body).expect("write BENCH_prune.json");
    println!("# wrote {path}");

    // Acceptance floors (ISSUE 5): pruning must plan ≥5× fewer segments
    // and halve p50 latency on the selective workload.
    assert!(
        segment_reduction >= 5.0,
        "acceptance: expected ≥5x fewer segments planned, got {segment_reduction:.2}x"
    );
    assert!(
        p50_speedup >= 2.0,
        "acceptance: expected ≥2x p50 improvement, got {p50_speedup:.2}x"
    );
    assert!(bloom_pruned > 0, "bloom pruning never fired");
    assert!(
        servers_skipped > 0,
        "no servers were dropped from the scatter set"
    );
    println!("# acceptance ok: {segment_reduction:.1}x segments, {p50_speedup:.2}x p50");
}
