//! Broker survival-layer bench (ISSUE 7): the single-flight result cache
//! under a zipfian closed-loop mix, and hedged scatter against a
//! Delay-faulted straggler.
//!
//! Phase 1 drives 8 closed-loop clients over a 64-query pool with zipfian
//! popularity (s ≈ 1.1) against a cache-enabled cluster and demands a
//! ≥50% cache hit ratio. Phase 2 runs the same query against two
//! replicated clusters — hedging on vs off — while `Server_1` is held
//! 25 ms late by a chaos Delay fault, and demands hedging cut the faulted
//! p99 by ≥2×. Results persist to `BENCH_broker.json` at the repo root.

use pinot_common::config::TableConfig;
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::chaos::{sites, Fault, FaultScope};
use pinot_core::{ClusterConfig, PinotCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const TABLE: &str = "events";
const POOL: usize = 64;
const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 500;
const ZIPF_S: f64 = 1.1;
const STRAGGLER_DELAY_MS: u64 = 25;
const HEDGE_MEASURE: usize = 120;

fn schema() -> Schema {
    Schema::new(
        TABLE,
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
        .map(|i| {
            Record::new(vec![
                Value::Long(base + i),
                Value::Long(1 + (base + i) % 9),
                Value::Long(100 + (base + i) % 8),
            ])
        })
        .collect()
}

/// Precomputed zipfian CDF over ranks 0..POOL with exponent `ZIPF_S`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[rank]
}

/// Phase 1: zipfian closed-loop mix against the result cache.
/// Returns (throughput qps, p50 µs, p99 µs, hit ratio, counters json).
fn cache_phase() -> (f64, f64, f64, f64, String) {
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.taskpool_threads = 4;
    config.engine.result_cache = true;
    config.num_controllers = 1;
    let cluster = Arc::new(PinotCluster::start(config).unwrap());
    cluster
        .create_table(TableConfig::offline(TABLE), schema())
        .unwrap();
    for base in [0i64, 3000, 6000] {
        cluster.upload_rows(TABLE, rows(base, 2000)).unwrap();
    }

    // 64 semantically distinct queries: each filters a different viewer
    // range, so no two normalize to the same cache key.
    let pool: Vec<String> = (0..POOL)
        .map(|i| {
            format!(
                "SELECT COUNT(*), SUM(clicks) FROM {TABLE} WHERE viewer >= {}",
                i as i64 * 100
            )
        })
        .collect();
    let pool = Arc::new(pool);
    let zipf = Arc::new(Zipf::new(POOL));

    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let cluster = Arc::clone(&cluster);
            let pool = Arc::clone(&pool);
            let zipf = Arc::clone(&zipf);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xCAFE + client as u64);
                let mut lat = Vec::with_capacity(QUERIES_PER_CLIENT);
                for _ in 0..QUERIES_PER_CLIENT {
                    let pql = &pool[zipf.sample(&mut rng)];
                    let t = Instant::now();
                    let resp = cluster.query(pql);
                    lat.push(t.elapsed().as_nanos() as f64 / 1e3);
                    assert!(
                        !resp.partial && resp.exceptions.is_empty(),
                        "cache-phase query failed: {pql}: {:?}",
                        resp.exceptions
                    );
                }
                lat
            })
        })
        .collect();
    let mut latencies: Vec<f64> = clients
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    let wall = started.elapsed().as_secs_f64();

    let total = (CLIENTS * QUERIES_PER_CLIENT) as f64;
    let throughput = total / wall;
    let p50 = percentile(&mut latencies, 0.50);
    let p99 = percentile(&mut latencies, 0.99);

    let snap = cluster.metrics_snapshot();
    let hits = snap.counter("broker.cache_hit");
    let misses = snap.counter("broker.cache_miss");
    let coalesced = snap.counter("broker.cache_coalesced");
    let hit_ratio = (hits + coalesced) as f64 / total;
    let counters = format!(
        "{{\"cache_hit\": {hits}, \"cache_miss\": {misses}, \"cache_coalesced\": {coalesced}}}"
    );
    (throughput, p50, p99, hit_ratio, counters)
}

/// Phase 2: hedging vs no hedging against a Delay-faulted straggler.
/// Returns (p99_on µs, p99_off µs, hedge counters json).
fn hedge_phase() -> (f64, f64, String) {
    let build = |hedge: bool| {
        let mut config = ClusterConfig::default().with_servers(3);
        config.engine.taskpool_threads = 16;
        config.engine.hedge = hedge;
        config.num_controllers = 1;
        let cluster = PinotCluster::start(config).unwrap();
        cluster
            .create_table(TableConfig::offline(TABLE).with_replication(3), schema())
            .unwrap();
        for base in [0i64, 1000, 2000, 3000, 4000, 5000] {
            cluster.upload_rows(TABLE, rows(base, 500)).unwrap();
        }
        cluster
    };
    let hedged = build(true);
    let bare = build(false);
    // A tight hedge floor keeps the speculative re-issue well under the
    // injected straggle without racing healthy replies.
    hedged.brokers()[0].set_hedge_floor_ms(4);

    let pql = format!("SELECT COUNT(*), SUM(clicks) FROM {TABLE}");
    // Warm routing tables and the per-server latency digest (the hedge
    // delay derives from healthy p99, which needs samples).
    for cluster in [&hedged, &bare] {
        for _ in 0..30 {
            let resp = cluster.query(&pql);
            assert!(!resp.partial, "warmup failed: {:?}", resp.exceptions);
        }
    }

    let run = |cluster: &PinotCluster| {
        let fault = cluster.chaos().arm(
            sites::SERVER_EXECUTE,
            Fault::delay_ms(STRAGGLER_DELAY_MS).with_scope(FaultScope::any().instance("Server_1")),
        );
        let mut lat = Vec::with_capacity(HEDGE_MEASURE);
        for _ in 0..HEDGE_MEASURE {
            let t = Instant::now();
            let resp = cluster.query(&pql);
            lat.push(t.elapsed().as_nanos() as f64 / 1e3);
            assert!(
                !resp.partial && resp.exceptions.is_empty(),
                "hedge-phase query failed: {:?}",
                resp.exceptions
            );
        }
        cluster.chaos().disarm(fault);
        lat
    };
    let mut on_lat = run(&hedged);
    let mut off_lat = run(&bare);

    let p99_on = percentile(&mut on_lat, 0.99);
    let p99_off = percentile(&mut off_lat, 0.99);
    let snap = hedged.metrics_snapshot();
    let issued = snap.counter("broker.hedge_issued");
    let won = snap.counter("broker.hedge_won");
    let wasted = snap.counter("broker.hedge_wasted");
    let counters =
        format!("{{\"hedge_issued\": {issued}, \"hedge_won\": {won}, \"hedge_wasted\": {wasted}}}");
    assert!(issued > 0, "the faulted run never hedged");
    (p99_on, p99_off, counters)
}

fn main() {
    println!("# Broker survival bench — result cache + hedged scatter");
    println!("# pool={POOL} clients={CLIENTS} queries/client={QUERIES_PER_CLIENT} zipf_s={ZIPF_S}");

    let (throughput, p50, p99, hit_ratio, cache_counters) = cache_phase();
    println!("cache: {throughput:.0} qps p50={p50:.0}us p99={p99:.0}us hit_ratio={hit_ratio:.3}");
    println!("# cache counters: {cache_counters}");

    let (p99_on, p99_off, hedge_counters) = hedge_phase();
    let hedge_speedup = p99_off / p99_on;
    println!(
        "hedge: straggler={STRAGGLER_DELAY_MS}ms p99_on={p99_on:.0}us p99_off={p99_off:.0}us \
         speedup={hedge_speedup:.2}x"
    );
    println!("# hedge counters: {hedge_counters}");

    let body = format!(
        "{{\n  \"cache\": {{\n    \"pool\": {POOL},\n    \"clients\": {CLIENTS},\n    \
         \"queries\": {},\n    \"zipf_s\": {ZIPF_S},\n    \"throughput_qps\": {throughput:.1},\n    \
         \"p50_us\": {p50:.1},\n    \"p99_us\": {p99:.1},\n    \"hit_ratio\": {hit_ratio:.4},\n    \
         \"counters\": {cache_counters}\n  }},\n  \"hedge\": {{\n    \
         \"straggler_delay_ms\": {STRAGGLER_DELAY_MS},\n    \"queries\": {HEDGE_MEASURE},\n    \
         \"p99_on_us\": {p99_on:.1},\n    \"p99_off_us\": {p99_off:.1},\n    \
         \"p99_speedup\": {hedge_speedup:.2},\n    \"counters\": {hedge_counters}\n  }}\n}}\n",
        CLIENTS * QUERIES_PER_CLIENT
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_broker.json");
    std::fs::write(path, body).expect("write BENCH_broker.json");
    println!("# wrote {path}");

    // Acceptance floors (ISSUE 7): hedging halves the Delay-faulted p99,
    // and the zipfian mix is served mostly from cache.
    assert!(
        hedge_speedup >= 2.0,
        "acceptance: expected hedging to cut faulted p99 >=2x, got {hedge_speedup:.2}x"
    );
    assert!(
        hit_ratio >= 0.5,
        "acceptance: expected >=50% cache hit ratio on the zipfian mix, got {hit_ratio:.3}"
    );
    println!("# acceptance ok: {hedge_speedup:.2}x p99, {hit_ratio:.2} hit ratio");
}
