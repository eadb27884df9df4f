//! Figure 7: intra-server parallel segment execution (§3.3.4, Figs 5/7).
//!
//! The paper's servers run each segment's physical plan on a thread-pool
//! worker and merge the partial results; this binary measures what that
//! buys on the multi-segment WVMP workload by running the *same* data and
//! queries on a single-server cluster whose taskpool is pinned to 1 worker
//! vs `available_parallelism` workers. One server isolates the intra-node
//! axis — no scatter fan-out differences muddy the comparison.
//!
//! Output: per-configuration latency percentiles plus the pool's own
//! counters (tasks run/stolen, queue depth) scraped from
//! `render_metrics`, so the figure shows both *that* it is faster and
//! *why* (work actually spread across workers).

use pinot_bench::setup::{scale, BASE_DAY};
use pinot_bench::{latency_histogram, QueryEngine};
use pinot_common::config::TableConfig;
use pinot_core::{ClusterConfig, PinotCluster};
use pinot_workloads::wvmp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SEGMENTS: usize = 16;

fn build(threads: usize, rows: &[pinot_common::Record]) -> Arc<PinotCluster> {
    let mut config = ClusterConfig::default().with_servers(1);
    config.engine.taskpool_threads = threads;
    let cluster = Arc::new(PinotCluster::start(config).expect("cluster"));
    cluster
        .create_table(
            TableConfig::offline(wvmp::TABLE).with_sorted_column("viewee_id"),
            wvmp::schema(),
        )
        .expect("table");
    let per_segment = rows.len().div_ceil(SEGMENTS);
    for chunk in rows.chunks(per_segment.max(1)) {
        cluster
            .upload_rows(wvmp::TABLE, chunk.to_vec())
            .expect("upload");
    }
    cluster
}

fn pool_metrics(cluster: &PinotCluster) -> String {
    cluster
        .render_metrics()
        .lines()
        .filter(|l| l.contains("taskpool.") || l.contains("server.exec.segment_ms"))
        .map(|l| format!("    {}", l.trim()))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let num_rows = 200_000 * scale();
    let num_queries = 2_000;
    // At least 4 workers even on small machines, so the figure always
    // exercises the parallel path (on a 1-core box the two configurations
    // tie; the speedup needs real cores).
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4);

    let mut rng = StdRng::seed_from_u64(7);
    let gen = wvmp::WvmpGen::new((num_rows / 100).max(100), BASE_DAY);
    let rows = gen.rows(num_rows, &mut rng);
    let queries = gen.queries(num_queries, &mut rng);

    println!("# Figure 7 — 1-thread vs N-thread per-segment execution (WVMP)");
    println!("# rows={num_rows} segments={SEGMENTS} queries={num_queries} servers=1");
    println!("engine\tavg_ms\tp50_ms\tp90_ms\tp99_ms\tmax_ms");

    // Both clusters are built before any measurement and the passes are
    // interleaved, best-of per query: measuring one engine entirely after
    // the other's segment builds skews whichever runs second, which on a
    // one-core host is bigger than the effect being measured.
    const PASSES: usize = 5;
    let configs = [
        ("pinot-1-thread".to_string(), 1),
        (format!("pinot-{threads}-thread"), threads),
    ];
    let clusters: Vec<_> = configs.iter().map(|(_, n)| build(*n, &rows)).collect();
    let mut best: Vec<Vec<f64>> = vec![vec![f64::INFINITY; queries.len()]; configs.len()];
    for _ in 0..PASSES {
        for (qi, pql) in queries.iter().enumerate() {
            let req = pinot_common::query::QueryRequest::new(pql);
            for (i, (label, _)) in configs.iter().enumerate() {
                let t = std::time::Instant::now();
                let resp = clusters[i].execute(&req);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                assert!(!resp.partial, "partial/failed response in {label}");
                best[i][qi] = best[i][qi].min(ms);
            }
        }
    }

    for (i, (label, _)) in configs.iter().enumerate() {
        let cluster = &clusters[i];
        let engine = pinot_bench::harness::PinotEngine {
            cluster: Arc::clone(cluster),
            label: label.clone(),
        };
        let hist = latency_histogram(&best[i]);
        println!(
            "{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
            engine.name(),
            hist.mean(),
            hist.p50(),
            hist.quantile(0.90),
            hist.p99(),
            hist.max(),
        );
        println!("  pool metrics:\n{}", pool_metrics(cluster));
    }
}
