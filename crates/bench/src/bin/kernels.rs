//! Kernel microbench: batched dict-id execution vs the legacy row path
//! (ISSUE 4). Four axes over a 1M-doc segment:
//!
//! 1. **bit-unpack throughput** — `PackedIntVec::unpack_block` vs
//!    per-element `get`, across representative bit widths;
//! 2. **filter-scan ns/doc** — the planner's scan-fallback leaf with the
//!    batched id-space matcher vs doc-at-a-time `matches_doc`;
//! 3. **ungrouped SUM** — block accumulate through the dict-id→f64 LUT
//!    vs per-doc dictionary lookups;
//! 4. **group-by rows/s** — packed composite u64 dict-id keys vs owned
//!    `GroupKey` materialization per doc.
//!
//! Results print as TSV and persist to `BENCH_kernels.json` at the repo
//! root so the perf trajectory is tracked across PRs.

use pinot_common::{DataType, EngineConfig, FieldSpec, Record, Schema, Value};
use pinot_exec::segment_exec::{execute_on_segment_with, SegmentHandle};
use pinot_exec::{evaluate_filter_planned, ExecOptions, PlannerMode};
use pinot_pql::parse;
use pinot_segment::bitpack::{PackedIntVec, BLOCK};
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const NUM_DOCS: usize = 1_000_000;
const COUNTRIES: &[&str] = &["us", "de", "in", "br", "jp", "fr", "cn", "gb"];
const DEVICES: &[&str] = &["ios", "android", "web", "tv"];

fn build_segment() -> SegmentHandle {
    let schema = Schema::new(
        "t",
        vec![
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::dimension("device", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::metric("cost", DataType::Long),
        ],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let mut b = SegmentBuilder::new(schema, BuilderConfig::new("s", "t")).unwrap();
    for _ in 0..NUM_DOCS {
        b.add(Record::new(vec![
            Value::from(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]),
            Value::from(DEVICES[rng.gen_range(0..DEVICES.len())]),
            Value::Long(rng.gen_range(0..50i64)),
            Value::Long(rng.gen_range(1..1000i64)),
        ]))
        .unwrap();
    }
    SegmentHandle::new(Arc::new(b.build().unwrap()))
}

/// Best-of-N wall time for `f`, in nanoseconds.
fn best_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

fn bench_unpack(results: &mut Vec<(String, f64, f64, f64)>) {
    println!("kernel\tbatch\trow\tspeedup\tunit");
    for bits in [2u8, 8, 13, 16] {
        let max = (1u64 << bits) as u32 - 1;
        let mut rng = StdRng::seed_from_u64(bits as u64);
        let mut pv = PackedIntVec::with_capacity(bits, NUM_DOCS);
        for _ in 0..NUM_DOCS {
            pv.push(rng.gen_range(0..=max));
        }
        let mut out = vec![0u32; BLOCK];
        let mut sink = 0u64;
        let block_ns = best_ns(5, || {
            let mut doc = 0;
            while doc < NUM_DOCS {
                let n = BLOCK.min(NUM_DOCS - doc);
                pv.unpack_block(doc, &mut out[..n]);
                sink = sink.wrapping_add(out[n - 1] as u64);
                doc += n;
            }
        });
        let get_ns = best_ns(5, || {
            for doc in 0..NUM_DOCS {
                sink = sink.wrapping_add(pv.get(doc) as u64);
            }
        });
        std::hint::black_box(sink);
        let to_mps = |ns: u64| NUM_DOCS as f64 / ns as f64 * 1e3; // M ids/s
        let (b, r) = (to_mps(block_ns), to_mps(get_ns));
        println!("unpack-{bits}bit\t{b:.0}\t{r:.0}\t{:.2}x\tM ids/s", b / r);
        results.push((format!("unpack_{bits}bit_m_ids_per_s"), b, r, b / r));
    }
}

fn bench_filter_scan(handle: &SegmentHandle, results: &mut Vec<(String, f64, f64, f64)>) {
    let pred = parse("SELECT COUNT(*) FROM t WHERE clicks < 25")
        .unwrap()
        .filter
        .unwrap();
    let mut count = 0u64;
    let mut run = |batch: bool| {
        best_ns(5, || {
            let mut stats = Default::default();
            let sel = evaluate_filter_planned(
                &handle.segment,
                Some(&pred),
                &mut stats,
                PlannerMode::Auto,
                batch,
            )
            .unwrap();
            count = sel.count();
        })
    };
    let (batch_ns, row_ns) = (run(true), run(false));
    assert!(count > 0);
    let per_doc = |ns: u64| ns as f64 / NUM_DOCS as f64;
    let (b, r) = (per_doc(batch_ns), per_doc(row_ns));
    println!("filter-scan\t{b:.2}\t{r:.2}\t{:.2}x\tns/doc", r / b);
    results.push(("filter_scan_ns_per_doc".into(), b, r, r / b));
    assert!(
        r / b >= 2.0,
        "acceptance: batched filter-scan must be ≥2× faster (got {:.2}x)",
        r / b
    );
}

fn bench_query(
    handle: &SegmentHandle,
    name: &str,
    pql: &str,
    floor: Option<f64>,
    results: &mut Vec<(String, f64, f64, f64)>,
) {
    let query = parse(pql).unwrap();
    let run = |batch: bool| {
        let opts = ExecOptions {
            config: Arc::new(EngineConfig {
                batch,
                ..EngineConfig::default()
            }),
            ..ExecOptions::default()
        };
        best_ns(5, || {
            std::hint::black_box(execute_on_segment_with(handle, &query, &opts).unwrap());
        })
    };
    let (batch_ns, row_ns) = (run(true), run(false));
    let rows_per_s = |ns: u64| NUM_DOCS as f64 / (ns as f64 / 1e9) / 1e6; // M rows/s
    let (b, r) = (rows_per_s(batch_ns), rows_per_s(row_ns));
    println!("{name}\t{b:.1}\t{r:.1}\t{:.2}x\tM rows/s", b / r);
    results.push((format!("{name}_m_rows_per_s"), b, r, b / r));
    if let Some(f) = floor {
        assert!(
            b / r >= f,
            "acceptance: batched {name} must be ≥{f}× faster (got {:.2}x)",
            b / r
        );
    }
}

fn write_json(results: &[(String, f64, f64, f64)]) {
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"num_docs\": {NUM_DOCS},\n"));
    body.push_str("  \"kernels\": {\n");
    for (i, (name, batch, row, speedup)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{name}\": {{\"batch\": {batch:.3}, \"row\": {row:.3}, \"speedup\": {speedup:.3}}}{comma}\n"
        ));
    }
    body.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, body).expect("write BENCH_kernels.json");
    println!("# wrote {path}");
}

fn main() {
    println!("# Kernel bench — batched dict-id execution vs row path");
    println!("# docs={NUM_DOCS} block={BLOCK}");
    let handle = build_segment();

    let mut results = Vec::new();
    bench_unpack(&mut results);
    bench_filter_scan(&handle, &mut results);
    // SUM is not metadata-answerable, so even unfiltered it runs the raw
    // aggregation kernel over every doc.
    bench_query(
        &handle,
        "sum-ungrouped",
        "SELECT SUM(clicks) FROM t",
        Some(2.0),
        &mut results,
    );
    bench_query(
        &handle,
        "group-by",
        "SELECT SUM(clicks), COUNT(*) FROM t GROUP BY country, device",
        None,
        &mut results,
    );
    bench_query(
        &handle,
        "filtered-group-by",
        "SELECT SUM(cost) FROM t WHERE clicks < 25 GROUP BY country",
        None,
        &mut results,
    );
    write_json(&results);
}
