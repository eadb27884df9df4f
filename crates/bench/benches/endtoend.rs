//! End-to-end single-query latency through the full stack (broker →
//! servers → per-segment plans) for each engine/index configuration, plus
//! one ablation: the star-tree leaf-size sweep.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pinot_bench::setup::{anomaly_setup, wvmp_setup};

fn bench_anomaly_engines(c: &mut Criterion) {
    let setup = anomaly_setup(40_000, 500).expect("setup");
    let mut group = c.benchmark_group("endtoend/anomaly");
    for (label, engine) in &setup.engines {
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(label), engine, |b, e| {
            b.iter(|| {
                i = (i + 1) % setup.queries.len();
                let resp = e.run(black_box(&setup.queries[i]));
                assert!(!resp.partial, "{:?}", resp.exceptions);
                resp.stats.num_docs_scanned
            })
        });
    }
    group.finish();
}

fn bench_wvmp_engines(c: &mut Criterion) {
    let setup = wvmp_setup(60_000, 500).expect("setup");
    let mut group = c.benchmark_group("endtoend/wvmp");
    for (label, engine) in &setup.engines {
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(label), engine, |b, e| {
            b.iter(|| {
                i = (i + 1) % setup.queries.len();
                let resp = e.run(black_box(&setup.queries[i]));
                assert!(!resp.partial, "{:?}", resp.exceptions);
                resp.stats.num_docs_scanned
            })
        });
    }
    group.finish();
}

/// Ablation: star-tree `max_leaf_records` sweep — smaller leaves mean a
/// deeper tree (more build work, less per-query scanning).
fn bench_startree_leaf_sweep(c: &mut Criterion) {
    use pinot_common::config::StarTreeConfig;
    use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
    use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
    use pinot_startree::{build_star_tree, DimFilter};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let schema = Schema::new(
        "t",
        vec![
            FieldSpec::dimension("a", DataType::Long),
            FieldSpec::dimension("b", DataType::String),
            FieldSpec::metric("m", DataType::Long),
        ],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let mut builder = SegmentBuilder::new(schema, BuilderConfig::new("s", "t")).unwrap();
    for _ in 0..60_000 {
        builder
            .add(Record::new(vec![
                Value::Long(rng.gen_range(0..500)),
                Value::String(format!("b{}", rng.gen_range(0..40))),
                Value::Long(rng.gen_range(0..100)),
            ]))
            .unwrap();
    }
    let seg = builder.build().unwrap();

    let mut group = c.benchmark_group("ablation/startree_leaf_size");
    for leaf in [10usize, 100, 1_000, 10_000] {
        let tree = build_star_tree(
            &seg,
            &StarTreeConfig {
                dimensions: vec!["a".into(), "b".into()],
                metrics: vec!["m".into()],
                max_leaf_records: leaf,
                skip_star_dimensions: vec![],
            },
        )
        .unwrap();
        let id = seg
            .column("a")
            .unwrap()
            .dictionary
            .id_of(&Value::Long(250))
            .unwrap();
        let filters = vec![DimFilter::In(vec![id]), DimFilter::Any];
        group.bench_with_input(BenchmarkId::from_parameter(leaf), &tree, |b, t| {
            b.iter(|| t.execute(black_box(&filters), &[]).preagg_docs_scanned)
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_anomaly_engines, bench_wvmp_engines, bench_startree_leaf_sweep
}
criterion_main!(benches);
