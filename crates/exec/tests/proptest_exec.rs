//! End-to-end per-segment execution properties: results must be identical
//! regardless of which indexes the segment has (no index / inverted /
//! sorted / star-tree), and must match the reference interpreter
//! (`pinot_baseline::reference`) evaluating the same query over the raw
//! rows — including the shapes only the block kernels' input-selected
//! arms serve: multi-value group and projection columns, grouped
//! DISTINCTCOUNT, and composite group keys wider than 64 bits.

use pinot_baseline::reference;
use pinot_common::config::StarTreeConfig;
use pinot_common::query::QueryResult;
use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
use pinot_exec::finalize;
use pinot_exec::segment_exec::{execute_on_segment, SegmentHandle};
use pinot_pql::parse;
use pinot_segment::bitpack::bits_needed;
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_segment::ImmutableSegment;
use pinot_startree::build_star_tree;
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(
        "t",
        vec![
            FieldSpec::dimension("k", DataType::Long),
            FieldSpec::dimension("c", DataType::String),
            FieldSpec::multi_value_dimension("tags", DataType::String),
            FieldSpec::metric("m", DataType::Long),
        ],
    )
    .unwrap()
}

fn rows_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        (
            0i64..8,
            prop::sample::select(vec!["us", "de", "fr", "jp"]),
            prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "d"]), 1..4),
            -50i64..50,
        )
            .prop_map(|(k, c, tags, m)| {
                Record::new(vec![
                    Value::Long(k),
                    Value::from(c),
                    Value::StringArray(tags.iter().map(|t| t.to_string()).collect()),
                    Value::Long(m),
                ])
            }),
        1..150,
    )
}

fn build(rows: &[Record], variant: u8) -> SegmentHandle {
    let mut cfg = BuilderConfig::new("s", "t");
    match variant {
        1 => cfg = cfg.with_inverted_columns(&["k", "c", "tags"]),
        2 => cfg = cfg.with_sort_columns(&["k"]).with_inverted_columns(&["c"]),
        _ => {}
    }
    let mut b = SegmentBuilder::new(schema(), cfg).unwrap();
    for r in rows {
        b.add(r.clone()).unwrap();
    }
    let seg: Arc<ImmutableSegment> = Arc::new(b.build().unwrap());
    let mut handle = SegmentHandle::new(Arc::clone(&seg));
    if variant == 3 {
        let tree = build_star_tree(
            &seg,
            &StarTreeConfig {
                dimensions: vec!["k".into(), "c".into()],
                metrics: vec!["m".into()],
                max_leaf_records: 2,
                skip_star_dimensions: vec![],
            },
        )
        .unwrap();
        handle = handle.with_star_tree(Arc::new(tree));
    }
    handle
}

/// Filters/groups on (k, c) with aggregations on m are the shapes all
/// four variants including the star-tree can serve; the `tags` and
/// DISTINCTCOUNT shapes always run the raw block kernels.
fn query_strategy() -> impl Strategy<Value = String> {
    let tag = || prop::sample::select(vec!["a", "b", "c", "d", "zz"]);
    prop_oneof![
        Just("SELECT COUNT(*), SUM(m), MIN(m), MAX(m), AVG(m) FROM t".to_string()),
        (0i64..8).prop_map(|k| format!("SELECT SUM(m), COUNT(*) FROM t WHERE k = {k}")),
        (0i64..8, 0i64..8)
            .prop_map(|(a, b)| format!("SELECT SUM(m) FROM t WHERE k = {a} OR k = {b}")),
        (0i64..8)
            .prop_map(|k| format!("SELECT SUM(m), COUNT(*) FROM t WHERE k >= {k} AND c = 'us'")),
        Just("SELECT SUM(m) FROM t WHERE c IN ('us', 'de') GROUP BY k TOP 100".to_string()),
        Just("SELECT COUNT(*) FROM t GROUP BY c TOP 100".to_string()),
        (0i64..8).prop_map(|k| format!(
            "SELECT COUNT(*), SUM(m) FROM t WHERE k BETWEEN 2 AND {k} GROUP BY c TOP 100"
        )),
        // Multi-value group column, alone and beside a single-value one.
        Just("SELECT COUNT(*), SUM(m) FROM t GROUP BY tags TOP 100".to_string()),
        tag().prop_map(|t| format!(
            "SELECT MAX(m), AVG(m) FROM t WHERE tags = '{t}' GROUP BY tags, c TOP 100"
        )),
        (tag(), 0i64..8).prop_map(|(t, k)| format!(
            "SELECT COUNT(*) FROM t WHERE tags != '{t}' AND k < {k} GROUP BY c, tags TOP 3"
        )),
        // Grouped DISTINCTCOUNT over string and numeric columns.
        Just(
            "SELECT DISTINCTCOUNT(c), DISTINCTCOUNT(m), COUNT(*) FROM t GROUP BY k TOP 100"
                .to_string()
        ),
        tag().prop_map(|t| format!(
            "SELECT DISTINCTCOUNT(k) FROM t WHERE tags IN ('{t}', 'a') GROUP BY tags TOP 100"
        )),
        (0i64..8).prop_map(|k| format!("SELECT DISTINCTCOUNT(c), SUM(m) FROM t WHERE k != {k}")),
        // Multi-value projection.
        tag().prop_map(|t| format!("SELECT tags, k, m FROM t WHERE tags = '{t}' LIMIT 1000")),
        Just("SELECT * FROM t LIMIT 1000".to_string()),
    ]
}

/// Sorted segments reorder rows physically, so selection rows compare as
/// a multiset; aggregations and group tables have one defined order.
fn normalize(result: QueryResult) -> QueryResult {
    match result {
        QueryResult::Selection { columns, mut rows } => {
            rows.sort_by_key(|r| format!("{r:?}"));
            QueryResult::Selection { columns, rows }
        }
        other => other,
    }
}

fn run(handle: &SegmentHandle, pql: &str) -> QueryResult {
    let q = parse(pql).unwrap();
    normalize(finalize(execute_on_segment(handle, &q).unwrap(), &q).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_variants_agree_with_reference(rows in rows_strategy(), pql in query_strategy()) {
        let expected =
            normalize(reference::evaluate(&schema(), &rows, &parse(&pql).unwrap()).unwrap());
        for variant in 0..4u8 {
            let got = run(&build(&rows, variant), &pql);
            prop_assert_eq!(&got, &expected, "variant {} pql {}", variant, &pql);
        }
    }
}

/// Five group columns of 4,100 distinct values each need 13 bits apiece:
/// 65 bits, one more than a packed word holds, so the group-by kernel
/// keys on an id slice; four of them (52 bits) still pack into a u64.
/// Both must equal the reference verbatim on the same segment.
#[test]
fn composite_key_wider_than_64_bits_matches_reference() {
    const CARD: i64 = 4100;
    const ROWS: i64 = 4200;
    let names = ["g0", "g1", "g2", "g3", "g4"];
    let mut fields: Vec<FieldSpec> = names
        .iter()
        .map(|n| FieldSpec::dimension(*n, DataType::Long))
        .collect();
    fields.push(FieldSpec::metric("m", DataType::Long));
    let schema = Schema::new("w", fields).unwrap();

    // Odd multipliers coprime to 4100 permute 0..4100, so every column
    // has exactly CARD distinct values and rows 4100.. repeat rows 0..100.
    let rows: Vec<Record> = (0..ROWS)
        .map(|i| {
            let mut values: Vec<Value> = [1i64, 3, 7, 9, 11]
                .iter()
                .map(|mult| Value::Long((i * mult) % CARD))
                .collect();
            values.push(Value::Long(i));
            Record::new(values)
        })
        .collect();
    let mut b = SegmentBuilder::new(schema.clone(), BuilderConfig::new("s", "w")).unwrap();
    for r in &rows {
        b.add(r.clone()).unwrap();
    }
    let handle = SegmentHandle::new(Arc::new(b.build().unwrap()));

    let key_bits = |cols: &[&str]| -> u32 {
        cols.iter()
            .map(|c| {
                let card = handle.segment.column(c).unwrap().dictionary.cardinality();
                u32::from(bits_needed(card as u32 - 1))
            })
            .sum()
    };
    assert_eq!(key_bits(&names), 65);
    assert_eq!(key_bits(&names[..4]), 52);

    for group_by in [names.join(", "), names[..4].join(", ")] {
        let pql = format!("SELECT COUNT(*), SUM(m) FROM w GROUP BY {group_by} TOP 5000");
        let q = parse(&pql).unwrap();
        let got = finalize(execute_on_segment(&handle, &q).unwrap(), &q).unwrap();
        let want = reference::evaluate(&schema, &rows, &q).unwrap();
        assert_eq!(got.group_by().unwrap()[0].rows.len(), CARD as usize);
        assert_eq!(got, want, "{pql}");
    }
}
