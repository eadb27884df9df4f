//! Every arm of the group-by kernel against the reference interpreter
//! (`pinot_baseline::reference`) on one segment: the dense slot table,
//! the hash-map fallback, the boxed id-slice key past 64 bits,
//! multi-value key expansion, and the star-tree group path.
//!
//! The DOUBLE group column `x` holds `0.0` and `-0.0` and three NaN bit
//! patterns. The dictionary keeps them apart (it orders by `total_cmp`),
//! while a group key collapses each family into one canonical value, so
//! two or more dictionary ids land on the same group and their states
//! must merge rather than overwrite each other — in the block kernels and
//! in the star-tree, whose groups are keyed by dictionary id too.

use pinot_baseline::reference;
use pinot_common::config::StarTreeConfig;
use pinot_common::query::QueryResult;
use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
use pinot_exec::finalize;
use pinot_exec::segment_exec::{execute_on_segment, SegmentHandle};
use pinot_pql::parse;
use pinot_segment::bitpack::bits_needed;
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_startree::build_star_tree;
use std::sync::Arc;

/// Rows: enough that five 4,100-value columns overflow a packed word.
const ROWS: i64 = 4200;
/// Distinct values of each wide column `g0..g4` (13 bits each).
const WIDE_CARD: i64 = 4100;
/// The decode block, below which the slot table is always allowed.
const BLOCK: u32 = 1024;

fn x_values() -> [f64; 6] {
    [
        0.0,
        -0.0,
        1.5,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
    ]
}

fn schema() -> Schema {
    let mut fields = vec![
        FieldSpec::dimension("x", DataType::Double),
        FieldSpec::dimension("c", DataType::String),
        FieldSpec::dimension("k", DataType::Long),
        FieldSpec::multi_value_dimension("tags", DataType::String),
    ];
    for g in ["g0", "g1", "g2", "g3", "g4"] {
        fields.push(FieldSpec::dimension(g, DataType::Long));
    }
    fields.push(FieldSpec::metric("m", DataType::Long));
    Schema::new("t", fields).unwrap()
}

fn rows() -> Vec<Record> {
    let xs = x_values();
    let tag_sets: [&[&str]; 4] = [&["a"], &["a", "b"], &["c", "b", "a"], &["b"]];
    (0..ROWS)
        .map(|i| {
            let mut v = vec![
                Value::Double(xs[(i % 6) as usize]),
                Value::from(["us", "de", "fr", "jp"][(i % 4) as usize]),
                Value::Long(i % 8),
                Value::StringArray(
                    tag_sets[(i % 7 % 4) as usize]
                        .iter()
                        .map(|t| t.to_string())
                        .collect(),
                ),
            ];
            // Odd multipliers coprime to 4100 permute 0..4100.
            v.extend(
                [1i64, 3, 7, 9, 11]
                    .iter()
                    .map(|mult| Value::Long((i * mult) % WIDE_CARD)),
            );
            v.push(Value::Long(i % 13 + 1));
            Record::new(v)
        })
        .collect()
}

fn segment(rows: &[Record]) -> SegmentHandle {
    let cfg = BuilderConfig::new("s", "t").with_inverted_columns(&["k"]);
    let mut b = SegmentBuilder::new(schema(), cfg).unwrap();
    for r in rows {
        b.add(r.clone()).unwrap();
    }
    SegmentHandle::new(Arc::new(b.build().unwrap()))
}

/// Summed id widths of the group columns: the composite key's bits.
fn key_bits(handle: &SegmentHandle, cols: &[&str]) -> u32 {
    cols.iter()
        .map(|c| {
            let card = handle.segment.column(c).unwrap().dictionary.cardinality();
            u32::from(bits_needed(card as u32 - 1))
        })
        .sum()
}

/// Results compare through `Debug`, where every NaN prints alike.
fn check(handle: &SegmentHandle, rows: &[Record], pql: &str) {
    check_plan(handle, rows, pql, false);
}

/// [`check`], also asserting whether the star-tree answered.
fn check_plan(handle: &SegmentHandle, rows: &[Record], pql: &str, star_tree: bool) {
    let q = parse(pql).unwrap();
    let partial = execute_on_segment(handle, &q).unwrap();
    assert_eq!(
        partial.stats.num_segments_star_tree, star_tree as u64,
        "{pql}"
    );
    let got = finalize(partial, &q).unwrap();
    let want = reference::evaluate(&schema(), rows, &q).unwrap();
    assert!(matches!(want, QueryResult::GroupBy(_)), "{pql}");
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{pql}");
}

#[test]
fn the_dictionary_keeps_what_the_group_key_merges() {
    let handle = segment(&rows());
    // 0.0, -0.0, 1.5 and three NaN patterns: six ids, three groups.
    assert_eq!(
        handle.segment.column("x").unwrap().dictionary.cardinality(),
        6
    );
}

/// Key spaces no larger than the selection (or one block): the flat
/// slot table.
#[test]
fn dense_table_arm_matches_reference() {
    let rows = rows();
    let handle = segment(&rows);
    assert!(1 << key_bits(&handle, &["x"]) <= BLOCK);
    assert!(1 << key_bits(&handle, &["x", "c", "k"]) <= BLOCK);
    for pql in [
        "SELECT SUM(m), COUNT(*) FROM t GROUP BY x TOP 100",
        "SELECT SUM(m), COUNT(*), MIN(m), MAX(m), AVG(m) FROM t GROUP BY x, c TOP 100",
        "SELECT SUM(m), DISTINCTCOUNT(g0) FROM t WHERE k = 3 GROUP BY x, c, k TOP 100",
        "SELECT COUNT(*), SUM(x) FROM t WHERE x BETWEEN -1.0 AND 2.0 GROUP BY c TOP 100",
        "SELECT COUNT(*) FROM t WHERE x != 1.5 GROUP BY x, c TOP 100",
    ] {
        check(&handle, &rows, pql);
    }
}

/// Key spaces larger than the selection: the hash map.
#[test]
fn hash_fallback_arm_matches_reference() {
    let rows = rows();
    let handle = segment(&rows);
    let bits = key_bits(&handle, &["x", "g0"]);
    assert!(bits <= 64 && 1u64 << bits > ROWS as u64);
    assert!(1 << key_bits(&handle, &["x", "k", "c", "g0"]) > ROWS as u32);
    for pql in [
        "SELECT SUM(m), COUNT(*) FROM t GROUP BY x, g0 TOP 10000",
        "SELECT SUM(m), COUNT(*), MAX(m) FROM t WHERE k = 3 GROUP BY x, k, c, g0 TOP 10000",
        "SELECT COUNT(*), DISTINCTCOUNT(c) FROM t WHERE g1 < 500 GROUP BY g0, x TOP 10000",
    ] {
        check(&handle, &rows, pql);
    }
}

/// Composite keys past 64 bits key on a boxed id slice.
#[test]
fn wide_key_arm_matches_reference() {
    let rows = rows();
    let handle = segment(&rows);
    let cols = ["g0", "g1", "g2", "g3", "g4", "x"];
    assert!(key_bits(&handle, &cols) > 64);
    for pql in [
        "SELECT SUM(m), COUNT(*) FROM t GROUP BY g0, g1, g2, g3, g4, x TOP 10000",
        "SELECT AVG(m), MIN(m) FROM t WHERE k IN (1, 6) GROUP BY x, g0, g1, g2, g3, g4 TOP 10000",
    ] {
        check(&handle, &rows, pql);
    }
}

/// A multi-value group column fans each doc out to one key per element.
#[test]
fn multi_value_arm_matches_reference() {
    let rows = rows();
    let handle = segment(&rows);
    for pql in [
        "SELECT SUM(m), COUNT(*) FROM t GROUP BY tags, x TOP 100",
        "SELECT COUNT(*), MAX(m) FROM t WHERE k < 4 GROUP BY x, tags, c TOP 100",
        "SELECT SUM(m) FROM t GROUP BY tags, g0 TOP 10000",
    ] {
        check(&handle, &rows, pql);
    }
}

/// The star-tree keys its groups by dictionary id, so a tree grouped on
/// `x` holds six groups that the canonical key folds into three.
#[test]
fn star_tree_arm_matches_reference() {
    let rows = rows();
    let handle = segment(&rows);
    let tree = build_star_tree(
        &handle.segment,
        &StarTreeConfig {
            dimensions: vec!["x".into(), "c".into(), "k".into()],
            metrics: vec!["m".into()],
            max_leaf_records: 4,
            skip_star_dimensions: vec![],
        },
    )
    .unwrap();
    let handle = handle.with_star_tree(Arc::new(tree));
    for pql in [
        "SELECT SUM(m), COUNT(*) FROM t GROUP BY x TOP 100",
        "SELECT SUM(m), COUNT(*), MIN(m), MAX(m), AVG(m) FROM t GROUP BY x, c TOP 100",
        "SELECT SUM(m), COUNT(*) FROM t WHERE k = 3 GROUP BY c, x TOP 100",
    ] {
        check_plan(&handle, &rows, pql, true);
    }
}
