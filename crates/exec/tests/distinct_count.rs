//! Exact DISTINCTCOUNT over every scalar kind, checked against the
//! reference interpreter (`pinot_baseline::reference`) across several
//! segments and a consuming segment's cut.
//!
//! The values stress the canonical form: LONG's extremes and negatives,
//! DOUBLE's two zeros and several NaN payloads (each collapses to one
//! value), negative floats (whose bits sort after the positives) and
//! strings. The per-segment partials merge in two orders, which must
//! give one identical intermediate payload.

use pinot_baseline::reference;
use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
use pinot_exec::segment_exec::{execute_on_segment, IntermediateResult, SegmentHandle};
use pinot_exec::{finalize, merge_intermediate};
use pinot_pql::parse;
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_segment::MutableSegment;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(
        "t",
        vec![
            FieldSpec::dimension("g", DataType::Long),
            FieldSpec::dimension("s", DataType::String),
            FieldSpec::metric("i", DataType::Int),
            FieldSpec::metric("l", DataType::Long),
            FieldSpec::metric("f", DataType::Float),
            FieldSpec::metric("d", DataType::Double),
        ],
    )
    .unwrap()
}

const ROWS: usize = 240;

fn rows() -> Vec<Record> {
    let longs = [i64::MIN, i64::MAX, -1, 0, 1, -7_000, 7_000, i64::MIN + 1];
    let floats = [0.0f32, -0.0, f32::NAN, -1.5, 2.25, -3.0e30];
    let doubles = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        -2.5,
        3.75,
        -1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    (0..ROWS)
        .map(|k| {
            Record::new(vec![
                Value::Long((k % 4) as i64),
                Value::String(format!("s{}", k % 17)),
                Value::Int((k % 13) as i32 - 6),
                Value::Long(longs[k % longs.len()] + (k % 3) as i64 * i64::from(k % 2 == 0)),
                Value::Float(floats[k % floats.len()]),
                Value::Double(doubles[k % doubles.len()] - (k % 5) as f64 * 0.5),
            ])
        })
        .collect()
}

/// Three built segments (one sorted, one with inverted indexes) and the
/// cut of a consuming segment holding the last rows.
fn handles(rows: &[Record]) -> Vec<SegmentHandle> {
    let configs = [
        BuilderConfig::new("s0", "t"),
        BuilderConfig::new("s1", "t").with_inverted_columns(&["g", "s"]),
        BuilderConfig::new("s2", "t").with_sort_columns(&["l"]),
    ];
    let mut out: Vec<SegmentHandle> = configs
        .into_iter()
        .zip([0..80, 80..150, 150..200])
        .map(|(cfg, range)| {
            let mut b = SegmentBuilder::new(schema(), cfg).unwrap();
            for r in &rows[range] {
                b.add(r.clone()).unwrap();
            }
            SegmentHandle::new(Arc::new(b.build().unwrap()))
        })
        .collect();
    let consuming = MutableSegment::new(schema(), "t__0__0", "t", 0, 0);
    for (offset, r) in rows[200..].iter().enumerate() {
        consuming.append(r.clone(), offset as u64).unwrap();
    }
    out.push(SegmentHandle::new(consuming.cut().unwrap()));
    out
}

fn merged<'a>(parts: impl Iterator<Item = &'a IntermediateResult>) -> IntermediateResult {
    let mut parts = parts.cloned();
    let mut acc = parts.next().unwrap();
    for p in parts {
        merge_intermediate(&mut acc, p).unwrap();
    }
    acc
}

const QUERIES: &[&str] = &[
    "SELECT DISTINCTCOUNT(i), DISTINCTCOUNT(l), DISTINCTCOUNT(f), DISTINCTCOUNT(d), \
     DISTINCTCOUNT(s) FROM t",
    "SELECT DISTINCTCOUNT(l), DISTINCTCOUNT(d) FROM t WHERE g != 1",
    "SELECT DISTINCTCOUNT(i), DISTINCTCOUNT(l), DISTINCTCOUNT(f), DISTINCTCOUNT(d), \
     DISTINCTCOUNT(s) FROM t GROUP BY g TOP 10",
    "SELECT DISTINCTCOUNT(d), DISTINCTCOUNT(l), COUNT(*) FROM t WHERE i < 3 GROUP BY s TOP 100",
];

#[test]
fn distinct_count_matches_reference_across_segments() {
    let rows = rows();
    let handles = handles(&rows);
    for pql in QUERIES {
        let q = parse(pql).unwrap();
        let partials: Vec<IntermediateResult> = handles
            .iter()
            .map(|h| execute_on_segment(h, &q).unwrap())
            .collect();
        let forward = merged(partials.iter());
        let backward = merged(partials.iter().rev());
        assert_eq!(forward.payload, backward.payload, "{pql}");
        let got = finalize(forward, &q).unwrap();
        assert_eq!(
            got,
            reference::evaluate(&schema(), &rows, &q).unwrap(),
            "{pql}"
        );
    }
}

#[test]
fn distinct_count_over_a_consuming_cut_matches_reference() {
    let rows = rows();
    let cut = handles(&rows).pop().unwrap();
    for pql in QUERIES {
        let q = parse(pql).unwrap();
        let got = finalize(execute_on_segment(&cut, &q).unwrap(), &q).unwrap();
        let want = reference::evaluate(&schema(), &rows[200..], &q).unwrap();
        assert_eq!(got, want, "{pql}");
    }
}
