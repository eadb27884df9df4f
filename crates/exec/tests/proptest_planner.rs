//! Cost-based planner properties (ISSUE 9): the selectivity estimator
//! always answers a probability, And/Or estimates are monotone against
//! their children, and every access-path strategy — including the bulk
//! IndexAnd/IndexOr operators — selects exactly the docs the scan-path
//! oracle selects on arbitrary segments.

use pinot_common::query::ExecutionStats;
use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
use pinot_exec::planner::normalize_predicate;
use pinot_exec::selection::DocSelection;
use pinot_exec::{estimate_leaf, estimate_predicate, evaluate_filter_planned, PlannerMode};
use pinot_pql::{parse, Predicate};
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_segment::ImmutableSegment;
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Row {
    k: i64,
    c: &'static str,
    m: i64,
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            0i64..8,
            prop::sample::select(vec!["us", "de", "fr", "jp"]),
            -50i64..50,
        )
            .prop_map(|(k, c, m)| Row { k, c, m }),
        1..120,
    )
}

/// Segment variants: 0 = no indexes, 1 = inverted on k and c (the
/// IndexAnd/IndexOr sweet spot), 2 = sorted on k + inverted on c.
fn build(rows: &[Row], variant: u8) -> Arc<ImmutableSegment> {
    let schema = Schema::new(
        "t",
        vec![
            FieldSpec::dimension("k", DataType::Long),
            FieldSpec::dimension("c", DataType::String),
            FieldSpec::metric("m", DataType::Long),
        ],
    )
    .unwrap();
    let mut cfg = BuilderConfig::new("s", "t");
    match variant {
        1 => cfg = cfg.with_inverted_columns(&["k", "c"]),
        2 => cfg = cfg.with_sort_columns(&["k"]).with_inverted_columns(&["c"]),
        _ => {}
    }
    let mut b = SegmentBuilder::new(schema, cfg).unwrap();
    for r in rows {
        b.add(Record::new(vec![
            Value::Long(r.k),
            Value::from(r.c),
            Value::Long(r.m),
        ]))
        .unwrap();
    }
    Arc::new(b.build().unwrap())
}

fn leaf_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..9).prop_map(|v| format!("k = {v}")),
        (0i64..9).prop_map(|v| format!("k > {v}")),
        (0i64..9).prop_map(|v| format!("k != {v}")),
        (0i64..5, 4i64..9).prop_map(|(a, b)| format!("k BETWEEN {a} AND {b}")),
        prop::collection::vec((0i64..9).prop_map(|v| v.to_string()), 1..4)
            .prop_map(|vs| format!("k IN ({})", vs.join(", "))),
        prop::sample::select(vec!["us", "de", "fr", "jp", "zz"]).prop_map(|c| format!("c = '{c}'")),
        prop::collection::vec(prop::sample::select(vec!["'us'", "'fr'", "'zz'"]), 1..3)
            .prop_map(|vs| format!("c IN ({})", vs.join(", "))),
        (-60i64..60).prop_map(|v| format!("m < {v}")),
        (-60i64..0, 0i64..60).prop_map(|(a, b)| format!("m BETWEEN {a} AND {b}")),
    ]
}

/// A filter with enough structure to hit IndexAnd (multiple indexed
/// conjuncts), IndexOr (all-inverted disjunctions), NOT, and scan mixes.
fn filter_strategy() -> impl Strategy<Value = String> {
    let clause = prop_oneof![
        leaf_strategy(),
        prop::collection::vec(leaf_strategy(), 2..4).prop_map(|ls| ls.join(" OR ")),
    ];
    prop::collection::vec(
        (clause, any::<bool>()).prop_map(|(c, neg)| {
            if neg {
                format!("NOT ({c})")
            } else {
                format!("({c})")
            }
        }),
        1..4,
    )
    .prop_map(|cs| cs.join(" AND "))
}

fn filter_of(f: &str) -> Predicate {
    parse(&format!("SELECT COUNT(*) FROM t WHERE {f}"))
        .unwrap()
        .filter
        .unwrap()
}

fn docs(sel: &DocSelection) -> Vec<u32> {
    let mut v = Vec::new();
    sel.for_each(|d| v.push(d));
    v
}

fn assert_leaf_probabilities(
    segment: &ImmutableSegment,
    pred: &Predicate,
) -> Result<(), TestCaseError> {
    match pred {
        Predicate::And(ps) | Predicate::Or(ps) => {
            for p in ps {
                assert_leaf_probabilities(segment, p)?;
            }
        }
        Predicate::Not(inner) => assert_leaf_probabilities(segment, inner)?,
        leaf => {
            let e = estimate_leaf(segment, leaf);
            prop_assert!(
                (0.0..=1.0).contains(&e.selectivity),
                "leaf {leaf:?} estimated {}",
                e.selectivity
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every estimate — per leaf and for the whole tree — is in [0, 1],
    /// on every index layout.
    #[test]
    fn estimates_are_probabilities(rows in rows_strategy(), f in filter_strategy()) {
        for variant in 0..3u8 {
            let seg = build(&rows, variant);
            let norm = normalize_predicate(&filter_of(&f));
            let s = estimate_predicate(&seg, &norm);
            prop_assert!((0.0..=1.0).contains(&s), "tree estimated {s}");
            assert_leaf_probabilities(&seg, &norm)?;
        }
    }

    /// And never estimates above its smallest child; Or never below its
    /// largest.
    #[test]
    fn and_or_estimates_are_monotone(
        rows in rows_strategy(),
        fa in filter_strategy(),
        fb in filter_strategy(),
    ) {
        for variant in 0..3u8 {
            let seg = build(&rows, variant);
            let pa = normalize_predicate(&filter_of(&fa));
            let pb = normalize_predicate(&filter_of(&fb));
            let a = estimate_predicate(&seg, &pa);
            let b = estimate_predicate(&seg, &pb);
            let and = estimate_predicate(&seg, &Predicate::And(vec![pa.clone(), pb.clone()]));
            let or = estimate_predicate(&seg, &Predicate::Or(vec![pa, pb]));
            prop_assert!(and <= a.min(b) + 1e-9, "And {and} above min({a}, {b})");
            prop_assert!(or >= a.max(b) - 1e-9, "Or {or} below max({a}, {b})");
        }
    }

    /// Every access-path strategy (auto with its IndexAnd/IndexOr bulk
    /// operators, and each forced path) selects exactly the docs the
    /// forced-scan oracle selects.
    #[test]
    fn strategies_match_scan_oracle(rows in rows_strategy(), f in filter_strategy()) {
        let pred = filter_of(&f);
        for variant in 0..3u8 {
            let seg = build(&rows, variant);
            let mut s = ExecutionStats::default();
            let oracle = docs(
                &evaluate_filter_planned(&seg, Some(&pred), &mut s, PlannerMode::Scan).unwrap(),
            );
            for mode in [PlannerMode::Auto, PlannerMode::Inverted, PlannerMode::Sorted] {
                let mut s = ExecutionStats::default();
                let sel = evaluate_filter_planned(&seg, Some(&pred), &mut s, mode).unwrap();
                prop_assert_eq!(
                    docs(&sel),
                    oracle.clone(),
                    "variant={} mode={:?} filter={}",
                    variant,
                    mode,
                    f
                );
            }
        }
    }
}
