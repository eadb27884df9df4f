//! Answer checking: responses of the cluster under test are compared with
//! `pinot-baseline`'s `DruidEngine` (its own segment build, its own
//! all-bitmap filter path, no star-tree, no broker) loaded with the same
//! rows, and hashed into a digest that must repeat for a seed.

use pinot_baseline::DruidEngine;
use pinot_common::query::{GroupByRows, QueryRequest, QueryResponse, QueryResult};
use pinot_common::{Record, Result, Schema, Value};
use std::collections::BTreeMap;

/// Float aggregates agree to 1e-9 relative (the engines add in different
/// orders); everything else agrees exactly.
fn values_agree(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// TOP-n tables compared as keyed sets. A group present on one side only
/// is tolerated when it ties with that side's last (cut) row: which of the
/// tied groups makes the cut is the engine's choice.
fn group_tables_agree(a: &GroupByRows, b: &GroupByRows) -> bool {
    if a.function != b.function
        || a.group_columns != b.group_columns
        || a.rows.len() != b.rows.len()
    {
        return false;
    }
    let keyed = |t: &GroupByRows| -> BTreeMap<String, Value> {
        t.rows
            .iter()
            .map(|(k, v)| (format!("{k:?}"), v.clone()))
            .collect()
    };
    let (ma, mb) = (keyed(a), keyed(b));
    let one_sided_ok =
        |mine: &BTreeMap<String, Value>, theirs: &BTreeMap<String, Value>, cut: Option<&Value>| {
            mine.iter().all(|(k, v)| match theirs.get(k) {
                Some(w) => values_agree(v, w),
                None => cut.is_some_and(|c| values_agree(v, c)),
            })
        };
    let cut = |t: &GroupByRows| t.rows.last().map(|(_, v)| v.clone());
    let (cut_a, cut_b) = (cut(a), cut(b));
    match (&cut_a, &cut_b) {
        (Some(x), Some(y)) if !values_agree(x, y) => return false,
        _ => {}
    }
    one_sided_ok(&ma, &mb, cut_a.as_ref()) && one_sided_ok(&mb, &ma, cut_b.as_ref())
}

pub fn results_agree(a: &QueryResult, b: &QueryResult) -> bool {
    match (a, b) {
        (QueryResult::Aggregation(x), QueryResult::Aggregation(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.function == q.function && values_agree(&p.value, &q.value))
        }
        (QueryResult::GroupBy(x), QueryResult::GroupBy(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| group_tables_agree(p, q))
        }
        (
            QueryResult::Selection {
                columns: ca,
                rows: ra,
            },
            QueryResult::Selection {
                columns: cb,
                rows: rb,
            },
        ) => ca == cb && ra == rb,
        _ => false,
    }
}

/// A response is usable when every server answered and nothing was
/// reported: partial, errored and refused queries all count as failed.
pub fn response_ok(resp: &QueryResponse) -> bool {
    !resp.partial && resp.exceptions.is_empty()
}

/// Load the oracle with `rows` and count the `answers` (query, response of
/// the system under test) it disagrees with. Each disagreement is
/// described on stderr.
pub fn count_mismatches(
    table: &str,
    schema: &Schema,
    rows: Vec<Record>,
    answers: &[(String, QueryResponse)],
) -> Result<usize> {
    let per_segment = rows.len() / 4 + 1;
    let mut oracle = DruidEngine::new(2);
    oracle.load_table(table, schema.clone(), rows, per_segment)?;
    let mut mismatches = 0;
    for (pql, got) in answers {
        let want = oracle.execute(&QueryRequest::new(pql.as_str()))?;
        if !response_ok(got) || !results_agree(&want.result, &got.result) {
            mismatches += 1;
            if mismatches <= 5 {
                eprintln!(
                    "MISMATCH {pql}\n  oracle: {:?}\n  system: {:?} partial={} exceptions={:?}",
                    want.result, got.result, got.partial, got.exceptions
                );
            }
        }
    }
    Ok(mismatches)
}

fn canonical_value(v: &Value, out: &mut String) {
    match v {
        // Twelve significant digits: stable under a different addition
        // order, far finer than any wrong answer.
        Value::Double(x) => out.push_str(&format!("{x:.11e}")),
        Value::Float(x) => out.push_str(&format!("{x:.11e}")),
        _ => out.push_str(&format!("{v:?}")),
    }
}

fn canonical_result(result: &QueryResult, out: &mut String) {
    match result {
        QueryResult::Aggregation(rows) => {
            for r in rows {
                out.push_str(&r.function);
                out.push('=');
                canonical_value(&r.value, out);
                out.push(';');
            }
        }
        QueryResult::GroupBy(tables) => {
            for t in tables {
                out.push_str(&t.function);
                out.push('{');
                // Sorted by key: the order of tied rows is not part of the answer.
                let mut rows: Vec<String> = t
                    .rows
                    .iter()
                    .map(|(k, v)| {
                        let mut s = format!("{k:?}=");
                        canonical_value(v, &mut s);
                        s
                    })
                    .collect();
                rows.sort();
                out.push_str(&rows.join(","));
                out.push('}');
            }
        }
        QueryResult::Selection { columns, rows } => {
            out.push_str(&format!("{columns:?}{rows:?}"));
        }
    }
}

/// FNV-1a over the canonical text of every result, as 16 hex digits.
pub fn result_digest<'a>(results: impl Iterator<Item = &'a QueryResult>) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut text = String::new();
    for r in results {
        text.clear();
        canonical_result(r, &mut text);
        text.push('\n');
        for b in text.bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::query::AggregationRow;

    fn table(rows: &[(&str, f64)]) -> QueryResult {
        QueryResult::GroupBy(vec![GroupByRows {
            function: "sum(value)".into(),
            group_columns: vec!["country".into()],
            rows: rows
                .iter()
                .map(|(k, v)| (vec![Value::from(*k)], Value::Double(*v)))
                .collect(),
        }])
    }

    #[test]
    fn floats_agree_to_a_relative_billionth() {
        let agg = |v: f64| {
            QueryResult::Aggregation(vec![AggregationRow {
                function: "sum(value)".into(),
                value: Value::Double(v),
            }])
        };
        assert!(results_agree(&agg(1e12), &agg(1e12 + 10.0)));
        assert!(!results_agree(&agg(1e12), &agg(1e12 + 1e5)));
        assert!(!results_agree(&agg(1.0), &table(&[("us", 1.0)])));
    }

    #[test]
    fn top_n_tolerates_ties_at_the_cut_only() {
        let a = table(&[("us", 9.0), ("de", 5.0), ("in", 3.0)]);
        // Same groups, other order among equals: same answer.
        assert!(results_agree(
            &a,
            &table(&[("de", 5.0), ("us", 9.0), ("in", 3.0)])
        ));
        // "jp" ties with "in" at the cut: either may make the list.
        assert!(results_agree(
            &a,
            &table(&[("us", 9.0), ("de", 5.0), ("jp", 3.0)])
        ));
        // A different group above the cut is a wrong answer.
        assert!(!results_agree(
            &a,
            &table(&[("us", 9.0), ("fr", 5.0), ("in", 3.0)])
        ));
        // So is a different value, or a different cut.
        assert!(!results_agree(
            &a,
            &table(&[("us", 9.5), ("de", 5.0), ("in", 3.0)])
        ));
        assert!(!results_agree(
            &a,
            &table(&[("us", 9.0), ("de", 5.0), ("jp", 2.0)])
        ));
        assert!(!results_agree(&a, &table(&[("us", 9.0), ("de", 5.0)])));
    }

    #[test]
    fn digest_ignores_tie_order_and_sees_values() {
        let a = table(&[("us", 9.0), ("de", 5.0)]);
        let b = table(&[("de", 5.0), ("us", 9.0)]);
        let c = table(&[("de", 5.0), ("us", 9.1)]);
        assert_eq!(
            result_digest([&a].into_iter()),
            result_digest([&b].into_iter())
        );
        assert_ne!(
            result_digest([&a].into_iter()),
            result_digest([&c].into_iter())
        );
    }
}
