//! Merging partial results and shaping the final response.
//!
//! Servers merge per-segment results; brokers merge per-server results
//! (§3.3.3 steps 6–7). Both use [`merge_intermediate`]. The broker then
//! calls [`finalize`] to apply top-n ordering and produce the client shape.

use crate::aggstate::AggState;
use crate::key::GroupKey;
use crate::segment_exec::{IntermediateResult, ResultPayload};
use pinot_common::profile::ProfileNode;
use pinot_common::query::{AggregationRow, GroupByRows, QueryResult};
use pinot_common::{PinotError, Result};
use pinot_pql::Query;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Fold `other` into `acc`. Both must come from the same query.
pub fn merge_intermediate(acc: &mut IntermediateResult, other: IntermediateResult) -> Result<()> {
    acc.stats.merge(&other.stats);
    merge_profiles(&mut acc.profile, other.profile);
    merge_payload(&mut acc.payload, other.payload)
}

/// Fold one group's states into `groups`: a new key inserts, a key
/// already present merges state by state.
pub(crate) fn merge_group(
    groups: &mut HashMap<GroupKey, Vec<AggState>>,
    key: GroupKey,
    states: Vec<AggState>,
) -> Result<()> {
    match groups.entry(key) {
        Entry::Occupied(mut e) => {
            for (x, y) in e.get_mut().iter_mut().zip(states) {
                x.merge(y)?;
            }
        }
        Entry::Vacant(e) => {
            e.insert(states);
        }
    }
    Ok(())
}

/// The payload half of [`merge_intermediate`]: commutative and
/// associative (pinned by the PR 6 fold-algebra proptests), which is
/// what lets morsel partials merge in any fixed order and stay
/// byte-identical. Selection rows concatenate in call order, so callers
/// supply partials in ascending doc order.
pub(crate) fn merge_payload(acc: &mut ResultPayload, other: ResultPayload) -> Result<()> {
    match (acc, other) {
        (ResultPayload::Aggregation(a), ResultPayload::Aggregation(b)) => {
            if a.len() != b.len() {
                return Err(PinotError::Internal(
                    "aggregation arity mismatch in merge".into(),
                ));
            }
            for (x, y) in a.iter_mut().zip(b) {
                x.merge(y)?;
            }
            Ok(())
        }
        (ResultPayload::GroupBy(a), ResultPayload::GroupBy(b)) => {
            for (key, states) in b {
                merge_group(a, key, states)?;
            }
            Ok(())
        }
        (
            ResultPayload::Selection { columns, rows },
            ResultPayload::Selection {
                columns: oc,
                rows: or,
            },
        ) => {
            if columns.is_empty() {
                *columns = oc;
            }
            rows.extend(or);
            Ok(())
        }
        _ => Err(PinotError::Internal(
            "mismatched result payloads in merge".into(),
        )),
    }
}

/// Accumulate profile trees as siblings under a transparent `collect`
/// container. Servers and brokers later replace the container with their
/// own aggregation node ([`collected_profiles`] flattens it back out).
fn merge_profiles(acc: &mut Option<ProfileNode>, other: Option<ProfileNode>) {
    let Some(other) = other else { return };
    let Some(node) = acc else {
        *acc = Some(other);
        return;
    };
    if node.operator != "collect" {
        let first = std::mem::replace(node, ProfileNode::new("collect"));
        // One allocation up front instead of a doubling chain as the
        // per-segment trees accumulate.
        node.children.reserve(16);
        node.children.push(first);
    }
    if other.operator == "collect" {
        node.children.extend(other.children);
    } else {
        node.children.push(other);
    }
}

/// Flatten a merged profile back into the accumulated per-unit trees:
/// a `collect` container yields its children, a single tree yields itself.
pub fn collected_profiles(profile: Option<ProfileNode>) -> Vec<ProfileNode> {
    match profile {
        None => Vec::new(),
        Some(node) if node.operator == "collect" => node.children,
        Some(node) => vec![node],
    }
}

/// Shape the merged intermediate result into the client-facing form,
/// applying TOP/LIMIT.
pub fn finalize(result: IntermediateResult, query: &Query) -> Result<QueryResult> {
    match result.payload {
        ResultPayload::Aggregation(states) => {
            let aggs = query.aggregations();
            if aggs.len() != states.len() {
                return Err(PinotError::Internal(
                    "aggregation arity mismatch in finalize".into(),
                ));
            }
            Ok(QueryResult::Aggregation(
                aggs.iter()
                    .zip(states)
                    .map(|(a, s)| AggregationRow {
                        function: a.to_string(),
                        value: s.finalize(),
                    })
                    .collect(),
            ))
        }
        ResultPayload::GroupBy(groups) => {
            let aggs = query.aggregations();
            let top = query.effective_top();
            let mut tables = Vec::with_capacity(aggs.len());
            for (i, a) in aggs.iter().enumerate() {
                // Order groups by this aggregation's value, descending; tie
                // break on the key for deterministic output.
                let mut rows: Vec<(Vec<pinot_common::Value>, f64, pinot_common::Value)> = groups
                    .iter()
                    .map(|(key, states)| {
                        let val = states[i].finalize();
                        (
                            key.iter().map(|g| g.to_value()).collect(),
                            states[i].finalize_f64(),
                            val,
                        )
                    })
                    .collect();
                rows.sort_by(|x, y| {
                    y.1.total_cmp(&x.1)
                        .then_with(|| format!("{:?}", x.0).cmp(&format!("{:?}", y.0)))
                });
                rows.truncate(top);
                tables.push(GroupByRows {
                    function: a.to_string(),
                    group_columns: query.group_by.clone(),
                    rows: rows.into_iter().map(|(k, _, v)| (k, v)).collect(),
                });
            }
            Ok(QueryResult::GroupBy(tables))
        }
        ResultPayload::Selection { columns, mut rows } => {
            rows.truncate(query.effective_limit());
            Ok(QueryResult::Selection { columns, rows })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggstate::AggState;
    use crate::key::key_of;
    use pinot_common::query::ExecutionStats;
    use pinot_common::Value;
    use pinot_pql::parse;
    use std::collections::HashMap;

    fn agg_result(states: Vec<AggState>) -> IntermediateResult {
        IntermediateResult {
            payload: ResultPayload::Aggregation(states),
            stats: ExecutionStats::default(),
            profile: None,
        }
    }

    #[test]
    fn merge_aggregations() {
        let mut a = agg_result(vec![AggState::Count(3), AggState::Sum(1.5)]);
        let b = agg_result(vec![AggState::Count(4), AggState::Sum(2.5)]);
        merge_intermediate(&mut a, b).unwrap();
        match &a.payload {
            ResultPayload::Aggregation(s) => {
                assert_eq!(s[0], AggState::Count(7));
                assert_eq!(s[1], AggState::Sum(4.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_mismatched_payloads_fails() {
        let mut a = agg_result(vec![AggState::Count(1)]);
        let b = IntermediateResult {
            payload: ResultPayload::GroupBy(HashMap::new()),
            stats: ExecutionStats::default(),
            profile: None,
        };
        assert!(merge_intermediate(&mut a, b).is_err());
        let mut c = agg_result(vec![AggState::Count(1)]);
        let d = agg_result(vec![AggState::Count(1), AggState::Count(2)]);
        assert!(merge_intermediate(&mut c, d).is_err());
    }

    #[test]
    fn merge_group_by_unions_keys() {
        let mut g1 = HashMap::new();
        g1.insert(key_of(&[Value::from("a")]), vec![AggState::Sum(1.0)]);
        g1.insert(key_of(&[Value::from("b")]), vec![AggState::Sum(2.0)]);
        let mut g2 = HashMap::new();
        g2.insert(key_of(&[Value::from("b")]), vec![AggState::Sum(3.0)]);
        g2.insert(key_of(&[Value::from("c")]), vec![AggState::Sum(4.0)]);
        let mut a = IntermediateResult {
            payload: ResultPayload::GroupBy(g1),
            stats: ExecutionStats::default(),
            profile: None,
        };
        merge_intermediate(
            &mut a,
            IntermediateResult {
                payload: ResultPayload::GroupBy(g2),
                stats: ExecutionStats::default(),
                profile: None,
            },
        )
        .unwrap();
        match &a.payload {
            ResultPayload::GroupBy(g) => {
                assert_eq!(g.len(), 3);
                assert_eq!(g[&key_of(&[Value::from("b")])][0], AggState::Sum(5.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn finalize_orders_and_trims_groups() {
        let q = parse("SELECT SUM(m) FROM t GROUP BY g TOP 2").unwrap();
        let mut groups = HashMap::new();
        for (k, v) in [("a", 5.0), ("b", 9.0), ("c", 1.0), ("d", 7.0)] {
            groups.insert(key_of(&[Value::from(k)]), vec![AggState::Sum(v)]);
        }
        let r = finalize(
            IntermediateResult {
                payload: ResultPayload::GroupBy(groups),
                stats: ExecutionStats::default(),
                profile: None,
            },
            &q,
        )
        .unwrap();
        match r {
            QueryResult::GroupBy(tables) => {
                assert_eq!(tables.len(), 1);
                let rows = &tables[0].rows;
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].0, vec![Value::from("b")]);
                assert_eq!(rows[0].1, Value::Double(9.0));
                assert_eq!(rows[1].0, vec![Value::from("d")]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn finalize_selection_truncates() {
        let q = parse("SELECT a FROM t LIMIT 2").unwrap();
        let r = finalize(
            IntermediateResult {
                payload: ResultPayload::Selection {
                    columns: vec!["a".into()],
                    rows: vec![
                        vec![Value::Long(1)],
                        vec![Value::Long(2)],
                        vec![Value::Long(3)],
                    ],
                },
                stats: ExecutionStats::default(),
                profile: None,
            },
            &q,
        )
        .unwrap();
        match r {
            QueryResult::Selection { rows, .. } => assert_eq!(rows.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
