//! Reference interpreter: the differential suites' oracle.
//!
//! [`evaluate`] answers a parsed PQL query over decoded rows, one row at
//! a time, with nothing the engine has: no segments, dictionaries,
//! indexes, planner, pruning, star-tree or partial merge. It shares only
//! the data model (`pinot-common`) and the AST (`pinot-pql`) with the
//! engine, so an engine bug cannot hide in code both sides run — which
//! [`crate::DruidEngine`], built on the same `execute_on_segment`, cannot
//! offer. The hand-written expectations in this file's tests pin the
//! interpreter itself.
//!
//! Semantics, each observable through the broker:
//! * a filter leaf holds on a row when **any** element of the cell
//!   satisfies it (multi-value columns; a single-value cell has one
//!   element), so `!=`/`NOT IN` are "no element equals";
//! * a probe constant is coerced to the column's type first; one that
//!   does not coerce (a string against a LONG column) satisfies nothing;
//! * numeric aggregates skip non-numeric cells, `DISTINCTCOUNT` counts
//!   canonical values, and aggregating *over* a multi-value column is
//!   [`PinotError::InvalidQuery`];
//! * a multi-value group column emits one key per element (cartesian
//!   across several); groups order by value descending, ties by key.

use pinot_common::query::{AggregationRow, GroupByRows, QueryResult};
use pinot_common::{DataType, FieldSpec, PinotError, Record, Result, Schema, Value};
use pinot_pql::{AggFunction, AggregateExpr, CmpOp, Predicate, Query, SelectList};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Evaluate `query` over `rows` (positionally aligned with `schema`).
pub fn evaluate(schema: &Schema, rows: &[Record], query: &Query) -> Result<QueryResult> {
    for name in query.referenced_columns() {
        field(schema, name)?;
    }
    for agg in query.aggregations() {
        if let Some(name) = &agg.column {
            if !field(schema, name)?.1.single_value {
                return Err(PinotError::InvalidQuery(format!(
                    "{agg}: {name} is a multi-value column"
                )));
            }
        }
    }

    let mut matching = Vec::new();
    for row in rows {
        if match &query.filter {
            Some(p) => holds(schema, row, p)?,
            None => true,
        } {
            matching.push(row);
        }
    }

    match &query.select {
        SelectList::Aggregations(aggs) if query.group_by.is_empty() => {
            let mut accs = vec![Acc::default(); aggs.len()];
            for row in &matching {
                accumulate(schema, row, aggs, &mut accs)?;
            }
            Ok(QueryResult::Aggregation(
                aggs.iter()
                    .zip(&accs)
                    .map(|(a, acc)| AggregationRow {
                        function: a.to_string(),
                        value: acc.finish(a.function),
                    })
                    .collect(),
            ))
        }
        SelectList::Aggregations(aggs) => group_by(schema, &matching, query, aggs),
        SelectList::Projections(_) | SelectList::Star => {
            let columns: Vec<String> = match &query.select {
                SelectList::Projections(cols) => cols.clone(),
                _ => schema.fields().iter().map(|f| f.name.clone()).collect(),
            };
            let rows = matching
                .iter()
                .take(query.effective_limit())
                .map(|row| columns.iter().map(|c| project(schema, row, c)).collect())
                .collect::<Result<_>>()?;
            Ok(QueryResult::Selection { columns, rows })
        }
    }
}

fn field<'a>(schema: &'a Schema, name: &str) -> Result<(usize, &'a FieldSpec)> {
    let idx = schema
        .column_index(name)
        .ok_or_else(|| PinotError::Schema(format!("unknown column {name:?}")))?;
    Ok((idx, &schema.fields()[idx]))
}

/// A value as the column's type stores it; `None` when it has no such form.
fn coerce(v: &Value, dt: DataType) -> Option<Value> {
    Some(match dt {
        DataType::Int => Value::Int(i32::try_from(v.as_i64()?).ok()?),
        DataType::Long => Value::Long(v.as_i64()?),
        DataType::Float => Value::Float(v.as_f64()? as f32),
        DataType::Double => Value::Double(v.as_f64()?),
        DataType::String => Value::String(v.as_str()?.to_string()),
        DataType::Boolean => match v {
            Value::Boolean(b) => Value::Boolean(*b),
            _ => return None,
        },
    })
}

/// The stored elements of one cell: nulls take the column default, arrays
/// flatten, everything is coerced to the column's type.
fn elements(schema: &Schema, row: &Record, column: &str) -> Result<Vec<Value>> {
    let (idx, spec) = field(schema, column)?;
    let cell = match row.get(idx) {
        Some(v) if !v.is_null() => v,
        _ => &spec.default_value,
    };
    cell.elements()
        .iter()
        .map(|e| {
            coerce(e, spec.data_type).ok_or_else(|| {
                PinotError::Schema(format!(
                    "column {column}: {e:?} is not {:?}",
                    spec.data_type
                ))
            })
        })
        .collect()
}

fn holds(schema: &Schema, row: &Record, pred: &Predicate) -> Result<bool> {
    Ok(match pred {
        Predicate::And(ps) => {
            for p in ps {
                if !holds(schema, row, p)? {
                    return Ok(false);
                }
            }
            true
        }
        Predicate::Or(ps) => {
            for p in ps {
                if holds(schema, row, p)? {
                    return Ok(true);
                }
            }
            false
        }
        Predicate::Not(inner) => !holds(schema, row, inner)?,
        Predicate::Cmp { column, op, value } => {
            let probe = coerce(value, field(schema, column)?.1.data_type);
            let any = |test: fn(Ordering) -> bool| -> Result<bool> {
                let Some(probe) = &probe else {
                    return Ok(false);
                };
                Ok(elements(schema, row, column)?
                    .iter()
                    .any(|e| test(e.total_cmp(probe))))
            };
            match op {
                CmpOp::Eq => any(Ordering::is_eq)?,
                CmpOp::Ne => !any(Ordering::is_eq)?,
                CmpOp::Lt => any(Ordering::is_lt)?,
                CmpOp::Le => any(Ordering::is_le)?,
                CmpOp::Gt => any(Ordering::is_gt)?,
                CmpOp::Ge => any(Ordering::is_ge)?,
            }
        }
        Predicate::In {
            column,
            values,
            negated,
        } => {
            let dt = field(schema, column)?.1.data_type;
            let probes: Vec<Value> = values.iter().filter_map(|v| coerce(v, dt)).collect();
            let hit = elements(schema, row, column)?
                .iter()
                .any(|e| probes.iter().any(|p| e.total_cmp(p).is_eq()));
            hit != *negated
        }
        Predicate::Between { column, low, high } => {
            let dt = field(schema, column)?.1.data_type;
            let (Some(low), Some(high)) = (coerce(low, dt), coerce(high, dt)) else {
                return Ok(false);
            };
            elements(schema, row, column)?
                .iter()
                .any(|e| e.total_cmp(&low).is_ge() && e.total_cmp(&high).is_le())
        }
    })
}

/// Group-key / distinct-set form of a stored value: integers widen to
/// LONG, floats to DOUBLE with `-0.0` and every NaN collapsed.
fn canonical(v: &Value) -> Value {
    match v {
        Value::Int(x) => Value::Long(*x as i64),
        Value::Float(_) | Value::Double(_) => {
            let x = v.as_f64().unwrap_or(f64::NAN);
            Value::Double(if x.is_nan() {
                f64::NAN
            } else if x == 0.0 {
                0.0
            } else {
                x
            })
        }
        other => other.clone(),
    }
}

/// Running state of one aggregation expression.
#[derive(Clone)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    distinct: BTreeSet<String>,
}

impl Default for Acc {
    fn default() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            distinct: BTreeSet::new(),
        }
    }
}

impl Acc {
    fn finish(&self, function: AggFunction) -> Value {
        let finite = |x: f64| {
            if x.is_finite() {
                Value::Double(x)
            } else {
                Value::Null
            }
        };
        match function {
            AggFunction::Count => Value::Long(self.count as i64),
            AggFunction::Sum => Value::Double(self.sum),
            AggFunction::Min => finite(self.min),
            AggFunction::Max => finite(self.max),
            AggFunction::Avg if self.count == 0 => Value::Null,
            AggFunction::Avg => Value::Double(self.sum / self.count as f64),
            AggFunction::DistinctCount => Value::Long(self.distinct.len() as i64),
        }
    }
}

fn accumulate(
    schema: &Schema,
    row: &Record,
    aggs: &[AggregateExpr],
    accs: &mut [Acc],
) -> Result<()> {
    for (agg, acc) in aggs.iter().zip(accs) {
        let Some(column) = &agg.column else {
            acc.count += 1; // COUNT(*)
            continue;
        };
        for e in elements(schema, row, column)? {
            if agg.function == AggFunction::DistinctCount {
                acc.distinct.insert(format!("{:?}", canonical(&e)));
            } else if let Some(x) = e.as_f64() {
                acc.count += 1;
                acc.sum += x;
                acc.min = acc.min.min(x);
                acc.max = acc.max.max(x);
            }
        }
    }
    Ok(())
}

fn group_by(
    schema: &Schema,
    matching: &[&Record],
    query: &Query,
    aggs: &[AggregateExpr],
) -> Result<QueryResult> {
    // Keyed by the key's debug rendering, which is also the tie-break
    // order of the top-n sort below.
    let mut groups: BTreeMap<String, (Vec<Value>, Vec<Acc>)> = BTreeMap::new();
    for row in matching {
        let mut keys: Vec<Vec<Value>> = vec![Vec::new()];
        for column in &query.group_by {
            let elems = elements(schema, row, column)?;
            keys = keys
                .iter()
                .flat_map(|k| {
                    elems.iter().map(move |e| {
                        let mut k = k.clone();
                        k.push(canonical(e));
                        k
                    })
                })
                .collect();
        }
        for key in keys {
            let (_, accs) = groups
                .entry(format!("{key:?}"))
                .or_insert_with(|| (key, vec![Acc::default(); aggs.len()]));
            accumulate(schema, row, aggs, accs)?;
        }
    }

    let rank = |v: &Value| match v {
        Value::Long(n) => *n as f64,
        Value::Double(d) => *d,
        _ => f64::NEG_INFINITY,
    };
    Ok(QueryResult::GroupBy(
        aggs.iter()
            .enumerate()
            .map(|(i, a)| {
                let mut rows: Vec<(Vec<Value>, Value)> = groups
                    .values()
                    .map(|(key, accs)| (key.clone(), accs[i].finish(a.function)))
                    .collect();
                // Stable: equal values keep the map's key order.
                rows.sort_by(|x, y| rank(&y.1).total_cmp(&rank(&x.1)));
                rows.truncate(query.effective_top());
                GroupByRows {
                    function: a.to_string(),
                    group_columns: query.group_by.clone(),
                    rows,
                }
            })
            .collect(),
    ))
}

/// One projected cell: a scalar, or the typed array of a multi-value
/// column (an empty array has no element type to carry and reads `Null`).
fn project(schema: &Schema, row: &Record, column: &str) -> Result<Value> {
    let spec = field(schema, column)?.1;
    let mut elems = elements(schema, row, column)?;
    if spec.single_value {
        return Ok(elems.pop().unwrap_or(Value::Null));
    }
    Ok(match spec.data_type {
        _ if elems.is_empty() => Value::Null,
        DataType::Int => Value::IntArray(
            elems
                .iter()
                .filter_map(|e| e.as_i64().map(|x| x as i32))
                .collect(),
        ),
        DataType::Long => Value::LongArray(elems.iter().filter_map(Value::as_i64).collect()),
        DataType::String => Value::StringArray(
            elems
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
        ),
        other => {
            return Err(PinotError::Schema(format!(
                "column {column}: no multi-value form of {other:?}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_pql::parse;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::multi_value_dimension("tags", DataType::String),
                FieldSpec::metric("m", DataType::Long),
            ],
        )
        .unwrap()
    }

    /// country | tags    | m
    /// us      | a, b    | 1
    /// de      | a       | 2
    /// us      | b, c    | 3
    /// de      | c       | 4
    /// fr      | a, c    | 4
    fn rows() -> Vec<Record> {
        let row = |c: &str, tags: &[&str], m: i64| {
            Record::new(vec![
                Value::from(c),
                Value::StringArray(tags.iter().map(|t| t.to_string()).collect()),
                Value::Long(m),
            ])
        };
        vec![
            row("us", &["a", "b"], 1),
            row("de", &["a"], 2),
            row("us", &["b", "c"], 3),
            row("de", &["c"], 4),
            row("fr", &["a", "c"], 4),
        ]
    }

    fn run(pql: &str) -> QueryResult {
        evaluate(&schema(), &rows(), &parse(pql).unwrap()).unwrap()
    }

    fn aggregation(rows: &[(&str, Value)]) -> QueryResult {
        QueryResult::Aggregation(
            rows.iter()
                .map(|(f, v)| AggregationRow {
                    function: f.to_string(),
                    value: v.clone(),
                })
                .collect(),
        )
    }

    fn table(function: &str, columns: &[&str], rows: &[(&[&str], Value)]) -> GroupByRows {
        GroupByRows {
            function: function.to_string(),
            group_columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: rows
                .iter()
                .map(|(k, v)| (k.iter().map(|s| Value::from(*s)).collect(), v.clone()))
                .collect(),
        }
    }

    #[test]
    fn answers_match_hand_written_expectations() {
        // A multi-value filter holds when any element does; its negation
        // when none does.
        assert_eq!(
            run("SELECT COUNT(*), SUM(m) FROM t WHERE tags = 'a'"),
            aggregation(&[("count(*)", Value::Long(3)), ("sum(m)", Value::Double(7.0))])
        );
        assert_eq!(
            run("SELECT COUNT(*) FROM t WHERE tags != 'a'"),
            aggregation(&[("count(*)", Value::Long(2))])
        );
        assert_eq!(
            run("SELECT COUNT(*) FROM t WHERE tags IN ('b', 'zz') AND m BETWEEN 2 AND 4"),
            aggregation(&[("count(*)", Value::Long(1))])
        );

        // A multi-value group column emits one key per element: 8 keys
        // from 5 rows, each carrying the row's metric once.
        assert_eq!(
            run("SELECT SUM(m), COUNT(*) FROM t GROUP BY tags"),
            QueryResult::GroupBy(vec![
                table(
                    "sum(m)",
                    &["tags"],
                    &[
                        (&["c"], Value::Double(11.0)),
                        (&["a"], Value::Double(7.0)),
                        (&["b"], Value::Double(4.0)),
                    ]
                ),
                table(
                    "count(*)",
                    &["tags"],
                    &[
                        (&["a"], Value::Long(3)),
                        (&["c"], Value::Long(3)),
                        (&["b"], Value::Long(2)),
                    ]
                ),
            ])
        );

        // DISTINCTCOUNT, ungrouped and grouped (string and numeric).
        assert_eq!(
            run("SELECT DISTINCTCOUNT(country), DISTINCTCOUNT(m) FROM t"),
            aggregation(&[
                ("distinctcount(country)", Value::Long(3)),
                ("distinctcount(m)", Value::Long(4)),
            ])
        );
        assert_eq!(
            run("SELECT DISTINCTCOUNT(country) FROM t GROUP BY tags"),
            QueryResult::GroupBy(vec![table(
                "distinctcount(country)",
                &["tags"],
                &[
                    (&["a"], Value::Long(3)),
                    (&["c"], Value::Long(3)),
                    (&["b"], Value::Long(1)),
                ]
            )])
        );

        // TOP n: value descending, equal values (de = fr = 4 on MAX) by
        // key ascending; the cut falls after the tie is ordered.
        assert_eq!(
            run("SELECT MAX(m) FROM t GROUP BY country TOP 2"),
            QueryResult::GroupBy(vec![table(
                "max(m)",
                &["country"],
                &[(&["de"], Value::Double(4.0)), (&["fr"], Value::Double(4.0))]
            )])
        );

        // LIMIT keeps the first rows in input order; multi-value cells
        // project as arrays.
        assert_eq!(
            run("SELECT country, tags FROM t WHERE m >= 2 LIMIT 2"),
            QueryResult::Selection {
                columns: vec!["country".into(), "tags".into()],
                rows: vec![
                    vec![Value::from("de"), Value::StringArray(vec!["a".into()])],
                    vec![
                        Value::from("us"),
                        Value::StringArray(vec!["b".into(), "c".into()])
                    ],
                ],
            }
        );

        // Nothing selected: no rows, no groups, identity aggregates.
        assert_eq!(
            run("SELECT * FROM t WHERE country = 'zz'"),
            QueryResult::Selection {
                columns: vec!["country".into(), "tags".into(), "m".into()],
                rows: vec![],
            }
        );
        assert_eq!(
            run("SELECT SUM(m) FROM t WHERE m > 100 GROUP BY country"),
            QueryResult::GroupBy(vec![table("sum(m)", &["country"], &[])])
        );
        assert_eq!(
            run("SELECT COUNT(*), SUM(m), AVG(m), MIN(m), MAX(m) FROM t WHERE m > 100"),
            aggregation(&[
                ("count(*)", Value::Long(0)),
                ("sum(m)", Value::Double(0.0)),
                ("avg(m)", Value::Null),
                ("min(m)", Value::Null),
                ("max(m)", Value::Null),
            ])
        );

        // A probe of the wrong type satisfies nothing; numeric aggregates
        // skip strings.
        assert_eq!(
            run("SELECT COUNT(*), COUNT(country), AVG(m) FROM t WHERE m < 'x' OR m = 4"),
            aggregation(&[
                ("count(*)", Value::Long(2)),
                ("count(country)", Value::Long(0)),
                ("avg(m)", Value::Double(4.0)),
            ])
        );
    }

    #[test]
    fn rejects_what_the_engine_rejects() {
        for pql in [
            "SELECT SUM(tags) FROM t",
            "SELECT DISTINCTCOUNT(tags) FROM t GROUP BY country",
        ] {
            let err = evaluate(&schema(), &rows(), &parse(pql).unwrap()).unwrap_err();
            assert!(
                matches!(&err, PinotError::InvalidQuery(m) if m.contains("tags")),
                "{pql}: {err}"
            );
        }
        let err = evaluate(&schema(), &rows(), &parse("SELECT nope FROM t").unwrap()).unwrap_err();
        assert!(matches!(err, PinotError::Schema(_)), "{err}");
    }
}
