//! PQL abstract syntax tree.

use pinot_common::Value;
use std::fmt;

/// Aggregation functions supported by PQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunction {
    Count,
    Sum,
    Min,
    Max,
    Avg,
    /// Exact distinct count — requires raw data, never preaggregates.
    DistinctCount,
}

impl AggFunction {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunction::Count => "count",
            AggFunction::Sum => "sum",
            AggFunction::Min => "min",
            AggFunction::Max => "max",
            AggFunction::Avg => "avg",
            AggFunction::DistinctCount => "distinctcount",
        }
    }

    /// Whether a star-tree's SUM/MIN/MAX/COUNT preaggregates can answer it.
    pub fn star_tree_compatible(&self) -> bool {
        !matches!(self, AggFunction::DistinctCount)
    }
}

/// One aggregation expression, e.g. `SUM(clicks)` or `COUNT(*)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggregateExpr {
    pub function: AggFunction,
    /// `None` for `COUNT(*)`.
    pub column: Option<String>,
}

impl fmt::Display for AggregateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({})",
            self.function.name(),
            self.column.as_deref().unwrap_or("*")
        )
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Filter predicate tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    And(Vec<Predicate>),
    Or(Vec<Predicate>),
    Not(Box<Predicate>),
    Cmp {
        column: String,
        op: CmpOp,
        value: Value,
    },
    In {
        column: String,
        values: Vec<Value>,
        negated: bool,
    },
    Between {
        column: String,
        low: Value,
        high: Value,
    },
}

impl Predicate {
    /// All column names referenced anywhere in the predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
            Predicate::Cmp { column, .. }
            | Predicate::In { column, .. }
            | Predicate::Between { column, .. } => out.push(column),
        }
    }
}

/// What the query selects.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectList {
    /// `SELECT *`
    Star,
    /// `SELECT colA, colB`
    Projections(Vec<String>),
    /// `SELECT SUM(a), COUNT(*)`
    Aggregations(Vec<AggregateExpr>),
}

/// A parsed PQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub table: String,
    pub select: SelectList,
    pub filter: Option<Predicate>,
    pub group_by: Vec<String>,
    /// `TOP n` — groups returned per aggregation (group-by queries).
    pub top: Option<usize>,
    /// `LIMIT n` — rows returned (selection queries).
    pub limit: Option<usize>,
}

impl Query {
    pub fn is_aggregation(&self) -> bool {
        matches!(self.select, SelectList::Aggregations(_))
    }

    pub fn aggregations(&self) -> &[AggregateExpr] {
        match &self.select {
            SelectList::Aggregations(a) => a,
            _ => &[],
        }
    }

    /// Effective group cap: `TOP n`, defaulting to 10 as in Pinot.
    pub fn effective_top(&self) -> usize {
        self.top.unwrap_or(10)
    }

    /// Effective selection row cap: `LIMIT n`, defaulting to 10.
    pub fn effective_limit(&self) -> usize {
        self.limit.unwrap_or(10)
    }

    /// All columns the query touches (select + filter + group by).
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = Vec::new();
        match &self.select {
            SelectList::Star => {}
            SelectList::Projections(ps) => cols.extend(ps.iter().map(String::as_str)),
            SelectList::Aggregations(aggs) => {
                cols.extend(aggs.iter().filter_map(|a| a.column.as_deref()))
            }
        }
        if let Some(f) = &self.filter {
            cols.extend(f.columns());
        }
        cols.extend(self.group_by.iter().map(String::as_str));
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// A top-level PQL statement: a plain query, or one of the EXPLAIN forms
/// wrapping a query for the profiling plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(Query),
    /// `EXPLAIN PLAN FOR SELECT ...` — render the per-segment plan
    /// decision tree without executing.
    ExplainPlan(Query),
    /// `EXPLAIN ANALYZE SELECT ...` — execute with profiling and attach
    /// measured per-operator stats to the rendered plan.
    ExplainAnalyze(Query),
}

impl Statement {
    /// The query underneath, whichever form the statement takes.
    pub fn query(&self) -> &Query {
        match self {
            Statement::Select(q) | Statement::ExplainPlan(q) | Statement::ExplainAnalyze(q) => q,
        }
    }

    pub fn is_explain(&self) -> bool {
        !matches!(self, Statement::Select(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_columns_dedup() {
        let p = Predicate::And(vec![
            Predicate::Cmp {
                column: "a".into(),
                op: CmpOp::Eq,
                value: Value::Int(1),
            },
            Predicate::Or(vec![
                Predicate::Cmp {
                    column: "b".into(),
                    op: CmpOp::Gt,
                    value: Value::Int(2),
                },
                Predicate::Not(Box::new(Predicate::In {
                    column: "a".into(),
                    values: vec![],
                    negated: false,
                })),
            ]),
        ]);
        assert_eq!(p.columns(), vec!["a", "b"]);
    }

    #[test]
    fn query_referenced_columns() {
        let q = Query {
            table: "t".into(),
            select: SelectList::Aggregations(vec![AggregateExpr {
                function: AggFunction::Sum,
                column: Some("m".into()),
            }]),
            filter: Some(Predicate::Cmp {
                column: "d".into(),
                op: CmpOp::Eq,
                value: Value::Int(1),
            }),
            group_by: vec!["g".into()],
            top: None,
            limit: None,
        };
        assert_eq!(q.referenced_columns(), vec!["d", "g", "m"]);
        assert!(q.is_aggregation());
        assert_eq!(q.effective_top(), 10);
    }

    #[test]
    fn agg_display() {
        let a = AggregateExpr {
            function: AggFunction::Count,
            column: None,
        };
        assert_eq!(a.to_string(), "count(*)");
        let s = AggregateExpr {
            function: AggFunction::DistinctCount,
            column: Some("viewer".into()),
        };
        assert_eq!(s.to_string(), "distinctcount(viewer)");
        assert!(!AggFunction::DistinctCount.star_tree_compatible());
        assert!(AggFunction::Avg.star_tree_compatible());
    }
}
