//! Recursive-descent PQL parser.

use crate::ast::{AggFunction, AggregateExpr, CmpOp, Predicate, Query, SelectList, Statement};
use crate::lexer::{tokenize, Token};
use pinot_common::{PinotError, Result, Value};

/// Parse a PQL query string into an AST.
pub fn parse(text: &str) -> Result<Query> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("unexpected trailing tokens"));
    }
    Ok(q)
}

/// Parse a top-level statement: a plain query, `EXPLAIN PLAN FOR <query>`,
/// or `EXPLAIN ANALYZE <query>`.
pub fn parse_statement(text: &str) -> Result<Statement> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = if p.eat_kw("EXPLAIN") {
        if p.eat_kw("ANALYZE") {
            Statement::ExplainAnalyze(p.query()?)
        } else {
            p.expect_kw("PLAN")?;
            p.expect_kw("FOR")?;
            Statement::ExplainPlan(p.query()?)
        }
    } else {
        Statement::Select(p.query()?)
    };
    if p.pos != p.tokens.len() {
        return Err(p.err("unexpected trailing tokens"));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn err(&self, msg: &str) -> PinotError {
        PinotError::InvalidQuery(format!(
            "parse error near token {} ({:?}): {msg}",
            self.pos,
            self.tokens.get(self.pos)
        ))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Kw(k)) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {t:?}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::Str(s)) => Ok(s), // quoted identifiers ('day')
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("SELECT")?;
        let select = self.select_list()?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.predicate()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.ident()?);
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        let mut top = None;
        if self.eat_kw("TOP") {
            top = Some(self.positive_int()? as usize);
        }
        let mut limit = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.positive_int()? as usize);
        }

        let q = Query {
            table,
            select,
            filter,
            group_by,
            top,
            limit,
        };
        validate(&q)?;
        Ok(q)
    }

    fn positive_int(&mut self) -> Result<i64> {
        match self.bump() {
            Some(Token::Int(n)) if n >= 0 => Ok(n),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a non-negative integer"))
            }
        }
    }

    fn select_list(&mut self) -> Result<SelectList> {
        if matches!(self.peek(), Some(Token::Star)) {
            self.pos += 1;
            return Ok(SelectList::Star);
        }
        // Look ahead: `ident (` means an aggregation call.
        let mut aggs = Vec::new();
        let mut projections = Vec::new();
        loop {
            match self.peek() {
                Some(Token::Ident(name))
                    if self.tokens.get(self.pos + 1) == Some(&Token::LParen) =>
                {
                    let func = agg_function(name).ok_or_else(|| {
                        self.err(&format!("unknown aggregation function {name:?}"))
                    })?;
                    self.pos += 2; // ident + lparen
                    let column = if matches!(self.peek(), Some(Token::Star)) {
                        self.pos += 1;
                        None
                    } else {
                        Some(self.ident()?)
                    };
                    self.expect(&Token::RParen)?;
                    if column.is_none() && func != AggFunction::Count {
                        return Err(self.err("only COUNT supports (*)"));
                    }
                    aggs.push(AggregateExpr {
                        function: func,
                        column,
                    });
                }
                _ => {
                    projections.push(self.ident()?);
                }
            }
            if !matches!(self.peek(), Some(Token::Comma)) {
                break;
            }
            self.pos += 1;
        }
        match (aggs.is_empty(), projections.is_empty()) {
            (false, true) => Ok(SelectList::Aggregations(aggs)),
            (true, false) => Ok(SelectList::Projections(projections)),
            (false, false) => {
                // `SELECT campaignId, sum(click) ... GROUP BY campaignId`:
                // PQL treats projected group-by columns as implicit; we keep
                // only the aggregations (the group keys come back anyway).
                Ok(SelectList::Aggregations(aggs))
            }
            (true, true) => Err(self.err("empty select list")),
        }
    }

    fn predicate(&mut self) -> Result<Predicate> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Predicate> {
        let mut parts = vec![self.and_expr()?];
        while self.eat_kw("OR") {
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Predicate::Or(parts)
        })
    }

    fn and_expr(&mut self) -> Result<Predicate> {
        let mut parts = vec![self.not_expr()?];
        while self.eat_kw("AND") {
            parts.push(self.not_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Predicate::And(parts)
        })
    }

    fn not_expr(&mut self) -> Result<Predicate> {
        if self.eat_kw("NOT") {
            return Ok(Predicate::Not(Box::new(self.not_expr()?)));
        }
        if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
            let p = self.predicate()?;
            self.expect(&Token::RParen)?;
            return Ok(p);
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Predicate> {
        let column = self.ident()?;
        match self.bump() {
            Some(Token::Eq) => Ok(Predicate::Cmp {
                column,
                op: CmpOp::Eq,
                value: self.literal()?,
            }),
            Some(Token::Ne) => Ok(Predicate::Cmp {
                column,
                op: CmpOp::Ne,
                value: self.literal()?,
            }),
            Some(Token::Lt) => Ok(Predicate::Cmp {
                column,
                op: CmpOp::Lt,
                value: self.literal()?,
            }),
            Some(Token::Le) => Ok(Predicate::Cmp {
                column,
                op: CmpOp::Le,
                value: self.literal()?,
            }),
            Some(Token::Gt) => Ok(Predicate::Cmp {
                column,
                op: CmpOp::Gt,
                value: self.literal()?,
            }),
            Some(Token::Ge) => Ok(Predicate::Cmp {
                column,
                op: CmpOp::Ge,
                value: self.literal()?,
            }),
            Some(Token::Kw("IN")) => self.in_list(column, false),
            Some(Token::Kw("NOT")) => {
                self.expect_kw("IN")?;
                self.in_list(column, true)
            }
            Some(Token::Kw("BETWEEN")) => {
                let low = self.literal()?;
                self.expect_kw("AND")?;
                let high = self.literal()?;
                Ok(Predicate::Between { column, low, high })
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a comparison operator"))
            }
        }
    }

    fn in_list(&mut self, column: String, negated: bool) -> Result<Predicate> {
        self.expect(&Token::LParen)?;
        let mut values = vec![self.literal()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.pos += 1;
            values.push(self.literal()?);
        }
        self.expect(&Token::RParen)?;
        Ok(Predicate::In {
            column,
            values,
            negated,
        })
    }

    fn literal(&mut self) -> Result<Value> {
        match self.bump() {
            Some(Token::Int(n)) => Ok(Value::Long(n)),
            Some(Token::Float(f)) => Ok(Value::Double(f)),
            Some(Token::Str(s)) => Ok(Value::String(s)),
            Some(Token::Kw("TRUE")) => Ok(Value::Boolean(true)),
            Some(Token::Kw("FALSE")) => Ok(Value::Boolean(false)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a literal"))
            }
        }
    }
}

fn agg_function(name: &str) -> Option<AggFunction> {
    match name.to_ascii_lowercase().as_str() {
        "count" => Some(AggFunction::Count),
        "sum" => Some(AggFunction::Sum),
        "min" => Some(AggFunction::Min),
        "max" => Some(AggFunction::Max),
        "avg" => Some(AggFunction::Avg),
        "distinctcount" => Some(AggFunction::DistinctCount),
        _ => None,
    }
}

/// Semantic checks beyond the grammar.
fn validate(q: &Query) -> Result<()> {
    if !q.group_by.is_empty() && !q.is_aggregation() {
        return Err(PinotError::InvalidQuery(
            "GROUP BY requires aggregation functions in the select list".into(),
        ));
    }
    if q.top.is_some() && q.group_by.is_empty() {
        return Err(PinotError::InvalidQuery(
            "TOP requires a GROUP BY clause".into(),
        ));
    }
    if q.is_aggregation() && q.aggregations().is_empty() {
        return Err(PinotError::InvalidQuery("no aggregations".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // Figure 7's query.
        let q = parse(
            "SELECT campaignId, sum(click) FROM TableA \
             WHERE accountId = 121011 AND 'day' >= 15949 GROUP BY campaignId",
        )
        .unwrap();
        assert_eq!(q.table, "TableA");
        assert_eq!(q.group_by, vec!["campaignId"]);
        let aggs = q.aggregations();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].function, AggFunction::Sum);
        assert_eq!(aggs[0].column.as_deref(), Some("click"));
        match q.filter.unwrap() {
            Predicate::And(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(
                    &parts[1],
                    Predicate::Cmp { column, op: CmpOp::Ge, value: Value::Long(15949) }
                        if column == "day"
                ));
            }
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure9_and_10() {
        let q = parse("SELECT sum(Impressions) FROM T WHERE Browser = 'firefox'").unwrap();
        assert!(q.filter.is_some());
        let q = parse(
            "SELECT sum(Impressions) FROM T WHERE Browser = 'firefox' OR Browser = 'safari' GROUP BY Country",
        )
        .unwrap();
        assert!(matches!(q.filter, Some(Predicate::Or(_))));
        assert_eq!(q.group_by, vec!["Country"]);
    }

    #[test]
    fn count_star_and_multiple_aggs() {
        let q = parse("SELECT COUNT(*), MAX(lat), avg(lon) FROM geo").unwrap();
        let aggs = q.aggregations();
        assert_eq!(aggs.len(), 3);
        assert_eq!(aggs[0].column, None);
        assert_eq!(aggs[1].function, AggFunction::Max);
        assert_eq!(aggs[2].function, AggFunction::Avg);
    }

    #[test]
    fn selection_with_limit() {
        let q = parse("SELECT a, b FROM t WHERE c IN (1, 2, 3) LIMIT 50").unwrap();
        assert_eq!(
            q.select,
            SelectList::Projections(vec!["a".into(), "b".into()])
        );
        assert_eq!(q.limit, Some(50));
        assert!(matches!(
            q.filter,
            Some(Predicate::In { negated: false, .. })
        ));
    }

    #[test]
    fn select_star() {
        let q = parse("SELECT * FROM t LIMIT 5").unwrap();
        assert_eq!(q.select, SelectList::Star);
    }

    #[test]
    fn not_in_and_between_and_not() {
        let q = parse(
            "SELECT COUNT(*) FROM t WHERE a NOT IN ('x','y') AND b BETWEEN 1 AND 10 AND NOT c = 5",
        )
        .unwrap();
        match q.filter.unwrap() {
            Predicate::And(parts) => {
                assert!(matches!(&parts[0], Predicate::In { negated: true, .. }));
                assert!(matches!(
                    &parts[1],
                    Predicate::Between {
                        low: Value::Long(1),
                        high: Value::Long(10),
                        ..
                    }
                ));
                assert!(matches!(&parts[2], Predicate::Not(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_or_binds_looser_than_and() {
        let q = parse("SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match q.filter.unwrap() {
            Predicate::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(&parts[1], Predicate::And(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parenthesized_predicates() {
        let q = parse("SELECT COUNT(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        match q.filter.unwrap() {
            Predicate::And(parts) => assert!(matches!(&parts[0], Predicate::Or(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn top_n() {
        let q = parse("SELECT SUM(m) FROM t GROUP BY g TOP 100").unwrap();
        assert_eq!(q.top, Some(100));
        assert_eq!(q.effective_top(), 100);
    }

    #[test]
    fn rejects_invalid_queries() {
        // No joins or nested queries, per the paper.
        assert!(parse("SELECT a FROM t JOIN u").is_err());
        assert!(parse("SELECT a FROM (SELECT b FROM t)").is_err());
        // Grammar violations.
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a FROM").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t GROUP BY").is_err());
    }

    #[test]
    fn unknown_function_is_error() {
        assert!(parse("SELECT median(a) FROM t").is_err());
        for f in ["sum", "distinctcount", "avg", "min", "max"] {
            let err = parse(&format!("SELECT {f}(*) FROM t")).unwrap_err();
            assert!(
                err.to_string().contains("only COUNT supports (*)"),
                "{f}: {err}"
            );
        }
    }

    #[test]
    fn group_by_without_aggregation_is_error() {
        assert!(parse("SELECT a FROM t GROUP BY a").is_err());
        assert!(parse("SELECT a FROM t TOP 5").is_err());
    }

    #[test]
    fn mixed_projection_and_agg_keeps_aggs() {
        let q = parse("SELECT g, SUM(m) FROM t GROUP BY g").unwrap();
        assert!(q.is_aggregation());
        assert_eq!(q.aggregations().len(), 1);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT COUNT(*) FROM t LIMIT 5 garbage").is_err());
    }

    #[test]
    fn explain_statements() {
        let s = parse_statement("EXPLAIN PLAN FOR SELECT COUNT(*) FROM t WHERE a = 1").unwrap();
        assert!(matches!(&s, Statement::ExplainPlan(q) if q.table == "t"));
        assert!(s.is_explain());

        let s = parse_statement("explain analyze SELECT SUM(m) FROM t GROUP BY g TOP 5").unwrap();
        assert!(matches!(&s, Statement::ExplainAnalyze(q) if q.top == Some(5)));

        let s = parse_statement("SELECT a FROM t").unwrap();
        assert!(matches!(&s, Statement::Select(_)));
        assert!(!s.is_explain());
        assert_eq!(s.query().table, "t");
    }

    #[test]
    fn malformed_explain_rejected() {
        // Missing PLAN FOR / wrong order / no inner query.
        assert!(parse_statement("EXPLAIN SELECT a FROM t").is_err());
        assert!(parse_statement("EXPLAIN PLAN SELECT a FROM t").is_err());
        assert!(parse_statement("EXPLAIN FOR SELECT a FROM t").is_err());
        assert!(parse_statement("EXPLAIN PLAN FOR").is_err());
        assert!(parse_statement("EXPLAIN ANALYZE").is_err());
        // The inner query still gets full validation.
        assert!(parse_statement("EXPLAIN ANALYZE SELECT a FROM t TOP 5").is_err());
        // EXPLAIN is not valid inside `parse` (plain-query entry point).
        assert!(parse("EXPLAIN PLAN FOR SELECT a FROM t").is_err());
    }
}
