//! EXPLAIN PLAN: per-segment plan decisions without executing.
//!
//! [`explain_segment`] answers, for one segment, every decision the
//! execution path would make — the prune verdict with its level
//! attribution, the [`PlanKind`] chosen, and the order `eval_and` would
//! run the filter conjuncts in (with the index class that decided each
//! position). The logic mirrors `execute_on_segment_with` exactly but
//! calls only the planner, so an `EXPLAIN PLAN FOR` statement costs no
//! scan work. `EXPLAIN ANALYZE` instead executes with profiling and renders
//! the measured [`pinot_common::profile::ProfileNode`] tree next to the
//! plan.

use crate::batch::ExecOptions;
use crate::planner::{self, ConjunctPlan, PlanKind};
use crate::prune::{Prunable, PruneEvaluator, PruneLevel};
use crate::segment_exec::{validate_columns, SegmentHandle};
use pinot_common::json::Json;
use pinot_common::Result;
use pinot_pql::{Query, SelectList};

/// The plan decision tree for one segment, as EXPLAIN renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentExplain {
    pub segment: String,
    pub total_docs: u64,
    /// Prune verdict: `unknown`, `match_all` or `cannot_match:<level>`.
    pub prune: String,
    /// Chosen plan; `None` when the prune verdict skips the segment.
    pub plan: Option<PlanKind>,
    /// Filter conjuncts in execution order, each with its chosen access
    /// path (`sorted` | `inverted` | `scan` | `subtree`) and estimated
    /// selectivity. Empty for pruned segments and filterless queries.
    pub predicate_order: Vec<ConjunctPlan>,
    /// Scan operator a raw plan would run: `aggregate` | `group_by` |
    /// `select`.
    pub operator: &'static str,
    /// For consuming segments: the row count of the consistent cut the
    /// plan was made against. `None` for sealed segments. Rendered as
    /// `plan=realtime cut_rows=<n>` so EXPLAIN distinguishes the
    /// realtime path.
    pub realtime_cut_rows: Option<u64>,
}

/// Explain one segment without executing. Mirrors the execute path:
/// prune verdict first (a `MatchAll` strips the filter, which can
/// upgrade the plan to metadata-only), then plan selection.
pub fn explain_segment(
    handle: &SegmentHandle,
    query: &Query,
    time_column: Option<&str>,
    opts: &ExecOptions,
) -> Result<SegmentExplain> {
    let segment = &handle.segment;
    validate_columns(segment, query)?;

    let evaluator = PruneEvaluator::new(time_column.map(String::from));
    let outcome = evaluator.evaluate(query.filter.as_ref(), &**segment);
    let prune = match outcome.prunable {
        Prunable::CannotMatch => format!(
            "cannot_match:{}",
            outcome.level.unwrap_or(PruneLevel::ZoneMap).as_str()
        ),
        Prunable::MatchAll => "match_all".to_string(),
        Prunable::Unknown => "unknown".to_string(),
    };

    let operator = match &query.select {
        SelectList::Aggregations(_) if query.group_by.is_empty() => "aggregate",
        SelectList::Aggregations(_) => "group_by",
        _ => "select",
    };

    if prune.starts_with("cannot_match") {
        return Ok(SegmentExplain {
            segment: segment.name().to_string(),
            total_docs: segment.num_docs() as u64,
            prune,
            plan: None,
            predicate_order: Vec::new(),
            operator,
            realtime_cut_rows: None,
        });
    }

    // A MatchAll verdict strips the filter before planning, exactly as
    // the server does — COUNT/MIN/MAX-only queries then upgrade to the
    // metadata-only plan.
    let stripped;
    let effective: &Query = if prune == "match_all" && query.filter.is_some() {
        stripped = Query {
            filter: None,
            ..query.clone()
        };
        &stripped
    } else {
        query
    };

    let plan = planner::plan_segment(handle, effective);
    let predicate_order = if plan == PlanKind::Raw {
        planner::conjunct_order(segment, effective.filter.as_ref(), opts.config.planner)
    } else {
        Vec::new()
    };
    Ok(SegmentExplain {
        segment: segment.name().to_string(),
        total_docs: segment.num_docs() as u64,
        prune,
        plan: Some(plan),
        predicate_order,
        operator,
        realtime_cut_rows: None,
    })
}

impl SegmentExplain {
    /// Indented text rendering, one segment per block — the unit the
    /// `EXPLAIN PLAN FOR` golden test pins.
    pub fn render_text(&self) -> String {
        let mut line = format!(
            "segment {} [docs={} prune={}",
            self.segment, self.total_docs, self.prune
        );
        match self.plan {
            Some(plan) => match self.realtime_cut_rows {
                Some(rows) => line.push_str(&format!(
                    " plan=realtime({plan}) cut_rows={rows} operator={}",
                    self.operator
                )),
                None => line.push_str(&format!(" plan={plan} operator={}", self.operator)),
            },
            None => match self.realtime_cut_rows {
                Some(rows) => {
                    line.push_str(&format!(" plan=realtime(skipped) cut_rows={rows}"));
                }
                None => line.push_str(" plan=skipped"),
            },
        }
        line.push_str("]\n");
        if !self.predicate_order.is_empty() {
            let order: Vec<String> = self
                .predicate_order
                .iter()
                .map(|c| format!("{} ({}, est={:.4})", c.predicate, c.path, c.est_selectivity))
                .collect();
            line.push_str(&format!("  filter order: {}\n", order.join(", ")));
        }
        line
    }

    /// JSON with stable field names (mirrors the text rendering).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("segment", self.segment.as_str().into()),
            ("total_docs", self.total_docs.into()),
            ("prune", self.prune.as_str().into()),
            (
                "plan",
                match self.plan {
                    Some(p) => p.as_str().into(),
                    None => "skipped".into(),
                },
            ),
            ("operator", self.operator.into()),
        ];
        if let Some(rows) = self.realtime_cut_rows {
            pairs.push(("realtime", true.into()));
            pairs.push(("cut_rows", rows.into()));
        }
        pairs.push((
            "filter_order",
            Json::Arr(
                self.predicate_order
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("predicate", c.predicate.as_str().into()),
                            ("path", c.path.into()),
                            ("est_selectivity", c.est_selectivity.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::obj(pairs)
    }
}

/// Render a whole EXPLAIN PLAN: header plus per-segment blocks, segments
/// sorted by name for stable output.
pub fn render_plan(query: &Query, mut segments: Vec<SegmentExplain>) -> String {
    segments.sort_by(|a, b| a.segment.cmp(&b.segment));
    let mut out = format!(
        "EXPLAIN PLAN FOR {} segments of {}\n",
        segments.len(),
        query.table
    );
    for s in &segments {
        out.push_str(&s.render_text());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, EngineConfig, FieldSpec, Record, Schema, TimeUnit, Value};
    use pinot_pql::parse;
    use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
    use std::sync::Arc;

    fn handle() -> SegmentHandle {
        let schema = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::metric("clicks", DataType::Long),
                FieldSpec::time("day", DataType::Long, TimeUnit::Days),
            ],
        )
        .unwrap();
        let cfg = BuilderConfig::new("seg_a", "t")
            .with_bloom_columns(&["country"])
            .with_inverted_columns(&["country"]);
        let mut b = SegmentBuilder::new(schema, cfg).unwrap();
        for (c, k, d) in [("us", 10i64, 100i64), ("de", 20, 101), ("fr", 30, 102)] {
            b.add(Record::new(vec![
                Value::from(c),
                Value::Long(k),
                Value::Long(d),
            ]))
            .unwrap();
        }
        SegmentHandle::new(Arc::new(b.build().unwrap()))
    }

    fn explain(pql: &str) -> SegmentExplain {
        explain_segment(
            &handle(),
            &parse(pql).unwrap(),
            Some("day"),
            &ExecOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn metadata_only_upgrade_via_match_all() {
        // The filter matches every row, so pruning strips it and the
        // COUNT(*) upgrades to the metadata-only plan.
        let e = explain("SELECT COUNT(*) FROM t WHERE day >= 100");
        assert_eq!(e.prune, "match_all");
        assert_eq!(e.plan, Some(PlanKind::MetadataOnly));
        assert!(e.predicate_order.is_empty());
        assert!(e.render_text().contains("plan=metadata_only"));
    }

    #[test]
    fn pruned_segment_reports_level_and_skips_planning() {
        let e = explain("SELECT COUNT(*) FROM t WHERE day > 200");
        assert_eq!(e.prune, "cannot_match:time");
        assert_eq!(e.plan, None);
        assert!(e.render_text().contains("plan=skipped"));
        let e = explain("SELECT SUM(clicks) FROM t WHERE country = 'es'");
        assert_eq!(e.prune, "cannot_match:bloom");
    }

    #[test]
    fn raw_plan_orders_conjuncts() {
        let e = explain("SELECT SUM(clicks) FROM t WHERE clicks > 15 AND country = 'us'");
        assert_eq!(e.plan, Some(PlanKind::Raw));
        assert_eq!(e.operator, "aggregate");
        // The inverted country leaf runs before the clicks scan leaf,
        // each annotated with its estimated selectivity (country = us
        // matches 1 of 3 docs exactly; clicks > 15 interpolates the
        // [10, 30] zone map).
        assert_eq!(e.predicate_order.len(), 2);
        assert_eq!(e.predicate_order[0].path, "inverted");
        assert!(e.predicate_order[0].predicate.contains("country"));
        assert_eq!(e.predicate_order[1].path, "scan");
        let text = e.render_text();
        assert!(
            text.contains(
                "filter order: country = us (inverted, est=0.3333), clicks > 15 (scan, est=0.7500)"
            ),
            "{text}"
        );
    }

    #[test]
    fn forced_planner_mode_changes_reported_paths() {
        let e = explain_segment(
            &handle(),
            &parse("SELECT SUM(clicks) FROM t WHERE country = 'us'").unwrap(),
            Some("day"),
            &ExecOptions {
                config: Arc::new(EngineConfig {
                    planner: crate::cost::PlannerMode::Scan,
                    ..EngineConfig::default()
                }),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(e.predicate_order[0].path, "scan");
    }

    #[test]
    fn json_rendering_is_stable() {
        let e = explain("SELECT SUM(clicks) FROM t WHERE country = 'us'");
        let text = e.to_json().emit();
        for field in ["\"segment\"", "\"prune\"", "\"plan\"", "\"filter_order\""] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn realtime_cut_rows_rendered_in_text_and_json() {
        let mut e = explain("SELECT SUM(clicks) FROM t WHERE country = 'us'");
        e.realtime_cut_rows = Some(3);
        let text = e.render_text();
        assert!(text.contains("plan=realtime(raw) cut_rows=3"), "{text}");
        let json = e.to_json().emit();
        assert!(json.contains("\"realtime\":true"), "{json}");
        assert!(json.contains("\"cut_rows\":3"), "{json}");
    }

    #[test]
    fn render_plan_sorts_segments() {
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        let mut b = explain("SELECT COUNT(*) FROM t");
        b.segment = "seg_b".into();
        let a = explain("SELECT COUNT(*) FROM t");
        let out = render_plan(&q, vec![b, a]);
        let pos_a = out.find("segment seg_a").unwrap();
        let pos_b = out.find("segment seg_b").unwrap();
        assert!(pos_a < pos_b);
    }
}
