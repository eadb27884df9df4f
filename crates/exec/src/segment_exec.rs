//! Executing one query against one segment.

use crate::aggstate::AggState;
use crate::batch::{self, ExecOptions, KernelStats};
use crate::key::{GroupKey, GroupValue};
use crate::morsel;
use crate::planner;
use crate::selection::DocSelection;
use pinot_common::profile::ProfileNode;
use pinot_common::query::ExecutionStats;
use pinot_common::{PinotError, Result, Value};
use pinot_pql::{AggregateExpr, Query, SelectList};
use pinot_segment::column::ColumnData;
use pinot_segment::ImmutableSegment;
use pinot_startree::StarTree;
use std::collections::HashMap;
use std::sync::Arc;

/// A query-ready segment: the immutable data plus its optional star-tree.
#[derive(Clone)]
pub struct SegmentHandle {
    pub segment: Arc<ImmutableSegment>,
    pub star_tree: Option<Arc<StarTree>>,
    /// Segment name shared as `Arc<str>` so profiled executions label
    /// their nodes without allocating per query.
    pub name: Arc<str>,
}

impl SegmentHandle {
    pub fn new(segment: Arc<ImmutableSegment>) -> SegmentHandle {
        SegmentHandle {
            name: segment.name().into(),
            segment,
            star_tree: None,
        }
    }

    pub fn with_star_tree(mut self, tree: Arc<StarTree>) -> SegmentHandle {
        self.star_tree = Some(tree);
        self
    }
}

/// Partial result produced by a segment (and merged across segments and
/// servers). The same shape flows server → broker.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultPayload {
    /// Ungrouped aggregation states, one per aggregation expression.
    Aggregation(Vec<AggState>),
    /// Grouped aggregation states.
    GroupBy(HashMap<GroupKey, Vec<AggState>>),
    /// Projected rows.
    Selection {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
}

/// A partial result plus its execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermediateResult {
    pub payload: ResultPayload,
    pub stats: ExecutionStats,
    /// Per-operator profile tree, present only when
    /// [`ExecOptions::profile`] was set. Never affects `payload`/`stats`.
    pub profile: Option<ProfileNode>,
}

impl IntermediateResult {
    /// Identity element matching the query shape.
    pub fn empty_for(query: &Query) -> IntermediateResult {
        let payload = match &query.select {
            SelectList::Aggregations(aggs) if query.group_by.is_empty() => {
                ResultPayload::Aggregation(aggs.iter().map(|a| AggState::new(a.function)).collect())
            }
            SelectList::Aggregations(_) => ResultPayload::GroupBy(HashMap::new()),
            SelectList::Projections(cols) => ResultPayload::Selection {
                columns: cols.clone(),
                rows: Vec::new(),
            },
            SelectList::Star => ResultPayload::Selection {
                columns: Vec::new(),
                rows: Vec::new(),
            },
        };
        IntermediateResult {
            payload,
            stats: ExecutionStats::default(),
            profile: None,
        }
    }
}

/// A broker's request to one server: run `query` over this server's share
/// of the routing table (§3.3.3 step 3). The server answers with one
/// [`IntermediateResult`].
#[derive(Clone)]
pub struct ServerRequest {
    pub table: String,
    pub query: Arc<Query>,
    pub segments: Vec<String>,
    pub tenant: String,
    /// The broker's scatter deadline. Servers check it between segments and
    /// abandon work nobody will wait for; failover retries budget their
    /// backoff against it.
    pub deadline: Option<std::time::Instant>,
    /// Broker-assigned query id (seeded, deterministic per broker), echoed
    /// back in the partial's stats so stats, logs, and profiles from every
    /// server join on one key.
    pub query_id: u64,
    /// Collect a per-operator profile tree alongside the partial result.
    /// Never changes the result payload or stats.
    pub profile: bool,
    /// With `profile`, also collect the per-conjunct access-path report
    /// for `EXPLAIN ANALYZE`.
    pub analyze: bool,
}

/// Execute a query on one segment with default options
/// ([`pinot_common::EngineConfig::default`]: auto planner).
pub fn execute_on_segment(handle: &SegmentHandle, query: &Query) -> Result<IntermediateResult> {
    execute_on_segment_with(handle, query, &ExecOptions::default())
}

/// Execute a query on one segment, producing a partial result.
pub fn execute_on_segment_with(
    handle: &SegmentHandle,
    query: &Query,
    opts: &ExecOptions,
) -> Result<IntermediateResult> {
    let segment = &handle.segment;
    let mut stats = ExecutionStats {
        num_segments_queried: 1,
        num_segments_processed: 1,
        total_docs: segment.num_docs() as u64,
        ..Default::default()
    };

    // Profiling clock: `None` on the unprofiled path, which therefore
    // takes no extra timestamps and returns byte-identical results.
    let seg_start = opts.profile.then(std::time::Instant::now);

    validate_columns(segment, query)?;

    // 1. Metadata-only plan.
    if let Some(values) = planner::metadata_only_plan(segment, query) {
        record_plan(&mut stats, planner::PlanKind::MetadataOnly);
        let aggs = query.aggregations();
        let mut states = Vec::with_capacity(aggs.len());
        for (a, v) in aggs.iter().zip(values) {
            let mut s = AggState::new(a.function);
            match (&mut s, v) {
                (AggState::Count(n), Value::Long(x)) => *n = x as u64,
                (AggState::Min(m), Value::Double(x)) => *m = x,
                (AggState::Max(m), Value::Double(x)) => *m = x,
                _ => {
                    return Err(PinotError::Internal(
                        "metadata plan produced unexpected value shape".into(),
                    ))
                }
            }
            states.push(s);
        }
        let profile = seg_start.map(|t| {
            let ns = t.elapsed().as_nanos() as u64;
            let mut child = ProfileNode::new("metadata_only");
            child.elapsed_ns = ns;
            let mut seg =
                segment_profile_node(Arc::clone(&handle.name), planner::PlanKind::MetadataOnly);
            seg.docs_in = stats.total_docs;
            seg.elapsed_ns = ns;
            seg.children.push(child);
            seg
        });
        return Ok(IntermediateResult {
            payload: ResultPayload::Aggregation(states),
            stats,
            profile,
        });
    }

    // 2. Star-tree plan.
    if let Some((filters, group_dims)) = planner::try_star_tree(handle, query) {
        let tree = handle.star_tree.as_ref().expect("checked by try_star_tree");
        record_plan(&mut stats, planner::PlanKind::StarTree);
        let mut result = execute_star_tree(segment, tree, query, &filters, &group_dims, stats)?;
        result.profile = seg_start.map(|t| {
            let ns = t.elapsed().as_nanos() as u64;
            let mut child = ProfileNode::new("star_tree");
            // The star-tree scans preaggregated records standing in for
            // `raw_docs_equivalent` raw documents.
            child.docs_in = result.stats.raw_docs_equivalent;
            child.docs_out = result.stats.num_docs_scanned;
            child.elapsed_ns = ns;
            let mut seg =
                segment_profile_node(Arc::clone(&handle.name), planner::PlanKind::StarTree);
            seg.docs_in = result.stats.total_docs;
            seg.docs_out = result.stats.num_docs_scanned;
            seg.elapsed_ns = ns;
            seg.children.push(child);
            seg
        });
        return Ok(result);
    }

    // 3. Raw plan: filter then aggregate / group / select.
    record_plan(&mut stats, planner::PlanKind::Raw);
    let filter_start = opts.profile.then(std::time::Instant::now);
    // Per-conjunct measurements (chosen path, estimated vs actual docs)
    // are collected only for EXPLAIN ANALYZE; plain profiled execution
    // skips the report to stay within its overhead budget.
    let conjuncts = (opts.profile && opts.analyze).then(|| std::cell::RefCell::new(Vec::new()));
    let fctx = planner::FilterCtx {
        mode: opts.planner,
        obs: opts.obs.as_deref(),
        report: conjuncts.as_ref(),
    };
    let selection =
        planner::evaluate_filter_ctx(segment, query.filter.as_ref(), &mut stats, &fctx)?;
    stats.num_docs_scanned = selection.count();

    let mut kstats = KernelStats::default();
    // `scan_start` doubles as the filter phase's end boundary, so the
    // profiled path takes no extra timestamp between filter and scan.
    let scan_start = std::time::Instant::now();
    let filter_ns = filter_start.map(|t| scan_start.duration_since(t).as_nanos() as u64);
    // Resolve columns once; morsels reuse the plan.
    let plan = ScanPlan::resolve(segment, query)?;
    // Morsel-driven scan (ISSUE 8): the partition depends only on the
    // selection and the morsel size, and partials merge in ascending
    // morsel order — so whether the morsels run inline or as pool tasks
    // (the cost gate's call), the bytes are identical. Selections of one
    // morsel or fewer take the direct path below, unchanged.
    let morsels = morsel::split_selection(&selection, opts.morsel_docs());
    let payload = if morsels.len() > 1 {
        let part = morsel::execute_morsels(
            &morsels,
            stats.num_docs_scanned,
            plan.cols_touched(),
            |m| {
                let mut mstats = ExecutionStats::default();
                let mut mk = KernelStats::default();
                let payload = plan.run(m, &mut mstats, &mut mk);
                morsel::MorselPartial {
                    payload,
                    entries: mstats.num_entries_scanned_post_filter,
                    blocks: mk.blocks,
                    docs: mk.docs,
                }
            },
            crate::merge::merge_payload,
            opts,
            opts.obs.as_deref(),
        )?;
        stats.num_entries_scanned_post_filter += part.entries;
        kstats.blocks += part.blocks;
        kstats.docs += part.docs;
        let mut payload = part.payload;
        if let ScanPlan::Select { limit, .. } = &plan {
            // Each morsel stops at the limit on its own; the ordered
            // concatenation re-applies it once globally.
            if let ResultPayload::Selection { rows, .. } = &mut payload {
                rows.truncate(*limit);
            }
        }
        payload
    } else {
        plan.run(&selection, &mut stats, &mut kstats)
    };
    let scan_ns = scan_start.elapsed().as_nanos() as u64;
    if let Some(obs) = &opts.obs {
        kstats.flush(obs, scan_ns);
    }
    let profile = seg_start.map(|t| {
        let (scan_op, docs_produced) = match &payload {
            ResultPayload::Aggregation(states) => ("aggregate", states.len() as u64),
            ResultPayload::GroupBy(groups) => ("group_by", groups.len() as u64),
            ResultPayload::Selection { rows, .. } => ("select", rows.len() as u64),
        };
        let mut filter = ProfileNode::new("filter");
        filter.docs_in = stats.total_docs;
        filter.docs_out = stats.num_docs_scanned;
        filter.elapsed_ns = filter_ns.unwrap_or(0);
        // One child per evaluated conjunct leaf: docs_in is the cost
        // model's estimate, docs_out the measured match count, so the
        // rendered `docs=est→actual` reads as estimated vs measured.
        if let Some(report) = &conjuncts {
            for m in report.take() {
                let mut c = ProfileNode::named("conjunct", m.label);
                c.docs_in = m.est_docs;
                c.docs_out = m.actual_docs;
                filter.children.push(c);
            }
        }
        let mut scan = ProfileNode::new(scan_op);
        scan.docs_in = stats.num_docs_scanned;
        scan.docs_out = docs_produced;
        scan.blocks_decoded = kstats.blocks;
        scan.elapsed_ns = scan_ns;
        let mut seg = segment_profile_node(Arc::clone(&handle.name), planner::PlanKind::Raw);
        seg.docs_in = stats.total_docs;
        seg.docs_out = stats.num_docs_scanned;
        seg.elapsed_ns = t.elapsed().as_nanos() as u64;
        seg.children = vec![filter, scan];
        seg
    });
    Ok(IntermediateResult {
        payload,
        stats,
        profile,
    })
}

/// A resolved raw-scan plan: columns looked up once per segment, then
/// reused for every morsel of the selection. Every kernel takes a
/// `&DocSelection`, which is what lets morsel splitting happen *above*
/// the operator.
enum ScanPlan<'a> {
    Aggregate {
        aggs: &'a [AggregateExpr],
        cols: Vec<Option<&'a ColumnData>>,
    },
    GroupBy {
        aggs: &'a [AggregateExpr],
        group_cols: Vec<&'a ColumnData>,
        agg_cols: Vec<Option<&'a ColumnData>>,
        layout: batch::KeyLayout,
    },
    Select {
        columns: Vec<String>,
        cols: Vec<&'a ColumnData>,
        limit: usize,
    },
}

impl<'a> ScanPlan<'a> {
    fn resolve(segment: &'a ImmutableSegment, query: &'a Query) -> Result<ScanPlan<'a>> {
        Ok(match &query.select {
            SelectList::Aggregations(aggs) if query.group_by.is_empty() => {
                let cols: Vec<Option<&ColumnData>> = aggs
                    .iter()
                    .map(|a| a.column.as_deref().map(|c| segment.column(c)).transpose())
                    .collect::<Result<_>>()?;
                ScanPlan::Aggregate { aggs, cols }
            }
            SelectList::Aggregations(aggs) => {
                let group_cols: Vec<&ColumnData> = query
                    .group_by
                    .iter()
                    .map(|c| segment.column(c))
                    .collect::<Result<_>>()?;
                let agg_cols: Vec<Option<&ColumnData>> = aggs
                    .iter()
                    .map(|a| a.column.as_deref().map(|c| segment.column(c)).transpose())
                    .collect::<Result<_>>()?;
                let layout = batch::KeyLayout::new(&group_cols);
                ScanPlan::GroupBy {
                    aggs,
                    group_cols,
                    agg_cols,
                    layout,
                }
            }
            SelectList::Projections(_) | SelectList::Star => {
                let columns: Vec<String> = match &query.select {
                    SelectList::Projections(cols) => cols.clone(),
                    _ => segment
                        .schema()
                        .fields()
                        .iter()
                        .map(|f| f.name.clone())
                        .collect(),
                };
                let cols: Vec<&ColumnData> = columns
                    .iter()
                    .map(|c| segment.column(c))
                    .collect::<Result<_>>()?;
                let limit = query.effective_limit();
                ScanPlan::Select {
                    columns,
                    cols,
                    limit,
                }
            }
        })
    }

    /// Columns the scan reads per matching doc — the cost model's second
    /// factor.
    fn cols_touched(&self) -> u64 {
        let n = match self {
            ScanPlan::Aggregate { cols, .. } => cols.iter().flatten().count(),
            ScanPlan::GroupBy {
                group_cols,
                agg_cols,
                ..
            } => group_cols.len() + agg_cols.iter().flatten().count(),
            ScanPlan::Select { cols, .. } => cols.len(),
        };
        n.max(1) as u64
    }

    /// Run the scan over one (sub-)selection. Whole-selection execution
    /// and per-morsel execution both come through here. An empty
    /// selection returns before any per-column set-up.
    fn run(
        &self,
        selection: &DocSelection,
        stats: &mut ExecutionStats,
        kstats: &mut KernelStats,
    ) -> ResultPayload {
        if selection.is_empty() {
            return self.empty_payload();
        }
        self.scan(selection, stats, kstats)
    }

    /// What the kernels build from zero docs.
    fn empty_payload(&self) -> ResultPayload {
        match self {
            ScanPlan::Aggregate { aggs, .. } => {
                ResultPayload::Aggregation(aggs.iter().map(|a| AggState::new(a.function)).collect())
            }
            ScanPlan::GroupBy { .. } => ResultPayload::GroupBy(HashMap::new()),
            ScanPlan::Select { columns, .. } => ResultPayload::Selection {
                columns: columns.clone(),
                rows: Vec::new(),
            },
        }
    }

    fn scan(
        &self,
        selection: &DocSelection,
        stats: &mut ExecutionStats,
        kstats: &mut KernelStats,
    ) -> ResultPayload {
        match self {
            ScanPlan::Aggregate { aggs, cols } => ResultPayload::Aggregation(
                batch::aggregate_selection(aggs, cols, selection, stats, kstats),
            ),
            ScanPlan::GroupBy {
                aggs,
                group_cols,
                agg_cols,
                layout,
            } => {
                // One kernel, keyed by what the segment's cardinalities
                // need: a packed word, or an id slice past 64 bits.
                let kernel = if layout.fits_u64() {
                    batch::group_by_selection::<u64>
                } else {
                    batch::group_by_selection::<Box<[pinot_segment::DictId]>>
                };
                ResultPayload::GroupBy(kernel(
                    aggs, group_cols, agg_cols, layout, selection, stats, kstats,
                ))
            }
            ScanPlan::Select {
                columns,
                cols,
                limit,
            } => ResultPayload::Selection {
                columns: columns.clone(),
                rows: batch::select_rows(cols, selection, *limit, stats, kstats),
            },
        }
    }
}

/// Up-front query validation against one segment, for a clean typed
/// error before any plan is chosen: every referenced column exists, and
/// no aggregation reads a multi-value column (Pinot has separate `…MV`
/// functions for that; the plain ones are rejected).
pub(crate) fn validate_columns(segment: &ImmutableSegment, query: &Query) -> Result<()> {
    for c in query.referenced_columns() {
        segment.column(c)?;
    }
    for agg in query.aggregations() {
        if let Some(c) = &agg.column {
            if !segment.column(c)?.forward.is_single_value() {
                return Err(PinotError::InvalidQuery(format!(
                    "{agg}: {c} is a multi-value column"
                )));
            }
        }
    }
    Ok(())
}

/// Root profile node for one segment execution.
fn segment_profile_node(name: Arc<str>, kind: planner::PlanKind) -> ProfileNode {
    let mut seg = ProfileNode::named("segment", name);
    seg.plan_kind = Some(kind.as_str());
    seg.segments = 1;
    seg
}

fn record_plan(stats: &mut ExecutionStats, kind: planner::PlanKind) {
    match kind {
        planner::PlanKind::MetadataOnly => stats.num_segments_metadata_only += 1,
        planner::PlanKind::StarTree => stats.num_segments_star_tree += 1,
        planner::PlanKind::Raw => stats.num_segments_raw += 1,
    }
}

fn execute_star_tree(
    segment: &ImmutableSegment,
    tree: &StarTree,
    query: &Query,
    filters: &[pinot_startree::DimFilter],
    group_dims: &[usize],
    mut stats: ExecutionStats,
) -> Result<IntermediateResult> {
    let result = tree.execute(filters, group_dims);
    stats.num_docs_scanned = result.preagg_docs_scanned;
    stats.raw_docs_equivalent = result.raw_docs_matched;

    let aggs = query.aggregations();
    // Map each aggregation to its tree-metric index (None for COUNT(*)).
    let metric_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| a.column.as_deref().and_then(|c| tree.metric_index(c)))
        .collect();

    let make_states = |agg_values: &pinot_startree::AggValues| -> Result<Vec<AggState>> {
        aggs.iter()
            .zip(&metric_idx)
            .map(|(a, mi)| {
                let mut s = AggState::new(a.function);
                match mi {
                    Some(i) => s.accept_preaggregated(
                        agg_values.count,
                        agg_values.sums[*i],
                        agg_values.mins[*i],
                        agg_values.maxs[*i],
                    )?,
                    None => s.accept_preaggregated(agg_values.count, 0.0, 0.0, 0.0)?,
                }
                Ok(s)
            })
            .collect()
    };

    if group_dims.is_empty() {
        let total = result
            .groups
            .first()
            .map(|(_, a)| a.clone())
            .unwrap_or_else(|| pinot_startree::AggValues::empty(tree.metrics().len()));
        let states = make_states(&total)?;
        return Ok(IntermediateResult {
            payload: ResultPayload::Aggregation(states),
            stats,
            profile: None,
        });
    }

    // Translate group keys from dict-id space to values. Two ids can
    // share one canonical value (`0.0` and `-0.0` in a DOUBLE
    // dictionary); their groups merge, as in the block kernels.
    let dim_cols: Vec<&ColumnData> = group_dims
        .iter()
        .map(|&d| segment.column(&tree.dimensions()[d]))
        .collect::<Result<_>>()?;
    let mut out: HashMap<GroupKey, Vec<AggState>> = HashMap::with_capacity(result.groups.len());
    for (ids, agg_values) in &result.groups {
        if agg_values.is_empty() {
            continue;
        }
        let key: GroupKey = ids
            .iter()
            .zip(&dim_cols)
            .map(|(id, col)| GroupValue::from_value(&col.dictionary.value_of(*id)))
            .collect();
        crate::merge::merge_group(&mut out, key, make_states(agg_values)?)?;
    }
    Ok(IntermediateResult {
        payload: ResultPayload::GroupBy(out),
        stats,
        profile: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
    use pinot_pql::parse;
    use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
    use std::sync::Arc;

    fn mv_handle() -> SegmentHandle {
        let schema = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::multi_value_dimension("tags", DataType::String),
                FieldSpec::metric("m", DataType::Long),
            ],
        )
        .unwrap();
        let mut b = SegmentBuilder::new(schema, BuilderConfig::new("s", "t")).unwrap();
        let tag_sets: &[&[&str]] = &[&["a", "b", "c"], &["a"], &["b", "c"], &["a", "c"], &["b"]];
        for (i, tags) in tag_sets.iter().enumerate() {
            b.add(Record::new(vec![
                Value::from(if i % 2 == 0 { "us" } else { "de" }),
                Value::StringArray(tags.iter().map(|t| t.to_string()).collect()),
                Value::Long(i as i64),
            ]))
            .unwrap();
        }
        SegmentHandle::new(Arc::new(b.build().unwrap()))
    }

    fn run(handle: &SegmentHandle, pql: &str) -> IntermediateResult {
        execute_on_segment(handle, &parse(pql).unwrap()).unwrap()
    }

    /// The finalized group table of a single-aggregation group-by, keys
    /// rendered as strings: value descending, ties by key.
    fn groups(r: IntermediateResult, pql: &str) -> Vec<(Vec<String>, Value)> {
        match crate::finalize(r, &parse(pql).unwrap()).unwrap() {
            pinot_common::query::QueryResult::GroupBy(tables) => tables[0]
                .rows
                .iter()
                .map(|(k, v)| (k.iter().map(|x| x.to_string()).collect(), v.clone()))
                .collect(),
            other => panic!("{other:?}"),
        }
    }

    fn key(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    /// Regression (ISSUE 4 satellite): `num_entries_scanned_post_filter`
    /// counts each (doc, column) read once, not once per expanded group
    /// key — and a multi-value group column emits one key per element.
    #[test]
    fn mv_group_by_counts_entries_per_doc_not_per_expanded_key() {
        let handle = mv_handle();
        // 5 docs × (1 group column + 1 agg column) = 10 entries; the key
        // expansion (3+1+2+2+1 = 9 keys) must not leak into the count.
        let pql = "SELECT SUM(m) FROM t GROUP BY tags";
        let r = run(&handle, pql);
        assert_eq!(r.stats.num_entries_scanned_post_filter, 10);
        assert_eq!(
            groups(r, pql),
            vec![
                (key(&["b"]), Value::Double(6.0)),
                (key(&["c"]), Value::Double(5.0)),
                (key(&["a"]), Value::Double(4.0)),
            ]
        );
        // A multi-value column beside a single-value one fans out per
        // element but still counts one entry per (doc, column):
        // 5 × (2 + 1) = 15.
        let pql = "SELECT SUM(m) FROM t GROUP BY tags, country";
        let r = run(&handle, pql);
        assert_eq!(r.stats.num_entries_scanned_post_filter, 15);
        assert_eq!(
            groups(r, pql),
            vec![
                (key(&["b", "us"]), Value::Double(6.0)),
                (key(&["a", "de"]), Value::Double(4.0)),
                (key(&["c", "de"]), Value::Double(3.0)),
                (key(&["c", "us"]), Value::Double(2.0)),
                (key(&["a", "us"]), Value::Double(0.0)),
            ]
        );
    }

    /// The group-by kernel on single-value keys, with and without a
    /// DISTINCTCOUNT, and the projection kernel on a multi-value column:
    /// payload and stats against literal expectations.
    #[test]
    fn group_by_and_select_match_literal_expectations() {
        let handle = mv_handle();
        let pql = "SELECT SUM(m), COUNT(*) FROM t GROUP BY country";
        let r = run(&handle, pql);
        assert_eq!(r.stats.num_entries_scanned_post_filter, 10);
        assert_eq!(
            groups(r, pql),
            vec![
                (key(&["us"]), Value::Double(6.0)),
                (key(&["de"]), Value::Double(4.0)),
            ]
        );

        let pql = "SELECT DISTINCTCOUNT(m) FROM t GROUP BY country";
        let r = run(&handle, pql);
        assert_eq!(r.stats.num_entries_scanned_post_filter, 10);
        assert_eq!(
            groups(r, pql),
            vec![
                (key(&["us"]), Value::Long(3)),
                (key(&["de"]), Value::Long(2)),
            ]
        );

        let r = run(&handle, "SELECT tags, m FROM t WHERE m >= 1 LIMIT 2");
        assert_eq!(r.stats.num_entries_scanned_post_filter, 4);
        assert_eq!(
            r.payload,
            ResultPayload::Selection {
                columns: vec!["tags".into(), "m".into()],
                rows: vec![
                    vec![Value::StringArray(vec!["a".into()]), Value::Long(1)],
                    vec![
                        Value::StringArray(vec!["b".into(), "c".into()]),
                        Value::Long(2)
                    ],
                ],
            }
        );
    }

    /// An empty selection skips every kernel's set-up and returns what
    /// the kernels themselves build from zero docs, with no entries or
    /// blocks counted.
    #[test]
    fn empty_selection_payload_equals_the_kernels_over_zero_docs() {
        let handle = mv_handle();
        for pql in [
            "SELECT SUM(m), COUNT(*), MIN(m), MAX(m), AVG(m), DISTINCTCOUNT(country) FROM t",
            "SELECT SUM(m), DISTINCTCOUNT(m) FROM t GROUP BY country, tags",
            "SELECT tags, m FROM t LIMIT 3",
            "SELECT * FROM t",
        ] {
            let query = parse(pql).unwrap();
            let plan = ScanPlan::resolve(&handle.segment, &query).unwrap();
            let (mut stats, mut kstats) = (ExecutionStats::default(), KernelStats::default());
            let scanned = plan.scan(&DocSelection::Empty, &mut stats, &mut kstats);
            assert_eq!(plan.empty_payload(), scanned, "{pql}");
            assert_eq!(stats, ExecutionStats::default(), "{pql}");
            assert_eq!((kstats.blocks, kstats.docs), (0, 0), "{pql}");
            let (mut stats, mut kstats) = (ExecutionStats::default(), KernelStats::default());
            assert_eq!(
                plan.run(&DocSelection::Empty, &mut stats, &mut kstats),
                scanned
            );
        }
        // End to end: a filter that matches nothing.
        let r = run(
            &handle,
            "SELECT SUM(m) FROM t WHERE country = 'fr' GROUP BY tags",
        );
        assert_eq!(r.payload, ResultPayload::GroupBy(HashMap::new()));
        assert_eq!(r.stats.num_entries_scanned_post_filter, 0);
    }

    /// Aggregating *over* a multi-value column used to reach
    /// `ForwardIndex::get` on a multi-value index and panic; it is a
    /// typed error naming function and column, grouped or not.
    #[test]
    fn aggregating_over_a_multi_value_column_is_invalid_query() {
        let handle = mv_handle();
        for function in ["SUM", "MIN", "MAX", "AVG", "COUNT", "DISTINCTCOUNT"] {
            for tail in ["", " GROUP BY country", " WHERE m > 1"] {
                let pql = format!("SELECT {function}(tags) FROM t{tail}");
                let err = execute_on_segment(&handle, &parse(&pql).unwrap()).unwrap_err();
                let expected = format!("{}(tags)", function.to_lowercase());
                assert!(
                    matches!(&err, PinotError::InvalidQuery(m) if m.contains(&expected)),
                    "{pql}: {err}"
                );
            }
        }
    }
}
