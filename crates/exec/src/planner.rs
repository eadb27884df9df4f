//! Per-segment physical planning.
//!
//! Implements the operator-selection rules of §3.3.4 and §4.1–4.3:
//! metadata-only plans, star-tree plans, and index-backed filter plans with
//! cost-based predicate ordering (sorted column first, then inverted
//! indexes, then scans restricted to the already-selected docs).

use crate::cost::{self, AccessPath, PlannerMode};
use crate::segment_exec::SegmentHandle;
use crate::selection::{DocSelection, IdMatcher, MatchKind};
use pinot_bitmap::RoaringBitmap;
use pinot_common::query::ExecutionStats;
use pinot_common::{Result, Value};
use pinot_obs::Obs;
use pinot_pql::{AggFunction, CmpOp, Predicate, Query, SelectList};
use pinot_segment::{DictId, ImmutableSegment};
use pinot_startree::DimFilter;
use std::cell::RefCell;

/// Which physical plan a segment execution used (exposed for tests, stats
/// and the Figure 13 harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Answered purely from segment metadata.
    MetadataOnly,
    /// Answered from star-tree preaggregated records.
    StarTree,
    /// Filter plus scan/aggregation over raw docs.
    Raw,
}

impl PlanKind {
    /// Stable lowercase label used in profiles and EXPLAIN output.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanKind::MetadataOnly => "metadata_only",
            PlanKind::StarTree => "star_tree",
            PlanKind::Raw => "raw",
        }
    }
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Decide the plan for a query on a segment (without executing it).
pub fn plan_segment(handle: &SegmentHandle, query: &Query) -> PlanKind {
    if metadata_only_plan(&handle.segment, query).is_some() {
        PlanKind::MetadataOnly
    } else if try_star_tree(handle, query).is_some() {
        PlanKind::StarTree
    } else {
        PlanKind::Raw
    }
}

/// Rewrite away `Ne` and `NOT IN` so downstream code only sees positive
/// leaves under explicit `Not` nodes.
pub fn normalize_predicate(p: &Predicate) -> Predicate {
    match p {
        Predicate::And(ps) => Predicate::And(ps.iter().map(normalize_predicate).collect()),
        Predicate::Or(ps) => Predicate::Or(ps.iter().map(normalize_predicate).collect()),
        Predicate::Not(inner) => Predicate::Not(Box::new(normalize_predicate(inner))),
        Predicate::Cmp {
            column,
            op: CmpOp::Ne,
            value,
        } => Predicate::Not(Box::new(Predicate::Cmp {
            column: column.clone(),
            op: CmpOp::Eq,
            value: value.clone(),
        })),
        Predicate::In {
            column,
            values,
            negated: true,
        } => Predicate::Not(Box::new(Predicate::In {
            column: column.clone(),
            values: values.clone(),
            negated: false,
        })),
        other => other.clone(),
    }
}

/// Metadata-only plan: unfiltered, ungrouped COUNT(*)/MIN/MAX where the
/// segment metadata already has the answer (§4.1). Returns the final value
/// of each aggregation.
pub fn metadata_only_plan(segment: &ImmutableSegment, query: &Query) -> Option<Vec<Value>> {
    if query.filter.is_some() || !query.group_by.is_empty() {
        return None;
    }
    let aggs = match &query.select {
        SelectList::Aggregations(a) => a,
        _ => return None,
    };
    let mut out = Vec::with_capacity(aggs.len());
    for a in aggs {
        match (a.function, &a.column) {
            (AggFunction::Count, None) => {
                out.push(Value::Long(segment.num_docs() as i64));
            }
            // COUNT(col) counts docs whose value is numeric; columns are
            // null-free, so for a numeric single-value column that is
            // every doc. (Multi-value and string columns contribute
            // nothing in the scan paths, so they must not answer here.)
            (AggFunction::Count, Some(c)) => {
                let stats = segment.metadata().column(c)?;
                if !stats.data_type.is_numeric() || !stats.single_value {
                    return None;
                }
                out.push(Value::Long(segment.num_docs() as i64));
            }
            (AggFunction::Min, Some(c)) => {
                out.push(Value::Double(numeric_bound(segment, c, false)?));
            }
            (AggFunction::Max, Some(c)) => {
                out.push(Value::Double(numeric_bound(segment, c, true)?));
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Zone-map bound usable as a MIN/MAX answer: numeric single-value
/// columns only (scan-path MIN/MAX ignores multi-value columns), and
/// only finite bounds — the scan path folds NaN/infinite extremes to
/// `Null`, so those segments must keep scanning to stay byte-identical.
fn numeric_bound(segment: &ImmutableSegment, column: &str, max: bool) -> Option<f64> {
    let stats = segment.metadata().column(column)?;
    if !stats.data_type.is_numeric() || !stats.single_value {
        return None;
    }
    let bound = if max { &stats.max } else { &stats.min };
    let v = bound.as_ref()?.as_f64()?;
    v.is_finite().then_some(v)
}

/// Try to convert the query into a star-tree execution: per-dimension
/// filters plus group dims. `None` means the tree cannot serve this query
/// and execution falls back to raw data (§4.3: "otherwise, query execution
/// runs on the original unaggregated data").
pub fn try_star_tree(
    handle: &SegmentHandle,
    query: &Query,
) -> Option<(Vec<DimFilter>, Vec<usize>)> {
    let tree = handle.star_tree.as_ref()?;
    let aggs = match &query.select {
        SelectList::Aggregations(a) => a,
        _ => return None,
    };
    // Every aggregation must be preaggregation-compatible and on a tree
    // metric (COUNT(*) needs no column).
    for a in aggs {
        if !a.function.star_tree_compatible() {
            return None;
        }
        if let Some(c) = &a.column {
            tree.metric_index(c)?;
        }
    }
    // Group-by columns must all be tree dimensions.
    let mut group_dims = Vec::with_capacity(query.group_by.len());
    for g in &query.group_by {
        group_dims.push(tree.dimension_index(g)?);
    }
    // The filter must decompose into per-dimension id sets.
    let mut filters = vec![DimFilter::Any; tree.dimensions().len()];
    if let Some(pred) = &query.filter {
        let normalized = normalize_predicate(pred);
        collect_dim_filters(&handle.segment, tree, &normalized, &mut filters)?;
    }
    Some((filters, group_dims))
}

/// Maximum ids a range predicate may expand to for star-tree execution;
/// beyond this the raw path with a real range operator is cheaper.
const MAX_RANGE_EXPANSION: usize = 4096;

fn collect_dim_filters(
    segment: &ImmutableSegment,
    tree: &pinot_startree::StarTree,
    pred: &Predicate,
    filters: &mut [DimFilter],
) -> Option<()> {
    match pred {
        Predicate::And(ps) => {
            for p in ps {
                collect_dim_filters(segment, tree, p, filters)?;
            }
            Some(())
        }
        Predicate::Or(_) => {
            // OR is convertible only when every branch constrains the same
            // single dimension (Figure 10's multi-branch navigation).
            let (dim, ids) = or_to_ids(segment, tree, pred)?;
            intersect_filter(&mut filters[dim], ids);
            Some(())
        }
        Predicate::Not(_) => None,
        leaf => {
            let (dim, ids) = leaf_to_ids(segment, tree, leaf)?;
            intersect_filter(&mut filters[dim], ids);
            Some(())
        }
    }
}

fn or_to_ids(
    segment: &ImmutableSegment,
    tree: &pinot_startree::StarTree,
    pred: &Predicate,
) -> Option<(usize, Vec<DictId>)> {
    match pred {
        Predicate::Or(ps) => {
            let mut dim: Option<usize> = None;
            let mut ids: Vec<DictId> = Vec::new();
            for p in ps {
                let (d, mut i) = or_to_ids(segment, tree, p)?;
                match dim {
                    None => dim = Some(d),
                    Some(existing) if existing == d => {}
                    Some(_) => return None, // spans multiple dimensions
                }
                ids.append(&mut i);
            }
            ids.sort_unstable();
            ids.dedup();
            Some((dim?, ids))
        }
        leaf => leaf_to_ids(segment, tree, leaf),
    }
}

fn leaf_to_ids(
    segment: &ImmutableSegment,
    tree: &pinot_startree::StarTree,
    leaf: &Predicate,
) -> Option<(usize, Vec<DictId>)> {
    let column = match leaf {
        Predicate::Cmp { column, .. }
        | Predicate::In { column, .. }
        | Predicate::Between { column, .. } => column,
        _ => return None,
    };
    let dim = tree.dimension_index(column)?;
    let matcher = IdMatcher::compile(segment, leaf).ok()?;
    let ids = match matcher.kind {
        MatchKind::Range(lo, hi) => {
            if (hi - lo) as usize > MAX_RANGE_EXPANSION {
                return None;
            }
            (lo..hi).collect()
        }
        MatchKind::Set(ids) => ids,
        MatchKind::Nothing => Vec::new(),
    };
    Some((dim, ids))
}

fn intersect_filter(f: &mut DimFilter, ids: Vec<DictId>) {
    match f {
        DimFilter::Any => *f = DimFilter::In(ids),
        DimFilter::In(existing) => {
            let keep: Vec<DictId> = existing
                .iter()
                .copied()
                .filter(|id| ids.binary_search(id).is_ok())
                .collect();
            *existing = keep;
        }
    }
}

/// Everything one filter evaluation needs beyond the predicate itself:
/// the access-path strategy and the optional observation sinks. None of
/// these fields may influence which docs a leaf selects — only how the
/// selection is computed and what gets recorded about it.
pub(crate) struct FilterCtx<'a> {
    /// Access-path strategy per leaf ([`cost::choose_path`]).
    pub mode: PlannerMode,
    /// Metrics sink for per-leaf path counters and the est-vs-actual
    /// histogram.
    pub obs: Option<&'a Obs>,
    /// When profiling, each evaluated leaf appends its measured
    /// [`ConjunctMeasure`] here for EXPLAIN ANALYZE.
    pub report: Option<&'a RefCell<Vec<ConjunctMeasure>>>,
}

/// What one leaf actually did during a profiled evaluation: the chosen
/// access path and estimated vs measured matching docs. The label is
/// pre-rendered as `{predicate} ({path})` and shared into the profile
/// tree — built once per leaf, profiling overhead is a measured budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctMeasure {
    pub label: std::sync::Arc<str>,
    pub est_docs: u64,
    pub actual_docs: u64,
}

/// Evaluate a filter to a document selection, using the best index per leaf
/// and ordering conjuncts cheapest-first (§4.2), with the `Auto`
/// access-path strategy.
pub fn evaluate_filter(
    segment: &ImmutableSegment,
    pred: Option<&Predicate>,
    stats: &mut ExecutionStats,
) -> Result<DocSelection> {
    evaluate_filter_planned(segment, pred, stats, PlannerMode::Auto)
}

/// Like [`evaluate_filter`] with the access-path strategy pinned — the
/// entry point the planner proptests drive directly.
pub fn evaluate_filter_planned(
    segment: &ImmutableSegment,
    pred: Option<&Predicate>,
    stats: &mut ExecutionStats,
    mode: PlannerMode,
) -> Result<DocSelection> {
    let ctx = FilterCtx {
        mode,
        obs: None,
        report: None,
    };
    evaluate_filter_ctx(segment, pred, stats, &ctx)
}

pub(crate) fn evaluate_filter_ctx(
    segment: &ImmutableSegment,
    pred: Option<&Predicate>,
    stats: &mut ExecutionStats,
    ctx: &FilterCtx<'_>,
) -> Result<DocSelection> {
    match pred {
        None => Ok(DocSelection::All(segment.num_docs())),
        Some(p) => eval(segment, &normalize_predicate(p), stats, None, ctx),
    }
}

/// Evaluate `pred` to the docs of `within` (every doc when `None`) that
/// match it. Subtrees see only the docs that earlier conjuncts kept, so
/// an OR or NOT under an AND scans the surviving docs, not the segment.
fn eval(
    segment: &ImmutableSegment,
    pred: &Predicate,
    stats: &mut ExecutionStats,
    within: Option<&DocSelection>,
    ctx: &FilterCtx<'_>,
) -> Result<DocSelection> {
    match pred {
        Predicate::And(ps) => eval_and(segment, ps, stats, within, ctx),
        Predicate::Or(ps) => {
            // IndexOr: when every branch is an inverted-path leaf, union
            // all their postings container-at-a-time in one k-way pass
            // instead of folding pairwise bitmap ORs, and clip the union
            // to `within` once. Each branch still counts its own postings
            // into the stats, so the fold and bulk paths are
            // indistinguishable except in time.
            let bulk = ps.len() >= 2
                && ps
                    .iter()
                    .all(|p| conjunct_class(segment, p, ctx.mode) == CLASS_INVERTED);
            if bulk {
                let mut bms: Vec<RoaringBitmap> = Vec::with_capacity(ps.len());
                for p in ps {
                    if let DocSelection::Bitmap(bm) = eval_leaf(segment, p, stats, None, ctx)? {
                        bms.push(bm);
                    }
                }
                if let Some(obs) = ctx.obs {
                    obs.metrics.counter_add("exec.plan_index_or", 1);
                }
                let refs: Vec<&RoaringBitmap> = bms.iter().collect();
                let bm = RoaringBitmap::union_many(&refs);
                let union = if bm.is_empty() {
                    DocSelection::Empty
                } else {
                    DocSelection::Bitmap(bm)
                };
                return Ok(match within {
                    Some(w) => w.and(&union),
                    None => union,
                });
            }
            // Every branch runs within the same running selection.
            let mut acc = DocSelection::Empty;
            for p in ps {
                acc = acc.or(&eval(segment, p, stats, within, ctx)?);
            }
            Ok(acc)
        }
        Predicate::Not(inner) => {
            let matched = eval(segment, inner, stats, within, ctx)?;
            Ok(match within {
                Some(w) => w.and_not(&matched),
                None => DocSelection::All(segment.num_docs()).and_not(&matched),
            })
        }
        leaf => eval_leaf(segment, leaf, stats, within, ctx),
    }
}

const CLASS_SORTED: u8 = 0;
const CLASS_INVERTED: u8 = 1;
const CLASS_SUBTREE: u8 = 2;
const CLASS_SCAN: u8 = 3;

/// Cost class of a conjunct: lower executes first. Leaves classify by
/// their *chosen* access path, so an inverted column whose predicate the
/// fan-out gate sends to a scan correctly defers to the end, where the
/// scan runs range-restricted to the surviving selection.
fn conjunct_class(segment: &ImmutableSegment, pred: &Predicate, mode: PlannerMode) -> u8 {
    match pred {
        Predicate::Cmp { .. } | Predicate::In { .. } | Predicate::Between { .. } => {
            match cost::choose_path(segment, pred, mode).0 {
                AccessPath::Sorted => CLASS_SORTED,
                AccessPath::Inverted => CLASS_INVERTED,
                AccessPath::Scan => CLASS_SCAN,
            }
        }
        _ => CLASS_SUBTREE,
    }
}

/// One top-level conjunct as the planner will run it: its rendering, the
/// access path (or `subtree`), and the estimated selectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctPlan {
    pub predicate: String,
    pub path: &'static str,
    pub est_selectivity: f64,
}

/// The filter's top-level conjuncts in the order the planner will run
/// them on this segment, each with the access path that decided its
/// position and its estimated selectivity. Mirrors the planner exactly:
/// the filter is normalized first and the sort is stable, so ties keep
/// query order.
pub fn conjunct_order(
    segment: &ImmutableSegment,
    filter: Option<&Predicate>,
    mode: PlannerMode,
) -> Vec<ConjunctPlan> {
    let Some(filter) = filter else {
        return Vec::new();
    };
    let normalized = normalize_predicate(filter);
    let conjuncts = match normalized {
        Predicate::And(ps) => ps,
        p => vec![p],
    };
    let mut keyed: Vec<(u8, &Predicate)> = conjuncts
        .iter()
        .map(|p| (conjunct_class(segment, p, mode), p))
        .collect();
    keyed.sort_by_key(|(class, _)| *class);
    keyed
        .into_iter()
        .map(|(class, p)| {
            let (path, est) = if class == CLASS_SUBTREE {
                ("subtree", cost::estimate_predicate(segment, p))
            } else {
                let (path, est) = cost::choose_path(segment, p, mode);
                (path.as_str(), est.selectivity)
            };
            ConjunctPlan {
                predicate: describe_predicate(p),
                path,
                est_selectivity: est,
            }
        })
        .collect()
}

/// Compact one-line rendering of a predicate for EXPLAIN output.
fn describe_predicate(p: &Predicate) -> String {
    match p {
        Predicate::And(ps) => format!(
            "({})",
            ps.iter()
                .map(describe_predicate)
                .collect::<Vec<_>>()
                .join(" AND ")
        ),
        Predicate::Or(ps) => format!(
            "({})",
            ps.iter()
                .map(describe_predicate)
                .collect::<Vec<_>>()
                .join(" OR ")
        ),
        Predicate::Not(inner) => format!("NOT {}", describe_predicate(inner)),
        Predicate::Cmp { column, op, value } => {
            format!("{column} {} {value}", op.symbol())
        }
        Predicate::In {
            column,
            values,
            negated,
        } => format!(
            "{column} {}IN ({})",
            if *negated { "NOT " } else { "" },
            values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Predicate::Between { column, low, high } => {
            format!("{column} BETWEEN {low} AND {high}")
        }
    }
}

/// Conjuncts cheapest class first, each narrowing the running selection,
/// which starts at `within` (every doc when `None`).
fn eval_and(
    segment: &ImmutableSegment,
    conjuncts: &[Predicate],
    stats: &mut ExecutionStats,
    within: Option<&DocSelection>,
    ctx: &FilterCtx<'_>,
) -> Result<DocSelection> {
    let mut keyed: Vec<(u8, &Predicate)> = conjuncts
        .iter()
        .map(|p| (conjunct_class(segment, p, ctx.mode), p))
        .collect();
    keyed.sort_by_key(|(class, _)| *class);

    let mut sel = within
        .cloned()
        .unwrap_or(DocSelection::All(segment.num_docs()));
    let mut i = 0;
    while i < keyed.len() {
        if sel.is_empty() {
            return Ok(DocSelection::Empty);
        }
        let (class, p) = keyed[i];
        match class {
            CLASS_INVERTED => {
                // IndexAnd: the stable sort groups every inverted-path
                // leaf into one run. With two or more, intersect all
                // their posting unions in a single container-at-a-time
                // k-way pass (smallest input drives) instead of folding
                // pairwise ANDs. Each leaf counts its own postings into
                // the stats exactly as the sequential fold would, and an
                // empty leaf short-circuits the rest.
                let run = keyed[i..]
                    .iter()
                    .take_while(|(c, _)| *c == CLASS_INVERTED)
                    .count();
                if run >= 2 {
                    let mut bms: Vec<RoaringBitmap> = Vec::with_capacity(run);
                    let mut empty = false;
                    for &(_, p) in &keyed[i..i + run] {
                        match eval_leaf(segment, p, stats, None, ctx)? {
                            DocSelection::Bitmap(bm) => bms.push(bm),
                            _ => {
                                empty = true;
                                break;
                            }
                        }
                    }
                    if empty {
                        return Ok(DocSelection::Empty);
                    }
                    if let Some(obs) = ctx.obs {
                        obs.metrics.counter_add("exec.plan_index_and", 1);
                    }
                    let refs: Vec<&RoaringBitmap> = bms.iter().collect();
                    let bm = RoaringBitmap::intersect_many(&refs);
                    if bm.is_empty() {
                        return Ok(DocSelection::Empty);
                    }
                    sel = sel.and(&DocSelection::Bitmap(bm));
                    i += run;
                } else {
                    let s = eval_leaf(segment, p, stats, None, ctx)?;
                    sel = sel.and(&s);
                    i += 1;
                }
            }
            CLASS_SCAN => {
                // Scan leaf: evaluate only within the current selection —
                // the "subsequent operators only evaluate part of the
                // column" rule.
                sel = eval_leaf(segment, p, stats, Some(&sel), ctx)?;
                i += 1;
            }
            CLASS_SUBTREE => {
                // An OR, NOT or nested AND sees only the surviving docs,
                // and its result is the new running selection.
                sel = eval(segment, p, stats, Some(&sel), ctx)?;
                i += 1;
            }
            _ => {
                let s = eval_leaf(segment, p, stats, None, ctx)?;
                sel = sel.and(&s);
                i += 1;
            }
        }
    }
    Ok(sel)
}

fn eval_leaf(
    segment: &ImmutableSegment,
    leaf: &Predicate,
    stats: &mut ExecutionStats,
    within: Option<&DocSelection>,
    ctx: &FilterCtx<'_>,
) -> Result<DocSelection> {
    let matcher = IdMatcher::compile(segment, leaf)?;
    let col = segment.column(&matcher.column)?;

    if matches!(matcher.kind, MatchKind::Nothing) {
        return Ok(DocSelection::Empty);
    }

    let (path, est) = cost::choose_path(segment, leaf, ctx.mode);

    // Evaluate the chosen path to the leaf's own selection; `within` is
    // applied afterwards for the index paths (the scan path is already
    // restricted to it). The observation block below reads the raw
    // selection, so estimated and actual counts cover the same scope.
    let raw = match path {
        // Sorted column: predicates become one contiguous doc range.
        AccessPath::Sorted => {
            let sorted = col.sorted.as_ref().expect("choose_path saw a sorted index");
            match &matcher.kind {
                MatchKind::Range(lo, hi) => {
                    let (s, e) = sorted.doc_range_for_ids(*lo, *hi);
                    stats.num_entries_scanned_in_filter += 2; // two index lookups
                    if s >= e {
                        DocSelection::Empty
                    } else {
                        DocSelection::Range(s, e)
                    }
                }
                MatchKind::Set(ids) => {
                    let mut acc = DocSelection::Empty;
                    for &id in ids {
                        let (s, e) = sorted.doc_range(id);
                        stats.num_entries_scanned_in_filter += 2;
                        if s < e {
                            acc = acc.or(&DocSelection::Range(s, e));
                        }
                    }
                    acc
                }
                MatchKind::Nothing => DocSelection::Empty,
            }
        }
        // Inverted index: bulk container-at-a-time postings union.
        AccessPath::Inverted => {
            let inv = col
                .inverted
                .as_ref()
                .expect("choose_path saw an inverted index");
            let bm = match &matcher.kind {
                MatchKind::Range(lo, hi) => inv.postings_range(*lo, *hi),
                MatchKind::Set(ids) => inv.postings_set(ids),
                MatchKind::Nothing => unreachable!("handled above"),
            };
            stats.num_entries_scanned_in_filter += bm.len();
            if bm.is_empty() {
                DocSelection::Empty
            } else {
                DocSelection::Bitmap(bm)
            }
        }
        AccessPath::Scan => eval_scan(segment, col, &matcher, stats, within),
    };

    // Observation is read-only: path counters, the estimated-vs-actual
    // histogram, and the per-conjunct EXPLAIN ANALYZE report. Scan
    // leaves compare against a scope-scaled estimate because they only
    // ever see the docs surviving earlier conjuncts.
    if ctx.obs.is_some() || ctx.report.is_some() {
        let est_docs = match (path, within) {
            (AccessPath::Scan, Some(w)) => (est.selectivity * w.count() as f64).round() as u64,
            _ => est.est_docs(segment.num_docs() as u64),
        };
        let actual_docs = raw.count();
        if let Some(obs) = ctx.obs {
            obs.metrics.counter_add(
                match path {
                    AccessPath::Sorted => "exec.plan_sorted",
                    AccessPath::Inverted => "exec.plan_inverted",
                    AccessPath::Scan => "exec.plan_scan",
                },
                1,
            );
            obs.metrics.observe_ms(
                "exec.plan_est_vs_actual",
                (est_docs + 1) as f64 / (actual_docs + 1) as f64,
            );
        }
        if let Some(report) = ctx.report {
            let mut label = describe_predicate(leaf);
            label.push_str(" (");
            label.push_str(path.as_str());
            label.push(')');
            report.borrow_mut().push(ConjunctMeasure {
                label: label.into(),
                est_docs,
                actual_docs,
            });
        }
    }

    Ok(match (path, within) {
        (AccessPath::Scan, _) | (_, None) => raw,
        (_, Some(w)) => w.and(&raw),
    })
}

/// Forward-index scan for one leaf, restricted to `within` when given.
fn eval_scan(
    segment: &ImmutableSegment,
    col: &pinot_segment::column::ColumnData,
    matcher: &IdMatcher,
    stats: &mut ExecutionStats,
    within: Option<&DocSelection>,
) -> DocSelection {
    let mut bm = pinot_bitmap::RoaringBitmap::new();
    stats.num_entries_scanned_in_filter += match within {
        Some(w) => w.count(),
        None => segment.num_docs() as u64,
    };
    if col.forward.is_single_value() {
        // Decode dict-id blocks off the forward index and match in id
        // space — no per-doc virtual dispatch or bit math.
        let all;
        let sel: &DocSelection = match within {
            Some(w) => w,
            None => {
                all = DocSelection::All(segment.num_docs());
                &all
            }
        };
        // No block is longer than the selection, so a small running
        // selection needs only that much scratch.
        let scratch = crate::selection::BLOCK_SIZE.min(sel.count() as usize);
        let mut ids: Vec<DictId> = Vec::with_capacity(scratch);
        let mut matched: Vec<u32> = vec![0; scratch];
        sel.for_each_block(|block| {
            crate::batch::decode_block(col, &block, &mut ids);
            // Branchless select: write the doc id unconditionally, bump
            // the cursor only on match — no mispredicted branch at
            // mid-selectivity — then bulk-append the matched prefix.
            let mut m = 0usize;
            match (&block, &matcher.kind) {
                (crate::selection::DocBlock::Run(s, _), MatchKind::Range(lo, hi)) => {
                    for (i, &id) in ids.iter().enumerate() {
                        matched[m] = s + i as u32;
                        m += (id >= *lo && id < *hi) as usize;
                    }
                }
                (crate::selection::DocBlock::Run(s, _), MatchKind::Set(set)) => {
                    for (i, &id) in ids.iter().enumerate() {
                        matched[m] = s + i as u32;
                        m += set.binary_search(&id).is_ok() as usize;
                    }
                }
                (crate::selection::DocBlock::Ids(docs), MatchKind::Range(lo, hi)) => {
                    for (i, &id) in ids.iter().enumerate() {
                        matched[m] = docs[i];
                        m += (id >= *lo && id < *hi) as usize;
                    }
                }
                (crate::selection::DocBlock::Ids(docs), MatchKind::Set(set)) => {
                    for (i, &id) in ids.iter().enumerate() {
                        matched[m] = docs[i];
                        m += set.binary_search(&id).is_ok() as usize;
                    }
                }
                (_, MatchKind::Nothing) => {}
            }
            bm.append_sorted(&matched[..m]);
        });
    } else {
        // Multi-value column: a doc matches when any element does.
        match within {
            Some(w) => {
                w.for_each(|doc| {
                    if matcher.matches_doc(col, doc) {
                        bm.push_back(doc);
                    }
                });
            }
            None => {
                for doc in 0..segment.num_docs() {
                    if matcher.matches_doc(col, doc) {
                        bm.push_back(doc);
                    }
                }
            }
        }
    }
    if bm.is_empty() {
        DocSelection::Empty
    } else {
        DocSelection::Bitmap(bm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, FieldSpec, Record, Schema};
    use pinot_pql::parse;
    use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
    use std::sync::Arc;

    fn segment(sorted: bool, inverted: bool) -> Arc<ImmutableSegment> {
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
        if sorted {
            cfg = cfg.with_sort_columns(&["k"]);
        }
        if inverted {
            cfg = cfg.with_inverted_columns(&["c"]);
        }
        let mut b = SegmentBuilder::new(schema, cfg).unwrap();
        for i in 0..100i64 {
            b.add(Record::new(vec![
                Value::Long(i % 10),
                Value::String(format!("c{}", i % 4)),
                Value::Long(i),
            ]))
            .unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    fn filter_of(q: &str) -> Predicate {
        parse(q).unwrap().filter.unwrap()
    }

    fn docs(sel: &DocSelection) -> Vec<u32> {
        let mut v = Vec::new();
        sel.for_each(|d| v.push(d));
        v
    }

    #[test]
    fn normalize_rewrites_negations() {
        let p = filter_of("SELECT COUNT(*) FROM t WHERE a != 1 AND b NOT IN (2)");
        let n = normalize_predicate(&p);
        match n {
            Predicate::And(parts) => {
                assert!(matches!(&parts[0], Predicate::Not(_)));
                assert!(matches!(&parts[1], Predicate::Not(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sorted_column_yields_ranges() {
        let seg = segment(true, false);
        let mut stats = ExecutionStats::default();
        let sel = evaluate_filter(
            &seg,
            Some(&filter_of("SELECT COUNT(*) FROM t WHERE k = 3")),
            &mut stats,
        )
        .unwrap();
        assert!(matches!(sel, DocSelection::Range(_, _)));
        assert_eq!(sel.count(), 10);
        // Every selected doc has k == 3.
        let col = seg.column("k").unwrap();
        sel.for_each(|d| assert_eq!(col.long(d), Some(3)));
    }

    #[test]
    fn inverted_column_yields_bitmaps() {
        let seg = segment(false, true);
        let mut stats = ExecutionStats::default();
        let sel = evaluate_filter(
            &seg,
            Some(&filter_of("SELECT COUNT(*) FROM t WHERE c = 'c1'")),
            &mut stats,
        )
        .unwrap();
        assert!(matches!(sel, DocSelection::Bitmap(_)));
        assert_eq!(sel.count(), 25);
    }

    #[test]
    fn all_filter_shapes_agree_across_index_types() {
        let queries = [
            "SELECT COUNT(*) FROM t WHERE k = 3",
            "SELECT COUNT(*) FROM t WHERE k != 3",
            "SELECT COUNT(*) FROM t WHERE k > 7",
            "SELECT COUNT(*) FROM t WHERE k BETWEEN 2 AND 4",
            "SELECT COUNT(*) FROM t WHERE k IN (1, 5, 9)",
            "SELECT COUNT(*) FROM t WHERE k NOT IN (1, 5)",
            "SELECT COUNT(*) FROM t WHERE c = 'c2'",
            "SELECT COUNT(*) FROM t WHERE c = 'c2' AND k < 5",
            "SELECT COUNT(*) FROM t WHERE c = 'c2' OR k = 0",
            "SELECT COUNT(*) FROM t WHERE NOT (c = 'c2' OR k = 0)",
            "SELECT COUNT(*) FROM t WHERE c = 'zz'",
            "SELECT COUNT(*) FROM t WHERE m >= 90 AND c = 'c1'",
        ];
        let plain = segment(false, false);
        let sorted = segment(true, false);
        let inverted = segment(false, true);
        for q in queries {
            let pred = filter_of(q);
            let mut s = ExecutionStats::default();
            let a = docs(&evaluate_filter(&plain, Some(&pred), &mut s).unwrap());
            // Sorted segments physically reorder rows, so compare match
            // *counts* plus the multiset of k values.
            let b_sel = evaluate_filter(&sorted, Some(&pred), &mut s).unwrap();
            let c = docs(&evaluate_filter(&inverted, Some(&pred), &mut s).unwrap());
            assert_eq!(a, c, "{q}");
            assert_eq!(a.len() as u64, b_sel.count(), "{q}");
            let key = |seg: &ImmutableSegment, ds: &[u32]| {
                let mut v: Vec<(i64, String)> = ds
                    .iter()
                    .map(|&d| {
                        (
                            seg.column("m").unwrap().long(d).unwrap(),
                            seg.column("c").unwrap().value(d).to_string(),
                        )
                    })
                    .collect();
                v.sort();
                v
            };
            assert_eq!(key(&plain, &a), key(&sorted, &docs(&b_sel)), "{q}");
        }
    }

    #[test]
    fn metadata_only_detection() {
        let seg = segment(false, false);
        let q = parse("SELECT COUNT(*), MIN(m), MAX(m) FROM t").unwrap();
        let vals = metadata_only_plan(&seg, &q).unwrap();
        assert_eq!(vals[0], Value::Long(100));
        assert_eq!(vals[1], Value::Double(0.0));
        assert_eq!(vals[2], Value::Double(99.0));
        // COUNT(col) on a numeric column is num_docs (columns are
        // null-free); on a string column it must keep scanning.
        let vals = metadata_only_plan(&seg, &parse("SELECT COUNT(m) FROM t").unwrap()).unwrap();
        assert_eq!(vals[0], Value::Long(100));
        assert!(metadata_only_plan(&seg, &parse("SELECT COUNT(c) FROM t").unwrap()).is_none());
        // Filter or grouping disables it.
        assert!(
            metadata_only_plan(&seg, &parse("SELECT COUNT(*) FROM t WHERE k = 1").unwrap())
                .is_none()
        );
        assert!(metadata_only_plan(&seg, &parse("SELECT SUM(m) FROM t").unwrap()).is_none());
        assert!(metadata_only_plan(&seg, &parse("SELECT MIN(c) FROM t").unwrap()).is_none());
    }

    #[test]
    fn star_tree_conversion() {
        use pinot_common::config::StarTreeConfig;
        let seg = segment(false, false);
        let tree = pinot_startree::build_star_tree(
            &seg,
            &StarTreeConfig {
                dimensions: vec!["k".into(), "c".into()],
                metrics: vec!["m".into()],
                max_leaf_records: 10,
                skip_star_dimensions: vec![],
            },
        )
        .unwrap();
        let handle = SegmentHandle::new(Arc::clone(&seg)).with_star_tree(Arc::new(tree));
        // Convertible: equality + OR on one dim + group by tree dim.
        let q = parse("SELECT SUM(m) FROM t WHERE k = 1 OR k = 2 GROUP BY c").unwrap();
        let (filters, group) = try_star_tree(&handle, &q).unwrap();
        assert_eq!(filters[0], DimFilter::In(vec![1, 2]));
        assert_eq!(filters[1], DimFilter::Any);
        assert_eq!(group, vec![1]);
        assert_eq!(plan_segment(&handle, &q), PlanKind::StarTree);

        // Range predicates expand to id sets.
        let q = parse("SELECT SUM(m) FROM t WHERE k BETWEEN 2 AND 4").unwrap();
        let (filters, _) = try_star_tree(&handle, &q).unwrap();
        assert_eq!(filters[0], DimFilter::In(vec![2, 3, 4]));

        // Not convertible: DISTINCTCOUNT, NOT, non-tree column, selection.
        for q in [
            "SELECT DISTINCTCOUNT(m) FROM t WHERE k = 1",
            "SELECT SUM(m) FROM t WHERE NOT k = 1",
            "SELECT SUM(m) FROM t WHERE m = 5",
            "SELECT SUM(m) FROM t GROUP BY m",
        ] {
            assert!(try_star_tree(&handle, &parse(q).unwrap()).is_none(), "{q}");
        }
        // Cross-dimension OR cannot navigate the tree.
        let q = parse("SELECT SUM(m) FROM t WHERE k = 1 OR c = 'c1'").unwrap();
        assert!(try_star_tree(&handle, &q).is_none());
    }

    /// An OR or NOT under an AND is evaluated inside the docs the
    /// earlier conjuncts kept: `c = 'c1'` selects 25 of 100 docs through
    /// its inverted index (25 postings), and each unindexed scan leaf
    /// below it then reads those 25 docs instead of all 100.
    #[test]
    fn subtrees_scan_only_the_surviving_docs() {
        let seg = segment(false, true);
        let matching = |keep: fn(u32) -> bool| (0..100).filter(|&d| keep(d)).collect::<Vec<u32>>();
        let cases = [
            (
                "c = 'c1' AND (k = 3 OR m = 5)",
                75,
                matching(|d| d % 4 == 1 && (d % 10 == 3 || d == 5)),
            ),
            (
                "c = 'c1' AND k != 3",
                50,
                matching(|d| d % 4 == 1 && d % 10 != 3),
            ),
            (
                "c = 'c1' AND k NOT IN (3, 5)",
                50,
                matching(|d| d % 4 == 1 && d % 10 != 3 && d % 10 != 5),
            ),
            (
                "c = 'c1' AND NOT (k = 3 OR m > 50)",
                75,
                matching(|d| d % 4 == 1 && d % 10 != 3 && d <= 50),
            ),
        ];
        for (filter, entries, want) in cases {
            let mut stats = ExecutionStats::default();
            let pred = filter_of(&format!("SELECT COUNT(*) FROM t WHERE {filter}"));
            let sel = evaluate_filter(&seg, Some(&pred), &mut stats).unwrap();
            assert_eq!(stats.num_entries_scanned_in_filter, entries, "{filter}");
            assert_eq!(docs(&sel), want, "{filter}");
        }
        // At the top level the same subtrees still see the whole segment.
        let mut stats = ExecutionStats::default();
        let pred = filter_of("SELECT COUNT(*) FROM t WHERE k = 3 OR m = 5");
        let sel = evaluate_filter(&seg, Some(&pred), &mut stats).unwrap();
        assert_eq!(stats.num_entries_scanned_in_filter, 200);
        assert_eq!(docs(&sel), vec![3, 5, 13, 23, 33, 43, 53, 63, 73, 83, 93]);
    }

    #[test]
    fn contradictory_conjuncts_empty() {
        let seg = segment(true, false);
        let mut stats = ExecutionStats::default();
        let sel = evaluate_filter(
            &seg,
            Some(&filter_of("SELECT COUNT(*) FROM t WHERE k = 1 AND k = 2")),
            &mut stats,
        )
        .unwrap();
        assert!(sel.is_empty());
    }
}
