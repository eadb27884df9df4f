//! Batched (vectorized) execution kernels.
//!
//! The row path materializes an owned `Value` per doc per column; these
//! kernels instead decode [`BLOCK_SIZE`]-doc blocks of dictionary ids
//! ([`ForwardIndex::read_block`]) and stay in id space until
//! finalization, paying one dictionary lookup per *distinct id* instead
//! of one per doc:
//!
//! * aggregations accumulate over decoded id blocks through a
//!   dict-id → f64 lookup table built once per (segment, column);
//! * single-value group-bys hash a packed composite key — the
//!   per-column dict ids bit-packed into one u64 — and materialize
//!   group values from the dictionaries only when the map is converted
//!   to [`GroupKey`]s for merging;
//! * projections decode id blocks and translate ids per row.
//!
//! Every kernel replicates the row path's observable semantics exactly:
//! string columns contribute nothing to numeric aggregates (the lut is
//! `None`, mirroring `numeric() == None`), accumulation happens in
//! ascending doc order so float sums are bit-identical, and the stats
//! count the same entries. Queries the kernels cannot serve
//! (multi-value columns, DISTINCTCOUNT group-bys, composite keys wider
//! than 64 bits) fall back to the row path, and `EngineConfig::batch =
//! false` forces it globally — the differential suite asserts the two
//! engines are byte-identical.

use crate::aggstate::AggState;
use crate::key::{GroupKey, GroupValue};
use crate::selection::{DocBlock, DocSelection};
use pinot_common::query::ExecutionStats;
use pinot_common::{EngineConfig, Value};
use pinot_obs::Obs;
use pinot_pql::{AggFunction, AggregateExpr};
use pinot_segment::bitpack::bits_needed;
use pinot_segment::column::ColumnData;
use pinot_segment::DictId;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything one per-segment execution takes besides the segment and
/// the query: the engine's knobs plus the per-request switches.
#[derive(Clone, Default)]
pub struct ExecOptions {
    /// The engine configuration; execution reads `batch`, `planner` and
    /// `morsel_docs` from it, EXPLAIN also `prune`. Servers share their
    /// cluster's resolved value; the default is [`EngineConfig::default`].
    pub config: Arc<EngineConfig>,
    /// Metrics sink for kernel counters; optional so tests and the
    /// baseline engine can run without one.
    pub obs: Option<Arc<Obs>>,
    /// Collect a per-operator [`pinot_common::profile::ProfileNode`] tree
    /// alongside the result. Off by default so the unprofiled path stays
    /// untimed; profiling never changes the result payload or stats.
    pub profile: bool,
    /// With `profile`, also collect the per-conjunct access-path report
    /// (chosen path, estimated vs actual docs) rendered by `EXPLAIN
    /// ANALYZE`. Off for plain profiled execution: the report costs an
    /// allocation per filter leaf per segment, which would eat the
    /// profiling plane's overhead budget on hot queries.
    pub analyze: bool,
    /// Pool + deadline + cost gate for morsel fan-out. `None` (the
    /// default) executes morsels inline on the caller thread; results
    /// are byte-identical either way.
    pub parallel: Option<crate::morsel::ParallelExec>,
}

impl ExecOptions {
    /// Morsel size in documents, on the decode-block grid whatever was
    /// assigned to the field.
    pub fn morsel_docs(&self) -> usize {
        crate::morsel::clamp_morsel_docs(self.config.morsel_docs)
    }
}

/// Kernel counters for one segment execution, flushed to obs afterwards.
#[derive(Default)]
pub(crate) struct KernelStats {
    pub blocks: u64,
    pub docs: u64,
}

impl KernelStats {
    pub fn observe(&mut self, block: &DocBlock<'_>) {
        self.blocks += 1;
        self.docs += block.len() as u64;
    }

    /// Record this execution's kernel counters: blocks decoded, docs per
    /// block (fill), and scan cost per doc.
    pub fn flush(&self, obs: &Obs, batch: bool, elapsed_ns: u64) {
        obs.metrics.counter_add(
            if batch {
                "exec.batch_segments"
            } else {
                "exec.row_segments"
            },
            1,
        );
        if self.blocks == 0 {
            return;
        }
        obs.metrics.counter_add("exec.blocks_decoded", self.blocks);
        obs.metrics.counter_add("exec.block_docs", self.docs);
        obs.metrics
            .gauge_set("exec.block_fill_avg", (self.docs / self.blocks) as i64);
        // Calibration sample for the fan-out cost gate. Tiny scans are
        // dominated by fixed per-scan setup, so (elapsed / docs) at small
        // doc counts wildly overstates the *marginal* cost a fan-out
        // decision cares about; only scans spanning several full blocks
        // contribute.
        if self.docs >= 8 * crate::selection::BLOCK_SIZE as u64 {
            obs.metrics.observe_ms(
                "exec.scan_ns_per_doc",
                elapsed_ns as f64 / self.docs.max(1) as f64,
            );
        }
    }
}

/// Decode one block of dict ids for a single-value column into `scratch`.
#[inline]
pub(crate) fn decode_block(col: &ColumnData, block: &DocBlock<'_>, scratch: &mut Vec<DictId>) {
    scratch.clear();
    match block {
        DocBlock::Run(s, e) => {
            scratch.resize((*e - *s) as usize, 0);
            col.forward.read_block(*s, scratch);
        }
        DocBlock::Ids(ids) => scratch.extend(ids.iter().map(|&d| col.forward.get(d))),
    }
}

/// Dict-id → f64 table for one column, `None` for string dictionaries —
/// exactly the ids the row path's `numeric()` skips.
fn numeric_lut(col: &ColumnData) -> Option<Vec<f64>> {
    let card = col.dictionary.cardinality();
    if card == 0 {
        // Empty dictionary: no doc can reference an id either way.
        return Some(Vec::new());
    }
    col.dictionary.numeric_of(0)?;
    Some(
        (0..card as DictId)
            .map(|id| {
                col.dictionary
                    .numeric_of(id)
                    .expect("dictionary values share one type")
            })
            .collect(),
    )
}

/// One distinct aggregation column: shared decode scratch + lut, so two
/// aggregations over the same column decode it once per block.
struct UniqCol<'a> {
    col: &'a ColumnData,
    lut: Option<Vec<f64>>,
    ids: Vec<DictId>,
}

/// Per-aggregation dispatch: which unique column feeds it, if any.
enum AggSource {
    /// COUNT(*)-style: no column, the row path feeds it 0.0 per doc.
    NoColumn,
    /// Index into the unique-column table.
    Column(usize),
}

fn unique_columns<'a>(cols: &[Option<&'a ColumnData>]) -> (Vec<UniqCol<'a>>, Vec<AggSource>) {
    let mut uniq: Vec<UniqCol<'a>> = Vec::new();
    let mut sources = Vec::with_capacity(cols.len());
    for col in cols {
        match col {
            None => sources.push(AggSource::NoColumn),
            Some(col) => {
                let slot = uniq
                    .iter()
                    .position(|u| u.col.spec.name == col.spec.name)
                    .unwrap_or_else(|| {
                        uniq.push(UniqCol {
                            col,
                            lut: numeric_lut(col),
                            ids: Vec::new(),
                        });
                        uniq.len() - 1
                    });
                sources.push(AggSource::Column(slot));
            }
        }
    }
    (uniq, sources)
}

/// `accept_numeric(0.0)` repeated `n` times, collapsed. Only ever fed
/// zeros (column-less aggregations), so the float results are exact.
fn accept_zero_repeated(state: &mut AggState, n: u64) {
    if n == 0 {
        return;
    }
    match state {
        AggState::Count(c) => *c += n,
        AggState::Sum(_) => {} // += 0.0, n times
        AggState::Min(m) => *m = m.min(0.0),
        AggState::Max(m) => *m = m.max(0.0),
        AggState::Avg { count, .. } => *count += n, // sum += 0.0
        AggState::Distinct(set) => {
            set.insert(GroupValue::from_value(&Value::Double(0.0)));
        }
    }
}

/// Accumulate one decoded id block into a state through the column lut.
/// Additions run in ascending doc order, so float results match the row
/// path bit for bit.
#[inline]
fn accumulate_block(state: &mut AggState, lut: &[f64], ids: &[DictId]) {
    match state {
        AggState::Count(n) => *n += ids.len() as u64,
        AggState::Sum(s) => {
            for &id in ids {
                *s += lut[id as usize];
            }
        }
        AggState::Min(m) => {
            for &id in ids {
                *m = m.min(lut[id as usize]);
            }
        }
        AggState::Max(m) => {
            for &id in ids {
                *m = m.max(lut[id as usize]);
            }
        }
        AggState::Avg { sum, count } => {
            for &id in ids {
                *sum += lut[id as usize];
            }
            *count += ids.len() as u64;
        }
        AggState::Distinct(_) => unreachable!("distinct accumulates in id space"),
    }
}

/// Can the batched ungrouped-aggregation kernel serve these columns?
pub(crate) fn aggregate_eligible(cols: &[Option<&ColumnData>]) -> bool {
    cols.iter()
        .all(|c| c.is_none_or(|c| c.forward.is_single_value()))
}

/// Batched ungrouped aggregation: SUM/MIN/MAX/COUNT/AVG accumulate over
/// decoded id blocks through the column lut; DISTINCTCOUNT marks a
/// per-id seen table and materializes values once at the end.
pub(crate) fn aggregate_selection_batch(
    aggs: &[AggregateExpr],
    cols: &[Option<&ColumnData>],
    selection: &DocSelection,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> Vec<AggState> {
    let mut states: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.function)).collect();
    let (mut uniq, sources) = unique_columns(cols);
    // Per-aggregation seen table for DISTINCTCOUNT (id space).
    let mut seen: Vec<Vec<bool>> = aggs
        .iter()
        .zip(cols)
        .map(|(a, c)| match (a.function, c) {
            (AggFunction::DistinctCount, Some(c)) => vec![false; c.dictionary.cardinality()],
            _ => Vec::new(),
        })
        .collect();
    let mut entries = 0u64;
    selection.for_each_block(|block| {
        kstats.observe(&block);
        let len = block.len() as u64;
        for u in &mut uniq {
            decode_block(u.col, &block, &mut u.ids);
        }
        for (i, state) in states.iter_mut().enumerate() {
            match sources[i] {
                AggSource::NoColumn => accept_zero_repeated(state, len),
                AggSource::Column(slot) => {
                    let u = &uniq[slot];
                    entries += len;
                    if matches!(state, AggState::Distinct(_)) {
                        let seen = &mut seen[i];
                        for &id in &u.ids {
                            seen[id as usize] = true;
                        }
                    } else if let Some(lut) = &u.lut {
                        accumulate_block(state, lut, &u.ids);
                    }
                }
            }
        }
    });
    // Late materialization for DISTINCTCOUNT: one dictionary lookup per
    // distinct id actually observed.
    for (i, state) in states.iter_mut().enumerate() {
        if let AggSource::Column(slot) = sources[i] {
            if matches!(state, AggState::Distinct(_)) {
                let dict = &uniq[slot].col.dictionary;
                for (id, hit) in seen[i].iter().enumerate() {
                    if *hit {
                        state.accept_value(&dict.value_of(id as DictId));
                    }
                }
            }
        }
    }
    stats.num_entries_scanned_post_filter += entries;
    states
}

/// Layout of the packed composite group key: per-column bit offsets and
/// masks inside one u64.
pub(crate) struct PackedKeyLayout {
    shifts: Vec<u32>,
    masks: Vec<u64>,
}

/// Decide whether the packed-key group-by kernel can serve this query:
/// single-value columns only, no DISTINCTCOUNT, and the per-column id
/// widths must fit one u64. `None` falls back to the `GroupKey` path.
pub(crate) fn group_by_layout(
    aggs: &[AggregateExpr],
    group_cols: &[&ColumnData],
    agg_cols: &[Option<&ColumnData>],
) -> Option<PackedKeyLayout> {
    if aggs
        .iter()
        .any(|a| a.function == AggFunction::DistinctCount)
    {
        return None;
    }
    if agg_cols
        .iter()
        .any(|c| c.is_some_and(|c| !c.forward.is_single_value()))
    {
        return None;
    }
    let mut shifts = Vec::with_capacity(group_cols.len());
    let mut masks = Vec::with_capacity(group_cols.len());
    let mut used = 0u32;
    for col in group_cols {
        if !col.forward.is_single_value() {
            return None;
        }
        let max_id = col.dictionary.cardinality().saturating_sub(1) as u32;
        let bits = u32::from(bits_needed(max_id));
        if used + bits > 64 {
            return None; // cardinalities too wide for one u64
        }
        shifts.push(used);
        masks.push(if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        });
        used += bits;
    }
    Some(PackedKeyLayout { shifts, masks })
}

/// Batched single-value group-by: hash a packed u64 of dict ids per doc,
/// accumulate through column luts, and translate keys to `GroupKey`s
/// only once per group at the end.
pub(crate) fn group_by_selection_batch(
    aggs: &[AggregateExpr],
    group_cols: &[&ColumnData],
    agg_cols: &[Option<&ColumnData>],
    layout: &PackedKeyLayout,
    selection: &DocSelection,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> HashMap<GroupKey, Vec<AggState>> {
    let (mut uniq, sources) = unique_columns(agg_cols);
    let mut packed: HashMap<u64, Vec<AggState>> = HashMap::new();
    let mut group_ids: Vec<Vec<DictId>> = vec![Vec::new(); group_cols.len()];
    let mut keys: Vec<u64> = Vec::new();
    let mut docs = 0u64;
    selection.for_each_block(|block| {
        kstats.observe(&block);
        let len = block.len();
        docs += len as u64;
        for (col, ids) in group_cols.iter().zip(&mut group_ids) {
            decode_block(col, &block, ids);
        }
        keys.clear();
        keys.resize(len, 0);
        for (ids, &shift) in group_ids.iter().zip(&layout.shifts) {
            for (key, &id) in keys.iter_mut().zip(ids) {
                *key |= (id as u64) << shift;
            }
        }
        for u in &mut uniq {
            decode_block(u.col, &block, &mut u.ids);
        }
        for (row, &key) in keys.iter().enumerate() {
            let states = packed
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.function)).collect());
            for (state, source) in states.iter_mut().zip(&sources) {
                match source {
                    AggSource::NoColumn => accept_zero_repeated(state, 1),
                    AggSource::Column(slot) => {
                        let u = &uniq[*slot];
                        if let Some(lut) = &u.lut {
                            state.accept_numeric(lut[u.ids[row] as usize]);
                        }
                    }
                }
            }
        }
    });
    // Each (doc, column) read counts once — same rule as the row path.
    let per_doc = (group_cols.len() + agg_cols.iter().filter(|c| c.is_some()).count()) as u64;
    stats.num_entries_scanned_post_filter += docs * per_doc;

    // Late materialization: unpack ids from each composite key and look
    // the group values up once per *group*, not once per doc.
    let mut out: HashMap<GroupKey, Vec<AggState>> = HashMap::with_capacity(packed.len());
    for (key, states) in packed {
        let group_key: GroupKey = group_cols
            .iter()
            .enumerate()
            .map(|(ci, col)| {
                let id = ((key >> layout.shifts[ci]) & layout.masks[ci]) as DictId;
                GroupValue::from_value(&col.dictionary.value_of(id))
            })
            .collect();
        out.insert(group_key, states);
    }
    out
}

/// Can the batched projection kernel serve these columns?
pub(crate) fn select_eligible(cols: &[&ColumnData]) -> bool {
    cols.iter().all(|c| c.forward.is_single_value())
}

/// Batched projection: decode id blocks per column, then translate ids
/// row by row up to the limit.
pub(crate) fn select_rows_batch(
    cols: &[&ColumnData],
    selection: &DocSelection,
    limit: usize,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut scratch: Vec<Vec<DictId>> = vec![Vec::new(); cols.len()];
    selection.for_each_block(|block| {
        if rows.len() >= limit {
            return;
        }
        kstats.observe(&block);
        for (col, ids) in cols.iter().zip(&mut scratch) {
            decode_block(col, &block, ids);
        }
        let take = (limit - rows.len()).min(block.len());
        for row in 0..take {
            rows.push(
                cols.iter()
                    .zip(&scratch)
                    .map(|(col, ids)| col.dictionary.value_of(ids[row]))
                    .collect(),
            );
        }
    });
    stats.num_entries_scanned_post_filter += (rows.len() * cols.len()) as u64;
    rows
}
