//! Block (vectorized) scan kernels — the engine's only raw-scan operators.
//!
//! The kernels decode [`BLOCK_SIZE`]-doc blocks of dictionary ids
//! ([`ForwardIndex::read_block`]) and stay in id space until
//! finalization, paying one dictionary lookup per *distinct id* instead
//! of one per doc:
//!
//! * aggregations accumulate over decoded id blocks through a
//!   dict-id → f64 lookup table built once per (segment, column);
//! * group-bys hash a composite key of per-column dict ids and
//!   materialize group values from the dictionaries only when the map
//!   is converted to [`GroupKey`]s for merging;
//! * projections decode id blocks and translate ids per row.
//!
//! What varies is chosen from the segment, never from an option: a
//! multi-value group or projection column is read per doc with
//! `get_multi` inside the block loop (group keys expand in id space,
//! one per element); the composite key is one bit-packed `u64` while
//! the summed id widths fit 64 bits and a boxed id slice beyond that.
//! String columns contribute nothing to numeric aggregates (the lut is
//! `None`), accumulation runs in ascending doc order so float sums do
//! not depend on block boundaries, and each (doc, column) read counts
//! one scanned entry.

use crate::aggstate::AggState;
use crate::key::{GroupKey, GroupValue};
use crate::selection::{DocBlock, DocSelection};
use pinot_common::query::ExecutionStats;
use pinot_common::{EngineConfig, Value};
use pinot_obs::Obs;
use pinot_pql::{AggFunction, AggregateExpr};
use pinot_segment::bitpack::bits_needed;
use pinot_segment::column::ColumnData;
use pinot_segment::{DictId, Dictionary};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything one per-segment execution takes besides the segment and
/// the query: the engine's knobs plus the per-request switches.
#[derive(Clone, Default)]
pub struct ExecOptions {
    /// The engine configuration; execution reads `planner` and
    /// `morsel_docs` from it. Servers share their cluster's resolved
    /// value; the default is [`EngineConfig::default`].
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
    pub fn flush(&self, obs: &Obs, elapsed_ns: u64) {
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

/// Dict-id → f64 table for one column (`Dictionary::numeric_of` for
/// every id), `None` for string dictionaries, which contribute nothing to
/// a numeric aggregate. Built per query from the typed value array, one
/// match for the whole table: a selective query over a high-cardinality
/// metric spends most of its scan time here, and a per-id `numeric_of`
/// made that cost swing by ±20% with unrelated edits to this file.
fn numeric_lut(col: &ColumnData) -> Option<Vec<f64>> {
    match &*col.dictionary {
        Dictionary::Int(v) => Some(v.iter().map(|&x| x as f64).collect()),
        Dictionary::Long(v) => Some(v.iter().map(|&x| x as f64).collect()),
        Dictionary::Float(v) => Some(v.iter().map(|&x| x as f64).collect()),
        Dictionary::Double(v) => Some(v.clone()),
        Dictionary::Boolean(v) => Some(v.iter().map(|&x| x as u8 as f64).collect()),
        Dictionary::String(_) => None,
    }
}

/// One distinct aggregation column: shared decode scratch + lut, so two
/// aggregations over the same column decode it once per block.
struct UniqCol<'a> {
    col: &'a ColumnData,
    lut: Option<Vec<f64>>,
    ids: Vec<DictId>,
}

/// Per-aggregation dispatch: which unique column feeds it, if any, and
/// whether it consumes numbers or (DISTINCTCOUNT) the values themselves.
#[derive(Clone, Copy)]
enum AggSource {
    /// COUNT(*)-style: no column, every doc feeds it 0.0.
    NoColumn,
    /// Numeric input through the lut of this unique-column slot.
    Column(usize),
    /// DISTINCTCOUNT over this unique-column slot.
    Distinct(usize),
}

fn unique_columns<'a>(
    aggs: &[AggregateExpr],
    cols: &[Option<&'a ColumnData>],
) -> (Vec<UniqCol<'a>>, Vec<AggSource>) {
    let mut uniq: Vec<UniqCol<'a>> = Vec::new();
    let mut sources = Vec::with_capacity(cols.len());
    for (agg, col) in aggs.iter().zip(cols) {
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
                sources.push(if agg.function == AggFunction::DistinctCount {
                    AggSource::Distinct(slot)
                } else {
                    AggSource::Column(slot)
                });
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
/// Additions run in ascending doc order, so float results do not depend
/// on where block boundaries fall.
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

/// Ungrouped aggregation: SUM/MIN/MAX/COUNT/AVG accumulate over decoded
/// id blocks through the column lut; DISTINCTCOUNT marks a per-id seen
/// table and materializes values once at the end. Columns are
/// single-value — aggregating over a multi-value column is rejected
/// before planning.
pub(crate) fn aggregate_selection(
    aggs: &[AggregateExpr],
    cols: &[Option<&ColumnData>],
    selection: &DocSelection,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> Vec<AggState> {
    let mut states: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.function)).collect();
    let (mut uniq, sources) = unique_columns(aggs, cols);
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
                    if let Some(lut) = &u.lut {
                        accumulate_block(state, lut, &u.ids);
                    }
                }
                AggSource::Distinct(slot) => {
                    entries += len;
                    let seen = &mut seen[i];
                    for &id in &uniq[slot].ids {
                        seen[id as usize] = true;
                    }
                }
            }
        }
    });
    // Late materialization for DISTINCTCOUNT: one dictionary lookup per
    // distinct id actually observed.
    for (i, state) in states.iter_mut().enumerate() {
        if let AggSource::Distinct(slot) = sources[i] {
            let dict = &uniq[slot].col.dictionary;
            for (id, hit) in seen[i].iter().enumerate() {
                if *hit {
                    state.accept_value(&dict.value_of(id as DictId));
                }
            }
        }
    }
    stats.num_entries_scanned_post_filter += entries;
    states
}

/// Layout of the composite group key: per-column bit offsets and masks
/// inside one u64, and the summed id widths that decide whether one u64
/// is enough.
pub(crate) struct KeyLayout {
    shifts: Vec<u32>,
    masks: Vec<u64>,
    total_bits: u32,
}

impl KeyLayout {
    pub(crate) fn new(group_cols: &[&ColumnData]) -> KeyLayout {
        let mut shifts = Vec::with_capacity(group_cols.len());
        let mut masks = Vec::with_capacity(group_cols.len());
        let mut used = 0u32;
        for col in group_cols {
            let max_id = col.dictionary.cardinality().saturating_sub(1) as u32;
            let bits = u32::from(bits_needed(max_id));
            shifts.push(used);
            masks.push((1u64 << bits) - 1);
            used += bits;
        }
        KeyLayout {
            shifts,
            masks,
            total_bits: used,
        }
    }

    /// Do the per-column id widths fit one u64?
    pub(crate) fn fits_u64(&self) -> bool {
        self.total_bits <= 64
    }
}

/// A composite group key in dict-id space: one id slot per group column.
pub(crate) trait PackedKey: Clone + Eq + std::hash::Hash {
    fn empty(layout: &KeyLayout) -> Self;
    /// Fill column `ci`'s slot, which must still be empty.
    fn set(&mut self, layout: &KeyLayout, ci: usize, id: DictId);
    fn get(&self, layout: &KeyLayout, ci: usize) -> DictId;
    /// [`PackedKey::set`] for one decoded block of a single-value column.
    fn set_block(keys: &mut [Self], layout: &KeyLayout, ci: usize, ids: &[DictId]) {
        for (key, &id) in keys.iter_mut().zip(ids) {
            key.set(layout, ci, id);
        }
    }
}

/// The per-column ids bit-packed into one word.
impl PackedKey for u64 {
    #[inline]
    fn empty(_: &KeyLayout) -> u64 {
        0
    }
    #[inline]
    fn set(&mut self, layout: &KeyLayout, ci: usize, id: DictId) {
        *self |= (id as u64) << layout.shifts[ci];
    }
    #[inline]
    fn get(&self, layout: &KeyLayout, ci: usize) -> DictId {
        ((*self >> layout.shifts[ci]) & layout.masks[ci]) as DictId
    }
    /// The column's shift is read once, outside the loop: left to
    /// `set`, the indexed load stays inside it and the loop does not
    /// vectorize (an unfiltered two-column group-by ran 8% slower).
    fn set_block(keys: &mut [u64], layout: &KeyLayout, ci: usize, ids: &[DictId]) {
        let shift = layout.shifts[ci];
        for (key, &id) in keys.iter_mut().zip(ids) {
            *key |= (id as u64) << shift;
        }
    }
}

/// Composite keys wider than 64 bits: the ids side by side.
impl PackedKey for Box<[DictId]> {
    fn empty(layout: &KeyLayout) -> Box<[DictId]> {
        vec![0; layout.shifts.len()].into_boxed_slice()
    }
    fn set(&mut self, _: &KeyLayout, ci: usize, id: DictId) {
        self[ci] = id;
    }
    fn get(&self, _: &KeyLayout, ci: usize) -> DictId {
        self[ci]
    }
}

/// Per-block expansion of multi-value group columns, in id space: each
/// doc's key becomes one key per element (cartesian across several such
/// columns), and `rows[i]` remembers which block row key `i` came from.
struct MultiValueKeys<K> {
    /// Positions of the multi-value columns among the group columns.
    cols: Vec<usize>,
    rows: Vec<u32>,
    keys: Vec<K>,
    elems: Vec<DictId>,
}

impl<K: PackedKey> MultiValueKeys<K> {
    fn new(group_cols: &[&ColumnData]) -> Self {
        MultiValueKeys {
            cols: (0..group_cols.len())
                .filter(|&ci| !group_cols[ci].forward.is_single_value())
                .collect(),
            rows: Vec::new(),
            keys: Vec::new(),
            elems: Vec::new(),
        }
    }

    /// Replace `keys` (one per block row, single-value slots filled) by
    /// the expanded keys. A doc with an empty cell belongs to no group.
    fn expand(
        &mut self,
        keys: &mut Vec<K>,
        group_cols: &[&ColumnData],
        layout: &KeyLayout,
        block: &DocBlock<'_>,
    ) {
        self.keys.clear();
        self.rows.clear();
        for (row, key) in keys.drain(..).enumerate() {
            let start = self.keys.len();
            self.keys.push(key);
            for &ci in &self.cols {
                group_cols[ci]
                    .forward
                    .get_multi(block.doc(row), &mut self.elems);
                let Some((&first, rest)) = self.elems.split_first() else {
                    self.keys.truncate(start);
                    break;
                };
                // Every key of this doc so far fans out once per element;
                // the first element reuses the key in place.
                for i in start..self.keys.len() {
                    for &id in rest {
                        let mut k = self.keys[i].clone();
                        k.set(layout, ci, id);
                        self.keys.push(k);
                    }
                    self.keys[i].set(layout, ci, first);
                }
            }
            self.rows.resize(self.keys.len(), row as u32);
        }
        std::mem::swap(keys, &mut self.keys);
    }
}

/// Group-by: hash a composite key of dict ids per doc, accumulate
/// through column luts (DISTINCTCOUNT through the dictionary), and
/// translate keys to `GroupKey`s only once per group at the end.
/// Single-value group columns decode a block at a time; multi-value
/// ones are expanded per block by [`MultiValueKeys`].
pub(crate) fn group_by_selection<K: PackedKey>(
    aggs: &[AggregateExpr],
    group_cols: &[&ColumnData],
    agg_cols: &[Option<&ColumnData>],
    layout: &KeyLayout,
    selection: &DocSelection,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> HashMap<GroupKey, Vec<AggState>> {
    let (mut uniq, sources) = unique_columns(aggs, agg_cols);
    let mut packed: HashMap<K, Vec<AggState>> = HashMap::new();
    let mut group_ids: Vec<Vec<DictId>> = vec![Vec::new(); group_cols.len()];
    let mut keys: Vec<K> = Vec::new();
    let mut multi = MultiValueKeys::<K>::new(group_cols);
    // A local the block loop can keep in a register; `multi` itself is
    // mutated inside it.
    let has_multi = !multi.cols.is_empty();
    let mut docs = 0u64;
    selection.for_each_block(|block| {
        kstats.observe(&block);
        let len = block.len();
        docs += len as u64;
        keys.clear();
        keys.resize(len, K::empty(layout));
        for (ci, (col, ids)) in group_cols.iter().zip(&mut group_ids).enumerate() {
            if col.forward.is_single_value() {
                decode_block(col, &block, ids);
                K::set_block(&mut keys, layout, ci, ids);
            }
        }
        for u in &mut uniq {
            decode_block(u.col, &block, &mut u.ids);
        }
        if has_multi {
            multi.expand(&mut keys, group_cols, layout, &block);
        }
        for (i, key) in keys.drain(..).enumerate() {
            let row = if has_multi { multi.rows[i] as usize } else { i };
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
                    AggSource::Distinct(slot) => {
                        let u = &uniq[*slot];
                        state.accept_value(&u.col.dictionary.value_of(u.ids[row]));
                    }
                }
            }
        }
    });
    // Each (doc, column) read counts once, however many keys a
    // multi-value doc expands to.
    let per_doc = (group_cols.len() + agg_cols.iter().filter(|c| c.is_some()).count()) as u64;
    stats.num_entries_scanned_post_filter += docs * per_doc;

    // Late materialization: unpack ids from each composite key and look
    // the group values up once per *group*, not once per doc.
    let mut out: HashMap<GroupKey, Vec<AggState>> = HashMap::with_capacity(packed.len());
    for (key, states) in packed {
        let group_key: GroupKey = group_cols
            .iter()
            .enumerate()
            .map(|(ci, col)| GroupValue::from_value(&col.dictionary.value_of(key.get(layout, ci))))
            .collect();
        out.insert(group_key, states);
    }
    out
}

/// Projection: decode id blocks per single-value column, then translate
/// ids row by row up to the limit; multi-value cells are read per doc.
pub(crate) fn select_rows(
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
            if col.forward.is_single_value() {
                decode_block(col, &block, ids);
            }
        }
        let take = (limit - rows.len()).min(block.len());
        for row in 0..take {
            rows.push(
                cols.iter()
                    .zip(&scratch)
                    .map(|(col, ids)| {
                        if col.forward.is_single_value() {
                            col.dictionary.value_of(ids[row])
                        } else {
                            col.value(block.doc(row))
                        }
                    })
                    .collect(),
            );
        }
    });
    stats.num_entries_scanned_post_filter += (rows.len() * cols.len()) as u64;
    rows
}
