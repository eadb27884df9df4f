//! Block (vectorized) scan kernels — the engine's only raw-scan operators.
//!
//! The kernels decode [`BLOCK_SIZE`]-doc blocks of dictionary ids
//! ([`ForwardIndex::read_block`]) and stay in id space until
//! finalization, paying one dictionary lookup per *distinct id* instead
//! of one per doc:
//!
//! * aggregations widen each decoded id block off the typed dictionary
//!   into a block-sized `f64` scratch, one `match` per block, so their
//!   set-up does not grow with the dictionary;
//! * group-bys map a composite key of per-column dict ids to a dense
//!   slot (a flat table when the key space is no larger than the
//!   selection, a hash map otherwise) and materialize group values from
//!   the dictionaries only when the slots are converted to
//!   [`GroupKey`]s for merging;
//! * projections decode id blocks and translate ids per row.
//!
//! What varies is chosen from the segment, never from an option: a
//! multi-value group or projection column is read per doc with
//! `get_multi` inside the block loop (group keys expand in id space,
//! one per element); the composite key is one bit-packed `u64` while
//! the summed id widths fit 64 bits and a boxed id slice beyond that.
//! String columns contribute nothing to numeric aggregates (they are
//! never widened), accumulation runs in ascending doc order so float
//! sums do not depend on block boundaries, and each (doc, column) read
//! counts one scanned entry.
//!
//! [`BLOCK_SIZE`]: crate::selection::BLOCK_SIZE
//! [`ForwardIndex::read_block`]: pinot_segment::forward::ForwardIndex::read_block

use crate::aggstate::{AggState, DistinctSet};
use crate::cost::PlannerMode;
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
    /// The engine configuration; execution reads `morsel_docs` from it.
    /// Servers share their cluster's resolved value; the default is
    /// [`EngineConfig::default`].
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
    /// Access-path strategy for filter leaves. Production execution keeps
    /// the default, [`PlannerMode::Auto`]; tests pin a forced mode to
    /// isolate one strategy, and every mode returns the same bytes.
    pub planner: PlannerMode,
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

/// One distinct aggregation column: shared decode scratch, so two
/// aggregations over the same column decode it once per block, and the
/// block's values widened to `f64` when a numeric aggregation reads them.
struct UniqCol<'a> {
    col: &'a ColumnData,
    ids: Vec<DictId>,
    /// Set when a SUM/MIN/MAX/AVG/COUNT reads this (numeric) column.
    widen: bool,
    vals: Vec<f64>,
}

impl UniqCol<'_> {
    /// Decode this block's ids and, if a numeric aggregation reads the
    /// column, widen them off the typed dictionary slice: one `match` per
    /// block, block-sized scratch whatever the dictionary's size.
    #[inline]
    fn load(&mut self, block: &DocBlock<'_>) {
        decode_block(self.col, block, &mut self.ids);
        if !self.widen {
            return;
        }
        let (ids, out) = (&self.ids, &mut self.vals);
        out.clear();
        match &*self.col.dictionary {
            Dictionary::Int(v) => out.extend(ids.iter().map(|&id| v[id as usize] as f64)),
            Dictionary::Long(v) => out.extend(ids.iter().map(|&id| v[id as usize] as f64)),
            Dictionary::Float(v) => out.extend(ids.iter().map(|&id| v[id as usize] as f64)),
            Dictionary::Double(v) => out.extend(ids.iter().map(|&id| v[id as usize])),
            Dictionary::Boolean(v) => out.extend(ids.iter().map(|&id| v[id as usize] as u8 as f64)),
            Dictionary::String(_) => unreachable!("string columns are never widened"),
        }
    }
}

/// Per-aggregation dispatch: which unique column feeds it, if any, and
/// whether it consumes numbers or (DISTINCTCOUNT) the values themselves.
#[derive(Clone, Copy)]
enum AggSource {
    /// COUNT(*)-style: no column, every doc feeds it 0.0.
    NoColumn,
    /// Numeric input: the widened values of this unique-column slot.
    Numeric(usize),
    /// A string column under a numeric aggregation: read and counted,
    /// but it contributes no number.
    NonNumeric,
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
        let Some(col) = col else {
            sources.push(AggSource::NoColumn);
            continue;
        };
        let distinct = agg.function == AggFunction::DistinctCount;
        let numeric = !matches!(&*col.dictionary, Dictionary::String(_));
        if !distinct && !numeric {
            sources.push(AggSource::NonNumeric);
            continue;
        }
        let slot = uniq
            .iter()
            .position(|u| u.col.spec.name == col.spec.name)
            .unwrap_or_else(|| {
                uniq.push(UniqCol {
                    col,
                    ids: Vec::new(),
                    widen: false,
                    vals: Vec::new(),
                });
                uniq.len() - 1
            });
        if distinct {
            sources.push(AggSource::Distinct(slot));
        } else {
            uniq[slot].widen = true;
            sources.push(AggSource::Numeric(slot));
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
        AggState::Distinct(_) => state.accept_numeric(0.0),
    }
}

/// Accumulate one block of widened values into a state. Additions run
/// in ascending doc order, so float results do not depend on where block
/// boundaries fall.
#[inline]
fn accumulate_block(state: &mut AggState, vals: &[f64]) {
    match state {
        AggState::Count(n) => *n += vals.len() as u64,
        AggState::Sum(s) => {
            for &x in vals {
                *s += x;
            }
        }
        AggState::Min(m) => {
            for &x in vals {
                *m = m.min(x);
            }
        }
        AggState::Max(m) => {
            for &x in vals {
                *m = m.max(x);
            }
        }
        AggState::Avg { sum, count } => {
            for &x in vals {
                *sum += x;
            }
            *count += vals.len() as u64;
        }
        AggState::Distinct(_) => unreachable!("distinct accumulates in id space"),
    }
}

/// A DISTINCTCOUNT's ids seen so far, one bit per dictionary id.
struct SeenIds(Vec<u64>);

impl SeenIds {
    fn new(cardinality: usize) -> SeenIds {
        SeenIds(vec![0; cardinality.div_ceil(64)])
    }

    #[inline]
    fn mark(&mut self, ids: &[DictId]) {
        for &id in ids {
            self.0[id as usize >> 6] |= 1 << (id & 63);
        }
    }

    /// Late materialization: the ids seen, in ascending order, read off
    /// the typed dictionary once each.
    fn materialize(&self, dict: &Dictionary) -> DistinctSet {
        let mut ids = Vec::with_capacity(self.0.iter().map(|w| w.count_ones() as usize).sum());
        for (w, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                ids.push((w << 6) as DictId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        DistinctSet::from_dictionary(dict, &ids)
    }
}

/// Append `id` to one group's DISTINCTCOUNT id list. A full list is
/// sorted and deduplicated in place before it grows, so it holds at most
/// about twice its distinct ids, and each id costs amortized `O(log n)`.
#[inline]
fn push_distinct_id(ids: &mut Vec<DictId>, id: DictId) {
    if ids.len() == ids.capacity() {
        ids.sort_unstable();
        ids.dedup();
        ids.reserve(ids.len());
    }
    ids.push(id);
}

/// Ungrouped aggregation: SUM/MIN/MAX/COUNT/AVG accumulate over each
/// block's widened values; DISTINCTCOUNT marks a per-id seen bitset and
/// materializes values once at the end. Columns are single-value —
/// aggregating over a multi-value column is rejected before planning.
pub(crate) fn aggregate_selection(
    aggs: &[AggregateExpr],
    cols: &[Option<&ColumnData>],
    selection: &DocSelection,
    stats: &mut ExecutionStats,
    kstats: &mut KernelStats,
) -> Vec<AggState> {
    let mut states: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.function)).collect();
    let (mut uniq, sources) = unique_columns(aggs, cols);
    let mut seen: Vec<Option<SeenIds>> = sources
        .iter()
        .map(|s| match s {
            AggSource::Distinct(slot) => {
                Some(SeenIds::new(uniq[*slot].col.dictionary.cardinality()))
            }
            _ => None,
        })
        .collect();
    let mut entries = 0u64;
    selection.for_each_block(|block| {
        kstats.observe(&block);
        let len = block.len() as u64;
        for u in &mut uniq {
            u.load(&block);
        }
        for ((state, source), seen) in states.iter_mut().zip(&sources).zip(&mut seen) {
            match source {
                AggSource::NoColumn => accept_zero_repeated(state, len),
                AggSource::Numeric(slot) => {
                    entries += len;
                    accumulate_block(state, &uniq[*slot].vals);
                }
                AggSource::NonNumeric => entries += len,
                AggSource::Distinct(slot) => {
                    entries += len;
                    if let Some(seen) = seen {
                        seen.mark(&uniq[*slot].ids);
                    }
                }
            }
        }
    });
    for ((state, source), seen) in states.iter_mut().zip(&sources).zip(&seen) {
        if let (AggSource::Distinct(slot), Some(seen)) = (source, seen) {
            *state = AggState::Distinct(seen.materialize(&uniq[*slot].col.dictionary));
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
    /// The key as an index into a slot table, when it is one word.
    fn as_index(&self) -> Option<usize>;
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
    #[inline]
    fn as_index(&self) -> Option<usize> {
        Some(*self as usize)
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
    fn as_index(&self) -> Option<usize> {
        None
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

/// Packed key → dense group slot, numbered in first-seen order.
enum Slots<K> {
    /// Indexed by the packed key itself; `u32::MAX` marks an unseen key.
    Table(Vec<u32>),
    Hash(HashMap<K, u32>),
}

impl<K: PackedKey> Slots<K> {
    /// A flat table when the key space is no larger than the selection
    /// (or one block), so the table costs no more than the scan; a hash
    /// map otherwise.
    fn new(layout: &KeyLayout, selected: u64) -> Slots<K> {
        let limit = (selected as usize).max(crate::selection::BLOCK_SIZE);
        let one_word = K::empty(layout).as_index().is_some();
        if one_word && layout.total_bits < usize::BITS && 1usize << layout.total_bits <= limit {
            Slots::Table(vec![u32::MAX; 1 << layout.total_bits])
        } else {
            Slots::Hash(HashMap::new())
        }
    }

    /// The key's slot; a first-seen key gets the next one and is
    /// appended to `keys`, which maps slots back to keys.
    #[inline]
    fn slot(&mut self, key: K, keys: &mut Vec<K>) -> usize {
        let next = keys.len() as u32;
        let slot = match self {
            Slots::Table(table) => {
                let cell = &mut table[key.as_index().expect("table keys are one word")];
                if *cell == u32::MAX {
                    *cell = next;
                }
                *cell
            }
            Slots::Hash(map) => match map.get(&key) {
                Some(&slot) => slot,
                None => {
                    map.insert(key.clone(), next);
                    next
                }
            },
        };
        if slot == next {
            keys.push(key);
        }
        slot as usize
    }
}

/// Group-by: map a composite key of dict ids per doc to a dense slot,
/// accumulate each slot's states from the block's widened values
/// (DISTINCTCOUNT as a per-slot list of dict ids), and translate keys
/// and id lists to values only once per group at the end. Single-value
/// group columns decode a block at a time; multi-value ones are expanded
/// per block by [`MultiValueKeys`].
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
    let n = aggs.len();
    let mut slots = Slots::<K>::new(layout, selection.count());
    // Slot `s` is `slot_keys[s]`, and its states are `states[s * n..][..n]`.
    let mut slot_keys: Vec<K> = Vec::new();
    let mut states: Vec<AggState> = Vec::new();
    // DISTINCTCOUNT's dict ids, parallel to `states`; kept only when the
    // query has one.
    let has_distinct = sources.iter().any(|s| matches!(s, AggSource::Distinct(_)));
    let mut distinct_ids: Vec<Vec<DictId>> = Vec::new();
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
            u.load(&block);
        }
        if has_multi {
            multi.expand(&mut keys, group_cols, layout, &block);
        }
        for (i, key) in keys.drain(..).enumerate() {
            let row = if has_multi { multi.rows[i] as usize } else { i };
            let slot = slots.slot(key, &mut slot_keys);
            if states.len() == slot * n {
                states.extend(aggs.iter().map(|a| AggState::new(a.function)));
                if has_distinct {
                    distinct_ids.resize_with(states.len(), Vec::new);
                }
            }
            let slot_states = states[slot * n..][..n].iter_mut().zip(&sources);
            for (k, (state, source)) in slot_states.enumerate() {
                match source {
                    AggSource::NoColumn => accept_zero_repeated(state, 1),
                    AggSource::Numeric(u) => state.accept_numeric(uniq[*u].vals[row]),
                    AggSource::NonNumeric => {}
                    AggSource::Distinct(u) => {
                        push_distinct_id(&mut distinct_ids[slot * n + k], uniq[*u].ids[row]);
                    }
                }
            }
        }
    });
    // Each (doc, column) read counts once, however many keys a
    // multi-value doc expands to.
    let per_doc = (group_cols.len() + agg_cols.iter().filter(|c| c.is_some()).count()) as u64;
    stats.num_entries_scanned_post_filter += docs * per_doc;

    // Late materialization: unpack ids from each slot's key and look the
    // group values up once per *group*, not once per doc. Two ids can
    // share one canonical value (`0.0` and `-0.0` in a DOUBLE
    // dictionary); their slots merge, in slot order. A DISTINCTCOUNT's
    // id list is sorted and deduplicated in id space first.
    let mut out: HashMap<GroupKey, Vec<AggState>> = HashMap::with_capacity(slot_keys.len());
    let mut states = states.into_iter();
    for (slot, key) in slot_keys.into_iter().enumerate() {
        let group_key: GroupKey = group_cols
            .iter()
            .enumerate()
            .map(|(ci, col)| GroupValue::from_value(&col.dictionary.value_of(key.get(layout, ci))))
            .collect();
        let mut group: Vec<AggState> = states.by_ref().take(n).collect();
        for (k, (state, source)) in group.iter_mut().zip(&sources).enumerate() {
            if let AggSource::Distinct(u) = source {
                let ids = &mut distinct_ids[slot * n + k];
                ids.sort_unstable();
                ids.dedup();
                let set = DistinctSet::from_dictionary(&uniq[*u].col.dictionary, ids);
                *state = AggState::Distinct(set);
            }
        }
        crate::merge::merge_group(&mut out, group_key, group)
            .expect("states of one aggregation merge");
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
