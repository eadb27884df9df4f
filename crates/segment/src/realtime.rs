//! Columnar storage internals of a consuming segment.
//!
//! Each column of a consuming segment keeps an *insertion-ordered* mutable
//! dictionary (value → id in first-seen order) and a chunked forward vector
//! of insertion ids: sealed fixed-size bit-packed chunks shared by `Arc`
//! plus a row-wise tail for the open chunk. A consistent cut translates
//! insertion ids to sorted-dictionary ids through a cached `remap`, giving
//! queries the exact same sorted-dictionary semantics as offline segments
//! (range predicates → contiguous id intervals, exact zone maps) without
//! rebuilding anything row-wise.
//!
//! Invariant relied on by truncation: insertion ids are dense and assigned
//! in first-seen order, so the ids referenced by the first `k` rows are
//! exactly `0..=max_referenced_id` — rolling back the dictionary is a
//! truncate, never a compaction.

use crate::bitpack::PackedIntVec;
use crate::bloom;
use crate::builder::BuilderConfig;
use crate::column::ColumnData;
use crate::dictionary::Dictionary;
use crate::forward::{ForwardIndex, CHUNK_ROWS};
use crate::inverted::InvertedIndex;
use crate::metadata::SegmentMetadata;
use crate::segment::ImmutableSegment;
use crate::sorted_index::SortedIndex;
use crate::DictId;
use pinot_common::{DataType, FieldSpec, PinotError, Result, Schema, Value};
use pinot_taskpool::{Deadline, TaskPool};
use std::collections::HashMap;
use std::sync::Arc;

/// Hash key for one distinct value. Numeric keys coerce the same way
/// [`Dictionary::build`] does (schema validation admits INT values into
/// LONG columns and FLOAT into DOUBLE, so `Int(5)` and `Long(5)` must
/// intern to one id); floats key by bit pattern, which matches the
/// `total_cmp` dedup of the sorted dictionary exactly (NaN payloads and
/// signed zeros stay distinct in both).
#[derive(PartialEq, Eq, Hash)]
enum DictKey {
    I64(i64),
    F32(u32),
    F64(u64),
    Str(String),
    Bool(bool),
}

fn key_of(data_type: DataType, v: &Value) -> Option<DictKey> {
    match data_type {
        DataType::Int => v.as_i64().map(|x| DictKey::I64(x as i32 as i64)),
        DataType::Long => v.as_i64().map(DictKey::I64),
        DataType::Float => v.as_f64().map(|x| DictKey::F32((x as f32).to_bits())),
        DataType::Double => v.as_f64().map(|x| DictKey::F64(x.to_bits())),
        DataType::String => v.as_str().map(|s| DictKey::Str(s.to_string())),
        DataType::Boolean => match v {
            Value::Boolean(b) => Some(DictKey::Bool(*b)),
            _ => None,
        },
    }
}

/// Distinct values of one column in insertion order.
enum TypedVals {
    Int(Vec<i32>),
    Long(Vec<i64>),
    Float(Vec<f32>),
    Double(Vec<f64>),
    Str(Vec<String>),
    Bool(Vec<bool>),
}

impl TypedVals {
    fn new(data_type: DataType) -> TypedVals {
        match data_type {
            DataType::Int => TypedVals::Int(Vec::new()),
            DataType::Long => TypedVals::Long(Vec::new()),
            DataType::Float => TypedVals::Float(Vec::new()),
            DataType::Double => TypedVals::Double(Vec::new()),
            DataType::String => TypedVals::Str(Vec::new()),
            DataType::Boolean => TypedVals::Bool(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            TypedVals::Int(v) => v.len(),
            TypedVals::Long(v) => v.len(),
            TypedVals::Float(v) => v.len(),
            TypedVals::Double(v) => v.len(),
            TypedVals::Str(v) => v.len(),
            TypedVals::Bool(v) => v.len(),
        }
    }

    /// Push the typed form of `v`; coercion mirrors [`key_of`].
    fn push(&mut self, v: &Value) -> Option<()> {
        match self {
            TypedVals::Int(d) => d.push(v.as_i64()? as i32),
            TypedVals::Long(d) => d.push(v.as_i64()?),
            TypedVals::Float(d) => d.push(v.as_f64()? as f32),
            TypedVals::Double(d) => d.push(v.as_f64()?),
            TypedVals::Str(d) => d.push(v.as_str()?.to_string()),
            TypedVals::Bool(d) => match v {
                Value::Boolean(b) => d.push(*b),
                _ => return None,
            },
        }
        Some(())
    }

    fn truncate(&mut self, keep: usize) {
        match self {
            TypedVals::Int(v) => v.truncate(keep),
            TypedVals::Long(v) => v.truncate(keep),
            TypedVals::Float(v) => v.truncate(keep),
            TypedVals::Double(v) => v.truncate(keep),
            TypedVals::Str(v) => v.truncate(keep),
            TypedVals::Bool(v) => v.truncate(keep),
        }
    }

    /// Argsort of the distinct values by the same comparators
    /// [`Dictionary::build`] sorts with. Values are distinct, so an
    /// unstable sort is deterministic.
    fn argsort(&self) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        match self {
            TypedVals::Int(v) => perm.sort_unstable_by_key(|&i| v[i as usize]),
            TypedVals::Long(v) => perm.sort_unstable_by_key(|&i| v[i as usize]),
            TypedVals::Float(v) => {
                perm.sort_unstable_by(|&a, &b| v[a as usize].total_cmp(&v[b as usize]))
            }
            TypedVals::Double(v) => {
                perm.sort_unstable_by(|&a, &b| v[a as usize].total_cmp(&v[b as usize]))
            }
            TypedVals::Str(v) => perm.sort_unstable_by(|&a, &b| v[a as usize].cmp(&v[b as usize])),
            TypedVals::Bool(v) => perm.sort_unstable_by_key(|&i| v[i as usize]),
        }
        perm
    }

    /// Sorted [`Dictionary`] over the permutation from [`argsort`].
    fn sorted_dictionary(&self, perm: &[u32]) -> Dictionary {
        match self {
            TypedVals::Int(v) => Dictionary::Int(perm.iter().map(|&i| v[i as usize]).collect()),
            TypedVals::Long(v) => Dictionary::Long(perm.iter().map(|&i| v[i as usize]).collect()),
            TypedVals::Float(v) => Dictionary::Float(perm.iter().map(|&i| v[i as usize]).collect()),
            TypedVals::Double(v) => {
                Dictionary::Double(perm.iter().map(|&i| v[i as usize]).collect())
            }
            TypedVals::Str(v) => {
                Dictionary::String(perm.iter().map(|&i| v[i as usize].clone()).collect())
            }
            TypedVals::Bool(v) => {
                Dictionary::Boolean(perm.iter().map(|&i| v[i as usize]).collect())
            }
        }
    }
}

/// Append-only value → id map with a cached sorted view.
///
/// Ids are dense first-seen insertion ids. The sorted view (a regular
/// [`Dictionary`] plus an insertion-id → sorted-id remap) is rebuilt only
/// when the cardinality — the dictionary *generation* — has changed since
/// it was last taken, so steady-state cuts of a segment whose value domain
/// has saturated are O(1) per column.
struct MutableDictionary {
    data_type: DataType,
    vals: TypedVals,
    index: HashMap<DictKey, DictId>,
    sorted: Option<(usize, Arc<Dictionary>, Arc<[u32]>)>,
}

impl MutableDictionary {
    fn new(data_type: DataType) -> MutableDictionary {
        MutableDictionary {
            data_type,
            vals: TypedVals::new(data_type),
            index: HashMap::new(),
            sorted: None,
        }
    }

    #[cfg(test)]
    fn cardinality(&self) -> usize {
        self.vals.len()
    }

    fn intern(&mut self, v: &Value, column: &str) -> Result<DictId> {
        let key = key_of(self.data_type, v).ok_or_else(|| {
            PinotError::Internal(format!(
                "value {v:?} cannot enter {:?} dictionary of column {column}",
                self.data_type
            ))
        })?;
        if let Some(&id) = self.index.get(&key) {
            return Ok(id);
        }
        let id = self.vals.len() as DictId;
        self.vals.push(v).ok_or_else(|| {
            PinotError::Internal(format!(
                "value {v:?} cannot enter {:?} dictionary of column {column}",
                self.data_type
            ))
        })?;
        self.index.insert(key, id);
        Ok(id)
    }

    /// Sorted dictionary + insertion→sorted remap for the current
    /// generation.
    fn sorted_view(&mut self) -> (Arc<Dictionary>, Arc<[u32]>) {
        let card = self.vals.len();
        if let Some((gen, dict, remap)) = &self.sorted {
            if *gen == card {
                return (Arc::clone(dict), Arc::clone(remap));
            }
        }
        let perm = self.vals.argsort();
        let mut remap = vec![0u32; card];
        for (rank, &ins) in perm.iter().enumerate() {
            remap[ins as usize] = rank as u32;
        }
        let dict = Arc::new(self.vals.sorted_dictionary(&perm));
        let remap: Arc<[u32]> = remap.into();
        self.sorted = Some((card, Arc::clone(&dict), Arc::clone(&remap)));
        (dict, remap)
    }

    /// Roll back to the first `keep` insertion ids (over-consumed replica
    /// repair). Ids are dense first-seen, so this is exact.
    fn truncate(&mut self, keep: usize) {
        if keep >= self.vals.len() {
            return;
        }
        self.vals.truncate(keep);
        self.index.retain(|_, id| (*id as usize) < keep);
        // A cached sorted view over more values is stale; one over at most
        // `keep` values stays correct (the surviving prefix is unchanged)
        // and revalidates through the generation check.
        if matches!(&self.sorted, Some((gen, _, _)) if *gen > keep) {
            self.sorted = None;
        }
    }
}

/// One column of the consuming segment: mutable dictionary + chunked
/// forward vector of insertion ids (single-value) or flat id array with
/// offsets (multi-value).
pub(crate) struct MutableColumn {
    spec: FieldSpec,
    dict: MutableDictionary,
    /// Sealed bit-packed chunks of exactly [`CHUNK_ROWS`] insertion ids.
    chunks: Vec<Arc<PackedIntVec>>,
    /// Open-chunk insertion ids, row-wise.
    tail: Vec<u32>,
    /// Multi-value: per-doc offsets into `mv_ids` (`len == rows + 1`).
    mv_offsets: Vec<u32>,
    mv_ids: Vec<u32>,
}

impl MutableColumn {
    pub(crate) fn new(spec: FieldSpec) -> MutableColumn {
        let dict = MutableDictionary::new(spec.data_type);
        let single = spec.single_value;
        MutableColumn {
            spec,
            dict,
            chunks: Vec::new(),
            tail: Vec::new(),
            mv_offsets: if single { Vec::new() } else { vec![0] },
            mv_ids: Vec::new(),
        }
    }

    /// Append one (normalized) value. Returns the number of chunks this
    /// append sealed (0 or 1), for the `realtime.chunks_sealed` counter.
    pub(crate) fn append(&mut self, v: &Value) -> Result<usize> {
        if self.spec.single_value {
            let id = self.dict.intern(v, &self.spec.name)?;
            self.tail.push(id);
            if self.tail.len() == CHUNK_ROWS {
                self.chunks
                    .push(Arc::new(PackedIntVec::from_slice(&self.tail)));
                self.tail.clear();
                return Ok(1);
            }
            Ok(0)
        } else {
            for e in v.elements() {
                let id = self.dict.intern(&e, &self.spec.name)?;
                self.mv_ids.push(id);
            }
            self.mv_offsets.push(self.mv_ids.len() as u32);
            Ok(0)
        }
    }

    /// Insertion ids of all rows, flattened (single-value only).
    fn all_sv_ids(&self, rows: usize) -> Vec<u32> {
        debug_assert_eq!(rows, self.chunks.len() * CHUNK_ROWS + self.tail.len());
        let mut ids = Vec::with_capacity(rows);
        for chunk in &self.chunks {
            ids.extend(chunk.iter());
        }
        ids.extend_from_slice(&self.tail);
        ids
    }

    /// Cut view of the column at `rows`: shared sorted dictionary, shared
    /// sealed chunks, cloned tail. Multi-value columns clone their (small)
    /// id arrays — they are excluded from block kernels anyway.
    pub(crate) fn cut(&mut self, rows: usize) -> ColumnData {
        let (dictionary, remap) = self.dict.sorted_view();
        let forward = if self.spec.single_value {
            ForwardIndex::chunked(
                self.chunks.clone(),
                self.tail.as_slice().into(),
                remap,
                rows,
            )
        } else {
            let ids: Vec<u32> = self.mv_ids.iter().map(|&i| remap[i as usize]).collect();
            ForwardIndex::MultiValue {
                offsets: self.mv_offsets.clone(),
                ids: PackedIntVec::from_slice(&ids),
            }
        };
        ColumnData {
            spec: self.spec.clone(),
            dictionary,
            forward,
            inverted: None,
            sorted: None,
            bloom: None,
        }
    }

    /// Owned seal input: sorted dictionary plus fully remapped id vectors.
    fn seal_input(&mut self, rows: usize) -> SealInput {
        let (dict, remap) = self.dict.sorted_view();
        if self.spec.single_value {
            let mut ids = self.all_sv_ids(rows);
            for id in ids.iter_mut() {
                *id = remap[*id as usize];
            }
            SealInput {
                spec: self.spec.clone(),
                dict,
                sv_ids: ids,
                mv: None,
            }
        } else {
            let ids: Vec<u32> = self.mv_ids.iter().map(|&i| remap[i as usize]).collect();
            SealInput {
                spec: self.spec.clone(),
                dict,
                sv_ids: Vec::new(),
                mv: Some((self.mv_offsets.clone(), ids)),
            }
        }
    }

    /// Roll back to the first `keep_rows` rows, including the dictionary
    /// high-water mark.
    pub(crate) fn truncate(&mut self, keep_rows: usize) {
        if self.spec.single_value {
            let full = keep_rows / CHUNK_ROWS;
            let rem = keep_rows % CHUNK_ROWS;
            if full < self.chunks.len() {
                // The partially kept chunk re-opens as the tail.
                let boundary: Vec<u32> = self.chunks[full].iter().take(rem).collect();
                self.chunks.truncate(full);
                self.tail = boundary;
            } else {
                self.tail
                    .truncate(keep_rows - self.chunks.len() * CHUNK_ROWS);
            }
            let max_id = self
                .chunks
                .iter()
                .flat_map(|c| c.iter())
                .chain(self.tail.iter().copied())
                .max();
            self.dict.truncate(max_id.map_or(0, |m| m as usize + 1));
        } else {
            self.mv_offsets.truncate(keep_rows + 1);
            self.mv_ids
                .truncate(*self.mv_offsets.last().unwrap_or(&0) as usize);
            let max_id = self.mv_ids.iter().copied().max();
            self.dict.truncate(max_id.map_or(0, |m| m as usize + 1));
        }
    }

    #[cfg(test)]
    pub(crate) fn dict_cardinality(&self) -> usize {
        self.dict.cardinality()
    }
}

/// Per-column data handed from the locked mutable state to the (unlocked)
/// seal: everything needed to build final indexes without touching rows.
pub(crate) struct SealInput {
    spec: FieldSpec,
    dict: Arc<Dictionary>,
    /// Remapped (sorted-dictionary) ids in arrival order; empty for MV.
    sv_ids: Vec<u32>,
    /// MV: (offsets, remapped flat ids).
    mv: Option<(Vec<u32>, Vec<u32>)>,
}

/// Validate an index config against the schema — same checks (and error
/// text) as `SegmentBuilder::new`, which the row-wise seal used to run.
fn validate_config(schema: &Schema, config: &BuilderConfig) -> Result<()> {
    for col in &config.sort_columns {
        let spec = schema
            .field(col)
            .ok_or_else(|| PinotError::Schema(format!("sort column {col:?} not in schema")))?;
        if !spec.single_value {
            return Err(PinotError::Schema(format!(
                "sort column {col:?} must be single-value"
            )));
        }
    }
    for col in &config.inverted_columns {
        if schema.field(col).is_none() {
            return Err(PinotError::Schema(format!(
                "inverted-index column {col:?} not in schema"
            )));
        }
    }
    for col in &config.bloom_columns {
        if schema.field(col).is_none() {
            return Err(PinotError::Schema(format!(
                "bloom-filter column {col:?} not in schema"
            )));
        }
    }
    Ok(())
}

/// Assemble segment metadata the same way `SegmentBuilder` does.
pub(crate) fn assemble_metadata(
    schema: &Schema,
    config: &BuilderConfig,
    columns: &[ColumnData],
    num_docs: usize,
) -> SegmentMetadata {
    let time_column = schema.time_column().map(|f| f.name.clone());
    let (min_time, max_time) = match &time_column {
        Some(tc) => {
            let col = columns
                .iter()
                .find(|c| &c.spec.name == tc)
                .expect("time column built");
            (
                col.dictionary.min_value().and_then(|v| v.as_i64()),
                col.dictionary.max_value().and_then(|v| v.as_i64()),
            )
        }
        None => (None, None),
    };
    let size_bytes = columns.iter().map(ColumnData::size_bytes).sum::<usize>() as u64;
    SegmentMetadata {
        segment_name: config.segment_name.clone(),
        table: config.table.clone(),
        num_docs: num_docs as u32,
        columns: columns.iter().map(ColumnData::stats).collect(),
        time_column,
        min_time,
        max_time,
        partition: config.partition.clone(),
        offset_range: config.offset_range,
        created_at_millis: config.created_at_millis,
        size_bytes,
    }
}

/// Extract the per-column seal inputs. Called with the segment lock held;
/// everything returned is owned, so index building proceeds unlocked.
pub(crate) fn seal_inputs(columns: &mut [MutableColumn], rows: usize) -> Vec<SealInput> {
    columns.iter_mut().map(|c| c.seal_input(rows)).collect()
}

/// Build the final immutable segment from columnar seal inputs: physical
/// reorder by the sort columns (comparing sorted-dictionary ids, which
/// orders identically to `Value::total_cmp` on the same column), then
/// per-column forward/sorted/inverted/bloom structures — one pool task per
/// column when a pool is supplied. No `Record` is ever materialized.
pub(crate) fn seal_from_columnar(
    schema: &Schema,
    config: &BuilderConfig,
    inputs: Vec<SealInput>,
    num_docs: usize,
    pool: Option<&TaskPool>,
) -> Result<ImmutableSegment> {
    validate_config(schema, config)?;

    // Arrival-order → sorted-order permutation. Stable, like the row sort
    // it replaces, so equal keys keep stream order.
    let perm: Option<Vec<u32>> = if config.sort_columns.is_empty() {
        None
    } else {
        let sort_ids: Vec<&[u32]> = config
            .sort_columns
            .iter()
            .map(|c| {
                let ci = schema.column_index(c).expect("validated");
                inputs[ci].sv_ids.as_slice()
            })
            .collect();
        let mut perm: Vec<u32> = (0..num_docs as u32).collect();
        perm.sort_by(|&a, &b| {
            for ids in &sort_ids {
                let ord = ids[a as usize].cmp(&ids[b as usize]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Some(perm)
    };

    let columns: Vec<ColumnData> = match pool {
        Some(pool) => pool
            .map(&Deadline::none(), inputs.len(), |ci| {
                seal_column(&inputs[ci], perm.as_deref(), config, num_docs)
            })
            .into_iter()
            .map(|column| column.expect("no deadline, so every column task ran"))
            .collect(),
        None => inputs
            .iter()
            .map(|input| seal_column(input, perm.as_deref(), config, num_docs))
            .collect(),
    };

    let metadata = assemble_metadata(schema, config, &columns, num_docs);
    Ok(ImmutableSegment::new(metadata, schema.clone(), columns))
}

fn seal_column(
    input: &SealInput,
    perm: Option<&[u32]>,
    config: &BuilderConfig,
    num_docs: usize,
) -> ColumnData {
    let spec = &input.spec;
    let cardinality = input.dict.cardinality();
    let forward = if let Some((offsets, flat)) = &input.mv {
        let per_doc: Vec<Vec<DictId>> = (0..num_docs)
            .map(|d| {
                let d = perm.map_or(d, |p| p[d] as usize);
                flat[offsets[d] as usize..offsets[d + 1] as usize].to_vec()
            })
            .collect();
        ForwardIndex::multi(&per_doc)
    } else {
        match perm {
            Some(p) => {
                let ids: Vec<u32> = p.iter().map(|&d| input.sv_ids[d as usize]).collect();
                ForwardIndex::single(&ids)
            }
            None => ForwardIndex::single(&input.sv_ids),
        }
    };

    let sorted = if config.sort_columns.first() == Some(&spec.name) {
        let ids: Vec<DictId> = (0..num_docs as u32).map(|d| forward.get(d)).collect();
        SortedIndex::build(&ids, cardinality)
    } else {
        None
    };

    let inverted = if sorted.is_none() && config.inverted_columns.contains(&spec.name) {
        Some(InvertedIndex::build(&forward, cardinality))
    } else {
        None
    };

    let bloom_filter = if config.bloom_columns.contains(&spec.name) {
        let mut f =
            bloom::BloomFilter::new(cardinality, config.bloom_bits_per_key, bloom::DEFAULT_SEED);
        for id in 0..cardinality as DictId {
            if let Some(key) = bloom::bloom_key(&input.dict.value_of(id), spec.data_type) {
                f.insert(&key);
            }
        }
        Some(f)
    } else {
        None
    };

    ColumnData {
        spec: spec.clone(),
        dictionary: Arc::clone(&input.dict),
        forward,
        inverted,
        sorted,
        bloom: bloom_filter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_coerces_widened_numerics_to_one_id() {
        let mut d = MutableDictionary::new(DataType::Long);
        let a = d.intern(&Value::Long(5), "c").unwrap();
        let b = d.intern(&Value::Int(5), "c").unwrap();
        assert_eq!(a, b);
        assert_eq!(d.cardinality(), 1);
        let c = d.intern(&Value::Long(3), "c").unwrap();
        assert_eq!(c, 1); // first-seen dense ids
    }

    #[test]
    fn sorted_view_caches_per_generation() {
        let mut d = MutableDictionary::new(DataType::String);
        d.intern(&Value::from("b"), "c").unwrap();
        d.intern(&Value::from("a"), "c").unwrap();
        let (dict, remap) = d.sorted_view();
        assert_eq!(dict.value_of(0), Value::from("a"));
        assert_eq!(remap.as_ref(), &[1, 0]); // "b" inserted first, sorts second
        let (dict2, _) = d.sorted_view();
        assert!(Arc::ptr_eq(&dict, &dict2)); // same generation → cached
        d.intern(&Value::from("b"), "c").unwrap(); // duplicate: no new id
        let (dict3, _) = d.sorted_view();
        assert!(Arc::ptr_eq(&dict, &dict3));
        d.intern(&Value::from("0"), "c").unwrap(); // new id → new generation
        let (dict4, remap4) = d.sorted_view();
        assert!(!Arc::ptr_eq(&dict, &dict4));
        assert_eq!(remap4.as_ref(), &[2, 1, 0]);
    }

    #[test]
    fn dictionary_truncate_rolls_back_high_water() {
        let mut d = MutableDictionary::new(DataType::Long);
        for x in [10i64, 20, 30] {
            d.intern(&Value::Long(x), "c").unwrap();
        }
        d.truncate(2);
        assert_eq!(d.cardinality(), 2);
        // 30 must re-intern as a fresh id, 20 must resolve to its old id.
        assert_eq!(d.intern(&Value::Long(20), "c").unwrap(), 1);
        assert_eq!(d.intern(&Value::Long(30), "c").unwrap(), 2);
    }

    #[test]
    fn column_cut_remaps_to_sorted_ids_across_chunks() {
        let mut col = MutableColumn::new(FieldSpec::dimension("k", DataType::Long));
        let n = CHUNK_ROWS + 100;
        let mut sealed = 0;
        for i in 0..n {
            // Descending values: insertion order is the reverse of sorted.
            sealed += col.append(&Value::Long(-(i as i64))).unwrap();
        }
        assert_eq!(sealed, 1);
        let cut = col.cut(n);
        assert_eq!(cut.forward.num_docs(), n);
        assert_eq!(cut.dictionary.cardinality(), n);
        // Row 0 holds the largest value → highest sorted id.
        assert_eq!(cut.forward.get(0), (n - 1) as u32);
        assert_eq!(cut.value(0), Value::Long(0));
        assert_eq!(cut.value((n - 1) as u32), Value::Long(-((n - 1) as i64)));
    }

    #[test]
    fn column_truncate_reopens_sealed_chunk() {
        let mut col = MutableColumn::new(FieldSpec::dimension("k", DataType::Long));
        let n = CHUNK_ROWS + 50;
        for i in 0..n {
            col.append(&Value::Long(i as i64)).unwrap();
        }
        // Truncate into the sealed chunk: it must re-open as a tail.
        let keep = CHUNK_ROWS - 10;
        col.truncate(keep);
        assert_eq!(col.dict_cardinality(), keep);
        let cut = col.cut(keep);
        assert_eq!(cut.forward.num_docs(), keep);
        assert_eq!(cut.value((keep - 1) as u32), Value::Long(keep as i64 - 1));
        // Appending after the rollback keeps ids dense.
        col.append(&Value::Long(7)).unwrap(); // existing value
        assert_eq!(col.dict_cardinality(), keep);
        col.append(&Value::Long(1_000_000)).unwrap(); // fresh value
        assert_eq!(col.dict_cardinality(), keep + 1);
    }
}
