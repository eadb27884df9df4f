//! Mutable (consuming) segments.
//!
//! A realtime server creates one mutable segment per stream partition it
//! consumes (§3.3.1: the OFFLINE → CONSUMING transition). Records append in
//! stream order; queries must see them within seconds. When the end criteria
//! is reached (row count or elapsed time), the completion protocol decides a
//! committer and the segment is *sealed* into an immutable segment with the
//! table's full index configuration.
//!
//! Rows are stored columnar from the first append (see [`crate::realtime`]):
//! per-column mutable dictionaries plus chunked bit-packed forward vectors.
//! Query access goes through [`MutableSegment::cut`], a *consistent cut* —
//! the row high-water mark and dictionary generation captured under one
//! lock. A cut is a real [`ImmutableSegment`] whose columns share the
//! sealed chunks and sorted dictionary by `Arc`, so taking one is O(open
//! tail + changed dictionaries), not O(total rows), and the batch kernels,
//! pruning, and cost-based planning all see realtime segments exactly like
//! offline ones (with exact zone maps, because the cut dictionary is exact
//! at the high-water mark). Cuts are cached per `(epoch, high-water mark)`
//! so repeated queries between appends share one view.

use crate::builder::BuilderConfig;
use crate::realtime::{self, MutableColumn};
use crate::segment::ImmutableSegment;
use pinot_common::{Record, Result, Schema};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Columnar state behind one lock: appends, cuts, and truncation all
/// serialize here, which is what makes a cut consistent.
struct Inner {
    /// Next offset to consume (exclusive end of what we hold).
    current_offset: u64,
    /// Bumped by truncation so `(epoch, high-water)` cache keys can never
    /// alias across a rollback that rewinds to the same offset.
    epoch: u64,
    num_rows: usize,
    columns: Vec<MutableColumn>,
}

type ViewCache = Mutex<Option<((u64, u64), Arc<ImmutableSegment>)>>;

/// A segment that is still consuming from the stream.
pub struct MutableSegment {
    schema: Schema,
    segment_name: String,
    table: String,
    start_offset: u64,
    inner: Mutex<Inner>,
    /// Cached columnar cut, keyed by `(epoch, current_offset)`.
    cut_cache: ViewCache,
    /// Chunks sealed since the last [`take_chunks_sealed`] drain
    /// (`realtime.chunks_sealed` metric).
    chunks_sealed: AtomicU64,
    created_at_millis: i64,
}

impl MutableSegment {
    pub fn new(
        schema: Schema,
        segment_name: impl Into<String>,
        table: impl Into<String>,
        start_offset: u64,
        created_at_millis: i64,
    ) -> MutableSegment {
        let columns = schema
            .fields()
            .iter()
            .map(|spec| MutableColumn::new(spec.clone()))
            .collect();
        MutableSegment {
            schema,
            segment_name: segment_name.into(),
            table: table.into(),
            start_offset,
            inner: Mutex::new(Inner {
                current_offset: start_offset,
                epoch: 0,
                num_rows: 0,
                columns,
            }),
            cut_cache: Mutex::new(None),
            chunks_sealed: AtomicU64::new(0),
            created_at_millis,
        }
    }

    pub fn name(&self) -> &str {
        &self.segment_name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn start_offset(&self) -> u64 {
        self.start_offset
    }

    /// Offset of the next record this segment would consume.
    pub fn current_offset(&self) -> u64 {
        self.inner.lock().unwrap().current_offset
    }

    pub fn num_rows(&self) -> usize {
        self.inner.lock().unwrap().num_rows
    }

    pub fn created_at_millis(&self) -> i64 {
        self.created_at_millis
    }

    /// Forward-vector chunks sealed since the last call (observability).
    pub fn take_chunks_sealed(&self) -> u64 {
        self.chunks_sealed.swap(0, Ordering::Relaxed)
    }

    /// Append one record consumed at `offset`. Offsets must arrive in
    /// order, each exactly the current offset; this is what lets replicas
    /// compare positions by a single number in the completion protocol.
    pub fn append(&self, record: Record, offset: u64) -> Result<()> {
        let normalized = record.normalize(&self.schema)?;
        let values = normalized.into_values();
        let mut inner = self.inner.lock().unwrap();
        if offset != inner.current_offset {
            return Err(pinot_common::PinotError::Segment(format!(
                "out-of-order append: expected offset {}, got {offset}",
                inner.current_offset
            )));
        }
        let mut sealed = 0usize;
        for (column, value) in inner.columns.iter_mut().zip(&values) {
            sealed += column.append(value)?;
        }
        inner.num_rows += 1;
        inner.current_offset += 1;
        drop(inner);
        if sealed > 0 {
            self.chunks_sealed
                .fetch_add(sealed as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// A consistent cut of everything consumed so far: a cheap immutable
    /// view (shared chunks + shared sorted dictionaries, cloned open
    /// tails) taken at the current row high-water mark. Cached until the
    /// next append or truncation.
    pub fn cut(&self) -> Result<Arc<ImmutableSegment>> {
        let mut inner = self.inner.lock().unwrap();
        let key = (inner.epoch, inner.current_offset);
        if let Some((k, seg)) = self.cut_cache.lock().unwrap().as_ref() {
            if *k == key {
                return Ok(Arc::clone(seg));
            }
        }
        let rows = inner.num_rows;
        let columns: Vec<_> = inner.columns.iter_mut().map(|c| c.cut(rows)).collect();
        let end_offset = inner.current_offset;
        drop(inner);
        let config = BuilderConfig::new(self.segment_name.clone(), self.table.clone())
            .with_offset_range(self.start_offset, end_offset);
        let mut metadata = realtime::assemble_metadata(&self.schema, &config, &columns, rows);
        metadata.created_at_millis = self.created_at_millis;
        let seg = Arc::new(ImmutableSegment::new(
            metadata,
            self.schema.clone(),
            columns,
        ));
        *self.cut_cache.lock().unwrap() = Some((key, Arc::clone(&seg)));
        Ok(seg)
    }

    /// Seal into the final immutable segment with the table's full index
    /// configuration (sort columns, inverted indexes, partition info).
    pub fn seal(&self, config: BuilderConfig) -> Result<ImmutableSegment> {
        self.seal_with_pool(config, None)
    }

    /// [`seal`](MutableSegment::seal) with column/index builds fanned out on
    /// a task pool (the server passes its execution pool here). Sealing
    /// works directly from the columnar store — dictionaries are shared and
    /// forward ids remapped, never a `Vec<Record>` re-added row by row.
    pub fn seal_with_pool(
        &self,
        mut config: BuilderConfig,
        pool: Option<&pinot_taskpool::TaskPool>,
    ) -> Result<ImmutableSegment> {
        let mut inner = self.inner.lock().unwrap();
        config.segment_name = self.segment_name.clone();
        config.table = self.table.clone();
        config.offset_range = Some((self.start_offset, inner.current_offset));
        config.created_at_millis = self.created_at_millis;
        let rows = inner.num_rows;
        let inputs = realtime::seal_inputs(&mut inner.columns, rows);
        drop(inner);
        realtime::seal_from_columnar(&self.schema, &config, inputs, rows, pool)
    }

    /// Drop rows past `offset` (completion-protocol CATCHUP/DISCARD repair
    /// never needs this in the happy path, but a replica that over-consumed
    /// relative to the committed copy truncates before re-fetching). Rolls
    /// the columnar state back too: forward-vector lengths shrink and each
    /// dictionary truncates to its surviving high-water id.
    pub fn truncate_to_offset(&self, offset: u64) {
        let mut inner = self.inner.lock().unwrap();
        if offset >= inner.current_offset {
            return;
        }
        let keep = (offset - self.start_offset) as usize;
        for column in inner.columns.iter_mut() {
            column.truncate(keep);
        }
        inner.num_rows = keep;
        inner.current_offset = offset;
        inner.epoch += 1;
        drop(inner);
        *self.cut_cache.lock().unwrap() = None;
    }
}

impl std::fmt::Debug for MutableSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableSegment")
            .field("name", &self.segment_name)
            .field("rows", &self.num_rows())
            .field("offsets", &(self.start_offset, self.current_offset()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SegmentBuilder;
    use pinot_common::{DataType, FieldSpec, TimeUnit, Value};

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                FieldSpec::dimension("k", DataType::Long),
                FieldSpec::metric("m", DataType::Long),
                FieldSpec::time("ts", DataType::Long, TimeUnit::Seconds),
            ],
        )
        .unwrap()
    }

    fn rec(k: i64, m: i64, ts: i64) -> Record {
        Record::new(vec![Value::Long(k), Value::Long(m), Value::Long(ts)])
    }

    #[test]
    fn append_and_cut() {
        let ms = MutableSegment::new(schema(), "s__0__0", "t_REALTIME", 100, 0);
        ms.append(rec(1, 10, 5), 100).unwrap();
        ms.append(rec(2, 20, 6), 101).unwrap();
        assert_eq!(ms.num_rows(), 2);
        assert_eq!(ms.current_offset(), 102);

        let snap = ms.cut().unwrap();
        assert_eq!(snap.num_docs(), 2);
        assert_eq!(snap.metadata().offset_range, Some((100, 102)));

        // Cached until next append.
        let snap2 = ms.cut().unwrap();
        assert!(Arc::ptr_eq(&snap, &snap2));
        ms.append(rec(3, 30, 7), 102).unwrap();
        let snap3 = ms.cut().unwrap();
        assert_eq!(snap3.num_docs(), 3);
        // The earlier cut is immutable: still two docs.
        assert_eq!(snap.num_docs(), 2);
    }

    #[test]
    fn rejects_out_of_order_offsets() {
        let ms = MutableSegment::new(schema(), "s", "t", 0, 0);
        ms.append(rec(1, 1, 1), 0).unwrap();
        assert!(ms.append(rec(2, 2, 2), 2).is_err()); // gap
        assert!(ms.append(rec(2, 2, 2), 0).is_err()); // replay
        assert!(ms.append(rec(2, 2, 2), 1).is_ok());
    }

    #[test]
    fn seal_applies_index_config() {
        let ms = MutableSegment::new(schema(), "s", "t_REALTIME", 0, 42);
        for i in 0..10 {
            ms.append(rec(10 - i, i, i), i as u64).unwrap();
        }
        let sealed = ms
            .seal(BuilderConfig::new("ignored", "ignored").with_sort_columns(&["k"]))
            .unwrap();
        assert_eq!(sealed.name(), "s");
        assert_eq!(sealed.metadata().table, "t_REALTIME");
        assert_eq!(sealed.metadata().offset_range, Some((0, 10)));
        assert_eq!(sealed.metadata().created_at_millis, 42);
        assert!(sealed.column("k").unwrap().sorted.is_some());
        // Physically re-sorted by k.
        let ks: Vec<i64> = (0..10)
            .map(|d| sealed.column("k").unwrap().long(d).unwrap())
            .collect();
        let mut expect = ks.clone();
        expect.sort();
        assert_eq!(ks, expect);
    }

    #[test]
    fn truncate_to_offset() {
        let ms = MutableSegment::new(schema(), "s", "t", 10, 0);
        for i in 0..5u64 {
            ms.append(rec(i as i64, 0, 0), 10 + i).unwrap();
        }
        ms.truncate_to_offset(12);
        assert_eq!(ms.num_rows(), 2);
        assert_eq!(ms.current_offset(), 12);
        // Truncating past the end is a no-op.
        ms.truncate_to_offset(99);
        assert_eq!(ms.current_offset(), 12);
        // Can continue consuming from the truncation point.
        ms.append(rec(9, 9, 9), 12).unwrap();
        assert_eq!(ms.num_rows(), 3);
    }

    /// Over-consumed-replica repair: truncation must roll back the
    /// dictionary high-water mark and forward lengths, and the cut cache
    /// must never serve a pre-truncation view for the same offset.
    #[test]
    fn truncate_rolls_back_columnar_state() {
        let ms = MutableSegment::new(schema(), "s", "t", 0, 0);
        for i in 0..6 {
            ms.append(rec(100 + i, i, i), i as u64).unwrap();
        }
        let before = ms.cut().unwrap();
        assert_eq!(before.column("k").unwrap().dictionary.cardinality(), 6);

        ms.truncate_to_offset(4);
        let after = ms.cut().unwrap();
        assert_eq!(after.num_docs(), 4);
        // Dictionary high-water rolled back: values 104/105 are gone.
        let kd = &after.column("k").unwrap().dictionary;
        assert_eq!(kd.cardinality(), 4);
        assert_eq!(kd.max_value(), Some(Value::Long(103)));
        assert_eq!(kd.id_of(&Value::Long(104)), None);

        // Re-consume the repaired offsets with *different* rows; a cut at
        // the same high-water offset must reflect them (epoch key).
        ms.append(rec(777, 0, 9), 4).unwrap();
        ms.append(rec(888, 0, 9), 5).unwrap();
        let repaired = ms.cut().unwrap();
        assert_eq!(repaired.num_docs(), 6);
        let kd = &repaired.column("k").unwrap().dictionary;
        assert!(kd.id_of(&Value::Long(777)).is_some());
        assert!(kd.id_of(&Value::Long(104)).is_none());
        assert_eq!(repaired.metadata().offset_range, Some((0, 6)));
        // Time bounds (zone maps) reflect the repaired rows.
        assert_eq!(repaired.metadata().max_time, Some(9));
        // The pre-truncation cut is untouched.
        assert_eq!(before.num_docs(), 6);
        assert_eq!(
            before.column("k").unwrap().dictionary.max_value(),
            Some(Value::Long(105))
        );
    }

    /// The columnar seal must produce the same segment a row-wise
    /// `SegmentBuilder` build does — metadata, per-doc values, indexes.
    #[test]
    fn columnar_seal_matches_row_built_segment() {
        let mv = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("k", DataType::Long),
                FieldSpec::dimension("c", DataType::String),
                FieldSpec::multi_value_dimension("tags", DataType::String),
                FieldSpec::metric("m", DataType::Double),
                FieldSpec::time("ts", DataType::Long, TimeUnit::Seconds),
            ],
        )
        .unwrap();
        let row = |i: i64| {
            Record::new(vec![
                Value::Long(i % 7),
                Value::String(format!("c{}", i % 3)),
                Value::StringArray(vec![format!("t{}", i % 5), format!("t{}", i % 2)]),
                Value::Double((i * 13 % 29) as f64 / 2.0),
                Value::Long(1000 + i),
            ])
        };
        let cfg = || {
            BuilderConfig::new("seg", "t_REALTIME")
                .with_sort_columns(&["k"])
                .with_inverted_columns(&["c"])
                .with_bloom_columns(&["c"])
                .with_offset_range(0, 500)
        };

        let ms = MutableSegment::new(mv.clone(), "seg", "t_REALTIME", 0, 0);
        let mut builder = SegmentBuilder::new(mv, cfg()).unwrap();
        for i in 0..500 {
            ms.append(row(i), i as u64).unwrap();
            builder.add(row(i)).unwrap();
        }
        let sealed = ms.seal(cfg()).unwrap();
        let reference = builder.build().unwrap();

        assert_eq!(sealed.metadata(), reference.metadata());
        for d in 0..500u32 {
            for col in ["k", "c", "tags", "m", "ts"] {
                assert_eq!(
                    sealed.column(col).unwrap().value(d),
                    reference.column(col).unwrap().value(d),
                    "doc {d} column {col}"
                );
            }
        }
        assert_eq!(
            sealed.column("k").unwrap().sorted,
            reference.column("k").unwrap().sorted
        );
        assert_eq!(
            sealed.column("c").unwrap().inverted,
            reference.column("c").unwrap().inverted
        );
    }

    /// A cut must agree, doc for doc, with a `SegmentBuilder` segment
    /// built from the same input rows — across sealed chunks and the
    /// open tail.
    #[test]
    fn cut_matches_row_built_segment() {
        let rows = crate::forward::CHUNK_ROWS + 1500;
        let row = |i: i64| rec(i % 11, i * 3, 50 + i % 9);
        let ms = MutableSegment::new(schema(), "s", "t", 0, 0);
        let mut builder = SegmentBuilder::new(
            schema(),
            BuilderConfig::new("s", "t").with_offset_range(0, rows as u64),
        )
        .unwrap();
        for i in 0..rows as i64 {
            ms.append(row(i), i as u64).unwrap();
            builder.add(row(i)).unwrap();
        }
        let cut = ms.cut().unwrap();
        let reference = builder.build().unwrap();
        // Same logical metadata (zone maps, time bounds, offsets); only
        // the physical size differs — a cut keeps chunked id vectors.
        let mut logical = reference.metadata().clone();
        logical.size_bytes = cut.metadata().size_bytes;
        assert_eq!(cut.metadata(), &logical);
        for d in 0..rows as u32 {
            for col in ["k", "m", "ts"] {
                assert_eq!(
                    cut.column(col).unwrap().value(d),
                    reference.column(col).unwrap().value(d),
                    "doc {d} column {col}"
                );
            }
        }
    }
}
