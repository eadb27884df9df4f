//! Building immutable segments from records.

use crate::column::ColumnData;
use crate::dictionary::Dictionary;
use crate::forward::ForwardIndex;
use crate::inverted::InvertedIndex;
use crate::metadata::{PartitionInfo, SegmentMetadata};
use crate::segment::ImmutableSegment;
use crate::sorted_index::SortedIndex;
use crate::DictId;
use pinot_common::{FieldSpec, PinotError, Record, Result, Schema, Value};
use pinot_taskpool::{Deadline, TaskPool};

/// Options controlling segment construction.
#[derive(Debug, Clone)]
pub struct BuilderConfig {
    pub segment_name: String,
    pub table: String,
    /// Physically reorder records by these columns (primary first, §4.2).
    /// The primary column gets a [`SortedIndex`] instead of bitmaps.
    pub sort_columns: Vec<String>,
    /// Columns to build bitmap inverted indexes for.
    pub inverted_columns: Vec<String>,
    /// Columns to build blocked bloom filters for (dimension pruning).
    pub bloom_columns: Vec<String>,
    /// Bits per distinct key for bloom filters.
    pub bloom_bits_per_key: u32,
    pub partition: Option<PartitionInfo>,
    /// Stream offsets `[start, end)` for realtime-committed segments.
    pub offset_range: Option<(u64, u64)>,
    pub created_at_millis: i64,
}

impl BuilderConfig {
    pub fn new(segment_name: impl Into<String>, table: impl Into<String>) -> BuilderConfig {
        BuilderConfig {
            segment_name: segment_name.into(),
            table: table.into(),
            sort_columns: Vec::new(),
            inverted_columns: Vec::new(),
            bloom_columns: Vec::new(),
            bloom_bits_per_key: crate::bloom::DEFAULT_BITS_PER_KEY,
            partition: None,
            offset_range: None,
            created_at_millis: 0,
        }
    }

    pub fn with_sort_columns(mut self, cols: &[&str]) -> BuilderConfig {
        self.sort_columns = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn with_inverted_columns(mut self, cols: &[&str]) -> BuilderConfig {
        self.inverted_columns = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn with_bloom_columns(mut self, cols: &[&str]) -> BuilderConfig {
        self.bloom_columns = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn with_partition(mut self, p: PartitionInfo) -> BuilderConfig {
        self.partition = Some(p);
        self
    }

    pub fn with_offset_range(mut self, start: u64, end: u64) -> BuilderConfig {
        self.offset_range = Some((start, end));
        self
    }
}

/// Accumulates records and produces an [`ImmutableSegment`].
pub struct SegmentBuilder {
    schema: Schema,
    config: BuilderConfig,
    rows: Vec<Vec<Value>>,
}

impl SegmentBuilder {
    pub fn new(schema: Schema, config: BuilderConfig) -> Result<SegmentBuilder> {
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
        Ok(SegmentBuilder {
            schema,
            config,
            rows: Vec::new(),
        })
    }

    /// Append one record (validated and null-filled against the schema).
    pub fn add(&mut self, record: Record) -> Result<()> {
        let normalized = record.normalize(&self.schema)?;
        self.rows.push(normalized.into_values());
        Ok(())
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Build the immutable segment. Consumes the builder.
    pub fn build(self) -> Result<ImmutableSegment> {
        self.build_with_pool(None)
    }

    /// Like [`build`](SegmentBuilder::build), but fans per-column
    /// dictionary/index construction out as tasks on `pool`. Column order in
    /// the finished segment is schema order regardless of completion order.
    pub fn build_with_pool(self, pool: Option<&TaskPool>) -> Result<ImmutableSegment> {
        let SegmentBuilder {
            schema,
            config,
            mut rows,
        } = self;

        // 1. Physical reorder by the configured sort columns.
        if !config.sort_columns.is_empty() {
            let sort_idx: Vec<usize> = config
                .sort_columns
                .iter()
                .map(|c| schema.column_index(c).expect("validated in new()"))
                .collect();
            rows.sort_by(|a, b| {
                for &i in &sort_idx {
                    let ord = a[i].total_cmp(&b[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // 2. Per-column dictionaries and indexes, one pool task per column
        //    when a pool is supplied.
        let num_docs = rows.len();
        let columns: Vec<ColumnData> = match pool {
            Some(pool) => pool
                .map(&Deadline::none(), schema.fields().len(), |ci| {
                    build_column(&rows, ci, &schema.fields()[ci], &config, num_docs)
                })
                .into_iter()
                .map(|column| column.expect("no deadline, so every column task ran"))
                .collect::<Result<_>>()?,
            None => schema
                .fields()
                .iter()
                .enumerate()
                .map(|(ci, spec)| build_column(&rows, ci, spec, &config, num_docs))
                .collect::<Result<_>>()?,
        };

        // 5. Metadata.
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
        let metadata = SegmentMetadata {
            segment_name: config.segment_name,
            table: config.table,
            num_docs: num_docs as u32,
            columns: columns.iter().map(ColumnData::stats).collect(),
            time_column,
            min_time,
            max_time,
            partition: config.partition,
            offset_range: config.offset_range,
            created_at_millis: config.created_at_millis,
            size_bytes,
        };
        Ok(ImmutableSegment::new(metadata, schema, columns))
    }
}

/// Dictionary, forward, sorted, and inverted structures for one column.
/// Independent per column, which is what makes pooled builds safe.
fn build_column(
    rows: &[Vec<Value>],
    ci: usize,
    spec: &FieldSpec,
    config: &BuilderConfig,
    num_docs: usize,
) -> Result<ColumnData> {
    let dictionary = Dictionary::build(spec.data_type, rows.iter().flat_map(|r| r[ci].elements()));
    let forward = if spec.single_value {
        let ids: Vec<DictId> = rows
            .iter()
            .map(|r| {
                dictionary.id_of(&r[ci]).ok_or_else(|| {
                    PinotError::Internal(format!(
                        "value missing from own dictionary in column {}",
                        spec.name
                    ))
                })
            })
            .collect::<Result<_>>()?;
        ForwardIndex::single(&ids)
    } else {
        let per_doc: Vec<Vec<DictId>> = rows
            .iter()
            .map(|r| {
                r[ci]
                    .elements()
                    .iter()
                    .map(|e| {
                        dictionary.id_of(e).ok_or_else(|| {
                            PinotError::Internal(format!(
                                "element missing from dictionary in column {}",
                                spec.name
                            ))
                        })
                    })
                    .collect::<Result<_>>()
            })
            .collect::<Result<_>>()?;
        ForwardIndex::multi(&per_doc)
    };

    // Sorted index for the primary sort column.
    let sorted = if config.sort_columns.first() == Some(&spec.name) {
        let ids: Vec<DictId> = (0..num_docs as u32).map(|d| forward.get(d)).collect();
        SortedIndex::build(&ids, dictionary.cardinality())
    } else {
        None
    };

    // Inverted indexes where configured (skip if sorted: the sorted index
    // strictly dominates, §4.2).
    let inverted = if sorted.is_none() && config.inverted_columns.contains(&spec.name) {
        Some(InvertedIndex::build(&forward, dictionary.cardinality()))
    } else {
        None
    };

    // Bloom filter over the distinct values of configured columns.
    let bloom = if config.bloom_columns.contains(&spec.name) {
        let mut f = crate::bloom::BloomFilter::new(
            dictionary.cardinality(),
            config.bloom_bits_per_key,
            crate::bloom::DEFAULT_SEED,
        );
        for id in 0..dictionary.cardinality() as DictId {
            if let Some(key) = crate::bloom::bloom_key(&dictionary.value_of(id), spec.data_type) {
                f.insert(&key);
            }
        }
        Some(f)
    } else {
        None
    };

    Ok(ColumnData {
        spec: spec.clone(),
        dictionary: std::sync::Arc::new(dictionary),
        forward,
        inverted,
        sorted,
        bloom,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, FieldSpec, TimeUnit};

    fn schema() -> Schema {
        Schema::new(
            "events",
            vec![
                FieldSpec::dimension("viewee", DataType::Long),
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::metric("views", DataType::Long),
                FieldSpec::time("day", DataType::Long, TimeUnit::Days),
            ],
        )
        .unwrap()
    }

    fn record(s: &Schema, viewee: i64, country: &str, views: i64, day: i64) -> Record {
        Record::from_pairs(
            s,
            &[
                ("viewee", Value::Long(viewee)),
                ("country", Value::from(country)),
                ("views", Value::Long(views)),
                ("day", Value::Long(day)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_sorted_segment() {
        let s = schema();
        let cfg = BuilderConfig::new("seg1", "events_OFFLINE")
            .with_sort_columns(&["viewee", "day"])
            .with_inverted_columns(&["country"]);
        let mut b = SegmentBuilder::new(s.clone(), cfg).unwrap();
        for (v, c, n, d) in [
            (30i64, "us", 1i64, 3i64),
            (10, "de", 2, 1),
            (20, "us", 3, 2),
            (10, "us", 4, 2),
        ] {
            b.add(record(&s, v, c, n, d)).unwrap();
        }
        let seg = b.build().unwrap();
        assert_eq!(seg.num_docs(), 4);

        // Physically sorted by viewee, then day.
        let viewee = seg.column("viewee").unwrap();
        let order: Vec<i64> = (0..4).map(|d| viewee.long(d).unwrap()).collect();
        assert_eq!(order, vec![10, 10, 20, 30]);
        assert!(viewee.sorted.is_some());
        assert!(viewee.inverted.is_none());

        // Secondary sort kicked in for equal viewees.
        let day = seg.column("day").unwrap();
        assert_eq!(day.long(0).unwrap(), 1);
        assert_eq!(day.long(1).unwrap(), 2);

        // Inverted index present on country only.
        assert!(seg.column("country").unwrap().inverted.is_some());
        assert!(seg.column("views").unwrap().inverted.is_none());

        // Metadata captures time range and sortedness.
        let m = seg.metadata();
        assert_eq!(m.min_time, Some(1));
        assert_eq!(m.max_time, Some(3));
        assert!(m.column("viewee").unwrap().is_sorted);
        assert!(m.column("country").unwrap().has_inverted_index);
    }

    #[test]
    fn sorted_index_ranges_are_correct() {
        let s = schema();
        let cfg = BuilderConfig::new("seg", "t").with_sort_columns(&["viewee"]);
        let mut b = SegmentBuilder::new(s.clone(), cfg).unwrap();
        for v in [5i64, 5, 3, 9, 3, 3] {
            b.add(record(&s, v, "us", 1, 1)).unwrap();
        }
        let seg = b.build().unwrap();
        let col = seg.column("viewee").unwrap();
        let sorted = col.sorted.as_ref().unwrap();
        // dict order: 3 (id 0), 5 (id 1), 9 (id 2)
        assert_eq!(sorted.doc_range(0), (0, 3));
        assert_eq!(sorted.doc_range(1), (3, 5));
        assert_eq!(sorted.doc_range(2), (5, 6));
    }

    #[test]
    fn empty_segment_is_valid() {
        let s = schema();
        let b = SegmentBuilder::new(s, BuilderConfig::new("e", "t")).unwrap();
        let seg = b.build().unwrap();
        assert_eq!(seg.num_docs(), 0);
        assert_eq!(seg.metadata().min_time, None);
    }

    #[test]
    fn validates_config_columns() {
        let s = schema();
        assert!(SegmentBuilder::new(
            s.clone(),
            BuilderConfig::new("x", "t").with_sort_columns(&["nope"])
        )
        .is_err());
        assert!(SegmentBuilder::new(
            s,
            BuilderConfig::new("x", "t").with_inverted_columns(&["nope"])
        )
        .is_err());
    }

    #[test]
    fn bloom_columns_build_and_answer_membership() {
        let s = schema();
        let cfg = BuilderConfig::new("seg", "t").with_bloom_columns(&["country"]);
        let mut b = SegmentBuilder::new(s.clone(), cfg).unwrap();
        for c in ["us", "de", "fr"] {
            b.add(record(&s, 1, c, 1, 1)).unwrap();
        }
        let seg = b.build().unwrap();
        let country = seg.column("country").unwrap();
        assert!(country.bloom.is_some());
        assert_eq!(country.bloom_contains(&Value::from("de")), Some(true));
        // Columns without a configured bloom answer None.
        assert_eq!(
            seg.column("views").unwrap().bloom_contains(&Value::Long(1)),
            None
        );
        assert!(seg.metadata().column("country").unwrap().has_bloom_filter);
        // Unknown bloom column is a config error.
        assert!(SegmentBuilder::new(
            s,
            BuilderConfig::new("x", "t").with_bloom_columns(&["nope"])
        )
        .is_err());
    }

    #[test]
    fn rejects_bad_records() {
        let s = schema();
        let mut b = SegmentBuilder::new(s.clone(), BuilderConfig::new("x", "t")).unwrap();
        let bad = Record::new(vec![Value::Long(1)]); // wrong arity
        assert!(b.add(bad).is_err());
    }

    #[test]
    fn multivalue_column_builds() {
        let s = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("k", DataType::Long),
                FieldSpec::multi_value_dimension("tags", DataType::String),
            ],
        )
        .unwrap();
        let mut b = SegmentBuilder::new(
            s.clone(),
            BuilderConfig::new("seg", "t").with_inverted_columns(&["tags"]),
        )
        .unwrap();
        b.add(Record::new(vec![
            Value::Long(1),
            Value::StringArray(vec!["a".into(), "b".into()]),
        ]))
        .unwrap();
        b.add(Record::new(vec![
            Value::Long(2),
            Value::StringArray(vec!["b".into()]),
        ]))
        .unwrap();
        let seg = b.build().unwrap();
        let tags = seg.column("tags").unwrap();
        let inv = tags.inverted.as_ref().unwrap();
        let b_id = tags.dictionary.id_of(&Value::from("b")).unwrap();
        assert_eq!(inv.postings(b_id).to_vec(), vec![0, 1]);
        assert_eq!(
            tags.value(0),
            Value::StringArray(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn record_reconstruction() {
        let s = schema();
        let mut b = SegmentBuilder::new(s.clone(), BuilderConfig::new("x", "t")).unwrap();
        b.add(record(&s, 1, "fr", 9, 100)).unwrap();
        let seg = b.build().unwrap();
        assert_eq!(
            seg.record(0),
            vec![
                Value::Long(1),
                Value::String("fr".into()),
                Value::Long(9),
                Value::Long(100)
            ]
        );
    }
}
