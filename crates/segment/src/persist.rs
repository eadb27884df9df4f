//! Binary segment persistence.
//!
//! Segments travel as opaque blobs: servers upload committed realtime
//! segments to the controller, the controller stores them in the object
//! store, and servers download and load them on the OFFLINE → ONLINE
//! transition (§3.3.1, Figure 4). This module defines that blob format.
//!
//! Layout: `magic "PSEG" | version u16 | fnv64 checksum of payload | payload`.
//! The payload serializes the schema, metadata, and every column
//! (dictionary, forward index, optional inverted/sorted indexes, and an
//! optional blocked bloom filter). All integers are little-endian.
//! Deserialization re-validates structure and the checksum so corrupted
//! blobs are rejected at load time. Exactly one version is written and
//! read; any other version in the header is a typed error.

use crate::bitpack::PackedIntVec;
use crate::bloom::BloomFilter;
use crate::column::ColumnData;
use crate::dictionary::Dictionary;
use crate::forward::ForwardIndex;
use crate::inverted::InvertedIndex;
use crate::metadata::{PartitionInfo, SegmentMetadata};
use crate::segment::ImmutableSegment;
use crate::sorted_index::SortedIndex;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pinot_bitmap::RoaringBitmap;
use pinot_common::{DataType, FieldRole, FieldSpec, PinotError, Result, Schema, TimeUnit, Value};

const MAGIC: &[u8; 4] = b"PSEG";
/// The format version this build writes and reads.
const VERSION: u16 = 2;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Serialize a segment to a self-validating blob.
pub fn serialize(seg: &ImmutableSegment) -> Vec<u8> {
    let mut payload = BytesMut::with_capacity(seg.size_bytes() as usize / 2 + 1024);
    write_schema(&mut payload, seg.schema());
    write_metadata(&mut payload, seg.metadata());
    payload.put_u32_le(seg.columns().len() as u32);
    for col in seg.columns() {
        write_column(&mut payload, col);
    }
    let mut out = Vec::with_capacity(payload.len() + 14);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Deserialize and validate a segment blob.
pub fn deserialize(bytes: &[u8]) -> Result<ImmutableSegment> {
    if bytes.len() < 14 || &bytes[0..4] != MAGIC {
        return Err(err("bad magic"));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(err(&format!("unsupported segment version {version}")));
    }
    let checksum = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
    let payload = &bytes[14..];
    if fnv64(payload) != checksum {
        return Err(err("checksum mismatch"));
    }
    let mut buf = Bytes::copy_from_slice(payload);
    let schema = read_schema(&mut buf)?;
    let mut metadata = read_metadata(&mut buf)?;
    let ncols = read_u32(&mut buf)? as usize;
    if ncols != schema.num_columns() {
        return Err(err("column count does not match schema"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for spec in schema.fields() {
        columns.push(read_column(&mut buf, spec.clone())?);
    }
    if buf.has_remaining() {
        return Err(err("trailing bytes"));
    }
    // Sanity: every column must agree on the document count.
    for c in &columns {
        if c.forward.num_docs() as u32 != metadata.num_docs {
            return Err(err("column doc count mismatch"));
        }
    }
    refresh_metadata(&mut metadata, &columns);
    Ok(ImmutableSegment::new(metadata, schema, columns))
}

fn err(msg: &str) -> PinotError {
    PinotError::Segment(format!("segment blob: {msg}"))
}

// ---- primitive helpers ----

fn write_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn read_u8(buf: &mut Bytes) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(err("truncated (u8)"));
    }
    Ok(buf.get_u8())
}

fn read_u32(buf: &mut Bytes) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(err("truncated (u32)"));
    }
    Ok(buf.get_u32_le())
}

fn read_u64(buf: &mut Bytes) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(err("truncated (u64)"));
    }
    Ok(buf.get_u64_le())
}

fn read_i64(buf: &mut Bytes) -> Result<i64> {
    Ok(read_u64(buf)? as i64)
}

fn read_str(buf: &mut Bytes) -> Result<String> {
    let n = read_u32(buf)? as usize;
    if buf.remaining() < n {
        return Err(err("truncated (string)"));
    }
    let raw = buf.copy_to_bytes(n);
    String::from_utf8(raw.to_vec()).map_err(|_| err("invalid utf-8"))
}

fn write_opt_i64(buf: &mut BytesMut, v: Option<i64>) {
    match v {
        Some(x) => {
            buf.put_u8(1);
            buf.put_i64_le(x);
        }
        None => buf.put_u8(0),
    }
}

fn read_opt_i64(buf: &mut Bytes) -> Result<Option<i64>> {
    match read_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(read_i64(buf)?)),
        _ => Err(err("bad option tag")),
    }
}

fn write_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Int(x) => {
            buf.put_u8(0);
            buf.put_i32_le(*x);
        }
        Value::Long(x) => {
            buf.put_u8(1);
            buf.put_i64_le(*x);
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_f32_le(*x);
        }
        Value::Double(x) => {
            buf.put_u8(3);
            buf.put_f64_le(*x);
        }
        Value::String(s) => {
            buf.put_u8(4);
            write_str(buf, s);
        }
        Value::Boolean(b) => {
            buf.put_u8(5);
            buf.put_u8(*b as u8);
        }
        Value::IntArray(xs) => {
            buf.put_u8(6);
            buf.put_u32_le(xs.len() as u32);
            for x in xs {
                buf.put_i32_le(*x);
            }
        }
        Value::LongArray(xs) => {
            buf.put_u8(7);
            buf.put_u32_le(xs.len() as u32);
            for x in xs {
                buf.put_i64_le(*x);
            }
        }
        Value::StringArray(xs) => {
            buf.put_u8(8);
            buf.put_u32_le(xs.len() as u32);
            for x in xs {
                write_str(buf, x);
            }
        }
        Value::Null => buf.put_u8(9),
    }
}

fn read_value(buf: &mut Bytes) -> Result<Value> {
    let tag = read_u8(buf)?;
    Ok(match tag {
        0 => Value::Int(read_u32(buf)? as i32),
        1 => Value::Long(read_i64(buf)?),
        2 => {
            if buf.remaining() < 4 {
                return Err(err("truncated (f32)"));
            }
            Value::Float(buf.get_f32_le())
        }
        3 => {
            if buf.remaining() < 8 {
                return Err(err("truncated (f64)"));
            }
            Value::Double(buf.get_f64_le())
        }
        4 => Value::String(read_str(buf)?),
        5 => Value::Boolean(read_u8(buf)? != 0),
        6 => {
            let n = read_u32(buf)? as usize;
            let mut xs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                xs.push(read_u32(buf)? as i32);
            }
            Value::IntArray(xs)
        }
        7 => {
            let n = read_u32(buf)? as usize;
            let mut xs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                xs.push(read_i64(buf)?);
            }
            Value::LongArray(xs)
        }
        8 => {
            let n = read_u32(buf)? as usize;
            let mut xs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                xs.push(read_str(buf)?);
            }
            Value::StringArray(xs)
        }
        9 => Value::Null,
        _ => return Err(err("bad value tag")),
    })
}

// ---- schema ----

fn dt_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Long => 1,
        DataType::Float => 2,
        DataType::Double => 3,
        DataType::String => 4,
        DataType::Boolean => 5,
    }
}

fn dt_from_tag(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Int,
        1 => DataType::Long,
        2 => DataType::Float,
        3 => DataType::Double,
        4 => DataType::String,
        5 => DataType::Boolean,
        _ => return Err(err("bad data type tag")),
    })
}

fn write_schema(buf: &mut BytesMut, schema: &Schema) {
    write_str(buf, schema.name());
    buf.put_u32_le(schema.num_columns() as u32);
    for f in schema.fields() {
        write_str(buf, &f.name);
        buf.put_u8(dt_tag(f.data_type));
        buf.put_u8(match f.role {
            FieldRole::Dimension => 0,
            FieldRole::Metric => 1,
            FieldRole::Time => 2,
        });
        buf.put_u8(f.single_value as u8);
        match f.time_unit {
            None => buf.put_u8(0),
            Some(u) => buf.put_u8(match u {
                TimeUnit::Millis => 1,
                TimeUnit::Seconds => 2,
                TimeUnit::Minutes => 3,
                TimeUnit::Hours => 4,
                TimeUnit::Days => 5,
            }),
        }
        write_value(buf, &f.default_value);
    }
}

fn read_schema(buf: &mut Bytes) -> Result<Schema> {
    let name = read_str(buf)?;
    let n = read_u32(buf)? as usize;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let fname = read_str(buf)?;
        let data_type = dt_from_tag(read_u8(buf)?)?;
        let role = match read_u8(buf)? {
            0 => FieldRole::Dimension,
            1 => FieldRole::Metric,
            2 => FieldRole::Time,
            _ => return Err(err("bad field role")),
        };
        let single_value = read_u8(buf)? != 0;
        let time_unit = match read_u8(buf)? {
            0 => None,
            1 => Some(TimeUnit::Millis),
            2 => Some(TimeUnit::Seconds),
            3 => Some(TimeUnit::Minutes),
            4 => Some(TimeUnit::Hours),
            5 => Some(TimeUnit::Days),
            _ => return Err(err("bad time unit")),
        };
        let default_value = read_value(buf)?;
        fields.push(FieldSpec {
            name: fname,
            data_type,
            role,
            single_value,
            time_unit,
            default_value,
        });
    }
    Schema::new(name, fields)
}

// ---- metadata ----

fn write_metadata(buf: &mut BytesMut, m: &SegmentMetadata) {
    write_str(buf, &m.segment_name);
    write_str(buf, &m.table);
    buf.put_u32_le(m.num_docs);
    match &m.time_column {
        Some(c) => {
            buf.put_u8(1);
            write_str(buf, c);
        }
        None => buf.put_u8(0),
    }
    write_opt_i64(buf, m.min_time);
    write_opt_i64(buf, m.max_time);
    match &m.partition {
        Some(p) => {
            buf.put_u8(1);
            write_str(buf, &p.column);
            buf.put_u32_le(p.partition_id);
            buf.put_u32_le(p.num_partitions);
        }
        None => buf.put_u8(0),
    }
    match m.offset_range {
        Some((s, e)) => {
            buf.put_u8(1);
            buf.put_u64_le(s);
            buf.put_u64_le(e);
        }
        None => buf.put_u8(0),
    }
    buf.put_i64_le(m.created_at_millis);
}

fn read_metadata(buf: &mut Bytes) -> Result<SegmentMetadata> {
    let segment_name = read_str(buf)?;
    let table = read_str(buf)?;
    let num_docs = read_u32(buf)?;
    let time_column = match read_u8(buf)? {
        0 => None,
        1 => Some(read_str(buf)?),
        _ => return Err(err("bad option tag")),
    };
    let min_time = read_opt_i64(buf)?;
    let max_time = read_opt_i64(buf)?;
    let partition = match read_u8(buf)? {
        0 => None,
        1 => Some(PartitionInfo {
            column: read_str(buf)?,
            partition_id: read_u32(buf)?,
            num_partitions: read_u32(buf)?,
        }),
        _ => return Err(err("bad option tag")),
    };
    let offset_range = match read_u8(buf)? {
        0 => None,
        1 => Some((read_u64(buf)?, read_u64(buf)?)),
        _ => return Err(err("bad option tag")),
    };
    let created_at_millis = read_i64(buf)?;
    Ok(SegmentMetadata {
        segment_name,
        table,
        num_docs,
        columns: Vec::new(), // refreshed after columns load
        time_column,
        min_time,
        max_time,
        partition,
        offset_range,
        created_at_millis,
        size_bytes: 0, // refreshed after columns load
    })
}

// ---- columns ----

fn write_dictionary(buf: &mut BytesMut, d: &Dictionary) {
    match d {
        Dictionary::Int(v) => {
            buf.put_u8(0);
            buf.put_u32_le(v.len() as u32);
            for x in v {
                buf.put_i32_le(*x);
            }
        }
        Dictionary::Long(v) => {
            buf.put_u8(1);
            buf.put_u32_le(v.len() as u32);
            for x in v {
                buf.put_i64_le(*x);
            }
        }
        Dictionary::Float(v) => {
            buf.put_u8(2);
            buf.put_u32_le(v.len() as u32);
            for x in v {
                buf.put_f32_le(*x);
            }
        }
        Dictionary::Double(v) => {
            buf.put_u8(3);
            buf.put_u32_le(v.len() as u32);
            for x in v {
                buf.put_f64_le(*x);
            }
        }
        Dictionary::String(v) => {
            buf.put_u8(4);
            buf.put_u32_le(v.len() as u32);
            for x in v {
                write_str(buf, x);
            }
        }
        Dictionary::Boolean(v) => {
            buf.put_u8(5);
            buf.put_u32_le(v.len() as u32);
            for x in v {
                buf.put_u8(*x as u8);
            }
        }
    }
}

fn read_dictionary(buf: &mut Bytes) -> Result<Dictionary> {
    let tag = read_u8(buf)?;
    let n = read_u32(buf)? as usize;
    Ok(match tag {
        0 => {
            let mut v = Vec::with_capacity(n.min(1 << 22));
            for _ in 0..n {
                v.push(read_u32(buf)? as i32);
            }
            Dictionary::Int(v)
        }
        1 => {
            let mut v = Vec::with_capacity(n.min(1 << 22));
            for _ in 0..n {
                v.push(read_i64(buf)?);
            }
            Dictionary::Long(v)
        }
        2 => {
            let mut v = Vec::with_capacity(n.min(1 << 22));
            for _ in 0..n {
                if buf.remaining() < 4 {
                    return Err(err("truncated (f32 dict)"));
                }
                v.push(buf.get_f32_le());
            }
            Dictionary::Float(v)
        }
        3 => {
            let mut v = Vec::with_capacity(n.min(1 << 22));
            for _ in 0..n {
                if buf.remaining() < 8 {
                    return Err(err("truncated (f64 dict)"));
                }
                v.push(buf.get_f64_le());
            }
            Dictionary::Double(v)
        }
        4 => {
            let mut v = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                v.push(read_str(buf)?);
            }
            Dictionary::String(v)
        }
        5 => {
            let mut v = Vec::with_capacity(n.min(4));
            for _ in 0..n {
                v.push(read_u8(buf)? != 0);
            }
            Dictionary::Boolean(v)
        }
        _ => return Err(err("bad dictionary tag")),
    })
}

fn write_packed(buf: &mut BytesMut, p: &PackedIntVec) {
    let (bits, len, words) = p.raw_parts();
    buf.put_u8(bits);
    buf.put_u64_le(len as u64);
    buf.put_u32_le(words.len() as u32);
    for w in words {
        buf.put_u64_le(*w);
    }
}

fn read_packed(buf: &mut Bytes) -> Result<PackedIntVec> {
    let bits = read_u8(buf)?;
    let len = read_u64(buf)? as usize;
    let nwords = read_u32(buf)? as usize;
    let mut words = Vec::with_capacity(nwords.min(1 << 24));
    for _ in 0..nwords {
        words.push(read_u64(buf)?);
    }
    PackedIntVec::from_raw_parts(bits, len, words).ok_or_else(|| err("bad packed vector"))
}

fn write_column(buf: &mut BytesMut, col: &ColumnData) {
    write_dictionary(buf, &col.dictionary);
    match &col.forward {
        ForwardIndex::SingleValue(p) => {
            buf.put_u8(0);
            write_packed(buf, p);
        }
        ForwardIndex::MultiValue { offsets, ids } => {
            buf.put_u8(1);
            buf.put_u32_le(offsets.len() as u32);
            for o in offsets {
                buf.put_u32_le(*o);
            }
            write_packed(buf, ids);
        }
        // Realtime cut views canonicalize to a plain packed vector: the
        // on-disk format has no chunked form (sealing rebuilds columns
        // anyway; serializing a cut is only reachable from tests/tools).
        chunked @ ForwardIndex::ChunkedSingle { len, .. } => {
            let mut ids = vec![0u32; *len];
            chunked.read_block(0, &mut ids);
            buf.put_u8(0);
            write_packed(buf, &PackedIntVec::from_slice(&ids));
        }
    }
    match &col.inverted {
        Some(inv) => {
            buf.put_u8(1);
            let bitmaps = inv.bitmaps();
            buf.put_u32_le(bitmaps.len() as u32);
            for bm in bitmaps {
                let blob = pinot_bitmap::serialize(bm);
                buf.put_u32_le(blob.len() as u32);
                buf.put_slice(&blob);
            }
        }
        None => buf.put_u8(0),
    }
    match &col.sorted {
        Some(s) => {
            buf.put_u8(1);
            let starts = s.starts();
            buf.put_u32_le(starts.len() as u32);
            for v in starts {
                buf.put_u32_le(*v);
            }
        }
        None => buf.put_u8(0),
    }
    match &col.bloom {
        Some(f) => {
            buf.put_u8(1);
            buf.put_u64_le(f.seed());
            buf.put_u32_le(f.bits_per_key());
            buf.put_u32_le(f.num_hashes());
            buf.put_u64_le(f.num_keys());
            buf.put_u32_le(f.words().len() as u32);
            for w in f.words() {
                buf.put_u64_le(*w);
            }
        }
        None => buf.put_u8(0),
    }
}

fn read_bloom(buf: &mut Bytes) -> Result<Option<BloomFilter>> {
    match read_u8(buf)? {
        0 => Ok(None),
        1 => {
            let seed = read_u64(buf)?;
            let bits_per_key = read_u32(buf)?;
            let num_hashes = read_u32(buf)?;
            let num_keys = read_u64(buf)?;
            let nwords = read_u32(buf)? as usize;
            if nwords == 0 || !nwords.is_multiple_of(8) {
                return Err(err("bad bloom word count"));
            }
            let mut words = Vec::with_capacity(nwords.min(1 << 24));
            for _ in 0..nwords {
                words.push(read_u64(buf)?);
            }
            Ok(Some(BloomFilter::from_parts(
                seed,
                bits_per_key,
                num_hashes,
                num_keys,
                words,
            )))
        }
        _ => Err(err("bad bloom tag")),
    }
}

fn read_column(buf: &mut Bytes, spec: FieldSpec) -> Result<ColumnData> {
    let dictionary = read_dictionary(buf)?;
    let forward = match read_u8(buf)? {
        0 => ForwardIndex::SingleValue(read_packed(buf)?),
        1 => {
            let n = read_u32(buf)? as usize;
            let mut offsets = Vec::with_capacity(n.min(1 << 24));
            for _ in 0..n {
                offsets.push(read_u32(buf)?);
            }
            if offsets.is_empty() || offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(err("bad multi-value offsets"));
            }
            let ids = read_packed(buf)?;
            if *offsets.last().unwrap() as usize != ids.len() {
                return Err(err("multi-value offsets do not cover ids"));
            }
            ForwardIndex::MultiValue { offsets, ids }
        }
        _ => return Err(err("bad forward index tag")),
    };
    let inverted = match read_u8(buf)? {
        0 => None,
        1 => {
            let n = read_u32(buf)? as usize;
            if n != dictionary.cardinality() {
                return Err(err("inverted index cardinality mismatch"));
            }
            let mut bitmaps = Vec::with_capacity(n.min(1 << 22));
            for _ in 0..n {
                let blen = read_u32(buf)? as usize;
                if buf.remaining() < blen {
                    return Err(err("truncated bitmap"));
                }
                let blob = buf.copy_to_bytes(blen);
                let bm: RoaringBitmap =
                    pinot_bitmap::deserialize(&blob).ok_or_else(|| err("bad bitmap"))?;
                bitmaps.push(bm);
            }
            Some(InvertedIndex::from_bitmaps(bitmaps))
        }
        _ => return Err(err("bad inverted tag")),
    };
    let sorted = match read_u8(buf)? {
        0 => None,
        1 => {
            let n = read_u32(buf)? as usize;
            let mut starts = Vec::with_capacity(n.min(1 << 24));
            for _ in 0..n {
                starts.push(read_u32(buf)?);
            }
            Some(SortedIndex::from_starts(starts).ok_or_else(|| err("bad sorted index"))?)
        }
        _ => return Err(err("bad sorted tag")),
    };
    let bloom = read_bloom(buf)?;
    // Cross-checks against the dictionary.
    for doc in 0..forward.num_docs() as u32 {
        // Spot-check only the first and last documents to keep load cheap;
        // full validation happens implicitly at query time via panics on
        // out-of-range ids. Doing all docs would make loads O(n) validation.
        if doc > 0 && doc + 1 < forward.num_docs() as u32 {
            continue;
        }
        let mut ids = Vec::new();
        forward.get_multi(doc, &mut ids);
        if ids.iter().any(|&i| i as usize >= dictionary.cardinality()) {
            return Err(err("forward index id out of dictionary range"));
        }
    }
    Ok(ColumnData {
        spec,
        dictionary: std::sync::Arc::new(dictionary),
        forward,
        inverted,
        sorted,
        bloom,
    })
}

/// Rebuild derived metadata (per-column stats, sizes) after load.
pub(crate) fn refresh_metadata(seg: &mut SegmentMetadata, columns: &[ColumnData]) {
    seg.columns = columns.iter().map(ColumnData::stats).collect();
    seg.size_bytes = columns.iter().map(ColumnData::size_bytes).sum::<usize>() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuilderConfig, SegmentBuilder};
    use pinot_common::Record;

    fn build_segment() -> ImmutableSegment {
        let schema = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("id", DataType::Long),
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::multi_value_dimension("tags", DataType::String),
                FieldSpec::metric("clicks", DataType::Double),
                FieldSpec::time("day", DataType::Long, TimeUnit::Days),
            ],
        )
        .unwrap();
        let cfg = BuilderConfig::new("seg_0", "t_OFFLINE")
            .with_sort_columns(&["id"])
            .with_inverted_columns(&["country", "tags"])
            .with_bloom_columns(&["country"])
            .with_partition(PartitionInfo {
                column: "id".into(),
                partition_id: 2,
                num_partitions: 8,
            })
            .with_offset_range(100, 200);
        let mut b = SegmentBuilder::new(schema, cfg).unwrap();
        for i in 0..500i64 {
            b.add(Record::new(vec![
                Value::Long(i % 37),
                Value::String(format!("c{}", i % 5)),
                Value::StringArray(vec![format!("t{}", i % 3), format!("t{}", i % 7)]),
                Value::Double(i as f64 * 0.5),
                Value::Long(17_000 + i % 10),
            ]))
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let seg = build_segment();
        let blob = serialize(&seg);
        let back = deserialize(&blob).unwrap();

        assert_eq!(back.name(), seg.name());
        assert_eq!(back.num_docs(), seg.num_docs());
        assert_eq!(back.schema(), seg.schema());
        assert_eq!(back.metadata().partition, seg.metadata().partition);
        assert_eq!(back.metadata().offset_range, Some((100, 200)));
        assert_eq!(back.metadata().min_time, seg.metadata().min_time);
        assert_eq!(back.metadata().max_time, seg.metadata().max_time);

        // Every record identical.
        for doc in 0..seg.num_docs() {
            assert_eq!(back.record(doc), seg.record(doc));
        }
        // Indexes survived.
        assert!(back.column("id").unwrap().sorted.is_some());
        let inv = back.column("country").unwrap().inverted.as_ref().unwrap();
        let orig = seg.column("country").unwrap().inverted.as_ref().unwrap();
        assert_eq!(inv.cardinality(), orig.cardinality());
        for i in 0..inv.cardinality() as u32 {
            assert_eq!(inv.postings(i).to_vec(), orig.postings(i).to_vec());
        }
        // Bloom filter survived bit for bit, and stats reflect it.
        assert_eq!(
            back.column("country").unwrap().bloom,
            seg.column("country").unwrap().bloom
        );
        assert!(back.metadata().column("country").unwrap().has_bloom_filter);
        assert_eq!(
            back.column("country")
                .unwrap()
                .bloom_contains(&Value::from("c3")),
            Some(true)
        );
    }

    #[test]
    fn rejects_corrupted_blob() {
        let seg = build_segment();
        let blob = serialize(&seg);
        // Truncation
        assert!(deserialize(&blob[..blob.len() / 2]).is_err());
        // Bit flip in payload breaks the checksum
        let mut bad = blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(deserialize(&bad).is_err());
        // Bad magic
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(deserialize(&bad).is_err());
        // Any version but the current one — a future one, or the retired
        // v1 — is a typed error before the payload is touched.
        for version in [99u16, 1] {
            let mut bad = blob.clone();
            bad[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(deserialize(&bad), Err(PinotError::Segment(m)) if m.contains("version")),
                "version {version}"
            );
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let schema = Schema::new("t", vec![FieldSpec::dimension("a", DataType::Int)]).unwrap();
        let b = SegmentBuilder::new(schema, BuilderConfig::new("e", "t")).unwrap();
        let seg = b.build().unwrap();
        let back = deserialize(&serialize(&seg)).unwrap();
        assert_eq!(back.num_docs(), 0);
    }
}
