//! Forward indexes: per-document dictionary ids.

use crate::bitpack::PackedIntVec;
use crate::{DictId, DocId};
use std::sync::Arc;

/// Rows per sealed chunk of a consuming-segment column. A multiple of the
/// bit-pack block (1024) so `read_block` spans touch at most one chunk
/// boundary per block and sealed chunks decode with the same batch kernels
/// as offline segments.
pub const CHUNK_ROWS: usize = 4096;

/// Forward index for one column.
///
/// Single-value columns store one bit-packed dict id per document.
/// Multi-value columns store a flattened id array plus per-document offsets
/// (document `d` owns ids `[offsets[d], offsets[d+1])`).
///
/// `ChunkedSingle` is the realtime form used by consistent cuts of a
/// consuming segment: sealed fixed-size chunks of bit-packed *insertion*
/// ids (shared by `Arc` with the live mutable column, never reallocated)
/// plus a row-wise tail for the open chunk. Insertion ids are translated
/// to sorted-dictionary ids through `remap` after unpacking, so chunk bit
/// widths stay valid as the dictionary grows.
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardIndex {
    SingleValue(PackedIntVec),
    MultiValue {
        offsets: Vec<u32>,
        ids: PackedIntVec,
    },
    ChunkedSingle {
        chunks: Vec<Arc<PackedIntVec>>,
        tail: Arc<[u32]>,
        remap: Arc<[u32]>,
        len: usize,
    },
}

impl ForwardIndex {
    pub fn single(ids: &[DictId]) -> ForwardIndex {
        ForwardIndex::SingleValue(PackedIntVec::from_slice(ids))
    }

    pub fn multi(per_doc: &[Vec<DictId>]) -> ForwardIndex {
        let mut offsets = Vec::with_capacity(per_doc.len() + 1);
        offsets.push(0u32);
        let mut flat = Vec::new();
        for ids in per_doc {
            flat.extend_from_slice(ids);
            offsets.push(flat.len() as u32);
        }
        ForwardIndex::MultiValue {
            offsets,
            ids: PackedIntVec::from_slice(&flat),
        }
    }

    /// Realtime cut view over shared sealed chunks + a cloned open tail.
    /// `remap` maps insertion ids to sorted-dictionary ids; `len` is the
    /// cut's row high-water mark.
    pub fn chunked(
        chunks: Vec<Arc<PackedIntVec>>,
        tail: Arc<[u32]>,
        remap: Arc<[u32]>,
        len: usize,
    ) -> ForwardIndex {
        debug_assert_eq!(chunks.len() * CHUNK_ROWS + tail.len(), len);
        ForwardIndex::ChunkedSingle {
            chunks,
            tail,
            remap,
            len,
        }
    }

    pub fn is_single_value(&self) -> bool {
        matches!(
            self,
            ForwardIndex::SingleValue(_) | ForwardIndex::ChunkedSingle { .. }
        )
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        match self {
            ForwardIndex::SingleValue(v) => v.len(),
            ForwardIndex::MultiValue { offsets, .. } => offsets.len().saturating_sub(1),
            ForwardIndex::ChunkedSingle { len, .. } => *len,
        }
    }

    /// Total entries (equals `num_docs` for single-value columns).
    pub fn num_entries(&self) -> usize {
        match self {
            ForwardIndex::SingleValue(v) => v.len(),
            ForwardIndex::MultiValue { ids, .. } => ids.len(),
            ForwardIndex::ChunkedSingle { len, .. } => *len,
        }
    }

    /// Dict id of a single-value document. Panics on multi-value columns.
    #[inline]
    pub fn get(&self, doc: DocId) -> DictId {
        match self {
            ForwardIndex::SingleValue(v) => v.get(doc as usize),
            ForwardIndex::MultiValue { .. } => {
                panic!("get() on multi-value forward index; use get_multi()")
            }
            ForwardIndex::ChunkedSingle {
                chunks,
                tail,
                remap,
                len,
            } => {
                let doc = doc as usize;
                debug_assert!(doc < *len);
                let chunk = doc / CHUNK_ROWS;
                let raw = if chunk < chunks.len() {
                    chunks[chunk].get(doc % CHUNK_ROWS)
                } else {
                    tail[doc - chunks.len() * CHUNK_ROWS]
                };
                remap[raw as usize]
            }
        }
    }

    /// Bulk-read the dict ids of docs `[start, start + out.len())` into
    /// `out` — the block-decode entry point of the execution kernels.
    /// Panics on multi-value columns (the kernels read those per doc
    /// with `get_multi`).
    #[inline]
    pub fn read_block(&self, start: DocId, out: &mut [DictId]) {
        match self {
            ForwardIndex::SingleValue(v) => v.unpack_block(start as usize, out),
            ForwardIndex::MultiValue { .. } => {
                panic!("read_block() on multi-value forward index; use get_multi()")
            }
            ForwardIndex::ChunkedSingle {
                chunks,
                tail,
                remap,
                len,
            } => {
                let n = out.len();
                debug_assert!(start as usize + n <= *len);
                let mut filled = 0usize;
                let mut pos = start as usize;
                while filled < n {
                    let chunk = pos / CHUNK_ROWS;
                    if chunk < chunks.len() {
                        let local = pos % CHUNK_ROWS;
                        let take = (CHUNK_ROWS - local).min(n - filled);
                        chunks[chunk].unpack_block(local, &mut out[filled..filled + take]);
                        filled += take;
                        pos += take;
                    } else {
                        let local = pos - chunks.len() * CHUNK_ROWS;
                        let take = n - filled;
                        out[filled..filled + take].copy_from_slice(&tail[local..local + take]);
                        filled += take;
                        pos += take;
                    }
                }
                for id in out.iter_mut() {
                    *id = remap[*id as usize];
                }
            }
        }
    }

    /// Dict ids of a document (one element for single-value columns).
    pub fn get_multi(&self, doc: DocId, out: &mut Vec<DictId>) {
        out.clear();
        match self {
            ForwardIndex::SingleValue(v) => out.push(v.get(doc as usize)),
            ForwardIndex::MultiValue { offsets, ids } => {
                let start = offsets[doc as usize] as usize;
                let end = offsets[doc as usize + 1] as usize;
                for i in start..end {
                    out.push(ids.get(i));
                }
            }
            ForwardIndex::ChunkedSingle { .. } => out.push(self.get(doc)),
        }
    }

    /// True when any of the document's entries equals `id`.
    pub fn doc_contains(&self, doc: DocId, id: DictId) -> bool {
        match self {
            ForwardIndex::SingleValue(v) => v.get(doc as usize) == id,
            ForwardIndex::MultiValue { offsets, ids } => {
                let start = offsets[doc as usize] as usize;
                let end = offsets[doc as usize + 1] as usize;
                (start..end).any(|i| ids.get(i) == id)
            }
            ForwardIndex::ChunkedSingle { .. } => self.get(doc) == id,
        }
    }

    /// True when any entry of the document falls in the id range `[lo, hi)`.
    pub fn doc_in_range(&self, doc: DocId, lo: DictId, hi: DictId) -> bool {
        match self {
            ForwardIndex::SingleValue(v) => {
                let id = v.get(doc as usize);
                id >= lo && id < hi
            }
            ForwardIndex::MultiValue { offsets, ids } => {
                let start = offsets[doc as usize] as usize;
                let end = offsets[doc as usize + 1] as usize;
                (start..end).any(|i| {
                    let id = ids.get(i);
                    id >= lo && id < hi
                })
            }
            ForwardIndex::ChunkedSingle { .. } => {
                let id = self.get(doc);
                id >= lo && id < hi
            }
        }
    }

    pub fn size_bytes(&self) -> usize {
        match self {
            ForwardIndex::SingleValue(v) => v.size_bytes(),
            ForwardIndex::MultiValue { offsets, ids } => offsets.len() * 4 + ids.size_bytes(),
            ForwardIndex::ChunkedSingle {
                chunks,
                tail,
                remap,
                ..
            } => {
                chunks.iter().map(|c| c.size_bytes()).sum::<usize>()
                    + (tail.len() + remap.len()) * 4
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value_round_trip() {
        let ids = vec![3u32, 0, 7, 7, 2];
        let f = ForwardIndex::single(&ids);
        assert!(f.is_single_value());
        assert_eq!(f.num_docs(), 5);
        assert_eq!(f.num_entries(), 5);
        for (d, id) in ids.iter().enumerate() {
            assert_eq!(f.get(d as DocId), *id);
        }
    }

    #[test]
    fn multi_value_round_trip() {
        let per_doc = vec![vec![1u32, 2], vec![], vec![0, 3, 4]];
        let f = ForwardIndex::multi(&per_doc);
        assert!(!f.is_single_value());
        assert_eq!(f.num_docs(), 3);
        assert_eq!(f.num_entries(), 5);
        let mut out = Vec::new();
        f.get_multi(0, &mut out);
        assert_eq!(out, vec![1, 2]);
        f.get_multi(1, &mut out);
        assert!(out.is_empty());
        f.get_multi(2, &mut out);
        assert_eq!(out, vec![0, 3, 4]);
    }

    #[test]
    fn doc_contains_and_range() {
        let f = ForwardIndex::multi(&[vec![1, 5], vec![2]]);
        assert!(f.doc_contains(0, 5));
        assert!(!f.doc_contains(0, 2));
        assert!(f.doc_in_range(0, 4, 6));
        assert!(!f.doc_in_range(1, 4, 6));

        let s = ForwardIndex::single(&[4, 9]);
        assert!(s.doc_contains(1, 9));
        assert!(s.doc_in_range(0, 0, 5));
        assert!(!s.doc_in_range(0, 5, 9));
    }

    #[test]
    fn read_block_matches_get() {
        let ids: Vec<u32> = (0..300u32).map(|i| (i * 31) % 97).collect();
        let f = ForwardIndex::single(&ids);
        for (start, len) in [(0usize, 300usize), (13, 100), (299, 1), (50, 0)] {
            let mut out = vec![0u32; len];
            f.read_block(start as DocId, &mut out);
            assert_eq!(out, ids[start..start + len]);
        }
    }

    #[test]
    #[should_panic(expected = "multi-value")]
    fn read_block_on_multi_value_panics() {
        let f = ForwardIndex::multi(&[vec![1]]);
        let mut out = [0u32; 1];
        f.read_block(0, &mut out);
    }

    #[test]
    fn get_multi_on_single_value() {
        let f = ForwardIndex::single(&[6]);
        let mut out = Vec::new();
        f.get_multi(0, &mut out);
        assert_eq!(out, vec![6]);
    }

    #[test]
    #[should_panic(expected = "multi-value")]
    fn get_on_multi_value_panics() {
        let f = ForwardIndex::multi(&[vec![1]]);
        f.get(0);
    }

    /// Build a chunked forward index over `raw` insertion ids with a
    /// reversing remap, plus the equivalent flat oracle.
    fn chunked_fixture(n: usize, card: u32) -> (ForwardIndex, Vec<u32>) {
        let raw: Vec<u32> = (0..n as u32).map(|i| (i * 131) % card).collect();
        let remap: Vec<u32> = (0..card).map(|i| card - 1 - i).collect();
        let mut chunks = Vec::new();
        let mut pos = 0;
        while raw.len() - pos >= CHUNK_ROWS {
            chunks.push(Arc::new(PackedIntVec::from_slice(
                &raw[pos..pos + CHUNK_ROWS],
            )));
            pos += CHUNK_ROWS;
        }
        let tail: Arc<[u32]> = raw[pos..].into();
        let oracle: Vec<u32> = raw.iter().map(|&r| remap[r as usize]).collect();
        let f = ForwardIndex::chunked(chunks, tail, remap.into(), n);
        (f, oracle)
    }

    #[test]
    fn chunked_matches_flat_oracle() {
        for n in [0usize, 5, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 777] {
            let (f, oracle) = chunked_fixture(n, 97);
            assert!(f.is_single_value());
            assert_eq!(f.num_docs(), n);
            assert_eq!(f.num_entries(), n);
            for (d, &want) in oracle.iter().enumerate() {
                assert_eq!(f.get(d as DocId), want, "doc {d} of {n}");
            }
        }
    }

    #[test]
    fn chunked_read_block_spans_chunk_boundaries() {
        let n = 2 * CHUNK_ROWS + 513;
        let (f, oracle) = chunked_fixture(n, 97);
        for (start, len) in [
            (0usize, n),
            (CHUNK_ROWS - 7, 200),
            (CHUNK_ROWS - 1, 2),
            (2 * CHUNK_ROWS - 100, 613),
            (2 * CHUNK_ROWS + 500, 13),
            (17, 1024),
            (n - 1, 1),
            (5, 0),
        ] {
            let mut out = vec![0u32; len];
            f.read_block(start as DocId, &mut out);
            assert_eq!(out, oracle[start..start + len], "start={start} len={len}");
        }
    }

    #[test]
    fn chunked_predicate_helpers() {
        let (f, oracle) = chunked_fixture(CHUNK_ROWS + 10, 7);
        let mut out = Vec::new();
        f.get_multi(3, &mut out);
        assert_eq!(out, vec![oracle[3]]);
        assert!(f.doc_contains(3, oracle[3]));
        assert!(!f.doc_contains(3, oracle[3] + 100));
        assert!(f.doc_in_range(3, oracle[3], oracle[3] + 1));
        assert!(!f.doc_in_range(3, oracle[3] + 1, oracle[3] + 2));
    }
}
