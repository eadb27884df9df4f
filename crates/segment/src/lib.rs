//! Columnar segment format (§3.1, Figure 1 of the paper).
//!
//! A *segment* is an immutable collection of records stored column-wise.
//! Every column is dictionary encoded: the dictionary holds the sorted
//! distinct values, and the *forward index* stores one bit-packed dictionary
//! id per document (or a list of ids for multi-value columns). On top of
//! that, a column may carry:
//!
//! * a **bitmap inverted index** — one roaring bitmap of document ids per
//!   dictionary id;
//! * a **sorted-column index** — when the segment's records are physically
//!   ordered by this column, each dictionary id maps to one contiguous
//!   `(start, end)` document range (§4.2), which replaces bitmaps entirely
//!   and lets downstream operators work on one contiguous range.
//!
//! [`builder::SegmentBuilder`] creates immutable segments from records
//! (sorting them physically when a sort column is configured).
//! [`mutable::MutableSegment`] is the realtime consuming segment: it stores
//! appends columnar from the start ([`realtime`]), serves queries through
//! cheap consistent cuts, and seals into an immutable segment directly from
//! the columnar store when the completion protocol commits it.
//! [`persist`] provides the on-disk/object-store binary format.

pub mod bitpack;
pub mod bloom;
pub mod builder;
pub mod column;
pub mod dictionary;
pub mod forward;
pub mod inverted;
pub mod metadata;
pub mod mutable;
pub mod persist;
pub mod realtime;
pub mod segment;
pub mod sorted_index;

pub use bloom::BloomFilter;
pub use builder::SegmentBuilder;
pub use column::ColumnData;
pub use dictionary::Dictionary;
pub use metadata::{ColumnStats, SegmentMetadata};
pub use mutable::MutableSegment;
pub use segment::ImmutableSegment;

/// Document id within one segment.
pub type DocId = u32;
/// Dictionary id within one column.
pub type DictId = u32;
