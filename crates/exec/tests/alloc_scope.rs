//! Per-segment execution allocates in proportion to the selected docs,
//! not to the segment's dictionaries.
//!
//! A counting global allocator tallies the bytes each thread asks for.
//! The segment has 65,536 rows, an all-distinct DOUBLE column `d` (a
//! 512 KiB dictionary) and a 32-value string column `s` with an inverted
//! index, so `s = 'v07'` selects 2,048 docs; `g` splits those eight
//! ways. Each query shape runs inline on this thread and must allocate
//! less than a quarter of `d`'s dictionary: nothing may copy or index
//! the dictionary per query.

use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
use pinot_exec::segment_exec::{execute_on_segment, SegmentHandle};
use pinot_pql::parse;
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ROWS: u32 = 65_536;

fn handle() -> SegmentHandle {
    let schema = Schema::new(
        "t",
        vec![
            FieldSpec::dimension("s", DataType::String),
            FieldSpec::dimension("g", DataType::Long),
            FieldSpec::metric("d", DataType::Double),
        ],
    )
    .unwrap();
    let cfg = BuilderConfig::new("seg", "t").with_inverted_columns(&["s"]);
    let mut b = SegmentBuilder::new(schema, cfg).unwrap();
    for i in 0..ROWS {
        b.add(Record::new(vec![
            Value::String(format!("v{:02}", i % 32)),
            Value::Long(i64::from(i / 32 % 8)),
            Value::Double(f64::from(i) * 0.25),
        ]))
        .unwrap();
    }
    SegmentHandle::new(Arc::new(b.build().unwrap()))
}

/// Bytes this thread allocated while executing `pql` on the segment.
fn bytes_for(handle: &SegmentHandle, pql: &str) -> (u64, u64) {
    let query = parse(pql).unwrap();
    let before = BYTES.with(Cell::get);
    let result = execute_on_segment(handle, &query).unwrap();
    let bytes = BYTES.with(Cell::get) - before;
    (bytes, result.stats.num_docs_scanned)
}

#[test]
fn execution_allocates_in_proportion_to_the_selection() {
    let handle = handle();
    let column = handle.segment.column("d").unwrap();
    assert_eq!(column.dictionary.cardinality(), ROWS as usize);
    let dict_bytes = ROWS as u64 * 8;
    for (pql, docs) in [
        ("SELECT SUM(d), MAX(d) FROM t WHERE s = 'v07'", 2048),
        // Its result holds every distinct selected value (32 B each plus
        // hash-table slack), so this case selects 256 docs.
        (
            "SELECT DISTINCTCOUNT(d) FROM t WHERE s = 'v07' AND g = 3",
            256,
        ),
        (
            "SELECT SUM(d), COUNT(*) FROM t WHERE s = 'v07' GROUP BY g",
            2048,
        ),
        ("SELECT SUM(d), MAX(d) FROM t WHERE s = 'none'", 0),
    ] {
        let (bytes, scanned) = bytes_for(&handle, pql);
        assert_eq!(scanned, docs, "{pql}");
        assert!(
            bytes < dict_bytes / 4,
            "{pql}: allocated {bytes} B, the dictionary is {dict_bytes} B"
        );
    }
}
