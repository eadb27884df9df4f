//! Document selections and predicate compilation.
//!
//! A filter evaluates to a [`DocSelection`]: either a contiguous doc range
//! (sorted-column predicates, §4.2), a roaring bitmap (inverted-index
//! predicates), everything, or nothing. Leaf predicates first compile to an
//! [`IdMatcher`] — the predicate translated into the column's dictionary-id
//! space — which each physical operator then evaluates with the cheapest
//! structure available.

use pinot_bitmap::RoaringBitmap;
use pinot_common::{PinotError, Result};
use pinot_pql::{CmpOp, Predicate};
use pinot_segment::column::ColumnData;
use pinot_segment::{DictId, DocId, ImmutableSegment};

/// A leaf predicate compiled into dictionary-id space.
#[derive(Debug, Clone, PartialEq)]
pub struct IdMatcher {
    pub column: String,
    pub kind: MatchKind,
}

#[derive(Debug, Clone, PartialEq)]
pub enum MatchKind {
    /// Matches ids in `[lo, hi)` — equality is a 1-wide range. Because
    /// dictionaries are sorted, every comparison/BETWEEN compiles to this.
    Range(DictId, DictId),
    /// Matches an explicit sorted id set (IN predicates).
    Set(Vec<DictId>),
    /// Matches nothing in this segment (e.g. value absent from dictionary).
    Nothing,
}

impl IdMatcher {
    /// Compile one leaf predicate against a segment's dictionary.
    pub fn compile(segment: &ImmutableSegment, pred: &Predicate) -> Result<IdMatcher> {
        match pred {
            Predicate::Cmp { column, op, value } => {
                let col = segment.column(column)?;
                let dict = &col.dictionary;
                let kind = match op {
                    CmpOp::Eq => match dict.id_of(value) {
                        Some(id) => MatchKind::Range(id, id + 1),
                        None => MatchKind::Nothing,
                    },
                    // Ne is handled by the caller as Not(Eq).
                    CmpOp::Ne => {
                        return Err(PinotError::Internal(
                            "Ne must be rewritten before compilation".into(),
                        ))
                    }
                    CmpOp::Lt => {
                        let (lo, hi) = dict.id_range(None, Some(value));
                        // `<=` minus equality: shrink upper bound if the
                        // exact value exists.
                        let hi = match dict.id_of(value) {
                            Some(id) => id,
                            None => hi,
                        };
                        range_or_nothing(lo, hi)
                    }
                    CmpOp::Le => {
                        let (lo, hi) = dict.id_range(None, Some(value));
                        range_or_nothing(lo, hi)
                    }
                    CmpOp::Gt => {
                        let (lo, hi) = dict.id_range(Some(value), None);
                        let lo = match dict.id_of(value) {
                            Some(id) => id + 1,
                            None => lo,
                        };
                        range_or_nothing(lo, hi)
                    }
                    CmpOp::Ge => {
                        let (lo, hi) = dict.id_range(Some(value), None);
                        range_or_nothing(lo, hi)
                    }
                };
                Ok(IdMatcher {
                    column: column.clone(),
                    kind,
                })
            }
            Predicate::Between { column, low, high } => {
                let col = segment.column(column)?;
                let (lo, hi) = col.dictionary.id_range(Some(low), Some(high));
                Ok(IdMatcher {
                    column: column.clone(),
                    kind: range_or_nothing(lo, hi),
                })
            }
            Predicate::In {
                column,
                values,
                negated,
            } => {
                if *negated {
                    return Err(PinotError::Internal(
                        "NOT IN must be rewritten before compilation".into(),
                    ));
                }
                let col = segment.column(column)?;
                let mut ids: Vec<DictId> = values
                    .iter()
                    .filter_map(|v| col.dictionary.id_of(v))
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                Ok(IdMatcher {
                    column: column.clone(),
                    kind: if ids.is_empty() {
                        MatchKind::Nothing
                    } else {
                        MatchKind::Set(ids)
                    },
                })
            }
            _ => Err(PinotError::Internal(
                "IdMatcher::compile expects a leaf predicate".into(),
            )),
        }
    }

    /// Does this doc match? Used by the scan fallback; multi-value columns
    /// match when any element matches.
    #[inline]
    pub fn matches_doc(&self, col: &ColumnData, doc: DocId) -> bool {
        match &self.kind {
            MatchKind::Range(lo, hi) => col.forward.doc_in_range(doc, *lo, *hi),
            MatchKind::Set(ids) => ids.iter().any(|&id| col.forward.doc_contains(doc, id)),
            MatchKind::Nothing => false,
        }
    }
}

fn range_or_nothing(lo: DictId, hi: DictId) -> MatchKind {
    if lo >= hi {
        MatchKind::Nothing
    } else {
        MatchKind::Range(lo, hi)
    }
}

/// Max docs per [`DocBlock`] — matches `pinot_segment::bitpack::BLOCK`
/// so one block decodes into one scratch buffer.
pub const BLOCK_SIZE: usize = pinot_segment::bitpack::BLOCK;

/// Documents handed to a block kernel in one call: a contiguous run
/// (decoded straight off the forward index) or an explicit ascending id
/// list (bitmap selections). At most [`BLOCK_SIZE`] docs either way.
#[derive(Debug, Clone, Copy)]
pub enum DocBlock<'a> {
    /// Contiguous docs `[start, end)`.
    Run(DocId, DocId),
    /// Ascending doc ids.
    Ids(&'a [DocId]),
}

impl DocBlock<'_> {
    pub fn len(&self) -> usize {
        match self {
            DocBlock::Run(s, e) => (*e - *s) as usize,
            DocBlock::Ids(ids) => ids.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `row`-th doc of the block.
    #[inline]
    pub fn doc(&self, row: usize) -> DocId {
        match self {
            DocBlock::Run(s, _) => *s + row as DocId,
            DocBlock::Ids(ids) => ids[row],
        }
    }
}

fn each_run_block(start: DocId, end: DocId, f: &mut impl FnMut(DocBlock<'_>)) {
    let mut s = start;
    while s < end {
        let e = s.saturating_add(BLOCK_SIZE as DocId).min(end);
        f(DocBlock::Run(s, e));
        s = e;
    }
}

/// The matched document set of a (sub-)filter.
#[derive(Debug, Clone, PartialEq)]
pub enum DocSelection {
    /// All docs in `[0, n)` — no filter.
    All(DocId),
    /// Contiguous docs `[start, end)` — sorted-column predicates.
    Range(DocId, DocId),
    /// Arbitrary doc set.
    Bitmap(RoaringBitmap),
    /// Nothing matches.
    Empty,
}

impl DocSelection {
    pub fn count(&self) -> u64 {
        match self {
            DocSelection::All(n) => *n as u64,
            DocSelection::Range(s, e) => (*e - *s) as u64,
            DocSelection::Bitmap(bm) => bm.len(),
            DocSelection::Empty => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Materialize as a bitmap (for mixed combinations).
    pub fn to_bitmap(&self) -> RoaringBitmap {
        match self {
            DocSelection::All(n) => RoaringBitmap::from_range(0, *n),
            DocSelection::Range(s, e) => RoaringBitmap::from_range(*s, *e),
            DocSelection::Bitmap(bm) => bm.clone(),
            DocSelection::Empty => RoaringBitmap::new(),
        }
    }

    /// Intersect with another selection. Range∧Range stays a range — the
    /// paper's "pass the column range on to subsequent operators".
    pub fn and(&self, other: &DocSelection) -> DocSelection {
        use DocSelection::*;
        match (self, other) {
            (Empty, _) | (_, Empty) => Empty,
            (All(_), x) => x.clone(),
            (x, All(_)) => x.clone(),
            (Range(a, b), Range(c, d)) => {
                let (s, e) = ((*a).max(*c), (*b).min(*d));
                if s >= e {
                    Empty
                } else {
                    Range(s, e)
                }
            }
            (Range(a, b), Bitmap(bm)) | (Bitmap(bm), Range(a, b)) => {
                let masked = bm.and(&RoaringBitmap::from_range(*a, *b));
                if masked.is_empty() {
                    Empty
                } else {
                    Bitmap(masked)
                }
            }
            (Bitmap(x), Bitmap(y)) => {
                let z = x.and(y);
                if z.is_empty() {
                    Empty
                } else {
                    Bitmap(z)
                }
            }
        }
    }

    /// Union with another selection.
    pub fn or(&self, other: &DocSelection) -> DocSelection {
        use DocSelection::*;
        match (self, other) {
            (Empty, x) | (x, Empty) => x.clone(),
            (All(n), _) | (_, All(n)) => All(*n),
            (Range(a, b), Range(c, d)) if *c <= *b && *a <= *d => Range((*a).min(*c), (*b).max(*d)),
            (x, y) => Bitmap(x.to_bitmap().or(&y.to_bitmap())),
        }
    }

    /// Complement within `[0, num_docs)`.
    pub fn not(&self, num_docs: DocId) -> DocSelection {
        use DocSelection::*;
        match self {
            Empty => All(num_docs),
            All(_) => Empty,
            Range(s, e) => {
                if *s == 0 {
                    if *e >= num_docs {
                        Empty
                    } else {
                        Range(*e, num_docs)
                    }
                } else if *e >= num_docs {
                    Range(0, *s)
                } else {
                    Bitmap(
                        RoaringBitmap::from_range(0, *s)
                            .or(&RoaringBitmap::from_range(*e, num_docs)),
                    )
                }
            }
            Bitmap(bm) => {
                let c = bm.not(num_docs);
                if c.is_empty() {
                    Empty
                } else {
                    Bitmap(c)
                }
            }
        }
    }

    /// Iterate matching doc ids in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(DocId)) {
        match self {
            DocSelection::All(n) => {
                for d in 0..*n {
                    f(d);
                }
            }
            DocSelection::Range(s, e) => {
                for d in *s..*e {
                    f(d);
                }
            }
            DocSelection::Bitmap(bm) => {
                for d in bm.iter() {
                    f(d);
                }
            }
            DocSelection::Empty => {}
        }
    }

    /// Iterate matching docs as blocks of at most [`BLOCK_SIZE`], in the
    /// same ascending doc order as [`DocSelection::for_each`]: ranges
    /// yield contiguous runs, bitmap selections drain their containers
    /// in bulk and yield sorted id slices.
    pub fn for_each_block(&self, mut f: impl FnMut(DocBlock<'_>)) {
        match self {
            DocSelection::All(n) => each_run_block(0, *n, &mut f),
            DocSelection::Range(s, e) => each_run_block(*s, *e, &mut f),
            DocSelection::Bitmap(bm) => {
                let mut scratch = Vec::new();
                bm.for_each_batch(&mut scratch, |ids| {
                    for chunk in ids.chunks(BLOCK_SIZE) {
                        f(DocBlock::Ids(chunk));
                    }
                });
            }
            DocSelection::Empty => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
    use pinot_segment::builder::{BuilderConfig, SegmentBuilder};

    fn segment() -> ImmutableSegment {
        let schema = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("k", DataType::Long),
                FieldSpec::dimension("s", DataType::String),
            ],
        )
        .unwrap();
        let mut b = SegmentBuilder::new(schema, BuilderConfig::new("x", "t")).unwrap();
        for (k, s) in [(10i64, "a"), (20, "b"), (30, "c"), (40, "b")] {
            b.add(Record::new(vec![Value::Long(k), Value::from(s)]))
                .unwrap();
        }
        b.build().unwrap()
    }

    fn cmp(col: &str, op: CmpOp, v: Value) -> Predicate {
        Predicate::Cmp {
            column: col.into(),
            op,
            value: v,
        }
    }

    #[test]
    fn compile_comparisons() {
        let seg = segment();
        // dict for k: 10,20,30,40 → ids 0..4
        let m = IdMatcher::compile(&seg, &cmp("k", CmpOp::Eq, Value::Long(20))).unwrap();
        assert_eq!(m.kind, MatchKind::Range(1, 2));
        let m = IdMatcher::compile(&seg, &cmp("k", CmpOp::Lt, Value::Long(30))).unwrap();
        assert_eq!(m.kind, MatchKind::Range(0, 2));
        let m = IdMatcher::compile(&seg, &cmp("k", CmpOp::Le, Value::Long(30))).unwrap();
        assert_eq!(m.kind, MatchKind::Range(0, 3));
        let m = IdMatcher::compile(&seg, &cmp("k", CmpOp::Gt, Value::Long(20))).unwrap();
        assert_eq!(m.kind, MatchKind::Range(2, 4));
        let m = IdMatcher::compile(&seg, &cmp("k", CmpOp::Ge, Value::Long(20))).unwrap();
        assert_eq!(m.kind, MatchKind::Range(1, 4));
        // Bounds not present in the dictionary still work.
        let m = IdMatcher::compile(&seg, &cmp("k", CmpOp::Lt, Value::Long(25))).unwrap();
        assert_eq!(m.kind, MatchKind::Range(0, 2));
        let m = IdMatcher::compile(&seg, &cmp("k", CmpOp::Eq, Value::Long(25))).unwrap();
        assert_eq!(m.kind, MatchKind::Nothing);
    }

    #[test]
    fn compile_between_and_in() {
        let seg = segment();
        let m = IdMatcher::compile(
            &seg,
            &Predicate::Between {
                column: "k".into(),
                low: Value::Long(15),
                high: Value::Long(35),
            },
        )
        .unwrap();
        assert_eq!(m.kind, MatchKind::Range(1, 3));
        let m = IdMatcher::compile(
            &seg,
            &Predicate::In {
                column: "s".into(),
                values: vec![Value::from("b"), Value::from("zz"), Value::from("a")],
                negated: false,
            },
        )
        .unwrap();
        assert_eq!(m.kind, MatchKind::Set(vec![0, 1])); // a=0, b=1
    }

    #[test]
    fn matcher_matches_docs() {
        let seg = segment();
        let col = seg.column("s").unwrap();
        let m = IdMatcher::compile(&seg, &cmp("s", CmpOp::Eq, Value::from("b"))).unwrap();
        let matched: Vec<DocId> = (0..4).filter(|&d| m.matches_doc(col, d)).collect();
        assert_eq!(matched, vec![1, 3]);
    }

    #[test]
    fn selection_algebra() {
        use DocSelection::*;
        let r1 = Range(2, 8);
        let r2 = Range(5, 12);
        assert_eq!(r1.and(&r2), Range(5, 8));
        assert_eq!(r1.or(&r2), Range(2, 12));
        let disjoint = Range(20, 25);
        assert_eq!(r1.and(&disjoint), Empty);
        match r1.or(&disjoint) {
            Bitmap(bm) => assert_eq!(bm.len(), 6 + 5),
            other => panic!("{other:?}"),
        }
        let bm = Bitmap(RoaringBitmap::from_iter([3u32, 6, 9]));
        assert_eq!(r1.and(&bm).to_bitmap().to_vec(), vec![3, 6]);
        assert_eq!(All(10).and(&r1), r1);
        assert_eq!(Empty.or(&r1), r1);
        assert_eq!(r1.count(), 6);
    }

    #[test]
    fn selection_not() {
        use DocSelection::*;
        assert_eq!(Range(0, 4).not(10), Range(4, 10));
        assert_eq!(Range(4, 10).not(10), Range(0, 4));
        assert_eq!(All(10).not(10), Empty);
        assert_eq!(Empty.not(10), All(10));
        match Range(3, 5).not(10) {
            Bitmap(bm) => assert_eq!(bm.to_vec(), vec![0, 1, 2, 5, 6, 7, 8, 9]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_each_block_matches_for_each() {
        let selections = [
            DocSelection::All(2600),
            DocSelection::Range(3, 6),
            DocSelection::Range(100, 100 + 3 * BLOCK_SIZE as DocId + 7),
            DocSelection::Bitmap(RoaringBitmap::from_iter([9u32, 1, 4, 70_000])),
            DocSelection::Bitmap(RoaringBitmap::from_sorted(0..9000u32)),
            DocSelection::Empty,
        ];
        for sel in selections {
            let mut rows = Vec::new();
            sel.for_each(|d| rows.push(d));
            let mut blocks = Vec::new();
            sel.for_each_block(|b| {
                assert!(b.len() <= BLOCK_SIZE);
                assert!(!b.is_empty());
                match b {
                    DocBlock::Run(s, e) => blocks.extend(s..e),
                    DocBlock::Ids(ids) => blocks.extend_from_slice(ids),
                }
            });
            assert_eq!(blocks, rows, "{sel:?}");
        }
    }

    #[test]
    fn for_each_iterates_in_order() {
        let mut seen = Vec::new();
        DocSelection::Range(3, 6).for_each(|d| seen.push(d));
        assert_eq!(seen, vec![3, 4, 5]);
        let mut seen = Vec::new();
        DocSelection::Bitmap(RoaringBitmap::from_iter([9u32, 1, 4])).for_each(|d| seen.push(d));
        assert_eq!(seen, vec![1, 4, 9]);
    }
}
