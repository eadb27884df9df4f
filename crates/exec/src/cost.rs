//! Cost-based access-path selection from real segment statistics.
//!
//! The filter path (§4.2–4.3) chooses among sorted-column ranges,
//! inverted-index probes, and scans. This module makes that choice from
//! the statistics the segment already stores instead of a fixed
//! structure preference:
//!
//! * **sorted runs** — `SortedIndex` run lengths give the *exact*
//!   matching doc count for any range or id set;
//! * **inverted postings** — per-id posting cardinalities give the exact
//!   count for single-value columns (an upper bound for multi-value);
//! * **zone maps** — numeric range predicates on unindexed columns
//!   interpolate against the column's min/max;
//! * **dictionary NDV** — everything else assumes values distribute
//!   uniformly over the exact distinct-value count.
//!
//! [`choose_path`] turns an estimate into an [`AccessPath`] per leaf.
//! The choice is a pure function of (segment, leaf, mode) — never of the
//! enclosing conjunction's current selection or any runtime
//! calibration — so the same leaf picks the same path in every
//! evaluation order, which is what keeps plan choice byte-invisible to
//! results.

use crate::selection::{IdMatcher, MatchKind};
pub use pinot_common::PlannerMode;
use pinot_pql::{CmpOp, Predicate};
use pinot_segment::ImmutableSegment;

/// Physical access path chosen for one predicate leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Sorted-column binary search: one contiguous doc range per id range.
    Sorted,
    /// Inverted-index probe: union of roaring posting lists.
    Inverted,
    /// Forward-index scan (range-restricted inside a conjunction).
    Scan,
}

impl AccessPath {
    pub fn as_str(self) -> &'static str {
        match self {
            AccessPath::Sorted => "sorted",
            AccessPath::Inverted => "inverted",
            AccessPath::Scan => "scan",
        }
    }
}

/// Selectivity estimate for one predicate leaf on one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEstimate {
    /// Estimated fraction of the segment's docs matching, in `[0, 1]`.
    pub selectivity: f64,
    /// True when the estimate is an exact count (sorted runs, single-value
    /// postings, or a definite miss), not a uniformity assumption.
    pub exact: bool,
    /// Index probes an inverted/sorted evaluation would need: dict ids in
    /// the range, or ids in the IN set. The fan-out gate's first input.
    pub probes: usize,
}

impl LeafEstimate {
    fn inexact(selectivity: f64, probes: usize) -> LeafEstimate {
        LeafEstimate {
            selectivity: selectivity.clamp(0.0, 1.0),
            exact: false,
            probes,
        }
    }

    /// Estimated matching docs out of `total`.
    pub fn est_docs(&self, total: u64) -> u64 {
        (self.selectivity * total as f64).round() as u64
    }
}

/// Prior for leaves the estimator cannot compile (unknown column, shape
/// the dictionary cannot translate): assume half the segment matches.
const UNKNOWN_SELECTIVITY: f64 = 0.5;

/// An inverted evaluation unions one posting list per probed dict id;
/// past this many probes the union dominates and a (range-restricted)
/// scan is cheaper even when the index exists. Gates wide IN-lists and
/// huge dict-id ranges back to scans.
pub const MAX_INDEX_PROBES: usize = 1024;

/// Above this estimated selectivity an inverted probe materializes most
/// of the segment as postings anyway; the scan path touches the same
/// docs without building the bitmap union first. Calibrated against the
/// planner bench: Roaring's container-at-a-time union is so much cheaper
/// per doc than a forward-index decode that the crossover only happens
/// when nearly everything matches (at 75% selectivity the inverted path
/// still beat the scan ~1.6× on the bench corpus).
pub const INVERTED_MAX_SELECTIVITY: f64 = 0.9;

/// Estimate one leaf's selectivity from segment statistics. Non-leaf
/// predicates get the unknown prior (callers decompose And/Or/Not via
/// [`estimate_predicate`]).
pub fn estimate_leaf(segment: &ImmutableSegment, leaf: &Predicate) -> LeafEstimate {
    let num_docs = segment.num_docs() as f64;
    let Ok(matcher) = IdMatcher::compile(segment, leaf) else {
        return LeafEstimate::inexact(UNKNOWN_SELECTIVITY, 0);
    };
    // Definite miss: the value is absent from this segment's dictionary
    // (the same signal a bloom filter would give a routed Eq probe).
    if matches!(matcher.kind, MatchKind::Nothing) {
        return LeafEstimate {
            selectivity: 0.0,
            exact: true,
            probes: 0,
        };
    }
    let Ok(col) = segment.column(&matcher.column) else {
        return LeafEstimate::inexact(UNKNOWN_SELECTIVITY, 0);
    };
    if num_docs == 0.0 {
        return LeafEstimate {
            selectivity: 0.0,
            exact: true,
            probes: 0,
        };
    }
    let probes = match &matcher.kind {
        MatchKind::Range(lo, hi) => (hi - lo) as usize,
        MatchKind::Set(ids) => ids.len(),
        MatchKind::Nothing => 0,
    };

    // Sorted runs: exact matching doc counts from the run-length index.
    if let Some(sorted) = &col.sorted {
        let docs = match &matcher.kind {
            MatchKind::Range(lo, hi) => {
                let (s, e) = sorted.doc_range_for_ids(*lo, *hi);
                (e - s) as u64
            }
            MatchKind::Set(ids) => ids.iter().map(|&id| sorted.run_length(id) as u64).sum(),
            MatchKind::Nothing => 0,
        };
        return LeafEstimate {
            selectivity: (docs as f64 / num_docs).clamp(0.0, 1.0),
            exact: true,
            probes,
        };
    }

    // Inverted postings: exact doc frequencies for single-value columns
    // (postings are disjoint); an upper bound for multi-value.
    if let Some(inv) = &col.inverted {
        let docs = match &matcher.kind {
            MatchKind::Range(lo, hi) => inv.doc_frequency_range(*lo, *hi),
            MatchKind::Set(ids) => ids.iter().map(|&id| inv.doc_frequency(id)).sum(),
            MatchKind::Nothing => 0,
        };
        return LeafEstimate {
            selectivity: (docs as f64 / num_docs).clamp(0.0, 1.0),
            exact: col.forward.is_single_value(),
            probes,
        };
    }

    // Zone-map interpolation for numeric ranges on unindexed columns.
    if let Some(sel) = zone_map_fraction(segment, leaf) {
        return LeafEstimate::inexact(sel, probes);
    }

    // Dictionary NDV, uniform over distinct values. The NDV itself is
    // exact (segment-local dictionaries are built from the data), only
    // the per-value distribution is assumed.
    let card = col.dictionary.cardinality();
    let sel = match &matcher.kind {
        MatchKind::Range(lo, hi) => col.dictionary.ndv_fraction(*lo, *hi),
        MatchKind::Set(ids) => {
            if card == 0 {
                0.0
            } else {
                ids.len() as f64 / card as f64
            }
        }
        MatchKind::Nothing => 0.0,
    };
    LeafEstimate::inexact(sel, probes)
}

/// Zone-map range fraction for a numeric comparison/BETWEEN leaf:
/// interpolate the predicate's value interval against the column's
/// min/max from segment metadata. `None` for non-range shapes,
/// non-numeric columns, or degenerate zone maps.
fn zone_map_fraction(segment: &ImmutableSegment, leaf: &Predicate) -> Option<f64> {
    let (column, lo, hi) = match leaf {
        Predicate::Cmp { column, op, value } => {
            let v = value.as_f64()?;
            match op {
                CmpOp::Lt | CmpOp::Le => (column, None, Some(v)),
                CmpOp::Gt | CmpOp::Ge => (column, Some(v), None),
                _ => return None,
            }
        }
        Predicate::Between { column, low, high } => {
            (column, Some(low.as_f64()?), Some(high.as_f64()?))
        }
        _ => return None,
    };
    let stats = segment.metadata().column(column)?;
    if !stats.data_type.is_numeric() || !stats.single_value {
        return None;
    }
    let min = stats.min.as_ref()?.as_f64()?;
    let max = stats.max.as_ref()?.as_f64()?;
    Some(crate::prune::zone_overlap_fraction(min, max, lo, hi))
}

/// Estimated selectivity of a whole (normalized) predicate tree, in
/// `[0, 1]`: conjunctions multiply (independence), disjunctions combine
/// by inclusion-exclusion under independence, negation complements.
/// `And` is therefore never above its smallest child and `Or` never
/// below its largest — the monotonicity the proptests pin.
pub fn estimate_predicate(segment: &ImmutableSegment, pred: &Predicate) -> f64 {
    match pred {
        Predicate::And(ps) => ps
            .iter()
            .map(|p| estimate_predicate(segment, p))
            .product::<f64>()
            .clamp(0.0, 1.0),
        Predicate::Or(ps) => {
            let none: f64 = ps
                .iter()
                .map(|p| 1.0 - estimate_predicate(segment, p))
                .product();
            (1.0 - none).clamp(0.0, 1.0)
        }
        Predicate::Not(inner) => (1.0 - estimate_predicate(segment, inner)).clamp(0.0, 1.0),
        leaf => estimate_leaf(segment, leaf).selectivity,
    }
}

/// Choose the access path for one leaf. Pure in (segment, leaf, mode);
/// see the module docs for why that purity is load-bearing.
///
/// `Auto` prefers the sorted index (two binary searches, one contiguous
/// range — always cheapest), then the inverted index unless the leaf
/// needs more than [`MAX_INDEX_PROBES`] posting unions or is estimated
/// above [`INVERTED_MAX_SELECTIVITY`] (both fall back to the scan, which
/// inside a conjunction is further restricted to the already-selected
/// docs). Forced modes pin their path wherever the structure exists.
pub fn choose_path(
    segment: &ImmutableSegment,
    leaf: &Predicate,
    mode: PlannerMode,
) -> (AccessPath, LeafEstimate) {
    let est = estimate_leaf(segment, leaf);
    let column = match leaf {
        Predicate::Cmp { column, .. }
        | Predicate::In { column, .. }
        | Predicate::Between { column, .. } => column,
        _ => return (AccessPath::Scan, est),
    };
    let Ok(col) = segment.column(column) else {
        return (AccessPath::Scan, est);
    };
    let path = match mode {
        PlannerMode::Scan => AccessPath::Scan,
        PlannerMode::Sorted if col.sorted.is_some() => AccessPath::Sorted,
        PlannerMode::Sorted => AccessPath::Scan,
        PlannerMode::Inverted if col.inverted.is_some() => AccessPath::Inverted,
        PlannerMode::Inverted => AccessPath::Scan,
        PlannerMode::Auto => {
            if col.sorted.is_some() {
                AccessPath::Sorted
            } else if col.inverted.is_some()
                && est.probes <= MAX_INDEX_PROBES
                && est.selectivity <= INVERTED_MAX_SELECTIVITY
            {
                AccessPath::Inverted
            } else {
                AccessPath::Scan
            }
        }
    };
    (path, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, FieldSpec, Record, Schema, Value};
    use pinot_pql::parse;
    use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
    use std::sync::Arc;

    fn segment(sorted: bool, inverted: bool) -> Arc<ImmutableSegment> {
        let schema = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("k", DataType::Long),
                FieldSpec::dimension("c", DataType::String),
                FieldSpec::metric("m", DataType::Long),
            ],
        )
        .unwrap();
        let mut cfg = BuilderConfig::new("s", "t");
        if sorted {
            cfg = cfg.with_sort_columns(&["k"]);
        }
        if inverted {
            cfg = cfg.with_inverted_columns(&["c"]);
        }
        let mut b = SegmentBuilder::new(schema, cfg).unwrap();
        for i in 0..100i64 {
            b.add(Record::new(vec![
                Value::Long(i % 10),
                Value::String(format!("c{}", i % 4)),
                Value::Long(i),
            ]))
            .unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    fn filter_of(q: &str) -> Predicate {
        parse(q).unwrap().filter.unwrap()
    }

    #[test]
    fn mode_parsing_round_trips() {
        for m in [
            PlannerMode::Auto,
            PlannerMode::Scan,
            PlannerMode::Inverted,
            PlannerMode::Sorted,
        ] {
            assert_eq!(PlannerMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(PlannerMode::parse("bogus"), None);
    }

    #[test]
    fn sorted_estimates_are_exact() {
        let seg = segment(true, false);
        let e = estimate_leaf(&seg, &filter_of("SELECT COUNT(*) FROM t WHERE k = 3"));
        assert!(e.exact);
        assert!((e.selectivity - 0.10).abs() < 1e-9);
        let e = estimate_leaf(
            &seg,
            &filter_of("SELECT COUNT(*) FROM t WHERE k IN (1, 5, 9)"),
        );
        assert!(e.exact);
        assert!((e.selectivity - 0.30).abs() < 1e-9);
    }

    #[test]
    fn inverted_estimates_are_exact_for_sv() {
        let seg = segment(false, true);
        let e = estimate_leaf(&seg, &filter_of("SELECT COUNT(*) FROM t WHERE c = 'c1'"));
        assert!(e.exact);
        assert!((e.selectivity - 0.25).abs() < 1e-9);
    }

    #[test]
    fn definite_miss_is_zero() {
        let seg = segment(false, true);
        let e = estimate_leaf(&seg, &filter_of("SELECT COUNT(*) FROM t WHERE c = 'zz'"));
        assert!(e.exact);
        assert_eq!(e.selectivity, 0.0);
    }

    #[test]
    fn zone_map_interpolates_numeric_ranges() {
        let seg = segment(false, false);
        // m spans [0, 99]; m > 79 covers ~20% of the value range.
        let e = estimate_leaf(&seg, &filter_of("SELECT COUNT(*) FROM t WHERE m > 79"));
        assert!(!e.exact);
        assert!((e.selectivity - 0.2).abs() < 0.05, "{}", e.selectivity);
        let e = estimate_leaf(
            &seg,
            &filter_of("SELECT COUNT(*) FROM t WHERE m BETWEEN 10 AND 19"),
        );
        assert!((e.selectivity - 0.1).abs() < 0.05, "{}", e.selectivity);
    }

    #[test]
    fn tree_estimates_compose() {
        let seg = segment(true, true);
        let and = estimate_predicate(
            &seg,
            &filter_of("SELECT COUNT(*) FROM t WHERE k = 3 AND c = 'c1'"),
        );
        assert!((and - 0.025).abs() < 1e-9);
        let or = estimate_predicate(
            &seg,
            &filter_of("SELECT COUNT(*) FROM t WHERE k = 3 OR c = 'c1'"),
        );
        assert!((or - (0.1 + 0.25 - 0.025)).abs() < 1e-9);
        let not = estimate_predicate(&seg, &filter_of("SELECT COUNT(*) FROM t WHERE NOT k = 3"));
        assert!((not - 0.9).abs() < 1e-9);
    }

    #[test]
    fn auto_gates_low_value_index_probes_to_scans() {
        let seg = segment(false, true);
        // c = 'c1' is 25% selective: keep the index.
        let (path, _) = choose_path(
            &seg,
            &filter_of("SELECT COUNT(*) FROM t WHERE c = 'c1'"),
            PlannerMode::Auto,
        );
        assert_eq!(path, AccessPath::Inverted);
        // c >= 'c1' matches 75% of docs: still cheaper through the union.
        let (path, est) = choose_path(
            &seg,
            &filter_of("SELECT COUNT(*) FROM t WHERE c >= 'c1'"),
            PlannerMode::Auto,
        );
        assert_eq!(path, AccessPath::Inverted);
        assert!(est.selectivity <= INVERTED_MAX_SELECTIVITY);
        // c >= 'c0' matches every doc: past the selectivity gate — the
        // union would materialize the whole segment as postings.
        let (path, est) = choose_path(
            &seg,
            &filter_of("SELECT COUNT(*) FROM t WHERE c >= 'c0'"),
            PlannerMode::Auto,
        );
        assert_eq!(path, AccessPath::Scan);
        assert!(est.selectivity > INVERTED_MAX_SELECTIVITY);
    }

    #[test]
    fn forced_modes_pin_where_structure_exists() {
        let seg = segment(true, true);
        let k_eq = filter_of("SELECT COUNT(*) FROM t WHERE k = 3");
        let c_eq = filter_of("SELECT COUNT(*) FROM t WHERE c = 'c1'");
        assert_eq!(
            choose_path(&seg, &k_eq, PlannerMode::Sorted).0,
            AccessPath::Sorted
        );
        assert_eq!(
            choose_path(&seg, &c_eq, PlannerMode::Sorted).0,
            AccessPath::Scan
        );
        assert_eq!(
            choose_path(&seg, &c_eq, PlannerMode::Inverted).0,
            AccessPath::Inverted
        );
        assert_eq!(
            choose_path(&seg, &k_eq, PlannerMode::Scan).0,
            AccessPath::Scan
        );
    }
}
