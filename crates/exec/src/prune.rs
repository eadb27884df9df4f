//! Segment pruning from per-column statistics.
//!
//! A [`PruneEvaluator`] folds a PQL filter tree against a segment's
//! column statistics (min/max zone maps, optional bloom filters) into a
//! three-valued verdict *before* any planning or scanning happens:
//!
//! * [`Prunable::CannotMatch`] — no row can satisfy the filter; the
//!   segment contributes an empty partial with zero plan/scan work;
//! * [`Prunable::MatchAll`] — every row satisfies the filter; the
//!   predicate can be stripped, which lets COUNT/MIN/MAX-only queries
//!   upgrade to the metadata-only plan;
//! * [`Prunable::Unknown`] — the statistics cannot decide; execute
//!   normally.
//!
//! The same fold runs at two levels: servers evaluate against full
//! segment metadata plus bloom filters ([`PruneStatsSource`] is
//! implemented for `ImmutableSegment`), and brokers evaluate against the
//! per-column zone maps the controller publishes into segment metadata
//! ([`ZoneMapStats`]), dropping fully-prunable servers from the scatter
//! set entirely.
//!
//! Soundness: every leaf rule mirrors the execution engine's own value
//! coercion (`Dictionary::id_of` / `id_range`): integer columns compare
//! exactly in i64, float columns compare through the column's width with
//! IEEE total order, and a probe value that cannot coerce into the
//! column's type matches nothing — so `CannotMatch` is never returned
//! for a segment containing a matching row (the proptests pin this
//! against a row-scan oracle), and `MatchAll` is only returned when the
//! zone map proves every single-value row equals the probe.

use pinot_common::{DataType, Value};
use pinot_pql::{CmpOp, Predicate};
use pinot_segment::ImmutableSegment;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Verdict of folding a filter against segment statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prunable {
    /// No row in the segment can match the filter.
    CannotMatch,
    /// Every row in the segment matches the filter.
    MatchAll,
    /// Statistics cannot decide; execute the filter normally.
    Unknown,
}

/// Which statistic level decided a `CannotMatch` (for per-level metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneLevel {
    /// Min/max zone map on the table's time column.
    Time,
    /// Min/max zone map on any other column.
    ZoneMap,
    /// Bloom filter membership.
    Bloom,
}

impl PruneLevel {
    /// The level's name, as EXPLAIN and profiles print it.
    pub fn as_str(self) -> &'static str {
        match self {
            PruneLevel::Time => "time",
            PruneLevel::ZoneMap => "zonemap",
            PruneLevel::Bloom => "bloom",
        }
    }

    /// The counter of segments pruned at this level:
    /// `prune.<level>_segments`.
    pub fn metric_name(self) -> &'static str {
        match self {
            PruneLevel::Time => "prune.time_segments",
            PruneLevel::ZoneMap => "prune.zonemap_segments",
            PruneLevel::Bloom => "prune.bloom_segments",
        }
    }
}

/// Result of one evaluation, with bloom probe accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneOutcome {
    pub prunable: Prunable,
    /// Set when `prunable` is `CannotMatch`.
    pub level: Option<PruneLevel>,
    /// Bloom membership tests performed.
    pub bloom_probes: u64,
    /// Probes that answered "definitely absent".
    pub bloom_negatives: u64,
}

/// Zone-map view of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRange {
    pub data_type: DataType,
    pub min: Value,
    pub max: Value,
    pub single_value: bool,
}

/// Source of per-column statistics for one segment (or one table-level
/// fold of many segments).
pub trait PruneStatsSource {
    /// Min/max zone map for a column; `None` when the column is unknown
    /// or has no statistics (the evaluator then answers `Unknown`).
    fn column_range(&self, column: &str) -> Option<ColumnRange>;

    /// Bloom membership for an exact value; `None` when no filter exists
    /// or the value cannot be probed.
    fn bloom_contains(&self, _column: &str, _value: &Value) -> Option<bool> {
        None
    }
}

impl PruneStatsSource for ImmutableSegment {
    fn column_range(&self, column: &str) -> Option<ColumnRange> {
        let stats = self.metadata().column(column)?;
        Some(ColumnRange {
            data_type: stats.data_type,
            min: stats.min.clone()?,
            max: stats.max.clone()?,
            single_value: stats.single_value,
        })
    }

    fn bloom_contains(&self, column: &str, value: &Value) -> Option<bool> {
        self.column(column).ok()?.bloom_contains(value)
    }
}

/// Broker-side statistics: zone maps reconstructed from the segment
/// metadata JSON the controller publishes. No bloom filters at this
/// level — those live only inside segments.
#[derive(Debug, Clone, Default)]
pub struct ZoneMapStats {
    pub columns: HashMap<String, ColumnRange>,
}

impl PruneStatsSource for ZoneMapStats {
    fn column_range(&self, column: &str) -> Option<ColumnRange> {
        self.columns.get(column).cloned()
    }
}

/// Fraction of a zone map's value interval `[min, max]` that a
/// predicate interval overlaps, assuming values distribute uniformly —
/// the cost model's numeric-range fallback when a column has neither a
/// sorted nor an inverted index ([`crate::cost::estimate_leaf`]). `None`
/// interval ends are unbounded; degenerate or unusable zone maps answer
/// conservatively (everything matches).
pub fn zone_overlap_fraction(min: f64, max: f64, lo: Option<f64>, hi: Option<f64>) -> f64 {
    if !min.is_finite() || !max.is_finite() || min > max {
        return 1.0;
    }
    let lo = lo.unwrap_or(min).max(min);
    let hi = hi.unwrap_or(max).min(max);
    if lo > hi {
        return 0.0;
    }
    if max == min {
        return 1.0;
    }
    ((hi - lo) / (max - min)).clamp(0.0, 1.0)
}

/// Folds filter trees against column statistics.
#[derive(Debug, Clone, Default)]
pub struct PruneEvaluator {
    /// Table's time column: `CannotMatch` decided on it counts as
    /// time-level pruning in the metrics.
    time_column: Option<String>,
}

impl PruneEvaluator {
    pub fn new(time_column: Option<String>) -> PruneEvaluator {
        PruneEvaluator { time_column }
    }

    /// Evaluate a filter against one segment's statistics. `None`
    /// filters trivially match every row.
    pub fn evaluate<S: PruneStatsSource + ?Sized>(
        &self,
        filter: Option<&Predicate>,
        stats: &S,
    ) -> PruneOutcome {
        let mut probes = 0u64;
        let mut negatives = 0u64;
        let (prunable, level) = match filter {
            None => (Prunable::MatchAll, None),
            Some(p) => {
                let normalized = crate::planner::normalize_predicate(p);
                self.fold(&normalized, stats, &mut probes, &mut negatives)
            }
        };
        PruneOutcome {
            prunable,
            level: if prunable == Prunable::CannotMatch {
                level
            } else {
                None
            },
            bloom_probes: probes,
            bloom_negatives: negatives,
        }
    }

    fn fold<S: PruneStatsSource + ?Sized>(
        &self,
        pred: &Predicate,
        stats: &S,
        probes: &mut u64,
        negatives: &mut u64,
    ) -> (Prunable, Option<PruneLevel>) {
        match pred {
            Predicate::And(ps) => {
                let mut all_match = true;
                for p in ps {
                    let (v, lvl) = self.fold(p, stats, probes, negatives);
                    match v {
                        Prunable::CannotMatch => return (Prunable::CannotMatch, lvl),
                        Prunable::MatchAll => {}
                        Prunable::Unknown => all_match = false,
                    }
                }
                if all_match && !ps.is_empty() {
                    (Prunable::MatchAll, None)
                } else {
                    (Prunable::Unknown, None)
                }
            }
            Predicate::Or(ps) => {
                let mut all_cannot = true;
                let mut first_level = None;
                for p in ps {
                    let (v, lvl) = self.fold(p, stats, probes, negatives);
                    match v {
                        Prunable::MatchAll => return (Prunable::MatchAll, None),
                        Prunable::CannotMatch => {
                            if first_level.is_none() {
                                first_level = lvl;
                            }
                        }
                        Prunable::Unknown => all_cannot = false,
                    }
                }
                if all_cannot && !ps.is_empty() {
                    (Prunable::CannotMatch, first_level)
                } else {
                    (Prunable::Unknown, None)
                }
            }
            // MatchAll/CannotMatch are exact statements about every row,
            // so negation flips them.
            Predicate::Not(inner) => match self.fold(inner, stats, probes, negatives) {
                (Prunable::MatchAll, _) => (
                    Prunable::CannotMatch,
                    Some(self.level_for(columns_of(inner))),
                ),
                (Prunable::CannotMatch, _) => (Prunable::MatchAll, None),
                (Prunable::Unknown, _) => (Prunable::Unknown, None),
            },
            leaf => self.leaf(leaf, stats, probes, negatives),
        }
    }

    fn level_for(&self, column: Option<&str>) -> PruneLevel {
        match (column, &self.time_column) {
            (Some(c), Some(t)) if c == t => PruneLevel::Time,
            _ => PruneLevel::ZoneMap,
        }
    }

    fn leaf<S: PruneStatsSource + ?Sized>(
        &self,
        leaf: &Predicate,
        stats: &S,
        probes: &mut u64,
        negatives: &mut u64,
    ) -> (Prunable, Option<PruneLevel>) {
        let column = match columns_of(leaf) {
            Some(c) => c,
            None => return (Prunable::Unknown, None),
        };
        let range = match stats.column_range(column) {
            Some(r) => r,
            // Unknown column or no stats: never prune — execution must
            // still surface column-not-found errors and handle empty
            // segments uniformly.
            None => return (Prunable::Unknown, None),
        };
        let zl = self.level_for(Some(column));

        match leaf {
            Predicate::Cmp { op, value, .. } => {
                // A probe that cannot coerce into the column's type
                // matches nothing in the dictionary, whatever the op.
                if !compatible(value, range.data_type) {
                    return (Prunable::CannotMatch, Some(zl));
                }
                let lo = cmp_in_column(value, &range.min, range.data_type);
                let hi = cmp_in_column(value, &range.max, range.data_type);
                let (lo, hi) = match (lo, hi) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return (Prunable::Unknown, None),
                };
                match op {
                    CmpOp::Eq => {
                        if lo == Ordering::Less || hi == Ordering::Greater {
                            return (Prunable::CannotMatch, Some(zl));
                        }
                        if let Some(present) = stats.bloom_contains(column, value) {
                            *probes += 1;
                            if !present {
                                *negatives += 1;
                                return (Prunable::CannotMatch, Some(PruneLevel::Bloom));
                            }
                        }
                        if range.single_value && lo == Ordering::Equal && hi == Ordering::Equal {
                            (Prunable::MatchAll, None)
                        } else {
                            (Prunable::Unknown, None)
                        }
                    }
                    CmpOp::Lt => range_verdict(range.single_value, hi.is_gt(), lo.is_le(), zl),
                    CmpOp::Le => range_verdict(range.single_value, hi.is_ge(), lo.is_lt(), zl),
                    CmpOp::Gt => range_verdict(range.single_value, lo.is_lt(), hi.is_ge(), zl),
                    CmpOp::Ge => range_verdict(range.single_value, lo.is_le(), hi.is_gt(), zl),
                    // `Ne` is rewritten to Not(Eq) by normalization.
                    CmpOp::Ne => (Prunable::Unknown, None),
                }
            }
            Predicate::Between { low, high, .. } => {
                if !compatible(low, range.data_type) || !compatible(high, range.data_type) {
                    return (Prunable::CannotMatch, Some(zl));
                }
                // Inverted bounds match nothing regardless of stats.
                if let Some(Ordering::Greater) = cmp_in_column(low, high, range.data_type) {
                    return (Prunable::CannotMatch, Some(zl));
                }
                let low_vs_max = cmp_in_column(low, &range.max, range.data_type);
                let high_vs_min = cmp_in_column(high, &range.min, range.data_type);
                if low_vs_max == Some(Ordering::Greater) || high_vs_min == Some(Ordering::Less) {
                    return (Prunable::CannotMatch, Some(zl));
                }
                let low_vs_min = cmp_in_column(low, &range.min, range.data_type);
                let high_vs_max = cmp_in_column(high, &range.max, range.data_type);
                if range.single_value
                    && low_vs_min.is_some_and(Ordering::is_le)
                    && high_vs_max.is_some_and(Ordering::is_ge)
                {
                    return (Prunable::MatchAll, None);
                }
                (Prunable::Unknown, None)
            }
            Predicate::In {
                values,
                negated: false,
                ..
            } => {
                let mut all_absent = true;
                let mut used_bloom = false;
                let mut any_covers_all = false;
                for v in values {
                    if !compatible(v, range.data_type) {
                        continue; // matches nothing
                    }
                    let lo = cmp_in_column(v, &range.min, range.data_type);
                    let hi = cmp_in_column(v, &range.max, range.data_type);
                    let outside = lo == Some(Ordering::Less) || hi == Some(Ordering::Greater);
                    if outside {
                        continue;
                    }
                    if let Some(present) = stats.bloom_contains(column, v) {
                        *probes += 1;
                        if !present {
                            *negatives += 1;
                            used_bloom = true;
                            continue;
                        }
                    }
                    all_absent = false;
                    if range.single_value
                        && lo == Some(Ordering::Equal)
                        && hi == Some(Ordering::Equal)
                    {
                        any_covers_all = true;
                    }
                }
                if all_absent {
                    let level = if used_bloom { PruneLevel::Bloom } else { zl };
                    (Prunable::CannotMatch, Some(level))
                } else if any_covers_all {
                    (Prunable::MatchAll, None)
                } else {
                    (Prunable::Unknown, None)
                }
            }
            // Negated IN is rewritten to Not(In) by normalization.
            _ => (Prunable::Unknown, None),
        }
    }
}

/// `CannotMatch`/`MatchAll`/`Unknown` for a one-sided range predicate:
/// `all` is "the whole zone map satisfies the op", `none` is "no value
/// can satisfy it".
fn range_verdict(
    single_value: bool,
    all: bool,
    none: bool,
    level: PruneLevel,
) -> (Prunable, Option<PruneLevel>) {
    if none {
        (Prunable::CannotMatch, Some(level))
    } else if all && single_value {
        (Prunable::MatchAll, None)
    } else {
        (Prunable::Unknown, None)
    }
}

/// The single column a leaf predicate constrains.
fn columns_of(pred: &Predicate) -> Option<&str> {
    match pred {
        Predicate::Cmp { column, .. }
        | Predicate::In { column, .. }
        | Predicate::Between { column, .. } => Some(column),
        _ => None,
    }
}

/// Can `value` coerce into a column of `data_type` at all? Mirrors
/// `Dictionary::id_of`: a `false` answer means the engine matches
/// nothing for this probe.
fn compatible(value: &Value, data_type: DataType) -> bool {
    match data_type {
        DataType::Int => value
            .as_i64()
            .is_some_and(|x| x >= i32::MIN as i64 && x <= i32::MAX as i64),
        DataType::Long => value.as_i64().is_some(),
        DataType::Float | DataType::Double => value.as_f64().is_some(),
        DataType::String => value.as_str().is_some(),
        DataType::Boolean => matches!(value, Value::Boolean(_)),
    }
}

/// Compare a probe value against a zone-map bound *in the column's own
/// value space*, exactly as the dictionary would: integers compare in
/// i64, floats through the column's width with IEEE total order,
/// strings lexicographically.
fn cmp_in_column(probe: &Value, bound: &Value, data_type: DataType) -> Option<Ordering> {
    match data_type {
        DataType::Int | DataType::Long | DataType::Boolean => {
            let a = probe.as_i64()?;
            let b = bound.as_i64()?;
            Some(a.cmp(&b))
        }
        DataType::Float => {
            let a = probe.as_f64()? as f32;
            let b = bound.as_f64()? as f32;
            Some(a.total_cmp(&b))
        }
        DataType::Double => {
            let a = probe.as_f64()?;
            let b = bound.as_f64()?;
            Some(a.total_cmp(&b))
        }
        DataType::String => Some(probe.as_str()?.cmp(bound.as_str()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit};
    use pinot_pql::parse;
    use pinot_segment::builder::{BuilderConfig, SegmentBuilder};

    fn segment() -> ImmutableSegment {
        let schema = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::metric("clicks", DataType::Long),
                FieldSpec::time("day", DataType::Long, TimeUnit::Days),
            ],
        )
        .unwrap();
        let cfg = BuilderConfig::new("s", "t").with_bloom_columns(&["country"]);
        let mut b = SegmentBuilder::new(schema, cfg).unwrap();
        for (c, k, d) in [
            ("us", 10i64, 100i64),
            ("de", 20, 101),
            ("us", 30, 102),
            ("fr", 40, 103),
        ] {
            b.add(Record::new(vec![
                Value::from(c),
                Value::Long(k),
                Value::Long(d),
            ]))
            .unwrap();
        }
        b.build().unwrap()
    }

    fn verdict(seg: &ImmutableSegment, pql: &str) -> PruneOutcome {
        let ev = PruneEvaluator::new(Some("day".into()));
        let q = parse(pql).unwrap();
        ev.evaluate(q.filter.as_ref(), seg)
    }

    #[test]
    fn zone_map_decides_ranges() {
        let seg = segment();
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE clicks > 1000");
        assert_eq!(out.prunable, Prunable::CannotMatch);
        assert_eq!(out.level, Some(PruneLevel::ZoneMap));
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE clicks >= 10");
        assert_eq!(out.prunable, Prunable::MatchAll);
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE clicks > 15");
        assert_eq!(out.prunable, Prunable::Unknown);
    }

    #[test]
    fn time_column_prunes_report_time_level() {
        let seg = segment();
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE day > 200");
        assert_eq!(out.prunable, Prunable::CannotMatch);
        assert_eq!(out.level, Some(PruneLevel::Time));
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE day BETWEEN 100 AND 103");
        assert_eq!(out.prunable, Prunable::MatchAll);
    }

    #[test]
    fn bloom_catches_in_range_misses() {
        let seg = segment();
        // "es" sorts inside ["de", "us"], so only the bloom can prune it.
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE country = 'es'");
        assert_eq!(out.prunable, Prunable::CannotMatch);
        assert_eq!(out.level, Some(PruneLevel::Bloom));
        assert_eq!(out.bloom_probes, 1);
        assert_eq!(out.bloom_negatives, 1);
        // A present value probes positive and stays Unknown.
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE country = 'de'");
        assert_eq!(out.prunable, Prunable::Unknown);
        assert_eq!(out.bloom_probes, 1);
        assert_eq!(out.bloom_negatives, 0);
    }

    #[test]
    fn boolean_composition_follows_the_lattice() {
        let seg = segment();
        // AND: one CannotMatch branch decides.
        let out = verdict(
            &seg,
            "SELECT COUNT(*) FROM t WHERE country = 'us' AND day > 200",
        );
        assert_eq!(out.prunable, Prunable::CannotMatch);
        assert_eq!(out.level, Some(PruneLevel::Time));
        // OR: all branches must be CannotMatch.
        let out = verdict(
            &seg,
            "SELECT COUNT(*) FROM t WHERE clicks > 1000 OR day > 200",
        );
        assert_eq!(out.prunable, Prunable::CannotMatch);
        let out = verdict(
            &seg,
            "SELECT COUNT(*) FROM t WHERE clicks > 1000 OR country = 'us'",
        );
        assert_eq!(out.prunable, Prunable::Unknown);
        // NOT flips the exact verdicts.
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE NOT day > 200");
        assert_eq!(out.prunable, Prunable::MatchAll);
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE NOT clicks >= 10");
        assert_eq!(out.prunable, Prunable::CannotMatch);
        // Ne normalizes through Not.
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE day != 50");
        assert_eq!(out.prunable, Prunable::MatchAll);
    }

    #[test]
    fn in_lists_prune_value_by_value() {
        let seg = segment();
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE country IN ('aa', 'zz')");
        assert_eq!(out.prunable, Prunable::CannotMatch);
        assert_eq!(out.level, Some(PruneLevel::ZoneMap));
        // In-range misses need the bloom.
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE country IN ('es', 'it')");
        assert_eq!(out.prunable, Prunable::CannotMatch);
        assert_eq!(out.level, Some(PruneLevel::Bloom));
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE country IN ('us', 'zz')");
        assert_eq!(out.prunable, Prunable::Unknown);
    }

    #[test]
    fn unknown_columns_and_missing_stats_never_prune() {
        let seg = segment();
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE nosuch = 1");
        assert_eq!(out.prunable, Prunable::Unknown);
    }

    #[test]
    fn incompatible_probe_types_cannot_match() {
        let seg = segment();
        // String probe on a numeric column matches nothing in the engine.
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE clicks = 'ten'");
        assert_eq!(out.prunable, Prunable::CannotMatch);
        // Float probe on an integer column likewise.
        let out = verdict(&seg, "SELECT COUNT(*) FROM t WHERE clicks = 10.5");
        assert_eq!(out.prunable, Prunable::CannotMatch);
    }

    #[test]
    fn empty_filter_matches_all() {
        let seg = segment();
        let out = verdict(&seg, "SELECT COUNT(*) FROM t");
        assert_eq!(out.prunable, Prunable::MatchAll);
    }

    #[test]
    fn zone_map_stats_source_for_broker() {
        let mut zm = ZoneMapStats::default();
        zm.columns.insert(
            "day".into(),
            ColumnRange {
                data_type: DataType::Long,
                min: Value::Long(100),
                max: Value::Long(110),
                single_value: true,
            },
        );
        let ev = PruneEvaluator::new(Some("day".into()));
        let q = parse("SELECT COUNT(*) FROM t WHERE day = 300").unwrap();
        let out = ev.evaluate(q.filter.as_ref(), &zm);
        assert_eq!(out.prunable, Prunable::CannotMatch);
        assert_eq!(out.level, Some(PruneLevel::Time));
        // Columns absent from the zone maps stay Unknown.
        let q = parse("SELECT COUNT(*) FROM t WHERE other = 1").unwrap();
        assert_eq!(
            ev.evaluate(q.filter.as_ref(), &zm).prunable,
            Prunable::Unknown
        );
    }
}
