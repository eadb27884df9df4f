//! Per-segment query planning and execution (§3.3.4, §4.1–4.3).
//!
//! Query plans are generated *per segment*, because index availability and
//! physical layout differ between segments (Figure 5). For each segment the
//! planner picks, in order of preference:
//!
//! 1. **metadata-only plans** — `SELECT COUNT(*)`/`MIN`/`MAX` without
//!    filters read the answer from segment metadata (§4.1);
//! 2. **star-tree plans** — aggregations whose filters/group-bys land on
//!    tree dimensions run on preaggregated records (§4.3);
//! 3. **index-backed filter plans** — filters compile to [`IdMatcher`]s and
//!    execute against the sorted-column index first (producing one doc
//!    range that subsequent operators evaluate within, §4.2), then bitmap
//!    inverted indexes, then scan fallback;
//! 4. **full scans** for everything else.
//!
//! Results fold into an [`IntermediateResult`] — the same representation a
//! server returns to the broker and the broker merges across servers —
//! then [`finalize`] shapes the client-facing
//! [`pinot_common::query::QueryResult`].

pub mod aggstate;
pub mod batch;
pub mod cost;
pub mod explain;
pub mod key;
pub mod merge;
pub mod morsel;
pub mod planner;
pub mod prune;
pub mod segment_exec;
pub mod selection;

pub use aggstate::AggState;
pub use batch::ExecOptions;
pub use cost::{
    choose_path, estimate_leaf, estimate_predicate, AccessPath, LeafEstimate, PlannerMode,
};
pub use explain::{explain_segment, render_plan, SegmentExplain};
pub use key::GroupKey;
pub use merge::{collected_profiles, finalize, merge_intermediate};
pub use morsel::{split_selection, CostModel, ParallelExec};
pub use planner::{conjunct_order, evaluate_filter_planned, plan_segment, ConjunctPlan, PlanKind};
pub use prune::{
    ColumnRange, Prunable, PruneEvaluator, PruneLevel, PruneOutcome, PruneStatsSource, ZoneMapStats,
};
pub use segment_exec::{
    execute_on_segment, execute_on_segment_with, IntermediateResult, SegmentHandle, ServerRequest,
};
pub use selection::{DocBlock, DocSelection, IdMatcher};
