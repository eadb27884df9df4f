//! Morsel-driven intra-segment parallelism with a cost-gated fan-out
//! (ISSUE 8, after the morsel scheduling of HyPer and the intra-partition
//! parallel scans of OceanBase).
//!
//! A segment's post-prune [`DocSelection`] is split into *morsels* —
//! contiguous sub-selections of at most `morsel_docs` documents, taken in
//! ascending doc order. Splitting is a pure function of the selection and
//! the morsel size: it never looks at thread counts, queue depths, or the
//! clock, so the partition (and therefore every float accumulation order
//! downstream) is identical on every run and at every pool width.
//!
//! Execution then has two *byte-identical* schedules:
//!
//! * **inline** — the caller thread folds the morsels in index order;
//! * **fan-out** — each morsel becomes a task of one
//!   [`TaskPool::map`], which hands the partials back in morsel order,
//!   and the caller merges them in ascending morsel index with the
//!   commutative/associative partial merge proven by the fold-algebra
//!   proptests.
//!
//! Because both schedules produce the same per-morsel partials and merge
//! them in the same fixed order, the cost gate choosing between them is
//! free to use *non-deterministic* signals: estimated work is
//! `docs × columns touched × ns_per_doc`, where `ns_per_doc` is
//! calibrated from the measured `exec.scan_ns_per_doc` histogram. A bad
//! estimate can only cost time, never change bytes.

use crate::batch::ExecOptions;
use crate::selection::{DocSelection, BLOCK_SIZE};
use pinot_bitmap::RoaringBitmap;
use pinot_chaos::{sites, FaultAction, FaultContext, FaultInjector};
use pinot_common::{PinotError, Result};
use pinot_obs::Obs;
use pinot_segment::DocId;
use pinot_taskpool::{Deadline, TaskPool};
use std::sync::Arc;

pub use pinot_common::engine::{clamp_morsel_docs, DEFAULT_FANOUT_NS};

// The morsel grid of `EngineConfig::morsel_docs` is this crate's decode
// block: a morsel on the grid never splits one.
const _: () = assert!(pinot_common::engine::MORSEL_GRID_DOCS == BLOCK_SIZE);

/// Starting per-doc scan cost until calibration has data.
pub const DEFAULT_NS_PER_DOC: f64 = 4.0;

/// Calibrated `ns_per_doc` is clamped to this range so one wild
/// measurement (page cache miss, CI noise) cannot wedge the gate fully
/// open or shut.
pub const NS_PER_DOC_CLAMP: (f64, f64) = (0.5, 200.0);

/// The fan-out cost model: estimated work for a scan is
/// `docs × columns × ns_per_doc`, compared against a fixed threshold.
/// `ns_per_doc` starts at [`DEFAULT_NS_PER_DOC`] and is recalibrated by
/// the server from the `exec.scan_ns_per_doc` histogram mean.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    pub ns_per_doc: f64,
    pub fanout_threshold_ns: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            ns_per_doc: DEFAULT_NS_PER_DOC,
            fanout_threshold_ns: DEFAULT_FANOUT_NS,
        }
    }
}

impl CostModel {
    /// Estimated nanoseconds to scan `docs` documents across `cols`
    /// columns.
    pub fn estimate_ns(&self, docs: u64, cols: u64) -> u64 {
        (docs as f64 * cols.max(1) as f64 * self.ns_per_doc) as u64
    }

    /// Whether the estimated work clears the fan-out threshold.
    pub fn should_fan_out(&self, docs: u64, cols: u64) -> bool {
        self.estimate_ns(docs, cols) >= self.fanout_threshold_ns
    }

    /// A copy with `ns_per_doc` updated from a measurement, clamped to
    /// [`NS_PER_DOC_CLAMP`]. Non-finite measurements are ignored.
    pub fn recalibrated(mut self, measured_ns_per_doc: f64) -> CostModel {
        if measured_ns_per_doc.is_finite() && measured_ns_per_doc > 0.0 {
            self.ns_per_doc = measured_ns_per_doc.clamp(NS_PER_DOC_CLAMP.0, NS_PER_DOC_CLAMP.1);
        }
        self
    }
}

/// Parallel-execution context threaded from the server into
/// [`crate::execute_on_segment_with`]. Absent (the default) the scan
/// runs inline; present, multi-morsel scans clearing the cost gate fan
/// out onto `pool`.
#[derive(Clone)]
pub struct ParallelExec {
    pub pool: Arc<TaskPool>,
    /// The broker's scatter deadline: morsels still queued when it
    /// passes are abandoned and the segment fails with a timeout.
    pub deadline: Deadline,
    pub cost: CostModel,
    /// Fault-injection hook for the `exec.morsel` chaos site.
    pub chaos: Option<(Arc<FaultInjector>, FaultContext)>,
}

impl ParallelExec {
    pub fn new(pool: Arc<TaskPool>) -> ParallelExec {
        ParallelExec {
            pool,
            deadline: Deadline::none(),
            cost: CostModel::default(),
            chaos: None,
        }
    }

    pub fn with_deadline(mut self, deadline: Deadline) -> ParallelExec {
        self.deadline = deadline;
        self
    }

    pub fn with_cost(mut self, cost: CostModel) -> ParallelExec {
        self.cost = cost;
        self
    }

    pub fn with_chaos(mut self, injector: Arc<FaultInjector>, ctx: FaultContext) -> ParallelExec {
        self.chaos = Some((injector, ctx));
        self
    }
}

/// Split `selection` into morsels of at most `morsel_docs` documents, in
/// ascending doc order. The result is an exact cover: concatenating the
/// morsels' doc sequences reproduces the original selection's
/// `for_each` order with nothing duplicated or dropped (pinned by the
/// `proptest_morsel` suite). Selections of `morsel_docs` documents or
/// fewer come back as a single morsel.
pub fn split_selection(selection: &DocSelection, morsel_docs: usize) -> Vec<DocSelection> {
    let morsel_docs = morsel_docs.max(1);
    match selection {
        DocSelection::Empty => Vec::new(),
        DocSelection::All(n) => split_range(0, *n, morsel_docs),
        DocSelection::Range(s, e) => split_range(*s, *e, morsel_docs),
        DocSelection::Bitmap(bm) => {
            let total = bm.len() as usize;
            if total <= morsel_docs {
                return vec![selection.clone()];
            }
            let mut out = Vec::with_capacity(total.div_ceil(morsel_docs));
            let mut buf: Vec<DocId> = Vec::with_capacity(morsel_docs.min(total));
            let mut scratch = Vec::new();
            bm.for_each_batch(&mut scratch, |ids| {
                let mut rest = ids;
                while !rest.is_empty() {
                    let take = (morsel_docs - buf.len()).min(rest.len());
                    buf.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    if buf.len() == morsel_docs {
                        let mut part = RoaringBitmap::new();
                        part.append_sorted(&buf);
                        buf.clear();
                        out.push(DocSelection::Bitmap(part));
                    }
                }
            });
            if !buf.is_empty() {
                let mut part = RoaringBitmap::new();
                part.append_sorted(&buf);
                out.push(DocSelection::Bitmap(part));
            }
            out
        }
    }
}

fn split_range(start: DocId, end: DocId, morsel_docs: usize) -> Vec<DocSelection> {
    if end <= start {
        return Vec::new();
    }
    let total = (end - start) as usize;
    if total <= morsel_docs {
        return vec![DocSelection::Range(start, end)];
    }
    let mut out = Vec::with_capacity(total.div_ceil(morsel_docs));
    let mut s = start;
    while s < end {
        let e = end.min(s + morsel_docs as DocId);
        out.push(DocSelection::Range(s, e));
        s = e;
    }
    out
}

/// One morsel's scan output: the shape-specific partial payload plus the
/// integer counters the scan produced. Kept payload-agnostic here so the
/// scheduler below works for every query shape.
pub(crate) struct MorselPartial<P> {
    pub payload: P,
    /// `num_entries_scanned_post_filter` contribution.
    pub entries: u64,
    /// Kernel counters (blocks decoded, docs accumulated).
    pub blocks: u64,
    pub docs: u64,
}

/// Fold one morsel's partial into the running accumulator.
fn absorb<P>(
    acc: &mut Option<MorselPartial<P>>,
    part: MorselPartial<P>,
    merge: &mut impl FnMut(&mut P, P) -> Result<()>,
) -> Result<()> {
    match acc {
        None => *acc = Some(part),
        Some(acc) => {
            merge(&mut acc.payload, part.payload)?;
            acc.entries += part.entries;
            acc.blocks += part.blocks;
            acc.docs += part.docs;
        }
    }
    Ok(())
}

/// Execute `morsels` with `run` (one call per morsel, in any order) and
/// merge the partials **in ascending morsel index** with `merge`. Chooses
/// inline vs fan-out via the cost gate; both schedules are byte-identical
/// by construction. Returns the merged payload plus summed counters.
pub(crate) fn execute_morsels<P, F, M>(
    morsels: &[DocSelection],
    scan_docs: u64,
    cols_touched: u64,
    run: F,
    mut merge: M,
    opts: &ExecOptions,
    obs: Option<&Obs>,
) -> Result<MorselPartial<P>>
where
    P: Send,
    F: Fn(&DocSelection) -> MorselPartial<P> + Sync,
    M: FnMut(&mut P, P) -> Result<()>,
{
    debug_assert!(morsels.len() > 1);
    let fan_out = opts
        .parallel
        .as_ref()
        .filter(|p| p.cost.should_fan_out(scan_docs, cols_touched));
    let mut acc = None;

    let Some(par) = fan_out else {
        // Below the gate (or no pool): fold on the caller thread, zero
        // task overhead.
        if let Some(obs) = obs {
            obs.metrics.counter_add("exec.morsels_inline", 1);
        }
        for m in morsels {
            absorb(&mut acc, run(m), &mut merge)?;
        }
        return Ok(acc.expect("at least two morsels"));
    };

    if let Some(obs) = obs {
        obs.metrics
            .counter_add("exec.morsels_split", morsels.len() as u64);
    }
    let parts = par.pool.map(&par.deadline, morsels.len(), |i| {
        if let Some((injector, ctx)) = &par.chaos {
            match injector.intercept(sites::EXEC_MORSEL, ctx) {
                Some(FaultAction::Fail(e)) => return Err(e),
                // A morsel cannot unregister a server; Crash degrades to
                // a failed scan.
                Some(FaultAction::Crash) => {
                    return Err(PinotError::Io("morsel crashed (injected)".into()))
                }
                Some(FaultAction::Delay(ms)) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms))
                }
                None => {}
            }
        }
        Ok(run(&morsels[i]))
    });
    // Merge in fixed morsel order: deterministic, because the counters are
    // integers and the payload merge is the proven fold algebra.
    for (i, part) in parts.into_iter().enumerate() {
        let Some(part) = part else {
            // The pool abandoned this morsel: the scatter deadline passed
            // while it was queued. Nothing half-executed is merged — the
            // whole segment fails.
            if let Some(obs) = obs {
                obs.metrics.counter_add("server.exec.deadline_abandoned", 1);
            }
            return Err(PinotError::Timeout(format!(
                "query deadline elapsed before morsel {i} of {}",
                morsels.len()
            )));
        };
        absorb(&mut acc, part?, &mut merge)?;
    }
    Ok(acc.expect("non-empty morsel list"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs_of(sel: &DocSelection) -> Vec<DocId> {
        let mut v = Vec::new();
        sel.for_each(|d| v.push(d));
        v
    }

    #[test]
    fn range_split_is_exact_cover() {
        let sel = DocSelection::All(10_000);
        let morsels = split_selection(&sel, 1024);
        assert_eq!(morsels.len(), 10);
        let concat: Vec<DocId> = morsels.iter().flat_map(docs_of).collect();
        assert_eq!(concat, docs_of(&sel));
    }

    #[test]
    fn small_selection_is_one_morsel() {
        let sel = DocSelection::Range(5, 500);
        assert_eq!(split_selection(&sel, 1024).len(), 1);
        assert_eq!(split_selection(&DocSelection::Empty, 1024).len(), 0);
    }

    #[test]
    fn bitmap_split_preserves_order() {
        let ids: Vec<u32> = (0..5000).map(|i| i * 3).collect();
        let sel = DocSelection::Bitmap(RoaringBitmap::from_sorted(ids.iter().copied()));
        let morsels = split_selection(&sel, 2048);
        assert_eq!(morsels.len(), 3);
        let concat: Vec<DocId> = morsels.iter().flat_map(docs_of).collect();
        assert_eq!(concat, ids);
        // All but the last morsel are exactly full.
        assert!(morsels[..2].iter().all(|m| m.count() == 2048));
    }

    #[test]
    fn cost_model_defaults_gate_fig7_inline_and_large_scans_out() {
        let cost = CostModel {
            ns_per_doc: DEFAULT_NS_PER_DOC,
            fanout_threshold_ns: DEFAULT_FANOUT_NS,
        };
        // fig7 shape: 12.5k-doc segments, few-column point aggregates. A
        // per-segment task's slice stays under the gate → inline, even at
        // the calibration clamp's ceiling of 200ns/doc for one column.
        assert!(!cost.should_fan_out(12_500, 3));
        assert!(!cost
            .recalibrated(NS_PER_DOC_CLAMP.1)
            .should_fan_out(9_000, 1));
        // A single 4M-doc segment scan clears it by ~8×.
        assert!(cost.should_fan_out(4_000_000, 1));
    }

    #[test]
    fn recalibration_clamps() {
        let cost = CostModel::default().recalibrated(10_000.0);
        assert_eq!(cost.ns_per_doc, NS_PER_DOC_CLAMP.1);
        let cost = CostModel::default().recalibrated(0.001);
        assert_eq!(cost.ns_per_doc, NS_PER_DOC_CLAMP.0);
        let cost = CostModel::default().recalibrated(f64::NAN);
        assert_eq!(cost.ns_per_doc, DEFAULT_NS_PER_DOC);
    }

    #[test]
    fn morsel_docs_clamps_to_block_grid() {
        assert_eq!(clamp_morsel_docs(1), BLOCK_SIZE);
        assert_eq!(clamp_morsel_docs(5000), 4 * BLOCK_SIZE);
        assert_eq!(clamp_morsel_docs(65536), 65536);
    }
}
