//! Per-layer numbers, measured from outside the program through public
//! functions only:
//!
//! * a timing [`SegmentQueryService`] around each server, installed with
//!   `Broker::register_server`, gives one span per broker→server call; with
//!   the client's span per `PinotCluster::execute` that splits a query's
//!   wall time into broker self time and server time;
//! * a single-threaded replay of sampled queries over the stored segments
//!   times parse, plan, filter, execute and merge on their own;
//! * one segment is rebuilt, and a standalone consuming segment and topic
//!   are driven, for the build and ingest layers.
//!
//! In-program spans are a later change; nothing outside `benchmark/` knows
//! about this file.

use crate::driver::{Epoch, Sample, Tick};
use crate::report::Metric;
use crate::stats::{median, percentile, self_time, sort_f64};
use crate::workloads::Inputs;
use pinot_broker::{RoutedRequest, SegmentQueryService};
use pinot_common::{PinotError, Record, Result};
use pinot_core::PinotCluster;
use pinot_exec::segment_exec::IntermediateResult;
use pinot_exec::{
    execute_on_segment_with, finalize, merge_intermediate, plan_segment, ExecOptions, PlanKind,
    SegmentHandle,
};
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_segment::{persist, MutableSegment};
use pinot_server::{Server, ServerRequest};
use pinot_startree::build_star_tree;
use pinot_stream::StreamRegistry;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One broker→server call.
#[derive(Clone, Copy, Debug)]
pub struct ServerSpan {
    pub query_id: u64,
    pub server: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    pub segments: u32,
    pub ok: bool,
}

/// The broker-facing service of one server with a clock around it. What it
/// forwards is what `pinot-core`'s own adapter forwards.
pub struct TimedServer {
    inner: Arc<Server>,
    index: u8,
    epoch: Epoch,
    spans: Mutex<Vec<ServerSpan>>,
}

impl SegmentQueryService for TimedServer {
    fn execute(&self, req: &RoutedRequest) -> Result<IntermediateResult> {
        let start_ns = self.epoch.now_ns();
        let result = self.inner.execute(&ServerRequest {
            table: req.table.clone(),
            query: Arc::clone(&req.query),
            segments: req.segments.clone(),
            tenant: req.tenant.clone(),
            deadline: req.deadline,
            query_id: req.query_id,
            profile: req.profile,
            analyze: req.analyze,
        });
        let span = ServerSpan {
            query_id: req.query_id,
            server: self.index,
            start_ns,
            end_ns: self.epoch.now_ns(),
            segments: req.segments.len() as u32,
            ok: result.is_ok(),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking server call")
            .push(span);
        result
    }
}

/// Put a [`TimedServer`] in front of every server on every broker.
pub fn install(cluster: &PinotCluster, epoch: Epoch) -> Vec<Arc<TimedServer>> {
    let timed: Vec<Arc<TimedServer>> = cluster
        .servers()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Arc::new(TimedServer {
                inner: Arc::clone(s),
                index: i as u8,
                epoch,
                spans: Mutex::new(Vec::with_capacity(1 << 18)),
            })
        })
        .collect();
    for broker in cluster.brokers() {
        for t in &timed {
            broker.register_server(t.inner.id().clone(), Arc::clone(t) as _);
        }
    }
    timed
}

pub fn drain_spans(timed: &[Arc<TimedServer>]) -> Vec<ServerSpan> {
    let mut all = Vec::new();
    for t in timed {
        all.append(&mut t.spans.lock().expect("span buffer lock poisoned"));
    }
    all
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sort_f64(values);
    percentile(values, q)
}

/// Wall time of the sampled queries split into broker self time and server
/// time. By construction `self + union(server spans) = wall` per query.
pub struct Split {
    pub metrics: Vec<Metric>,
    /// Per query index: summed server span time of its first traced run.
    pub server_ns_by_idx: HashMap<u32, u64>,
    /// Share of client wall time covered by server spans.
    pub server_cover_frac: f64,
}

pub fn split_wall(samples: &[Sample], spans: &[ServerSpan]) -> Split {
    let mut by_query: HashMap<u64, Vec<&ServerSpan>> = HashMap::new();
    for s in spans {
        by_query.entry(s.query_id).or_default().push(s);
    }
    let (mut self_us, mut critical_us, mut skew) = (Vec::new(), Vec::new(), Vec::new());
    let mut servers = 0usize;
    let (mut wall_total, mut covered_total) = (0u64, 0u64);
    let mut server_ns_by_idx = HashMap::new();
    for q in samples {
        let calls = by_query.get(&q.query_id).map_or(&[][..], Vec::as_slice);
        let mut intervals: Vec<(u64, u64)> = calls.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        let own = self_time((q.start_ns, q.end_ns), &mut intervals);
        self_us.push(us(own));
        wall_total += q.end_ns - q.start_ns;
        covered_total += (q.end_ns - q.start_ns) - own;
        if calls.is_empty() {
            continue;
        }
        servers += calls.len();
        let durations: Vec<u64> = calls.iter().map(|s| s.end_ns - s.start_ns).collect();
        let max = *durations.iter().max().expect("non-empty") as f64;
        let sum: u64 = durations.iter().sum();
        critical_us.push(max / 1e3);
        skew.push(max / (sum as f64 / durations.len() as f64).max(1.0));
        server_ns_by_idx.entry(q.idx).or_insert(sum);
    }
    let mut execute_us: Vec<f64> = spans.iter().map(|s| us(s.end_ns - s.start_ns)).collect();
    let errors = spans.iter().filter(|s| !s.ok).count();
    let n = samples.len().max(1) as f64;
    let metrics = vec![
        Metric::new("broker.self_us_p50", p(&mut self_us, 0.50), "us"),
        Metric::new("broker.self_us_p99", p(&mut self_us, 0.99), "us"),
        Metric::new("broker.servers_per_query", servers as f64 / n, "count"),
        Metric::new("server.execute_us_p50", p(&mut execute_us, 0.50), "us"),
        Metric::new("server.execute_us_p99", p(&mut execute_us, 0.99), "us"),
        Metric::new("server.critical_us_p50", p(&mut critical_us, 0.50), "us"),
        Metric::new("server.skew_ratio_p50", p(&mut skew, 0.50), "ratio"),
        Metric::new(
            "server.errors_per_kcall",
            1e3 * errors as f64 / spans.len().max(1) as f64,
            "1/k",
        ),
    ];
    Split {
        metrics,
        server_ns_by_idx,
        server_cover_frac: covered_total as f64 / wall_total.max(1) as f64,
    }
}

/// One line per span: client spans (`"layer":"client"`, with the query's
/// index in the workload's query list) and server spans
/// (`"layer":"server"`), joined by `query_id`; `hybrid_ingest` adds one
/// line per consume tick (`"layer":"consume_tick"`).
pub fn write_trace(
    path: &std::path::Path,
    samples: &[Sample],
    spans: &[ServerSpan],
    ticks: &[Tick],
) -> Result<()> {
    let io = |e: std::io::Error| PinotError::Io(format!("{}: {e}", path.display()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    for q in samples {
        writeln!(
            out,
            "{{\"layer\":\"client\",\"query_id\":{},\"query\":{},\"start_ns\":{},\"end_ns\":{},\"ok\":{}}}",
            q.query_id, q.idx, q.start_ns, q.end_ns, q.ok
        )
        .map_err(io)?;
    }
    for s in spans {
        writeln!(
            out,
            "{{\"layer\":\"server\",\"query_id\":{},\"server\":{},\"segments\":{},\"start_ns\":{},\"end_ns\":{},\"ok\":{}}}",
            s.query_id, s.server, s.segments, s.start_ns, s.end_ns, s.ok
        )
        .map_err(io)?;
    }
    for t in ticks {
        writeln!(
            out,
            "{{\"layer\":\"consume_tick\",\"rows\":{},\"online_segments\":{},\"start_ns\":{},\"end_ns\":{}}}",
            t.rows, t.online_segments, t.start_ns, t.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}

/// The stored segments of the workload's tables, loaded the way a server
/// loads them: `persist::deserialize`, plus the star-tree when the table
/// has one. Also returns the star-tree build cost.
struct Stored {
    handles: Vec<SegmentHandle>,
    blob_bytes: u64,
    deserialize_secs: f64,
    tree_rows: u64,
    tree_secs: f64,
    tree_rss_bytes: f64,
}

fn load_stored(cluster: &PinotCluster, inputs: &Inputs) -> Result<Stored> {
    let store = cluster.objstore();
    let tree_cfg = cluster
        .leader_controller()?
        .table_config(&format!("{}_OFFLINE", inputs.workload.table()))?
        .indexing
        .star_tree;
    let mut stored = Stored {
        handles: Vec::new(),
        blob_bytes: 0,
        deserialize_secs: 0.0,
        tree_rows: 0,
        tree_secs: 0.0,
        tree_rss_bytes: 0.0,
    };
    for key in store.list("segments/") {
        let blob = store.get(&key)?;
        let t = Instant::now();
        let segment = Arc::new(persist::deserialize(&blob)?);
        stored.deserialize_secs += t.elapsed().as_secs_f64();
        stored.blob_bytes += blob.len() as u64;
        let mut handle = SegmentHandle::new(Arc::clone(&segment));
        if let (Some(cfg), true) = (&tree_cfg, key.contains("_OFFLINE/")) {
            let rss_before = crate::report::rss_kb("VmRSS:");
            let t = Instant::now();
            let tree = build_star_tree(&segment, cfg)?;
            stored.tree_secs += t.elapsed().as_secs_f64();
            stored.tree_rows += segment.num_docs() as u64;
            stored.tree_rss_bytes +=
                (crate::report::rss_kb("VmRSS:") - rss_before).max(0.0) * 1024.0;
            handle = handle.with_star_tree(Arc::new(tree));
        }
        stored.handles.push(handle);
    }
    Ok(stored)
}

/// Replay `sample` queries on one thread over the stored segments, timing
/// each layer's public function on its own, and rebuild one segment. The
/// same query list and the same stored bytes as the traced window used.
pub fn replay(
    cluster: &PinotCluster,
    inputs: &Inputs,
    sample: usize,
    server_ns_by_idx: &HashMap<u32, u64>,
) -> Result<Vec<Metric>> {
    let stored = load_stored(cluster, inputs)?;
    let opts = ExecOptions::default();
    let (mut parse_us, mut plan_us, mut filter_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut segment_us, mut tree_us, mut merge_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut overhead_us = Vec::new();
    let (mut filter_ns, mut exec_ns, mut entries) = (0u64, 0u64, 0u64);
    for (idx, pql) in inputs.queries.iter().take(sample).enumerate() {
        let t = Instant::now();
        let query = pinot_pql::parse(pql)?;
        parse_us.push(t.elapsed().as_nanos() as f64 / 1e3);

        let mut partials = Vec::with_capacity(stored.handles.len());
        let mut query_exec_ns = 0u64;
        for handle in &stored.handles {
            let t = Instant::now();
            let kind = std::hint::black_box(plan_segment(handle, &query));
            plan_us.push(t.elapsed().as_nanos() as f64 / 1e3);

            if kind == PlanKind::Raw {
                let mut stats = Default::default();
                let t = Instant::now();
                std::hint::black_box(pinot_exec::planner::evaluate_filter(
                    &handle.segment,
                    query.filter.as_ref(),
                    &mut stats,
                )?);
                let ns = t.elapsed().as_nanos() as u64;
                filter_us.push(us(ns));
                filter_ns += ns;
            }

            let t = Instant::now();
            let partial = execute_on_segment_with(handle, &query, &opts)?;
            let ns = t.elapsed().as_nanos() as u64;
            segment_us.push(us(ns));
            if kind == PlanKind::StarTree {
                tree_us.push(us(ns));
            }
            if kind == PlanKind::Raw {
                exec_ns += ns;
                entries += partial.stats.num_entries_scanned_in_filter
                    + partial.stats.num_entries_scanned_post_filter;
            }
            query_exec_ns += ns;
            partials.push(partial);
        }

        let t = Instant::now();
        let mut acc = IntermediateResult::empty_for(&query);
        for partial in partials {
            merge_intermediate(&mut acc, partial)?;
        }
        std::hint::black_box(finalize(acc, &query)?);
        merge_us.push(t.elapsed().as_nanos() as f64 / 1e3);

        if let Some(server_ns) = server_ns_by_idx.get(&(idx as u32)) {
            overhead_us.push((*server_ns as f64 - query_exec_ns as f64) / 1e3);
        }
    }

    let mb = |bytes: u64, secs: f64| bytes as f64 / 1e6 / secs.max(1e-9);
    let mut metrics = vec![
        Metric::new("pql.parse_us_p50", p(&mut parse_us, 0.50), "us"),
        Metric::new("exec.plan_us_p50", p(&mut plan_us, 0.50), "us"),
        Metric::new("exec.filter_us_p50", p(&mut filter_us, 0.50), "us"),
        Metric::new(
            "exec.filter_share",
            filter_ns as f64 / exec_ns.max(1) as f64,
            "ratio",
        ),
        Metric::new("exec.segment_us_p50", p(&mut segment_us, 0.50), "us"),
        Metric::new("exec.segment_us_p99", p(&mut segment_us, 0.99), "us"),
        Metric::new("exec.merge_us_p50", p(&mut merge_us, 0.50), "us"),
        Metric::new(
            "exec.ns_per_entry",
            exec_ns as f64 / entries.max(1) as f64,
            "ns",
        ),
        // Not clamped: morsel fan-out can make a server faster than the
        // one-thread replay of its slice.
        Metric::new("server.overhead_us_p50", p(&mut overhead_us, 0.50), "us"),
        Metric::new("startree.query_us_p50", p(&mut tree_us, 0.50), "us"),
        Metric::new(
            "startree.build_rows_per_s",
            if stored.tree_rows == 0 {
                0.0
            } else {
                stored.tree_rows as f64 / stored.tree_secs
            },
            "1/s",
        ),
        Metric::new(
            "startree.build_rss_bytes_per_row",
            stored.tree_rss_bytes / stored.tree_rows.max(1) as f64,
            "B",
        ),
        Metric::new(
            "segment.deserialize_mb_per_s",
            mb(stored.blob_bytes, stored.deserialize_secs),
            "MB/s",
        ),
    ];
    metrics.extend(rebuild_one_segment(cluster, inputs)?);
    Ok(metrics)
}

/// Build, serialize and size the workload's first offline segment with the
/// index configuration `PinotCluster::upload_rows` derives from the table.
fn rebuild_one_segment(cluster: &PinotCluster, inputs: &Inputs) -> Result<Vec<Metric>> {
    let qualified = format!("{}_OFFLINE", inputs.workload.table());
    let config = cluster.leader_controller()?.table_config(&qualified)?;
    let per_segment = inputs.rows.len().div_ceil(inputs.sizes.segments.max(1));
    let rows: Vec<Record> = inputs.rows[..per_segment.min(inputs.rows.len())].to_vec();
    let n = rows.len();
    let mut cfg = BuilderConfig::new("rebuild", qualified);
    cfg.sort_columns = config.indexing.sorted_column.into_iter().collect();
    cfg.inverted_columns = config.indexing.inverted_index_columns;
    cfg.bloom_columns = config.indexing.bloom_filter_columns;

    let t = Instant::now();
    let mut builder = SegmentBuilder::new(inputs.schema.clone(), cfg)?;
    for r in rows {
        builder.add(r)?;
    }
    let segment = builder.build()?;
    let build_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let blob = persist::serialize(&segment);
    let serialize_secs = t.elapsed().as_secs_f64();
    Ok(vec![
        Metric::new(
            "segment.build_rows_per_s",
            n as f64 / build_secs.max(1e-9),
            "1/s",
        ),
        Metric::new(
            "segment.serialize_mb_per_s",
            blob.len() as f64 / 1e6 / serialize_secs.max(1e-9),
            "MB/s",
        ),
        Metric::new(
            "segment.bytes_per_row",
            blob.len() as f64 / n.max(1) as f64,
            "B",
        ),
    ])
}

/// The ingest layers on their own: a standalone topic (produce, fetch) and
/// a standalone consuming segment (append, cut, seal) fed `rows`.
pub fn ingest_layers(inputs: &Inputs) -> Result<Vec<Metric>> {
    let source = if inputs.stream_pool.is_empty() {
        &inputs.rows
    } else {
        &inputs.stream_pool
    };
    let rows: Vec<Record> = source.iter().take(50_000).cloned().collect();
    let n = rows.len();
    const BATCH: usize = 1024;

    let topic = StreamRegistry::new().create_topic("layer-probe", 1)?;
    let t = Instant::now();
    for r in &rows {
        topic.produce_to(0, r.clone(), 0)?;
    }
    let produce_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut fetched = Vec::with_capacity(n);
    while fetched.len() < n {
        fetched.extend(topic.fetch(0, fetched.len() as u64, BATCH)?);
    }
    let fetch_secs = t.elapsed().as_secs_f64();

    let segment = MutableSegment::new(inputs.schema.clone(), "probe__0__0", "probe_REALTIME", 0, 0);
    let mut append_secs = 0.0;
    let mut cut_us = Vec::new();
    for batch in fetched.chunks(BATCH) {
        let t = Instant::now();
        for event in batch {
            segment.append(event.record.clone(), event.offset)?;
        }
        append_secs += t.elapsed().as_secs_f64();
        // A cut after every fetched batch is what a query arriving between
        // two consume ticks pays.
        let t = Instant::now();
        std::hint::black_box(segment.cut()?);
        cut_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let t = Instant::now();
    let mut cfg = BuilderConfig::new("probe__0__0", "probe_REALTIME");
    cfg.inverted_columns = inputs.workload.realtime_inverted_columns();
    std::hint::black_box(segment.seal(cfg)?);
    let seal_secs = t.elapsed().as_secs_f64();

    let rate = |secs: f64| n as f64 / secs.max(1e-9);
    Ok(vec![
        Metric::new("stream.produce_rows_per_s", rate(produce_secs), "1/s"),
        Metric::new("stream.fetch_rows_per_s", rate(fetch_secs), "1/s"),
        Metric::new("segment.append_rows_per_s", rate(append_secs), "1/s"),
        Metric::new("segment.cut_us_p50", median(&cut_us), "us"),
        Metric::new("segment.seal_rows_per_s", rate(seal_secs), "1/s"),
    ])
}
