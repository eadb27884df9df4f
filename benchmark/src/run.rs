//! One run of one workload in one process: generate inputs from the seed,
//! set up, collect answers, load, measure, verify against the oracle.
//!
//! `--trace 0` reports the end-to-end metrics from a window in which
//! nothing is traced. `--trace 1` reports the per-layer metrics from a
//! window with the timing wrappers installed, followed by the replay pass.

use crate::driver::{self, Epoch, Outcome, Sample, Tick, Window};
use crate::oracle;
use crate::report::{self, Metric, Report};
use crate::stats::{freshness_ns, median, percentile, sliced_percentile, sort_f64, supported_tail};
use crate::trace;
use crate::workloads::{self, Inputs, Setup, SetupTimes, Workload};
use pinot_common::json::Json;
use pinot_common::query::{QueryRequest, QueryResponse};
use pinot_common::{PinotError, Record, Result};
use pinot_core::PinotCluster;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// All load comes from two threads: the host has two cores.
const CLIENTS: usize = 2;
/// Queries replayed layer by layer in a traced run.
const REPLAY_SAMPLE: usize = 1_000;
/// Every n-th query of `hybrid_ingest` is a `COUNT(*)` probe.
const PROBE_EVERY: usize = 10;
/// Clusters set up in an end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Backlogs published and drained after the ingest window of
/// `hybrid_ingest`; `catchup_rows_per_s` is from the median drain.
const CATCHUP_REPS: usize = 5;
/// Latency percentiles are taken in each slice of the measured window and
/// the median slice is reported (see `stats::sliced_percentile`).
const SLICE: Duration = Duration::from_secs(1);

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and windows, to exercise the harness; not for comparison.
    pub quick: bool,
    /// Where a traced run writes its spans, one JSON object per line.
    pub trace_file: Option<PathBuf>,
    /// This program, to repeat the set-up in fresh processes
    /// (`--setup-only`); without it the set-up is timed once.
    pub exe: Option<PathBuf>,
}

impl Options {
    fn warm(&self) -> Duration {
        Duration::from_secs_f64(if self.quick { 0.2 } else { 2.0 })
    }

    fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The client: holds the requests it will send and counts what the
/// responses say about routing.
struct Client<'a> {
    cluster: &'a PinotCluster,
    requests: Vec<QueryRequest>,
    queries: AtomicU64,
    hedges_issued: AtomicU64,
    hedges_won: AtomicU64,
    cache_hits: AtomicU64,
}

impl<'a> Client<'a> {
    fn new(cluster: &'a PinotCluster, inputs: &Inputs) -> Client<'a> {
        Client {
            cluster,
            requests: inputs.queries.iter().map(QueryRequest::new).collect(),
            queries: AtomicU64::new(0),
            hedges_issued: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        }
    }

    fn send(&self, request: &QueryRequest) -> QueryResponse {
        let resp = self.cluster.execute(request);
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.hedges_issued
            .fetch_add(resp.stats.hedges_issued, Ordering::Relaxed);
        self.hedges_won
            .fetch_add(resp.stats.hedges_won, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(resp.stats.served_from_cache as u64, Ordering::Relaxed);
        resp
    }

    fn exec(&self, idx: usize) -> Outcome {
        let resp = self.send(&self.requests[idx % self.requests.len()]);
        Outcome {
            ok: oracle::response_ok(&resp),
            query_id: resp.stats.query_id,
        }
    }

    fn reset_counters(&self) {
        for c in [
            &self.queries,
            &self.hedges_issued,
            &self.hedges_won,
            &self.cache_hits,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// `(start, latency in ms)` of the ok samples inside the window.
fn window_latencies(samples: &[Sample], window: &Window) -> Vec<(u64, f64)> {
    samples
        .iter()
        .filter(|s| s.ok && window.holds(s))
        .map(|s| (s.start_ns, (s.end_ns - s.start_ns) as f64 / 1e6))
        .collect()
}

/// Median and tail (ms) of timed values inside the window, each the
/// median over one-second slices. The tail is the workload's percentile,
/// or the highest the sample count supports; it is returned too.
fn median_and_tail(timed: &[(u64, f64)], window: &Window, at_most: f64) -> (f64, f64, f64) {
    let q = supported_tail(timed.len(), at_most);
    let slice = |q| sliced_percentile(timed, window.start_ns, window.end_ns, SLICE, q);
    (slice(0.50), slice(q), q)
}

/// The query metrics of a measured window; also returns the sample count
/// and the tail percentile used.
fn query_metrics(
    samples: &[Sample],
    window: &Window,
    tail: f64,
    out: &mut Vec<Metric>,
) -> Result<(usize, f64)> {
    let timed = window_latencies(samples, window);
    if timed.is_empty() {
        return Err(PinotError::Internal(
            "no query completed inside the measured window".into(),
        ));
    }
    let n = timed.len() as f64;
    let (p50, tail_ms, q) = median_and_tail(&timed, window, tail);
    out.extend([
        Metric::new("query_p50_ms", p50, "ms"),
        Metric::new("query_tail_ms", tail_ms, "ms"),
        Metric::new("throughput_qps", n / window.secs(), "1/s"),
        Metric::new("cpu_ms_per_query", window.cpu_secs * 1e3 / n, "ms"),
    ]);
    Ok((timed.len(), q))
}

/// `--setup-only`: generate the inputs, set up once, print
/// `{"secs": …, "push_secs": […]}`.
pub fn setup_only(workload: Workload, seed: u64, quick: bool) -> Result<String> {
    let times = workloads::set_up(&workloads::generate(workload, seed, quick))?.times;
    Ok(Json::obj(vec![
        ("secs", times.secs.into()),
        ("push_secs", secs_json(&times.push_secs)),
    ])
    .emit())
}

/// One more set-up of the same inputs in a child process; waits for it.
fn set_up_in_child(exe: &std::path::Path, opts: &Options) -> Result<SetupTimes> {
    let failed = |why: String| PinotError::Internal(format!("set-up in a child process: {why}"));
    let out = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .output()
        .map_err(|e| failed(e.to_string()))?;
    if !out.status.success() {
        return Err(failed(String::from_utf8_lossy(&out.stderr).into_owned()));
    }
    let line = Json::parse(String::from_utf8_lossy(&out.stdout).trim())?;
    let secs = line.get("secs").and_then(Json::as_f64);
    let pushes = line.get("push_secs").and_then(Json::as_arr);
    match (secs, pushes) {
        (Some(secs), Some(pushes)) => Ok(SetupTimes {
            secs,
            push_secs: pushes.iter().filter_map(Json::as_f64).collect(),
        }),
        _ => Err(failed("no set-up times in its output".into())),
    }
}

/// What the set-up cost. A traced run reports the bulk load rate of the
/// cluster it measured. An end-to-end run times `SETUP_REPS` set-ups and
/// reports medians: total time and, for the offline workloads, whose tables
/// take data by segment push, how long a pushed segment takes to become
/// queryable and how fast a bulk load is.
fn setup_metrics(
    first: SetupTimes,
    inputs: &Inputs,
    opts: &Options,
    out: &mut Vec<Metric>,
    record: &mut BTreeMap<String, Json>,
) -> Result<()> {
    let load_rate = |t: &SetupTimes| inputs.rows.len() as f64 / t.push_secs.iter().sum::<f64>();
    if opts.trace {
        out.push(Metric::new(
            "core.upload_rows_per_s",
            load_rate(&first),
            "1/s",
        ));
        return Ok(());
    }
    // The other set-ups are made by child processes: this process holds the
    // measured cluster (and the system leaks a dropped cluster's memory),
    // and a set-up in an aged process is slower than in a fresh one.
    let mut setups = vec![first];
    if let (Some(exe), false) = (&opts.exe, opts.quick) {
        for _ in 1..SETUP_REPS {
            setups.push(set_up_in_child(exe, opts)?);
        }
    }
    let secs: Vec<f64> = setups.iter().map(|t| t.secs).collect();
    record.insert("setup_secs".into(), secs_json(&secs));
    out.push(Metric::new("setup_s", median(&secs), "s"));
    if inputs.workload != Workload::HybridIngest {
        let pushes: Vec<f64> = setups.iter().flat_map(|t| &t.push_secs).copied().collect();
        let slowest: Vec<f64> = setups
            .iter()
            .map(|t| t.push_secs.iter().copied().fold(0.0, f64::max))
            .collect();
        let rates: Vec<f64> = setups.iter().map(load_rate).collect();
        out.extend([
            Metric::new("freshness_p50_ms", median(&pushes) * 1e3, "ms"),
            Metric::new("freshness_tail_ms", median(&slowest) * 1e3, "ms"),
            Metric::new("catchup_rows_per_s", median(&rates), "1/s"),
        ]);
    }
    Ok(())
}

/// Exact counts from the answers to the leading queries: each was asked
/// once against a settled cluster, so these repeat for a seed.
fn count_metrics(answers: &[(String, QueryResponse)], out: &mut Vec<Metric>) {
    let n = answers.len().max(1) as f64;
    let sum = |f: fn(&QueryResponse) -> u64| answers.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
    let routed = sum(|r| r.stats.num_segments_queried);
    let planned = sum(|r| {
        r.stats.num_segments_metadata_only
            + r.stats.num_segments_star_tree
            + r.stats.num_segments_raw
    })
    .max(1.0);
    let raw_equiv = sum(|r| r.stats.raw_docs_equivalent);
    let tree_docs = answers
        .iter()
        .filter(|(_, r)| r.stats.raw_docs_equivalent > 0)
        .map(|(_, r)| r.stats.num_docs_scanned)
        .sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.extend([
        Metric::new("broker.segments_routed_per_query", routed / n, "count"),
        Metric::new(
            "broker.segments_pruned_frac",
            ratio(sum(|r| r.stats.num_segments_pruned), routed),
            "ratio",
        ),
        Metric::new(
            "exec.docs_scanned_per_query",
            sum(|r| r.stats.num_docs_scanned) / n,
            "count",
        ),
        Metric::new(
            "exec.entries_in_filter_per_query",
            sum(|r| r.stats.num_entries_scanned_in_filter) / n,
            "count",
        ),
        Metric::new(
            "exec.entries_post_filter_per_query",
            sum(|r| r.stats.num_entries_scanned_post_filter) / n,
            "count",
        ),
        Metric::new(
            "exec.plan_mix.metadata_only",
            sum(|r| r.stats.num_segments_metadata_only) / planned,
            "ratio",
        ),
        Metric::new(
            "exec.plan_mix.star_tree",
            sum(|r| r.stats.num_segments_star_tree) / planned,
            "ratio",
        ),
        Metric::new(
            "exec.plan_mix.raw",
            sum(|r| r.stats.num_segments_raw) / planned,
            "ratio",
        ),
        Metric::new("startree.preagg_docs_per_query", tree_docs / n, "count"),
        Metric::new(
            "startree.raw_equiv_ratio",
            ratio(tree_docs, raw_equiv),
            "ratio",
        ),
    ]);
}

/// Ask the leading queries once each and keep the answers for the oracle,
/// the digest and the exact counts.
fn collect_answers(client: &Client, inputs: &Inputs) -> Vec<(String, QueryResponse)> {
    inputs
        .queries
        .iter()
        .zip(&client.requests)
        .take(inputs.sizes.check_queries)
        .map(|(pql, req)| (pql.clone(), client.send(req)))
        .collect()
}

struct TaskCounters {
    run: u64,
    stolen: u64,
}

fn task_counters(cluster: &PinotCluster) -> TaskCounters {
    let pools = cluster.servers().iter().map(|s| s.task_pool());
    let (mut run, mut stolen) = (0, 0);
    for p in pools {
        run += p.tasks_run();
        stolen += p.tasks_stolen();
    }
    TaskCounters { run, stolen }
}

/// Broker and task-pool rates over a traced window.
fn rate_metrics(
    client: &Client,
    cluster: &PinotCluster,
    tasks_before: &TaskCounters,
    shed_before: u64,
    out: &mut Vec<Metric>,
) {
    let q = client.queries.load(Ordering::Relaxed).max(1) as f64;
    let issued = client.hedges_issued.load(Ordering::Relaxed) as f64;
    let won = client.hedges_won.load(Ordering::Relaxed) as f64;
    let tasks = task_counters(cluster);
    let run = (tasks.run - tasks_before.run) as f64;
    let stolen = (tasks.stolen - tasks_before.stolen) as f64;
    let shed = cluster.metrics_snapshot().counter("broker.admission_shed") - shed_before;
    out.extend([
        Metric::new("broker.hedges_per_kquery", 1e3 * issued / q, "1/k"),
        Metric::new(
            "broker.hedge_won_frac",
            if issued > 0.0 { won / issued } else { 0.0 },
            "ratio",
        ),
        Metric::new(
            "broker.cache_hit_frac",
            client.cache_hits.load(Ordering::Relaxed) as f64 / q,
            "ratio",
        ),
        Metric::new("broker.shed_frac", shed as f64 / q, "ratio"),
        Metric::new("taskpool.tasks_per_query", run / q, "count"),
        Metric::new(
            "taskpool.stolen_frac",
            if run > 0.0 { stolen / run } else { 0.0 },
            "ratio",
        ),
    ]);
}

fn base_record(opts: &Options, inputs: &Inputs) -> BTreeMap<String, Json> {
    let mut r = report::host_record();
    let s = &inputs.sizes;
    r.insert("workload".into(), opts.workload.name().into());
    r.insert("seed".into(), opts.seed.into());
    r.insert("quick".into(), opts.quick.into());
    r.insert("clients".into(), CLIENTS.into());
    r.insert("warm_s".into(), opts.warm().as_secs_f64().into());
    r.insert("window_s".into(), opts.seconds.into());
    r.insert("slice_s".into(), SLICE.as_secs_f64().into());
    r.insert(
        "sizes".into(),
        Json::obj(vec![
            ("rows", s.rows.into()),
            ("segments", s.segments.into()),
            ("queries", s.queries.into()),
            ("check_queries", s.check_queries.into()),
            ("ingest_rows_per_s", s.ingest_rows_per_s.into()),
            ("query_rate_per_s", s.query_rate_per_s.into()),
            ("flush_rows", s.flush_rows.into()),
            ("backlog_rows", s.backlog_rows.into()),
            ("pool_rows", s.pool_rows.into()),
        ]),
    );
    r
}

fn secs_json(secs: &[f64]) -> Json {
    Json::Arr(secs.iter().map(|s| Json::Num(*s)).collect())
}

pub fn run(opts: &Options) -> Result<Report> {
    let epoch = Epoch::start();
    let inputs = workloads::generate(opts.workload, opts.seed, opts.quick);
    // Memory held by the generated inputs is the harness's, not the system's.
    let rss_inputs_kb = report::rss_kb("VmRSS:");
    let first = workloads::set_up(&inputs)?;
    let mut report = if opts.workload == Workload::HybridIngest {
        run_hybrid(opts, &inputs, first, epoch, rss_inputs_kb)?
    } else {
        run_offline(opts, inputs, first, epoch, rss_inputs_kb)?
    };
    report
        .record
        .insert("run_wall_s".into(), (epoch.now_ns() as f64 / 1e9).into());
    Ok(report)
}

fn space_metrics(
    cluster: &PinotCluster,
    stored_rows: usize,
    rss_inputs_kb: f64,
    out: &mut Vec<Metric>,
) {
    out.push(Metric::new(
        "peak_rss_mb",
        (report::rss_kb("VmHWM:") - rss_inputs_kb) / 1024.0,
        "MB",
    ));
    out.push(Metric::new(
        "stored_bytes_per_row",
        cluster.objstore().size_under("segments/") as f64 / stored_rows.max(1) as f64,
        "B",
    ));
}

/// What a traced window adds to the per-layer metrics: the wall-time split
/// and the client's view of the same queries. Returns the samples inside
/// the window and the split (the replay pass needs its server times).
fn traced_window_metrics(
    samples: &[Sample],
    window: &Window,
    spans: &[trace::ServerSpan],
    tail: f64,
    out: &mut Vec<Metric>,
) -> (Vec<Sample>, trace::Split) {
    let inside: Vec<Sample> = samples
        .iter()
        .filter(|s| window.holds(s))
        .copied()
        .collect();
    let mut split = trace::split_wall(&inside, spans);
    out.append(&mut split.metrics);
    let timed = window_latencies(samples, window);
    let (p50, tail_ms) = if timed.is_empty() {
        (0.0, 0.0)
    } else {
        let (p50, tail_ms, _) = median_and_tail(&timed, window, tail);
        (p50, tail_ms)
    };
    out.extend([
        Metric::new("query.traced_p50_ms", p50, "ms"),
        Metric::new("query.traced_tail_ms", tail_ms, "ms"),
        Metric::new("bench.server_cover_frac", split.server_cover_frac, "ratio"),
        Metric::new("bench.samples", inside.len() as f64, "count"),
        Metric::new("bench.spans", spans.len() as f64, "count"),
    ]);
    (inside, split)
}

fn run_offline(
    opts: &Options,
    owned: Inputs,
    first: Setup,
    epoch: Epoch,
    rss_inputs_kb: f64,
) -> Result<Report> {
    let cluster = &*first.cluster;
    let inputs = &owned;
    let client = Client::new(cluster, inputs);
    let answers = collect_answers(&client, inputs);
    let mut metrics = Vec::new();
    let mut record = base_record(opts, inputs);
    let exec = |idx: usize| client.exec(idx);
    let n = inputs.queries.len();
    let tail = inputs.sizes.tail_percentile;

    let samples = if !opts.trace {
        let (samples, window) =
            driver::closed_loop(epoch, CLIENTS, opts.warm(), opts.measure(), n, &exec);
        let (measured, q) = query_metrics(&samples, &window, tail, &mut metrics)?;
        space_metrics(cluster, inputs.rows.len(), rss_inputs_kb, &mut metrics);
        record.insert("samples".into(), measured.into());
        record.insert("tail_percentile".into(), q.into());
        samples
    } else {
        // Untraced first, for the cost of tracing itself; then the same
        // load with a clock around every server.
        let (mut all, untraced) =
            driver::closed_loop(epoch, CLIENTS, opts.warm(), opts.measure() / 3, n, &exec);
        let untraced_qps = window_latencies(&all, &untraced).len() as f64 / untraced.secs();
        let timed = trace::install(cluster, epoch);
        client.reset_counters();
        let tasks_before = task_counters(cluster);
        let shed_before = cluster.metrics_snapshot().counter("broker.admission_shed");
        let (samples, window) =
            driver::closed_loop(epoch, CLIENTS, opts.warm() / 4, opts.measure(), n, &exec);
        rate_metrics(&client, cluster, &tasks_before, shed_before, &mut metrics);
        let spans = trace::drain_spans(&timed);
        let (inside, split) = traced_window_metrics(&samples, &window, &spans, tail, &mut metrics);
        let traced_qps = window_latencies(&samples, &window).len() as f64 / window.secs();
        metrics.push(Metric::new(
            "bench.trace_overhead_frac",
            1.0 - traced_qps / untraced_qps,
            "ratio",
        ));
        count_metrics(&answers, &mut metrics);
        let sample = REPLAY_SAMPLE.min(n);
        metrics.extend(trace::replay(
            cluster,
            inputs,
            sample,
            &split.server_ns_by_idx,
        )?);
        metrics.extend(trace::ingest_layers(inputs)?);
        if let Some(path) = &opts.trace_file {
            trace::write_trace(path, &inside, &spans, &[])?;
        }
        all.extend(samples);
        all
    };

    setup_metrics(first.times, inputs, opts, &mut metrics, &mut record)?;
    // The oracle takes the rows: nothing else needs them any more.
    let mismatches =
        oracle::count_mismatches(opts.workload.table(), &owned.schema, owned.rows, &answers)?;
    record.insert(
        "result_digest".into(),
        oracle::result_digest(answers.iter().map(|(_, r)| &r.result)).into(),
    );
    let failed_queries = samples.iter().filter(|s| !s.ok).count();
    Ok(Report {
        trace: opts.trace,
        attempted: (samples.len() + answers.len()) as u64,
        failed: (failed_queries + mismatches) as u64,
        metrics,
        record,
    })
}

/// The events `0..total` of the stream: the pool, cycled.
fn stream_rows(pool: &[Record], total: u64) -> impl Iterator<Item = &Record> {
    (0..total).map(move |k| &pool[(k % pool.len() as u64) as usize])
}

/// The consume-loop metrics of a traced `hybrid_ingest` window.
fn tick_metrics(ticks: &[Tick], window: &Window, max_lag_rows: u64, out: &mut Vec<Metric>) {
    let inside = |t: &&Tick| t.start_ns >= window.start_ns && t.end_ns <= window.end_ns;
    let tick_us = |t: &Tick| (t.end_ns - t.start_ns) as f64 / 1e3;
    let busy: Vec<&Tick> = ticks.iter().filter(inside).filter(|t| t.rows > 0).collect();
    let mut us: Vec<f64> = busy.iter().map(|t| tick_us(t)).collect();
    let mut rows: Vec<f64> = busy.iter().map(|t| t.rows as f64).collect();
    sort_f64(&mut us);
    sort_f64(&mut rows);
    let busy_ns: u64 = ticks
        .iter()
        .filter(inside)
        .map(|t| t.end_ns - t.start_ns)
        .sum();
    // A tick during which a server's committed-segment count rose sealed.
    let (mut seals, mut seal_ms) = (0u64, Vec::new());
    for pair in ticks.windows(2) {
        let rose = pair[1]
            .online_segments
            .saturating_sub(pair[0].online_segments);
        if rose > 0 && inside(&&pair[1]) {
            seals += rose;
            seal_ms.push(tick_us(&pair[1]) / 1e3);
        }
    }
    let pct = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { percentile(v, q) };
    out.extend([
        Metric::new("server.consume_tick_us_p50", pct(&us, 0.50), "us"),
        Metric::new("server.consume_tick_us_p99", pct(&us, 0.99), "us"),
        Metric::new("server.rows_per_tick_p50", pct(&rows, 0.50), "count"),
        Metric::new(
            "server.tick_busy_frac",
            busy_ns as f64 / (window.end_ns - window.start_ns) as f64,
            "ratio",
        ),
        Metric::new("server.seals", seals as f64, "count"),
        Metric::new(
            "server.seal_tick_ms_p50",
            if seal_ms.is_empty() {
                0.0
            } else {
                median(&seal_ms)
            },
            "ms",
        ),
        Metric::new("server.consume_lag_rows_max", max_lag_rows as f64, "count"),
    ]);
}

fn run_hybrid(
    opts: &Options,
    inputs: &Inputs,
    first: Setup,
    epoch: Epoch,
    rss_inputs_kb: f64,
) -> Result<Report> {
    let cluster = &*first.cluster;
    let sizes = &inputs.sizes;
    let client = Client::new(cluster, inputs);
    let topic = cluster.streams().topic(workloads::STREAM_TOPIC)?;
    let timed = opts.trace.then(|| trace::install(cluster, epoch));
    let tasks_before = task_counters(cluster);
    let mut metrics = Vec::new();
    let mut record = base_record(opts, inputs);

    // Offline rows on the boundary day are shadowed by the realtime side.
    let visible_offline: Vec<&Record> = inputs
        .rows
        .iter()
        .filter(|r| workloads::day_of(r) < inputs.boundary_day)
        .collect();
    let offline_count = visible_offline.len() as u64;
    let probe = QueryRequest::new(format!("SELECT COUNT(*) FROM {}", opts.workload.table()));
    let count_of = |resp: &QueryResponse| {
        resp.result
            .single_aggregate()
            .and_then(|v| v.as_i64())
            .map(|c| c as u64)
    };

    // Partition 0 runs half a segment ahead, so the two partitions seal in
    // turn: two partitions of one table committing in the same tick race on
    // the table's ideal state in the controller (see README, findings).
    let stream = driver::EventStream {
        topic: &topic,
        pool: &inputs.stream_pool,
        rate_per_s: sizes.ingest_rows_per_s,
        head_start: sizes.flush_rows as u64 / 2,
    };
    let consumed = AtomicU64::new(0);
    let published = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut stale_probes = 0u64;
    let mut probes = 0u64;
    let span = opts.warm() + opts.measure();
    let scheduled = sizes.ingest_rows_per_s * span.as_nanos() as u64 / 1_000_000_000;

    let mut query_thread = |i: usize| {
        if i % PROBE_EVERY != PROBE_EVERY - 1 {
            return client.exec(i);
        }
        // A probe issued after a tick returned must count that tick's rows,
        // and can never count more than was published.
        let must_see = offline_count + consumed.load(Ordering::SeqCst);
        let resp = client.send(&probe);
        let may_see = offline_count + published.load(Ordering::SeqCst).max(scheduled);
        let fresh = count_of(&resp).is_some_and(|c| c >= must_see && c <= may_see);
        probes += 1;
        stale_probes += !fresh as u64;
        Outcome {
            ok: oracle::response_ok(&resp) && fresh,
            query_id: resp.stats.query_id,
        }
    };

    let (ingest, window, samples, lag, after) = std::thread::scope(|scope| {
        let queries = scope
            .spawn(|| driver::open_loop(epoch, sizes.query_rate_per_s, &stop, &mut query_thread));
        let ingest = scope.spawn(|| {
            driver::ingest_loop(
                epoch,
                cluster,
                &stream,
                span,
                workloads::TICK_INTERVAL,
                &consumed,
            )
        });
        let window = driver::hold_window(epoch, opts.warm(), opts.measure());
        let ingest = ingest.join().expect("ingest thread panicked");
        let after = ingest.as_ref().ok().map(|run| -> Result<_> {
            // Every scheduled event is consumed and nothing else is
            // published yet: the answers are a function of the seed.
            let answers = collect_answers(&client, inputs);
            // Catch-up: a backlog lands at once and is drained while the
            // queries keep coming; several times over, for a steady median.
            let mut next = run.produced;
            let mut secs = Vec::with_capacity(CATCHUP_REPS);
            for _ in 0..CATCHUP_REPS {
                let end = next + sizes.backlog_rows as u64;
                published.store(end, Ordering::SeqCst);
                for k in next..end {
                    stream.publish(k)?;
                }
                // Drained means queryable: a count must see all of it.
                let t = Instant::now();
                cluster.consume_until_idle()?;
                let seen = count_of(&cluster.execute(&probe));
                if seen != Some(offline_count + end) {
                    return Err(PinotError::Internal(format!(
                        "backlog not drained: {seen:?} of {} rows are queryable",
                        offline_count + end
                    )));
                }
                secs.push(t.elapsed().as_secs_f64());
                consumed.store(end, Ordering::SeqCst);
                next = end;
            }
            Ok((answers, secs))
        });
        stop.store(true, Ordering::SeqCst);
        let (samples, lag) = queries.join().expect("query thread panicked");
        (ingest, window, samples, lag, after)
    });
    let ingest = ingest?;
    let (answers, catchup_secs) = after.expect("ingest succeeded")?;
    let answered_rows = ingest.produced;
    let total = ingest.produced + (CATCHUP_REPS * sizes.backlog_rows) as u64;

    let final_check = client.send(&QueryRequest::new(format!(
        "SELECT COUNT(*), SUM(events) FROM {}",
        opts.workload.table()
    )));
    let want_events: i64 = visible_offline
        .iter()
        .map(|r| workloads::events_of(r))
        .sum::<i64>()
        + stream_rows(&inputs.stream_pool, total)
            .map(workloads::events_of)
            .sum::<i64>();
    let final_ok = oracle::response_ok(&final_check)
        && match &final_check.result {
            pinot_common::query::QueryResult::Aggregation(a) if a.len() == 2 => {
                a[0].value.as_i64() == Some((offline_count + total) as i64)
                    && a[1].value.as_f64() == Some(want_events as f64)
            }
            _ => false,
        };
    if !final_ok {
        eprintln!(
            "FINAL CHECK FAILED: want count {} sum {want_events}, got {:?} {:?}",
            offline_count + total,
            final_check.result,
            final_check.exceptions
        );
    }

    // Freshness of the events that were due inside the measured window.
    let due = |k: u64| stream.due_ns(ingest.start_ns, k);
    let ticks: Vec<(u64, u64)> = ingest
        .ticks
        .iter()
        .map(|t| (t.end_ns, t.cumulative))
        .collect();
    let fresh: Vec<(u64, f64)> = freshness_ns(&ticks, due)
        .iter()
        .enumerate()
        .map(|(k, ns)| (due(k as u64), *ns as f64 / 1e6))
        .filter(|(due, _)| (window.start_ns..window.end_ns).contains(due))
        .collect();
    if fresh.is_empty() {
        return Err(PinotError::Internal(
            "no event was due inside the window".into(),
        ));
    }
    let (fresh_p50, fresh_tail, fresh_q) = median_and_tail(&fresh, &window, sizes.tail_percentile);

    if !opts.trace {
        let (measured, q) = query_metrics(&samples, &window, sizes.tail_percentile, &mut metrics)?;
        let sealed_rows = cluster
            .objstore()
            .list(&format!("segments/{}_REALTIME/", opts.workload.table()))
            .len()
            * sizes.flush_rows;
        space_metrics(
            cluster,
            inputs.rows.len() + sealed_rows,
            rss_inputs_kb,
            &mut metrics,
        );
        metrics.extend([
            Metric::new("freshness_p50_ms", fresh_p50, "ms"),
            Metric::new("freshness_tail_ms", fresh_tail, "ms"),
            Metric::new(
                "catchup_rows_per_s",
                sizes.backlog_rows as f64 / median(&catchup_secs),
                "1/s",
            ),
        ]);
        record.insert("samples".into(), measured.into());
        record.insert("tail_percentile".into(), q.into());
        record.insert("freshness_samples".into(), fresh.len().into());
        record.insert("freshness_tail_percentile".into(), fresh_q.into());
    } else {
        let timed = timed.expect("installed when tracing");
        // The cluster was fresh when the wrappers went in: nothing shed before.
        rate_metrics(&client, cluster, &tasks_before, 0, &mut metrics);
        let spans = trace::drain_spans(&timed);
        // Client spans start when the query was due, so broker self time
        // here includes any wait before it was sent (see sched_lag).
        let (inside, split) = traced_window_metrics(
            &samples,
            &window,
            &spans,
            sizes.tail_percentile,
            &mut metrics,
        );
        tick_metrics(&ingest.ticks, &window, ingest.max_lag_rows, &mut metrics);
        let mut fresh_ms: Vec<f64> = fresh.iter().map(|f| f.1).collect();
        sort_f64(&mut fresh_ms);
        let mut lag_ms: Vec<f64> = samples
            .iter()
            .zip(&lag)
            .filter(|(s, _)| window.holds(s))
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect();
        sort_f64(&mut lag_ms);
        metrics.extend([
            Metric::new("ingest.freshness_p50_ms", fresh_p50, "ms"),
            Metric::new("ingest.freshness_p99_ms", percentile(&fresh_ms, 0.99), "ms"),
            Metric::new(
                "ingest.freshness_p999_ms",
                percentile(&fresh_ms, 0.999),
                "ms",
            ),
            Metric::new(
                "bench.sched_lag_p99_ms",
                if lag_ms.is_empty() {
                    0.0
                } else {
                    percentile(&lag_ms, 0.99)
                },
                "ms",
            ),
        ]);
        count_metrics(&answers, &mut metrics);
        let sample = REPLAY_SAMPLE.min(inputs.queries.len());
        metrics.extend(trace::replay(
            cluster,
            inputs,
            sample,
            &split.server_ns_by_idx,
        )?);
        metrics.extend(trace::ingest_layers(inputs)?);
        if let Some(path) = &opts.trace_file {
            trace::write_trace(path, &inside, &spans, &ingest.ticks)?;
        }
    }
    record.insert("events_produced".into(), total.into());
    record.insert("catchup_secs".into(), secs_json(&catchup_secs));
    record.insert("probes".into(), probes.into());
    record.insert("stale_probes".into(), stale_probes.into());
    record.insert("seals_total".into(), {
        let first = ingest.ticks.first().map_or(0, |t| t.online_segments);
        let last = ingest.ticks.last().map_or(0, |t| t.online_segments);
        last.saturating_sub(first).into()
    });

    setup_metrics(first.times, inputs, opts, &mut metrics, &mut record)?;
    let oracle_rows: Vec<Record> = visible_offline
        .into_iter()
        .chain(stream_rows(&inputs.stream_pool, answered_rows))
        .cloned()
        .collect();
    let mismatches =
        oracle::count_mismatches(opts.workload.table(), &inputs.schema, oracle_rows, &answers)?;
    record.insert(
        "result_digest".into(),
        oracle::result_digest(answers.iter().map(|(_, r)| &r.result)).into(),
    );
    let failed_queries = samples.iter().filter(|s| !s.ok).count();
    Ok(Report {
        trace: opts.trace,
        attempted: (samples.len() + answers.len() + 1) as u64,
        failed: (failed_queries + mismatches + !final_ok as usize) as u64,
        metrics,
        record,
    })
}
