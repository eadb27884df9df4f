//! The Pinot server (§3.2): hosts segments, consumes realtime streams,
//! executes per-segment query plans, and enforces tenant quotas.
//!
//! A server is a Helix *participant*: the controller drives it through the
//! segment state machine (Figure 3). `OFFLINE→ONLINE` downloads the blob
//! from the object store (through the lead controller) and loads it —
//! rebuilding any indexes the current table config asks for, which is how
//! Pinot deploys new index types without users noticing (§4.1).
//! `OFFLINE→CONSUMING` attaches a stream consumer at the controller-recorded
//! start offset. Consumption advances via [`Server::consume_tick`]; when a
//! consuming segment reaches its end criteria the server runs the
//! segment-completion protocol against the lead controller (§3.3.6).

pub mod tenancy;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use pinot_chaos::{sites, FaultAction, FaultContext, FaultInjector};
use pinot_cluster::{ClusterManager, Participant, SegmentState};
use pinot_common::config::TableConfig;
use pinot_common::ids::{InstanceId, SegmentName};
use pinot_common::profile::{aggregate_segment_profiles, ProfileNode};
use pinot_common::protocol::{CompletionInstruction, CompletionPoll};
use pinot_common::time::Clock;
use pinot_common::{EngineConfig, PinotError, Result, RetryPolicy, Schema};
use pinot_controller::ControllerGroup;
use pinot_exec::segment_exec::{execute_on_segment_with, IntermediateResult, SegmentHandle};
use pinot_exec::{
    collected_profiles, explain_segment, merge_intermediate, CostModel, ExecOptions, ParallelExec,
    PlannerMode, Prunable, PruneEvaluator, PruneOutcome, SegmentExplain,
};
use pinot_obs::Obs;
use pinot_pql::{CmpOp, Predicate, Query};
use pinot_segment::builder::BuilderConfig;
use pinot_segment::metadata::PartitionInfo;
use pinot_segment::MutableSegment;
use pinot_startree::build_star_tree;
use pinot_stream::{PartitionConsumer, StreamRegistry};
use pinot_taskpool::{Deadline, TaskPool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tenancy::{TenantThrottle, TokenBucketConfig};

/// Records pulled from the stream per consume tick and per segment.
const CONSUME_BATCH: usize = 1024;

struct ConsumingSegment {
    mutable: Arc<MutableSegment>,
    consumer: Mutex<PartitionConsumer>,
    partition: u32,
    reached_end: AtomicBool,
}

struct TableState {
    config: TableConfig,
    schema: Schema,
    online: HashMap<String, SegmentHandle>,
    consuming: HashMap<String, Arc<ConsumingSegment>>,
}

/// How many of the slowest segments a profiled server response keeps as
/// exact per-segment nodes; the rest fold into per-shape summary nodes.
const PROFILE_KEEP_EXACT: usize = 4;

/// Profile node for a segment skipped by statistics-based pruning: no
/// operators ran, so the node only carries the prune attribution and the
/// document count the skip avoided scanning.
fn pruned_segment_profile(
    seg_name: impl Into<std::sync::Arc<str>>,
    outcome: &PruneOutcome,
    docs: u64,
) -> ProfileNode {
    let mut seg = ProfileNode::named("segment", seg_name);
    seg.prune = Some(outcome.level.map(|l| l.as_str()).unwrap_or("stats"));
    seg.docs_in = docs;
    seg.segments = 1;
    seg
}

/// One Pinot server instance.
pub struct Server {
    id: InstanceId,
    controllers: ControllerGroup,
    cluster: ClusterManager,
    streams: StreamRegistry,
    clock: Clock,
    throttle: TenantThrottle,
    tables: RwLock<HashMap<String, TableState>>,
    obs: Arc<Obs>,
    /// Fault-injection hook; a default (empty) injector in production.
    chaos: RwLock<Arc<FaultInjector>>,
    /// Backoff for transient stream-fetch failures.
    retry: RetryPolicy,
    /// The cluster's engine configuration, resolved once at boot.
    config: Arc<EngineConfig>,
    /// Work-stealing pool for per-segment query execution, partition
    /// consumption and segment sealing (§3.3.4), sized by
    /// `config.taskpool_threads`.
    pool: Arc<TaskPool>,
    /// Calibrated per-doc scan cost feeding the fan-out gate, refreshed
    /// from the `exec.scan_ns_per_doc` histogram every
    /// [`CALIBRATE_EVERY`] requests. Only ever affects *scheduling*
    /// (inline vs fan-out), never result bytes.
    exec_ns_per_doc: RwLock<f64>,
    /// Requests executed, for the calibration cadence.
    exec_requests: AtomicU64,
}

/// How often (in requests) the cost model re-reads the measured
/// `exec.scan_ns_per_doc` histogram mean.
const CALIBRATE_EVERY: u64 = 64;

/// A broker's request to one server: run `query` over this server's share
/// of the routing table (§3.3.3 step 3).
#[derive(Clone)]
pub struct ServerRequest {
    pub table: String,
    pub query: Arc<Query>,
    pub segments: Vec<String>,
    pub tenant: String,
    /// The broker's scatter deadline; segment execution stops once it has
    /// elapsed — nobody is waiting for the rest.
    pub deadline: Option<std::time::Instant>,
    /// Broker-assigned query id, echoed back in the partial's stats so
    /// stats, logs, and profiles from every server join on one key.
    pub query_id: u64,
    /// Collect a per-operator profile tree alongside the partial result.
    /// Never changes the result payload or stats.
    pub profile: bool,
    /// With `profile`, also collect the per-conjunct access-path report
    /// for `EXPLAIN ANALYZE`.
    pub analyze: bool,
}

impl Server {
    pub fn new(
        n: usize,
        controllers: ControllerGroup,
        cluster: ClusterManager,
        streams: StreamRegistry,
        clock: Clock,
    ) -> Arc<Server> {
        Server::with_obs(
            n,
            controllers,
            cluster,
            streams,
            clock,
            Obs::shared(),
            Arc::default(),
        )
    }

    /// Like [`Server::new`] but sharing a cluster-wide observability sink
    /// and engine configuration.
    pub fn with_obs(
        n: usize,
        controllers: ControllerGroup,
        cluster: ClusterManager,
        streams: StreamRegistry,
        clock: Clock,
        obs: Arc<Obs>,
        config: Arc<EngineConfig>,
    ) -> Arc<Server> {
        let throttle = TenantThrottle::new(clock.clone(), TokenBucketConfig::default());
        let pool = Arc::new(TaskPool::with_threads(
            config.taskpool_threads,
            Some(Arc::clone(&obs)),
        ));
        Arc::new(Server {
            id: InstanceId::server(n),
            controllers,
            cluster,
            streams,
            clock,
            throttle,
            tables: RwLock::new(HashMap::new()),
            obs,
            chaos: RwLock::new(Arc::new(FaultInjector::new())),
            retry: RetryPolicy::default().with_seed(n as u64),
            config,
            pool,
            exec_ns_per_doc: RwLock::new(pinot_exec::morsel::DEFAULT_NS_PER_DOC),
            exec_requests: AtomicU64::new(0),
        })
    }

    /// A consistent cut of a consuming segment for queries, with the
    /// `realtime.query_cut_rows` counter.
    fn consuming_view(
        &self,
        consuming: &ConsumingSegment,
    ) -> Result<Arc<pinot_segment::ImmutableSegment>> {
        let view = consuming.mutable.cut()?;
        self.obs
            .metrics
            .counter_add("realtime.query_cut_rows", view.num_docs() as u64);
        Ok(view)
    }

    /// The fan-out cost model as currently calibrated.
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            ns_per_doc: *self.exec_ns_per_doc.read(),
            fanout_threshold_ns: self.config.fanout_threshold_ns,
        }
    }

    /// Periodically refresh the calibrated per-doc scan cost from the
    /// measured `exec.scan_ns_per_doc` histogram (its recorded values
    /// *are* ns/doc). Scheduling-only: the gate this feeds picks inline
    /// vs fan-out, both of which produce identical bytes.
    fn maybe_recalibrate(&self) {
        let n = self.exec_requests.fetch_add(1, Ordering::Relaxed);
        if n % CALIBRATE_EVERY != CALIBRATE_EVERY - 1 {
            return;
        }
        let snap = self.obs.metrics.snapshot();
        if let Some(h) = snap.histogram("exec.scan_ns_per_doc") {
            let cost = self.cost_model().recalibrated(h.mean());
            *self.exec_ns_per_doc.write() = cost.ns_per_doc;
        }
    }

    /// The pool executing this server's segment tasks.
    pub fn task_pool(&self) -> Arc<TaskPool> {
        Arc::clone(&self.pool)
    }

    /// Install a shared fault injector (chaos tests); the default injector
    /// has nothing armed and injects nothing.
    pub fn set_fault_injector(&self, chaos: Arc<FaultInjector>) {
        *self.chaos.write() = chaos;
    }

    fn chaos(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.chaos.read())
    }

    /// Simulate this server crashing: unregister from cluster management so
    /// the rest of the cluster sees it gone. The struct stays alive (this
    /// is a simulation) but it no longer participates.
    fn crash(&self) {
        self.obs.metrics.counter_add("server.chaos.crashed", 1);
        self.cluster.unregister_participant(&self.id);
    }

    pub fn id(&self) -> &InstanceId {
        &self.id
    }

    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    pub fn throttle(&self) -> &TenantThrottle {
        &self.throttle
    }

    fn leader(&self) -> Result<Arc<pinot_controller::Controller>> {
        self.controllers
            .leader()
            .ok_or_else(|| PinotError::Cluster("no lead controller".into()))
    }

    fn table_state<R>(
        &self,
        qualified: &str,
        f: impl FnOnce(&mut TableState) -> Result<R>,
    ) -> Result<R> {
        // Fast path: table already known.
        {
            let mut tables = self.tables.write();
            if let Some(state) = tables.get_mut(qualified) {
                return f(state);
            }
        }
        // Load config + schema from the controller, then retry.
        let leader = self.leader()?;
        let config = leader.table_config(qualified)?;
        let schema = leader.table_schema(&config.name)?;
        let mut tables = self.tables.write();
        let state = tables.entry(qualified.to_string()).or_insert(TableState {
            config,
            schema,
            online: HashMap::new(),
            consuming: HashMap::new(),
        });
        f(state)
    }

    /// Read-only table access on the query hot path: shared lock, so
    /// concurrent queries on one server don't serialize on the table map.
    fn with_table<R>(
        &self,
        qualified: &str,
        f: impl FnOnce(&TableState) -> Result<R>,
    ) -> Result<R> {
        {
            let tables = self.tables.read();
            if let Some(state) = tables.get(qualified) {
                return f(state);
            }
        }
        // Table not cached yet: populate via the write path, then re-read.
        self.table_state(qualified, |_| Ok(()))?;
        let tables = self.tables.read();
        let state = tables
            .get(qualified)
            .expect("populated by table_state above");
        f(state)
    }

    /// Number of ONLINE segments held (all tables).
    pub fn num_online_segments(&self) -> usize {
        self.tables.read().values().map(|t| t.online.len()).sum()
    }

    /// Number of CONSUMING segments held (all tables).
    pub fn num_consuming_segments(&self) -> usize {
        self.tables.read().values().map(|t| t.consuming.len()).sum()
    }

    // ---- state transitions ----

    fn load_online(&self, qualified: &str, segment: &str) -> Result<()> {
        let leader = self.leader()?;
        let blob = leader.download_segment(qualified, segment)?;
        self.load_online_blob(qualified, segment, &blob)
    }

    fn load_online_blob(&self, qualified: &str, segment: &str, blob: &Bytes) -> Result<()> {
        let parsed = pinot_segment::persist::deserialize(blob)?;
        self.install_segment(qualified, segment, Arc::new(parsed))
    }

    fn install_segment(
        &self,
        qualified: &str,
        segment: &str,
        mut seg: Arc<pinot_segment::ImmutableSegment>,
    ) -> Result<()> {
        self.table_state(qualified, |state| {
            // Reindex on the fly: make sure the segment carries every index
            // the *current* table config wants (§4.1/§5.2).
            for col in &state.config.indexing.inverted_index_columns {
                let has = seg
                    .metadata()
                    .column(col)
                    .map(|c| c.has_inverted_index || c.is_sorted)
                    .unwrap_or(true);
                if !has {
                    seg = Arc::new(seg.with_inverted_index(col)?);
                }
            }
            let mut handle = SegmentHandle::new(Arc::clone(&seg));
            if let Some(st_cfg) = &state.config.indexing.star_tree {
                let tree = build_star_tree(&seg, st_cfg)?;
                handle = handle.with_star_tree(Arc::new(tree));
            }
            state.consuming.remove(segment);
            state.online.insert(segment.to_string(), handle);
            Ok(())
        })
    }

    fn start_consuming(&self, qualified: &str, segment: &str) -> Result<()> {
        let leader = self.leader()?;
        let name = SegmentName::from_raw(segment);
        let (partition, _seq) = name
            .realtime_parts()
            .ok_or_else(|| PinotError::Segment(format!("{segment} is not a realtime segment")))?;
        let start = leader.consuming_start_offset(qualified, &name)?;
        self.table_state(qualified, |state| {
            let stream_cfg = state.config.stream.as_ref().ok_or_else(|| {
                PinotError::Metadata(format!("table {qualified} has no stream config"))
            })?;
            let topic = self.streams.topic(&stream_cfg.topic)?;
            let mutable = Arc::new(MutableSegment::new(
                state.schema.clone(),
                segment,
                qualified,
                start,
                self.clock.now_millis(),
            ));
            let consumer = PartitionConsumer::new(topic, partition, start);
            state.consuming.insert(
                segment.to_string(),
                Arc::new(ConsumingSegment {
                    mutable,
                    consumer: Mutex::new(consumer),
                    partition,
                    reached_end: AtomicBool::new(false),
                }),
            );
            Ok(())
        })
    }

    fn unload(&self, qualified: &str, segment: &str) {
        let mut tables = self.tables.write();
        if let Some(state) = tables.get_mut(qualified) {
            state.online.remove(segment);
            state.consuming.remove(segment);
        }
    }

    // ---- realtime consumption ----

    /// Advance every consuming segment: pull a batch from the stream, check
    /// end criteria, and run the completion protocol for segments that are
    /// done. Returns the number of records ingested this tick.
    ///
    /// Production servers run this continuously on consumer threads; the
    /// reproduction exposes it as an explicit tick so tests and simulations
    /// are deterministic (a background pump in `pinot-core` calls it in a
    /// loop for live deployments).
    pub fn consume_tick(&self) -> Result<usize> {
        let work: Vec<(String, String, Arc<ConsumingSegment>)> = {
            let tables = self.tables.read();
            tables
                .iter()
                .flat_map(|(t, state)| {
                    state
                        .consuming
                        .iter()
                        .map(|(s, c)| (t.clone(), s.clone(), Arc::clone(c)))
                })
                .collect()
        };
        if work.is_empty() {
            return Ok(0);
        }

        // Memory backpressure: when the server holds too many unsealed
        // rows, pause fetching this tick. Completion steps still run, so
        // segments past their end criteria seal and drain the backlog.
        let buffered: usize = work.iter().map(|(_, _, c)| c.mutable.num_rows()).sum();
        let paused = buffered >= self.config.ingest_max_buffered_rows;
        if paused {
            self.obs
                .metrics
                .counter_add("ingest.backpressure_stalls", 1);
        }

        // One task per consuming segment: partitions advance concurrently
        // while each partition's appends stay ordered (a segment is only
        // ever ticked by its own task). A one-thread pool runs them in
        // order; a lone segment skips the pool.
        let started = std::time::Instant::now();
        let ingested = if work.len() > 1 {
            let slots: Vec<Mutex<Option<Result<usize>>>> =
                work.iter().map(|_| Default::default()).collect();
            self.pool.scope(|scope| {
                for ((qualified, segment, consuming), slot) in work.iter().zip(&slots) {
                    scope.spawn(move || {
                        *slot.lock() =
                            Some(self.tick_segment(qualified, segment, consuming, paused));
                    });
                }
            });
            let mut total = 0usize;
            for slot in slots {
                total += slot
                    .into_inner()
                    .expect("scope joined every partition task")?;
            }
            total
        } else {
            let (qualified, segment, consuming) = &work[0];
            self.tick_segment(qualified, segment, consuming, paused)?
        };

        let chunks: u64 = work
            .iter()
            .map(|(_, _, c)| c.mutable.take_chunks_sealed())
            .sum();
        if chunks > 0 {
            self.obs
                .metrics
                .counter_add("realtime.chunks_sealed", chunks);
        }
        if ingested > 0 {
            let secs = started.elapsed().as_secs_f64();
            if secs > 0.0 {
                self.obs
                    .metrics
                    .gauge_set("ingest.rows_per_sec", (ingested as f64 / secs) as i64);
            }
        }
        Ok(ingested)
    }

    fn tick_segment(
        &self,
        qualified: &str,
        segment: &str,
        consuming: &Arc<ConsumingSegment>,
        paused: bool,
    ) -> Result<usize> {
        let (flush_rows, flush_millis, topic_name) = self.with_table(qualified, |state| {
            let s = state.config.stream.as_ref().ok_or_else(|| {
                PinotError::Metadata(format!("table {qualified} lost its stream config"))
            })?;
            Ok((
                s.flush_threshold_rows,
                s.flush_threshold_millis,
                s.topic.clone(),
            ))
        })?;

        let mut ingested = 0usize;
        if !consuming.reached_end.load(Ordering::SeqCst) && !paused {
            // Stream fetch with injected-fault awareness and bounded retry:
            // transient failures back off and re-poll; a persistently
            // failing (stalled) partition skips this tick, letting the lag
            // gauge below record how far behind it is falling.
            let chaos = self.chaos();
            let ctx = FaultContext::new()
                .instance(self.id.to_string())
                .table(qualified)
                .partition(consuming.partition);
            let fetched = self.retry.run(|_| {
                if let Some(action) = chaos.intercept(sites::STREAM_FETCH, &ctx) {
                    match action {
                        FaultAction::Fail(e) => return Err(e),
                        FaultAction::Delay(ms) => {
                            std::thread::sleep(std::time::Duration::from_millis(ms))
                        }
                        FaultAction::Crash => {
                            self.crash();
                            return Err(PinotError::Io(format!("{} crashed (injected)", self.id)));
                        }
                    }
                }
                let mut consumer = consuming.consumer.lock();
                consumer.poll(CONSUME_BATCH)
            });
            let batch = match fetched {
                Ok(batch) => batch,
                Err(e) if e.is_retriable() => {
                    self.obs
                        .metrics
                        .counter_add("server.consume.fetch_failed", 1);
                    Vec::new()
                }
                Err(e) => return Err(e),
            };
            for event in batch {
                consuming.mutable.append(event.record, event.offset)?;
                ingested += 1;
                if consuming.mutable.num_rows() >= flush_rows {
                    // Stop exactly at the threshold; remaining events stay
                    // in the stream for the next segment.
                    let mut consumer = consuming.consumer.lock();
                    consumer.seek(consuming.mutable.current_offset());
                    break;
                }
            }
        }
        // End criteria are evaluated even when backpressure paused the
        // fetch: a paused segment must still seal (by size or age) so the
        // buffered backlog drains instead of deadlocking against the pause.
        if !consuming.reached_end.load(Ordering::SeqCst) {
            let rows = consuming.mutable.num_rows();
            let age = self.clock.now_millis() - consuming.mutable.created_at_millis();
            if rows >= flush_rows || (rows > 0 && age >= flush_millis) {
                consuming.reached_end.store(true, Ordering::SeqCst);
            }
        }

        // Ingestion lag: how far the stream's head has moved past what this
        // consuming segment has ingested (§3.3.6 freshness).
        if ingested > 0 {
            self.obs
                .metrics
                .counter_add("server.consume.records", ingested as u64);
        }
        if let Ok(topic) = self.streams.topic(&topic_name) {
            if let Ok(latest) = topic.latest_offset(consuming.partition) {
                let lag = latest.saturating_sub(consuming.mutable.current_offset());
                self.obs.metrics.gauge_set(
                    &format!("server.consume.lag.{qualified}.p{}", consuming.partition),
                    lag as i64,
                );
            }
        }

        if consuming.reached_end.load(Ordering::SeqCst) {
            self.run_completion_step(qualified, segment, consuming)?;
        }
        Ok(ingested)
    }

    fn run_completion_step(
        &self,
        qualified: &str,
        segment: &str,
        consuming: &Arc<ConsumingSegment>,
    ) -> Result<()> {
        let Some(leader) = self.controllers.leader() else {
            return Ok(()); // retry next tick
        };
        let name = SegmentName::from_raw(segment);
        let poll = CompletionPoll::new(
            name.clone(),
            self.id.clone(),
            consuming.mutable.current_offset(),
        );
        match leader.segment_completion_poll(&poll) {
            CompletionInstruction::Hold | CompletionInstruction::NotLeader => Ok(()),
            CompletionInstruction::Catchup { target_offset } => {
                // Consume up to exactly the target, then poll again later.
                while consuming.mutable.current_offset() < target_offset {
                    let need = (target_offset - consuming.mutable.current_offset()) as usize;
                    let batch = {
                        let mut consumer = consuming.consumer.lock();
                        consumer.seek(consuming.mutable.current_offset());
                        consumer.poll(need.min(CONSUME_BATCH))?
                    };
                    if batch.is_empty() {
                        break;
                    }
                    for event in batch {
                        consuming.mutable.append(event.record, event.offset)?;
                    }
                }
                Ok(())
            }
            CompletionInstruction::Commit => {
                // This replica won the committer election. A crash here —
                // after winning, before committing — is the §3.3.6 failure
                // the protocol's commit timeout exists for: the controller
                // must eventually promote a caught-up replica instead.
                if let Some(action) = self.chaos().intercept(
                    sites::COMPLETION_COMMIT,
                    &FaultContext::new()
                        .instance(self.id.to_string())
                        .table(qualified),
                ) {
                    match action {
                        FaultAction::Fail(e) => {
                            self.obs
                                .metrics
                                .counter_add("server.completion.commit_failed", 1);
                            return Err(e);
                        }
                        FaultAction::Delay(ms) => {
                            std::thread::sleep(std::time::Duration::from_millis(ms))
                        }
                        FaultAction::Crash => {
                            self.crash();
                            return Ok(()); // died without committing
                        }
                    }
                }
                let sealed = self.seal(qualified, consuming)?;
                let blob = Bytes::from(pinot_segment::persist::serialize(&sealed));
                let end = consuming.mutable.current_offset();
                let ok = leader.commit_segment(qualified, &name, &self.id, end, blob)?;
                if ok {
                    self.install_segment(qualified, segment, Arc::new(sealed))?;
                    self.cluster
                        .record_state(qualified, segment, &self.id, SegmentState::Online);
                }
                Ok(())
            }
            CompletionInstruction::Keep => {
                // Identical offsets → identical data: flush locally, no
                // upload needed.
                let sealed = self.seal(qualified, consuming)?;
                self.install_segment(qualified, segment, Arc::new(sealed))?;
                self.cluster
                    .record_state(qualified, segment, &self.id, SegmentState::Online);
                Ok(())
            }
            CompletionInstruction::Discard => {
                // Another replica committed a different version: drop local
                // rows and fetch the authoritative copy.
                let blob = leader.download_segment(qualified, segment)?;
                self.load_online_blob(qualified, segment, &blob)?;
                self.cluster
                    .record_state(qualified, segment, &self.id, SegmentState::Online);
                Ok(())
            }
        }
    }

    fn seal(
        &self,
        qualified: &str,
        consuming: &Arc<ConsumingSegment>,
    ) -> Result<pinot_segment::ImmutableSegment> {
        let cfg = self.with_table(qualified, |state| {
            let mut cfg = BuilderConfig::new("", "");
            if let Some(sorted) = &state.config.indexing.sorted_column {
                cfg.sort_columns = vec![sorted.clone()];
            }
            cfg.inverted_columns = state.config.indexing.inverted_index_columns.clone();
            cfg.bloom_columns = state.config.indexing.bloom_filter_columns.clone();
            if let pinot_common::config::RoutingStrategy::Partitioned {
                column,
                num_partitions,
            } = &state.config.routing
            {
                cfg.partition = Some(PartitionInfo {
                    column: column.clone(),
                    partition_id: consuming.partition,
                    num_partitions: *num_partitions,
                });
            }
            Ok(cfg)
        })?;
        // Column/index builds for the completing segment run as pool tasks
        // (the stream path's share of the execution pool). This must happen
        // OUTSIDE `with_table`: the nested scope's help-while-wait can pick
        // up another consuming segment's tick task, and if that task
        // completes it takes `tables.write()` on this very thread — a
        // self-deadlock if we were still holding the read lock here.
        consuming.mutable.seal_with_pool(cfg, Some(&self.pool))
    }

    // ---- query execution ----

    /// Execute a broker request over this server's routed segments and
    /// return the merged partial result (§3.3.3 steps 4–6).
    ///
    /// The time from arrival until per-segment execution begins (admission
    /// control plus table metadata resolution) is the request's queue time;
    /// the segment loop itself is its execution time. Both feed this
    /// server's `server.exec.{queue,execute}_ms` histograms.
    pub fn execute(&self, req: &ServerRequest) -> Result<IntermediateResult> {
        let entered = std::time::Instant::now();
        if let Some(action) = self.chaos().intercept(
            sites::SERVER_EXECUTE,
            &FaultContext::new()
                .instance(self.id.to_string())
                .table(req.table.clone()),
        ) {
            match action {
                FaultAction::Fail(e) => return Err(e),
                FaultAction::Delay(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
                FaultAction::Crash => {
                    self.crash();
                    return Err(PinotError::Io(format!("{} crashed (injected)", self.id)));
                }
            }
        }
        if let Err(e) = self.throttle.admit(&req.tenant) {
            self.obs.metrics.counter_add("server.throttle.rejected", 1);
            self.obs
                .metrics
                .counter_add(&format!("server.throttle.rejected.{}", req.tenant), 1);
            return Err(e);
        }
        let started = std::time::Instant::now();

        let mut acc = IntermediateResult::empty_for(&req.query);
        acc.stats.query_id = req.query_id;
        let time_column = self.with_table(&req.table, |state| {
            Ok(state.schema.time_column().map(|tc| tc.name.clone()))
        })?;
        let evaluator = PruneEvaluator::new(time_column);
        let exec_started = std::time::Instant::now();
        let queue_ns = exec_started.duration_since(entered).as_nanos() as u64;
        self.obs
            .metrics
            .observe_ms("server.exec.queue_ms", queue_ns as f64 / 1e6);

        // Whole-query short-circuit: when statistics prove no routed
        // segment can match, answer without touching the pool at all.
        let short_circuited = self.try_short_circuit(req, &evaluator, &mut acc)?;
        if !short_circuited {
            self.maybe_recalibrate();
            let deadline = Deadline::at(req.deadline);
            let cost = self.cost_model();
            // Cost-gated fan-out (ISSUE 8): estimate the scan work of one
            // per-segment task — zone-map doc counts (an upper bound;
            // per-segment pruning can only shrink it) averaged over the
            // routed segments, times the columns the query touches. A pool
            // task is only worth spawning when its own slice clears the
            // threshold; below that, scheduling overhead dominates and
            // every segment runs inline on the caller thread with zero
            // task overhead. Both paths merge partials in segment order,
            // so the gate's choice never changes result bytes.
            let est_docs = self.estimate_request_docs(&req.table, &req.segments)?;
            let per_segment_docs = est_docs / req.segments.len().max(1) as u64;
            let cols = req.query.referenced_columns().len().max(1) as u64;
            if !cost.should_fan_out(per_segment_docs, cols) {
                self.obs
                    .metrics
                    .counter_add("exec.morsels_inline", req.segments.len() as u64);
                for seg_name in &req.segments {
                    if deadline.expired() {
                        self.obs
                            .metrics
                            .counter_add("server.exec.deadline_abandoned", 1);
                        return Err(PinotError::Timeout(format!(
                            "{}: query deadline elapsed before segment {seg_name}",
                            self.id
                        )));
                    }
                    let partial = self.execute_segment(req, seg_name, &evaluator, None)?;
                    merge_intermediate(&mut acc, partial)?;
                }
            } else {
                // Fan every segment's physical plan out as a pool task
                // (§3.3.4, Figure 7): the pool runs them across cores, each
                // task writing its partial into a per-segment slot. Large
                // segments morselize further inside `execute_segment` via
                // the same pool (nested scopes help while they wait, so
                // this cannot deadlock). Merging happens afterwards in
                // segment order, so the merged result is byte-identical no
                // matter how many workers the pool has or which of them ran
                // which task.
                let pool = &self.pool;
                let parallel = ParallelExec::new(Arc::clone(pool))
                    .with_deadline(deadline.clone())
                    .with_cost(cost)
                    .with_chaos(
                        self.chaos(),
                        FaultContext::new()
                            .instance(self.id.to_string())
                            .table(req.table.clone()),
                    );
                let slots: Vec<Mutex<Option<Result<IntermediateResult>>>> =
                    req.segments.iter().map(|_| Mutex::new(None)).collect();
                pool.scope(|scope| {
                    for (i, seg_name) in req.segments.iter().enumerate() {
                        let slot = &slots[i];
                        let evaluator = &evaluator;
                        let parallel = &parallel;
                        // Tasks queued past the broker's scatter deadline are
                        // abandoned by the pool: nobody is waiting for them.
                        scope.spawn_with_deadline(&deadline, move || {
                            *slot.lock() = Some(self.execute_segment(
                                req,
                                seg_name,
                                evaluator,
                                Some(parallel),
                            ));
                        });
                    }
                });
                for (i, slot) in slots.into_iter().enumerate() {
                    match slot.into_inner() {
                        Some(Ok(partial)) => merge_intermediate(&mut acc, partial)?,
                        Some(Err(e)) => return Err(e),
                        None => {
                            // The pool abandoned this task: the scatter deadline
                            // passed while it was still queued.
                            self.obs
                                .metrics
                                .counter_add("server.exec.deadline_abandoned", 1);
                            return Err(PinotError::Timeout(format!(
                                "{}: query deadline elapsed before segment {}",
                                self.id, req.segments[i]
                            )));
                        }
                    }
                }
            }
        }

        self.obs.metrics.observe_ms(
            "server.exec.execute_ms",
            exec_started.elapsed().as_secs_f64() * 1e3,
        );
        if req.profile {
            // Keep the slowest segments exact; fold the rest into summary
            // nodes so the server→broker profile stays bounded no matter
            // how many segments were routed here.
            let segments = collected_profiles(acc.profile.take());
            let mut server = ProfileNode::named("server", self.id.to_string());
            let mut queue = ProfileNode::new("queue");
            queue.elapsed_ns = queue_ns;
            server.children.push(queue);
            server
                .children
                .extend(aggregate_segment_profiles(segments, PROFILE_KEEP_EXACT));
            server.docs_in = acc.stats.total_docs;
            server.docs_out = acc.stats.num_docs_scanned;
            server.elapsed_ns = entered.elapsed().as_nanos() as u64;
            acc.profile = Some(server);
        }
        let micros = started.elapsed().as_micros() as u64;
        acc.stats.time_used_ms = (micros / 1000).max(acc.stats.time_used_ms);
        self.throttle.debit(&req.tenant, micros);
        Ok(acc)
    }

    /// Pre-pass over the routed segments: when every one is ONLINE and the
    /// statistics prove none can match, fold the pruned stats into `acc`
    /// and skip the execution pool entirely. Consuming segments disable
    /// the short-circuit (their snapshots are taken, and pruned, inside
    /// their pool task). Emits no metrics unless it fires, so the
    /// per-segment path stays the single counting site otherwise.
    fn try_short_circuit(
        &self,
        req: &ServerRequest,
        evaluator: &PruneEvaluator,
        acc: &mut IntermediateResult,
    ) -> Result<bool> {
        if req.segments.is_empty() {
            return Ok(false);
        }
        let decisions = self.with_table(&req.table, |state| {
            let mut per_seg = Vec::with_capacity(req.segments.len());
            for seg_name in &req.segments {
                let Some(h) = state.online.get(seg_name) else {
                    return Ok(None); // consuming or unknown segment
                };
                let outcome = evaluator.evaluate(req.query.filter.as_ref(), h.segment.as_ref());
                if outcome.prunable != Prunable::CannotMatch {
                    return Ok(None);
                }
                per_seg.push((seg_name.clone(), outcome, h.segment.num_docs() as u64));
            }
            Ok(Some(per_seg))
        })?;
        let Some(per_seg) = decisions else {
            return Ok(false);
        };
        let mut pruned_nodes = Vec::new();
        for (seg_name, outcome, docs) in &per_seg {
            self.record_prune(outcome);
            acc.stats.num_segments_queried += 1;
            acc.stats.num_segments_pruned += 1;
            acc.stats.total_docs += docs;
            if req.profile {
                pruned_nodes.push(pruned_segment_profile(seg_name.as_str(), outcome, *docs));
            }
        }
        if req.profile {
            let mut collect = ProfileNode::new("collect");
            collect.children = pruned_nodes;
            acc.profile = Some(collect);
        }
        self.obs
            .metrics
            .counter_add("prune.server_short_circuit", 1);
        Ok(true)
    }

    /// Flush one prune evaluation's counters to obs.
    fn record_prune(&self, outcome: &PruneOutcome) {
        if outcome.bloom_probes > 0 {
            self.obs
                .metrics
                .counter_add("prune.bloom_probes", outcome.bloom_probes);
        }
        if outcome.bloom_negatives > 0 {
            self.obs
                .metrics
                .counter_add("prune.bloom_probe_negatives", outcome.bloom_negatives);
        }
        if let Some(level) = outcome.level {
            self.obs
                .metrics
                .counter_add(&format!("prune.{}_segments", level.as_str()), 1);
        }
    }

    /// Total documents the request's routed segments hold, from segment
    /// metadata alone (zone-map doc counts; consuming segments report
    /// their appended rows). Feeds the fan-out cost gate — deliberately
    /// *not* a prune evaluation, which would double-count bloom probes.
    fn estimate_request_docs(&self, table: &str, segments: &[String]) -> Result<u64> {
        self.with_table(table, |state| {
            let mut docs = 0u64;
            for name in segments {
                if let Some(h) = state.online.get(name) {
                    docs += h.segment.num_docs() as u64;
                } else if let Some(c) = state.consuming.get(name) {
                    docs += c.mutable.num_rows() as u64;
                }
            }
            Ok(docs)
        })
    }

    /// One segment's share of a request: resolve the handle, evaluate the
    /// pruning statistics, and run the physical plan. Runs as a pool
    /// task (or inline below the fan-out gate, with `parallel` absent);
    /// the per-segment latency feeds `server.exec.segment_ms`.
    fn execute_segment(
        &self,
        req: &ServerRequest,
        seg_name: &str,
        evaluator: &PruneEvaluator,
        parallel: Option<&ParallelExec>,
    ) -> Result<IntermediateResult> {
        let handle = self.with_table(&req.table, |state| {
            if let Some(h) = state.online.get(seg_name) {
                return Ok(Some(h.clone()));
            }
            if let Some(c) = state.consuming.get(seg_name) {
                // Query a consistent cut of the consuming segment — the
                // near-realtime visibility path. Row high-water mark +
                // dictionary generation under one lock; no row copying.
                return Ok(Some(SegmentHandle::new(self.consuming_view(c)?)));
            }
            Ok(None)
        })?;
        let Some(handle) = handle else {
            return Err(PinotError::Segment(format!(
                "{}: segment {seg_name} not hosted here",
                self.id
            )));
        };

        // Statistics-based pruning before planning (zone maps, bloom
        // filters, time bounds — all through one evaluator). A CannotMatch
        // partial is an identity under merge, so it only contributes its
        // stats; MatchAll strips the predicate, which upgrades
        // COUNT/MIN/MAX-only queries to the metadata-only plan.
        let mut stripped = None;
        let outcome = evaluator.evaluate(req.query.filter.as_ref(), handle.segment.as_ref());
        self.record_prune(&outcome);
        match outcome.prunable {
            Prunable::CannotMatch => {
                let docs = handle.segment.num_docs() as u64;
                let mut pruned = IntermediateResult::empty_for(&req.query);
                pruned.stats.num_segments_queried += 1;
                pruned.stats.num_segments_pruned += 1;
                pruned.stats.total_docs += docs;
                if req.profile {
                    pruned.profile = Some(pruned_segment_profile(
                        std::sync::Arc::clone(&handle.name),
                        &outcome,
                        docs,
                    ));
                }
                return Ok(pruned);
            }
            Prunable::MatchAll if req.query.filter.is_some() => {
                self.obs.metrics.counter_add("prune.filters_stripped", 1);
                let mut q = (*req.query).clone();
                q.filter = None;
                stripped = Some(q);
            }
            _ => {}
        }
        let query: &Query = stripped.as_ref().unwrap_or(&req.query);
        let seg_started = std::time::Instant::now();
        let opts = ExecOptions {
            config: Arc::clone(&self.config),
            obs: Some(Arc::clone(&self.obs)),
            profile: req.profile,
            analyze: req.analyze,
            parallel: parallel.cloned(),
            planner: PlannerMode::Auto,
        };
        let partial = execute_on_segment_with(&handle, query, &opts)?;
        self.obs.metrics.observe_ms(
            "server.exec.segment_ms",
            seg_started.elapsed().as_secs_f64() * 1e3,
        );
        Ok(partial)
    }

    /// Per-segment EXPLAIN decisions for every segment this server hosts
    /// for `table` (online handles plus consuming snapshots), mirroring
    /// what [`Server::execute`] would do — prune verdict, plan choice,
    /// predicate order — without executing anything.
    pub fn explain_segments(&self, table: &str, query: &Query) -> Result<Vec<SegmentExplain>> {
        let opts = ExecOptions {
            config: Arc::clone(&self.config),
            ..ExecOptions::default()
        };
        self.with_table(table, |state| {
            let time_column = state.schema.time_column().map(|tc| tc.name.clone());
            let mut out = Vec::new();
            let mut names: Vec<&String> = state.online.keys().collect();
            names.sort();
            for name in names {
                out.push(explain_segment(
                    &state.online[name],
                    query,
                    time_column.as_deref(),
                    &opts,
                )?);
            }
            let mut consuming: Vec<&String> = state.consuming.keys().collect();
            consuming.sort();
            for name in consuming {
                let view = self.consuming_view(&state.consuming[name])?;
                let cut_rows = view.num_docs() as u64;
                let handle = SegmentHandle::new(view);
                let mut e = explain_segment(&handle, query, time_column.as_deref(), &opts)?;
                e.realtime_cut_rows = Some(cut_rows);
                out.push(e);
            }
            Ok(out)
        })
    }

    /// Segment names (online + consuming) hosted for a table.
    pub fn hosted_segments(&self, table: &str) -> Vec<String> {
        let tables = self.tables.read();
        let Some(state) = tables.get(table) else {
            return Vec::new();
        };
        let mut v: Vec<String> = state
            .online
            .keys()
            .chain(state.consuming.keys())
            .cloned()
            .collect();
        v.sort();
        v
    }
}

impl Participant for Server {
    fn instance_id(&self) -> InstanceId {
        self.id.clone()
    }

    fn handle_transition(
        &self,
        table: &str,
        segment: &str,
        from: SegmentState,
        to: SegmentState,
    ) -> Result<()> {
        use SegmentState::*;
        match (from, to) {
            (Offline, Online) => self.load_online(table, segment),
            (Offline, Consuming) => self.start_consuming(table, segment),
            (Consuming, Online) => {
                // The controller says this segment committed. If we already
                // installed it (we were the committer or ran KEEP/DISCARD),
                // this is a no-op; otherwise fetch the committed copy.
                let already = {
                    let tables = self.tables.read();
                    tables
                        .get(table)
                        .map(|s| s.online.contains_key(segment))
                        .unwrap_or(false)
                };
                if already {
                    Ok(())
                } else {
                    self.load_online(table, segment)
                }
            }
            (Online, Offline) | (Consuming, Offline) => {
                self.unload(table, segment);
                Ok(())
            }
            (Offline, Dropped) | (Error, Offline) => Ok(()),
            (f, t) => Err(PinotError::Cluster(format!(
                "illegal transition {}→{} for {segment}",
                f.name(),
                t.name()
            ))),
        }
    }
}

/// Extract `[lo, hi]` bounds (inclusive) that top-level AND conjuncts put on
/// the time column. Conservative: OR/NOT shapes yield no bounds.
pub fn filter_time_bounds(
    pred: Option<&Predicate>,
    time_column: &str,
) -> (Option<i64>, Option<i64>) {
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    fn tighten(slot: &mut Option<i64>, v: i64, take_min: bool) {
        *slot = Some(match *slot {
            None => v,
            Some(cur) if take_min => cur.min(v),
            Some(cur) => cur.max(v),
        });
    }
    fn walk(p: &Predicate, col: &str, lo: &mut Option<i64>, hi: &mut Option<i64>) {
        match p {
            Predicate::And(ps) => {
                for q in ps {
                    walk(q, col, lo, hi);
                }
            }
            Predicate::Cmp { column, op, value } if column == col => {
                if let Some(v) = value.as_i64() {
                    match op {
                        CmpOp::Eq => {
                            tighten(lo, v, false);
                            tighten(hi, v, true);
                        }
                        CmpOp::Ge => tighten(lo, v, false),
                        CmpOp::Gt => tighten(lo, v + 1, false),
                        CmpOp::Le => tighten(hi, v, true),
                        CmpOp::Lt => tighten(hi, v - 1, true),
                        CmpOp::Ne => {}
                    }
                }
            }
            Predicate::Between { column, low, high } if column == col => {
                if let (Some(l), Some(h)) = (low.as_i64(), high.as_i64()) {
                    tighten(lo, l, false);
                    tighten(hi, h, true);
                }
            }
            _ => {}
        }
    }
    if let Some(p) = pred {
        walk(p, time_column, &mut lo, &mut hi);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_pql::parse;

    fn bounds(pql: &str) -> (Option<i64>, Option<i64>) {
        let q = parse(pql).unwrap();
        filter_time_bounds(q.filter.as_ref(), "day")
    }

    #[test]
    fn time_bounds_extraction() {
        assert_eq!(
            bounds("SELECT COUNT(*) FROM t WHERE day >= 10"),
            (Some(10), None)
        );
        assert_eq!(
            bounds("SELECT COUNT(*) FROM t WHERE day > 10"),
            (Some(11), None)
        );
        assert_eq!(
            bounds("SELECT COUNT(*) FROM t WHERE day >= 10 AND day < 20"),
            (Some(10), Some(19))
        );
        assert_eq!(
            bounds("SELECT COUNT(*) FROM t WHERE day BETWEEN 5 AND 9 AND x = 1"),
            (Some(5), Some(9))
        );
        assert_eq!(
            bounds("SELECT COUNT(*) FROM t WHERE day = 7"),
            (Some(7), Some(7))
        );
        // OR gives nothing (conservative).
        assert_eq!(
            bounds("SELECT COUNT(*) FROM t WHERE day = 7 OR day = 9"),
            (None, None)
        );
        // Other columns ignored.
        assert_eq!(bounds("SELECT COUNT(*) FROM t WHERE x = 7"), (None, None));
        assert_eq!(bounds("SELECT COUNT(*) FROM t"), (None, None));
        // Multiple constraints tighten.
        assert_eq!(
            bounds(
                "SELECT COUNT(*) FROM t WHERE day >= 3 AND day >= 8 AND day <= 30 AND day <= 12"
            ),
            (Some(8), Some(12))
        );
    }
}
