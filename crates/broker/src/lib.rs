//! The Pinot broker (§3.2–3.3, §4.4).
//!
//! Brokers accept PQL over a client-facing API, parse and optimize it, pick
//! a routing table at random, scatter per-server requests, gather partial
//! results, merge them, and return the final response. Errors or timeouts
//! from individual servers mark the response *partial* instead of failing
//! it (§3.3.3 step 7).
//!
//! Hybrid tables pair an OFFLINE and a REALTIME physical table sharing a
//! time column: the broker computes the *time boundary* (the newest time
//! covered by offline data) and rewrites one logical query into two
//! physical ones — offline strictly before the boundary, realtime at or
//! after it (Figure 6) — then merges both results.

pub mod routing;
pub mod survival;

/// One server's share of a scattered query.
pub use pinot_exec::ServerRequest as RoutedRequest;

use crossbeam::channel::{bounded, RecvTimeoutError};
use parking_lot::{Mutex, RwLock};
use pinot_cluster::ClusterManager;
use pinot_common::config::{RoutingStrategy, TableConfig};
use pinot_common::ids::{InstanceId, SegmentName};
use pinot_common::json::Json;
use pinot_common::profile::{ProfileNode, QueryProfile};
use pinot_common::query::ServerContribution;
use pinot_common::query::{ExecutionStats, QueryRequest, QueryResponse};
use pinot_common::{DataType, EngineConfig, PinotError, Result, RetryPolicy, Value};
use pinot_exec::segment_exec::IntermediateResult;
use pinot_exec::{
    collected_profiles, finalize, merge_intermediate, ColumnRange, Prunable, PruneEvaluator,
    ZoneMapStats,
};
use pinot_obs::{LatencyDigest, Obs, QueryLogEntry};
use pinot_pql::{CmpOp, Predicate, Query};
use pinot_taskpool::TaskPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routing::{RoutingTable, SegmentReplicas};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use survival::AdmissionController;
pub use survival::AdmissionLimits;

/// Samples of per-server scatter latency retained for hedge-delay
/// estimation, and how many a server needs before its estimate counts.
const HEDGE_LATENCY_WINDOW: usize = 64;
const HEDGE_MIN_SAMPLES: usize = 8;
/// Hedge delay = max(`HEDGE_FLOOR_MS`, `HEDGE_DELAY_FACTOR` × healthy
/// p99): hedging never fires earlier than the floor even when the healthy
/// p99 estimate is tiny.
const HEDGE_DELAY_FACTOR: f64 = 1.5;
const HEDGE_FLOOR_MS: f64 = 5.0;

/// Per-query context threaded from the client request through scatter,
/// failover, and merge.
#[derive(Clone, Copy)]
struct QueryCtx {
    query_id: u64,
    profile: bool,
    analyze: bool,
}

/// One query's broker phase wall times in nanoseconds, summed over the
/// physical sides of a hybrid query. Each `broker.phase.*_ms` histogram is
/// observed where its phase ends; this copy only feeds the query log's
/// profile root for a logged query that asked for no profile.
#[derive(Clone, Copy, Default)]
struct PhaseNanos {
    parse: u64,
    route: u64,
    scatter: u64,
    gather: u64,
    merge: u64,
}

/// One message on the gather channel. `origin` names the slice (the server
/// the routing table assigned it to); `actual` names whoever executed —
/// different from `origin` only for hedge replies, letting the gather
/// dedupe by slice so the losing contender never double-counts.
struct ScatterReply {
    origin: InstanceId,
    actual: InstanceId,
    segments: Vec<String>,
    result: Result<IntermediateResult>,
}

/// Gather-side state for one unanswered slice.
struct PendingSlice {
    segments: Vec<String>,
    hedged: bool,
}

/// What brokers need from a server. Implemented by an adapter around
/// `pinot_server::Server` in the integration crate (`pinot-core`), keeping
/// the dependency graph acyclic — in production this boundary is the
/// broker→server RPC.
pub trait SegmentQueryService: Send + Sync {
    fn execute(&self, req: &RoutedRequest) -> Result<IntermediateResult>;
}

struct CachedRouting {
    tables: Vec<RoutingTable>,
    /// The full segment → replicas view the tables were generated from;
    /// consulted by replica failover when a routed server fails mid-query.
    /// Shared, so a query takes it without copying the map.
    replicas: Arc<SegmentReplicas>,
    /// For partitioned tables: partition id → (segment → replicas).
    partitions: Option<PartitionIndex>,
}

struct PartitionIndex {
    column: String,
    num_partitions: u32,
    by_partition: HashMap<u32, SegmentReplicas>,
}

/// One Pinot broker instance.
pub struct Broker {
    id: InstanceId,
    cluster: ClusterManager,
    executors: RwLock<HashMap<InstanceId, Arc<dyn SegmentQueryService>>>,
    routing_cache: Mutex<HashMap<String, CachedRouting>>,
    /// Parsed table configs keyed by metastore version, so the query hot
    /// path doesn't re-parse JSON (configs change rarely, §5.2).
    config_cache: Mutex<HashMap<String, (u64, TableConfig)>>,
    dirty: Arc<Mutex<HashSet<String>>>,
    rng: Mutex<StdRng>,
    obs: Arc<Obs>,
    /// Backoff schedule for replica-failover retries; seeded per broker so
    /// delays are deterministic in tests yet de-synchronized across brokers.
    retry: RetryPolicy,
    /// Scatter workers run as detached pool tasks instead of raw threads:
    /// a worker outliving the scatter deadline sends into a disconnected
    /// channel, and a panicking server surfaces as a retriable error
    /// instead of a forever-pending slot.
    pool: Arc<TaskPool>,
    /// The cluster's engine configuration, resolved once at boot; the
    /// broker reads `taskpool_threads` (its scatter pool) and `hedge`.
    config: Arc<EngineConfig>,
    /// Segment zone maps parsed from metastore metadata, keyed by path and
    /// invalidated by metastore version (segment metadata is written once
    /// but re-uploads bump the version).
    zonemap_cache: Mutex<HashMap<String, CachedZoneMaps>>,
    /// Time column per physical table, so the hot path doesn't re-parse the
    /// schema JSON just to classify time-level prunes.
    time_column_cache: Mutex<HashMap<String, Option<String>>>,
    /// Monotonic per-broker query sequence; mixed with `query_seed` into
    /// the deterministic query ids (separate from `rng` so id assignment
    /// never perturbs routing-table selection).
    query_seq: std::sync::atomic::AtomicU64,
    /// Per-broker seed for query-id generation.
    query_seed: u64,
    /// Per-server streaming latency estimates (observed scatter-reply wall
    /// clock) feeding the hedged-scatter delay.
    latency: LatencyDigest,
    admission: Arc<AdmissionController>,
}

/// One segment's published zone maps, pinned to the metastore version of
/// the metadata they were parsed from, plus its doc count.
struct CachedZoneMaps {
    version: u64,
    zone_maps: Arc<ZoneMapStats>,
    num_docs: u64,
}

/// Segments the broker excluded before scatter — partition routing plus
/// zone-map pruning — folded into the response stats so
/// `num_segments_queried == num_segments_processed + num_segments_pruned`
/// holds end to end.
#[derive(Default)]
struct BrokerSkips {
    /// Broker zone-map exclusions (`prune_plan`).
    segments: u64,
    docs: u64,
    /// Partition-routing exclusions.
    partition_segments: u64,
    partition_docs: u64,
}

impl BrokerSkips {
    fn apply(&self, stats: &mut ExecutionStats) {
        stats.num_segments_queried += self.segments + self.partition_segments;
        stats.num_segments_pruned += self.segments + self.partition_segments;
        stats.total_docs += self.docs + self.partition_docs;
    }

    /// Summary profile nodes attributing the broker-level skips, one per
    /// prune level so the attribution survives into the merged profile.
    fn profile_nodes(&self) -> Vec<ProfileNode> {
        let mut out = Vec::new();
        for (prune, segments, docs) in [
            ("partition", self.partition_segments, self.partition_docs),
            ("broker", self.segments, self.docs),
        ] {
            if segments > 0 {
                let mut n = ProfileNode::summary("segments_summary");
                n.prune = Some(prune);
                n.segments = segments;
                n.docs_in = docs;
                out.push(n);
            }
        }
        out
    }
}

impl Broker {
    pub fn new(n: usize, cluster: ClusterManager) -> Arc<Broker> {
        Broker::with_obs(n, cluster, Obs::shared(), Arc::default())
    }

    /// Like [`Broker::new`] but sharing a cluster-wide observability sink
    /// and engine configuration.
    pub fn with_obs(
        n: usize,
        cluster: ClusterManager,
        obs: Arc<Obs>,
        config: Arc<EngineConfig>,
    ) -> Arc<Broker> {
        let dirty: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
        let dirty_sub = Arc::clone(&dirty);
        cluster.subscribe_view(move |change| {
            dirty_sub.lock().insert(change.table.clone());
        });
        Arc::new(Broker {
            id: InstanceId::broker(n),
            cluster,
            executors: RwLock::new(HashMap::new()),
            routing_cache: Mutex::new(HashMap::new()),
            config_cache: Mutex::new(HashMap::new()),
            dirty,
            rng: Mutex::new(StdRng::seed_from_u64(0x9e3779b97f4a7c15 ^ n as u64)),
            pool: Arc::new(TaskPool::with_threads(
                config.taskpool_threads,
                Some(Arc::clone(&obs)),
            )),
            config,
            obs,
            retry: RetryPolicy::default().with_seed(n as u64),
            zonemap_cache: Mutex::new(HashMap::new()),
            time_column_cache: Mutex::new(HashMap::new()),
            query_seq: std::sync::atomic::AtomicU64::new(0),
            query_seed: 0x9e3779b97f4a7c15 ^ (n as u64).rotate_left(32),
            latency: LatencyDigest::new(HEDGE_LATENCY_WINDOW, HEDGE_MIN_SAMPLES),
            admission: Arc::new(AdmissionController::default()),
        })
    }

    /// Next deterministic query id: splitmix64 over (per-broker seed,
    /// sequence number). Never 0 — stats reserve 0 for "no id".
    fn next_query_id(&self) -> u64 {
        let n = self
            .query_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        let mut z = self
            .query_seed
            .wrapping_add(n.wrapping_mul(0x9e3779b97f4a7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)).max(1)
    }

    /// Tighten or relax the per-tenant concurrency / wait-queue limits.
    pub fn set_admission_limits(&self, limits: AdmissionLimits) {
        self.admission.set_limits(limits);
    }

    pub fn task_pool(&self) -> Arc<TaskPool> {
        Arc::clone(&self.pool)
    }

    pub fn id(&self) -> &InstanceId {
        &self.id
    }

    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Register the service endpoint for a server instance.
    pub fn register_server(&self, id: InstanceId, svc: Arc<dyn SegmentQueryService>) {
        self.executors.write().insert(id, svc);
    }

    // ---- client entry point ----

    /// Execute a PQL query (§3.3.3). Each broker phase feeds its
    /// `broker.phase.*_ms` histogram as it ends, and the finished query is
    /// offered to the slow/partial query log.
    pub fn execute(&self, request: &QueryRequest) -> QueryResponse {
        let started = Instant::now();
        let deadline = started + Duration::from_millis(request.timeout_ms);
        let ctx = QueryCtx {
            query_id: self.next_query_id(),
            profile: request.profile,
            analyze: request.analyze,
        };
        let mut phases = PhaseNanos::default();
        let mut response = match self.execute_inner(request, ctx, deadline, &mut phases) {
            Ok(resp) => resp,
            Err(e) => {
                self.obs.metrics.counter_add("broker.query.failed", 1);
                QueryResponse {
                    result: pinot_common::query::QueryResult::Aggregation(Vec::new()),
                    stats: ExecutionStats::default(),
                    partial: true,
                    exceptions: vec![e.to_string()],
                    profile: None,
                }
            }
        };
        let elapsed = started.elapsed();
        response.stats.query_id = ctx.query_id;
        response.stats.time_used_ms = elapsed.as_millis() as u64;

        let m = &self.obs.metrics;
        m.observe_ms("broker.query.total_ms", elapsed.as_secs_f64() * 1e3);
        m.counter_add("broker.query.total", 1);
        if response.partial {
            m.counter_add("broker.query.partial", 1);
        }

        if self.obs.query_log.would_keep(
            response.stats.time_used_ms,
            response.partial,
            response.exceptions.len(),
        ) {
            // An unprofiled query still logs where the broker's time went:
            // a `broker` root holding only the phase nodes.
            let profile = if ctx.profile {
                response.profile.clone()
            } else {
                let mut root = ProfileNode::named("broker", self.id.to_string());
                root.elapsed_ns = elapsed.as_nanos() as u64;
                root.children.extend(phase_nodes(&[
                    ("parse", phases.parse),
                    ("route", phases.route),
                    ("scatter", phases.scatter),
                    ("gather", phases.gather),
                    ("merge", phases.merge),
                ]));
                Some(QueryProfile {
                    query_id: ctx.query_id,
                    root,
                })
            };
            self.obs.query_log.observe(QueryLogEntry {
                query: request.pql.clone(),
                query_id: ctx.query_id,
                time_used_ms: response.stats.time_used_ms,
                partial: response.partial,
                exception_count: response.exceptions.len(),
                profile,
            });
        }
        response
    }

    /// Run one broker phase, observe its `broker.phase.*_ms` histogram
    /// `name`, add its wall time in nanoseconds to `total`, and return that
    /// time beside the phase's output.
    fn timed<T>(&self, name: &'static str, total: &mut u64, f: impl FnOnce() -> T) -> (T, u64) {
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        let ms = elapsed.as_secs_f64() * 1e3;
        self.obs.metrics.observe_ms(name, ms);
        let ns = elapsed.as_nanos() as u64;
        *total += ns;
        (out, ns)
    }

    /// Record one server reply's broker-observed wall time: it feeds the
    /// hedge-delay estimate, the `broker.phase.server_execute_ms`
    /// histogram, and the profile's per-server `network` split.
    fn observe_reply(
        &self,
        server: &InstanceId,
        wall: Duration,
        server_wall_ns: &mut HashMap<String, u64>,
    ) {
        let server = server.to_string();
        let ms = wall.as_secs_f64() * 1e3;
        self.latency.observe(&server, ms);
        self.obs
            .metrics
            .observe_ms("broker.phase.server_execute_ms", ms);
        server_wall_ns.insert(server, wall.as_nanos() as u64);
    }

    fn execute_inner(
        &self,
        request: &QueryRequest,
        ctx: QueryCtx,
        deadline: Instant,
        phases: &mut PhaseNanos,
    ) -> Result<QueryResponse> {
        let (parsed, _) = self.timed("broker.phase.parse_ms", &mut phases.parse, || {
            pinot_pql::parse(&request.pql)
        });
        let query = Arc::new(parsed?);
        let tenant = request.tenant.clone().unwrap_or_else(|| {
            self.table_config_any(&query.table)
                .map(|c| c.tenant)
                .unwrap_or_else(|_| "DefaultTenant".to_string())
        });

        // Resolve the physical tables behind the logical name. A fully
        // qualified name targets that one physical table; otherwise the
        // logical name maps to OFFLINE, REALTIME, or both (hybrid).
        let tables = self.cluster.tables();
        let physical: Vec<String> = if tables.contains(&query.table) {
            vec![query.table.clone()]
        } else {
            let mut v = Vec::new();
            for candidate in [
                format!("{}_OFFLINE", query.table),
                format!("{}_REALTIME", query.table),
            ] {
                if tables.contains(&candidate) {
                    v.push(candidate);
                }
            }
            if v.is_empty() {
                return Err(PinotError::Metadata(format!(
                    "unknown table {:?}",
                    query.table
                )));
            }
            v
        };

        // One admission slot per logical query, held across both sides
        // of a hybrid query.
        let _permit = self
            .admission
            .admit(&tenant, deadline, || {
                self.obs.metrics.counter_add("broker.admission_queued", 1);
            })
            .inspect_err(|_| {
                self.obs.metrics.counter_add("broker.admission_shed", 1);
            })?;
        match physical.as_slice() {
            [table] => self.execute_physical(table, &query, &tenant, ctx, deadline, None, phases),
            [offline, realtime] => {
                self.execute_hybrid(offline, realtime, &query, &tenant, ctx, deadline, phases)
            }
            _ => Err(PinotError::Internal(format!(
                "unexpected physical resolution {physical:?}"
            ))),
        }
    }

    /// Hybrid rewrite (Figure 6): offline serves `time < boundary`,
    /// realtime serves `time >= boundary`.
    #[allow(clippy::too_many_arguments)]
    fn execute_hybrid(
        &self,
        offline: &str,
        realtime: &str,
        query: &Arc<Query>,
        tenant: &str,
        ctx: QueryCtx,
        deadline: Instant,
        phases: &mut PhaseNanos,
    ) -> Result<QueryResponse> {
        let time_column = self
            .table_time_column(offline)?
            .ok_or_else(|| PinotError::Metadata(format!("{offline} has no time column")))?;
        let boundary = self.offline_time_boundary(offline);

        let (offline_query, realtime_query) = match boundary {
            None => (None, Some(Arc::clone(query))), // no offline data yet
            Some(b) => {
                let off = add_conjunct(
                    query,
                    Predicate::Cmp {
                        column: time_column.clone(),
                        op: CmpOp::Lt,
                        value: Value::Long(b),
                    },
                );
                let rt = add_conjunct(
                    query,
                    Predicate::Cmp {
                        column: time_column.clone(),
                        op: CmpOp::Ge,
                        value: Value::Long(b),
                    },
                );
                (Some(Arc::new(off)), Some(Arc::new(rt)))
            }
        };

        let mut responses = Vec::new();
        for (table, side) in [(offline, offline_query), (realtime, realtime_query)] {
            let Some(q) = side else { continue };
            let r = self.execute_physical(table, &q, tenant, ctx, deadline, Some(query), phases)?;
            responses.push(r);
        }
        // Merge the per-side responses.
        let mut iter = responses.into_iter();
        let mut first = iter.next().expect("at least one side");
        for other in iter {
            first.partial |= other.partial;
            first.exceptions.extend(other.exceptions);
            first.stats.merge(&other.stats);
            // Fold the realtime side's broker tree into the offline side's:
            // one cluster-wide profile per logical query.
            first.profile = match (first.profile.take(), other.profile) {
                (Some(mut a), Some(b)) => {
                    a.root.fold(&b.root);
                    Some(a)
                }
                (a, b) => a.or(b),
            };
            first.result = merge_results(first.result, other.result, query)?;
        }
        Ok(first)
    }

    /// Scatter a query over one physical table and gather (§3.3.3).
    /// `finalize_as` lets hybrid execution finalize with the original query.
    #[allow(clippy::too_many_arguments)]
    fn execute_physical(
        &self,
        table: &str,
        query: &Arc<Query>,
        tenant: &str,
        ctx: QueryCtx,
        deadline: Instant,
        finalize_as: Option<&Arc<Query>>,
        phases: &mut PhaseNanos,
    ) -> Result<QueryResponse> {
        let phys_started = Instant::now();
        let (routed, _) = self.timed("broker.phase.route_ms", &mut phases.route, || {
            self.route(table, query)
        });
        let (plan, partition_skipped) = routed?;
        let replicas = self.segment_replicas(table);

        // Broker-level pruning: partition-routing exclusions become visible
        // in the stats, and table-level zone maps (from segment metadata in
        // the metastore) drop segments — and whole servers — that cannot
        // match the filter before any RPC is issued.
        let mut skips = BrokerSkips::default();
        if !partition_skipped.is_empty() {
            self.obs
                .metrics
                .counter_add("prune.partition_segments", partition_skipped.len() as u64);
            for seg in &partition_skipped {
                skips.partition_segments += 1;
                skips.partition_docs += self
                    .segment_zone_maps(table, seg)
                    .map(|(_, docs)| docs)
                    .unwrap_or(0);
            }
        }
        let plan = self.prune_plan(table, query, plan, &mut skips);

        let num_servers = plan.len() as u64;
        self.obs
            .metrics
            .observe_ms("broker.routing.fanout", num_servers as f64);

        // Fast path: a single-server plan (partition-aware routing's whole
        // point, §4.4) runs inline — no scatter thread, no channel. This is
        // what keeps the partitioned latency curve flat as QPS grows.
        if plan.len() == 1 {
            self.obs
                .metrics
                .counter_add("broker.routing.single_server_fastpath", 1);
            let (server, segments) = plan.into_iter().next().expect("len checked");
            let req = RoutedRequest {
                table: table.to_string(),
                query: Arc::clone(query),
                segments: segments.clone(),
                tenant: tenant.to_string(),
                deadline: Some(deadline),
                query_id: ctx.query_id,
                profile: ctx.profile,
                analyze: ctx.analyze,
            };
            let final_query = finalize_as.unwrap_or(query);
            let mut acc = IntermediateResult::empty_for(final_query);
            let mut exceptions = Vec::new();
            let mut server_wall_ns: HashMap<String, u64> = HashMap::new();
            let svc = self.executors.read().get(&server).cloned();
            let call_started = Instant::now();
            let outcome = match svc {
                Some(svc) => guarded_execute(&*svc, &req),
                None => Err(PinotError::Cluster(format!("no endpoint for {server}"))),
            };
            let mut responded = 0u64;
            match outcome {
                Ok(partial) => {
                    responded = 1;
                    self.observe_reply(&server, call_started.elapsed(), &mut server_wall_ns);
                    acc.stats.per_server.push(ServerContribution {
                        server: server.to_string(),
                        responded: true,
                        segments_processed: partial.stats.num_segments_processed,
                        docs_scanned: partial.stats.num_docs_scanned,
                        time_ms: partial.stats.time_used_ms,
                        covered_by: Vec::new(),
                    });
                    merge_intermediate(&mut acc, partial)?;
                }
                Err(e) => {
                    let mut failed: HashSet<InstanceId> = HashSet::new();
                    failed.insert(server.clone());
                    self.handle_server_failure(
                        table,
                        query,
                        tenant,
                        ctx,
                        deadline,
                        &server,
                        e,
                        &segments,
                        &replicas,
                        &mut failed,
                        &mut acc,
                        &mut exceptions,
                    )?;
                }
            }
            acc.stats.num_servers_queried = 1;
            acc.stats.num_servers_responded = responded;
            skips.apply(&mut acc.stats);
            coalesce_per_server(&mut acc.stats.per_server);
            let partial = !exceptions.is_empty();
            let profile_nodes = acc.profile.take();
            let stats = acc.stats.clone();
            let (result, merge_ns) = self.timed("broker.phase.merge_ms", &mut phases.merge, || {
                finalize(acc, final_query)
            });
            let result = result?;
            let profile = ctx.profile.then(|| {
                self.broker_profile(
                    ctx,
                    profile_nodes,
                    &skips,
                    &stats,
                    &server_wall_ns,
                    phys_started.elapsed().as_nanos() as u64,
                    &[("merge", merge_ns)],
                )
            });
            return Ok(QueryResponse {
                result,
                stats,
                partial,
                exceptions,
                profile,
            });
        }

        // Scatter: one worker per server; results stream into a channel
        // along with the segment list each server was responsible for, so
        // a failure can be re-routed to surviving replicas. Capacity fits
        // every primary plus a potential hedge per slice, so no worker
        // ever blocks on send.
        let (tx, rx) = bounded::<ScatterReply>(plan.len().max(1) * 2);
        let mut pending: BTreeMap<InstanceId, PendingSlice> = BTreeMap::new();
        let scatter_started = Instant::now();
        let ((), scatter_ns) = self.timed("broker.phase.scatter_ms", &mut phases.scatter, || {
            for (server, segments) in plan {
                pending.insert(
                    server.clone(),
                    PendingSlice {
                        segments: segments.clone(),
                        hedged: false,
                    },
                );
                let Some(svc) = self.executors.read().get(&server).cloned() else {
                    // Routing raced with a server death; report it as a failure.
                    let _ = tx.send(ScatterReply {
                        origin: server.clone(),
                        actual: server.clone(),
                        segments,
                        result: Err(PinotError::Cluster(format!("no endpoint for {server}"))),
                    });
                    continue;
                };
                let req = RoutedRequest {
                    table: table.to_string(),
                    query: Arc::clone(query),
                    segments: segments.clone(),
                    tenant: tenant.to_string(),
                    deadline: Some(deadline),
                    query_id: ctx.query_id,
                    profile: ctx.profile,
                    analyze: ctx.analyze,
                };
                let tx = tx.clone();
                let server_id = server.clone();
                let task_deadline = pinot_taskpool::Deadline::at(Some(deadline));
                self.pool
                    .spawn_detached_with_deadline(&task_deadline, move || {
                        let result = guarded_execute(&*svc, &req);
                        // Past the scatter deadline the receiver is gone and
                        // this send is a harmless no-op; the late partial is
                        // dropped rather than written into freed state.
                        let _ = tx.send(ScatterReply {
                            origin: server_id.clone(),
                            actual: server_id,
                            segments,
                            result,
                        });
                    });
            }
        });
        // When hedging can fire we keep one sender until hedges are issued
        // (they need it); without it the channel disconnects as soon as all
        // primaries finish, exactly as before hedging existed.
        let hedge_at: Option<Instant> = if self.config.hedge && !pending.is_empty() {
            self.latency.healthy_quantile(0.99).map(|p99| {
                scatter_started
                    + Duration::from_secs_f64((p99 * HEDGE_DELAY_FACTOR).max(HEDGE_FLOOR_MS) / 1e3)
            })
        } else {
            None
        };
        let mut hedge_tx = hedge_at.map(|_| tx.clone());
        drop(tx);

        // Gather until every slice is answered or the deadline passes.
        // Failed servers are recovered inline via surviving replicas while
        // the remaining workers keep running; slices still outstanding at
        // their hedge time are speculatively re-issued to a replica, and
        // the first answer per slice wins.
        let final_query = finalize_as.unwrap_or(query);
        let mut acc = IntermediateResult::empty_for(final_query);
        let mut exceptions = Vec::new();
        let mut responded = 0u64;
        let mut hedges_issued = 0u64;
        let mut hedges_won = 0u64;
        let mut failed: HashSet<InstanceId> = HashSet::new();
        let mut server_wall_ns: HashMap<String, u64> = HashMap::new();
        let (gather, gather_ns) = self.timed("broker.phase.gather_ms", &mut phases.gather, || {
            while !pending.is_empty() {
                let now = Instant::now();
                if now >= deadline {
                    self.obs.metrics.counter_add("broker.scatter.timeout", 1);
                    exceptions.push(format!(
                        "timeout waiting for {} server response(s)",
                        pending.len()
                    ));
                    break;
                }
                // Hedge time: every still-pending slice gets one chance at
                // a replica re-issue (first answer per slice wins).
                if let (Some(h), Some(htx)) = (hedge_at, &hedge_tx) {
                    if now >= h {
                        let task_deadline = pinot_taskpool::Deadline::at(Some(deadline));
                        for (origin, slice) in pending.iter_mut() {
                            slice.hedged = true;
                            let Some(target) =
                                self.hedge_target(origin, &slice.segments, &replicas, &failed)
                            else {
                                continue;
                            };
                            let Some(svc) = self.executors.read().get(&target).cloned() else {
                                continue;
                            };
                            hedges_issued += 1;
                            self.obs.metrics.counter_add("broker.hedge_issued", 1);
                            let req = RoutedRequest {
                                table: table.to_string(),
                                query: Arc::clone(query),
                                segments: slice.segments.clone(),
                                tenant: tenant.to_string(),
                                deadline: Some(deadline),
                                query_id: ctx.query_id,
                                profile: ctx.profile,
                                analyze: ctx.analyze,
                            };
                            let tx = htx.clone();
                            let origin = origin.clone();
                            let segments = slice.segments.clone();
                            self.pool
                                .spawn_detached_with_deadline(&task_deadline, move || {
                                    let result = guarded_execute(&*svc, &req);
                                    let _ = tx.send(ScatterReply {
                                        origin,
                                        actual: target,
                                        segments,
                                        result,
                                    });
                                });
                        }
                        hedge_tx = None;
                    }
                }
                let wake = match (hedge_at, &hedge_tx) {
                    (Some(h), Some(_)) if h < deadline => h.max(now),
                    _ => deadline,
                };
                match rx.recv_timeout(wake.saturating_duration_since(now)) {
                    Ok(reply) => {
                        let is_hedge = reply.actual != reply.origin;
                        if !pending.contains_key(&reply.origin) {
                            // The slice was already answered by the other
                            // contender — this is the discarded loser. It
                            // must not touch acc/stats (satellite: no
                            // double-counting at gather).
                            if reply.result.is_ok() {
                                self.obs.metrics.counter_add("broker.hedge_wasted", 1);
                            }
                            continue;
                        }
                        match reply.result {
                            Ok(partial) => {
                                pending.remove(&reply.origin);
                                responded += 1;
                                self.observe_reply(
                                    &reply.actual,
                                    scatter_started.elapsed(),
                                    &mut server_wall_ns,
                                );
                                if is_hedge {
                                    hedges_won += 1;
                                    self.obs.metrics.counter_add("broker.hedge_won", 1);
                                    // The straggler shows up as not having
                                    // responded, covered by the hedge target
                                    // — same shape failover uses.
                                    acc.stats.per_server.push(ServerContribution {
                                        server: reply.origin.to_string(),
                                        responded: false,
                                        covered_by: vec![reply.actual.to_string()],
                                        ..Default::default()
                                    });
                                }
                                acc.stats.per_server.push(ServerContribution {
                                    server: reply.actual.to_string(),
                                    responded: true,
                                    segments_processed: partial.stats.num_segments_processed,
                                    docs_scanned: partial.stats.num_docs_scanned,
                                    time_ms: partial.stats.time_used_ms,
                                    covered_by: Vec::new(),
                                });
                                merge_intermediate(&mut acc, partial)?;
                            }
                            Err(e) => {
                                if is_hedge {
                                    // A failed hedge never fails the slice:
                                    // the primary is still running and may
                                    // yet answer (or time out as before).
                                    continue;
                                }
                                pending.remove(&reply.origin);
                                failed.insert(reply.origin.clone());
                                self.handle_server_failure(
                                    table,
                                    query,
                                    tenant,
                                    ctx,
                                    deadline,
                                    &reply.origin,
                                    e,
                                    &reply.segments,
                                    &replicas,
                                    &mut failed,
                                    &mut acc,
                                    &mut exceptions,
                                )?;
                            }
                        }
                    }
                    // Woke at the hedge time (or a spurious early return):
                    // loop back to issue hedges / re-check the deadline.
                    Err(RecvTimeoutError::Timeout) => continue,
                    // Disconnected with replies still outstanding means the
                    // remaining scatter workers were abandoned past the
                    // deadline (their queued tasks dropped the sender) —
                    // the same scatter timeout as the deadline arm.
                    Err(RecvTimeoutError::Disconnected) => {
                        self.obs.metrics.counter_add("broker.scatter.timeout", 1);
                        exceptions.push(format!(
                            "timeout waiting for {} server response(s)",
                            pending.len()
                        ));
                        break;
                    }
                }
            }
            Ok::<(), PinotError>(())
        });
        gather?;
        // Servers that never answered before the deadline: record them so a
        // partial response says exactly which servers' data is missing.
        for server in pending.keys() {
            acc.stats.per_server.push(ServerContribution {
                server: server.to_string(),
                ..Default::default()
            });
        }
        acc.stats.hedges_issued = hedges_issued;
        acc.stats.hedges_won = hedges_won;

        acc.stats.num_servers_queried = num_servers;
        acc.stats.num_servers_responded = responded;
        skips.apply(&mut acc.stats);
        coalesce_per_server(&mut acc.stats.per_server);
        let partial = !exceptions.is_empty();
        let profile_nodes = acc.profile.take();
        let stats = acc.stats.clone();
        let (result, merge_ns) = self.timed("broker.phase.merge_ms", &mut phases.merge, || {
            finalize(acc, final_query)
        });
        let result = result?;
        let profile = ctx.profile.then(|| {
            self.broker_profile(
                ctx,
                profile_nodes,
                &skips,
                &stats,
                &server_wall_ns,
                phys_started.elapsed().as_nanos() as u64,
                &[
                    ("scatter", scatter_ns),
                    ("gather", gather_ns),
                    ("merge", merge_ns),
                ],
            )
        });
        Ok(QueryResponse {
            result,
            stats,
            partial,
            exceptions,
            profile,
        })
    }

    /// Assemble the cluster-wide profile root for one physical-table
    /// scatter: this side's phase timings, a per-server
    /// network+queue breakdown (broker-observed wall clock minus the
    /// server's own reported time), broker-level prune summaries, and the
    /// servers' trees underneath.
    #[allow(clippy::too_many_arguments)]
    fn broker_profile(
        &self,
        ctx: QueryCtx,
        profile: Option<ProfileNode>,
        skips: &BrokerSkips,
        stats: &ExecutionStats,
        server_wall_ns: &HashMap<String, u64>,
        elapsed_ns: u64,
        phases: &[(&'static str, u64)],
    ) -> QueryProfile {
        let mut root = ProfileNode::named("broker", self.id.to_string());
        root.docs_in = stats.total_docs;
        root.docs_out = stats.num_docs_scanned;
        root.elapsed_ns = elapsed_ns;
        root.children.extend(phase_nodes(phases));
        root.children.extend(skips.profile_nodes());
        if stats.hedges_issued > 0 {
            root.children.push(ProfileNode::named(
                "hedge",
                format!("issued={} won={}", stats.hedges_issued, stats.hedges_won),
            ));
        }
        for server in collected_profiles(profile) {
            if let Some(wall) = server.name.as_deref().and_then(|n| server_wall_ns.get(n)) {
                let mut net =
                    ProfileNode::named("network", server.name.clone().unwrap_or_default());
                net.elapsed_ns = wall.saturating_sub(server.elapsed_ns);
                root.children.push(net);
            }
            root.children.push(server);
        }
        QueryProfile {
            query_id: ctx.query_id,
            root,
        }
    }

    /// Deterministic hedge target for a straggling server's slice: the
    /// first (sorted) live registered replica, other than the origin, that
    /// holds *every* segment of the slice — a hedge re-issues the exact
    /// slice, so a partial holder cannot serve it.
    fn hedge_target(
        &self,
        origin: &InstanceId,
        segments: &[String],
        replicas: &SegmentReplicas,
        failed: &HashSet<InstanceId>,
    ) -> Option<InstanceId> {
        let mut candidates: Option<BTreeSet<InstanceId>> = None;
        for seg in segments {
            let holders: BTreeSet<InstanceId> = replicas.get(seg)?.iter().cloned().collect();
            candidates = Some(match candidates {
                None => holders,
                Some(c) => c.intersection(&holders).cloned().collect(),
            });
        }
        let executors = self.executors.read();
        candidates?
            .into_iter()
            .find(|c| c != origin && !failed.contains(c) && executors.contains_key(c))
    }

    /// One routed server failed. If the error is transient, re-route its
    /// segment list to surviving replicas (deadline permitting); only what
    /// no replica can serve becomes an exception — naming the failed
    /// server — and makes the response partial (§3.3.3 step 7, upgraded
    /// from "any failure is partial" to "only unrecoverable loss is").
    #[allow(clippy::too_many_arguments)]
    fn handle_server_failure(
        &self,
        table: &str,
        query: &Arc<Query>,
        tenant: &str,
        ctx: QueryCtx,
        deadline: Instant,
        server: &InstanceId,
        error: PinotError,
        segments: &[String],
        replicas: &SegmentReplicas,
        failed: &mut HashSet<InstanceId>,
        acc: &mut IntermediateResult,
        exceptions: &mut Vec<String>,
    ) -> Result<()> {
        let outcome = if error.is_retriable() && !segments.is_empty() {
            self.failover_recover(
                table, query, tenant, ctx, deadline, segments, replicas, failed, acc,
            )?
        } else {
            FailoverOutcome {
                covered_by: Vec::new(),
                lost: segments.to_vec(),
            }
        };
        if outcome.lost.is_empty() && !segments.is_empty() {
            self.obs
                .metrics
                .counter_add("broker.scatter.failover_success", 1);
        } else {
            exceptions.push(format!(
                "{server}: {error} ({} of {} segment(s) unrecoverable)",
                outcome.lost.len(),
                segments.len().max(1)
            ));
        }
        acc.stats.per_server.push(ServerContribution {
            server: server.to_string(),
            responded: false,
            covered_by: outcome.covered_by,
            ..Default::default()
        });
        Ok(())
    }

    /// Re-route `segments` to surviving replicas with deadline-budgeted
    /// backoff. Recovered results merge into `acc` (with per-server
    /// contributions for the covering replicas); returns who covered and
    /// which segments no live replica could serve. Replicas that fail
    /// during recovery join `failed` so later failovers skip them too.
    #[allow(clippy::too_many_arguments)]
    fn failover_recover(
        &self,
        table: &str,
        query: &Arc<Query>,
        tenant: &str,
        ctx: QueryCtx,
        deadline: Instant,
        segments: &[String],
        replicas: &SegmentReplicas,
        failed: &mut HashSet<InstanceId>,
        acc: &mut IntermediateResult,
    ) -> Result<FailoverOutcome> {
        let mut remaining: Vec<String> = segments.to_vec();
        let mut covered_by: Vec<String> = Vec::new();
        for attempt in 1..=self.retry.max_attempts {
            // Group what's left by the first surviving replica of each
            // segment (replica lists are sorted, so this is deterministic).
            let mut by_server: BTreeMap<InstanceId, Vec<String>> = BTreeMap::new();
            let mut lost: Vec<String> = Vec::new();
            for seg in &remaining {
                let survivor = replicas
                    .get(seg)
                    .and_then(|rs| rs.iter().find(|r| !failed.contains(*r)));
                match survivor {
                    Some(r) => by_server.entry(r.clone()).or_default().push(seg.clone()),
                    None => lost.push(seg.clone()),
                }
            }
            if by_server.is_empty() {
                return Ok(FailoverOutcome {
                    covered_by,
                    lost: remaining,
                });
            }
            // The backoff must fit in what's left of the query's deadline;
            // if it doesn't, the un-recovered segments are lost.
            let delay = Duration::from_millis(self.retry.delay_ms(attempt));
            if Instant::now() + delay >= deadline {
                return Ok(FailoverOutcome {
                    covered_by,
                    lost: remaining,
                });
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            self.obs.metrics.counter_add("broker.scatter.retry", 1);
            for (replica, segs) in by_server {
                let svc = self.executors.read().get(&replica).cloned();
                let Some(svc) = svc else {
                    failed.insert(replica);
                    continue;
                };
                let req = RoutedRequest {
                    table: table.to_string(),
                    query: Arc::clone(query),
                    segments: segs.clone(),
                    tenant: tenant.to_string(),
                    deadline: Some(deadline),
                    query_id: ctx.query_id,
                    profile: ctx.profile,
                    analyze: ctx.analyze,
                };
                match guarded_execute(&*svc, &req) {
                    Ok(partial) => {
                        acc.stats.per_server.push(ServerContribution {
                            server: replica.to_string(),
                            responded: true,
                            segments_processed: partial.stats.num_segments_processed,
                            docs_scanned: partial.stats.num_docs_scanned,
                            time_ms: partial.stats.time_used_ms,
                            covered_by: Vec::new(),
                        });
                        merge_intermediate(acc, partial)?;
                        covered_by.push(replica.to_string());
                        remaining.retain(|s| !segs.contains(s));
                    }
                    Err(_) => {
                        // The replica is down too; exclude it and let the
                        // next attempt re-group onto whoever is left.
                        failed.insert(replica);
                    }
                }
            }
            if remaining.is_empty() {
                return Ok(FailoverOutcome {
                    covered_by,
                    lost: Vec::new(),
                });
            }
        }
        Ok(FailoverOutcome {
            covered_by,
            lost: remaining,
        })
    }

    // ---- routing ----

    /// Build the per-server segment assignment for one query.
    /// Pick a routing table for the query. The second element names the
    /// segments partition-aware routing excluded, so the caller can fold
    /// them into the response stats as pruned rather than dropping them
    /// invisibly.
    fn route(&self, table: &str, query: &Query) -> Result<(RoutingTable, Vec<String>)> {
        let config = self.table_config_physical(table)?;
        self.refresh_routing_if_dirty(table, &config)?;

        let cache = self.routing_cache.lock();
        let cached = cache
            .get(table)
            .ok_or_else(|| PinotError::Cluster(format!("no routing for {table}")))?;

        // Partition-aware path: equality/IN filter on the partition column
        // restricts to the matching partitions' segments (§4.4).
        if let Some(pidx) = &cached.partitions {
            if let Some(values) = partition_filter_values(query.filter.as_ref(), &pidx.column) {
                self.obs
                    .metrics
                    .counter_add("broker.routing.partition_routed", 1);
                let mut replicas = SegmentReplicas::new();
                for v in values {
                    let p = pinot_common::partition::partition_for_value(&v, pidx.num_partitions);
                    if let Some(segs) = pidx.by_partition.get(&p) {
                        for (seg, servers) in segs {
                            replicas.insert(seg.clone(), servers.clone());
                        }
                    }
                }
                let skipped: Vec<String> = cached
                    .replicas
                    .keys()
                    .filter(|seg| !replicas.contains_key(*seg))
                    .cloned()
                    .collect();
                return Ok((routing::generate_balanced(&replicas), skipped));
            }
        }

        if cached.tables.is_empty() {
            return Ok((RoutingTable::new(), Vec::new()));
        }
        let idx = self.rng.lock().gen_range(0..cached.tables.len());
        Ok((cached.tables[idx].clone(), Vec::new()))
    }

    fn refresh_routing_if_dirty(&self, table: &str, config: &TableConfig) -> Result<()> {
        let needs = {
            let mut dirty = self.dirty.lock();
            let was_dirty = dirty.remove(table);
            was_dirty || !self.routing_cache.lock().contains_key(table)
        };
        if !needs {
            return Ok(());
        }
        self.obs.metrics.counter_add("broker.routing.refresh", 1);
        let view = self.cluster.routable_view(table);
        let replicas = routing::invert_view(&view);

        let tables = match &config.routing {
            RoutingStrategy::Balanced | RoutingStrategy::Partitioned { .. } => {
                vec![routing::generate_balanced(&replicas)]
            }
            RoutingStrategy::LargeCluster {
                target_servers,
                routing_table_count,
                generation_count,
            } => {
                let mut rng = self.rng.lock();
                routing::filter_routing_tables(
                    &replicas,
                    *target_servers,
                    *routing_table_count,
                    *generation_count,
                    &mut *rng,
                )
            }
        };

        let partitions = match &config.routing {
            RoutingStrategy::Partitioned {
                column,
                num_partitions,
            } => Some(self.build_partition_index(table, column, *num_partitions, &replicas)),
            _ => None,
        };

        self.routing_cache.lock().insert(
            table.to_string(),
            CachedRouting {
                tables,
                replicas: Arc::new(replicas),
                partitions,
            },
        );
        Ok(())
    }

    /// The replica placement the routing cache was built from — who else
    /// can serve each segment when its routed server fails.
    fn segment_replicas(&self, table: &str) -> Arc<SegmentReplicas> {
        self.routing_cache
            .lock()
            .get(table)
            .map(|c| Arc::clone(&c.replicas))
            .unwrap_or_default()
    }

    fn build_partition_index(
        &self,
        table: &str,
        column: &str,
        num_partitions: u32,
        replicas: &SegmentReplicas,
    ) -> PartitionIndex {
        let mut by_partition: HashMap<u32, SegmentReplicas> = HashMap::new();
        for (seg, servers) in replicas {
            let partition = self.segment_partition(table, seg);
            match partition {
                Some(p) => {
                    by_partition
                        .entry(p)
                        .or_default()
                        .insert(seg.clone(), servers.clone());
                }
                None => {
                    // Unknown partition: conservatively include the segment
                    // in every partition's set so no data is missed.
                    for p in 0..num_partitions {
                        by_partition
                            .entry(p)
                            .or_default()
                            .insert(seg.clone(), servers.clone());
                    }
                }
            }
        }
        PartitionIndex {
            column: column.to_string(),
            num_partitions,
            by_partition,
        }
    }

    /// Partition id of a segment: realtime names encode it; otherwise the
    /// segment metadata in the metastore records it.
    fn segment_partition(&self, table: &str, segment: &str) -> Option<u32> {
        if let Some((p, _)) = SegmentName::from_raw(segment).realtime_parts() {
            return Some(p);
        }
        let (text, _) = self
            .cluster
            .metastore()
            .get(&format!("/segments/{table}/{segment}"))?;
        let json = Json::parse(&text).ok()?;
        json.get("partitionId")
            .and_then(Json::as_i64)
            .map(|v| v as u32)
    }

    // ---- broker-level zone-map pruning ----

    /// Drop segments whose metastore zone maps prove the filter cannot
    /// match, and with them any server whose entire share pruned away —
    /// fewer RPCs and a smaller gather. Segments without published zone
    /// maps (consuming, or written by an older controller) pass through
    /// untouched.
    fn prune_plan(
        &self,
        table: &str,
        query: &Query,
        plan: RoutingTable,
        skips: &mut BrokerSkips,
    ) -> RoutingTable {
        if query.filter.is_none() {
            return plan;
        }
        let time_column = self.time_column_cached(table);
        let evaluator = PruneEvaluator::new(time_column);
        let mut out = RoutingTable::new();
        let mut servers_skipped = 0u64;
        for (server, segments) in plan {
            let mut kept = Vec::with_capacity(segments.len());
            for seg in segments {
                let Some((zone_maps, docs)) = self.segment_zone_maps(table, &seg) else {
                    kept.push(seg);
                    continue;
                };
                let outcome = evaluator.evaluate(query.filter.as_ref(), zone_maps.as_ref());
                if outcome.prunable == Prunable::CannotMatch {
                    skips.segments += 1;
                    skips.docs += docs;
                    self.obs.metrics.counter_add("prune.broker_segments", 1);
                    if let Some(level) = outcome.level {
                        self.obs
                            .metrics
                            .counter_add(&format!("prune.{}_segments", level.as_str()), 1);
                    }
                } else {
                    kept.push(seg);
                }
            }
            if kept.is_empty() {
                servers_skipped += 1;
            } else {
                out.insert(server, kept);
            }
        }
        if servers_skipped > 0 {
            self.obs
                .metrics
                .counter_add("prune.broker_servers_skipped", servers_skipped);
        }
        out
    }

    /// Zone maps and doc count a segment's metastore metadata publishes
    /// (written by the controller at upload/commit). Cached by metastore
    /// version so the query hot path doesn't re-parse JSON.
    fn segment_zone_maps(&self, table: &str, segment: &str) -> Option<(Arc<ZoneMapStats>, u64)> {
        let path = format!("/segments/{table}/{segment}");
        let (text, version) = self.cluster.metastore().get(&path)?;
        {
            let cache = self.zonemap_cache.lock();
            if let Some(cached) = cache.get(&path) {
                if cached.version == version {
                    return Some((Arc::clone(&cached.zone_maps), cached.num_docs));
                }
            }
        }
        let json = Json::parse(&text).ok()?;
        let docs = json.get("numDocs").and_then(Json::as_i64).unwrap_or(0) as u64;
        let mut zone_maps = ZoneMapStats::default();
        if let Some(Json::Obj(columns)) = json.get("columns") {
            for (name, col) in columns {
                if let Some(range) = parse_zone_map(col) {
                    zone_maps.columns.insert(name.clone(), range);
                }
            }
        }
        let zone_maps = Arc::new(zone_maps);
        self.zonemap_cache.lock().insert(
            path,
            CachedZoneMaps {
                version,
                zone_maps: Arc::clone(&zone_maps),
                num_docs: docs,
            },
        );
        Some((zone_maps, docs))
    }

    fn time_column_cached(&self, table: &str) -> Option<String> {
        if let Some(cached) = self.time_column_cache.lock().get(table) {
            return cached.clone();
        }
        let time_column = self.table_time_column(table).ok().flatten();
        self.time_column_cache
            .lock()
            .insert(table.to_string(), time_column.clone());
        time_column
    }

    // ---- table metadata helpers ----

    fn table_config_physical(&self, qualified: &str) -> Result<TableConfig> {
        let (text, version) = self
            .cluster
            .metastore()
            .get(&format!("/configs/{qualified}"))
            .ok_or_else(|| PinotError::Metadata(format!("no config for {qualified}")))?;
        {
            let cache = self.config_cache.lock();
            if let Some((v, cfg)) = cache.get(qualified) {
                if *v == version {
                    return Ok(cfg.clone());
                }
            }
        }
        let cfg = TableConfig::from_json(&Json::parse(&text)?)?;
        self.config_cache
            .lock()
            .insert(qualified.to_string(), (version, cfg.clone()));
        Ok(cfg)
    }

    fn table_config_any(&self, logical: &str) -> Result<TableConfig> {
        self.table_config_physical(&format!("{logical}_OFFLINE"))
            .or_else(|_| self.table_config_physical(&format!("{logical}_REALTIME")))
            .or_else(|_| self.table_config_physical(logical))
    }

    fn table_time_column(&self, qualified: &str) -> Result<Option<String>> {
        let config = self.table_config_physical(qualified)?;
        let (text, _) = self
            .cluster
            .metastore()
            .get(&format!("/schemas/{}", config.name))
            .ok_or_else(|| PinotError::Metadata(format!("no schema for {}", config.name)))?;
        let schema = pinot_common::Schema::from_json(&Json::parse(&text)?)?;
        Ok(schema.time_column().map(|f| f.name.clone()))
    }

    /// The hybrid time boundary: the largest time value any offline segment
    /// covers (from segment metadata).
    fn offline_time_boundary(&self, offline_table: &str) -> Option<i64> {
        let ms = self.cluster.metastore();
        let mut max_time: Option<i64> = None;
        for seg in ms.children(&format!("/segments/{offline_table}")) {
            let Some((text, _)) = ms.get(&format!("/segments/{offline_table}/{seg}")) else {
                continue;
            };
            let Ok(json) = Json::parse(&text) else {
                continue;
            };
            if let Some(t) = json.get("maxTime").and_then(Json::as_i64) {
                max_time = Some(max_time.map_or(t, |m: i64| m.max(t)));
            }
        }
        max_time
    }

    /// Number of cached routing tables for a table (diagnostics/tests).
    pub fn num_routing_tables(&self, table: &str) -> usize {
        self.routing_cache
            .lock()
            .get(table)
            .map(|c| c.tables.len())
            .unwrap_or(0)
    }
}

/// Result of one failover attempt for a failed server's segment list.
/// Run a server call with panic capture. A panicking server maps to a
/// retriable I/O error so the normal failover path covers it, rather than
/// poisoning the scatter worker (or, pre-pool, silently killing the
/// scatter thread and leaving its slot forever pending).
/// Decode one column's zone map from segment metadata JSON — the inverse of
/// the controller's string encoding (bounds are strings because JSON
/// numbers are f64 and would corrupt i64 bounds past 2^53).
fn parse_zone_map(col: &Json) -> Option<ColumnRange> {
    let data_type = DataType::parse(col.get("type")?.as_str()?).ok()?;
    let single_value = col.get("sv")?.as_bool()?;
    let min = parse_zone_bound(col.get("min")?.as_str()?, data_type)?;
    let max = parse_zone_bound(col.get("max")?.as_str()?, data_type)?;
    Some(ColumnRange {
        data_type,
        min,
        max,
        single_value,
    })
}

fn parse_zone_bound(s: &str, data_type: DataType) -> Option<Value> {
    match data_type {
        DataType::Int => s.parse().ok().map(Value::Int),
        DataType::Long => s.parse().ok().map(Value::Long),
        DataType::Float => s.parse().ok().map(Value::Float),
        DataType::Double => s.parse().ok().map(Value::Double),
        DataType::String => Some(Value::String(s.to_string())),
        DataType::Boolean => s.parse().ok().map(Value::Boolean),
    }
}

fn guarded_execute(
    svc: &dyn SegmentQueryService,
    req: &RoutedRequest,
) -> Result<IntermediateResult> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.execute(req))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(PinotError::Io(format!("server task panicked: {msg}")))
        }
    }
}

struct FailoverOutcome {
    /// Replicas that successfully served part of the failed server's share.
    covered_by: Vec<String>,
    /// Segments no surviving replica could serve — genuinely missing data.
    lost: Vec<String>,
}

/// One profile node per broker phase that ran, in the order given. A
/// phase that never ran (scatter and gather on the single-server fast
/// path) reads 0 ns and gets no node.
fn phase_nodes<'a>(phases: &'a [(&'static str, u64)]) -> impl Iterator<Item = ProfileNode> + 'a {
    phases.iter().filter(|(_, ns)| *ns > 0).map(|&(phase, ns)| {
        let mut node = ProfileNode::new(phase);
        node.elapsed_ns = ns;
        node
    })
}

/// Collapse duplicate per-server entries (a replica that served its own
/// share *and* covered for a failed peer reports once, summed) while
/// preserving first-seen order.
fn coalesce_per_server(entries: &mut Vec<ServerContribution>) {
    let mut out: Vec<ServerContribution> = Vec::with_capacity(entries.len());
    for e in entries.drain(..) {
        match out.iter_mut().find(|o| o.server == e.server) {
            Some(o) => {
                o.responded |= e.responded;
                o.segments_processed += e.segments_processed;
                o.docs_scanned += e.docs_scanned;
                o.time_ms += e.time_ms;
                o.covered_by.extend(e.covered_by);
            }
            None => out.push(e),
        }
    }
    *entries = out;
}

/// AND an extra predicate onto a query (hybrid rewrite).
fn add_conjunct(query: &Query, pred: Predicate) -> Query {
    let mut q = query.clone();
    q.filter = Some(match q.filter.take() {
        None => pred,
        Some(Predicate::And(mut ps)) => {
            ps.push(pred);
            Predicate::And(ps)
        }
        Some(other) => Predicate::And(vec![other, pred]),
    });
    q
}

/// Equality/IN values on `column` from top-level AND conjuncts; `None` when
/// the filter does not restrict the column to an explicit value set.
fn partition_filter_values(pred: Option<&Predicate>, column: &str) -> Option<Vec<Value>> {
    fn from(p: &Predicate, column: &str) -> Option<Vec<Value>> {
        match p {
            Predicate::Cmp {
                column: c,
                op: CmpOp::Eq,
                value,
            } if c == column => Some(vec![value.clone()]),
            Predicate::In {
                column: c,
                values,
                negated: false,
            } if c == column => Some(values.clone()),
            Predicate::And(ps) => ps.iter().find_map(|q| from(q, column)),
            _ => None,
        }
    }
    pred.and_then(|p| from(p, column))
}

/// Merge two finalized results (hybrid offline + realtime sides).
/// Aggregations combine by function; selections concatenate.
fn merge_results(
    a: pinot_common::query::QueryResult,
    b: pinot_common::query::QueryResult,
    query: &Query,
) -> Result<pinot_common::query::QueryResult> {
    use pinot_common::query::{AggregationRow, GroupByRows, QueryResult};
    match (a, b) {
        (QueryResult::Aggregation(x), QueryResult::Aggregation(y)) => {
            if x.is_empty() {
                return Ok(QueryResult::Aggregation(y));
            }
            if y.is_empty() {
                return Ok(QueryResult::Aggregation(x));
            }
            let merged: Vec<AggregationRow> = x
                .into_iter()
                .zip(y)
                .map(|(ra, rb)| merge_agg_rows(ra, rb))
                .collect::<Result<_>>()?;
            Ok(QueryResult::Aggregation(merged))
        }
        (QueryResult::GroupBy(x), QueryResult::GroupBy(y)) => {
            let mut merged = Vec::with_capacity(x.len());
            for (ta, tb) in x.into_iter().zip(y) {
                let function = ta.function.clone();
                let group_columns = ta.group_columns.clone();
                let mut rows: BTreeMap<String, (Vec<Value>, f64)> = BTreeMap::new();
                for (key, value) in ta.rows.into_iter().chain(tb.rows) {
                    let k = format!("{key:?}");
                    let v = value.as_f64().unwrap_or(f64::NEG_INFINITY);
                    rows.entry(k)
                        .and_modify(|(_, acc)| *acc = combine_by_function(&function, *acc, v))
                        .or_insert((key, v));
                }
                let mut out: Vec<(Vec<Value>, f64)> = rows.into_values().collect();
                out.sort_by(|a, b| b.1.total_cmp(&a.1));
                out.truncate(query.effective_top());
                // COUNT/DISTINCTCOUNT finalize as Long on the single-table
                // path; the hybrid merge must produce the same type.
                let integral =
                    function.starts_with("count") || function.starts_with("distinctcount");
                merged.push(GroupByRows {
                    function,
                    group_columns,
                    rows: out
                        .into_iter()
                        .map(|(k, v)| {
                            let v = if integral {
                                Value::Long(v as i64)
                            } else {
                                Value::Double(v)
                            };
                            (k, v)
                        })
                        .collect(),
                });
            }
            Ok(QueryResult::GroupBy(merged))
        }
        (
            QueryResult::Selection { columns, mut rows },
            QueryResult::Selection { rows: more, .. },
        ) => {
            rows.extend(more);
            rows.truncate(query.effective_limit());
            Ok(QueryResult::Selection { columns, rows })
        }
        _ => Err(PinotError::Internal(
            "hybrid sides returned mismatched result shapes".into(),
        )),
    }
}

fn merge_agg_rows(
    a: pinot_common::query::AggregationRow,
    b: pinot_common::query::AggregationRow,
) -> Result<pinot_common::query::AggregationRow> {
    use pinot_common::query::AggregationRow;
    let f = a.function.clone();
    let value = match (a.value.as_f64(), b.value.as_f64()) {
        (Some(x), Some(y)) => {
            let merged = combine_by_function(&f, x, y);
            if f.starts_with("count") || f.starts_with("distinctcount") {
                Value::Long(merged as i64)
            } else {
                Value::Double(merged)
            }
        }
        (Some(_), None) => a.value.clone(),
        (None, Some(_)) => b.value.clone(),
        (None, None) => Value::Null,
    };
    Ok(AggregationRow { function: f, value })
}

/// Combine two already-finalized aggregate values by function name.
///
/// AVG and DISTINCTCOUNT cannot be merged exactly once finalized — hybrid
/// AVG approximates by averaging the two sides and hybrid DISTINCTCOUNT
/// adds them (an upper bound). Non-hybrid queries merge intermediate
/// states and stay exact; this only affects queries spanning the hybrid
/// time boundary, matching the resolution loss the paper accepts for
/// boundary-spanning preaggregation.
fn combine_by_function(function: &str, a: f64, b: f64) -> f64 {
    if function.starts_with("sum")
        || function.starts_with("count")
        || function.starts_with("distinctcount")
    {
        a + b
    } else if function.starts_with("min") {
        a.min(b)
    } else if function.starts_with("max") {
        a.max(b)
    } else if function.starts_with("avg") {
        (a + b) / 2.0
    } else {
        a + b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_pql::parse;

    #[test]
    fn add_conjunct_wraps_filters() {
        let q = parse("SELECT COUNT(*) FROM t WHERE a = 1").unwrap();
        let q2 = add_conjunct(
            &q,
            Predicate::Cmp {
                column: "day".into(),
                op: CmpOp::Lt,
                value: Value::Long(10),
            },
        );
        match q2.filter.unwrap() {
            Predicate::And(ps) => assert_eq!(ps.len(), 2),
            other => panic!("{other:?}"),
        }
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        let q2 = add_conjunct(
            &q,
            Predicate::Cmp {
                column: "day".into(),
                op: CmpOp::Ge,
                value: Value::Long(10),
            },
        );
        assert!(matches!(q2.filter, Some(Predicate::Cmp { .. })));
    }

    #[test]
    fn partition_values_extraction() {
        let q = parse("SELECT COUNT(*) FROM t WHERE user = 42 AND day > 3").unwrap();
        assert_eq!(
            partition_filter_values(q.filter.as_ref(), "user"),
            Some(vec![Value::Long(42)])
        );
        let q = parse("SELECT COUNT(*) FROM t WHERE user IN (1, 2)").unwrap();
        assert_eq!(
            partition_filter_values(q.filter.as_ref(), "user"),
            Some(vec![Value::Long(1), Value::Long(2)])
        );
        // OR at the top cannot restrict partitions.
        let q = parse("SELECT COUNT(*) FROM t WHERE user = 1 OR day = 2").unwrap();
        assert_eq!(partition_filter_values(q.filter.as_ref(), "user"), None);
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(partition_filter_values(q.filter.as_ref(), "user"), None);
    }

    #[test]
    fn combine_functions() {
        assert_eq!(combine_by_function("sum(m)", 2.0, 3.0), 5.0);
        assert_eq!(combine_by_function("count(*)", 2.0, 3.0), 5.0);
        assert_eq!(combine_by_function("min(m)", 2.0, 3.0), 2.0);
        assert_eq!(combine_by_function("max(m)", 2.0, 3.0), 3.0);
        assert_eq!(combine_by_function("avg(m)", 2.0, 4.0), 3.0);
    }
}
