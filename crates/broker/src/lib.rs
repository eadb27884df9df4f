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
//! sides — offline strictly before the boundary, realtime at or after it
//! (Figure 6). Both sides' slices are scattered in one plan and their
//! intermediate results reduced into one answer, finalized once.

pub mod routing;
pub mod survival;
mod view;

/// One server's share of a scattered query.
pub use pinot_exec::ServerRequest as RoutedRequest;

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use pinot_cluster::ClusterManager;
use pinot_common::ids::InstanceId;
use pinot_common::profile::{ProfileNode, QueryProfile};
use pinot_common::query::ServerContribution;
use pinot_common::query::{ExecutionStats, QueryRequest, QueryResponse};
use pinot_common::{EngineConfig, PinotError, Result, RetryPolicy, Value};
use pinot_exec::segment_exec::IntermediateResult;
use pinot_exec::{collected_profiles, finalize, merge_intermediate, Prunable, PruneEvaluator};
use pinot_obs::{LatencyDigest, Obs, QueryLogEntry};
use pinot_pql::{CmpOp, Predicate, Query};
use pinot_taskpool::TaskPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routing::{RoutingTable, SegmentReplicas};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use survival::AdmissionController;
pub use survival::AdmissionLimits;
use view::{TableView, Views};

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
    deadline: Instant,
}

/// One query's broker phase wall times in nanoseconds. Each
/// `broker.phase.*_ms` histogram is observed where its phase ends; this
/// copy only feeds the query log's profile root for a logged query that
/// asked for no profile.
#[derive(Clone, Copy, Default)]
struct PhaseNanos {
    parse: u64,
    route: u64,
    scatter: u64,
    gather: u64,
    merge: u64,
}

/// One server's share of one physical side of a query: the unit the
/// broker scatters, hedges and fails over. A hybrid query's offline and
/// realtime sides are separate slices, even when one server holds both.
struct Slice {
    table: String,
    /// This side's query (a hybrid side carries its time-boundary
    /// conjunct).
    query: Arc<Query>,
    /// The side's segment → replicas view, for failover and hedging.
    replicas: Arc<SegmentReplicas>,
    server: InstanceId,
    segments: Vec<String>,
}

impl Slice {
    /// The request that runs this slice's query over `segments`.
    fn request(&self, segments: Vec<String>, tenant: &str, ctx: QueryCtx) -> RoutedRequest {
        RoutedRequest {
            table: self.table.clone(),
            query: Arc::clone(&self.query),
            segments,
            tenant: tenant.to_string(),
            deadline: Some(ctx.deadline),
            query_id: ctx.query_id,
            profile: ctx.profile,
            analyze: ctx.analyze,
        }
    }
}

/// One message on the gather channel. `slice` indexes the plan; `actual`
/// names whoever executed — different from the slice's server only for
/// hedge replies, letting the gather dedupe by slice so the losing
/// contender never double-counts.
struct ScatterReply {
    slice: usize,
    actual: InstanceId,
    result: Result<IntermediateResult>,
}

/// Gather-side state of one query: the one accumulator every slice's
/// reply merges into, and what the response reports about the servers.
struct Gather {
    acc: IntermediateResult,
    /// Plan indices of the slices still unanswered.
    pending: BTreeSet<usize>,
    /// Servers that failed during this query; failover and hedging skip
    /// them.
    failed: HashSet<InstanceId>,
    exceptions: Vec<String>,
    server_wall_ns: HashMap<String, u64>,
}

/// What brokers need from a server. Implemented by an adapter around
/// `pinot_server::Server` in the integration crate (`pinot-core`), keeping
/// the dependency graph acyclic — in production this boundary is the
/// broker→server RPC.
pub trait SegmentQueryService: Send + Sync {
    fn execute(&self, req: &RoutedRequest) -> Result<IntermediateResult>;
}

/// One Pinot broker instance.
pub struct Broker {
    id: InstanceId,
    cluster: ClusterManager,
    executors: RwLock<HashMap<InstanceId, Arc<dyn SegmentQueryService>>>,
    /// Every table's metadata, decoded once per metastore generation and
    /// external-view change.
    views: Views,
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
    /// Monotonic per-broker query sequence; mixed with `query_seed` into
    /// the deterministic query ids (separate from `rng` so id assignment
    /// never perturbs routing-table selection).
    query_seq: AtomicU64,
    /// Per-broker seed for query-id generation.
    query_seed: u64,
    /// Per-server streaming latency estimates (observed scatter-reply wall
    /// clock) feeding the hedged-scatter delay.
    latency: LatencyDigest,
    admission: Arc<AdmissionController>,
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
        Arc::new(Broker {
            id: InstanceId::broker(n),
            views: Views::new(&cluster),
            cluster,
            executors: RwLock::new(HashMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(0x9e3779b97f4a7c15 ^ n as u64)),
            pool: Arc::new(TaskPool::with_threads(
                config.taskpool_threads,
                Some(Arc::clone(&obs)),
            )),
            config,
            obs,
            retry: RetryPolicy::default().with_seed(n as u64),
            query_seq: AtomicU64::new(0),
            query_seed: 0x9e3779b97f4a7c15 ^ (n as u64).rotate_left(32),
            latency: LatencyDigest::new(HEDGE_LATENCY_WINDOW, HEDGE_MIN_SAMPLES),
            admission: Arc::new(AdmissionController::default()),
        })
    }

    /// Next deterministic query id: splitmix64 over (per-broker seed,
    /// sequence number). Never 0 — stats reserve 0 for "no id".
    fn next_query_id(&self) -> u64 {
        let n = self.query_seq.fetch_add(1, Ordering::Relaxed) + 1;
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
        let ctx = QueryCtx {
            query_id: self.next_query_id(),
            profile: request.profile,
            analyze: request.analyze,
            deadline: started + Duration::from_millis(request.timeout_ms),
        };
        let mut phases = PhaseNanos::default();
        let mut response = match self.execute_inner(request, ctx, &mut phases) {
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
        phases: &mut PhaseNanos,
    ) -> Result<QueryResponse> {
        let (parsed, _) = self.timed("broker.phase.parse_ms", &mut phases.parse, || {
            pinot_pql::parse(&request.pql)
        });
        let query = Arc::new(parsed?);
        // A fully qualified name targets that one physical table; a
        // logical name maps to OFFLINE, REALTIME, or both (hybrid).
        let snapshot = self.views.current(&self.cluster, &self.rng, &self.obs);
        let views = snapshot.resolve(&query.table)?;
        let tenant = request
            .tenant
            .clone()
            .unwrap_or_else(|| views[0].config.tenant.clone());

        // One admission slot per logical query, held across both sides
        // of a hybrid query.
        let _permit = self
            .admission
            .admit(&tenant, ctx.deadline, || {
                self.obs.metrics.counter_add("broker.admission_queued", 1);
            })
            .inspect_err(|_| {
                self.obs.metrics.counter_add("broker.admission_shed", 1);
            })?;
        let sides = match views {
            [offline, realtime] => hybrid_sides(offline, realtime, &query)?,
            _ => views.iter().map(|t| (t, Arc::clone(&query))).collect(),
        };
        self.scatter_gather(&query, sides, &tenant, ctx, phases)
    }

    /// Scatter every side of one logical query and reduce it (§3.3.3):
    /// each side (table, that side's query) is routed and pruned against
    /// its own table into slices of one plan, every slice's intermediate
    /// result merges into one accumulator, and `finalize` runs once with
    /// the original `query`. So a hybrid query's AVG, DISTINCTCOUNT and
    /// TOP see both sides' states before anything is finalized. A
    /// one-slice plan (partition-aware routing's point, §4.4) runs inline
    /// on the caller's thread; larger plans go through the pool.
    fn scatter_gather(
        &self,
        query: &Arc<Query>,
        sides: Vec<(&Arc<TableView>, Arc<Query>)>,
        tenant: &str,
        ctx: QueryCtx,
        phases: &mut PhaseNanos,
    ) -> Result<QueryResponse> {
        let started = Instant::now();
        let mut skips = BrokerSkips::default();
        let (plan, _) = self.timed("broker.phase.route_ms", &mut phases.route, || {
            let mut plan: Vec<Slice> = Vec::new();
            for (table, side) in sides {
                let (routing, partition_skipped) = self.route(table, &side);
                self.plan_side(
                    table,
                    side,
                    routing,
                    &partition_skipped,
                    &mut skips,
                    &mut plan,
                );
            }
            plan
        });

        let mut g = Gather {
            acc: IntermediateResult::empty_for(query),
            pending: (0..plan.len()).collect(),
            failed: HashSet::new(),
            exceptions: Vec::new(),
            server_wall_ns: HashMap::new(),
        };
        let (scatter_ns, gather_ns) = if let [slice] = plan.as_slice() {
            // No scatter task, no channel: this is what keeps the
            // partitioned latency curve flat as QPS grows.
            self.obs
                .metrics
                .counter_add("broker.routing.single_server_fastpath", 1);
            let called = Instant::now();
            let result = match self.endpoint(&slice.server) {
                Some(svc) => {
                    guarded_execute(&*svc, &slice.request(slice.segments.clone(), tenant, ctx))
                }
                None => Err(no_endpoint(&slice.server)),
            };
            let reply = ScatterReply {
                slice: 0,
                actual: slice.server.clone(),
                result,
            };
            self.accept(&plan, &mut g, reply, called.elapsed(), tenant, ctx)?;
            (0, 0)
        } else {
            self.scatter(&plan, &mut g, tenant, ctx, phases)?
        };
        if !g.pending.is_empty() {
            self.obs.metrics.counter_add("broker.scatter.timeout", 1);
            g.exceptions.push(format!(
                "timeout waiting for {} server response(s)",
                g.pending.len()
            ));
        }
        // Slices that never answered before the deadline: record their
        // servers so a partial response says exactly whose data is missing.
        for &i in &g.pending {
            g.acc.stats.per_server.push(ServerContribution {
                server: plan[i].server.to_string(),
                ..Default::default()
            });
        }

        let mut acc = g.acc;
        acc.stats.num_servers_queried = plan.len() as u64;
        skips.apply(&mut acc.stats);
        coalesce_per_server(&mut acc.stats.per_server);
        let profile_nodes = acc.profile.take();
        let stats = acc.stats.clone();
        let (result, merge_ns) = self.timed("broker.phase.merge_ms", &mut phases.merge, || {
            finalize(acc, query)
        });
        let result = result?;
        let profile = ctx.profile.then(|| {
            self.broker_profile(
                ctx,
                profile_nodes,
                &skips,
                &stats,
                &g.server_wall_ns,
                started.elapsed().as_nanos() as u64,
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
            partial: !g.exceptions.is_empty(),
            exceptions: g.exceptions,
            profile,
        })
    }

    /// Scatter every slice of `plan` as a pool task and gather the replies
    /// into `g` until every slice is answered or the deadline passes.
    /// Failed servers are recovered inline via surviving replicas while
    /// the remaining workers keep running; slices still outstanding at
    /// their hedge time are speculatively re-issued to a replica, and the
    /// first answer per slice wins. Returns the scatter and gather wall
    /// times in nanoseconds.
    fn scatter(
        &self,
        plan: &[Slice],
        g: &mut Gather,
        tenant: &str,
        ctx: QueryCtx,
        phases: &mut PhaseNanos,
    ) -> Result<(u64, u64)> {
        // Capacity fits every primary plus a potential hedge per slice, so
        // no worker ever blocks on send.
        let (tx, rx) = bounded::<ScatterReply>(plan.len().max(1) * 2);
        let started = Instant::now();
        let ((), scatter_ns) = self.timed("broker.phase.scatter_ms", &mut phases.scatter, || {
            for (i, slice) in plan.iter().enumerate() {
                let Some(svc) = self.endpoint(&slice.server) else {
                    // Routing raced with a server death; report it as a failure.
                    let _ = tx.send(ScatterReply {
                        slice: i,
                        actual: slice.server.clone(),
                        result: Err(no_endpoint(&slice.server)),
                    });
                    continue;
                };
                let req = slice.request(slice.segments.clone(), tenant, ctx);
                self.spawn_call(svc, req, i, slice.server.clone(), &tx, ctx);
            }
        });
        // When hedging can fire we keep one sender until hedges are issued
        // (they need it); without it the channel disconnects as soon as all
        // primaries finish.
        let hedge_at: Option<Instant> = if self.config.hedge && !plan.is_empty() {
            self.latency.healthy_quantile(0.99).map(|p99| {
                started
                    + Duration::from_secs_f64((p99 * HEDGE_DELAY_FACTOR).max(HEDGE_FLOOR_MS) / 1e3)
            })
        } else {
            None
        };
        let mut hedge_tx = hedge_at.map(|_| tx.clone());
        drop(tx);

        let (gathered, gather_ns) =
            self.timed("broker.phase.gather_ms", &mut phases.gather, || {
                while !g.pending.is_empty() {
                    let now = Instant::now();
                    if now >= ctx.deadline {
                        break;
                    }
                    if hedge_at.is_some_and(|h| now >= h) {
                        if let Some(htx) = hedge_tx.take() {
                            self.issue_hedges(plan, g, &htx, tenant, ctx);
                        }
                    }
                    let wake = match (hedge_at, &hedge_tx) {
                        (Some(h), Some(_)) if h < ctx.deadline => h.max(now),
                        _ => ctx.deadline,
                    };
                    match rx.recv_timeout(wake.saturating_duration_since(now)) {
                        Ok(reply) => self.accept(plan, g, reply, started.elapsed(), tenant, ctx)?,
                        // Woke at the hedge time (or a spurious early return):
                        // loop back to issue hedges / re-check the deadline.
                        Err(RecvTimeoutError::Timeout) => continue,
                        // Disconnected with replies still outstanding means the
                        // remaining scatter workers were abandoned past the
                        // deadline (their queued tasks dropped the sender): the
                        // same scatter timeout as the deadline.
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                Ok::<(), PinotError>(())
            });
        gathered?;
        Ok((scatter_ns, gather_ns))
    }

    /// Give every still-pending slice one speculative re-issue to a
    /// replica that holds all of its segments.
    fn issue_hedges(
        &self,
        plan: &[Slice],
        g: &mut Gather,
        tx: &Sender<ScatterReply>,
        tenant: &str,
        ctx: QueryCtx,
    ) {
        for &i in &g.pending {
            let slice = &plan[i];
            let Some(target) = self.hedge_target(slice, &g.failed) else {
                continue;
            };
            let Some(svc) = self.endpoint(&target) else {
                continue;
            };
            g.acc.stats.hedges_issued += 1;
            self.obs.metrics.counter_add("broker.hedge_issued", 1);
            let req = slice.request(slice.segments.clone(), tenant, ctx);
            self.spawn_call(svc, req, i, target, tx, ctx);
        }
    }

    /// Turn one side's routing table into slices of `plan`. Broker-level
    /// pruning happens here: partition-routing exclusions become visible
    /// in the stats, and table-level zone maps (from segment metadata in
    /// the metastore) drop segments — and whole servers — that cannot
    /// match the side's filter before any RPC is issued.
    fn plan_side(
        &self,
        table: &TableView,
        query: Arc<Query>,
        routing: RoutingTable,
        partition_skipped: &[String],
        skips: &mut BrokerSkips,
        plan: &mut Vec<Slice>,
    ) {
        if !partition_skipped.is_empty() {
            self.obs
                .metrics
                .counter_add("prune.partition_segments", partition_skipped.len() as u64);
            for seg in partition_skipped {
                skips.partition_segments += 1;
                skips.partition_docs += table.segments.get(seg).map_or(0, |e| e.num_docs);
            }
        }
        let routing = self.prune_plan(table, &query, routing, skips);
        self.obs
            .metrics
            .observe_ms("broker.routing.fanout", routing.len() as f64);
        for (server, segments) in routing {
            plan.push(Slice {
                table: table.name.clone(),
                query: Arc::clone(&query),
                replicas: Arc::clone(&table.replicas),
                server,
                segments,
            });
        }
    }

    /// Handle one reply — the inline call's or a gathered one — for the
    /// slice it names: merge an answer into the accumulator, or fail the
    /// slice over to surviving replicas. A reply for a slice that is
    /// already settled is the losing contender of a hedge race and is
    /// dropped; a failed hedge never fails its slice, because the primary
    /// may still answer.
    fn accept(
        &self,
        plan: &[Slice],
        g: &mut Gather,
        reply: ScatterReply,
        wall: Duration,
        tenant: &str,
        ctx: QueryCtx,
    ) -> Result<()> {
        let slice = &plan[reply.slice];
        let is_hedge = reply.actual != slice.server;
        if !g.pending.contains(&reply.slice) {
            if reply.result.is_ok() {
                self.obs.metrics.counter_add("broker.hedge_wasted", 1);
            }
            return Ok(());
        }
        match reply.result {
            Ok(partial) => {
                g.pending.remove(&reply.slice);
                g.acc.stats.num_servers_responded += 1;
                self.observe_reply(&reply.actual, wall, &mut g.server_wall_ns);
                if is_hedge {
                    g.acc.stats.hedges_won += 1;
                    self.obs.metrics.counter_add("broker.hedge_won", 1);
                    // The straggler shows up as not having responded,
                    // covered by the hedge target — same shape failover
                    // uses.
                    g.acc.stats.per_server.push(ServerContribution {
                        server: slice.server.to_string(),
                        responded: false,
                        covered_by: vec![reply.actual.to_string()],
                        ..Default::default()
                    });
                }
                g.acc
                    .stats
                    .per_server
                    .push(served_by(&reply.actual, &partial));
                merge_intermediate(&mut g.acc, partial)
            }
            Err(_) if is_hedge => Ok(()),
            Err(e) => {
                g.pending.remove(&reply.slice);
                g.failed.insert(slice.server.clone());
                self.handle_server_failure(slice, e, tenant, ctx, g)
            }
        }
    }

    /// The registered endpoint of `server`, if it has one.
    fn endpoint(&self, server: &InstanceId) -> Option<Arc<dyn SegmentQueryService>> {
        self.executors.read().get(server).cloned()
    }

    /// Run `req` on `svc` as a detached pool task that replies for plan
    /// slice `slice` on `tx`, naming `actual` as the executor.
    fn spawn_call(
        &self,
        svc: Arc<dyn SegmentQueryService>,
        req: RoutedRequest,
        slice: usize,
        actual: InstanceId,
        tx: &Sender<ScatterReply>,
        ctx: QueryCtx,
    ) {
        let tx = tx.clone();
        let task_deadline = pinot_taskpool::Deadline::at(Some(ctx.deadline));
        self.pool
            .spawn_detached_with_deadline(&task_deadline, move || {
                let result = guarded_execute(&*svc, &req);
                // Past the scatter deadline the receiver is gone and this
                // send is a harmless no-op; the late partial is dropped
                // rather than written into freed state.
                let _ = tx.send(ScatterReply {
                    slice,
                    actual,
                    result,
                });
            });
    }

    /// Assemble the cluster-wide profile root for one query: its phase
    /// timings, a per-server network+queue breakdown (broker-observed wall
    /// clock minus the server's own reported time), broker-level prune
    /// summaries, and the servers' trees underneath.
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

    /// Deterministic hedge target for a straggling slice: the first
    /// (sorted) live registered replica, other than the slice's server,
    /// that holds *every* segment of the slice — a hedge re-issues the
    /// exact slice, so a partial holder cannot serve it.
    fn hedge_target(&self, slice: &Slice, failed: &HashSet<InstanceId>) -> Option<InstanceId> {
        let mut candidates: Option<BTreeSet<InstanceId>> = None;
        for seg in &slice.segments {
            let holders: BTreeSet<InstanceId> = slice.replicas.get(seg)?.iter().cloned().collect();
            candidates = Some(match candidates {
                None => holders,
                Some(c) => c.intersection(&holders).cloned().collect(),
            });
        }
        let executors = self.executors.read();
        candidates?
            .into_iter()
            .find(|c| *c != slice.server && !failed.contains(c) && executors.contains_key(c))
    }

    /// A slice's server failed. If the error is transient, re-route the
    /// slice's segments to surviving replicas (deadline permitting); only
    /// what no replica can serve becomes an exception — naming the failed
    /// server — and makes the response partial (§3.3.3 step 7, upgraded
    /// from "any failure is partial" to "only unrecoverable loss is").
    fn handle_server_failure(
        &self,
        slice: &Slice,
        error: PinotError,
        tenant: &str,
        ctx: QueryCtx,
        g: &mut Gather,
    ) -> Result<()> {
        let segments = &slice.segments;
        let outcome = if error.is_retriable() && !segments.is_empty() {
            self.failover_recover(slice, tenant, ctx, &mut g.failed, &mut g.acc)?
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
            g.exceptions.push(format!(
                "{}: {error} ({} of {} segment(s) unrecoverable)",
                slice.server,
                outcome.lost.len(),
                segments.len().max(1)
            ));
        }
        g.acc.stats.per_server.push(ServerContribution {
            server: slice.server.to_string(),
            responded: false,
            covered_by: outcome.covered_by,
            ..Default::default()
        });
        Ok(())
    }

    /// Re-route a failed slice's segments to surviving replicas with
    /// deadline-budgeted backoff. Recovered results merge into `acc` (with
    /// per-server contributions for the covering replicas); returns who
    /// covered and which segments no live replica could serve. Replicas
    /// that fail during recovery join `failed` so later failovers skip
    /// them too.
    fn failover_recover(
        &self,
        slice: &Slice,
        tenant: &str,
        ctx: QueryCtx,
        failed: &mut HashSet<InstanceId>,
        acc: &mut IntermediateResult,
    ) -> Result<FailoverOutcome> {
        let mut remaining: Vec<String> = slice.segments.clone();
        let mut covered_by: Vec<String> = Vec::new();
        for attempt in 1..=self.retry.max_attempts {
            // Group what's left by the first surviving replica of each
            // segment (replica lists are sorted, so this is deterministic).
            let mut by_server: BTreeMap<InstanceId, Vec<String>> = BTreeMap::new();
            for seg in &remaining {
                let survivor = slice
                    .replicas
                    .get(seg)
                    .and_then(|rs| rs.iter().find(|r| !failed.contains(*r)));
                if let Some(r) = survivor {
                    by_server.entry(r.clone()).or_default().push(seg.clone());
                }
            }
            if by_server.is_empty() {
                break;
            }
            // The backoff must fit in what's left of the query's deadline;
            // if it doesn't, the un-recovered segments are lost.
            let delay = Duration::from_millis(self.retry.delay_ms(attempt));
            if Instant::now() + delay >= ctx.deadline {
                break;
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            self.obs.metrics.counter_add("broker.scatter.retry", 1);
            for (replica, segs) in by_server {
                let Some(svc) = self.endpoint(&replica) else {
                    failed.insert(replica);
                    continue;
                };
                match guarded_execute(&*svc, &slice.request(segs.clone(), tenant, ctx)) {
                    Ok(partial) => {
                        acc.stats.per_server.push(served_by(&replica, &partial));
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
                break;
            }
        }
        Ok(FailoverOutcome {
            covered_by,
            lost: remaining,
        })
    }

    // ---- table metadata ----

    /// Number of routing tables in rotation for a table (diagnostics/tests).
    pub fn num_routing_tables(&self, table: &str) -> usize {
        self.views
            .current(&self.cluster, &self.rng, &self.obs)
            .tables
            .get(table)
            .map_or(0, |v| v.routing.len())
    }

    // ---- routing ----

    /// Pick a routing table for the query. The second element names the
    /// segments partition-aware routing excluded, so the caller can fold
    /// them into the response stats as pruned rather than dropping them
    /// invisibly.
    fn route(&self, table: &TableView, query: &Query) -> (RoutingTable, Vec<String>) {
        // Partition-aware path: equality/IN filter on the partition column
        // restricts to the matching partitions' segments (§4.4).
        if let Some(pidx) = &table.partitions {
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
                let skipped: Vec<String> = table
                    .replicas
                    .keys()
                    .filter(|seg| !replicas.contains_key(*seg))
                    .cloned()
                    .collect();
                return (routing::generate_balanced(&replicas), skipped);
            }
        }

        if table.routing.is_empty() {
            return (RoutingTable::new(), Vec::new());
        }
        let idx = self.rng.lock().gen_range(0..table.routing.len());
        (table.routing[idx].clone(), Vec::new())
    }

    // ---- broker-level zone-map pruning ----

    /// Drop segments whose published zone maps prove the filter cannot
    /// match, and with them any server whose entire share pruned away —
    /// fewer RPCs and a smaller gather. Segments without published zone
    /// maps (consuming, or written by an older controller) pass through
    /// untouched.
    fn prune_plan(
        &self,
        table: &TableView,
        query: &Query,
        plan: RoutingTable,
        skips: &mut BrokerSkips,
    ) -> RoutingTable {
        if query.filter.is_none() {
            return plan;
        }
        let evaluator = PruneEvaluator::new(table.time_column.clone());
        let mut out = RoutingTable::new();
        let mut servers_skipped = 0u64;
        for (server, segments) in plan {
            let mut kept = Vec::with_capacity(segments.len());
            for seg in segments {
                let Some(entry) = table.segments.get(&seg) else {
                    kept.push(seg);
                    continue;
                };
                let outcome = evaluator.evaluate(query.filter.as_ref(), &entry.zone_maps);
                if outcome.prunable == Prunable::CannotMatch {
                    skips.segments += 1;
                    skips.docs += entry.num_docs;
                    self.obs.metrics.counter_add("prune.broker_segments", 1);
                    if let Some(level) = outcome.level {
                        self.obs.metrics.counter_add(level.metric_name(), 1);
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
}

/// Hybrid rewrite (Figure 6): the offline side serves `time < boundary`,
/// the realtime side `time >= boundary`. With no offline data yet, the
/// realtime side serves the whole query.
fn hybrid_sides<'a>(
    offline: &'a Arc<TableView>,
    realtime: &'a Arc<TableView>,
    query: &Arc<Query>,
) -> Result<Vec<(&'a Arc<TableView>, Arc<Query>)>> {
    let time_column = offline
        .time_column
        .as_ref()
        .ok_or_else(|| PinotError::Metadata(format!("{} has no time column", offline.name)))?;
    let Some(boundary) = offline.max_time else {
        return Ok(vec![(realtime, Arc::clone(query))]);
    };
    let side = |table, op| {
        let pred = Predicate::Cmp {
            column: time_column.clone(),
            op,
            value: Value::Long(boundary),
        };
        (table, Arc::new(add_conjunct(query, pred)))
    };
    Ok(vec![side(offline, CmpOp::Lt), side(realtime, CmpOp::Ge)])
}

/// Run a server call with panic capture. A panicking server maps to a
/// retriable I/O error so the normal failover path covers it, rather than
/// poisoning the scatter worker.
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

/// The per-server contribution of a replica that answered `partial`.
fn served_by(server: &InstanceId, partial: &IntermediateResult) -> ServerContribution {
    ServerContribution {
        server: server.to_string(),
        responded: true,
        segments_processed: partial.stats.num_segments_processed,
        docs_scanned: partial.stats.num_docs_scanned,
        time_ms: partial.stats.time_used_ms,
        covered_by: Vec::new(),
    }
}

/// The error for a routed server that has no registered endpoint (routing
/// raced with its death).
fn no_endpoint(server: &InstanceId) -> PinotError {
    PinotError::Cluster(format!("no endpoint for {server}"))
}

/// Result of one failover attempt for a failed slice's segment list.
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
}
