//! The integrated Pinot system.
//!
//! [`PinotCluster`] assembles the full architecture of §3 in one process:
//! the metadata store, the event stream, the object store, a group of
//! controllers (one elected leader), query brokers, data servers, and
//! minions. Components interact only through the same narrow interfaces
//! they would use over the network (state transitions, completion polls,
//! scatter/gather requests), so the topology, failure modes, and data flows
//! of the paper are preserved; only the wire encoding is elided.
//!
//! ```no_run
//! use pinot_core::{ClusterConfig, PinotCluster};
//! use pinot_common::config::TableConfig;
//! use pinot_common::{DataType, FieldSpec, Schema};
//! use pinot_common::query::QueryRequest;
//!
//! let cluster = PinotCluster::start(ClusterConfig::default()).unwrap();
//! let schema = Schema::new("hits", vec![
//!     FieldSpec::dimension("country", DataType::String),
//!     FieldSpec::metric("clicks", DataType::Long),
//! ]).unwrap();
//! cluster.create_table(TableConfig::offline("hits"), schema).unwrap();
//! let resp = cluster.execute(&QueryRequest::new("SELECT COUNT(*) FROM hits"));
//! assert!(!resp.partial);
//! ```

pub mod pump;

use bytes::Bytes;
use pinot_broker::{Broker, RoutedRequest, SegmentQueryService};
use pinot_chaos::FaultInjector;
use pinot_cluster::ClusterManager;
use pinot_common::config::TableConfig;
use pinot_common::ids::{InstanceId, SegmentName, TableType};
use pinot_common::query::{QueryRequest, QueryResponse};
use pinot_common::time::Clock;
use pinot_common::{EngineConfig, PinotError, Record, Result, Schema, Value};
use pinot_controller::{Controller, ControllerGroup};
use pinot_exec::segment_exec::IntermediateResult;
use pinot_metastore::MetaStore;
use pinot_minion::{Minion, PurgeSpec, TaskReport};
use pinot_objstore::{MemoryObjectStore, ObjectStoreRef};
use pinot_obs::{MetricsSnapshot, Obs, QueryLogEntry};
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_segment::metadata::PartitionInfo;
use pinot_server::{Server, ServerRequest};
use pinot_stream::StreamRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// Re-exports so downstream users need only this crate for common flows.
pub use pinot_broker as broker;
pub use pinot_chaos as chaos;
pub use pinot_cluster as cluster;
pub use pinot_common as common;
pub use pinot_controller as controller;
pub use pinot_exec as exec;
pub use pinot_minion as minion;
pub use pinot_obs as obs;
pub use pinot_pql as pql;
pub use pinot_segment as segment;
pub use pinot_server as server;
pub use pinot_startree as startree;
pub use pinot_stream as stream;
pub use pinot_taskpool as taskpool;

/// Topology and environment for a cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    pub num_controllers: usize,
    pub num_brokers: usize,
    pub num_servers: usize,
    pub num_minions: usize,
    /// Manual clocks make tests and simulations deterministic.
    pub clock: Clock,
    /// Object store; defaults to in-memory.
    pub objstore: Option<ObjectStoreRef>,
    /// Fault injector shared by every component (chaos tests). `None`
    /// installs a fresh, empty injector — still reachable via
    /// [`PinotCluster::chaos`] so tests can arm faults after boot.
    pub chaos: Option<Arc<FaultInjector>>,
    /// The engine's knobs, shared by every broker and server of the
    /// cluster. [`ClusterConfig::default`] resolves them from the `PINOT_*`
    /// environment ([`EngineConfig::from_env`]); assign fields to override
    /// — an assignment wins over the environment.
    pub engine: EngineConfig,
    /// A malformed `PINOT_*` value met by [`ClusterConfig::default`].
    /// [`PinotCluster::start`] returns it, so a cluster never boots on a
    /// guessed knob.
    pub env_error: Option<PinotError>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let (engine, env_error) = match EngineConfig::from_env() {
            Ok(engine) => (engine, None),
            Err(e) => (EngineConfig::default(), Some(e)),
        };
        ClusterConfig {
            num_controllers: 3,
            num_brokers: 1,
            num_servers: 3,
            num_minions: 1,
            clock: Clock::system(),
            objstore: None,
            chaos: None,
            engine,
            env_error,
        }
    }
}

impl ClusterConfig {
    pub fn with_servers(mut self, n: usize) -> ClusterConfig {
        self.num_servers = n;
        self
    }

    pub fn with_brokers(mut self, n: usize) -> ClusterConfig {
        self.num_brokers = n;
        self
    }

    pub fn with_clock(mut self, clock: Clock) -> ClusterConfig {
        self.clock = clock;
        self
    }

    pub fn with_chaos(mut self, chaos: Arc<FaultInjector>) -> ClusterConfig {
        self.chaos = Some(chaos);
        self
    }
}

/// The query text behind an `EXPLAIN` prefix (already validated by
/// `parse_statement`), so the inner query can be handed to the broker.
fn strip_explain_prefix(pql: &str) -> &str {
    fn eat<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
        let t = s.trim_start();
        (t.len() >= kw.len() && t[..kw.len()].eq_ignore_ascii_case(kw)).then(|| &t[kw.len()..])
    }
    let Some(rest) = eat(pql, "EXPLAIN") else {
        return pql;
    };
    if let Some(r) = eat(rest, "ANALYZE") {
        return r.trim_start();
    }
    if let Some(r) = eat(rest, "PLAN").and_then(|r| eat(r, "FOR")) {
        return r.trim_start();
    }
    rest.trim_start()
}

/// Adapter exposing a [`Server`] as the broker-facing query service (the
/// in-process stand-in for the broker→server RPC).
struct ServerAdapter(Arc<Server>);

impl SegmentQueryService for ServerAdapter {
    fn execute(&self, req: &RoutedRequest) -> Result<IntermediateResult> {
        self.0.execute(&ServerRequest {
            table: req.table.clone(),
            query: Arc::clone(&req.query),
            segments: req.segments.clone(),
            tenant: req.tenant.clone(),
            deadline: req.deadline,
            query_id: req.query_id,
            profile: req.profile,
            analyze: req.analyze,
        })
    }
}

/// A fully wired in-process Pinot deployment.
pub struct PinotCluster {
    metastore: MetaStore,
    streams: StreamRegistry,
    objstore: ObjectStoreRef,
    cluster: ClusterManager,
    controllers: ControllerGroup,
    brokers: Vec<Arc<Broker>>,
    servers: Vec<Arc<Server>>,
    minions: Vec<Arc<Minion>>,
    clock: Clock,
    next_broker: AtomicUsize,
    upload_sequence: AtomicUsize,
    obs: Arc<Obs>,
    chaos: Arc<FaultInjector>,
}

impl PinotCluster {
    /// Boot a cluster: substrates, controllers (leader elected), servers
    /// (registered as participants), brokers (wired to every server).
    pub fn start(config: ClusterConfig) -> Result<PinotCluster> {
        if let Some(e) = config.env_error {
            return Err(e);
        }
        if config.num_controllers == 0 || config.num_brokers == 0 || config.num_servers == 0 {
            return Err(PinotError::Cluster(
                "cluster needs at least one controller, broker and server".into(),
            ));
        }
        let metastore = MetaStore::new();
        let streams = StreamRegistry::new();
        let objstore = config.objstore.unwrap_or_else(MemoryObjectStore::shared);
        let cluster = ClusterManager::new(metastore.clone());
        // One observability sink shared by every component, so
        // `metrics_snapshot()` sees broker, server, and controller metrics
        // side by side.
        let obs = Obs::shared();
        // One fault injector shared by every component; empty (and thus
        // inert) unless a chaos test arms faults on it.
        let chaos = config
            .chaos
            .unwrap_or_else(|| Arc::new(FaultInjector::new()));
        chaos.set_obs(Arc::clone(&obs));

        let controllers = ControllerGroup::with_obs(metastore.clone(), Arc::clone(&obs));
        for n in 1..=config.num_controllers {
            let controller = Controller::with_obs(
                n,
                metastore.clone(),
                cluster.clone(),
                objstore.clone(),
                streams.clone(),
                config.clock.clone(),
                Arc::clone(&obs),
            );
            controller.set_fault_injector(Arc::clone(&chaos));
            controllers.add(controller);
        }
        controllers
            .leader()
            .ok_or_else(|| PinotError::Cluster("failed to elect a controller".into()))?;

        let engine = Arc::new(config.engine);
        let mut servers = Vec::with_capacity(config.num_servers);
        for n in 1..=config.num_servers {
            let server = Server::with_obs(
                n,
                controllers.clone(),
                cluster.clone(),
                streams.clone(),
                config.clock.clone(),
                Arc::clone(&obs),
                Arc::clone(&engine),
            );
            server.set_fault_injector(Arc::clone(&chaos));
            cluster.register_participant(server.clone());
            servers.push(server);
        }

        let mut brokers = Vec::with_capacity(config.num_brokers);
        for n in 1..=config.num_brokers {
            let broker =
                Broker::with_obs(n, cluster.clone(), Arc::clone(&obs), Arc::clone(&engine));
            for server in &servers {
                broker.register_server(
                    server.id().clone(),
                    Arc::new(ServerAdapter(Arc::clone(server))),
                );
            }
            brokers.push(broker);
        }

        let minions = (1..=config.num_minions)
            .map(|n| Minion::new(n, controllers.clone()))
            .collect();

        Ok(PinotCluster {
            metastore,
            streams,
            objstore,
            cluster,
            controllers,
            brokers,
            servers,
            minions,
            clock: config.clock,
            next_broker: AtomicUsize::new(0),
            upload_sequence: AtomicUsize::new(0),
            obs,
            chaos,
        })
    }

    // ---- component access ----

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn metastore(&self) -> &MetaStore {
        &self.metastore
    }

    pub fn streams(&self) -> &StreamRegistry {
        &self.streams
    }

    pub fn objstore(&self) -> &ObjectStoreRef {
        &self.objstore
    }

    pub fn cluster_manager(&self) -> &ClusterManager {
        &self.cluster
    }

    pub fn leader_controller(&self) -> Result<Arc<Controller>> {
        self.controllers
            .leader()
            .ok_or_else(|| PinotError::Cluster("no lead controller".into()))
    }

    pub fn controllers(&self) -> &ControllerGroup {
        &self.controllers
    }

    pub fn servers(&self) -> &[Arc<Server>] {
        &self.servers
    }

    pub fn brokers(&self) -> &[Arc<Broker>] {
        &self.brokers
    }

    pub fn minions(&self) -> &[Arc<Minion>] {
        &self.minions
    }

    /// A broker, round-robin (stands in for the client-side load balancer
    /// the paper places in front of the broker pool).
    pub fn broker(&self) -> Arc<Broker> {
        let i = self.next_broker.fetch_add(1, Ordering::Relaxed) % self.brokers.len();
        Arc::clone(&self.brokers[i])
    }

    // ---- table lifecycle ----

    /// Create a table (offline or realtime, per the config).
    pub fn create_table(&self, config: TableConfig, schema: Schema) -> Result<()> {
        self.leader_controller()?.create_table(config, schema)
    }

    pub fn delete_table(&self, name: &str, table_type: TableType) -> Result<()> {
        self.leader_controller()?.delete_table(name, table_type)
    }

    /// Build a segment from records using the table's index configuration
    /// (what the offline Hadoop push job does) and upload it.
    pub fn upload_rows(&self, logical_table: &str, rows: Vec<Record>) -> Result<SegmentName> {
        let leader = self.leader_controller()?;
        let qualified = format!("{logical_table}_OFFLINE");
        let config = leader.table_config(&qualified)?;
        let schema = leader.table_schema(logical_table)?;
        let seq = self.upload_sequence.fetch_add(1, Ordering::Relaxed);
        let name = SegmentName::offline(&qualified, seq as u64);

        let mut builder_cfg = BuilderConfig::new(name.as_str(), qualified.clone());
        if let Some(sorted) = &config.indexing.sorted_column {
            builder_cfg.sort_columns = vec![sorted.clone()];
        }
        builder_cfg.inverted_columns = config.indexing.inverted_index_columns.clone();
        builder_cfg.bloom_columns = config.indexing.bloom_filter_columns.clone();
        builder_cfg.created_at_millis = self.clock.now_millis();
        // Offline pushes of partitioned tables must partition the same way
        // as the realtime side (§4.4); single-partition-pure segments only
        // happen when the caller pre-partitions rows, so record partition
        // info only when all rows agree.
        if let pinot_common::config::RoutingStrategy::Partitioned {
            column,
            num_partitions,
        } = &config.routing
        {
            if let Some(idx) = schema.column_index(column) {
                let mut partition: Option<u32> = None;
                let mut uniform = true;
                for r in &rows {
                    let p = pinot_common::partition::partition_for_value(
                        &r.values()[idx],
                        *num_partitions,
                    );
                    match partition {
                        None => partition = Some(p),
                        Some(existing) if existing == p => {}
                        _ => {
                            uniform = false;
                            break;
                        }
                    }
                }
                if uniform {
                    if let Some(p) = partition {
                        builder_cfg.partition = Some(PartitionInfo {
                            column: column.clone(),
                            partition_id: p,
                            num_partitions: *num_partitions,
                        });
                    }
                }
            }
        }

        let mut builder = SegmentBuilder::new(schema, builder_cfg)?;
        for r in rows {
            builder.add(r)?;
        }
        let segment = builder.build()?;
        let blob = Bytes::from(pinot_segment::persist::serialize(&segment));
        leader.upload_segment(&qualified, blob)
    }

    /// Upload rows pre-partitioned by the table's partition column, one
    /// segment per partition (the paper's partitioned offline push).
    pub fn upload_rows_partitioned(
        &self,
        logical_table: &str,
        rows: Vec<Record>,
    ) -> Result<Vec<SegmentName>> {
        let leader = self.leader_controller()?;
        let qualified = format!("{logical_table}_OFFLINE");
        let config = leader.table_config(&qualified)?;
        let schema = leader.table_schema(logical_table)?;
        let pinot_common::config::RoutingStrategy::Partitioned {
            column,
            num_partitions,
        } = &config.routing
        else {
            return Err(PinotError::Metadata(format!(
                "table {qualified} is not partitioned"
            )));
        };
        let idx = schema.column_index(column).ok_or_else(|| {
            PinotError::Schema(format!("partition column {column:?} not in schema"))
        })?;
        let mut buckets: Vec<Vec<Record>> = vec![Vec::new(); *num_partitions as usize];
        for r in rows {
            let p = pinot_common::partition::partition_for_value(&r.values()[idx], *num_partitions);
            buckets[p as usize].push(r);
        }
        let mut names = Vec::new();
        for bucket in buckets {
            if bucket.is_empty() {
                continue;
            }
            names.push(self.upload_rows(logical_table, bucket)?);
        }
        Ok(names)
    }

    // ---- realtime ingestion ----

    /// Publish one event to a stream topic, routed by partition key.
    pub fn produce(&self, topic: &str, key: &Value, record: Record) -> Result<(u32, u64)> {
        self.streams
            .topic(topic)?
            .produce(key, record, self.clock.now_millis())
    }

    /// Drive realtime consumption one step on every server. Returns the
    /// number of records ingested.
    pub fn consume_tick(&self) -> Result<usize> {
        let mut total = 0;
        for s in &self.servers {
            total += s.consume_tick()?;
        }
        Ok(total)
    }

    /// Pump consumption until no server makes progress (all stream data
    /// ingested and all due segment commits settled).
    pub fn consume_until_idle(&self) -> Result<usize> {
        let mut total = 0;
        loop {
            let before = self.total_consuming_rows();
            let n = self.consume_tick()?;
            total += n;
            let after = self.total_consuming_rows();
            if n == 0 && before == after {
                // One extra tick lets in-flight completion polls settle.
                self.consume_tick()?;
                if self.total_consuming_rows() == after && self.consume_tick()? == 0 {
                    break;
                }
            }
        }
        Ok(total)
    }

    fn total_consuming_rows(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.num_consuming_segments())
            .sum()
    }

    // ---- querying ----

    /// Execute a query through a broker.
    pub fn execute(&self, request: &QueryRequest) -> QueryResponse {
        self.broker().execute(request)
    }

    /// Convenience: run a PQL string with default settings.
    pub fn query(&self, pql: &str) -> QueryResponse {
        self.execute(&QueryRequest::new(pql))
    }

    /// Execute a query with profiling enabled: the response carries the
    /// merged broker → server → segment operator tree in
    /// [`QueryResponse::profile`](pinot_common::query::QueryResponse). The
    /// result payload and stats are identical to an unprofiled run.
    pub fn execute_profiled(&self, request: &QueryRequest) -> QueryResponse {
        let mut req = request.clone();
        req.profile = true;
        self.broker().execute(&req)
    }

    /// Run an `EXPLAIN` statement and render its report.
    ///
    /// `EXPLAIN PLAN FOR <query>` renders every hosted segment's plan
    /// decisions — prune verdict with level attribution, chosen plan kind,
    /// predicate evaluation order — without executing anything. `EXPLAIN
    /// ANALYZE <query>` executes with profiling and renders the measured
    /// per-operator tree plus the execution stats.
    /// Hybrid tables produce one section per physical table, each on the
    /// unrewritten query (the time-boundary rewrite happens only when the
    /// query actually executes).
    pub fn explain(&self, pql: &str) -> Result<String> {
        match pinot_pql::parse_statement(pql)? {
            pinot_pql::Statement::Select(_) => Err(PinotError::InvalidQuery(
                "not an EXPLAIN statement; use query() to execute".into(),
            )),
            pinot_pql::Statement::ExplainPlan(query) => self.explain_plan(&query),
            pinot_pql::Statement::ExplainAnalyze(_) => {
                // ANALYZE turns on the per-conjunct access-path report on
                // top of profiling; `execute_profiled` alone leaves it off.
                let mut req = QueryRequest::new(strip_explain_prefix(pql));
                req.profile = true;
                req.analyze = true;
                let resp = self.broker().execute(&req);
                let mut out = String::from("EXPLAIN ANALYZE\n");
                if let Some(profile) = &resp.profile {
                    out.push_str(&profile.render_text());
                }
                out.push_str(&format!(
                    "stats: docs_scanned={} segments_processed={} segments_pruned={} time_ms={}",
                    resp.stats.num_docs_scanned,
                    resp.stats.num_segments_processed,
                    resp.stats.num_segments_pruned,
                    resp.stats.time_used_ms,
                ));
                // Hedged servers, only when hedging fired, are visible
                // right in the ANALYZE output.
                if resp.stats.hedges_issued > 0 {
                    out.push_str(&format!(
                        " hedges={}/{}",
                        resp.stats.hedges_won, resp.stats.hedges_issued
                    ));
                }
                out.push('\n');
                for e in &resp.exceptions {
                    out.push_str(&format!("exception: {e}\n"));
                }
                Ok(out)
            }
        }
    }

    fn explain_plan(&self, query: &pinot_pql::Query) -> Result<String> {
        let tables = self.cluster.tables();
        let offline = format!("{}_OFFLINE", query.table);
        let realtime = format!("{}_REALTIME", query.table);
        let mut physical = Vec::new();
        if tables.contains(&query.table) {
            physical.push(query.table.clone());
        } else {
            if tables.contains(&offline) {
                physical.push(offline);
            }
            if tables.contains(&realtime) {
                physical.push(realtime);
            }
        }
        if physical.is_empty() {
            return Err(PinotError::Metadata(format!(
                "unknown table {:?}",
                query.table
            )));
        }
        let sections = physical.len();
        let mut out = String::new();
        for table in physical {
            // Replication hosts the same segment on several servers with
            // identical physical layout; keep the first explanation per
            // segment name for a deterministic, deduplicated plan.
            let mut by_name = std::collections::BTreeMap::new();
            for server in &self.servers {
                if server.hosted_segments(&table).is_empty() {
                    continue;
                }
                for e in server.explain_segments(&table, query)? {
                    by_name.entry(e.segment.clone()).or_insert(e);
                }
            }
            if sections > 1 {
                out.push_str(&format!("-- {table}\n"));
            }
            out.push_str(&pinot_exec::render_plan(
                query,
                by_name.into_values().collect(),
            ));
        }
        Ok(out)
    }

    // ---- observability ----

    /// The observability sink shared by every component of this cluster.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The fault injector shared by every component of this cluster; arm
    /// faults on it to exercise failure paths deterministically.
    pub fn chaos(&self) -> &Arc<FaultInjector> {
        &self.chaos
    }

    /// Point-in-time snapshot of all metrics recorded by the cluster's
    /// brokers, servers, and controllers.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.metrics.snapshot()
    }

    /// Recent slow, partial, or errored queries (with their profiles).
    pub fn recent_queries(&self) -> Vec<QueryLogEntry> {
        self.obs.query_log.recent()
    }

    /// Plain-text rendering of the current metrics, for dashboards/debug.
    pub fn render_metrics(&self) -> String {
        self.metrics_snapshot().render_text()
    }

    // ---- maintenance ----

    /// Run retention GC on the lead controller.
    pub fn run_retention(&self) -> Result<Vec<(String, String)>> {
        self.leader_controller()?.run_retention()
    }

    /// Run a purge task on the first minion.
    pub fn run_purge(&self, spec: &PurgeSpec) -> Result<TaskReport> {
        self.minions
            .first()
            .ok_or_else(|| PinotError::Cluster("no minions".into()))?
            .run_purge(spec)
    }

    /// Run a reindex task on the first minion.
    pub fn run_reindex(&self, table: &str) -> Result<TaskReport> {
        self.minions
            .first()
            .ok_or_else(|| PinotError::Cluster("no minions".into()))?
            .run_reindex(table)
    }

    // ---- failure injection (tests, fault-tolerance benchmarks) ----

    /// Kill a server: it leaves the cluster and its replicas leave the
    /// external view (brokers reroute on the next query).
    pub fn kill_server(&self, n: usize) -> Result<()> {
        let id = InstanceId::server(n);
        if !self.servers.iter().any(|s| *s.id() == id) {
            return Err(PinotError::Cluster(format!("no server {id}")));
        }
        self.cluster.unregister_participant(&id);
        Ok(())
    }

    /// Restart a killed server as a blank node (§3.4: any node can be
    /// replaced by a blank one) and reload its replicas.
    pub fn restart_server(&self, n: usize) -> Result<()> {
        let id = InstanceId::server(n);
        let server = self
            .servers
            .iter()
            .find(|s| *s.id() == id)
            .ok_or_else(|| PinotError::Cluster(format!("no server {id}")))?;
        self.cluster
            .register_participant(Arc::clone(server) as Arc<dyn pinot_cluster::Participant>);
        for table in self.cluster.tables() {
            self.cluster.rebalance(&table)?;
        }
        Ok(())
    }

    /// Crash the current lead controller; the group elects a new leader on
    /// the next call that needs one.
    pub fn crash_leader_controller(&self) -> Result<InstanceId> {
        let leader = self.leader_controller()?;
        let id = leader.id().clone();
        leader.crash();
        Ok(id)
    }
}
