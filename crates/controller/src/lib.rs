//! The Pinot controller (§3.2).
//!
//! Controllers own the authoritative segment→server mapping, handle
//! administrative operations (tables, schemas, uploads, deletion), garbage
//! collect expired segments, enforce storage quotas, and run the realtime
//! segment-completion protocol. Multiple controller instances run per
//! cluster with a single leader elected through the metastore; non-leaders
//! answer completion polls with `NOTLEADER` and administrative calls with a
//! `NotLeader` error, exactly mirroring the paper's three-controller
//! deployment where "non-leader controllers are mostly idle".

pub mod assignment;
pub mod completion;

use bytes::Bytes;
use completion::{CompletionConfig, CompletionFsm};
use parking_lot::Mutex;
use pinot_chaos::{sites, FaultAction, FaultContext, FaultInjector};
use pinot_cluster::{ClusterManager, IdealState, SegmentState};
use pinot_common::config::TableConfig;
use pinot_common::ids::{InstanceId, SegmentName, TableName, TableType};
use pinot_common::json::Json;
use pinot_common::protocol::{CompletionInstruction, CompletionPoll, Offset};
use pinot_common::time::Clock;
use pinot_common::{PinotError, Result, RetryPolicy, Schema};
use pinot_metastore::{MetaStore, SessionId};
use pinot_objstore::ObjectStoreRef;
use pinot_obs::Obs;
use pinot_segment::ImmutableSegment;
use pinot_stream::StreamRegistry;
use std::collections::HashMap;
use std::sync::Arc;

/// Election scope for controller leadership in the metastore.
const LEADER_SCOPE: &str = "controllers";

/// One controller instance.
pub struct Controller {
    id: InstanceId,
    metastore: MetaStore,
    session: SessionId,
    cluster: ClusterManager,
    objstore: ObjectStoreRef,
    streams: StreamRegistry,
    clock: Clock,
    completions: Mutex<HashMap<String, CompletionFsm>>,
    /// Gathering/commit timeouts handed to each new completion FSM.
    completion_config: CompletionConfig,
    obs: Arc<Obs>,
    /// Fault-injection hook; a default (empty) injector in production.
    chaos: Mutex<Arc<FaultInjector>>,
    /// Backoff for transient metastore write failures (CAS contention).
    retry: RetryPolicy,
}

impl Controller {
    pub fn new(
        n: usize,
        metastore: MetaStore,
        cluster: ClusterManager,
        objstore: ObjectStoreRef,
        streams: StreamRegistry,
        clock: Clock,
    ) -> Arc<Controller> {
        Controller::with_obs(
            n,
            metastore,
            cluster,
            objstore,
            streams,
            clock,
            Obs::shared(),
        )
    }

    /// Like [`Controller::new`] but sharing a cluster-wide observability sink.
    pub fn with_obs(
        n: usize,
        metastore: MetaStore,
        cluster: ClusterManager,
        objstore: ObjectStoreRef,
        streams: StreamRegistry,
        clock: Clock,
        obs: Arc<Obs>,
    ) -> Arc<Controller> {
        let session = metastore.create_session();
        Arc::new(Controller {
            id: InstanceId::controller(n),
            metastore,
            session,
            cluster,
            objstore,
            streams,
            clock,
            completions: Mutex::new(HashMap::new()),
            completion_config: CompletionConfig::default(),
            obs,
            chaos: Mutex::new(Arc::new(FaultInjector::new())),
            retry: RetryPolicy::default().with_seed(0x5EED ^ n as u64),
        })
    }

    /// Install a shared fault injector (chaos tests); the default injector
    /// has nothing armed and injects nothing.
    pub fn set_fault_injector(&self, chaos: Arc<FaultInjector>) {
        *self.chaos.lock() = chaos;
    }

    fn chaos(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.chaos.lock())
    }

    /// Write to the metastore with chaos interception and bounded retry:
    /// transient failures (injected CAS contention, I/O blips) back off and
    /// re-issue the same write; genuine version conflicts are `Metadata`
    /// errors, which are *not* retriable — re-sending a stale CAS can only
    /// fail again, so those propagate for the caller to re-read.
    fn meta_set_retried(
        &self,
        path: &str,
        value: String,
        expected_version: Option<u64>,
    ) -> Result<u64> {
        let chaos = self.chaos();
        let ctx = FaultContext::new().instance(self.id.to_string());
        self.retry.run(|attempt| {
            if attempt > 1 {
                self.obs.metrics.counter_add("controller.meta.cas_retry", 1);
            }
            if let Some(action) = chaos.intercept(sites::METASTORE_CAS, &ctx) {
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
            self.metastore.set(path, value.clone(), expected_version)
        })
    }

    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    pub fn id(&self) -> &InstanceId {
        &self.id
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn cluster(&self) -> &ClusterManager {
        &self.cluster
    }

    pub fn objstore(&self) -> &ObjectStoreRef {
        &self.objstore
    }

    /// Try to acquire (or confirm) leadership.
    pub fn try_become_leader(&self) -> bool {
        self.metastore
            .elect_leader(LEADER_SCOPE, self.session, self.id.as_str())
            .unwrap_or(false)
    }

    pub fn is_leader(&self) -> bool {
        self.metastore.leader(LEADER_SCOPE).as_deref() == Some(self.id.as_str())
    }

    /// Simulate this controller crashing: its session expires (releasing
    /// leadership) and its in-memory completion FSMs are lost.
    pub fn crash(&self) {
        self.metastore.expire_session(self.session);
        self.completions.lock().clear();
    }

    fn require_leader(&self) -> Result<()> {
        if self.is_leader() {
            Ok(())
        } else {
            Err(PinotError::NotLeader(format!(
                "{} is not the lead controller",
                self.id
            )))
        }
    }

    // ---- table administration ----

    /// Create a table (and register its schema). For realtime tables this
    /// also provisions the initial consuming segments on every stream
    /// partition.
    pub fn create_table(&self, config: TableConfig, schema: Schema) -> Result<()> {
        self.require_leader()?;
        config.validate()?;
        let table = TableName::new(config.name.clone(), config.table_type);
        let config_path = format!("/configs/{}", table.qualified());
        if self.metastore.exists(&config_path) {
            return Err(PinotError::Metadata(format!(
                "table {} already exists",
                table.qualified()
            )));
        }
        self.meta_set_retried(
            &format!("/schemas/{}", config.name),
            schema.to_json().emit(),
            None,
        )?;
        self.metastore
            .create(&config_path, config.to_json().emit(), None)?;
        self.cluster
            .update_ideal_state(&table.qualified(), |ideal| *ideal = IdealState::default())?;

        if config.table_type == TableType::Realtime {
            self.provision_consuming_segments(&table, &config)?;
        }
        Ok(())
    }

    /// Remove a table: drop replicas, delete blobs and metadata.
    pub fn delete_table(&self, name: &str, table_type: TableType) -> Result<()> {
        self.require_leader()?;
        let table = TableName::new(name, table_type);
        let qualified = table.qualified();
        self.cluster.remove_table(&qualified)?;
        for key in self.objstore.list(&format!("segments/{qualified}/")) {
            let _ = self.objstore.delete(&key);
        }
        for child in self.metastore.children(&format!("/segments/{qualified}")) {
            let _ = self
                .metastore
                .delete(&format!("/segments/{qualified}/{child}"));
        }
        self.metastore.delete(&format!("/configs/{qualified}"))?;
        Ok(())
    }

    pub fn table_config(&self, qualified: &str) -> Result<TableConfig> {
        let (text, _) = self
            .metastore
            .get(&format!("/configs/{qualified}"))
            .ok_or_else(|| PinotError::Metadata(format!("no table {qualified}")))?;
        TableConfig::from_json(&Json::parse(&text)?)
    }

    pub fn table_schema(&self, raw_name: &str) -> Result<Schema> {
        let (text, _) = self
            .metastore
            .get(&format!("/schemas/{raw_name}"))
            .ok_or_else(|| PinotError::Metadata(format!("no schema for {raw_name}")))?;
        Schema::from_json(&Json::parse(&text)?)
    }

    /// All physical tables (qualified names).
    pub fn list_tables(&self) -> Vec<String> {
        self.metastore.children("/configs")
    }

    /// Schema evolution: add a column on the fly (§5.2). Existing segments
    /// keep serving the default value for the new column.
    pub fn add_column(&self, raw_name: &str, field: pinot_common::FieldSpec) -> Result<Schema> {
        self.require_leader()?;
        let schema = self.table_schema(raw_name)?;
        let evolved = schema.with_added_column(field)?;
        self.meta_set_retried(
            &format!("/schemas/{raw_name}"),
            evolved.to_json().emit(),
            None,
        )?;
        Ok(evolved)
    }

    /// Update a table's config (index settings, routing, quotas, ...).
    pub fn update_table_config(&self, config: TableConfig) -> Result<()> {
        self.require_leader()?;
        config.validate()?;
        let table = TableName::new(config.name.clone(), config.table_type);
        let path = format!("/configs/{}", table.qualified());
        if !self.metastore.exists(&path) {
            return Err(PinotError::Metadata(format!(
                "table {} does not exist",
                table.qualified()
            )));
        }
        self.meta_set_retried(&path, config.to_json().emit(), None)?;
        Ok(())
    }

    // ---- segment upload (offline push, §3.3.5 / Figure 8) ----

    /// Upload a serialized segment blob to a table. The controller unpacks
    /// it to verify integrity, checks the storage quota, persists blob +
    /// metadata, and updates the ideal state so servers load it.
    pub fn upload_segment(&self, qualified_table: &str, blob: Bytes) -> Result<SegmentName> {
        self.require_leader()?;
        let config = self.table_config(qualified_table)?;

        // 1. Unpack to verify integrity.
        let segment = pinot_segment::persist::deserialize(&blob)?;
        let segment_name = SegmentName::from_raw(segment.name());

        // 2. Quota check: existing data plus this blob must fit.
        if let Some(quota) = config.quota_bytes {
            let used = self
                .objstore
                .size_under(&format!("segments/{qualified_table}/"));
            if used + blob.len() as u64 > quota {
                return Err(PinotError::StorageQuota(format!(
                    "table {qualified_table} quota {quota}B exceeded ({used}B used, +{}B)",
                    blob.len()
                )));
            }
        }

        // 3. Persist blob, then metadata.
        self.objstore
            .put(&format!("segments/{qualified_table}/{segment_name}"), blob)?;
        self.write_segment_metadata(qualified_table, &segment)?;

        // 4. Assign replicas and update the desired cluster state.
        let servers = self.assign_servers(qualified_table, config.replication)?;
        let name = segment_name.as_str();
        // Re-uploading an existing name replaces the segment: drop old
        // replicas first so servers reload the new blob.
        let replacing = self
            .cluster
            .ideal_state(qualified_table)
            .is_some_and(|ideal| ideal.segments.contains_key(name));
        if replacing {
            self.cluster.update_ideal_state(qualified_table, |ideal| {
                ideal.segments.remove(name);
            })?;
        }
        self.cluster.update_ideal_state(qualified_table, |ideal| {
            for s in servers {
                ideal.assign(name, s, SegmentState::Online);
            }
        })?;
        Ok(segment_name)
    }

    fn write_segment_metadata(&self, qualified: &str, segment: &ImmutableSegment) -> Result<()> {
        let m = segment.metadata();
        let mut pairs: Vec<(&str, Json)> = vec![
            ("numDocs", (m.num_docs as u64).into()),
            ("sizeBytes", m.size_bytes.into()),
            ("createdAtMillis", m.created_at_millis.into()),
        ];
        if let (Some(lo), Some(hi)) = (m.min_time, m.max_time) {
            pairs.push(("minTime", lo.into()));
            pairs.push(("maxTime", hi.into()));
        }
        if let Some((s, e)) = m.offset_range {
            pairs.push(("startOffset", s.into()));
            pairs.push(("endOffset", e.into()));
        }
        if let Some(p) = &m.partition {
            pairs.push(("partitionColumn", p.column.as_str().into()));
            pairs.push(("partitionId", (p.partition_id as u64).into()));
            pairs.push(("numPartitions", (p.num_partitions as u64).into()));
        }
        // Per-column zone maps for broker-side pruning. Bounds are encoded
        // as strings so integer values survive the f64-typed JSON numbers
        // exactly; non-finite float bounds are skipped (the broker then
        // treats the column as statless and never prunes on it).
        let mut columns = std::collections::BTreeMap::new();
        for c in &m.columns {
            let (Some(min), Some(max)) = (&c.min, &c.max) else {
                continue;
            };
            let (Some(min_s), Some(max_s)) = (zone_bound_str(min), zone_bound_str(max)) else {
                continue;
            };
            columns.insert(
                c.name.clone(),
                Json::obj(vec![
                    ("type", c.data_type.name().into()),
                    ("sv", Json::Bool(c.single_value)),
                    ("min", Json::Str(min_s)),
                    ("max", Json::Str(max_s)),
                ]),
            );
        }
        if !columns.is_empty() {
            pairs.push(("columns", Json::Obj(columns)));
        }
        self.meta_set_retried(
            &format!("/segments/{qualified}/{}", m.segment_name),
            Json::obj(pairs).emit(),
            None,
        )?;
        Ok(())
    }

    /// Segment names registered for a table.
    pub fn list_segments(&self, qualified: &str) -> Vec<String> {
        self.metastore.children(&format!("/segments/{qualified}"))
    }

    /// Live server instances (participants whose id says "Server_").
    fn live_servers(&self) -> Vec<InstanceId> {
        self.cluster
            .live_instances()
            .into_iter()
            .filter(|i| i.as_str().starts_with("Server_"))
            .collect()
    }

    fn assign_servers(&self, qualified: &str, replication: usize) -> Result<Vec<InstanceId>> {
        let servers = self.live_servers();
        let ideal = self.cluster.ideal_state(qualified).unwrap_or_default();
        assignment::balanced_assignment(&servers, &ideal, replication)
    }

    // ---- retention (§3.2: segments past retention are GCed) ----

    /// Drop segments wholly older than the table retention window.
    /// Returns `(table, segment)` pairs that were removed.
    pub fn run_retention(&self) -> Result<Vec<(String, String)>> {
        self.require_leader()?;
        let mut removed = Vec::new();
        let now_ms = self.clock.now_millis();
        for qualified in self.list_tables() {
            let config = self.table_config(&qualified)?;
            let Some(retention) = &config.retention else {
                continue;
            };
            let schema = self.table_schema(&config.name)?;
            let Some(tc) = schema.time_column() else {
                continue;
            };
            let unit_ms = tc.time_unit.expect("validated by schema").millis();
            let cutoff_ms = now_ms - retention.duration * retention.unit.millis();

            let mut expired = Vec::new();
            for seg in self.list_segments(&qualified) {
                let Some((text, _)) = self.metastore.get(&format!("/segments/{qualified}/{seg}"))
                else {
                    continue;
                };
                let meta = Json::parse(&text)?;
                let Some(max_time) = meta.get("maxTime").and_then(Json::as_i64) else {
                    continue;
                };
                if max_time * unit_ms < cutoff_ms {
                    expired.push(seg);
                }
            }
            if expired.is_empty() {
                continue;
            }
            self.cluster.update_ideal_state(&qualified, |ideal| {
                for seg in &expired {
                    ideal.segments.remove(seg);
                }
            })?;
            for seg in expired {
                let _ = self.objstore.delete(&format!("segments/{qualified}/{seg}"));
                let _ = self
                    .metastore
                    .delete(&format!("/segments/{qualified}/{seg}"));
                removed.push((qualified.clone(), seg));
            }
        }
        Ok(removed)
    }

    // ---- realtime: consuming segment provisioning and completion ----

    fn provision_consuming_segments(&self, table: &TableName, config: &TableConfig) -> Result<()> {
        let stream = config
            .stream
            .as_ref()
            .expect("validated: realtime tables have stream configs");
        let topic = self.streams.topic(&stream.topic)?;
        let qualified = table.qualified();
        let mut assigned = Vec::new();
        for partition in 0..topic.num_partitions() {
            let start = topic.latest_offset(partition)?;
            let segment = SegmentName::realtime(&qualified, partition, 0);
            let servers = self.assign_servers(&qualified, config.replication)?;
            self.meta_set_retried(
                &format!("/segments/{qualified}/{segment}"),
                Json::obj(vec![
                    ("consuming", true.into()),
                    ("partition", (partition as u64).into()),
                    ("sequence", 0u64.into()),
                    ("startOffset", start.into()),
                ])
                .emit(),
                None,
            )?;
            assigned.push((segment, servers));
        }
        self.cluster.update_ideal_state(&qualified, |ideal| {
            for (segment, servers) in assigned {
                for s in servers {
                    ideal.assign(segment.as_str(), s, SegmentState::Consuming);
                }
            }
        })
    }

    /// Completion-protocol poll endpoint (servers call this repeatedly when
    /// their consuming segment reaches its end criteria).
    pub fn segment_completion_poll(&self, poll: &CompletionPoll) -> CompletionInstruction {
        if !self.is_leader() {
            self.obs
                .metrics
                .counter_add("controller.completion.instruction.NOTLEADER", 1);
            return CompletionInstruction::NotLeader;
        }
        let mut fsms = self.completions.lock();
        let fsm = fsms
            .entry(poll.segment.as_str().to_string())
            .or_insert_with(|| {
                let mut cfg = self.completion_config.clone();
                // Quorum = replicas assigned to this segment in the ideal
                // state (fall back to 1). Realtime segment names embed the
                // qualified table name before the first "__".
                if let Some((table, _)) = poll.segment.as_str().split_once("__") {
                    if let Some(ideal) = self.cluster.ideal_state(table) {
                        let n = ideal.instances_for(poll.segment.as_str()).len();
                        if n > 0 {
                            cfg.replicas = n;
                        }
                    }
                }
                CompletionFsm::new(cfg)
            });
        let before = fsm.phase_name();
        let instruction = fsm.on_poll(&poll.instance, poll.offset, self.clock.now_millis());
        self.record_fsm_transition(before, fsm.phase_name());
        self.obs.metrics.counter_add(
            &format!("controller.completion.instruction.{}", instruction.name()),
            1,
        );
        instruction
    }

    fn record_fsm_transition(&self, before: &str, after: &str) {
        if before != after {
            self.obs
                .metrics
                .counter_add(&format!("controller.fsm.transition.{before}_{after}"), 1);
        }
    }

    /// Commit endpoint: the designated committer uploads its sealed
    /// segment. On success the segment goes ONLINE on all replicas and the
    /// next consuming segment is provisioned from the committed offset.
    pub fn commit_segment(
        &self,
        qualified_table: &str,
        segment: &SegmentName,
        instance: &InstanceId,
        end_offset: Offset,
        blob: Bytes,
    ) -> Result<bool> {
        if !self.is_leader() {
            return Err(PinotError::NotLeader(self.id.to_string()));
        }
        let accepted = {
            let mut fsms = self.completions.lock();
            let Some(fsm) = fsms.get_mut(segment.as_str()) else {
                return Ok(false);
            };
            if fsm.committer() != Some(instance) {
                return Ok(false);
            }
            // Verify integrity before accepting.
            let ok = pinot_segment::persist::deserialize(&blob).is_ok();
            let before = fsm.phase_name();
            let accepted = fsm.on_commit_result(instance, end_offset, ok, self.clock.now_millis());
            self.record_fsm_transition(before, fsm.phase_name());
            accepted
        };
        if !accepted {
            self.obs
                .metrics
                .counter_add("controller.commit.rejected", 1);
            return Ok(false);
        }
        self.obs.metrics.counter_add("controller.commit.ok", 1);

        let parsed = pinot_segment::persist::deserialize(&blob)?;
        self.objstore
            .put(&format!("segments/{qualified_table}/{segment}"), blob)?;
        self.write_segment_metadata(qualified_table, &parsed)?;

        // Flip the committed segment ONLINE and start the next consuming
        // segment on the same replicas.
        let (partition, sequence) = segment
            .realtime_parts()
            .ok_or_else(|| PinotError::Internal("commit of non-realtime segment".into()))?;
        let next = SegmentName::realtime(qualified_table, partition, sequence + 1);
        self.meta_set_retried(
            &format!("/segments/{qualified_table}/{next}"),
            Json::obj(vec![
                ("consuming", true.into()),
                ("partition", (partition as u64).into()),
                ("sequence", (sequence + 1).into()),
                ("startOffset", end_offset.into()),
            ])
            .emit(),
            None,
        )?;
        // One atomic update: a partition committing in the same tick
        // must not overwrite this one's change, nor this one its.
        self.cluster.update_ideal_state(qualified_table, |ideal| {
            for r in ideal.instances_for(segment.as_str()) {
                ideal.assign(segment.as_str(), r.clone(), SegmentState::Online);
                ideal.assign(next.as_str(), r, SegmentState::Consuming);
            }
        })?;
        Ok(true)
    }

    /// Start offset recorded for a consuming segment.
    pub fn consuming_start_offset(&self, qualified: &str, segment: &SegmentName) -> Result<Offset> {
        let (text, _) = self
            .metastore
            .get(&format!("/segments/{qualified}/{segment}"))
            .ok_or_else(|| PinotError::Metadata(format!("no metadata for {segment}")))?;
        Json::parse(&text)?
            .get("startOffset")
            .and_then(Json::as_i64)
            .map(|v| v as Offset)
            .ok_or_else(|| PinotError::Metadata(format!("segment {segment} has no startOffset")))
    }

    /// Fetch a committed segment blob (servers executing DISCARD or the
    /// OFFLINE→ONLINE load path).
    pub fn download_segment(&self, qualified: &str, segment: &str) -> Result<Bytes> {
        self.objstore
            .get(&format!("segments/{qualified}/{segment}"))
    }
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("id", &self.id)
            .field("leader", &self.is_leader())
            .finish()
    }
}

/// The set of controller instances in a cluster (the paper runs three per
/// datacenter). Callers address the group; it resolves the current leader
/// and re-elects on failure.
#[derive(Clone)]
pub struct ControllerGroup {
    metastore: MetaStore,
    controllers: Arc<parking_lot::RwLock<Vec<Arc<Controller>>>>,
    obs: Arc<Obs>,
}

impl ControllerGroup {
    pub fn new(metastore: MetaStore) -> ControllerGroup {
        ControllerGroup::with_obs(metastore, Obs::shared())
    }

    /// Like [`ControllerGroup::new`] but sharing a cluster-wide
    /// observability sink (leader election counts land there).
    pub fn with_obs(metastore: MetaStore, obs: Arc<Obs>) -> ControllerGroup {
        ControllerGroup {
            metastore,
            controllers: Arc::new(parking_lot::RwLock::new(Vec::new())),
            obs,
        }
    }

    pub fn add(&self, controller: Arc<Controller>) {
        self.controllers.write().push(controller);
    }

    pub fn all(&self) -> Vec<Arc<Controller>> {
        self.controllers.read().clone()
    }

    /// The current lead controller; if none holds leadership, the first
    /// live candidate is elected.
    pub fn leader(&self) -> Option<Arc<Controller>> {
        let controllers = self.controllers.read();
        if let Some(leader_id) = self.metastore.leader(LEADER_SCOPE) {
            if let Some(c) = controllers.iter().find(|c| c.id().as_str() == leader_id) {
                return Some(Arc::clone(c));
            }
        }
        // Nobody is leader: elect the first that succeeds.
        for c in controllers.iter() {
            if c.try_become_leader() {
                self.obs
                    .metrics
                    .counter_add("controller.leader.elections", 1);
                return Some(Arc::clone(c));
            }
        }
        None
    }
}

/// Exact string encoding of one zone-map bound for segment metadata JSON
/// (the broker's zone-map parser in `pinot-broker` is the inverse).
/// Strings carry integers without the f64 precision loss of JSON numbers;
/// non-finite float bounds yield `None` — JSON cannot carry them.
fn zone_bound_str(v: &pinot_common::Value) -> Option<String> {
    use pinot_common::Value;
    match v {
        Value::Int(x) => Some(x.to_string()),
        Value::Long(x) => Some(x.to_string()),
        Value::Float(x) => x.is_finite().then(|| format!("{x}")),
        Value::Double(x) => x.is_finite().then(|| format!("{x}")),
        Value::String(s) => Some(s.clone()),
        Value::Boolean(b) => Some(b.to_string()),
        _ => None,
    }
}
