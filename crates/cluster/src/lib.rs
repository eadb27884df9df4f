//! Helix-like cluster management (§3.2–3.3, Figures 2–4).
//!
//! Apache Helix models cluster state with per-resource state machines: an
//! operator-owned **ideal state** (which instance should hold which segment
//! in which state) and an observed **external view** (what instances
//! actually report). When the ideal state changes, the manager computes the
//! per-replica state transitions and dispatches them to *participants*
//! (servers); successful transitions update the external view, failures
//! park the replica in `Error`. Brokers subscribe to external-view changes
//! to refresh their routing tables (§3.3.2).
//!
//! The segment state machine is the paper's Figure 3:
//!
//! ```text
//! OFFLINE → ONLINE      (load an immutable segment)
//! OFFLINE → CONSUMING   (start a realtime consuming segment)
//! CONSUMING → ONLINE    (completion protocol committed the segment)
//! CONSUMING → OFFLINE   (abort consumption)
//! ONLINE → OFFLINE      (unload)
//! OFFLINE → DROPPED     (delete local data)
//! ```

use parking_lot::{Mutex, RwLock};
use pinot_common::ids::InstanceId;
use pinot_common::{PinotError, Result};
use pinot_metastore::MetaStore;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Replica state in the segment state machine (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentState {
    Offline,
    Consuming,
    Online,
    Error,
    Dropped,
}

impl SegmentState {
    pub fn name(&self) -> &'static str {
        match self {
            SegmentState::Offline => "OFFLINE",
            SegmentState::Consuming => "CONSUMING",
            SegmentState::Online => "ONLINE",
            SegmentState::Error => "ERROR",
            SegmentState::Dropped => "DROPPED",
        }
    }
}

/// The legal single-step transitions of the state machine.
pub fn legal_transition(from: SegmentState, to: SegmentState) -> bool {
    use SegmentState::*;
    matches!(
        (from, to),
        (Offline, Online)
            | (Offline, Consuming)
            | (Consuming, Online)
            | (Consuming, Offline)
            | (Online, Offline)
            | (Offline, Dropped)
            | (Error, Offline)
    )
}

/// The shortest legal path from `from` to `to`, excluding `from` itself.
/// `None` when unreachable.
pub fn transition_path(from: SegmentState, to: SegmentState) -> Option<Vec<SegmentState>> {
    use SegmentState::*;
    if from == to {
        return Some(Vec::new());
    }
    // The machine is tiny; enumerate breadth-first.
    let mut frontier = vec![(from, Vec::new())];
    let mut seen = vec![from];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for (state, path) in frontier {
            for cand in [Offline, Consuming, Online, Error, Dropped] {
                if !legal_transition(state, cand) || seen.contains(&cand) {
                    continue;
                }
                let mut p: Vec<SegmentState> = path.clone();
                p.push(cand);
                if cand == to {
                    return Some(p);
                }
                seen.push(cand);
                next.push((cand, p));
            }
        }
        frontier = next;
    }
    None
}

/// Desired placement of one table's segments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdealState {
    /// segment name → instance → desired state.
    pub segments: BTreeMap<String, BTreeMap<InstanceId, SegmentState>>,
}

impl IdealState {
    pub fn assign(&mut self, segment: &str, instance: InstanceId, state: SegmentState) {
        self.segments
            .entry(segment.to_string())
            .or_default()
            .insert(instance, state);
    }

    /// Instances assigned (in any state) to a segment.
    pub fn instances_for(&self, segment: &str) -> Vec<InstanceId> {
        self.segments
            .get(segment)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }
}

/// Observed placement: segment → instance → current state.
pub type ExternalView = BTreeMap<String, BTreeMap<InstanceId, SegmentState>>;

/// A node that executes state transitions (servers).
pub trait Participant: Send + Sync {
    fn instance_id(&self) -> InstanceId;

    /// Execute one state transition; an error parks the replica in ERROR.
    fn handle_transition(
        &self,
        table: &str,
        segment: &str,
        from: SegmentState,
        to: SegmentState,
    ) -> Result<()>;
}

/// Change notification delivered to external-view subscribers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChange {
    pub table: String,
    pub segment: String,
    pub instance: InstanceId,
    pub state: SegmentState,
}

type ViewSubscriber = Box<dyn Fn(&ViewChange) + Send + Sync>;

struct Inner {
    participants: HashMap<InstanceId, Arc<dyn Participant>>,
    ideal: HashMap<String, IdealState>,
    view: HashMap<String, ExternalView>,
    subscribers: Vec<ViewSubscriber>,
}

/// The cluster manager (one logical instance per cluster, like the Helix
/// controller embedded in each Pinot controller).
#[derive(Clone)]
pub struct ClusterManager {
    metastore: MetaStore,
    inner: Arc<RwLock<Inner>>,
    /// Held across every ideal-state read → mutate → store → persist, so
    /// two concurrent updates of a table cannot lose each other's change.
    ideal_writes: Arc<Mutex<()>>,
}

impl ClusterManager {
    pub fn new(metastore: MetaStore) -> ClusterManager {
        ClusterManager {
            metastore,
            inner: Arc::new(RwLock::new(Inner {
                participants: HashMap::new(),
                ideal: HashMap::new(),
                view: HashMap::new(),
                subscribers: Vec::new(),
            })),
            ideal_writes: Arc::new(Mutex::new(())),
        }
    }

    pub fn metastore(&self) -> &MetaStore {
        &self.metastore
    }

    /// Register a live participant (server joining the cluster).
    pub fn register_participant(&self, p: Arc<dyn Participant>) {
        let id = p.instance_id();
        self.inner.write().participants.insert(id.clone(), p);
        let _ = self
            .metastore
            .set(&format!("/instances/{id}"), "live", None);
    }

    /// Remove a participant (node death). Its replicas leave the external
    /// view so brokers stop routing to it; ideal state is untouched, and a
    /// later `rebalance` will re-dispatch transitions when it returns.
    pub fn unregister_participant(&self, id: &InstanceId) {
        let mut inner = self.inner.write();
        inner.participants.remove(id);
        let mut changes = Vec::new();
        for (table, view) in inner.view.iter_mut() {
            for (segment, replicas) in view.iter_mut() {
                if replicas.remove(id).is_some() {
                    changes.push(ViewChange {
                        table: table.clone(),
                        segment: segment.clone(),
                        instance: id.clone(),
                        state: SegmentState::Offline,
                    });
                }
            }
        }
        for c in &changes {
            for s in &inner.subscribers {
                s(c);
            }
        }
        drop(inner);
        let _ = self.metastore.delete(&format!("/instances/{id}"));
    }

    pub fn live_instances(&self) -> Vec<InstanceId> {
        let mut v: Vec<InstanceId> = self.inner.read().participants.keys().cloned().collect();
        v.sort();
        v
    }

    /// Subscribe to external-view changes (broker routing refresh).
    pub fn subscribe_view(&self, f: impl Fn(&ViewChange) + Send + Sync + 'static) {
        self.inner.write().subscribers.push(Box::new(f));
    }

    /// Replace a table's ideal state and reconcile.
    pub fn set_ideal_state(&self, table: &str, ideal: IdealState) -> Result<()> {
        self.update_ideal_state(table, |current| *current = ideal)
    }

    /// Read-modify-write a table's ideal state, then reconcile. `f`
    /// mutates the current state (empty when the table has none); the
    /// result is stored and persisted before any other update can read
    /// it. Reconciliation runs after the lock is released, because it
    /// calls out to participants.
    pub fn update_ideal_state<T>(
        &self,
        table: &str,
        f: impl FnOnce(&mut IdealState) -> T,
    ) -> Result<T> {
        let out = {
            let _writer = self.ideal_writes.lock();
            let mut ideal = self.ideal_state(table).unwrap_or_default();
            let out = f(&mut ideal);
            // Persist for observability and controller failover.
            let rendered: Vec<String> = ideal
                .segments
                .iter()
                .flat_map(|(seg, m)| {
                    m.iter()
                        .map(move |(inst, st)| format!("{seg}:{inst}:{}", st.name()))
                })
                .collect();
            self.inner.write().ideal.insert(table.to_string(), ideal);
            self.metastore
                .set(&format!("/idealstates/{table}"), rendered.join(","), None)?;
            out
        };
        self.rebalance(table)?;
        Ok(out)
    }

    pub fn ideal_state(&self, table: &str) -> Option<IdealState> {
        self.inner.read().ideal.get(table).cloned()
    }

    /// Remove a table entirely (ideal state + external view after drops).
    pub fn remove_table(&self, table: &str) -> Result<()> {
        self.set_ideal_state(table, IdealState::default())?;
        let _writer = self.ideal_writes.lock();
        let mut inner = self.inner.write();
        inner.ideal.remove(table);
        inner.view.remove(table);
        drop(inner);
        let _ = self.metastore.delete(&format!("/idealstates/{table}"));
        Ok(())
    }

    /// Current external view snapshot for a table.
    pub fn external_view(&self, table: &str) -> ExternalView {
        self.inner
            .read()
            .view
            .get(table)
            .cloned()
            .unwrap_or_default()
    }

    /// All tables with an ideal state.
    pub fn tables(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().ideal.keys().cloned().collect();
        v.sort();
        v
    }

    /// Reconcile one table: walk every (segment, replica) whose external
    /// state differs from the ideal state and dispatch the transition path.
    pub fn rebalance(&self, table: &str) -> Result<()> {
        let mut work = Vec::new();
        {
            let inner = self.inner.read();
            let Some(ideal) = inner.ideal.get(table) else {
                return Err(PinotError::Cluster(format!("no ideal state for {table}")));
            };
            let view = inner.view.get(table).cloned().unwrap_or_default();
            for (segment, replicas) in &ideal.segments {
                for (instance, &target) in replicas {
                    if !inner.participants.contains_key(instance) {
                        continue; // dead node; retried on rejoin
                    }
                    let current = view
                        .get(segment)
                        .and_then(|m| m.get(instance))
                        .copied()
                        .unwrap_or(SegmentState::Offline);
                    if current != target && current != SegmentState::Error {
                        work.push((segment.clone(), instance.clone(), current, target));
                    }
                }
            }
            // Replicas in the view but no longer in the ideal state drop.
            for (segment, replicas) in &view {
                for (instance, &current) in replicas {
                    let still_wanted = ideal
                        .segments
                        .get(segment)
                        .is_some_and(|m| m.contains_key(instance));
                    if !still_wanted
                        && current != SegmentState::Dropped
                        && inner.participants.contains_key(instance)
                    {
                        work.push((
                            segment.clone(),
                            instance.clone(),
                            current,
                            SegmentState::Dropped,
                        ));
                    }
                }
            }
        }

        for (segment, instance, current, target) in work {
            self.run_transitions(table, &segment, &instance, current, target);
        }
        Ok(())
    }

    fn run_transitions(
        &self,
        table: &str,
        segment: &str,
        instance: &InstanceId,
        from: SegmentState,
        to: SegmentState,
    ) {
        let Some(path) = transition_path(from, to) else {
            self.record_state(table, segment, instance, SegmentState::Error);
            return;
        };
        let participant = match self.inner.read().participants.get(instance) {
            Some(p) => Arc::clone(p),
            None => return,
        };
        let mut current = from;
        for next in path {
            match participant.handle_transition(table, segment, current, next) {
                Ok(()) => {
                    current = next;
                    self.record_state(table, segment, instance, next);
                }
                Err(_) => {
                    self.record_state(table, segment, instance, SegmentState::Error);
                    return;
                }
            }
        }
    }

    /// Record an observed state (also used by servers reporting transitions
    /// they initiate themselves, e.g. CONSUMING→ONLINE after a commit).
    pub fn record_state(
        &self,
        table: &str,
        segment: &str,
        instance: &InstanceId,
        state: SegmentState,
    ) {
        let mut inner = self.inner.write();
        let view = inner.view.entry(table.to_string()).or_default();
        if state == SegmentState::Dropped {
            if let Some(m) = view.get_mut(segment) {
                m.remove(instance);
                if m.is_empty() {
                    view.remove(segment);
                }
            }
        } else {
            view.entry(segment.to_string())
                .or_default()
                .insert(instance.clone(), state);
        }
        let change = ViewChange {
            table: table.to_string(),
            segment: segment.to_string(),
            instance: instance.clone(),
            state,
        };
        for s in &inner.subscribers {
            s(&change);
        }
    }

    /// Segments a broker may route to on each instance (ONLINE or
    /// CONSUMING replicas only).
    pub fn routable_view(&self, table: &str) -> BTreeMap<InstanceId, Vec<String>> {
        let mut out: BTreeMap<InstanceId, Vec<String>> = BTreeMap::new();
        for (segment, replicas) in self.external_view(table) {
            for (instance, state) in replicas {
                if matches!(state, SegmentState::Online | SegmentState::Consuming) {
                    out.entry(instance).or_default().push(segment.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// Test participant that records transitions and can be told to fail.
    struct FakeServer {
        id: InstanceId,
        log: Mutex<Vec<(String, String, SegmentState, SegmentState)>>,
        fail_on: Mutex<Option<SegmentState>>,
    }

    impl FakeServer {
        fn new(n: usize) -> Arc<FakeServer> {
            Arc::new(FakeServer {
                id: InstanceId::server(n),
                log: Mutex::new(Vec::new()),
                fail_on: Mutex::new(None),
            })
        }
    }

    impl Participant for FakeServer {
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
            if *self.fail_on.lock() == Some(to) {
                return Err(PinotError::Segment("injected failure".into()));
            }
            self.log
                .lock()
                .push((table.to_string(), segment.to_string(), from, to));
            Ok(())
        }
    }

    #[test]
    fn transition_paths() {
        use SegmentState::*;
        assert_eq!(transition_path(Offline, Online), Some(vec![Online]));
        assert_eq!(transition_path(Offline, Consuming), Some(vec![Consuming]));
        assert_eq!(
            transition_path(Online, Dropped),
            Some(vec![Offline, Dropped])
        );
        assert_eq!(
            transition_path(Consuming, Dropped),
            Some(vec![Offline, Dropped])
        );
        assert_eq!(transition_path(Online, Online), Some(vec![]));
        assert_eq!(transition_path(Dropped, Online), None);
    }

    #[test]
    fn ideal_state_drives_transitions() {
        let cm = ClusterManager::new(MetaStore::new());
        let s1 = FakeServer::new(1);
        let s2 = FakeServer::new(2);
        cm.register_participant(s1.clone());
        cm.register_participant(s2.clone());

        let mut ideal = IdealState::default();
        ideal.assign("seg_a", InstanceId::server(1), SegmentState::Online);
        ideal.assign("seg_a", InstanceId::server(2), SegmentState::Online);
        ideal.assign("seg_b", InstanceId::server(1), SegmentState::Online);
        cm.set_ideal_state("t_OFFLINE", ideal).unwrap();

        let view = cm.external_view("t_OFFLINE");
        assert_eq!(view["seg_a"].len(), 2);
        assert_eq!(view["seg_a"][&InstanceId::server(1)], SegmentState::Online);
        assert_eq!(view["seg_b"][&InstanceId::server(1)], SegmentState::Online);
        assert_eq!(s1.log.lock().len(), 2); // seg_a + seg_b
        assert_eq!(s2.log.lock().len(), 1);
    }

    #[test]
    fn removal_from_ideal_drops_replicas() {
        let cm = ClusterManager::new(MetaStore::new());
        let s1 = FakeServer::new(1);
        cm.register_participant(s1.clone());
        let mut ideal = IdealState::default();
        ideal.assign("seg", InstanceId::server(1), SegmentState::Online);
        cm.set_ideal_state("t", ideal).unwrap();
        assert_eq!(cm.external_view("t").len(), 1);

        cm.set_ideal_state("t", IdealState::default()).unwrap();
        assert!(cm.external_view("t").is_empty());
        // The drop path went Online→Offline→Dropped.
        let log = s1.log.lock();
        assert_eq!(log[1].3, SegmentState::Offline);
        assert_eq!(log[2].3, SegmentState::Dropped);
    }

    #[test]
    fn failed_transition_parks_in_error() {
        let cm = ClusterManager::new(MetaStore::new());
        let s1 = FakeServer::new(1);
        *s1.fail_on.lock() = Some(SegmentState::Online);
        cm.register_participant(s1.clone());
        let mut ideal = IdealState::default();
        ideal.assign("seg", InstanceId::server(1), SegmentState::Online);
        cm.set_ideal_state("t", ideal).unwrap();
        assert_eq!(
            cm.external_view("t")["seg"][&InstanceId::server(1)],
            SegmentState::Error
        );
        // Error replicas are not routable.
        assert!(cm.routable_view("t").is_empty());
        // A later rebalance leaves the error replica alone (operator reset).
        cm.rebalance("t").unwrap();
        assert_eq!(
            cm.external_view("t")["seg"][&InstanceId::server(1)],
            SegmentState::Error
        );
    }

    #[test]
    fn dead_node_leaves_view_and_rejoins() {
        let cm = ClusterManager::new(MetaStore::new());
        let s1 = FakeServer::new(1);
        cm.register_participant(s1.clone());
        let mut ideal = IdealState::default();
        ideal.assign("seg", InstanceId::server(1), SegmentState::Online);
        cm.set_ideal_state("t", ideal).unwrap();

        cm.unregister_participant(&InstanceId::server(1));
        assert!(cm
            .external_view("t")
            .get("seg")
            .is_none_or(|m| m.is_empty()));
        assert!(cm.routable_view("t").is_empty());

        // Node comes back blank (share-nothing: a new empty node, §3.4);
        // rebalance reloads its replicas.
        let s1b = FakeServer::new(1);
        cm.register_participant(s1b.clone());
        cm.rebalance("t").unwrap();
        assert_eq!(
            cm.external_view("t")["seg"][&InstanceId::server(1)],
            SegmentState::Online
        );
    }

    #[test]
    fn consuming_lifecycle() {
        let cm = ClusterManager::new(MetaStore::new());
        let s1 = FakeServer::new(1);
        cm.register_participant(s1.clone());
        let mut ideal = IdealState::default();
        ideal.assign("seg__0__0", InstanceId::server(1), SegmentState::Consuming);
        cm.set_ideal_state("t_REALTIME", ideal).unwrap();
        assert_eq!(
            cm.external_view("t_REALTIME")["seg__0__0"][&InstanceId::server(1)],
            SegmentState::Consuming
        );
        // Consuming replicas are routable (they answer realtime queries).
        assert_eq!(cm.routable_view("t_REALTIME").len(), 1);

        // Server self-reports the commit (CONSUMING→ONLINE).
        cm.record_state(
            "t_REALTIME",
            "seg__0__0",
            &InstanceId::server(1),
            SegmentState::Online,
        );
        assert_eq!(
            cm.external_view("t_REALTIME")["seg__0__0"][&InstanceId::server(1)],
            SegmentState::Online
        );
    }

    #[test]
    fn view_subscribers_get_changes() {
        let cm = ClusterManager::new(MetaStore::new());
        let s1 = FakeServer::new(1);
        cm.register_participant(s1);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        cm.subscribe_view(move |c| seen2.lock().push(c.clone()));
        let mut ideal = IdealState::default();
        ideal.assign("seg", InstanceId::server(1), SegmentState::Online);
        cm.set_ideal_state("t", ideal).unwrap();
        let events = seen.lock();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].state, SegmentState::Online);
        assert_eq!(events[0].segment, "seg");
    }

    #[test]
    fn remove_table_cleans_up() {
        let cm = ClusterManager::new(MetaStore::new());
        let s1 = FakeServer::new(1);
        cm.register_participant(s1);
        let mut ideal = IdealState::default();
        ideal.assign("seg", InstanceId::server(1), SegmentState::Online);
        cm.set_ideal_state("t", ideal).unwrap();
        cm.remove_table("t").unwrap();
        assert!(cm.tables().is_empty());
        assert!(cm.external_view("t").is_empty());
        assert!(cm.rebalance("t").is_err());
    }
}
