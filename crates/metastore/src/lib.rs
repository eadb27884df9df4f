//! Zookeeper-like metadata store substrate.
//!
//! Pinot stores all cluster state, segment assignment, and metadata in
//! Zookeeper (through Helix) and uses it as the coordination mechanism
//! between nodes (§3.2). This crate supplies the primitives the rest of the
//! system needs:
//!
//! * a hierarchical, versioned key space with compare-and-set writes;
//! * **ephemeral nodes** bound to a session, deleted when the session
//!   expires (node liveness);
//! * a **generation counter** that every committed write moves, so a
//!   reader that decoded the store at one generation knows when to
//!   re-read it;
//! * **leader election** built from ephemeral nodes (controller mastership,
//!   §3.2 "Controller mastership is managed by Apache Helix").

use parking_lot::Mutex;
use pinot_common::{PinotError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A liveness session; expiring it removes its ephemeral nodes.
pub type SessionId = u64;

#[derive(Debug, Clone)]
struct NodeData {
    value: String,
    version: u64,
    ephemeral_owner: Option<SessionId>,
}

struct Inner {
    nodes: BTreeMap<String, NodeData>,
    next_session: SessionId,
    live_sessions: Vec<SessionId>,
}

/// The metadata store handle (cheaply cloneable).
#[derive(Clone)]
pub struct MetaStore {
    inner: Arc<Mutex<Inner>>,
    /// Committed writes so far; moved under `inner`'s lock by each one.
    generation: Arc<AtomicU64>,
}

impl Default for MetaStore {
    fn default() -> Self {
        MetaStore::new()
    }
}

impl MetaStore {
    pub fn new() -> MetaStore {
        MetaStore {
            inner: Arc::new(Mutex::new(Inner {
                nodes: BTreeMap::new(),
                next_session: 1,
                live_sessions: Vec::new(),
            })),
            generation: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The number of writes committed so far: every create, set and delete,
    /// and every ephemeral node an expired session takes with it. Read it
    /// *before* reading the store; what was read then reflects at least
    /// this generation, so an unchanged generation later means nothing
    /// read has changed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Count one committed write; called with `inner`'s lock held. The
    /// `Release` pairs with the `Acquire` in [`MetaStore::generation`]: a
    /// reader that sees the new count also sees the write.
    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    fn validate_path(path: &str) -> Result<()> {
        if path.is_empty() || !path.starts_with('/') || path.ends_with('/') || path.contains("//") {
            return Err(PinotError::Metadata(format!("invalid path {path:?}")));
        }
        Ok(())
    }

    /// Open a liveness session.
    pub fn create_session(&self) -> SessionId {
        let mut inner = self.inner.lock();
        let id = inner.next_session;
        inner.next_session += 1;
        inner.live_sessions.push(id);
        id
    }

    /// Expire a session: its ephemeral nodes are deleted, each a write,
    /// as when a Pinot node dies.
    pub fn expire_session(&self, session: SessionId) {
        let mut inner = self.inner.lock();
        inner.live_sessions.retain(|s| *s != session);
        let doomed: Vec<String> = inner
            .nodes
            .iter()
            .filter(|(_, n)| n.ephemeral_owner == Some(session))
            .map(|(p, _)| p.clone())
            .collect();
        for path in doomed {
            inner.nodes.remove(&path);
            self.bump();
        }
    }

    /// Create a node; fails if it already exists.
    pub fn create(
        &self,
        path: &str,
        value: impl Into<String>,
        ephemeral: Option<SessionId>,
    ) -> Result<()> {
        Self::validate_path(path)?;
        let mut inner = self.inner.lock();
        if let Some(s) = ephemeral {
            if !inner.live_sessions.contains(&s) {
                return Err(PinotError::Metadata(format!("session {s} is not live")));
            }
        }
        if inner.nodes.contains_key(path) {
            return Err(PinotError::Metadata(format!("node {path:?} exists")));
        }
        inner.nodes.insert(
            path.to_string(),
            NodeData {
                value: value.into(),
                version: 0,
                ephemeral_owner: ephemeral,
            },
        );
        self.bump();
        Ok(())
    }

    /// Write a node, creating it when absent. `expected_version` makes the
    /// write a compare-and-set. Returns the new version.
    pub fn set(
        &self,
        path: &str,
        value: impl Into<String>,
        expected_version: Option<u64>,
    ) -> Result<u64> {
        Self::validate_path(path)?;
        let mut inner = self.inner.lock();
        let value = value.into();
        match inner.nodes.get_mut(path) {
            Some(node) => {
                if let Some(ev) = expected_version {
                    if node.version != ev {
                        return Err(PinotError::Metadata(format!(
                            "version conflict on {path:?}: expected {ev}, found {}",
                            node.version
                        )));
                    }
                }
                node.value = value;
                node.version += 1;
                let v = node.version;
                self.bump();
                Ok(v)
            }
            None => {
                if expected_version.is_some() {
                    return Err(PinotError::Metadata(format!(
                        "version check on missing node {path:?}"
                    )));
                }
                inner.nodes.insert(
                    path.to_string(),
                    NodeData {
                        value,
                        version: 0,
                        ephemeral_owner: None,
                    },
                );
                self.bump();
                Ok(0)
            }
        }
    }

    /// Read a node's value and version.
    pub fn get(&self, path: &str) -> Option<(String, u64)> {
        self.inner
            .lock()
            .nodes
            .get(path)
            .map(|n| (n.value.clone(), n.version))
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner.lock().nodes.contains_key(path)
    }

    pub fn delete(&self, path: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.nodes.remove(path).is_none() {
            return Err(PinotError::Metadata(format!("node {path:?} not found")));
        }
        self.bump();
        Ok(())
    }

    /// Immediate child names of a path (like ZooKeeper `getChildren`).
    pub fn children(&self, path: &str) -> Vec<String> {
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let inner = self.inner.lock();
        let mut out: Vec<String> = inner
            .nodes
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, _)| {
                let rest = &k[prefix.len()..];
                match rest.find('/') {
                    Some(i) => rest[..i].to_string(),
                    None => rest.to_string(),
                }
            })
            .collect();
        out.dedup();
        out
    }

    /// Attempt to become leader for `scope`. Returns true on success or if
    /// this candidate already is the leader.
    pub fn elect_leader(&self, scope: &str, session: SessionId, candidate: &str) -> Result<bool> {
        let path = format!("/leaders/{scope}");
        match self.create(&path, candidate, Some(session)) {
            Ok(()) => Ok(true),
            Err(_) => Ok(self
                .get(&path)
                .map(|(v, _)| v == candidate)
                .unwrap_or(false)),
        }
    }

    /// Current leader for `scope`, if any.
    pub fn leader(&self, scope: &str) -> Option<String> {
        self.get(&format!("/leaders/{scope}")).map(|(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_set_delete() {
        let ms = MetaStore::new();
        ms.create("/tables/foo", "cfg1", None).unwrap();
        assert!(ms.create("/tables/foo", "x", None).is_err());
        assert_eq!(ms.get("/tables/foo"), Some(("cfg1".into(), 0)));
        let v = ms.set("/tables/foo", "cfg2", None).unwrap();
        assert_eq!(v, 1);
        assert!(ms.exists("/tables/foo"));
        ms.delete("/tables/foo").unwrap();
        assert!(ms.delete("/tables/foo").is_err());
        assert_eq!(ms.get("/tables/foo"), None);
    }

    #[test]
    fn compare_and_set() {
        let ms = MetaStore::new();
        ms.set("/n", "a", None).unwrap();
        assert!(ms.set("/n", "b", Some(5)).is_err());
        let v = ms.set("/n", "b", Some(0)).unwrap();
        assert_eq!(v, 1);
        assert!(ms.set("/n", "c", Some(0)).is_err());
        assert!(ms.set("/missing", "x", Some(0)).is_err());
    }

    #[test]
    fn path_validation() {
        let ms = MetaStore::new();
        for p in ["", "nope", "/a/", "/a//b"] {
            assert!(ms.create(p, "x", None).is_err(), "{p:?}");
        }
    }

    #[test]
    fn children_listing() {
        let ms = MetaStore::new();
        ms.create("/t/a", "1", None).unwrap();
        ms.create("/t/b", "2", None).unwrap();
        ms.create("/t/b/c", "3", None).unwrap();
        ms.create("/other", "4", None).unwrap();
        assert_eq!(ms.children("/t"), vec!["a", "b"]);
        assert_eq!(ms.children("/t/b"), vec!["c"]);
        assert!(ms.children("/t/a").is_empty());
        assert_eq!(ms.children("/"), vec!["other", "t"]);
    }

    #[test]
    fn every_committed_write_moves_the_generation() {
        let ms = MetaStore::new();
        assert_eq!(ms.generation(), 0);
        ms.create("/tables/foo", "v", None).unwrap();
        assert_eq!(ms.generation(), 1);
        ms.set("/tables/foo", "v2", None).unwrap();
        assert_eq!(ms.generation(), 2);
        ms.set("/tables/bar", "v", None).unwrap();
        assert_eq!(ms.generation(), 3);
        ms.delete("/tables/foo").unwrap();
        assert_eq!(ms.generation(), 4);
        // Failed writes and reads commit nothing.
        assert!(ms.create("/tables/bar", "x", None).is_err());
        assert!(ms.set("/tables/bar", "x", Some(7)).is_err());
        assert!(ms.delete("/tables/foo").is_err());
        assert!(ms.get("/tables/bar").is_some());
        assert_eq!(ms.generation(), 4);
    }

    #[test]
    fn ephemeral_nodes_die_with_session() {
        let ms = MetaStore::new();
        let s = ms.create_session();
        ms.create("/live/server1", "up", Some(s)).unwrap();
        ms.create("/live/server2", "up", Some(s)).unwrap();
        ms.create("/live/other", "up", None).unwrap();
        let before = ms.generation();
        ms.expire_session(s);
        assert!(!ms.exists("/live/server1"));
        assert!(!ms.exists("/live/server2"));
        assert!(ms.exists("/live/other"));
        // Each ephemeral node the session took with it is one write.
        assert_eq!(ms.generation() - before, 2);
        // Dead sessions can't create ephemerals.
        assert!(ms.create("/live/server3", "up", Some(s)).is_err());
    }

    #[test]
    fn leader_election_and_failover() {
        let ms = MetaStore::new();
        let s1 = ms.create_session();
        let s2 = ms.create_session();
        assert!(ms.elect_leader("controllers", s1, "Controller_1").unwrap());
        assert!(!ms.elect_leader("controllers", s2, "Controller_2").unwrap());
        // Re-election by the current leader is a no-op success.
        assert!(ms.elect_leader("controllers", s1, "Controller_1").unwrap());
        assert_eq!(ms.leader("controllers").as_deref(), Some("Controller_1"));
        // Leader dies; the other candidate takes over.
        ms.expire_session(s1);
        assert_eq!(ms.leader("controllers"), None);
        assert!(ms.elect_leader("controllers", s2, "Controller_2").unwrap());
        assert_eq!(ms.leader("controllers").as_deref(), Some("Controller_2"));
    }
}
