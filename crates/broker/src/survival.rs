//! Broker survival layer: tiered admission control and the sharded
//! single-flight result cache.
//!
//! Both sit *in front of* scatter. Admission control bounds how many
//! queries per tenant may hold scatter concurrency at once, queueing a
//! bounded overflow and shedding the rest with a typed
//! [`PinotError::Overloaded`] — so a melting cluster stops paying scatter
//! cost for queries it was going to fail anyway. The result cache answers
//! repeated identical queries (same normalized AST, same routing-table
//! generation) without touching a server, and *coalesces* concurrent
//! identical queries onto one in-flight execution so a hot dashboard
//! query hits the cluster once.
//!
//! Uses `std::sync` Mutex/Condvar rather than parking_lot: the admission
//! queue and flight tokens need condition variables, which the in-repo
//! parking_lot shim does not provide.

use pinot_common::query::QueryResponse;
use pinot_common::{PinotError, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Per-tenant concurrency limits with a bounded broker-wide wait queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Concurrent in-scatter queries allowed per tenant.
    pub per_tenant: usize,
    /// Broker-wide cap on queries parked waiting for a slot; arrivals
    /// beyond this are shed immediately.
    pub queue: usize,
}

impl Default for AdmissionLimits {
    fn default() -> AdmissionLimits {
        AdmissionLimits {
            per_tenant: 64,
            queue: 128,
        }
    }
}

struct AdmState {
    limits: AdmissionLimits,
    /// In-flight admitted queries per tenant.
    active: HashMap<String, usize>,
    /// Queries currently parked in `admit`.
    queued: usize,
}

/// Broker-side tiered admission: try to admit immediately, park in a
/// bounded queue otherwise, shed (`Overloaded`) when the queue is full or
/// the query's deadline passes while parked.
pub struct AdmissionController {
    state: Mutex<AdmState>,
    cv: Condvar,
}

impl Default for AdmissionController {
    fn default() -> AdmissionController {
        AdmissionController::new(AdmissionLimits::default())
    }
}

impl AdmissionController {
    pub fn new(limits: AdmissionLimits) -> AdmissionController {
        AdmissionController {
            state: Mutex::new(AdmState {
                limits,
                active: HashMap::new(),
                queued: 0,
            }),
            cv: Condvar::new(),
        }
    }

    pub fn set_limits(&self, limits: AdmissionLimits) {
        self.state.lock().unwrap().limits = limits;
        self.cv.notify_all();
    }

    fn has_slot(state: &AdmState, tenant: &str) -> bool {
        *state.active.get(tenant).unwrap_or(&0) < state.limits.per_tenant
    }

    /// Admit `tenant` or park until a slot frees, the queue overflows, or
    /// `deadline` passes. Returns a permit whose `Drop` releases the slot.
    /// `queued_cb` fires once if the query had to wait (so the caller can
    /// count `broker.admission_queued` without this module depending on
    /// obs).
    pub fn admit(
        self: &Arc<Self>,
        tenant: &str,
        deadline: Instant,
        mut queued_cb: impl FnMut(),
    ) -> Result<AdmissionPermit> {
        let mut state = self.state.lock().unwrap();
        if Self::has_slot(&state, tenant) {
            *state.active.entry(tenant.to_string()).or_insert(0) += 1;
            return Ok(self.permit(tenant));
        }
        if state.queued >= state.limits.queue {
            return Err(PinotError::Overloaded(format!(
                "tenant {tenant}: concurrency saturated and admission queue full"
            )));
        }
        state.queued += 1;
        queued_cb();
        loop {
            let now = Instant::now();
            if now >= deadline {
                state.queued -= 1;
                self.cv.notify_all();
                return Err(PinotError::Overloaded(format!(
                    "tenant {tenant}: deadline passed while queued for admission"
                )));
            }
            let (next, timeout) = self.cv.wait_timeout(state, deadline - now).unwrap();
            state = next;
            if Self::has_slot(&state, tenant) {
                state.queued -= 1;
                *state.active.entry(tenant.to_string()).or_insert(0) += 1;
                return Ok(self.permit(tenant));
            }
            // Spurious wake or someone else took the slot; keep waiting
            // unless the deadline elapsed (checked at loop top and via
            // the timeout result — both funnel through the same branch).
            let _ = timeout;
        }
    }

    fn permit(self: &Arc<Self>, tenant: &str) -> AdmissionPermit {
        AdmissionPermit {
            controller: Arc::clone(self),
            tenant: tenant.to_string(),
        }
    }

    #[cfg(test)]
    fn active(&self, tenant: &str) -> usize {
        *self.state.lock().unwrap().active.get(tenant).unwrap_or(&0)
    }
}

/// RAII admission slot; releases on drop and wakes one queued waiter.
pub struct AdmissionPermit {
    controller: Arc<AdmissionController>,
    tenant: String,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut state = self.controller.state.lock().unwrap();
        if let Some(n) = state.active.get_mut(&self.tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                state.active.remove(&self.tenant);
            }
        }
        drop(state);
        self.controller.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Single-flight result cache
// ---------------------------------------------------------------------------

const CACHE_SHARDS: usize = 16;
const CACHE_PER_SHARD: usize = 128;

/// State of one coalesced execution. The leader fills it exactly once;
/// followers block on the condvar until it resolves.
enum FlightState {
    Pending,
    Done(Arc<QueryResponse>),
    /// The leader finished without a cacheable response (error, partial
    /// response, or it panicked/dropped the guard). Followers re-execute
    /// themselves.
    Failed,
}

/// Token shared between the leader of an in-flight execution and the
/// followers coalesced onto it.
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        })
    }

    /// Block until the leader resolves this flight or `deadline` passes.
    /// `None` means the follower must execute the query itself.
    pub fn wait(&self, deadline: Instant) -> Option<Arc<QueryResponse>> {
        let mut state = self.state.lock().unwrap();
        loop {
            match &*state {
                FlightState::Done(resp) => return Some(Arc::clone(resp)),
                FlightState::Failed => return None,
                FlightState::Pending => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self.cv.wait_timeout(state, deadline - now).unwrap();
            state = next;
        }
    }

    fn resolve(&self, outcome: Option<Arc<QueryResponse>>) {
        let mut state = self.state.lock().unwrap();
        if matches!(*state, FlightState::Pending) {
            *state = match outcome {
                Some(resp) => FlightState::Done(resp),
                None => FlightState::Failed,
            };
        }
        drop(state);
        self.cv.notify_all();
    }
}

enum Entry {
    Ready(Arc<QueryResponse>),
    InFlight(Arc<Flight>),
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    /// Insertion order of Ready entries, for FIFO eviction.
    order: VecDeque<String>,
}

/// Outcome of a cache lookup.
pub enum Lookup {
    /// A completed response is cached; serve it.
    Hit(Arc<QueryResponse>),
    /// The same query is executing right now; wait on the flight.
    Coalesce(Arc<Flight>),
    /// Nobody is executing this query; the caller leads. Complete or drop
    /// the guard to release followers.
    Lead(LeadGuard),
}

/// Sharded map of normalized-query+routing-generation → response, with
/// single-flight coalescing of concurrent identical queries.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new()
    }
}

impl ResultCache {
    pub fn new() -> ResultCache {
        ResultCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up `key`, registering the caller as the leader of a new flight
    /// when the key is absent.
    pub fn lookup(self: &Arc<Self>, key: &str) -> Lookup {
        let mut shard = self.shard_of(key).lock().unwrap();
        match shard.map.get(key) {
            Some(Entry::Ready(resp)) => Lookup::Hit(Arc::clone(resp)),
            Some(Entry::InFlight(flight)) => Lookup::Coalesce(Arc::clone(flight)),
            None => {
                let flight = Flight::new();
                shard
                    .map
                    .insert(key.to_string(), Entry::InFlight(Arc::clone(&flight)));
                Lookup::Lead(LeadGuard {
                    cache: Arc::clone(self),
                    key: key.to_string(),
                    flight,
                    done: false,
                })
            }
        }
    }

    /// Drop every cached/in-flight entry (used when the routing view
    /// changes wholesale; per-table generations in the key handle the
    /// common invalidation path).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            // In-flight executions still resolve through their own Arc'd
            // flight tokens; dropping the map entry only stops *new*
            // arrivals from coalescing onto them.
            shard.map.retain(|_, e| matches!(e, Entry::InFlight(_)));
            shard.order.clear();
        }
    }

    fn finish(&self, key: &str, outcome: Option<Arc<QueryResponse>>, flight: &Flight) {
        let mut shard = self.shard_of(key).lock().unwrap();
        match &outcome {
            Some(resp) => {
                if shard.order.len() >= CACHE_PER_SHARD {
                    if let Some(oldest) = shard.order.pop_front() {
                        shard.map.remove(&oldest);
                    }
                }
                shard
                    .map
                    .insert(key.to_string(), Entry::Ready(Arc::clone(resp)));
                shard.order.push_back(key.to_string());
            }
            None => {
                // Only remove our own in-flight marker; a Ready entry from
                // a racing generation bump + refill must survive.
                if matches!(shard.map.get(key), Some(Entry::InFlight(_))) {
                    shard.map.remove(key);
                }
            }
        }
        drop(shard);
        flight.resolve(outcome);
    }
}

/// Held by the one caller executing a cache-missed query. Call
/// [`LeadGuard::complete`] with the response (or `None` for uncacheable
/// outcomes); dropping without completing releases followers to execute
/// for themselves, so a panicking leader never wedges the key.
pub struct LeadGuard {
    cache: Arc<ResultCache>,
    key: String,
    flight: Arc<Flight>,
    done: bool,
}

impl LeadGuard {
    pub fn complete(mut self, outcome: Option<Arc<QueryResponse>>) {
        self.done = true;
        self.cache.finish(&self.key, outcome, &self.flight);
    }
}

impl Drop for LeadGuard {
    fn drop(&mut self) {
        if !self.done {
            self.cache.finish(&self.key, None, &self.flight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn resp() -> Arc<QueryResponse> {
        Arc::new(QueryResponse::empty_aggregation())
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn admission_immediate_then_shed() {
        let adm = Arc::new(AdmissionController::new(AdmissionLimits {
            per_tenant: 1,
            queue: 0,
        }));
        let p = adm.admit("t", far_deadline(), || {}).unwrap();
        assert_eq!(adm.active("t"), 1);
        // Slot held, queue size 0 → immediate typed shed.
        let err = adm.admit("t", far_deadline(), || {}).err().unwrap();
        assert_eq!(err.kind(), "overloaded");
        drop(p);
        assert_eq!(adm.active("t"), 0);
        adm.admit("t", far_deadline(), || {}).unwrap();
    }

    #[test]
    fn admission_queued_waiter_gets_released_slot() {
        let adm = Arc::new(AdmissionController::new(AdmissionLimits {
            per_tenant: 1,
            queue: 4,
        }));
        let p = adm.admit("t", far_deadline(), || {}).unwrap();
        let adm2 = Arc::clone(&adm);
        let queued = Arc::new(Mutex::new(false));
        let queued2 = Arc::clone(&queued);
        let waiter = std::thread::spawn(move || {
            adm2.admit("t", far_deadline(), || {
                *queued2.lock().unwrap() = true;
            })
            .map(|_p| ())
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(*queued.lock().unwrap(), "second query should have queued");
        drop(p);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn admission_queued_waiter_sheds_at_deadline() {
        let adm = Arc::new(AdmissionController::new(AdmissionLimits {
            per_tenant: 1,
            queue: 4,
        }));
        let _p = adm.admit("t", far_deadline(), || {}).unwrap();
        let err = adm
            .admit("t", Instant::now() + Duration::from_millis(10), || {})
            .err()
            .unwrap();
        assert_eq!(err.kind(), "overloaded");
        // The shed waiter must have released its queue slot.
        assert_eq!(adm.state.lock().unwrap().queued, 0);
    }

    #[test]
    fn cache_miss_then_hit() {
        let cache = Arc::new(ResultCache::new());
        let Lookup::Lead(guard) = cache.lookup("k") else {
            panic!("first lookup must lead");
        };
        guard.complete(Some(resp()));
        assert!(matches!(cache.lookup("k"), Lookup::Hit(_)));
        cache.clear();
        assert!(matches!(cache.lookup("k"), Lookup::Lead(_)));
    }

    #[test]
    fn concurrent_lookup_coalesces_onto_leader() {
        let cache = Arc::new(ResultCache::new());
        let Lookup::Lead(guard) = cache.lookup("k") else {
            panic!("leader expected");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || match cache.lookup("k") {
                    Lookup::Coalesce(flight) => flight.wait(far_deadline()).is_some(),
                    Lookup::Hit(_) => true,
                    Lookup::Lead(_) => false,
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        guard.complete(Some(resp()));
        for f in followers {
            assert!(f.join().unwrap(), "every follower gets the leader's answer");
        }
    }

    #[test]
    fn dropped_leader_releases_followers_to_execute() {
        let cache = Arc::new(ResultCache::new());
        let guard = match cache.lookup("k") {
            Lookup::Lead(g) => g,
            _ => panic!("leader expected"),
        };
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.lookup("k") {
                Lookup::Coalesce(flight) => flight.wait(far_deadline()),
                _ => panic!("should coalesce"),
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        drop(guard); // leader panicked / bailed without completing
        assert!(follower.join().unwrap().is_none(), "follower re-executes");
        // Key is free again: next arrival leads.
        assert!(matches!(cache.lookup("k"), Lookup::Lead(_)));
    }

    #[test]
    fn uncacheable_completion_does_not_populate() {
        let cache = Arc::new(ResultCache::new());
        let Lookup::Lead(guard) = cache.lookup("k") else {
            panic!("leader expected");
        };
        guard.complete(None); // e.g. a partial response — never cached
        assert!(matches!(cache.lookup("k"), Lookup::Lead(_)));
    }

    #[test]
    fn eviction_is_fifo_per_shard() {
        let cache = Arc::new(ResultCache::new());
        // Overfill well past total capacity; the earliest keys must be gone
        // and the cache must remain bounded.
        let n = CACHE_SHARDS * CACHE_PER_SHARD * 2;
        for i in 0..n {
            if let Lookup::Lead(g) = cache.lookup(&format!("k{i}")) {
                g.complete(Some(resp()));
            }
        }
        let total: usize = cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum();
        assert!(total <= CACHE_SHARDS * CACHE_PER_SHARD);
        assert!(total > 0);
    }
}
