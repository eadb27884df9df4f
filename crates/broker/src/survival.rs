//! Broker admission control (paper §4.5, multitenancy).
//!
//! Admission sits *in front of* scatter. It bounds how many queries per
//! tenant may hold scatter concurrency at once, queueing a bounded
//! overflow and shedding the rest with a typed
//! [`PinotError::Overloaded`] — so a melting cluster stops paying scatter
//! cost for queries it was going to fail anyway.
//!
//! Uses `std::sync` Mutex/Condvar rather than parking_lot: the admission
//! queue needs a condition variable, which the in-repo parking_lot shim
//! does not provide.

use pinot_common::{PinotError, Result};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
}
