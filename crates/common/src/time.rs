//! Time helpers: the wall clock abstraction.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Milliseconds since the UNIX epoch.
pub fn now_millis() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0)
}

/// A clock that components read instead of the system clock, so tests and
/// simulations can advance time deterministically.
#[derive(Clone)]
pub struct Clock {
    // None = wall clock; Some = manual clock value in millis.
    manual: Option<Arc<AtomicI64>>,
}

impl Clock {
    /// Wall-clock backed clock.
    pub fn system() -> Clock {
        Clock { manual: None }
    }

    /// Manually advanced clock starting at `start_millis`.
    pub fn manual(start_millis: i64) -> Clock {
        Clock {
            manual: Some(Arc::new(AtomicI64::new(start_millis))),
        }
    }

    pub fn now_millis(&self) -> i64 {
        match &self.manual {
            Some(v) => v.load(Ordering::SeqCst),
            None => now_millis(),
        }
    }

    /// Advance a manual clock; no-op (and false) for the system clock.
    pub fn advance(&self, millis: i64) -> bool {
        match &self.manual {
            Some(v) => {
                v.fetch_add(millis, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.manual {
            Some(v) => write!(f, "Clock::manual({})", v.load(Ordering::SeqCst)),
            None => write!(f, "Clock::system"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances() {
        let c = Clock::manual(1_000);
        assert_eq!(c.now_millis(), 1_000);
        assert!(c.advance(500));
        assert_eq!(c.now_millis(), 1_500);
    }

    #[test]
    fn manual_clock_shared_between_clones() {
        let c = Clock::manual(0);
        let c2 = c.clone();
        c.advance(42);
        assert_eq!(c2.now_millis(), 42);
    }

    #[test]
    fn system_clock_monotonic_enough() {
        let c = Clock::system();
        let a = c.now_millis();
        assert!(!c.advance(10));
        let b = c.now_millis();
        assert!(b >= a);
        assert!(a > 1_600_000_000_000); // sanity: after 2020
    }
}
