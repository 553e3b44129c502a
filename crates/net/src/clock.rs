//! A pluggable time source for the stacks' timeout logic.
//!
//! The failure detector and both ARQ wrappers (RelComm, the transport
//! Window) compare "now" against recorded instants. In production that is
//! the wall clock; under the deterministic checker it must be a **virtual
//! clock** that only moves when the exploring controller decides to fire a
//! tick — otherwise timeouts depend on host scheduling and no schedule
//! replays byte-identically. [`ProtoClock`] is that seam: a cheap cloneable
//! handle that is either the wall clock or a shared monotone counter
//! advanced explicitly by the test harness.
//!
//! ```
//! use std::time::Duration;
//! use samoa_net::ProtoClock;
//!
//! let clock = ProtoClock::manual();
//! let t0 = clock.now();
//! clock.advance(Duration::from_millis(50));
//! assert_eq!(clock.now().duration_since(t0), Duration::from_millis(50));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

enum ClockInner {
    /// Real time: `now()` is `Instant::now()`.
    Wall,
    /// Virtual time: `now()` is a fixed epoch plus an explicitly advanced
    /// offset. Deterministic — it moves only via [`ProtoClock::advance`].
    Manual {
        epoch: Instant,
        offset_ns: AtomicU64,
    },
}

/// A cloneable time source: wall clock in production, an explicitly
/// advanced virtual clock under deterministic exploration. See the
/// [module docs](self).
#[derive(Clone)]
pub struct ProtoClock(Arc<ClockInner>);

impl std::fmt::Debug for ProtoClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.0 {
            ClockInner::Wall => write!(f, "ProtoClock::Wall"),
            ClockInner::Manual { offset_ns, .. } => write!(
                f,
                "ProtoClock::Manual({:?})",
                Duration::from_nanos(offset_ns.load(Ordering::Relaxed))
            ),
        }
    }
}

impl Default for ProtoClock {
    fn default() -> Self {
        ProtoClock::wall()
    }
}

impl ProtoClock {
    /// The real wall clock (production default).
    pub fn wall() -> ProtoClock {
        ProtoClock(Arc::new(ClockInner::Wall))
    }

    /// A frozen virtual clock starting at an arbitrary epoch. Time moves
    /// only when [`advance`](ProtoClock::advance) is called; clones share
    /// the same offset, so one clock can drive a whole cluster.
    pub fn manual() -> ProtoClock {
        ProtoClock(Arc::new(ClockInner::Manual {
            epoch: Instant::now(),
            offset_ns: AtomicU64::new(0),
        }))
    }

    /// The current time on this clock.
    pub fn now(&self) -> Instant {
        match &*self.0 {
            ClockInner::Wall => Instant::now(),
            ClockInner::Manual { epoch, offset_ns } => {
                *epoch + Duration::from_nanos(offset_ns.load(Ordering::Acquire))
            }
        }
    }

    /// Advance a manual clock by `d`. No-op on the wall clock (real time
    /// cannot be steered).
    pub fn advance(&self, d: Duration) {
        if let ClockInner::Manual { offset_ns, .. } = &*self.0 {
            offset_ns.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
        }
    }

    /// Is this a manual (virtual) clock?
    pub fn is_manual(&self) -> bool {
        matches!(&*self.0, ClockInner::Manual { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_tracks_real_time() {
        let c = ProtoClock::wall();
        assert!(!c.is_manual());
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let c = ProtoClock::manual();
        assert!(c.is_manual());
        let t0 = c.now();
        assert_eq!(c.now(), t0);
        c.advance(Duration::from_millis(7));
        assert_eq!(c.now().duration_since(t0), Duration::from_millis(7));
    }

    #[test]
    fn clones_share_the_offset() {
        let c = ProtoClock::manual();
        let d = c.clone();
        let t0 = c.now();
        d.advance(Duration::from_secs(1));
        assert_eq!(c.now().duration_since(t0), Duration::from_secs(1));
    }

    #[test]
    fn advance_on_wall_clock_is_a_noop() {
        let c = ProtoClock::wall();
        c.advance(Duration::from_secs(3600));
        // Nothing observable to assert beyond "it did not panic and time
        // is still sane".
        assert!(c.now().elapsed() < Duration::from_secs(3600));
    }
}
