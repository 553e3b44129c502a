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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

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

/// The timer thread of a stack host (a proto `Node`, a transport
/// `Endpoint`): every `interval` of real time it calls `tick` on its
/// target, until it is stopped or dropped, or the target is. It holds the
/// target only weakly, so a host can own its ticker.
#[derive(Debug)]
pub struct Ticker {
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Ticker {
    /// Start the thread, named `name`.
    pub fn start<T: Send + Sync + 'static>(
        name: String,
        interval: Duration,
        target: Weak<T>,
        tick: impl Fn(&T) + Send + 'static,
    ) -> Ticker {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                while !stopped.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    let Some(target) = target.upgrade() else {
                        break;
                    };
                    if stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    tick(&target);
                }
            })
            .expect("spawn timer thread");
        Ticker {
            stop,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Stop ticking and join the thread (it notices within one
    /// `interval`). Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.lock().take() {
            // A target that owns its ticker can lose its last strong
            // reference while a tick holds the upgraded one; the ticker is
            // then dropped on its own thread, which cannot join itself and
            // exits by the flag.
            if t.thread().id() != std::thread::current().id() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop();
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

    const TICK: Duration = Duration::from_millis(1);
    const PATIENCE: Duration = Duration::from_secs(10);

    #[test]
    fn ticker_ticks_until_stopped_and_stop_is_idempotent() {
        let (tx, rx) = std::sync::mpsc::channel();
        let target = Arc::new(Mutex::new(tx));
        let ticker = Ticker::start("t".into(), TICK, Arc::downgrade(&target), |tx| {
            let _ = tx
                .lock()
                .send(std::thread::current().name().map(String::from));
        });
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(Some("t".to_string())));
        assert!(rx.recv_timeout(PATIENCE).is_ok(), "it keeps ticking");
        ticker.stop();
        ticker.stop();
        // `stop` joined the thread: what it sent is all there will be.
        while rx.try_recv().is_ok() {}
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn ticker_ends_with_its_target_even_when_dropped_on_its_own_thread() {
        use std::sync::mpsc::{channel, Receiver, Sender};

        /// Reports, when dropped, whether the thread is unwinding.
        struct Report(Mutex<Sender<bool>>);
        impl Drop for Report {
            fn drop(&mut self) {
                let _ = self.0.lock().send(std::thread::panicking());
            }
        }
        /// A host that owns its ticker, as `Node` and `Endpoint` do. Fields
        /// drop in order: the report goes out after the ticker's `Drop`.
        struct Host {
            ticker: std::sync::OnceLock<Ticker>,
            in_tick: Mutex<Sender<()>>,
            resume: Mutex<Receiver<()>>,
            _report: Report,
        }

        let (in_tick, in_tick_rx) = channel();
        let (resume_tx, resume) = channel();
        let (report, report_rx) = channel();
        let host = Arc::new(Host {
            ticker: std::sync::OnceLock::new(),
            in_tick: Mutex::new(in_tick),
            resume: Mutex::new(resume),
            _report: Report(Mutex::new(report)),
        });
        let ticker = Ticker::start("t".into(), TICK, Arc::downgrade(&host), |host: &Host| {
            let _ = host.in_tick.lock().send(());
            let _ = host.resume.lock().recv();
        });
        assert!(host.ticker.set(ticker).is_ok());
        // While the first tick holds the upgraded reference, drop ours: the
        // host, ticker included, now dies on the ticker thread.
        assert_eq!(in_tick_rx.recv_timeout(PATIENCE), Ok(()));
        drop(host);
        assert_eq!(resume_tx.send(()), Ok(()));
        assert_eq!(
            report_rx.recv_timeout(PATIENCE),
            Ok(false),
            "the ticker's drop panicked joining its own thread"
        );
    }
}
