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
//! A stack host (a proto `Node`, a transport `Endpoint`) is a [`Host`]:
//! [`Ticker::attach`] builds it around its [`Ticker`] and hands it the
//! datagrams of its site and the ticks of its timer thread, which sleeps
//! until the instant its [`Alarm`] is armed for. There is no period: what
//! puts a deadline in the host's state arms the alarm for it, and a tick
//! arms again only what is still to come. The armed instant is on the
//! wall clock: a manual clock's instants mean nothing to a thread that
//! sleeps in real time. So the host's clock alone decides whether a timer
//! runs ([`Alarm::on`]): on the wall clock one does, on a manual clock none
//! does, and whoever advances the clock injects the ticks. The thread
//! starts once the host exists, so an instant armed before that is rung
//! for, not lost, and [`Ticker::stop`] is the one way to end it.
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

use parking_lot::{Condvar, Mutex};

use crate::sim::{Datagram, SiteId};
use crate::transport::Transport;

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

/// No instant is armed.
const UNARMED: u64 = u64::MAX;

/// When a [`Ticker`] ticks next: one wall-clock instant or none. A clone
/// is a handle on the same deadline, made before the ticker so that a
/// host's handlers can hold one; one ticker waits on it.
#[derive(Clone)]
pub struct Alarm(Arc<AlarmInner>);

struct AlarmInner {
    /// The armed instant, in nanoseconds past `epoch` (an earlier one
    /// counts as `epoch`: it has passed either way), or [`UNARMED`].
    at_ns: AtomicU64,
    epoch: Instant,
    stopped: AtomicBool,
    /// What the ticker sleeps under; `arm` and `stop` pass through it.
    lock: Mutex<()>,
    cv: Condvar,
    /// The thread waiting on this alarm, once one has started.
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Alarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Alarm").field(&self.deadline()).finish()
    }
}

impl Alarm {
    /// Nothing armed.
    fn new() -> Alarm {
        Alarm(Arc::new(AlarmInner {
            at_ns: AtomicU64::new(UNARMED),
            epoch: Instant::now(),
            stopped: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            thread: Mutex::new(None),
        }))
    }

    /// The alarm of a host on `clock`, with nothing armed: one on the wall
    /// clock, none on a manual clock, whose ticks are injected by whoever
    /// advances it. A host starts its timer thread if and only if it gets
    /// one; this is the only way to get one.
    pub fn on(clock: &ProtoClock) -> Option<Alarm> {
        (!clock.is_manual()).then(Alarm::new)
    }

    /// Tick at `at`, or earlier if an earlier instant is armed already: a
    /// compare-and-min, so an instant armed stays until the tick it asked
    /// for. The ticker is woken only when this moved its deadline, which
    /// happens once per tick at most plus once per deadline that came
    /// closer — never once per call.
    pub fn arm(&self, at: Instant) {
        if self.0.lower(at) {
            // A ticker that read the old deadline under the lock is counted
            // asleep by the time the lock is ours, so the notify reaches it.
            drop(self.0.lock.lock());
            self.0.cv.notify_one();
        }
    }

    /// The armed instant, if any: the ticker ticks by then.
    pub fn deadline(&self) -> Option<Instant> {
        let ns = self.0.at_ns.load(Ordering::Acquire);
        (ns != UNARMED).then(|| self.0.epoch + Duration::from_nanos(ns))
    }

    /// Start the thread, named `name`, that waits on this alarm and calls
    /// `tick` on `target` when it rings — until the alarm is stopped, or the
    /// target is gone. The alarm is disarmed before `tick` runs: whatever
    /// `tick` and the target arm from then on is rung for.
    fn spawn<T: Send + Sync + 'static>(
        &self,
        name: String,
        target: Weak<T>,
        tick: impl Fn(&T) + Send + 'static,
    ) {
        let inner = Arc::clone(&self.0);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                while inner.wait_due() {
                    let Some(target) = target.upgrade() else {
                        break;
                    };
                    if inner.stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    tick(&target);
                }
            })
            .expect("spawn timer thread");
        *self.0.thread.lock() = Some(thread);
    }
}

impl AlarmInner {
    /// Move the deadline to `at` if that is earlier; true if it moved.
    fn lower(&self, at: Instant) -> bool {
        let ns = at.saturating_duration_since(self.epoch).as_nanos();
        let ns = ns.min(u128::from(UNARMED - 1)) as u64;
        // Mostly an instant at or before `at` is armed already: one load.
        self.at_ns.load(Ordering::Acquire) > ns && self.at_ns.fetch_min(ns, Ordering::AcqRel) > ns
    }

    /// Sleep until the armed instant has passed and disarm it — the tick
    /// that follows answers every instant armed up to now. False once
    /// stopped.
    fn wait_due(&self) -> bool {
        let mut guard = self.lock.lock();
        loop {
            if self.stopped.load(Ordering::SeqCst) {
                return false;
            }
            match self.at_ns.load(Ordering::Acquire) {
                UNARMED => self.cv.wait(&mut guard),
                ns => {
                    let at = self.epoch + Duration::from_nanos(ns);
                    if Instant::now() >= at {
                        self.at_ns.store(UNARMED, Ordering::Release);
                        return true;
                    }
                    self.cv.wait_until(&mut guard, at);
                }
            }
        }
    }
}

/// A stack host: a site's datagrams and its timer's ticks are the external
/// events (paper §4) it turns into computations. Which thread delivers
/// them is [`Ticker::attach`]'s business, not the host's.
pub trait Host: Send + Sync + 'static {
    /// One datagram addressed to the host's site.
    fn on_datagram(&self, dg: Datagram);

    /// The armed instant has passed: tick what is due, and arm the alarm
    /// again for each deadline of the host's that is still to come (the
    /// alarm holds one instant, the earliest, and ringing disarms it).
    fn on_alarm(&self);
}

/// The timer of a stack host (a proto `Node`, a transport `Endpoint`): a
/// thread that sleeps until its [`Alarm`]'s instant has passed and calls
/// `tick` on its target, until it is stopped or dropped, or the target is —
/// or, on a manual clock, nothing. It keeps no period: the host arms the
/// alarm for each deadline its state holds. A
/// [`Host`] is built around one by [`Ticker::attach`], whose thread calls
/// [`Host::on_alarm`]. The thread holds the target only weakly, so a host
/// can own its ticker.
#[derive(Debug)]
pub struct Ticker(Option<Alarm>);

impl Ticker {
    /// Build a host around its ticker and attach it to its site on `net`
    /// and to its timer: `host` is given the ticker, datagrams for `site` go
    /// to [`Host::on_datagram`], and with an `alarm` (see [`Alarm::on`]) a
    /// thread named `name` starts, once the host exists, and calls
    /// [`Host::on_alarm`] when it rings. Both hold the host weakly.
    pub fn attach<H: Host>(
        site: SiteId,
        net: &dyn Transport,
        alarm: Option<Alarm>,
        name: String,
        host: impl FnOnce(Ticker) -> H,
    ) -> Arc<H> {
        let host = Arc::new(host(Ticker(alarm.clone())));
        let weak = Arc::downgrade(&host);
        net.register(
            site,
            Arc::new(move |dg| {
                if let Some(host) = weak.upgrade() {
                    host.on_datagram(dg);
                }
            }),
        );
        if let Some(alarm) = alarm {
            alarm.spawn(name, Arc::downgrade(&host), H::on_alarm);
        }
        host
    }

    /// The alarm this ticker waits on; none on a manual clock.
    pub fn alarm(&self) -> Option<&Alarm> {
        self.0.as_ref()
    }

    /// Stop ticking and join the thread, which is woken to notice, so this
    /// returns once a tick in progress has. Idempotent; nothing to do on a
    /// manual clock.
    pub fn stop(&self) {
        let Some(Alarm(alarm)) = &self.0 else {
            return;
        };
        alarm.stopped.store(true, Ordering::SeqCst);
        drop(alarm.lock.lock());
        alarm.cv.notify_all();
        let thread = alarm.thread.lock().take();
        if let Some(t) = thread {
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
    const HOUR: Duration = Duration::from_secs(3600);

    /// A ticker whose thread, `t`, waits on `alarm`, ticks `target` and
    /// arms the instant the tick returns, if any.
    fn start<T: Send + Sync + 'static>(
        alarm: Alarm,
        target: Weak<T>,
        tick: impl Fn(&T) -> Option<Instant> + Send + 'static,
    ) -> Ticker {
        let handle = alarm.clone();
        alarm.spawn("t".into(), target, move |t| {
            if let Some(at) = tick(t) {
                handle.arm(at);
            }
        });
        Ticker(Some(alarm))
    }

    /// An alarm armed for now.
    fn armed_now() -> Alarm {
        let alarm = Alarm::new();
        alarm.arm(Instant::now());
        alarm
    }

    #[test]
    fn ticker_ticks_until_stopped_and_stop_is_idempotent() {
        let (tx, rx) = std::sync::mpsc::channel();
        let target = Arc::new(Mutex::new(tx));
        let ticker = start(armed_now(), Arc::downgrade(&target), |tx| {
            let _ = tx
                .lock()
                .send(std::thread::current().name().map(String::from));
            Some(Instant::now() + TICK)
        });
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(Some("t".to_string())));
        assert!(rx.recv_timeout(PATIENCE).is_ok(), "it keeps ticking");
        ticker.stop();
        ticker.stop();
        // `stop` joined the thread: what it sent is all there will be.
        while rx.try_recv().is_ok() {}
        assert!(rx.try_recv().is_err());
    }

    /// A host whose next tick is an hour away: were `stop` to wait for it,
    /// this test would hang.
    #[test]
    fn stop_wakes_a_ticker_armed_an_hour_ahead() {
        let (tx, rx) = std::sync::mpsc::channel();
        let target = Arc::new(Mutex::new(tx));
        let ticker = start(armed_now(), Arc::downgrade(&target), |tx| {
            let _ = tx.lock().send(());
            Some(Instant::now() + HOUR)
        });
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(()));
        ticker.stop();
        assert!(rx.try_recv().is_err(), "one tick, then an hour's wait");
    }

    /// `arm` only ever brings the deadline closer, and when it does the
    /// sleeping ticker wakes for it: without the wake this would hang an
    /// hour.
    #[test]
    fn arming_earlier_wakes_the_ticker_and_arming_later_moves_nothing() {
        let alarm = Alarm::new();
        assert_eq!(alarm.deadline(), None);
        let later = Instant::now() + HOUR;
        alarm.arm(later);
        alarm.arm(later + HOUR);
        assert_eq!(alarm.deadline(), Some(later));

        let (tx, rx) = std::sync::mpsc::channel();
        let target = Arc::new(Mutex::new(tx));
        let handle = alarm.clone();
        let _ticker = start(alarm, Arc::downgrade(&target), |tx| {
            let _ = tx.lock().send(());
            None
        });
        handle.arm(Instant::now());
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(()));
        // The tick answered the hour-ahead instant too, and armed nothing.
        assert_eq!(handle.deadline(), None);
        handle.arm(Instant::now());
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(()), "armed again");
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
        let tick = |host: &Host| {
            let _ = host.in_tick.lock().send(());
            let _ = host.resume.lock().recv();
            Some(Instant::now() + TICK)
        };
        let ticker = start(armed_now(), Arc::downgrade(&host), tick);
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
