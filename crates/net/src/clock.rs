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
//! datagrams of its site and the rings of its [`Alarm`] — the Timer Module,
//! one per host, on either clock. There is no period: what puts a deadline
//! in the host's state arms the alarm for it, on the host's clock, and a
//! ring arms again only what is still to come. The alarm is armed the same
//! way on both clocks; what differs is who rings it. On the wall clock a
//! thread does: it starts once the host exists, so an instant armed before
//! that is rung for, not lost, sleeps until the armed instant has passed,
//! and [`Ticker::stop`] is the one way to end it. On a manual clock no
//! thread starts: whoever advances the clock rings the alarms that are due
//! — [`NetHandle::run_until`](crate::NetHandle::run_until) moves a manual
//! network and its hosts from one armed instant to the next.
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

/// When a host's timer rings next: one instant on the host's clock, or
/// none. A clone is a handle on the same deadline, made before the ticker
/// so that a host's handlers can hold one; one ticker waits on it.
#[derive(Clone)]
pub struct Alarm(Arc<AlarmInner>);

struct AlarmInner {
    /// The armed instant, in nanoseconds past `epoch` (an earlier one
    /// counts as `epoch`: it has passed either way), or [`UNARMED`].
    at_ns: AtomicU64,
    /// The clock the instants are on, and its `now` when the alarm was
    /// made.
    clock: ProtoClock,
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
    /// The alarm of a host on `clock`, with nothing armed. A thread rings
    /// it on the wall clock ([`Ticker::attach`]); on a manual clock
    /// whoever advances the clock does.
    pub fn new(clock: &ProtoClock) -> Alarm {
        Alarm(Arc::new(AlarmInner {
            at_ns: AtomicU64::new(UNARMED),
            clock: clock.clone(),
            epoch: clock.now(),
            stopped: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            thread: Mutex::new(None),
        }))
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

    /// The clock the alarm's instants are on: its host's.
    pub(crate) fn clock(&self) -> &ProtoClock {
        &self.0.clock
    }

    /// The armed instant, if any: the alarm rings by then.
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
    /// If the armed instant has passed on the alarm's clock, disarm it and
    /// return true: the ring that follows answers every instant armed up
    /// to now, and whatever it arms from then on is rung for.
    fn take_due(&self) -> bool {
        match self.at_ns.load(Ordering::Acquire) {
            UNARMED => false,
            ns if self.clock.now() < self.epoch + Duration::from_nanos(ns) => false,
            _ => {
                self.at_ns.store(UNARMED, Ordering::Release);
                true
            }
        }
    }

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
            if self.take_due() {
                return true;
            }
            match self.at_ns.load(Ordering::Acquire) {
                UNARMED => self.cv.wait(&mut guard),
                ns => {
                    self.cv
                        .wait_until(&mut guard, self.epoch + Duration::from_nanos(ns));
                }
            }
        }
    }
}

/// A stack host: a site's datagrams and its timer's ticks are the external
/// events (paper §4) it turns into computations. Which thread delivers
/// them is [`Ticker::attach`]'s business, or on a manual clock the
/// driver's ([`NetHandle::run_until`](crate::NetHandle::run_until)), not
/// the host's.
pub trait Host: Send + Sync + 'static {
    /// One datagram addressed to the host's site.
    fn on_datagram(&self, dg: Datagram);

    /// The armed instant has passed: tick what is due, and arm the alarm
    /// again for each deadline of the host's that is still to come (the
    /// alarm holds one instant, the earliest, and ringing disarms it).
    fn on_alarm(&self);

    /// The host's timer: the alarm its [`Ticker`] waits on.
    fn alarm(&self) -> &Alarm;

    /// Block until every computation the host started has completed.
    fn quiesce(&self);
}

/// Ring each of `hosts` whose alarm is due on its clock: disarm it and call
/// [`Host::on_alarm`], as the timer thread does. On a manual clock this is
/// the Timer Module at the current virtual instant.
pub fn ring_due<H: Host>(hosts: &[Arc<H>]) {
    for h in hosts {
        if h.alarm().0.take_due() {
            h.on_alarm();
        }
    }
}

/// Advance the clock of `hosts`, which they share, to the earliest instant
/// any of them has armed, if it is still to come, and [`ring_due`]: one step
/// of [`NetHandle::run_until`](crate::NetHandle::run_until). Returns that
/// instant; `None`, and nothing moves, when no alarm is armed.
pub(crate) fn ring_next<H: Host>(hosts: &[Arc<H>]) -> Option<Instant> {
    let next = next_alarm(hosts)?;
    let clock = hosts[0].alarm().clock();
    clock.advance(next.saturating_duration_since(clock.now()));
    ring_due(hosts);
    Some(next)
}

/// The earliest instant any of `hosts` has armed.
pub(crate) fn next_alarm<H: Host>(hosts: &[Arc<H>]) -> Option<Instant> {
    hosts.iter().filter_map(|h| h.alarm().deadline()).min()
}

/// The timer of a stack host (a proto `Node`, a transport `Endpoint`): its
/// [`Alarm`], and on the wall clock a thread that sleeps until the alarm's
/// instant has passed and calls `tick` on its target, until it is stopped
/// or dropped, or the target is. It keeps no period: the host arms the
/// alarm for each deadline its state holds. A [`Host`] is built around one
/// by [`Ticker::attach`], whose thread calls [`Host::on_alarm`]. The thread
/// holds the target only weakly, so a host can own its ticker.
#[derive(Debug)]
pub struct Ticker(Alarm);

impl Ticker {
    /// Build a host around its ticker and attach it to its site on `net`
    /// and to its timer: `host` is given the ticker, datagrams for `site` go
    /// to [`Host::on_datagram`], and if `alarm` is on the wall clock a
    /// thread named `name` starts, once the host exists, and calls
    /// [`Host::on_alarm`] when it rings. Both hold the host weakly.
    pub fn attach<H: Host>(
        site: SiteId,
        net: &dyn Transport,
        alarm: Alarm,
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
        if !alarm.0.clock.is_manual() {
            alarm.spawn(name, Arc::downgrade(&host), H::on_alarm);
        }
        host
    }

    /// The alarm this ticker waits on.
    pub fn alarm(&self) -> &Alarm {
        &self.0
    }

    /// Stop ticking and join the thread, if one runs, which is woken to
    /// notice, so this returns once a tick in progress has. Idempotent.
    pub fn stop(&self) {
        let Alarm(alarm) = &self.0;
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
        Ticker(alarm)
    }

    /// An alarm armed for now.
    fn armed_now() -> Alarm {
        let alarm = Alarm::new(&ProtoClock::wall());
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
        let alarm = Alarm::new(&ProtoClock::wall());
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
