//! The executor: a process-wide cache of OS threads with direct hand-off.
//!
//! Every thread the runtime creates — a detached computation's root
//! ([`Runtime::spawn`](crate::Runtime::spawn)) and the
//! helper workers a computation grows for asynchronous work — comes from
//! [`execute`]. A job is handed to the most recently parked idle worker
//! (LIFO: the one whose stack and caches are warmest), and only when none is
//! idle is a new thread created; a worker whose job has ended parks itself in
//! the cache and exits if nothing arrives within [`KEEP_ALIVE`].
//!
//! A hand-off to a parked worker can be taken back while the worker has not
//! picked the job up yet ([`Handed::reclaim`]), and
//! [`CompHandle::join`](crate::CompHandle::join) does that for a root job:
//! a root runs on the worker it was handed to, or on the joiner if the
//! joiner gets there first.
//!
//! There is deliberately **no run queue**: a job never waits behind another
//! job, so it starts running no later than a freshly created thread would.
//! That is what keeps the deadlock-freedom argument of paper §6 intact — a
//! computation parked in Rule 2 holds *its own* thread while it waits on
//! strictly older computations, which hold theirs; reusing threads changes
//! where a thread comes from, never whether a computation has one. A bounded
//! pool with a queue would break exactly that (the oldest computation's job
//! could sit queued behind workers blocked on it) and needs computations that
//! can give their thread back while they wait.
//!
//! ## Why a reclaimed root keeps §6
//!
//! A computation still holds a thread of its own from spawn to Rule 3: first
//! the reserved worker, which stays claimed until it runs the job or the job
//! is taken back, then the joiner. The joiner would have blocked until
//! exactly this computation completed, so running the computation itself
//! costs no thread that could have made progress elsewhere.
//!
//! A computation's thread need not come from here at all: the blocking
//! [`Runtime::run`](crate::Runtime::run) runs the root on the *caller*, and
//! [`Runtime::external`](crate::Runtime::external) uses it for every
//! external event whose policy cannot overlap another — the same argument,
//! made there.
//!
//! Each worker parks on a slot of its own, so a hand-off wakes at most one
//! thread — and none when the worker still has a wake coming: a hand-off
//! sets the slot's `woken` bit and notifies only if it was clear, and the
//! worker clears it each time it looks at the slot. A job the joiner took
//! back before the worker looked leaves the bit set, so spawn → join →
//! spawn costs one wake, however many spawns the worker sleeps through.
//! This parking is private to the executor: it is not a Rule-2 wait and
//! touches none of the `version::{parks, park_notifies, gate_spins}`
//! counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// How long an idle worker stays cached. Well above the failure detector's
/// 10 ms heartbeat, so the threads serving periodic computations survive
/// from one heartbeat to the next; short enough that a burst's threads are
/// gone soon after it.
const KEEP_ALIVE: Duration = Duration::from_millis(250);

/// Where one parked worker receives its next job.
#[derive(Default)]
struct Slot {
    hand: Mutex<Hand>,
    wake: Condvar,
}

#[derive(Default)]
struct Hand {
    job: Option<Job>,
    /// Hand-offs to this slot so far. A [`Handed`] remembers the count of
    /// its own, so it can never take a later job handed to the same worker.
    handed: u64,
    /// A hand-off has notified the worker, and the worker has not looked at
    /// the slot since: it will, so a further hand-off need not notify.
    woken: bool,
    /// Notifies sent to this slot.
    #[cfg(test)]
    notifies: u64,
}

/// A set of parked workers.
struct Cache {
    /// Most recently parked last.
    idle: Mutex<Vec<Arc<Slot>>>,
}

/// The one cache every thread of the runtime comes from.
static CACHE: Cache = Cache::new();

/// A job handed to a parked worker; see [`Handed::reclaim`].
pub(crate) struct Handed {
    cache: &'static Cache,
    slot: Arc<Slot>,
    handed: u64,
}

/// Run `job` on a cached worker thread, or on a new one if none is idle.
/// Never queues: a worker is committed to the job when this returns, and
/// runs it unless the returned [`Handed`] takes it back first. `None` means
/// a new thread was created; it owns the job from the start.
pub(crate) fn execute(job: impl FnOnce() + Send + 'static) -> Option<Handed> {
    CACHE.execute(Box::new(job))
}

impl Cache {
    const fn new() -> Self {
        Cache {
            idle: Mutex::new(Vec::new()),
        }
    }

    fn execute(&'static self, job: Job) -> Option<Handed> {
        let idle = self.idle.lock().pop();
        match idle {
            Some(slot) => {
                let (handed, wake) = {
                    let mut hand = slot.hand.lock();
                    hand.handed += 1;
                    hand.job = Some(job);
                    let wake = !std::mem::replace(&mut hand.woken, true);
                    #[cfg(test)]
                    {
                        hand.notifies += u64::from(wake);
                    }
                    (hand.handed, wake)
                };
                if wake {
                    slot.wake.notify_one();
                }
                Some(Handed {
                    cache: self,
                    slot,
                    handed,
                })
            }
            None => {
                std::thread::Builder::new()
                    .name("samoa-worker".into())
                    .spawn(move || self.worker(job))
                    .expect("spawn samoa-worker thread");
                None
            }
        }
    }

    fn worker(&self, mut job: Job) {
        let slot = Arc::new(Slot::default());
        loop {
            // Jobs catch the panics of the user code they run; one that escapes
            // anyway (a hook, a guard's `Drop`) must not take the worker with it.
            let _ = catch_unwind(AssertUnwindSafe(job));
            self.idle.lock().push(Arc::clone(&slot));
            let mut deadline = Instant::now() + KEEP_ALIVE;
            let mut next = slot.hand.lock();
            job = loop {
                // Looking answers every notify sent so far. A wake-up can
                // find the slot empty: the job was taken back, and the
                // worker, listed again, parks on.
                next.woken = false;
                if let Some(job) = next.job.take() {
                    break job;
                }
                if slot.wake.wait_until(&mut next, deadline).timed_out() {
                    let mut idle = self.idle.lock();
                    if let Some(i) = idle.iter().position(|s| Arc::ptr_eq(s, &slot)) {
                        idle.remove(i);
                        return;
                    }
                    // No longer listed: `execute` has claimed this worker and
                    // has filled the slot or is about to — go on to take that
                    // job.
                    deadline += KEEP_ALIVE;
                }
            };
        }
    }
}

impl Handed {
    /// Take the job back if the worker has not picked it up yet, and list
    /// the worker idle again. `None` once the worker has the job — even if
    /// it has since finished and been handed another.
    pub(crate) fn reclaim(self) -> Option<Job> {
        let mut hand = self.slot.hand.lock();
        if hand.handed != self.handed {
            return None;
        }
        let job = hand.job.take()?;
        // Under the slot's lock, as the worker's own keep-alive check reads
        // the list: it sees the worker either claimed with its job or idle.
        self.cache.idle.lock().push(Arc::clone(&self.slot));
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A cache of its own with one parked "worker": a slot and no thread
    /// behind it, so the test plays the worker's part by hand.
    fn parked() -> (&'static Cache, Arc<Slot>) {
        let cache: &'static Cache = Box::leak(Box::new(Cache::new()));
        let slot = Arc::new(Slot::default());
        cache.idle.lock().push(Arc::clone(&slot));
        (cache, slot)
    }

    fn listed(cache: &Cache, slot: &Arc<Slot>) -> bool {
        cache.idle.lock().iter().any(|s| Arc::ptr_eq(s, slot))
    }

    /// A job that counts its runs in `ran`.
    fn counting(ran: &Arc<AtomicUsize>) -> Job {
        let ran = Arc::clone(ran);
        Box::new(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        })
    }

    /// What the worker does when it wakes: look at its slot and take the
    /// job in it.
    fn worker_takes(slot: &Slot) -> Option<Job> {
        let mut hand = slot.hand.lock();
        hand.woken = false;
        hand.job.take()
    }

    fn notifies(slot: &Slot) -> u64 {
        slot.hand.lock().notifies
    }

    #[test]
    fn an_untaken_job_is_reclaimed_once_and_the_worker_is_listed_again() {
        let (cache, slot) = parked();
        let ran = Arc::new(AtomicUsize::new(0));
        let handed = cache.execute(counting(&ran)).expect("handed to the slot");
        assert!(!listed(cache, &slot), "claimed while it holds the job");
        let again = Handed {
            cache,
            slot: Arc::clone(&slot),
            handed: handed.handed,
        };
        handed.reclaim().expect("nobody took it")();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert!(listed(cache, &slot));
        assert!(again.reclaim().is_none(), "the job is gone");
        assert_eq!(cache.idle.lock().len(), 1, "listed once");
        assert!(worker_takes(&slot).is_none(), "the woken worker parks on");
    }

    #[test]
    fn a_job_the_worker_took_is_not_reclaimed() {
        let (cache, slot) = parked();
        let ran = Arc::new(AtomicUsize::new(0));
        let handed = cache.execute(counting(&ran)).expect("handed to the slot");
        let job = worker_takes(&slot).expect("the worker finds its job");
        assert!(handed.reclaim().is_none());
        assert!(!listed(cache, &slot), "the worker lists itself when done");
        job();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_stale_hand_off_never_takes_a_later_job_to_the_same_worker() {
        let (cache, slot) = parked();
        let (ran_a, ran_b) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let a = cache.execute(counting(&ran_a)).expect("handed to the slot");
        // The worker runs A, lists itself idle and is handed B.
        worker_takes(&slot).expect("job A")();
        cache.idle.lock().push(Arc::clone(&slot));
        let b = cache.execute(counting(&ran_b)).expect("handed to the slot");
        assert!(Arc::ptr_eq(&a.slot, &b.slot), "the same worker");
        // A join of A that comes late must not steal B.
        assert!(a.reclaim().is_none());
        assert!(!listed(cache, &slot));
        worker_takes(&slot).expect("B is still in place")();
        assert_eq!(
            (ran_a.load(Ordering::SeqCst), ran_b.load(Ordering::SeqCst)),
            (1, 1)
        );
        assert!(b.reclaim().is_none());
    }

    #[test]
    fn a_reclaimed_worker_serves_the_next_hand_off() {
        let (cache, slot) = parked();
        let ran = Arc::new(AtomicUsize::new(0));
        let first = cache.execute(counting(&ran)).expect("handed to the slot");
        first.reclaim().expect("nobody took it")();
        let second = cache.execute(counting(&ran)).expect("the listed worker");
        assert!(Arc::ptr_eq(&second.slot, &slot));
        assert!(cache.idle.lock().is_empty());
        worker_takes(&slot).expect("the second job")();
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }
    #[test]
    fn a_hand_off_before_the_worker_looked_sends_no_second_notify() {
        let (cache, slot) = parked();
        let ran = Arc::new(AtomicUsize::new(0));
        let first = cache.execute(counting(&ran)).expect("handed to the slot");
        assert_eq!(notifies(&slot), 1);
        first.reclaim().expect("nobody took it")();
        // Handed again before the worker looked: the first notify still
        // stands, and the worker finds the second job when it answers it.
        let second = cache.execute(counting(&ran)).expect("the listed worker");
        assert_eq!(notifies(&slot), 1, "notified twice for one look");
        worker_takes(&slot).expect("the second job")();
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert!(second.reclaim().is_none());
        // The worker looked: the next hand-off notifies again.
        cache.idle.lock().push(Arc::clone(&slot));
        let third = cache.execute(counting(&ran)).expect("handed to the slot");
        assert_eq!(notifies(&slot), 2);
        // Taken back, and the worker looks and finds nothing: a look all the
        // same, so the hand-off after it notifies.
        third.reclaim().expect("nobody took it")();
        assert!(worker_takes(&slot).is_none());
        cache.execute(counting(&ran)).expect("the listed worker");
        assert_eq!(notifies(&slot), 3);
        worker_takes(&slot).expect("the fourth job")();
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }
}
