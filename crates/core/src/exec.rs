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
//! A computation's thread need not come from here at all: the blocking
//! [`Runtime::run`](crate::Runtime::run) runs the root on the *caller*, and
//! [`Runtime::external`](crate::Runtime::external) uses it for every
//! external event whose policy cannot overlap another — the same argument,
//! made there.
//!
//! Each worker parks on a slot of its own, so a hand-off wakes exactly one
//! thread. This parking is private to the executor: it is not a Rule-2 wait
//! and touches none of the `version::{parks, park_notifies, gate_spins}`
//! counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send>;

/// How long an idle worker stays cached. Well above the protocol stack's
/// 10 ms timer tick, so the threads serving periodic computations survive
/// from one tick to the next; short enough that a burst's threads are gone
/// soon after it.
const KEEP_ALIVE: Duration = Duration::from_millis(250);

/// Where one parked worker receives its next job.
#[derive(Default)]
struct Slot {
    job: Mutex<Option<Job>>,
    wake: Condvar,
}

/// The parked workers, most recently parked last.
static IDLE: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

/// Run `job` on a cached worker thread, or on a new one if none is idle.
/// Never queues: the job has a thread of its own when this returns.
pub(crate) fn execute(job: impl FnOnce() + Send + 'static) {
    let job: Job = Box::new(job);
    let idle = IDLE.lock().pop();
    match idle {
        Some(slot) => {
            *slot.job.lock() = Some(job);
            slot.wake.notify_one();
        }
        None => {
            std::thread::Builder::new()
                .name("samoa-worker".into())
                .spawn(move || worker(job))
                .expect("spawn samoa-worker thread");
        }
    }
}

fn worker(mut job: Job) {
    let slot = Arc::new(Slot::default());
    loop {
        // Jobs catch the panics of the user code they run; one that escapes
        // anyway (a hook, a guard's `Drop`) must not take the worker with it.
        let _ = catch_unwind(AssertUnwindSafe(job));
        IDLE.lock().push(Arc::clone(&slot));
        let mut deadline = Instant::now() + KEEP_ALIVE;
        let mut next = slot.job.lock();
        job = loop {
            if let Some(job) = next.take() {
                break job;
            }
            if slot.wake.wait_until(&mut next, deadline).timed_out() {
                let mut idle = IDLE.lock();
                if let Some(i) = idle.iter().position(|s| Arc::ptr_eq(s, &slot)) {
                    idle.remove(i);
                    return;
                }
                // No longer listed: `execute` has claimed this worker and has
                // filled the slot or is about to — go on to take that job.
                deadline += KEEP_ALIVE;
            }
        };
    }
}
