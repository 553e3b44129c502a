//! Offline drop-in replacement for the subset of `parking_lot` used by this
//! workspace, implemented over `std::sync` primitives.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves `parking_lot` to this path crate. Semantics *and uncontended
//! cost* match parking_lot's for the covered API: non-poisoning
//! `Mutex`/`RwLock` (poison is swallowed: a panicking critical section does
//! not poison the lock for later users), guards that borrow the lock, a
//! `Condvar` that works with our guards, and a `ReentrantMutex` keyed on
//! thread id. The cost: **a thread enters the kernel only to sleep or to
//! wake a sleeper.** std's futex `Mutex`/`RwLock` already behave so; its
//! `Condvar::notify_*` is a `FUTEX_WAKE` whether or not anyone sleeps, so
//! [`Condvar`] and [`ReentrantMutex`] count their sleepers and skip the call
//! at zero. The tests below pin that as counts.
//!
//! ## Audit: a skipped notify loses no wake-up
//!
//! A waiter raises [`Condvar`]'s count *while it still holds the guard*, so
//! the skip is sound for a notifier that changes its condition under — or,
//! having changed it, passes through — the mutex the waiter holds: a waiter
//! not yet counted has not released that mutex, so it will see the change.
//! All 17 `notify_*` sites of the workspace do one or the other:
//!
//! | sites | condition, and the mutex |
//! |---|---|
//! | `core/exec.rs` `execute` | `slot.job` filled, under `slot.job`; not sent while the slot's `woken` bit, under the same lock, says the last notify is unanswered (the worker looks again, and clears it, under that lock) |
//! | `core/version.rs` `ParkSeam::wake` | an atomic; notifies under `guarded`, held by a parker from registration to `wait` |
//! | `core/computation.rs` `enqueue`, `complete` | task pushed under `queue`; `done` (atomic) passes through `done_lock` |
//! | `core/computation.rs` `release_pending` | `pending` (atomic); passes through `queue` — lock and notify skipped when the computation has no worker but the caller |
//! | `net/sim.rs`, 8 sites on `cv` and `quiesce_cv` | heap, `delivering`, `shutdown`: all under `state` |
//! | `net/tcp.rs` `send`; `shutdown` | frame queued under `peer.state`; `shutdown` (atomic) passes through it |
//! | `net/clock.rs` `Alarm::arm`, `Ticker::stop` | the deadline, `stopped` (atomics); pass through `lock`, under which the timer thread reads both before it waits |
//! | `proto/kv.rs` `complete_all`, `core/external.rs` `ExtSlot::drop` | each reply stored under its `cell.slot`, every one before the first notify; `count` lowered under `count` |

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

#[cfg(test)]
thread_local! {
    /// This thread's entries into a lock's slow path.
    static SLOW_PATHS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// This thread's calls that reached std's `notify_*` (a syscall each).
    static OS_NOTIFIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bump one of the per-thread counters above; test builds only.
macro_rules! count {
    ($counter:ident) => {
        #[cfg(test)]
        $counter.with(|c| c.set(c.get() + 1));
    };
}

// ---------------------------------------------------------------- Mutex ----

/// Non-poisoning mutex with the `parking_lot::Mutex` API subset.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a mutex.
    pub const fn new(t: T) -> Self {
        Mutex(std::sync::Mutex::new(t))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken during wait")
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Mutex").finish()
    }
}

// -------------------------------------------------------------- Condvar ----

/// Result of a timed wait: did it time out?
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait returned because the deadline passed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable compatible with [`MutexGuard`]. A notify with nobody
/// waiting returns in user space (crate docs: cost and audit).
#[derive(Debug, Default)]
pub struct Condvar {
    /// Threads inside `wait`/`wait_until`, counted while they hold the guard.
    waiters: AtomicUsize,
    cv: std::sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar {
            waiters: AtomicUsize::new(0),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Block until notified, releasing the guard while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard taken during wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        guard.0 = Some(self.cv.wait(inner).unwrap_or_else(|e| e.into_inner()));
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let inner = guard.0.take().expect("guard taken during wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, res) = self
            .cv
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.0 = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            count!(OS_NOTIFIES);
            self.cv.notify_one();
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            count!(OS_NOTIFIES);
            self.cv.notify_all();
        }
    }
}

// --------------------------------------------------------------- RwLock ----

/// Non-poisoning reader-writer lock with the `parking_lot::RwLock` subset.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-access guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-access guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Create a reader-writer lock.
    pub const fn new(t: T) -> Self {
        RwLock(std::sync::RwLock::new(t))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquire exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

// ------------------------------------------------------- ReentrantMutex ----

/// Recursive mutex: the owning thread may lock again without deadlocking.
///
/// Matches `parking_lot::ReentrantMutex`: the guard only grants shared
/// access (`Deref`), so interior mutability (e.g. `RefCell`) supplies
/// mutation, exactly as the real crate requires.
///
/// Uncontended, `lock` is one CAS on `owner` and unlock a store and a load;
/// only a thread that finds the mutex owned takes `lock`, registers in
/// `waiters` and sleeps on `cv`. No wake-up is lost, by the Dekker argument
/// of `samoa-core`'s `ParkSeam`: in the `SeqCst` order the waiter registers
/// (under `lock`) *before* re-trying `owner`, the unlocker clears `owner`
/// *before* reading `waiters` — a re-try that missed the clear is seen, and
/// is notified only once its `wait` has released `lock`.
pub struct ReentrantMutex<T: ?Sized> {
    /// Thread id of the current owner (0 = unowned).
    owner: AtomicU64,
    /// Recursion depth of the owner.
    depth: AtomicUsize,
    /// Threads inside `lock_slow`.
    waiters: AtomicUsize,
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
    data: UnsafeCell<T>,
}

// Safety: access to `data` is serialised on the owning thread; `T` crossing
// threads needs the usual Send bound. No `Sync` requirement on `T` because
// only one thread at a time can observe `&T` (same contract as parking_lot).
unsafe impl<T: Send + ?Sized> Send for ReentrantMutex<T> {}
unsafe impl<T: Send + ?Sized> Sync for ReentrantMutex<T> {}

/// Guard returned by [`ReentrantMutex::lock`].
pub struct ReentrantMutexGuard<'a, T: ?Sized> {
    m: &'a ReentrantMutex<T>,
}

fn thread_id() -> u64 {
    // Stable `ThreadId::as_u64` is not const-stable to extract; hash the
    // debug formatting-free route instead: addr_of a thread-local.
    thread_local! {
        static MARKER: u8 = const { 0 };
    }
    MARKER.with(|m| m as *const u8 as u64)
}

impl<T> ReentrantMutex<T> {
    /// Create a reentrant mutex.
    pub const fn new(t: T) -> Self {
        ReentrantMutex {
            owner: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
            lock: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
            data: UnsafeCell::new(t),
        }
    }
}

impl<T: ?Sized> ReentrantMutex<T> {
    /// Acquire the mutex; recursive acquisition by the owner succeeds.
    pub fn lock(&self) -> ReentrantMutexGuard<'_, T> {
        let me = thread_id();
        if self.owner.load(Ordering::Acquire) == me {
            // Only the owner touches `depth`: plain load and store.
            let d = self.depth.load(Ordering::Relaxed);
            self.depth.store(d + 1, Ordering::Relaxed);
            return ReentrantMutexGuard { m: self };
        }
        if self
            .owner
            .compare_exchange(0, me, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            self.lock_slow(me);
        }
        self.depth.store(1, Ordering::Relaxed);
        ReentrantMutexGuard { m: self }
    }

    #[cold]
    fn lock_slow(&self, me: u64) {
        count!(SLOW_PATHS);
        let mut g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while self
            .owner
            .compare_exchange(0, me, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T: ?Sized> Deref for ReentrantMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: we hold the lock, so no other thread dereferences.
        unsafe { &*self.m.data.get() }
    }
}

impl<T: ?Sized> Drop for ReentrantMutexGuard<'_, T> {
    fn drop(&mut self) {
        let d = self.m.depth.load(Ordering::Relaxed) - 1;
        self.m.depth.store(d, Ordering::Relaxed);
        if d == 0 {
            self.m.owner.store(0, Ordering::SeqCst);
            if self.m.waiters.load(Ordering::SeqCst) > 0 {
                count!(OS_NOTIFIES);
                let _g = self.m.lock.lock().unwrap_or_else(|e| e.into_inner());
                self.m.cv.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::Arc;
    use std::thread::spawn;
    use std::time::Duration;

    const SC: Ordering = Ordering::SeqCst;

    /// This thread's `(slow-path entries, OS-level notifies)` so far.
    fn counts() -> (u64, u64) {
        (SLOW_PATHS.with(|c| c.get()), OS_NOTIFIES.with(|c| c.get()))
    }

    /// A latch on something the test can read: yield until it holds.
    fn until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_shared_then_exclusive() {
        let l = RwLock::new(7);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 14);
        }
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn reentrant_same_thread() {
        let m = ReentrantMutex::new(RefCell::new(0));
        let a = m.lock();
        let b = m.lock();
        *b.borrow_mut() += 1;
        drop(b);
        *a.borrow_mut() += 1;
        drop(a);
        assert_eq!(*m.lock().borrow(), 2);
    }

    /// The cost model, as counts: with nobody asleep, no lock takes its slow
    /// path and no notify reaches the OS.
    #[test]
    fn nobody_asleep_no_slow_path_no_os_notify() {
        let before = counts();
        let m = ReentrantMutex::new(RefCell::new(0u64));
        for _ in 0..10_000 {
            let outer = m.lock();
            let nested = m.lock();
            *nested.borrow_mut() += 1;
            drop(nested);
            drop(outer);
            *m.lock().borrow_mut() += 1;
        }
        let cv = Condvar::new();
        for _ in 0..10_000 {
            cv.notify_one();
            cv.notify_all();
        }
        assert_eq!(counts(), before);
        assert_eq!(*m.lock().borrow(), 20_000);
    }

    #[test]
    fn condvar_notify_reaches_a_parked_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        let (m, cv) = &*pair;
        until(|| cv.waiters.load(SC) == 1);
        let os_before = counts().1;
        {
            // Lockable only once the waiter's `wait` has released it; and
            // while we hold it the waiter cannot leave `wait` uncounted.
            let mut g = m.lock();
            *g = true;
            cv.notify_all();
        }
        assert_eq!(counts().1, os_before + 1, "the notify was skipped");
        t.join().unwrap();
        assert_eq!(cv.waiters.load(SC), 0);
    }

    #[test]
    fn wait_until_times_out_and_uncounts_itself() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(r.timed_out());
        assert_eq!(cv.waiters.load(SC), 0);
    }

    #[test]
    fn reentrant_unlock_wakes_a_registered_waiter() {
        let m = Arc::new(ReentrantMutex::new(RefCell::new(0)));
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = spawn(move || {
            let g = m2.lock();
            *g.borrow_mut() += 10;
            counts().0
        });
        // Registered, and — once its inner mutex can be taken — parked:
        // while we own `m` the waiter lets go of it only inside `cv.wait`.
        until(|| m.waiters.load(SC) == 1);
        drop(m.lock.lock().unwrap());
        *g.borrow_mut() += 1;
        let os_before = counts().1;
        drop(g);
        assert_eq!(counts().1, os_before + 1, "the unlock did not notify");
        assert_eq!(t.join().unwrap(), 1, "the waiter's slow-path entries");
        assert_eq!(*m.lock().borrow(), 11);
        assert_eq!(m.waiters.load(SC), 0);
    }

    #[test]
    fn reentrant_two_threads_lose_no_increment() {
        const N: u64 = 100_000;
        let m = Arc::new(ReentrantMutex::new(RefCell::new(0u64)));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                spawn(move || {
                    for _ in 0..N {
                        *m.lock().borrow_mut() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock().borrow(), 2 * N);
        assert_eq!(m.waiters.load(SC), 0);
    }

    /// Waits that end by time-out, by `notify_one` and by `notify_all`, all
    /// racing: every increment lands and the waiter count is back at zero.
    #[test]
    fn timed_waits_racing_notifies_leave_nobody_counted() {
        const N: u64 = 2_000;
        let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let pair = Arc::clone(&pair);
                spawn(move || {
                    let (m, cv) = &*pair;
                    for _ in 0..N {
                        let mut g = m.lock();
                        cv.wait_until(&mut g, Instant::now() + Duration::from_micros(20));
                        *g += 1;
                    }
                })
            })
            .collect();
        let (m, cv) = &*pair;
        until(|| {
            cv.notify_one();
            cv.notify_all();
            *m.lock() == 2 * N
        });
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cv.waiters.load(SC), 0);
    }
}
