//! Optimistic concurrency control with rollback — a concrete representative
//! of the paper's *second* algorithm family.
//!
//! §1 of the paper classifies its deadlock-free algorithms into
//! "1) versioning algorithms with allocation of access to event handlers,
//! and 2) timestamp-ordering algorithms with rollback/recovery", and then
//! only ever specifies family 1. This module implements the closest
//! classical member of family 2 that the paper's framing admits:
//! **backward-validation optimistic concurrency control** — computations
//! execute against private copy-on-write overlays of the microprotocol
//! states they touch, validate at completion, and on conflict roll back and
//! retry.
//!
//! The contrast the paper draws is embodied directly in the API:
//!
//! * the versioning family ([`Runtime`](crate::runtime::Runtime)) takes
//!   `FnOnce` bodies — computations are *never aborted*, so side effects
//!   (network sends!) are safe, and computations may be multi-threaded;
//! * this family takes `Fn` bodies — a computation may run many times, so
//!   its only permitted effect is mutating [`OccCell`] state, and it is
//!   single-threaded. This is exactly why the paper's group-communication
//!   stack uses the versioning family.
//!
//! Experiment E9 compares the two families against each other: optimistic
//! wins when conflicts are rare (no blocking at all), versioning wins under
//! contention (no wasted re-execution).

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::error::{Result, SamoaError};
use crate::sched::{SchedHook, SchedPoint, SchedResource};
use crate::trace::{self, TraceKind, TraceSink};

/// A shared state cell managed by optimistic concurrency control.
pub struct OccCell<S> {
    inner: Arc<CellInner<S>>,
}

impl<S> Clone for OccCell<S> {
    fn clone(&self) -> Self {
        OccCell {
            inner: Arc::clone(&self.inner),
        }
    }
}

struct CellInner<S> {
    id: u64,
    committed: Mutex<S>,
    /// Bumped on every committed write; the validation token.
    version: AtomicU64,
}

/// Type-erased view of a cell used by the transaction bookkeeping.
trait CellDyn: Send + Sync {
    fn version(&self) -> u64;
    fn commit_overlay(&self, overlay: Box<dyn Any + Send>);
}

impl<S: Clone + Send + 'static> CellDyn for CellInner<S> {
    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
    fn commit_overlay(&self, overlay: Box<dyn Any + Send>) {
        let value = *overlay.downcast::<S>().expect("overlay type");
        *self.committed.lock() = value;
        self.version.fetch_add(1, Ordering::Release);
    }
}

static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(0);

impl<S: Clone + Send + 'static> OccCell<S> {
    /// Create a cell with an initial committed value.
    pub fn new(initial: S) -> Self {
        OccCell {
            inner: Arc::new(CellInner {
                id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
                committed: Mutex::new(initial),
                version: AtomicU64::new(0),
            }),
        }
    }

    /// Read the committed value outside any transaction.
    pub fn read_committed<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.inner.committed.lock())
    }

    /// Number of committed writes so far.
    pub fn commit_count(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }

    /// Read within a transaction (copy-on-first-touch overlay).
    pub fn read<R>(&self, tx: &OccCtx, f: impl FnOnce(&S) -> R) -> R {
        tx.with_overlay(&self.inner, false, |s: &mut S| f(s))
    }

    /// Write within a transaction; applied to the shared state only if the
    /// transaction validates at completion.
    pub fn write<R>(&self, tx: &OccCtx, f: impl FnOnce(&mut S) -> R) -> R {
        tx.with_overlay(&self.inner, true, f)
    }
}

impl<S> fmt::Debug for OccCell<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OccCell")
            .field("id", &self.inner.id)
            .finish_non_exhaustive()
    }
}

struct TouchEntry {
    cell: Arc<dyn CellDyn>,
    seen_version: u64,
    overlay: Box<dyn Any + Send>,
    written: bool,
}

/// The transaction context of one attempt of an optimistic computation.
pub struct OccCtx {
    touched: RefCell<BTreeMap<u64, TouchEntry>>,
}

impl OccCtx {
    fn new() -> Self {
        OccCtx {
            touched: RefCell::new(BTreeMap::new()),
        }
    }

    fn with_overlay<S: Clone + Send + 'static, R>(
        &self,
        cell: &Arc<CellInner<S>>,
        write: bool,
        f: impl FnOnce(&mut S) -> R,
    ) -> R {
        let mut touched = self.touched.borrow_mut();
        let entry = touched.entry(cell.id).or_insert_with(|| TouchEntry {
            cell: Arc::clone(cell) as Arc<dyn CellDyn>,
            seen_version: cell.version.load(Ordering::Acquire),
            overlay: Box::new(cell.committed.lock().clone()),
            written: false,
        });
        entry.written |= write;
        let s = entry
            .overlay
            .downcast_mut::<S>()
            .expect("overlay type matches cell type");
        f(s)
    }
}

impl fmt::Debug for OccCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OccCtx(touched={})", self.touched.borrow().len())
    }
}

/// Outcome statistics of one optimistic execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccReport {
    /// How many aborted attempts preceded the successful one.
    pub retries: u64,
}

/// The optimistic runtime: a commit lock plus retry statistics.
///
/// ```
/// use samoa_core::optimistic::{OccCell, OccRuntime};
///
/// let rt = OccRuntime::new();
/// let counter = OccCell::new(0u64);
/// let (_, report) = rt
///     .execute(|tx| {
///         let v = counter.read(tx, |c| *c);
///         counter.write(tx, |c| *c = v + 1);
///         Ok(v)
///     })
///     .unwrap();
/// assert_eq!(counter.read_committed(|c| *c), 1);
/// assert_eq!(report.retries, 0);
/// ```
#[derive(Clone, Default)]
pub struct OccRuntime {
    inner: Arc<OccInner>,
}

#[derive(Default)]
struct OccInner {
    commit_lock: Mutex<()>,
    total_commits: AtomicU64,
    total_retries: AtomicU64,
    /// Transaction ids for instrumentation; only assigned when a hook or
    /// sink is attached.
    tx_seq: AtomicU64,
    /// Schedule-control hook ([`OccRuntime::with_parts`]); `None` in
    /// production, so each decision point costs one branch.
    hook: Option<Arc<dyn SchedHook>>,
    /// Trace sink + timestamp epoch ([`OccRuntime::with_parts`]); `None`
    /// when untraced — one branch per instrumentation site, as in
    /// [`Runtime`](crate::Runtime).
    trace: Option<(Arc<dyn TraceSink>, Instant)>,
}

impl OccRuntime {
    /// Create a fresh optimistic runtime.
    pub fn new() -> Self {
        OccRuntime::default()
    }

    /// The general constructor, with the same two optional attachments as
    /// [`Runtime::with_parts`](crate::Runtime::with_parts), in any
    /// combination. With a `hook`, validation, commit, and retry are
    /// reported as [`SchedPoint`]s, letting a controller steer which
    /// transaction validates first; with a `sink`, every validation, commit,
    /// and abort/retry is delivered as a structured
    /// [`TraceKind::OccValidate`]/[`TraceKind::OccCommit`]/
    /// [`TraceKind::OccAbort`] event, timestamped from this runtime's
    /// construction.
    pub fn with_parts(hook: Option<Arc<dyn SchedHook>>, sink: Option<Arc<dyn TraceSink>>) -> Self {
        OccRuntime {
            inner: Arc::new(OccInner {
                hook,
                trace: sink.map(|s| (s, Instant::now())),
                ..OccInner::default()
            }),
        }
    }

    /// Execute `f` as an optimistic computation: run against private
    /// overlays, validate, commit — retrying from scratch on conflict.
    ///
    /// `f` must be repeatable: it may run any number of times, and only its
    /// final (validated) run's writes become visible. Errors returned by
    /// `f` abort the computation permanently without committing.
    pub fn execute<R>(&self, f: impl Fn(&OccCtx) -> Result<R>) -> Result<(R, OccReport)> {
        // A transaction id is only minted when someone is watching.
        let instrumented = self.inner.hook.is_some() || self.inner.trace.is_some();
        let tx_id = if instrumented {
            self.inner.tx_seq.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        };
        let mut retries = 0u64;
        loop {
            let tx = OccCtx::new();
            let out = f(&tx)?;
            if let Some((sink, epoch)) = &self.inner.trace {
                let cells = tx.touched.borrow().len() as u64;
                trace::deliver(sink, *epoch, TraceKind::OccValidate { tx: tx_id, cells });
            }
            if let Some(h) = &self.inner.hook {
                // The footprint is the validation set: the attempt just read
                // these cells and is about to validate/commit against them.
                let cells: Vec<SchedResource> = tx
                    .touched
                    .borrow()
                    .keys()
                    .map(|&id| SchedResource::OccCell(id))
                    .collect();
                h.yield_point_with(SchedPoint::OccValidate { tx: tx_id }, &cells);
            }
            // Validate + commit atomically.
            let _commit = self.inner.commit_lock.lock();
            let touched = tx.touched.into_inner();
            let valid = touched.values().all(|e| e.cell.version() == e.seen_version);
            if valid {
                let written: Vec<SchedResource> = if self.inner.hook.is_some() {
                    touched
                        .iter()
                        .filter(|(_, e)| e.written)
                        .map(|(&id, _)| SchedResource::OccCell(id))
                        .collect()
                } else {
                    Vec::new()
                };
                for (_, e) in touched {
                    if e.written {
                        e.cell.commit_overlay(e.overlay);
                    }
                }
                self.inner.total_commits.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .total_retries
                    .fetch_add(retries, Ordering::Relaxed);
                drop(_commit);
                if let Some((sink, epoch)) = &self.inner.trace {
                    trace::deliver(sink, *epoch, TraceKind::OccCommit { tx: tx_id, retries });
                }
                if let Some(h) = &self.inner.hook {
                    // Footprint: the cells the commit just wrote.
                    h.yield_point_with(SchedPoint::OccCommit { tx: tx_id }, &written);
                }
                return Ok((out, OccReport { retries }));
            }
            let stale: Vec<SchedResource> = if self.inner.hook.is_some() {
                touched
                    .keys()
                    .map(|&id| SchedResource::OccCell(id))
                    .collect()
            } else {
                Vec::new()
            };
            drop(_commit);
            retries += 1;
            if let Some((sink, epoch)) = &self.inner.trace {
                trace::deliver(
                    sink,
                    *epoch,
                    TraceKind::OccAbort {
                        tx: tx_id,
                        attempt: retries,
                    },
                );
            }
            if let Some(h) = &self.inner.hook {
                // Footprint: the validation set the aborted attempt read —
                // the retry is about to re-read (and re-write) those cells.
                h.yield_point_with(
                    SchedPoint::OccRetry {
                        tx: tx_id,
                        attempt: retries,
                    },
                    &stale,
                );
            }
            if retries > 1_000_000 {
                return Err(SamoaError::protocol(
                    "optimistic computation starved (1M aborts)",
                ));
            }
        }
    }

    /// Committed computations so far.
    pub fn commits(&self) -> u64 {
        self.inner.total_commits.load(Ordering::Relaxed)
    }

    /// Aborted attempts so far (the wasted work of this family).
    pub fn aborts(&self) -> u64 {
        self.inner.total_retries.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for OccRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OccRuntime")
            .field("commits", &self.commits())
            .field("aborts", &self.aborts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn read_write_commit() {
        let rt = OccRuntime::new();
        let cell = OccCell::new(vec![1u32]);
        let ((), rep) = rt
            .execute(|tx| {
                cell.write(tx, |v| v.push(2));
                Ok(())
            })
            .unwrap();
        assert_eq!(rep.retries, 0);
        assert_eq!(cell.read_committed(|v| v.clone()), vec![1, 2]);
        assert_eq!(cell.commit_count(), 1);
        assert_eq!(rt.commits(), 1);
    }

    #[test]
    fn overlay_isolation_until_commit() {
        let rt = OccRuntime::new();
        let cell = OccCell::new(0u64);
        rt.execute(|tx| {
            cell.write(tx, |v| *v = 42);
            // Not committed yet: the shared state is unchanged.
            assert_eq!(cell.read_committed(|v| *v), 0);
            // But the transaction sees its own write.
            assert_eq!(cell.read(tx, |v| *v), 42);
            Ok(())
        })
        .unwrap();
        assert_eq!(cell.read_committed(|v| *v), 42);
    }

    #[test]
    fn error_aborts_without_commit() {
        let rt = OccRuntime::new();
        let cell = OccCell::new(7u64);
        let err = rt
            .execute(|tx| {
                cell.write(tx, |v| *v = 0);
                Err::<(), _>(SamoaError::protocol("nope"))
            })
            .unwrap_err();
        assert!(matches!(err, SamoaError::Protocol { .. }));
        assert_eq!(cell.read_committed(|v| *v), 7);
        assert_eq!(rt.commits(), 0);
    }

    #[test]
    fn read_only_transactions_do_not_bump_versions() {
        let rt = OccRuntime::new();
        let cell = OccCell::new(5u64);
        let (v, _) = rt.execute(|tx| Ok(cell.read(tx, |v| *v))).unwrap();
        assert_eq!(v, 5);
        assert_eq!(cell.commit_count(), 0);
    }

    #[test]
    fn conflicting_increments_never_lose_updates() {
        let rt = OccRuntime::new();
        let cell = OccCell::new(0u64);
        let threads = 8;
        let per = 50;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let rt = rt.clone();
                let cell = cell.clone();
                scope.spawn(move || {
                    for _ in 0..per {
                        rt.execute(|tx| {
                            let v = cell.read(tx, |c| *c);
                            // widen the conflict window
                            std::thread::sleep(Duration::from_micros(10));
                            cell.write(tx, |c| *c = v + 1);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(cell.read_committed(|v| *v), threads * per);
        assert_eq!(rt.commits(), threads * per);
        // Under this contention, rollbacks must actually have happened —
        // otherwise the test exercises nothing.
        assert!(rt.aborts() > 0, "no conflicts induced");
    }

    #[test]
    fn disjoint_cells_commit_without_retries() {
        let rt = OccRuntime::new();
        let a = OccCell::new(0u64);
        let b = OccCell::new(0u64);
        std::thread::scope(|scope| {
            let (rt1, a) = (rt.clone(), a.clone());
            let (rt2, b) = (rt.clone(), b.clone());
            scope.spawn(move || {
                for _ in 0..100 {
                    rt1.execute(|tx| {
                        a.write(tx, |v| *v += 1);
                        Ok(())
                    })
                    .unwrap();
                }
            });
            scope.spawn(move || {
                for _ in 0..100 {
                    rt2.execute(|tx| {
                        b.write(tx, |v| *v += 1);
                        Ok(())
                    })
                    .unwrap();
                }
            });
        });
        assert_eq!(a.read_committed(|v| *v), 100);
        assert_eq!(b.read_committed(|v| *v), 100);
        assert_eq!(rt.aborts(), 0, "disjoint writes should never conflict");
    }

    #[test]
    fn traced_runtime_emits_validate_commit_abort() {
        use crate::trace::{TraceBuffer, TraceKind};
        let buf = TraceBuffer::new();
        let rt = OccRuntime::with_parts(None, Some(buf.clone()));
        let cell = OccCell::new(0u64);
        // Force at least one abort under contention.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rt = rt.clone();
                let cell = cell.clone();
                scope.spawn(move || {
                    for _ in 0..25 {
                        rt.execute(|tx| {
                            let v = cell.read(tx, |c| *c);
                            std::thread::sleep(Duration::from_micros(10));
                            cell.write(tx, |c| *c = v + 1);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        let events = buf.drain();
        let mut validates = 0;
        let mut commits = 0;
        let mut aborts = 0;
        for e in &events {
            match e.kind {
                TraceKind::OccValidate { cells, .. } => {
                    assert_eq!(cells, 1);
                    validates += 1;
                }
                TraceKind::OccCommit { .. } => commits += 1,
                TraceKind::OccAbort { .. } => aborts += 1,
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(commits, 100);
        assert_eq!(validates as u64, commits + aborts);
        assert_eq!(aborts, rt.aborts());
        assert!(aborts > 0, "no conflicts induced");
    }

    #[test]
    fn multi_cell_transaction_is_atomic() {
        // Transfer between two accounts under contention: the invariant
        // a + b = const holds in every committed state.
        let rt = OccRuntime::new();
        let a = OccCell::new(500i64);
        let b = OccCell::new(500i64);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let rt = rt.clone();
                let (a, b) = (a.clone(), b.clone());
                scope.spawn(move || {
                    for i in 0..50 {
                        let amount = ((t * 7 + i) % 20) as i64 - 10;
                        rt.execute(|tx| {
                            let av = a.read(tx, |v| *v);
                            let bv = b.read(tx, |v| *v);
                            a.write(tx, |v| *v = av - amount);
                            b.write(tx, |v| *v = bv + amount);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        let total = a.read_committed(|v| *v) + b.read_committed(|v| *v);
        assert_eq!(total, 1000, "atomicity violated");
    }
}
