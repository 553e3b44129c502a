//! Property battery for the lock-free `VersionCell`: under randomized
//! waiter/advancer interleavings the cell is **lost-wakeup-free** (every
//! waiter whose predicate eventually holds returns — a lost wakeup shows
//! up as a hung thread, which the watchdog joins turn into a test failure)
//! and **monotonic** (no thread ever observes `lv` decrease), and waiters
//! always observe a version `>=` their wait target.
//!
//! These are the properties the parking seam's Dekker-style argument
//! (`samoa_core::version` module docs) and the monotone-raise
//! linearizability argument claim; the interleavings are randomized with
//! per-operation delay jitter so the schedules actually differ run to run
//! within each case. An admission is the pair `(pv, k)`: `lv + k >= pv`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;
use samoa_core::version::VersionCell;

/// Join every handle within `timeout`, panicking (instead of hanging the
/// binary) if one never finishes — the lost-wakeup detector.
fn join_all_within(handles: Vec<std::thread::JoinHandle<()>>, timeout: Duration, what: &str) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for h in handles {
            h.join().expect("worker panicked");
        }
        let _ = tx.send(());
    });
    rx.recv_timeout(timeout)
        .unwrap_or_else(|_| panic!("{what}: a thread hung for {timeout:?} — lost wakeup"));
}

/// Apply the generated jitter choice between operations, so the same case
/// exercises different interleavings at the instruction level.
fn jitter(choice: u8) {
    match choice % 3 {
        0 => {}
        1 => std::thread::yield_now(),
        _ => std::thread::sleep(Duration::from_micros(50)),
    }
}

proptest! {
    // Every case spawns real threads; keep the counts moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random waiters (each with a random target) against random advancer
    /// threads issuing interleaved `bump`/`raise_to` streams that together
    /// are guaranteed to reach the largest target. Every waiter must
    /// return (no lost wakeup), must observe `lv >= target`, and the final
    /// value must be within the bounds the operation mix implies.
    #[test]
    fn waiters_always_observe_at_least_their_target(
        targets in proptest::collection::vec(1u64..12, 1..6),
        // (is_bump, raise_target, jitter) per advancer op.
        ops in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 1u64..12, 0u8..3), 1..10),
            1..4,
        ),
    ) {
        let cell = Arc::new(VersionCell::new());
        let max_target = *targets.iter().max().unwrap();
        let total_bumps: u64 = ops
            .iter()
            .flatten()
            .filter(|&&(is_bump, _, _)| is_bump)
            .count() as u64;
        let max_raise = ops
            .iter()
            .flatten()
            .filter(|&&(is_bump, _, _)| !is_bump)
            .map(|&(_, t, _)| t)
            .max()
            .unwrap_or(0);

        let mut handles = Vec::new();
        let observed: Vec<Arc<AtomicU64>> =
            targets.iter().map(|_| Arc::new(AtomicU64::new(u64::MAX))).collect();
        for (&target, slot) in targets.iter().zip(&observed) {
            let cell = Arc::clone(&cell);
            let slot = Arc::clone(slot);
            handles.push(std::thread::spawn(move || {
                let v = cell.admit(target, 0);
                slot.store(v, Ordering::SeqCst);
            }));
        }
        for stream in &ops {
            let cell = Arc::clone(&cell);
            let stream = stream.clone();
            handles.push(std::thread::spawn(move || {
                for (is_bump, raise, j) in stream {
                    if is_bump {
                        cell.bump();
                    } else {
                        cell.raise_to(raise);
                    }
                    jitter(j);
                }
            }));
        }
        // Backstop advancer: guarantees every target is eventually
        // reachable regardless of the generated mix. Its own wakeup must
        // not be the only one that works — any earlier op crossing a
        // target must already have woken its waiter, or that waiter is
        // still parked here and the backstop wakes it; either way a
        // *skipped* notify (the bug this hunts) strands a waiter forever.
        {
            let cell = Arc::clone(&cell);
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                cell.raise_to(max_target);
            }));
        }
        join_all_within(handles, Duration::from_secs(20), "waiter/advancer mix");

        for (&target, slot) in targets.iter().zip(&observed) {
            let v = slot.load(Ordering::SeqCst);
            prop_assert!(
                v >= target,
                "waiter returned below its target: observed {v}, target {target}"
            );
        }
        let fin = cell.get();
        prop_assert!(fin >= max_target);
        prop_assert!(
            fin <= total_bumps + max_raise.max(max_target),
            "final {fin} exceeds bumps({total_bumps}) + max raise({})",
            max_raise.max(max_target)
        );
    }

    /// The Rule-3 completion chain: thread `k` waits for `lv >= k` then
    /// raises to `k + 1` (`admit` then `raise_to`), exactly what VCAbasic
    /// completion does. Spawned in a generated (shuffled) order, each
    /// link's wakeup is load-bearing — a single lost wakeup deadlocks the
    /// whole chain — and afterwards `lv` must equal the chain length
    /// exactly.
    #[test]
    fn completion_chain_never_loses_a_wakeup(
        // A permutation seed: spawn order is 0..n rotated/interleaved.
        n in 2usize..10,
        seed in 0usize..1000,
        jitters in proptest::collection::vec(0u8..3, 10..11),
    ) {
        let cell = Arc::new(VersionCell::new());
        let mut order: Vec<usize> = (0..n).collect();
        // Cheap deterministic shuffle from the seed.
        for i in (1..n).rev() {
            order.swap(i, (seed * 31 + i * 7) % (i + 1));
        }
        let mut handles = Vec::new();
        for (spawn_idx, &k) in order.iter().enumerate() {
            let cell = Arc::clone(&cell);
            let k = k as u64;
            let j = jitters[spawn_idx % jitters.len()];
            // Rule-2 shape: wait for `lv + 1 >= pv` where pv = k + 1, i.e.
            // thread k runs once its k predecessors have all raised.
            let pv = k + 1;
            handles.push(std::thread::spawn(move || {
                jitter(j);
                cell.admit(pv, 1);
                cell.raise_to(pv);
            }));
        }
        join_all_within(handles, Duration::from_secs(20), "completion chain");
        prop_assert_eq!(cell.get(), n as u64, "chain did not settle at its length");
    }

    /// Monotonicity: concurrent samplers never observe `lv` move
    /// backwards, whatever mix of `bump` and `raise_to` runs underneath.
    #[test]
    fn observed_versions_are_monotone(
        ops in proptest::collection::vec((any::<bool>(), 1u64..64, 0u8..3), 4..40),
        advancers in 1usize..4,
    ) {
        let cell = Arc::new(VersionCell::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        let violations = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let v = cell.get();
                    if v < last {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    last = v;
                }
            }));
        }
        let chunks: Vec<Vec<(bool, u64, u8)>> = ops
            .chunks(ops.len().div_ceil(advancers))
            .map(<[(bool, u64, u8)]>::to_vec)
            .collect();
        let mut workers = Vec::new();
        for chunk in chunks {
            let cell = Arc::clone(&cell);
            workers.push(std::thread::spawn(move || {
                for (is_bump, raise, j) in chunk {
                    if is_bump {
                        cell.bump();
                    } else {
                        cell.raise_to(raise);
                    }
                    jitter(j);
                }
            }));
        }
        join_all_within(workers, Duration::from_secs(20), "advancers");
        stop.store(true, Ordering::Relaxed);
        join_all_within(handles, Duration::from_secs(20), "samplers");
        prop_assert_eq!(violations.load(Ordering::Relaxed), 0, "lv moved backwards");
    }

}
