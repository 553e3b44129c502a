//! The load generator: a closed loop that keeps a bounded window of
//! operations outstanding, an open loop that submits on a fixed schedule,
//! and the per-round samples both produce.
//!
//! The box has two cores, so a workload never runs more than two generator
//! threads; concurrency beyond that comes from each thread's window, never
//! from more threads.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::boxspeed::Bracket;
use crate::procfs::{self, ProcStat};

/// Generator threads (= client connections) of every closed-loop workload.
pub const CLIENTS: usize = 2;

/// Most operations the open-loop generator lets pile up uncollected before
/// it refuses further ones (counted as failed).
pub const OPEN_LOOP_BACKLOG: usize = 64;

/// `OpRecord::kind` of an operation the open loop refused to submit.
pub const REFUSED: u8 = u8::MAX;

/// One operation as its client saw it. Times are nanoseconds since the
/// run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Which generator thread issued it.
    pub client: u8,
    /// Workload-defined kind (KV: 0 put, 1 get, 2 cas).
    pub kind: u8,
    /// Workload-defined identity (KV: the origin-local request id), for
    /// joining the client's view of an operation to the program's events.
    pub tag: u64,
    /// When the operation counts from: the submit call's start in a closed
    /// loop, the scheduled due time in an open loop.
    pub start_ns: u64,
    /// When the submit call began (= `start_ns` in a closed loop; later
    /// than it by the generator's lateness in an open loop).
    pub issued_ns: u64,
    /// When the submit call returned.
    pub submitted_ns: u64,
    /// When the client began waiting on this operation's handle.
    pub wait_from_ns: u64,
    /// When the wait returned.
    pub done_ns: u64,
    /// Did it complete (false: failed, refused or timed out)?
    pub ok: bool,
}

impl OpRecord {
    /// Start to completion.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.start_ns)
    }

    /// The record completed by waiting on the operation's handle.
    fn collected(mut self, epoch: Instant, wait: impl FnOnce() -> bool) -> OpRecord {
        self.wait_from_ns = ns_since(epoch);
        self.ok = wait();
        self.done_ns = ns_since(epoch);
        self
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Run one closed-loop client until `deadline`, then drain its window.
///
/// `submit` generates and issues the next operation, returning its kind,
/// tag and a handle; `wait` blocks on a handle and says whether the
/// operation succeeded. At most `window` handles exist at any instant — the generator
/// cannot thread-bomb a runtime that spawns a thread per computation.
pub fn closed_loop<H>(
    client: u8,
    epoch: Instant,
    deadline: Instant,
    window: usize,
    mut submit: impl FnMut() -> (u8, u64, H),
    mut wait: impl FnMut(H) -> bool,
) -> Vec<OpRecord> {
    assert!(window >= 1, "a closed loop needs a window of at least 1");
    let mut out = Vec::new();
    let mut pending: VecDeque<(OpRecord, H)> = VecDeque::with_capacity(window);
    let mut collect = |pending: &mut VecDeque<(OpRecord, H)>, out: &mut Vec<OpRecord>| {
        if let Some((rec, handle)) = pending.pop_front() {
            out.push(rec.collected(epoch, || wait(handle)));
        }
    };
    while Instant::now() < deadline {
        if pending.len() == window {
            collect(&mut pending, &mut out);
        }
        let start_ns = ns_since(epoch);
        let (kind, tag, handle) = submit();
        let rec = OpRecord {
            client,
            kind,
            tag,
            start_ns,
            issued_ns: start_ns,
            submitted_ns: ns_since(epoch),
            wait_from_ns: 0,
            done_ns: 0,
            ok: false,
        };
        pending.push_back((rec, handle));
        assert!(pending.len() <= window, "closed loop exceeded its window");
    }
    while !pending.is_empty() {
        collect(&mut pending, &mut out);
    }
    out
}

/// Run an open loop: operation `i` is due at `t0 + i * interval` whether or
/// not earlier ones completed, for `count` operations. One thread (the
/// caller) submits, one collects. Latency counts from the *due* time, so a
/// stall charges every request that was due during it; how late the
/// generator itself ran is in `issued_ns - start_ns`.
///
/// When `OPEN_LOOP_BACKLOG` operations are submitted but uncollected, the
/// next one is refused (recorded with `ok: false`) instead of queued.
pub fn open_loop<H: Send>(
    epoch: Instant,
    t0: Instant,
    interval: Duration,
    count: usize,
    mut submit: impl FnMut(usize) -> (u8, u64, H),
    wait: impl Fn(H) -> bool + Send,
) -> Vec<OpRecord> {
    let (tx, rx) = mpsc::channel::<(OpRecord, H)>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Vec::with_capacity(count);
            for (rec, handle) in rx {
                out.push(rec.collected(epoch, || wait(handle)));
                // The generator only counts these; a closed channel means it
                // already left.
                let _ = done_tx.send(());
            }
            out
        });
        let mut refused = Vec::new();
        let mut backlog = 0usize;
        for i in 0..count {
            let due = t0 + interval * i as u32;
            if let Some(d) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
            backlog -= done_rx.try_iter().count();
            let start_ns = due.saturating_duration_since(epoch).as_nanos() as u64;
            let issued_ns = ns_since(epoch);
            let mut rec = OpRecord {
                client: 0,
                kind: 0,
                tag: 0,
                start_ns,
                issued_ns,
                submitted_ns: issued_ns,
                wait_from_ns: issued_ns,
                done_ns: issued_ns,
                ok: false,
            };
            if backlog >= OPEN_LOOP_BACKLOG {
                rec.kind = REFUSED;
                refused.push(rec);
                continue;
            }
            let (kind, tag, handle) = submit(i);
            (rec.kind, rec.tag) = (kind, tag);
            rec.submitted_ns = ns_since(epoch);
            backlog += 1;
            tx.send((rec, handle)).expect("collector thread is alive");
        }
        drop(tx);
        let mut out = collector.join().expect("collector thread");
        out.extend(refused);
        out
    })
}

/// CPU time and operations of one measured round (or one failover trial).
#[derive(Debug, Clone)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The box's speed around this round (`boxspeed`, 1.0 = the standard
    /// box); 1.0 where no reference slices were run.
    pub box_speed: f64,
    pub ops: Vec<OpRecord>,
}

impl Round {
    /// Assemble a round from its clients' records and the process CPU
    /// counters read before and after it.
    pub fn new(wall: Duration, before: ProcStat, after: ProcStat, ops: Vec<OpRecord>) -> Round {
        Round {
            wall_s: wall.as_secs_f64(),
            cpu_s: after.cpu_s() - before.cpu_s(),
            box_speed: 1.0,
            ops,
        }
    }

    pub fn completed(&self) -> usize {
        self.ops.iter().filter(|o| o.ok).count()
    }

    pub fn failed(&self) -> usize {
        self.ops.len() - self.completed()
    }

    /// Latencies of the completed operations, ns, ascending.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .ops
            .iter()
            .filter(|o| o.ok)
            .map(OpRecord::latency_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Median latency over every completed operation of the round.
    pub fn op_p50_us(&self) -> f64 {
        samoa_core::percentile_us(&self.latencies_ns(), 0.5)
    }

    /// Slowest client's median latency over the fastest client's: 1 when
    /// the clients are served alike.
    pub fn unfairness(&self) -> f64 {
        let p50s = self.client_p50s_us();
        let fastest = p50s.iter().copied().fold(f64::INFINITY, f64::min);
        p50s.iter().copied().fold(0.0, f64::max) / fastest.max(1e-9)
    }

    /// Each client's median latency, by client number.
    pub fn client_p50s_us(&self) -> Vec<f64> {
        let mut by_client: std::collections::BTreeMap<u8, Vec<u64>> = Default::default();
        for o in self.ops.iter().filter(|o| o.ok) {
            by_client.entry(o.client).or_default().push(o.latency_ns());
        }
        by_client.into_values().map(crate::stats::p50_us).collect()
    }

    pub fn op_mean_us(&self) -> f64 {
        let l = self.latencies_ns();
        if l.is_empty() {
            0.0
        } else {
            l.iter().sum::<u64>() as f64 / l.len() as f64 / 1e3
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall_s.max(1e-9)
    }

    /// `op_mean_us` at reference speed: what the mean operation would take
    /// on the standard box.
    pub fn op_mean_us_at_ref(&self) -> f64 {
        self.op_mean_us() * self.box_speed
    }

    /// `ops_per_s` at reference speed.
    pub fn ops_per_s_at_ref(&self) -> f64 {
        self.ops_per_s() / self.box_speed.max(1e-9)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.completed().max(1) as f64
    }

    /// Longest stretch with no completion, ms: the gaps between consecutive
    /// completions, plus the one from the round's first start to its first
    /// completion.
    pub fn longest_gap_ms(&self) -> f64 {
        let mut done: Vec<u64> = self
            .ops
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.done_ns)
            .collect();
        done.sort_unstable();
        let first_start = self.ops.iter().map(|o| o.start_ns).min().unwrap_or(0);
        let mut prev = first_start;
        let mut longest = 0u64;
        for d in done {
            longest = longest.max(d.saturating_sub(prev));
            prev = d;
        }
        longest as f64 / 1e6
    }
}

/// Run `rounds` measured rounds of `round_len` each. `run_round` drives the
/// clients until the deadline it is given and returns their merged records;
/// CPU time is read from `/proc/self/stat` around each round. A reference
/// slice of `slice_len` runs before the first round and after every round
/// (none when it is zero, and `box_speed` stays 1), and a round's
/// `box_speed` is the mean of the two slices around it.
pub fn measure_rounds(
    rounds: usize,
    round_len: Duration,
    slice_len: Duration,
    mut run_round: impl FnMut(Instant) -> Vec<OpRecord>,
) -> Vec<Round> {
    let mut bracket = Bracket::open(slice_len);
    (0..rounds)
        .map(|_| {
            let before = procfs::self_stat();
            let start = Instant::now();
            let ops = run_round(start + round_len);
            let mut round = Round::new(start.elapsed(), before, procfs::self_stat(), ops);
            round.box_speed = bracket.close_piece();
            round
        })
        .collect()
}

/// Per-round values of one statistic.
pub fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// Every completed operation's latency across `rounds`, ns, ascending.
pub fn pooled_latencies_ns(rounds: &[Round]) -> Vec<u64> {
    let mut v: Vec<u64> = rounds.iter().flat_map(|r| r.latencies_ns()).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn closed_loop_never_exceeds_its_window() {
        let epoch = Instant::now();
        let outstanding = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (o1, p1, o2) = (
            Arc::clone(&outstanding),
            Arc::clone(&peak),
            Arc::clone(&outstanding),
        );
        let ops = closed_loop(
            1,
            epoch,
            epoch + Duration::from_millis(30),
            3,
            move || {
                let now = o1.fetch_add(1, Ordering::SeqCst) + 1;
                p1.fetch_max(now, Ordering::SeqCst);
                (1, 9, ())
            },
            move |()| {
                o2.fetch_sub(1, Ordering::SeqCst);
                true
            },
        );
        assert!(ops.len() >= 3);
        assert_eq!(peak.load(Ordering::SeqCst), 3);
        assert_eq!(outstanding.load(Ordering::SeqCst), 0, "window not drained");
        assert!(ops
            .iter()
            .all(|o| o.ok && o.kind == 1 && o.tag == 9 && o.client == 1));
        assert!(ops
            .iter()
            .all(|o| o.start_ns <= o.submitted_ns && o.submitted_ns <= o.done_ns));
    }

    #[test]
    fn open_loop_charges_latency_from_due_time_and_reports_lateness() {
        let epoch = Instant::now();
        let t0 = epoch + Duration::from_millis(5);
        let interval = Duration::from_millis(2);
        // The first submit call stalls the generator for 20 ms: operations
        // 1..=9 fall due during the stall and must be charged for it.
        let ops = open_loop(
            epoch,
            t0,
            interval,
            12,
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                (0, i as u64, i)
            },
            |_| true,
        );
        assert_eq!(ops.len(), 12);
        let mut by_due = ops.clone();
        by_due.sort_by_key(|o| o.start_ns);
        for (i, o) in by_due.iter().enumerate() {
            let due = (Duration::from_millis(5) + interval * i as u32).as_nanos() as u64;
            assert_eq!(o.start_ns, due, "op {i} not timed from its due time");
            assert!(o.ok);
        }
        // Op 1 was due at t0+2ms but could not be issued before t0+20ms.
        let late = by_due[1].issued_ns - by_due[1].start_ns;
        assert!(late >= 17_000_000, "lateness {late} ns not reported");
        assert!(by_due[1].latency_ns() >= late);
        // Once the generator caught up, operations are on time again (well
        // under the 17 ms the stall charged, whatever else the box runs).
        let last = by_due[11];
        assert!(last.issued_ns - last.start_ns < 12_000_000);
    }

    #[test]
    fn open_loop_refuses_beyond_its_backlog() {
        let epoch = Instant::now();
        let total = OPEN_LOOP_BACKLOG + 10;
        let submitted = AtomicUsize::new(0);
        // The first wait stalls the collector for far longer than the
        // generator needs to offer every operation back to back.
        let ops = open_loop(
            epoch,
            epoch,
            Duration::ZERO,
            total,
            |i| {
                submitted.fetch_add(1, Ordering::SeqCst);
                (0, i as u64, i)
            },
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                true
            },
        );
        assert_eq!(ops.len(), total);
        assert_eq!(submitted.load(Ordering::SeqCst), OPEN_LOOP_BACKLOG);
        assert_eq!(ops.iter().filter(|o| !o.ok).count(), 10);
        assert!(ops.iter().all(|o| o.ok != (o.kind == REFUSED)));
    }

    #[test]
    fn round_statistics() {
        let op = |start, done, ok| OpRecord {
            client: 0,
            kind: 0,
            tag: 0,
            start_ns: start,
            issued_ns: start,
            submitted_ns: start,
            wait_from_ns: start,
            done_ns: done,
            ok,
        };
        let r = Round {
            wall_s: 2.0,
            cpu_s: 1.0,
            box_speed: 0.5,
            ops: vec![
                op(0, 1_000_000, true),
                op(1_000_000, 3_000_000, true),
                op(3_000_000, 9_000_000, true),
                op(9_000_000, 9_500_000, false),
            ],
        };
        assert_eq!((r.completed(), r.failed()), (3, 1));
        assert_eq!(r.op_p50_us(), 2000.0);
        let mut two = r.clone();
        two.ops.extend(
            [op(0, 9_000_000, true), op(0, 10_000_000, true)].map(|mut o| {
                o.client = 1;
                o
            }),
        );
        assert_eq!(two.op_p50_us(), 6000.0);
        assert_eq!(two.client_p50s_us(), [2000.0, 9000.0]);
        assert_eq!(two.unfairness(), 4.5);
        assert_eq!(r.op_mean_us(), 3000.0);
        assert_eq!(r.ops_per_s(), 1.5);
        // On a box half as fast as the standard one, the standard box would
        // have needed half the time.
        assert_eq!(r.op_mean_us_at_ref(), 1500.0);
        assert_eq!(r.ops_per_s_at_ref(), 3.0);
        assert!((r.cpu_us_per_op() - 333_333.333).abs() < 1.0);
        assert_eq!(r.longest_gap_ms(), 6.0);
    }

    #[test]
    fn rounds_are_bracketed_by_reference_slices() {
        let slice = Duration::from_millis(5);
        let rounds = measure_rounds(3, Duration::from_millis(1), slice, |_| Vec::new());
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|r| r.box_speed > 0.0));
        let bare = measure_rounds(2, Duration::from_millis(1), Duration::ZERO, |_| Vec::new());
        assert!(bare.iter().all(|r| r.box_speed == 1.0));
    }
}
