//! How fast the box is running right now, measured alongside the workload.
//!
//! The benchmark runs on a vCPU of a shared host, and the host's speed
//! changes under it. Measured on this box, on an otherwise idle guest, the
//! same process ran the same workload 15-30 % faster or slower for anything
//! from two seconds to minutes at a time (`kv-sim3-closed`: medians of
//! back-to-back 30 s runs between 381 and 451 ops/s, an hour earlier 503 to
//! 581), with no CPU time stolen: what varies is the memory system the
//! tenants share, and everything here that spawns a thread per computation
//! lives on it. Two clusters run alternately in one process sped up and
//! slowed down together, so it is the box, not the program. No run length
//! the driver's time limit allows averages that out, and no regression bound
//! of 25 % survives it.
//!
//! So the benchmark measures the box too. Between the measured rounds it
//! runs short slices of *reference work* — code of its own that no change to
//! the repository can touch: spawn a thread that writes 16 KiB of its stack,
//! join it, again — and counts units per second. On this box that rate moves
//! with the workloads' (correlation 0.84-0.97 over 2.5 s windows). The
//! CPU-bound workloads report their end-to-end metrics *at reference speed*:
//! measured time x (reference rate measured around it / `NOMINAL_PER_S`),
//! that is, the time the operation would take on a box that runs the
//! reference work at the nominal rate. Over the same ten 20 s runs the
//! run-to-run spread (quartile distance over median) of `op_mean_us` fell
//! from 0.25 to 0.05 on `kv-sim3-closed`, 0.17 to 0.02 on `kv-sim3-window8`
//! and 0.20 to 0.04 on `rt-spawn-null`. The values as measured stay in every
//! run's output and in the per-layer list (`client.op_mean_us`,
//! `client.ops_per_s`, `proc.box_speed`).
//!
//! What this costs: a change that makes the program exactly as much faster
//! as it makes a bare `std::thread` spawn faster would not show — no change
//! to this repository can do that. A workload that waits on timers instead
//! of the processor hardly moves with the box; rescaled, its spread grew
//! (`rt-pipeline-io` 0.04 to 0.20), so it is reported as measured.

use std::time::{Duration, Instant};

/// Reference units per second on the standard box the CPU-bound workloads'
/// metrics are expressed for: this box's rate when undisturbed, rounded.
pub const NOMINAL_PER_S: f64 = 50_000.0;

/// Bytes of its own stack each reference thread writes.
const TOUCH: usize = 16 * 1024;

/// Run reference work for `len` and return the box's speed during it: units
/// per second over `NOMINAL_PER_S` (1.0 = the standard box).
pub fn slice(len: Duration) -> f64 {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        std::thread::spawn(|| {
            let mut page = [0u8; TOUCH];
            for line in page.iter_mut().step_by(64) {
                *line = 1;
            }
            std::hint::black_box(&page);
        })
        .join()
        .expect("reference thread");
        units += 1;
        let spent = start.elapsed();
        if spent >= len {
            return units as f64 / spent.as_secs_f64() / NOMINAL_PER_S;
        }
    }
}

/// The box's speed around consecutive pieces of work (rounds, set-ups): a
/// slice runs before the first piece and after every piece, and a piece's
/// speed is the mean of the two slices around it.
pub struct Bracket {
    slice_len: Duration,
    before: f64,
}

impl Bracket {
    /// Run the slice before the first piece. With a zero `slice_len` no
    /// slice ever runs and every piece reads a speed of 1.
    pub fn open(slice_len: Duration) -> Bracket {
        let mut b = Bracket {
            slice_len,
            before: 1.0,
        };
        b.before = b.slice();
        b
    }

    fn slice(&self) -> f64 {
        if self.slice_len.is_zero() {
            1.0
        } else {
            slice(self.slice_len)
        }
    }

    /// Run the slice after a piece; returns the box's speed around that
    /// piece.
    pub fn close_piece(&mut self) -> f64 {
        let after = self.slice();
        let speed = (self.before + after) / 2.0;
        self.before = after;
        speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_runs_for_its_length_and_reads_a_positive_speed() {
        let t = Instant::now();
        let speed = slice(Duration::from_millis(20));
        assert!(t.elapsed() >= Duration::from_millis(20));
        assert!(speed > 0.0 && speed.is_finite());
    }

    #[test]
    fn a_bracket_reads_one_without_slices_and_a_speed_with_them() {
        let mut none = Bracket::open(Duration::ZERO);
        assert_eq!((none.close_piece(), none.close_piece()), (1.0, 1.0));
        let mut some = Bracket::open(Duration::from_millis(5));
        let t = Instant::now();
        let speed = some.close_piece();
        assert!(t.elapsed() >= Duration::from_millis(5));
        assert!(speed > 0.0 && speed.is_finite());
    }
}
