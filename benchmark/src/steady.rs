//! Keeping the box steady while a workload runs.
//!
//! The benchmark runs in a small VM. Every workload here is made of threads
//! that block and wake each other thousands of times a second, so its vCPUs
//! keep going idle — and each wake-up of a halted vCPU waits for the *host*
//! to schedule it. Measured on this box, that wait (it shows as `steal` in
//! `/proc/stat`) took 30–40 % of the CPU in some runs and almost none in
//! others: `kv-sim3-closed` read anything from 41 to 243 ops/s on the same
//! binary, which no regression bound can resolve.
//!
//! The cure is the one `idle=poll` gives a latency-sensitive host: never let
//! a vCPU halt. One spinner process per allowed CPU runs under `SCHED_IDLE`
//! — the class the kernel preempts for *any* ordinary wake-up — so the
//! workload loses only the context switch, while the host sees both vCPUs
//! permanently runnable. With the spinners the stolen share fell under 5 %;
//! pinning the run to one CPU (`run.sh`) took care of the rest. Their CPU
//! time is not the process's, so `proc.cpu_us_per_op` does not count it.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A spinner gives up on its own after this long, whatever happens to the
/// process that started it.
const SPINNER_LIFETIME: Duration = Duration::from_secs(300);

/// The spinner processes of one run; dropped, they are killed and reaped.
pub struct IdleSpinners {
    children: Vec<Child>,
}

/// CPUs this process may run on, from `Cpus_allowed_list` (e.g. `0-1,4`).
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse().ok()?..=hi.trim().parse().ok()?)
        })
        .flatten()
        .collect()
}

fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

impl IdleSpinners {
    /// Start one `SCHED_IDLE` spinner pinned to each allowed CPU (this
    /// executable's `spin` command under `taskset` and `chrt`). Where those
    /// tools are missing the run goes on without spinners and says so: the
    /// numbers are then as noisy as the box.
    pub fn start() -> IdleSpinners {
        let exe = std::env::current_exe().expect("path of this executable");
        let children = allowed_cpus()
            .into_iter()
            .filter_map(|cpu| {
                Command::new("taskset")
                    .args(["-c", &cpu.to_string(), "chrt", "-i", "0"])
                    .arg(&exe)
                    .arg("spin")
                    .stdin(Stdio::piped())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| eprintln!("warning: no idle spinner on cpu {cpu}: {e}"))
                    .ok()
            })
            .collect();
        IdleSpinners { children }
    }

    pub fn count(&self) -> usize {
        self.children.len()
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        for c in &mut self.children {
            // Already gone is fine; either way it is reaped below.
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The `spin` command: burn the CPU until stdin closes (the parent went
/// away, however it went) or the lifetime runs out.
pub fn spin() -> ! {
    std::thread::spawn(|| {
        use std::io::Read;
        let mut byte = [0u8; 1];
        // Blocks until the parent's end of the pipe closes.
        while matches!(std::io::stdin().read(&mut byte), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    let start = Instant::now();
    let mut x = 0u64;
    loop {
        // Plain arithmetic, not `spin_loop()`: a long run of PAUSE
        // instructions is exactly what makes a hypervisor take the vCPU
        // away (pause-loop exiting), the thing this process exists to avoid.
        for _ in 0..1 << 20 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        if start.elapsed() > SPINNER_LIFETIME {
            std::process::exit(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-4, 7"), [0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert!(!allowed_cpus().is_empty());
    }
}
