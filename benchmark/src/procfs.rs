//! Process-level accounting read from `/proc`: CPU time, thread count, peak
//! resident set, load average. No libc — the files are parsed as text.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Kernel clock ticks per second behind the `utime`/`stime` fields. Linux
/// has reported 100 on every architecture since 2.6; without libc there is
/// no `sysconf(_SC_CLK_TCK)` to ask.
const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    /// User-mode CPU time, clock ticks, all threads living and dead.
    pub utime_ticks: u64,
    /// Kernel-mode CPU time, clock ticks.
    pub stime_ticks: u64,
    /// Threads alive now.
    pub num_threads: u64,
}

impl ProcStat {
    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 / TICKS_PER_S
    }

    /// System (kernel-mode) CPU seconds.
    pub fn sys_s(&self) -> f64 {
        self.stime_ticks as f64 / TICKS_PER_S
    }
}

/// Parse one `/proc/<pid>/stat` line. The second field is the command name
/// in parentheses and may itself contain spaces and parentheses, so the
/// numbered fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<ProcStat> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14, stime 15,
    // num_threads 20.
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(ProcStat {
        utime_ticks: f.get(11)?.parse().ok()?,
        stime_ticks: f.get(12)?.parse().ok()?,
        num_threads: f.get(17)?.parse().ok()?,
    })
}

/// This process's stat line, parsed.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed: the benchmark
/// only runs on Linux and cannot report CPU cost without it.
pub fn self_stat() -> ProcStat {
    let line = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&line).expect("parse /proc/self/stat")
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`), 0 when
/// the field is absent.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// One-minute load average of the box, 0 when unreadable. Reported beside
/// every result so a run disturbed by a neighbour shows in its own record.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The box's aggregate CPU counters (first line of `/proc/stat`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxCpu {
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// Ticks in every state.
    pub total: u64,
}

impl BoxCpu {
    /// Parse the `cpu  user nice system idle iowait irq softirq steal ...`
    /// line; zeros when it is missing.
    pub fn parse(stat: &str) -> BoxCpu {
        let fields: Vec<u64> = stat
            .lines()
            .find_map(|l| l.strip_prefix("cpu "))
            .unwrap_or("")
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        BoxCpu {
            steal: fields.get(7).copied().unwrap_or(0),
            // guest and guest_nice (fields 8, 9) are already inside user/nice.
            total: fields.iter().take(8).sum(),
        }
    }

    pub fn read() -> BoxCpu {
        BoxCpu::parse(&std::fs::read_to_string("/proc/stat").unwrap_or_default())
    }

    /// Share of all CPU time since `before` that was stolen.
    pub fn steal_share_since(self, before: BoxCpu) -> f64 {
        (self.steal - before.steal) as f64 / (self.total - before.total).max(1) as f64
    }
}

/// Background sampler of the process's thread count, every 100 ms: the
/// runtime under test spawns a thread per computation, so a generator that
/// stopped bounding its outstanding work would show here first.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(self_stat().num_threads));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::Builder::new()
                .name("bench-thread-sampler".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        peak.fetch_max(self_stat().num_threads, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(100));
                    }
                })
                .expect("spawn sampler thread")
        };
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Highest thread count seen so far (the sampler itself included).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

impl Drop for ThreadSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_parens_and_spaces_in_comm() {
        let line = "4242 (tricky) name (x)) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    37 12 0 0 20 0 9 0 123456 1000000 250 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let s = parse_stat(line).unwrap();
        assert_eq!(
            s,
            ProcStat {
                utime_ticks: 37,
                stime_ticks: 12,
                num_threads: 9
            }
        );
        assert!((s.cpu_s() - 0.49).abs() < 1e-12);
    }

    #[test]
    fn stat_parser_rejects_garbage() {
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        let s = self_stat();
        assert!(s.num_threads >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(loadavg_1m() >= 0.0);
    }

    #[test]
    fn vm_hwm_line() {
        assert_eq!(
            parse_vm_hwm_kib("Name:\tx\nVmHWM:\t   20480 kB\n"),
            Some(20480)
        );
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn box_cpu_line() {
        let a = BoxCpu::parse("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n");
        assert_eq!(
            a,
            BoxCpu {
                steal: 35,
                total: 1000
            }
        );
        let b = BoxCpu {
            steal: 85,
            total: 1200,
        };
        assert_eq!(b.steal_share_since(a), 0.25);
        assert_eq!(BoxCpu::parse("garbage").total, 0);
        assert!(BoxCpu::read().total > 0);
    }

    #[test]
    fn sampler_sees_at_least_itself() {
        let s = ThreadSampler::start();
        assert!(s.peak() >= 1);
    }
}
