//! Host-side probes: process CPU time, peak RSS, and the machine-noise
//! readings (steal share, runqueue wait) that make a noisy sitting
//! visible instead of letting it read as a regression.
//!
//! Linux only; each reader returns `None` where its `/proc` file is
//! missing, so the benchmark still runs (with those fields absent)
//! elsewhere.

use std::time::Instant;

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`: CPU time of every thread
/// of the process, including threads that already exited — which the
/// per-run PDES workers do before `run_gups` returns.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds consumed by the whole process so far, over all threads.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`s on
    // 64-bit Linux, matching `time_t` and `long`), and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`:
/// `(steal, total)`.
fn stat_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already folded into user.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Nanoseconds the calling thread spent waiting on a runqueue
/// (`/proc/thread-self/schedstat`, second field).
fn runqueue_wait_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().nth(1)?.parse().ok()
}

/// Readings taken at the start of a timed region.
pub struct Region {
    wall: Instant,
    cpu_s: f64,
    ticks: Option<(u64, u64)>,
    wait_ns: Option<u64>,
}

/// What one timed region cost the host, and how noisy the machine was
/// while it ran.
#[derive(Debug, Clone, Copy)]
pub struct RegionCost {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds over all threads.
    pub cpu_s: f64,
    /// Share of all CPU ticks the hypervisor stole, machine-wide.
    pub steal_share: Option<f64>,
    /// Share of the region's wall time the calling thread sat runnable
    /// but not running.
    pub wait_share: Option<f64>,
}

impl Region {
    /// Starts a region.
    pub fn start() -> Region {
        let ticks = stat_ticks();
        let wait_ns = runqueue_wait_ns();
        let cpu_s = process_cpu_s();
        Region {
            wall: Instant::now(),
            cpu_s,
            ticks,
            wait_ns,
        }
    }

    /// Ends the region.
    pub fn stop(self) -> RegionCost {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - self.cpu_s;
        let steal_share = match (self.ticks, stat_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => None,
        };
        let wait_share = match (self.wait_ns, runqueue_wait_ns()) {
            (Some(w0), Some(w1)) if wall_s > 0.0 => {
                Some(w1.saturating_sub(w0) as f64 * 1e-9 / wall_s)
            }
            _ => None,
        };
        RegionCost {
            wall_s,
            cpu_s,
            steal_share,
            wait_share,
        }
    }
}

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
