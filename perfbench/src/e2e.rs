//! The end-to-end pass (`--trace 0`): what a user of the simulator sees.
//!
//! 1. A reference run with a telemetry hub attached (serial, untimed)
//!    gives the modelled latency percentiles and the signature every
//!    timed run must repeat. It also warms the process, so the first
//!    timed call does not pay first-run costs (page faults, cold caches,
//!    lazy allocator growth), which read about 12% slow on a 2-core VM.
//! 2. Timed runs repeat until the run's time budget is spent (at least
//!    [`MIN_REPS`]). Before each, [`SETUP_BATCHES_PER_REP`] batches of
//!    [`SETUP_BATCH`] set-ups are timed; `setup_s` is their median. A
//!    single-cube set-up is tens of microseconds, several times more in a
//!    cold process, so it is timed only after the warm-up and in batches.
//! 3. `accesses_per_s` comes from the fastest timed call and `cpu_s` from
//!    the cheapest. The simulation is deterministic, so contention from
//!    other tenants of the machine can only add time; on a shared 2-core
//!    VM the fastest call spread much less across runs than the median
//!    call did. Medians are in the manifest.

use std::time::Instant;

use hmc_sim::prelude::*;
use hmc_sim::stats::json_escape;

use crate::machine::{self, RegionCost};
use crate::report::{self, max, median, metric, Tally};
use crate::run::{self, Signature};
use crate::suite::Workload;

/// Seconds of timed runs when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`, on which the bounds were set.
pub const DEFAULT_SECONDS: f64 = 45.0;
/// Fewest set-up timing samples per invocation.
pub const SETUP_SAMPLES: usize = 21;
/// Set-up samples taken before each timed run.
pub const SETUP_BATCHES_PER_REP: usize = 3;
/// Builds per set-up sample.
pub const SETUP_BATCH: usize = 8;
/// Fewest timed runs per invocation, whatever the time budget.
pub const MIN_REPS: usize = 3;

/// The modelled results of a workload, from its hub-attached reference
/// run: deterministic for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modelled {
    /// The run's signature.
    pub sig: Signature,
    /// Median round-trip latency, ns.
    pub p50_ns: f64,
    /// 99.9th-percentile round-trip latency, ns.
    pub p999_ns: f64,
}

/// Runs the workload serially with a hub attached and checks it.
pub fn reference(w: &Workload, seed: u64, out: &mut Tally) -> Modelled {
    let hub = Hub::shared(HubConfig::default());
    let o = run::run_built(w, w.build(seed, 1, Probe::attached(&hub)));
    out.attempt("reference run", run::check(w, &o.report));
    let sketch = hub.borrow().aggregate_sketch();
    let mut errors = Vec::new();
    if sketch.count() != o.report.total_accesses() {
        errors.push(format!(
            "hub sketch holds {} completions, the report {}",
            sketch.count(),
            o.report.total_accesses()
        ));
    }
    out.attempt("reference latency sketch", errors);
    Modelled {
        sig: o.signature(),
        p50_ns: interpolated_quantile_ps(&sketch, 0.50) / 1e3,
        p999_ns: interpolated_quantile_ps(&sketch, 0.999) / 1e3,
    }
}

/// The `q` quantile of `sketch`, in ps, linearly interpolated inside the
/// sketch bucket that holds it.
///
/// `LatencySketch::quantile_ps` reports a bucket's upper bound; the
/// buckets are about 3% wide, so that bound reads the same for most
/// seeds and hides shifts smaller than a bucket. Treating the samples
/// in the bucket as evenly spread between the previous non-empty
/// bucket's bound and this one's keeps the value deterministic for a
/// seed while letting it move with the data. NaN for an empty sketch.
pub fn interpolated_quantile_ps(sketch: &LatencySketch, q: f64) -> f64 {
    let n = sketch.count();
    if n == 0 {
        return f64::NAN;
    }
    // The sample of rank k (1-based), as the sketch reports it.
    let at = |k: u64| {
        sketch
            .quantile_ps((k as f64 - 0.5) / n as f64)
            .expect("sketch is not empty")
    };
    let rank = (q * n as f64).clamp(1.0, n as f64);
    let k = rank.ceil() as u64;
    let upper = at(k);
    // First and last ranks reported as `upper`: the bucket's samples.
    let first = partition_point(1, k, |r| at(r) < upper);
    let last = partition_point(k, n + 1, |r| at(r) <= upper) - 1;
    let lower = if first > 1 {
        at(first - 1) as f64
    } else {
        sketch.min_ps().expect("sketch is not empty") as f64
    };
    let frac = (rank - (first - 1) as f64) / (last - first + 1) as f64;
    lower + (upper as f64 - lower) * frac
}

/// The first `r` in `lo..hi` for which `below(r)` is false, given that
/// `below` is true on a prefix of the range and false after it.
fn partition_point(mut lo: u64, mut hi: u64, below: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Wall seconds of one set-up — config, port specs,
/// `FabricSim::with_telemetry`, `with_faults` and `with_domains` — as the
/// mean over one batch of [`SETUP_BATCH`] builds.
pub fn setup_sample(w: &Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let sims: Vec<_> = (0..SETUP_BATCH)
        .map(|_| std::hint::black_box(w.build(seed, 1, Probe::off())))
        .collect();
    let s = start.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    drop(sims);
    s
}

/// The end-to-end pass. Returns the outcome and a one-line JSON manifest
/// of the machine and the run.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> (Tally, String) {
    let mut out = Tally::default();
    let modelled = reference(w, seed, &mut out);

    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut costs: Vec<RegionCost> = Vec::new();
    loop {
        let rep_start = Instant::now();
        // Set-up samples are spread over the whole timed phase, so their
        // median sees the same machine as the timed runs.
        setups.extend((0..SETUP_BATCHES_PER_REP).map(|_| setup_sample(w, seed)));
        let o = run::run(w, seed, 1);
        out.attempt("timed run", o.check_repeats(w, &modelled.sig));
        costs.push(o.cost);
        let elapsed = start.elapsed().as_secs_f64();
        let rep = rep_start.elapsed().as_secs_f64();
        if costs.len() >= MIN_REPS && elapsed + rep > seconds {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_sample(w, seed));
    }
    let peak_rss = machine::peak_rss_mb().unwrap_or(f64::NAN);

    // Every timed run repeated the reference signature (or the run is
    // marked failed), so all moved the same accesses.
    let fastest_s = costs.iter().map(|c| c.wall_s).fold(f64::INFINITY, f64::min);
    let cheapest_s = costs.iter().map(|c| c.cpu_s).fold(f64::INFINITY, f64::min);
    out.metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric(
            "accesses_per_s",
            modelled.sig.accesses as f64 / fastest_s,
            "1/s",
        ),
        metric("cpu_s", cheapest_s, "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric("sim_bw_gbs", modelled.sig.bw_gbs(), "GB/s"),
        metric("sim_lat_p50_ns", modelled.p50_ns, "ns"),
        metric("sim_lat_p999_ns", modelled.p999_ns, "ns"),
    ];
    let manifest = manifest(w, seed, &costs, &modelled);
    (out, manifest)
}

/// The machine manifest: core counts, the pool's core budget, and the
/// steal and runqueue-wait shares over each timed region.
pub fn manifest(w: &Workload, seed: u64, costs: &[RegionCost], modelled: &Modelled) -> String {
    let steal: Vec<f64> = costs.iter().filter_map(|c| c.steal_share).collect();
    let wait: Vec<f64> = costs.iter().filter_map(|c| c.wait_share).collect();
    let list = |xs: Vec<f64>| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let med = |xs: &[f64]| {
        if xs.is_empty() {
            "null".to_owned()
        } else {
            report::json_number(median(xs))
        }
    };
    let cores = std::env::var("HMC_SIM_CORES")
        .map_or("null".to_owned(), |v| format!("\"{}\"", json_escape(&v)));
    format!(
        "{{\"manifest\":{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"hmc_sim_cores\":{},\
         \"pool_budget\":{},\"warmup_us\":{},\"measure_us\":{},\
         \"events\":{},\"accesses\":{},\"reps\":{},\"rep_wall_s\":[{}],\"rep_cpu_s\":[{}],\"rep_wall_median_s\":{},\
         \"steal_share_median\":{},\"steal_share_max\":{},\"wait_share_median\":{},\
         \"wait_share_max\":{},\
         \"model\":\"unvalidated: the repository holds no measured reference, so no error \
         figure is given\"}}}}",
        w.name,
        seed,
        machine::nproc(),
        cores,
        hmc_sim::des::pool::budget_total(),
        w.warmup.as_ps() / 1_000_000,
        w.measure.as_ps() / 1_000_000,
        modelled.sig.events,
        modelled.sig.accesses,
        costs.len(),
        list(costs.iter().map(|c| c.wall_s).collect()),
        list(costs.iter().map(|c| c.cpu_s).collect()),
        med(&costs.iter().map(|c| c.wall_s).collect::<Vec<_>>()),
        med(&steal),
        report::json_number(max(&steal)),
        med(&wait),
        report::json_number(max(&wait)),
    )
}
