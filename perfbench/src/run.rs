//! One simulated run through the public `FabricSim` API: the timed call,
//! the deterministic signature every run of a workload must repeat, and
//! the output checks.

use hmc_sim::des::EngineStats;
use hmc_sim::fabric::{FabricSim, SchedStats};
use hmc_sim::prelude::*;

use crate::machine::{Region, RegionCost};
use crate::suite::Workload;

/// The deterministic outcome of a run. Every run of one workload and seed
/// must produce the same signature, whatever the domain count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Engine events dispatched.
    pub events: u64,
    /// Timer wakeups delivered.
    pub wake_fires: u64,
    /// Accesses recorded in the measure window.
    pub accesses: u64,
    /// Requests issued over the whole run, warm-up included.
    pub issued: u64,
    /// Simulated time the run quiesced at, ps.
    pub sim_end_ps: u64,
    /// Counted bandwidth over the measure window, GB/s, as raw bits so
    /// the comparison is exact.
    pub bw_bits: u64,
}

impl Signature {
    /// The signature of a finished run.
    pub fn of(report: &RunReport, engine: &EngineStats) -> Signature {
        Signature {
            events: engine.dispatched,
            wake_fires: engine.wake_fires,
            accesses: report.total_accesses(),
            issued: issued(report),
            sim_end_ps: report.sim_end.as_ps(),
            bw_bits: report.total_bandwidth_gbs().to_bits(),
        }
    }

    /// Counted bandwidth, GB/s.
    pub fn bw_gbs(&self) -> f64 {
        f64::from_bits(self.bw_bits)
    }
}

/// Requests issued over the whole run, warm-up included.
pub fn issued(report: &RunReport) -> u64 {
    report.ports.iter().map(|p| p.issued).sum()
}

/// A finished run with its host cost.
pub struct Outcome {
    /// The run report.
    pub report: RunReport,
    /// Engine counters, merged over domains.
    pub engine: EngineStats,
    /// Domain-scheduler counters (all zero for serial runs).
    pub sched: SchedStats,
    /// Host cost of the `run_gups` call alone.
    pub cost: RegionCost,
}

impl Outcome {
    /// The run's deterministic signature.
    pub fn signature(&self) -> Signature {
        Signature::of(&self.report, &self.engine)
    }

    /// [`check`] plus: the run repeated `reference`.
    pub fn check_repeats(&self, w: &Workload, reference: &Signature) -> Vec<String> {
        check_repeats(w, &self.report, self.signature(), reference)
    }
}

/// Runs an already-built system, timing only the `run_gups` call.
pub fn run_built(w: &Workload, mut sim: FabricSim) -> Outcome {
    let region = Region::start();
    let report = sim.run_gups(w.warmup, w.measure);
    let cost = region.stop();
    Outcome {
        report,
        engine: sim.engine_stats(),
        sched: sim.sched_stats(),
        cost,
    }
}

/// Builds and runs the workload with the probe detached.
pub fn run(w: &Workload, seed: u64, domains: usize) -> Outcome {
    run_built(w, w.build(seed, domains, Probe::off()))
}

/// [`check`] plus: a run with signature `sig` repeated `reference`.
pub fn check_repeats(
    w: &Workload,
    report: &RunReport,
    sig: Signature,
    reference: &Signature,
) -> Vec<String> {
    let mut errors = check(w, report);
    if sig != *reference {
        errors.push(format!(
            "signature {sig:?} differs from the serial reference {reference:?}"
        ));
    }
    errors
}

/// Checks a run's outputs against what the model must conserve. Returns
/// one message per violated check; empty means the run is correct.
pub fn check(w: &Workload, report: &RunReport) -> Vec<String> {
    let mut errors = Vec::new();
    let accesses = report.total_accesses();
    // The p999 needs more than ten samples beyond it.
    if accesses < 10_000 {
        errors.push(format!(
            "measure window holds {accesses} accesses, fewer than 10000"
        ));
    }
    let per_cube: u64 = CubeId::all(w.cubes)
        .map(|c| report.cube_completions(c))
        .sum();
    if per_cube != accesses {
        errors.push(format!(
            "per-cube completions sum to {per_cube}, total accesses are {accesses}"
        ));
    }
    for p in &report.ports {
        if p.completed > p.issued || p.issued - p.completed > u64::from(hmc_sim::GUPS_TAGS) {
            errors.push(format!(
                "port {} issued {} and completed {}: more than {} in flight or over-completed",
                p.port.0,
                p.issued,
                p.completed,
                hmc_sim::GUPS_TAGS
            ));
        }
    }
    let t = report.link_fault_totals();
    if w.faults.is_some() {
        if t.retries != t.crc_errors + t.down_drops {
            errors.push(format!(
                "retries {} != crc_errors {} + down_drops {}",
                t.retries, t.crc_errors, t.down_drops
            ));
        }
        if t.crc_errors == 0 {
            errors.push("fault plan armed but no CRC error was injected".to_owned());
        }
    } else if t != Default::default() {
        errors.push(format!("fault-free run moved retry counters: {t:?}"));
    }
    if report.total_bandwidth_gbs() <= 0.0 {
        errors.push("zero bandwidth".to_owned());
    }
    errors
}
