//! Self-checks: the benchmark measures the program, and its output checks
//! catch what they claim to.

use hmc_perfbench::e2e::interpolated_quantile_ps;
use hmc_perfbench::layers::Inputs;
use hmc_perfbench::report::median;
use hmc_perfbench::report::Tally;
use hmc_perfbench::traced::{self, Counts};
use hmc_perfbench::{run, suite};
use hmc_sim::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// `cpu_s` is process CPU time, which counts every thread: tests that
/// run simulations take this lock so they do not run side by side.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    // A panicking test poisons the lock; the data it guards is `()`.
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// How far the scaled link-flit estimate may sit from the counted flits:
/// warm-up traffic and the drain after the measure window differ a
/// little from the steady state the hub samples.
const LINK_FLIT_TOLERANCE: f64 = 0.02;

/// A shortened copy of a workload, so the tests stay quick.
fn shortened(name: &str, measure_us: u64) -> suite::Workload {
    let mut w = *suite::find(name).expect("workload exists");
    w.measure = Delay::from_us(measure_us);
    w
}

/// The timed region covers the simulation: doubling the simulated
/// window roughly doubles `cpu_s`, while `accesses_per_s` stays within
/// its 25% bound.
#[test]
fn cpu_grows_with_the_window_and_the_rate_does_not() {
    let _alone = alone();
    let short = shortened("cube-gups-read", 150);
    let long = shortened("cube-gups-read", 300);
    // Warm the process first, as the benchmark does.
    run::run(&short, 1, 1);
    let (mut cpu, mut rate) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    for _ in 0..5 {
        for (i, w) in [short, long].iter().enumerate() {
            let o = run::run(w, 1, 1);
            assert!(run::check(w, &o.report).is_empty());
            cpu[i].push(o.cost.cpu_s);
            rate[i].push(o.report.total_accesses() as f64 / o.cost.wall_s);
        }
    }
    let cpu_ratio = median(&cpu[1]) / median(&cpu[0]);
    let rate_ratio = median(&rate[1]) / median(&rate[0]);
    assert!(
        (1.5..=2.6).contains(&cpu_ratio),
        "cpu_s should about double with the window, ratio {cpu_ratio}"
    );
    assert!(
        (0.75..=1.25).contains(&rate_ratio),
        "accesses_per_s should not depend on the window, ratio {rate_ratio}"
    );
}

/// The shares multiply each layer's ns per call by counters of the
/// timed run; the one multiplier estimated rather than read is the link
/// flit count, scaled from the traced run's hub (host links have no
/// counter in `RunReport`). The links of the ring's pass-through
/// adapters do keep their own `LinkStats::flits_sent`, so the same
/// scaling of the hub's flits on those links must land on that counter.
#[test]
fn estimated_link_flits_match_the_link_counters() {
    let _alone = alone();
    let w = shortened("ring8-rw-faults", 200);
    let o = run::run(&w, 3, 1);
    let mut tally = Tally::default();
    let t = traced::traced_run(&Inputs::new(&w, 3), 3, &o.signature(), &mut tally);
    assert_eq!(tally.errors, Vec::<String>::new());
    let counts = Counts::of(&o, &t);

    let sent: u64 = o
        .report
        .cubes
        .iter()
        .filter_map(|c| c.transit.as_ref())
        .flat_map(|t| t.link_stats.iter())
        .map(|l| l.flits_sent)
        .sum();
    assert!(sent > 0, "the ring's adapters send flits");
    let estimated = counts.estimated_adapter_flits(&t);
    let error = estimated / sent as f64 - 1.0;
    assert!(
        error.abs() < LINK_FLIT_TOLERANCE,
        "estimated {estimated} adapter-link flits, the links sent {sent}"
    );
    // Host request links and device links carry flits on top.
    assert!(counts.link_flits > estimated);
    // The devices received the issued requests, less those still in
    // flight when the run stopped: the device share's multiplier counts
    // requests once each.
    let in_flight = counts.issued - counts.device_requests;
    assert!(in_flight <= w.ports as u64 * u64::from(hmc_sim::GUPS_TAGS));
}

/// Identical simulated work on 1 and 4 domains: same signature.
#[test]
fn domains_do_not_change_the_signature() {
    let _alone = alone();
    let w = shortened("ring8-rw-faults", 40);
    let serial = run::run(&w, 5, 1).signature();
    let parallel = run::run(&w, 5, 4);
    assert_eq!(parallel.signature(), serial);
    assert!(
        parallel.sched.rounds > 0,
        "the d4 run used the domain scheduler"
    );
}

/// The output checks pass on real runs and flag tampered reports.
#[test]
fn checks_flag_broken_outputs() {
    let _alone = alone();
    let faulty = shortened("ring8-rw-faults", 200);
    let mut o = run::run(&faulty, 7, 1);
    assert_eq!(run::check(&faulty, &o.report), Vec::<String>::new());
    assert!(o.report.link_fault_totals().crc_errors > 0);

    // A port with more than GUPS_TAGS requests in flight.
    o.report.ports[0].issued += u64::from(hmc_sim::GUPS_TAGS) + 1;
    assert!(run::check(&faulty, &o.report)
        .iter()
        .any(|e| e.contains("in flight")));

    // Per-cube completions must add up to the accesses.
    let clean = shortened("cube-gups-read", 100);
    let mut c = run::run(&clean, 7, 1);
    assert_eq!(run::check(&clean, &c.report), Vec::<String>::new());
    c.report.ports[0].cube_completions[0] += 1;
    assert!(run::check(&clean, &c.report)
        .iter()
        .any(|e| e.contains("per-cube")));
}

#[test]
fn interpolated_quantiles_track_the_data() {
    let mut s = LatencySketch::new();
    for ps in 1_000..=2_000_000u64 {
        s.record_ps(ps);
    }
    let p50 = interpolated_quantile_ps(&s, 0.5);
    assert!((p50 / 1_000_500.0 - 1.0).abs() < 0.002, "p50 {p50}");
    let p999 = interpolated_quantile_ps(&s, 0.999);
    assert!((p999 / 1_998_001.0 - 1.0).abs() < 0.002, "p999 {p999}");
    // Within one bucket, a small shift moves the interpolated value but
    // not the bucket bound.
    let mut t = s.clone();
    for _ in 0..2_000 {
        t.record_ps(1_000_000);
    }
    assert_eq!(s.quantile_ps(0.5), t.quantile_ps(0.5));
    assert!(interpolated_quantile_ps(&t, 0.5) != p50);
    assert!(interpolated_quantile_ps(&LatencySketch::new(), 0.5).is_nan());
}

#[test]
fn stage_parser_reads_the_tracer_json() {
    let hub = Hub::shared(HubConfig {
        epoch: Delay::from_us(1),
        trace_sample: Some(1),
    });
    let probe = Probe::attached(&hub);
    let t = Time::from_ns;
    // Issued during warm-up: dropped.
    probe.trace_issue(0, 1, 0, t(5));
    probe.trace_complete(0, 1, t(50));
    // Issued after: kept, with 100 ns on the host link and 300 ns in
    // two transit hops.
    probe.trace_issue(0, 2, 3, t(1_000));
    probe.trace_mark(0, 2, Stage::HostLink, t(1_010));
    probe.trace_mark(0, 2, Stage::Transit, t(1_110));
    probe.trace_mark(0, 2, Stage::DeviceIngress, t(1_210));
    probe.trace_mark(0, 2, Stage::Transit, t(1_300));
    probe.trace_complete(0, 2, t(1_500));
    let packets = traced::packet_stages(&hub.borrow().trace_json(), 0.5);
    assert_eq!(packets.len(), 1);
    let p = packets[0];
    let ns = |s: Stage| (p[s.track() as usize] * 1e3).round();
    assert_eq!(ns(Stage::HostLink), 100.0);
    assert_eq!(ns(Stage::Transit), 300.0);
    assert_eq!(ns(Stage::DeviceIngress), 90.0);
}
