//! The traced pass (`--trace 1`): per-layer numbers for one workload.
//!
//! It never feeds the end-to-end metrics. In order:
//!
//! 1. an untimed, hub-attached reference run (which also warms the
//!    process);
//! 2. [`ROUNDS`] rounds of untraced runs at 1, 2 and 4 engine domains
//!    (the domains sweep) followed by one run with a telemetry [`Hub`]
//!    attached and the packet-lifecycle tracer sampling every
//!    [`TRACE_EVERY`]th request (traced runs are forced serial). Host
//!    times are the fastest of the rounds; the first serial run supplies
//!    the deterministic per-layer counts, and the first 4-domain run the
//!    scheduler's;
//! 3. the layer loops of [`crate::layers`], and from them each layer's
//!    estimated share of the run's CPU time.

use std::time::Instant;

use hmc_sim::prelude::*;

use crate::e2e;
use crate::layers::{self, Inputs};
use crate::machine::RegionCost;
use crate::report::{metric, Metric, Tally};
use crate::run::{self, issued, Signature};
use crate::suite::Workload;

/// The lifecycle tracer samples every Nth issued request.
pub const TRACE_EVERY: u64 = 16;
/// Width of the hub's epoch buckets.
pub const EPOCH: Delay = Delay::from_us(10);
/// Domain counts of the sweep.
pub const SWEEP: [usize; 3] = [1, 2, 4];
/// Rounds of the sweep and the traced run; host times are the fastest.
pub const ROUNDS: usize = 3;

/// The deterministic per-layer counts of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    /// Requests issued over the whole run.
    pub issued: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Timer fires.
    pub wake_fires: u64,
    /// `InlineVec` scratch spills.
    pub scratch_spills: u64,
    /// Link flits over the whole run, host and fabric links: the traced
    /// run's flits per completed access in the measure window × issued
    /// requests. Host links have no counter in `RunReport`, so this is
    /// the one count estimated rather than read.
    pub link_flits: f64,
    /// Token stalls summed over the fabric links' serializers.
    pub token_stalls: u64,
    /// Link retransmissions.
    pub retries: u64,
    /// Flits of failed transmissions.
    pub retransmitted_flits: u64,
    /// Arbitration conflicts in every cube switch and crossbar.
    pub switch_conflicts: u64,
    /// Requests the devices accepted.
    pub device_requests: u64,
    /// Busiest vault's serviced count over the mean vault's.
    pub vault_imbalance: f64,
    /// Largest per-vault peak of resident requests.
    pub peak_outstanding_max: u64,
    /// Packets the pass-through crossbars forwarded (one route lookup
    /// each).
    pub forwarded: u64,
}

impl Counts {
    /// Reads the counts of a finished run through its public accessors;
    /// `link_flits` is scaled from `traced`, a hub-attached run of the
    /// same workload and seed.
    pub fn of(o: &run::Outcome, traced: &Traced) -> Counts {
        let r = &o.report;
        let serviced: Vec<u64> = r
            .cubes
            .iter()
            .flat_map(|c| c.device.per_vault_serviced.iter().copied())
            .collect();
        let mean = serviced.iter().sum::<u64>() as f64 / serviced.len().max(1) as f64;
        let faults = r.link_fault_totals();
        let issued = issued(r);
        Counts {
            issued,
            events: o.engine.dispatched,
            wake_fires: o.engine.wake_fires,
            scratch_spills: o.engine.scratch_spills,
            link_flits: traced.link_flits_per_access * issued as f64,
            token_stalls: r
                .cubes
                .iter()
                .filter_map(|c| c.transit.as_ref())
                .map(|t| t.token_stalls())
                .sum(),
            retries: faults.retries,
            retransmitted_flits: faults.retransmitted_flits,
            switch_conflicts: r.total_switch_conflicts(),
            device_requests: r.cubes.iter().map(|c| c.device.requests_received).sum(),
            vault_imbalance: serviced.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
            peak_outstanding_max: r
                .cubes
                .iter()
                .flat_map(|c| c.device.per_vault_peak_outstanding.iter())
                .copied()
                .max()
                .unwrap_or(0) as u64,
            forwarded: r.transit_forwarded(),
        }
    }

    /// Per-access ratio of a whole-run counter.
    pub fn per_access(&self, n: u64) -> f64 {
        n as f64 / self.issued.max(1) as f64
    }

    /// Whole-run flits on the adapters' links only, estimated the way
    /// [`Counts::link_flits`] is, for checking that estimate against the
    /// links' own `LinkStats::flits_sent` in `TransitStats::link_stats`.
    pub fn estimated_adapter_flits(&self, traced: &Traced) -> f64 {
        traced.adapter_flits_per_access * self.issued as f64
    }
}

/// Host nanoseconds per call of each layer loop.
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    pub des_event: f64,
    pub des_wake: f64,
    pub workloads_op: f64,
    pub mapping_split: f64,
    pub link_flit: f64,
    pub link_retry_flit: f64,
    pub faults_packet: f64,
    pub noc_packet: f64,
    pub device_request: f64,
    pub dram_access: f64,
    pub route_lookup: f64,
    pub sketch_record: f64,
}

/// Each layer's estimated share of `cpu_s`: ns per call × calls per run
/// ÷ the run's CPU time, plus what the loops leave unexplained.
pub fn shares(c: &Counts, cost: &LayerCost, faulty: bool, cpu_s: f64) -> Vec<(&'static str, f64)> {
    let link_ns = if faulty {
        cost.link_retry_flit
    } else {
        cost.link_flit
    };
    let share = |calls: f64, ns: f64| calls * ns * 1e-9 / cpu_s;
    // Pass-through crossbars forward each packet after one route lookup;
    // the device loop already holds the cube-internal switches.
    let forwarded = c.forwarded as f64;
    let mut v = vec![
        (
            "des.est_share",
            share(c.events as f64, cost.des_event) + share(c.wake_fires as f64, cost.des_wake),
        ),
        ("link.est_share", share(c.link_flits, link_ns)),
        ("noc.est_share", share(forwarded, cost.noc_packet)),
        (
            "device.est_share",
            share(c.device_requests as f64, cost.device_request),
        ),
        (
            "fabric.route.est_share",
            share(forwarded, cost.route_lookup),
        ),
        (
            "workloads.est_share",
            share(c.issued as f64, cost.workloads_op),
        ),
    ];
    let explained: f64 = v.iter().map(|(_, s)| s).sum();
    v.push(("unattributed_share", 1.0 - explained));
    v
}

/// What the traced run's hub and tracer yield.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Host CPU seconds of the traced `run_gups` call.
    pub cpu_s: f64,
    /// Link flits per completed access, measure window.
    pub link_flits_per_access: f64,
    /// The same, on the links the pass-through adapters serialize:
    /// cube-to-cube links and, on cube 0, the response links toward the
    /// host. 0 on a single cube.
    pub adapter_flits_per_access: f64,
    /// Mean per-packet residence in each stage, ns, in [`STAGES`]
    /// order.
    pub stage_mean_ns: [f64; 6],
    /// Peak per-epoch vault TSV-bus utilisation.
    pub vault_util_max: f64,
    /// Peak per-epoch link utilisation.
    pub link_util_max: f64,
    /// Packets the tracer captured in the measure window.
    pub traced_packets: usize,
}

/// The stages reported, with their metric names.
pub const STAGES: [(Stage, &str); 6] = [
    (Stage::HostLink, "sim.stage.host_link_ns"),
    (Stage::DeviceIngress, "sim.stage.device_ingress_ns"),
    (Stage::VaultService, "sim.stage.vault_service_ns"),
    (Stage::ResponseReady, "sim.stage.response_ready_ns"),
    (Stage::ResponseLink, "sim.stage.response_link_ns"),
    (Stage::Transit, "sim.stage.transit_ns"),
];

/// The value of `"key":` in one flat JSON object, up to the next `,` or
/// `}`; string values keep their quotes.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Per-packet stage residences from the tracer's Chrome JSON: each
/// packet's slices are emitted together, so consecutive slices with the
/// same name are one packet. Keeps packets issued at or after
/// `from_us`; returns, per packet, the summed microseconds per stage
/// track.
pub fn packet_stages(trace_json: &str, from_us: f64) -> Vec<[f64; 8]> {
    let mut packets: Vec<[f64; 8]> = Vec::new();
    let mut current: Option<(String, bool)> = None;
    for obj in trace_json.split("{\"ph\":").skip(1) {
        if !obj.starts_with("\"X\"") {
            continue;
        }
        let (Some(name), Some(tid), Some(ts), Some(dur)) = (
            field(obj, "name"),
            field(obj, "tid").and_then(|t| t.parse::<usize>().ok()),
            field(obj, "ts").and_then(|t| t.parse::<f64>().ok()),
            field(obj, "dur").and_then(|t| t.parse::<f64>().ok()),
        ) else {
            continue;
        };
        let same = current.as_ref().is_some_and(|(n, _)| n == name);
        if !same {
            // The first slice of a packet is its issue slice.
            let keep = ts >= from_us;
            current = Some((name.to_owned(), keep));
            if keep {
                packets.push([0.0; 8]);
            }
        }
        if current.as_ref().is_some_and(|(_, keep)| *keep) && tid < 8 {
            packets.last_mut().expect("a kept packet was pushed")[tid] += dur;
        }
    }
    packets
}

/// Runs the workload of `inp` serially with the hub and tracer attached.
/// Its outputs are checked, and it must repeat `reference`.
pub fn traced_run(inp: &Inputs, seed: u64, reference: &Signature, out: &mut Tally) -> Traced {
    let w = &inp.w;
    let hub = Hub::shared(HubConfig {
        epoch: EPOCH,
        trace_sample: Some(TRACE_EVERY),
    });
    let sim = w.build(seed, 1, Probe::attached(&hub));
    let o = run::run_built(w, sim);
    out.attempt("traced run", o.check_repeats(w, reference));
    let hub = hub.borrow();

    let cfg = &inp.cfg;
    let completions = hub.completion_count().total().max(1) as f64;
    let flits = |keep: &dyn Fn(u8, LinkDir) -> bool| {
        hub.link_flits()
            .iter()
            .filter(|((_, link, dir), _)| keep(*link, *dir))
            .map(|(_, s)| s.total())
            .sum::<u64>() as f64
            / completions
    };
    // An adapter's ports are its cube's device links, then its fabric
    // links, then its host links: response-direction flits on a port past
    // the device links are the adapter's own, not the device's.
    let dev_links = cfg.cube.link_count();
    let adapter = |link: u8, dir: LinkDir| match dir {
        LinkDir::Transit => cfg.cube_count > 1,
        LinkDir::Response => cfg.cube_count > 1 && usize::from(link) >= dev_links,
        LinkDir::Request => false,
    };

    let warmup_us = w.warmup.as_ps() as f64 / 1e6;
    let packets = packet_stages(&hub.trace_json(), warmup_us);
    // Means, not medians: they add up to the mean round trip (with the
    // unreported issue and retry stages), and a median of a fixed
    // pipeline delay would read the same for every seed.
    let stage_mean_ns = STAGES.map(|(stage, _)| {
        let total_us: f64 = packets.iter().map(|p| p[stage.track() as usize]).sum();
        total_us * 1e3 / packets.len().max(1) as f64
    });

    // Utilisation over the epochs that lie wholly inside the measure
    // window.
    let full_epochs = (w.measure.as_ps() / EPOCH.as_ps()) as usize;
    let epoch_ps = EPOCH.as_ps() as f64;
    let bursts = inp
        .ops
        .iter()
        .map(|op| f64::from(op.kind.access_size().dram_bursts()))
        .sum::<f64>()
        / inp.ops.len() as f64;
    let beat_ps = cfg.cube.timing.t_ccd.as_ps() as f64;
    let peak = |s: &hmc_sim::telemetry::EpochSeries, busy_ps: f64| {
        (0..full_epochs)
            .map(|e| s.get(e) as f64 * busy_ps / epoch_ps)
            .fold(0.0, f64::max)
    };
    let vault_util_max = hub
        .vault_services()
        .values()
        .map(|s| peak(s, bursts * beat_ps))
        .fold(0.0, f64::max);
    let link_util_max = hub
        .link_flits()
        .iter()
        .map(|(&(_, _, dir), s)| {
            let link = match dir {
                LinkDir::Request => &cfg.host.link,
                LinkDir::Response => &cfg.cube.link,
                LinkDir::Transit => &cfg.hop.link,
            };
            peak(s, link.effective_flit_time().as_ps() as f64)
        })
        .fold(0.0, f64::max);

    Traced {
        cpu_s: o.cost.cpu_s,
        link_flits_per_access: flits(&|_, _| true),
        adapter_flits_per_access: flits(&adapter),
        stage_mean_ns,
        vault_util_max,
        link_util_max,
        traced_packets: packets.len(),
    }
}

/// Runs one step of the pass, logging its host time to stderr.
fn logged<T>(what: &str, step: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = step();
    eprintln!("[traced] {what}: {:.2} s", start.elapsed().as_secs_f64());
    out
}

/// The traced pass. Returns the outcome and the machine manifest line.
pub fn run(w: &Workload, seed: u64) -> (Tally, String) {
    let mut out = Tally::default();
    let modelled = e2e::reference(w, seed, &mut out);

    // The domains sweep and the traced run, interleaved over ROUNDS
    // rounds; host times are the fastest of each. The first serial sweep
    // run supplies the counts and shares, and the first at the most
    // domains the scheduler counts.
    let inp = Inputs::new(w, seed);
    let mut sweep: Vec<Vec<RegionCost>> = vec![Vec::new(); SWEEP.len()];
    let mut traced_cpu = Vec::new();
    let mut serial = None;
    let mut sched = None;
    let mut traced = None;
    for round in 0..ROUNDS {
        for (i, d) in SWEEP.into_iter().enumerate() {
            let what = format!("sweep run d{d}");
            let o = logged(&what, || run::run(w, seed, d));
            out.attempt(&what, o.check_repeats(w, &modelled.sig));
            sweep[i].push(o.cost);
            if i + 1 == SWEEP.len() && sched.is_none() {
                sched = Some(o.sched);
            }
            if d == 1 && serial.is_none() {
                serial = Some(o);
            }
        }
        let t = logged("traced run", || {
            traced_run(&inp, seed, &modelled.sig, &mut out)
        });
        traced_cpu.push(t.cpu_s);
        if round == 0 && t.traced_packets < 100 {
            out.attempt(
                "tracer",
                vec![format!("only {} traced packets", t.traced_packets)],
            );
        }
        traced = Some(t);
    }
    let serial = serial.expect("the sweep runs serially first");
    let sched = sched.expect("the sweep ran");
    let traced = traced.expect("at least one round ran");
    let fastest =
        |costs: &[RegionCost]| costs.iter().map(|c| c.wall_s).fold(f64::INFINITY, f64::min);
    let cheapest =
        |costs: &[RegionCost]| costs.iter().map(|c| c.cpu_s).fold(f64::INFINITY, f64::min);
    let serial_cpu_s = cheapest(&sweep[0]);

    let counts = Counts::of(&serial, &traced);
    let rate = modelled.sig.accesses as f64 / (w.measure.as_ps() as f64 * 1e-12);
    let per_cube_rate = rate / f64::from(w.cubes);
    let vaults = f64::from(inp.cfg.cube.map.geometry().vaults);
    let cost = LayerCost {
        des_event: logged("des.ns_per_event", layers::des_event),
        des_wake: logged("des.ns_per_wake", layers::des_wake),
        workloads_op: logged("workloads.ns_per_op", || layers::workloads_op(&inp, seed)),
        mapping_split: logged("mapping.ns_per_split", || layers::mapping_split(&inp)),
        link_flit: logged("link.ns_per_flit", || layers::link_flit(&inp)),
        link_retry_flit: logged("link.retry_ns_per_flit", || layers::link_retry_flit(&inp)),
        faults_packet: logged("faults.ns_per_packet", || layers::faults_packet(&inp)),
        noc_packet: logged("noc.ns_per_packet", || layers::noc_packet(&inp)),
        device_request: logged("device.ns_per_request", || {
            layers::device_request(&inp, per_cube_rate)
        }),
        dram_access: logged("dram.ns_per_access", || {
            layers::dram_access(&inp, (1e12 * vaults / per_cube_rate) as u64)
        }),
        route_lookup: logged("fabric.route_ns_per_lookup", || layers::route_lookup(&inp)),
        sketch_record: logged("stats.sketch_ns_per_record", || {
            layers::sketch_record(modelled.p50_ns)
        }),
    };
    let spans = logged("fabric.setup spans", || layers::setup_spans(&inp, seed));

    let c = &counts;
    let s = &sched;
    let mut m: Vec<Metric> = vec![
        metric("des.events_per_access", c.per_access(c.events), "count"),
        metric(
            "des.wake_fires_per_access",
            c.per_access(c.wake_fires),
            "count",
        ),
        metric("des.scratch_spills", c.scratch_spills as f64, "count"),
        metric(
            "link.flits_per_access",
            c.link_flits / c.issued as f64,
            "count",
        ),
        metric(
            "link.token_stalls_per_access",
            c.per_access(c.token_stalls),
            "count",
        ),
        metric("link.retries", c.retries as f64, "count"),
        metric(
            "link.retransmitted_flits",
            c.retransmitted_flits as f64,
            "count",
        ),
        metric(
            "noc.switch_conflicts_per_access",
            c.per_access(c.switch_conflicts),
            "count",
        ),
        metric("device.vault_imbalance", c.vault_imbalance, "ratio"),
        metric(
            "device.peak_outstanding_max",
            c.peak_outstanding_max as f64,
            "count",
        ),
        metric(
            "fabric.transit_per_access",
            c.per_access(c.forwarded),
            "count",
        ),
        metric("fabric.sched.rounds", s.rounds as f64, "count"),
        metric(
            "fabric.sched.windows_per_round",
            s.windows_per_round(),
            "count",
        ),
        metric(
            "fabric.sched.events_per_window",
            s.events_per_window(),
            "count",
        ),
        metric("fabric.sched.workers", s.workers as f64, "count"),
        metric("des.ns_per_event", cost.des_event, "ns"),
        metric("des.ns_per_wake", cost.des_wake, "ns"),
        metric("workloads.ns_per_op", cost.workloads_op, "ns"),
        metric("mapping.ns_per_split", cost.mapping_split, "ns"),
        metric("link.ns_per_flit", cost.link_flit, "ns"),
        metric("link.retry_ns_per_flit", cost.link_retry_flit, "ns"),
        metric("faults.ns_per_packet", cost.faults_packet, "ns"),
        metric("noc.ns_per_packet", cost.noc_packet, "ns"),
        metric("device.ns_per_request", cost.device_request, "ns"),
        metric("dram.ns_per_access", cost.dram_access, "ns"),
        metric("fabric.route_ns_per_lookup", cost.route_lookup, "ns"),
        metric("stats.sketch_ns_per_record", cost.sketch_record, "ns"),
        metric("fabric.setup.validate_s", spans[0], "s"),
        metric("fabric.setup.routes_s", spans[1], "s"),
        metric("fabric.setup.build_s", spans[2], "s"),
        metric("fabric.setup.faults_s", spans[3], "s"),
    ];
    for (name, share) in shares(&counts, &cost, w.faults.is_some(), serial_cpu_s) {
        m.push(metric(name, share, "ratio"));
    }
    let traced_cpu_s = traced_cpu.iter().copied().fold(f64::INFINITY, f64::min);
    m.push(metric(
        "telemetry.overhead",
        traced_cpu_s / serial_cpu_s,
        "ratio",
    ));
    for (i, (_, name)) in STAGES.iter().enumerate() {
        m.push(metric(*name, traced.stage_mean_ns[i], "ns"));
    }
    m.push(metric("sim.vault_util_max", traced.vault_util_max, "ratio"));
    m.push(metric("sim.link_util_max", traced.link_util_max, "ratio"));
    for (i, d) in SWEEP.into_iter().enumerate().skip(1) {
        m.push(metric(
            format!("fabric.sched.speedup_d{d}"),
            fastest(&sweep[0]) / fastest(&sweep[i]),
            "ratio",
        ));
        m.push(metric(
            format!("fabric.sched.cpu_ratio_d{d}"),
            cheapest(&sweep[i]) / serial_cpu_s,
            "ratio",
        ));
    }
    out.metrics = m;
    let costs: Vec<RegionCost> = sweep.concat();
    let manifest = e2e::manifest(w, seed, &costs, &modelled);
    (out, manifest)
}
