//! Per-layer host cost: loops that call each layer crate's public
//! functions with the packet mix of a workload, timed from outside.
//!
//! Every loop returns host nanoseconds per call, the median of
//! [`BATCHES`] batches each sized to run at least [`BATCH_SECONDS`].
//! The loops use the workload's own configuration (link, switch, DRAM
//! and route tables) and its generated addresses, so a change to one
//! layer's code moves that layer's number.

use std::hint::black_box;
use std::time::Instant;

use hmc_faults::LinkFaults;
use hmc_sim::des::{Component, Ctx, Engine, WakeToken};
use hmc_sim::device::{DeviceOutput, HmcDevice};
use hmc_sim::dram::VaultMemory;
use hmc_sim::fabric::{FabricConfig, FabricSim, FaultPlan, LinkKey};
use hmc_sim::link::{Deliveries, LinkTx, RetryTuning};
use hmc_sim::noc::{Departures, SwitchConfig, SwitchCore, SwitchEntry};
use hmc_sim::packet::{LinkId, RequestPacket, Tag};
use hmc_sim::prelude::*;
use hmc_sim::workloads::TraceOp;

use crate::report::median;
use crate::suite::{Workload, RING_FAULTS};

/// Timed batches per loop.
pub const BATCHES: usize = 7;
/// Shortest host time of one batch, seconds.
pub const BATCH_SECONDS: f64 = 0.02;

/// Runs `batch(n)` — which performs `n` calls and returns the seconds
/// they took and the calls actually made — at a size that lasts at least
/// [`BATCH_SECONDS`], and returns the median nanoseconds per call.
pub fn ns_per_call(mut batch: impl FnMut(u64) -> (f64, u64)) -> f64 {
    let mut n = 1u64;
    loop {
        let (s, _) = batch(n);
        if s >= BATCH_SECONDS || n >= 1 << 30 {
            break;
        }
        n *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (s, calls) = batch(n);
            s * 1e9 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Median seconds of one call of `f`, over [`BATCHES`] batches.
pub fn seconds_per_call(mut f: impl FnMut()) -> f64 {
    ns_per_call(|n| {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        (start.elapsed().as_secs_f64(), n)
    }) * 1e-9
}

/// Everything the loops need from one workload: its configuration and a
/// deterministic sample of the operations its ports generate.
pub struct Inputs {
    /// The workload.
    pub w: Workload,
    /// Its fabric configuration.
    pub cfg: FabricConfig,
    /// Operations drawn from port 0's traffic source.
    pub ops: Vec<TraceOp>,
    /// The ring fault plan (the workload's own on `ring8-rw-faults`).
    pub faults: FaultPlan,
}

/// Operations sampled per workload.
const OPS: usize = 4096;

impl Inputs {
    /// Draws the inputs for `w` under `seed`.
    pub fn new(w: &Workload, seed: u64) -> Inputs {
        let cfg = w.config(seed);
        let spec = w.specs(&cfg).remove(0);
        let mut source = (spec.source)(seed);
        let ops = (0..OPS)
            .map(|_| match source.next(Time::ZERO, &Feedback::EMPTY) {
                SourceStep::Op(op) => op,
                other => panic!("a GUPS source always issues, got {other:?}"),
            })
            .collect();
        let faults = w
            .fault_plan(seed)
            .unwrap_or_else(|| FaultPlan::parse(seed, RING_FAULTS).expect("ring plan parses"));
        Inputs {
            w: *w,
            cfg,
            ops,
            faults,
        }
    }

    /// Request and response flits of the sampled ops, interleaved: the
    /// packet stream the links and switches carry.
    fn packet_flits(&self) -> Vec<u32> {
        self.ops
            .iter()
            .flat_map(|op| [op.kind.request_flits(), op.kind.response_flits()])
            .collect()
    }
}

/// A component that only counts what reaches it.
struct Sink {
    seen: u64,
}

impl Component<u32> for Sink {
    fn on_message(&mut self, msg: u32, _ctx: &mut Ctx<'_, u32>) {
        self.seen += u64::from(msg);
    }
}

/// Near-future offsets, ps: spread over the timer wheel's span the way
/// link and switch deliveries are.
fn offset_ps(i: u64) -> u64 {
    (i.wrapping_mul(2_654_435_761) % 1_024) * 1_000
}

/// `des.ns_per_event`: `Engine::schedule` plus dispatch through
/// `Engine::run_until`, 256 events per horizon step.
pub fn des_event() -> f64 {
    ns_per_call(|n| {
        let mut e: Engine<u32> = Engine::with_capacity(1);
        let id = e.add_component(Box::new(Sink { seen: 0 }));
        let start = Instant::now();
        let mut i = 0u64;
        while i < n {
            let now = e.now();
            for _ in 0..256 {
                e.schedule(now + Delay::from_ps(offset_ps(i)), id, 1);
                i += 1;
            }
            e.run_until(now + Delay::from_ps(1_024_000));
        }
        let s = start.elapsed().as_secs_f64();
        black_box(e.stats());
        (s, i)
    })
}

/// A component that arms a timer per message and cancels every other
/// one, so half the timers fire and half are cancelled.
struct Waker {
    arm: bool,
    fired: u64,
}

impl Component<u32> for Waker {
    fn on_message(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
        if self.arm {
            let t = ctx.wake_at(ctx.now() + Delay::from_ps(u64::from(msg % 5 + 1) * 1_000));
            if msg.is_multiple_of(2) {
                ctx.cancel_wake(t);
            }
        }
    }

    fn on_wake(&mut self, _token: WakeToken, _ctx: &mut Ctx<'_, u32>) {
        self.fired += 1;
    }
}

/// Host seconds of `n` messages to a [`Waker`].
fn wake_loop(n: u64, arm: bool) -> f64 {
    let mut e: Engine<u32> = Engine::with_capacity(1);
    let id = e.add_component(Box::new(Waker { arm, fired: 0 }));
    let start = Instant::now();
    let mut i = 0u64;
    while i < n {
        let now = e.now();
        for _ in 0..256 {
            e.schedule(now + Delay::from_ps(offset_ps(i)), id, i as u32);
            i += 1;
        }
        e.run_until(now + Delay::from_ps(1_030_000));
    }
    let s = start.elapsed().as_secs_f64();
    black_box(e.stats());
    s
}

/// `des.ns_per_wake`: one `Ctx::wake_at` followed by either
/// `Ctx::cancel_wake` or the timer's fire — the loop's time minus the
/// same loop without timers.
pub fn des_wake() -> f64 {
    let with = ns_per_call(|n| (wake_loop(n, true), n));
    let without = ns_per_call(|n| (wake_loop(n, false), n));
    (with - without).max(0.0)
}

/// `workloads.ns_per_op`: `TrafficSource::next` on the workload's own
/// port source.
pub fn workloads_op(inp: &Inputs, seed: u64) -> f64 {
    let spec = inp.w.specs(&inp.cfg).remove(0);
    let mut source = (spec.source)(seed);
    ns_per_call(|n| {
        let start = Instant::now();
        for _ in 0..n {
            black_box(source.next(Time::ZERO, &Feedback::EMPTY));
        }
        (start.elapsed().as_secs_f64(), n)
    })
}

/// `mapping.ns_per_split`: `FabricAddressMap::split` plus
/// `AddressMap::decode` of the cube-local address.
pub fn mapping_split(inp: &Inputs) -> f64 {
    let fabric = inp.w.fabric_map(&inp.cfg);
    let map = inp.cfg.cube.map;
    ns_per_call(|n| {
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..n {
            let op = &inp.ops[i as usize % inp.ops.len()];
            let (cube, local) = fabric.split(black_box(op.addr)).expect("ops fit the map");
            let loc = map.decode(local);
            acc += u64::from(cube.0) + u64::from(loc.vault.0) + u64::from(loc.bank.0);
        }
        black_box(acc);
        (start.elapsed().as_secs_f64(), n)
    })
}

/// Moves `flits` worth of the workload's packets through one `LinkTx`:
/// enqueue, `service_into`, and the receiver's `return_tokens`.
fn link_loop(inp: &Inputs, flits: u64, faults: Option<LinkFaults>) -> (f64, u64) {
    let link_cfg = inp.cfg.host.link;
    let mut tx: LinkTx<u32> = LinkTx::new(&link_cfg);
    if let Some(inj) = faults {
        tx.set_faults(inj, RetryTuning::derive(&link_cfg));
    }
    let sizes = inp.packet_flits();
    let mut out: Deliveries<u32> = Deliveries::new();
    let mut moved = 0u64;
    let mut i = 0usize;
    let mut now = Time::ZERO;
    let start = Instant::now();
    while moved < flits {
        for _ in 0..4 {
            tx.enqueue(i as u32, sizes[i % sizes.len()]);
            i += 1;
        }
        tx.service_into(now, &mut out);
        for d in out.drain() {
            moved += u64::from(d.flits);
            tx.return_tokens(d.flits);
        }
        now = tx.busy_until();
    }
    let s = start.elapsed().as_secs_f64();
    black_box(tx.stats());
    (s, moved)
}

/// `link.ns_per_flit`: the fault-free link serializer.
pub fn link_flit(inp: &Inputs) -> f64 {
    ns_per_call(|n| link_loop(inp, n, None))
}

/// The injector the fault loops use: host link 0's under the plan, or a
/// cube-to-cube edge's if the plan leaves host links alone.
fn injector(inp: &Inputs) -> LinkFaults {
    inp.faults
        .injector(LinkKey::host(0))
        .or_else(|| inp.faults.injector(LinkKey::edge(0, 1)))
        .expect("the ring fault plan arms every link")
}

/// `link.retry_ns_per_flit`: the same loop after `LinkTx::set_faults`
/// with the ring plan.
pub fn link_retry_flit(inp: &Inputs) -> f64 {
    ns_per_call(|n| link_loop(inp, n, Some(injector(inp))))
}

/// `faults.ns_per_packet`: `LinkFaults::corrupt_packet` over the
/// workload's packet sizes.
pub fn faults_packet(inp: &Inputs) -> f64 {
    let sizes = inp.packet_flits();
    ns_per_call(|n| {
        let mut inj = injector(inp);
        let start = Instant::now();
        let mut bad = 0u64;
        for i in 0..n {
            bad += u64::from(inj.corrupt_packet(sizes[i as usize % sizes.len()]));
        }
        black_box(bad);
        (start.elapsed().as_secs_f64(), n)
    })
}

/// The crossbar the workload's traffic crosses most: a cube's quadrant
/// switch on a single cube, the pass-through crossbar of a fabric cube
/// otherwise.
fn switch_config(inp: &Inputs) -> SwitchConfig {
    let cfg = &inp.cfg;
    if cfg.cube_count == 1 {
        let g = cfg.cube.map.geometry();
        let ports = usize::from(g.quadrants) + usize::from(g.vaults_per_quadrant());
        SwitchConfig {
            inputs: ports,
            outputs: ports,
            input_capacity_flits: cfg.cube.switch.input_capacity_flits,
            hop_latency: cfg.cube.switch.hop_latency,
            flit_time: cfg.cube.switch.flit_time,
        }
    } else {
        let degree = CubeId::all(cfg.cube_count)
            .map(|c| cfg.topology.neighbors(cfg.cube_count, c).len())
            .max()
            .unwrap_or(0);
        let ports = degree + cfg.cube.link_count();
        SwitchConfig {
            inputs: ports,
            outputs: ports,
            input_capacity_flits: cfg.hop.input_capacity_flits,
            hop_latency: cfg.hop.passthrough_latency,
            flit_time: cfg.hop.flit_time,
        }
    }
}

/// `noc.ns_per_packet`: `SwitchCore::try_enqueue`, `service_into` and
/// `return_credits` with the workload's packet sizes spread over every
/// input and output.
pub fn noc_packet(inp: &Inputs) -> f64 {
    let sw_cfg = switch_config(inp);
    let sizes = inp.packet_flits();
    let credits = vec![sw_cfg.input_capacity_flits; sw_cfg.outputs];
    ns_per_call(|n| {
        let mut sw: SwitchCore<u32> = SwitchCore::new(sw_cfg, &credits);
        let mut deps: Departures<u32> = Departures::new();
        let mut now = Time::ZERO;
        let mut i = 0usize;
        let mut moved = 0u64;
        let start = Instant::now();
        while moved < n {
            for _ in 0..sw_cfg.inputs {
                let input = i % sw_cfg.inputs;
                let entry = SwitchEntry {
                    output: (i * 7 + i / sw_cfg.inputs) % sw_cfg.outputs,
                    flits: sizes[i % sizes.len()],
                    payload: i as u32,
                };
                if sw.try_enqueue(input, entry).is_err() {
                    break;
                }
                i += 1;
            }
            sw.service_into(now, &mut deps);
            for d in deps.drain() {
                moved += 1;
                sw.return_credits(d.output, d.flits);
            }
            now = sw.next_wake(now).unwrap_or(now + sw_cfg.flit_time);
        }
        let s = start.elapsed().as_secs_f64();
        black_box(sw.forwarded());
        (s, moved)
    })
}

/// `device.ns_per_request`: one `HmcDevice` driven as in its doctest —
/// `on_request`, `advance`, `next_wake` — with the workload's requests
/// arriving at `rate_per_s` per cube (the reference run's throughput),
/// paced by the device's request tokens.
pub fn device_request(inp: &Inputs, rate_per_s: f64) -> f64 {
    let links = inp.cfg.cube.link_count();
    let gap_ps = (1e12 / rate_per_s.max(1.0)) as u64;
    let fabric = inp.w.fabric_map(&inp.cfg);
    ns_per_call(|n| {
        let mut dev = HmcDevice::new(inp.cfg.cube.clone());
        let mut tokens = vec![dev.request_tokens_per_link(); links];
        let mut now = Time::ZERO;
        let mut next_arrival = Time::ZERO;
        let (mut sent, mut done) = (0u64, 0u64);
        let mut outs: Vec<DeviceOutput> = Vec::new();
        let start = Instant::now();
        while done < n {
            if sent < n && next_arrival <= now {
                let op = &inp.ops[sent as usize % inp.ops.len()];
                let link = sent as usize % links;
                let flits = op.kind.request_flits();
                if tokens[link] >= flits {
                    tokens[link] -= flits;
                    let (_, addr) = fabric.split(op.addr).expect("ops fit the map");
                    let pkt = RequestPacket {
                        port: PortId(0),
                        tag: Tag(sent as u16),
                        cube: CubeId::HOST,
                        addr,
                        kind: op.kind,
                    };
                    dev.on_request(now, LinkId(link as u8), pkt);
                    sent += 1;
                    next_arrival = now + Delay::from_ps(gap_ps);
                }
            }
            outs.clear();
            outs.extend(dev.advance(now).iter().copied());
            for out in &outs {
                match *out {
                    DeviceOutput::Response { link, pkt, .. } => {
                        done += 1;
                        dev.return_response_tokens(link, pkt.flits());
                    }
                    DeviceOutput::RequestTokens { link, flits } => tokens[link.index()] += flits,
                }
            }
            let wake = dev.next_wake();
            now = match (sent < n, wake) {
                (true, Some(t)) => t.min(next_arrival.max(now)),
                (true, None) => next_arrival.max(now),
                (false, Some(t)) => t,
                (false, None) => break,
            };
        }
        let s = start.elapsed().as_secs_f64();
        black_box(dev.stats());
        (s, done)
    })
}

/// `dram.ns_per_access`: `VaultMemory::read`/`write` with the workload's
/// request kinds and banks, at the per-vault arrival gap `gap_ps`.
pub fn dram_access(inp: &Inputs, gap_ps: u64) -> f64 {
    let map = inp.cfg.cube.map;
    let fabric = inp.w.fabric_map(&inp.cfg);
    let banks = usize::from(map.geometry().banks_per_vault);
    let accesses: Vec<(bool, usize, u32)> = inp
        .ops
        .iter()
        .map(|op| {
            let (_, local) = fabric.split(op.addr).expect("ops fit the map");
            let bank = usize::from(map.decode(local).bank.0);
            (op.kind.is_read(), bank, op.kind.access_size().dram_bursts())
        })
        .collect();
    ns_per_call(|n| {
        let mut vault = VaultMemory::new(banks, inp.cfg.cube.timing);
        let mut now = Time::ZERO;
        let start = Instant::now();
        for i in 0..n {
            let (read, bank, bursts) = accesses[i as usize % accesses.len()];
            let t = if read {
                vault.read(now, bank, bursts)
            } else {
                vault.write(now, bank, bursts)
            };
            black_box(t);
            now += Delay::from_ps(gap_ps);
        }
        (start.elapsed().as_secs_f64(), n)
    })
}

/// `fabric.route_ns_per_lookup`: `RouteTable::next_hop` on the
/// workload's own route table, over the cube pairs its requests visit.
pub fn route_lookup(inp: &Inputs) -> f64 {
    let routes = inp.cfg.routes();
    let fabric = inp.w.fabric_map(&inp.cfg);
    let n_cubes = u64::from(inp.cfg.cube_count);
    let pairs: Vec<(CubeId, CubeId)> = inp
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let (to, _) = fabric.split(op.addr).expect("ops fit the map");
            let from = CubeId((i as u64 * 2_654_435_761 % n_cubes) as u8);
            (from, to)
        })
        .collect();
    ns_per_call(|n| {
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..n {
            let (from, to) = pairs[i as usize % pairs.len()];
            acc += u64::from(routes.next_hop(black_box(from), black_box(to)).0);
        }
        black_box(acc);
        (start.elapsed().as_secs_f64(), n)
    })
}

/// `stats.sketch_ns_per_record`: `LatencySketch::record_ps` with
/// latencies spread around the workload's median.
pub fn sketch_record(p50_ns: f64) -> f64 {
    let base = (p50_ns * 1e3) as u64;
    ns_per_call(|n| {
        let mut sketch = LatencySketch::new();
        let start = Instant::now();
        for i in 0..n {
            sketch.record_ps(base / 2 + (i.wrapping_mul(2_654_435_761) % base.max(1)));
        }
        black_box(sketch.count());
        (start.elapsed().as_secs_f64(), n)
    })
}

/// Systems armed per batch of the `with_faults` span.
const FAULTS_BATCH: usize = 32;

/// Median seconds of each set-up span: `FabricConfig::validate`,
/// `FabricConfig::routes`, `FabricSim::new` (which validates and routes
/// again inside) and `FaultPlan::parse` plus `FabricSim::with_faults`
/// (the ring plan on fault-free workloads, so the span is comparable).
pub fn setup_spans(inp: &Inputs, seed: u64) -> [f64; 4] {
    let cfg = &inp.cfg;
    let specs = inp.w.specs(cfg);
    let validate = seconds_per_call(|| {
        black_box(cfg.validate()).expect("valid config");
    });
    let routes = seconds_per_call(|| {
        black_box(cfg.routes());
    });
    let build = ns_per_call(|n| {
        let inputs: Vec<_> = (0..n).map(|_| (cfg.clone(), specs.clone())).collect();
        let start = Instant::now();
        let sims: Vec<FabricSim> = inputs
            .into_iter()
            .map(|(c, s)| FabricSim::new(c, s))
            .collect();
        let s = start.elapsed().as_secs_f64();
        drop(sims);
        (s, n)
    }) * 1e-9;
    let spec = inp.w.faults.unwrap_or(RING_FAULTS);
    // `with_faults` consumes a built system and takes microseconds, so
    // its batches are fixed-size: sized by time, the untimed builds would
    // take minutes on large fabrics.
    let faults: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let sims: Vec<FabricSim> = (0..FAULTS_BATCH)
                .map(|_| FabricSim::new(cfg.clone(), specs.clone()))
                .collect();
            let start = Instant::now();
            let armed: Vec<FabricSim> = sims
                .into_iter()
                .map(|sim| {
                    let plan = FaultPlan::parse(seed, spec).expect("plan parses");
                    sim.with_faults(plan).expect("plan arms")
                })
                .collect();
            let s = start.elapsed().as_secs_f64() / FAULTS_BATCH as f64;
            drop(armed);
            s
        })
        .collect();
    [validate, routes, build, median(&faults)]
}
