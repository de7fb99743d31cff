//! The benchmark workloads and how each is built through the public
//! `FabricSim` API.
//!
//! Every workload is a closed loop in simulated time: each host port keeps
//! [`GUPS_TAGS`] requests in flight and issues the next one only when a
//! response frees a tag. A run is a warm-up window followed by a measure
//! window; the windows are sized so that one `run_gups` call takes more
//! than a second of host time on a 2-core Xeon VM. Timed runs are
//! serial; only the traced pass's domains sweep runs on engine domains.

use hmc_sim::fabric::{FabricConfig, FabricPortSpec, FabricSim, FaultPlan, Topology};
use hmc_sim::prelude::*;
use hmc_sim::workloads::GlobalGupsSource;

/// The fault plan of `ring8-rw-faults`, in [`FaultPlan::parse`] syntax.
pub const RING_FAULTS: &str = "all ber=1e-5 burst=4";

/// How host ports pick their target cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Targeting {
    /// Every port targets cube 0 through a vault filter over all 16
    /// vaults (the single-cube GUPS firmware).
    Cube0,
    /// Ports draw over an interleaved global window spanning every cube,
    /// so the CUB field comes from the address.
    Interleaved,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Fabric wiring.
    pub topology: Topology,
    /// Cubes in the fabric.
    pub cubes: u8,
    /// Host ports.
    pub ports: usize,
    /// The GUPS op every port issues.
    pub op: GupsOp,
    /// How ports pick cubes.
    pub targeting: Targeting,
    /// Fault plan spec, if the links are fallible.
    pub faults: Option<&'static str>,
    /// Simulated warm-up window.
    pub warmup: Delay,
    /// Simulated measure window.
    pub measure: Delay,
}

/// The benchmark's workloads, in `BENCHMARK.json` order; `README.md`
/// gives the reasons in full.
pub const WORKLOADS: [Workload; 2] = [
    // The paper's Fig. 6 saturation point: device, DRAM, NoC and host.
    Workload {
        name: "cube-gups-read",
        topology: Topology::Chain,
        cubes: 1,
        ports: 9,
        op: GupsOp::Read(PayloadSize::B128),
        targeting: Targeting::Cube0,
        faults: None,
        warmup: Delay::from_us(20),
        measure: Delay::from_us(2_000),
    },
    // Writes and fallible links: the only work for link retry and faults.
    Workload {
        name: "ring8-rw-faults",
        topology: Topology::Ring,
        cubes: 8,
        ports: 9,
        op: GupsOp::Mix {
            size: PayloadSize::B64,
            write_percent: 50,
        },
        targeting: Targeting::Interleaved,
        faults: Some(RING_FAULTS),
        warmup: Delay::from_us(20),
        measure: Delay::from_us(900),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The fabric configuration for `seed`.
    pub fn config(&self, seed: u64) -> FabricConfig {
        FabricConfig::ac510(self.topology, self.cubes, seed)
    }

    /// The host port specs for `cfg`.
    pub fn specs(&self, cfg: &FabricConfig) -> Vec<FabricPortSpec> {
        let spec = match self.targeting {
            Targeting::Cube0 => {
                let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
                FabricPortSpec::gups(filter, self.op, CubeId::HOST)
            }
            Targeting::Interleaved => {
                let map = self.fabric_map(cfg);
                let op = self.op;
                let window = 1u64 << Address::BITS;
                FabricPortSpec::from_source(
                    move |seed| Box::new(GlobalGupsSource::new(op, window, &map, seed)),
                    CubeId::HOST,
                )
                .with_tags(hmc_sim::GUPS_TAGS)
                .addressed(map)
            }
        };
        vec![spec; self.ports]
    }

    /// The global address map the ports split addresses with.
    pub fn fabric_map(&self, cfg: &FabricConfig) -> FabricAddressMap {
        match self.targeting {
            Targeting::Cube0 => FabricAddressMap::single(),
            Targeting::Interleaved => {
                FabricAddressMap::new(CubePolicy::Interleaved, self.cubes, &cfg.cube.map)
            }
        }
    }

    /// The parsed fault plan, if any.
    pub fn fault_plan(&self, seed: u64) -> Option<FaultPlan> {
        self.faults
            .map(|spec| FaultPlan::parse(seed, spec).expect("the workload's fault spec parses"))
    }

    /// Builds the system exactly as a user would: config, port specs,
    /// `FabricSim::with_telemetry`, `with_faults`, `with_domains`.
    pub fn build(&self, seed: u64, domains: usize, probe: Probe) -> FabricSim {
        let cfg = self.config(seed);
        let specs = self.specs(&cfg);
        let mut sim = FabricSim::with_telemetry(cfg, specs, probe);
        if let Some(plan) = self.fault_plan(seed) {
            sim = sim
                .with_faults(plan)
                .expect("the workload's fault plan arms");
        }
        sim.with_domains(domains)
    }
}
