//! Device configuration.

use hmc_des::Delay;
use hmc_dram::DramTiming;
use hmc_link::LinkConfig;
use hmc_mapping::{AddressMap, QuadrantId};

/// Tuning of the logic-layer quadrant switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchTuning {
    /// Capacity of the link-facing switch input, in flits — this is the
    /// link RX buffer, i.e. the request-direction token pool.
    pub input_capacity_flits: u32,
    /// Capacity of each cross-quadrant input FIFO, in flits. Kept shallow
    /// (a couple of max-size packets), as switch-to-switch buffers are.
    pub xq_capacity_flits: u32,
    /// Pipeline latency per switch traversal.
    pub hop_latency: Delay,
    /// Serialization time per flit on the internal datapath (16 B at
    /// 1.25 GHz = 0.8 ns ⇒ 20 GB/s per switch port).
    pub flit_time: Delay,
    /// Egress buffering between a response switch's link port and the
    /// upstream link serializer, in flits.
    pub link_egress_flits: u32,
}

impl Default for SwitchTuning {
    fn default() -> SwitchTuning {
        SwitchTuning {
            input_capacity_flits: 44,
            xq_capacity_flits: 18,
            hop_latency: Delay::from_ps(3_200),
            flit_time: Delay::from_ps(800),
            link_egress_flits: 64,
        }
    }
}

/// Tuning of the vault controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultTuning {
    /// Vault ingress buffer (switch → vault), in flits.
    pub ingress_capacity_flits: u32,
    /// Per-bank command queue depth, in requests. Sized so that resident
    /// requests scale roughly linearly with the banks touched, as the
    /// paper infers from Little's law (Figure 14: ≈288 outstanding on 2
    /// banks, ≈535 on 4, ceiling at the 576 aggregate port tags), while
    /// the 4-bank pattern stays just below the tag ceiling.
    pub bank_queue_capacity: usize,
    /// Vault-controller pipeline latency charged on each direction
    /// (request decode/scheduling in, response assembly out).
    pub ctrl_latency: Delay,
}

impl Default for VaultTuning {
    fn default() -> VaultTuning {
        VaultTuning {
            ingress_capacity_flits: 16,
            bank_queue_capacity: 72,
            ctrl_latency: Delay::from_ps(12_000),
        }
    }
}

/// Full configuration of one cube.
///
/// The default models the paper's device: a 4 GB HMC 1.1 with two
/// half-width 15 Gbps links attached to quadrants 0 and 1 (the AC-510
/// wiring), 128 B max block size, and the queue/latency calibration
/// documented on [`SwitchTuning`] and [`VaultTuning`]: switch and vault
/// latencies fill the paper's ≈0.7 µs no-load round trip left after the
/// FPGA and links, and the per-bank queue depth reproduces the Figure 14
/// outstanding-request scaling.
///
/// # Examples
///
/// ```
/// use hmc_device::DeviceConfig;
///
/// let cfg = DeviceConfig::ac510_hmc();
/// assert_eq!(cfg.link_count(), 2);
/// cfg.validate().expect("default config is valid");
/// ```
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Address map (geometry + block size).
    pub map: AddressMap,
    /// DRAM timing of the stacked dies.
    pub timing: DramTiming,
    /// Upstream (cube→host) link configuration. `input_buffer_flits` here
    /// is the *host-side* RX buffer that upstream tokens guard.
    pub link: LinkConfig,
    /// Which quadrant each external link attaches to; the length of this
    /// vector is the link count.
    pub link_quadrants: Vec<QuadrantId>,
    /// Switch tuning.
    pub switch: SwitchTuning,
    /// Vault tuning.
    pub vault: VaultTuning,
}

impl DeviceConfig {
    /// The paper's device: 4 GB HMC 1.1 on an AC-510 (two half-width links
    /// on quadrants 0 and 1).
    pub fn ac510_hmc() -> DeviceConfig {
        let link = LinkConfig {
            // The per-packet processing floor models the *host*
            // controller's packet handling; the cube's response path
            // streams at wire rate (its packet handling is the switch
            // datapath, modelled separately).
            min_packet_time: hmc_des::Delay::ZERO,
            ..LinkConfig::ac510_default()
        };
        DeviceConfig {
            map: AddressMap::hmc_gen2_default(),
            timing: DramTiming::hmc_gen2(),
            link,
            link_quadrants: vec![QuadrantId(0), QuadrantId(1)],
            switch: SwitchTuning::default(),
            vault: VaultTuning::default(),
        }
    }

    /// Number of external links.
    pub fn link_count(&self) -> usize {
        self.link_quadrants.len()
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.map.geometry().validate()?;
        self.timing.validate()?;
        self.link.validate()?;
        if self.link_quadrants.is_empty() {
            return Err("device needs at least one external link".to_owned());
        }
        let quadrants = self.map.geometry().quadrants;
        for q in &self.link_quadrants {
            if q.0 >= quadrants {
                return Err(format!("link attached to nonexistent {q}"));
            }
        }
        {
            let mut sorted: Vec<u8> = self.link_quadrants.iter().map(|q| q.0).collect();
            sorted.dedup();
            if sorted.len() != self.link_quadrants.len() {
                return Err("at most one link per quadrant".to_owned());
            }
        }
        if self.switch.input_capacity_flits == 0 || self.switch.flit_time.is_zero() {
            return Err("switch tuning must be positive".to_owned());
        }
        if self.switch.xq_capacity_flits < 9 {
            return Err("xq buffers must hold at least one max-size packet".to_owned());
        }
        if self.switch.link_egress_flits < 9 {
            return Err("link egress buffer must hold at least one max-size packet".to_owned());
        }
        if self.vault.ingress_capacity_flits < 9 {
            return Err("vault ingress must hold at least one max-size packet".to_owned());
        }
        if self.vault.bank_queue_capacity == 0 {
            return Err("bank queues need nonzero capacity".to_owned());
        }
        Ok(())
    }
}

impl Default for DeviceConfig {
    fn default() -> DeviceConfig {
        DeviceConfig::ac510_hmc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_ac510() {
        let cfg = DeviceConfig::ac510_hmc();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.link_count(), 2);
        assert_eq!(cfg.link_quadrants, vec![QuadrantId(0), QuadrantId(1)]);
        assert_eq!(cfg.map.geometry().vaults, 16);
    }

    #[test]
    fn validation_rejects_bad_links() {
        let mut cfg = DeviceConfig::ac510_hmc();
        cfg.link_quadrants.clear();
        assert!(cfg.validate().is_err());
        let mut cfg = DeviceConfig::ac510_hmc();
        cfg.link_quadrants = vec![QuadrantId(9)];
        assert!(cfg.validate().is_err());
        let mut cfg = DeviceConfig::ac510_hmc();
        cfg.link_quadrants = vec![QuadrantId(0), QuadrantId(0)];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_tiny_buffers() {
        let mut cfg = DeviceConfig::ac510_hmc();
        cfg.vault.ingress_capacity_flits = 4;
        assert!(cfg.validate().is_err());
        let mut cfg = DeviceConfig::ac510_hmc();
        cfg.switch.link_egress_flits = 2;
        assert!(cfg.validate().is_err());
        let mut cfg = DeviceConfig::ac510_hmc();
        cfg.vault.bank_queue_capacity = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn defaults_reflect_design_calibration() {
        let v = VaultTuning::default();
        assert_eq!(v.bank_queue_capacity, 72);
        let s = SwitchTuning::default();
        // Internal port rate: 16 B per 0.8 ns = 20 GB/s.
        assert_eq!(16.0 / s.flit_time.as_ns_f64(), 20.0);
    }
}
