//! Behavioural tests of the assembled cube model: end-to-end timing,
//! flow-control conservation, and the structural bandwidth ceilings the
//! paper measures.

use hmc_des::Time;
use hmc_device::{DeviceConfig, DeviceOutput, HmcDevice};
use hmc_mapping::{BankId, VaultId};
use hmc_packet::{Address, LinkId, PayloadSize, PortId, RequestKind, RequestPacket, Tag};

fn read_packet(
    map: &hmc_mapping::AddressMap,
    vault: u8,
    bank: u8,
    tag: u16,
    size: PayloadSize,
) -> RequestPacket {
    RequestPacket {
        port: PortId(0),
        tag: Tag(tag),
        cube: hmc_packet::CubeId::HOST,
        addr: map.encode(VaultId(vault), BankId(bank), u64::from(tag), 0),
        kind: RequestKind::Read { size },
    }
}

/// A minimal well-behaved host: respects request tokens per link, returns
/// response tokens on delivery, drives the device to quiescence.
struct Driver {
    hmc: HmcDevice,
    budget: Vec<u32>,
    to_send: Vec<Vec<RequestPacket>>,
    responses: Vec<(Time, LinkId, hmc_packet::ResponsePacket)>,
    request_tokens_returned: u64,
}

impl Driver {
    fn new(hmc: HmcDevice, per_link: Vec<Vec<RequestPacket>>) -> Driver {
        let links = per_link.len();
        let budget = vec![hmc.request_tokens_per_link(); links];
        let to_send = per_link
            .into_iter()
            .map(|mut v| {
                v.reverse();
                v
            })
            .collect();
        Driver {
            hmc,
            budget,
            to_send,
            responses: Vec::new(),
            request_tokens_returned: 0,
        }
    }

    fn run(&mut self) {
        let mut now = Time::ZERO;
        loop {
            // Send whatever the token budget allows.
            for l in 0..self.to_send.len() {
                while let Some(pkt) = self.to_send[l].last().copied() {
                    if self.budget[l] < pkt.flits() {
                        break;
                    }
                    self.budget[l] -= pkt.flits();
                    self.to_send[l].pop();
                    self.hmc.on_request(now, LinkId(l as u8), pkt);
                }
            }
            // `advance` returns a view of its reused buffer; copy it out
            // so responses can return tokens while iterating.
            let outs: Vec<DeviceOutput> = self.hmc.advance(now).iter().copied().collect();
            for out in outs {
                match out {
                    DeviceOutput::Response { link, pkt, at } => {
                        self.responses.push((at, link, pkt));
                        self.hmc.return_response_tokens(link, pkt.flits());
                    }
                    DeviceOutput::RequestTokens { link, flits } => {
                        self.budget[link.index()] += flits;
                        self.request_tokens_returned += u64::from(flits);
                    }
                }
            }
            match self.hmc.next_wake() {
                Some(t) => {
                    assert!(t >= now, "device wake went backwards");
                    now = t;
                }
                None => {
                    let unsent: usize = self.to_send.iter().map(Vec::len).sum();
                    if unsent == 0 {
                        break;
                    }
                    panic!("deadlock with {unsent} requests unsent");
                }
            }
        }
    }

    fn last_response_at(&self) -> Time {
        self.responses
            .iter()
            .map(|&(at, _, _)| at)
            .max()
            .unwrap_or(Time::ZERO)
    }
}

#[test]
fn single_read_round_trip_latency_is_in_paper_band() {
    // Section IV-B: "the contributing latency of HMC under low load is
    // 100 to 180 ns", including DRAM (~41 ns core), TSV, vault controller
    // and NoC. Our device-internal latency (link RX to response fully
    // serialized, before SerDes flight) should land in that band.
    let cfg = DeviceConfig::ac510_hmc();
    let map = cfg.map;
    let serdes = cfg.link.serdes_latency;
    let hmc = HmcDevice::new(cfg);
    let pkt = read_packet(&map, 0, 0, 1, PayloadSize::B64);
    let mut driver = Driver::new(hmc, vec![vec![pkt], vec![]]);
    driver.run();
    let response_at = driver.last_response_at();
    let internal_ns = (response_at - Time::ZERO - serdes).as_ns_f64();
    assert!(
        (60.0..=200.0).contains(&internal_ns),
        "device-internal no-load latency {internal_ns} ns outside the plausible band"
    );
}

#[test]
fn cross_quadrant_requests_take_longer() {
    let cfg = DeviceConfig::ac510_hmc();
    let map = cfg.map;
    let latency_to_vault = |vault: u8| {
        let hmc = HmcDevice::new(DeviceConfig::ac510_hmc());
        let pkt = read_packet(&map, vault, 0, 1, PayloadSize::B64);
        let mut driver = Driver::new(hmc, vec![vec![pkt], vec![]]);
        driver.run();
        driver.last_response_at()
    };
    // Vault 0 shares the link's quadrant; vault 15 is one switch hop away
    // in each direction.
    let near = latency_to_vault(0);
    let far = latency_to_vault(15);
    assert!(
        far > near,
        "cross-quadrant path must be slower: {near} !< {far}"
    );
    let delta_ns = (far - near).as_ns_f64();
    assert!(
        delta_ns < 41.0,
        "hop penalty {delta_ns} ns should be small vs DRAM"
    );
}

#[test]
fn every_request_gets_exactly_one_response_and_all_tokens_return() {
    let cfg = DeviceConfig::ac510_hmc();
    let map = cfg.map;
    let hmc = HmcDevice::new(cfg);
    let mut per_link: Vec<Vec<RequestPacket>> = vec![Vec::new(), Vec::new()];
    let mut sent = 0u64;
    for tag in 0..64u16 {
        for link in 0..2u8 {
            per_link[usize::from(link)].push(read_packet(
                &map,
                (tag % 16) as u8,
                (tag % 8) as u8,
                tag * 2 + u16::from(link),
                PayloadSize::B32,
            ));
            sent += 1;
        }
    }
    let mut driver = Driver::new(hmc, per_link);
    driver.run();
    assert_eq!(
        driver.responses.len() as u64,
        sent,
        "every request answered exactly once"
    );
    // Every request flit that entered a link buffer must be credited back.
    assert_eq!(
        driver.request_tokens_returned, sent,
        "all request tokens returned"
    );
    let stats = driver.hmc.stats();
    assert_eq!(stats.requests_received, sent);
    assert_eq!(stats.responses_sent, sent);
    assert_eq!(driver.hmc.outstanding(), 0, "nothing left resident");
    // Tag uniqueness: no response duplicated.
    let mut tags: Vec<u16> = driver.responses.iter().map(|&(_, _, p)| p.tag.0).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len() as u64, sent);
}

#[test]
fn single_vault_data_bandwidth_caps_near_10_gbs() {
    // Figure 6 / Section IV-A: accesses within one vault are limited by
    // the vault's ~10 GB/s internal bandwidth.
    let cfg = DeviceConfig::ac510_hmc();
    let map = cfg.map;
    let hmc = HmcDevice::new(cfg);
    let reads = 512u16;
    let pkts: Vec<RequestPacket> = (0..reads)
        .map(|i| read_packet(&map, 0, (i % 16) as u8, i, PayloadSize::B128))
        .collect();
    let mut driver = Driver::new(hmc, vec![pkts, Vec::new()]);
    driver.run();
    let data_bytes = f64::from(reads) * 128.0;
    let gbs = data_bytes * 1e3 / driver.last_response_at().as_ps() as f64;
    assert!(
        (6.0..=10.5).contains(&gbs),
        "single-vault data bandwidth {gbs} GB/s should cap near 10 GB/s"
    );
}

#[test]
fn spread_requests_outrun_single_bank_requests() {
    // Core Figure 6 ordering: the same request count completes much faster
    // spread over 16 vaults than pounding one bank.
    let run = |spread: bool| {
        let cfg = DeviceConfig::ac510_hmc();
        let map = cfg.map;
        let hmc = HmcDevice::new(cfg);
        let pkts: Vec<RequestPacket> = (0..128u16)
            .map(|i| {
                let (vault, bank) = if spread {
                    ((i % 16) as u8, (i / 16 % 16) as u8)
                } else {
                    (0, 0)
                };
                read_packet(&map, vault, bank, i, PayloadSize::B64)
            })
            .collect();
        let mut driver = Driver::new(hmc, vec![pkts, Vec::new()]);
        driver.run();
        driver.last_response_at()
    };
    let spread = run(true);
    let single = run(false);
    assert!(
        single.as_ps() > 3 * spread.as_ps(),
        "single-bank stream should be far slower: spread={spread} single={single}"
    );
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let cfg = DeviceConfig::ac510_hmc();
        let map = cfg.map;
        let hmc = HmcDevice::new(cfg);
        let mut per_link: Vec<Vec<RequestPacket>> = vec![Vec::new(), Vec::new()];
        for i in 0..96u16 {
            per_link[usize::from(i % 2)].push(read_packet(
                &map,
                (i % 16) as u8,
                (i % 4) as u8,
                i,
                PayloadSize::B32,
            ));
        }
        let mut driver = Driver::new(hmc, per_link);
        driver.run();
        driver
            .responses
            .iter()
            .map(|&(at, link, pkt)| (at.as_ps(), link.0, pkt.tag.0))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn flat_crossbar_topology_also_works() {
    // The quadrant count is a geometry knob; a single-quadrant geometry is
    // a flat 16-vault crossbar, the topology ablation of
    // `crates/bench/benches/ablations.rs` that removes the paper's
    // cross-quadrant hop asymmetry.
    let mut cfg = DeviceConfig::ac510_hmc();
    let mut geometry = *cfg.map.geometry();
    geometry.quadrants = 1;
    cfg.map = hmc_mapping::AddressMap::new(geometry, hmc_mapping::BlockSize::B128);
    cfg.link_quadrants = vec![hmc_mapping::QuadrantId(0)];
    let map = cfg.map;
    let hmc = HmcDevice::new(cfg);
    let pkts: Vec<RequestPacket> = (0..32u16)
        .map(|i| read_packet(&map, (i % 16) as u8, 0, i, PayloadSize::B64))
        .collect();
    let mut driver = Driver::new(hmc, vec![pkts]);
    driver.run();
    assert_eq!(driver.responses.len(), 32);
}

#[test]
fn writes_complete_and_ack_with_one_flit() {
    let cfg = DeviceConfig::ac510_hmc();
    let map = cfg.map;
    let hmc = HmcDevice::new(cfg);
    let pkts: Vec<RequestPacket> = (0..16u16)
        .map(|i| RequestPacket {
            port: PortId(0),
            tag: Tag(i),
            cube: hmc_packet::CubeId::HOST,
            addr: map.encode(VaultId((i % 16) as u8), BankId(0), 0, 0),
            kind: RequestKind::Write {
                size: PayloadSize::B64,
            },
        })
        .collect();
    let mut driver = Driver::new(hmc, vec![pkts, Vec::new()]);
    driver.run();
    assert_eq!(driver.responses.len(), 16);
    for &(_, _, pkt) in &driver.responses {
        assert_eq!(pkt.flits(), 1, "write acks are header/tail only");
    }
}

#[test]
fn ignored_high_address_bits_do_not_crash() {
    let cfg = DeviceConfig::ac510_hmc();
    let hmc = HmcDevice::new(cfg);
    let pkt = RequestPacket {
        port: PortId(0),
        tag: Tag(0),
        cube: hmc_packet::CubeId::HOST,
        addr: Address::new((1 << 33) | 0x80),
        kind: RequestKind::Read {
            size: PayloadSize::B16,
        },
    };
    let mut driver = Driver::new(hmc, vec![vec![pkt], Vec::new()]);
    driver.run();
    assert_eq!(driver.responses.len(), 1);
}

#[test]
fn withheld_response_tokens_stall_the_link_until_returned() {
    // The upstream serializer is serviced only on an enqueue or on a
    // token return that reaches a token-starved head. Shrink the host RX
    // buffer to two 128 B responses, withhold every token until the
    // device goes quiet, then hand them back: the starved serializer must
    // resume, and every response must still arrive.
    let mut cfg = DeviceConfig::ac510_hmc();
    cfg.link.input_buffer_flits = 18;
    let map = cfg.map;
    let mut hmc = HmcDevice::new(cfg);
    let requests = 32u16;
    for tag in 0..requests {
        let pkt = read_packet(&map, (tag % 16) as u8, 0, tag, PayloadSize::B128);
        hmc.on_request(Time::ZERO, LinkId(0), pkt);
    }
    let mut now = Time::ZERO;
    let mut delivered = 0u16;
    let mut withheld = 0u32;
    let mut rounds = 0;
    while delivered < requests {
        for out in hmc.advance(now) {
            if let DeviceOutput::Response { pkt, .. } = out {
                delivered += 1;
                withheld += pkt.flits();
            }
        }
        match hmc.next_wake() {
            Some(t) => now = t,
            None => {
                // Quiet with responses outstanding: the serializer is
                // token-starved. Return what the host has drained.
                assert!(withheld > 0, "stalled with no tokens to return");
                hmc.return_response_tokens(LinkId(0), withheld);
                withheld = 0;
                rounds += 1;
                assert!(rounds <= usize::from(requests), "serializer never resumed");
            }
        }
    }
    assert!(
        rounds > 1,
        "the small RX buffer must stall the link repeatedly"
    );
    let stats = hmc.link_stats(LinkId(0));
    assert_eq!(stats.packets_sent, u64::from(requests));
    assert!(stats.token_stalls > 0);
}
