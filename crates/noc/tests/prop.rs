//! Property tests for the NoC building blocks: conservation of packets,
//! credits and flits under arbitrary traffic, and exact agreement of the
//! bitmask switch and arbiter with the closure-scan forms they replaced.

use std::collections::VecDeque;

use hmc_des::{Delay, Time};
use hmc_noc::{
    Credits, Departure, Departures, RoundRobinArbiter, SwitchConfig, SwitchCore, SwitchEntry,
};
use proptest::prelude::*;

/// The round-robin rule the mask grant replaced: scan every requester
/// from the priority pointer with a modulo wrap, grant the first ready
/// one, count a conflict when more than one was ready.
#[derive(Debug, Clone)]
struct ScanArbiter {
    n: usize,
    next: usize,
    grants: u64,
    conflicts: u64,
}

impl ScanArbiter {
    fn new(n: usize) -> ScanArbiter {
        ScanArbiter {
            n,
            next: 0,
            grants: 0,
            conflicts: 0,
        }
    }

    fn grant<F: FnMut(usize) -> bool>(&mut self, mut ready: F) -> Option<usize> {
        let mut contenders = 0usize;
        let mut winner = None;
        for off in 0..self.n {
            let i = (self.next + off) % self.n;
            if ready(i) {
                contenders += 1;
                if winner.is_none() {
                    winner = Some(i);
                }
            }
        }
        if let Some(w) = winner {
            self.next = (w + 1) % self.n;
            self.grants += 1;
            if contenders > 1 {
                self.conflicts += 1;
            }
        }
        winner
    }
}

/// The switch the bitmask [`SwitchCore`] replaced, kept as its oracle:
/// every arbitration, starvation sweep and wake query scans all input
/// heads through closures.
struct ScanSwitch {
    cfg: SwitchConfig,
    inputs: Vec<VecDeque<SwitchEntry<u32>>>,
    input_capacities: Vec<u32>,
    input_flits: Vec<u32>,
    output_free: Vec<Time>,
    output_credits: Vec<Credits>,
    arbs: Vec<ScanArbiter>,
}

impl ScanSwitch {
    fn new(cfg: SwitchConfig, caps: &[u32], credits: &[u32]) -> ScanSwitch {
        ScanSwitch {
            cfg,
            inputs: caps.iter().map(|_| VecDeque::new()).collect(),
            input_capacities: caps.to_vec(),
            input_flits: vec![0; cfg.inputs],
            output_free: vec![Time::ZERO; cfg.outputs],
            output_credits: credits.iter().map(|&c| Credits::new(c)).collect(),
            arbs: (0..cfg.outputs)
                .map(|_| ScanArbiter::new(cfg.inputs))
                .collect(),
        }
    }

    fn try_enqueue(&mut self, input: usize, entry: SwitchEntry<u32>) -> bool {
        if self.input_flits[input] + entry.flits > self.input_capacities[input] {
            return false;
        }
        self.input_flits[input] += entry.flits;
        self.inputs[input].push_back(entry);
        true
    }

    fn return_credits(&mut self, output: usize, flits: u32) -> bool {
        self.output_credits[output].put(flits)
    }

    fn service(&mut self, now: Time) -> Vec<Departure<u32>> {
        let mut departures = Vec::new();
        loop {
            let mut progress = false;
            for o in 0..self.cfg.outputs {
                if self.output_free[o] > now {
                    continue;
                }
                let inputs = &self.inputs;
                let credits = &self.output_credits[o];
                let grant = self.arbs[o].grant(|i| {
                    inputs[i]
                        .front()
                        .is_some_and(|e| e.output == o && credits.can_take(e.flits))
                });
                if let Some(i) = grant {
                    let entry = self.inputs[i].pop_front().expect("granted head exists");
                    self.input_flits[i] -= entry.flits;
                    assert!(self.output_credits[o].try_take(entry.flits));
                    let busy = self.cfg.flit_time * entry.flits;
                    self.output_free[o] = now + busy;
                    departures.push(Departure {
                        input: i,
                        output: o,
                        flits: entry.flits,
                        at: now + self.cfg.hop_latency + busy,
                        payload: entry.payload,
                    });
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        for input in &self.inputs {
            if let Some(head) = input.front() {
                if !self.output_credits[head.output].can_take(head.flits) {
                    self.output_credits[head.output].mark_starved();
                }
            }
        }
        departures
    }

    fn next_wake(&self, now: Time) -> Option<Time> {
        let mut wake: Option<Time> = None;
        for input in &self.inputs {
            if let Some(head) = input.front() {
                let free = self.output_free[head.output];
                if free > now && self.output_credits[head.output].can_take(head.flits) {
                    wake = Some(wake.map_or(free, |w| w.min(free)));
                }
            }
        }
        wake
    }

    fn conflicts(&self) -> u64 {
        self.arbs.iter().map(|a| a.conflicts).sum()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

proptest! {
    /// Credits are conserved: available + in_flight == max at all times,
    /// under any interleaving of takes and puts.
    #[test]
    fn credit_conservation(max in 0u32..1000, ops in prop::collection::vec((any::<bool>(), 1u32..16), 0..200)) {
        let mut c = Credits::new(max);
        let mut taken: u32 = 0;
        for (is_take, n) in ops {
            if is_take {
                if c.try_take(n) {
                    taken += n;
                }
            } else {
                let back = n.min(taken);
                if back > 0 {
                    c.put(back);
                    taken -= back;
                }
            }
            prop_assert_eq!(c.available() + taken, max);
            prop_assert_eq!(c.in_flight(), taken);
        }
    }

    /// Round-robin never starves a persistent requester: with all
    /// requesters ready, any window of `n` grants contains every index.
    #[test]
    fn round_robin_fairness(n in 1usize..32) {
        let mut arb = RoundRobinArbiter::new(n);
        let mut seen = vec![0u32; n];
        for _ in 0..n * 3 {
            let g = arb.grant(|_| true).expect("all ready");
            seen[g] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            prop_assert_eq!(count, 3, "requester {} granted {} times", i, count);
        }
    }

    /// Every packet pushed into a switch eventually departs exactly once,
    /// with its flit count intact, provided downstream credits are
    /// returned.
    #[test]
    fn switch_conserves_packets(
        packets in prop::collection::vec((0usize..4, 0usize..4, 1u32..10), 1..60),
    ) {
        let cfg = SwitchConfig {
            inputs: 4,
            outputs: 4,
            input_capacity_flits: 10_000,
            hop_latency: Delay::from_ns(1),
            flit_time: Delay::from_ps(500),
        };
        let mut sw: SwitchCore<usize> = SwitchCore::new(cfg, &[100_000; 4]);
        let mut expected_flits: u64 = 0;
        for (id, &(input, output, flits)) in packets.iter().enumerate() {
            sw.try_enqueue(input, SwitchEntry { output, flits, payload: id })
                .expect("capacity is generous");
            expected_flits += u64::from(flits);
        }
        let mut now = Time::ZERO;
        let mut seen = vec![false; packets.len()];
        let mut got_flits: u64 = 0;
        loop {
            for d in sw.service(now) {
                prop_assert!(!seen[d.payload], "packet departed twice");
                seen[d.payload] = true;
                prop_assert_eq!(d.flits, packets[d.payload].2);
                got_flits += u64::from(d.flits);
            }
            match sw.next_wake(now) {
                Some(t) => now = t,
                None => break,
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "all packets departed");
        prop_assert_eq!(got_flits, expected_flits);
    }

    /// Output serialization: departures through one output never overlap —
    /// consecutive exit times are separated by at least the serialization
    /// time of the later packet.
    #[test]
    fn output_departures_never_overlap(
        flit_counts in prop::collection::vec(1u32..10, 2..40),
    ) {
        let cfg = SwitchConfig {
            inputs: 1,
            outputs: 1,
            input_capacity_flits: 10_000,
            hop_latency: Delay::from_ns(1),
            flit_time: Delay::from_ps(800),
        };
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg, &[100_000]);
        for (i, &flits) in flit_counts.iter().enumerate() {
            sw.try_enqueue(0, SwitchEntry { output: 0, flits, payload: i as u32 })
                .unwrap();
        }
        let mut now = Time::ZERO;
        let mut exits: Vec<(Time, u32)> = Vec::new();
        loop {
            for d in sw.service(now) {
                exits.push((d.at, d.flits));
            }
            match sw.next_wake(now) {
                Some(t) => now = t,
                None => break,
            }
        }
        prop_assert_eq!(exits.len(), flit_counts.len());
        for pair in exits.windows(2) {
            let (prev_at, _) = pair[0];
            let (next_at, next_flits) = pair[1];
            let min_gap = Delay::from_ps(800) * next_flits;
            prop_assert!(next_at >= prev_at + min_gap,
                "packets overlapped on the output wire");
        }
    }

    /// The mask grant and the closure grant pick the same winner, leave
    /// the same priority pointer and count the same grants and conflicts
    /// as the modulo scan they replaced, on random ready sets of up to 64
    /// requesters.
    #[test]
    fn mask_grant_matches_the_scan_grant(
        n in 1usize..65,
        masks in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let width = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut scan = ScanArbiter::new(n);
        let mut mask_arb = RoundRobinArbiter::new(n);
        let mut closure_arb = RoundRobinArbiter::new(n);
        for (step, raw) in masks.iter().enumerate() {
            // Thin some sets out so single contenders and empty sets occur.
            let ready = match step % 3 {
                0 => raw & width,
                1 => raw & (raw >> 7) & (raw >> 13) & width,
                _ => raw & (raw >> 3) & (raw >> 11) & (raw >> 29) & (raw >> 41) & width,
            };
            let want = scan.grant(|i| ready >> i & 1 == 1);
            prop_assert_eq!(mask_arb.grant_mask(ready), want);
            prop_assert_eq!(closure_arb.grant(|i| ready >> i & 1 == 1), want);
            prop_assert_eq!(mask_arb.priority(), scan.next);
            prop_assert_eq!(mask_arb.grants(), scan.grants);
            prop_assert_eq!(mask_arb.conflicts(), scan.conflicts);
            prop_assert_eq!(&closure_arb, &mask_arb);
        }
    }

    /// The bitmask switch is observably the closure-scan switch: driven
    /// by the same random enqueues, credit returns and service calls at
    /// non-decreasing times, for 1..=64 inputs with mixed input
    /// capacities and credit pools, both emit the same departures (order,
    /// input, output, exit time, payload), count the same conflicts,
    /// report the same wake after every step and raise the same
    /// starvation notifications.
    #[test]
    fn bitmask_switch_matches_the_scan_switch(
        inputs in 1usize..65,
        outputs in 1usize..13,
        seed in any::<u64>(),
    ) {
        let mut rng = seed | 1;
        let cfg = SwitchConfig {
            inputs,
            outputs,
            input_capacity_flits: 1,
            hop_latency: Delay::from_ps(1_000 + xorshift(&mut rng) % 3_000),
            flit_time: Delay::from_ps(200 + xorshift(&mut rng) % 1_000),
        };
        let caps: Vec<u32> = (0..inputs)
            .map(|_| [9, 12, 18, 36, 64][(xorshift(&mut rng) % 5) as usize])
            .collect();
        let pools: Vec<u32> = (0..outputs)
            .map(|_| [9, 10, 17, 27, 80][(xorshift(&mut rng) % 5) as usize])
            .collect();
        let mut sw: SwitchCore<u32> = SwitchCore::with_input_capacities(cfg, &caps, &pools);
        let mut oracle = ScanSwitch::new(cfg, &caps, &pools);
        let mut in_flight = vec![0u32; outputs];
        let mut deps = Departures::new();
        let mut now = Time::ZERO;
        let mut payload = 0u32;
        for step in 0..400 {
            match xorshift(&mut rng) % 8 {
                0..=3 => {
                    let input = (xorshift(&mut rng) % inputs as u64) as usize;
                    let entry = SwitchEntry {
                        output: (xorshift(&mut rng) % outputs as u64) as usize,
                        flits: [1, 1, 2, 3, 5, 9][(xorshift(&mut rng) % 6) as usize],
                        payload,
                    };
                    payload += 1;
                    let accepted = sw.try_enqueue(input, entry).is_ok();
                    prop_assert_eq!(accepted, oracle.try_enqueue(input, entry), "step {}", step);
                }
                4 => {
                    let output = (xorshift(&mut rng) % outputs as u64) as usize;
                    if in_flight[output] > 0 {
                        let flits = 1 + (xorshift(&mut rng) % u64::from(in_flight[output])) as u32;
                        in_flight[output] -= flits;
                        prop_assert_eq!(
                            sw.return_credits(output, flits),
                            oracle.return_credits(output, flits),
                            "step {}: starvation notification diverged", step
                        );
                    }
                }
                _ => {
                    // Time steps: stand still, creep, or jump to a wake.
                    now = match xorshift(&mut rng) % 3 {
                        0 => now,
                        1 => now + Delay::from_ps(xorshift(&mut rng) % 4_000),
                        _ => sw.next_wake(now).unwrap_or(now),
                    };
                    sw.service_into(now, &mut deps);
                    let got: Vec<Departure<u32>> = deps.drain().collect();
                    let want = oracle.service(now);
                    prop_assert_eq!(&got, &want, "step {}: departures diverged", step);
                    for d in &got {
                        in_flight[d.output] += d.flits;
                    }
                }
            }
            prop_assert_eq!(sw.arbitration_conflicts(), oracle.conflicts());
            prop_assert_eq!(sw.next_wake(now), oracle.next_wake(now), "step {}", step);
            prop_assert_eq!(sw.next_wake(Time::ZERO), oracle.next_wake(Time::ZERO));
        }
    }
}
