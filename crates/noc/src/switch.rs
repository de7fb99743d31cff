//! An input-queued crossbar switch at packet granularity.

use std::collections::VecDeque;

use hmc_des::{Clocked, Delay, InlineVec, Time};
use hmc_telemetry::Probe;

use crate::arbiter::RoundRobinArbiter;
use crate::credit::Credits;

/// The departure scratch buffer [`SwitchCore::service_into`] fills: eight
/// inline slots cover the common burst; larger bursts spill to the heap
/// once and the caller's reused buffer keeps that capacity.
pub type Departures<P> = InlineVec<Departure<P>, 8>;

/// Static configuration of a [`SwitchCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
    /// Capacity of each input FIFO, in flits.
    pub input_capacity_flits: u32,
    /// Pipeline latency from grant to first flit out.
    pub hop_latency: Delay,
    /// Serialization time per flit on each output port.
    pub flit_time: Delay,
}

impl SwitchConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.inputs == 0 || self.outputs == 0 {
            return Err("switch needs at least one input and one output".to_owned());
        }
        if self.input_capacity_flits == 0 {
            return Err("input FIFOs need nonzero capacity".to_owned());
        }
        if self.flit_time.is_zero() {
            return Err("flit time must be positive".to_owned());
        }
        Ok(())
    }
}

/// A packet queued at a switch input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchEntry<P> {
    /// Target output port.
    pub output: usize,
    /// Packet length in flits (determines serialization time and credits).
    pub flits: u32,
    /// Opaque payload carried through the switch.
    pub payload: P,
}

/// A packet leaving the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure<P> {
    /// The input it arrived on.
    pub input: usize,
    /// The output it left through.
    pub output: usize,
    /// Packet length in flits.
    pub flits: u32,
    /// When the last flit has left the switch (hop latency plus
    /// serialization).
    pub at: Time,
    /// The carried payload.
    pub payload: P,
}

/// Error returned when a switch input FIFO cannot accept a packet; carries
/// the entry back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchFull<P>(pub SwitchEntry<P>);

/// An input-queued crossbar modelled at packet granularity.
///
/// Each output port has a round-robin arbiter over the input FIFO *heads*
/// (head-of-line blocking is modelled, as in a real input-queued switch), a
/// busy interval covering the packet's serialization, and a credit counter
/// for the downstream buffer, so full downstream queues backpressure
/// through the switch — the queuing chain the paper identifies as the
/// HMC's dominant latency contributor under load (Sections IV-A/IV-B).
///
/// The core is sans-event: callers invoke [`SwitchCore::service`] when
/// anything changed and schedule a wake-up at [`SwitchCore::next_wake`].
///
/// # Examples
///
/// ```
/// use hmc_des::{Delay, Time};
/// use hmc_noc::{SwitchConfig, SwitchCore, SwitchEntry};
///
/// let cfg = SwitchConfig {
///     inputs: 2,
///     outputs: 2,
///     input_capacity_flits: 16,
///     hop_latency: Delay::from_ns(2),
///     flit_time: Delay::from_ps(800),
/// };
/// let mut sw: SwitchCore<&str> = SwitchCore::new(cfg, &[64, 64]);
/// sw.try_enqueue(0, SwitchEntry { output: 1, flits: 2, payload: "pkt" }).unwrap();
/// let out = sw.service(Time::ZERO);
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].at.as_ps(), 2_000 + 2 * 800);
/// ```
#[derive(Debug, Clone)]
pub struct SwitchCore<P> {
    cfg: SwitchConfig,
    inputs: Vec<VecDeque<SwitchEntry<P>>>,
    input_capacities: Vec<u32>,
    input_flits: Vec<u32>,
    peak_input_flits: Vec<u32>,
    output_free: Vec<Time>,
    output_credits: Vec<Credits>,
    /// Per output: bit `i` is set while input `i`'s head targets it. Kept
    /// exact at the two places a head changes (enqueue into an empty
    /// input, pop in service), so arbitration and wake queries visit only
    /// the heads that matter instead of every input.
    head_mask: Vec<u64>,
    arbs: Vec<RoundRobinArbiter>,
    forwarded: u64,
    probe: Probe,
    /// Cube id stamped on emitted telemetry.
    probe_cube: u8,
}

impl<P> SwitchCore<P> {
    /// Creates an idle switch. `downstream_credit_flits[o]` is the size of
    /// the buffer behind output `o`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the credit slice length
    /// does not match the output count.
    pub fn new(cfg: SwitchConfig, downstream_credit_flits: &[u32]) -> SwitchCore<P> {
        let caps = vec![cfg.input_capacity_flits; cfg.inputs];
        SwitchCore::with_input_capacities(cfg, &caps, downstream_credit_flits)
    }

    /// Creates an idle switch with a distinct buffer capacity per input
    /// port (e.g. a deep link-facing buffer and shallow cross-quadrant
    /// buffers). `cfg.input_capacity_flits` is ignored in favour of
    /// `input_capacity_flits[i]`.
    ///
    /// # Panics
    ///
    /// Panics as [`SwitchCore::new`] does, if the capacity slice length
    /// does not match the input count or contains a zero, or if the
    /// switch has more than 64 inputs (head sets are `u64` masks).
    pub fn with_input_capacities(
        cfg: SwitchConfig,
        input_capacity_flits: &[u32],
        downstream_credit_flits: &[u32],
    ) -> SwitchCore<P> {
        cfg.validate().expect("valid switch config");
        assert_eq!(
            downstream_credit_flits.len(),
            cfg.outputs,
            "one credit pool per output"
        );
        assert_eq!(
            input_capacity_flits.len(),
            cfg.inputs,
            "one capacity per input"
        );
        assert!(
            input_capacity_flits.iter().all(|&c| c > 0),
            "input capacities must be positive"
        );
        assert!(cfg.inputs <= 64, "head masks cover at most 64 inputs");
        SwitchCore {
            cfg,
            // Pre-sized to the worst case the capacity hint allows
            // (1-flit packets), capped so deep buffers don't over-reserve;
            // either way the queue never regrows mid-run in practice.
            inputs: input_capacity_flits
                .iter()
                .map(|&c| VecDeque::with_capacity((c as usize).min(64)))
                .collect(),
            input_capacities: input_capacity_flits.to_vec(),
            input_flits: vec![0; cfg.inputs],
            peak_input_flits: vec![0; cfg.inputs],
            output_free: vec![Time::ZERO; cfg.outputs],
            output_credits: downstream_credit_flits
                .iter()
                .map(|&c| Credits::new(c))
                .collect(),
            head_mask: vec![0; cfg.outputs],
            arbs: (0..cfg.outputs)
                .map(|_| RoundRobinArbiter::new(cfg.inputs))
                .collect(),
            forwarded: 0,
            probe: Probe::off(),
            probe_cube: 0,
        }
    }

    /// Attaches a telemetry probe; every grant emits one switch-forward
    /// event stamped with `cube`. Detached by default ([`Probe::off`]),
    /// which keeps [`SwitchCore::service_into`] allocation-free.
    pub fn set_probe(&mut self, probe: Probe, cube: u8) {
        self.probe = probe;
        self.probe_cube = cube;
    }

    /// The configuration in effect.
    #[inline]
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// `true` if input `i` has room for `flits` more flits.
    pub fn can_accept(&self, input: usize, flits: u32) -> bool {
        self.input_flits[input] + flits <= self.input_capacities[input]
    }

    /// Enqueues a packet at input `input`.
    ///
    /// # Errors
    ///
    /// Returns [`SwitchFull`] carrying the entry if the input FIFO lacks
    /// space.
    ///
    /// # Panics
    ///
    /// Panics if the entry's output port is out of range or its flit count
    /// is zero.
    pub fn try_enqueue(
        &mut self,
        input: usize,
        entry: SwitchEntry<P>,
    ) -> Result<(), SwitchFull<P>> {
        assert!(entry.output < self.cfg.outputs, "output port out of range");
        assert!(entry.flits > 0, "packets have at least one flit");
        if !self.can_accept(input, entry.flits) {
            return Err(SwitchFull(entry));
        }
        self.input_flits[input] += entry.flits;
        self.peak_input_flits[input] = self.peak_input_flits[input].max(self.input_flits[input]);
        if self.inputs[input].is_empty() {
            self.head_mask[entry.output] |= 1 << input;
        }
        self.inputs[input].push_back(entry);
        Ok(())
    }

    /// Returns `flits` credits for output `o` (the downstream buffer
    /// drained). Returns `true` if a queued head was starving on this
    /// output's credits — the caller should run [`SwitchCore::service`];
    /// on `false` no head was credit-blocked and no service pass is
    /// needed (time-driven progress is covered by
    /// [`SwitchCore::next_wake`]).
    pub fn return_credits(&mut self, output: usize, flits: u32) -> bool {
        self.output_credits[output].put(flits)
    }

    /// Available downstream credits at output `o`.
    pub fn credits_available(&self, output: usize) -> u32 {
        self.output_credits[output].available()
    }

    /// Runs arbitration until no further progress is possible at `now`.
    /// Returns every departing packet with its exit timestamp.
    ///
    /// Convenience form of [`SwitchCore::service_into`]; hot paths pass a
    /// reused scratch buffer instead so steady-state service allocates
    /// nothing.
    pub fn service(&mut self, now: Time) -> Departures<P> {
        let mut departures = Departures::new();
        self.service_into(now, &mut departures);
        departures
    }

    /// Runs arbitration until no further progress is possible at `now`,
    /// appending every departing packet (with its exit timestamp) to
    /// `departures` in grant order.
    pub fn service_into(&mut self, now: Time, departures: &mut Departures<P>) {
        loop {
            let mut progress = false;
            for o in 0..self.cfg.outputs {
                if self.head_mask[o] == 0 || self.output_free[o] > now {
                    continue;
                }
                let ready = self.ready_heads(o);
                let Some(i) = self.arbs[o].grant_mask(ready) else {
                    continue;
                };
                let entry = self.inputs[i].pop_front().expect("granted head exists");
                self.head_mask[o] &= !(1 << i);
                if let Some(next) = self.inputs[i].front() {
                    self.head_mask[next.output] |= 1 << i;
                }
                self.input_flits[i] -= entry.flits;
                assert!(
                    self.output_credits[o].try_take(entry.flits),
                    "grant implies credits"
                );
                let busy = self.cfg.flit_time * entry.flits;
                self.output_free[o] = now + busy;
                self.forwarded += 1;
                self.probe.switch_forward(self.probe_cube, entry.flits, now);
                departures.push(Departure {
                    input: i,
                    output: o,
                    flits: entry.flits,
                    at: now + self.cfg.hop_latency + busy,
                    payload: entry.payload,
                });
                progress = true;
            }
            if !progress {
                break;
            }
        }
        // Record which output pools the surviving heads are starving on,
        // so the corresponding credit returns notify (and returns into
        // outputs nobody waits for don't trigger useless service passes).
        for o in 0..self.cfg.outputs {
            if self.head_mask[o] != self.ready_heads(o) {
                self.output_credits[o].mark_starved();
            }
        }
    }

    /// The heads targeting output `o` that its credits can admit, as an
    /// input bitmask.
    fn ready_heads(&self, o: usize) -> u64 {
        let credits = &self.output_credits[o];
        let mut ready = 0;
        let mut heads = self.head_mask[o];
        while heads != 0 {
            let i = heads.trailing_zeros() as usize;
            heads &= heads - 1;
            let head = self.inputs[i].front().expect("masked input has a head");
            if credits.can_take(head.flits) {
                ready |= 1 << i;
            }
        }
        ready
    }

    /// The earliest future time at which [`SwitchCore::service`] could make
    /// progress on its own (an output's busy interval expiring while a
    /// matching head waits). Credit-blocked heads are *not* reported: the
    /// credit return itself triggers the service call (see
    /// [`SwitchCore::return_credits`]).
    pub fn next_wake(&self, now: Time) -> Option<Time> {
        let mut wake: Option<Time> = None;
        for o in 0..self.cfg.outputs {
            let free = self.output_free[o];
            if self.head_mask[o] != 0 && free > now && self.ready_heads(o) != 0 {
                wake = Some(wake.map_or(free, |w| w.min(free)));
            }
        }
        wake
    }

    /// Current occupancy of input `i`, in flits.
    pub fn input_occupancy_flits(&self, input: usize) -> u32 {
        self.input_flits[input]
    }

    /// Peak occupancy of input `i`, in flits.
    pub fn peak_input_flits(&self, input: usize) -> u32 {
        self.peak_input_flits[input]
    }

    /// Total packets forwarded.
    #[inline]
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Total grants where more than one input contended for the same
    /// output, summed over outputs — the switch's contention measure.
    pub fn arbitration_conflicts(&self) -> u64 {
        self.arbs.iter().map(|a| a.conflicts()).sum()
    }
}

impl<P> Clocked for SwitchCore<P> {
    fn next_wake(&self, now: Time) -> Option<Time> {
        SwitchCore::next_wake(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(inputs: usize, outputs: usize) -> SwitchConfig {
        SwitchConfig {
            inputs,
            outputs,
            input_capacity_flits: 32,
            hop_latency: Delay::from_ns(2),
            flit_time: Delay::from_ps(800),
        }
    }

    fn entry(output: usize, flits: u32, id: u32) -> SwitchEntry<u32> {
        SwitchEntry {
            output,
            flits,
            payload: id,
        }
    }

    #[test]
    fn single_packet_cut_through_timing() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 1), &[100]);
        sw.try_enqueue(0, entry(0, 9, 7)).unwrap();
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 7);
        assert_eq!(out[0].at.as_ps(), 2_000 + 9 * 800);
        assert_eq!(sw.forwarded(), 1);
        assert!(
            !sw.return_credits(0, 9),
            "no head waits: the return needs no service pass"
        );
    }

    #[test]
    fn output_serializes_contending_inputs() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(2, 1), &[100]);
        sw.try_enqueue(0, entry(0, 2, 0)).unwrap();
        sw.try_enqueue(1, entry(0, 2, 1)).unwrap();
        // At t=0 only one grant can go through (output busy afterwards).
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 1);
        let wake = sw.next_wake(Time::ZERO).expect("second head waits");
        assert_eq!(wake.as_ps(), 2 * 800);
        let out2 = sw.service(wake);
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].payload, 1);
        assert_eq!(sw.arbitration_conflicts(), 1);
    }

    #[test]
    fn distinct_outputs_forward_in_parallel() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(2, 2), &[100, 100]);
        sw.try_enqueue(0, entry(0, 3, 0)).unwrap();
        sw.try_enqueue(1, entry(1, 3, 1)).unwrap();
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 2, "no conflict, both forwarded at t=0");
        assert_eq!(out[0].at, out[1].at);
    }

    #[test]
    fn credits_backpressure_and_release() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 1), &[3]);
        sw.try_enqueue(0, entry(0, 3, 0)).unwrap();
        sw.try_enqueue(0, entry(0, 3, 1)).unwrap();
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 1, "second packet has no credits");
        // Even after the output frees, no credits → no wake, no progress.
        let later = Time::from_ns(100);
        assert_eq!(sw.next_wake(Time::ZERO), None);
        assert!(sw.service(later).is_empty());
        // Downstream drains → credits return → the starved head is
        // notified and the packet moves.
        assert!(sw.return_credits(0, 3), "blocked head notifies on return");
        let out = sw.service(later);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 1);
    }

    #[test]
    fn input_fifo_capacity_enforced() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 1), &[1000]);
        // Capacity is 32 flits: four 9-flit packets do not fit.
        for i in 0..3 {
            sw.try_enqueue(0, entry(0, 9, i)).unwrap();
        }
        assert!(!sw.can_accept(0, 9));
        let err = sw.try_enqueue(0, entry(0, 9, 3)).unwrap_err();
        assert_eq!(err.0.payload, 3);
        assert_eq!(sw.input_occupancy_flits(0), 27);
        assert_eq!(sw.peak_input_flits(0), 27);
    }

    #[test]
    fn head_of_line_blocking_is_modelled() {
        // Input 0's head targets busy output 0; a packet for free output 1
        // sits behind it and must wait even though output 1 is idle.
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(2, 2), &[100, 100]);
        sw.try_enqueue(1, entry(0, 4, 9)).unwrap();
        assert_eq!(sw.service(Time::ZERO).len(), 1); // occupy output 0
        sw.try_enqueue(0, entry(0, 4, 0)).unwrap();
        sw.try_enqueue(0, entry(1, 1, 1)).unwrap();
        let out = sw.service(Time::ZERO);
        assert!(
            out.is_empty(),
            "HOL: packet for output 1 blocked behind head"
        );
    }

    #[test]
    fn service_drains_chains_within_one_call() {
        // Two packets to two different outputs from one input: the second
        // becomes head after the first is granted, and both leave at t=0
        // service (outputs are distinct).
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 2), &[100, 100]);
        sw.try_enqueue(0, entry(0, 1, 0)).unwrap();
        sw.try_enqueue(0, entry(1, 1, 1)).unwrap();
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic(expected = "output port out of range")]
    fn enqueue_validates_output() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 1), &[10]);
        let _ = sw.try_enqueue(0, entry(5, 1, 0));
    }
}
