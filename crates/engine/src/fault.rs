//! Deterministic fault injection and the chaos harness.
//!
//! Streaming access control must degrade safely when the stream itself
//! misbehaves: security punctuations can be lost, duplicated, delayed or
//! reordered relative to the tuples they govern, and frames can arrive
//! corrupted. This module provides the tooling the robustness tests use to
//! exercise those conditions **reproducibly**, at four boundaries:
//!
//! * the **element stream** ([`FaultInjector::apply`], plus
//!   [`FaultInjector::corrupt`] for the encoded bytes) — sps and tuples
//!   perturbed independently (losing an sp is the security-relevant
//!   event; losing a tuple is merely lossy);
//! * the **socket** ([`FaultInjector::deliver`]) — how a hostile network
//!   delivers a client's bytes, as a script of [`SocketEvent`]s;
//! * the **replication link** ([`FaultInjector::offer`] /
//!   [`FaultInjector::drain`]) — how a flaky WAN delivers whole frames;
//! * the **cipher forwarder** ([`FaultInjector::forward`]) — what a
//!   malicious relay does to the ciphertext frames it should pass on.
//!
//! One [`FaultSchedule`] holds a rate per [`Fault`] kind and a seed; one
//! [`FaultInjector`] applies it and counts, per kind, the faults it
//! actually injected. The same seed always yields the same perturbation.
//! [`run_chaos`] is the harness: it runs a plan-under-test across many
//! seeded element-stream scenarios and checks the engine's two
//! degradation invariants — it must never panic, and it must **fail
//! closed**: the set of tuples released under faults must be a subset of
//! the tuples released on the clean input. A lost or late sp may suppress
//! output; it must never reveal extra output.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sp_core::crypto::CipherFrame;
use sp_core::{SplitMix64, StreamElement, StreamId};

use crate::ops::sink::Sink;
use crate::plan::{PlanBuilder, SinkRef};

/// A kind of fault, at one of the four boundaries. Each kind has a rate
/// `p` in a [`FaultSchedule`] and, where the fault has a length, a `max`;
/// the injector keeps one counter per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Stream: an sp is silently dropped. Counts sps.
    DropSp,
    /// Stream: a tuple is silently dropped. Counts tuples.
    DropTuple,
    /// Stream: an sp is duplicated; the copy arrives adjacent. Counts sps.
    DupSp,
    /// Stream: a tuple is duplicated; the copy arrives adjacent.
    DupTuple,
    /// Stream: an sp is displaced later in arrival order by up to `max`
    /// elements. Counts sps moved.
    DelaySp,
    /// Stream: any element is displaced later by up to `max` elements.
    /// Counts elements moved.
    Reorder,
    /// Stream and socket: each byte is XORed with a random non-zero mask
    /// with probability `p`. Counts bytes.
    Corrupt,
    /// Stream: at a tuple, the tuples among the next up to `max` elements
    /// are replayed adjacently, as a retrying upstream floods. Counts bursts.
    Burst,
    /// Stream: a block of up to `max` elements is delivered after the ones
    /// that followed it. Socket: delivery pauses up to `max` ms.
    Stall,
    /// Socket: every write is torn into chunks of `1..=max` bytes
    /// (`max = 0` delivers it whole; `p` is unused). Counts chunks cut
    /// short of the rest of the write.
    Tear,
    /// Socket: a chunk boundary injects up to `max` garbage bytes.
    /// Counts bytes.
    Garbage,
    /// Socket: the connection dies mid-delivery and the rest of the write
    /// is lost; the client must reconnect and replay.
    Disconnect,
    /// Link: a partition begins, swallowing this frame and the next
    /// `max - 1` in both directions. Counts frames swallowed.
    Partition,
    /// Link: a frame is held back and delivered after up to `max` later
    /// frames (reordered delivery). Counts frames held.
    Lag,
    /// Link: a delivered frame is delivered twice. Counts extra copies.
    Duplicate,
    /// Link: from frame `max` (counted from 0) onward the link is dead —
    /// a primary dying mid-ship — and held frames die with it (`max = 0`
    /// never; `p` is unused). Counts frames swallowed.
    Dark,
    /// Cipher: a DATA frame gets one ciphertext byte flipped (CRC
    /// recomputed, so only the AEAD tag can catch it).
    FlipCt,
    /// Cipher: a DATA frame's sealed payload is truncated.
    Truncate,
    /// Cipher: any frame is silently dropped.
    DropFrame,
    /// Cipher: a DIGEST frame is dropped, forcing the client to decide
    /// the segment without it.
    DropDigest,
    /// Cipher: a completed segment's whole frame run is re-delivered
    /// after its terminator.
    ReplaySegment,
    /// Cipher: the `idx` fields of two adjacent DATA frames are swapped
    /// (a nonce-confusion / reordering attack).
    SwapNonce,
    /// Cipher: a HEADER claims an older (or, at zero, a fabricated newer)
    /// key epoch than its capsules were sealed under.
    StaleEpoch,
}

const KINDS: usize = Fault::StaleEpoch as usize + 1;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Rate {
    p: f64,
    max: usize,
}

/// A seeded description of the faults to inject at one boundary: a rate
/// per [`Fault`] kind. The four scenario constructors enable every kind
/// of their boundary at a seed-dependent rate; [`FaultSchedule::none`]
/// plus [`FaultSchedule::with`] builds a schedule by hand.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSchedule {
    /// Seed for all fault placement decisions.
    pub seed: u64,
    rates: [Rate; KINDS],
}

impl FaultSchedule {
    /// A schedule that injects nothing (identity perturbation).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// This schedule with `fault` at probability `p` and length `max`.
    #[must_use]
    pub fn with(mut self, fault: Fault, p: f64, max: usize) -> Self {
        self.rates[fault as usize] = Rate { p, max };
        self
    }

    /// A scenario from a table of `(kind, rate ceiling, length ceiling,
    /// length floor)` rows: row by row, `p` is drawn uniformly below its
    /// ceiling and `max` as `floor + [1, ceiling]` (each when its ceiling
    /// is non-zero).
    fn scenario(seed: u64, salt: u64, table: &[(Fault, f64, usize, usize)]) -> Self {
        let mut rng = SplitMix64::new(seed ^ salt);
        table.iter().fold(Self::none(seed), |s, &(fault, p_ceil, max_ceil, floor)| {
            let p = if p_ceil > 0.0 { rng.next_f64() * p_ceil } else { 0.0 };
            let max = if max_ceil > 0 { floor + rng.up_to(max_ceil) } else { 0 };
            s.with(fault, p, max)
        })
    }

    /// A lossy, reordering element stream: drops, duplicates, delays,
    /// reorders, corruption, bursts and stalls, all seed-dependent.
    #[must_use]
    pub fn stream(seed: u64) -> Self {
        Self::scenario(
            seed,
            0xC0FF_EE00_5EED_5EED,
            &[
                (Fault::DropSp, 0.35, 0, 0),
                (Fault::DropTuple, 0.25, 0, 0),
                (Fault::DupSp, 0.25, 0, 0),
                (Fault::DupTuple, 0.25, 0, 0),
                (Fault::DelaySp, 0.35, 6, 0),
                (Fault::Reorder, 0.3, 4, 0),
                (Fault::Corrupt, 0.02, 0, 0),
                (Fault::Burst, 0.05, 8, 0),
                (Fault::Stall, 0.05, 6, 0),
            ],
        )
    }

    /// A hostile socket: small torn chunks, occasional garbage, rare
    /// corruption, stalls and disconnects.
    #[must_use]
    pub fn socket(seed: u64) -> Self {
        Self::scenario(
            seed,
            0x50C6_E7FA_017B_17E5,
            &[
                (Fault::Tear, 0.0, 96, 0),
                (Fault::Garbage, 0.10, 24, 0),
                (Fault::Corrupt, 0.002, 0, 0),
                (Fault::Stall, 0.05, 5, 0),
                (Fault::Disconnect, 0.01, 0, 0),
            ],
        )
    }

    /// A flaky replication link: occasional short partitions, moderate
    /// lag, rare duplicates.
    #[must_use]
    pub fn link(seed: u64) -> Self {
        Self::scenario(
            seed,
            0x11BE_FA17_5EED_C0DE,
            &[
                (Fault::Partition, 0.08, 4, 1),
                (Fault::Lag, 0.25, 6, 1),
                (Fault::Duplicate, 0.15, 0, 0),
            ],
        )
    }

    /// A malicious cipher forwarder: every attack enabled.
    #[must_use]
    pub fn cipher(seed: u64) -> Self {
        Self::scenario(
            seed,
            0xC1F4_E12F_AD57_0CE5,
            &[
                (Fault::FlipCt, 0.15, 0, 0),
                (Fault::Truncate, 0.10, 0, 0),
                (Fault::DropFrame, 0.08, 0, 0),
                (Fault::DropDigest, 0.25, 0, 0),
                (Fault::ReplaySegment, 0.20, 0, 0),
                (Fault::SwapNonce, 0.10, 0, 0),
                (Fault::StaleEpoch, 0.15, 0, 0),
            ],
        )
    }
}

/// One step of a scripted hostile delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketEvent {
    /// Write these bytes to the transport.
    Deliver(Vec<u8>),
    /// Pause delivery for this many milliseconds (a stalled link).
    StallMs(u64),
    /// Drop the connection; any bytes after this event in the original
    /// payload were lost and it is the *client's* job to reconnect and
    /// replay from its acknowledged position.
    Disconnect,
}

/// The RNG salt of each boundary's perturbation: each boundary draws from
/// its own stream of the schedule's seed.
const STREAM: u64 = 0;
const SOCKET: u64 = 0x7EA2_B0B5;
const LINK: u64 = 0x4FA1_1BAC;
const CIPHER: u64 = 0x5EA1_ED0F_F3A2;

/// Applies a [`FaultSchedule`], deterministically, and counts what it
/// injected. It keeps its RNG, counters and held link frames across
/// calls, so one injector scripts a whole stream, connection or link. It
/// serves one boundary: the first perturbation seeds the RNG, salted by
/// that boundary.
#[derive(Debug, Default)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    rng: SplitMix64,
    seeded: bool,
    counts: [u64; KINDS],
    /// Link frames held back by lag: `(deliver_after_countdown, frame)`.
    held: Vec<(usize, Vec<u8>)>,
    /// Remaining link frames to swallow in the current partition.
    partition_left: usize,
    /// Link frames offered so far.
    offered: u64,
}

impl FaultInjector {
    /// An injector for the given schedule.
    #[must_use]
    pub fn new(schedule: FaultSchedule) -> Self {
        Self { schedule, ..Self::default() }
    }

    /// How many `fault`s this injector has injected so far.
    #[must_use]
    pub fn count(&self, fault: Fault) -> u64 {
        self.counts[fault as usize]
    }

    /// Total number of injected faults, all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another injector's counters to this one's.
    pub fn absorb(&mut self, other: &FaultInjector) {
        for (c, o) in self.counts.iter_mut().zip(other.counts) {
            *c += o;
        }
    }

    fn seed(&mut self, salt: u64) {
        if !self.seeded {
            self.rng = SplitMix64::new(self.schedule.seed ^ salt);
            self.seeded = true;
        }
    }

    fn rate(&self, fault: Fault) -> Rate {
        self.schedule.rates[fault as usize]
    }

    /// Draws `fault`'s chance without counting it.
    fn chance(&mut self, fault: Fault) -> bool {
        self.rng.chance(self.rate(fault).p)
    }

    /// Draws `fault`'s chance and counts it when it fires.
    fn hit(&mut self, fault: Fault) -> bool {
        let fired = self.chance(fault);
        self.counts[fault as usize] += u64::from(fired);
        fired
    }

    /// Produces the perturbed copy of an element stream.
    ///
    /// Drops and duplicates are applied per element (duplicates arrive
    /// adjacent, as network-level duplicates do); then sps are delayed;
    /// then the generic reorder displacement runs over everything; then
    /// bursts and stalls.
    #[must_use]
    pub fn apply(&mut self, input: &[(StreamId, StreamElement)]) -> Vec<(StreamId, StreamElement)> {
        self.seed(STREAM);
        let mut out: Vec<(StreamId, StreamElement)> = Vec::with_capacity(input.len());
        for (sid, elem) in input {
            let (drop, dup) = if matches!(elem, StreamElement::Punctuation(_)) {
                (Fault::DropSp, Fault::DupSp)
            } else {
                (Fault::DropTuple, Fault::DupTuple)
            };
            if self.hit(drop) {
                continue;
            }
            out.push((*sid, elem.clone()));
            if self.hit(dup) {
                out.push((*sid, elem.clone()));
            }
        }
        self.displace(&mut out, Fault::DelaySp);
        self.displace(&mut out, Fault::Reorder);
        self.inject_bursts(&mut out);
        self.inject_stalls(&mut out);
        out
    }

    /// Replays the tuples of a window after a triggering tuple. Only
    /// tuples are replayed (replaying an sp would merely duplicate policy
    /// state; the flood that matters for overload is data).
    fn inject_bursts(&mut self, out: &mut Vec<(StreamId, StreamElement)>) {
        let Rate { p, max } = self.rate(Fault::Burst);
        if p <= 0.0 || max == 0 {
            return;
        }
        let mut i = 0;
        while i < out.len() {
            if matches!(out[i].1, StreamElement::Tuple(_)) && self.hit(Fault::Burst) {
                let end = (i + self.rng.up_to(max)).min(out.len());
                let copies: Vec<(StreamId, StreamElement)> = out[i..end]
                    .iter()
                    .filter(|(_, e)| matches!(e, StreamElement::Tuple(_)))
                    .cloned()
                    .collect();
                let inserted = copies.len();
                out.splice(end..end, copies);
                // Skip past the inserted copies so one trigger cannot
                // cascade into an unbounded avalanche.
                i = end + inserted;
            } else {
                i += 1;
            }
        }
    }

    /// Holds a block back behind the elements that followed it — a
    /// paused connection flushing its buffer late.
    fn inject_stalls(&mut self, out: &mut [(StreamId, StreamElement)]) {
        let Rate { p, max } = self.rate(Fault::Stall);
        if p <= 0.0 || max == 0 {
            return;
        }
        let mut i = 0;
        while i + 1 < out.len() {
            if self.chance(Fault::Stall) {
                let w = self.rng.up_to(max);
                let end = (i + w).min(out.len());
                let shift = w.min(out.len() - end);
                if shift > 0 && end > i {
                    out[i..end + shift].rotate_left(end - i);
                    self.counts[Fault::Stall as usize] += 1;
                }
                i = end + shift;
            } else {
                i += 1;
            }
        }
    }

    /// Displaces elements (sps only for [`Fault::DelaySp`]) later in
    /// arrival order: each element is considered once and, when the fault
    /// fires, lands just behind the element that was up to `max` slots
    /// after it. Every element ends within `max` slots of where it began.
    fn displace(&mut self, out: &mut Vec<(StreamId, StreamElement)>, fault: Fault) {
        let Rate { p, max: window } = self.rate(fault);
        if p <= 0.0 || window == 0 || out.len() < 2 {
            return;
        }
        let sp_only = fault == Fault::DelaySp;
        let last = out.len() - 1;
        let mut targeted = Vec::with_capacity(out.len());
        for (i, e) in out.drain(..).enumerate() {
            let applies = !sp_only || matches!(e.1, StreamElement::Punctuation(_));
            let mut to = i;
            if applies && self.chance(fault) {
                to = (i + self.rng.up_to(window)).min(last);
            }
            self.counts[fault as usize] += u64::from(to > i);
            targeted.push((to, to > i, e));
        }
        // Stable: a moved element sorts after the one that stayed at its
        // target slot, and equal targets keep arrival order.
        targeted.sort_by_key(|&(to, moved, _)| (to, moved));
        out.extend(targeted.into_iter().map(|(_, _, e)| e));
    }

    /// Corrupts `bytes` in place ([`Fault::Corrupt`]), for exercising the
    /// wire layer's CRC and resync paths.
    pub fn corrupt(&mut self, bytes: &mut [u8]) {
        self.seed(STREAM);
        self.flip(bytes);
    }

    fn flip(&mut self, bytes: &mut [u8]) {
        for b in bytes.iter_mut() {
            if self.hit(Fault::Corrupt) {
                *b ^= (self.rng.next_u64() as u8) | 1;
            }
        }
    }

    /// Scripts the delivery of `bytes` over a hostile socket: chunk writes
    /// with optional garbage, corruption and stalls, possibly cut short by
    /// a disconnect (the rest is dropped; the script ends with
    /// [`SocketEvent::Disconnect`]).
    pub fn deliver(&mut self, bytes: &[u8]) -> Vec<SocketEvent> {
        self.seed(SOCKET);
        let mut events = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            if self.hit(Fault::Disconnect) {
                events.push(SocketEvent::Disconnect);
                return events;
            }
            let stall_ms = self.rate(Fault::Stall).max;
            if self.chance(Fault::Stall) && stall_ms > 0 {
                self.counts[Fault::Stall as usize] += 1;
                events.push(SocketEvent::StallMs(self.rng.up_to(stall_ms) as u64));
            }
            let garbage_max = self.rate(Fault::Garbage).max;
            if self.chance(Fault::Garbage) && garbage_max > 0 {
                let n = self.rng.up_to(garbage_max);
                let garbage: Vec<u8> = (0..n).map(|_| self.rng.next_u64() as u8).collect();
                self.counts[Fault::Garbage as usize] += n as u64;
                events.push(SocketEvent::Deliver(garbage));
            }
            let rest = bytes.len() - pos;
            let chunk = match self.rate(Fault::Tear).max {
                0 => rest,
                max => self.rng.up_to(max).min(rest),
            };
            self.counts[Fault::Tear as usize] += u64::from(chunk < rest);
            let mut payload = bytes[pos..pos + chunk].to_vec();
            self.flip(&mut payload);
            events.push(SocketEvent::Deliver(payload));
            pos += chunk;
        }
        events
    }

    /// True once the link has gone [`Fault::Dark`]: the next offered frame
    /// is swallowed, as is everything after it.
    #[must_use]
    pub fn dark(&self) -> bool {
        let from = self.rate(Fault::Dark).max;
        from > 0 && self.offered >= from as u64
    }

    fn release_due(&mut self, out: &mut Vec<Vec<u8>>) {
        for (countdown, frame) in std::mem::take(&mut self.held) {
            match countdown {
                0 => out.push(frame),
                n => self.held.push((n - 1, frame)),
            }
        }
    }

    /// Offers one frame to the replication link; returns the frames that
    /// come out the far end *now* (possibly none — partitioned, lagged or
    /// dark; possibly several — releases of earlier lagged frames, or
    /// duplicates).
    pub fn offer(&mut self, frame: &[u8]) -> Vec<Vec<u8>> {
        self.seed(LINK);
        let dark = self.dark();
        self.offered += 1;
        let mut out = Vec::new();
        if dark {
            self.counts[Fault::Dark as usize] += 1;
            return out;
        }
        if self.partition_left > 0 {
            // Both directions are dark: the frame is gone, and lagged
            // frames stay held (nothing traverses the link).
            self.partition_left -= 1;
            self.counts[Fault::Partition as usize] += 1;
            return out;
        }
        let partition_len = self.rate(Fault::Partition).max;
        if self.chance(Fault::Partition) && partition_len > 0 {
            self.partition_left = partition_len - 1;
            self.counts[Fault::Partition as usize] += 1;
            return out;
        }
        self.release_due(&mut out);
        let lag_max = self.rate(Fault::Lag).max;
        if self.chance(Fault::Lag) && lag_max > 0 {
            let hold = 1 + self.rng.up_to(lag_max);
            self.counts[Fault::Lag as usize] += 1;
            self.held.push((hold, frame.to_vec()));
        } else {
            out.push(frame.to_vec());
            if self.hit(Fault::Duplicate) {
                out.push(frame.to_vec());
            }
        }
        out
    }

    /// Flushes every still-held link frame (the link going quiet long
    /// enough for all lag to drain) — none if the link went dark. Call at
    /// end of script so held frames are not silently lost.
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        let dark = self.dark();
        self.held.drain(..).filter(|_| !dark).map(|(_, frame)| frame).collect()
    }

    /// Produces a malicious forwarder's delivery of encoded cipher frames.
    /// Mutations go through decode → perturb → re-encode, so every
    /// delivered frame carries a *valid envelope checksum* — the CRC is
    /// transport hygiene, not a security boundary; the AEAD tags inside
    /// are what the client must lean on. Frames that fail to decode (not
    /// cipher frames at all) are forwarded untouched.
    #[must_use]
    pub fn forward(&mut self, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
        self.seed(CIPHER);
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
        // Frames of the segment currently in flight, for replay.
        let mut segment_run: Vec<Vec<u8>> = Vec::new();
        for bytes in frames {
            let Ok(frame) = CipherFrame::decode_frame(bytes) else {
                out.push(bytes.clone());
                continue;
            };
            if self.hit(Fault::DropFrame) {
                continue;
            }
            let mutated = match frame {
                CipherFrame::Data { stream, seg, idx, mut sealed } => {
                    if self.chance(Fault::FlipCt) && !sealed.is_empty() {
                        let at = self.rng.up_to(sealed.len()) - 1;
                        sealed[at] ^= (self.rng.next_u64() as u8) | 1;
                        self.counts[Fault::FlipCt as usize] += 1;
                    }
                    if self.chance(Fault::Truncate) && !sealed.is_empty() {
                        let keep = self.rng.up_to(sealed.len()) - 1;
                        sealed.truncate(keep);
                        self.counts[Fault::Truncate as usize] += 1;
                    }
                    CipherFrame::Data { stream, seg, idx, sealed }
                }
                CipherFrame::Digest { .. } if self.hit(Fault::DropDigest) => continue,
                CipherFrame::Header { stream, seg, key_epoch, sp_ts, capsules }
                    if self.hit(Fault::StaleEpoch) =>
                {
                    let bogus = if key_epoch > 0 { key_epoch - 1 } else { key_epoch + 1 };
                    CipherFrame::Header { stream, seg, key_epoch: bogus, sp_ts, capsules }
                }
                other => other,
            };
            let is_terminator = matches!(mutated, CipherFrame::Terminator { .. });
            let delivered = mutated.encode_to_vec();
            segment_run.push(delivered.clone());
            out.push(delivered);
            if is_terminator {
                if self.hit(Fault::ReplaySegment) {
                    out.extend(segment_run.iter().cloned());
                }
                segment_run.clear();
            }
        }
        self.swap_adjacent_nonces(&mut out);
        out
    }

    /// Swaps the `idx` fields of adjacent DATA-frame pairs — the frames
    /// still carry valid envelopes, but each now claims the other's nonce
    /// position.
    fn swap_adjacent_nonces(&mut self, out: &mut [Vec<u8>]) {
        if self.rate(Fault::SwapNonce).p <= 0.0 {
            return;
        }
        let mut i = 0;
        while i + 1 < out.len() {
            let pair = (CipherFrame::decode_frame(&out[i]), CipherFrame::decode_frame(&out[i + 1]));
            if let (
                Ok(CipherFrame::Data { stream: s1, seg: g1, idx: i1, sealed: b1 }),
                Ok(CipherFrame::Data { stream: s2, seg: g2, idx: i2, sealed: b2 }),
            ) = pair
            {
                if self.hit(Fault::SwapNonce) {
                    out[i] = CipherFrame::Data { stream: s1, seg: g1, idx: i2, sealed: b1 }
                        .encode_to_vec();
                    out[i + 1] = CipherFrame::Data { stream: s2, seg: g2, idx: i1, sealed: b2 }
                        .encode_to_vec();
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// Outcome of a [`run_chaos`] campaign.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Number of fault scenarios executed.
    pub scenarios: u64,
    /// Scenarios where the executor reported a typed [`crate::EngineError`]
    /// (acceptable: fail-closed degradation, not a failure).
    pub engine_errors: u64,
    /// Scenarios where the engine panicked (always a failure).
    pub panics: u64,
    /// Human-readable invariant violations (panics, leaked tuples).
    pub violations: Vec<String>,
    /// Every scenario's injector absorbed: the faults injected across the
    /// campaign.
    pub faults: FaultInjector,
}

impl ChaosReport {
    /// True when every scenario upheld both invariants.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.panics == 0 && self.violations.is_empty()
    }

    /// One-line summary for harness output.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} scenarios, {} faults injected, {} engine errors, {} panics, {} violations",
            self.scenarios,
            self.faults.total(),
            self.engine_errors,
            self.panics,
            self.violations.len()
        )
    }
}

fn released_keys(sink: &Sink) -> HashSet<String> {
    sink.tuples().map(|t| t.to_string()).collect()
}

/// Runs `scenarios` seeded fault scenarios of the plan produced by
/// `build` over `input`, checking the degradation invariants.
///
/// `build` must return a fresh builder (and the sinks to audit) each call
/// — operators hold state, so every scenario needs its own plan instance.
/// Scenario `s` uses [`FaultSchedule::stream`] derived from `base_seed`
/// and `s`; the whole campaign is reproducible from `base_seed`.
///
/// Invariants checked per scenario:
///
/// 1. **No panics** — the engine must survive arbitrary drop / duplicate
///    / delay / reorder perturbations of its input.
/// 2. **Fail closed** — for every sink, the released tuple set under
///    faults must be a subset of the clean run's released set.
pub fn run_chaos<B>(
    input: &[(StreamId, StreamElement)],
    scenarios: u64,
    base_seed: u64,
    mut build: B,
) -> ChaosReport
where
    B: FnMut() -> (PlanBuilder, Vec<SinkRef>),
{
    let mut report = ChaosReport { scenarios, ..ChaosReport::default() };

    // Fault-free baseline.
    let (builder, sink_refs) = build();
    let mut exec = builder.build();
    if let Err(e) = exec.push_all(input.iter().cloned()) {
        report.violations.push(format!("baseline run failed: {e}"));
        return report;
    }
    let baseline: Vec<HashSet<String>> =
        sink_refs.iter().map(|r| released_keys(exec.sink(*r))).collect();

    for s in 0..scenarios {
        let plan = FaultSchedule::stream(base_seed ^ (s.wrapping_mul(0x0123_4567_89AB_CDEF) | s));
        let mut injector = FaultInjector::new(plan);
        let faulty = injector.apply(input);
        report.faults.absorb(&injector);

        let (builder, sink_refs) = build();
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            let mut exec = builder.build();
            let err = exec.push_all(faulty).err();
            let sets: Vec<HashSet<String>> =
                sink_refs.iter().map(|r| released_keys(exec.sink(*r))).collect();
            (err, sets)
        }));
        match outcome {
            Err(_) => {
                report.panics += 1;
                report.violations.push(format!("scenario {s}: engine panicked"));
            }
            Ok((err, sets)) => {
                if err.is_some() {
                    report.engine_errors += 1;
                }
                for (i, set) in sets.iter().enumerate() {
                    if !set.is_subset(&baseline[i]) {
                        let mut leaked: Vec<&String> = set.difference(&baseline[i]).collect();
                        leaked.sort();
                        leaked.truncate(3);
                        report.violations.push(format!(
                            "scenario {s} sink {i}: {} tuple(s) released that the \
                             fault-free run withheld, e.g. {leaked:?}",
                            set.difference(&baseline[i]).count(),
                        ));
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{RoleSet, SecurityPunctuation, Timestamp, Tuple, TupleId, Value};

    fn sp(ts: u64) -> (StreamId, StreamElement) {
        (
            StreamId(1),
            StreamElement::punctuation(SecurityPunctuation::grant_all(
                RoleSet::from([1]),
                Timestamp(ts),
            )),
        )
    }

    fn tup(tid: u64, ts: u64) -> (StreamId, StreamElement) {
        (
            StreamId(1),
            StreamElement::tuple(Tuple::new(
                StreamId(1),
                TupleId(tid),
                Timestamp(ts),
                vec![Value::Int(tid as i64)],
            )),
        )
    }

    fn recorded(n: u64) -> Vec<(StreamId, StreamElement)> {
        let mut input = Vec::new();
        for seg in 0..n {
            let base = seg * 100;
            input.push(sp(base));
            for k in 1..=4 {
                input.push(tup(seg * 10 + k, base + k));
            }
        }
        input
    }

    #[test]
    fn identity_plan_is_identity() {
        let input = recorded(5);
        let mut inj = FaultInjector::new(FaultSchedule::none(7));
        let out = inj.apply(&input);
        assert_eq!(out.len(), input.len());
        assert_eq!(inj.total(), 0);
    }

    #[test]
    fn same_seed_same_perturbation() {
        let input = recorded(10);
        let plan = FaultSchedule::stream(42);
        let a = FaultInjector::new(plan).apply(&input);
        let mut second = FaultInjector::new(plan);
        let b = second.apply(&input);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            match (&x.1, &y.1) {
                (StreamElement::Tuple(t), StreamElement::Tuple(u)) => assert_eq!(t, u),
                (StreamElement::Punctuation(p), StreamElement::Punctuation(q)) => {
                    assert_eq!(p.ts, q.ts);
                }
                _ => panic!("same seed diverged"),
            }
        }
        assert!(second.total() > 0, "scenario plans inject faults");
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(FaultSchedule::stream(1), FaultSchedule::stream(2));
    }

    #[test]
    fn drop_all_sps_drops_only_sps() {
        let input = recorded(6);
        let sps =
            input.iter().filter(|(_, e)| matches!(e, StreamElement::Punctuation(_))).count() as u64;
        let plan = FaultSchedule::none(3).with(Fault::DropSp, 1.0, 0);
        let mut inj = FaultInjector::new(plan);
        let out = inj.apply(&input);
        assert_eq!(inj.count(Fault::DropSp), sps);
        assert_eq!(inj.count(Fault::DropTuple), 0);
        assert!(out.iter().all(|(_, e)| matches!(e, StreamElement::Tuple(_))));
    }

    #[test]
    fn duplicates_arrive_adjacent() {
        let input = recorded(4);
        let plan = FaultSchedule::none(9).with(Fault::DupTuple, 1.0, 0);
        let mut inj = FaultInjector::new(plan);
        let out = inj.apply(&input);
        let sp_count =
            input.iter().filter(|(_, e)| matches!(e, StreamElement::Punctuation(_))).count();
        let tuples = input.len() - sp_count;
        assert_eq!(out.len(), input.len() + tuples);
        assert_eq!(inj.count(Fault::DupTuple) as usize, tuples);
        // Every tuple is immediately followed by its duplicate.
        let mut i = 0;
        while i < out.len() {
            if let StreamElement::Tuple(t) = &out[i].1 {
                match &out[i + 1].1 {
                    StreamElement::Tuple(u) => assert_eq!(t, u),
                    StreamElement::Punctuation(_) => panic!("duplicate not adjacent"),
                }
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    #[test]
    fn reorder_displacement_is_bounded() {
        let input = recorded(8);
        let plan = FaultSchedule::none(17).with(Fault::Reorder, 0.5, 3);
        let mut inj = FaultInjector::new(plan);
        let out = inj.apply(&input);
        assert_eq!(out.len(), input.len());
        assert!(inj.count(Fault::Reorder) > 0);
        // Conservation: same multiset of timestamps.
        let ts_of = |e: &StreamElement| match e {
            StreamElement::Tuple(t) => t.ts.0,
            StreamElement::Punctuation(p) => p.ts.0,
        };
        let mut a: Vec<u64> = input.iter().map(|(_, e)| ts_of(e)).collect();
        let mut b: Vec<u64> = out.iter().map(|(_, e)| ts_of(e)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn delay_and_reorder_move_each_element_at_most_window() {
        let input = recorded(8);
        let ts_of = |e: &StreamElement| match e {
            StreamElement::Tuple(t) => t.ts.0,
            StreamElement::Punctuation(p) => p.ts.0,
        };
        for fault in [Fault::DelaySp, Fault::Reorder] {
            for seed in 0..200 {
                let plan = FaultSchedule::none(seed).with(fault, 0.5, 3);
                let out = FaultInjector::new(plan).apply(&input);
                assert_eq!(out.len(), input.len());
                for (at, (_, e)) in out.iter().enumerate() {
                    let from = input.iter().position(|(_, o)| ts_of(o) == ts_of(e)).unwrap();
                    assert!(
                        at.abs_diff(from) <= 3,
                        "{fault:?} seed {seed}: element {from} ended at {at}, window 3"
                    );
                }
            }
        }
    }

    #[test]
    fn bursts_replay_tuples_only_and_count() {
        let input = recorded(6);
        let plan = FaultSchedule::none(11).with(Fault::Burst, 1.0, 3);
        let mut inj = FaultInjector::new(plan);
        let out = inj.apply(&input);
        assert!(inj.count(Fault::Burst) > 0);
        // Every input tuple id is distinct, so each repeat is a replay.
        let mut seen = std::collections::HashSet::new();
        let burst_tuples = out
            .iter()
            .filter(|(_, e)| matches!(e, StreamElement::Tuple(t) if !seen.insert(t.tid.raw())))
            .count();
        assert_eq!(out.len(), input.len() + burst_tuples);
        // Bursts only replay existing tuples: the set of distinct tuple
        // ids and the sp count are unchanged.
        let ids = |v: &[(StreamId, StreamElement)]| {
            v.iter()
                .filter_map(|(_, e)| match e {
                    StreamElement::Tuple(t) => Some(t.tid.raw()),
                    StreamElement::Punctuation(_) => None,
                })
                .collect::<std::collections::HashSet<u64>>()
        };
        assert_eq!(ids(&input), ids(&out));
        let sps = |v: &[(StreamId, StreamElement)]| {
            v.iter().filter(|(_, e)| matches!(e, StreamElement::Punctuation(_))).count()
        };
        assert_eq!(sps(&input), sps(&out), "bursts never touch sps");
    }

    #[test]
    fn stalls_displace_blocks_conserving_the_multiset() {
        let input = recorded(8);
        let plan = FaultSchedule::none(13).with(Fault::Stall, 0.4, 4);
        let mut inj = FaultInjector::new(plan);
        let out = inj.apply(&input);
        assert_eq!(out.len(), input.len());
        assert!(inj.count(Fault::Stall) > 0);
        let ts_of = |e: &StreamElement| match e {
            StreamElement::Tuple(t) => t.ts.0,
            StreamElement::Punctuation(p) => p.ts.0,
        };
        let mut a: Vec<u64> = input.iter().map(|(_, e)| ts_of(e)).collect();
        let mut b: Vec<u64> = out.iter().map(|(_, e)| ts_of(e)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_ne!(
            input.iter().map(|(_, e)| ts_of(e)).collect::<Vec<_>>(),
            out.iter().map(|(_, e)| ts_of(e)).collect::<Vec<_>>(),
            "stalls displaced something"
        );
    }

    fn delivered(events: &[SocketEvent]) -> Vec<u8> {
        events
            .iter()
            .filter_map(|e| match e {
                SocketEvent::Deliver(c) => Some(c.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn socket_none_plan_delivers_verbatim() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let mut inj = FaultInjector::new(FaultSchedule::none(5));
        let events = inj.deliver(&bytes);
        assert_eq!(events, vec![SocketEvent::Deliver(bytes)]);
        assert_eq!(inj.count(Fault::Tear), 0);
        assert_eq!(inj.count(Fault::Disconnect), 0);
    }

    #[test]
    fn socket_scenario_is_deterministic() {
        let bytes: Vec<u8> = (0..512u16).map(|b| b as u8).collect();
        let plan = FaultSchedule::socket(77);
        let a = FaultInjector::new(plan).deliver(&bytes);
        let b = FaultInjector::new(plan).deliver(&bytes);
        assert_eq!(a, b);
    }

    #[test]
    fn socket_tearing_conserves_payload_bytes() {
        let bytes: Vec<u8> = (0..2048u16).map(|b| b as u8).collect();
        let plan = FaultSchedule::none(13).with(Fault::Tear, 0.0, 7).with(Fault::Stall, 0.1, 3);
        let mut inj = FaultInjector::new(plan);
        let events = inj.deliver(&bytes);
        assert_eq!(delivered(&events), bytes, "tearing must not lose or reorder payload");
        let chunks = events.iter().filter(|e| matches!(e, SocketEvent::Deliver(_))).count();
        assert!(chunks > 100);
        assert_eq!(inj.count(Fault::Tear), chunks as u64 - 1, "every chunk but the last tears");
        assert!(inj.count(Fault::Stall) > 0);
    }

    #[test]
    fn socket_disconnect_drops_the_tail_and_counts_it() {
        let bytes = vec![0xABu8; 4096];
        let plan =
            FaultSchedule::none(21).with(Fault::Tear, 0.0, 16).with(Fault::Disconnect, 0.05, 0);
        let mut inj = FaultInjector::new(plan);
        let events = inj.deliver(&bytes);
        assert_eq!(events.last(), Some(&SocketEvent::Disconnect));
        let got = delivered(&events);
        assert!(got.len() < bytes.len(), "the disconnect dropped the tail");
        assert_eq!(got, bytes[..got.len()], "what arrived is a prefix");
        assert_eq!(inj.count(Fault::Disconnect), 1);
    }

    #[test]
    fn socket_garbage_rides_between_chunks() {
        let bytes = vec![0x11u8; 256];
        let plan = FaultSchedule::none(31).with(Fault::Tear, 0.0, 8).with(Fault::Garbage, 0.5, 4);
        let mut inj = FaultInjector::new(plan);
        let events = inj.deliver(&bytes);
        let total = delivered(&events).len();
        assert!(inj.count(Fault::Garbage) > 0);
        assert_eq!(total as u64, 256 + inj.count(Fault::Garbage));
    }

    #[test]
    fn corruption_flips_counted_bytes() {
        let plan = FaultSchedule::none(23).with(Fault::Corrupt, 0.5, 0);
        let mut inj = FaultInjector::new(plan);
        let clean: Vec<u8> = (0..200u16).map(|b| b as u8).collect();
        let mut bytes = clean.clone();
        inj.corrupt(&mut bytes);
        let flipped = clean.iter().zip(&bytes).filter(|(a, b)| a != b).count() as u64;
        assert!(flipped > 0);
        assert_eq!(flipped, inj.count(Fault::Corrupt));
    }

    // -- replication-link faults --------------------------------------

    fn link_frames(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| i.to_be_bytes().to_vec()).collect()
    }

    fn run_link(plan: FaultSchedule, frames: &[Vec<u8>]) -> (Vec<Vec<u8>>, FaultInjector) {
        let mut inj = FaultInjector::new(plan);
        let mut out = Vec::new();
        for f in frames {
            out.extend(inj.offer(f));
        }
        out.extend(inj.drain());
        (out, inj)
    }

    #[test]
    fn quiet_link_delivers_exactly_once_in_order() {
        let frames = link_frames(64);
        let (out, inj) = run_link(FaultSchedule::none(7), &frames);
        assert_eq!(out, frames);
        assert_eq!(inj.total(), 0);
    }

    #[test]
    fn link_script_is_deterministic_per_seed() {
        let frames = link_frames(256);
        let plan = FaultSchedule::link(42);
        assert_eq!(plan, FaultSchedule::link(42));
        let (a, sa) = run_link(plan, &frames);
        let (b, sb) = run_link(plan, &frames);
        assert_eq!(a, b);
        assert_eq!(sa.counts, sb.counts);
        let (c, _) = run_link(FaultSchedule::link(43), &frames);
        assert_ne!(a, c, "different seeds must script different links");
    }

    #[test]
    fn hostile_link_accounts_for_every_frame() {
        let frames = link_frames(512);
        let plan = FaultSchedule::none(9)
            .with(Fault::Partition, 0.05, 3)
            .with(Fault::Lag, 0.2, 4)
            .with(Fault::Duplicate, 0.1, 0);
        let (out, inj) = run_link(plan, &frames);
        let partitioned = inj.count(Fault::Partition);
        let duplicated = inj.count(Fault::Duplicate);
        assert!(partitioned > 0, "partitions must fire at 5%/512");
        assert!(inj.count(Fault::Lag) > 0);
        assert!(duplicated > 0);
        // Conservation: every offered frame is either delivered (at
        // least once) or swallowed by a partition; drain leaves nothing.
        assert_eq!(out.len() as u64, 512 - partitioned + duplicated);
        // Nothing is fabricated: every delivery is a frame we offered.
        for f in &out {
            assert!(frames.contains(f));
        }
    }

    #[test]
    fn dark_link_swallows_from_its_frame_on_with_held_frames() {
        let frames = link_frames(64);
        let plan = FaultSchedule::none(5).with(Fault::Lag, 1.0, 3).with(Fault::Dark, 0.0, 10);
        let mut inj = FaultInjector::new(plan);
        let mut out = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(inj.dark(), i >= 10);
            out.extend(inj.offer(f));
        }
        out.extend(inj.drain());
        assert_eq!(inj.count(Fault::Dark), 54);
        assert!(out.len() < 10, "lagged frames still held at frame 10 die with the link");
        assert!(out.iter().all(|f| frames[..10].contains(f)));
    }

    // -- ciphertext faults --------------------------------------------

    fn cipher_frames(segments: u64, per_seg: u32) -> Vec<Vec<u8>> {
        use sp_core::crypto::KeyCapsule;
        let mut frames = Vec::new();
        for seg in 0..segments {
            frames.push(
                CipherFrame::Header {
                    stream: 1,
                    seg,
                    key_epoch: 2,
                    sp_ts: seg * 100,
                    capsules: vec![KeyCapsule { role: 0, wrapped: vec![seg as u8; 48] }],
                }
                .encode_to_vec(),
            );
            for idx in 0..per_seg {
                frames.push(
                    CipherFrame::Data { stream: 1, seg, idx, sealed: vec![idx as u8 ^ 0x5A; 32] }
                        .encode_to_vec(),
                );
            }
            frames.push(
                CipherFrame::Digest {
                    stream: 1,
                    seg,
                    count: per_seg,
                    sealed_digest: vec![0xD1; 48],
                }
                .encode_to_vec(),
            );
            frames.push(CipherFrame::Terminator { stream: 1, seg }.encode_to_vec());
        }
        frames
    }

    #[test]
    fn cipher_none_plan_is_identity() {
        let frames = cipher_frames(4, 3);
        let mut inj = FaultInjector::new(FaultSchedule::none(7));
        let out = inj.forward(&frames);
        assert_eq!(out, frames);
        assert_eq!(inj.total(), 0);
    }

    #[test]
    fn cipher_scenario_is_deterministic_and_injects() {
        let frames = cipher_frames(16, 4);
        let plan = FaultSchedule::cipher(42);
        assert_eq!(plan, FaultSchedule::cipher(42));
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        assert_eq!(a.forward(&frames), b.forward(&frames));
        assert_eq!(a.counts, b.counts);
        assert!(a.total() > 0, "scenario plans attack something");
        let mut c = FaultInjector::new(FaultSchedule::cipher(43));
        assert_ne!(a.forward(&frames), c.forward(&frames));
    }

    #[test]
    fn cipher_mutations_keep_valid_envelopes() {
        // A malicious forwarder recomputes the CRC: every delivered
        // frame must still decode at the envelope level.
        let frames = cipher_frames(12, 4);
        let plan = FaultSchedule::none(5)
            .with(Fault::FlipCt, 0.5, 0)
            .with(Fault::Truncate, 0.3, 0)
            .with(Fault::ReplaySegment, 0.5, 0)
            .with(Fault::SwapNonce, 0.5, 0)
            .with(Fault::StaleEpoch, 0.5, 0);
        let mut inj = FaultInjector::new(plan);
        let out = inj.forward(&frames);
        for f in &out {
            CipherFrame::decode_frame(f).expect("mutated frame still framed correctly");
        }
        assert!(inj.count(Fault::FlipCt) > 0);
        assert!(inj.count(Fault::ReplaySegment) > 0);
        assert!(inj.count(Fault::SwapNonce) > 0);
        assert!(inj.count(Fault::StaleEpoch) > 0);
    }

    #[test]
    fn cipher_digest_drops_target_digests_only() {
        let frames = cipher_frames(10, 3);
        let plan = FaultSchedule::none(3).with(Fault::DropDigest, 1.0, 0);
        let mut inj = FaultInjector::new(plan);
        let out = inj.forward(&frames);
        assert_eq!(inj.count(Fault::DropDigest), 10);
        assert_eq!(out.len(), frames.len() - 10);
        for f in &out {
            assert!(!matches!(CipherFrame::decode_frame(f), Ok(CipherFrame::Digest { .. })));
        }
    }

    #[test]
    fn lagged_frames_are_reordered_not_lost() {
        let frames = link_frames(128);
        let plan = FaultSchedule::none(5).with(Fault::Lag, 1.0, 3);
        let (out, inj) = run_link(plan, &frames);
        assert_eq!(out.len(), 128, "lag reorders, never drops");
        assert_eq!(inj.count(Fault::Lag), 128);
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(sorted, frames);
        assert_ne!(out, frames, "all-lagged delivery must reorder something");
    }

    // -- pinned perturbations ------------------------------------------

    /// A perturbation's output bytes and its fault counters.
    type Pinned = (Vec<u8>, Vec<u64>);

    fn counts(inj: &FaultInjector, kinds: &[Fault]) -> Vec<u64> {
        kinds.iter().map(|&f| inj.count(f)).collect()
    }

    fn digest_counts(counts: &[u64]) -> u32 {
        sp_core::wire::crc32(&counts.iter().flat_map(|c| c.to_be_bytes()).collect::<Vec<u8>>())
    }

    /// Output bytes and fault counters of one element-stream schedule:
    /// `apply` over `input`, then `corrupt` over a fixed buffer.
    fn pin_stream(plan: FaultSchedule, input: &[(StreamId, StreamElement)]) -> Pinned {
        let mut inj = FaultInjector::new(plan);
        let mut bytes = Vec::new();
        for (sid, e) in inj.apply(input) {
            bytes.extend(sid.0.to_be_bytes());
            match e {
                StreamElement::Tuple(t) => {
                    bytes.push(0);
                    bytes.extend(t.tid.raw().to_be_bytes());
                }
                StreamElement::Punctuation(p) => {
                    bytes.push(1);
                    bytes.extend(p.ts.0.to_be_bytes());
                }
            }
        }
        let mut buf: Vec<u8> = (0..200u16).map(|b| b as u8).collect();
        inj.corrupt(&mut buf);
        bytes.extend(buf);
        let kinds = [
            Fault::DropSp,
            Fault::DropTuple,
            Fault::DupSp,
            Fault::DupTuple,
            Fault::DelaySp,
            Fault::Reorder,
            Fault::Corrupt,
            Fault::Burst,
            Fault::Stall,
        ];
        (bytes, counts(&inj, &kinds))
    }

    /// Delivery script of one socket schedule over three payloads on one
    /// injector (a connection across reconnects).
    fn pin_socket(plan: FaultSchedule, payload: &[u8]) -> Pinned {
        let mut inj = FaultInjector::new(plan);
        let mut bytes = Vec::new();
        for _ in 0..3 {
            for ev in inj.deliver(payload) {
                match ev {
                    SocketEvent::Deliver(c) => {
                        bytes.push(0);
                        bytes.extend((c.len() as u64).to_be_bytes());
                        bytes.extend(c);
                    }
                    SocketEvent::StallMs(ms) => {
                        bytes.push(1);
                        bytes.extend(ms.to_be_bytes());
                    }
                    SocketEvent::Disconnect => bytes.push(2),
                }
            }
        }
        let kinds = [Fault::Garbage, Fault::Corrupt, Fault::Stall, Fault::Disconnect];
        (bytes, counts(&inj, &kinds))
    }

    /// What comes out of one link schedule, offer by offer, then drained.
    fn pin_link(plan: FaultSchedule, frames: &[Vec<u8>]) -> Pinned {
        let mut inj = FaultInjector::new(plan);
        let mut bytes = Vec::new();
        for f in frames {
            let out = inj.offer(f);
            bytes.extend((out.len() as u64).to_be_bytes());
            out.into_iter().for_each(|o| bytes.extend(o));
        }
        inj.drain().into_iter().for_each(|o| bytes.extend(o));
        (bytes, counts(&inj, &[Fault::Partition, Fault::Lag, Fault::Duplicate]))
    }

    /// What one hostile forwarder schedule delivers.
    fn pin_cipher(plan: FaultSchedule, frames: &[Vec<u8>]) -> Pinned {
        let mut inj = FaultInjector::new(plan);
        let mut bytes = Vec::new();
        for f in inj.forward(frames) {
            bytes.extend((f.len() as u64).to_be_bytes());
            bytes.extend(f);
        }
        let kinds = [
            Fault::FlipCt,
            Fault::Truncate,
            Fault::DropFrame,
            Fault::DropDigest,
            Fault::ReplaySegment,
            Fault::SwapNonce,
            Fault::StaleEpoch,
        ];
        (bytes, counts(&inj, &kinds))
    }

    /// Every perturbation this module makes, digested: each boundary's
    /// scenarios for seeds 0..32 (folded into one digest per boundary)
    /// and every hand-built schedule of the tests above. A change that
    /// moves one byte of any delivery, or one counter, fails here.
    #[test]
    fn perturbations_are_pinned() {
        let bytes: Vec<u8> = (0..2048u16).map(|b| b as u8).collect();
        let mut cases: Vec<(&str, Pinned)> = Vec::new();
        let fold = |runs: Vec<Pinned>| {
            runs.into_iter().fold((Vec::new(), Vec::new()), |(mut b, mut c), (rb, rc)| {
                b.extend(rb);
                c.extend(rc);
                (b, c)
            })
        };
        let stream_seeds = (0..32).map(|s| pin_stream(FaultSchedule::stream(s), &recorded(10)));
        cases.push(("stream/scenario", fold(stream_seeds.collect())));
        cases.push(("stream/scenario42", pin_stream(FaultSchedule::stream(42), &recorded(10))));
        cases.push(("stream/none", pin_stream(FaultSchedule::none(7), &recorded(5))));
        let drop_sp = FaultSchedule::none(3).with(Fault::DropSp, 1.0, 0);
        cases.push(("stream/drop_sp", pin_stream(drop_sp, &recorded(6))));
        let dup_tuple = FaultSchedule::none(9).with(Fault::DupTuple, 1.0, 0);
        cases.push(("stream/dup_tuple", pin_stream(dup_tuple, &recorded(4))));
        let reorder = FaultSchedule::none(17).with(Fault::Reorder, 0.5, 3);
        cases.push(("stream/reorder", pin_stream(reorder, &recorded(8))));
        let burst = FaultSchedule::none(11).with(Fault::Burst, 1.0, 3);
        cases.push(("stream/burst", pin_stream(burst, &recorded(6))));
        let stall = FaultSchedule::none(13).with(Fault::Stall, 0.4, 4);
        cases.push(("stream/stall", pin_stream(stall, &recorded(8))));
        let corrupt = FaultSchedule::none(23).with(Fault::Corrupt, 0.5, 0);
        cases.push(("stream/corrupt", pin_stream(corrupt, &recorded(2))));

        let socket_seeds = (0..32).map(|s| pin_socket(FaultSchedule::socket(s), &bytes));
        cases.push(("socket/scenario", fold(socket_seeds.collect())));
        cases.push(("socket/scenario77", pin_socket(FaultSchedule::socket(77), &bytes[..512])));
        cases.push(("socket/none", pin_socket(FaultSchedule::none(5), &bytes[..256])));
        let tear = FaultSchedule::none(13).with(Fault::Tear, 0.0, 7).with(Fault::Stall, 0.1, 3);
        cases.push(("socket/tear_stall", pin_socket(tear, &bytes)));
        let cut =
            FaultSchedule::none(21).with(Fault::Tear, 0.0, 16).with(Fault::Disconnect, 0.05, 0);
        cases.push(("socket/disconnect", pin_socket(cut, &[0xAB; 4096])));
        let garbage =
            FaultSchedule::none(31).with(Fault::Tear, 0.0, 8).with(Fault::Garbage, 0.5, 4);
        cases.push(("socket/garbage", pin_socket(garbage, &[0x11; 256])));

        let link_seeds = (0..32).map(|s| pin_link(FaultSchedule::link(s), &link_frames(256)));
        cases.push(("link/scenario", fold(link_seeds.collect())));
        cases.push(("link/none", pin_link(FaultSchedule::none(7), &link_frames(64))));
        let hostile = FaultSchedule::none(9)
            .with(Fault::Partition, 0.05, 3)
            .with(Fault::Lag, 0.2, 4)
            .with(Fault::Duplicate, 0.1, 0);
        cases.push(("link/hostile", pin_link(hostile, &link_frames(512))));
        let lag = FaultSchedule::none(5).with(Fault::Lag, 1.0, 3);
        cases.push(("link/lag", pin_link(lag, &link_frames(128))));

        let frames = cipher_frames(16, 4);
        let cipher_seeds = (0..32).map(|s| pin_cipher(FaultSchedule::cipher(s), &frames));
        cases.push(("cipher/scenario", fold(cipher_seeds.collect())));
        cases.push(("cipher/none", pin_cipher(FaultSchedule::none(7), &cipher_frames(4, 3))));
        let mutations = FaultSchedule::none(5)
            .with(Fault::FlipCt, 0.5, 0)
            .with(Fault::Truncate, 0.3, 0)
            .with(Fault::ReplaySegment, 0.5, 0)
            .with(Fault::SwapNonce, 0.5, 0)
            .with(Fault::StaleEpoch, 0.5, 0);
        cases.push(("cipher/mutations", pin_cipher(mutations, &cipher_frames(12, 4))));
        let digests = FaultSchedule::none(3).with(Fault::DropDigest, 1.0, 0);
        cases.push(("cipher/drop_digest", pin_cipher(digests, &cipher_frames(10, 3))));

        let got: Vec<(&str, u32, u32, u64)> = cases
            .iter()
            .map(|(name, (b, c))| {
                (*name, sp_core::wire::crc32(b), digest_counts(c), c.iter().sum())
            })
            .collect();
        // (case, output digest, counter digest, counter total)
        let want: &[(&str, u32, u32, u64)] = &[
            ("stream/scenario", 2007963293, 1862114871, 808),
            ("stream/scenario42", 881898528, 676600024, 29),
            ("stream/none", 1592159459, 264420178, 0),
            ("stream/drop_sp", 3666765297, 3143457156, 6),
            ("stream/dup_tuple", 908865189, 1429439306, 16),
            ("stream/reorder", 1704980243, 3954715094, 26),
            ("stream/burst", 639357050, 3925231686, 12),
            ("stream/stall", 3135556479, 3869318759, 6),
            ("stream/corrupt", 2672352636, 496068737, 105),
            ("socket/scenario", 318828118, 1711928152, 2831),
            ("socket/scenario77", 11768297, 2673906953, 11),
            ("socket/none", 2162364676, 420107693, 0),
            ("socket/tear_stall", 3183943602, 1749529995, 152),
            ("socket/disconnect", 1377886367, 2147681303, 3),
            ("socket/garbage", 894387398, 2257452126, 201),
            ("link/scenario", 2819982165, 390926362, 2298),
            ("link/none", 1925740533, 2747386400, 0),
            ("link/hostile", 1127099104, 951033754, 188),
            ("link/lag", 816831357, 3314862703, 128),
            ("cipher/scenario", 232463018, 311016022, 609),
            ("cipher/none", 912311774, 3553142089, 0),
            ("cipher/mutations", 2541794135, 1507462819, 64),
            ("cipher/drop_digest", 1869875284, 1873088675, 10),
        ];
        assert_eq!(got, want, "perturbation digests moved");
    }
}
