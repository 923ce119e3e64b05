//! Security-aware overload management: degradation ladder, semantic load
//! shedding, classed (control/data) bounded queues, and admission control.
//!
//! Under overload a streaming engine must drop *something*. The invariant
//! this module enforces is that it never drops — or delays past slack, or
//! reorders — **security punctuations**: sps are lossless control traffic
//! at every layer, while data tuples are the only sheddable class. Shedding
//! data can only ever *under*-release (the released set of a shedded run is
//! a subset of the unloaded run's), and the analyzer's end-of-run policy
//! table stays byte-identical because every sp still flows through in
//! order.
//!
//! Four cooperating pieces:
//!
//! - [`DegradationLadder`]: a watermark controller with hysteresis that
//!   maps queue occupancy to an [`OverloadLevel`] — `Normal` →
//!   `Shedding` → `CriticalShedding` → `FailClosed` — and records every
//!   transition for observability.
//! - [`Shedder`]: an in-plan operator that models its downstream queue as
//!   a deterministic virtual queue (filled by admitted tuples, drained by
//!   stream-time progress) and sheds data tuples per a pluggable
//!   [`ShedPolicy`] when the ladder escalates. Policies pass through
//!   untouched at every level, including `FailClosed`.
//! - [`classed_channel`]: a two-class bounded queue for the parallel
//!   runtime where control traffic (punctuations) is always
//!   enqueueable and only data admission is bounded, so a stuffed
//!   pipe can never block an sp behind data backpressure.
//! - [`AdmissionController`]: a per-session token bucket at the ingestion
//!   boundary with burst allowance and deadline-based debt, surfacing
//!   typed [`EngineError::Overloaded`] errors with a `retry_after` hint.
//!
//! Everything is driven by *stream time*, never wall clock, so overload
//! behaviour is deterministic and replayable — the property the
//! `overload_props` test suite leans on.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

use bytes::Buf;
use sp_core::{SplitMix64, StreamId, Timestamp, Tuple};

use crate::checkpoint as ckpt;
use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::slack::Slack;
use crate::stats::{DegradationStats, OperatorStats};

/// How degraded the engine currently is. Levels are ordered: escalation
/// moves right, recovery moves left, one rung at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OverloadLevel {
    /// No shedding; every admitted element flows.
    #[default]
    Normal,
    /// The configured [`ShedPolicy`] decides which data tuples to drop.
    Shedding,
    /// Only tuples some query could see (their governing policy is not
    /// deny-all) pass; everything else is shed.
    CriticalShedding,
    /// All data is refused; security punctuations are still absorbed so
    /// policy state keeps advancing and recovery starts warm.
    FailClosed,
}

impl OverloadLevel {
    /// Stable numeric code (`Normal` = 0 … `FailClosed` = 3) used in
    /// snapshots and [`DegradationStats::overload_level`].
    #[must_use]
    pub const fn code(self) -> u8 {
        match self {
            Self::Normal => 0,
            Self::Shedding => 1,
            Self::CriticalShedding => 2,
            Self::FailClosed => 3,
        }
    }

    /// Inverse of [`OverloadLevel::code`].
    ///
    /// # Errors
    ///
    /// Fails on codes above 3.
    pub fn from_code(code: u8) -> Result<Self, String> {
        match code {
            0 => Ok(Self::Normal),
            1 => Ok(Self::Shedding),
            2 => Ok(Self::CriticalShedding),
            3 => Ok(Self::FailClosed),
            other => Err(format!("bad overload level code {other}")),
        }
    }

    /// Short display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Normal => "Normal",
            Self::Shedding => "Shedding",
            Self::CriticalShedding => "CriticalShedding",
            Self::FailClosed => "FailClosed",
        }
    }

    fn up(self) -> Option<Self> {
        match self {
            Self::Normal => Some(Self::Shedding),
            Self::Shedding => Some(Self::CriticalShedding),
            Self::CriticalShedding => Some(Self::FailClosed),
            Self::FailClosed => None,
        }
    }

    fn down(self) -> Option<Self> {
        match self {
            Self::Normal => None,
            Self::Shedding => Some(Self::Normal),
            Self::CriticalShedding => Some(Self::Shedding),
            Self::FailClosed => Some(Self::CriticalShedding),
        }
    }
}

impl fmt::Display for OverloadLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Occupancy watermarks (percent of queue capacity) that drive the
/// [`DegradationLadder`].
///
/// Each rung has a *high* watermark that triggers escalation into it and a
/// *low* watermark that must be crossed downward before recovering out of
/// it. Keeping `low < high` gives hysteresis: the ladder does not flap
/// when occupancy oscillates around a single threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatermarkConfig {
    /// Escalate `Normal` → `Shedding` at or above this occupancy.
    pub shed_high: u64,
    /// Recover `Shedding` → `Normal` at or below this occupancy.
    pub shed_low: u64,
    /// Escalate `Shedding` → `CriticalShedding` at or above.
    pub critical_high: u64,
    /// Recover `CriticalShedding` → `Shedding` at or below.
    pub critical_low: u64,
    /// Escalate `CriticalShedding` → `FailClosed` at or above.
    pub fail_high: u64,
    /// Recover `FailClosed` → `CriticalShedding` at or below.
    pub fail_low: u64,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        Self {
            shed_high: 60,
            shed_low: 35,
            critical_high: 80,
            critical_low: 55,
            fail_high: 95,
            fail_low: 70,
        }
    }
}

impl WatermarkConfig {
    fn high_into(self, level: OverloadLevel) -> u64 {
        match level {
            OverloadLevel::Normal => 0,
            OverloadLevel::Shedding => self.shed_high,
            OverloadLevel::CriticalShedding => self.critical_high,
            OverloadLevel::FailClosed => self.fail_high,
        }
    }

    fn low_out_of(self, level: OverloadLevel) -> u64 {
        match level {
            OverloadLevel::Normal => 0,
            OverloadLevel::Shedding => self.shed_low,
            OverloadLevel::CriticalShedding => self.critical_low,
            OverloadLevel::FailClosed => self.fail_low,
        }
    }
}

/// One recorded ladder transition, kept for observability and asserted on
/// by the chaos suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderTransition {
    /// Level before the transition.
    pub from: OverloadLevel,
    /// Level after the transition.
    pub to: OverloadLevel,
    /// Stream time at which the transition fired.
    pub at: Timestamp,
    /// Queue occupancy (percent) that triggered it.
    pub occupancy_pct: u64,
}

impl fmt::Display for LadderTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ladder {}->{} at {} ({}% full)", self.from, self.to, self.at, self.occupancy_pct)
    }
}

/// Upper bound on recorded transitions; beyond it only the counters keep
/// counting, so a flapping ladder cannot grow memory without bound.
pub const MAX_RECORDED_TRANSITIONS: usize = 256;

/// Hysteresis watermark controller mapping queue occupancy to an
/// [`OverloadLevel`].
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    cfg: WatermarkConfig,
    level: OverloadLevel,
    peak: OverloadLevel,
    escalations: u64,
    recoveries: u64,
    transitions: Vec<LadderTransition>,
}

impl DegradationLadder {
    /// A ladder at `Normal` with the given watermarks.
    #[must_use]
    pub fn new(cfg: WatermarkConfig) -> Self {
        Self {
            cfg,
            level: OverloadLevel::Normal,
            peak: OverloadLevel::Normal,
            escalations: 0,
            recoveries: 0,
            transitions: Vec::new(),
        }
    }

    /// Current level.
    #[must_use]
    pub fn level(&self) -> OverloadLevel {
        self.level
    }

    /// Highest level ever reached.
    #[must_use]
    pub fn peak(&self) -> OverloadLevel {
        self.peak
    }

    /// Number of upward transitions.
    #[must_use]
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Number of downward transitions.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Recorded transitions (capped at [`MAX_RECORDED_TRANSITIONS`]).
    #[must_use]
    pub fn transitions(&self) -> &[LadderTransition] {
        &self.transitions
    }

    /// Feeds one occupancy observation (percent of capacity) at stream
    /// time `at`; returns the level after applying any transitions.
    ///
    /// A single observation can climb or descend several rungs (e.g. a
    /// burst that jumps occupancy from 10% to 99% escalates straight to
    /// `FailClosed`, logging each rung).
    pub fn observe(&mut self, occupancy_pct: u64, at: Timestamp) -> OverloadLevel {
        while let Some(next) = self.level.up() {
            if occupancy_pct >= self.cfg.high_into(next) {
                self.record(next, at, occupancy_pct);
                self.escalations += 1;
                self.level = next;
                self.peak = self.peak.max(next);
            } else {
                break;
            }
        }
        while let Some(prev) = self.level.down() {
            if occupancy_pct <= self.cfg.low_out_of(self.level) {
                self.record(prev, at, occupancy_pct);
                self.recoveries += 1;
                self.level = prev;
            } else {
                break;
            }
        }
        self.level
    }

    fn record(&mut self, to: OverloadLevel, at: Timestamp, occupancy_pct: u64) {
        if self.transitions.len() < MAX_RECORDED_TRANSITIONS {
            self.transitions.push(LadderTransition { from: self.level, to, at, occupancy_pct });
        }
    }

    fn snapshot(&self, buf: &mut Vec<u8>) {
        buf.push(self.level.code());
        buf.push(self.peak.code());
        buf.extend_from_slice(&self.escalations.to_be_bytes());
        buf.extend_from_slice(&self.recoveries.to_be_bytes());
        #[allow(clippy::cast_possible_truncation)] // capped at 256
        let n = self.transitions.len() as u32;
        buf.extend_from_slice(&n.to_be_bytes());
        for t in &self.transitions {
            buf.push(t.from.code());
            buf.push(t.to.code());
            buf.extend_from_slice(&t.at.0.to_be_bytes());
            buf.extend_from_slice(&t.occupancy_pct.to_be_bytes());
        }
    }

    fn restore(&mut self, buf: &mut impl Buf) -> Result<(), String> {
        ckpt::need(buf, 2 + 8 + 8 + 4, "ladder header")?;
        self.level = OverloadLevel::from_code(buf.get_u8())?;
        self.peak = OverloadLevel::from_code(buf.get_u8())?;
        self.escalations = buf.get_u64();
        self.recoveries = buf.get_u64();
        let n = buf.get_u32() as usize;
        if n > MAX_RECORDED_TRANSITIONS {
            return Err(format!("ladder transition count {n} exceeds cap"));
        }
        self.transitions.clear();
        for _ in 0..n {
            ckpt::need(buf, 2 + 8 + 8, "ladder transition")?;
            let from = OverloadLevel::from_code(buf.get_u8())?;
            let to = OverloadLevel::from_code(buf.get_u8())?;
            let at = Timestamp(buf.get_u64());
            let occupancy_pct = buf.get_u64();
            self.transitions.push(LadderTransition { from, to, at, occupancy_pct });
        }
        Ok(())
    }
}

/// Which data tuples a [`Shedder`] drops while the ladder sits at
/// [`OverloadLevel::Shedding`]. Higher levels override the policy:
/// `CriticalShedding` keeps only predicate-matched tuples and
/// `FailClosed` keeps none.
///
/// No policy ever sheds a security punctuation — that is structural (the
/// shedder's policy arm never consults the shed policy), not a property
/// each policy must re-establish.
#[derive(Debug, Clone, PartialEq)]
pub enum ShedPolicy {
    /// Shed each tuple independently with probability `p`, using a seeded
    /// deterministic generator.
    RandomP {
        /// Per-tuple shed probability in `[0, 1]`.
        p: f64,
        /// Generator seed (same seed + same input → same shed set).
        seed: u64,
    },
    /// Shed tuples that are already late by more than the slack relative
    /// to the maximum timestamp seen — they are the least useful to keep,
    /// and dropping them cannot starve fresh data.
    OldestFirst {
        /// Lateness bound; shares the [`Slack`] definition with the
        /// reorder buffer.
        slack: Slack,
    },
    /// Max-min fairness across source streams: a tuple is shed if its
    /// stream has already been admitted strictly more than the
    /// least-admitted stream this overload episode. Counts reset when the
    /// ladder returns to `Normal`.
    FairPerStream,
}

impl ShedPolicy {
    /// Short name for display/benchmark labels.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::RandomP { .. } => "random-p",
            Self::OldestFirst { .. } => "oldest-first",
            Self::FairPerStream => "fair-per-stream",
        }
    }
}

/// Configuration for a [`Shedder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShedderConfig {
    /// Virtual queue capacity in tuples; occupancy percentages are
    /// relative to this.
    pub capacity: u64,
    /// Tuples drained per millisecond of stream-time progress — the
    /// modelled downstream service rate.
    pub drain_per_ms: u64,
    /// Watermarks for the degradation ladder.
    pub watermarks: WatermarkConfig,
    /// Which tuples to drop at `Shedding` level.
    pub policy: ShedPolicy,
}

impl Default for ShedderConfig {
    fn default() -> Self {
        Self {
            capacity: 512,
            drain_per_ms: 1,
            watermarks: WatermarkConfig::default(),
            policy: ShedPolicy::RandomP { p: 0.5, seed: 7 },
        }
    }
}

/// Semantic load-shedding operator.
///
/// Models the downstream queue it protects as a deterministic *virtual
/// queue*: each admitted tuple adds one unit, and every advance of stream
/// time drains [`ShedderConfig::drain_per_ms`] units per millisecond. The
/// occupancy of that queue drives a [`DegradationLadder`], and the ladder
/// level decides how tuples are filtered. Because the model is driven by
/// stream time only, a given input prefix always produces the same shed
/// set — overload behaviour is replayable and checkpointable.
///
/// Security punctuations are never shed, delayed, or reordered: the
/// policy arm of the state machine forwards them unconditionally (it
/// advances the clock and the ladder, but no level gates it). This is the
/// leak-proofness half of the module's invariant; the `overload_props`
/// suite proves the other half (released-set subset, byte-identical
/// policy tables) end to end.
#[derive(Debug)]
pub struct Shedder {
    cfg: ShedderConfig,
    ladder: DegradationLadder,
    rng: SplitMix64,
    /// Virtual queue length in tuples.
    qlen: u64,
    /// Latest stream time observed (drain clock).
    clock: Timestamp,
    /// Latest security-policy segment seen, for the critical-level
    /// deny-all fallback filter.
    current: Option<Arc<SegmentPolicy>>,
    /// Per-stream admission counts for [`ShedPolicy::FairPerStream`].
    fair: BTreeMap<u32, u64>,
    shed_tuples: u64,
    shed_critical: u64,
    /// Deliberately-broken mode for negative tests: sheds security
    /// punctuations under load. See [`Shedder::break_sp_shedding`].
    broken_sheds_sps: bool,
    /// Recorders; only the audit ring is ever armed (shed decisions and
    /// ladder transitions).
    rec: crate::telemetry::Recorders,
    /// How many entries of `ladder.transitions()` are already audited,
    /// so each transition is recorded exactly once.
    audited_transitions: usize,
    stats: OperatorStats,
}

impl Shedder {
    /// A shedder with the given configuration.
    #[must_use]
    pub fn new(cfg: ShedderConfig) -> Self {
        let seed = match cfg.policy {
            ShedPolicy::RandomP { seed, .. } => seed,
            _ => 0,
        };
        Self {
            ladder: DegradationLadder::new(cfg.watermarks),
            rng: SplitMix64::new(seed),
            qlen: 0,
            clock: Timestamp::ZERO,
            current: None,
            fair: BTreeMap::new(),
            shed_tuples: 0,
            shed_critical: 0,
            broken_sheds_sps: false,
            rec: crate::telemetry::Recorders::default(),
            audited_transitions: 0,
            stats: OperatorStats::new(),
            cfg,
        }
    }

    /// **Test-only negative control.** Makes the shedder drop security
    /// punctuations whenever the ladder is above `Normal` — the exact
    /// defect the leak-proofness suite must catch. A correct deployment
    /// never calls this; it exists so `overload_props` can demonstrate
    /// that a shedder which sheds sps *fails* the released-set-subset
    /// and byte-identical-policy-table invariants.
    pub fn break_sp_shedding(&mut self) {
        self.broken_sheds_sps = true;
    }

    /// Current ladder level.
    #[must_use]
    pub fn level(&self) -> OverloadLevel {
        self.ladder.level()
    }

    /// Recorded ladder transitions.
    #[must_use]
    pub fn transitions(&self) -> &[LadderTransition] {
        self.ladder.transitions()
    }

    /// Virtual queue occupancy as a percentage of capacity.
    #[must_use]
    pub fn occupancy_pct(&self) -> u64 {
        self.qlen.saturating_mul(100) / self.cfg.capacity.max(1)
    }

    /// Advances the drain clock to `ts`, releasing `drain_per_ms` units
    /// of virtual queue per elapsed millisecond.
    fn advance_clock(&mut self, ts: Timestamp) {
        if ts > self.clock {
            let dt = ts.0 - self.clock.0;
            let drained = dt.saturating_mul(self.cfg.drain_per_ms);
            self.qlen = self.qlen.saturating_sub(drained);
            self.clock = ts;
        }
    }

    /// Re-evaluates the ladder at the current occupancy; clears fairness
    /// counts when an overload episode fully ends.
    fn sync_ladder(&mut self, at: Timestamp) -> OverloadLevel {
        let before = self.ladder.level();
        let level = self.ladder.observe(self.occupancy_pct(), at);
        if level == OverloadLevel::Normal && before != OverloadLevel::Normal {
            self.fair.clear();
        }
        if self.rec.audit.enabled() {
            // Audit every rung the observation crossed, exactly once.
            for t in &self.ladder.transitions()[self.audited_transitions..] {
                self.rec.audit.record(
                    crate::telemetry::NO_TUPLE,
                    t.at.0,
                    crate::telemetry::AuditEvent::LadderTransition {
                        from: t.from.code(),
                        to: t.to.code(),
                    },
                );
            }
            self.audited_transitions = self.ladder.transitions().len();
        }
        level
    }

    /// Shed decision at `Shedding` level. `true` means drop.
    fn policy_sheds(&mut self, t: &Arc<Tuple>) -> bool {
        match &self.cfg.policy {
            ShedPolicy::RandomP { p, .. } => {
                let p = *p;
                self.rng.chance(p)
            }
            ShedPolicy::OldestFirst { slack } => slack.is_late(t.ts, self.clock),
            ShedPolicy::FairPerStream => {
                let count = self.fair.get(&t.sid.0).copied().unwrap_or(0);
                let min = self.fair.values().copied().min().unwrap_or(0);
                count > min
            }
        }
    }

    /// Critical-level filter: could any query see this tuple at all (its
    /// governing policy is not deny-all)?
    fn critical_passes(&self, t: &Arc<Tuple>) -> bool {
        let Some(seg) = &self.current else {
            // No policy yet governs this tuple; downstream shields will
            // deny it anyway, so shedding it cannot change the output.
            return false;
        };
        !seg.policy_for(t.tid).is_deny_all()
    }

    fn admit(&mut self, t: &Arc<Tuple>) {
        self.qlen = self.qlen.saturating_add(1);
        if matches!(self.cfg.policy, ShedPolicy::FairPerStream) {
            *self.fair.entry(t.sid.0).or_insert(0) += 1;
        }
    }
}

impl Operator for Shedder {
    fn name(&self) -> &str {
        "shed"
    }

    /// One port check, then the state machine element by element: the
    /// virtual queue, drain clock and ladder are judged per element in
    /// arrival order, so shed decisions never depend on where a run was
    /// cut.
    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        crate::operator::unary_port("shed", port)?;
        for elem in batch {
            self.handle(elem, out);
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    fn set_audit(&mut self, capacity: usize) -> bool {
        self.rec.set_audit(capacity);
        self.audited_transitions = self.ladder.transitions().len();
        true
    }

    fn recorders(&self) -> Option<&crate::telemetry::Recorders> {
        Some(&self.rec)
    }

    fn degradation(&self) -> Option<DegradationStats> {
        let mut d = DegradationStats::new();
        d.shed_tuples = self.shed_tuples;
        d.shed_critical = self.shed_critical;
        d.ladder_escalations = self.ladder.escalations();
        d.ladder_recoveries = self.ladder.recoveries();
        d.overload_peak = u64::from(self.ladder.peak().code());
        d.overload_level = u64::from(self.ladder.level().code());
        Some(d)
    }

    fn state_mem_bytes(&self) -> usize {
        self.fair.len() * (4 + 8)
            + std::mem::size_of_val(self.ladder.transitions())
            + self.current.as_ref().map_or(0, |s| s.mem_bytes())
    }

    fn snapshot(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.qlen.to_be_bytes());
        buf.extend_from_slice(&self.clock.0.to_be_bytes());
        buf.extend_from_slice(&self.rng.state.to_be_bytes());
        buf.extend_from_slice(&self.shed_tuples.to_be_bytes());
        buf.extend_from_slice(&self.shed_critical.to_be_bytes());
        self.ladder.snapshot(buf);
        #[allow(clippy::cast_possible_truncation)] // stream count, not tuple count
        let n = self.fair.len() as u32;
        buf.extend_from_slice(&n.to_be_bytes());
        for (sid, count) in &self.fair {
            buf.extend_from_slice(&sid.to_be_bytes());
            buf.extend_from_slice(&count.to_be_bytes());
        }
        ckpt::encode_opt_segment(self.current.as_ref(), buf);
        self.stats.encode_counters(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        ckpt::restore("shed", bytes, |buf| {
            ckpt::need(buf, 5 * 8, "shedder header")?;
            self.qlen = buf.get_u64();
            self.clock = Timestamp(buf.get_u64());
            self.rng.state = buf.get_u64();
            self.shed_tuples = buf.get_u64();
            self.shed_critical = buf.get_u64();
            self.ladder.restore(buf)?;
            let n = ckpt::get_count(buf, 4 + 8, "fair map length")?;
            self.fair.clear();
            for _ in 0..n {
                let sid = buf.get_u32();
                let count = buf.get_u64();
                self.fair.insert(sid, count);
            }
            self.current = ckpt::decode_opt_segment(buf)?;
            self.stats.decode_counters(buf)
        })?;
        // Audit state is not checkpointed: clear the ring and skip the
        // restored (pre-crash) ladder transitions so replay records only
        // transitions it actually re-observes.
        self.rec.clear();
        self.audited_transitions = self.ladder.transitions().len();
        Ok(())
    }
}

impl Shedder {
    /// The per-element admission state machine.
    fn handle(&mut self, elem: Element, out: &mut Emitter) {
        match elem {
            Element::Policy(p) => {
                self.stats.sps_in += 1;
                self.advance_clock(p.ts);
                self.current = Some(Arc::clone(&p));
                let level = self.sync_ladder(p.ts);
                if self.broken_sheds_sps && level > OverloadLevel::Normal {
                    // Negative control: silently losing an sp. The
                    // invariant tests exist to catch exactly this.
                    return;
                }
                self.stats.sps_out += 1;
                out.push(Element::Policy(p));
            }
            Element::Tuple(t) => {
                self.stats.tuples_in += 1;
                self.advance_clock(t.ts);
                // Drain-driven recovery first, so a long quiet gap lets
                // the ladder step down before this tuple is judged.
                let level = self.sync_ladder(t.ts);
                let shed = match level {
                    OverloadLevel::Normal => false,
                    OverloadLevel::Shedding => self.policy_sheds(&t),
                    OverloadLevel::CriticalShedding => !self.critical_passes(&t),
                    OverloadLevel::FailClosed => true,
                };
                if shed {
                    self.shed_tuples += 1;
                    if level >= OverloadLevel::CriticalShedding {
                        self.shed_critical += 1;
                    }
                    self.rec.audit.record(
                        t.tid.raw(),
                        t.ts.0,
                        crate::telemetry::AuditEvent::Shed { level: level.code() },
                    );
                } else {
                    self.admit(&t);
                    self.stats.tuples_out += 1;
                    out.push(Element::Tuple(t));
                    // Escalation check after the enqueue this tuple
                    // caused.
                    self.sync_ladder(self.clock);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Classed (control/data) bounded channel
// ---------------------------------------------------------------------------

/// Why a data send was refused by a [`ClassedSender`].
#[derive(Debug, PartialEq, Eq)]
pub enum DataRejected<T> {
    /// The data class is at capacity; the element is handed back so the
    /// caller can retry (backpressure) or shed it.
    Full(T),
    /// The receiver is gone; the element is handed back.
    Disconnected(T),
}

struct ClassedState<T> {
    q: VecDeque<T>,
    data_len: usize,
    senders: usize,
    rx_alive: bool,
}

struct ClassedShared<T> {
    state: Mutex<ClassedState<T>>,
    not_empty: Condvar,
    data_capacity: usize,
}

impl<T> ClassedShared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, ClassedState<T>> {
        // A poisoned mutex means a peer panicked mid-push/pop of a
        // VecDeque, which cannot leave the queue structurally broken;
        // recover the guard rather than cascading the panic.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Sending half of a two-class bounded queue; see [`classed_channel`].
pub struct ClassedSender<T> {
    shared: Arc<ClassedShared<T>>,
}

/// Receiving half of a two-class bounded queue; see [`classed_channel`].
pub struct ClassedReceiver<T> {
    shared: Arc<ClassedShared<T>>,
}

/// Creates a two-class bounded FIFO channel.
///
/// Both classes share one FIFO queue — classing changes *admission*, never
/// *order*, so a pipeline using this channel stays deterministic:
///
/// - **Control** (punctuations): [`ClassedSender::send_control`]
///   always succeeds while the receiver lives. Control traffic is lossless
///   and can never be blocked behind a data bound.
/// - **Data**: [`ClassedSender::try_send_data`] is bounded at
///   `data_capacity` in-flight data elements and hands the element back on
///   [`DataRejected::Full`], giving the caller the backpressure /shed
///   decision.
#[must_use]
pub fn classed_channel<T>(data_capacity: usize) -> (ClassedSender<T>, ClassedReceiver<T>) {
    let shared = Arc::new(ClassedShared {
        state: Mutex::new(ClassedState {
            q: VecDeque::new(),
            data_len: 0,
            senders: 1,
            rx_alive: true,
        }),
        not_empty: Condvar::new(),
        data_capacity,
    });
    (ClassedSender { shared: Arc::clone(&shared) }, ClassedReceiver { shared })
}

impl<T> ClassedSender<T> {
    /// Enqueues a control element. Control is never bounded: this fails
    /// only when the receiver has been dropped, handing the element back.
    ///
    /// # Errors
    ///
    /// Returns `Err(v)` when the receiving half is gone.
    pub fn send_control(&self, v: T) -> Result<(), T> {
        let mut st = self.shared.lock();
        if !st.rx_alive {
            return Err(v);
        }
        st.q.push_back(v);
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Attempts to enqueue a data element, bounded by the channel's data
    /// capacity.
    ///
    /// # Errors
    ///
    /// [`DataRejected::Full`] when `data_capacity` data elements are
    /// already in flight; [`DataRejected::Disconnected`] when the
    /// receiver is gone. Both hand the element back.
    pub fn try_send_data(&self, v: T) -> Result<(), DataRejected<T>> {
        let mut st = self.shared.lock();
        if !st.rx_alive {
            return Err(DataRejected::Disconnected(v));
        }
        if st.data_len >= self.shared.data_capacity {
            return Err(DataRejected::Full(v));
        }
        st.q.push_back(v);
        st.data_len += 1;
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Number of data elements currently queued (control excluded).
    #[must_use]
    pub fn data_len(&self) -> usize {
        self.shared.lock().data_len
    }
}

impl<T> Clone for ClassedSender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for ClassedSender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> ClassedReceiver<T> {
    /// Blocks until an element is available; returns `None` once every
    /// sender is dropped and the queue is drained.
    ///
    /// The receiver cannot tell control from data — classing only guards
    /// admission — so it must decrement the data bound itself; the
    /// caller passes whether the popped element was data via the
    /// provided closure-free two-step: pop first, then call
    /// [`ClassedReceiver::data_popped`] for data elements.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.q.pop_front() {
                return Some(v);
            }
            if st.senders == 0 {
                return None;
            }
            st = self.shared.not_empty.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Informs the channel that a previously-received element was a data
    /// element, freeing one slot of data capacity.
    pub fn data_popped(&self) {
        let mut st = self.shared.lock();
        st.data_len = st.data_len.saturating_sub(1);
    }

    /// Total queued elements, both classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.lock().q.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for ClassedReceiver<T> {
    fn drop(&mut self) {
        self.shared.lock().rx_alive = false;
    }
}

impl<T> fmt::Debug for ClassedSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassedSender").field("data_len", &self.data_len()).finish()
    }
}

impl<T> fmt::Debug for ClassedReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassedReceiver").field("len", &self.len()).finish()
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Token-bucket admission parameters for one ingestion session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Sustained admitted rate, tuples per second of stream time.
    pub tokens_per_sec: u64,
    /// Burst allowance: the bucket holds at most this many whole tokens.
    pub burst: u64,
    /// How far into token debt a tuple may be admitted — the deadline
    /// (in ms) within which the missing token would accrue. Beyond it the
    /// tuple is refused with [`EngineError::Overloaded`].
    pub enqueue_deadline_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { tokens_per_sec: 1000, burst: 64, enqueue_deadline_ms: 50 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Milli-tokens; may go negative up to the deadline debt.
    milli: i64,
    last: Timestamp,
}

/// Per-stream token-bucket admission controller at the ingestion
/// boundary.
///
/// Buckets refill with *stream time* (1000 milli-tokens per admitted
/// tuple; `tokens_per_sec` milli-tokens per elapsed ms), so admission is
/// deterministic given the input. A tuple arriving to an empty bucket is
/// still admitted if the missing tokens would accrue within the enqueue
/// deadline (bounded debt — this is the "deadline-based enqueue timeout"
/// of the overload design); otherwise it is refused with a typed
/// [`EngineError::Overloaded`] carrying the retry delay. **Security
/// punctuations bypass admission entirely**: they refill the bucket's
/// clock but never pay tokens and are never refused.
#[derive(Debug, Default)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    buckets: BTreeMap<u32, Bucket>,
    admitted: u64,
    rejected: u64,
    sps_bypassed: u64,
}

/// Milli-tokens one data tuple costs.
const TUPLE_COST_MILLI: i64 = 1000;

impl AdmissionController {
    /// A controller with the given config and no history.
    #[must_use]
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self { cfg, ..Self::default() }
    }

    /// Data tuples admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Data tuples refused so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Security punctuations waved through without paying tokens.
    #[must_use]
    pub fn sps_bypassed(&self) -> u64 {
        self.sps_bypassed
    }

    /// Counters in [`DegradationStats`] form for report plumbing.
    #[must_use]
    pub fn degradation(&self) -> DegradationStats {
        let mut d = DegradationStats::new();
        d.admission_rejected = self.rejected;
        d
    }

    fn refill(&mut self, stream: StreamId, at: Timestamp) -> &mut Bucket {
        let cap = i64::try_from(self.cfg.burst.saturating_mul(1000)).unwrap_or(i64::MAX);
        let rate = i64::try_from(self.cfg.tokens_per_sec).unwrap_or(i64::MAX);
        let bucket = self.buckets.entry(stream.0).or_insert(Bucket { milli: cap, last: at });
        if at > bucket.last {
            let dt = i64::try_from(at.0 - bucket.last.0).unwrap_or(i64::MAX);
            bucket.milli = bucket.milli.saturating_add(dt.saturating_mul(rate)).min(cap);
            bucket.last = at;
        }
        bucket
    }

    /// Decides admission for one element arriving on `stream` at `at`.
    /// Punctuations always pass; data tuples pay one token or bounded
    /// debt.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the stream's bucket is empty and
    /// would not hold a token within the enqueue deadline. The element
    /// was *not* enqueued; the caller may retry after the indicated
    /// stream-time delay.
    pub fn admit(
        &mut self,
        stream: StreamId,
        is_tuple: bool,
        at: Timestamp,
    ) -> Result<(), EngineError> {
        let deadline = self.cfg.enqueue_deadline_ms;
        let rate = self.cfg.tokens_per_sec.max(1);
        let bucket = self.refill(stream, at);
        if !is_tuple {
            self.sps_bypassed += 1;
            return Ok(());
        }
        let after = bucket.milli - TUPLE_COST_MILLI;
        let max_debt = i64::try_from(deadline.saturating_mul(rate)).unwrap_or(i64::MAX);
        if after >= -max_debt {
            bucket.milli = after;
            self.admitted += 1;
            Ok(())
        } else {
            let deficit = u64::try_from(-after).unwrap_or(0);
            let retry_after_ms = deficit.div_ceil(rate);
            self.rejected += 1;
            Err(EngineError::Overloaded { retry_after_ms })
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::OperatorExt;
    use sp_core::{Policy, TupleId};

    fn tup(sid: u32, tid: u64, ts: u64) -> Element {
        Element::tuple(Tuple::new(StreamId(sid), TupleId(tid), Timestamp(ts), vec![]))
    }

    fn sp_open(ts: u64) -> Element {
        let mut roles = sp_core::RoleSet::new();
        roles.insert(sp_core::RoleId(1));
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(roles, Timestamp(ts))))
    }

    fn sp_deny(ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::deny_all(Timestamp(ts))))
    }

    #[test]
    fn ladder_escalates_and_recovers_with_hysteresis() {
        let mut ladder = DegradationLadder::new(WatermarkConfig::default());
        assert_eq!(ladder.observe(10, Timestamp(0)), OverloadLevel::Normal);
        assert_eq!(ladder.observe(61, Timestamp(1)), OverloadLevel::Shedding);
        // Between low and high: holds (hysteresis).
        assert_eq!(ladder.observe(50, Timestamp(2)), OverloadLevel::Shedding);
        assert_eq!(ladder.observe(35, Timestamp(3)), OverloadLevel::Normal);
        // A massive burst climbs several rungs in one observation.
        assert_eq!(ladder.observe(99, Timestamp(4)), OverloadLevel::FailClosed);
        assert_eq!(ladder.peak(), OverloadLevel::FailClosed);
        // And a deep drain descends all the way back down.
        assert_eq!(ladder.observe(0, Timestamp(5)), OverloadLevel::Normal);
        assert_eq!(ladder.escalations(), 4);
        assert_eq!(ladder.recoveries(), 4);
        assert_eq!(ladder.transitions().len(), 8);
        let t = ladder.transitions()[0];
        assert_eq!((t.from, t.to), (OverloadLevel::Normal, OverloadLevel::Shedding));
        assert!(t.to_string().contains("Normal->Shedding"));
    }

    #[test]
    fn ladder_transition_log_is_capped() {
        let mut ladder = DegradationLadder::new(WatermarkConfig::default());
        for i in 0..400 {
            ladder.observe(99, Timestamp(2 * i));
            ladder.observe(0, Timestamp(2 * i + 1));
        }
        assert!(ladder.transitions().len() <= MAX_RECORDED_TRANSITIONS);
        assert!(ladder.escalations() > u64::try_from(MAX_RECORDED_TRANSITIONS).unwrap());
    }

    #[test]
    fn shedder_never_sheds_policies_even_fail_closed() {
        let cfg = ShedderConfig {
            capacity: 10,
            drain_per_ms: 0,
            policy: ShedPolicy::RandomP { p: 0.0, seed: 1 },
            ..ShedderConfig::default()
        };
        let mut shed = Shedder::new(cfg);
        let mut out = Emitter::new();
        // Stuff the virtual queue to FailClosed: drain_per_ms = 0 means
        // nothing ever leaves, and an open policy lets tuples through the
        // critical rung until the queue is full.
        shed.process(0, sp_open(0), &mut out).unwrap();
        for i in 0..10 {
            shed.process(0, tup(1, i, 0), &mut out).unwrap();
        }
        assert_eq!(shed.level(), OverloadLevel::FailClosed);
        let _ = out.take();
        shed.process(0, sp_open(20), &mut out).unwrap();
        shed.process(0, tup(1, 99, 21), &mut out).unwrap();
        let emitted = out.take();
        assert_eq!(emitted.len(), 1, "sp passes, tuple shed");
        assert!(emitted[0].as_policy().is_some());
        let d = shed.degradation().unwrap();
        assert!(d.shed_tuples >= 1);
        assert_eq!(d.overload_level, 3);
        assert_eq!(d.overload_peak, 3);
    }

    #[test]
    fn shedder_recovers_when_stream_time_drains_the_queue() {
        let cfg = ShedderConfig {
            capacity: 10,
            drain_per_ms: 1,
            policy: ShedPolicy::RandomP { p: 0.0, seed: 1 },
            ..ShedderConfig::default()
        };
        let mut shed = Shedder::new(cfg);
        let mut out = Emitter::new();
        shed.process(0, sp_open(0), &mut out).unwrap();
        for i in 0..10 {
            shed.process(0, tup(1, i, 0), &mut out).unwrap();
        }
        assert_eq!(shed.level(), OverloadLevel::FailClosed);
        // 10 ms of quiet stream time drains the whole queue.
        shed.process(0, tup(1, 50, 10), &mut out).unwrap();
        assert_eq!(shed.level(), OverloadLevel::Normal);
        let d = shed.degradation().unwrap();
        assert_eq!(d.overload_level, 0);
        assert!(d.ladder_recoveries >= d.ladder_escalations);
    }

    #[test]
    fn oldest_first_sheds_only_late_tuples() {
        let cfg = ShedderConfig {
            capacity: 10,
            drain_per_ms: 0,
            policy: ShedPolicy::OldestFirst { slack: Slack::new(5) },
            ..ShedderConfig::default()
        };
        let mut shed = Shedder::new(cfg);
        let mut out = Emitter::new();
        // Reach Shedding (60% of 10 => qlen 6) without touching Critical.
        for i in 0..6 {
            shed.process(0, tup(1, i, 100), &mut out).unwrap();
        }
        assert_eq!(shed.level(), OverloadLevel::Shedding);
        let _ = out.take();
        // Fresh tuple (ts == clock) is kept; a tuple 6 ms late is shed.
        shed.process(0, tup(1, 10, 100), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        shed.process(0, tup(1, 11, 94), &mut out).unwrap();
        assert_eq!(out.len(), 1, "late tuple shed");
        assert_eq!(shed.degradation().unwrap().shed_tuples, 1);
    }

    #[test]
    fn fair_per_stream_sheds_the_hog() {
        let cfg = ShedderConfig {
            capacity: 4,
            drain_per_ms: 0,
            policy: ShedPolicy::FairPerStream,
            ..ShedderConfig::default()
        };
        let mut shed = Shedder::new(cfg);
        let mut out = Emitter::new();
        // One tuple each from streams 1 and 2, then one more from 1:
        // at Shedding level stream 1 is ahead and gets shed, stream 2
        // does not.
        for (sid, tid) in [(1, 0), (2, 1), (1, 2)] {
            shed.process(0, tup(sid, tid, 0), &mut out).unwrap();
        }
        assert_eq!(shed.level(), OverloadLevel::Shedding);
        let _ = out.take();
        shed.process(0, tup(1, 10, 0), &mut out).unwrap();
        assert_eq!(out.len(), 0, "hog stream shed");
        shed.process(0, tup(2, 11, 0), &mut out).unwrap();
        assert_eq!(out.len(), 1, "behind stream admitted");
    }

    #[test]
    fn critical_level_passes_only_matchable_tuples() {
        let cfg = ShedderConfig {
            capacity: 10,
            drain_per_ms: 0,
            watermarks: WatermarkConfig {
                shed_high: 10,
                shed_low: 5,
                critical_high: 30,
                critical_low: 15,
                fail_high: 99,
                fail_low: 80,
            },
            policy: ShedPolicy::RandomP { p: 0.0, seed: 1 },
        };
        let mut shed = Shedder::new(cfg);
        let mut out = Emitter::new();
        shed.process(0, sp_open(0), &mut out).unwrap();
        for i in 0..3 {
            shed.process(0, tup(1, i, 0), &mut out).unwrap();
        }
        assert_eq!(shed.level(), OverloadLevel::CriticalShedding);
        let _ = out.take();
        // The governing policy grants a role, so some query could match:
        // the tuple passes even at critical level.
        shed.process(0, tup(1, 20, 0), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        // Deny-all segment: nothing can match, tuples are shed.
        shed.process(0, sp_deny(1), &mut out).unwrap();
        let _ = out.take();
        shed.process(0, tup(1, 21, 1), &mut out).unwrap();
        assert_eq!(out.len(), 0);
        let d = shed.degradation().unwrap();
        assert_eq!(d.shed_critical, 1);
        assert_eq!(d.shed_tuples, 1);
    }

    #[test]
    fn shedder_snapshot_round_trips_canonically() {
        let cfg = ShedderConfig {
            capacity: 6,
            drain_per_ms: 1,
            policy: ShedPolicy::FairPerStream,
            ..ShedderConfig::default()
        };
        let mut a = Shedder::new(cfg.clone());
        let mut out = Emitter::new();
        a.process(0, sp_open(0), &mut out).unwrap();
        for i in 0..8 {
            a.process(0, tup(u32::try_from(i % 3).unwrap(), i, i / 2), &mut out).unwrap();
        }
        let mut buf = Vec::new();
        a.snapshot(&mut buf);
        let mut b = Shedder::new(cfg);
        b.restore(&buf).unwrap();
        let mut buf2 = Vec::new();
        b.snapshot(&mut buf2);
        assert_eq!(buf, buf2, "snapshot is canonical across a round trip");
        assert_eq!(b.level(), a.level());
        assert_eq!(b.degradation(), a.degradation());
        // Restored shedder keeps making the same decisions.
        let mut oa = Emitter::new();
        let mut ob = Emitter::new();
        for i in 100..110 {
            a.process(0, tup(1, i, 4), &mut oa).unwrap();
            b.process(0, tup(1, i, 4), &mut ob).unwrap();
        }
        assert_eq!(oa.take(), ob.take());
    }

    #[test]
    fn shedder_rejects_corrupt_snapshots() {
        let mut shed = Shedder::new(ShedderConfig::default());
        let err = shed.restore(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, EngineError::CheckpointCorrupt { .. }));
    }

    #[test]
    fn broken_shedder_drops_sps_under_load() {
        let cfg = ShedderConfig {
            capacity: 4,
            drain_per_ms: 0,
            policy: ShedPolicy::RandomP { p: 0.0, seed: 1 },
            ..ShedderConfig::default()
        };
        let mut shed = Shedder::new(cfg);
        shed.break_sp_shedding();
        let mut out = Emitter::new();
        for i in 0..3 {
            shed.process(0, tup(1, i, 0), &mut out).unwrap();
        }
        assert!(shed.level() > OverloadLevel::Normal);
        let _ = out.take();
        shed.process(0, sp_open(1), &mut out).unwrap();
        assert_eq!(out.len(), 0, "negative control: the sp was lost");
        assert_eq!(shed.stats().sps_in, 1);
        assert_eq!(shed.stats().sps_out, 0);
    }

    #[test]
    fn classed_channel_control_bypasses_data_bound() {
        let (tx, rx) = classed_channel::<&'static str>(2);
        tx.try_send_data("d1").unwrap();
        tx.try_send_data("d2").unwrap();
        assert!(matches!(tx.try_send_data("d3"), Err(DataRejected::Full("d3"))));
        // Control still flows over a full data bound.
        tx.send_control("sp").unwrap();
        tx.send_control("barrier").unwrap();
        assert_eq!(rx.len(), 4);
        // FIFO order across classes.
        assert_eq!(rx.recv(), Some("d1"));
        rx.data_popped();
        // A slot freed: data admits again.
        tx.try_send_data("d3").unwrap();
        assert_eq!(rx.recv(), Some("d2"));
        rx.data_popped();
        assert_eq!(rx.recv(), Some("sp"));
        assert_eq!(rx.recv(), Some("barrier"));
        assert_eq!(rx.recv(), Some("d3"));
        rx.data_popped();
        drop(tx);
        assert_eq!(rx.recv(), None, "disconnect after drain");
    }

    #[test]
    fn classed_channel_reports_disconnects_both_ways() {
        let (tx, rx) = classed_channel::<u32>(1);
        drop(rx);
        assert_eq!(tx.send_control(7), Err(7));
        assert!(matches!(tx.try_send_data(8), Err(DataRejected::Disconnected(8))));
        let (tx, rx) = classed_channel::<u32>(1);
        tx.try_send_data(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn classed_channel_blocking_recv_wakes_on_send() {
        let (tx, rx) = classed_channel::<u32>(4);
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send_control(42).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn admission_burst_then_refusal_with_retry_hint() {
        let cfg = AdmissionConfig { tokens_per_sec: 1000, burst: 2, enqueue_deadline_ms: 0 };
        let mut ac = AdmissionController::new(cfg);
        let s = StreamId(1);
        // Burst of 2 admitted instantly.
        ac.admit(s, true, Timestamp(0)).unwrap();
        ac.admit(s, true, Timestamp(0)).unwrap();
        // Third at the same instant: bucket empty, deadline 0 → refused.
        let err = ac.admit(s, true, Timestamp(0)).unwrap_err();
        assert_eq!(err, EngineError::Overloaded { retry_after_ms: 1 });
        // 1 ms later a token has accrued (1000 milli-tokens/ms).
        ac.admit(s, true, Timestamp(1)).unwrap();
        assert_eq!(ac.admitted(), 3);
        assert_eq!(ac.rejected(), 1);
        assert_eq!(ac.degradation().admission_rejected, 1);
    }

    #[test]
    fn admission_deadline_allows_bounded_debt() {
        let cfg = AdmissionConfig { tokens_per_sec: 1000, burst: 1, enqueue_deadline_ms: 2 };
        let mut ac = AdmissionController::new(cfg);
        let s = StreamId(1);
        // Bucket holds 1 token; deadline of 2 ms allows 2 more on debt.
        ac.admit(s, true, Timestamp(0)).unwrap();
        ac.admit(s, true, Timestamp(0)).unwrap();
        ac.admit(s, true, Timestamp(0)).unwrap();
        let err = ac.admit(s, true, Timestamp(0)).unwrap_err();
        assert!(matches!(err, EngineError::Overloaded { retry_after_ms } if retry_after_ms > 2));
    }

    #[test]
    fn admission_sps_always_bypass() {
        let cfg = AdmissionConfig { tokens_per_sec: 1, burst: 1, enqueue_deadline_ms: 0 };
        let mut ac = AdmissionController::new(cfg);
        let s = StreamId(1);
        ac.admit(s, true, Timestamp(0)).unwrap();
        assert!(ac.admit(s, true, Timestamp(0)).is_err());
        // Tuples are refused but sps sail through, arbitrarily many.
        for i in 0..100 {
            ac.admit(s, false, Timestamp(i)).unwrap();
        }
        assert_eq!(ac.sps_bypassed(), 100);
    }

    #[test]
    fn admission_buckets_are_per_stream() {
        let cfg = AdmissionConfig { tokens_per_sec: 1000, burst: 1, enqueue_deadline_ms: 0 };
        let mut ac = AdmissionController::new(cfg);
        ac.admit(StreamId(1), true, Timestamp(0)).unwrap();
        assert!(ac.admit(StreamId(1), true, Timestamp(0)).is_err());
        // Stream 2 has its own bucket.
        ac.admit(StreamId(2), true, Timestamp(0)).unwrap();
    }
}
