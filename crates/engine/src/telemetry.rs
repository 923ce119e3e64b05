//! Security-decision audit trail and live telemetry.
//!
//! Four cooperating facilities (ISSUE 4; motivated by SecureStreams'
//! and Streamforce's auditable-enforcement requirements):
//!
//! 1. **Flight recorder** ([`FlightRecorder`]) — a bounded ring buffer of
//!    [`AuditRecord`]s, one per access-control decision: tuple released
//!    (with the authorizing role and the governing sp-batch timestamp),
//!    suppressed, shed, quarantined (with a [`QuarantineReason`]),
//!    stale-sp discarded, ladder transition, checkpoint restore, terminal
//!    fail-closed. Records are keyed to *stream time* and tuple ids only
//!    — never wall clock — so sequential and parallel runs over the same
//!    input produce byte-identical audit streams (see [`AuditTrail`]).
//! 2. **Metrics registry** ([`MetricsRegistry`]) — log₂-bucket
//!    [`Histogram`]s (per-operator latency, queue depth) plus named
//!    counters, with associative order-insensitive merge, rendered as
//!    Prometheus text exposition or a JSON snapshot.
//! 3. **Causal span plane — sp-trace** ([`SpanRecorder`] / [`SpanSheet`])
//!    — a bounded ring of [`SpanRecord`]s per operator, one per causal
//!    hop of an element (wire ingress, analyzer resolution, shield
//!    enforcement, release/suppress, standby apply). Trace and span ids
//!    are derived deterministically from element identity
//!    ([`sp_core::trace`]), so spans recorded by the client, the server,
//!    a parallel worker, and a promoted standby merge into one tree.
//! 4. **Enforcement-lag tracking** ([`LagTracker`]) — per-shield
//!    histograms of the paper's immediate-enforcement promise: sp-arrival
//!    → enforcement lag, sp-arrival → first-affected-release lag, and
//!    revocation → suppression lag (the "security hole" width), all in
//!    stream time so replays reproduce them exactly.
//!
//! The two recorder planes (1 and 3) are one mechanism: a generic
//! [`Ring`] per operator, gathered into a generic [`Sections`] container;
//! [`FlightRecorder`] / [`SpanRecorder`] and [`AuditTrail`] /
//! [`SpanSheet`] are its two instantiations, and an operator holds its
//! pair (plus the lag tracker) as one [`Recorders`].
//!
//! Telemetry is **off by default**, and capacity is the only switch: a
//! [`Ring`] with capacity 0 never allocates, and an executor built
//! without [`TelemetryConfig::enabled`] takes no histogram samples, so
//! the hot path is unchanged when observability is not requested.
//!
//! Audit state is deliberately **not** checkpointed: the recorder is an
//! observability surface, not replayable operator state. On restore every
//! recorder is cleared, and deterministic replay repopulates it — so a
//! recovered run's audit suffix matches an unkilled run's.

use std::collections::VecDeque;

use sp_core::{RoleCatalog, RoleId};

use crate::overload::OverloadLevel;

/// Sentinel tuple id for audit records not tied to a single tuple
/// (ladder transitions, restores, stale-sp batch discards).
pub const NO_TUPLE: u64 = u64::MAX;

/// Sentinel sp-batch timestamp meaning "no governing sp" (suppression by
/// the default-deny rule rather than an explicit policy).
pub const NO_SP: u64 = u64::MAX;

/// Default ring capacity used by [`TelemetryConfig::enabled`].
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// Default span-ring capacity used by [`TelemetryConfig::enabled`].
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Why the analyzer quarantined (or dropped a quarantined) tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// No sp-batch governed the tuple's timestamp on arrival (ttl check).
    Uncovered,
    /// The tuple sat in quarantine longer than the policy's slack allows.
    SlackExpired,
    /// The quarantine ring was full; the oldest occupant was evicted.
    CapacityEvicted,
    /// A newer sp-batch settled the quarantine but its interval had
    /// already passed the tuple over — no policy will ever cover it.
    PassedOver,
}

impl QuarantineReason {
    /// Stable numeric code used in the deterministic encoding.
    #[must_use]
    pub const fn code(self) -> u8 {
        match self {
            Self::Uncovered => 0,
            Self::SlackExpired => 1,
            Self::CapacityEvicted => 2,
            Self::PassedOver => 3,
        }
    }

    /// Short human-readable name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Uncovered => "no governing sp",
            Self::SlackExpired => "slack expired",
            Self::CapacityEvicted => "capacity evicted",
            Self::PassedOver => "passed over by newer sp",
        }
    }
}

/// Why the crypto-enforced client suppressed ciphertext instead of
/// releasing it (carried in [`AuditEvent::CipherSuppressed`]).
///
/// Every variant is fail-closed: the offending frame — and, where the
/// violation poisons the whole segment, every frame of that segment — is
/// suppressed and counted, never released, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipherViolation {
    /// The AEAD tag did not verify (corrupted or forged ciphertext).
    AuthFailed,
    /// The frame was shorter than a tag, or otherwise cut mid-body.
    Truncated,
    /// The segment sequence number was not strictly greater than the
    /// last committed segment (a replayed segment).
    Replayed,
    /// A DATA frame's index broke the strictly-increasing order the
    /// nonce schedule requires (a reused or swapped nonce).
    NonceReused,
    /// The header's key epoch was not the client's current epoch
    /// (revoked or rolled-back key material).
    StaleKeyEpoch,
    /// The segment digest verified the AEAD but did not match the
    /// received DATA ciphertext (dropped/substituted frames).
    DigestMismatch,
    /// The terminator arrived without any digest frame.
    DigestMissing,
    /// A segment was abandoned before its terminator (interleaved or
    /// torn segment).
    Incomplete,
    /// The frame's fields made no sense for the current state (wrong
    /// stream, data before header, …).
    Malformed,
}

impl CipherViolation {
    /// Stable numeric code used in the deterministic encoding.
    #[must_use]
    pub const fn code(self) -> u8 {
        match self {
            Self::AuthFailed => 0,
            Self::Truncated => 1,
            Self::Replayed => 2,
            Self::NonceReused => 3,
            Self::StaleKeyEpoch => 4,
            Self::DigestMismatch => 5,
            Self::DigestMissing => 6,
            Self::Incomplete => 7,
            Self::Malformed => 8,
        }
    }

    /// Short human-readable name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::AuthFailed => "authentication failed",
            Self::Truncated => "truncated frame",
            Self::Replayed => "replayed segment",
            Self::NonceReused => "nonce reuse",
            Self::StaleKeyEpoch => "stale key epoch",
            Self::DigestMismatch => "segment digest mismatch",
            Self::DigestMissing => "segment digest missing",
            Self::Incomplete => "incomplete segment",
            Self::Malformed => "malformed frame",
        }
    }
}

/// One security-relevant event, the payload of an [`AuditRecord`].
///
/// Every variant is `Copy` and carries only stream-time / identifier
/// fields so the encoding is deterministic across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvent {
    /// The security shield released the tuple to a subject holding
    /// `role`, authorized by the sp-batch stamped `sp_ts`.
    Released {
        /// First predicate role the governing policy grants.
        role: u32,
        /// Timestamp of the governing sp-batch (its DDP identity).
        sp_ts: u64,
    },
    /// The shield suppressed the tuple; `sp_ts` is the governing
    /// sp-batch, or [`NO_SP`] for default-deny (no policy at all).
    Suppressed {
        /// Governing sp-batch timestamp, or [`NO_SP`].
        sp_ts: u64,
    },
    /// The load shedder discarded the tuple at the given ladder rung
    /// ([`OverloadLevel::code`]).
    Shed {
        /// Ladder rung code at the moment of the decision.
        level: u8,
    },
    /// The analyzer quarantined the tuple instead of forwarding it.
    Quarantined {
        /// Why the tuple could not be forwarded.
        reason: QuarantineReason,
    },
    /// A late sp-batch covered a quarantined tuple; it was released back
    /// into the stream.
    QuarantineReleased,
    /// A quarantined tuple was dropped for good.
    QuarantineDropped {
        /// Why the tuple was condemned.
        reason: QuarantineReason,
    },
    /// An entire sp-batch arrived too late (behind the stream clock) and
    /// was discarded unapplied. `ts` on the record is the batch stamp.
    StaleSpDiscarded,
    /// The degradation ladder moved between rungs
    /// (codes per [`OverloadLevel::code`]).
    LadderTransition {
        /// Rung before the move.
        from: u8,
        /// Rung after the move.
        to: u8,
    },
    /// The supervisor restored the pipeline from the checkpoint cut at
    /// `epoch` (record `ts` is the resumed input position).
    Restored {
        /// Epoch of the checkpoint used.
        epoch: u64,
    },
    /// Recovery was exhausted and the supervisor failed closed, refusing
    /// the remaining input.
    RecoveryFailClosed {
        /// Number of input elements refused (never processed).
        refused: u64,
    },
    /// A tentatively released tuple was retracted because its segment
    /// failed verification before the terminator committed it.
    TentativeRolledBack {
        /// Segment whose verification failed.
        seg: u64,
    },
    /// The crypto-enforced client suppressed ciphertext (record `ts` is
    /// the stream time of the decision; `tid` is the tuple when known,
    /// [`NO_TUPLE`] for whole-frame/segment violations).
    CipherSuppressed {
        /// Why the ciphertext could not be released.
        reason: CipherViolation,
    },
}

impl AuditEvent {
    /// Short event name (used in rendering and the JSON snapshot).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            Self::Released { .. } => "released",
            Self::Suppressed { .. } => "suppressed",
            Self::Shed { .. } => "shed",
            Self::Quarantined { .. } => "quarantined",
            Self::QuarantineReleased => "quarantine_released",
            Self::QuarantineDropped { .. } => "quarantine_dropped",
            Self::StaleSpDiscarded => "stale_sp_discarded",
            Self::LadderTransition { .. } => "ladder_transition",
            Self::Restored { .. } => "restored",
            Self::RecoveryFailClosed { .. } => "recovery_fail_closed",
            Self::TentativeRolledBack { .. } => "tentative_rolled_back",
            Self::CipherSuppressed { .. } => "cipher_suppressed",
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Self::Released { role, sp_ts } => {
                buf.push(0);
                buf.extend_from_slice(&role.to_be_bytes());
                buf.extend_from_slice(&sp_ts.to_be_bytes());
            }
            Self::Suppressed { sp_ts } => {
                buf.push(1);
                buf.extend_from_slice(&sp_ts.to_be_bytes());
            }
            Self::Shed { level } => {
                buf.push(2);
                buf.push(level);
            }
            Self::Quarantined { reason } => {
                buf.push(3);
                buf.push(reason.code());
            }
            Self::QuarantineReleased => buf.push(4),
            Self::QuarantineDropped { reason } => {
                buf.push(5);
                buf.push(reason.code());
            }
            Self::StaleSpDiscarded => buf.push(6),
            Self::LadderTransition { from, to } => {
                buf.push(7);
                buf.push(from);
                buf.push(to);
            }
            Self::Restored { epoch } => {
                buf.push(8);
                buf.extend_from_slice(&epoch.to_be_bytes());
            }
            Self::RecoveryFailClosed { refused } => {
                buf.push(9);
                buf.extend_from_slice(&refused.to_be_bytes());
            }
            Self::TentativeRolledBack { seg } => {
                buf.push(10);
                buf.extend_from_slice(&seg.to_be_bytes());
            }
            Self::CipherSuppressed { reason } => {
                buf.push(11);
                buf.push(reason.code());
            }
        }
    }
}

/// A record one of the two recorder planes keeps: an [`AuditRecord`]
/// (audit plane) or a [`SpanRecord`] (span plane). The trait is what lets
/// one [`Ring`], one [`Sections`] container and one read/ship path serve
/// both.
pub trait Record: Copy + 'static {
    /// Appends the deterministic big-endian encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// This record type's ring among an operator's [`Recorders`].
    fn ring(recorders: &Recorders) -> &Ring<Self>;

    /// Mutable counterpart of [`Record::ring`].
    fn ring_mut(recorders: &mut Recorders) -> &mut Ring<Self>;
}

/// One entry in the flight recorder: *which tuple*, *when in stream
/// time*, *what was decided*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditRecord {
    /// Tuple id the decision concerns, or [`NO_TUPLE`].
    pub tid: u64,
    /// Stream time of the decision (tuple or batch timestamp — never
    /// wall clock, so replays reproduce it exactly).
    pub ts: u64,
    /// The decision itself.
    pub event: AuditEvent,
}

impl Record for AuditRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.tid.to_be_bytes());
        buf.extend_from_slice(&self.ts.to_be_bytes());
        self.event.encode(buf);
    }

    fn ring(recorders: &Recorders) -> &Ring<Self> {
        &recorders.audit
    }

    fn ring_mut(recorders: &mut Recorders) -> &mut Ring<Self> {
        &mut recorders.audit
    }
}

/// Bounded ring buffer of records — the per-operator recorder of either
/// plane ([`FlightRecorder`] for audit, [`SpanRecorder`] for spans).
///
/// Capacity 0 (the [`Default`]) means *disabled*, and is the only off
/// state: [`Ring::push`] is a branch and a return, with no allocation
/// ever. When full, the oldest record is evicted and counted, so the
/// ring always holds the most recent `capacity` records and
/// [`Ring::evicted`] reports how much history scrolled off.
#[derive(Debug, Clone)]
pub struct Ring<R> {
    capacity: usize,
    records: VecDeque<R>,
    evicted: u64,
}

/// The audit plane's ring: one [`AuditRecord`] per access-control
/// decision.
pub type FlightRecorder = Ring<AuditRecord>;

/// The span plane's ring: one [`SpanRecord`] per causal hop.
pub type SpanRecorder = Ring<SpanRecord>;

impl<R> Default for Ring<R> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<R> Ring<R> {
    /// A ring that keeps the latest `capacity` records (0 = disabled).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, records: VecDeque::new(), evicted: 0 }
    }

    /// Whether recording is on (capacity > 0).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Keeps one record; a no-op when disabled.
    #[inline]
    pub fn push(&mut self, rec: R) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(rec);
    }

    /// Records kept, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &R> {
        self.records.iter()
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Discards all records and the eviction count (capacity keeps).
    /// Called on operator `restore` so deterministic replay repopulates
    /// the ring without duplicating pre-crash history.
    pub fn clear(&mut self) {
        self.records.clear();
        self.evicted = 0;
    }
}

impl<R: Record> Ring<R> {
    /// Appends the deterministic encoding: eviction count, record count,
    /// then each record oldest-first.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.evicted.to_be_bytes());
        buf.extend_from_slice(&(self.records.len() as u32).to_be_bytes());
        for r in &self.records {
            r.encode(buf);
        }
    }
}

impl Ring<AuditRecord> {
    /// Records one decision; a no-op when disabled.
    #[inline]
    pub fn record(&mut self, tid: u64, ts: u64, event: AuditEvent) {
        self.push(AuditRecord { tid, ts, event });
    }
}

impl Ring<SpanRecord> {
    /// Records one span; a no-op when disabled.
    #[inline]
    pub fn record(&mut self, rec: SpanRecord) {
        self.push(rec);
    }
}

/// Which pipeline stage a trail section came from. The derived `Ord`
/// (sources ascending, then nodes ascending, then the supervisor) is the
/// canonical section order of an [`AuditTrail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditOp {
    /// The ingestion boundary before the pipeline (server tenant session
    /// or standby apply loop) — used by the span plane; ordinary audit
    /// trails never contain it, so their encodings are unchanged.
    Ingress,
    /// The sp-analyzer guarding source slot `n`.
    Source(u32),
    /// The operator in plan node slot `n`.
    Node(u32),
    /// The crash-recovery supervisor.
    Supervisor,
}

impl AuditOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Self::Source(i) => {
                buf.push(0);
                buf.extend_from_slice(&i.to_be_bytes());
            }
            Self::Node(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_be_bytes());
            }
            Self::Supervisor => buf.push(2),
            Self::Ingress => buf.push(3),
        }
    }

    fn label(&self) -> String {
        match *self {
            Self::Source(i) => format!("source {i}"),
            Self::Node(i) => format!("node {i}"),
            Self::Supervisor => "supervisor".into(),
            Self::Ingress => "ingress".into(),
        }
    }
}

/// One plane of a whole pipeline's history: one [`Ring`] per recording
/// operator, in canonical [`AuditOp`] order — an [`AuditTrail`] or a
/// [`SpanSheet`].
///
/// Within one operator, record order is fixed by the runtime (each
/// operator processes its input serially in both the sequential executor
/// and the pipeline-parallel runner), and the canonical section order
/// removes the only run-dependent freedom — thread interleaving — so
/// [`Sections::encode_to_vec`] is identical for sequential and parallel
/// runs over the same input.
#[derive(Debug, Clone)]
pub struct Sections<R> {
    sections: Vec<(AuditOp, Ring<R>)>,
}

/// A whole pipeline's audit history. Two runs over the same input are
/// *audit-equivalent* iff their [`Sections::encode_to_vec`] bytes are
/// equal.
pub type AuditTrail = Sections<AuditRecord>;

/// A whole pipeline's span history, with the same determinism contract:
/// two runs over the same input are *trace-equivalent* iff their
/// [`Sections::encode_to_vec`] bytes are equal.
pub type SpanSheet = Sections<SpanRecord>;

impl<R> Default for Sections<R> {
    fn default() -> Self {
        Self { sections: Vec::new() }
    }
}

impl<R> Sections<R> {
    /// An empty plane.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one operator's ring, keeping sections in canonical order
    /// regardless of insertion order.
    pub fn push_section(&mut self, op: AuditOp, recorder: Ring<R>) {
        self.sections.push((op, recorder));
        self.sections.sort_by_key(|(op, _)| *op);
    }

    /// The sections in canonical order.
    pub fn sections(&self) -> impl Iterator<Item = (AuditOp, &Ring<R>)> {
        self.sections.iter().map(|(op, r)| (*op, r))
    }

    /// Every record with its originating operator, section by section.
    pub fn records(&self) -> impl Iterator<Item = (AuditOp, &R)> {
        self.sections.iter().flat_map(|(op, r)| r.records().map(move |rec| (*op, rec)))
    }

    /// Total records held across all sections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sections.iter().map(|(_, r)| r.len()).sum()
    }

    /// Whether no section holds any record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records evicted across all sections (history that scrolled
    /// off the bounded rings).
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.sections.iter().map(|(_, r)| r.evicted()).sum()
    }
}

impl<R: Record> Sections<R> {
    /// The deterministic encoding of the whole plane.
    #[must_use]
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(self.sections.len() as u32).to_be_bytes());
        for (op, rec) in &self.sections {
            op.encode(&mut buf);
            rec.encode(&mut buf);
        }
        buf
    }
}

impl Sections<AuditRecord> {
    /// Renders the trail as human-readable lines, one per record —
    /// e.g. `[node 2] tuple 42 released to role Nurse via DDP @1300ms`.
    /// Role ids resolve to names through `catalog` when provided.
    #[must_use]
    pub fn render(&self, catalog: Option<&RoleCatalog>) -> String {
        let role_name = |role: u32| -> String {
            if role == u32::MAX {
                return "<none>".into();
            }
            catalog
                .and_then(|c| c.role_name(RoleId(role)).map(str::to_owned))
                .unwrap_or_else(|| format!("role#{role}"))
        };
        let level_name = |code: u8| -> &'static str {
            OverloadLevel::from_code(code).map(OverloadLevel::name).unwrap_or("?")
        };
        let mut out = String::new();
        for (op, rec) in self.records() {
            let who = op.label();
            let subject =
                if rec.tid == NO_TUPLE { String::new() } else { format!("tuple {} ", rec.tid) };
            let what = match rec.event {
                AuditEvent::Released { role, sp_ts } => {
                    format!("released to role {} via DDP @{sp_ts}ms", role_name(role))
                }
                AuditEvent::Suppressed { sp_ts } if sp_ts == NO_SP => {
                    "suppressed (default deny: no governing sp)".into()
                }
                AuditEvent::Suppressed { sp_ts } => {
                    format!("suppressed by DDP @{sp_ts}ms")
                }
                AuditEvent::Shed { level } => {
                    format!("shed at level {}", level_name(level))
                }
                AuditEvent::Quarantined { reason } => {
                    format!("quarantined ({})", reason.name())
                }
                AuditEvent::QuarantineReleased => "released from quarantine by late sp".into(),
                AuditEvent::QuarantineDropped { reason } => {
                    format!("dropped from quarantine ({})", reason.name())
                }
                AuditEvent::StaleSpDiscarded => "stale sp-batch discarded unapplied".into(),
                AuditEvent::LadderTransition { from, to } => {
                    format!("load ladder {} -> {}", level_name(from), level_name(to))
                }
                AuditEvent::Restored { epoch } => {
                    format!("restored from checkpoint at epoch {epoch}")
                }
                AuditEvent::RecoveryFailClosed { refused } => {
                    format!("recovery exhausted: failed closed, {refused} elements refused")
                }
                AuditEvent::TentativeRolledBack { seg } => {
                    format!("tentative release rolled back (segment {seg} failed verification)")
                }
                AuditEvent::CipherSuppressed { reason } => {
                    format!("ciphertext suppressed ({})", reason.name())
                }
            };
            out.push_str(&format!("[{who}] {subject}{what} (ts {}ms)\n", rec.ts));
        }
        out
    }
}

/// One causal span: an element's visit to one pipeline site.
///
/// Like [`AuditRecord`], every field is derived from *element identity*
/// and stream time — never wall clock — so sequential, parallel, and
/// replayed runs over the same input record byte-identical spans. Ids
/// come from [`sp_core::trace`]: `span_id` is a pure function of
/// `(trace_id, site)` and `parent` names the causally preceding hop,
/// which may have been recorded in another process entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to (per-element identity).
    pub trace_id: u64,
    /// This span's id (derived from `trace_id` + `site`).
    pub span_id: u64,
    /// The causally preceding span's id (0 = root).
    pub parent: u64,
    /// The pipeline site ([`sp_core::trace::site`]).
    pub site: u8,
    /// Tuple id the hop concerns, or [`NO_TUPLE`] for sp/policy hops.
    pub tid: u64,
    /// Stream time of the hop (tuple or sp-batch timestamp).
    pub ts: u64,
}

impl SpanRecord {
    /// Builds the span for `site` of `trace_id`, deriving the span id.
    #[must_use]
    pub fn at(trace_id: u64, site: u8, parent: u64, tid: u64, ts: u64) -> Self {
        Self { trace_id, span_id: sp_core::trace::span_id(trace_id, site), parent, site, tid, ts }
    }
}

impl Record for SpanRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.trace_id.to_be_bytes());
        buf.extend_from_slice(&self.span_id.to_be_bytes());
        buf.extend_from_slice(&self.parent.to_be_bytes());
        buf.push(self.site);
        buf.extend_from_slice(&self.tid.to_be_bytes());
        buf.extend_from_slice(&self.ts.to_be_bytes());
    }

    fn ring(recorders: &Recorders) -> &Ring<Self> {
        &recorders.spans
    }

    fn ring_mut(recorders: &mut Recorders) -> &mut Ring<Self> {
        &mut recorders.spans
    }
}

impl Sections<SpanRecord> {
    /// Appends this sheet's spans as Chrome trace-event objects to
    /// `events`, one JSON object per span, under process id `pid`
    /// (callers merging several pipelines — e.g. one per tenant — give
    /// each its own pid). Span sites become the viewer's thread lanes.
    pub fn chrome_events(&self, pid: u32, events: &mut Vec<String>) {
        for (op, rec) in self.records() {
            events.push(format!(
                concat!(
                    "{{\"name\":\"{}\",\"cat\":\"sp-trace\",\"ph\":\"X\",",
                    "\"ts\":{},\"dur\":1,\"pid\":{},\"tid\":{},\"args\":{{",
                    "\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",",
                    "\"parent\":\"{:016x}\",\"section\":\"{}\",\"tuple\":{}}}}}"
                ),
                sp_core::trace::site::name(rec.site),
                rec.ts.saturating_mul(1000), // stream ms -> trace µs
                pid,
                rec.site,
                rec.trace_id,
                rec.span_id,
                rec.parent,
                op.label(),
                if rec.tid == NO_TUPLE { -1i64 } else { rec.tid as i64 },
            ));
        }
    }

    /// Renders the whole sheet as one Chrome trace-event JSON document
    /// (load it in `chrome://tracing` / Perfetto).
    #[must_use]
    pub fn render_chrome_json(&self) -> String {
        let mut events = Vec::new();
        self.chrome_events(0, &mut events);
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    /// Renders the sheet as a human-readable forest: one tree per trace
    /// (sorted by trace id), children indented under the span they name
    /// as parent. Spans whose parent lives in another process (e.g. the
    /// client-side root) print as roots here.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let all: Vec<(AuditOp, SpanRecord)> = self.records().map(|(op, rec)| (op, *rec)).collect();
        let mut traces: Vec<u64> = all.iter().map(|(_, r)| r.trace_id).collect();
        traces.sort_unstable();
        traces.dedup();
        let mut out = String::new();
        for trace in traces {
            let mut spans: Vec<&(AuditOp, SpanRecord)> =
                all.iter().filter(|(_, r)| r.trace_id == trace).collect();
            spans.sort_by_key(|(op, r)| (r.site, r.tid, r.ts, *op));
            spans.dedup();
            out.push_str(&format!("trace {trace:016x}\n"));
            let local: Vec<u64> = spans.iter().map(|(_, r)| r.span_id).collect();
            let roots: Vec<usize> =
                (0..spans.len()).filter(|&i| !local.contains(&spans[i].1.parent)).collect();
            let mut visited = vec![false; spans.len()];
            for root in roots {
                Self::tree_line(&spans, root, 1, &mut visited, &mut out);
            }
            // Anything unreachable (parent cycles can't happen with
            // derived ids, but stay total): print flat.
            for i in 0..spans.len() {
                if !visited[i] {
                    Self::tree_line(&spans, i, 1, &mut visited, &mut out);
                }
            }
        }
        out
    }

    fn tree_line(
        spans: &[&(AuditOp, SpanRecord)],
        i: usize,
        depth: usize,
        visited: &mut [bool],
        out: &mut String,
    ) {
        if visited[i] {
            return;
        }
        visited[i] = true;
        let (op, rec) = spans[i];
        let subject =
            if rec.tid == NO_TUPLE { String::new() } else { format!(" tuple {}", rec.tid) };
        out.push_str(&format!(
            "{}[{}] {}{subject} @{}ms\n",
            "  ".repeat(depth),
            op.label(),
            sp_core::trace::site::name(rec.site),
            rec.ts
        ));
        for j in 0..spans.len() {
            if spans[j].1.parent == rec.span_id {
                Self::tree_line(spans, j, depth + 1, visited, out);
            }
        }
    }
}

/// Everything a recording operator owns: its audit ring, its span ring,
/// and — armed together with the spans — its enforcement-lag tracker.
/// Read through [`Operator::recorders`](crate::operator::Operator::recorders).
///
/// Recorder state is observability, not operator state: it is excluded
/// from snapshots and cleared on restore, so deterministic replay after a
/// crash repopulates it without duplicating pre-crash history.
#[derive(Debug, Clone, Default)]
pub struct Recorders {
    /// Access-control decisions (disabled unless audit is armed).
    pub audit: FlightRecorder,
    /// Causal spans (disabled unless spans are armed).
    pub spans: SpanRecorder,
    /// Enforcement-lag histograms; fed only while `spans` is armed.
    pub lag: LagTracker,
}

impl Recorders {
    /// Arms the audit ring with `capacity` (0 = off), emptying it.
    pub fn set_audit(&mut self, capacity: usize) {
        self.audit = Ring::new(capacity);
    }

    /// Arms the span ring with `capacity` (0 = off), emptying it; the
    /// lag tracker is fed exactly while this ring is on.
    pub fn set_spans(&mut self, capacity: usize) {
        self.spans = Ring::new(capacity);
    }

    /// Empties both rings and the lag tracker (capacities keep).
    pub fn clear(&mut self) {
        self.audit.clear();
        self.spans.clear();
        self.lag.clear();
    }
}

/// Assembles one plane — audit trail or span sheet, chosen by `R` — from
/// the recorders of a plan's analyzers (by source slot) and operators (by
/// node slot), however they were gathered: read in place by the
/// sequential executor, shipped home by pipeline-parallel workers, or
/// re-recorded in seq order by the shard coordinator. A disabled ring is
/// omitted, *not* added empty, which is what keeps a run with telemetry
/// armed encoding identically however it executed.
///
/// Every assembly path in the engine funnels through this function so
/// the omit-disabled rule and the canonical section order live in
/// exactly one place.
pub fn merge_recorders<'a, R: Record>(
    analyzers: impl IntoIterator<Item = &'a Recorders>,
    nodes: impl IntoIterator<Item = (usize, &'a Recorders)>,
) -> Sections<R> {
    let mut plane = Sections::new();
    #[allow(clippy::cast_possible_truncation)] // plan slots fit u32
    let sections = analyzers
        .into_iter()
        .enumerate()
        .map(|(i, r)| (AuditOp::Source(i as u32), r))
        .chain(nodes.into_iter().map(|(i, r)| (AuditOp::Node(i as u32), r)));
    for (op, recorders) in sections {
        let ring = R::ring(recorders);
        if ring.enabled() {
            plane.push_section(op, ring.clone());
        }
    }
    plane
}

/// Enforcement-lag tracking for one Security Shield — the paper's
/// immediate-enforcement promise, measured.
///
/// Three stream-time histograms (ms):
///
/// * **enforce** — sp-arrival → shield-enforcement lag: the gap between
///   an sp-batch's stamp and the shield's stream clock when the policy
///   was absorbed. In-order streams absorb at ~0 ms — the paper's
///   "immediate enforcement"; anything larger is reorder/queueing delay
///   during which the *old* policy still governed.
/// * **release** — sp-arrival → first-affected-release lag: how long
///   (in stream time) until the first tuple was released *under* the
///   new policy.
/// * **suppress** — revocation → suppression lag: how long until the
///   first tuple was suppressed under the new policy — the width of the
///   "security hole" a revocation leaves open.
///
/// All inputs are stream timestamps, so sequential, parallel, and
/// replayed runs produce identical histograms. Like the recorders, lag
/// state is *not* checkpointed: it clears on restore and deterministic
/// replay repopulates it.
#[derive(Debug, Clone)]
pub struct LagTracker {
    clock: u64,
    sp_ts: u64,
    pending_release: bool,
    pending_suppress: bool,
    enforce: Histogram,
    release: Histogram,
    suppress: Histogram,
}

impl Default for LagTracker {
    fn default() -> Self {
        Self {
            clock: 0,
            sp_ts: NO_SP,
            pending_release: false,
            pending_suppress: false,
            enforce: Histogram::new(),
            release: Histogram::new(),
            suppress: Histogram::new(),
        }
    }
}

impl LagTracker {
    /// An empty tracker. It has no switch of its own: its owner feeds it
    /// exactly while its span ring is on ([`Recorders::spans`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the shield's stream clock to `ts` (monotonic max).
    #[inline]
    pub fn observe_tuple(&mut self, ts: u64) {
        self.clock = self.clock.max(ts);
    }

    /// The shield absorbed the policy stamped `sp_ts`: records the
    /// enforcement lag against the stream clock and starts waiting for
    /// the first release/suppression it affects.
    pub fn observe_policy(&mut self, sp_ts: u64) {
        self.enforce.record(self.clock.saturating_sub(sp_ts));
        self.sp_ts = sp_ts;
        self.pending_release = true;
        self.pending_suppress = true;
    }

    /// A tuple stamped `ts` was released; records the first-release lag
    /// once per absorbed policy.
    #[inline]
    pub fn observe_release(&mut self, ts: u64) {
        if self.pending_release {
            self.pending_release = false;
            if self.sp_ts != NO_SP {
                self.release.record(ts.saturating_sub(self.sp_ts));
            }
        }
    }

    /// A tuple stamped `ts` was suppressed; records the suppression lag
    /// once per absorbed policy (default-deny suppressions — no
    /// governing sp — don't count: there was no revocation to date
    /// the hole from).
    #[inline]
    pub fn observe_suppress(&mut self, ts: u64) {
        if self.pending_suppress {
            self.pending_suppress = false;
            if self.sp_ts != NO_SP {
                self.suppress.record(ts.saturating_sub(self.sp_ts));
            }
        }
    }

    /// sp-arrival → enforcement lag histogram (ms).
    #[must_use]
    pub fn enforce(&self) -> &Histogram {
        &self.enforce
    }

    /// sp-arrival → first-affected-release lag histogram (ms).
    #[must_use]
    pub fn release(&self) -> &Histogram {
        &self.release
    }

    /// Revocation → suppression lag histogram (ms).
    #[must_use]
    pub fn suppress(&self) -> &Histogram {
        &self.suppress
    }

    /// Resets samples and pending state. Called on restore;
    /// deterministic replay repopulates.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

/// Number of log₂ buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Fixed-size log₂-bucket histogram for latency / queue-depth samples.
///
/// Bucket 0 holds the value 0; bucket `i` (1 ≤ i < 63) holds
/// `[2^(i-1), 2^i)`; bucket 63 holds everything from `2^62` up. State is
/// three plain integers per bucket-array slot, and
/// [`Histogram::merge`] is a bucket-wise sum — associative, commutative
/// and lossless, so per-thread histograms can be combined in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Which bucket a value falls into.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()).min(63) as usize
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    #[must_use]
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Records `n` samples of value `v` in one update — the batched
    /// executor samples telemetry once per element batch with a count
    /// instead of once per element, so the hot loop pays one histogram
    /// update per run.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Bucket-wise sum of `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0 < p ≤ 100`); 0 when empty. Log-scale resolution: the answer
    /// overestimates by at most 2×, which is the documented trade for
    /// constant mergeable state.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Raw bucket counts (index per [`Histogram::bucket_index`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// A named metric series: Prometheus family name plus a rendered label
/// set like `op="ss",node="2"` (empty for no labels).
type SeriesKey = (String, String);

/// Snapshot registry of counters and histograms, rendered as Prometheus
/// text exposition or a JSON document.
///
/// Merging two registries ([`MetricsRegistry::merge`]) sums counters and
/// merges histograms key-wise; rendering sorts series, so the output is
/// independent of insertion and merge order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    help: Vec<(String, String)>,
    counters: Vec<(SeriesKey, u64)>,
    histograms: Vec<(SeriesKey, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn note_help(&mut self, family: &str, help: &str) {
        if !self.help.iter().any(|(f, _)| f == family) {
            self.help.push((family.into(), help.into()));
        }
    }

    /// Sets (or adds to) a counter series.
    pub fn add_counter(&mut self, family: &str, help: &str, labels: &str, value: u64) {
        self.note_help(family, help);
        let key = (family.to_owned(), labels.to_owned());
        if let Some((_, v)) = self.counters.iter_mut().find(|(k, _)| *k == key) {
            *v += value;
        } else {
            self.counters.push((key, value));
        }
    }

    /// Merges a histogram into a series (creating it if absent).
    pub fn merge_histogram(&mut self, family: &str, help: &str, labels: &str, hist: &Histogram) {
        self.note_help(family, help);
        let key = (family.to_owned(), labels.to_owned());
        if let Some((_, h)) = self.histograms.iter_mut().find(|(k, _)| *k == key) {
            h.merge(hist);
        } else {
            self.histograms.push((key, hist.clone()));
        }
    }

    /// Merges every series of `other` into `self` (order-insensitive).
    pub fn merge(&mut self, other: &Self) {
        for (family, help) in &other.help {
            self.note_help(family, help);
        }
        for ((family, labels), v) in &other.counters {
            self.add_counter(family, "", labels, *v);
        }
        for ((family, labels), h) in &other.histograms {
            self.merge_histogram(family, "", labels, h);
        }
    }

    /// Looks up a counter series.
    #[must_use]
    pub fn counter(&self, family: &str, labels: &str) -> Option<u64> {
        self.counters.iter().find(|((f, l), _)| f == family && l == labels).map(|(_, v)| *v)
    }

    /// Looks up a histogram series.
    #[must_use]
    pub fn histogram(&self, family: &str, labels: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|((f, l), _)| f == family && l == labels).map(|(_, h)| h)
    }

    fn help_for(&self, family: &str) -> &str {
        self.help
            .iter()
            .find(|(f, _)| f == family)
            .map(|(_, h)| h.as_str())
            .filter(|h| !h.is_empty())
            .unwrap_or("(no help)")
    }

    /// Renders the registry in Prometheus text-exposition format
    /// (version 0.0.4). Series are sorted, so equal registries render
    /// identically regardless of construction order.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let series_name = |family: &str, labels: &str, suffix: &str, extra: &str| -> String {
            let mut all = String::new();
            if !labels.is_empty() {
                all.push_str(labels);
            }
            if !extra.is_empty() {
                if !all.is_empty() {
                    all.push(',');
                }
                all.push_str(extra);
            }
            if all.is_empty() {
                format!("{family}{suffix}")
            } else {
                format!("{family}{suffix}{{{all}}}")
            }
        };

        let mut counters: Vec<&(SeriesKey, u64)> = self.counters.iter().collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut last_family = "";
        for ((family, labels), v) in counters {
            if family != last_family {
                out.push_str(&format!("# HELP {family} {}\n", self.help_for(family)));
                out.push_str(&format!("# TYPE {family} counter\n"));
                last_family = family;
            }
            out.push_str(&format!("{} {v}\n", series_name(family, labels, "", "")));
        }

        let mut hists: Vec<&(SeriesKey, Histogram)> = self.histograms.iter().collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        let mut last_family = "";
        for ((family, labels), h) in hists {
            if family != last_family {
                out.push_str(&format!("# HELP {family} {}\n", self.help_for(family)));
                out.push_str(&format!("# TYPE {family} histogram\n"));
                last_family = family;
            }
            let mut cum = 0u64;
            for (i, &b) in h.buckets().iter().enumerate() {
                if b == 0 {
                    continue;
                }
                cum += b;
                let le = if i >= 63 {
                    "+Inf".to_owned()
                } else {
                    Histogram::bucket_upper(i).to_string()
                };
                let extra = format!("le=\"{le}\"");
                out.push_str(&format!(
                    "{} {cum}\n",
                    series_name(family, labels, "_bucket", &extra)
                ));
            }
            // The +Inf bucket is mandatory and must equal the count.
            out.push_str(&format!(
                "{} {}\n",
                series_name(family, labels, "_bucket", "le=\"+Inf\""),
                h.count()
            ));
            out.push_str(&format!("{} {}\n", series_name(family, labels, "_sum", ""), h.sum()));
            out.push_str(&format!("{} {}\n", series_name(family, labels, "_count", ""), h.count()));
        }

        // Precomputed summary-style quantile gauges: one `{family}_pNN`
        // gauge family per histogram family, so consumers read p50/p90/
        // p99 directly instead of re-deriving them from the log₂
        // buckets. Values inherit the histogram's ≤2× log-scale
        // overestimate.
        let mut hists: Vec<&(SeriesKey, Histogram)> = self.histograms.iter().collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        for (suffix, p) in [("_p50", 50.0), ("_p90", 90.0), ("_p99", 99.0)] {
            let mut last_family = "";
            for ((family, labels), h) in &hists {
                if family != last_family {
                    out.push_str(&format!(
                        "# HELP {family}{suffix} {} ({} percentile, log2-bucket upper bound)\n",
                        self.help_for(family),
                        suffix.trim_start_matches("_p")
                    ));
                    out.push_str(&format!("# TYPE {family}{suffix} gauge\n"));
                    last_family = family;
                }
                out.push_str(&format!(
                    "{} {}\n",
                    series_name(family, labels, suffix, ""),
                    h.percentile(p)
                ));
            }
        }
        out
    }
}

/// What telemetry an executor collects. Every knob defaults to off, so
/// an unconfigured plan pays nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Flight-recorder ring capacity per operator (0 = no audit trail).
    pub audit_capacity: usize,
    /// Span-recorder ring capacity per operator (0 = no causal spans or
    /// enforcement-lag histograms).
    pub span_capacity: usize,
    /// Whether the executor samples latency/queue-depth histograms.
    pub metrics: bool,
}

impl TelemetryConfig {
    /// Everything off (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Audit trail at [`DEFAULT_AUDIT_CAPACITY`], spans at
    /// [`DEFAULT_SPAN_CAPACITY`], plus metrics sampling.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            audit_capacity: DEFAULT_AUDIT_CAPACITY,
            span_capacity: DEFAULT_SPAN_CAPACITY,
            metrics: true,
        }
    }

    /// Whether any telemetry is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.audit_capacity > 0 || self.span_capacity > 0 || self.metrics
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn disabled_recorder_never_stores() {
        let mut r = FlightRecorder::default();
        r.record(1, 2, AuditEvent::QuarantineReleased);
        assert!(!r.enabled());
        assert!(r.is_empty());
        assert_eq!(r.evicted(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = FlightRecorder::new(2);
        for tid in 0..5u64 {
            r.record(tid, tid * 10, AuditEvent::Shed { level: 1 });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.evicted(), 3);
        let tids: Vec<u64> = r.records().map(|rec| rec.tid).collect();
        assert_eq!(tids, vec![3, 4]);
    }

    #[test]
    fn record_encoding_is_deterministic_and_distinct() {
        let a = AuditRecord { tid: 7, ts: 9, event: AuditEvent::Released { role: 3, sp_ts: 5 } };
        let b = AuditRecord { tid: 7, ts: 9, event: AuditEvent::Suppressed { sp_ts: 5 } };
        let (mut ba, mut bb, mut ba2) = (Vec::new(), Vec::new(), Vec::new());
        a.encode(&mut ba);
        b.encode(&mut bb);
        a.encode(&mut ba2);
        assert_eq!(ba, ba2);
        assert_ne!(ba, bb);
    }

    #[test]
    fn trail_sections_are_canonically_ordered() {
        let mut t1 = AuditTrail::new();
        let mut t2 = AuditTrail::new();
        let mut rec = FlightRecorder::new(4);
        rec.record(1, 1, AuditEvent::StaleSpDiscarded);
        for op in [AuditOp::Node(1), AuditOp::Source(0), AuditOp::Node(0)] {
            t1.push_section(op, rec.clone());
        }
        for op in [AuditOp::Source(0), AuditOp::Node(0), AuditOp::Node(1)] {
            t2.push_section(op, rec.clone());
        }
        assert_eq!(t1.encode_to_vec(), t2.encode_to_vec());
        let order: Vec<AuditOp> = t1.sections().map(|(op, _)| op).collect();
        assert_eq!(order, vec![AuditOp::Source(0), AuditOp::Node(0), AuditOp::Node(1)]);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        for v in [0u64, 1, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1104);
        assert_eq!(h.percentile(100.0), 1023); // 1000 lands in [512, 1024)
        assert!(h.percentile(50.0) <= h.percentile(99.0));
        assert_eq!(Histogram::new().percentile(99.0), 0);
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 5, 900] {
            a.record(v);
        }
        for v in [0u64, 2, 1 << 40] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn registry_renders_sorted_and_parses_shape() {
        let mut m = MetricsRegistry::new();
        let mut h = Histogram::new();
        h.record(10);
        h.record(5000);
        m.merge_histogram("sp_operator_latency_ns", "per-op latency", "op=\"ss\"", &h);
        m.add_counter("sp_tuples_released_total", "released", "op=\"ss\"", 2);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE sp_operator_latency_ns histogram"));
        assert!(text.contains("sp_operator_latency_ns_bucket{op=\"ss\",le=\"+Inf\"} 2"));
        assert!(text.contains("sp_operator_latency_ns_count{op=\"ss\"} 2"));
        assert!(text.contains("sp_tuples_released_total{op=\"ss\"} 2"));
    }

    #[test]
    fn quantile_gauges_accompany_every_histogram() {
        let mut m = MetricsRegistry::new();
        let mut h = Histogram::new();
        for v in [10u64, 20, 5000] {
            h.record(v);
        }
        m.merge_histogram("sp_operator_latency_ns", "lat", "op=\"ss\"", &h);
        m.merge_histogram("sp_queue_depth", "depth", "", &Histogram::new());
        let text = m.render_prometheus();
        for family in ["sp_operator_latency_ns", "sp_queue_depth"] {
            for q in ["p50", "p90", "p99"] {
                assert!(text.contains(&format!("# TYPE {family}_{q} gauge")), "{text}");
            }
        }
        // Labeled series carry their labels; quantiles are monotone.
        assert!(text.contains("sp_operator_latency_ns_p50{op=\"ss\"}"), "{text}");
        let grab = |q: &str| -> u64 {
            let needle = format!("sp_operator_latency_ns_{q}{{op=\"ss\"}} ");
            let at = text.find(&needle).unwrap() + needle.len();
            text[at..].lines().next().unwrap().trim().parse().unwrap()
        };
        assert!(grab("p50") <= grab("p90") && grab("p90") <= grab("p99"));
        // An empty histogram still renders zeroed gauges.
        assert!(text.contains("sp_queue_depth_p99 0"), "{text}");
    }

    #[test]
    fn registry_merge_is_order_insensitive() {
        let mk = |vals: &[u64], c: u64| {
            let mut m = MetricsRegistry::new();
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            m.merge_histogram("lat", "h", "op=\"x\"", &h);
            m.add_counter("tot", "c", "", c);
            m
        };
        let (a, b) = (mk(&[1, 2, 3], 5), mk(&[9, 9], 7));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.render_prometheus(), ba.render_prometheus());
        assert_eq!(ab.counter("tot", ""), Some(12));
    }

    #[test]
    fn render_names_roles() {
        let mut catalog = RoleCatalog::new();
        let nurse = catalog.register_role("Nurse").unwrap();
        let mut rec = FlightRecorder::new(8);
        rec.record(42, 1300, AuditEvent::Released { role: nurse.raw(), sp_ts: 700 });
        let mut trail = AuditTrail::new();
        trail.push_section(AuditOp::Node(2), rec);
        let text = trail.render(Some(&catalog));
        assert!(text.contains("tuple 42 released to role Nurse via DDP @700ms"), "{text}");
    }

    fn sp_span(ts: u64) -> SpanRecord {
        SpanRecord::at(
            sp_core::trace::trace_id_for_sp(ts),
            sp_core::trace::site::ANALYZE,
            0,
            NO_TUPLE,
            ts,
        )
    }

    #[test]
    fn span_recorder_honors_capacity() {
        let mut off = SpanRecorder::default();
        off.record(sp_span(1));
        assert!(!off.enabled());
        assert!(off.is_empty());

        let mut r = SpanRecorder::new(2);
        for ts in 0..5u64 {
            r.record(sp_span(ts));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.evicted(), 3);
    }

    #[test]
    fn span_sheet_sections_are_canonically_ordered() {
        let mut rec = SpanRecorder::new(4);
        rec.record(sp_span(1000));
        let (mut a, mut b) = (SpanSheet::new(), SpanSheet::new());
        for op in [AuditOp::Node(1), AuditOp::Ingress, AuditOp::Source(0)] {
            a.push_section(op, rec.clone());
        }
        for op in [AuditOp::Source(0), AuditOp::Node(1), AuditOp::Ingress] {
            b.push_section(op, rec.clone());
        }
        assert_eq!(a.encode_to_vec(), b.encode_to_vec());
        let order: Vec<AuditOp> = a.sections().map(|(op, _)| op).collect();
        assert_eq!(order, vec![AuditOp::Ingress, AuditOp::Source(0), AuditOp::Node(1)]);
    }

    #[test]
    fn ingress_encodes_distinctly_from_other_ops() {
        let mut bufs: Vec<Vec<u8>> = Vec::new();
        for op in [AuditOp::Ingress, AuditOp::Source(0), AuditOp::Node(0), AuditOp::Supervisor] {
            let mut b = Vec::new();
            op.encode(&mut b);
            bufs.push(b);
        }
        for i in 0..bufs.len() {
            for j in (i + 1)..bufs.len() {
                assert_ne!(bufs[i], bufs[j]);
            }
        }
    }

    #[test]
    fn chrome_json_and_tree_link_the_causal_chain() {
        let sp_ts = 1000u64;
        let trace = sp_core::trace::trace_id_for_sp(sp_ts);
        let mut ingress = SpanRecorder::new(8);
        ingress.record(SpanRecord::at(
            trace,
            sp_core::trace::site::WIRE_FRAME,
            77,
            NO_TUPLE,
            sp_ts,
        ));
        let mut analyzer = SpanRecorder::new(8);
        analyzer.record(SpanRecord::at(
            trace,
            sp_core::trace::site::ANALYZE,
            sp_core::trace::span_id(trace, sp_core::trace::site::WIRE_FRAME),
            NO_TUPLE,
            sp_ts,
        ));
        let mut shield = SpanRecorder::new(8);
        shield.record(SpanRecord::at(
            trace,
            sp_core::trace::site::SHIELD_ENFORCE,
            sp_core::trace::span_id(trace, sp_core::trace::site::ANALYZE),
            NO_TUPLE,
            sp_ts,
        ));
        let mut sheet = SpanSheet::new();
        sheet.push_section(AuditOp::Ingress, ingress);
        sheet.push_section(AuditOp::Source(0), analyzer);
        sheet.push_section(AuditOp::Node(2), shield);

        let json = sheet.render_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"wire_frame\""));
        assert!(json.contains("\"name\":\"analyze\""));
        assert!(json.contains("\"name\":\"shield_enforce\""));
        assert!(json.contains(&format!("{trace:016x}")));

        let tree = sheet.render_tree();
        // Indentation deepens along the causal chain.
        let wire_at = tree.find("[ingress] wire_frame").unwrap();
        let analyze_at = tree.find("[source 0] analyze").unwrap();
        let shield_at = tree.find("[node 2] shield_enforce").unwrap();
        assert!(wire_at < analyze_at && analyze_at < shield_at, "{tree}");
        assert!(tree.contains("\n    [source 0] analyze"), "{tree}");
        assert!(tree.contains("\n      [node 2] shield_enforce"), "{tree}");
    }

    #[test]
    fn lag_tracker_measures_the_three_windows() {
        let mut lag = LagTracker::new();
        lag.observe_tuple(990);
        lag.observe_policy(1000); // in-order sp: clock behind its stamp
        assert_eq!(lag.enforce().count(), 1);
        assert_eq!(lag.enforce().sum(), 0, "in-order enforcement is immediate");
        lag.observe_tuple(1005);
        lag.observe_release(1005);
        lag.observe_release(1010); // only the first release counts
        assert_eq!(lag.release().count(), 1);
        assert_eq!(lag.release().sum(), 5);
        lag.observe_suppress(1020);
        lag.observe_suppress(1030);
        assert_eq!(lag.suppress().count(), 1);
        assert_eq!(lag.suppress().sum(), 20);

        // A late sp: enforcement lag is the reorder gap.
        lag.observe_tuple(2050);
        lag.observe_policy(2000);
        assert_eq!(lag.enforce().count(), 2);
        assert_eq!(lag.enforce().sum(), 50);

        lag.clear();
        assert_eq!(lag.enforce().count(), 0);
        assert_eq!(lag.release().count(), 0);
        assert_eq!(lag.suppress().count(), 0);
    }

    #[test]
    fn span_config_round_trip() {
        assert!(!TelemetryConfig::disabled().is_enabled());
        let cfg = TelemetryConfig { audit_capacity: 0, span_capacity: 16, metrics: false };
        assert!(cfg.is_enabled());
        assert_eq!(TelemetryConfig::enabled().span_capacity, DEFAULT_SPAN_CAPACITY);
    }
}
