//! Supervised per-tenant sessions.
//!
//! Every tenant gets an isolated pipeline: one [`sp_query::RunningDsms`]
//! behind one lock. Whichever connection thread decoded a frame takes the
//! tenant's lock and pushes the frame itself, so a frame is the unit of
//! mutual exclusion and nothing is handed to another thread. The lock is
//! the tenant's *blast radius*: a panic inside its engine, a resume
//! failure, or a garbage verdict from the transport quarantines exactly
//! this session — the session stops consuming (fail closed, its last
//! good checkpoint stands) and every other tenant is untouched.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};

use sp_core::trace::{site, trace_id_for_sp, trace_id_for_tuple};
use sp_core::{QuarantineCode, StreamElement, StreamId, TraceContext};
use sp_engine::telemetry::NO_TUPLE;
use sp_engine::{
    AuditEvent, AuditOp, AuditTrail, CheckpointStore, EngineError, FlightRecorder, MemStore,
    MetricsRegistry, SpanRecord, SpanRecorder, SpanSheet,
};
use sp_query::{Dsms, RunningDsms};

use crate::config::ServerConfig;
use crate::replication::{ReplState, ShipRequest};

/// Builds a fresh (unstarted) [`Dsms`] for a tenant: streams, roles,
/// queries, admission and telemetry configuration. Called once per
/// tenant per server incarnation; the session itself is then started via
/// [`Dsms::resume`] against the tenant's checkpoint store.
pub type SessionFactory = Arc<dyn Fn(u32) -> Dsms + Send + Sync>;

/// A tenant checkpoint store that survives server restarts: an
/// [`MemStore`] behind an `Arc`, cloneable into each server incarnation.
/// (A production deployment would use [`sp_engine::FileStore`]; tests
/// and the load bench kill and resurrect servers in-process.)
#[derive(Debug, Clone, Default)]
pub struct SharedStore(Arc<Mutex<MemStore>>);

/// Recovers a poisoned guard. Only for data every update leaves valid at
/// every step (registries, counters, stores) — never for a tenant's
/// session, whose poison means what it says (see [`TenantHandle::with`]).
pub(crate) fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl CheckpointStore for SharedStore {
    fn save(&mut self, ckpt: &sp_engine::Checkpoint) -> Result<(), EngineError> {
        unpoison(self.0.lock()).save(ckpt)
    }

    fn load_latest(&self) -> Option<sp_engine::Checkpoint> {
        unpoison(self.0.lock()).load_latest()
    }

    fn count(&self) -> usize {
        unpoison(self.0.lock()).count()
    }
}

/// The durable side of a server: one checkpoint store per tenant.
/// Clone it, kill the server, start a new one with the clone — every
/// tenant resumes from its last checkpoint.
#[derive(Debug, Clone, Default)]
pub struct StoreMap {
    inner: Arc<Mutex<HashMap<u32, SharedStore>>>,
}

impl StoreMap {
    /// An empty store map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The store for a tenant, created on first use.
    #[must_use]
    pub fn store(&self, tenant: u32) -> SharedStore {
        unpoison(self.inner.lock()).entry(tenant).or_default().clone()
    }
}

/// Outcome of pushing one data frame into a tenant session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Every element consumed; `pos` is the session position after.
    Ack {
        /// Input position after the frame.
        pos: u64,
    },
    /// Frame consumed, but admission shed at least one tuple; the client
    /// should back off at least `retry_after_ms` of stream time.
    Overloaded {
        /// Largest retry hint admission produced for this frame.
        retry_after_ms: u64,
        /// Input position after the frame (shed tuples counted).
        pos: u64,
    },
    /// The session is quarantined; nothing was (or will be) consumed.
    Quarantined {
        /// Why the session is quarantined.
        code: QuarantineCode,
    },
    /// This node was deposed by a newer fencing epoch; nothing was (or
    /// will be) consumed — reconnect to the promoted standby.
    Fenced {
        /// The fencing epoch that deposed this node.
        fencing_epoch: u64,
    },
}

/// Everything a drained (or live-inspected) tenant session reports.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant id.
    pub tenant: u32,
    /// Elements consumed by the session (the replay cursor).
    pub input_pos: u64,
    /// Whether the session ended quarantined.
    pub quarantined: bool,
    /// The quarantine cause, if any.
    pub quarantine_code: Option<QuarantineCode>,
    /// Data tuples admitted into the plan.
    pub tuples_ingested: u64,
    /// Security punctuations ingested. Sps are never shed or refused.
    pub sps_ingested: u64,
    /// Tuples refused by per-tenant admission control.
    pub admission_rejected: u64,
    /// Per-query released tuples, in release order, keyed by query id.
    pub released: Vec<(u32, Vec<String>)>,
    /// The session's audit trail in canonical byte encoding (empty when
    /// telemetry is off or the session is quarantined).
    pub audit: Vec<u8>,
    /// Checkpoints this incarnation persisted.
    pub checkpoints_taken: u64,
    /// Elements refused because this node was fenced (deposed by a
    /// newer fencing epoch). Fenced refusals are fail-closed: counted,
    /// audited, never processed.
    pub fenced_refused: u64,
    /// Canonical audit bytes of the fence refusals (a supervisor-level
    /// `RecoveryFailClosed` trail; empty while unfenced).
    pub fence_audit: Vec<u8>,
}

/// One tenant as the server sees it: the session state behind its lock.
pub(crate) struct TenantHandle {
    /// Published copy of "`Tenant::quarantine_code` is set or the lock is
    /// poisoned", refreshed by [`TenantHandle::with`] before it unlocks.
    /// It lives outside the lock so `/healthz` and the quarantined-tenants
    /// gauge never wait on a tenant that is mid-frame or mid-resume.
    quarantined: AtomicBool,
    state: Mutex<Tenant>,
}

impl TenantHandle {
    /// A tenant that resumes from `store` the first time it is used.
    pub(crate) fn new(
        id: u32,
        factory: SessionFactory,
        store: SharedStore,
        cfg: ServerConfig,
        repl: Arc<ReplState>,
        ship_tx: Option<SyncSender<ShipRequest>>,
    ) -> Self {
        Self {
            quarantined: AtomicBool::new(false),
            state: Mutex::new(Tenant {
                id,
                factory: Some(factory),
                session: None,
                store,
                pos: 0,
                quarantine_code: None,
                tuples_ingested: 0,
                sps_ingested: 0,
                epoch: 0,
                frames_seen: 0,
                frames_since_ckpt: 0,
                checkpoints_taken: 0,
                cfg,
                repl,
                ship_tx,
                fenced_refused: 0,
                fence_audit: FlightRecorder::new(1024),
                ingress: SpanRecorder::new(cfg.trace_capacity),
            }),
        }
    }

    /// Whether the session is quarantined, without taking its lock.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::SeqCst)
    }

    /// Runs `f` on the (resumed) tenant under its lock. This is the only
    /// way to the state, and it holds the isolation rules:
    ///
    /// * a panic inside `f` quarantines the tenant — the engine state may
    ///   be mid-mutation, so it is dropped, the last good checkpoint
    ///   stands — and yields `Err(Panicked)`;
    /// * a poisoned lock (a panic that escaped the rule above, e.g. while
    ///   dropping that state) is never recovered: engine state may be
    ///   half-written, so it yields `Err(Panicked)` for good.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut Tenant) -> R) -> Result<R, QuarantineCode> {
        let Ok(mut tenant) = self.state.lock() else {
            self.quarantined.store(true, Ordering::SeqCst);
            return Err(QuarantineCode::Panicked);
        };
        let out = catch_unwind(AssertUnwindSafe(|| {
            tenant.ensure_started();
            f(&mut tenant)
        }));
        if out.is_err() {
            // Published first: if dropping the session panics too, the
            // lock is poisoned with the flag already up.
            self.quarantined.store(true, Ordering::SeqCst);
            tenant.quarantine(QuarantineCode::Panicked);
        }
        self.quarantined.store(tenant.quarantine_code.is_some(), Ordering::SeqCst);
        out.map_err(|_| QuarantineCode::Panicked)
    }

    /// The handshake: the replay cursor, or why there is no session. Read
    /// under the lock, so frames another connection of this tenant already
    /// handed over are counted before a reconnecting client is told where
    /// to resume.
    pub(crate) fn hello(&self) -> Result<u64, QuarantineCode> {
        self.with(|t| t.quarantine_code.map_or(Ok(t.pos), Err))?
    }
}

/// One tenant's session state. Reached only through
/// [`TenantHandle::with`].
pub(crate) struct Tenant {
    id: u32,
    /// Taken by the first use, which builds and resumes the session.
    factory: Option<SessionFactory>,
    /// The running session and the `Dsms` it was started from. `None`
    /// once quarantined — the engine state is untrusted (panic) or was
    /// never trusted (resume failure), so it is dropped rather than
    /// consulted.
    session: Option<(Dsms, RunningDsms)>,
    store: SharedStore,
    /// The session's input position after the last whole frame (the
    /// HelloAck cursor); outlives a dropped session.
    pub(crate) pos: u64,
    quarantine_code: Option<QuarantineCode>,
    tuples_ingested: u64,
    sps_ingested: u64,
    epoch: u64,
    frames_seen: u64,
    frames_since_ckpt: u64,
    checkpoints_taken: u64,
    cfg: ServerConfig,
    repl: Arc<ReplState>,
    ship_tx: Option<SyncSender<ShipRequest>>,
    fenced_refused: u64,
    fence_audit: FlightRecorder,
    /// Wire-frame arrival spans (site `WIRE_FRAME`), parented to the
    /// client-supplied trace context when one rode ahead of the frame.
    ingress: SpanRecorder,
}

impl Tenant {
    /// Builds the session and resumes it from the store, once. This runs
    /// under the tenant's lock, never the tenants-map lock: a slow or
    /// panicking resume holds up this tenant's `Hello` only.
    fn ensure_started(&mut self) {
        let Some(factory) = self.factory.take() else { return };
        let built = catch_unwind(AssertUnwindSafe(|| {
            let dsms = factory(self.id);
            let session = dsms.resume(&self.store);
            (dsms, session)
        }));
        match built {
            Ok((dsms, Ok(session))) => {
                self.pos = session.input_pos();
                // Epochs stay monotone across incarnations: a resumed
                // session checkpoints *after* the epoch it restored, so
                // replication idempotence (refuse epoch ≤ applied) never
                // mistakes a fresh post-restart checkpoint for a stale
                // duplicate.
                self.epoch = self.store.load_latest().map_or(0, |c| c.epoch);
                self.session = Some((dsms, session));
            }
            // A corrupt checkpoint or a factory panic both fail
            // closed: the tenant starts quarantined rather than
            // half-restored.
            _ => self.quarantine(QuarantineCode::ResumeFailed),
        }
    }

    /// Fails the session closed. The first cause wins.
    pub(crate) fn quarantine(&mut self, code: QuarantineCode) {
        self.session = None;
        self.quarantine_code.get_or_insert(code);
    }

    /// Pushes one decoded data frame's elements into the session,
    /// tracking admission refusals.
    pub(crate) fn push_frame(
        &mut self,
        stream: StreamId,
        elements: Vec<StreamElement>,
        trace: Option<TraceContext>,
    ) -> FrameOutcome {
        self.frames_seen += 1;
        if self.cfg.chaos_fence_at_frame > 0 && self.frames_seen == self.cfg.chaos_fence_at_frame {
            // Chaos: a deposing epoch lands while this frame is already
            // past the connection-level fence check — the tenant-level
            // gate below must fail closed on it.
            let epoch = self.repl.fencing_epoch.load(Ordering::SeqCst) + 1;
            self.repl.observe_epoch(epoch);
        }
        if self.repl.fenced.load(Ordering::SeqCst) {
            // Deposed: a fenced node never feeds another element into
            // its engine, so it can never release another tuple. The
            // refusal is audited the same way the crash supervisor
            // audits a terminal fail-closed state.
            let refused = elements.len() as u64;
            self.fenced_refused += refused;
            self.fence_audit.record(NO_TUPLE, self.pos, AuditEvent::RecoveryFailClosed { refused });
            return FrameOutcome::Fenced {
                fencing_epoch: self.repl.fencing_epoch.load(Ordering::SeqCst),
            };
        }
        let Some((_, session)) = self.session.as_mut() else {
            return FrameOutcome::Quarantined {
                code: self.quarantine_code.unwrap_or(QuarantineCode::Panicked),
            };
        };
        if let Some(chaos) = self.cfg.chaos_panic {
            if chaos.tenant == self.id && session.input_pos() + elements.len() as u64 > chaos.at_pos
            {
                panic!("chaos: deliberate tenant panic");
            }
        }
        if self.ingress.enabled() {
            // The WIRE_FRAME spans: each element's arrival at the front
            // door, keyed to its own deterministic trace id and parented
            // to the client's root span when one was sent.
            let parent = trace.map_or(0, |c| c.parent_span);
            for elem in &elements {
                let (trace_id, tid, ts) = match elem {
                    StreamElement::Tuple(t) => (trace_id_for_tuple(t.tid.0), t.tid.0, t.ts.0),
                    StreamElement::Punctuation(sp) => (trace_id_for_sp(sp.ts.0), NO_TUPLE, sp.ts.0),
                };
                self.ingress.record(SpanRecord::at(trace_id, site::WIRE_FRAME, parent, tid, ts));
            }
        }
        let Ok(frame) = session.push_frame(stream, elements) else {
            // An operator failed mid-frame: the executor discarded what
            // was staged behind it, possibly a policy update bound for
            // another query's shield. Engine state may be mid-mutation,
            // exactly as after a panic, so the session is dropped.
            self.quarantine(QuarantineCode::Panicked);
            return FrameOutcome::Quarantined { code: QuarantineCode::Panicked };
        };
        self.tuples_ingested += frame.tuples;
        self.sps_ingested += frame.sps;
        let pos = session.input_pos();
        self.pos = pos;
        self.frames_since_ckpt += 1;
        if self.cfg.checkpoint_every_frames > 0
            && self.frames_since_ckpt >= self.cfg.checkpoint_every_frames
        {
            self.checkpoint();
        }
        match frame.retry_after_ms {
            Some(retry_after_ms) => FrameOutcome::Overloaded { retry_after_ms, pos },
            None => FrameOutcome::Ack { pos },
        }
    }

    fn checkpoint(&mut self) {
        if let Some((_, session)) = self.session.as_ref() {
            self.epoch += 1;
            if session.checkpoint_to(self.epoch, &mut self.store).is_ok() {
                self.checkpoints_taken += 1;
                self.frames_since_ckpt = 0;
                if let Some(tx) = self.ship_tx.as_ref() {
                    // Non-blocking: the shipper always ships the store's
                    // *latest* checkpoint, so a full queue just means
                    // this epoch rides along with the next notification.
                    let _ = tx.try_send(ShipRequest { tenant: self.id });
                }
            }
        }
    }

    /// The merged span sheet: the ingress (wire-frame) section followed
    /// by the engine's analyzer/operator sections, in canonical order.
    pub(crate) fn span_sheet(&self) -> SpanSheet {
        let mut sheet = self.session.as_ref().map(|(_, s)| s.span_sheet()).unwrap_or_default();
        if !self.ingress.is_empty() || self.ingress.evicted() > 0 {
            sheet.push_section(AuditOp::Ingress, self.ingress.clone());
        }
        sheet
    }

    /// Engine metrics (empty once quarantined).
    pub(crate) fn metrics(&self) -> MetricsRegistry {
        self.session.as_ref().map(|(_, s)| s.metrics()).unwrap_or_default()
    }

    /// The rendered audit trail (empty once quarantined).
    pub(crate) fn audit_text(&self) -> String {
        self.session.as_ref().map(|(_, s)| s.audit_trail().render(None)).unwrap_or_default()
    }

    /// Graceful end: checkpoint (unless quarantined), then report.
    pub(crate) fn drain(&mut self) -> TenantReport {
        if self.quarantine_code.is_none() {
            self.checkpoint();
        }
        self.report()
    }

    pub(crate) fn report(&self) -> TenantReport {
        let (released, audit, admission_rejected) = match self.session.as_ref() {
            Some((dsms, session)) => {
                let released = dsms
                    .queries()
                    .iter()
                    .map(|q| {
                        let tuples =
                            session.results(q.id).tuples().map(|t| t.to_string()).collect();
                        (q.id.raw(), tuples)
                    })
                    .collect();
                (
                    released,
                    session.audit_trail().encode_to_vec(),
                    session.degradation().admission_rejected,
                )
            }
            None => (Vec::new(), Vec::new(), 0),
        };
        TenantReport {
            tenant: self.id,
            input_pos: self.pos,
            quarantined: self.quarantine_code.is_some(),
            quarantine_code: self.quarantine_code,
            tuples_ingested: self.tuples_ingested,
            sps_ingested: self.sps_ingested,
            admission_rejected,
            released,
            audit,
            checkpoints_taken: self.checkpoints_taken,
            fenced_refused: self.fenced_refused,
            fence_audit: if self.fence_audit.is_empty() {
                Vec::new()
            } else {
                let mut trail = AuditTrail::new();
                trail.push_section(AuditOp::Supervisor, self.fence_audit.clone());
                trail.encode_to_vec()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_engine::TelemetryConfig;
    use sp_mog::{location_stream, MovingObjectSim, WorkloadConfig};

    fn handle(id: u32) -> TenantHandle {
        let factory: SessionFactory = Arc::new(|tenant| {
            let mut dsms = Dsms::new();
            dsms.register_stream(StreamId(1), MovingObjectSim::location_schema()).unwrap();
            dsms.register_role("analyst").unwrap();
            let subject = dsms.register_subject(&format!("tenant-{tenant}"), &["analyst"]).unwrap();
            dsms.submit("SELECT obj_id FROM LocationUpdates WHERE speed >= 5.0", subject).unwrap();
            dsms.telemetry = Some(TelemetryConfig::enabled());
            dsms
        });
        let repl = Arc::new(ReplState::new(1));
        TenantHandle::new(id, factory, SharedStore::default(), ServerConfig::default(), repl, None)
    }

    #[test]
    fn poisoned_lock_reads_as_panicked_and_spares_the_neighbour() {
        let w = location_stream(&WorkloadConfig { objects: 20, ticks: 10, ..Default::default() });
        let frames: Vec<&[StreamElement]> = w.elements.chunks(16).collect();
        let feed = |h: &TenantHandle, frames: &[&[StreamElement]]| -> Vec<_> {
            frames.iter().map(|f| h.with(|t| t.push_frame(w.stream, f.to_vec(), None))).collect()
        };
        let alone = handle(0);
        feed(&alone, &frames);
        let want = alone.with(|t| t.report()).unwrap();
        assert!(want.released.iter().any(|(_, v)| !v.is_empty()));

        let (neighbour, victim) = (handle(0), handle(1));
        let (head, tail) = frames.split_at(frames.len() / 2);
        feed(&neighbour, head);
        assert!(feed(&victim, head).iter().all(|o| matches!(o, Ok(FrameOutcome::Ack { .. }))));
        assert_eq!(victim.hello(), Ok(head.iter().map(|f| f.len() as u64).sum()));

        // A panic that unwinds through the guard itself, past `with`'s
        // `catch_unwind`: the state may be half-written for all anyone knows.
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = victim.state.lock().unwrap();
            panic!("poisoning tenant 1's lock");
        }));
        assert!(poisoned.is_err());

        assert!(feed(&victim, tail).iter().all(|o| *o == Err(QuarantineCode::Panicked)));
        assert_eq!(victim.hello(), Err(QuarantineCode::Panicked));
        assert!(victim.is_quarantined());
        assert!(victim.with(|t| t.report()).is_err(), "a poisoned tenant reports no releases");

        feed(&neighbour, tail);
        assert!(!neighbour.is_quarantined());
        let got = neighbour.with(|t| t.report()).unwrap();
        assert_eq!(got.released, want.released);
        assert_eq!(got.audit, want.audit);
        assert_eq!(got.input_pos, w.elements.len() as u64);
    }
}
