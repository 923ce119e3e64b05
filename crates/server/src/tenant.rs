//! Supervised per-tenant sessions.
//!
//! Every tenant gets an isolated pipeline: a dedicated worker thread
//! owning its own [`sp_query::RunningDsms`], fed through a bounded
//! channel by whatever connections the tenant has open. The worker is
//! the tenant's *blast radius*: a panic inside its engine, a resume
//! failure, or a garbage verdict from the transport quarantines exactly
//! this session — the session stops consuming (fail closed, its last
//! good checkpoint stands) and every other tenant is untouched.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

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

fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
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

/// Commands a tenant worker accepts from connection threads and the
/// server's drain path.
pub(crate) enum Cmd {
    /// Push one decoded data frame; reply with the outcome. `trace` is
    /// the client-supplied causal context for the frame, if any.
    Frame {
        stream: StreamId,
        elements: Vec<StreamElement>,
        trace: Option<TraceContext>,
        reply: SyncSender<FrameOutcome>,
    },
    /// Quarantine the session (transport-level verdict, e.g. garbage).
    Quarantine { code: QuarantineCode },
    /// Report current session state without stopping.
    Report { reply: SyncSender<TenantReport> },
    /// Report current engine metrics without stopping.
    Metrics { reply: SyncSender<MetricsRegistry> },
    /// Report the merged span sheet (ingress + engine) without stopping.
    Trace { reply: SyncSender<SpanSheet> },
    /// Report the rendered audit trail without stopping.
    Audit { reply: SyncSender<String> },
    /// Checkpoint (unless quarantined), report, and stop.
    Drain { reply: SyncSender<TenantReport> },
}

/// Shared view of one tenant's worker.
pub(crate) struct TenantHandle {
    pub tx: SyncSender<Cmd>,
    /// Mirror of the session's input position (the HelloAck cursor).
    pub pos: Arc<AtomicU64>,
    pub quarantined: Arc<AtomicBool>,
    pub join: Mutex<Option<JoinHandle<()>>>,
}

/// The worker's owned state.
struct Worker {
    id: u32,
    dsms: Dsms,
    /// `None` once quarantined — the engine state is untrusted (panic)
    /// or was never trusted (resume failure), so it is dropped rather
    /// than consulted.
    session: Option<RunningDsms>,
    store: SharedStore,
    pos: Arc<AtomicU64>,
    quarantined: Arc<AtomicBool>,
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

impl Worker {
    fn quarantine(&mut self, code: QuarantineCode) {
        self.session = None;
        self.quarantine_code.get_or_insert(code);
        self.quarantined.store(true, Ordering::SeqCst);
    }

    /// Pushes one frame's elements, tracking admission refusals.
    /// Runs under `catch_unwind`: a panic anywhere in here quarantines
    /// the tenant (the caller handles the unwind).
    fn push_frame(
        &mut self,
        stream: StreamId,
        elements: Vec<StreamElement>,
        trace: Option<TraceContext>,
    ) -> FrameOutcome {
        self.frames_seen += 1;
        if self.cfg.chaos_fence_at_frame > 0 && self.frames_seen == self.cfg.chaos_fence_at_frame {
            // Chaos: a deposing epoch lands while this frame is already
            // past the connection-level fence check — the worker-level
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
            self.fence_audit.record(
                NO_TUPLE,
                self.pos.load(Ordering::SeqCst),
                AuditEvent::RecoveryFailClosed { refused },
            );
            return FrameOutcome::Fenced {
                fencing_epoch: self.repl.fencing_epoch.load(Ordering::SeqCst),
            };
        }
        let Some(session) = self.session.as_mut() else {
            return FrameOutcome::Quarantined {
                code: self.quarantine_code.unwrap_or(QuarantineCode::Panicked),
            };
        };
        let mut worst_retry: Option<u64> = None;
        for elem in elements {
            if let Some(chaos) = self.cfg.chaos_panic {
                if chaos.tenant == self.id && session.input_pos() >= chaos.at_pos {
                    panic!("chaos: deliberate tenant worker panic");
                }
            }
            let is_tuple = elem.is_tuple();
            if self.ingress.enabled() {
                // The WIRE_FRAME span: the element's arrival at the front
                // door, keyed to its own deterministic trace id and
                // parented to the client's root span when one was sent.
                let (trace_id, tid, ts) = match &elem {
                    StreamElement::Tuple(t) => (trace_id_for_tuple(t.tid.0), t.tid.0, t.ts.0),
                    StreamElement::Punctuation(sp) => (trace_id_for_sp(sp.ts.0), NO_TUPLE, sp.ts.0),
                };
                let parent = trace.map_or(0, |c| c.parent_span);
                self.ingress.record(SpanRecord::at(trace_id, site::WIRE_FRAME, parent, tid, ts));
            }
            match session.try_push(stream, elem) {
                Ok(()) => {
                    if is_tuple {
                        self.tuples_ingested += 1;
                    } else {
                        self.sps_ingested += 1;
                    }
                }
                Err(EngineError::Overloaded { retry_after_ms }) => {
                    worst_retry = Some(worst_retry.unwrap_or(0).max(retry_after_ms));
                }
                // Any other engine error fails closed per element: the
                // executor already dropped the in-flight elements, and
                // the error stays visible in the session's error log.
                Err(_) => {}
            }
        }
        let pos = session.input_pos();
        self.pos.store(pos, Ordering::SeqCst);
        self.frames_since_ckpt += 1;
        if self.cfg.checkpoint_every_frames > 0
            && self.frames_since_ckpt >= self.cfg.checkpoint_every_frames
        {
            self.checkpoint();
        }
        match worst_retry {
            Some(retry_after_ms) => FrameOutcome::Overloaded { retry_after_ms, pos },
            None => FrameOutcome::Ack { pos },
        }
    }

    fn checkpoint(&mut self) {
        if let Some(session) = self.session.as_ref() {
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
    fn span_sheet(&self) -> SpanSheet {
        let mut sheet = self.session.as_ref().map(RunningDsms::span_sheet).unwrap_or_default();
        if !self.ingress.is_empty() || self.ingress.evicted() > 0 {
            sheet.push_section(AuditOp::Ingress, self.ingress.clone());
        }
        sheet
    }

    fn report(&self) -> TenantReport {
        let (released, audit, admission_rejected) = match self.session.as_ref() {
            Some(session) => {
                let released = self
                    .dsms
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
            input_pos: self.pos.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
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

    fn run(mut self, rx: &Receiver<Cmd>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Cmd::Frame { stream, elements, trace, reply } => {
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| self.push_frame(stream, elements, trace)));
                    let outcome = match outcome {
                        Ok(o) => o,
                        Err(_) => {
                            // The engine state may be mid-mutation:
                            // untrusted. Fail closed — drop it, keep the
                            // last good checkpoint, quarantine.
                            self.quarantine(QuarantineCode::Panicked);
                            FrameOutcome::Quarantined { code: QuarantineCode::Panicked }
                        }
                    };
                    let _ = reply.send(outcome);
                }
                Cmd::Quarantine { code } => self.quarantine(code),
                Cmd::Report { reply } => {
                    let _ = reply.send(self.report());
                }
                Cmd::Metrics { reply } => {
                    let reg = self.session.as_ref().map(RunningDsms::metrics).unwrap_or_default();
                    let _ = reply.send(reg);
                }
                Cmd::Trace { reply } => {
                    let _ = reply.send(self.span_sheet());
                }
                Cmd::Audit { reply } => {
                    let text = self
                        .session
                        .as_ref()
                        .map(|s| s.audit_trail().render(None))
                        .unwrap_or_default();
                    let _ = reply.send(text);
                }
                Cmd::Drain { reply } => {
                    if !self.quarantined.load(Ordering::SeqCst) {
                        self.checkpoint();
                    }
                    let _ = reply.send(self.report());
                    return;
                }
            }
        }
        // All senders dropped without a drain: a hard kill. No final
        // checkpoint — the last periodic one stands, and resume replays
        // from it.
    }
}

/// Spawns the worker thread for a tenant, resuming from its store.
pub(crate) fn spawn_tenant(
    id: u32,
    factory: &SessionFactory,
    store: SharedStore,
    cfg: ServerConfig,
    repl: Arc<ReplState>,
    ship_tx: Option<SyncSender<ShipRequest>>,
) -> TenantHandle {
    let (tx, rx) = mpsc::sync_channel::<Cmd>(256);
    let pos = Arc::new(AtomicU64::new(0));
    let quarantined = Arc::new(AtomicBool::new(false));
    let factory = Arc::clone(factory);
    let (pos_t, quarantined_t) = (Arc::clone(&pos), Arc::clone(&quarantined));
    let join = std::thread::Builder::new().name(format!("tenant-{id}")).spawn(move || {
        let built = catch_unwind(AssertUnwindSafe(|| {
            let dsms = factory(id);
            let session = dsms.resume(&store);
            (dsms, session)
        }));
        let mut worker = Worker {
            id,
            dsms: Dsms::new(),
            session: None,
            store,
            pos: pos_t,
            quarantined: quarantined_t,
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
        };
        match built {
            Ok((dsms, Ok(session))) => {
                worker.pos.store(session.input_pos(), Ordering::SeqCst);
                // Epochs stay monotone across incarnations: a resumed
                // session checkpoints *after* the epoch it restored, so
                // replication idempotence (refuse epoch ≤ applied) never
                // mistakes a fresh post-restart checkpoint for a stale
                // duplicate.
                worker.epoch = worker.store.load_latest().map_or(0, |c| c.epoch);
                worker.dsms = dsms;
                worker.session = Some(session);
            }
            // A corrupt checkpoint or a factory panic both fail
            // closed: the tenant starts quarantined rather than
            // half-restored.
            Ok((dsms, Err(_))) => {
                worker.dsms = dsms;
                worker.quarantine(QuarantineCode::ResumeFailed);
            }
            Err(_) => worker.quarantine(QuarantineCode::ResumeFailed),
        }
        worker.run(&rx);
    });
    TenantHandle { tx, pos, quarantined, join: Mutex::new(join.ok()) }
}
