//! Primary/standby checkpoint-shipping replication with fenced,
//! fail-closed failover.
//!
//! The primary ships every persisted tenant checkpoint to a [`Standby`]
//! over the existing CRC-framed wire envelope: a checkpoint becomes a
//! run of [`Control::CheckpointSegment`] frames followed by one
//! [`Control::CheckpointCommit`] carrying the full length and CRC-32 of
//! the assembled bytes. The standby applies a commit only when the
//! reassembled bytes verify *and* the checkpoint passes a dry run
//! through the tenant's real `Dsms::resume` path — a torn, reordered,
//! or stale checkpoint can never roll a standby's policy table
//! backwards or leave it half-applied. Applied checkpoints land in the
//! standby's [`StoreMap`], so promotion is nothing special: start a
//! normal [`Server`] over the same stores and every tenant resumes
//! exactly as it would after a local crash, with clients re-homed by
//! the server-authoritative resume cursor (exactly-once across the
//! switch).
//!
//! Failover is *fenced*: every replication frame carries a monotone
//! fencing epoch, and [`StandbyHandle::promote`] claims `highest seen +
//! 1`, writing a [`Control::Fence`] to any still-connected primary. A
//! deposed primary that sees a higher epoch — on the replication link
//! or in an echo — fails closed immediately: tenant sessions refuse all
//! further input (counted and audited as `RecoveryFailClosed`), client
//! connections get a `Fence` frame so they re-home to the standby, and
//! `/healthz` reports unhealthy. A fenced node never releases another
//! tuple; losing input is acceptable, leaking it is not.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sp_core::trace::{site, trace_id_for_checkpoint};
use sp_core::wire::{crc32, Control, StreamDecoder, WireFrame};
use sp_engine::telemetry::NO_TUPLE;
use sp_engine::{
    AuditOp, Checkpoint, CheckpointStore, FaultInjector, MemStore, SpanRecord, SpanRecorder,
    SpanSheet,
};

use crate::config::ServerConfig;
use crate::server::Server;
use crate::tenant::{unpoison, SessionFactory, StoreMap};
use crate::ServerHandle;

// ---------------------------------------------------------------------------
// Shared fencing + lag state (lives inside ServerState on the primary)
// ---------------------------------------------------------------------------

/// Replication-facing state shared between the server's tenants, its
/// connection threads, the shipper thread, and the metrics listener.
pub(crate) struct ReplState {
    /// This node's fencing epoch. Starts at the configured epoch and
    /// only ever rises (to the highest epoch seen on the link).
    pub fencing_epoch: AtomicU64,
    /// Set the instant a higher epoch is seen: this node is deposed and
    /// must never release another tuple.
    pub fenced: AtomicBool,
    /// Highest checkpoint epoch shipped per tenant.
    pub shipped: Mutex<HashMap<u32, u64>>,
    /// Highest checkpoint epoch the standby acked per tenant.
    pub acked: Mutex<HashMap<u32, u64>>,
    /// Replication frames written to the link.
    pub frames_shipped: AtomicU64,
    /// Whether the shipper currently holds a live standby connection.
    pub standby_connected: AtomicBool,
    /// Set by a hard kill: the shipper dies with the node, abandoning
    /// queued and fault-held frames exactly as a crash would.
    pub killed: AtomicBool,
}

impl ReplState {
    pub(crate) fn new(fencing_epoch: u64) -> Self {
        Self {
            fencing_epoch: AtomicU64::new(fencing_epoch),
            fenced: AtomicBool::new(false),
            shipped: Mutex::new(HashMap::new()),
            acked: Mutex::new(HashMap::new()),
            frames_shipped: AtomicU64::new(0),
            standby_connected: AtomicBool::new(false),
            killed: AtomicBool::new(false),
        }
    }

    /// Observes an epoch from the link; a higher one fences this node.
    pub(crate) fn observe_epoch(&self, epoch: u64) {
        let own = self.fencing_epoch.load(Ordering::SeqCst);
        if epoch > own {
            self.fencing_epoch.fetch_max(epoch, Ordering::SeqCst);
            self.fenced.store(true, Ordering::SeqCst);
        }
    }

    /// Per-tenant replication lag in epochs (shipped − acked).
    pub(crate) fn lag_epochs(&self) -> Vec<(u32, u64)> {
        let shipped = unpoison(self.shipped.lock());
        let acked = unpoison(self.acked.lock());
        let mut lag: Vec<(u32, u64)> = shipped
            .iter()
            .map(|(t, s)| (*t, s.saturating_sub(acked.get(t).copied().unwrap_or(0))))
            .collect();
        lag.sort_unstable();
        lag
    }
}

/// A tenant's note to the shipper: this tenant persisted a checkpoint;
/// ship the store's latest (notifications coalesce naturally — the
/// shipper skips epochs it already shipped).
pub(crate) struct ShipRequest {
    pub tenant: u32,
}

// ---------------------------------------------------------------------------
// The shipper (primary side)
// ---------------------------------------------------------------------------

struct Shipper {
    cfg: ServerConfig,
    target: SocketAddr,
    repl: Arc<ReplState>,
    stores: StoreMap,
    conn: Option<(TcpStream, StreamDecoder)>,
    faults: Option<FaultInjector>,
}

impl Shipper {
    /// Writes one control frame through the fault injector (if any).
    /// Returns false when the connection died.
    fn write_frame(&mut self, ctrl: &Control) -> bool {
        // A dark link swallows the frame: the primary "died" mid-ship as
        // far as the standby can tell, while it believes it shipped.
        let dark = self.faults.as_ref().is_some_and(FaultInjector::dark);
        let bytes = ctrl.encode_to_vec();
        let deliveries = match self.faults.as_mut() {
            Some(inj) => inj.offer(&bytes),
            None => vec![bytes],
        };
        if dark {
            return true;
        }
        let Some((stream, _)) = self.conn.as_mut() else { return false };
        for frame in deliveries {
            if stream.write_all(&frame).is_err() {
                self.conn = None;
                self.repl.standby_connected.store(false, Ordering::SeqCst);
                return false;
            }
            self.repl.frames_shipped.fetch_add(1, Ordering::SeqCst);
        }
        true
    }

    /// Ensures a live connection with a completed `ReplHello` exchange.
    fn ensure_connected(&mut self) -> bool {
        if self.conn.is_some() {
            return true;
        }
        let Ok(stream) = TcpStream::connect(self.target) else { return false };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
        self.conn = Some((stream, StreamDecoder::new(crate::config::MAX_FRAME_LEN)));
        self.repl.standby_connected.store(true, Ordering::SeqCst);
        let epoch = self.repl.fencing_epoch.load(Ordering::SeqCst);
        self.write_frame(&Control::ReplHello { fencing_epoch: epoch })
    }

    /// Drains whatever the standby sent back: commit echoes are acks,
    /// and any frame carrying a higher fencing epoch deposes this node.
    fn poll_replies(&mut self) {
        let Some((stream, dec)) = self.conn.as_mut() else { return };
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => {
                    self.conn = None;
                    self.repl.standby_connected.store(false, Ordering::SeqCst);
                    return;
                }
                Ok(n) => {
                    for frame in dec.feed(&buf[..n]) {
                        let WireFrame::Control(ctrl) = frame else { continue };
                        match ctrl {
                            Control::CheckpointCommit { tenant, epoch, fencing_epoch, .. } => {
                                self.repl.observe_epoch(fencing_epoch);
                                let mut acked = unpoison(self.repl.acked.lock());
                                let e = acked.entry(tenant).or_insert(0);
                                *e = (*e).max(epoch);
                            }
                            Control::ReplHello { fencing_epoch }
                            | Control::Fence { fencing_epoch } => {
                                self.repl.observe_epoch(fencing_epoch);
                            }
                            _ => {}
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return;
                }
                Err(_) => {
                    self.conn = None;
                    self.repl.standby_connected.store(false, Ordering::SeqCst);
                    return;
                }
            }
        }
    }

    /// Ships the latest durable checkpoint of one tenant as segments +
    /// commit.
    fn ship(&mut self, tenant: u32) {
        if !self.ensure_connected() {
            return;
        }
        let Some(ckpt) = self.stores.store(tenant).load_latest() else { return };
        let already = unpoison(self.repl.shipped.lock()).get(&tenant).copied().unwrap_or(0);
        if ckpt.epoch <= already {
            return; // A stale notification; this epoch already shipped.
        }
        let bytes = ckpt.encode_to_vec();
        let fencing_epoch = self.repl.fencing_epoch.load(Ordering::SeqCst);
        let chunk = self.cfg.repl_chunk_bytes.max(1);
        let total = u32::try_from(bytes.len().div_ceil(chunk)).unwrap_or(u32::MAX);
        for (seq, part) in bytes.chunks(chunk).enumerate() {
            let seg = Control::CheckpointSegment {
                tenant,
                epoch: ckpt.epoch,
                fencing_epoch,
                seq: seq as u32,
                total,
                bytes: part.to_vec(),
            };
            if !self.write_frame(&seg) {
                return;
            }
        }
        let commit = Control::CheckpointCommit {
            tenant,
            epoch: ckpt.epoch,
            fencing_epoch,
            len: bytes.len() as u32,
            crc: crc32(&bytes),
        };
        if self.write_frame(&commit) {
            let mut shipped = unpoison(self.repl.shipped.lock());
            let e = shipped.entry(tenant).or_insert(0);
            *e = (*e).max(ckpt.epoch);
        }
    }

    fn run(mut self, rx: &Receiver<ShipRequest>) {
        loop {
            if self.repl.killed.load(Ordering::SeqCst) {
                // A hard kill: die mid-whatever, like a real crash.
                return;
            }
            if self.repl.fenced.load(Ordering::SeqCst) {
                // Deposed: never write another replication frame.
                return;
            }
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(req) => {
                    self.ship(req.tenant);
                    self.poll_replies();
                }
                Err(RecvTimeoutError::Timeout) => self.poll_replies(),
                Err(RecvTimeoutError::Disconnected) => {
                    if self.repl.killed.load(Ordering::SeqCst) {
                        return;
                    }
                    // Every tenant is gone (drain or kill): flush frames
                    // the fault injector still holds, collect final
                    // acks, and exit.
                    if let Some(held) = self.faults.as_mut().map(FaultInjector::drain) {
                        if let Some((stream, _)) = self.conn.as_mut() {
                            for frame in held {
                                if stream.write_all(&frame).is_err() {
                                    break;
                                }
                                self.repl.frames_shipped.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                    for _ in 0..5 {
                        self.poll_replies();
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    return;
                }
            }
        }
    }
}

/// Spawns the checkpoint-shipping thread on the primary, with the queue
/// that feeds it. Tenants notify without blocking; the shipper exits
/// once every sender is dropped.
pub(crate) fn spawn_shipper(
    cfg: ServerConfig,
    target: SocketAddr,
    repl: Arc<ReplState>,
    stores: StoreMap,
) -> std::io::Result<(SyncSender<ShipRequest>, JoinHandle<()>)> {
    let (tx, rx) = mpsc::sync_channel(1024);
    let shipper = Shipper {
        cfg,
        target,
        repl,
        stores,
        conn: None,
        faults: cfg.repl_faults.map(FaultInjector::new),
    };
    let join =
        std::thread::Builder::new().name("sp-repl-ship".into()).spawn(move || shipper.run(&rx))?;
    Ok((tx, join))
}

// ---------------------------------------------------------------------------
// The standby
// ---------------------------------------------------------------------------

/// Segment reassembly buffers: `(tenant, epoch)` → per-seq slots.
type PendingSegments = HashMap<(u32, u64), Vec<Option<Vec<u8>>>>;

/// Standby-side shared state (also serves the observability listener).
pub(crate) struct StandbyState {
    pub factory: SessionFactory,
    pub stores: StoreMap,
    /// Highest fencing epoch seen from any primary.
    pub seen_epoch: AtomicU64,
    /// Non-zero once promoted: the epoch this node claimed.
    pub promoted_epoch: AtomicU64,
    /// Highest checkpoint epoch applied per tenant.
    pub applied: Mutex<HashMap<u32, u64>>,
    /// Highest checkpoint epoch seen shipped per tenant (lag = shipped
    /// − applied).
    pub shipped: Mutex<HashMap<u32, u64>>,
    /// Segment reassembly buffers: `(tenant, epoch)` → slots.
    pending: Mutex<PendingSegments>,
    /// Commits refused (bad bytes, stale epoch race, resume dry-run
    /// failure) — refusals are fail-closed, never partial applies.
    pub apply_failures: AtomicU64,
    /// Commits verified and applied.
    pub commits_applied: AtomicU64,
    pub stopping: AtomicBool,
    /// Live replication connections (fenced on promote).
    conns: Mutex<Vec<TcpStream>>,
    /// `STANDBY_APPLY` spans: one per verified-and-applied checkpoint,
    /// keyed to the deterministic `(tenant, epoch)` checkpoint trace id.
    pub(crate) spans: Mutex<SpanRecorder>,
}

impl StandbyState {
    /// Per-tenant replication lag in epochs as seen by the standby.
    pub(crate) fn lag_epochs(&self) -> Vec<(u32, u64)> {
        let shipped = unpoison(self.shipped.lock());
        let applied = unpoison(self.applied.lock());
        let mut lag: Vec<(u32, u64)> = shipped
            .iter()
            .map(|(t, s)| (*t, s.saturating_sub(applied.get(t).copied().unwrap_or(0))))
            .collect();
        lag.sort_unstable();
        lag
    }

    /// Verifies and applies one committed checkpoint. The apply is
    /// all-or-nothing: reassembled bytes must match the commit's length
    /// and CRC, decode as a checkpoint for a *newer* epoch than what is
    /// already applied, and pass a dry run through the tenant's real
    /// `Dsms::resume` — only then is it saved into the tenant's store.
    fn apply_commit(&self, tenant: u32, epoch: u64, len: u32, crc: u32) -> bool {
        let assembled = {
            let mut pending = unpoison(self.pending.lock());
            pending.remove(&(tenant, epoch))
        };
        {
            let mut shipped = unpoison(self.shipped.lock());
            let e = shipped.entry(tenant).or_insert(0);
            *e = (*e).max(epoch);
        }
        let applied_epoch = unpoison(self.applied.lock()).get(&tenant).copied().unwrap_or(0);
        if epoch <= applied_epoch {
            // Duplicate or reordered delivery of an old commit: ack it
            // (idempotent) but never roll the store backwards.
            return true;
        }
        let Some(slots) = assembled else {
            self.apply_failures.fetch_add(1, Ordering::SeqCst);
            return false; // Segments lost (partition); await a re-ship.
        };
        if slots.iter().any(Option::is_none) {
            self.apply_failures.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        let bytes: Vec<u8> = slots.into_iter().flatten().flatten().collect();
        if bytes.len() != len as usize || crc32(&bytes) != crc {
            self.apply_failures.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        let Ok(ckpt) = Checkpoint::decode(&mut bytes.as_slice()) else {
            self.apply_failures.fetch_add(1, Ordering::SeqCst);
            return false;
        };
        if ckpt.epoch != epoch {
            self.apply_failures.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        // Dry run through the real resume path: a checkpoint the engine
        // would refuse at failover time is refused *now*, while the
        // primary is still alive to ship a good one.
        let factory = Arc::clone(&self.factory);
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let mut scratch = MemStore::new();
            scratch.save(&ckpt).is_ok() && factory(tenant).resume(&scratch).is_ok()
        }))
        .unwrap_or(false);
        if !ok {
            self.apply_failures.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        if self.stores.store(tenant).save(&ckpt).is_err() {
            self.apply_failures.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        unpoison(self.applied.lock()).insert(tenant, epoch);
        self.commits_applied.fetch_add(1, Ordering::SeqCst);
        {
            // Deterministic apply span: the same checkpoint applied on
            // any standby produces the same record (ts is the epoch —
            // stream-time-like, never wall clock).
            let trace = trace_id_for_checkpoint(tenant, epoch);
            let mut spans = unpoison(self.spans.lock());
            spans.record(SpanRecord::at(trace, site::STANDBY_APPLY, 0, NO_TUPLE, epoch));
        }
        true
    }

    /// The standby's span sheet: one supervisor-level section of
    /// `STANDBY_APPLY` spans.
    pub(crate) fn span_sheet(&self) -> SpanSheet {
        let rec = unpoison(self.spans.lock()).clone();
        let mut sheet = SpanSheet::new();
        if !rec.is_empty() || rec.evicted() > 0 {
            sheet.push_section(AuditOp::Supervisor, rec);
        }
        sheet
    }
}

/// A running standby: applies shipped checkpoints, promotable into a
/// full [`Server`].
pub struct Standby;

/// Handle to a running [`Standby`].
pub struct StandbyHandle {
    /// The replication listener address (the primary's `replicate_to`).
    pub repl_addr: SocketAddr,
    /// `/metrics` + `/healthz` address when enabled.
    pub metrics_addr: Option<SocketAddr>,
    state: Arc<StandbyState>,
    acceptor: Option<JoinHandle<()>>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics_join: Option<JoinHandle<()>>,
}

impl Standby {
    /// Starts a standby on a 127.0.0.1 ephemeral port. Checkpoints the
    /// primary ships are verified and applied into `stores`; promotion
    /// starts a normal server over those stores.
    ///
    /// # Errors
    ///
    /// Fails when the replication listener cannot bind.
    pub fn start(
        factory: SessionFactory,
        stores: StoreMap,
        metrics: bool,
    ) -> std::io::Result<StandbyHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let repl_addr = listener.local_addr()?;
        let state = Arc::new(StandbyState {
            factory,
            stores,
            seen_epoch: AtomicU64::new(0),
            promoted_epoch: AtomicU64::new(0),
            applied: Mutex::new(HashMap::new()),
            shipped: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            apply_failures: AtomicU64::new(0),
            commits_applied: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            spans: Mutex::new(SpanRecorder::new(1024)),
        });
        let conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (metrics_addr, metrics_join) = if metrics {
            let (a, j) = crate::metrics::spawn(Arc::clone(&state))?;
            (Some(a), Some(j))
        } else {
            (None, None)
        };
        let accept_state = Arc::clone(&state);
        let accept_joins = Arc::clone(&conn_joins);
        let acceptor =
            std::thread::Builder::new().name("sp-standby".into()).spawn(move || loop {
                if accept_state.stopping.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(peer) = stream.try_clone() {
                            unpoison(accept_state.conns.lock()).push(peer);
                        }
                        let conn_state = Arc::clone(&accept_state);
                        if let Ok(j) = std::thread::Builder::new()
                            .name("sp-standby-conn".into())
                            .spawn(move || standby_conn(&conn_state, stream))
                        {
                            unpoison(accept_joins.lock()).push(j);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            })?;
        Ok(StandbyHandle {
            repl_addr,
            metrics_addr,
            state,
            acceptor: Some(acceptor),
            conn_joins,
            metrics_join,
        })
    }
}

fn standby_conn(state: &Arc<StandbyState>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut dec = StreamDecoder::new(1 << 24);
    let mut buf = [0u8; 16 * 1024];
    loop {
        if state.stopping.load(Ordering::SeqCst) {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        for frame in dec.feed(&buf[..n]) {
            let WireFrame::Control(ctrl) = frame else { continue };
            let promoted = state.promoted_epoch.load(Ordering::SeqCst);
            if promoted > 0 {
                // Already promoted: everything a stale primary sends is
                // answered with the fence.
                let _ =
                    stream.write_all(&Control::Fence { fencing_epoch: promoted }.encode_to_vec());
                continue;
            }
            match ctrl {
                Control::ReplHello { fencing_epoch } => {
                    state.seen_epoch.fetch_max(fencing_epoch, Ordering::SeqCst);
                    let seen = state.seen_epoch.load(Ordering::SeqCst);
                    let _ = stream
                        .write_all(&Control::ReplHello { fencing_epoch: seen }.encode_to_vec());
                }
                Control::CheckpointSegment { tenant, epoch, fencing_epoch, seq, total, bytes } => {
                    let prev = state.seen_epoch.fetch_max(fencing_epoch, Ordering::SeqCst);
                    if fencing_epoch < prev {
                        // A frame from a deposed primary: fence it.
                        let _ = stream
                            .write_all(&Control::Fence { fencing_epoch: prev }.encode_to_vec());
                        continue;
                    }
                    let mut pending = unpoison(state.pending.lock());
                    let slots = pending
                        .entry((tenant, epoch))
                        .or_insert_with(|| vec![None; (total as usize).min(1 << 16)]);
                    if let Some(slot) = slots.get_mut(seq as usize) {
                        *slot = Some(bytes);
                    }
                }
                Control::CheckpointCommit { tenant, epoch, fencing_epoch, len, crc } => {
                    let prev = state.seen_epoch.fetch_max(fencing_epoch, Ordering::SeqCst);
                    if fencing_epoch < prev {
                        let _ = stream
                            .write_all(&Control::Fence { fencing_epoch: prev }.encode_to_vec());
                        continue;
                    }
                    if state.apply_commit(tenant, epoch, len, crc) {
                        let ack =
                            Control::CheckpointCommit { tenant, epoch, fencing_epoch, len, crc };
                        let _ = stream.write_all(&ack.encode_to_vec());
                    }
                }
                _ => {}
            }
        }
    }
}

impl StandbyHandle {
    /// Highest fencing epoch seen from a primary.
    #[must_use]
    pub fn seen_fencing_epoch(&self) -> u64 {
        self.state.seen_epoch.load(Ordering::SeqCst)
    }

    /// Highest checkpoint epoch applied per tenant, sorted by tenant.
    #[must_use]
    pub fn applied_epochs(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> =
            unpoison(self.state.applied.lock()).iter().map(|(t, e)| (*t, *e)).collect();
        v.sort_unstable();
        v
    }

    /// Per-tenant replication lag in epochs (highest shipped − applied).
    #[must_use]
    pub fn lag_epochs(&self) -> Vec<(u32, u64)> {
        self.state.lag_epochs()
    }

    /// Commits refused (bad bytes / stale epoch / failed resume dry run).
    #[must_use]
    pub fn apply_failures(&self) -> u64 {
        self.state.apply_failures.load(Ordering::SeqCst)
    }

    /// The standby's `STANDBY_APPLY` span sheet (one span per verified
    /// checkpoint apply).
    #[must_use]
    pub fn span_sheet(&self) -> SpanSheet {
        self.state.span_sheet()
    }

    /// The stores replicated checkpoints are applied into (pass to the
    /// promoted server; tests use it to snapshot the replicated state).
    #[must_use]
    pub fn stores(&self) -> StoreMap {
        self.state.stores.clone()
    }

    /// Promotes the standby: claims fencing epoch `highest seen + 1`,
    /// writes a `Fence` to any still-connected primary (a live deposed
    /// primary fails closed the moment it reads it), stops replication,
    /// and starts a normal [`Server`] over the replicated stores. Every
    /// tenant resumes from its last applied checkpoint; reconnecting
    /// clients get the resume cursor and delivery stays exactly-once.
    ///
    /// # Errors
    ///
    /// Fails when the promoted server cannot bind.
    pub fn promote(mut self, mut cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let new_epoch = self.state.seen_epoch.load(Ordering::SeqCst) + 1;
        self.state.promoted_epoch.store(new_epoch, Ordering::SeqCst);
        for conn in unpoison(self.state.conns.lock()).iter_mut() {
            let _ = conn.write_all(&Control::Fence { fencing_epoch: new_epoch }.encode_to_vec());
        }
        // Let in-flight frames settle so live primaries read the fence.
        std::thread::sleep(Duration::from_millis(20));
        self.shutdown();
        cfg.fencing_epoch = new_epoch;
        cfg.replicate_to = None;
        Server::start(cfg, Arc::clone(&self.state.factory), self.state.stores.clone())
    }

    /// Stops the standby without promoting.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.state.stopping.store(true, Ordering::SeqCst);
        for conn in unpoison(self.state.conns.lock()).drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(j) = self.acceptor.take() {
            let _ = j.join();
        }
        for j in unpoison(self.conn_joins.lock()).drain(..) {
            let _ = j.join();
        }
        if let Some(j) = self.metrics_join.take() {
            let _ = j.join();
        }
    }
}
