//! The TCP front door: accept loop, connection supervision, deadlines,
//! and graceful drain.
//!
//! One thread per connection reads CRC-framed bytes under a read
//! deadline, resynchronizes past garbage with [`StreamDecoder`], and
//! pushes each decoded data frame into the owning tenant's session
//! itself, under that tenant's lock. Responses (`Ack` / `Overloaded` /
//! `Quarantined` / `Draining`) travel back as control frames. Connections that stay silent past the
//! idle deadline are reaped; connections that spew garbage past the
//! budget quarantine their tenant (fail closed); a draining server
//! checkpoints every tenant before closing.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sp_core::wire::{Control, StreamDecoder, WireFrame};
use sp_core::QuarantineCode;
use sp_engine::telemetry::Histogram;
use sp_engine::MetricsRegistry;

use crate::config::ServerConfig;
use crate::replication::{spawn_shipper, ReplState, ShipRequest};
use crate::tenant::{
    unpoison, FrameOutcome, SessionFactory, StoreMap, Tenant, TenantHandle, TenantReport,
};

/// Shared server state: configuration, tenant registry, counters.
pub(crate) struct ServerState {
    pub cfg: ServerConfig,
    pub factory: SessionFactory,
    pub stores: StoreMap,
    pub tenants: Mutex<HashMap<u32, Arc<TenantHandle>>>,
    pub draining: AtomicBool,
    pub conns: AtomicUsize,
    pub connections_total: AtomicU64,
    pub conns_refused: AtomicU64,
    pub idle_reaped: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub corrupted_frames: AtomicU64,
    pub frames: AtomicU64,
    /// Per-frame server-side handling latency (decode → reply), µs.
    pub latency: Mutex<Histogram>,
    /// Fencing + replication-lag state (present even without a standby;
    /// fencing then simply never fires).
    pub repl: Arc<ReplState>,
    /// Checkpoint-ship notifications to the shipper thread (None when
    /// no standby is configured). Taken (dropped) on finish so the
    /// shipper sees disconnect and exits.
    pub ship_tx: Mutex<Option<SyncSender<ShipRequest>>>,
}

impl ServerState {
    /// The tenant's handle, registered (not yet resumed) on first sight.
    /// Every method here lets go of the map lock before it takes a
    /// tenant's: one tenant's slow frame or resume never holds up another
    /// tenant's `Hello`.
    fn tenant(&self, id: u32) -> Arc<TenantHandle> {
        let mut map = unpoison(self.tenants.lock());
        Arc::clone(map.entry(id).or_insert_with(|| {
            Arc::new(TenantHandle::new(
                id,
                Arc::clone(&self.factory),
                self.stores.store(id),
                self.cfg,
                Arc::clone(&self.repl),
                unpoison(self.ship_tx.lock()).clone(),
            ))
        }))
    }

    /// Every registered tenant, sorted by id.
    fn handles(&self) -> Vec<(u32, Arc<TenantHandle>)> {
        let mut all: Vec<_> =
            unpoison(self.tenants.lock()).iter().map(|(id, h)| (*id, Arc::clone(h))).collect();
        all.sort_unstable_by_key(|(id, _)| *id);
        all
    }

    /// Runs `f` on one registered tenant under its lock.
    fn with_tenant<R>(&self, id: u32, f: impl FnOnce(&mut Tenant) -> R) -> Option<R> {
        let h = unpoison(self.tenants.lock()).get(&id).cloned()?;
        h.with(f).ok()
    }

    /// Server-level metrics plus every live tenant's engine metrics,
    /// merged into one registry.
    pub(crate) fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let c = |v: &AtomicU64| v.load(Ordering::SeqCst);
        reg.add_counter(
            "sp_server_connections_total",
            "Connections accepted since start",
            "",
            c(&self.connections_total),
        );
        reg.add_counter(
            "sp_server_connections_refused_total",
            "Connections refused at the concurrency cap or while draining",
            "",
            c(&self.conns_refused),
        );
        reg.add_counter(
            "sp_server_idle_reaped_total",
            "Connections closed by the idle deadline",
            "",
            c(&self.idle_reaped),
        );
        reg.add_counter(
            "sp_server_protocol_errors_total",
            "Connections closed for protocol violations",
            "",
            c(&self.protocol_errors),
        );
        reg.add_counter(
            "sp_server_corrupted_frames_total",
            "Frames lost to corruption across all connections",
            "",
            c(&self.corrupted_frames),
        );
        reg.add_counter(
            "sp_server_frames_total",
            "Data frames consumed by tenant sessions",
            "",
            c(&self.frames),
        );
        let handles = self.handles();
        let quarantined = handles.iter().filter(|(_, h)| h.is_quarantined()).count() as u64;
        reg.add_counter(
            "sp_server_tenants_quarantined",
            "Tenant sessions currently quarantined (fail closed)",
            "",
            quarantined,
        );
        let fenced = self.repl.fenced.load(Ordering::SeqCst);
        reg.add_counter(
            "sp_server_role",
            "Replication role of this node (the labeled series is 1)",
            if fenced { "role=\"fenced\"" } else { "role=\"primary\"" },
            1,
        );
        reg.add_counter(
            "sp_server_fencing_epoch",
            "This node's fencing epoch (monotone; a higher epoch elsewhere deposes it)",
            "",
            self.repl.fencing_epoch.load(Ordering::SeqCst),
        );
        reg.add_counter(
            "sp_server_fenced",
            "1 when this node was deposed by a newer fencing epoch (fail closed)",
            "",
            u64::from(fenced),
        );
        for (tenant, lag) in self.repl.lag_epochs() {
            reg.add_counter(
                "sp_server_replication_lag_epochs",
                "Checkpoint epochs shipped to the standby but not yet acked, per tenant",
                &format!("tenant=\"{tenant}\""),
                lag,
            );
        }
        let lat = unpoison(self.latency.lock()).clone();
        reg.merge_histogram(
            "sp_server_frame_handle_us",
            "Server-side frame handling latency in microseconds",
            "",
            &lat,
        );
        for (_, h) in handles {
            if let Ok(m) = h.with(|t| t.metrics()) {
                reg.merge(&m);
            }
        }
        reg
    }

    /// Chrome trace-event JSON over every live tenant: each tenant's
    /// span sheet becomes one `pid` lane so merged runs stay readable.
    pub(crate) fn trace_json(&self) -> String {
        let mut events = Vec::new();
        for (id, h) in self.handles() {
            if let Ok(sheet) = h.with(|t| t.span_sheet()) {
                sheet.chrome_events(id, &mut events);
            }
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    /// Human-readable audit + span-tree text over every live tenant.
    pub(crate) fn audit_text(&self) -> String {
        let mut out = String::new();
        for (id, h) in self.handles() {
            out.push_str(&format!("== tenant {id} ==\n"));
            let Ok((text, sheet)) = h.with(|t| (t.audit_text(), t.span_sheet())) else {
                continue;
            };
            out.push_str(&text);
            if !sheet.is_empty() {
                out.push_str("-- spans --\n");
                out.push_str(&sheet.render_tree());
            }
        }
        out
    }

    /// Readiness: `(ready, status line)`. Fail closed — anything other
    /// than a live, accepting server is not ready.
    pub(crate) fn healthz(&self) -> (bool, String) {
        let draining = self.draining.load(Ordering::SeqCst);
        let handles = self.handles();
        let quarantined = handles.iter().filter(|(_, h)| h.is_quarantined()).count();
        let tenants = handles.len();
        if self.repl.fenced.load(Ordering::SeqCst) {
            let epoch = self.repl.fencing_epoch.load(Ordering::SeqCst);
            (false, format!("fenced epoch={epoch} tenants={tenants} quarantined={quarantined}\n"))
        } else if draining {
            (false, format!("draining tenants={tenants} quarantined={quarantined}\n"))
        } else {
            (true, format!("ok tenants={tenants} quarantined={quarantined}\n"))
        }
    }
}

/// What a finished server hands back.
#[derive(Debug, Default)]
pub struct DrainReport {
    /// Final per-tenant reports (empty after a hard [`ServerHandle::kill`]).
    pub tenants: Vec<TenantReport>,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Connections refused (cap reached or draining).
    pub conns_refused: u64,
    /// Connections reaped by the idle deadline.
    pub idle_reaped: u64,
    /// Connections closed for protocol violations.
    pub protocol_errors: u64,
    /// Frames lost to corruption across all connections.
    pub corrupted_frames: u64,
    /// Data frames consumed.
    pub frames: u64,
    /// Per-frame server-side handling latency, µs.
    pub latency: Histogram,
    /// True when every tenant drained through its checkpoint path.
    pub clean: bool,
    /// This node's fencing epoch at the end of its life.
    pub fencing_epoch: u64,
    /// True when the node ended deposed (fenced by a newer epoch).
    pub fenced: bool,
    /// Replication frames written to the standby link.
    pub repl_frames_shipped: u64,
}

impl DrainReport {
    /// The report of one tenant, if present.
    #[must_use]
    pub fn tenant(&self, id: u32) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == id)
    }
}

/// A running front-door server.
pub struct ServerHandle {
    /// Ingestion address (127.0.0.1, ephemeral port by default).
    pub addr: SocketAddr,
    /// `/metrics` + `/healthz` address when enabled.
    pub metrics_addr: Option<SocketAddr>,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics_join: Option<JoinHandle<()>>,
    shipper: Option<JoinHandle<()>>,
}

/// The front-door server: binds, accepts, supervises.
pub struct Server;

impl Server {
    /// Starts the server on 127.0.0.1.
    ///
    /// `stores` is the durable side: pass the same [`StoreMap`] to a
    /// later incarnation and every tenant resumes from its checkpoint.
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot bind.
    pub fn start(
        cfg: ServerConfig,
        factory: SessionFactory,
        stores: StoreMap,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let repl = Arc::new(ReplState::new(cfg.fencing_epoch));
        let (ship_tx, shipper) = match cfg.replicate_to {
            Some(target) => {
                let (tx, j) = spawn_shipper(cfg, target, Arc::clone(&repl), stores.clone())?;
                (Some(tx), Some(j))
            }
            None => (None, None),
        };
        let state = Arc::new(ServerState {
            cfg,
            factory,
            stores,
            tenants: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            connections_total: AtomicU64::new(0),
            conns_refused: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            corrupted_frames: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            latency: Mutex::new(Histogram::new()),
            repl,
            ship_tx: Mutex::new(ship_tx),
        });
        let conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (metrics_addr, metrics_join) = if cfg.metrics {
            let (a, j) = crate::metrics::spawn(Arc::clone(&state))?;
            (Some(a), Some(j))
        } else {
            (None, None)
        };
        let accept_state = Arc::clone(&state);
        let accept_joins = Arc::clone(&conn_joins);
        let acceptor = std::thread::Builder::new().name("sp-acceptor".into()).spawn(move || {
            accept_loop(&listener, &accept_state, &accept_joins);
        })?;
        Ok(ServerHandle {
            addr,
            metrics_addr,
            state,
            acceptor: Some(acceptor),
            conn_joins,
            metrics_join,
            shipper,
        })
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    joins: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if state.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                state.connections_total.fetch_add(1, Ordering::SeqCst);
                let live = state.conns.load(Ordering::SeqCst);
                if live >= state.cfg.max_conns || state.draining.load(Ordering::SeqCst) {
                    // Refuse loudly with a retry hint, then close: a
                    // full house is backpressure, not a black hole.
                    state.conns_refused.fetch_add(1, Ordering::SeqCst);
                    let hint = Control::Overloaded { retry_after_ms: 50, pos: 0 };
                    let _ = stream.write_all(&hint.encode_to_vec());
                    continue;
                }
                state.conns.fetch_add(1, Ordering::SeqCst);
                let conn_state = Arc::clone(state);
                if let Ok(j) = std::thread::Builder::new()
                    .name("sp-conn".into())
                    .spawn(move || handle_conn(&conn_state, stream))
                {
                    unpoison(joins.lock()).push(j);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

fn write_ctrl(stream: &mut TcpStream, ctrl: &Control) -> std::io::Result<()> {
    stream.write_all(&ctrl.encode_to_vec())
}

fn handle_conn(state: &Arc<ServerState>, mut stream: TcpStream) {
    let cfg = state.cfg;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))));
    // A peer that sends but never reads fills both socket buffers and
    // would pin this thread in `write_all`, and `drain` behind it, for
    // good. A reply that cannot be written within the idle deadline is a
    // write error like any other: the connection closes, the tenant and
    // its cursor stay as the last handled frame left them.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.idle_timeout_ms.max(1))));
    let mut dec = StreamDecoder::new(crate::config::MAX_FRAME_LEN);
    let mut tenant: Option<Arc<TenantHandle>> = None;
    let mut pending_trace: Option<sp_core::TraceContext> = None;
    let mut idle_ms = 0u64;
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        if state.repl.fenced.load(Ordering::SeqCst) {
            // Deposed: tell the client where it stands (the fence frame
            // is its cue to re-home to the promoted standby) and close.
            let fencing_epoch = state.repl.fencing_epoch.load(Ordering::SeqCst);
            let _ = write_ctrl(&mut stream, &Control::Fence { fencing_epoch });
            break;
        }
        if state.draining.load(Ordering::SeqCst) {
            let pos = tenant.as_ref().and_then(|h| h.with(|t| t.pos).ok()).unwrap_or(0);
            let _ = write_ctrl(&mut stream, &Control::Draining { pos });
            break;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                idle_ms = 0;
                n
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle_ms += cfg.read_timeout_ms;
                if idle_ms >= cfg.idle_timeout_ms {
                    state.idle_reaped.fetch_add(1, Ordering::SeqCst);
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        for frame in dec.feed(&buf[..n]) {
            let reply = match frame {
                WireFrame::Control(Control::Hello { tenant: id, .. }) => {
                    match tenant.insert(state.tenant(id)).hello() {
                        Ok(resume_from) => Control::HelloAck { resume_from },
                        // Answer the handshake itself with the verdict
                        // (no HelloAck first): the client learns the real
                        // cause and stops, instead of racing a replay
                        // against a connection we are about to close.
                        Err(code) => Control::Quarantined { code },
                    }
                }
                WireFrame::Message(msg) => {
                    let Some(h) = tenant.as_ref() else {
                        // Data before Hello is a protocol violation.
                        state.protocol_errors.fetch_add(1, Ordering::SeqCst);
                        break 'conn;
                    };
                    let t0 = Instant::now();
                    let trace = pending_trace.take();
                    let outcome = h.with(|t| t.push_frame(msg.stream, msg.elements, trace));
                    let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                    unpoison(state.latency.lock()).record(us);
                    state.frames.fetch_add(1, Ordering::SeqCst);
                    match outcome {
                        Ok(FrameOutcome::Ack { pos }) => Control::Ack { pos },
                        Ok(FrameOutcome::Overloaded { retry_after_ms, pos }) => {
                            Control::Overloaded { retry_after_ms, pos }
                        }
                        Ok(FrameOutcome::Quarantined { code }) | Err(code) => {
                            Control::Quarantined { code }
                        }
                        Ok(FrameOutcome::Fenced { fencing_epoch }) => {
                            Control::Fence { fencing_epoch }
                        }
                    }
                }
                WireFrame::Control(Control::Trace { trace_id, parent_span }) => {
                    // Causal context for the *next* data frame. Purely
                    // observational: no reply, no state change beyond
                    // remembering it for the frame that follows.
                    pending_trace = Some(sp_core::TraceContext { trace_id, parent_span });
                    continue;
                }
                WireFrame::Control(_) => {
                    // Clients only send Hello and Trace; anything else is
                    // a protocol violation.
                    state.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    break 'conn;
                }
                WireFrame::Cipher(_) => {
                    // The plaintext front door holds no key material and
                    // cannot enforce on ciphertext — accepting it would
                    // mean forwarding tuples whose policy it cannot read.
                    // Fail closed: refuse the connection. (The crypto
                    // path has its own provider → relay → client plane;
                    // see sp-baselines::crypto_enforced.)
                    state.protocol_errors.fetch_add(1, Ordering::SeqCst);
                    break 'conn;
                }
            };
            // A verdict ends the connection: the client stops or re-homes.
            let terminal = matches!(reply, Control::Quarantined { .. } | Control::Fence { .. });
            if write_ctrl(&mut stream, &reply).is_err() || terminal {
                break 'conn;
            }
        }
        if dec.corrupted_frames > cfg.garbage_quarantine {
            // Past the garbage budget the client is treated as hostile:
            // its tenant session fails closed.
            if let Some(h) = tenant.as_ref() {
                let _ = h.with(|t| t.quarantine(QuarantineCode::Garbage));
            }
            let _ =
                write_ctrl(&mut stream, &Control::Quarantined { code: QuarantineCode::Garbage });
            break;
        }
    }
    state.corrupted_frames.fetch_add(dec.corrupted_frames, Ordering::SeqCst);
    state.conns.fetch_sub(1, Ordering::SeqCst);
}

impl ServerHandle {
    /// A live tenant report (None when the tenant has no session yet or
    /// its lock is poisoned).
    #[must_use]
    pub fn tenant_report(&self, tenant: u32) -> Option<TenantReport> {
        self.state.with_tenant(tenant, |t| t.report())
    }

    /// The merged metrics snapshot in Prometheus text exposition format.
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        self.state.metrics().render_prometheus()
    }

    /// One tenant's merged span sheet (ingress + engine sections), live.
    #[must_use]
    pub fn tenant_spans(&self, tenant: u32) -> Option<sp_engine::SpanSheet> {
        self.state.with_tenant(tenant, |t| t.span_sheet())
    }

    /// Chrome trace-event JSON over every live tenant (what `/trace`
    /// serves).
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.state.trace_json()
    }

    /// Human-readable audit + span-tree text over every live tenant
    /// (what `/audit` serves).
    #[must_use]
    pub fn audit_text(&self) -> String {
        self.state.audit_text()
    }

    /// True when this node was deposed by a newer fencing epoch.
    #[must_use]
    pub fn is_fenced(&self) -> bool {
        self.state.repl.fenced.load(Ordering::SeqCst)
    }

    /// This node's current fencing epoch.
    #[must_use]
    pub fn fencing_epoch(&self) -> u64 {
        self.state.repl.fencing_epoch.load(Ordering::SeqCst)
    }

    /// Per-tenant replication lag in epochs (shipped − acked), sorted
    /// by tenant. Empty without a standby.
    #[must_use]
    pub fn replication_lag(&self) -> Vec<(u32, u64)> {
        self.state.repl.lag_epochs()
    }

    /// Graceful drain: stop accepting, notify connections, checkpoint
    /// every tenant, join every thread, report.
    #[must_use]
    pub fn drain(mut self) -> DrainReport {
        self.finish(true)
    }

    /// Hard kill: stop everything *without* final checkpoints — the last
    /// periodic checkpoint stands, as after a crash. Tenant reports are
    /// not collected (a dead server reports nothing).
    #[must_use]
    pub fn kill(mut self) -> DrainReport {
        self.finish(false)
    }

    fn finish(&mut self, graceful: bool) -> DrainReport {
        if !graceful {
            // A crash takes the shipper with it: queued checkpoints and
            // fault-held frames are abandoned, not flushed.
            self.state.repl.killed.store(true, Ordering::SeqCst);
        }
        self.state.draining.store(true, Ordering::SeqCst);
        if let Some(j) = self.acceptor.take() {
            let _ = j.join();
        }
        for j in unpoison(self.conn_joins.lock()).drain(..) {
            let _ = j.join();
        }
        if let Some(j) = self.metrics_join.take() {
            let _ = j.join();
        }
        // Every connection thread is joined, so nothing contends for a
        // tenant lock from here on. Emptying the map drops every session;
        // a killed one goes without a final checkpoint.
        let handles = self.state.handles();
        unpoison(self.state.tenants.lock()).clear();
        let mut tenants = Vec::new();
        let mut clean = graceful;
        for (_, h) in handles {
            if graceful {
                match h.with(Tenant::drain) {
                    Ok(report) => tenants.push(report),
                    Err(_) => clean = false,
                }
            }
        }
        // Dropping the ship sender lets the shipper flush its queue of
        // final (drain-time) checkpoints, collect acks, and exit.
        drop(unpoison(self.state.ship_tx.lock()).take());
        if let Some(j) = self.shipper.take() {
            let _ = j.join();
        }
        let c = |v: &AtomicU64| v.load(Ordering::SeqCst);
        DrainReport {
            tenants,
            connections_total: c(&self.state.connections_total),
            conns_refused: c(&self.state.conns_refused),
            idle_reaped: c(&self.state.idle_reaped),
            protocol_errors: c(&self.state.protocol_errors),
            corrupted_frames: c(&self.state.corrupted_frames),
            frames: c(&self.state.frames),
            latency: unpoison(self.state.latency.lock()).clone(),
            clean,
            fencing_epoch: self.state.repl.fencing_epoch.load(Ordering::SeqCst),
            fenced: self.state.repl.fenced.load(Ordering::SeqCst),
            repl_frames_shipped: c(&self.state.repl.frames_shipped),
        }
    }
}
