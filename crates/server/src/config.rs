//! Server tuning knobs.

use std::net::SocketAddr;

use sp_engine::FaultSchedule;

/// Deliberate panic injection for chaos tests: the named tenant's session
/// panics mid-frame when it reaches the given input position. Exercises
/// the promise that a panicking pipeline quarantines only its own tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPanic {
    /// The tenant whose session should panic.
    pub tenant: u32,
    /// Input position (element count) at which the panic fires.
    pub at_pos: u64,
}

/// Largest frame body a connection (client or replication) accepts; a
/// header claiming more is treated as corruption immediately.
pub(crate) const MAX_FRAME_LEN: usize = 1 << 20;

/// Configuration of the front-door server.
///
/// Per-tenant *engine* behavior (admission control, telemetry, queries)
/// is configured by the session factory that builds each tenant's
/// [`sp_query::Dsms`]; this struct configures the *transport*: deadlines,
/// connection limits, frame bounds and the fail-closed garbage budget.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Maximum concurrent connections; excess connects are refused with
    /// a retry hint, never silently dropped.
    pub max_conns: usize,
    /// Per-read socket deadline in milliseconds. Bounds how long a stall
    /// (or a length-lying frame header) can hold a connection thread.
    pub read_timeout_ms: u64,
    /// A connection silent this long is reaped (idle deadline); so is one
    /// whose peer has not taken a reply for this long (write deadline).
    pub idle_timeout_ms: u64,
    /// Corrupted frames tolerated per connection before the tenant's
    /// session is quarantined (fail closed): resync absorbs line noise,
    /// but a byte-garbage-spewing client is a security event.
    pub garbage_quarantine: u64,
    /// Checkpoint the tenant session every N consumed frames
    /// (0 = checkpoint only on drain). Periodic checkpoints bound how
    /// much replay a hard kill costs.
    pub checkpoint_every_frames: u64,
    /// Spin up a `/metrics` + `/healthz` listener on an ephemeral port.
    pub metrics: bool,
    /// Chaos-test knob: deliberate session panic (see [`ChaosPanic`]).
    pub chaos_panic: Option<ChaosPanic>,
    /// Replication target: the standby's replication listener. When set,
    /// every persisted tenant checkpoint is shipped there as
    /// `CheckpointSegment` + `CheckpointCommit` control frames.
    pub replicate_to: Option<SocketAddr>,
    /// This incarnation's fencing epoch. Every replication frame carries
    /// it; a frame (or echo) bearing a *higher* epoch means another node
    /// was promoted and this one must fence itself: stop releasing
    /// tuples, refuse all input, audit the refusals. Promotion always
    /// picks `highest seen + 1`.
    pub fencing_epoch: u64,
    /// Checkpoint bytes per `CheckpointSegment` frame.
    pub repl_chunk_bytes: usize,
    /// Chaos-test knob: deterministic faults injected into the
    /// replication link — partition / lag / duplicate, and
    /// [`sp_engine::Fault::Dark`], the link going silent from a given
    /// frame on (a primary dying mid-checkpoint-ship). See
    /// [`sp_engine::FaultSchedule::link`].
    pub repl_faults: Option<FaultSchedule>,
    /// Chaos-test knob: a tenant observes a deposing fencing epoch just
    /// before consuming its Nth frame (0 = never) — a fence racing a
    /// frame already in flight past the connection-level check.
    /// Exercises the tenant-level fail-closed gate deterministically.
    pub chaos_fence_at_frame: u64,
    /// Capacity of each tenant's ingress span recorder (wire-frame
    /// arrival spans for `/trace`); 0 disables ingress spans. Engine-side
    /// span capacity is configured per tenant by the session factory's
    /// `TelemetryConfig`.
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            port: 0,
            max_conns: 256,
            read_timeout_ms: 25,
            idle_timeout_ms: 2_000,
            garbage_quarantine: 64,
            checkpoint_every_frames: 0,
            metrics: false,
            chaos_panic: None,
            replicate_to: None,
            fencing_epoch: 1,
            repl_chunk_bytes: 4096,
            repl_faults: None,
            chaos_fence_at_frame: 0,
            trace_capacity: 1024,
        }
    }
}
