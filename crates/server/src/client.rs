//! The client side: a load driver speaking the framed ingest protocol.
//!
//! [`LoadClient`] replays a prepared element sequence into the server,
//! honoring (or deliberately ignoring — for negative-control tests) the
//! server's `Overloaded` retry hints with seeded, jittered exponential
//! backoff. Reconnects resume from the server-authoritative `HelloAck`
//! cursor, so a storm of deliberate mid-stream disconnects still delivers
//! every element exactly once.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp_core::wire::{Control, Message, StreamDecoder, WireFrame};
use sp_core::{QuarantineCode, SplitMix64, StreamElement, StreamId, Timestamp};

/// Seeded, jittered exponential backoff parameters.
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// First backoff step in (stream-time) milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling.
    pub max_ms: u64,
    /// Jitter as a percentage of the step (0–100).
    pub jitter_pct: u8,
    /// Deterministic jitter seed.
    pub seed: u64,
    /// Cap on *wall-clock* sleeping per backoff. Stream time (which is
    /// what admission meters) always advances by the full step; real
    /// time only pauses briefly so tests and benches stay fast.
    pub sleep_cap_ms: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self { base_ms: 8, max_ms: 2_000, jitter_pct: 20, seed: 7, sleep_cap_ms: 2 }
    }
}

/// Client behavior knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Tenant to authenticate as.
    pub tenant: u32,
    /// Elements per data frame.
    pub frame_elements: usize,
    /// Honor `Overloaded` retry hints by backing off. Setting this to
    /// `false` builds the negative control: a client that hammers on
    /// regardless and must get *shed*, not serviced.
    pub honor_retry_hints: bool,
    /// Backoff shape (used only when honoring hints).
    pub backoff: BackoffConfig,
    /// Socket read deadline per reply, milliseconds.
    pub read_timeout_ms: u64,
    /// Reconnect budget (covers both deliberate and suffered drops).
    pub max_reconnects: u32,
    /// Deliberately drop the connection every N frames (0 = never) —
    /// the disconnect-storm knob.
    pub disconnect_every_frames: u64,
    /// When non-zero, restamp elements from a virtual stream clock that
    /// ticks this many ms per element — and advances by each backoff —
    /// so honoring hints actually refills the stream-time token bucket.
    /// Zero sends the input's original timestamps untouched.
    pub restamp_tick_ms: u64,
    /// Failover target: where to re-home when the current server sends
    /// a `Fence` frame (it was deposed) or stops answering entirely.
    /// The resume cursor comes from the new server's `HelloAck`, so
    /// delivery stays exactly-once across the switch.
    pub failover: Option<SocketAddr>,
    /// How long to keep retrying a refused TCP connect before giving
    /// up (0 = fail fast). Failover needs patience: promotion may lag
    /// the moment the primary stopped answering.
    pub connect_patience_ms: u64,
    /// Send a `Control::Trace` causal context ahead of every data frame,
    /// rooting the server-side span tree in this client's frame identity.
    /// Purely observational — the server never replies to it.
    pub trace: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            tenant: 0,
            frame_elements: 16,
            honor_retry_hints: true,
            backoff: BackoffConfig::default(),
            read_timeout_ms: 2_000,
            max_reconnects: 64,
            disconnect_every_frames: 0,
            restamp_tick_ms: 0,
            failover: None,
            connect_patience_ms: 0,
            trace: true,
        }
    }
}

/// What one client run observed.
#[derive(Debug, Clone, Default)]
pub struct ClientReport {
    /// Data frames written to the wire.
    pub frames_sent: u64,
    /// `Ack` replies received.
    pub acks: u64,
    /// `Overloaded` replies received.
    pub overloads: u64,
    /// Backoffs actually taken (honoring clients only).
    pub backoff_events: u64,
    /// Total stream-time backed off, ms.
    pub backoff_stream_ms: u64,
    /// Successful reconnects (deliberate or suffered).
    pub reconnects: u32,
    /// Connections refused by the server's concurrency cap.
    pub refused: u64,
    /// Final server-side input position.
    pub final_pos: u64,
    /// Set when the server quarantined this tenant.
    pub quarantined: Option<QuarantineCode>,
    /// True when the server announced a drain mid-run.
    pub drained: bool,
    /// Times this client re-homed to the failover address.
    pub failovers: u32,
    /// True when every input element was delivered (per the server's
    /// cursor — shed elements count as delivered).
    pub completed: bool,
}

enum Reply {
    Ctrl(Control),
    Eof,
    TimedOut,
}

/// Reads until one control frame decodes (data frames from the server
/// would be a protocol violation and are ignored).
fn read_ctrl(stream: &mut TcpStream, dec: &mut StreamDecoder, deadline_ms: u64) -> Reply {
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    loop {
        if start.elapsed() >= Duration::from_millis(deadline_ms) {
            return Reply::TimedOut;
        }
        match stream.read(&mut buf) {
            Ok(0) => return Reply::Eof,
            Ok(n) => {
                for frame in dec.feed(&buf[..n]) {
                    if let WireFrame::Control(c) = frame {
                        return Reply::Ctrl(c);
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return Reply::Eof,
        }
    }
}

fn restamp(elem: &StreamElement, ts: Timestamp) -> StreamElement {
    match elem {
        StreamElement::Tuple(t) => {
            let mut t = (**t).clone();
            t.ts = ts;
            StreamElement::Tuple(Arc::new(t))
        }
        StreamElement::Punctuation(sp) => {
            let mut sp = (**sp).clone();
            sp.ts = ts;
            StreamElement::Punctuation(Arc::new(sp))
        }
    }
}

/// A framed-protocol client that replays one element sequence.
pub struct LoadClient {
    cfg: ClientConfig,
    /// Backoff jitter, seeded per tenant.
    rng: SplitMix64,
    /// Virtual stream clock (ms) used when `restamp_tick_ms > 0`.
    vclock: u64,
    attempt: u32,
    report: ClientReport,
    /// The address currently being spoken to (switches on failover).
    active: Option<SocketAddr>,
}

impl LoadClient {
    /// A client with the given behavior.
    #[must_use]
    pub fn new(cfg: ClientConfig) -> Self {
        Self {
            cfg,
            rng: SplitMix64::new(
                cfg.backoff.seed ^ u64::from(cfg.tenant).wrapping_mul(0x6C62_272E_07BB_0142),
            ),
            vclock: 0,
            attempt: 0,
            report: ClientReport::default(),
            active: None,
        }
    }

    /// Re-homes to the failover address if one is configured and not
    /// already active. Returns true when the switch happened.
    fn try_failover(&mut self) -> bool {
        let Some(fb) = self.cfg.failover else { return false };
        if self.active == Some(fb) {
            return false;
        }
        self.active = Some(fb);
        self.report.failovers += 1;
        true
    }

    /// One jittered exponential step for the current attempt count.
    fn backoff_step(&mut self) -> u64 {
        let b = self.cfg.backoff;
        let exp = b.base_ms.saturating_mul(1u64 << self.attempt.min(20)).min(b.max_ms);
        if b.jitter_pct == 0 || exp == 0 {
            return exp;
        }
        let span = exp * u64::from(b.jitter_pct) / 100;
        let jitter = self.rng.next_u64() % (2 * span + 1);
        (exp + jitter).saturating_sub(span).min(b.max_ms).max(1)
    }

    /// Backs off after an `Overloaded` reply: stream time advances by
    /// `max(server hint, jittered exponential step)`; wall-clock sleeps
    /// at most `sleep_cap_ms`.
    fn back_off(&mut self, hint_ms: u64) {
        let step = self.backoff_step().max(hint_ms);
        self.vclock += step;
        self.attempt = self.attempt.saturating_add(1);
        self.report.backoff_events += 1;
        self.report.backoff_stream_ms += step;
        let sleep = step.min(self.cfg.backoff.sleep_cap_ms);
        if sleep > 0 {
            std::thread::sleep(Duration::from_millis(sleep));
        }
    }

    fn connect(&mut self, addr: SocketAddr) -> Option<(TcpStream, StreamDecoder, u64)> {
        let deadline = Instant::now() + Duration::from_millis(self.cfg.connect_patience_ms);
        loop {
            let mut stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => {
                    // A refused connect during failover usually means
                    // promotion is still in flight: retry with patience.
                    if Instant::now() >= deadline {
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
            let hello = Control::Hello { tenant: self.cfg.tenant, acked: self.report.final_pos };
            if stream.write_all(&hello.encode_to_vec()).is_err() {
                return None;
            }
            let mut dec = StreamDecoder::new(1 << 20);
            match read_ctrl(&mut stream, &mut dec, self.cfg.read_timeout_ms) {
                Reply::Ctrl(Control::HelloAck { resume_from }) => {
                    return Some((stream, dec, resume_from));
                }
                // The concurrency cap answers with a bare retry hint
                // before any handshake; honor it and try again.
                Reply::Ctrl(Control::Overloaded { retry_after_ms, .. }) => {
                    self.report.refused += 1;
                    let wait = retry_after_ms.clamp(1, 50);
                    std::thread::sleep(Duration::from_millis(wait));
                    if self.report.refused > 1_000 {
                        return None;
                    }
                }
                Reply::Ctrl(Control::Quarantined { code }) => {
                    self.report.quarantined = Some(code);
                    return None;
                }
                Reply::Ctrl(Control::Draining { .. }) => {
                    self.report.drained = true;
                    return None;
                }
                // A fenced (deposed) server: give up on this address —
                // the caller re-homes to the failover.
                Reply::Ctrl(Control::Fence { .. }) => return None,
                Reply::Ctrl(_) | Reply::Eof | Reply::TimedOut => return None,
            }
        }
    }

    /// Replays `input` into the server at `addr` until every element is
    /// delivered, the reconnect budget is spent, or the server ends the
    /// session (quarantine / drain).
    pub fn run(mut self, addr: SocketAddr, input: &[(StreamId, StreamElement)]) -> ClientReport {
        self.active = Some(addr);
        'sessions: loop {
            let target = self.active.unwrap_or(addr);
            let Some((mut stream, mut dec, resume_from)) = self.connect(target) else {
                // The server is gone or fenced: re-home once to the
                // failover (the promoted standby) and keep going.
                if self.try_failover() {
                    continue 'sessions;
                }
                break;
            };
            let mut pos = usize::try_from(resume_from).unwrap_or(usize::MAX).min(input.len());
            self.report.final_pos = resume_from;
            let mut frames_this_session = 0u64;
            while pos < input.len() {
                if self.cfg.disconnect_every_frames > 0
                    && frames_this_session >= self.cfg.disconnect_every_frames
                {
                    // Deliberate mid-stream disconnect: drop without
                    // ceremony, then reconnect and trust the cursor.
                    drop(stream);
                    if self.report.reconnects >= self.cfg.max_reconnects {
                        break 'sessions;
                    }
                    self.report.reconnects += 1;
                    continue 'sessions;
                }
                let stream_id = input[pos].0;
                let end = input[pos..]
                    .iter()
                    .take(self.cfg.frame_elements.max(1))
                    .take_while(|(s, _)| *s == stream_id)
                    .count()
                    + pos;
                let elements: Vec<StreamElement> = input[pos..end]
                    .iter()
                    .map(|(_, e)| {
                        if self.cfg.restamp_tick_ms > 0 {
                            self.vclock += self.cfg.restamp_tick_ms;
                            restamp(e, Timestamp(self.vclock))
                        } else {
                            e.clone()
                        }
                    })
                    .collect();
                let msg = Message { stream: stream_id, elements };
                let mut wire = Vec::new();
                if self.cfg.trace {
                    // The client-side root of the causal chain: a
                    // deterministic context derived from (tenant, stream,
                    // frame position), so replays and reconnects produce
                    // the same trace ids.
                    let ctx =
                        sp_core::TraceContext::derive(self.cfg.tenant, stream_id.0, pos as u64);
                    let trace =
                        Control::Trace { trace_id: ctx.trace_id, parent_span: ctx.parent_span };
                    wire.extend_from_slice(&trace.encode_to_vec());
                }
                wire.extend_from_slice(&msg.encode_to_vec());
                if stream.write_all(&wire).is_err() {
                    if self.report.reconnects >= self.cfg.max_reconnects {
                        break 'sessions;
                    }
                    self.report.reconnects += 1;
                    continue 'sessions;
                }
                self.report.frames_sent += 1;
                frames_this_session += 1;
                match read_ctrl(&mut stream, &mut dec, self.cfg.read_timeout_ms) {
                    Reply::Ctrl(Control::Ack { pos: p }) => {
                        self.report.acks += 1;
                        self.report.final_pos = p;
                        pos = usize::try_from(p).unwrap_or(pos).min(input.len());
                        self.attempt = 0;
                    }
                    Reply::Ctrl(Control::Overloaded { retry_after_ms, pos: p }) => {
                        self.report.overloads += 1;
                        self.report.final_pos = p;
                        pos = usize::try_from(p).unwrap_or(pos).min(input.len());
                        if self.cfg.honor_retry_hints {
                            self.back_off(retry_after_ms);
                        }
                    }
                    Reply::Ctrl(Control::Quarantined { code }) => {
                        self.report.quarantined = Some(code);
                        break 'sessions;
                    }
                    Reply::Ctrl(Control::Draining { pos: p }) => {
                        self.report.drained = true;
                        self.report.final_pos = self.report.final_pos.max(p);
                        break 'sessions;
                    }
                    Reply::Ctrl(Control::Fence { .. }) => {
                        // This server was deposed mid-stream. Its engine
                        // refused the frame (fail closed), so re-home and
                        // resend from the new server's cursor.
                        if self.try_failover() {
                            continue 'sessions;
                        }
                        break 'sessions;
                    }
                    Reply::Ctrl(_) => break 'sessions,
                    Reply::Eof | Reply::TimedOut => {
                        if self.report.reconnects >= self.cfg.max_reconnects {
                            break 'sessions;
                        }
                        self.report.reconnects += 1;
                        continue 'sessions;
                    }
                }
            }
            break;
        }
        self.report.completed = self.report.final_pos as usize >= input.len();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backoff jitter stream is part of the client's determinism
    /// contract (chaos tests and the soak assert exact counts): the first
    /// sixteen draws for tenant 3 under the default seed are pinned.
    #[test]
    fn jitter_draws_are_pinned() {
        let mut client = LoadClient::new(ClientConfig { tenant: 3, ..ClientConfig::default() });
        let draws: Vec<u64> = (0..16).map(|_| client.rng.next_u64()).collect();
        let want: [u64; 16] = [
            17_897_839_872_543_396_345,
            6_164_578_582_583_966_270,
            14_725_919_594_105_220_870,
            15_103_760_999_690_042_857,
            13_375_094_340_643_433_318,
            6_730_520_270_143_175_245,
            17_614_254_420_742_312_779,
            7_751_167_964_032_056_950,
            3_019_682_364_319_073_328,
            15_237_939_878_616_639_383,
            10_769_471_812_120_214_344,
            16_365_534_328_120_999_287,
            10_705_850_158_935_269_752,
            12_453_558_041_196_175_563,
            13_789_191_479_944_202_009,
            8_136_649_211_611_605_818,
        ];
        assert_eq!(draws, want);
    }
}
