//! The end-to-end path: a loopback `sp-server`, one tenant, one
//! connection, one frame in flight.
//!
//! The wire protocol is Ack-gated with a server-side exactly-once cursor,
//! so a provider really does wait for each Ack: the loop is closed, with
//! one client. The client is this file's own socket loop over frames
//! encoded in set-up — `LoadClient` clones, restamps and encodes inside
//! its send loop and tops out at a third of the rate the server sustains.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sp_core::wire::{Control, StreamDecoder, WireFrame};
use sp_engine::Histogram;
use sp_server::{DrainReport, Server, ServerHandle, StoreMap};

use crate::affinity::Pinned;
use crate::trace::{Span, Tracer, ROOT};
use crate::workloads::{digest, factory, Reference, Spec, TENANT};

/// A reply later than this fails the frame and ends the repetition.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A started server with one authenticated connection, all on one CPU
/// (see `affinity.rs`).
pub struct Session {
    pin: Pinned,
    handle: ServerHandle,
    stream: TcpStream,
    dec: StreamDecoder,
}

/// Reads until one control frame decodes.
fn read_ctrl(stream: &mut TcpStream, dec: &mut StreamDecoder) -> Result<Control, String> {
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        for frame in dec.feed(&buf[..n]) {
            if let WireFrame::Control(c) = frame {
                return Ok(c);
            }
        }
    }
}

impl Session {
    /// `Server::start`, connect, `Hello` → `HelloAck`: the part of set-up
    /// every repetition pays before its timed region.
    pub fn open(spec: &'static Spec) -> Result<Session, String> {
        let pin = Pinned::to_one_cpu();
        let handle = Server::start(spec.server_config(), factory(spec), StoreMap::new())
            .map_err(|e| format!("server start: {e}"))?;
        let mut stream = TcpStream::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
        let hello = Control::Hello { tenant: TENANT, acked: 0 };
        stream.write_all(&hello.encode_to_vec()).map_err(|e| format!("hello: {e}"))?;
        let mut dec = StreamDecoder::new(1 << 16);
        match read_ctrl(&mut stream, &mut dec)? {
            Control::HelloAck { resume_from: 0 } => Ok(Session { pin, handle, stream, dec }),
            other => Err(format!("expected HelloAck at 0, got {other:?}")),
        }
    }

    /// Hundredths of a second the hypervisor has kept this session's CPU
    /// from running it (the `steal` column of `/proc/stat`); 0 where the
    /// kernel does not say.
    fn stolen_ticks(&self) -> u64 {
        let Some(cpu) = self.pin.cpu else { return 0 };
        let label = format!("cpu{cpu}");
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let line = stat.lines().find(|l| l.split_whitespace().next() == Some(&label))?;
                line.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0)
    }

    /// Closes the connection and drains the server.
    pub fn close(self) -> DrainReport {
        drop(self.stream);
        self.handle.drain()
    }
}

/// What the client saw in one pass of the frames through one session.
pub struct Pass {
    /// First frame write to last Ack.
    pub wall_s: f64,
    /// First byte written to `Ack` decoded, per acknowledged frame.
    pub rtt_ns: Vec<u64>,
    pub attempted: u64,
    /// Frames answered by anything but `Ack` (Overloaded, Quarantined,
    /// timeout, EOF). After a terminal reply the rest count as failed too.
    pub failed: u64,
    /// Share of the wall time during which the hypervisor ran something
    /// else on this CPU.
    pub stolen: f64,
}

/// Sends every frame, one in flight, timing each round trip. With a
/// tracer, also records `client.frame` → `client.write`, `client.wait_ack`.
pub fn drive(sess: &mut Session, frames: &[Vec<u8>], mut tracer: Option<&mut Tracer>) -> Pass {
    let mut rtt_ns = Vec::with_capacity(frames.len());
    let mut failed = 0u64;
    let stolen_before = sess.stolen_ticks();
    let start = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        let t0 = Instant::now();
        let begin = tracer.as_ref().map(|t| t.now());
        let reply = match sess.stream.write_all(frame) {
            Ok(()) => {
                let written = tracer.as_ref().map(|t| t.now());
                read_ctrl(&mut sess.stream, &mut sess.dec).map(|c| (c, written))
            }
            Err(e) => Err(format!("write: {e}")),
        };
        let rtt = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match reply {
            Ok((Control::Ack { .. }, written)) => {
                rtt_ns.push(rtt);
                if let (Some(t), Some(begin), Some(written)) =
                    (tracer.as_deref_mut(), begin, written)
                {
                    let end = t.now();
                    let span = |name, parent, start_ns, end_ns| Span {
                        name,
                        parent,
                        start_ns,
                        end_ns,
                        count: 1,
                    };
                    let parent = t.push(span("client.frame", ROOT, begin, end));
                    t.push(span("client.write", parent, begin, written));
                    t.push(span("client.wait_ack", parent, written, end));
                }
            }
            Ok((Control::Overloaded { .. }, _)) => failed += 1,
            Ok(_) | Err(_) => {
                failed += (frames.len() - i) as u64;
                break;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let stolen = sess.stolen_ticks().saturating_sub(stolen_before) as f64 / 100.0 / wall_s;
    Pass { wall_s, rtt_ns, attempted: frames.len() as u64, failed, stolen }
}

/// One repetition: a fresh server and session, every frame once, then the
/// released-set check against the reference.
pub struct Rep {
    pub pass: Pass,
    /// Server-side per-frame handling latency (`DrainReport.latency`), µs.
    pub frame_handle: Histogram,
    pub checkpoints: u64,
    /// Why the outputs are not the reference's, if they are not.
    pub mismatch: Option<String>,
}

pub fn repetition(
    spec: &'static Spec,
    frames: &[Vec<u8>],
    reference: &Reference,
    tracer: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let mut sess = Session::open(spec)?;
    let pass = drive(&mut sess, frames, tracer);
    let report = sess.close();
    let (checkpoints, mismatch) = if pass.failed > 0 {
        // A refused frame is counted as a failed operation; the released
        // set then differs by construction.
        (0, Some(format!("{} of {} frames failed", pass.failed, pass.attempted)))
    } else {
        match verify(&report, reference) {
            Ok(checkpoints) => (checkpoints, None),
            Err(why) => (0, Some(why)),
        }
    };
    Ok(Rep { pass, frame_handle: report.latency, checkpoints, mismatch })
}

/// The correctness gate: the drain must be clean and the tenant must have
/// ingested and released exactly what the in-process reference did.
/// Returns the checkpoints the session took.
fn verify(report: &DrainReport, reference: &Reference) -> Result<u64, String> {
    if !report.clean {
        return Err("drain was not clean".into());
    }
    let t = report.tenant(TENANT).ok_or("no tenant report")?;
    if t.quarantined || t.admission_rejected != 0 {
        return Err(format!(
            "tenant quarantined={} admission_rejected={}",
            t.quarantined, t.admission_rejected
        ));
    }
    let got = Reference {
        released: t
            .released
            .iter()
            .map(|(q, lines)| (*q, digest(lines.iter().map(String::as_str))))
            .collect(),
        tuples_ingested: t.tuples_ingested,
        sps_ingested: t.sps_ingested,
        input_pos: t.input_pos,
    };
    if got != *reference {
        return Err(format!("released-set mismatch: server {got:?}, reference {reference:?}"));
    }
    Ok(t.checkpoints_taken)
}
