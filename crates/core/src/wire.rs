//! Compact wire encoding for punctuated streams.
//!
//! The paper's premise is that devices inject their policies *into the
//! data channel*: "the policies can be encoded into a compact format, and
//! in most cases can be included into the same network message with the
//! data" (§I-B). This module provides that format: a length-prefixed
//! [`Message`] framing zero or more stream elements — security
//! punctuations interleaved with data tuples, exactly as they are to be
//! replayed into the DSMS.
//!
//! The encoding is little-endian-free (all integers big-endian), versioned
//! by a leading magic byte, and deliberately simple: it exists to measure
//! and demonstrate the paper's compactness claim, not to compete with a
//! general serialization framework.
//!
//! # Hostile-input hardening
//!
//! Because punctuations are the *access-control policy itself*, a
//! corrupted frame is a security event, not just a data error. Frames are
//! therefore protected end-to-end:
//!
//! * every frame is `[MAGIC][u32 body length][u32 CRC-32][body]`, so a
//!   flipped bit anywhere in the body fails the checksum instead of
//!   decoding into a different policy;
//! * [`Message::decode`] never panics on arbitrary bytes — every read is
//!   bounds-checked, no wire-supplied count or id sizes an allocation
//!   before it is checked against the bytes present or a fixed ceiling,
//!   and all failures are typed [`WireError`]s;
//! * [`StreamDecoder`] consumes a raw byte stream, *resynchronizing* past
//!   corrupted frames by scanning to the next frame boundary and
//!   counting what it had to skip — a damaged frame costs its own
//!   elements (fail closed), never the rest of the stream.

use bytes::{Buf, BufMut};

use crate::element::StreamElement;
use crate::ids::{StreamId, Timestamp, TupleId};
use crate::punctuation::{PatternTable, SecurityPunctuation};
use crate::tuple::Tuple;
use crate::value::Value;

/// Wire format version tag; also the frame boundary marker
/// [`StreamDecoder`] resynchronizes on.
pub const MAGIC: u8 = 0xA5;

/// Element tags.
const TAG_TUPLE: u8 = 0;
const TAG_SP: u8 = 1;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup tables,
/// built at compile time — hand-rolled so the wire layer stays
/// dependency-free. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// which lets [`crc32`] fold eight input bytes per step (slicing-by-8).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte-at-a-time CRC step: the tail of [`crc32`] and, under test,
/// the oracle the sliced loop is compared against.
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE 802.3) of `bytes`, eight bytes per step.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = crc32_step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err(msg: &str) -> WireError {
    WireError(msg.to_owned())
}

/// Encodes one value.
pub fn encode_value(v: &Value, buf: &mut impl BufMut) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(x) => {
            buf.put_u8(1);
            buf.put_i64(*x);
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_f64(*x);
        }
        Value::Text(s) => {
            buf.put_u8(3);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(u8::from(*b));
        }
    }
}

/// Decodes one value.
///
/// # Errors
///
/// Fails on truncation, malformed UTF-8, or an unknown type tag.
pub fn decode_value(buf: &mut impl Buf) -> Result<Value, WireError> {
    if buf.remaining() < 1 {
        return Err(err("missing value tag"));
    }
    match buf.get_u8() {
        0 => Ok(Value::Null),
        1 => {
            if buf.remaining() < 8 {
                return Err(err("truncated int"));
            }
            Ok(Value::Int(buf.get_i64()))
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(err("truncated float"));
            }
            Ok(Value::Float(buf.get_f64()))
        }
        3 => {
            if buf.remaining() < 4 {
                return Err(err("truncated text length"));
            }
            let len = buf.get_u32() as usize;
            if buf.remaining() < len {
                return Err(err("truncated text body"));
            }
            // Validated where the bytes lie and copied once, into the
            // value; only a `Buf` whose body is not contiguous is gathered
            // into a scratch buffer first.
            let text = match buf.chunk().get(..len) {
                Some(bytes) => std::str::from_utf8(bytes).map(Value::text),
                None => {
                    let mut bytes = vec![0u8; len];
                    buf.copy_to_slice(&mut bytes);
                    return String::from_utf8(bytes)
                        .map(Value::text)
                        .map_err(|_| err("invalid UTF-8 text"));
                }
            };
            buf.advance(len);
            text.map_err(|_| err("invalid UTF-8 text"))
        }
        4 => {
            if buf.remaining() < 1 {
                return Err(err("truncated bool"));
            }
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        other => Err(WireError(format!("unknown value tag {other}"))),
    }
}

/// Encodes one tuple.
pub fn encode_tuple(t: &Tuple, buf: &mut impl BufMut) {
    buf.put_u32(t.sid.raw());
    buf.put_u64(t.tid.raw());
    buf.put_u64(t.ts.millis());
    buf.put_u16(t.arity() as u16);
    for v in t.values() {
        encode_value(v, buf);
    }
}

/// Decodes one tuple.
///
/// # Errors
///
/// Fails on truncation or malformed values.
pub fn decode_tuple(buf: &mut impl Buf) -> Result<Tuple, WireError> {
    if buf.remaining() < 4 + 8 + 8 + 2 {
        return Err(err("truncated tuple header"));
    }
    let sid = StreamId(buf.get_u32());
    let tid = TupleId(buf.get_u64());
    let ts = Timestamp(buf.get_u64());
    let arity = buf.get_u16() as usize;
    // Every value is at least its one-byte tag: bound the wire-supplied
    // count by the bytes that are there before allocating for it.
    if arity > buf.remaining() {
        return Err(err("truncated tuple values"));
    }
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(buf)?);
    }
    Ok(Tuple::new(sid, tid, ts, values))
}

/// A network message: a batch of stream elements for one stream, framed
/// together — punctuations riding with the data tuples they govern.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// The target stream.
    pub stream: StreamId,
    /// The elements, in stream order.
    pub elements: Vec<StreamElement>,
}

impl Message {
    /// A message carrying the given elements.
    #[must_use]
    pub fn new(stream: StreamId, elements: Vec<StreamElement>) -> Self {
        Self { stream, elements }
    }

    /// Serializes the message as one checksummed frame:
    /// `[MAGIC][u32 body length][u32 CRC-32][body]`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        let mut body = Vec::with_capacity(8 + self.elements.len() * 48);
        body.put_u32(self.stream.raw());
        body.put_u32(self.elements.len() as u32);
        for elem in &self.elements {
            match elem {
                StreamElement::Tuple(t) => {
                    body.put_u8(TAG_TUPLE);
                    encode_tuple(t, &mut body);
                }
                StreamElement::Punctuation(sp) => {
                    body.put_u8(TAG_SP);
                    sp.encode(&mut body);
                }
            }
        }
        buf.put_u8(MAGIC);
        buf.put_u32(body.len() as u32);
        buf.put_u32(crc32(&body));
        buf.put_slice(&body);
    }

    /// Serializes into a fresh byte vector.
    #[must_use]
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.elements.len() * 48);
        self.encode(&mut buf);
        buf
    }

    /// Deserializes one framed message, verifying its checksum.
    ///
    /// Safe on untrusted input: never panics, no matter the bytes — every
    /// read is bounds-checked and lengths are validated before allocation.
    ///
    /// # Errors
    ///
    /// Fails on bad magic, truncation, checksum mismatch, or malformed
    /// elements. On error the buffer position is unspecified; use
    /// [`StreamDecoder`] to recover subsequent frames from a byte stream.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        if buf.remaining() < 1 + 4 + 4 {
            return Err(err("truncated frame header"));
        }
        if buf.get_u8() != MAGIC {
            return Err(err("bad magic byte"));
        }
        let len = buf.get_u32() as usize;
        let crc = buf.get_u32();
        let Some(body) = buf.chunk().get(..len) else {
            return Err(err("truncated frame body"));
        };
        if crc32(body) != crc {
            return Err(err("frame checksum mismatch"));
        }
        let msg = Self::decode_body(body, &mut PatternTable::new())?;
        buf.advance(len);
        Ok(msg)
    }

    /// Decodes a checksum-verified frame body.
    fn decode_body(mut body: &[u8], patterns: &mut PatternTable) -> Result<Self, WireError> {
        let buf = &mut body;
        if buf.remaining() < 4 + 4 {
            return Err(err("truncated message header"));
        }
        let stream = StreamId(buf.get_u32());
        let count = buf.get_u32() as usize;
        let mut elements = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            if buf.remaining() < 1 {
                return Err(err("truncated element tag"));
            }
            match buf.get_u8() {
                TAG_TUPLE => elements.push(StreamElement::tuple(decode_tuple(buf)?)),
                TAG_SP => elements.push(StreamElement::punctuation(
                    SecurityPunctuation::decode(buf, patterns).map_err(WireError)?,
                )),
                other => return Err(WireError(format!("unknown element tag {other}"))),
            }
        }
        if buf.remaining() != 0 {
            return Err(err("trailing bytes in frame body"));
        }
        Ok(Self { stream, elements })
    }
}

// ---------------------------------------------------------------------------
// Control frames (server <-> client session protocol)
// ---------------------------------------------------------------------------

/// Frame boundary marker for [`Control`] frames. Distinct from [`MAGIC`]
/// so a resynchronizing decoder can tell session control apart from data
/// without any shared connection state.
pub const MAGIC_CTRL: u8 = 0x5A;

const CTRL_HELLO: u8 = 0;
const CTRL_HELLO_ACK: u8 = 1;
const CTRL_ACK: u8 = 2;
const CTRL_OVERLOADED: u8 = 3;
const CTRL_QUARANTINED: u8 = 4;
const CTRL_DRAINING: u8 = 5;
const CTRL_REPL_HELLO: u8 = 6;
const CTRL_CKPT_SEGMENT: u8 = 7;
const CTRL_CKPT_COMMIT: u8 = 8;
const CTRL_FENCE: u8 = 9;
const CTRL_TRACE: u8 = 10;

/// Why a server quarantined a tenant session (carried in
/// [`Control::Quarantined`]). Quarantine is fail-closed: once set, every
/// further frame from the tenant is refused, never half-processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineCode {
    /// The tenant's pipeline panicked; its state is untrusted.
    Panicked,
    /// The connection exceeded the corrupted-frame budget (a
    /// byte-garbage-spewing client is a security event, not line noise).
    Garbage,
    /// The session could not be restored from its checkpoint.
    ResumeFailed,
}

impl QuarantineCode {
    /// Wire encoding of the code.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            Self::Panicked => 0,
            Self::Garbage => 1,
            Self::ResumeFailed => 2,
        }
    }

    /// Decodes a code, rejecting unknown values.
    ///
    /// # Errors
    ///
    /// Fails on an unassigned code byte.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Self::Panicked),
            1 => Ok(Self::Garbage),
            2 => Ok(Self::ResumeFailed),
            other => Err(WireError(format!("unknown quarantine code {other}"))),
        }
    }
}

/// A session control frame.
///
/// [`Message`] frames carry the punctuated data stream client → server;
/// `Control` frames carry the session protocol around it: the opening
/// handshake, per-frame acknowledgements with the server's consumed
/// position (the exactly-once replay cursor), admission backpressure with
/// retry hints, fail-closed quarantine notices, and the graceful-drain
/// goodbye. Framing is identical to data frames
/// (`[MAGIC_CTRL][u32 len][u32 CRC-32][body]`), so the same resync logic
/// protects both.
///
/// The replication frames ([`Control::ReplHello`],
/// [`Control::CheckpointSegment`], [`Control::CheckpointCommit`],
/// [`Control::Fence`]) carry the primary→standby checkpoint-shipping
/// protocol over the same envelope. Every one of them carries the
/// sender's **fencing epoch** — a monotonically increasing generation
/// number that makes failover fail-closed: any node that observes a
/// higher epoch than its own has been deposed and must stop releasing
/// tuples immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// Client → server: open (or re-open) a tenant session.
    /// `acked` is the highest server position the client has seen — the
    /// server replies with the authoritative [`Control::HelloAck`].
    Hello {
        /// The tenant this connection ingests for.
        tenant: u32,
        /// The client's last known acknowledged position (advisory).
        acked: u64,
    },
    /// Server → client: session open. The client must resume sending
    /// from element `resume_from` of its input log — positions before it
    /// were already consumed (possibly by a previous incarnation of the
    /// server, restored from checkpoint).
    HelloAck {
        /// Replay cursor: first input-log position not yet consumed.
        resume_from: u64,
    },
    /// Server → client: the frame was consumed; `pos` is the session's
    /// input position after it (counting admission-shed tuples, which
    /// must not be replayed).
    Ack {
        /// Input position after the frame.
        pos: u64,
    },
    /// Server → client: admission refused at least one tuple of the
    /// frame. The frame is still *consumed* up to `pos`; the client
    /// should back off for at least `retry_after_ms` of stream time
    /// before sending more.
    Overloaded {
        /// Minimum stream-time delay before the bucket holds a token.
        retry_after_ms: u64,
        /// Input position after the frame (shed tuples included).
        pos: u64,
    },
    /// Server → client: the tenant session is quarantined; nothing
    /// further will be processed (fail closed).
    Quarantined {
        /// Why the session was quarantined.
        code: QuarantineCode,
    },
    /// Server → client: the server is draining; the session was
    /// checkpointed at `pos` and the connection is closing.
    Draining {
        /// Input position of the drain checkpoint.
        pos: u64,
    },
    /// Primary → standby: open (or re-open) the replication link. The
    /// standby echoes the frame back (with its own highest known epoch)
    /// as the link acknowledgement; an echo carrying a *higher* epoch
    /// than the sender's tells a stale primary it has been deposed.
    ReplHello {
        /// The sender's fencing epoch.
        fencing_epoch: u64,
    },
    /// Primary → standby: one chunk of a tenant's encoded epoch
    /// checkpoint. Segments are buffered by `(tenant, epoch)` and only
    /// applied when the matching [`Control::CheckpointCommit`] verifies —
    /// a partial ship is discarded whole, never half-applied.
    CheckpointSegment {
        /// The tenant whose checkpoint is being shipped.
        tenant: u32,
        /// The checkpoint's epoch number.
        epoch: u64,
        /// The sender's fencing epoch.
        fencing_epoch: u64,
        /// Zero-based index of this segment.
        seq: u32,
        /// Total number of segments in this checkpoint.
        total: u32,
        /// This segment's slice of the encoded checkpoint frame.
        bytes: Vec<u8>,
    },
    /// Primary → standby: commit marker for a shipped checkpoint. The
    /// standby reassembles the segments, verifies `len` and `crc`
    /// against the whole, applies the checkpoint, and echoes this frame
    /// back as the per-tenant replication acknowledgement.
    CheckpointCommit {
        /// The tenant whose checkpoint is being committed.
        tenant: u32,
        /// The checkpoint's epoch number.
        epoch: u64,
        /// The sender's fencing epoch.
        fencing_epoch: u64,
        /// Total length of the assembled checkpoint bytes.
        len: u32,
        /// CRC-32 of the assembled checkpoint bytes.
        crc: u32,
    },
    /// Any → any: the sender asserts `fencing_epoch`. A receiver whose
    /// own epoch is lower has been deposed: it must stop releasing
    /// tuples (fail closed) and audit every refusal. Also sent by a
    /// fenced server to its clients so they fail over to the new
    /// primary.
    Fence {
        /// The asserted fencing epoch.
        fencing_epoch: u64,
    },
    /// Client → server: the causal trace context for the *next*
    /// [`Message`] frame on this connection (sp-trace). Purely
    /// observational — a server that drops it changes no processing,
    /// only the resulting span tree. Ids are derived deterministically
    /// (see [`crate::trace::TraceContext`]), so both ends agree on them
    /// without negotiation.
    Trace {
        /// Trace id of the upcoming frame.
        trace_id: u64,
        /// The client-side span the server's ingress spans hang under.
        parent_span: u64,
    },
}

impl Control {
    /// Serializes the control frame:
    /// `[MAGIC_CTRL][u32 body length][u32 CRC-32][body]`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        let mut body: Vec<u8> = Vec::with_capacity(16);
        match self {
            Self::Hello { tenant, acked } => {
                body.put_u8(CTRL_HELLO);
                body.put_u32(*tenant);
                body.put_u64(*acked);
            }
            Self::HelloAck { resume_from } => {
                body.put_u8(CTRL_HELLO_ACK);
                body.put_u64(*resume_from);
            }
            Self::Ack { pos } => {
                body.put_u8(CTRL_ACK);
                body.put_u64(*pos);
            }
            Self::Overloaded { retry_after_ms, pos } => {
                body.put_u8(CTRL_OVERLOADED);
                body.put_u64(*retry_after_ms);
                body.put_u64(*pos);
            }
            Self::Quarantined { code } => {
                body.put_u8(CTRL_QUARANTINED);
                body.put_u8(code.as_u8());
            }
            Self::Draining { pos } => {
                body.put_u8(CTRL_DRAINING);
                body.put_u64(*pos);
            }
            Self::ReplHello { fencing_epoch } => {
                body.put_u8(CTRL_REPL_HELLO);
                body.put_u64(*fencing_epoch);
            }
            Self::CheckpointSegment { tenant, epoch, fencing_epoch, seq, total, bytes } => {
                body.put_u8(CTRL_CKPT_SEGMENT);
                body.put_u32(*tenant);
                body.put_u64(*epoch);
                body.put_u64(*fencing_epoch);
                body.put_u32(*seq);
                body.put_u32(*total);
                body.put_u32(bytes.len() as u32);
                body.put_slice(bytes);
            }
            Self::CheckpointCommit { tenant, epoch, fencing_epoch, len, crc } => {
                body.put_u8(CTRL_CKPT_COMMIT);
                body.put_u32(*tenant);
                body.put_u64(*epoch);
                body.put_u64(*fencing_epoch);
                body.put_u32(*len);
                body.put_u32(*crc);
            }
            Self::Fence { fencing_epoch } => {
                body.put_u8(CTRL_FENCE);
                body.put_u64(*fencing_epoch);
            }
            Self::Trace { trace_id, parent_span } => {
                body.put_u8(CTRL_TRACE);
                body.put_u64(*trace_id);
                body.put_u64(*parent_span);
            }
        }
        buf.put_u8(MAGIC_CTRL);
        buf.put_u32(body.len() as u32);
        buf.put_u32(crc32(&body));
        buf.put_slice(&body);
    }

    /// Serializes into a fresh byte vector.
    #[must_use]
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        self.encode(&mut buf);
        buf
    }

    /// Decodes a checksum-verified control frame body.
    fn decode_body(mut body: &[u8]) -> Result<Self, WireError> {
        let buf = &mut body;
        if buf.remaining() < 1 {
            return Err(err("truncated control tag"));
        }
        let tag = buf.get_u8();
        let need = |buf: &&[u8], n: usize| -> Result<(), WireError> {
            if buf.remaining() < n {
                Err(err("truncated control body"))
            } else {
                Ok(())
            }
        };
        let ctrl = match tag {
            CTRL_HELLO => {
                need(buf, 12)?;
                Self::Hello { tenant: buf.get_u32(), acked: buf.get_u64() }
            }
            CTRL_HELLO_ACK => {
                need(buf, 8)?;
                Self::HelloAck { resume_from: buf.get_u64() }
            }
            CTRL_ACK => {
                need(buf, 8)?;
                Self::Ack { pos: buf.get_u64() }
            }
            CTRL_OVERLOADED => {
                need(buf, 16)?;
                Self::Overloaded { retry_after_ms: buf.get_u64(), pos: buf.get_u64() }
            }
            CTRL_QUARANTINED => {
                need(buf, 1)?;
                Self::Quarantined { code: QuarantineCode::from_u8(buf.get_u8())? }
            }
            CTRL_DRAINING => {
                need(buf, 8)?;
                Self::Draining { pos: buf.get_u64() }
            }
            CTRL_REPL_HELLO => {
                need(buf, 8)?;
                Self::ReplHello { fencing_epoch: buf.get_u64() }
            }
            CTRL_CKPT_SEGMENT => {
                need(buf, 4 + 8 + 8 + 4 + 4 + 4)?;
                let tenant = buf.get_u32();
                let epoch = buf.get_u64();
                let fencing_epoch = buf.get_u64();
                let seq = buf.get_u32();
                let total = buf.get_u32();
                let n = buf.get_u32() as usize;
                need(buf, n)?;
                let mut bytes = vec![0u8; n];
                buf.copy_to_slice(&mut bytes);
                Self::CheckpointSegment { tenant, epoch, fencing_epoch, seq, total, bytes }
            }
            CTRL_CKPT_COMMIT => {
                need(buf, 4 + 8 + 8 + 4 + 4)?;
                Self::CheckpointCommit {
                    tenant: buf.get_u32(),
                    epoch: buf.get_u64(),
                    fencing_epoch: buf.get_u64(),
                    len: buf.get_u32(),
                    crc: buf.get_u32(),
                }
            }
            CTRL_FENCE => {
                need(buf, 8)?;
                Self::Fence { fencing_epoch: buf.get_u64() }
            }
            CTRL_TRACE => {
                need(buf, 16)?;
                Self::Trace { trace_id: buf.get_u64(), parent_span: buf.get_u64() }
            }
            other => return Err(WireError(format!("unknown control tag {other}"))),
        };
        if buf.remaining() != 0 {
            return Err(err("trailing bytes in control body"));
        }
        Ok(ctrl)
    }
}

/// One decoded frame from a mixed control/data byte stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// A data frame.
    Message(Message),
    /// A session control frame.
    Control(Control),
    /// A ciphertext frame of the outsourced-enforcement mechanism
    /// (see [`crate::crypto::frame`]).
    Cipher(crate::crypto::CipherFrame),
}

/// Incremental decoder for a socket byte stream of [`Message`],
/// [`Control`], and [`crate::crypto::CipherFrame`] frames.
///
/// Built for live delivery: bytes arrive in arbitrary chunks, so an
/// incomplete frame is *retained* until the rest arrives. Corruption is
/// fail-closed — a frame whose checksum or body fails to verify is
/// skipped by scanning to the next plausible boundary, costing exactly
/// its own elements, and because they are simply absent (rather than
/// guessed at) no policy or tuple is ever fabricated from corrupt bytes
/// — and a frame header whose claimed length exceeds
/// `max_frame_len` is treated as corruption immediately rather than
/// waiting forever for bytes that will never come (a one-byte lie must
/// not stall the connection past its read deadline).
#[derive(Debug)]
pub struct StreamDecoder {
    /// The unfinished tail of the byte stream; empty between frames.
    buf: Vec<u8>,
    max_frame_len: usize,
    /// This connection's compiled sp patterns (see [`PatternTable`]).
    patterns: PatternTable,
    /// Frames skipped because of checksum/body failure or an absurd
    /// claimed length.
    pub corrupted_frames: u64,
    /// Bytes discarded while scanning for a frame boundary.
    pub skipped_bytes: u64,
}

/// Frame header size: magic + length + CRC.
const FRAME_HEADER: usize = 1 + 4 + 4;

impl StreamDecoder {
    /// A decoder refusing frames whose body claims more than
    /// `max_frame_len` bytes.
    #[must_use]
    pub fn new(max_frame_len: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_frame_len,
            patterns: PatternTable::new(),
            corrupted_frames: 0,
            skipped_bytes: 0,
        }
    }

    /// Bytes buffered waiting for the rest of a frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Feeds a chunk of received bytes, returning every frame that
    /// completed. Never panics on arbitrary input; counters accumulate
    /// across the connection's lifetime.
    ///
    /// With nothing buffered the frames are parsed where they lie in
    /// `bytes` and only an unfinished tail is copied; otherwise `bytes`
    /// joins the buffered tail and that is parsed.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<WireFrame> {
        let mut out = Vec::new();
        if self.buf.is_empty() {
            let used = self.scan(bytes, &mut out);
            self.buf.extend_from_slice(&bytes[used..]);
        } else {
            let mut buf = std::mem::take(&mut self.buf);
            buf.extend_from_slice(bytes);
            let used = self.scan(&buf, &mut out);
            buf.drain(..used);
            self.buf = buf;
        }
        out
    }

    /// Decodes every complete frame of `src` into `out`, resynchronizing
    /// past corruption, and returns how many bytes were consumed: the
    /// rest is the start of a frame that has not fully arrived.
    fn scan(&mut self, src: &[u8], out: &mut Vec<WireFrame>) -> usize {
        let mut pos = 0;
        loop {
            while pos < src.len()
                && src[pos] != MAGIC
                && src[pos] != MAGIC_CTRL
                && src[pos] != crate::crypto::frame::MAGIC_CIPHER
            {
                pos += 1;
                self.skipped_bytes += 1;
            }
            let Some(&[magic, l0, l1, l2, l3, c0, c1, c2, c3]) = src[pos..].first_chunk() else {
                break; // incomplete header: wait for more bytes
            };
            let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
            let frame = if len > self.max_frame_len {
                None // an absurd length is corruption now, not bytes to wait for
            } else {
                let Some(body) = src[pos + FRAME_HEADER..].get(..len) else {
                    break; // incomplete body: wait for more bytes
                };
                self.decode_frame(magic, u32::from_be_bytes([c0, c1, c2, c3]), body)
            };
            match frame {
                Some(frame) => {
                    out.push(frame);
                    pos += FRAME_HEADER + len;
                }
                // Not a frame start after all: resume one byte on.
                None => {
                    self.corrupted_frames += 1;
                    self.skipped_bytes += 1;
                    pos += 1;
                }
            }
        }
        pos
    }

    /// The frame `body` holds, if it passes its checksum and is well
    /// formed for its magic.
    fn decode_frame(&mut self, magic: u8, crc: u32, body: &[u8]) -> Option<WireFrame> {
        if crc32(body) != crc {
            return None;
        }
        match magic {
            MAGIC => Message::decode_body(body, &mut self.patterns).map(WireFrame::Message).ok(),
            MAGIC_CTRL => Control::decode_body(body).map(WireFrame::Control).ok(),
            _ => crate::crypto::CipherFrame::decode_body(body).map(WireFrame::Cipher).ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::punctuation::DataDescription;
    use crate::roleset::RoleSet;

    fn tuple(tid: u64) -> Tuple {
        Tuple::new(
            StreamId(7),
            TupleId(tid),
            Timestamp(tid * 10),
            vec![
                Value::Int(tid as i64),
                Value::Float(1.5),
                Value::text("précis"),
                Value::Bool(true),
                Value::Null,
            ],
        )
    }

    fn sp(ts: u64) -> SecurityPunctuation {
        SecurityPunctuation::grant_all(RoleSet::from([1, 5, 100]), Timestamp(ts))
            .with_ddp(DataDescription::tuple_range(10, 20))
    }

    #[test]
    fn tuple_round_trip() {
        let t = tuple(42);
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let decoded = decode_tuple(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, t);
    }

    /// A reader that shows one byte at a time, as a `Buf` over scattered
    /// chunks does: no text body is ever contiguous in it.
    struct Trickle<'a>(&'a [u8]);

    impl Buf for Trickle<'_> {
        fn remaining(&self) -> usize {
            self.0.len()
        }

        fn chunk(&self) -> &[u8] {
            &self.0[..self.0.len().min(1)]
        }

        fn advance(&mut self, cnt: usize) {
            self.0 = &self.0[cnt..];
        }

        fn copy_to_slice(&mut self, dst: &mut [u8]) {
            dst.copy_from_slice(&self.0[..dst.len()]);
            self.advance(dst.len());
        }
    }

    #[test]
    fn text_values_decode_multibyte_and_refuse_invalid_utf8() {
        let value = Value::text("précis · 東京 · 🦀");
        let mut bytes = Vec::new();
        encode_value(&value, &mut bytes);
        bytes.push(0xEE); // the next field's first byte stays unread
        let mut slice = bytes.as_slice();
        assert_eq!(decode_value(&mut slice), Ok(value.clone()));
        assert_eq!(slice, [0xEE]);
        let mut trickle = Trickle(&bytes);
        assert_eq!(decode_value(&mut trickle), Ok(value));
        assert_eq!(trickle.0, [0xEE]);

        // A lone continuation byte, then a truncated two-byte sequence.
        for body in [&[b'a', 0x80, b'b'][..], &[b'a', 0xC3][..]] {
            let mut bytes = vec![3];
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(body);
            let invalid = Err(err("invalid UTF-8 text"));
            assert_eq!(decode_value(&mut bytes.as_slice()), invalid);
            assert_eq!(decode_value(&mut Trickle(&bytes)), invalid);
            bytes.pop();
            bytes[4] += 1; // claims one byte more than is there
            let truncated = Err(err("truncated text body"));
            assert_eq!(decode_value(&mut bytes.as_slice()), truncated);
            assert_eq!(decode_value(&mut Trickle(&bytes)), truncated);
        }
    }

    #[test]
    fn message_round_trip_mixed() {
        let msg = Message::new(
            StreamId(7),
            vec![
                StreamElement::punctuation(sp(1)),
                StreamElement::tuple(tuple(11)),
                StreamElement::tuple(tuple(12)),
                StreamElement::punctuation(sp(2)),
                StreamElement::tuple(tuple(13)),
            ],
        );
        let bytes = msg.encode_to_vec();
        let decoded = Message::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn sp_overhead_is_small_relative_to_data() {
        // The paper's claim: the policy rides in the same message with
        // little extra demand. One sp amortized over a 10-tuple segment
        // adds a small fraction of the message size.
        let data_only =
            Message::new(StreamId(7), (0..10).map(|i| StreamElement::tuple(tuple(i))).collect());
        let mut with_sp_elems = vec![StreamElement::punctuation(sp(1))];
        with_sp_elems.extend((0..10).map(|i| StreamElement::tuple(tuple(i))));
        let with_sp = Message::new(StreamId(7), with_sp_elems);
        let base = data_only.encode_to_vec().len();
        let augmented = with_sp.encode_to_vec().len();
        let overhead = (augmented - base) as f64 / base as f64;
        assert!(overhead < 0.15, "sp overhead {overhead:.2} too large");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&mut &b""[..]).is_err());
        assert!(Message::decode(&mut &b"\x00\x00\x00\x00\x00\x00\x00\x00\x00"[..]).is_err());
        let msg = Message::new(StreamId(1), vec![StreamElement::tuple(tuple(1))]);
        let mut bytes = msg.encode_to_vec();
        bytes.truncate(bytes.len() - 3);
        assert!(Message::decode(&mut bytes.as_slice()).is_err());
        // Corrupt an element tag.
        let mut bytes = msg.encode_to_vec();
        bytes[9] = 99;
        assert!(Message::decode(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn empty_message_round_trips() {
        let msg = Message::new(StreamId(3), vec![]);
        let bytes = msg.encode_to_vec();
        assert_eq!(Message::decode(&mut bytes.as_slice()).unwrap(), msg);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time loop the sliced [`crc32`] replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_bytewise_at_every_length_and_alignment() {
        // 8 alignments + 256 bytes, with a non-repeating pattern so a
        // misplaced table index cannot cancel out.
        let data: Vec<u8> =
            (0..8 + 256u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for start in 0..8 {
            for len in 0..=256 {
                let window = &data[start..start + len];
                assert_eq!(crc32(window), crc32_bytewise(window), "start {start} len {len}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_crc32_equals_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            start in 0usize..8,
        ) {
            let window = bytes.get(start..).unwrap_or(&[]);
            proptest::prop_assert_eq!(crc32(window), crc32_bytewise(window));
        }
    }

    #[test]
    fn tuple_arity_is_bounded_by_the_bytes_present() {
        // A bare 22-byte header claiming 65 535 values must be refused
        // before anything is allocated for them.
        let mut bytes = Vec::new();
        encode_tuple(&Tuple::new(StreamId(1), TupleId(2), Timestamp(3), vec![]), &mut bytes);
        assert_eq!(bytes.len(), 22);
        bytes[20..].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_tuple(&mut bytes.as_slice()), Err(err("truncated tuple values")));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let msg = Message::new(
            StreamId(7),
            vec![StreamElement::punctuation(sp(1)), StreamElement::tuple(tuple(11))],
        );
        let clean = msg.encode_to_vec();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                let decoded = Message::decode(&mut bytes.as_slice());
                assert_ne!(
                    decoded.ok(),
                    Some(msg.clone()),
                    "flip of byte {byte} bit {bit} must not decode to the original"
                );
            }
        }
    }

    #[test]
    fn control_frames_round_trip() {
        let frames = [
            Control::Hello { tenant: 7, acked: 42 },
            Control::HelloAck { resume_from: 9000 },
            Control::Ack { pos: u64::MAX },
            Control::Overloaded { retry_after_ms: 125, pos: 3 },
            Control::Quarantined { code: QuarantineCode::Garbage },
            Control::Quarantined { code: QuarantineCode::Panicked },
            Control::Quarantined { code: QuarantineCode::ResumeFailed },
            Control::Draining { pos: 17 },
            Control::Trace { trace_id: 0xDEAD_BEEF_CAFE_F00D, parent_span: 42 },
            Control::Trace { trace_id: 0, parent_span: u64::MAX },
        ];
        for ctrl in frames {
            let bytes = ctrl.encode_to_vec();
            let mut dec = StreamDecoder::new(1024);
            let got = dec.feed(&bytes);
            assert_eq!(got, vec![WireFrame::Control(ctrl)]);
            assert_eq!(dec.corrupted_frames, 0);
        }
    }

    #[test]
    fn replication_frames_round_trip() {
        let frames = [
            Control::ReplHello { fencing_epoch: 1 },
            Control::CheckpointSegment {
                tenant: 7,
                epoch: 42,
                fencing_epoch: 3,
                seq: 2,
                total: 5,
                bytes: vec![0xC7, 0x00, 0xFF, 0x5A, 0xA5],
            },
            Control::CheckpointSegment {
                tenant: 0,
                epoch: u64::MAX,
                fencing_epoch: u64::MAX,
                seq: 0,
                total: 1,
                bytes: Vec::new(),
            },
            Control::CheckpointCommit {
                tenant: 9,
                epoch: 4,
                fencing_epoch: 2,
                len: 1024,
                crc: 0xDEAD_BEEF,
            },
            Control::Fence { fencing_epoch: 17 },
        ];
        for ctrl in frames {
            let bytes = ctrl.encode_to_vec();
            let mut dec = StreamDecoder::new(1024);
            let got = dec.feed(&bytes);
            assert_eq!(got, vec![WireFrame::Control(ctrl)]);
            assert_eq!(dec.corrupted_frames, 0);
        }
    }

    #[test]
    fn unknown_control_tag_is_refused_not_panicked() {
        // A well-framed control body with an unassigned tag must fail
        // decode (counted as corruption), never panic or fabricate.
        for tag in [11u8, 12, 99, 255] {
            let body = vec![tag, 1, 2, 3, 4, 5, 6, 7, 8];
            let mut bytes = vec![MAGIC_CTRL];
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(&crc32(&body).to_be_bytes());
            bytes.extend_from_slice(&body);
            let mut dec = StreamDecoder::new(1024);
            let got = dec.feed(&bytes);
            assert!(got.is_empty(), "tag {tag} must not decode");
            assert!(dec.corrupted_frames >= 1);
        }
    }

    #[test]
    fn truncated_segment_bytes_are_refused() {
        // A CheckpointSegment whose byte-length field lies past the body
        // end must fail decode cleanly.
        let ctrl = Control::CheckpointSegment {
            tenant: 1,
            epoch: 2,
            fencing_epoch: 3,
            seq: 0,
            total: 1,
            bytes: vec![1, 2, 3, 4],
        };
        let clean = ctrl.encode_to_vec();
        // Rewrite the inner length field (last u32 before the payload)
        // to claim more bytes than the frame holds, refreshing the CRC
        // so only the *body* validation can catch it.
        let mut body = clean[9..].to_vec();
        let len_at = body.len() - 4 - 4; // 4 payload bytes, 4-byte length
        body[len_at..len_at + 4].copy_from_slice(&1_000u32.to_be_bytes());
        let mut bytes = vec![MAGIC_CTRL];
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(&body).to_be_bytes());
        bytes.extend_from_slice(&body);
        let mut dec = StreamDecoder::new(1024);
        assert!(dec.feed(&bytes).is_empty());
        assert!(dec.corrupted_frames >= 1);
    }

    #[test]
    fn stream_decoder_reassembles_one_byte_chunks() {
        let msg = Message::new(
            StreamId(7),
            vec![StreamElement::punctuation(sp(1)), StreamElement::tuple(tuple(11))],
        );
        let mut bytes = Control::Hello { tenant: 1, acked: 0 }.encode_to_vec();
        msg.encode(&mut bytes);
        Control::Ack { pos: 2 }.encode(&mut bytes);
        let mut dec = StreamDecoder::new(1 << 16);
        let mut got = Vec::new();
        for b in &bytes {
            got.extend(dec.feed(std::slice::from_ref(b)));
        }
        assert_eq!(
            got,
            vec![
                WireFrame::Control(Control::Hello { tenant: 1, acked: 0 }),
                WireFrame::Message(msg),
                WireFrame::Control(Control::Ack { pos: 2 }),
            ]
        );
        assert_eq!(dec.corrupted_frames, 0);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn stream_decoder_resyncs_past_garbage_and_corruption() {
        let a = Message::new(StreamId(1), vec![StreamElement::tuple(tuple(1))]);
        let b = Message::new(StreamId(2), vec![StreamElement::tuple(tuple(2))]);
        let mut bytes = vec![0xDE, 0xAD];
        a.encode(&mut bytes);
        let corrupt_at = bytes.len() + 12;
        b.encode(&mut bytes); // will be corrupted
        bytes[corrupt_at] ^= 0xFF;
        bytes.extend_from_slice(&[MAGIC, 0x01]); // torn header tail
        let c = Message::new(StreamId(3), vec![StreamElement::tuple(tuple(3))]);
        c.encode(&mut bytes);
        let mut dec = StreamDecoder::new(1 << 16);
        let got = dec.feed(&bytes);
        let ids: Vec<u32> = got
            .iter()
            .filter_map(|f| match f {
                WireFrame::Message(m) => Some(m.stream.raw()),
                WireFrame::Control(_) | WireFrame::Cipher(_) => None,
            })
            .collect();
        assert_eq!(ids, vec![1, 3], "only the damaged frame is lost");
        assert!(dec.corrupted_frames >= 1);
    }

    #[test]
    fn stream_decoder_rejects_absurd_length_instead_of_stalling() {
        // A frame header claiming a body far beyond the cap must count as
        // corruption immediately, not buffer forever.
        let mut bytes = vec![MAGIC];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        let msg = Message::new(StreamId(5), vec![StreamElement::tuple(tuple(9))]);
        msg.encode(&mut bytes);
        let mut dec = StreamDecoder::new(1 << 16);
        let got = dec.feed(&bytes);
        assert_eq!(got, vec![WireFrame::Message(msg)]);
        assert!(dec.corrupted_frames >= 1);
    }

    #[test]
    fn stream_decoder_retains_partial_frame_across_feeds() {
        let msg = Message::new(StreamId(4), vec![StreamElement::tuple(tuple(6))]);
        let bytes = msg.encode_to_vec();
        let mut dec = StreamDecoder::new(1 << 16);
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        assert!(dec.feed(head).is_empty());
        assert!(dec.buffered() > 0);
        assert_eq!(dec.feed(tail), vec![WireFrame::Message(msg)]);
        assert_eq!(dec.corrupted_frames, 0);
    }
}
