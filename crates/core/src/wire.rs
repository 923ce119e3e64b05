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
/// which lets [`crc32_update`] fold eight input bytes per step
/// (slicing-by-8).
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

/// One byte-at-a-time CRC step: the tail of the sliced loop and, under
/// test, the oracle every path is compared against.
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE 802.3) of `bytes`.
///
/// A buffer of at least 64 bytes goes through the carry-less-multiply
/// kernel when the CPU has it (x86-64 with PCLMULQDQ and SSE4.1, detected
/// at run time); every other buffer, CPU and architecture through the
/// slicing-by-8 tables. Both compute the same value.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN {
        if let Some(crc) = crc32_clmul(bytes) {
            return crc;
        }
    }
    crc32_sliced(bytes)
}

/// CRC-32 of `bytes` by the slicing-by-8 tables: the path for short
/// buffers and for CPUs without the kernel's features.
fn crc32_sliced(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Folds `bytes` into the CRC register `c`, eight bytes per step.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    c
}

/// CRC-32 of `bytes` by the carry-less-multiply kernel, or `None` on a CPU
/// without PCLMULQDQ and SSE4.1.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn crc32_clmul(bytes: &[u8]) -> Option<u32> {
    if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
        return None;
    }
    // SAFETY: `clmul::crc32` is compiled for PCLMULQDQ and SSE4.1, and
    // `is_x86_feature_detected!` has just confirmed at run time that this
    // CPU has both. The kernel reads `bytes` through safe slices only.
    Some(unsafe { clmul::crc32(bytes) })
}

/// CRC-32 by carry-less multiplication (PCLMULQDQ), after Intel's "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// in its bit-reflected form, with the constants Linux and `crc32fast`
/// use for the polynomial `0xEDB88320`: fold four 128-bit lanes across
/// each 64-byte block, fold them into one, fold in the remaining 16-byte
/// blocks, reduce 128 → 64 bits, Barrett-reduce 64 → 32 bits, and finish
/// the last 0–15 bytes on the tables.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_extract_epi32, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest buffer the kernel folds: four 16-byte lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold a lane 512 bits forward (low half by K1, high half by K2).
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// Fold a lane 128 bits forward (low half by K3, high half by K4).
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// Reduce 96 bits to 64.
    const K5: i64 = 0x1_63CD_6124;
    /// P(x), bit-reflected with its x^32 term.
    const P_X: i64 = 0x1_DB71_0641;
    /// μ = ⌊x^64 / P(x)⌋, bit-reflected: the Barrett constant.
    const MU: i64 = 0x1_F701_1641;

    /// CRC-32 of `bytes`; a buffer shorter than [`MIN_LEN`] goes to the
    /// tables.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let [b0, b1, b2, b3, rest @ ..] = blocks else {
            return super::crc32_sliced(bytes);
        };
        // The register starts at all ones: fold that into the first lane.
        let mut x = [lane(u128::from_le_bytes(*b0) ^ 0xFFFF_FFFF), load(b1), load(b2), load(b3)];
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(4);
        for quad in &mut quads {
            for (x, b) in x.iter_mut().zip(quad) {
                *x = fold(*x, load(b), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [x0, x1, x2, x3] = x;
        let mut acc = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        for b in quads.remainder() {
            acc = fold(acc, load(b), k3k4);
        }

        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 → 96 bits: the low half times K4, plus the high half.
        let acc = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, k3k4), _mm_srli_si128::<8>(acc));
        // 96 → 64 bits: the low word times K5, plus the rest.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, C = (R ⊕ T2) / x^32.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        super::crc32_update(c, tail) ^ 0xFFFF_FFFF
    }

    /// One 16-byte block as a lane, its first byte lowest.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        lane(u128::from_le_bytes(*block))
    }

    /// `v` as a lane, its low 64 bits in the low half.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    fn lane(v: u128) -> __m128i {
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Folds lane `x` forward across the distance `k` encodes and adds
    /// lane `next`: `next ⊕ x.lo·k.lo ⊕ x.hi·k.hi`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    fn fold(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(next, _mm_clmulepi64_si128::<0x00>(x, k)),
            _mm_clmulepi64_si128::<0x11>(x, k),
        )
    }
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

/// Frame header size: magic + length + CRC.
const FRAME_HEADER: usize = 1 + 4 + 4;

/// Appends the header of a frame with magic `magic` to `buf`, its length
/// and CRC left zero for [`seal_frame`], and returns where the frame
/// starts. The body is then encoded straight into `buf`.
fn open_frame(buf: &mut Vec<u8>, magic: u8) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[magic, 0, 0, 0, 0, 0, 0, 0, 0]);
    start
}

/// Writes the body length and CRC-32 into the header of the frame that
/// [`open_frame`] opened at `start`, now that its body ends `buf`.
fn seal_frame(buf: &mut [u8], start: usize) {
    let (header, body) = buf[start..].split_at_mut(FRAME_HEADER);
    header[1..5].copy_from_slice(&(body.len() as u32).to_be_bytes());
    header[5..].copy_from_slice(&crc32(body).to_be_bytes());
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

    /// Appends the message to `buf` as one checksummed frame:
    /// `[MAGIC][u32 body length][u32 CRC-32][body]`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = open_frame(buf, MAGIC);
        buf.put_u32(self.stream.raw());
        buf.put_u32(self.elements.len() as u32);
        for elem in &self.elements {
            match elem {
                StreamElement::Tuple(t) => {
                    buf.put_u8(TAG_TUPLE);
                    encode_tuple(t, buf);
                }
                StreamElement::Punctuation(sp) => {
                    buf.put_u8(TAG_SP);
                    sp.encode(buf);
                }
            }
        }
        seal_frame(buf, start);
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
    /// Appends the control frame to `buf`:
    /// `[MAGIC_CTRL][u32 body length][u32 CRC-32][body]`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = open_frame(buf, MAGIC_CTRL);
        match self {
            Self::Hello { tenant, acked } => {
                buf.put_u8(CTRL_HELLO);
                buf.put_u32(*tenant);
                buf.put_u64(*acked);
            }
            Self::HelloAck { resume_from } => {
                buf.put_u8(CTRL_HELLO_ACK);
                buf.put_u64(*resume_from);
            }
            Self::Ack { pos } => {
                buf.put_u8(CTRL_ACK);
                buf.put_u64(*pos);
            }
            Self::Overloaded { retry_after_ms, pos } => {
                buf.put_u8(CTRL_OVERLOADED);
                buf.put_u64(*retry_after_ms);
                buf.put_u64(*pos);
            }
            Self::Quarantined { code } => {
                buf.put_u8(CTRL_QUARANTINED);
                buf.put_u8(code.as_u8());
            }
            Self::Draining { pos } => {
                buf.put_u8(CTRL_DRAINING);
                buf.put_u64(*pos);
            }
            Self::ReplHello { fencing_epoch } => {
                buf.put_u8(CTRL_REPL_HELLO);
                buf.put_u64(*fencing_epoch);
            }
            Self::CheckpointSegment { tenant, epoch, fencing_epoch, seq, total, bytes } => {
                buf.put_u8(CTRL_CKPT_SEGMENT);
                buf.put_u32(*tenant);
                buf.put_u64(*epoch);
                buf.put_u64(*fencing_epoch);
                buf.put_u32(*seq);
                buf.put_u32(*total);
                buf.put_u32(bytes.len() as u32);
                buf.put_slice(bytes);
            }
            Self::CheckpointCommit { tenant, epoch, fencing_epoch, len, crc } => {
                buf.put_u8(CTRL_CKPT_COMMIT);
                buf.put_u32(*tenant);
                buf.put_u64(*epoch);
                buf.put_u64(*fencing_epoch);
                buf.put_u32(*len);
                buf.put_u32(*crc);
            }
            Self::Fence { fencing_epoch } => {
                buf.put_u8(CTRL_FENCE);
                buf.put_u64(*fencing_epoch);
            }
            Self::Trace { trace_id, parent_span } => {
                buf.put_u8(CTRL_TRACE);
                buf.put_u64(*trace_id);
                buf.put_u64(*parent_span);
            }
        }
        seal_frame(buf, start);
    }

    /// Serializes into a fresh byte vector.
    #[must_use]
    pub fn encode_to_vec(&self) -> Vec<u8> {
        // Every frame but a checkpoint segment fits (a commit is 38 bytes).
        let mut buf = Vec::with_capacity(40);
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
        // Standard IEEE 802.3 check values, then zlib's `crc32` of three
        // buffers long enough for the kernel.
        let ramp: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0x00; 1024], 0xEFB5_AF2E),
            (&ramp, 0xB70B_4C26),
            (&[0xFF; 4096], 0xF154_670A),
        ];
        for (bytes, want) in vectors {
            assert_eq!(crc32_every_path(bytes), want, "{} bytes", bytes.len());
        }
    }

    /// The byte-at-a-time loop the sliced [`crc32`] replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF
    }

    /// The oracle's CRC of `bytes`, after asserting that the dispatching
    /// [`crc32`], the table path and (on a CPU that has it) the kernel all
    /// give the same value.
    fn crc32_every_path(bytes: &[u8]) -> u32 {
        let want = crc32_bytewise(bytes);
        let len = bytes.len();
        assert_eq!(crc32(bytes), want, "crc32, {len} bytes");
        assert_eq!(crc32_sliced(bytes), want, "tables, {len} bytes");
        #[cfg(target_arch = "x86_64")]
        if let Some(got) = crc32_clmul(bytes) {
            assert_eq!(got, want, "kernel, {len} bytes");
        }
        want
    }

    /// `len` bytes of a non-repeating pattern, so a misplaced table index
    /// or lane cannot cancel out.
    fn crc_pattern(len: u32) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect()
    }

    #[test]
    fn sliced_crc32_equals_bytewise_at_every_length_and_alignment() {
        // Every length across the kernel's 64-byte threshold, its 16-byte
        // blocks and its 64-byte folds, at 16 start alignments.
        let data = crc_pattern(16 + 1024);
        for start in 0..16 {
            for len in 0..=1024 {
                crc32_every_path(&data[start..start + len]);
            }
        }
    }

    #[test]
    fn crc32_paths_agree_on_a_max_size_frame() {
        // The server's `MAX_FRAME_LEN`: the longest body a CRC covers.
        crc32_every_path(&crc_pattern(1 << 20));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_crc32_changes_on_every_single_bit_flip() {
        let mut body = crc_pattern(1024);
        let Some(clean) = crc32_clmul(&body) else {
            return; // no PCLMULQDQ on this CPU: the table path is checked above
        };
        for bit in 0..body.len() * 8 {
            body[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32_clmul(&body), Some(clean), "flip of bit {bit}");
            body[bit / 8] ^= 1 << (bit % 8);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_crc32_equals_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64 * 1024),
            start in 0usize..16,
        ) {
            crc32_every_path(bytes.get(start..).unwrap_or(&[]));
        }
    }

    /// A deterministic data frame of over 8 KiB: tuples interleaved with
    /// grants (roles past the inline 128 included) and immutable denials.
    fn pinned_message() -> Message {
        let elements = (0..200u64)
            .map(|i| match i % 5 {
                0 => StreamElement::punctuation(
                    SecurityPunctuation::grant_all(
                        RoleSet::from([i as u32 % 7, 64 + i as u32]),
                        Timestamp(i),
                    )
                    .with_ddp(DataDescription::tuple_range(i, i + 20)),
                ),
                3 if i % 4 == 3 => StreamElement::punctuation(sp(i).negative().immutable()),
                _ => StreamElement::tuple(tuple(i)),
            })
            .collect();
        Message::new(StreamId(7), elements)
    }

    #[test]
    fn encoded_frames_are_pinned() {
        // Length and oracle CRC-32 of each frame's full bytes, recorded
        // from the encoder that built the body in a separate buffer: a
        // change here is a change to the bytes on the wire.
        let commit = Control::CheckpointCommit {
            tenant: 9,
            epoch: 4,
            fencing_epoch: 2,
            len: 1 << 20,
            crc: 0xDEAD_BEEF,
        };
        let frames = [
            ("message", pinned_message().encode_to_vec(), 10_349, 0x138A_4250),
            ("ack", Control::Ack { pos: 0x0123_4567_89AB_CDEF }.encode_to_vec(), 18, 0xC170_C803),
            ("commit", commit.encode_to_vec(), 38, 0xB816_339A),
        ];
        for (name, bytes, len, crc) in frames {
            assert_eq!((bytes.len(), crc32_bytewise(&bytes)), (len, crc), "{name}");
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
