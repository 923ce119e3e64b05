//! Epoch checkpoints: durable, CRC-framed snapshots of a running plan.
//!
//! The paper's guarantee — a tuple is released only under a live security
//! punctuation that covers it — must survive process death. A DSMS that
//! restarts and "forgets" its policy table or quarantine queue can
//! silently widen access, so recovery is built around one invariant:
//! **restored security state is byte-identical to the state that was
//! checkpointed, or the restore is refused**. Losing tuples on recovery
//! is acceptable (and counted); leaking one is not.
//!
//! A [`Checkpoint`] is the consistent cut taken at an epoch boundary: one
//! canonical snapshot per SP Analyzer, per operator and per sink, plus
//! the input position the sources must replay from. On disk (or in a
//! [`MemStore`]) every checkpoint is one frame in the wire format
//! established by [`sp_core::wire`] — `[magic][u32 len][u32 CRC-32][body]`
//! — so a torn write or a flipped bit fails the checksum and recovery
//! falls back to the previous durable checkpoint instead of decoding
//! garbage into a policy table.
//!
//! The per-component byte encodings live here too (shared by every
//! operator's `snapshot`/`restore`): big-endian integers, length-prefixed
//! strings, canonical ordering for map-shaped state. Two runs in the same
//! logical state always serialize identically, which is what lets the
//! chaos tests assert *zero policy-state divergence* across crashes and
//! across the sequential/parallel runtimes.

use std::sync::Arc;

use bytes::{Buf, BufMut};

use sp_core::wire::crc32;
use sp_core::{
    decode_tuple, encode_tuple, BatchPolicy, PatternTable, Policy, SecurityPunctuation,
    StreamElement, Timestamp,
};
use sp_pattern::Pattern;

use crate::element::{Element, PolicyEntry, SegmentPolicy};
use crate::error::EngineError;

/// Frame boundary / version marker for checkpoint frames. Distinct from
/// [`sp_core::wire::MAGIC`] so a checkpoint store and a wire capture can
/// never be confused for one another.
pub const CKPT_MAGIC: u8 = 0xC7;

/// A decode failure while reading snapshot bytes.
pub type CodecError = String;

/// Fails with a "truncated" error unless `n` more bytes are available.
pub fn need(buf: &impl Buf, n: usize, what: &str) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(format!("truncated {what}"))
    } else {
        Ok(())
    }
}

/// Smallest encoding of a tuple: `sid`, `tid`, `ts`, arity, no values.
pub const TUPLE_MIN_LEN: usize = 4 + 8 + 8 + 2;
/// Smallest encoding of a policy: `ts`, flags, two empty role lists.
pub const POLICY_MIN_LEN: usize = 8 + 1 + 2 + 2;
/// Smallest encoding of a `(tuple, policy)` window entry.
pub const TUPLE_POLICY_MIN_LEN: usize = TUPLE_MIN_LEN + POLICY_MIN_LEN;
/// Smallest encoding of an sp: `ts`, flags, model, three empty pattern
/// sources, an empty explicit role list.
pub const SP_MIN_LEN: usize = 8 + 1 + 1 + 3 * 2 + 1 + 2;

/// Reads a `u32` element count and refuses it unless that many elements
/// of at least `min_len` bytes could still follow: a tampered count is an
/// error, never an allocation (the CRC proves a frame intact, not honest).
///
/// # Errors
///
/// Fails on truncation or a count the remaining bytes cannot hold.
pub fn get_count(buf: &mut impl Buf, min_len: usize, what: &str) -> Result<usize, CodecError> {
    need(buf, 4, what)?;
    let n = buf.get_u32() as usize;
    if n.saturating_mul(min_len.max(1)) > buf.remaining() {
        return Err(format!("{what} {n} exceeds the {} byte(s) left", buf.remaining()));
    }
    Ok(n)
}

/// Restores one component: `apply` decodes `bytes` into it and must
/// consume them exactly; any failure is the fail-closed
/// [`EngineError::CheckpointCorrupt`] for `stage`.
///
/// # Errors
///
/// Fails when `apply` fails or leaves trailing bytes.
pub fn restore(
    stage: &str,
    mut bytes: &[u8],
    apply: impl FnOnce(&mut &[u8]) -> Result<(), CodecError>,
) -> Result<(), EngineError> {
    apply(&mut bytes).and_then(|()| done(&bytes)).map_err(|e| EngineError::corrupt(stage, e))
}

/// Writes a `u16`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

/// Reads a `u16`-length-prefixed UTF-8 string.
///
/// # Errors
///
/// Fails on truncation or invalid UTF-8.
pub fn get_str(buf: &mut impl Buf) -> Result<String, CodecError> {
    need(buf, 2, "string length")?;
    let len = buf.get_u16() as usize;
    need(buf, len, "string body")?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| "invalid UTF-8 string".into())
}

/// Writes a `u32`-length-prefixed byte section.
pub fn put_section(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.put_u32(bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Reads a `u32`-length-prefixed byte section.
///
/// # Errors
///
/// Fails on truncation.
pub fn get_section(buf: &mut impl Buf) -> Result<Vec<u8>, CodecError> {
    need(buf, 4, "section length")?;
    let len = buf.get_u32() as usize;
    need(buf, len, "section body")?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    Ok(bytes)
}

/// Set in a segment policy's entry count when a revocation list follows
/// the entries; a segment without one encodes as it always did.
const HAS_DENIALS: u16 = 1 << 15;

fn encode_entries(entries: &[PolicyEntry], buf: &mut impl BufMut) {
    for entry in entries {
        put_str(buf, entry.scope.source());
        entry.policy.encode(buf);
    }
}

fn decode_entries(n: usize, buf: &mut impl Buf) -> Result<Vec<PolicyEntry>, CodecError> {
    let mut entries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let source = get_str(buf)?;
        let scope =
            Pattern::compile(&source).map_err(|e| format!("bad scope pattern {source:?}: {e}"))?;
        let policy = Arc::new(Policy::decode(buf)?);
        entries.push(PolicyEntry { scope, policy });
    }
    Ok(entries)
}

/// Encodes a segment policy: `[u64 ts][u16 entry count][(scope, policy)…]`,
/// then — only when cross-scope revocations exist, flagged by the count's
/// top bit — `[u16 count][(scope, revoked)…]`.
///
/// Scopes are serialized as their pattern source text and re-compiled on
/// decode; the `uniform` fast-path pointer is derived state and is
/// reconstructed on decode.
pub fn encode_segment_policy(p: &SegmentPolicy, buf: &mut impl BufMut) {
    buf.put_u64(p.ts.millis());
    let flag = if p.denials().is_empty() { 0 } else { HAS_DENIALS };
    buf.put_u16(p.entries().len() as u16 & !HAS_DENIALS | flag);
    encode_entries(p.entries(), buf);
    if flag != 0 {
        buf.put_u16(p.denials().len() as u16);
        encode_entries(p.denials(), buf);
    }
}

/// Decodes a segment policy written by [`encode_segment_policy`].
///
/// # Errors
///
/// Fails on truncation, malformed policies, or an uncompilable scope.
pub fn decode_segment_policy(buf: &mut impl Buf) -> Result<SegmentPolicy, CodecError> {
    need(buf, 8 + 2, "segment policy header")?;
    let ts = Timestamp(buf.get_u64());
    let count = buf.get_u16();
    let entries = decode_entries(usize::from(count & !HAS_DENIALS), buf)?;
    let denials = if count & HAS_DENIALS == 0 {
        Vec::new()
    } else {
        need(buf, 2, "segment policy revocation count")?;
        let n = usize::from(buf.get_u16());
        decode_entries(n, buf)?
    };
    Ok(SegmentPolicy::stamped(BatchPolicy::from_parts(entries, denials), ts))
}

/// Encodes an optional segment policy behind a presence byte.
pub fn encode_opt_segment(p: Option<&Arc<SegmentPolicy>>, buf: &mut impl BufMut) {
    match p {
        None => buf.put_u8(0),
        Some(seg) => {
            buf.put_u8(1);
            encode_segment_policy(seg, buf);
        }
    }
}

/// Decodes an optional segment policy written by [`encode_opt_segment`].
///
/// # Errors
///
/// Fails on truncation or a malformed presence byte.
pub fn decode_opt_segment(buf: &mut impl Buf) -> Result<Option<Arc<SegmentPolicy>>, CodecError> {
    need(buf, 1, "segment presence byte")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(Arc::new(decode_segment_policy(buf)?))),
        other => Err(format!("bad segment presence byte {other}")),
    }
}

/// Encodes an optional resolved policy behind a presence byte.
pub fn encode_opt_policy(p: Option<&Policy>, buf: &mut impl BufMut) {
    match p {
        None => buf.put_u8(0),
        Some(policy) => {
            buf.put_u8(1);
            policy.encode(buf);
        }
    }
}

/// Decodes an optional policy written by [`encode_opt_policy`].
///
/// # Errors
///
/// Fails on truncation or a malformed presence byte.
pub fn decode_opt_policy(buf: &mut impl Buf) -> Result<Option<Policy>, CodecError> {
    need(buf, 1, "policy presence byte")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(Policy::decode(buf)?)),
        other => Err(format!("bad policy presence byte {other}")),
    }
}

/// Encodes an engine element (tuple or segment policy) behind a tag byte.
pub fn encode_element(e: &Element, buf: &mut impl BufMut) {
    match e {
        Element::Tuple(t) => {
            buf.put_u8(0);
            encode_tuple(t, buf);
        }
        Element::Policy(p) => {
            buf.put_u8(1);
            encode_segment_policy(p, buf);
        }
    }
}

/// Decodes an element written by [`encode_element`].
///
/// # Errors
///
/// Fails on truncation or an unknown tag.
pub fn decode_element(buf: &mut impl Buf) -> Result<Element, CodecError> {
    need(buf, 1, "element tag")?;
    match buf.get_u8() {
        0 => Ok(Element::Tuple(Arc::new(decode_tuple(buf).map_err(|e| e.to_string())?))),
        1 => Ok(Element::Policy(Arc::new(decode_segment_policy(buf)?))),
        other => Err(format!("unknown element tag {other}")),
    }
}

/// Encodes a raw stream element (tuple or security punctuation).
pub fn encode_stream_element(e: &StreamElement, buf: &mut impl BufMut) {
    match e {
        StreamElement::Tuple(t) => {
            buf.put_u8(0);
            encode_tuple(t, buf);
        }
        StreamElement::Punctuation(sp) => {
            buf.put_u8(1);
            sp.encode(buf);
        }
    }
}

/// Decodes a stream element written by [`encode_stream_element`].
///
/// # Errors
///
/// Fails on truncation or an unknown tag.
pub fn decode_stream_element(buf: &mut impl Buf) -> Result<StreamElement, CodecError> {
    need(buf, 1, "stream element tag")?;
    match buf.get_u8() {
        0 => Ok(StreamElement::tuple(decode_tuple(buf).map_err(|e| e.to_string())?)),
        1 => Ok(StreamElement::punctuation(SecurityPunctuation::decode(
            buf,
            &mut PatternTable::new(),
        )?)),
        other => Err(format!("unknown stream element tag {other}")),
    }
}

/// Asserts a snapshot was consumed exactly.
///
/// # Errors
///
/// Fails when bytes remain — a snapshot with trailing garbage is corrupt.
pub fn done(buf: &impl Buf) -> Result<(), CodecError> {
    if buf.remaining() == 0 {
        Ok(())
    } else {
        Err(format!("{} trailing byte(s) in snapshot", buf.remaining()))
    }
}

/// Merges the state suffixes of a delayed-sp-propagation operator's shard
/// replicas into the canonical (sequential-equivalent) suffix.
///
/// The suffix layout is `replicated_segments` optional segment policies
/// whose value is a pure function of the broadcast policy sequence (and
/// must therefore be byte-identical on every shard), followed by one
/// *pending* optional segment policy — the policy awaiting its first
/// surviving tuple. The pending flush moment is tuple-dependent, so
/// replicas legitimately disagree on it: a shard flushes when *its*
/// partition produces a survivor. The sequential run flushes as soon as
/// *any* tuple survives, so the canonical pending state is `None` exactly
/// when at least one replica has flushed.
///
/// # Errors
///
/// Fails closed with [`EngineError::ShardDivergence`] when the replicated
/// segments differ, or when replicas hold different (non-`None`) pending
/// policies — both mean the broadcast plane is broken.
pub(crate) fn merge_delayed_suffix(
    stage: &str,
    parts: &[&[u8]],
    replicated_segments: usize,
) -> Result<Vec<u8>, EngineError> {
    let Some(first) = parts.first() else {
        return Ok(Vec::new());
    };
    // (byte offset where the pending segment starts, pending is Some)
    let mut decoded = Vec::with_capacity(parts.len());
    for part in parts {
        let mut slice = *part;
        for _ in 0..replicated_segments {
            decode_opt_segment(&mut slice).map_err(|e| EngineError::corrupt(stage, e))?;
        }
        let split = part.len() - slice.len();
        let pending = decode_opt_segment(&mut slice).map_err(|e| EngineError::corrupt(stage, e))?;
        done(&slice).map_err(|e| EngineError::corrupt(stage, e))?;
        decoded.push((split, pending.is_some()));
    }
    let first_split = decoded[0].0;
    for (part, (split, _)) in parts.iter().zip(&decoded) {
        if part[..*split] != first[..first_split] {
            return Err(EngineError::ShardDivergence {
                stage: stage.into(),
                reason: "replicated policy state differs across shard replicas".into(),
            });
        }
    }
    if decoded.iter().any(|(_, some)| !some) {
        // At least one shard saw a survivor: the sequential run has
        // flushed, so the canonical pending state is empty.
        let mut out = first[..first_split].to_vec();
        encode_opt_segment(None, &mut out);
        return Ok(out);
    }
    if parts[1..].iter().any(|p| p != first) {
        return Err(EngineError::ShardDivergence {
            stage: stage.into(),
            reason: "shard replicas hold different pending policies".into(),
        });
    }
    Ok(first.to_vec())
}

/// A consistent cut of a running plan at one epoch boundary.
///
/// `input_pos` is the number of recorded input elements the sources had
/// consumed when the cut was taken; recovery replays the input from this
/// offset. The snapshot sections are positional: they must be restored
/// into a plan built by the *same* builder (same sources, same operator
/// order, same sinks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Epoch number (monotone per run).
    pub epoch: u64,
    /// Recorded-input elements consumed at the cut.
    pub input_pos: u64,
    /// One canonical snapshot per source analyzer, in source order.
    pub analyzers: Vec<Vec<u8>>,
    /// One canonical snapshot per operator node, in node order.
    pub nodes: Vec<Vec<u8>>,
    /// One canonical snapshot per sink, in sink order.
    pub sinks: Vec<Vec<u8>>,
}

impl Checkpoint {
    /// Serializes the checkpoint as one CRC-framed record:
    /// `[CKPT_MAGIC][u32 body length][u32 CRC-32][body]`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(64);
        body.put_u64(self.epoch);
        body.put_u64(self.input_pos);
        for group in [&self.analyzers, &self.nodes, &self.sinks] {
            body.put_u16(group.len() as u16);
            for section in group {
                put_section(&mut body, section);
            }
        }
        buf.put_u8(CKPT_MAGIC);
        buf.put_u32(body.len() as u32);
        buf.put_u32(crc32(&body));
        buf.extend_from_slice(&body);
    }

    /// Serializes into a fresh byte vector.
    #[must_use]
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Deserializes one framed checkpoint, verifying its checksum.
    ///
    /// # Errors
    ///
    /// Fails on bad magic, truncation, checksum mismatch, or a malformed
    /// body — a torn or corrupted checkpoint is refused whole, never
    /// partially applied.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, CodecError> {
        need(buf, 1 + 4 + 4, "checkpoint frame header")?;
        if buf.get_u8() != CKPT_MAGIC {
            return Err("bad checkpoint magic byte".into());
        }
        let len = buf.get_u32() as usize;
        let crc = buf.get_u32();
        need(buf, len, "checkpoint frame body")?;
        let mut body = vec![0u8; len];
        buf.copy_to_slice(&mut body);
        if crc32(&body) != crc {
            return Err("checkpoint checksum mismatch".into());
        }
        Self::decode_body(&body)
    }

    fn decode_body(mut body: &[u8]) -> Result<Self, CodecError> {
        let buf = &mut body;
        need(buf, 8 + 8, "checkpoint header")?;
        let epoch = buf.get_u64();
        let input_pos = buf.get_u64();
        let mut groups: [Vec<Vec<u8>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for group in &mut groups {
            need(buf, 2, "checkpoint group count")?;
            let n = buf.get_u16() as usize;
            for _ in 0..n {
                group.push(get_section(buf)?);
            }
        }
        if buf.remaining() != 0 {
            return Err("trailing bytes in checkpoint body".into());
        }
        let [analyzers, nodes, sinks] = groups;
        Ok(Self { epoch, input_pos, analyzers, nodes, sinks })
    }
}

/// Durable storage for a sequence of checkpoints.
///
/// Stores are append-only logs of CRC frames. Loading scans the log and
/// returns the **latest frame that decodes cleanly**: a torn tail (the
/// classic crash-during-write) silently falls back to the previous
/// durable checkpoint — fail closed, never decode garbage.
pub trait CheckpointStore {
    /// Appends one checkpoint.
    ///
    /// # Errors
    ///
    /// Fails when the underlying medium rejects the write.
    fn save(&mut self, ckpt: &Checkpoint) -> Result<(), EngineError>;

    /// The latest cleanly-decodable checkpoint, if any.
    fn load_latest(&self) -> Option<Checkpoint>;

    /// Number of cleanly-decodable checkpoints currently stored.
    fn count(&self) -> usize;
}

/// Scans an append-only frame log for valid checkpoints.
fn scan_frames(bytes: &[u8]) -> Vec<Checkpoint> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        if bytes[pos] != CKPT_MAGIC {
            pos += 1;
            continue;
        }
        let mut slice = &bytes[pos..];
        let before = slice.len();
        match Checkpoint::decode(&mut slice) {
            Ok(ckpt) => {
                out.push(ckpt);
                pos += before - slice.len();
            }
            Err(_) => pos += 1,
        }
    }
    out
}

/// An in-memory checkpoint store (tests, chaos harness). The backing
/// bytes are exposed so tests can simulate torn writes and bit rot.
#[derive(Debug, Default)]
pub struct MemStore {
    /// The raw append-only frame log.
    pub bytes: Vec<u8>,
}

impl MemStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for MemStore {
    fn save(&mut self, ckpt: &Checkpoint) -> Result<(), EngineError> {
        ckpt.encode(&mut self.bytes);
        Ok(())
    }

    fn load_latest(&self) -> Option<Checkpoint> {
        scan_frames(&self.bytes).pop()
    }

    fn count(&self) -> usize {
        scan_frames(&self.bytes).len()
    }
}

/// A file-backed checkpoint store: the same append-only frame log as
/// [`MemStore`], persisted with an fsync per checkpoint so a durable
/// checkpoint survives process death.
///
/// With retention enabled ([`FileStore::with_retention`]) the log is
/// compacted down to the newest `keep_last` checkpoints whenever it
/// grows past that bound. Compaction is crash-atomic: the survivors are
/// rewritten into a temp file, fsynced, renamed over the log, and the
/// parent directory is fsynced — at every instant either the old log or
/// the new log is fully present, so a crash mid-compaction can never
/// lose the latest durable checkpoint. A stale temp file left by such a
/// crash is ignored on load and overwritten by the next compaction.
#[derive(Debug)]
pub struct FileStore {
    path: std::path::PathBuf,
    /// `Some(k)`: compact the log down to the newest `k` checkpoints
    /// after each save that pushes the count past `k`.
    keep_last: Option<usize>,
}

impl FileStore {
    /// Opens (or creates) the log at `path` with unbounded retention.
    #[must_use]
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        Self { path: path.into(), keep_last: None }
    }

    /// Opens (or creates) the log at `path`, keeping only the newest
    /// `keep_last` checkpoints (minimum 1) on disk.
    #[must_use]
    pub fn with_retention(path: impl Into<std::path::PathBuf>, keep_last: usize) -> Self {
        Self { path: path.into(), keep_last: Some(keep_last.max(1)) }
    }

    /// The log path.
    #[must_use]
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// The compaction scratch path: `<log>.compact` beside the log.
    fn tmp_path(&self) -> std::path::PathBuf {
        let mut name = self.path.as_os_str().to_os_string();
        name.push(".compact");
        std::path::PathBuf::from(name)
    }

    /// Rewrites the log to its newest `keep` checkpoints via temp file +
    /// rename + directory fsync. The old log stays durable until the
    /// rename lands, so a crash anywhere in here loses nothing.
    fn compact(&self, keep: usize) -> Result<(), EngineError> {
        use std::io::Write as _;
        let io = |e: std::io::Error| EngineError::corrupt("checkpoint-compact", e.to_string());
        let bytes = std::fs::read(&self.path).map_err(io)?;
        let frames = scan_frames(&bytes);
        if frames.len() <= keep {
            return Ok(());
        }
        let mut survivors = Vec::new();
        for ckpt in &frames[frames.len() - keep..] {
            ckpt.encode(&mut survivors);
        }
        let tmp = self.tmp_path();
        {
            // `create(true).truncate(true)` clobbers any stale temp file
            // a previous crash left behind.
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)
                .map_err(io)?;
            file.write_all(&survivors).map_err(io)?;
            file.sync_data().map_err(io)?;
        }
        std::fs::rename(&tmp, &self.path).map_err(io)?;
        // The rename is only durable once the directory entry is: fsync
        // the parent so a crash cannot resurrect the pre-compaction log
        // with the new inode lost.
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io)?;
        }
        Ok(())
    }
}

impl CheckpointStore for FileStore {
    fn save(&mut self, ckpt: &Checkpoint) -> Result<(), EngineError> {
        use std::io::Write as _;
        let frame = ckpt.encode_to_vec();
        let io = |e: std::io::Error| EngineError::corrupt("checkpoint-store", e.to_string());
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(&self.path).map_err(io)?;
        file.write_all(&frame).map_err(io)?;
        file.sync_data().map_err(io)?;
        drop(file);
        if let Some(keep) = self.keep_last {
            self.compact(keep)?;
        }
        Ok(())
    }

    fn load_latest(&self) -> Option<Checkpoint> {
        let bytes = std::fs::read(&self.path).ok()?;
        scan_frames(&bytes).pop()
    }

    fn count(&self) -> usize {
        std::fs::read(&self.path).map(|b| scan_frames(&b).len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{RoleSet, StreamId, Tuple, TupleId, Value};

    fn seg(roles: &[u32], ts: u64) -> SegmentPolicy {
        SegmentPolicy::uniform(Policy::tuple_level(
            roles.iter().copied().map(sp_core::RoleId).collect(),
            Timestamp(ts),
        ))
    }

    fn tup(tid: u64) -> Tuple {
        Tuple::new(
            StreamId(3),
            TupleId(tid),
            Timestamp(tid),
            vec![Value::Int(tid as i64), Value::text("x")],
        )
    }

    #[test]
    fn segment_policy_round_trips_scoped_and_uniform() {
        let uniform = seg(&[1, 5], 7);
        let mut buf = Vec::new();
        encode_segment_policy(&uniform, &mut buf);
        let back = decode_segment_policy(&mut buf.as_slice()).unwrap();
        assert_eq!(back, uniform);
        assert!(back.as_uniform().is_some(), "uniform fast path re-derived");

        let scoped = SegmentPolicy::new(
            vec![
                PolicyEntry {
                    scope: Pattern::numeric_range(10, 20),
                    policy: Arc::new(Policy::tuple_level(RoleSet::from([2]), Timestamp(1))),
                },
                PolicyEntry {
                    scope: Pattern::match_all(),
                    policy: Arc::new(
                        Policy::tuple_level(RoleSet::from([4]), Timestamp(1))
                            .with_attr_grant(1, RoleSet::from([9])),
                    ),
                },
            ],
            Timestamp(1),
        );
        let mut buf = Vec::new();
        encode_segment_policy(&scoped, &mut buf);
        let back = decode_segment_policy(&mut buf.as_slice()).unwrap();
        assert_eq!(back, scoped);
        // Cross-scope revocations ride behind a flag in the entry count; a
        // segment without any keeps the bytes it always had.
        let entries = scoped.entries().to_vec();
        let revoked = SegmentPolicy::stamped(
            BatchPolicy::from_parts(entries, scoped.entries()[..1].to_vec()),
            Timestamp(1),
        );
        let plain_len = buf.len();
        let mut buf = Vec::new();
        encode_segment_policy(&revoked, &mut buf);
        assert!(buf.len() > plain_len);
        let back = decode_segment_policy(&mut buf.as_slice()).unwrap();
        assert_eq!(back, revoked);
        assert_eq!(back.denials().len(), 1);
        assert!(decode_segment_policy(&mut &buf[..buf.len() - 1]).is_err(), "truncated");

        let deny = SegmentPolicy::deny(Timestamp(9));
        let mut buf = Vec::new();
        encode_segment_policy(&deny, &mut buf);
        let back = decode_segment_policy(&mut buf.as_slice()).unwrap();
        assert_eq!(back.entries().len(), 0);
        assert_eq!(back.ts, Timestamp(9));
    }

    #[test]
    fn elements_round_trip() {
        for e in [Element::tuple(tup(4)), Element::policy(seg(&[3], 2))] {
            let mut buf = Vec::new();
            encode_element(&e, &mut buf);
            assert_eq!(decode_element(&mut buf.as_slice()).unwrap(), e);
        }
        let sp = StreamElement::punctuation(SecurityPunctuation::grant_all(
            RoleSet::from([1, 2]),
            Timestamp(5),
        ));
        let mut buf = Vec::new();
        encode_stream_element(&sp, &mut buf);
        let back = decode_stream_element(&mut buf.as_slice()).unwrap();
        match (&sp, &back) {
            (StreamElement::Punctuation(a), StreamElement::Punctuation(b)) => {
                assert_eq!(a.ts, b.ts);
            }
            _ => panic!("tag mismatch"),
        }
    }

    fn sample_checkpoint(epoch: u64) -> Checkpoint {
        Checkpoint {
            epoch,
            input_pos: epoch * 100,
            analyzers: vec![vec![1, 2, 3]],
            nodes: vec![vec![4, 5], vec![], vec![6]],
            sinks: vec![vec![7; 9]],
        }
    }

    #[test]
    fn checkpoint_frame_round_trips() {
        let ckpt = sample_checkpoint(3);
        let bytes = ckpt.encode_to_vec();
        assert_eq!(Checkpoint::decode(&mut bytes.as_slice()).unwrap(), ckpt);
    }

    #[test]
    fn corrupt_checkpoint_is_refused() {
        let clean = sample_checkpoint(1).encode_to_vec();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x40;
            assert_ne!(
                Checkpoint::decode(&mut bytes.as_slice()).ok(),
                Some(sample_checkpoint(1)),
                "flip at byte {i} must not decode to the original"
            );
        }
    }

    #[test]
    fn store_falls_back_past_torn_tail() {
        let mut store = MemStore::new();
        store.save(&sample_checkpoint(1)).unwrap();
        store.save(&sample_checkpoint(2)).unwrap();
        assert_eq!(store.count(), 2);
        assert_eq!(store.load_latest().unwrap().epoch, 2);
        // A torn write: half of checkpoint 3 makes it to the log.
        let frame = sample_checkpoint(3).encode_to_vec();
        store.bytes.extend_from_slice(&frame[..frame.len() / 2]);
        assert_eq!(store.load_latest().unwrap().epoch, 2, "torn tail falls back");
        // Bit rot in the latest full frame falls back to the one before.
        let mut store2 = MemStore::new();
        store2.save(&sample_checkpoint(1)).unwrap();
        let start = store2.bytes.len();
        store2.save(&sample_checkpoint(2)).unwrap();
        store2.bytes[start + 12] ^= 0xFF;
        assert_eq!(store2.load_latest().unwrap().epoch, 1, "rotten frame skipped");
    }

    #[test]
    fn file_store_survives_reopen() {
        let path = std::env::temp_dir().join(format!("sp-ckpt-test-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut store = FileStore::new(&path);
            store.save(&sample_checkpoint(1)).unwrap();
            store.save(&sample_checkpoint(2)).unwrap();
        }
        let store = FileStore::new(&path);
        assert_eq!(store.count(), 2);
        assert_eq!(store.load_latest().unwrap(), sample_checkpoint(2));
        let _ = std::fs::remove_file(&path);
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sp-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn retention_compacts_to_keep_last_k() {
        let dir = scratch("retain");
        let path = dir.join("ckpt.log");
        let mut store = FileStore::with_retention(&path, 3);
        for epoch in 1..=10 {
            store.save(&sample_checkpoint(epoch)).unwrap();
            assert_eq!(store.load_latest().unwrap().epoch, epoch);
            assert!(store.count() <= 3, "log must never hold more than K checkpoints");
        }
        assert_eq!(store.count(), 3);
        let bytes = std::fs::read(&path).unwrap();
        let kept: Vec<u64> = scan_frames(&bytes).iter().map(|c| c.epoch).collect();
        assert_eq!(kept, vec![8, 9, 10], "the newest K survive, in order");
        assert!(!store.tmp_path().exists(), "compaction cleans up its temp file");
        // The compacted log is a plain frame log: a fresh handle reads it.
        assert_eq!(FileStore::new(&path).load_latest().unwrap(), sample_checkpoint(10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_compaction_never_loses_durable_checkpoint() {
        let dir = scratch("crash");
        let path = dir.join("ckpt.log");
        let mut store = FileStore::with_retention(&path, 2);
        for epoch in 1..=5 {
            store.save(&sample_checkpoint(epoch)).unwrap();
        }
        assert_eq!(store.load_latest().unwrap().epoch, 5);

        // Crash window A: the temp file exists but the rename never
        // happened. Simulate with a partial (torn) survivor rewrite.
        let survivors = sample_checkpoint(5).encode_to_vec();
        std::fs::write(store.tmp_path(), &survivors[..survivors.len() / 2]).unwrap();
        let reopened = FileStore::with_retention(&path, 2);
        assert_eq!(
            reopened.load_latest().unwrap().epoch,
            5,
            "old log untouched while temp exists: nothing lost"
        );

        // Recovery then keeps running: the next save clobbers the stale
        // temp file and compacts normally.
        let mut store = reopened;
        store.save(&sample_checkpoint(6)).unwrap();
        assert_eq!(store.load_latest().unwrap().epoch, 6);
        assert_eq!(store.count(), 2);
        assert!(!store.tmp_path().exists());

        // Crash window B: the rename landed (log == survivors only).
        // The latest checkpoint must still be the one that was durable.
        let reopened = FileStore::with_retention(&path, 2);
        assert_eq!(reopened.load_latest().unwrap().epoch, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
