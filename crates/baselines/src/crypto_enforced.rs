//! The **crypto-enforced** mechanism: access control on an *untrusted*
//! server, Streamforce / "Stream on the Sky"-style (PAPERS.md).
//!
//! The three plaintext mechanisms trust the server to apply the policy.
//! Here the server is only a forwarder of ciphertext it cannot read:
//!
//! * a [`CryptoProvider`] runs the *same* SP Analyzer as the engine
//!   path, but instead of releasing plaintext it cuts the stream into
//!   ciphertext segments (`HEADER → DATA… → DIGEST → TERMINATOR`, see
//!   [`sp_core::crypto::frame`]). The segment data key is wrapped in one
//!   [`sp_core::crypto::KeyCapsule`] per role the governing policy
//!   grants — the policy table *is* the key schedule;
//! * an [`UntrustedRelay`] (or the chaos harness's hostile
//!   `FaultInjector::forward`) forwards the encoded frames;
//! * a [`CryptoClient`] holds keys only for the query's roles. A tuple
//!   is released **iff** a role-held key opens a capsule and the frame
//!   and segment digest authenticate — release is a cryptographic fact,
//!   not a server decision.
//!
//! ## Rollback-safe release
//!
//! The client is a first-class state machine with `snapshot`/`restore`
//! like every other operator. Within a segment, small frames are
//! decrypted *tentatively* into an ordered release journal; large
//! frames stay buffered as ciphertext. Nothing leaves the journal until
//! the TERMINATOR commits a verified segment digest; a failed segment
//! rolls the journal back — every retracted tuple is audited as
//! [`AuditEvent::TentativeRolledBack`] — so the output only ever
//! contains committed tuples and retraction is impossible by
//! construction.
//!
//! ## Fail closed
//!
//! Undecryptable, truncated, nonce-reused, replayed, or stale-key-epoch
//! ciphertext is suppressed and counted ([`CipherViolation`]), never
//! released, never a panic. Key revocation rides the sp channel: a
//! negative sp advances the key epoch (a
//! [`sp_core::crypto::CipherFrame::KeyEpoch`] punctuation), after which
//! capsules sealed under older epochs are refused.
//!
//! The primitives underneath are reproduction-grade — see the
//! [`sp_core::crypto`] module caveat.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sp_core::crypto::{
    self, derive_key, frame::CipherFrame, open, seal, CipherFrame as Frame, Key, KeyCapsule, Nonce,
    Sha256, DIGEST_LEN, TAG_LEN,
};
use sp_core::{
    decode_tuple, encode_tuple, RoleCatalog, RoleId, RoleSet, Schema, Sign, StreamElement, Tuple,
};
use sp_engine::telemetry::{AuditEvent, CipherViolation, FlightRecorder, NO_SP, NO_TUPLE};
use sp_engine::{Element, SegmentPolicy, SpAnalyzer};

use crate::mechanism::{EnforcementMechanism, MechStats, PolicyState};

/// Frames whose sealed payload is at most this many bytes are decrypted
/// tentatively on arrival (the journal holds plaintext); larger frames
/// stay ciphertext until the segment digest verifies.
pub const SMALL_FRAME_MAX: usize = 96;

/// Data frames per segment before the provider cuts the segment anyway,
/// bounding how much the client must journal before a TERMINATOR.
pub const MAX_SEGMENT_FRAMES: u32 = 64;

/// Nonce for DATA frame `idx` of segment `seg` (and, with
/// `idx = u32::MAX`, the segment digest; with a role id, a capsule).
/// Indices are strictly monotone within a key's lifetime, so nonces
/// never repeat for honest parties — and the client *enforces* the
/// monotonicity, so a server replaying a nonce breaks authentication
/// rather than silently succeeding.
fn nonce_for(idx: u32, seg: u64) -> Nonce {
    let mut n = [0u8; crypto::NONCE_LEN];
    n[..4].copy_from_slice(&idx.to_be_bytes());
    n[4..].copy_from_slice(&seg.to_be_bytes());
    n
}

/// AAD binding a DATA frame (or digest / capsule) to its position.
fn aad_for(stream: u32, seg: u64, epoch: u64, idx: u32) -> [u8; 20] {
    let mut a = [0u8; 20];
    a[..4].copy_from_slice(&stream.to_be_bytes());
    a[4..12].copy_from_slice(&seg.to_be_bytes());
    a[12..20].copy_from_slice(&epoch.to_be_bytes());
    let idx_bytes = idx.to_be_bytes();
    for (i, b) in idx_bytes.iter().enumerate() {
        a[4 + i] ^= *b; // fold idx into the seg lane; fields stay bound
    }
    a
}

/// Reserved DATA index for the segment digest's nonce.
const DIGEST_IDX: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Key authority
// ---------------------------------------------------------------------------

/// The trusted key service both ends share: derives per-(stream, role,
/// epoch) keys and segment data keys from one master key. The
/// *untrusted* server never talks to it.
///
/// Epochs make revocation effective against a hostile forwarder: the
/// authority hands out role keys up to its **current** epoch only, and
/// the provider advances it at every negative sp — so replayed old
/// capsules fail the client's epoch check. *Who* may open a new segment
/// is not the authority's to say: the segment carries a capsule for
/// exactly the roles the governing sp-batch grants
/// ([`sp_core::BatchPolicy`]), so a revoked role finds none — and finds
/// one again when a later batch grants it anew.
pub struct KeyAuthority {
    master: Key,
    epoch: Mutex<u64>,
}

impl KeyAuthority {
    /// An authority deriving every key from `master`.
    #[must_use]
    pub fn new(master: Key) -> Self {
        Self { master, epoch: Mutex::new(0) }
    }

    /// The current key epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        *self.lock()
    }

    /// Advances the key epoch (a revocation event); returns the new
    /// epoch.
    pub fn advance_epoch(&self) -> u64 {
        let mut epoch = self.lock();
        *epoch += 1;
        *epoch
    }

    /// The key a holder of `role` uses at `epoch` on `stream` — or
    /// `None` (fail closed) when `epoch` has not been reached yet. Keys
    /// for *past* epochs remain obtainable: they were already
    /// distributed, and replay of old segments is the client's job to
    /// refuse (segment highwater + epoch tracking), not a secret the
    /// authority can retract.
    #[must_use]
    pub fn role_key(&self, stream: u32, role: u32, epoch: u64) -> Option<Key> {
        (epoch <= self.epoch()).then(|| self.wrap_key(stream, role, epoch))
    }

    /// The provider-side data key for segment `seg` of `stream`.
    /// Deterministic, so same-seed runs produce byte-identical frames.
    fn data_key(&self, stream: u32, seg: u64) -> Key {
        derive_key(&self.master, "data-key", &[u64::from(stream), seg])
    }

    /// Provider-side role key derivation: the provider wraps capsules
    /// only for roles the *policy* grants, which is where revocation
    /// semantics live.
    fn wrap_key(&self, stream: u32, role: u32, epoch: u64) -> Key {
        derive_key(&self.master, "role-key", &[u64::from(stream), u64::from(role), epoch])
    }

    /// Approximate bytes of key-derivation state held.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        crypto::KEY_LEN + std::mem::size_of::<u64>()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, u64> {
        // A poisoned authority lock means a panic mid-derivation; the
        // state is plain integers, safe to keep using (fail closed is
        // preserved because derivation is pure).
        match self.epoch.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

// ---------------------------------------------------------------------------
// Provider
// ---------------------------------------------------------------------------

struct OpenProviderSegment {
    seg: u64,
    epoch: u64,
    /// Roles whose capsules this segment carries. Scoped policies grant
    /// different roles to different tuples *within one segment policy*,
    /// so the segment must be cut the moment the granted set changes —
    /// sealing a deny-all tuple under a key some role holds would leak it.
    roles: RoleSet,
    data_key: Key,
    next_idx: u32,
    digest: Sha256,
}

/// The trusted producer: runs the SP Analyzer over the raw punctuated
/// stream and emits encoded [`CipherFrame`]s instead of plaintext.
///
/// Segment cuts happen when the governing policy's granted role set
/// changes (so every tuple in a segment shares one capsule set), when a
/// negative sp advances the key epoch, and every
/// [`MAX_SEGMENT_FRAMES`] frames to bound client-side journaling.
pub struct CryptoProvider {
    analyzer: SpAnalyzer,
    authority: Arc<KeyAuthority>,
    stream: Option<u32>,
    current: Option<Arc<SegmentPolicy>>,
    open: Option<OpenProviderSegment>,
    next_seg: u64,
    staged: Vec<Element>,
}

impl CryptoProvider {
    /// A provider enforcing `catalog`-resolved policies over `schema`.
    #[must_use]
    pub fn new(
        catalog: Arc<RoleCatalog>,
        schema: Arc<Schema>,
        authority: Arc<KeyAuthority>,
    ) -> Self {
        Self {
            analyzer: SpAnalyzer::new(schema, catalog),
            authority,
            stream: None,
            current: None,
            open: None,
            next_seg: 0,
            staged: Vec::new(),
        }
    }

    /// Bytes of policy-table state the analyzer holds (the canonical
    /// policy-table encoding's length — the same probe the overload
    /// suite uses).
    #[must_use]
    pub fn policy_table_bytes(&self) -> usize {
        self.analyzer.policy_table_bytes().len()
    }

    /// Processes one raw element, returning the encoded frames it
    /// produces (possibly none — analyzer buffering — or several —
    /// segment close + open).
    pub fn push(&mut self, elem: StreamElement, frames: &mut Vec<Vec<u8>>) {
        if let (StreamElement::Punctuation(sp), Some(stream)) = (&elem, self.stream) {
            if sp.sign == Sign::Negative {
                // Key revocation rides the sp channel: close the open
                // segment under the old epoch, advance the epoch, and
                // punctuate the cipher stream (before the first tuple
                // there is no cipher stream yet, and no key to rotate).
                // Whom the revocation reaches is the resolved policy's
                // to say — the capsules of the segments that follow —
                // not the authority's.
                self.close_segment(frames);
                let epoch = self.authority.advance_epoch();
                frames.push(Frame::KeyEpoch { stream, epoch }.encode_to_vec());
            }
        }
        if self.stream.is_none() {
            if let StreamElement::Tuple(t) = &elem {
                self.stream = Some(t.sid.raw());
            }
        }
        let mut staged = std::mem::take(&mut self.staged);
        self.analyzer.push(elem, &mut staged);
        self.seal_staged(&mut staged, frames);
        self.staged = staged;
    }

    /// Closes any open segment and flushes its DIGEST + TERMINATOR.
    /// Call at end of stream or the final segment's tuples stay
    /// unreleasable (the client, correctly, never commits an unclosed
    /// segment).
    pub fn finish(&mut self, frames: &mut Vec<Vec<u8>>) {
        let mut staged = std::mem::take(&mut self.staged);
        self.analyzer.flush(&mut staged);
        self.seal_staged(&mut staged, frames);
        self.staged = staged;
        self.close_segment(frames);
    }

    /// Turns what the analyzer emitted into cipher frames.
    fn seal_staged(&mut self, staged: &mut Vec<Element>, frames: &mut Vec<Vec<u8>>) {
        for e in staged.drain(..) {
            match e {
                Element::Policy(seg) => {
                    // Policy boundary: the next tuple decides whether a
                    // new cipher segment is actually needed.
                    if seg.replaces(self.current.as_ref()) {
                        self.current = Some(seg);
                    }
                    self.close_segment(frames);
                }
                Element::Tuple(t) => self.push_tuple(&t, frames),
            }
        }
    }

    fn stream_id(&self) -> u32 {
        self.stream.unwrap_or(0)
    }

    fn push_tuple(&mut self, t: &Arc<Tuple>, frames: &mut Vec<Vec<u8>>) {
        let stream = self.stream.get_or_insert(t.sid.raw());
        let stream = *stream;
        let (roles, sp_ts) = match &self.current {
            Some(seg) => (seg.policy_for(t.tid).tuple_roles().clone(), seg.ts.0),
            // No governing policy: default deny — a segment no role can
            // open (zero capsules), so the decision is still made by
            // cryptography, uniformly.
            None => (RoleSet::new(), NO_SP),
        };
        let epoch = self.authority.epoch();
        let cut = match &self.open {
            Some(o) => o.epoch != epoch || o.next_idx >= MAX_SEGMENT_FRAMES || o.roles != roles,
            None => true,
        };
        if cut {
            self.close_segment(frames);
            let seg = self.next_seg;
            self.next_seg += 1;
            let data_key = self.authority.data_key(stream, seg);
            let capsules: Vec<KeyCapsule> = roles
                .iter()
                .map(|r| {
                    let wrap = self.authority.wrap_key(stream, r.raw(), epoch);
                    let aad = aad_for(stream, seg, epoch, r.raw());
                    KeyCapsule {
                        role: r.raw(),
                        wrapped: seal(&wrap, &nonce_for(r.raw(), seg), &aad, &data_key),
                    }
                })
                .collect();
            frames.push(
                Frame::Header { stream, seg, key_epoch: epoch, sp_ts, capsules }.encode_to_vec(),
            );
            self.open = Some(OpenProviderSegment {
                seg,
                epoch,
                roles,
                data_key,
                next_idx: 0,
                digest: Sha256::new(),
            });
        }
        let Some(o) = self.open.as_mut() else { return };
        let mut plain = Vec::with_capacity(64);
        encode_tuple(t, &mut plain);
        let idx = o.next_idx;
        o.next_idx += 1;
        let sealed = seal(
            &o.data_key,
            &nonce_for(idx, o.seg),
            &aad_for(stream, o.seg, o.epoch, idx),
            &plain,
        );
        o.digest.update(&sealed);
        frames.push(Frame::Data { stream, seg: o.seg, idx, sealed }.encode_to_vec());
    }

    fn close_segment(&mut self, frames: &mut Vec<Vec<u8>>) {
        let Some(o) = self.open.take() else { return };
        let stream = self.stream_id();
        let digest = o.digest.finalize();
        let sealed_digest = seal(
            &o.data_key,
            &nonce_for(DIGEST_IDX, o.seg),
            &aad_for(stream, o.seg, o.epoch, o.next_idx),
            &digest,
        );
        frames.push(
            Frame::Digest { stream, seg: o.seg, count: o.next_idx, sealed_digest }.encode_to_vec(),
        );
        frames.push(Frame::Terminator { stream, seg: o.seg }.encode_to_vec());
    }
}

// ---------------------------------------------------------------------------
// Relay
// ---------------------------------------------------------------------------

/// The honest-but-curious server: forwards encoded frames verbatim and
/// can count them, but holds no key material whatsoever — everything it
/// sees besides segment shape is ciphertext. The chaos harness swaps
/// this for `sp_engine::fault::FaultInjector::forward` under a
/// `FaultSchedule::cipher` schedule, the malicious version.
#[derive(Debug, Default)]
pub struct UntrustedRelay {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Ciphertext bytes forwarded.
    pub bytes: u64,
}

impl UntrustedRelay {
    /// Forwards one frame.
    pub fn forward(&mut self, frame: Vec<u8>) -> Vec<u8> {
        self.forwarded += 1;
        self.bytes += frame.len() as u64;
        frame
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One journal entry of an open segment: a tentatively decrypted small
/// frame, or a still-sealed large frame.
enum Staged {
    /// Tentatively released: decrypted and decoded on arrival.
    Clear(Arc<Tuple>),
    /// Buffered ciphertext, decrypted only at commit.
    Sealed(u32, Vec<u8>),
}

impl Staged {
    fn mem_bytes(&self) -> usize {
        match self {
            Self::Clear(t) => t.mem_bytes(),
            Self::Sealed(_, b) => 4 + b.len(),
        }
    }
}

struct ClientSegment {
    seg: u64,
    epoch: u64,
    sp_ts: u64,
    /// `None` = no capsule a held role could open: an *authorized
    /// denial*, every frame suppressed like a shield deny.
    data_key: Option<Key>,
    /// The query role whose capsule opened (audit justification).
    release_role: u32,
    next_idx: u32,
    digest: Sha256,
    staged: Vec<Staged>,
    staged_bytes: usize,
    /// Opened digest: `(covered frame count, digest)`.
    digest_frame: Option<(u32, [u8; DIGEST_LEN])>,
    /// First violation that condemned the segment, if any.
    poisoned: Option<CipherViolation>,
}

/// The query-side decryptor and rollback-safe release state machine.
///
/// Holds role keys for the query's roles only (fetched from the
/// [`KeyAuthority`] per epoch) and releases a tuple **iff** its capsule
/// chain and segment digest authenticate. See the module docs for the
/// journal/commit semantics.
pub struct CryptoClient {
    authority: Arc<KeyAuthority>,
    stream: Option<u32>,
    query_roles: Vec<u32>,
    epoch: u64,
    role_keys: HashMap<u32, Key>,
    /// Highest segment ever opened; headers must exceed it (replay
    /// detection even for rolled-back segments).
    seg_highwater: Option<u64>,
    open: Option<ClientSegment>,
    in_flight: usize,
    recorder: FlightRecorder,
    released: u64,
    denied: u64,
    /// Suppression counts by [`CipherViolation::code`].
    violations: [u64; 9],
    /// Frames released despite a failed tag check — always 0 for this
    /// client; the deliberately broken negative-control client counts
    /// here.
    released_unauthenticated: u64,
    broken_tag_check: bool,
}

impl CryptoClient {
    /// A client for a query holding `query_roles`, journaling at most
    /// `in_flight` frames per segment before failing the segment closed.
    #[must_use]
    pub fn new(authority: Arc<KeyAuthority>, query_roles: &RoleSet, in_flight: usize) -> Self {
        let mut c = Self {
            authority,
            stream: None,
            query_roles: query_roles.iter().map(RoleId::raw).collect(),
            epoch: 0,
            role_keys: HashMap::new(),
            seg_highwater: None,
            open: None,
            in_flight: in_flight.max(1),
            recorder: FlightRecorder::new(8192),
            released: 0,
            denied: 0,
            violations: [0; 9],
            released_unauthenticated: 0,
            broken_tag_check: false,
        };
        c.refresh_role_keys();
        c
    }

    /// NEGATIVE CONTROL ONLY: returns a client that releases frames
    /// whose AEAD tag check failed (decrypting with the raw keystream).
    /// The chaos harness uses it to prove the subset/audit invariants
    /// actually catch an unsound release path.
    #[must_use]
    pub fn with_broken_tag_check(mut self) -> Self {
        self.broken_tag_check = true;
        self
    }

    /// Tuples released (committed) so far.
    #[must_use]
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Tuples/frames denied or suppressed so far.
    #[must_use]
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Frames released despite failing authentication — **must** stay 0
    /// for a sound client.
    #[must_use]
    pub fn released_unauthenticated(&self) -> u64 {
        self.released_unauthenticated
    }

    /// Suppressions recorded for `reason` so far.
    #[must_use]
    pub fn violation_count(&self, reason: CipherViolation) -> u64 {
        self.violations[reason.code() as usize]
    }

    /// Total suppressions across all violation reasons.
    #[must_use]
    pub fn violations_total(&self) -> u64 {
        self.violations.iter().sum()
    }

    /// The audit flight recorder (always enabled on the client).
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Deterministic byte encoding of the audit trail.
    #[must_use]
    pub fn audit_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.recorder.encode(&mut buf);
        buf
    }

    /// Bytes currently journaled awaiting segment verification. Drains
    /// to zero at every TERMINATOR (commit *or* rollback).
    #[must_use]
    pub fn cipher_buffer_bytes(&self) -> usize {
        self.open.as_ref().map_or(0, |o| o.staged_bytes)
    }

    /// Bytes of key material held (role keys + open segment data key).
    #[must_use]
    pub fn key_table_bytes(&self) -> usize {
        self.role_keys.len() * crypto::KEY_LEN
            + self.open.as_ref().map_or(0, |o| o.data_key.is_some() as usize * crypto::KEY_LEN)
    }

    fn refresh_role_keys(&mut self) {
        let stream = self.stream.unwrap_or(0);
        self.role_keys.clear();
        for &r in &self.query_roles {
            if let Some(k) = self.authority.role_key(stream, r, self.epoch) {
                self.role_keys.insert(r, k);
            }
        }
    }

    fn suppress(&mut self, tid: u64, ts: u64, reason: CipherViolation) {
        self.denied += 1;
        self.violations[reason.code() as usize] += 1;
        self.recorder.record(tid, ts, AuditEvent::CipherSuppressed { reason });
    }

    /// Poisons the open segment (first violation wins) without counting
    /// a frame — the terminator's rollback accounts for the journal.
    fn poison(&mut self, reason: CipherViolation) {
        if let Some(o) = self.open.as_mut() {
            if o.poisoned.is_none() {
                o.poisoned = Some(reason);
            }
        }
    }

    /// Rolls back and discards the open segment, auditing every
    /// journaled tuple and the condemning violation.
    fn rollback_open(&mut self, reason: CipherViolation) {
        let Some(mut o) = self.open.take() else { return };
        let reason = o.poisoned.unwrap_or(reason);
        self.violations[reason.code() as usize] += 1;
        self.recorder.record(NO_TUPLE, o.sp_ts, AuditEvent::CipherSuppressed { reason });
        for entry in o.staged.drain(..) {
            let tid = match &entry {
                Staged::Clear(t) => t.tid.raw(),
                Staged::Sealed(..) => NO_TUPLE,
            };
            self.denied += 1;
            self.recorder.record(tid, o.sp_ts, AuditEvent::TentativeRolledBack { seg: o.seg });
        }
    }

    /// Feeds one encoded frame from the server. Committed tuples are
    /// appended to `out`; everything else is suppressed and audited.
    /// Never panics on arbitrary input.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<Arc<Tuple>>) {
        let frame = match CipherFrame::decode_frame(bytes) {
            Ok(f) => f,
            Err(_) => {
                // Not a decodable cipher frame at all: corruption the
                // envelope caught, or a torn frame.
                self.suppress(NO_TUPLE, NO_SP, CipherViolation::Malformed);
                return;
            }
        };
        match frame {
            Frame::Header { stream, seg, key_epoch, sp_ts, capsules } => {
                self.on_header(stream, seg, key_epoch, sp_ts, &capsules);
            }
            Frame::Data { stream, seg, idx, sealed } => {
                self.on_data(stream, seg, idx, &sealed);
            }
            Frame::Digest { stream, seg, count, sealed_digest } => {
                self.on_digest(stream, seg, count, &sealed_digest);
            }
            Frame::Terminator { stream, seg } => self.on_terminator(stream, seg, out),
            Frame::KeyEpoch { stream, epoch } => self.on_key_epoch(stream, epoch),
        }
    }

    fn stream_ok(&mut self, stream: u32) -> bool {
        match self.stream {
            Some(s) => s == stream,
            None => {
                self.stream = Some(stream);
                self.refresh_role_keys();
                true
            }
        }
    }

    fn on_header(
        &mut self,
        stream: u32,
        seg: u64,
        key_epoch: u64,
        sp_ts: u64,
        capsules: &[KeyCapsule],
    ) {
        if !self.stream_ok(stream) {
            self.suppress(NO_TUPLE, sp_ts, CipherViolation::Malformed);
            return;
        }
        if self.open.is_some() {
            // A header inside an unterminated segment: the old segment
            // can never verify — roll it back, then consider the new one.
            self.rollback_open(CipherViolation::Incomplete);
        }
        if self.seg_highwater.is_some_and(|hw| seg <= hw) {
            self.suppress(NO_TUPLE, sp_ts, CipherViolation::Replayed);
            return;
        }
        self.seg_highwater = Some(seg);
        let mut segment = ClientSegment {
            seg,
            epoch: key_epoch,
            sp_ts,
            data_key: None,
            release_role: u32::MAX,
            next_idx: 0,
            digest: Sha256::new(),
            staged: Vec::new(),
            staged_bytes: 0,
            digest_frame: None,
            poisoned: None,
        };
        if key_epoch != self.epoch {
            // Stale (or fabricated) key epoch: the segment is tracked so
            // its frames are attributed, but it is condemned already.
            segment.poisoned = Some(CipherViolation::StaleKeyEpoch);
            self.open = Some(segment);
            return;
        }
        for &role in &self.query_roles {
            let Some(rk) = self.role_keys.get(&role) else { continue };
            let Some(c) = capsules.iter().find(|c| c.role == role) else { continue };
            let aad = aad_for(stream, seg, key_epoch, role);
            match open(rk, &nonce_for(role, seg), &aad, &c.wrapped) {
                Some(dk) if dk.len() == crypto::KEY_LEN => {
                    let mut key = [0u8; crypto::KEY_LEN];
                    key.copy_from_slice(&dk);
                    segment.data_key = Some(key);
                    segment.release_role = role;
                    break;
                }
                // A capsule addressed to us that does not authenticate
                // (or holds a malformed key) is corruption.
                _ => {
                    segment.poisoned = Some(CipherViolation::AuthFailed);
                    break;
                }
            }
        }
        self.open = Some(segment);
    }

    fn on_data(&mut self, stream: u32, seg: u64, idx: u32, sealed: &[u8]) {
        if !self.stream_ok(stream) || self.open.as_ref().is_none_or(|o| o.seg != seg) {
            self.suppress(NO_TUPLE, NO_SP, CipherViolation::Malformed);
            return;
        }
        let (sp_ts, poisoned) = {
            let o = self.open.as_ref().map(|o| (o.sp_ts, o.poisoned));
            let Some((ts, p)) = o else { return };
            (ts, p)
        };
        if let Some(reason) = poisoned {
            // Condemned segment: attribute and count the frame now; the
            // journal (if any) is settled at the terminator.
            self.suppress(NO_TUPLE, sp_ts, reason);
            return;
        }
        let Some(o) = self.open.as_mut() else { return };
        if o.data_key.is_none() {
            // Authorized denial: no capsule for any held role. The
            // suppression mirrors a shield deny, citing the governing sp.
            self.denied += 1;
            self.recorder.record(NO_TUPLE, sp_ts, AuditEvent::Suppressed { sp_ts });
            return;
        }
        if idx != o.next_idx {
            // Out-of-order, repeated, or skipped index: the nonce
            // schedule is broken; nothing after this point can commit.
            self.poison(CipherViolation::NonceReused);
            self.suppress(NO_TUPLE, sp_ts, CipherViolation::NonceReused);
            return;
        }
        if sealed.len() < TAG_LEN {
            self.poison(CipherViolation::Truncated);
            self.suppress(NO_TUPLE, sp_ts, CipherViolation::Truncated);
            return;
        }
        o.next_idx += 1;
        o.digest.update(sealed);
        let key = match o.data_key.as_ref() {
            Some(k) => *k,
            None => return,
        };
        let epoch = o.epoch;
        let aad = aad_for(stream, seg, epoch, idx);
        let plain = match open(&key, &nonce_for(idx, seg), &aad, sealed) {
            Some(p) => p,
            None if self.broken_tag_check => {
                // BROKEN PATH (negative control): decrypt anyway.
                let mut p = sealed[..sealed.len() - TAG_LEN].to_vec();
                crypto::chacha::xor_stream(&key, &nonce_for(idx, seg), 1, &mut p);
                self.released_unauthenticated += 1;
                p
            }
            None => {
                self.poison(CipherViolation::AuthFailed);
                self.suppress(NO_TUPLE, sp_ts, CipherViolation::AuthFailed);
                return;
            }
        };
        let Some(o) = self.open.as_mut() else { return };
        if o.staged.len() >= self.in_flight {
            // Journal overflow: a segment the provider would never
            // produce. Abandon it rather than buffer unboundedly.
            self.poison(CipherViolation::Incomplete);
            self.suppress(NO_TUPLE, sp_ts, CipherViolation::Incomplete);
            return;
        }
        let entry = if sealed.len() <= SMALL_FRAME_MAX {
            // Tentative release: decode eagerly; journal holds plaintext.
            match decode_tuple(&mut plain.as_slice()) {
                Ok(t) => Staged::Clear(Arc::new(t)),
                Err(_) => {
                    self.poison(CipherViolation::Malformed);
                    self.suppress(NO_TUPLE, sp_ts, CipherViolation::Malformed);
                    return;
                }
            }
        } else {
            Staged::Sealed(idx, sealed.to_vec())
        };
        o.staged_bytes += entry.mem_bytes();
        o.staged.push(entry);
    }

    fn on_digest(&mut self, stream: u32, seg: u64, count: u32, sealed_digest: &[u8]) {
        if !self.stream_ok(stream) || self.open.as_ref().is_none_or(|o| o.seg != seg) {
            self.suppress(NO_TUPLE, NO_SP, CipherViolation::Malformed);
            return;
        }
        let Some(o) = self.open.as_mut() else { return };
        if o.poisoned.is_some() {
            return; // settled at the terminator
        }
        if o.digest_frame.is_some() {
            self.poison(CipherViolation::Malformed);
            return;
        }
        let Some(key) = o.data_key else {
            // Authorized denial: we cannot (and need not) verify.
            return;
        };
        let epoch = o.epoch;
        let aad = aad_for(stream, seg, epoch, count);
        match open(&key, &nonce_for(DIGEST_IDX, seg), &aad, sealed_digest) {
            Some(d) if d.len() == DIGEST_LEN => {
                let mut digest = [0u8; DIGEST_LEN];
                digest.copy_from_slice(&d);
                let Some(o) = self.open.as_mut() else { return };
                o.digest_frame = Some((count, digest));
            }
            _ => self.poison(CipherViolation::AuthFailed),
        }
    }

    fn on_terminator(&mut self, stream: u32, seg: u64, out: &mut Vec<Arc<Tuple>>) {
        if !self.stream_ok(stream) || self.open.as_ref().is_none_or(|o| o.seg != seg) {
            self.suppress(NO_TUPLE, NO_SP, CipherViolation::Malformed);
            return;
        }
        let Some(o) = self.open.as_ref() else { return };
        if o.poisoned.is_some() {
            self.rollback_open(CipherViolation::Malformed);
            return;
        }
        if o.data_key.is_none() {
            // Authorized denial: frames were suppressed on arrival;
            // nothing journaled, nothing to verify.
            self.open = None;
            return;
        }
        let verified = match o.digest_frame {
            None => {
                self.rollback_open(CipherViolation::DigestMissing);
                return;
            }
            Some((count, expected)) => count == o.next_idx && o.digest.finalize() == expected,
        };
        if !verified && !self.broken_tag_check {
            self.rollback_open(CipherViolation::DigestMismatch);
            return;
        }
        // Commit: decrypt every still-sealed frame *before* releasing
        // anything, so a late failure rolls the whole segment back.
        let Some(o) = self.open.take() else { return };
        let key = match o.data_key {
            Some(k) => k,
            None => return,
        };
        let mut releases: Vec<Arc<Tuple>> = Vec::with_capacity(o.staged.len());
        for entry in &o.staged {
            match entry {
                Staged::Clear(t) => releases.push(t.clone()),
                Staged::Sealed(idx, sealed) => {
                    let aad = aad_for(stream, seg, o.epoch, *idx);
                    let Some(plain) = open(&key, &nonce_for(*idx, seg), &aad, sealed) else {
                        self.open = Some(o);
                        self.rollback_open(CipherViolation::AuthFailed);
                        return;
                    };
                    match decode_tuple(&mut plain.as_slice()) {
                        Ok(t) => releases.push(Arc::new(t)),
                        Err(_) => {
                            self.open = Some(o);
                            self.rollback_open(CipherViolation::Malformed);
                            return;
                        }
                    }
                }
            }
        }
        for t in releases {
            self.released += 1;
            self.recorder.record(
                t.tid.raw(),
                t.ts.0,
                AuditEvent::Released { role: o.release_role, sp_ts: o.sp_ts },
            );
            out.push(t);
        }
    }

    fn on_key_epoch(&mut self, stream: u32, epoch: u64) {
        if !self.stream_ok(stream) {
            self.suppress(NO_TUPLE, NO_SP, CipherViolation::Malformed);
            return;
        }
        if epoch <= self.epoch {
            // Epochs only advance; a rollback claim is a replay.
            self.suppress(NO_TUPLE, NO_SP, CipherViolation::Replayed);
            return;
        }
        if self.open.is_some() {
            self.rollback_open(CipherViolation::Incomplete);
        }
        self.epoch = epoch;
        self.refresh_role_keys();
    }

    // -- snapshot / restore -------------------------------------------

    /// Serializes the release state machine (rollback journal included)
    /// for checkpointing, like every other operator.
    pub fn snapshot(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.epoch.to_be_bytes());
        buf.extend_from_slice(&self.released.to_be_bytes());
        buf.extend_from_slice(&self.denied.to_be_bytes());
        buf.extend_from_slice(&self.released_unauthenticated.to_be_bytes());
        for v in &self.violations {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        match (self.stream, self.seg_highwater) {
            (Some(s), _) => {
                buf.push(1);
                buf.extend_from_slice(&s.to_be_bytes());
            }
            (None, _) => buf.push(0),
        }
        match self.seg_highwater {
            Some(hw) => {
                buf.push(1);
                buf.extend_from_slice(&hw.to_be_bytes());
            }
            None => buf.push(0),
        }
        match &self.open {
            None => buf.push(0),
            Some(o) => {
                buf.push(1);
                buf.extend_from_slice(&o.seg.to_be_bytes());
                buf.extend_from_slice(&o.epoch.to_be_bytes());
                buf.extend_from_slice(&o.sp_ts.to_be_bytes());
                match &o.data_key {
                    Some(k) => {
                        buf.push(1);
                        buf.extend_from_slice(k);
                    }
                    None => buf.push(0),
                }
                buf.extend_from_slice(&o.release_role.to_be_bytes());
                buf.extend_from_slice(&o.next_idx.to_be_bytes());
                o.digest.snapshot(buf);
                buf.push(match o.poisoned {
                    None => 0xFF,
                    Some(p) => p.code(),
                });
                match &o.digest_frame {
                    Some((count, d)) => {
                        buf.push(1);
                        buf.extend_from_slice(&count.to_be_bytes());
                        buf.extend_from_slice(d);
                    }
                    None => buf.push(0),
                }
                buf.extend_from_slice(&(o.staged.len() as u32).to_be_bytes());
                for entry in &o.staged {
                    match entry {
                        Staged::Clear(t) => {
                            buf.push(0);
                            let mut tb = Vec::new();
                            encode_tuple(t, &mut tb);
                            buf.extend_from_slice(&(tb.len() as u32).to_be_bytes());
                            buf.extend_from_slice(&tb);
                        }
                        Staged::Sealed(idx, b) => {
                            buf.push(1);
                            buf.extend_from_slice(&idx.to_be_bytes());
                            buf.extend_from_slice(&(b.len() as u32).to_be_bytes());
                            buf.extend_from_slice(b);
                        }
                    }
                }
            }
        }
    }

    /// Restores a snapshot taken by [`Self::snapshot`]. Fail closed: a
    /// truncated or tampered snapshot yields `None` and the client keeps
    /// its current (safe) state.
    #[must_use]
    pub fn restore(&mut self, mut bytes: &[u8]) -> Option<()> {
        fn take<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if b.len() < n {
                return None;
            }
            let (head, rest) = b.split_at(n);
            *b = rest;
            Some(head)
        }
        fn u64_at(b: &mut &[u8]) -> Option<u64> {
            take(b, 8).map(|s| u64::from_be_bytes(s.try_into().unwrap_or([0; 8])))
        }
        fn u32_at(b: &mut &[u8]) -> Option<u32> {
            take(b, 4).map(|s| u32::from_be_bytes(s.try_into().unwrap_or([0; 4])))
        }
        let b = &mut bytes;
        let epoch = u64_at(b)?;
        let released = u64_at(b)?;
        let denied = u64_at(b)?;
        let released_unauth = u64_at(b)?;
        let mut violations = [0u64; 9];
        for v in &mut violations {
            *v = u64_at(b)?;
        }
        let stream = match take(b, 1)?[0] {
            0 => None,
            _ => Some(u32_at(b)?),
        };
        let seg_highwater = match take(b, 1)?[0] {
            0 => None,
            _ => Some(u64_at(b)?),
        };
        let open = match take(b, 1)?[0] {
            0 => None,
            _ => {
                let seg = u64_at(b)?;
                let ep = u64_at(b)?;
                let sp_ts = u64_at(b)?;
                let data_key = match take(b, 1)?[0] {
                    0 => None,
                    _ => {
                        let k = take(b, crypto::KEY_LEN)?;
                        let mut key = [0u8; crypto::KEY_LEN];
                        key.copy_from_slice(k);
                        Some(key)
                    }
                };
                let release_role = u32_at(b)?;
                let next_idx = u32_at(b)?;
                let digest = Sha256::restore(b)?;
                let poisoned = match take(b, 1)?[0] {
                    0xFF => None,
                    0 => Some(CipherViolation::AuthFailed),
                    1 => Some(CipherViolation::Truncated),
                    2 => Some(CipherViolation::Replayed),
                    3 => Some(CipherViolation::NonceReused),
                    4 => Some(CipherViolation::StaleKeyEpoch),
                    5 => Some(CipherViolation::DigestMismatch),
                    6 => Some(CipherViolation::DigestMissing),
                    7 => Some(CipherViolation::Incomplete),
                    8 => Some(CipherViolation::Malformed),
                    _ => return None,
                };
                let digest_frame = match take(b, 1)?[0] {
                    0 => None,
                    _ => {
                        let count = u32_at(b)?;
                        let d = take(b, DIGEST_LEN)?;
                        let mut digest = [0u8; DIGEST_LEN];
                        digest.copy_from_slice(d);
                        Some((count, digest))
                    }
                };
                // A staged entry is at least its tag and a length.
                let n = sp_engine::checkpoint::get_count(b, 1 + 4, "staged frames").ok()?;
                if n > self.in_flight {
                    return None;
                }
                let mut staged = Vec::new();
                let mut staged_bytes = 0;
                for _ in 0..n {
                    let entry = match take(b, 1)?[0] {
                        0 => {
                            let len = u32_at(b)? as usize;
                            let tb = take(b, len)?;
                            let t = decode_tuple(&mut &tb[..]).ok()?;
                            Staged::Clear(Arc::new(t))
                        }
                        1 => {
                            let idx = u32_at(b)?;
                            let len = u32_at(b)? as usize;
                            Staged::Sealed(idx, take(b, len)?.to_vec())
                        }
                        _ => return None,
                    };
                    staged_bytes += entry.mem_bytes();
                    staged.push(entry);
                }
                Some(ClientSegment {
                    seg,
                    epoch: ep,
                    sp_ts,
                    data_key,
                    release_role,
                    next_idx,
                    digest,
                    staged,
                    staged_bytes,
                    digest_frame,
                    poisoned,
                })
            }
        };
        if !b.is_empty() {
            return None;
        }
        self.epoch = epoch;
        self.released = released;
        self.denied = denied;
        self.released_unauthenticated = released_unauth;
        self.violations = violations;
        self.stream = stream;
        self.seg_highwater = seg_highwater;
        self.open = open;
        // Audit state is observability, not operator state: cleared on
        // restore like every recorder in the engine.
        self.recorder.clear();
        self.refresh_role_keys();
        Some(())
    }
}

// ---------------------------------------------------------------------------
// The mechanism wrapper
// ---------------------------------------------------------------------------

/// Fixed master key of the self-contained mechanism instance: the
/// comparison harness measures enforcement architecture, not key
/// distribution, so provider and client share an in-process authority.
const MECH_MASTER: Key = [0x5Bu8; crypto::KEY_LEN];

/// The fourth [`EnforcementMechanism`]: provider → honest relay →
/// client, all in-process, releasing exactly what the plaintext
/// mechanisms release on a clean stream (the equivalence tests and the
/// bench release lint enforce this).
pub struct CryptoEnforced {
    provider: CryptoProvider,
    relay: UntrustedRelay,
    client: CryptoClient,
    frames: Vec<Vec<u8>>,
    stats: MechStats,
}

impl CryptoEnforced {
    /// A mechanism instance enforcing for a query with `query_roles`,
    /// journaling up to `in_flight` frames per segment.
    #[must_use]
    pub fn new(
        catalog: Arc<RoleCatalog>,
        schema: Arc<Schema>,
        query_roles: RoleSet,
        in_flight: usize,
    ) -> Self {
        let authority = Arc::new(KeyAuthority::new(MECH_MASTER));
        Self {
            provider: CryptoProvider::new(catalog, schema, authority.clone()),
            relay: UntrustedRelay::default(),
            client: CryptoClient::new(authority, &query_roles, in_flight),
            frames: Vec::new(),
            stats: MechStats::default(),
        }
    }

    /// The client side (counters, audit trail, snapshot/restore).
    #[must_use]
    pub fn client(&self) -> &CryptoClient {
        &self.client
    }

    /// The relay's forwarded-traffic counters.
    #[must_use]
    pub fn relay(&self) -> &UntrustedRelay {
        &self.relay
    }
}

impl EnforcementMechanism for CryptoEnforced {
    fn name(&self) -> &'static str {
        "crypto-enforced"
    }

    fn process(&mut self, elem: StreamElement, out: &mut Vec<Arc<Tuple>>) {
        let start = Instant::now();
        self.frames.clear();
        let mut frames = std::mem::take(&mut self.frames);
        self.provider.push(elem, &mut frames);
        for f in frames.drain(..) {
            let delivered = self.relay.forward(f);
            self.client.feed(&delivered, out);
        }
        self.frames = frames;
        self.stats.elapsed += start.elapsed();
    }

    fn finish(&mut self, out: &mut Vec<Arc<Tuple>>) {
        let start = Instant::now();
        self.frames.clear();
        let mut frames = std::mem::take(&mut self.frames);
        self.provider.finish(&mut frames);
        for f in frames.drain(..) {
            let delivered = self.relay.forward(f);
            self.client.feed(&delivered, out);
        }
        self.frames = frames;
        self.stats.elapsed += start.elapsed();
    }

    fn policy_mem_bytes(&self) -> usize {
        self.policy_state().total()
    }

    fn policy_state(&self) -> PolicyState {
        PolicyState {
            policy_bytes: self.provider.policy_table_bytes(),
            key_table_bytes: self.client.key_table_bytes() + self.provider.authority.mem_bytes(),
            cipher_buffer_bytes: self.client.cipher_buffer_bytes(),
        }
    }

    fn elapsed(&self) -> Duration {
        self.stats.elapsed
    }

    fn released(&self) -> u64 {
        self.client.released()
    }

    fn denied(&self) -> u64 {
        self.client.denied()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{
        DataDescription, SecurityPunctuation, StreamId, Timestamp, TupleId, Value, ValueType,
    };

    fn parts(roles: &[u32], in_flight: usize) -> (CryptoProvider, CryptoClient, Arc<KeyAuthority>) {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(16);
        let authority = Arc::new(KeyAuthority::new([9u8; 32]));
        let provider = CryptoProvider::new(
            Arc::new(c),
            Schema::of("loc", &[("id", ValueType::Int)]),
            authority.clone(),
        );
        let client = CryptoClient::new(
            authority.clone(),
            &roles.iter().map(|&r| RoleId(r)).collect(),
            in_flight,
        );
        (provider, client, authority)
    }

    fn mech(roles: &[u32]) -> CryptoEnforced {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(16);
        CryptoEnforced::new(
            Arc::new(c),
            Schema::of("loc", &[("id", ValueType::Int)]),
            roles.iter().map(|&r| RoleId(r)).collect(),
            10_000,
        )
    }

    fn tup(tid: u64, ts: u64) -> StreamElement {
        StreamElement::tuple(Tuple::new(
            StreamId(0),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64)],
        ))
    }

    fn wide_tup(tid: u64, ts: u64) -> StreamElement {
        StreamElement::tuple(Tuple::new(
            StreamId(0),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::text("x".repeat(200))],
        ))
    }

    fn sp(roles: &[u32], ts: u64) -> StreamElement {
        StreamElement::punctuation(SecurityPunctuation::grant_all(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        ))
    }

    fn neg_sp(roles: &[u32], ts: u64) -> StreamElement {
        let mut p = SecurityPunctuation::grant_all(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        );
        p.sign = Sign::Negative;
        p.ddp = DataDescription::everything();
        StreamElement::punctuation(p)
    }

    fn run(
        provider: &mut CryptoProvider,
        client: &mut CryptoClient,
        input: Vec<StreamElement>,
    ) -> Vec<Arc<Tuple>> {
        let mut out = Vec::new();
        let mut frames = Vec::new();
        for e in input {
            provider.push(e, &mut frames);
        }
        provider.finish(&mut frames);
        for f in &frames {
            client.feed(f, &mut out);
        }
        out
    }

    #[test]
    fn releases_like_the_shield() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let out =
            run(&mut p, &mut c, vec![sp(&[1], 0), tup(1, 1), sp(&[2], 2), tup(2, 3), tup(3, 4)]);
        let ids: Vec<u64> = out.iter().map(|t| t.tid.raw()).collect();
        assert_eq!(ids, vec![1]);
        assert_eq!(c.released(), 1);
        assert_eq!(c.denied(), 2);
        assert_eq!(c.released_unauthenticated(), 0);
    }

    #[test]
    fn mechanism_wrapper_matches_and_counts() {
        let mut m = mech(&[1]);
        let mut out = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), tup(2, 2), sp(&[2], 3), tup(3, 4)] {
            m.process(e, &mut out);
        }
        m.finish(&mut out);
        assert_eq!(out.iter().map(|t| t.tid.raw()).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(m.released(), 2);
        assert_eq!(m.denied(), 1);
        assert_eq!(m.name(), "crypto-enforced");
        assert!(m.relay().forwarded > 0, "everything crossed the relay");
        let state = m.policy_state();
        assert!(state.key_table_bytes > 0, "key table accounted");
        assert_eq!(state.cipher_buffer_bytes, 0, "journal drained at finish");
        assert!(m.elapsed() > Duration::ZERO);
    }

    #[test]
    fn large_frames_buffer_until_digest() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let out = run(&mut p, &mut c, vec![sp(&[1], 0), wide_tup(1, 1), wide_tup(2, 2)]);
        assert_eq!(out.len(), 2, "large frames commit at terminator");
        assert_eq!(c.cipher_buffer_bytes(), 0, "journal drained");
    }

    #[test]
    fn journal_drains_to_zero_at_every_terminator() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), tup(2, 2), wide_tup(3, 3)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        let mut out = Vec::new();
        let mut saw_data_with_journal = false;
        for f in &frames {
            c.feed(f, &mut out);
            if c.cipher_buffer_bytes() > 0 {
                saw_data_with_journal = true;
            }
            if matches!(CipherFrame::decode_frame(f), Ok(Frame::Terminator { .. })) {
                assert_eq!(c.cipher_buffer_bytes(), 0, "terminator must drain the journal");
            }
        }
        assert!(saw_data_with_journal, "journal held tentative state mid-segment");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn no_capsule_means_authorized_denial() {
        let (mut p, mut c, _) = parts(&[3], 64);
        let out = run(&mut p, &mut c, vec![sp(&[1, 2], 0), tup(1, 1), tup(2, 2)]);
        assert!(out.is_empty());
        assert_eq!(c.denied(), 2);
        assert_eq!(c.violations_total(), 0, "denial is not a violation");
    }

    #[test]
    fn default_deny_without_policy() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let out = run(&mut p, &mut c, vec![tup(1, 1), tup(2, 2)]);
        assert!(out.is_empty());
        assert_eq!(c.released(), 0);
    }

    #[test]
    fn flipped_ciphertext_rolls_back_the_segment() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), tup(2, 2)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        // Flip one ciphertext byte in the *second* DATA frame (the first
        // is already tentatively released by then), re-encoding with a
        // fresh CRC like a malicious server would.
        let mut out = Vec::new();
        for f in &frames {
            let delivered = match CipherFrame::decode_frame(f) {
                Ok(Frame::Data { stream, seg, idx: 1, mut sealed }) => {
                    sealed[0] ^= 1;
                    Frame::Data { stream, seg, idx: 1, sealed }.encode_to_vec()
                }
                _ => f.clone(),
            };
            c.feed(&delivered, &mut out);
        }
        assert!(out.is_empty(), "corrupted segment must not release anything");
        assert!(c.violation_count(CipherViolation::AuthFailed) > 0);
        assert_eq!(c.released_unauthenticated(), 0);
        // The rollback is audited.
        let rolled = c
            .recorder()
            .records()
            .filter(|r| matches!(r.event, AuditEvent::TentativeRolledBack { .. }))
            .count();
        assert!(rolled > 0, "tentative releases audited on rollback");
    }

    #[test]
    fn replayed_segment_is_refused() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        let mut out = Vec::new();
        for f in &frames {
            c.feed(f, &mut out);
        }
        assert_eq!(out.len(), 1);
        // Replay the whole segment.
        for f in &frames {
            c.feed(f, &mut out);
        }
        assert_eq!(out.len(), 1, "replay must not re-release");
        assert!(c.violation_count(CipherViolation::Replayed) > 0);
    }

    // Behaviour changed: a negative sp no longer strikes its roles from
    // the authority for good (which ignored the sp's DDP and outlived the
    // batch). It rotates the key epoch; who opens the segments that
    // follow is what the governing sp-batch grants, so a later grant
    // re-admits the role — as in every other mechanism.
    #[test]
    fn revocation_rides_the_sp_channel() {
        let (mut p, mut c, authority) = parts(&[1], 64);
        let out = run(
            &mut p,
            &mut c,
            vec![
                sp(&[1], 0),
                tup(1, 1),
                neg_sp(&[1], 10),
                sp(&[2], 20),
                tup(2, 21),
                sp(&[1], 30),
                tup(3, 31),
            ],
        );
        // Tuple 1 released under the pre-revocation policy; the batch at
        // ts 20 grants role 2 only, so tuple 2 ships without a capsule
        // role 1 could open; the batch at ts 30 grants role 1 again.
        assert_eq!(out.iter().map(|t| t.tid.raw()).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(authority.epoch(), 1);
        assert!(authority.role_key(0, 1, 0).is_some(), "pre-revocation keys stand");
        assert!(authority.role_key(0, 2, 2).is_none(), "future epoch gets no key");
    }

    #[test]
    fn stale_epoch_header_is_suppressed() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), neg_sp(&[9], 5), sp(&[1], 10), tup(2, 11)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        // Tamper: claim epoch 0 on the post-revocation header.
        let mut out = Vec::new();
        for f in &frames {
            let delivered = match CipherFrame::decode_frame(f) {
                Ok(Frame::Header { stream, seg, key_epoch: 1, sp_ts, capsules }) => {
                    Frame::Header { stream, seg, key_epoch: 0, sp_ts, capsules }.encode_to_vec()
                }
                _ => f.clone(),
            };
            c.feed(&delivered, &mut out);
        }
        assert_eq!(out.iter().map(|t| t.tid.raw()).collect::<Vec<_>>(), vec![1]);
        assert!(c.violation_count(CipherViolation::StaleKeyEpoch) > 0);
    }

    #[test]
    fn nonce_swap_is_refused() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), tup(2, 2)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        // Swap the idx fields of the two DATA frames.
        let mut delivered: Vec<Vec<u8>> = frames.clone();
        let data_pos: Vec<usize> = delivered
            .iter()
            .enumerate()
            .filter(|(_, f)| matches!(CipherFrame::decode_frame(f), Ok(Frame::Data { .. })))
            .map(|(i, _)| i)
            .collect();
        let (a, b) = (data_pos[0], data_pos[1]);
        if let (
            Ok(Frame::Data { stream, seg, idx: i1, sealed: s1 }),
            Ok(Frame::Data { idx: i2, sealed: s2, .. }),
        ) = (CipherFrame::decode_frame(&delivered[a]), CipherFrame::decode_frame(&delivered[b]))
        {
            delivered[a] = Frame::Data { stream, seg, idx: i2, sealed: s1 }.encode_to_vec();
            delivered[b] = Frame::Data { stream, seg, idx: i1, sealed: s2 }.encode_to_vec();
        }
        let mut out = Vec::new();
        for f in &delivered {
            c.feed(f, &mut out);
        }
        assert!(out.is_empty());
        assert!(c.violation_count(CipherViolation::NonceReused) > 0);
    }

    #[test]
    fn dropped_digest_rolls_back() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), tup(2, 2)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        let mut out = Vec::new();
        for f in &frames {
            if matches!(CipherFrame::decode_frame(f), Ok(Frame::Digest { .. })) {
                continue;
            }
            c.feed(f, &mut out);
        }
        assert!(out.is_empty());
        assert!(c.violation_count(CipherViolation::DigestMissing) > 0);
    }

    #[test]
    fn truncated_data_frame_fails_closed() {
        let (mut p, mut c, _) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        let mut out = Vec::new();
        for f in &frames {
            let delivered = match CipherFrame::decode_frame(f) {
                Ok(Frame::Data { stream, seg, idx, sealed }) => {
                    Frame::Data { stream, seg, idx, sealed: sealed[..TAG_LEN - 2].to_vec() }
                        .encode_to_vec()
                }
                _ => f.clone(),
            };
            c.feed(&delivered, &mut out);
        }
        assert!(out.is_empty());
        assert!(c.violation_count(CipherViolation::Truncated) > 0);
    }

    #[test]
    fn broken_client_releases_unauthenticated_frames() {
        let (mut p, c, _) = parts(&[1], 64);
        let mut c = c.with_broken_tag_check();
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), tup(2, 2)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        let mut out = Vec::new();
        for f in &frames {
            let delivered = match CipherFrame::decode_frame(f) {
                Ok(Frame::Data { stream, seg, idx: 0, mut sealed }) => {
                    sealed[4] ^= 0x20;
                    Frame::Data { stream, seg, idx: 0, sealed }.encode_to_vec()
                }
                _ => f.clone(),
            };
            c.feed(&delivered, &mut out);
        }
        assert!(c.released_unauthenticated() > 0, "the control must actually misbehave");
        assert!(!out.is_empty(), "the broken client releases garbled tuples");
    }

    #[test]
    fn snapshot_restore_round_trips_mid_segment() {
        let (mut p, mut c, authority) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), tup(2, 2), wide_tup(3, 3)] {
            p.push(e, &mut frames);
        }
        p.finish(&mut frames);
        // Feed up to mid-segment (stop before the digest), snapshot,
        // then finish on a restored twin: releases must match a
        // straight-through run.
        let cut = frames
            .iter()
            .position(|f| matches!(CipherFrame::decode_frame(f), Ok(Frame::Digest { .. })))
            .unwrap();
        let mut out = Vec::new();
        for f in &frames[..cut] {
            c.feed(f, &mut out);
        }
        assert!(c.cipher_buffer_bytes() > 0, "snapshot taken mid-journal");
        let mut snap = Vec::new();
        c.snapshot(&mut snap);
        let mut twin = CryptoClient::new(authority, &RoleSet::single(RoleId(1)), 64);
        twin.restore(&snap).expect("restore");
        for f in &frames[cut..] {
            twin.feed(f, &mut out);
        }
        assert_eq!(out.iter().map(|t| t.tid.raw()).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(twin.cipher_buffer_bytes(), 0);
    }

    #[test]
    fn truncated_snapshot_is_refused() {
        let (mut p, mut c, authority) = parts(&[1], 64);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1)] {
            p.push(e, &mut frames);
        }
        for f in &frames {
            c.feed(f, &mut Vec::new());
        }
        let mut snap = Vec::new();
        c.snapshot(&mut snap);
        let mut twin = CryptoClient::new(authority, &RoleSet::single(RoleId(1)), 64);
        for cut in 0..snap.len() {
            assert!(twin.restore(&snap[..cut]).is_none(), "cut {cut} must be refused");
        }
        assert!(twin.restore(&snap).is_some());
    }

    #[test]
    fn oversized_counts_are_refused_not_allocated() {
        // No in-flight cap to hide behind: only the bytes left bound the
        // staged-frame count, so patching any four bytes of a mid-journal
        // snapshot to u32::MAX must fail closed instead of aborting.
        let (mut p, mut c, authority) = parts(&[1], usize::MAX);
        let mut frames = Vec::new();
        for e in [sp(&[1], 0), tup(1, 1), tup(2, 2)] {
            p.push(e, &mut frames);
        }
        for f in &frames[..frames.len() - 1] {
            c.feed(f, &mut Vec::new());
        }
        assert!(c.cipher_buffer_bytes() > 0, "snapshot taken mid-journal");
        let mut snap = Vec::new();
        c.snapshot(&mut snap);
        let roles = RoleSet::single(RoleId(1));
        for at in 0..snap.len() - 3 {
            let mut bytes = snap.clone();
            bytes[at..at + 4].fill(0xFF);
            let _ = CryptoClient::new(authority.clone(), &roles, usize::MAX).restore(&bytes);
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        let (_, mut c, _) = parts(&[1], 8);
        let mut out = Vec::new();
        let mut rngish = 0x12345u64;
        for len in 0..200usize {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    rngish = rngish.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (rngish >> 33) as u8
                })
                .collect();
            c.feed(&bytes, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(c.released_unauthenticated(), 0);
    }
}
