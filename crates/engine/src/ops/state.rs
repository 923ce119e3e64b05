//! Window state of the stateful operators (δ, G, SAJoin, Θ) — Table I's
//! "keep each tuple's policy in the window, emit each result under a
//! policy derived from its inputs" — decided in one place:
//!
//! * [`Governing`]: which segment governs an input (the §V-A override,
//!   denial by default before any);
//! * [`Window`] / [`expired`]: when a `(tuple, policy)` entry expires
//!   (`ts > t.ts + window`); evicted entries go back to the operator;
//! * [`Announcer`]: when an output policy is announced (only when its
//!   authorizations change).
//!
//! Each writes its own snapshot section, so equal state is equal bytes.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::BufMut;
use sp_core::{wire, Policy, SharedPolicy, Timestamp, Tuple, TupleId};

use crate::checkpoint::{self as ckpt, CodecError};
use crate::element::{Element, SegmentPolicy};
use crate::operator::Emitter;
use crate::stats::OperatorStats;

/// `(tuple, the policy that governed it on arrival)`, oldest first.
pub(crate) type Entries = VecDeque<(Arc<Tuple>, SharedPolicy)>;

/// `[u32 n][(tuple, policy)…]`.
pub(crate) fn encode_entries(entries: &Entries, buf: &mut Vec<u8>) {
    buf.put_u32(entries.len() as u32);
    for (t, p) in entries {
        wire::encode_tuple(t, buf);
        p.encode(buf);
    }
}

pub(crate) fn decode_entries(buf: &mut &[u8], what: &str) -> Result<Entries, CodecError> {
    let n = ckpt::get_count(buf, ckpt::TUPLE_POLICY_MIN_LEN, what)?;
    (0..n)
        .map(|_| {
            let t = wire::decode_tuple(buf).map_err(|e| e.to_string())?;
            Ok((Arc::new(t), Arc::new(Policy::decode(buf)?)))
        })
        .collect()
}

/// Whether an entry holding `t` has expired once the stream reaches `now`.
pub(crate) fn expired(t: &Tuple, now: Timestamp, window_ms: u64) -> bool {
    t.ts <= now.minus(window_ms)
}

/// The buffered segment policy of one input.
#[derive(Debug, Default)]
pub(crate) struct Governing(Option<Arc<SegmentPolicy>>);

impl Governing {
    /// Counts an arriving segment policy and buffers it if it overrides
    /// the current one; true when it did.
    pub(crate) fn observe(&mut self, seg: Arc<SegmentPolicy>, stats: &mut OperatorStats) -> bool {
        stats.sps_in += 1;
        let replaces = seg.replaces(self.0.as_ref());
        if replaces {
            self.0 = Some(seg);
        }
        replaces
    }

    pub(crate) fn current(&self) -> Option<&Arc<SegmentPolicy>> {
        self.0.as_ref()
    }

    pub(crate) fn policy_for(&self, tid: TupleId) -> SharedPolicy {
        SegmentPolicy::governing(self.0.as_ref(), tid)
    }

    pub(crate) fn mem_bytes(&self) -> usize {
        self.0.as_ref().map_or(0, |seg| seg.mem_bytes())
    }

    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        ckpt::encode_opt_segment(self.0.as_ref(), buf);
    }

    pub(crate) fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        ckpt::decode_opt_segment(buf).map(Self)
    }
}

/// A time-based sliding window of entries.
#[derive(Debug)]
pub(crate) struct Window {
    ms: u64,
    entries: Entries,
}

impl Window {
    pub(crate) fn new(ms: u64) -> Self {
        Self { ms, entries: VecDeque::new() }
    }

    pub(crate) fn push(&mut self, tuple: Arc<Tuple>, policy: SharedPolicy) {
        self.entries.push_back((tuple, policy));
    }

    /// Removes and returns the oldest entry if it has expired by `now`.
    pub(crate) fn pop_expired(&mut self, now: Timestamp) -> Option<(Arc<Tuple>, SharedPolicy)> {
        if expired(&self.entries.front()?.0, now, self.ms) {
            self.entries.pop_front()
        } else {
            None
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &(Arc<Tuple>, SharedPolicy)> {
        self.entries.iter()
    }

    pub(crate) fn mem_bytes(&self) -> usize {
        self.entries.iter().map(|(t, _)| t.mem_bytes() + std::mem::size_of::<SharedPolicy>()).sum()
    }

    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        encode_entries(&self.entries, buf);
    }

    pub(crate) fn decode(&mut self, buf: &mut &[u8], what: &str) -> Result<(), CodecError> {
        self.entries = decode_entries(buf, what)?;
        Ok(())
    }
}

/// The last announced output policy.
#[derive(Debug, Default)]
pub(crate) struct Announcer(Option<Policy>);

impl Announcer {
    /// Emits `tuple` under `policy` (stamped with the result's timestamp,
    /// so output sps stay ordered), preceded by the policy unless the last
    /// announced one grants the same.
    pub(crate) fn emit(
        &mut self,
        policy: Policy,
        tuple: Arc<Tuple>,
        stats: &mut OperatorStats,
        out: &mut Emitter,
    ) {
        if !self.0.as_ref().is_some_and(|prev| prev.same_authorizations(&policy)) {
            stats.sps_out += 1;
            out.push(Element::policy(SegmentPolicy::uniform(policy.clone())));
        }
        self.0 = Some(policy);
        stats.tuples_out += 1;
        out.push(Element::Tuple(tuple));
    }

    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        ckpt::encode_opt_policy(self.0.as_ref(), buf);
    }

    pub(crate) fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        ckpt::decode_opt_policy(buf).map(Self)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{RoleSet, StreamId, Value};

    fn tup(ts: u64) -> Arc<Tuple> {
        Arc::new(Tuple::new(StreamId(0), TupleId(ts), Timestamp(ts), vec![Value::Int(1)]))
    }

    fn policy(roles: &[u32], ts: u64) -> Policy {
        Policy::tuple_level(roles.iter().copied().map(sp_core::RoleId).collect(), Timestamp(ts))
    }

    #[test]
    fn window_expires_strictly_older_than_the_horizon() {
        let mut w = Window::new(10);
        let p: SharedPolicy = Arc::new(policy(&[1], 0));
        for ts in [1, 5, 11] {
            w.push(tup(ts), p.clone());
        }
        assert!(w.pop_expired(Timestamp(10)).is_none(), "10 - 10 = 0: nothing expired");
        assert_eq!(w.pop_expired(Timestamp(11)).unwrap().0.ts, Timestamp(1));
        while w.pop_expired(Timestamp(20)).is_some() {}
        assert_eq!(w.iter().map(|(t, _)| t.ts.0).collect::<Vec<_>>(), vec![11]);

        let mut buf = Vec::new();
        w.encode(&mut buf);
        let mut back = Window::new(10);
        let mut slice = buf.as_slice();
        back.decode(&mut slice, "window").unwrap();
        assert!(slice.is_empty());
        assert_eq!(back.mem_bytes(), w.mem_bytes());
    }

    #[test]
    fn governing_follows_the_override_rule() {
        let mut g = Governing::default();
        let mut stats = OperatorStats::new();
        assert!(g.policy_for(TupleId(1)).tuple_roles().is_empty(), "denial by default");
        let seg = |ts| Arc::new(SegmentPolicy::uniform(policy(&[2], ts)));
        assert!(g.observe(seg(5), &mut stats));
        assert!(!g.observe(seg(4), &mut stats), "an older batch does not override");
        assert!(g.observe(seg(5), &mut stats));
        assert_eq!(stats.sps_in, 3);
        assert_eq!(g.policy_for(TupleId(1)).tuple_roles(), &RoleSet::from([2]));
        assert_eq!(g.current().unwrap().ts, Timestamp(5));
    }

    #[test]
    fn announcer_repeats_only_on_changed_authorizations() {
        let mut a = Announcer::default();
        let mut stats = OperatorStats::new();
        let mut out = Emitter::new();
        a.emit(policy(&[1], 1), tup(1), &mut stats, &mut out);
        a.emit(policy(&[1], 2), tup(2), &mut stats, &mut out);
        a.emit(policy(&[2], 3), tup(3), &mut stats, &mut out);
        let kinds: Vec<bool> = out.take().iter().map(|e| e.as_policy().is_some()).collect();
        assert_eq!(kinds, vec![true, false, false, true, false]);
        assert_eq!((stats.sps_out, stats.tuples_out), (2, 3));
    }
}
