//! Out-of-order arrival handling.
//!
//! The paper assumes timestamp-ordered streams and notes that "the
//! out-of-order sp arrival can be handled similarly to prior works"
//! (§II-B, citing the slack-based techniques of Li et al. and Babcock et
//! al.). This module supplies that substrate: a **K-slack reorder buffer**
//! placed in front of a stream's SP Analyzer. Elements are buffered and
//! released in timestamp order once the watermark — the maximum timestamp
//! seen minus the slack — passes them; elements arriving later than the
//! slack allows are reported as dropped (the usual K-slack contract).
//!
//! Ordering is total: ties on timestamp release punctuations before data
//! tuples, so an sp carrying the same timestamp as its first tuple still
//! precedes it, preserving the "sps precede the tuples they govern"
//! invariant (§III-A).
//!
//! The staleness arithmetic is the shared [`Slack`] type — the overload
//! shedder's oldest-first policy consults the *same* definition, so the
//! two mechanisms cannot drift. Note the placement contract documented on
//! [`crate::slack`]: a shedder sits downstream of this buffer, so a shed
//! tuple never counts toward K-slack eviction — the watermark here
//! advances on arrival, before any shedding decision exists.

use std::collections::BTreeMap;

use sp_core::{StreamElement, Timestamp};

use crate::slack::Slack;

/// A slack-based reorder buffer for one input stream.
#[derive(Debug)]
pub struct ReorderBuffer {
    /// Maximum tolerated disorder.
    slack: Slack,
    /// Buffered elements keyed by (timestamp, punctuation-first, arrival).
    pending: BTreeMap<(Timestamp, u8, u64), StreamElement>,
    arrivals: u64,
    max_seen: Timestamp,
    /// Everything at or below this timestamp has been released.
    released_to: Option<Timestamp>,
    /// Elements dropped for arriving beyond the slack.
    pub dropped: u64,
}

impl ReorderBuffer {
    /// A buffer tolerating up to `slack` timestamp units of disorder.
    #[must_use]
    pub fn new(slack: u64) -> Self {
        Self::with_slack(Slack::new(slack))
    }

    /// A buffer using a shared [`Slack`] tolerance (the same value a
    /// downstream shedder's oldest-first policy consults).
    #[must_use]
    pub fn with_slack(slack: Slack) -> Self {
        Self {
            slack,
            pending: BTreeMap::new(),
            arrivals: 0,
            max_seen: Timestamp::ZERO,
            released_to: None,
            dropped: 0,
        }
    }

    /// The configured disorder tolerance.
    #[must_use]
    pub fn slack(&self) -> Slack {
        self.slack
    }

    /// Number of buffered elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Accepts one element, appending any elements that become releasable
    /// (watermark = max timestamp seen − slack) to `out` in timestamp
    /// order. A too-late element (strictly below the already-released
    /// watermark) is counted in [`ReorderBuffer::dropped`] and discarded —
    /// releasing it would violate the order downstream operators rely on.
    /// Elements *equal* to the released watermark are still admitted: the
    /// output stays non-decreasing.
    pub fn push(&mut self, elem: StreamElement, out: &mut Vec<StreamElement>) {
        let ts = elem.ts();
        if self.released_to.is_some_and(|r| ts < r) {
            self.dropped += 1;
            return;
        }
        self.arrivals += 1;
        let kind = u8::from(elem.is_tuple());
        self.pending.insert((ts, kind, self.arrivals), elem);
        if ts > self.max_seen {
            self.max_seen = ts;
        }
        let watermark = self.slack.watermark(self.max_seen);
        self.release_up_to(watermark, out);
    }

    /// Releases everything still buffered (end of stream).
    pub fn flush(&mut self, out: &mut Vec<StreamElement>) {
        let keys: Vec<_> = self.pending.keys().copied().collect();
        for key in keys {
            if let Some(elem) = self.pending.remove(&key) {
                out.push(elem);
            }
        }
        if self.max_seen > Timestamp::ZERO {
            self.released_to = Some(self.max_seen);
        }
    }

    /// Serializes the buffer's dynamic state (pending elements with their
    /// ordering keys, arrival counter, watermark bookkeeping, drop
    /// counter). The slack is configuration and is not serialized.
    pub fn snapshot(&self, buf: &mut Vec<u8>) {
        use bytes::BufMut;
        buf.put_u32(self.pending.len() as u32);
        for ((ts, kind, arrival), elem) in &self.pending {
            buf.put_u64(ts.0);
            buf.put_u8(*kind);
            buf.put_u64(*arrival);
            crate::checkpoint::encode_stream_element(elem, buf);
        }
        buf.put_u64(self.arrivals);
        buf.put_u64(self.max_seen.0);
        match self.released_to {
            Some(ts) => {
                buf.put_u8(1);
                buf.put_u64(ts.0);
            }
            None => buf.put_u8(0),
        }
        buf.put_u64(self.dropped);
    }

    /// Restores state serialized by [`ReorderBuffer::snapshot`] into a
    /// buffer built with the same slack.
    ///
    /// # Errors
    ///
    /// Fails closed ([`crate::EngineError::CheckpointCorrupt`]) on any
    /// truncation, trailing bytes, or malformed field.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), crate::EngineError> {
        use crate::checkpoint as ckpt;
        use bytes::Buf;
        ckpt::restore("reorder", bytes, |buf| {
            // A pending entry is its key, a tag and an sp or a tuple.
            let min = 8 + 1 + 8 + 1 + ckpt::SP_MIN_LEN.min(ckpt::TUPLE_MIN_LEN);
            let n = ckpt::get_count(buf, min, "reorder pending length")?;
            let mut pending = BTreeMap::new();
            for _ in 0..n {
                ckpt::need(buf, 8 + 1 + 8, "reorder pending key")?;
                let key = (Timestamp(buf.get_u64()), buf.get_u8(), buf.get_u64());
                let elem = ckpt::decode_stream_element(buf)?;
                if pending.insert(key, elem).is_some() {
                    return Err("duplicate reorder pending key".into());
                }
            }
            self.pending = pending;
            ckpt::need(buf, 8 + 8 + 1, "reorder watermark state")?;
            self.arrivals = buf.get_u64();
            self.max_seen = Timestamp(buf.get_u64());
            self.released_to = match buf.get_u8() {
                0 => None,
                1 => {
                    ckpt::need(buf, 8, "reorder released-to ts")?;
                    Some(Timestamp(buf.get_u64()))
                }
                b => return Err(format!("bad released-to flag {b}")),
            };
            ckpt::need(buf, 8, "reorder dropped counter")?;
            self.dropped = buf.get_u64();
            Ok(())
        })
    }

    fn release_up_to(&mut self, watermark: Timestamp, out: &mut Vec<StreamElement>) {
        while self.pending.first_key_value().is_some_and(|(key, _)| key.0 <= watermark) {
            let Some((key, elem)) = self.pending.pop_first() else { break };
            out.push(elem);
            self.released_to = Some(key.0.max(self.released_to.unwrap_or(Timestamp::ZERO)));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{RoleSet, SecurityPunctuation, StreamId, Tuple, TupleId, Value};

    fn tup(ts: u64) -> StreamElement {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(ts),
            Timestamp(ts),
            vec![Value::Int(ts as i64)],
        ))
    }

    fn sp(ts: u64) -> StreamElement {
        StreamElement::punctuation(SecurityPunctuation::grant_all(
            RoleSet::from([1]),
            Timestamp(ts),
        ))
    }

    fn drain(buffer: &mut ReorderBuffer, input: Vec<StreamElement>) -> Vec<u64> {
        let mut out = Vec::new();
        for e in input {
            buffer.push(e, &mut out);
        }
        buffer.flush(&mut out);
        out.iter().map(|e| e.ts().millis()).collect()
    }

    #[test]
    fn reorders_within_slack() {
        let mut buf = ReorderBuffer::new(5);
        let ts = drain(&mut buf, vec![tup(3), tup(1), tup(2), tup(9), tup(7), tup(11)]);
        assert_eq!(ts, vec![1, 2, 3, 7, 9, 11]);
        assert_eq!(buf.dropped, 0);
    }

    #[test]
    fn drops_beyond_slack() {
        let mut buf = ReorderBuffer::new(2);
        let mut out = Vec::new();
        buf.push(tup(10), &mut out); // watermark 8
        buf.push(tup(20), &mut out); // watermark 18: releases 10
        assert_eq!(out.len(), 1);
        buf.push(tup(5), &mut out); // at/below released watermark → dropped
        assert_eq!(buf.dropped, 1);
        buf.flush(&mut out);
        assert_eq!(out.iter().map(|e| e.ts().millis()).collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn punctuation_precedes_equal_timestamp_tuple() {
        let mut buf = ReorderBuffer::new(10);
        let mut out = Vec::new();
        // Tuple arrives BEFORE its governing sp, same timestamp.
        buf.push(tup(5), &mut out);
        buf.push(sp(5), &mut out);
        buf.flush(&mut out);
        assert!(out[0].is_punctuation(), "sp released before its tuple");
        assert!(out[1].is_tuple());
    }

    #[test]
    fn shared_slack_type_round_trips() {
        let buf = ReorderBuffer::with_slack(Slack::new(5));
        assert_eq!(buf.slack(), Slack::new(5));
        assert_eq!(ReorderBuffer::new(5).slack(), buf.slack());
        // The buffer's drop rule and Slack::is_late agree: an element is
        // dropped exactly when it is late relative to released state.
        let mut b = ReorderBuffer::new(2);
        let mut out = Vec::new();
        b.push(tup(10), &mut out);
        b.push(tup(20), &mut out); // releases 10, watermark 18
        assert!(b.slack().is_late(Timestamp(5), Timestamp(20)));
        b.push(tup(5), &mut out);
        assert_eq!(b.dropped, 1);
    }

    #[test]
    fn zero_slack_is_pass_through_in_order() {
        let mut buf = ReorderBuffer::new(0);
        let ts = drain(&mut buf, vec![tup(1), tup(2), tup(3)]);
        assert_eq!(ts, vec![1, 2, 3]);
    }

    #[test]
    fn stable_for_equal_keys() {
        // Two tuples with the same timestamp keep arrival order.
        let a = StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(100),
            Timestamp(5),
            vec![Value::Int(1)],
        ));
        let b = StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(200),
            Timestamp(5),
            vec![Value::Int(2)],
        ));
        let mut buf = ReorderBuffer::new(3);
        let mut out = Vec::new();
        buf.push(a, &mut out);
        buf.push(b, &mut out);
        buf.flush(&mut out);
        let tids: Vec<u64> = out.iter().filter_map(|e| e.as_tuple().map(|t| t.tid.raw())).collect();
        assert_eq!(tids, vec![100, 200]);
    }

    #[test]
    fn proptest_reorder_within_slack_is_lossless_and_sorted() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(128), |(
            base in proptest::collection::vec(0u64..200, 1..50),
            slack_extra in 0u64..20,
        )| {
            // Build a sorted stream, then displace each element by at most
            // `d` positions; a slack covering the max timestamp displacement
            // must recover the exact sorted order with no drops.
            let mut ts: Vec<u64> = base.clone();
            ts.sort_unstable();
            // Local shuffle: swap adjacent pairs deterministically.
            let mut shuffled = ts.clone();
            for i in (0..shuffled.len().saturating_sub(1)).step_by(2) {
                shuffled.swap(i, i + 1);
            }
            let max_disorder = ts
                .windows(2)
                .map(|w| w[1] - w[0])
                .max()
                .unwrap_or(0);
            let mut buf = ReorderBuffer::new(max_disorder + slack_extra + 1);
            let mut out = Vec::new();
            for &t in &shuffled {
                buf.push(tup(t), &mut out);
            }
            buf.flush(&mut out);
            let released: Vec<u64> = out.iter().map(|e| e.ts().millis()).collect();
            prop_assert_eq!(released, ts);
            prop_assert_eq!(buf.dropped, 0);
        });
    }

    #[test]
    fn shuffled_stream_recovers_well_formed_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        // A well-formed stream, then locally shuffled within slack bounds.
        let mut elems = Vec::new();
        for seg in 0..10u64 {
            elems.push(sp(seg * 10 + 1));
            for i in 2..6 {
                elems.push(tup(seg * 10 + i));
            }
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        // Shuffle within chunks of 4 (disorder < 10 timestamp units).
        for chunk in elems.chunks_mut(4) {
            chunk.shuffle(&mut rng);
        }
        let mut buf = ReorderBuffer::new(20);
        let mut out = Vec::new();
        for e in elems {
            buf.push(e, &mut out);
        }
        buf.flush(&mut out);
        let ts: Vec<u64> = out.iter().map(|e| e.ts().millis()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "released in timestamp order");
        assert_eq!(buf.dropped, 0);
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
    }
}
