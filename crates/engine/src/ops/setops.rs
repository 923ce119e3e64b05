//! Security-aware set operations — the Θ ∈ {∪, ∩} members of the binary
//! operator family that Table II's rules quantify over (the paper omits
//! their definitions "to keep the presentation concise", footnote 5; these
//! follow the same policy semantics as the other operators).
//!
//! * [`Union`] — bag union of two streams with identical schemas. Each
//!   forwarded tuple stays governed by *its own side's* policy: the
//!   operator tracks the current policy per input port and re-announces a
//!   port's policy whenever the emitting side changes, so the merged
//!   output stream remains correctly punctuated.
//! * [`SAIntersect`] — windowed intersection with SAJoin-style policy
//!   compatibility: an arriving tuple is emitted iff a value-equal tuple
//!   with a compatible policy (`P_t ∩ P_u ≠ ∅`) exists in the opposite
//!   window; the result carries the intersection of the two policies, the
//!   same combination rule as the join.
//!
//! Both keep one shared [`Governing`] segment per port; the intersection's
//! windows and output announcements are the shared [`state`](super::state)
//! types too.

use std::sync::Arc;

use sp_core::{Policy, Timestamp};

use super::state::{Announcer, Governing, Window};
use crate::checkpoint as ckpt;
use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::stats::OperatorStats;

/// Security-aware bag union.
#[derive(Debug, Default)]
pub struct Union {
    inputs: [Governing; 2],
    /// Which port's policy was last announced downstream (and which
    /// segment policy it was).
    announced: Option<(usize, Arc<SegmentPolicy>)>,
    /// Timestamp of the last announcement: re-announcements of an older
    /// side's policy are restamped so the merged output stream's
    /// punctuations stay timestamp-ordered (downstream operators discard
    /// stale-looking punctuations, §V-A).
    last_announced_ts: Timestamp,
    stats: OperatorStats,
}

impl Union {
    /// A new union operator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Operator for Union {
    fn name(&self) -> &str {
        "union"
    }

    fn arity(&self) -> usize {
        2
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port >= 2 {
            return Err(EngineError::BadPort { operator: "union".into(), port, arity: 2 });
        }
        for elem in batch {
            match elem {
                Element::Policy(seg) => {
                    // Invalidate the announcement if it was this port's.
                    if self.inputs[port].observe(seg, &mut self.stats)
                        && matches!(&self.announced, Some((p, _)) if *p == port)
                    {
                        self.announced = None;
                    }
                }
                Element::Tuple(tuple) => {
                    self.stats.tuples_in += 1;
                    let needs_announce = match (&self.announced, self.inputs[port].current()) {
                        (Some((p, seg)), Some(cur)) => *p != port || !Arc::ptr_eq(seg, cur),
                        (None, Some(_)) => true,
                        // No policy on this port yet: forward the tuple bare;
                        // downstream denial-by-default applies. Announce a
                        // deny policy so a previous other-port grant cannot
                        // leak onto this side's tuples.
                        (_, None) => !matches!(&self.announced, Some((p, _)) if *p == port),
                    };
                    if needs_announce {
                        let seg = self.inputs[port]
                            .current()
                            .cloned()
                            .unwrap_or_else(|| Arc::new(SegmentPolicy::deny(tuple.ts)));
                        // Keep the merged output's punctuations ordered: a
                        // re-announced policy may carry an older timestamp
                        // than the other side's last one.
                        let announce_ts = seg.ts.max(self.last_announced_ts);
                        let emitted = if announce_ts == seg.ts {
                            seg.clone()
                        } else {
                            Arc::new(seg.with_ts(announce_ts))
                        };
                        self.last_announced_ts = announce_ts;
                        self.stats.sps_out += 1;
                        out.push(Element::Policy(emitted));
                        self.announced = Some((port, seg));
                    }
                    self.stats.tuples_out += 1;
                    out.push(Element::Tuple(tuple));
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    fn state_mem_bytes(&self) -> usize {
        self.inputs.iter().map(Governing::mem_bytes).sum()
    }

    /// Snapshot: counters, per-port current policies, the last downstream
    /// announcement (port + policy), and the announcement timestamp floor.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        use bytes::BufMut;
        self.stats.encode_counters(buf);
        for input in &self.inputs {
            input.encode(buf);
        }
        match &self.announced {
            Some((port, seg)) => {
                buf.put_u8(1);
                buf.put_u8(*port as u8);
                ckpt::encode_segment_policy(seg, buf);
            }
            None => buf.put_u8(0),
        }
        buf.put_u64(self.last_announced_ts.0);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        use bytes::Buf;
        ckpt::restore("union", bytes, |buf| {
            self.stats.decode_counters(buf)?;
            for input in &mut self.inputs {
                *input = Governing::decode(buf)?;
            }
            ckpt::need(buf, 1, "union announced flag")?;
            self.announced = match buf.get_u8() {
                0 => None,
                1 => {
                    ckpt::need(buf, 1, "union announced port")?;
                    let port = usize::from(buf.get_u8());
                    if port >= 2 {
                        return Err(format!("union announced port {port} out of range"));
                    }
                    let seg = ckpt::decode_segment_policy(buf)?;
                    Some((port, Arc::new(seg)))
                }
                b => return Err(format!("bad union announced flag {b}")),
            };
            ckpt::need(buf, 8, "union announcement timestamp")?;
            self.last_announced_ts = Timestamp(buf.get_u64());
            Ok(())
        })?;
        // The announcement-validity check in `process_batch` compares by pointer;
        // re-share the current policy's Arc when the decoded announcement
        // matches it by value so recovery does not force a spurious
        // re-announcement.
        if let Some((port, seg)) = &mut self.announced {
            if let Some(cur) = self.inputs[*port].current() {
                if **cur == **seg {
                    *seg = Arc::clone(cur);
                }
            }
        }
        Ok(())
    }
}

/// Security-aware windowed intersection (value-equality semi-match).
#[derive(Debug)]
pub struct SAIntersect {
    windows: [Window; 2],
    inputs: [Governing; 2],
    announcer: Announcer,
    stats: OperatorStats,
}

impl SAIntersect {
    /// An intersection over sliding windows of `window_ms` per side.
    #[must_use]
    pub fn new(window_ms: u64) -> Self {
        Self {
            windows: [Window::new(window_ms), Window::new(window_ms)],
            inputs: [Governing::default(), Governing::default()],
            announcer: Announcer::default(),
            stats: OperatorStats::new(),
        }
    }
}

impl Operator for SAIntersect {
    fn name(&self) -> &str {
        "intersect"
    }

    fn arity(&self) -> usize {
        2
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port >= 2 {
            return Err(EngineError::BadPort { operator: "intersect".into(), port, arity: 2 });
        }
        for elem in batch {
            match elem {
                Element::Policy(seg) => {
                    self.inputs[port].observe(seg, &mut self.stats);
                }
                Element::Tuple(tuple) => {
                    self.stats.tuples_in += 1;
                    while self.windows[1 - port].pop_expired(tuple.ts).is_some() {}
                    let policy = self.inputs[port].policy_for(tuple.tid);
                    // Probe the opposite window for value-equal partners. The
                    // governing policy of an intersection result is the union
                    // over all partners of the pairwise intersections — "roles
                    // that may see this tuple AND at least one matching
                    // partner". (Stopping at the first partner would tie the
                    // result's visibility to window order and break the
                    // Table II shield push-down equivalence.) Probing before
                    // the own-side insert is equivalent — a tuple never probes
                    // its own window — and lets the policy Arc move into the
                    // window instead of being cloned.
                    let mut combined = sp_core::RoleSet::new();
                    for (u, up) in self.windows[1 - port].iter() {
                        if u.values() == tuple.values() {
                            let mut pair = policy.tuple_roles().clone();
                            pair.intersect_with(up.tuple_roles());
                            combined.union_with(&pair);
                        }
                    }
                    self.windows[port].push(tuple.clone(), policy);
                    if !combined.is_empty() {
                        let out_policy = Policy::tuple_level(combined, tuple.ts);
                        self.announcer.emit(out_policy, tuple, &mut self.stats, out);
                    } else {
                        self.stats.tuples_shielded += 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    fn state_mem_bytes(&self) -> usize {
        self.windows.iter().map(Window::mem_bytes).sum()
    }

    /// Snapshot: counters, both windows (tuple + governing policy each),
    /// per-port current policies, and the last emitted result policy.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        self.stats.encode_counters(buf);
        for side in &self.windows {
            side.encode(buf);
        }
        for input in &self.inputs {
            input.encode(buf);
        }
        self.announcer.encode(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        ckpt::restore("intersect", bytes, |buf| {
            self.stats.decode_counters(buf)?;
            for side in &mut self.windows {
                side.decode(buf, "intersect window length")?;
            }
            for input in &mut self.inputs {
                *input = Governing::decode(buf)?;
            }
            self.announcer = Announcer::decode(buf)?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::OperatorExt;
    use sp_core::{RoleId, StreamId, Tuple, TupleId, Value};

    fn tup(sid: u32, tid: u64, ts: u64, v: i64) -> Element {
        Element::tuple(Tuple::new(StreamId(sid), TupleId(tid), Timestamp(ts), vec![Value::Int(v)]))
    }

    fn pol(roles: &[u32], ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        )))
    }

    fn run(op: &mut dyn Operator, feed: Vec<(usize, Element)>) -> Vec<Element> {
        let mut emitter = Emitter::new();
        let mut out = Vec::new();
        for (port, e) in feed {
            op.process(port, e, &mut emitter).unwrap();
            out.extend(emitter.drain());
        }
        out
    }

    /// (value, governing roles) pairs in emission order.
    fn governed(out: &[Element]) -> Vec<(i64, Vec<u32>)> {
        let mut current: Vec<u32> = Vec::new();
        let mut res = Vec::new();
        for e in out {
            match e {
                Element::Policy(p) => {
                    current = p
                        .as_uniform()
                        .map(|q| q.tuple_roles().iter().map(|r| r.raw()).collect())
                        .unwrap_or_default();
                }
                Element::Tuple(t) => {
                    res.push((t.value(0).unwrap().as_i64().unwrap(), current.clone()));
                }
            }
        }
        res
    }

    #[test]
    fn union_keeps_per_side_policies() {
        let mut u = Union::new();
        let out = run(
            &mut u,
            vec![
                (0, pol(&[1], 1)),
                (1, pol(&[2], 2)),
                (0, tup(1, 1, 3, 10)),
                (1, tup(2, 1, 4, 20)),
                (0, tup(1, 2, 5, 11)),
            ],
        );
        assert_eq!(
            governed(&out),
            vec![(10, vec![1]), (20, vec![2]), (11, vec![1])],
            "each side's tuples stay under their own policy"
        );
        // Policy re-announced at each side switch: 3 policy elements.
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 3);
    }

    #[test]
    fn union_consecutive_same_side_share_one_announcement() {
        let mut u = Union::new();
        let out = run(
            &mut u,
            vec![
                (0, pol(&[1], 1)),
                (0, tup(1, 1, 2, 10)),
                (0, tup(1, 2, 3, 11)),
                (0, tup(1, 3, 4, 12)),
            ],
        );
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 1);
        assert_eq!(governed(&out).len(), 3);
    }

    #[test]
    fn union_unpunctuated_side_is_denied_not_leaked() {
        let mut u = Union::new();
        let out = run(
            &mut u,
            vec![
                (0, pol(&[1], 1)),
                (0, tup(1, 1, 2, 10)),
                // Port 1 never announced a policy: its tuple must not ride
                // under port 0's grant.
                (1, tup(2, 1, 3, 20)),
            ],
        );
        let g = governed(&out);
        assert_eq!(g[0], (10, vec![1]));
        assert_eq!(g[1], (20, vec![]), "denied by default");
    }

    #[test]
    fn union_policy_update_reannounces() {
        let mut u = Union::new();
        let out = run(
            &mut u,
            vec![
                (0, pol(&[1], 1)),
                (0, tup(1, 1, 2, 10)),
                (0, pol(&[2], 3)),
                (0, tup(1, 2, 4, 11)),
            ],
        );
        assert_eq!(governed(&out), vec![(10, vec![1]), (11, vec![2])]);
    }

    #[test]
    fn intersect_requires_value_and_policy_match() {
        let mut i = SAIntersect::new(1000);
        let out = run(
            &mut i,
            vec![
                (0, pol(&[1], 1)),
                (0, tup(1, 1, 2, 42)), // no partner yet
                (1, pol(&[1, 2], 3)),
                (1, tup(2, 1, 4, 42)), // matches left 42, compatible
                (1, tup(2, 2, 5, 99)), // no value match
            ],
        );
        let g = governed(&out);
        assert_eq!(g, vec![(42, vec![1])], "intersection of {{1}} and {{1,2}}");
        assert_eq!(i.stats().tuples_shielded, 2);
    }

    #[test]
    fn intersect_rejects_incompatible_policies() {
        let mut i = SAIntersect::new(1000);
        let out = run(
            &mut i,
            vec![
                (0, pol(&[1], 1)),
                (0, tup(1, 1, 2, 42)),
                (1, pol(&[2], 3)),
                (1, tup(2, 1, 4, 42)),
            ],
        );
        assert!(governed(&out).is_empty());
    }

    #[test]
    fn intersect_window_expiry() {
        let mut i = SAIntersect::new(100);
        let out = run(
            &mut i,
            vec![
                (0, pol(&[1], 1)),
                (0, tup(1, 1, 2, 42)),
                (1, pol(&[1], 3)),
                (1, tup(2, 1, 500, 42)), // left 42 expired
            ],
        );
        assert!(governed(&out).is_empty());
        assert_eq!(i.name(), "intersect");
        assert!(i.state_mem_bytes() > 0);
        assert_eq!(i.arity(), 2);
    }
}
