//! Security-aware duplicate elimination `δ(T)` (Table I, §IV-B).
//!
//! Over a sliding window, the output contains exactly one tuple per
//! distinct value. Policies are stored with the output state, and a new
//! duplicate is released only to the subjects that could *not* already see
//! the previously released copy:
//!
//! 1. `P_old ∩ P_new = ∅` — the earlier output was invisible to the new
//!    tuple's audience: emit the value under `P_new`;
//! 2. `P_old ∩ P_new = P_new` — the earlier output was already visible to
//!    everyone authorized now: emit nothing;
//! 3. otherwise — emit under `P_new − (P_old ∩ P_new)` (only the roles that
//!    gained visibility).
//!
//! In every emitting case the stored policy widens to `P_old ∪ P_new`: the
//! output state tracks the *cumulative audience* that has been shown the
//! value. (The paper's literal text stores only `P_new` in case 1, which
//! forgets earlier viewers and re-releases values to audiences that
//! already saw them whenever a disjoint policy intervenes; the cumulative
//! form is what makes the Table II shield/δ commute rule sound. All three
//! cases then coincide with the unified rule: release `P_new − P_seen`
//! when non-empty, then `P_seen ← P_seen ∪ P_new`.)
//!
//! The input window, the governing segment and the output announcements
//! are the shared [`state`](super::state) types; this module keeps the
//! per-value audience and support count.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use sp_core::{Policy, RoleSet, Timestamp, Tuple, Value};

use super::state::{Announcer, Governing, Window};
use crate::checkpoint as ckpt;
use crate::element::Element;
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::stats::OperatorStats;

/// Output-state entry for one distinct value.
#[derive(Debug)]
struct OutEntry {
    /// Roles that have been shown this value.
    roles: RoleSet,
    /// Number of window tuples supporting the value.
    support: usize,
}

/// The duplicate-elimination operator.
#[derive(Debug)]
pub struct DupElim {
    /// Attributes forming the distinctness key (empty = all attributes).
    key_attrs: Vec<usize>,
    /// Input window contents, for support counting and expiry.
    window: Window,
    output: HashMap<Vec<Value>, OutEntry>,
    input: Governing,
    announcer: Announcer,
    stats: OperatorStats,
}

impl DupElim {
    /// Duplicate elimination on the given key attributes over a sliding
    /// window of `window_ms` (an empty key list means whole-tuple values).
    #[must_use]
    pub fn new(key_attrs: Vec<usize>, window_ms: u64) -> Self {
        Self {
            key_attrs,
            window: Window::new(window_ms),
            output: HashMap::new(),
            input: Governing::default(),
            announcer: Announcer::default(),
            stats: OperatorStats::new(),
        }
    }

    fn key_of(&self, tuple: &Tuple) -> Vec<Value> {
        if self.key_attrs.is_empty() {
            tuple.values().to_vec()
        } else {
            self.key_attrs.iter().map(|&i| tuple.value(i).cloned().unwrap_or(Value::Null)).collect()
        }
    }

    /// Evicts expired window tuples, dropping their support.
    fn expire(&mut self, now: Timestamp) {
        while let Some((t, _)) = self.window.pop_expired(now) {
            let key = self.key_of(&t);
            if let Entry::Occupied(mut e) = self.output.entry(key) {
                e.get_mut().support -= 1;
                if e.get().support == 0 {
                    e.remove();
                }
            }
        }
    }
}

impl Operator for DupElim {
    fn name(&self) -> &str {
        "dupelim"
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port != 0 {
            return Err(EngineError::BadPort { operator: "dupelim".into(), port, arity: 1 });
        }
        for elem in batch {
            match elem {
                Element::Policy(seg) => {
                    self.input.observe(seg, &mut self.stats);
                }
                Element::Tuple(tuple) => {
                    self.stats.tuples_in += 1;
                    self.expire(tuple.ts);
                    let p_new = self.input.policy_for(tuple.tid);
                    let key = self.key_of(&tuple);
                    // Take the roles first so the policy Arc can move into the
                    // window without an extra refcount round-trip.
                    let new_roles = p_new.tuple_roles().clone();
                    self.window.push(tuple.clone(), p_new);
                    // Release the roles not yet shown the value (cases 1–3
                    // above); the first copy of a value under deny-all is
                    // shielded.
                    let released = match self.output.entry(key) {
                        Entry::Vacant(slot) => {
                            if new_roles.is_empty() {
                                self.stats.tuples_shielded += 1;
                            }
                            slot.insert(OutEntry { roles: new_roles.clone(), support: 1 });
                            new_roles
                        }
                        Entry::Occupied(mut slot) => {
                            let entry = slot.get_mut();
                            entry.support += 1;
                            let delta = new_roles.minus(&entry.roles);
                            if !delta.is_empty() {
                                entry.roles.union_with(&new_roles);
                            }
                            delta
                        }
                    };
                    if !released.is_empty() {
                        // The output policy carries the released tuple's
                        // timestamp, keeping output sps ordered.
                        let policy = Policy::tuple_level(released, tuple.ts);
                        self.announcer.emit(policy, tuple, &mut self.stats, out);
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
        let window = self.window.mem_bytes();
        let output: usize = self
            .output
            .values()
            .map(|e| e.roles.mem_bytes() + std::mem::size_of::<OutEntry>())
            .sum();
        window + output
    }

    /// Snapshot: counters, the input window, the output state (one entry
    /// per distinct value, serialized in byte-sorted key order so equal
    /// states always snapshot to identical bytes), the current segment
    /// policy, and the last emitted policy.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        use bytes::BufMut;
        self.stats.encode_counters(buf);
        self.window.encode(buf);
        let mut entries: Vec<Vec<u8>> = self
            .output
            .iter()
            .map(|(key, entry)| {
                let mut e = Vec::new();
                e.put_u16(key.len() as u16);
                for v in key {
                    sp_core::wire::encode_value(v, &mut e);
                }
                entry.roles.encode(&mut e);
                e.put_u64(entry.support as u64);
                e
            })
            .collect();
        entries.sort_unstable();
        buf.put_u32(entries.len() as u32);
        for e in entries {
            buf.extend_from_slice(&e);
        }
        self.input.encode(buf);
        self.announcer.encode(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        use bytes::Buf;
        ckpt::restore("dupelim", bytes, |buf| {
            self.stats.decode_counters(buf)?;
            self.window.decode(buf, "dupelim buffer length")?;
            // A value entry is at least its key arity, role set and count.
            let n = ckpt::get_count(buf, 2 + 2 + 8, "dupelim output length")?;
            let mut output = HashMap::new();
            for _ in 0..n {
                ckpt::need(buf, 2, "dupelim key arity")?;
                let key = (0..buf.get_u16())
                    .map(|_| sp_core::wire::decode_value(buf).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                let roles = RoleSet::decode(buf)?;
                ckpt::need(buf, 8, "dupelim support count")?;
                let support = buf.get_u64() as usize;
                if output.insert(key, OutEntry { roles, support }).is_some() {
                    return Err("duplicate dupelim output key".into());
                }
            }
            self.output = output;
            self.input = Governing::decode(buf)?;
            self.announcer = Announcer::decode(buf)?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::element::SegmentPolicy;
    use crate::operator::run_unary;
    use sp_core::{RoleId, StreamId, TupleId};

    fn tup(tid: u64, ts: u64, v: i64) -> Element {
        Element::tuple(Tuple::new(StreamId(0), TupleId(tid), Timestamp(ts), vec![Value::Int(v)]))
    }

    fn pol(roles: &[u32], ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        )))
    }

    fn released(out: &[Element]) -> Vec<(i64, Vec<u32>)> {
        // (value, roles of the preceding policy)
        let mut current: Vec<u32> = Vec::new();
        let mut results = Vec::new();
        for e in out {
            match e {
                Element::Policy(p) => {
                    current =
                        p.as_uniform().unwrap().tuple_roles().iter().map(|r| r.raw()).collect();
                }
                Element::Tuple(t) => {
                    results.push((t.value(0).unwrap().as_i64().unwrap(), current.clone()));
                }
            }
        }
        results
    }

    #[test]
    fn distinct_values_pass_once() {
        let mut de = DupElim::new(vec![0], 1000);
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), tup(2, 2, 5), tup(3, 3, 6)]);
        assert_eq!(released(&out), vec![(5, vec![1]), (6, vec![1])]);
    }

    #[test]
    fn case1_disjoint_policies_rerelease() {
        let mut de = DupElim::new(vec![0], 1000);
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), pol(&[2], 2), tup(2, 3, 5)]);
        // Audience {2} never saw 5: re-released under {2}.
        assert_eq!(released(&out), vec![(5, vec![1]), (5, vec![2])]);
    }

    #[test]
    fn case2_subset_policy_suppressed() {
        let mut de = DupElim::new(vec![0], 1000);
        let out =
            run_unary(&mut de, vec![pol(&[1, 2], 0), tup(1, 1, 5), pol(&[2], 2), tup(2, 3, 5)]);
        // Audience {2} already saw 5 via the first release.
        assert_eq!(released(&out), vec![(5, vec![1, 2])]);
    }

    #[test]
    fn case3_partial_overlap_releases_delta() {
        let mut de = DupElim::new(vec![0], 1000);
        let out =
            run_unary(&mut de, vec![pol(&[1, 2], 0), tup(1, 1, 5), pol(&[2, 3], 2), tup(2, 3, 5)]);
        // Role 3 is the only newcomer.
        assert_eq!(released(&out), vec![(5, vec![1, 2]), (5, vec![3])]);
    }

    #[test]
    fn case3_widens_stored_policy() {
        let mut de = DupElim::new(vec![0], 1000);
        let out = run_unary(
            &mut de,
            vec![
                pol(&[1, 2], 0),
                tup(1, 1, 5),
                pol(&[2, 3], 2),
                tup(2, 3, 5),
                // {3} has now seen it through the delta release: suppress.
                pol(&[3], 4),
                tup(3, 5, 5),
            ],
        );
        assert_eq!(released(&out).len(), 2);
    }

    #[test]
    fn expiry_forgets_values() {
        let mut de = DupElim::new(vec![0], 100);
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), tup(2, 250, 5)]);
        // First copy expired before the second arrived → released again.
        assert_eq!(released(&out).len(), 2);
        assert!(de.state_mem_bytes() > 0);
    }

    #[test]
    fn deny_all_tuples_never_released() {
        let mut de = DupElim::new(vec![0], 1000);
        let out = run_unary(&mut de, vec![tup(1, 1, 5)]);
        assert!(released(&out).is_empty());
        // And a later authorized duplicate IS released.
        let out = run_unary(&mut de, vec![pol(&[4], 2), tup(2, 3, 5)]);
        assert_eq!(released(&out), vec![(5, vec![4])]);
    }

    #[test]
    fn whole_tuple_key_when_no_attrs_given() {
        let mut de = DupElim::new(vec![], 1000);
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), tup(2, 2, 5)]);
        assert_eq!(released(&out).len(), 1);
        assert_eq!(de.name(), "dupelim");
    }
}
