//! The security-aware projection operator `π_a(T)` (Table I).
//!
//! Projection discards unwanted attributes on the fly and propagates
//! streaming punctuations, rewriting attribute-scoped grants to the new
//! attribute positions. Grants that only concerned projected-out
//! attributes disappear (the paper's "the sp is discarded", §IV-B) — but
//! the punctuation itself still propagates, now denying everything: under
//! override semantics a new segment's policy must replace the previous
//! one, and silently dropping it would leave a stale grant governing the
//! segment's tuples downstream.
//!
//! A tuple the operator owns outright — the only `Arc` on it is the one
//! it was handed — is compacted in place and forwarded in that same
//! `Arc`; a tuple someone else still holds is projected into a fresh tuple
//! and left untouched. A lent run takes the default
//! [`Operator::process_run`]: its clones share every tuple with the run the
//! executor still holds, so none of them is compacted.

use std::sync::Arc;

use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{unary_port, Emitter, Operator};
use crate::stats::OperatorStats;

/// The projection operator.
#[derive(Debug)]
pub struct Project {
    /// Attribute indices to keep, in output order.
    indices: Vec<usize>,
    stats: OperatorStats,
}

impl Project {
    /// A projection keeping `indices` (in the given order).
    #[must_use]
    pub fn new(indices: Vec<usize>) -> Self {
        Self { indices, stats: OperatorStats::new() }
    }

    /// The projected attribute indices.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Remaps one segment policy's attribute-scoped grants to the output
    /// attribute positions. With no attribute grant to move and no
    /// deny-all entry to drop the remap is the identity, and the policy is
    /// forwarded as it came — the common, tuple-level case builds nothing.
    fn remap_policy(&mut self, seg: Arc<SegmentPolicy>, out: &mut Emitter) {
        self.stats.sps_in += 1;
        self.stats.sps_out += 1;
        let identity = seg
            .entries()
            .iter()
            .all(|e| e.policy.attr_grants().is_empty() && !e.policy.is_deny_all());
        out.push(if identity {
            Element::Policy(seg)
        } else {
            Element::policy(seg.map_policies(|p| {
                p.remap_attrs(|old| {
                    self.indices.iter().position(|&k| k == old as usize).map(|new| new as u16)
                })
            }))
        });
    }
}

impl Operator for Project {
    fn name(&self) -> &str {
        "project"
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        unary_port("project", port)?;
        out.reserve(batch.len());
        for elem in batch {
            match elem {
                Element::Policy(seg) => self.remap_policy(seg, out),
                Element::Tuple(mut tuple) => {
                    self.stats.tuples_in += 1;
                    self.stats.tuples_out += 1;
                    out.push(match Arc::get_mut(&mut tuple) {
                        Some(owned) => {
                            owned.project_in_place(&self.indices);
                            Element::Tuple(tuple)
                        }
                        None => Element::tuple(tuple.project(&self.indices)),
                    });
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    /// Projection is per-tuple: safe to replicate across shards.
    fn shard_safe(&self) -> bool {
        true
    }

    /// Every policy is forwarded immediately, exactly once, and
    /// deterministically (grants remapped to output positions), so
    /// projection may sit between a delayed-propagation operator and
    /// its sink: duplicate flushes stay byte-equal through the remap.
    fn policy_transparent(&self) -> bool {
        true
    }

    /// Snapshot: counters only — projection holds no stream state.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        self.stats.encode_counters(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        crate::checkpoint::restore("project", bytes, |buf| self.stats.decode_counters(buf))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::run_unary;
    use sp_core::{Policy, RoleId, RoleSet, StreamId, Timestamp, Tuple, TupleId, Value};

    fn tup(vals: Vec<Value>) -> Element {
        Element::tuple(Tuple::new(StreamId(0), TupleId(1), Timestamp(0), vals))
    }

    #[test]
    fn projects_values_in_order() {
        let mut proj = Project::new(vec![2, 0]);
        let out =
            run_unary(&mut proj, vec![tup(vec![Value::Int(1), Value::Int(2), Value::Int(3)])]);
        let t = out[0].as_tuple().unwrap();
        assert_eq!(t.values(), &[Value::Int(3), Value::Int(1)]);
        assert_eq!(proj.indices(), &[2, 0]);
    }

    #[test]
    fn owned_tuple_is_compacted_in_its_own_arc() {
        let tuple = Arc::new(Tuple::new(
            StreamId(0),
            TupleId(4),
            Timestamp(2),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        ));
        let addr = Arc::as_ptr(&tuple);
        let mut proj = Project::new(vec![0, 2]);
        let out = run_unary(&mut proj, vec![Element::Tuple(tuple)]);
        let t = out[0].as_tuple().unwrap();
        assert_eq!(Arc::as_ptr(t), addr, "forwarded in the Arc it came in");
        assert_eq!(t.values(), &[Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn shared_tuple_is_left_untouched() {
        let held = Arc::new(Tuple::new(
            StreamId(0),
            TupleId(4),
            Timestamp(2),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        ));
        let before = (*held).clone();
        // Owned run holding a shared Arc, then a lent run: both leave the
        // other holder's tuple as it was and emit a fresh projection.
        let mut proj = Project::new(vec![2]);
        let owned = run_unary(&mut proj, vec![Element::Tuple(held.clone())]);
        let mut out = Emitter::new();
        proj.process_run(0, &[Element::Tuple(held.clone())], &mut out).unwrap();
        let lent = out.take();
        for got in [&owned[0], &lent[0]] {
            let t = got.as_tuple().unwrap();
            assert!(!Arc::ptr_eq(t, &held));
            assert_eq!(t.values(), &[Value::Int(3)]);
        }
        assert_eq!(*held, before);
        assert_eq!(proj.stats().tuples_out, 2);
    }

    #[test]
    fn tuple_level_policies_propagate() {
        let mut proj = Project::new(vec![0]);
        let seg = SegmentPolicy::uniform(Policy::tuple_level(RoleSet::from([1]), Timestamp(0)));
        let out = run_unary(&mut proj, vec![Element::policy(seg)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].as_policy().unwrap().policy_for(TupleId(0)).allows(&RoleSet::from([1])));
    }

    #[test]
    fn tuple_level_policy_is_forwarded_as_is() {
        // No attribute grant to move, no deny-all entry to drop: the remap
        // is the identity, so the very same allocation goes downstream —
        // for a uniform segment, a scoped one, and the empty (deny) one.
        let grant = |r| Arc::new(Policy::tuple_level(RoleSet::from([r]), Timestamp(3)));
        let scoped = SegmentPolicy::new(
            vec![
                crate::element::PolicyEntry {
                    scope: sp_pattern::Pattern::numeric_range(0, 5),
                    policy: grant(1),
                },
                crate::element::PolicyEntry {
                    scope: sp_pattern::Pattern::numeric_range(3, 9),
                    policy: grant(2),
                },
            ],
            Timestamp(3),
        );
        let uniform = SegmentPolicy::uniform(Policy::tuple_level(RoleSet::from([1]), Timestamp(4)));
        for seg in [scoped, uniform, SegmentPolicy::deny(Timestamp(5))] {
            let seg = Arc::new(seg);
            let mut proj = Project::new(vec![1]);
            let out = run_unary(&mut proj, vec![Element::Policy(seg.clone())]);
            assert!(Arc::ptr_eq(out[0].as_policy().unwrap(), &seg));
            // … and it is what the remap would have built.
            assert_eq!(*seg, seg.map_policies(|p| p.remap_attrs(|_| None)));
            assert_eq!((proj.stats().sps_in, proj.stats().sps_out), (1, 1));
        }
    }

    #[test]
    fn deny_all_entry_is_still_dropped() {
        // A scoped segment with one deny-all entry is not the identity
        // case: the remap drops that entry, as before.
        let seg = SegmentPolicy::new(
            vec![
                crate::element::PolicyEntry {
                    scope: sp_pattern::Pattern::numeric_range(0, 5),
                    policy: Arc::new(Policy::tuple_level(RoleSet::from([1]), Timestamp(3))),
                },
                crate::element::PolicyEntry {
                    scope: sp_pattern::Pattern::numeric_range(6, 9),
                    policy: Arc::new(Policy::deny_all(Timestamp(3))),
                },
            ],
            Timestamp(3),
        );
        let mut proj = Project::new(vec![0]);
        let out = run_unary(&mut proj, vec![Element::policy(seg.clone())]);
        let forwarded = out[0].as_policy().unwrap();
        assert_eq!(forwarded.entries().len(), 1);
        assert_eq!(**forwarded, seg.map_policies(|p| p.remap_attrs(|_| None)));
    }

    #[test]
    fn attr_grants_are_remapped() {
        // Grant on attr 2; project [2, 0] → grant moves to output attr 0.
        let policy = Policy::tuple_level(RoleSet::new(), Timestamp(0))
            .with_attr_grant(2, RoleSet::single(RoleId(5)));
        let mut proj = Project::new(vec![2, 0]);
        let out = run_unary(&mut proj, vec![Element::policy(SegmentPolicy::uniform(policy))]);
        let seg = out[0].as_policy().unwrap();
        let p = seg.policy_for(TupleId(0));
        assert!(p.allows_attr(0, &RoleSet::from([5])));
        assert!(!p.allows_attr(1, &RoleSet::from([5])));
    }

    #[test]
    fn policy_for_only_dropped_attrs_becomes_deny() {
        // Grant exists only on attr 1, which the projection drops: the
        // grant disappears but the punctuation still propagates (it must
        // override whatever policy preceded it downstream).
        let policy = Policy::tuple_level(RoleSet::new(), Timestamp(0))
            .with_attr_grant(1, RoleSet::single(RoleId(5)));
        let mut proj = Project::new(vec![0]);
        let out = run_unary(&mut proj, vec![Element::policy(SegmentPolicy::uniform(policy))]);
        assert_eq!(out.len(), 1);
        let seg = out[0].as_policy().unwrap();
        assert!(seg.is_deny_all(), "orphaned grants leave a deny policy");
        assert_eq!(proj.stats().sps_in, 1);
        assert_eq!(proj.stats().sps_out, 1);
    }

    #[test]
    fn counts_and_name() {
        let mut proj = Project::new(vec![0]);
        let _ = run_unary(&mut proj, vec![tup(vec![Value::Int(1)])]);
        assert_eq!(proj.stats().tuples_in, 1);
        assert_eq!(proj.name(), "project");
    }
}
