//! The **security-punctuation** mechanism (§I-C, the paper's approach),
//! wrapped behind the common [`EnforcementMechanism`] interface so the
//! Fig. 7 harness can drive all three mechanisms over identical input.
//!
//! Internally this is the real engine path: the SP Analyzer resolves
//! punctuation batches into shared segment policies and a Security Shield
//! enforces the query's roles, caching the per-segment verdict so tuples
//! sharing an sp are processed in O(1).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp_core::{RoleCatalog, RoleSet, Schema, StreamElement, Tuple};
use sp_engine::{
    Element, Emitter, Operator, OperatorExt, SecurityShield, SegmentPolicy, SpAnalyzer,
};

use crate::mechanism::{EnforcementMechanism, MechStats};

/// The punctuation-based mechanism.
pub struct SpMechanism {
    analyzer: SpAnalyzer,
    shield: SecurityShield,
    /// Capacity of the in-flight buffer (tuples concurrently inside the
    /// system). Each slot records which *shared* segment policy governs it;
    /// distinct policies are counted once in the memory metric — the
    /// punctuation model's sharing advantage.
    in_flight: usize,
    /// Run-length encoded in-flight buffer: `(segment policy, tuples under
    /// it)`. Consecutive tuples share a segment, so the hot path is an
    /// integer increment — the sharing that makes the sp model cheap.
    window: VecDeque<(Option<Arc<SegmentPolicy>>, u32)>,
    window_total: usize,
    current: Option<Arc<SegmentPolicy>>,
    current_fresh: bool,
    staged: Vec<Element>,
    emitter: Emitter,
    stats: MechStats,
}

impl SpMechanism {
    /// A mechanism instance enforcing for a query with `query_roles`,
    /// buffering up to `in_flight` tuples.
    #[must_use]
    pub fn new(
        catalog: Arc<RoleCatalog>,
        schema: Arc<Schema>,
        query_roles: RoleSet,
        in_flight: usize,
    ) -> Self {
        Self {
            analyzer: SpAnalyzer::new(schema, catalog),
            shield: SecurityShield::new(query_roles),
            in_flight: in_flight.max(1),
            window: VecDeque::new(),
            window_total: 0,
            current: None,
            current_fresh: false,
            staged: Vec::new(),
            emitter: Emitter::new(),
            stats: MechStats::default(),
        }
    }

    /// Current retained tuple count.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window_total
    }
}

impl EnforcementMechanism for SpMechanism {
    fn name(&self) -> &'static str {
        "security-punctuations"
    }

    fn process(&mut self, elem: StreamElement, out: &mut Vec<Arc<Tuple>>) {
        let start = Instant::now();
        self.staged.clear();
        self.analyzer.push(elem, &mut self.staged);
        for e in self.staged.drain(..) {
            // In-flight bookkeeping (memory metric only).
            match &e {
                Element::Policy(seg) => {
                    self.current = Some(seg.clone());
                    self.current_fresh = true;
                }
                Element::Tuple(_) => {
                    match self.window.back_mut() {
                        Some(back) if !self.current_fresh => back.1 += 1,
                        _ => {
                            self.window.push_back((self.current.clone(), 1));
                            self.current_fresh = false;
                        }
                    }
                    self.window_total += 1;
                    while self.window_total > self.in_flight {
                        let Some(front) = self.window.front_mut() else { break };
                        front.1 -= 1;
                        self.window_total -= 1;
                        if front.1 == 0 {
                            self.window.pop_front();
                        }
                    }
                }
            }
            // Enforcement. A shield error means the element cannot be
            // safely released — drop it and whatever the shield staged
            // (fail closed).
            if self.shield.process(0, e, &mut self.emitter).is_err() {
                let _ = self.emitter.take();
                continue;
            }
            for released in self.emitter.drain() {
                if let Element::Tuple(t) = released {
                    self.stats.released += 1;
                    out.push(t);
                }
            }
        }
        self.stats.elapsed += start.elapsed();
    }

    fn policy_mem_bytes(&self) -> usize {
        // Policies are shared between the tuples of a segment: each
        // in-flight segment policy is counted once (bitmap encoding — the
        // sp model's compact form), plus the shield's own state.
        self.window.iter().filter_map(|(p, _)| p.as_ref().map(|p| p.mem_bytes())).sum::<usize>()
            + self.shield.state_mem_bytes()
    }

    fn elapsed(&self) -> Duration {
        self.stats.elapsed
    }

    fn released(&self) -> u64 {
        self.stats.released
    }

    fn denied(&self) -> u64 {
        self.shield.stats().tuples_shielded
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::mechanism::run_mechanism;
    use sp_core::{RoleId, SecurityPunctuation, StreamId, Timestamp, TupleId, Value, ValueType};

    fn setup(roles: &[u32]) -> SpMechanism {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(16);
        SpMechanism::new(
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

    fn sp(roles: &[u32], ts: u64) -> StreamElement {
        StreamElement::punctuation(SecurityPunctuation::grant_all(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        ))
    }

    #[test]
    fn enforces_like_a_shield() {
        let mut m = setup(&[1]);
        let out =
            run_mechanism(&mut m, vec![sp(&[1], 0), tup(1, 1), sp(&[2], 2), tup(2, 3), tup(3, 4)]);
        let ids: Vec<u64> = out.iter().map(|t| t.tid.raw()).collect();
        assert_eq!(ids, vec![1]);
        assert_eq!(m.released(), 1);
        assert_eq!(m.denied(), 2);
    }

    #[test]
    fn shared_policies_counted_once() {
        let mut m = setup(&[1]);
        let mut input = vec![sp(&(0..64).collect::<Vec<u32>>(), 0)];
        for i in 0..100 {
            input.push(tup(i, i + 1));
        }
        let _ = run_mechanism(&mut m, input);
        assert_eq!(m.window_len(), 100);
        // One shared policy + 100 pointers: far below 100 copies.
        let bytes = m.policy_mem_bytes();
        let one_policy = 64 / 8 + std::mem::size_of::<sp_core::Policy>();
        assert!(bytes < 100 * one_policy, "sharing must beat per-tuple copies ({bytes} bytes)");
        assert_eq!(m.name(), "security-punctuations");
        assert!(m.elapsed() > Duration::ZERO);
    }
}
