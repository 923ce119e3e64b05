//! Baseline 2: the **tuple-embedded** mechanism (§I-C).
//!
//! Security restrictions are shipped *inside every data tuple*: each tuple
//! carries its own copy of its access-control policy (here materialized
//! when the tuple enters the system, exactly as if the data provider had
//! attached the extra meta-data fields). Tuples with identical policies
//! still carry redundant copies, the per-tuple size grows with the policy
//! size, and the processor must evaluate every tuple's policy individually
//! — no decision sharing is possible. These are precisely the costs
//! Fig. 7 charges this approach with.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp_core::{Policy, RoleCatalog, RoleSet, Schema, StreamElement, Tuple};

use crate::mechanism::{EnforcementMechanism, GoverningBatch, MechStats};

/// A tuple with its embedded policy copy.
#[derive(Debug)]
pub struct EmbeddedTuple {
    /// The data tuple.
    pub tuple: Arc<Tuple>,
    /// The *owned* policy copy this tuple carries.
    pub policy: Policy,
}

/// The tuple-embedded mechanism.
pub struct TupleEmbedded {
    query_roles: RoleSet,
    /// Capacity of the in-flight buffer (tuples concurrently inside the
    /// system, each carrying its embedded policy copy).
    in_flight: usize,
    /// The policy the data source is currently stamping onto its tuples.
    current: GoverningBatch,
    /// The in-flight embedded tuples (the memory cost driver).
    window: VecDeque<EmbeddedTuple>,
    stats: MechStats,
}

impl TupleEmbedded {
    /// A mechanism instance enforcing for a query with `query_roles`,
    /// buffering up to `in_flight` embedded tuples.
    #[must_use]
    pub fn new(
        catalog: Arc<RoleCatalog>,
        schema: Arc<Schema>,
        query_roles: RoleSet,
        in_flight: usize,
    ) -> Self {
        Self {
            query_roles,
            in_flight: in_flight.max(1),
            current: GoverningBatch::new(catalog, schema),
            window: VecDeque::new(),
            stats: MechStats::default(),
        }
    }

    /// Current number of embedded tuples held.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window.len()
    }
}

impl EnforcementMechanism for TupleEmbedded {
    fn name(&self) -> &'static str {
        "tuple-embedded"
    }

    fn process(&mut self, elem: StreamElement, out: &mut Vec<Arc<Tuple>>) {
        let start = Instant::now();
        match elem {
            // The data source's policy changes; subsequent tuples are
            // stamped with the new policy.
            StreamElement::Punctuation(sp) => self.current.push(sp),
            StreamElement::Tuple(tuple) => {
                while self.window.len() >= self.in_flight {
                    self.window.pop_front();
                }
                // Embed: every tuple gets its own policy copy — always an
                // owned one, that is the point of this baseline.
                let policy = Policy::clone(&self.current.policy_for(tuple.tid));
                // Enforce: every tuple's policy is evaluated individually.
                let authorized = policy.allows(&self.query_roles);
                self.window.push_back(EmbeddedTuple { tuple: tuple.clone(), policy });
                if authorized {
                    self.stats.released += 1;
                    out.push(tuple);
                } else {
                    self.stats.denied += 1;
                }
            }
        }
        self.stats.elapsed += start.elapsed();
    }

    fn policy_mem_bytes(&self) -> usize {
        // Each in-flight tuple pays for its own (role-list) policy copy —
        // "tuples with identical policies would still carry their own
        // (redundant) copy" (§I-C).
        self.window.iter().map(|e| e.policy.mem_bytes_list()).sum()
    }

    fn elapsed(&self) -> Duration {
        self.stats.elapsed
    }

    fn released(&self) -> u64 {
        self.stats.released
    }

    fn denied(&self) -> u64 {
        self.stats.denied
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::mechanism::run_mechanism;
    use sp_core::{RoleId, SecurityPunctuation, StreamId, Timestamp, TupleId, Value, ValueType};

    fn setup(roles: &[u32]) -> TupleEmbedded {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(16);
        TupleEmbedded::new(
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
    fn denies_without_policy() {
        let mut m = setup(&[1]);
        assert!(run_mechanism(&mut m, vec![tup(1, 1)]).is_empty());
    }

    #[test]
    fn stamps_current_policy_on_tuples() {
        let mut m = setup(&[1]);
        let out = run_mechanism(&mut m, vec![sp(&[1], 0), tup(1, 1), sp(&[2], 2), tup(2, 3)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tid.raw(), 1);
    }

    #[test]
    fn memory_grows_per_tuple_even_with_shared_policies() {
        let mut big = setup(&[1]);
        let mut input = vec![sp(&(0..512).collect::<Vec<u32>>(), 0)];
        for i in 0..100 {
            input.push(tup(i, i + 1));
        }
        let _ = run_mechanism(&mut big, input);
        assert_eq!(big.window_len(), 100);
        // 100 tuples → 100 policy copies: memory scales with tuple count.
        let per_tuple = big.policy_mem_bytes() / 100;
        assert!(per_tuple > 0);
        let mut small = setup(&[1]);
        let mut input = vec![sp(&[1], 0)];
        for i in 0..100 {
            input.push(tup(i, i + 1));
        }
        let _ = run_mechanism(&mut small, input);
        assert!(
            big.policy_mem_bytes() > small.policy_mem_bytes(),
            "larger policies cost more per embedded copy"
        );
    }

    #[test]
    fn in_flight_capacity_bounds_memory() {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(16);
        let mut m = TupleEmbedded::new(
            Arc::new(c),
            Schema::of("loc", &[("id", ValueType::Int)]),
            RoleSet::from([1]),
            16,
        );
        let mut input = vec![sp(&[1], 0)];
        for i in 0..100u64 {
            input.push(tup(i, i * 1000));
        }
        let _ = run_mechanism(&mut m, input);
        assert_eq!(m.window_len(), 16, "buffer capped at capacity");
        assert_eq!(m.name(), "tuple-embedded");
    }
}
