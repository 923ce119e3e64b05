//! Baseline 1: the **store-and-probe** mechanism (§I-C).
//!
//! Policies are collected in one central, persistent policy table. Every
//! policy change (here: an arriving punctuation, playing the role of a
//! policy-update message) updates the table; every data tuple probes the
//! table to decide access. Simple, but each of the possibly very frequent
//! policy changes pays a table update, and *every* tuple pays a probe —
//! there is no sharing of access decisions between adjacent tuples.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sp_core::{RoleCatalog, RoleSet, Schema, StreamElement, Tuple};

use crate::mechanism::{EnforcementMechanism, GoverningBatch, MechStats};

/// The store-and-probe mechanism.
pub struct StoreAndProbe {
    query_roles: RoleSet,
    /// The central policy table: one row per object scope of the governing
    /// sp-batch, rewritten at every policy change and scanned by every
    /// probe — the central-table bottleneck the paper describes.
    table: GoverningBatch,
    stats: MechStats,
}

impl StoreAndProbe {
    /// A mechanism instance enforcing for a query with `query_roles`. The
    /// `_in_flight` capacity is accepted for interface uniformity; the
    /// central table is persistent and does not buffer tuples.
    #[must_use]
    pub fn new(
        catalog: Arc<RoleCatalog>,
        schema: Arc<Schema>,
        query_roles: RoleSet,
        _in_flight: usize,
    ) -> Self {
        Self {
            query_roles,
            table: GoverningBatch::new(catalog, schema),
            stats: MechStats::default(),
        }
    }

    /// Number of policies currently stored.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.table.policy().entries().len()
    }
}

impl EnforcementMechanism for StoreAndProbe {
    fn name(&self) -> &'static str {
        "store-and-probe"
    }

    fn process(&mut self, elem: StreamElement, out: &mut Vec<Arc<Tuple>>) {
        let start = Instant::now();
        match elem {
            StreamElement::Punctuation(sp) => self.table.push(sp),
            StreamElement::Tuple(tuple) => {
                if self.table.policy_for(tuple.tid).allows(&self.query_roles) {
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
        // Conventional (role-list) policy storage: the central table does
        // not benefit from the sp model's bitmap encoding.
        let table = self.table.policy();
        table
            .entries()
            .iter()
            .chain(table.denials())
            .map(|row| row.scope.source().len() + row.policy.mem_bytes_list())
            .sum()
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
    use sp_core::{
        DataDescription, RoleId, SecurityPunctuation, StreamId, Timestamp, TupleId, Value,
        ValueType,
    };
    use sp_pattern::Pattern;

    fn setup(roles: &[u32]) -> StoreAndProbe {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(16);
        StoreAndProbe::new(
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

    fn sp_for(tid: u64, roles: &[u32], ts: u64) -> StreamElement {
        StreamElement::punctuation(
            SecurityPunctuation::grant_all(
                roles.iter().map(|&r| RoleId(r)).collect(),
                Timestamp(ts),
            )
            .with_ddp(DataDescription {
                tuple: Pattern::literal(&tid.to_string()),
                ..DataDescription::everything()
            }),
        )
    }

    #[test]
    fn denies_without_policy() {
        let mut m = setup(&[1]);
        let out = run_mechanism(&mut m, vec![tup(7, 1)]);
        assert!(out.is_empty());
        assert_eq!(m.denied(), 1);
    }

    #[test]
    fn exact_probe_matches_object_policies() {
        let mut m = setup(&[1]);
        let out = run_mechanism(&mut m, vec![sp_for(7, &[1], 0), tup(7, 1), tup(8, 2)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tid.raw(), 7);
        assert_eq!(m.table_len(), 1);
    }

    #[test]
    fn newer_policy_overrides() {
        let mut m = setup(&[1]);
        let out = run_mechanism(
            &mut m,
            vec![sp_for(7, &[1], 0), tup(7, 1), sp_for(7, &[2], 5), tup(7, 6)],
        );
        assert_eq!(out.len(), 1, "revoked after override");
        assert_eq!(m.released(), 1);
        assert_eq!(m.denied(), 1);
    }

    #[test]
    fn same_ts_policies_union() {
        let mut m = setup(&[2]);
        let out = run_mechanism(&mut m, vec![sp_for(7, &[1], 3), sp_for(7, &[2], 3), tup(7, 4)]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn range_scoped_policies_probe_by_scan() {
        let mut m = setup(&[1]);
        let range_sp = StreamElement::punctuation(
            SecurityPunctuation::grant_all(RoleSet::from([1]), Timestamp(0))
                .with_ddp(DataDescription::tuple_range(100, 200)),
        );
        let out = run_mechanism(&mut m, vec![range_sp, tup(150, 1), tup(201, 2)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tid.raw(), 150);
    }

    #[test]
    fn memory_tracks_table_size() {
        let mut m = setup(&[1]);
        let empty = m.policy_mem_bytes();
        let _ = run_mechanism(&mut m, (0..50).map(|i| sp_for(i, &[1], 0)).collect::<Vec<_>>());
        assert!(m.policy_mem_bytes() > empty);
        assert_eq!(m.table_len(), 50);
        assert_eq!(m.name(), "store-and-probe");
        assert!(m.elapsed() > Duration::ZERO);
    }
}
