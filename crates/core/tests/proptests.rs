//! Property tests for the core data model.
//!
//! * `RoleSet` bitmap algebra is checked against `BTreeSet<u32>` semantics.
//! * `Policy` combination laws (union/intersect monotonicity, override) are
//!   checked on random role sets.
//! * Punctuation wire encoding round-trips.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use sp_core::{
    BatchPolicy, DataDescription, PatternTable, Policy, RoleCatalog, RoleId, RoleSet, Schema,
    SecurityPunctuation, Timestamp, ValueType,
};

fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..320, 0..24)
}

fn to_roleset(ids: &[u32]) -> RoleSet {
    ids.iter().map(|&i| RoleId(i)).collect()
}

fn to_btree(ids: &[u32]) -> BTreeSet<u32> {
    ids.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roleset_matches_btreeset(a in arb_ids(), b in arb_ids()) {
        let (ra, rb) = (to_roleset(&a), to_roleset(&b));
        let (ba, bb) = (to_btree(&a), to_btree(&b));

        prop_assert_eq!(ra.len(), ba.len());
        prop_assert_eq!(ra.is_empty(), ba.is_empty());
        prop_assert_eq!(
            ra.union(&rb).iter().map(|r| r.raw()).collect::<Vec<_>>(),
            ba.union(&bb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            ra.intersect(&rb).iter().map(|r| r.raw()).collect::<Vec<_>>(),
            ba.intersection(&bb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            ra.minus(&rb).iter().map(|r| r.raw()).collect::<Vec<_>>(),
            ba.difference(&bb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(ra.intersects(&rb), !ba.is_disjoint(&bb));
        prop_assert_eq!(ra.is_subset(&rb), ba.is_subset(&bb));
        prop_assert_eq!(ra.first().map(|r| r.raw()), ba.first().copied());
    }

    #[test]
    fn roleset_equality_is_semantic(a in arb_ids()) {
        // Building the same set in different insertion orders, or with
        // removed high bits, yields equal values with equal hashes.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash_of(s: &RoleSet) -> u64 {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        }
        let fwd = to_roleset(&a);
        let mut rev: RoleSet = a.iter().rev().map(|&i| RoleId(i)).collect();
        rev.insert(RoleId(400));
        rev.remove(RoleId(400));
        prop_assert_eq!(&fwd, &rev);
        prop_assert_eq!(hash_of(&fwd), hash_of(&rev));
    }

    #[test]
    fn policy_union_is_monotone(a in arb_ids(), b in arb_ids(), probe in arb_ids()) {
        let pa = Policy::tuple_level(to_roleset(&a), Timestamp(1));
        let pb = Policy::tuple_level(to_roleset(&b), Timestamp(1));
        let u = pa.union(&pb);
        let probe = to_roleset(&probe);
        // union grants at least what either granted
        prop_assert!(!pa.allows(&probe) || u.allows(&probe));
        prop_assert!(!pb.allows(&probe) || u.allows(&probe));
        // and nothing more than their sum
        prop_assert_eq!(u.allows(&probe), pa.allows(&probe) || pb.allows(&probe));
    }

    #[test]
    fn policy_intersect_never_broadens(a in arb_ids(), b in arb_ids(), probe in arb_ids()) {
        let pa = Policy::tuple_level(to_roleset(&a), Timestamp(1));
        let pb = Policy::tuple_level(to_roleset(&b), Timestamp(1));
        let c = pa.intersect(&pb);
        let probe = to_roleset(&probe);
        prop_assert!(!c.allows(&probe) || pa.allows(&probe));
        // For pure tuple-level policies intersection is exact.
        prop_assert_eq!(
            c.allows(&probe),
            to_btree(&a).intersection(&to_btree(&b)).any(|r| probe.contains(RoleId(*r)))
        );
    }

    #[test]
    fn punctuation_wire_round_trip(
        roles in arb_ids(),
        lo in 0u64..1000,
        span in 0u64..1000,
        ts in 0u64..u64::MAX,
        negative: bool,
        immutable: bool,
    ) {
        let mut sp = SecurityPunctuation::grant_all(to_roleset(&roles), Timestamp(ts))
            .with_ddp(DataDescription::tuple_range(lo, lo + span));
        if negative {
            sp = sp.negative();
        }
        if immutable {
            sp = sp.immutable();
        }
        let mut buf = Vec::new();
        sp.encode(&mut buf);
        let decoded = SecurityPunctuation::decode(&mut buf.as_slice(), &mut PatternTable::new()).unwrap();
        prop_assert_eq!(decoded, sp);
    }

    /// Batch combination is insensitive to the order of same-sign sps.
    #[test]
    fn batch_combination_is_order_insensitive(
        sets in prop::collection::vec(arb_ids(), 1..5),
        probe in arb_ids(),
    ) {
        let catalog = RoleCatalog::new();
        let schema = Schema::of("s", &[("a", ValueType::Int)]);
        let batch: Vec<_> = sets
            .iter()
            .map(|ids| Arc::new(SecurityPunctuation::grant_all(to_roleset(ids), Timestamp(1))))
            .collect();
        let mut reversed = batch.clone();
        reversed.reverse();
        // `combine_batch` became `BatchPolicy::resolve`; an unscoped batch
        // resolves to one uniform policy, which is what is compared.
        let b1 = BatchPolicy::resolve(&batch, None, &catalog, &schema);
        let b2 = BatchPolicy::resolve(&reversed, None, &catalog, &schema);
        prop_assert_eq!(&b1, &b2);
        let p1 = b1.as_uniform().unwrap();
        let probe = to_roleset(&probe);
        let expect = sets.iter().any(|ids| to_roleset(ids).intersects(&probe));
        prop_assert_eq!(p1.allows(&probe), expect);
    }
}
