//! Property tests for the core data model.
//!
//! * `RoleSet` bitmap algebra is checked against `BTreeSet<u32>` semantics,
//!   also with ids biased to the bitmap's word and inline/heap boundaries,
//!   and its encoding against a plain `Vec<u64>` encoder.
//! * `Policy` combination laws (union/intersect monotonicity, override) are
//!   checked on random role sets.
//! * Punctuation wire encoding round-trips, `*` in any DDP slot included,
//!   and `*` is one pattern however it is made.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use sp_core::{
    BatchPolicy, DataDescription, Message, PatternTable, Policy, RoleCatalog, RoleId, RoleSet,
    RoleSpec, Schema, SecurityPunctuation, SecurityRestriction, StreamElement, StreamId, Timestamp,
    ValueType, MAX_WIRE_ROLE_ID,
};
use sp_pattern::Pattern;

fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..320, 0..24)
}

fn to_roleset(ids: &[u32]) -> RoleSet {
    ids.iter().map(|&i| RoleId(i)).collect()
}

fn to_btree(ids: &[u32]) -> BTreeSet<u32> {
    ids.iter().copied().collect()
}

/// Role ids biased to where the bitmap changes shape: the end of its
/// first word (62–66), the end of the inline words (126–130), and anywhere
/// up to the wire ceiling, which spills to the heap.
fn arb_boundary_ids() -> impl Strategy<Value = Vec<u32>> {
    let id = prop_oneof![0u32..62, 62u32..=66, 126u32..=130, 0u32..=MAX_WIRE_ROLE_ID];
    prop::collection::vec(id, 0..10)
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn ids_of(set: &RoleSet) -> Vec<u32> {
    set.iter().map(|r| r.raw()).collect()
}

/// `RoleSet::encode` as a plain `Vec<u64>` bitmap would write it:
/// `[u16 word count][u64 words…]` up to the last non-zero word.
fn reference_encoding<'a>(ids: impl IntoIterator<Item = &'a u32>) -> Vec<u8> {
    let mut words: Vec<u64> = Vec::new();
    for &id in ids {
        let w = id as usize / 64;
        if w >= words.len() {
            words.resize(w + 1, 0);
        }
        words[w] |= 1 << (id % 64);
    }
    let mut out = (words.len() as u16).to_be_bytes().to_vec();
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out
}

fn encoding(set: &RoleSet) -> Vec<u8> {
    let mut buf = Vec::new();
    set.encode(&mut buf);
    buf
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
        let fwd = to_roleset(&a);
        let mut rev: RoleSet = a.iter().rev().map(|&i| RoleId(i)).collect();
        rev.insert(RoleId(400));
        rev.remove(RoleId(400));
        prop_assert_eq!(&fwd, &rev);
        prop_assert_eq!(hash_of(&fwd), hash_of(&rev));
    }

    #[test]
    fn roleset_matches_btreeset_at_word_boundaries(
        a in arb_boundary_ids(),
        b in arb_boundary_ids(),
    ) {
        let (ra, rb) = (to_roleset(&a), to_roleset(&b));
        let (ba, bb) = (to_btree(&a), to_btree(&b));

        prop_assert_eq!(ids_of(&ra), ba.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(ra.len(), ba.len());
        prop_assert_eq!(ra.is_empty(), ba.is_empty());
        for id in a.iter().chain(&b).flat_map(|&id| [id.saturating_sub(1), id, id + 1]) {
            prop_assert_eq!(ra.contains(RoleId(id)), ba.contains(&id), "contains {}", id);
        }
        let union: BTreeSet<u32> = ba.union(&bb).copied().collect();
        let inter: BTreeSet<u32> = ba.intersection(&bb).copied().collect();
        let minus: BTreeSet<u32> = ba.difference(&bb).copied().collect();
        let (mut u, mut i, mut m) = (ra.clone(), ra.clone(), ra.clone());
        u.union_with(&rb);
        i.intersect_with(&rb);
        m.minus_with(&rb);
        for (set, owned, want) in
            [(&u, ra.union(&rb), &union), (&i, ra.intersect(&rb), &inter), (&m, ra.minus(&rb), &minus)]
        {
            prop_assert_eq!(set, &owned);
            prop_assert_eq!(ids_of(set), want.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(encoding(set), reference_encoding(want));
            prop_assert_eq!(&RoleSet::decode(&mut encoding(set).as_slice()).unwrap(), set);
        }
        prop_assert_eq!(encoding(&ra), reference_encoding(&ba));
        prop_assert_eq!(ra.intersects(&rb), !inter.is_empty());
        prop_assert_eq!(ra.is_subset(&rb), ba.is_subset(&bb));
        prop_assert_eq!(ra.first_common(&rb).map(|r| r.raw()), inter.first().copied());
        prop_assert_eq!(ra.first().map(|r| r.raw()), ba.first().copied());
        prop_assert_eq!(ra == rb, ba == bb);
    }

    #[test]
    fn inline_and_spilled_sets_are_one_set(
        ids in prop::collection::vec(0u32..128, 0..10),
        high in 128u32..=MAX_WIRE_ROLE_ID,
    ) {
        let inline = to_roleset(&ids);
        let mut spilled = inline.clone();
        spilled.insert(RoleId(high));
        spilled.remove(RoleId(high));
        // Spilled, with trailing zero words on the heap: still the set.
        prop_assert_eq!(&spilled, &inline);
        prop_assert_eq!(hash_of(&spilled), hash_of(&inline));
        prop_assert_eq!(encoding(&spilled), encoding(&inline));
        prop_assert!(spilled.mem_bytes() > inline.mem_bytes());
        spilled.shrink();
        prop_assert_eq!(&spilled, &inline);
        prop_assert_eq!(hash_of(&spilled), hash_of(&inline));
        prop_assert_eq!(spilled.mem_bytes(), inline.mem_bytes(), "shrunk back inline");
    }

    #[test]
    fn room_reserved_ahead_changes_nothing(ids in arb_boundary_ids(), max in arb_boundary_ids()) {
        for &max in max.iter().chain(ids.iter().max()) {
            let mut roomy = RoleSet::with_room_for(RoleId(max));
            prop_assert!(roomy.is_empty());
            prop_assert_eq!(&roomy, &RoleSet::new());
            for &id in &ids {
                roomy.insert(RoleId(id));
            }
            let plain = to_roleset(&ids);
            prop_assert_eq!(&roomy, &plain);
            prop_assert_eq!(hash_of(&roomy), hash_of(&plain));
            prop_assert_eq!(ids_of(&roomy), ids_of(&plain));
            prop_assert_eq!(encoding(&roomy), encoding(&plain));
        }
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
        // Which slots carry `*`: stream, tuple, attributes, roles.
        star in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let pick = |all: bool, other: Pattern| if all { Pattern::match_all() } else { other };
        let ddp = DataDescription {
            stream: pick(star.0, Pattern::literal("HeartRate")),
            tuple: pick(star.1, Pattern::numeric_range(lo, lo + span)),
            attrs: pick(star.2, Pattern::compile("Beats_per_min|Temperature").unwrap()),
        };
        let mut sp = SecurityPunctuation::grant_all(to_roleset(&roles), Timestamp(ts)).with_ddp(ddp);
        if star.3 {
            sp.srp = SecurityRestriction::role_pattern(Pattern::match_all());
        }
        if negative {
            sp = sp.negative();
        }
        if immutable {
            sp = sp.immutable();
        }
        let mut buf = Vec::new();
        sp.encode(&mut buf);
        let mut table = PatternTable::new();
        for _ in 0..2 {
            // Cold table, then warm: the same sp and the same bytes.
            let decoded = SecurityPunctuation::decode(&mut buf.as_slice(), &mut table).unwrap();
            prop_assert_eq!(&decoded, &sp);
            let mut again = Vec::new();
            decoded.encode(&mut again);
            prop_assert_eq!(&again, &buf);
        }
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

/// The match-all pattern made every way it can be: directly, compiled,
/// through a connection's pattern table, and through a cold
/// `Message::decode`. All of them are the same pattern.
#[test]
fn match_all_is_one_pattern_however_it_is_made() {
    let sp = SecurityPunctuation::grant_all(RoleSet::from([1, 2]), Timestamp(3));
    let mut bytes = Vec::new();
    sp.encode(&mut bytes);
    let via_table =
        SecurityPunctuation::decode(&mut bytes.as_slice(), &mut PatternTable::new()).unwrap();
    let frame = Message::new(StreamId(1), vec![StreamElement::punctuation(sp)]).encode_to_vec();
    let decoded = Message::decode(&mut frame.as_slice()).unwrap();
    let StreamElement::Punctuation(cold) = &decoded.elements[0] else { panic!("an sp was sent") };

    let made = Pattern::match_all();
    let all = [
        Pattern::match_all(),
        Pattern::compile("*").unwrap(),
        via_table.ddp.stream.clone(),
        via_table.ddp.tuple.clone(),
        via_table.ddp.attrs.clone(),
        cold.ddp.stream.clone(),
        cold.ddp.tuple.clone(),
        cold.ddp.attrs.clone(),
    ];
    for p in &all {
        assert_eq!(p, &made);
        assert_eq!(hash_of(p), hash_of(&made));
        assert_eq!(p.source(), "*");
        assert_eq!(p.to_string(), "*");
        assert!(p.is_match_all());
    }
    assert!(matches!(cold.srp.roles, RoleSpec::Explicit(_)));
}
