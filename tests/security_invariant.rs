//! The framework's core security property, tested end-to-end: **no tuple
//! is ever released to a query whose roles do not intersect the policy
//! governing that tuple** (denial-by-default included), across random
//! punctuated streams — and all four enforcement mechanisms, and a planned
//! `Dsms` session, release *exactly* the same tuples.
//!
//! The only contract the generated streams keep is the sp model's own
//! (§III-A): a punctuation precedes the tuples it governs and timestamps
//! increase. A batch holds one to three sps of either sign over
//! overlapping, disjoint or absent tuple ranges, and tuples fall inside
//! and outside every announced scope.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use sp_baselines::{
    run_mechanism, CryptoEnforced, EnforcementMechanism, SpMechanism, StoreAndProbe, TupleEmbedded,
};
use sp_core::{
    DataDescription, RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement,
    StreamId, Timestamp, Tuple, TupleId, Value, ValueType,
};
use sp_pattern::Pattern;

fn schema() -> Arc<Schema> {
    Schema::of("s", &[("id", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(16);
    Arc::new(c)
}

/// One generated punctuation.
#[derive(Debug, Clone)]
struct Sp {
    roles: Vec<u32>,
    /// Inclusive id scope; `None` covers every id.
    scope: Option<(u64, u64)>,
    negative: bool,
}

impl Sp {
    fn grant(roles: &[u32], scope: Option<(u64, u64)>) -> Self {
        Sp { roles: roles.to_vec(), scope, negative: false }
    }

    fn deny(roles: &[u32], scope: Option<(u64, u64)>) -> Self {
        Sp { negative: true, ..Sp::grant(roles, scope) }
    }

    fn matches(&self, tid: u64) -> bool {
        self.scope.is_none_or(|(lo, hi)| (lo..=hi).contains(&tid))
    }
}

/// One generated segment: an sp-batch followed by the tuples it governs.
#[derive(Debug, Clone)]
struct Segment {
    sps: Vec<Sp>,
    tuples: Vec<u64>,
}

fn arb_segments() -> impl Strategy<Value = Vec<Segment>> {
    let sp = (
        prop::collection::vec(0u32..8, 0..3),
        prop::option::of((0u64..15, 0u64..6)),
        prop::bool::ANY,
    )
        .prop_map(|(roles, scope, negative)| Sp {
            roles,
            scope: scope.map(|(lo, span)| (lo, lo + span)),
            negative,
        });
    let segment = (prop::collection::vec(sp, 1..4), prop::collection::vec(0u64..24, 0..5))
        .prop_map(|(sps, tuples)| Segment { sps, tuples });
    prop::collection::vec(segment, 1..12)
}

/// Renders segments into a punctuated stream: the sps of a batch share a
/// timestamp, and timestamps increase from batch to tuple to batch.
fn render(segments: &[Segment]) -> Vec<StreamElement> {
    let mut out = Vec::new();
    let mut ts = 0u64;
    for seg in segments {
        ts += 1;
        for sp in &seg.sps {
            let set: RoleSet = sp.roles.iter().map(|&r| RoleId(r)).collect();
            let mut p = SecurityPunctuation::grant_all(set, Timestamp(ts));
            if let Some((lo, hi)) = sp.scope {
                p = p.with_ddp(DataDescription {
                    tuple: Pattern::numeric_range(lo, hi),
                    ..DataDescription::everything()
                });
            }
            if sp.negative {
                p = p.negative();
            }
            out.push(StreamElement::punctuation(p));
        }
        for &tid in &seg.tuples {
            ts += 1;
            out.push(StreamElement::tuple(Tuple::new(
                StreamId(1),
                TupleId(tid),
                Timestamp(ts),
                vec![Value::Int(tid as i64)],
            )));
        }
    }
    out
}

/// Reference model, deliberately naive and independent of `sp-core`'s
/// resolution: a tuple is governed by the sps of the batch before it that
/// match its id; it is released iff some query role is granted by a
/// matching positive sp and denied by no matching negative one. Earlier
/// batches say nothing; no match means denial.
fn reference_released(segments: &[Segment], query: &[u32]) -> Vec<u64> {
    let mut released = Vec::new();
    for seg in segments {
        for &tid in &seg.tuples {
            let roles_of = |negative: bool| -> BTreeSet<u32> {
                seg.sps
                    .iter()
                    .filter(|sp| sp.negative == negative && sp.matches(tid))
                    .flat_map(|sp| sp.roles.iter().copied())
                    .collect()
            };
            let (granted, denied) = (roles_of(false), roles_of(true));
            if query.iter().any(|r| granted.contains(r) && !denied.contains(r)) {
                released.push(tid);
            }
        }
    }
    released
}

/// What each of the four mechanisms releases for `query` on `elements`.
fn released_by_mechanisms(
    elements: &[StreamElement],
    query: &[u32],
) -> Vec<(&'static str, Vec<u64>)> {
    let roles: RoleSet = query.iter().map(|&r| RoleId(r)).collect();
    let mechanisms: [Box<dyn EnforcementMechanism>; 4] = [
        Box::new(SpMechanism::new(catalog(), schema(), roles.clone(), 64)),
        Box::new(StoreAndProbe::new(catalog(), schema(), roles.clone(), 64)),
        Box::new(TupleEmbedded::new(catalog(), schema(), roles.clone(), 64)),
        // provider → relay → client
        Box::new(CryptoEnforced::new(catalog(), schema(), roles, 64)),
    ];
    mechanisms
        .into_iter()
        .map(|mut mech| {
            let out = run_mechanism(mech.as_mut(), elements.iter().cloned());
            (mech.name(), out.iter().map(|t| t.tid.raw()).collect())
        })
        .collect()
}

/// What a parsed, planned and optimized `SELECT id FROM s` releases to a
/// subject holding `role`.
fn released_by_session(elements: &[StreamElement], role: u32) -> Vec<u64> {
    let mut dsms = sp_query::Dsms::new();
    dsms.register_stream(StreamId(1), schema()).unwrap();
    for i in 0..16 {
        dsms.register_role(&format!("r{i}")).unwrap();
    }
    let subject = dsms.register_subject("probe", &[&format!("r{role}")]).unwrap();
    let q = dsms.submit("SELECT id FROM s", subject).unwrap();
    let mut running = dsms.start();
    for e in elements {
        running.push(StreamId(1), e.clone());
    }
    running.results(q).tuples().map(|t| t.tid.raw()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// All four mechanisms agree with each other AND with the reference
    /// model.
    #[test]
    fn mechanisms_release_exactly_the_authorized_tuples(
        segments in arb_segments(),
        query in prop::collection::vec(0u32..8, 1..3),
    ) {
        let expected = reference_released(&segments, &query);
        for (name, released) in released_by_mechanisms(&render(&segments), &query) {
            prop_assert_eq!(&released, &expected, "{} vs reference", name);
        }
    }

    /// Full-plan invariant: through the query layer's parsed, planned and
    /// optimized pipelines, a query never receives a tuple its roles were
    /// not authorized for.
    #[test]
    fn engine_plans_never_leak(
        segments in arb_segments(),
        query_role in 0u32..8,
    ) {
        let released = released_by_session(&render(&segments), query_role);
        prop_assert_eq!(released, reference_released(&segments, &[query_role]));
    }
}

/// Asserts one regression stream on the reference, all four mechanisms
/// and a planned session, for a query holding `role`.
fn assert_released_everywhere(segments: &[Segment], role: u32, expected: &[u64]) {
    assert_eq!(reference_released(segments, &[role]), expected, "reference");
    let elements = render(segments);
    for (name, released) in released_by_mechanisms(&elements, &[role]) {
        assert_eq!(released, expected, "{name}");
    }
    assert_eq!(released_by_session(&elements, role), expected, "Dsms session");
}

/// S1: a grant and a revocation of the same roles in one batch. The denial
/// wins whichever comes first (store-and-probe and tuple-embedded used to
/// union per-sp policies and release the tuple).
#[test]
fn s1_denial_wins_within_a_batch_in_either_order() {
    let (grant, deny) = (Sp::grant(&[0, 2], None), Sp::deny(&[0, 2], None));
    for sps in [vec![grant.clone(), deny.clone()], vec![deny, grant]] {
        assert_released_everywhere(&[Segment { sps, tuples: vec![4] }], 0, &[]);
    }
}

/// S2: a revocation scoped to part of what a grant of the same batch
/// covers. The denial wins for the tuples it matches, not only inside its
/// own scope group (every mechanism and the session used to release 7).
#[test]
fn s2_denial_wins_per_tuple_across_scopes() {
    let sps = vec![Sp::grant(&[0], None), Sp::deny(&[0], Some((6, 9)))];
    assert_released_everywhere(&[Segment { sps, tuples: vec![4, 7] }], 0, &[4]);
}

/// S3: a newer batch overrides the older one wholesale, also on the ids
/// only the older one named (store-and-probe used to keep its row).
#[test]
fn s3_newer_batch_overrides_wholesale() {
    let segments = [
        Segment { sps: vec![Sp::grant(&[0], Some((6, 9)))], tuples: vec![] },
        Segment { sps: vec![Sp::grant(&[1], Some((0, 2)))], tuples: vec![7] },
    ];
    assert_released_everywhere(&segments, 0, &[]);
}

/// Deterministic regression: override + scoped + negative interplay.
#[test]
fn scoped_negative_and_override_sequence() {
    let segments = [
        Segment { sps: vec![Sp::grant(&[], None)], tuples: vec![1] },
        Segment { sps: vec![Sp::grant(&[1], None)], tuples: vec![2] },
        Segment { sps: vec![Sp::grant(&[1], Some((10, 20)))], tuples: vec![15] },
        Segment { sps: vec![Sp::grant(&[2], None)], tuples: vec![3] },
        Segment { sps: vec![Sp::deny(&[1], None)], tuples: vec![4] },
    ];
    assert_released_everywhere(&segments, 1, &[2, 15]);
}
