//! A tampered element count in a snapshot is refused, never allocated.
//!
//! Every count field of every component's snapshot — the windows, value
//! tables, aggregate subgroups and their multisets, join segments and
//! their tuples, the analyzer's batch and quarantine, the reorder
//! buffer's pending set — is patched to `u32::MAX` (a `u16` key arity to
//! `u16::MAX`) and restored into a fresh instance. Each must fail closed
//! with `CheckpointCorrupt`. A decoder that sized an allocation from the
//! count before checking it against the bytes left would instead abort
//! the process, which no `catch_unwind` can contain.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use sp_core::{
    Policy, RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement, StreamId,
    Timestamp, Tuple, TupleId, Value, ValueType,
};
use sp_engine::checkpoint::encode_opt_segment;
use sp_engine::{
    AggFunc, DupElim, Element, EngineError, GroupBy, JoinVariant, Operator, OperatorExt,
    ReorderBuffer, SAIntersect, SAJoin, SegmentPolicy, SpAnalyzer,
};

/// Bytes of the operator counters that open every operator snapshot.
const COUNTERS: usize = 5 * 8;

fn tuple(tid: u64, v: i64) -> Tuple {
    Tuple::new(StreamId(0), TupleId(tid), Timestamp(tid), vec![Value::Int(v)])
}

fn grant() -> Policy {
    Policy::tuple_level(RoleSet::from([1]), Timestamp(0))
}

fn grant_seg() -> Arc<SegmentPolicy> {
    Arc::new(SegmentPolicy::uniform(grant()))
}

/// Length of one `(tuple, policy)` window entry for `tuple(tid, v)` under
/// [`grant`].
fn entry_len(tid: u64, v: i64) -> usize {
    let mut buf = Vec::new();
    sp_core::wire::encode_tuple(&tuple(tid, v), &mut buf);
    grant().encode(&mut buf);
    buf.len()
}

/// `op` after a grant and then `tuples` on port 0.
fn fed<O: Operator>(mut op: O, tuples: &[(u64, i64)]) -> O {
    let mut out = sp_engine::Emitter::new();
    op.process(0, Element::Policy(grant_seg()), &mut out).unwrap();
    for &(tid, v) in tuples {
        op.process(0, Element::tuple(tuple(tid, v)), &mut out).unwrap();
    }
    op
}

fn snapshot(op: &dyn Operator) -> Vec<u8> {
    let mut buf = Vec::new();
    op.snapshot(&mut buf);
    buf
}

/// `snap` with the `width`-byte count at `at` set to all ones.
fn patched(snap: &[u8], at: usize, width: usize) -> Vec<u8> {
    let mut bytes = snap.to_vec();
    bytes[at..at + width].fill(0xFF);
    bytes
}

fn assert_refused(what: &str, result: Result<(), EngineError>) {
    assert!(
        matches!(result, Err(EngineError::CheckpointCorrupt { .. })),
        "{what}: a count of u32::MAX must be refused, got {result:?}"
    );
}

/// Patches each `(offset, width)` of `snap` and restores it into `fresh()`.
fn check_operator(
    name: &str,
    snap: &[u8],
    counts: &[(usize, usize)],
    fresh: impl Fn() -> Box<dyn Operator>,
) {
    fresh().restore(snap).expect("the unpatched snapshot restores");
    for &(at, width) in counts {
        assert!(snap[at..at + width - 1].iter().all(|&b| b == 0), "{name} @{at} is not a count");
        assert_refused(&format!("{name} @{at}"), fresh().restore(&patched(snap, at, width)));
    }
}

#[test]
fn dupelim_counts_are_bounded() {
    let fresh = || Box::new(DupElim::new(vec![0], 100)) as Box<dyn Operator>;
    // [counters][u32 window][u32 values][segment][policy]
    check_operator(
        "dupelim",
        &snapshot(fresh().as_ref()),
        &[(COUNTERS, 4), (COUNTERS + 4, 4)],
        fresh,
    );
    // One value: [counters][u32 1][entry][u32 1][u16 key arity]…
    let one = snapshot(&fed(DupElim::new(vec![0], 100), &[(1, 5)]));
    let arity = COUNTERS + 4 + entry_len(1, 5) + 4;
    check_operator("dupelim", &one, &[(COUNTERS, 4), (arity - 4, 4), (arity, 2)], fresh);
}

#[test]
fn groupby_counts_are_bounded() {
    let fresh = || Box::new(GroupBy::new(Some(0), AggFunc::Max, 0, 100)) as Box<dyn Operator>;
    // [counters][u32 window][u32 subgroups][segment][policy]
    check_operator(
        "groupby",
        &snapshot(fresh().as_ref()),
        &[(COUNTERS, 4), (COUNTERS + 4, 4)],
        fresh,
    );
    // One subgroup: …[u32 1][group Int][roles {1}][u64 count][u64 sum][u32 multiset]…
    let one = snapshot(&fed(GroupBy::new(Some(0), AggFunc::Max, 0, 100), &[(1, 5)]));
    let asgs = COUNTERS + 4 + entry_len(1, 5);
    let multiset = asgs + 4 + 9 + (2 + 8) + 8 + 8;
    check_operator("groupby", &one, &[(COUNTERS, 4), (asgs, 4), (multiset, 4)], fresh);
}

#[test]
fn intersect_counts_are_bounded() {
    let fresh = || Box::new(SAIntersect::new(100)) as Box<dyn Operator>;
    // [counters][u32 left window][u32 right window][segment ×2][policy]
    check_operator(
        "intersect",
        &snapshot(fresh().as_ref()),
        &[(COUNTERS, 4), (COUNTERS + 4, 4)],
        fresh,
    );
}

#[test]
fn sajoin_counts_are_bounded() {
    for variant in [JoinVariant::NestedLoopPF, JoinVariant::NestedLoopFP, JoinVariant::Index] {
        let fresh = move || Box::new(SAJoin::new(variant, 100, 0, 0, 1)) as Box<dyn Operator>;
        // [counters]([u64 next id][u32 segments]…)×2[policy]
        let left = COUNTERS + 8;
        let right = left + 4 + 8;
        check_operator("sajoin", &snapshot(fresh().as_ref()), &[(left, 4), (right, 4)], fresh);
        // One left segment: …[u32 1][u64 id][segment][u32 tuples]…
        let mut seg = Vec::new();
        encode_opt_segment(Some(&grant_seg()), &mut seg);
        let one = snapshot(&fed(SAJoin::new(variant, 100, 0, 0, 1), &[(1, 5)]));
        let tuples = left + 4 + 8 + seg.len();
        check_operator("sajoin", &one, &[(left, 4), (tuples, 4)], fresh);
    }
}

fn analyzer() -> SpAnalyzer {
    let mut catalog = RoleCatalog::new();
    catalog.register_synthetic_roles(4);
    SpAnalyzer::new(Schema::of("s", &[("v", ValueType::Int)]), Arc::new(catalog))
}

#[test]
fn analyzer_counts_are_bounded() {
    let mut snap = Vec::new();
    analyzer().snapshot(&mut snap);
    // [u32 batch][segment presence][ts flag][u64 clock][u32 quarantine][counters]
    for at in [0, 4 + 1 + 1 + 8] {
        assert_refused(&format!("analyzer @{at}"), analyzer().restore(&patched(&snap, at, 4)));
    }
    // A pending batch of one sp: the batch count leads.
    let mut a = analyzer();
    let sp = SecurityPunctuation::grant_all(RoleSet::single(RoleId(1)), Timestamp(3));
    a.push(StreamElement::punctuation(sp), &mut Vec::new());
    let mut snap = Vec::new();
    a.snapshot(&mut snap);
    analyzer().restore(&snap).unwrap();
    assert_refused("analyzer batch", analyzer().restore(&patched(&snap, 0, 4)));
}

#[test]
fn reorder_counts_are_bounded() {
    let mut buffer = ReorderBuffer::new(10);
    buffer.push(StreamElement::tuple(tuple(7, 1)), &mut Vec::new());
    let mut snap = Vec::new();
    buffer.snapshot(&mut snap);
    ReorderBuffer::new(10).restore(&snap).unwrap();
    // [u32 pending]…
    assert_refused("reorder", ReorderBuffer::new(10).restore(&patched(&snap, 0, 4)));
}
