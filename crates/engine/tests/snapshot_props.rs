//! Property tests for the checkpoint subsystem: snapshot → restore must be
//! an exact state round-trip for every operator, the SP Analyzer (with a
//! non-empty quarantine) and the reorder buffer.
//!
//! Two properties per component, over randomized sp/tuple workloads and a
//! random split point:
//!
//! 1. **byte round-trip** — restoring a snapshot into a freshly built
//!    instance and snapshotting again yields byte-identical bytes (the
//!    canonical serialization makes state equality observable as byte
//!    equality);
//! 2. **behavioral continuation** — the restored instance processes the
//!    rest of the workload exactly like the original: same emissions, same
//!    final snapshot. This is the property recovery actually relies on.
//!
//! And one at the trust boundary: restoring any strict prefix or any
//! single-byte flip of a real mid-stream snapshot returns `Ok` or `Err` —
//! a prefix always `Err` — and never panics or aborts.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use proptest::prelude::*;
use sp_core::{
    RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement, StreamId, Timestamp,
    Tuple, TupleId, Value, ValueType,
};
use sp_engine::{
    AggFunc, CmpOp, DupElim, Element, Emitter, Expr, GroupBy, JoinVariant, Operator, OperatorExt,
    Project, QuarantinePolicy, ReorderBuffer, SAIntersect, SAJoin, SecurityShield, Select, Sink,
    SpAnalyzer, Union,
};

fn schema() -> Arc<Schema> {
    Schema::of("s", &[("k", ValueType::Int), ("v", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(8);
    Arc::new(c)
}

/// One raw workload item: an sp-batch grant or a tuple.
#[derive(Debug, Clone)]
enum Item {
    Sp(Vec<u32>),
    Tup(i64, i64),
}

fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(0u32..6, 0..3).prop_map(Item::Sp),
            (0i64..6, 0i64..50).prop_map(|(k, v)| Item::Tup(k, v)),
        ],
        4..40,
    )
}

fn raw_stream(items: &[Item]) -> Vec<StreamElement> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let ts = Timestamp(i as u64 + 1);
            match item {
                Item::Sp(roles) => {
                    let rs: RoleSet = roles.iter().map(|&r| RoleId(r)).collect();
                    StreamElement::punctuation(SecurityPunctuation::grant_all(rs, ts))
                }
                Item::Tup(k, v) => StreamElement::tuple(Tuple::new(
                    StreamId(1),
                    TupleId(i as u64),
                    ts,
                    vec![Value::Int(*k), Value::Int(*v)],
                )),
            }
        })
        .collect()
}

/// Converts raw stream elements to engine elements through an analyzer
/// (resolved segment policies interleaved with tuples), the form every
/// operator consumes.
fn engine_elements(items: &[Item]) -> Vec<Element> {
    let mut analyzer = SpAnalyzer::new(schema(), catalog());
    let mut out = Vec::new();
    let mut staged = Vec::new();
    for raw in raw_stream(items) {
        staged.clear();
        analyzer.push(raw, &mut staged);
        out.append(&mut staged);
    }
    out
}

fn snapshot_of(op: &dyn Operator) -> Vec<u8> {
    let mut buf = Vec::new();
    op.snapshot(&mut buf);
    buf
}

/// Feeds elements (binary operators: alternating ports) and returns the
/// emissions as debug strings.
fn feed(op: &mut dyn Operator, elems: &[Element], arity: usize) -> Vec<String> {
    let mut emitter = Emitter::new();
    let mut out = Vec::new();
    for (i, e) in elems.iter().enumerate() {
        let port = if arity > 1 { i % 2 } else { 0 };
        op.process(port, e.clone(), &mut emitter).unwrap();
        out.extend(emitter.take().iter().map(|e| format!("{e:?}")));
    }
    out
}

/// The two snapshot properties for one operator, checked at `split`.
fn check_operator(mut fresh: impl FnMut() -> Box<dyn Operator>, items: &[Item], split: usize) {
    let elems = engine_elements(items);
    let split = split % (elems.len() + 1);
    let arity = fresh().arity();

    let mut original = fresh();
    feed(original.as_mut(), &elems[..split], arity);
    let snap = snapshot_of(original.as_ref());

    // Property 1: byte round-trip through a fresh instance.
    let mut restored = fresh();
    restored.restore(&snap).unwrap();
    prop_assert_eq!(
        &snapshot_of(restored.as_ref()),
        &snap,
        "restore({}) did not reproduce the snapshot",
        original.name()
    );

    // Property 2: behavioral continuation.
    let out_original = feed(original.as_mut(), &elems[split..], arity);
    let out_restored = feed(restored.as_mut(), &elems[split..], arity);
    prop_assert_eq!(out_original, out_restored, "{} diverged after restore", original.name());
    prop_assert_eq!(
        snapshot_of(original.as_ref()),
        snapshot_of(restored.as_ref()),
        "{} final state diverged after restore",
        original.name()
    );
}

fn select_op() -> Box<dyn Operator> {
    Box::new(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(10)))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn select_roundtrip(items in arb_items(), split in 0usize..64) {
        check_operator(select_op, &items, split);
    }

    #[test]
    fn project_roundtrip(items in arb_items(), split in 0usize..64) {
        check_operator(|| Box::new(Project::new(vec![0])), &items, split);
    }

    #[test]
    fn shield_roundtrip(items in arb_items(), split in 0usize..64) {
        check_operator(|| Box::new(SecurityShield::new(RoleSet::from([1, 3]))), &items, split);
    }

    #[test]
    fn dupelim_roundtrip(items in arb_items(), split in 0usize..64) {
        check_operator(|| Box::new(DupElim::new(vec![0], 10)), &items, split);
    }

    #[test]
    fn groupby_roundtrip(items in arb_items(), split in 0usize..64) {
        for agg in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            check_operator(|| Box::new(GroupBy::new(Some(0), agg, 1, 10)), &items, split);
        }
    }

    #[test]
    fn sink_roundtrip(items in arb_items(), split in 0usize..64) {
        // Sink snapshots are counters-only by design (delivered elements
        // are past the crash boundary), so only the byte round-trip and
        // counter continuation hold — delivered elements are cleared.
        let elems = engine_elements(&items);
        let split = split % (elems.len() + 1);
        let mut original = Sink::new();
        feed(&mut original, &elems[..split], 1);
        let snap = snapshot_of(&original);
        let mut restored = Sink::new();
        Operator::restore(&mut restored, &snap).unwrap();
        prop_assert_eq!(&snapshot_of(&restored), &snap);
        prop_assert_eq!(restored.tuple_count(), 0, "restored sink must not resurrect output");
        feed(&mut original, &elems[split..], 1);
        feed(&mut restored, &elems[split..], 1);
        prop_assert_eq!(snapshot_of(&original), snapshot_of(&restored));
    }

    #[test]
    fn union_roundtrip(items in arb_items(), split in 0usize..64) {
        check_operator(|| Box::new(Union::new()), &items, split);
    }

    #[test]
    fn saintersect_roundtrip(items in arb_items(), split in 0usize..64) {
        check_operator(|| Box::new(SAIntersect::new(10)), &items, split);
    }

    #[test]
    fn sajoin_roundtrip(items in arb_items(), split in 0usize..64) {
        for variant in [JoinVariant::Index, JoinVariant::NestedLoopPF, JoinVariant::NestedLoopFP] {
            check_operator(|| Box::new(SAJoin::new(variant, 10, 0, 0, 2)), &items, split);
        }
    }

    #[test]
    fn analyzer_roundtrip(items in arb_items(), split in 0usize..64, jump in 0u64..4000) {
        // `jump` pushes some tuples past the policy TTL so hardened runs
        // quarantine them — the snapshot must carry the quarantine queue.
        let qp = QuarantinePolicy { ttl_ms: 100, slack_ms: 2_000, capacity: 64 };
        let mut raw = raw_stream(&items);
        for (i, e) in raw.iter_mut().enumerate() {
            if i % 3 == 0 {
                if let StreamElement::Tuple(t) = e {
                    *e = StreamElement::tuple(Tuple::new(
                        t.sid,
                        t.tid,
                        Timestamp(t.ts.0 + jump),
                        t.values().to_vec(),
                    ));
                }
            }
        }
        let split = split % (raw.len() + 1);

        let mut original = SpAnalyzer::new(schema(), catalog());
        original.harden(qp);
        let mut staged = Vec::new();
        for e in &raw[..split] {
            original.push(e.clone(), &mut staged);
        }
        let mut snap = Vec::new();
        original.snapshot(&mut snap);

        let mut restored = SpAnalyzer::new(schema(), catalog());
        restored.harden(qp);
        restored.restore(&snap).unwrap();
        let mut snap2 = Vec::new();
        restored.snapshot(&mut snap2);
        prop_assert_eq!(&snap2, &snap, "analyzer restore did not reproduce the snapshot");

        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for e in &raw[split..] {
            original.push(e.clone(), &mut out_a);
            restored.push(e.clone(), &mut out_b);
        }
        prop_assert_eq!(
            out_a.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>(),
            out_b.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>()
        );
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        original.snapshot(&mut fa);
        restored.snapshot(&mut fb);
        prop_assert_eq!(fa, fb, "analyzer state diverged after restore");
    }

    #[test]
    fn reorder_roundtrip(items in arb_items(), split in 0usize..64, scramble in 0u64..7) {
        let mut raw = raw_stream(&items);
        // Scramble timestamps so the buffer holds pending elements.
        for (i, e) in raw.iter_mut().enumerate() {
            if let StreamElement::Tuple(t) = e {
                let ts = Timestamp(t.ts.0.saturating_sub((i as u64 * scramble) % 5));
                *e = StreamElement::tuple(Tuple::new(t.sid, t.tid, ts, t.values().to_vec()));
            }
        }
        let split = split % (raw.len() + 1);

        let mut original = ReorderBuffer::new(4);
        let mut out = Vec::new();
        for e in &raw[..split] {
            original.push(e.clone(), &mut out);
        }
        let mut snap = Vec::new();
        original.snapshot(&mut snap);

        let mut restored = ReorderBuffer::new(4);
        restored.restore(&snap).unwrap();
        let mut snap2 = Vec::new();
        restored.snapshot(&mut snap2);
        prop_assert_eq!(&snap2, &snap, "reorder restore did not reproduce the snapshot");

        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for e in &raw[split..] {
            original.push(e.clone(), &mut out_a);
            restored.push(e.clone(), &mut out_b);
        }
        original.flush(&mut out_a);
        restored.flush(&mut out_b);
        prop_assert_eq!(
            out_a.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>(),
            out_b.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>()
        );
    }
}

/// Deterministic witness that the quarantine round-trip is exercised: a
/// hardened analyzer with tuples waiting for their sp-batch must carry
/// them across snapshot/restore and settle them identically.
#[test]
fn analyzer_restores_non_empty_quarantine() {
    let qp = QuarantinePolicy { ttl_ms: 10, slack_ms: 10_000, capacity: 64 };
    let mut a = SpAnalyzer::new(schema(), catalog());
    a.harden(qp);
    let mut staged = Vec::new();
    a.push(
        StreamElement::punctuation(SecurityPunctuation::grant_all(
            RoleSet::from([1]),
            Timestamp(0),
        )),
        &mut staged,
    );
    // Far beyond ttl: quarantined, not covered.
    for tid in 1..=3u64 {
        a.push(
            StreamElement::tuple(Tuple::new(
                StreamId(1),
                TupleId(tid),
                Timestamp(5_000 + tid),
                vec![Value::Int(tid as i64), Value::Int(0)],
            )),
            &mut staged,
        );
    }
    assert_eq!(a.degradation().quarantined, 3, "setup must quarantine");

    let mut snap = Vec::new();
    a.snapshot(&mut snap);
    let mut b = SpAnalyzer::new(schema(), catalog());
    b.harden(qp);
    b.restore(&snap).unwrap();

    // A fresh sp covering the quarantined region settles both the same way.
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    let sp = SecurityPunctuation::grant_all(RoleSet::from([2]), Timestamp(5_000));
    a.push(StreamElement::punctuation(sp.clone()), &mut out_a);
    b.push(StreamElement::punctuation(sp), &mut out_b);
    // Batches resolve lazily; force resolution so settlement runs now.
    a.flush(&mut out_a);
    b.flush(&mut out_b);
    assert_eq!(
        out_a.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>(),
        out_b.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>()
    );
    assert_eq!(a.degradation().quarantine_released, b.degradation().quarantine_released);
    assert!(
        a.degradation().quarantine_released + a.degradation().quarantine_dropped > 0,
        "settlement must consume the quarantine"
    );
}

/// Restores every strict prefix and every single-byte flip (all bits, and
/// the low bit) of `snap` into a fresh instance via `restore`: each must
/// return rather than panic or abort, and no prefix may restore.
fn check_tampering(name: &str, snap: &[u8], mut restore: impl FnMut(&[u8]) -> bool) {
    assert!(restore(snap), "{name}: the untampered snapshot restores");
    for cut in 0..snap.len() {
        assert!(!restore(&snap[..cut]), "{name}: a {cut}-byte prefix restored");
    }
    let mut bytes = snap.to_vec();
    for at in 0..snap.len() {
        for mask in [0xFF, 0x01] {
            bytes[at] ^= mask;
            restore(&bytes);
            bytes[at] ^= mask;
        }
    }
}

/// A seeded mixed workload: grants (some deny-all) and tuples.
fn seeded_items(seed: u64) -> Vec<Item> {
    let mut rng = sp_core::SplitMix64::new(seed);
    (0..48)
        .map(|_| {
            let mut draw = |n: u64| rng.next_u64() % n;
            if draw(3) == 0 {
                Item::Sp((0..draw(3)).map(|_| draw(6) as u32).collect())
            } else {
                Item::Tup(draw(6) as i64, draw(50) as i64)
            }
        })
        .collect()
}

#[test]
fn tampered_snapshots_fail_closed() {
    type Fresh = Box<dyn Fn() -> Box<dyn Operator>>;
    let mut operators: Vec<Fresh> = vec![
        Box::new(select_op),
        Box::new(|| Box::new(Project::new(vec![0]))),
        Box::new(|| Box::new(SecurityShield::new(RoleSet::from([1, 3])))),
        Box::new(|| Box::new(DupElim::new(vec![0], 10))),
        Box::new(|| Box::new(Sink::new())),
        Box::new(|| Box::new(Union::new())),
        Box::new(|| Box::new(SAIntersect::new(10))),
    ];
    for agg in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
        operators.push(Box::new(move || Box::new(GroupBy::new(Some(0), agg, 1, 10))));
    }
    for variant in [JoinVariant::Index, JoinVariant::NestedLoopPF, JoinVariant::NestedLoopFP] {
        operators.push(Box::new(move || Box::new(SAJoin::new(variant, 10, 0, 0, 2))));
    }
    for seed in 0..3 {
        let items = seeded_items(seed);
        let elems = engine_elements(&items);
        for fresh in &operators {
            let mut op = fresh();
            let arity = op.arity();
            feed(op.as_mut(), &elems[..elems.len() * 2 / 3], arity);
            let snap = snapshot_of(op.as_ref());
            check_tampering(op.name(), &snap, |bytes| fresh().restore(bytes).is_ok());
        }

        let qp = QuarantinePolicy { ttl_ms: 100, slack_ms: 2_000, capacity: 64 };
        let hardened = || {
            let mut a = SpAnalyzer::new(schema(), catalog());
            a.harden(qp);
            a
        };
        let mut analyzer = hardened();
        let mut raw = raw_stream(&items);
        for (i, e) in raw.iter_mut().enumerate() {
            if let StreamElement::Tuple(t) = e {
                // Every third tuple jumps past the policy TTL (quarantine);
                // every fifth arrives late (reorder pending set).
                let ts = match i % 15 {
                    0 | 3 | 6 | 9 | 12 => t.ts.0 + 1_000,
                    5 | 10 => t.ts.0.saturating_sub(3),
                    _ => t.ts.0,
                };
                *e = StreamElement::tuple(Tuple::new(
                    t.sid,
                    t.tid,
                    Timestamp(ts),
                    t.values().to_vec(),
                ));
            }
        }
        let mut staged = Vec::new();
        for e in &raw[..raw.len() * 2 / 3] {
            analyzer.push(e.clone(), &mut staged);
        }
        let mut snap = Vec::new();
        analyzer.snapshot(&mut snap);
        check_tampering("analyzer", &snap, |bytes| hardened().restore(bytes).is_ok());

        let mut reorder = ReorderBuffer::new(4);
        for e in &raw[..raw.len() * 2 / 3] {
            reorder.push(e.clone(), &mut Vec::new());
        }
        let mut snap = Vec::new();
        reorder.snapshot(&mut snap);
        check_tampering("reorder", &snap, |bytes| ReorderBuffer::new(4).restore(bytes).is_ok());
    }
}
