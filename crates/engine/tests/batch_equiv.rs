//! Differential properties for batch execution: for every operator and
//! for whole plans, the batched dataflow must be **observationally
//! identical** to tuple-at-a-time execution.
//!
//! Three layers of evidence, over randomized sp/tuple workloads:
//!
//! 1. **operator differential** — feeding a random element stream through
//!    `process` one element at a time versus through `process_batch` at
//!    random cut points (including deliberately *mixed-kind* batches that
//!    the routers never produce) yields the same emissions, the same
//!    snapshot bytes (which embed the logical counters), and the same
//!    audit-trail bytes;
//!    the shield and select are also driven through the lent-run entry
//!    (`process_run`) at the same cuts;
//! 2. **executor differential** — a multi-query plan (nine consumers on
//!    the source edge, two on an operator's) run with batching enabled
//!    (`push_all`: run-major fan-out, lent runs, deferred drains) matches
//!    the same plan run element-at-a-time with batching disabled: same
//!    sink contents, same operator checkpoints, same audit trail;
//! 3. **ingestion-path differential** — `push_all` (deferred drains) and
//!    per-element `push` (eager drains) agree on the same batched plan.
//!
//! The workloads mix uniform grants with sp-batches of range-scoped sps
//! (overlapping ranges, so per-tuple resolution meets one, several and no
//! matching entry) and attribute-scoped grants (so an attribute-
//! granularity shield masks).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use proptest::prelude::*;
use sp_core::{
    DataDescription, RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement,
    StreamId, Timestamp, Tuple, TupleId, Value, ValueType,
};
use sp_engine::{
    AggFunc, CmpOp, DupElim, Element, ElementBatch, Emitter, Expr, Granularity, GroupBy,
    JoinVariant, Operator, OperatorExt, PlanBuilder, Project, SAIntersect, SAJoin, SecurityShield,
    Select, ShedPolicy, Shedder, ShedderConfig, Sink, SinkRef, TelemetryConfig, Union,
};
use sp_pattern::Pattern;

const AUDIT_CAP: usize = 1 << 12;

fn schema() -> Arc<Schema> {
    Schema::of("s", &[("k", ValueType::Int), ("v", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(8);
    Arc::new(c)
}

/// One sp of a scoped sp-batch: the tuple-id range it governs, the roles
/// it grants, and whether it grants them on attribute `v` only.
type ScopedSp = (u64, u64, Vec<u32>, bool);

/// One raw workload item: a uniform grant, an sp-batch of range-scoped
/// sps sharing one timestamp, or a tuple.
#[derive(Debug, Clone)]
enum Item {
    Sp(Vec<u32>),
    Scoped(Vec<ScopedSp>),
    Tup(i64, i64),
}

fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    // Tuple ids are item positions (< 48), so ranges this wide overlap
    // each other and the tuples that follow more often than not.
    let scoped_sp = (0u64..40, 0u64..24, prop::collection::vec(0u32..6, 1..3), any::<bool>())
        .prop_map(|(lo, span, roles, attr_only)| (lo, lo + span, roles, attr_only));
    let tup = || (0i64..6, 0i64..50).prop_map(|(k, v)| Item::Tup(k, v));
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(0u32..6, 0..3).prop_map(Item::Sp),
            prop::collection::vec(scoped_sp, 1..3).prop_map(Item::Scoped),
            tup(),
            tup(),
        ],
        4..48,
    )
}

/// Random batch-cut lengths (cycled over the element stream). Lengths of
/// 1 reproduce tuple-at-a-time; longer cuts can straddle kind boundaries,
/// producing the mixed batches the equivalence contract also covers.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..8)
}

fn raw_stream(items: &[Item]) -> Vec<StreamElement> {
    let grant = |roles: &[u32], ts| {
        SecurityPunctuation::grant_all(roles.iter().map(|&r| RoleId(r)).collect(), ts)
    };
    items
        .iter()
        .enumerate()
        .flat_map(|(i, item)| {
            let ts = Timestamp(i as u64 + 1);
            match item {
                Item::Sp(roles) => vec![StreamElement::punctuation(grant(roles, ts))],
                Item::Scoped(sps) => sps
                    .iter()
                    .map(|(lo, hi, roles, attr_only)| {
                        let mut ddp = DataDescription::tuple_range(*lo, *hi);
                        if *attr_only {
                            ddp.attrs = Pattern::literal("v");
                        }
                        StreamElement::punctuation(grant(roles, ts).with_ddp(ddp))
                    })
                    .collect(),
                Item::Tup(k, v) => vec![StreamElement::tuple(Tuple::new(
                    StreamId(1),
                    TupleId(i as u64),
                    ts,
                    vec![Value::Int(*k), Value::Int(*v)],
                ))],
            }
        })
        .collect()
}

/// Converts raw stream elements to engine elements through an analyzer,
/// the form every operator consumes.
fn engine_elements(items: &[Item]) -> Vec<Element> {
    let mut analyzer = sp_engine::SpAnalyzer::new(schema(), catalog());
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

fn audit_of(op: &dyn Operator) -> Vec<u8> {
    let mut buf = Vec::new();
    if let Some(rec) = op.recorders() {
        rec.audit.encode(&mut buf);
    }
    buf
}

/// Port assignment: unary operators take everything on port 0; binary
/// operators take blocks of three per side so batch runs actually form.
fn port_of(i: usize, arity: usize) -> usize {
    if arity > 1 {
        (i / 3) % 2
    } else {
        0
    }
}

/// Reference semantics: strict tuple-at-a-time `process`.
fn feed_elements(op: &mut dyn Operator, elems: &[Element]) -> Vec<String> {
    let arity = op.arity();
    let mut emitter = Emitter::new();
    let mut out = Vec::new();
    for (i, e) in elems.iter().enumerate() {
        op.process(port_of(i, arity), e.clone(), &mut emitter).unwrap();
        out.extend(emitter.take().iter().map(|e| format!("{e:?}")));
    }
    out
}

/// Candidate semantics: `process_batch` — or, with `lend`, the lent-run
/// entry `process_run` — at the given cut lengths. A batch breaks early
/// when the port flips (batches never span ports), but NOT at kind
/// boundaries — mixed batches are deliberately exercised.
fn feed_batches(
    op: &mut dyn Operator,
    elems: &[Element],
    cuts: &[usize],
    lend: bool,
) -> Vec<String> {
    let arity = op.arity();
    let mut emitter = Emitter::new();
    let mut out = Vec::new();
    let mut cut_ix = 0usize;
    let mut i = 0usize;
    while i < elems.len() {
        let port = port_of(i, arity);
        let want = cuts[cut_ix % cuts.len()].max(1);
        cut_ix += 1;
        let mut batch = ElementBatch::single(elems[i].clone());
        i += 1;
        while batch.len() < want && i < elems.len() && port_of(i, arity) == port {
            batch.push(elems[i].clone());
            i += 1;
        }
        if lend {
            op.process_run(port, batch.as_slice(), &mut emitter).unwrap();
        } else {
            op.process_batch(port, batch, &mut emitter).unwrap();
        }
        out.extend(emitter.take().iter().map(|e| format!("{e:?}")));
    }
    out
}

/// The operator differential: element-at-a-time vs batched at random cuts
/// must produce the same emissions, snapshot bytes, and audit bytes.
fn check_operator(fresh: impl FnMut() -> Box<dyn Operator>, items: &[Item], cuts: &[usize]) {
    check_operator_at(fresh, items, cuts, false);
}

/// [`check_operator`], and the same again with every batch lent
/// (`process_run`) instead of handed over — for the operators that
/// override that entry.
fn check_operator_lent(
    mut fresh: impl FnMut() -> Box<dyn Operator>,
    items: &[Item],
    cuts: &[usize],
) {
    check_operator_at(&mut fresh, items, cuts, false);
    check_operator_at(&mut fresh, items, cuts, true);
}

fn check_operator_at(
    mut fresh: impl FnMut() -> Box<dyn Operator>,
    items: &[Item],
    cuts: &[usize],
    lend: bool,
) {
    let elems = engine_elements(items);

    let mut reference = fresh();
    reference.set_audit(AUDIT_CAP);
    let out_ref = feed_elements(reference.as_mut(), &elems);

    let mut batched = fresh();
    batched.set_audit(AUDIT_CAP);
    let out_batched = feed_batches(batched.as_mut(), &elems, cuts, lend);

    let name = if lend { "lent" } else { "owned" };
    prop_assert_eq!(out_ref, out_batched, "{} {}: emissions diverged", reference.name(), name);
    prop_assert_eq!(
        snapshot_of(reference.as_ref()),
        snapshot_of(batched.as_ref()),
        "{} {}: snapshot bytes diverged",
        reference.name(),
        name
    );
    prop_assert_eq!(
        audit_of(reference.as_ref()),
        audit_of(batched.as_ref()),
        "{} {}: audit records diverged",
        reference.name(),
        name
    );
}

fn shedder_cfg() -> ShedderConfig {
    ShedderConfig {
        capacity: 8,
        drain_per_ms: 2,
        policy: ShedPolicy::RandomP { p: 0.5, seed: 11 },
        ..ShedderConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn select_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        check_operator_lent(
            || Box::new(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(10))))),
            &items,
            &cuts,
        );
    }

    #[test]
    fn project_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        check_operator(|| Box::new(Project::new(vec![0])), &items, &cuts);
    }

    #[test]
    fn shield_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        // Both a role the workload frequently grants (bulk release path)
        // and one it never grants (bulk suppress path), at both
        // granularities, owned and lent.
        for roles in [RoleSet::from([1, 3]), RoleSet::from([7])] {
            for g in [Granularity::Tuple, Granularity::Attribute] {
                check_operator_lent(
                    || Box::new(SecurityShield::new(roles.clone()).with_granularity(g)),
                    &items,
                    &cuts,
                );
            }
        }
    }

    #[test]
    fn sink_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        let elems = engine_elements(&items);
        let mut reference = Sink::new();
        feed_elements(&mut reference, &elems);
        let mut batched = Sink::new();
        feed_batches(&mut batched, &elems, &cuts, false);
        prop_assert_eq!(reference.elements(), batched.elements());
        prop_assert_eq!(snapshot_of(&reference), snapshot_of(&batched));
    }

    #[test]
    fn shedder_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        check_operator(|| Box::new(Shedder::new(shedder_cfg())), &items, &cuts);
    }

    #[test]
    fn dupelim_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        check_operator(|| Box::new(DupElim::new(vec![0], 10)), &items, &cuts);
    }

    #[test]
    fn groupby_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        for agg in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            check_operator(|| Box::new(GroupBy::new(Some(0), agg, 1, 10)), &items, &cuts);
        }
    }

    #[test]
    fn union_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        check_operator(|| Box::new(Union::new()), &items, &cuts);
    }

    #[test]
    fn saintersect_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        check_operator(|| Box::new(SAIntersect::new(10)), &items, &cuts);
    }

    #[test]
    fn sajoin_batch_equiv(items in arb_items(), cuts in arb_cuts()) {
        for variant in [JoinVariant::Index, JoinVariant::NestedLoopPF, JoinVariant::NestedLoopFP] {
            check_operator(|| Box::new(SAJoin::new(variant, 10, 0, 0, 2)), &items, &cuts);
        }
    }

    /// Executor differential: the same plan, same raw input, run batched
    /// (`push_all`) and tuple-at-a-time (`set_batching(false)` + `push`),
    /// must release identical sink contents, identical operator
    /// checkpoints, and an identical audit trail.
    #[test]
    fn executor_batch_equiv(items in arb_items()) {
        let raw = raw_stream(&items);
        let input: Vec<(StreamId, StreamElement)> =
            raw.iter().map(|e| (StreamId(1), e.clone())).collect();

        let (b, sinks) = equiv_plan();
        let mut batched = b.build();
        batched.push_all(input.iter().cloned()).unwrap();
        batched.finish().unwrap();

        let (b, _) = equiv_plan();
        let mut tuple_mode = b.build();
        tuple_mode.set_batching(false);
        for (sid, e) in &input {
            tuple_mode.push(*sid, e.clone()).unwrap();
        }
        tuple_mode.finish().unwrap();

        for s in &sinks {
            prop_assert_eq!(
                batched.sink(*s).elements(),
                tuple_mode.sink(*s).elements(),
                "sink contents diverged between batched and tuple mode"
            );
        }
        let ck_b = batched.checkpoint(0, 0);
        let ck_t = tuple_mode.checkpoint(0, 0);
        prop_assert_eq!(ck_b.analyzers, ck_t.analyzers, "analyzer state diverged");
        prop_assert_eq!(ck_b.nodes, ck_t.nodes, "operator state diverged");
        prop_assert_eq!(
            batched.audit_trail().encode_to_vec(),
            tuple_mode.audit_trail().encode_to_vec(),
            "audit trails diverged"
        );
    }

    /// Ingestion differential: on the batched executor, `push_all`
    /// (deferred drains) and per-element `push` (eager drains) agree.
    #[test]
    fn push_all_matches_eager_push(items in arb_items()) {
        let raw = raw_stream(&items);
        let input: Vec<(StreamId, StreamElement)> =
            raw.iter().map(|e| (StreamId(1), e.clone())).collect();

        let (b, sinks) = equiv_plan();
        let mut deferred = b.build();
        deferred.push_all(input.iter().cloned()).unwrap();
        deferred.finish().unwrap();

        let (b, _) = equiv_plan();
        let mut eager = b.build();
        for (sid, e) in &input {
            eager.push(*sid, e.clone()).unwrap();
        }
        eager.finish().unwrap();

        for s in &sinks {
            prop_assert_eq!(deferred.sink(*s).elements(), eager.sink(*s).elements());
        }
        let ck_d = deferred.checkpoint(0, 0);
        let ck_e = eager.checkpoint(0, 0);
        prop_assert_eq!(ck_d.analyzers, ck_e.analyzers);
        prop_assert_eq!(ck_d.nodes, ck_e.nodes);
        prop_assert_eq!(
            deferred.audit_trail().encode_to_vec(),
            eager.audit_trail().encode_to_vec()
        );
    }
}

/// The plan both executor properties run, with the audit trail armed.
/// Nine consumers share the source edge: eight shields under eight
/// distinct roles (roles 6 and 7 are never granted; role 2's shield
/// enforces at attribute granularity; role 3's feeds a projection), each
/// its own query — the run-major, lent-run fan-out — and a shedder →
/// select chain that fans out again, at an operator's edge, to two more
/// shields. Covers both fan-out levels, the shedder's virtual-queue
/// accounting, the shield's bulk, masked and per-tuple paths with its
/// narrow-at-first-release, projection's identity remap, and delayed sp
/// propagation.
fn equiv_plan() -> (PlanBuilder, Vec<SinkRef>) {
    let mut b = PlanBuilder::new(catalog());
    let src = b.source(StreamId(1), schema());
    let mut sinks = Vec::new();
    for role in 0..8u32 {
        let granularity = if role == 2 { Granularity::Attribute } else { Granularity::Tuple };
        let ss =
            b.add(SecurityShield::new(RoleSet::from([role])).with_granularity(granularity), src);
        sinks.push(if role == 3 {
            let proj = b.add(Project::new(vec![1]), ss);
            b.sink(proj)
        } else {
            b.sink(ss)
        });
    }
    let shed = b.add(Shedder::new(shedder_cfg()), src);
    let sel =
        b.add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), shed);
    let q0 = b.add(SecurityShield::new(RoleSet::from([1])), sel);
    let q1 = b.add(SecurityShield::new(RoleSet::from([4])), sel);
    sinks.push(b.sink(q0));
    sinks.push(b.sink(q1));
    b.enable_telemetry(TelemetryConfig {
        audit_capacity: AUDIT_CAP,
        span_capacity: 0,
        metrics: false,
    });
    (b, sinks)
}

/// Deterministic witness for the mixed-kind contract: a single batch
/// holding policy/tuple/policy/tuple must behave exactly like the same
/// four elements processed one at a time.
#[test]
fn mixed_kind_batch_matches_per_element() {
    let elems = engine_elements(&[
        Item::Sp(vec![1]),
        Item::Tup(1, 20),
        Item::Sp(vec![2]),
        Item::Tup(2, 30),
    ]);
    assert!(elems.len() >= 4, "analyzer must resolve the workload");

    type OpFactory = Box<dyn Fn() -> Box<dyn Operator>>;
    let ops: Vec<(&str, OpFactory)> = vec![
        ("shield", Box::new(|| Box::new(SecurityShield::new(RoleSet::from([1]))))),
        (
            "select",
            Box::new(|| {
                Box::new(Select::new(Expr::cmp(
                    CmpOp::Ge,
                    Expr::Attr(1),
                    Expr::Const(Value::Int(0)),
                )))
            }),
        ),
        ("project", Box::new(|| Box::new(Project::new(vec![0])))),
        ("shedder", Box::new(|| Box::new(Shedder::new(shedder_cfg())))),
    ];
    for (name, fresh) in ops {
        let mut reference = fresh();
        reference.set_audit(AUDIT_CAP);
        let out_ref = feed_elements(reference.as_mut(), &elems);

        let mut batched = fresh();
        batched.set_audit(AUDIT_CAP);
        let mut emitter = Emitter::new();
        let mut iter = elems.iter().cloned();
        let mut batch = ElementBatch::single(iter.next().unwrap());
        for e in iter {
            batch.push(e); // deliberately ignores kind boundaries
        }
        assert!(batch.is_control(), "the witness batch must be mixed");
        batched.process_batch(0, batch, &mut emitter).unwrap();
        let out_batched: Vec<String> = emitter.take().iter().map(|e| format!("{e:?}")).collect();

        assert_eq!(out_ref, out_batched, "{name}: mixed-kind emissions diverged");
        assert_eq!(
            snapshot_of(reference.as_ref()),
            snapshot_of(batched.as_ref()),
            "{name}: mixed-kind snapshot diverged"
        );
        assert_eq!(
            audit_of(reference.as_ref()),
            audit_of(batched.as_ref()),
            "{name}: mixed-kind audit diverged"
        );
    }
}
