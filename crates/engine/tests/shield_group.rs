//! Shield groups (§VI-C): the sibling Security Shields of one edge, judged
//! as one group — the governing policy of each tuple resolved once for all
//! of them — must be observationally identical to each shield judging
//! alone.
//!
//! Random streams mix uniform grants, sp-batches of several scoped sps of
//! either sign (overlapping ranges and match-all scopes, so tuples meet
//! one, several and no entry, and denials reach across scopes) and
//! attribute grants. The plan puts K ∈ 1..=8 shields on the source edge,
//! of mixed granularity and match mode, some with audit and spans armed,
//! a select on the same edge between them and a projection above the
//! first. Mid-stream one member's predicate is replaced, then the plan is
//! checkpointed and restored into a fresh executor, which finishes the
//! stream. Run-major `push_all` (grouped) and `set_batching(false)` (each
//! shield alone) must agree on every sink sequence, the
//! `Checkpoint.{analyzers,nodes,sinks}` bytes at the cut and at the end,
//! the encoded audit and span bytes on both sides of the restore, and
//! every node's counters; uninterrupted, `run_parallel` (a thread per
//! shield) must release and record the same.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use proptest::prelude::*;
use sp_core::{
    DataDescription, RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement,
    StreamId, Timestamp, Tuple, TupleId, Value, ValueType,
};
use sp_engine::{
    run_parallel, Checkpoint, CmpOp, Element, Executor, Expr, Granularity, MatchMode, NodeRef,
    Operator, PlanBuilder, Project, SecurityShield, Select, SinkRef,
};
use sp_pattern::Pattern;

const CAP: usize = 1 << 12;
const STREAM: StreamId = StreamId(1);

fn schema() -> Arc<Schema> {
    Schema::of("s", &[("k", ValueType::Int), ("v", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(8);
    Arc::new(c)
}

fn roles(ids: &[u32]) -> RoleSet {
    ids.iter().map(|&r| RoleId(r)).collect()
}

/// One sp of an sp-batch: its tuple-id range (`None`: every tuple), the
/// roles it names, whether it names them on attribute `v` only, and
/// whether it revokes.
type BatchSp = (Option<(u64, u64)>, Vec<u32>, bool, bool);

/// One raw workload item; tuple ids are item positions.
#[derive(Debug, Clone)]
enum Item {
    Grant(Vec<u32>),
    Batch(Vec<BatchSp>),
    Tup(i64, i64),
}

/// One shield of the group.
#[derive(Debug, Clone)]
struct Member {
    roles: Vec<u32>,
    attribute: bool,
    scan: bool,
    /// Audit and spans armed.
    armed: bool,
}

fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    let range = || (0u64..48, 0u64..16).prop_map(|(lo, span)| Some((lo, lo + span)));
    let scope = prop_oneof![Just(None), range(), range(), range()];
    let negative = (0u8..10).prop_map(|n| n < 3);
    let sp = (scope, prop::collection::vec(0u32..6, 1..4), any::<bool>(), negative);
    let tup = || (0i64..6, 0i64..50).prop_map(|(k, v)| Item::Tup(k, v));
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(0u32..6, 0..3).prop_map(Item::Grant),
            prop::collection::vec(sp, 1..4).prop_map(Item::Batch),
            tup(),
            tup(),
            tup(),
        ],
        4..64,
    )
}

fn arb_members() -> impl Strategy<Value = Vec<Member>> {
    let member =
        (prop::collection::vec(0u32..6, 0..3), any::<bool>(), any::<bool>(), any::<bool>())
            .prop_map(|(roles, attribute, scan, armed)| Member { roles, attribute, scan, armed });
    prop::collection::vec(member, 1..9)
}

fn raw_stream(items: &[Item]) -> Vec<StreamElement> {
    items
        .iter()
        .enumerate()
        .flat_map(|(i, item)| {
            let ts = Timestamp(i as u64 + 1);
            match item {
                Item::Grant(ids) => {
                    vec![StreamElement::punctuation(SecurityPunctuation::grant_all(roles(ids), ts))]
                }
                Item::Batch(sps) => sps
                    .iter()
                    .map(|(scope, ids, attr_only, negative)| {
                        let mut sp = SecurityPunctuation::grant_all(roles(ids), ts);
                        let mut ddp = match scope {
                            Some((lo, hi)) => DataDescription::tuple_range(*lo, *hi),
                            None => DataDescription::everything(),
                        };
                        if *attr_only {
                            ddp.attrs = Pattern::literal("v");
                        }
                        sp = sp.with_ddp(ddp);
                        StreamElement::punctuation(if *negative { sp.negative() } else { sp })
                    })
                    .collect(),
                Item::Tup(k, v) => vec![StreamElement::tuple(Tuple::new(
                    STREAM,
                    TupleId(i as u64),
                    ts,
                    vec![Value::Int(*k), Value::Int(*v)],
                ))],
            }
        })
        .collect()
}

/// The plan under test and the handles to read it back.
struct Plan {
    builder: PlanBuilder,
    shields: Vec<NodeRef>,
    nodes: Vec<NodeRef>,
    sinks: Vec<SinkRef>,
}

/// Members on the source edge in order, a select on the same edge after
/// the first member, a projection above the first member.
fn plan(members: &[Member]) -> Plan {
    let mut b = PlanBuilder::new(catalog());
    let src = b.source(STREAM, schema());
    let (mut shields, mut nodes, mut sinks) = (Vec::new(), Vec::new(), Vec::new());
    for (i, m) in members.iter().enumerate() {
        let granularity = if m.attribute { Granularity::Attribute } else { Granularity::Tuple };
        let mode = if m.scan { MatchMode::Scan } else { MatchMode::Bitmap };
        let mut shield =
            SecurityShield::new(roles(&m.roles)).with_granularity(granularity).with_mode(mode);
        if m.armed {
            shield.set_audit(CAP);
            shield.set_spans(CAP);
        }
        let ss = b.add(shield, src);
        shields.push(ss);
        nodes.push(ss);
        let top = if i == 0 {
            let proj = b.add(Project::new(vec![1]), ss);
            nodes.push(proj);
            proj
        } else {
            ss
        };
        sinks.push(b.sink(top));
        if i == 0 {
            let sel = b.add(
                Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(10)))),
                src,
            );
            nodes.push(sel);
            sinks.push(b.sink(sel));
        }
    }
    Plan { builder: b, shields, nodes, sinks }
}

fn feed(exec: &mut Executor, input: &[StreamElement], frame: usize) {
    for chunk in input.chunks(frame.max(1)) {
        exec.push_all(chunk.iter().map(|e| (STREAM, e.clone()))).unwrap();
    }
}

/// A mid-stream predicate change: which member, to which roles.
type Update = (usize, Vec<u32>);

/// A checkpoint's `(analyzers, nodes, sinks)` sections.
type Sections = (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<Vec<u8>>);

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per sink, everything delivered before and after the restore.
    sinks: Vec<Vec<Element>>,
    /// Checkpoint bytes at the cut and at the end.
    checkpoints: Vec<Sections>,
    /// Audit and span bytes before the restore and after it.
    recorders: Vec<(Vec<u8>, Vec<u8>)>,
    /// Every node's counters at the end.
    counters: Vec<Vec<u8>>,
}

fn parts(ck: Checkpoint) -> Sections {
    (ck.analyzers, ck.nodes, ck.sinks)
}

fn recorders(exec: &Executor) -> (Vec<u8>, Vec<u8>) {
    (exec.audit_trail().encode_to_vec(), exec.span_sheet().encode_to_vec())
}

/// Runs the stream to `cut`, changing one member's predicate (if any) at
/// `update_at` on the way, checkpoints, restores into a fresh executor of the same
/// plan (its predicate changed the same way: configuration is not
/// checkpointed) and finishes the stream there. `batched` = run-major
/// `push_all` in `frame`-element frames; otherwise tuple-at-a-time.
fn run_restored(
    members: &[Member],
    input: &[StreamElement],
    (update_at, cut): (usize, usize),
    update: Option<&Update>,
    frame: usize,
    batched: bool,
) -> Observed {
    let build = || {
        let plan = plan(members);
        let mut exec = plan.builder.build();
        exec.set_batching(batched);
        (exec, plan.shields, plan.nodes, plan.sinks)
    };
    let frame = if batched { frame } else { 1 };
    let (mut exec, shields, nodes, sinks) = build();
    let update = update.map(|(who, ids)| (shields[who % members.len()], roles(ids)));
    let change = |exec: &mut Executor| {
        if let Some((shield, new_roles)) = &update {
            assert!(exec.update_predicate(*shield, new_roles));
        }
    };
    feed(&mut exec, &input[..update_at], frame);
    change(&mut exec);
    feed(&mut exec, &input[update_at..cut], frame);
    let ck = exec.checkpoint(1, cut as u64);
    let mut delivered: Vec<Vec<Element>> =
        sinks.iter().map(|s| exec.sink(*s).elements().to_vec()).collect();
    let before = recorders(&exec);

    let (mut fresh, ..) = build();
    fresh.restore(&ck).unwrap();
    change(&mut fresh);
    feed(&mut fresh, &input[cut..], frame);
    fresh.finish().unwrap();
    for (out, s) in delivered.iter_mut().zip(&sinks) {
        out.extend_from_slice(fresh.sink(*s).elements());
    }
    Observed {
        sinks: delivered,
        checkpoints: vec![parts(ck), parts(fresh.checkpoint(2, input.len() as u64))],
        recorders: vec![before, recorders(&fresh)],
        counters: nodes
            .iter()
            .map(|n| {
                let mut buf = Vec::new();
                fresh.stats(*n).encode_counters(&mut buf);
                buf
            })
            .collect(),
    }
}

/// The uninterrupted stream, grouped (`push_all` in frames), against
/// `run_parallel`, which runs every shield on its own thread (and, unlike
/// `Executor::finish`, leaves a trailing sp-batch unflushed).
fn check_parallel(members: &[Member], input: &[StreamElement], frame: usize) {
    let grouped_plan = plan(members);
    let sinks = grouped_plan.sinks;
    let mut grouped = grouped_plan.builder.build();
    feed(&mut grouped, input, frame);
    let parallel =
        run_parallel(plan(members).builder, input.iter().map(|e| (STREAM, e.clone()))).unwrap();
    for s in &sinks {
        assert_eq!(grouped.sink(*s).elements(), parallel.sink(*s).elements(), "sink {s:?}");
    }
    assert_eq!(
        grouped.audit_trail().encode_to_vec(),
        parallel.audit_trail().encode_to_vec(),
        "audit"
    );
    assert_eq!(
        grouped.span_sheet().encode_to_vec(),
        parallel.span_sheet().encode_to_vec(),
        "spans"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grouped_shields_match_shields_alone(
        items in arb_items(),
        members in arb_members(),
        update in (0usize..8, prop::collection::vec(0u32..6, 0..3)),
        (a, b) in (0usize..=100, 0usize..=100),
        frame in 1usize..24,
    ) {
        let input = raw_stream(&items);
        let update_at = input.len() * a.min(b) / 100;
        let cut = input.len() * a.max(b) / 100;
        let grouped = run_restored(&members, &input, (update_at, cut), Some(&update), frame, true);
        let alone = run_restored(&members, &input, (update_at, cut), Some(&update), frame, false);
        prop_assert_eq!(grouped, alone);
        check_parallel(&members, &input, frame);
    }
}

/// After a restore every member decodes its own copy of the segment
/// policy: the members hold distinct but equal `Arc`s, so each resolves
/// for itself until the next sp. Cut in the middle of a scoped segment
/// (two overlapping grants and a denial reaching across them, tuples
/// inside one, two and no scope), the grouped run must go on exactly as
/// the uninterrupted one and as the shields alone.
#[test]
fn restored_members_hold_equal_copies() {
    let mut items = vec![Item::Batch(vec![
        (Some((0, 12)), vec![0, 1], false, false),
        (Some((8, 16)), vec![2, 3], true, false),
        (Some((4, 6)), vec![1], false, true),
    ])];
    items.extend((0..24).map(|i| Item::Tup(i % 6, i * 2)));
    let input = raw_stream(&items);
    let members = [
        Member { roles: vec![0], attribute: false, scan: false, armed: true },
        Member { roles: vec![1], attribute: false, scan: true, armed: false },
        Member { roles: vec![2, 5], attribute: true, scan: false, armed: true },
        Member { roles: vec![3], attribute: false, scan: false, armed: false },
        Member { roles: vec![4], attribute: false, scan: false, armed: true },
    ];
    let cut = 3 + 7; // the batch's three sps and seven tuples
    let grouped = run_restored(&members, &input, (cut, cut), None, 5, true);
    let alone = run_restored(&members, &input, (cut, cut), None, 5, false);
    assert_eq!(grouped, alone);

    let plan = plan(&members);
    let mut uninterrupted = plan.builder.build();
    feed(&mut uninterrupted, &input, 5);
    uninterrupted.finish().unwrap();
    for (got, s) in grouped.sinks.iter().zip(&plan.sinks) {
        assert_eq!(got.as_slice(), uninterrupted.sink(*s).elements(), "sink {s:?}");
    }
    assert!(grouped.sinks.iter().any(|s| s.iter().any(Element::is_tuple)), "something is released");
    assert_eq!(grouped.checkpoints[1], parts(uninterrupted.checkpoint(2, input.len() as u64)));
}

/// A run-major batch is everything an edge carries between drains, so one
/// `push_all` shows the group one run of several tuple stretches, each
/// resolved once for the group under its own segment. Cut in the middle
/// of the first of three scoped segments and restored (every member then
/// holds a distinct but equal copy of that segment, so each resolves its
/// first stretch for itself), the rest of the stream arrives as one frame,
/// with a stale sp splitting the second segment into two stretches under
/// the same segment. Sinks, checkpoint, audit and span bytes, and
/// counters must equal each shield judged alone.
#[test]
fn mixed_run_with_three_scoped_segments() {
    // Two overlapping grants (the second on `v` only) and a denial
    // reaching across them; tuple `base + 6` is in no scope.
    let scoped = |base: u64| {
        Item::Batch(vec![
            (Some((base + 1, base + 4)), vec![0, 1], false, false),
            (Some((base + 3, base + 5)), vec![2, 3], true, false),
            (Some((base + 2, base + 2)), vec![1], false, true),
        ])
    };
    let mut items = Vec::new();
    for base in [0, 7, 14] {
        items.push(scoped(base));
        items.extend((0..6).map(|i| Item::Tup(i % 3, 5 * i)));
    }
    let mut input = raw_stream(&items);
    // After the second segment's third tuple: older than its segment, so
    // it replaces nothing in the shields.
    let stale = SecurityPunctuation::grant_all(roles(&[0, 1, 2]), Timestamp(2));
    input.insert(3 + 6 + 3 + 3, StreamElement::punctuation(stale));
    let members = [
        Member { roles: vec![0], attribute: false, scan: false, armed: true },
        Member { roles: vec![1], attribute: false, scan: true, armed: false },
        Member { roles: vec![2], attribute: true, scan: false, armed: true },
    ];
    let cut = 3 + 3; // the first batch's three sps and three tuples
    let grouped = run_restored(&members, &input, (cut, cut), None, input.len(), true);
    let alone = run_restored(&members, &input, (cut, cut), None, input.len(), false);
    assert_eq!(grouped, alone);
    // Sinks: the first member's projection, the select, then members 2, 3.
    for sink in [0, 2, 3] {
        assert!(grouped.sinks[sink].iter().any(Element::is_tuple), "member sink {sink} releases");
    }
}
