//! Oracle for projection at the scan and shared query chains: a session
//! of several queries over one stream releases, per query, exactly what
//! that query releases in a session of its own — and what the plan the
//! cost search chose, before its projection moved to the scan, releases
//! alone. Compared is each query's whole sink sequence, tuples and
//! policies alike, rendered with `{:?}`.
//!
//! Sessions are random: 2–8 queries under random role sets, projecting
//! columns in schema order, reordered, with duplicates or not at all;
//! random selection thresholds, some on a column the projection drops;
//! scoped and unscoped sps of either sign, some attribute-scoped; and
//! random frame cuts. A third of the sessions enforce at attribute
//! granularity, where the projection must stay above the shield.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use sp_core::{
    DataDescription, QueryId, RoleId, RoleSet, Schema, SecurityPunctuation, SecurityRestriction,
    Sign, StreamElement, StreamId, Timestamp, Tuple, TupleId, Value, ValueType,
};
use sp_engine::{Granularity, PlanBuilder};
use sp_pattern::Pattern;
use sp_query::{
    instantiate_with, parse, plan_select, InstantiateOptions, LogicalPlan, Optimizer, Statement,
};

const STREAM: StreamId = StreamId(1);
const COLUMNS: [&str; 4] = ["k", "a", "b", "c"];
const ROLES: usize = 4;

/// Column lists the queries pick from, so that sessions share prefixes
/// often: in order, reordered, duplicated, everything (`*`, empty).
const POOL: [&[usize]; 6] = [&[0, 3], &[0, 3], &[3, 0], &[0, 0, 2], &[1], &[]];

#[derive(Debug, Clone)]
struct Query {
    /// Projected columns; empty selects `*`.
    cols: Vec<usize>,
    /// `WHERE column >= threshold`.
    filter: Option<(usize, i64)>,
    /// The subject's roles.
    roles: Vec<usize>,
}

impl Query {
    fn sql(&self) -> String {
        let list = if self.cols.is_empty() {
            "*".to_owned()
        } else {
            self.cols.iter().map(|&c| COLUMNS[c]).collect::<Vec<_>>().join(", ")
        };
        let filter =
            self.filter.map_or_else(String::new, |(c, t)| format!(" WHERE {} >= {t}", COLUMNS[c]));
        format!("SELECT {list} FROM S{filter}")
    }

    /// Whether the selection reads a column the projection drops.
    fn filters_dropped_column(&self) -> bool {
        self.filter.is_some_and(|(c, _)| !self.cols.is_empty() && !self.cols.contains(&c))
    }
}

#[derive(Debug, Clone)]
enum Item {
    Sp {
        roles: Vec<usize>,
        /// Tuple ids `lo..=hi`; `None` is unscoped.
        scope: Option<(u64, u64)>,
        /// Governs only this column; `None` is the whole tuple.
        attr: Option<usize>,
        negative: bool,
        dt: u64,
    },
    Tup {
        k: u64,
        vals: [i64; 3],
        dt: u64,
    },
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        (0usize..8, prop::collection::vec(0usize..4, 1..4)),
        (0u8..3, 0usize..4, 0i64..6),
        prop::collection::vec(0usize..ROLES, 1..3),
    )
        .prop_map(|((pick, random), (kind, col, t), roles)| Query {
            cols: POOL.get(pick).map_or(random, |cols| cols.to_vec()),
            filter: (kind > 0).then_some((col, t)),
            roles,
        })
}

fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    let sp = (
        prop::collection::vec(0usize..ROLES, 0..3),
        (0u8..2, 0u64..8, 0u64..4),
        (0u8..4, 0usize..4),
        0u8..6,
        0u64..2,
    )
        .prop_map(|(roles, (scoped, lo, len), (attr_kind, attr), sign, dt)| Item::Sp {
            roles,
            scope: (scoped == 1).then_some((lo, lo + len)),
            attr: (attr_kind == 0).then_some(attr),
            negative: sign == 0,
            dt,
        });
    let tup = (0u64..10, (0i64..6, 0i64..6, 0i64..6), 0u64..3)
        .prop_map(|(k, (a, b, c), dt)| Item::Tup { k, vals: [a, b, c], dt });
    let item = (0u8..4, sp, tup).prop_map(|(kind, sp, tup)| if kind == 0 { sp } else { tup });
    prop::collection::vec(item, 4..120)
}

/// Frame lengths, cycled over the stream.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..24, 1..5)
}

/// A fresh copy of the stream: every run decodes its own tuples, so the
/// scan's projection owns them and compacts them in place.
fn stream(items: &[Item]) -> Vec<StreamElement> {
    let mut ts = 0;
    items
        .iter()
        .map(|item| match item {
            Item::Sp { roles, scope, attr, negative, dt } => {
                ts += dt;
                let roles: RoleSet = roles.iter().map(|&r| RoleId(r as u32)).collect();
                let mut ddp = scope.map_or_else(DataDescription::everything, |(lo, hi)| {
                    DataDescription::tuple_range(lo, hi)
                });
                if let Some(attr) = attr {
                    ddp.attrs = Pattern::compile(COLUMNS[*attr]).unwrap();
                }
                StreamElement::punctuation(SecurityPunctuation {
                    ddp,
                    srp: SecurityRestriction::roles(roles),
                    sign: if *negative { Sign::Negative } else { Sign::Positive },
                    immutable: false,
                    ts: Timestamp(ts),
                })
            }
            Item::Tup { k, vals, dt } => {
                ts += dt;
                let [a, b, c] = *vals;
                let values = vec![
                    Value::Int(*k as i64),
                    Value::Int(a),
                    Value::Float(b as f64),
                    Value::Int(c),
                ];
                StreamElement::tuple(Tuple::new(STREAM, TupleId(*k), Timestamp(ts), values))
            }
        })
        .collect()
}

fn schema() -> Arc<Schema> {
    Schema::of(
        "S",
        &[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Float),
            ("c", ValueType::Int),
        ],
    )
}

/// A session holding `queries`, each under a subject of its own.
fn session(granularity: Granularity, queries: &[&Query]) -> (sp_query::Dsms, Vec<QueryId>) {
    let mut d = sp_query::Dsms::new();
    d.register_stream(STREAM, schema()).unwrap();
    for r in 0..ROLES {
        assert_eq!(d.register_role(&format!("r{r}")).unwrap(), RoleId(r as u32));
    }
    d.set_granularity(granularity).unwrap();
    let ids = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let roles: Vec<String> = q.roles.iter().map(|r| format!("r{r}")).collect();
            let roles: Vec<&str> = roles.iter().map(String::as_str).collect();
            let subject = d.register_subject(&format!("s{i}"), &roles).unwrap();
            d.submit(&q.sql(), subject).unwrap()
        })
        .collect();
    (d, ids)
}

/// Splits `elements` into frames by `cuts`, cycled.
fn frames(mut elements: Vec<StreamElement>, cuts: &[usize]) -> Vec<Vec<StreamElement>> {
    let mut out = Vec::new();
    for &len in cuts.iter().cycle() {
        if elements.is_empty() {
            break;
        }
        let rest = elements.split_off(len.min(elements.len()));
        out.push(std::mem::replace(&mut elements, rest));
    }
    out
}

fn render(elements: &[sp_engine::Element]) -> Vec<String> {
    elements.iter().map(|e| format!("{e:?}")).collect()
}

/// Every query's sink sequence in one session of all of `queries`.
fn run_session(
    granularity: Granularity,
    queries: &[&Query],
    items: &[Item],
    cuts: &[usize],
) -> Vec<Vec<String>> {
    let (d, ids) = session(granularity, queries);
    let mut running = d.start();
    for frame in frames(stream(items), cuts) {
        running.push_frame(STREAM, frame).unwrap();
    }
    ids.iter().map(|&q| render(running.results(q).elements())).collect()
}

/// The plan the cost search chose for `query`, before its projection
/// moved to the scan, run alone.
fn run_unmoved(
    granularity: Granularity,
    query: &Query,
    items: &[Item],
    cuts: &[usize],
) -> (LogicalPlan, Vec<String>) {
    let (d, _) = session(granularity, &[query]);
    let Statement::Select(stmt) = parse(&query.sql()).unwrap() else { unreachable!() };
    let roles = &d.queries()[0].roles;
    let plan = plan_select(&d.catalog, &stmt, roles).unwrap();
    let (plan, _) = Optimizer::new(d.cost_model.clone()).optimize(&plan);
    let mut builder = PlanBuilder::new(Arc::new(d.catalog.roles.clone()));
    let opts = InstantiateOptions { granularity, ..InstantiateOptions::default() };
    let root = instantiate_with(&plan, &mut builder, &mut HashMap::new(), opts);
    let sink = builder.sink(root);
    let mut exec = builder.build();
    for frame in frames(stream(items), cuts) {
        exec.push_all(frame.into_iter().map(|e| (STREAM, e))).unwrap();
    }
    (plan, render(exec.sink(sink).elements()))
}

/// Where the π of a plan sits: the op below it, or `None` without one.
fn below_projection(plan: &LogicalPlan) -> Option<&'static str> {
    match plan {
        LogicalPlan::Project { input, .. } => Some(input.op_name()),
        other => other.children().into_iter().find_map(below_projection),
    }
}

/// Whether a π sits somewhere below a ψ.
fn projects_below_a_shield(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Shield { input, .. } => below_projection(input).is_some(),
        other => other.children().into_iter().any(projects_below_a_shield),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shared_session_equals_each_query_alone(
        queries in prop::collection::vec(arb_query(), 2..9),
        items in arb_items(),
        cuts in arb_cuts(),
        attribute in 0u8..3,
    ) {
        let granularity =
            if attribute == 0 { Granularity::Attribute } else { Granularity::Tuple };
        let all: Vec<&Query> = queries.iter().collect();
        let shared = run_session(granularity, &all, &items, &cuts);
        let (d, _) = session(granularity, &all);
        for (i, q) in queries.iter().enumerate() {
            let alone = run_session(granularity, &[q], &items, &cuts);
            prop_assert_eq!(&shared[i], &alone[0], "query {} {:?}", i, q.sql());
            let (unmoved, released) = run_unmoved(granularity, q, &items, &cuts);
            prop_assert_eq!(&shared[i], &released, "query {} {:?} unmoved", i, q.sql());

            let plan = &d.queries()[i].plan;
            let moved = granularity == Granularity::Tuple
                && !q.cols.is_empty()
                && !q.filters_dropped_column();
            if moved {
                prop_assert_eq!(below_projection(plan), Some("scan"), "{}", plan);
            } else {
                prop_assert_eq!(plan, &unmoved);
            }
            if granularity == Granularity::Attribute {
                prop_assert!(!projects_below_a_shield(plan), "{}", plan);
            }
            if q.filters_dropped_column() {
                prop_assert_eq!(plan.op_name(), "project", "{}", plan);
            }
        }
    }
}

/// A fixed session: three queries keep the same columns (one π serves
/// them, their shields one group; two hold the same roles and share
/// their shield too), one filters on a column it drops (its π stays
/// above the selection), one selects `*`.
#[test]
fn fixed_session_shares_and_keeps_what_it_must() {
    let q = |cols: &[usize], filter, roles: &[usize]| Query {
        cols: cols.to_vec(),
        filter,
        roles: roles.to_vec(),
    };
    let queries = [
        q(&[0, 3], Some((3, 2)), &[0]),
        q(&[0, 3], Some((3, 4)), &[1, 2]),
        q(&[0], Some((2, 3)), &[0]),
        q(&[], None, &[3]),
        q(&[0, 3], None, &[0]),
    ];
    let items: Vec<Item> = (0..40)
        .map(|i| {
            if i % 7 == 0 {
                Item::Sp {
                    roles: vec![i % 4, (i + 1) % 4],
                    scope: (i % 2 == 0).then_some((0, 5)),
                    attr: None,
                    negative: false,
                    dt: 1,
                }
            } else {
                Item::Tup {
                    k: i as u64 % 10,
                    vals: [i as i64 % 6, i as i64 % 5, i as i64 % 4],
                    dt: 1,
                }
            }
        })
        .collect();
    let all: Vec<&Query> = queries.iter().collect();
    let shared = run_session(Granularity::Tuple, &all, &items, &[5, 9]);
    assert!(shared.iter().any(|s| s.iter().any(|e| e.starts_with("Tuple"))), "{shared:?}");
    for (i, query) in queries.iter().enumerate() {
        assert_eq!(shared[i], run_session(Granularity::Tuple, &[query], &items, &[128])[0]);
        assert_eq!(shared[i], run_unmoved(Granularity::Tuple, query, &items, &[1]).1);
    }
    let (d, _) = session(Granularity::Tuple, &all);
    let plans: Vec<&LogicalPlan> = d.queries().iter().map(|q| &q.plan).collect();
    assert_eq!(below_projection(plans[0]), Some("scan"));
    assert_eq!(below_projection(plans[1]), Some("scan"));
    assert_eq!(plans[2].op_name(), "project", "σ over the dropped `b` keeps π above it");
    assert_eq!(below_projection(plans[3]), None);
    assert_eq!(below_projection(plans[4]), Some("scan"));
    let ops = |op: &str| {
        let prom = d.start().metrics_prometheus();
        let prefix = format!("sp_tuples_in_total{{op=\"{op}\"");
        prom.lines().filter(|l| l.starts_with(&prefix)).count()
    };
    assert_eq!((ops("project"), ops("ss"), ops("select")), (2, 4, 3));
}

/// A granularity set after `submit` would run a plan built for another
/// one: it is refused, and the session runs what each query releases
/// alone at the granularity its plan was built for.
#[test]
fn granularity_after_submit_is_refused() {
    let q = Query { cols: vec![0], filter: None, roles: vec![0] };
    let items = [
        Item::Sp { roles: vec![0], scope: None, attr: Some(3), negative: false, dt: 0 },
        Item::Tup { k: 1, vals: [1, 2, 3], dt: 1 },
    ];
    let (mut d, ids) = session(Granularity::Tuple, &[&q, &q]);
    assert_eq!(below_projection(&d.queries()[0].plan), Some("scan"));
    assert!(d.set_granularity(Granularity::Attribute).is_err());
    assert_eq!(d.granularity(), Granularity::Tuple);
    let mut running = d.start();
    for frame in frames(stream(&items), &[2]) {
        running.push_frame(STREAM, frame).unwrap();
    }
    let alone = run_session(Granularity::Tuple, &[&q], &items, &[2]);
    for id in ids {
        assert_eq!(render(running.results(id).elements()), alone[0]);
    }
    // At attribute granularity the grant on the dropped `c` masks the
    // tuple's columns rather than suppressing it: the outputs differ.
    let masked = run_session(Granularity::Attribute, &[&q], &items, &[2]);
    assert_ne!(masked, alone);
}
