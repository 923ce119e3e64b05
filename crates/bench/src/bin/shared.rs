//! Multi-query sharing (§VI-C, Fig. 5): what each added query costs.
//!
//! N ∈ {1, 8, 64} queries under different roles read one location stream
//! with scoped sps every 25 tuples (`policy.heavy`'s shape), each
//! shield → select → project → sink, fed in 128-element frames through
//! `Executor::push_all`, as a session feeds them: every run gets its own
//! copy of each tuple, as a session decodes its own. Four deployments:
//!
//! 1. **separate** — one source (and SP Analyzer) per query, no sharing;
//! 2. **shared** — one source whose edge the N shields consume: the
//!    executor judges them as one group, resolving each tuple's policy
//!    once for all of them;
//! 3. **merged** — one source, a *merged* shield (the union of all
//!    predicates, Rule 1) below and the N shields splitting above it — the
//!    paper's "merge at the beginning, split at the end", which
//!    `Optimizer::shared_shield` decides on;
//! 4. **projected** — one source and one projection on its edge, then the
//!    N shields and selections: the plan a session runs, with π at the
//!    scan, compacting each tuple in place once for all N queries.
//!
//! All four must release identical per-query results. The table gives
//! engine ns per input tuple (median of [`sp_bench::timing::RUNS`] runs,
//! as `median [low..high]`) and the slope: what each query added since the
//! previous N costs per input tuple.
//!
//! Usage: `cargo run --release -p sp-bench --bin shared`

use std::sync::Arc;
use std::time::Duration;

use sp_bench::timing::{median_of_runs, wall};
use sp_bench::{log_rows, print_table, warn_if_debug, Row};
use sp_core::{RoleId, RoleSet, StreamElement, StreamId, Tuple, Value};
use sp_engine::{CmpOp, Expr, PlanBuilder, Project, SecurityShield, Select, SinkRef, Upstream};
use sp_mog::{location_stream, Workload, WorkloadConfig};
use sp_query::{CostModel, LogicalPlan, Optimizer};

/// Query counts of the fan-out sweep.
const FANOUT: [u32; 3] = [1, 8, 64];

/// Elements per `push_all` call (`policy.heavy`'s frame).
const FRAME: usize = 128;

const VARIANTS: [&str; 4] = ["separate", "shared", "merged", "projected"];

/// The kept columns: `obj_id`, `speed`.
const KEPT: [usize; 2] = [0, 3];

/// `speed >= 2.0` over the stream's columns (`attr` 3), or over the
/// projected ones (`attr` 1).
fn predicate_on(attr: usize) -> Expr {
    Expr::cmp(CmpOp::Ge, Expr::Attr(attr), Expr::Const(Value::Float(2.0)))
}

fn catalog() -> Arc<sp_core::RoleCatalog> {
    let mut c = sp_core::RoleCatalog::new();
    c.register_synthetic_roles(400);
    Arc::new(c)
}

/// A copy of `e` whose tuple no one else holds, as a decoded one.
fn fresh(e: &StreamElement) -> StreamElement {
    match e {
        StreamElement::Tuple(t) => StreamElement::tuple(Tuple::clone(t)),
        sp => sp.clone(),
    }
}

/// Deploys one variant for `n` queries and runs the workload through it
/// once, returning per-query released counts and the wall time.
fn run(variant: &str, n: u32, w: &Workload) -> (Vec<usize>, Duration) {
    let mut b = PlanBuilder::new(catalog());
    let below: Option<Upstream> = match variant {
        "separate" => None,
        "shared" => Some(b.source(w.stream, w.schema.clone()).into()),
        "projected" => {
            let src = b.source(w.stream, w.schema.clone());
            Some(b.add(Project::new(KEPT.to_vec()), src).into())
        }
        _ => {
            let src = b.source(w.stream, w.schema.clone());
            Some(b.add(SecurityShield::new((0..n).map(RoleId).collect()), src).into())
        }
    };
    let sinks: Vec<SinkRef> = (0..n)
        .map(|q| {
            let input = below.unwrap_or_else(|| b.source(w.stream, w.schema.clone()).into());
            let ss = b.add(SecurityShield::new(RoleSet::single(RoleId(q))), input);
            let top = if variant == "projected" {
                b.add(Select::new(predicate_on(1)), ss)
            } else {
                let sel = b.add(Select::new(predicate_on(3)), ss);
                b.add(Project::new(KEPT.to_vec()), sel)
            };
            b.sink(top)
        })
        .collect();
    let mut exec = b.build();
    let frames: Vec<Vec<(StreamId, StreamElement)>> = w
        .elements
        .chunks(FRAME)
        .map(|frame| frame.iter().map(|e| (w.stream, fresh(e))).collect())
        .collect();
    let ((), elapsed) = wall(|| {
        for frame in frames {
            exec.push_all(frame).expect("bench plan failed");
        }
    });
    (sinks.iter().map(|&s| exec.sink(s).tuple_count()).collect(), elapsed)
}

fn main() {
    warn_if_debug();
    let w = location_stream(&WorkloadConfig {
        objects: 1000,
        ticks: 20,
        sp_every: 25,
        policy_roles: 100,
        role_universe: 400,
        grant_selectivity: 0.5,
        scoped_sps: true,
        tick_ms: 50,
        burst: None,
        seed: 21,
    });
    let ns_per_tuple = |d: Duration| d.as_secs_f64() * 1e9 / w.tuples as f64;

    let mut table = Vec::new();
    let mut rows = Vec::new();
    let mut released: [Option<Vec<usize>>; FANOUT.len()] = Default::default();
    for variant in VARIANTS {
        let mut previous: Option<(u32, f64)> = None;
        for (n, reference) in FANOUT.into_iter().zip(&mut released) {
            let timed = median_of_runs(|| run(variant, n, &w));
            let reference = reference.get_or_insert_with(|| timed.run.clone());
            assert_eq!(&timed.run, reference, "{variant} changed per-query results at {n} queries");
            let ns = timed.spread(ns_per_tuple);
            let slope = previous.map(|(m, prev)| (ns.median - prev) / f64::from(n - m));
            previous = Some((n, ns.median));
            table.push(vec![
                variant.to_owned(),
                n.to_string(),
                ns.cell(0),
                slope.map_or_else(|| "-".to_owned(), |s| format!("{s:.1}")),
                timed.run.iter().sum::<usize>().to_string(),
            ]);
            rows.push(Row {
                experiment: "shared",
                param: "queries",
                value: n.to_string(),
                series: variant.to_owned(),
                metric: "ns_per_tuple",
                measured: ns.median,
                spread: Some((ns.low, ns.high)),
            });
        }
    }
    print_table(
        &format!(
            "Multi-query fan-out ({} tuples, scoped sps every 25, {FRAME}-element frames)",
            w.tuples
        ),
        &["variant", "queries", "ns/tuple", "slope ns/query", "released"],
        &table,
    );
    log_rows(&rows);

    // The optimizer's own §VI-C merge decision for eight of these queries.
    let predicates: Vec<RoleSet> = (0..8).map(|q| RoleSet::single(RoleId(q))).collect();
    let shared_plan = LogicalPlan::Select {
        predicate: predicate_on(3),
        input: Box::new(LogicalPlan::Scan {
            stream: w.stream,
            schema: w.schema.clone(),
            window_ms: 10_000,
        }),
    };
    let (merged, worthwhile) =
        Optimizer::new(CostModel::default()).shared_shield(&predicates, &shared_plan);
    println!(
        "\noptimizer decision: merge {} predicates into ψ{merged} below the shared subplan: {}",
        predicates.len(),
        if worthwhile { "YES" } else { "no" }
    );
}
