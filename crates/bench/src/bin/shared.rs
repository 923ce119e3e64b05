//! Multi-query optimization ablation (§VI-C, Fig. 5).
//!
//! N queries with different roles run the same expensive select over one
//! stream. Three deployments are compared:
//!
//! 1. **separate** — each query runs its own copy of the subplan with its
//!    own Security Shield (no sharing);
//! 2. **shared** — one subplan instance, per-query shields at the top;
//! 3. **merged** — one subplan instance with a *merged* shield (the union
//!    of all predicates, Rule 1) at the bottom and the per-query shields
//!    splitting at the top — the paper's "merge at the beginning, split at
//!    the end".
//!
//! All three must release identical per-query results; the harness prints
//! total engine time for each (median of [`sp_bench::timing::RUNS`] runs,
//! as `median [low..high]`) and the optimizer's own merge decision.
//!
//! Usage: `cargo run --release -p sp-bench --bin shared [-- n_queries]`

use std::sync::Arc;
use std::time::Duration;

use sp_bench::timing::{median_of_runs, wall};
use sp_bench::workloads::fig8_workload;
use sp_bench::{log_rows, print_table, warn_if_debug, Row};
use sp_core::{RoleId, RoleSet, StreamElement, Value};
use sp_engine::{CmpOp, Expr, PlanBuilder, SecurityShield, Select, SinkRef};
use sp_query::{merged_predicate, CostModel, LogicalPlan, Optimizer};

fn predicate() -> Expr {
    // A moderately expensive region predicate over the location stream.
    Expr::and(
        Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Float(200.0))),
        Expr::and(
            Expr::cmp(CmpOp::Le, Expr::Attr(1), Expr::Const(Value::Float(1300.0))),
            Expr::cmp(CmpOp::Ge, Expr::Attr(2), Expr::Const(Value::Float(100.0))),
        ),
    )
}

fn catalog() -> Arc<sp_core::RoleCatalog> {
    let mut c = sp_core::RoleCatalog::new();
    c.register_synthetic_roles(600);
    Arc::new(c)
}

/// Deploys one of the three variants and runs it once, returning
/// per-query released counts and the wall time of the run.
fn run(
    variant: &str,
    n_queries: u32,
    elements: &[StreamElement],
    schema: &Arc<sp_core::Schema>,
) -> (Vec<usize>, Duration) {
    let mut builder = PlanBuilder::new(catalog());
    let stream = sp_core::StreamId(1);
    let mut sinks: Vec<SinkRef> = Vec::new();
    match variant {
        "separate" => {
            for q in 0..n_queries {
                let src = builder.source(stream, schema.clone());
                let sel = builder.add(Select::new(predicate()), src);
                let ss = builder.add(SecurityShield::new(RoleSet::single(RoleId(q))), sel);
                sinks.push(builder.sink(ss));
            }
        }
        "shared" => {
            let src = builder.source(stream, schema.clone());
            let sel = builder.add(Select::new(predicate()), src);
            for q in 0..n_queries {
                let ss = builder.add(SecurityShield::new(RoleSet::single(RoleId(q))), sel);
                sinks.push(builder.sink(ss));
            }
        }
        _ => {
            // merged: union shield below the shared subplan, split above.
            let merged: RoleSet = (0..n_queries).map(RoleId).collect();
            let src = builder.source(stream, schema.clone());
            let bottom = builder.add(SecurityShield::new(merged), src);
            let sel = builder.add(Select::new(predicate()), bottom);
            for q in 0..n_queries {
                let ss = builder.add(SecurityShield::new(RoleSet::single(RoleId(q))), sel);
                sinks.push(builder.sink(ss));
            }
        }
    }
    let mut exec = builder.build();
    let ((), elapsed) = wall(|| {
        for e in elements {
            exec.push(stream, e.clone()).expect("bench plan failed");
        }
    });
    let counts = sinks.iter().map(|&s| exec.sink(s).tuple_count()).collect();
    (counts, elapsed)
}

fn main() {
    warn_if_debug();
    let n_queries: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);

    // Workload: whole-segment sps whose roles are drawn from the query
    // role range, so each query sees a different subset.
    let workload = fig8_workload(10, 21);

    let mut table = Vec::new();
    let mut rows = Vec::new();
    let mut reference: Option<Vec<usize>> = None;
    for variant in ["separate", "shared", "merged"] {
        let timed =
            median_of_runs(|| run(variant, n_queries, &workload.elements, &workload.schema));
        let counts = &timed.run;
        match &reference {
            None => reference = Some(counts.clone()),
            Some(r) => assert_eq!(counts, r, "{variant} changed per-query results"),
        }
        let total: usize = counts.iter().sum();
        let ms = timed.spread(|elapsed| elapsed.as_secs_f64() * 1000.0);
        table.push(vec![variant.to_owned(), ms.cell(1), format!("{total}")]);
        rows.push(Row {
            experiment: "shared",
            param: "variant",
            value: variant.to_owned(),
            series: format!("{n_queries}q"),
            metric: "total_ms",
            measured: ms.median,
            spread: Some((ms.low, ms.high)),
        });
    }
    print_table(
        &format!("Multi-query sharing ({n_queries} queries over one select)"),
        &["variant", "engine ms", "released"],
        &table,
    );
    log_rows(&rows);

    // The optimizer's own §VI-C merge decision for this shape.
    let predicates: Vec<RoleSet> = (0..n_queries).map(|q| RoleSet::single(RoleId(q))).collect();
    let shared_plan = LogicalPlan::Select {
        predicate: predicate(),
        input: Box::new(LogicalPlan::Scan {
            stream: sp_core::StreamId(1),
            schema: workload.schema.clone(),
            window_ms: 10_000,
        }),
    };
    let optimizer = Optimizer::new(CostModel::default());
    let (merged, worthwhile) = optimizer.shared_shield(&predicates, &shared_plan);
    println!(
        "\noptimizer decision: merge {} predicates into ψ{merged} below the shared subplan: {}",
        predicates.len(),
        if worthwhile { "YES" } else { "no" }
    );
    let _ = merged_predicate(&predicates);
}
