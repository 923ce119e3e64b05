//! Figure 8: the cost of the Security Shield operator compared to select
//! and project (§VII-C).
//!
//! * 8a — per-element cost of project / select / SS while sweeping the
//!   sp:tuple ratio: SS costs about as much as a select at ratio 1/1 and
//!   becomes dramatically cheaper as more tuples share one sp;
//! * 8b — SS cost while sweeping the SS-state size (number of roles of the
//!   query predicate), with both predicate-evaluation modes: `scan`
//!   (unindexed role list, the paper's growth effect) and `bitmap` (the
//!   compact-encoding ablation).
//!
//! Cells are the median of [`sp_bench::timing::RUNS`] runs, printed as
//! `median [low..high]`.
//!
//! Usage: `cargo run --release -p sp-bench --bin fig8 -- [a|b|all]`

use std::sync::Arc;

use sp_bench::timing::{median_of_runs, wall, Spread};
use sp_bench::workloads::fig8_workload;
use sp_bench::{log_rows, print_table, us_per, warn_if_debug, Row};
use sp_core::{RoleSet, Value};
use sp_engine::{
    CmpOp, Element, Emitter, Expr, MatchMode, Operator, OperatorExt, Project, SecurityShield,
    Select, SpAnalyzer,
};
use sp_mog::Workload;

const RATIOS: [usize; 5] = [1, 10, 25, 50, 100];
const ROLE_COUNTS: [u32; 4] = [1, 10, 100, 500];

fn main() {
    warn_if_debug();
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "a" => ratio_sweep(),
        "b" => state_size_sweep(),
        _ => {
            ratio_sweep();
            state_size_sweep();
        }
    }
}

/// Resolves the raw workload into engine elements once, so the operator
/// measurements are not polluted by analyzer time.
fn resolve(workload: &Workload) -> Vec<Element> {
    let mut catalog = sp_core::RoleCatalog::new();
    catalog.register_synthetic_roles(600);
    let mut analyzer = SpAnalyzer::new(workload.schema.clone(), Arc::new(catalog));
    let mut out = Vec::with_capacity(workload.elements.len());
    for e in &workload.elements {
        analyzer.push(e.clone(), &mut out);
    }
    analyzer.flush(&mut out);
    out
}

/// Runs a fresh operator over the elements, in µs per data tuple.
fn measure(
    mut make: impl FnMut() -> Box<dyn Operator>,
    elements: &[Element],
    tuples: u64,
) -> Spread {
    median_of_runs(|| {
        let mut op = make();
        let mut emitter = Emitter::new();
        wall(|| {
            for e in elements {
                op.process(0, e.clone(), &mut emitter).expect("bench operator failed");
                let _ = emitter.take();
            }
        })
    })
    .spread(|elapsed| us_per(elapsed, tuples))
}

/// The paper's region query: a select on the location attributes.
fn region_select() -> Select {
    Select::new(Expr::and(
        Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Float(200.0))),
        Expr::cmp(CmpOp::Le, Expr::Attr(1), Expr::Const(Value::Float(1200.0))),
    ))
}

fn ratio_sweep() {
    let mut table = Vec::new();
    let mut rows = Vec::new();
    for ratio in RATIOS {
        let workload = fig8_workload(ratio, 7 + ratio as u64);
        let elements = resolve(&workload);
        let tuples = workload.tuples as u64;

        let project_us = measure(|| Box::new(Project::new(vec![0, 1])), &elements, tuples);
        let select_us = measure(|| Box::new(region_select()), &elements, tuples);
        let ss_us =
            measure(|| Box::new(SecurityShield::new(RoleSet::from([0]))), &elements, tuples);

        for (series, v) in [("project", project_us), ("select", select_us), ("ss", ss_us)] {
            rows.push(Row {
                experiment: "fig8a",
                param: "sp_ratio",
                value: format!("1/{ratio}"),
                series: series.into(),
                metric: "us_per_tuple",
                measured: v.median,
                spread: Some((v.low, v.high)),
            });
        }
        table.push(vec![
            format!("1/{ratio}"),
            project_us.cell(3),
            select_us.cell(3),
            ss_us.cell(3),
        ]);
    }
    print_table(
        "Fig 8a: operator cost (µs/tuple) vs sp:tuple ratio",
        &["sp:tuple", "project", "select", "ss"],
        &table,
    );
    log_rows(&rows);
}

fn state_size_sweep() {
    let workload = fig8_workload(10, 55);
    let elements = resolve(&workload);
    let tuples = workload.tuples as u64;

    let project_us = measure(|| Box::new(Project::new(vec![0, 1])), &elements, tuples);
    let select_us = measure(|| Box::new(region_select()), &elements, tuples);

    let mut table = Vec::new();
    let mut rows = Vec::new();
    for count in ROLE_COUNTS {
        let predicate = RoleSet::all_below(count);
        let scan_us = measure(
            || Box::new(SecurityShield::new(predicate.clone()).with_mode(MatchMode::Scan)),
            &elements,
            tuples,
        );
        let bitmap_us = measure(
            || Box::new(SecurityShield::new(predicate.clone()).with_mode(MatchMode::Bitmap)),
            &elements,
            tuples,
        );
        for (series, v) in [
            ("ss-scan", scan_us),
            ("ss-bitmap", bitmap_us),
            ("select", select_us),
            ("project", project_us),
        ] {
            rows.push(Row {
                experiment: "fig8b",
                param: "role_count",
                value: count.to_string(),
                series: series.into(),
                metric: "us_per_tuple",
                measured: v.median,
                spread: Some((v.low, v.high)),
            });
        }
        table.push(vec![
            format!("R={count}"),
            scan_us.cell(3),
            bitmap_us.cell(3),
            select_us.cell(3),
            project_us.cell(3),
        ]);
    }
    print_table(
        "Fig 8b: SS cost (µs/tuple) vs query-side role count (sp:tuple = 1/10)",
        &["", "ss (scan)", "ss (bitmap)", "select", "project"],
        &table,
    );
    log_rows(&rows);
}
