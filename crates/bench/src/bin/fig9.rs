//! Figure 9: nested-loop vs index SAJoin with varying sp selectivity
//! (§VII-D).
//!
//! For σ_sp ∈ {0, 0.1, 0.5, 1} the harness reports, per 100 input tuples,
//! the total processing time and its breakdown into join time, sp
//! maintenance and tuple maintenance — the exact bars of the paper's
//! Fig. 9. The filter-and-probe nested-loop variant (§V-B.1) is included
//! as the ablation between plain nested loop and the SPIndex.
//!
//! SAJoin times its own phases (the one operator that does); a row is the
//! median of [`sp_bench::timing::RUNS`] runs by that total, printed as
//! `median [low..high]`, with the median run's breakdown beside it.
//!
//! Usage: `cargo run --release -p sp-bench --bin fig9 [-- tuples_per_side]`

use sp_bench::timing::median_of_runs;
use sp_bench::workloads::fig9_workload;
use sp_bench::{log_rows, print_table, us_per, warn_if_debug, Row};
use sp_engine::{
    CostKind, Element, Emitter, JoinVariant, Operator, OperatorExt, SAJoin, SpAnalyzer,
};

const SIGMAS: [f64; 4] = [0.0, 0.1, 0.5, 1.0];
const WINDOW_MS: u64 = 4000;

fn main() {
    warn_if_debug();
    let tuples_per_side: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4000);

    let mut table = Vec::new();
    let mut rows = Vec::new();
    for sigma in SIGMAS {
        let workload = fig9_workload(sigma, tuples_per_side, 7);
        // Resolve punctuations once per side so operator time excludes the
        // analyzer.
        let mut catalog = sp_core::RoleCatalog::new();
        catalog.register_synthetic_roles(128);
        let catalog = std::sync::Arc::new(catalog);
        let mut analyzers = [
            SpAnalyzer::new(workload.schema.clone(), catalog.clone()),
            SpAnalyzer::new(workload.schema.clone(), catalog.clone()),
        ];
        let mut feed: Vec<(usize, Element)> = Vec::with_capacity(workload.feed.len());
        let mut staged = Vec::new();
        for (port, elem) in &workload.feed {
            staged.clear();
            analyzers[*port].push(elem.clone(), &mut staged);
            for e in staged.drain(..) {
                feed.push((*port, e));
            }
        }

        for variant in [JoinVariant::NestedLoopPF, JoinVariant::NestedLoopFP, JoinVariant::Index] {
            // A fresh operator each run, ranked by the time it charged
            // to its own cost buckets.
            let timed = median_of_runs(|| {
                let mut join = SAJoin::new(variant, WINDOW_MS, 1, 1, 2);
                let mut emitter = Emitter::new();
                let mut results = 0u64;
                for (port, elem) in &feed {
                    join.process(*port, elem.clone(), &mut emitter).expect("bench join failed");
                    results += emitter.take().iter().filter(|e| e.is_tuple()).count() as u64;
                }
                let total = join.stats().total_time();
                ((join, results), total)
            });
            let (join, results) = &timed.run;
            let stats = join.stats();
            let per100 = |d| us_per(d, workload.tuples as u64) * 100.0;
            let join_us = per100(stats.time(CostKind::Join));
            let sp_us = per100(stats.time(CostKind::SpMaintenance));
            let tuple_us = per100(stats.time(CostKind::TupleMaintenance));
            let total_us = timed.spread(per100);
            let name = match variant {
                JoinVariant::NestedLoopPF => "nested-PF",
                JoinVariant::NestedLoopFP => "nested-FP",
                JoinVariant::Index => "index",
            };
            for (metric, v, spread) in [
                ("total_us_per_100", total_us.median, Some((total_us.low, total_us.high))),
                ("join_us_per_100", join_us, None),
                ("sp_maint_us_per_100", sp_us, None),
                ("tuple_maint_us_per_100", tuple_us, None),
            ] {
                rows.push(Row {
                    experiment: "fig9",
                    param: "sigma_sp",
                    value: format!("{sigma}"),
                    series: name.into(),
                    metric,
                    measured: v,
                    spread,
                });
            }
            table.push(vec![
                format!("σ={sigma} {name}"),
                total_us.cell(1),
                format!("{join_us:.1}"),
                format!("{sp_us:.1}"),
                format!("{tuple_us:.1}"),
                format!("{results}"),
            ]);
        }
    }
    print_table(
        "Fig 9: SAJoin cost (µs per 100 tuples) with varying sp selectivity",
        &["", "total", "join", "sp maint", "tuple maint", "results"],
        &table,
    );
    log_rows(&rows);
}
