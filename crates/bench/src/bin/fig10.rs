//! Figure 10 (substrate extension, §VIII outlook): security-aware
//! overload management under sustained offered load.
//!
//! Sweeps offered load at 1×, 2× and 4× of the shedder's drain capacity
//! (stream-time arrival compression via the workload's burst shaping) and
//! reports, per load level:
//!
//! * **shed ratio** — fraction of offered tuples the semantic load
//!   shedder discarded (sps are control traffic and are never shed);
//! * the **admission controller's** rejections at the ingestion boundary
//!   and the **degradation ladder's** peak rung / transition counts.
//!
//! Everything here is driven by stream time, so the sweep is fully
//! seeded — two runs print the same bytes — and nothing is timed (what a
//! push costs is `perfbench/`'s `engine.executor.*` rows). Results go to
//! stdout and `target/bench-results.jsonl` (per-metric rows).
//!
//! Usage: `cargo run --release -p sp-bench --bin fig10`

use sp_bench::{log_rows, print_table, Row};
use sp_core::{RoleSet, StreamElement};
use sp_engine::{
    AdmissionConfig, AdmissionController, DegradationStats, PlanBuilder, QuarantinePolicy,
    SecurityShield, ShedPolicy, Shedder, ShedderConfig, WatermarkConfig,
};
use sp_mog::{location_stream, BurstConfig, WorkloadConfig};

/// Virtual-queue drain rate of the shedder under test.
const DRAIN_PER_MS: u64 = 2;
/// (arrival amplitude in tuples per stream-ms, label) — relative to
/// `DRAIN_PER_MS` these are 1×, 2× and 4× offered load.
const LOADS: [(u64, &str); 3] = [(2, "1x"), (4, "2x"), (8, "4x")];
/// Admission budget: 4 tuples per stream-ms with a burst allowance, so
/// the 4× load is the first to overrun the ingestion boundary.
const ADMIT_TOKENS_PER_SEC: u64 = 4_000;

struct LoadResult {
    label: &'static str,
    offered: u64,
    released: u64,
    admission_rejected: u64,
    deg: DegradationStats,
}

impl LoadResult {
    fn shed_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.deg.shed_tuples as f64 / self.offered as f64
        }
    }
}

fn workload(amplitude: u64) -> sp_mog::Workload {
    location_stream(&WorkloadConfig {
        objects: 40,
        ticks: 60,
        sp_every: 20,
        policy_roles: 3,
        role_universe: 64,
        grant_selectivity: 1.0,
        scoped_sps: false,
        tick_ms: 100,
        // Permanently ON: a *sustained* offered load, not an episode.
        burst: Some(BurstConfig { on_ticks: 1, off_ticks: 0, amplitude }),
        seed: 0x10AD,
    })
}

fn shed_cfg() -> ShedderConfig {
    ShedderConfig {
        capacity: 96,
        drain_per_ms: DRAIN_PER_MS,
        watermarks: WatermarkConfig::default(),
        policy: ShedPolicy::RandomP { p: 0.5, seed: 0x000F_1610 },
    }
}

fn run_load(amplitude: u64, label: &'static str) -> LoadResult {
    let w = workload(amplitude);
    let catalog = {
        let mut c = sp_core::RoleCatalog::new();
        c.register_synthetic_roles(128);
        std::sync::Arc::new(c)
    };
    let mut b = PlanBuilder::new(catalog);
    let src = b.source(w.stream, w.schema.clone());
    b.harden_source(src, QuarantinePolicy { ttl_ms: 500, slack_ms: 400, capacity: 1_024 });
    let sh = b.add(Shedder::new(shed_cfg()), src);
    let q = b.add(SecurityShield::new(RoleSet::from([0])), sh);
    let sink = b.sink(q);
    let mut exec = b.build();

    let mut admission = AdmissionController::new(AdmissionConfig {
        tokens_per_sec: ADMIT_TOKENS_PER_SEC,
        burst: 64,
        enqueue_deadline_ms: 10,
    });

    for e in &w.elements {
        let is_tuple = matches!(e, StreamElement::Tuple(_));
        if admission.admit(w.stream, is_tuple, e.ts()).is_err() {
            continue; // refused at the boundary, never enqueued
        }
        let _ = exec.push(w.stream, e.clone());
    }
    let _ = exec.finish();

    let mut deg = exec.degradation();
    deg.absorb(&admission.degradation());
    LoadResult {
        label,
        offered: w.tuples as u64,
        released: exec.sink(sink).tuple_count() as u64,
        admission_rejected: admission.rejected(),
        deg,
    }
}

fn main() {
    let results: Vec<LoadResult> = LOADS.iter().map(|&(amp, label)| run_load(amp, label)).collect();

    let header = ["load", "shed ratio", "admit rejected", "peak rung"];
    let table: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.3}", r.shed_ratio()),
                r.admission_rejected.to_string(),
                r.deg.overload_peak.to_string(),
            ]
        })
        .collect();
    print_table("Fig 10: overload management vs offered load (×drain capacity)", &header, &table);

    println!("\nFig 10r: per-load degradation (fail-closed loss accounting)");
    for r in &results {
        println!("  [{}] released {} of {} tuples", r.label, r.released, r.offered);
        println!("  [{}] {}", r.label, r.deg);
    }

    let mut rows = Vec::new();
    for r in &results {
        let mk = |metric: &'static str, measured: f64| Row {
            experiment: "fig10",
            param: "offered_load",
            value: r.label.to_string(),
            series: "sp-overload".into(),
            metric,
            measured,
            spread: None,
        };
        rows.push(mk("shed_ratio", r.shed_ratio()));
        rows.push(mk("admission_rejected", r.admission_rejected as f64));
        rows.push(mk("overload_peak", r.deg.overload_peak as f64));
        rows.push(mk("ladder_escalations", r.deg.ladder_escalations as f64));
        rows.push(mk("ladder_recoveries", r.deg.ladder_recoveries as f64));
    }
    log_rows(&rows);
}
