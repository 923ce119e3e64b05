//! Figure 7: comparison of the three access-control enforcement
//! mechanisms (§VII-B).
//!
//! * 7a — output rate (tuples/ms) vs sp:tuple ratio;
//! * 7p — processing cost per tuple (µs) vs sp:tuple ratio;
//! * 7c — policy memory (KB) vs policy size |R|;
//! * 7d — processing cost per 100 tuples (µs) vs policy size |R|.
//!
//! Usage: `cargo run --release -p sp-bench --bin fig7 -- [a|p|c|d|r|all]`
//! (no argument = `all`; anything else prints this line and exits 2).
//!
//! Timed cells (7a, 7p, 7d) are the median of [`sp_bench::timing::RUNS`]
//! runs, printed as `median [low..high]`.
//!
//! `r` is a lint, not a measurement: it prints the hostile-stream
//! degradation report — the same workload is replayed through the wire
//! with seeded faults (drops, reorders, byte corruption) into a hardened
//! plan, and every fail-closed loss counter is reported; nothing is
//! dropped silently — and then reruns the workload under a crash
//! supervisor with injected pipeline kills, reporting the recovery
//! counters. It is fully seeded: two runs print the same bytes.
//!
//! Checkpoint, telemetry, span and batch-mode costs are measured by the
//! repo's benchmark (`perfbench/`: `engine.checkpoint.us_per_cut`,
//! `engine.telemetry.*_overhead_pct`,
//! `engine.mode.tuple_at_a_time.vs_sequential`), not here.

use sp_bench::mechanisms::{all_mechanisms, catalog, drive, probe_roles, MechRun};
use sp_bench::timing::{median_of_runs, Timed};
use sp_bench::workloads::fig7_workload;
use sp_bench::{log_rows, print_table, us_per, warn_if_debug, Row};
use sp_core::wire::{Message, StreamDecoder, WireFrame};
use sp_core::{RoleSet, StreamId};
use sp_engine::{
    run_supervised, DegradationStats, Fault, FaultInjector, FaultSchedule, MemStore, PlanBuilder,
    QuarantinePolicy, ReorderBuffer, SecurityShield, SupervisorConfig,
};

const RATIOS: [usize; 5] = [1, 10, 25, 50, 100];
const POLICY_SIZES: [u32; 5] = [1, 10, 25, 50, 100];
/// Fixed sp:tuple ratio for the policy-size experiments (paper: 1/10).
const MEM_RATIO: usize = 10;

/// Runs mechanism `idx` over the workload (a fresh instance each run),
/// ranked by the time the mechanism spent inside itself.
fn timed_mechanism(
    catalog: &std::sync::Arc<sp_core::RoleCatalog>,
    workload: &sp_mog::Workload,
    idx: usize,
) -> Timed<MechRun> {
    median_of_runs(|| {
        let mut mechs = all_mechanisms(catalog, &workload.schema, &probe_roles());
        let mut mech = mechs.swap_remove(idx);
        let run = drive(mech.as_mut(), &workload.elements);
        let elapsed = run.elapsed;
        (run, elapsed)
    })
}

fn main() {
    warn_if_debug();
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "a" => ratio_sweep(true),
        "p" => ratio_sweep(false),
        "c" => policy_size_sweep(true),
        "d" => policy_size_sweep(false),
        "r" => degradation_report(),
        "all" => {
            ratio_sweep(true);
            ratio_sweep(false);
            policy_size_sweep(true);
            policy_size_sweep(false);
            degradation_report();
        }
        _ => {
            eprintln!("usage: fig7 [a|p|c|d|r|all]");
            std::process::exit(2);
        }
    }
}

/// Hostile-stream degradation: replays the Fig. 7 workload over the wire
/// under seeded faults into a hardened shielded plan and prints what was
/// refused — corrupted frames, late arrivals, quarantined tuples. The
/// fail-closed contract is that every loss shows up in a counter.
fn degradation_report() {
    let catalog = catalog(128);
    let workload = fig7_workload(10, 3, 0.5, 42);
    let input: Vec<(StreamId, sp_core::StreamElement)> =
        workload.elements.iter().map(|e| (workload.stream, e.clone())).collect();

    // Element-level faults: drop/duplicate/delay/reorder sps and tuples.
    // Moderate rates — a lossy network, not a bit-flood — so the report
    // shows partial degradation rather than total loss.
    let plan = FaultSchedule::none(0xF167)
        .with(Fault::DropSp, 0.10, 0)
        .with(Fault::DropTuple, 0.02, 0)
        .with(Fault::DupSp, 0.05, 0)
        .with(Fault::DupTuple, 0.02, 0)
        // Delays long enough to push an sp a whole tick (200 elements)
        // or more behind its segment — past the reorder buffer's slack.
        .with(Fault::DelaySp, 0.15, 450)
        .with(Fault::Reorder, 0.05, 4)
        .with(Fault::Corrupt, 0.000_02, 0);
    let mut injector = FaultInjector::new(plan);
    let faulty = injector.apply(&input);

    // Wire-level faults: frame the stream and flip bytes; the decoder
    // resynchronizes past corrupted frames and counts them.
    let mut bytes = Vec::new();
    let mut max_frame = 0;
    for chunk in faulty.chunks(16) {
        let elems: Vec<_> = chunk.iter().map(|(_, e)| e.clone()).collect();
        let start = bytes.len();
        Message::new(workload.stream, elems).encode(&mut bytes);
        max_frame = max_frame.max(bytes.len() - start);
    }
    injector.corrupt(&mut bytes);
    // Capped at the largest frame actually sent, so a corrupted length
    // field is refused at once instead of swallowing the frames behind it.
    let mut decoder = StreamDecoder::new(max_frame);
    let frames = decoder.feed(&bytes);
    // A recorded buffer has no more bytes coming: whatever the decoder
    // still holds is one truncated frame, lost like any corrupted one.
    let truncated = decoder.buffered();

    // A K-slack reorder buffer restores timestamp order, dropping
    // hopelessly late arrivals, before the hardened analyzer.
    let mut b = PlanBuilder::new(catalog);
    let src = b.source(workload.stream, workload.schema.clone());
    // The workload ticks every 50 ms, so a 40 ms policy TTL means a lost
    // tick-opening sp strands its tuples on the previous tick's policy —
    // exactly the case that must quarantine rather than inherit.
    b.harden_source(src, QuarantinePolicy { ttl_ms: 40, slack_ms: 100, capacity: 1_024 });
    let ss = b.add(SecurityShield::new(RoleSet::from([0])), src);
    let sink = b.sink(ss);
    let mut exec = b.build();

    let mut reorder = ReorderBuffer::new(25);
    let mut ordered = Vec::new();
    for frame in frames {
        let WireFrame::Message(msg) = frame else { continue };
        for elem in msg.elements {
            reorder.push(elem, &mut ordered);
        }
    }
    reorder.flush(&mut ordered);
    let mut engine_errors = 0u64;
    for elem in ordered {
        if exec.push(workload.stream, elem).is_err() {
            engine_errors += 1;
        }
    }
    if exec.finish().is_err() {
        engine_errors += 1;
    }

    let mut deg: DegradationStats = exec.degradation();
    deg.reorder_dropped = reorder.dropped;
    deg.corrupted_frames = decoder.corrupted_frames + u64::from(truncated > 0);

    println!("\nFig 7r: fail-closed degradation under a hostile replay");
    println!("  faults injected     {}", injector.total());
    println!("  wire bytes skipped  {}", decoder.skipped_bytes + truncated as u64);
    println!("  engine errors       {engine_errors}");
    println!("  {deg}");
    println!(
        "  released {} of {} tuples; total refused (fail-closed): {}",
        exec.sink(sink).tuple_count(),
        workload.tuples,
        deg.total_dropped(),
    );

    recovery_report();
}

/// Crash-recovery degradation: the Fig. 7 workload under a crash
/// supervisor that loses the whole pipeline at three separate points.
fn recovery_report() {
    let catalog = catalog(128);
    let workload = fig7_workload(10, 3, 0.5, 42);
    let input: Vec<(StreamId, sp_core::StreamElement)> =
        workload.elements.iter().map(|e| (workload.stream, e.clone())).collect();
    let stream = workload.stream;
    let schema = &workload.schema;
    let build_with_sink = || {
        let mut b = PlanBuilder::new(catalog.clone());
        let src = b.source(stream, schema.clone());
        b.harden_source(src, QuarantinePolicy { ttl_ms: 40, slack_ms: 100, capacity: 1_024 });
        let ss = b.add(SecurityShield::new(RoleSet::from([0])), src);
        let sink = b.sink(ss);
        (b, sink)
    };
    let builder = || build_with_sink().0;
    // SinkRefs are positional, so one taken from an identically-built plan
    // addresses the same sink in every builder() executor.
    let (_, sink) = build_with_sink();
    let cfg = SupervisorConfig::default();

    // Crash recovery: kill the pipeline at three spread-out positions;
    // each death drops the live executor and restores the last durable
    // checkpoint, replaying the epoch's input from the source log.
    let len = input.len() as u64;
    let mut pending = vec![len / 4, len / 2, 3 * len / 4];
    let mut oracle = move |_e: u64, p: u64| {
        if pending.first().is_some_and(|&k| p == k) {
            pending.remove(0);
            return true;
        }
        false
    };
    let mut store = MemStore::default();
    let run = run_supervised(builder, &input, &cfg, &mut store, &mut oracle)
        .expect("in-memory store never fails");
    let deg = run.degradation();

    println!("\nFig 7r: crash recovery under supervision (3 injected kills)");
    println!("  run completed       {}", run.completed());
    println!(
        "  released            {} of {} tuples",
        run.executor.sink(sink).tuple_count(),
        workload.tuples
    );
    println!("  {deg}");
    let row = |metric: &'static str, measured: f64| Row {
        experiment: "fig7r",
        param: "recovery",
        value: "3-kills".into(),
        series: "supervised".into(),
        metric,
        measured,
        spread: None,
    };
    log_rows(&[
        row("checkpoints_taken", deg.checkpoints_taken as f64),
        row("checkpoints_restored", deg.checkpoints_restored as f64),
        row("epochs_replayed", deg.epochs_replayed as f64),
        row("recovery_dropped", deg.recovery_dropped as f64),
        row("restart_attempts", deg.restart_attempts as f64),
        // Overload counters ride along so the report shape matches the
        // fig10 sweep; this plan has no shedder or admission control, so
        // nonzero values here would flag a regression.
        row("shed_tuples", deg.shed_tuples as f64),
        row("admission_rejected", deg.admission_rejected as f64),
        row("overload_peak", deg.overload_peak as f64),
    ]);
}

/// Column header for a mechanism.
fn short_name(name: &'static str) -> &'static str {
    match name {
        "store-and-probe" => "store-probe",
        "tuple-embedded" => "tuple-embed",
        other => other,
    }
}

/// Figures 7a (output rate) and 7b (processing cost per tuple).
fn ratio_sweep(output_rate: bool) {
    let catalog = catalog(128);
    let mut table = Vec::new();
    let mut rows = Vec::new();
    let mut header: Vec<&str> = vec!["sp:tuple"];
    let mut names_done = false;
    for ratio in RATIOS {
        let workload = fig7_workload(ratio, 3, 0.5, 42 + ratio as u64);
        let mut line = vec![format!("1/{ratio}")];
        for idx in 0..3usize {
            let timed = timed_mechanism(&catalog, &workload, idx);
            let name = timed.run.name;
            if !names_done {
                header.push(short_name(name));
            }
            let cell = timed.spread(|elapsed| {
                if output_rate {
                    // tuples processed per millisecond of mechanism time
                    workload.tuples as f64 / elapsed.as_secs_f64().max(1e-9) / 1000.0
                } else {
                    us_per(elapsed, workload.tuples as u64)
                }
            });
            line.push(cell.cell(2));
            rows.push(Row {
                experiment: if output_rate { "fig7a" } else { "fig7b" },
                param: "sp_ratio",
                value: format!("1/{ratio}"),
                series: name.to_owned(),
                metric: if output_rate { "tuples_per_ms" } else { "us_per_tuple" },
                measured: cell.median,
                spread: Some((cell.low, cell.high)),
            });
        }
        names_done = true;
        table.push(line);
    }
    let title = if output_rate {
        "Fig 7a: output rate (tuples/ms) vs sp:tuple ratio"
    } else {
        "Fig 7b: processing cost per tuple (µs) vs sp:tuple ratio"
    };
    print_table(title, &header, &table);
    log_rows(&rows);
}

/// Figures 7c (memory) and 7d (processing cost per 100 tuples).
fn policy_size_sweep(memory: bool) {
    let catalog = catalog(128);
    let mut table = Vec::new();
    let mut rows = Vec::new();
    let mut header: Vec<&str> = vec!["|R|"];
    let mut names_done = false;
    for size in POLICY_SIZES {
        let workload = fig7_workload(MEM_RATIO, size, 0.5, 99 + u64::from(size));
        let mut line = vec![format!("{size}")];
        for idx in 0..3usize {
            let timed = timed_mechanism(&catalog, &workload, idx);
            let name = timed.run.name;
            if !names_done {
                header.push(short_name(name));
            }
            // Policy memory is a count, the same in every run.
            let (measured, spread) = if memory {
                let kb = timed.run.policy_mem as f64 / 1024.0;
                line.push(format!("{kb:.1}"));
                (kb, None)
            } else {
                let cell = timed.spread(|e| us_per(e, workload.tuples as u64) * 100.0);
                line.push(cell.cell(1));
                (cell.median, Some((cell.low, cell.high)))
            };
            rows.push(Row {
                experiment: if memory { "fig7c" } else { "fig7d" },
                param: "policy_size",
                value: size.to_string(),
                series: name.to_owned(),
                metric: if memory { "policy_kb" } else { "us_per_100_tuples" },
                measured,
                spread,
            });
        }
        names_done = true;
        table.push(line);
    }
    let title = if memory {
        "Fig 7c: policy memory (KB) vs policy size |R| (sp:tuple = 1/10)"
    } else {
        "Fig 7d: processing cost per 100 tuples (µs) vs policy size |R|"
    };
    print_table(title, &header, &table);
    log_rows(&rows);
}
