//! Server soak: the network front door at 2× admission capacity under a
//! disconnect storm.
//!
//! A fleet of tenants replays punctuated location streams through
//! `sp-server`, each client deliberately dropping its connection every
//! few frames (and reconnecting through the `HelloAck` cursor), while
//! per-tenant stream-time admission control is provisioned at half the
//! offered rate. The run must show, despite all of that:
//!
//! * **zero sp loss** — policy punctuations bypass shedding, so every
//!   tenant ingests exactly the sps its client offered;
//! * **exactly-once data** — every tenant's cursor ends at its input
//!   length: reconnects never duplicate or drop elements;
//! * **liveness** — the server-side p99 frame handling time (decode →
//!   admission verdict → reply, from the server's own histogram) stays
//!   under a 500 ms bound: a wedged tenant fails the run, a slow host
//!   does not;
//! * **clean drain** — every tenant checkpoints on shutdown.
//!
//! A lint, not a measurement: it prints counters, times nothing (the
//! server's throughput and latency are `perfbench/`'s end-to-end rows)
//! and exits nonzero on any violation, so CI can gate on it.
//!
//! Usage: `cargo run --release -p sp-bench --bin server_load [-- tenants]`

use std::sync::Arc;

use sp_core::{StreamElement, StreamId};
use sp_engine::{AdmissionConfig, TelemetryConfig};
use sp_mog::{location_stream, MovingObjectSim, WorkloadConfig};
use sp_query::Dsms;
use sp_server::{ClientConfig, LoadClient, Server, ServerConfig, SessionFactory, StoreMap};

/// Liveness bound on the server-side p99 frame handling time, microseconds.
const P99_BOUND_US: u64 = 500_000;

fn factory() -> SessionFactory {
    Arc::new(|tenant: u32| {
        let mut dsms = Dsms::new();
        dsms.register_stream(StreamId(1), MovingObjectSim::location_schema())
            .expect("stream registers");
        dsms.register_role("analyst").expect("role registers");
        let subject = dsms
            .register_subject(&format!("tenant-{tenant}"), &["analyst"])
            .expect("subject registers");
        dsms.submit("SELECT obj_id, speed FROM LocationUpdates WHERE speed >= 5.0", subject)
            .expect("query plans");
        // Clients restamp at 1 ms/element (1000 elements per stream
        // second); 500 tokens/s provisions exactly half the offered
        // rate — the soak runs at 2× admission capacity.
        dsms.admission =
            Some(AdmissionConfig { tokens_per_sec: 500, burst: 64, enqueue_deadline_ms: 20 });
        dsms.telemetry = Some(TelemetryConfig::enabled());
        dsms
    })
}

fn main() {
    let tenants: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(24);

    let cfg =
        ServerConfig { max_conns: 512, checkpoint_every_frames: 32, ..ServerConfig::default() };
    let handle = Server::start(cfg, factory(), StoreMap::new()).expect("server binds");
    let addr = handle.addr;

    let mut joins = Vec::new();
    let mut expected: Vec<(u32, usize, usize)> = Vec::new(); // tenant, elements, sps
    for tenant in 0..tenants {
        let w = location_stream(&WorkloadConfig {
            objects: 40,
            ticks: 20,
            sp_every: 8,
            grant_selectivity: 0.6,
            seed: 100 + u64::from(tenant),
            ..WorkloadConfig::default()
        });
        expected.push((tenant, w.elements.len(), w.sps));
        let input: Vec<(StreamId, StreamElement)> =
            w.elements.into_iter().map(|e| (w.stream, e)).collect();
        joins.push(std::thread::spawn(move || {
            let client = LoadClient::new(ClientConfig {
                tenant,
                frame_elements: 8,
                restamp_tick_ms: 1,
                disconnect_every_frames: 2, // the storm
                max_reconnects: 10_000,
                ..ClientConfig::default()
            });
            (tenant, client.run(addr, &input))
        }));
    }

    let mut violations: Vec<String> = Vec::new();
    let mut reconnects = 0u64;
    let mut overloads = 0u64;
    for j in joins {
        let (tenant, r) = j.join().expect("client thread");
        reconnects += u64::from(r.reconnects);
        overloads += r.overloads;
        if !r.completed {
            violations.push(format!("tenant {tenant}: client did not complete: {r:?}"));
        }
        if r.quarantined.is_some() {
            violations.push(format!("tenant {tenant}: unexpected quarantine: {r:?}"));
        }
    }

    let report = handle.drain();
    if !report.clean {
        violations.push("drain was not clean".to_string());
    }
    let mut shed_total = 0u64;
    for (tenant, elements, sps) in &expected {
        let Some(t) = report.tenant(*tenant) else {
            violations.push(format!("tenant {tenant}: no drain report"));
            continue;
        };
        if t.sps_ingested != *sps as u64 {
            violations.push(format!(
                "tenant {tenant}: SP LOSS — {} of {} sps ingested",
                t.sps_ingested, sps
            ));
        }
        if t.input_pos != *elements as u64 {
            violations.push(format!(
                "tenant {tenant}: cursor {} != input {elements} (duplicate or hole)",
                t.input_pos
            ));
        }
        if t.quarantined {
            violations.push(format!("tenant {tenant}: quarantined at drain"));
        }
        if t.checkpoints_taken == 0 {
            violations.push(format!("tenant {tenant}: no checkpoint taken"));
        }
        shed_total += t.admission_rejected;
    }
    if report.connections_total < 1_000 {
        violations.push(format!(
            "only {} connections — the storm must exercise >= 1000",
            report.connections_total
        ));
    }
    let p99 = report.latency.percentile(99.0);
    if p99 > P99_BOUND_US {
        violations.push(format!("p99 frame handling {p99}us exceeds {P99_BOUND_US}us"));
    }
    if shed_total == 0 {
        violations.push("no shedding at 2x capacity — the limit never bound".to_string());
    }

    println!("server soak: {tenants} tenants at 2x admission capacity, disconnect storm");
    println!("  connections        {:>10}", report.connections_total);
    println!("  reconnects         {reconnects:>10}");
    println!("  frames             {:>10}", report.frames);
    println!("  overload replies   {overloads:>10}");
    println!("  tuples shed        {shed_total:>10}");
    println!("  liveness bound     {:>10}", if p99 > P99_BOUND_US { "BROKEN" } else { "held" });
    println!("  clean drain        {:>10}", report.clean);

    if !violations.is_empty() {
        eprintln!("\n{} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("OK: zero sp loss, exactly-once delivery, liveness bound held, clean drain.");
}
