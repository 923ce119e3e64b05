//! Failover drill: kill the primary under a multi-tenant soak, promote
//! the standby, and prove nothing was lost in the switch.
//!
//! A fleet of tenants replays punctuated location streams through a
//! replicating `sp-server` primary. Two thirds of the way through the
//! stream the primary is hard-killed (no final checkpoints — a crash),
//! the standby is promoted under a higher fencing epoch, and every
//! client re-homes to it through its `failover` address, resuming from
//! the server-authoritative `HelloAck` cursor. The run must show:
//!
//! * **zero sp loss** — every security punctuation in the replayed tail
//!   is re-ingested by the promoted node; none vanish in the switch;
//! * **exactly-once data** — every tenant's cursor ends at its input
//!   length despite the crash and re-home;
//! * **byte-identical audit trail** — each promoted tenant's audit
//!   equals an unfailed control resumed from the same replicated
//!   checkpoint: failover adds zero divergence over plain recovery;
//! * **identical policy state** — analyzer and operator bytes of the
//!   promoted drain checkpoint match the control's cut.
//!
//! A lint, not a measurement: it prints counters, times nothing and
//! exits nonzero on any violation, so CI can gate on it.
//!
//! Usage: `cargo run --release -p sp-bench --bin failover_drill [-- tenants]`

use std::sync::Arc;
use std::time::Instant;

use sp_core::{StreamElement, StreamId};
use sp_engine::{Checkpoint, CheckpointStore, MemStore, TelemetryConfig};
use sp_mog::{location_stream, MovingObjectSim, WorkloadConfig};
use sp_query::Dsms;
use sp_server::{
    ClientConfig, LoadClient, Server, ServerConfig, SessionFactory, Standby, StoreMap,
};

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
        dsms.telemetry = Some(TelemetryConfig::enabled());
        dsms
    })
}

fn tenant_input(tenant: u32) -> Vec<(StreamId, StreamElement)> {
    let w = location_stream(&WorkloadConfig {
        objects: 40,
        ticks: 20,
        sp_every: 8,
        grant_selectivity: 0.6,
        seed: 300 + u64::from(tenant),
        ..WorkloadConfig::default()
    });
    w.elements.into_iter().map(|e| (w.stream, e)).collect()
}

/// The unfailed control: resume from the replicated checkpoint, replay
/// the input tail, capture released/audit and a fresh policy cut.
struct Control {
    released: Vec<(u32, Vec<String>)>,
    audit: Vec<u8>,
    analyzers: Vec<Vec<u8>>,
    nodes: Vec<Vec<u8>>,
    tail_sps: u64,
}

fn control(
    f: &SessionFactory,
    tenant: u32,
    ckpt: Option<&Checkpoint>,
    input: &[(StreamId, StreamElement)],
) -> Control {
    let dsms = f(tenant);
    let mut store = MemStore::new();
    if let Some(c) = ckpt {
        store.save(c).expect("mem save");
    }
    let mut running = dsms.resume(&store).expect("replicated checkpoint resumes");
    let from = usize::try_from(running.input_pos()).expect("pos fits").min(input.len());
    let tail_sps =
        input[from..].iter().filter(|(_, e)| matches!(e, StreamElement::Punctuation(_))).count()
            as u64;
    for (s, e) in &input[from..] {
        let _ = running.try_push(*s, e.clone());
    }
    let released = dsms
        .queries()
        .iter()
        .map(|q| (q.id.raw(), running.results(q.id).tuples().map(|t| t.to_string()).collect()))
        .collect();
    let audit = running.audit_trail().encode_to_vec();
    let mut cut = MemStore::new();
    running.checkpoint_to(u64::MAX, &mut cut).expect("control cut");
    let fin = cut.load_latest().expect("control cut loads");
    Control { released, audit, analyzers: fin.analyzers, nodes: fin.nodes, tail_sps }
}

fn main() {
    let tenants: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(24);
    let f = factory();

    let standby = Standby::start(Arc::clone(&f), StoreMap::new(), false).expect("standby binds");
    let cfg = ServerConfig {
        max_conns: 512,
        checkpoint_every_frames: 8,
        replicate_to: Some(standby.repl_addr),
        ..ServerConfig::default()
    };
    let primary = Server::start(cfg, Arc::clone(&f), StoreMap::new()).expect("primary binds");
    let primary_addr = primary.addr;

    // Phase 1: the soak — every tenant delivers two thirds of its stream
    // to the replicating primary.
    let mut joins = Vec::new();
    for tenant in 0..tenants {
        let input = tenant_input(tenant);
        joins.push(std::thread::spawn(move || {
            let part = &input[..input.len() * 2 / 3];
            let client = LoadClient::new(ClientConfig {
                tenant,
                frame_elements: 8,
                ..ClientConfig::default()
            });
            (tenant, client.run(primary_addr, part))
        }));
    }
    let mut violations: Vec<String> = Vec::new();
    for j in joins {
        let (tenant, r) = j.join().expect("client thread");
        if !r.completed {
            violations.push(format!("tenant {tenant}: phase-1 client did not complete: {r:?}"));
        }
    }
    // Let asynchronous shipping settle — wait until every tenant has a
    // checkpoint applied at the standby (bounded; the kill is safe
    // regardless, it just makes the drill's recovery path substantial).
    let settle = Instant::now();
    while standby.applied_epochs().len() < tenants as usize
        && settle.elapsed() < std::time::Duration::from_secs(15)
    {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let max_lag = primary.replication_lag().iter().map(|(_, l)| *l).max().unwrap_or(0);
    let killed = primary.kill();
    let repl_frames = killed.repl_frames_shipped;

    // The replicated state as of the crash: per-tenant checkpoints the
    // promoted node will resume from, and the unfailed controls.
    let repl_stores = standby.stores();
    let mut controls = Vec::new();
    let mut applied = 0u32;
    for tenant in 0..tenants {
        let input = tenant_input(tenant);
        let ckpt = repl_stores.store(tenant).load_latest();
        if ckpt.is_some() {
            applied += 1;
        }
        controls.push((tenant, control(&f, tenant, ckpt.as_ref(), &input), input));
    }
    if applied < tenants {
        violations.push(format!(
            "only {applied} of {tenants} tenant checkpoints reached the standby before the kill"
        ));
    }

    // Promote and re-home the fleet: each client targets the dead
    // primary first and fails over to the promoted standby.
    let promoted = standby
        .promote(ServerConfig { max_conns: 512, ..ServerConfig::default() })
        .expect("promotion");
    let promoted_addr = promoted.addr;

    let mut joins = Vec::new();
    for tenant in 0..tenants {
        let input = tenant_input(tenant);
        joins.push(std::thread::spawn(move || {
            let client = LoadClient::new(ClientConfig {
                tenant,
                frame_elements: 8,
                failover: Some(promoted_addr),
                ..ClientConfig::default()
            });
            (tenant, client.run(primary_addr, &input))
        }));
    }
    let mut failovers = 0u64;
    for j in joins {
        let (tenant, r) = j.join().expect("client thread");
        failovers += u64::from(r.failovers);
        if !r.completed {
            violations.push(format!("tenant {tenant}: phase-2 client did not complete: {r:?}"));
        }
        if r.failovers != 1 {
            violations.push(format!("tenant {tenant}: expected exactly one failover: {r:?}"));
        }
    }

    let report = promoted.drain();
    if !report.clean {
        violations.push("promoted drain was not clean".to_string());
    }
    if report.fencing_epoch < 2 {
        violations.push(format!("promoted fencing epoch {} < 2", report.fencing_epoch));
    }
    let mut audit_identical = 0u32;
    for (tenant, ctl, input) in &controls {
        let Some(t) = report.tenant(*tenant) else {
            violations.push(format!("tenant {tenant}: no drain report from promoted node"));
            continue;
        };
        if t.input_pos != input.len() as u64 {
            violations.push(format!(
                "tenant {tenant}: cursor {} != input {} (duplicate or hole)",
                t.input_pos,
                input.len()
            ));
        }
        if t.sps_ingested != ctl.tail_sps {
            violations.push(format!(
                "tenant {tenant}: SP LOSS — {} of {} replayed sps ingested",
                t.sps_ingested, ctl.tail_sps
            ));
        }
        if t.audit != ctl.audit {
            violations.push(format!("tenant {tenant}: audit trail diverged from control"));
        } else {
            audit_identical += 1;
        }
        if t.released != ctl.released {
            violations.push(format!("tenant {tenant}: released set diverged from control"));
        }
        match repl_stores.store(*tenant).load_latest() {
            Some(fin) => {
                if fin.analyzers != ctl.analyzers {
                    violations.push(format!("tenant {tenant}: policy-table bytes diverged"));
                }
                if fin.nodes != ctl.nodes {
                    violations.push(format!("tenant {tenant}: operator-state bytes diverged"));
                }
            }
            None => violations.push(format!("tenant {tenant}: no drain checkpoint")),
        }
    }

    println!("failover drill: {tenants} tenants, primary killed at 2/3 of the stream");
    println!("  repl frames shipped{repl_frames:>10}");
    println!("  repl lag at kill   {max_lag:>10} epochs (max over tenants)");
    println!("  tenants replicated {applied:>10}");
    println!("  client failovers   {failovers:>10}");
    println!("  audit identical    {audit_identical:>10} / {tenants}");
    println!("  clean drain        {:>10}", report.clean);

    if !violations.is_empty() {
        eprintln!("\n{} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("OK: zero sp loss, exactly-once re-home, byte-identical audit, clean drain.");
}
