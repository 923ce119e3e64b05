//! Network replay: policies ride in the same message as the data, and
//! the stream round-trips through the real TCP front door.
//!
//! The paper's premise (§I-B) is that devices inject punctuations into
//! the data channel itself — "the policies can be encoded into a compact
//! format, and in most cases can be included into the same network
//! message with the data". This example:
//!
//! 1. simulates moving objects and *frames* their punctuated stream into
//!    wire [`Message`]s (what devices would transmit), reporting the
//!    measured policy overhead on the wire,
//! 2. starts the multi-tenant `sp-server` on a loopback port and replays
//!    the frames through it with the real [`LoadClient`],
//! 3. scrapes the server's `/metrics` (Prometheus text exposition) and
//!    `/healthz` endpoints while it runs,
//! 4. drains the server and verifies the released tuples and the audit
//!    trail are byte-identical to running the same session in memory.
//!
//! Run with: `cargo run --release --example network_replay`

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use sp_core::{wire::Message, StreamElement, StreamId};
use sp_engine::TelemetryConfig;
use sp_mog::{location_stream, MovingObjectSim, WorkloadConfig};
use sp_query::Dsms;
use sp_server::{ClientConfig, LoadClient, Server, ServerConfig, SessionFactory, StoreMap};

/// Tuples per network message (one device batch).
const BATCH: usize = 32;

/// Every tenant runs the same session: one analyst query over the
/// LocationUpdates stream, with telemetry (audit trail + metrics) armed.
fn session_factory() -> SessionFactory {
    Arc::new(|tenant: u32| {
        let mut dsms = Dsms::new();
        dsms.register_stream(StreamId(1), MovingObjectSim::location_schema())
            .expect("stream registers");
        dsms.register_role("analyst").expect("role registers");
        let subject = dsms
            .register_subject(&format!("tenant-{tenant}"), &["analyst"])
            .expect("subject registers");
        dsms.submit("SELECT obj_id, speed FROM LocationUpdates WHERE speed >= 10.0", subject)
            .expect("query plans");
        dsms.telemetry = Some(TelemetryConfig::enabled());
        dsms
    })
}

/// A minimal HTTP/1.0 GET against the observability listener.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("observability listener reachable");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("request writes");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("response reads");
    body
}

fn main() {
    // 1. Devices: generate the punctuated stream and frame it.
    let workload = location_stream(&WorkloadConfig {
        objects: 150,
        ticks: 30,
        sp_every: 10,
        grant_selectivity: 0.6,
        ..WorkloadConfig::default()
    });
    let messages: Vec<Message> = workload
        .elements
        .chunks(BATCH)
        .map(|chunk| Message::new(StreamId(1), chunk.to_vec()))
        .collect();
    let wire_bytes: usize = messages.iter().map(|m| m.encode_to_vec().len()).sum();
    let data_only: usize = messages
        .iter()
        .map(|m| {
            Message::new(m.stream, m.elements.iter().filter(|e| e.is_tuple()).cloned().collect())
                .encode_to_vec()
                .len()
        })
        .sum();
    println!(
        "{} elements ({} tuples, {} sps) framed into {} messages: {} KB on the wire",
        workload.elements.len(),
        workload.tuples,
        workload.sps,
        messages.len(),
        wire_bytes / 1024,
    );
    println!(
        "policy overhead vs data-only: {:.1}% — the sps ride along nearly for free",
        (wire_bytes - data_only) as f64 / data_only as f64 * 100.0
    );

    // 2. In-memory reference run: what the server must reproduce.
    let factory = session_factory();
    let dsms = factory(0);
    let mut reference = dsms.start();
    for e in &workload.elements {
        let _ = reference.try_push(StreamId(1), e.clone());
    }
    let want: Vec<String> = dsms
        .queries()
        .iter()
        .flat_map(|q| reference.results(q.id).tuples().map(|t| t.to_string()))
        .collect();
    let want_audit = reference.audit_trail().encode_to_vec();

    // 3. The real server, on a loopback port, with observability on.
    let cfg = ServerConfig { metrics: true, ..ServerConfig::default() };
    let handle = Server::start(cfg, Arc::clone(&factory), StoreMap::new()).expect("server binds");
    println!("server on {} (metrics on {:?})", handle.addr, handle.metrics_addr);

    let input: Vec<(StreamId, StreamElement)> =
        workload.elements.iter().map(|e| (StreamId(1), e.clone())).collect();
    let report = LoadClient::new(ClientConfig { frame_elements: BATCH, ..ClientConfig::default() })
        .run(handle.addr, &input);
    assert!(report.completed, "client must deliver every element: {report:?}");

    // 4. Scrape the observability endpoints while the server is live.
    let metrics_addr = handle.metrics_addr.expect("metrics listener is on");
    let health = http_get(metrics_addr, "/healthz");
    assert!(health.contains("200 OK") && health.contains("ok tenants=1"), "{health}");
    println!("healthz: ready");
    let metrics = http_get(metrics_addr, "/metrics");
    assert!(metrics.contains("sp_server_frames_total"), "server counters exposed");
    assert!(metrics.contains("sp_tuples_in_total"), "per-tenant engine counters exposed");
    let interesting: Vec<&str> = metrics
        .lines()
        .filter(|l| !l.starts_with('#') && (l.contains("frames") || l.contains("tuples")))
        .take(4)
        .collect();
    println!("metrics sample:");
    for line in interesting {
        println!("  {line}");
    }

    // 5. Drain and verify against the in-memory run.
    let drained = handle.drain();
    assert!(drained.clean, "graceful drain must checkpoint every tenant");
    let tenant = drained.tenant(0).expect("tenant 0 drained");
    let got: Vec<String> = tenant.released.iter().flat_map(|(_, v)| v.iter().cloned()).collect();
    println!(
        "released to the analyst query: {} fast-moving updates (loopback) / {} (in-memory)",
        got.len(),
        want.len()
    );
    assert_eq!(got, want, "loopback must reproduce the in-memory results exactly");
    assert_eq!(tenant.audit, want_audit, "audit trail must be byte-identical");
    assert!(!got.is_empty());
    println!("OK: wire round-trip through the live server reproduces the in-memory run.");
}
