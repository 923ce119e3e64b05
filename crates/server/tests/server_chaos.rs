//! Chaos suite for the network front door.
//!
//! Every test compares a server round-trip against the same session run
//! in memory, under some combination of socket-level faults: torn
//! frames, injected garbage, byte corruption, stalls, mid-stream
//! disconnects, reconnect storms, worker panics, and hard server kills.
//!
//! The invariants are the paper's, lifted to the transport:
//!
//! * **fail closed** — the released set under faults is a subset of the
//!   fault-free baseline; corruption can lose results, never leak them;
//! * **tenant isolation** — a misbehaving client perturbs only its own
//!   tenant, byte-for-byte;
//! * **exactly-once** — reconnect storms and kill/resume reproduce the
//!   baseline exactly (and deterministically), never duplicating or
//!   inventing releases.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use sp_core::wire::Message;
use sp_core::{QuarantineCode, StreamElement, StreamId};
use sp_engine::{AdmissionConfig, FaultInjector, FaultSchedule, SocketEvent, TelemetryConfig};
use sp_mog::{location_stream, MovingObjectSim, WorkloadConfig};
use sp_query::Dsms;
use sp_server::{
    ChaosPanic, ClientConfig, LoadClient, Server, ServerConfig, SessionFactory, StoreMap,
};

// ---------------------------------------------------------------- helpers

/// A per-tenant session over the moving-objects stream: one analyst
/// query, telemetry on, optional stream-time admission control.
fn factory(tokens_per_sec: Option<u64>) -> SessionFactory {
    Arc::new(move |tenant: u32| {
        let mut dsms = Dsms::new();
        dsms.register_stream(StreamId(1), MovingObjectSim::location_schema()).unwrap();
        dsms.register_role("analyst").unwrap();
        let subject = dsms.register_subject(&format!("tenant-{tenant}"), &["analyst"]).unwrap();
        dsms.submit("SELECT obj_id, speed FROM LocationUpdates WHERE speed >= 5.0", subject)
            .unwrap();
        dsms.admission = tokens_per_sec.map(|tps| AdmissionConfig {
            tokens_per_sec: tps,
            burst: 32,
            enqueue_deadline_ms: 20,
        });
        dsms.telemetry = Some(TelemetryConfig::enabled());
        dsms
    })
}

fn workload_input(seed: u64) -> Vec<(StreamId, StreamElement)> {
    let w = location_stream(&WorkloadConfig {
        objects: 40,
        ticks: 20,
        sp_every: 8,
        grant_selectivity: 0.6,
        seed,
        ..WorkloadConfig::default()
    });
    w.elements.into_iter().map(|e| (w.stream, e)).collect()
}

struct Baseline {
    released: Vec<(u32, Vec<String>)>,
    audit: Vec<u8>,
}

/// The fault-free in-memory run the server must reproduce (or release a
/// subset of, under faults).
fn baseline(
    factory: &SessionFactory,
    tenant: u32,
    input: &[(StreamId, StreamElement)],
) -> Baseline {
    let dsms = factory(tenant);
    let mut running = dsms.start();
    for (s, e) in input {
        let _ = running.try_push(*s, e.clone());
    }
    let released = dsms
        .queries()
        .iter()
        .map(|q| (q.id.raw(), running.results(q.id).tuples().map(|t| t.to_string()).collect()))
        .collect();
    Baseline { released, audit: running.audit_trail().encode_to_vec() }
}

fn released_sets(released: &[(u32, Vec<String>)]) -> Vec<HashSet<&str>> {
    released.iter().map(|(_, v)| v.iter().map(String::as_str).collect()).collect()
}

fn default_cfg() -> ServerConfig {
    ServerConfig { read_timeout_ms: 10, idle_timeout_ms: 5_000, ..ServerConfig::default() }
}

// ------------------------------------------------------------------ tests

#[test]
fn clean_loopback_matches_in_memory_baseline() {
    let f = factory(None);
    let input = workload_input(11);
    let want = baseline(&f, 0, &input);

    let handle = Server::start(default_cfg(), Arc::clone(&f), StoreMap::new()).unwrap();
    let r = LoadClient::new(ClientConfig::default()).run(handle.addr, &input);
    assert!(r.completed, "client must deliver everything: {r:?}");
    assert!(r.quarantined.is_none());

    let report = handle.drain();
    assert!(report.clean);
    let t = report.tenant(0).expect("tenant 0 drained");
    assert_eq!(t.input_pos, input.len() as u64);
    assert_eq!(t.released, want.released, "loopback must reproduce the in-memory run");
    assert_eq!(t.audit, want.audit, "audit trail must be byte-identical");
    assert!(!t.audit.is_empty(), "telemetry was on; the trail must be non-trivial");
}

#[test]
fn unresumable_tenant_starts_quarantined_and_says_why() {
    // A first incarnation leaves a durable checkpoint of a one-query plan.
    let f = factory(None);
    let input = workload_input(23);
    let stores = StoreMap::new();
    let handle = Server::start(default_cfg(), Arc::clone(&f), stores.clone()).unwrap();
    let r = LoadClient::new(ClientConfig::default()).run(handle.addr, &input);
    assert!(r.completed, "{r:?}");
    assert!(handle.drain().clean);

    // The next incarnation registers a second query: the checkpoint no
    // longer matches the plan shape, so the tenant must start quarantined
    // (fail closed) — and the handshake must report the real cause.
    let wider: SessionFactory = Arc::new(move |tenant: u32| {
        let mut dsms = f(tenant);
        let subject = dsms.register_subject("second", &["analyst"]).unwrap();
        dsms.submit("SELECT obj_id FROM LocationUpdates", subject).unwrap();
        dsms
    });
    let handle = Server::start(default_cfg(), wider, stores).unwrap();
    let r = LoadClient::new(ClientConfig::default()).run(handle.addr, &input);
    assert_eq!(r.quarantined, Some(QuarantineCode::ResumeFailed), "{r:?}");
    let report = handle.drain();
    let t = report.tenant(0).expect("tenant 0 reported");
    assert_eq!(t.quarantine_code, Some(QuarantineCode::ResumeFailed));
    assert!(t.released.iter().all(|(_, v)| v.is_empty()), "a refused resume releases nothing");
}

#[test]
fn reconnect_storm_is_exactly_once() {
    let f = factory(None);
    let input = workload_input(12);
    let want = baseline(&f, 0, &input);

    let handle = Server::start(default_cfg(), Arc::clone(&f), StoreMap::new()).unwrap();
    let r = LoadClient::new(ClientConfig {
        disconnect_every_frames: 3,
        max_reconnects: 256,
        ..ClientConfig::default()
    })
    .run(handle.addr, &input);
    assert!(r.completed, "storming client must still deliver everything: {r:?}");
    assert!(r.reconnects >= 10, "the storm must actually storm: {r:?}");

    let report = handle.drain();
    let t = report.tenant(0).unwrap();
    // Connection churn never touches the engine: byte-identical, not
    // merely a subset.
    assert_eq!(t.released, want.released);
    assert_eq!(t.audit, want.audit, "audit must be byte-identical across a reconnect storm");
    assert_eq!(t.input_pos, input.len() as u64, "cursor replay must deliver exactly once");
}

/// Writes a scripted byte delivery (tearing, garbage, corruption,
/// stalls, possibly a mid-delivery disconnect) for one tenant, after a
/// clean handshake. Returns once the script ends or the server closes.
fn raw_faulty_client(addr: std::net::SocketAddr, tenant: u32, payload: &[u8], seed: u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
    stream.write_all(&sp_core::Control::Hello { tenant, acked: 0 }.encode_to_vec()).unwrap();
    let mut injector = FaultInjector::new(FaultSchedule::socket(seed));
    let mut sink = [0u8; 4096];
    for event in injector.deliver(payload) {
        match event {
            SocketEvent::Deliver(chunk) => {
                if stream.write_all(&chunk).is_err() {
                    return; // server closed (e.g. quarantine) — fine
                }
                let _ = stream.read(&mut sink); // drain replies, ignore
            }
            SocketEvent::StallMs(ms) => std::thread::sleep(Duration::from_millis(ms.min(30))),
            SocketEvent::Disconnect => return,
        }
    }
}

#[test]
fn torn_frames_and_garbage_release_a_subset() {
    let f = factory(None);
    let input = workload_input(13);
    let want = baseline(&f, 0, &input);
    let want_sets = released_sets(&want.released);

    // One contiguous byte payload: every element framed in small batches.
    let mut payload = Vec::new();
    for chunk in input.chunks(8) {
        let msg = Message {
            stream: chunk[0].0,
            elements: chunk.iter().map(|(_, e)| e.clone()).collect(),
        };
        payload.extend_from_slice(&msg.encode_to_vec());
    }

    for seed in [1u64, 2, 3, 4] {
        let cfg = ServerConfig { garbage_quarantine: 1_000, ..default_cfg() };
        let handle = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();
        raw_faulty_client(handle.addr, 0, &payload, seed);
        let report = handle.drain();
        let t = report.tenant(0).expect("tenant 0 existed");
        let got_sets = released_sets(&t.released);
        assert_eq!(got_sets.len(), want_sets.len());
        for (got, want) in got_sets.iter().zip(&want_sets) {
            let leaked: Vec<&&str> = got.difference(want).collect();
            assert!(
                leaked.is_empty(),
                "seed {seed}: corruption leaked {} tuple(s) the clean run withheld: {leaked:?}",
                leaked.len(),
            );
        }
    }
}

#[test]
fn panicking_tenant_quarantines_only_itself() {
    let f = factory(None);
    let input = workload_input(14);
    let want = baseline(&f, 0, &input);

    let cfg =
        ServerConfig { chaos_panic: Some(ChaosPanic { tenant: 1, at_pos: 100 }), ..default_cfg() };
    let handle = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();

    let addr = handle.addr;
    let input0 = input.clone();
    let healthy = std::thread::spawn(move || {
        LoadClient::new(ClientConfig { tenant: 0, ..ClientConfig::default() }).run(addr, &input0)
    });
    let victim =
        LoadClient::new(ClientConfig { tenant: 1, ..ClientConfig::default() }).run(addr, &input);
    let healthy = healthy.join().unwrap();

    assert_eq!(victim.quarantined, Some(QuarantineCode::Panicked), "{victim:?}");
    assert!(!victim.completed);
    assert!(healthy.completed, "the neighbor must be untouched: {healthy:?}");

    let report = handle.drain();
    let t0 = report.tenant(0).unwrap();
    assert!(!t0.quarantined);
    assert_eq!(t0.released, want.released, "neighbor releases must be byte-identical");
    assert_eq!(t0.audit, want.audit, "neighbor audit must be byte-identical");
    let t1 = report.tenant(1).unwrap();
    assert!(t1.quarantined);
    assert_eq!(t1.quarantine_code, Some(QuarantineCode::Panicked));
    // Fail closed: the quarantined session reports no releases at all —
    // its untrusted post-panic state was dropped, not consulted.
    assert!(t1.released.is_empty());
}

#[test]
fn garbage_spewing_client_quarantines_only_its_tenant() {
    let f = factory(None);
    let input = workload_input(15);
    let want = baseline(&f, 0, &input);

    // A tight garbage budget so the spewer trips it quickly.
    let cfg = ServerConfig { garbage_quarantine: 3, ..default_cfg() };
    let handle = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();

    let addr = handle.addr;
    let input0 = input.clone();
    let healthy = std::thread::spawn(move || {
        LoadClient::new(ClientConfig { tenant: 0, ..ClientConfig::default() }).run(addr, &input0)
    });

    // Tenant 7: handshake, then pure byte garbage with embedded fake
    // magics and lying lengths.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&sp_core::Control::Hello { tenant: 7, acked: 0 }.encode_to_vec()).unwrap();
        let mut garbage = Vec::new();
        let mut x = 0xDEAD_BEEFu64;
        for _ in 0..32 * 1024 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            garbage.push((x >> 33) as u8);
        }
        let _ = stream.write_all(&garbage);
        let mut sink = [0u8; 4096];
        stream.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let _ = stream.read(&mut sink);
    }

    let healthy = healthy.join().unwrap();
    assert!(healthy.completed, "{healthy:?}");

    let report = handle.drain();
    assert!(report.corrupted_frames > 3, "the garbage must have registered");
    let t0 = report.tenant(0).unwrap();
    assert!(!t0.quarantined);
    assert_eq!(t0.released, want.released);
    assert_eq!(t0.audit, want.audit);
    let t7 = report.tenant(7).unwrap();
    assert!(t7.quarantined, "the spewer's tenant must fail closed");
    assert_eq!(t7.quarantine_code, Some(QuarantineCode::Garbage));
}

/// One full kill/resume round: deliver through `cut` frames, hard-kill,
/// restart over the same stores, let the client finish. Returns the
/// final tenant report.
fn kill_resume_round(
    f: &SessionFactory,
    input: &[(StreamId, StreamElement)],
) -> sp_server::TenantReport {
    let stores = StoreMap::new();
    let cfg = ServerConfig { checkpoint_every_frames: 4, ..default_cfg() };

    // Phase 1: deliver roughly half, then hard-kill the server.
    let handle = Server::start(cfg, Arc::clone(f), stores.clone()).unwrap();
    let half = &input[..input.len() / 2];
    let r1 = LoadClient::new(ClientConfig::default()).run(handle.addr, half);
    assert!(r1.completed, "{r1:?}");
    let killed = handle.kill();
    assert!(!killed.clean, "a kill is not a clean drain");

    // Phase 2: a new incarnation over the same stores; the client offers
    // the full input and the HelloAck cursor says where to resume.
    let handle = Server::start(cfg, Arc::clone(f), stores).unwrap();
    let r2 = LoadClient::new(ClientConfig::default()).run(handle.addr, input);
    assert!(r2.completed, "{r2:?}");
    let report = handle.drain();
    assert!(report.clean);
    report.tenant(0).unwrap().clone()
}

#[test]
fn kill_and_resume_reproduces_the_baseline_exactly() {
    let f = factory(None);
    let input = workload_input(16);
    let want = baseline(&f, 0, &input);

    let got = kill_resume_round(&f, &input);
    assert!(!got.quarantined);
    assert_eq!(got.input_pos, input.len() as u64, "no duplicates, no holes");
    assert!(got.checkpoints_taken > 0);
    // Recovery may lose results (the restored sink starts empty) but can
    // never invent or reorder them: policy state is restored byte-exactly
    // and replay is deterministic, so what the resumed session released
    // is exactly a suffix of the uninterrupted run's release sequence.
    assert_eq!(got.released.len(), want.released.len());
    for ((qid, got_seq), (want_qid, want_seq)) in got.released.iter().zip(&want.released) {
        assert_eq!(qid, want_qid);
        assert!(
            want_seq.ends_with(got_seq),
            "query {qid}: resumed releases must be a suffix of the baseline \
             (got {} baseline {})",
            got_seq.len(),
            want_seq.len(),
        );
        assert!(!got_seq.is_empty(), "the replayed tail must release something");
    }

    // And the whole chaotic scenario is deterministic: a second
    // identical kill/resume round produces a byte-identical audit trail.
    let again = kill_resume_round(&f, &input);
    assert_eq!(again.released, got.released);
    assert_eq!(again.audit, got.audit, "kill/resume must be deterministic, byte for byte");
}

#[test]
fn non_backing_off_client_is_shed_not_serviced() {
    // Tight stream-time admission: 200 tuples/s sustained. A client that
    // honors retry hints advances its virtual stream clock by each
    // backoff, refilling the bucket; a client that ignores hints hammers
    // the same stream-second and must lose tuples to shedding.
    let f = factory(Some(200));
    let input = workload_input(17);

    let run = |honor: bool, tenant: u32, addr| {
        LoadClient::new(ClientConfig {
            tenant,
            honor_retry_hints: honor,
            restamp_tick_ms: 1,
            frame_elements: 8,
            ..ClientConfig::default()
        })
        .run(addr, &input)
    };

    let handle = Server::start(default_cfg(), Arc::clone(&f), StoreMap::new()).unwrap();
    let polite = run(true, 0, handle.addr);
    let rude = run(false, 1, handle.addr);
    let report = handle.drain();

    assert!(polite.overloads > 0, "the limit must actually bind: {polite:?}");
    assert!(polite.backoff_events > 0);
    assert!(polite.completed);
    assert!(rude.completed, "the rude client finishes — by losing data, not gaining service");

    let t_polite = report.tenant(0).unwrap();
    let t_rude = report.tenant(1).unwrap();
    assert!(t_rude.admission_rejected > 0, "ignoring hints must cost tuples: {t_rude:?}");
    assert!(
        t_rude.admission_rejected * 2 > 800,
        "the rude client must lose most of its data: {t_rude:?}"
    );
    assert!(
        t_polite.admission_rejected * 2 < t_rude.admission_rejected,
        "backing off must pay: polite lost {} vs rude {}",
        t_polite.admission_rejected,
        t_rude.admission_rejected,
    );
    assert!(t_polite.tuples_ingested > t_rude.tuples_ingested);
    // Sps are never shed for either tenant: policy outruns load shedding.
    assert_eq!(t_polite.sps_ingested, t_rude.sps_ingested);
}

#[test]
fn frame_with_refusals_in_the_middle_is_consumed_whole() {
    // Three ticks of 40 same-instant tuples against 20 tokens per tick:
    // one frame whose refusals sit between admitted tuples and sps.
    let f = factory(Some(200));
    let elements: Vec<StreamElement> =
        workload_input(17).into_iter().take(130).map(|(_, e)| e).collect();

    // The in-memory run, element by element.
    let dsms = f(0);
    let mut running = dsms.start();
    let verdicts: Vec<bool> =
        elements.iter().map(|e| running.try_push(StreamId(1), e.clone()).is_ok()).collect();
    let first_refused = verdicts.iter().position(|ok| !ok).expect("the limit must bind");
    let behind = || elements[first_refused..].iter().zip(&verdicts[first_refused..]);
    assert!(behind().any(|(e, ok)| e.is_tuple() && *ok), "refusals must be mid-frame");
    assert!(behind().any(|(e, _)| !e.is_tuple()), "an sp must ride behind a refusal");
    let sps = elements.iter().filter(|e| !e.is_tuple()).count() as u64;
    let admitted = verdicts.iter().filter(|ok| **ok).count() as u64 - sps;
    let want: Vec<String> =
        running.results(dsms.queries()[0].id).tuples().map(|t| t.to_string()).collect();

    let handle = Server::start(default_cfg(), Arc::clone(&f), StoreMap::new()).unwrap();
    let mut stream = TcpStream::connect(handle.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut dec = sp_core::StreamDecoder::new(1 << 16);
    let mut buf = [0u8; 4096];
    let mut next_ctrl = |stream: &mut TcpStream| loop {
        let n = stream.read(&mut buf).expect("server reply");
        assert!(n > 0, "server closed the connection");
        if let Some(sp_core::WireFrame::Control(c)) = dec.feed(&buf[..n]).into_iter().next() {
            return c;
        }
    };
    stream.write_all(&sp_core::Control::Hello { tenant: 0, acked: 0 }.encode_to_vec()).unwrap();
    assert!(matches!(next_ctrl(&mut stream), sp_core::Control::HelloAck { resume_from: 0 }));
    stream.write_all(&Message { stream: StreamId(1), elements }.encode_to_vec()).unwrap();
    match next_ctrl(&mut stream) {
        sp_core::Control::Overloaded { retry_after_ms, pos } => {
            assert!(retry_after_ms > 0);
            assert_eq!(pos, 130, "shed tuples are consumed, not left for replay");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(stream);

    let report = handle.drain();
    let t = report.tenant(0).unwrap();
    assert_eq!(t.input_pos, 130);
    assert_eq!(t.sps_ingested, sps, "no sp of the frame is shed or skipped");
    assert_eq!(t.tuples_ingested, admitted);
    assert_eq!(t.admission_rejected, 130 - sps - admitted);
    assert_eq!(t.released, vec![(dsms.queries()[0].id.raw(), want)]);
}

#[test]
fn idle_connection_is_reaped_and_partial_frame_cannot_stall() {
    let cfg = ServerConfig { read_timeout_ms: 10, idle_timeout_ms: 80, ..ServerConfig::default() };
    let handle = Server::start(cfg, factory(None), StoreMap::new()).unwrap();

    // An idle connection and a connection holding a partial frame with a
    // header that promises more bytes than ever arrive.
    let idle = TcpStream::connect(handle.addr).unwrap();
    let mut partial = TcpStream::connect(handle.addr).unwrap();
    partial.write_all(&sp_core::Control::Hello { tenant: 0, acked: 0 }.encode_to_vec()).unwrap();
    let msg = Message { stream: StreamId(1), elements: Vec::new() }.encode_to_vec();
    partial.write_all(&msg[..msg.len().min(6)]).unwrap(); // header only

    // Both must be closed by the idle deadline, not held forever.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 256];
    partial.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    loop {
        match partial.read(&mut buf) {
            Ok(0) => break, // reaped
            Ok(_) => {}
            Err(_) if std::time::Instant::now() > deadline => {
                panic!("partial frame stalled past the idle deadline")
            }
            Err(_) => {}
        }
    }
    drop(idle);

    let report = handle.drain();
    assert!(report.idle_reaped >= 1, "{report:?}");
}

#[test]
fn connection_cap_refuses_loudly() {
    let cfg = ServerConfig { max_conns: 1, ..default_cfg() };
    let handle = Server::start(cfg, factory(None), StoreMap::new()).unwrap();

    // Occupy the only slot.
    let mut first = TcpStream::connect(handle.addr).unwrap();
    first.write_all(&sp_core::Control::Hello { tenant: 0, acked: 0 }.encode_to_vec()).unwrap();
    let mut buf = [0u8; 256];
    first.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
    let _ = first.read(&mut buf); // HelloAck

    // The second connection gets an explicit Overloaded, not silence.
    let mut second = TcpStream::connect(handle.addr).unwrap();
    second.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
    let mut dec = sp_core::StreamDecoder::new(1 << 16);
    let mut got_hint = false;
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while std::time::Instant::now() < deadline && !got_hint {
        match second.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                for frame in dec.feed(&buf[..n]) {
                    if let sp_core::WireFrame::Control(sp_core::Control::Overloaded {
                        retry_after_ms,
                        ..
                    }) = frame
                    {
                        assert!(retry_after_ms > 0);
                        got_hint = true;
                    }
                }
            }
            Err(_) => {}
        }
    }
    assert!(got_hint, "the cap must refuse with a retry hint");
    drop(first);
    drop(second);
    let report = handle.drain();
    assert!(report.conns_refused >= 1);
}

/// One raw connection to `tenant`: handshake, then deliver `frames` one
/// at a time, each awaiting its reply. Every client meets at `round`
/// before each frame, so frame k of every connection is in flight at
/// once. Returns the `Ack` position of every frame.
fn raw_lockstep_client(
    addr: std::net::SocketAddr,
    tenant: u32,
    frames: &[Vec<u8>],
    round: &std::sync::Barrier,
) -> Vec<u64> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut dec = sp_core::StreamDecoder::new(1 << 16);
    let mut buf = [0u8; 4096];
    let mut next_ctrl = |stream: &mut TcpStream| loop {
        let n = stream.read(&mut buf).expect("server reply");
        assert!(n > 0, "server closed the connection");
        if let Some(sp_core::WireFrame::Control(c)) = dec.feed(&buf[..n]).into_iter().next() {
            return c;
        }
    };
    stream.write_all(&sp_core::Control::Hello { tenant, acked: 0 }.encode_to_vec()).unwrap();
    assert!(matches!(next_ctrl(&mut stream), sp_core::Control::HelloAck { .. }));
    frames
        .iter()
        .map(|frame| {
            round.wait();
            stream.write_all(frame).unwrap();
            match next_ctrl(&mut stream) {
                sp_core::Control::Ack { pos } => pos,
                other => panic!("expected Ack, got {other:?}"),
            }
        })
        .collect()
}

#[test]
fn concurrent_connections_to_one_tenant_serialize_whole_frames() {
    const FRAME: usize = 8;
    const CLIENTS: u64 = 2;
    const TID_STRIDE: u64 = 1_000_000;
    // Each client offers the same stream shape under its own tid range,
    // every tuple with a tid of its own (the simulator reuses object ids).
    let offered = |client: u64| -> Vec<StreamElement> {
        workload_input(18)
            .into_iter()
            .enumerate()
            .map(|(i, (_, e))| match e {
                StreamElement::Tuple(t) => StreamElement::tuple(sp_core::Tuple::new(
                    t.sid,
                    sp_core::TupleId(client * TID_STRIDE + i as u64),
                    t.ts,
                    t.values().to_vec(),
                )),
                sp => sp,
            })
            .collect()
    };
    let inputs: Vec<Vec<StreamElement>> = (0..CLIENTS).map(offered).collect();
    let total: usize = inputs.iter().map(Vec::len).sum();
    let sps = inputs.iter().flatten().filter(|e| !e.is_tuple()).count();
    // tid → (client, frame index): the frame each tuple travelled in.
    let frame_of = |tid: u64| (tid / TID_STRIDE, (tid % TID_STRIDE) as usize / FRAME);

    let handle = Server::start(default_cfg(), factory(None), StoreMap::new()).unwrap();
    let addr = handle.addr;
    let round = std::sync::Barrier::new(inputs.len());
    let acks: Vec<Vec<u64>> = std::thread::scope(|s| {
        let clients: Vec<_> = inputs
            .iter()
            .map(|input| {
                let frames: Vec<Vec<u8>> = input
                    .chunks(FRAME)
                    .map(|c| Message { stream: StreamId(1), elements: c.to_vec() }.encode_to_vec())
                    .collect();
                let round = &round;
                s.spawn(move || raw_lockstep_client(addr, 0, &frames, round))
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });

    // Every frame moved the one cursor by exactly its own length: the
    // Ack positions of both connections together are distinct, and the
    // last one is the total offered.
    let mut all_acks: Vec<u64> = acks.iter().flatten().copied().collect();
    all_acks.sort_unstable();
    assert!(all_acks.windows(2).all(|w| w[0] < w[1]), "two frames were acked at one position");
    assert_eq!(all_acks.last().copied(), Some(total as u64));
    for per_conn in &acks {
        assert!(per_conn.windows(2).all(|w| w[0] < w[1]), "a connection's cursor went back");
    }

    // The shield's decisions, in order, from the audit trail.
    let audit = handle.audit_text();
    let decided: Vec<u64> = audit
        .lines()
        .take_while(|l| *l != "-- spans --")
        .filter_map(|l| l.split_once("] tuple ")?.1.split(' ').next()?.parse().ok())
        .collect();
    let report = handle.drain();
    assert!(report.clean);
    let t = report.tenant(0).unwrap();
    assert!(!t.quarantined);
    assert_eq!(t.input_pos, total as u64, "every offered element consumed exactly once");
    assert_eq!(t.sps_ingested, sps as u64, "every sp ingested");
    assert_eq!(t.tuples_ingested, (total - sps) as u64);

    assert_eq!(decided.len(), total - sps, "one shield decision per offered tuple: {audit}");
    assert_eq!(decided.iter().collect::<HashSet<_>>().len(), decided.len(), "a tuple ran twice");
    // A frame is the unit of mutual exclusion: once the trail moves on to
    // another frame it never comes back to an earlier one.
    let mut runs: Vec<(u64, usize)> = decided.iter().map(|tid| frame_of(*tid)).collect();
    runs.dedup();
    assert_eq!(runs.iter().collect::<HashSet<_>>().len(), runs.len(), "a frame was split");
    // And the rounds made the connections take turns, so that was tested.
    let switches = runs.windows(2).filter(|w| w[0].0 != w[1].0).count();
    assert!(switches >= total / FRAME / CLIENTS as usize, "no interleaving: {switches} switches");
}

#[test]
fn peer_that_never_reads_cannot_pin_its_connection_or_the_drain() {
    // One-element frames: the most Acks per byte sent, so the reply
    // direction is the one that fills.
    let frame = |e: &StreamElement| {
        Message { stream: StreamId(1), elements: vec![e.clone()] }.encode_to_vec()
    };
    let frames: Vec<Vec<u8>> = workload_input(19).iter().map(|(_, e)| frame(e)).collect();

    let cfg = ServerConfig { read_timeout_ms: 10, idle_timeout_ms: 200, ..ServerConfig::default() };
    let handle = Server::start(cfg, factory(None), StoreMap::new()).unwrap();
    let mut stream = TcpStream::connect(handle.addr).unwrap();
    stream.write_all(&sp_core::Control::Hello { tenant: 0, acked: 0 }.encode_to_vec()).unwrap();

    // Pipeline frames and never read a reply. Once the Acks have filled
    // both socket buffers the server cannot write; it must give the
    // connection up at its write deadline, which this side sees as a
    // failed write. (Its own deadline only keeps a regression from
    // hanging the test instead of failing it.)
    stream.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    let err = frames
        .iter()
        .cycle()
        .take(20_000_000)
        .find_map(|f| stream.write_all(f).err())
        .expect("the server kept a connection whose peer reads nothing");
    assert!(
        !matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
        "only this side's own deadline ended the write: {err}"
    );

    // Whatever Acks did arrive: the last whole one is the client's view.
    stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    let mut dec = sp_core::StreamDecoder::new(1 << 16);
    let mut buf = [0u8; 1 << 16];
    let mut last_acked = 0u64;
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        for f in dec.feed(&buf[..n]) {
            if let sp_core::WireFrame::Control(sp_core::Control::Ack { pos }) = f {
                last_acked = pos;
            }
        }
    }
    drop(stream);

    // The drain must not wait on that connection's thread.
    let (tx, rx) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || {
        let _ = tx.send(handle.drain());
    });
    let report = rx.recv_timeout(Duration::from_secs(30)).expect("drain blocked on a stuck write");
    drainer.join().unwrap();
    assert!(report.clean);
    let t = report.tenant(0).unwrap();
    assert!(!t.quarantined, "a slow reader is not a security event");
    // One element per frame, so the last Ack the server produced — written
    // or not — is Ack { pos: frames handled }: the cursor stands exactly
    // there, at or one frame past what the client saw.
    assert_eq!(t.input_pos, report.frames);
    assert!(last_acked > 0 && last_acked <= t.input_pos, "{last_acked} vs {}", t.input_pos);
}
