//! Differential property for the session's ingest path: feeding a stream
//! as frames (`RunningDsms::push_frame`, any cut, including empty and
//! one-element frames) must be **observationally identical** to feeding
//! the same elements one by one (`try_push`) — same cursor, same
//! admission accounting and retry hints, same released sequence per
//! query, same audit-trail bytes, same checkpoint bytes — under an
//! admission limit tight enough to refuse tuples in the middle of frames.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sp_core::{
    QueryId, RoleId, Schema, SecurityPunctuation, StreamElement, StreamId, Timestamp, Tuple,
    TupleId, Value, ValueType,
};
use sp_engine::{AdmissionConfig, CheckpointStore, EngineError, MemStore, TelemetryConfig};
use sp_query::{Dsms, FrameAdmission, RunningDsms};

const STREAM: StreamId = StreamId(1);

/// One raw workload item: an sp granting some of the four roles, or a
/// tuple; `dt` is the stream-time step (0 keeps the admission bucket from
/// refilling).
#[derive(Debug, Clone)]
enum Item {
    Sp(Vec<usize>, u64),
    Tup(i64, u64),
}

fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    // One sp per four tuples on average.
    let item = (0u8..5, prop::collection::vec(0usize..4, 0..3), 0i64..50, 0u64..4).prop_map(
        |(kind, roles, v, dt)| if kind == 0 { Item::Sp(roles, dt) } else { Item::Tup(v, dt) },
    );
    prop::collection::vec(item, 4..96)
}

/// Frame lengths, cycled over the stream: 0 is an empty frame, 1 is the
/// `try_push` case, longer frames straddle sps and admission refusals.
/// The first length is non-zero so cycling always makes progress.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    (1usize..12, prop::collection::vec(0usize..12, 0..7)).prop_map(|(first, mut rest)| {
        rest.insert(0, first);
        rest
    })
}

/// Two queries under different roles sharing one source (fan-out), one
/// with a selection, telemetry armed, and a two-token bucket that refills
/// 0.4 tokens per stream-millisecond, so retry hints vary within a frame.
fn dsms() -> (Dsms, Vec<RoleId>, Vec<QueryId>) {
    let mut d = Dsms::new();
    d.register_stream(STREAM, Schema::of("S", &[("k", ValueType::Int), ("v", ValueType::Int)]))
        .unwrap();
    let roles: Vec<RoleId> = (0..4).map(|i| d.register_role(&format!("r{i}")).unwrap()).collect();
    let alice = d.register_subject("alice", &["r0", "r1"]).unwrap();
    let bob = d.register_subject("bob", &["r2"]).unwrap();
    let queries = vec![
        d.submit("SELECT k FROM S WHERE v >= 10", alice).unwrap(),
        d.submit("SELECT k, v FROM S", bob).unwrap(),
    ];
    d.admission = Some(AdmissionConfig { tokens_per_sec: 400, burst: 2, enqueue_deadline_ms: 0 });
    d.telemetry = Some(TelemetryConfig::enabled());
    (d, roles, queries)
}

fn raw_stream(items: &[Item], roles: &[RoleId]) -> Vec<StreamElement> {
    let mut ts = 0;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| match item {
            Item::Sp(granted, dt) => {
                ts += dt;
                let rs = granted.iter().map(|&r| roles[r]).collect();
                StreamElement::punctuation(SecurityPunctuation::grant_all(rs, Timestamp(ts)))
            }
            Item::Tup(v, dt) => {
                ts += dt;
                StreamElement::tuple(Tuple::new(
                    STREAM,
                    TupleId(i as u64),
                    Timestamp(ts),
                    vec![Value::Int(i as i64), Value::Int(*v)],
                ))
            }
        })
        .collect()
}

/// Everything observable about a session after a run.
fn observe(
    run: &RunningDsms,
    queries: &[QueryId],
) -> (u64, u64, Vec<Vec<String>>, Vec<u8>, Vec<u8>) {
    let released =
        queries.iter().map(|&q| run.results(q).tuples().map(|t| t.to_string()).collect()).collect();
    let mut store = MemStore::new();
    run.checkpoint_to(1, &mut store).unwrap();
    (
        run.input_pos(),
        run.degradation().admission_rejected,
        released,
        run.audit_trail().encode_to_vec(),
        store.load_latest().unwrap().encode_to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn push_frame_matches_try_push_loop(items in arb_items(), cuts in arb_cuts()) {
        let (d, roles, queries) = dsms();
        let elements = raw_stream(&items, &roles);

        let mut framed = d.start();
        let mut single = d.start();
        let mut rest = elements.as_slice();
        for &len in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (frame, tail) = rest.split_at(len.min(rest.len()));
            rest = tail;

            let got = framed.push_frame(STREAM, frame.to_vec()).unwrap();
            let mut want = FrameAdmission::default();
            for elem in frame {
                match single.try_push(STREAM, elem.clone()) {
                    Ok(()) if elem.is_tuple() => want.tuples += 1,
                    Ok(()) => want.sps += 1,
                    Err(EngineError::Overloaded { retry_after_ms }) => {
                        want.retry_after_ms = want.retry_after_ms.max(Some(retry_after_ms));
                    }
                    Err(e) => panic!("unexpected engine error: {e}"),
                }
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(framed.input_pos(), single.input_pos());
        }
        prop_assert_eq!(observe(&framed, &queries), observe(&single, &queries));
    }
}

/// The limit binds in the middle of a frame: refused tuples are dropped
/// and counted, the elements after them — sps above all — still go in.
#[test]
fn refusals_mid_frame_do_not_stop_the_frame() {
    let (d, roles, queries) = dsms();
    let items: Vec<Item> = [Item::Sp(vec![2], 0)]
        .into_iter()
        .chain((0..5).map(|v| Item::Tup(v, 0)))
        .chain([Item::Sp(vec![], 0), Item::Tup(9, 3)])
        .collect();
    let mut run = d.start();
    let got = run.push_frame(STREAM, raw_stream(&items, &roles)).unwrap();
    // Burst of 2, then three refusals at the same instant, then the
    // revoking sp, then 3 ms refill a token for the last tuple.
    assert_eq!(got.tuples, 3);
    assert_eq!(got.sps, 2);
    assert!(got.retry_after_ms.is_some_and(|ms| ms > 0));
    assert_eq!(run.input_pos(), 8);
    assert_eq!(run.degradation().admission_rejected, 3);
    // Bob saw the two tuples admitted under his grant; the tuple after the
    // revocation is withheld — the sp behind the refusals took effect.
    assert_eq!(run.results(queries[1]).tuple_count(), 2);
}
