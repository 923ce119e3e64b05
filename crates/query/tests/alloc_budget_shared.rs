//! Allocation budget of the multi-query shape: eight queries over one
//! stream, each releasing what its role may see, decoded off the wire by
//! `StreamDecoder::feed` and pushed frame by frame through
//! `RunningDsms::push_frame`.
//!
//! The stream has the shape of perfbench's `policy.heavy`: 1000 moving
//! objects, a scoped sp before every 25 tuples naming that id block and
//! granting 100 roles out of a universe of 400 (role 0 half the time),
//! 128 elements per frame. Eight queries under roles `r0`..`r7` keep the
//! same two columns with selection thresholds spread over 0.0 ..= 4.0.
//! Heap allocations (reallocations included) are counted per input tuple
//! once the session is warm.
//!
//! When every query projected its own copy of each tuple it released,
//! this shape made 7.3 allocations per tuple. With the projection moved
//! to the scan and shared by the eight queries, compacting the decoded
//! tuple in place, a release is an `Arc` clone and the count is 2.7; the
//! budget below is that count plus 10 %.
//!
//! Lives in its own integration binary (with a single test) so nothing
//! else allocates while the counting global allocator is being read.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sp_core::wire::{Message, StreamDecoder, WireFrame};
use sp_core::{
    DataDescription, RoleId, RoleSet, Schema, SecurityPunctuation, SplitMix64, StreamElement,
    StreamId, Timestamp, Tuple, TupleId, Value, ValueType,
};
use sp_engine::AdmissionConfig;
use sp_query::Dsms;

/// Allocations per input tuple this shape makes today.
const LANDED: f64 = 2.7;
/// The budget: the landed count plus 10 %.
const BUDGET: f64 = LANDED * 1.1;

const STREAM: StreamId = StreamId(1);
const OBJECTS: u64 = 1000;
const TICKS: u64 = 6;
const SP_EVERY: u64 = 25;
const QUERIES: usize = 8;
const FRAME_ELEMS: usize = 128;
/// Frames fed before counting starts: the first tick, which sizes the
/// executor's and sinks' buffers.
const WARM_FRAMES: usize = 9;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method hands its caller's arguments to `System` unchanged,
// so the caller's guarantees are the ones `System` requires; the counter
// is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Eight queries under roles `r0`..`r7` (`RoleId(0)`..`RoleId(7)`), the
/// same columns, thresholds 0.0 ..= 4.0; admission provisioned far above
/// the stream rate.
fn dsms() -> Dsms {
    let mut d = Dsms::new();
    let schema = Schema::of(
        "LocationUpdates",
        &[
            ("obj_id", ValueType::Int),
            ("x", ValueType::Float),
            ("y", ValueType::Float),
            ("speed", ValueType::Float),
        ],
    );
    d.register_stream(STREAM, schema).unwrap();
    for q in 0..QUERIES {
        let role = format!("r{q}");
        d.register_role(&role).unwrap();
        let subject = d.register_subject(&format!("subject-{q}"), &[&role]).unwrap();
        let threshold = 4.0 * q as f64 / (QUERIES - 1) as f64;
        let sql =
            format!("SELECT obj_id, speed FROM LocationUpdates WHERE speed >= {threshold:.2}");
        d.submit(&sql, subject).unwrap();
    }
    d.admission =
        Some(AdmissionConfig { tokens_per_sec: 1_000_000, burst: 1024, enqueue_deadline_ms: 20 });
    d
}

/// 100 roles: role 0 half the time, the rest drawn from `1..400`.
fn draw_roles(rng: &mut SplitMix64) -> RoleSet {
    let mut set = RoleSet::new();
    if rng.chance(0.5) {
        set.insert(RoleId(0));
    }
    while set.len() < 100 {
        set.insert(RoleId(rng.up_to(399) as u32));
    }
    set
}

/// The stream, a scoped sp ahead of every 25-object block, as encoded
/// frames.
fn frames() -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(7);
    let mut clock = 0;
    let mut elements = Vec::new();
    for _ in 0..TICKS {
        for obj in 0..OBJECTS {
            if obj % SP_EVERY == 0 {
                clock += 1;
                let sp = SecurityPunctuation::grant_all(draw_roles(&mut rng), Timestamp(clock))
                    .with_ddp(DataDescription::tuple_range(obj, obj + SP_EVERY - 1));
                elements.push(StreamElement::punctuation(sp));
            }
            clock += 1;
            let values = vec![
                Value::Int(obj as i64),
                Value::Float(rng.next_f64() * 1600.0),
                Value::Float(rng.next_f64() * 1600.0),
                // Road speeds, above every query's threshold, as in the
                // simulator: the shields decide what is released.
                Value::Float(5.0 + rng.next_f64() * 25.0),
            ];
            let tuple = Tuple::new(STREAM, TupleId(obj), Timestamp(clock), values);
            elements.push(StreamElement::tuple(tuple));
        }
    }
    elements
        .chunks(FRAME_ELEMS)
        .map(|chunk| Message::new(STREAM, chunk.to_vec()).encode_to_vec())
        .collect()
}

#[test]
fn shared_projection_stays_within_its_allocation_budget() {
    let frames = frames();
    let d = dsms();
    let mut session = d.start();
    let mut decoder = StreamDecoder::new(1 << 20);
    let mut feed = |bytes: &[u8]| -> u64 {
        let mut tuples = 0;
        for frame in decoder.feed(bytes) {
            let WireFrame::Message(msg) = frame else { panic!("only data frames are sent") };
            tuples += msg.elements.iter().filter(|e| e.is_tuple()).count() as u64;
            session.push_frame(msg.stream, msg.elements).unwrap();
        }
        tuples
    };
    for bytes in &frames[..WARM_FRAMES] {
        feed(bytes);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let tuples: u64 = frames[WARM_FRAMES..].iter().map(|bytes| feed(bytes)).sum();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let per_tuple = allocs as f64 / tuples as f64;
    println!("{allocs} allocations over {tuples} tuples: {per_tuple:.2} per tuple");
    assert!(per_tuple <= BUDGET, "{per_tuple:.2} allocations per tuple, budget {BUDGET:.2}");

    // Sanity: the stream was enforced, not dropped — every query saw some
    // tuples and was denied others.
    let released: Vec<u64> =
        d.queries().iter().map(|q| session.results(q.id).tuple_count() as u64).collect();
    assert!(released.iter().all(|&n| n > 0 && n < TICKS * OBJECTS), "released {released:?}");
}
