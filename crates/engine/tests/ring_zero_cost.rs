//! The off state of the recorder planes must be zero-cost: a capacity-0
//! ring of either record type performs no heap allocation and retains
//! nothing, however many records are fed into it. Capacity is the only
//! switch, so this is the one disabled path there is.
//!
//! Lives in its own integration binary (with a single test) so nothing
//! else allocates while the counting global allocator is being read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sp_engine::{AuditEvent, FlightRecorder, SpanRecord, SpanRecorder};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn capacity_zero_rings_do_not_allocate() {
    let (mut audit, mut spans) = (FlightRecorder::new(0), SpanRecorder::new(0));
    assert!(!audit.enabled() && !spans.enabled());

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        audit.record(i, i, AuditEvent::Suppressed { sp_ts: i });
        spans.record(SpanRecord::at(i, 0, 0, i, i));
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(after, before, "disabled ring allocated");
    assert!(audit.is_empty() && spans.is_empty(), "disabled ring retained records");
    assert_eq!((audit.evicted(), spans.evicted()), (0, 0));

    // Sanity: the same calls record once the rings are armed.
    let (mut audit, mut spans) = (FlightRecorder::new(64), SpanRecorder::new(64));
    audit.record(1, 1, AuditEvent::Suppressed { sp_ts: 1 });
    spans.record(SpanRecord::at(1, 0, 0, 1, 1));
    assert_eq!((audit.len(), spans.len()), (1, 1));
}
