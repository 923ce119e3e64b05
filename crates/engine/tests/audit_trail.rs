//! Audit-trail invariants under hostile conditions.
//!
//! The flight recorder is a *security* artifact: if the audit trail and
//! the pipeline's observable behaviour can disagree, the trail is worse
//! than useless. These tests pin the correspondence under shedding,
//! quarantine, and missing policies:
//!
//! 1. **release completeness** — every tuple a sink receives has exactly
//!    one `Released` audit record, in delivery order, citing an sp-batch
//!    that was actually pushed;
//! 2. **degradation correspondence** — quarantine and ladder audit events
//!    agree with the engine's fail-closed degradation counters;
//! 3. **determinism** — a sequential run and a pipeline-parallel run of
//!    the same plan produce byte-identical audit trails.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::sync::Arc;

use sp_core::{
    RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement, StreamId, Timestamp,
    Tuple, TupleId, Value, ValueType,
};
use sp_engine::{
    run_parallel, AuditEvent, AuditOp, CmpOp, Expr, NodeRef, PlanBuilder, QuarantinePolicy,
    SecurityShield, Select, ShedPolicy, Shedder, ShedderConfig, SinkRef, TelemetryConfig,
};

const SEGMENT_MS: u64 = 1_000;
const TUPLES_PER_SEGMENT: u64 = 20;
const SEGMENTS: u64 = 16;
/// Large enough that nothing scrolls off mid-test.
const AUDIT_CAP: usize = 1 << 16;

fn schema() -> Arc<Schema> {
    Schema::of("loc", &[("id", ValueType::Int), ("v", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(8);
    Arc::new(c)
}

fn tuple(tid: u64, ts: u64) -> StreamElement {
    StreamElement::tuple(Tuple::new(
        StreamId(1),
        TupleId(tid),
        Timestamp(ts),
        vec![Value::Int(tid as i64), Value::Int((tid % 7) as i64)],
    ))
}

/// Segmented workload; segments listed in `dropped_sps` lose their sp
/// (simulating a lost policy), leaving their tuples ungoverned.
fn workload(dropped_sps: &[u64]) -> Vec<(StreamId, StreamElement)> {
    let mut out = Vec::new();
    for k in 0..SEGMENTS {
        let base = (k + 1) * SEGMENT_MS;
        if !dropped_sps.contains(&k) {
            let mut roles = RoleSet::from([1]);
            roles.insert(RoleId((k % 3) as u32));
            out.push((
                StreamId(1),
                StreamElement::punctuation(SecurityPunctuation::grant_all(roles, Timestamp(base))),
            ));
        }
        for i in 1..=TUPLES_PER_SEGMENT {
            out.push((StreamId(1), tuple(k * 100 + i, base + i * 10)));
        }
    }
    out
}

/// Hardened source -> shedder -> select -> shield -> sink, with the
/// audit trail armed. Capacity/drain pressure the ladder hard enough to
/// escalate under the workload.
fn audited_builder(shed_capacity: u64) -> (PlanBuilder, SinkRef, NodeRef) {
    let mut b = PlanBuilder::new(catalog());
    let src = b.source(StreamId(1), schema());
    b.harden_source(src, QuarantinePolicy { ttl_ms: 500, slack_ms: 400, capacity: 64 });
    let shed = b.add(
        Shedder::new(ShedderConfig {
            capacity: shed_capacity,
            drain_per_ms: 0,
            policy: ShedPolicy::RandomP { p: 0.5, seed: 7 },
            ..ShedderConfig::default()
        }),
        src,
    );
    let sel =
        b.add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), shed);
    let ss = b.add(SecurityShield::new(RoleSet::from([1])), sel);
    let sink = b.sink(ss);
    b.enable_telemetry(TelemetryConfig {
        audit_capacity: AUDIT_CAP,
        span_capacity: 0,
        metrics: false,
    });
    (b, sink, ss)
}

/// All records for one section of the trail.
fn section(trail: &sp_engine::AuditTrail, op: AuditOp) -> Vec<sp_engine::AuditRecord> {
    trail
        .sections()
        .filter(|(o, _)| *o == op)
        .flat_map(|(_, r)| r.records().copied().collect::<Vec<_>>())
        .collect()
}

#[test]
fn every_release_has_exactly_one_matching_audit_record() {
    let input = workload(&[3, 11]);
    let sp_stamps: HashSet<u64> = input
        .iter()
        .filter_map(|(_, e)| match e {
            StreamElement::Punctuation(sp) => Some(sp.ts.0),
            StreamElement::Tuple(_) => None,
        })
        .collect();

    let (b, sink, shield) = audited_builder(8);
    let mut exec = b.build();
    exec.push_all(input).unwrap();
    exec.finish().unwrap();

    let released: Vec<u64> = exec.sink(sink).tuples().map(|t| t.tid.raw()).collect();
    assert!(!released.is_empty(), "workload must release something");

    // The shield is node 2 (shedder 0, select 1).
    let trail = exec.audit_trail();
    let shield_records = section(&trail, AuditOp::Node(2));
    let audited: Vec<u64> = shield_records
        .iter()
        .filter_map(|r| match r.event {
            AuditEvent::Released { sp_ts, .. } => {
                assert!(
                    sp_stamps.contains(&sp_ts),
                    "release of tuple {} cites sp @{sp_ts}, which was never pushed",
                    r.tid
                );
                Some(r.tid)
            }
            _ => None,
        })
        .collect();
    // Exactly one Released record per delivered tuple, in delivery order.
    assert_eq!(audited, released);

    // And the shield audited a decision for every tuple it saw: released
    // plus suppressed equals the operator's tuple count.
    let suppressed =
        shield_records.iter().filter(|r| matches!(r.event, AuditEvent::Suppressed { .. })).count();
    let shield_stats = exec.stats(shield);
    assert_eq!((released.len() + suppressed) as u64, shield_stats.tuples_in);
}

#[test]
fn quarantine_and_ladder_events_match_degradation_counters() {
    let input = workload(&[2, 7, 13]);
    let (b, _sink, _) = audited_builder(6);
    let mut exec = b.build();
    exec.push_all(input).unwrap();
    exec.finish().unwrap();

    let d = exec.degradation();
    assert!(d.quarantined > 0, "dropped sps must quarantine tuples");
    assert!(d.shed_tuples > 0, "tight shedder must shed");
    assert!(d.ladder_escalations > 0, "overload must escalate the ladder");

    let trail = exec.audit_trail();
    let analyzer_records = section(&trail, AuditOp::Source(0));
    let quarantined = analyzer_records
        .iter()
        .filter(|r| matches!(r.event, AuditEvent::Quarantined { .. }))
        .count() as u64;
    let q_released = analyzer_records
        .iter()
        .filter(|r| matches!(r.event, AuditEvent::QuarantineReleased))
        .count() as u64;
    let q_dropped = analyzer_records
        .iter()
        .filter(|r| matches!(r.event, AuditEvent::QuarantineDropped { .. }))
        .count() as u64;
    assert_eq!(quarantined, d.quarantined);
    assert_eq!(q_released, d.quarantine_released);
    assert_eq!(q_dropped, d.quarantine_dropped);

    // Every ladder move left a record; every shed tuple did too.
    let shedder_records = section(&trail, AuditOp::Node(0));
    let transitions = shedder_records
        .iter()
        .filter(|r| matches!(r.event, AuditEvent::LadderTransition { .. }))
        .count() as u64;
    assert_eq!(transitions, d.ladder_escalations + d.ladder_recoveries);
    let shed = shedder_records.iter().filter(|r| matches!(r.event, AuditEvent::Shed { .. })).count()
        as u64;
    assert_eq!(shed, d.shed_tuples);

    // A FailClosed peak must be visible in the trail as a transition
    // *into* rung 3 — the record an incident review would look for.
    if d.overload_peak == 3 {
        assert!(
            shedder_records
                .iter()
                .any(|r| matches!(r.event, AuditEvent::LadderTransition { to, .. } if to == 3)),
            "ladder peaked at FailClosed but no transition to rung 3 was audited"
        );
    }
}

#[test]
fn sequential_and_parallel_audit_trails_encode_identically() {
    let input = workload(&[5]);

    // Sequential reference. No `finish()`: the parallel runner feeds and
    // closes without flushing trailing analyzer batches, and the audit
    // comparison needs both sides to see the same element sequence.
    let (b, _, _) = audited_builder(8);
    let mut exec = b.build();
    exec.push_all(input.clone()).unwrap();
    let sequential = exec.audit_trail().encode_to_vec();
    assert!(!sequential.is_empty());

    // Plain parallel run.
    let (b, _, _) = audited_builder(8);
    let results = run_parallel(b, input).unwrap();
    assert_eq!(
        results.audit_trail().encode_to_vec(),
        sequential,
        "parallel audit trail diverged from sequential"
    );
}

/// Same shape as [`audited_builder`] but with the span recorders armed
/// and a shield requiring role 0 — which the workload grants only in
/// every third segment — so the trace carries both release *and*
/// suppress spans for the two execution modes to agree on.
fn span_builder(shed_capacity: u64) -> PlanBuilder {
    let mut b = PlanBuilder::new(catalog());
    let src = b.source(StreamId(1), schema());
    b.harden_source(src, QuarantinePolicy { ttl_ms: 500, slack_ms: 400, capacity: 64 });
    let shed = b.add(
        Shedder::new(ShedderConfig {
            capacity: shed_capacity,
            drain_per_ms: 0,
            policy: ShedPolicy::RandomP { p: 0.5, seed: 7 },
            ..ShedderConfig::default()
        }),
        src,
    );
    let sel =
        b.add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), shed);
    let ss = b.add(SecurityShield::new(RoleSet::from([0])), sel);
    let _sink = b.sink(ss);
    b.enable_telemetry(TelemetryConfig {
        audit_capacity: AUDIT_CAP,
        span_capacity: AUDIT_CAP,
        metrics: false,
    });
    b
}

#[test]
fn sequential_and_parallel_span_sheets_encode_identically() {
    let input = workload(&[5]);

    // Sequential reference (no `finish()`, for the same reason as the
    // audit-trail equality test above). A roomy shedder keeps the whole
    // workload flowing so every segment reaches the shield.
    const SHED: u64 = 1 << 16;
    let mut exec = span_builder(SHED).build();
    exec.push_all(input.clone()).unwrap();
    let sheet = exec.span_sheet();
    let sequential = sheet.encode_to_vec();
    assert!(!sheet.is_empty(), "armed span recorders must capture the run");
    assert_eq!(sheet.evicted(), 0, "capacity must hold the whole run for this comparison");

    // The sheet must cover the full enforcement path: analyzer decision,
    // shield enforcement, and both verdicts.
    use sp_core::trace::site;
    let sites: HashSet<u8> = sheet.records().map(|(_, r)| r.site).collect();
    for s in [site::ANALYZE, site::SHIELD_ENFORCE, site::RELEASE, site::SUPPRESS] {
        assert!(sites.contains(&s), "missing {} spans", site::name(s));
    }
    // Every non-root span points at a parent derived from the same trace:
    // the tree is causally connected, not a flat list.
    for (_, r) in sheet.records() {
        if r.parent != 0 && r.site != site::WIRE_FRAME {
            assert_ne!(r.parent, r.span_id, "span cannot parent itself");
        }
    }

    // Plain parallel run: per-operator threads must record the same
    // spans in the same canonical order.
    let results = run_parallel(span_builder(SHED), input).unwrap();
    assert_eq!(
        results.span_sheet().encode_to_vec(),
        sequential,
        "parallel span sheet diverged from sequential"
    );
}

#[test]
fn audit_ring_bounds_memory_and_counts_evictions() {
    let input = workload(&[]);
    let mut b = PlanBuilder::new(catalog());
    let src = b.source(StreamId(1), schema());
    let ss_ref = b.add(SecurityShield::new(RoleSet::from([1])), src);
    let _sink = b.sink(ss_ref);
    // Tiny ring: most decisions must scroll off, but the recorder keeps
    // exactly the most recent `capacity` and counts the rest.
    b.enable_telemetry(TelemetryConfig { audit_capacity: 16, span_capacity: 0, metrics: false });
    let mut exec = b.build();
    exec.push_all(input).unwrap();
    let trail = exec.audit_trail();
    let shield = section(&trail, AuditOp::Node(0));
    assert_eq!(shield.len(), 16);
    assert!(trail.evicted() > 0);
    let shield_stats = exec.stats(ss_ref);
    assert_eq!(16 + trail.evicted(), shield_stats.tuples_in);
}

#[test]
fn restore_clears_the_audit_trail_for_replay() {
    let input = workload(&[]);
    let (b, _, _) = audited_builder(64);
    let mut exec = b.build();
    exec.push_all(input.iter().take(40).cloned()).unwrap();
    let ckpt = exec.checkpoint(1, 40);
    exec.push_all(input.iter().skip(40).take(40).cloned()).unwrap();
    assert!(!exec.audit_trail().is_empty());

    // Restore rewinds operator state; the audit trail must start empty so
    // replayed decisions are recorded once, not twice.
    exec.restore(&ckpt).unwrap();
    assert_eq!(exec.audit_trail().len(), 0, "restore must clear flight recorders");
    exec.push_all(input.iter().skip(40).take(40).cloned()).unwrap();
    let replayed = exec.audit_trail().encode_to_vec();

    // A cold executor restored from the same cut and fed the same replay
    // produces a byte-identical trail: audit replay is deterministic.
    let (b, _, _) = audited_builder(64);
    let mut cold = b.build();
    cold.restore(&ckpt).unwrap();
    cold.push_all(input.iter().skip(40).take(40).cloned()).unwrap();
    assert_eq!(cold.audit_trail().encode_to_vec(), replayed);
}
