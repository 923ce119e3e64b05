//! Golden bytes for the two recorder planes.
//!
//! Every other suite compares one execution mode against another; none
//! pins the *absolute* encoding, which is what a replicated standby or a
//! stored trail depends on. The hex under `tests/golden/` was written by
//! commit c2dea74, the last one with a separate ring and section
//! container per plane; a mismatch means the wire format moved, so fix
//! the encoder, not the hex.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use sp_core::{
    RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement, StreamId, Timestamp,
    Tuple, TupleId, Value, ValueType,
};
use sp_engine::{
    CmpOp, Expr, PlanBuilder, QuarantinePolicy, SecurityShield, Select, ShedPolicy, Shedder,
    ShedderConfig, TelemetryConfig,
};

/// 10 segments of one sp + 20 tuples, segment 4's sp lost, cut at 200
/// elements. Role 0 — the one the shield requires — is granted in every
/// third segment, so the planes hold releases, suppressions, quarantine
/// decisions, sheds and ladder moves.
fn workload() -> Vec<(StreamId, StreamElement)> {
    let mut out = Vec::new();
    for k in 0..10u64 {
        let base = (k + 1) * 1_000;
        if k != 4 {
            let mut roles = RoleSet::from([1]);
            roles.insert(RoleId((k % 3) as u32));
            out.push((
                StreamId(1),
                StreamElement::punctuation(SecurityPunctuation::grant_all(roles, Timestamp(base))),
            ));
        }
        for i in 1..=20u64 {
            let tid = k * 100 + i;
            out.push((
                StreamId(1),
                StreamElement::tuple(Tuple::new(
                    StreamId(1),
                    TupleId(tid),
                    Timestamp(base + i * 10),
                    vec![Value::Int(tid as i64), Value::Int((tid % 7) as i64)],
                )),
            ));
        }
    }
    out.truncate(200);
    out
}

/// Hardened source -> shedder -> select -> shield -> sink: all three
/// recorder owners (analyzer, shedder, shield) on one path.
fn builder() -> PlanBuilder {
    let mut catalog = RoleCatalog::new();
    catalog.register_synthetic_roles(8);
    let mut b = PlanBuilder::new(Arc::new(catalog));
    let src =
        b.source(StreamId(1), Schema::of("loc", &[("id", ValueType::Int), ("v", ValueType::Int)]));
    b.harden_source(src, QuarantinePolicy { ttl_ms: 500, slack_ms: 400, capacity: 64 });
    let shed = b.add(
        Shedder::new(ShedderConfig {
            capacity: 120,
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
    b.enable_telemetry(TelemetryConfig::enabled());
    b
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn golden(file: &str) -> String {
    file.split_whitespace().collect()
}

#[test]
fn plane_encodings_match_the_committed_bytes() {
    let mut exec = builder().build();
    exec.push_all(workload()).unwrap();
    exec.finish().unwrap();
    let (trail, sheet) = (exec.audit_trail(), exec.span_sheet());
    assert!(!trail.is_empty() && !sheet.is_empty());
    assert_eq!(hex(&trail.encode_to_vec()), golden(include_str!("golden/audit_trail.hex")));
    assert_eq!(hex(&sheet.encode_to_vec()), golden(include_str!("golden/span_sheet.hex")));
}
