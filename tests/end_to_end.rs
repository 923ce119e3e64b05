//! End-to-end scenarios from the paper, driven entirely through the
//! public CQL + Dsms API: the Fig. 4 hospital streams, stream/tuple/
//! attribute-granularity policies, negative and immutable punctuations,
//! server-side refinement, joins, aggregates and DISTINCT.

use std::sync::Arc;

use sp_core::{Policy, RoleSet, Schema, StreamElement, StreamId, Timestamp, Tuple, TupleId, Value};
use sp_mog::health::{body_temperature_schema, heart_rate_schema, streams, HOSPITAL_ROLES};
use sp_query::Dsms;

fn hospital_dsms() -> Dsms {
    let mut dsms = Dsms::new();
    dsms.register_stream(streams::HEART_RATE, heart_rate_schema()).unwrap();
    dsms.register_stream(streams::BODY_TEMPERATURE, body_temperature_schema()).unwrap();
    for role in HOSPITAL_ROLES {
        dsms.register_role(role).unwrap();
    }
    dsms
}

fn hr_tuple(pid: u64, ts: u64, beats: i64) -> StreamElement {
    StreamElement::tuple(Tuple::new(
        streams::HEART_RATE,
        TupleId(pid),
        Timestamp(ts),
        vec![Value::Int(pid as i64), Value::Int(beats)],
    ))
}

fn bt_tuple(pid: u64, ts: u64, temp: f64) -> StreamElement {
    StreamElement::tuple(Tuple::new(
        streams::BODY_TEMPERATURE,
        TupleId(pid),
        Timestamp(ts),
        vec![Value::Int(pid as i64), Value::Float(temp)],
    ))
}

/// The paper's §III-C tuple-level example: "Only queries registered by a
/// general physician can access data tuples (from any data stream) of
/// patients with ids between 120 and 133."
#[test]
fn tuple_level_policy_via_cql() {
    let mut dsms = hospital_dsms();
    let gp = dsms.register_subject("gp", &["general_physician"]).unwrap();
    let derm = dsms.register_subject("derm", &["dermatologist"]).unwrap();
    let q_gp = dsms.submit("SELECT Patient_id, Beats_per_min FROM HeartRate", gp).unwrap();
    let q_derm = dsms.submit("SELECT Patient_id, Beats_per_min FROM HeartRate", derm).unwrap();

    let (sid, sp) = dsms
        .insert_sp(
            "INSERT SP INTO STREAM HeartRate \
             LET DDP = ('*', '<120-133>', '*'), SRP = 'general_physician'",
            Timestamp(0),
        )
        .unwrap();

    let mut running = dsms.start();
    running.push(sid, StreamElement::punctuation(sp));
    running.push(streams::HEART_RATE, hr_tuple(120, 1, 70));
    running.push(streams::HEART_RATE, hr_tuple(133, 2, 72));
    running.push(streams::HEART_RATE, hr_tuple(134, 3, 74)); // out of scope

    let gp_ids: Vec<u64> = running.results(q_gp).tuples().map(|t| t.tid.raw()).collect();
    assert_eq!(gp_ids, vec![120, 133]);
    assert_eq!(running.results(q_derm).tuple_count(), 0, "wrong role sees nothing");
}

/// Stream-level policy (§III-C): "Only queries registered by a cardiologist
/// can query the stream HeartRate" — an sp whose DDP names the stream.
#[test]
fn stream_level_policy_via_cql() {
    let mut dsms = hospital_dsms();
    let cardio = dsms.register_subject("c", &["cardiologist"]).unwrap();
    let nurse = dsms.register_subject("n", &["nurse_on_duty"]).unwrap();
    let q_c = dsms.submit("SELECT Patient_id FROM HeartRate", cardio).unwrap();
    let q_n = dsms.submit("SELECT Patient_id FROM HeartRate", nurse).unwrap();

    let (sid, sp) = dsms
        .insert_sp(
            "INSERT SP INTO STREAM HeartRate \
             LET DDP = ('HeartRate', '*', '*'), SRP = 'cardiologist'",
            Timestamp(0),
        )
        .unwrap();
    let mut running = dsms.start();
    running.push(sid, StreamElement::punctuation(sp));
    running.push(streams::HEART_RATE, hr_tuple(1, 1, 80));
    assert_eq!(running.results(q_c).tuple_count(), 1);
    assert_eq!(running.results(q_n).tuple_count(), 0);
}

/// Negative punctuations override grants within a batch (same timestamp).
#[test]
fn negative_sp_revokes_within_batch() {
    let mut dsms = hospital_dsms();
    let emp = dsms.register_subject("emp", &["employee"]).unwrap();
    let doc = dsms.register_subject("doc", &["doctor"]).unwrap();
    let q_emp = dsms.submit("SELECT Patient_id FROM HeartRate", emp).unwrap();
    let q_doc = dsms.submit("SELECT Patient_id FROM HeartRate", doc).unwrap();

    // Batch at ts=5: grant everyone, then revoke employees.
    let (sid, grant) = dsms
        .insert_sp(
            "INSERT SP INTO STREAM HeartRate LET DDP = ('*','*','*'), SRP = '*'",
            Timestamp(5),
        )
        .unwrap();
    let (_, deny) = dsms
        .insert_sp(
            "INSERT SP INTO STREAM HeartRate \
             LET DDP = ('*','*','*'), SRP = 'employee', SIGN = negative",
            Timestamp(5),
        )
        .unwrap();
    let mut running = dsms.start();
    running.push(sid, StreamElement::punctuation(grant));
    running.push(sid, StreamElement::punctuation(deny));
    running.push(streams::HEART_RATE, hr_tuple(1, 6, 80));
    assert_eq!(running.results(q_doc).tuple_count(), 1);
    assert_eq!(running.results(q_emp).tuple_count(), 0, "negative sp wins");
}

/// Server-side policies refine (intersect) data-provider policies unless
/// the provider marks the sp immutable (§II-B, §III-E).
#[test]
fn server_policy_and_immutability() {
    for immutable in [false, true] {
        let mut dsms = hospital_dsms();
        let nurse = dsms.register_subject("n", &["nurse_on_duty"]).unwrap();
        let q = dsms.submit("SELECT Patient_id FROM HeartRate", nurse).unwrap();
        // The hospital only allows doctors — installed on the stream.
        // (Planner-placed shields sit above the scan; the server policy
        // applies inside the analyzer itself.)
        let doctor_only: RoleSet =
            [dsms.catalog.roles.lookup_role("doctor").unwrap()].into_iter().collect();
        let sql = if immutable {
            "INSERT SP INTO STREAM HeartRate \
             LET DDP = ('*','*','*'), SRP = 'doctor|nurse_on_duty', IMMUTABLE = true"
        } else {
            "INSERT SP INTO STREAM HeartRate \
             LET DDP = ('*','*','*'), SRP = 'doctor|nurse_on_duty'"
        };
        let (sid, sp) = dsms.insert_sp(sql, Timestamp(0)).unwrap();

        // Build by hand to install the server policy on the source.
        let mut builder = sp_engine::PlanBuilder::new(Arc::new(dsms.catalog.roles.clone()));
        let src = builder.source(streams::HEART_RATE, heart_rate_schema());
        builder.set_server_policy(src, Some(Policy::tuple_level(doctor_only, Timestamp(0))));
        let roles = dsms.queries()[0].roles.clone();
        let ss = builder.add(sp_engine::SecurityShield::new(roles), src);
        let sink = builder.sink(ss);
        let mut exec = builder.build();
        exec.push(sid, StreamElement::punctuation(sp)).unwrap();
        exec.push(streams::HEART_RATE, hr_tuple(1, 1, 70)).unwrap();

        let released = exec.sink(sink).tuple_count();
        if immutable {
            assert_eq!(released, 1, "immutable provider sp ignores the server policy");
        } else {
            assert_eq!(released, 0, "server refinement removed the nurse's access");
        }
        let _ = q;
    }
}

/// A windowed CQL join across the two vitals streams enforces policy
/// compatibility of the base tuples.
#[test]
fn cql_join_enforces_policy_compatibility() {
    let mut dsms = hospital_dsms();
    let doc = dsms.register_subject("doc", &["doctor"]).unwrap();
    let q = dsms
        .submit(
            "SELECT h.Patient_id, h.Beats_per_min, t.Temperature \
             FROM HeartRate [RANGE 10 SECONDS] AS h, \
                  BodyTemperature [RANGE 10 SECONDS] AS t \
             WHERE h.Patient_id = t.Patient_id",
            doc,
        )
        .unwrap();

    let grant = |stream: &str, srp: &str, ts: u64, dsms: &Dsms| {
        dsms.insert_sp(
            &format!("INSERT SP INTO STREAM {stream} LET DDP = ('*','*','*'), SRP = '{srp}'"),
            Timestamp(ts),
        )
        .unwrap()
    };

    let mut running = dsms.start();
    // Both sides doctor-visible: join result flows.
    let (s1, sp1) = grant("HeartRate", "doctor", 0, &dsms);
    let (s2, sp2) = grant("BodyTemperature", "doctor|employee", 0, &dsms);
    running.push(s1, StreamElement::punctuation(sp1));
    running.push(s2, StreamElement::punctuation(sp2));
    running.push(streams::HEART_RATE, hr_tuple(120, 100, 70));
    running.push(streams::BODY_TEMPERATURE, bt_tuple(120, 101, 98.6));
    assert_eq!(running.results(q).tuple_count(), 1);

    // Heart side flips to employee-only: policies incompatible with the
    // doctor query → no further join results for the doctor.
    let (s1, sp1) = grant("HeartRate", "employee", 200, &dsms);
    running.push(s1, StreamElement::punctuation(sp1));
    running.push(streams::HEART_RATE, hr_tuple(121, 201, 75));
    running.push(streams::BODY_TEMPERATURE, bt_tuple(121, 202, 99.1));
    assert_eq!(running.results(q).tuple_count(), 1, "no new result");
}

/// Aggregates through CQL: attribute subgroups keep aggregates policy-pure.
#[test]
fn cql_aggregate_respects_subgroups() {
    let mut dsms = hospital_dsms();
    let doc = dsms.register_subject("doc", &["doctor"]).unwrap();
    let q = dsms
        .submit(
            "SELECT COUNT(Beats_per_min) FROM HeartRate [RANGE 60 SECONDS] GROUP BY Patient_id",
            doc,
        )
        .unwrap();
    let mut running = dsms.start();
    let (sid, sp) = dsms
        .insert_sp(
            "INSERT SP INTO STREAM HeartRate LET DDP = ('*','*','*'), SRP = 'doctor'",
            Timestamp(0),
        )
        .unwrap();
    running.push(sid, StreamElement::punctuation(sp));
    for (ts, beats) in [(1u64, 70i64), (2, 71), (3, 72)] {
        running.push(streams::HEART_RATE, hr_tuple(120, ts, beats));
    }
    // The latest visible count for patient 120 is 3 (a lone aggregate
    // projects away the grouping column).
    let counts: Vec<i64> =
        running.results(q).tuples().map(|t| t.value(0).unwrap().as_i64().unwrap()).collect();
    assert_eq!(counts, vec![1, 2, 3]);

    // Under a policy invisible to the doctor, the count restarts fresh —
    // the doctor's aggregate never mixes in unauthorized tuples.
    let (sid2, sp2) = dsms
        .insert_sp(
            "INSERT SP INTO STREAM HeartRate LET DDP = ('*','*','*'), SRP = 'employee'",
            Timestamp(10),
        )
        .unwrap();
    running.push(sid2, StreamElement::punctuation(sp2));
    running.push(streams::HEART_RATE, hr_tuple(120, 11, 99));
    let after: Vec<i64> =
        running.results(q).tuples().map(|t| t.value(0).unwrap().as_i64().unwrap()).collect();
    assert_eq!(after, vec![1, 2, 3], "unauthorized tuple contributed nothing");
}

/// DISTINCT through CQL: duplicates re-released only to new audiences.
#[test]
fn cql_distinct_audience_tracking() {
    let mut dsms = hospital_dsms();
    let doc = dsms.register_subject("doc", &["doctor"]).unwrap();
    let q = dsms
        .submit("SELECT DISTINCT Beats_per_min FROM HeartRate [RANGE 60 SECONDS]", doc)
        .unwrap();
    let mut running = dsms.start();
    let grant = |srp: &str, ts: u64, dsms: &Dsms| {
        dsms.insert_sp(
            &format!("INSERT SP INTO STREAM HeartRate LET DDP = ('*','*','*'), SRP = '{srp}'"),
            Timestamp(ts),
        )
        .unwrap()
    };
    let (sid, sp) = grant("doctor", 0, &dsms);
    running.push(sid, StreamElement::punctuation(sp));
    running.push(streams::HEART_RATE, hr_tuple(1, 1, 70));
    running.push(streams::HEART_RATE, hr_tuple(2, 2, 70)); // duplicate value
    assert_eq!(running.results(q).tuple_count(), 1, "doctor sees 70 once");
}

/// Dynamic mid-stream policy changes deliver/withhold instantly — the
/// paper's headline property, through the full stack.
#[test]
fn dynamic_policy_changes_are_immediate() {
    let mut dsms = hospital_dsms();
    let doc = dsms.register_subject("doc", &["doctor"]).unwrap();
    let q = dsms.submit("SELECT Patient_id FROM HeartRate", doc).unwrap();
    let mut running = dsms.start();
    let grant = |srp: &str, ts: u64, dsms: &Dsms| {
        dsms.insert_sp(
            &format!("INSERT SP INTO STREAM HeartRate LET DDP = ('*','*','*'), SRP = '{srp}'"),
            Timestamp(ts),
        )
        .unwrap()
    };
    let mut expected = 0;
    for round in 0u64..20 {
        let visible = round % 3 != 0;
        let (sid, sp) = grant(if visible { "doctor" } else { "employee" }, round * 10, &dsms);
        running.push(sid, StreamElement::punctuation(sp));
        running.push(streams::HEART_RATE, hr_tuple(1, round * 10 + 1, 70));
        if visible {
            expected += 1;
        }
        assert_eq!(
            running.results(q).tuple_count(),
            expected,
            "round {round}: enforcement lags the policy"
        );
    }
}

/// The reorder buffer feeds the engine correctly: a disordered raw stream
/// produces the same results as the ordered one.
#[test]
fn out_of_order_ingestion_with_reorder_buffer() {
    use sp_engine::ReorderBuffer;

    let schema: Arc<Schema> = Schema::of("s", &[("id", sp_core::ValueType::Int)]);
    let build = || {
        let mut catalog = sp_core::RoleCatalog::new();
        catalog.register_synthetic_roles(4);
        let mut b = sp_engine::PlanBuilder::new(Arc::new(catalog));
        let src = b.source(StreamId(1), schema.clone());
        let ss = b.add(sp_engine::SecurityShield::new(RoleSet::from([1])), src);
        let sink = b.sink(ss);
        (b.build(), sink)
    };

    let sp = |ts: u64, roles: &[u32]| {
        StreamElement::punctuation(sp_core::SecurityPunctuation::grant_all(
            roles.iter().map(|&r| sp_core::RoleId(r)).collect(),
            Timestamp(ts),
        ))
    };
    let tup = |ts: u64| {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(ts),
            Timestamp(ts),
            vec![Value::Int(ts as i64)],
        ))
    };
    let ordered =
        vec![sp(1, &[1]), tup(2), tup(3), sp(10, &[2]), tup(11), sp(20, &[1]), tup(21), tup(22)];
    // Locally disordered arrival of the same elements.
    let disordered = vec![
        ordered[1].clone(),
        ordered[0].clone(),
        ordered[2].clone(),
        ordered[4].clone(),
        ordered[3].clone(),
        ordered[6].clone(),
        ordered[5].clone(),
        ordered[7].clone(),
    ];

    let (mut exec_a, sink_a) = build();
    for e in &ordered {
        exec_a.push(StreamId(1), e.clone()).unwrap();
    }

    let (mut exec_b, sink_b) = build();
    let mut buffer = ReorderBuffer::new(30);
    let mut staged = Vec::new();
    for e in disordered {
        buffer.push(e, &mut staged);
    }
    buffer.flush(&mut staged);
    for e in staged {
        exec_b.push(StreamId(1), e).unwrap();
    }

    let a: Vec<u64> = exec_a.sink(sink_a).tuples().map(|t| t.tid.raw()).collect();
    let b: Vec<u64> = exec_b.sink(sink_b).tuples().map(|t| t.tid.raw()).collect();
    assert_eq!(a, b);
    assert_eq!(a, vec![2, 3, 21, 22]);
}

/// Runtime role reassignment (§IX future work): a running query's shield
/// predicate is swapped in place and takes effect on the very next tuple.
#[test]
fn runtime_role_reassignment_updates_shield() {
    let schema = Schema::of("s", &[("id", sp_core::ValueType::Int)]);
    let mut catalog = sp_core::RoleCatalog::new();
    catalog.register_synthetic_roles(4);
    let mut b = sp_engine::PlanBuilder::new(Arc::new(catalog));
    let src = b.source(StreamId(1), schema);
    let ss = b.add(sp_engine::SecurityShield::new(RoleSet::from([1])), src);
    let sink = b.sink(ss);
    let mut exec = b.build();

    let grant = |roles: &[u32], ts: u64| {
        StreamElement::punctuation(sp_core::SecurityPunctuation::grant_all(
            roles.iter().map(|&r| sp_core::RoleId(r)).collect(),
            Timestamp(ts),
        ))
    };
    let tup = |tid: u64, ts: u64| {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64)],
        ))
    };

    exec.push(StreamId(1), grant(&[2], 0)).unwrap();
    exec.push(StreamId(1), tup(1, 1)).unwrap();
    assert_eq!(exec.sink(sink).tuple_count(), 0, "role 1 not authorized");

    // The subject's roles change to {2}: the shield is updated in place
    // and the buffered segment policy re-evaluated.
    assert!(exec.update_predicate(ss, &RoleSet::from([2])));
    exec.push(StreamId(1), tup(2, 2)).unwrap();
    assert_eq!(exec.sink(sink).tuple_count(), 1, "new role sees the segment");

    // And back again.
    assert!(exec.update_predicate(ss, &RoleSet::from([3])));
    exec.push(StreamId(1), tup(3, 3)).unwrap();
    assert_eq!(exec.sink(sink).tuple_count(), 1);
}

/// Incremental policies (§IX future work) through the engine: grants
/// accumulate and negative sps revoke, instead of wholesale replacement.
#[test]
fn incremental_policies_through_the_engine() {
    let schema = Schema::of("s", &[("id", sp_core::ValueType::Int)]);
    let mut catalog = sp_core::RoleCatalog::new();
    catalog.register_synthetic_roles(4);
    let mut b = sp_engine::PlanBuilder::new(Arc::new(catalog));
    let src = b.source(StreamId(1), schema);
    b.set_incremental(src, true);
    let ss = b.add(sp_engine::SecurityShield::new(RoleSet::from([1])), src);
    let sink = b.sink(ss);
    let mut exec = b.build();

    let tup = |tid: u64, ts: u64| {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64)],
        ))
    };
    let grant = |roles: &[u32], ts: u64| {
        StreamElement::punctuation(sp_core::SecurityPunctuation::grant_all(
            roles.iter().map(|&r| sp_core::RoleId(r)).collect(),
            Timestamp(ts),
        ))
    };
    let revoke = |roles: &[u32], ts: u64| {
        StreamElement::punctuation(
            sp_core::SecurityPunctuation::grant_all(
                roles.iter().map(|&r| sp_core::RoleId(r)).collect(),
                Timestamp(ts),
            )
            .negative(),
        )
    };

    exec.push(StreamId(1), grant(&[1], 1)).unwrap();
    exec.push(StreamId(1), tup(1, 2)).unwrap(); // visible
    exec.push(StreamId(1), grant(&[2], 3)).unwrap(); // ADDS role 2; role 1 keeps access
    exec.push(StreamId(1), tup(2, 4)).unwrap(); // still visible
    exec.push(StreamId(1), revoke(&[1], 5)).unwrap(); // revokes role 1
    exec.push(StreamId(1), tup(3, 6)).unwrap(); // no longer visible
    let ids: Vec<u64> = exec.sink(sink).tuples().map(|t| t.tid.raw()).collect();
    assert_eq!(ids, vec![1, 2]);
}

/// Attribute-granularity enforcement through the full stack (§III-C's
/// attribute-level example): an sp grants only Beats_per_min to the
/// nurse; with attribute granularity the nurse receives tuples with the
/// other attribute masked, while tuple granularity drops them entirely.
#[test]
fn attribute_granularity_masks_through_cql() {
    for attribute_mode in [true, false] {
        let mut dsms = hospital_dsms();
        if attribute_mode {
            dsms.set_granularity(sp_engine::Granularity::Attribute).unwrap();
        }
        let nurse = dsms.register_subject("n", &["nurse_on_duty"]).unwrap();
        let q = dsms.submit("SELECT Patient_id, Beats_per_min FROM HeartRate", nurse).unwrap();
        // Attribute-level sp: nurses may read ONLY the heart beat.
        let (sid, sp) = dsms
            .insert_sp(
                "INSERT SP INTO STREAM HeartRate \
                 LET DDP = ('*', '*', 'Beats_per_min'), SRP = 'nurse_on_duty'",
                Timestamp(0),
            )
            .unwrap();
        let mut running = dsms.start();
        running.push(sid, StreamElement::punctuation(sp));
        running.push(streams::HEART_RATE, hr_tuple(120, 1, 72));

        if attribute_mode {
            let released: Vec<_> = running.results(q).tuples().collect();
            assert_eq!(released.len(), 1, "attribute grant admits the tuple");
            assert!(released[0].value(0).unwrap().is_null(), "Patient_id masked for the nurse");
            assert_eq!(released[0].value(1), Some(&Value::Int(72)));
        } else {
            assert_eq!(
                running.results(q).tuple_count(),
                0,
                "tuple granularity: attribute-only grants do not admit tuples"
            );
        }
    }
}

/// CQL UNION across the two vitals streams: each side's tuples remain
/// governed by their own stream's policy on the merged output.
#[test]
fn cql_union_keeps_per_stream_policies() {
    let mut dsms = hospital_dsms();
    let doc = dsms.register_subject("doc", &["doctor"]).unwrap();
    let q = dsms
        .submit(
            "SELECT Patient_id FROM HeartRate UNION SELECT Patient_id FROM BodyTemperature",
            doc,
        )
        .unwrap();
    // HeartRate is doctor-visible; BodyTemperature is employee-only.
    let (s1, sp1) = dsms
        .insert_sp(
            "INSERT SP INTO STREAM HeartRate LET DDP = ('*','*','*'), SRP = 'doctor'",
            Timestamp(0),
        )
        .unwrap();
    let (s2, sp2) = dsms
        .insert_sp(
            "INSERT SP INTO STREAM BodyTemperature LET DDP = ('*','*','*'), SRP = 'employee'",
            Timestamp(0),
        )
        .unwrap();
    let mut running = dsms.start();
    running.push(s1, StreamElement::punctuation(sp1));
    running.push(s2, StreamElement::punctuation(sp2));
    running.push(streams::HEART_RATE, hr_tuple(120, 1, 70));
    running.push(streams::BODY_TEMPERATURE, bt_tuple(121, 2, 98.6));
    running.push(streams::HEART_RATE, hr_tuple(122, 3, 71));
    let ids: Vec<u64> = running.results(q).tuples().map(|t| t.tid.raw()).collect();
    assert_eq!(ids, vec![120, 122], "only the heart-rate side is visible");
}
