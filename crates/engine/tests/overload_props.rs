//! Property tests for the overload subsystem: load shedding may only ever
//! *narrow* what a query releases, never widen it, and policy state must
//! be completely insensitive to which data tuples overload management
//! discards.
//!
//! Three families of properties over randomized workloads, shed policies,
//! and watermark configurations:
//!
//! 1. **released-set subset** — the tuples released by an overloaded
//!    (shedding) pipeline are a subset of the tuples the unloaded pipeline
//!    releases, and the policy sequence crossing the shedder is byte-for-
//!    byte the sequence that entered it (sps are lossless control traffic);
//! 2. **policy-table independence** — the analyzer's end-of-run policy
//!    table is byte-identical no matter which data tuples were refused
//!    upstream (the invariant admission control relies on);
//! 3. **admission soundness** — the token-bucket admission controller
//!    never refuses a punctuation, and every refusal carries a positive
//!    retry hint.
//!
//! Plus a deterministic *negative control*: a deliberately broken shedder
//! that drops sps under load produces a released-set violation, proving
//! this harness actually catches policy loss.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use proptest::prelude::*;
use sp_core::{
    RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement, StreamId, Timestamp,
    Tuple, TupleId, Value, ValueType,
};
use sp_engine::{
    AdmissionConfig, AdmissionController, Element, Emitter, OperatorExt, SecurityShield,
    ShedPolicy, Shedder, ShedderConfig, Slack, SpAnalyzer, WatermarkConfig,
};

fn schema() -> Arc<Schema> {
    Schema::of("s", &[("k", ValueType::Int), ("v", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(8);
    Arc::new(c)
}

/// One raw workload item: an sp-batch grant or a tuple. `gap` stretches
/// the inter-arrival time so drain-based recovery gets exercised.
#[derive(Debug, Clone)]
enum Item {
    Sp(Vec<u32>),
    Tup { k: i64, gap: u64 },
}

fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(0u32..6, 0..3).prop_map(Item::Sp),
            (0i64..6, 0u64..4).prop_map(|(k, gap)| Item::Tup { k, gap }),
            (0i64..6, 0u64..4).prop_map(|(k, gap)| Item::Tup { k, gap }),
            (0i64..6, 0u64..4).prop_map(|(k, gap)| Item::Tup { k, gap }),
        ],
        8..80,
    )
}

fn arb_shed_policy() -> impl Strategy<Value = ShedPolicy> {
    prop_oneof![
        (0u32..=100, any::<u64>())
            .prop_map(|(pct, seed)| ShedPolicy::RandomP { p: f64::from(pct) / 100.0, seed }),
        (0u64..50).prop_map(|ms| ShedPolicy::OldestFirst { slack: Slack::new(ms) }),
        Just(ShedPolicy::FairPerStream),
    ]
}

fn arb_shedder_cfg() -> impl Strategy<Value = ShedderConfig> {
    (4u64..64, 0u64..3, 20u64..60, arb_shed_policy()).prop_map(
        |(capacity, drain, shed_high, policy)| ShedderConfig {
            capacity,
            drain_per_ms: drain,
            // Keep the rungs ordered whatever shed_high was drawn.
            watermarks: WatermarkConfig {
                shed_high,
                shed_low: shed_high / 2,
                critical_high: shed_high + 20,
                critical_low: shed_high,
                fail_high: shed_high + 35,
                fail_low: shed_high + 10,
            },
            policy,
        },
    )
}

fn raw_stream(items: &[Item]) -> Vec<StreamElement> {
    let mut clock = 0u64;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            clock += 1;
            match item {
                Item::Sp(roles) => {
                    let rs: RoleSet = roles.iter().map(|&r| RoleId(r)).collect();
                    StreamElement::punctuation(SecurityPunctuation::grant_all(rs, Timestamp(clock)))
                }
                Item::Tup { k, gap } => {
                    clock += gap;
                    StreamElement::tuple(Tuple::new(
                        StreamId(1),
                        TupleId(i as u64),
                        Timestamp(clock),
                        vec![Value::Int(*k), Value::Int(i as i64)],
                    ))
                }
            }
        })
        .collect()
}

/// What one analyzer → (shedder?) → shield pipeline run produced.
struct RunOutcome {
    /// Tuple ids the shield released, in order.
    released: Vec<u64>,
    /// Canonical bytes of the analyzer's end-of-run policy table.
    policy_table: Vec<u8>,
    /// Debug renderings of every policy element that left the shedder
    /// (equals the entering sequence iff the shedder lost none).
    policies_out: Vec<String>,
    /// Same, for the policies that *entered* the shedder.
    policies_in: Vec<String>,
}

/// Runs the pipeline, optionally with a shedder between the analyzer and
/// the shield. `broken` turns on the deliberate sp-shedding defect.
fn run_pipeline(items: &[Item], shed: Option<ShedderConfig>, broken: bool) -> RunOutcome {
    let mut analyzer = SpAnalyzer::new(schema(), catalog());
    let mut shedder = shed.map(|cfg| {
        let mut s = Shedder::new(cfg);
        if broken {
            s.break_sp_shedding();
        }
        s
    });
    let mut shield = SecurityShield::new(RoleSet::from([1, 3]));
    let mut emitter = Emitter::new();
    let mut out = RunOutcome {
        released: Vec::new(),
        policy_table: Vec::new(),
        policies_out: Vec::new(),
        policies_in: Vec::new(),
    };

    let mut staged = Vec::new();
    for raw in raw_stream(items) {
        staged.clear();
        analyzer.push(raw, &mut staged);
        for el in staged.drain(..) {
            if let Element::Policy(p) = &el {
                out.policies_in.push(format!("{p:?}"));
            }
            let survivors: Vec<Element> = match &mut shedder {
                Some(s) => {
                    s.process(0, el, &mut emitter).unwrap();
                    emitter.take().to_vec()
                }
                None => vec![el],
            };
            for el in survivors {
                if let Element::Policy(p) = &el {
                    out.policies_out.push(format!("{p:?}"));
                }
                shield.process(0, el, &mut emitter).unwrap();
                for released in emitter.take().to_vec() {
                    if let Element::Tuple(t) = released {
                        out.released.push(t.tid.raw());
                    }
                }
            }
        }
    }
    // Batches resolve lazily (the next element triggers resolution), so
    // force the pending batch through before reading the table — the
    // invariant is over the *end-of-run* policy state.
    staged.clear();
    analyzer.flush(&mut staged);
    out.policy_table = analyzer.policy_table_bytes();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Shedding narrows the released set and loses no policy: every tuple
    /// an overloaded run releases, the unloaded run releases too, and the
    /// policy sequence crosses the shedder untouched.
    #[test]
    fn shedded_release_is_a_subset_and_policies_are_lossless(
        items in arb_items(),
        cfg in arb_shedder_cfg(),
    ) {
        let baseline = run_pipeline(&items, None, false);
        let shedded = run_pipeline(&items, Some(cfg), false);

        let base: std::collections::BTreeSet<u64> = baseline.released.iter().copied().collect();
        for tid in &shedded.released {
            prop_assert!(
                base.contains(tid),
                "overloaded run released tuple {tid} the unloaded run withheld"
            );
        }
        prop_assert_eq!(
            &shedded.policies_out, &shedded.policies_in,
            "shedder altered the policy sequence"
        );
        prop_assert_eq!(
            &shedded.policy_table, &baseline.policy_table,
            "policy table diverged under shedding"
        );
    }

    /// The analyzer's policy table is a function of the sps alone:
    /// refusing any subset of data tuples upstream (what admission
    /// control does) leaves it byte-identical.
    #[test]
    fn policy_table_ignores_refused_tuples(
        items in arb_items(),
        mask in any::<u64>(),
    ) {
        let full: Vec<StreamElement> = raw_stream(&items);
        let thinned: Vec<StreamElement> = full
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                matches!(e, StreamElement::Punctuation(_)) || mask & (1 << (i % 64)) != 0
            })
            .map(|(_, e)| e.clone())
            .collect();

        let mut staged = Vec::new();
        let mut a = SpAnalyzer::new(schema(), catalog());
        for e in full {
            a.push(e, &mut staged);
            staged.clear();
        }
        a.flush(&mut staged);
        staged.clear();
        let mut b = SpAnalyzer::new(schema(), catalog());
        for e in thinned {
            b.push(e, &mut staged);
            staged.clear();
        }
        b.flush(&mut staged);
        staged.clear();
        prop_assert_eq!(
            a.policy_table_bytes(),
            b.policy_table_bytes(),
            "policy table depends on which tuples were admitted"
        );
    }

    /// Admission control is sound: sps always pass, refusals always carry
    /// a positive retry hint, and the counters account for every element.
    #[test]
    fn admission_never_refuses_sps_and_hints_are_positive(
        items in arb_items(),
        tokens_per_sec in 1u64..2_000,
        burst in 1u64..32,
        deadline in 0u64..100,
    ) {
        let mut ac = AdmissionController::new(AdmissionConfig {
            tokens_per_sec,
            burst,
            enqueue_deadline_ms: deadline,
        });
        let (mut tuples, mut sps) = (0u64, 0u64);
        for e in raw_stream(&items) {
            let is_tuple = matches!(e, StreamElement::Tuple(_));
            let res = ac.admit(StreamId(1), is_tuple, e.ts());
            if is_tuple {
                tuples += 1;
                if let Err(err) = res {
                    match err {
                        sp_engine::EngineError::Overloaded { retry_after_ms } => {
                            prop_assert!(retry_after_ms > 0, "refusal without a retry hint");
                        }
                        other => prop_assert!(false, "unexpected error {other:?}"),
                    }
                }
            } else {
                sps += 1;
                prop_assert!(res.is_ok(), "admission refused a punctuation");
            }
        }
        prop_assert_eq!(ac.admitted() + ac.rejected(), tuples);
        prop_assert_eq!(ac.sps_bypassed(), sps);
        prop_assert_eq!(ac.degradation().admission_rejected, ac.rejected());
    }
}

/// Negative control: a shedder that (deliberately, via the test-only
/// defect switch) sheds sps while under load lets a revoked grant live on
/// downstream — and this harness's subset check catches the leak. If this
/// test ever fails, the leak-detection above has gone blind.
#[test]
fn broken_sp_shedding_shedder_is_caught_by_the_subset_check() {
    // Build the scenario directly: grant, load the queue into the
    // Shedding band, revoke, then more tuples.
    let mut items = vec![Item::Sp(vec![1])];
    for _ in 0..7 {
        items.push(Item::Tup { k: 1, gap: 0 });
    }
    items.push(Item::Sp(vec![])); // revoke: empty role set denies all
    for _ in 0..4 {
        items.push(Item::Tup { k: 2, gap: 0 });
    }

    // Capacity 10, no drain: 7 admitted tuples = 70% occupancy, inside
    // the Shedding band (60..80) — high enough that the broken shedder
    // drops the revoke sp, low enough that RandomP(p=0) keeps admitting
    // the post-revoke tuples the leak needs.
    let cfg = ShedderConfig {
        capacity: 10,
        drain_per_ms: 0,
        watermarks: WatermarkConfig::default(),
        policy: ShedPolicy::RandomP { p: 0.0, seed: 1 },
    };

    let baseline = run_pipeline(&items, None, false);
    let correct = run_pipeline(&items, Some(cfg.clone()), false);
    let broken = run_pipeline(&items, Some(cfg), true);

    let base: std::collections::BTreeSet<u64> = baseline.released.iter().copied().collect();

    // The correct shedder stays a subset and loses no policy.
    assert!(correct.released.iter().all(|t| base.contains(t)));
    assert_eq!(correct.policies_out, correct.policies_in);

    // The broken one leaks: it releases post-revoke tuples the unloaded
    // run withheld, and the policy sequence shows the loss.
    assert_ne!(broken.policies_out, broken.policies_in, "defect did not drop the sp");
    let leaked: Vec<u64> = broken.released.iter().copied().filter(|t| !base.contains(t)).collect();
    assert!(
        !leaked.is_empty(),
        "sp-shedding shedder produced no subset violation — the harness is blind"
    );
}
