//! Pins every byte the windowed operators produce: the snapshot of
//! `DupElim`, `GroupBy` (each aggregate), `SAIntersect`, `Union` and
//! `SAJoin` (each variant), taken after every 7th element, and the
//! element sequence each emits, over seeded two-port streams.
//!
//! The streams mix uniform grants, sp-batches of 1–3 scoped sps of either
//! sign (some on attribute `v` only), deny-all stretches and gaps in time
//! long enough to expire window entries, so every path of window state,
//! governing-segment tracking and output-policy announcement is taken.
//! Each port runs through its own SP Analyzer; unary operators read port
//! 0. A change that moves one snapshot byte or one emitted element fails
//! here, and must say why in its re-pinned rows.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use sp_core::wire::crc32;
use sp_core::{
    DataDescription, RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, SplitMix64,
    StreamElement, StreamId, Timestamp, Tuple, TupleId, Value, ValueType,
};
use sp_engine::checkpoint::encode_element;
use sp_engine::{
    AggFunc, DupElim, Element, Emitter, GroupBy, JoinVariant, Operator, OperatorExt, SAIntersect,
    SAJoin, SpAnalyzer, Union,
};
use sp_pattern::Pattern;

/// Window length of every operator, in stream milliseconds.
const WINDOW_MS: u64 = 12;

/// Builds a fresh operator under test.
type Fresh = fn() -> Box<dyn Operator>;

fn schema() -> Arc<Schema> {
    Schema::of("s", &[("k", ValueType::Int), ("v", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(8);
    Arc::new(c)
}

fn draw(rng: &mut SplitMix64, below: u64) -> u64 {
    rng.next_u64() % below
}

fn roles(rng: &mut SplitMix64) -> RoleSet {
    (0..1 + draw(rng, 3)).map(|_| RoleId(draw(rng, 6) as u32)).collect()
}

/// One sp-batch on one port: a uniform grant, 1–3 scoped sps of either
/// sign, or a deny-all grant.
fn batch(rng: &mut SplitMix64, ts: Timestamp) -> Vec<StreamElement> {
    match draw(rng, 3) {
        0 => vec![StreamElement::punctuation(SecurityPunctuation::grant_all(roles(rng), ts))],
        1 => (0..1 + draw(rng, 3))
            .map(|_| {
                let lo = draw(rng, 16);
                let mut ddp = DataDescription::tuple_range(lo, lo + draw(rng, 6));
                if draw(rng, 4) == 0 {
                    ddp.attrs = Pattern::literal("v");
                }
                let sp = SecurityPunctuation::grant_all(roles(rng), ts).with_ddp(ddp);
                StreamElement::punctuation(if draw(rng, 3) == 0 { sp.negative() } else { sp })
            })
            .collect(),
        _ => vec![StreamElement::punctuation(SecurityPunctuation::grant_all(RoleSet::new(), ts))],
    }
}

/// Two punctuated streams merged in timestamp order, each resolved by its
/// own analyzer: `(port, element)`.
fn streams(seed: u64, len: usize) -> Vec<(usize, Element)> {
    let mut rng = SplitMix64::new(seed);
    let mut analyzers =
        [SpAnalyzer::new(schema(), catalog()), SpAnalyzer::new(schema(), catalog())];
    let mut out = Vec::new();
    let mut staged = Vec::new();
    let mut ts = 0u64;
    for _ in 0..len {
        ts += if draw(&mut rng, 12) == 0 { WINDOW_MS } else { 1 };
        let port = draw(&mut rng, 2) as usize;
        let raw = if draw(&mut rng, 4) == 0 {
            batch(&mut rng, Timestamp(ts))
        } else {
            let tid = draw(&mut rng, 24);
            let values =
                vec![Value::Int(draw(&mut rng, 4) as i64), Value::Int(draw(&mut rng, 3) as i64)];
            vec![StreamElement::tuple(Tuple::new(
                StreamId(port as u32),
                TupleId(tid),
                Timestamp(ts),
                values,
            ))]
        };
        for e in raw {
            analyzers[port].push(e, &mut staged);
            out.extend(staged.drain(..).map(|e| (port, e)));
        }
    }
    for (port, analyzer) in analyzers.iter_mut().enumerate() {
        analyzer.flush(&mut staged);
        out.extend(staged.drain(..).map(|e| (port, e)));
    }
    out
}

/// Feeds `elems` one at a time; returns the crc32 of the snapshots taken
/// after every 7th element (each length-prefixed), the crc32 of the
/// emitted elements, and how many elements were emitted.
fn pin(op: &mut dyn Operator, elems: &[(usize, Element)]) -> (u32, u32, usize) {
    let unary = op.arity() == 1;
    let mut emitter = Emitter::new();
    let (mut snaps, mut emitted, mut count) = (Vec::new(), Vec::new(), 0);
    for (i, (port, e)) in elems.iter().filter(|(port, _)| !unary || *port == 0).enumerate() {
        op.process(*port, e.clone(), &mut emitter).unwrap();
        for out in emitter.take() {
            encode_element(&out, &mut emitted);
            count += 1;
        }
        if (i + 1) % 7 == 0 {
            let mut snap = Vec::new();
            op.snapshot(&mut snap);
            snaps.extend((snap.len() as u32).to_be_bytes());
            snaps.extend(snap);
        }
    }
    (crc32(&snaps), crc32(&emitted), count)
}

#[test]
fn windowed_operator_bytes_are_pinned() {
    let operators: Vec<(&str, Fresh)> = vec![
        ("dupelim/key", || Box::new(DupElim::new(vec![0], WINDOW_MS))),
        ("dupelim/whole", || Box::new(DupElim::new(vec![], WINDOW_MS))),
        ("groupby/count", || Box::new(GroupBy::new(Some(0), AggFunc::Count, 1, WINDOW_MS))),
        ("groupby/sum", || Box::new(GroupBy::new(Some(0), AggFunc::Sum, 1, WINDOW_MS))),
        ("groupby/avg", || Box::new(GroupBy::new(Some(0), AggFunc::Avg, 1, WINDOW_MS))),
        ("groupby/min", || Box::new(GroupBy::new(Some(0), AggFunc::Min, 1, WINDOW_MS))),
        ("groupby/max", || Box::new(GroupBy::new(None, AggFunc::Max, 1, WINDOW_MS))),
        ("intersect", || Box::new(SAIntersect::new(WINDOW_MS))),
        ("union", || Box::new(Union::new())),
        ("sajoin/pf", || Box::new(SAJoin::new(JoinVariant::NestedLoopPF, WINDOW_MS, 0, 0, 2))),
        ("sajoin/fp", || Box::new(SAJoin::new(JoinVariant::NestedLoopFP, WINDOW_MS, 0, 0, 2))),
        ("sajoin/index", || Box::new(SAJoin::new(JoinVariant::Index, WINDOW_MS, 0, 0, 2))),
    ];
    let inputs: Vec<Vec<(usize, Element)>> = (0..8).map(|seed| streams(seed, 500)).collect();
    let got: Vec<(&str, u32, u32, usize)> = operators
        .iter()
        .map(|(name, fresh)| {
            let (mut snaps, mut emitted, mut count) = (Vec::new(), Vec::new(), 0);
            for elems in &inputs {
                let (s, e, n) = pin(fresh().as_mut(), elems);
                snaps.extend(s.to_be_bytes());
                emitted.extend(e.to_be_bytes());
                count += n;
            }
            (*name, crc32(&snaps), crc32(&emitted), count)
        })
        .collect();
    // (operator, snapshot digest, emitted digest, elements emitted)
    let want: &[(&str, u32, u32, usize)] = &[
        ("dupelim/key", 1359183890, 3117669182, 593),
        ("dupelim/whole", 1460737278, 3343925423, 681),
        ("groupby/count", 1933116919, 1979615977, 886),
        ("groupby/sum", 1933116919, 4293237999, 886),
        ("groupby/avg", 1933116919, 2962404075, 886),
        ("groupby/min", 1933116919, 3612476782, 886),
        ("groupby/max", 1994945624, 3933312652, 1087),
        ("intersect", 898275851, 1722093173, 46),
        ("union", 1826465100, 1999610263, 4753),
        ("sajoin/pf", 2142333260, 3757280328, 133),
        ("sajoin/fp", 2142333260, 3757280328, 133),
        ("sajoin/index", 1962637232, 7764590, 135),
    ];
    assert_eq!(got, want);
}
