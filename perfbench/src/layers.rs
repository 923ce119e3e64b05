//! The in-process waterfall: the same input replayed into each layer's
//! public functions, timed from outside with one span per frame-sized
//! chunk. Nothing here touches a socket; `socket.rs` measures that part.
//!
//! Every `ns_per_tuple` / `ns_per_elem` row divides a layer's busy time by
//! the *input* tuples / elements, so rows of one workload add up (eight
//! shields per tuple show as one row eight times as tall).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sp_baselines::{
    CryptoEnforced, EnforcementMechanism, SpMechanism, StoreAndProbe, TupleEmbedded,
};
use sp_core::wire::{Message, StreamDecoder, WireFrame};
use sp_core::{RoleCatalog, StreamElement, StreamId};
use sp_engine::{
    AdmissionController, CheckpointStore, Element, ElementBatch, Emitter, MemStore, Operator,
    PlanBuilder, Project, SecurityShield, Select, ShardedExecutor, Sink, SinkRef, SpAnalyzer,
    TelemetryConfig,
};
use sp_mog::MovingObjectSim;
use sp_query::{instantiate_with, Dsms, InstantiateOptions, LogicalPlan};

use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use crate::workloads::{digest, Input, Reference, Spec, CHECKPOINT_EVERY_FRAMES};

/// Elements of the input's head that the mode, telemetry, checkpoint and
/// baseline sweeps replay. The sharded runtime is an order of magnitude
/// slower than the sequential executor, so the sweeps use a prefix; every
/// sweep row is compared with a sequential run of the same prefix.
const SWEEP_ELEMS: usize = 50_000;

/// In-flight buffer of the baseline mechanisms (as in `fig7`).
const IN_FLIGHT: usize = 512;

pub type Metrics = Vec<(&'static str, f64)>;

/// The shared physical plan of a session, built as `Dsms::start` builds
/// it: one source per stream, one operator chain and sink per query.
fn plan_builder(
    dsms: &Dsms,
    eager_selects: bool,
    telemetry: TelemetryConfig,
) -> (PlanBuilder, Vec<SinkRef>) {
    let mut builder = PlanBuilder::new(Arc::new(dsms.catalog.roles.clone()));
    let mut sources = HashMap::new();
    let opts = InstantiateOptions { eager_selects, ..InstantiateOptions::default() };
    let sinks = dsms
        .queries()
        .iter()
        .map(|q| {
            let root = instantiate_with(&q.plan, &mut builder, &mut sources, opts);
            builder.sink(root)
        })
        .collect();
    builder.enable_telemetry(telemetry);
    (builder, sinks)
}

/// One query's operators bottom-up, standing alone (no executor).
struct Chain {
    ops: Vec<(&'static str, Box<dyn Operator>)>,
    sink: Sink,
}

fn chain_of(plan: &LogicalPlan, telemetry: TelemetryConfig) -> Result<Chain, String> {
    let mut ops: Vec<(&'static str, Box<dyn Operator>)> = Vec::new();
    let mut node = plan;
    loop {
        node = match node {
            LogicalPlan::Scan { .. } => break,
            LogicalPlan::Shield { input, roles } => {
                ops.push(("engine.shield", Box::new(SecurityShield::new(roles.clone()))));
                input
            }
            LogicalPlan::Select { input, predicate } => {
                ops.push(("engine.select", Box::new(Select::new(predicate.clone()))));
                input
            }
            LogicalPlan::Project { input, indices } => {
                ops.push(("engine.project", Box::new(Project::new(indices.clone()))));
                input
            }
            other => return Err(format!("plan is not a select/project/shield chain: {other:?}")),
        };
    }
    ops.reverse();
    for (_, op) in &mut ops {
        if telemetry.audit_capacity > 0 {
            op.set_audit(telemetry.audit_capacity);
        }
        if telemetry.span_capacity > 0 {
            op.set_spans(telemetry.span_capacity);
        }
    }
    Ok(Chain { ops, sink: Sink::new() })
}

fn check_released<'a>(
    what: &str,
    dsms: &Dsms,
    sinks: impl Iterator<Item = &'a Sink>,
    reference: &Reference,
) -> Result<(), String> {
    let got: Vec<(u32, (u64, u32))> = dsms
        .queries()
        .iter()
        .zip(sinks)
        .map(|(q, sink)| {
            let lines: Vec<String> = sink.tuples().map(|t| t.to_string()).collect();
            (q.id.raw(), digest(lines.iter().map(String::as_str)))
        })
        .collect();
    if got == reference.released {
        Ok(())
    } else {
        Err(format!("{what}: released {got:?}, reference {:?}", reference.released))
    }
}

fn ns_per(busy_ns: u64, n: u64) -> f64 {
    busy_ns as f64 / n.max(1) as f64
}

/// Cost of one clock read, so a reader can judge what the per-chunk
/// timers add to short spans.
fn clock_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// Runs the whole waterfall for one workload and returns its rows.
pub fn run(
    spec: &'static Spec,
    input: &Input,
    reference: &Reference,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    let dsms = spec.dsms();
    let telemetry = dsms.telemetry.unwrap_or_default();
    let elems = input.elements.len() as u64;
    let mut m: Metrics = Vec::new();
    let clock = clock_ns();
    m.push(("trace.clock_ns", clock));

    wire_encode(input, tracer);
    m.push(("core.wire.encode_ns_per_elem", ns_per(tracer.busy_ns("core.wire.encode"), elems)));
    m.push(("core.wire.bytes_per_elem", input.wire_bytes() as f64 / elems as f64));

    operators(&dsms, input, reference, tracer, &mut m)?;
    analyzer_split(&dsms, input, clock, &mut m);

    let (builder, sinks) = plan_builder(&dsms, false, telemetry);
    let mut exec = builder.build();
    replay(tracer, "engine.executor", input, |e| exec.push(input.stream, e))?;
    check_released("executor", &dsms, sinks.iter().map(|s| exec.sink(*s)), reference)?;
    drop(exec);
    let executor = ns_per(tracer.busy_ns("engine.executor"), elems);
    let operators: f64 =
        ["engine.analyzer", "engine.select", "engine.project", "engine.shield", "engine.sink"]
            .iter()
            .map(|n| ns_per(tracer.busy_ns(n), elems))
            .sum();
    m.push(("engine.executor.ns_per_elem", executor));
    m.push(("engine.executor.dispatch_ns_per_elem", executor - operators));

    let mut session = dsms.start();
    replay(tracer, "query.session", input, |e| session.try_push(input.stream, e))?;
    let queries: Vec<_> = dsms.queries().iter().map(|q| q.id).collect();
    for (q, want) in queries.iter().zip(&reference.released) {
        let n = session.results(*q).tuple_count() as u64;
        if n != want.1 .0 {
            return Err(format!("session replay released {n}, reference {}", want.1 .0));
        }
    }
    drop(session);
    m.push(("query.session.ns_per_elem", ns_per(tracer.busy_ns("query.session"), elems)));

    let prefix = &input.elements[..input.elements.len().min(SWEEP_ELEMS)];
    modes(&dsms, input.stream, prefix, telemetry, tracer, &mut m)?;
    telemetry_sweep(spec, &dsms, input.stream, prefix, &mut m)?;
    checkpoints(spec, &dsms, input, prefix.len(), tracer, &mut m)?;
    baselines(&dsms, prefix, tracer, &mut m)?;
    Ok(m)
}

/// `Message::encode_to_vec` per frame (what a provider pays; the
/// benchmark's own client pays it in set-up).
fn wire_encode(input: &Input, tracer: &mut Tracer) {
    for i in 0..input.frames.len() {
        let msg = Message::new(input.stream, input.chunk(i).to_vec());
        let start = tracer.now();
        black_box(msg.encode_to_vec());
        tracer.record("core.wire.encode", ROOT, start, msg.elements.len() as u32);
    }
}

/// Replays the input element by element into `push`, one span per
/// frame-sized chunk. The chunk is cloned outside the span: the layers
/// take elements by value, as they do behind the server's decoder.
fn replay<E: std::fmt::Display>(
    tracer: &mut Tracer,
    name: &'static str,
    input: &Input,
    mut push: impl FnMut(StreamElement) -> Result<(), E>,
) -> Result<(), String> {
    for i in 0..input.frames.len() {
        let chunk = input.chunk(i).to_vec();
        let n = chunk.len() as u32;
        let start = tracer.now();
        for elem in chunk {
            push(elem).map_err(|e| format!("{name}: {e}"))?;
        }
        tracer.record(name, ROOT, start, n);
    }
    Ok(())
}

/// The instrumented pass: per frame, decode → admission → analyzer →
/// each operator level of every query → sinks, each a child span of
/// `inproc.frame`. Operators see singleton batches in the order the
/// executor would give them (the session pushes element by element), but
/// level by level within a frame so that one timer pair covers a level.
fn operators(
    dsms: &Dsms,
    input: &Input,
    reference: &Reference,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let telemetry = dsms.telemetry.unwrap_or_default();
    let mut chains = dsms
        .queries()
        .iter()
        .map(|q| chain_of(&q.plan, telemetry))
        .collect::<Result<Vec<_>, _>>()?;
    let levels: Vec<&'static str> = chains[0].ops.iter().map(|(name, _)| *name).collect();
    if chains.iter().any(|c| !c.ops.iter().map(|(n, _)| *n).eq(levels.iter().copied())) {
        return Err("queries of one workload must share a plan shape".into());
    }
    for name in ["engine.select", "engine.project", "engine.shield"] {
        if levels.iter().filter(|l| **l == name).count() != 1 {
            return Err(format!("plan {levels:?} must hold exactly one {name}"));
        }
    }
    let mut dec = StreamDecoder::new(1 << 20);
    let mut admission = dsms.admission.map(AdmissionController::new);
    let mut analyzer =
        SpAnalyzer::new(MovingObjectSim::location_schema(), Arc::new(dsms.catalog.roles.clone()));
    if telemetry.audit_capacity > 0 {
        analyzer.set_audit(telemetry.audit_capacity);
    }
    if telemetry.span_capacity > 0 {
        analyzer.set_spans(telemetry.span_capacity);
    }
    let mut staged: Vec<Element> = Vec::new();
    let mut cur: Vec<Vec<Element>> = vec![Vec::new(); chains.len()];
    let mut next: Vec<Element> = Vec::new();
    let mut emitter = Emitter::with_capacity(256);
    let mut policies_out = 0u64;

    for wire in &input.frames {
        let frame = tracer.open("inproc.frame", ROOT);

        let start = tracer.now();
        let mut elements: Vec<StreamElement> = Vec::new();
        for f in dec.feed(wire) {
            if let WireFrame::Message(msg) = f {
                elements = msg.elements;
            }
        }
        let n = elements.len() as u32;
        tracer.record("core.wire.decode", frame, start, n);

        if let Some(ac) = admission.as_mut() {
            let start = tracer.now();
            for e in &elements {
                ac.admit(input.stream, e.is_tuple(), e.ts())
                    .map_err(|e| format!("admission: {e}"))?;
            }
            tracer.record("engine.admission", frame, start, n);
        }

        let start = tracer.now();
        for e in elements {
            analyzer.push(e, &mut staged);
        }
        tracer.record("engine.analyzer", frame, start, n);

        // Fan-out (one Arc clone per extra query) is the frame's own time.
        policies_out += staged.iter().filter(|e| !e.is_tuple()).count() as u64;
        for q in cur.iter_mut().skip(1) {
            q.extend(staged.iter().cloned());
        }
        cur[0].append(&mut staged);

        for (level, name) in levels.iter().enumerate() {
            let start = tracer.now();
            for (chain, cur) in chains.iter_mut().zip(cur.iter_mut()) {
                let op = &mut chain.ops[level].1;
                for elem in cur.drain(..) {
                    op.process_batch(0, ElementBatch::single(elem), &mut emitter)
                        .map_err(|e| format!("{name}: {e}"))?;
                    next.extend(emitter.drain());
                }
                std::mem::swap(cur, &mut next);
            }
            tracer.record(name, frame, start, n);
        }

        let start = tracer.now();
        for (chain, cur) in chains.iter_mut().zip(cur.iter_mut()) {
            for elem in cur.drain(..) {
                chain
                    .sink
                    .process_batch(0, ElementBatch::single(elem), &mut emitter)
                    .map_err(|e| format!("sink: {e}"))?;
            }
        }
        tracer.record("engine.sink", frame, start, n);
        tracer.close(frame, n);
    }
    check_released("operator chains", dsms, chains.iter().map(|c| &c.sink), reference)?;

    let elems = input.elements.len() as u64;
    m.push(("core.wire.decode_ns_per_elem", ns_per(tracer.busy_ns("core.wire.decode"), elems)));
    m.push(("engine.admission.ns_per_elem", ns_per(tracer.busy_ns("engine.admission"), elems)));
    m.push(("engine.analyzer.sps_in", input.sps as f64));
    m.push(("engine.analyzer.policies_out", policies_out as f64));
    for (metric, span) in [
        ("engine.select.ns_per_tuple", "engine.select"),
        ("engine.project.ns_per_tuple", "engine.project"),
        ("engine.shield.ns_per_tuple", "engine.shield"),
        ("engine.sink.ns_per_tuple", "engine.sink"),
    ] {
        m.push((metric, ns_per(tracer.busy_ns(span), input.tuples)));
    }
    let (mut tuples_in, mut released, mut sps_in) = (0u64, 0u64, 0u64);
    for chain in &chains {
        for (name, op) in &chain.ops {
            if *name == "engine.shield" {
                tuples_in += op.stats().tuples_in;
                released += op.stats().tuples_out;
                sps_in += op.stats().sps_in;
            }
        }
    }
    m.push(("engine.shield.released", released as f64));
    m.push(("engine.shield.suppressed", (tuples_in - released) as f64));
    m.push(("engine.shield.mean_run_len", tuples_in as f64 / sps_in.max(1) as f64));
    Ok(())
}

/// Splits analyzer time between punctuations and tuples: a pass that
/// times each sp push on its own and the whole pass once.
fn analyzer_split(dsms: &Dsms, input: &Input, clock_ns: f64, m: &mut Metrics) {
    let mut analyzer =
        SpAnalyzer::new(MovingObjectSim::location_schema(), Arc::new(dsms.catalog.roles.clone()));
    let mut staged = Vec::new();
    let mut sp_ns = 0u128;
    let elements = input.elements.clone();
    let whole = Instant::now();
    for elem in elements {
        if elem.is_tuple() {
            analyzer.push(elem, &mut staged);
        } else {
            let start = Instant::now();
            analyzer.push(elem, &mut staged);
            sp_ns += start.elapsed().as_nanos();
        }
        staged.clear();
    }
    let whole_ns = whole.elapsed().as_nanos() as f64;
    // Each timed sp cost two clock reads that are not analyzer work.
    let timers = 2.0 * clock_ns * input.sps as f64;
    m.push(("engine.analyzer.ns_per_sp", sp_ns as f64 / input.sps.max(1) as f64));
    m.push((
        "engine.analyzer.ns_per_tuple",
        (whole_ns - sp_ns as f64 - timers).max(0.0) / input.tuples.max(1) as f64,
    ));
}

/// Runs `f` under one span; returns its nanoseconds per unit of work and
/// its result.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    count: usize,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let start = tracer.now();
    let out = f()?;
    let id = tracer.record(name, ROOT, start, count as u32);
    Ok((ns_per(tracer.duration_ns(id), count as u64), out))
}

/// A fresh sequential `Executor` fed the prefix element by element, as the
/// session feeds it. Returns the tuples released per query.
fn push_prefix(
    dsms: &Dsms,
    stream: StreamId,
    prefix: &[StreamElement],
    telemetry: TelemetryConfig,
    batching: bool,
) -> Result<Vec<usize>, String> {
    let (builder, sinks) = plan_builder(dsms, false, telemetry);
    let mut exec = builder.build();
    exec.set_batching(batching);
    for e in prefix {
        exec.push(stream, e.clone()).map_err(|e| e.to_string())?;
    }
    Ok(sinks.iter().map(|s| exec.sink(*s).tuple_count()).collect())
}

/// The execution modes on the sweep prefix, each beside a sequential
/// batched `Executor` run of the same prefix — the baseline of the sweep.
fn modes(
    dsms: &Dsms,
    stream: StreamId,
    prefix: &[StreamElement],
    telemetry: TelemetryConfig,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let n = prefix.len();
    let (sequential, want) = timed(tracer, "engine.mode.sequential", n, || {
        push_prefix(dsms, stream, prefix, telemetry, true)
    })?;
    m.push(("engine.mode.elems", n as f64));
    m.push(("engine.mode.sequential.ns_per_elem", sequential));
    let row =
        |m: &mut Metrics, ns: &'static str, ratio: &'static str, (v, got): (f64, Vec<usize>)| {
            if got != want {
                return Err(format!("{ns}: released {got:?}, sequential executor {want:?}"));
            }
            m.push((ns, v));
            m.push((ratio, v / sequential));
            Ok(())
        };

    let run = timed(tracer, "engine.mode.tuple_at_a_time", n, || {
        push_prefix(dsms, stream, prefix, telemetry, false)
    })?;
    row(
        m,
        "engine.mode.tuple_at_a_time.ns_per_elem",
        "engine.mode.tuple_at_a_time.vs_sequential",
        run,
    )?;

    let run = timed(tracer, "engine.mode.run_parallel", n, || {
        let (builder, sinks) = plan_builder(dsms, false, telemetry);
        let inputs = prefix.iter().map(|e| (stream, e.clone()));
        let results = sp_engine::run_parallel(builder, inputs).map_err(|e| e.to_string())?;
        Ok(sinks.iter().map(|s| results.sink(*s).tuple_count()).collect())
    })?;
    row(m, "engine.mode.run_parallel.ns_per_elem", "engine.mode.run_parallel.vs_sequential", run)?;

    for (shards, span, ns, ratio) in [
        (
            1,
            "engine.mode.sharded1",
            "engine.mode.sharded1.ns_per_elem",
            "engine.mode.sharded1.vs_sequential",
        ),
        (
            2,
            "engine.mode.sharded2",
            "engine.mode.sharded2.ns_per_elem",
            "engine.mode.sharded2.vs_sequential",
        ),
    ] {
        let run = timed(tracer, span, n, || {
            // Sharded sessions instantiate their selections eagerly.
            let (_, sinks) = plan_builder(dsms, true, telemetry);
            let mut exec = ShardedExecutor::new(|| plan_builder(dsms, true, telemetry).0, shards)
                .map_err(|e| e.to_string())?;
            for e in prefix {
                exec.push(stream, e.clone()).map_err(|e| e.to_string())?;
            }
            exec.finish().map_err(|e| e.to_string())?;
            Ok(sinks.iter().map(|s| exec.sink(*s).tuple_count()).collect())
        })?;
        row(m, ns, ratio, run)?;
    }
    Ok(())
}

/// Executor time with audit, metrics or spans on, against all off, on
/// the sweep prefix: medians of three interleaved rounds. Only the
/// observed workload turns telemetry on, so only it has overheads.
fn telemetry_sweep(
    spec: &Spec,
    dsms: &Dsms,
    stream: StreamId,
    prefix: &[StreamElement],
    m: &mut Metrics,
) -> Result<(), String> {
    let names = [
        "engine.telemetry.audit_overhead_pct",
        "engine.telemetry.metrics_overhead_pct",
        "engine.telemetry.spans_overhead_pct",
    ];
    if !spec.observed {
        m.extend(names.map(|n| (n, 0.0)));
        return Ok(());
    }
    let on = TelemetryConfig::enabled();
    let off = TelemetryConfig::disabled();
    let configs = [
        off,
        TelemetryConfig { audit_capacity: on.audit_capacity, ..off },
        TelemetryConfig { metrics: true, ..off },
        TelemetryConfig { span_capacity: on.span_capacity, ..off },
    ];
    let mut runs: [Vec<f64>; 4] = Default::default();
    for _ in 0..3 {
        for (cfg, out) in configs.iter().zip(runs.iter_mut()) {
            let start = Instant::now();
            push_prefix(dsms, stream, prefix, *cfg, true)?;
            out.push(start.elapsed().as_nanos() as f64);
        }
    }
    let base = median(&runs[0]);
    for (name, run) in names.iter().zip(&runs[1..]) {
        m.push((name, (median(run) - base) / base * 100.0));
    }
    Ok(())
}

/// Cost and size of a session checkpoint at the server's cadence.
fn checkpoints(
    spec: &Spec,
    dsms: &Dsms,
    input: &Input,
    elems: usize,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    if !spec.observed {
        m.push(("engine.checkpoint.us_per_cut", 0.0));
        m.push(("engine.checkpoint.bytes_per_cut", 0.0));
        return Ok(());
    }
    let mut session = dsms.start();
    let mut store = MemStore::new();
    let frames = elems.div_ceil(input.frame_elems).min(input.frames.len());
    let mut cuts = 0u64;
    for i in 0..frames {
        for elem in input.chunk(i) {
            session.try_push(input.stream, elem.clone()).map_err(|e| e.to_string())?;
        }
        if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY_FRAMES) {
            cuts += 1;
            let start = tracer.now();
            session.checkpoint_to(cuts, &mut store).map_err(|e| e.to_string())?;
            tracer.record("engine.checkpoint", ROOT, start, 1);
        }
    }
    if store.count() as u64 != cuts {
        return Err(format!("store holds {} checkpoints after {cuts} cuts", store.count()));
    }
    m.push((
        "engine.checkpoint.us_per_cut",
        ns_per(tracer.busy_ns("engine.checkpoint"), cuts) / 1e3,
    ));
    m.push(("engine.checkpoint.bytes_per_cut", store.bytes.len() as f64 / cuts.max(1) as f64));
    Ok(())
}

/// The four enforcement mechanisms of Fig. 7 on the sweep prefix, for the
/// first query's roles. They must release the same number of tuples.
fn baselines(
    dsms: &Dsms,
    prefix: &[StreamElement],
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let catalog: Arc<RoleCatalog> = Arc::new(dsms.catalog.roles.clone());
    let schema = MovingObjectSim::location_schema();
    let roles = dsms.queries()[0].roles.clone();
    let tuples = prefix.iter().filter(|e| e.is_tuple()).count();
    let mechanisms: [(&'static str, &'static str, Box<dyn EnforcementMechanism>); 4] = [
        (
            "baselines.store_probe.ns_per_tuple",
            "baselines.store_probe",
            Box::new(StoreAndProbe::new(catalog.clone(), schema.clone(), roles.clone(), IN_FLIGHT)),
        ),
        (
            "baselines.tuple_embedded.ns_per_tuple",
            "baselines.tuple_embedded",
            Box::new(TupleEmbedded::new(catalog.clone(), schema.clone(), roles.clone(), IN_FLIGHT)),
        ),
        (
            "baselines.sp.ns_per_tuple",
            "baselines.sp",
            Box::new(SpMechanism::new(catalog.clone(), schema.clone(), roles.clone(), IN_FLIGHT)),
        ),
        (
            "baselines.crypto.ns_per_tuple",
            "baselines.crypto",
            Box::new(CryptoEnforced::new(catalog, schema, roles, IN_FLIGHT)),
        ),
    ];
    let mut released = Vec::new();
    for (metric, span, mut mech) in mechanisms {
        let mut out = Vec::with_capacity(1024);
        let (v, count) = timed(tracer, span, tuples, || {
            for elem in prefix {
                mech.process(elem.clone(), &mut out);
                out.clear();
            }
            mech.finish(&mut out);
            Ok(mech.released())
        })?;
        m.push((metric, v));
        released.push(count);
    }
    if released.iter().any(|r| *r != released[0]) {
        return Err(format!("baselines released different counts: {released:?}"));
    }
    Ok(())
}
