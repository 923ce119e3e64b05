//! Pipeline-parallel plan execution, hardened for hostile streams.
//!
//! The reference [`Executor`](crate::plan::Executor) is single-threaded —
//! ideal for deterministic cost accounting, which is what the paper's
//! experiments measure. This module adds a **pipeline-parallel** runner:
//! every operator runs on its own thread, connected by channels, the way a
//! multi-threaded DSMS would deploy a plan.
//!
//! Determinism is preserved exactly. Every batch leaving a source is
//! tagged with a global sequence number; operators emit outputs under the
//! sequence number of the input that produced them; edges are per-port
//! FIFO channels; and binary operators merge their two input channels in
//! sequence order (ties broken by port). A parallel run therefore produces
//! byte-identical results to the sequential executor — verified by the
//! equivalence tests below — while overlapping the work of pipeline
//! stages.
//!
//! Edges carry [`ElementBatch`]es, not single elements. The feeder cuts
//! each push's analyzer output into kind-homogeneous runs (one sequence
//! number per run) when the source has a single consumer; a multi-consumer
//! source sends per-element singletons, because a downstream seq-ordered
//! merge of a fan-out must see the same element-major interleaving the
//! sequential executor keeps on plans with a binary node. Workers likewise forward their emitted
//! outputs as runs under the input's sequence number; since every output
//! of one input already shared a sequence number in element-at-a-time
//! routing and the port-0 tie-break drains equal-seq entries port-major,
//! batching changes neither per-edge element order nor merge decisions.
//!
//! Robustness properties (the reason this runner differs from a naive
//! thread-per-operator sketch):
//!
//! * **classed bounded channels** — unary/sink edges are
//!   [`classed_channel`]s: **data tuples** are bounded at
//!   [`EDGE_CAPACITY`] so a slow operator exerts backpressure on the
//!   feeder instead of letting queues grow without limit, while **control
//!   traffic** — security punctuations — is always admitted. A stuffed
//!   pipe can therefore never block or delay an sp behind data
//!   backpressure: policy updates propagate even through a fully
//!   backlogged edge. Classing
//!   changes admission only, never order (both classes share one FIFO),
//!   so determinism is untouched. Binary-merge input ports are the one
//!   deliberate exception: an ordered two-way merge must be able to
//!   buffer the non-selected port arbitrarily (bounding both ports can
//!   deadlock diamond fan-ins), so those edges are unbounded.
//! * **panic containment** — each operator call runs under
//!   `catch_unwind`; a panicking operator surfaces as
//!   [`EngineError::OperatorPanic`] from [`run_parallel`] instead of a
//!   poisoned join or a silent hang.
//! * **drain with timeout** — feeding uses a stall deadline and shutdown
//!   polls worker completion against [`DRAIN_TIMEOUT`], so a wedged graph
//!   returns [`EngineError::ShutdownTimeout`] rather than blocking the
//!   caller forever.
//!
//! The runner executes *finite recorded inputs* (feed everything, close,
//! drain), the mode used by tests and benchmarks.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use sp_core::{StreamElement, StreamId};

use crate::batch::{coalesce_runs, ElementBatch};
use crate::element::Element;
use crate::error::EngineError;
use crate::operator::{Emitter, Operator as _};
use crate::ops::sink::Sink;
use crate::overload::{classed_channel, ClassedReceiver, ClassedSender, DataRejected};
use crate::plan::{PlanBuilder, SinkRef, Target};
use crate::telemetry::{merge_recorders, AuditTrail, Recorders, SpanSheet};

/// Data-class capacity of bounded (unary / sink) edges, counted in batch
/// envelopes. Control traffic (sps) does not count against it.
pub const EDGE_CAPACITY: usize = 256;

/// How long a bounded edge may refuse an element before the run is
/// declared wedged.
pub const STALL_DEADLINE: Duration = Duration::from_secs(10);

/// How long shutdown waits for workers to drain after the input closes.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// A sequence-tagged run of stream elements travelling an edge.
#[derive(Debug, Clone)]
struct Envelope {
    seq: u64,
    batch: ElementBatch,
}

impl Envelope {
    /// Control traffic — security punctuations — is lossless: it bypasses
    /// the data bound on classed edges and can never be refused or
    /// delayed by a full queue. Batches are kind-homogeneous, so a whole
    /// batch classes as either control (policies) or data (tuples).
    fn is_control(&self) -> bool {
        self.batch.is_control()
    }
}

/// What a finishing worker ships back: its node slot and its operator's
/// recorders.
type AuditMsg = (usize, Recorders);

/// Results of a parallel run.
pub struct ParallelResults {
    sinks: Vec<Sink>,
    audit: AuditTrail,
    spans: SpanSheet,
}

impl ParallelResults {
    /// The collected sink for a query.
    #[must_use]
    pub fn sink(&self, s: SinkRef) -> &Sink {
        &self.sinks[s.index()]
    }

    /// The plan-wide security audit trail, assembled in the same canonical
    /// section order as [`Executor::audit_trail`](crate::plan::Executor::audit_trail),
    /// so sequential and parallel runs of one plan encode identically.
    /// Empty unless the builder enabled telemetry with an audit capacity.
    #[must_use]
    pub fn audit_trail(&self) -> &AuditTrail {
        &self.audit
    }

    /// The plan-wide sp-trace span sheet, assembled in the same canonical
    /// section order as [`Executor::span_sheet`](crate::plan::Executor::span_sheet),
    /// so sequential and parallel runs of one plan encode identically.
    /// Empty unless the builder enabled telemetry with a span capacity.
    #[must_use]
    pub fn span_sheet(&self) -> &SpanSheet {
        &self.spans
    }
}

/// One outgoing edge: classed-bounded for unary/sink consumers, unbounded
/// for binary-merge ports (see the module docs for why).
#[derive(Clone)]
enum EdgeTx {
    Bounded(ClassedSender<Envelope>),
    Unbounded(Sender<Envelope>),
}

impl EdgeTx {
    /// Sends with backpressure. Returns `Ok(false)` when the receiver is
    /// gone (a downstream worker finished or failed — not an error for
    /// the sender), `Err` when a bounded edge's *data* class stalls past
    /// the deadline — naming `stage`, the stalled consumer, so a wedged
    /// graph is diagnosable. Control envelopes (sps) are always admitted
    /// immediately — they cannot stall behind a full data bound.
    fn send(&self, env: Envelope, stage: &str) -> Result<bool, EngineError> {
        match self {
            EdgeTx::Unbounded(tx) => Ok(tx.send(env).is_ok()),
            EdgeTx::Bounded(tx) => {
                if env.is_control() {
                    return Ok(tx.send_control(env).is_ok());
                }
                let mut env = env;
                let deadline = Instant::now() + STALL_DEADLINE;
                loop {
                    match tx.try_send_data(env) {
                        Ok(()) => return Ok(true),
                        Err(DataRejected::Disconnected(_)) => return Ok(false),
                        Err(DataRejected::Full(back)) => {
                            if Instant::now() >= deadline {
                                return Err(EngineError::ShutdownTimeout {
                                    pending_workers: 1,
                                    stalled: vec![stage.to_string()],
                                });
                            }
                            env = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        }
    }
}

/// The receiving end of an edge, mirroring [`EdgeTx`].
enum EdgeRx {
    Bounded(ClassedReceiver<Envelope>),
    Unbounded(Receiver<Envelope>),
}

impl EdgeRx {
    /// Blocking receive; `None` once every sender is gone and the queue
    /// is drained. Popping a data envelope frees its data-capacity slot.
    fn recv(&self) -> Option<Envelope> {
        match self {
            EdgeRx::Unbounded(rx) => rx.recv().ok(),
            EdgeRx::Bounded(rx) => {
                let env = rx.recv()?;
                if !env.is_control() {
                    rx.data_popped();
                }
                Some(env)
            }
        }
    }
}

/// The pre-resolved outgoing edges of one worker: exactly the senders this
/// worker needs, and nothing more. Holding only these keeps channel
/// closure cascading topologically — a worker exits when its inputs close,
/// which closes its outputs in turn. (Handing every worker senders to
/// every channel would deadlock: no channel could ever close.)
struct Wires {
    /// `(consumer label, sender)` per edge; the label names the stage a
    /// stalled send is waiting on.
    senders: Vec<(String, EdgeTx)>,
}

impl Wires {
    fn resolve(targets: &[Target], node_tx: &[Vec<EdgeTx>], sink_tx: &[EdgeTx]) -> Self {
        let senders = targets
            .iter()
            .map(|t| match *t {
                Target::Node(n, port) => {
                    (format!("node {n} port {port}"), node_tx[n][port].clone())
                }
                Target::Sink(s) => (format!("sink {s}"), sink_tx[s].clone()),
            })
            .collect();
        Self { senders }
    }

    /// Sends one batch to every consumer, cloning only for fan-out: the
    /// last sender takes the batch by move, so single-consumer edges (the
    /// common case) forward without copying. `Ok(false)` from an edge
    /// (closed downstream) is fine; a stall is not.
    fn send_batch(&self, seq: u64, batch: ElementBatch) -> Result<(), EngineError> {
        let Some(((last_label, last), rest)) = self.senders.split_last() else {
            return Ok(());
        };
        for (label, tx) in rest {
            tx.send(Envelope { seq, batch: batch.clone() }, label)?;
        }
        last.send(Envelope { seq, batch }, last_label)?;
        Ok(())
    }
}

/// A port receiver with one-envelope lookahead, for seq-ordered merging.
struct PeekRx {
    rx: EdgeRx,
    head: Option<Envelope>,
    closed: bool,
}

impl PeekRx {
    fn new(rx: EdgeRx) -> Self {
        Self { rx, head: None, closed: false }
    }

    /// Blocks until a head envelope is available (or the channel closes);
    /// returns its sequence number.
    fn peek_seq(&mut self) -> Option<u64> {
        if self.head.is_none() && !self.closed {
            match self.rx.recv() {
                Some(env) => self.head = Some(env),
                None => self.closed = true,
            }
        }
        self.head.as_ref().map(|e| e.seq)
    }

    fn take(&mut self) -> Option<Envelope> {
        self.head.take()
    }
}

/// Runs one input batch through an operator with panic containment, then
/// forwards whatever it emitted as kind-homogeneous runs under the
/// input's sequence number.
fn process_contained(
    node: &mut crate::plan::Node,
    op_name: &str,
    port: usize,
    seq: u64,
    batch: ElementBatch,
    emitter: &mut Emitter,
    wires: &Wires,
) -> Result<(), EngineError> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        node.op.process_batch(port, batch, emitter)
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(e),
        Err(payload) => return Err(EngineError::from_panic(op_name, payload.as_ref())),
    }
    coalesce_runs(emitter.drain(), |run| wires.send_batch(seq, run))
}

/// Joins a set of worker handles against [`DRAIN_TIMEOUT`], converting
/// worker panics (which containment should have caught already) and
/// propagating the first worker error.
pub(crate) fn join_with_deadline<T>(
    handles: Vec<(String, std::thread::JoinHandle<Result<T, EngineError>>)>,
    deadline: Instant,
) -> Result<Vec<T>, EngineError> {
    // Wait (bounded) for all workers to finish before joining any: join()
    // itself blocks indefinitely, so only poll-then-join is deadline-safe.
    loop {
        let pending = handles.iter().filter(|(_, h)| !h.is_finished()).count();
        if pending == 0 {
            break;
        }
        if Instant::now() >= deadline {
            // Leaves the stragglers detached; they hold only their own
            // channels, which die with them. Name them so the operator
            // wedging the graph is visible in the error.
            let stalled = handles
                .iter()
                .filter(|(_, h)| !h.is_finished())
                .map(|(name, _)| name.clone())
                .collect();
            return Err(EngineError::ShutdownTimeout { pending_workers: pending, stalled });
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut out = Vec::with_capacity(handles.len());
    for (name, handle) in handles {
        match handle.join() {
            Ok(Ok(value)) => out.push(value),
            Ok(Err(e)) => return Err(e),
            Err(payload) => return Err(EngineError::from_panic(&name, payload.as_ref())),
        }
    }
    Ok(out)
}

/// Runs the plan in `builder` over a finite recorded input with one thread
/// per operator, returning every sink's collected output.
///
/// # Errors
///
/// Returns the first [`EngineError`] any worker reports: a typed operator
/// failure, a contained operator panic ([`EngineError::OperatorPanic`]),
/// or [`EngineError::ShutdownTimeout`] when the graph wedges. The runner
/// itself never panics on worker failure and never blocks forever.
#[allow(clippy::too_many_lines)]
pub fn run_parallel(
    builder: PlanBuilder,
    inputs: impl IntoIterator<Item = (StreamId, StreamElement)>,
) -> Result<ParallelResults, EngineError> {
    let (nodes, mut sources, sinks, _telemetry) = builder.into_parts();

    // Channels: one per (node, port) and one per sink. Binary ports are
    // unbounded (ordered-merge requirement), everything else a classed
    // channel: data bounded, control (sps) always admitted.
    let mut node_tx: Vec<Vec<EdgeTx>> = Vec::with_capacity(nodes.len());
    let mut node_rx: Vec<Vec<EdgeRx>> = Vec::with_capacity(nodes.len());
    for node in &nodes {
        let arity = node.op.arity();
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..arity {
            if arity > 1 {
                let (tx, rx) = channel();
                txs.push(EdgeTx::Unbounded(tx));
                rxs.push(EdgeRx::Unbounded(rx));
            } else {
                let (tx, rx) = classed_channel(EDGE_CAPACITY);
                txs.push(EdgeTx::Bounded(tx));
                rxs.push(EdgeRx::Bounded(rx));
            }
        }
        node_tx.push(txs);
        node_rx.push(rxs);
    }
    let mut sink_tx = Vec::with_capacity(sinks.len());
    let mut sink_rx = Vec::with_capacity(sinks.len());
    for _ in &sinks {
        let (tx, rx) = classed_channel(EDGE_CAPACITY);
        sink_tx.push(EdgeTx::Bounded(tx));
        sink_rx.push(EdgeRx::Bounded(rx));
    }
    // Resolve each worker's outgoing edges, then drop the master sender
    // tables so only the per-edge clones keep channels open.
    let node_wires: Vec<Wires> =
        nodes.iter().map(|n| Wires::resolve(&n.outputs, &node_tx, &sink_tx)).collect();
    let source_wires: Vec<Wires> =
        sources.iter().map(|s| Wires::resolve(&s.outputs, &node_tx, &sink_tx)).collect();
    drop(node_tx);
    drop(sink_tx);

    // Audit plumbing: each worker ships its operator's recorders (if it
    // has any) back once its input closes; analyzers are read inline by
    // the coordinating thread after the feed loop.
    let (audit_tx, audit_rx) = channel::<AuditMsg>();

    // Operator threads.
    let mut node_handles = Vec::new();
    let mut node_rx_iter = node_rx.into_iter();
    let mut node_wires_iter = node_wires.into_iter();
    for (slot, mut node) in nodes.into_iter().enumerate() {
        let Some(rxs) = node_rx_iter.next() else { break };
        let Some(wires) = node_wires_iter.next() else { break };
        let op_name = node.op.name().to_string();
        let thread_name = op_name.clone();
        let audits = audit_tx.clone();
        node_handles.push((
            op_name.clone(),
            std::thread::spawn(move || -> Result<(), EngineError> {
                let mut emitter = Emitter::with_capacity(64);
                let mut ports: Vec<PeekRx> = rxs.into_iter().map(PeekRx::new).collect();
                if ports.len() == 1 {
                    // Unary: plain FIFO.
                    let Some(mut port0) = ports.pop() else {
                        return Err(EngineError::ChannelDisconnected { stage: thread_name });
                    };
                    while port0.peek_seq().is_some() {
                        let Some(env) = port0.take() else { break };
                        process_contained(
                            &mut node,
                            &op_name,
                            0,
                            env.seq,
                            env.batch,
                            &mut emitter,
                            &wires,
                        )?;
                    }
                } else {
                    // Binary: merge the two ports in global sequence order.
                    // Each port is FIFO from a single upstream, so the
                    // smaller head is always safe to process; blocking on
                    // an empty port cannot deadlock (these input edges are
                    // unbounded — upstreams never wait on us).
                    loop {
                        let s0 = ports[0].peek_seq();
                        let s1 = ports[1].peek_seq();
                        let port = match (s0, s1) {
                            (None, None) => break,
                            (Some(_), None) => 0,
                            (None, Some(_)) => 1,
                            (Some(a), Some(b)) => usize::from(b < a),
                        };
                        let Some(env) = ports[port].take() else { break };
                        process_contained(
                            &mut node,
                            &op_name,
                            port,
                            env.seq,
                            env.batch,
                            &mut emitter,
                            &wires,
                        )?;
                    }
                }
                // Input closed cleanly: ship this operator's audit and
                // span sections home. (A failed worker returns above and
                // loses its records — the run's telemetry is only
                // published on success.)
                if let Some(recorders) = node.op.recorders() {
                    let _ = audits.send((slot, recorders.clone()));
                }
                // Dropping this worker's wires closes its downstream
                // edges once every other sender to them is gone.
                Ok(())
            }),
        ));
    }

    // Sink threads: single FIFO upstream each; collect in order.
    let mut sink_handles = Vec::new();
    let mut sink_rx_iter = sink_rx.into_iter();
    for mut sink in sinks {
        let Some(rx) = sink_rx_iter.next() else { break };
        sink_handles.push((
            "sink".to_string(),
            std::thread::spawn(move || -> Result<Sink, EngineError> {
                let mut emitter = Emitter::with_capacity(8);
                while let Some(env) = rx.recv() {
                    sink.process_batch(0, env.batch, &mut emitter)?;
                }
                Ok(sink)
            }),
        ));
    }

    // Feed: run analyzers inline, tag with the global sequence. Feeding
    // errors (a stalled edge) still fall through to the drain below so
    // worker threads are reaped, not leaked.
    let mut by_stream: HashMap<StreamId, Vec<usize>> = HashMap::new();
    for (i, s) in sources.iter().enumerate() {
        by_stream.entry(s.stream).or_default().push(i);
    }
    // Stages one raw element through a source's analyzer and ships the
    // resolved run. A single-consumer source coalesces the run into
    // kind-homogeneous batches, one seq per batch; a fan-out source sends
    // per-element singletons, each under a fresh seq, preserving the
    // element-major interleaving a downstream seq-ordered merge expects.
    fn feed_source(
        source: &mut crate::plan::Source,
        wires: &Wires,
        raw: StreamElement,
        staged: &mut Vec<Element>,
        seq: &mut u64,
    ) -> Result<(), EngineError> {
        source.analyzer.push(raw, staged);
        if source.outputs.len() == 1 {
            coalesce_runs(staged.drain(..), |run| {
                *seq += 1;
                wires.send_batch(*seq, run)
            })
        } else {
            for e in staged.drain(..) {
                *seq += 1;
                wires.send_batch(*seq, ElementBatch::single(e))?;
            }
            Ok(())
        }
    }

    let mut feed_error = None;
    let mut seq = 0u64;
    let mut staged = Vec::new();
    'feed: for (stream, elem) in inputs {
        if let Some(ids) = by_stream.get(&stream) {
            // Clone the raw element only for multiply-registered streams:
            // the last source takes it by move.
            let mut elem = Some(elem);
            for (k, &sid) in ids.iter().enumerate() {
                let Some(raw) = (if k + 1 == ids.len() { elem.take() } else { elem.clone() })
                else {
                    break;
                };
                if let Err(e) =
                    feed_source(&mut sources[sid], &source_wires[sid], raw, &mut staged, &mut seq)
                {
                    feed_error = Some(e);
                    break 'feed;
                }
            }
        }
    }
    // Close the graph: drop the feeder's senders; workers cascade.
    drop(source_wires);

    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let joined_nodes = join_with_deadline(node_handles, deadline);
    let joined_sinks = join_with_deadline(sink_handles, deadline);
    // Assemble both planes: analyzer recorders live on this thread (the
    // feeder runs them inline); worker recorders arrived over the audit
    // channel. `merge_recorders` keeps canonical order, so each plane
    // encodes identically to the sequential executor's.
    drop(audit_tx);
    let worker_sections: Vec<AuditMsg> = audit_rx.try_iter().collect();
    let analyzers = || sources.iter().map(|s| s.analyzer.recorders());
    let workers = || worker_sections.iter().map(|(slot, r)| (*slot, r));
    let audit: AuditTrail = merge_recorders(analyzers(), workers());
    let spans: SpanSheet = merge_recorders(analyzers(), workers());
    if let Some(e) = feed_error {
        return Err(e);
    }
    joined_nodes?;
    Ok(ParallelResults { sinks: joined_sinks?, audit, spans })
}

impl std::fmt::Debug for ParallelResults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelResults").field("sinks", &self.sinks.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::operator::Operator;
    use crate::ops::{JoinVariant, SAJoin, SecurityShield, Select};
    use crate::plan::PlanBuilder;
    use crate::stats::OperatorStats;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sp_core::{
        RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, Timestamp, Tuple, TupleId,
        Value, ValueType,
    };
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::of("s", &[("id", ValueType::Int), ("v", ValueType::Int)])
    }

    fn catalog() -> Arc<RoleCatalog> {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(8);
        Arc::new(c)
    }

    fn workload(seed: u64, n: u64) -> Vec<(StreamId, StreamElement)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for ts in 1..=n {
            let stream = StreamId(1 + (ts % 2) as u32);
            if rng.gen_bool(0.3) {
                let roles: RoleSet =
                    (0..rng.gen_range(0..3)).map(|_| RoleId(rng.gen_range(0..5))).collect();
                out.push((
                    stream,
                    StreamElement::punctuation(SecurityPunctuation::grant_all(
                        roles,
                        Timestamp(ts),
                    )),
                ));
            }
            let id = rng.gen_range(0..5i64);
            out.push((
                stream,
                StreamElement::tuple(Tuple::new(
                    stream,
                    TupleId(id as u64),
                    Timestamp(ts),
                    vec![Value::Int(id), Value::Int(rng.gen_range(0..10))],
                )),
            ));
        }
        out
    }

    fn pipeline_builder() -> (PlanBuilder, SinkRef) {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let sel = b
            .add(Select::new(Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(2)))), src);
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), sel);
        let sink = b.sink(ss);
        (b, sink)
    }

    fn join_builder() -> (PlanBuilder, SinkRef) {
        let mut b = PlanBuilder::new(catalog());
        let l = b.source(StreamId(1), schema());
        let r = b.source(StreamId(2), schema());
        let j = b.add_binary(SAJoin::new(JoinVariant::Index, 100_000, 0, 0, 2), l, r);
        let ss = b.add(SecurityShield::new(RoleSet::from([1, 2])), j);
        let sink = b.sink(ss);
        (b, sink)
    }

    fn render(sink: &Sink) -> Vec<String> {
        sink.tuples().map(|t| format!("{:?}@{}", t.values(), t.ts)).collect()
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        let input = workload(3, 400);
        let (seq_builder, seq_sink) = pipeline_builder();
        let mut exec = seq_builder.build();
        exec.push_all(input.clone()).unwrap();
        let expected = render(exec.sink(seq_sink));

        let (par_builder, par_sink) = pipeline_builder();
        let results = run_parallel(par_builder, input).unwrap();
        assert_eq!(render(results.sink(par_sink)), expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let input = workload(9, 500);
        let (seq_builder, seq_sink) = join_builder();
        let mut exec = seq_builder.build();
        exec.push_all(input.clone()).unwrap();
        let expected = render(exec.sink(seq_sink));

        let (par_builder, par_sink) = join_builder();
        let results = run_parallel(par_builder, input).unwrap();
        assert_eq!(render(results.sink(par_sink)), expected);
        assert!(!expected.is_empty(), "join workload should produce results");
    }

    #[test]
    fn parallel_shared_subplan() {
        fn build() -> (PlanBuilder, SinkRef, SinkRef) {
            let mut b = PlanBuilder::new(catalog());
            let src = b.source(StreamId(1), schema());
            let shared = b.add(
                Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))),
                src,
            );
            let ss1 = b.add(SecurityShield::new(RoleSet::from([1])), shared);
            let ss2 = b.add(SecurityShield::new(RoleSet::from([2])), shared);
            let s1 = b.sink(ss1);
            let s2 = b.sink(ss2);
            (b, s1, s2)
        }
        let input = workload(5, 300);
        let (b, s1, s2) = build();
        let mut exec = b.build();
        exec.push_all(input.clone()).unwrap();
        let (e1, e2) = (render(exec.sink(s1)), render(exec.sink(s2)));

        let (b, p1, p2) = build();
        let results = run_parallel(b, input).unwrap();
        assert_eq!(render(results.sink(p1)), e1);
        assert_eq!(render(results.sink(p2)), e2);
    }

    #[test]
    fn empty_input_yields_empty_sinks() {
        let (b, sink) = pipeline_builder();
        let results = run_parallel(b, Vec::new()).unwrap();
        assert_eq!(results.sink(sink).tuple_count(), 0);
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let input = workload(11, 300);
        let mut previous: Option<Vec<String>> = None;
        for _ in 0..4 {
            let (b, sink) = join_builder();
            let results = run_parallel(b, input.clone()).unwrap();
            let got = render(results.sink(sink));
            if let Some(prev) = &previous {
                assert_eq!(&got, prev);
            }
            previous = Some(got);
        }
    }

    /// An operator that panics when it sees a tuple with a chosen id.
    struct PanicOn {
        id: i64,
        stats: OperatorStats,
    }

    impl Operator for PanicOn {
        fn name(&self) -> &str {
            "panic-on"
        }
        fn process_batch(
            &mut self,
            _port: usize,
            batch: ElementBatch,
            out: &mut Emitter,
        ) -> Result<(), EngineError> {
            for elem in batch {
                if let Element::Tuple(t) = &elem {
                    if t.value(0).and_then(Value::as_i64) == Some(self.id) {
                        panic!("injected operator failure");
                    }
                }
                out.push(elem);
            }
            Ok(())
        }
        fn stats(&self) -> &OperatorStats {
            &self.stats
        }
    }

    #[test]
    fn operator_panic_surfaces_as_engine_error() {
        // Silence the default "thread panicked" stderr noise for the
        // deliberately-injected panic.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let boom = b.add(PanicOn { id: 3, stats: OperatorStats::new() }, src);
        let _sink = b.sink(boom);
        let input = workload(3, 400);
        let started = Instant::now();
        let result = run_parallel(b, input);
        std::panic::set_hook(prev_hook);
        match result {
            Err(EngineError::OperatorPanic { operator, message }) => {
                assert_eq!(operator, "panic-on");
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected OperatorPanic, got {other:?}"),
        }
        // No hang: the failed worker's closed channels cascade shutdown
        // long before the drain deadline.
        assert!(started.elapsed() < DRAIN_TIMEOUT / 2);
    }

    #[test]
    fn operator_error_propagates_without_hanging() {
        // BadPort from a deliberately mis-wired plan: route a stream into
        // port 1 of a unary operator via a binary add on the same op is
        // not expressible through the builder, so exercise the error path
        // directly through a failing operator instead.
        struct FailOn {
            id: i64,
            stats: OperatorStats,
        }
        impl Operator for FailOn {
            fn name(&self) -> &str {
                "fail-on"
            }
            fn process_batch(
                &mut self,
                _port: usize,
                batch: ElementBatch,
                out: &mut Emitter,
            ) -> Result<(), EngineError> {
                for elem in batch {
                    if let Element::Tuple(t) = &elem {
                        if t.value(0).and_then(Value::as_i64) == Some(self.id) {
                            return Err(EngineError::MalformedElement {
                                operator: "fail-on".into(),
                                reason: "injected failure".into(),
                            });
                        }
                    }
                    out.push(elem);
                }
                Ok(())
            }
            fn stats(&self) -> &OperatorStats {
                &self.stats
            }
        }
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let fail = b.add(FailOn { id: 2, stats: OperatorStats::new() }, src);
        let _sink = b.sink(fail);
        let result = run_parallel(b, workload(7, 300));
        assert!(matches!(result, Err(EngineError::MalformedElement { .. })), "{result:?}");
    }
}
