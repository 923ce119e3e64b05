//! Physical query plans and the pipelined executor.
//!
//! A plan is a DAG of operators fed by registered streams through
//! per-stream [`SpAnalyzer`]s (Fig. 1). Plans are built with
//! [`PlanBuilder`]; shared subplans (an operator output feeding several
//! consumers — the multi-query sharing of Fig. 5) are expressed by adding
//! several edges from one node. Execution is push-based and deterministic:
//! [`Executor::push`] runs an arriving raw element through the analyzer and
//! then drains a FIFO work queue of `(edge, batch)` items.
//!
//! **Batch execution.** The queue moves [`ElementBatch`]es — contiguous
//! runs of elements — one entry per *edge* (everything one upstream
//! emits, before it fans out). Runs are formed by coalescing: an emitted
//! element joins the queue's tail batch when the tail sits on the same
//! edge, whatever its kind, and otherwise starts a new batch; on the
//! run-major path (below) a frame crosses each edge as one batch of
//! tuples and policies alike. Coalescing only ever merges *adjacent* queue
//! entries, which
//! preserves the tuple-at-a-time engine's per-operator input order
//! exactly, and every operator is cut-invariant — so released tuples,
//! final policy tables, snapshots, and audit trails are byte-identical to
//! per-element execution.
//!
//! **Fan-out is by run, not by element.** A dequeued batch is shown to
//! every consumer of its edge in turn: all but the last are *lent* it
//! ([`Operator::process_run`] — a shield or select clones only what it
//! releases), the last takes it by move ([`Operator::process_batch`]; a
//! single-consumer edge is that case alone). On binary-free plans every
//! node has exactly one upstream edge, so an operator's input *sequence*
//! fixes every observable and the order in which sibling consumers run is
//! free: runs coalesce across a split, and [`Executor::push_all`] stages
//! up to [`MAX_DEFERRED_INPUTS`] inputs through the analyzers before it
//! drains, so the eight shields of an eight-query plan each see a whole
//! segment run. A binary merge observes the *interleaving* of its two
//! inputs, so a plan with a binary node keeps the tuple-at-a-time order:
//! a multi-consumer edge carries singleton batches (each element visits
//! every consumer before the next element) and the plan drains after
//! every input. A session hands each decoded frame to `push_all` whole;
//! [`Executor::push`] is its one-element case.
//!
//! **Shield groups (§VI-C).** On the run-major path the Security Shields
//! of one edge are one consumer, fed last: the governing policy of each
//! tuple of a run is resolved once for all of them, per tuple stretch.
//!
//! **One clock.** Operators do not time themselves. The executor reads
//! the clock around each operator call — one pair per *batch* (or shield
//! group) — and only while `telemetry.metrics` is on, to feed
//! `sp_operator_latency_ns`.

use std::any::Any;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use sp_core::{RoleCatalog, Schema, StreamElement, StreamId};

use crate::analyzer::SpAnalyzer;
use crate::batch::ElementBatch;
use crate::element::Element;
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::ops::shield::{Resolution, SecurityShield};
use crate::ops::sink::Sink;
use crate::stats::OperatorStats;
use crate::telemetry::{
    merge_recorders, AuditTrail, Histogram, MetricsRegistry, Record, Sections, SpanSheet,
    TelemetryConfig,
};

/// Reference to a plan node (an operator added to a builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(usize);

/// Reference to a registered source stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceRef(usize);

/// Reference to a sink (one registered query's result collector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkRef(usize);

impl SinkRef {
    /// The sink's index within the plan (stable across executors built
    /// from the same builder shape).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Upper bound on raw inputs staged between drains by
/// [`Executor::push_all`] in deferred-batching mode, bounding work-queue
/// growth. One segment of the paper's workloads (an sp-batch plus its
/// governed tuples) comfortably fits, so segment runs still coalesce
/// whole.
pub const MAX_DEFERRED_INPUTS: usize = 256;

/// An edge destination inside the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// Operator node index and input port.
    Node(usize, usize),
    /// Sink index.
    Sink(usize),
}

/// Either a source or a node — anything that can feed another operator.
#[derive(Debug, Clone, Copy)]
pub enum Upstream {
    /// A registered stream source.
    Source(SourceRef),
    /// An operator node.
    Node(NodeRef),
}

impl From<SourceRef> for Upstream {
    fn from(s: SourceRef) -> Self {
        Upstream::Source(s)
    }
}

impl From<NodeRef> for Upstream {
    fn from(n: NodeRef) -> Self {
        Upstream::Node(n)
    }
}

pub(crate) struct Node {
    pub(crate) op: Box<dyn Operator>,
    pub(crate) outputs: Vec<Target>,
}

pub(crate) struct Source {
    pub(crate) stream: StreamId,
    pub(crate) analyzer: SpAnalyzer,
    pub(crate) outputs: Vec<Target>,
}

/// The Security Shields consuming one edge (member node indices), judged
/// as one group (§VI-C), and the edge's other consumers.
struct ShieldGroup {
    members: Vec<usize>,
    others: Vec<Target>,
}

impl ShieldGroup {
    /// The group among `outputs`, when at least two of them are shields.
    fn of(nodes: &[Node], outputs: &[Target]) -> Option<Self> {
        let member = |t: &Target| match *t {
            Target::Node(n, _) if (nodes[n].op.as_ref() as &dyn Any).is::<SecurityShield>() => {
                Some(n)
            }
            _ => None,
        };
        let members: Vec<usize> = outputs.iter().filter_map(member).collect();
        let others = outputs.iter().filter(|t| member(t).is_none()).copied().collect();
        (members.len() > 1).then_some(Self { members, others })
    }
}

/// A group member's shield (members are shields by construction).
fn shield(node: &mut Node) -> Option<&mut SecurityShield> {
    (node.op.as_mut() as &mut dyn Any).downcast_mut()
}

/// Arms every analyzer's and operator's recorders; a capacity of 0
/// leaves that plane untouched. The one arming path: the builder (from
/// its [`TelemetryConfig`]), [`Executor::arm_recorders`] and the shard
/// coordinator all come through here.
fn arm_recorders(
    sources: &mut [Source],
    nodes: &mut [Node],
    audit_capacity: usize,
    span_capacity: usize,
) {
    if audit_capacity > 0 {
        for source in sources.iter_mut() {
            source.analyzer.set_audit(audit_capacity);
        }
        for node in nodes.iter_mut() {
            node.op.set_audit(audit_capacity);
        }
    }
    if span_capacity > 0 {
        for source in sources.iter_mut() {
            source.analyzer.set_spans(span_capacity);
        }
        for node in nodes.iter_mut() {
            node.op.set_spans(span_capacity);
        }
    }
}

/// The ring-pressure pair of one recorder plane — records held, records
/// evicted — present iff the plane has a section, i.e. iff it is armed.
fn add_plane_pressure<R>(
    reg: &mut MetricsRegistry,
    plane: &Sections<R>,
    held: (&str, &str),
    evicted: (&str, &str),
) {
    if plane.sections().next().is_some() {
        reg.add_counter(held.0, held.1, "", plane.len() as u64);
        reg.add_counter(evicted.0, evicted.1, "", plane.evicted());
    }
}

/// Builds an executable plan.
pub struct PlanBuilder {
    catalog: Arc<RoleCatalog>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) sources: Vec<Source>,
    pub(crate) sinks: Vec<Sink>,
    telemetry: TelemetryConfig,
}

impl PlanBuilder {
    /// A builder using the given role catalog for punctuation resolution.
    #[must_use]
    pub fn new(catalog: Arc<RoleCatalog>) -> Self {
        Self {
            catalog,
            nodes: Vec::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            telemetry: TelemetryConfig::disabled(),
        }
    }

    /// Configures telemetry (audit trail + metrics) for the built plan.
    /// Applies to every source and node, including ones added after this
    /// call. Off by default.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = config;
    }

    /// Propagates the audit and span capacities to every analyzer and
    /// operator. Runs at finalization so late-added nodes are covered too.
    fn apply_telemetry(&mut self) {
        arm_recorders(
            &mut self.sources,
            &mut self.nodes,
            self.telemetry.audit_capacity,
            self.telemetry.span_capacity,
        );
    }

    /// Registers a source stream.
    pub fn source(&mut self, stream: StreamId, schema: Arc<Schema>) -> SourceRef {
        self.sources.push(Source {
            stream,
            analyzer: SpAnalyzer::new(schema, self.catalog.clone()),
            outputs: Vec::new(),
        });
        SourceRef(self.sources.len() - 1)
    }

    /// Installs a server-side policy on a source (see
    /// [`SpAnalyzer::set_server_policy`]).
    pub fn set_server_policy(&mut self, source: SourceRef, policy: Option<sp_core::Policy>) {
        self.sources[source.0].analyzer.set_server_policy(policy);
    }

    /// Enables incremental-policy mode on a source (see
    /// [`SpAnalyzer::set_incremental`]).
    pub fn set_incremental(&mut self, source: SourceRef, incremental: bool) {
        self.sources[source.0].analyzer.set_incremental(incremental);
    }

    /// Switches a source into hardened fail-closed mode (see
    /// [`SpAnalyzer::harden`]): uncovered tuples are quarantined, late
    /// sp-batches discarded.
    pub fn harden_source(&mut self, source: SourceRef, policy: crate::QuarantinePolicy) {
        self.sources[source.0].analyzer.harden(policy);
    }

    /// Adds a unary operator downstream of `input`.
    pub fn add(&mut self, op: impl Operator + 'static, input: impl Into<Upstream>) -> NodeRef {
        debug_assert_eq!(op.arity(), 1, "use add_binary for binary operators");
        let node = NodeRef(self.nodes.len());
        self.nodes.push(Node { op: Box::new(op), outputs: Vec::new() });
        self.connect(input.into(), Target::Node(node.0, 0));
        node
    }

    /// Adds a binary operator with the given left (port 0) and right
    /// (port 1) inputs.
    pub fn add_binary(
        &mut self,
        op: impl Operator + 'static,
        left: impl Into<Upstream>,
        right: impl Into<Upstream>,
    ) -> NodeRef {
        debug_assert_eq!(op.arity(), 2, "operator is not binary");
        let node = NodeRef(self.nodes.len());
        self.nodes.push(Node { op: Box::new(op), outputs: Vec::new() });
        self.connect(left.into(), Target::Node(node.0, 0));
        self.connect(right.into(), Target::Node(node.0, 1));
        node
    }

    /// Terminates a branch with a result sink (one per registered query).
    pub fn sink(&mut self, input: impl Into<Upstream>) -> SinkRef {
        self.sinks.push(Sink::new());
        let sink = SinkRef(self.sinks.len() - 1);
        self.connect(input.into(), Target::Sink(sink.0));
        sink
    }

    fn connect(&mut self, from: Upstream, to: Target) {
        match from {
            Upstream::Source(s) => self.sources[s.0].outputs.push(to),
            Upstream::Node(n) => self.nodes[n.0].outputs.push(to),
        }
    }

    /// Decomposes the builder for alternative runtimes (parallel executor).
    pub(crate) fn into_parts(mut self) -> (Vec<Node>, Vec<Source>, Vec<Sink>, TelemetryConfig) {
        self.apply_telemetry();
        (self.nodes, self.sources, self.sinks, self.telemetry)
    }

    /// Finalizes the plan into an executor.
    #[must_use]
    pub fn build(mut self) -> Executor {
        self.apply_telemetry();
        let mut by_stream: HashMap<StreamId, Vec<usize>> = HashMap::new();
        for (i, s) in self.sources.iter().enumerate() {
            by_stream.entry(s.stream).or_default().push(i);
        }
        let latency = vec![Histogram::new(); self.nodes.len()];
        let staged = self.sources.iter().map(|_| Vec::with_capacity(16)).collect();
        let has_binary = self.nodes.iter().any(|n| n.op.arity() > 1);
        // Only a binary-free plan routes run-major, where sibling order is free.
        let groups = (self.sources.iter().map(|s| &s.outputs))
            .chain(self.nodes.iter().map(|n| &n.outputs))
            .map(|outputs| ShieldGroup::of(&self.nodes, outputs).filter(|_| !has_binary))
            .collect();
        Executor {
            nodes: self.nodes,
            sources: self.sources,
            sinks: self.sinks,
            by_stream,
            queue: VecDeque::with_capacity(64),
            staged,
            emitter: Emitter::with_capacity(64),
            telemetry: self.telemetry,
            latency,
            queue_depth: Histogram::new(),
            batching: true,
            has_binary,
            groups,
            failed: None,
        }
    }
}

/// A plan edge, named by what feeds it. The work queue holds one copy of
/// a run per edge; [`Executor::drain`] shows it to each consumer in the
/// upstream's `outputs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    Source(usize),
    Node(usize),
}

/// Queues `elems` on `edge`. With `coalesce`, an element joins the queue's
/// tail batch when that batch is on the same edge, whatever the kinds;
/// otherwise it starts a batch, which the rest of `elems` joins whole (one
/// allocation). Without it, every element is its own batch. Merging only
/// ever touches the *tail*, so the per-edge element order is exactly the
/// order queued here.
fn enqueue(
    queue: &mut VecDeque<(Edge, ElementBatch)>,
    edge: Edge,
    mut elems: std::vec::Drain<'_, Element>,
    coalesce: bool,
) {
    while let Some(elem) = elems.next() {
        match queue.back_mut() {
            Some((tail, batch)) if coalesce && *tail == edge => batch.push(elem),
            _ => {
                let batch = if coalesce && elems.len() > 0 {
                    ElementBatch::from_run(std::iter::once(elem).chain(elems.by_ref()).collect())
                } else {
                    ElementBatch::single(elem)
                };
                queue.push_back((edge, batch));
            }
        }
    }
}

/// The pipelined plan executor.
pub struct Executor {
    nodes: Vec<Node>,
    sources: Vec<Source>,
    sinks: Vec<Sink>,
    by_stream: HashMap<StreamId, Vec<usize>>,
    queue: VecDeque<(Edge, ElementBatch)>,
    /// Analyzer output not yet queued, per source (reused across pushes).
    staged: Vec<Vec<Element>>,
    /// Reusable operator-output scratch.
    emitter: Emitter,
    pub(crate) telemetry: TelemetryConfig,
    /// Per-node operator-call latency in nanoseconds (metrics mode only).
    latency: Vec<Histogram>,
    /// Work-queue depth sampled at each dequeue (metrics mode only).
    queue_depth: Histogram,
    /// Batch coalescing + deferred draining enabled (default). Disabled,
    /// the executor routes singleton batches and drains eagerly — the
    /// tuple-at-a-time reference mode.
    batching: bool,
    /// Whether any node is binary. Binary merges observe the *interleaving*
    /// of their two input sequences, so deferred draining and coalescing
    /// across a multi-consumer edge are only safe on binary-free plans,
    /// where each operator's input sequence alone determines every
    /// observable.
    has_binary: bool,
    /// The shield group consuming each edge: sources' first, then nodes'.
    groups: Vec<Option<ShieldGroup>>,
    /// The first error an operator reported. The work discarded with it
    /// can hold a revocation bound for another query's shield, so a failed
    /// executor stays failed: every later push returns this error again.
    failed: Option<EngineError>,
}

impl Executor {
    /// Feeds one raw stream element into every source registered for its
    /// stream and runs the plan to quiescence: the one-element case of
    /// [`Executor::push_all`].
    ///
    /// # Errors
    ///
    /// As [`Executor::push_all`].
    pub fn push(&mut self, stream: StreamId, elem: StreamElement) -> Result<(), EngineError> {
        self.push_all(std::iter::once((stream, elem)))
    }

    /// Feeds a whole batch — in production, one decoded frame's admitted
    /// elements — then drains.
    ///
    /// On binary-free plans with batching enabled, inputs are *staged*
    /// through the analyzers and the plan drained only every
    /// [`MAX_DEFERRED_INPUTS`] inputs (and once at the end), so whole
    /// segment runs reach every consumer as single batches. This is
    /// output-equivalent to draining per input: without a binary merge,
    /// each operator's input sequence — which deferral preserves exactly —
    /// determines every observable. Plans with a binary node drain per
    /// input, where within-push coalescing still applies.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first [`EngineError`]. The failure
    /// discards all staged work, including outputs of inputs staged before
    /// the failing one — strictly more fail-closed than the per-input path
    /// (never releases more). The discarded work can include policy
    /// updates bound for operators that did not fail, so the error is
    /// latched: every later `push`, `push_all` and `finish` returns it
    /// again without running an analyzer or an operator.
    pub fn push_all(
        &mut self,
        items: impl IntoIterator<Item = (StreamId, StreamElement)>,
    ) -> Result<(), EngineError> {
        self.alive()?;
        let chunk = if self.run_major() { MAX_DEFERRED_INPUTS } else { 1 };
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            // One `by_stream` lookup per stream switch, not per element.
            let mut registered: (Option<StreamId>, &[usize]) = (None, &[]);
            for (stream, elem) in items.by_ref().take(chunk) {
                if registered.0 != Some(stream) {
                    registered =
                        (Some(stream), self.by_stream.get(&stream).map_or(&[], Vec::as_slice));
                }
                // The raw element is cloned only for multiply-registered
                // streams: the last source takes it by move.
                if let Some((&last, rest)) = registered.1.split_last() {
                    for &sid in rest {
                        self.sources[sid].analyzer.push(elem.clone(), &mut self.staged[sid]);
                    }
                    self.sources[last].analyzer.push(elem, &mut self.staged[last]);
                }
            }
            self.run_staged()?;
        }
        Ok(())
    }

    /// Enables or disables batch coalescing and deferred draining (on by
    /// default, and what every session runs). Disabled, the executor
    /// routes singleton batches through `process_batch` and drains after
    /// every input — the tuple-at-a-time reference the differential
    /// equivalence suite (`batch_equiv.rs`) and perfbench's
    /// `engine.mode.tuple_at_a_time.vs_sequential` row compare against.
    pub fn set_batching(&mut self, batching: bool) {
        self.batching = batching;
    }

    /// The one routing fork: on a binary-free plan with batching on, runs
    /// coalesce across multi-consumer edges and drains are deferred.
    fn run_major(&self) -> bool {
        self.batching && !self.has_binary
    }

    fn outputs(&self, edge: Edge) -> &[Target] {
        match edge {
            Edge::Source(s) => &self.sources[s].outputs,
            Edge::Node(n) => &self.nodes[n].outputs,
        }
    }

    /// The latched failure, if any (see [`Executor::push_all`]).
    #[must_use]
    pub fn failure(&self) -> Option<&EngineError> {
        self.failed.as_ref()
    }

    fn alive(&self) -> Result<(), EngineError> {
        self.failure().map_or(Ok(()), |e| Err(e.clone()))
    }

    /// Whether runs coalesce on `edge`. Every operator is cut-invariant, so
    /// where a run is cut is never observable; off the run-major path a
    /// multi-consumer edge still never coalesces, so each element visits
    /// every consumer before the next one does — the tuple-at-a-time order
    /// a binary merge needs.
    fn coalesces(&self, edge: Edge) -> bool {
        self.run_major() || (self.batching && self.outputs(edge).len() < 2)
    }

    /// Queues every source's staged analyzer output and drains.
    fn run_staged(&mut self) -> Result<(), EngineError> {
        for sid in 0..self.staged.len() {
            let edge = Edge::Source(sid);
            let coalesce = self.coalesces(edge);
            enqueue(&mut self.queue, edge, self.staged[sid].drain(..), coalesce);
        }
        self.drain()
    }

    fn drain(&mut self) -> Result<(), EngineError> {
        let mut emitter = std::mem::take(&mut self.emitter);
        let groups = std::mem::take(&mut self.groups);
        let mut result = Ok(());
        while let Some((edge, batch)) = self.queue.pop_front() {
            // Every consumer but the last is lent the run; the last (on a
            // single-consumer edge, the only one) takes it by move. A
            // shield group is one consumer, and the last.
            let slot = match edge {
                Edge::Source(s) => s,
                Edge::Node(n) => self.sources.len() + n,
            };
            let group = groups[slot].as_ref().filter(|_| self.batching);
            let lent = match (group, self.outputs(edge).len()) {
                (Some(group), _) => group.others.len(),
                (None, 0) => continue,
                (None, n) => n - 1,
            };
            let len = batch.len() as u64;
            result = (0..lent).try_for_each(|i| {
                let target = group.map_or_else(|| self.outputs(edge)[i], |g| g.others[i]);
                self.feed(target, len, &mut emitter, |op, port, out| {
                    op.process_run(port, batch.as_slice(), out)
                })
            });
            if result.is_ok() {
                result = match group {
                    Some(group) => {
                        self.feed_group(&group.members, batch, &mut emitter);
                        Ok(())
                    }
                    None => {
                        self.feed(self.outputs(edge)[lent], len, &mut emitter, |op, port, out| {
                            op.process_batch(port, batch, out)
                        })
                    }
                };
            }
            if let Err(e) = &result {
                // Fail closed: everything staged behind the failure —
                // including the failing call's own partial output — is
                // discarded, never released, and the executor stays failed.
                self.failed = Some(e.clone());
                self.queue.clear();
                let _ = emitter.take();
                break;
            }
        }
        self.groups = groups;
        self.emitter = emitter;
        result
    }

    /// Hands a run to a shield group in one call: lent to every member but
    /// the last, each member's output queued on its own edge. Under
    /// `telemetry.metrics` the call is timed once and split evenly, each
    /// member counting the elements it was shown.
    fn feed_group(&mut self, members: &[usize], batch: ElementBatch, emitter: &mut Emitter) {
        let Some((&last, lent)) = members.split_last() else {
            return;
        };
        let start = self.telemetry.metrics.then(Instant::now);
        let len = batch.len() as u64;
        let mut res = Resolution::default();
        for &n in lent {
            if let Some(ss) = shield(&mut self.nodes[n]) {
                ss.shield_lent(batch.as_slice(), &mut res, emitter);
            }
            self.queue_output(n, emitter);
        }
        if let Some(ss) = shield(&mut self.nodes[last]) {
            ss.shield_owned(batch, &mut res, emitter);
        }
        self.queue_output(last, emitter);
        if let Some(start) = start {
            #[allow(clippy::cast_possible_truncation)] // < 585 years
            let ns = start.elapsed().as_nanos() as u64;
            for &n in members {
                self.latency[n].record_n(ns / (members.len() as u64 * len).max(1), len);
                self.queue_depth.record(self.queue.len() as u64);
            }
        }
    }

    /// Runs one operator call on `target` and queues what it emits.
    fn feed(
        &mut self,
        target: Target,
        len: u64,
        emitter: &mut Emitter,
        call: impl FnOnce(&mut dyn Operator, usize, &mut Emitter) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        match target {
            Target::Sink(i) => {
                let result = call(&mut self.sinks[i], 0, emitter);
                debug_assert!(emitter.is_empty(), "sinks do not emit");
                result
            }
            Target::Node(n, port) => {
                // The only per-call clock, read only while someone
                // consumes it: one pair per batch; the histogram
                // records the per-element average `len` times so
                // counts still mean "elements processed".
                let start = self.telemetry.metrics.then(Instant::now);
                call(self.nodes[n].op.as_mut(), port, emitter)?;
                if let Some(start) = start {
                    #[allow(clippy::cast_possible_truncation)] // < 585 years
                    let ns = start.elapsed().as_nanos() as u64;
                    self.latency[n].record_n(ns / len.max(1), len);
                    self.queue_depth.record(self.queue.len() as u64);
                }
                self.queue_output(n, emitter);
                Ok(())
            }
        }
    }

    /// Queues what node `n` emitted on its edge.
    fn queue_output(&mut self, n: usize, emitter: &mut Emitter) {
        let edge = Edge::Node(n);
        let coalesce = self.coalesces(edge);
        enqueue(&mut self.queue, edge, emitter.drain(), coalesce);
    }

    /// The sink's collected results.
    #[must_use]
    pub fn sink(&self, s: SinkRef) -> &Sink {
        &self.sinks[s.0]
    }

    /// A node's cost counters.
    #[must_use]
    pub fn stats(&self, n: NodeRef) -> &OperatorStats {
        self.nodes[n.0].op.stats()
    }

    /// A node's state footprint in bytes.
    #[must_use]
    pub fn state_mem_bytes(&self, n: NodeRef) -> usize {
        self.nodes[n.0].op.state_mem_bytes()
    }

    /// Access to a source's analyzer statistics.
    #[must_use]
    pub fn analyzer(&self, s: SourceRef) -> &SpAnalyzer {
        &self.sources[s.0].analyzer
    }

    /// Flushes any trailing sp-batches held by the analyzers and runs the
    /// plan to quiescence, so end-of-stream policies are not lost.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] an operator reports.
    pub fn finish(&mut self) -> Result<(), EngineError> {
        self.alive()?;
        for (source, staged) in self.sources.iter_mut().zip(&mut self.staged) {
            source.analyzer.flush(staged);
        }
        self.run_staged()
    }

    /// Routes one pre-analyzed batch into the plan at source slot `idx`,
    /// bypassing the sp-analyzer, and runs it to completion. Shard
    /// replicas use this: the sharded coordinator runs the analyzers
    /// once, centrally, and ships already-analyzed elements to shards,
    /// so per-shard analyzer state cannot exist (let alone diverge).
    pub(crate) fn inject(&mut self, idx: usize, batch: ElementBatch) -> Result<(), EngineError> {
        self.alive()?;
        self.staged[idx].extend(batch);
        self.run_staged()
    }

    /// Number of source slots (shard plumbing).
    pub(crate) fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of plan nodes (shard plumbing).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The operator at node slot `i` (shard plumbing: recorder reads).
    pub(crate) fn node_op(&self, i: usize) -> &dyn Operator {
        self.nodes[i].op.as_ref()
    }

    /// Drains sink `i`'s collected output accumulated since the last
    /// take (shard plumbing: output increments for the exchange merge).
    pub(crate) fn take_sink_elements(&mut self, i: usize) -> Vec<Element> {
        self.sinks[i].take_elements()
    }

    /// Number of sink slots (shard plumbing).
    pub(crate) fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Fail-closed degradation counters summed over every source analyzer
    /// and every degradation-participating operator (load shedders).
    #[must_use]
    pub fn degradation(&self) -> crate::stats::DegradationStats {
        let mut total = crate::stats::DegradationStats::new();
        for source in &self.sources {
            total.absorb(&source.analyzer.degradation());
        }
        for node in &self.nodes {
            if let Some(d) = node.op.degradation() {
                total.absorb(&d);
            }
        }
        total
    }

    /// Arms the recorders of every analyzer and every recording operator:
    /// the audit rings with `audit_capacity`, the span rings (and the
    /// enforcement-lag trackers) with `span_capacity`. A capacity of 0
    /// leaves that plane as the builder's [`TelemetryConfig`] armed it.
    ///
    /// Rings start empty; the shard runtime calls this on each replica so
    /// its rings hold at least the exchange slack.
    pub fn arm_recorders(&mut self, audit_capacity: usize, span_capacity: usize) {
        arm_recorders(&mut self.sources, &mut self.nodes, audit_capacity, span_capacity);
    }

    /// Assembles one recorder plane of the plan through
    /// [`merge_recorders`]: analyzers (by source index) first, then
    /// operators (by node index), disabled rings omitted.
    fn plane<R: Record>(&self) -> Sections<R> {
        merge_recorders(
            self.sources.iter().map(|s| s.analyzer.recorders()),
            self.nodes.iter().enumerate().filter_map(|(i, n)| Some((i, n.op.recorders()?))),
        )
    }

    /// The plan-wide span sheet in canonical section order. A sequential
    /// run and a pipeline-parallel run of the same plan yield
    /// byte-identical [`SpanSheet::encode_to_vec`] output.
    #[must_use]
    pub fn span_sheet(&self) -> SpanSheet {
        self.plane()
    }

    /// The plan-wide audit trail in canonical section order. A sequential
    /// run and a pipeline-parallel run of the same plan yield
    /// byte-identical [`AuditTrail::encode_to_vec`] output.
    #[must_use]
    pub fn audit_trail(&self) -> AuditTrail {
        self.plane()
    }

    /// Builds a point-in-time metrics snapshot: per-operator tuple/sp
    /// counters, fail-closed degradation counters, audit-trail pressure,
    /// and — when metrics collection is enabled — per-node process-latency
    /// and queue-depth histograms.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let labels = format!("op=\"{}\",node=\"{i}\"", node.op.name());
            let s = node.op.stats();
            reg.add_counter(
                "sp_tuples_in_total",
                "Tuples entering an operator",
                &labels,
                s.tuples_in,
            );
            reg.add_counter(
                "sp_tuples_out_total",
                "Tuples emitted by an operator",
                &labels,
                s.tuples_out,
            );
            reg.add_counter(
                "sp_sps_in_total",
                "Security punctuations entering an operator",
                &labels,
                s.sps_in,
            );
            reg.add_counter(
                "sp_sps_out_total",
                "Security punctuations emitted by an operator",
                &labels,
                s.sps_out,
            );
            reg.add_counter(
                "sp_tuples_shielded_total",
                "Tuples suppressed by the Security Shield",
                &labels,
                s.tuples_shielded,
            );
            if self.telemetry.metrics {
                reg.merge_histogram(
                    "sp_operator_latency_ns",
                    "Per-call operator process latency in nanoseconds",
                    &labels,
                    &self.latency[i],
                );
            }
            if let Some(lag) = node.op.recorders().filter(|r| r.spans.enabled()).map(|r| &r.lag) {
                // Paper-grounded enforcement-lag windows, in stream time:
                // how far behind the stream clock each sp took effect, and
                // how wide the "security hole" between a revocation and
                // the first suppressed tuple was.
                reg.merge_histogram(
                    "sp_enforce_lag_ms",
                    "Stream-time lag between sp arrival and shield enforcement (0 = immediate enforcement)",
                    &labels,
                    lag.enforce(),
                );
                reg.merge_histogram(
                    "sp_first_release_lag_ms",
                    "Stream-time lag between an sp taking effect and the first tuple it released",
                    &labels,
                    lag.release(),
                );
                reg.merge_histogram(
                    "sp_suppress_lag_ms",
                    "Stream-time lag between a revocation taking effect and the first tuple it suppressed (security-hole width)",
                    &labels,
                    lag.suppress(),
                );
            }
        }
        if self.telemetry.metrics {
            reg.merge_histogram(
                "sp_queue_depth",
                "Executor work-queue depth sampled at each dequeue",
                "",
                &self.queue_depth,
            );
        }
        for (kind, value) in self.degradation().named_counters() {
            reg.add_counter(
                "sp_degradation_total",
                "Fail-closed degradation counters (kind label selects the counter)",
                &format!("kind=\"{kind}\""),
                value,
            );
        }
        add_plane_pressure(
            &mut reg,
            &self.audit_trail(),
            ("sp_audit_records", "Audit records currently held by flight recorders"),
            ("sp_audit_evicted_total", "Audit records evicted from bounded flight recorders"),
        );
        add_plane_pressure(
            &mut reg,
            &self.span_sheet(),
            ("sp_span_records", "sp-trace spans currently held by span recorders"),
            ("sp_spans_evicted_total", "sp-trace spans evicted from bounded span recorders"),
        );
        reg
    }

    /// The metrics snapshot rendered in Prometheus text exposition format.
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        self.metrics().render_prometheus()
    }

    /// Takes a consistent cut of the whole plan at an epoch boundary. Must
    /// be called at quiescence (no queued work): the sequential executor
    /// runs every pushed element to completion, so any point between
    /// `push` calls is a consistent cut.
    #[must_use]
    pub fn checkpoint(&self, epoch: u64, input_pos: u64) -> crate::checkpoint::Checkpoint {
        debug_assert!(self.queue.is_empty(), "checkpoint requires quiescence");
        let mut analyzers = Vec::with_capacity(self.sources.len());
        for source in &self.sources {
            let mut buf = Vec::new();
            source.analyzer.snapshot(&mut buf);
            analyzers.push(buf);
        }
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut buf = Vec::new();
            node.op.snapshot(&mut buf);
            nodes.push(buf);
        }
        let mut sinks = Vec::with_capacity(self.sinks.len());
        for sink in &self.sinks {
            let mut buf = Vec::new();
            Operator::snapshot(sink, &mut buf);
            sinks.push(buf);
        }
        crate::checkpoint::Checkpoint { epoch, input_pos, analyzers, nodes, sinks }
    }

    /// Restores every analyzer, operator, and sink from a checkpoint taken
    /// on a plan built by the same builder.
    ///
    /// # Errors
    ///
    /// Fails closed ([`EngineError::CheckpointCorrupt`]) when the
    /// checkpoint's shape does not match this plan or any section fails to
    /// decode; the executor must then be discarded — state may be partially
    /// restored.
    pub fn restore(&mut self, ckpt: &crate::checkpoint::Checkpoint) -> Result<(), EngineError> {
        if ckpt.analyzers.len() != self.sources.len()
            || ckpt.nodes.len() != self.nodes.len()
            || ckpt.sinks.len() != self.sinks.len()
        {
            return Err(EngineError::corrupt(
                "plan",
                format!(
                    "checkpoint shape {}/{}/{} does not match plan {}/{}/{}",
                    ckpt.analyzers.len(),
                    ckpt.nodes.len(),
                    ckpt.sinks.len(),
                    self.sources.len(),
                    self.nodes.len(),
                    self.sinks.len(),
                ),
            ));
        }
        self.queue.clear();
        for (source, bytes) in self.sources.iter_mut().zip(&ckpt.analyzers) {
            source.analyzer.restore(bytes)?;
        }
        for (node, bytes) in self.nodes.iter_mut().zip(&ckpt.nodes) {
            node.op.restore(bytes)?;
        }
        for (sink, bytes) in self.sinks.iter_mut().zip(&ckpt.sinks) {
            Operator::restore(sink, bytes)?;
        }
        Ok(())
    }

    /// Replaces the security predicate of the operator at `n` (runtime
    /// role reassignment, §IX future work). Returns false if that operator
    /// has no predicate.
    pub fn update_predicate(&mut self, n: NodeRef, roles: &sp_core::RoleSet) -> bool {
        self.nodes[n.0].op.update_predicate(roles)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::select::Select;
    use crate::ops::shield::SecurityShield;
    use sp_core::{
        Policy, RoleSet, SecurityPunctuation, Timestamp, Tuple, TupleId, Value, ValueType,
    };

    fn schema() -> Arc<Schema> {
        Schema::of("loc", &[("id", ValueType::Int), ("x", ValueType::Int)])
    }

    fn catalog() -> Arc<RoleCatalog> {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(8);
        Arc::new(c)
    }

    fn tup(tid: u64, ts: u64, x: i64) -> StreamElement {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64), Value::Int(x)],
        ))
    }

    fn sp(roles: &[u32], ts: u64) -> StreamElement {
        StreamElement::punctuation(SecurityPunctuation::grant_all(
            roles.iter().map(|&r| sp_core::RoleId(r)).collect(),
            Timestamp(ts),
        ))
    }

    #[test]
    fn select_shield_pipeline() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let sel = b
            .add(Select::new(Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(5)))), src);
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), sel);
        let sink = b.sink(ss);
        let mut exec = b.build();

        exec.push_all([
            (StreamId(1), sp(&[1], 0)),
            (StreamId(1), tup(1, 1, 10)), // passes both
            (StreamId(1), tup(2, 2, 3)),  // filtered by select
            (StreamId(1), sp(&[2], 3)),
            (StreamId(1), tup(3, 4, 10)), // shielded
        ])
        .unwrap();

        let tuples: Vec<u64> = exec.sink(sink).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(tuples, vec![1]);
        assert!(exec.stats(ss).tuples_in >= 1);
    }

    #[test]
    fn shared_subplan_feeds_multiple_queries() {
        // One select shared by two queries with different access rights
        // (Fig. 5): SS operators placed per-query after the shared part.
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let shared = b
            .add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), src);
        let ss1 = b.add(SecurityShield::new(RoleSet::from([1])), shared);
        let ss2 = b.add(SecurityShield::new(RoleSet::from([2])), shared);
        let q1 = b.sink(ss1);
        let q2 = b.sink(ss2);
        let mut exec = b.build();

        exec.push_all([
            (StreamId(1), sp(&[1], 0)),
            (StreamId(1), tup(1, 1, 1)),
            (StreamId(1), sp(&[2], 2)),
            (StreamId(1), tup(2, 3, 1)),
            (StreamId(1), sp(&[1, 2], 4)),
            (StreamId(1), tup(3, 5, 1)),
        ])
        .unwrap();

        let q1_ids: Vec<u64> = exec.sink(q1).tuples().map(|t| t.tid.raw()).collect();
        let q2_ids: Vec<u64> = exec.sink(q2).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(q1_ids, vec![1, 3]);
        assert_eq!(q2_ids, vec![2, 3]);
    }

    /// Forwards everything, failing on the tuple with id `fail_on`.
    struct FailsOn {
        fail_on: u64,
        stats: OperatorStats,
    }

    impl Operator for FailsOn {
        fn name(&self) -> &str {
            "fails-on"
        }

        fn process_batch(
            &mut self,
            _port: usize,
            batch: ElementBatch,
            out: &mut Emitter,
        ) -> Result<(), EngineError> {
            for elem in batch {
                if elem.as_tuple().is_some_and(|t| t.tid.raw() == self.fail_on) {
                    return Err(EngineError::MalformedElement {
                        operator: "fails-on".into(),
                        reason: "test failure".into(),
                    });
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
    fn operator_error_releases_nothing_staged_behind_it() {
        // Two queries share the source; the first one's operator fails on
        // tuple 2 of a frame that `push_all` staged whole.
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let failing = b.add(FailsOn { fail_on: 2, stats: OperatorStats::new() }, src);
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
        let q1 = b.sink(failing);
        let q2 = b.sink(ss);
        let mut exec = b.build();

        let err = exec.push_all([
            (StreamId(1), sp(&[1], 0)),
            (StreamId(1), tup(1, 1, 0)),
            (StreamId(1), tup(2, 2, 0)), // fails in query 1
            (StreamId(1), sp(&[2], 3)),  // revokes role 1: discarded with the rest
            (StreamId(1), tup(3, 4, 0)),
        ]);
        let judged = (exec.stats(ss).sps_in, exec.stats(ss).tuples_in);
        assert!(matches!(err, Err(EngineError::MalformedElement { .. })), "{err:?}");

        // The whole staged chunk fails closed — error-path granularity is
        // the staged chunk (DESIGN §10 *Error path*): even tuple 1, judged
        // before the failure, had its output still queued, in either
        // query. How far query 2's shield got before the failure is a
        // property of the routing order, not of the contract, so it is not
        // asserted.
        assert_eq!(exec.sink(q1).tuple_count(), 0);
        assert_eq!(exec.sink(q2).tuple_count(), 0);

        // The revocation bound for query 2's shield may have gone with
        // the queue, leaving it on the older, wider policy — so the failure
        // is latched: a later grant + tuple is refused with the same error
        // and releases nothing under that stale policy.
        let again = exec.push_all([(StreamId(1), sp(&[1], 5)), (StreamId(1), tup(4, 6, 0))]);
        assert_eq!(again, err);
        assert_eq!(exec.push(StreamId(1), tup(5, 7, 0)), err);
        assert_eq!(exec.finish(), err);
        assert_eq!(exec.sink(q1).tuple_count(), 0);
        assert_eq!(exec.sink(q2).tuple_count(), 0);
        assert_eq!((exec.stats(ss).sps_in, exec.stats(ss).tuples_in), judged, "no operator ran");
    }

    /// `process_batch` is all an operator has to implement: the same
    /// operator type, with neither a per-element step nor a `process_run`
    /// of its own, sees a run by move (sole consumer of its edge) and by
    /// loan (first of two consumers) and delivers the same elements.
    #[test]
    fn process_batch_alone_serves_moved_and_lent_runs() {
        let forward = || FailsOn { fail_on: u64::MAX, stats: OperatorStats::new() };
        let input = || {
            [sp(&[1], 0), tup(1, 1, 0), tup(2, 2, 0), sp(&[2], 3), tup(3, 4, 0)]
                .map(|e| (StreamId(1), e))
        };

        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let alone = b.add(forward(), src);
        let sink = b.sink(alone);
        let mut moved = b.build();
        moved.push_all(input()).unwrap();

        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let (first, last) = (b.add(forward(), src), b.add(forward(), src));
        let (lent_sink, moved_sink) = (b.sink(first), b.sink(last));
        let mut shared = b.build();
        assert!(shared.run_major(), "the source edge lends to every consumer but the last");
        shared.push_all(input()).unwrap();

        let expected = moved.sink(sink).elements();
        assert_eq!(expected.len(), 5);
        assert_eq!(shared.sink(lent_sink).elements(), expected);
        assert_eq!(shared.sink(moved_sink).elements(), expected);
    }

    /// A plan with a binary node never takes run-major routing: a
    /// self-join (one source → two selects → SAJoin ports 0/1) fed a policy
    /// and tuples in one `push_all` matches the tuple-at-a-time executor on
    /// output, counters and checkpoint bytes — the join saw the same
    /// interleaving of its two inputs.
    #[test]
    fn binary_plan_keeps_element_major_routing() {
        use crate::ops::sajoin::{JoinVariant, SAJoin};
        let build = || {
            let mut b = PlanBuilder::new(catalog());
            let src = b.source(StreamId(1), schema());
            let pass = |limit| {
                Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(limit))))
            };
            let left = b.add(pass(0), src);
            let right = b.add(pass(2), src);
            let join = b.add_binary(SAJoin::new(JoinVariant::Index, 100, 1, 1, 2), left, right);
            let sink = b.sink(join);
            (b.build(), [left, right, join], sink)
        };
        let input = || {
            let xs = [1, 2, 3, 2, 1, 3, 2];
            std::iter::once(sp(&[1, 2], 0))
                .chain(xs.into_iter().enumerate().map(|(i, x)| tup(i as u64 + 1, i as u64 + 1, x)))
                .chain([sp(&[2], 20), tup(9, 21, 2), tup(10, 22, 3)])
                .map(|e| (StreamId(1), e))
        };

        let (mut batched, nodes, sink) = build();
        assert!(batched.has_binary && !batched.run_major());
        batched.push_all(input()).unwrap();
        batched.finish().unwrap();

        let (mut reference, _, _) = build();
        reference.set_batching(false);
        for (stream, elem) in input() {
            reference.push(stream, elem).unwrap();
        }
        reference.finish().unwrap();

        assert!(batched.sink(sink).tuple_count() > 0, "the join must produce output");
        assert_eq!(batched.sink(sink).elements(), reference.sink(sink).elements());
        for n in nodes {
            assert_eq!(batched.stats(n).tuples_in, reference.stats(n).tuples_in);
            assert_eq!(batched.stats(n).tuples_out, reference.stats(n).tuples_out);
            assert_eq!(batched.stats(n).sps_in, reference.stats(n).sps_in);
            assert_eq!(batched.stats(n).sps_out, reference.stats(n).sps_out);
        }
        let (ck_b, ck_r) = (batched.checkpoint(0, 0), reference.checkpoint(0, 0));
        assert_eq!(ck_b.analyzers, ck_r.analyzers);
        assert_eq!(ck_b.nodes, ck_r.nodes);
        assert_eq!(ck_b.sinks, ck_r.sinks);
    }

    /// Under `telemetry.metrics` a shield group is timed once and split
    /// over its members: each member's `sp_operator_latency_ns` counts the
    /// elements it was shown, and its tuple counters are what it counts
    /// judging alone.
    #[test]
    fn grouped_shield_metrics_count_what_each_member_was_shown() {
        let build = || {
            let mut b = PlanBuilder::new(catalog());
            let src = b.source(StreamId(1), schema());
            let shields: Vec<NodeRef> =
                (1..=3).map(|r| b.add(SecurityShield::new(RoleSet::from([r])), src)).collect();
            let sel = b.add(Select::new(Expr::Const(Value::Bool(true))), src);
            for upstream in shields.iter().chain([&sel]) {
                b.sink(*upstream);
            }
            b.enable_telemetry(TelemetryConfig { metrics: true, ..TelemetryConfig::disabled() });
            (b.build(), shields)
        };
        let scoped = StreamElement::punctuation(
            SecurityPunctuation::grant_all(RoleSet::from([2, 3]), Timestamp(3))
                .with_ddp(sp_core::DataDescription::tuple_range(3, 4)),
        );
        let input = || {
            [sp(&[1, 2], 0), tup(1, 1, 0), tup(2, 2, 0), scoped.clone()]
                .into_iter()
                .chain((3..7).map(|i| tup(i, i + 1, 0)))
                .chain([sp(&[3], 9)])
                .map(|e| (StreamId(1), e))
        };
        let (mut grouped, shields) = build();
        let members = grouped.groups[0].as_ref().map(|g| g.members.clone());
        assert_eq!(members, Some(shields.iter().map(|n| n.0).collect()), "one group of three");
        grouped.push_all(input()).unwrap();
        grouped.finish().unwrap();
        let (mut alone, _) = build();
        alone.set_batching(false);
        for (stream, elem) in input() {
            alone.push(stream, elem).unwrap();
        }
        alone.finish().unwrap();

        let (grouped_metrics, alone_metrics) = (grouped.metrics(), alone.metrics());
        for ss in &shields {
            let labels = format!("op=\"ss\",node=\"{}\"", ss.0);
            let stats = grouped.stats(*ss);
            let latency = grouped_metrics.histogram("sp_operator_latency_ns", &labels).unwrap();
            assert_eq!(latency.count(), stats.tuples_in + stats.sps_in, "{labels}");
            for family in ["sp_tuples_in_total", "sp_tuples_out_total", "sp_tuples_shielded_total"]
            {
                let counter = grouped_metrics.counter(family, &labels);
                assert_eq!(counter, alone_metrics.counter(family, &labels), "{family} {labels}");
            }
        }
        assert!(
            grouped.stats(shields[1]).tuples_out > 0
                && grouped.stats(shields[0]).tuples_shielded > 0
        );
    }

    /// A policy-switch-heavy frame (the paper's worst ratio, one sp per
    /// tuple) crosses each edge of a binary-free plan as one batch: one
    /// timed call per node, not one per kind flip, and the same sinks and
    /// checkpoint bytes as the tuple-at-a-time executor.
    #[test]
    fn churn_frame_costs_one_call_per_node() {
        use crate::ops::project::Project;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let build = || {
            let mut b = PlanBuilder::new(catalog());
            let src = b.source(StreamId(1), schema());
            let ss = b.add(SecurityShield::new(RoleSet::from([1, 2])), src);
            let sel = b.add(
                Select::new(Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(0)))),
                ss,
            );
            let proj = b.add(Project::new(vec![1]), sel);
            let sink = b.sink(proj);
            b.enable_telemetry(TelemetryConfig { metrics: true, ..TelemetryConfig::disabled() });
            (b.build(), [ss, sel, proj], sink)
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
        let mut roles: Vec<u32> = (0..8).collect();
        let frame: Vec<(StreamId, StreamElement)> = (0..64u64)
            .flat_map(|i| {
                roles.shuffle(&mut rng);
                [sp(&roles[..3], 2 * i), tup(i + 1, 2 * i + 1, (i % 4) as i64)]
            })
            .map(|e| (StreamId(1), e))
            .collect();
        assert_eq!(frame.len(), 128);

        let (mut batched, nodes, sink) = build();
        assert!(batched.run_major());
        batched.push_all(frame.clone()).unwrap();
        let (mut reference, _, _) = build();
        reference.set_batching(false);
        for (stream, elem) in frame {
            reference.push(stream, elem).unwrap();
        }

        let metrics = batched.metrics();
        let calls = metrics.histogram("sp_queue_depth", "").unwrap().count();
        assert!(calls <= nodes.len() as u64, "{calls} timed operator calls for one frame");
        for n in nodes {
            let labels = format!("op=\"{}\",node=\"{}\"", batched.nodes[n.0].op.name(), n.0);
            let shown = batched.stats(n).tuples_in + batched.stats(n).sps_in;
            let latency = metrics.histogram("sp_operator_latency_ns", &labels).unwrap();
            assert_eq!(latency.count(), shown, "{labels}");
        }
        assert!(batched.sink(sink).tuple_count() > 0, "something is released");
        assert_eq!(batched.sink(sink).elements(), reference.sink(sink).elements());
        let (ck_b, ck_r) = (batched.checkpoint(0, 0), reference.checkpoint(0, 0));
        assert_eq!(ck_b.analyzers, ck_r.analyzers);
        assert_eq!(ck_b.nodes, ck_r.nodes);
        assert_eq!(ck_b.sinks, ck_r.sinks);
    }

    #[test]
    fn unknown_stream_is_ignored() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let sink = b.sink(src);
        let mut exec = b.build();
        exec.push(StreamId(99), tup(1, 1, 1)).unwrap();
        assert_eq!(exec.sink(sink).tuple_count(), 0);
        exec.push(StreamId(1), tup(1, 1, 1)).unwrap();
        assert_eq!(exec.sink(sink).tuple_count(), 1);
    }

    #[test]
    fn server_policy_installed_through_builder() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        b.set_server_policy(src, Some(Policy::tuple_level(RoleSet::from([1]), Timestamp(0))));
        let ss = b.add(SecurityShield::new(RoleSet::from([2])), src);
        let sink = b.sink(ss);
        let mut exec = b.build();
        exec.push_all([(StreamId(1), sp(&[1, 2], 1)), (StreamId(1), tup(1, 2, 1))]).unwrap();
        // Server policy removed role 2, so query with role 2 sees nothing.
        assert_eq!(exec.sink(sink).tuple_count(), 0);
        assert!(exec.state_mem_bytes(ss) > 0);
        assert_eq!(exec.analyzer(src).sps_filtered, 0);
    }

    #[test]
    fn hardened_source_fails_closed_end_to_end() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        b.harden_source(src, crate::QuarantinePolicy { ttl_ms: 10, slack_ms: 10, capacity: 8 });
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
        let sink = b.sink(ss);
        let mut exec = b.build();
        exec.push_all([
            (StreamId(1), tup(1, 1, 1)),  // no policy yet: quarantined
            (StreamId(1), sp(&[1], 1)),   // its sp arrives within slack
            (StreamId(1), tup(2, 2, 1)),  // governed
            (StreamId(1), tup(3, 50, 1)), // 39 past the policy: quarantined
            (StreamId(1), tup(4, 90, 1)), // expires tuple 3, quarantined
        ])
        .unwrap();
        let ids: Vec<u64> = exec.sink(sink).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(ids, vec![1, 2], "only governed tuples released");
        let d = exec.degradation();
        assert_eq!(d.quarantine_released, 1);
        assert_eq!(d.quarantined, 3);
        assert!(d.quarantine_dropped >= 1, "tuple 3 timed out");
        assert!(d.total_dropped() >= 1);
    }

    #[test]
    fn finish_flushes_trailing_batches() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let sink = b.sink(src);
        let mut exec = b.build();
        exec.push(StreamId(1), sp(&[1], 9)).unwrap();
        assert_eq!(exec.sink(sink).stats().sps_in, 0, "batch still open");
        exec.finish().unwrap();
        assert_eq!(exec.sink(sink).stats().sps_in, 1);
    }
}
