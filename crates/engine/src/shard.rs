//! Key-partitioned shard scale-out with a deterministic exchange merge.
//!
//! [`run_parallel`](crate::parallel::run_parallel) caps out at pipeline
//! parallelism — one worker per operator stage, throughput bounded by the
//! slowest stage. This module scales *out* instead: the
//! [`ShardedExecutor`] runs N full replicas of a (shard-safe) plan, a
//! [`Partitioner`] routes each tuple run to the shard owning its key,
//! and a seq-ordered exchange merge reassembles one deterministic output
//! stream. The design goal is the same as every other runtime in this
//! crate: **sharded execution is observationally identical to sequential
//! execution** — released set, policy table, audit trail, and span sheet
//! are byte-identical at any shard count.
//!
//! # Who runs what
//!
//! * **The coordinator** (the caller's thread) owns the *canonical*
//!   front half of the plan: every sp-analyzer runs here, once, exactly
//!   as in the sequential executor. Analyzer state is tuple-dependent
//!   (its stream clock advances on tuples, and quarantine rings hold
//!   tuples), so per-shard analyzer replicas would diverge; centralizing
//!   them makes analyzer snapshots, hardened-source quarantine, and the
//!   `Source` sections of the audit trail exactly sequential. The
//!   coordinator also owns the canonical sinks and the canonical
//!   per-node flight/span recorders, all fed in seq order from the
//!   merged delta stream.
//! * **Shard workers** each own a full [`Executor`] built from an
//!   identical [`PlanBuilder`]. Analyzed elements are injected past the
//!   (unused) shard-local analyzers. After each injected run a worker
//!   extracts a *delta* — new sink output, new audit records, new spans
//!   — and ships it downstream tagged with the run's global seq.
//! * **The exchange merge** k-way-merges the per-shard delta streams by
//!   seq (per-shard seqs are monotone, so waiting for one head per live
//!   shard suffices) and forwards one totally ordered delta stream to
//!   the coordinator.
//!
//! # Broadcast semantics
//!
//! Tuple runs go to exactly one shard; security punctuations (policy
//! elements emitted by the analyzers), sync markers, and checkpoint
//! barriers are **broadcast to every shard under one seq**. Every shard
//! therefore sees every policy in the same stream position, which is
//! what keeps replicated operator policy state byte-identical — and the
//! executor *verifies* that at every barrier, failing closed with
//! [`EngineError::ShardDivergence`] if replicas ever disagree.
//!
//! # Delayed sp propagation under partitioning
//!
//! Select and the Security Shield flush their buffered policy before the
//! **first surviving tuple** of its segment (§IV-B) — a tuple-dependent
//! event, so under partitioning each shard flushes independently when
//! *its* partition produces a survivor. Two consequences, both handled
//! at the coordinator: the same policy may reach a sink once per shard
//! (seq order equals input order, so the *first* flush in merged order
//! lands exactly at the sequential position; later copies are dropped),
//! and replicas legitimately disagree on the pending-policy snapshot
//! (merged semantically via [`Operator::merge_shard_state`]: flushed
//! anywhere ⇒ flushed canonically). This is only sound when the flushes
//! reach a coordinator-owned sink through *policy-transparent*
//! operators only ([`Operator::policy_transparent`]: 1:1 deterministic
//! sp forwarding, as projection and eager selection practise — so
//! duplicate flushes stay byte-equal all the way down), with sole
//! ownership at every step. The builder refuses — fail-closed — any
//! plan that places a delayed-propagation operator
//! ([`Operator::delays_sps`]) upstream of a non-transparent operator,
//! and any path carrying *two* delaying operators (the downstream
//! one's pending policy diverges in value per shard).
//!
//! # Checkpoints span all shards, and re-shard on restore
//!
//! A checkpoint barrier is broadcast like any other control element, so
//! it cuts every shard at the same seq. Per-node shard snapshots are
//! *canonicalized* — tuple counters summed across shards, sp counters
//! taken from shard 0 (every shard sees every sp), policy-state bytes
//! verified identical — so the resulting [`Checkpoint`] is byte-for-byte
//! the checkpoint the sequential executor would have written at the same
//! input position. That makes re-sharding trivial: a cut taken at N
//! shards restores at any M (shard 0 carries the restored counter base;
//! other shards restart their counters at zero so sums stay exact), and
//! restoring the same cut sequentially works too.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::time::Instant;

use sp_core::{StreamElement, StreamId, Tuple};

use crate::batch::ElementBatch;
use crate::checkpoint::Checkpoint;
use crate::element::Element;
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::ops::Sink;
use crate::parallel::{join_with_deadline, DRAIN_TIMEOUT, STALL_DEADLINE};
use crate::plan::{Executor, PlanBuilder, SinkRef};
use crate::stats::DegradationStats;
use crate::telemetry::{
    merge_recorders, AuditRecord, AuditTrail, Record, Recorders, Sections, SpanRecord, SpanSheet,
    TelemetryConfig,
};

/// Envelopes per channel send: the coordinator buffers this many routed
/// runs per shard before flushing, amortizing channel overhead.
const CHUNK: usize = 64;

/// Bounded depth (in chunks) of each shard's input queue — the
/// backpressure bound, playing the role of
/// [`EDGE_CAPACITY`](crate::parallel::EDGE_CAPACITY).
const SHARD_QUEUE_CHUNKS: usize = 64;

/// Minimum ring capacity for *shard-local* recorders. Workers extract
/// new records after every injected run, so a shard ring only needs to
/// hold one run's worth of records plus unextracted history; a generous
/// floor keeps eviction from ever racing extraction. (The canonical
/// recorders use the caller's configured capacity, so trail encodings
/// still match sequential runs exactly.)
const SHARD_RECORDER_SLACK: usize = 4096;

/// The counter prefix every stateful operator snapshot starts with:
/// 5 × u64 ([`crate::stats::OperatorStats`] counters).
const COUNTER_PREFIX: usize = 40;

/// Per-shard node snapshot sections gathered at a barrier.
type BarrierSections = Vec<(usize, Vec<Vec<u8>>)>;

/// A control-marker echo surfaced while applying merged messages:
/// `(marker id, barrier sections if the marker was a barrier)`.
type MarkerEcho = Option<(u64, Option<BarrierSections>)>;

/// Stable key-hash router: maps each tuple to the shard that owns its
/// key, by FNV-1a over `(sid, tid)`. Pure and deterministic — the same
/// tuple routes to the same shard in every run at a given shard count —
/// and keyed on the data-provider id, so all tuples sharing a policy
/// key stay on one shard.
#[derive(Debug, Clone, Copy)]
pub struct Partitioner {
    shards: u64,
}

impl Partitioner {
    /// A partitioner over `shards` shards (at least 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self { shards: shards.max(1) as u64 }
    }

    /// Number of shards.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // constructed from usize
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning `tuple`'s key.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // result < self.shards
    pub fn shard_of(&self, tuple: &Tuple) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tuple.sid.raw().to_be_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        for b in tuple.tid.raw().to_be_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        (h % self.shards) as usize
    }
}

/// One routed unit of work for a shard worker.
enum ShardIn {
    /// An analyzed run to inject at source slot `source`. `broadcast`
    /// runs (policy elements) arrive at every shard under the same seq.
    Data { seq: u64, broadcast: bool, source: usize, batch: ElementBatch },
    /// Read-synchronization marker: echo back, no state change.
    Sync { seq: u64, id: u64 },
    /// Checkpoint barrier: snapshot every node and echo the sections.
    Barrier { seq: u64, id: u64 },
}

/// The records one recorder plane gained, per node slot, in record order.
type PlaneDelta<R> = Vec<(usize, Vec<R>)>;

/// One shard's observable increment for one seq.
struct Delta {
    seq: u64,
    broadcast: bool,
    /// New sink output per sink slot, in delivery order.
    sinks: Vec<(usize, Vec<Element>)>,
    audit: PlaneDelta<AuditRecord>,
    spans: PlaneDelta<SpanRecord>,
}

/// Worker → exchange messages.
enum ShardOut {
    Delta(Delta),
    Sync { seq: u64, id: u64 },
    Barrier { seq: u64, id: u64, nodes: Vec<Vec<u8>> },
    Fatal(EngineError),
}

impl ShardOut {
    fn seq(&self) -> u64 {
        match self {
            Self::Delta(d) => d.seq,
            Self::Sync { seq, .. } | Self::Barrier { seq, .. } => *seq,
            Self::Fatal(_) => u64::MAX,
        }
    }

    fn is_broadcast(&self) -> bool {
        match self {
            Self::Delta(d) => d.broadcast,
            Self::Sync { .. } | Self::Barrier { .. } => true,
            Self::Fatal(_) => false,
        }
    }
}

/// Exchange → coordinator messages: the merged, totally ordered stream.
enum MergedOut {
    Delta(Delta),
    Sync {
        id: u64,
    },
    /// Barrier echoes from every shard: `(shard, per-node sections)`.
    Barrier {
        id: u64,
        nodes: BarrierSections,
    },
    Fatal(EngineError),
}

/// Extraction cursors for one shard's recorders: total records ever
/// recorded (`len + evicted`) at the last extraction, per node slot —
/// one vector per plane.
type Cursors = (Vec<u64>, Vec<u64>);

/// Pulls the records plane `R` gained at every node since `cursors`,
/// advancing them. Fails closed if a ring already evicted unextracted
/// records (cannot happen below [`SHARD_RECORDER_SLACK`]-sized runs, but
/// a silent gap would corrupt the canonical plane, so it is an error,
/// not a guess).
fn extract_plane<R: Record>(
    exec: &Executor,
    cursors: &mut [u64],
) -> Result<PlaneDelta<R>, EngineError> {
    let mut delta = Vec::new();
    for (i, cursor) in cursors.iter_mut().enumerate() {
        let Some(ring) = exec.node_op(i).recorders().map(R::ring) else { continue };
        let (len, evicted) = (ring.len() as u64, ring.evicted());
        if evicted > *cursor {
            return Err(EngineError::ShardDivergence {
                stage: format!("node {i} recorder"),
                reason: "recorder ring evicted records between exchange extractions".to_string(),
            });
        }
        let new = len + evicted - *cursor;
        *cursor = len + evicted;
        if new > 0 {
            #[allow(clippy::cast_possible_truncation)] // new <= len <= ring size
            delta.push((i, ring.records().skip((len - new) as usize).copied().collect()));
        }
    }
    Ok(delta)
}

/// Re-records one plane's delta into the canonical recorders.
fn apply_plane<R: Record>(canonical: &mut [Recorders], delta: PlaneDelta<R>) {
    for (node, records) in delta {
        let ring = R::ring_mut(&mut canonical[node]);
        for r in records {
            ring.push(r);
        }
    }
}

/// Extracts one shard's delta after an injected run.
fn extract_delta(
    exec: &mut Executor,
    seq: u64,
    broadcast: bool,
    cursors: &mut Cursors,
) -> Result<Delta, EngineError> {
    let audit = extract_plane(exec, &mut cursors.0)?;
    let spans = extract_plane(exec, &mut cursors.1)?;
    let mut sinks = Vec::new();
    for j in 0..exec.sink_count() {
        let out = exec.take_sink_elements(j);
        if !out.is_empty() {
            sinks.push((j, out));
        }
    }
    Ok(Delta { seq, broadcast, sinks, audit, spans })
}

/// One shard worker: inject runs, extract deltas, echo control markers.
/// Never blocks on output (the exchange channel is unbounded), so the
/// graph cannot deadlock through a worker.
fn run_shard(
    mut exec: Executor,
    rx: &Receiver<Vec<ShardIn>>,
    tx: &Sender<Vec<ShardOut>>,
) -> Result<(), EngineError> {
    let mut cursors: Cursors = (vec![0; exec.node_count()], vec![0; exec.node_count()]);
    let mut out: Vec<ShardOut> = Vec::with_capacity(CHUNK);
    while let Ok(chunk) = rx.recv() {
        for msg in chunk {
            match msg {
                ShardIn::Data { seq, broadcast, source, batch } => {
                    let injected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        exec.inject(source, batch)
                    }));
                    let result = match injected {
                        Ok(r) => r,
                        Err(payload) => {
                            Err(EngineError::from_panic("shard worker", payload.as_ref()))
                        }
                    };
                    let step = result
                        .and_then(|()| extract_delta(&mut exec, seq, broadcast, &mut cursors));
                    match step {
                        Ok(delta) => out.push(ShardOut::Delta(delta)),
                        Err(e) => {
                            out.push(ShardOut::Fatal(e.clone()));
                            let _ = tx.send(std::mem::take(&mut out));
                            return Err(e);
                        }
                    }
                }
                ShardIn::Sync { seq, id } => out.push(ShardOut::Sync { seq, id }),
                ShardIn::Barrier { seq, id } => {
                    let ckpt = exec.checkpoint(0, 0);
                    out.push(ShardOut::Barrier { seq, id, nodes: ckpt.nodes });
                }
            }
        }
        if tx.send(std::mem::take(&mut out)).is_err() {
            break; // coordinator gone: clean teardown
        }
    }
    Ok(())
}

/// The exchange: k-way merge of per-shard delta streams by seq.
/// Per-shard seqs are strictly increasing, so holding one head per live
/// shard and always emitting the minimum reproduces the coordinator's
/// routing order exactly. Broadcast seqs are consumed from *every* live
/// shard at once.
fn run_merge(rxs: &[Receiver<Vec<ShardOut>>], tx: &Sender<MergedOut>) {
    let n = rxs.len();
    let mut pending: Vec<VecDeque<ShardOut>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut open = vec![true; n];
    loop {
        // Ensure a head per live shard (blocking: a shard with no head
        // either produces one or closes).
        let mut done = true;
        for k in 0..n {
            while open[k] && pending[k].is_empty() {
                match rxs[k].recv() {
                    Ok(chunk) => pending[k].extend(chunk),
                    Err(_) => open[k] = false,
                }
            }
            if !pending[k].is_empty() {
                done = false;
            }
        }
        if done {
            return;
        }
        // A worker death surfaces as a Fatal head: forward it first.
        for q in &mut pending {
            if matches!(q.front(), Some(ShardOut::Fatal(_))) {
                if let Some(ShardOut::Fatal(e)) = q.pop_front() {
                    let _ = tx.send(MergedOut::Fatal(e));
                }
                return;
            }
        }
        let Some(seq) = pending.iter().filter_map(|q| q.front().map(ShardOut::seq)).min() else {
            return;
        };
        let Some(first) = (0..n).find(|&k| pending[k].front().map(ShardOut::seq) == Some(seq))
        else {
            return;
        };
        let broadcast = pending[first].front().is_some_and(ShardOut::is_broadcast);
        if !broadcast {
            if let Some(ShardOut::Delta(d)) = pending[first].pop_front() {
                if tx.send(MergedOut::Delta(d)).is_err() {
                    return;
                }
            }
            continue;
        }
        // Broadcast: every live shard's head must be this seq. A live
        // shard at a different seq would still owe this one (per-shard
        // order is preserved), so a mismatch is a protocol violation —
        // fail closed.
        let live: Vec<usize> = (0..n).filter(|&k| open[k] || !pending[k].is_empty()).collect();
        if live.iter().any(|&k| pending[k].front().map(ShardOut::seq) != Some(seq)) {
            let _ = tx.send(MergedOut::Fatal(EngineError::ShardDivergence {
                stage: "exchange".to_string(),
                reason: format!("broadcast seq {seq} not aligned across shards"),
            }));
            return;
        }
        let mut first_delta: Option<Delta> = None;
        let mut sync_id = None;
        let mut barrier_id = None;
        let mut sections: BarrierSections = Vec::new();
        for &k in &live {
            match pending[k].pop_front() {
                // Replicated input ⇒ replicated output; keep the lowest
                // shard's copy (divergence between replicas is caught
                // at the next barrier).
                Some(ShardOut::Delta(d)) if first_delta.is_none() => {
                    first_delta = Some(d);
                }
                Some(ShardOut::Sync { id, .. }) => sync_id = Some(id),
                Some(ShardOut::Barrier { id, nodes, .. }) => {
                    barrier_id = Some(id);
                    sections.push((k, nodes));
                }
                _ => {}
            }
        }
        let msg = if let Some(d) = first_delta {
            MergedOut::Delta(d)
        } else if let Some(id) = barrier_id {
            MergedOut::Barrier { id, nodes: sections }
        } else if let Some(id) = sync_id {
            MergedOut::Sync { id }
        } else {
            continue;
        };
        if tx.send(msg).is_err() {
            return;
        }
    }
}

/// Decodes the 5-counter prefix of an operator snapshot.
fn decode_prefix(bytes: &[u8]) -> [u64; 5] {
    let mut out = [0u64; 5];
    for (i, slot) in out.iter_mut().enumerate() {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
        *slot = u64::from_be_bytes(b);
    }
    out
}

/// Live sharded runtime state (workers spawned lazily at first use).
struct Running {
    in_tx: Vec<SyncSender<Vec<ShardIn>>>,
    /// Per-shard unflushed envelope buffer.
    buf: Vec<Vec<ShardIn>>,
    merged_rx: Receiver<MergedOut>,
    workers: Vec<(String, std::thread::JoinHandle<Result<(), EngineError>>)>,
    merger: Option<std::thread::JoinHandle<()>>,
}

/// The sharded executor: N key-partitioned replicas of one plan behind
/// a deterministic exchange merge, presenting the same push / finish /
/// checkpoint / restore / telemetry surface as the sequential
/// [`Executor`] — with byte-identical observables. See the module docs
/// for the architecture.
pub struct ShardedExecutor {
    partitioner: Partitioner,
    /// Coordinator replica of the plan nodes: never processes elements;
    /// exists for shard-safety validation, operator names, and the
    /// recorder-arming pattern (which nodes contribute plane sections).
    nodes: Vec<crate::plan::Node>,
    /// The canonical analyzers — the *only* analyzers that run.
    sources: Vec<crate::plan::Source>,
    /// The canonical sinks, fed in seq order from the merged stream.
    sinks: Vec<Sink>,
    /// For each node practising delayed sp propagation
    /// ([`Operator::delays_sps`]): the sink it owns. Such a node's
    /// canonical `sps_out` is its sink's deduplicated sp intake.
    delayed_sinks: Vec<Option<usize>>,
    /// For each policy-transparent node sitting between a delaying node
    /// and its sink: that sink. Such a node's sp counters are
    /// shard-local flush counts; both canonically equal the sink's
    /// deduplicated sp intake (the chain forwards 1:1).
    chain_sinks: Vec<Option<usize>>,
    /// Per sink: the encoding of the last flushed (non-broadcast) policy
    /// delivered, for exchange-side flush deduplication.
    last_flushed: Vec<Option<Vec<u8>>>,
    by_stream: HashMap<StreamId, Vec<usize>>,
    telemetry: TelemetryConfig,
    /// Canonical per-node recorders, re-recorded in global seq order:
    /// copies of the coordinator nodes' (armed, never written) recorders,
    /// so section sets and capacities match a sequential run exactly.
    canonical: Vec<Recorders>,
    /// Builders for the shard replicas, consumed at first use.
    pending_builders: Option<Vec<PlanBuilder>>,
    /// A restore to apply to the shard replicas at spawn.
    restore_ckpt: Option<Checkpoint>,
    running: Option<Running>,
    staged: Vec<Element>,
    emitter: Emitter,
    seq: u64,
    marker_id: u64,
    /// First fatal error: once set, every operation fails closed.
    failure: Option<EngineError>,
}

impl ShardedExecutor {
    /// Builds a sharded executor over `shards` replicas of the plan
    /// `make` produces. `make` is called once per shard plus once for
    /// the coordinator's canonical front (analyzers, sinks, recorders);
    /// it must produce the same plan every time, exactly like the
    /// supervisor's rebuild closure.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardUnsupported`] if any operator cannot be
    /// replicated across key partitions (binary operators, and any
    /// operator that does not opt in via [`Operator::shard_safe`]).
    pub fn new(mut make: impl FnMut() -> PlanBuilder, shards: usize) -> Result<Self, EngineError> {
        use crate::plan::Target;
        let shards = shards.max(1);
        let (nodes, sources, sinks, telemetry) = make().into_parts();
        for node in &nodes {
            if node.op.arity() > 1 || !node.op.shard_safe() {
                return Err(EngineError::ShardUnsupported {
                    operator: node.op.name().to_string(),
                    reason: "whole-stream state cannot be partitioned".to_string(),
                });
            }
        }
        // Delayed-sp-propagation operators flush their pending policy on
        // a tuple-dependent — hence shard-local — event, so the exchange
        // must deduplicate their per-shard flushes. That is only sound
        // when the flushes reach a canonical sink the coordinator owns
        // through a chain of policy-transparent operators (each forwards
        // policies 1:1 and deterministically, so duplicate flushes stay
        // byte-equal), with sole ownership at every step: the canonical
        // flush count is then the sink's deduplicated sp intake. Two
        // delaying operators on one path cannot be reconciled — the
        // downstream one's pending policy diverges in *value* per shard
        // — so such plans are refused fail-closed.
        let mut sink_producers = vec![0usize; sinks.len()];
        let mut node_producers = vec![0usize; nodes.len()];
        for targets in nodes.iter().map(|n| &n.outputs).chain(sources.iter().map(|s| &s.outputs)) {
            for t in targets {
                match t {
                    Target::Sink(j) => sink_producers[*j] += 1,
                    Target::Node(k, _) => node_producers[*k] += 1,
                }
            }
        }
        let refuse = |op: &dyn Operator, reason: &str| EngineError::ShardUnsupported {
            operator: op.name().to_string(),
            reason: reason.to_string(),
        };
        let mut delayed_sinks: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut chain_sinks: Vec<Option<usize>> = vec![None; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            if !node.op.delays_sps() {
                continue;
            }
            let op = node.op.as_ref();
            let mut cur = i;
            let mut chain: Vec<usize> = Vec::new();
            // Walk the (sole-producer) chain from the delaying node down
            // to its sink. Plans are DAGs by construction; the length
            // bound is a defensive backstop.
            let sink = loop {
                if chain.len() > nodes.len() {
                    return Err(refuse(op, "delayed-propagation chain does not reach a sink"));
                }
                match nodes[cur].outputs.as_slice() {
                    [] => {
                        return Err(refuse(
                            op,
                            "delayed sp propagation requires a sink to flush into",
                        ));
                    }
                    [Target::Node(k, _)] => {
                        let k = *k;
                        if nodes[k].op.delays_sps() {
                            return Err(refuse(
                                op,
                                "two delayed-propagation stages on one path cannot be \
                                 deduplicated (the downstream pending policy diverges \
                                 in value per shard)",
                            ));
                        }
                        if !nodes[k].op.policy_transparent() {
                            return Err(refuse(
                                op,
                                "delayed sp propagation must reach its sink through \
                                 policy-transparent operators (1:1 deterministic sp \
                                 forwarding) so shard-local flushes stay deduplicable",
                            ));
                        }
                        if node_producers[k] != 1 {
                            return Err(refuse(
                                op,
                                "delayed sp propagation requires sole ownership of its \
                                 downstream chain (another operator feeds it)",
                            ));
                        }
                        chain.push(k);
                        cur = k;
                    }
                    outs => {
                        let mut first_sink = None;
                        for t in outs {
                            match t {
                                Target::Sink(j) => {
                                    first_sink.get_or_insert(*j);
                                    if sink_producers[*j] != 1 {
                                        return Err(refuse(
                                            op,
                                            "delayed sp propagation requires sole ownership \
                                             of its sink (another operator shares it)",
                                        ));
                                    }
                                }
                                Target::Node(..) => {
                                    return Err(refuse(
                                        op,
                                        "delayed sp propagation cannot fan out mid-chain \
                                         (shard-local flushes would duplicate downstream)",
                                    ));
                                }
                            }
                        }
                        let Some(j) = first_sink else {
                            return Err(refuse(
                                op,
                                "delayed sp propagation requires a sink to flush into",
                            ));
                        };
                        break j;
                    }
                }
            };
            delayed_sinks[i] = Some(sink);
            for k in chain {
                chain_sinks[k] = Some(sink);
            }
        }
        let builders: Vec<PlanBuilder> = (0..shards).map(|_| make()).collect();
        let mut by_stream: HashMap<StreamId, Vec<usize>> = HashMap::new();
        for (i, s) in sources.iter().enumerate() {
            by_stream.entry(s.stream).or_default().push(i);
        }
        let last_flushed = vec![None; sinks.len()];
        let canonical =
            nodes.iter().map(|n| n.op.recorders().cloned().unwrap_or_default()).collect();
        Ok(Self {
            partitioner: Partitioner::new(shards),
            nodes,
            sources,
            sinks,
            delayed_sinks,
            chain_sinks,
            last_flushed,
            by_stream,
            telemetry,
            canonical,
            pending_builders: Some(builders),
            restore_ckpt: None,
            running: None,
            staged: Vec::with_capacity(16),
            emitter: Emitter::with_capacity(16),
            seq: 0,
            marker_id: 0,
            failure: None,
        })
    }

    /// Number of shard replicas.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.partitioner.shards()
    }

    fn check_failure(&self) -> Result<(), EngineError> {
        match &self.failure {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn fail(&mut self, e: EngineError) -> EngineError {
        if self.failure.is_none() {
            self.failure = Some(e.clone());
        }
        e
    }

    fn running_mut(&mut self) -> Result<&mut Running, EngineError> {
        self.running
            .as_mut()
            .ok_or_else(|| EngineError::corrupt("shard", "shard runtime not started"))
    }

    /// Prepares shard `k`'s restore image from the canonical checkpoint:
    /// shard 0 carries the full counter base; other shards restart their
    /// counters at zero so cross-shard sums reproduce the canonical
    /// totals. Sink replicas always restart empty (the canonical sinks —
    /// restored on the coordinator — carry the real state).
    fn shard_restore_image(canonical: &Checkpoint, shard: usize) -> Checkpoint {
        let zero_prefix = |bytes: &[u8]| -> Vec<u8> {
            if bytes.len() >= COUNTER_PREFIX {
                let mut out = vec![0u8; COUNTER_PREFIX];
                out.extend_from_slice(&bytes[COUNTER_PREFIX..]);
                out
            } else {
                bytes.to_vec()
            }
        };
        let nodes = if shard == 0 {
            canonical.nodes.clone()
        } else {
            canonical.nodes.iter().map(|b| zero_prefix(b)).collect()
        };
        let sinks = canonical.sinks.iter().map(|b| zero_prefix(b)).collect();
        Checkpoint {
            epoch: canonical.epoch,
            input_pos: canonical.input_pos,
            analyzers: canonical.analyzers.clone(),
            nodes,
            sinks,
        }
    }

    /// Spawns the shard workers and the exchange merge (first use).
    fn start(&mut self) -> Result<(), EngineError> {
        let Some(builders) = self.pending_builders.take() else {
            return Err(EngineError::corrupt("shard", "shard replicas already consumed"));
        };
        let shards = builders.len();
        let (merged_tx, merged_rx) = channel::<MergedOut>();
        let mut in_tx = Vec::with_capacity(shards);
        let mut out_rx = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (k, builder) in builders.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<Vec<ShardIn>>(SHARD_QUEUE_CHUNKS);
            let (otx, orx) = channel::<Vec<ShardOut>>();
            let mut exec = builder.build();
            if exec.source_count() != self.sources.len()
                || exec.node_count() != self.nodes.len()
                || exec.sink_count() != self.sinks.len()
            {
                return Err(self.fail(EngineError::corrupt(
                    "shard",
                    format!("shard {k} replica plan shape differs from the coordinator plan"),
                )));
            }
            // An armed plane gets at least the slack; 0 stays off.
            let slack =
                |capacity: usize| if capacity > 0 { capacity.max(SHARD_RECORDER_SLACK) } else { 0 };
            exec.arm_recorders(
                slack(self.telemetry.audit_capacity),
                slack(self.telemetry.span_capacity),
            );
            if let Some(ckpt) = &self.restore_ckpt {
                let image = Self::shard_restore_image(ckpt, k);
                if let Err(e) = exec.restore(&image) {
                    return Err(self.fail(e));
                }
            }
            let handle = std::thread::spawn(move || run_shard(exec, &rx, &otx));
            in_tx.push(tx);
            out_rx.push(orx);
            workers.push((format!("shard {k}"), handle));
        }
        let merger = std::thread::spawn(move || run_merge(&out_rx, &merged_tx));
        self.running = Some(Running {
            in_tx,
            buf: (0..shards).map(|_| Vec::with_capacity(CHUNK)).collect(),
            merged_rx,
            workers,
            merger: Some(merger),
        });
        Ok(())
    }

    fn ensure_started(&mut self) -> Result<(), EngineError> {
        self.check_failure()?;
        if self.running.is_none() {
            self.start()?;
        }
        Ok(())
    }

    /// Applies one merged message to the canonical state. Returns the
    /// marker echo if the message was a sync/barrier echo.
    fn apply(&mut self, msg: MergedOut) -> Result<MarkerEcho, EngineError> {
        match msg {
            MergedOut::Delta(d) => {
                let mut emitter = std::mem::take(&mut self.emitter);
                for (j, out) in d.sinks {
                    for elem in out {
                        // A policy on a *tuple* seq is a delayed-
                        // propagation flush: each shard flushes the same
                        // broadcast policy before its own first
                        // survivor. Seq order equals input order, so the
                        // first flush in merged order lands exactly at
                        // the sequential position — later copies of the
                        // same policy are exchange duplicates, dropped
                        // here. (Policies on broadcast seqs are already
                        // deduplicated by the merge and pass verbatim.)
                        if !d.broadcast {
                            if let Element::Policy(seg) = &elem {
                                let mut enc = Vec::new();
                                crate::checkpoint::encode_segment_policy(seg, &mut enc);
                                if self.last_flushed[j].as_ref() == Some(&enc) {
                                    continue;
                                }
                                self.last_flushed[j] = Some(enc);
                            }
                        }
                        // Element-wise: a sink delta may mix tuples and
                        // policies, which batch runs must not.
                        let one = ElementBatch::single(elem);
                        if let Err(e) = self.sinks[j].process_batch(0, one, &mut emitter) {
                            let _ = emitter.take();
                            self.emitter = emitter;
                            return Err(self.fail(e));
                        }
                    }
                }
                let _ = emitter.take();
                self.emitter = emitter;
                apply_plane(&mut self.canonical, d.audit);
                apply_plane(&mut self.canonical, d.spans);
                Ok(None)
            }
            MergedOut::Sync { id } => Ok(Some((id, None))),
            MergedOut::Barrier { id, nodes } => Ok(Some((id, Some(nodes)))),
            MergedOut::Fatal(e) => Err(self.fail(e)),
        }
    }

    /// Drains merged messages without blocking (keeps canonical state
    /// fresh and the unbounded exchange channel short during pushes).
    fn drain_ready(&mut self) -> Result<(), EngineError> {
        loop {
            let msg = {
                let Some(running) = self.running.as_ref() else { return Ok(()) };
                match running.merged_rx.try_recv() {
                    Ok(msg) => msg,
                    Err(_) => return Ok(()),
                }
            };
            self.apply(msg)?;
        }
    }

    /// Flushes shard `k`'s envelope buffer, with the same bounded-stall
    /// policy as a parallel pipeline edge — and names the stalled shard
    /// when the deadline passes.
    fn flush_shard(&mut self, k: usize) -> Result<(), EngineError> {
        let mut chunk = {
            let Some(running) = self.running.as_mut() else { return Ok(()) };
            if running.buf[k].is_empty() {
                return Ok(());
            }
            std::mem::take(&mut running.buf[k])
        };
        let deadline = Instant::now() + STALL_DEADLINE;
        loop {
            let sent = self.running_mut()?.in_tx[k].try_send(chunk);
            match sent {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => {
                    // The worker died; its Fatal (if any) is already in
                    // the merged stream — surface that over a bare
                    // disconnect when possible.
                    self.drain_ready()?;
                    let e = EngineError::ChannelDisconnected { stage: format!("shard {k}") };
                    return Err(self.fail(e));
                }
                Err(TrySendError::Full(back)) => {
                    if Instant::now() >= deadline {
                        let e = EngineError::ShutdownTimeout {
                            pending_workers: 1,
                            stalled: vec![format!("shard {k}")],
                        };
                        return Err(self.fail(e));
                    }
                    chunk = back;
                    // Make progress on the output side while we wait.
                    self.drain_ready()?;
                    std::thread::yield_now();
                }
            }
        }
    }

    fn flush_all(&mut self) -> Result<(), EngineError> {
        for k in 0..self.shards() {
            self.flush_shard(k)?;
        }
        Ok(())
    }

    /// Routes one data run to its owner shard under a fresh seq.
    fn send_run(
        &mut self,
        owner: usize,
        source: usize,
        run: Vec<Element>,
    ) -> Result<(), EngineError> {
        self.seq += 1;
        let seq = self.seq;
        let running = self.running_mut()?;
        running.buf[owner].push(ShardIn::Data {
            seq,
            broadcast: false,
            source,
            batch: ElementBatch::from_run(run),
        });
        if running.buf[owner].len() >= CHUNK {
            self.flush_shard(owner)?;
        }
        Ok(())
    }

    /// Broadcasts one control run (policy elements) to every shard
    /// under one seq.
    fn send_broadcast(&mut self, source: usize, run: Vec<Element>) -> Result<(), EngineError> {
        self.seq += 1;
        let seq = self.seq;
        let batch = ElementBatch::from_run(run);
        let shards = self.shards();
        {
            let running = self.running_mut()?;
            for k in 0..shards {
                running.buf[k].push(ShardIn::Data {
                    seq,
                    broadcast: true,
                    source,
                    batch: batch.clone(),
                });
            }
        }
        for k in 0..shards {
            if self.running_mut()?.buf[k].len() >= CHUNK {
                self.flush_shard(k)?;
            }
        }
        Ok(())
    }

    /// Partitions one analyzer output run into maximal same-owner
    /// sub-runs (preserving element order via seq order) and routes
    /// them. Policy elements flush the current sub-run and broadcast.
    fn route_staged(
        &mut self,
        source: usize,
        staged: &mut Vec<Element>,
    ) -> Result<(), EngineError> {
        let mut run: Vec<Element> = Vec::new();
        let mut owner = 0usize;
        for elem in staged.drain(..) {
            match &elem {
                Element::Tuple(t) => {
                    let o = self.partitioner.shard_of(t);
                    if o != owner && !run.is_empty() {
                        self.send_run(owner, source, std::mem::take(&mut run))?;
                    }
                    owner = o;
                    run.push(elem);
                }
                Element::Policy(_) => {
                    if !run.is_empty() {
                        self.send_run(owner, source, std::mem::take(&mut run))?;
                    }
                    self.send_broadcast(source, vec![elem])?;
                }
            }
        }
        if !run.is_empty() {
            self.send_run(owner, source, run)?;
        }
        Ok(())
    }

    /// Feeds one raw stream element: the canonical analyzers run here
    /// (exactly as in [`Executor::push`]), then the resolved elements
    /// are partitioned and shipped to their shards.
    ///
    /// # Errors
    ///
    /// Fails closed on the first shard, exchange, or routing error; all
    /// subsequent operations return the same error.
    pub fn push(&mut self, stream: StreamId, elem: StreamElement) -> Result<(), EngineError> {
        self.ensure_started()?;
        let Some(slots) = self.by_stream.get(&stream).cloned() else {
            return Ok(());
        };
        for idx in slots {
            let mut staged = std::mem::take(&mut self.staged);
            staged.clear();
            self.sources[idx].analyzer.push(elem.clone(), &mut staged);
            let routed = self.route_staged(idx, &mut staged);
            self.staged = staged;
            routed?;
        }
        self.drain_ready()
    }

    /// Feeds a whole recorded input (see [`Executor::push_all`]).
    ///
    /// # Errors
    ///
    /// Stops at and returns the first error, fail-closed.
    pub fn push_all(
        &mut self,
        items: impl IntoIterator<Item = (StreamId, StreamElement)>,
    ) -> Result<(), EngineError> {
        for (stream, elem) in items {
            self.push(stream, elem)?;
        }
        Ok(())
    }

    /// Broadcasts a marker and drains the merged stream until its echo
    /// applies: afterwards every delta the shards produced for already-
    /// routed input is reflected in the canonical state. Returns the
    /// barrier sections when the marker was a barrier.
    fn round_trip(&mut self, barrier: bool) -> Result<Option<BarrierSections>, EngineError> {
        self.marker_id += 1;
        let id = self.marker_id;
        self.seq += 1;
        let seq = self.seq;
        let shards = self.shards();
        {
            let running = self.running_mut()?;
            for k in 0..shards {
                running.buf[k].push(if barrier {
                    ShardIn::Barrier { seq, id }
                } else {
                    ShardIn::Sync { seq, id }
                });
            }
        }
        self.flush_all()?;
        loop {
            let received = {
                let Some(running) = self.running.as_ref() else {
                    return Err(EngineError::corrupt("shard", "shard runtime not started"));
                };
                running.merged_rx.recv_timeout(DRAIN_TIMEOUT)
            };
            let msg = match received {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => {
                    let e = EngineError::ShutdownTimeout {
                        pending_workers: 1,
                        stalled: vec!["exchange".to_string()],
                    };
                    return Err(self.fail(e));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let e = EngineError::ChannelDisconnected { stage: "exchange".to_string() };
                    return Err(self.fail(e));
                }
            };
            if let Some((echo_id, sections)) = self.apply(msg)? {
                if echo_id == id {
                    return Ok(sections);
                }
            }
        }
    }

    /// Brings the canonical state up to date with everything routed so
    /// far. No-op before the first push.
    fn sync(&mut self) -> Result<(), EngineError> {
        self.check_failure()?;
        if self.running.is_none() {
            return Ok(());
        }
        self.round_trip(false).map(|_| ())
    }

    /// Flushes the analyzers' end-of-stream output through the shards
    /// (see [`Executor::finish`]) and synchronizes.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error, fail-closed.
    pub fn finish(&mut self) -> Result<(), EngineError> {
        self.ensure_started()?;
        for idx in 0..self.sources.len() {
            let mut staged = std::mem::take(&mut self.staged);
            staged.clear();
            self.sources[idx].analyzer.flush(&mut staged);
            let routed = self.route_staged(idx, &mut staged);
            self.staged = staged;
            routed?;
        }
        self.sync()
    }

    /// Canonicalizes per-shard node snapshots into the snapshot the
    /// sequential executor would have written: tuple counters summed
    /// across shards, sp counters from shard 0 (every shard sees every
    /// sp) — except a delayed-propagation node's flush count, which
    /// comes from its canonical sink — and post-counter state merged by
    /// the operator's own [`Operator::merge_shard_state`].
    fn canonicalize_nodes(
        &mut self,
        mut per_shard: BarrierSections,
    ) -> Result<Vec<Vec<u8>>, EngineError> {
        per_shard.sort_by_key(|(k, _)| *k);
        if per_shard.len() != self.shards()
            || per_shard.iter().enumerate().any(|(i, (k, _))| i != *k)
        {
            let e = EngineError::ShardDivergence {
                stage: "barrier".to_string(),
                reason: format!(
                    "{} of {} shards reached the barrier",
                    per_shard.len(),
                    self.shards()
                ),
            };
            return Err(self.fail(e));
        }
        let mut out = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            let name = self.nodes[i].op.name().to_string();
            let sections: Vec<&Vec<u8>> = per_shard.iter().map(|(_, n)| &n[i]).collect();
            if sections.iter().all(|s| s.is_empty()) {
                out.push(Vec::new());
                continue;
            }
            if sections.iter().any(|s| s.len() < COUNTER_PREFIX) {
                let e =
                    EngineError::corrupt(&name, "shard snapshot shorter than its counter prefix");
                return Err(self.fail(e));
            }
            // Post-counter state: merged by the operator itself —
            // byte-equality for replicated policy state, a semantic
            // any-shard-flushed merge for delayed-propagation pending
            // policies (see [`Operator::merge_shard_state`]).
            let suffixes: Vec<&[u8]> = sections.iter().map(|s| &s[COUNTER_PREFIX..]).collect();
            let merged = self.nodes[i].op.merge_shard_state(&suffixes);
            let suffix = match merged {
                Ok(s) => s,
                Err(e) => return Err(self.fail(e)),
            };
            // Counter layout: [tuples_in, tuples_out, sps_in, sps_out,
            // tuples_shielded]. Tuple counters are partitioned (sum);
            // sps_in is replicated (shard 0 carries the canonical value,
            // including any restored base); sps_out is replicated too —
            // except for a delayed-propagation node, whose flush count
            // is shard-local: its canonical value is its sink's
            // deduplicated sp intake. A policy-transparent node on the
            // chain below a delaying node sees only those shard-local
            // flushes, so *both* its sp counters canonicalize to the
            // sink's intake (the chain forwards 1:1).
            let decoded: Vec<[u64; 5]> = sections.iter().map(|s| decode_prefix(s)).collect();
            let mut counters = decoded[0];
            for d in &decoded[1..] {
                counters[0] += d[0];
                counters[1] += d[1];
                counters[4] += d[4];
            }
            if let Some(j) = self.delayed_sinks[i] {
                counters[3] = Operator::stats(&self.sinks[j]).sps_in;
            } else if let Some(j) = self.chain_sinks[i] {
                let sps = Operator::stats(&self.sinks[j]).sps_in;
                counters[2] = sps;
                counters[3] = sps;
            }
            let mut bytes = Vec::with_capacity(sections[0].len());
            for c in counters {
                bytes.extend_from_slice(&c.to_be_bytes());
            }
            bytes.extend_from_slice(&suffix);
            out.push(bytes);
        }
        Ok(out)
    }

    /// Takes a consistent cut spanning every shard, byte-identical to
    /// the checkpoint a sequential executor would take at the same
    /// input position — so the cut restores at *any* shard count,
    /// including 1 (plain [`Executor::restore`]).
    ///
    /// # Errors
    ///
    /// Fails closed on shard divergence or a dead/stalled shard.
    pub fn checkpoint(&mut self, epoch: u64, input_pos: u64) -> Result<Checkpoint, EngineError> {
        self.ensure_started()?;
        // The coordinator *is* the cut point: nothing is in flight
        // between the analyzers and the barrier broadcast below.
        let mut analyzers = Vec::with_capacity(self.sources.len());
        for source in &self.sources {
            let mut buf = Vec::new();
            source.analyzer.snapshot(&mut buf);
            analyzers.push(buf);
        }
        let sections = self.round_trip(true)?.ok_or_else(|| EngineError::ShardDivergence {
            stage: "barrier".to_string(),
            reason: "barrier echo carried no sections".to_string(),
        })?;
        let nodes = self.canonicalize_nodes(sections)?;
        // All deltas before the barrier are applied (seq order), so the
        // canonical sinks are exactly at the cut.
        let mut sinks = Vec::with_capacity(self.sinks.len());
        for sink in &self.sinks {
            let mut buf = Vec::new();
            Operator::snapshot(sink, &mut buf);
            sinks.push(buf);
        }
        Ok(Checkpoint { epoch, input_pos, analyzers, nodes, sinks })
    }

    /// Restores from a canonical checkpoint — taken sequentially or at
    /// *any* shard count (re-shard on restore). Must be called before
    /// the first push; the shard replicas restore at spawn.
    ///
    /// # Errors
    ///
    /// Fails closed like [`Executor::restore`] on shape mismatch or a
    /// corrupt section; additionally refuses a restore after the shards
    /// have started.
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), EngineError> {
        if self.running.is_some() {
            return Err(EngineError::corrupt(
                "shard",
                "restore requires a freshly built sharded executor",
            ));
        }
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
        for (source, bytes) in self.sources.iter_mut().zip(&ckpt.analyzers) {
            source.analyzer.restore(bytes)?;
        }
        for (sink, bytes) in self.sinks.iter_mut().zip(&ckpt.sinks) {
            Operator::restore(sink, bytes)?;
        }
        for recorders in &mut self.canonical {
            recorders.clear();
        }
        // Flush dedup restarts empty: pre-restore deliveries live in the
        // checkpoint, and post-restore the first flush of any pending
        // policy is a fresh (wanted) delivery.
        for last in &mut self.last_flushed {
            *last = None;
        }
        self.restore_ckpt = Some(ckpt.clone());
        self.failure = None;
        Ok(())
    }

    /// The canonical collected sink for a query (synchronizes first; if
    /// synchronization fails the sink stays at its last good state and
    /// the failure is returned by every fallible operation).
    pub fn sink(&mut self, s: SinkRef) -> &Sink {
        let _ = self.sync();
        &self.sinks[s.index()]
    }

    /// Fail-closed degradation counters — identical to the sequential
    /// plan's: analyzers are canonical here, and shard-safe operators
    /// never degrade (load shedders are not shard-safe).
    pub fn degradation(&mut self) -> DegradationStats {
        let mut total = DegradationStats::new();
        for source in &self.sources {
            total.absorb(&source.analyzer.degradation());
        }
        total
    }

    /// Assembles one recorder plane through [`merge_recorders`]: the
    /// canonical analyzers' recorders, then the canonical per-node ones
    /// (synchronizes first).
    fn plane<R: Record>(&mut self) -> Sections<R> {
        let _ = self.sync();
        merge_recorders(
            self.sources.iter().map(|s| s.analyzer.recorders()),
            self.canonical.iter().enumerate(),
        )
    }

    /// The plan-wide audit trail, byte-identical to the sequential
    /// executor's over the same input.
    pub fn audit_trail(&mut self) -> AuditTrail {
        self.plane()
    }

    /// The plan-wide span sheet, byte-identical to the sequential
    /// executor's over the same input.
    pub fn span_sheet(&mut self) -> SpanSheet {
        self.plane()
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        if let Some(mut running) = self.running.take() {
            // Closing the input channels cascades: workers drain and
            // exit, their output channels close, the merge exits.
            running.in_tx.clear();
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            let workers = std::mem::take(&mut running.workers);
            if join_with_deadline(workers, deadline).is_ok() {
                if let Some(merger) = running.merger.take() {
                    let _ = merger.join();
                }
            }
            // On timeout the stragglers (and the merge blocked on them)
            // stay detached; they hold only their own channels.
        }
    }
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("shards", &self.shards())
            .field("started", &self.running.is_some())
            .field("failure", &self.failure)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::checkpoint::{CheckpointStore, MemStore};
    use crate::expr::{CmpOp, Expr};
    use crate::ops::select::Select;
    use crate::ops::shield::SecurityShield;
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

    /// Mixed tuple/sp workload over two streams, deterministic per seed.
    fn workload(seed: u64, n: u64) -> Vec<(StreamId, StreamElement)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for ts in 1..=n {
            let stream = StreamId(1 + (ts % 2) as u32);
            if rng.gen_bool(0.3) {
                let roles: RoleSet = (0..rng.gen_range(0..3)) // 0..2 roles
                    .map(|_| RoleId(rng.gen_range(0..5)))
                    .collect();
                out.push((
                    stream,
                    StreamElement::punctuation(SecurityPunctuation::grant_all(
                        roles,
                        Timestamp(ts),
                    )),
                ));
            }
            let id = rng.gen_range(0..5u64);
            out.push((
                stream,
                StreamElement::tuple(Tuple::new(
                    stream,
                    TupleId(id),
                    Timestamp(ts),
                    vec![Value::Int(id as i64), Value::Int(rng.gen_range(0..10))],
                )),
            ));
        }
        out
    }

    /// Two-stream shield plan (the paper's enforcement shape); both
    /// streams feed the same shape. The shield feeds its sink directly,
    /// as the sharded builder requires of delayed-propagation operators.
    fn pipeline_builder() -> (PlanBuilder, Vec<SinkRef>) {
        let mut b = PlanBuilder::new(catalog());
        let mut sinks = Vec::new();
        for sid in [1u32, 2] {
            let src = b.source(StreamId(sid), schema());
            let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
            sinks.push(b.sink(ss));
        }
        (b, sinks)
    }

    /// Two-stream select plan: exercises Select's delayed propagation
    /// (pending flush + exchange dedup) without a shield behind it.
    fn select_builder() -> (PlanBuilder, Vec<SinkRef>) {
        let mut b = PlanBuilder::new(catalog());
        let mut sinks = Vec::new();
        for sid in [1u32, 2] {
            let src = b.source(StreamId(sid), schema());
            let sel = b.add(
                Select::new(Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(2)))),
                src,
            );
            sinks.push(b.sink(sel));
        }
        (b, sinks)
    }

    fn telemetry_on(b: &mut PlanBuilder) {
        b.enable_telemetry(crate::telemetry::TelemetryConfig {
            audit_capacity: 4096,
            span_capacity: 4096,
            metrics: false,
        });
    }

    type BuildFn = fn() -> (PlanBuilder, Vec<SinkRef>);

    /// Sequential reference run: returns (per-sink elements, trail
    /// encoding, sheet encoding, checkpoint at end).
    #[allow(clippy::type_complexity)]
    fn sequential_reference(
        build: BuildFn,
        input: &[(StreamId, StreamElement)],
    ) -> (Vec<Vec<Element>>, Vec<u8>, Vec<u8>, Checkpoint) {
        let (mut b, sinks) = build();
        telemetry_on(&mut b);
        let mut exec = b.build();
        exec.push_all(input.iter().cloned()).unwrap();
        exec.finish().unwrap();
        let outs = sinks.iter().map(|&s| exec.sink(s).elements().to_vec()).collect::<Vec<_>>();
        let trail = exec.audit_trail().encode_to_vec();
        let sheet = exec.span_sheet().encode_to_vec();
        let ckpt = exec.checkpoint(7, input.len() as u64);
        (outs, trail, sheet, ckpt)
    }

    #[allow(clippy::type_complexity)]
    fn sharded_run(
        build: BuildFn,
        input: &[(StreamId, StreamElement)],
        shards: usize,
    ) -> (Vec<Vec<Element>>, Vec<u8>, Vec<u8>, Checkpoint) {
        let mut exec = ShardedExecutor::new(
            move || {
                let (mut b, _) = build();
                telemetry_on(&mut b);
                b
            },
            shards,
        )
        .unwrap();
        let (_, sinks) = build();
        exec.push_all(input.iter().cloned()).unwrap();
        exec.finish().unwrap();
        let ckpt = exec.checkpoint(7, input.len() as u64).unwrap();
        let outs = sinks.iter().map(|&s| exec.sink(s).elements().to_vec()).collect::<Vec<_>>();
        let trail = exec.audit_trail().encode_to_vec();
        let sheet = exec.span_sheet().encode_to_vec();
        (outs, trail, sheet, ckpt)
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        let p = Partitioner::new(4);
        for tid in 0..64u64 {
            let t = Tuple::new(StreamId(1), TupleId(tid), Timestamp(0), vec![]);
            let s1 = p.shard_of(&t);
            let s2 = p.shard_of(&t);
            assert_eq!(s1, s2);
            assert!(s1 < 4);
        }
        // Zero shards clamps to one.
        assert_eq!(Partitioner::new(0).shards(), 1);
    }

    #[test]
    fn sharded_matches_sequential_at_every_shard_count() {
        let input = workload(11, 400);
        let (seq_outs, seq_trail, seq_sheet, seq_ckpt) =
            sequential_reference(pipeline_builder, &input);
        for shards in [1usize, 2, 4, 8] {
            let (outs, trail, sheet, ckpt) = sharded_run(pipeline_builder, &input, shards);
            assert_eq!(outs, seq_outs, "released set diverged at {shards} shards");
            assert_eq!(trail, seq_trail, "audit trail diverged at {shards} shards");
            assert_eq!(sheet, seq_sheet, "span sheet diverged at {shards} shards");
            assert_eq!(ckpt, seq_ckpt, "checkpoint diverged at {shards} shards");
        }
    }

    #[test]
    fn select_flush_dedup_matches_sequential() {
        let input = workload(17, 400);
        let (seq_outs, seq_trail, seq_sheet, seq_ckpt) =
            sequential_reference(select_builder, &input);
        for shards in [2usize, 4, 8] {
            let (outs, trail, sheet, ckpt) = sharded_run(select_builder, &input, shards);
            assert_eq!(outs, seq_outs, "released set diverged at {shards} shards");
            assert_eq!(trail, seq_trail, "audit trail diverged at {shards} shards");
            assert_eq!(sheet, seq_sheet, "span sheet diverged at {shards} shards");
            assert_eq!(ckpt, seq_ckpt, "checkpoint diverged at {shards} shards");
        }
    }

    #[test]
    fn delayed_propagation_mid_plan_is_refused() {
        // select → shield: the select's shard-local flushes would feed
        // another operator — refused fail-closed.
        let err = ShardedExecutor::new(
            || {
                let mut b = PlanBuilder::new(catalog());
                let src = b.source(StreamId(1), schema());
                let sel = b.add(
                    Select::new(Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(2)))),
                    src,
                );
                let ss = b.add(SecurityShield::new(RoleSet::from([1])), sel);
                b.sink(ss);
                b
            },
            2,
        )
        .err()
        .unwrap();
        assert!(
            matches!(err, EngineError::ShardUnsupported { ref operator, .. } if operator == "select"),
            "{err}"
        );
    }

    /// Two-stream shield-over-chain plan: ψ flushes reach the sink
    /// through a projection (policy-transparent) — the query layer's
    /// natural shape (shield above scan, projection at the root).
    fn chain_builder() -> (PlanBuilder, Vec<SinkRef>) {
        let mut b = PlanBuilder::new(catalog());
        let mut sinks = Vec::new();
        for sid in [1u32, 2] {
            let src = b.source(StreamId(sid), schema());
            let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
            let proj = b.add(crate::ops::project::Project::new(vec![1, 0]), ss);
            sinks.push(b.sink(proj));
        }
        (b, sinks)
    }

    /// Shield → eager select → project: the full query shape. The eager
    /// select forwards the shield's shard-local flushes 1:1, so the
    /// whole chain stays deduplicable at the sink.
    fn eager_chain_builder() -> (PlanBuilder, Vec<SinkRef>) {
        let mut b = PlanBuilder::new(catalog());
        let mut sinks = Vec::new();
        for sid in [1u32, 2] {
            let src = b.source(StreamId(sid), schema());
            let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
            let sel = b.add(
                Select::eager(Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(2)))),
                ss,
            );
            let proj = b.add(crate::ops::project::Project::new(vec![0]), sel);
            sinks.push(b.sink(proj));
        }
        (b, sinks)
    }

    #[test]
    fn delayed_flush_through_transparent_chain_matches_sequential() {
        let input = workload(29, 400);
        let (seq_outs, seq_trail, seq_sheet, seq_ckpt) =
            sequential_reference(chain_builder, &input);
        for shards in [2usize, 4, 8] {
            let (outs, trail, sheet, ckpt) = sharded_run(chain_builder, &input, shards);
            assert_eq!(outs, seq_outs, "released set diverged at {shards} shards");
            assert_eq!(trail, seq_trail, "audit trail diverged at {shards} shards");
            assert_eq!(sheet, seq_sheet, "span sheet diverged at {shards} shards");
            assert_eq!(ckpt, seq_ckpt, "checkpoint diverged at {shards} shards");
        }
    }

    #[test]
    fn eager_select_chain_matches_sequential() {
        let input = workload(31, 400);
        let (seq_outs, seq_trail, seq_sheet, seq_ckpt) =
            sequential_reference(eager_chain_builder, &input);
        for shards in [2usize, 4, 8] {
            let (outs, trail, sheet, ckpt) = sharded_run(eager_chain_builder, &input, shards);
            assert_eq!(outs, seq_outs, "released set diverged at {shards} shards");
            assert_eq!(trail, seq_trail, "audit trail diverged at {shards} shards");
            assert_eq!(sheet, seq_sheet, "span sheet diverged at {shards} shards");
            assert_eq!(ckpt, seq_ckpt, "checkpoint diverged at {shards} shards");
        }
    }

    #[test]
    fn two_delaying_stages_on_one_path_refused() {
        // shield → delaying select: the select's pending policy would
        // diverge in value per shard — refused, named after the shield
        // (the upstream stage whose chain fails).
        let err = ShardedExecutor::new(
            || {
                let mut b = PlanBuilder::new(catalog());
                let src = b.source(StreamId(1), schema());
                let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
                let sel = b.add(
                    Select::new(Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(2)))),
                    ss,
                );
                b.sink(sel);
                b
            },
            2,
        )
        .err()
        .unwrap();
        assert!(
            matches!(err, EngineError::ShardUnsupported { ref operator, .. } if operator == "ss"),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_taken_at_n_restores_at_m() {
        let input = workload(23, 300);
        let (cut, rest) = input.split_at(150);

        // Uninterrupted sequential run = ground truth.
        let (want_outs, _, _, want_ckpt) = sequential_reference(pipeline_builder, &input);

        // Cut at 4 shards…
        let mut at4 = ShardedExecutor::new(
            || {
                let (mut b, _) = pipeline_builder();
                telemetry_on(&mut b);
                b
            },
            4,
        )
        .unwrap();
        at4.push_all(cut.iter().cloned()).unwrap();
        let mid = at4.checkpoint(1, cut.len() as u64).unwrap();
        drop(at4);

        // …restore at 2 shards (N → M), continue, compare end state.
        let mut store = MemStore::default();
        store.save(&mid).unwrap();
        let loaded = store.load_latest().unwrap();
        let mut at2 = ShardedExecutor::new(
            || {
                let (mut b, _) = pipeline_builder();
                telemetry_on(&mut b);
                b
            },
            2,
        )
        .unwrap();
        at2.restore(&loaded).unwrap();
        at2.push_all(rest.iter().cloned()).unwrap();
        at2.finish().unwrap();
        let end = at2.checkpoint(7, input.len() as u64).unwrap();

        // Analyzer + node sections must equal the uninterrupted run's
        // (sinks restart their element lists on restore by design, and
        // counters continue from the restored base, so compare nodes +
        // analyzers).
        assert_eq!(end.analyzers, want_ckpt.analyzers, "analyzer state diverged after re-shard");
        assert_eq!(end.nodes, want_ckpt.nodes, "node state diverged after re-shard");

        // Post-restore releases are exactly the sequential executor's
        // post-restore releases: replay the same protocol sequentially.
        let (mut sb, seq_sinks) = pipeline_builder();
        telemetry_on(&mut sb);
        let mut seq = sb.build();
        seq.restore(&loaded).unwrap();
        seq.push_all(rest.iter().cloned()).unwrap();
        seq.finish().unwrap();
        let (_, sharded_sinks) = pipeline_builder();
        let mut resumed = Vec::new();
        for &s in &sharded_sinks {
            resumed.push(at2.sink(s).elements().to_vec());
        }
        for (i, &s) in seq_sinks.iter().enumerate() {
            assert_eq!(
                resumed[i],
                seq.sink(s).elements().to_vec(),
                "post-restore releases diverged at sink {i}"
            );
        }
        // And the full released set is covered by the ground truth run.
        for (i, outs) in resumed.iter().enumerate() {
            for e in outs {
                assert!(
                    want_outs[i].contains(e),
                    "sharded resume released an element the uninterrupted run never did"
                );
            }
        }
    }

    #[test]
    fn sequential_checkpoint_restores_sharded_and_back() {
        let input = workload(5, 200);
        let (cut, rest) = input.split_at(100);

        // Take the cut sequentially.
        let (mut b, _) = pipeline_builder();
        telemetry_on(&mut b);
        let mut seq = b.build();
        seq.push_all(cut.iter().cloned()).unwrap();
        let mid = seq.checkpoint(1, cut.len() as u64);

        // Restore at 4 shards, run the rest, checkpoint.
        let mut sharded = ShardedExecutor::new(
            || {
                let (mut b, _) = pipeline_builder();
                telemetry_on(&mut b);
                b
            },
            4,
        )
        .unwrap();
        sharded.restore(&mid).unwrap();
        sharded.push_all(rest.iter().cloned()).unwrap();
        sharded.finish().unwrap();
        let sharded_end = sharded.checkpoint(2, input.len() as u64).unwrap();

        // Reference: continue the sequential executor over the rest.
        seq.push_all(rest.iter().cloned()).unwrap();
        seq.finish().unwrap();
        let seq_end = seq.checkpoint(2, input.len() as u64);
        assert_eq!(sharded_end, seq_end, "sequential → sharded restore diverged");
    }

    #[test]
    fn shard_unsafe_operator_is_refused() {
        let err = ShardedExecutor::new(
            || {
                let mut b = PlanBuilder::new(catalog());
                let src = b.source(StreamId(1), schema());
                let dup = b.add(crate::ops::dupelim::DupElim::new(vec![0], 1_000), src);
                b.sink(dup);
                b
            },
            2,
        )
        .err()
        .unwrap();
        assert!(
            matches!(err, EngineError::ShardUnsupported { ref operator, .. } if operator == "dupelim"),
            "{err}"
        );
    }

    #[test]
    fn worker_panic_fails_closed_with_operator_panic() {
        /// Shard-safe wrapper that panics on a marker tuple id.
        struct PanicOn(Select);
        impl Operator for PanicOn {
            fn name(&self) -> &str {
                "panic-on"
            }
            fn process_batch(
                &mut self,
                port: usize,
                batch: ElementBatch,
                out: &mut Emitter,
            ) -> Result<(), EngineError> {
                for elem in &batch {
                    if let Element::Tuple(t) = elem {
                        assert!(t.tid.raw() != 3, "injected shard failure");
                    }
                }
                self.0.process_batch(port, batch, out)
            }
            fn stats(&self) -> &crate::stats::OperatorStats {
                self.0.stats()
            }
            fn snapshot(&self, buf: &mut Vec<u8>) {
                self.0.snapshot(buf);
            }
            fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
                self.0.restore(bytes)
            }
            fn shard_safe(&self) -> bool {
                true
            }
            fn delays_sps(&self) -> bool {
                self.0.delays_sps()
            }
            fn merge_shard_state(&self, parts: &[&[u8]]) -> Result<Vec<u8>, EngineError> {
                self.0.merge_shard_state(parts)
            }
        }

        let mut exec = ShardedExecutor::new(
            || {
                let mut b = PlanBuilder::new(catalog());
                let src = b.source(StreamId(1), schema());
                let p = b.add(
                    PanicOn(Select::new(Expr::cmp(
                        CmpOp::Ge,
                        Expr::Attr(1),
                        Expr::Const(Value::Int(0)),
                    ))),
                    src,
                );
                b.sink(p);
                b
            },
            2,
        )
        .unwrap();
        exec.push(
            StreamId(1),
            StreamElement::punctuation(SecurityPunctuation::grant_all(
                RoleSet::from([1]),
                Timestamp(1),
            )),
        )
        .unwrap();
        let mut saw_err = None;
        for tid in 0..16u64 {
            let elem = StreamElement::tuple(Tuple::new(
                StreamId(1),
                TupleId(tid % 5),
                Timestamp(tid + 2),
                vec![Value::Int((tid % 5) as i64), Value::Int(1)],
            ));
            if let Err(e) = exec.push(StreamId(1), elem).and_then(|()| exec.finish()) {
                saw_err = Some(e);
                break;
            }
        }
        let e = saw_err.expect("panicking shard surfaces an error");
        assert!(
            matches!(e, EngineError::OperatorPanic { .. })
                || matches!(e, EngineError::ChannelDisconnected { .. }),
            "unexpected error: {e}"
        );
        // Everything after the failure keeps failing closed.
        assert!(exec.finish().is_err());
    }
}
