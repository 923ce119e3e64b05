//! The stream operator abstraction and output collector.

use std::any::Any;

use crate::batch::ElementBatch;
use crate::element::Element;
use crate::error::EngineError;
use crate::stats::OperatorStats;

/// Collects the elements an operator emits during one `process_batch` or
/// `process_run` call; the executor then routes them to downstream
/// operators.
#[derive(Debug, Default)]
pub struct Emitter {
    buf: Vec<Element>,
}

impl Emitter {
    /// An empty emitter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty emitter with room for `capacity` elements, so hot loops
    /// reusing one emitter avoid regrowing it per drain.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity) }
    }

    /// Ensures space for at least `additional` more elements (batch fast
    /// paths reserve once per run instead of growing per element).
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Emits one element downstream.
    pub fn push(&mut self, elem: Element) {
        self.buf.push(elem);
    }

    /// Drains everything emitted so far.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Element> {
        self.buf.drain(..)
    }

    /// Takes the buffer (test helper).
    #[must_use]
    pub fn take(&mut self) -> Vec<Element> {
        std::mem::take(&mut self.buf)
    }

    /// Number of pending elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A pipelined stream operator.
///
/// Operators are single-threaded state machines: the executor feeds them
/// runs of elements — by move through [`Operator::process_batch`], the one
/// processing method an operator must implement, or by loan through
/// [`Operator::process_run`] — together with the input port they arrived
/// on (0 for unary operators, 0/1 for joins). A single element is a run of
/// one ([`OperatorExt::process`]). Operators own their cost counters so
/// the evaluation harness can read per-operator breakdowns. An operator is
/// `Any`, so the executor can recognize the Security Shields that consume
/// one edge and judge them as one group (§VI-C).
pub trait Operator: Any + Send {
    /// Operator name for plan display ("ss", "select", "sajoin", ...).
    fn name(&self) -> &str;

    /// Number of input ports (1 for unary, 2 for binary operators).
    fn arity(&self) -> usize {
        1
    }

    /// Processes a run of elements that arrived on one port, emitting any
    /// outputs.
    ///
    /// Stream data is untrusted: implementations must report malformed
    /// input through [`EngineError`] rather than panicking, so a hostile
    /// stream can fail one query without taking the engine down.
    /// Operators do not time themselves: the executor reads the clock
    /// around this call, once per batch, and only while metrics are on.
    ///
    /// **Cut invariance**: where a run is cut must not be observable.
    /// Any partition of an input sequence into batches — singletons, the
    /// kind-homogeneous runs of the parallel runner, the mixed-kind
    /// runs of the sequential executor, or the arbitrary cuts the
    /// differential tests drive — gives the same emitted elements in
    /// the same order, the same logical counters, the same audit records
    /// and the same snapshot bytes. A fast path taken for one run shape
    /// (the Security Shield releasing or suppressing a whole tuple run
    /// under one cached verdict) has to be indistinguishable from the
    /// element-by-element walk of the same run. Only SAJoin's wall-clock
    /// cost buckets (Fig. 9), which are excluded from canonical
    /// encodings, may differ.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`]; elements after the failing
    /// one are not processed (fail-closed, matching the executor's
    /// discard-on-error semantics).
    fn process_batch(
        &mut self,
        port: usize,
        batch: ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError>;

    /// Processes a run the executor only *lends*: a multi-consumer edge
    /// shows every consumer but the last the same run instead of cloning
    /// it per consumer. The default clones the run into
    /// [`Operator::process_batch`]; operators that drop much of what they
    /// see (the Security Shield, select) override it so only a released /
    /// surviving tuple costs an `Arc` increment. Same cut invariance and
    /// errors as `process_batch`: a lent run and the same run moved are
    /// indistinguishable.
    fn process_run(
        &mut self,
        port: usize,
        run: &[Element],
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        self.process_batch(port, ElementBatch::from_run(run.to_vec()), out)
    }

    /// Logical counters (plus SAJoin's Fig. 9 cost buckets).
    fn stats(&self) -> &OperatorStats;

    /// Fail-closed degradation counters this operator contributes, if it
    /// participates in degradation (load shedders report shed counts and
    /// ladder state here). The executor sums these into the plan-wide
    /// [`crate::stats::DegradationStats`]; operators that never degrade
    /// use the default `None`.
    fn degradation(&self) -> Option<crate::stats::DegradationStats> {
        None
    }

    /// Whether this operator may be replicated across key-partitioned
    /// shards (each replica sees only its shard's tuples, but *every*
    /// security punctuation). True only when the operator's output and
    /// state depend on each tuple independently plus broadcast policy
    /// state — per-tuple filters, projections, and the Security Shield
    /// qualify. Whole-stream operators (joins, dup-elim, aggregation,
    /// load shedders) must keep the default `false`: partitioning would
    /// silently change their results, so the sharded builder refuses
    /// them fail-closed.
    fn shard_safe(&self) -> bool {
        false
    }

    /// Whether this operator practises *delayed sp propagation*: it holds
    /// the latest segment policy pending and flushes it downstream only
    /// before the first surviving tuple of the segment (§IV-B). Under key
    /// partitioning the flush moment is tuple-dependent and therefore
    /// shard-local, so the sharded builder requires such an operator to
    /// reach its sink through [`Operator::policy_transparent`] operators
    /// only (sole ownership at every step) — the exchange coordinator
    /// then deduplicates the per-shard flushes (the first flush in merged
    /// seq order lands exactly at the sequential position) and
    /// reconstructs the canonical `sps_out` from the canonical sink's
    /// intake. Two delaying operators on one path are refused: the
    /// downstream one's pending policy diverges in *value* per shard.
    fn delays_sps(&self) -> bool {
        false
    }

    /// Whether this operator forwards every arriving segment policy
    /// downstream immediately, exactly once, and deterministically
    /// (possibly transformed — projection remaps attribute grants to
    /// output positions). Such operators may sit *between* a
    /// delayed-propagation operator and its sink under key-partitioned
    /// sharding: per-shard duplicate flushes stay byte-equal through
    /// them, so the exchange's sink-side dedup still recognizes copies,
    /// and their canonical sp counters equal the sink's deduplicated
    /// intake. Operators that hold, drop, reorder, or multiply policies
    /// keep the default `false`.
    fn policy_transparent(&self) -> bool {
        false
    }

    /// Merges the post-counter state suffixes of this operator's shard
    /// replicas into the canonical (sequential-equivalent) suffix for a
    /// shard-spanning checkpoint. `parts` holds one suffix per shard (the
    /// snapshot bytes after the logical-counter prefix), aligned on the
    /// same barrier.
    ///
    /// The default demands byte-equality — correct for every operator
    /// whose state is a pure function of the broadcast policy sequence.
    /// Operators with tuple-dependent state (a pending policy awaiting its
    /// first survivor) override this with a semantic merge.
    ///
    /// # Errors
    ///
    /// Fails closed with [`EngineError::ShardDivergence`] when the
    /// replicas disagree in a way the operator cannot reconcile.
    fn merge_shard_state(&self, parts: &[&[u8]]) -> Result<Vec<u8>, EngineError> {
        let Some((first, rest)) = parts.split_first() else {
            return Ok(Vec::new());
        };
        if rest.iter().any(|p| p != first) {
            return Err(EngineError::ShardDivergence {
                stage: self.name().into(),
                reason: "shard replicas hold different operator state at an aligned barrier".into(),
            });
        }
        Ok(first.to_vec())
    }

    /// Approximate heap footprint of the operator state in bytes.
    fn state_mem_bytes(&self) -> usize {
        0
    }

    /// Replaces the operator's security predicate, if it has one. Returns
    /// false for operators without a predicate (the default).
    ///
    /// This implements the paper's §IX future-work item — "runtime changes
    /// in subjects' role assignments": when a subject's roles change, the
    /// shields of its registered queries are updated in place instead of
    /// tearing the plan down.
    fn update_predicate(&mut self, _roles: &sp_core::RoleSet) -> bool {
        false
    }

    /// Arms the operator's security flight recorder with the given ring
    /// capacity. Returns false (the default) for operators that make no
    /// access-control decisions and therefore record nothing.
    fn set_audit(&mut self, _capacity: usize) -> bool {
        false
    }

    /// Arms the operator's sp-trace span recorder — and, with it, its
    /// enforcement-lag tracker — with the given ring capacity. Returns
    /// false (the default) for operators that record no spans.
    fn set_spans(&mut self, _capacity: usize) -> bool {
        false
    }

    /// The operator's [`Recorders`](crate::telemetry::Recorders) — audit
    /// ring, span ring, lag tracker — when it is one that records
    /// (`None`, the default, otherwise). A ring that was never armed is
    /// there but disabled.
    ///
    /// Recorder state is observability, not operator state: it is
    /// excluded from [`Operator::snapshot`] and cleared by
    /// [`Operator::restore`], so deterministic replay after a crash
    /// repopulates it without duplicating pre-crash records.
    fn recorders(&self) -> Option<&crate::telemetry::Recorders> {
        None
    }

    /// Serializes the operator's mutable state for an epoch checkpoint.
    ///
    /// The encoding must be **canonical**: two operators in the same state
    /// produce identical bytes (maps are written in sorted order, derived
    /// caches are excluded), so checkpoints can be compared byte-wise
    /// across runs and runtimes. Configuration (predicates, windows,
    /// roles) is *not* serialized — a restore target is rebuilt from the
    /// same plan, so only runtime state travels. SAJoin's wall-clock
    /// cost buckets are excluded for the same reason; logical counters
    /// are included via
    /// [`OperatorStats::encode_counters`](crate::stats::OperatorStats::encode_counters).
    ///
    /// Stateless operators use the default empty snapshot.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        let _ = buf;
    }

    /// Restores state from bytes produced by [`Operator::snapshot`] on an
    /// identically-configured operator.
    ///
    /// Restore is fail-closed: on any decode error the operator must
    /// return [`EngineError::CheckpointCorrupt`] and the caller must
    /// discard the whole executor rather than run with partial state.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot is truncated or malformed.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(EngineError::corrupt(self.name(), "stateless operator given non-empty snapshot"))
        }
    }
}

/// The one-element case of [`Operator::process_batch`], for tests, figure
/// harnesses and baselines that step an operator element by element. A
/// blanket impl, so no operator can give it a body of its own.
pub trait OperatorExt: Operator {
    /// Processes one element as a run of one.
    ///
    /// # Errors
    ///
    /// As [`Operator::process_batch`].
    fn process(
        &mut self,
        port: usize,
        elem: Element,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        self.process_batch(port, ElementBatch::single(elem), out)
    }
}

impl<O: Operator + ?Sized> OperatorExt for O {}

/// The port check of a unary operator: only port 0 exists.
pub(crate) fn unary_port(operator: &str, port: usize) -> Result<(), EngineError> {
    if port == 0 {
        Ok(())
    } else {
        Err(EngineError::BadPort { operator: operator.into(), port, arity: 1 })
    }
}

/// Test/bench helper: runs a sequence of elements through a single operator
/// and returns everything it emits.
///
/// # Panics
///
/// Panics if the operator reports an [`EngineError`]; harness code wants
/// the loud failure. Production paths go through the executor, which
/// propagates instead.
#[allow(clippy::expect_used)] // harness helper: a loud failure is the point
pub fn run_unary(op: &mut dyn Operator, input: impl IntoIterator<Item = Element>) -> Vec<Element> {
    let mut out = Emitter::new();
    let mut collected = Vec::new();
    for elem in input {
        op.process(0, elem, &mut out).expect("operator failed in run_unary");
        collected.extend(out.drain());
    }
    collected
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{StreamId, Timestamp, Tuple, TupleId};

    struct Echo {
        stats: OperatorStats,
    }

    impl Operator for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn process_batch(
            &mut self,
            _port: usize,
            batch: ElementBatch,
            out: &mut Emitter,
        ) -> Result<(), EngineError> {
            for elem in batch {
                self.stats.tuples_in += 1;
                out.push(elem);
            }
            Ok(())
        }
        fn stats(&self) -> &OperatorStats {
            &self.stats
        }
    }

    #[test]
    fn emitter_collects_and_drains() {
        let mut e = Emitter::new();
        assert!(e.is_empty());
        e.push(Element::tuple(Tuple::new(StreamId(0), TupleId(1), Timestamp(0), vec![])));
        assert_eq!(e.len(), 1);
        let taken = e.take();
        assert_eq!(taken.len(), 1);
        assert!(e.is_empty());
    }

    #[test]
    fn run_unary_round_trips() {
        let mut op = Echo { stats: OperatorStats::new() };
        let input = vec![
            Element::tuple(Tuple::new(StreamId(0), TupleId(1), Timestamp(0), vec![])),
            Element::tuple(Tuple::new(StreamId(0), TupleId(2), Timestamp(1), vec![])),
        ];
        let out = run_unary(&mut op, input.clone());
        assert_eq!(out, input);
        assert_eq!(op.stats().tuples_in, 2);
        assert_eq!(op.arity(), 1);
        assert_eq!(op.state_mem_bytes(), 0);
    }
}
