//! The security-aware selection operator `σ_c(T)` (Table I).
//!
//! Selection drops tuples failing the condition and **delays sp
//! propagation** until at least one tuple governed by the policy passes; if
//! every tuple of a segment is filtered out, the segment's punctuations are
//! discarded too (§IV-B) — downstream operators never pay for policies with
//! no surviving tuples.
//!
//! [`Select::eager`] builds the selection *without* the delay: every
//! policy is forwarded immediately, making the operator
//! policy-transparent. Eager selections trade the §IV-B traffic saving
//! for shard-compatibility — they may sit anywhere in a key-partitioned
//! plan, while a delaying selection must reach its sink through
//! policy-transparent operators only (see
//! [`Operator::policy_transparent`]).

use std::sync::Arc;

use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::expr::Expr;
use crate::operator::{unary_port, Emitter, Operator};
use crate::stats::OperatorStats;

/// The selection operator.
#[derive(Debug)]
pub struct Select {
    condition: Expr,
    /// Forward policies immediately instead of delaying (§IV-B off).
    eager: bool,
    /// The segment policy awaiting its first passing tuple.
    pending_policy: Option<Arc<SegmentPolicy>>,
    stats: OperatorStats,
}

impl Select {
    /// A selection with the given predicate, practising delayed sp
    /// propagation (§IV-B).
    #[must_use]
    pub fn new(condition: Expr) -> Self {
        Self { condition, eager: false, pending_policy: None, stats: OperatorStats::new() }
    }

    /// A selection that forwards every policy immediately instead of
    /// delaying it until the segment's first survivor — see the module
    /// docs for the tradeoff.
    #[must_use]
    pub fn eager(condition: Expr) -> Self {
        Self { condition, eager: true, pending_policy: None, stats: OperatorStats::new() }
    }

    /// Whether this selection forwards policies eagerly.
    #[must_use]
    pub fn is_eager(&self) -> bool {
        self.eager
    }

    /// The selection condition.
    #[must_use]
    pub fn condition(&self) -> &Expr {
        &self.condition
    }

    /// Buffers one arriving segment policy (delayed propagation core),
    /// or forwards it immediately in eager mode.
    fn absorb_policy(&mut self, seg: Arc<SegmentPolicy>, out: &mut Emitter) {
        self.stats.sps_in += 1;
        if self.eager {
            self.stats.sps_out += 1;
            out.push(Element::Policy(seg));
            return;
        }
        // The previous pending policy (if any) saw no passing tuple:
        // it is discarded, exactly the paper's delayed propagation.
        self.pending_policy = Some(seg);
    }

    /// Tests one tuple, flushing the pending policy before the first
    /// survivor of its segment. The caller emits a survivor: by move when
    /// it owns the run, by clone when it was lent it.
    fn keeps(&mut self, tuple: &sp_core::Tuple, out: &mut Emitter) -> bool {
        self.stats.tuples_in += 1;
        let keep = self.condition.test(tuple);
        if keep {
            if let Some(policy) = self.pending_policy.take() {
                self.stats.sps_out += 1;
                out.push(Element::Policy(policy));
            }
            self.stats.tuples_out += 1;
        }
        keep
    }
}

impl Operator for Select {
    fn name(&self) -> &str {
        "select"
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        unary_port("select", port)?;
        for elem in batch {
            match elem {
                Element::Tuple(tuple) => {
                    if self.keeps(&tuple, out) {
                        out.push(Element::Tuple(tuple));
                    }
                }
                Element::Policy(seg) => self.absorb_policy(seg, out),
            }
        }
        Ok(())
    }

    /// A lent run costs an `Arc` increment per *surviving* tuple only.
    fn process_run(
        &mut self,
        port: usize,
        run: &[Element],
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        unary_port("select", port)?;
        for elem in run {
            match elem {
                Element::Tuple(tuple) => {
                    if self.keeps(tuple, out) {
                        out.push(elem.clone());
                    }
                }
                Element::Policy(seg) => self.absorb_policy(seg.clone(), out),
            }
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    /// Selection is per-tuple: safe to replicate across shards. Its
    /// delayed sp propagation is tuple-dependent, though, so the sharded
    /// builder additionally requires a delaying selection to reach its
    /// sink through policy-transparent operators only (see
    /// [`Operator::delays_sps`]). Eager selections carry no such
    /// restriction.
    fn shard_safe(&self) -> bool {
        true
    }

    /// The pending policy is flushed by the first *surviving* tuple — a
    /// shard-local event under key partitioning. Eager selections never
    /// hold a pending policy.
    fn delays_sps(&self) -> bool {
        !self.eager
    }

    /// An eager selection forwards every policy immediately, exactly
    /// once, unchanged.
    fn policy_transparent(&self) -> bool {
        self.eager
    }

    /// Suffix layout: one pending optional segment. Canonically flushed
    /// when any shard flushed.
    fn merge_shard_state(&self, parts: &[&[u8]]) -> Result<Vec<u8>, EngineError> {
        crate::checkpoint::merge_delayed_suffix("select", parts, 0)
    }

    fn state_mem_bytes(&self) -> usize {
        self.pending_policy.as_ref().map_or(0, |p| p.mem_bytes())
    }

    /// Snapshot: counters plus the policy awaiting its first passing tuple.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        self.stats.encode_counters(buf);
        crate::checkpoint::encode_opt_segment(self.pending_policy.as_ref(), buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        crate::checkpoint::restore("select", bytes, |buf| {
            self.stats.decode_counters(buf)?;
            self.pending_policy = crate::checkpoint::decode_opt_segment(buf)?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::expr::CmpOp;
    use crate::operator::run_unary;
    use sp_core::{Policy, RoleSet, StreamId, Timestamp, Tuple, TupleId, Value};

    fn tup(tid: u64, v: i64) -> Element {
        Element::tuple(Tuple::new(StreamId(0), TupleId(tid), Timestamp(tid), vec![Value::Int(v)]))
    }

    fn pol(ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            RoleSet::from([1]),
            Timestamp(ts),
        )))
    }

    fn gt(limit: i64) -> Expr {
        Expr::cmp(CmpOp::Gt, Expr::Attr(0), Expr::Const(Value::Int(limit)))
    }

    #[test]
    fn filters_tuples() {
        let mut sel = Select::new(gt(5));
        let out = run_unary(&mut sel, vec![tup(1, 3), tup(2, 7), tup(3, 9)]);
        let ids: Vec<u64> = out.iter().filter_map(|e| e.as_tuple()).map(|t| t.tid.raw()).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(sel.stats().tuples_in, 3);
        assert_eq!(sel.stats().tuples_out, 2);
    }

    #[test]
    fn delays_sp_until_first_passing_tuple() {
        let mut sel = Select::new(gt(5));
        let out = run_unary(&mut sel, vec![pol(0), tup(1, 3), tup(2, 7)]);
        // Policy must appear immediately before tuple 2, not before tuple 1.
        assert_eq!(out.len(), 2);
        assert!(out[0].as_policy().is_some());
        assert_eq!(out[1].as_tuple().unwrap().tid.raw(), 2);
    }

    #[test]
    fn discards_sp_when_whole_segment_filtered() {
        let mut sel = Select::new(gt(5));
        let out = run_unary(&mut sel, vec![pol(0), tup(1, 1), pol(10), tup(2, 9)]);
        // Only the second policy survives.
        let policies: Vec<_> = out.iter().filter_map(|e| e.as_policy()).collect();
        assert_eq!(policies.len(), 1);
        assert_eq!(policies[0].ts, Timestamp(10));
        assert_eq!(sel.stats().sps_in, 2);
        assert_eq!(sel.stats().sps_out, 1);
    }

    #[test]
    fn eager_select_forwards_policies_immediately() {
        let mut sel = Select::eager(gt(5));
        assert!(sel.is_eager());
        assert!(!sel.delays_sps());
        assert!(sel.policy_transparent());
        let out = run_unary(&mut sel, vec![pol(0), tup(1, 3), pol(10), tup(2, 7)]);
        // Both policies pass through at their arrival positions, even
        // though segment 0 has no surviving tuple.
        assert!(out[0].as_policy().is_some());
        assert!(out[1].as_policy().is_some());
        assert_eq!(out[2].as_tuple().unwrap().tid.raw(), 2);
        assert_eq!(sel.stats().sps_in, 2);
        assert_eq!(sel.stats().sps_out, 2);
        assert_eq!(sel.state_mem_bytes(), 0, "eager mode never buffers a policy");
    }

    #[test]
    fn delaying_select_is_not_policy_transparent() {
        let sel = Select::new(gt(5));
        assert!(sel.delays_sps());
        assert!(!sel.policy_transparent());
        assert!(!sel.is_eager());
    }

    #[test]
    fn policy_emitted_once_per_segment() {
        let mut sel = Select::new(gt(0));
        let out = run_unary(&mut sel, vec![pol(0), tup(1, 1), tup(2, 2)]);
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 1);
        assert_eq!(sel.name(), "select");
        assert_eq!(sel.state_mem_bytes(), 0, "pending policy was flushed");
    }
}
