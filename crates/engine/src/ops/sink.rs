//! Result sink: terminates a query plan branch and records its output.

use std::sync::Arc;

use sp_core::Tuple;

use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{unary_port, Emitter, Operator};
use crate::stats::OperatorStats;

/// Collects the elements delivered to one registered query.
#[derive(Debug, Default)]
pub struct Sink {
    elements: Vec<Element>,
    stats: OperatorStats,
}

impl Sink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything delivered, in order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Only the delivered tuples, in order.
    pub fn tuples(&self) -> impl Iterator<Item = &Arc<Tuple>> {
        self.elements.iter().filter_map(Element::as_tuple)
    }

    /// Only the delivered policies, in order.
    pub fn policies(&self) -> impl Iterator<Item = &Arc<SegmentPolicy>> {
        self.elements.iter().filter_map(Element::as_policy)
    }

    /// Number of delivered tuples.
    #[must_use]
    pub fn tuple_count(&self) -> usize {
        self.tuples().count()
    }

    /// Clears collected results (bench warm-up).
    pub fn clear(&mut self) {
        self.elements.clear();
    }

    /// Takes everything delivered since the last take, leaving the sink
    /// empty (and its counters intact). Shard replicas use this to ship
    /// output increments to the exchange merge without re-sending
    /// history.
    pub(crate) fn take_elements(&mut self) -> Vec<Element> {
        std::mem::take(&mut self.elements)
    }
}

impl Operator for Sink {
    fn name(&self) -> &str {
        "sink"
    }

    /// One counting pass, one reservation, then an extend.
    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        _out: &mut Emitter,
    ) -> Result<(), EngineError> {
        unary_port("sink", port)?;
        let mut tuples = 0u64;
        for elem in &batch {
            match elem {
                Element::Tuple(_) => tuples += 1,
                Element::Policy(_) => self.stats.sps_in += 1,
            }
        }
        self.stats.tuples_in += tuples;
        self.elements.reserve(batch.len());
        self.elements.extend(batch);
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    fn state_mem_bytes(&self) -> usize {
        self.elements
            .iter()
            .map(|e| match e {
                Element::Tuple(t) => t.mem_bytes(),
                Element::Policy(p) => p.mem_bytes(),
            })
            .sum()
    }

    /// Snapshot: delivery counters only. Collected elements are *egressed
    /// output* — already released past the crash boundary — not operator
    /// state, so a checkpoint stays O(window state) instead of growing
    /// with the whole output history. After a restore the sink collects
    /// only post-restore releases; replayed segments may re-deliver, which
    /// keeps the released set a subset of the uninterrupted run (never a
    /// superset).
    fn snapshot(&self, buf: &mut Vec<u8>) {
        self.stats.encode_counters(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        crate::checkpoint::restore("sink", bytes, |buf| self.stats.decode_counters(buf))?;
        self.elements.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::OperatorExt;
    use sp_core::{Policy, RoleSet, StreamId, Timestamp, TupleId};

    #[test]
    fn collects_everything() {
        let mut sink = Sink::new();
        let mut em = Emitter::new();
        sink.process(
            0,
            Element::tuple(Tuple::new(StreamId(0), TupleId(1), Timestamp(0), vec![])),
            &mut em,
        )
        .unwrap();
        sink.process(
            0,
            Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
                RoleSet::from([1]),
                Timestamp(1),
            ))),
            &mut em,
        )
        .unwrap();
        assert!(sink
            .process(
                1,
                Element::tuple(Tuple::new(StreamId(0), TupleId(9), Timestamp(2), vec![])),
                &mut em
            )
            .is_err());
        assert_eq!(sink.elements().len(), 2);
        assert_eq!(sink.tuple_count(), 1);
        assert_eq!(sink.policies().count(), 1);
        assert!(sink.state_mem_bytes() > 0);
        assert_eq!(sink.stats().tuples_in, 1);
        sink.clear();
        assert_eq!(sink.elements().len(), 0);
        assert_eq!(sink.name(), "sink");
    }
}
