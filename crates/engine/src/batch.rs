//! Segment-run batches: the unit of dataflow between operators.
//!
//! The paper's algebra operates on *s-punctuated segments* — runs of
//! tuples governed by one sp-batch. The executor exploits that shape: it
//! moves [`ElementBatch`]es instead of single [`Element`]s, amortizing
//! queue traffic, dispatch, timing, and telemetry sampling over whole
//! runs.
//!
//! Every operator is cut-invariant (see [`ElementBatch`]), so the
//! executor's batches hold tuples and segment policies alike: on the
//! run-major path (a binary-free plan with batching on — every session) a
//! batch is all one edge carries between drains, a whole frame's worth of
//! segments. Batches are kind-homogeneous only where a consumer observes
//! the kinds of a batch: the parallel runner ([`coalesce_runs`]) classes
//! a whole batch as control (policies) or data (tuples) on its bounded
//! channels.
//!
//! The representation is a two-variant inline/heap enum rather than an
//! external small-vector type (the workspace vendors no `smallvec`): a
//! batch of one — a lone policy, and every batch of the tuple-at-a-time
//! reference mode and of a binary plan's multi-consumer edges — stores
//! its element inline with no heap allocation; the runs of the
//! production path spill to a `Vec`.

use crate::element::Element;

/// A contiguous run of elements travelling an edge together.
///
/// Cut invariance: where a run is cut into batches is not observable —
/// any partition of an input sequence fed through
/// [`Operator::process_batch`](crate::operator::Operator::process_batch)
/// gives the same emitted elements, logical counters, audit records and
/// snapshot bytes. Only wall-clock cost buckets (excluded from canonical
/// encodings) may differ.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementBatch {
    inner: Inner,
}

#[derive(Debug, Clone, PartialEq)]
enum Inner {
    /// A batch of one, stored inline — no heap allocation in
    /// tuple-at-a-time mode or for lone policy elements.
    One(Element),
    /// A multi-element run.
    Many(Vec<Element>),
}

/// Initial spill capacity when a singleton batch grows into a run.
const SPILL_CAPACITY: usize = 8;

impl ElementBatch {
    /// A batch holding one element (inline, no allocation).
    #[must_use]
    pub fn single(elem: Element) -> Self {
        Self { inner: Inner::One(elem) }
    }

    /// A batch from a pre-collected run.
    ///
    /// # Panics
    ///
    /// Debug-asserts the run is non-empty.
    #[must_use]
    pub fn from_run(run: Vec<Element>) -> Self {
        debug_assert!(!run.is_empty(), "empty batches are never routed");
        Self { inner: Inner::Many(run) }
    }

    /// True when `elem` is of the same kind as the batch's last element:
    /// the cut rule of [`coalesce_runs`].
    #[must_use]
    pub fn accepts(&self, elem: &Element) -> bool {
        match &self.inner {
            Inner::One(e) => e.is_tuple() == elem.is_tuple(),
            Inner::Many(v) => v.last().is_none_or(|e| e.is_tuple() == elem.is_tuple()),
        }
    }

    /// Appends an element of either kind, spilling an inline singleton to
    /// the heap.
    pub fn push(&mut self, elem: Element) {
        match &mut self.inner {
            Inner::Many(v) => v.push(elem),
            Inner::One(_) => {
                let Inner::One(first) = std::mem::replace(&mut self.inner, Inner::Many(Vec::new()))
                else {
                    unreachable!()
                };
                let Inner::Many(v) = &mut self.inner else { unreachable!() };
                v.reserve(SPILL_CAPACITY);
                v.push(first);
                v.push(elem);
            }
        }
    }

    /// Number of elements in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::One(_) => 1,
            Inner::Many(v) => v.len(),
        }
    }

    /// True when the batch holds nothing (only possible for a drained
    /// `Many`; routed batches are never empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match &self.inner {
            Inner::One(_) => false,
            Inner::Many(v) => v.is_empty(),
        }
    }

    /// The elements as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Element] {
        match &self.inner {
            Inner::One(e) => std::slice::from_ref(e),
            Inner::Many(v) => v.as_slice(),
        }
    }

    /// Borrowing iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, Element> {
        self.as_slice().iter()
    }

    /// True when the batch carries control traffic (segment policies).
    /// Classed channels admit control batches unconditionally; a mixed
    /// batch (never produced by [`coalesce_runs`]) classes as control if
    /// any element is a policy, so sps can never be stalled by a data bound.
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.iter().any(|e| !e.is_tuple())
    }
}

impl IntoIterator for ElementBatch {
    type Item = Element;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        match self.inner {
            Inner::One(e) => IntoIter::One(Some(e)),
            Inner::Many(v) => IntoIter::Many(v.into_iter()),
        }
    }
}

impl<'a> IntoIterator for &'a ElementBatch {
    type Item = &'a Element;
    type IntoIter = std::slice::Iter<'a, Element>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// By-value iterator over a batch's elements.
#[derive(Debug)]
pub enum IntoIter {
    /// Inline singleton.
    One(Option<Element>),
    /// Heap-spilled run.
    Many(std::vec::IntoIter<Element>),
}

impl Iterator for IntoIter {
    type Item = Element;

    fn next(&mut self) -> Option<Element> {
        match self {
            IntoIter::One(e) => e.take(),
            IntoIter::Many(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IntoIter::One(e) => {
                let n = usize::from(e.is_some());
                (n, Some(n))
            }
            IntoIter::Many(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for IntoIter {}

/// Cuts a drained element sequence into kind-homogeneous run batches,
/// invoking `sink` for each completed batch in order. This is the batch
/// cutter of the parallel runtime, whose classed channels need a batch to
/// be all control or all data: a run breaks wherever the element kind
/// flips (tuple↔policy), which is exactly an sp-batch boundary.
pub fn coalesce_runs<E>(
    elems: impl Iterator<Item = Element>,
    mut sink: impl FnMut(ElementBatch) -> Result<(), E>,
) -> Result<(), E> {
    let mut open: Option<ElementBatch> = None;
    for elem in elems {
        match &mut open {
            Some(batch) if batch.accepts(&elem) => batch.push(elem),
            Some(_) => {
                if let Some(done) = open.replace(ElementBatch::single(elem)) {
                    sink(done)?;
                }
            }
            None => open = Some(ElementBatch::single(elem)),
        }
    }
    if let Some(done) = open {
        sink(done)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::element::SegmentPolicy;
    use sp_core::{Policy, RoleSet, StreamId, Timestamp, Tuple, TupleId};

    fn tup(tid: u64) -> Element {
        Element::tuple(Tuple::new(StreamId(0), TupleId(tid), Timestamp(tid), vec![]))
    }

    fn pol(ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            RoleSet::from([1]),
            Timestamp(ts),
        )))
    }

    #[test]
    fn singleton_stays_inline_and_spills_on_push() {
        let mut b = ElementBatch::single(tup(1));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(!b.is_control());
        b.push(tup(2));
        b.push(tup(3));
        assert_eq!(b.len(), 3);
        let ids: Vec<u64> = b.iter().map(|e| e.as_tuple().unwrap().tid.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let moved: Vec<Element> = b.into_iter().collect();
        assert_eq!(moved.len(), 3);
    }

    #[test]
    fn accepts_enforces_kind_homogeneity() {
        let b = ElementBatch::single(tup(1));
        assert!(b.accepts(&tup(2)));
        assert!(!b.accepts(&pol(1)));
        let p = ElementBatch::single(pol(1));
        assert!(p.accepts(&pol(2)));
        assert!(!p.accepts(&tup(1)));
        assert!(p.is_control());
    }

    #[test]
    fn coalesce_cuts_at_kind_boundaries() {
        let elems = vec![pol(0), tup(1), tup(2), tup(3), pol(4), tup(5)];
        let mut batches = Vec::new();
        coalesce_runs::<()>(elems.into_iter(), |b| {
            batches.push(b);
            Ok(())
        })
        .unwrap();
        assert_eq!(batches.len(), 4);
        assert_eq!(batches.iter().map(ElementBatch::len).collect::<Vec<_>>(), vec![1, 3, 1, 1]);
        assert!(batches[0].is_control());
        assert!(!batches[1].is_control());
        // Order survives the cut.
        let flat: Vec<Element> = batches.into_iter().flat_map(IntoIterator::into_iter).collect();
        assert_eq!(flat.len(), 6);
        assert!(!flat[0].is_tuple());
        assert!(flat[1].is_tuple());
    }

    #[test]
    fn from_run_and_exact_size_iter() {
        let b = ElementBatch::from_run(vec![tup(1), tup(2)]);
        let it = b.clone().into_iter();
        assert_eq!(it.len(), 2);
        assert_eq!(b.as_slice().len(), 2);
        let one = ElementBatch::single(pol(1)).into_iter();
        assert_eq!(one.len(), 1);
    }
}
