//! Engine-internal stream elements.
//!
//! At ingestion the SP Analyzer resolves each *sp-batch* (consecutive raw
//! punctuations with one timestamp) into a [`SegmentPolicy`]: the policy
//! function governing the upcoming s-punctuated segment. Inside query plans,
//! streams are sequences of [`Element`]s — shared tuples interleaved with
//! shared segment policies. Keeping policies as separate elements (rather
//! than attaching one to every tuple) is the essence of the punctuation
//! mechanism: one policy element amortizes over every tuple of its segment.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

pub use sp_core::PolicyEntry;
use sp_core::{BatchPolicy, Policy, SharedPolicy, Timestamp, Tuple, TupleId};
use sp_pattern::Pattern;

/// The resolved policy of one s-punctuated segment: what its sp-batch
/// means ([`BatchPolicy`], which answers `policy_for` a tuple id) plus
/// the batch timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPolicy {
    batch: BatchPolicy,
    /// The batch timestamp (all sps of a batch share it).
    pub ts: Timestamp,
}

impl Deref for SegmentPolicy {
    type Target = BatchPolicy;

    fn deref(&self) -> &BatchPolicy {
        &self.batch
    }
}

impl SegmentPolicy {
    /// A resolved sp-batch stamped with its timestamp.
    #[must_use]
    pub fn stamped(batch: BatchPolicy, ts: Timestamp) -> Self {
        Self { batch, ts }
    }

    /// A segment policy from resolved entries.
    #[must_use]
    pub fn new(entries: Vec<PolicyEntry>, ts: Timestamp) -> Self {
        Self::stamped(BatchPolicy::from_parts(entries, Vec::new()), ts)
    }

    /// A uniform segment policy governing every tuple of the segment.
    #[must_use]
    pub fn uniform(policy: Policy) -> Self {
        let ts = policy.ts;
        Self::new(vec![PolicyEntry { scope: Pattern::match_all(), policy: Arc::new(policy) }], ts)
    }

    /// The deny-everything segment policy (denial-by-default).
    #[must_use]
    pub fn deny(ts: Timestamp) -> Self {
        Self::new(Vec::new(), ts)
    }

    /// The §V-A override rule, for every operator that buffers the policy
    /// of its input: an sp-batch at least as new as the buffered one
    /// replaces it wholesale; an older one is ignored.
    #[must_use]
    pub fn replaces(&self, buffered: Option<&Arc<SegmentPolicy>>) -> bool {
        buffered.is_none_or(|cur| self.ts >= cur.ts)
    }

    /// The policy the buffered segment policy gives tuple `tid`, owned, for
    /// operators that keep it beside the tuple; with nothing buffered yet,
    /// denial by default.
    #[must_use]
    pub fn governing(buffered: Option<&Arc<SegmentPolicy>>, tid: TupleId) -> SharedPolicy {
        match buffered {
            Some(seg) => seg.policy_for(tid).into_owned(),
            None => BatchPolicy::default().policy_for(tid).into_owned(),
        }
    }

    /// A copy of this segment policy stamped with a different timestamp
    /// (entries are shared). Operators that *re-announce* a policy on a
    /// merged output stream (e.g. union, when the emitting side switches)
    /// use this to keep output punctuations timestamp-ordered; downstream
    /// operators discard punctuations that appear stale (§V-A override).
    #[must_use]
    pub fn with_ts(&self, ts: Timestamp) -> SegmentPolicy {
        Self::stamped(self.batch.clone(), ts)
    }

    /// [`BatchPolicy::map_policies`] under the same timestamp.
    #[must_use]
    pub fn map_policies(&self, f: impl Fn(&Policy) -> Policy) -> SegmentPolicy {
        Self::stamped(self.batch.map_policies(f), self.ts)
    }
}

/// An element flowing between operators.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// A data tuple.
    Tuple(Arc<Tuple>),
    /// The policy for the upcoming segment.
    Policy(Arc<SegmentPolicy>),
}

impl Element {
    /// Wraps a tuple.
    #[must_use]
    pub fn tuple(t: Tuple) -> Self {
        Element::Tuple(Arc::new(t))
    }

    /// Wraps a segment policy.
    #[must_use]
    pub fn policy(p: SegmentPolicy) -> Self {
        Element::Policy(Arc::new(p))
    }

    /// The element timestamp.
    #[must_use]
    pub fn ts(&self) -> Timestamp {
        match self {
            Element::Tuple(t) => t.ts,
            Element::Policy(p) => p.ts,
        }
    }

    /// The tuple, if any.
    #[must_use]
    pub fn as_tuple(&self) -> Option<&Arc<Tuple>> {
        match self {
            Element::Tuple(t) => Some(t),
            Element::Policy(_) => None,
        }
    }

    /// The policy, if any.
    #[must_use]
    pub fn as_policy(&self) -> Option<&Arc<SegmentPolicy>> {
        match self {
            Element::Policy(p) => Some(p),
            Element::Tuple(_) => None,
        }
    }

    /// True for tuples.
    #[must_use]
    pub fn is_tuple(&self) -> bool {
        matches!(self, Element::Tuple(_))
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Tuple(t) => write!(f, "{t}"),
            Element::Policy(p) => write!(f, "<policy @{} ({} entries)>", p.ts, p.entries().len()),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{RoleId, StreamId, Value};

    fn tup(tid: u64) -> Tuple {
        Tuple::new(StreamId(0), TupleId(tid), Timestamp(1), vec![Value::Int(0)])
    }

    fn policy(roles: &[u32], ts: u64) -> Policy {
        Policy::tuple_level(roles.iter().map(|&r| RoleId(r)).collect(), Timestamp(ts))
    }

    #[test]
    fn uniform_segment_takes_the_policy_timestamp() {
        let seg = SegmentPolicy::uniform(policy(&[1], 5));
        assert!(Arc::ptr_eq(&*seg.policy_for(TupleId(1)), &*seg.policy_for(TupleId(2))));
        assert!(seg.as_uniform().is_some());
        assert_eq!(seg.ts, Timestamp(5));
        assert_eq!(seg.with_ts(Timestamp(9)).ts, Timestamp(9));
    }

    #[test]
    fn deny_segment() {
        let seg = SegmentPolicy::deny(Timestamp(3));
        assert!(seg.is_deny_all());
        assert!(seg.policy_for(TupleId(1)).is_deny_all());
    }

    #[test]
    fn a_batch_at_least_as_new_replaces_the_buffered_one() {
        let buffered = Arc::new(SegmentPolicy::uniform(policy(&[1], 5)));
        assert!(SegmentPolicy::deny(Timestamp(1)).replaces(None));
        assert!(SegmentPolicy::deny(Timestamp(6)).replaces(Some(&buffered)));
        assert!(SegmentPolicy::deny(Timestamp(5)).replaces(Some(&buffered)));
        assert!(!SegmentPolicy::deny(Timestamp(4)).replaces(Some(&buffered)));
    }

    #[test]
    fn element_accessors() {
        let e = Element::tuple(tup(1));
        assert!(e.is_tuple());
        assert_eq!(e.ts(), Timestamp(1));
        assert!(e.as_policy().is_none());
        let p = Element::policy(SegmentPolicy::uniform(policy(&[1], 9)));
        assert_eq!(p.ts(), Timestamp(9));
        assert!(p.as_tuple().is_none());
        assert!(p.to_string().contains("policy"));
    }
}
