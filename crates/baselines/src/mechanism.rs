//! The common interface of the access-control enforcement mechanisms
//! compared in §I-C / §VII-B of the paper (plus the post-2008
//! crypto-enforced fourth).
//!
//! A mechanism receives the *same* raw punctuated stream and enforces the
//! same policies for a query with a fixed role set; what differs is *where
//! policies live* (central table, per-tuple copies, in-stream
//! punctuations, or key capsules on ciphertext) and therefore the
//! processing and memory profile. The security-equivalence test suite
//! asserts that all four release exactly the same tuples.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sp_core::{
    BatchPolicy, RoleCatalog, Schema, SecurityPunctuation, SharedPolicy, StreamElement, Tuple,
    TupleId,
};

/// One access-control enforcement mechanism under test.
pub trait EnforcementMechanism {
    /// Mechanism name ("store-and-probe", "tuple-embedded",
    /// "security-punctuations").
    fn name(&self) -> &'static str;

    /// Processes one raw element; tuples the query is authorized to read
    /// are appended to `out`.
    fn process(&mut self, elem: StreamElement, out: &mut Vec<Arc<Tuple>>);

    /// Approximate bytes of *policy-related* state currently held (the
    /// Fig. 7c metric): policy tables, embedded copies, or shared
    /// punctuations, plus per-tuple bookkeeping.
    fn policy_mem_bytes(&self) -> usize;

    /// Cumulative processing time spent inside `process`.
    fn elapsed(&self) -> Duration;

    /// Tuples released so far.
    fn released(&self) -> u64;

    /// Tuples denied so far.
    fn denied(&self) -> u64;

    /// Flushes any segment still open at end of stream; released tuples
    /// are appended to `out`. The three plaintext mechanisms decide per
    /// element and have nothing to flush (the default no-op); the
    /// crypto-enforced mechanism must close its final ciphertext segment
    /// here or the tuples buffered for digest verification would be
    /// silently lost.
    fn finish(&mut self, out: &mut Vec<Arc<Tuple>>) {
        let _ = out;
    }

    /// Breakdown of the policy-related state behind
    /// [`EnforcementMechanism::policy_mem_bytes`]. The default reports
    /// everything as plain policy bytes; the crypto-enforced mechanism
    /// also accounts its key table and ciphertext buffers.
    fn policy_state(&self) -> PolicyState {
        PolicyState { policy_bytes: self.policy_mem_bytes(), ..PolicyState::default() }
    }
}

/// Where a mechanism's policy-related memory lives (the Fig. 7c metric,
/// extended for outsourced enforcement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyState {
    /// Policy tables / embedded copies / shared punctuations.
    pub policy_bytes: usize,
    /// Derived per-(stream, role, epoch) keys and segment data keys.
    pub key_table_bytes: usize,
    /// Ciphertext (and tentative plaintext) buffered awaiting segment
    /// verification. Drains to zero at every TERMINATOR.
    pub cipher_buffer_bytes: usize,
}

impl PolicyState {
    /// Total bytes across all three categories.
    #[must_use]
    pub fn total(&self) -> usize {
        self.policy_bytes + self.key_table_bytes + self.cipher_buffer_bytes
    }
}

/// Shared counters for mechanism implementations.
#[derive(Debug, Default)]
pub struct MechStats {
    /// Total processing time.
    pub elapsed: Duration,
    /// Released tuple count.
    pub released: u64,
    /// Denied tuple count.
    pub denied: u64,
}

/// The sp-batch governing arriving tuples, for a mechanism that meets raw
/// sps one at a time instead of behind an SP Analyzer: consecutive sps
/// with one timestamp form a batch (§III-A), a tuple closes it, and a
/// batch at least as new as the one held replaces it wholesale while an
/// older one is ignored (§V-A). What the held batch *means* is
/// [`BatchPolicy`]'s to say, as for every other mechanism; it is resolved
/// once per batch, when first asked — by the tuple that closes it or by a
/// read of [`GoverningBatch::policy`] — the per-policy-change write both
/// baselines pay.
#[derive(Debug)]
pub(crate) struct GoverningBatch {
    catalog: Arc<RoleCatalog>,
    schema: Arc<Schema>,
    sps: Vec<Arc<SecurityPunctuation>>,
    /// Whether the next sp with the held timestamp still joins the batch.
    open: bool,
    policy: OnceLock<BatchPolicy>,
    /// Batches resolved so far (the resolve-once test reads it).
    #[cfg(test)]
    resolutions: std::sync::atomic::AtomicUsize,
}

impl GoverningBatch {
    /// Nothing held yet: every tuple is denied.
    pub(crate) fn new(catalog: Arc<RoleCatalog>, schema: Arc<Schema>) -> Self {
        Self {
            catalog,
            schema,
            sps: Vec::new(),
            open: false,
            policy: OnceLock::new(),
            #[cfg(test)]
            resolutions: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Takes one arriving sp (one for another stream, or of a batch older
    /// than the one held, changes nothing).
    pub(crate) fn push(&mut self, sp: Arc<SecurityPunctuation>) {
        if !sp.matches_stream(self.schema.name()) {
            return;
        }
        let held = self.sps.first().map(|first| first.ts);
        if !(self.open && held == Some(sp.ts)) {
            self.open = held.is_none_or(|held| sp.ts >= held);
            if self.open {
                self.sps.clear();
            }
        }
        if self.open {
            self.sps.push(sp);
            self.policy.take();
        }
    }

    /// The policy governing an arriving tuple, which closes the batch.
    pub(crate) fn policy_for(&mut self, tid: TupleId) -> Cow<'_, SharedPolicy> {
        self.open = false;
        self.policy().policy_for(tid)
    }

    /// The resolved batch held.
    pub(crate) fn policy(&self) -> &BatchPolicy {
        self.policy.get_or_init(|| {
            #[cfg(test)]
            self.resolutions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            BatchPolicy::resolve(&self.sps, None, &self.catalog, &self.schema)
        })
    }
}

/// Test/bench helper: runs a raw stream through a mechanism, returning the
/// released tuples.
pub fn run_mechanism(
    mech: &mut dyn EnforcementMechanism,
    input: impl IntoIterator<Item = StreamElement>,
) -> Vec<Arc<Tuple>> {
    let mut out = Vec::new();
    for elem in input {
        mech.process(elem, &mut out);
    }
    mech.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use std::sync::atomic::Ordering;

    use super::*;
    use crate::{StoreAndProbe, TupleEmbedded};
    use sp_core::{DataDescription, RoleId, RoleSet, StreamId, Timestamp, Value, ValueType};

    /// One sp-batch of 200 sps, one in five negative, over overlapping
    /// tuple-id ranges.
    fn mixed_batch() -> Vec<Arc<SecurityPunctuation>> {
        (0..200u32)
            .map(|i| {
                let roles: RoleSet = [RoleId(i % 7), RoleId(i % 3 + 4)].into_iter().collect();
                let lo = u64::from(i % 40);
                let sp = SecurityPunctuation::grant_all(roles, Timestamp(5))
                    .with_ddp(DataDescription::tuple_range(lo, lo + 15));
                Arc::new(if i % 5 == 0 { sp.negative() } else { sp })
            })
            .collect()
    }

    #[test]
    fn a_200_sp_mixed_batch_resolves_once() {
        let mut catalog = RoleCatalog::new();
        catalog.register_synthetic_roles(8);
        let (catalog, schema) = (Arc::new(catalog), Schema::of("loc", &[("id", ValueType::Int)]));
        let reference = BatchPolicy::resolve(&mixed_batch(), None, &catalog, &schema);

        let mut held = GoverningBatch::new(catalog.clone(), schema.clone());
        for sp in mixed_batch() {
            held.push(sp);
        }
        for tid in (0..60).map(TupleId) {
            assert_eq!(held.policy_for(tid), reference.policy_for(tid));
        }
        assert_eq!(held.resolutions.load(Ordering::Relaxed), 1, "one resolution per batch");

        let tuple = |tid: u64| {
            StreamElement::tuple(Tuple::new(
                StreamId(0),
                TupleId(tid),
                Timestamp(6),
                vec![Value::Int(tid as i64)],
            ))
        };
        let input: Vec<StreamElement> = (mixed_batch().into_iter())
            .map(StreamElement::Punctuation)
            .chain((0..60).map(tuple))
            .collect();
        let (mut released, mut denied) = (0, 0);
        for roles in (0..7).map(|r| RoleSet::from([r])) {
            let expected: Vec<u64> =
                (0..60).filter(|&tid| reference.policy_for(TupleId(tid)).allows(&roles)).collect();
            released += expected.len();
            denied += 60 - expected.len();
            let mechanisms: [Box<dyn EnforcementMechanism>; 2] = [
                Box::new(StoreAndProbe::new(catalog.clone(), schema.clone(), roles.clone(), 64)),
                Box::new(TupleEmbedded::new(catalog.clone(), schema.clone(), roles, 64)),
            ];
            for mut mech in mechanisms {
                let got: Vec<u64> = run_mechanism(mech.as_mut(), input.clone())
                    .iter()
                    .map(|t| t.tid.raw())
                    .collect();
                assert_eq!(got, expected, "{}", mech.name());
            }
        }
        assert!(released > 0 && denied > 0, "the batch must both grant and deny");
    }
}
