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
use std::sync::Arc;
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
/// anew at each sp taken — the per-policy-change write both baselines pay.
#[derive(Debug, Default)]
pub(crate) struct GoverningBatch {
    sps: Vec<Arc<SecurityPunctuation>>,
    /// Whether the next sp with the held timestamp still joins the batch.
    open: bool,
    policy: BatchPolicy,
}

impl GoverningBatch {
    /// Takes one arriving sp (one for another stream, or of a batch older
    /// than the one held, changes nothing).
    pub(crate) fn push(
        &mut self,
        sp: Arc<SecurityPunctuation>,
        catalog: &RoleCatalog,
        schema: &Schema,
    ) {
        if !sp.matches_stream(schema.name()) {
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
            self.policy = BatchPolicy::resolve(&self.sps, None, catalog, schema);
        }
    }

    /// The policy governing an arriving tuple, which closes the batch.
    pub(crate) fn policy_for(&mut self, tid: TupleId) -> Cow<'_, SharedPolicy> {
        self.open = false;
        self.policy.policy_for(tid)
    }

    /// The resolved batch held.
    pub(crate) fn policy(&self) -> &BatchPolicy {
        &self.policy
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
