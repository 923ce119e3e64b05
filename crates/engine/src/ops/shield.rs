//! The Security Shield (SS) operator — `ψ_p(T)` of the security-aware
//! algebra (Table I, §V-A).
//!
//! SS is a stateful filter. Its state is a *security predicate*: the set of
//! roles of the queries it protects. Arriving segment policies are checked
//! against that predicate; tuples governed by a non-intersecting policy are
//! discarded together with their punctuations, enforcing denial-by-default.
//!
//! Faithful cost behaviour (§VI-A): a tuple under an already-checked policy
//! is processed in O(1) — the verdict is cached per segment — while each
//! arriving punctuation pays a scan of the SS state. The more tuples share
//! one sp, the cheaper SS becomes per tuple (Fig. 8a). Two predicate-
//! evaluation modes are provided: `Bitmap` (word-parallel role-set
//! intersection — the paper's suggested bitmap encoding) and `Scan` (role-
//! by-role probing, the unindexed baseline whose cost grows linearly with
//! the SS state size, Fig. 8b).
//!
//! A policy switch builds only what it forwards: the policy owed
//! downstream is narrowed to the predicate at the segment's first
//! *release* (or when a checkpoint has to write it), so a segment that
//! releases nothing costs no narrowing, and a tuple-granularity verdict
//! allocates nothing. One run body serves owned and lent runs alike; of a
//! run the executor only lends (a multi-query edge) a suppressed tuple is
//! never cloned.
//!
//! Shield groups (§VI-C): which policy governs each tuple of a run is
//! resolved once for the sibling shields of an edge (`Resolution`, per
//! tuple stretch); a shield shown a run on its own is a group of one.

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use sp_core::{RoleSet, SharedPolicy, Tuple};

use crate::batch::ElementBatch;
use crate::checkpoint as ckpt;
use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{unary_port, Emitter, Operator};
use crate::stats::OperatorStats;
use crate::telemetry::{AuditEvent, Recorders, SpanRecord, NO_SP, NO_TUPLE};

/// Enforcement granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Drop whole tuples whose policy does not authorize the predicate.
    #[default]
    Tuple,
    /// Pass tuples visible through attribute-scoped grants, masking (i.e.
    /// nulling) the attributes the predicate may not read.
    Attribute,
}

/// How the security predicate is evaluated against a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Word-parallel bitmap intersection (compact encoding, §I-C).
    #[default]
    Bitmap,
    /// Role-by-role membership probing — models an SS without a role
    /// index; cost grows with the SS-state size (cf. Fig. 8b).
    Scan,
}

/// Cached verdict for the current segment.
#[derive(Debug, Clone)]
enum Verdict {
    /// No policy seen yet: denial-by-default.
    Deny,
    /// Uniform segment, predicate authorized. In attribute granularity the
    /// policy is kept to derive per-arity attribute masks.
    Pass { mask_from: Option<SharedPolicy> },
    /// Uniform segment, predicate not authorized.
    Fail,
    /// Scoped segment: resolve per tuple.
    PerTuple,
}

/// How a released tuple leaves the shield.
#[derive(Debug, Clone)]
enum Release {
    /// As it arrived. Tuple granularity only ever says this, so that
    /// path never builds or clones a mask.
    Whole,
    /// With these attribute positions nulled (attribute granularity).
    Masked(Arc<[usize]>),
}

impl Release {
    fn masking(attrs: Vec<usize>) -> Self {
        if attrs.is_empty() {
            Release::Whole
        } else {
            Release::Masked(attrs.into())
        }
    }
}

/// Cached scoped-segment decision: the resolved policy allocation, the
/// verdict (`None` = suppress), and the authorizing role.
type TupleVerdictCache = (SharedPolicy, Option<Release>, u32);

/// Consecutive tuples of a run that their segment gives one policy
/// allocation (a policy combined for one tuple is a sub-run of its own).
#[derive(Debug)]
struct SubRun<'s> {
    len: usize,
    policy: Cow<'s, SharedPolicy>,
    /// Arity of the first tuple (attribute masks).
    arity: usize,
}

/// The sub-runs of one tuple stretch and the segment they were resolved
/// under.
#[derive(Debug, Default)]
struct Stretch {
    seg: Option<Arc<SegmentPolicy>>,
    subruns: Vec<SubRun<'static>>,
}

/// The sub-runs of every tuple stretch of one run (by stretch ordinal),
/// resolved once for the sibling shields of an edge (§VI-C): the first
/// member to need a stretch's sub-runs records them, the others replay
/// them while they hold the same segment. One per run.
#[derive(Debug, Default)]
pub(crate) struct Resolution {
    stretches: Vec<Stretch>,
}

impl Resolution {
    /// The record of stretch `k`, empty until a member resolves it.
    fn stretch(&mut self, k: usize) -> &mut Stretch {
        self.stretches.resize_with(self.stretches.len().max(k + 1), Stretch::default);
        &mut self.stretches[k]
    }
}

/// A run being judged, which shows what is left of it.
trait Rest {
    fn rest(&self) -> &[Element];
}

impl Rest for std::slice::Iter<'_, Element> {
    fn rest(&self) -> &[Element] {
        self.as_slice()
    }
}

impl Rest for crate::batch::IntoIter {
    fn rest(&self) -> &[Element] {
        match self {
            Self::One(elem) => elem.as_slice(),
            Self::Many(run) => run.as_slice(),
        }
    }
}

/// The Security Shield operator.
#[derive(Debug)]
pub struct SecurityShield {
    roles: RoleSet,
    granularity: Granularity,
    mode: MatchMode,
    current: Option<Arc<SegmentPolicy>>,
    verdict: Verdict,
    /// The segment policy owed downstream, emitted — narrowed to the
    /// predicate — before the first released tuple of the segment, so
    /// that discarded segments' punctuations are discarded too and cost
    /// no narrowing. Held un-narrowed (after a restore: as checkpointed,
    /// which narrowing again does not change).
    pending_policy: Option<Arc<SegmentPolicy>>,
    /// `(arity, mask)` cache for attribute-granularity uniform segments.
    mask_cache: Option<(usize, Release)>,
    /// Per-sub-run verdict cache for scoped segments: consecutive tuples
    /// of one segment resolve to the *same shared policy allocation*, so a
    /// pointer compare reuses the previous decision ("once an sp has been
    /// processed, the decision applies to all tuples that follow it").
    /// Keeping the `Arc` alive makes the identity check sound. The third
    /// component is the authorizing role for the audit trail.
    tuple_cache: Option<TupleVerdictCache>,
    /// Authorizing role of the current uniform segment (for audit
    /// records); `u32::MAX` when denying or per-tuple.
    seg_role: u32,
    /// Audit ring, span ring (one span per policy absorption, release
    /// and suppression) and enforcement-lag histograms; all off unless
    /// telemetry arms them.
    rec: Recorders,
    stats: OperatorStats,
}

impl SecurityShield {
    /// An SS with the given predicate roles (tuple granularity, bitmap
    /// matching).
    #[must_use]
    pub fn new(roles: RoleSet) -> Self {
        Self {
            roles,
            granularity: Granularity::Tuple,
            mode: MatchMode::Bitmap,
            current: None,
            verdict: Verdict::Deny,
            pending_policy: None,
            mask_cache: None,
            tuple_cache: None,
            seg_role: u32::MAX,
            rec: Recorders::default(),
            stats: OperatorStats::new(),
        }
    }

    /// Sets the enforcement granularity.
    #[must_use]
    pub fn with_granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Sets the predicate evaluation mode.
    #[must_use]
    pub fn with_mode(mut self, m: MatchMode) -> Self {
        self.mode = m;
        self
    }

    /// The predicate roles (SS state).
    #[must_use]
    pub fn predicate(&self) -> &RoleSet {
        &self.roles
    }

    /// Predicate check in the configured mode.
    fn authorized(&self, policy: &SharedPolicy) -> bool {
        match (self.mode, self.granularity) {
            (MatchMode::Bitmap, Granularity::Tuple) => policy.allows(&self.roles),
            (MatchMode::Bitmap, Granularity::Attribute) => policy.allows_any_attr(&self.roles),
            (MatchMode::Scan, _) => {
                // Role-by-role probe of the SS state (unindexed predicate
                // list), per the cost model's λ_sp(NR_sp + NR) term.
                let mut hit = false;
                for role in self.roles.iter() {
                    if policy.tuple_roles().contains(role) {
                        hit = true;
                    }
                }
                if !hit && self.granularity == Granularity::Attribute {
                    hit = policy.allows_any_attr(&self.roles);
                }
                hit
            }
        }
    }

    /// First predicate role the policy grants at tuple level, falling
    /// back to the first predicate role (attribute-scoped grants), or
    /// `u32::MAX` for an empty predicate. This is the role an audit
    /// record cites as the release justification.
    fn authorizing_role(&self, policy: &SharedPolicy) -> u32 {
        let mut fallback = u32::MAX;
        for role in self.roles.iter() {
            if fallback == u32::MAX {
                fallback = role.raw();
            }
            if policy.tuple_roles().contains(role) {
                return role.raw();
            }
        }
        fallback
    }

    fn evaluate_segment(&mut self, seg: &Arc<SegmentPolicy>) -> Verdict {
        self.mask_cache = None;
        self.tuple_cache = None;
        self.seg_role = u32::MAX;
        match seg.as_uniform() {
            Some(policy) => {
                if self.authorized(policy) {
                    self.seg_role = self.authorizing_role(policy);
                    let mask_from =
                        (self.granularity == Granularity::Attribute).then(|| policy.clone());
                    Verdict::Pass { mask_from }
                } else {
                    Verdict::Fail
                }
            }
            None => Verdict::PerTuple,
        }
    }

    /// Evaluates the predicate against a resolved policy: how the tuple
    /// is released, or `None` for deny.
    fn judge(&self, policy: &SharedPolicy, arity: usize) -> Option<Release> {
        match self.granularity {
            Granularity::Tuple => policy.allows(&self.roles).then_some(Release::Whole),
            Granularity::Attribute => policy
                .allows_any_attr(&self.roles)
                .then(|| Release::masking(policy.masked_attrs(arity, &self.roles))),
        }
    }

    /// The attribute mask for a uniform segment at the given arity, cached.
    fn cached_mask(&mut self, policy: &SharedPolicy, arity: usize) -> Release {
        match &self.mask_cache {
            Some((a, mask)) if *a == arity => mask.clone(),
            _ => {
                let mask = Release::masking(policy.masked_attrs(arity, &self.roles));
                self.mask_cache = Some((arity, mask.clone()));
                mask
            }
        }
    }

    /// `seg` narrowed to this shield's predicate: downstream of ψ_p
    /// nothing may observe access beyond p (least privilege), and
    /// narrowing makes the Table II push-down rules exact.
    fn narrowed(&self, seg: &SegmentPolicy) -> SegmentPolicy {
        seg.map_policies(|p| p.restrict_to(&self.roles))
    }

    /// Emits the owed segment policy, if any, ahead of a release.
    fn flush_pending(&mut self, out: &mut Emitter) {
        if let Some(seg) = self.pending_policy.take() {
            self.stats.sps_out += 1;
            out.push(Element::policy(self.narrowed(&seg)));
        }
    }

    /// Absorbs one arriving segment policy.
    fn absorb_policy(&mut self, seg: Arc<SegmentPolicy>) {
        self.stats.sps_in += 1;
        if seg.replaces(self.current.as_ref()) {
            self.verdict = self.evaluate_segment(&seg);
            self.pending_policy = match self.verdict {
                Verdict::Fail | Verdict::Deny => None,
                _ => Some(seg.clone()),
            };
            // The enforcement moment: span + enforcement-lag sample,
            // keyed to the sp-batch stamp (stream time only).
            let sp_ts = seg.ts.0;
            if self.rec.spans.enabled() {
                let trace = sp_core::trace::trace_id_for_sp(sp_ts);
                self.rec.spans.record(SpanRecord::at(
                    trace,
                    sp_core::trace::site::SHIELD_ENFORCE,
                    sp_core::trace::span_id(trace, sp_core::trace::site::ANALYZE),
                    NO_TUPLE,
                    sp_ts,
                ));
                self.rec.lag.observe_policy(sp_ts);
            }
            self.current = Some(seg);
        }
    }

    /// Records one release/suppression decision on every armed plane: the
    /// audit record, the stream-clock and first-affected lag samples, and
    /// the tuple-level causal span parented under the governing sp's
    /// enforcement span. `role` is the authorizing role of a release.
    fn record_decision(&mut self, released: bool, tid: u64, ts: u64, sp_ts: u64, role: u32) {
        use sp_core::trace::{site, span_id, trace_id_for_sp, trace_id_for_tuple};
        let (event, site) = if released {
            (AuditEvent::Released { role, sp_ts }, site::RELEASE)
        } else {
            (AuditEvent::Suppressed { sp_ts }, site::SUPPRESS)
        };
        if self.rec.audit.enabled() {
            self.rec.audit.record(tid, ts, event);
        }
        if self.rec.spans.enabled() {
            self.rec.lag.observe_tuple(ts);
            if released {
                self.rec.lag.observe_release(ts);
            } else {
                self.rec.lag.observe_suppress(ts);
            }
            let parent = if sp_ts == NO_SP {
                0
            } else {
                span_id(trace_id_for_sp(sp_ts), site::SHIELD_ENFORCE)
            };
            self.rec.spans.record(SpanRecord::at(trace_id_for_tuple(tid), site, parent, tid, ts));
        }
    }

    /// Whether any recorder plane is armed (lets the batch paths skip the
    /// per-tuple recording loop entirely when telemetry is off).
    fn recording(&self) -> bool {
        self.rec.audit.enabled() || self.rec.spans.enabled()
    }

    /// How the predicate judges one sub-run's policy — the release
    /// (`None` suppresses) and the authorizing role — through the verdict
    /// cache, keyed on the policy allocation; deny-all is not worth a slot.
    fn decide(&mut self, sub: &SubRun<'_>) -> (Option<Release>, u32) {
        let policy = &*sub.policy;
        match &self.tuple_cache {
            Some((cached, verdict, role)) if Arc::ptr_eq(cached, policy) => {
                (verdict.clone(), *role)
            }
            _ if policy.is_deny_all() => (None, u32::MAX),
            _ => {
                let verdict = self.judge(policy, sub.arity);
                let role = self.authorizing_role(policy);
                self.tuple_cache = Some((policy.clone(), verdict.clone(), role));
                (verdict, role)
            }
        }
    }

    /// The one decision body: settles the next `n` tuples of `run` (under
    /// the segment stamped `sp_ts`) with one decision — counters in bulk,
    /// the owed policy ahead of a release, a record per tuple only while a
    /// recorder is armed, a move or clone per *released* tuple only.
    #[inline(always)]
    fn settle<T: Borrow<Element>>(
        &mut self,
        run: &mut impl Iterator<Item = T>,
        n: usize,
        (release, role): (Option<Release>, u32),
        sp_ts: u64,
        own: &impl Fn(T) -> Element,
        out: &mut Emitter,
    ) {
        let recording = self.recording();
        self.stats.tuples_in += n as u64;
        let Some(release) = release else {
            self.stats.tuples_shielded += n as u64;
            if recording {
                for item in run.by_ref().take(n) {
                    if let Some(t) = item.borrow().as_tuple() {
                        self.record_decision(false, t.tid.raw(), t.ts.0, sp_ts, role);
                    }
                }
            } else if n > 0 {
                run.nth(n - 1);
            }
            return;
        };
        self.flush_pending(out);
        self.stats.tuples_out += n as u64;
        out.reserve(n);
        for item in run.by_ref().take(n) {
            if let (true, Some(t)) = (recording, item.borrow().as_tuple()) {
                self.record_decision(true, t.tid.raw(), t.ts.0, sp_ts, role);
            }
            match &release {
                Release::Whole => out.push(own(item)),
                Release::Masked(attrs) => {
                    if let Some(t) = item.borrow().as_tuple() {
                        out.push(Element::tuple(t.mask(attrs)));
                    }
                }
            }
        }
    }

    /// Judges a run this shield takes by move, as a member of a group.
    pub(crate) fn shield_owned(
        &mut self,
        batch: ElementBatch,
        group: &mut Resolution,
        out: &mut Emitter,
    ) {
        self.shield_run(batch.into_iter(), Some(group), |e| e, out);
    }

    /// [`Self::shield_owned`] for a run this shield is only lent.
    pub(crate) fn shield_lent(
        &mut self,
        run: &[Element],
        group: &mut Resolution,
        out: &mut Emitter,
    ) {
        self.shield_run(run.iter(), Some(group), Element::clone, out);
    }

    /// One run through the shield: `T` is an `Element` the caller gives up
    /// (`own` moves it) or a `&Element` it was shown (`own` clones, only
    /// what is released or absorbed). A stretch of tuples meets no policy,
    /// so it is settled whole for a uniform segment, per sub-run for a
    /// scoped one (the group's, or resolved here), per tuple only where an
    /// attribute mask depends on the arity — where a run was cut, and who
    /// shares its resolution, is unobservable. Inlined into each entry
    /// point: a singleton run cannot afford the call.
    #[inline(always)]
    fn shield_run<T: Borrow<Element>>(
        &mut self,
        mut run: impl Iterator<Item = T> + Rest,
        mut group: Option<&mut Resolution>,
        own: impl Fn(T) -> Element,
        out: &mut Emitter,
    ) {
        let mut ordinal = 0;
        while let Some(tuple) = run.rest().first().map(Element::is_tuple) {
            if !tuple {
                if let Some(Element::Policy(seg)) = run.next().map(&own) {
                    self.absorb_policy(seg);
                }
                continue;
            }
            let n = run.rest().iter().take_while(|e| e.is_tuple()).count();
            let sp_ts = self.current.as_ref().map_or(NO_SP, |seg| seg.ts.0);
            match &self.verdict {
                Verdict::Deny | Verdict::Fail => {
                    self.settle(&mut run, n, (None, u32::MAX), sp_ts, &own, out);
                }
                Verdict::Pass { mask_from: None } => {
                    let decision = (Some(Release::Whole), self.seg_role);
                    self.settle(&mut run, n, decision, sp_ts, &own, out);
                }
                Verdict::Pass { mask_from: Some(policy) } => {
                    let policy = policy.clone();
                    for item in run.by_ref().take(n) {
                        let arity = item.borrow().as_tuple().map_or(0, |t| t.arity());
                        let decision = (Some(self.cached_mask(&policy, arity)), self.seg_role);
                        self.settle(&mut std::iter::once(item), 1, decision, sp_ts, &own, out);
                    }
                }
                Verdict::PerTuple => {
                    // Borrowed out for the stretch, so resolving costs no
                    // `Arc` traffic: only `decide` and `settle` run meanwhile.
                    let seg = self.current.take();
                    let held = group.as_deref_mut().map(|res| res.stretch(ordinal));
                    match (held, seg.as_ref()) {
                        (Some(held), Some(seg))
                            if held.seg.as_ref().is_some_and(|s| Arc::ptr_eq(s, seg)) =>
                        {
                            debug_assert_eq!(held.subruns.iter().map(|s| s.len).sum::<usize>(), n);
                            for sub in &held.subruns {
                                let decision = self.decide(sub);
                                self.settle(&mut run, sub.len, decision, sp_ts, &own, out);
                            }
                        }
                        (held, Some(seg)) => {
                            // Resolved here, each tuple once, and recorded
                            // for the siblings of a group.
                            let mut record = held.map(|held| {
                                *held = Stretch { seg: Some(seg.clone()), subruns: Vec::new() };
                                &mut held.subruns
                            });
                            let resolve = |tuple: &Tuple| seg.policy_for(tuple.tid);
                            let (mut head, mut left) = (None, n);
                            while left > 0 {
                                let mut stretch =
                                    run.rest()[..left].iter().filter_map(Element::as_tuple);
                                let Some(first) = stretch.next() else { break };
                                let policy = head.take().unwrap_or_else(|| resolve(first));
                                let mut sub = SubRun { len: 1, policy, arity: first.arity() };
                                for tuple in stretch {
                                    match resolve(tuple) {
                                        Cow::Borrowed(p) if Arc::ptr_eq(p, &sub.policy) => {
                                            sub.len += 1;
                                        }
                                        other => {
                                            head = Some(other);
                                            break;
                                        }
                                    }
                                }
                                left -= sub.len;
                                let decision = self.decide(&sub);
                                self.settle(&mut run, sub.len, decision, sp_ts, &own, out);
                                if let Some(record) = record.as_mut() {
                                    let policy = Cow::Owned(SharedPolicy::clone(&sub.policy));
                                    record.push(SubRun { policy, ..sub });
                                }
                            }
                        }
                        (_, None) => {}
                    }
                    self.current = seg;
                }
            }
            ordinal += 1;
        }
    }
}

impl Operator for SecurityShield {
    fn name(&self) -> &str {
        "ss"
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        unary_port("ss", port)?;
        self.shield_run(batch.into_iter(), None, |e| e, out);
        Ok(())
    }

    /// A lent run costs an `Arc` increment per *released* tuple only.
    fn process_run(
        &mut self,
        port: usize,
        run: &[Element],
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        unary_port("ss", port)?;
        self.shield_run(run.iter(), None, Element::clone, out);
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    fn set_audit(&mut self, capacity: usize) -> bool {
        self.rec.set_audit(capacity);
        true
    }

    fn set_spans(&mut self, capacity: usize) -> bool {
        self.rec.set_spans(capacity);
        true
    }

    fn recorders(&self) -> Option<&Recorders> {
        Some(&self.rec)
    }

    fn state_mem_bytes(&self) -> usize {
        self.roles.mem_bytes() + self.current.as_ref().map_or(0, |seg| seg.mem_bytes())
    }

    /// The shield decides per tuple from policy state built *only* from
    /// broadcast sps, so shard replicas hold identical policy state:
    /// safe to replicate across shards. Its lazy policy forwarding is
    /// tuple-dependent, though, so the sharded builder additionally
    /// requires it to feed its sink directly (see
    /// [`Operator::delays_sps`]).
    fn shard_safe(&self) -> bool {
        true
    }

    /// The narrowed pending policy is emitted before the first *released*
    /// tuple — a shard-local event under key partitioning.
    fn delays_sps(&self) -> bool {
        true
    }

    /// Suffix layout: the buffered segment (replicated — built from
    /// broadcast sps alone) followed by the pending narrowed policy
    /// (canonically flushed when any shard released a tuple).
    fn merge_shard_state(&self, parts: &[&[u8]]) -> Result<Vec<u8>, EngineError> {
        ckpt::merge_delayed_suffix("ss", parts, 1)
    }

    /// Snapshot: counters, the buffered segment policy, and the pending
    /// (not-yet-emitted) policy — narrowed here, as it will be emitted, so
    /// the bytes do not say when narrowing happens. The verdict and both
    /// caches are derived state, re-evaluated on restore.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        self.stats.encode_counters(buf);
        ckpt::encode_opt_segment(self.current.as_ref(), buf);
        let pending = self.pending_policy.as_deref().map(|seg| Arc::new(self.narrowed(seg)));
        ckpt::encode_opt_segment(pending.as_ref(), buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        ckpt::restore("ss", bytes, |buf| {
            self.stats.decode_counters(buf)?;
            self.current = ckpt::decode_opt_segment(buf)?;
            self.pending_policy = ckpt::decode_opt_segment(buf)?;
            Ok(())
        })?;
        // Audit/span/lag state is not checkpointed; replay repopulates.
        self.rec.clear();
        self.verdict = match self.current.clone() {
            Some(seg) => self.evaluate_segment(&seg),
            None => {
                self.mask_cache = None;
                self.tuple_cache = None;
                self.seg_role = u32::MAX;
                Verdict::Deny
            }
        };
        Ok(())
    }

    /// Runtime role reassignment (§IX future work): swaps the predicate
    /// and re-evaluates the buffered segment so the very next tuple is
    /// judged under the new roles.
    fn update_predicate(&mut self, roles: &RoleSet) -> bool {
        self.roles = roles.clone();
        self.mask_cache = None;
        self.tuple_cache = None;
        if let Some(seg) = self.current.clone() {
            self.verdict = self.evaluate_segment(&seg);
            self.pending_policy = match self.verdict {
                Verdict::Fail | Verdict::Deny => None,
                _ => Some(seg),
            };
        }
        true
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::run_unary;
    use sp_core::{Policy, RoleId, StreamId, Timestamp, Tuple, TupleId, Value};
    use sp_pattern::Pattern;

    fn tup(tid: u64, ts: u64) -> Element {
        Element::tuple(Tuple::new(
            StreamId(0),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64), Value::Int(7)],
        ))
    }

    fn pol(roles: &[u32], ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        )))
    }

    fn tuples_of(elems: &[Element]) -> Vec<u64> {
        elems.iter().filter_map(|e| e.as_tuple().map(|t| t.tid.raw())).collect()
    }

    #[test]
    fn denial_by_default() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![tup(1, 0), tup(2, 1)]);
        assert!(out.is_empty());
        assert_eq!(ss.stats().tuples_shielded, 2);
    }

    #[test]
    fn passing_segment_flows_with_policy_first() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![pol(&[1, 2], 0), tup(1, 1), tup(2, 2)]);
        assert_eq!(out.len(), 3);
        assert!(out[0].as_policy().is_some(), "policy precedes its tuples");
        assert_eq!(tuples_of(&out), vec![1, 2]);
        assert_eq!(ss.stats().sps_out, 1);
    }

    #[test]
    fn failing_segment_discards_tuples_and_sps() {
        let mut ss = SecurityShield::new(RoleSet::from([9]));
        let out = run_unary(&mut ss, vec![pol(&[1], 0), tup(1, 1), pol(&[9], 2), tup(2, 3)]);
        assert_eq!(tuples_of(&out), vec![2]);
        // Only the passing segment's policy is forwarded.
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 1);
        assert_eq!(ss.stats().tuples_shielded, 1);
    }

    #[test]
    fn newer_policy_overrides_older() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![pol(&[1], 10), tup(1, 11), pol(&[2], 12), tup(2, 13)]);
        assert_eq!(tuples_of(&out), vec![1]);
    }

    #[test]
    fn stale_policy_is_ignored() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![pol(&[1], 10), pol(&[2], 5), tup(1, 11)]);
        assert_eq!(tuples_of(&out), vec![1], "older sp must not override");
    }

    #[test]
    fn scan_mode_agrees_with_bitmap() {
        for roles in [vec![1u32], vec![5], vec![1, 5, 9]] {
            let input = vec![pol(&[1, 7], 0), tup(1, 1), pol(&[4], 2), tup(2, 3)];
            let mut bitmap = SecurityShield::new(roles.iter().map(|&r| RoleId(r)).collect());
            let mut scan = SecurityShield::new(roles.iter().map(|&r| RoleId(r)).collect())
                .with_mode(MatchMode::Scan);
            assert_eq!(
                tuples_of(&run_unary(&mut bitmap, input.clone())),
                tuples_of(&run_unary(&mut scan, input))
            );
        }
    }

    #[test]
    fn per_tuple_scoped_segments() {
        let seg = SegmentPolicy::new(
            vec![crate::element::PolicyEntry {
                scope: Pattern::numeric_range(0, 5),
                policy: std::sync::Arc::new(Policy::tuple_level(RoleSet::from([1]), Timestamp(0))),
            }],
            Timestamp(0),
        );
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![Element::policy(seg), tup(3, 1), tup(9, 2)]);
        assert_eq!(tuples_of(&out), vec![3], "tuple 9 is outside the scope");
    }

    #[test]
    fn attribute_granularity_masks() {
        let policy = Policy::tuple_level(RoleSet::new(), Timestamp(0))
            .with_attr_grant(1, RoleSet::from([1]));
        let seg = SegmentPolicy::uniform(policy);
        let mut ss =
            SecurityShield::new(RoleSet::from([1])).with_granularity(Granularity::Attribute);
        let out = run_unary(&mut ss, vec![Element::policy(seg), tup(42, 1)]);
        let t = out.iter().find_map(|e| e.as_tuple()).expect("tuple passes via attribute grant");
        assert!(t.value(0).unwrap().is_null(), "unauthorized attr masked");
        assert_eq!(t.value(1), Some(&Value::Int(7)));

        // Tuple granularity would have dropped it entirely.
        let seg2 = SegmentPolicy::uniform(
            Policy::tuple_level(RoleSet::new(), Timestamp(0))
                .with_attr_grant(1, RoleSet::from([1])),
        );
        let mut strict = SecurityShield::new(RoleSet::from([1]));
        let out2 = run_unary(&mut strict, vec![Element::policy(seg2), tup(42, 1)]);
        assert!(tuples_of(&out2).is_empty());
    }

    /// The shield narrows the owed policy at the first release, not when
    /// it absorbs it — but a checkpoint cut in between must not say so:
    /// its bytes are those of a shield that narrowed eagerly, and the
    /// restored shield emits that same narrowed policy first.
    #[test]
    fn checkpoint_between_policy_and_first_release_holds_narrowed_policy() {
        let roles = RoleSet::from([1]);
        let seg = |scope_hi, granted: &[u32]| crate::element::PolicyEntry {
            scope: Pattern::numeric_range(0, scope_hi),
            policy: Arc::new(Policy::tuple_level(
                granted.iter().map(|&r| RoleId(r)).collect(),
                Timestamp(5),
            )),
        };
        // Scoped (PerTuple verdict), wider than the predicate, with an
        // entry that narrows to deny-all and is dropped.
        let raw =
            Arc::new(SegmentPolicy::new(vec![seg(9, &[1, 2, 3]), seg(4, &[2])], Timestamp(5)));
        let narrowed = raw.map_policies(|p| p.restrict_to(&roles));
        assert_ne!(*raw, narrowed);

        let mut ss = SecurityShield::new(roles.clone());
        let out = run_unary(&mut ss, vec![Element::Policy(raw.clone())]);
        assert!(out.is_empty(), "the policy is owed, not yet emitted");

        let mut expected = Vec::new();
        ss.stats.encode_counters(&mut expected);
        ckpt::encode_opt_segment(Some(&raw), &mut expected);
        ckpt::encode_opt_segment(Some(&Arc::new(narrowed.clone())), &mut expected);
        let mut snap = Vec::new();
        ss.snapshot(&mut snap);
        assert_eq!(snap, expected);

        let mut restored = SecurityShield::new(roles);
        restored.restore(&snap).unwrap();
        let mut again = Vec::new();
        restored.snapshot(&mut again);
        assert_eq!(again, snap, "restore → snapshot is the identity");
        for shield in [&mut ss, &mut restored] {
            let out = run_unary(shield, vec![tup(7, 6)]);
            assert_eq!(**out[0].as_policy().unwrap(), narrowed);
            assert_eq!(tuples_of(&out), vec![7]);
            assert_eq!(shield.stats().sps_out, 1);
        }
    }

    /// The lag tracker has no switch of its own: it is fed exactly while
    /// the span ring is on.
    #[test]
    fn lag_is_fed_only_while_spans_are_armed() {
        let input = || vec![pol(&[1], 0), tup(1, 1), pol(&[2], 2), tup(2, 3)];
        let mut audited = SecurityShield::new(RoleSet::from([1]));
        audited.set_audit(8);
        let _ = run_unary(&mut audited, input());
        assert_eq!(audited.rec.lag.enforce().count(), 0);

        let mut traced = SecurityShield::new(RoleSet::from([1]));
        traced.set_spans(8);
        let _ = run_unary(&mut traced, input());
        let lag = &traced.rec.lag;
        assert_eq!(
            (lag.enforce().count(), lag.release().count(), lag.suppress().count()),
            (2, 1, 1)
        );
    }

    #[test]
    fn policy_emitted_once_per_segment() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![pol(&[1], 0), tup(1, 1), tup(2, 2), tup(3, 3)]);
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 1);
        assert_eq!(tuples_of(&out).len(), 3);
    }

    #[test]
    fn mem_accounting_includes_state() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let empty = ss.state_mem_bytes();
        let _ = run_unary(&mut ss, vec![pol(&[1, 2, 3], 0)]);
        assert!(ss.state_mem_bytes() > empty);
        assert_eq!(ss.name(), "ss");
    }
}
