//! Resolved access-control policies (§III-E).
//!
//! A [`Policy`] is what an sp-batch *means* once its patterns have been
//! evaluated against the catalogs: which roles may read the governed tuples,
//! with optional attribute-scoped grants. Operators of the security-aware
//! algebra (Table I) manipulate these resolved policies; the raw pattern
//! form lives in [`crate::punctuation`].
//!
//! [`BatchPolicy`] is the one place that decides which policy governs a
//! tuple: it is built once per sp-batch ([`BatchPolicy::resolve`]) and
//! asked per tuple ([`BatchPolicy::policy_for`]). The SP Analyzer, every
//! operator that buffers a segment policy and the comparison mechanisms
//! all ask it, so they cannot disagree.
//!
//! The paper's three combination operations are implemented here:
//!
//! * [`Policy::union`] — multiple sps from the same data provider with the
//!   same timestamp form one policy ("access increases"),
//! * [`Policy::intersect`] — combining data-provider and server policies
//!   ("access decreases"; servers may refine, never broaden),
//! * `override()` — an sp-batch with a newer timestamp replaces the earlier
//!   one wholesale; the engine's `SegmentPolicy::replaces` is that rule.

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

use sp_pattern::Pattern;

use crate::ids::{Timestamp, TupleId};
use crate::punctuation::SecurityPunctuation;
use crate::rbac::RoleCatalog;
use crate::roleset::RoleSet;
use crate::schema::Schema;

/// Positive (grant) or negative (deny) authorization (§III-B, Sign field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sign {
    /// `+`: the listed roles may access the governed objects.
    #[default]
    Positive,
    /// `-`: the listed roles are denied access.
    Negative,
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sign::Positive => "+",
            Sign::Negative => "-",
        })
    }
}

/// A resolved access-control policy for a stream segment.
///
/// `tuple_roles` authorizes whole tuples. `attr_roles` holds
/// attribute-scoped grants: role `r` may read attribute `a` iff
/// `tuple_roles.contains(r) || attr_roles[a].contains(r)`. A tuple as a
/// whole is visible to a query iff the query's roles intersect
/// `tuple_roles` — attribute-only grants expose *only* those attributes
/// (the rest are masked), which is how attribute-granularity sps behave.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Policy {
    /// When the policy went into effect (all sps of a batch share it).
    pub ts: Timestamp,
    /// If true, server-side policies must not be combined in (§III-B).
    pub immutable: bool,
    tuple_roles: RoleSet,
    /// Sorted by attribute index; empty in the (common) tuple-level case.
    attr_roles: Vec<(u16, RoleSet)>,
}

impl Policy {
    /// The deny-everything policy (denial-by-default, §III-A).
    #[must_use]
    pub fn deny_all(ts: Timestamp) -> Self {
        Self { ts, ..Self::default() }
    }

    /// A tuple-level policy authorizing `roles`.
    #[must_use]
    pub fn tuple_level(roles: RoleSet, ts: Timestamp) -> Self {
        Self { ts, immutable: false, tuple_roles: roles, attr_roles: Vec::new() }
    }

    /// Adds an attribute-scoped grant.
    #[must_use]
    pub fn with_attr_grant(mut self, attr: u16, roles: RoleSet) -> Self {
        self.grant_attr(attr, &roles);
        self
    }

    /// Marks the policy immutable.
    #[must_use]
    pub fn immutable(mut self) -> Self {
        self.immutable = true;
        self
    }

    /// Roles authorized for whole tuples.
    #[must_use]
    pub fn tuple_roles(&self) -> &RoleSet {
        &self.tuple_roles
    }

    /// Attribute-scoped grants (sorted by attribute index).
    #[must_use]
    pub fn attr_grants(&self) -> &[(u16, RoleSet)] {
        &self.attr_roles
    }

    /// Grants whole-tuple access to `roles` (positive sp application).
    pub fn grant(&mut self, roles: &RoleSet) {
        self.tuple_roles.union_with(roles);
    }

    /// Revokes whole-tuple access from `roles` (negative sp application).
    /// Attribute-scoped grants for those roles are revoked too: a negative
    /// authorization wins over a positive one on the same objects (the
    /// paper's reference \[10\]).
    pub fn revoke(&mut self, roles: &RoleSet) {
        self.tuple_roles.minus_with(roles);
        for (_, set) in &mut self.attr_roles {
            set.minus_with(roles);
        }
        self.prune();
    }

    /// Revokes everything `denied` names: its tuple-level roles lose the
    /// tuple and every attribute, its attribute-scoped roles that
    /// attribute.
    pub fn revoke_all(&mut self, denied: &Policy) {
        self.revoke(&denied.tuple_roles);
        for (attr, roles) in &denied.attr_roles {
            self.revoke_attr(*attr, roles);
        }
    }

    /// Grants access to one attribute for `roles`.
    pub fn grant_attr(&mut self, attr: u16, roles: &RoleSet) {
        if roles.is_empty() {
            return;
        }
        match self.attr_roles.binary_search_by_key(&attr, |&(a, _)| a) {
            Ok(i) => self.attr_roles[i].1.union_with(roles),
            Err(i) => self.attr_roles.insert(i, (attr, roles.clone())),
        }
    }

    /// Revokes access to one attribute for `roles`.
    pub fn revoke_attr(&mut self, attr: u16, roles: &RoleSet) {
        if let Ok(i) = self.attr_roles.binary_search_by_key(&attr, |&(a, _)| a) {
            self.attr_roles[i].1.minus_with(roles);
        }
        self.prune();
    }

    /// True if role-set `subject` may read the tuple as a whole
    /// (`P_t ∩ p ≠ ∅`) — the Security Shield predicate.
    #[must_use]
    pub fn allows(&self, subject: &RoleSet) -> bool {
        self.tuple_roles.intersects(subject)
    }

    /// True if `subject` may read attribute `attr`.
    #[must_use]
    pub fn allows_attr(&self, attr: u16, subject: &RoleSet) -> bool {
        if self.tuple_roles.intersects(subject) {
            return true;
        }
        self.attr_roles
            .binary_search_by_key(&attr, |&(a, _)| a)
            .is_ok_and(|i| self.attr_roles[i].1.intersects(subject))
    }

    /// True if `subject` may read at least one attribute (possibly via an
    /// attribute-scoped grant only).
    #[must_use]
    pub fn allows_any_attr(&self, subject: &RoleSet) -> bool {
        self.allows(subject) || self.attr_roles.iter().any(|(_, set)| set.intersects(subject))
    }

    /// True if nobody is authorized at all.
    #[must_use]
    pub fn is_deny_all(&self) -> bool {
        self.tuple_roles.is_empty() && self.attr_roles.is_empty()
    }

    /// `union()`: sps of the same batch (same provider, same timestamp)
    /// describe one policy; access increases (§III-E).
    #[must_use]
    pub fn union(&self, other: &Policy) -> Policy {
        let mut out = self.clone();
        out.tuple_roles.union_with(&other.tuple_roles);
        for (attr, set) in &other.attr_roles {
            out.grant_attr(*attr, set);
        }
        out.immutable |= other.immutable;
        out.ts = out.ts.max(other.ts);
        out
    }

    /// `intersect()`: combines this (data-provider) policy with a server
    /// policy so that the server may only *reduce* access (§III-E). If this
    /// policy is immutable the server policy is ignored (§III-B).
    ///
    /// Attribute access is the conjunction of both policies' attribute
    /// access: with `access_i(r, a) = tuple_i(r) ∨ attr_i(r, a)`, the result
    /// has `tuple(r) = tuple_1(r) ∧ tuple_2(r)` and
    /// `attr(r, a) = (tuple_1 ∧ attr_2) ∨ (attr_1 ∧ tuple_2) ∨ (attr_1 ∧ attr_2)`.
    #[must_use]
    pub fn intersect(&self, other: &Policy) -> Policy {
        if self.immutable {
            return self.clone();
        }
        let mut out = Policy {
            ts: self.ts.max(other.ts),
            immutable: other.immutable,
            tuple_roles: self.tuple_roles.intersect(&other.tuple_roles),
            attr_roles: Vec::new(),
        };
        // attr_1 ∧ tuple_2
        for (attr, set) in &self.attr_roles {
            out.grant_attr(*attr, &set.intersect(&other.tuple_roles));
        }
        // tuple_1 ∧ attr_2 and attr_1 ∧ attr_2
        for (attr, set) in &other.attr_roles {
            out.grant_attr(*attr, &set.intersect(&self.tuple_roles));
            if let Ok(i) = self.attr_roles.binary_search_by_key(attr, |&(a, _)| a) {
                out.grant_attr(*attr, &set.intersect(&self.attr_roles[i].1));
            }
        }
        // Whole-tuple grants subsume attribute grants for the same roles.
        for (_, set) in &mut out.attr_roles {
            set.minus_with(&out.tuple_roles);
        }
        out.prune();
        out
    }

    /// Restricts every authorization to the given role set (least
    /// privilege). The Security Shield narrows the policies it forwards to
    /// its own predicate: downstream of ψ_p, no consumer may observe
    /// access beyond `p`, and narrowing is what makes the shield push-down
    /// rewrites exact equivalences for *all* downstream observers (the
    /// policies that joins, intersections and duplicate elimination derive
    /// from narrowed inputs coincide with narrowing their outputs).
    #[must_use]
    pub fn restrict_to(&self, roles: &RoleSet) -> Policy {
        let mut out = self.clone();
        out.tuple_roles.intersect_with(roles);
        for (_, set) in &mut out.attr_roles {
            set.intersect_with(roles);
        }
        out.prune();
        out
    }

    /// True if the two policies authorize exactly the same access,
    /// regardless of when they went into effect. Used by the SP Analyzer to
    /// merge consecutive sps with similar policies.
    #[must_use]
    pub fn same_authorizations(&self, other: &Policy) -> bool {
        self.immutable == other.immutable
            && self.tuple_roles == other.tuple_roles
            && self.attr_roles == other.attr_roles
    }

    /// Rewrites attribute indices through `mapping` (projection / join
    /// re-layout). Grants whose attribute maps to `None` are dropped; a
    /// policy that loses *all* its grants this way becomes deny-all, which
    /// is how the project operator "discards sps that describe a policy for
    /// only the projected-out attributes" (§IV-B).
    #[must_use]
    pub fn remap_attrs(&self, mapping: impl Fn(u16) -> Option<u16>) -> Policy {
        let mut out = Policy {
            ts: self.ts,
            immutable: self.immutable,
            tuple_roles: self.tuple_roles.clone(),
            attr_roles: Vec::with_capacity(self.attr_roles.len()),
        };
        for (attr, set) in &self.attr_roles {
            if let Some(new_attr) = mapping(*attr) {
                out.grant_attr(new_attr, set);
            }
        }
        out
    }

    /// The attribute indices (below `arity`) that `subject` may NOT read —
    /// the mask for attribute-granularity shielding.
    #[must_use]
    pub fn masked_attrs(&self, arity: usize, subject: &RoleSet) -> Vec<usize> {
        (0..arity).filter(|&i| !self.allows_attr(i as u16, subject)).collect()
    }

    /// Approximate heap footprint in bytes with the bitmap role encoding
    /// (the sp model's compact representation, §I-C).
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Policy>()
            + self.tuple_roles.mem_bytes()
            + self.attr_roles.iter().map(|(_, s)| 2 + s.mem_bytes()).sum::<usize>()
    }

    /// Approximate footprint with a conventional *explicit role list*
    /// representation (4 bytes per authorization) — how a system without
    /// bitmap compression stores policies. The baseline mechanisms are
    /// accounted this way in the memory experiments, so that policy size
    /// |R| shows its true cost.
    #[must_use]
    pub fn mem_bytes_list(&self) -> usize {
        std::mem::size_of::<Policy>()
            + self.tuple_roles.len() * 4
            + self.attr_roles.iter().map(|(_, s)| 2 + s.len() * 4).sum::<usize>()
    }

    /// Serializes the resolved policy: `[u64 ts][u8 flags][tuple roles]
    /// [u16 attr-grant count][(u16 attr, roles)…]`, big-endian throughout.
    ///
    /// The encoding is canonical — equal policies produce identical bytes
    /// (attribute grants are kept sorted by construction, role sets trim
    /// trailing zero words) — so checkpoints can be compared byte-wise.
    pub fn encode(&self, buf: &mut impl bytes::BufMut) {
        buf.put_u64(self.ts.millis());
        buf.put_u8(u8::from(self.immutable));
        self.tuple_roles.encode(buf);
        buf.put_u16(self.attr_roles.len() as u16);
        for (attr, set) in &self.attr_roles {
            buf.put_u16(*attr);
            set.encode(buf);
        }
    }

    /// Deserializes a policy produced by [`Policy::encode`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or a malformed flags byte.
    pub fn decode(buf: &mut impl bytes::Buf) -> Result<Self, String> {
        if buf.remaining() < 8 + 1 {
            return Err("truncated policy header".into());
        }
        let ts = Timestamp(buf.get_u64());
        let immutable = match buf.get_u8() {
            0 => false,
            1 => true,
            other => return Err(format!("bad policy flags byte {other}")),
        };
        let tuple_roles = RoleSet::decode(buf)?;
        if buf.remaining() < 2 {
            return Err("truncated attr grant count".into());
        }
        let n = buf.get_u16() as usize;
        let mut attr_roles = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            if buf.remaining() < 2 {
                return Err("truncated attr grant".into());
            }
            let attr = buf.get_u16();
            if let Some(&(prev, _)) = attr_roles.last() {
                if prev >= attr {
                    return Err("attr grants not strictly sorted".into());
                }
            }
            attr_roles.push((attr, RoleSet::decode(buf)?));
        }
        Ok(Self { ts, immutable, tuple_roles, attr_roles })
    }

    fn prune(&mut self) {
        self.attr_roles.retain(|(_, set)| !set.is_empty());
    }
}

/// A policy shared across operators and window states.
pub type SharedPolicy = Arc<Policy>;

/// The shared deny-all policy governing a tuple no sp matches.
fn deny_all() -> &'static SharedPolicy {
    static DENY: OnceLock<SharedPolicy> = OnceLock::new();
    DENY.get_or_init(|| Arc::new(Policy::deny_all(Timestamp::ZERO)))
}

/// One entry of a [`BatchPolicy`]: a tuple-id scope and the resolved policy
/// for tuples in that scope.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEntry {
    /// Which tuple ids of the segment this entry governs.
    pub scope: Pattern,
    /// The resolved policy for those tuples.
    pub policy: SharedPolicy,
}

/// What one sp-batch means for the tuples that follow it (§III-A, §III-E).
///
/// A tuple is governed by the sps of the batch whose DDP matches it: what
/// the positive ones grant, less what the negative ones revoke — a denial
/// wins for that tuple whatever the order and tuple scope of the sps. A
/// tuple no sp matches is denied, and a batch says nothing about the batch
/// before it: the newer one replaces the older wholesale.
///
/// Typically a batch is a single tuple-granularity sp covering the whole
/// segment — the `uniform` case, where [`Self::policy_for`] borrows one
/// precomputed policy. A tuple inside a single scope borrows that scope's
/// entry; only a tuple that several scopes claim is combined anew.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchPolicy {
    /// One entry per distinct tuple scope, in order of first appearance:
    /// what the scope's positive sps grant less what its negative sps
    /// revoke.
    entries: Entries,
    /// What the negative sps of a scope revoke, kept when the batch has
    /// several scopes: there a revocation also reaches what the other
    /// scopes grant on the tuples it matches.
    denials: Entries,
}

/// A list of [`PolicyEntry`]s that holds a lone entry inline: a batch is
/// almost always one scope with no revocation reaching across scopes, and
/// then resolving or narrowing it allocates no list.
#[derive(Debug, Clone)]
enum Entries {
    One(PolicyEntry),
    Many(Vec<PolicyEntry>),
}

impl Default for Entries {
    fn default() -> Self {
        Entries::Many(Vec::new())
    }
}

impl PartialEq for Entries {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Entries {
    fn as_slice(&self) -> &[PolicyEntry] {
        match self {
            Entries::One(e) => std::slice::from_ref(e),
            Entries::Many(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [PolicyEntry] {
        match self {
            Entries::One(e) => std::slice::from_mut(e),
            Entries::Many(v) => v,
        }
    }

    fn push(&mut self, entry: PolicyEntry) {
        *self = match std::mem::take(self) {
            Entries::Many(v) if v.is_empty() => Entries::One(entry),
            Entries::Many(mut v) => {
                v.push(entry);
                Entries::Many(v)
            }
            Entries::One(first) => Entries::Many(vec![first, entry]),
        };
    }

    /// The policy held for `scope`, opened as `start` on first use.
    fn slot(&mut self, scope: &Pattern, start: &Policy) -> &mut Policy {
        let at = self.as_slice().iter().position(|e| e.scope == *scope).unwrap_or_else(|| {
            self.push(PolicyEntry { scope: scope.clone(), policy: Arc::new(start.clone()) });
            self.as_slice().len() - 1
        });
        Arc::make_mut(&mut self.as_mut_slice()[at].policy)
    }
}

impl From<Vec<PolicyEntry>> for Entries {
    fn from(list: Vec<PolicyEntry>) -> Self {
        if list.len() == 1 {
            list.into_iter().collect()
        } else {
            Entries::Many(list)
        }
    }
}

impl FromIterator<PolicyEntry> for Entries {
    fn from_iter<I: IntoIterator<Item = PolicyEntry>>(iter: I) -> Self {
        let mut list = Entries::default();
        for entry in iter {
            list.push(entry);
        }
        list
    }
}

impl BatchPolicy {
    /// Resolves one **sp-batch** (consecutive sps with equal timestamps,
    /// §III-A) against the role catalog and the stream's schema. Sps whose
    /// DDP names another stream are ignored.
    ///
    /// Every tuple scope starts from `onto` — denial by default; the
    /// analyzer's incremental mode passes the previous policy instead.
    #[must_use]
    pub fn resolve(
        batch: &[Arc<SecurityPunctuation>],
        onto: Option<&Policy>,
        catalog: &RoleCatalog,
        schema: &Schema,
    ) -> Self {
        let ts = batch.first().map_or(Timestamp::ZERO, |sp| sp.ts);
        debug_assert!(batch.iter().all(|sp| sp.ts == ts), "an sp-batch shares one timestamp");
        let start = Policy { ts, ..onto.cloned().unwrap_or_default() };
        let mut entries = Entries::default();
        let mut denials = Entries::default();
        for sp in batch.iter().filter(|sp| sp.matches_stream(schema.name())) {
            let scope = &sp.ddp.tuple;
            let grants = entries.slot(scope, &start);
            grants.immutable |= sp.immutable;
            let side = match sp.sign {
                Sign::Positive => grants,
                Sign::Negative => denials.slot(scope, &Policy::deny_all(ts)),
            };
            sp.add_roles_to(side, catalog, schema);
        }
        // Every grant of a scope is in before its revocations apply.
        for denied in denials.as_slice() {
            entries.slot(&denied.scope, &start).revoke_all(&denied.policy);
        }
        if entries.as_slice().len() < 2 {
            denials = Entries::default();
        }
        Self { entries, denials }
    }

    /// A batch policy from already-resolved entries and the revocations
    /// that reach across them (checkpoint decode, tests).
    #[must_use]
    pub fn from_parts(entries: Vec<PolicyEntry>, denials: Vec<PolicyEntry>) -> Self {
        Self { entries: entries.into(), denials: denials.into() }
    }

    /// The uniform policy, if a single entry governs every tuple id.
    #[must_use]
    pub fn as_uniform(&self) -> Option<&SharedPolicy> {
        match self.entries() {
            [single] if single.scope.is_match_all() && self.denials().is_empty() => {
                Some(&single.policy)
            }
            _ => None,
        }
    }

    /// The per-scope entries.
    #[must_use]
    pub fn entries(&self) -> &[PolicyEntry] {
        self.entries.as_slice()
    }

    /// The per-scope revocations that reach across entries.
    #[must_use]
    pub fn denials(&self) -> &[PolicyEntry] {
        self.denials.as_slice()
    }

    /// The policy governing tuple `tid`, borrowed wherever one exists
    /// already: the uniform policy, the entry of the only scope claiming
    /// the tuple, or the shared deny-all when none does (§III-A). A tuple
    /// several scopes claim gets the union of their entries less every
    /// revocation matching it.
    #[must_use]
    pub fn policy_for(&self, tid: TupleId) -> Cow<'_, SharedPolicy> {
        if let Some(p) = self.as_uniform() {
            return Cow::Borrowed(p);
        }
        let tid = tid.raw();
        let mut claiming = self.entries().iter().filter(|e| e.scope.matches_u64(tid));
        let Some(first) = claiming.next() else {
            return Cow::Borrowed(deny_all());
        };
        let mut combined: Option<Policy> = None;
        for entry in claiming {
            combined = Some(combined.as_ref().unwrap_or(&first.policy).union(&entry.policy));
        }
        for denied in self.denials().iter().filter(|d| d.scope.matches_u64(tid)) {
            // A lone entry already has its own scope's revocations applied.
            if combined.is_some() || denied.scope != first.scope {
                combined
                    .get_or_insert_with(|| Policy::clone(&first.policy))
                    .revoke_all(&denied.policy);
            }
        }
        match combined {
            Some(p) => Cow::Owned(Arc::new(p)),
            None => Cow::Borrowed(&first.policy),
        }
    }

    /// `intersect()` lifted to a batch: every entry is combined with the
    /// server policy, which may only reduce access (§III-E; an immutable
    /// entry opts out, §III-B). Revocations stand as they are.
    #[must_use]
    pub fn intersect(mut self, server: &Policy) -> Self {
        for entry in self.entries.as_mut_slice() {
            let policy = Arc::make_mut(&mut entry.policy);
            *policy = policy.intersect(server);
        }
        self
    }

    /// Transforms every entry and revocation (narrowing to a predicate,
    /// projection remapping — `f` must commute with revocation), dropping
    /// those that become deny-all.
    #[must_use]
    pub fn map_policies(&self, f: impl Fn(&Policy) -> Policy) -> BatchPolicy {
        let map = |list: &[PolicyEntry]| -> Entries {
            list.iter()
                .filter_map(|e| {
                    let policy = f(&e.policy);
                    (!policy.is_deny_all())
                        .then(|| PolicyEntry { scope: e.scope.clone(), policy: Arc::new(policy) })
                })
                .collect()
        };
        let entries = map(self.entries());
        // With no grant left there is nothing to revoke.
        let denials =
            if entries.as_slice().is_empty() { Entries::default() } else { map(self.denials()) };
        Self { entries, denials }
    }

    /// True if both batches authorize exactly the same access, scope by
    /// scope (timestamps aside) — the analyzer's similar-policy test.
    #[must_use]
    pub fn same_authorizations(&self, other: &BatchPolicy) -> bool {
        let same = |a: &[PolicyEntry], b: &[PolicyEntry]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(a, b)| a.scope == b.scope && a.policy.same_authorizations(&b.policy))
        };
        same(self.entries(), other.entries()) && same(self.denials(), other.denials())
    }

    /// True if no entry authorizes anyone.
    #[must_use]
    pub fn is_deny_all(&self) -> bool {
        self.entries().iter().all(|e| e.policy.is_deny_all())
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<BatchPolicy>()
            + self
                .entries()
                .iter()
                .chain(self.denials())
                .map(|e| e.scope.source().len() + e.policy.mem_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn rs(ids: &[u32]) -> RoleSet {
        ids.iter().map(|&i| crate::ids::RoleId(i)).collect()
    }

    #[test]
    fn deny_by_default() {
        let p = Policy::deny_all(Timestamp(5));
        assert!(p.is_deny_all());
        assert!(!p.allows(&rs(&[0])));
        assert!(!p.allows_any_attr(&rs(&[0])));
    }

    #[test]
    fn grant_and_revoke() {
        let mut p = Policy::deny_all(Timestamp(0));
        p.grant(&rs(&[1, 2]));
        assert!(p.allows(&rs(&[2, 9])));
        assert!(!p.allows(&rs(&[3])));
        p.revoke(&rs(&[2]));
        assert!(!p.allows(&rs(&[2])));
        assert!(p.allows(&rs(&[1])));
    }

    #[test]
    fn negative_sp_revokes_attr_grants_too() {
        let mut p = Policy::tuple_level(rs(&[1]), Timestamp(0)).with_attr_grant(0, rs(&[2]));
        assert!(p.allows_attr(0, &rs(&[2])));
        p.revoke(&rs(&[2]));
        assert!(!p.allows_attr(0, &rs(&[2])));
        assert!(p.attr_grants().is_empty(), "empty grants are pruned");
    }

    #[test]
    fn attribute_grants() {
        let p = Policy::tuple_level(rs(&[1]), Timestamp(0))
            .with_attr_grant(2, rs(&[5]))
            .with_attr_grant(0, rs(&[6]));
        // sorted by attribute index
        assert_eq!(p.attr_grants()[0].0, 0);
        assert_eq!(p.attr_grants()[1].0, 2);
        // tuple-level role sees every attribute
        assert!(p.allows_attr(0, &rs(&[1])) && p.allows_attr(7, &rs(&[1])));
        // attr-scoped role sees only its attribute
        assert!(p.allows_attr(2, &rs(&[5])));
        assert!(!p.allows_attr(1, &rs(&[5])));
        assert!(!p.allows(&rs(&[5])));
        assert!(p.allows_any_attr(&rs(&[5])));
        assert_eq!(p.masked_attrs(3, &rs(&[5])), vec![0, 1]);
        assert_eq!(p.masked_attrs(3, &rs(&[1])), Vec::<usize>::new());
    }

    #[test]
    fn union_increases_access() {
        let a = Policy::tuple_level(rs(&[1]), Timestamp(3));
        let b = Policy::tuple_level(rs(&[2]), Timestamp(3)).with_attr_grant(1, rs(&[7]));
        let u = a.union(&b);
        assert!(u.allows(&rs(&[1])) && u.allows(&rs(&[2])));
        assert!(u.allows_attr(1, &rs(&[7])));
        assert_eq!(u.ts, Timestamp(3));
    }

    #[test]
    fn intersect_decreases_access() {
        let provider = Policy::tuple_level(rs(&[1, 2, 3]), Timestamp(1));
        let server = Policy::tuple_level(rs(&[2, 3, 4]), Timestamp(2));
        let c = provider.intersect(&server);
        assert!(!c.allows(&rs(&[1])));
        assert!(c.allows(&rs(&[2])));
        assert!(!c.allows(&rs(&[4])));
        assert_eq!(c.ts, Timestamp(2));
    }

    #[test]
    fn intersect_attribute_semantics() {
        // provider: role 1 tuple-level; role 5 on attr 0 only.
        let provider = Policy::tuple_level(rs(&[1]), Timestamp(0)).with_attr_grant(0, rs(&[5]));
        // server: role 5 tuple-level; role 1 on attr 1 only.
        let server = Policy::tuple_level(rs(&[5]), Timestamp(0)).with_attr_grant(1, rs(&[1]));
        let c = provider.intersect(&server);
        // role 1: provider-tuple ∧ server-attr(1) → attr 1 only
        assert!(!c.allows(&rs(&[1])));
        assert!(c.allows_attr(1, &rs(&[1])));
        assert!(!c.allows_attr(0, &rs(&[1])));
        // role 5: provider-attr(0) ∧ server-tuple → attr 0 only
        assert!(c.allows_attr(0, &rs(&[5])));
        assert!(!c.allows_attr(1, &rs(&[5])));
        // role 9: nowhere
        assert!(!c.allows_any_attr(&rs(&[9])));
    }

    #[test]
    fn intersect_respects_immutability() {
        let provider = Policy::tuple_level(rs(&[1, 2]), Timestamp(1)).immutable();
        let server = Policy::tuple_level(rs(&[2]), Timestamp(2));
        let c = provider.intersect(&server);
        assert!(c.allows(&rs(&[1])), "immutable provider policy wins");
    }

    #[test]
    fn union_then_intersect_identity() {
        // (a ∪ b) ∩ b ⊇ b restricted to itself: sanity of the algebra
        let a = Policy::tuple_level(rs(&[1]), Timestamp(0));
        let b = Policy::tuple_level(rs(&[2]), Timestamp(0));
        let u = a.union(&b).intersect(&b);
        assert!(u.allows(&rs(&[2])));
        assert!(!u.allows(&rs(&[1])));
    }

    #[test]
    fn remap_attrs_projects_grants() {
        let p = Policy::tuple_level(rs(&[1]), Timestamp(0))
            .with_attr_grant(0, rs(&[5]))
            .with_attr_grant(2, rs(&[6]));
        // Project attrs [2, 0] -> new indices [0, 1].
        let remapped = p.remap_attrs(|a| match a {
            2 => Some(0),
            0 => Some(1),
            _ => None,
        });
        assert!(remapped.allows_attr(0, &rs(&[6])));
        assert!(remapped.allows_attr(1, &rs(&[5])));
        assert!(!remapped.allows_attr(2, &rs(&[5])));
        assert!(remapped.allows(&rs(&[1])), "tuple roles survive remapping");

        // Dropping every grant leaves only tuple-level roles.
        let dropped = p.remap_attrs(|_| None);
        assert!(dropped.attr_grants().is_empty());
    }

    #[test]
    fn mem_accounting_grows_with_grants() {
        let small = Policy::tuple_level(rs(&[1]), Timestamp(0));
        let big = small.clone().with_attr_grant(0, rs(&[500]));
        assert!(big.mem_bytes() > small.mem_bytes());
    }

    #[test]
    fn sign_display() {
        assert_eq!(Sign::Positive.to_string(), "+");
        assert_eq!(Sign::Negative.to_string(), "-");
    }

    use crate::punctuation::DataDescription;
    use crate::value::ValueType;

    /// An sp over `scope` (`None` = every tuple id) at timestamp 1.
    fn sp(roles: &[u32], scope: Option<(u64, u64)>, negative: bool) -> Arc<SecurityPunctuation> {
        let mut sp = SecurityPunctuation::grant_all(rs(roles), Timestamp(1));
        if let Some((lo, hi)) = scope {
            sp = sp.with_ddp(DataDescription::tuple_range(lo, hi));
        }
        Arc::new(if negative { sp.negative() } else { sp })
    }

    fn resolve(batch: &[Arc<SecurityPunctuation>]) -> BatchPolicy {
        let schema = Schema::of("s", &[("id", ValueType::Int), ("v", ValueType::Int)]);
        BatchPolicy::resolve(batch, None, &RoleCatalog::new(), &schema)
    }

    fn entry(scope: (u64, u64), roles: &[u32]) -> PolicyEntry {
        PolicyEntry {
            scope: Pattern::numeric_range(scope.0, scope.1),
            policy: Arc::new(Policy::tuple_level(rs(roles), Timestamp(1))),
        }
    }

    #[test]
    fn uniform_batch_lends_one_policy() {
        let batch = resolve(&[sp(&[1], None, false), sp(&[2], None, false)]);
        let uniform = batch.as_uniform().unwrap();
        assert!(uniform.allows(&rs(&[1])) && uniform.allows(&rs(&[2])));
        for tid in [1, 2] {
            match batch.policy_for(TupleId(tid)) {
                Cow::Borrowed(p) => assert!(Arc::ptr_eq(p, uniform)),
                Cow::Owned(_) => panic!("the uniform case allocates nothing"),
            }
        }
    }

    #[test]
    fn a_tuple_no_scope_claims_is_denied() {
        let batch = resolve(&[sp(&[1], Some((10, 20)), false)]);
        assert!(batch.as_uniform().is_none());
        assert!(batch.policy_for(TupleId(15)).allows(&rs(&[1])));
        assert!(matches!(batch.policy_for(TupleId(15)), Cow::Borrowed(_)), "one scope: its entry");
        assert!(batch.policy_for(TupleId(25)).is_deny_all());
        assert!(BatchPolicy::default().policy_for(TupleId(1)).is_deny_all());
    }

    #[test]
    fn overlapping_scopes_union() {
        let batch =
            BatchPolicy::from_parts(vec![entry((0, 50), &[1]), entry((40, 90), &[2])], vec![]);
        let both = batch.policy_for(TupleId(45));
        assert!(both.allows(&rs(&[1])) && both.allows(&rs(&[2])));
        let only_first = batch.policy_for(TupleId(10));
        assert!(only_first.allows(&rs(&[1])) && !only_first.allows(&rs(&[2])));
    }

    #[test]
    fn denial_wins_within_a_scope_in_either_order() {
        let (grant, deny) = (sp(&[0, 1], None, false), sp(&[1], None, true));
        let a = resolve(&[grant.clone(), deny.clone()]);
        assert_eq!(a, resolve(&[deny, grant]));
        let p = a.as_uniform().expect("one scope stays uniform: its revocations are applied");
        assert!(p.allows(&rs(&[0])) && !p.allows(&rs(&[1])));
        assert!(a.denials().is_empty());
    }

    #[test]
    fn denial_wins_per_tuple_across_scopes() {
        // + {r0} on every tuple, - {r0} on <6-9>: tuple 7 matches both.
        let batch = resolve(&[sp(&[0], None, false), sp(&[0], Some((6, 9)), true)]);
        assert!(batch.as_uniform().is_none(), "a foreign revocation rules the fast path out");
        assert!(batch.policy_for(TupleId(4)).allows(&rs(&[0])));
        assert!(matches!(batch.policy_for(TupleId(4)), Cow::Borrowed(_)));
        assert!(batch.policy_for(TupleId(7)).is_deny_all());
        // A revocation reaches overlapping grants only where it matches.
        let batch = resolve(&[sp(&[0, 1], Some((0, 9)), false), sp(&[1], Some((5, 20)), true)]);
        assert!(batch.policy_for(TupleId(2)).allows(&rs(&[1])));
        assert!(!batch.policy_for(TupleId(7)).allows(&rs(&[1])));
        assert!(batch.policy_for(TupleId(7)).allows(&rs(&[0])));
        assert!(batch.policy_for(TupleId(15)).is_deny_all());
    }

    #[test]
    fn attribute_revocation_reaches_across_scopes() {
        let attr_sp = |roles: &[u32], scope, negative: bool| {
            let mut sp = SecurityPunctuation::clone(&sp(roles, scope, negative));
            sp.ddp.attrs = Pattern::literal("v");
            Arc::new(sp)
        };
        let batch = resolve(&[attr_sp(&[3], None, false), attr_sp(&[3], Some((6, 9)), true)]);
        assert!(batch.policy_for(TupleId(4)).allows_attr(1, &rs(&[3])));
        assert!(!batch.policy_for(TupleId(7)).allows_any_attr(&rs(&[3])));
    }

    #[test]
    fn sps_for_another_stream_are_ignored() {
        let foreign = SecurityPunctuation::grant_all(rs(&[1]), Timestamp(1))
            .with_ddp(DataDescription::stream("other"));
        let batch = resolve(&[Arc::new(foreign), sp(&[2], None, false)]);
        let p = batch.as_uniform().unwrap();
        assert!(p.allows(&rs(&[2])) && !p.allows(&rs(&[1])));
    }

    #[test]
    fn resolving_onto_a_policy_modifies_it() {
        let schema = Schema::of("s", &[("id", ValueType::Int)]);
        let previous = Policy::tuple_level(rs(&[1, 2]), Timestamp(0));
        let batch = BatchPolicy::resolve(
            &[sp(&[3], None, false), sp(&[1], None, true)],
            Some(&previous),
            &RoleCatalog::new(),
            &schema,
        );
        let p = batch.as_uniform().unwrap();
        assert!(!p.allows(&rs(&[1])) && p.allows(&rs(&[2])) && p.allows(&rs(&[3])));
        assert_eq!(p.ts, Timestamp(1));
    }

    #[test]
    fn mapping_carries_revocations_and_drops_what_empties() {
        let batch = resolve(&[sp(&[0, 1], None, false), sp(&[0], Some((6, 9)), true)]);
        let narrowed = batch.map_policies(|p| p.restrict_to(&rs(&[0])));
        assert!(narrowed.policy_for(TupleId(4)).allows(&rs(&[0])));
        assert!(narrowed.policy_for(TupleId(7)).is_deny_all());
        // Narrowed to a role the revocation does not name, it is gone —
        // and with it the reason not to be uniform.
        let narrowed = batch.map_policies(|p| p.restrict_to(&rs(&[1])));
        assert!(narrowed.denials().is_empty() && narrowed.as_uniform().is_some());
        // With no grant left nothing is kept.
        let emptied = batch.map_policies(|p| p.restrict_to(&rs(&[9])));
        assert!(emptied.is_deny_all());
        assert!(emptied.entries().is_empty() && emptied.denials().is_empty());
    }

    #[test]
    fn server_intersection_leaves_revocations_standing() {
        let batch = resolve(&[sp(&[0, 1], None, false), sp(&[0], Some((6, 9)), true)]);
        let refined = batch.intersect(&Policy::tuple_level(rs(&[0]), Timestamp(0)));
        assert!(refined.policy_for(TupleId(4)).allows(&rs(&[0])));
        assert!(!refined.policy_for(TupleId(4)).allows(&rs(&[1])), "server removed role 1");
        assert!(refined.policy_for(TupleId(7)).is_deny_all(), "the provider's denial stands");
    }

    #[test]
    fn same_authorizations_compares_scope_by_scope() {
        let a = resolve(&[sp(&[0], None, false), sp(&[0], Some((6, 9)), true)]);
        assert!(a.same_authorizations(&a.clone()));
        assert!(!a.same_authorizations(&resolve(&[sp(&[0], None, false)])));
        assert!(!a
            .same_authorizations(&resolve(&[sp(&[0], None, false), sp(&[0], Some((6, 8)), true)])));
    }
}
