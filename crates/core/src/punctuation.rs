//! Security punctuations (§III).
//!
//! A security punctuation (sp) is stream meta-data of the form
//! `<DDP | SRP | Sign | Immutable | ts>` (Definition 3.1):
//!
//! * the **Data Description Part** says which objects the policy governs —
//!   three patterns over stream names, tuple identifiers and attribute
//!   names;
//! * the **Security Restriction Part** names the access-control model and
//!   the authorized roles — a pattern over role names or an explicit role
//!   set;
//! * the **Sign** makes the authorization positive (grant) or negative
//!   (deny);
//! * **Immutable** forbids combining with server-side policies;
//! * **ts** is the instant the policy goes into effect. All sps of one
//!   *sp-batch* share a timestamp and are interpreted as a single policy.
//!
//! Sps always precede the tuples they govern; the tuples up to the next
//! batch form the *s-punctuated segment* of the policy.

use std::collections::BTreeMap;
use std::fmt;

use bytes::{Buf, BufMut};
use sp_pattern::Pattern;

use crate::ids::{RoleId, Timestamp};
use crate::policy::{Policy, Sign};
use crate::rbac::{AccessModel, RoleCatalog};
use crate::roleset::RoleSet;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// The Data Description Part: which objects the policy applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDescription {
    /// Pattern over stream names (`e_s`).
    pub stream: Pattern,
    /// Pattern over tuple identifiers (`e_t`).
    pub tuple: Pattern,
    /// Pattern over attribute names (`e_a`); `*` means the whole tuple.
    pub attrs: Pattern,
}

impl DataDescription {
    /// Governs every object of every stream.
    #[must_use]
    pub fn everything() -> Self {
        Self {
            stream: Pattern::match_all(),
            tuple: Pattern::match_all(),
            attrs: Pattern::match_all(),
        }
    }

    /// Governs all tuples of the named stream.
    #[must_use]
    pub fn stream(name: &str) -> Self {
        Self { stream: Pattern::literal(name), ..Self::everything() }
    }

    /// Governs tuples with ids in `lo..=hi` on any stream.
    #[must_use]
    pub fn tuple_range(lo: u64, hi: u64) -> Self {
        Self { tuple: Pattern::numeric_range(lo, hi), ..Self::everything() }
    }

    /// True if this description is tuple-granularity (covers all attributes).
    #[must_use]
    pub fn covers_whole_tuple(&self) -> bool {
        self.attrs.is_match_all()
    }
}

/// The Security Restriction Part: model type and authorized subjects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityRestriction {
    /// The access-control model the roles belong to.
    pub model: AccessModel,
    /// The authorized roles.
    pub roles: RoleSpec,
}

/// Roles named either explicitly (already-resolved bitmap — the compact
/// network form) or by a pattern over role names (`e_r`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoleSpec {
    /// An explicit, pre-resolved role set.
    Explicit(RoleSet),
    /// A pattern resolved against the role catalog at ingestion.
    Pattern(Pattern),
}

impl SecurityRestriction {
    /// RBAC restriction with explicit roles.
    #[must_use]
    pub fn roles(set: RoleSet) -> Self {
        Self { model: AccessModel::Rbac, roles: RoleSpec::Explicit(set) }
    }

    /// RBAC restriction from a role-name pattern.
    #[must_use]
    pub fn role_pattern(p: Pattern) -> Self {
        Self { model: AccessModel::Rbac, roles: RoleSpec::Pattern(p) }
    }

    /// Resolves the authorized roles against a catalog.
    #[must_use]
    pub fn resolve(&self, catalog: &RoleCatalog) -> RoleSet {
        match &self.roles {
            RoleSpec::Explicit(set) => set.clone(),
            RoleSpec::Pattern(p) => catalog.resolve_roles(p),
        }
    }
}

/// The largest role id [`SecurityPunctuation::decode`] accepts in an
/// explicit role list.
///
/// A role id sizes the decoded bitmap, so it is bounded where it enters:
/// at this ceiling a [`RoleSet`] is at most 1024 words (8 KiB), which
/// also keeps its `u16` word count in [`RoleSet::encode`] exact when the
/// sp is checkpointed. An sp naming a larger id is malformed.
pub const MAX_WIRE_ROLE_ID: u32 = (1 << 16) - 1;

/// Compiled patterns keyed by their wire bytes, so an sp whose patterns
/// were seen before is decoded without compiling them again.
///
/// The table is bounded: it holds at most [`Self::CAPACITY`] patterns
/// and is cleared when a new one would exceed that; a source longer than
/// [`Self::MAX_SOURCE_LEN`] bytes is compiled but never kept. Only
/// patterns that compiled are kept, so an invalid one is an error every
/// time it arrives. Whoever decodes owns a table — one per connection in
/// [`crate::wire::StreamDecoder`] — so one sender's patterns can neither
/// evict nor pre-seed another's.
#[derive(Debug, Default)]
pub struct PatternTable {
    compiled: BTreeMap<Box<[u8]>, Pattern>,
}

impl PatternTable {
    /// Patterns held before the table is cleared.
    pub const CAPACITY: usize = 64;
    /// Longest pattern source, in bytes, that is kept.
    pub const MAX_SOURCE_LEN: usize = 64;

    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The pattern whose source is `src`, compiled on a miss. `*`, the
    /// common case, is answered without a lookup and never kept.
    fn pattern(&mut self, src: &[u8]) -> Result<Pattern, String> {
        if src == b"*" {
            return Ok(Pattern::match_all());
        }
        if let Some(p) = self.compiled.get(src) {
            return Ok(p.clone());
        }
        let text = std::str::from_utf8(src).map_err(|e| format!("invalid UTF-8 in sp: {e}"))?;
        let p = Pattern::compile(text).map_err(|e| e.to_string())?;
        if src.len() <= Self::MAX_SOURCE_LEN {
            if self.compiled.len() >= Self::CAPACITY {
                self.compiled.clear();
            }
            self.compiled.insert(src.into(), p.clone());
        }
        Ok(p)
    }
}

/// A security punctuation (Definition 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityPunctuation {
    /// Which objects the policy governs.
    pub ddp: DataDescription,
    /// Who is (de)authorized.
    pub srp: SecurityRestriction,
    /// Grant or deny.
    pub sign: Sign,
    /// If true, server policies may not refine this one.
    pub immutable: bool,
    /// When the policy goes into effect.
    pub ts: Timestamp,
}

impl SecurityPunctuation {
    /// A positive, mutable, tuple-granularity sp authorizing `roles` for all
    /// tuples of every stream — the most common shape in the experiments.
    #[must_use]
    pub fn grant_all(roles: RoleSet, ts: Timestamp) -> Self {
        Self {
            ddp: DataDescription::everything(),
            srp: SecurityRestriction::roles(roles),
            sign: Sign::Positive,
            immutable: false,
            ts,
        }
    }

    /// Builder-style: sets the data description.
    #[must_use]
    pub fn with_ddp(mut self, ddp: DataDescription) -> Self {
        self.ddp = ddp;
        self
    }

    /// Builder-style: makes the sp a denial.
    #[must_use]
    pub fn negative(mut self) -> Self {
        self.sign = Sign::Negative;
        self
    }

    /// Builder-style: marks the sp immutable.
    #[must_use]
    pub fn immutable(mut self) -> Self {
        self.immutable = true;
        self
    }

    /// The paper's `match()`: does this sp govern the given tuple?
    ///
    /// The stream pattern is tested against the schema's stream name and the
    /// tuple pattern against the tuple id (numeric fast path — no
    /// allocation for range or match-all patterns).
    #[must_use]
    pub fn matches_tuple(&self, tuple: &Tuple, schema: &Schema) -> bool {
        self.ddp.tuple.matches_u64(tuple.tid.raw()) && self.ddp.stream.matches(schema.name())
    }

    /// Does this sp govern the named stream at all?
    #[must_use]
    pub fn matches_stream(&self, stream_name: &str) -> bool {
        self.ddp.stream.matches(stream_name)
    }

    /// The attribute indices of `schema` governed by this sp, or `None`
    /// if it covers the whole tuple.
    #[must_use]
    pub fn governed_attrs(&self, schema: &Schema) -> Option<Vec<u16>> {
        if self.ddp.covers_whole_tuple() {
            return None;
        }
        Some(
            schema
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| self.ddp.attrs.matches(&f.name))
                .map(|(i, _)| i as u16)
                .collect(),
        )
    }

    /// Names this sp's roles in `policy` on the objects it governs — the
    /// whole tuple or each governed attribute. Whether that is a grant or
    /// a revocation is the caller's to say:
    /// [`BatchPolicy::resolve`](crate::policy::BatchPolicy::resolve)
    /// collects the two sides of a batch apart.
    pub(crate) fn add_roles_to(&self, policy: &mut Policy, catalog: &RoleCatalog, schema: &Schema) {
        let roles = self.srp.resolve(catalog);
        match self.governed_attrs(schema) {
            None => policy.grant(&roles),
            Some(attrs) => {
                for a in attrs {
                    policy.grant_attr(a, &roles);
                }
            }
        }
    }

    /// Approximate heap footprint in bytes (memory experiments). Explicit
    /// role sets dominate; pattern sources are counted by length.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        let roles = match &self.srp.roles {
            RoleSpec::Explicit(set) => set.mem_bytes(),
            RoleSpec::Pattern(p) => p.source().len(),
        };
        std::mem::size_of::<SecurityPunctuation>()
            + self.ddp.stream.source().len()
            + self.ddp.tuple.source().len()
            + self.ddp.attrs.source().len()
            + roles
    }

    /// Encodes the sp into the compact wire form that data providers ship
    /// inside network messages (§I: "policies can be encoded into a compact
    /// format, and in most cases can be included into the same network
    /// message with the data").
    pub fn encode(&self, buf: &mut impl BufMut) {
        fn put_str(buf: &mut impl BufMut, s: &str) {
            buf.put_u16(s.len() as u16);
            buf.put_slice(s.as_bytes());
        }
        buf.put_u64(self.ts.millis());
        let mut flags = 0u8;
        if self.sign == Sign::Negative {
            flags |= 1;
        }
        if self.immutable {
            flags |= 2;
        }
        buf.put_u8(flags);
        buf.put_u8(match self.srp.model {
            AccessModel::Rbac => 0,
            AccessModel::Dac => 1,
            AccessModel::Mac => 2,
        });
        put_str(buf, self.ddp.stream.source());
        put_str(buf, self.ddp.tuple.source());
        put_str(buf, self.ddp.attrs.source());
        match &self.srp.roles {
            RoleSpec::Explicit(set) => {
                buf.put_u8(0);
                buf.put_u16(set.len() as u16);
                for r in set.iter() {
                    buf.put_u32(r.0);
                }
            }
            RoleSpec::Pattern(p) => {
                buf.put_u8(1);
                put_str(buf, p.source());
            }
        }
    }

    /// Decodes an sp from its wire form, taking its patterns from
    /// `patterns` where they were compiled before.
    ///
    /// # Errors
    ///
    /// Returns a message describing truncation, pattern syntax errors or
    /// a role id above [`MAX_WIRE_ROLE_ID`].
    pub fn decode(buf: &mut impl Buf, patterns: &mut PatternTable) -> Result<Self, String> {
        fn pat(buf: &mut impl Buf, patterns: &mut PatternTable) -> Result<Pattern, String> {
            if buf.remaining() < 2 {
                return Err("truncated sp: missing string length".into());
            }
            let len = buf.get_u16() as usize;
            let Some(src) = buf.chunk().get(..len) else {
                return Err("truncated sp: missing string body".into());
            };
            let p = patterns.pattern(src)?;
            buf.advance(len);
            Ok(p)
        }
        if buf.remaining() < 10 {
            return Err("truncated sp: missing header".into());
        }
        let ts = Timestamp(buf.get_u64());
        let flags = buf.get_u8();
        let model = match buf.get_u8() {
            0 => AccessModel::Rbac,
            1 => AccessModel::Dac,
            2 => AccessModel::Mac,
            other => return Err(format!("unknown access model tag {other}")),
        };
        let stream = pat(buf, patterns)?;
        let tuple = pat(buf, patterns)?;
        let attrs = pat(buf, patterns)?;
        if buf.remaining() < 1 {
            return Err("truncated sp: missing role spec".into());
        }
        let roles = match buf.get_u8() {
            0 => {
                if buf.remaining() < 2 {
                    return Err("truncated sp: missing role count".into());
                }
                let n = buf.get_u16() as usize;
                let Some(raw) = buf.chunk().get(..n * 4) else {
                    return Err("truncated sp: missing role ids".into());
                };
                let ids = raw.chunks_exact(4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
                // The largest id sizes the bitmap: bound it, then allocate once.
                let max = ids.clone().max();
                if let Some(id) = max.filter(|&id| id > MAX_WIRE_ROLE_ID) {
                    return Err(format!("role id {id} above the wire ceiling"));
                }
                let mut set =
                    max.map_or_else(RoleSet::new, |id| RoleSet::with_room_for(RoleId(id)));
                for id in ids {
                    set.insert(RoleId(id));
                }
                buf.advance(n * 4);
                RoleSpec::Explicit(set)
            }
            1 => RoleSpec::Pattern(pat(buf, patterns)?),
            other => return Err(format!("unknown role spec tag {other}")),
        };
        Ok(Self {
            ddp: DataDescription { stream, tuple, attrs },
            srp: SecurityRestriction { model, roles },
            sign: if flags & 1 != 0 { Sign::Negative } else { Sign::Positive },
            immutable: flags & 2 != 0,
            ts,
        })
    }
}

impl fmt::Display for SecurityPunctuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let roles = match &self.srp.roles {
            RoleSpec::Explicit(set) => set.to_string(),
            RoleSpec::Pattern(p) => p.to_string(),
        };
        write!(
            f,
            "<({},{},{}) | {}:{} | {} | {} | {}>",
            self.ddp.stream,
            self.ddp.tuple,
            self.ddp.attrs,
            self.srp.model,
            roles,
            self.sign,
            if self.immutable { "T" } else { "F" },
            self.ts
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use std::sync::Arc;

    use super::*;
    use crate::ids::{StreamId, TupleId};
    use crate::value::{Value, ValueType};

    fn catalog() -> RoleCatalog {
        let mut c = RoleCatalog::new();
        for r in ["cardiologist", "doctor", "nurse_on_duty", "insurance"] {
            c.register_role(r).unwrap();
        }
        c
    }

    fn schema() -> Arc<Schema> {
        Schema::of(
            "HeartRate",
            &[("Patient_id", ValueType::Int), ("Beats_per_min", ValueType::Int)],
        )
    }

    /// The one policy an unscoped batch resolves to.
    fn combine_batch(
        batch: &[Arc<SecurityPunctuation>],
        catalog: &RoleCatalog,
        schema: &Schema,
    ) -> Policy {
        let resolved = crate::policy::BatchPolicy::resolve(batch, None, catalog, schema);
        Policy::clone(resolved.as_uniform().unwrap())
    }

    fn tuple(tid: u64) -> Tuple {
        Tuple::new(
            StreamId(1),
            TupleId(tid),
            Timestamp(100),
            vec![Value::Int(tid as i64), Value::Int(70)],
        )
    }

    #[test]
    fn stream_level_policy_matches() {
        // "Only queries registered by a cardiologist can query HeartRate."
        let sp = SecurityPunctuation::grant_all(RoleSet::single(RoleId(0)), Timestamp(1))
            .with_ddp(DataDescription::stream("HeartRate"));
        assert!(sp.matches_tuple(&tuple(120), &schema()));
        assert!(!sp.matches_stream("BodyTemperature"));
        assert!(sp.governed_attrs(&schema()).is_none());
    }

    #[test]
    fn tuple_level_policy_matches_id_range() {
        // "Only GP can access tuples of patients with ids 120-133."
        let sp = SecurityPunctuation::grant_all(RoleSet::single(RoleId(1)), Timestamp(1))
            .with_ddp(DataDescription::tuple_range(120, 133));
        assert!(sp.matches_tuple(&tuple(120), &schema()));
        assert!(sp.matches_tuple(&tuple(133), &schema()));
        assert!(!sp.matches_tuple(&tuple(134), &schema()));
    }

    #[test]
    fn attribute_level_policy_selects_attrs() {
        // "Only a doctor or nurse-on-duty can query the heart beat."
        let sp = SecurityPunctuation::grant_all(RoleSet::from([1, 2]), Timestamp(1)).with_ddp(
            DataDescription {
                attrs: Pattern::compile("Beats_per_min|Temperature").unwrap(),
                ..DataDescription::everything()
            },
        );
        assert_eq!(sp.governed_attrs(&schema()), Some(vec![1]));
    }

    #[test]
    fn batch_combination_unions_grants() {
        let c = catalog();
        let s = schema();
        let batch = vec![
            Arc::new(SecurityPunctuation::grant_all(RoleSet::single(RoleId(0)), Timestamp(5))),
            Arc::new(SecurityPunctuation::grant_all(RoleSet::single(RoleId(1)), Timestamp(5))),
        ];
        let p = combine_batch(&batch, &c, &s);
        assert!(p.allows(&RoleSet::single(RoleId(0))));
        assert!(p.allows(&RoleSet::single(RoleId(1))));
        assert!(!p.allows(&RoleSet::single(RoleId(3))));
        assert_eq!(p.ts, Timestamp(5));
    }

    #[test]
    fn negative_sp_wins_within_batch_regardless_of_order() {
        let c = catalog();
        let s = schema();
        let deny_first = vec![
            Arc::new(
                SecurityPunctuation::grant_all(RoleSet::single(RoleId(1)), Timestamp(5)).negative(),
            ),
            Arc::new(SecurityPunctuation::grant_all(RoleSet::from([0, 1]), Timestamp(5))),
        ];
        let p = combine_batch(&deny_first, &c, &s);
        assert!(p.allows(&RoleSet::single(RoleId(0))));
        assert!(!p.allows(&RoleSet::single(RoleId(1))), "denial wins");
    }

    #[test]
    fn role_pattern_resolution_in_batch() {
        let c = catalog();
        let s = schema();
        let sp = SecurityPunctuation {
            ddp: DataDescription::everything(),
            srp: SecurityRestriction::role_pattern(
                Pattern::compile("doctor|nurse_on_duty").unwrap(),
            ),
            sign: Sign::Positive,
            immutable: false,
            ts: Timestamp(2),
        };
        let p = combine_batch(&[Arc::new(sp)], &c, &s);
        assert!(p.allows(&RoleSet::single(c.lookup_role("doctor").unwrap())));
        assert!(p.allows(&RoleSet::single(c.lookup_role("nurse_on_duty").unwrap())));
        assert!(!p.allows(&RoleSet::single(c.lookup_role("insurance").unwrap())));
    }

    #[test]
    fn attribute_batch_yields_attr_grants() {
        let c = catalog();
        let s = schema();
        let sp = SecurityPunctuation::grant_all(RoleSet::single(RoleId(2)), Timestamp(1)).with_ddp(
            DataDescription {
                attrs: Pattern::literal("Beats_per_min"),
                ..DataDescription::everything()
            },
        );
        let p = combine_batch(&[Arc::new(sp)], &c, &s);
        assert!(!p.allows(&RoleSet::single(RoleId(2))));
        assert!(p.allows_attr(1, &RoleSet::single(RoleId(2))));
        assert!(!p.allows_attr(0, &RoleSet::single(RoleId(2))));
    }

    #[test]
    fn immutable_flag_propagates() {
        let c = catalog();
        let s = schema();
        let sp =
            SecurityPunctuation::grant_all(RoleSet::single(RoleId(0)), Timestamp(1)).immutable();
        let p = combine_batch(&[Arc::new(sp)], &c, &s);
        assert!(p.immutable);
    }

    #[test]
    fn wire_round_trip_explicit_roles() {
        let sp = SecurityPunctuation::grant_all(RoleSet::from([0, 3, 77]), Timestamp(42))
            .with_ddp(DataDescription::tuple_range(10, 20))
            .negative()
            .immutable();
        let mut buf = Vec::new();
        sp.encode(&mut buf);
        let decoded =
            SecurityPunctuation::decode(&mut buf.as_slice(), &mut PatternTable::new()).unwrap();
        assert_eq!(decoded, sp);
    }

    #[test]
    fn wire_round_trip_pattern_roles() {
        let sp = SecurityPunctuation {
            ddp: DataDescription::stream("HeartRate"),
            srp: SecurityRestriction::role_pattern(Pattern::compile("doc.*|nurse.*").unwrap()),
            sign: Sign::Positive,
            immutable: false,
            ts: Timestamp(7),
        };
        let mut buf = Vec::new();
        sp.encode(&mut buf);
        let decoded =
            SecurityPunctuation::decode(&mut buf.as_slice(), &mut PatternTable::new()).unwrap();
        assert_eq!(decoded, sp);
    }

    #[test]
    fn wire_is_compact() {
        // A tuple-range sp with a handful of roles fits in well under 100
        // bytes — small enough to ride in the same network message as data.
        let sp = SecurityPunctuation::grant_all(RoleSet::from([1, 2, 3]), Timestamp(1))
            .with_ddp(DataDescription::tuple_range(100, 200));
        let mut buf = Vec::new();
        sp.encode(&mut buf);
        assert!(buf.len() < 100, "wire size {} too large", buf.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(SecurityPunctuation::decode(&mut &b"xx"[..], &mut PatternTable::new()).is_err());
        let mut buf = Vec::new();
        SecurityPunctuation::grant_all(RoleSet::new(), Timestamp(0)).encode(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(SecurityPunctuation::decode(&mut buf.as_slice(), &mut PatternTable::new()).is_err());
    }

    #[test]
    fn decode_refuses_role_ids_above_the_wire_ceiling() {
        // The encoder writes explicit role ids last, so the final four
        // bytes of a one-role sp are that role's id.
        let with_id = |id: u32| {
            let mut buf = Vec::new();
            SecurityPunctuation::grant_all(RoleSet::single(RoleId(0)), Timestamp(1))
                .encode(&mut buf);
            let at = buf.len() - 4;
            buf[at..].copy_from_slice(&id.to_be_bytes());
            SecurityPunctuation::decode(&mut buf.as_slice(), &mut PatternTable::new())
        };
        let at_ceiling = with_id(MAX_WIRE_ROLE_ID).unwrap();
        assert_eq!(at_ceiling.srp.roles, RoleSpec::Explicit(RoleSet::single(RoleId(65_535))));
        // Refused before a bitmap is sized for it (u32::MAX would be 512 MiB).
        assert!(with_id(MAX_WIRE_ROLE_ID + 1).is_err());
        assert!(with_id(u32::MAX).is_err());
    }

    #[test]
    fn pattern_table_is_bounded_and_never_keeps_a_failure() {
        let mut table = PatternTable::new();
        for i in 0..3 * PatternTable::CAPACITY {
            let src = format!("<{i}-{}>", i + 1);
            assert_eq!(table.pattern(src.as_bytes()).unwrap(), Pattern::compile(&src).unwrap());
            assert!(table.compiled.len() <= PatternTable::CAPACITY);
        }
        let long = "a".repeat(PatternTable::MAX_SOURCE_LEN + 1);
        let held = table.compiled.len();
        assert!(table.pattern(long.as_bytes()).unwrap().matches(&long));
        assert_eq!(table.compiled.len(), held, "an over-long source is compiled, not kept");
        for _ in 0..2 {
            assert!(table.pattern(b"<5-").is_err());
            assert!(table.pattern(&[0xFF, 0xFE]).is_err());
        }
        assert_eq!(table.compiled.len(), held);
        assert_eq!(table.pattern(b"*").unwrap(), Pattern::match_all());
        assert_eq!(table.compiled.len(), held, "`*` never reaches the table");
    }

    #[test]
    fn display_matches_paper_layout() {
        let sp = SecurityPunctuation::grant_all(RoleSet::single(RoleId(0)), Timestamp(9));
        let s = sp.to_string();
        assert!(s.starts_with("<(*,*,*) | RBAC:{r0} | + | F | 9ms>"), "{s}");
    }
}
