//! Compact role sets.
//!
//! The paper (§I-C) suggests encoding policies "in a bitmap format for
//! compactness, thus further reducing security-related processing".
//! [`RoleSet`] is that bitmap: a growable `u64`-word bitset over
//! [`RoleId`]s with word-at-a-time set algebra. All policy operations of the
//! security-aware algebra (Table I) reduce to these operations.

use std::fmt;

use crate::ids::RoleId;

/// A set of roles, stored as a bitmap.
#[derive(Clone, Default)]
pub struct RoleSet {
    words: Vec<u64>,
}

impl PartialEq for RoleSet {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: trailing zero words are irrelevant.
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for RoleSet {}

impl std::hash::Hash for RoleSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Consistent with semantic equality: skip trailing zero words.
        let end = self.words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        self.words[..end].hash(state);
    }
}

impl RoleSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The empty set with its bitmap already sized for every role up to
    /// and including `max`, so inserting those never reallocates.
    #[must_use]
    pub fn with_room_for(max: RoleId) -> Self {
        Self { words: vec![0; max.0 as usize / 64 + 1] }
    }

    /// A set containing the single role `r`.
    #[must_use]
    pub fn single(r: RoleId) -> Self {
        let mut s = Self::new();
        s.insert(r);
        s
    }

    /// A set containing all roles with ids `0..n`.
    #[must_use]
    pub fn all_below(n: u32) -> Self {
        let mut s = Self::new();
        for r in 0..n {
            s.insert(RoleId(r));
        }
        s
    }

    /// Inserts a role; returns true if it was newly added.
    pub fn insert(&mut self, r: RoleId) -> bool {
        let (w, b) = (r.0 as usize / 64, r.0 as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes a role; returns true if it was present.
    pub fn remove(&mut self, r: RoleId) -> bool {
        let (w, b) = (r.0 as usize / 64, r.0 as usize % 64);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, r: RoleId) -> bool {
        let (w, b) = (r.0 as usize / 64, r.0 as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// True if no role is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of roles present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the two sets share at least one role — the policy
    /// compatibility test `Pt ∩ p ≠ ∅` at the heart of the Security Shield
    /// and SAJoin operators. Early-exits on the first overlapping word.
    #[must_use]
    pub fn intersects(&self, other: &RoleSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// True if every role of `self` is in `other`.
    #[must_use]
    pub fn is_subset(&self, other: &RoleSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// In-place union (`union()` of the paper's policy operations).
    pub fn union_with(&mut self, other: &RoleSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection (`intersect()` of the paper's policy operations).
    pub fn intersect_with(&mut self, other: &RoleSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference: removes every role of `other`.
    pub fn minus_with(&mut self, other: &RoleSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Owned union.
    #[must_use]
    pub fn union(&self, other: &RoleSet) -> RoleSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Owned intersection.
    #[must_use]
    pub fn intersect(&self, other: &RoleSet) -> RoleSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Owned difference (`self − other`); the duplicate-elimination
    /// operator's case 3 emits `P_new − (P_old ∩ P_new)` with this.
    #[must_use]
    pub fn minus(&self, other: &RoleSet) -> RoleSet {
        let mut out = self.clone();
        out.minus_with(other);
        out
    }

    /// Iterates the roles in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = RoleId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some(RoleId((wi as u32) * 64 + b))
                }
            })
        })
    }

    /// The smallest role id present, if any. Used by the SPIndex skipping
    /// rule (Lemma 5.1), which keys each punctuation by its first role.
    #[must_use]
    pub fn first(&self) -> Option<RoleId> {
        self.iter().next()
    }

    /// The smallest role present in **both** sets, without allocating —
    /// the hot operation of the (refined) SPIndex skipping rule.
    #[must_use]
    pub fn first_common(&self, other: &RoleSet) -> Option<RoleId> {
        for (i, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let both = a & b;
            if both != 0 {
                return Some(RoleId((i as u32) * 64 + both.trailing_zeros()));
            }
        }
        None
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<RoleSet>() + self.words.capacity() * 8
    }

    /// Serializes the bitmap as `[u16 word count][u64 words…]`, big-endian.
    ///
    /// Trailing zero words are trimmed, so semantically equal sets always
    /// produce identical bytes — required for byte-comparable snapshots.
    pub fn encode(&self, buf: &mut impl bytes::BufMut) {
        let end = self.words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        buf.put_u16(end as u16);
        for &w in &self.words[..end] {
            buf.put_u64(w);
        }
    }

    /// Deserializes a bitmap produced by [`RoleSet::encode`].
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode(buf: &mut impl bytes::Buf) -> Result<Self, String> {
        if buf.remaining() < 2 {
            return Err("truncated role set header".into());
        }
        let n = buf.get_u16() as usize;
        if buf.remaining() < n * 8 {
            return Err("truncated role set words".into());
        }
        let words = (0..n).map(|_| buf.get_u64()).collect();
        Ok(Self { words })
    }

    /// Drops trailing zero words (keeps footprint proportional to content).
    pub fn shrink(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        self.words.shrink_to_fit();
    }
}

impl FromIterator<RoleId> for RoleSet {
    fn from_iter<I: IntoIterator<Item = RoleId>>(iter: I) -> Self {
        let mut s = Self::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl<const N: usize> From<[u32; N]> for RoleSet {
    fn from(ids: [u32; N]) -> Self {
        ids.into_iter().map(RoleId).collect()
    }
}

fn fmt_roles(set: &RoleSet, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{{")?;
    for (i, r) in set.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "r{}", r.0)?;
    }
    write!(f, "}}")
}

impl fmt::Debug for RoleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_roles(self, f)
    }
}

impl fmt::Display for RoleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_roles(self, f)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = RoleSet::new();
        assert!(s.insert(RoleId(3)));
        assert!(!s.insert(RoleId(3)));
        assert!(s.contains(RoleId(3)));
        assert!(!s.contains(RoleId(64)));
        assert!(s.insert(RoleId(200)));
        assert!(s.contains(RoleId(200)));
        assert!(s.remove(RoleId(3)));
        assert!(!s.remove(RoleId(3)));
        assert!(!s.remove(RoleId(999)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = RoleSet::from([1, 2, 3, 100]);
        let b = RoleSet::from([3, 4, 100, 200]);
        assert_eq!(a.union(&b), RoleSet::from([1, 2, 3, 4, 100, 200]));
        assert_eq!(a.intersect(&b), RoleSet::from([3, 100]));
        assert_eq!(a.minus(&b), RoleSet::from([1, 2]));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&RoleSet::from([9, 300])));
        assert!(RoleSet::from([3]).is_subset(&a));
        assert!(!RoleSet::from([3, 9]).is_subset(&a));
        assert!(RoleSet::new().is_subset(&a));
    }

    #[test]
    fn empty_and_len() {
        assert!(RoleSet::new().is_empty());
        let mut s = RoleSet::from([70]);
        assert!(!s.is_empty());
        s.remove(RoleId(70));
        assert!(s.is_empty(), "all-zero words count as empty");
        assert_eq!(RoleSet::all_below(130).len(), 130);
    }

    #[test]
    fn iteration_is_sorted() {
        let s = RoleSet::from([200, 1, 65, 64]);
        let ids: Vec<u32> = s.iter().map(|r| r.0).collect();
        assert_eq!(ids, vec![1, 64, 65, 200]);
        assert_eq!(s.first(), Some(RoleId(1)));
        assert_eq!(RoleSet::new().first(), None);
    }

    #[test]
    fn first_common_matches_intersect_first() {
        let a = RoleSet::from([5, 70, 200]);
        let b = RoleSet::from([6, 70, 300]);
        assert_eq!(a.first_common(&b), a.intersect(&b).first());
        assert_eq!(a.first_common(&RoleSet::from([1])), None);
        assert_eq!(RoleSet::new().first_common(&a), None);
        assert_eq!(a.first_common(&a), Some(RoleId(5)));
    }

    #[test]
    fn intersect_with_differing_lengths() {
        let mut a = RoleSet::from([1, 300]);
        a.intersect_with(&RoleSet::from([1]));
        assert_eq!(a, RoleSet::from([1]));
        let mut b = RoleSet::from([1]);
        b.intersect_with(&RoleSet::from([1, 300]));
        assert_eq!(b, RoleSet::from([1]));
    }

    #[test]
    fn shrink_drops_trailing_words() {
        let mut s = RoleSet::from([500]);
        s.remove(RoleId(500));
        s.shrink();
        assert_eq!(s.mem_bytes(), std::mem::size_of::<RoleSet>());
    }

    #[test]
    fn display_and_debug() {
        let s = RoleSet::from([2, 5]);
        assert_eq!(format!("{s}"), "{r2,r5}");
        assert_eq!(format!("{s:?}"), "{r2,r5}");
    }
}
