//! Compact role sets.
//!
//! The paper (§I-C) suggests encoding policies "in a bitmap format for
//! compactness, thus further reducing security-related processing".
//! [`RoleSet`] is that bitmap: a growable `u64`-word bitset over
//! [`RoleId`]s with word-at-a-time set algebra. All policy operations of the
//! security-aware algebra (Table I) reduce to these operations.
//!
//! The first [`INLINE_WORDS`] words (roles 0–127) live inside the value, so
//! the role sets of a typical deployment — and every clone, union and
//! narrowing of them on the per-sp path — never touch the heap; a set
//! naming a larger role spills to a heap bitmap.

use std::fmt;

use crate::ids::RoleId;

/// Bitmap words a [`RoleSet`] holds without allocating.
const INLINE_WORDS: usize = 2;

/// A bitmap's words: inline up to [`INLINE_WORDS`], on the heap beyond.
/// Which one a set uses is invisible: equality, hashing and encoding all
/// look at the words up to the last non-zero one.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A set of roles, stored as a bitmap.
#[derive(Clone)]
pub struct RoleSet {
    words: Words,
}

impl Default for RoleSet {
    fn default() -> Self {
        Self { words: Words::Inline([0; INLINE_WORDS]) }
    }
}

impl PartialEq for RoleSet {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: trailing zero words are irrelevant.
        self.trimmed() == other.trimmed()
    }
}

impl Eq for RoleSet {}

impl std::hash::Hash for RoleSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Consistent with semantic equality: skip trailing zero words.
        self.trimmed().hash(state);
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
        let mut s = Self::new();
        s.grow(max.0 as usize / 64 + 1);
        s
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

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    /// The words up to and including the last non-zero one.
    fn trimmed(&self) -> &[u64] {
        let words = self.words();
        let end = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        &words[..end]
    }

    /// The words, with at least `n` of them (zero-filled, spilling to the
    /// heap past [`INLINE_WORDS`]).
    fn grow(&mut self, n: usize) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) if n > INLINE_WORDS => {
                let mut heap = Vec::with_capacity(n);
                heap.extend_from_slice(w);
                heap.resize(n, 0);
                self.words = Words::Heap(heap);
            }
            Words::Heap(w) if n > w.len() => w.resize(n, 0),
            _ => {}
        }
        self.words_mut()
    }

    /// Inserts a role; returns true if it was newly added.
    pub fn insert(&mut self, r: RoleId) -> bool {
        let (w, b) = (r.0 as usize / 64, r.0 as usize % 64);
        let word = &mut self.grow(w + 1)[w];
        let had = *word & (1 << b) != 0;
        *word |= 1 << b;
        !had
    }

    /// Removes a role; returns true if it was present.
    pub fn remove(&mut self, r: RoleId) -> bool {
        let (w, b) = (r.0 as usize / 64, r.0 as usize % 64);
        let Some(word) = self.words_mut().get_mut(w) else {
            return false;
        };
        let had = *word & (1 << b) != 0;
        *word &= !(1 << b);
        had
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, r: RoleId) -> bool {
        let (w, b) = (r.0 as usize / 64, r.0 as usize % 64);
        self.words().get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// True if no role is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Number of roles present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the two sets share at least one role — the policy
    /// compatibility test `Pt ∩ p ≠ ∅` at the heart of the Security Shield
    /// and SAJoin operators. Early-exits on the first overlapping word.
    #[must_use]
    pub fn intersects(&self, other: &RoleSet) -> bool {
        self.words().iter().zip(other.words()).any(|(a, b)| a & b != 0)
    }

    /// True if every role of `self` is in `other`.
    #[must_use]
    pub fn is_subset(&self, other: &RoleSet) -> bool {
        let theirs = other.words();
        self.words().iter().enumerate().all(|(i, &w)| w & !theirs.get(i).copied().unwrap_or(0) == 0)
    }

    /// In-place union (`union()` of the paper's policy operations).
    pub fn union_with(&mut self, other: &RoleSet) {
        let theirs = other.trimmed();
        for (a, b) in self.grow(theirs.len()).iter_mut().zip(theirs) {
            *a |= b;
        }
    }

    /// In-place intersection (`intersect()` of the paper's policy operations).
    pub fn intersect_with(&mut self, other: &RoleSet) {
        let theirs = other.words();
        for (i, a) in self.words_mut().iter_mut().enumerate() {
            *a &= theirs.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference: removes every role of `other`.
    pub fn minus_with(&mut self, other: &RoleSet) {
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
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
        self.words().iter().enumerate().flat_map(|(wi, &word)| {
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
        for (i, (a, b)) in self.words().iter().zip(other.words()).enumerate() {
            let both = a & b;
            if both != 0 {
                return Some(RoleId((i as u32) * 64 + both.trailing_zeros()));
            }
        }
        None
    }

    /// Approximate footprint in bytes: the set itself (its inline words
    /// included) plus the capacity of a spilled heap bitmap, so a set of
    /// roles below 128 counts `size_of::<RoleSet>()` alone.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        let heap = match &self.words {
            Words::Inline(_) => 0,
            Words::Heap(w) => w.capacity() * 8,
        };
        std::mem::size_of::<RoleSet>() + heap
    }

    /// Serializes the bitmap as `[u16 word count][u64 words…]`, big-endian.
    ///
    /// Trailing zero words are trimmed, so semantically equal sets always
    /// produce identical bytes — required for byte-comparable snapshots —
    /// whether they are held inline or spilled.
    pub fn encode(&self, buf: &mut impl bytes::BufMut) {
        let words = self.trimmed();
        buf.put_u16(words.len() as u16);
        for &w in words {
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
        let mut s = Self::new();
        for w in &mut s.grow(n)[..n] {
            *w = buf.get_u64();
        }
        Ok(s)
    }

    /// Drops trailing zero words (keeps footprint proportional to content),
    /// moving a spilled set whose roles all fit back inline.
    pub fn shrink(&mut self) {
        let n = self.trimmed().len();
        if let Words::Heap(w) = &mut self.words {
            if n <= INLINE_WORDS {
                let mut inline = [0; INLINE_WORDS];
                inline[..n].copy_from_slice(&w[..n]);
                self.words = Words::Inline(inline);
            } else {
                w.truncate(n);
                w.shrink_to_fit();
            }
        }
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
    fn roles_below_128_stay_inline() {
        assert!(std::mem::size_of::<RoleSet>() <= 32);
        let inline = RoleSet::from([0, 63, 64, 127]);
        assert_eq!(inline.mem_bytes(), std::mem::size_of::<RoleSet>());
        assert_eq!(RoleSet::with_room_for(RoleId(127)).mem_bytes(), inline.mem_bytes());
        let mut spilled = inline.union(&RoleSet::from([128]));
        assert!(spilled.mem_bytes() > inline.mem_bytes());
        spilled.remove(RoleId(128));
        assert_eq!(spilled, inline, "trailing zero heap words are irrelevant");
        spilled.shrink();
        assert_eq!(spilled.mem_bytes(), inline.mem_bytes(), "shrink moves it back inline");
    }

    #[test]
    fn display_and_debug() {
        let s = RoleSet::from([2, 5]);
        assert_eq!(format!("{s}"), "{r2,r5}");
        assert_eq!(format!("{s:?}"), "{r2,r5}");
    }
}
