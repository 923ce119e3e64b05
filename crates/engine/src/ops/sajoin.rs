//! The Security-Aware Join (SAJoin) operator (§V-B).
//!
//! SAJoin is a sliding-window equijoin that stores the streaming policies
//! *together with the tuples* in its window state: each side's window is a
//! chronological list of s-punctuated segments — a segment policy followed
//! by the tuples it governs. Joining tuples must have compatible policies
//! (`P_t1 ∩ P_t2 ≠ ∅`); incompatible results are discarded and compatible
//! ones are emitted preceded by punctuations describing the intersection of
//! the base policies.
//!
//! Three physical variants are provided (Fig. 9):
//!
//! * **nested-loop, probe-and-filter (PF)** — probe by join value first,
//!   then check policy compatibility;
//! * **nested-loop, filter-and-probe (FP)** — skip policy-incompatible
//!   segments wholesale, then probe the survivors by join value;
//! * **index (SPIndex)** — a role-indexed punctuation index locates
//!   policy-compatible segments directly; the *skipping rule* (Lemma 5.1)
//!   prevents probing a segment once per shared role.
//!
//! Cost accounting matches the paper's breakdown: join time, sp
//! maintenance (index/segment bookkeeping), tuple maintenance (window
//! insertion + invalidation).
//!
//! The window stays segment-structured (it is what the SPIndex points
//! into); its tuple entries, their expiry rule and the output
//! announcements are the shared [`state`](super::state) ones.

use std::collections::VecDeque;
use std::sync::Arc;

use sp_core::{Policy, RoleId, SharedPolicy, Timestamp, Tuple};

use super::state::{self, Announcer, Entries};
use crate::checkpoint as ckpt;
use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::stats::{CostKind, OperatorStats};

/// Physical SAJoin variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinVariant {
    /// Nested loop, probe by value then filter by policy.
    NestedLoopPF,
    /// Nested loop, filter segments by policy then probe by value.
    NestedLoopFP,
    /// SPIndex-accelerated (the optimized version).
    #[default]
    Index,
}

/// One s-punctuated segment of a window: the governing policy and the
/// tuples (with their resolved policies) that arrived under it.
#[derive(Debug)]
struct Segment {
    /// Monotonic id, used by the SPIndex.
    id: u64,
    policy: Option<Arc<SegmentPolicy>>,
    /// `(tuple, resolved policy)` — uniform segments share one `Arc`.
    tuples: Entries,
}

impl Segment {
    /// The uniform policy roles, if the segment is uniform.
    fn uniform_policy(&self) -> Option<&SharedPolicy> {
        self.policy.as_ref().and_then(|p| p.as_uniform())
    }
}

/// The SPIndex (§V-B.2): an r-node array mapping each role to the FIFO list
/// of index entries (segments whose policies contain that role). Entries
/// are appended at the r-tail on sp arrival and removed from the r-head on
/// expiry, mirroring the window's chronological order.
#[derive(Debug, Default)]
struct SpIndex {
    /// `r_nodes[role] = deque of segment ids`, oldest first.
    r_nodes: Vec<VecDeque<u64>>,
}

/// Every role of every entry of `segment`'s policy, entry by entry.
fn segment_roles(segment: &Segment) -> impl Iterator<Item = RoleId> + '_ {
    segment.policy.iter().flat_map(|p| p.entries()).flat_map(|e| e.policy.tuple_roles().iter())
}

impl SpIndex {
    /// Appends `segment` at the r-tail of each of its roles.
    fn insert(&mut self, segment: &Segment) {
        for role in segment_roles(segment) {
            let idx = role.raw() as usize;
            if idx >= self.r_nodes.len() {
                self.r_nodes.resize_with(idx + 1, VecDeque::new);
            }
            self.r_nodes[idx].push_back(segment.id);
        }
    }

    fn remove(&mut self, segment: &Segment) {
        for role in segment_roles(segment) {
            if let Some(list) = self.r_nodes.get_mut(role.raw() as usize) {
                // The expired segment is always the globally oldest, so it
                // sits at the r-head of every list that contains it.
                if list.front() == Some(&segment.id) {
                    list.pop_front();
                } else {
                    list.retain(|&id| id != segment.id);
                }
            }
        }
    }

    fn entries(&self, role: RoleId) -> impl Iterator<Item = u64> + '_ {
        self.r_nodes.get(role.raw() as usize).into_iter().flatten().copied()
    }

    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<SpIndex>()
            + self
                .r_nodes
                .iter()
                .map(|l| std::mem::size_of::<VecDeque<u64>>() + l.capacity() * 8)
                .sum::<usize>()
    }
}

/// Per-side window state.
#[derive(Debug)]
struct Side {
    segments: VecDeque<Segment>,
    index: SpIndex,
    next_segment_id: u64,
    tuple_count: usize,
    key: usize,
}

impl Side {
    fn new(key: usize) -> Self {
        Self {
            segments: VecDeque::new(),
            index: SpIndex::default(),
            next_segment_id: 0,
            tuple_count: 0,
            key,
        }
    }

    fn segment_by_id(&self, id: u64) -> Option<&Segment> {
        // Segment ids are strictly increasing (but not dense — replaced
        // empty segments leave gaps), so binary search by id.
        let idx = self.segments.partition_point(|s| s.id < id);
        self.segments.get(idx).filter(|s| s.id == id)
    }

    /// Opens a new segment for `policy`, replacing a trailing empty one.
    fn open_segment(&mut self, policy: Arc<SegmentPolicy>, use_index: bool) {
        if self.segments.back().is_some_and(|last| last.tuples.is_empty()) {
            if let Some(last) = self.segments.pop_back() {
                if use_index {
                    self.index.remove(&last);
                }
            }
        }
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let segment = Segment { id, policy: Some(policy), tuples: Entries::new() };
        if use_index {
            self.index.insert(&segment);
        }
        self.segments.push_back(segment);
    }

    /// Appends a tuple under the current (last) segment; returns the
    /// policy that governs it there.
    fn insert_tuple(&mut self, tuple: Arc<Tuple>) -> SharedPolicy {
        if self.segments.is_empty() {
            // Tuples before any punctuation: denial-by-default segment.
            let id = self.next_segment_id;
            self.next_segment_id += 1;
            self.segments.push_back(Segment { id, policy: None, tuples: Entries::new() });
        }
        // Audited: a segment was pushed just above if none existed.
        #[allow(clippy::expect_used)]
        let seg = self.segments.back_mut().expect("segment exists");
        let policy = SegmentPolicy::governing(seg.policy.as_ref(), tuple.tid);
        seg.tuples.push_back((tuple, policy.clone()));
        self.tuple_count += 1;
        policy
    }

    fn mem_bytes(&self) -> usize {
        let mut bytes = self.index.mem_bytes();
        for seg in &self.segments {
            bytes += std::mem::size_of::<Segment>();
            if let Some(p) = &seg.policy {
                bytes += p.mem_bytes();
            }
            for (t, _) in &seg.tuples {
                bytes += t.mem_bytes() + std::mem::size_of::<SharedPolicy>();
            }
        }
        bytes
    }
}

/// The SAJoin operator.
#[derive(Debug)]
pub struct SAJoin {
    variant: JoinVariant,
    window_ms: u64,
    left: Side,
    right: Side,
    left_arity: usize,
    announcer: Announcer,
    /// Scratch: segment ids probed during the current index probe.
    probed: Vec<u64>,
    stats: OperatorStats,
}

impl SAJoin {
    /// An equijoin `left.key_l = right.key_r` over sliding windows of
    /// `window_ms` milliseconds per side. `left_arity` is the arity of
    /// left-side tuples (for attribute-grant remapping in output policies).
    #[must_use]
    pub fn new(
        variant: JoinVariant,
        window_ms: u64,
        left_key: usize,
        right_key: usize,
        left_arity: usize,
    ) -> Self {
        Self {
            variant,
            window_ms,
            left: Side::new(left_key),
            right: Side::new(right_key),
            left_arity,
            announcer: Announcer::default(),
            probed: Vec::new(),
            stats: OperatorStats::new(),
        }
    }

    /// The configured variant.
    #[must_use]
    pub fn variant(&self) -> JoinVariant {
        self.variant
    }

    /// Current window tuple counts `(left, right)`.
    #[must_use]
    pub fn window_sizes(&self) -> (usize, usize) {
        (self.left.tuple_count, self.right.tuple_count)
    }

    /// Combines the base tuples' policies into the output policy
    /// (intersection; attribute grants of the right side shift by the left
    /// arity). Ignores the immutability shortcut — both base policies
    /// constrain the result.
    fn join_policies(&self, left: &Policy, right: &Policy) -> Policy {
        let mut l = left.clone();
        l.immutable = false;
        let shift = self.left_arity as u16;
        let r = right.remap_attrs(|a| Some(a + shift));
        let mut out = l.intersect(&r);
        out.immutable = left.immutable || right.immutable;
        out
    }

    /// Invalidation (§V-B.1 step 2): expire tuples older than `now - W`
    /// from the head of the given side; purge fully-expired segments and
    /// their punctuations (and index entries).
    fn invalidate(&mut self, from_left: bool, now: Timestamp) {
        let window_ms = self.window_ms;
        let use_index = self.variant == JoinVariant::Index;
        let side = if from_left { &mut self.left } else { &mut self.right };
        while let Some(front) = side.segments.front_mut() {
            let tuple_start = std::time::Instant::now();
            while front.tuples.front().is_some_and(|(t, _)| state::expired(t, now, window_ms)) {
                front.tuples.pop_front();
                side.tuple_count -= 1;
            }
            self.stats.charge(CostKind::TupleMaintenance, tuple_start.elapsed());
            // A segment is purged once empty, unless it is the live tail
            // segment still governing future arrivals.
            if front.tuples.is_empty() && side.segments.len() > 1 {
                let sp_start = std::time::Instant::now();
                // Audited: len > 1 was just checked.
                #[allow(clippy::expect_used)]
                let seg = side.segments.pop_front().expect("front exists");
                if use_index {
                    side.index.remove(&seg);
                }
                self.stats.charge(CostKind::SpMaintenance, sp_start.elapsed());
            } else {
                break;
            }
        }
    }

    /// Join step: probe the opposite window with the new tuple.
    fn probe(
        &mut self,
        from_left: bool,
        tuple: &Arc<Tuple>,
        policy: &SharedPolicy,
        out: &mut Emitter,
    ) {
        let start = std::time::Instant::now();
        let (own_key, opp_key) = if from_left {
            (self.left.key, self.right.key)
        } else {
            (self.right.key, self.left.key)
        };
        let key_value = tuple.value(own_key).cloned();
        let Some(key_value) = key_value else {
            self.stats.charge(CostKind::Join, start.elapsed());
            return;
        };

        // Collect matches first to keep the borrow checker happy; the
        // emission cost is still charged to the join bucket.
        let mut matches: Vec<(Arc<Tuple>, SharedPolicy)> = Vec::new();
        // Policy test, then value test, tuple by tuple.
        let filter_probe = |seg: &Segment, matches: &mut Vec<_>| {
            for (u, up) in &seg.tuples {
                if policy.tuple_roles().intersects(up.tuple_roles())
                    && u.value(opp_key).is_some_and(|v| v.sql_eq(&key_value))
                {
                    matches.push((u.clone(), up.clone()));
                }
            }
        };
        {
            let opposite = if from_left { &self.right } else { &self.left };
            match self.variant {
                JoinVariant::NestedLoopPF => {
                    // Probe-and-filter: value test first, then policy test.
                    for seg in &opposite.segments {
                        for (u, up) in &seg.tuples {
                            if u.value(opp_key).is_some_and(|v| v.sql_eq(&key_value))
                                && policy.tuple_roles().intersects(up.tuple_roles())
                            {
                                matches.push((u.clone(), up.clone()));
                            }
                        }
                    }
                }
                JoinVariant::NestedLoopFP => {
                    // Filter-and-probe: skip policy-incompatible segments
                    // wholesale (uniform segments need one check), then
                    // value-probe the survivors.
                    for seg in &opposite.segments {
                        if let Some(up) = seg.uniform_policy() {
                            if !policy.tuple_roles().intersects(up.tuple_roles()) {
                                continue;
                            }
                        }
                        filter_probe(seg, &mut matches);
                    }
                }
                JoinVariant::Index => {
                    self.probed.clear();
                    for role in policy.tuple_roles().iter() {
                        for seg_id in opposite.index.entries(role) {
                            let Some(seg) = opposite.segment_by_id(seg_id) else {
                                continue;
                            };
                            let Some(up) = seg.uniform_policy() else {
                                // Scoped segment: guard against probing the
                                // same segment via several entries.
                                if self.probed.contains(&seg_id) {
                                    continue;
                                }
                                self.probed.push(seg_id);
                                filter_probe(seg, &mut matches);
                                continue;
                            };
                            // Skipping rule (Lemma 5.1), refined to stay
                            // sound: skip if the *first role common to both
                            // policies* is smaller than the current r-node
                            // role — that entry was already processed when
                            // the probe visited the smaller common role.
                            let common_first = up.tuple_roles().first_common(policy.tuple_roles());
                            if common_first.is_some_and(|r| r < role) {
                                continue;
                            }
                            for (u, upol) in &seg.tuples {
                                if u.value(opp_key).is_some_and(|v| v.sql_eq(&key_value)) {
                                    matches.push((u.clone(), upol.clone()));
                                }
                            }
                        }
                    }
                }
            }
        }

        for (u, up) in matches {
            let (joined, mut out_policy) = if from_left {
                (tuple.join(&u), self.join_policies(policy, &up))
            } else {
                (u.join(tuple), self.join_policies(&up, policy))
            };
            if out_policy.tuple_roles().is_empty() && out_policy.attr_grants().is_empty() {
                continue; // incompatible base policies
            }
            // Stamped with the *result's* timestamp so the output stream's
            // sps stay ordered: base policies of window tuples can be older
            // than policies already emitted, and downstream operators
            // rightly ignore punctuations that appear stale (§V-A).
            out_policy.ts = joined.ts;
            self.announcer.emit(out_policy, Arc::new(joined), &mut self.stats, out);
        }
        self.stats.charge(CostKind::Join, start.elapsed());
    }

    /// The per-element join state machine.
    fn handle(&mut self, from_left: bool, elem: Element, out: &mut Emitter) {
        match elem {
            Element::Policy(seg) => {
                // Policy collection (§V-B.1 step 1): store the sp in the
                // window; with the index variant also create index entries.
                let start = std::time::Instant::now();
                self.stats.sps_in += 1;
                let use_index = self.variant == JoinVariant::Index;
                let side = if from_left { &mut self.left } else { &mut self.right };
                side.open_segment(seg, use_index);
                self.stats.charge(CostKind::SpMaintenance, start.elapsed());
            }
            Element::Tuple(tuple) => {
                self.stats.tuples_in += 1;
                // Step 2: invalidate the opposite window.
                self.invalidate(!from_left, tuple.ts);
                // Insert into own window.
                let insert_start = std::time::Instant::now();
                let side = if from_left { &mut self.left } else { &mut self.right };
                let policy = side.insert_tuple(tuple.clone());
                self.stats.charge(CostKind::TupleMaintenance, insert_start.elapsed());
                // Step 3: probe the opposite window.
                self.probe(from_left, &tuple, &policy, out);
            }
        }
    }
}

impl Operator for SAJoin {
    fn name(&self) -> &str {
        "sajoin"
    }

    fn arity(&self) -> usize {
        2
    }

    /// One port check, then the join pipeline element by element: all join
    /// state (windows, invalidation, probes) is inherently sequential in
    /// arrival order. Time is charged per cost kind inside the
    /// maintenance/probe phases.
    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port >= 2 {
            return Err(EngineError::BadPort { operator: "sajoin".into(), port, arity: 2 });
        }
        let from_left = port == 0;
        for elem in batch {
            self.handle(from_left, elem, out);
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    fn state_mem_bytes(&self) -> usize {
        self.left.mem_bytes() + self.right.mem_bytes()
    }

    /// Snapshot: counters, both sides' s-punctuated segment lists (segment
    /// id, governing policy, tuples with resolved policies) and segment-id
    /// allocators, and the last announced output policy. The SPIndex and the
    /// per-side tuple counts are *derived* state, rebuilt on restore rather
    /// than serialized; `probed` is per-probe scratch.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        use bytes::BufMut;
        self.stats.encode_counters(buf);
        for side in [&self.left, &self.right] {
            buf.put_u64(side.next_segment_id);
            buf.put_u32(side.segments.len() as u32);
            for seg in &side.segments {
                buf.put_u64(seg.id);
                ckpt::encode_opt_segment(seg.policy.as_ref(), buf);
                state::encode_entries(&seg.tuples, buf);
            }
        }
        self.announcer.encode(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        use bytes::Buf;
        let use_index = self.variant == JoinVariant::Index;
        self.probed.clear();
        ckpt::restore("sajoin", bytes, |buf| {
            self.stats.decode_counters(buf)?;
            for side in [&mut self.left, &mut self.right] {
                ckpt::need(buf, 8, "sajoin side header")?;
                let next_segment_id = buf.get_u64();
                // A segment is at least its id, policy presence byte and
                // tuple count.
                let n = ckpt::get_count(buf, 8 + 1 + 4, "sajoin segment count")?;
                let mut segments = VecDeque::new();
                let mut tuple_count = 0usize;
                let mut index = SpIndex::default();
                let mut prev_id = None;
                for _ in 0..n {
                    ckpt::need(buf, 8, "sajoin segment id")?;
                    let id = buf.get_u64();
                    // `segment_by_id` binary-searches on ids, and the id
                    // allocator must stay ahead of every live segment.
                    if prev_id.is_some_and(|p| id <= p) {
                        return Err("sajoin segment ids out of order".into());
                    }
                    if id >= next_segment_id {
                        return Err("sajoin segment id beyond allocator".into());
                    }
                    prev_id = Some(id);
                    let policy = ckpt::decode_opt_segment(buf)?;
                    let tuples = state::decode_entries(buf, "sajoin segment tuple count")?;
                    tuple_count += tuples.len();
                    let segment = Segment { id, policy, tuples };
                    if use_index {
                        index.insert(&segment);
                    }
                    segments.push_back(segment);
                }
                side.segments = segments;
                side.index = index;
                side.next_segment_id = next_segment_id;
                side.tuple_count = tuple_count;
            }
            self.announcer = Announcer::decode(buf)?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::OperatorExt;
    use sp_core::{RoleSet, StreamId, TupleId, Value};

    fn tup(sid: u32, tid: u64, ts: u64, key: i64) -> Element {
        Element::tuple(Tuple::new(
            StreamId(sid),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(key), Value::Int(tid as i64)],
        ))
    }

    fn pol(roles: &[u32], ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        )))
    }

    fn run(join: &mut SAJoin, input: Vec<(usize, Element)>) -> Vec<Element> {
        let mut em = Emitter::new();
        let mut collected = Vec::new();
        for (port, elem) in input {
            join.process(port, elem, &mut em).unwrap();
            collected.extend(em.drain());
        }
        collected
    }

    fn joined_pairs(out: &[Element]) -> Vec<(i64, i64)> {
        out.iter()
            .filter_map(|e| e.as_tuple())
            .map(|t| (t.value(1).unwrap().as_i64().unwrap(), t.value(3).unwrap().as_i64().unwrap()))
            .collect()
    }

    fn all_variants() -> [JoinVariant; 3] {
        [JoinVariant::NestedLoopPF, JoinVariant::NestedLoopFP, JoinVariant::Index]
    }

    #[test]
    fn equijoin_with_compatible_policies() {
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 1000, 0, 0, 2);
            let out = run(
                &mut j,
                vec![
                    (0, pol(&[1], 0)),
                    (0, tup(1, 10, 1, 42)),
                    (1, pol(&[1, 2], 0)),
                    (1, tup(2, 20, 2, 42)),
                ],
            );
            assert_eq!(joined_pairs(&out), vec![(10, 20)], "{variant:?}");
            // Output punctuation precedes the result and is the policy
            // intersection.
            let seg = out.iter().find_map(|e| e.as_policy()).expect("output policy emitted");
            let p = seg.as_uniform().unwrap();
            assert!(p.allows(&RoleSet::from([1])));
            assert!(!p.allows(&RoleSet::from([2])));
        }
    }

    #[test]
    fn incompatible_policies_are_discarded() {
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 1000, 0, 0, 2);
            let out = run(
                &mut j,
                vec![
                    (0, pol(&[1], 0)),
                    (0, tup(1, 10, 1, 42)),
                    (1, pol(&[2], 0)),
                    (1, tup(2, 20, 2, 42)),
                ],
            );
            assert!(joined_pairs(&out).is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn non_matching_keys_do_not_join() {
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 1000, 0, 0, 2);
            let out = run(
                &mut j,
                vec![
                    (0, pol(&[1], 0)),
                    (0, tup(1, 10, 1, 42)),
                    (1, pol(&[1], 0)),
                    (1, tup(2, 20, 2, 43)),
                ],
            );
            assert!(joined_pairs(&out).is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn window_invalidation_expires_old_tuples() {
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 100, 0, 0, 2);
            let out = run(
                &mut j,
                vec![
                    (0, pol(&[1], 0)),
                    (0, tup(1, 10, 0, 42)),
                    (1, pol(&[1], 0)),
                    // ts 200 > 0 + 100: the left tuple has expired.
                    (1, tup(2, 20, 200, 42)),
                ],
            );
            assert!(joined_pairs(&out).is_empty(), "{variant:?}");
            assert_eq!(j.window_sizes().0, 0, "{variant:?}: left emptied");
        }
    }

    #[test]
    fn expired_segments_purge_their_punctuations() {
        let mut j = SAJoin::new(JoinVariant::Index, 100, 0, 0, 2);
        let _ = run(
            &mut j,
            vec![
                (0, pol(&[1], 0)),
                (0, tup(1, 10, 0, 1)),
                (0, pol(&[2], 50)),
                (0, tup(1, 11, 50, 2)),
                (1, pol(&[1, 2], 0)),
                (1, tup(2, 20, 500, 3)),
            ],
        );
        // Both left segments expired; only the live tail remains.
        assert_eq!(j.left.segments.len(), 1);
        assert!(j.left.index.entries(RoleId(1)).next().is_none());
    }

    #[test]
    fn duplicate_join_prevention_with_shared_roles() {
        // Tuples share TWO roles; the skipping rule must join them once.
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 1000, 0, 0, 2);
            let out = run(
                &mut j,
                vec![
                    (0, pol(&[3, 7], 0)),
                    (0, tup(1, 10, 1, 42)),
                    (1, pol(&[3, 7], 0)),
                    (1, tup(2, 20, 2, 42)),
                ],
            );
            assert_eq!(joined_pairs(&out), vec![(10, 20)], "{variant:?}");
        }
    }

    #[test]
    fn skipping_rule_refinement_keeps_joins_whose_first_role_differs() {
        // Right policy {1, 5}; left probe policy {5}. The sp's first role
        // (1) is smaller than the probing r-node (5) but is NOT in the
        // probing policy — a naive Lemma 5.1 would wrongly skip.
        let mut j = SAJoin::new(JoinVariant::Index, 1000, 0, 0, 2);
        let out = run(
            &mut j,
            vec![
                (1, pol(&[1, 5], 0)),
                (1, tup(2, 20, 1, 42)),
                (0, pol(&[5], 0)),
                (0, tup(1, 10, 2, 42)),
            ],
        );
        assert_eq!(joined_pairs(&out), vec![(10, 20)]);
    }

    #[test]
    fn variants_agree_on_random_streams() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Build a random interleaving of policies and tuples on both ports.
        let mut input = Vec::new();
        for ts in 0..300u64 {
            let port = usize::from(rng.gen_bool(0.5));
            if rng.gen_bool(0.2) {
                let roles: Vec<u32> =
                    (0..rng.gen_range(1..4)).map(|_| rng.gen_range(0..6)).collect();
                input.push((port, pol(&roles, ts)));
            } else {
                input.push((port, tup(port as u32, ts, ts, rng.gen_range(0..5))));
            }
        }
        let mut outs = Vec::new();
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 80, 0, 0, 2);
            let out = run(&mut j, input.clone());
            let mut pairs = joined_pairs(&out);
            pairs.sort_unstable();
            outs.push(pairs);
        }
        assert_eq!(outs[0], outs[1], "PF vs FP");
        assert_eq!(outs[0], outs[2], "PF vs Index");
        assert!(!outs[0].is_empty(), "the workload should produce joins");
    }

    #[test]
    fn output_policies_are_shared_between_identical_results() {
        let mut j = SAJoin::new(JoinVariant::Index, 1000, 0, 0, 2);
        let out = run(
            &mut j,
            vec![
                (0, pol(&[1], 0)),
                (0, tup(1, 10, 1, 42)),
                (0, tup(1, 11, 2, 42)),
                (1, pol(&[1], 0)),
                (1, tup(2, 20, 3, 42)),
            ],
        );
        // Two join results, one shared output punctuation.
        assert_eq!(joined_pairs(&out).len(), 2);
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 1);
    }

    #[test]
    fn tuples_before_any_punctuation_are_denied() {
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 1000, 0, 0, 2);
            let out = run(
                &mut j,
                vec![
                    (0, tup(1, 10, 1, 42)), // no sp yet: deny-all
                    (1, pol(&[1], 0)),
                    (1, tup(2, 20, 2, 42)),
                ],
            );
            assert!(joined_pairs(&out).is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn attribute_grants_shift_in_output_policy() {
        let left_policy = Policy::tuple_level(RoleSet::from([1]), Timestamp(0));
        let right_policy = Policy::tuple_level(RoleSet::from([1]), Timestamp(0))
            .with_attr_grant(1, RoleSet::from([9]));
        let mut j = SAJoin::new(JoinVariant::NestedLoopPF, 1000, 0, 0, 2);
        let out = run(
            &mut j,
            vec![
                (0, Element::policy(SegmentPolicy::uniform(left_policy))),
                (0, tup(1, 10, 1, 42)),
                (1, Element::policy(SegmentPolicy::uniform(right_policy))),
                (1, tup(2, 20, 2, 42)),
            ],
        );
        let seg = out.iter().find_map(|e| e.as_policy()).unwrap();
        let p = seg.as_uniform().unwrap();
        // Right attr 1 shifted by left arity (2) → output attr 3; the
        // grant is intersected with the left tuple policy's roles, and role
        // 9 cannot see the left base tuple, so it must NOT survive.
        assert!(!p.allows_attr(3, &RoleSet::from([9])));
        assert!(p.allows(&RoleSet::from([1])));
    }

    #[test]
    fn scoped_segments_join_correctly_through_the_index() {
        use crate::element::PolicyEntry;
        use sp_pattern::Pattern;
        // A right-side segment with TWO scoped entries whose role sets both
        // intersect the probe policy: the per-probe visited guard must
        // prevent double-joining tuples of that segment.
        let seg = SegmentPolicy::new(
            vec![
                PolicyEntry {
                    scope: Pattern::numeric_range(0, 10),
                    policy: std::sync::Arc::new(Policy::tuple_level(
                        RoleSet::from([1, 2]),
                        Timestamp(0),
                    )),
                },
                PolicyEntry {
                    scope: Pattern::numeric_range(11, 99),
                    policy: std::sync::Arc::new(Policy::tuple_level(
                        RoleSet::from([1, 3]),
                        Timestamp(0),
                    )),
                },
            ],
            Timestamp(0),
        );
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 10_000, 0, 0, 2);
            let out = run(
                &mut j,
                vec![
                    (1, Element::policy(seg.clone())),
                    (1, tup(2, 5, 1, 42)),  // governed by entry 1 ({1,2})
                    (1, tup(2, 50, 2, 42)), // governed by entry 2 ({1,3})
                    (0, pol(&[1], 0)),
                    (0, tup(1, 7, 3, 42)), // probe with roles {1}
                ],
            );
            let pairs = joined_pairs(&out);
            assert_eq!(pairs.len(), 2, "{variant:?}: each partner exactly once");
            assert!(pairs.contains(&(7, 5)) && pairs.contains(&(7, 50)), "{variant:?}");
        }
    }

    #[test]
    fn scoped_segment_denies_out_of_scope_window_tuples() {
        let seg = SegmentPolicy::new(
            vec![crate::element::PolicyEntry {
                scope: sp_pattern::Pattern::numeric_range(0, 10),
                policy: std::sync::Arc::new(Policy::tuple_level(RoleSet::from([1]), Timestamp(0))),
            }],
            Timestamp(0),
        );
        for variant in all_variants() {
            let mut j = SAJoin::new(variant, 10_000, 0, 0, 2);
            let out = run(
                &mut j,
                vec![
                    (1, Element::policy(seg.clone())),
                    (1, tup(2, 99, 1, 42)), // OUT of scope → deny-all in window
                    (0, pol(&[1], 0)),
                    (0, tup(1, 7, 2, 42)),
                ],
            );
            assert!(
                joined_pairs(&out).is_empty(),
                "{variant:?}: deny-all window tuples never join"
            );
        }
    }

    #[test]
    fn state_memory_reflects_windows() {
        let mut j = SAJoin::new(JoinVariant::Index, 1000, 0, 0, 2);
        let empty = j.state_mem_bytes();
        let _ = run(&mut j, vec![(0, pol(&[1], 0)), (0, tup(1, 10, 1, 42))]);
        assert!(j.state_mem_bytes() > empty);
        assert_eq!(j.arity(), 2);
        assert_eq!(j.name(), "sajoin");
        assert_eq!(j.variant(), JoinVariant::Index);
    }
}
