//! Stream tuples: `t = [sid, tid, A, ts]` (§II-B of the paper).

use std::fmt;
use std::sync::Arc;

use crate::ids::{StreamId, Timestamp, TupleId};
use crate::schema::Schema;
use crate::value::Value;

/// A data tuple flowing through the engine.
///
/// Tuples are shared via `Arc<Tuple>` between operators and window states,
/// so a tuple is allocated once on arrival and then cloned by reference. A
/// projection that owns its tuple outright (no other `Arc` holds it)
/// compacts it in place ([`Tuple::project_in_place`]); every other change
/// builds a new tuple. Tuples are **completely unaware of security
/// punctuations** (§III-A) — they carry no policy fields; the
/// punctuation-based mechanism attaches policies contextually.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Source stream identifier.
    pub sid: StreamId,
    /// Tuple identifier (usually the data-provider key, e.g. patient id).
    pub tid: TupleId,
    /// Arrival timestamp; streams are timestamp-ordered.
    pub ts: Timestamp,
    /// Attribute values, positionally matching the stream's [`Schema`].
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple.
    #[must_use]
    pub fn new(sid: StreamId, tid: TupleId, ts: Timestamp, values: Vec<Value>) -> Self {
        Self { sid, tid, ts, values }
    }

    /// Creates a shared tuple directly.
    #[must_use]
    pub fn shared(sid: StreamId, tid: TupleId, ts: Timestamp, values: Vec<Value>) -> Arc<Self> {
        Arc::new(Self::new(sid, tid, ts, values))
    }

    /// All attribute values.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at position `idx`.
    #[must_use]
    pub fn value(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Value of the attribute named `name` under `schema`.
    #[must_use]
    pub fn value_by_name<'t>(&'t self, schema: &Schema, name: &str) -> Option<&'t Value> {
        schema.index_of(name).and_then(|i| self.values.get(i))
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// A new tuple keeping only the attributes at `indices` (projection).
    #[must_use]
    pub fn project(&self, indices: &[usize]) -> Tuple {
        let values = indices.iter().map(|&i| self.values[i].clone()).collect();
        Tuple { sid: self.sid, tid: self.tid, ts: self.ts, values }
    }

    /// Projects this tuple onto `indices` in place, as [`Tuple::project`]
    /// would. Strictly increasing in-range indices (the common `SELECT`
    /// list in schema order) move the kept values down and truncate, with
    /// no allocation; the spare slots stay allocated. Any other list
    /// builds one fresh value vector.
    ///
    /// # Panics
    ///
    /// Panics, as [`Tuple::project`] does, if an index is out of range.
    pub fn project_in_place(&mut self, indices: &[usize]) {
        let increasing = indices.windows(2).all(|w| w[0] < w[1]);
        if increasing && indices.last().is_none_or(|&i| i < self.values.len()) {
            for (to, &from) in indices.iter().enumerate() {
                self.values.swap(to, from);
            }
            self.values.truncate(indices.len());
        } else {
            self.values = indices.iter().map(|&i| self.values[i].clone()).collect();
        }
    }

    /// A new tuple with the attributes at `masked` replaced by `Null`
    /// (attribute-granularity access control).
    #[must_use]
    pub fn mask(&self, masked: &[usize]) -> Tuple {
        let mut values = self.values.to_vec();
        for &i in masked {
            if let Some(slot) = values.get_mut(i) {
                *slot = Value::Null;
            }
        }
        Tuple { sid: self.sid, tid: self.tid, ts: self.ts, values }
    }

    /// Concatenates two tuples into a join output. The result takes the
    /// left tuple's `sid`/`tid` and the *later* of the two timestamps (the
    /// moment the join result could first exist).
    #[must_use]
    pub fn join(&self, right: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + right.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&right.values);
        Tuple { sid: self.sid, tid: self.tid, ts: self.ts.max(right.ts), values }
    }

    /// Approximate heap footprint in bytes (used by the memory experiments).
    /// Counts every allocated value slot: a tuple compacted in place keeps
    /// the slots it no longer uses.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        let mut bytes =
            std::mem::size_of::<Tuple>() + self.values.capacity() * std::mem::size_of::<Value>();
        for v in &self.values {
            if let Value::Text(s) = v {
                bytes += s.len();
            }
        }
        bytes
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[s{} #{} @{} |", self.sid, self.tid, self.ts)?;
        for v in self.values.iter() {
            write!(f, " {v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::value::ValueType;

    fn tup() -> Tuple {
        Tuple::new(
            StreamId(1),
            TupleId(120),
            Timestamp(1000),
            vec![Value::Int(120), Value::Int(70)],
        )
    }

    #[test]
    fn access_by_index_and_name() {
        let schema = crate::schema::Schema::of(
            "HeartRate",
            &[("Patient_id", ValueType::Int), ("Beats_per_min", ValueType::Int)],
        );
        let t = tup();
        assert_eq!(t.value(1), Some(&Value::Int(70)));
        assert_eq!(t.value(2), None);
        assert_eq!(t.value_by_name(&schema, "Patient_id"), Some(&Value::Int(120)));
        assert_eq!(t.value_by_name(&schema, "zzz"), None);
        assert_eq!(t.arity(), 2);
    }

    #[test]
    fn projection_keeps_identity() {
        let p = tup().project(&[1]);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.tid, TupleId(120));
        assert_eq!(p.value(0), Some(&Value::Int(70)));
    }

    fn wide() -> Tuple {
        Tuple::new(
            StreamId(1),
            TupleId(7),
            Timestamp(9),
            vec![Value::Int(0), Value::text("one"), Value::Float(2.0), Value::Int(3)],
        )
    }

    /// `project_in_place` leaves what `project` builds, for every shape
    /// of index list.
    fn check_in_place(indices: &[usize]) -> Tuple {
        let mut t = wide();
        t.project_in_place(indices);
        assert_eq!(t, wide().project(indices), "{indices:?}");
        t
    }

    #[test]
    fn project_in_place_increasing_compacts_without_reallocating() {
        let mut t = wide();
        let slots = t.values.as_ptr();
        t.project_in_place(&[1, 3]);
        assert_eq!(t.values(), &[Value::text("one"), Value::Int(3)]);
        assert_eq!(t.values.as_ptr(), slots, "same allocation");
        assert_eq!(t.values.capacity(), 4, "spare slots are kept");
        assert_eq!((t.tid, t.ts), (TupleId(7), Timestamp(9)));
        check_in_place(&[0, 1, 2, 3]);
        check_in_place(&[2]);
    }

    #[test]
    fn project_in_place_reordered_and_duplicates_build_fresh_values() {
        assert_eq!(check_in_place(&[3, 0]).values(), &[Value::Int(3), Value::Int(0)]);
        let dup = check_in_place(&[1, 1, 2]);
        assert_eq!(dup.values(), &[Value::text("one"), Value::text("one"), Value::Float(2.0)]);
        assert_eq!(dup.values.capacity(), 3);
    }

    #[test]
    fn project_in_place_to_nothing_empties_the_tuple() {
        let t = check_in_place(&[]);
        assert_eq!(t.arity(), 0);
        assert_eq!(t.tid, TupleId(7));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn project_in_place_out_of_range_panics_like_project() {
        wide().project_in_place(&[0, 4]);
    }

    #[test]
    fn projected_tuple_counts_its_spare_slots() {
        // Compacted in place, the tuple still holds all four slots.
        let before = wide().mem_bytes();
        let mut t = wide();
        t.project_in_place(&[0, 1, 3]);
        assert!(t.mem_bytes() >= before, "{} < {before}", t.mem_bytes());
        // A fresh projection holds only the slots it keeps.
        assert!(wide().project(&[0, 1, 3]).mem_bytes() < t.mem_bytes());
        // Dropping the text frees its bytes, not its slot.
        let mut t = wide();
        t.project_in_place(&[0, 2]);
        assert_eq!(t.mem_bytes(), before - "one".len());
    }

    #[test]
    fn masking_nulls_attributes() {
        let m = tup().mask(&[0, 5]);
        assert!(m.value(0).unwrap().is_null());
        assert_eq!(m.value(1), Some(&Value::Int(70)));
    }

    #[test]
    fn join_concatenates_and_takes_later_ts() {
        let right =
            Tuple::new(StreamId(2), TupleId(120), Timestamp(2000), vec![Value::Float(98.6)]);
        let j = tup().join(&right);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.ts, Timestamp(2000));
        assert_eq!(j.sid, StreamId(1));
        assert_eq!(j.value(2), Some(&Value::Float(98.6)));
    }

    #[test]
    fn mem_accounting_counts_text() {
        let base = tup().mem_bytes();
        let with_text = Tuple::new(
            StreamId(1),
            TupleId(1),
            Timestamp(0),
            vec![Value::text("hello"), Value::Int(0)],
        );
        assert_eq!(with_text.mem_bytes(), base + 5);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(tup().to_string(), "[s1 #120 @1000ms | 120 70]");
    }
}
