//! # sp-core — the security-punctuation data model
//!
//! Core types for the stream-centric access-control framework of
//! *"A Security Punctuation Framework for Enforcing Access Control on
//! Streaming Data"* (Nehme, Rundensteiner, Bertino; ICDE 2008):
//!
//! * [`ids`] — strongly-typed stream/tuple/role/query identifiers and
//!   timestamps;
//! * [`value`] / [`schema`] / [`mod@tuple`] — the `t = [sid, tid, A, ts]`
//!   streaming data model;
//! * [`roleset`] — bitmap role sets (the paper's compact policy encoding);
//! * [`rbac`] — the flat-RBAC catalog: roles, subjects, role activation;
//! * [`policy`] — resolved policies, the `union` / `intersect` /
//!   `override` combination semantics, and sp-batch resolution: which
//!   policy governs a tuple;
//! * [`punctuation`] — security punctuations `<DDP | SRP | Sign |
//!   Immutable | ts>` and the compact wire encoding;
//! * [`element`] — the punctuated stream element type;
//! * [`wire`] — the compact network framing that ships punctuations in the
//!   same message as the data (§I-B);
//! * [`trace`] — deterministic causal trace/span identifiers (sp-trace),
//!   derived from element identity so independent processes agree;
//! * [`rng`] — the seeded splitmix64 generator behind fault placement,
//!   load shedding and backoff jitter;
//! * [`crypto`] — reproduction-grade ChaCha20-Poly1305 / SHA-256 and the
//!   ciphertext framing for enforcement on an untrusted server.
//!
//! Everything here is engine-agnostic; the operators live in `sp-engine`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod crypto;
pub mod element;
pub mod ids;
pub mod policy;
pub mod punctuation;
pub mod rbac;
pub mod rng;
pub mod roleset;
pub mod schema;
pub mod trace;
pub mod tuple;
pub mod value;
pub mod wire;

pub use crypto::{CipherFrame, KeyCapsule};
pub use element::StreamElement;
pub use ids::{QueryId, RoleId, StreamId, SubjectId, Timestamp, TupleId};
pub use policy::{BatchPolicy, Policy, PolicyEntry, SharedPolicy, Sign};
pub use punctuation::{
    DataDescription, PatternTable, RoleSpec, SecurityPunctuation, SecurityRestriction,
    MAX_WIRE_ROLE_ID,
};
pub use rbac::{AccessModel, RbacError, Right, RoleCatalog, Subject};
pub use rng::SplitMix64;
pub use roleset::RoleSet;
pub use schema::{Field, Schema};
pub use trace::TraceContext;
pub use tuple::Tuple;
pub use value::{Value, ValueType};
pub use wire::{
    decode_tuple, encode_tuple, Control, Message, QuarantineCode, StreamDecoder, WireError,
    WireFrame,
};
