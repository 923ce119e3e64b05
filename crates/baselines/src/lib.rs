//! # sp-baselines — alternative access-control enforcement mechanisms
//!
//! The paper motivates security punctuations by comparison with two
//! alternatives (§I-C), all implemented here behind one interface:
//!
//! * [`StoreAndProbe`] — policies in a central persistent table, probed per
//!   tuple;
//! * [`TupleEmbedded`] — every tuple carries its own policy copy;
//! * [`SpMechanism`] — the punctuation-based approach (the real engine
//!   path), wrapped for the comparison harness;
//! * [`CryptoEnforced`] — outsourced enforcement on an *untrusted* server:
//!   tuples cross the server as AEAD ciphertext, the policy table becomes
//!   a key schedule (one key capsule per granted role), and release is a
//!   cryptographic fact — a role-held key opening the capsule — rather
//!   than a server decision.
//!
//! All four enforce identical semantics — each takes the policy governing
//! a tuple from [`sp_core::BatchPolicy`], and `tests/security_invariant.rs`
//! asserts identical released tuple sequences, equal to an independent
//! reference, on any punctuated stream (several sps of either sign per
//! batch, overlapping scopes, tuples outside every scope) — and differ only
//! in where the policy lives, trust assumptions, processing, and memory
//! profile, which is what Fig. 7 (and the crypto bench) measures.

#![warn(missing_docs)]

pub mod crypto_enforced;
pub mod mechanism;
pub mod sp_mech;
pub mod store_probe;
pub mod tuple_embedded;

pub use crypto_enforced::{
    CryptoClient, CryptoEnforced, CryptoProvider, KeyAuthority, UntrustedRelay,
};
pub use mechanism::{run_mechanism, EnforcementMechanism, MechStats, PolicyState};
pub use sp_mech::SpMechanism;
pub use store_probe::StoreAndProbe;
pub use tuple_embedded::{EmbeddedTuple, TupleEmbedded};
