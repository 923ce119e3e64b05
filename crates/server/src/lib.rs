//! Multi-tenant network front door for the security-punctuation DSMS.
//!
//! This crate turns the in-process [`sp_query::Dsms`] into a network
//! service with the robustness properties a mutually-untrusted,
//! many-client deployment needs:
//!
//! * **Supervised tenant isolation** — every tenant's session sits
//!   behind its own lock, and the connection thread that decoded a frame
//!   pushes it in place under that lock and `catch_unwind`. A panicking
//!   pipeline, a corrupt checkpoint, or a byte-garbage-spewing
//!   connection quarantines exactly that tenant (fail closed: the
//!   session stops consuming and its last good checkpoint stands); a
//!   poisoned lock reads the same way; neighbors never notice.
//! * **Deadlines at the socket** — per-read socket timeouts bound stalls
//!   and length-lying frame headers; silent connections are reaped by
//!   an idle deadline.
//! * **Backpressure as protocol** — per-tenant admission verdicts
//!   travel back as `Overloaded` control frames carrying retry hints;
//!   the connection cap refuses loudly with the same frame.
//! * **Exactly-once across reconnects** — `HelloAck` carries the
//!   server-authoritative replay cursor (the session input position,
//!   which counts shed elements), so clients resume without duplicates
//!   and per-tenant audit trails stay byte-identical across kill,
//!   drain, and reconnect storms.
//! * **Graceful drain vs hard kill** — [`ServerHandle::drain`]
//!   checkpoints every tenant and reports; [`ServerHandle::kill`]
//!   models a crash, after which a new server over the same
//!   [`StoreMap`] resumes from the last periodic checkpoints.
//!
//! The wire format is the CRC-framed protocol of [`sp_core::wire`]
//! (data frames) plus its control frames ([`sp_core::wire::Control`]).
//! [`LoadClient`] is the matching client/load driver.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod config;
mod metrics;
mod replication;
mod server;
mod tenant;

pub use client::{BackoffConfig, ClientConfig, ClientReport, LoadClient};
pub use config::{ChaosPanic, ServerConfig};
pub use replication::{Standby, StandbyHandle};
pub use server::{DrainReport, Server, ServerHandle};
pub use tenant::{FrameOutcome, SessionFactory, SharedStore, StoreMap, TenantReport};
