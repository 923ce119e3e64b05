//! The five workloads: their constants, the session each one runs, the
//! seeded input, and the in-process reference its outputs are checked
//! against.
//!
//! Sizes are constants. They were fixed so that one repetition (one pass
//! of the whole input through a fresh server) takes about a second on the
//! 2-core reference host: the driver's time cap leaves ~25 s per
//! invocation including set-up, so a run holds many short repetitions
//! and reports their median rather than a few long ones. Sizes never
//! scale at run time.

use std::sync::Arc;

use sp_core::wire::{crc32, Control, Message};
use sp_core::{StreamElement, StreamId, TraceContext};
use sp_engine::{AdmissionConfig, TelemetryConfig};
use sp_mog::{location_stream, MovingObjectSim, WorkloadConfig};
use sp_query::Dsms;
use sp_server::ServerConfig;

use crate::json::Json;

/// Moving objects in every workload; each simulation tick yields one
/// tuple per object.
const OBJECTS: usize = 1000;

/// The tenant every run authenticates as.
pub const TENANT: u32 = 0;

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists: what it stresses and what it bypasses.
    pub why: &'static str,
    /// Simulation ticks; tuples = `OBJECTS` × ticks.
    pub ticks: usize,
    /// One sp per this many tuples.
    pub sp_every: usize,
    /// Roles per policy (|R|) and the universe they are drawn from.
    pub policy_roles: u32,
    pub role_universe: u32,
    /// Scoped DDPs (each sp names the id range of its segment).
    pub scoped: bool,
    /// Continuous queries, each under its own subject and role.
    pub queries: usize,
    /// Elements per data frame.
    pub frame_elems: usize,
    /// Telemetry, ingress spans, periodic checkpoints and a
    /// `Control::Trace` frame ahead of every data frame.
    pub observed: bool,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "frontdoor.long_runs",
        why: "cheap engine (1 query, 1 sp per 100 tuples, 32/frame): wire decode, socket, channel hop and Ack carry over half; shield sees 100-tuple runs",
        ticks: 500,
        sp_every: 100,
        policy_roles: 3,
        role_universe: 100,
        scoped: false,
        queries: 1,
        frame_elems: 32,
        observed: false,
    },
    Spec {
        name: "frontdoor.small_frames",
        why: "same stream at 8 elements/frame: per-frame cost (socket, two thread hand-offs, Ack) dominates, so ack_p50_us here is the floor of enforcement lag",
        ticks: 200,
        sp_every: 100,
        policy_roles: 3,
        role_universe: 100,
        scoped: false,
        queries: 1,
        frame_elems: 8,
        observed: false,
    },
    Spec {
        name: "policy.heavy",
        why: "scoped sps every 25 tuples with |R|=100 and 8 queries under 8 roles, 128/frame: analyzer, selects and shields hold most of the time, the front door little",
        ticks: 160,
        sp_every: 25,
        policy_roles: 100,
        role_universe: 400,
        scoped: true,
        queries: 8,
        frame_elems: 128,
        observed: false,
    },
    Spec {
        name: "policy.churn",
        why: "one sp per tuple (the paper's worst ratio), 128/frame: every run has length 1, so per-run optimisations that tax the policy-switch path lose here",
        ticks: 200,
        sp_every: 1,
        policy_roles: 3,
        role_universe: 100,
        scoped: false,
        queries: 1,
        frame_elems: 128,
        observed: false,
    },
    Spec {
        name: "observed.checkpointed",
        why: "long_runs stream with audit, metrics, spans, ingress spans, a Trace frame per data frame and a checkpoint every 32 frames: the only workload where they work",
        ticks: 300,
        sp_every: 100,
        policy_roles: 3,
        role_universe: 100,
        scoped: false,
        queries: 1,
        frame_elems: 32,
        observed: true,
    },
];

/// Checkpoint cadence of the observed workload, in frames.
pub const CHECKPOINT_EVERY_FRAMES: u64 = 32;

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Ticks for this run: `--smoke` shrinks every workload to a few
    /// thousand tuples so the whole set passes in seconds.
    pub fn ticks(&self, smoke: bool) -> usize {
        if smoke {
            3
        } else {
            self.ticks
        }
    }

    /// The tenant session: stream, roles, subjects and queries. The same
    /// function builds the server's sessions and the in-process reference.
    pub fn dsms(&self) -> Dsms {
        let mut dsms = Dsms::new();
        dsms.register_stream(StreamId(1), MovingObjectSim::location_schema())
            .expect("stream registers");
        for q in 0..self.queries {
            // Registration order makes role `r{q}` RoleId(q): the
            // generator grants role 0 with the configured selectivity and
            // the others as often as |R| / universe.
            let role = format!("r{q}");
            dsms.register_role(&role).expect("role registers");
            let subject = dsms
                .register_subject(&format!("subject-{q}"), &[&role])
                .expect("subject registers");
            // One query asks for speed >= 5.0; eight spread their
            // thresholds over 0.0 ..= 4.0.
            let threshold =
                if self.queries == 1 { 5.0 } else { 4.0 * q as f64 / (self.queries - 1) as f64 };
            let sql =
                format!("SELECT obj_id, speed FROM LocationUpdates WHERE speed >= {threshold:.2}");
            dsms.submit(&sql, subject).expect("query plans");
        }
        // Admission is in the path, as a deployment would have it, but
        // provisioned far above the stream's 1000 elements per stream
        // second: no frame may be shed in a benchmark run.
        dsms.admission = Some(AdmissionConfig {
            tokens_per_sec: 1_000_000,
            burst: 1024,
            enqueue_deadline_ms: 20,
        });
        dsms.telemetry = self.observed.then(TelemetryConfig::enabled);
        dsms
    }

    /// The constants of this run, for the result file.
    pub fn constants(&self, smoke: bool) -> Json {
        let n = |v: usize| Json::Num(v as f64);
        Json::obj([
            ("objects", n(OBJECTS)),
            ("ticks", n(self.ticks(smoke))),
            ("sp_every", n(self.sp_every)),
            ("policy_roles", n(self.policy_roles as usize)),
            ("role_universe", n(self.role_universe as usize)),
            ("scoped_sps", Json::Bool(self.scoped)),
            ("queries", n(self.queries)),
            ("frame_elems", n(self.frame_elems)),
            ("observed", Json::Bool(self.observed)),
        ])
    }

    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            max_conns: 4,
            // An idle connection is a benchmark bug, not something to reap
            // mid-measurement.
            idle_timeout_ms: 60_000,
            checkpoint_every_frames: if self.observed { CHECKPOINT_EVERY_FRAMES } else { 0 },
            metrics: self.observed,
            trace_capacity: if self.observed { 1024 } else { 0 },
            ..ServerConfig::default()
        }
    }
}

/// The wire bytes of one frame holding `chunk`, which starts at input
/// position `pos`: for the observed workload a `Control::Trace` context
/// (derived as `LoadClient` derives it) and then the data frame.
pub fn encode_frame(spec: &Spec, stream: StreamId, chunk: &[StreamElement], pos: u64) -> Vec<u8> {
    let mut wire = Vec::new();
    if spec.observed {
        let ctx = TraceContext::derive(TENANT, stream.0, pos);
        let trace = Control::Trace { trace_id: ctx.trace_id, parent_span: ctx.parent_span };
        wire.extend_from_slice(&trace.encode_to_vec());
    }
    wire.extend_from_slice(&Message::new(stream, chunk.to_vec()).encode_to_vec());
    wire
}

/// A seeded input: the generated elements and their pre-encoded frames.
pub struct Input {
    pub stream: StreamId,
    pub elements: Vec<StreamElement>,
    pub tuples: u64,
    pub sps: u64,
    /// Wire bytes of each frame, ready to write (for the observed
    /// workload, the `Control::Trace` frame followed by the data frame).
    pub frames: Vec<Vec<u8>>,
    pub frame_elems: usize,
}

impl Input {
    pub fn generate(spec: &Spec, seed: u64, smoke: bool) -> Input {
        let w = location_stream(&WorkloadConfig {
            objects: OBJECTS,
            ticks: spec.ticks(smoke),
            sp_every: spec.sp_every,
            policy_roles: spec.policy_roles,
            role_universe: spec.role_universe,
            grant_selectivity: 0.5,
            scoped_sps: spec.scoped,
            seed,
            ..WorkloadConfig::default()
        });
        let frames = w
            .elements
            .chunks(spec.frame_elems)
            .enumerate()
            .map(|(i, chunk)| encode_frame(spec, w.stream, chunk, (i * spec.frame_elems) as u64))
            .collect();
        Input {
            stream: w.stream,
            tuples: w.tuples as u64,
            sps: w.sps as u64,
            elements: w.elements,
            frames,
            frame_elems: spec.frame_elems,
        }
    }

    /// The elements of frame `i`.
    pub fn chunk(&self, i: usize) -> &[StreamElement] {
        let start = i * self.frame_elems;
        &self.elements[start..(start + self.frame_elems).min(self.elements.len())]
    }

    pub fn wire_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.len() as u64).sum()
    }

    /// CRC-32 over every encoded frame in order: equal seeds must give
    /// equal digests.
    #[cfg(test)]
    pub fn frame_digest(&self) -> u32 {
        let all: Vec<u8> = self.frames.iter().flatten().copied().collect();
        crc32(&all)
    }
}

/// Count and CRC-32 of a query's rendered released tuples, in release order.
pub fn digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> (u64, u32) {
    let mut n = 0u64;
    let mut bytes = Vec::new();
    for line in lines {
        n += 1;
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    (n, crc32(&bytes))
}

/// What the sequential in-process executor does with an input: the
/// expected outcome of every socket run.
#[derive(Debug, PartialEq, Eq)]
pub struct Reference {
    /// Per query id: released tuple count and digest.
    pub released: Vec<(u32, (u64, u32))>,
    pub tuples_ingested: u64,
    pub sps_ingested: u64,
    pub input_pos: u64,
}

impl Reference {
    pub fn run(spec: &Spec, input: &Input) -> Result<Reference, String> {
        let dsms = spec.dsms();
        let mut session = dsms.start();
        let (mut tuples, mut sps) = (0u64, 0u64);
        for elem in &input.elements {
            let is_tuple = elem.is_tuple();
            session
                .try_push(input.stream, elem.clone())
                .map_err(|e| format!("reference run refused an element: {e}"))?;
            if is_tuple {
                tuples += 1;
            } else {
                sps += 1;
            }
        }
        let released = dsms
            .queries()
            .iter()
            .map(|q| {
                let lines: Vec<String> =
                    session.results(q.id).tuples().map(|t| t.to_string()).collect();
                (q.id.raw(), digest(lines.iter().map(String::as_str)))
            })
            .collect();
        Ok(Reference {
            released,
            tuples_ingested: tuples,
            sps_ingested: sps,
            input_pos: session.input_pos(),
        })
    }
}

/// The session factory handed to `Server::start`.
pub fn factory(spec: &'static Spec) -> sp_server::SessionFactory {
    Arc::new(move |_tenant| spec.dsms())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        for spec in &SPECS {
            let a = Input::generate(spec, 7, true);
            let b = Input::generate(spec, 7, true);
            let c = Input::generate(spec, 8, true);
            assert_eq!(a.frame_digest(), b.frame_digest(), "{}", spec.name);
            assert_ne!(a.frame_digest(), c.frame_digest(), "{}", spec.name);
            assert_eq!(a.tuples, 3 * OBJECTS as u64);
            assert_eq!(a.frames.len(), a.elements.len().div_ceil(spec.frame_elems));
            assert_eq!(a.chunk(a.frames.len() - 1).last(), a.elements.last());
        }
    }

    #[test]
    fn reference_releases_some_but_not_all() {
        for spec in &SPECS {
            let input = Input::generate(spec, 7, true);
            let r = Reference::run(spec, &input).expect("reference runs");
            assert_eq!(r.released.len(), spec.queries);
            assert_eq!((r.tuples_ingested, r.sps_ingested), (input.tuples, input.sps));
            assert_eq!(r.input_pos, input.elements.len() as u64);
            let (n, _) = r.released[0].1;
            assert!(n > 0 && n < input.tuples, "{}: released {n}", spec.name);
        }
    }
}
