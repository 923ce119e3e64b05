//! Crash supervision: epoch checkpointing, restart, and deterministic
//! replay with a fail-closed security invariant.
//!
//! The supervisor drives a sequential [`Executor`] over a recorded input,
//! cutting a [`Checkpoint`](crate::Checkpoint) every `epoch_interval`
//! input elements (the executor is quiescent between pushes, so every
//! boundary is a consistent cut) and persisting it through a
//! [`CheckpointStore`]. When the pipeline dies — an operator reports an
//! [`EngineError`], or an injected kill simulates a crash — the supervisor
//! rebuilds the plan from its builder factory, restores the last durable
//! checkpoint, and replays the input from the checkpoint's offset.
//!
//! **Recovery invariant** (the property the chaos suite asserts): for any
//! kill point, the union of tuples released before the kill and tuples
//! released by the recovered run is a subset of what an uninterrupted run
//! releases, and the restored policy state is byte-identical to the state
//! that was checkpointed. Recovery may *lose* tuples — counted in
//! [`RecoveryReport::recovery_dropped`] when the restart budget runs out —
//! but must never leak one: replay starts from a policy state at least as
//! restrictive as the live state it replaces, and sinks restart empty.
//!
//! **Overload during recovery**: load shedders
//! ([`Shedder`](crate::overload::Shedder)) are ordinary operators with
//! canonical snapshots, so their virtual queue, degradation-ladder level,
//! and shed counters ride through kill/restore like any other state — a
//! recovered run keeps making byte-identical shed decisions, and
//! [`SupervisedRun::degradation`] reports the ladder's peak and current
//! rung alongside the recovery counters.
//!
//! Restarts use bounded exponential backoff. Delays are *recorded*, not
//! slept, so supervised runs stay deterministic and fast under test; an
//! embedding that wants real pauses can sleep on
//! [`RecoveryReport::backoff_ms`] entries as they are produced. After
//! `max_restarts` failed restarts the supervisor enters a terminal
//! fail-closed state: the remaining input is refused (never processed,
//! never released) and the run reports [`EngineError::RecoveryExhausted`].

use sp_core::{StreamElement, StreamId};

use crate::checkpoint::CheckpointStore;
use crate::error::EngineError;
use crate::plan::{Executor, PlanBuilder};
use crate::stats::DegradationStats;
use crate::telemetry::{AuditEvent, AuditOp, AuditTrail, FlightRecorder, NO_TUPLE};

/// Supervision parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Input elements between checkpoints (one epoch).
    pub epoch_interval: u64,
    /// Restart budget before the terminal fail-closed state.
    pub max_restarts: u32,
    /// First restart's backoff, in milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub backoff_cap_ms: u64,
}

/// Default checkpoint cadence: frequent enough that replay stays short,
/// sparse enough that snapshot cost stays well under 10% of throughput.
pub const DEFAULT_EPOCH_INTERVAL: u64 = 256;

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            epoch_interval: DEFAULT_EPOCH_INTERVAL,
            max_restarts: 5,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
        }
    }
}

impl SupervisorConfig {
    /// The recorded backoff before restart attempt `n` (1-based):
    /// `base · 2^(n−1)`, capped.
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let doublings = attempt.saturating_sub(1).min(32);
        self.backoff_base_ms.saturating_mul(1u64 << doublings).min(self.backoff_cap_ms)
    }
}

/// What the supervisor did across one supervised run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Checkpoints cut and durably saved.
    pub checkpoints_taken: u64,
    /// Checkpoints restored into a rebuilt plan.
    pub checkpoints_restored: u64,
    /// Whole epochs of input re-processed during recoveries.
    pub epochs_replayed: u64,
    /// Input elements refused fail-closed at the terminal state.
    pub recovery_dropped: u64,
    /// Restart attempts made (successful or not).
    pub restart_attempts: u32,
    /// Recorded exponential backoff per restart, in milliseconds.
    pub backoff_ms: Vec<u64>,
    /// Errors observed at each death, in order.
    pub deaths: Vec<String>,
}

impl RecoveryReport {
    /// Folds the recovery counters into engine-wide degradation stats.
    pub fn absorb_into(&self, stats: &mut DegradationStats) {
        stats.checkpoints_taken += self.checkpoints_taken;
        stats.checkpoints_restored += self.checkpoints_restored;
        stats.epochs_replayed += self.epochs_replayed;
        stats.recovery_dropped += self.recovery_dropped;
        stats.restart_attempts += u64::from(self.restart_attempts);
    }
}

/// The result of a supervised run: the final executor (for sinks and
/// per-operator stats) and the recovery report. On a terminal fail-closed
/// exit, `failure` carries [`EngineError::RecoveryExhausted`] and the
/// executor holds the state reached before the final death — its sinks
/// contain only releases that already passed the security shield.
pub struct SupervisedRun {
    /// The executor after the run (recovered or terminally failed).
    pub executor: Executor,
    /// Recovery counters and per-death diagnostics.
    pub report: RecoveryReport,
    /// `None` on success; the terminal error otherwise.
    pub failure: Option<EngineError>,
    /// The supervisor's own flight recorder: restore and terminal
    /// fail-closed events. Sized by the plan's own
    /// [`TelemetryConfig::audit_capacity`](crate::TelemetryConfig), so it
    /// is disabled (and empty) exactly when the plan records no audit.
    pub audit: FlightRecorder,
}

impl SupervisedRun {
    /// Whether the run processed the whole input.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.failure.is_none()
    }

    /// Engine-wide degradation stats: the analyzers' fail-closed counters
    /// plus this run's recovery counters.
    #[must_use]
    pub fn degradation(&self) -> DegradationStats {
        let mut stats = self.executor.degradation();
        self.report.absorb_into(&mut stats);
        stats
    }

    /// The full audit trail: the final executor's per-operator sections
    /// plus the supervisor's own restore / fail-closed section.
    #[must_use]
    pub fn audit_trail(&self) -> AuditTrail {
        let mut trail = self.executor.audit_trail();
        if self.audit.enabled() {
            trail.push_section(AuditOp::Supervisor, self.audit.clone());
        }
        trail
    }
}

/// A deterministic crash oracle: called before each input element with
/// `(epoch, input_pos)`; returning `true` kills the pipeline at that point
/// (the in-memory executor is dropped, exactly what a SIGKILL leaves
/// behind — only the durable checkpoint store survives).
pub type KillOracle<'a> = dyn FnMut(u64, u64) -> bool + 'a;

/// Runs a plan under crash supervision.
///
/// `build` must produce the *same* plan each call (same sources, operator
/// order, sinks, and configuration): checkpoint sections are positional.
/// `input` is the recorded stream the sources consume; replay after a
/// restore re-reads it from the checkpoint's offset.
///
/// # Errors
///
/// Fails only when the checkpoint store rejects a write — durability loss
/// is not survivable. Pipeline deaths (operator errors, injected kills,
/// corrupt checkpoints) are handled by restarting; after `max_restarts`
/// the run returns `Ok` with [`SupervisedRun::failure`] set to
/// [`EngineError::RecoveryExhausted`].
pub fn run_supervised(
    mut build: impl FnMut() -> PlanBuilder,
    input: &[(StreamId, StreamElement)],
    config: &SupervisorConfig,
    store: &mut dyn CheckpointStore,
    kill: &mut KillOracle<'_>,
) -> Result<SupervisedRun, EngineError> {
    let interval = config.epoch_interval.max(1);
    let mut report = RecoveryReport::default();
    // Every life of the pipeline starts from an identically armed plan:
    // the `TelemetryConfig` its builder carries.
    let mut exec = build().build();
    let mut audit = FlightRecorder::new(exec.telemetry.audit_capacity);
    let mut epoch = 0u64;
    let mut pos = 0usize;

    // Epoch 0: the empty cut, so recovery is possible before the first
    // interval completes.
    store.save(&exec.checkpoint(0, 0))?;
    report.checkpoints_taken += 1;

    loop {
        // ---- run one life of the pipeline ------------------------------
        let mut death: Option<EngineError> = None;
        while pos < input.len() {
            if kill(epoch, pos as u64) {
                death = Some(EngineError::OperatorPanic {
                    operator: "supervisor".into(),
                    message: format!("injected crash at epoch {epoch}, element {pos}"),
                });
                break;
            }
            let (stream, elem) = &input[pos];
            if let Err(e) = exec.push(*stream, elem.clone()) {
                death = Some(e);
                break;
            }
            pos += 1;
            if (pos as u64).is_multiple_of(interval) {
                epoch += 1;
                store.save(&exec.checkpoint(epoch, pos as u64))?;
                report.checkpoints_taken += 1;
            }
        }
        if death.is_none() {
            match exec.finish() {
                Ok(()) => {
                    epoch += 1;
                    store.save(&exec.checkpoint(epoch, pos as u64))?;
                    report.checkpoints_taken += 1;
                    return Ok(SupervisedRun { executor: exec, report, failure: None, audit });
                }
                Err(e) => death = Some(e),
            }
        }

        // ---- the pipeline died: recover --------------------------------
        // Audited: the loop only reaches here with `death` set.
        let err = death.unwrap_or(EngineError::ChannelDisconnected { stage: "supervisor".into() });
        report.deaths.push(err.to_string());
        report.restart_attempts += 1;
        if report.restart_attempts > config.max_restarts {
            // Terminal fail-closed state: refuse the rest of the input.
            let resume = store.load_latest().map_or(0, |c| c.input_pos);
            let refused = (input.len() as u64).saturating_sub(resume);
            report.recovery_dropped += refused;
            audit.record(NO_TUPLE, resume, AuditEvent::RecoveryFailClosed { refused });
            let failure =
                EngineError::RecoveryExhausted { attempts: report.restart_attempts - 1, refused };
            return Ok(SupervisedRun { executor: exec, report, failure: Some(failure), audit });
        }
        report.backoff_ms.push(config.backoff_ms(report.restart_attempts));

        let crash_pos = pos as u64;
        exec = build().build();
        match store.load_latest() {
            Some(ckpt) => match exec.restore(&ckpt) {
                Ok(()) => {
                    report.checkpoints_restored += 1;
                    report.epochs_replayed +=
                        crash_pos.saturating_sub(ckpt.input_pos).div_ceil(interval);
                    audit.record(
                        NO_TUPLE,
                        ckpt.input_pos,
                        AuditEvent::Restored { epoch: ckpt.epoch },
                    );
                    epoch = ckpt.epoch;
                    pos = ckpt.input_pos as usize;
                }
                Err(e) => {
                    // A corrupt checkpoint is itself a death: never start
                    // from partially-restored policy state. Burn a restart
                    // and retry (the store may fall back to an older
                    // frame only if the latest failed its CRC; a frame
                    // that passed CRC but fails decode keeps failing, and
                    // the restart budget bounds the loop).
                    report.deaths.push(e.to_string());
                    exec = build().build();
                    epoch = 0;
                    pos = 0;
                    report.epochs_replayed += crash_pos.div_ceil(interval);
                }
            },
            None => {
                // No durable checkpoint at all: cold restart from scratch.
                epoch = 0;
                pos = 0;
                report.epochs_replayed += crash_pos.div_ceil(interval);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::checkpoint::MemStore;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::select::Select;
    use crate::ops::shield::SecurityShield;
    use sp_core::{
        RoleCatalog, RoleSet, Schema, SecurityPunctuation, StreamId, Timestamp, Tuple, TupleId,
        Value, ValueType,
    };
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::of("loc", &[("id", ValueType::Int), ("x", ValueType::Int)])
    }

    fn catalog() -> Arc<RoleCatalog> {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(8);
        Arc::new(c)
    }

    fn builder_with_sink() -> (PlanBuilder, crate::plan::SinkRef) {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let sel = b
            .add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), src);
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), sel);
        let sink = b.sink(ss);
        (b, sink)
    }

    fn builder() -> PlanBuilder {
        builder_with_sink().0
    }

    fn workload(n: u64) -> Vec<(StreamId, StreamElement)> {
        let mut input = Vec::new();
        for i in 0..n {
            if i % 7 == 0 {
                let roles = if i % 14 == 0 { RoleSet::from([1]) } else { RoleSet::from([2]) };
                input.push((
                    StreamId(1),
                    StreamElement::punctuation(SecurityPunctuation::grant_all(roles, Timestamp(i))),
                ));
            }
            input.push((
                StreamId(1),
                StreamElement::tuple(Tuple::new(
                    StreamId(1),
                    TupleId(i),
                    Timestamp(i),
                    vec![Value::Int(i as i64), Value::Int((i % 10) as i64)],
                )),
            ));
        }
        input
    }

    fn released(exec: &Executor) -> Vec<u64> {
        // SinkRefs are positional, so one taken from an identically-built
        // plan addresses the same sink in every builder() executor.
        let (_, sink) = builder_with_sink();
        exec.sink(sink).tuples().map(|t| t.tid.raw()).collect()
    }

    fn baseline(input: &[(StreamId, StreamElement)]) -> Vec<u64> {
        let mut exec = builder().build();
        for (s, e) in input {
            exec.push(*s, e.clone()).unwrap();
        }
        exec.finish().unwrap();
        released(&exec)
    }

    #[test]
    fn uninterrupted_run_checkpoints_and_completes() {
        let input = workload(100);
        let mut store = MemStore::default();
        let cfg = SupervisorConfig { epoch_interval: 16, ..Default::default() };
        let run = run_supervised(builder, &input, &cfg, &mut store, &mut |_, _| false).unwrap();
        assert!(run.completed());
        assert_eq!(released(&run.executor), baseline(&input));
        assert!(run.report.checkpoints_taken > 2);
        assert_eq!(run.report.restart_attempts, 0);
        assert!(store.count() as u64 >= run.report.checkpoints_taken);
    }

    #[test]
    fn kill_once_recovers_exactly() {
        let input = workload(100);
        let base = baseline(&input);
        for kill_at in [1u64, 17, 33, 64, 90, 110] {
            let mut store = MemStore::default();
            let cfg = SupervisorConfig { epoch_interval: 16, ..Default::default() };
            let mut killed = false;
            let mut oracle = move |_e: u64, p: u64| {
                if !killed && p == kill_at {
                    killed = true;
                    return true;
                }
                false
            };
            let run = run_supervised(builder, &input, &cfg, &mut store, &mut oracle).unwrap();
            assert!(run.completed(), "kill at {kill_at}");
            // Deterministic replay: the recovered run releases, from its
            // restore point on, exactly the baseline's suffix — and the
            // final counters match an uninterrupted run.
            let got = released(&run.executor);
            assert!(base.ends_with(&got), "kill at {kill_at}: {got:?} not a suffix of baseline");
            assert_eq!(run.report.restart_attempts, 1);
            assert_eq!(run.report.checkpoints_restored, 1);
            assert_eq!(run.report.backoff_ms.len(), 1);
        }
    }

    #[test]
    fn final_checkpoint_matches_uninterrupted_run() {
        let input = workload(80);
        let cfg = SupervisorConfig { epoch_interval: 8, ..Default::default() };

        let mut clean_store = MemStore::default();
        let clean =
            run_supervised(builder, &input, &cfg, &mut clean_store, &mut |_, _| false).unwrap();

        let mut store = MemStore::default();
        let mut killed = false;
        let mut oracle = move |_e: u64, p: u64| {
            if !killed && p == 42 {
                killed = true;
                return true;
            }
            false
        };
        let run = run_supervised(builder, &input, &cfg, &mut store, &mut oracle).unwrap();
        assert!(run.completed());

        // Policy/operator state is byte-identical once recovered — sinks
        // excepted (their snapshots are counters of what each life
        // delivered, and the recovered life starts over).
        let clean_final = clean.executor.checkpoint(0, 0);
        let run_final = run.executor.checkpoint(0, 0);
        assert_eq!(clean_final.analyzers, run_final.analyzers);
        assert_eq!(clean_final.nodes, run_final.nodes);
    }

    #[test]
    fn persistent_killer_exhausts_restarts_fail_closed() {
        let input = workload(60);
        let mut store = MemStore::default();
        let cfg = SupervisorConfig { epoch_interval: 16, max_restarts: 3, ..Default::default() };
        // Always dies at element 20 — recovery can never get past it.
        let run = run_supervised(builder, &input, &cfg, &mut store, &mut |_, p| p == 20).unwrap();
        assert!(!run.completed());
        assert!(matches!(run.failure, Some(EngineError::RecoveryExhausted { attempts: 3, .. })));
        assert_eq!(run.report.restart_attempts, 4, "budget + the final probe");
        assert!(run.report.recovery_dropped > 0, "rest of input refused");
        // Fail-closed: whatever was released is a prefix-consistent subset
        // of the baseline.
        let base = baseline(&input);
        let got = released(&run.executor);
        assert!(got.iter().all(|t| base.contains(t)));
        // Backoff doubles then caps.
        assert_eq!(
            run.report.backoff_ms,
            vec![cfg.backoff_ms(1), cfg.backoff_ms(2), cfg.backoff_ms(3)]
        );
        let d = run.degradation();
        assert!(d.recovery_dropped > 0);
        assert_eq!(u64::from(run.report.restart_attempts), d.restart_attempts);
    }

    fn shedded_builder_with_sink() -> (PlanBuilder, crate::plan::SinkRef) {
        use crate::overload::{ShedPolicy, Shedder, ShedderConfig};
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let shed = b.add(
            Shedder::new(ShedderConfig {
                capacity: 8,
                drain_per_ms: 0,
                policy: ShedPolicy::RandomP { p: 0.5, seed: 11 },
                ..ShedderConfig::default()
            }),
            src,
        );
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), shed);
        let sink = b.sink(ss);
        (b, sink)
    }

    #[test]
    fn shedder_state_and_counters_survive_crash_recovery() {
        let input = workload(100);
        let cfg = SupervisorConfig { epoch_interval: 16, ..Default::default() };
        let shedded = || shedded_builder_with_sink().0;

        let mut clean_store = MemStore::default();
        let clean =
            run_supervised(shedded, &input, &cfg, &mut clean_store, &mut |_, _| false).unwrap();
        let clean_d = clean.executor.degradation();
        assert!(clean_d.shed_tuples > 0, "workload must actually overload the shedder");
        assert!(clean_d.ladder_escalations > 0);

        let mut store = MemStore::default();
        let mut killed = false;
        let mut oracle = move |_e: u64, p: u64| {
            if !killed && p == 42 {
                killed = true;
                return true;
            }
            false
        };
        let run = run_supervised(shedded, &input, &cfg, &mut store, &mut oracle).unwrap();
        assert!(run.completed());

        // The shedder's virtual queue, rng, ladder, and counters were
        // restored from the checkpoint, so the recovered run made the
        // same decisions and ends with identical overload counters.
        let d = run.executor.degradation();
        assert_eq!(d.shed_tuples, clean_d.shed_tuples);
        assert_eq!(d.ladder_escalations, clean_d.ladder_escalations);
        assert_eq!(d.ladder_recoveries, clean_d.ladder_recoveries);
        assert_eq!(d.overload_peak, clean_d.overload_peak);
        assert_eq!(d.overload_level, clean_d.overload_level);
        // And the run-level report folds recovery counters on top.
        let full = run.degradation();
        assert_eq!(full.checkpoints_restored, 1);
        assert_eq!(full.shed_tuples, clean_d.shed_tuples);
        // Released set matches the uninterrupted shedded run exactly
        // (suffix, since the sink restarts empty at the restore point).
        let (_, sink) = shedded_builder_with_sink();
        let clean_rel: Vec<u64> = clean.executor.sink(sink).tuples().map(|t| t.tid.raw()).collect();
        let (_, sink) = shedded_builder_with_sink();
        let got: Vec<u64> = run.executor.sink(sink).tuples().map(|t| t.tid.raw()).collect();
        assert!(clean_rel.ends_with(&got), "recovered releases diverged");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg =
            SupervisorConfig { backoff_base_ms: 10, backoff_cap_ms: 65, ..Default::default() };
        assert_eq!(cfg.backoff_ms(1), 10);
        assert_eq!(cfg.backoff_ms(2), 20);
        assert_eq!(cfg.backoff_ms(3), 40);
        assert_eq!(cfg.backoff_ms(4), 65, "capped");
        assert_eq!(cfg.backoff_ms(63), 65, "shift never overflows");
    }
}
