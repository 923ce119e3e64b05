//! The DSMS facade: register streams, roles and subjects, submit CQL
//! queries, inject punctuations, run the engine.
//!
//! This is the top-level API the examples use:
//!
//! ```
//! use sp_core::{Schema, StreamId, ValueType};
//! use sp_query::Dsms;
//!
//! let mut dsms = Dsms::new();
//! dsms.register_stream(StreamId(1), Schema::of("S", &[("x", ValueType::Int)])).unwrap();
//! dsms.register_role("doctor").unwrap();
//! let alice = dsms.register_subject("alice", &["doctor"]).unwrap();
//! let q = dsms.submit("SELECT x FROM S", alice).unwrap();
//! let mut running = dsms.start();
//! // push StreamElements, then read running.results(q)
//! # let _ = (q, &mut running);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use sp_core::{
    QueryId, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement, StreamId, SubjectId,
    Timestamp,
};
use sp_engine::{Executor, PlanBuilder, SinkRef};

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::lexer::QueryError;
use crate::logical::LogicalPlan;
use crate::optimizer::{Optimizer, OptimizerReport};
use crate::parser::parse;
use crate::physical::{instantiate_shared, InstantiateOptions};
use crate::planner::{plan_insert_sp, plan_select};

/// A registered continuous query awaiting execution.
#[derive(Debug)]
pub struct PlannedQuery {
    /// Query id.
    pub id: QueryId,
    /// The (optimized) logical plan.
    pub plan: LogicalPlan,
    /// The roles the query inherited from its specifier.
    pub roles: RoleSet,
    /// What the optimizer did.
    pub report: OptimizerReport,
}

/// The data stream management system under construction.
#[derive(Debug, Default)]
pub struct Dsms {
    /// Streams, roles and query registrations.
    pub catalog: Catalog,
    /// The cost model used for optimization.
    pub cost_model: CostModel,
    /// Disable optimization (plans run exactly as written).
    pub optimize: bool,
    /// Enforcement granularity for every query's shields; fixed once a
    /// query is registered ([`Dsms::set_granularity`]).
    granularity: sp_engine::Granularity,
    /// Optional ingestion admission control: when set, each started
    /// session rate-limits data tuples per stream with a token bucket
    /// (burst allowance + deadline-based debt) and refuses the excess
    /// with [`sp_engine::EngineError::Overloaded`]. Security punctuations
    /// always bypass admission — overload can delay or drop data, never
    /// policy updates.
    pub admission: Option<sp_engine::AdmissionConfig>,
    /// Optional telemetry: when set, every started session arms the
    /// security audit trail (a bounded flight recorder on each analyzer
    /// and shield) and the per-operator metrics histograms; read them
    /// back via [`RunningDsms::audit_trail`] and
    /// [`RunningDsms::metrics_prometheus`].
    pub telemetry: Option<sp_engine::TelemetryConfig>,
    queries: Vec<PlannedQuery>,
}

impl Dsms {
    /// An empty DSMS with optimization enabled.
    #[must_use]
    pub fn new() -> Self {
        Self { optimize: true, ..Self::default() }
    }

    /// Sets the enforcement granularity of every query's shields
    /// (§III-A): `Tuple` (default) drops unauthorized tuples; `Attribute`
    /// masks unauthorized attributes instead, releasing tuples visible
    /// through attribute-scoped grants.
    ///
    /// # Errors
    ///
    /// Fails once a query is registered: `submit` optimized its plan for
    /// the granularity then in force, and a projection it moved to the
    /// scan at `Tuple` granularity ([`crate::optimizer::project_at_scan`])
    /// would turn a masked release into a suppression at `Attribute`.
    pub fn set_granularity(
        &mut self,
        granularity: sp_engine::Granularity,
    ) -> Result<(), QueryError> {
        if !self.queries.is_empty() && granularity != self.granularity {
            return Err(QueryError::new(
                "the enforcement granularity is fixed once a query is registered",
                0,
            ));
        }
        self.granularity = granularity;
        Ok(())
    }

    /// The enforcement granularity of every query's shields.
    #[must_use]
    pub fn granularity(&self) -> sp_engine::Granularity {
        self.granularity
    }

    /// Registers a stream.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or ids.
    pub fn register_stream(&mut self, id: StreamId, schema: Arc<Schema>) -> Result<(), QueryError> {
        self.catalog.register_stream(id, schema)
    }

    /// Registers a role, returning its id.
    ///
    /// # Errors
    ///
    /// Fails on duplicates.
    pub fn register_role(&mut self, name: &str) -> Result<RoleId, QueryError> {
        self.catalog.roles.register_role(name).map_err(|e| QueryError::new(e.to_string(), 0))
    }

    /// Registers a subject with activated roles.
    ///
    /// # Errors
    ///
    /// Fails on duplicates or unknown roles.
    pub fn register_subject(
        &mut self,
        name: &str,
        roles: &[&str],
    ) -> Result<SubjectId, QueryError> {
        self.catalog
            .roles
            .register_subject(name, roles)
            .map_err(|e| QueryError::new(e.to_string(), 0))
    }

    /// Parses, plans and (optionally) optimizes a continuous SELECT query
    /// on behalf of `subject`; the query inherits the subject's roles.
    ///
    /// # Errors
    ///
    /// Fails on syntax errors, unknown streams/columns, or unknown subjects.
    pub fn submit(&mut self, sql: &str, subject: SubjectId) -> Result<QueryId, QueryError> {
        let Statement::Select(stmt) = parse(sql)? else {
            return Err(QueryError::new("expected a SELECT statement", 0));
        };
        let (id, roles) = self.catalog.register_query(subject)?;
        let plan = plan_select(&self.catalog, &stmt, &roles)?;
        let (plan, report) = if self.optimize {
            Optimizer::new(self.cost_model.clone()).optimize_for(&plan, self.granularity)
        } else {
            (plan, OptimizerReport::default())
        };
        self.queries.push(PlannedQuery { id, plan, roles, report });
        Ok(id)
    }

    /// Lowers an `INSERT SP` statement into a punctuation for injection at
    /// time `ts`.
    ///
    /// # Errors
    ///
    /// Fails on syntax errors or unknown streams.
    pub fn insert_sp(
        &self,
        sql: &str,
        ts: Timestamp,
    ) -> Result<(StreamId, SecurityPunctuation), QueryError> {
        let Statement::InsertSp(stmt) = parse(sql)? else {
            return Err(QueryError::new("expected an INSERT SP statement", 0));
        };
        plan_insert_sp(&self.catalog, &stmt, ts)
    }

    /// Registered queries (in submission order).
    #[must_use]
    pub fn queries(&self) -> &[PlannedQuery] {
        &self.queries
    }

    /// Withdraws a registered query before `start`, releasing its
    /// subject's role-assignment pin (§II-A). Returns false if the query
    /// id is unknown.
    pub fn withdraw(&mut self, id: QueryId) -> bool {
        let Some(pos) = self.queries.iter().position(|q| q.id == id) else {
            return false;
        };
        self.queries.remove(pos);
        self.catalog.deregister_query(id);
        true
    }

    /// Builds the shared physical plan and starts the engine. Queries
    /// share their streams' sources, and the queries that are scan chains
    /// share every prefix they have in common: N queries projecting the
    /// same columns run one π, their shields one shield group on its edge.
    #[must_use]
    pub fn start(&self) -> RunningDsms {
        let mut builder = PlanBuilder::new(Arc::new(self.catalog.roles.clone()));
        let mut sources = HashMap::new();
        let mut chains = Vec::new();
        let mut sinks = HashMap::new();
        let opts =
            InstantiateOptions { granularity: self.granularity, ..InstantiateOptions::default() };
        for q in &self.queries {
            let root = instantiate_shared(&q.plan, &mut builder, &mut sources, &mut chains, opts);
            sinks.insert(q.id, builder.sink(root));
        }
        if let Some(cfg) = self.telemetry {
            builder.enable_telemetry(cfg);
        }
        RunningDsms {
            executor: builder.build(),
            sinks,
            errors: Vec::new(),
            input_pos: 0,
            admission: self.admission.map(sp_engine::AdmissionController::new),
        }
    }

    /// Restarts the DSMS from the latest durable checkpoint in `store`,
    /// or cold-starts when the store is empty.
    ///
    /// The plan is rebuilt from the registered queries (plan shape is
    /// configuration, not state), then every operator's state — including
    /// the analyzers' policy state — is restored byte-exactly. The caller
    /// replays its input from [`RunningDsms::input_pos`]; replayed
    /// elements flow through the restored policy state, so recovery can
    /// lose results but can never release a tuple the uninterrupted run
    /// would have withheld.
    ///
    /// # Errors
    ///
    /// Fails closed when the checkpoint does not match the current plan
    /// shape or any section is corrupt: no partially-restored session is
    /// ever returned.
    pub fn resume(
        &self,
        store: &dyn sp_engine::CheckpointStore,
    ) -> Result<RunningDsms, sp_engine::EngineError> {
        let mut running = self.start();
        if let Some(ckpt) = store.load_latest() {
            running.executor.restore(&ckpt)?;
            running.input_pos = ckpt.input_pos;
        }
        Ok(running)
    }
}

/// What admission did with one frame ([`RunningDsms::push_frame`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameAdmission {
    /// Data tuples admitted into the plan.
    pub tuples: u64,
    /// Security punctuations ingested (admission never refuses one).
    pub sps: u64,
    /// The largest retry hint among the frame's refused tuples; `None`
    /// when every tuple was admitted.
    pub retry_after_ms: Option<u64>,
}

/// A running DSMS instance.
pub struct RunningDsms {
    executor: Executor,
    sinks: HashMap<QueryId, SinkRef>,
    errors: Vec<sp_engine::EngineError>,
    input_pos: u64,
    admission: Option<sp_engine::AdmissionController>,
}

impl RunningDsms {
    /// Feeds one raw stream element.
    ///
    /// Engine errors are absorbed, not propagated: the executor fails
    /// closed (in-flight elements of the failed push are discarded, never
    /// released), and the error is recorded for [`RunningDsms::errors`].
    /// An operator failure is latched by the executor, so feeding on after
    /// one releases nothing more and returns that same error every time:
    /// it is recorded once, not once per element fed to a failed session.
    /// Use [`RunningDsms::try_push`] to propagate instead.
    pub fn push(&mut self, stream: StreamId, elem: StreamElement) {
        let latched = self.executor.failure().is_some();
        if let Err(e) = self.try_push(stream, elem) {
            if !latched {
                self.errors.push(e);
            }
        }
    }

    /// Feeds one raw stream element, propagating engine errors: the
    /// one-element case of [`RunningDsms::push_frame`].
    ///
    /// # Errors
    ///
    /// [`sp_engine::EngineError::Overloaded`] when admission refused the
    /// tuple, else whatever `push_frame` returns.
    pub fn try_push(
        &mut self,
        stream: StreamId,
        elem: StreamElement,
    ) -> Result<(), sp_engine::EngineError> {
        match self.ingest(stream, std::iter::once(elem))?.retry_after_ms {
            Some(retry_after_ms) => Err(sp_engine::EngineError::Overloaded { retry_after_ms }),
            None => Ok(()),
        }
    }

    /// Feeds one decoded frame as one batch: every element is admitted in
    /// order (sps bypass admission; a refused tuple is dropped and
    /// counted, and the frame goes on), and the admitted elements reach
    /// the executor in one [`Executor::push_all`], so the frame crosses
    /// each edge of the plan as one batch, sps and tuples alike.
    ///
    /// # Errors
    ///
    /// Returns the engine's typed error when an operator fails. The
    /// executor has already discarded everything staged behind the
    /// failure — which may include policy updates bound for other queries,
    /// so it latches the error and refuses every later frame with it
    /// (`sp-server` quarantines the tenant). Admission refusals are not
    /// errors here: they are reported in
    /// [`FrameAdmission::retry_after_ms`].
    pub fn push_frame(
        &mut self,
        stream: StreamId,
        elements: Vec<StreamElement>,
    ) -> Result<FrameAdmission, sp_engine::EngineError> {
        self.ingest(stream, elements.into_iter())
    }

    fn ingest(
        &mut self,
        stream: StreamId,
        elements: impl ExactSizeIterator<Item = StreamElement>,
    ) -> Result<FrameAdmission, sp_engine::EngineError> {
        // Count every element, refused or failed: a checkpoint taken
        // afterwards must not invite a replay of a rejected element.
        self.input_pos += elements.len() as u64;
        let mut frame = FrameAdmission::default();
        let admission = &mut self.admission;
        let admitted = elements.filter(|elem| {
            let is_tuple = elem.is_tuple();
            if let Some(ac) = admission {
                // `admit` refuses only with `Overloaded`.
                if let Err(e) = ac.admit(stream, is_tuple, elem.ts()) {
                    if let sp_engine::EngineError::Overloaded { retry_after_ms } = e {
                        frame.retry_after_ms = frame.retry_after_ms.max(Some(retry_after_ms));
                    }
                    return false;
                }
            }
            if is_tuple {
                frame.tuples += 1;
            } else {
                frame.sps += 1;
            }
            true
        });
        self.executor.push_all(admitted.map(|elem| (stream, elem)))?;
        Ok(frame)
    }

    /// Degradation counters for the whole session: every operator's
    /// losses (shedding, quarantine, reorder drops, ladder state) plus
    /// the ingestion admission controller's rejections.
    #[must_use]
    pub fn degradation(&self) -> sp_engine::DegradationStats {
        let mut d = self.executor.degradation();
        if let Some(ac) = &self.admission {
            d.absorb(&ac.degradation());
        }
        d
    }

    /// How many raw input elements this session has consumed — after
    /// [`Dsms::resume`], the position replay should continue from.
    #[must_use]
    pub fn input_pos(&self) -> u64 {
        self.input_pos
    }

    /// Takes an epoch checkpoint of the whole session (analyzer policy
    /// state, every operator, sink counters) and appends it to `store`.
    ///
    /// # Errors
    ///
    /// Propagates the store's write error; the session itself is
    /// unaffected by a failed save.
    pub fn checkpoint_to(
        &self,
        epoch: u64,
        store: &mut dyn sp_engine::CheckpointStore,
    ) -> Result<(), sp_engine::EngineError> {
        store.save(&self.executor.checkpoint(epoch, self.input_pos))
    }

    /// Engine errors absorbed by [`RunningDsms::push`] so far.
    #[must_use]
    pub fn errors(&self) -> &[sp_engine::EngineError] {
        &self.errors
    }

    /// The result sink of a query.
    ///
    /// # Panics
    ///
    /// Panics if the query id was not registered before `start`.
    #[must_use]
    pub fn results(&self, query: QueryId) -> &sp_engine::Sink {
        self.executor.sink(self.sinks[&query])
    }

    /// The session's security audit trail: every release, suppression,
    /// and quarantine decision made so far, in canonical operator order.
    /// Empty unless [`Dsms::telemetry`] was set before `start`.
    #[must_use]
    pub fn audit_trail(&self) -> sp_engine::AuditTrail {
        self.executor.audit_trail()
    }

    /// The session's sp-trace span sheet: the causal spans recorded by
    /// every analyzer and shield so far, in canonical operator order.
    /// Empty unless [`Dsms::telemetry`] was set with a span capacity
    /// before `start`.
    #[must_use]
    pub fn span_sheet(&self) -> sp_engine::SpanSheet {
        self.executor.span_sheet()
    }

    /// The session's metrics registry: per-operator logical counters.
    #[must_use]
    pub fn metrics(&self) -> sp_engine::MetricsRegistry {
        self.executor.metrics()
    }

    /// The session's metrics snapshot in Prometheus text exposition
    /// format (counters always; latency/queue histograms when
    /// [`Dsms::telemetry`] enabled metrics collection).
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        self.executor.metrics_prometheus()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{Tuple, TupleId, Value, ValueType};

    fn dsms() -> Dsms {
        let mut d = Dsms::new();
        d.register_stream(
            StreamId(1),
            Schema::of(
                "LocationUpdates",
                &[("obj_id", ValueType::Int), ("x", ValueType::Float), ("speed", ValueType::Float)],
            ),
        )
        .unwrap();
        d.register_role("family").unwrap();
        d.register_role("store").unwrap();
        d
    }

    fn tup(tid: u64, ts: u64, x: f64, speed: f64) -> StreamElement {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64), Value::Float(x), Value::Float(speed)],
        ))
    }

    #[test]
    fn end_to_end_query_with_cql_punctuations() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id, x FROM LocationUpdates WHERE speed > 1", alice).unwrap();

        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();

        let mut running = d.start();
        running.push(sid, StreamElement::punctuation(sp));
        running.push(StreamId(1), tup(1, 1, 5.0, 2.0));
        running.push(StreamId(1), tup(2, 2, 6.0, 0.5)); // filtered by speed
        let results: Vec<u64> = running.results(q).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(results, vec![1]);
    }

    #[test]
    fn unauthorized_subject_sees_nothing() {
        let mut d = dsms();
        let bob = d.register_subject("bob", &["store"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", bob).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        let mut running = d.start();
        running.push(sid, StreamElement::punctuation(sp));
        running.push(StreamId(1), tup(1, 1, 5.0, 2.0));
        assert_eq!(running.results(q).tuple_count(), 0);
    }

    #[test]
    fn multiple_queries_share_the_source() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let bob = d.register_subject("bob", &["store"]).unwrap();
        let qa = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let qb = d.submit("SELECT obj_id FROM LocationUpdates", bob).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'store'",
                Timestamp(0),
            )
            .unwrap();
        let mut running = d.start();
        running.push(sid, StreamElement::punctuation(sp));
        running.push(StreamId(1), tup(7, 1, 0.0, 0.0));
        assert_eq!(running.results(qa).tuple_count(), 0);
        assert_eq!(running.results(qb).tuple_count(), 1);
    }

    #[test]
    fn submit_rejects_non_select() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        assert!(d
            .submit("INSERT SP INTO STREAM LocationUpdates LET DDP = ('*','*','*'), SRP='x'", alice)
            .is_err());
    }

    #[test]
    fn withdraw_releases_the_subject_pin() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        // Pinned while registered.
        assert!(d.catalog.roles.reassign_subject_roles(alice, &["store"]).is_err());
        assert!(d.withdraw(q));
        assert!(!d.withdraw(q), "second withdrawal is a no-op");
        assert!(d.catalog.roles.reassign_subject_roles(alice, &["store"]).is_ok());
        assert!(d.queries().is_empty());
    }

    #[test]
    fn checkpoint_resume_continues_without_leaking() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        let mut input = vec![(sid, StreamElement::punctuation(sp))];
        for i in 1..=12 {
            input.push((StreamId(1), tup(i, i, 1.0, 2.0)));
        }

        // Uninterrupted baseline.
        let mut base = d.start();
        for (s, e) in &input {
            base.push(*s, e.clone());
        }
        let baseline: Vec<u64> = base.results(q).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(baseline.len(), 12);

        // Run half, checkpoint, crash, resume, replay the rest.
        let mut store = sp_engine::MemStore::default();
        let mut run = d.start();
        for (s, e) in input.iter().take(7) {
            run.push(*s, e.clone());
        }
        run.checkpoint_to(1, &mut store).unwrap();
        drop(run); // crash

        let mut resumed = d.resume(&store).unwrap();
        assert_eq!(resumed.input_pos(), 7);
        for (s, e) in input.iter().skip(7) {
            resumed.push(*s, e.clone());
        }
        let got: Vec<u64> = resumed.results(q).tuples().map(|t| t.tid.raw()).collect();
        // Pre-crash deliveries left the system; post-resume output is
        // exactly the baseline's suffix — the restored policy state
        // releases the same tuples, never more.
        assert_eq!(got.len(), 6);
        assert!(baseline.ends_with(&got), "resumed run released {got:?}");
        assert!(resumed.errors().is_empty());
    }

    #[test]
    fn resume_from_empty_store_cold_starts() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let store = sp_engine::MemStore::default();
        let running = d.resume(&store).unwrap();
        assert_eq!(running.input_pos(), 0);
    }

    #[test]
    fn resume_refuses_checkpoint_from_a_different_plan() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let mut store = sp_engine::MemStore::default();
        d.start().checkpoint_to(0, &mut store).unwrap();

        // A second query changes the plan shape; the stale checkpoint
        // must be refused outright, not partially applied.
        let bob = d.register_subject("bob", &["store"]).unwrap();
        let _q2 = d.submit("SELECT x FROM LocationUpdates", bob).unwrap();
        assert!(d.resume(&store).is_err());
    }

    #[test]
    fn resume_refuses_a_checkpoint_of_the_plan_before_projection_moved() {
        // A build that ran π at the top of the chain checkpointed as many
        // nodes as this one does, in another order (ψ, σ, π against
        // π, ψ, σ): the count matches, and restore fails closed because
        // the first node's bytes are a shield's, which π does not decode.
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let sql = "SELECT obj_id, speed FROM LocationUpdates WHERE speed > 1";
        let _q = d.submit(sql, alice).unwrap();
        let Statement::Select(stmt) = parse(sql).unwrap() else { unreachable!() };
        let unmoved = plan_select(&d.catalog, &stmt, &d.queries()[0].roles).unwrap();
        let (unmoved, _) = Optimizer::new(d.cost_model.clone()).optimize(&unmoved);
        assert_eq!(unmoved.op_name(), "project");
        assert_ne!(unmoved, d.queries()[0].plan);

        let mut builder = PlanBuilder::new(Arc::new(d.catalog.roles.clone()));
        let root = crate::physical::instantiate_with(
            &unmoved,
            &mut builder,
            &mut HashMap::new(),
            InstantiateOptions::default(),
        );
        let _sink = builder.sink(root);
        let mut old = builder.build();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        old.push(sid, StreamElement::punctuation(sp)).unwrap();
        old.push(StreamId(1), tup(1, 1, 5.0, 2.0)).unwrap();
        let ckpt = old.checkpoint(1, 2);
        assert_eq!(ckpt.nodes.len(), d.start().executor.checkpoint(0, 0).nodes.len());

        let mut store = sp_engine::MemStore::default();
        sp_engine::CheckpointStore::save(&mut store, &ckpt).unwrap();
        let refused = d.resume(&store).err();
        assert!(
            matches!(&refused, Some(sp_engine::EngineError::CheckpointCorrupt { stage, .. }) if stage == "project"),
            "{refused:?}"
        );
    }

    #[test]
    fn granularity_is_fixed_once_a_query_is_registered() {
        use sp_engine::Granularity;
        let mut d = dsms();
        d.set_granularity(Granularity::Attribute).unwrap();
        d.set_granularity(Granularity::Tuple).unwrap();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        // The plan was built for tuple granularity: π sits on the scan.
        assert!(d.set_granularity(Granularity::Attribute).is_err());
        assert_eq!(d.granularity(), Granularity::Tuple);
        d.set_granularity(Granularity::Tuple).unwrap();
        assert!(d.withdraw(q));
        d.set_granularity(Granularity::Attribute).unwrap();
        assert_eq!(d.granularity(), Granularity::Attribute);
    }

    #[test]
    fn optimizer_report_is_recorded() {
        let mut d = dsms();
        d.register_stream(
            StreamId(2),
            Schema::of("Regions", &[("obj_id", ValueType::Int), ("region", ValueType::Int)]),
        )
        .unwrap();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d
            .submit(
                "SELECT a.obj_id FROM LocationUpdates [RANGE 10 SECONDS] AS a, \
                 Regions [RANGE 10 SECONDS] AS b WHERE a.obj_id = b.obj_id",
                alice,
            )
            .unwrap();
        let q = &d.queries()[0];
        assert!(q.report.final_cost <= q.report.initial_cost);
        assert!(q.plan.shield_count() >= 1);
    }

    #[test]
    fn admission_refuses_excess_tuples_with_retry_hint() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        // 1 token/sec, burst of 2, no debt allowance: the third tuple in
        // the same millisecond must be refused with a retry hint.
        d.admission = Some(sp_engine::AdmissionConfig {
            tokens_per_sec: 1,
            burst: 2,
            enqueue_deadline_ms: 0,
        });
        let mut running = d.start();
        running.push(sid, StreamElement::punctuation(sp));
        assert!(running.try_push(StreamId(1), tup(1, 1, 5.0, 2.0)).is_ok());
        assert!(running.try_push(StreamId(1), tup(2, 1, 5.0, 2.0)).is_ok());
        let err = running.try_push(StreamId(1), tup(3, 1, 5.0, 2.0)).unwrap_err();
        match err {
            sp_engine::EngineError::Overloaded { retry_after_ms } => {
                assert!(retry_after_ms > 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The admitted tuples were released; the refused one never
        // entered the plan.
        let results: Vec<u64> = running.results(q).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(results, vec![1, 2]);
        assert_eq!(running.degradation().admission_rejected, 1);
    }

    #[test]
    fn admission_never_refuses_punctuations() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        d.admission = Some(sp_engine::AdmissionConfig {
            tokens_per_sec: 1,
            burst: 1,
            enqueue_deadline_ms: 0,
        });
        let mut running = d.start();
        // Exhaust the bucket with the single burst token.
        assert!(running.try_push(StreamId(1), tup(1, 1, 5.0, 2.0)).is_ok());
        assert!(running.try_push(StreamId(1), tup(2, 1, 5.0, 2.0)).is_err());
        // A punctuation still goes through at zero balance: overload may
        // drop data, never policy updates.
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(1),
            )
            .unwrap();
        assert!(running.try_push(sid, StreamElement::punctuation(sp)).is_ok());
        // The sp arrived after the tuples, so nothing is released — but
        // the policy state advanced, which is what matters here.
        assert_eq!(running.results(q).tuple_count(), 0);
    }

    /// Forwards everything, failing on the tuple with id 2.
    struct FailsOnTwo(sp_engine::OperatorStats);

    impl sp_engine::Operator for FailsOnTwo {
        fn name(&self) -> &str {
            "fails-on-two"
        }

        fn process_batch(
            &mut self,
            _port: usize,
            batch: sp_engine::ElementBatch,
            out: &mut sp_engine::Emitter,
        ) -> Result<(), sp_engine::EngineError> {
            for elem in batch {
                if elem.as_tuple().is_some_and(|t| t.tid.raw() == 2) {
                    return Err(sp_engine::EngineError::MalformedElement {
                        operator: "fails-on-two".into(),
                        reason: "test failure".into(),
                    });
                }
                out.push(elem);
            }
            Ok(())
        }

        fn stats(&self) -> &sp_engine::OperatorStats {
            &self.0
        }
    }

    #[test]
    fn push_records_a_latched_error_once() {
        let d = dsms();
        let mut b = PlanBuilder::new(Arc::new(d.catalog.roles.clone()));
        let schema = d.catalog.stream("LocationUpdates").unwrap().schema.clone();
        let src = b.source(StreamId(1), schema);
        let failing = b.add(FailsOnTwo(sp_engine::OperatorStats::new()), src);
        let _sink = b.sink(failing);
        let mut running = RunningDsms {
            executor: b.build(),
            sinks: HashMap::new(),
            errors: Vec::new(),
            input_pos: 0,
            admission: None,
        };
        running.push(StreamId(1), tup(1, 1, 0.0, 0.0));
        assert!(running.errors().is_empty());
        for i in 0..1_000 {
            running.push(StreamId(1), tup(2 + i, 2 + i, 0.0, 0.0));
        }
        assert_eq!(running.errors().len(), 1, "the session's error log is bounded");
        assert!(matches!(running.errors()[0], sp_engine::EngineError::MalformedElement { .. }));
        assert_eq!(running.input_pos(), 1_001);
    }

    #[test]
    fn push_records_admission_errors() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        d.admission = Some(sp_engine::AdmissionConfig {
            tokens_per_sec: 1,
            burst: 1,
            enqueue_deadline_ms: 0,
        });
        let mut running = d.start();
        running.push(StreamId(1), tup(1, 1, 5.0, 2.0));
        running.push(StreamId(1), tup(2, 1, 5.0, 2.0));
        assert_eq!(running.errors().len(), 1);
        assert!(matches!(running.errors()[0], sp_engine::EngineError::Overloaded { .. }));
        // input_pos still counts the rejected element so a later
        // checkpoint does not invite its replay.
        assert_eq!(running.input_pos(), 2);
    }
}
