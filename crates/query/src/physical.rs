//! Physical plan instantiation: logical plans → engine operator DAGs.

use std::collections::HashMap;

use sp_core::StreamId;
use sp_engine::{
    DupElim, Granularity, GroupBy, PlanBuilder, Project, SAIntersect, SAJoin, SecurityShield,
    Select, SourceRef, Union, Upstream,
};

use crate::logical::LogicalPlan;

/// Options controlling physical instantiation.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstantiateOptions {
    /// Enforcement granularity for every Security Shield in the plan:
    /// `Tuple` drops unauthorized tuples wholesale; `Attribute` passes
    /// tuples visible through attribute-scoped grants, masking the
    /// attributes the query may not read (§III-A's attribute granularity).
    pub granularity: Granularity,
    /// Instantiate every selection as [`Select::eager`]: policies are
    /// forwarded immediately instead of delayed until the segment's
    /// first surviving tuple (§IV-B). Plans built for
    /// [`sp_engine::ShardedExecutor`] need this — an eager selection is
    /// policy-transparent, so the shield's shard-local flushes stay
    /// deduplicable all the way to the sink. Sessions keep the default
    /// `false` (the paper's traffic-saving delay).
    pub eager_selects: bool,
}

/// Instantiates `plan` into `builder`, reusing sources in `sources` so
/// that several queries over the same stream share one analyzer per
/// builder. Returns the upstream handle of the plan's root operator.
pub fn instantiate(
    plan: &LogicalPlan,
    builder: &mut PlanBuilder,
    sources: &mut HashMap<StreamId, SourceRef>,
) -> Upstream {
    instantiate_with(plan, builder, sources, InstantiateOptions::default())
}

/// [`instantiate`] with explicit options.
pub fn instantiate_with(
    plan: &LogicalPlan,
    builder: &mut PlanBuilder,
    sources: &mut HashMap<StreamId, SourceRef>,
    opts: InstantiateOptions,
) -> Upstream {
    match plan {
        LogicalPlan::Scan { stream, schema, .. } => {
            let source =
                *sources.entry(*stream).or_insert_with(|| builder.source(*stream, schema.clone()));
            Upstream::Source(source)
        }
        LogicalPlan::Shield { input, .. }
        | LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. } => {
            let upstream = instantiate_with(input, builder, sources, opts);
            add_chain_node(plan, builder, upstream, opts)
        }
        LogicalPlan::Join { left, right, left_key, right_key, window_ms, variant } => {
            let left_arity = left.schema().arity();
            let l = instantiate_with(left, builder, sources, opts);
            let r = instantiate_with(right, builder, sources, opts);
            Upstream::Node(builder.add_binary(
                SAJoin::new(*variant, *window_ms, *left_key, *right_key, left_arity),
                l,
                r,
            ))
        }
        LogicalPlan::Union { left, right } => {
            let l = instantiate_with(left, builder, sources, opts);
            let r = instantiate_with(right, builder, sources, opts);
            Upstream::Node(builder.add_binary(Union::new(), l, r))
        }
        LogicalPlan::Intersect { left, right, window_ms } => {
            let l = instantiate_with(left, builder, sources, opts);
            let r = instantiate_with(right, builder, sources, opts);
            Upstream::Node(builder.add_binary(SAIntersect::new(*window_ms), l, r))
        }
        LogicalPlan::DupElim { input, keys, window_ms } => {
            let upstream = instantiate_with(input, builder, sources, opts);
            Upstream::Node(builder.add(DupElim::new(keys.clone(), *window_ms), upstream))
        }
        LogicalPlan::GroupBy { input, group, agg, agg_attr, window_ms } => {
            let upstream = instantiate_with(input, builder, sources, opts);
            Upstream::Node(builder.add(GroupBy::new(*group, *agg, *agg_attr, *window_ms), upstream))
        }
    }
}

/// Adds the operator of one π, σ or ψ node on `upstream`.
fn add_chain_node(
    node: &LogicalPlan,
    builder: &mut PlanBuilder,
    upstream: Upstream,
    opts: InstantiateOptions,
) -> Upstream {
    Upstream::Node(match node {
        LogicalPlan::Shield { roles, .. } => builder
            .add(SecurityShield::new(roles.clone()).with_granularity(opts.granularity), upstream),
        LogicalPlan::Select { predicate, .. } if opts.eager_selects => {
            builder.add(Select::eager(predicate.clone()), upstream)
        }
        LogicalPlan::Select { predicate, .. } => {
            builder.add(Select::new(predicate.clone()), upstream)
        }
        LogicalPlan::Project { indices, .. } => {
            builder.add(Project::new(indices.clone()), upstream)
        }
        other => unreachable!("{} is not a chain node", other.op_name()),
    })
}

/// [`instantiate_with`] for one query of a session: a query that is a
/// scan chain ([`LogicalPlan::is_scan_chain`]) reuses every prefix an
/// earlier query of the session left in `chains` and records its own, so
/// each distinct chain of π, σ and ψ runs once (§VI-C). The sibling
/// shields on a shared edge then form one shield group. Any other plan is
/// instantiated as it is.
pub(crate) fn instantiate_shared(
    plan: &LogicalPlan,
    builder: &mut PlanBuilder,
    sources: &mut HashMap<StreamId, SourceRef>,
    chains: &mut Vec<(LogicalPlan, Upstream)>,
    opts: InstantiateOptions,
) -> Upstream {
    if !plan.is_scan_chain() {
        return instantiate_with(plan, builder, sources, opts);
    }
    if let Some((_, upstream)) = chains.iter().find(|(chain, _)| chain == plan) {
        return *upstream;
    }
    let upstream = match plan.children().first() {
        Some(input) => {
            let below = instantiate_shared(input, builder, sources, chains, opts);
            add_chain_node(plan, builder, below, opts)
        }
        None => instantiate_with(plan, builder, sources, opts),
    };
    chains.push((plan.clone(), upstream));
    upstream
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{
        RoleCatalog, RoleSet, Schema, SecurityPunctuation, StreamElement, Timestamp, Tuple,
        TupleId, Value, ValueType,
    };
    use sp_engine::{CmpOp, Expr};
    use std::sync::Arc;

    #[test]
    fn logical_plan_runs_end_to_end() {
        let schema = Schema::of("loc", &[("id", ValueType::Int), ("x", ValueType::Int)]);
        let plan = LogicalPlan::Project {
            indices: vec![1],
            input: Box::new(LogicalPlan::Select {
                predicate: Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(5))),
                input: Box::new(LogicalPlan::Shield {
                    roles: RoleSet::from([1]),
                    input: Box::new(LogicalPlan::Scan {
                        stream: StreamId(1),
                        schema: schema.clone(),
                        window_ms: 1000,
                    }),
                }),
            }),
        };

        let mut catalog = RoleCatalog::new();
        catalog.register_synthetic_roles(4);
        let mut builder = PlanBuilder::new(Arc::new(catalog));
        let mut sources = HashMap::new();
        let root = instantiate(&plan, &mut builder, &mut sources);
        let sink = builder.sink(root);
        let mut exec = builder.build();

        exec.push(
            StreamId(1),
            StreamElement::punctuation(SecurityPunctuation::grant_all(
                RoleSet::from([1]),
                Timestamp(0),
            )),
        )
        .unwrap();
        for (tid, x) in [(1u64, 10i64), (2, 3), (3, 9)] {
            exec.push(
                StreamId(1),
                StreamElement::tuple(Tuple::new(
                    StreamId(1),
                    TupleId(tid),
                    Timestamp(tid),
                    vec![Value::Int(tid as i64), Value::Int(x)],
                )),
            )
            .unwrap();
        }
        let vals: Vec<i64> =
            exec.sink(sink).tuples().map(|t| t.value(0).unwrap().as_i64().unwrap()).collect();
        assert_eq!(vals, vec![10, 9]);
    }

    #[test]
    fn scans_are_shared_between_plans() {
        let schema = Schema::of("loc", &[("id", ValueType::Int)]);
        let scan = LogicalPlan::Scan { stream: StreamId(1), schema, window_ms: 1000 };
        let q1 = LogicalPlan::Shield { input: Box::new(scan.clone()), roles: RoleSet::from([1]) };
        let q2 = LogicalPlan::Shield { input: Box::new(scan), roles: RoleSet::from([2]) };

        let mut builder = PlanBuilder::new(Arc::new(RoleCatalog::new()));
        let mut sources = HashMap::new();
        let r1 = instantiate(&q1, &mut builder, &mut sources);
        let r2 = instantiate(&q2, &mut builder, &mut sources);
        let _ = builder.sink(r1);
        let _ = builder.sink(r2);
        assert_eq!(sources.len(), 1, "one source for both queries");
    }
}
