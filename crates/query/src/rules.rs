//! The security-aware algebraic equivalence rules of Table II, as
//! executable plan rewrites.
//!
//! Each rule is a function `&LogicalPlan -> Option<LogicalPlan>` that fires
//! when the plan root matches; [`apply_anywhere`] applies a rule at the
//! first matching node (top-down), and [`all_rewrites`] enumerates every
//! single-rule neighbour of a plan — the optimizer's search space.
//!
//! Two soundness refinements over the paper, both of the same shape —
//! pushing ψ below a *policy-combining* operator keeps a residual shield
//! above it, because such operators emit results under policies derived
//! from (not equal to) their inputs' policies:
//!
//! * **Rule 3 (join):** a join result is governed by the **intersection**
//!   of the base policies, which can be disjoint from the predicate even
//!   when both base policies intersect it (e.g. P_T = {1,2}, P_E = {2,3},
//!   p = {1,3}).
//! * **Rule 2 (duplicate elimination):** δ's case 3 re-releases a
//!   duplicate under the *delta* policy `P_new − (P_old ∩ P_new)`, which
//!   can exclude the predicate roles entirely even though `P_new`
//!   intersected them (e.g. P_old = {1}, P_new = {0,1}, p = {1}: the
//!   re-release carries {0}).
//!
//! The residual shields re-check only per-segment policies — under
//! workloads with wholesale-compatible policies they pass everything and
//! cost a policy check per punctuation. Group-by needs no residual: each
//! attribute subgroup's output carries exactly its members' policy.

use sp_core::RoleSet;

use crate::logical::LogicalPlan;

/// The rewrite rules of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Rule 2: ψ(σ(T)) → σ(ψ(T)).
    PushShieldBelowSelect,
    /// Rule 2 (reverse): σ(ψ(T)) → ψ(σ(T)).
    PullShieldAboveSelect,
    /// Rule 2: ψ(π(T)) → π(ψ(T)).
    PushShieldBelowProject,
    /// Rule 2 (reverse): π(ψ(T)) → ψ(π(T)).
    PullShieldAboveProject,
    /// π_a(σ_c(T)) → σ_c'(π_a(T)) when `c` reads only kept attributes
    /// (`c'` is `c` over the output positions). Not in [`ALL_RULES`]: the
    /// cost search never moves π down (the §VI-A model charges π per input
    /// tuple); the projection-at-scan normalization
    /// ([`crate::optimizer::project_at_scan`]) applies it.
    PushProjectBelowSelect,
    /// Rule 2: ψ(δ(T)) → ψ(δ(ψ(T))) (sound residual form — see below).
    PushShieldBelowDupElim,
    /// Rule 2: ψ(G(T)) → G(ψ(T)).
    ///
    /// Visibility-preserving but not output-identical when policies vary
    /// within a group: group-by partitions each group into attribute
    /// subgroups by policy (§IV-B), so the unpushed form emits *partial*
    /// aggregates per original policy while the pushed form aggregates the
    /// shield's whole view per group. Every subject still sees aggregates
    /// over exactly the tuples it may read — the pushed form's totals are
    /// the more useful answer, and the cost model prefers it anyway.
    PushShieldBelowGroupBy,
    /// Rule 2: ψ_p1(ψ_p2(T)) → ψ_p2(ψ_p1(T)).
    CommuteShields,
    /// Rule 1 (merge): ψ_p(ψ_p(T)) → ψ_p(T); ψ_p1(ψ_p2(T)) with
    /// p1 ⊇ p2 → ψ_p2(T) (the tighter predicate dominates a chain).
    MergeShieldChain,
    /// Rule 3: ψ_p(T ⋈ E) → ψ_p(ψ_p(T) ⋈ ψ_p(E)) (sound residual form).
    PushShieldBelowJoin,
    /// Rule 3 (reverse): ψ_p(ψ_p(T) ⋈ ψ_p(E)) → ψ_p(T ⋈ E).
    PullShieldAboveJoin,
    /// Rule 3 (Θ = ∪): ψ(T ∪ E) → ψ(T) ∪ ψ(E). No residual shield is
    /// needed — union does not combine policies; every output stays under
    /// its own side's policy.
    PushShieldBelowUnion,
    /// Rule 3 (Θ = ∪, reverse): ψ(T) ∪ ψ(E) → ψ(T ∪ E).
    PullShieldAboveUnion,
    /// Rule 3 (Θ = ∩): ψ(T ∩ E) → ψ(ψ(T) ∩ ψ(E)) (residual form —
    /// intersection combines policies like the join).
    PushShieldBelowIntersect,
    /// Rule 4: T ⋈ E → π(E ⋈ T) (with a projection restoring column order).
    CommuteJoin,
    /// Rule 5: (T ⋈ E) ⋈ K → T ⋈ (E ⋈ K), when the outer key comes from E.
    AssociateJoin,
}

/// Every rule of the cost search's neighbourhood.
pub const ALL_RULES: [Rule; 15] = [
    Rule::PushShieldBelowSelect,
    Rule::PullShieldAboveSelect,
    Rule::PushShieldBelowProject,
    Rule::PullShieldAboveProject,
    Rule::PushShieldBelowDupElim,
    Rule::PushShieldBelowGroupBy,
    Rule::CommuteShields,
    Rule::MergeShieldChain,
    Rule::PushShieldBelowJoin,
    Rule::PullShieldAboveJoin,
    Rule::PushShieldBelowUnion,
    Rule::PullShieldAboveUnion,
    Rule::PushShieldBelowIntersect,
    Rule::CommuteJoin,
    Rule::AssociateJoin,
];

/// Applies `rule` at the root of `plan`, if it matches.
#[must_use]
pub fn apply(rule: Rule, plan: &LogicalPlan) -> Option<LogicalPlan> {
    match rule {
        Rule::PushShieldBelowSelect => {
            let LogicalPlan::Shield { input, roles } = plan else { return None };
            let LogicalPlan::Select { input: inner, predicate } = &**input else {
                return None;
            };
            Some(LogicalPlan::Select {
                input: Box::new(LogicalPlan::Shield { input: inner.clone(), roles: roles.clone() }),
                predicate: predicate.clone(),
            })
        }
        Rule::PullShieldAboveSelect => {
            let LogicalPlan::Select { input, predicate } = plan else { return None };
            let LogicalPlan::Shield { input: inner, roles } = &**input else {
                return None;
            };
            Some(LogicalPlan::Shield {
                input: Box::new(LogicalPlan::Select {
                    input: inner.clone(),
                    predicate: predicate.clone(),
                }),
                roles: roles.clone(),
            })
        }
        Rule::PushShieldBelowProject => {
            let LogicalPlan::Shield { input, roles } = plan else { return None };
            let LogicalPlan::Project { input: inner, indices } = &**input else {
                return None;
            };
            Some(LogicalPlan::Project {
                input: Box::new(LogicalPlan::Shield { input: inner.clone(), roles: roles.clone() }),
                indices: indices.clone(),
            })
        }
        Rule::PullShieldAboveProject => {
            let LogicalPlan::Project { input, indices } = plan else { return None };
            let LogicalPlan::Shield { input: inner, roles } = &**input else {
                return None;
            };
            Some(LogicalPlan::Shield {
                input: Box::new(LogicalPlan::Project {
                    input: inner.clone(),
                    indices: indices.clone(),
                }),
                roles: roles.clone(),
            })
        }
        Rule::PushProjectBelowSelect => {
            let LogicalPlan::Project { input, indices } = plan else { return None };
            let LogicalPlan::Select { input: inner, predicate } = &**input else {
                return None;
            };
            let mut read = Vec::new();
            predicate.referenced_attrs(&mut read);
            if !read.iter().all(|a| indices.contains(a)) {
                return None;
            }
            let to_output = |old| indices.iter().position(|&i| i == old).unwrap_or(old);
            Some(LogicalPlan::Select {
                input: Box::new(LogicalPlan::Project {
                    input: inner.clone(),
                    indices: indices.clone(),
                }),
                predicate: predicate.remap_attrs(&to_output),
            })
        }
        Rule::PushShieldBelowDupElim => {
            let LogicalPlan::Shield { input, roles } = plan else { return None };
            let LogicalPlan::DupElim { input: inner, keys, window_ms } = &**input else {
                return None;
            };
            // Avoid re-firing forever on the already-pushed form.
            if matches!(&**inner, LogicalPlan::Shield { roles: r, .. } if r == roles) {
                return None;
            }
            Some(LogicalPlan::Shield {
                roles: roles.clone(),
                input: Box::new(LogicalPlan::DupElim {
                    input: Box::new(LogicalPlan::Shield {
                        input: inner.clone(),
                        roles: roles.clone(),
                    }),
                    keys: keys.clone(),
                    window_ms: *window_ms,
                }),
            })
        }
        Rule::PushShieldBelowGroupBy => {
            let LogicalPlan::Shield { input, roles } = plan else { return None };
            let LogicalPlan::GroupBy { input: inner, group, agg, agg_attr, window_ms } = &**input
            else {
                return None;
            };
            Some(LogicalPlan::GroupBy {
                input: Box::new(LogicalPlan::Shield { input: inner.clone(), roles: roles.clone() }),
                group: *group,
                agg: *agg,
                agg_attr: *agg_attr,
                window_ms: *window_ms,
            })
        }
        Rule::CommuteShields => {
            let LogicalPlan::Shield { input, roles: p1 } = plan else { return None };
            let LogicalPlan::Shield { input: inner, roles: p2 } = &**input else {
                return None;
            };
            if p1 == p2 {
                return None; // commuting equal shields is a no-op
            }
            Some(LogicalPlan::Shield {
                input: Box::new(LogicalPlan::Shield { input: inner.clone(), roles: p1.clone() }),
                roles: p2.clone(),
            })
        }
        Rule::MergeShieldChain => {
            let LogicalPlan::Shield { input, roles: p1 } = plan else { return None };
            let LogicalPlan::Shield { input: inner, roles: p2 } = &**input else {
                return None;
            };
            // A chain passes tuples whose policy intersects BOTH p1 and p2.
            // If one predicate contains the other, the tighter one alone is
            // NOT equivalent in general — but equal predicates collapse,
            // and a superset outer shield is implied by the inner one.
            if p1 == p2 || p2.is_subset(p1) {
                Some(LogicalPlan::Shield { input: inner.clone(), roles: p2.clone() })
            } else if p1.is_subset(p2) {
                Some(LogicalPlan::Shield { input: inner.clone(), roles: p1.clone() })
            } else {
                None
            }
        }
        Rule::PushShieldBelowJoin => {
            let LogicalPlan::Shield { input, roles } = plan else { return None };
            let LogicalPlan::Join { left, right, left_key, right_key, window_ms, variant } =
                &**input
            else {
                return None;
            };
            // Avoid re-firing forever: don't push if the inputs are already
            // shielded with this predicate.
            let shielded =
                |p: &LogicalPlan| matches!(p, LogicalPlan::Shield { roles: r, .. } if r == roles);
            if shielded(left) && shielded(right) {
                return None;
            }
            Some(LogicalPlan::Shield {
                roles: roles.clone(),
                input: Box::new(LogicalPlan::Join {
                    left: Box::new(LogicalPlan::Shield {
                        input: left.clone(),
                        roles: roles.clone(),
                    }),
                    right: Box::new(LogicalPlan::Shield {
                        input: right.clone(),
                        roles: roles.clone(),
                    }),
                    left_key: *left_key,
                    right_key: *right_key,
                    window_ms: *window_ms,
                    variant: *variant,
                }),
            })
        }
        Rule::PullShieldAboveJoin => {
            let LogicalPlan::Shield { input, roles } = plan else { return None };
            let LogicalPlan::Join { left, right, left_key, right_key, window_ms, variant } =
                &**input
            else {
                return None;
            };
            let LogicalPlan::Shield { input: l_in, roles: l_roles } = &**left else {
                return None;
            };
            let LogicalPlan::Shield { input: r_in, roles: r_roles } = &**right else {
                return None;
            };
            if l_roles != roles || r_roles != roles {
                return None;
            }
            Some(LogicalPlan::Shield {
                roles: roles.clone(),
                input: Box::new(LogicalPlan::Join {
                    left: l_in.clone(),
                    right: r_in.clone(),
                    left_key: *left_key,
                    right_key: *right_key,
                    window_ms: *window_ms,
                    variant: *variant,
                }),
            })
        }
        Rule::PushShieldBelowUnion => {
            let LogicalPlan::Shield { input, roles } = plan else { return None };
            let LogicalPlan::Union { left, right } = &**input else { return None };
            Some(LogicalPlan::Union {
                left: Box::new(LogicalPlan::Shield { input: left.clone(), roles: roles.clone() }),
                right: Box::new(LogicalPlan::Shield { input: right.clone(), roles: roles.clone() }),
            })
        }
        Rule::PullShieldAboveUnion => {
            let LogicalPlan::Union { left, right } = plan else { return None };
            let LogicalPlan::Shield { input: l_in, roles: l_roles } = &**left else {
                return None;
            };
            let LogicalPlan::Shield { input: r_in, roles: r_roles } = &**right else {
                return None;
            };
            if l_roles != r_roles {
                return None;
            }
            Some(LogicalPlan::Shield {
                roles: l_roles.clone(),
                input: Box::new(LogicalPlan::Union { left: l_in.clone(), right: r_in.clone() }),
            })
        }
        Rule::PushShieldBelowIntersect => {
            let LogicalPlan::Shield { input, roles } = plan else { return None };
            let LogicalPlan::Intersect { left, right, window_ms } = &**input else {
                return None;
            };
            let shielded =
                |p: &LogicalPlan| matches!(p, LogicalPlan::Shield { roles: r, .. } if r == roles);
            if shielded(left) && shielded(right) {
                return None;
            }
            Some(LogicalPlan::Shield {
                roles: roles.clone(),
                input: Box::new(LogicalPlan::Intersect {
                    left: Box::new(LogicalPlan::Shield {
                        input: left.clone(),
                        roles: roles.clone(),
                    }),
                    right: Box::new(LogicalPlan::Shield {
                        input: right.clone(),
                        roles: roles.clone(),
                    }),
                    window_ms: *window_ms,
                }),
            })
        }
        Rule::CommuteJoin => {
            let LogicalPlan::Join { left, right, left_key, right_key, window_ms, variant } = plan
            else {
                return None;
            };
            let l_arity = left.schema().arity();
            let r_arity = right.schema().arity();
            // Swap sides, then restore the original column order.
            let swapped = LogicalPlan::Join {
                left: right.clone(),
                right: left.clone(),
                left_key: *right_key,
                right_key: *left_key,
                window_ms: *window_ms,
                variant: *variant,
            };
            let indices: Vec<usize> = (r_arity..r_arity + l_arity).chain(0..r_arity).collect();
            Some(LogicalPlan::Project { input: Box::new(swapped), indices })
        }
        Rule::AssociateJoin => {
            let LogicalPlan::Join {
                left: outer_left,
                right: k,
                left_key: c,
                right_key: d,
                window_ms: w_outer,
                variant,
            } = plan
            else {
                return None;
            };
            let LogicalPlan::Join {
                left: t,
                right: e,
                left_key: a,
                right_key: b,
                window_ms: w_inner,
                ..
            } = &**outer_left
            else {
                return None;
            };
            let t_arity = t.schema().arity();
            // Only rotate when the outer key comes from E's columns.
            if *c < t_arity {
                return None;
            }
            Some(LogicalPlan::Join {
                left: t.clone(),
                right: Box::new(LogicalPlan::Join {
                    left: e.clone(),
                    right: k.clone(),
                    left_key: c - t_arity,
                    right_key: *d,
                    window_ms: *w_outer,
                    variant: *variant,
                }),
                left_key: *a,
                right_key: *b,
                window_ms: *w_inner,
                variant: *variant,
            })
        }
    }
}

/// Applies `rule` at the first matching node, searching top-down
/// left-to-right. Returns the rewritten plan, or `None` if no node matched.
#[must_use]
pub fn apply_anywhere(rule: Rule, plan: &LogicalPlan) -> Option<LogicalPlan> {
    if let Some(rewritten) = apply(rule, plan) {
        return Some(rewritten);
    }
    let children = plan.children();
    for (i, child) in children.iter().enumerate() {
        if let Some(new_child) = apply_anywhere(rule, child) {
            let mut new_children: Vec<LogicalPlan> =
                children.iter().map(|c| (*c).clone()).collect();
            new_children[i] = new_child;
            return Some(plan.with_children(new_children));
        }
    }
    None
}

/// Every plan reachable from `plan` by one rule application (at any node).
#[must_use]
pub fn all_rewrites(plan: &LogicalPlan) -> Vec<(Rule, LogicalPlan)> {
    let mut out = Vec::new();
    for rule in ALL_RULES {
        collect_rewrites(rule, plan, &mut out);
    }
    out
}

fn collect_rewrites(rule: Rule, plan: &LogicalPlan, out: &mut Vec<(Rule, LogicalPlan)>) {
    if let Some(rewritten) = apply(rule, plan) {
        out.push((rule, rewritten));
    }
    let children = plan.children();
    for (i, child) in children.iter().enumerate() {
        let mut child_rewrites = Vec::new();
        collect_rewrites(rule, child, &mut child_rewrites);
        for (r, new_child) in child_rewrites {
            let mut new_children: Vec<LogicalPlan> =
                children.iter().map(|c| (*c).clone()).collect();
            new_children[i] = new_child;
            out.push((r, plan.with_children(new_children)));
        }
    }
}

/// Multi-query sharing (§VI-C): given per-query shields over one shared
/// subplan, produces the shared form — a single merged shield (the union
/// of the predicates) below the shared subplan, and the original per-query
/// shields kept at the top ("merged at the beginning, split at the end").
#[must_use]
pub fn merged_predicate(predicates: &[RoleSet]) -> RoleSet {
    let mut merged = RoleSet::new();
    for p in predicates {
        merged.union_with(p);
    }
    merged
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{Schema, StreamId, Value, ValueType};
    use sp_engine::{CmpOp, Expr, JoinVariant};

    fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            stream: StreamId(1),
            schema: Schema::of(name, &[("id", ValueType::Int), ("x", ValueType::Int)]),
            window_ms: 1000,
        }
    }

    fn shield(input: LogicalPlan, roles: &[u32]) -> LogicalPlan {
        LogicalPlan::Shield {
            input: Box::new(input),
            roles: roles.iter().map(|&r| sp_core::RoleId(r)).collect(),
        }
    }

    fn select(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(input),
            predicate: Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(0))),
        }
    }

    #[test]
    fn shield_select_commute_round_trip() {
        let original = shield(select(scan("s")), &[1]);
        let pushed = apply(Rule::PushShieldBelowSelect, &original).unwrap();
        assert_eq!(pushed.op_name(), "select");
        assert_eq!(pushed.children()[0].op_name(), "ss");
        let pulled = apply(Rule::PullShieldAboveSelect, &pushed).unwrap();
        assert_eq!(pulled, original);
    }

    #[test]
    fn shield_project_commute() {
        let original =
            shield(LogicalPlan::Project { input: Box::new(scan("s")), indices: vec![1] }, &[2]);
        let pushed = apply(Rule::PushShieldBelowProject, &original).unwrap();
        assert_eq!(pushed.op_name(), "project");
        let pulled = apply(Rule::PullShieldAboveProject, &pushed).unwrap();
        assert_eq!(pulled, original);
        // Schemas unchanged by the rewrite.
        assert_eq!(original.schema(), pushed.schema());
    }

    #[test]
    fn project_pushes_below_a_select_over_kept_columns() {
        let over = |read: usize| LogicalPlan::Project {
            input: Box::new(LogicalPlan::Select {
                input: Box::new(scan("s")),
                predicate: Expr::cmp(CmpOp::Gt, Expr::Attr(read), Expr::Const(Value::Int(0))),
            }),
            indices: vec![1, 1, 0],
        };
        let pushed = apply(Rule::PushProjectBelowSelect, &over(1)).unwrap();
        let LogicalPlan::Select { input, predicate } = &pushed else { panic!("{pushed}") };
        assert_eq!(input.op_name(), "project");
        // x is output columns 0 and 1; the predicate reads the first.
        assert_eq!(*predicate, Expr::cmp(CmpOp::Gt, Expr::Attr(0), Expr::Const(Value::Int(0))));
        assert_eq!(pushed.schema(), over(1).schema());
        // A predicate over a column the projection drops keeps π above σ.
        let narrow = LogicalPlan::Project { input: Box::new(select(scan("s"))), indices: vec![0] };
        assert!(apply(Rule::PushProjectBelowSelect, &narrow).is_none());
        assert!(!ALL_RULES.contains(&Rule::PushProjectBelowSelect));
    }

    #[test]
    fn shield_pushes_below_dupelim_and_groupby() {
        let de = shield(
            LogicalPlan::DupElim { input: Box::new(scan("s")), keys: vec![0], window_ms: 5 },
            &[1],
        );
        let pushed = apply(Rule::PushShieldBelowDupElim, &de).unwrap();
        // Residual form: shield stays above, a copy goes below.
        assert_eq!(pushed.op_name(), "ss");
        assert_eq!(pushed.children()[0].op_name(), "dupelim");
        assert_eq!(pushed.shield_count(), 2);
        // Idempotent: doesn't fire again on the pushed form.
        assert!(apply(Rule::PushShieldBelowDupElim, &pushed).is_none());

        let gb = shield(
            LogicalPlan::GroupBy {
                input: Box::new(scan("s")),
                group: Some(0),
                agg: sp_engine::AggFunc::Count,
                agg_attr: 1,
                window_ms: 5,
            },
            &[1],
        );
        let pushed = apply(Rule::PushShieldBelowGroupBy, &gb).unwrap();
        assert_eq!(pushed.op_name(), "groupby");
        assert_eq!(pushed.children()[0].op_name(), "ss");
    }

    #[test]
    fn commute_and_merge_shield_chains() {
        let chain = shield(shield(scan("s"), &[2]), &[1]);
        let commuted = apply(Rule::CommuteShields, &chain).unwrap();
        let LogicalPlan::Shield { roles, .. } = &commuted else { panic!() };
        assert_eq!(roles.iter().next().unwrap().raw(), 2);

        // Equal chain collapses.
        let dup = shield(shield(scan("s"), &[1]), &[1]);
        let merged = apply(Rule::MergeShieldChain, &dup).unwrap();
        assert_eq!(merged.shield_count(), 1);

        // Subset chain collapses to the tighter predicate.
        let sub = shield(shield(scan("s"), &[1]), &[1, 2, 3]);
        let merged = apply(Rule::MergeShieldChain, &sub).unwrap();
        let LogicalPlan::Shield { roles, .. } = &merged else { panic!() };
        assert_eq!(roles.len(), 1);

        // Overlapping-but-incomparable chains do not merge.
        let over = shield(shield(scan("s"), &[1, 2]), &[2, 3]);
        assert!(apply(Rule::MergeShieldChain, &over).is_none());
    }

    #[test]
    fn push_shield_below_join_keeps_residual() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("l")),
            right: Box::new(scan("r")),
            left_key: 0,
            right_key: 0,
            window_ms: 100,
            variant: JoinVariant::Index,
        };
        let original = shield(join, &[1]);
        let pushed = apply(Rule::PushShieldBelowJoin, &original).unwrap();
        assert_eq!(pushed.shield_count(), 3, "two pushed + one residual");
        // Idempotent: doesn't fire again on the already-pushed form.
        assert!(apply(Rule::PushShieldBelowJoin, &pushed).is_none());
        // And it pulls back up.
        let pulled = apply(Rule::PullShieldAboveJoin, &pushed).unwrap();
        assert_eq!(pulled, original);
    }

    #[test]
    fn commute_join_restores_column_order() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("l")),
            right: Box::new(LogicalPlan::Project { input: Box::new(scan("r")), indices: vec![0] }),
            left_key: 0,
            right_key: 0,
            window_ms: 100,
            variant: JoinVariant::Index,
        };
        let commuted = apply(Rule::CommuteJoin, &join).unwrap();
        assert_eq!(commuted.op_name(), "project");
        // Positional field identity is preserved; collision-renaming
        // prefixes legitimately differ by side order, so compare the base
        // (unqualified) names.
        let base = |s: &LogicalPlan| -> Vec<String> {
            s.schema()
                .fields()
                .iter()
                .map(|f| f.name.rsplit('.').next().unwrap_or(&f.name).to_owned())
                .collect()
        };
        assert_eq!(base(&join), base(&commuted));
    }

    #[test]
    fn associate_join_rotates_left_deep() {
        let inner = LogicalPlan::Join {
            left: Box::new(scan("t")),
            right: Box::new(scan("e")),
            left_key: 0,
            right_key: 0,
            window_ms: 100,
            variant: JoinVariant::Index,
        };
        // Outer joins on E's column (index 2 = first column of e).
        let outer = LogicalPlan::Join {
            left: Box::new(inner),
            right: Box::new(scan("k")),
            left_key: 2,
            right_key: 0,
            window_ms: 100,
            variant: JoinVariant::Index,
        };
        let rotated = apply(Rule::AssociateJoin, &outer).unwrap();
        let LogicalPlan::Join { right, left_key, .. } = &rotated else { panic!() };
        assert_eq!(*left_key, 0);
        assert_eq!(right.op_name(), "sajoin");
        assert_eq!(rotated.schema().arity(), outer.schema().arity());

        // Outer key from T: no rotation.
        let outer_t = LogicalPlan::Join {
            left: Box::new(apply(Rule::AssociateJoin, &outer).unwrap()),
            right: Box::new(scan("k2")),
            left_key: 0,
            right_key: 0,
            window_ms: 100,
            variant: JoinVariant::Index,
        };
        assert!(apply(Rule::AssociateJoin, &outer_t).is_none());
    }

    #[test]
    fn apply_anywhere_reaches_nested_nodes() {
        let plan = select(shield(select(scan("s")), &[1]));
        let rewritten = apply_anywhere(Rule::PushShieldBelowSelect, &plan).unwrap();
        // Shield is now at the bottom, above the scan.
        let mut node = &rewritten;
        while !matches!(node, LogicalPlan::Shield { .. }) {
            node = node.children()[0];
        }
        assert_eq!(node.children()[0].op_name(), "scan");
    }

    #[test]
    fn all_rewrites_enumerates_neighbours() {
        let plan = shield(select(scan("s")), &[1]);
        let neighbours = all_rewrites(&plan);
        assert!(!neighbours.is_empty());
        assert!(neighbours.iter().any(|(r, _)| *r == Rule::PushShieldBelowSelect));
    }

    #[test]
    fn merged_predicate_unions() {
        let merged = merged_predicate(&[[1u32].into(), [2u32, 3].into()]);
        assert_eq!(merged.len(), 3);
    }
}
