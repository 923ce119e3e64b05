//! Security-aware logical query plans.
//!
//! The algebra of Table I as a plan tree: scans, the Security Shield ψ,
//! select σ, project π, SAJoin ⋈, duplicate elimination δ and group-by.
//! Plans are immutable values; the rewrite rules of Table II
//! ([`crate::rules`]) produce transformed copies and the optimizer costs
//! them with the model of §VI-A ([`crate::cost`]).

use std::fmt;
use std::sync::Arc;

use sp_core::{RoleSet, Schema, StreamId};
use sp_engine::{AggFunc, Expr, JoinVariant};

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// A registered stream scan.
    Scan {
        /// Engine stream id.
        stream: StreamId,
        /// Stream schema.
        schema: Arc<Schema>,
        /// Sliding-window length (used by stateful consumers).
        window_ms: u64,
    },
    /// Security Shield ψ_roles.
    Shield {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The security predicate (roles of the protected queries).
        roles: RoleSet,
    },
    /// Selection σ_predicate.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The predicate over the input schema.
        predicate: Expr,
    },
    /// Projection π_indices.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Kept attribute indices, in output order.
        indices: Vec<usize>,
    },
    /// Sliding-window equijoin (SAJoin).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Left join-key attribute index.
        left_key: usize,
        /// Right join-key attribute index.
        right_key: usize,
        /// Window length per side (ms).
        window_ms: u64,
        /// Physical variant.
        variant: JoinVariant,
    },
    /// Duplicate elimination δ over a sliding window.
    DupElim {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Distinctness key attribute indices (empty = whole tuple).
        keys: Vec<usize>,
        /// Window length (ms).
        window_ms: u64,
    },
    /// Security-aware bag union (same-schema inputs).
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Security-aware windowed intersection.
    Intersect {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Window length per side (ms).
        window_ms: u64,
    },
    /// Windowed group-by aggregate.
    GroupBy {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping attribute (None = single global group).
        group: Option<usize>,
        /// Aggregate function.
        agg: AggFunc,
        /// Aggregated attribute index.
        agg_attr: usize,
        /// Window length (ms).
        window_ms: u64,
    },
}

impl LogicalPlan {
    /// The output schema of this plan.
    #[must_use]
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Shield { input, .. } | LogicalPlan::Select { input, .. } => input.schema(),
            LogicalPlan::Project { input, indices } => Arc::new(input.schema().project(indices)),
            LogicalPlan::Join { left, right, .. } => Arc::new(left.schema().join(&right.schema())),
            LogicalPlan::Union { left, .. } | LogicalPlan::Intersect { left, .. } => left.schema(),
            LogicalPlan::DupElim { input, .. } => input.schema(),
            LogicalPlan::GroupBy { input, group, agg, agg_attr, .. } => {
                let in_schema = input.schema();
                let group_field = group
                    .and_then(|g| in_schema.field(g))
                    .map_or_else(|| "group".to_owned(), |f| f.name.to_string());
                let agg_name = in_schema
                    .field(*agg_attr)
                    .map_or_else(|| format!("#{agg_attr}"), |f| f.name.to_string());
                Schema::of(
                    &format!("{}_agg", in_schema.name()),
                    &[
                        (group_field.as_str(), sp_core::ValueType::Int),
                        (
                            format!("{}_{agg_name}", agg.name().to_ascii_lowercase()).as_str(),
                            sp_core::ValueType::Float,
                        ),
                    ],
                )
            }
        }
    }

    /// Child plans.
    #[must_use]
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Shield { input, .. }
            | LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::DupElim { input, .. }
            | LogicalPlan::GroupBy { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::Union { left, right }
            | LogicalPlan::Intersect { left, right, .. } => vec![left, right],
        }
    }

    /// Rebuilds this node with new children (same order as
    /// [`LogicalPlan::children`]).
    ///
    /// # Panics
    ///
    /// Panics if the child count does not match.
    #[must_use]
    pub fn with_children(&self, mut children: Vec<LogicalPlan>) -> LogicalPlan {
        /// Pops the (left, right) pair of a binary node.
        fn pop2(children: &mut Vec<LogicalPlan>) -> (Box<LogicalPlan>, Box<LogicalPlan>) {
            match (children.pop(), children.pop()) {
                (Some(right), Some(left)) if children.is_empty() => {
                    (Box::new(left), Box::new(right))
                }
                _ => panic!("binary node takes exactly two children"),
            }
        }
        match self {
            LogicalPlan::Scan { .. } => {
                assert!(children.is_empty(), "scan has no children");
                self.clone()
            }
            LogicalPlan::Join { left_key, right_key, window_ms, variant, .. } => {
                let (left, right) = pop2(&mut children);
                LogicalPlan::Join {
                    left,
                    right,
                    left_key: *left_key,
                    right_key: *right_key,
                    window_ms: *window_ms,
                    variant: *variant,
                }
            }
            LogicalPlan::Union { .. } => {
                let (left, right) = pop2(&mut children);
                LogicalPlan::Union { left, right }
            }
            LogicalPlan::Intersect { window_ms, .. } => {
                let (left, right) = pop2(&mut children);
                LogicalPlan::Intersect { left, right, window_ms: *window_ms }
            }
            other => {
                let input = match children.pop() {
                    Some(only) if children.is_empty() => Box::new(only),
                    _ => panic!("unary node takes exactly one child"),
                };
                match other {
                    LogicalPlan::Shield { roles, .. } => {
                        LogicalPlan::Shield { input, roles: roles.clone() }
                    }
                    LogicalPlan::Select { predicate, .. } => {
                        LogicalPlan::Select { input, predicate: predicate.clone() }
                    }
                    LogicalPlan::Project { indices, .. } => {
                        LogicalPlan::Project { input, indices: indices.clone() }
                    }
                    LogicalPlan::DupElim { keys, window_ms, .. } => {
                        LogicalPlan::DupElim { input, keys: keys.clone(), window_ms: *window_ms }
                    }
                    LogicalPlan::GroupBy { group, agg, agg_attr, window_ms, .. } => {
                        LogicalPlan::GroupBy {
                            input,
                            group: *group,
                            agg: *agg,
                            agg_attr: *agg_attr,
                            window_ms: *window_ms,
                        }
                    }
                    LogicalPlan::Scan { .. }
                    | LogicalPlan::Join { .. }
                    | LogicalPlan::Union { .. }
                    | LogicalPlan::Intersect { .. } => unreachable!(),
                }
            }
        }
    }

    /// Whether this plan is a chain of π, σ and ψ nodes over one scan
    /// (a bare scan included): the shape whose projection may move to
    /// the scan and whose prefixes a session shares between queries.
    #[must_use]
    pub fn is_scan_chain(&self) -> bool {
        match self {
            LogicalPlan::Scan { .. } => true,
            LogicalPlan::Shield { input, .. }
            | LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. } => input.is_scan_chain(),
            _ => false,
        }
    }

    /// Number of operators in the plan.
    #[must_use]
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Number of Security Shield operators in the plan.
    #[must_use]
    pub fn shield_count(&self) -> usize {
        let own = usize::from(matches!(self, LogicalPlan::Shield { .. }));
        own + self.children().iter().map(|c| c.shield_count()).sum::<usize>()
    }

    /// One-word operator name.
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "scan",
            LogicalPlan::Shield { .. } => "ss",
            LogicalPlan::Select { .. } => "select",
            LogicalPlan::Project { .. } => "project",
            LogicalPlan::Join { .. } => "sajoin",
            LogicalPlan::Union { .. } => "union",
            LogicalPlan::Intersect { .. } => "intersect",
            LogicalPlan::DupElim { .. } => "dupelim",
            LogicalPlan::GroupBy { .. } => "groupby",
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        for _ in 0..indent {
            write!(f, "  ")?;
        }
        match self {
            LogicalPlan::Scan { stream, schema, window_ms } => {
                writeln!(f, "scan {} (s{}, window {}ms)", schema.name(), stream, window_ms)?;
            }
            LogicalPlan::Shield { roles, .. } => {
                writeln!(f, "ss ψ{roles}")?;
            }
            LogicalPlan::Select { predicate, input } => {
                writeln!(f, "select σ[{}]", predicate.display(&input.schema()))?;
            }
            LogicalPlan::Project { indices, input } => {
                let schema = input.schema();
                let names: Vec<String> = indices
                    .iter()
                    .map(|&i| {
                        schema.field(i).map_or_else(|| format!("#{i}"), |fd| fd.name.to_string())
                    })
                    .collect();
                writeln!(f, "project π[{}]", names.join(", "))?;
            }
            LogicalPlan::Join { left_key, right_key, window_ms, variant, .. } => {
                writeln!(
                    f,
                    "sajoin ⋈[{left_key}={right_key}] (window {window_ms}ms, {variant:?})"
                )?;
            }
            LogicalPlan::Union { .. } => {
                writeln!(f, "union ∪")?;
            }
            LogicalPlan::Intersect { window_ms, .. } => {
                writeln!(f, "intersect ∩ (window {window_ms}ms)")?;
            }
            LogicalPlan::DupElim { keys, window_ms, .. } => {
                writeln!(f, "dupelim δ{keys:?} (window {window_ms}ms)")?;
            }
            LogicalPlan::GroupBy { group, agg, agg_attr, window_ms, .. } => {
                writeln!(
                    f,
                    "groupby {}(#{agg_attr}) by {group:?} (window {window_ms}ms)",
                    agg.name()
                )?;
            }
        }
        for child in self.children() {
            child.fmt_indented(f, indent + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::ValueType;
    use sp_engine::CmpOp;

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            stream: StreamId(1),
            schema: Schema::of(
                "loc",
                &[("id", ValueType::Int), ("x", ValueType::Float), ("y", ValueType::Float)],
            ),
            window_ms: 10_000,
        }
    }

    #[test]
    fn schema_propagation() {
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Shield {
                input: Box::new(scan()),
                roles: RoleSet::from([1]),
            }),
            indices: vec![2, 0],
        };
        let schema = plan.schema();
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.index_of("y"), Some(0));
        assert_eq!(schema.index_of("id"), Some(1));
    }

    #[test]
    fn join_schema_concatenates() {
        let plan = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            left_key: 0,
            right_key: 0,
            window_ms: 5000,
            variant: JoinVariant::Index,
        };
        assert_eq!(plan.schema().arity(), 6);
        assert_eq!(plan.node_count(), 3);
    }

    #[test]
    fn groupby_schema() {
        let plan = LogicalPlan::GroupBy {
            input: Box::new(scan()),
            group: Some(0),
            agg: AggFunc::Avg,
            agg_attr: 1,
            window_ms: 1000,
        };
        let schema = plan.schema();
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.index_of("id"), Some(0));
        assert_eq!(schema.index_of("avg_x"), Some(1));
    }

    #[test]
    fn with_children_round_trips() {
        let shield = LogicalPlan::Shield { input: Box::new(scan()), roles: RoleSet::from([2]) };
        let rebuilt = shield.with_children(vec![scan()]);
        assert_eq!(shield, rebuilt);

        let join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            left_key: 1,
            right_key: 2,
            window_ms: 100,
            variant: JoinVariant::NestedLoopPF,
        };
        let rebuilt = join.with_children(vec![scan(), scan()]);
        assert_eq!(join, rebuilt);
    }

    #[test]
    fn display_is_indented() {
        let plan = LogicalPlan::Select {
            predicate: Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(sp_core::Value::Int(0))),
            input: Box::new(scan()),
        };
        let text = plan.to_string();
        assert!(text.starts_with("select"));
        assert!(text.contains("\n  scan"));
        assert_eq!(plan.op_name(), "select");
        assert_eq!(plan.shield_count(), 0);
    }

    #[test]
    fn scan_chains_are_unary_pi_sigma_psi_over_a_scan() {
        let chain = LogicalPlan::Project {
            indices: vec![0],
            input: Box::new(LogicalPlan::Shield { input: Box::new(scan()), roles: RoleSet::new() }),
        };
        assert!(scan().is_scan_chain());
        assert!(chain.is_scan_chain());
        let distinct =
            LogicalPlan::DupElim { input: Box::new(chain.clone()), keys: vec![], window_ms: 5 };
        assert!(!distinct.is_scan_chain());
        let over_join = LogicalPlan::Shield {
            roles: RoleSet::new(),
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan()),
                right: Box::new(chain),
                left_key: 0,
                right_key: 0,
                window_ms: 5,
                variant: JoinVariant::Index,
            }),
        };
        assert!(!over_join.is_scan_chain());
    }
}
