//! # sp-query — CQL, security-aware plans and optimization
//!
//! The declarative layer of the security-punctuation framework:
//!
//! * [`lexer`] / [`ast`] / [`parser`] — the CQL subset plus the paper's
//!   `INSERT SP` extension (§III-D);
//! * [`catalog`] — stream, role and query registration (queries inherit
//!   the roles of their specifiers, §II-B);
//! * [`logical`] — security-aware logical plans (Table I algebra);
//! * [`rules`] — the Table II equivalence rules as executable rewrites;
//! * [`cost`] — the §VI-A per-unit-time cost model;
//! * [`optimizer`] — cost-guided SS placement, projection at the scan
//!   and multi-query sharing;
//! * [`physical`] — instantiation into `sp-engine` operator DAGs;
//! * [`session`] — the [`Dsms`] facade tying it all together.

#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod cost;
pub mod lexer;
pub mod logical;
pub mod optimizer;
pub mod parser;
pub mod physical;
pub mod planner;
pub mod rules;
pub mod session;

pub use ast::{AstExpr, ColumnRef, InsertSpStmt, SelectItem, SelectStmt, Statement, StreamRef};
pub use catalog::{Catalog, StreamDef};
pub use cost::{CostModel, InputStats, PlanCost};
pub use lexer::QueryError;
pub use logical::LogicalPlan;
pub use optimizer::{Optimizer, OptimizerReport};
pub use parser::parse;
pub use physical::{instantiate, instantiate_with, InstantiateOptions};
pub use planner::{plan_insert_sp, plan_select, DEFAULT_WINDOW_MS};
pub use rules::{all_rewrites, apply, apply_anywhere, merged_predicate, Rule, ALL_RULES};
pub use session::{Dsms, FrameAdmission, PlannedQuery, RunningDsms};
