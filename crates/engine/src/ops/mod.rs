//! Physical operators of the security-aware algebra (Table I).

pub mod dupelim;
pub mod groupby;
pub mod project;
pub mod sajoin;
pub mod select;
pub mod setops;
pub mod shield;
pub mod sink;
mod state;

pub use dupelim::DupElim;
pub use groupby::{AggFunc, GroupBy};
pub use project::Project;
pub use sajoin::{JoinVariant, SAJoin};
pub use select::Select;
pub use setops::{SAIntersect, Union};
pub use shield::{Granularity, MatchMode, SecurityShield};
pub use sink::Sink;
