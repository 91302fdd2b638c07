//! Shared primitives for the `dba-bandits` workspace.
//!
//! This crate holds the small set of vocabulary types used by every other
//! crate: interned identifiers for tables, columns and indexes; the
//! simulated-time types through which every cost in the system is expressed;
//! and a deterministic RNG fan-out helper so that each component derives an
//! independent but reproducible random stream from a single experiment seed.

pub mod clock;
pub mod error;
pub mod ids;
pub mod rng;

pub use clock::{BudgetTimer, SimSeconds};
pub use error::{DbError, DbResult};
pub use ids::{ColumnId, ColumnRef, IndexId, QueryId, TableId, TemplateId};
pub use rng::seed_for;
