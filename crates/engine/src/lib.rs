//! Query model, physical plans, cost model and executor.
//!
//! This crate is the "DBMS execution half" of the substrate: given a
//! [`Plan`] (produced by `dba-optimizer` from *estimates*), the [`Executor`]
//! runs it against real columnar data, observing **actual** cardinalities and
//! charging costs through the same [`CostModel`] the optimiser uses. The
//! simulated-seconds divergence between plan-time estimates and run-time
//! observations is therefore caused purely by cardinality misestimation —
//! the phenomenon the paper's bandit exploits and the commercial advisor
//! falls victim to. Built with an enabled timer, the same executor also
//! times each operator, which is what [`calibrate()`] fits the cost model
//! against.

pub mod backend;
pub mod calibrate;
pub mod cost;
pub mod exec;
pub mod plan;
pub mod query;

pub use backend::{simulated, timed, BackendKind, ExecutionBackend, OpKind, OpSample};
pub use calibrate::{calibrate, fit, microbench_samples, CalibrationReport, OpReport};
pub use cost::{CostModel, PAPER_TIME_SCALE};
pub use exec::{AccessStats, Executor, QueryExecution};
pub use plan::{AccessMethod, JoinAlgo, JoinStep, Plan, TableAccess};
pub use query::{JoinPred, Predicate, Query};
