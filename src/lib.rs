//! # DBA Bandits — self-driving index tuning in Rust
//!
//! A full reproduction of *"DBA bandits: Self-driving index tuning under
//! ad-hoc, analytical workloads with safety guarantees"* (Perera, Oetomo,
//! Rubinstein, Borovica-Gajic — ICDE 2021), including every substrate the
//! paper's evaluation depends on: a columnar storage engine with skewed
//! data generators, a cost-based query optimiser with a what-if interface,
//! an executor that observes actual run-time statistics, the five
//! benchmark workloads, and the comparison tuners (PDTool, DDQN, NoIndex).
//!
//! ## Quick start
//!
//! The paper's central loop — recommend, execute, observe, repeat
//! (Algorithm 2) — is driven through a [`TuningSession`](session::TuningSession):
//! pick a benchmark, a workload type and a tuner, and run.
//!
//! ```no_run
//! use dba_bandits::prelude::*;
//!
//! let mut session = SessionBuilder::new()
//!     .benchmark(dba_bandits::workloads::ssb::ssb(0.1))
//!     .workload(WorkloadKind::Static { rounds: 10 })
//!     .tuner(TunerKind::Mab)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//!
//! // Observe convergence round by round...
//! let result = session
//!     .run_with(&mut |event| {
//!         println!(
//!             "round {:>2}/{}: exec {:.1}s with {} indexes",
//!             event.round, event.rounds_total,
//!             event.record.execution.secs(), event.index_count,
//!         );
//!     })
//!     .unwrap();
//!
//! // ...and read the Table-I style breakdown at the end.
//! println!(
//!     "{}: rec {:.0}s + create {:.0}s + exec {:.0}s = {:.0}s",
//!     result.tuner,
//!     result.total_recommendation().secs(),
//!     result.total_creation().secs(),
//!     result.total_execution().secs(),
//!     result.total().secs(),
//! );
//! ```
//!
//! Custom tuners implement [`Advisor`](bandit::Advisor) (two methods:
//! `before_round`, `after_round`) and plug into the same session via
//! [`SessionBuilder::build_with`](session::SessionBuilder::build_with),
//! which also keeps the concrete tuner type so its internals stay
//! reachable during and after the run.
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the binaries that regenerate every table and figure of the paper
//! (README has the figure → binary map).

pub use dba_baselines as baselines;
pub use dba_common as common;
pub use dba_core as bandit;
pub use dba_engine as engine;

/// Execution backends: the [`ExecutionBackend`](engine::ExecutionBackend)
/// seam over the engine's one executor, whose executions always report
/// the cost-model price. [`simulated`](engine::simulated) builds the
/// untimed executor; [`timed`](engine::timed) adds a
/// [`BudgetTimer`](common::BudgetTimer) (`wall()` or a deterministic
/// `scripted(step)`) that times each operator the executor runs into an
/// [`OpSample`](engine::OpSample), without changing what it runs or a
/// price. Sessions take
/// either via
/// [`SessionBuilder::backend_boxed`](session::SessionBuilder::backend_boxed).
pub mod backend {
    pub use dba_common::BudgetTimer;
    pub use dba_engine::{simulated, timed, ExecutionBackend, OpKind, OpSample};
}
pub use dba_optimizer as optimizer;
pub use dba_safety as safety;
pub use dba_session as session;
pub use dba_storage as storage;
pub use dba_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use dba_baselines::{NoIndexAdvisor, PdToolAdvisor};
    pub use dba_common::SimSeconds;
    pub use dba_core::{Advisor, AdvisorCost, MabConfig, MabTuner, RoundContext};
    pub use dba_engine::{simulated, CostModel, ExecutionBackend, Executor, Query, QueryExecution};
    pub use dba_optimizer::{Planner, PlannerContext, StatsCatalog, WhatIfService};
    pub use dba_safety::{SafeguardedAdvisor, SafetyConfig, SafetyReport};
    pub use dba_session::{
        RoundEvent, RoundRecord, RunResult, SessionBuilder, TunerKind, TuningSession,
    };
    pub use dba_storage::{Catalog, IndexDef};
    pub use dba_workloads::{Benchmark, DataDrift, DriftRates, WorkloadKind, WorkloadSequencer};
}
