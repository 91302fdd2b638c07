//! The paper's contribution: a multi-armed-bandit framework for online
//! index selection (Perera et al., "DBA bandits", ICDE 2021).
//!
//! The pipeline per round (paper Fig. 1 / Algorithm 2):
//!
//! 1. [`query_store`] summarises the observed workload into templates and
//!    selects the queries of interest (QoI);
//! 2. [`arms`] generates candidate indexes from QoI predicates —
//!    combinations and permutations of predicate columns, with and without
//!    payload inclusion;
//! 3. [`context`] builds each arm's feature vector: the indexed-column
//!    prefix encoding (Part 1) and derived statistics (Part 2);
//! 4. [`c2ucb`] scores arms with upper confidence bounds over a shared
//!    linear model (Algorithm 1, Eq. 1);
//! 5. [`oracle`] greedily selects a super arm (configuration) under the
//!    memory budget, with prefix/covering filtering;
//! 6. the configuration is materialised, the workload executes, and
//!    [`reward`] shapes observed execution statistics into per-arm rewards
//!    that update the bandit.
//!
//! [`tuner::MabTuner`] ties the steps together and implements the
//! [`Advisor`] interface that tuning sessions drive.

pub mod advisor;
pub mod arms;
pub mod c2ucb;
pub mod context;
pub mod linalg;
pub mod oracle;
pub mod query_store;
pub mod reward;
pub mod tuner;

pub use advisor::{
    reconcile_external_drops, Advisor, AdvisorCost, DataChange, DegradeLevel, RoundContext,
    TableChange, WindowMode,
};
pub use arms::{Arm, ArmGenConfig, ArmRegistry};
pub use c2ucb::{C2Ucb, C2UcbConfig};
pub use context::{ContextBuilder, ContextLayout};
pub use oracle::{greedy_select, OracleInput};
pub use query_store::{QueryStore, TemplateStats};
pub use reward::RewardShaper;
pub use tuner::{MabConfig, MabTuner, RoundOutcome};
