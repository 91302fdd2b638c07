//! The query optimiser substrate.
//!
//! Commercial physical-design tools "use a cost model employed by the query
//! optimiser, typically exposed through a what-if interface, as the sole
//! source of truth" (§I). This crate is that optimiser: it builds classic
//! single-column statistics, estimates cardinalities under the uniformity
//! and attribute-value-independence assumptions the paper criticises, plans
//! access paths and join orders by estimated cost, and exposes a
//! what-if interface ([`WhatIfService`]) for costing hypothetical index
//! configurations without materialising them.
//!
//! The estimation errors are not bugs — they are the faithful reproduction
//! of the behaviour that makes optimiser-trusting advisors fail under skew
//! and correlation, which is the premise of the paper's bandit approach.

//!
//! Replanning volume is the dominant tuning cost at scale, so the crate
//! also provides a [`PlanCache`]: plan reuse validated against per-table
//! catalog/statistics versions, so rounds that change nothing skip the
//! planner entirely. It is the one plan memo: the session keys it on the
//! query template, and the what-if service's memo is a `PlanCache` keyed
//! on the template plus the hypothetical configuration.

pub mod est;
pub mod plan_cache;
pub mod planner;
pub mod stats;
pub mod whatif_service;

pub use est::CardEstimator;
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use planner::{IndexCandidate, Planner, PlannerContext};
pub use stats::{ColumnStats, Histogram, StatsCatalog, TableStats, HISTOGRAM_BUCKETS};
pub use whatif_service::{ConfigCost, WhatIfOutcome, WhatIfService, WhatIfStats};
