//! The uniform tuner interface every index advisor implements.
//!
//! This trait is the seam between *tuners* (the MAB tuner in this crate,
//! the PDTool/DDQN/NoIndex baselines in `dba-baselines`, future backends)
//! and *drivers* (the `TuningSession` in `dba-session`, which owns the
//! recommend → execute → observe loop of Algorithm 2). A tuner only ever
//! sees two calls per round: `before_round` to adjust the physical design,
//! `after_round` to observe what actually happened.
//!
//! Both calls carry the session's shared [`WhatIfService`]: hypothetical
//! costing is a versioned, memoizing subsystem owned by the driver, so a
//! guardrail's shadow baselines, PDTool's candidate scoring and any
//! advisor-side oracle all share one plan memo instead of replanning the
//! same (template, configuration) pairs independently. `after_round`
//! additionally hands back a [`RoundContext`] whose catalog and statistics
//! are the **execution-time** (pre-drift) snapshot of the round — what the
//! observed executions actually ran against — so shadow prices and
//! benefit assessments are computed against the state of the round they
//! price, not one drift application later.

use dba_common::{IndexId, SimSeconds, TableId, TemplateId};
use dba_engine::{Query, QueryExecution};
use dba_optimizer::{StatsCatalog, WhatIfService};
use dba_storage::Catalog;

/// Time charged by an advisor in one round, split the way Table I reports
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvisorCost {
    pub recommendation: SimSeconds,
    pub creation: SimSeconds,
}

/// How much of the recommend step a streaming window can afford — the
/// graceful-degrade ladder a deadline-aware driver walks when the
/// per-window latency budget is blown. Ordering is part of the contract:
/// drivers must pass through `ReuseConfig` before ever escalating to
/// `Amortized`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradeLevel {
    /// The full recommend step (also the only level the fixed-round model
    /// ever runs at).
    #[default]
    Full,
    /// Budget blown last window: keep the previous configuration, skip
    /// scoring and selection entirely.
    ReuseConfig,
    /// Recovering: score only arms for templates whose arrival share
    /// changed, never drop, and let shadow pricing amortise `marginals()`
    /// across windows from its per-template memo.
    Amortized,
}

/// Per-window degrade instruction delivered through
/// [`Advisor::begin_window`] before the window's `before_round`.
#[derive(Debug, Clone, Default)]
pub struct WindowMode {
    pub level: DegradeLevel,
    /// Templates whose arrival share moved beyond the driver's epsilon
    /// since the last window — the scope of an `Amortized` step. Empty at
    /// other levels.
    pub changed_templates: Vec<TemplateId>,
}

/// One table's row deltas in a round of data change.
#[derive(Debug, Clone, Copy)]
pub struct TableChange {
    pub table: TableId,
    pub inserted: u64,
    pub updated: u64,
    pub deleted: u64,
}

/// A round's data change as applied by the driver: the row deltas plus the
/// maintenance bill every materialised index paid for them. Delivered to
/// advisors *before* [`Advisor::after_round`], so maintenance can enter the
/// round's reward shaping (`r_t(i) = G_t − C_cre − C_maint`).
#[derive(Debug, Clone, Default)]
pub struct DataChange {
    /// `(materialised index, maintenance time charged this round)`.
    pub index_maintenance: Vec<(IndexId, SimSeconds)>,
    /// Per-table deltas that caused the maintenance.
    pub table_changes: Vec<TableChange>,
}

impl DataChange {
    pub fn total_maintenance(&self) -> SimSeconds {
        self.index_maintenance.iter().map(|&(_, s)| s).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.index_maintenance.is_empty() && self.table_changes.is_empty()
    }
}

/// Execution-time round state handed to [`Advisor::after_round`].
///
/// `catalog` and `stats` are the state the round's queries executed
/// against — when the round drifted, the driver snapshots them *before*
/// applying the deltas, so anything priced through here (shadow baselines,
/// rollback assessments) reflects the round it prices rather than the
/// post-drift world. `whatif` is the session's shared costing service;
/// costings against the snapshot validate under the snapshot's versions,
/// so a post-drift costing never reuses a pre-drift plan by accident.
pub struct RoundContext<'a> {
    pub catalog: &'a Catalog,
    pub stats: &'a StatsCatalog,
    pub whatif: &'a mut WhatIfService,
}

impl<'a> RoundContext<'a> {
    /// Reborrow for handing the context to an inner advisor while keeping
    /// use of it afterwards (the guardrail's wrap-then-price pattern).
    pub fn reborrow(&mut self) -> RoundContext<'_> {
        RoundContext {
            catalog: self.catalog,
            stats: self.stats,
            whatif: &mut *self.whatif,
        }
    }
}

/// Uniform tuner interface driven by a tuning session: a recommendation
/// step before each round's workload, an observation step after.
///
/// `Send` is a supertrait so sessions (and the boxed advisors inside them)
/// can be fanned out across suite worker threads; advisors own plain data
/// and never share mutable state, so this costs implementations nothing.
pub trait Advisor: Send {
    fn name(&self) -> &str;

    /// Adjust the physical design before round `round` (0-based) executes.
    /// `whatif` is the session's shared hypothetical-costing service;
    /// advisors that consult the optimiser (PDTool-style what-if scoring,
    /// guardrail budgeting) cost through it and share its plan memo.
    fn before_round(
        &mut self,
        round: usize,
        catalog: &mut Catalog,
        stats: &StatsCatalog,
        whatif: &mut WhatIfService,
    ) -> AdvisorCost;

    /// Observe the round's data change (HTAP drift): which indexes paid how
    /// much maintenance. Called between the round's execution and
    /// [`after_round`](Self::after_round); only drifted rounds deliver it.
    /// Baselines that ignore churn keep the default no-op.
    fn on_data_change(&mut self, _change: &DataChange) {}

    /// Observe the executed workload. `ctx` carries the execution-time
    /// (pre-drift) catalog/statistics snapshot and the shared what-if
    /// service — see [`RoundContext`].
    fn after_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        queries: &[Query],
        executions: &[QueryExecution],
    );

    /// The session announces the upcoming window's degrade level before
    /// every [`before_round`](Self::before_round); a round batch always
    /// runs at [`DegradeLevel::Full`]. Advisors without a degraded mode
    /// keep the default (ignore; always run the full step).
    fn begin_window(&mut self, _mode: &WindowMode) {}

    /// `(scatter re-inversions, decay events)` of the advisor's bandit, if
    /// it has one — surfaced per round in session records next to the
    /// plan/what-if cache counters. Non-bandit advisors report zeros.
    fn bandit_counters(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Attach the session's observability handle (`dba-obs`). Called once
    /// at session build time, before the first round; advisors that emit
    /// spans/events store a clone, wrappers forward it to their inner
    /// advisor. Recording is advisory: implementations must never branch
    /// tuning decisions on it. Default: ignore (no instrumentation).
    fn attach_obs(&mut self, _obs: &dba_obs::Obs) {}
}

/// Drop bookkeeping for indexes that no longer exist in `catalog` — the
/// reconcile step every arm-tracking tuner runs at the top of its
/// recommendation step so external configuration changes (a guardrail
/// rollback, an operator intervention) return the affected arms to
/// candidate status instead of leaving phantom incumbents. `current` maps
/// materialised index ids to arm indices, `arm_to_index` is its inverse.
pub fn reconcile_external_drops(
    catalog: &Catalog,
    current: &mut std::collections::HashMap<IndexId, usize>,
    arm_to_index: &mut std::collections::HashMap<usize, IndexId>,
) {
    let dropped: Vec<(IndexId, usize)> = current
        .iter()
        .filter(|(&id, _)| catalog.index(id).is_err())
        .map(|(&id, &arm)| (id, arm))
        .collect();
    for (id, arm) in dropped {
        current.remove(&id);
        arm_to_index.remove(&arm);
    }
}

impl<A: Advisor + ?Sized> Advisor for Box<A> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn before_round(
        &mut self,
        round: usize,
        catalog: &mut Catalog,
        stats: &StatsCatalog,
        whatif: &mut WhatIfService,
    ) -> AdvisorCost {
        (**self).before_round(round, catalog, stats, whatif)
    }

    fn on_data_change(&mut self, change: &DataChange) {
        (**self).on_data_change(change)
    }

    fn after_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        queries: &[Query],
        executions: &[QueryExecution],
    ) {
        (**self).after_round(ctx, queries, executions)
    }

    fn begin_window(&mut self, mode: &WindowMode) {
        (**self).begin_window(mode)
    }

    fn bandit_counters(&self) -> (u64, u64) {
        (**self).bandit_counters()
    }

    fn attach_obs(&mut self, obs: &dba_obs::Obs) {
        (**self).attach_obs(obs)
    }
}
