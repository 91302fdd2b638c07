//! The safety ledger: shadow prices, regret accounting, and the record of
//! every guardrail decision (veto, rollback, throttle).
//!
//! The ledger is shared state between the [`SafeguardedAdvisor`] driving
//! the guardrail inside the tuning loop and the session that owns the loop
//! (which reads per-round snapshots for its events and attaches the final
//! [`SafetyReport`] to its run result). It is behind an `Arc<Mutex<…>>`
//! because the advisor is handed to the session by value (type-erased) and
//! the session still needs to observe it; sessions are single-threaded, so
//! the lock is never contended.
//!
//! [`SafeguardedAdvisor`]: crate::SafeguardedAdvisor

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use dba_common::{IndexId, TemplateId};
use dba_core::{DataChange, DegradeLevel, WindowMode};
use dba_engine::{CostModel, Query, QueryExecution};
use dba_optimizer::{StatsCatalog, WhatIfService};
use dba_storage::{Catalog, IndexDef};

use crate::config::SafetyConfig;

/// One completed round's safety accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSafety {
    /// 1-based round number (matches the session's `RoundRecord::round`).
    pub round: usize,
    /// Shadow price of the round's workload under the **empty** config
    /// (the do-nothing baseline), via the what-if path.
    pub shadow_noindex_s: f64,
    /// Shadow price of the round's workload under the config as it stood
    /// **before** this round's recommendation (the freeze-this-round
    /// counterfactual).
    pub shadow_prev_s: f64,
    /// What the round actually billed: recommendation + creation +
    /// execution + maintenance, vetoed creations refunded.
    pub actual_s: f64,
    /// Observed regret vs the do-nothing baseline:
    /// `actual_s − shadow_noindex_s`.
    pub regret_s: f64,
    /// Running total of `regret_s` through this round.
    pub cum_regret_s: f64,
    /// Creations vetoed at the start of this round.
    pub vetoes: usize,
    /// Indexes rolled back at the start of this round.
    pub rollbacks: usize,
    /// Whether the guardrail froze the configuration this round.
    pub throttled: bool,
}

/// Aggregated guardrail outcome of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SafetyReport {
    /// Per-round trajectory, in round order.
    pub rounds: Vec<RoundSafety>,
    /// Total creations vetoed.
    pub vetoes: usize,
    /// Total indexes rolled back.
    pub rollbacks: usize,
    /// Rounds spent with the configuration frozen.
    pub throttled_rounds: usize,
    /// Final cumulative observed regret vs the do-nothing baseline.
    pub cum_regret_s: f64,
    /// Final cumulative shadow NoIndex price (the regret denominator).
    pub cum_shadow_noindex_s: f64,
}

impl SafetyReport {
    /// Cumulative regret as a fraction of the shadow NoIndex price — the
    /// quantity the configured `regret_bound_factor` bounds (up to slack).
    pub fn regret_factor(&self) -> f64 {
        if self.cum_shadow_noindex_s <= 0.0 {
            return 0.0;
        }
        self.cum_regret_s / self.cum_shadow_noindex_s
    }
}

/// Cheap copyable snapshot of the guardrail's running totals, for
/// per-round session events.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SafetySnapshot {
    pub cum_regret_s: f64,
    pub throttled: bool,
    pub vetoes: usize,
    pub rollbacks: usize,
}

/// The in-flight round's accounting, closed out (shadow-priced) in the
/// round's own observation step, against the execution-time snapshot.
#[derive(Debug, Default)]
struct PendingRound {
    round: usize,
    rec_s: f64,
    cre_s: f64,
    exec_s: f64,
    maint_s: f64,
    vetoes: usize,
    rollbacks: usize,
    throttled: bool,
}

/// Mutable guardrail state. Private to the crate; drive it through
/// [`SafeguardedAdvisor`](crate::SafeguardedAdvisor) and read it through
/// [`SafetyLedger`].
pub(crate) struct SafetyState {
    pub(crate) config: SafetyConfig,
    pub(crate) cost: CostModel,
    report: SafetyReport,
    throttled: bool,
    pending: Option<PendingRound>,
    /// Config before the pending round's recommendation, as what-if defs.
    prev_config: Vec<IndexDef>,
    /// The pending round's executed workload (recorded in `after_round`).
    queries: Vec<Query>,
    /// Maintenance billed to each index during the pending round.
    maintenance_by_index: HashMap<IndexId, f64>,
    /// Sliding windows of per-index realized net benefit.
    benefit_windows: HashMap<IndexId, VecDeque<f64>>,
    /// Rolled-back definitions → round (1-based, exclusive) their
    /// quarantine expires; re-creations before then are vetoed on sight.
    quarantine: HashMap<IndexDef, usize>,
    /// Shadow NoIndex price of the most recently closed round (the round
    /// creation budget's reference).
    last_shadow_noindex_s: Option<f64>,
    /// Rollback verdicts produced when the previous round closed, waiting
    /// for the next round boundary (the guard applies catalog mutations
    /// only in `before_round`).
    pending_rollbacks: Vec<IndexId>,
    /// Degrade level of the window being accounted, set through
    /// [`note_window_mode`](Self::note_window_mode) (round batches run at
    /// `Full`).
    window_level: DegradeLevel,
    /// Templates whose arrival share moved — the re-pricing scope of an
    /// `Amortized` close.
    changed_templates: HashSet<TemplateId>,
    /// Per-query arrival counts for the pending window, parallel to
    /// `queries`: the session executes one instance per arrival entry and
    /// bills `weight ×` its price (unit weights for a round batch). `None`
    /// — a driver that reported no counts — closes at unit weights.
    window_weights: Option<Vec<f64>>,
    /// Amortisation memo: each template's most recent unit shadow prices
    /// `(noindex_s, prev_s)`. Refreshed whenever a template is re-priced
    /// live; degraded closes read stale entries by design — that staleness
    /// is exactly the latency/accuracy trade the degrade ladder buys.
    template_prices: HashMap<TemplateId, (f64, f64)>,
}

impl SafetyState {
    fn new(config: SafetyConfig, cost: CostModel) -> Self {
        SafetyState {
            config,
            cost,
            report: SafetyReport::default(),
            throttled: false,
            pending: None,
            prev_config: Vec::new(),
            queries: Vec::new(),
            maintenance_by_index: HashMap::new(),
            benefit_windows: HashMap::new(),
            quarantine: HashMap::new(),
            last_shadow_noindex_s: None,
            pending_rollbacks: Vec::new(),
            window_level: DegradeLevel::Full,
            changed_templates: HashSet::new(),
            window_weights: None,
            template_prices: HashMap::new(),
        }
    }

    /// Record the upcoming window's degrade level (forwarded by the guard's
    /// `begin_window`); scopes the next `close_round`'s shadow pricing.
    pub(crate) fn note_window_mode(&mut self, mode: &WindowMode) {
        self.window_level = mode.level;
        // `mode.changed_templates` is a Vec; collecting into the set is
        // order-insensitive.
        self.changed_templates = mode
            .changed_templates
            .iter()
            .copied()
            .collect::<HashSet<_>>();
    }

    /// Record the pending window's per-query arrival counts (parallel to
    /// the `note_execution` workload). The session calls this right before
    /// every observation step; the weights are consumed when the window
    /// closes.
    pub(crate) fn note_window_weights(&mut self, weights: Vec<f64>) {
        self.window_weights = Some(weights);
    }

    /// Rollback verdicts awaiting the next round boundary.
    pub(crate) fn take_pending_rollbacks(&mut self) -> Vec<IndexId> {
        std::mem::take(&mut self.pending_rollbacks)
    }

    pub(crate) fn set_pending_rollbacks(&mut self, victims: Vec<IndexId>) {
        self.pending_rollbacks = victims;
    }

    pub(crate) fn is_throttled(&self) -> bool {
        self.throttled
    }

    pub(crate) fn last_shadow_noindex_s(&self) -> Option<f64> {
        self.last_shadow_noindex_s
    }

    /// Close the in-flight round (if any): shadow-price its workload,
    /// update regret and the throttle latch, assess every materialised
    /// index's realized net benefit, and return the indexes whose windowed
    /// benefit went negative — the rollback victims the guard applies at
    /// the next round boundary.
    ///
    /// Called from the guard's `after_round` with the **execution-time
    /// snapshot** of the catalog and statistics — the pre-drift state the
    /// round's queries actually ran against — so the do-nothing baseline
    /// is priced on the round it prices. (Pricing at the next round's
    /// open, as this used to, overpriced the baseline by up to one round
    /// of insert growth, biasing observed regret low.) All costings flow
    /// through the session's shared [`WhatIfService`], whose memo makes
    /// the leave-one-out rollback assessment cost one plan per (query,
    /// touched-table subset) instead of O(used-indexes × queries) fresh
    /// plans per round.
    pub(crate) fn close_round(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        whatif: &mut WhatIfService,
    ) -> Vec<IndexId> {
        let Some(pending) = self.pending.take() else {
            return Vec::new();
        };
        self.quarantine.retain(|_, expiry| *expiry > pending.round);
        let weights = self
            .window_weights
            .take()
            .unwrap_or_else(|| vec![1.0; self.queries.len()]);
        let level = self.window_level;
        self.window_level = DegradeLevel::Full;
        let (shadow_noindex_s, shadow_prev_s) = if self.queries.is_empty() {
            (0.0, 0.0)
        } else {
            self.shadow_price(catalog, stats, whatif, &weights, level)
        };
        let actual_s = pending.rec_s + pending.cre_s + pending.exec_s + pending.maint_s;
        let regret_s = actual_s - shadow_noindex_s;
        self.report.cum_regret_s += regret_s;
        self.report.cum_shadow_noindex_s += shadow_noindex_s;

        // Rollback assessment: each index's marginal what-if gain on the
        // round's workload, minus the maintenance it billed. Consistently
        // negative over the window ⇒ the index is harming the workload.
        // Benefit is weighted like the executions it is netted against,
        // or every index of a streaming window looks maintenance-dominated.
        // Degraded streaming windows skip it — the leave-one-out pass is
        // the most optimiser-hungry part of the close, and a benefit
        // window that fills only on `Full` windows still converges, just
        // more slowly.
        let mut victims = Vec::new();
        if !self.queries.is_empty() && level == DegradeLevel::Full {
            let (ids, all): (Vec<IndexId>, Vec<IndexDef>) = catalog
                .all_indexes()
                .map(|ix| (ix.id(), ix.def().clone()))
                .unzip();
            if !all.is_empty() {
                // The full-config pass also reports which candidates any
                // plan used: an index no plan touches has marginal benefit
                // exactly 0, so only the used ones need a leave-one-out
                // pass — and those passes share every untouched query's
                // plan with the full pass through the service's memo.
                let full = whatif.cost_workload(catalog, stats, &self.queries, &weights, &all);
                for (skip, id) in ids.iter().enumerate() {
                    let marginal = if full.usage[skip] == 0 {
                        0.0
                    } else {
                        let without: Vec<IndexDef> = all
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != skip)
                            .map(|(_, d)| d.clone())
                            .collect();
                        let without = whatif
                            .cost_workload(catalog, stats, &self.queries, &weights, &without)
                            .total;
                        (without - full.total).secs().max(0.0)
                    };
                    let maint = self.maintenance_by_index.get(id).copied().unwrap_or(0.0);
                    let window = self.benefit_windows.entry(*id).or_default();
                    window.push_back(marginal - maint);
                    while window.len() > self.config.rollback_window {
                        window.pop_front();
                    }
                    if window.len() == self.config.rollback_window
                        && window.iter().sum::<f64>() < 0.0
                    {
                        victims.push(*id);
                        self.benefit_windows.remove(id);
                    }
                }
            }
            // Windows of indexes that no longer exist are dead weight.
            self.benefit_windows
                .retain(|id, _| catalog.index(*id).is_ok());
        }

        // Throttle latch with hysteresis: enter above the bound (after the
        // warm-up — early creation is an investment, not yet regret),
        // leave below `recovery_fraction ×` the bound (which keeps growing
        // with the shadow denominator, so a frozen-but-healthy session
        // recovers).
        let bound = self.config.regret_bound_s(self.report.cum_shadow_noindex_s);
        let warmed_up = pending.round >= self.config.warmup_rounds;
        if !self.throttled && warmed_up && self.report.cum_regret_s > bound {
            self.throttled = true;
        } else if self.throttled
            && self.report.cum_regret_s <= self.config.recovery_fraction * bound
        {
            self.throttled = false;
        }

        self.report.rounds.push(RoundSafety {
            round: pending.round,
            shadow_noindex_s,
            shadow_prev_s,
            actual_s,
            regret_s,
            cum_regret_s: self.report.cum_regret_s,
            vetoes: pending.vetoes,
            rollbacks: pending.rollbacks,
            throttled: pending.throttled,
        });
        self.last_shadow_noindex_s = Some(shadow_noindex_s);
        self.queries.clear();
        self.maintenance_by_index.clear();
        victims
    }

    /// Weighted shadow pricing: each executed instance is billed
    /// `weight ×` its unit price (a round batch runs at unit weights).
    /// `Full` re-prices every query live and refreshes the per-template memo;
    /// `Amortized` re-prices only the templates whose arrival share
    /// changed; `ReuseConfig` answers entirely from the memo. Templates
    /// the memo has never seen (a burst introducing fresh templates under
    /// a blown budget) are priced live at any level — a stale price is an
    /// acceptable degrade, a missing one is not.
    fn shadow_price(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        whatif: &mut WhatIfService,
        weights: &[f64],
        level: DegradeLevel,
    ) -> (f64, f64) {
        debug_assert_eq!(self.queries.len(), weights.len());
        let mut noindex_s = 0.0;
        let mut prev_s = 0.0;
        let mut live: Vec<usize> = Vec::new();
        for (i, q) in self.queries.iter().enumerate() {
            let reprice = match level {
                DegradeLevel::Full => true,
                DegradeLevel::ReuseConfig => false,
                DegradeLevel::Amortized => self.changed_templates.contains(&q.template),
            };
            let cached = (!reprice)
                .then(|| self.template_prices.get(&q.template))
                .flatten();
            match cached {
                Some(&(ni, pv)) => {
                    noindex_s += weights[i] * ni;
                    prev_s += weights[i] * pv;
                }
                None => live.push(i),
            }
        }
        if !live.is_empty() {
            let queries: Vec<Query> = live.iter().map(|&i| self.queries[i].clone()).collect();
            let live_weights: Vec<f64> = live.iter().map(|&i| weights[i]).collect();
            let noindex = whatif.cost_workload(catalog, stats, &queries, &live_weights, &[]);
            let prev =
                whatif.cost_workload(catalog, stats, &queries, &live_weights, &self.prev_config);
            noindex_s += noindex.total.secs();
            prev_s += prev.total.secs();
            for ((q, &ni), &pv) in queries.iter().zip(&noindex.per_query).zip(&prev.per_query) {
                self.template_prices.insert(q.template, (ni, pv));
            }
        }
        (noindex_s, prev_s)
    }

    /// Open accounting for round `round` (1-based).
    pub(crate) fn open_round(&mut self, round: usize) {
        self.pending = Some(PendingRound {
            round,
            ..PendingRound::default()
        });
    }

    /// Snapshot the configuration the round starts from — the round's
    /// do-nothing counterfactual for shadow pricing.
    pub(crate) fn set_prev_config(&mut self, prev_config: Vec<IndexDef>) {
        self.prev_config = prev_config;
    }

    /// Record a rollback and quarantine the definition so the inner tuner
    /// — which cannot know why its index vanished — does not re-build it
    /// next round (create/drop thrash would pay creation forever).
    pub(crate) fn note_rollback(&mut self, def: IndexDef) {
        self.report.rollbacks += 1;
        if let Some(p) = &mut self.pending {
            p.rollbacks += 1;
            if self.config.quarantine_rounds > 0 {
                self.quarantine
                    .insert(def, p.round + self.config.quarantine_rounds);
            }
        }
    }

    /// Whether `def` is still quarantined at (1-based) `round`.
    pub(crate) fn is_quarantined(&self, def: &IndexDef, round: usize) -> bool {
        self.quarantine
            .get(def)
            .is_some_and(|&expiry| round < expiry)
    }

    pub(crate) fn note_veto(&mut self) {
        self.report.vetoes += 1;
        if let Some(p) = &mut self.pending {
            p.vetoes += 1;
        }
    }

    pub(crate) fn note_throttled(&mut self) {
        self.report.throttled_rounds += 1;
        if let Some(p) = &mut self.pending {
            p.throttled = true;
        }
    }

    pub(crate) fn note_advisor_cost(&mut self, rec_s: f64, cre_s: f64) {
        if let Some(p) = &mut self.pending {
            p.rec_s = rec_s;
            p.cre_s = cre_s;
        }
    }

    pub(crate) fn note_data_change(&mut self, change: &DataChange) {
        for &(id, secs) in &change.index_maintenance {
            *self.maintenance_by_index.entry(id).or_insert(0.0) += secs.secs();
        }
        if let Some(p) = &mut self.pending {
            p.maint_s += change.total_maintenance().secs();
        }
    }

    pub(crate) fn note_execution(&mut self, queries: &[Query], executions: &[QueryExecution]) {
        self.queries = queries.to_vec();
        if let Some(p) = &mut self.pending {
            p.exec_s += executions.iter().map(|e| e.total.secs()).sum::<f64>();
        }
    }

    /// The most recently closed round's accounting, if any (the guard
    /// reads it right after `close_round` to emit its round-close event).
    pub(crate) fn last_round(&self) -> Option<RoundSafety> {
        self.report.rounds.last().copied()
    }

    fn snapshot(&self) -> SafetySnapshot {
        SafetySnapshot {
            cum_regret_s: self.report.cum_regret_s,
            throttled: self.throttled,
            vetoes: self.report.vetoes,
            rollbacks: self.report.rollbacks,
        }
    }
}

/// Shared handle to the guardrail state: the [`SafeguardedAdvisor`] writes
/// through it from inside the tuning loop, the session reads snapshots and
/// the final report through its own clone.
///
/// [`SafeguardedAdvisor`]: crate::SafeguardedAdvisor
#[derive(Clone)]
pub struct SafetyLedger {
    state: Arc<Mutex<SafetyState>>,
}

impl SafetyLedger {
    pub fn new(config: SafetyConfig, cost: CostModel) -> Self {
        SafetyLedger {
            state: Arc::new(Mutex::new(SafetyState::new(config, cost))),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, SafetyState> {
        // lint: allow(C01) — the SafetyLedger wrapper itself: the blessed lock point
        self.state.lock().expect("safety ledger lock poisoned")
    }

    /// The aggregated report. Every round closes in its own observation
    /// step (shadow prices are computed at execution time), so after the
    /// last `after_round` the report is complete — no finalize step.
    pub fn report(&self) -> SafetyReport {
        self.lock().report.clone()
    }

    /// Running totals for per-round telemetry.
    pub fn snapshot(&self) -> SafetySnapshot {
        self.lock().snapshot()
    }

    /// Record the pending window's per-query arrival counts (parallel to
    /// the workload handed to the guard's observation step) so the window
    /// closes against weighted shadow prices. Call immediately before the
    /// advisor's `after_round`; a window closed without counts is priced
    /// at unit weights, which is what a round batch reports.
    pub fn note_window_weights(&self, weights: Vec<f64>) {
        self.lock().note_window_weights(weights);
    }
}
