//! [`SafeguardedAdvisor`]: the guardrail wrapped around any tuner.

use std::collections::HashSet;

use dba_common::{IndexId, SimSeconds};
use dba_core::{Advisor, AdvisorCost, DataChange, RoundContext, WindowMode};
use dba_engine::{CostModel, Query, QueryExecution};
use dba_optimizer::{StatsCatalog, WhatIfService};
use dba_storage::Catalog;

use crate::config::SafetyConfig;
use crate::ledger::SafetyLedger;

/// A tuner-agnostic guardrail implementing [`Advisor`] around any inner
/// [`Advisor`]. Each round it:
///
/// 1. applies the previous round's **rollback** verdicts (indexes whose
///    windowed net benefit went negative — assessed when that round
///    closed in its own observation step, against the execution-time
///    snapshot);
/// 2. if the regret bound is breached, **throttles**: the inner advisor
///    is not consulted and the configuration is frozen (rollbacks keep
///    running, which is what drives recovery);
/// 3. otherwise lets the inner advisor act, then **vetoes** creations
///    that violate the memory headroom or the round's creation budget —
///    the vetoed indexes are dropped and their build time refunded, as a
///    guardrail consulting the what-if API before building would do. No
///    plan has read them yet, so their leaf order was never sorted: a
///    veto costs a catalog insert and a drop, not a sort;
/// 4. in `after_round`, closes the round's ledger entry: shadow prices
///    (empty config and freeze-counterfactual), regret, the throttle
///    latch and the next round's rollback verdicts — all priced through
///    the session's shared [`WhatIfService`] against the pre-drift
///    snapshot the executed queries actually ran on.
///
/// Inner tuners need no safety awareness: MAB, DDQN and PDTool all
/// reconcile against externally-dropped indexes at the start of their own
/// recommendation step, so a rollback simply returns the arm to candidate
/// status.
pub struct SafeguardedAdvisor<A: Advisor> {
    inner: A,
    name: String,
    ledger: SafetyLedger,
    /// Observability handle (`dba-obs`): every guardrail decision — veto,
    /// rollback, throttle, round close — is mirrored as a structured
    /// event. Advisory only; no safety decision ever branches on it.
    obs: dba_obs::Obs,
}

impl<A: Advisor> SafeguardedAdvisor<A> {
    /// Wrap `inner`. `config.memory_budget_bytes` must be the actual
    /// budget (the session builder substitutes the session budget for 0
    /// before constructing the guard).
    pub fn new(inner: A, config: SafetyConfig, cost: CostModel) -> Self {
        let name = format!("{}+guard", inner.name());
        SafeguardedAdvisor {
            ledger: SafetyLedger::new(config, cost),
            name,
            inner,
            obs: dba_obs::Obs::noop(),
        }
    }

    /// A handle to the guardrail's ledger (snapshots, final report).
    pub fn ledger(&self) -> SafetyLedger {
        self.ledger.clone()
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Enforce the memory headroom against the *existing* configuration:
    /// drift growth can push live index bytes past the budget with no new
    /// creation to veto, so evict the largest indexes (counted as
    /// rollbacks, quarantined — re-creating them would immediately
    /// re-violate) until the footprint fits. No refund: those builds were
    /// legitimate when they happened. Runs every round, throttled ones
    /// included, so the invariant "live footprint ≤ headroom at the start
    /// of every round" holds regardless of tuner behaviour (within a
    /// round, drift applied after execution may transiently exceed it).
    fn enforce_headroom(&mut self, catalog: &mut Catalog, round: usize) {
        let headroom = {
            let state = self.ledger.lock();
            (state.config.memory_headroom * state.config.memory_budget_bytes as f64) as u64
        };
        if catalog.live_index_bytes() <= headroom {
            return;
        }
        let mut existing: Vec<(IndexId, u64)> = catalog
            .all_indexes()
            .map(|ix| (ix.id(), catalog.index_live_bytes(ix.id())))
            .collect();
        existing.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
        for (id, _) in existing {
            if catalog.live_index_bytes() <= headroom {
                break;
            }
            let Ok(def) = catalog.index(id).map(|ix| ix.def().clone()) else {
                continue;
            };
            if catalog.drop_index(id).is_ok() {
                self.obs.event(
                    "safety.rollback",
                    vec![
                        ("round", round.into()),
                        ("index", id.raw().into()),
                        ("table", def.table.raw().into()),
                        ("reason", "headroom".into()),
                    ],
                );
                self.ledger.lock().note_rollback(def);
            }
        }
    }

    /// Veto pass: undo this round's creations that re-materialise a
    /// quarantined (recently rolled-back) definition, then those that
    /// violate the memory headroom or the round creation budget, largest
    /// first. Returns the refunded build time (simulated seconds).
    fn apply_vetoes(
        &mut self,
        catalog: &mut Catalog,
        before_ids: &HashSet<IndexId>,
        round: usize,
        creation_s: f64,
    ) -> f64 {
        let (headroom, creation_budget_s, cost) = {
            let state = self.ledger.lock();
            let headroom =
                (state.config.memory_headroom * state.config.memory_budget_bytes as f64) as u64;
            let budget = state
                .last_shadow_noindex_s()
                .map(|shadow| state.config.creation_budget_factor * shadow);
            (headroom, budget, state.cost.clone())
        };
        // New creations, largest live footprint first: vetoing big indexes
        // first restores headroom (and refunds the most) soonest.
        let mut fresh: Vec<(IndexId, u64)> = catalog
            .all_indexes()
            .map(|ix| ix.id())
            .filter(|id| !before_ids.contains(id))
            .map(|id| (id, catalog.index_live_bytes(id)))
            .collect();
        fresh.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));

        let mut refund_s = 0.0;
        for (id, _) in fresh {
            let def = catalog
                .index(id)
                .expect("fresh index exists until vetoed")
                .def()
                .clone();
            let quarantined = self.ledger.lock().is_quarantined(&def, round);
            let over_memory = catalog.live_index_bytes() > headroom;
            let over_creation = creation_budget_s
                .map(|budget| creation_s - refund_s > budget)
                .unwrap_or(false);
            if !quarantined && !over_memory && !over_creation {
                continue;
            }
            // The refund is exactly what the inner advisor billed: the
            // one `CostModel::index_build` price over the same live sizes
            // (nothing changed the catalog between its build and this
            // veto).
            let build = cost.index_build(catalog, def.table, catalog.index_creation_bytes(id));
            catalog.drop_index(id).expect("fresh index exists");
            refund_s += build.secs();
            self.obs.event(
                "safety.veto",
                vec![
                    ("round", round.into()),
                    ("index", id.raw().into()),
                    ("table", def.table.raw().into()),
                    ("quarantined", quarantined.into()),
                    ("over_memory", over_memory.into()),
                    ("over_creation", over_creation.into()),
                    ("refund_s", build.secs().into()),
                ],
            );
            self.ledger.lock().note_veto();
        }
        refund_s
    }
}

impl<A: Advisor> Advisor for SafeguardedAdvisor<A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn before_round(
        &mut self,
        round: usize,
        catalog: &mut Catalog,
        stats: &StatsCatalog,
        whatif: &mut WhatIfService,
    ) -> AdvisorCost {
        // 1. Apply the rollback verdicts the previous round's close
        //    produced (catalog mutations belong to round boundaries), and
        //    open this round's accounting.
        let victims = {
            let mut state = self.ledger.lock();
            let victims = state.take_pending_rollbacks();
            state.open_round(round + 1); // records count rounds 1-based
            victims
        };
        for id in victims {
            let Ok(def) = catalog.index(id).map(|ix| ix.def().clone()) else {
                continue;
            };
            if catalog.drop_index(id).is_ok() {
                self.obs.event(
                    "safety.rollback",
                    vec![
                        ("round", (round + 1).into()),
                        ("index", id.raw().into()),
                        ("table", def.table.raw().into()),
                        ("reason", "negative_benefit".into()),
                    ],
                );
                self.ledger.lock().note_rollback(def);
            }
        }
        // Drift growth alone can breach the memory headroom — enforce it
        // against the surviving configuration before anything else runs.
        self.enforce_headroom(catalog, round + 1);
        // Snapshot the do-nothing config *after* rollbacks: this round's
        // freeze counterfactual is "keep what survived the guardrail".
        let prev_config: Vec<_> = catalog.all_indexes().map(|ix| ix.def().clone()).collect();
        let throttled = {
            let mut state = self.ledger.lock();
            state.set_prev_config(prev_config);
            if state.is_throttled() {
                state.note_throttled();
                true
            } else {
                false
            }
        };
        // 2. Throttle: freeze the configuration; the inner advisor is not
        //    consulted (its own round bookkeeping pauses with it).
        if throttled {
            let snapshot = self.ledger.snapshot();
            self.obs.event(
                "safety.throttle",
                vec![
                    ("round", (round + 1).into()),
                    ("cum_regret_s", snapshot.cum_regret_s.into()),
                ],
            );
            return AdvisorCost::default();
        }
        // 3. Let the inner advisor act, then veto what it overspent.
        let before_ids: HashSet<IndexId> = catalog.all_indexes().map(|ix| ix.id()).collect();
        let cost = self.inner.before_round(round, catalog, stats, whatif);
        let refund_s = self.apply_vetoes(catalog, &before_ids, round + 1, cost.creation.secs());
        let guarded = AdvisorCost {
            recommendation: cost.recommendation,
            creation: SimSeconds::new((cost.creation.secs() - refund_s).max(0.0)),
        };
        self.ledger
            .lock()
            .note_advisor_cost(guarded.recommendation.secs(), guarded.creation.secs());
        guarded
    }

    fn on_data_change(&mut self, change: &DataChange) {
        self.inner.on_data_change(change);
        self.ledger.lock().note_data_change(change);
    }

    fn begin_window(&mut self, mode: &WindowMode) {
        // The inner tuner degrades its recommend step; the ledger degrades
        // its shadow pricing to match. Safety enforcement itself (vetoes,
        // headroom, throttle latch) never degrades.
        self.inner.begin_window(mode);
        self.ledger.lock().note_window_mode(mode);
    }

    fn bandit_counters(&self) -> (u64, u64) {
        self.inner.bandit_counters()
    }

    fn attach_obs(&mut self, obs: &dba_obs::Obs) {
        self.obs = obs.clone();
        self.inner.attach_obs(obs);
    }

    fn after_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        queries: &[Query],
        executions: &[QueryExecution],
    ) {
        self.inner
            .after_round(&mut ctx.reborrow(), queries, executions);
        // 4. Close the round at execution time: `ctx` carries the
        //    pre-drift snapshot the queries ran against, so the shadow
        //    baseline prices the round it observes — not the post-drift
        //    world one round later. Rollback verdicts wait for the next
        //    round boundary.
        // The `safety.close_round` span encloses the ledger block but is
        // entered before the lock and exited after the guard drops, and
        // the round-close event is emitted after that: telemetry must
        // never extend a critical section.
        self.obs.span_enter("safety.close_round");
        let (pending, last) = {
            let mut state = self.ledger.lock();
            state.note_execution(queries, executions);
            // lint: allow(G02) — close_round prices via the what-if service, whose counter emission takes the obs telemetry mutex: a leaf lock held per-record, never across a call
            let victims = state.close_round(ctx.catalog, ctx.stats, ctx.whatif);
            let last = state.last_round();
            let pending = victims.len();
            state.set_pending_rollbacks(victims);
            (pending, last)
        };
        self.obs.span_exit("safety.close_round");
        if let Some(last) = last {
            self.obs.event(
                "safety.round_close",
                vec![
                    ("round", last.round.into()),
                    ("shadow_noindex_s", last.shadow_noindex_s.into()),
                    ("shadow_prev_s", last.shadow_prev_s.into()),
                    ("actual_s", last.actual_s.into()),
                    ("regret_s", last.regret_s.into()),
                    ("cum_regret_s", last.cum_regret_s.into()),
                    ("vetoes", last.vetoes.into()),
                    ("rollbacks", last.rollbacks.into()),
                    ("throttled", last.throttled.into()),
                    ("pending_rollbacks", pending.into()),
                ],
            );
        }
    }
}
