//! The MAB tuning driver (Algorithm 2).
//!
//! Each round the tuner: pulls the queries of interest from the query
//! store, generates/refreshes arms, builds contexts, scores them with
//! C2UCB, lets the greedy oracle pick a configuration under the memory
//! budget, and diffs it against the materialised state (creating and
//! dropping indexes). After the round's workload executes, observed
//! statistics are shaped into rewards and fed back; workload shifts
//! trigger forgetting proportional to shift intensity.
//!
//! The tuner charges *simulated* recommendation time per round, calibrated
//! to the paper's Table I (MAB recommendation cost is dominated by a
//! first-round setup, with a small per-arm scoring overhead thereafter).

use std::collections::{HashMap, HashSet};

use dba_common::{ColumnId, IndexId, SimSeconds};
use dba_engine::{CostModel, Query, QueryExecution};
use dba_obs::Obs;
use dba_optimizer::{CardEstimator, StatsCatalog};
use dba_storage::Catalog;
use serde::{Deserialize, Serialize};

use crate::advisor::{Advisor, AdvisorCost, DataChange, DegradeLevel, WindowMode};
use crate::arms::{ArmGenConfig, ArmRegistry};
use crate::c2ucb::{C2Ucb, C2UcbConfig};
use crate::context::{ContextBuilder, ContextLayout};
use crate::linalg::SparseVec;
use crate::oracle::{greedy_select, OracleInput};
use crate::query_store::QueryStore;
use crate::reward::RewardShaper;

/// MAB tuner configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MabConfig {
    /// Memory budget for secondary indexes, in bytes (the paper uses 1×
    /// the data size).
    pub memory_budget_bytes: u64,
    pub bandit: C2UcbConfig,
    pub arm_gen: ArmGenConfig,
    /// Templates seen within this many rounds are queries of interest.
    pub qoi_window: usize,
    /// Enable shift-triggered forgetting.
    pub forget_on_shift: bool,
    /// Streaming hot-path switch: batch each window's observations into
    /// one scatter update, re-inverted once per window. Off by default —
    /// the batched update is equivalent only up to floating-point
    /// accumulation order, and fixed-round baselines must stay
    /// bit-identical.
    #[serde(default)]
    pub streaming_fast_path: bool,
}

impl Default for MabConfig {
    fn default() -> Self {
        MabConfig {
            memory_budget_bytes: u64::MAX,
            bandit: C2UcbConfig::default(),
            arm_gen: ArmGenConfig::default(),
            qoi_window: 2,
            forget_on_shift: true,
            streaming_fast_path: false,
        }
    }
}

/// Result of one recommendation step.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    pub recommendation_time: SimSeconds,
    pub creation_time: SimSeconds,
    pub created: usize,
    pub dropped: usize,
    /// Total size of the materialised configuration after this step.
    pub config_bytes: u64,
}

/// The self-driving index tuner.
pub struct MabTuner {
    config: MabConfig,
    cost: CostModel,
    bandit: C2Ucb,
    registry: ArmRegistry,
    store: QueryStore,
    layout: ContextLayout,
    /// Materialised index id → arm registry index.
    current: HashMap<IndexId, usize>,
    /// Arm registry index → materialised index id.
    arm_to_index: HashMap<usize, IndexId>,
    /// Contexts of the super arm chosen this round (for the update step).
    played: Vec<(usize, SparseVec)>,
    /// (arm, creation cost) for indexes materialised this round.
    created_this_round: Vec<(usize, SimSeconds)>,
    /// Arm → maintenance seconds its index paid for this round's data
    /// change (delivered via [`Advisor::on_data_change`], consumed by the
    /// next `observe`).
    maintenance_this_round: HashMap<usize, f64>,
    /// Reward normalisation: rewards are divided by this scale (set from
    /// the first observed round's per-query execution time) so that the
    /// learned weights and the exploration boost share a common magnitude
    /// regardless of database size.
    reward_scale: Option<f64>,
    rounds: usize,
    /// The degrade level the session announced for the upcoming window
    /// (always `Full` for a round batch).
    window_mode: WindowMode,
    /// Observability handle (`dba-obs`), attached by the session at build
    /// time. Defaults to recording-off; the per-arm score/reward events
    /// (the old `DBA_MAB_DEBUG` eprintln path, now structured) are gated
    /// on `obs.enabled()` so the hot path never formats them for nothing.
    obs: Obs,
}

impl MabTuner {
    pub fn new(catalog: &Catalog, cost: CostModel, config: MabConfig) -> Self {
        let layout = ContextLayout::new(catalog);
        let bandit = C2Ucb::new(layout.dim(), config.bandit);
        MabTuner {
            config,
            cost,
            bandit,
            registry: ArmRegistry::new(),
            store: QueryStore::new(),
            layout,
            current: HashMap::new(),
            arm_to_index: HashMap::new(),
            played: Vec::new(),
            created_this_round: Vec::new(),
            maintenance_this_round: HashMap::new(),
            reward_scale: None,
            rounds: 0,
            window_mode: WindowMode::default(),
            obs: Obs::noop(),
        }
    }

    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    #[inline]
    pub fn arm_count(&self) -> usize {
        self.registry.len()
    }

    #[inline]
    pub fn query_store(&self) -> &QueryStore {
        &self.store
    }

    /// Current configuration size in bytes (materialised indexes, live
    /// drift-grown sizes; externally-dropped ids contribute zero).
    pub fn config_bytes(&self, catalog: &Catalog) -> u64 {
        self.current
            .keys()
            .map(|&id| catalog.index_live_bytes(id))
            .sum()
    }

    /// Recommendation step (Algorithm 2 lines 11-15): choose and
    /// materialise a configuration for the upcoming round.
    pub fn recommend_and_apply(
        &mut self,
        catalog: &mut Catalog,
        stats: &StatsCatalog,
    ) -> RoundOutcome {
        self.rounds += 1;
        // A guardrail layer (or an operator) may have force-dropped indexes
        // this tuner materialised; forget them so their arms become
        // candidates again.
        crate::advisor::reconcile_external_drops(
            catalog,
            &mut self.current,
            &mut self.arm_to_index,
        );
        if self.window_mode.level == DegradeLevel::ReuseConfig {
            // Budget blown: the degrade ladder's first rung keeps the
            // previous configuration untouched at (near) zero recommend
            // cost. No scoring, no selection, no learning this window.
            self.played.clear();
            self.created_this_round.clear();
            return RoundOutcome {
                recommendation_time: SimSeconds::ZERO,
                creation_time: SimSeconds::ZERO,
                created: 0,
                dropped: 0,
                config_bytes: self.config_bytes(catalog),
            };
        }
        let amortized = self.window_mode.level == DegradeLevel::Amortized;
        let mut rec_time = SimSeconds::ZERO;
        /// Simulated one-off setup time charged in the first round (seconds).
        const FIRST_ROUND_SETUP_S: f64 = 8.0;
        if self.rounds == 1 {
            rec_time += SimSeconds::new(FIRST_ROUND_SETUP_S);
        }

        let mut qoi: Vec<Query> = self
            .store
            .queries_of_interest(self.config.qoi_window)
            .into_iter()
            .cloned()
            .collect();
        if amortized {
            // The ladder's second rung: attend only to templates whose
            // arrival share actually moved; everything else keeps last
            // window's decision.
            let changed = &self.window_mode.changed_templates;
            qoi.retain(|q| changed.contains(&q.template));
        }
        if qoi.is_empty() {
            // Nothing observed yet (cold start): keep the empty config.
            self.played.clear();
            self.created_this_round.clear();
            return RoundOutcome {
                recommendation_time: rec_time,
                creation_time: SimSeconds::ZERO,
                created: 0,
                dropped: 0,
                config_bytes: self.config_bytes(catalog),
            };
        }

        let est = CardEstimator::new(stats);
        let qoi_refs: Vec<&Query> = qoi.iter().collect();
        let active = self
            .registry
            .generate(&qoi_refs, catalog, &est, &self.config.arm_gen);

        /// Simulated per-arm scoring time (seconds/arm/round).
        const PER_ARM_SCORED_S: f64 = 0.001;
        rec_time += SimSeconds::new(PER_ARM_SCORED_S * active.len() as f64);

        // Workload predicate columns (including join predicates, §IV)
        // define Part-1 context support.
        let predicate_columns: HashSet<ColumnId> = qoi
            .iter()
            .flat_map(|q| {
                q.predicate_columns()
                    .into_iter()
                    .chain(q.joins.iter().flat_map(|j| [j.left, j.right]))
            })
            .collect();
        let builder = ContextBuilder::new(
            &self.layout,
            predicate_columns,
            catalog.database_bytes(),
            self.store.round(),
        );

        let contexts: Vec<SparseVec> = active
            .iter()
            .map(|&i| {
                let materialised = self.arm_to_index.contains_key(&i);
                builder.build(self.registry.arm(i), materialised)
            })
            .collect();
        let mut scores = self.bandit.ucb_scores_sparse(&contexts);
        let scale = self.reward_scale.unwrap_or(1.0);
        /// Score bonus for currently-materialised arms (small hysteresis so
        /// exact ties don't churn).
        const INCUMBENT_BONUS: f64 = 0.1;
        /// Rounds over which a candidate's creation cost is amortised when
        /// scoring it against incumbents (whose creation is sunk). Gives
        /// the size-proportional reluctance to swap large indexes that the
        /// paper's convergence plots show ("relatively smaller spikes in
        /// subsequent rounds", §V-B1) while leaving cheap swaps free.
        const CREATION_AMORTIZATION_ROUNDS: f64 = 2.0;
        for (pos, &arm) in active.iter().enumerate() {
            if self.arm_to_index.contains_key(&arm) {
                scores[pos] += INCUMBENT_BONUS;
            } else {
                // Amortised creation cost of materialising this candidate
                // (arm sizes are live — refreshed against drift-grown
                // tables at generation time).
                let candidate = self.registry.arm(arm);
                let build = self
                    .cost
                    .index_build(catalog, candidate.def.table, candidate.size_bytes)
                    .secs();
                scores[pos] -= build / scale / CREATION_AMORTIZATION_ROUNDS;
            }
        }

        // Oracle selection under the memory budget. An amortized window is
        // merge-only: incumbents are locked in (excluded from the oracle,
        // never dropped) and new arms compete for the leftover budget, so
        // a partially-scored window can only refine the configuration, not
        // tear down decisions it didn't re-examine.
        let oracle_budget = if amortized {
            self.config
                .memory_budget_bytes
                .saturating_sub(self.config_bytes(catalog))
        } else {
            self.config.memory_budget_bytes
        };
        let inputs: Vec<OracleInput> = active
            .iter()
            .zip(&scores)
            .filter(|&(&i, _)| !(amortized && self.arm_to_index.contains_key(&i)))
            .map(|(&i, &score)| {
                let arm = self.registry.arm(i);
                OracleInput {
                    arm_idx: i,
                    score,
                    size_bytes: arm.size_bytes,
                    def: arm.def.clone(),
                    generated_by: arm.generated_by.clone(),
                    covers: arm.covers_templates.clone(),
                }
            })
            .collect();
        let mut selected = greedy_select(inputs, oracle_budget);
        if amortized {
            let mut incumbents: Vec<usize> = self.arm_to_index.keys().copied().collect();
            incumbents.sort_unstable();
            selected.extend(incumbents);
        }
        let selected_set: HashSet<usize> = selected.iter().copied().collect();

        // Per-arm score telemetry (formerly the `DBA_MAB_DEBUG` eprintln
        // path, now structured and machine-readable). Gated on `enabled()`
        // so the ranking sort and field formatting never run with
        // recording off.
        if self.obs.enabled() {
            let mut ranked: Vec<(usize, f64)> =
                active.iter().copied().zip(scores.iter().copied()).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (arm, score) in ranked.iter().take(12) {
                let a = self.registry.arm(*arm);
                self.obs.event(
                    "mab.score",
                    vec![
                        ("score", (*score).into()),
                        ("selected", selected_set.contains(arm).into()),
                        ("arm", (*arm).into()),
                        ("table", a.def.table.raw().into()),
                        ("key_cols", format!("{:?}", a.def.key_cols).into()),
                        ("include_cols", format!("{:?}", a.def.include_cols).into()),
                        ("times_used", a.times_used.into()),
                        ("times_selected", a.times_selected.into()),
                    ],
                );
            }
        }

        // Diff against materialised state: drop then create. `current` is
        // a HashMap, so sort the snapshot — catalog mutations must happen
        // in a run-independent order.
        let mut dropped = 0usize;
        let to_drop: Vec<(IndexId, usize)> = if amortized {
            Vec::new() // merge-only: never drop on a partial view
        } else {
            let mut snapshot: Vec<(IndexId, usize)> = self
                .current
                .iter()
                .filter(|(_, arm)| !selected_set.contains(arm))
                .map(|(&id, &arm)| (id, arm))
                .collect();
            snapshot.sort_unstable_by_key(|&(id, _)| id);
            snapshot
        };
        for (id, arm) in to_drop {
            catalog.drop_index(id).expect("tracked index must exist");
            self.current.remove(&id);
            self.arm_to_index.remove(&arm);
            dropped += 1;
        }

        let mut creation_time = SimSeconds::ZERO;
        let mut created = 0usize;
        self.created_this_round.clear();
        for &arm_idx in &selected {
            // Every selected arm counts as selected this round — retained
            // incumbents included, not just newly created indexes (the
            // statistic is "rounds in the selected configuration").
            self.registry.arm_mut(arm_idx).times_selected += 1;
            if self.arm_to_index.contains_key(&arm_idx) {
                continue;
            }
            let def = self.registry.arm(arm_idx).def.clone();
            let build_cost =
                self.cost
                    .index_build(catalog, def.table, catalog.estimated_live_bytes(&def));
            let meta = catalog
                .create_index(def)
                .expect("arm definitions are valid by construction");
            creation_time += build_cost;
            created += 1;
            self.current.insert(meta.id, arm_idx);
            self.arm_to_index.insert(arm_idx, meta.id);
            self.created_this_round.push((arm_idx, build_cost));
        }

        // Remember the played super arm's contexts for the reward update,
        // moving the already-built vectors out of the scoring batch rather
        // than re-cloning one per selected arm. In an amortized window,
        // locked-in incumbents outside the scored (changed-template) arm
        // set have no context this window and drop out of the update.
        let mut context_slots: Vec<Option<SparseVec>> = contexts.into_iter().map(Some).collect();
        self.played = selected
            .iter()
            .filter_map(|&i| {
                let pos = match active.iter().position(|&a| a == i) {
                    Some(pos) => pos,
                    None if amortized => return None,
                    None => panic!("selected ⊆ active"),
                };
                let ctx = context_slots[pos]
                    .take()
                    .expect("each arm is selected at most once");
                Some((i, ctx))
            })
            .collect();

        RoundOutcome {
            recommendation_time: rec_time,
            creation_time,
            created,
            dropped,
            config_bytes: self.config_bytes(catalog),
        }
    }

    /// Observation step (Algorithm 2 lines 3-10 and 17): ingest the round's
    /// workload and observed executions, shape rewards, update the bandit,
    /// and forget on workload shifts.
    pub fn observe(&mut self, queries: &[Query], executions: &[QueryExecution]) {
        let intensity = self.store.ingest_round(queries, executions);

        // Fix the reward scale from the first observed round: the average
        // per-query execution time. Gains of a useful index are then O(1),
        // commensurate with the UCB exploration width.
        if self.reward_scale.is_none() && !executions.is_empty() {
            let total: f64 = executions.iter().map(|e| e.total.secs()).sum();
            self.reward_scale = Some((total / executions.len() as f64).max(1e-9));
        }
        let scale = self.reward_scale.unwrap_or(1.0);

        // Consume the played snapshot: the contexts move straight into the
        // bandit update below instead of being cloned again.
        let played = std::mem::take(&mut self.played);
        let selected: Vec<usize> = played.iter().map(|(i, _)| *i).collect();
        let maintenance = std::mem::take(&mut self.maintenance_this_round);
        let (rewards, used) = RewardShaper::shape(
            &self.store,
            queries,
            executions,
            &self.current,
            &self.created_this_round,
            &maintenance,
            &selected,
        );

        let round = self.store.round();
        for &arm in &used {
            let a = self.registry.arm_mut(arm);
            a.times_used += 1;
            a.last_used_round = Some(round);
        }

        // Per-arm reward telemetry (formerly `DBA_MAB_DEBUG`): the raw
        // shaped reward and its scaled value as the bandit will see it.
        if self.obs.enabled() {
            for (arm, r) in &rewards {
                let a = self.registry.arm(*arm);
                self.obs.event(
                    "mab.reward",
                    vec![
                        ("reward_s", (*r).into()),
                        ("scaled", (*r / scale).into()),
                        ("arm", (*arm).into()),
                        ("table", a.def.table.raw().into()),
                        ("key_cols", format!("{:?}", a.def.key_cols).into()),
                        ("include_cols", format!("{:?}", a.def.include_cols).into()),
                    ],
                );
            }
        }

        let (refreshes_before, decays_before) = self.bandit.maintenance_counters();
        if !played.is_empty() {
            let reward_by_arm: HashMap<usize, f64> = rewards.into_iter().collect();
            /// Clip per-arm scaled rewards to `[-REWARD_CLIP, +REWARD_CLIP]`.
            /// A single catastrophic regression (an index-nested-loop
            /// blow-up) still registers as strongly negative — the arm is
            /// dropped — without poisoning every arm that shares context
            /// dimensions with it.
            const REWARD_CLIP: f64 = 10.0;
            let plays: Vec<(SparseVec, f64)> = played
                .into_iter()
                .map(|(arm, ctx)| {
                    let reward = (reward_by_arm[&arm] / scale).clamp(-REWARD_CLIP, REWARD_CLIP);
                    (ctx, reward)
                })
                .collect();
            self.obs.span_enter("mab.scatter");
            if self.config.streaming_fast_path {
                self.bandit.update_sparse_batched(&plays);
            } else {
                self.bandit.update_sparse(&plays);
            }
            self.obs.span_exit("mab.scatter");
        }

        /// Forget when a round's shift intensity reaches this threshold.
        const SHIFT_THRESHOLD: f64 = 0.5;
        if self.config.forget_on_shift && round > 1 && intensity >= SHIFT_THRESHOLD {
            // Forget proportionally to the shift: a full shift resets the
            // model, a partial shift decays it.
            self.bandit.forget(1.0 - intensity);
        }
        let (refreshes, decays) = self.bandit.maintenance_counters();
        if refreshes > refreshes_before {
            self.obs
                .counter("mab.refresh", refreshes - refreshes_before);
        }
        if decays > decays_before {
            self.obs.counter("mab.decay", decays - decays_before);
        }
    }

    /// Record the maintenance bill of a drifted round against the arms of
    /// the materialised configuration; the next [`observe`](Self::observe)
    /// folds it into the rewards (`r_t(i) = G_t − C_cre − C_maint`).
    pub fn note_data_change(&mut self, change: &DataChange) {
        for &(index_id, secs) in &change.index_maintenance {
            if let Some(&arm) = self.current.get(&index_id) {
                *self.maintenance_this_round.entry(arm).or_insert(0.0) += secs.secs();
            }
        }
    }
}

impl Advisor for MabTuner {
    fn name(&self) -> &str {
        "MAB"
    }

    fn before_round(
        &mut self,
        _round: usize,
        catalog: &mut Catalog,
        stats: &StatsCatalog,
        _whatif: &mut dba_optimizer::WhatIfService,
    ) -> AdvisorCost {
        // The MAB deliberately does not consult the what-if service for
        // its scores — learning from *observed* executions instead of
        // optimiser estimates is the paper's thesis. The service still
        // arrives through the contract so a guardrail wrapped around this
        // tuner (and any estimate-assisted extension) shares the session's
        // plan memo.
        self.obs.span_enter("mab.recommend");
        let outcome = self.recommend_and_apply(catalog, stats);
        self.obs.span_exit("mab.recommend");
        AdvisorCost {
            recommendation: outcome.recommendation_time,
            creation: outcome.creation_time,
        }
    }

    fn on_data_change(&mut self, change: &DataChange) {
        self.note_data_change(change);
    }

    fn after_round(
        &mut self,
        _ctx: &mut crate::advisor::RoundContext<'_>,
        queries: &[Query],
        executions: &[QueryExecution],
    ) {
        self.obs.span_enter("mab.observe");
        self.observe(queries, executions);
        self.obs.span_exit("mab.observe");
    }

    fn begin_window(&mut self, mode: &WindowMode) {
        self.window_mode = mode.clone();
    }

    fn bandit_counters(&self) -> (u64, u64) {
        self.bandit.maintenance_counters()
    }

    fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_common::{QueryId, TableId, TemplateId};
    use dba_engine::{Executor, Plan, Predicate};
    use dba_optimizer::{Planner, PlannerContext};
    use dba_storage::{ColumnSpec, ColumnType, Distribution, TableBuilder, TableSchema};

    fn catalog() -> Catalog {
        let t = TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("k", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "v",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 49_999 },
                ),
                ColumnSpec::new(
                    "w",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 99 },
                ),
                ColumnSpec::new(
                    "pad",
                    ColumnType::Dict { cardinality: 64 },
                    Distribution::Uniform { lo: 0, hi: 63 },
                ),
            ],
        );
        Catalog::new(vec![TableBuilder::new(t, 50_000).build(TableId(0), 77)])
    }

    fn query(round: u64, value: i64) -> Query {
        Query {
            id: QueryId(round),
            template: TemplateId(1),
            tables: vec![TableId(0)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 1), value)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(0), 0)],
            aggregated: false,
        }
    }

    fn plan_and_run(
        catalog: &Catalog,
        stats: &StatsCatalog,
        cost: &CostModel,
        q: &Query,
    ) -> (Plan, QueryExecution) {
        let ctx = PlannerContext::from_catalog(catalog, stats, cost);
        let plan = Planner::new(&ctx).plan(q);
        let exec = Executor::new(cost.clone()).execute(catalog, q, &plan);
        (plan, exec)
    }

    /// Drive the full loop for a repeating single-template workload: the
    /// tuner must converge to a configuration that speeds the query up.
    #[test]
    fn converges_on_repeating_workload() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut tuner = MabTuner::new(
            &cat,
            cost.clone(),
            MabConfig {
                memory_budget_bytes: cat.database_bytes(),
                ..MabConfig::default()
            },
        );

        let mut first_exec_time = None;
        let mut last_exec_time = None;
        for round in 0..8 {
            let outcome = tuner.recommend_and_apply(&mut cat, &stats);
            assert!(outcome.config_bytes <= cat.database_bytes());
            let q = query(round, (round as i64) * 17 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            if round == 0 {
                first_exec_time = Some(exec.total);
            }
            last_exec_time = Some(exec.total);
            tuner.observe(&[q], &[exec]);
        }
        let first = first_exec_time.unwrap().secs();
        let last = last_exec_time.unwrap().secs();
        assert!(
            last < first / 2.0,
            "tuner should find a useful index: first {first}, last {last}"
        );
        assert!(tuner.arm_count() > 0);
    }

    #[test]
    fn round_one_is_a_cold_start() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut tuner = MabTuner::new(&cat, CostModel::unit_scale(), MabConfig::default());
        let outcome = tuner.recommend_and_apply(&mut cat, &stats);
        assert_eq!(outcome.created, 0, "no history, no indexes");
        assert!(outcome.recommendation_time.secs() > 0.0, "setup charged");
        assert_eq!(cat.all_indexes().count(), 0);
    }

    #[test]
    fn memory_budget_is_respected_every_round() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let budget = cat.database_bytes() / 4;
        let mut tuner = MabTuner::new(
            &cat,
            cost.clone(),
            MabConfig {
                memory_budget_bytes: budget,
                ..MabConfig::default()
            },
        );
        for round in 0..6 {
            tuner.recommend_and_apply(&mut cat, &stats);
            assert!(
                cat.index_bytes() <= budget,
                "round {round}: {} > budget {budget}",
                cat.index_bytes()
            );
            let q = query(round, round as i64 * 31 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            tuner.observe(&[q], &[exec]);
        }
    }

    #[test]
    fn drops_indexes_when_workload_shifts() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut tuner = MabTuner::new(
            &cat,
            cost.clone(),
            MabConfig {
                memory_budget_bytes: cat.database_bytes(),
                qoi_window: 1,
                ..MabConfig::default()
            },
        );
        // Warm up with template 1 until indexes exist.
        for round in 0..4 {
            tuner.recommend_and_apply(&mut cat, &stats);
            let q = query(round, round as i64 * 13 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            tuner.observe(&[q], &[exec]);
        }
        let before = cat.all_indexes().count();
        assert!(before > 0, "warm-up must materialise something");

        // Shift to a disjoint template on column w.
        for round in 4..8 {
            tuner.recommend_and_apply(&mut cat, &stats);
            let q = Query {
                id: QueryId(round),
                template: TemplateId(2),
                tables: vec![TableId(0)],
                predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 2), 5)],
                joins: vec![],
                payload: vec![ColumnId::new(TableId(0), 2)],
                aggregated: true,
            };
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            tuner.observe(&[q], &[exec]);
        }
        // Old template-1 indexes must have been dropped (QoI window 1).
        for ix in cat.all_indexes() {
            assert_ne!(
                ix.def().key_cols,
                vec![1],
                "stale v-index should be dropped after the shift"
            );
        }
    }

    /// Regression: `times_selected` used to count only the round an arm's
    /// index was *created*; incumbents retained across rounds were missed.
    #[test]
    fn times_selected_counts_retained_incumbents() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut tuner = MabTuner::new(
            &cat,
            cost.clone(),
            MabConfig {
                memory_budget_bytes: cat.database_bytes(),
                ..MabConfig::default()
            },
        );
        for round in 0..8 {
            tuner.recommend_and_apply(&mut cat, &stats);
            let q = query(round, (round as i64) * 17 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            tuner.observe(&[q], &[exec]);
        }
        // Some arm must have been kept in the configuration over several
        // rounds; its selection count must exceed its creation count (1).
        let retained = tuner
            .current
            .values()
            .map(|&arm| tuner.registry.arm(arm).times_selected)
            .max()
            .expect("a stable workload materialises something");
        assert!(
            retained > 1,
            "a retained incumbent must count every selected round, got {retained}"
        );
    }

    /// Heavy churn makes the bandit drop an index it would otherwise keep:
    /// the maintenance term of `r_t(i) = G_t − C_cre − C_maint` at work.
    #[test]
    fn sustained_maintenance_drives_index_drop() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut tuner = MabTuner::new(
            &cat,
            cost.clone(),
            MabConfig {
                memory_budget_bytes: cat.database_bytes(),
                ..MabConfig::default()
            },
        );
        // Warm up until an index is materialised.
        for round in 0..4 {
            tuner.recommend_and_apply(&mut cat, &stats);
            let q = query(round, (round as i64) * 17 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            tuner.observe(&[q], &[exec]);
        }
        assert!(cat.all_indexes().count() > 0, "warm-up materialises");

        // Now every round charges each materialised index a maintenance
        // bill far beyond any gain it can produce.
        let mut dropped_all = false;
        for round in 4..14 {
            tuner.recommend_and_apply(&mut cat, &stats);
            let change = DataChange {
                index_maintenance: cat
                    .all_indexes()
                    .map(|ix| (ix.id(), SimSeconds::new(10_000.0)))
                    .collect(),
                table_changes: vec![],
            };
            tuner.note_data_change(&change);
            let q = query(round, (round as i64) * 17 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            tuner.observe(&[q], &[exec]);
            if cat.all_indexes().count() == 0 {
                dropped_all = true;
                break;
            }
        }
        // One more recommendation applies the learned penalty.
        tuner.recommend_and_apply(&mut cat, &stats);
        assert!(
            dropped_all || cat.all_indexes().count() == 0,
            "punishing maintenance must drive the configuration to empty, \
             still holding {} indexes",
            cat.all_indexes().count()
        );
    }

    #[test]
    fn reuse_config_window_is_free_and_touches_nothing() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut tuner = MabTuner::new(
            &cat,
            cost.clone(),
            MabConfig {
                memory_budget_bytes: cat.database_bytes(),
                ..MabConfig::default()
            },
        );
        for round in 0..4 {
            tuner.recommend_and_apply(&mut cat, &stats);
            let q = query(round, round as i64 * 13 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            tuner.observe(&[q], &[exec]);
        }
        let before: Vec<_> = {
            let mut ids: Vec<_> = cat.all_indexes().map(|ix| ix.id()).collect();
            ids.sort_unstable();
            ids
        };
        assert!(!before.is_empty());
        tuner.begin_window(&WindowMode {
            level: DegradeLevel::ReuseConfig,
            changed_templates: vec![],
        });
        let outcome = tuner.recommend_and_apply(&mut cat, &stats);
        assert_eq!(outcome.recommendation_time, SimSeconds::ZERO);
        assert_eq!((outcome.created, outcome.dropped), (0, 0));
        let after: Vec<_> = {
            let mut ids: Vec<_> = cat.all_indexes().map(|ix| ix.id()).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(before, after, "configuration must be reused untouched");
        assert!(tuner.played.is_empty(), "no plays to learn from");
    }

    /// An amortized window never drops incumbents and only prices the
    /// changed templates' arms.
    #[test]
    fn amortized_window_is_merge_only() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut tuner = MabTuner::new(
            &cat,
            cost.clone(),
            MabConfig {
                memory_budget_bytes: cat.database_bytes(),
                qoi_window: 1,
                ..MabConfig::default()
            },
        );
        for round in 0..4 {
            tuner.recommend_and_apply(&mut cat, &stats);
            let q = query(round, round as i64 * 13 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            tuner.observe(&[q], &[exec]);
        }
        let before: Vec<_> = cat.all_indexes().map(|ix| ix.id()).collect();
        assert!(!before.is_empty());
        // Shift the workload entirely to an unrelated template, then run
        // an amortized window scoped to a template nobody has seen: with
        // nothing to price, the old configuration must survive (a full
        // window with qoi_window=1 would drop it — see
        // `drops_indexes_when_workload_shifts`).
        let shifted = Query {
            id: QueryId(99),
            template: TemplateId(2),
            tables: vec![TableId(0)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 2), 5)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(0), 2)],
            aggregated: true,
        };
        let (_, exec) = plan_and_run(&cat, &stats, &cost, &shifted);
        tuner.observe(&[shifted], &[exec]);
        tuner.begin_window(&WindowMode {
            level: DegradeLevel::Amortized,
            changed_templates: vec![TemplateId(77)],
        });
        let outcome = tuner.recommend_and_apply(&mut cat, &stats);
        assert_eq!(outcome.dropped, 0, "amortized windows never drop");
        for id in &before {
            assert!(cat.index(*id).is_ok(), "incumbent {id:?} must survive");
        }
        // Back at full level with the workload still shifted, the stale
        // configuration is torn down again.
        let shifted2 = Query {
            id: QueryId(100),
            template: TemplateId(2),
            tables: vec![TableId(0)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 2), 9)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(0), 2)],
            aggregated: true,
        };
        let (_, exec2) = plan_and_run(&cat, &stats, &cost, &shifted2);
        tuner.observe(&[shifted2], &[exec2]);
        tuner.begin_window(&WindowMode::default());
        let outcome = tuner.recommend_and_apply(&mut cat, &stats);
        assert!(outcome.dropped > 0, "full window regains drop authority");
    }

    /// The streaming fast path (batched scatter update) must still
    /// converge on the repeating workload.
    #[test]
    fn fast_path_converges_on_repeating_workload() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut tuner = MabTuner::new(
            &cat,
            cost.clone(),
            MabConfig {
                memory_budget_bytes: cat.database_bytes(),
                streaming_fast_path: true,
                ..MabConfig::default()
            },
        );
        let mut first = None;
        let mut last = None;
        for round in 0..8 {
            tuner.recommend_and_apply(&mut cat, &stats);
            let q = query(round, (round as i64) * 17 % 50_000);
            let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
            if round == 0 {
                first = Some(exec.total.secs());
            }
            last = Some(exec.total.secs());
            tuner.observe(&[q], &[exec]);
        }
        let (first, last) = (first.unwrap(), last.unwrap());
        assert!(
            last < first / 2.0,
            "fast path must converge: {first} → {last}"
        );
        let (refreshes, _) = tuner.bandit_counters();
        assert!(refreshes > 0, "batched updates re-invert once per window");
    }

    #[test]
    fn recommendation_time_scales_with_arms() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut tuner = MabTuner::new(&cat, cost.clone(), MabConfig::default());
        // Round 1: cold start (setup only).
        let o1 = tuner.recommend_and_apply(&mut cat, &stats);
        let q = query(0, 5);
        let (_, exec) = plan_and_run(&cat, &stats, &cost, &q);
        tuner.observe(&[q], &[exec]);
        // Round 2: arms exist now.
        let o2 = tuner.recommend_and_apply(&mut cat, &stats);
        assert!(o1.recommendation_time.secs() >= 8.0, "setup in round 1");
        assert!(o2.recommendation_time.secs() > 0.0);
        assert!(
            o2.recommendation_time.secs() < o1.recommendation_time.secs(),
            "steady-state recommendation is cheap (Table I)"
        );
    }
}
