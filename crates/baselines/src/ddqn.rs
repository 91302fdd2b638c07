//! DDQN baseline (§V-C): double deep-Q learning over the same arms,
//! contexts and rewards as the MAB.
//!
//! Follows the paper's experiment: a 4×8 MLP Q-network, discount γ = 0.99,
//! ε decaying exponentially from 1 to 0.01 at the 2400th sample (one
//! sample = one index chosen), random whole-round exploration, and — for
//! fairness — "we combine all of MAB's arms' contexts as DDQN state" and
//! present the same candidate indices. `DDQN-SC` restricts candidates to
//! single-column indices (Sharma et al.'s original formulation).

use std::collections::{HashMap, HashSet, VecDeque};

use dba_common::{rng::rng_for, ColumnId, IndexId, SimSeconds};
use dba_core::{
    arms::{ArmGenConfig, ArmRegistry},
    context::{ContextBuilder, ContextLayout},
    linalg::to_dense,
    query_store::QueryStore,
    reward::RewardShaper,
};
use dba_engine::{CostModel, Query, QueryExecution};
use dba_optimizer::{CardEstimator, StatsCatalog};
use dba_storage::Catalog;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::nn::Mlp;
use crate::{Advisor, AdvisorCost};

/// DDQN hyperparameters (defaults follow §V-C).
#[derive(Debug, Clone, Copy)]
pub struct DdqnConfig {
    pub memory_budget_bytes: u64,
    /// Restrict candidates to single-column indices (DDQN-SC).
    pub single_column_only: bool,
    pub gamma: f64,
    pub eps_start: f64,
    pub eps_end: f64,
    /// Sample count at which ε reaches `eps_end`.
    pub eps_decay_samples: f64,
    pub replay_capacity: usize,
    pub batch_size: usize,
    /// Sync the target network every this many samples.
    pub target_sync_every: usize,
    pub seed: u64,
    pub arm_gen: ArmGenConfig,
    pub qoi_window: usize,
    pub first_round_setup_s: f64,
    pub per_arm_scored_s: f64,
}

impl DdqnConfig {
    pub fn paper_defaults(memory_budget_bytes: u64, seed: u64) -> Self {
        DdqnConfig {
            memory_budget_bytes,
            single_column_only: false,
            gamma: 0.99,
            eps_start: 1.0,
            eps_end: 0.01,
            eps_decay_samples: 2400.0,
            replay_capacity: 4096,
            batch_size: 32,
            target_sync_every: 256,
            seed,
            arm_gen: ArmGenConfig::default(),
            qoi_window: 2,
            first_round_setup_s: 8.0,
            per_arm_scored_s: 0.002,
        }
    }

    pub fn single_column(mut self) -> Self {
        self.single_column_only = true;
        self
    }
}

/// A transition awaiting its next-state half.
struct PendingTransition {
    input: Vec<f64>, // state ⊕ action features
    reward: f64,
}

/// A complete replay-buffer entry.
struct Transition {
    input: Vec<f64>,
    reward: f64,
    /// Next state ⊕ each candidate next action (subsampled).
    next_inputs: Vec<Vec<f64>>,
}

pub struct DdqnAdvisor {
    name: &'static str,
    config: DdqnConfig,
    cost: CostModel,
    online: Mlp,
    target: Mlp,
    registry: ArmRegistry,
    store: QueryStore,
    layout: ContextLayout,
    replay: VecDeque<Transition>,
    pending: Vec<PendingTransition>,
    samples: usize,
    current: HashMap<IndexId, usize>,
    arm_to_index: HashMap<usize, IndexId>,
    played: Vec<usize>,
    created_this_round: Vec<(usize, SimSeconds)>,
    rng: StdRng,
    round: usize,
}

impl DdqnAdvisor {
    pub fn new(catalog: &Catalog, cost: CostModel, config: DdqnConfig) -> Self {
        let layout = ContextLayout::new(catalog);
        let d = layout.dim();
        let mut rng = StdRng::seed_from_u64(rng_for(config.seed, "ddqn-init", 0).gen());
        // 4 hidden layers × 8 neurons (§V-C).
        let online = Mlp::new(&[2 * d, 8, 8, 8, 8, 1], &mut rng);
        let target = online.clone();
        DdqnAdvisor {
            name: if config.single_column_only {
                "DDQN-SC"
            } else {
                "DDQN"
            },
            config,
            cost,
            online,
            target,
            registry: ArmRegistry::new(),
            store: QueryStore::new(),
            layout,
            replay: VecDeque::new(),
            pending: Vec::new(),
            samples: 0,
            current: HashMap::new(),
            arm_to_index: HashMap::new(),
            played: Vec::new(),
            created_this_round: Vec::new(),
            rng,
            round: 0,
        }
    }

    fn epsilon(&self) -> f64 {
        let k = (1.0 / self.config.eps_end).ln() / self.config.eps_decay_samples;
        (self.config.eps_start * (-k * self.samples as f64).exp()).max(self.config.eps_end)
    }

    /// Build the round's state (mean of active arms' dense contexts) and
    /// per-arm action features.
    fn featurise(
        &self,
        catalog: &Catalog,
        active: &[usize],
        qoi: &[Query],
    ) -> (Vec<f64>, Vec<Vec<f64>>) {
        let d = self.layout.dim();
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
        let actions: Vec<Vec<f64>> = active
            .iter()
            .map(|&i| {
                let materialised = self.arm_to_index.contains_key(&i);
                to_dense(&builder.build(self.registry.arm(i), materialised), d)
            })
            .collect();
        let mut state = vec![0.0; d];
        if !actions.is_empty() {
            for a in &actions {
                for (s, v) in state.iter_mut().zip(a) {
                    *s += v;
                }
            }
            for s in &mut state {
                *s /= actions.len() as f64;
            }
        }
        (state, actions)
    }

    fn q_input(state: &[f64], action: &[f64]) -> Vec<f64> {
        let mut input = Vec::with_capacity(state.len() * 2);
        input.extend_from_slice(state);
        input.extend_from_slice(action);
        input
    }

    /// Finalise pending transitions with this round's (state, actions),
    /// push them to replay, and run training steps.
    fn absorb_pending(&mut self, state: &[f64], actions: &[Vec<f64>]) {
        if self.pending.is_empty() {
            return;
        }
        // Subsample next actions to bound replay entry size.
        let mut idx: Vec<usize> = (0..actions.len()).collect();
        idx.shuffle(&mut self.rng);
        let next_inputs: Vec<Vec<f64>> = idx
            .into_iter()
            .take(24)
            .map(|i| Self::q_input(state, &actions[i]))
            .collect();

        for p in self.pending.drain(..) {
            self.replay.push_back(Transition {
                input: p.input,
                reward: p.reward,
                next_inputs: next_inputs.clone(),
            });
            if self.replay.len() > self.config.replay_capacity {
                self.replay.pop_front();
            }
        }

        // Train a few minibatches per round.
        let steps = self.config.batch_size * 2;
        for _ in 0..steps {
            if self.replay.is_empty() {
                break;
            }
            let t = &self.replay[self.rng.gen_range(0..self.replay.len())];
            // Double-DQN target: argmax by online net, value by target net.
            // A diverging net can emit NaN/∞ q-values: those must neither
            // panic the comparison nor win the argmax, and an all-non-finite
            // round degrades to the bare reward target.
            let target_value = if t.next_inputs.is_empty() {
                t.reward
            } else {
                let best = t
                    .next_inputs
                    .iter()
                    .map(|a| (self.online.predict(a), a))
                    .filter(|(q, _)| q.is_finite())
                    .max_by(|(qa, _), (qb, _)| qa.total_cmp(qb))
                    .map(|(_, a)| a);
                match best {
                    Some(a) => t.reward + self.config.gamma * self.target.predict(a),
                    None => t.reward,
                }
            };
            let input = t.input.clone();
            self.online.train_one(&input, target_value);
        }
    }
}

impl Advisor for DdqnAdvisor {
    fn name(&self) -> &str {
        self.name
    }

    fn before_round(
        &mut self,
        _round: usize,
        catalog: &mut Catalog,
        stats: &StatsCatalog,
        _whatif: &mut dba_optimizer::WhatIfService,
    ) -> AdvisorCost {
        self.round += 1;
        // Forget indexes externally dropped by a guardrail rollback so
        // their arms become candidates again instead of phantom incumbents.
        dba_core::reconcile_external_drops(catalog, &mut self.current, &mut self.arm_to_index);
        let mut rec_time = SimSeconds::ZERO;
        if self.round == 1 {
            rec_time += SimSeconds::new(self.config.first_round_setup_s);
        }

        let qoi: Vec<Query> = self
            .store
            .queries_of_interest(self.config.qoi_window)
            .into_iter()
            .cloned()
            .collect();
        if qoi.is_empty() {
            self.played.clear();
            self.created_this_round.clear();
            return AdvisorCost {
                recommendation: rec_time,
                creation: SimSeconds::ZERO,
            };
        }

        let est = CardEstimator::new(stats);
        let qoi_refs: Vec<&Query> = qoi.iter().collect();
        let mut active = self
            .registry
            .generate(&qoi_refs, catalog, &est, &self.config.arm_gen);
        if self.config.single_column_only {
            active.retain(|&i| {
                let def = &self.registry.arm(i).def;
                def.key_cols.len() == 1 && def.include_cols.is_empty()
            });
        }
        rec_time += SimSeconds::new(self.config.per_arm_scored_s * active.len() as f64);

        let (state, actions) = self.featurise(catalog, &active, &qoi);
        self.absorb_pending(&state, &actions);

        // Select the round's configuration.
        let explore = self.rng.gen_bool(self.epsilon());
        let mut order: Vec<usize> = (0..active.len()).collect();
        if explore {
            order.shuffle(&mut self.rng);
        } else {
            order.sort_by(|&a, &b| {
                let qa = self.online.predict(&Self::q_input(&state, &actions[a]));
                let qb = self.online.predict(&Self::q_input(&state, &actions[b]));
                qb.total_cmp(&qa)
            });
        }
        let mut selected: Vec<usize> = Vec::new();
        let mut budget = self.config.memory_budget_bytes;
        for pos in order {
            let arm_idx = active[pos];
            let arm = self.registry.arm(arm_idx);
            if arm.size_bytes > budget {
                continue;
            }
            if !explore {
                let q = self.online.predict(&Self::q_input(&state, &actions[pos]));
                // NaN sorts first under descending `total_cmp`; it must
                // stop greedy selection like any non-positive q, not buy
                // an index on a diverged estimate.
                if q.is_nan() || q <= 0.0 {
                    break;
                }
            } else if !self.rng.gen_bool(0.5) {
                continue;
            }
            budget -= arm.size_bytes;
            selected.push(arm_idx);
            self.samples += 1;
            if self.samples.is_multiple_of(self.config.target_sync_every) {
                self.target.copy_from(&self.online);
            }
        }

        // Materialise the diff (same protocol as the MAB tuner). `current`
        // is a HashMap, so sort the snapshot — catalog mutations must
        // happen in a run-independent order.
        let selected_set: HashSet<usize> = selected.iter().copied().collect();
        let mut to_drop: Vec<(IndexId, usize)> = self
            .current
            .iter()
            .filter(|(_, arm)| !selected_set.contains(arm))
            .map(|(&id, &arm)| (id, arm))
            .collect();
        to_drop.sort_unstable_by_key(|&(id, _)| id);
        for (id, arm) in to_drop {
            let _ = catalog.drop_index(id);
            self.current.remove(&id);
            self.arm_to_index.remove(&arm);
        }
        let mut creation = SimSeconds::ZERO;
        self.created_this_round.clear();
        for &arm_idx in &selected {
            if self.arm_to_index.contains_key(&arm_idx) {
                continue;
            }
            let def = self.registry.arm(arm_idx).def.clone();
            // Bill creation off the live (drift-grown) sizes, as MAB and
            // PDTool do — building over a doubled heap costs double, and
            // the leaves written are the live-estimate's.
            let build =
                self.cost
                    .index_build(catalog, def.table, catalog.estimated_live_bytes(&def));
            if let Ok(meta) = catalog.create_index(def) {
                creation += build;
                self.current.insert(meta.id, arm_idx);
                self.arm_to_index.insert(arm_idx, meta.id);
                self.created_this_round.push((arm_idx, build));
            }
        }

        // Remember inputs of the played actions for transition building.
        self.played = selected.clone();
        self.pending = selected
            .iter()
            .map(|&arm_idx| {
                let pos = active
                    .iter()
                    .position(|&a| a == arm_idx)
                    .expect("played ⊆ active");
                PendingTransition {
                    input: Self::q_input(&state, &actions[pos]),
                    reward: 0.0, // filled in after_round
                }
            })
            .collect();

        AdvisorCost {
            recommendation: rec_time,
            creation,
        }
    }

    fn after_round(
        &mut self,
        _ctx: &mut dba_core::RoundContext<'_>,
        queries: &[Query],
        executions: &[QueryExecution],
    ) {
        self.store.ingest_round(queries, executions);
        let (rewards, _) = RewardShaper::shape(
            &self.store,
            queries,
            executions,
            &self.current,
            &self.created_this_round,
            &HashMap::new(), // DDQN ignores maintenance (as in its paper)
            &self.played,
        );
        let by_arm: HashMap<usize, f64> = rewards.into_iter().collect();
        for (pending, &arm) in self.pending.iter_mut().zip(&self.played) {
            pending.reward = by_arm.get(&arm).copied().unwrap_or(0.0);
        }
    }
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use dba_common::{QueryId, TableId, TemplateId};
    use dba_engine::{Executor, Predicate};
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
                    Distribution::Uniform { lo: 0, hi: 19_999 },
                ),
                ColumnSpec::new(
                    "w",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 99 },
                ),
            ],
        );
        Catalog::new(vec![TableBuilder::new(t, 20_000).build(TableId(0), 55)])
    }

    fn query(id: u64, value: i64) -> Query {
        Query {
            id: QueryId(id),
            template: TemplateId(1),
            tables: vec![TableId(0)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 1), value)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(0), 0)],
            aggregated: false,
        }
    }

    fn drive(advisor: &mut DdqnAdvisor, cat: &mut Catalog, rounds: usize) -> Vec<f64> {
        let stats = StatsCatalog::build(cat);
        let cost = CostModel::unit_scale();
        let mut whatif = dba_optimizer::WhatIfService::new(cost.clone());
        let mut per_round = Vec::new();
        for round in 0..rounds {
            advisor.before_round(round, cat, &stats, &mut whatif);
            let qs: Vec<Query> = (0..3)
                .map(|i| {
                    query(
                        (round * 10 + i) as u64,
                        ((round * 7 + i) as i64 * 331) % 20_000,
                    )
                })
                .collect();
            let ctx = PlannerContext::from_catalog(cat, &stats, &cost);
            // lint: allow(G03) — execution path: plans feed Executor::execute, what-if memoization must not intercept them
            let planner = Planner::new(&ctx);
            let mut exec = Executor::new(cost.clone());
            let execs: Vec<QueryExecution> = qs
                .iter()
                .map(|q| exec.execute(cat, q, &planner.plan(q)))
                .collect();
            per_round.push(execs.iter().map(|e| e.total.secs()).sum());
            let mut round_ctx = dba_core::RoundContext {
                catalog: cat,
                stats: &stats,
                whatif: &mut whatif,
            };
            advisor.after_round(&mut round_ctx, &qs, &execs);
        }
        per_round
    }

    #[test]
    fn epsilon_decays_with_samples() {
        let cat = catalog();
        let mut adv = DdqnAdvisor::new(
            &cat,
            CostModel::unit_scale(),
            DdqnConfig::paper_defaults(u64::MAX, 1),
        );
        assert!((adv.epsilon() - 1.0).abs() < 1e-9);
        adv.samples = 2400;
        assert!(adv.epsilon() <= 0.011);
        adv.samples = 10_000;
        assert!((adv.epsilon() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn runs_rounds_and_materialises_indexes() {
        let mut cat = catalog();
        let budget = cat.database_bytes();
        let mut adv = DdqnAdvisor::new(
            &cat,
            CostModel::unit_scale(),
            DdqnConfig::paper_defaults(budget, 2),
        );
        let times = drive(&mut adv, &mut cat, 6);
        assert_eq!(times.len(), 6);
        // With ε≈1 the agent explores: some indexes should have been built
        // at some point (possibly dropped later).
        assert!(adv.samples > 0, "agent must have chosen arms");
        assert!(cat.index_bytes() <= budget);
    }

    #[test]
    fn single_column_variant_only_builds_single_column_indexes() {
        let mut cat = catalog();
        let mut adv = DdqnAdvisor::new(
            &cat,
            CostModel::unit_scale(),
            DdqnConfig::paper_defaults(cat.database_bytes(), 3).single_column(),
        );
        assert_eq!(adv.name(), "DDQN-SC");
        drive(&mut adv, &mut cat, 6);
        for ix in cat.all_indexes() {
            assert_eq!(ix.def().key_cols.len(), 1);
            assert!(ix.def().include_cols.is_empty());
        }
    }

    #[test]
    fn replay_buffer_is_bounded() {
        let mut cat = catalog();
        let mut cfg = DdqnConfig::paper_defaults(cat.database_bytes(), 4);
        cfg.replay_capacity = 8;
        let mut adv = DdqnAdvisor::new(&cat, CostModel::unit_scale(), cfg);
        drive(&mut adv, &mut cat, 10);
        assert!(adv.replay.len() <= 8);
    }

    #[test]
    fn different_seeds_make_different_choices() {
        // The paper stresses RL volatility: random exploration differs by
        // seed even on identical workloads.
        let run = |seed| {
            let mut cat = catalog();
            let mut adv = DdqnAdvisor::new(
                &cat,
                CostModel::unit_scale(),
                DdqnConfig::paper_defaults(cat.database_bytes(), seed),
            );
            drive(&mut adv, &mut cat, 5);
            let mut defs: Vec<String> = cat
                .all_indexes()
                .map(|ix| format!("{:?}", ix.def()))
                .collect();
            defs.sort();
            defs
        };
        // At least one of a few seeds must diverge.
        let base = run(10);
        assert!(
            (11..16).any(|s| run(s) != base),
            "exploration should vary across seeds"
        );
    }
}
