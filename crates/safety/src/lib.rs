//! `dba-safety`: the guardrail subsystem that makes the paper's *safety
//! guarantees* an enforced, measured property instead of an implicit one.
//!
//! The MAB tuner's C2UCB machinery bounds regret analytically; nothing in
//! the rest of the system bounds what a tuner — MAB, DDQN, PDTool, or a
//! user-supplied advisor — can actually do to a live workload. This crate
//! provides the production shape of that guarantee (cf. *No DBA? No
//! regret!* framing regret against the do-nothing baseline, and OnlineTune
//! -style guardrails that detect harmful configurations and roll them
//! back):
//!
//! * a **shadow baseline** — every round's workload is priced through the
//!   existing what-if path under the *empty* configuration and under the
//!   *previous round's* configuration, yielding per-round observed regret
//!   and a cumulative regret-vs-NoIndex trajectory;
//! * a [`SafeguardedAdvisor`] wrapper implementing
//!   [`Advisor`](dba_core::Advisor) around any inner advisor, which
//!   **vetoes** creations that violate memory headroom or the round's
//!   creation budget, **rolls back** indexes whose realized net benefit
//!   stays negative over a sliding window, and **throttles** (freezes the
//!   configuration) while cumulative regret exceeds a configurable bound —
//!   recovering automatically once it falls back under;
//! * a [`SafetyReport`] — vetoes, rollbacks, throttled rounds and the
//!   regret trajectory — that tuning sessions thread into their round
//!   records, run results and results JSON.
//!
//! Guarded advisors need no cooperation from the inner tuner: every
//! built-in tuner reconciles against externally-dropped indexes at the
//! start of its recommendation step, so a rollback simply returns the arm
//! to candidate status.

pub mod config;
pub mod guard;
pub mod ledger;

pub use config::SafetyConfig;
pub use guard::SafeguardedAdvisor;
pub use ledger::{RoundSafety, SafetyLedger, SafetyReport, SafetySnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use dba_common::{ColumnId, QueryId, SimSeconds, TableId, TemplateId};
    use dba_core::{Advisor, AdvisorCost, DataChange, DegradeLevel, RoundContext, WindowMode};
    use dba_engine::{CostModel, Executor, Predicate, Query, QueryExecution};
    use dba_optimizer::{Planner, PlannerContext, StatsCatalog, WhatIfService};
    use dba_storage::{
        Catalog, ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema,
    };

    fn svc() -> WhatIfService {
        WhatIfService::new(CostModel::unit_scale())
    }

    /// Run the guard's observation step with a [`RoundContext`] over the
    /// current catalog state (these tests apply drift between rounds, so
    /// "current" is the execution-time snapshot).
    fn observe<A: Advisor>(
        guard: &mut SafeguardedAdvisor<A>,
        cat: &Catalog,
        stats: &StatsCatalog,
        whatif: &mut WhatIfService,
        qs: &[Query],
        ex: &[QueryExecution],
    ) {
        let mut ctx = RoundContext {
            catalog: cat,
            stats,
            whatif,
        };
        guard.after_round(&mut ctx, qs, ex);
    }

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
            ],
        );
        Catalog::new(vec![TableBuilder::new(t, 50_000).build(TableId(0), 7)])
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

    fn run_round(
        catalog: &Catalog,
        stats: &StatsCatalog,
        cost: &CostModel,
        queries: &[Query],
    ) -> Vec<QueryExecution> {
        let ctx = PlannerContext::from_catalog(catalog, stats, cost);
        // lint: allow(G03) — execution path: plans feed Executor::execute, what-if memoization must not intercept them
        let planner = Planner::new(&ctx);
        let mut exec = Executor::new(cost.clone());
        queries
            .iter()
            .map(|q| exec.execute(catalog, q, &planner.plan(q)))
            .collect()
    }

    /// A scripted inner advisor: creates the given defs in round 0 and
    /// charges the given recommendation time every non-frozen round.
    struct Scripted {
        create_in_round_0: Vec<IndexDef>,
        rec_s_per_round: f64,
        calls: usize,
    }

    impl Scripted {
        fn new(create: Vec<IndexDef>, rec_s: f64) -> Self {
            Scripted {
                create_in_round_0: create,
                rec_s_per_round: rec_s,
                calls: 0,
            }
        }
    }

    impl Advisor for Scripted {
        fn name(&self) -> &str {
            "Scripted"
        }

        fn before_round(
            &mut self,
            round: usize,
            catalog: &mut Catalog,
            _stats: &StatsCatalog,
            _whatif: &mut WhatIfService,
        ) -> AdvisorCost {
            self.calls += 1;
            let cost_model = CostModel::unit_scale();
            let mut creation = SimSeconds::ZERO;
            if round == 0 {
                for def in self.create_in_round_0.drain(..) {
                    let build = cost_model.index_build(
                        catalog.live_heap_pages(def.table),
                        catalog.live_rows(def.table),
                        catalog.estimated_live_bytes(&def),
                    );
                    if catalog.create_index(def).is_ok() {
                        creation += build;
                    }
                }
            }
            AdvisorCost {
                recommendation: SimSeconds::new(self.rec_s_per_round),
                creation,
            }
        }

        fn after_round(
            &mut self,
            _ctx: &mut RoundContext<'_>,
            _queries: &[Query],
            _executions: &[QueryExecution],
        ) {
        }
    }

    /// Drive a guarded scripted advisor for `rounds` rounds over the
    /// single-template workload, returning the final report. Every round
    /// closes in its own observation step, so the report is complete when
    /// the loop ends — no finalize.
    fn drive(
        guard: &mut SafeguardedAdvisor<Scripted>,
        cat: &mut Catalog,
        rounds: usize,
        maintenance_per_round_s: f64,
    ) -> SafetyReport {
        let stats = StatsCatalog::build(cat);
        let cost = CostModel::unit_scale();
        let mut whatif = svc();
        for round in 0..rounds {
            guard.before_round(round, cat, &stats, &mut whatif);
            let qs: Vec<Query> = (0..2)
                .map(|i| {
                    query(
                        round as u64 * 10 + i,
                        ((round * 31 + i as usize) % 50_000) as i64,
                    )
                })
                .collect();
            let ex = run_round(cat, &stats, &cost, &qs);
            if maintenance_per_round_s > 0.0 && cat.all_indexes().count() > 0 {
                let change = DataChange {
                    index_maintenance: cat
                        .all_indexes()
                        .map(|ix| (ix.id(), SimSeconds::new(maintenance_per_round_s)))
                        .collect(),
                    table_changes: vec![],
                };
                guard.on_data_change(&change);
            }
            observe(guard, cat, &stats, &mut whatif, &qs, &ex);
        }
        guard.ledger().report()
    }

    #[test]
    fn guard_name_tags_the_inner_advisor() {
        let guard = SafeguardedAdvisor::new(
            Scripted::new(vec![], 0.0),
            SafetyConfig::default(),
            CostModel::unit_scale(),
        );
        assert_eq!(guard.name(), "Scripted+guard");
    }

    /// Memory-headroom veto: an index pushing the live footprint past the
    /// headroom is dropped in the same round and its build time refunded.
    #[test]
    fn creations_over_memory_headroom_are_vetoed_and_refunded() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let big = IndexDef::new(TableId(0), vec![1], vec![0, 2]); // wide covering
        let small = IndexDef::new(TableId(0), vec![1], vec![]);
        let small_bytes = cat.estimated_live_bytes(&small);
        let big_bytes = cat.estimated_live_bytes(&big);
        assert!(big_bytes > small_bytes);

        // Budget fits only the small index.
        let config = SafetyConfig {
            memory_budget_bytes: small_bytes + (big_bytes - small_bytes) / 2,
            regret_slack_s: 1e9, // never throttle in this test
            ..SafetyConfig::default()
        };
        let mut guard = SafeguardedAdvisor::new(
            Scripted::new(vec![small.clone(), big.clone()], 0.0),
            config,
            CostModel::unit_scale(),
        );
        let cost = guard.before_round(0, &mut cat, &stats, &mut svc());
        // The big index was vetoed, the small one survived.
        assert_eq!(cat.all_indexes().count(), 1);
        assert!(cat.find_index(&small).is_some());
        assert!(cat.find_index(&big).is_none());
        assert!(cat.live_index_bytes() <= config.memory_budget_bytes);
        assert_eq!(guard.ledger().snapshot().vetoes, 1);
        // The refund equals the vetoed build: what remains billed is
        // exactly the small index's build cost.
        let expected = CostModel::unit_scale()
            .index_build(
                cat.live_heap_pages(TableId(0)),
                cat.live_rows(TableId(0)),
                small_bytes,
            )
            .secs();
        assert!((cost.creation.secs() - expected).abs() < 1e-9);
    }

    /// Round creation budget: once a shadow price exists, a round may not
    /// spend more than `creation_budget_factor ×` that price on builds.
    #[test]
    fn creations_over_round_budget_are_vetoed() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost_model = CostModel::unit_scale();
        // Tiny factor: any build dwarfs the shadow price of two point
        // queries, so every creation after round 0 is vetoed.
        let config = SafetyConfig {
            memory_budget_bytes: u64::MAX,
            creation_budget_factor: 1e-6,
            regret_slack_s: 1e9,
            ..SafetyConfig::default()
        };
        // Script the creation into round *1* via a custom drive: round 0
        // observes the workload (establishing the shadow), round 1 creates.
        struct LateCreator {
            def: Option<IndexDef>,
        }
        impl Advisor for LateCreator {
            fn name(&self) -> &str {
                "Late"
            }
            fn before_round(
                &mut self,
                round: usize,
                catalog: &mut Catalog,
                _stats: &StatsCatalog,
                _whatif: &mut WhatIfService,
            ) -> AdvisorCost {
                let mut creation = SimSeconds::ZERO;
                if round == 1 {
                    if let Some(def) = self.def.take() {
                        let build = CostModel::unit_scale().index_build(
                            catalog.live_heap_pages(def.table),
                            catalog.live_rows(def.table),
                            catalog.estimated_live_bytes(&def),
                        );
                        catalog.create_index(def).unwrap();
                        creation = build;
                    }
                }
                AdvisorCost {
                    recommendation: SimSeconds::ZERO,
                    creation,
                }
            }
            fn after_round(
                &mut self,
                _ctx: &mut RoundContext<'_>,
                _q: &[Query],
                _e: &[QueryExecution],
            ) {
            }
        }
        let mut guard = SafeguardedAdvisor::new(
            LateCreator {
                def: Some(IndexDef::new(TableId(0), vec![1], vec![0])),
            },
            config,
            cost_model.clone(),
        );
        let mut whatif = svc();
        for round in 0..2 {
            let cost = guard.before_round(round, &mut cat, &stats, &mut whatif);
            let qs = vec![query(round as u64, 5)];
            let ex = run_round(&cat, &stats, &cost_model, &qs);
            observe(&mut guard, &cat, &stats, &mut whatif, &qs, &ex);
            if round == 1 {
                assert_eq!(cost.creation.secs(), 0.0, "build refunded");
            }
        }
        assert_eq!(cat.all_indexes().count(), 0, "over-budget build vetoed");
        assert_eq!(guard.ledger().report().vetoes, 1);
    }

    /// Drift growth alone can breach the memory headroom — with no new
    /// creation to veto, the guard must evict the grown configuration at
    /// the next round boundary.
    #[test]
    fn drift_growth_past_headroom_evicts_existing_indexes() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let def = IndexDef::new(TableId(0), vec![1], vec![0]);
        let size = cat.estimated_live_bytes(&def);
        let config = SafetyConfig {
            // Fits at creation with 25% headroom to spare.
            memory_budget_bytes: size + size / 4,
            rollback_window: 50, // benefit-based rollback never fires here
            regret_slack_s: 1e9,
            ..SafetyConfig::default()
        };
        let mut guard =
            SafeguardedAdvisor::new(Scripted::new(vec![def.clone()], 0.0), config, cost.clone());
        let mut whatif = svc();
        guard.before_round(0, &mut cat, &stats, &mut whatif);
        assert_eq!(cat.all_indexes().count(), 1, "fits at creation");
        let qs = vec![query(0, 5)];
        let ex = run_round(&cat, &stats, &cost, &qs);
        observe(&mut guard, &cat, &stats, &mut whatif, &qs, &ex);

        // The table grows 50%: the index absorbs it and outgrows the budget.
        cat.apply_drift(TableId(0), 25_000, 0, 0);
        assert!(cat.live_index_bytes() > config.memory_budget_bytes);
        guard.before_round(1, &mut cat, &stats, &mut whatif);
        assert_eq!(cat.all_indexes().count(), 0, "grown index evicted");
        assert!(cat.live_index_bytes() <= config.memory_budget_bytes);
        assert!(guard.ledger().report().rollbacks >= 1, "eviction recorded");
    }

    /// Rollback: an index that never helps the workload but keeps billing
    /// maintenance goes net-negative over the window and is force-dropped.
    #[test]
    fn harmful_index_is_rolled_back() {
        let mut cat = catalog();
        // Index on `w` while the workload only ever filters `v`: zero
        // marginal benefit, positive maintenance ⇒ negative net benefit.
        let harmful = IndexDef::new(TableId(0), vec![2], vec![]);
        let config = SafetyConfig {
            memory_budget_bytes: u64::MAX,
            rollback_window: 3,
            regret_slack_s: 1e9,
            ..SafetyConfig::default()
        };
        let mut guard = SafeguardedAdvisor::new(
            Scripted::new(vec![harmful.clone()], 0.0),
            config,
            CostModel::unit_scale(),
        );
        let report = drive(&mut guard, &mut cat, 8, 5.0);
        assert_eq!(cat.all_indexes().count(), 0, "harmful index dropped");
        assert!(report.rollbacks >= 1, "rollback recorded");
        assert!(
            report.rounds.iter().any(|r| r.rollbacks > 0),
            "rollback visible in the per-round trajectory"
        );
    }

    /// A genuinely useful index is never rolled back: its marginal what-if
    /// benefit exceeds the maintenance it pays.
    #[test]
    fn useful_index_survives_rollback_assessment() {
        let mut cat = catalog();
        let useful = IndexDef::new(TableId(0), vec![1], vec![0]);
        let config = SafetyConfig {
            memory_budget_bytes: u64::MAX,
            rollback_window: 2,
            regret_slack_s: 1e9,
            ..SafetyConfig::default()
        };
        let mut guard = SafeguardedAdvisor::new(
            Scripted::new(vec![useful.clone()], 0.0),
            config,
            CostModel::unit_scale(),
        );
        let report = drive(&mut guard, &mut cat, 8, 0.001);
        assert!(cat.find_index(&useful).is_some(), "useful index retained");
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.vetoes, 0);
    }

    /// Throttle-then-recover: a regret spike freezes the configuration;
    /// once the (good) frozen config's negative per-round regret pays the
    /// spike back, tuning resumes.
    #[test]
    fn regret_spike_throttles_then_recovers() {
        let mut cat = catalog();
        let config = SafetyConfig {
            memory_budget_bytes: u64::MAX,
            regret_bound_factor: 0.25,
            recovery_fraction: 0.5,
            regret_slack_s: 0.0,
            ..SafetyConfig::default()
        };
        // Creates a good index in round 0 but burns absurd recommendation
        // time every round it is allowed to act — the guardrail must cut
        // it off, coast on the good index, and re-admit it once the
        // index's gains have paid the spike back.
        let mut guard = SafeguardedAdvisor::new(
            Scripted::new(vec![IndexDef::new(TableId(0), vec![1], vec![0])], 0.15),
            config,
            CostModel::unit_scale(),
        );
        let report = drive(&mut guard, &mut cat, 60, 0.0);
        assert!(report.throttled_rounds >= 1, "spike must throttle");
        assert!(
            report.throttled_rounds < report.rounds.len(),
            "recovery must unfreeze some rounds"
        );
        let throttled: Vec<bool> = report.rounds.iter().map(|r| r.throttled).collect();
        let first_throttle = throttled.iter().position(|&t| t).unwrap();
        assert!(
            throttled[first_throttle..].iter().any(|&t| !t),
            "a round after the throttle must run unfrozen (recovery)"
        );
        // While throttled, the inner advisor was not consulted.
        assert!(guard.inner().calls < report.rounds.len());
        // Regret came back under the final bound.
        let bound = config.regret_bound_s(report.cum_shadow_noindex_s);
        assert!(
            report.cum_regret_s <= bound,
            "cum regret {} must end within the bound {}",
            report.cum_regret_s,
            bound
        );
    }

    /// The regret-bias fix: shadow prices are computed against the
    /// pre-drift (execution-time) snapshot of the round they price. Under
    /// insert-heavy drift the old close-at-next-round-open pricing charged
    /// the do-nothing baseline for a round of growth it never scanned,
    /// biasing observed regret low.
    #[test]
    fn shadow_prices_use_the_pre_drift_snapshot() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut whatif = svc();
        let mut guard = SafeguardedAdvisor::new(
            Scripted::new(vec![], 0.0),
            SafetyConfig {
                memory_budget_bytes: u64::MAX,
                ..SafetyConfig::default()
            },
            cost.clone(),
        );

        let qs = vec![query(0, 5), query(1, 77)];
        // Independent reference: the do-nothing price of this workload on
        // the pre-drift catalog.
        let (reference, _) = svc().cost_workload(&cat, &stats, &qs, &[]);

        guard.before_round(0, &mut cat, &stats, &mut whatif);
        let ex = run_round(&cat, &stats, &cost, &qs);
        // The round closes at execution time (pre-drift)...
        observe(&mut guard, &cat, &stats, &mut whatif, &qs, &ex);
        // ...and only afterwards does insert-heavy drift triple the table.
        cat.apply_drift(TableId(0), 100_000, 0, 0);

        let report = guard.ledger().report();
        assert_eq!(report.rounds.len(), 1);
        let shadow = report.rounds[0].shadow_noindex_s;
        assert!(
            (shadow - reference.secs()).abs() < 1e-9,
            "shadow {shadow} must equal the pre-drift price {}",
            reference.secs()
        );
        // The quantity the old pricing would have charged — the same
        // workload on the post-drift catalog — is strictly larger, which
        // is exactly the overpricing the snapshot eliminates.
        let (post_drift, _) = svc().cost_workload(&cat, &stats, &qs, &[]);
        assert!(
            post_drift.secs() > reference.secs(),
            "insert-heavy drift must make the post-drift price larger \
             ({} vs {})",
            post_drift.secs(),
            reference.secs()
        );
    }

    /// Streaming windows: a `Full` close scales shadow prices by arrival
    /// weight and fills the per-template price memo; a `ReuseConfig` close
    /// answers entirely from that memo (zero optimiser costings); an
    /// `Amortized` close re-prices exactly the templates whose arrival
    /// share changed.
    #[test]
    fn degraded_window_closes_price_from_the_template_memo() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let mut whatif = svc();
        let mut guard = SafeguardedAdvisor::new(
            Scripted::new(vec![], 0.0),
            SafetyConfig {
                memory_budget_bytes: u64::MAX,
                regret_slack_s: 1e9,
                ..SafetyConfig::default()
            },
            cost.clone(),
        );
        let qs = vec![query(0, 5)];
        let (unit, _) = svc().cost_workload(&cat, &stats, &qs, &[]);

        // Window 0 (Full, weight 250): live pricing, weighted total.
        guard.begin_window(&WindowMode::default());
        guard.before_round(0, &mut cat, &stats, &mut whatif);
        let ex = run_round(&cat, &stats, &cost, &qs);
        guard.ledger().note_window_weights(vec![250.0]);
        observe(&mut guard, &cat, &stats, &mut whatif, &qs, &ex);
        let r0 = guard.ledger().report().rounds[0];
        assert!(
            (r0.shadow_noindex_s - 250.0 * unit.secs()).abs() <= 1e-9 * r0.shadow_noindex_s,
            "Full close must bill weight × unit price ({} vs {})",
            r0.shadow_noindex_s,
            250.0 * unit.secs()
        );

        // Window 1 (ReuseConfig, weight 40): same template, new binding —
        // priced from the memo at window 0's unit price, with zero
        // optimiser costings.
        guard.begin_window(&WindowMode {
            level: DegradeLevel::ReuseConfig,
            changed_templates: vec![],
        });
        guard.before_round(1, &mut cat, &stats, &mut whatif);
        let qs1 = vec![query(10, 7)];
        let ex1 = run_round(&cat, &stats, &cost, &qs1);
        let before = whatif.stats();
        guard.ledger().note_window_weights(vec![40.0]);
        observe(&mut guard, &cat, &stats, &mut whatif, &qs1, &ex1);
        let after = whatif.stats();
        assert_eq!(
            before.hits + before.misses,
            after.hits + after.misses,
            "ReuseConfig close must not touch the optimiser"
        );
        let r1 = guard.ledger().report().rounds[1];
        assert!(
            (r1.shadow_noindex_s - 40.0 * unit.secs()).abs() <= 1e-9,
            "ReuseConfig close must bill from the cached unit price"
        );

        // Window 2 (Amortized scoped to the template): re-priced live.
        guard.begin_window(&WindowMode {
            level: DegradeLevel::Amortized,
            changed_templates: vec![TemplateId(1)],
        });
        guard.before_round(2, &mut cat, &stats, &mut whatif);
        let qs2 = vec![query(20, 9)];
        let ex2 = run_round(&cat, &stats, &cost, &qs2);
        let before2 = whatif.stats();
        guard.ledger().note_window_weights(vec![10.0]);
        observe(&mut guard, &cat, &stats, &mut whatif, &qs2, &ex2);
        let after2 = whatif.stats();
        assert!(
            after2.hits + after2.misses > before2.hits + before2.misses,
            "Amortized close must re-price the changed template"
        );
        // Every close still lands in the report in order.
        assert_eq!(guard.ledger().report().rounds.len(), 3);
    }

    /// The ledger's trajectory is self-consistent: cumulative regret is
    /// the running sum of per-round regrets, and every value is finite.
    #[test]
    fn report_trajectory_is_consistent_and_finite() {
        let mut cat = catalog();
        let mut guard = SafeguardedAdvisor::new(
            Scripted::new(vec![IndexDef::new(TableId(0), vec![1], vec![0])], 0.01),
            SafetyConfig {
                memory_budget_bytes: u64::MAX,
                ..SafetyConfig::default()
            },
            CostModel::unit_scale(),
        );
        let report = drive(&mut guard, &mut cat, 6, 0.0);
        assert_eq!(report.rounds.len(), 6, "finalize closes the last round");
        let mut cum = 0.0;
        for (i, r) in report.rounds.iter().enumerate() {
            assert_eq!(r.round, i + 1);
            cum += r.regret_s;
            assert!((r.cum_regret_s - cum).abs() < 1e-9);
            for v in [r.shadow_noindex_s, r.shadow_prev_s, r.actual_s, r.regret_s] {
                assert!(v.is_finite());
            }
            assert!(r.shadow_noindex_s >= 0.0);
        }
        assert!((report.cum_regret_s - cum).abs() < 1e-9);
        assert!(report.cum_shadow_noindex_s > 0.0);
    }
}
