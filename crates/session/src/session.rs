//! The tuning loop itself — the only implementation of the paper's
//! Algorithm 2 driving loop in the workspace.

use std::collections::HashSet;

use dba_common::{DbResult, SimSeconds, TemplateId};
use dba_engine::{ExecutionBackend, Query, QueryExecution};
use dba_obs::Obs;
use dba_optimizer::{PlanCache, Planner, PlannerContext, StatsCatalog, WhatIfService};
use dba_safety::{SafetyLedger, SafetySnapshot};
use dba_storage::Catalog;
use dba_workloads::{
    ArrivalProcess, ArrivalSchedule, ArrivalWindow, Benchmark, DataDrift, WorkloadKind,
    WorkloadSequencer,
};

use dba_core::{Advisor, DataChange, RoundContext, TableChange, WindowMode};

use crate::record::{RoundRecord, RunResult};

/// Statistics are auto-refreshed (re-ANALYZEd) once this fraction of a
/// table's rows has changed since the last refresh — the same order as
/// commercial auto-stats thresholds (SQL Server: 20% + 500 rows).
pub const STATS_REFRESH_STALENESS: f64 = 0.2;

/// Snapshot emitted to observers after every completed round.
#[derive(Debug, Clone, Copy)]
pub struct RoundEvent {
    /// 1-based round number (matches [`RoundRecord::round`]).
    pub round: usize,
    /// Total rounds in the session's workload.
    pub rounds_total: usize,
    /// The round's time accounting (`record.maintenance` carries the
    /// index-maintenance bill of drifted rounds).
    pub record: RoundRecord,
    /// Number of queries executed this round.
    pub queries: usize,
    /// Materialised secondary indexes after the round.
    pub index_count: usize,
    /// Live (drift-grown) bytes held by materialised secondary indexes
    /// after the round — the footprint the safety layer's memory headroom
    /// is checked against.
    pub index_bytes: u64,
    /// Worst-table statistics staleness after the round (0 when fresh).
    pub stats_staleness: f64,
    /// Guardrail running totals (cumulative regret, throttle state, veto
    /// and rollback counts); `None` for unguarded sessions. Shadow prices
    /// are computed in the round's own observation step against its
    /// execution-time (pre-drift) snapshot, so the regret figure covers
    /// the round this event reports.
    pub safety: Option<SafetySnapshot>,
}

/// A tuner driving session: one advisor × one benchmark × one workload.
///
/// Create via [`SessionBuilder`](crate::SessionBuilder). Drive with
/// [`run`](Self::run) (whole workload) or [`step`](Self::step) (one round
/// at a time); the `*_with` variants emit a [`RoundEvent`] per round to an
/// observer.
pub struct TuningSession<A: Advisor> {
    benchmark: Benchmark,
    catalog: Catalog,
    stats: StatsCatalog,
    workload: WorkloadKind,
    seed: u64,
    memory_budget_bytes: u64,
    /// The execution seam: how physical plans are run. The engine's
    /// executor reporting cost-model prices (`Simulated`) by default; the
    /// same executor reporting its clock (`Measured`) or any custom
    /// implementation via
    /// [`SessionBuilder::backend`](crate::SessionBuilder::backend) /
    /// [`SessionBuilder::backend_boxed`](crate::SessionBuilder::backend_boxed).
    backend: Box<dyn ExecutionBackend>,
    cost: dba_engine::CostModel,
    advisor: A,
    /// Data-change scenario applied after every round's execution; `None`
    /// (or an all-zero spec) keeps the paper's read-only rounds.
    drift: Option<DataDrift>,
    /// Seeded template order, computed once so per-round sequencer
    /// reconstruction does no re-shuffling.
    template_order: Vec<usize>,
    /// Template-level plan reuse, validated against per-table catalog and
    /// statistics versions — rounds that change nothing skip the planner.
    plan_cache: PlanCache,
    /// Shared hypothetical-costing subsystem: one memoizing, versioned
    /// what-if layer per session, handed to the advisor every round (the
    /// guardrail's shadow baselines and rollback assessment, PDTool's
    /// candidate scoring). Hit/miss deltas land in each
    /// [`RoundRecord`](crate::RoundRecord).
    whatif: WhatIfService,
    /// Templates seen in any previous round, for per-round shift
    /// intensity (the query store's definition: the fraction of a round's
    /// distinct templates that are previously unseen) — tracked here so
    /// every record carries it, without paying for a full session-side
    /// `QueryStore` whose instance clones and access maps nobody reads.
    seen_templates: HashSet<TemplateId>,
    /// Guardrail ledger handle, present when the session was built with
    /// [`SessionBuilder::safeguard`](crate::SessionBuilder::safeguard);
    /// the advisor writes through its own clone, the session reads
    /// snapshots and attaches the final report to the run result.
    safety: Option<SafetyLedger>,
    /// Observability handle (`dba-obs`), cloned into the advisor, plan
    /// cache and what-if service at build time. Noop by default — every
    /// span/event call is one `Option` check — and advisory always: no
    /// tuning decision ever branches on it.
    obs: Obs,
    /// Running simulated clock: the cumulative simulated seconds of every
    /// completed phase, stamped onto trace records via `set_sim_now`.
    sim_now: SimSeconds,
    records: Vec<RoundRecord>,
    next_round: usize,
}

impl<A: Advisor> TuningSession<A> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        benchmark: Benchmark,
        catalog: Catalog,
        stats: StatsCatalog,
        workload: WorkloadKind,
        seed: u64,
        memory_budget_bytes: u64,
        backend: Box<dyn ExecutionBackend>,
        cost: dba_engine::CostModel,
        mut advisor: A,
        drift: Option<DataDrift>,
        safety: Option<SafetyLedger>,
        obs: Obs,
    ) -> Self {
        let template_order = WorkloadSequencer::new(&benchmark, workload, seed)
            .order()
            .to_vec();
        let drift = drift.filter(|d| !d.is_none());
        let mut whatif = WhatIfService::new(cost.clone());
        whatif.set_obs(&obs);
        let mut plan_cache = PlanCache::new();
        plan_cache.set_obs(&obs);
        advisor.attach_obs(&obs);
        TuningSession {
            benchmark,
            catalog,
            stats,
            workload,
            seed,
            memory_budget_bytes,
            backend,
            cost,
            advisor,
            drift,
            template_order,
            plan_cache,
            whatif,
            seen_templates: HashSet::new(),
            safety,
            obs,
            sim_now: SimSeconds::ZERO,
            records: Vec::new(),
            next_round: 0,
        }
    }

    /// The session's observability handle (noop unless one was attached
    /// via [`SessionBuilder::observe`](crate::SessionBuilder::observe)).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A sequencer over the precomputed template order.
    fn sequencer(&self) -> WorkloadSequencer<'_> {
        WorkloadSequencer::with_order(
            &self.benchmark,
            self.workload,
            self.seed,
            &self.template_order,
        )
    }

    pub fn benchmark(&self) -> &Benchmark {
        &self.benchmark
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn stats(&self) -> &StatsCatalog {
        &self.stats
    }

    pub fn advisor(&self) -> &A {
        &self.advisor
    }

    pub fn advisor_mut(&mut self) -> &mut A {
        &mut self.advisor
    }

    /// The execution backend running this session's plans.
    pub fn backend(&self) -> &dyn ExecutionBackend {
        &*self.backend
    }

    /// Mutable backend access — e.g. to drain a timed executor's
    /// per-operator calibration samples via `take_op_samples`.
    pub fn backend_mut(&mut self) -> &mut dyn ExecutionBackend {
        &mut *self.backend
    }

    pub fn workload(&self) -> WorkloadKind {
        self.workload
    }

    /// The data-change scenario, if this session drifts.
    pub fn drift(&self) -> Option<&DataDrift> {
        self.drift.as_ref()
    }

    /// Scenario label: the workload kind, suffixed with `+drift` when data
    /// changes between rounds.
    pub fn scenario_label(&self) -> String {
        match self.drift {
            Some(_) => format!("{}+drift", self.workload.label()),
            None => self.workload.label().to_string(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn memory_budget_bytes(&self) -> u64 {
        self.memory_budget_bytes
    }

    /// Rounds in the configured workload.
    pub fn rounds_total(&self) -> usize {
        self.workload.rounds()
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> usize {
        self.next_round
    }

    pub fn is_finished(&self) -> bool {
        self.next_round >= self.rounds_total()
    }

    /// Per-round records accumulated so far.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Run one round of Algorithm 2: recommend → execute → observe.
    /// Returns `None` once the workload is exhausted.
    pub fn step(&mut self) -> DbResult<Option<RoundRecord>> {
        self.step_with(&mut |_| {})
    }

    /// [`step`](Self::step), emitting a [`RoundEvent`] to `observer` after
    /// the round completes. A round is the [`ArrivalProcess::RoundBatch`]
    /// window of `next_round` — the round's queries in order, one arrival
    /// each — run through [`step_window`](Self::step_window) at
    /// [`DegradeLevel::Full`](dba_core::DegradeLevel::Full).
    pub fn step_with(
        &mut self,
        observer: &mut dyn FnMut(&RoundEvent),
    ) -> DbResult<Option<RoundRecord>> {
        if self.is_finished() {
            return Ok(None);
        }
        let process = ArrivalProcess::RoundBatch;
        let window = self.arrival_window(process, self.next_round);
        let record = self.step_window(process, &window, &WindowMode::default())?;
        let event = RoundEvent {
            round: record.round,
            rounds_total: self.rounds_total(),
            record,
            queries: window.arrivals.len(),
            index_count: self.catalog.all_indexes().count(),
            index_bytes: self.catalog.live_index_bytes(),
            stats_staleness: self.stats.max_staleness(),
            safety: self.safety.as_ref().map(|ledger| ledger.snapshot()),
        };
        observer(&event);
        Ok(Some(record))
    }

    /// Window `w` of `process` over this session's workload, scheduled on
    /// the template order computed once at build time.
    pub(crate) fn arrival_window(&self, process: ArrivalProcess, w: usize) -> ArrivalWindow {
        ArrivalSchedule::new(self.sequencer(), process, self.seed).window(w)
    }

    /// Run one observation window — the body of every step, round or
    /// streaming. Recommend under the caller's degrade `mode`, execute one
    /// bound instance per arrival entry and scale it by its count, and
    /// observe. Data drift and workload shifts apply only on
    /// `round_boundary` windows. [`step`](Self::step) runs each round as
    /// its [`ArrivalProcess::RoundBatch`] window (unit counts, every window
    /// a boundary); [`StreamingSession`](crate::StreamingSession) runs
    /// Poisson and bursty windows under its degrade ladder. Returns the
    /// window's record (its `round` field holds the 1-based *window*
    /// index).
    pub fn step_window(
        &mut self,
        process: ArrivalProcess,
        window: &ArrivalWindow,
        mode: &WindowMode,
    ) -> DbResult<RoundRecord> {
        let round = window.round;
        self.obs.set_sim_now(self.sim_now);
        self.obs.span_enter("session.step");

        // 1. Recommendation: the advisor adjusts the physical design under
        //    the window's degrade mode, costing hypotheticals through the
        //    session's shared service.
        self.obs.span_enter("round.advise");
        let whatif_before = self.whatif.stats();
        let bandit_before = self.advisor.bandit_counters();
        self.advisor.begin_window(mode);
        let advisor_cost =
            self.advisor
                .before_round(round, &mut self.catalog, &self.stats, &mut self.whatif);
        self.sim_now += advisor_cost.recommendation + advisor_cost.creation;
        self.obs.set_sim_now(self.sim_now);
        self.obs.span_exit("round.advise");

        // 2. Execution: bind the window's queries, plan them against the
        //    current design — through the plan cache, so templates whose
        //    tables saw no index/stats/drift change since their last plan
        //    skip the planner — run each once, and scale the observed
        //    statistics by its arrival count.
        self.obs.span_enter("round.execute");
        let queries = ArrivalSchedule::new(self.sequencer(), process, self.seed)
            .window_queries(&self.catalog, window)?;
        let cache_before = self.plan_cache.stats();
        let executions: Vec<QueryExecution> = {
            // Field-precise borrows: the cache is mutated while the
            // planner context holds the catalog and statistics.
            let catalog = &self.catalog;
            let stats = &self.stats;
            let backend = &mut self.backend;
            let plan_cache = &mut self.plan_cache;
            let ctx = PlannerContext::from_catalog(catalog, stats, &self.cost);
            let planner = Planner::new(&ctx);
            queries
                .iter()
                .zip(&window.arrivals)
                .map(|(q, &(_, count))| {
                    let (plan, _) = plan_cache.get_or_plan(q.template, catalog, stats, &planner, q);
                    scale_execution(backend.execute(catalog, q, plan), count)
                })
                .collect()
        };
        let cache_after = self.plan_cache.stats();
        let execution: SimSeconds = executions.iter().map(|e| e.total).sum();
        self.sim_now += execution;
        self.obs.set_sim_now(self.sim_now);
        self.obs.span_exit("round.execute");

        // Session-side shift intensity for the record (same definition as
        // any advisor-internal query store: the fraction of this window's
        // distinct templates that were previously unseen).
        let shift_intensity = self.note_shift_intensity(&queries);

        // 3. Data change, at round boundaries only (mid-round windows are
        //    pure observation): apply the round's drift deltas, charge
        //    every materialised index its maintenance bill, and let
        //    statistics go stale (auto-refreshing past the threshold). The
        //    advisor's observation step must price against the state the
        //    queries actually ran on, so drifting rounds snapshot the
        //    catalog and statistics first — overlay clones over the shared
        //    `Arc`'d base, a few cheap `Vec`s, never the data.
        let boundary = window.round_boundary;
        self.obs.span_enter("round.drift");
        let pre_drift =
            (boundary && self.drift.is_some()).then(|| (self.catalog.clone(), self.stats.clone()));
        let maintenance = if boundary {
            self.apply_drift(round)
        } else {
            SimSeconds::ZERO
        };
        self.sim_now += maintenance;
        self.obs.set_sim_now(self.sim_now);
        self.obs.span_exit("round.drift");

        // 4. Observation: feed actual run-time statistics back, with
        //    execution-time catalog/stats access. Guarded sessions get the
        //    window's arrival counts first, so the ledger closes against
        //    weighted shadow prices.
        if let Some(ledger) = &self.safety {
            ledger.note_window_weights(window.arrivals.iter().map(|&(_, c)| c as f64).collect());
        }
        let (exec_catalog, exec_stats) = match &pre_drift {
            Some((catalog, stats)) => (catalog, stats),
            None => (&self.catalog, &self.stats),
        };
        let mut ctx = RoundContext {
            catalog: exec_catalog,
            stats: exec_stats,
            whatif: &mut self.whatif,
        };
        self.obs.span_enter("round.observe");
        self.advisor.after_round(&mut ctx, &queries, &executions);
        self.obs.span_exit("round.observe");
        self.obs.span_exit("session.step");
        let whatif_after = self.whatif.stats();
        let bandit_after = self.advisor.bandit_counters();

        let record = RoundRecord {
            round: window.window + 1,
            recommendation: advisor_cost.recommendation,
            creation: advisor_cost.creation,
            execution,
            maintenance,
            plan_cache_hits: cache_after.hits - cache_before.hits,
            plan_cache_misses: cache_after.misses - cache_before.misses,
            whatif_hits: whatif_after.hits - whatif_before.hits,
            whatif_misses: whatif_after.misses - whatif_before.misses,
            shift_intensity,
            bandit_refreshes: bandit_after.0 - bandit_before.0,
            bandit_decays: bandit_after.1 - bandit_before.1,
        };
        self.records.push(record);
        if boundary {
            self.next_round = round + 1;
        }
        Ok(record)
    }

    /// Shift intensity of one executed batch (the fraction of its distinct
    /// templates not seen in any earlier batch), updating the seen set.
    fn note_shift_intensity(&mut self, queries: &[Query]) -> f64 {
        let round_templates: HashSet<TemplateId> = queries.iter().map(|q| q.template).collect();
        let new = round_templates
            .iter()
            .filter(|t| !self.seen_templates.contains(*t))
            .count();
        self.seen_templates.extend(&round_templates);
        if round_templates.is_empty() {
            0.0
        } else {
            new as f64 / round_templates.len() as f64
        }
    }

    /// Apply round `round`'s data change (if any): mutate the catalog's
    /// live sizes, price per-index maintenance through the cost model,
    /// track statistics staleness, and report the change to the advisor
    /// (before `after_round`, so maintenance enters this round's rewards).
    /// Returns the total maintenance time charged.
    fn apply_drift(&mut self, round: usize) -> SimSeconds {
        let Some(drift) = &self.drift else {
            return SimSeconds::ZERO;
        };
        let deltas = drift.deltas_for_round(&self.catalog, self.seed, round);
        if deltas.is_empty() {
            return SimSeconds::ZERO;
        }
        let mut change = DataChange::default();
        let mut total = SimSeconds::ZERO;
        for d in &deltas {
            // The catalog caps deletes/updates at the rows that exist;
            // maintenance and staleness are billed on the *applied* delta
            // only — nobody pays for rows that were never touched.
            let applied = self
                .catalog
                .apply_drift(d.table, d.inserted, d.updated, d.deleted);
            if applied.rows_changed() == 0 {
                continue;
            }
            self.stats.note_drift(d.table, applied.rows_changed());
            change.table_changes.push(TableChange {
                table: d.table,
                inserted: applied.inserted,
                updated: applied.updated,
                deleted: applied.deleted,
            });
            for ix in self.catalog.indexes_on(d.table) {
                // Live leaf level: the index's creation-time size plus the
                // growth it absorbed since — what this batch dirties.
                let leaf_pages = self.catalog.index_live_leaf_pages(ix.id());
                let cost = self.cost.index_maintenance(
                    applied.inserted,
                    applied.updated,
                    applied.deleted,
                    leaf_pages,
                );
                change.index_maintenance.push((ix.id(), cost));
                total += cost;
            }
        }
        if change.is_empty() {
            return SimSeconds::ZERO;
        }
        self.stats
            .refresh_stale(&self.catalog, STATS_REFRESH_STALENESS);
        self.advisor.on_data_change(&change);
        total
    }

    /// Run every remaining round and return the complete [`RunResult`]
    /// (the accumulated records move into the result — no clone).
    pub fn run(&mut self) -> DbResult<RunResult> {
        self.run_with(&mut |_| {})
    }

    /// [`run`](Self::run), emitting a [`RoundEvent`] per round.
    ///
    /// Finishing hands the round history over by value: after this returns,
    /// [`records`](Self::records) is empty and the returned [`RunResult`]
    /// owns the rounds. Catalog/stats accessors remain usable.
    pub fn run_with(&mut self, observer: &mut dyn FnMut(&RoundEvent)) -> DbResult<RunResult> {
        while self.step_with(observer)?.is_some() {}
        let rounds = std::mem::take(&mut self.records);
        Ok(self.make_result(rounds))
    }

    /// Finish a step-driven session: consume it and hand the accumulated
    /// records over by value (no clone). The counterpart of
    /// [`run`](Self::run) for callers driving rounds via
    /// [`step`](Self::step). Every round's guardrail accounting closes in
    /// the round's own observation step, so no finalize pass is needed.
    pub fn into_result(mut self) -> RunResult {
        let rounds = std::mem::take(&mut self.records);
        self.make_result(rounds)
    }

    /// Snapshot of the run's accounting so far (clones the records —
    /// mid-run introspection; finished runs should use the value returned
    /// by [`run`](Self::run) or [`into_result`](Self::into_result)).
    pub fn result(&self) -> RunResult {
        self.make_result(self.records.clone())
    }

    fn make_result(&self, rounds: Vec<RoundRecord>) -> RunResult {
        RunResult {
            tuner: self.advisor.name().to_string(),
            benchmark: self.benchmark.name.to_string(),
            workload: self.scenario_label(),
            rounds,
            safety: self.safety.as_ref().map(|ledger| ledger.report()),
        }
    }

    /// Running plan-cache totals (hits/misses/invalidations).
    pub fn plan_cache_stats(&self) -> dba_optimizer::PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Running what-if service totals (hits/misses/invalidations/
    /// recompilations) across everything the session's advisor costed.
    pub fn whatif_stats(&self) -> dba_optimizer::WhatIfStats {
        self.whatif.stats()
    }
}

/// Scale one executed instance to `count` identical arrivals: every
/// simulated-time field and cardinality multiplies, so reward shaping and
/// regret accounting see the window's aggregate workload while the engine
/// executed the instance once. `count == 1` hands the execution back
/// untouched, so a round batch bills exactly what the engine measured.
fn scale_execution(e: QueryExecution, count: u64) -> QueryExecution {
    if count == 1 {
        return e;
    }
    let k = count as f64;
    QueryExecution {
        query: e.query,
        total: e.total * k,
        accesses: e
            .accesses
            .iter()
            .map(|a| dba_engine::AccessStats {
                table: a.table,
                index: a.index,
                time: a.time * k,
                rows_out: a.rows_out * count,
                is_full_scan: a.is_full_scan,
            })
            .collect(),
        join_time: e.join_time * k,
        agg_time: e.agg_time * k,
        result_rows: e.result_rows * count,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::builder::{SessionBuilder, TunerKind};
    use dba_workloads::{ssb::ssb, DataDrift, DriftRates, WorkloadKind};

    /// The scenario matrix the cross-tuner sweeps share: static, shifting
    /// and random workloads of 4 rounds, plus a drifting static one.
    pub(crate) fn scenarios() -> Vec<(WorkloadKind, Option<DataDrift>)> {
        let drift = DataDrift::uniform(DriftRates::new(0.05, 0.02, 0.02));
        vec![
            (WorkloadKind::Static { rounds: 4 }, None),
            (
                WorkloadKind::Shifting {
                    groups: 2,
                    rounds_per_group: 2,
                },
                None,
            ),
            (
                WorkloadKind::Random {
                    rounds: 4,
                    queries_per_round: 5,
                },
                None,
            ),
            (WorkloadKind::Static { rounds: 4 }, Some(drift)),
        ]
    }

    /// The whole substrate crosses threads: shared bases are `Sync`, built
    /// sessions (boxed advisors included) are `Send` — what the parallel
    /// suite runner in `dba-bench` relies on.
    #[test]
    fn substrate_is_send_and_sessions_are_sendable() {
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send_sync::<dba_storage::BaseData>();
        send_sync::<dba_storage::Catalog>();
        send_sync::<dba_optimizer::StatsCatalog>();
        send_sync::<dba_workloads::Benchmark>();
        send::<crate::DynTuningSession>();
        send::<crate::RunResult>();
    }

    /// Static workload, no tuner activity: round 1 plans every template,
    /// every later round is pure cache hits — replans are skipped.
    #[test]
    fn unchanged_rounds_hit_the_plan_cache() {
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 5 })
            .tuner(TunerKind::NoIndex)
            .seed(7)
            .build()
            .unwrap();
        let result = session.run().unwrap();
        let templates = 13; // SSB template count; static rounds run all.
        assert_eq!(result.rounds[0].plan_cache_misses, templates);
        assert_eq!(result.rounds[0].plan_cache_hits, 0);
        for r in &result.rounds[1..] {
            assert_eq!(
                r.plan_cache_hits, templates,
                "round {}: unchanged config must be served from cache",
                r.round
            );
            assert_eq!(r.plan_cache_misses, 0);
        }
        assert_eq!(session.plan_cache_stats().invalidations, 0);
        assert!(result.plan_cache_hit_rate() > 0.7);
    }

    /// Index creates/drops force replans: whenever MAB changes the
    /// configuration, the touched tables' templates miss; once the
    /// configuration stabilises, rounds hit again.
    #[test]
    fn index_changes_invalidate_cached_plans() {
        let mut events = Vec::new();
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 8 })
            .tuner(TunerKind::Mab)
            .seed(7)
            .build()
            .unwrap();
        let result = session
            .run_with(&mut |e| events.push((e.record, e.index_count)))
            .unwrap();
        // MAB materialises something within the run, so at least one round
        // after the first must replan (invalidation), and converged rounds
        // must hit.
        assert!(session.plan_cache_stats().invalidations > 0);
        assert!(result.total_plan_cache_hits() > 0);
        // A round that changed the configuration (index count moved vs the
        // previous round) must carry misses on the affected templates.
        let changed_round = events.windows(2).find(|w| w[1].1 != w[0].1).map(|w| w[1].0);
        if let Some(record) = changed_round {
            assert!(
                record.plan_cache_misses > 0,
                "round {} changed the config but replanned nothing",
                record.round
            );
        }
    }

    /// Applied drift forces replans on templates over drifted tables, and
    /// stats auto-refreshes (version bumps) do the same.
    #[test]
    fn drift_invalidates_cached_plans() {
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 6 })
            .tuner(TunerKind::NoIndex)
            .data_drift(DataDrift::uniform(DriftRates::new(0.05, 0.0, 0.0)))
            .seed(7)
            .build()
            .unwrap();
        let result = session.run().unwrap();
        // Every table drifts every round, so every round replans every
        // template: zero hits, and invalidations counted from round 2 on.
        assert_eq!(result.total_plan_cache_hits(), 0);
        assert!(session.plan_cache_stats().invalidations > 0);
        for r in &result.rounds {
            assert!(r.plan_cache_misses > 0);
        }
    }

    #[test]
    fn step_accounting_sums_to_run_result_totals() {
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 5 })
            .tuner(TunerKind::Mab)
            .seed(7)
            .build()
            .unwrap();

        let (mut rec, mut cre, mut exe) = (0.0, 0.0, 0.0);
        let mut steps = 0;
        while let Some(record) = session.step().unwrap() {
            steps += 1;
            assert_eq!(record.round, steps, "rounds are 1-based and in order");
            rec += record.recommendation.secs();
            cre += record.creation.secs();
            exe += record.execution.secs();
            assert_eq!(session.rounds_done(), steps);
        }
        assert_eq!(steps, 5);
        assert!(session.is_finished());
        // Stepping past the end is a no-op.
        assert!(session.step().unwrap().is_none());

        // Step-driven finish: the records move into the result, no clone.
        let result = session.into_result();
        assert_eq!(result.rounds.len(), 5);
        assert!((result.total_recommendation().secs() - rec).abs() < 1e-9);
        assert!((result.total_creation().secs() - cre).abs() < 1e-9);
        assert!((result.total_execution().secs() - exe).abs() < 1e-9);
        assert!((result.total().secs() - (rec + cre + exe)).abs() < 1e-9);
    }

    #[test]
    fn step_and_run_agree() {
        let build = || {
            SessionBuilder::new()
                .benchmark(ssb(0.02))
                .workload(WorkloadKind::Static { rounds: 4 })
                .tuner(TunerKind::Mab)
                .seed(11)
                .build()
                .unwrap()
        };
        let run_result = build().run().unwrap();
        let mut stepped = build();
        while stepped.step().unwrap().is_some() {}
        let step_result = stepped.into_result();
        assert_eq!(run_result.rounds.len(), step_result.rounds.len());
        for (a, b) in run_result.rounds.iter().zip(&step_result.rounds) {
            assert_eq!(a.execution.secs(), b.execution.secs());
            assert_eq!(a.creation.secs(), b.creation.secs());
            assert_eq!(a.recommendation.secs(), b.recommendation.secs());
        }
    }

    #[test]
    fn run_resumes_after_manual_steps() {
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 4 })
            .tuner(TunerKind::NoIndex)
            .build()
            .unwrap();
        session.step().unwrap();
        session.step().unwrap();
        let result = session.run().unwrap();
        assert_eq!(result.rounds.len(), 4, "run() completes remaining rounds");
    }

    /// A streaming driver over a session that already ran rounds resumes
    /// at the first round not yet run instead of replaying from window 0.
    #[test]
    fn streaming_resumes_after_manual_steps() {
        use crate::stream::{StreamConfig, StreamingSession};
        use dba_workloads::ArrivalProcess;
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 4 })
            .tuner(TunerKind::NoIndex)
            .build()
            .unwrap();
        session.step().unwrap();
        session.step().unwrap();
        let streaming =
            StreamingSession::new(session, StreamConfig::unbounded(ArrivalProcess::RoundBatch));
        assert_eq!(streaming.windows_done(), 2);
        let result = streaming.run().unwrap();
        let rounds: Vec<usize> = result.run.rounds.iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![1, 2, 3, 4], "no round runs twice");
        let windows: Vec<usize> = result.windows.iter().map(|w| w.window).collect();
        assert_eq!(windows, vec![2, 3]);
    }

    #[test]
    fn drifted_rounds_charge_maintenance_to_materialised_indexes() {
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 8 })
            .tuner(TunerKind::Mab)
            .data_drift(DataDrift::uniform(DriftRates::new(0.02, 0.01, 0.01)))
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(session.scenario_label(), "static+drift");

        let mut saw_maintenance = false;
        let result = session
            .run_with(&mut |event| {
                if event.index_count > 0 {
                    assert!(
                        event.record.maintenance.secs() > 0.0,
                        "round {}: materialised config under drift must pay \
                         maintenance",
                        event.round
                    );
                    saw_maintenance = true;
                }
                assert!(event.record.maintenance.secs().is_finite());
            })
            .unwrap();
        assert!(saw_maintenance, "MAB materialises within 8 rounds");
        assert!(result.total_maintenance().secs() > 0.0);
        assert_eq!(result.workload, "static+drift");
        // Data actually grew.
        assert!(session.catalog().has_drift());
    }

    #[test]
    fn read_only_sessions_never_charge_maintenance() {
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 4 })
            .tuner(TunerKind::Mab)
            .seed(7)
            .build()
            .unwrap();
        let result = session.run().unwrap();
        assert_eq!(result.total_maintenance().secs(), 0.0);
        assert_eq!(result.workload, "static");
        assert!(!session.catalog().has_drift());
    }

    #[test]
    fn stats_staleness_surfaces_and_auto_refreshes() {
        // Churn fast enough to cross the refresh threshold mid-session.
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 10 })
            .tuner(TunerKind::NoIndex)
            .data_drift(DataDrift::uniform(DriftRates::new(0.10, 0.0, 0.02)))
            .seed(7)
            .build()
            .unwrap();
        let mut staleness_went_up = false;
        let mut refreshed = false;
        let mut prev = 0.0;
        session
            .run_with(&mut |event| {
                assert!(
                    event.stats_staleness < crate::session::STATS_REFRESH_STALENESS,
                    "staleness must be capped by auto-refresh"
                );
                if event.stats_staleness > prev {
                    staleness_went_up = true;
                }
                if event.stats_staleness < prev {
                    refreshed = true;
                }
                prev = event.stats_staleness;
            })
            .unwrap();
        assert!(staleness_went_up, "drift must accumulate staleness");
        assert!(refreshed, "threshold crossing must trigger a refresh");
    }

    /// Shift intensity lands in the records: everything is new in round 1,
    /// nothing afterwards on a static workload, and every group boundary
    /// of a shifting workload spikes back up.
    #[test]
    fn shift_intensity_is_recorded_per_round() {
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 4 })
            .tuner(TunerKind::NoIndex)
            .seed(7)
            .build()
            .unwrap();
        let result = session.run().unwrap();
        assert_eq!(result.rounds[0].shift_intensity, 1.0);
        for r in &result.rounds[1..] {
            assert_eq!(r.shift_intensity, 0.0, "static repeats are shift-free");
        }

        let mut shifting = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Shifting {
                groups: 3,
                rounds_per_group: 2,
            })
            .tuner(TunerKind::NoIndex)
            .seed(7)
            .build()
            .unwrap();
        let result = shifting.run().unwrap();
        // Group boundaries at rounds 1, 3, 5 (1-based): all-new templates.
        for boundary in [0, 2, 4] {
            assert_eq!(
                result.rounds[boundary].shift_intensity,
                1.0,
                "round {} starts a new group",
                boundary + 1
            );
        }
        for repeat in [1, 3, 5] {
            assert_eq!(result.rounds[repeat].shift_intensity, 0.0);
        }
    }

    /// A safeguarded session: the advisor reports as `<tuner>+guard`, the
    /// run result carries a complete safety trajectory, and the per-round
    /// events expose guardrail snapshots.
    #[test]
    fn safeguarded_session_reports_safety_trajectory() {
        use dba_safety::SafetyConfig;
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 6 })
            .tuner(TunerKind::Mab)
            .safeguard(SafetyConfig::default())
            .seed(7)
            .build()
            .unwrap();
        let mut snapshots = 0;
        let result = session
            .run_with(&mut |event| {
                let snap = event.safety.expect("guarded events carry snapshots");
                assert!(snap.cum_regret_s.is_finite());
                snapshots += 1;
            })
            .unwrap();
        assert_eq!(snapshots, 6);
        assert_eq!(result.tuner, "MAB+guard");
        let safety = result.safety.expect("guarded runs report safety");
        assert_eq!(safety.rounds.len(), 6, "finalize closes the last round");
        for (i, r) in safety.rounds.iter().enumerate() {
            assert_eq!(r.round, i + 1);
            assert!(r.shadow_noindex_s > 0.0, "every round has a shadow price");
            assert!(r.actual_s.is_finite() && r.regret_s.is_finite());
        }
        // MAB on a healthy static workload must not trip the guardrail.
        assert_eq!(safety.throttled_rounds, 0);
        assert_eq!(safety.rollbacks, 0);

        // Unguarded sessions report nothing.
        let mut plain = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 2 })
            .tuner(TunerKind::Mab)
            .seed(7)
            .build()
            .unwrap();
        let plain_result = plain.run().unwrap();
        assert!(plain_result.safety.is_none());
        assert_eq!(plain_result.tuner, "MAB");
    }

    /// The guarded/unguarded sweep: every workload kind × drift × tuner
    /// combination completes without panicking, with finite records, and
    /// guarded runs always produce a complete, finite safety report.
    #[test]
    fn guarded_sweep_across_scenarios_is_panic_free_and_finite() {
        use dba_safety::SafetyConfig;
        let bench = ssb(0.02);
        for (workload, drift) in &scenarios() {
            for guarded in [false, true] {
                for tuner in [TunerKind::Mab, TunerKind::Ddqn { seed: 3 }] {
                    let mut builder = SessionBuilder::new()
                        .benchmark(bench.clone())
                        .workload(*workload)
                        .tuner(tuner)
                        .seed(7);
                    if let Some(drift) = drift {
                        builder = builder.data_drift(drift.clone());
                    }
                    if guarded {
                        builder = builder.safeguard(SafetyConfig::default());
                    }
                    let mut session = builder.build().unwrap();
                    let label =
                        format!("{}/{:?}/guarded={guarded}", session.scenario_label(), tuner);
                    let result = session.run().unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(result.rounds.len(), workload.rounds(), "{label}");
                    for r in &result.rounds {
                        for v in [
                            r.recommendation.secs(),
                            r.creation.secs(),
                            r.execution.secs(),
                            r.maintenance.secs(),
                            r.shift_intensity,
                        ] {
                            assert!(v.is_finite(), "{label}: non-finite record");
                        }
                    }
                    match result.safety {
                        Some(safety) if guarded => {
                            assert_eq!(safety.rounds.len(), workload.rounds(), "{label}");
                            for s in &safety.rounds {
                                for v in [
                                    s.shadow_noindex_s,
                                    s.shadow_prev_s,
                                    s.actual_s,
                                    s.regret_s,
                                    s.cum_regret_s,
                                ] {
                                    assert!(v.is_finite(), "{label}: non-finite safety");
                                }
                            }
                        }
                        None if !guarded => {}
                        other => panic!("{label}: unexpected safety report {other:?}"),
                    }
                }
            }
        }
    }

    /// The shared what-if service: a guarded session's shadow pricing
    /// costs every round's workload hypothetically, and repeat rounds of
    /// an unchanged workload are served from the memo — counted in the
    /// round records. Tuners that never cost hypothetically leave the
    /// counters at zero.
    #[test]
    fn guarded_sessions_hit_the_whatif_memo() {
        use dba_safety::SafetyConfig;
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 6 })
            .tuner(TunerKind::Mab)
            .safeguard(SafetyConfig::default())
            .seed(7)
            .build()
            .unwrap();
        let result = session.run().unwrap();
        assert!(
            result.total_whatif_misses() > 0,
            "shadow pricing costs hypothetically every round"
        );
        assert!(
            result.total_whatif_hits() > 0,
            "repeat rounds must be served from the what-if memo"
        );
        assert!(result.whatif_hit_rate() > 0.0);
        let svc = session.whatif_stats();
        assert_eq!(
            svc.hits,
            result.total_whatif_hits(),
            "record deltas must sum to the service totals"
        );

        // A NoIndex session never costs hypothetically.
        let mut plain = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 3 })
            .tuner(TunerKind::NoIndex)
            .seed(7)
            .build()
            .unwrap();
        let plain_result = plain.run().unwrap();
        assert_eq!(plain_result.total_whatif_hits(), 0);
        assert_eq!(plain_result.total_whatif_misses(), 0);
    }

    #[test]
    fn events_report_materialised_state() {
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .workload(WorkloadKind::Static { rounds: 5 })
            .tuner(TunerKind::Mab)
            .seed(7)
            .build()
            .unwrap();
        let mut last_bytes = 0;
        let mut saw_indexes = false;
        session
            .run_with(&mut |event| {
                if event.index_count > 0 {
                    saw_indexes = true;
                    assert!(event.index_bytes > 0);
                }
                last_bytes = event.index_bytes;
            })
            .unwrap();
        assert!(saw_indexes, "MAB should materialise something in 5 rounds");
        assert_eq!(last_bytes, session.catalog().live_index_bytes());
        assert!(last_bytes <= session.memory_budget_bytes());
    }
}
