//! Version-validated plan reuse: the one memo behind both the session's
//! template-level plan cache and the what-if service.
//!
//! The dominant cost of self-driving tuning is optimizer-call volume (the
//! VLDBJ successor and the ML-powered-tuning overview both measure what-if
//! and replanning calls as the bottleneck), yet most rounds change nothing
//! the planner would react to: same query templates, same index
//! configuration, same statistics. This cache skips exactly those replans
//! — the parameterised-plan reuse of commercial systems (plans are shared
//! across instances of one template until something they depend on moves).
//! The key is generic: the session keys on the [`TemplateId`] alone, and
//! the [`WhatIfService`](crate::WhatIfService) on the template plus the
//! hypothetical configuration the plan was costed under.
//!
//! A cached plan records, for every table its query touches, the catalog's
//! physical version ([`Catalog::table_version`]: moves on index
//! create/drop and on applied drift) and the statistics version
//! ([`StatsCatalog::table_version`]: moves on refresh) at planning time.
//! A lookup whose versions all still match is a **hit** and returns the
//! plan without consulting the planner; any moved version invalidates only
//! the plans that depend on that table — an index built on `lineitem`
//! does not evict a `customer`-only plan.
//!
//! Reusing a template's plan across rounds means later instances run the
//! plan chosen for the sniffed first-instance parameters — exactly the
//! parameter-sniffing behaviour of real plan caches, and deterministic:
//! the cache is per-session state, so parallel and sequential suite runs
//! see identical hit sequences.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use dba_common::{SimSeconds, TableId, TemplateId};
use dba_engine::{Plan, Query};
use dba_storage::Catalog;

use crate::planner::Planner;
use crate::stats::StatsCatalog;

/// A version-valid cached plan is still **recompiled** when its estimated
/// cost under the current parameter bindings exceeds this multiple of its
/// plan-time estimate. This is the parameter-sensitivity guard of
/// commercial plan caches (automatic plan correction): reuse is free until
/// the sniffed plan looks regressive for today's parameters, at which
/// point one cheap fixed-plan costing triggers a real replan.
pub const RECOMPILE_COST_FACTOR: f64 = 2.0;

/// Cached plans are swept once the cache grows past this many entries: any
/// entry whose versions no longer validate is dropped. Live entries are
/// never evicted — the working set of keys any real session produces is
/// far below this (a template-keyed cache holds one entry per template, so
/// it never sweeps). After a sweep the next one is deferred until the
/// cache doubles again, so a pathological all-live cache costs an
/// amortised O(1) per lookup rather than a full re-validation scan on
/// every call.
const MAX_CACHED_PLANS: usize = 8192;

/// What a cached plan depended on for one table, at planning time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableDep {
    table: TableId,
    catalog_version: u64,
    stats_version: u64,
}

impl TableDep {
    fn is_valid(&self, catalog: &Catalog, stats: &StatsCatalog) -> bool {
        catalog.table_version(self.table) == self.catalog_version
            && stats.table_version(self.table) == self.stats_version
    }
}

#[derive(Debug, Clone)]
struct CachedPlan {
    plan: Plan,
    deps: Vec<TableDep>,
}

impl CachedPlan {
    fn fresh(
        catalog: &Catalog,
        stats: &StatsCatalog,
        planner: &Planner<'_>,
        query: &Query,
    ) -> CachedPlan {
        let deps = query
            .tables
            .iter()
            .map(|&table| TableDep {
                table,
                catalog_version: catalog.table_version(table),
                stats_version: stats.table_version(table),
            })
            .collect();
        CachedPlan {
            plan: planner.plan(query),
            deps,
        }
    }

    fn is_valid(&self, catalog: &Catalog, stats: &StatsCatalog) -> bool {
        self.deps.iter().all(|d| d.is_valid(catalog, stats))
    }
}

/// Running totals of cache behaviour, cheap to copy into round records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache (replans skipped).
    pub hits: u64,
    /// Lookups that had to plan (cold, invalidated, or recompiled).
    pub misses: u64,
    /// Misses caused by a version moving under a cached plan.
    pub invalidations: u64,
    /// Misses caused by the parameter-sensitivity guard: the cached plan's
    /// recost under current parameters exceeded
    /// [`RECOMPILE_COST_FACTOR`] × its plan-time estimate.
    pub recompilations: u64,
}

impl PlanCacheStats {
    /// Hits over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// The `dba-obs` counter names one cache emits, one per
/// [`PlanCacheStats`] field.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CounterNames {
    pub(crate) hit: &'static str,
    pub(crate) miss: &'static str,
    pub(crate) invalidation: &'static str,
    pub(crate) recompilation: &'static str,
}

/// The session plan cache's `plan_cache.*` counters.
const PLAN_CACHE_COUNTERS: CounterNames = CounterNames {
    hit: "plan_cache.hit",
    miss: "plan_cache.miss",
    invalidation: "plan_cache.invalidation",
    recompilation: "plan_cache.recompilation",
};

/// Version-validated plan cache keyed by `K` (the query template by
/// default).
#[derive(Debug, Clone)]
pub struct PlanCache<K = TemplateId> {
    plans: HashMap<K, CachedPlan>,
    /// Cache size that triggers the next stale-entry sweep (starts at
    /// [`MAX_CACHED_PLANS`], re-armed past the post-sweep live count so an
    /// all-live cache is not rescanned on every lookup).
    sweep_watermark: usize,
    stats: PlanCacheStats,
    counters: CounterNames,
    /// Observability handle (`dba-obs`): every [`PlanCacheStats`]
    /// increment is mirrored as the matching [`CounterNames`] counter.
    /// Advisory only — never consulted for any caching decision.
    obs: dba_obs::Obs,
}

impl PlanCache {
    /// The session's template-keyed cache, counting as `plan_cache.*`.
    pub fn new() -> Self {
        PlanCache::with_counters(PLAN_CACHE_COUNTERS)
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl<K: Eq + Hash> PlanCache<K> {
    /// An empty cache whose `dba-obs` counters are named `counters`.
    pub(crate) fn with_counters(counters: CounterNames) -> Self {
        PlanCache {
            plans: HashMap::new(),
            sweep_watermark: MAX_CACHED_PLANS,
            stats: PlanCacheStats::default(),
            counters,
            obs: dba_obs::Obs::noop(),
        }
    }

    /// Attach the session's observability handle. Counters emitted from
    /// here on mirror [`PlanCacheStats`] increments one-for-one.
    pub fn set_obs(&mut self, obs: &dba_obs::Obs) {
        self.obs = obs.clone();
    }

    /// The plan cached under `key` for `query`, with its estimated cost
    /// under `query`'s bindings. A cached plan is reused — a **hit** that
    /// skips the planner's candidate search and returns the plan's recost
    /// — iff
    ///
    /// 1. every table the query touches is still at the catalog and
    ///    statistics versions the plan was produced under (index
    ///    create/drop, applied drift and stats refreshes all move them);
    /// 2. costing the fixed plan under the *current* parameter bindings
    ///    stays within [`RECOMPILE_COST_FACTOR`] of its plan-time estimate
    ///    (the parameter-sensitivity guard).
    ///
    /// Anything else plans fresh through `planner`, re-caches, and returns
    /// the new plan's estimate. `key` must determine everything `planner`
    /// exposes beyond the versioned catalog and statistics.
    pub fn get_or_plan(
        &mut self,
        key: K,
        catalog: &Catalog,
        stats: &StatsCatalog,
        planner: &Planner<'_>,
        query: &Query,
    ) -> (&Plan, SimSeconds) {
        if self.plans.len() > self.sweep_watermark {
            self.plans.retain(|_, c| c.is_valid(catalog, stats));
            self.sweep_watermark = (self.plans.len() * 2).max(MAX_CACHED_PLANS);
        }
        let names = self.counters;
        let cached = match self.plans.entry(key) {
            Entry::Occupied(mut e) => {
                if !e.get().is_valid(catalog, stats) {
                    self.stats.misses += 1;
                    self.stats.invalidations += 1;
                    self.obs.counter(names.miss, 1);
                    self.obs.counter(names.invalidation, 1);
                } else if let Some(recost) = Self::recost(planner, query, &e.get().plan) {
                    self.stats.hits += 1;
                    self.obs.counter(names.hit, 1);
                    return (&e.into_mut().plan, recost);
                } else {
                    self.stats.misses += 1;
                    self.stats.recompilations += 1;
                    self.obs.counter(names.miss, 1);
                    self.obs.counter(names.recompilation, 1);
                }
                e.insert(CachedPlan::fresh(catalog, stats, planner, query));
                e.into_mut()
            }
            Entry::Vacant(v) => {
                self.stats.misses += 1;
                self.obs.counter(names.miss, 1);
                v.insert(CachedPlan::fresh(catalog, stats, planner, query))
            }
        };
        (&cached.plan, cached.plan.est_cost)
    }

    /// Parameter-sensitivity guard: the cached plan's cost under this
    /// instance's bindings, if it still looks sane. One fixed-plan
    /// costing, no search. `None` also when the plan references an index
    /// the context no longer exposes — versioning should catch that, but
    /// such a plan is never reused.
    fn recost(planner: &Planner<'_>, query: &Query, plan: &Plan) -> Option<SimSeconds> {
        planner
            .cost_plan(query, plan)
            .filter(|recost| recost.secs() <= plan.est_cost.secs() * RECOMPILE_COST_FACTOR)
    }

    /// Running hit/miss/invalidation totals.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_common::{ColumnId, QueryId};
    use dba_engine::{CostModel, Predicate};
    use dba_storage::{ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema};

    use crate::planner::{Planner, PlannerContext};

    fn catalog() -> Catalog {
        let hot = TableSchema::new(
            "hot",
            vec![
                ColumnSpec::new("a", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "b",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 599_999 },
                ),
            ],
        );
        let cold = TableSchema::new(
            "cold",
            vec![ColumnSpec::new(
                "x",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99 },
            )],
        );
        Catalog::new(vec![
            TableBuilder::new(hot, 60_000).build(TableId(0), 7),
            TableBuilder::new(cold, 500).build(TableId(1), 7),
        ])
    }

    fn query(template: u32, table: u32) -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(template),
            tables: vec![TableId(table)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(table), 0), 5)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(table), 0)],
            aggregated: false,
        }
    }

    /// Plan through a fresh planner context, tracking planner invocations
    /// via the cache's miss counter.
    fn plan_with(
        cache: &mut PlanCache,
        cat: &Catalog,
        stats: &StatsCatalog,
        q: &Query,
        planned: &mut usize,
    ) -> Plan {
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(cat, stats, &cost);
        let planner = Planner::new(&ctx);
        let misses_before = cache.stats().misses;
        let plan = cache
            .get_or_plan(q.template, cat, stats, &planner, q)
            .0
            .clone();
        *planned += (cache.stats().misses - misses_before) as usize;
        plan
    }

    #[test]
    fn repeat_lookups_hit_without_replanning() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut cache = PlanCache::new();
        let mut planned = 0;

        let q = query(1, 0);
        plan_with(&mut cache, &cat, &stats, &q, &mut planned);
        plan_with(&mut cache, &cat, &stats, &q, &mut planned);
        plan_with(&mut cache, &cat, &stats, &q, &mut planned);

        assert_eq!(planned, 1, "one plan serves every unchanged round");
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().invalidations, 0);
        assert!((cache.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn index_create_and_drop_force_replans() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut cache = PlanCache::new();
        let mut planned = 0;

        let q = query(1, 0);
        plan_with(&mut cache, &cat, &stats, &q, &mut planned);
        let meta = cat
            .create_index(IndexDef::new(TableId(0), vec![0], vec![]))
            .unwrap();
        // The new index must be visible: cached pre-index plan is invalid.
        let plan = plan_with(&mut cache, &cat, &stats, &q, &mut planned);
        assert_eq!(planned, 2, "create invalidates");
        assert_eq!(plan.driver.method.index_id(), Some(meta.id));

        cat.drop_index(meta.id).unwrap();
        let plan = plan_with(&mut cache, &cat, &stats, &q, &mut planned);
        assert_eq!(planned, 3, "drop invalidates");
        assert_eq!(plan.driver.method.index_id(), None);
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn invalidation_is_per_table() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut cache = PlanCache::new();
        let mut planned = 0;

        let hot_q = query(1, 0);
        let cold_q = query(2, 1);
        plan_with(&mut cache, &cat, &stats, &hot_q, &mut planned);
        plan_with(&mut cache, &cat, &stats, &cold_q, &mut planned);
        assert_eq!(planned, 2);

        // Churn only the hot table.
        cat.apply_drift(TableId(0), 100, 0, 0);
        plan_with(&mut cache, &cat, &stats, &hot_q, &mut planned);
        plan_with(&mut cache, &cat, &stats, &cold_q, &mut planned);
        assert_eq!(planned, 3, "only the drifted table's plan replans");
        assert_eq!(cache.stats().hits, 1);
    }

    /// The parameter-sensitivity guard: same template, same versions, but
    /// bindings whose selectivity explodes the cached plan's cost must
    /// recompile rather than reuse the sniffed plan.
    #[test]
    fn regressive_parameters_recompile_instead_of_reusing() {
        let mut cat = catalog();
        cat.create_index(IndexDef::new(TableId(0), vec![1], vec![]))
            .unwrap();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        let planner = Planner::new(&ctx);
        let mut cache = PlanCache::new();

        // Sniff a highly selective instance: ~1 of 60k rows → a seek.
        let selective = Query {
            predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 1), 5)],
            ..query(1, 0)
        };
        let plan = cache
            .get_or_plan(selective.template, &cat, &stats, &planner, &selective)
            .0
            .clone();
        assert!(plan.driver.method.index_id().is_some(), "seek plan sniffed");

        // Same template, catastrophic bindings: the whole domain. Reusing
        // the seek would heap-fetch every row; the guard must replan.
        let unselective = Query {
            predicates: vec![Predicate::range(ColumnId::new(TableId(0), 1), 0, 599_999)],
            ..query(1, 0)
        };
        let plan = cache
            .get_or_plan(unselective.template, &cat, &stats, &planner, &unselective)
            .0
            .clone();
        assert_eq!(plan.driver.method.index_id(), None, "recompiled to scan");
        assert_eq!(cache.stats().recompilations, 1);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn stats_refresh_forces_replan() {
        let mut cat = catalog();
        let mut stats = StatsCatalog::build(&cat);
        let mut cache = PlanCache::new();
        let mut planned = 0;

        let q = query(1, 0);
        plan_with(&mut cache, &cat, &stats, &q, &mut planned);
        cat.apply_drift(TableId(0), 1000, 0, 0);
        stats.note_drift(TableId(0), 1000);
        stats.refresh_stale(&cat, 0.2);
        plan_with(&mut cache, &cat, &stats, &q, &mut planned);
        assert_eq!(planned, 2, "refreshed statistics force a replan");
    }

    /// Past the sweep watermark, a lookup first drops every entry whose
    /// versions no longer validate; live entries survive and the watermark
    /// re-arms.
    #[test]
    fn stale_entries_are_swept_past_the_watermark() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut cache = PlanCache::new();
        let mut planned = 0;
        for t in 0..40 {
            plan_with(&mut cache, &cat, &stats, &query(t, 0), &mut planned);
        }
        let live = query(1_000, 1);
        plan_with(&mut cache, &cat, &stats, &live, &mut planned);
        assert_eq!(cache.plans.len(), 41);

        // Stale every hot-table plan, then lower the watermark so the
        // next lookup sweeps.
        cat.apply_drift(TableId(0), 10, 0, 0);
        cache.sweep_watermark = 4;
        plan_with(&mut cache, &cat, &stats, &live, &mut planned);
        assert_eq!(
            cache.plans.len(),
            1,
            "only the still-valid cold plan survives"
        );
        assert_eq!(
            cache.stats().hits,
            1,
            "the live plan is served after the sweep"
        );
        assert_eq!(cache.sweep_watermark, MAX_CACHED_PLANS);

        // A swept plan is gone, not merely stale: looking it up is a cold
        // miss, not an invalidation.
        plan_with(&mut cache, &cat, &stats, &query(0, 0), &mut planned);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(planned, 42);
    }
}
