//! The what-if **service**: cost queries under hypothetical index
//! configurations without materialising anything, through a long-lived,
//! version-validated memo of hypothetical plans. It has two entry points:
//! [`cost_query`](WhatIfService::cost_query) prices one query, and
//! [`cost_workload`](WhatIfService::cost_workload) prices a weighted
//! workload under one configuration.
//!
//! This is the AutoAdmin-style API (\[19\] in the paper) that commercial
//! advisors are built on, and through which every optimiser misestimate
//! flows into the advisor's decisions. Replanning every (query,
//! configuration) pair from scratch would be quadratic pain for anything
//! that prices many overlapping configurations every round (a guardrail's
//! leave-one-out rollback assessment is O(used-indexes × queries) fresh
//! plans). This service is the shared subsystem behind all of them. Its
//! memo is a [`PlanCache`] — the same version validation, recost guard and
//! sweep the session's plan cache runs — keyed on
//!
//! * the query **template** (parameterised-plan reuse, with the same
//!   recost guard against parameter-sensitivity regressions);
//! * the **hypothetical-configuration fingerprint** — the interned ids of
//!   the candidate definitions *on the query's tables* (candidates on
//!   other tables cannot change the plan, so two configurations differing
//!   only elsewhere share one cached plan — this is what makes pricing
//!   many configurations one `cost_workload` call at a time cheap: a
//!   leave-one-out or candidate-alone configuration replans only the
//!   queries that touch the varied index's table).
//!
//! The cache validates each plan against the per-table **catalog version**
//! (moves on index create/drop and applied drift) and **statistics
//! version** (moves on refresh).
//!
//! Candidate definitions are interned once and given stable synthetic ids
//! in a reserved range ([`HYPOTHETICAL_BASE`] and up) so they can never
//! collide with (or be executed against) real materialised indexes, and so
//! a cached plan is meaningful under every
//! configuration that contains the same definitions — regardless of the
//! order or position a caller lists them in. Candidates are priced at
//! their **live** (drift-grown) sizes.

use std::collections::HashMap;

use dba_common::{IndexId, SimSeconds, TemplateId};
use dba_engine::{CostModel, Query};
use dba_storage::{Catalog, IndexDef};

use crate::plan_cache::{CounterNames, PlanCache, PlanCacheStats};
use crate::planner::{IndexCandidate, Planner, PlannerContext};
use crate::stats::StatsCatalog;

/// First id used for hypothetical indexes.
pub const HYPOTHETICAL_BASE: u64 = 1 << 48;

/// The what-if memo's `whatif.*` counters.
const WHATIF_COUNTERS: CounterNames = CounterNames {
    hit: "whatif.hit",
    miss: "whatif.miss",
    invalidation: "whatif.invalidation",
    recompilation: "whatif.recompilation",
};

/// Result of costing one query under a hypothetical configuration.
#[derive(Debug, Clone)]
pub struct WhatIfOutcome {
    /// Optimiser-estimated execution cost of the best plan found.
    pub est_cost: SimSeconds,
    /// Positions (into the hypothetical set) of indexes the plan used.
    pub used_hypothetical: Vec<usize>,
}

/// The what-if memo's running totals: the plan cache's stats.
pub type WhatIfStats = PlanCacheStats;

/// Total estimated cost, per-query costs and per-candidate usage counts
/// of one priced configuration (what
/// [`cost_workload`](WhatIfService::cost_workload) returns).
#[derive(Debug, Clone)]
pub struct ConfigCost {
    /// Optimiser-estimated execution cost of the workload under this
    /// configuration, each query billed `weight ×` its price.
    pub total: SimSeconds,
    /// Each query's *unweighted* estimated cost, in workload order.
    pub per_query: Vec<f64>,
    /// How many queries used each candidate (parallel to the
    /// configuration's definition slice).
    pub usage: Vec<u32>,
}

/// The long-lived what-if subsystem. One per tuning session, shared by
/// everything that costs hypothetical configurations — the guardrail's
/// shadow baselines and rollback assessment, PDTool's candidate scoring,
/// and one-shot probes in tests and examples.
#[derive(Debug, Clone)]
pub struct WhatIfService {
    cost: CostModel,
    /// Interned candidate definitions, numbered in first-seen order;
    /// synthetic planner ids are `HYPOTHETICAL_BASE + id`.
    interned: HashMap<IndexDef, u32>,
    /// Memo key: template × configuration fingerprint, the sorted interned
    /// ids of the candidates on the query's tables (exact, not a hash — no
    /// collision risk).
    plans: PlanCache<(TemplateId, Vec<u32>)>,
}

impl WhatIfService {
    pub fn new(cost: CostModel) -> Self {
        WhatIfService {
            cost,
            interned: HashMap::new(),
            plans: PlanCache::with_counters(WHATIF_COUNTERS),
        }
    }

    /// Attach the session's observability handle. Counters emitted from
    /// here on mirror [`WhatIfStats`] increments one-for-one.
    pub fn set_obs(&mut self, obs: &dba_obs::Obs) {
        self.plans.set_obs(obs);
    }

    /// The cost model every costing runs through.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Running hit/miss/invalidation totals.
    pub fn stats(&self) -> WhatIfStats {
        self.plans.stats()
    }

    /// Intern `def`, returning its stable id.
    fn intern(&mut self, def: &IndexDef) -> u32 {
        if let Some(&id) = self.interned.get(def) {
            return id;
        }
        let id = self.interned.len() as u32;
        self.interned.insert(def.clone(), id);
        id
    }

    /// Synthetic planner id of interned definition `id`.
    #[inline]
    fn planner_id(id: u32) -> IndexId {
        IndexId(HYPOTHETICAL_BASE + id as u64)
    }

    /// Interned id of a plan-used index, if it is one of ours.
    #[inline]
    fn interned_id(id: IndexId) -> Option<u32> {
        (id.raw() >= HYPOTHETICAL_BASE).then(|| (id.raw() - HYPOTHETICAL_BASE) as u32)
    }

    /// Cost one query under `hypothetical` definitions (at their live
    /// sizes). Served from the memo when the template was already planned
    /// under the same candidate set on the query's tables and nothing
    /// those tables depend on has moved; the cached plan is still recosted
    /// under this instance's bindings (the parameter-sensitivity guard),
    /// so a hit prices the instance, not the sniffed original.
    pub fn cost_query(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        query: &Query,
        hypothetical: &[IndexDef],
    ) -> WhatIfOutcome {
        // Interned ids of the caller's candidate set (first occurrence
        // wins for duplicated definitions).
        let hypo_ids: Vec<u32> = hypothetical.iter().map(|d| self.intern(d)).collect();
        let mut candidates: Vec<IndexCandidate> = Vec::new();
        for (def, &id) in hypothetical.iter().zip(&hypo_ids) {
            let id = Self::planner_id(id);
            if query.tables.contains(&def.table) && candidates.iter().all(|c| c.id != id) {
                candidates.push(IndexCandidate {
                    id,
                    def: def.clone(),
                    size_bytes: catalog.estimated_live_bytes(def),
                });
            }
        }
        candidates.sort_unstable_by_key(|c| c.id);
        let config = candidates
            .iter()
            .filter_map(|c| Self::interned_id(c.id))
            .collect();
        let ctx = PlannerContext {
            catalog,
            stats,
            cost: &self.cost,
            indexes: candidates,
        };
        let planner = Planner::new(&ctx);
        let (plan, est_cost) =
            self.plans
                .get_or_plan((query.template, config), catalog, stats, &planner, query);

        // Map plan-used interned ids back to positions in the caller's
        // hypothetical slice.
        let used_hypothetical = plan
            .indexes_used()
            .into_iter()
            .filter_map(Self::interned_id)
            .filter_map(|id| hypo_ids.iter().position(|&h| h == id))
            .collect();
        WhatIfOutcome {
            est_cost,
            used_hypothetical,
        }
    }

    /// Cost a workload under one hypothetical configuration, each query
    /// billed `weight ×` its price: streaming windows execute one bound
    /// instance per distinct template and scale by that template's arrival
    /// count, so shadow prices must scale the same way (round batches pass
    /// unit weights; `x × 1.0` is an IEEE identity, so a unit-weighted
    /// total is the plain sum). The result carries the weighted total, the
    /// *unweighted* per-query costs (which callers memoize as per-template
    /// prices to amortise pricing across windows) and per-candidate usage
    /// counts.
    ///
    /// Several configurations are priced one call each; the memo's keys
    /// share every plan a configuration change does not touch.
    pub fn cost_workload(
        &mut self,
        catalog: &Catalog,
        stats: &StatsCatalog,
        queries: &[Query],
        weights: &[f64],
        hypothetical: &[IndexDef],
    ) -> ConfigCost {
        debug_assert_eq!(queries.len(), weights.len());
        let mut total = SimSeconds::ZERO;
        let mut per_query = Vec::with_capacity(queries.len());
        let mut usage = vec![0u32; hypothetical.len()];
        for (q, &w) in queries.iter().zip(weights) {
            let outcome = self.cost_query(catalog, stats, q, hypothetical);
            per_query.push(outcome.est_cost.secs());
            total += outcome.est_cost * w;
            for i in outcome.used_hypothetical {
                usage[i] += 1;
            }
        }
        ConfigCost {
            total,
            per_query,
            usage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_common::{ColumnId, QueryId, TableId};
    use dba_engine::Predicate;
    use dba_storage::{ColumnSpec, ColumnType, Distribution, TableBuilder, TableSchema};

    fn catalog() -> Catalog {
        let hot = TableSchema::new(
            "hot",
            vec![
                ColumnSpec::new("a", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "b",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 99_999 },
                ),
                ColumnSpec::new("c", ColumnType::Int, Distribution::Uniform { lo: 0, hi: 9 }),
            ],
        );
        let cold = TableSchema::new(
            "cold",
            vec![ColumnSpec::new(
                "x",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 999 },
            )],
        );
        Catalog::new(vec![
            TableBuilder::new(hot, 100_000).build(TableId(0), 23),
            TableBuilder::new(cold, 5_000).build(TableId(1), 23),
        ])
    }

    fn hot_query(template: u32, value: i64) -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(template),
            tables: vec![TableId(0)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 1), value)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(0), 0)],
            aggregated: false,
        }
    }

    fn cold_query(template: u32) -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(template),
            tables: vec![TableId(1)],
            predicates: vec![Predicate::eq(ColumnId::new(TableId(1), 0), 5)],
            joins: vec![],
            payload: vec![ColumnId::new(TableId(1), 0)],
            aggregated: false,
        }
    }

    fn service() -> WhatIfService {
        WhatIfService::new(CostModel::unit_scale())
    }

    #[test]
    fn hypothetical_index_reduces_estimated_cost() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let q = hot_query(1, 77);
        let without = svc.cost_query(&cat, &stats, &q, &[]);
        let with = svc.cost_query(
            &cat,
            &stats,
            &q,
            &[IndexDef::new(TableId(0), vec![1], vec![0])],
        );
        assert!(with.est_cost.secs() < without.est_cost.secs());
        assert_eq!(with.used_hypothetical, vec![0]);
        assert!(without.used_hypothetical.is_empty());
        // An unselective candidate the plan ignores changes nothing.
        let with_junk = svc
            .cost_query(
                &cat,
                &stats,
                &q,
                &[IndexDef::new(TableId(0), vec![2], vec![])],
            )
            .est_cost;
        assert!((without.est_cost.secs() - with_junk.secs()).abs() < 1e-12);
    }

    #[test]
    fn workload_costing_counts_usage() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let defs = [
            IndexDef::new(TableId(0), vec![1], vec![0]),
            IndexDef::new(TableId(0), vec![2], vec![]),
        ];
        let queries = vec![hot_query(1, 77); 3];
        let cost = service().cost_workload(&cat, &stats, &queries, &[1.0; 3], &defs);
        assert!(cost.total.secs() > 0.0);
        assert_eq!(cost.usage[0], 3, "selective index used by every query");
        assert_eq!(cost.usage[1], 0, "unselective index never used");
    }

    /// Repeated costings of an unchanged (template, config) pair hit the
    /// memo; the hit's recost equals the miss's fresh estimate bit for
    /// bit.
    #[test]
    fn repeat_costings_hit_without_replanning() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let defs = vec![IndexDef::new(TableId(0), vec![1], vec![0])];
        let q = hot_query(1, 77);

        let first = svc.cost_query(&cat, &stats, &q, &defs);
        let again = svc.cost_query(&cat, &stats, &q, &defs);
        assert_eq!(svc.stats().hits, 1);
        assert_eq!(svc.stats().misses, 1);
        assert_eq!(
            first.est_cost.secs().to_bits(),
            again.est_cost.secs().to_bits()
        );
        assert_eq!(first.used_hypothetical, again.used_hypothetical);
    }

    /// Index create/drop on a query's table moves its catalog version and
    /// invalidates cached what-if plans under unchanged keys.
    #[test]
    fn index_create_and_drop_invalidate() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let q = hot_query(1, 77);

        // Empty-config entry: creates and drops move the table version
        // under an unchanged key, forcing a revalidating replan.
        let baseline = svc.cost_query(&cat, &stats, &q, &[]).est_cost;
        let meta = cat
            .create_index(IndexDef::new(TableId(0), vec![1], vec![0]))
            .unwrap();
        let after_create = svc.cost_query(&cat, &stats, &q, &[]).est_cost;
        assert_eq!(svc.stats().invalidations, 1, "create invalidates");
        assert!(
            (after_create.secs() - baseline.secs()).abs() < 1e-9,
            "no candidates exposed — cost unchanged, but revalidated"
        );
        cat.drop_index(meta.id).unwrap();
        svc.cost_query(&cat, &stats, &q, &[]);
        assert_eq!(svc.stats().invalidations, 2, "drop invalidates");
    }

    /// Applied drift invalidates only the plans over the drifted table.
    #[test]
    fn drift_invalidates_per_table() {
        let mut cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let hot = hot_query(1, 77);
        let cold = cold_query(2);

        svc.cost_query(&cat, &stats, &hot, &[]);
        svc.cost_query(&cat, &stats, &cold, &[]);
        cat.apply_drift(TableId(0), 1_000, 0, 0);
        svc.cost_query(&cat, &stats, &hot, &[]);
        svc.cost_query(&cat, &stats, &cold, &[]);
        assert_eq!(svc.stats().invalidations, 1, "only the hot plan replans");
        assert_eq!(svc.stats().hits, 1, "the cold plan survives");
    }

    /// A statistics refresh moves the stats version and forces a replan.
    #[test]
    fn stats_refresh_invalidates() {
        let mut cat = catalog();
        let mut stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let q = hot_query(1, 77);

        svc.cost_query(&cat, &stats, &q, &[]);
        cat.apply_drift(TableId(0), 30_000, 0, 0);
        stats.note_drift(TableId(0), 30_000);
        stats.refresh_stale(&cat, 0.2);
        svc.cost_query(&cat, &stats, &q, &[]);
        // Drift + refresh both moved versions; one lookup, one invalidation.
        assert_eq!(svc.stats().invalidations, 1);
        assert_eq!(svc.stats().hits, 0);
    }

    /// The defining what-if property survives the cached path: a
    /// hypothetical index is costed exactly like the real thing by the
    /// planner over the materialised catalog — under drift too, since both
    /// sides are priced at live sizes.
    #[test]
    fn hypothetical_and_materialised_costs_agree_through_the_cache() {
        let def = IndexDef::new(TableId(0), vec![1], vec![0]);
        let q = hot_query(1, 77);
        let cost = CostModel::unit_scale();

        for drifted in [false, true] {
            let mut cat = catalog();
            if drifted {
                cat.apply_drift(TableId(0), 25_000, 0, 0);
            }
            let stats = StatsCatalog::build(&cat);
            let mut svc = service();
            // Twice, so the second costing runs the cached path.
            svc.cost_query(&cat, &stats, &q, std::slice::from_ref(&def));
            let hypo = svc
                .cost_query(&cat, &stats, &q, std::slice::from_ref(&def))
                .est_cost;
            assert_eq!(svc.stats().hits, 1, "drifted={drifted}: cached path ran");

            let mut materialised = cat.clone();
            materialised.create_index(def.clone()).unwrap();
            let ctx = PlannerContext::from_catalog(&materialised, &stats, &cost);
            let real = Planner::new(&ctx).plan(&q).est_cost;
            assert!(
                (hypo.secs() - real.secs()).abs() < 1e-9,
                "drifted={drifted}: hypo {} vs materialised {}",
                hypo.secs(),
                real.secs()
            );
        }
    }

    /// Unit arrival weights are exact: the weighted total is the plain
    /// sum of the per-query costings, bit for bit.
    #[test]
    fn unit_weights_reproduce_cost_workload_bitwise() {
        let catalog = catalog();
        let stats = StatsCatalog::build(&catalog);
        let queries: Vec<Query> = (0..4).map(|i| hot_query(1, i * 100)).collect();
        let mut reference = SimSeconds::ZERO;
        for q in &queries {
            reference += service().cost_query(&catalog, &stats, q, &[]).est_cost;
        }
        let weights = vec![1.0; queries.len()];
        let weighted = service().cost_workload(&catalog, &stats, &queries, &weights, &[]);
        assert_eq!(reference.secs().to_bits(), weighted.total.secs().to_bits());
        assert_eq!(
            weighted.per_query.iter().sum::<f64>().to_bits(),
            reference.secs().to_bits()
        );
    }

    #[test]
    fn arrival_weights_scale_shadow_prices() {
        let catalog = catalog();
        let stats = StatsCatalog::build(&catalog);
        let queries = vec![hot_query(1, 500)];
        let mut svc = service();
        let unit = svc.cost_workload(&catalog, &stats, &queries, &[1.0], &[]);
        let scaled = svc
            .cost_workload(&catalog, &stats, &queries, &[250.0], &[])
            .total;
        let unit_s = unit.total.secs();
        assert!((scaled.secs() - 250.0 * unit_s).abs() < 1e-9 * scaled.secs().abs().max(1.0));
        assert_eq!(unit.per_query[0], unit_s);
    }

    /// Configurations differing only on tables a query does not touch
    /// share the query's cached plan — the sharing that makes pricing one
    /// configuration after another cheap.
    #[test]
    fn marginals_share_subplans_across_configs() {
        let mut cat = catalog();
        cat.apply_drift(TableId(1), 0, 0, 0);
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let queries = vec![hot_query(1, 77), cold_query(2)];
        let hot_ix = IndexDef::new(TableId(0), vec![1], vec![0]);
        let cold_ix = IndexDef::new(TableId(1), vec![0], vec![]);

        // Full config + leave-one-out configs (the rollback-assessment
        // shape): 3 configs × 2 queries = 6 costings, but the hot query's
        // plan under {hot_ix} is shared between configs 0 and 2, and the
        // cold query's plan under {cold_ix} between configs 0 and 1.
        let configs = [
            vec![hot_ix.clone(), cold_ix.clone()],
            vec![cold_ix.clone()],
            vec![hot_ix.clone()],
        ];
        let costs: Vec<ConfigCost> = configs
            .iter()
            .map(|config| svc.cost_workload(&cat, &stats, &queries, &[1.0; 2], config))
            .collect();
        assert_eq!(costs.len(), 3);
        assert_eq!(svc.stats().misses, 4, "4 distinct (query, subset) plans");
        assert_eq!(svc.stats().hits, 2, "2 shared sub-plans");
        // Usage maps to each config's own positions.
        assert_eq!(costs[0].usage, vec![1, 1]);
        assert_eq!(costs[1].usage, vec![1]);
        assert_eq!(costs[2].usage, vec![1]);
        // Leaving out an index can only raise the workload's cost.
        assert!(costs[1].total.secs() >= costs[0].total.secs());
        assert!(costs[2].total.secs() >= costs[0].total.secs());
    }

    /// A cached (sniffed) plan whose recost explodes under new bindings is
    /// recompiled, not reused (the plan cache's parameter guard).
    #[test]
    fn regressive_bindings_recompile() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let defs = vec![IndexDef::new(TableId(0), vec![1], vec![])];

        // Sniff a selective instance: ~1 of 100k rows → a seek plan.
        let selective = hot_query(1, 77);
        let sniffed = svc.cost_query(&cat, &stats, &selective, &defs);
        assert_eq!(sniffed.used_hypothetical, vec![0], "seek plan sniffed");

        // Same template, catastrophic bindings: the whole domain.
        let unselective = Query {
            predicates: vec![Predicate::range(ColumnId::new(TableId(0), 1), 0, 99_999)],
            ..hot_query(1, 0)
        };
        let recompiled = svc.cost_query(&cat, &stats, &unselective, &defs);
        assert_eq!(svc.stats().recompilations, 1);
        assert!(
            recompiled.used_hypothetical.is_empty(),
            "recompiled to a scan"
        );
    }

    /// Duplicate definitions across configurations intern to one id: the
    /// same def listed at different positions in different configs maps
    /// usage back to each caller's own positions.
    #[test]
    fn interning_is_position_independent() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let mut svc = service();
        let a = IndexDef::new(TableId(0), vec![1], vec![0]);
        let junk = IndexDef::new(TableId(0), vec![2], vec![]);
        let q = hot_query(1, 77);

        let first = svc.cost_query(&cat, &stats, &q, &[junk.clone(), a.clone()]);
        assert_eq!(first.used_hypothetical, vec![1]);
        // Same candidate set, different order: the sorted fingerprint
        // matches, the cached plan is reused, usage maps to position 0.
        let second = svc.cost_query(&cat, &stats, &q, &[a.clone(), junk.clone()]);
        assert_eq!(svc.stats().hits, 1);
        assert_eq!(second.used_hypothetical, vec![0]);
        assert!((first.est_cost.secs() - second.est_cost.secs()).abs() < 1e-12);
    }
}
