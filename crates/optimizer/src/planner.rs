//! Cost-based planner: access-path selection and greedy left-deep join
//! ordering over a set of (real or hypothetical) index candidates.
//!
//! The planner is deliberately shared between normal query execution and
//! the what-if interface: it sees indexes only as [`IndexCandidate`]
//! descriptors, so a hypothetical index is costed identically to a
//! materialised one — the defining property of a what-if API (§VI,
//! AutoAdmin). All cardinalities come from [`CardEstimator`], hence all of
//! its misestimates propagate into plan choice, reproducing the paper's
//! optimiser-misleads-the-advisor dynamic.
//!
//! Planning ([`Planner::plan`]) and recosting a fixed plan
//! ([`Planner::cost_plan`]) price every operator — scan, seek, covering
//! scan, hash join, index nested loop, join output and aggregate — through
//! the same private functions, so recosting a fresh plan under the same
//! bindings reproduces its estimate bit for bit.

use dba_common::{ColumnId, IndexId, SimSeconds, TableId};
use dba_engine::{
    plan::{seek_shape, AccessMethod, JoinAlgo, JoinStep, Plan, SeekShape, TableAccess},
    CostModel, Predicate, Query,
};
use dba_storage::{Catalog, IndexDef, PAGE_BYTES};

use crate::est::CardEstimator;
use crate::stats::StatsCatalog;

/// Estimated index-nested-loop costs are inflated by this factor before
/// comparison with hash joins. Commercial optimisers are deliberately
/// conservative about nested loops because their cost is hypersensitive to
/// outer-cardinality underestimates (the Q5/Q18 regressions of §V happen
/// when even this margin is overwhelmed by skew-driven misestimates).
pub const INL_RISK_FACTOR: f64 = 2.5;

/// An index visible to the planner: either a materialised index (real id)
/// or a hypothetical one being costed by the what-if interface.
#[derive(Debug, Clone)]
pub struct IndexCandidate {
    pub id: IndexId,
    pub def: IndexDef,
    pub size_bytes: u64,
}

impl IndexCandidate {
    pub fn leaf_pages(&self) -> u64 {
        self.size_bytes.div_ceil(PAGE_BYTES).max(1)
    }
}

/// Everything the planner needs to cost plans.
pub struct PlannerContext<'a> {
    pub catalog: &'a Catalog,
    pub stats: &'a StatsCatalog,
    pub cost: &'a CostModel,
    pub indexes: Vec<IndexCandidate>,
}

impl<'a> PlannerContext<'a> {
    /// Context over the catalog's currently materialised indexes.
    pub fn from_catalog(
        catalog: &'a Catalog,
        stats: &'a StatsCatalog,
        cost: &'a CostModel,
    ) -> Self {
        let indexes = catalog
            .all_indexes()
            .map(|ix| IndexCandidate {
                id: ix.id(),
                def: ix.def().clone(),
                // Creation-time (drift-included) size: multiplying its leaf
                // pages by growth-since-creation yields the live leaf level.
                size_bytes: catalog.index_creation_bytes(ix.id()),
            })
            .collect();
        PlannerContext {
            catalog,
            stats,
            cost,
            indexes,
        }
    }

    fn candidates_on(&self, table: TableId) -> impl Iterator<Item = &IndexCandidate> {
        self.indexes.iter().filter(move |c| c.def.table == table)
    }

    fn candidate(&self, id: IndexId) -> Option<&IndexCandidate> {
        self.indexes.iter().find(|c| c.id == id)
    }

    fn leaf_row_bytes(&self, cand: &IndexCandidate) -> u64 {
        cand.def.leaf_row_bytes(self.catalog.table(cand.def.table))
    }
}

/// What every access path on one table is priced from. Row counts come
/// from the statistics (the optimiser's *belief* — stale under
/// unrefreshed drift); page counts come from the storage manager's live
/// accounting, which is always accurate.
struct TableScope {
    table: TableId,
    /// The query's local predicates on the table.
    preds: Vec<Predicate>,
    rows: u64,
    heap_pages: u64,
    /// AVI selectivity of all of `preds`.
    sel_all: f64,
}

impl TableScope {
    /// Estimated rows emitted after all local predicates, whatever the
    /// access path.
    fn rows_out(&self) -> f64 {
        self.rows as f64 * self.sel_all
    }
}

/// One table's cheapest standalone access during planning.
struct AccessOption {
    scope: TableScope,
    /// Columns the query reads from the table (what covering must cover).
    needed: Vec<u16>,
    method: AccessMethod,
    cost: SimSeconds,
}

/// Ascending order on estimated driver output. Estimates flow out of
/// `CardEstimator` arithmetic, so a degenerate histogram can hand the sort
/// an ∞ or NaN; `total_cmp` keeps the sort total (no mid-session panic)
/// and the explicit non-finite demotion keeps such a table from ever
/// winning the driver slot on the spurious strength of `-inf`/`-NaN`.
fn driver_order(a: f64, b: f64) -> std::cmp::Ordering {
    (!a.is_finite()).cmp(&!b.is_finite()).then(a.total_cmp(&b))
}

/// The planner.
pub struct Planner<'a> {
    ctx: &'a PlannerContext<'a>,
    est: CardEstimator<'a>,
}

impl<'a> Planner<'a> {
    pub fn new(ctx: &'a PlannerContext<'a>) -> Self {
        let est = CardEstimator::new(ctx.stats);
        Planner { ctx, est }
    }

    /// Produce the estimated-cheapest plan for `query`: greedy left-deep
    /// join planning that starts from the most selective table,
    /// repeatedly attaches the connected table minimising estimated
    /// output, and chooses hash vs index-nested-loop per step by estimated
    /// cost. A join-free query is its first table's best access.
    pub fn plan(&self, query: &Query) -> Plan {
        let tables = if query.joins.is_empty() {
            &query.tables[..1]
        } else {
            &query.tables[..]
        };
        // Per-table best standalone access, in query order.
        let mut options: Vec<AccessOption> =
            tables.iter().map(|&t| self.best_access(query, t)).collect();

        // Driver: smallest estimated output (classic greedy start; the
        // first such table on a tie).
        let driver = (0..options.len())
            .min_by(|&a, &b| driver_order(options[a].scope.rows_out(), options[b].scope.rows_out()))
            .expect("a query reads at least one table");
        let mut joined: Vec<TableId> = vec![options[driver].scope.table];
        let mut remaining: Vec<usize> = (0..options.len()).filter(|&i| i != driver).collect();
        let mut current_rows = options[driver].scope.rows_out();
        let mut total_cost = options[driver].cost;
        let mut steps: Vec<JoinStep> = Vec::new();

        while !remaining.is_empty() {
            // Candidate next tables: connected to the joined set.
            let mut best_choice: Option<(usize, JoinStep, SimSeconds)> = None;
            for (ri, &i) in remaining.iter().enumerate() {
                let option = &options[i];
                let t = option.scope.table;
                let Some(join) = query.joins.iter().find(|j| {
                    j.side_on(t).is_some()
                        && j.other_side(t).map(|c| joined.contains(&c.table)) == Some(true)
                }) else {
                    continue;
                };
                let inner_col = join.side_on(t).unwrap();
                let outer_col = join.other_side(t).unwrap();
                let rows_out = self.join_rows(&option.scope, current_rows, outer_col, inner_col);
                let step = |method, est_rows, algo| JoinStep {
                    access: TableAccess {
                        table: t,
                        method,
                        est_rows,
                    },
                    algo,
                    join: *join,
                    est_rows_out: rows_out,
                };

                // Option A: hash join over the best standalone access.
                let mut choice = (
                    step(
                        option.method.clone(),
                        option.scope.rows_out(),
                        JoinAlgo::Hash,
                    ),
                    self.hash_join_cost(option.cost, &option.scope, current_rows, rows_out),
                );

                // Option B: index nested-loop via an index whose first key
                // column is the inner join column.
                for cand in self.ctx.candidates_on(t) {
                    if cand.def.key_cols.first() != Some(&inner_col.ordinal) {
                        continue;
                    }
                    let covering = cand.def.covers(&option.needed);
                    let (inl_cost, matched_total) =
                        self.inl_cost(&option.scope, cand, covering, current_rows, inner_col);
                    if inl_cost < choice.1 {
                        let method = AccessMethod::IndexSeek {
                            index: cand.id,
                            covering,
                        };
                        let est_rows = matched_total * option.scope.sel_all;
                        choice = (step(method, est_rows, JoinAlgo::IndexNestedLoop), inl_cost);
                    }
                }

                if best_choice
                    .as_ref()
                    .is_none_or(|(_, best, _)| rows_out < best.est_rows_out)
                {
                    best_choice = Some((ri, choice.0, choice.1));
                }
            }

            let (ri, step, cost) = best_choice.expect("query join graph must be connected");
            joined.push(step.access.table);
            remaining.swap_remove(ri);
            total_cost += cost;
            current_rows = step.est_rows_out;
            steps.push(step);
        }

        let driver = options.swap_remove(driver);
        Plan {
            driver: TableAccess {
                table: driver.scope.table,
                est_rows: driver.scope.rows_out(),
                method: driver.method,
            },
            joins: steps,
            aggregated: query.aggregated,
            est_cost: self.with_aggregate(query, total_cost, current_rows),
        }
    }

    /// Estimated cost of executing a **fixed** plan for `query` under the
    /// context's current statistics and parameter bindings — no access-path
    /// or join-order search. This is the cheap revalidation step the plan
    /// cache runs on every hit: walking one plan is a fraction of full
    /// planning (which costs every index candidate on every table and
    /// greedily orders the joins).
    ///
    /// Returns `None` if the plan references an index the context no
    /// longer exposes (callers must treat that as "replan").
    pub fn cost_plan(&self, query: &Query, plan: &Plan) -> Option<SimSeconds> {
        let driver = self.scope(query, plan.driver.table);
        let mut total = self.access_cost(&driver, &plan.driver.method)?;
        let mut current_rows = driver.rows_out();

        for step in &plan.joins {
            let t = step.access.table;
            let scope = self.scope(query, t);
            let inner_col = step.join.side_on(t)?;
            let outer_col = step.join.other_side(t)?;
            let rows_out = self.join_rows(&scope, current_rows, outer_col, inner_col);
            total += match (step.algo, &step.access.method) {
                (JoinAlgo::Hash, method) => {
                    let access = self.access_cost(&scope, method)?;
                    self.hash_join_cost(access, &scope, current_rows, rows_out)
                }
                (JoinAlgo::IndexNestedLoop, &AccessMethod::IndexSeek { index, covering }) => {
                    let cand = self.ctx.candidate(index)?;
                    self.inl_cost(&scope, cand, covering, current_rows, inner_col)
                        .0
                }
                (JoinAlgo::IndexNestedLoop, _) => return None,
            };
            current_rows = rows_out;
        }

        Some(self.with_aggregate(query, total, current_rows))
    }

    /// The pricing inputs of `table` under `query`'s local predicates.
    fn scope(&self, query: &Query, table: TableId) -> TableScope {
        let preds = query.predicates_on(table);
        TableScope {
            table,
            rows: self.ctx.stats.rows(table),
            heap_pages: self.ctx.catalog.live_heap_pages(table),
            sel_all: self.est.conjunction_selectivity(&preds),
            preds,
        }
    }

    /// Cheapest standalone access to `table`: full scan, every usable
    /// index seek, or every usable covering (index-only) scan.
    fn best_access(&self, query: &Query, table: TableId) -> AccessOption {
        let scope = self.scope(query, table);
        let needed = query.columns_needed_on(table);
        let mut method = AccessMethod::FullScan;
        let mut cost = self.scan_cost(&scope);
        for cand in self.ctx.candidates_on(table) {
            let covering = cand.def.covers(&needed);
            let shape = seek_shape(&cand.def, &scope.preds);
            let (option, option_cost) = if shape.is_selective() {
                let seek = self.seek_cost(&scope, cand, &shape, covering);
                (
                    AccessMethod::IndexSeek {
                        index: cand.id,
                        covering,
                    },
                    seek,
                )
            } else if covering {
                let scan = self.covering_scan_cost(&scope, cand);
                (AccessMethod::CoveringScan { index: cand.id }, scan)
            } else {
                continue;
            };
            if option_cost < cost {
                method = option;
                cost = option_cost;
            }
        }
        AccessOption {
            scope,
            needed,
            method,
            cost,
        }
    }

    /// Estimated cost of reading `scope`'s table through a fixed `method`;
    /// `None` if `method` names an index the context does not expose.
    fn access_cost(&self, scope: &TableScope, method: &AccessMethod) -> Option<SimSeconds> {
        Some(match method {
            AccessMethod::FullScan => self.scan_cost(scope),
            AccessMethod::IndexSeek { index, covering } => {
                let cand = self.ctx.candidate(*index)?;
                let shape = seek_shape(&cand.def, &scope.preds);
                self.seek_cost(scope, cand, &shape, *covering)
            }
            AccessMethod::CoveringScan { index } => {
                self.covering_scan_cost(scope, self.ctx.candidate(*index)?)
            }
        })
    }

    fn scan_cost(&self, scope: &TableScope) -> SimSeconds {
        self.ctx.cost.scan(scope.heap_pages, scope.rows)
    }

    /// Seek into `cand` through `shape`; a non-covering seek fetches every
    /// matched row from the heap.
    fn seek_cost(
        &self,
        scope: &TableScope,
        cand: &IndexCandidate,
        shape: &SeekShape,
        covering: bool,
    ) -> SimSeconds {
        // Selectivity of the predicates the seek consumes (AVI).
        let consumed_sel = {
            let residual_sel = self.est.conjunction_selectivity(&shape.residual);
            if residual_sel > 0.0 {
                scope.sel_all / residual_sel
            } else {
                scope.sel_all
            }
        };
        let matched = (scope.rows as f64 * consumed_sel).max(0.0);
        let heap_fetches = if covering { 0 } else { matched as u64 };
        self.ctx.cost.index_seek(
            matched as u64,
            self.ctx.leaf_row_bytes(cand),
            heap_fetches,
            scope.heap_pages,
        )
    }

    /// Index-only scan of `cand`'s whole leaf level. Maintained leaves grow
    /// with the table under drift — each index by the growth it absorbed
    /// since creation (its creation-time size already prices earlier
    /// growth).
    fn covering_scan_cost(&self, scope: &TableScope, cand: &IndexCandidate) -> SimSeconds {
        let leaf_pages =
            (cand.leaf_pages() as f64 * self.ctx.catalog.index_growth_of(cand.id)).ceil() as u64;
        self.ctx.cost.covering_scan(leaf_pages, scope.rows)
    }

    /// Estimated rows out of joining `scope`'s table on `inner_col` to
    /// `outer_rows` accumulated rows on `outer_col`.
    fn join_rows(
        &self,
        scope: &TableScope,
        outer_rows: f64,
        outer_col: ColumnId,
        inner_col: ColumnId,
    ) -> f64 {
        self.est
            .join_output(outer_rows, scope.rows_out(), outer_col, inner_col)
            .max(0.0)
    }

    /// Hash join building on the inner table's access (already priced at
    /// `access`) and probing with `outer_rows` accumulated rows.
    fn hash_join_cost(
        &self,
        access: SimSeconds,
        scope: &TableScope,
        outer_rows: f64,
        rows_out: f64,
    ) -> SimSeconds {
        access
            + self.ctx.cost.hash_join(
                scope.rows_out().max(0.0) as u64,
                outer_rows.max(0.0) as u64,
                rows_out.max(0.0) as u64,
            )
    }

    /// Index nested loop probing `cand` once per accumulated outer row on
    /// `inner_col`, inflated by [`INL_RISK_FACTOR`]. Also returns the
    /// estimated index entries matched.
    fn inl_cost(
        &self,
        scope: &TableScope,
        cand: &IndexCandidate,
        covering: bool,
        outer_rows: f64,
        inner_col: ColumnId,
    ) -> (SimSeconds, f64) {
        let probes = outer_rows.max(0.0);
        let matched_total = probes * self.est.rows_per_value(inner_col);
        let heap_fetches = if covering { 0 } else { matched_total as u64 };
        let cost = self.ctx.cost.inl_probes(
            probes as u64,
            matched_total as u64,
            self.ctx.leaf_row_bytes(cand),
            heap_fetches,
            scope.heap_pages,
        ) * INL_RISK_FACTOR;
        (cost, matched_total)
    }

    /// `total` plus the aggregate over the final `rows`, if `query`
    /// aggregates.
    fn with_aggregate(&self, query: &Query, total: SimSeconds, rows: f64) -> SimSeconds {
        let agg = if query.aggregated {
            self.ctx.cost.aggregate(rows.max(0.0) as u64)
        } else {
            SimSeconds::ZERO
        };
        total + agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_common::{ColumnId, QueryId, TemplateId};
    use dba_engine::JoinPred;
    use dba_storage::{ColumnSpec, ColumnType, Distribution, TableBuilder, TableSchema};

    fn catalog() -> Catalog {
        let dim = TableSchema::new(
            "dim",
            vec![
                ColumnSpec::new("d_key", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "d_attr",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 99 },
                ),
            ],
        );
        let fact = TableSchema::new(
            "fact",
            vec![
                ColumnSpec::new(
                    "f_dim",
                    ColumnType::Int,
                    Distribution::FkUniform { parent_rows: 1000 },
                ),
                ColumnSpec::new(
                    "f_v",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 99_999 },
                ),
                ColumnSpec::new(
                    "f_w",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 9 },
                ),
                // Wide padding column so the heap is wider than narrow
                // covering indexes (as in real row stores).
                ColumnSpec::new(
                    "f_pad",
                    ColumnType::Dict { cardinality: 100 },
                    Distribution::Uniform { lo: 0, hi: 99 },
                ),
            ],
        );
        Catalog::new(vec![
            TableBuilder::new(dim, 1000).build(TableId(0), 17),
            TableBuilder::new(fact, 100_000).build(TableId(1), 17),
        ])
    }

    fn col(t: u32, o: u16) -> ColumnId {
        ColumnId::new(TableId(t), o)
    }

    fn fact_query(preds: Vec<Predicate>) -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(1)],
            predicates: preds,
            joins: vec![],
            payload: vec![col(1, 2)],
            aggregated: false,
        }
    }

    #[test]
    fn no_indexes_yields_full_scan() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        let plan = Planner::new(&ctx).plan(&fact_query(vec![Predicate::eq(col(1, 1), 5)]));
        assert_eq!(plan.driver.method, AccessMethod::FullScan);
        assert!(plan.est_cost.secs() > 0.0);
    }

    #[test]
    fn selective_index_is_chosen() {
        let mut cat = catalog();
        let meta = cat
            .create_index(IndexDef::new(TableId(1), vec![1], vec![]))
            .unwrap();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        // f_v = const matches ~1 row of 100k: index must win.
        let plan = Planner::new(&ctx).plan(&fact_query(vec![Predicate::eq(col(1, 1), 5)]));
        assert_eq!(
            plan.driver.method,
            AccessMethod::IndexSeek {
                index: meta.id,
                covering: false
            }
        );
    }

    #[test]
    fn unselective_predicate_keeps_full_scan() {
        let mut cat = catalog();
        cat.create_index(IndexDef::new(TableId(1), vec![2], vec![]))
            .unwrap();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        // f_w in [0,9] matches every row and the index does not cover the
        // payload (f_v): the estimated heap-fetch storm keeps the scan.
        let q = Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(1)],
            predicates: vec![Predicate::range(col(1, 2), 0, 9)],
            joins: vec![],
            payload: vec![col(1, 1)],
            aggregated: false,
        };
        let plan = Planner::new(&ctx).plan(&q);
        assert_eq!(plan.driver.method, AccessMethod::FullScan);
    }

    #[test]
    fn covering_index_enables_index_only_scan() {
        let mut cat = catalog();
        let meta = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![1]))
            .unwrap();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        // Predicate on the *included* column only: no seek is possible, but
        // the narrow leaf level still covers {f_v, f_w}, so an index-only
        // scan beats reading the wide heap.
        let q = Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(1)],
            predicates: vec![Predicate::range(col(1, 1), 0, 49_999)],
            joins: vec![],
            payload: vec![col(1, 2)],
            aggregated: true,
        };
        let plan = Planner::new(&ctx).plan(&q);
        assert_eq!(
            plan.driver.method,
            AccessMethod::CoveringScan { index: meta.id }
        );
    }

    fn join_query() -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(0), TableId(1)],
            predicates: vec![Predicate::eq(col(0, 1), 7)],
            joins: vec![JoinPred::new(col(0, 0), col(1, 0))],
            payload: vec![col(1, 1)],
            aggregated: true,
        }
    }

    #[test]
    fn join_plan_drives_from_selective_dimension() {
        let cat = catalog();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        let plan = Planner::new(&ctx).plan(&join_query());
        assert_eq!(plan.driver.table, TableId(0));
        assert_eq!(plan.joins.len(), 1);
        assert_eq!(plan.joins[0].algo, JoinAlgo::Hash);
    }

    #[test]
    fn fk_index_enables_inl_join() {
        let mut cat = catalog();
        let meta = cat
            .create_index(IndexDef::new(TableId(1), vec![0], vec![1]))
            .unwrap();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        let plan = Planner::new(&ctx).plan(&join_query());
        // ~10 outer rows × ~100 matched: INL through the covering FK index
        // should beat scanning 100k rows.
        assert_eq!(plan.joins[0].algo, JoinAlgo::IndexNestedLoop);
        assert_eq!(plan.joins[0].access.method.index_id(), Some(meta.id));
    }

    /// Revalidation prices through planning's own functions: costing a
    /// freshly produced plan under the same bindings reproduces its
    /// `est_cost` bit for bit, for every plan shape the planner emits.
    #[test]
    fn cost_plan_reproduces_fresh_estimates() {
        let mut cat = catalog();
        cat.create_index(IndexDef::new(TableId(1), vec![1], vec![]))
            .unwrap();
        cat.create_index(IndexDef::new(TableId(1), vec![2], vec![1]))
            .unwrap();
        cat.create_index(IndexDef::new(TableId(1), vec![0], vec![1]))
            .unwrap();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        let planner = Planner::new(&ctx);

        let queries = [
            fact_query(vec![Predicate::eq(col(1, 1), 5)]),
            fact_query(vec![Predicate::range(col(1, 2), 0, 9)]),
            join_query(),
        ];
        for q in &queries {
            let plan = planner.plan(q);
            let recost = planner
                .cost_plan(q, &plan)
                .expect("fresh plan references only live indexes");
            assert_eq!(
                recost.secs().to_bits(),
                plan.est_cost.secs().to_bits(),
                "recost {} must equal est_cost {}",
                recost.secs(),
                plan.est_cost.secs()
            );
        }
    }

    /// A plan referencing an index the context does not expose cannot be
    /// revalidated.
    #[test]
    fn cost_plan_rejects_unknown_indexes() {
        let mut cat = catalog();
        let meta = cat
            .create_index(IndexDef::new(TableId(1), vec![1], vec![]))
            .unwrap();
        let stats = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let q = fact_query(vec![Predicate::eq(col(1, 1), 5)]);
        let plan = {
            let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
            Planner::new(&ctx).plan(&q)
        };
        assert_eq!(plan.driver.method.index_id(), Some(meta.id));

        cat.drop_index(meta.id).unwrap();
        let ctx = PlannerContext::from_catalog(&cat, &stats, &cost);
        assert!(Planner::new(&ctx).cost_plan(&q, &plan).is_none());
    }

    #[test]
    fn estimated_cost_orders_plans_sensibly() {
        let mut cat = catalog();
        let stats_before = StatsCatalog::build(&cat);
        let cost = CostModel::unit_scale();
        let ctx = PlannerContext::from_catalog(&cat, &stats_before, &cost);
        let scan_cost = Planner::new(&ctx)
            .plan(&fact_query(vec![Predicate::eq(col(1, 1), 5)]))
            .est_cost;

        cat.create_index(IndexDef::new(TableId(1), vec![1], vec![]))
            .unwrap();
        let stats_after = StatsCatalog::build(&cat);
        let ctx2 = PlannerContext::from_catalog(&cat, &stats_after, &cost);
        let seek_cost = Planner::new(&ctx2)
            .plan(&fact_query(vec![Predicate::eq(col(1, 1), 5)]))
            .est_cost;
        assert!(seek_cost.secs() < scan_cost.secs());
    }

    #[test]
    fn non_finite_estimates_order_without_panicking() {
        // Regression: driver ordering used `partial_cmp().unwrap()`, so one
        // NaN cardinality estimate (degenerate histogram arithmetic) aborted
        // the whole session. The ordering must stay total and must never
        // hand a non-finite "smallest output" the driver slot.
        let mut rows = [
            (TableId(0), f64::NAN),
            (TableId(1), 50.0),
            (TableId(2), f64::INFINITY),
            (TableId(3), 7.0),
            (TableId(4), f64::NEG_INFINITY),
        ];
        rows.sort_by(|a, b| driver_order(a.1, b.1));
        let order: Vec<TableId> = rows.iter().map(|r| r.0).collect();
        // Finite estimates first (ascending); non-finite demoted behind
        // them in total_cmp order (−inf < +inf < NaN).
        assert_eq!(
            order,
            vec![TableId(3), TableId(1), TableId(4), TableId(2), TableId(0)]
        );
        assert_eq!(
            driver_order(f64::NAN, f64::NAN),
            std::cmp::Ordering::Equal,
            "sort comparator must stay consistent on equal non-finites"
        );
    }
}
