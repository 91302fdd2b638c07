//! IMDb's largest join, counted without materialising it.
//!
//! Template 1 of quick static IMDb at seed 42 joins six tables. Its fifth
//! step joins `cast_info` whole, and at rounds 0 and 2 it makes 275.8 M and
//! 149.4 G join tuples, which no row-at-a-time intermediate holds in
//! memory. The executor carries them as weighted key tuples. This test
//! plans the template's instances of those rounds as a session's plan
//! cache does, where round 2 reuses round 0's plan, executes only them, and
//! reads the step's output tuples from the priced counts: the probe rows of
//! the sixth step's `HashJoin` sample on a timed executor.

use dba_common::BudgetTimer;
use dba_engine::{CostModel, Executor, JoinAlgo, OpKind};
use dba_optimizer::{PlanCache, Planner, PlannerContext, StatsCatalog};
use dba_workloads::{imdb::imdb, WorkloadKind, WorkloadSequencer};

#[test]
fn template_1_counts_its_largest_join_exactly() {
    let bench = imdb(1.0);
    let catalog = bench.build_catalog(42).expect("IMDb builds");
    let stats = StatsCatalog::build(&catalog);
    let cost = CostModel::paper_scale();
    let ctx = PlannerContext::from_catalog(&catalog, &stats, &cost);
    let planner = Planner::new(&ctx);
    let mut cache = PlanCache::new();
    let sequencer = WorkloadSequencer::new(&bench, WorkloadKind::Static { rounds: 8 }, 42);
    let template = bench.templates()[0].id;
    for (round, step_5_tuples) in [(0, 275_839_984), (2, 149_406_101_546)] {
        let queries = sequencer
            .round_queries(&catalog, round)
            .expect("round binds");
        let query = queries
            .iter()
            .find(|q| q.template == template)
            .expect("every static round runs every template");
        let (plan, _) = cache.get_or_plan(template, &catalog, &stats, &planner, query);
        assert_eq!(plan.joins.len(), 6, "round {round}: six join steps");
        assert!(
            plan.joins.iter().all(|s| s.algo == JoinAlgo::Hash),
            "round {round}: the plan the census saw"
        );
        let mut executor = Executor::timed(cost.clone(), BudgetTimer::scripted(1e-6));
        let execution = executor.execute(&catalog, query, plan);
        let samples = executor.take_op_samples();
        let joins: Vec<_> = samples
            .iter()
            .filter(|s| s.op == OpKind::HashJoin)
            .collect();
        assert_eq!(joins.len(), 6, "round {round}: one sample per hash step");
        assert_eq!(joins[4].out_rows, step_5_tuples, "round {round}: step 5");
        assert_eq!(joins[5].probe_rows, step_5_tuples, "round {round}: step 6");
        assert_eq!(execution.result_rows, joins[5].out_rows, "round {round}");
    }
}
