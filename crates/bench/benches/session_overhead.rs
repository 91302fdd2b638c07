//! Measures the per-round overhead of driving the tuning loop through
//! [`TuningSession`] against a hand-wired recommend → plan → execute →
//! observe loop (what `examples/` and the fig/table binaries did before
//! the session API existed). The two should be indistinguishable: the
//! session owns the same objects and runs the same calls, so the
//! abstraction must be zero-cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dba_core::{Advisor, MabConfig, MabTuner, RoundContext};
use dba_engine::{simulated, CostModel, QueryExecution};
use dba_optimizer::{PlanCache, Planner, PlannerContext, StatsCatalog, WhatIfService};
use dba_session::{SessionBuilder, TunerKind, TuningSession};
use dba_storage::Catalog;
use dba_workloads::{ssb::ssb, Benchmark, WorkloadKind, WorkloadSequencer};

const ROUNDS: usize = 6;
const SEED: u64 = 7;
const SF: f64 = 0.02;

fn workload() -> WorkloadKind {
    WorkloadKind::Static { rounds: ROUNDS }
}

/// The pre-session way: every caller wires catalog, stats, planner,
/// executor, sequencer — and now the plan cache the session drives on its
/// hot path — by hand.
fn run_hand_wired(benchmark: &Benchmark, base: &Catalog) -> f64 {
    let cost = CostModel::paper_scale();
    let mut catalog = base.fork_empty();
    let stats = StatsCatalog::build(&catalog);
    let mut tuner = MabTuner::new(
        &catalog,
        cost.clone(),
        MabConfig {
            memory_budget_bytes: catalog.database_bytes(),
            ..MabConfig::default()
        },
    );
    let sequencer = WorkloadSequencer::new(benchmark, workload(), SEED);
    let mut executor = simulated(cost.clone());
    let mut plan_cache = PlanCache::new();
    let mut whatif = WhatIfService::new(cost.clone());

    let mut total = 0.0;
    for round in 0..sequencer.rounds() {
        let advisor_cost = tuner.before_round(round, &mut catalog, &stats, &mut whatif);
        let queries = sequencer.round_queries(&catalog, round).expect("queries");
        let executions: Vec<QueryExecution> = {
            let ctx = PlannerContext::from_catalog(&catalog, &stats, &cost);
            let planner = Planner::new(&ctx);
            queries
                .iter()
                .map(|q| {
                    let (plan, _) =
                        plan_cache.get_or_plan(q.template, &catalog, &stats, &planner, q);
                    executor.execute(&catalog, q, plan)
                })
                .collect()
        };
        total += advisor_cost.recommendation.secs()
            + advisor_cost.creation.secs()
            + executions.iter().map(|e| e.total.secs()).sum::<f64>();
        let mut ctx = RoundContext {
            catalog: &catalog,
            stats: &stats,
            whatif: &mut whatif,
        };
        tuner.after_round(&mut ctx, &queries, &executions);
    }
    total
}

fn build_session(benchmark: &Benchmark, base: &Catalog) -> TuningSession<Box<dyn Advisor>> {
    SessionBuilder::new()
        .benchmark(benchmark.clone())
        .shared_data(base)
        .workload(workload())
        .tuner(TunerKind::Mab)
        .seed(SEED)
        .build()
        .expect("session")
}

fn run_session(benchmark: &Benchmark, base: &Catalog) -> f64 {
    build_session(benchmark, base)
        .run()
        .expect("run")
        .total()
        .secs()
}

fn bench_session_overhead(c: &mut Criterion) {
    let benchmark = ssb(SF);
    let base = benchmark.build_catalog(SEED).expect("catalog");

    // Simulated totals must agree exactly — same loop, same stream.
    let hand = run_hand_wired(&benchmark, &base);
    let session = run_session(&benchmark, &base);
    assert!(
        (hand - session).abs() < 1e-9,
        "loops diverge: hand {hand} vs session {session}"
    );

    c.bench_function("tuning_loop_hand_wired_6_rounds", |b| {
        b.iter(|| run_hand_wired(&benchmark, &base))
    });
    c.bench_function("tuning_loop_session_6_rounds", |b| {
        b.iter(|| run_session(&benchmark, &base))
    });
    // Construction alone, to separate setup cost from loop cost.
    c.bench_function("tuning_session_build", |b| {
        b.iter_batched(
            || (),
            |()| build_session(&benchmark, &base),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_session_overhead
);
criterion_main!(benches);
