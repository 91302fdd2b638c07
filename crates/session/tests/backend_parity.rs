//! Executor timing contracts at the session level.
//!
//! The engine's `Executor` runs one program with or without a timer; an
//! enabled `BudgetTimer` only adds a clock read around each operator it
//! runs and an `OpSample` per such operator, and the execution still
//! reports the price. So a session with a timer must run the untimed
//! trajectory bit for bit, across every scenario axis the harness drives,
//! while leaving samples behind. Both replay repeated pairs from their
//! memo and probe kept join tables, so the sweep also runs each scenario
//! on a backend that counts every call on a new executor, and the untimed
//! session must match that too. A golden below pins the samples of a fixed
//! operator microbench on a scripted clock.

use dba_common::{BudgetTimer, ColumnId, QueryId, SimSeconds, TableId, TemplateId};
use dba_engine::{
    timed, AccessMethod, CostModel, ExecutionBackend, Executor, JoinAlgo, JoinPred, JoinStep,
    OpKind, OpSample, Plan, Predicate, Query, QueryExecution, TableAccess,
};
use dba_optimizer::StatsCatalog;
use dba_session::{DataDrift, DriftRates, RunResult, SessionBuilder, TunerKind};
use dba_storage::{
    Catalog, ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema,
};
use dba_workloads::{ssb::ssb, tpch::tpch, Benchmark, WorkloadKind};

fn scenarios() -> Vec<(&'static str, WorkloadKind, Option<DataDrift>)> {
    vec![
        ("static", WorkloadKind::Static { rounds: 4 }, None),
        (
            "shifting",
            WorkloadKind::Shifting {
                groups: 2,
                rounds_per_group: 2,
            },
            None,
        ),
        (
            "random",
            WorkloadKind::Random {
                rounds: 4,
                queries_per_round: 5,
            },
            None,
        ),
        (
            "drift",
            WorkloadKind::Static { rounds: 4 },
            Some(DataDrift::uniform(DriftRates::new(0.05, 0.02, 0.02))),
        ),
    ]
}

/// A backend that runs every call on a new executor: nothing is replayed
/// and no join table outlives its call, so each execution counts its plan
/// afresh. The reference a session's memo replays must match.
struct Fresh(CostModel);

impl ExecutionBackend for Fresh {
    fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        Executor::new(self.0.clone()).execute(catalog, query, plan)
    }

    fn cost_model(&self) -> &CostModel {
        &self.0
    }
}

/// Run one MAB session and drain the operator samples its backend
/// recorded.
#[allow(clippy::too_many_arguments)]
fn run(
    bench: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    workload: WorkloadKind,
    drift: Option<&DataDrift>,
    budget: Option<u64>,
    backend: Option<Box<dyn ExecutionBackend>>,
    label: &str,
) -> (RunResult, Vec<OpSample>) {
    let mut builder = SessionBuilder::new()
        .benchmark(bench.clone())
        .shared_data(base)
        .shared_stats(stats)
        .workload(workload)
        .tuner(TunerKind::Mab)
        .seed(7);
    if let Some(drift) = drift {
        builder = builder.data_drift(drift.clone());
    }
    if let Some(bytes) = budget {
        builder = builder.memory_budget_bytes(bytes);
    }
    if let Some(backend) = backend {
        builder = builder.backend_boxed(backend);
    }
    let mut session = builder.build().unwrap_or_else(|e| panic!("{label}: {e}"));
    let result = session.run().unwrap_or_else(|e| panic!("{label}: {e}"));
    (result, session.backend_mut().take_op_samples())
}

fn assert_bit_identical(label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.rounds.len(), b.rounds.len(), "{label}: round count");
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        for (part, x, y) in [
            ("recommendation", ra.recommendation, rb.recommendation),
            ("creation", ra.creation, rb.creation),
            ("execution", ra.execution, rb.execution),
            ("maintenance", ra.maintenance, rb.maintenance),
        ] {
            assert_eq!(
                x.secs().to_bits(),
                y.secs().to_bits(),
                "{label}: round {} {part} differs: {} vs {}",
                ra.round,
                x.secs(),
                y.secs()
            );
        }
        assert_eq!(ra.plan_cache_hits, rb.plan_cache_hits, "{label}: hits");
        assert_eq!(
            ra.plan_cache_misses, rb.plan_cache_misses,
            "{label}: misses"
        );
    }
}

/// The timing sweep: every scenario axis × {tight, unbounded} memory
/// budgets, on SSB and on TPC-H, the benchmark perfbench drives, which
/// also runs its refresh-stream drift. A tight budget forces drops and
/// rebuilds, so index churn is exercised too. Timing the operators a
/// session runs must not move a single simulated number, and an untimed
/// session must record nothing. Neither may its memo: the untimed session,
/// which replays repeated pairs after drift and probes kept join tables,
/// must match one that counts every call on a new executor.
#[test]
fn timed_simulated_is_bit_exact_with_simulated_across_scenarios_and_budgets() {
    let refresh = (
        "tpch refresh",
        WorkloadKind::Static { rounds: 4 },
        Some(DataDrift::tpch_refresh()),
    );
    let benches = [
        (ssb(0.02), scenarios()),
        (tpch(0.02), [scenarios(), vec![refresh]].concat()),
    ];
    let budgets: [(&str, Option<u64>); 2] = [("tight", Some(512 * 1024)), ("unbounded", None)];
    for (bench, scenarios) in &benches {
        let base = bench.build_catalog(7).unwrap();
        let stats = StatsCatalog::build(&base);
        for ((scenario, workload, drift), (budget_label, budget)) in scenarios
            .iter()
            .flat_map(|s| budgets.iter().map(move |b| (s, b)))
        {
            let label = format!("{}/{scenario}/{budget_label}", bench.name);
            let (sim, untimed_samples) = run(
                bench,
                &base,
                &stats,
                *workload,
                drift.as_ref(),
                *budget,
                None,
                &label,
            );
            assert!(untimed_samples.is_empty(), "{label}: untimed samples");
            let (timed_run, samples) = run(
                bench,
                &base,
                &stats,
                *workload,
                drift.as_ref(),
                *budget,
                Some(timed(CostModel::paper_scale(), BudgetTimer::scripted(1e-6))),
                &label,
            );
            assert_bit_identical(&label, &sim, &timed_run);
            assert!(!samples.is_empty(), "{label}: timed run left no samples");
            let (fresh, _) = run(
                bench,
                &base,
                &stats,
                *workload,
                drift.as_ref(),
                *budget,
                Some(Box::new(Fresh(CostModel::paper_scale()))),
                &label,
            );
            assert_bit_identical(&format!("{label}/fresh"), &sim, &fresh);
        }
    }
}

/// A seeded operator microbench: a wide, a narrow and a dimension table,
/// two covering indexes on the narrow one, and a spread of selectivities
/// over every operator. Returns the catalog and each query with its plan,
/// in run order.
fn microbench(seed: u64) -> (Catalog, Vec<(Query, Plan)>) {
    let int = |name: &str, dist| ColumnSpec::new(name, ColumnType::Int, dist);
    let wide = TableSchema::new(
        "cal_wide",
        vec![
            int("w_key", Distribution::Sequential),
            int("w_attr", Distribution::Uniform { lo: 0, hi: 99 }),
        ],
    )
    .with_pad(240);
    let narrow = TableSchema::new(
        "cal_narrow",
        vec![
            int("n_key", Distribution::Sequential),
            int("n_val", Distribution::Uniform { lo: 0, hi: 9999 }),
            int("n_dim", Distribution::FkUniform { parent_rows: 2000 }),
        ],
    );
    let dim = TableSchema::new(
        "cal_dim",
        vec![
            int("d_key", Distribution::Sequential),
            int("d_attr", Distribution::Uniform { lo: 0, hi: 19 }),
        ],
    )
    .with_pad(60);
    let mut cat = Catalog::new(vec![
        TableBuilder::new(wide, 8_000).build(TableId(0), seed),
        TableBuilder::new(narrow, 40_000).build(TableId(1), seed),
        TableBuilder::new(dim, 2_000).build(TableId(2), seed),
    ]);
    // Covering throughout: every column a query touches is in the leaves.
    let ix_val = cat
        .create_index(IndexDef::new(TableId(1), vec![1], vec![0, 2]))
        .unwrap()
        .id;
    let ix_fk = cat
        .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
        .unwrap()
        .id;

    let col = |t: u32, ordinal: u16| ColumnId::new(TableId(t), ordinal);
    let access = |t: u32, method| TableAccess {
        table: TableId(t),
        method,
        est_rows: 0.0,
    };
    let plan = |driver, joins, aggregated| Plan {
        driver,
        joins,
        aggregated,
        est_cost: SimSeconds::ZERO,
    };
    let mut runs = Vec::new();
    let mut run = |tables: Vec<u32>, pred, joins, payload, plan: Plan| {
        let query = Query {
            id: QueryId(runs.len() as u64),
            template: TemplateId(0),
            tables: tables.into_iter().map(TableId).collect(),
            predicates: vec![pred],
            joins,
            payload: vec![payload],
            aggregated: plan.aggregated,
        };
        runs.push((query, plan));
    };

    // SeqScan: every table, several selectivities (rows vs pages variation).
    for (t, his) in [
        (0u32, [9i64, 49, 99]),
        (1, [999, 4999, 9999]),
        (2, [3, 9, 19]),
    ] {
        for hi in his {
            let scan = access(t, AccessMethod::FullScan);
            let pred = Predicate::range(col(t, 1), 0, hi);
            run(vec![t], pred, vec![], col(t, 0), plan(scan, vec![], false));
        }
    }

    // CoveringScan + covering IndexSeek at a spread of selectivities.
    for (lo, hi) in [(0, 99), (0, 999), (2000, 6000), (0, 9999), (5000, 5001)] {
        let pred = Predicate::range(col(1, 1), lo, hi);
        let scan = access(1, AccessMethod::CoveringScan { index: ix_val });
        run(vec![1], pred, vec![], col(1, 0), plan(scan, vec![], false));
        let seek = access(
            1,
            AccessMethod::IndexSeek {
                index: ix_val,
                covering: true,
            },
        );
        run(vec![1], pred, vec![], col(1, 0), plan(seek, vec![], false));
    }

    // dim ⋈ narrow at several dim selectivities: an aggregated HashJoin
    // over the whole of narrow, which probes a join table kept over it,
    // then InlProbe with a covering inner.
    let join = JoinPred::new(col(2, 0), col(1, 2));
    let fk_seek = AccessMethod::IndexSeek {
        index: ix_fk,
        covering: true,
    };
    for (algo, inner, aggregated, his) in [
        (JoinAlgo::Hash, AccessMethod::FullScan, true, [2i64, 7, 19]),
        (JoinAlgo::IndexNestedLoop, fk_seek, false, [0, 4, 19]),
    ] {
        for hi in his {
            let step = JoinStep {
                access: access(1, inner.clone()),
                algo,
                join,
                est_rows_out: 0.0,
            };
            let driver = access(2, AccessMethod::FullScan);
            let pred = Predicate::range(col(2, 1), 0, hi);
            let joined = plan(driver, vec![step], aggregated);
            run(vec![2, 1], pred, vec![join], col(1, 0), joined);
        }
    }
    (cat, runs)
}

/// One sample's operator, pages, rows, descents, build rows, probe rows
/// and out rows, then the bits of its `measured_s` and `sim_s`.
type GoldenSample = (OpKind, u64, u64, u64, u64, u64, u64, u64, u64);

/// The samples of `microbench(17)` on a paper-scale executor timed on
/// `scripted(1e-7)`: one per operator run, each `measured_s` one scripted
/// step. The whole-table hash joins leave no sample for their inner scan,
/// and the aggregate none. The work counters and prices are those the
/// former dedicated measured backend and its B+Tree recorded.
#[rustfmt::skip]
const MICROBENCH_GOLDEN: [GoldenSample; 31] = [
    (OpKind::SeqScan, 250, 8000, 0, 0, 0, 786, 0x3e7ad7f29abcaf48, 0x400547ae147ae148),
    (OpKind::SeqScan, 250, 8000, 0, 0, 0, 4039, 0x3e7ad7f29abcaf48, 0x400547ae147ae148),
    (OpKind::SeqScan, 250, 8000, 0, 0, 0, 8000, 0x3e7ad7f29abcaf48, 0x400547ae147ae148),
    (OpKind::SeqScan, 118, 40000, 0, 0, 0, 3995, 0x3e7ad7f29abcaf48, 0x3fffae147ae147ad),
    (OpKind::SeqScan, 118, 40000, 0, 0, 0, 19996, 0x3e7ad7f29abcaf48, 0x3fffae147ae147ad),
    (OpKind::SeqScan, 118, 40000, 0, 0, 0, 40000, 0x3e7ad7f29abcaf40, 0x3fffae147ae147ad),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 418, 0x3e7ad7f29abcaf50, 0x3fcd70a3d70a3d70),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 1032, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 2000, 0x3e7ad7f29abcaf50, 0x3fcd70a3d70a3d70),
    (OpKind::CoveringScan, 157, 40000, 0, 0, 0, 424, 0x3e7ad7f29abcaf40, 0x4004cccccccccccd),
    (OpKind::IndexSeek, 2, 424, 1, 0, 0, 424, 0x3e7ad7f29abcaf60, 0x3fa1244a6223e187),
    (OpKind::CoveringScan, 157, 40000, 0, 0, 0, 3995, 0x3e7ad7f29abcaf40, 0x4004cccccccccccd),
    (OpKind::IndexSeek, 16, 3995, 1, 0, 0, 3995, 0x3e7ad7f29abcaf40, 0x3fcf58e219652bd3),
    (OpKind::CoveringScan, 157, 40000, 0, 0, 0, 15931, 0x3e7ad7f29abcaf40, 0x4004cccccccccccd),
    (OpKind::IndexSeek, 63, 15931, 1, 0, 0, 15931, 0x3e7ad7f29abcaf60, 0x3fee840e1719f7f9),
    (OpKind::CoveringScan, 157, 40000, 0, 0, 0, 40000, 0x3e7ad7f29abcaf40, 0x4004cccccccccccd),
    (OpKind::IndexSeek, 157, 40000, 1, 0, 0, 40000, 0x3e7ad7f29abcaf40, 0x4003000000000001),
    (OpKind::CoveringScan, 157, 40000, 0, 0, 0, 9, 0x3e7ad7f29abcaf40, 0x4004cccccccccccd),
    (OpKind::IndexSeek, 1, 9, 1, 0, 0, 9, 0x3e7ad7f29abcaf60, 0x3f8f16b11c6d1e11),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 324, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::HashJoin, 0, 0, 0, 40000, 324, 6394, 0x3e7ad7f29abcaf40, 0x4001167caea747d8),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 823, 0x3e7ad7f29abcaf80, 0x3fcd70a3d70a3d70),
    (OpKind::HashJoin, 0, 0, 0, 40000, 823, 16238, 0x3e7ad7f29abcaf40, 0x4002c33eff195033),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 2000, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::HashJoin, 0, 0, 0, 40000, 2000, 40000, 0x3e7ad7f29abcaf40, 0x4006cccccccccccd),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 104, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::InlProbe, 108, 2076, 104, 0, 0, 2076, 0x3e7ad7f29abcaf40, 0x3fe435696e58a330),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 523, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::InlProbe, 549, 10314, 523, 0, 0, 10314, 0x3e7ad7f29abcaf40, 0x40090cdc8754f378),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 2000, 0x3e7ad7f29abcaf80, 0x3fcd70a3d70a3d70),
    (OpKind::InlProbe, 2113, 40000, 2000, 0, 0, 40000, 0x3e7ad7f29abcaf40, 0x401c1eb851eb851f),
];

/// A timed executor keeps every work counter and price of the microbench
/// without the B+Tree (leaf counts are arithmetic on `Index::probe`'s
/// bounds), and one scripted-clock step per operator it runs.
#[test]
fn microbench_samples_match_the_golden() {
    let (cat, runs) = microbench(17);
    let mut backend = timed(CostModel::paper_scale(), BudgetTimer::scripted(1e-7));
    for (query, plan) in &runs {
        backend.execute(&cat, query, plan);
    }
    let got: Vec<GoldenSample> = backend
        .take_op_samples()
        .iter()
        .map(|s: &OpSample| {
            (
                s.op,
                s.pages,
                s.rows,
                s.descents,
                s.build_rows,
                s.probe_rows,
                s.out_rows,
                s.measured_s.to_bits(),
                s.sim_s.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, MICROBENCH_GOLDEN);
}
