//! Criterion benchmarks for the executor's timed hot paths: vectorized
//! batch heap scans, index seeks with heap gather, a covering scan and the
//! hash join, run on a `Measured` executor. These are the operators the executor times on
//! the wall-clock, so their own overheads bound how small a workload the
//! calibration fit can resolve. Each bench first asserts the shape of its
//! operator's sample, so it measures the work it names.

use criterion::{criterion_group, criterion_main, Criterion};

use dba_common::{BudgetTimer, ColumnId, QueryId, SimSeconds, TableId, TemplateId};
use dba_engine::{
    AccessMethod, BackendKind, CostModel, ExecutionBackend, JoinAlgo, JoinPred, JoinStep, OpKind,
    OpSample, Plan, Predicate, Query, TableAccess,
};
use dba_optimizer::{Planner, PlannerContext, StatsCatalog};
use dba_storage::{
    Catalog, ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema,
};

const ROWS: usize = 200_000;

fn bench_catalog() -> Catalog {
    let t = TableSchema::new(
        "fact",
        vec![
            ColumnSpec::new("k", ColumnType::Int, Distribution::Sequential),
            ColumnSpec::new(
                "v",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99_999 },
            ),
            ColumnSpec::new(
                "w",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99 },
            ),
        ],
    );
    Catalog::new(vec![TableBuilder::new(t, ROWS).build(TableId(0), 5)])
}

fn range_query(lo: i64, hi: i64) -> Query {
    Query {
        id: QueryId(0),
        template: TemplateId(0),
        tables: vec![TableId(0)],
        predicates: vec![Predicate::range(ColumnId::new(TableId(0), 1), lo, hi)],
        joins: vec![],
        payload: vec![ColumnId::new(TableId(0), 0)],
        aggregated: false,
    }
}

/// The `Measured` executor on the wall-clock.
fn measured() -> Box<dyn ExecutionBackend> {
    dba_engine::timed(
        CostModel::unit_scale(),
        BackendKind::Measured,
        BudgetTimer::wall(),
    )
}

/// Run `plan` once on `backend` and return the sample of its one `op`,
/// dropping the samples earlier runs left.
fn sample_of(
    backend: &mut dyn ExecutionBackend,
    catalog: &Catalog,
    q: &Query,
    plan: &Plan,
    op: OpKind,
) -> OpSample {
    backend.take_op_samples();
    backend.execute(catalog, q, plan);
    let mut samples = backend.take_op_samples();
    samples.retain(|s| s.op() == op);
    assert_eq!(samples.len(), 1, "the plan must run one {op:?}");
    samples.remove(0)
}

/// Rows of the bench table whose `v` lies in `[lo, hi]`.
fn matching_rows(catalog: &Catalog, lo: i64, hi: i64) -> u64 {
    catalog.table(TableId(0)).column(1).count_in_range(lo, hi) as u64
}

/// Vectorized batch heap scan through the measured executor over 200k
/// rows, ~1% and ~50% selective. `cold` round-robins over independently
/// generated (but identical) table allocations so each iteration touches
/// memory the CPU caches have not just seen; `warm` and `half` rescan one
/// allocation. At 50% the filter's match test is as unpredictable as it
/// gets, which a per-row branch pays for and the branch-free kernels do
/// not.
fn bench_batch_scan(c: &mut Criterion) {
    let catalogs: Vec<Catalog> = (0..8).map(|_| bench_catalog()).collect();
    let stats = StatsCatalog::build(&catalogs[0]);
    let cost = CostModel::unit_scale();
    let scan = |lo, hi| {
        let q = range_query(lo, hi);
        let ctx = PlannerContext::from_catalog(&catalogs[0], &stats, &cost);
        let plan = Planner::new(&ctx).plan(&q);
        assert!(plan.indexes_used().is_empty(), "must be a heap scan");
        (q, plan)
    };
    let mut backend = measured();
    let shape = |backend: &mut dyn ExecutionBackend, q: &Query, plan: &Plan| {
        let s = sample_of(backend, &catalogs[0], q, plan, OpKind::SeqScan);
        (s.rows, s.out_rows)
    };

    let (q, scan_plan) = scan(40_000, 41_000);
    assert_eq!(
        shape(backend.as_mut(), &q, &scan_plan),
        (ROWS as u64, matching_rows(&catalogs[0], 40_000, 41_000))
    );
    let mut i = 0usize;
    c.bench_function("batch_scan_cold_200k", |b| {
        b.iter(|| {
            i = (i + 1) % catalogs.len();
            backend.execute(&catalogs[i], &q, &scan_plan)
        })
    });
    c.bench_function("batch_scan_warm_200k", |b| {
        b.iter(|| backend.execute(&catalogs[0], &q, &scan_plan))
    });

    let (half_q, half_plan) = scan(0, 49_999);
    let half = matching_rows(&catalogs[0], 0, 49_999);
    assert!((ROWS as u64 * 2 / 5..=ROWS as u64 * 3 / 5).contains(&half));
    assert_eq!(
        shape(backend.as_mut(), &half_q, &half_plan),
        (ROWS as u64, half)
    );
    c.bench_function("batch_scan_half_200k", |b| {
        b.iter(|| backend.execute(&catalogs[0], &half_q, &half_plan))
    });
}

/// Measured index seek end to end: probe, residual filter and heap gather.
fn bench_measured_seek(c: &mut Criterion) {
    let mut catalog = bench_catalog();
    catalog
        .create_index(IndexDef::new(TableId(0), vec![1], vec![0]))
        .unwrap();
    let stats = StatsCatalog::build(&catalog);
    let cost = CostModel::unit_scale();
    let q = range_query(40_000, 40_100);
    let seek_plan = {
        let ctx = PlannerContext::from_catalog(&catalog, &stats, &cost);
        Planner::new(&ctx).plan(&q)
    };
    assert!(!seek_plan.indexes_used().is_empty(), "must use the index");

    let mut backend = measured();
    let seek = sample_of(
        backend.as_mut(),
        &catalog,
        &q,
        &seek_plan,
        OpKind::IndexSeek,
    );
    let matched = matching_rows(&catalog, 40_000, 40_100);
    assert_eq!(
        (seek.descents, seek.rows, seek.out_rows),
        (1, matched, matched)
    );
    c.bench_function("measured_seek_200k", |b| {
        b.iter(|| backend.execute(&catalog, &q, &seek_plan))
    });
}

/// Measured covering scan over 200k rows, ~50% selective, through an index
/// keyed on `w` that includes `v` and `k`. The executor filters those
/// columns in row order, the same pass as `batch_scan_half_200k`; only the
/// price and the sample differ. The plan is built by hand, so the scan is
/// the only operator.
fn bench_covering_scan(c: &mut Criterion) {
    let mut catalog = bench_catalog();
    let cover = catalog
        .create_index(IndexDef::new(TableId(0), vec![2], vec![1, 0]))
        .unwrap();
    let q = range_query(0, 49_999);
    let plan = Plan {
        driver: TableAccess {
            table: TableId(0),
            method: AccessMethod::CoveringScan { index: cover.id },
            est_rows: 0.0,
        },
        joins: vec![],
        aggregated: false,
        est_cost: SimSeconds::ZERO,
    };
    let mut backend = measured();
    let scan = sample_of(backend.as_mut(), &catalog, &q, &plan, OpKind::CoveringScan);
    assert_eq!(
        (scan.rows, scan.out_rows),
        (ROWS as u64, matching_rows(&catalog, 0, 49_999))
    );
    c.bench_function("covering_scan_200k", |b| {
        b.iter(|| backend.execute(&catalog, &q, &plan))
    });
}

/// Measured hash join of a 20k-row dimension with a 200k-row fact table on
/// its foreign key, so every fact key repeats about ten times. The plan is
/// built by hand: both sides are full scans and the only join is the hash
/// join. The executor builds its table on the smaller input, the 20k
/// dimension rows in every bench. `fk` and `sparse` drive with the
/// dimension, so they build on the outer side and probe with the fact
/// rows; `small_build` drives with the fact table and builds the dimension
/// as the inner side. `fk` and `small_build` join the dense keys, which
/// span 0.1 codes per input row, so the build addresses its slots directly.
/// `sparse` joins the same keys times 1,000, about 90 codes per input row,
/// so the build maps its keys to slots instead. Whichever side is built,
/// the sample counts the inner rows as the build and the outer tuples as
/// the probe, as the cost model prices them.
fn bench_hash_join(c: &mut Criterion) {
    const DIM_ROWS: usize = 20_000;
    let (dim_id, fact_id) = (TableId(0), TableId(1));
    let benches = [
        ("hash_join_fk_200k", 1, fact_id),
        ("hash_join_sparse_200k", 1_000, fact_id),
        ("hash_join_small_build_200k", 1, dim_id),
    ];
    for (name, spread, inner) in benches {
        // Both tables join on a copy of their key times `spread`.
        let spread_key = ColumnSpec::new(
            "spread_key",
            ColumnType::Int,
            Distribution::Correlated {
                source: 0,
                a: spread,
                b: 0,
                m: i64::MAX,
                noise: 0,
            },
        );
        let dim = TableSchema::new(
            "dim",
            vec![
                ColumnSpec::new("d_key", ColumnType::Int, Distribution::Sequential),
                spread_key.clone(),
            ],
        );
        let fact = TableSchema::new(
            "fact",
            vec![
                ColumnSpec::new(
                    "f_dim",
                    ColumnType::Int,
                    Distribution::FkUniform {
                        parent_rows: DIM_ROWS as u64,
                    },
                ),
                spread_key,
            ],
        );
        let catalog = Catalog::new(vec![
            TableBuilder::new(dim, DIM_ROWS).build(dim_id, 5),
            TableBuilder::new(fact, ROWS).build(fact_id, 5),
        ]);
        let join = JoinPred::new(ColumnId::new(dim_id, 1), ColumnId::new(fact_id, 1));
        let q = Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![dim_id, fact_id],
            predicates: vec![],
            joins: vec![join],
            payload: vec![],
            aggregated: false,
        };
        let scan = |table| TableAccess {
            table,
            method: AccessMethod::FullScan,
            est_rows: 0.0,
        };
        let driver = if inner == fact_id { dim_id } else { fact_id };
        let plan = Plan {
            driver: scan(driver),
            joins: vec![JoinStep {
                access: scan(inner),
                algo: JoinAlgo::Hash,
                join,
                est_rows_out: 0.0,
            }],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        // Every fact row finds its one dimension row: the output is the
        // whole fact table.
        let mut backend = measured();
        let hash = sample_of(backend.as_mut(), &catalog, &q, &plan, OpKind::HashJoin);
        let rows = |table| catalog.table(table).rows() as u64;
        assert_eq!(
            (hash.build_rows, hash.probe_rows, hash.out_rows),
            (rows(inner), rows(driver), ROWS as u64)
        );
        c.bench_function(name, |b| b.iter(|| backend.execute(&catalog, &q, &plan)));
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_batch_scan, bench_measured_seek, bench_covering_scan, bench_hash_join
);
criterion_main!(benches);
