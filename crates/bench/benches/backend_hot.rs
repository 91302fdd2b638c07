//! Criterion benchmarks for the executor's timed hot paths: vectorized
//! batch heap scans and index seeks with heap gather, run on a `Measured`
//! executor. These are the operators the executor times on the
//! wall-clock, so their own overheads bound how small a workload the
//! calibration fit can resolve.

use criterion::{criterion_group, criterion_main, Criterion};

use dba_common::{BudgetTimer, ColumnId, QueryId, TableId, TemplateId};
use dba_engine::{BackendKind, CostModel, ExecutionBackend, Predicate, Query};
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

/// Vectorized batch heap scan through the measured executor, ~1% selective
/// over 200k rows. `cold` round-robins over independently generated (but
/// identical) table allocations so each iteration touches memory the CPU
/// caches have not just seen; `warm` rescans one allocation.
fn bench_batch_scan(c: &mut Criterion) {
    let catalogs: Vec<Catalog> = (0..8).map(|_| bench_catalog()).collect();
    let stats = StatsCatalog::build(&catalogs[0]);
    let cost = CostModel::unit_scale();
    let q = range_query(40_000, 41_000);
    let scan_plan = {
        let ctx = PlannerContext::from_catalog(&catalogs[0], &stats, &cost);
        Planner::new(&ctx).plan(&q)
    };
    assert!(scan_plan.indexes_used().is_empty(), "must be a heap scan");
    let mut backend = measured();

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
    c.bench_function("measured_seek_200k", |b| {
        b.iter(|| backend.execute(&catalog, &q, &seek_plan))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_batch_scan, bench_measured_seek
);
criterion_main!(benches);
