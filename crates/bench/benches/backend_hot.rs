//! Criterion benchmarks for the executor's hot paths. Most time an
//! executor on the wall-clock: vectorized batch heap scans, an index seek,
//! a covering scan, hash joins whose output a later step keys on and hash
//! joins only counted. The executor runs one program, timed or not,
//! and replays a repeated (query instance, plan shape) pair without
//! running an operator, so each of these iterations runs on a fresh
//! executor and pays the operator's whole work plus its clock reads and
//! the memo's first insert; the executor is dropped outside the timed
//! region. Each first asserts the operators its plan runs and the shape of
//! the sample it names, so it measures the work it names. The whole-inner
//! hash joins run on the untimed executor, which reads a join table kept
//! over the whole inner table instead of scanning; they assert the
//! operators a timed run of their plan runs, and the join's output against
//! a nested loop.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dba_common::{BudgetTimer, ColumnId, QueryId, SimSeconds, TableId, TemplateId};
use dba_engine::{
    AccessMethod, CostModel, ExecutionBackend, JoinAlgo, JoinPred, JoinStep, OpKind, OpSample,
    Plan, Predicate, Query, TableAccess,
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

/// The executor timing each operator it runs on the wall-clock.
fn wall_timed() -> Box<dyn ExecutionBackend> {
    dba_engine::timed(CostModel::unit_scale(), BudgetTimer::wall())
}

/// Run `plan` once on a fresh wall-timed executor and return its
/// samples, asserting that it ran exactly `ops`, in order.
fn op_samples(catalog: &Catalog, q: &Query, plan: &Plan, ops: &[OpKind]) -> Vec<OpSample> {
    let mut backend = wall_timed();
    backend.execute(catalog, q, plan);
    let samples = backend.take_op_samples();
    let ran: Vec<OpKind> = samples.iter().map(|s| s.op).collect();
    assert_eq!(ran, ops, "the operators the plan runs");
    samples
}

/// Bench `name`: each iteration runs `plan` on a fresh wall-timed
/// executor, so it runs every operator instead of replaying. The routine
/// returns the executor, so it is dropped outside the timed region.
fn bench_fresh(c: &mut Criterion, name: &str, catalog: &Catalog, q: &Query, plan: &Plan) {
    c.bench_function(name, |b| {
        b.iter_batched(
            wall_timed,
            |mut backend| {
                backend.execute(catalog, q, plan);
                backend
            },
            BatchSize::SmallInput,
        )
    });
}

/// Rows of the bench table whose `v` lies in `[lo, hi]`.
fn matching_rows(catalog: &Catalog, lo: i64, hi: i64) -> u64 {
    codes_in(catalog.table(TableId(0)).column(1).data(), lo, hi)
}

/// Codes in `[lo, hi]`, counted one by one: a truth the executor's counts
/// are held against, so it shares none of its kernels.
fn codes_in(codes: &[i64], lo: i64, hi: i64) -> u64 {
    codes.iter().filter(|&v| (lo..=hi).contains(v)).count() as u64
}

/// Vectorized batch heap scan through a timed executor over 200k rows,
/// ~1% and ~50% selective. `cold` round-robins over independently
/// generated (but identical) table allocations so each iteration touches
/// memory the CPU caches have not just seen; `warm` and `half` rescan one
/// allocation. A join-free plan's matches are only counted, so with its one
/// predicate each scan runs the count kernel, which fills no selection
/// vector. At 50% the match test is as unpredictable as it gets, which a
/// per-row branch pays for and the branch-free kernels do not.
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
    let shape = |q: &Query, plan: &Plan| {
        let s = op_samples(&catalogs[0], q, plan, &[OpKind::SeqScan])[0];
        (s.rows, s.out_rows)
    };

    let (q, scan_plan) = scan(40_000, 41_000);
    assert_eq!(
        shape(&q, &scan_plan),
        (ROWS as u64, matching_rows(&catalogs[0], 40_000, 41_000))
    );
    let mut i = 0usize;
    c.bench_function("batch_scan_cold_200k", |b| {
        b.iter_batched(
            || {
                i = (i + 1) % catalogs.len();
                (wall_timed(), &catalogs[i])
            },
            |(mut backend, catalog)| {
                backend.execute(catalog, &q, &scan_plan);
                backend
            },
            BatchSize::SmallInput,
        )
    });
    bench_fresh(c, "batch_scan_warm_200k", &catalogs[0], &q, &scan_plan);

    let (half_q, half_plan) = scan(0, 49_999);
    let half = matching_rows(&catalogs[0], 0, 49_999);
    assert!((ROWS as u64 * 2 / 5..=ROWS as u64 * 3 / 5).contains(&half));
    assert_eq!(shape(&half_q, &half_plan), (ROWS as u64, half));
    bench_fresh(c, "batch_scan_half_200k", &catalogs[0], &half_q, &half_plan);
}

/// Timed index seek end to end: the probe and its leaf range's rows. At
/// 0.1% selectivity the fresh executor's first miss, which keys and fills
/// its memo and allocates its maps and sample buffer, costs about as much
/// as the seek itself.
fn bench_seek(c: &mut Criterion) {
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

    let seek = op_samples(&catalog, &q, &seek_plan, &[OpKind::IndexSeek])[0];
    let matched = matching_rows(&catalog, 40_000, 40_100);
    assert_eq!(
        (seek.descents, seek.rows, seek.out_rows),
        (1, matched, matched)
    );
    bench_fresh(c, "measured_seek_200k", &catalog, &q, &seek_plan);
}

/// Timed covering scan over 200k rows, ~50% selective, through an index
/// keyed on `w` that includes `v` and `k`. The executor counts the matches
/// of those columns in row order, the same pass as `batch_scan_half_200k`;
/// only the price and the sample differ. The plan is built by hand, so the
/// scan is the only operator.
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
    let scan = op_samples(&catalog, &q, &plan, &[OpKind::CoveringScan])[0];
    assert_eq!(
        (scan.rows, scan.out_rows),
        (ROWS as u64, matching_rows(&catalog, 0, 49_999))
    );
    bench_fresh(c, "covering_scan_200k", &catalog, &q, &plan);
}

/// Timed hash joins of a 20k-row dimension with a 200k-row fact table on
/// its foreign key, so every fact key repeats about ten times. The plans
/// are built by hand, with full scans on both sides. The inner side
/// carries a predicate that keeps every row, so the executor scans it
/// instead of reading a join table kept over the whole table. Every fact
/// row finds its one dimension row: the join's output is the whole fact
/// table. So the outer keys list every inner row, and no join probes a
/// kept table instead of scanning; but `fk`, `sparse` and `count_dim_outer`
/// drive with 20k dimension tuples, under an eighth of the 200k fact rows,
/// so each fresh executor first builds the join table kept over the fact
/// rows to sum what their keys list there, and that build is timed with the
/// join (an executor that runs many queries builds it once).
///
/// In `hash_join_{fk,sparse,small_build}_200k` a later step keys on the
/// dimension's `d_key`, so the join emits a weighted `d_key` tuple per
/// pair it joins: that step joins an 8-row table on `t_key = d_key`, read
/// whole through a join table the fresh executor builds and keeps, and
/// counts the tuples' keys against it. `fk` and `sparse` drive with the
/// dimension, whose 20k tuples carry `d_key` beside the join key: the join
/// lists the 200k fact rows by key and emits each dimension tuple once,
/// weighted by its key's rows. `fk` joins the dense keys, which span 0.1
/// codes per input row, so the listing addresses its slots directly;
/// `sparse` joins the same keys times 1,000, about 90 codes per input row,
/// so it maps keys to slots instead. `small_build` drives with the fact
/// table, whose 200k one-code tuples are their join keys: their weights
/// are summed into 20k keys, and each inner dimension row joins its key's
/// sum and emits its `d_key`.
///
/// In `hash_join_count_{dim,fact}_outer_200k` the join is the last step
/// and only counts: the outer weights are summed per key and each inner
/// row adds its key's sum. `dim_outer` drives with the dimension, so it
/// sums 20k outer tuples and streams 200k fact rows; `fact_outer` drives
/// with the fact table, so it sums 200k outer tuples and streams 20k
/// dimension rows.
///
/// In every bench the inner scan runs inside the join, whose sample holds
/// its work and counts the inner rows as the build and the outer tuples as
/// the probe, as the cost model prices them.
fn bench_hash_join(c: &mut Criterion) {
    // (bench, key spread, inner table, whether a later step keys on the
    // join's output)
    let benches = [
        ("hash_join_fk_200k", 1, FACT, true),
        ("hash_join_sparse_200k", 1_000, FACT, true),
        ("hash_join_small_build_200k", 1, DIM, true),
        ("hash_join_count_dim_outer_200k", 1, FACT, false),
        ("hash_join_count_fact_outer_200k", 1, DIM, false),
    ];
    for (name, spread, inner, later_step) in benches {
        let catalog = join_catalog(spread);
        let driver = if inner == FACT { DIM } else { FACT };
        let every_row = Predicate::range(ColumnId::new(inner, 0), i64::MIN, i64::MAX);
        let (mut q, mut plan) = scan_join(driver, inner, vec![every_row]);
        // Each join runs its inner scan inside it; the join over the 8-row
        // table reads a kept table and leaves no scan either.
        let ops: &[OpKind] = if later_step {
            join_tiny_after(&mut q, &mut plan);
            &[OpKind::SeqScan, OpKind::HashJoin, OpKind::HashJoin]
        } else {
            &[OpKind::SeqScan, OpKind::HashJoin]
        };
        let samples = op_samples(&catalog, &q, &plan, ops);
        let hash = samples[1];
        let rows = |table| catalog.table(table).rows() as u64;
        let pages = catalog.table(inner).heap_pages();
        assert_eq!(
            (hash.build_rows, hash.probe_rows, hash.out_rows),
            (rows(inner), rows(driver), ROWS as u64),
            "{name}"
        );
        // The inner scan's pages and rows.
        assert_eq!((hash.pages, hash.rows), (pages, rows(inner)), "{name}");
        if later_step {
            // The fact rows whose dimension row's `d_key` is below 8.
            let tiny = codes_in(catalog.table(FACT).column(0).data(), 0, 7);
            assert_eq!(samples[2].out_rows, tiny, "{name}: the later step");
        }
        bench_fresh(c, name, &catalog, &q, &plan);
    }
}

/// The join benches' dimension and fact tables, and a table of 8 rows.
const DIM: TableId = TableId(0);
const FACT: TableId = TableId(1);
const TINY: TableId = TableId(2);
const DIM_ROWS: usize = 20_000;

/// A 20k-row dimension, its `d_key` sequential, and a 200k-row fact table
/// whose `f_dim` is a uniform foreign key into it. Both join on a copy of
/// their key times `spread`, their second column. A third table holds the
/// 8 sequential codes `t_key`.
fn join_catalog(spread: i64) -> Catalog {
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
    let tiny = TableSchema::new(
        "tiny",
        vec![ColumnSpec::new(
            "t_key",
            ColumnType::Int,
            Distribution::Sequential,
        )],
    );
    Catalog::new(vec![
        TableBuilder::new(dim, DIM_ROWS).build(DIM, 5),
        TableBuilder::new(fact, ROWS).build(FACT, 5),
        TableBuilder::new(tiny, 8).build(TINY, 5),
    ])
}

/// A query joining the two tables on their spread keys under
/// `predicates`, and the plan that scans `driver` and hash joins `inner`,
/// scanned too.
fn scan_join(driver: TableId, inner: TableId, predicates: Vec<Predicate>) -> (Query, Plan) {
    let join = JoinPred::new(ColumnId::new(DIM, 1), ColumnId::new(FACT, 1));
    let q = Query {
        id: QueryId(0),
        template: TemplateId(0),
        tables: vec![DIM, FACT],
        predicates,
        joins: vec![join],
        payload: vec![],
        aggregated: false,
    };
    let scan = |table| TableAccess {
        table,
        method: AccessMethod::FullScan,
        est_rows: 0.0,
    };
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
    (q, plan)
}

/// Append to `plan` for `q` a last step that hash joins the 8-row table on
/// `t_key = d_key`, reading it whole, so the step before emits the
/// dimension's `d_key` with each of its tuples.
fn join_tiny_after(q: &mut Query, plan: &mut Plan) {
    let join = JoinPred::new(ColumnId::new(TINY, 0), ColumnId::new(DIM, 0));
    q.tables.push(TINY);
    q.joins.push(join);
    plan.joins.push(JoinStep {
        access: TableAccess {
            table: TINY,
            method: AccessMethod::FullScan,
            est_rows: 0.0,
        },
        algo: JoinAlgo::Hash,
        join,
        est_rows_out: 0.0,
    });
}

/// Untimed hash join of the 200k-row fact table, with no predicate on it,
/// driven by the dense-key dimension filtered to about 1% by a range on
/// `d_key`; the join only counts its output. The untimed executor reads a
/// join table it keeps over every fact row, counted by key, instead of
/// scanning. `executor_hash_join_whole_inner_200k` gives each sample a
/// fresh executor, which builds that table once. The warm bench keeps one
/// executor and moves the dimension's range on every iteration, so the memo
/// misses but the join table is kept.
fn bench_hash_join_whole_inner(c: &mut Criterion) {
    let catalog = join_catalog(1);
    let cost = CostModel::unit_scale();
    let query = |lo: i64, hi: i64| {
        let d_key = Predicate::range(ColumnId::new(DIM, 0), lo, hi);
        scan_join(DIM, FACT, vec![d_key])
    };
    // The nested loop over the dimension rows in range and every fact row.
    let fact_keys = catalog.table(FACT).column(1).data();
    let nested_loop = |lo: i64, hi: i64| {
        let dim_keys = catalog.table(DIM).column(1).data();
        (lo..=hi)
            .map(|k| {
                let key = dim_keys[k as usize];
                fact_keys.iter().filter(|&&f| f == key).count() as u64
            })
            .sum::<u64>()
    };
    let width = DIM_ROWS as i64 / 100;
    let (q, plan) = query(5_000, 5_000 + width - 1);
    // A kept table serves the join: the scan of the fact table never runs.
    let join = op_samples(&catalog, &q, &plan, &[OpKind::SeqScan, OpKind::HashJoin])[1];
    assert_eq!((join.pages, join.rows), (0, 0), "no inner scan");
    let first = dba_engine::simulated(cost.clone()).execute(&catalog, &q, &plan);
    assert_eq!(first.result_rows, nested_loop(5_000, 5_000 + width - 1));
    c.bench_function("executor_hash_join_whole_inner_200k", |b| {
        b.iter_batched(
            || dba_engine::simulated(cost.clone()),
            |mut executor| {
                executor.execute(&catalog, &q, &plan);
                executor
            },
            BatchSize::SmallInput,
        )
    });

    // Iteration `i` reads the range starting at `i` modulo the dimension's
    // last full range, one key wider at each wrap, so no range repeats.
    let range = |i: i64| {
        let starts = DIM_ROWS as i64 - width;
        let lo = i % starts;
        (lo, lo + width - 1 + i / starts)
    };
    let mut warm = dba_engine::simulated(cost.clone());
    for i in [0, 1, 12_345] {
        let (lo, hi) = range(i);
        let (q, plan) = query(lo, hi);
        let got = warm.execute(&catalog, &q, &plan);
        assert_eq!(got.result_rows, nested_loop(lo, hi), "range {lo}..={hi}");
    }
    let mut i = 12_345;
    c.bench_function("executor_hash_join_whole_inner_warm_200k", |b| {
        b.iter(|| {
            i += 1;
            let (lo, hi) = range(i);
            let (q, plan) = query(lo, hi);
            warm.execute(&catalog, &q, &plan)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_batch_scan, bench_seek, bench_covering_scan, bench_hash_join,
        bench_hash_join_whole_inner
);
criterion_main!(benches);
