//! Criterion micro-benchmarks for the hot paths of the system: C2UCB
//! scoring and updates, the greedy oracle, the executor's operators, the
//! planner, and what-if costing. These quantify the *real* compute cost
//! of one tuning round (as opposed to the simulated times the experiment
//! binaries report).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dba_common::{rng::rng_for, ColumnId, QueryId, TableId, TemplateId};
use dba_core::{
    linalg::SparseVec,
    oracle::{greedy_select, OracleInput},
    C2Ucb, C2UcbConfig,
};
use dba_engine::{simulated, CostModel, Predicate, Query};
use dba_optimizer::{Planner, PlannerContext, StatsCatalog, WhatIfService};
use dba_storage::{
    Catalog, ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema,
};
use rand::Rng;

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
            ColumnSpec::new(
                "z",
                ColumnType::Int,
                Distribution::Zipf { n: 10_000, s: 1.2 },
            ),
        ],
    );
    Catalog::new(vec![TableBuilder::new(t, 200_000).build(TableId(0), 5)])
}

fn point_query(v: i64) -> Query {
    Query {
        id: QueryId(0),
        template: TemplateId(0),
        tables: vec![TableId(0)],
        predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 1), v)],
        joins: vec![],
        payload: vec![ColumnId::new(TableId(0), 0)],
        aggregated: false,
    }
}

/// `n` sparse contexts over `d` dimensions, with 2–6 non-zeros each.
fn sparse_contexts(rng: &mut impl Rng, d: usize, n: usize) -> Vec<SparseVec> {
    (0..n)
        .map(|_| {
            let nnz = rng.gen_range(2..7);
            let mut v: SparseVec = (0..nnz)
                .map(|_| (rng.gen_range(0..d), rng.gen_range(0.01..1.0)))
                .collect();
            v.sort_unstable_by_key(|&(i, _)| i);
            v.dedup_by_key(|&mut (i, _)| i);
            v
        })
        .collect()
}

/// C2UCB: score 3,000 sparse arms at d = 430 (the TPC-DS regime) and run
/// a 10-arm super-arm update; then the streaming fast path's batched
/// update at TPC-H's width (d = 40: 37 columns plus 3 derived features),
/// which stages the 10 plays and re-inverts `V` once.
fn bench_c2ucb(c: &mut Criterion) {
    let config = C2UcbConfig { alpha: 1.0 };
    let d = 430;
    let mut bandit = C2Ucb::new(d, config);
    let mut rng = rng_for(1, "bench-c2ucb", 0);
    let contexts = sparse_contexts(&mut rng, d, 3000);
    // Warm the model.
    let plays: Vec<(SparseVec, f64)> = contexts[..10].iter().map(|x| (x.clone(), 1.0)).collect();
    bandit.update_sparse(&plays);

    c.bench_function("c2ucb_score_3000_arms_d430", |b| {
        b.iter(|| bandit.ucb_scores_sparse(&contexts))
    });
    c.bench_function("c2ucb_update_10_arms_d430", |b| {
        b.iter_batched(
            || bandit.clone(),
            |mut bd| bd.update_sparse(&plays),
            BatchSize::SmallInput,
        )
    });

    let d = 40;
    let mut narrow = C2Ucb::new(d, config);
    let windows: Vec<Vec<(SparseVec, f64)>> = sparse_contexts(&mut rng, d, 210)
        .chunks(10)
        .map(|window| window.iter().map(|x| (x.clone(), 1.0)).collect())
        .collect();
    // Warm the model with 20 windows, then time the 21st.
    let (next, warm) = windows.split_last().expect("21 windows");
    for window in warm {
        narrow.update_sparse_batched(window);
    }
    c.bench_function("c2ucb_update_batched_10_arms_d40", |b| {
        b.iter_batched(
            || narrow.clone(),
            |mut bd| bd.update_sparse_batched(next),
            BatchSize::SmallInput,
        )
    });
}

/// Greedy oracle over 2,000 candidates.
fn bench_oracle(c: &mut Criterion) {
    let mut rng = rng_for(2, "bench-oracle", 0);
    let inputs: Vec<OracleInput> = (0..2000)
        .map(|i| OracleInput {
            arm_idx: i,
            score: rng.gen_range(-1.0..10.0),
            size_bytes: rng.gen_range(1_000..1_000_000),
            def: IndexDef::new(
                TableId((i % 7) as u32),
                vec![(i % 5) as u16, ((i / 5) % 4) as u16],
                vec![],
            ),
            generated_by: vec![TemplateId((i % 40) as u32)],
            covers: if i % 11 == 0 {
                vec![TemplateId((i % 40) as u32)]
            } else {
                vec![]
            },
        })
        .collect();
    c.bench_function("oracle_greedy_2000_candidates", |b| {
        b.iter_batched(
            || inputs.clone(),
            |cands| greedy_select(cands, 50_000_000),
            BatchSize::SmallInput,
        )
    });
}

/// Executor: full scan vs selective index seek on 200k rows, each on a
/// fresh executor so that every sample runs the operators, and the replay
/// of a repeated (query, plan) pair that an untimed executor has run.
fn bench_executor(c: &mut Criterion) {
    let mut catalog = bench_catalog();
    let meta = catalog
        .create_index(IndexDef::new(TableId(0), vec![1], vec![0]))
        .unwrap();
    let stats = StatsCatalog::build(&catalog);
    let cost = CostModel::unit_scale();
    let q = point_query(555);

    let scan_plan = {
        let empty = catalog.fork_empty();
        let ctx = PlannerContext::from_catalog(&empty, &stats, &cost);
        Planner::new(&ctx).plan(&q)
    };
    let seek_plan = {
        let ctx = PlannerContext::from_catalog(&catalog, &stats, &cost);
        Planner::new(&ctx).plan(&q)
    };
    assert!(seek_plan.indexes_used().contains(&meta.id));

    for (name, plan) in [
        ("executor_full_scan_200k", &scan_plan),
        ("executor_index_seek_200k", &seek_plan),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || simulated(cost.clone()),
                |mut executor| {
                    executor.execute(&catalog, &q, plan);
                    executor
                },
                BatchSize::SmallInput,
            )
        });
    }
    let mut executor = simulated(cost.clone());
    let first = executor.execute(&catalog, &q, &scan_plan);
    c.bench_function("executor_replay_200k", |b| {
        b.iter(|| {
            let replay = executor.execute(&catalog, &q, &scan_plan);
            assert_eq!(replay.result_rows, first.result_rows);
            replay
        })
    });
}

/// Planner + what-if costing.
fn bench_optimizer(c: &mut Criterion) {
    let catalog = bench_catalog();
    let stats = StatsCatalog::build(&catalog);
    let cost = CostModel::unit_scale();
    let q = point_query(777);

    c.bench_function("planner_single_table", |b| {
        let ctx = PlannerContext::from_catalog(&catalog, &stats, &cost);
        let planner = Planner::new(&ctx);
        b.iter(|| planner.plan(&q))
    });

    let hypo: Vec<IndexDef> = (0..16)
        .map(|i| IndexDef::new(TableId(0), vec![(i % 4) as u16], vec![]))
        .collect();
    // Fresh service per iteration: this bench measures *cold* what-if
    // planning over 16 candidates — a reused service would answer from
    // its memo after the first iteration and measure only the recost hit
    // path (whatif_guard_round_warm covers that).
    c.bench_function("whatif_16_hypotheticals", |b| {
        b.iter_batched(
            || WhatIfService::new(cost.clone()),
            |mut wi| wi.cost_query(&catalog, &stats, &q, &hypo),
            BatchSize::SmallInput,
        )
    });
}

/// The shared what-if service under the guarded-suite round shape: shadow
/// baselines (empty + previous config) plus the rollback assessment (full
/// config + leave-one-out per index) over a 12-template round of star
/// joins (the SSB-like shape guarded suites actually price — join
/// ordering and per-table access search make each fresh plan expensive).
/// Cold plans every (template, configuration) pair; warm — the steady
/// state of a guarded session, where consecutive rounds repeat templates
/// over an unchanged catalog — answers from the memo with one fixed-plan
/// recost per costing. The gap is the round-time drop the service buys.
fn bench_whatif_service(c: &mut Criterion) {
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
                Distribution::FkUniform { parent_rows: 2_000 },
            ),
            ColumnSpec::new(
                "f_v",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99_999 },
            ),
            ColumnSpec::new(
                "f_w",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99 },
            ),
        ],
    );
    let catalog = Catalog::new(vec![
        TableBuilder::new(dim, 2_000).build(TableId(0), 5),
        TableBuilder::new(fact, 200_000).build(TableId(1), 5),
    ]);
    let stats = StatsCatalog::build(&catalog);
    let cost = CostModel::unit_scale();
    let defs: Vec<IndexDef> = vec![
        IndexDef::new(TableId(1), vec![0], vec![1]),
        IndexDef::new(TableId(1), vec![1], vec![]),
        IndexDef::new(TableId(1), vec![2], vec![1]),
        IndexDef::new(TableId(0), vec![1], vec![0]),
    ];
    let queries: Vec<Query> = (0..12)
        .map(|i| Query {
            id: QueryId(i),
            template: TemplateId(i as u32),
            tables: vec![TableId(0), TableId(1)],
            predicates: vec![
                Predicate::eq(ColumnId::new(TableId(0), 1), (i as i64 * 7) % 100),
                Predicate::range(
                    ColumnId::new(TableId(1), 2),
                    (i as i64 * 5) % 50,
                    (i as i64 * 5) % 50 + 20,
                ),
            ],
            joins: vec![dba_engine::JoinPred::new(
                ColumnId::new(TableId(0), 0),
                ColumnId::new(TableId(1), 0),
            )],
            payload: vec![ColumnId::new(TableId(1), 1)],
            aggregated: true,
        })
        .collect();

    let unit = vec![1.0; queries.len()];
    let guard_round = |svc: &mut WhatIfService| {
        // Shadow baselines: do-nothing and freeze-counterfactual.
        let _ = svc.cost_workload(&catalog, &stats, &queries, &unit, &[]);
        let _ = svc.cost_workload(&catalog, &stats, &queries, &unit, &defs);
        // Rollback assessment: one leave-one-out configuration at a time.
        (0..defs.len())
            .map(|skip| {
                let without: Vec<IndexDef> = defs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != skip)
                    .map(|(_, d)| d.clone())
                    .collect();
                svc.cost_workload(&catalog, &stats, &queries, &unit, &without)
            })
            .collect::<Vec<_>>()
    };

    c.bench_function("whatif_guard_round_cold", |b| {
        b.iter_batched(
            || WhatIfService::new(cost.clone()),
            |mut svc| guard_round(&mut svc),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("whatif_guard_round_warm", |b| {
        let mut svc = WhatIfService::new(cost.clone());
        guard_round(&mut svc); // warm the memo: round 2 onwards hits
        b.iter(|| guard_round(&mut svc))
    });
}

/// Create `def` on `cat` and read its leaf order; returns the order's
/// address.
fn create_and_read(cat: &mut Catalog, def: &IndexDef) -> *const u32 {
    let meta = cat.create_index(def.clone()).unwrap();
    let ix = cat.index(meta.id).unwrap();
    ix.ordered_rows(cat.table(TableId(0))).as_ptr()
}

/// Index construction on 200k rows: the create plus the first read. Each
/// sample creates the index over a fresh base, generated in the untimed
/// setup, so every first read sorts the leaf order. Key `[1, 2]` packs
/// into 42 bits with the row id, so it takes the radix kernel;
/// `[0, 1, 2, 3]` needs about 74 bits and takes the comparator sort.
///
/// A base retains the order of a key sorted twice over it, so from the
/// third creation on, the first read shares that order instead of sorting.
/// `index_recreate_retained_200k` times such a creation and checks that it
/// shares the retained allocation.
fn bench_index_build(c: &mut Criterion) {
    for (name, key, include) in [
        ("index_build_200k_rows", vec![1, 2], vec![0]),
        ("index_build_200k_rows_wide_key", vec![0, 1, 2, 3], vec![]),
    ] {
        let def = IndexDef::new(TableId(0), key, include);
        c.bench_function(name, |b| {
            // Holds the sample's base, so the previous one is freed in the
            // setup, outside the timing.
            let mut base = None;
            b.iter_batched(
                || base.insert(bench_catalog()).fork_empty(),
                |mut cat| create_and_read(&mut cat, &def),
                BatchSize::SmallInput,
            )
        });
    }

    let base = bench_catalog();
    let def = IndexDef::new(TableId(0), vec![1, 2], vec![0]);
    // The first sort stays with its index; the second is retained.
    create_and_read(&mut base.fork_empty(), &def);
    let retained = create_and_read(&mut base.fork_empty(), &def);
    c.bench_function("index_recreate_retained_200k", |b| {
        b.iter_batched(
            || base.fork_empty(),
            |mut cat| {
                let order = create_and_read(&mut cat, &def);
                assert_eq!(order, retained, "re-created index sorted again");
                order
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_c2ucb, bench_oracle, bench_executor, bench_optimizer, bench_whatif_service,
        bench_index_build
);
criterion_main!(benches);
