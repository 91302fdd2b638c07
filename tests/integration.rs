//! Cross-crate integration tests: the full tuning loop through the public
//! [`TuningSession`] facade, plus randomized invariants on the
//! planner/executor pair (deterministic seeded sweeps — the offline
//! environment has no proptest, so properties are checked over a fixed
//! fan-out of seeds via the workspace's own RNG).

use dba_bandits::prelude::*;
use dba_common::rng::rng_for;
use dba_common::{ColumnId, QueryId, TableId, TemplateId};
use dba_engine::Predicate;
use dba_storage::{ColumnSpec, ColumnType, Distribution, TableBuilder, TableSchema};
use rand::Rng;

/// Drive the full loop (benchmark → tuner → planner → executor → rewards)
/// on a small SSB and check the bandit ends up faster than it started.
#[test]
fn mab_improves_ssb_end_to_end() {
    let mut session = SessionBuilder::new()
        .benchmark(dba_bandits::workloads::ssb::ssb(0.05))
        .workload(WorkloadKind::Static { rounds: 8 })
        .tuner(TunerKind::Mab)
        .seed(3)
        .build()
        .unwrap();

    let mut first = 0.0;
    let mut last = 0.0;
    session
        .run_with(&mut |event| {
            if event.round == 1 {
                first = event.record.execution.secs();
            }
            last = event.record.execution.secs();
        })
        .unwrap();
    assert!(
        last < first * 0.8,
        "MAB should improve execution: round1 {first:.1}s, round8 {last:.1}s"
    );
    assert!(session.catalog().index_bytes() <= session.catalog().database_bytes());
}

/// The advisor interface is interchangeable: every tuner kind runs the
/// same session loop over shared data and respects the memory budget.
#[test]
fn all_advisors_run_uniformly() {
    let bench = dba_bandits::workloads::tpch::tpch(0.02);
    let base = bench.build_catalog(5).unwrap();
    let budget = base.database_bytes();

    for kind in [
        TunerKind::NoIndex,
        TunerKind::PdTool,
        TunerKind::Mab,
        TunerKind::Ddqn { seed: 1 },
    ] {
        let mut session = SessionBuilder::new()
            .benchmark(bench.clone())
            .shared_data(&base)
            .workload(WorkloadKind::Static { rounds: 3 })
            .tuner(kind)
            .seed(5)
            .build()
            .unwrap();
        let result = session.run().unwrap();
        assert_eq!(result.rounds.len(), 3, "{} ran all rounds", result.tuner);
        for round in &result.rounds {
            assert!(round.recommendation.secs() >= 0.0);
        }
        assert!(
            session.catalog().index_bytes() <= budget,
            "{} exceeded the memory budget",
            result.tuner
        );
        assert_eq!(result.tuner, kind.label());
    }
}

/// What-if estimates must equal the planner's estimates over the
/// materialised index (facade-level check of the optimiser's defining
/// invariant).
#[test]
fn whatif_matches_materialised_costing() {
    let bench = dba_bandits::workloads::tpch::tpch(0.02);
    let catalog = bench.build_catalog(11).unwrap();
    let stats = StatsCatalog::build(&catalog);
    let cost = CostModel::paper_scale();
    let q = bench.templates()[5] // Q6: single-table lineitem
        .instantiate(&catalog, QueryId(0), 11, 0)
        .unwrap();
    let lineitem = catalog.table_by_name("lineitem").unwrap().id();
    let shipdate = catalog
        .table_by_name("lineitem")
        .unwrap()
        .column_by_name("l_shipdate")
        .unwrap()
        .0;
    let def = IndexDef::new(lineitem, vec![shipdate], vec![]);

    let hypo = WhatIfService::new(cost.clone())
        .cost_query(&catalog, &stats, &q, std::slice::from_ref(&def))
        .est_cost;

    let mut catalog2 = catalog.fork_empty();
    catalog2.create_index(def).unwrap();
    let ctx = PlannerContext::from_catalog(&catalog2, &stats, &cost);
    let real = Planner::new(&ctx).plan(&q).est_cost;
    assert!((hypo.secs() - real.secs()).abs() < 1e-9);
}

/// Recosting is planning's own arithmetic on every benchmark template:
/// `cost_plan(q, &plan(q))` equals `plan(q).est_cost` bit for bit, and a
/// what-if hit prices an instance exactly as the miss before it did. Every
/// predicate and join column is indexed key-only and covering, half of the
/// indexes before three drift rounds and half after, so seeks, covering
/// scans, hash and index-nested-loop joins all appear, and the indexes
/// carry different growth since creation.
#[test]
fn recost_reproduces_planning_on_benchmark_templates() {
    use dba_bandits::engine::plan::{AccessMethod, JoinAlgo};
    use dba_bandits::workloads::{ssb::ssb, tpch::tpch};

    let cost = CostModel::paper_scale();
    let (mut hash, mut inl, mut covering, mut seeks) = (0, 0, 0, 0);
    for (bench, drift) in [
        (tpch(0.02), DataDrift::tpch_refresh()),
        (
            ssb(0.05),
            DataDrift::uniform(DriftRates::new(0.02, 0.01, 0.02)),
        ),
    ] {
        let mut catalog = bench.build_catalog(21).unwrap();
        let queries: Vec<Query> = bench
            .templates()
            .iter()
            .flat_map(|t| (0..3).map(|round| t.instantiate(&catalog, QueryId(0), 21, round)))
            .collect::<Result<_, _>>()
            .unwrap();

        let mut defs: Vec<IndexDef> = Vec::new();
        for q in &queries {
            for &table in &q.tables {
                let needed = q.columns_needed_on(table);
                let keys = q
                    .predicates_on(table)
                    .into_iter()
                    .map(|p| p.column)
                    .chain(q.join_columns_on(table));
                for key in keys {
                    let rest = needed.iter().copied().filter(|&c| c != key.ordinal);
                    for def in [
                        IndexDef::new(table, vec![key.ordinal], vec![]),
                        IndexDef::new(table, vec![key.ordinal], rest.collect()),
                    ] {
                        if !defs.contains(&def) {
                            defs.push(def);
                        }
                    }
                }
            }
        }
        let (early, late) = defs.split_at(defs.len() / 2);
        for def in early {
            catalog.create_index(def.clone()).unwrap();
        }
        for round in 0..3 {
            for d in drift.deltas_for_round(&catalog, 21, round) {
                catalog.apply_drift(d.table, d.inserted, d.updated, d.deleted);
            }
        }
        for def in late {
            catalog.create_index(def.clone()).unwrap();
        }
        let stats = StatsCatalog::build(&catalog);
        let ctx = PlannerContext::from_catalog(&catalog, &stats, &cost);
        let planner = Planner::new(&ctx);

        for q in &queries {
            let plan = planner.plan(q);
            let recost = planner.cost_plan(q, &plan).unwrap();
            assert_eq!(
                recost.secs().to_bits(),
                plan.est_cost.secs().to_bits(),
                "template {:?}: recost {} vs estimate {}",
                q.template,
                recost.secs(),
                plan.est_cost.secs()
            );
            match plan.driver.method {
                AccessMethod::IndexSeek { .. } => seeks += 1,
                AccessMethod::CoveringScan { .. } => covering += 1,
                AccessMethod::FullScan => {}
            }
            for step in &plan.joins {
                match step.algo {
                    JoinAlgo::Hash => hash += 1,
                    JoinAlgo::IndexNestedLoop => inl += 1,
                }
                if matches!(step.access.method, AccessMethod::CoveringScan { .. }) {
                    covering += 1;
                }
            }

            let mut whatif = WhatIfService::new(cost.clone());
            let miss = whatif.cost_query(&catalog, &stats, q, &defs).est_cost;
            let hit = whatif.cost_query(&catalog, &stats, q, &defs).est_cost;
            assert_eq!((whatif.stats().misses, whatif.stats().hits), (1, 1));
            assert_eq!(
                miss.secs().to_bits(),
                hit.secs().to_bits(),
                "template {:?}: what-if miss {} vs hit {}",
                q.template,
                miss.secs(),
                hit.secs()
            );
        }
    }
    for (shape, count) in [
        ("hash join", hash),
        ("index nested loop", inl),
        ("covering scan", covering),
        ("seek driver", seeks),
    ] {
        assert!(count > 0, "no {shape} in any plan");
    }
}

/// Identical seeds give bit-identical experiment streams across the whole
/// stack (data, params, tuning) — the reproducibility contract.
#[test]
fn full_stack_determinism() {
    let run = || {
        let bench = dba_bandits::workloads::imdb::imdb(1.0);
        let base = bench.build_catalog(17).unwrap();
        let budget = base.database_bytes() / 2;
        let mut trace = Vec::new();
        SessionBuilder::new()
            .benchmark(bench)
            .shared_data(&base)
            .workload(WorkloadKind::Random {
                rounds: 3,
                queries_per_round: 6,
            })
            .tuner(TunerKind::Mab)
            .seed(17)
            .memory_budget_bytes(budget)
            .build()
            .unwrap()
            .run_with(&mut |event| trace.push(event.record.execution.secs()))
            .unwrap();
        trace
    };
    assert_eq!(run(), run());
}

/// The observer sees exactly the rounds the result reports, in order,
/// with consistent accounting.
#[test]
fn observer_events_match_run_result() {
    let mut events = Vec::new();
    let result = SessionBuilder::new()
        .benchmark(dba_bandits::workloads::ssb::ssb(0.02))
        .workload(WorkloadKind::Static { rounds: 4 })
        .tuner(TunerKind::Mab)
        .seed(9)
        .build()
        .unwrap()
        .run_with(&mut |event: &RoundEvent| {
            events.push((event.round, event.rounds_total, event.record.total().secs()))
        })
        .unwrap();
    assert_eq!(events.len(), result.rounds.len());
    for (i, (round, total_rounds, total_s)) in events.iter().enumerate() {
        assert_eq!(*round, i + 1);
        assert_eq!(*total_rounds, 4);
        assert!((total_s - result.rounds[i].total().secs()).abs() < 1e-12);
    }
}

/// Scenario sweep: every workload axis — static, shifting, random, and
/// dynamic-data drift — under both a tight and an unbounded memory budget
/// completes without panicking, and every round record is finite.
#[test]
fn scenario_sweep_never_panics_and_stays_finite() {
    let bench = dba_bandits::workloads::ssb::ssb(0.02);
    let base = bench.build_catalog(13).unwrap();

    let scenarios: Vec<(&str, WorkloadKind, Option<DataDrift>)> = vec![
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
    ];
    let budgets = [
        ("tight", base.database_bytes() / 8),
        ("unbounded", u64::MAX),
    ];

    for (wname, workload, drift) in &scenarios {
        for &(bname, budget) in &budgets {
            for seed in [3u64, 17] {
                let mut builder = SessionBuilder::new()
                    .benchmark(bench.clone())
                    .shared_data(&base)
                    .workload(*workload)
                    .tuner(TunerKind::Mab)
                    .seed(seed)
                    .memory_budget_bytes(budget);
                if let Some(drift) = drift {
                    builder = builder.data_drift(drift.clone());
                }
                let mut session = builder
                    .build()
                    .unwrap_or_else(|e| panic!("{wname}/{bname}/{seed}: {e}"));
                let result = session
                    .run()
                    .unwrap_or_else(|e| panic!("{wname}/{bname}/{seed}: {e}"));
                assert_eq!(result.rounds.len(), workload.rounds());
                for r in &result.rounds {
                    for (part, v) in [
                        ("recommendation", r.recommendation.secs()),
                        ("creation", r.creation.secs()),
                        ("execution", r.execution.secs()),
                        ("maintenance", r.maintenance.secs()),
                        ("total", r.total().secs()),
                    ] {
                        assert!(
                            v.is_finite() && v >= 0.0,
                            "{wname}/{bname}/{seed} round {}: {part} = {v}",
                            r.round
                        );
                    }
                }
                if budget != u64::MAX {
                    assert!(
                        session.catalog().index_bytes() <= budget,
                        "{wname}/{bname}/{seed}: budget exceeded"
                    );
                }
                if drift.is_some() {
                    assert!(session.catalog().has_drift(), "{wname}: drift must apply");
                } else {
                    assert_eq!(result.total_maintenance().secs(), 0.0);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Randomized invariants (deterministic seeded sweeps)
// ---------------------------------------------------------------------

/// Naive reference evaluation of a single-table conjunctive query.
fn reference_count(catalog: &Catalog, table: TableId, preds: &[Predicate]) -> u64 {
    let t = catalog.table(table);
    (0..t.rows())
        .filter(|&r| {
            preds
                .iter()
                .all(|p| p.matches(t.column(p.column.ordinal).value(r)))
        })
        .count() as u64
}

fn prop_catalog(rows: usize, seed: u64) -> Catalog {
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnSpec::new("a", ColumnType::Int, Distribution::Sequential),
            ColumnSpec::new(
                "b",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 50 },
            ),
            ColumnSpec::new("c", ColumnType::Int, Distribution::Zipf { n: 40, s: 1.5 }),
        ],
    );
    Catalog::new(vec![TableBuilder::new(schema, rows).build(TableId(0), seed)])
}

/// Whatever plan the optimiser picks — scan, seek, covering, with any
/// index set materialised — the executor's result cardinality equals
/// naive evaluation, and access costs are non-negative.
#[test]
fn planner_executor_agree_with_reference() {
    for case in 0..48u64 {
        let mut rng = rng_for(0xA11CE, "prop-planner", case);
        let seed = rng.gen_range(0u64..500);
        let rows = rng.gen_range(200usize..1500);
        let b_lo = rng.gen_range(0i64..40);
        let b_width = rng.gen_range(0i64..15);
        let c_val = rng.gen_range(0i64..40);
        let with_index = rng.gen_bool(0.5);
        let with_covering = rng.gen_bool(0.5);

        let mut catalog = prop_catalog(rows, seed);
        if with_index {
            catalog
                .create_index(IndexDef::new(TableId(0), vec![1], vec![]))
                .unwrap();
        }
        if with_covering {
            catalog
                .create_index(IndexDef::new(TableId(0), vec![2], vec![0]))
                .unwrap();
        }
        let stats = StatsCatalog::build(&catalog);
        let cost = CostModel::unit_scale();
        let preds = vec![
            Predicate::range(ColumnId::new(TableId(0), 1), b_lo, b_lo + b_width),
            Predicate::eq(ColumnId::new(TableId(0), 2), c_val),
        ];
        let q = Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(0)],
            predicates: preds.clone(),
            joins: vec![],
            payload: vec![ColumnId::new(TableId(0), 0)],
            aggregated: false,
        };
        let ctx = PlannerContext::from_catalog(&catalog, &stats, &cost);
        let plan = Planner::new(&ctx).plan(&q);
        let exec = Executor::new(cost).execute(&catalog, &q, &plan);
        assert_eq!(
            exec.result_rows,
            reference_count(&catalog, TableId(0), &preds),
            "case {case}: rows={rows} seed={seed} idx={with_index}/{with_covering}"
        );
        assert!(exec.total.secs() >= 0.0, "case {case}");
        for a in &exec.accesses {
            assert!(a.time.secs() >= 0.0, "case {case}");
        }
    }
}

/// Index probes return exactly the rows matching the seek condition,
/// for arbitrary composite keys.
#[test]
fn index_probe_matches_filter() {
    for case in 0..48u64 {
        let mut rng = rng_for(0xA11CE, "prop-probe", case);
        let seed = rng.gen_range(0u64..500);
        let rows = rng.gen_range(100usize..1200);
        let eq = rng.gen_range(0i64..50);
        let range_lo = rng.gen_range(0i64..40);

        let catalog = prop_catalog(rows, seed);
        let t = catalog.table(TableId(0));
        let ix = dba_bandits::storage::Index::build(
            dba_common::IndexId(0),
            IndexDef::new(TableId(0), vec![1, 2], vec![]),
            t,
        );
        let (s, e) = ix.probe(t, &[eq], Some((range_lo, range_lo + 5)));
        let expected = (0..t.rows())
            .filter(|&r| {
                t.column(1).value(r) == eq
                    && (range_lo..=range_lo + 5).contains(&t.column(2).value(r))
            })
            .count();
        assert_eq!(e - s, expected, "case {case}: rows={rows} seed={seed}");
    }
}

/// The greedy oracle never exceeds its budget and never selects
/// non-positive arms.
#[test]
fn oracle_respects_budget() {
    for case in 0..48u64 {
        let mut rng = rng_for(0xA11CE, "prop-oracle", case);
        let n = rng.gen_range(1usize..60);
        let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0f64..10.0)).collect();
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..100)).collect();
        let budget = rng.gen_range(1u64..500);

        let inputs: Vec<dba_bandits::bandit::oracle::OracleInput> = (0..n)
            .map(|i| dba_bandits::bandit::oracle::OracleInput {
                arm_idx: i,
                score: scores[i],
                size_bytes: sizes[i],
                def: IndexDef::new(TableId(0), vec![i as u16 % 8], vec![]),
                generated_by: vec![TemplateId(0)],
                covers: vec![],
            })
            .collect();
        let picked = dba_bandits::bandit::oracle::greedy_select(inputs, budget);
        let total: u64 = picked.iter().map(|&i| sizes[i]).sum();
        assert!(total <= budget, "case {case}");
        for &i in &picked {
            assert!(scores[i] > 0.0, "case {case}");
        }
    }
}
