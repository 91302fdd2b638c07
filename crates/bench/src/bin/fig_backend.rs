//! Backend figure (extension): what the engine's executor measures next
//! to what it prices.
//!
//! For each scenario ({static, shifting, drift}) the same MAB session runs
//! twice over identical shared data: once untimed (the path every
//! published figure uses) and once with a timer observing, on the
//! wall-clock, each operator the executor runs. The executor runs one
//! program, timed or not, and the timed run still reports the simulated
//! prices, so its trajectory must be bit-identical to the untimed one:
//! timing perturbs no published number.
//!
//! The timed runs leave behind per-operator [`OpSample`]s — work counters
//! with both the measured wall-clock and the simulated price for the
//! *same* operator — one per operator the session ran. The counters are
//! the priced counts, over join tuples, while an operator works once per
//! weighted key tuple of its input, so a join's measured time follows the
//! tuples it touched, not the counters. A replayed query runs none; a hash
//! join runs its inner scan or seek inside it, and its sample adds that
//! access's work counters and price to the join's; a hash join over a
//! whole table times its read of the kept join table (and the table's
//! first build) and no inner scan; the aggregate runs nothing. From them
//! the binary reports measured and simulated time per operator class. The
//! timer only observes: no wall-clock reading reaches the results.
//!
//! Writes `results/fig_backend.json`: the simulated trajectories and the
//! sample count, so the document does not depend on the thread count.
//! Self-checking; `DBA_QUICK=1` shrinks the scale factor and round counts.

use dba_bench::harness::parallel_map_ordered;
use dba_bench::{results_json, suite_threads, write_text, ExperimentEnv, RunResult, TunerKind};
use dba_common::{BudgetTimer, DbResult};
use dba_engine::{timed, CostModel, OpKind, OpSample};
use dba_optimizer::StatsCatalog;
use dba_session::SessionBuilder;
use dba_storage::Catalog;
use dba_workloads::{ssb::ssb, Benchmark, DataDrift, DriftRates, WorkloadKind};

struct Scenario {
    name: &'static str,
    workload: WorkloadKind,
    drift: Option<DataDrift>,
}

struct ScenarioOutcome {
    name: &'static str,
    simulated: RunResult,
    timed: RunResult,
    samples: Vec<OpSample>,
}

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let rounds = env.rounds.unwrap_or(if env.quick { 3 } else { 6 });
    let scenarios = [
        Scenario {
            name: "static",
            workload: WorkloadKind::Static { rounds },
            drift: None,
        },
        Scenario {
            name: "shifting",
            workload: WorkloadKind::Shifting {
                groups: 2,
                rounds_per_group: rounds.div_ceil(2),
            },
            drift: None,
        },
        Scenario {
            name: "drift",
            workload: WorkloadKind::Static { rounds },
            drift: Some(DataDrift::uniform(DriftRates::new(0.05, 0.02, 0.02))),
        },
    ];

    println!(
        "Executor timing — untimed vs wall-clock-timed sessions (SSB sf={}, seed={}, {} rounds/scenario)",
        env.sf, env.seed, rounds
    );

    let bench = ssb(env.sf);
    let base = bench.build_catalog(env.seed)?;
    let stats = StatsCatalog::build(&base);

    let threads = suite_threads().min(scenarios.len()).max(1);
    let outcomes: Vec<ScenarioOutcome> = parallel_map_ordered(&scenarios, threads, |scenario| {
        run_scenario(&bench, &base, &stats, scenario, env.seed)
    });

    // --- Self-check: timing the operators the executor runs leaves the
    // simulated trajectory bit-identical and records samples.
    for o in &outcomes {
        assert_trajectories_bit_identical(o.name, &o.simulated, &o.timed);
        assert!(
            !o.samples.is_empty(),
            "{}: the timed run must leave measured operator samples behind",
            o.name
        );
        println!(
            "{:>9}: {} rounds bit-identical with timing on, {} operator samples",
            o.name,
            o.simulated.rounds.len(),
            o.samples.len()
        );
    }

    // --- Per-operator measured and simulated time in the scenario runs.
    let all_samples: Vec<OpSample> = outcomes.iter().flat_map(|o| o.samples.clone()).collect();
    println!("\n# Measured vs simulated time per operator (scenario runs, paper-scale model)");
    println!(
        "{:<14} {:>8} {:>14} {:>14} {:>10}",
        "operator", "samples", "measured (s)", "simulated (s)", "sim/meas"
    );
    for op in OpKind::ALL {
        let (n, meas, sim) = op_totals(&all_samples, op);
        if n == 0 {
            continue;
        }
        println!(
            "{:<14} {:>8} {:>14.6} {:>14.6} {:>10.3}",
            op.label(),
            n,
            meas,
            sim,
            sim / meas.max(1e-12)
        );
    }

    // --- Results JSON: the simulated trajectories plus the sample count.
    let meta = [
        ("figure", "\"fig_backend\"".to_string()),
        ("benchmark", "\"SSB\"".to_string()),
        ("scenarios", "\"static, shifting, drift\"".to_string()),
        ("sf", format!("{}", env.sf)),
        ("seed", format!("{}", env.seed)),
        ("rounds", format!("{rounds}")),
        ("timed_trajectory", "\"bit-exact\"".to_string()),
        ("operator_samples", format!("{}", all_samples.len())),
    ];
    let results: Vec<RunResult> = outcomes.into_iter().map(|o| o.simulated).collect();
    write_text("results/fig_backend.json", &results_json(&meta, &results)).expect("write json");
    eprintln!("wrote results/fig_backend.json");

    println!(
        "\nself-check passed: timed trajectories bit-exact on all {} scenarios",
        results.len()
    );
    Ok(())
}

/// Run `scenario` twice over the shared substrate — untimed and timed on
/// the wall-clock — and drain the timed run's operator samples.
fn run_scenario(
    bench: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    scenario: &Scenario,
    seed: u64,
) -> ScenarioOutcome {
    let build = |boxed: Option<Box<dyn dba_engine::ExecutionBackend>>| {
        let mut builder = SessionBuilder::new()
            .benchmark(bench.clone())
            .shared_data(base)
            .shared_stats(stats)
            .workload(scenario.workload)
            .tuner(TunerKind::Mab)
            .seed(seed);
        if let Some(drift) = &scenario.drift {
            builder = builder.data_drift(drift.clone());
        }
        if let Some(backend) = boxed {
            builder = builder.backend_boxed(backend);
        }
        builder
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name))
    };

    let mut sim_session = build(None);
    let simulated = sim_session
        .run()
        .unwrap_or_else(|e| panic!("{} simulated: {e}", scenario.name));

    let mut timed_session = build(Some(timed(CostModel::paper_scale(), BudgetTimer::wall())));
    let timed_result = timed_session
        .run()
        .unwrap_or_else(|e| panic!("{} timed: {e}", scenario.name));
    let samples = timed_session.backend_mut().take_op_samples();

    ScenarioOutcome {
        name: scenario.name,
        simulated,
        timed: timed_result,
        samples,
    }
}

fn assert_trajectories_bit_identical(scenario: &str, sim: &RunResult, timed: &RunResult) {
    assert_eq!(
        sim.rounds.len(),
        timed.rounds.len(),
        "{scenario}: round count differs with timing on"
    );
    for (a, b) in sim.rounds.iter().zip(&timed.rounds) {
        for (part, x, y) in [
            ("recommendation", a.recommendation, b.recommendation),
            ("creation", a.creation, b.creation),
            ("execution", a.execution, b.execution),
            ("maintenance", a.maintenance, b.maintenance),
        ] {
            assert_eq!(
                x.secs().to_bits(),
                y.secs().to_bits(),
                "{scenario}: round {} {part} diverges with timing on: {} vs {}",
                a.round,
                x.secs(),
                y.secs()
            );
        }
        assert_eq!(
            a.plan_cache_hits, b.plan_cache_hits,
            "{scenario}: cache hits"
        );
        assert_eq!(
            a.plan_cache_misses, b.plan_cache_misses,
            "{scenario}: cache misses"
        );
    }
}

fn op_totals(samples: &[OpSample], op: OpKind) -> (usize, f64, f64) {
    samples
        .iter()
        .filter(|s| s.op == op)
        .fold((0, 0.0, 0.0), |(n, meas, sim), s| {
            (n + 1, meas + s.measured_s, sim + s.sim_s)
        })
}
