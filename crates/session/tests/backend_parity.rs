//! Executor timing contracts at the session level.
//!
//! The engine's `Executor` is the one operator implementation; an enabled
//! `BudgetTimer` only adds a clock read around each operator and an
//! `OpSample` per operator. So a `Simulated` session with a timer must run
//! the plain `Simulated` trajectory bit for bit, across every scenario axis
//! the harness drives, while leaving samples behind. A `Measured` session
//! on a scripted clock is a pure function of its inputs: reruns and
//! concurrent sessions see the same bits, and the goldens below pin them
//! (and the calibration microbench samples) to the values the former
//! dedicated measured backend produced.

use dba_common::BudgetTimer;
use dba_engine::{microbench_samples, timed, BackendKind, CostModel, OpKind, OpSample};
use dba_optimizer::StatsCatalog;
use dba_session::{DataDrift, DriftRates, RunResult, SessionBuilder, TunerKind};
use dba_storage::Catalog;
use dba_workloads::{ssb::ssb, Benchmark, WorkloadKind};

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
    backend: Option<Box<dyn dba_engine::ExecutionBackend>>,
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
/// budgets. A tight budget forces drops and rebuilds, so index churn is
/// exercised too. Timing every operator must not move a single simulated
/// number, and an untimed session must record nothing.
#[test]
fn timed_simulated_is_bit_exact_with_simulated_across_scenarios_and_budgets() {
    let bench = ssb(0.02);
    let base = bench.build_catalog(7).unwrap();
    let stats = StatsCatalog::build(&base);
    let budgets: [(&str, Option<u64>); 2] = [("tight", Some(512 * 1024)), ("unbounded", None)];
    for (scenario, workload, drift) in &scenarios() {
        for (budget_label, budget) in &budgets {
            let label = format!("{scenario}/{budget_label}");
            let (sim, untimed_samples) = run(
                &bench,
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
                &bench,
                &base,
                &stats,
                *workload,
                drift.as_ref(),
                *budget,
                Some(timed(
                    CostModel::paper_scale(),
                    BackendKind::Simulated,
                    BudgetTimer::scripted(1e-6),
                )),
                &label,
            );
            assert_bit_identical(&label, &sim, &timed_run);
            assert!(!samples.is_empty(), "{label}: timed run left no samples");
        }
    }
}

/// `RunResult::total` of the scripted-clock measured session below, as
/// the former dedicated measured backend computed it.
const MEASURED_SESSION_TOTAL_BITS: u64 = 0x4020_6fc4_3b2d_d378;

/// With an injected (scripted) clock, the measured executor is a pure
/// function of its inputs: repeated runs are bit-identical, and running
/// several sessions concurrently — the suite fan-out the `DBA_THREADS`
/// knob controls — cannot perturb any of them.
#[test]
fn measured_backend_is_deterministic_under_scripted_clock() {
    let bench = ssb(0.02);
    let base = bench.build_catalog(7).unwrap();
    let stats = StatsCatalog::build(&base);
    let workload = WorkloadKind::Static { rounds: 3 };
    let run_measured = || {
        run(
            &bench,
            &base,
            &stats,
            workload,
            None,
            None,
            Some(timed(
                CostModel::paper_scale(),
                BackendKind::Measured,
                BudgetTimer::scripted(1e-6),
            )),
            "measured",
        )
        .0
    };

    let first = run_measured();
    assert_eq!(
        first.total().secs().to_bits(),
        MEASURED_SESSION_TOTAL_BITS,
        "measured session total moved: {}",
        first.total().secs()
    );
    let second = run_measured();
    assert_bit_identical("rerun", &first, &second);

    // Concurrent sessions (the fan-out path) see the same bits.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3).map(|_| scope.spawn(run_measured)).collect();
        for handle in handles {
            let parallel = handle.join().expect("measured session run panicked");
            assert_bit_identical("parallel", &first, &parallel);
        }
    });
}

/// One sample's operator, pages, rows, descents, build rows, probe rows
/// and out rows, then the bits of its `measured_s` and `sim_s`.
type GoldenSample = (OpKind, u64, u64, u64, u64, u64, u64, u64, u64);

/// `microbench_samples(paper_scale, scripted(1e-7), 17)` as the former
/// dedicated measured backend and its B+Tree recorded them.
#[rustfmt::skip]
const MICROBENCH_GOLDEN: [GoldenSample; 37] = [
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
    (OpKind::SeqScan, 118, 40000, 0, 0, 0, 40000, 0x3e7ad7f29abcaf40, 0x3fffae147ae147ad),
    (OpKind::HashJoin, 0, 0, 0, 40000, 324, 6394, 0x3e7ad7f29abcaf80, 0x4001167caea747d8),
    (OpKind::Aggregate, 0, 6394, 0, 0, 0, 1, 0x3e7ad7f29abcaf40, 0x3fc88d8ec95bff04),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 823, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::SeqScan, 118, 40000, 0, 0, 0, 40000, 0x3e7ad7f29abcaf40, 0x3fffae147ae147ad),
    (OpKind::HashJoin, 0, 0, 0, 40000, 823, 16238, 0x3e7ad7f29abcaf40, 0x4002c33eff195033),
    (OpKind::Aggregate, 0, 16238, 0, 0, 0, 1, 0x3e7ad7f29abcaf40, 0x3fdf2d4d4024b33d),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 2000, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::SeqScan, 118, 40000, 0, 0, 0, 40000, 0x3e7ad7f29abcaf40, 0x3fffae147ae147ad),
    (OpKind::HashJoin, 0, 0, 0, 40000, 2000, 40000, 0x3e7ad7f29abcaf80, 0x4006cccccccccccd),
    (OpKind::Aggregate, 0, 40000, 0, 0, 0, 1, 0x3e7ad7f29abcaf40, 0x3ff3333333333333),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 104, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::InlProbe, 108, 2076, 104, 0, 0, 2076, 0x3e7ad7f29abcaf40, 0x3fe435696e58a330),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 523, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::InlProbe, 549, 10314, 523, 0, 0, 10314, 0x3e7ad7f29abcaf40, 0x40090cdc8754f378),
    (OpKind::SeqScan, 19, 2000, 0, 0, 0, 2000, 0x3e7ad7f29abcaf40, 0x3fcd70a3d70a3d70),
    (OpKind::InlProbe, 2113, 40000, 2000, 0, 0, 40000, 0x3e7ad7f29abcaf40, 0x401c1eb851eb851f),
];

/// The calibration microbench keeps every work counter and every
/// scripted-clock reading without the B+Tree: leaf counts are arithmetic
/// on `Index::probe`'s bounds.
#[test]
fn microbench_samples_match_the_golden() {
    let samples = microbench_samples(&CostModel::paper_scale(), BudgetTimer::scripted(1e-7), 17);
    let got: Vec<GoldenSample> = samples
        .iter()
        .map(|s| {
            (
                s.op(),
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
