//! Streaming-arrival scenario: ~1.2M simulated queries/min of TPC-H
//! traffic under data drift, observed in 3-second mini-batch windows, with
//! a hard per-window recommend-latency budget (simulated seconds) driving
//! the graceful-degrade ladder (`Full → ReuseConfig → Amortized`).
//!
//! Runs NoIndex / MAB / MAB+guard under the steady Poisson preset and the
//! bursty flash-crowd preset (6× rate over the whole template universe in
//! the last 2 of every 10 windows). MAB runs the streaming fast path
//! (one batched scatter update per window); the degrade
//! ladder itself runs on *simulated* recommend cost, so every run is
//! deterministic and thread-count independent, and so is the whole results
//! document. This program's wall-clock cost is measured by `perfbench`.
//!
//! Self-checks (the scenario's contract):
//! * sustained simulated throughput ≥ 1M queries/min for every tuner under
//!   the steady preset (arrivals over window time + tuner overheads);
//! * p99 of the per-window simulated recommend step ≤ the budget on the
//!   steady preset (window 0 carries the one-off setup charge and rare
//!   spikes; p99 over ≥200 windows tolerates exactly that);
//! * the degrade ladder engages on the bursty preset (flash crowds widen
//!   the queries-of-interest set and blow the budget), with `ReuseConfig`
//!   strictly before any `Amortized` window;
//! * the steady preset never degrades (budget sized to steady traffic).
//!
//! Writes `results/fig_stream.csv` (per-window trail of the MAB bursty
//! run) and `results/fig_stream.json` (all runs; the `totals` objects are
//! diffed by `check_baselines` against `BENCH_fig_stream.json`, the
//! `stream` summaries and window trails are not gated there, but CI checks
//! that the whole document is byte-identical across `DBA_THREADS`).
//!
//! Knobs: `DBA_LATENCY_BUDGET` (simulated seconds; `inf` disables the
//! ladder), `DBA_ARRIVAL` (`roundbatch` | `poisson` | `bursty` — runs the
//! tuners under just that preset and skips preset-specific checks), plus
//! the usual `DBA_SF` / `DBA_SEED` / `DBA_QUICK` / `DBA_ROUNDS` /
//! `DBA_THREADS`.

use dba_bench::harness::parallel_map_ordered;
use dba_bench::{
    run_stream_one, stream_results_json, suite_threads, write_csv, write_text, DegradeLevel,
    ExperimentEnv, TunerKind,
};
use dba_common::DbResult;
use dba_core::MabConfig;
use dba_optimizer::StatsCatalog;
use dba_session::{ArrivalProcess, StreamConfig, StreamResult};
use dba_workloads::{tpch::tpch, DataDrift, DriftRates, WorkloadKind};

/// Default per-window recommend budget in simulated seconds. Sized to
/// steady-state MAB on TPC-H's shifting workload: a Full window over one
/// shifting group's queries of interest prices ~0.14s, a flash crowd over
/// the whole 22-template universe ~0.25s — so steady windows stay under
/// budget and every burst must blow it and engage the ladder. (Window 0's
/// one-off setup charge also blows it; the controller recovers within two
/// windows and the self-checks account for exactly that.)
const DEFAULT_BUDGET_S: f64 = 0.2;

/// Rounds per shifting group (×4 groups ×8 windows/round = 256 windows).
/// The shifting workload is what makes bursts *mean* something: steady
/// windows draw from the active group's templates, flash crowds from the
/// entire universe.
const DEFAULT_ROUNDS_PER_GROUP: usize = 8;

/// Light refresh-stream drift: a quarter of `fig9_htap`'s rates. Streaming
/// charges maintenance at every round boundary against a 24-second round
/// span, so heavy churn would swamp the throughput story the scenario is
/// about; light churn keeps maintenance honest without dominating.
fn stream_drift() -> DataDrift {
    DataDrift::none()
        .with_table("orders", DriftRates::new(0.005, 0.0, 0.005))
        .with_table("lineitem", DriftRates::new(0.005, 0.0025, 0.005))
}

struct Job {
    tuner: TunerKind,
    guard: bool,
    arrival: ArrivalProcess,
}

impl Job {
    fn label(&self) -> String {
        format!(
            "{}{}/{}",
            self.tuner.label(),
            if self.guard { "+guard" } else { "" },
            self.arrival.label()
        )
    }
}

fn first_degraded(result: &StreamResult) -> Option<&dba_bench::WindowRecord> {
    result
        .windows
        .iter()
        .find(|w| w.level != DegradeLevel::Full)
}

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let budget_s = env.latency_budget.unwrap_or(DEFAULT_BUDGET_S);
    let kind = WorkloadKind::Shifting {
        groups: 4,
        rounds_per_group: env.rounds.unwrap_or(DEFAULT_ROUNDS_PER_GROUP),
    };
    let presets: Vec<ArrivalProcess> = match env.arrival {
        Some(p) => vec![p],
        None => vec![
            ArrivalProcess::paper_poisson(),
            ArrivalProcess::paper_bursty(),
        ],
    };

    println!(
        "Streaming arrivals — TPC-H shifting + drift, budget {budget_s}s/window \
         (sf={}, seed={}, {} rounds, {} windows/run)",
        env.sf,
        env.seed,
        kind.rounds(),
        kind.rounds() * presets[0].windows_per_round()
    );

    let bench = tpch(env.sf);
    let base = bench.build_catalog(env.seed)?;
    let stats = StatsCatalog::build(&base);
    let drift = stream_drift();

    let mut jobs: Vec<Job> = Vec::new();
    for &arrival in &presets {
        for (tuner, guard) in [
            (TunerKind::NoIndex, false),
            (TunerKind::Mab, false),
            (TunerKind::Mab, true),
        ] {
            jobs.push(Job {
                tuner,
                guard,
                arrival,
            });
        }
    }

    let threads = suite_threads().min(jobs.len()).max(1);
    let runs: Vec<(String, StreamResult)> = parallel_map_ordered(&jobs, threads, |job| {
        // The streaming fast path is the scenario's point; the budget and
        // ladder run on simulated cost either way.
        let mab = (job.tuner == TunerKind::Mab)
            .then(MabConfig::default)
            .map(|mut c| {
                c.streaming_fast_path = true;
                c
            });
        let guard = job.guard.then(|| env.safety_config());
        let result = run_stream_one(
            &bench,
            &base,
            &stats,
            kind,
            Some(&drift),
            job.tuner,
            guard,
            mab,
            StreamConfig::new(job.arrival, budget_s),
            env.seed,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", job.label()));
        (job.label(), result)
    });

    println!(
        "\n{:<18} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "run", "arrivals", "queries/min", "degraded", "reuse", "amortized", "p99 rec (s)",
    );
    for (label, s) in &runs {
        println!(
            "{:<18} {:>12} {:>12.0} {:>10} {:>10} {:>10} {:>12.4}",
            label,
            s.total_arrivals(),
            s.queries_per_min(),
            s.degraded_windows(),
            s.reuse_windows(),
            s.amortized_windows(),
            s.recommend_p99_s(),
        );
    }

    // Per-window trail of the most interesting run (MAB under bursts).
    if let Some((label, s)) = runs
        .iter()
        .find(|(label, _)| label.starts_with("MAB/") && label.ends_with("bursty"))
    {
        let rows: Vec<String> = s
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{},{},{:?},{},{},{},{:.6}",
                    w.window,
                    w.round,
                    w.level,
                    w.burst,
                    w.arrivals,
                    w.budget_blown,
                    w.record.recommendation.secs(),
                )
            })
            .collect();
        write_csv(
            "results/fig_stream.csv",
            "window,round,level,burst,arrivals,blown,recommendation_s",
            &rows,
        )
        .expect("write csv");
        println!("\nwindow trail of {label} → results/fig_stream.csv");
    }

    let meta = [
        ("figure", "\"fig_stream\"".to_string()),
        ("benchmark", "\"TPC-H\"".to_string()),
        (
            "scenario",
            "\"shifting+drift, streaming arrivals\"".to_string(),
        ),
        ("sf", format!("{}", env.sf)),
        ("seed", format!("{}", env.seed)),
        ("rounds", format!("{}", kind.rounds())),
        ("budget_s", format!("{budget_s}")),
    ];
    write_text(
        "results/fig_stream.json",
        &stream_results_json(&meta, &runs),
    )
    .expect("write json");
    eprintln!("wrote results/fig_stream.json");

    // ---- self-checks ----
    // The contract below is calibrated to the committed presets and
    // budget: round-batch arrival has no volume to sustain, an infinite
    // budget can't be blown, a tight one degrades steady traffic. With
    // either knob overridden the run is exploration, not the scenario.
    if env.arrival.is_some() || env.latency_budget.is_some() {
        println!(
            "\nfig_stream self-checks skipped (DBA_ARRIVAL / DBA_LATENCY_BUDGET override active)"
        );
        return Ok(());
    }
    for (label, s) in &runs {
        let qpm = s.queries_per_min();
        assert!(
            qpm >= 1_000_000.0,
            "{label}: sustained {qpm:.0} queries/min < 1M — tuner overhead \
             (recommend + create + maintain) ate the arrival rate"
        );
    }
    for (label, s) in &runs {
        if !label.ends_with("/poisson") {
            continue;
        }
        assert!(
            s.recommend_p99_s() <= budget_s,
            "{label}: p99 recommend {:.4}s over the {budget_s}s budget on steady traffic",
            s.recommend_p99_s()
        );
        // Window 0 carries the tuner's one-off setup charge, which blows
        // any realistic budget; the controller must pay that debt off
        // within two windows and steady traffic must never degrade again.
        for w in &s.windows {
            assert!(
                w.level == DegradeLevel::Full || w.window <= 2,
                "{label}: steady traffic degraded at window {} ({:?}) — only \
                 setup recovery (windows 1-2) may degrade",
                w.window,
                w.level
            );
        }
    }
    for (label, s) in &runs {
        if !(label.starts_with("MAB") && label.ends_with("/bursty")) {
            continue;
        }
        assert!(
            s.windows.iter().any(|w| w.burst && w.budget_blown),
            "{label}: flash crowds must blow the recommend budget"
        );
        assert!(
            s.windows
                .iter()
                .any(|w| w.window > 2 && w.level != DegradeLevel::Full),
            "{label}: the degrade ladder must engage beyond setup recovery"
        );
        let first = first_degraded(s).expect("degraded window exists");
        assert_eq!(
            first.level,
            DegradeLevel::ReuseConfig,
            "{label}: the ladder must pass through ReuseConfig before Amortized"
        );
        // Amortized recovery happens too: persistent debt (a 2-window
        // burst) escalates past ReuseConfig.
        assert!(
            s.amortized_windows() > 0,
            "{label}: two-window bursts must escalate to Amortized"
        );
    }
    println!("\nfig_stream self-checks passed");
    Ok(())
}
