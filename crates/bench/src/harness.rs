//! Experiment configuration and suite runners on top of
//! [`dba_session::TuningSession`].
//!
//! The driving loop itself lives in `dba-session`; this module only maps
//! environment knobs to workload configurations and fans sessions out
//! over tuner sets, sharing generated data so comparisons are fair.
//!
//! Suites fan out across **threads**: sessions fork the generated data and
//! ANALYZE output by `Arc` (zero-copy), every session is `Send`, and each
//! run is fully deterministic in its own seed, so the parallel path is
//! bit-identical to the sequential one — asserted by tests below. The
//! `DBA_THREADS` knob caps the worker count (default: all cores; `1`
//! forces the sequential path).

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use dba_common::DbResult;
use dba_core::MabConfig;
use dba_optimizer::StatsCatalog;
use dba_session::{SessionBuilder, StreamConfig, StreamResult, StreamingSession};
use dba_storage::Catalog;
use dba_workloads::{ArrivalProcess, Benchmark, DataDrift, WorkloadKind};

pub use dba_session::{
    make_advisor, DegradeLevel, RoundRecord, RoundSafety, RunResult, SafetyConfig, SafetyReport,
    TunerKind, WindowRecord,
};

/// Experiment-wide configuration from the environment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentEnv {
    pub sf: f64,
    pub seed: u64,
    pub quick: bool,
    /// `DBA_ROUNDS` override: rounds for static/random workloads,
    /// rounds-per-group for shifting.
    pub rounds: Option<usize>,
    /// `DBA_SAFETY_BOUND` override: the guardrail's cumulative regret
    /// bound as a fraction of the shadow NoIndex price
    /// (`SafetyConfig::regret_bound_factor`). Must be a finite positive
    /// number; bad values are warned about and ignored.
    pub safety_bound: Option<f64>,
    /// `DBA_LATENCY_BUDGET` override: per-window recommend budget in
    /// simulated seconds for streaming scenarios (`inf` disables the
    /// degrade ladder). Must be positive; bad values are warned about and
    /// ignored.
    pub latency_budget: Option<f64>,
    /// `DBA_ARRIVAL` override: arrival-process preset for streaming
    /// scenarios (`roundbatch` | `poisson` | `bursty`).
    pub arrival: Option<ArrivalProcess>,
}

/// The knob `name`, parsed with `FromStr` and kept if `accept` holds:
/// `None` when it is unset, and a warning naming the raw value and what
/// was `expected` (never a silent default) when it is set but rejected.
pub fn env_knob<T: FromStr>(name: &str, expected: &str, accept: impl Fn(&T) -> bool) -> Option<T> {
    knob(&|name| std::env::var(name).ok(), name, expected, accept)
}

/// [`env_knob`] over `vars`, a lookup that stands in for the environment.
fn knob<T: FromStr>(
    vars: &dyn Fn(&str) -> Option<String>,
    name: &str,
    expected: &str,
    accept: impl Fn(&T) -> bool,
) -> Option<T> {
    let raw = vars(name)?;
    let value = raw.parse().ok().filter(|v| accept(v));
    if value.is_none() {
        eprintln!("warning: ignoring {name}={raw:?}; expected {expected}");
    }
    value
}

impl ExperimentEnv {
    /// Read `DBA_QUICK`, `DBA_SF`, `DBA_SEED`, `DBA_ROUNDS`,
    /// `DBA_SAFETY_BOUND`, `DBA_LATENCY_BUDGET` and `DBA_ARRIVAL`. A value
    /// that does not parse or is out of range is warned about and ignored.
    pub fn from_env() -> Self {
        Self::from_vars(&|name| std::env::var(name).ok())
    }

    /// [`from_env`](Self::from_env) over `vars`, a lookup that stands in
    /// for the environment.
    fn from_vars(vars: &dyn Fn(&str) -> Option<String>) -> Self {
        let finite_positive = |v: &f64| v.is_finite() && *v > 0.0;
        let quick = knob(
            vars,
            "DBA_QUICK",
            "1 to enable, 0 or empty to disable",
            |v: &String| ["1", "0", ""].contains(&v.as_str()),
        )
        .is_some_and(|v| v == "1");
        let default_sf = if quick { 1.0 } else { 10.0 };
        ExperimentEnv {
            sf: knob(
                vars,
                "DBA_SF",
                "a finite positive scale factor",
                finite_positive,
            )
            .unwrap_or(default_sf),
            seed: knob(vars, "DBA_SEED", "an unsigned integer seed", |_| true).unwrap_or(42),
            quick,
            rounds: knob(vars, "DBA_ROUNDS", "a round count >= 1", |&n| n >= 1),
            safety_bound: knob(
                vars,
                "DBA_SAFETY_BOUND",
                "a finite positive regret bound factor",
                finite_positive,
            ),
            latency_budget: knob(
                vars,
                "DBA_LATENCY_BUDGET",
                "a positive recommend budget in simulated seconds (`inf` disables the ladder)",
                |&v| v > 0.0,
            ),
            arrival: knob(
                vars,
                "DBA_ARRIVAL",
                "roundbatch, poisson or bursty",
                |_: &ArrivalProcess| true,
            ),
        }
    }

    /// `DBA_TRACE` knob: path for a JSONL trace (`dba-obs`) of each fig
    /// binary's designated run — exactly one session writes the file, so
    /// parallel suite fan-out never interleaves writers. `None` (the
    /// default) keeps recording off; read at call time so the
    /// `ExperimentEnv` struct itself stays `Copy`.
    pub fn trace_path(&self) -> Option<String> {
        std::env::var("DBA_TRACE").ok().filter(|p| !p.is_empty())
    }

    /// The guardrail configuration the bench binaries run with:
    /// [`SafetyConfig`] defaults (session-budget inheritance included),
    /// with `DBA_SAFETY_BOUND` overriding the regret bound factor.
    pub fn safety_config(&self) -> SafetyConfig {
        let mut config = SafetyConfig::default();
        if let Some(bound) = self.safety_bound {
            config.regret_bound_factor = bound;
        }
        config
    }

    /// Workload-type configurations: the paper's settings (the
    /// `WorkloadKind::paper_*` helpers are the single source of truth),
    /// reduced under `quick`, with `DBA_ROUNDS` taking precedence over
    /// both (as rounds-per-group for shifting).
    pub fn static_kind(&self) -> WorkloadKind {
        let base = if self.quick {
            WorkloadKind::Static { rounds: 8 }
        } else {
            WorkloadKind::paper_static()
        };
        match (self.rounds, base) {
            (Some(rounds), WorkloadKind::Static { .. }) => WorkloadKind::Static { rounds },
            (_, base) => base,
        }
    }

    pub fn shifting_kind(&self) -> WorkloadKind {
        let base = if self.quick {
            WorkloadKind::Shifting {
                groups: 4,
                rounds_per_group: 5,
            }
        } else {
            WorkloadKind::paper_shifting()
        };
        match (self.rounds, base) {
            (Some(rounds_per_group), WorkloadKind::Shifting { groups, .. }) => {
                WorkloadKind::Shifting {
                    groups,
                    rounds_per_group,
                }
            }
            (_, base) => base,
        }
    }

    pub fn random_kind(&self, templates: usize) -> WorkloadKind {
        let base = if self.quick {
            WorkloadKind::Random {
                rounds: 8,
                queries_per_round: templates,
            }
        } else {
            WorkloadKind::paper_random(templates)
        };
        match (self.rounds, base) {
            (
                Some(rounds),
                WorkloadKind::Random {
                    queries_per_round, ..
                },
            ) => WorkloadKind::Random {
                rounds,
                queries_per_round,
            },
            (_, base) => base,
        }
    }
}

/// Start a fig session: `tuner` over `workload` on an index-free fork of
/// the shared generated data `base` and its statistics `stats`. Callers
/// add drift, a guard, tracing or a MAB configuration before building.
pub fn fig_session(
    benchmark: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    workload: WorkloadKind,
    tuner: TunerKind,
    seed: u64,
) -> SessionBuilder {
    SessionBuilder::new()
        .benchmark(benchmark.clone())
        .shared_data(base)
        .shared_stats(stats)
        .workload(workload)
        .tuner(tuner)
        .seed(seed)
}

/// Run one tuner over one workload through a
/// [`TuningSession`](dba_session::TuningSession). `base` and `stats` supply
/// the shared generated data and its statistics; each run forks an
/// index-free catalog from `base`.
pub fn run_one(
    benchmark: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    workload: WorkloadKind,
    tuner: TunerKind,
    seed: u64,
) -> DbResult<RunResult> {
    run_one_with_drift(benchmark, base, stats, workload, None, tuner, seed)
}

/// [`run_one`] with an optional data-change scenario applied after each
/// round (every session drifts its own fork identically — the seed drives
/// the deltas, so comparisons stay fair).
pub fn run_one_with_drift(
    benchmark: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    workload: WorkloadKind,
    drift: Option<&DataDrift>,
    tuner: TunerKind,
    seed: u64,
) -> DbResult<RunResult> {
    let mut builder = fig_session(benchmark, base, stats, workload, tuner, seed);
    if let Some(drift) = drift {
        builder = builder.data_drift(drift.clone());
    }
    builder.build()?.run()
}

/// Run one tuner over one workload through a [`StreamingSession`]: arrival
/// windows under the given stream configuration instead of fixed rounds.
/// `guard` wraps the tuner in the safety guardrail; `mab` overrides the MAB
/// configuration (e.g. `streaming_fast_path`, the batched per-window
/// update) and is ignored for other tuners.
#[allow(clippy::too_many_arguments)]
pub fn run_stream_one(
    benchmark: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    workload: WorkloadKind,
    drift: Option<&DataDrift>,
    tuner: TunerKind,
    guard: Option<SafetyConfig>,
    mab: Option<MabConfig>,
    config: StreamConfig,
    seed: u64,
) -> DbResult<StreamResult> {
    let mut builder = fig_session(benchmark, base, stats, workload, tuner, seed);
    if let Some(drift) = drift {
        builder = builder.data_drift(drift.clone());
    }
    if let Some(guard) = guard {
        builder = builder.safeguard(guard);
    }
    if let Some(mab) = mab {
        builder = builder.mab_config(mab);
    }
    StreamingSession::new(builder.build()?, config).run()
}

/// Suite worker count: `DBA_THREADS` if set (≥1; `1` forces the
/// sequential path), otherwise every available core. The effective fan-out
/// is additionally capped by the number of tuners in the suite.
pub fn suite_threads() -> usize {
    env_knob("DBA_THREADS", "a thread count >= 1", |&n| n >= 1).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run a set of tuners over one benchmark/workload, sharing generated
/// data and statistics, fanned out over [`suite_threads`] workers.
pub fn run_benchmark_suite(
    benchmark: &Benchmark,
    workload: WorkloadKind,
    tuners: &[TunerKind],
    seed: u64,
) -> DbResult<Vec<RunResult>> {
    run_suite_threaded(benchmark, workload, None, tuners, seed, suite_threads())
}

/// The suite runner with an explicit worker count. `threads == 1` runs the
/// plain sequential loop; more workers fan the tuners out over
/// `std::thread::scope`, sharing one generated catalog and one ANALYZE
/// output by reference (sessions fork them by `Arc`). Results come back in
/// tuner order and are **bit-identical** to the sequential path: every
/// session is seeded, self-contained and side-effect free, so scheduling
/// cannot leak into the numbers.
pub fn run_suite_threaded(
    benchmark: &Benchmark,
    workload: WorkloadKind,
    drift: Option<&DataDrift>,
    tuners: &[TunerKind],
    seed: u64,
    threads: usize,
) -> DbResult<Vec<RunResult>> {
    let base = benchmark.build_catalog(seed)?;
    let stats = StatsCatalog::build(&base);
    parallel_map_ordered(tuners, threads, |&tuner| {
        run_one_with_drift(benchmark, &base, &stats, workload, drift, tuner, seed)
    })
    .into_iter()
    .collect()
}

/// Order-preserving parallel map over `items` with at most `threads`
/// scoped workers: workers pull the next index from a shared counter
/// (work-stealing) and report `(index, output)` over a channel, so output
/// order matches input order regardless of scheduling. With one worker
/// (or one item) this is a plain sequential map. A panicking `f`
/// propagates when the scope joins.
///
/// This is the one place suite fan-out threading lives — the suite
/// runners and the fig/table binaries that need per-run introspection
/// (e.g. `fig9_htap`) all map through it.
pub fn parallel_map_ordered<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                if tx.send((i, f(&items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, output) in rx {
            slots[i] = Some(output);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_workloads::ssb::ssb;

    /// End-to-end smoke: on a small SSB, MAB must converge to a much
    /// better execution time than NoIndex, and totals must decompose.
    #[test]
    fn mab_beats_noindex_on_small_ssb() {
        let bench = ssb(0.02);
        let kind = WorkloadKind::Static { rounds: 6 };
        let results =
            run_benchmark_suite(&bench, kind, &[TunerKind::NoIndex, TunerKind::Mab], 7).unwrap();
        let noindex = &results[0];
        let mab = &results[1];
        assert_eq!(noindex.rounds.len(), 6);
        assert!(
            mab.final_round_execution().secs() < noindex.final_round_execution().secs(),
            "MAB {} vs NoIndex {}",
            mab.final_round_execution().secs(),
            noindex.final_round_execution().secs()
        );
        // Accounting identity.
        let t = mab.total().secs();
        let parts = mab.total_recommendation().secs()
            + mab.total_creation().secs()
            + mab.total_execution().secs();
        assert!((t - parts).abs() < 1e-9);
        // NoIndex never pays recommendation or creation.
        assert_eq!(noindex.total_recommendation().secs(), 0.0);
        assert_eq!(noindex.total_creation().secs(), 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let bench = ssb(0.02);
        let kind = WorkloadKind::Static { rounds: 4 };
        let a = run_benchmark_suite(&bench, kind, &[TunerKind::Mab], 9).unwrap();
        let b = run_benchmark_suite(&bench, kind, &[TunerKind::Mab], 9).unwrap();
        for (ra, rb) in a[0].rounds.iter().zip(&b[0].rounds) {
            assert_eq!(ra.execution.secs(), rb.execution.secs());
            assert_eq!(ra.creation.secs(), rb.creation.secs());
        }
    }

    /// Bit-exact equality of two suite result sets: every simulated time
    /// compared by its `f64` bit pattern, every counter exactly.
    fn assert_bit_identical(scenario: &str, seq: &[RunResult], par: &[RunResult]) {
        assert_eq!(seq.len(), par.len(), "{scenario}: run count");
        for (a, b) in seq.iter().zip(par) {
            assert_eq!(a.tuner, b.tuner, "{scenario}: tuner order");
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.workload, b.workload);
            assert_eq!(
                a.rounds.len(),
                b.rounds.len(),
                "{scenario}: {} rounds",
                a.tuner
            );
            for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
                assert_eq!(ra.round, rb.round);
                for (part, x, y) in [
                    ("recommendation", ra.recommendation, rb.recommendation),
                    ("creation", ra.creation, rb.creation),
                    ("execution", ra.execution, rb.execution),
                    ("maintenance", ra.maintenance, rb.maintenance),
                ] {
                    assert_eq!(
                        x.secs().to_bits(),
                        y.secs().to_bits(),
                        "{scenario}: {} round {} {part} differs: {} vs {}",
                        a.tuner,
                        ra.round,
                        x.secs(),
                        y.secs()
                    );
                }
                assert_eq!(ra.plan_cache_hits, rb.plan_cache_hits);
                assert_eq!(ra.plan_cache_misses, rb.plan_cache_misses);
            }
        }
    }

    /// The tentpole determinism contract: a parallel suite is bit-identical
    /// to the sequential path across every scenario axis — static,
    /// shifting, random, and dynamic-data drift.
    #[test]
    fn parallel_suite_is_bit_identical_to_sequential() {
        let bench = ssb(0.02);
        let tuners = [TunerKind::NoIndex, TunerKind::PdTool, TunerKind::Mab];
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
                Some(DataDrift::uniform(dba_session::DriftRates::new(
                    0.05, 0.02, 0.02,
                ))),
            ),
        ];
        for (name, workload, drift) in &scenarios {
            let seq = run_suite_threaded(&bench, *workload, drift.as_ref(), &tuners, 7, 1).unwrap();
            let par = run_suite_threaded(&bench, *workload, drift.as_ref(), &tuners, 7, 3).unwrap();
            assert_bit_identical(name, &seq, &par);
        }
    }

    /// Streaming determinism across suite fan-out: the same set of
    /// streaming runs, mapped over 1 worker vs 3, must produce
    /// bit-identical window trails (`Debug` prints every `f64` exactly).
    /// Sessions fork shared data by `Arc` and the degrade ladder runs on
    /// simulated cost only, so thread scheduling cannot leak in.
    #[test]
    fn parallel_streaming_suite_is_bit_identical_to_sequential() {
        use dba_session::{StreamConfig, StreamResult};
        use dba_workloads::ArrivalProcess;

        let bench = ssb(0.02);
        let base = bench.build_catalog(7).unwrap();
        let stats = StatsCatalog::build(&base);
        let kind = WorkloadKind::Static { rounds: 2 };
        let jobs: Vec<(TunerKind, Option<SafetyConfig>)> = vec![
            (TunerKind::NoIndex, None),
            (TunerKind::Mab, None),
            (TunerKind::Mab, Some(SafetyConfig::default())),
        ];
        let run_all = |threads: usize| -> Vec<StreamResult> {
            parallel_map_ordered(&jobs, threads, |(tuner, guard)| {
                run_stream_one(
                    &bench,
                    &base,
                    &stats,
                    kind,
                    None,
                    *tuner,
                    *guard,
                    None,
                    StreamConfig::new(ArrivalProcess::paper_bursty(), 0.05),
                    7,
                )
                .unwrap()
            })
        };
        let seq = run_all(1);
        let par = run_all(3);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(
                format!("{:?}", a.windows),
                format!("{:?}", b.windows),
                "{}: window trail must be thread-count independent",
                a.run.tuner
            );
            assert_eq!(a.queries_per_min().to_bits(), b.queries_per_min().to_bits());
            assert_eq!(a.recommend_p99_s().to_bits(), b.recommend_p99_s().to_bits());
        }
    }

    #[test]
    fn pdtool_runs_on_shifting_workload() {
        let bench = ssb(0.02);
        let kind = WorkloadKind::Shifting {
            groups: 2,
            rounds_per_group: 3,
        };
        let results = run_benchmark_suite(&bench, kind, &[TunerKind::PdTool], 11).unwrap();
        let pd = &results[0];
        assert_eq!(pd.rounds.len(), 6);
        // PDTool invokes after each workload change: rounds 2 and 5
        // (0-based 1 and 4) carry recommendation spikes.
        assert!(pd.rounds[1].recommendation.secs() > 0.0);
        assert!(pd.rounds[4].recommendation.secs() > 0.0);
        assert_eq!(pd.rounds[0].recommendation.secs(), 0.0);
    }

    #[test]
    fn dba_rounds_overrides_every_workload_kind() {
        let env = ExperimentEnv {
            sf: 1.0,
            seed: 42,
            quick: false,
            rounds: Some(3),
            safety_bound: None,
            latency_budget: None,
            arrival: None,
        };
        assert_eq!(env.static_kind().rounds(), 3);
        assert_eq!(env.shifting_kind().rounds(), 12); // 4 groups × 3
        assert_eq!(env.random_kind(5).rounds(), 3);

        let default_env = ExperimentEnv {
            rounds: None,
            ..env
        };
        assert_eq!(default_env.static_kind().rounds(), 25);
    }

    /// `DBA_SF` keeps only a finite positive scale factor: zero, negative,
    /// NaN and infinite values are warned about and ignored, leaving the
    /// default. The lookup stands in for the environment, so no other test
    /// sees these values.
    #[test]
    fn dba_sf_accepts_only_finite_positive_values() {
        let sf = |raw: &'static str| {
            ExperimentEnv::from_vars(&|name| (name == "DBA_SF").then(|| raw.to_string())).sf
        };
        for raw in ["0", "-3", "NaN", "inf"] {
            assert_eq!(sf(raw), 10.0, "DBA_SF={raw} must be ignored");
        }
        assert_eq!(sf("0.5"), 0.5);
    }
}
