//! The benchmark's workloads and the instrumented sessions that run them.
//!
//! Each workload replays one committed baseline run exactly (TPC-H sf 1,
//! data seed 42), so its simulated total is a correctness oracle: a session
//! that does not reproduce it bit for bit ran a different program.
//! Sessions are built directly through `SessionBuilder` from constants
//! here; nothing reads the `DBA_*` environment knobs.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use dba_common::DbResult;
use dba_core::MabConfig;
use dba_obs::Obs;
use dba_optimizer::{PlanCacheStats, StatsCatalog, WhatIfStats};
use dba_session::{
    ArrivalProcess, DataDrift, DriftRates, DynStreamingSession, DynTuningSession, RoundRecord,
    RunResult, SafetyConfig, SessionBuilder, StreamConfig, StreamingSession, TunerKind,
};
use dba_storage::Catalog;
use dba_workloads::{tpch::tpch, Benchmark, WorkloadKind};

use crate::clock::{self, Stopwatch};
use crate::spans::{SpanProfile, SpanRecorder};
use crate::wrap::{AdvisorTimes, ExecTimes, TimedAdvisor, TimedBackend};

/// Data and workload seed of every committed baseline.
pub const SEED: u64 = 42;
/// TPC-H scale factor of every committed baseline.
pub const SCALE_FACTOR: f64 = 1.0;
/// Per-window recommend budget in simulated seconds (`fig_stream`'s).
/// Round-batch sessions have no degrade ladder; their rounds are counted
/// against the same budget.
pub const BUDGET_S: f64 = 0.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig_stream`'s MAB+guard/poisson run.
    StreamGuarded,
    /// `fig_stream`'s MAB/bursty run.
    StreamBursty,
    /// `fig9_htap`'s MAB run.
    RoundsHtap,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StreamGuarded,
        Workload::StreamBursty,
        Workload::RoundsHtap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamGuarded => "stream-guarded",
            Workload::StreamBursty => "stream-bursty",
            Workload::RoundsHtap => "rounds-htap",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The baseline file and its `total_s` for this run, as committed
    /// (rounded to 4 decimals).
    pub fn committed_total(self) -> (&'static str, &'static str) {
        match self {
            Workload::StreamGuarded => ("BENCH_fig_stream.json", "141363933.0603"),
            Workload::StreamBursty => ("BENCH_fig_stream.json", "107835520.1907"),
            Workload::RoundsHtap => ("BENCH_fig9_htap.json", "18760.2130"),
        }
    }

    /// The simulated total of one session, bit-exact.
    pub fn expected_total_s(self) -> f64 {
        match self {
            Workload::StreamGuarded => 141363933.06025138,
            Workload::StreamBursty => 107835520.19066331,
            Workload::RoundsHtap => 18760.213035572007,
        }
    }
}

/// `fig_stream`'s light refresh drift on orders and lineitem.
fn stream_drift() -> DataDrift {
    DataDrift::none()
        .with_table("orders", DriftRates::new(0.005, 0.0, 0.005))
        .with_table("lineitem", DriftRates::new(0.005, 0.0025, 0.005))
}

/// Generated data and statistics, shared by every session of a run.
pub struct Substrate {
    bench: Benchmark,
    base: Catalog,
    stats: StatsCatalog,
    pub build_catalog_s: f64,
    pub stats_build_s: f64,
}

impl Substrate {
    pub fn generate() -> DbResult<Substrate> {
        let bench = tpch(SCALE_FACTOR);
        let watch = Stopwatch::start();
        let base = bench.build_catalog(SEED)?;
        let build_catalog_s = watch.secs();
        let watch = Stopwatch::start();
        let stats = StatsCatalog::build(&base);
        let stats_build_s = watch.secs();
        Ok(Substrate {
            bench,
            base,
            stats,
            build_catalog_s,
            stats_build_s,
        })
    }
}

// One driver per session: boxing the larger variant would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Driver {
    Stream(DynStreamingSession),
    Rounds(DynTuningSession),
}

impl Driver {
    /// One window (streaming) or one round (round batch).
    fn step(&mut self) -> DbResult<Option<RoundRecord>> {
        match self {
            Driver::Stream(s) => Ok(s.step()?.map(|w| w.record)),
            Driver::Rounds(s) => s.step(),
        }
    }

    fn session(&self) -> &DynTuningSession {
        match self {
            Driver::Stream(s) => s.session(),
            Driver::Rounds(s) => s,
        }
    }

    fn into_result(self) -> RunResult {
        match self {
            Driver::Stream(s) => s.into_result().run,
            Driver::Rounds(s) => s.into_result(),
        }
    }
}

/// A built, instrumented session, ready to drive.
pub struct Session {
    driver: Driver,
    advisor: Arc<Mutex<AdvisorTimes>>,
    backend: Arc<Mutex<ExecTimes>>,
    spans: Option<Arc<Mutex<SpanProfile>>>,
}

impl Session {
    /// Build `workload`'s session over `substrate`. `traced` attaches a
    /// span-summing recorder with a live wall clock; untraced sessions keep
    /// the noop handle.
    pub fn build(workload: Workload, substrate: &Substrate, traced: bool) -> DbResult<Session> {
        let (obs, spans) = if traced {
            let (recorder, profile) = SpanRecorder::new();
            let obs = Obs::with_recorder(Box::new(recorder)).with_timer(clock::obs_timer());
            (obs, Some(profile))
        } else {
            (Obs::noop(), None)
        };
        let (backend, backend_times) = TimedBackend::simulated();
        let builder = SessionBuilder::new()
            .benchmark(substrate.bench.clone())
            .shared_data(&substrate.base)
            .shared_stats(&substrate.stats)
            .tuner(TunerKind::Mab)
            .seed(SEED)
            .backend_boxed(Box::new(backend))
            .observe(obs);
        let fast_path = MabConfig {
            streaming_fast_path: true,
            ..MabConfig::default()
        };
        let shifting = WorkloadKind::Shifting {
            groups: 4,
            rounds_per_group: 8,
        };
        let (builder, arrival) = match workload {
            Workload::StreamGuarded => (
                builder
                    .workload(shifting)
                    .data_drift(stream_drift())
                    .mab_config(fast_path)
                    .safeguard(SafetyConfig::default()),
                Some(ArrivalProcess::paper_poisson()),
            ),
            Workload::StreamBursty => (
                builder
                    .workload(shifting)
                    .data_drift(stream_drift())
                    .mab_config(fast_path),
                Some(ArrivalProcess::paper_bursty()),
            ),
            Workload::RoundsHtap => (
                builder
                    .workload(WorkloadKind::Static { rounds: 50 })
                    .data_drift(DataDrift::tpch_refresh()),
                None,
            ),
        };
        let mut session = builder.build()?;
        let advisor = TimedAdvisor::install(session.advisor_mut());
        let driver = match arrival {
            Some(arrival) => Driver::Stream(StreamingSession::new(
                session,
                StreamConfig::new(arrival, BUDGET_S),
            )),
            None => Driver::Rounds(session),
        };
        Ok(Session {
            driver,
            advisor,
            backend: backend_times,
            spans,
        })
    }

    /// Drive the session to the end, one closed-loop step at a time: the
    /// next step starts when the previous one returns. A step that returns
    /// an error or panics ends the session and counts as failed.
    pub fn drive(self) -> SessionRun {
        let Session {
            mut driver,
            advisor,
            backend,
            spans,
        } = self;
        let mut run = SessionRun::default();
        loop {
            let watch = Stopwatch::start();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| driver.step()));
            let secs = watch.secs();
            match outcome {
                Ok(Ok(None)) => break,
                Ok(Ok(Some(record))) => {
                    run.step_s.push(secs);
                    // Outside the step's stopwatch: how fast the host runs
                    // right now.
                    run.probe_s.push(crate::probe::time_pass());
                    if record.recommendation.secs() > BUDGET_S {
                        run.budget_missed += 1;
                    }
                }
                Ok(Err(e)) => {
                    eprintln!("step {} failed: {e}", run.step_s.len() + 1);
                    run.failed = 1;
                    break;
                }
                Err(_) => {
                    eprintln!("step {} panicked", run.step_s.len() + 1);
                    run.failed = 1;
                    break;
                }
            }
        }
        // A failed step may leave the session half-updated: read nothing
        // more from it.
        if run.failed == 0 {
            run.plan_cache = driver.session().plan_cache_stats();
            run.whatif = driver.session().whatif_stats();
            run.result = Some(driver.into_result());
        }
        run.advisor = crate::lock(&advisor).clone();
        run.backend = *crate::lock(&backend);
        if let Some(spans) = spans {
            run.spans = crate::lock(&spans).clone();
        }
        run
    }
}

/// What one driven session measured.
#[derive(Debug, Clone, Default)]
pub struct SessionRun {
    /// Wall seconds of each completed step.
    pub step_s: Vec<f64>,
    /// Wall seconds of the reference pass right after each step.
    pub probe_s: Vec<f64>,
    /// Steps that returned an error or panicked (0 or 1: a failure ends
    /// the session).
    pub failed: usize,
    /// Steps whose simulated recommend cost exceeded [`BUDGET_S`].
    pub budget_missed: usize,
    /// The run's accounting; `None` when a step failed.
    pub result: Option<RunResult>,
    pub plan_cache: PlanCacheStats,
    pub whatif: WhatIfStats,
    pub advisor: AdvisorTimes,
    pub backend: ExecTimes,
    /// Span totals; empty for untraced sessions.
    pub spans: SpanProfile,
}

impl SessionRun {
    pub fn attempted(&self) -> usize {
        self.step_s.len() + self.failed
    }

    pub fn step_total_s(&self) -> f64 {
        self.step_s.iter().sum()
    }

    /// The simulated total (recommend + create + execute + maintain).
    pub fn sim_total_s(&self) -> Option<f64> {
        self.result.as_ref().map(|r| r.total().secs())
    }

    /// Did the session finish and reproduce `workload`'s committed total
    /// bit for bit?
    pub fn reproduces(&self, workload: Workload) -> bool {
        self.sim_total_s()
            .is_some_and(|t| t.to_bits() == workload.expected_total_s().to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("stream"), None);
    }

    /// The bit-exact oracles are the committed baseline totals at full
    /// precision.
    #[test]
    fn oracles_match_the_committed_baselines() {
        for w in Workload::ALL {
            let (_, committed) = w.committed_total();
            assert_eq!(format!("{:.4}", w.expected_total_s()), committed, "{w:?}");
        }
    }
}
