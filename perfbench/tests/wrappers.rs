//! The benchmark's instrumentation must be invisible to the tuning loop:
//! with the timing wrappers installed, and with the span recorder
//! attached, a session runs the bare session's trajectory bit for bit.
//! Small SSB sessions exercise every forwarded call: drift reaches
//! `on_data_change`, a starved streaming budget makes `begin_window`'s
//! degrade modes matter, records carry `bandit_counters`, and the guard
//! receives its window weights.

use dba_obs::Obs;
use dba_session::{
    ArrivalProcess, DataDrift, DriftRates, SafetyConfig, SessionBuilder, StreamConfig,
    StreamingSession, TunerKind,
};
use dba_workloads::{ssb::ssb, WorkloadKind};
use perfbench::clock;
use perfbench::spans::SpanRecorder;
use perfbench::wrap::{TimedAdvisor, TimedBackend};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    Bare,
    Wrapped,
    WrappedTraced,
}

fn builder(guard: bool, variant: Variant) -> SessionBuilder {
    let mut b = SessionBuilder::new()
        .benchmark(ssb(0.02))
        .tuner(TunerKind::Mab)
        .workload(WorkloadKind::Shifting {
            groups: 2,
            rounds_per_group: 3,
        })
        .data_drift(DataDrift::uniform(DriftRates::new(0.05, 0.02, 0.02)))
        .seed(7);
    if guard {
        b = b.safeguard(SafetyConfig::default());
    }
    if variant != Variant::Bare {
        b = b.backend_boxed(Box::new(TimedBackend::simulated().0));
    }
    if variant == Variant::WrappedTraced {
        let (recorder, _) = SpanRecorder::new();
        b = b.observe(Obs::with_recorder(Box::new(recorder)).with_timer(clock::obs_timer()));
    }
    b
}

/// What a streaming run must reproduce, `Debug`-printed (every `f64`
/// exactly), plus the figures that show the scenario exercises the
/// forwarded calls.
struct StreamOutcome {
    windows: String,
    safety: String,
    degraded: usize,
    refreshes: u64,
    maintenance_s: f64,
}

fn streaming(guard: bool, variant: Variant) -> StreamOutcome {
    let mut session = builder(guard, variant).build().unwrap();
    if variant != Variant::Bare {
        TimedAdvisor::install(session.advisor_mut());
    }
    let config = StreamConfig::new(ArrivalProcess::paper_bursty(), 0.05);
    let result = StreamingSession::new(session, config).run().unwrap();
    StreamOutcome {
        windows: format!("{:?}", result.windows),
        safety: format!("{:?}", result.run.safety),
        degraded: result.degraded_windows(),
        refreshes: result.run.total_bandit_refreshes(),
        maintenance_s: result.run.total_maintenance().secs(),
    }
}

#[test]
fn wrapped_streaming_sessions_are_bit_identical() {
    for guard in [false, true] {
        let bare = streaming(guard, Variant::Bare);
        assert!(bare.degraded > 0, "the starved budget must degrade windows");
        assert!(bare.refreshes > 0, "the bandit must refresh");
        assert!(bare.maintenance_s > 0.0, "drift must bill maintenance");
        for variant in [Variant::Wrapped, Variant::WrappedTraced] {
            let wrapped = streaming(guard, variant);
            assert_eq!(wrapped.windows, bare.windows, "guard={guard} {variant:?}");
            assert_eq!(wrapped.safety, bare.safety, "guard={guard} {variant:?}");
        }
    }
}

#[test]
fn wrapped_round_sessions_are_bit_identical() {
    let run = |variant: Variant| {
        let mut session = builder(true, variant).build().unwrap();
        if variant != Variant::Bare {
            TimedAdvisor::install(session.advisor_mut());
        }
        let result = session.run().unwrap();
        format!("{:?} {:?}", result.rounds, result.safety)
    };
    let bare = run(Variant::Bare);
    assert_eq!(run(Variant::Wrapped), bare);
    assert_eq!(run(Variant::WrappedTraced), bare);
}

#[test]
fn wrappers_time_every_call() {
    let (backend, exec) = TimedBackend::simulated();
    let mut session = builder(false, Variant::Bare)
        .backend_boxed(Box::new(backend))
        .build()
        .unwrap();
    let advisor = TimedAdvisor::install(session.advisor_mut());
    assert_eq!(
        session.advisor().name(),
        "MAB",
        "the wrapper keeps the name"
    );
    let result = session.run().unwrap();
    let times = advisor.lock().unwrap();
    assert_eq!(times.recommend_s.len(), result.rounds.len());
    assert!(times.recommend_s.iter().all(|&s| s >= 0.0));
    assert!(times.observe_s > 0.0);
    let exec = exec.lock().unwrap();
    let executed: u64 = result
        .rounds
        .iter()
        .map(|r| r.plan_cache_hits + r.plan_cache_misses)
        .sum();
    assert_eq!(exec.calls, executed, "one execute per planned query");
    assert!(exec.execute_s > 0.0);
}

/// `attach_obs` on the wrapper must reach the tuner inside: its `mab.*`
/// spans then land in the attached recorder.
#[test]
fn the_advisor_wrapper_forwards_attach_obs() {
    let mut session = builder(false, Variant::Bare).build().unwrap();
    TimedAdvisor::install(session.advisor_mut());
    let (recorder, profile) = SpanRecorder::new();
    let obs = Obs::with_recorder(Box::new(recorder)).with_timer(clock::obs_timer());
    session.advisor_mut().attach_obs(&obs);
    session.step().unwrap();
    let profile = profile.lock().unwrap();
    assert_eq!(profile.get("mab.recommend").count, 1);
    assert_eq!(profile.get("mab.observe").count, 1);
}
