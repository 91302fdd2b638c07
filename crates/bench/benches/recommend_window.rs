//! Wall-clock cost of one streaming recommend window — the step the
//! latency budget governs.
//!
//! * `recommend_window_cold` — the first window: arm generation, scatter
//!   setup, a full score-and-select pass over a cold what-if memo.
//! * `recommend_window_warm` — a steady-state window after convergence:
//!   batched scatter updates and a warm what-if memo. This is the number that must
//!   stay inside the per-window budget at the fleet's arrival rate.
//!
//! Both drive the real `StreamingSession` over SSB with the MAB streaming
//! fast path on, measuring `step()` (recommend + execute + observe): the
//! recommend share dominates for the scaled windows benched here.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dba_core::MabConfig;
use dba_session::{
    ArrivalProcess, DynStreamingSession, SessionBuilder, StreamConfig, StreamingSession, TunerKind,
};
use dba_storage::Catalog;
use dba_workloads::{ssb::ssb, Benchmark, WorkloadKind};

const SEED: u64 = 7;
const SF: f64 = 0.02;
/// Warm-up: enough windows for the bandit to converge and the what-if
/// memo to fill (3 rounds × 8 windows).
const WARM_WINDOWS: usize = 16;

fn build_stream(benchmark: &Benchmark, base: &Catalog) -> DynStreamingSession {
    let session = SessionBuilder::new()
        .benchmark(benchmark.clone())
        .shared_data(base)
        .workload(WorkloadKind::Static { rounds: 6 })
        .tuner(TunerKind::Mab)
        .mab_config(MabConfig {
            streaming_fast_path: true,
            ..MabConfig::default()
        })
        .seed(SEED)
        .build()
        .expect("session builds");
    StreamingSession::new(
        session,
        StreamConfig::unbounded(ArrivalProcess::paper_poisson()),
    )
}

fn bench_recommend_window(c: &mut Criterion) {
    let benchmark = ssb(SF);
    let base = benchmark.build_catalog(SEED).expect("catalog builds");

    c.bench_function("recommend_window_cold", |b| {
        b.iter_batched(
            || build_stream(&benchmark, &base),
            |mut stream| {
                stream.step().expect("window steps").expect("has windows");
                stream
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("recommend_window_warm", |b| {
        b.iter_batched(
            || {
                let mut stream = build_stream(&benchmark, &base);
                for _ in 0..WARM_WINDOWS {
                    stream.step().expect("window steps");
                }
                stream
            },
            |mut stream| {
                stream.step().expect("window steps").expect("has windows");
                stream
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_recommend_window);
criterion_main!(benches);
