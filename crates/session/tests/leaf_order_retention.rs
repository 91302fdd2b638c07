//! Reading a retained leaf order moves no simulated number.
//!
//! A base table retains the leaf order of every key-column list sorted
//! more than once over it, and each later index with those key columns
//! shares that order instead of sorting. A bursty streaming MAB session
//! drops and re-creates its arms, so sessions over one base read retained
//! orders where a session over a freshly generated base still sorts. Their
//! results must agree bit for bit.

use dba_core::MabConfig;
use dba_optimizer::StatsCatalog;
use dba_session::{
    ArrivalProcess, DataDrift, DriftRates, RoundRecord, RunResult, SessionBuilder, StreamConfig,
    StreamingSession, TunerKind,
};
use dba_storage::Catalog;
use dba_workloads::{tpch::tpch, Benchmark, WorkloadKind};

const SEED: u64 = 42;

/// `fig_stream`'s MAB/bursty run, shortened: the streaming fast path,
/// light drift on orders and lineitem, and flash crowds over the whole
/// template universe.
fn bursty_mab(bench: &Benchmark, base: &Catalog, stats: &StatsCatalog) -> RunResult {
    let session = SessionBuilder::new()
        .benchmark(bench.clone())
        .shared_data(base)
        .shared_stats(stats)
        .workload(WorkloadKind::Shifting {
            groups: 4,
            rounds_per_group: 2,
        })
        .data_drift(
            DataDrift::none()
                .with_table("orders", DriftRates::new(0.005, 0.0, 0.005))
                .with_table("lineitem", DriftRates::new(0.005, 0.0025, 0.005)),
        )
        .tuner(TunerKind::Mab)
        .mab_config(MabConfig {
            streaming_fast_path: true,
            ..MabConfig::default()
        })
        .seed(SEED)
        .build()
        .expect("session builds");
    let config = StreamConfig::new(ArrivalProcess::paper_bursty(), 0.2);
    StreamingSession::new(session, config)
        .run()
        .expect("session runs")
        .run
}

/// Every number of one window's record, floats as bits.
fn bits(r: &RoundRecord) -> [u64; 12] {
    [
        r.round as u64,
        r.recommendation.secs().to_bits(),
        r.creation.secs().to_bits(),
        r.execution.secs().to_bits(),
        r.maintenance.secs().to_bits(),
        r.plan_cache_hits,
        r.plan_cache_misses,
        r.whatif_hits,
        r.whatif_misses,
        r.shift_intensity.to_bits(),
        r.bandit_refreshes,
        r.bandit_decays,
    ]
}

fn assert_bit_identical(label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(
        a.total().secs().to_bits(),
        b.total().secs().to_bits(),
        "{label}: total {} vs {}",
        a.total().secs(),
        b.total().secs()
    );
    assert_eq!(a.rounds.len(), b.rounds.len(), "{label}: window count");
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(bits(ra), bits(rb), "{label}: window {}", ra.round);
    }
}

/// Two sessions over one base run on two threads at once, so they race on
/// its retained orders as a parallel figure suite's forks do. A session
/// over a second base generated from the same seed then sorts its keys
/// again.
#[test]
fn retained_leaf_orders_leave_a_bursty_session_bit_identical() {
    let bench = tpch(0.02);
    let shared = bench.build_catalog(SEED).expect("catalog builds");
    let stats = StatsCatalog::build(&shared);
    let [first, second] = std::thread::scope(|scope| {
        let runs = [(); 2].map(|()| scope.spawn(|| bursty_mab(&bench, &shared, &stats)));
        runs.map(|run| run.join().expect("session thread panicked"))
    });

    let fresh_base = bench.build_catalog(SEED).expect("catalog builds");
    let fresh = bursty_mab(&bench, &fresh_base, &StatsCatalog::build(&fresh_base));

    assert!(!first.rounds.is_empty(), "the session ran no window");
    assert_bit_identical("shared base, second session", &first, &second);
    assert_bit_identical("fresh base", &first, &fresh);
}
