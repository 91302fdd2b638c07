//! Observability invariants, end to end:
//!
//! * recording is **invisible to results** — the same session run with the
//!   noop handle and with a live ring recorder produces bit-identical
//!   trajectories, across the three scenario shapes the fig binaries use
//!   (drifting batch, guarded adversarial, streaming);
//! * the JSONL line schema round-trips through the same minimal JSON
//!   parser `dba-trace` and `check_baselines` use;
//! * suite fan-out stays bit-identical to the sequential path with
//!   recording *on* — both the tuner results and the traces themselves.

use dba_bench::baseline::Json;
use dba_bench::harness::parallel_map_ordered;
use dba_bench::{RunResult, SafetyConfig, TunerKind};
use dba_obs::{Obs, TraceKind, TraceRecord};
use dba_optimizer::StatsCatalog;
use dba_session::{SessionBuilder, StreamConfig, StreamResult, StreamingSession};
use dba_storage::Catalog;
use dba_workloads::ssb::ssb;
use dba_workloads::{ArrivalProcess, Benchmark, DataDrift, DriftRates, WorkloadKind};

/// Shared substrate for one scenario, so noop and recorded runs price
/// identical data.
fn substrate(seed: u64) -> (Benchmark, Catalog, StatsCatalog) {
    let bench = ssb(0.02);
    let base = bench.build_catalog(seed).expect("catalog builds");
    let stats = StatsCatalog::build(&base);
    (bench, base, stats)
}

/// A fig9-shaped run: static workload with uniform data drift.
fn run_drift(sub: &(Benchmark, Catalog, StatsCatalog), obs: Obs) -> RunResult {
    let mut session = SessionBuilder::new()
        .benchmark(sub.0.clone())
        .shared_data(&sub.1)
        .shared_stats(&sub.2)
        .workload(WorkloadKind::Static { rounds: 4 })
        .data_drift(DataDrift::uniform(DriftRates::new(0.05, 0.02, 0.02)))
        .tuner(TunerKind::Mab)
        .seed(7)
        .observe(obs)
        .build()
        .expect("session builds");
    session.run().expect("session runs")
}

/// A fig_safety-shaped run: shifting workload, drift, guarded MAB.
fn run_guarded(sub: &(Benchmark, Catalog, StatsCatalog), obs: Obs) -> RunResult {
    let mut session = SessionBuilder::new()
        .benchmark(sub.0.clone())
        .shared_data(&sub.1)
        .shared_stats(&sub.2)
        .workload(WorkloadKind::Shifting {
            groups: 2,
            rounds_per_group: 3,
        })
        .data_drift(DataDrift::uniform(DriftRates::new(0.05, 0.02, 0.02)))
        .tuner(TunerKind::Mab)
        .safeguard(SafetyConfig::default())
        .seed(7)
        .observe(obs)
        .build()
        .expect("session builds");
    session.run().expect("session runs")
}

/// A fig_stream-shaped run: bursty arrivals under a recommend budget.
fn run_streaming(sub: &(Benchmark, Catalog, StatsCatalog), obs: Obs) -> StreamResult {
    let session = SessionBuilder::new()
        .benchmark(sub.0.clone())
        .shared_data(&sub.1)
        .shared_stats(&sub.2)
        .workload(WorkloadKind::Static { rounds: 2 })
        .tuner(TunerKind::Mab)
        .seed(7)
        .observe(obs)
        .build()
        .expect("session builds");
    let streaming = StreamingSession::new(
        session,
        StreamConfig::new(ArrivalProcess::paper_bursty(), 0.05),
    );
    streaming.run().expect("stream runs")
}

/// `Debug` prints every `f64` in shortest-roundtrip form, so equal strings
/// mean bit-equal trajectories (modulo the sign of zero, which no
/// simulated duration produces).
fn assert_rounds_identical(scenario: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(
        format!("{:?}", a.rounds),
        format!("{:?}", b.rounds),
        "{scenario}: round trail must be identical with recording on vs off"
    );
    assert_eq!(
        format!("{:?}", a.safety),
        format!("{:?}", b.safety),
        "{scenario}: safety trajectory must be identical with recording on vs off"
    );
}

#[test]
fn recording_is_invisible_to_drift_results() {
    let sub = substrate(7);
    let noop = run_drift(&sub, Obs::noop());
    let ring = Obs::ring(1 << 16);
    let recorded = run_drift(&sub, ring.clone());
    assert_rounds_identical("drift", &noop, &recorded);
    let records = ring.records().expect("ring snapshots");
    assert!(
        !records.is_empty(),
        "the recorded run must actually have recorded"
    );
    // Per-round drift invalidates cached plans, so misses (not hits) are
    // the counter this scenario is guaranteed to move.
    assert!(ring.counter_total("plan_cache.miss") > 0);
}

#[test]
fn recording_is_invisible_to_guarded_results() {
    let sub = substrate(7);
    let noop = run_guarded(&sub, Obs::noop());
    let ring = Obs::ring(1 << 16);
    let recorded = run_guarded(&sub, ring.clone());
    assert_rounds_identical("guarded", &noop, &recorded);
    let records = ring.records().expect("ring snapshots");
    assert!(
        records.iter().any(|r| matches!(
            &r.kind,
            TraceKind::Event { name, .. } if *name == "safety.round_close"
        )),
        "a guarded run must emit a round-close event per round"
    );
    // Both memos mirror their stats into counters one for one. Equality
    // only: this scenario drifts every round, so plan-cache hits are 0.
    for (counter, total) in [
        ("plan_cache.hit", recorded.total_plan_cache_hits()),
        ("plan_cache.miss", recorded.total_plan_cache_misses()),
        ("whatif.hit", recorded.total_whatif_hits()),
        ("whatif.miss", recorded.total_whatif_misses()),
    ] {
        assert_eq!(ring.counter_total(counter), total, "{counter}");
    }
}

#[test]
fn recording_is_invisible_to_streaming_results() {
    let sub = substrate(7);
    let noop = run_streaming(&sub, Obs::noop());
    let ring = Obs::ring(1 << 16);
    let recorded = run_streaming(&sub, ring.clone());
    assert_eq!(
        format!("{:?}", noop.windows),
        format!("{:?}", recorded.windows),
        "streaming: window trail must be identical with recording on vs off"
    );
    assert_eq!(
        noop.queries_per_min().to_bits(),
        recorded.queries_per_min().to_bits()
    );
    assert_eq!(
        noop.recommend_p99_s().to_bits(),
        recorded.recommend_p99_s().to_bits()
    );
    let records = ring.records().expect("ring snapshots");
    assert!(
        records.iter().any(|r| matches!(
            &r.kind,
            TraceKind::Event { name, .. } if *name == "stream.window"
        )),
        "a streaming run must emit one stream.window event per window"
    );
}

/// Every record a real guarded run produces must serialize to a line the
/// workspace JSON parser accepts, with the stable schema fields intact.
#[test]
fn jsonl_schema_round_trips_through_the_baseline_parser() {
    let sub = substrate(7);
    let ring = Obs::ring(1 << 16);
    run_guarded(&sub, ring.clone());
    let records: Vec<TraceRecord> = ring.records().expect("ring snapshots");
    assert!(!records.is_empty());
    let mut last_seq = None;
    for rec in &records {
        let line = rec.to_jsonl();
        let doc = Json::parse(&line).unwrap_or_else(|e| panic!("line must parse: {e}\n  {line}"));
        let seq = doc.get("seq").and_then(Json::as_f64).expect("seq field") as u64;
        assert_eq!(seq, rec.seq, "seq survives the round trip");
        assert!(
            last_seq.is_none_or(|p| seq > p),
            "seq is strictly increasing"
        );
        last_seq = Some(seq);
        let sim = doc
            .get("sim_s")
            .and_then(Json::as_f64)
            .expect("sim_s field");
        assert_eq!(sim.to_bits(), rec.sim_s.to_bits(), "sim_s survives");
        let ty = doc.get("type").and_then(Json::as_str).expect("type field");
        match &rec.kind {
            TraceKind::SpanEnter { name } => {
                assert_eq!(ty, "span_enter");
                assert_eq!(doc.get("name").and_then(Json::as_str), Some(*name));
            }
            TraceKind::SpanExit { name } => {
                assert_eq!(ty, "span_exit");
                assert_eq!(doc.get("name").and_then(Json::as_str), Some(*name));
            }
            TraceKind::Counter { name, delta, total } => {
                assert_eq!(ty, "counter");
                assert_eq!(doc.get("name").and_then(Json::as_str), Some(*name));
                assert_eq!(doc.get("delta").and_then(Json::as_f64), Some(*delta as f64));
                assert_eq!(doc.get("total").and_then(Json::as_f64), Some(*total as f64));
            }
            TraceKind::Event { name, fields } => {
                assert_eq!(ty, "event");
                assert_eq!(doc.get("name").and_then(Json::as_str), Some(*name));
                let parsed = doc.get("fields").expect("fields object");
                for (key, _) in fields {
                    assert!(
                        parsed.get(key).is_some(),
                        "event {name} field {key} survives"
                    );
                }
            }
        }
    }
}

/// Fan-out determinism with recording on: each worker carries its own ring
/// recorder, and both the tuner results and the trace streams must be
/// independent of the worker count.
#[test]
fn parallel_fanout_with_recording_is_bit_identical() {
    let sub = substrate(7);
    let jobs: Vec<(TunerKind, bool)> = vec![
        (TunerKind::NoIndex, false),
        (TunerKind::Mab, false),
        (TunerKind::Mab, true),
    ];
    let run_all = |threads: usize| -> Vec<(RunResult, Vec<TraceRecord>)> {
        parallel_map_ordered(&jobs, threads, |&(tuner, guarded)| {
            let ring = Obs::ring(1 << 16);
            let mut builder = SessionBuilder::new()
                .benchmark(sub.0.clone())
                .shared_data(&sub.1)
                .shared_stats(&sub.2)
                .workload(WorkloadKind::Static { rounds: 3 })
                .tuner(tuner)
                .seed(7)
                .observe(ring.clone());
            if guarded {
                builder = builder.safeguard(SafetyConfig::default());
            }
            let result = builder
                .build()
                .expect("session builds")
                .run()
                .expect("session runs");
            (result, ring.records().expect("ring snapshots"))
        })
    };
    let seq = run_all(1);
    let par = run_all(3);
    assert_eq!(seq.len(), par.len());
    for ((ra, ta), (rb, tb)) in seq.iter().zip(&par) {
        assert_eq!(ra.tuner, rb.tuner, "result order is input order");
        assert_rounds_identical("fanout", ra, rb);
        assert_eq!(
            ta, tb,
            "{}: the trace itself must be thread-count independent",
            ra.tuner
        );
    }
}
