//! Figure 9 (extension): HTAP-style dynamic data — TPC-H analytical
//! rounds with refresh-stream deltas (`orders`/`lineitem` churn) between
//! rounds, the scenario of the paper's follow-up (*No DBA? No regret!*).
//!
//! Every round, after the analytical queries execute, inserts/updates/
//! deletes drift the data: heaps grow, statistics go stale (auto-refreshed
//! past the threshold), and every materialised index is charged its
//! maintenance cost. MAB sees maintenance through the extended reward
//! `r_t(i) = G_t − C_cre − C_maint`; NoIndex pays nothing but scans ever
//! bigger heaps; PDTool recommends obliviously to churn.
//!
//! Writes `results/fig9_htap.csv` (per-round convergence) and
//! `results/fig9_htap.json` (full breakdown + scenario checks).

use dba_bench::report::{series_rows, totals_rows};
use dba_bench::{
    fig_session, harness::parallel_map_ordered, print_series, print_totals_table, results_json,
    suite_threads, write_csv, write_text, ExperimentEnv, RunResult, TunerKind,
};
use dba_common::DbResult;
use dba_optimizer::StatsCatalog;
use dba_storage::Catalog;
use dba_workloads::{tpch::tpch, Benchmark, DataDrift, WorkloadKind};

/// Default round count: longer than the paper's 25 static rounds because
/// the HTAP story is about amortisation — index creation must pay for
/// itself against an ever-growing heap while churn keeps billing
/// maintenance. 50 rounds is where the trade-off settles (MAB's win over
/// NoIndex is seed-stable); `DBA_ROUNDS` overrides.
///
/// Deliberately NOT reduced under `DBA_QUICK=1`, unlike the other fig
/// binaries: at the quick 8-round horizon the end-to-end verdict inverts
/// (creation cannot amortise and NoIndex "wins"), which would make the
/// scenario's self-checks meaningless. Quick mode still shrinks the scale
/// factor, keeping the 50 rounds to a few seconds of wall time.
const DEFAULT_ROUNDS: usize = 50;

/// One tuner's session, stepped to completion. Returns the run plus the
/// rounds in which it held an index on a drifting table without paying
/// maintenance (the scenario's self-check — must come back empty).
#[allow(clippy::too_many_arguments)]
fn run_one_checked(
    bench: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    kind: WorkloadKind,
    drift: &DataDrift,
    drifting: &[dba_common::TableId],
    tuner: TunerKind,
    seed: u64,
) -> (RunResult, Vec<usize>) {
    let mut session = fig_session(bench, base, stats, kind, tuner, seed)
        .data_drift(drift.clone())
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", tuner.label()));
    let mut uncharged = Vec::new();
    loop {
        let record = match session.step() {
            Ok(Some(record)) => record,
            Ok(None) => break,
            Err(e) => panic!("{}: {e}", tuner.label()),
        };
        let holds_drifting_index = session
            .catalog()
            .all_indexes()
            .any(|ix| drifting.contains(&ix.def().table));
        if holds_drifting_index && record.maintenance.secs() <= 0.0 {
            uncharged.push(record.round);
        }
    }
    (session.into_result(), uncharged)
}

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let kind = WorkloadKind::Static {
        rounds: env.rounds.unwrap_or(DEFAULT_ROUNDS),
    };
    let drift = DataDrift::tpch_refresh();
    let tuners = [TunerKind::NoIndex, TunerKind::PdTool, TunerKind::Mab];

    println!(
        "Figure 9 — HTAP dynamic data: TPC-H + refresh-stream drift (sf={}, seed={}, {} rounds)",
        env.sf,
        env.seed,
        kind.rounds()
    );

    let bench = tpch(env.sf);
    let base = bench.build_catalog(env.seed)?;
    let stats = StatsCatalog::build(&base);
    // Tables the drift spec actually churns — only indexes on these owe
    // maintenance (a customer/part index legitimately rides for free).
    let drifting: Vec<_> = base
        .tables()
        .iter()
        .filter(|t| !drift.rates_for(t.name()).is_zero())
        .map(|t| t.id())
        .collect();

    // Fan the tuners out over suite worker threads (`DBA_THREADS`): each
    // session forks the shared catalog/stats by `Arc` and steps its own
    // deterministic loop, so results are bit-identical to a sequential
    // run. The per-round scenario checks ride inside each worker.
    let threads = suite_threads().min(tuners.len()).max(1);
    let runs: Vec<(RunResult, Vec<usize>)> = parallel_map_ordered(&tuners, threads, |&tuner| {
        run_one_checked(
            &bench, &base, &stats, kind, &drift, &drifting, tuner, env.seed,
        )
    });
    // Rounds in which a tuner held ≥1 index on a *drifting* table but paid
    // zero maintenance — must stay empty. (Recommendation happens before
    // the round's drift, so every index present at end-of-round was
    // materialised when the deltas were applied.)
    let mut uncharged: Vec<(String, usize)> = Vec::new();
    let mut results: Vec<RunResult> = Vec::new();
    for (result, rounds) in runs {
        for round in rounds {
            uncharged.push((result.tuner.clone(), round));
        }
        results.push(result);
    }

    print_series("Fig 9: per-round total time under drift", &results);
    print_totals_table("Fig 9: end-to-end totals under drift", &results);

    let noindex = &results[0];
    let mab = &results[2];
    let mab_beats_noindex = mab.total().secs() < noindex.total().secs();
    let mab_maintenance = mab.total_maintenance().secs();
    println!(
        "\nMAB total {:.1}s vs NoIndex {:.1}s → {}",
        mab.total().secs(),
        noindex.total().secs(),
        if mab_beats_noindex {
            "MAB wins despite paying maintenance"
        } else {
            "MAB LOSES — regression!"
        }
    );
    println!(
        "MAB maintenance bill: {:.1}s over {} rounds; NoIndex paid {:.1}s",
        mab_maintenance,
        mab.rounds.len(),
        noindex.total_maintenance().secs()
    );
    for r in &results {
        println!(
            "{} plan cache: {} hits / {} misses ({:.0}% hit rate — replans skipped on \
             unchanged-config rounds)",
            r.tuner,
            r.total_plan_cache_hits(),
            r.total_plan_cache_misses(),
            r.plan_cache_hit_rate() * 100.0
        );
    }
    for (tuner, round) in &uncharged {
        println!("WARNING: {tuner} held indexes in round {round} but paid no maintenance");
    }

    let (header, rows) = series_rows(&results);
    write_csv("results/fig9_htap.csv", &header, &rows).expect("write csv");
    let (theader, trows) = totals_rows(&results);
    write_csv("results/fig9_htap_totals.csv", &theader, &trows).expect("write totals csv");

    let meta = [
        ("figure", "\"fig9_htap\"".to_string()),
        ("benchmark", "\"TPC-H\"".to_string()),
        ("scenario", "\"static+drift (tpch_refresh)\"".to_string()),
        ("sf", format!("{}", env.sf)),
        ("seed", format!("{}", env.seed)),
        ("rounds", format!("{}", kind.rounds())),
        ("mab_beats_noindex", format!("{mab_beats_noindex}")),
        (
            "rounds_with_uncharged_indexes",
            format!("{}", uncharged.len()),
        ),
        (
            "plan_cache_hits_total",
            format!(
                "{}",
                results
                    .iter()
                    .map(|r| r.total_plan_cache_hits())
                    .sum::<u64>()
            ),
        ),
    ];
    write_text("results/fig9_htap.json", &results_json(&meta, &results)).expect("write json");
    eprintln!("wrote results/fig9_htap.csv, results/fig9_htap_totals.csv, results/fig9_htap.json");

    assert!(
        uncharged.is_empty(),
        "materialised configurations must be charged maintenance under drift"
    );
    assert!(
        mab_maintenance > 0.0,
        "MAB materialises indexes on churning tables and must pay for them"
    );
    assert!(
        mab_beats_noindex,
        "MAB must beat NoIndex end-to-end even while paying maintenance"
    );
    for r in &results {
        assert!(
            r.total_plan_cache_hits() > 0,
            "{}: drift churns only orders/lineitem — templates over stable \
             tables must be served from the plan cache",
            r.tuner
        );
    }
    Ok(())
}
