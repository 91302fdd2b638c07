//! Safety figure (extension): the guardrail subsystem under an adversarial
//! workload — hostile template-group shifts *plus* data churn on the
//! dimension tables, the combination that punishes eager index creation
//! hardest (dimension indexes are cheap to build, so exploration loves
//! them, yet the shifting workload keeps invalidating their benefit while
//! churn keeps billing their maintenance).
//!
//! Five runs over identical shared data: NoIndex (the do-nothing
//! baseline), MAB and DDQN unguarded, and MAB and DDQN behind the
//! `dba-safety` guardrail. The scenario is self-checking:
//!
//! * unguarded DDQN — pure exploration for its first ~2400 samples —
//!   regresses past the configured safety bound vs NoIndex;
//! * every *guarded* tuner stays within the bound (veto + rollback +
//!   throttle make overspending structurally impossible beyond slack and
//!   estimate error);
//! * guarded MAB still **beats** NoIndex — the guardrail does not tax a
//!   healthy tuner into mediocrity;
//! * at least one rollback and one throttled round occur and are visible
//!   in the results JSON.
//!
//! Writes `results/fig_safety.csv` (per-round convergence),
//! `results/fig_safety_totals.csv` and `results/fig_safety.json` (full
//! breakdown + safety trajectories).

use dba_bench::report::{series_rows, totals_rows};
use dba_bench::{
    fig_session, harness::parallel_map_ordered, print_series, print_totals_table, results_json,
    suite_threads, write_csv, write_text, ExperimentEnv, RunResult, SafetyConfig, TunerKind,
};
use dba_common::{BudgetTimer, DbResult};
use dba_obs::Obs;
use dba_optimizer::StatsCatalog;
use dba_storage::Catalog;
use dba_workloads::{ssb::ssb, Benchmark, DataDrift, DriftRates, WorkloadKind};

/// Shift cadence: a new template group every 12 rounds, 3 groups — 36
/// rounds total. Long enough per group for a competent tuner's builds to
/// amortise (the MAB-beats-NoIndex verdict needs that runway, and its
/// margin is thin — re-tune here before tightening the scenario), with
/// enough shifts for the guardrail's rollback/throttle dynamics, short
/// enough for CI. `DBA_ROUNDS` overrides the rounds per group. Not reduced
/// under `DBA_QUICK=1` (the verdicts need the full cadence); quick mode
/// shrinks the scale factor only.
const GROUPS: usize = 3;
const ROUNDS_PER_GROUP: usize = 12;

/// Margin on the bound assertion, covering what the guardrail cannot see:
/// the gap between what-if shadow estimates and actual execution, and the
/// one round of overshoot a throttle latch admits before it bites.
const BOUND_MARGIN: f64 = 0.15;

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let kind = WorkloadKind::Shifting {
        groups: GROUPS,
        rounds_per_group: env.rounds.unwrap_or(ROUNDS_PER_GROUP),
    };
    // Churn the dimension tables: indexes built there (which random
    // exploration loves — they are small and cheap) bleed maintenance
    // while the shifting workload keeps invalidating whatever benefit
    // they had, so the rollback and throttle paths get exercised. The
    // fact table stays read-only, leaving a competent tuner its win.
    let drift = DataDrift::none()
        .with_table("customer", DriftRates::new(0.03, 0.015, 0.015))
        .with_table("supplier", DriftRates::new(0.03, 0.015, 0.015))
        .with_table("part", DriftRates::new(0.03, 0.015, 0.015))
        .with_table("date", DriftRates::new(0.01, 0.005, 0.005));
    let safety = env.safety_config();

    println!(
        "Safety figure — adversarial shifting+drift (SSB sf={}, seed={}, {} rounds, \
         regret bound {:.2}×shadow + {:.0}s slack)",
        env.sf,
        env.seed,
        kind.rounds(),
        safety.regret_bound_factor,
        safety.regret_slack_s,
    );

    let bench = ssb(env.sf);
    let base = bench.build_catalog(env.seed)?;
    let stats = StatsCatalog::build(&base);

    let runs: Vec<(TunerKind, bool)> = vec![
        (TunerKind::NoIndex, false),
        (TunerKind::Mab, false),
        (TunerKind::Mab, true),
        (TunerKind::Ddqn { seed: env.seed }, false),
        (TunerKind::Ddqn { seed: env.seed }, true),
    ];
    // `DBA_TRACE=<path>` attaches the JSONL exporter to exactly one run —
    // the guarded MAB session (parallel sessions cannot share one file).
    // Wall-clock stamps are advisory and never feed back into results.
    let trace: Option<Obs> = env.trace_path().map(|path| {
        let obs = Obs::jsonl(&path)
            .unwrap_or_else(|e| panic!("DBA_TRACE={path}: {e}"))
            .with_timer(BudgetTimer::wall());
        eprintln!("tracing guarded MAB run to {path}");
        obs
    });

    let threads = suite_threads().min(runs.len()).max(1);
    let results: Vec<RunResult> = parallel_map_ordered(&runs, threads, |&(tuner, guarded)| {
        let obs = match (tuner, guarded) {
            (TunerKind::Mab, true) => trace.as_ref(),
            _ => None,
        };
        run_one(
            &bench, &base, &stats, kind, &drift, tuner, guarded, safety, env.seed, obs,
        )
    });
    if let Some(obs) = &trace {
        obs.flush();
    }

    print_series(
        "Safety: per-round total time, adversarial workload",
        &results,
    );
    print_totals_table("Safety: end-to-end totals", &results);

    let noindex_total = results[0].total().secs();
    let bound_factor = 1.0 + safety.regret_bound_factor + BOUND_MARGIN;
    let slack = safety.regret_slack_s;
    println!("\nNoIndex total: {noindex_total:.1}s; safety envelope: {bound_factor:.2}× + {slack:.0}s slack");
    let mut rollbacks_total = 0;
    let mut throttled_total = 0;
    let mut vetoes_total = 0;
    for r in &results {
        let ratio = r.total().secs() / noindex_total;
        match &r.safety {
            Some(s) => {
                rollbacks_total += s.rollbacks;
                throttled_total += s.throttled_rounds;
                vetoes_total += s.vetoes;
                println!(
                    "{:>12}: {:8.1}s ({:.2}× NoIndex) — {} vetoes, {} rollbacks, {} throttled \
                     rounds, cum regret {:.1}s ({:.2}× shadow)",
                    r.tuner,
                    r.total().secs(),
                    ratio,
                    s.vetoes,
                    s.rollbacks,
                    s.throttled_rounds,
                    s.cum_regret_s,
                    s.regret_factor(),
                );
            }
            None => println!(
                "{:>12}: {:8.1}s ({:.2}× NoIndex), unguarded",
                r.tuner,
                r.total().secs(),
                ratio
            ),
        }
        if r.total_whatif_hits() + r.total_whatif_misses() > 0 {
            println!(
                "{:>12}  what-if cache: {} hits / {} misses ({:.0}% — shadow pricing and \
                 rollback assessment served from the shared service memo)",
                "",
                r.total_whatif_hits(),
                r.total_whatif_misses(),
                r.whatif_hit_rate() * 100.0
            );
        }
    }

    let (header, rows) = series_rows(&results, 4);
    write_csv("results/fig_safety.csv", &header, &rows).expect("write csv");
    let (theader, trows) = totals_rows(&results);
    write_csv("results/fig_safety_totals.csv", &theader, &trows).expect("write totals csv");

    let ddqn_unguarded = &results[3];
    let ddqn_ratio = ddqn_unguarded.total().secs() / noindex_total;
    let meta = [
        ("figure", "\"fig_safety\"".to_string()),
        ("benchmark", "\"SSB\"".to_string()),
        ("scenario", "\"shifting+drift (adversarial)\"".to_string()),
        ("sf", format!("{}", env.sf)),
        ("seed", format!("{}", env.seed)),
        ("rounds", format!("{}", kind.rounds())),
        (
            "regret_bound_factor",
            format!("{}", safety.regret_bound_factor),
        ),
        ("regret_slack_s", format!("{}", safety.regret_slack_s)),
        ("safety_envelope_factor", format!("{bound_factor:.4}")),
        ("noindex_total_s", format!("{noindex_total:.4}")),
        ("ddqn_unguarded_ratio", format!("{ddqn_ratio:.4}")),
        ("rollbacks_total", format!("{rollbacks_total}")),
        ("throttled_rounds_total", format!("{throttled_total}")),
        ("vetoes_total", format!("{vetoes_total}")),
        (
            "whatif_hits_total",
            format!(
                "{}",
                results.iter().map(|r| r.total_whatif_hits()).sum::<u64>()
            ),
        ),
    ];
    write_text("results/fig_safety.json", &results_json(&meta, &results)).expect("write json");
    eprintln!(
        "wrote results/fig_safety.csv, results/fig_safety_totals.csv, results/fig_safety.json"
    );

    // --- Self-checks: the scenario must demonstrate the guarantee. ---
    let envelope = |total: f64| total <= bound_factor * noindex_total + slack;
    assert!(
        !envelope(ddqn_unguarded.total().secs()),
        "unguarded DDQN must demonstrably violate the safety envelope: {:.1}s vs {:.1}s NoIndex \
         ({ddqn_ratio:.2}×) — the adversarial scenario is not adversarial enough",
        ddqn_unguarded.total().secs(),
        noindex_total,
    );
    for r in results.iter().filter(|r| r.safety.is_some()) {
        assert!(
            envelope(r.total().secs()),
            "{} must stay within the safety envelope: {:.1}s vs bound {:.1}s",
            r.tuner,
            r.total().secs(),
            bound_factor * noindex_total + slack,
        );
    }
    let mab_guarded = &results[2];
    assert!(
        mab_guarded.total().secs() < noindex_total,
        "guarded MAB must still beat NoIndex: {:.1}s vs {:.1}s",
        mab_guarded.total().secs(),
        noindex_total,
    );
    assert!(
        rollbacks_total >= 1,
        "the adversarial run must exercise at least one rollback"
    );
    for r in results.iter().filter(|r| r.safety.is_some()) {
        assert!(
            r.total_whatif_hits() > 0,
            "{}: guarded shadow pricing repeats templates across rounds — \
             the shared what-if service must serve hits",
            r.tuner
        );
    }
    assert!(
        throttled_total >= 1,
        "the adversarial run must exercise at least one throttled round"
    );
    for r in results.iter().filter(|r| r.safety.is_some()) {
        let s = r.safety.as_ref().unwrap();
        assert_eq!(
            s.rounds.len(),
            r.rounds.len(),
            "{}: safety trajectory must cover every round",
            r.tuner
        );
    }
    println!(
        "\nself-checks passed: guarded tuners bounded, unguarded DDQN not, guardrail exercised"
    );
    Ok(())
}

/// Build and run one (tuner, guarded?) session over the shared substrate.
#[allow(clippy::too_many_arguments)]
fn run_one(
    bench: &Benchmark,
    base: &Catalog,
    stats: &StatsCatalog,
    kind: WorkloadKind,
    drift: &DataDrift,
    tuner: TunerKind,
    guarded: bool,
    safety: SafetyConfig,
    seed: u64,
    obs: Option<&Obs>,
) -> RunResult {
    let mut builder = fig_session(bench, base, stats, kind, tuner, seed).data_drift(drift.clone());
    if guarded {
        builder = builder.safeguard(safety);
    }
    if let Some(obs) = obs {
        builder = builder.observe(obs.clone());
    }
    let mut session = builder
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", tuner.label()));
    session
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", tuner.label()))
}
