//! Figure 8: DDQN vs. MAB for static workloads — TPC-H and TPC-H Skew
//! over 100 rounds; DDQN/DDQN-SC repeated 10 times (the paper reports
//! means for the totals and medians with inter-quartile ranges for the
//! convergence curves; C2UCB and PDTool are deterministic).

use dba_bench::report::fmt_minutes;
use dba_bench::{run_one, write_csv, ExperimentEnv, RunResult, TunerKind};
use dba_common::DbResult;
use dba_optimizer::StatsCatalog;
use dba_workloads::tpch::{tpch, tpch_skew};
use dba_workloads::WorkloadKind;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let rounds = if env.quick { 20 } else { 100 };
    let reps = if env.quick { 3 } else { 10 };
    let kind = WorkloadKind::Static { rounds };

    println!(
        "Figure 8 — DDQN vs MAB, static workloads ({rounds} rounds, {reps} DDQN repetitions, sf={}, seed={})",
        env.sf, env.seed
    );

    for (panel, bench) in [("a/c", tpch(env.sf)), ("b/d", tpch_skew(env.sf))] {
        let base = bench.build_catalog(env.seed)?;
        let stats = StatsCatalog::build(&base);

        let pd = run_one(&bench, &base, &stats, kind, TunerKind::PdTool, env.seed)?;
        let mab = run_one(&bench, &base, &stats, kind, TunerKind::Mab, env.seed)?;

        let mut ddqn_runs: Vec<RunResult> = Vec::new();
        let mut ddqn_sc_runs: Vec<RunResult> = Vec::new();
        for rep in 0..reps {
            let seed = env.seed + rep as u64;
            ddqn_runs.push(run_one(
                &bench,
                &base,
                &stats,
                kind,
                TunerKind::Ddqn { seed },
                env.seed,
            )?);
            ddqn_sc_runs.push(run_one(
                &bench,
                &base,
                &stats,
                kind,
                TunerKind::DdqnSc { seed },
                env.seed,
            )?);
        }

        // Totals breakdown (Fig 8 a/b): means over repetitions for DDQN.
        let mean = |runs: &[RunResult], f: fn(&RunResult) -> f64| -> f64 {
            runs.iter().map(f).sum::<f64>() / runs.len() as f64
        };
        println!(
            "\n# Fig 8({panel}): {} — totals breakdown (min)",
            bench.name
        );
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>12}",
            "method", "rec", "creation", "execution", "total"
        );
        for (label, rec, cre, exe) in [
            (
                "PDTool",
                pd.total_recommendation().secs(),
                pd.total_creation().secs(),
                pd.total_execution().secs(),
            ),
            (
                "MAB",
                mab.total_recommendation().secs(),
                mab.total_creation().secs(),
                mab.total_execution().secs(),
            ),
            (
                "DDQN",
                mean(&ddqn_runs, |r| r.total_recommendation().secs()),
                mean(&ddqn_runs, |r| r.total_creation().secs()),
                mean(&ddqn_runs, |r| r.total_execution().secs()),
            ),
            (
                "DDQN_SC",
                mean(&ddqn_sc_runs, |r| r.total_recommendation().secs()),
                mean(&ddqn_sc_runs, |r| r.total_creation().secs()),
                mean(&ddqn_sc_runs, |r| r.total_execution().secs()),
            ),
        ] {
            println!(
                "{:<10} {:>10} {:>12} {:>12} {:>12}",
                label,
                fmt_minutes(rec),
                fmt_minutes(cre),
                fmt_minutes(exe),
                fmt_minutes(rec + cre + exe)
            );
        }

        // Convergence (Fig 8 c/d): PDTool/MAB series plus DDQN median and
        // inter-quartile range across repetitions.
        println!(
            "\n# Fig 8({panel}): {} — convergence (s/round): PDTool, MAB, DDQN median [q1,q3], DDQN_SC median",
            bench.name
        );
        println!("round,PDTool,MAB,DDQN_med,DDQN_q1,DDQN_q3,DDQN_SC_med");
        let mut csv = Vec::new();
        for i in 0..rounds {
            let per_rep = |runs: &[RunResult]| -> Vec<f64> {
                let mut v: Vec<f64> = runs.iter().map(|r| r.rounds[i].total().secs()).collect();
                v.sort_by(|a, b| a.total_cmp(b));
                v
            };
            let d = per_rep(&ddqn_runs);
            let dsc = per_rep(&ddqn_sc_runs);
            let row = format!(
                "{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
                i + 1,
                pd.rounds[i].total().secs(),
                mab.rounds[i].total().secs(),
                percentile(&d, 0.5),
                percentile(&d, 0.25),
                percentile(&d, 0.75),
                percentile(&dsc, 0.5),
            );
            println!("{row}");
            csv.push(row);
        }
        let path = format!(
            "results/fig8_{}.csv",
            bench.name.to_lowercase().replace(['-', ' '], "_")
        );
        write_csv(
            &path,
            "round,pdtool_s,mab_s,ddqn_med_s,ddqn_q1_s,ddqn_q3_s,ddqn_sc_med_s",
            &csv,
        )
        .expect("write csv");
        eprintln!("wrote {path}");
    }
    Ok(())
}
