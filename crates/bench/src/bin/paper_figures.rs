//! Figures 2–7 and Table I: NoIndex, PDTool and MAB over the static,
//! dynamic shifting and dynamic random workloads of all five benchmarks.
//! Each (workload, benchmark) suite runs once, and every figure and the
//! table print from those runs:
//!
//! * Figures 2, 4 and 6: convergence, total time per round, one panel per
//!   benchmark — static 25 rounds; shifting 4 template groups × 20 rounds,
//!   PDTool re-invoked in rounds 2/22/42/62; random 25 rounds of uniform
//!   template draws, PDTool invoked every 4 rounds (spikes in rounds 5, 9,
//!   13, 17, 21);
//! * Figures 3, 5 and 7: total end-to-end workload time, including
//!   recommendation and creation time, by benchmark and tuner;
//! * Table I: recommendation / creation / execution / total minutes,
//!   PDTool vs MAB.
//!
//! Writes the figures' CSVs under `results/` (`fig2_<benchmark>.csv`,
//! `fig3_static_totals.csv`, …, `table1_breakdown.csv`) and every run,
//! round by round, to `results/paper_figures.json`.

use dba_bench::report::{fmt_minutes, series_rows, totals_rows};
use dba_bench::{
    print_series, print_totals_table, results_json, run_benchmark_suite, write_csv, write_text,
    ExperimentEnv, RunResult, TunerKind,
};
use dba_common::{DbError, DbResult};
use dba_workloads::all_benchmarks;

/// The tuners each suite runs, in the order each suite's runs come back.
const TUNERS: [TunerKind; 3] = [TunerKind::NoIndex, TunerKind::PdTool, TunerKind::Mab];

/// Per workload kind, in the order the figures print: its label, the
/// title of its convergence figure and its row label in Table I.
const WORKLOADS: [(&str, &str, &str); 3] = [
    ("static", "static workload convergence", "Static"),
    ("shifting", "dynamic shifting convergence", "Dynamic"),
    ("random", "dynamic random convergence", "Random"),
];

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let benches = all_benchmarks(env.sf);

    // `runs[w]`: workload `w`'s runs, benchmark by benchmark, each
    // benchmark's in tuner order.
    let mut runs: [Vec<RunResult>; 3] = Default::default();
    for bench in &benches {
        let kinds = [
            env.static_kind(),
            env.shifting_kind(),
            env.random_kind(bench.templates().len()),
        ];
        let suites = run_benchmark_suite(bench, &kinds, &TUNERS, env.seed)
            .map_err(|e| DbError::Invalid(format!("{}: {e}", bench.name)))?;
        for (kind_runs, suite) in runs.iter_mut().zip(suites) {
            kind_runs.extend(suite);
        }
    }

    for (w, ((name, convergence, _), kind_runs)) in WORKLOADS.iter().zip(&runs).enumerate() {
        let (series_fig, totals_fig) = (2 + 2 * w, 3 + 2 * w);
        println!(
            "Figure {series_fig} — {convergence} (sf={}, seed={})",
            env.sf, env.seed
        );
        let panels = ["a", "b", "c", "d", "e"].iter().zip(&benches);
        for ((panel, bench), results) in panels.zip(kind_runs.chunks(TUNERS.len())) {
            print_series(
                &format!(
                    "Fig {series_fig}({panel}): {} {name} — total time per round (s)",
                    bench.name
                ),
                results,
            );
            let (header, rows) = series_rows(results, 4);
            let path = format!(
                "results/fig{series_fig}_{}.csv",
                bench.name.to_lowercase().replace(['-', ' '], "_")
            );
            write_csv(&path, &header, &rows).expect("write csv");
            eprintln!("wrote {path}");
        }

        println!(
            "Figure {totals_fig} — {name} total end-to-end workload time (sf={}, seed={})",
            env.sf, env.seed
        );
        print_totals_table(
            &format!("Fig {totals_fig}: total workload time by benchmark and tuner"),
            kind_runs,
        );
        let (header, rows) = totals_rows(kind_runs);
        let path = format!("results/fig{totals_fig}_{name}_totals.csv");
        write_csv(&path, &header, &rows).expect("write csv");
        eprintln!("wrote {path}");
    }

    print_table1(&env, &runs);

    let meta = [
        ("figure", "\"paper_figures\"".to_string()),
        ("sf", format!("{}", env.sf)),
        ("seed", format!("{}", env.seed)),
    ];
    let all: Vec<RunResult> = runs.into_iter().flatten().collect();
    write_text("results/paper_figures.json", &results_json(&meta, &all)).expect("write json");
    eprintln!("wrote results/paper_figures.json");
    Ok(())
}

/// Table I from the runs of each workload: PDTool's and MAB's time
/// breakdown per benchmark, in minutes.
fn print_table1(env: &ExperimentEnv, runs: &[Vec<RunResult>; 3]) {
    println!(
        "Table I — total time breakdown in minutes (sf={}, seed={})",
        env.sf, env.seed
    );
    println!(
        "{:<10} {:<12} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "workload",
        "benchmark",
        "rec PD",
        "rec MAB",
        "cre PD",
        "cre MAB",
        "exe PD",
        "exe MAB",
        "tot PD",
        "tot MAB"
    );
    let mut csv_rows: Vec<String> = Vec::new();
    for ((_, _, label), kind_runs) in WORKLOADS.iter().zip(runs) {
        for results in kind_runs.chunks(TUNERS.len()) {
            let (pd, mab) = (&results[1], &results[2]);
            println!(
                "{:<10} {:<12} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
                label,
                pd.benchmark,
                fmt_minutes(pd.total_recommendation().secs()),
                fmt_minutes(mab.total_recommendation().secs()),
                fmt_minutes(pd.total_creation().secs()),
                fmt_minutes(mab.total_creation().secs()),
                fmt_minutes(pd.total_execution().secs()),
                fmt_minutes(mab.total_execution().secs()),
                fmt_minutes(pd.total().secs()),
                fmt_minutes(mab.total().secs()),
            );
            csv_rows.push(format!(
                "{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                label,
                pd.benchmark,
                pd.total_recommendation().minutes(),
                mab.total_recommendation().minutes(),
                pd.total_creation().minutes(),
                mab.total_creation().minutes(),
                pd.total_execution().minutes(),
                mab.total_execution().minutes(),
                pd.total().minutes(),
                mab.total().minutes(),
            ));
        }
    }
    write_csv(
        "results/table1_breakdown.csv",
        "workload,benchmark,rec_pdtool_min,rec_mab_min,create_pdtool_min,create_mab_min,exec_pdtool_min,exec_mab_min,total_pdtool_min,total_mab_min",
        &csv_rows,
    )
    .expect("write csv");
    eprintln!("wrote results/table1_breakdown.csv");
}
