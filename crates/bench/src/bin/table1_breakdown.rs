//! Table I: total time breakdown (minutes) — recommendation / creation /
//! execution / total, PDTool vs MAB, for all five benchmarks under the
//! static, dynamic shifting and dynamic random workloads.

use dba_bench::report::fmt_minutes;
use dba_bench::{run_benchmark_suite, write_csv, ExperimentEnv, RunResult, TunerKind};
use dba_common::{DbError, DbResult};
use dba_workloads::{all_benchmarks, WorkloadKind};

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let tuners = [TunerKind::PdTool, TunerKind::Mab];

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

    type KindOf = Box<dyn Fn(usize) -> WorkloadKind>;

    let mut csv_rows: Vec<String> = Vec::new();
    let sections: Vec<(&str, KindOf)> = vec![
        ("Static", Box::new(move |_| env.static_kind())),
        ("Dynamic", Box::new(move |_| env.shifting_kind())),
        ("Random", Box::new(move |n| env.random_kind(n))),
    ];

    for (label, kind_of) in &sections {
        for bench in all_benchmarks(env.sf) {
            let kind = kind_of(bench.templates().len());
            let results = run_benchmark_suite(&bench, kind, &tuners, env.seed)
                .map_err(|e| DbError::Invalid(format!("{}: {e}", bench.name)))?;
            let (pd, mab): (&RunResult, &RunResult) = (&results[0], &results[1]);
            println!(
                "{:<10} {:<12} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
                label,
                bench.name,
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
                bench.name,
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
    Ok(())
}
