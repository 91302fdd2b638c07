//! Figure 7: total end-to-end workload time for dynamic random workloads.

use dba_bench::report::totals_rows;
use dba_bench::{print_totals_table, run_benchmark_suite, write_csv, ExperimentEnv, TunerKind};
use dba_common::{DbError, DbResult};
use dba_workloads::all_benchmarks;

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let tuners = [TunerKind::NoIndex, TunerKind::PdTool, TunerKind::Mab];

    println!(
        "Figure 7 — random total end-to-end workload time (sf={}, seed={})",
        env.sf, env.seed
    );
    let mut all = Vec::new();
    for bench in all_benchmarks(env.sf) {
        let kind = env.random_kind(bench.templates().len());
        let results = run_benchmark_suite(&bench, kind, &tuners, env.seed)
            .map_err(|e| DbError::Invalid(format!("{}: {e}", bench.name)))?;
        all.extend(results);
    }
    print_totals_table("Fig 7: total workload time by benchmark and tuner", &all);
    let (header, rows) = totals_rows(&all);
    write_csv("results/fig7_random_totals.csv", &header, &rows).expect("write csv");
    eprintln!("wrote results/fig7_random_totals.csv");
    Ok(())
}
