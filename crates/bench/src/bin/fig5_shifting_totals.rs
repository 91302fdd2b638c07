//! Figure 5: total end-to-end workload time for dynamic shifting
//! workloads.

use dba_bench::report::totals_rows;
use dba_bench::{print_totals_table, run_benchmark_suite, write_csv, ExperimentEnv, TunerKind};
use dba_common::{DbError, DbResult};
use dba_workloads::all_benchmarks;

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let kind = env.shifting_kind();
    let tuners = [TunerKind::NoIndex, TunerKind::PdTool, TunerKind::Mab];

    println!(
        "Figure 5 — shifting total end-to-end workload time (sf={}, seed={})",
        env.sf, env.seed
    );
    let mut all = Vec::new();
    for bench in all_benchmarks(env.sf) {
        let results = run_benchmark_suite(&bench, kind, &tuners, env.seed)
            .map_err(|e| DbError::Invalid(format!("{}: {e}", bench.name)))?;
        all.extend(results);
    }
    print_totals_table("Fig 5: total workload time by benchmark and tuner", &all);
    let (header, rows) = totals_rows(&all);
    write_csv("results/fig5_shifting_totals.csv", &header, &rows).expect("write csv");
    eprintln!("wrote results/fig5_shifting_totals.csv");
    Ok(())
}
