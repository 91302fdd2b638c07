//! Figure 2: MAB vs. PDTool convergence for static workloads —
//! total time per round over 25 rounds for (a) SSB, (b) TPC-H,
//! (c) TPC-H Skew, (d) TPC-DS, (e) IMDb.

use dba_bench::report::series_rows;
use dba_bench::{print_series, run_benchmark_suite, write_csv, ExperimentEnv, TunerKind};
use dba_common::{DbError, DbResult};
use dba_workloads::all_benchmarks;

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let kind = env.static_kind();
    let tuners = [TunerKind::NoIndex, TunerKind::PdTool, TunerKind::Mab];

    println!(
        "Figure 2 — static workload convergence (sf={}, seed={})",
        env.sf, env.seed
    );
    for (panel, bench) in ["a", "b", "c", "d", "e"].iter().zip(all_benchmarks(env.sf)) {
        let results = run_benchmark_suite(&bench, kind, &tuners, env.seed)
            .map_err(|e| DbError::Invalid(format!("{}: {e}", bench.name)))?;
        print_series(
            &format!(
                "Fig 2({panel}): {} static — total time per round (s)",
                bench.name
            ),
            &results,
        );
        let (header, rows) = series_rows(&results);
        let path = format!(
            "results/fig2_{}.csv",
            bench.name.to_lowercase().replace(['-', ' '], "_")
        );
        write_csv(&path, &header, &rows).expect("write csv");
        eprintln!("wrote {path}");
    }
    Ok(())
}
