//! Figure 6: MAB vs. PDTool convergence for dynamic random workloads —
//! 25 rounds of uniform template draws; PDTool invoked every 4 rounds
//! (spikes in rounds 5, 9, 13, 17, 21).

use dba_bench::report::series_rows;
use dba_bench::{print_series, run_benchmark_suite, write_csv, ExperimentEnv, TunerKind};
use dba_common::{DbError, DbResult};
use dba_workloads::all_benchmarks;

fn main() -> DbResult<()> {
    let env = ExperimentEnv::from_env();
    let tuners = [TunerKind::NoIndex, TunerKind::PdTool, TunerKind::Mab];

    println!(
        "Figure 6 — dynamic random convergence (sf={}, seed={})",
        env.sf, env.seed
    );
    for (panel, bench) in ["a", "b", "c", "d", "e"].iter().zip(all_benchmarks(env.sf)) {
        let kind = env.random_kind(bench.templates().len());
        let results = run_benchmark_suite(&bench, kind, &tuners, env.seed)
            .map_err(|e| DbError::Invalid(format!("{}: {e}", bench.name)))?;
        print_series(
            &format!(
                "Fig 6({panel}): {} random — total time per round (s)",
                bench.name
            ),
            &results,
        );
        let (header, rows) = series_rows(&results);
        let path = format!(
            "results/fig6_{}.csv",
            bench.name.to_lowercase().replace(['-', ' '], "_")
        );
        write_csv(&path, &header, &rows).expect("write csv");
        eprintln!("wrote {path}");
    }
    Ok(())
}
