//! Table II: static workloads under different database sizes — total
//! workload time (minutes) for TPC-H and TPC-H Skew at SF 1, 10, 100,
//! PDTool vs MAB.

use dba_bench::report::fmt_minutes;
use dba_bench::{run_benchmark_suite, write_csv, ExperimentEnv, TunerKind};
use dba_workloads::tpch::{tpch, tpch_skew};

fn main() {
    let env = ExperimentEnv::from_env();
    let kind = env.static_kind();
    let tuners = [TunerKind::PdTool, TunerKind::Mab];
    let sfs: &[f64] = if env.quick {
        &[1.0, 5.0]
    } else {
        &[1.0, 10.0, 100.0]
    };

    println!("Table II — static workloads under different database sizes (min)");
    println!(
        "{:<12} {:>5} {:>12} {:>12}",
        "workload", "SF", "PDTool", "MAB"
    );
    let mut csv_rows = Vec::new();
    for (name, build) in [
        ("TPC-H", tpch as fn(f64) -> dba_workloads::Benchmark),
        (
            "TPC-H Skew",
            tpch_skew as fn(f64) -> dba_workloads::Benchmark,
        ),
    ] {
        for &sf in sfs {
            let bench = build(sf);
            let results = run_benchmark_suite(&bench, &[kind], &tuners, env.seed)
                .unwrap_or_else(|e| panic!("{name} SF{sf}: {e}"));
            let (pd, mab) = (&results[0][0], &results[0][1]);
            println!(
                "{:<12} {:>5} {:>12} {:>12}",
                name,
                sf,
                fmt_minutes(pd.total().secs()),
                fmt_minutes(mab.total().secs())
            );
            csv_rows.push(format!(
                "{name},{sf},{:.4},{:.4}",
                pd.total().minutes(),
                mab.total().minutes()
            ));
        }
    }
    write_csv(
        "results/table2_scale.csv",
        "workload,sf,pdtool_min,mab_min",
        &csv_rows,
    )
    .expect("write csv");
    eprintln!("wrote results/table2_scale.csv");
}
