//! Baseline-drift check: diff the scenario runs' freshly written results
//! JSON against the committed `BENCH_*.json` baselines, per tuner, within
//! a stated tolerance, and print a readable delta table.
//!
//! Run *after* the scenario binaries in CI:
//!
//! ```text
//! DBA_QUICK=1 cargo run --release -p dba-bench --bin fig9_htap
//! DBA_QUICK=1 cargo run --release -p dba-bench --bin fig_safety
//! DBA_QUICK=1 cargo run --release -p dba-bench --bin fig_stream
//! cargo run --release -p dba-bench --bin check_baselines
//! ```
//!
//! Exit status is non-zero when any quantity drifts past the tolerance,
//! when a seed mismatch makes the comparison meaningless, or when a file
//! is missing/unparsable. Knobs (parsed by the harness's `env_knob`: a bad
//! value is warned about and the default kept):
//!
//! * `DBA_BASELINE_TOL` — relative tolerance (default 0.02 = ±2%; runs
//!   are deterministic, so the default mostly covers float-formatting
//!   noise while still catching real drift);
//! * `DBA_BASELINE_ABS_SLACK_S` — absolute slack in simulated seconds
//!   (default 0.5) so near-zero components cannot trip on rounding.
//!
//! When a drift is *intentional* (the trajectory legitimately moved),
//! refresh the committed baselines, `paper_figures`' too (CI diffs its
//! quick document byte for byte, though it has no rows here yet):
//!
//! ```text
//! cp results/fig9_htap.json BENCH_fig9_htap.json
//! cp results/fig_safety.json BENCH_fig_safety.json
//! cp results/fig_stream.json BENCH_fig_stream.json
//! cp results/paper_figures.json BENCH_paper_figures.json
//! ```

use std::process::ExitCode;

use dba_bench::baseline::{compare_totals, extract_totals, format_delta_table, Json, RunTotals};
use dba_bench::harness::env_knob;

/// The (current, committed-baseline) document pairs the check covers.
/// `extract_totals` reads each run's `seed`, `tuner` and `totals`; the
/// `stream` summaries and window trails of `fig_stream` are not gated
/// here.
const PAIRS: [(&str, &str, &str); 3] = [
    (
        "fig9_htap",
        "results/fig9_htap.json",
        "BENCH_fig9_htap.json",
    ),
    (
        "fig_safety",
        "results/fig_safety.json",
        "BENCH_fig_safety.json",
    ),
    (
        "fig_stream",
        "results/fig_stream.json",
        "BENCH_fig_stream.json",
    ),
];

fn load(path: &str) -> Result<(Option<f64>, Vec<RunTotals>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!("cannot read {path}: {e} (run the scenario binaries first — see --bin fig9_htap / fig_safety / fig_stream)")
    })?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    extract_totals(&doc).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let non_negative = |name: &str, default: f64| {
        env_knob(name, "a non-negative number", |v: &f64| {
            v.is_finite() && *v >= 0.0
        })
        .unwrap_or(default)
    };
    let rel_tol = non_negative("DBA_BASELINE_TOL", 0.02);
    let abs_slack_s = non_negative("DBA_BASELINE_ABS_SLACK_S", 0.5);
    println!(
        "Baseline-drift check: tolerance ±{:.1}% relative + {abs_slack_s}s absolute slack",
        rel_tol * 100.0
    );

    let mut failed = false;
    for (figure, current_path, baseline_path) in PAIRS {
        println!("\n# {figure}: {current_path} vs {baseline_path}");
        let (current, baseline) = match (load(current_path), load(baseline_path)) {
            (Ok(c), Ok(b)) => (c, b),
            (c, b) => {
                for err in [c.err(), b.err()].into_iter().flatten() {
                    eprintln!("error: {err}");
                }
                failed = true;
                continue;
            }
        };
        let (cur_seed, cur_runs) = current;
        let (base_seed, base_runs) = baseline;
        if cur_seed != base_seed {
            eprintln!(
                "error: seed mismatch ({cur_seed:?} vs baseline {base_seed:?}) — totals are \
                 not comparable across seeds; re-run the scenario with the baseline's seed"
            );
            failed = true;
            continue;
        }
        match compare_totals(&cur_runs, &base_runs, rel_tol, abs_slack_s) {
            Ok(rows) => {
                print!("{}", format_delta_table(&rows));
                let drifts = rows.iter().filter(|r| !r.within_tolerance).count();
                if drifts > 0 {
                    eprintln!(
                        "error: {figure}: {drifts} quantit{} drifted past the tolerance — \
                         if intentional, refresh the baseline: cp {current_path} {baseline_path}",
                        if drifts == 1 { "y" } else { "ies" }
                    );
                    failed = true;
                } else {
                    println!("{figure}: all tuners within tolerance");
                }
            }
            Err(e) => {
                eprintln!("error: {figure}: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("\nbaseline-drift check passed");
        ExitCode::SUCCESS
    }
}
