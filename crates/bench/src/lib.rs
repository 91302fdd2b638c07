//! The experiment harness: drives every tuner through every workload type
//! on every benchmark and regenerates the paper's tables and figures.
//!
//! The `src/bin/*` binaries reproduce the paper's artefacts by printing
//! the same rows/series the paper reports and writing CSVs under
//! `results/`: `paper_figures` runs each (workload, benchmark) suite of
//! Figures 2-7 and Table I once and prints all seven from those runs,
//! `fig8_ddqn` and `table2_scale` reproduce Figure 8 and Table II, and
//! `fig9_htap`, `fig_safety`, `fig_stream` and `fig_backend` are
//! extensions. `paper_figures` and the four extensions write a results
//! JSON there too (`fig_backend` writes only the JSON), and
//! `check_baselines` diffs the totals of `fig9_htap`, `fig_safety` and
//! `fig_stream` against the committed `BENCH_*.json`. Runs are
//! deterministic given `DBA_SEED`.
//!
//! Environment knobs (read by the binaries):
//! * `DBA_SF` — scale factor, finite and positive (default 10, the paper's
//!   main setting);
//! * `DBA_SEED` — experiment seed (default 42);
//! * `DBA_QUICK` — set to `1` for a reduced-size smoke configuration
//!   (SF 1, fewer rounds) that preserves the qualitative shapes;
//! * `DBA_ROUNDS` — override the per-workload round count (rounds per
//!   group for shifting workloads);
//! * `DBA_THREADS` — suite fan-out worker count (default: all cores;
//!   `1` forces the sequential path). Parallel suites are bit-identical
//!   to sequential ones — sessions fork shared data by `Arc` and every
//!   run is deterministic in its seed.
//!
//! All driving goes through [`dba_session::TuningSession`]; this crate
//! only configures sessions and formats their results.

pub mod baseline;
pub mod harness;
pub mod report;

pub use harness::{
    fig_session, make_advisor, run_benchmark_suite, run_one, run_one_with_drift, run_stream_one,
    run_suite_threaded, suite_threads, DegradeLevel, ExperimentEnv, RoundRecord, RoundSafety,
    RunResult, SafetyConfig, SafetyReport, TunerKind, WindowRecord,
};
pub use report::{
    fmt_minutes, print_series, print_totals_table, results_json, stream_results_json, write_csv,
    write_text,
};
