//! A scale factor too large to build ends every binary whose data size
//! comes from `DBA_SF` with a printed error and exit status 1, not a
//! panic: `Benchmark::build_catalog` refuses a table past `u32` row ids
//! before generating a column, and the binary returns that `DbError` from
//! `main`.

use std::process::Command;

/// Each binary and the table its first catalog build refuses: SSB's
/// `lineorder` or TPC-H's `customer`.
const BINARIES: [(&str, &str); 12] = [
    (env!("CARGO_BIN_EXE_fig2_static_convergence"), "lineorder"),
    (env!("CARGO_BIN_EXE_fig3_static_totals"), "lineorder"),
    (env!("CARGO_BIN_EXE_fig4_shifting_convergence"), "lineorder"),
    (env!("CARGO_BIN_EXE_fig5_shifting_totals"), "lineorder"),
    (env!("CARGO_BIN_EXE_fig6_random_convergence"), "lineorder"),
    (env!("CARGO_BIN_EXE_fig7_random_totals"), "lineorder"),
    (env!("CARGO_BIN_EXE_fig8_ddqn"), "customer"),
    (env!("CARGO_BIN_EXE_fig9_htap"), "customer"),
    (env!("CARGO_BIN_EXE_fig_safety"), "lineorder"),
    (env!("CARGO_BIN_EXE_fig_stream"), "customer"),
    (env!("CARGO_BIN_EXE_fig_backend"), "lineorder"),
    (env!("CARGO_BIN_EXE_table1_breakdown"), "lineorder"),
];

#[test]
fn refused_scale_factor_exits_with_an_error_not_a_panic() {
    for (binary, table) in BINARIES {
        let out = Command::new(binary)
            .env_clear()
            .env("DBA_SF", "1e30")
            .env("DBA_QUICK", "1")
            .env("DBA_THREADS", "1")
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{binary}: {stderr}");
        let refused = format!("table {table} would have 18446744073709551615 rows");
        assert!(
            stderr.lines().any(|line| line.contains(&refused)),
            "{binary}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{binary}: {stderr}");
    }
}
