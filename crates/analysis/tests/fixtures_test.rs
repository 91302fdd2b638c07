//! Fixture suite: each rule must fire at the expected `file:line`, every
//! well-formed allowlist comment must suppress, and the reason-less
//! allowlist form must itself be rejected.
//!
//! Fixtures live under `tests/fixtures/` — a path the workspace walk
//! skips (they contain deliberately bad code), so they are only ever
//! linted here, under an explicitly chosen policy.

use dba_analysis::{lint_source, policy};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint `name` under the policy of a representative workspace path and
/// compare (rule, line) pairs exactly — extra findings are as much a bug
/// as missing ones.
fn assert_findings(name: &str, policy_path: &str, expected: &[(&str, u32)]) {
    let src = fixture(name);
    let pol = policy::policy_for(Path::new(policy_path))
        .unwrap_or_else(|| panic!("policy path {policy_path} is skipped"));
    let got: Vec<(String, u32)> = lint_source(&src, &pol)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect();
    let want: Vec<(String, u32)> = expected.iter().map(|(r, l)| (r.to_string(), *l)).collect();
    assert_eq!(
        got, want,
        "findings mismatch for {name} under {policy_path}"
    );
}

#[test]
fn d01_fires_in_result_affecting_crates() {
    assert_findings(
        "d01.rs",
        "crates/core/src/fixture.rs",
        &[("D01", 13), ("D01", 20), ("D01", 27)],
    );
}

#[test]
fn d01_is_scoped_out_of_non_result_crates() {
    // Same code under dba-engine (not result-affecting): no findings.
    assert_findings("d01.rs", "crates/engine/src/fixture.rs", &[]);
}

#[test]
fn d02_fires_in_deterministic_crates() {
    assert_findings(
        "d02.rs",
        "crates/core/src/fixture.rs",
        &[("D02", 8), ("D02", 13), ("D02", 18), ("D02", 24)],
    );
}

#[test]
fn d02_is_exempt_in_bench() {
    assert_findings("d02.rs", "crates/bench/src/bin/fixture.rs", &[]);
}

#[test]
fn d02_fires_in_executor_operator_code() {
    // dba-engine stays under D02: the raw Instant::now in operator code
    // fires, while the clock-seam form with its reasoned allow (the shape
    // of `BudgetTimer::wall` in crates/common/src/clock.rs) is suppressed.
    assert_findings(
        "d02_executor.rs",
        "crates/engine/src/exec.rs",
        &[("D02", 9)],
    );
}

#[test]
fn d03_fires_everywhere() {
    let expected = &[("D03", 6), ("D03", 11), ("D03", 16)];
    assert_findings("d03.rs", "crates/engine/src/fixture.rs", expected);
    // D03 has no crate exemption — bench binaries order floats too.
    assert_findings("d03.rs", "crates/bench/src/bin/fixture.rs", expected);
}

#[test]
fn c01_fires_on_raw_locks_and_live_guards() {
    assert_findings(
        "c01.rs",
        "crates/safety/src/fixture.rs",
        &[("C01", 22), ("C01", 28)],
    );
}

#[test]
fn v01_fires_on_marker_and_mutation_violations() {
    assert_findings(
        "v01.rs",
        "crates/storage/src/catalog.rs",
        &[("V01", 23), ("V01", 28)],
    );
}

#[test]
fn v01_is_scoped_to_versioned_files() {
    // The same source under a non-versioned file: no findings.
    assert_findings("v01.rs", "crates/storage/src/index.rs", &[]);
}

/// Run the full cross-file pipeline over pretend workspace paths and
/// compare (file, rule, line) triples exactly. The graph rules (G01–G04)
/// only exist at this layer — `lint_source` cannot see across functions.
fn assert_graph_findings(files: &[(&str, &str)], expected: &[(&str, &str, u32)]) {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(path, name)| ((*path).to_string(), fixture(name)))
        .collect();
    let got: Vec<(String, String, u32)> = dba_analysis::analyze_sources(&sources)
        .into_iter()
        .map(|d| (d.file, d.rule.to_string(), d.line))
        .collect();
    let want: Vec<(String, String, u32)> = expected
        .iter()
        .map(|(f, r, l)| (f.to_string(), r.to_string(), *l))
        .collect();
    assert_eq!(got, want, "graph findings mismatch for {files:?}");
}

#[test]
fn g01_taints_reachable_sources_in_unscoped_crates() {
    // digest() iterates a HashMap and stamp() reads Instant::now(); both
    // are reachable from an Advisor impl, so G01 fires even though the
    // bench policy scopes the local D01/D02 rules out. unreachable_scan()
    // has the same hash iteration but no path from an entry: silent.
    assert_graph_findings(
        &[("crates/bench/src/bin/fixture.rs", "g01.rs")],
        &[
            ("crates/bench/src/bin/fixture.rs", "G01", 19),
            ("crates/bench/src/bin/fixture.rs", "G01", 26),
        ],
    );
}

#[test]
fn g01_taint_crosses_crates() {
    // Entry in dba-core, unordered iteration in dba-engine, linked by a
    // `dba_engine::summarize(..)` path call.
    assert_graph_findings(
        &[
            ("crates/core/src/fixture_a.rs", "g01_cross_a.rs"),
            ("crates/engine/src/fixture_b.rs", "g01_cross_b.rs"),
        ],
        &[("crates/engine/src/fixture_b.rs", "G01", 10)],
    );
}

#[test]
fn g01_needs_an_entry_point() {
    // The source half alone has no Advisor impl: nothing is reachable,
    // and local D01 is scoped out of dba-engine — no findings.
    assert_graph_findings(&[("crates/engine/src/fixture_b.rs", "g01_cross_b.rs")], &[]);
}

#[test]
fn g02_flags_lock_cycles_and_guards_across_locking_calls() {
    // ab() orders a→b while ba() orders b→a (cycle, reported at the first
    // witness), and guard_across_call() holds the `a` guard across a call
    // whose callee locks `b`. allowed() is the same shape, suppressed.
    assert_graph_findings(
        &[("crates/safety/src/fixture.rs", "g02.rs")],
        &[
            ("crates/safety/src/fixture.rs", "G02", 20),
            ("crates/safety/src/fixture.rs", "G02", 32),
        ],
    );
}

#[test]
fn g03_fires_on_raw_planner_in_pricing_crates() {
    // Token-local rule, so `lint_source` sees it — including the cfg(test)
    // site, which G03 deliberately does not strip.
    assert_findings(
        "g03.rs",
        "crates/safety/src/fixture.rs",
        &[("G03", 6), ("G03", 20)],
    );
}

#[test]
fn g03_is_scoped_to_pricing_crates() {
    assert_findings("g03.rs", "crates/core/src/fixture.rs", &[]);
}

#[test]
fn g04_flags_wrappers_that_mutate_without_a_bump_path() {
    // wrapper_add() reaches the mutation through raw_add() with no bump
    // anywhere on the path; good_wrapper() routes through the marked
    // tracked_add() and stays clean; allowed_wrapper() is suppressed.
    assert_graph_findings(
        &[("crates/storage/src/catalog.rs", "g04.rs")],
        &[("crates/storage/src/catalog.rs", "G04", 26)],
    );
}

#[test]
fn o01_fires_on_expression_position_obs_calls() {
    // Binding, trailing-expression, and call-as-argument sites fire; bare
    // statements, the `enabled()` gate, a non-obs receiver sharing a
    // method name, and the reasoned allow stay silent.
    assert_findings(
        "o01.rs",
        "crates/session/src/fixture.rs",
        &[("O01", 11), ("O01", 16), ("O01", 20)],
    );
}

#[test]
fn o01_applies_in_bench_binaries_too() {
    // Unlike D02, O01 has no harness exemption: a fig binary consuming an
    // obs result is as much a hazard as a core crate doing it.
    assert_findings(
        "o01.rs",
        "crates/bench/src/bin/fixture.rs",
        &[("O01", 11), ("O01", 16), ("O01", 20)],
    );
}

#[test]
fn well_formed_allows_suppress() {
    assert_findings("allow_ok.rs", "crates/core/src/fixture.rs", &[]);
}

#[test]
fn reasonless_allows_are_rejected_and_do_not_suppress() {
    assert_findings(
        "allow_bad.rs",
        "crates/core/src/fixture.rs",
        &[
            ("A00", 6),
            ("D01", 7),
            ("A00", 11),
            ("D01", 12),
            ("A00", 16),
            ("A00", 20),
        ],
    );
}

#[test]
fn test_context_files_only_get_allow_hygiene() {
    // A test-context path: rule findings are skipped, malformed allow
    // directives are still rejected.
    let src = fixture("allow_bad.rs");
    let pol = policy::policy_for(Path::new("tests/integration.rs")).unwrap();
    assert!(pol.is_test);
    let got: Vec<_> = lint_source(&src, &pol)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect();
    assert_eq!(got, vec![("A00", 6), ("A00", 11), ("A00", 16), ("A00", 20)]);
}
