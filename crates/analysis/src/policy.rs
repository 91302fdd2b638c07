//! The embedded per-crate policy table: which rules apply where.
//!
//! The repo's determinism guarantees are not uniform — wall-clock reads are
//! fine in the bench harness but poison a tuning trajectory, and HashMap
//! iteration only threatens reproducibility where its order can reach
//! records/JSON. Scoping lives here, in one place, instead of in scattered
//! allow comments.

use std::path::Path;

/// V01 configuration for one version-discipline file.
#[derive(Debug, Clone)]
pub struct V01Policy {
    /// Token sequences whose presence in a `&mut self` method body marks it
    /// as a tracked-state mutator (e.g. `self.indexes`).
    pub mutation_seqs: &'static [&'static [&'static str]],
    /// Idents that satisfy the bump obligation (the bump helper itself, or
    /// a delegate that is marked in turn).
    pub bump_tokens: &'static [&'static str],
}

/// Which rules run on one file.
#[derive(Debug, Clone)]
pub struct FilePolicy {
    pub crate_name: String,
    /// Test-context files (under `tests/` or `benches/`): only allowlist
    /// hygiene (A00) runs there; `#[cfg(test)]` bodies in production files
    /// are stripped by the lexer either way.
    pub is_test: bool,
    pub d01: bool,
    pub d02: bool,
    pub d03: bool,
    pub c01: bool,
    /// G03 runs on the *unstripped* token stream of production files, so
    /// `#[cfg(test)]` helpers that price around the WhatIfService are
    /// still findings (they validate the wrong path).
    pub g03: bool,
    /// O01 (instrumentation purity) applies everywhere telemetry can be
    /// emitted: obs recording calls must stay in statement position.
    pub o01: bool,
    pub v01: Option<V01Policy>,
}

/// Crates whose outputs feed records/JSON/baselines: HashMap iteration
/// order there is a reproducibility hazard (D01).
const RESULT_AFFECTING: &[&str] = &[
    "dba-core",
    "dba-optimizer",
    "dba-safety",
    "dba-session",
    "dba-baselines",
];

/// Crates allowed to read wall-clock time and OS entropy (D02 exempt):
/// the bench harness times real work by design.
///
/// `dba-engine` is deliberately NOT here, even though its executor times
/// physical operators: all of its timing flows through the `BudgetTimer`
/// it is built with, and the single place the real wall-clock enters
/// (`BudgetTimer::wall` in dba-common's `clock.rs`) carries a reasoned
/// `// lint: allow(D02)`. Keeping the engine under D02 means any *other*
/// `Instant::now` in operator code — a raw read that would bypass the
/// timer and break scripted-clock determinism — still fires (fixture:
/// `d02_executor.rs`).
const WALL_CLOCK_OK: &[&str] = &["dba-bench"];

const CATALOG_MUTATIONS: &[&[&str]] = &[&["self", ".", "indexes"], &["self", ".", "drift"]];
const STATS_MUTATIONS: &[&[&str]] = &[&["self", ".", "rows"], &["self", ".", "base"]];
/// `bump_version` is the canonical bump; `refresh_table` bumps internally,
/// so delegating mutators (`refresh`, `refresh_stale`) satisfy V01 through
/// it.
const BUMP_TOKENS: &[&str] = &["bump_version", "refresh_table"];

/// Crates under G03 pricing discipline: regret accounting lives here, so
/// plan *pricing* must route through the memoized, version-validated
/// WhatIfService rather than a raw `Planner`.
const PRICING_DISCIPLINE: &[&str] = &["dba-safety", "dba-baselines"];

/// G01 entry points — traits whose impl methods are result-affecting.
pub const ENTRY_TRAITS: &[&str] = &["Advisor"];
/// G01 entry points — inherent methods that drive or summarize a tuning
/// trajectory, round by round or window by window.
pub const ENTRY_METHODS: &[(&str, &[&str])] = &[
    (
        "TuningSession",
        &[
            "run",
            "run_with",
            "step",
            "step_with",
            "into_result",
            "result",
        ],
    ),
    ("StreamingSession", &["step", "run", "into_result"]),
];
/// G01 entry points — free fns that emit records/JSON for baselines.
pub const ENTRY_FREE_FNS: &[&str] = &["results_json", "series_rows", "totals_rows"];

/// Should this path be skipped entirely (no lexing, no findings)?
pub fn skip_path(rel: &Path) -> bool {
    rel.components().any(|c| {
        let s = c.as_os_str().to_string_lossy();
        s == "vendor" || s == "target" || s == "fixtures" || s.starts_with('.')
    })
}

/// Policy for one workspace-relative path. `None` when the file is skipped.
pub fn policy_for(rel: &Path) -> Option<FilePolicy> {
    if skip_path(rel) {
        return None;
    }
    let comps: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let crate_name = if comps.first().map(String::as_str) == Some("crates") && comps.len() > 1 {
        format!("dba-{}", comps[1])
    } else {
        // Root package files: src/, tests/, examples/.
        "dba-bandits".to_string()
    };
    // `crates/core` is the package `dba-core`, etc.; the one mismatch is
    // the root package itself.
    let is_test = comps.iter().any(|c| c == "tests" || c == "benches");

    let file_name = rel.file_name().map(|f| f.to_string_lossy().into_owned());
    let v01 = match (crate_name.as_str(), file_name.as_deref()) {
        ("dba-storage", Some("catalog.rs")) => Some(V01Policy {
            mutation_seqs: CATALOG_MUTATIONS,
            bump_tokens: BUMP_TOKENS,
        }),
        ("dba-optimizer", Some("stats.rs")) => Some(V01Policy {
            mutation_seqs: STATS_MUTATIONS,
            bump_tokens: BUMP_TOKENS,
        }),
        _ => None,
    };

    Some(FilePolicy {
        d01: RESULT_AFFECTING.contains(&crate_name.as_str()),
        d02: !WALL_CLOCK_OK.contains(&crate_name.as_str()) && crate_name != "dba-analysis",
        d03: true,
        c01: true,
        g03: PRICING_DISCIPLINE.contains(&crate_name.as_str()),
        o01: true,
        v01,
        crate_name,
        is_test,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_and_fixtures_are_skipped() {
        assert!(policy_for(Path::new("vendor/rand/src/lib.rs")).is_none());
        assert!(policy_for(Path::new("crates/analysis/tests/fixtures/d01.rs")).is_none());
        assert!(policy_for(Path::new("target/debug/build/x.rs")).is_none());
    }

    #[test]
    fn result_affecting_scoping() {
        let p = policy_for(Path::new("crates/core/src/tuner.rs")).unwrap();
        assert!(p.d01 && p.d02 && p.d03 && p.c01);
        let p = policy_for(Path::new("crates/engine/src/exec.rs")).unwrap();
        assert!(!p.d01 && p.d03);
        let p = policy_for(Path::new("crates/bench/src/bin/fig9_htap.rs")).unwrap();
        assert!(
            !p.d02 && p.d03,
            "bench may read wall-clock but not NaN-sort"
        );
    }

    #[test]
    fn test_dirs_are_test_context() {
        assert!(
            policy_for(Path::new("tests/integration.rs"))
                .unwrap()
                .is_test
        );
        assert!(
            policy_for(Path::new("crates/bench/benches/micro.rs"))
                .unwrap()
                .is_test
        );
        assert!(
            !policy_for(Path::new("crates/bench/src/bin/fig9_htap.rs"))
                .unwrap()
                .is_test
        );
    }

    #[test]
    fn executor_stays_under_d02() {
        // The timed executor must keep D02: only the reasoned allow on
        // the clock seam may read the wall-clock, never operator code.
        let p = policy_for(Path::new("crates/engine/src/exec.rs")).unwrap();
        assert!(p.d02, "dba-engine must not be wall-clock exempt");
        let p = policy_for(Path::new("crates/common/src/clock.rs")).unwrap();
        assert!(p.d02, "the seam is sanctioned by allow comment, not policy");
    }

    /// The streaming driver's trajectory (what `BENCH_fig_stream.json`
    /// gates) is under G01 just like the round-by-round one.
    #[test]
    fn g01_entries_cover_both_drivers() {
        for ty in ["TuningSession", "StreamingSession"] {
            let (_, methods) = ENTRY_METHODS.iter().find(|(t, _)| *t == ty).unwrap();
            for method in ["step", "run", "into_result"] {
                assert!(methods.contains(&method), "{ty}::{method} is no entry");
            }
        }
    }

    #[test]
    fn v01_targets_catalog_and_stats() {
        assert!(policy_for(Path::new("crates/storage/src/catalog.rs"))
            .unwrap()
            .v01
            .is_some());
        assert!(policy_for(Path::new("crates/optimizer/src/stats.rs"))
            .unwrap()
            .v01
            .is_some());
        assert!(policy_for(Path::new("crates/optimizer/src/planner.rs"))
            .unwrap()
            .v01
            .is_none());
    }
}
