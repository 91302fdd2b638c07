//! Result formatting: the rows/series the paper's figures and tables
//! report, plus CSV output under `results/`.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::harness::RunResult;

/// Write a CSV file, creating parent directories as needed.
pub fn write_csv(path: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    if let Some(parent) = Path::new(path).parent() {
        fs::create_dir_all(parent)?;
    }
    let mut f = fs::File::create(path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    Ok(())
}

/// Print a per-round convergence series (one paper-figure panel): the
/// [`series_rows`] layout to 2 decimals.
pub fn print_series(title: &str, results: &[RunResult]) {
    println!("\n# {title}");
    let (header, rows) = series_rows(results, 2);
    println!("{header}");
    for row in rows {
        println!("{row}");
    }
}

/// A per-round convergence series: columns are tuners, rows are rounds,
/// values are total time per round in (simulated) seconds to `decimals`
/// places.
pub fn series_rows(results: &[RunResult], decimals: usize) -> (String, Vec<String>) {
    let mut header = String::from("round");
    for r in results {
        header.push(',');
        header.push_str(&r.tuner);
    }
    let rounds = results.iter().map(|r| r.rounds.len()).max().unwrap_or(0);
    let rows = (0..rounds)
        .map(|i| {
            let mut row = format!("{}", i + 1);
            for r in results {
                match r.rounds.get(i) {
                    Some(rec) => row.push_str(&format!(",{:.*}", decimals, rec.total().secs())),
                    None => row.push(','),
                }
            }
            row
        })
        .collect();
    (header, rows)
}

/// Print the end-to-end totals bar chart data (Figures 3, 5, 7, 9): one
/// row per (benchmark, tuner) with the total workload time. The `maint`
/// column is zero for read-only (non-drift) scenarios.
pub fn print_totals_table(title: &str, results: &[RunResult]) {
    println!("\n# {title}");
    println!(
        "{:<12} {:<10} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "benchmark", "tuner", "rec (s)", "create (s)", "maint (s)", "exec (s)", "total (s)"
    );
    for r in results {
        println!(
            "{:<12} {:<10} {:>14.1} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            r.benchmark,
            r.tuner,
            r.total_recommendation().secs(),
            r.total_creation().secs(),
            r.total_maintenance().secs(),
            r.total_execution().secs(),
            r.total().secs()
        );
    }
}

/// Totals as CSV rows.
pub fn totals_rows(results: &[RunResult]) -> (String, Vec<String>) {
    let header =
        "benchmark,tuner,recommendation_s,creation_s,maintenance_s,execution_s,total_s".to_string();
    let rows = results
        .iter()
        .map(|r| {
            format!(
                "{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                r.benchmark,
                r.tuner,
                r.total_recommendation().secs(),
                r.total_creation().secs(),
                r.total_maintenance().secs(),
                r.total_execution().secs(),
                r.total().secs()
            )
        })
        .collect();
    (header, rows)
}

/// Escape a string for embedding in JSON.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Open a run object: its `tuner` (written as `label`), `benchmark` and
/// `workload` header and its `totals` object, shared by both results
/// JSON layouts.
fn push_run_head(out: &mut String, label: &str, r: &RunResult) {
    out.push_str(&format!(
        "    {{\n      \"tuner\": \"{}\",\n      \"benchmark\": \"{}\",\n      \
         \"workload\": \"{}\",\n",
        json_escape(label),
        json_escape(&r.benchmark),
        json_escape(&r.workload)
    ));
    out.push_str(&format!(
        "      \"totals\": {{\"recommendation_s\": {:.4}, \"creation_s\": {:.4}, \
         \"maintenance_s\": {:.4}, \"execution_s\": {:.4}, \"total_s\": {:.4}}},\n",
        r.total_recommendation().secs(),
        r.total_creation().secs(),
        r.total_maintenance().secs(),
        r.total_execution().secs(),
        r.total().secs()
    ));
}

/// Serialise run results (with per-round breakdowns) plus experiment
/// metadata into a results JSON document. Hand-rolled — the offline build
/// has no `serde_json`; the schema is flat enough that string assembly is
/// the simpler dependency.
pub fn results_json(meta: &[(&str, String)], results: &[RunResult]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in meta {
        out.push_str(&format!("  \"{}\": {},\n", json_escape(k), v));
    }
    out.push_str("  \"runs\": [\n");
    for (ri, r) in results.iter().enumerate() {
        push_run_head(&mut out, &r.tuner, r);
        out.push_str(&format!(
            "      \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}},\n",
            r.total_plan_cache_hits(),
            r.total_plan_cache_misses(),
            r.plan_cache_hit_rate()
        ));
        out.push_str(&format!(
            "      \"whatif_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}},\n",
            r.total_whatif_hits(),
            r.total_whatif_misses(),
            r.whatif_hit_rate()
        ));
        out.push_str(&format!(
            "      \"bandit\": {{\"refreshes\": {}, \"decays\": {}}},\n",
            r.total_bandit_refreshes(),
            r.total_bandit_decays()
        ));
        if let Some(safety) = &r.safety {
            out.push_str(&format!(
                "      \"safety\": {{\"vetoes\": {}, \"rollbacks\": {}, \"throttled_rounds\": {}, \
                 \"cum_regret_s\": {:.4}, \"cum_shadow_noindex_s\": {:.4}, \"regret_factor\": \
                 {:.4}, \"rounds\": [\n",
                safety.vetoes,
                safety.rollbacks,
                safety.throttled_rounds,
                safety.cum_regret_s,
                safety.cum_shadow_noindex_s,
                safety.regret_factor()
            ));
            for (i, s) in safety.rounds.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"round\": {}, \"shadow_noindex_s\": {:.4}, \"shadow_prev_s\": \
                     {:.4}, \"actual_s\": {:.4}, \"regret_s\": {:.4}, \"cum_regret_s\": {:.4}, \
                     \"vetoes\": {}, \"rollbacks\": {}, \"throttled\": {}}}{}\n",
                    s.round,
                    s.shadow_noindex_s,
                    s.shadow_prev_s,
                    s.actual_s,
                    s.regret_s,
                    s.cum_regret_s,
                    s.vetoes,
                    s.rollbacks,
                    s.throttled,
                    if i + 1 < safety.rounds.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]},\n");
        }
        out.push_str("      \"rounds\": [\n");
        for (i, round) in r.rounds.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"round\": {}, \"recommendation_s\": {:.4}, \"creation_s\": {:.4}, \
                 \"maintenance_s\": {:.4}, \"execution_s\": {:.4}, \"total_s\": {:.4}, \
                 \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \"whatif_hits\": {}, \
                 \"whatif_misses\": {}, \"shift_intensity\": {:.4}, \
                 \"bandit_refreshes\": {}, \"bandit_decays\": {}}}{}\n",
                round.round,
                round.recommendation.secs(),
                round.creation.secs(),
                round.maintenance.secs(),
                round.execution.secs(),
                round.total().secs(),
                round.plan_cache_hits,
                round.plan_cache_misses,
                round.whatif_hits,
                round.whatif_misses,
                round.shift_intensity,
                round.bandit_refreshes,
                round.bandit_decays,
                if i + 1 < r.rounds.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if ri + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialise streaming runs into a results JSON document. The layout is a
/// superset of [`results_json`]'s: each run carries the standard `totals`
/// object (so `check_baselines` diffs the simulated metrics through the
/// same `extract_totals` path) plus a `stream` object with the
/// throughput/degrade/latency summary and a per-window trail. Every field
/// is simulated or counted, so the document is deterministic byte for
/// byte. `label` disambiguates the same tuner under different arrival
/// presets (e.g. `MAB/bursty`).
pub fn stream_results_json(
    meta: &[(&str, String)],
    runs: &[(String, dba_session::StreamResult)],
) -> String {
    use dba_session::DegradeLevel;
    let level_label = |level: DegradeLevel| match level {
        DegradeLevel::Full => "full",
        DegradeLevel::ReuseConfig => "reuse",
        DegradeLevel::Amortized => "amortized",
    };
    let finite_or_null = |v: f64| {
        if v.is_finite() {
            format!("{v:.6}")
        } else {
            "null".to_string()
        }
    };
    let mut out = String::from("{\n");
    for (k, v) in meta {
        out.push_str(&format!("  \"{}\": {},\n", json_escape(k), v));
    }
    out.push_str("  \"runs\": [\n");
    for (ri, (label, s)) in runs.iter().enumerate() {
        let r = &s.run;
        push_run_head(&mut out, label, r);
        out.push_str(&format!(
            "      \"bandit\": {{\"refreshes\": {}, \"decays\": {}}},\n",
            r.total_bandit_refreshes(),
            r.total_bandit_decays()
        ));
        out.push_str(&format!(
            "      \"stream\": {{\"arrivals\": {}, \"queries_per_min\": {:.1}, \
             \"recommend_p99_s\": {:.6}, \"budget_s\": {}, \
             \"windows\": {}, \"degraded_windows\": {}, \"reuse_windows\": {}, \
             \"amortized_windows\": {}, \"blown_windows\": {}}},\n",
            s.total_arrivals(),
            s.queries_per_min(),
            s.recommend_p99_s(),
            finite_or_null(s.budget_s),
            s.windows.len(),
            s.degraded_windows(),
            s.reuse_windows(),
            s.amortized_windows(),
            s.blown_windows()
        ));
        out.push_str("      \"windows\": [\n");
        for (i, w) in s.windows.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"window\": {}, \"round\": {}, \"level\": \"{}\", \"burst\": {}, \
                 \"boundary\": {}, \"arrivals\": {}, \"recommendation_s\": {:.6}, \
                 \"blown\": {}}}{}\n",
                w.window,
                w.round,
                level_label(w.level),
                w.burst,
                w.round_boundary,
                w.arrivals,
                w.record.recommendation.secs(),
                w.budget_blown,
                if i + 1 < s.windows.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if ri + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write a text file (JSON reports), creating parent directories.
pub fn write_text(path: &str, content: &str) -> std::io::Result<()> {
    if let Some(parent) = Path::new(path).parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, content)
}

/// Format simulated seconds as the paper's Table I/II minutes.
pub fn fmt_minutes(secs: f64) -> String {
    format!("{:.2}", secs / 60.0)
}

/// Relative speed-up of `b` over `a` in percent (paper convention:
/// "MAB provides X% speed-up compared to PDTool").
pub fn speedup_pct(a: f64, b: f64) -> f64 {
    if a <= 0.0 {
        return 0.0;
    }
    (a - b) / a * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{RoundRecord, RunResult};
    use dba_common::SimSeconds;

    fn result(tuner: &str, times: &[(f64, f64, f64)]) -> RunResult {
        RunResult {
            tuner: tuner.into(),
            benchmark: "T".into(),
            workload: "static".into(),
            rounds: times
                .iter()
                .enumerate()
                .map(|(i, &(r, c, e))| RoundRecord {
                    round: i + 1,
                    recommendation: SimSeconds::new(r),
                    creation: SimSeconds::new(c),
                    execution: SimSeconds::new(e),
                    maintenance: SimSeconds::ZERO,
                    plan_cache_hits: if i == 0 { 0 } else { 2 },
                    plan_cache_misses: if i == 0 { 2 } else { 0 },
                    whatif_hits: if i == 0 { 0 } else { 3 },
                    whatif_misses: if i == 0 { 3 } else { 0 },
                    shift_intensity: if i == 0 { 1.0 } else { 0.0 },
                    bandit_refreshes: if i == 0 { 1 } else { 0 },
                    bandit_decays: 0,
                })
                .collect(),
            safety: None,
        }
    }

    #[test]
    fn series_rows_align_rounds() {
        let a = result("A", &[(1.0, 0.0, 2.0), (0.0, 0.0, 1.0)]);
        let b = result("B", &[(0.0, 0.0, 5.0)]);
        let (header, rows) = series_rows(&[a, b], 4);
        assert_eq!(header, "round,A,B");
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("1,3.0000,5.0000"));
        assert!(rows[1].starts_with("2,1.0000,"));
    }

    #[test]
    fn totals_rows_sum_components() {
        let a = result("A", &[(1.0, 2.0, 3.0), (0.0, 1.0, 2.0)]);
        let (header, rows) = totals_rows(&[a]);
        assert!(header.contains("maintenance_s"));
        assert_eq!(rows[0], "T,A,1.0000,3.0000,0.0000,5.0000,9.0000");
    }

    #[test]
    fn results_json_is_structurally_sound() {
        let a = result("MAB", &[(1.0, 2.0, 3.0), (0.0, 0.0, 2.0)]);
        let b = result("NoIndex", &[(0.0, 0.0, 9.0)]);
        let json = results_json(
            &[("sf", "1".to_string()), ("seed", "42".to_string())],
            &[a, b],
        );
        // Balanced braces/brackets and the expected fields.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"tuner\": \"MAB\""));
        assert!(json.contains("\"maintenance_s\": 0.0000"));
        assert!(json.contains("\"sf\": 1"));
        assert!(json.contains("\"rounds\": ["));
        // Plan-cache and what-if counters: run totals and per-round deltas.
        assert!(json.contains("\"plan_cache\": {\"hits\": 2, \"misses\": 2, \"hit_rate\": 0.5000}"));
        assert!(json.contains("\"plan_cache_hits\": 2"));
        assert!(
            json.contains("\"whatif_cache\": {\"hits\": 3, \"misses\": 3, \"hit_rate\": 0.5000}")
        );
        assert!(json.contains("\"whatif_hits\": 3"));
        // Shift intensity rides in every round object; unguarded runs
        // carry no safety block.
        assert!(json.contains("\"shift_intensity\": 1.0000"));
        assert!(!json.contains("\"safety\""));
        // Two runs, three round objects.
        assert_eq!(json.matches("\"round\":").count(), 3);
    }

    #[test]
    fn results_json_emits_safety_blocks() {
        use crate::harness::{RoundSafety, SafetyReport};
        let mut guarded = result("DDQN+guard", &[(1.0, 2.0, 3.0), (0.0, 0.0, 2.0)]);
        guarded.safety = Some(SafetyReport {
            rounds: vec![
                RoundSafety {
                    round: 1,
                    shadow_noindex_s: 3.5,
                    shadow_prev_s: 3.5,
                    actual_s: 6.0,
                    regret_s: 2.5,
                    cum_regret_s: 2.5,
                    vetoes: 1,
                    rollbacks: 0,
                    throttled: false,
                },
                RoundSafety {
                    round: 2,
                    shadow_noindex_s: 3.5,
                    shadow_prev_s: 2.0,
                    actual_s: 2.0,
                    regret_s: -1.5,
                    cum_regret_s: 1.0,
                    vetoes: 0,
                    rollbacks: 1,
                    throttled: true,
                },
            ],
            vetoes: 1,
            rollbacks: 1,
            throttled_rounds: 1,
            cum_regret_s: 1.0,
            cum_shadow_noindex_s: 7.0,
        });
        let json = results_json(&[], &[guarded]);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains(
            "\"safety\": {\"vetoes\": 1, \"rollbacks\": 1, \"throttled_rounds\": 1, \
             \"cum_regret_s\": 1.0000, \"cum_shadow_noindex_s\": 7.0000, \"regret_factor\": 0.1429"
        ));
        assert!(json.contains("\"shadow_noindex_s\": 3.5000"));
        assert!(json.contains("\"throttled\": true"));
        assert!(json.contains("\"regret_s\": -1.5000"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn speedup_convention_matches_paper() {
        // PDTool 100s, MAB 25s → "75% speed-up".
        assert_eq!(speedup_pct(100.0, 25.0), 75.0);
        assert_eq!(speedup_pct(0.0, 10.0), 0.0);
    }

    #[test]
    fn minutes_formatting() {
        assert_eq!(fmt_minutes(90.0), "1.50");
    }
}
