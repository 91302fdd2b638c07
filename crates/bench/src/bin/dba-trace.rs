//! `dba-trace`: render a `DBA_TRACE` JSONL trace into a human-readable
//! report — a per-span self-time profile (simulated seconds, with advisory
//! wall-clock columns when the trace carries `wall_s` stamps) and a
//! per-round safety-decision timeline built from the `safety.*` events.
//!
//! ```text
//! DBA_TRACE=results/fig_safety_trace.jsonl cargo run --release -p dba-bench --bin fig_safety
//! cargo run --release -p dba-bench --bin dba-trace -- results/fig_safety_trace.jsonl
//! ```
//!
//! The input is the stable line schema written by `dba-obs`'s
//! `TraceRecord::to_jsonl`; parsing reuses the same minimal JSON reader
//! the baseline checker uses. Exit status is non-zero when the file is
//! missing, empty, or contains an unparsable line — so CI can use this
//! binary as a smoke check that the trace pipeline produced real output.

use std::collections::BTreeMap;
use std::process::ExitCode;

use dba_bench::baseline::Json;

/// Per-span aggregate: how many times it ran, total duration, and
/// self-time (duration minus time attributed to child spans).
#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_sim_s: f64,
    self_sim_s: f64,
    total_wall_s: f64,
    self_wall_s: f64,
    wall_samples: u64,
}

/// One open span on the stack while replaying the trace.
#[derive(Debug)]
struct Frame {
    name: String,
    enter_sim: f64,
    enter_wall: Option<f64>,
    child_sim: f64,
    child_wall: f64,
}

/// Everything we keep about one round's safety decisions.
#[derive(Debug, Default)]
struct RoundTimeline {
    decisions: Vec<String>,
    close: Option<BTreeMap<String, Json>>,
}

fn field_f64(fields: &Json, key: &str) -> Option<f64> {
    fields.get(key).and_then(Json::as_f64)
}

fn field_str<'a>(fields: &'a Json, key: &str) -> Option<&'a str> {
    fields.get(key).and_then(Json::as_str)
}

fn field_bool(fields: &Json, key: &str) -> bool {
    matches!(fields.get(key), Some(Json::Bool(true)))
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/fig_safety_trace.jsonl".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dba-trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut stack: Vec<Frame> = Vec::new();
    let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut rounds: BTreeMap<u64, RoundTimeline> = BTreeMap::new();
    let mut other_events: BTreeMap<String, u64> = BTreeMap::new();
    let mut records = 0u64;
    let mut unmatched_exits = 0u64;

    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("dba-trace: {path}:{}: bad JSONL line: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        records += 1;
        let kind = rec.get("type").and_then(Json::as_str).unwrap_or("");
        let sim = rec.get("sim_s").and_then(Json::as_f64).unwrap_or(0.0);
        let wall = rec.get("wall_s").and_then(Json::as_f64);
        let name = rec.get("name").and_then(Json::as_str).unwrap_or("");
        match kind {
            "span_enter" => stack.push(Frame {
                name: name.to_string(),
                enter_sim: sim,
                enter_wall: wall,
                child_sim: 0.0,
                child_wall: 0.0,
            }),
            "span_exit" => {
                // Tolerate imbalance (a truncated trace): pop until the
                // matching frame, counting anything discarded.
                let at = stack.iter().rposition(|f| f.name == name);
                let Some(at) = at else {
                    unmatched_exits += 1;
                    continue;
                };
                unmatched_exits += (stack.len() - at - 1) as u64;
                stack.truncate(at + 1);
                let Some(frame) = stack.pop() else { continue };
                let dur_sim = (sim - frame.enter_sim).max(0.0);
                let agg = spans.entry(frame.name).or_default();
                agg.count += 1;
                agg.total_sim_s += dur_sim;
                agg.self_sim_s += (dur_sim - frame.child_sim).max(0.0);
                let mut dur_wall = None;
                if let (Some(w0), Some(w1)) = (frame.enter_wall, wall) {
                    let d = (w1 - w0).max(0.0);
                    agg.wall_samples += 1;
                    agg.total_wall_s += d;
                    agg.self_wall_s += (d - frame.child_wall).max(0.0);
                    dur_wall = Some(d);
                }
                if let Some(parent) = stack.last_mut() {
                    parent.child_sim += dur_sim;
                    parent.child_wall += dur_wall.unwrap_or(0.0);
                }
            }
            "counter" => {
                if let Some(total) = rec.get("total").and_then(Json::as_f64) {
                    counters.insert(name.to_string(), total as u64);
                }
            }
            "event" => {
                let fields = rec.get("fields").cloned().unwrap_or(Json::Null);
                match name {
                    "safety.veto" | "safety.rollback" | "safety.throttle" => {
                        let round = field_f64(&fields, "round").unwrap_or(0.0) as u64;
                        rounds
                            .entry(round)
                            .or_default()
                            .decisions
                            .push(describe_decision(name, &fields));
                    }
                    "safety.round_close" => {
                        let round = field_f64(&fields, "round").unwrap_or(0.0) as u64;
                        if let Json::Object(map) = fields {
                            rounds.entry(round).or_default().close = Some(map);
                        }
                    }
                    _ => {
                        *other_events.entry(format!("event:{name}")).or_insert(0) += 1;
                    }
                }
            }
            _ => {
                eprintln!(
                    "dba-trace: {path}:{}: unknown record type {kind:?}",
                    lineno + 1
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if records == 0 {
        eprintln!("dba-trace: {path}: no records — was DBA_TRACE set for the run?");
        return ExitCode::FAILURE;
    }

    println!("dba-trace report — {path} ({records} records)");
    if unmatched_exits > 0 || !stack.is_empty() {
        println!(
            "  note: {} unmatched span exits, {} spans left open (truncated trace?)",
            unmatched_exits,
            stack.len()
        );
    }

    print_profile(&spans);
    print_counters(&counters);
    print_timeline(&rounds);
    if !other_events.is_empty() {
        println!("\nOther records:");
        for (name, n) in &other_events {
            println!("  {name:<40} ×{n}");
        }
    }
    ExitCode::SUCCESS
}

/// Per-span self-time profile, widest self-time first. All durations are
/// simulated seconds; the wall column appears only when the trace was
/// written with a live timer and is advisory (it measures the harness
/// process, not the modelled database).
fn print_profile(spans: &BTreeMap<String, SpanAgg>) {
    println!("\nPer-span self-time profile (simulated seconds):");
    if spans.is_empty() {
        println!("  (no spans recorded)");
        return;
    }
    let has_wall = spans.values().any(|a| a.wall_samples > 0);
    let mut rows: Vec<(&String, &SpanAgg)> = spans.iter().collect();
    rows.sort_by(|a, b| {
        b.1.self_sim_s
            .total_cmp(&a.1.self_sim_s)
            .then_with(|| a.0.cmp(b.0))
    });
    let head_wall = if has_wall { "   wall_self_s" } else { "" };
    println!(
        "  {:<18} {:>7} {:>12} {:>12} {:>12}{head_wall}",
        "span", "count", "total_s", "self_s", "avg_self_s"
    );
    for (name, a) in rows {
        let avg = if a.count > 0 {
            a.self_sim_s / a.count as f64
        } else {
            0.0
        };
        let wall = if has_wall {
            format!("   {:>11.4}", a.self_wall_s)
        } else {
            String::new()
        };
        println!(
            "  {name:<18} {:>7} {:>12.3} {:>12.3} {:>12.4}{wall}",
            a.count, a.total_sim_s, a.self_sim_s, avg
        );
    }
}

/// Final counter totals (each line in the trace carries a running total;
/// the last one wins).
fn print_counters(counters: &BTreeMap<String, u64>) {
    println!("\nCounters (final totals):");
    if counters.is_empty() {
        println!("  (no counters recorded)");
        return;
    }
    for (name, total) in counters {
        println!("  {name:<28} {total:>10}");
    }
}

/// One line per safety decision, grouped under the round-close summary.
fn print_timeline(rounds: &BTreeMap<u64, RoundTimeline>) {
    println!("\nPer-round safety timeline:");
    if rounds.is_empty() {
        println!("  (no safety events — unguarded run?)");
        return;
    }
    for (round, tl) in rounds {
        match &tl.close {
            Some(c) => {
                let g = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let throttled = matches!(c.get("throttled"), Some(Json::Bool(true)));
                println!(
                    "  round {round:>3}: regret {:>+8.2}s (cum {:>8.2}s)  actual {:>8.2}s  \
                     vetoes={} rollbacks={} pending={}{}",
                    g("regret_s"),
                    g("cum_regret_s"),
                    g("actual_s"),
                    g("vetoes") as u64,
                    g("rollbacks") as u64,
                    g("pending_rollbacks") as u64,
                    if throttled { "  THROTTLED" } else { "" },
                );
            }
            None => println!("  round {round:>3}: (no round_close record)"),
        }
        for d in &tl.decisions {
            println!("           {d}");
        }
    }
}

/// Compact one-line rendering of a veto/rollback/throttle event.
fn describe_decision(name: &str, fields: &Json) -> String {
    match name {
        "safety.veto" => {
            let mut flags = Vec::new();
            if field_bool(fields, "quarantined") {
                flags.push("quarantined");
            }
            if field_bool(fields, "over_memory") {
                flags.push("over_memory");
            }
            if field_bool(fields, "over_creation") {
                flags.push("over_creation");
            }
            format!(
                "veto     index {} on table {} [{}] refund {:.2}s",
                field_f64(fields, "index").unwrap_or(0.0) as u64,
                field_f64(fields, "table").unwrap_or(0.0) as u64,
                flags.join(","),
                field_f64(fields, "refund_s").unwrap_or(0.0),
            )
        }
        "safety.rollback" => format!(
            "rollback index {} on table {} ({})",
            field_f64(fields, "index").unwrap_or(0.0) as u64,
            field_f64(fields, "table").unwrap_or(0.0) as u64,
            field_str(fields, "reason").unwrap_or("?"),
        ),
        "safety.throttle" => format!(
            "throttle (cum regret {:.2}s)",
            field_f64(fields, "cum_regret_s").unwrap_or(0.0),
        ),
        other => other.to_string(),
    }
}
