//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Untraced (`--trace 0`, the default): drive back-to-back sessions, each
//! after its own set-ups, for at least `--seconds` seconds and at least 400
//! steps, and print the end-to-end metrics. Their wall times are rescaled to a fixed host speed, read from the reference
//! passes of [`probe`] timed between steps and before set-ups. Traced
//! (`--trace 1`): drive one untraced and one traced session and print the
//! per-layer metrics. Either way the last stdout line is one JSON object,
//! and the exit code is non-zero when a correctness check fails.

use std::process::ExitCode;

use dba_common::DbResult;
use perfbench::clock::Stopwatch;
use perfbench::probe::{self, REFERENCE_PASS_S};
use perfbench::report::Report;
use perfbench::stats::{at_reference_speed, median, percentile};
use perfbench::workload::{Session, SessionRun, Substrate, Workload, SCALE_FACTOR, SEED};

/// Set-ups before each session; `setup_s` is the median over every set-up
/// of the run, so it samples the whole run, not just its start.
const SETUP_REPS: usize = 5;
/// Reference passes timed before each set-up.
const SETUP_PASSES: usize = 5;
/// Timed steps per untraced run: the p95 has 20 samples beyond it, and a
/// `stream-*` run drives at least two sessions. With one, `stream-guarded`'s
/// p95 spread by up to 0.09 from run to run.
const MIN_STEPS: usize = 400;
/// A step's wall time is rescaled by the median reference pass of the
/// steps within this many of it (about 1.5 s of stepping on
/// `stream-guarded`): the host's slow phases last seconds.
const PROBE_RADIUS: usize = 8;
/// Share of traced step wall time the named layers must cover.
const MIN_ATTRIBUTED: f64 = 0.95;
/// The session's top-level layer spans; together they tile a step.
const LAYER_SPANS: [&str; 4] = [
    "round.advise",
    "round.execute",
    "round.drift",
    "round.observe",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Set-up wall times of a run, across all its sessions.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    build_catalog_s: Vec<f64>,
    stats_build_s: Vec<f64>,
}

/// Set `workload` up [`SETUP_REPS`] times (generate the data, ANALYZE it,
/// build the session) and keep the last set-up. Only one is resident at a
/// time. Each set-up's times are rescaled to the reference speed by the
/// reference passes timed right before it.
fn set_up(workload: Workload, times: &mut SetupTimes) -> DbResult<(Substrate, Session)> {
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let passes: Vec<f64> = (0..SETUP_PASSES).map(|_| probe::time_pass()).collect();
        let speed = REFERENCE_PASS_S / median(&passes).expect("SETUP_PASSES is at least 1");
        let watch = Stopwatch::start();
        let substrate = Substrate::generate()?;
        let session = Session::build(workload, &substrate, false)?;
        times.total_s.push(watch.secs() * speed);
        times
            .build_catalog_s
            .push(substrate.build_catalog_s * speed);
        times.stats_build_s.push(substrate.stats_build_s * speed);
        kept = Some((substrate, session));
    }
    Ok(kept.expect("SETUP_REPS is at least 1"))
}

fn check(workload: Workload, label: &str, run: &SessionRun) -> bool {
    let ok = run.reproduces(workload);
    if !ok {
        let (file, committed) = workload.committed_total();
        eprintln!(
            "{label} session: simulated total {:?} does not reproduce {file}'s {committed} \
             (bit-exact {:?})",
            run.sim_total_s(),
            workload.expected_total_s()
        );
    }
    ok
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn measure(args: &Args) -> DbResult<Report> {
    let workload = args.workload;
    let mut setups = SetupTimes::default();
    let (mut step_s, mut recommend_s) = (Vec::new(), Vec::new());
    let (mut sessions, mut attempted, mut failed, mut missed) = (0, 0, 0, 0);
    let mut sim_total_s = f64::NAN;
    let mut correct = true;
    let clock = Stopwatch::start();
    while correct && (step_s.len() < MIN_STEPS || clock.secs() < args.seconds) {
        let (_, session) = set_up(workload, &mut setups)?;
        let run = session.drive();
        sessions += 1;
        correct &= check(workload, "measured", &run);
        attempted += run.attempted();
        failed += run.failed;
        missed += run.budget_missed;
        sim_total_s = run.sim_total_s().unwrap_or(f64::NAN);
        let at_speed = |samples: &[f64]| {
            at_reference_speed(samples, &run.probe_s, PROBE_RADIUS, REFERENCE_PASS_S)
        };
        let steps = at_speed(&run.step_s);
        println!(
            "session {sessions}: {} steps in {:.3} s ({:.3} s at the reference speed; \
             reference pass median {:.3} ms)",
            run.step_s.len(),
            run.step_total_s(),
            steps.iter().sum::<f64>(),
            median(&run.probe_s).unwrap_or(f64::NAN) * 1e3
        );
        step_s.extend(steps);
        // Each step makes exactly one `before_round` call.
        recommend_s.extend(at_speed(&run.advisor.recommend_s));
    }
    let ms = |samples: &[f64], p: f64| percentile(samples, p).map_or(f64::NAN, |v| v * 1e3);

    let mut report = Report {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.push("setup_s", median(&setups.total_s).unwrap_or(f64::NAN), "s");
    report.push(
        "windows_per_s",
        step_s.len() as f64 / step_s.iter().sum::<f64>(),
        "1/s",
    );
    report.push("step_wall_p50_ms", ms(&step_s, 0.50), "ms");
    report.push("step_wall_p95_ms", ms(&step_s, 0.95), "ms");
    report.push("recommend_wall_p50_ms", ms(&recommend_s, 0.50), "ms");
    report.push("recommend_wall_p95_ms", ms(&recommend_s, 0.95), "ms");
    report.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    report.push("sim_total_s", sim_total_s, "sim_s");
    report.push("budget_miss_frac", missed as f64 / attempted as f64, "frac");
    report.push(
        "step_ok_frac",
        (attempted - failed) as f64 / attempted as f64,
        "frac",
    );
    println!(
        "{sessions} sessions, {} steps ({} recommend samples) in {:.2} s",
        step_s.len(),
        recommend_s.len(),
        clock.secs()
    );
    Ok(report)
}

fn trace(args: &Args) -> DbResult<Report> {
    let workload = args.workload;
    let mut setups = SetupTimes::default();
    let (substrate, session) = set_up(workload, &mut setups)?;
    let plain = session.drive();
    let traced = Session::build(workload, &substrate, true)?.drive();

    let mut correct = check(workload, "untraced", &plain) & check(workload, "traced", &traced);
    let step_s = traced.step_total_s();
    let attributed = LAYER_SPANS
        .iter()
        .map(|name| traced.spans.total_s(name))
        .sum::<f64>()
        / step_s;
    if attributed < MIN_ATTRIBUTED {
        eprintln!(
            "coverage: named layers cover {attributed:.4} of traced step wall time \
             (need {MIN_ATTRIBUTED})"
        );
        correct = false;
    }

    let result = traced.result.as_ref();
    let safety = result.and_then(|r| r.safety.clone());
    let guarded = safety.is_some();
    let spans = &traced.spans;
    let core_recommend_s = spans.total_s("mab.recommend");
    let core_observe_s = spans.total_s("mab.observe");
    let advisor_recommend_s: f64 = traced.advisor.recommend_s.iter().sum();
    let execute_s = traced.backend.execute_s;

    let mut report = Report {
        correct,
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed + traced.failed,
        metrics: Vec::new(),
    };
    report.push("core.recommend_s", core_recommend_s, "s");
    report.push("core.observe_s", core_observe_s, "s");
    report.push(
        "core.bandit_refreshes",
        result.map_or(0, |r| r.total_bandit_refreshes()) as f64,
        "count",
    );
    report.push(
        "core.bandit_decays",
        result.map_or(0, |r| r.total_bandit_decays()) as f64,
        "count",
    );
    let (recommend_self_s, observe_self_s) = if guarded {
        (
            advisor_recommend_s - core_recommend_s,
            traced.advisor.observe_s - core_observe_s,
        )
    } else {
        (0.0, 0.0)
    };
    report.push("safety.recommend_self_s", recommend_self_s, "s");
    report.push("safety.observe_self_s", observe_self_s, "s");
    let safety = safety.unwrap_or_default();
    report.push("safety.vetoes", safety.vetoes as f64, "count");
    report.push("safety.rollbacks", safety.rollbacks as f64, "count");
    report.push(
        "safety.throttled_rounds",
        safety.throttled_rounds as f64,
        "count",
    );
    report.push("safety.regret_factor", safety.regret_factor(), "ratio");
    let w = traced.whatif;
    report.push("optimizer.whatif.hits", w.hits as f64, "count");
    report.push("optimizer.whatif.misses", w.misses as f64, "count");
    report.push(
        "optimizer.whatif.invalidations",
        w.invalidations as f64,
        "count",
    );
    report.push("optimizer.whatif.hit_rate", w.hit_rate(), "frac");
    let pc = traced.plan_cache;
    report.push("optimizer.plan_cache.hits", pc.hits as f64, "count");
    report.push("optimizer.plan_cache.misses", pc.misses as f64, "count");
    report.push(
        "optimizer.plan_cache.invalidations",
        pc.invalidations as f64,
        "count",
    );
    report.push("optimizer.plan_cache.hit_rate", pc.hit_rate(), "frac");
    report.push(
        "optimizer.plan_s",
        spans.total_s("round.execute") - execute_s,
        "s",
    );
    report.push("engine.execute_s", execute_s, "s");
    report.push("engine.execute_calls", traced.backend.calls as f64, "count");
    report.push("session.step_s", step_s, "s");
    report.push(
        "session.overhead_s",
        step_s - traced.advisor.total_s() - execute_s,
        "s",
    );
    report.push("session.drift_s", spans.total_s("round.drift"), "s");
    report.push(
        "storage.build_catalog_s",
        median(&setups.build_catalog_s).unwrap_or(f64::NAN),
        "s",
    );
    report.push(
        "optimizer.stats_build_s",
        median(&setups.stats_build_s).unwrap_or(f64::NAN),
        "s",
    );
    report.push("obs.attributed_frac", attributed, "frac");
    report.push(
        "obs.trace_overhead_frac",
        step_s / plain.step_total_s() - 1.0,
        "frac",
    );
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} — TPC-H sf {SCALE_FACTOR}, data seed {SEED}, run seed {}, {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        trace(&args)
    } else {
        measure(&args)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!("{:<36} {:>24} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.is_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
