//! D02 fixture for the engine's timed executor: the `BudgetTimer` seam is
//! the one sanctioned wall-clock boundary; a raw read in operator code
//! still fires under the dba-engine policy.
use std::time::Instant;

// BAD: raw wall-clock read in operator code — timing must flow through
// the executor's BudgetTimer, or scripted-clock determinism breaks.
fn bad_inline_timing() -> f64 {
    let start = Instant::now();
    start.elapsed().as_secs_f64()
}

// GOOD: the sanctioned seam — the single place the real wall-clock enters,
// with a written reason (mirrors `BudgetTimer::wall` in
// crates/common/src/clock.rs).
fn sanctioned_clock_source() -> f64 {
    // lint: allow(D02) — the BudgetTimer clock seam: the one sanctioned wall-clock read
    let start = Instant::now();
    start.elapsed().as_secs_f64()
}
