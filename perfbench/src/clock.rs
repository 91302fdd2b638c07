//! The benchmark's one wall-clock seam. Every timing the benchmark takes —
//! around a session step, inside the advisor and backend wrappers, and the
//! advisory stamps on trace records — reads `Instant` through here.

use std::time::Instant;

use dba_common::BudgetTimer;

/// A started wall-clock measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        // lint: allow(D02, G01) — the benchmark times real work by design; readings only ever land in metrics, never in a tuning decision
        Stopwatch(Instant::now())
    }

    /// Seconds since [`start`](Self::start).
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// A live timer for `dba-obs`: trace records carry seconds since the
/// recorder was attached.
pub fn obs_timer() -> BudgetTimer {
    let origin = Stopwatch::start();
    BudgetTimer::with_source(move || origin.secs())
}
