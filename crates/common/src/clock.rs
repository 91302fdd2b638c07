//! Simulated time.
//!
//! Every duration the system reports — query execution, index creation,
//! advisor recommendation — is a [`SimSeconds`] value produced by a cost
//! model, not wall-clock time. This makes experiments deterministic and
//! portable while preserving the *relative* magnitudes the paper's
//! evaluation depends on.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A span of simulated time, in seconds.
///
/// Wraps `f64`; negative values are permitted transiently (e.g. a reward can
/// be negative) but accumulated clocks should remain non-negative.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimSeconds(pub f64);

impl SimSeconds {
    pub const ZERO: SimSeconds = SimSeconds(0.0);

    #[inline]
    pub fn new(secs: f64) -> Self {
        SimSeconds(secs)
    }

    /// Raw seconds as `f64`.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// Minutes as `f64` (the paper's Table I/II unit).
    #[inline]
    pub fn minutes(self) -> f64 {
        self.0 / 60.0
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Total order over the underlying seconds (IEEE 754 totalOrder): safe
    /// for `sort_by`/`max_by` even if a cost model ever leaks a NaN, where
    /// `partial_cmp().unwrap()` would abort the session.
    #[inline]
    pub fn total_cmp(&self, other: &SimSeconds) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    #[inline]
    pub fn max(self, other: SimSeconds) -> SimSeconds {
        SimSeconds(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: SimSeconds) -> SimSeconds {
        SimSeconds(self.0.min(other.0))
    }

    /// Clamp to be non-negative.
    #[inline]
    pub fn clamp_non_negative(self) -> SimSeconds {
        SimSeconds(self.0.max(0.0))
    }
}

impl Add for SimSeconds {
    type Output = SimSeconds;
    #[inline]
    fn add(self, rhs: SimSeconds) -> SimSeconds {
        SimSeconds(self.0 + rhs.0)
    }
}

impl AddAssign for SimSeconds {
    #[inline]
    fn add_assign(&mut self, rhs: SimSeconds) {
        self.0 += rhs.0;
    }
}

impl Sub for SimSeconds {
    type Output = SimSeconds;
    #[inline]
    fn sub(self, rhs: SimSeconds) -> SimSeconds {
        SimSeconds(self.0 - rhs.0)
    }
}

impl SubAssign for SimSeconds {
    #[inline]
    fn sub_assign(&mut self, rhs: SimSeconds) {
        self.0 -= rhs.0;
    }
}

impl Neg for SimSeconds {
    type Output = SimSeconds;
    #[inline]
    fn neg(self) -> SimSeconds {
        SimSeconds(-self.0)
    }
}

impl Mul<f64> for SimSeconds {
    type Output = SimSeconds;
    #[inline]
    fn mul(self, rhs: f64) -> SimSeconds {
        SimSeconds(self.0 * rhs)
    }
}

impl Div<f64> for SimSeconds {
    type Output = SimSeconds;
    #[inline]
    fn div(self, rhs: f64) -> SimSeconds {
        SimSeconds(self.0 / rhs)
    }
}

impl Sum for SimSeconds {
    fn sum<I: Iterator<Item = SimSeconds>>(iter: I) -> SimSeconds {
        SimSeconds(iter.map(|s| s.0).sum())
    }
}

impl fmt::Display for SimSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

/// The workspace's one clock type: an *advisory* timer with an injected
/// time source.
///
/// Simulated cost units are the primary latency currency everywhere in the
/// workspace; wall-clock readings are telemetry (or, on a `Measured`
/// executor, the measurement itself) and must never steer a simulated
/// result. This type keeps that rule lintable: code on result-affecting
/// paths (the engine's executor, the trace recorder) holds a `BudgetTimer`
/// and calls [`mark`](Self::mark)/[`elapsed_secs`](Self::elapsed_secs)
/// without ever naming a wall-clock API. The real clock enters only
/// through [`wall`](Self::wall); tests inject [`scripted`](Self::scripted)
/// or any closure via [`with_source`](Self::with_source). Everyone else
/// gets [`disabled`](Self::disabled), where every reading is `None`.
pub struct BudgetTimer {
    source: Option<Box<dyn Fn() -> f64 + Send>>,
    mark: Option<f64>,
}

impl BudgetTimer {
    /// A timer with no time source: `mark` is a no-op and `elapsed_secs`
    /// always returns `None`. The default for deterministic paths.
    pub fn disabled() -> Self {
        BudgetTimer {
            source: None,
            mark: None,
        }
    }

    /// A timer reading monotonic seconds from `source`.
    pub fn with_source(source: impl Fn() -> f64 + Send + 'static) -> Self {
        BudgetTimer {
            source: Some(Box::new(source)),
            mark: None,
        }
    }

    /// The real monotonic clock: seconds since construction.
    ///
    /// The single place the workspace reads the OS clock outside
    /// `dba-bench`; everything else receives time through a `BudgetTimer`,
    /// so rule D02 keeps firing on any other read.
    pub fn wall() -> Self {
        // lint: allow(D02) — the workspace's one sanctioned clock seam: every timing read is injected through a BudgetTimer, so operators stay clock-free and tests script time
        let start = std::time::Instant::now();
        BudgetTimer::with_source(move || start.elapsed().as_secs_f64())
    }

    /// A deterministic fake clock: each read advances time by `step_s`
    /// seconds, so one `mark`/`elapsed_secs` pair always spans one step.
    /// The tick counter lives inside the timer, so two scripted timers
    /// never interfere and timed runs are bit-identical across runs,
    /// thread counts and machines.
    pub fn scripted(step_s: f64) -> Self {
        let ticks = std::cell::Cell::new(0u64);
        BudgetTimer::with_source(move || {
            let t = ticks.get() + 1;
            ticks.set(t);
            t as f64 * step_s
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.source.is_some()
    }

    /// Record the current reading as the measurement start.
    pub fn mark(&mut self) {
        self.mark = self.source.as_ref().map(|s| s());
    }

    /// Seconds since the last [`mark`](Self::mark); `None` when disabled
    /// or never marked.
    pub fn elapsed_secs(&self) -> Option<f64> {
        match (&self.source, self.mark) {
            (Some(source), Some(mark)) => Some((source() - mark).max(0.0)),
            _ => None,
        }
    }
}

impl Default for BudgetTimer {
    fn default() -> Self {
        BudgetTimer::disabled()
    }
}

impl fmt::Debug for BudgetTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BudgetTimer")
            .field("enabled", &self.is_enabled())
            .field("mark", &self.mark)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = SimSeconds::new(1.5);
        let b = SimSeconds::new(2.5);
        assert_eq!((a + b).secs(), 4.0);
        assert_eq!((b - a).secs(), 1.0);
        assert_eq!((a * 2.0).secs(), 3.0);
        assert_eq!((b / 2.0).secs(), 1.25);
        assert_eq!((-a).secs(), -1.5);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimSeconds = (1..=4).map(|i| SimSeconds::new(i as f64)).sum();
        assert_eq!(total.secs(), 10.0);
    }

    #[test]
    fn minutes_conversion() {
        assert!((SimSeconds::new(90.0).minutes() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn clamp_non_negative() {
        assert_eq!(SimSeconds::new(-2.0).clamp_non_negative().secs(), 0.0);
        assert_eq!(SimSeconds::new(2.0).clamp_non_negative().secs(), 2.0);
    }

    #[test]
    fn disabled_budget_timer_reads_nothing() {
        let mut t = BudgetTimer::disabled();
        assert!(!t.is_enabled());
        t.mark();
        assert_eq!(t.elapsed_secs(), None);
    }

    #[test]
    fn sourced_budget_timer_measures_between_marks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let fake_now = Arc::new(AtomicU64::new(100));
        let reader = Arc::clone(&fake_now);
        let mut t = BudgetTimer::with_source(move || reader.load(Ordering::Relaxed) as f64);
        assert!(t.is_enabled());
        assert_eq!(t.elapsed_secs(), None, "unmarked timer reads nothing");
        t.mark();
        fake_now.store(103, Ordering::Relaxed);
        assert_eq!(t.elapsed_secs(), Some(3.0));
        // A source that runs backwards clamps to zero rather than going
        // negative.
        fake_now.store(99, Ordering::Relaxed);
        assert_eq!(t.elapsed_secs(), Some(0.0));
    }

    #[test]
    fn scripted_timers_are_deterministic_and_independent() {
        let read = |t: &mut BudgetTimer| {
            t.mark();
            t.elapsed_secs()
        };
        let (mut a, mut b) = (BudgetTimer::scripted(0.5), BudgetTimer::scripted(0.5));
        assert_eq!(read(&mut a), Some(0.5));
        assert_eq!(read(&mut a), Some(0.5));
        assert_eq!(
            read(&mut b),
            Some(0.5),
            "a second timer starts its own count"
        );
    }

    #[test]
    fn wall_timer_is_monotonic_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BudgetTimer>();
        let mut t = BudgetTimer::wall();
        assert!(t.is_enabled());
        t.mark();
        assert!(t.elapsed_secs().unwrap() >= 0.0);
    }
}
