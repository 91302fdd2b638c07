//! Streaming driver: arrival windows under a hard recommend-latency
//! budget, with the graceful-degrade ladder the budget enforces.
//!
//! [`StreamingSession`] wraps a [`TuningSession`] and drives it one
//! [`ArrivalWindow`] at a time instead of one round at a time. Before each
//! window it asks its [`DegradeController`] how much of the recommend step
//! the window can afford — the answer is a [`DegradeLevel`] derived purely
//! from *simulated* recommend cost against the configured budget, so runs
//! are deterministic and thread-count independent; wall-clock is advisory
//! telemetry carried beside the simulated figures, never branched on.
//!
//! The ladder's contract (enforced by the controller's debt model, tested
//! below): a blown budget first degrades to [`DegradeLevel::ReuseConfig`]
//! (keep the configuration, skip scoring entirely), and only *persistent*
//! debt escalates to [`DegradeLevel::Amortized`] (score just the arms
//! whose templates' arrival share moved, amortising `marginals()` across
//! windows through the what-if memo). A window under budget pays the debt
//! down and the next window runs [`DegradeLevel::Full`] again.

use dba_common::{BudgetTimer, DbResult, SimSeconds};
use dba_core::{Advisor, DegradeLevel, WindowMode};
use dba_safety::SafetyReport;
use dba_workloads::{ArrivalProcess, ArrivalWindow};

use crate::record::{RoundRecord, RunResult};
use crate::session::TuningSession;

/// Streaming-run parameters: the arrival process, the per-window recommend
/// budget, and the share-change threshold scoping `Amortized` windows.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    pub arrival: ArrivalProcess,
    /// Hard per-window recommend budget in **simulated** seconds.
    /// `f64::INFINITY` disables the ladder: every window runs
    /// [`DegradeLevel::Full`] and the trajectory reduces exactly to the
    /// fixed-round model when `arrival` is [`ArrivalProcess::RoundBatch`].
    pub budget_s: f64,
    /// Minimum absolute arrival-share change for a template to be
    /// re-scored in an `Amortized` window (templates appearing or
    /// vanishing always count).
    pub share_epsilon: f64,
}

impl StreamConfig {
    pub fn new(arrival: ArrivalProcess, budget_s: f64) -> Self {
        StreamConfig {
            arrival,
            budget_s,
            share_epsilon: 0.01,
        }
    }

    /// No budget: every window runs the full recommend step.
    pub fn unbounded(arrival: ArrivalProcess) -> Self {
        StreamConfig::new(arrival, f64::INFINITY)
    }
}

/// The degrade ladder's state machine. Tracks a *debt* of simulated
/// recommend-seconds over budget; any outstanding debt degrades the next
/// window, and the level only escalates one rung at a time:
///
/// - debt == 0 → [`DegradeLevel::Full`]
/// - debt > 0 after a `Full` window → [`DegradeLevel::ReuseConfig`]
/// - debt > 0 after a degraded window → [`DegradeLevel::Amortized`]
///
/// so `ReuseConfig` strictly precedes `Amortized` after every budget
/// breach. Debt is clamped to twice the budget: one catastrophic window
/// degrades at most the next two, it does not mortgage the whole run.
#[derive(Debug, Clone, Copy)]
pub struct DegradeController {
    budget_s: f64,
    debt_s: f64,
    level: DegradeLevel,
}

impl DegradeController {
    pub fn new(budget_s: f64) -> Self {
        DegradeController {
            budget_s,
            debt_s: 0.0,
            level: DegradeLevel::Full,
        }
    }

    /// Level the *next* window should run at.
    pub fn level(&self) -> DegradeLevel {
        self.level
    }

    /// Outstanding recommend-seconds over budget.
    pub fn debt_s(&self) -> f64 {
        self.debt_s
    }

    /// Account one window's simulated recommend cost and return the level
    /// for the next window. An infinite budget never accrues debt.
    pub fn observe(&mut self, recommend_s: f64) -> DegradeLevel {
        if !self.budget_s.is_finite() {
            return DegradeLevel::Full;
        }
        self.debt_s = (self.debt_s + recommend_s - self.budget_s).clamp(0.0, 2.0 * self.budget_s);
        self.level = if self.debt_s > 0.0 {
            if self.level == DegradeLevel::Full {
                DegradeLevel::ReuseConfig
            } else {
                DegradeLevel::Amortized
            }
        } else {
            DegradeLevel::Full
        };
        self.level
    }
}

/// One streaming window's outcome: the degrade decision that shaped it,
/// its arrival mass, and the underlying round accounting.
#[derive(Debug, Clone)]
pub struct WindowRecord {
    /// Global window index (0-based).
    pub window: usize,
    /// Workload round the window falls in.
    pub round: usize,
    pub burst: bool,
    pub round_boundary: bool,
    /// Degrade level this window's recommend step ran at.
    pub level: DegradeLevel,
    /// Queries that arrived in the window.
    pub arrivals: u64,
    /// Simulated span of the window.
    pub duration: SimSeconds,
    /// Whether this window's simulated recommend cost exceeded the budget.
    pub budget_blown: bool,
    /// Advisory wall-clock seconds of the recommend step (`None` unless a
    /// timer was injected via [`StreamingSession::set_timer`]).
    pub wall_recommend_s: Option<f64>,
    /// The window's time/counter accounting (`record.round` is the
    /// 1-based *window* number in streaming runs).
    pub record: RoundRecord,
}

/// A finished streaming run: the per-window trail plus the session's
/// ordinary [`RunResult`].
#[derive(Debug, Clone)]
pub struct StreamResult {
    pub run: RunResult,
    pub windows: Vec<WindowRecord>,
    /// The budget the run enforced (simulated seconds; infinite = none).
    pub budget_s: f64,
}

impl StreamResult {
    pub fn total_arrivals(&self) -> u64 {
        self.windows.iter().map(|w| w.arrivals).sum()
    }

    fn count_level(&self, level: DegradeLevel) -> usize {
        self.windows.iter().filter(|w| w.level == level).count()
    }

    /// Windows that ran below [`DegradeLevel::Full`].
    pub fn degraded_windows(&self) -> usize {
        self.windows.len() - self.count_level(DegradeLevel::Full)
    }

    pub fn reuse_windows(&self) -> usize {
        self.count_level(DegradeLevel::ReuseConfig)
    }

    pub fn amortized_windows(&self) -> usize {
        self.count_level(DegradeLevel::Amortized)
    }

    /// Windows whose simulated recommend cost exceeded the budget.
    pub fn blown_windows(&self) -> usize {
        self.windows.iter().filter(|w| w.budget_blown).count()
    }

    /// Sustained simulated throughput: arrivals over window spans plus the
    /// tuner's serial per-window overhead — the recommend step, the one
    /// piece of the loop that stalls ingestion while it runs (and the one
    /// the latency budget governs). Query execution, index builds and
    /// maintenance are excluded: they run concurrently on the engine side
    /// (execution on the query path, online index build and write-path
    /// maintenance in the background), billed in the [`RunResult`] totals
    /// but not against the arrival clock.
    pub fn queries_per_min(&self) -> f64 {
        let minutes: f64 = self
            .windows
            .iter()
            .map(|w| w.duration.minutes())
            .sum::<f64>()
            + self.run.total_recommendation().minutes();
        if minutes <= 0.0 {
            return 0.0;
        }
        self.total_arrivals() as f64 / minutes
    }

    /// p99 of per-window simulated recommend cost.
    pub fn recommend_p99_s(&self) -> f64 {
        percentile(
            self.windows
                .iter()
                .map(|w| w.record.recommendation.secs())
                .collect(),
            0.99,
        )
        .unwrap_or(0.0)
    }

    /// p99 of per-window wall-clock recommend time (`None` when no timer
    /// was injected). Advisory only.
    pub fn wall_recommend_p99_s(&self) -> Option<f64> {
        let samples: Vec<f64> = self
            .windows
            .iter()
            .filter_map(|w| w.wall_recommend_s)
            .collect();
        percentile(samples, 0.99)
    }
}

fn percentile(mut samples: Vec<f64>, p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let idx = (((samples.len() - 1) as f64) * p).ceil() as usize;
    Some(samples[idx])
}

/// Deadline-aware streaming driver around a [`TuningSession`].
pub struct StreamingSession<A: Advisor> {
    session: TuningSession<A>,
    config: StreamConfig,
    controller: DegradeController,
    timer: BudgetTimer,
    /// Previous window's per-template arrival shares, sorted by template
    /// index — the baseline `Amortized` windows diff against.
    prev_shares: Vec<(usize, f64)>,
    windows: Vec<WindowRecord>,
    next_window: usize,
}

/// A streaming session over a boxed advisor (what
/// [`SessionBuilder::build`](crate::SessionBuilder::build) produces).
pub type DynStreamingSession = StreamingSession<Box<dyn Advisor>>;

impl<A: Advisor> StreamingSession<A> {
    /// Drive `session` window by window, starting at the first window of
    /// the first round it has not run yet.
    pub fn new(session: TuningSession<A>, config: StreamConfig) -> Self {
        let controller = DegradeController::new(config.budget_s);
        let next_window = session.rounds_done() * config.arrival.windows_per_round();
        StreamingSession {
            session,
            config,
            controller,
            timer: BudgetTimer::disabled(),
            prev_shares: Vec::new(),
            windows: Vec::new(),
            next_window,
        }
    }

    /// Inject a wall-clock source for advisory per-window latency
    /// telemetry. Only the harness crate holds a real source; everything
    /// else leaves the default disabled timer.
    pub fn set_timer(&mut self, timer: BudgetTimer) {
        self.timer = timer;
    }

    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    pub fn controller(&self) -> &DegradeController {
        &self.controller
    }

    pub fn session(&self) -> &TuningSession<A> {
        &self.session
    }

    pub fn windows_total(&self) -> usize {
        self.session.rounds_total() * self.config.arrival.windows_per_round()
    }

    pub fn windows_done(&self) -> usize {
        self.next_window
    }

    pub fn is_finished(&self) -> bool {
        self.next_window >= self.windows_total()
    }

    /// Drive one window; `Ok(None)` when the workload is exhausted.
    pub fn step(&mut self) -> DbResult<Option<WindowRecord>> {
        if self.is_finished() {
            return Ok(None);
        }
        let w = self.next_window;
        let window = self.session.arrival_window(self.config.arrival, w);
        let cur_shares = arrival_shares(&window);

        // Window 0 always runs Full (it carries the tuner's setup charge
        // and there is nothing to reuse yet); afterwards the controller's
        // verdict from the previous window applies.
        let level = if w == 0 {
            DegradeLevel::Full
        } else {
            self.controller.level()
        };
        let changed_templates = if level == DegradeLevel::Amortized {
            changed_shares(&self.prev_shares, &cur_shares, self.config.share_epsilon)
                .into_iter()
                .map(|ti| self.session.benchmark().templates()[ti].id)
                .collect()
        } else {
            Vec::new()
        };
        let mode = WindowMode {
            level,
            changed_templates,
        };

        let (record, wall_recommend_s) =
            self.session
                .step_window(self.config.arrival, &window, &mode, &mut self.timer)?;
        let recommend_s = record.recommendation.secs();
        let prev_level = self.controller.level();
        let next_level = self.controller.observe(recommend_s);
        self.prev_shares = cur_shares;

        // Satellite observability: one structured event per window, plus a
        // ladder-transition event whenever the controller moves. Gated on
        // `enabled()` so the noop path never formats level labels.
        if self.session.obs().enabled() {
            let blown = recommend_s > self.config.budget_s;
            if next_level != prev_level {
                self.session.obs().event(
                    "degrade.transition",
                    vec![
                        ("window", w.into()),
                        ("from", format!("{prev_level:?}").into()),
                        ("to", format!("{next_level:?}").into()),
                        ("debt_s", self.controller.debt_s().into()),
                    ],
                );
            }
            let mut fields = vec![
                ("window", w.into()),
                ("round", window.round.into()),
                ("level", format!("{level:?}").into()),
                ("debt_s", self.controller.debt_s().into()),
                ("arrivals", window.total_arrivals().into()),
                ("blown", blown.into()),
                ("recommend_s", recommend_s.into()),
            ];
            if let Some(wall) = wall_recommend_s {
                fields.push(("wall_recommend_s", wall.into()));
            }
            self.session.obs().event("stream.window", fields);
        }

        let wrec = WindowRecord {
            window: w,
            round: window.round,
            burst: window.burst,
            round_boundary: window.round_boundary,
            level,
            arrivals: window.total_arrivals(),
            duration: window.duration,
            budget_blown: recommend_s > self.config.budget_s,
            wall_recommend_s,
            record,
        };
        self.windows.push(wrec.clone());
        self.next_window += 1;
        Ok(Some(wrec))
    }

    /// Run every remaining window and return the complete [`StreamResult`].
    pub fn run(mut self) -> DbResult<StreamResult> {
        while self.step()?.is_some() {}
        Ok(self.into_result())
    }

    /// Finish early: package whatever windows have run.
    pub fn into_result(self) -> StreamResult {
        StreamResult {
            run: self.session.into_result(),
            windows: self.windows,
            budget_s: self.config.budget_s,
        }
    }

    /// Guardrail report of the underlying session, if safeguarded.
    pub fn safety_report(&self) -> Option<SafetyReport> {
        self.session.safety_ledger().map(|l| l.report())
    }
}

/// Per-template arrival shares of one window, aggregated (RoundBatch
/// windows repeat templates positionally) and sorted by template index.
fn arrival_shares(window: &ArrivalWindow) -> Vec<(usize, f64)> {
    let total = window.total_arrivals();
    if total == 0 {
        return Vec::new();
    }
    let mut counts: Vec<(usize, u64)> = window.arrivals.clone();
    counts.sort_unstable_by_key(|&(ti, _)| ti);
    let mut shares: Vec<(usize, f64)> = Vec::with_capacity(counts.len());
    for (ti, c) in counts {
        match shares.last_mut() {
            Some((last, share)) if *last == ti => *share += c as f64 / total as f64,
            _ => shares.push((ti, c as f64 / total as f64)),
        }
    }
    shares
}

/// Template indices whose arrival share moved by more than `epsilon`
/// between two share vectors (both sorted by template index). Templates
/// appearing or vanishing always count — a share moving from or to zero
/// is exactly the "queries of interest changed" signal.
fn changed_shares(prev: &[(usize, f64)], cur: &[(usize, f64)], epsilon: f64) -> Vec<usize> {
    let mut changed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.len() || j < cur.len() {
        match (prev.get(i), cur.get(j)) {
            (Some(&(pt, ps)), Some(&(ct, cs))) if pt == ct => {
                if (ps - cs).abs() > epsilon {
                    changed.push(pt);
                }
                i += 1;
                j += 1;
            }
            (Some(&(pt, _)), Some(&(ct, _))) if pt < ct => {
                changed.push(pt);
                i += 1;
            }
            (Some(_), Some(&(ct, _))) => {
                changed.push(ct);
                j += 1;
            }
            (Some(&(pt, _)), None) => {
                changed.push(pt);
                i += 1;
            }
            (None, Some(&(ct, _))) => {
                changed.push(ct);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SessionBuilder, TunerKind};
    use crate::session::tests::scenarios;
    use dba_optimizer::StatsCatalog;
    use dba_safety::SafetyConfig;
    use dba_workloads::{ssb::ssb, DataDrift, DriftRates, WorkloadKind};

    fn builder(tuner: TunerKind) -> SessionBuilder {
        SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(tuner)
            .workload(WorkloadKind::Static { rounds: 4 })
            .seed(7)
    }

    /// With no budget, the streaming driver over `RoundBatch` arrivals
    /// reduces *exactly* to the fixed-round model for every scenario ×
    /// tuner × guard combination: every record field (what-if and plan
    /// cache counters included) and the whole safety report, compared by
    /// their `Debug` output.
    #[test]
    fn unbounded_roundbatch_reduces_to_the_fixed_round_trajectory() {
        let bench = ssb(0.01);
        let base = bench.build_catalog(7).unwrap();
        let stats = StatsCatalog::build(&base);
        let tuners = [
            TunerKind::NoIndex,
            TunerKind::PdTool,
            TunerKind::Mab,
            TunerKind::Ddqn { seed: 3 },
        ];
        for (workload, drift) in &scenarios() {
            for tuner in tuners {
                for guarded in [false, true] {
                    let build = || {
                        let mut b = SessionBuilder::new()
                            .benchmark(bench.clone())
                            .shared_data(&base)
                            .shared_stats(&stats)
                            .workload(*workload)
                            .tuner(tuner)
                            .seed(7);
                        if let Some(drift) = drift {
                            b = b.data_drift(drift.clone());
                        }
                        if guarded {
                            b = b.safeguard(SafetyConfig::default());
                        }
                        b.build().unwrap()
                    };
                    let label = format!(
                        "{workload:?}/drift={}/{tuner:?}/guarded={guarded}",
                        drift.is_some()
                    );
                    let fixed = build().run().unwrap();
                    let streamed = StreamingSession::new(
                        build(),
                        StreamConfig::unbounded(ArrivalProcess::RoundBatch),
                    )
                    .run()
                    .unwrap();
                    assert_eq!(
                        format!("{:?}", streamed.run.rounds),
                        format!("{:?}", fixed.rounds),
                        "{label}: round records"
                    );
                    assert_eq!(
                        format!("{:?}", streamed.run.safety),
                        format!("{:?}", fixed.safety),
                        "{label}: safety report"
                    );
                    assert_eq!(streamed.windows.len(), fixed.rounds.len(), "{label}");
                    assert_eq!(streamed.degraded_windows(), 0, "{label}");
                    assert_eq!(streamed.blown_windows(), 0, "{label}");
                    for w in &streamed.windows {
                        assert!(w.round_boundary, "{label}");
                        assert_eq!(w.level, DegradeLevel::Full, "{label}");
                        assert_eq!(w.wall_recommend_s, None, "{label}: no timer injected");
                    }
                }
            }
        }
    }

    /// Guarded equivalence on the default static scenario: unit window
    /// weights leave the safety trajectory and every time field identical
    /// to the round-batch run. The table above extends this to every
    /// scenario and to whole-record equality.
    #[test]
    fn unbounded_guarded_roundbatch_matches_times_and_safety() {
        let guarded = |streaming: bool| {
            let s = builder(TunerKind::Mab)
                .safeguard(SafetyConfig::default())
                .build()
                .unwrap();
            if streaming {
                StreamingSession::new(s, StreamConfig::unbounded(ArrivalProcess::RoundBatch))
                    .run()
                    .unwrap()
                    .run
            } else {
                let mut s = s;
                s.run().unwrap()
            }
        };
        let fixed = guarded(false);
        let streamed = guarded(true);
        assert_eq!(streamed.rounds.len(), fixed.rounds.len());
        for (s, f) in streamed.rounds.iter().zip(&fixed.rounds) {
            assert_eq!(s.recommendation, f.recommendation);
            assert_eq!(s.creation, f.creation);
            assert_eq!(s.execution, f.execution);
            assert_eq!(s.maintenance, f.maintenance);
            assert_eq!(s.shift_intensity, f.shift_intensity);
        }
        let (sa, fa) = (streamed.safety.unwrap(), fixed.safety.unwrap());
        assert_eq!(format!("{sa:?}"), format!("{fa:?}"));
    }

    /// Empty windows are survivable: at zero arrivals every window runs no
    /// queries, yet drift still lands at round boundaries and a guarded
    /// session closes one safety record per window.
    #[test]
    fn zero_arrival_windows_still_drift_and_close() {
        let empty = ArrivalProcess::Poisson {
            rate_per_min: 0.0,
            window_secs: 3.0,
            windows_per_round: 2,
        };
        for tuner in [
            TunerKind::Mab,
            TunerKind::PdTool,
            TunerKind::Ddqn { seed: 3 },
        ] {
            for guarded in [false, true] {
                let mut b = builder(tuner)
                    .workload(WorkloadKind::Static { rounds: 3 })
                    .data_drift(DataDrift::uniform(DriftRates::new(0.05, 0.0, 0.0)));
                if guarded {
                    b = b.safeguard(SafetyConfig::default());
                }
                let label = format!("{tuner:?}/guarded={guarded}");
                let mut s =
                    StreamingSession::new(b.build().unwrap(), StreamConfig::unbounded(empty));
                while s.step().unwrap().is_some() {}
                assert!(s.session().catalog().has_drift(), "{label}: no drift");
                assert!(
                    s.session().stats().max_staleness() > 0.0,
                    "{label}: drift must leave statistics stale"
                );
                let result = s.into_result();
                assert_eq!(result.windows.len(), 6, "{label}");
                for w in &result.windows {
                    assert_eq!(w.arrivals, 0, "{label}");
                    let r = &w.record;
                    for v in [
                        r.recommendation.secs(),
                        r.creation.secs(),
                        r.execution.secs(),
                        r.maintenance.secs(),
                        r.shift_intensity,
                    ] {
                        assert!(v.is_finite(), "{label}: non-finite record");
                    }
                }
                match result.run.safety {
                    Some(safety) if guarded => {
                        assert_eq!(safety.rounds.len(), 6, "{label}: one close per window")
                    }
                    None if !guarded => {}
                    other => panic!("{label}: unexpected safety report {other:?}"),
                }
            }
        }
    }

    /// A starved budget engages the degrade ladder in contract order:
    /// the first degraded window is `ReuseConfig`, and no `Amortized`
    /// window precedes it.
    #[test]
    fn starved_budget_engages_reuse_before_amortized() {
        let s = builder(TunerKind::Mab)
            .workload(WorkloadKind::Static { rounds: 2 })
            .build()
            .unwrap();
        let mut config = StreamConfig::new(ArrivalProcess::paper_poisson(), 1.0e-9);
        config.share_epsilon = 0.01;
        let result = StreamingSession::new(s, config).run().unwrap();
        assert_eq!(result.windows.len(), 16);
        assert!(result.blown_windows() >= 1, "budget must actually blow");
        assert!(result.degraded_windows() >= 1, "ladder must engage");
        let first_degraded = result
            .windows
            .iter()
            .find(|w| w.level != DegradeLevel::Full)
            .expect("some window degraded");
        assert_eq!(
            first_degraded.level,
            DegradeLevel::ReuseConfig,
            "config reuse must precede marginal amortization"
        );
        assert_eq!(result.windows[0].level, DegradeLevel::Full);
    }

    /// Streaming runs are deterministic: the same configuration replays
    /// the identical window trail, whatever else ran in the process.
    #[test]
    fn streaming_runs_replay_bit_identically() {
        let run = || {
            let s = builder(TunerKind::Mab)
                .workload(WorkloadKind::Static { rounds: 2 })
                .build()
                .unwrap();
            StreamingSession::new(s, StreamConfig::new(ArrivalProcess::paper_bursty(), 0.05))
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(format!("{:?}", a.windows), format!("{:?}", b.windows));
        assert_eq!(a.queries_per_min(), b.queries_per_min());
    }

    #[test]
    fn controller_walks_reuse_before_amortized_and_recovers() {
        // Budget 1.0s. Two expensive windows, then cheap ones: the ladder
        // must go Full → ReuseConfig → Amortized → … → Full, never jumping
        // straight to Amortized.
        let mut c = DegradeController::new(1.0);
        assert_eq!(c.level(), DegradeLevel::Full);
        assert_eq!(c.observe(3.0), DegradeLevel::ReuseConfig);
        assert_eq!(c.observe(3.0), DegradeLevel::Amortized);
        assert_eq!(c.observe(0.0), DegradeLevel::Amortized, "debt persists");
        assert_eq!(c.observe(0.0), DegradeLevel::Full, "debt paid off");
        assert!(c.debt_s() == 0.0);
        // A fresh breach starts the ladder at ReuseConfig again.
        assert_eq!(c.observe(1.5), DegradeLevel::ReuseConfig);
        assert_eq!(c.observe(0.0), DegradeLevel::Full);
    }

    #[test]
    fn controller_debt_is_clamped_to_twice_the_budget() {
        let mut c = DegradeController::new(1.0);
        c.observe(1_000.0);
        assert_eq!(c.debt_s(), 2.0, "one catastrophe mortgages two windows");
        c.observe(0.0);
        c.observe(0.0);
        assert_eq!(c.level(), DegradeLevel::Full);
    }

    #[test]
    fn infinite_budget_never_degrades() {
        let mut c = DegradeController::new(f64::INFINITY);
        for _ in 0..10 {
            assert_eq!(c.observe(1.0e9), DegradeLevel::Full);
        }
        assert_eq!(c.debt_s(), 0.0);
    }

    #[test]
    fn changed_shares_flags_moves_appearances_and_vanishings() {
        let prev = [(1, 0.5), (2, 0.3), (4, 0.2)];
        let cur = [(1, 0.505), (2, 0.095), (3, 0.4)];
        // 1 moved within epsilon; 2 moved beyond; 4 vanished; 3 appeared.
        assert_eq!(changed_shares(&prev, &cur, 0.01), vec![2, 3, 4]);
        assert!(changed_shares(&prev, &prev, 0.01).is_empty());
        assert_eq!(changed_shares(&[], &cur, 0.01), vec![1, 2, 3]);
    }
}
