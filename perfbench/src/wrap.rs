//! Timing wrappers installed through the session's public seams: an
//! [`Advisor`] swapped in with `TuningSession::advisor_mut`, and an
//! [`ExecutionBackend`] handed to `SessionBuilder::backend_boxed`. Both
//! forward every trait method, so a wrapped session runs the unwrapped
//! trajectory bit for bit.

use std::sync::{Arc, Mutex};

use dba_core::{Advisor, AdvisorCost, DataChange, RoundContext, WindowMode};
use dba_engine::{BackendKind, CostModel, ExecutionBackend, OpSample, Plan, Query, QueryExecution};
use dba_optimizer::{StatsCatalog, WhatIfService};
use dba_storage::Catalog;

use crate::clock::Stopwatch;

/// Wall time the advisor spent, per call site.
#[derive(Debug, Clone, Default)]
pub struct AdvisorTimes {
    /// One entry per `before_round` call, in call order.
    pub recommend_s: Vec<f64>,
    /// Summed `after_round` time.
    pub observe_s: f64,
    /// Summed `begin_window` and `on_data_change` time.
    pub other_s: f64,
}

impl AdvisorTimes {
    pub fn total_s(&self) -> f64 {
        self.recommend_s.iter().sum::<f64>() + self.observe_s + self.other_s
    }
}

/// Times every call into the advisor it wraps.
pub struct TimedAdvisor {
    inner: Box<dyn Advisor>,
    times: Arc<Mutex<AdvisorTimes>>,
}

impl TimedAdvisor {
    /// Wrap the advisor already installed in `slot` (a built session's
    /// `advisor_mut()`); the returned handle reads the times back.
    pub fn install(slot: &mut Box<dyn Advisor>) -> Arc<Mutex<AdvisorTimes>> {
        let times = Arc::new(Mutex::new(AdvisorTimes::default()));
        let inner = std::mem::replace(slot, Box::new(dba_baselines::NoIndexAdvisor));
        *slot = Box::new(TimedAdvisor {
            inner,
            times: Arc::clone(&times),
        });
        times
    }

    fn add(&self, f: impl FnOnce(&mut AdvisorTimes)) {
        f(&mut crate::lock(&self.times));
    }
}

impl Advisor for TimedAdvisor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn before_round(
        &mut self,
        round: usize,
        catalog: &mut Catalog,
        stats: &StatsCatalog,
        whatif: &mut WhatIfService,
    ) -> AdvisorCost {
        let watch = Stopwatch::start();
        let cost = self.inner.before_round(round, catalog, stats, whatif);
        let secs = watch.secs();
        self.add(|t| t.recommend_s.push(secs));
        cost
    }

    fn on_data_change(&mut self, change: &DataChange) {
        let watch = Stopwatch::start();
        self.inner.on_data_change(change);
        let secs = watch.secs();
        self.add(|t| t.other_s += secs);
    }

    fn after_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        queries: &[Query],
        executions: &[QueryExecution],
    ) {
        let watch = Stopwatch::start();
        self.inner.after_round(ctx, queries, executions);
        let secs = watch.secs();
        self.add(|t| t.observe_s += secs);
    }

    fn begin_window(&mut self, mode: &WindowMode) {
        let watch = Stopwatch::start();
        self.inner.begin_window(mode);
        let secs = watch.secs();
        self.add(|t| t.other_s += secs);
    }

    fn bandit_counters(&self) -> (u64, u64) {
        self.inner.bandit_counters()
    }

    fn attach_obs(&mut self, obs: &dba_obs::Obs) {
        self.inner.attach_obs(obs);
    }
}

/// Wall time the execution backend spent.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTimes {
    pub calls: u64,
    pub execute_s: f64,
}

/// Times every `execute` of the backend it wraps.
pub struct TimedBackend {
    inner: Box<dyn ExecutionBackend>,
    times: Arc<Mutex<ExecTimes>>,
}

impl TimedBackend {
    /// The session builder's default backend (the simulated executor over
    /// the paper-scale cost model), timed; the returned handle reads the
    /// times back.
    pub fn simulated() -> (TimedBackend, Arc<Mutex<ExecTimes>>) {
        let times = Arc::new(Mutex::new(ExecTimes::default()));
        let backend = TimedBackend {
            inner: dba_engine::simulated(CostModel::paper_scale()),
            times: Arc::clone(&times),
        };
        (backend, times)
    }
}

impl ExecutionBackend for TimedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        let watch = Stopwatch::start();
        let execution = self.inner.execute(catalog, query, plan);
        let secs = watch.secs();
        let mut t = crate::lock(&self.times);
        t.calls += 1;
        t.execute_s += secs;
        execution
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn measures_wall_clock(&self) -> bool {
        self.inner.measures_wall_clock()
    }

    fn take_op_samples(&mut self) -> Vec<OpSample> {
        self.inner.take_op_samples()
    }
}
