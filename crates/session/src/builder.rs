//! Session construction: tuner selection and validated assembly of the
//! substrate a tuning loop needs.

use std::sync::Arc;

use dba_baselines::{
    DdqnAdvisor, DdqnConfig, InvokeSchedule, NoIndexAdvisor, PdToolAdvisor, PdToolConfig,
};
use dba_common::{BudgetTimer, DbError, DbResult, SimSeconds};
use dba_core::{Advisor, MabConfig, MabTuner};
use dba_engine::{BackendKind, CostModel, ExecutionBackend};
use dba_optimizer::StatsCatalog;
use dba_safety::{SafeguardedAdvisor, SafetyConfig, SafetyLedger};
use dba_storage::{BaseData, Catalog};
use dba_workloads::{Benchmark, DataDrift, WorkloadKind};

use crate::session::TuningSession;

/// How the session obtains its execution backend: a named kind resolved
/// at build time, or a caller-supplied implementation.
enum BackendChoice {
    Kind(BackendKind),
    Custom(Box<dyn ExecutionBackend>),
}

impl BackendChoice {
    fn into_backend(self, cost: &CostModel) -> Box<dyn ExecutionBackend> {
        match self {
            BackendChoice::Kind(BackendKind::Simulated) => dba_engine::simulated(cost.clone()),
            BackendChoice::Kind(BackendKind::Measured) => {
                dba_engine::timed(cost.clone(), BackendKind::Measured, BudgetTimer::wall())
            }
            BackendChoice::Custom(backend) => backend,
        }
    }
}

/// The built-in tuners (the paper's comparison set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerKind {
    NoIndex,
    PdTool,
    Mab,
    Ddqn { seed: u64 },
    DdqnSc { seed: u64 },
}

impl TunerKind {
    pub fn label(&self) -> &'static str {
        match self {
            TunerKind::NoIndex => "NoIndex",
            TunerKind::PdTool => "PDTool",
            TunerKind::Mab => "MAB",
            TunerKind::Ddqn { .. } => "DDQN",
            TunerKind::DdqnSc { .. } => "DDQN-SC",
        }
    }
}

/// Construct an advisor for `kind`, configured per the paper's setup:
/// PDTool scheduled per workload type, the TPC-DS dynamic-random PDTool
/// invocation capped at one hour (§V-A).
pub fn make_advisor(
    kind: TunerKind,
    benchmark_name: &str,
    workload: WorkloadKind,
    catalog: &Catalog,
    cost: &CostModel,
    memory_budget_bytes: u64,
) -> Box<dyn Advisor> {
    let budget = memory_budget_bytes;
    match kind {
        TunerKind::NoIndex => Box::new(NoIndexAdvisor),
        TunerKind::PdTool => {
            let schedule = match workload {
                WorkloadKind::Random { .. } => InvokeSchedule::EveryKRounds(4),
                _ => InvokeSchedule::OnWorkloadChange,
            };
            let mut config = PdToolConfig::paper_defaults(budget, schedule);
            if benchmark_name == "TPC-DS" && matches!(workload, WorkloadKind::Random { .. }) {
                config.time_limit = Some(SimSeconds::new(3600.0));
            }
            Box::new(PdToolAdvisor::new(cost.clone(), config))
        }
        TunerKind::Mab => {
            let config = MabConfig {
                memory_budget_bytes: budget,
                ..MabConfig::default()
            };
            Box::new(MabTuner::new(catalog, cost.clone(), config))
        }
        TunerKind::Ddqn { seed } => {
            let config = DdqnConfig::paper_defaults(budget, seed);
            Box::new(DdqnAdvisor::new(catalog, cost.clone(), config))
        }
        TunerKind::DdqnSc { seed } => {
            let config = DdqnConfig::paper_defaults(budget, seed).single_column();
            Box::new(DdqnAdvisor::new(catalog, cost.clone(), config))
        }
    }
}

/// Builds a [`TuningSession`].
///
/// Required: a benchmark and a tuner (either a [`TunerKind`] or, via
/// [`build_with`](SessionBuilder::build_with), any [`Advisor`]).
/// Defaults: the paper's static workload, seed 42, the paper-scale cost
/// model, and a memory budget of 1× the generated data size.
pub struct SessionBuilder {
    benchmark: Option<Benchmark>,
    shared_data: Option<Arc<BaseData>>,
    shared_stats: Option<StatsCatalog>,
    workload: WorkloadKind,
    drift: Option<DataDrift>,
    tuner: Option<TunerKind>,
    seed: u64,
    memory_budget_bytes: Option<u64>,
    cost: CostModel,
    safeguard: Option<SafetyConfig>,
    mab_config: Option<MabConfig>,
    obs: dba_obs::Obs,
    backend: BackendChoice,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    pub fn new() -> Self {
        SessionBuilder {
            benchmark: None,
            shared_data: None,
            shared_stats: None,
            workload: WorkloadKind::paper_static(),
            drift: None,
            tuner: None,
            seed: 42,
            memory_budget_bytes: None,
            cost: CostModel::paper_scale(),
            safeguard: None,
            mab_config: None,
            obs: dba_obs::Obs::noop(),
            backend: BackendChoice::Kind(BackendKind::Simulated),
        }
    }

    /// Select the execution backend by kind: `Simulated` (default — the
    /// engine executor charging cost-model prices, bit-exact with every
    /// prior trajectory) or `Measured` (the same executor charging each
    /// operator's wall-clock time). The bench harness maps the
    /// `DBA_BACKEND` env knob here.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = BackendChoice::Kind(kind);
        self
    }

    /// Install a caller-constructed backend (e.g. `dba_engine::timed` with
    /// a scripted clock for deterministic measured tests, or a `Simulated`
    /// executor with a timer to collect calibration samples). Overrides
    /// [`backend`](SessionBuilder::backend).
    pub fn backend_boxed(mut self, backend: Box<dyn ExecutionBackend>) -> Self {
        self.backend = BackendChoice::Custom(backend);
        self
    }

    /// Attach an observability handle (`dba-obs`): the session clones it
    /// into the advisor stack, the plan cache and the what-if service at
    /// build time, so one recorder sees the whole tuning loop. Defaults to
    /// the noop handle (zero-cost, bit-identical trajectories).
    pub fn observe(mut self, obs: dba_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The benchmark supplying schema, data generators and query
    /// templates. Required.
    pub fn benchmark(mut self, benchmark: Benchmark) -> Self {
        self.benchmark = Some(benchmark);
        self
    }

    /// Reuse already-generated benchmark data instead of regenerating it.
    /// The session forks an index-free catalog over `base`'s shared
    /// [`BaseData`] — an `Arc` bump, never a data copy — so any number of
    /// sessions (including on other threads) run over identical data: how
    /// suites compare tuners fairly at zero marginal memory.
    pub fn shared_data(mut self, base: &Catalog) -> Self {
        self.shared_data = Some(Arc::clone(base.base()));
        self
    }

    /// Reuse already-built statistics instead of re-ANALYZE-ing the data.
    /// Statistics depend only on table contents, so a suite sharing data
    /// across sessions builds them once; each session forks a fresh
    /// overlay over the shared `Arc`'d ANALYZE output (histograms are
    /// never copied).
    pub fn shared_stats(mut self, stats: &StatsCatalog) -> Self {
        self.shared_stats = Some(stats.fork());
        self
    }

    /// The workload type (defaults to the paper's 25-round static
    /// workload).
    pub fn workload(mut self, kind: WorkloadKind) -> Self {
        self.workload = kind;
        self
    }

    /// Apply a data-change scenario: after each round's queries execute,
    /// the given per-table insert/update/delete rates mutate the live data,
    /// charging every materialised index its maintenance cost and letting
    /// statistics go stale. Defaults to no drift (the paper's read-only
    /// rounds); validated against the benchmark's tables at build time.
    pub fn data_drift(mut self, drift: DataDrift) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Pick a built-in tuner. Required unless building with
    /// [`build_with`](SessionBuilder::build_with).
    pub fn tuner(mut self, kind: TunerKind) -> Self {
        self.tuner = Some(kind);
        self
    }

    /// Experiment seed for data generation and query parameter binding
    /// (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Memory budget for secondary indexes, in bytes. Defaults to 1× the
    /// generated data size (the paper's setting). Must be non-zero.
    pub fn memory_budget_bytes(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Override the cost model (default: [`CostModel::paper_scale`]).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Run the tuner behind the `dba-safety` guardrail: shadow-baseline
    /// regret accounting plus veto/rollback/throttle enforcement (see
    /// [`SafetyConfig`]). A `memory_budget_bytes` of 0 in the config
    /// inherits the session's budget. The guarded advisor reports as
    /// `<tuner>+guard` and the run result carries a
    /// [`SafetyReport`](dba_safety::SafetyReport). Validated at build
    /// time; only [`build`](SessionBuilder::build) supports it (wrapping
    /// a [`build_with`](SessionBuilder::build_with) advisor would change
    /// the session's advisor type — wrap it yourself with
    /// [`SafeguardedAdvisor`] in that case).
    pub fn safeguard(mut self, config: SafetyConfig) -> Self {
        self.safeguard = Some(config);
        self
    }

    /// Override the MAB tuner's configuration (e.g. enable the batched
    /// per-window update with `streaming_fast_path` for a streaming run).
    /// Only consulted when the tuner is [`TunerKind::Mab`]; a
    /// `memory_budget_bytes` of 0 in the config inherits the session's
    /// budget, matching [`safeguard`](SessionBuilder::safeguard).
    pub fn mab_config(mut self, config: MabConfig) -> Self {
        self.mab_config = Some(config);
        self
    }

    /// Validate and build the substrate shared by both build paths.
    fn prepare(self) -> DbResult<PreparedSession> {
        let benchmark = self
            .benchmark
            .ok_or_else(|| DbError::Invalid("session builder: no benchmark configured".into()))?;
        if self.workload.rounds() == 0 {
            return Err(DbError::Invalid(
                "session builder: workload has zero rounds".into(),
            ));
        }
        if let WorkloadKind::Shifting { groups, .. } = self.workload {
            // More groups than templates would leave some groups without a
            // single template — the sequencer would emit empty rounds.
            let templates = benchmark.templates().len();
            if groups > templates {
                return Err(DbError::Invalid(format!(
                    "session builder: shifting workload with {groups} groups \
                     but only {templates} templates — some groups would be empty"
                )));
            }
        }
        if self.memory_budget_bytes == Some(0) {
            return Err(DbError::Invalid(
                "session builder: memory budget of 0 bytes leaves no room for any index".into(),
            ));
        }
        validate_cost_model(&self.cost)?;
        let catalog = match self.shared_data {
            Some(base) => Catalog::from_base(base),
            None => benchmark.build_catalog(self.seed)?,
        };
        if let Some(drift) = &self.drift {
            drift.validate(&catalog)?;
        }
        let stats = self
            .shared_stats
            .unwrap_or_else(|| StatsCatalog::build(&catalog));
        let budget = self
            .memory_budget_bytes
            .unwrap_or_else(|| catalog.database_bytes());
        if let Some(guard) = &self.safeguard {
            guard.validate()?;
        }
        Ok(PreparedSession {
            benchmark,
            catalog,
            stats,
            workload: self.workload,
            drift: self.drift,
            tuner: self.tuner,
            seed: self.seed,
            budget,
            cost: self.cost,
            safeguard: self.safeguard,
            mab_config: self.mab_config,
            obs: self.obs,
            backend: self.backend,
        })
    }

    /// Build a session over the configured [`TunerKind`].
    pub fn build(self) -> DbResult<TuningSession<Box<dyn Advisor>>> {
        let p = self.prepare()?;
        let kind = p
            .tuner
            .ok_or_else(|| DbError::Invalid("session builder: no tuner configured".into()))?;
        let mut advisor = match (kind, &p.mab_config) {
            (TunerKind::Mab, Some(config)) => {
                let mut config = *config;
                if config.memory_budget_bytes == 0 {
                    config.memory_budget_bytes = p.budget;
                }
                Box::new(MabTuner::new(&p.catalog, p.cost.clone(), config)) as Box<dyn Advisor>
            }
            _ => make_advisor(
                kind,
                p.benchmark.name,
                p.workload,
                &p.catalog,
                &p.cost,
                p.budget,
            ),
        };
        let mut ledger: Option<SafetyLedger> = None;
        if let Some(mut guard_config) = p.safeguard {
            if guard_config.memory_budget_bytes == 0 {
                guard_config.memory_budget_bytes = p.budget;
            }
            let guard = SafeguardedAdvisor::new(advisor, guard_config, p.cost.clone());
            ledger = Some(guard.ledger());
            advisor = Box::new(guard);
        }
        Ok(p.into_session_guarded(advisor, ledger))
    }

    /// Build a session over a custom advisor. The closure receives the
    /// session's catalog, cost model and memory budget — everything an
    /// advisor constructor needs — and keeps the concrete advisor type,
    /// so session accessors can reach tuner internals (e.g.
    /// `MabTuner::arm_count`).
    pub fn build_with<A, F>(self, make: F) -> DbResult<TuningSession<A>>
    where
        A: Advisor,
        F: FnOnce(&Catalog, &CostModel, u64) -> A,
    {
        let p = self.prepare()?;
        if p.safeguard.is_some() {
            return Err(DbError::Invalid(
                "session builder: safeguard() only composes with build(); wrap your advisor \
                 in dba_safety::SafeguardedAdvisor inside the build_with closure instead"
                    .into(),
            ));
        }
        let advisor = make(&p.catalog, &p.cost, p.budget);
        Ok(p.into_session(advisor))
    }
}

/// Every cost constant must be finite and non-negative, and `time_scale`
/// finite and positive: a NaN, infinite or negative constant would
/// otherwise yield an `Ok` session with NaN, infinite or negative totals.
fn validate_cost_model(cost: &CostModel) -> DbResult<()> {
    let constants = [
        ("seq_page_s", cost.seq_page_s),
        ("rand_page_s", cost.rand_page_s),
        ("cpu_row_s", cost.cpu_row_s),
        ("hash_build_row_s", cost.hash_build_row_s),
        ("hash_probe_row_s", cost.hash_probe_row_s),
        ("sort_cmp_s", cost.sort_cmp_s),
        ("btree_descent_s", cost.btree_descent_s),
        ("agg_row_s", cost.agg_row_s),
        ("write_page_s", cost.write_page_s),
    ];
    for (name, value) in constants {
        if !(value.is_finite() && value >= 0.0) {
            return Err(DbError::Invalid(format!(
                "session builder: cost model {name} = {value} must be finite and >= 0"
            )));
        }
    }
    if !(cost.time_scale.is_finite() && cost.time_scale > 0.0) {
        return Err(DbError::Invalid(format!(
            "session builder: cost model time_scale = {} must be finite and > 0",
            cost.time_scale
        )));
    }
    Ok(())
}

/// Validated substrate, ready to pair with an advisor.
struct PreparedSession {
    benchmark: Benchmark,
    catalog: Catalog,
    stats: StatsCatalog,
    workload: WorkloadKind,
    drift: Option<DataDrift>,
    tuner: Option<TunerKind>,
    seed: u64,
    budget: u64,
    cost: CostModel,
    safeguard: Option<SafetyConfig>,
    mab_config: Option<MabConfig>,
    obs: dba_obs::Obs,
    backend: BackendChoice,
}

impl PreparedSession {
    fn into_session<A: Advisor>(self, advisor: A) -> TuningSession<A> {
        self.into_session_guarded(advisor, None)
    }

    fn into_session_guarded<A: Advisor>(
        self,
        advisor: A,
        ledger: Option<SafetyLedger>,
    ) -> TuningSession<A> {
        TuningSession::from_parts(
            self.benchmark,
            self.catalog,
            self.stats,
            self.workload,
            self.seed,
            self.budget,
            self.backend.into_backend(&self.cost),
            self.cost,
            advisor,
            self.drift,
            ledger,
            self.obs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_workloads::ssb::ssb;

    /// `unwrap_err` needs `Debug` on the success type; sessions have no
    /// meaningful `Debug`, so extract the `Invalid` message by hand.
    fn invalid_msg<T>(result: DbResult<T>) -> String {
        match result {
            Err(DbError::Invalid(msg)) => msg,
            Err(other) => panic!("expected DbError::Invalid, got {other:?}"),
            Ok(_) => panic!("expected an error, got a session"),
        }
    }

    #[test]
    fn missing_benchmark_is_rejected() {
        let result = SessionBuilder::new().tuner(TunerKind::Mab).build();
        assert!(invalid_msg(result).contains("no benchmark"));
    }

    #[test]
    fn zero_round_workload_is_rejected() {
        let result = SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(TunerKind::Mab)
            .workload(WorkloadKind::Static { rounds: 0 })
            .build();
        assert!(invalid_msg(result).contains("zero rounds"));
    }

    #[test]
    fn zero_byte_budget_is_rejected() {
        let result = SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(TunerKind::Mab)
            .memory_budget_bytes(0)
            .build();
        assert!(invalid_msg(result).contains("budget of 0"));
    }

    #[test]
    fn missing_tuner_is_rejected() {
        let result = SessionBuilder::new().benchmark(ssb(0.01)).build();
        assert!(invalid_msg(result).contains("no tuner"));
    }

    #[test]
    fn shifting_with_more_groups_than_templates_is_rejected() {
        // SSB has 13 templates; 14 groups would leave one empty.
        let result = SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(TunerKind::Mab)
            .workload(WorkloadKind::Shifting {
                groups: 14,
                rounds_per_group: 2,
            })
            .build();
        assert!(invalid_msg(result).contains("groups"));
        // The boundary case (groups == templates) is fine.
        assert!(SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(TunerKind::NoIndex)
            .workload(WorkloadKind::Shifting {
                groups: 13,
                rounds_per_group: 1,
            })
            .build()
            .is_ok());
    }

    #[test]
    fn invalid_drift_is_rejected() {
        use dba_workloads::{DataDrift, DriftRates};
        let result = SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(TunerKind::NoIndex)
            .workload(WorkloadKind::Static { rounds: 1 })
            .data_drift(DataDrift::uniform(DriftRates::new(f64::NAN, 0.0, 0.0)))
            .build();
        assert!(invalid_msg(result).contains("drift"));
        let unknown_table = SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(TunerKind::NoIndex)
            .workload(WorkloadKind::Static { rounds: 1 })
            .data_drift(DataDrift::none().with_table("nope", DriftRates::new(0.1, 0.0, 0.0)))
            .build();
        assert!(unknown_table.is_err());
    }

    /// Each cost constant × {NaN, ∞, −1}, plus a zero `time_scale`, is a
    /// typed error naming the field, not a session with a broken total.
    #[test]
    fn invalid_cost_model_is_rejected() {
        type Field = fn(&mut CostModel) -> &mut f64;
        let fields: [(&str, Field); 10] = [
            ("seq_page_s", |c| &mut c.seq_page_s),
            ("rand_page_s", |c| &mut c.rand_page_s),
            ("cpu_row_s", |c| &mut c.cpu_row_s),
            ("hash_build_row_s", |c| &mut c.hash_build_row_s),
            ("hash_probe_row_s", |c| &mut c.hash_probe_row_s),
            ("sort_cmp_s", |c| &mut c.sort_cmp_s),
            ("btree_descent_s", |c| &mut c.btree_descent_s),
            ("agg_row_s", |c| &mut c.agg_row_s),
            ("write_page_s", |c| &mut c.write_page_s),
            ("time_scale", |c| &mut c.time_scale),
        ];
        let cases = fields
            .iter()
            .flat_map(|&(name, field)| {
                [f64::NAN, f64::INFINITY, -1.0].map(|value| (name, field, value))
            })
            .chain([("time_scale", fields[9].1, 0.0)]);
        for (name, field, value) in cases {
            let mut cost = CostModel::paper_scale();
            *field(&mut cost) = value;
            let result = SessionBuilder::new()
                .benchmark(ssb(0.01))
                .tuner(TunerKind::Mab)
                .workload(WorkloadKind::Static { rounds: 1 })
                .cost_model(cost)
                .build();
            let msg = invalid_msg(result);
            assert!(msg.contains(name), "{name} = {value}: {msg}");
        }
    }

    #[test]
    fn budget_defaults_to_database_size() {
        let session = SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(TunerKind::NoIndex)
            .workload(WorkloadKind::Static { rounds: 1 })
            .build()
            .unwrap();
        assert_eq!(
            session.memory_budget_bytes(),
            session.catalog().database_bytes()
        );
    }

    /// Zero-copy forking: sessions built over shared data hold the same
    /// `BaseData` and ANALYZE allocations as the suite's originals — the
    /// strong count moves, the data never does.
    #[test]
    fn shared_sessions_fork_without_deep_cloning() {
        use dba_optimizer::StatsCatalog;
        use std::sync::Arc;

        let bench = ssb(0.01);
        let base = bench.build_catalog(42).unwrap();
        let stats = StatsCatalog::build(&base);
        let data_refs = Arc::strong_count(base.base());
        let stats_refs = Arc::strong_count(stats.base());

        let build = || {
            SessionBuilder::new()
                .benchmark(bench.clone())
                .shared_data(&base)
                .shared_stats(&stats)
                .tuner(TunerKind::NoIndex)
                .workload(WorkloadKind::Static { rounds: 1 })
                .build()
                .unwrap()
        };
        let a = build();
        let b = build();

        for s in [&a, &b] {
            assert!(
                Arc::ptr_eq(s.catalog().base(), base.base()),
                "session must share the generated data allocation"
            );
            assert!(
                Arc::ptr_eq(s.stats().base(), stats.base()),
                "session must share the ANALYZE output allocation"
            );
        }
        assert_eq!(Arc::strong_count(base.base()), data_refs + 2);
        assert_eq!(Arc::strong_count(stats.base()), stats_refs + 2);
    }

    #[test]
    fn invalid_safety_config_is_rejected() {
        use dba_safety::SafetyConfig;
        let result = SessionBuilder::new()
            .benchmark(ssb(0.01))
            .tuner(TunerKind::Mab)
            .workload(WorkloadKind::Static { rounds: 1 })
            .safeguard(SafetyConfig {
                rollback_window: 0,
                ..SafetyConfig::default()
            })
            .build();
        assert!(invalid_msg(result).contains("rollback_window"));
    }

    #[test]
    fn safeguard_does_not_compose_with_build_with() {
        use dba_baselines::NoIndexAdvisor;
        use dba_safety::SafetyConfig;
        let result = SessionBuilder::new()
            .benchmark(ssb(0.01))
            .workload(WorkloadKind::Static { rounds: 1 })
            .safeguard(SafetyConfig::default())
            .build_with(|_, _, _| NoIndexAdvisor);
        assert!(invalid_msg(result).contains("safeguard"));
    }

    /// The guard inherits the session budget when the config leaves the
    /// budget at 0 — the live index footprint never exceeds it.
    #[test]
    fn safeguard_inherits_session_budget() {
        use dba_safety::SafetyConfig;
        let budget = 512 * 1024;
        let mut session = SessionBuilder::new()
            .benchmark(ssb(0.02))
            .tuner(TunerKind::Mab)
            .workload(WorkloadKind::Static { rounds: 4 })
            .memory_budget_bytes(budget)
            .safeguard(SafetyConfig::default())
            .seed(7)
            .build()
            .unwrap();
        session.run().unwrap();
        assert!(session.catalog().live_index_bytes() <= budget);
    }

    #[test]
    fn every_tuner_kind_constructs() {
        for kind in [
            TunerKind::NoIndex,
            TunerKind::PdTool,
            TunerKind::Mab,
            TunerKind::Ddqn { seed: 1 },
            TunerKind::DdqnSc { seed: 1 },
        ] {
            let session = SessionBuilder::new()
                .benchmark(ssb(0.01))
                .tuner(kind)
                .workload(WorkloadKind::Static { rounds: 1 })
                .build()
                .unwrap();
            assert_eq!(session.advisor().name(), kind.label());
        }
    }
}
