//! The execution seam: [`ExecutionBackend`] abstracts *how* a physical
//! [`Plan`] is run.
//!
//! The engine's [`Executor`] is the one operator implementation: it runs
//! every plan over the real column data and prices each operator through
//! the [`CostModel`] on the observed counts. Untimed ([`simulated`]), it
//! does only the work the price reads and replays the counts of a (query
//! instance, plan shape) pair it has already run over the same base data.
//! Built with an enabled [`BudgetTimer`] ([`timed`]), it runs every
//! operator in full on every call, times each and records an
//! [`OpSample`]. [`BackendKind`] only chooses which of the two times feeds
//! [`QueryExecution`]: `Simulated` (the price) or `Measured` (the clock).
//! A `Simulated` executor with a timer runs the untimed trajectory bit for
//! bit and leaves samples behind for calibration. The trait stays open so
//! callers can wrap an executor (e.g. to time it from outside).

use std::fmt;
use std::str::FromStr;

use dba_common::BudgetTimer;
use dba_storage::Catalog;

use crate::cost::CostModel;
use crate::exec::{Executor, QueryExecution};
use crate::plan::Plan;
use crate::query::Query;

/// Which execution backend a session runs on. Parsed from the
/// `DBA_BACKEND` env knob (`"simulated"` / `"measured"`) by the bench
/// harness and selectable via `SessionBuilder::backend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Executions report the cost-model price of each operator.
    #[default]
    Simulated,
    /// Executions report each operator's time on the executor's clock.
    Measured,
}

impl BackendKind {
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Simulated => "simulated",
            BackendKind::Measured => "measured",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "simulated" | "sim" => Ok(BackendKind::Simulated),
            "measured" | "real" => Ok(BackendKind::Measured),
            other => Err(format!(
                "unknown backend {other:?} (expected \"simulated\" or \"measured\")"
            )),
        }
    }
}

/// Physical operator classes a backend can sample for calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    SeqScan,
    IndexSeek,
    CoveringScan,
    InlProbe,
    HashJoin,
    Aggregate,
}

impl OpKind {
    pub const ALL: [OpKind; 6] = [
        OpKind::SeqScan,
        OpKind::IndexSeek,
        OpKind::CoveringScan,
        OpKind::InlProbe,
        OpKind::HashJoin,
        OpKind::Aggregate,
    ];

    pub fn label(self) -> &'static str {
        match self {
            OpKind::SeqScan => "seq_scan",
            OpKind::IndexSeek => "index_seek",
            OpKind::CoveringScan => "covering_scan",
            OpKind::InlProbe => "inl_probe",
            OpKind::HashJoin => "hash_join",
            OpKind::Aggregate => "aggregate",
        }
    }
}

/// One operator execution paired with the work it performed: the raw
/// material for fitting [`CostModel`] constants against measured time.
///
/// `sim_s` is what the cost model charges for the access and `measured_s`
/// what the executor's clock observed, so divergence is computable per
/// sample without re-running. The work counters describe what the operator
/// physically did; under drift they differ from the priced work by design:
/// the cost model prices the live (accounting-grown) heap, the operator
/// can only touch materialised rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSample {
    pub op_index: usize,
    /// Heap or leaf pages physically touched.
    pub pages: u64,
    /// Rows pushed through the operator's CPU loop.
    pub rows: u64,
    /// Index probes (root-to-leaf descents) performed.
    pub descents: u64,
    /// Hash-join inner input rows, which the cost model prices as the
    /// build, whichever side the executor builds its table on.
    pub build_rows: u64,
    /// Hash-join outer input tuples, which the cost model prices as the
    /// probe, whichever side the executor builds its table on.
    pub probe_rows: u64,
    /// Rows emitted.
    pub out_rows: u64,
    /// Simulated seconds the [`CostModel`] charges for this access.
    pub sim_s: f64,
    /// Seconds observed on the executor's timer.
    pub measured_s: f64,
}

impl OpSample {
    pub fn op(&self) -> OpKind {
        OpKind::ALL[self.op_index]
    }

    pub fn with_op(op: OpKind) -> Self {
        let op_index = OpKind::ALL
            .iter()
            .position(|&k| k == op)
            .expect("OpKind::ALL covers every variant");
        OpSample {
            op_index,
            ..OpSample::default()
        }
    }
}

/// A strategy for executing physical plans.
///
/// `execute` takes `&mut self` because a timed executor accumulates
/// calibration samples between calls and an untimed one memoises the
/// counts it has taken. Wrapping an untimed executor to time it from
/// outside times replays too: a repeated (query instance, plan shape) pair
/// costs a lookup and a pricing, not its operators.
pub trait ExecutionBackend: Send {
    /// Which backend family this is (drives reporting and env selection).
    fn kind(&self) -> BackendKind;

    /// Human-readable name for reports and span attributes.
    fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Execute `plan` for `query` against `catalog`, returning observed
    /// statistics. Logical fields must reflect the real data; `time`
    /// fields are backend-defined (priced vs measured).
    fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution;

    /// The cost model this backend was configured with (used for index
    /// build/maintenance pricing regardless of how queries are timed).
    fn cost_model(&self) -> &CostModel;

    /// Capability hook: whether `QueryExecution::total` carries measured
    /// wall-clock (true) or simulated pricing (false).
    fn measures_wall_clock(&self) -> bool {
        matches!(self.kind(), BackendKind::Measured)
    }

    /// Calibration hook: drain per-operator work/time samples accumulated
    /// since the last call. Backends without instrumentation return none.
    fn take_op_samples(&mut self) -> Vec<OpSample> {
        Vec::new()
    }
}

/// The `Simulated` backend: the untimed [`Executor`], boxed, which runs
/// only the work its price reads and replays repeated (query instance,
/// plan shape) pairs. The canonical construction path for callers outside
/// this crate.
pub fn simulated(cost: CostModel) -> Box<dyn ExecutionBackend> {
    Box::new(Executor::new(cost))
}

/// The [`Executor`] timing every operator on `timer`, boxed: with an
/// enabled timer it runs every operator in full on every call. `Measured`
/// on [`BudgetTimer::wall`] runs real timed execution, `Simulated` on any
/// timer reproduces [`simulated`] bit for bit while recording samples.
/// Panics if `kind` is `Measured` and `timer` is disabled.
pub fn timed(cost: CostModel, kind: BackendKind, timer: BudgetTimer) -> Box<dyn ExecutionBackend> {
    Box::new(Executor::timed(cost, kind, timer))
}

impl ExecutionBackend for Executor {
    fn kind(&self) -> BackendKind {
        Executor::kind(self)
    }

    fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        Executor::execute(self, catalog, query, plan)
    }

    fn cost_model(&self) -> &CostModel {
        Executor::cost_model(self)
    }

    fn take_op_samples(&mut self) -> Vec<OpSample> {
        Executor::take_op_samples(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_and_round_trips() {
        assert_eq!(
            "simulated".parse::<BackendKind>(),
            Ok(BackendKind::Simulated)
        );
        assert_eq!("SIM".parse::<BackendKind>(), Ok(BackendKind::Simulated));
        assert_eq!(
            " Measured ".parse::<BackendKind>(),
            Ok(BackendKind::Measured)
        );
        assert_eq!("real".parse::<BackendKind>(), Ok(BackendKind::Measured));
        assert!("postgres".parse::<BackendKind>().is_err());
        for kind in [BackendKind::Simulated, BackendKind::Measured] {
            assert_eq!(kind.label().parse::<BackendKind>(), Ok(kind));
        }
    }

    #[test]
    fn op_sample_round_trips_op_kind() {
        for op in OpKind::ALL {
            assert_eq!(OpSample::with_op(op).op(), op);
        }
    }

    #[test]
    fn executor_is_the_simulated_backend() {
        let mut exec = Executor::new(CostModel::unit_scale());
        let backend: &mut dyn ExecutionBackend = &mut exec;
        assert_eq!(backend.kind(), BackendKind::Simulated);
        assert_eq!(backend.name(), "simulated");
        assert!(!backend.measures_wall_clock());
        assert!(backend.take_op_samples().is_empty());
        assert!(backend.cost_model().time_scale > 0.0);
    }

    #[test]
    fn timed_factory_reports_its_kind() {
        let measured = timed(
            CostModel::unit_scale(),
            BackendKind::Measured,
            BudgetTimer::scripted(1e-6),
        );
        assert_eq!(measured.kind(), BackendKind::Measured);
        assert_eq!(measured.name(), "measured");
        assert!(measured.measures_wall_clock());
        let shadow = timed(
            CostModel::unit_scale(),
            BackendKind::Simulated,
            BudgetTimer::scripted(1e-6),
        );
        assert_eq!(shadow.kind(), BackendKind::Simulated);
        assert!(!shadow.measures_wall_clock());
    }

    #[test]
    fn boxed_backends_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Box<dyn ExecutionBackend>>();
    }
}
