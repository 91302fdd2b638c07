//! The execution seam: [`ExecutionBackend`] abstracts *how* a physical
//! [`Plan`] is run.
//!
//! The engine's [`Executor`] is the one operator implementation: it runs
//! every plan over the real column data and prices each operator through
//! the [`CostModel`] on the observed counts, and the price is the time
//! every execution reports. It does only the work its price reads and
//! replays the counts of a (query instance, plan shape) pair it has
//! already run over the same base data. Built with an enabled
//! [`BudgetTimer`] ([`timed`]), it runs that same program and also times
//! each operator it runs into an [`OpSample`]; the timer only observes, so
//! a timed executor runs the untimed trajectory bit for bit, and a replay
//! leaves no sample. The trait stays open so callers can wrap an executor
//! (e.g. to time it from outside).

use dba_common::BudgetTimer;
use dba_storage::Catalog;

use crate::cost::CostModel;
use crate::exec::{Executor, QueryExecution};
use crate::plan::Plan;
use crate::query::Query;

/// The backend family [`ExecutionBackend::kind`] names. Every execution
/// reports the cost-model price, so `Simulated` is the only family; the
/// type stays only for wrappers that still forward `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Executions report the cost-model price of each operator.
    #[default]
    Simulated,
}

impl BackendKind {
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Simulated => "simulated",
        }
    }
}

/// Physical operator classes a timed executor samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    SeqScan,
    IndexSeek,
    CoveringScan,
    InlProbe,
    HashJoin,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::SeqScan,
        OpKind::IndexSeek,
        OpKind::CoveringScan,
        OpKind::InlProbe,
        OpKind::HashJoin,
    ];

    pub fn label(self) -> &'static str {
        match self {
            OpKind::SeqScan => "seq_scan",
            OpKind::IndexSeek => "index_seek",
            OpKind::CoveringScan => "covering_scan",
            OpKind::InlProbe => "inl_probe",
            OpKind::HashJoin => "hash_join",
        }
    }
}

/// One operator execution paired with the work it performed, its price
/// and the time its timer observed.
///
/// `sim_s` is what the cost model charges for the operator and
/// `measured_s` what the executor's clock observed, so divergence is
/// computable per sample without re-running. The work counters are the
/// counts the price reads, over join tuples and the materialised rows; a
/// join does its physical work once per weighted key tuple of its input,
/// so a join's counters can exceed what it touched by far. Under drift the
/// counters differ from the priced sizes by design: the cost model prices
/// the live (accounting-grown) heap, the operator can only touch
/// materialised rows. A hash join's sample also holds the work and price of
/// the inner access it runs, unless a kept join table served it.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub op: OpKind,
    /// Heap or leaf pages read: an index-nested-loop step's, summed over
    /// its outer tuples.
    pub pages: u64,
    /// Rows filtered, or leaf entries matched: an index-nested-loop
    /// step's, summed over its outer tuples.
    pub rows: u64,
    /// Index probes (root-to-leaf descents), one per outer tuple for an
    /// index-nested-loop step.
    pub descents: u64,
    /// Hash-join inner input rows, which the cost model prices as the
    /// build, whichever side the executor builds its table on.
    pub build_rows: u64,
    /// Hash-join outer input tuples, which the cost model prices as the
    /// probe, whichever side the executor builds its table on.
    pub probe_rows: u64,
    /// Rows, or join tuples, emitted.
    pub out_rows: u64,
    /// Simulated seconds the [`CostModel`] charges for this access.
    pub sim_s: f64,
    /// Seconds observed on the executor's timer.
    pub measured_s: f64,
}

impl OpSample {
    /// A sample of `op` with every counter and time at zero.
    pub fn with_op(op: OpKind) -> Self {
        OpSample {
            op,
            pages: 0,
            rows: 0,
            descents: 0,
            build_rows: 0,
            probe_rows: 0,
            out_rows: 0,
            sim_s: 0.0,
            measured_s: 0.0,
        }
    }
}

/// A strategy for executing physical plans.
///
/// `execute` takes `&mut self` because the executor memoises the counts it
/// has taken and a timed one accumulates samples between calls. Wrapping
/// an executor to time it from outside times replays too: a repeated
/// (query instance, plan shape) pair costs a lookup and a pricing, not its
/// operators.
pub trait ExecutionBackend: Send {
    /// The backend family, always `Simulated`. Kept only for wrappers
    /// that still forward it.
    fn kind(&self) -> BackendKind {
        BackendKind::Simulated
    }

    /// Human-readable name for reports and span attributes.
    fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Execute `plan` for `query` against `catalog`, returning observed
    /// statistics: logical fields reflect the real data, and times are
    /// the cost model's prices.
    fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution;

    /// The cost model this backend was configured with (used for index
    /// build/maintenance pricing as well as for queries).
    fn cost_model(&self) -> &CostModel;

    /// Whether `QueryExecution::total` carries wall-clock time: never, as
    /// every execution reports the price. Kept only for wrappers that
    /// still forward it.
    fn measures_wall_clock(&self) -> bool {
        false
    }

    /// Drain the per-operator samples accumulated since the last call.
    /// Backends without instrumentation return none.
    fn take_op_samples(&mut self) -> Vec<OpSample> {
        Vec::new()
    }
}

/// The untimed [`Executor`], boxed, which runs only the work its price
/// reads and replays repeated (query instance, plan shape) pairs. The
/// canonical construction path for callers outside this crate.
pub fn simulated(cost: CostModel) -> Box<dyn ExecutionBackend> {
    Box::new(Executor::new(cost))
}

/// The [`Executor`] timing each operator it runs on `timer`, boxed: it
/// runs what [`simulated`] runs, records an [`OpSample`] per operator run,
/// and reports the same prices bit for bit.
pub fn timed(cost: CostModel, timer: BudgetTimer) -> Box<dyn ExecutionBackend> {
    Box::new(Executor::timed(cost, timer))
}

impl ExecutionBackend for Executor {
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
    fn op_sample_round_trips_op_kind() {
        for op in OpKind::ALL {
            let s = OpSample::with_op(op);
            assert_eq!(s.op, op);
            assert_eq!([s.pages, s.rows, s.descents], [0; 3]);
            assert_eq!([s.build_rows, s.probe_rows, s.out_rows], [0; 3]);
            assert_eq!([s.sim_s, s.measured_s], [0.0; 2]);
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
        let timed = timed(CostModel::unit_scale(), BudgetTimer::scripted(1e-6));
        assert_eq!(timed.kind(), BackendKind::Simulated);
        assert_eq!(timed.name(), "simulated");
        assert!(!timed.measures_wall_clock());
    }

    #[test]
    fn boxed_backends_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Box<dyn ExecutionBackend>>();
    }
}
