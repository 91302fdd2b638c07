//! Cost-model calibration: fit per-operator constants against measured
//! wall-clock.
//!
//! The simulated [`CostModel`] charges seconds per unit of physical work
//! (page read, row filtered, descent, hash build/probe, aggregate row).
//! Each timed [`OpSample`] records exactly those work counters next to
//! the seconds observed on the executor's timer, so fitting the constants is
//! ordinary linear least squares: minimise `‖X·θ − y‖²` where a sample's
//! feature row `X_i` holds its counters in constant order and `y_i` its
//! measured seconds. [`fit`] solves the (ridge-damped) normal equations;
//! [`calibrate`] generates the samples on a seeded microbench workload
//! first and reports per-operator divergence before and after.
//!
//! Fitted constants live in real (measured) seconds, so the returned model
//! carries `time_scale = 1.0`; the paper-scale compensation factor is a
//! property of the simulation, not of the hardware being measured.

use dba_common::{BudgetTimer, ColumnId, QueryId, SimSeconds, TableId, TemplateId};
use dba_storage::{
    Catalog, ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema,
};

use crate::backend::{BackendKind, OpKind, OpSample};
use crate::cost::CostModel;
use crate::exec::Executor;
use crate::plan::{AccessMethod, JoinAlgo, JoinStep, Plan, TableAccess};
use crate::query::{JoinPred, Predicate, Query};

/// Map a sample to its feature row: work counters aligned with the fitted
/// constants `seq_page_s`, `cpu_row_s`, `btree_descent_s`,
/// `hash_build_row_s`, `hash_probe_row_s` and `agg_row_s`, in that order.
///
/// Only operators whose cost is fully expressible in the fitted constants
/// contribute useful rows — the microbench emits covering seeks and
/// covering-inner INL probes precisely so no random-heap-read term leaks
/// into the fit.
pub fn features(s: &OpSample) -> [f64; 6] {
    match s.op() {
        OpKind::SeqScan | OpKind::CoveringScan => {
            [s.pages as f64, s.rows as f64, 0.0, 0.0, 0.0, 0.0]
        }
        OpKind::IndexSeek | OpKind::InlProbe => [
            s.pages as f64,
            s.rows as f64,
            s.descents as f64,
            0.0,
            0.0,
            0.0,
        ],
        OpKind::HashJoin => [
            0.0,
            s.out_rows as f64,
            0.0,
            s.build_rows as f64,
            s.probe_rows as f64,
            0.0,
        ],
        OpKind::Aggregate => [0.0, 0.0, 0.0, 0.0, 0.0, s.rows as f64],
    }
}

/// Per-operator aggregate of a calibration run.
#[derive(Debug, Clone)]
pub struct OpReport {
    pub op: OpKind,
    pub samples: usize,
    /// Total measured seconds across the operator's samples.
    pub measured_s: f64,
    /// Total seconds the base cost model charged for the same accesses.
    pub sim_before_s: f64,
    /// Total seconds the fitted model predicts from the work counters.
    pub sim_after_s: f64,
}

impl OpReport {
    /// |simulated/measured − 1| with the base model.
    pub fn divergence_before(&self) -> f64 {
        divergence(self.sim_before_s, self.measured_s)
    }

    /// |predicted/measured − 1| with the fitted model.
    pub fn divergence_after(&self) -> f64 {
        divergence(self.sim_after_s, self.measured_s)
    }
}

fn divergence(sim: f64, measured: f64) -> f64 {
    (sim / measured.max(1e-12) - 1.0).abs()
}

/// Outcome of a calibration fit.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Base model with the six fitted constants replaced and
    /// `time_scale = 1.0` (fitted constants are in measured seconds).
    pub model: CostModel,
    pub ops: Vec<OpReport>,
}

impl CalibrationReport {
    pub fn max_divergence_before(&self) -> f64 {
        self.ops
            .iter()
            .map(OpReport::divergence_before)
            .fold(0.0, f64::max)
    }

    pub fn max_divergence_after(&self) -> f64 {
        self.ops
            .iter()
            .map(OpReport::divergence_after)
            .fold(0.0, f64::max)
    }
}

/// Fit the six operator constants to `samples` by ridge-damped least
/// squares. `base` supplies the constants not being fitted (random page,
/// sort, write) and the before-fit predictions in the report.
///
/// Panics on an empty sample set, and on a sample whose `measured_s` is
/// not a finite, non-negative number of seconds: the samples come from the
/// executor's own timer, so such a sample is a bug, and it would otherwise
/// drive every fitted constant silently to the floor.
pub fn fit(samples: &[OpSample], base: &CostModel) -> CalibrationReport {
    assert!(!samples.is_empty(), "calibration requires samples");
    assert!(
        samples
            .iter()
            .all(|s| s.measured_s.is_finite() && s.measured_s >= 0.0),
        "calibration samples must measure finite, non-negative seconds"
    );

    // Normal equations: XᵀX θ = Xᵀy.
    let mut xtx = [[0.0f64; 6]; 6];
    let mut xty = [0.0f64; 6];
    for s in samples {
        let f = features(s);
        for i in 0..6 {
            for j in 0..6 {
                xtx[i][j] += f[i] * f[j];
            }
            xty[i] += f[i] * s.measured_s;
        }
    }
    // Scale-free ridge: counters span orders of magnitude (pages ~1e2,
    // rows ~1e5), so damp each diagonal proportionally to itself.
    for (i, row) in xtx.iter_mut().enumerate() {
        row[i] += row[i] * 1e-9 + 1e-30;
    }
    let theta = solve6(xtx, xty);

    let mut model = base.clone();
    model.seq_page_s = theta[0].max(1e-15);
    model.cpu_row_s = theta[1].max(1e-15);
    model.btree_descent_s = theta[2].max(1e-15);
    model.hash_build_row_s = theta[3].max(1e-15);
    model.hash_probe_row_s = theta[4].max(1e-15);
    model.agg_row_s = theta[5].max(1e-15);
    model.time_scale = 1.0;
    let fitted = [
        model.seq_page_s,
        model.cpu_row_s,
        model.btree_descent_s,
        model.hash_build_row_s,
        model.hash_probe_row_s,
        model.agg_row_s,
    ];

    let mut ops = Vec::new();
    for op in OpKind::ALL {
        let of: Vec<&OpSample> = samples.iter().filter(|s| s.op() == op).collect();
        if of.is_empty() {
            continue;
        }
        let measured_s = of.iter().map(|s| s.measured_s).sum();
        let sim_before_s = of.iter().map(|s| s.sim_s).sum();
        let sim_after_s = of
            .iter()
            .map(|s| {
                let f = features(s);
                f.iter().zip(&fitted).map(|(a, b)| a * b).sum::<f64>()
            })
            .sum();
        ops.push(OpReport {
            op,
            samples: of.len(),
            measured_s,
            sim_before_s,
            sim_after_s,
        });
    }

    CalibrationReport { model, ops }
}

/// Gaussian elimination with partial pivoting for the 6×6 normal system.
fn solve6(mut a: [[f64; 6]; 6], mut b: [f64; 6]) -> [f64; 6] {
    for col in 0..6 {
        let pivot = (col..6)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        if p.abs() < 1e-300 {
            continue; // degenerate column: leave θ_col at 0
        }
        let pivot_row = a[col];
        for row in (col + 1)..6 {
            let m = a[row][col] / p;
            if m == 0.0 {
                continue;
            }
            for (entry, pivot) in a[row].iter_mut().zip(pivot_row.iter()).skip(col) {
                *entry -= m * pivot;
            }
            b[row] -= m * b[col];
        }
    }
    let mut x = [0.0f64; 6];
    for col in (0..6).rev() {
        let mut acc = b[col];
        for k in (col + 1)..6 {
            acc -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-300 {
            0.0
        } else {
            acc / a[col][col]
        };
    }
    x
}

/// Run the seeded microbench workload through a fresh `Measured`
/// [`Executor`] timed on `timer` and return its operator samples.
///
/// Three tables with deliberately different row widths (padding decorrelates
/// pages from rows), covering indexes throughout (no random-heap term — see
/// [`features`]), and a spread of selectivities per operator so the design
/// matrix is well conditioned.
pub fn microbench_samples(cost: &CostModel, timer: BudgetTimer, seed: u64) -> Vec<OpSample> {
    let wide = TableSchema::new(
        "cal_wide",
        vec![
            ColumnSpec::new("w_key", ColumnType::Int, Distribution::Sequential),
            ColumnSpec::new(
                "w_attr",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99 },
            ),
        ],
    )
    .with_pad(240);
    let narrow = TableSchema::new(
        "cal_narrow",
        vec![
            ColumnSpec::new("n_key", ColumnType::Int, Distribution::Sequential),
            ColumnSpec::new(
                "n_val",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 9999 },
            ),
            ColumnSpec::new(
                "n_dim",
                ColumnType::Int,
                Distribution::FkUniform { parent_rows: 2000 },
            ),
        ],
    );
    let dim = TableSchema::new(
        "cal_dim",
        vec![
            ColumnSpec::new("d_key", ColumnType::Int, Distribution::Sequential),
            ColumnSpec::new(
                "d_attr",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 19 },
            ),
        ],
    )
    .with_pad(60);

    let mut cat = Catalog::new(vec![
        TableBuilder::new(wide, 8_000).build(TableId(0), seed),
        TableBuilder::new(narrow, 40_000).build(TableId(1), seed),
        TableBuilder::new(dim, 2_000).build(TableId(2), seed),
    ]);
    // Covering throughout: every column a query touches is in the leaves.
    let ix_val = cat
        .create_index(IndexDef::new(TableId(1), vec![1], vec![0, 2]))
        .unwrap();
    let ix_fk = cat
        .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
        .unwrap();

    let mut backend = Executor::timed(cost.clone(), BackendKind::Measured, timer);
    let col = ColumnId::new;
    let mut qid = 0u64;
    let mut run = |tables: Vec<TableId>,
                   preds: Vec<Predicate>,
                   joins: Vec<JoinPred>,
                   payload: Vec<ColumnId>,
                   aggregated: bool,
                   plan: Plan,
                   backend: &mut Executor| {
        let q = Query {
            id: QueryId(qid),
            template: TemplateId(0),
            tables,
            predicates: preds,
            joins,
            payload,
            aggregated,
        };
        qid += 1;
        backend.execute(&cat, &q, &plan);
    };
    let scan = |t: TableId| TableAccess {
        table: t,
        method: AccessMethod::FullScan,
        est_rows: 0.0,
    };
    let single = |driver: TableAccess, aggregated: bool| Plan {
        driver,
        joins: vec![],
        aggregated,
        est_cost: SimSeconds::ZERO,
    };

    // SeqScan: every table, several selectivities (rows vs pages variation).
    for (t, ord, his) in [
        (0u32, 1u16, [9i64, 49, 99]),
        (1, 1, [999, 4999, 9999]),
        (2, 1, [3, 9, 19]),
    ] {
        for hi in his {
            run(
                vec![TableId(t)],
                vec![Predicate::range(col(TableId(t), ord), 0, hi)],
                vec![],
                vec![col(TableId(t), 0)],
                false,
                single(scan(TableId(t)), false),
                &mut backend,
            );
        }
    }

    // CoveringScan + covering IndexSeek at a spread of selectivities.
    for (lo, hi) in [(0, 99), (0, 999), (2000, 6000), (0, 9999), (5000, 5001)] {
        let preds = vec![Predicate::range(col(TableId(1), 1), lo, hi)];
        run(
            vec![TableId(1)],
            preds.clone(),
            vec![],
            vec![col(TableId(1), 0)],
            false,
            single(
                TableAccess {
                    table: TableId(1),
                    method: AccessMethod::CoveringScan { index: ix_val.id },
                    est_rows: 0.0,
                },
                false,
            ),
            &mut backend,
        );
        run(
            vec![TableId(1)],
            preds,
            vec![],
            vec![col(TableId(1), 0)],
            false,
            single(
                TableAccess {
                    table: TableId(1),
                    method: AccessMethod::IndexSeek {
                        index: ix_val.id,
                        covering: true,
                    },
                    est_rows: 0.0,
                },
                false,
            ),
            &mut backend,
        );
    }

    // HashJoin + Aggregate: dim ⋈ narrow at several dim selectivities.
    for hi in [2i64, 7, 19] {
        run(
            vec![TableId(2), TableId(1)],
            vec![Predicate::range(col(TableId(2), 1), 0, hi)],
            vec![JoinPred::new(col(TableId(2), 0), col(TableId(1), 2))],
            vec![col(TableId(1), 0)],
            true,
            Plan {
                driver: scan(TableId(2)),
                joins: vec![JoinStep {
                    access: scan(TableId(1)),
                    algo: JoinAlgo::Hash,
                    join: JoinPred::new(col(TableId(2), 0), col(TableId(1), 2)),
                    est_rows_out: 0.0,
                }],
                aggregated: true,
                est_cost: SimSeconds::ZERO,
            },
            &mut backend,
        );
    }

    // InlProbe (covering inner) at several outer sizes.
    for hi in [0i64, 4, 19] {
        run(
            vec![TableId(2), TableId(1)],
            vec![Predicate::range(col(TableId(2), 1), 0, hi)],
            vec![JoinPred::new(col(TableId(2), 0), col(TableId(1), 2))],
            vec![col(TableId(1), 0)],
            false,
            Plan {
                driver: scan(TableId(2)),
                joins: vec![JoinStep {
                    access: TableAccess {
                        table: TableId(1),
                        method: AccessMethod::IndexSeek {
                            index: ix_fk.id,
                            covering: true,
                        },
                        est_rows: 0.0,
                    },
                    algo: JoinAlgo::IndexNestedLoop,
                    join: JoinPred::new(col(TableId(2), 0), col(TableId(1), 2)),
                    est_rows_out: 0.0,
                }],
                aggregated: false,
                est_cost: SimSeconds::ZERO,
            },
            &mut backend,
        );
    }

    backend.take_op_samples()
}

/// Full calibration workflow: microbench → fit → report.
pub fn calibrate(base: &CostModel, timer: BudgetTimer, seed: u64) -> CalibrationReport {
    fit(&microbench_samples(base, timer, seed), base)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Constants being fitted, in feature order.
    const FITTED: [&str; 6] = [
        "seq_page_s",
        "cpu_row_s",
        "btree_descent_s",
        "hash_build_row_s",
        "hash_probe_row_s",
        "agg_row_s",
    ];

    /// Synthetic timings drawn *from* unit-scale constants: the fit must
    /// recover them (near-)exactly and drive divergence to ~0.
    #[test]
    fn fit_recovers_unit_scale_constants_from_synthetic_timings() {
        let base = CostModel::paper_scale();
        let unit = CostModel::unit_scale();
        let truth = [
            unit.seq_page_s,
            unit.cpu_row_s,
            unit.btree_descent_s,
            unit.hash_build_row_s,
            unit.hash_probe_row_s,
            unit.agg_row_s,
        ];
        let mut samples = microbench_samples(&base, BudgetTimer::scripted(1e-7), 17);
        for s in &mut samples {
            let f = features(s);
            s.measured_s = f.iter().zip(&truth).map(|(a, b)| a * b).sum();
        }
        let report = fit(&samples, &base);
        let fitted = [
            report.model.seq_page_s,
            report.model.cpu_row_s,
            report.model.btree_descent_s,
            report.model.hash_build_row_s,
            report.model.hash_probe_row_s,
            report.model.agg_row_s,
        ];
        for (name, (got, want)) in FITTED.iter().zip(fitted.iter().zip(&truth)) {
            assert!(
                (got / want - 1.0).abs() < 0.01,
                "{name}: fitted {got} vs truth {want}"
            );
        }
        assert_eq!(report.model.time_scale, 1.0);
        assert!(report.max_divergence_after() < 1e-3);
        assert!(report.max_divergence_after() < report.max_divergence_before());
    }

    #[test]
    fn microbench_covers_every_operator_deterministically() {
        let samples =
            microbench_samples(&CostModel::paper_scale(), BudgetTimer::scripted(1e-7), 17);
        for op in OpKind::ALL {
            assert!(
                samples.iter().any(|s| s.op() == op),
                "no {op:?} samples in the microbench"
            );
        }
        // Scripted clock ⇒ the whole sample set is reproducible bit-exactly.
        let again = microbench_samples(&CostModel::paper_scale(), BudgetTimer::scripted(1e-7), 17);
        assert_eq!(samples.len(), again.len());
        for (a, b) in samples.iter().zip(&again) {
            assert_eq!(a.op(), b.op());
            assert_eq!(a.measured_s.to_bits(), b.measured_s.to_bits());
            assert_eq!(a.sim_s.to_bits(), b.sim_s.to_bits());
            assert_eq!((a.pages, a.rows, a.descents), (b.pages, b.rows, b.descents));
        }
    }

    #[test]
    fn calibrate_reduces_divergence_on_scripted_clock() {
        let report = calibrate(&CostModel::paper_scale(), BudgetTimer::scripted(1e-7), 23);
        assert!(
            report.max_divergence_before() > 1.0,
            "paper-scale constants are nowhere near scripted-clock seconds"
        );
        assert!(
            report.max_divergence_after() < report.max_divergence_before(),
            "fit must reduce max divergence: after {} vs before {}",
            report.max_divergence_after(),
            report.max_divergence_before()
        );
    }

    /// Fit the scripted microbench samples after setting one hash-join
    /// sample's measured seconds to `measured_s`.
    fn fit_with_hash_join_measuring(measured_s: f64) {
        let mut samples =
            microbench_samples(&CostModel::paper_scale(), BudgetTimer::scripted(1e-7), 17);
        let join = samples
            .iter_mut()
            .find(|s| s.op() == OpKind::HashJoin)
            .expect("the microbench emits hash-join samples");
        join.measured_s = measured_s;
        fit(&samples, &CostModel::paper_scale());
    }

    #[test]
    #[should_panic(expected = "finite, non-negative seconds")]
    fn fit_rejects_an_infinite_sample() {
        fit_with_hash_join_measuring(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite, non-negative seconds")]
    fn fit_rejects_a_nan_sample() {
        fit_with_hash_join_measuring(f64::NAN);
    }

    #[test]
    fn solve6_inverts_a_known_system() {
        // Diagonal-dominant system with known solution.
        let mut a = [[0.0; 6]; 6];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = if i == j { 4.0 } else { 0.5 };
            }
        }
        let truth = [1.0, -2.0, 3.0, 0.25, -0.5, 2.0];
        let mut b = [0.0; 6];
        for i in 0..6 {
            b[i] = (0..6).map(|j| a[i][j] * truth[j]).sum();
        }
        let x = solve6(a, b);
        for (got, want) in x.iter().zip(&truth) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
