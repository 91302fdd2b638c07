//! Ablation study over the MAB design choices DESIGN.md calls out:
//!
//! * covering (payload-including) arms — §IV arm generation;
//! * exploration boost α — Eq. 1;
//! * shift-triggered forgetting — Algorithm 2;
//! * the two-part context (Part 2 derived features).
//!
//! Each variant runs the same shifting TPC-H workload through a
//! [`TuningSession`](dba_session::TuningSession); differences in total and
//! final-round execution time quantify each design choice's contribution.
//! Not a paper artefact — an extension experiment.

use dba_bench::env_backend_kind;
use dba_core::{ArmGenConfig, C2UcbConfig, MabConfig, MabTuner};
use dba_session::SessionBuilder;
use dba_workloads::{tpch::tpch, WorkloadKind};

/// Run one MAB variant; `config_for` receives the session's memory budget
/// (1× the data size) and returns the variant's configuration.
fn run_variant(label: &str, config_for: impl Fn(u64) -> MabConfig) {
    let mut session = SessionBuilder::new()
        .benchmark(tpch(1.0))
        .workload(WorkloadKind::Shifting {
            groups: 2,
            rounds_per_group: 6,
        })
        .seed(42)
        .backend(env_backend_kind())
        .build_with(|catalog, cost, budget| {
            MabTuner::new(catalog, cost.clone(), config_for(budget))
        })
        .expect("session");
    let result = session.run().expect("run");
    println!(
        "{:<22} total {:>9.1}s  (rec {:>6.1} + create {:>7.1} + exec {:>8.1})  final-round exec {:>7.1}s",
        label,
        result.total().secs(),
        result.total_recommendation().secs(),
        result.total_creation().secs(),
        result.total_execution().secs(),
        result.final_round_execution().secs(),
    );
}

fn main() {
    let base = |budget: u64| MabConfig {
        memory_budget_bytes: budget,
        ..MabConfig::default()
    };

    println!("MAB ablations — TPC-H shifting (2 groups x 6 rounds, sf 1):\n");
    run_variant("full (paper design)", base);

    run_variant("no covering arms", move |b| MabConfig {
        arm_gen: ArmGenConfig {
            include_covering: false,
            ..ArmGenConfig::default()
        },
        ..base(b)
    });

    run_variant("no exploration (α=0)", move |b| MabConfig {
        bandit: C2UcbConfig {
            alpha: 0.0,
            ..C2UcbConfig::default()
        },
        ..base(b)
    });

    run_variant("no forgetting", move |b| MabConfig {
        forget_on_shift: false,
        ..base(b)
    });

    run_variant("half memory budget", move |b| base(b / 2));

    run_variant("narrow arms (width 1)", move |b| MabConfig {
        arm_gen: ArmGenConfig {
            max_key_width: 1,
            ..ArmGenConfig::default()
        },
        ..base(b)
    });
}
