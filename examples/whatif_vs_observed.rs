//! The paper's premise in one example: what-if estimates vs observed
//! execution under skew and correlation.
//!
//! Builds a zipf-skewed fact table, asks the optimiser (what-if) how much
//! an index would help a hot-value query, then materialises the index and
//! *measures* — showing the estimate/actual divergence that breaks
//! estimate-driven advisors (§I, §V-B1).
//!
//! This example deliberately works *below* the `TuningSession` layer: it
//! probes a single query against the optimiser and executor directly. See
//! `quickstart.rs` for the session-driven tuning loop.
//!
//! Run with: `cargo run --release --example whatif_vs_observed`

use dba_bandits::prelude::*;
use dba_common::{ColumnId, QueryId, TableId, TemplateId};
use dba_engine::Predicate;
use dba_storage::{ColumnSpec, ColumnType, Distribution, TableSchema};

fn main() {
    // A fact table whose foreign key is zipf-skewed (hot parents).
    let schema = TableSchema::new(
        "orders",
        vec![
            ColumnSpec::new("o_orderkey", ColumnType::Int, Distribution::Sequential),
            ColumnSpec::new(
                "o_custkey",
                ColumnType::Int,
                Distribution::FkZipf {
                    parent_rows: 10_000,
                    s: 2.0,
                },
            ),
            ColumnSpec::new(
                "o_totalprice",
                ColumnType::Decimal { scale: 2 },
                Distribution::Uniform { lo: 0, hi: 100_000 },
            ),
        ],
    )
    .with_pad(70);
    let table = dba_storage::TableBuilder::new(schema, 200_000).build(TableId(0), 1);
    let mut catalog = Catalog::new(vec![table]);
    let stats = StatsCatalog::build(&catalog);
    let cost = CostModel::paper_scale();

    let query_for = |custkey: i64| Query {
        id: QueryId(0),
        template: TemplateId(0),
        tables: vec![TableId(0)],
        predicates: vec![Predicate::eq(ColumnId::new(TableId(0), 1), custkey)],
        joins: vec![],
        payload: vec![ColumnId::new(TableId(0), 2)],
        aggregated: true,
    };
    let index = IndexDef::new(TableId(0), vec![1], vec![]);

    println!("orders: 200k rows, o_custkey ~ zipf(2) over 10k customers\n");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>14}",
        "custkey", "actual rows", "whatif est(s)", "observed (s)", "est error"
    );

    for custkey in [0i64, 1, 5, 777, 7777] {
        let q = query_for(custkey);
        // What-if: estimated cost with the hypothetical index.
        let estimate = WhatIfService::new(cost.clone()).cost_query(
            &catalog,
            &stats,
            &q,
            std::slice::from_ref(&index),
        );

        // Reality: materialise, plan, execute, measure.
        let meta = catalog.create_index(index.clone()).expect("create");
        let observed = {
            let ctx = PlannerContext::from_catalog(&catalog, &stats, &cost);
            let plan = Planner::new(&ctx).plan(&q);
            simulated(cost.clone()).execute(&catalog, &q, &plan)
        };
        catalog.drop_index(meta.id).expect("drop");

        let actual_rows = catalog
            .table(TableId(0))
            .column(1)
            .count_in_range(custkey, custkey);
        println!(
            "{:>10} {:>12} {:>14.3} {:>14.3} {:>13.1}x",
            custkey,
            actual_rows,
            estimate.est_cost.secs(),
            observed.total.secs(),
            observed.total.secs() / estimate.est_cost.secs().max(1e-9),
        );
    }

    println!("\nHot customers (low keys) are where estimates and observation");
    println!("diverge — the bandit tunes on the right-hand column, the");
    println!("estimate-driven advisor on the left.");
}
