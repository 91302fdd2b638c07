//! Benchmark and template machinery.
//!
//! A [`Benchmark`] owns table schemas with per-scale-factor row counts and
//! a family of [`TemplateSpec`]s. Instantiating a template binds its
//! parameters with a deterministic per-(template, round) RNG stream, so
//! each round sees a fresh instance of the template — "each group of
//! templatized queries is invoked over rounds, producing different query
//! instances" (§V-A).

use dba_common::{rng::rng_for, ColumnRef, DbError, DbResult, QueryId, TableId, TemplateId};
use dba_engine::{JoinPred, Predicate, Query};
use dba_storage::{Catalog, TableBuilder, TableSchema};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Row-count compensation: benchmarks generate 1/100th of the paper's rows
/// per scale factor (the cost model's `PAPER_TIME_SCALE` compensates).
pub const ROW_SCALE_DOWN: u64 = 100;

/// Row count of a table as a function of scale factor.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum RowCount {
    /// `base × sf / ROW_SCALE_DOWN` rows (most TPC tables).
    PerSf(u64),
    /// A fixed count regardless of scale factor (tiny dimensions like
    /// `nation`, or the fixed-size IMDb dataset), already scaled down.
    Fixed(u64),
}

impl RowCount {
    pub fn rows(&self, sf: f64) -> usize {
        match *self {
            RowCount::PerSf(base) => {
                (((base as f64) * sf / ROW_SCALE_DOWN as f64).round() as usize).max(8)
            }
            RowCount::Fixed(rows) => rows as usize,
        }
    }
}

/// How a template parameter is drawn at instantiation time.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum ParamGen {
    /// Equality with a uniform value from `[lo, hi]`.
    Eq { lo: i64, hi: i64 },
    /// Equality with a zipf-drawn rank over `[0, n)`: hot values are
    /// queried more often (workload locality matches data skew).
    EqZipf { n: u64, s: f64 },
    /// Range of `width` values starting uniformly within `[lo, hi−width]`.
    Range { lo: i64, hi: i64, width: i64 },
    /// Fixed equality value.
    FixedEq(i64),
    /// Fixed inclusive range.
    FixedRange(i64, i64),
}

impl ParamGen {
    fn draw(&self, rng: &mut StdRng) -> (i64, i64) {
        match *self {
            ParamGen::Eq { lo, hi } => {
                let v = rng.gen_range(lo..=hi);
                (v, v)
            }
            ParamGen::EqZipf { n, s } => {
                let sampler = dba_storage::gen::ZipfSampler::new(n, s);
                let v = sampler.sample(rng) as i64;
                (v, v)
            }
            ParamGen::Range { lo, hi, width } => {
                let max_start = (hi - width).max(lo);
                let start = rng.gen_range(lo..=max_start);
                (start, start + width)
            }
            ParamGen::FixedEq(v) => (v, v),
            ParamGen::FixedRange(lo, hi) => (lo, hi),
        }
    }
}

/// A parameterised query template.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TemplateSpec {
    pub id: TemplateId,
    pub preds: Vec<(ColumnRef, ParamGen)>,
    pub joins: Vec<(ColumnRef, ColumnRef)>,
    pub payload: Vec<ColumnRef>,
    pub aggregated: bool,
}

impl TemplateSpec {
    /// Bind parameters for `round` and intern column references against the
    /// catalog, producing an executable [`Query`].
    pub fn instantiate(
        &self,
        catalog: &Catalog,
        qid: QueryId,
        seed: u64,
        round: u64,
    ) -> DbResult<Query> {
        let mut rng = rng_for(seed, "params", ((self.id.raw() as u64) << 24) ^ round);
        let mut tables: Vec<TableId> = Vec::new();
        let note_table = |t: TableId, tables: &mut Vec<TableId>| {
            if !tables.contains(&t) {
                tables.push(t);
            }
        };

        let mut predicates = Vec::with_capacity(self.preds.len());
        for (cref, gen) in &self.preds {
            let col = resolve(catalog, cref)?;
            note_table(col.table, &mut tables);
            let (lo, hi) = gen.draw(&mut rng);
            predicates.push(Predicate::range(col, lo, hi));
        }

        let mut joins = Vec::with_capacity(self.joins.len());
        for (l, r) in &self.joins {
            let lc = resolve(catalog, l)?;
            let rc = resolve(catalog, r)?;
            note_table(lc.table, &mut tables);
            note_table(rc.table, &mut tables);
            joins.push(JoinPred::new(lc, rc));
        }

        let mut payload = Vec::with_capacity(self.payload.len());
        for p in &self.payload {
            let col = resolve(catalog, p)?;
            note_table(col.table, &mut tables);
            payload.push(col);
        }

        Ok(Query {
            id: qid,
            template: self.id,
            tables,
            predicates,
            joins,
            payload,
            aggregated: self.aggregated,
        })
    }
}

fn resolve(catalog: &Catalog, cref: &ColumnRef) -> DbResult<dba_common::ColumnId> {
    let table = catalog.table_by_name(&cref.table)?;
    let (ordinal, _) =
        table
            .column_by_name(&cref.column)
            .ok_or_else(|| DbError::UnknownColumn {
                table: cref.table.clone(),
                column: cref.column.clone(),
            })?;
    Ok(dba_common::ColumnId::new(table.id(), ordinal))
}

/// A complete benchmark at a concrete scale factor: schema (with resolved
/// row counts — foreign-key domains depend on parent sizes) + templates.
#[derive(Debug, Clone)]
pub struct Benchmark {
    pub name: &'static str,
    /// Scale factor this instance was constructed for.
    pub scale_factor: f64,
    tables: Vec<(TableSchema, usize)>,
    templates: Vec<TemplateSpec>,
}

impl Benchmark {
    pub fn new(
        name: &'static str,
        scale_factor: f64,
        tables: Vec<(TableSchema, usize)>,
        templates: Vec<TemplateSpec>,
    ) -> Self {
        Benchmark {
            name,
            scale_factor,
            tables,
            templates,
        }
    }

    pub fn templates(&self) -> &[TemplateSpec] {
        &self.templates
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Row count of a named table (template construction helper).
    pub fn rows_of(&self, table: &str) -> Option<usize> {
        self.tables
            .iter()
            .find(|(s, _)| s.name == table)
            .map(|&(_, rows)| rows)
    }

    /// Generate all tables with the experiment seed.
    ///
    /// Fails with [`DbError::Invalid`] before any column is generated when
    /// a table has more rows than a `u32` row id can number: the executor
    /// names every row by one.
    pub fn build_catalog(&self, seed: u64) -> DbResult<Catalog> {
        if let Some((schema, rows)) = self
            .tables
            .iter()
            .find(|(_, rows)| u32::try_from(*rows).is_err())
        {
            return Err(DbError::Invalid(format!(
                "table {} would have {rows} rows at scale factor {}, more than the {} a u32 row id numbers",
                schema.name,
                self.scale_factor,
                u32::MAX
            )));
        }
        let tables = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, (schema, rows))| {
                TableBuilder::new(schema.clone(), *rows).build(TableId(i as u32), seed)
            })
            .collect();
        Ok(Catalog::new(tables))
    }
}

/// Shorthand for building a [`ColumnRef`].
pub fn col(table: &str, column: &str) -> ColumnRef {
    ColumnRef::new(table, column)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_storage::{ColumnSpec, ColumnType, Distribution};

    fn tiny_benchmark() -> Benchmark {
        let t = TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("a", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "b",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 999 },
                ),
            ],
        );
        let template = TemplateSpec {
            id: TemplateId(1),
            preds: vec![(col("t", "b"), ParamGen::Eq { lo: 0, hi: 999 })],
            joins: vec![],
            payload: vec![col("t", "a")],
            aggregated: false,
        };
        Benchmark::new(
            "tiny",
            1.0,
            vec![(t, RowCount::PerSf(100_000).rows(1.0))],
            vec![template],
        )
    }

    #[test]
    fn row_count_scaling() {
        assert_eq!(RowCount::PerSf(6_000_000).rows(10.0), 600_000);
        assert_eq!(RowCount::PerSf(6_000_000).rows(1.0), 60_000);
        assert_eq!(RowCount::PerSf(100).rows(1.0), 8, "floor at 8 rows");
        assert_eq!(RowCount::Fixed(250).rows(100.0), 250);
    }

    #[test]
    fn catalog_builds_at_scale() {
        let b = tiny_benchmark();
        let cat = b.build_catalog(7).unwrap();
        assert_eq!(cat.table(TableId(0)).rows(), 1000);
        assert_eq!(b.rows_of("t"), Some(1000));
        assert_eq!(b.rows_of("missing"), None);
    }

    #[test]
    fn catalog_refuses_tables_past_u32_row_ids() {
        let err = crate::tpch::tpch(1e30).build_catalog(1).unwrap_err();
        let DbError::Invalid(msg) = &err else {
            panic!("expected an invalid-input error, got {err:?}")
        };
        assert!(msg.contains("table customer"), "{msg}");
        assert!(msg.contains(&format!("{} rows", usize::MAX)), "{msg}");
        let cat = crate::tpch::tpch(1.0).build_catalog(1).unwrap();
        assert_eq!(cat.table_by_name("lineitem").unwrap().rows(), 60_000);
    }

    #[test]
    fn instances_vary_by_round_but_are_deterministic() {
        let b = tiny_benchmark();
        let cat = b.build_catalog(7).unwrap();
        let t = &b.templates()[0];
        let q1 = t.instantiate(&cat, QueryId(0), 7, 1).unwrap();
        let q1_again = t.instantiate(&cat, QueryId(0), 7, 1).unwrap();
        let q2 = t.instantiate(&cat, QueryId(1), 7, 2).unwrap();
        assert_eq!(q1.predicates, q1_again.predicates, "deterministic");
        assert_ne!(
            q1.predicates, q2.predicates,
            "different round, different instance"
        );
        assert_eq!(q1.template, q2.template);
    }

    #[test]
    fn unknown_columns_error_cleanly() {
        let b = tiny_benchmark();
        let cat = b.build_catalog(7).unwrap();
        let bad = TemplateSpec {
            id: TemplateId(2),
            preds: vec![(col("t", "zzz"), ParamGen::FixedEq(1))],
            joins: vec![],
            payload: vec![],
            aggregated: false,
        };
        assert!(matches!(
            bad.instantiate(&cat, QueryId(0), 7, 0),
            Err(DbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn param_gens_respect_bounds() {
        let mut rng = rng_for(1, "test", 0);
        for _ in 0..200 {
            let (lo, hi) = ParamGen::Eq { lo: 5, hi: 10 }.draw(&mut rng);
            assert_eq!(lo, hi);
            assert!((5..=10).contains(&lo));
            let (lo, hi) = ParamGen::Range {
                lo: 0,
                hi: 100,
                width: 20,
            }
            .draw(&mut rng);
            assert_eq!(hi - lo, 20);
            assert!(lo >= 0 && hi <= 100);
            let (lo, hi) = ParamGen::EqZipf { n: 50, s: 2.0 }.draw(&mut rng);
            assert_eq!(lo, hi);
            assert!((0..50).contains(&lo));
        }
        assert_eq!(ParamGen::FixedEq(9).draw(&mut rng), (9, 9));
        assert_eq!(ParamGen::FixedRange(1, 5).draw(&mut rng), (1, 5));
    }
}
