//! Tables: schemas, builders, and size accounting.

use dba_common::{rng::rng_for, TableId};
use serde::{Deserialize, Serialize};

use crate::column::Column;
use crate::gen::ColumnSpec;
use crate::index::LeafOrders;

/// Size of a storage page used for I/O accounting, in bytes.
pub const PAGE_BYTES: u64 = 8192;

/// Schema of a table: an ordered list of column specifications plus the
/// logical width of columns the workload never touches.
///
/// Real benchmark tables carry comment/name/address columns that queries
/// rarely read but that every heap scan must pay for; `pad_bytes` accounts
/// for them without materialising data. This width asymmetry between the
/// heap and narrow secondary indexes is what makes covering indexes
/// profitable in row stores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnSpec>,
    pub pad_bytes: u32,
}

impl TableSchema {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnSpec>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
            pad_bytes: 0,
        }
    }

    /// Add untouched-column padding to the logical row width.
    pub fn with_pad(mut self, pad_bytes: u32) -> Self {
        self.pad_bytes = pad_bytes;
        self
    }

    pub fn column_ordinal(&self, name: &str) -> Option<u16> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|p| p as u16)
    }

    /// Logical row width in bytes (column widths plus padding).
    pub fn row_bytes(&self) -> u64 {
        self.columns
            .iter()
            .map(|c| c.ctype.logical_width() as u64)
            .sum::<u64>()
            + self.pad_bytes as u64
    }
}

/// A fully materialised table.
#[derive(Debug)]
pub struct Table {
    id: TableId,
    name: String,
    columns: Vec<Column>,
    rows: usize,
    pad_bytes: u32,
    /// Leaf orders of the key-column lists indexes over this table sorted
    /// more than once (see [`Index::ordered_rows`](crate::Index::ordered_rows)).
    leaf_orders: LeafOrders,
}

impl Table {
    #[inline]
    pub fn id(&self) -> TableId {
        self.id
    }

    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    #[inline]
    pub fn column(&self, ordinal: u16) -> &Column {
        &self.columns[ordinal as usize]
    }

    pub fn column_by_name(&self, name: &str) -> Option<(u16, &Column)> {
        self.columns
            .iter()
            .enumerate()
            .find(|(_, c)| c.name() == name)
            .map(|(i, c)| (i as u16, c))
    }

    /// Logical width of one heap row in bytes (column widths plus padding).
    pub fn row_bytes(&self) -> u64 {
        self.columns
            .iter()
            .map(|c| c.ctype().logical_width() as u64)
            .sum::<u64>()
            + self.pad_bytes as u64
    }

    /// Logical heap size in bytes (row width × rows, padding included).
    pub fn heap_bytes(&self) -> u64 {
        self.row_bytes() * self.rows as u64
    }

    /// Number of heap pages a full table scan must read.
    pub fn heap_pages(&self) -> u64 {
        self.heap_bytes().div_ceil(PAGE_BYTES).max(1)
    }

    /// Logical width in bytes of a subset of columns.
    pub fn columns_width(&self, ordinals: &[u16]) -> u64 {
        ordinals
            .iter()
            .map(|&o| self.columns[o as usize].ctype().logical_width() as u64)
            .sum()
    }

    #[inline]
    pub(crate) fn leaf_orders(&self) -> &LeafOrders {
        &self.leaf_orders
    }
}

/// Builds a [`Table`] from a schema by running each column's generator with
/// a deterministic per-column RNG stream derived from the experiment seed.
#[derive(Debug)]
pub struct TableBuilder {
    schema: TableSchema,
    rows: usize,
}

impl TableBuilder {
    pub fn new(schema: TableSchema, rows: usize) -> Self {
        TableBuilder { schema, rows }
    }

    pub fn build(self, id: TableId, root_seed: u64) -> Table {
        let mut generated: Vec<Vec<i64>> = Vec::with_capacity(self.schema.columns.len());
        for (ord, spec) in self.schema.columns.iter().enumerate() {
            let mut rng = rng_for(root_seed, "datagen", ((id.raw() as u64) << 16) | ord as u64);
            let data = spec.dist.generate(self.rows, &mut rng, &generated);
            generated.push(data);
        }
        let columns = self
            .schema
            .columns
            .iter()
            .zip(generated)
            .map(|(spec, data)| Column::new(spec.name.clone(), spec.ctype.clone(), data))
            .collect();
        Table {
            id,
            name: self.schema.name,
            columns,
            rows: self.rows,
            pad_bytes: self.schema.pad_bytes,
            leaf_orders: LeafOrders::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnType;
    use crate::gen::Distribution;

    fn schema() -> TableSchema {
        TableSchema::new(
            "orders",
            vec![
                ColumnSpec::new("o_orderkey", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "o_custkey",
                    ColumnType::Int,
                    Distribution::FkUniform { parent_rows: 100 },
                ),
                ColumnSpec::new(
                    "o_orderdate",
                    ColumnType::Date,
                    Distribution::Uniform { lo: 0, hi: 2555 },
                ),
            ],
        )
    }

    #[test]
    fn build_produces_all_columns_with_row_count() {
        let t = TableBuilder::new(schema(), 1000).build(TableId(1), 42);
        assert_eq!(t.rows(), 1000);
        assert_eq!(t.columns().len(), 3);
        assert_eq!(t.column(0).len(), 1000);
        assert_eq!(t.name(), "orders");
    }

    #[test]
    fn column_lookup_by_name() {
        let t = TableBuilder::new(schema(), 10).build(TableId(1), 42);
        let (ord, col) = t.column_by_name("o_custkey").unwrap();
        assert_eq!(ord, 1);
        assert_eq!(col.name(), "o_custkey");
        assert!(t.column_by_name("nope").is_none());
    }

    #[test]
    fn size_accounting() {
        let t = TableBuilder::new(schema(), 1000).build(TableId(1), 42);
        // widths: Int 8 + Int 8 + Date 4 = 20 bytes/row.
        assert_eq!(t.heap_bytes(), 20_000);
        assert_eq!(t.heap_pages(), 20_000u64.div_ceil(PAGE_BYTES));
        assert_eq!(t.columns_width(&[0, 2]), 12);
    }

    #[test]
    fn padding_widens_heap_but_not_projections() {
        let padded = TableBuilder::new(schema().with_pad(80), 1000).build(TableId(1), 42);
        assert_eq!(padded.heap_bytes(), (20 + 80) * 1000);
        // Projections of real columns are unaffected.
        assert_eq!(padded.columns_width(&[0, 2]), 12);
        assert_eq!(schema().with_pad(80).row_bytes(), 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TableBuilder::new(schema(), 100).build(TableId(1), 7);
        let b = TableBuilder::new(schema(), 100).build(TableId(1), 7);
        let c = TableBuilder::new(schema(), 100).build(TableId(1), 8);
        assert_eq!(a.column(1).data(), b.column(1).data());
        assert_ne!(a.column(1).data(), c.column(1).data());
    }

    #[test]
    fn schema_helpers() {
        let s = schema();
        assert_eq!(s.column_ordinal("o_orderdate"), Some(2));
        assert_eq!(s.column_ordinal("missing"), None);
        assert_eq!(s.row_bytes(), 20);
    }
}
