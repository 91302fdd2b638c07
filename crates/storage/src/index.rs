//! Composite-key secondary indexes with included (payload) columns.
//!
//! An index is an ordering of the table's row ids by a tuple of key columns
//! (a sorted permutation — the moral equivalent of a B+-tree's leaf level).
//! Building one records only its definition and size; the permutation is
//! read the first time a probe (a seek or an index-nested-loop join)
//! needs it, so an index no plan probes (a vetoed or unused creation, or
//! one only covering scans read) never holds one.
//!
//! The order depends only on the table's immutable data and the key
//! columns, not on the included columns, and tuners drop and re-create the
//! same definitions. So each [`Table`] retains the orders of the key-column
//! lists sorted more than once over it. A first read shares the retained
//! order of its key columns if there is one, and sorts otherwise. The
//! first sort of a key-column list stays with its index and is freed with
//! it; a later sort of the same list over the same table (the definition
//! dropped and re-created, or created in another catalog fork or on
//! another thread) is retained for the table's lifetime. From the third
//! creation on, no index with those key columns sorts again.
//!
//! When the key columns' code ranges and the row id fit in one `u64`, the
//! sort packs `(key₁−min₁, …, keyₙ−minₙ, row)` into one word per row and
//! LSD-radix-sorts the words on their key bits; a wider key takes a
//! comparator sort. Both produce the same (key tuple, row id) order.
//! Probes bisect on an equality prefix plus an optional range on the next
//! key column, exactly the access pattern the planner's `IndexSeek` uses.
//! `include_cols` model covering indexes: columns carried in the leaves so
//! qualifying queries never touch the heap.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use dba_common::{IndexId, TableId};
use serde::{Deserialize, Serialize};

use crate::table::Table;

/// Structural definition of an index: which table, which key columns (order
/// matters), which extra columns are included in the leaves.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexDef {
    pub table: TableId,
    pub key_cols: Vec<u16>,
    pub include_cols: Vec<u16>,
}

impl IndexDef {
    pub fn new(table: TableId, key_cols: Vec<u16>, include_cols: Vec<u16>) -> Self {
        debug_assert!(!key_cols.is_empty(), "index with no key columns");
        IndexDef {
            table,
            key_cols,
            include_cols,
        }
    }

    /// All column ordinals readable from the index leaves (keys + includes).
    pub fn leaf_columns(&self) -> Vec<u16> {
        let mut cols = self.key_cols.clone();
        for &c in &self.include_cols {
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols
    }

    /// Whether every ordinal in `needed` can be served from the leaves.
    pub fn covers(&self, needed: &[u16]) -> bool {
        needed
            .iter()
            .all(|c| self.key_cols.contains(c) || self.include_cols.contains(c))
    }

    /// Whether `other` prefix-subsumes this index: `other` has at
    /// least the same key columns in the same order as a prefix.
    pub fn is_prefix_of(&self, other: &IndexDef) -> bool {
        self.table == other.table
            && self.key_cols.len() <= other.key_cols.len()
            && self
                .key_cols
                .iter()
                .zip(&other.key_cols)
                .all(|(a, b)| a == b)
    }

    /// Estimated materialised size in bytes given the table, before
    /// building. Mirrors [`Index::size_bytes`] so what-if costing agrees
    /// with reality.
    pub fn estimated_bytes(&self, table: &Table) -> u64 {
        index_bytes(table, self)
    }

    /// Bytes of one leaf entry on `table`: the key and included columns
    /// plus an 8-byte row locator.
    pub fn leaf_row_bytes(&self, table: &Table) -> u64 {
        table.columns_width(&self.key_cols) + table.columns_width(&self.include_cols) + 8
    }
}

/// B+-tree-shaped size model: leaf payload plus ~15% structural overhead
/// (interior nodes, per-entry headers, fill factor).
fn index_bytes(table: &Table, def: &IndexDef) -> u64 {
    let leaf = def.leaf_row_bytes(table) * table.rows() as u64;
    leaf + leaf * 3 / 20
}

/// A materialised secondary index.
#[derive(Debug, Clone)]
pub struct Index {
    id: IndexId,
    def: IndexDef,
    /// Row ids of the table ordered by (key tuple, row id), set on first
    /// read: the table's retained order of the key columns, or a fresh
    /// [`sort_rows`]. Snapshots sharing the `Arc<Index>` share the one
    /// order.
    order: OnceLock<Arc<[u32]>>,
    size_bytes: u64,
    rows: usize,
}

impl Index {
    /// Define the index over `table`: its size and row count. The leaf
    /// order is not sorted here but by the first [`Self::ordered_rows`] or
    /// [`Self::probe`].
    pub fn build(id: IndexId, def: IndexDef, table: &Table) -> Self {
        assert_eq!(def.table, table.id(), "index/table mismatch");
        let size_bytes = index_bytes(table, &def);
        Index {
            id,
            def,
            order: OnceLock::new(),
            size_bytes,
            rows: table.rows(),
        }
    }

    #[inline]
    pub fn id(&self) -> IndexId {
        self.id
    }

    #[inline]
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row ids in (key tuple, row id) order, set on the first call and
    /// kept for the index's lifetime. The first call shares the order
    /// `table` retains for the index's key columns, if there is one.
    /// Otherwise it sorts: by the packed-word radix kernel when the key's
    /// code ranges and the row id fit in one `u64`, else by the
    /// comparator; debug builds then check that the rows strictly increase
    /// in (key tuple, row id). The first sort of these key columns over
    /// `table` stays with this index alone and is freed with it; any later
    /// one is also retained by `table`, for every index with these key
    /// columns that reads it after.
    /// `table` must be the indexed table: any other would cache a wrong
    /// order, so a mismatched id panics.
    pub fn ordered_rows(&self, table: &Table) -> &[u32] {
        assert_eq!(self.def.table, table.id(), "index/table mismatch");
        self.order.get_or_init(|| {
            let (orders, key) = (table.leaf_orders(), &self.def.key_cols);
            orders.retained(key).unwrap_or_else(|| {
                let order = sort_rows(&self.def, table);
                debug_assert!(
                    order.len() == table.rows() && {
                        let keys = key_codes(&self.def, table);
                        order
                            .windows(2)
                            .all(|w| cmp_rows(&keys, w[0], w[1]) == Ordering::Less)
                    },
                    "leaf order of {:?} is not strictly increasing",
                    self.def
                );
                orders.record(key, order.into())
            })
        })
    }

    /// Probe: find the contiguous leaf-order range matching `eq_prefix`
    /// values on the first `eq_prefix.len()` key columns, optionally
    /// narrowed by an inclusive `[lo, hi]` range on the next key column.
    ///
    /// Returns `(start, end)` half-open bounds into [`Self::ordered_rows`].
    pub fn probe(
        &self,
        table: &Table,
        eq_prefix: &[i64],
        range_next: Option<(i64, i64)>,
    ) -> (usize, usize) {
        debug_assert!(eq_prefix.len() <= self.def.key_cols.len());
        debug_assert!(
            range_next.is_none() || eq_prefix.len() < self.def.key_cols.len(),
            "range column beyond key columns"
        );
        let keys = key_codes(&self.def, table);

        // Compare a row against (eq_prefix, bound-on-next) lexicographically.
        // `next_bound` is interpreted per `upper`: for the lower bound we
        // look for the first row ≥ (prefix, lo); for the upper bound the
        // first row > (prefix, hi).
        let cmp_row = |row: u32, next_bound: Option<i64>, upper: bool| -> std::cmp::Ordering {
            for (i, &v) in eq_prefix.iter().enumerate() {
                let rv = keys[i][row as usize];
                match rv.cmp(&v) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            if let Some(b) = next_bound {
                let rv = keys[eq_prefix.len()][row as usize];
                match rv.cmp(&b) {
                    std::cmp::Ordering::Equal => {
                        if upper {
                            std::cmp::Ordering::Less // equal keys belong inside an inclusive hi
                        } else {
                            std::cmp::Ordering::Greater // equal keys belong inside an inclusive lo
                        }
                    }
                    other => other,
                }
            } else if upper {
                std::cmp::Ordering::Less // all rows equal on prefix are inside
            } else {
                std::cmp::Ordering::Greater
            }
        };

        let (lo_bound, hi_bound) = match range_next {
            Some((lo, hi)) => (Some(lo), Some(hi)),
            None => (None, None),
        };

        let order = self.ordered_rows(table);
        let start =
            order.partition_point(|&r| cmp_row(r, lo_bound, false) == std::cmp::Ordering::Less);
        let end =
            order.partition_point(|&r| cmp_row(r, hi_bound, true) != std::cmp::Ordering::Greater);
        (start, end.max(start))
    }
}

/// The leaf orders one table retains, by key-column list. A key maps to
/// `None` once it has been sorted (that order stays with its index) and to
/// the order of a later sort, which every index with those key columns
/// then shares. The lock is held only to look up or record, never during a
/// sort: two threads that sort one key at once both sort, into equal
/// orders.
#[derive(Debug, Default)]
pub(crate) struct LeafOrders(Mutex<ByKey>);

type ByKey = BTreeMap<Vec<u16>, Option<Arc<[u32]>>>;

impl LeafOrders {
    /// The retained order of `key`, if a sort of it was retained.
    fn retained(&self, key: &[u16]) -> Option<Arc<[u32]>> {
        self.lock().get(key).cloned().flatten()
    }

    /// Record a fresh sort of `key` and return the order its index keeps:
    /// the sort itself, retained unless it is the key's first, or the
    /// order another thread retained in the meantime.
    fn record(&self, key: &[u16], sorted: Arc<[u32]>) -> Arc<[u32]> {
        let mut orders = self.lock();
        match orders.get_mut(key) {
            Some(seen) => Arc::clone(seen.get_or_insert(sorted)),
            None => {
                orders.insert(key.to_vec(), None);
                sorted
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, ByKey> {
        // Every update is one insert, so a poisoned map is still whole.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `def`'s key columns' codes over `table`, most significant first.
fn key_codes<'t>(def: &IndexDef, table: &'t Table) -> Vec<&'t [i64]> {
    def.key_cols
        .iter()
        .map(|&c| table.column(c).data())
        .collect()
}

/// Rows `a` and `b` compared on (key tuple, row id).
fn cmp_rows(keys: &[&[i64]], a: u32, b: u32) -> Ordering {
    for k in keys {
        let ord = k[a as usize].cmp(&k[b as usize]);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.cmp(&b)
}

/// Row ids of `table` sorted on `def`'s key tuple, ties broken by row id.
fn sort_rows(def: &IndexDef, table: &Table) -> Vec<u32> {
    let keys = key_codes(def, table);
    match PackedKey::fit(def, table) {
        Some(packed) => packed.sort(&keys, table.rows()),
        None => sort_rows_cmp(&keys, table.rows()),
    }
}

/// The comparator sort: the path for keys too wide to pack, and the tests'
/// reference order.
fn sort_rows_cmp(keys: &[&[i64]], rows: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..rows as u32).collect();
    perm.sort_unstable_by(|&a, &b| cmp_rows(keys, a, b));
    perm
}

/// Widest radix digit in bits: one pass's 2,048 counts stay in L1.
const RADIX_BITS: u32 = 11;

/// A key packed into one `u64` per row, `(key₁−min₁, …, keyₙ−minₙ, row)`
/// from the most significant bits down, each field as wide as its code
/// range. Comparing words compares (key tuple, row id).
struct PackedKey {
    /// Each key column's minimum code and field width in bits.
    fields: Vec<(i64, u32)>,
    /// Width of the row-id field in the low bits.
    row_bits: u32,
}

impl PackedKey {
    /// The packing of `def`'s key over `table`, or `None` when the fields
    /// need more than 64 bits.
    fn fit(def: &IndexDef, table: &Table) -> Option<Self> {
        let width = |span: u64| u64::BITS - span.leading_zeros();
        let fields: Vec<(i64, u32)> = def
            .key_cols
            .iter()
            .map(|&c| {
                let (lo, hi) = table.column(c).min_max().unwrap_or((0, 0));
                (lo, width(hi.abs_diff(lo)))
            })
            .collect();
        let row_bits = width(table.rows().saturating_sub(1) as u64);
        let packed = PackedKey { fields, row_bits };
        (packed.key_bits() + row_bits <= u64::BITS).then_some(packed)
    }

    fn key_bits(&self) -> u32 {
        self.fields.iter().map(|&(_, bits)| bits).sum()
    }

    /// LSD radix passes over the key bits, each at most [`RADIX_BITS`] wide.
    fn passes(&self) -> u32 {
        self.key_bits().div_ceil(RADIX_BITS)
    }

    /// Row ids in (key tuple, row id) order. The words start in row order
    /// and every pass scatters stably, so equal keys stay in row-id order
    /// and the row bits need no pass. The last pass writes row ids straight
    /// into the output, so at most two word buffers are live at once.
    fn sort(&self, keys: &[&[i64]], rows: usize) -> Vec<u32> {
        let passes = self.passes() as usize;
        if passes == 0 {
            return (0..rows as u32).collect();
        }
        let mut words = vec![0u64; rows];
        for (&(lo, bits), key) in self.fields.iter().zip(keys) {
            for (w, &v) in words.iter_mut().zip(*key) {
                *w = (*w << bits) | v.abs_diff(lo);
            }
        }
        let digit = self.key_bits().div_ceil(passes as u32);
        let mask = (1u64 << digit) - 1;
        let shifts: Vec<u32> = (0..passes as u32)
            .map(|p| self.row_bits + p * digit)
            .collect();
        // One counting pass over the finished words fills every pass's
        // histogram; each then becomes its digits' first output slots.
        let mut slots = vec![[0usize; 1 << RADIX_BITS]; passes];
        for (row, w) in words.iter_mut().enumerate() {
            *w = (*w << self.row_bits) | row as u64;
            for (count, &s) in slots.iter_mut().zip(&shifts) {
                count[((*w >> s) & mask) as usize] += 1;
            }
        }
        for count in &mut slots {
            let mut next = 0;
            for c in count.iter_mut() {
                (*c, next) = (next, next + *c);
            }
        }
        let (last, inner) = slots.split_last_mut().expect("at least one pass");
        if !inner.is_empty() {
            let mut spare = vec![0u64; rows];
            for (slot, &s) in inner.iter_mut().zip(&shifts) {
                for &w in &words {
                    let d = ((w >> s) & mask) as usize;
                    spare[slot[d]] = w;
                    slot[d] += 1;
                }
                std::mem::swap(&mut words, &mut spare);
            }
        }
        let (s, row_mask) = (shifts[passes - 1], (1u64 << self.row_bits) - 1);
        let mut order = vec![0u32; rows];
        for &w in &words {
            let d = ((w >> s) & mask) as usize;
            order[last[d]] = (w & row_mask) as u32;
            last[d] += 1;
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use std::panic::catch_unwind;
    use std::sync::Arc;

    use super::*;
    use crate::catalog::Catalog;
    use crate::column::ColumnType;
    use crate::gen::{ColumnSpec, Distribution};
    use crate::table::{TableBuilder, TableSchema};

    fn table() -> Table {
        table_as(TableId(0))
    }

    fn table_as(id: TableId) -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("a", ColumnType::Int, Distribution::Uniform { lo: 0, hi: 9 }),
                ColumnSpec::new(
                    "b",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 99 },
                ),
                ColumnSpec::new("c", ColumnType::Int, Distribution::Sequential),
            ],
        );
        TableBuilder::new(schema, 2000).build(id, 11)
    }

    #[test]
    fn probe_equality_matches_ground_truth() {
        let t = table();
        let ix = Index::build(IndexId(0), IndexDef::new(TableId(0), vec![0], vec![]), &t);
        for v in 0..10 {
            let (s, e) = ix.probe(&t, &[v], None);
            let expected = t.column(0).count_in_range(v, v);
            assert_eq!(e - s, expected, "value {v}");
            for &r in &ix.ordered_rows(&t)[s..e] {
                assert_eq!(t.column(0).value(r as usize), v);
            }
        }
    }

    #[test]
    fn probe_composite_equality_plus_range() {
        let t = table();
        let ix = Index::build(
            IndexId(1),
            IndexDef::new(TableId(0), vec![0, 1], vec![2]),
            &t,
        );
        let (s, e) = ix.probe(&t, &[3], Some((10, 20)));
        let expected = t
            .column(0)
            .data()
            .iter()
            .zip(t.column(1).data())
            .filter(|(&a, &b)| a == 3 && (10..=20).contains(&b))
            .count();
        assert_eq!(e - s, expected);
        for &r in &ix.ordered_rows(&t)[s..e] {
            assert_eq!(t.column(0).value(r as usize), 3);
            let b = t.column(1).value(r as usize);
            assert!((10..=20).contains(&b));
        }
    }

    #[test]
    fn probe_full_range_on_first_column() {
        let t = table();
        let ix = Index::build(IndexId(2), IndexDef::new(TableId(0), vec![1], vec![]), &t);
        let (s, e) = ix.probe(&t, &[], Some((0, 99)));
        assert_eq!(e - s, t.rows());
        let (s, e) = ix.probe(&t, &[], Some((50, 59)));
        assert_eq!(e - s, t.column(1).count_in_range(50, 59));
    }

    #[test]
    fn probe_missing_value_returns_empty() {
        let t = table();
        let ix = Index::build(IndexId(3), IndexDef::new(TableId(0), vec![0], vec![]), &t);
        let (s, e) = ix.probe(&t, &[99], None);
        assert_eq!(s, e);
    }

    #[test]
    fn covers_and_prefix_relations() {
        let d1 = IndexDef::new(TableId(0), vec![0, 1], vec![2]);
        let d2 = IndexDef::new(TableId(0), vec![0, 1, 2], vec![]);
        let d3 = IndexDef::new(TableId(0), vec![1, 0], vec![]);
        assert!(d1.covers(&[0, 1, 2]));
        assert!(!d3.covers(&[2]));
        assert!(d1.is_prefix_of(&d2));
        assert!(!d2.is_prefix_of(&d1));
        assert!(!d3.is_prefix_of(&d2));
        assert_eq!(d1.leaf_columns(), vec![0, 1, 2]);
    }

    #[test]
    fn size_model_counts_keys_includes_and_overhead() {
        let t = table();
        let narrow = Index::build(IndexId(4), IndexDef::new(TableId(0), vec![0], vec![]), &t);
        let wide = Index::build(
            IndexId(5),
            IndexDef::new(TableId(0), vec![0, 1], vec![2]),
            &t,
        );
        assert!(wide.size_bytes() > narrow.size_bytes());
        // Estimated size (pre-build) must match actual.
        assert_eq!(
            IndexDef::new(TableId(0), vec![0], vec![]).estimated_bytes(&t),
            narrow.size_bytes()
        );
        // narrow: (8 key + 8 rowid) * 2000 * 1.15
        assert_eq!(narrow.size_bytes(), (16 * 2000) + (16 * 2000) * 3 / 20);
    }

    #[test]
    fn ordered_rows_are_sorted_by_key() {
        let t = table();
        // Key order differs from column order, and the 2000 rows share
        // the 1000 possible (b, a) tuples: the row-id tie-break decides.
        let ix = Index::build(
            IndexId(6),
            IndexDef::new(TableId(0), vec![1, 0], vec![]),
            &t,
        );
        let (a, b) = (t.column(0).data(), t.column(1).data());
        let mut reference: Vec<((i64, i64), u32)> =
            (0..t.rows()).map(|r| ((b[r], a[r]), r as u32)).collect();
        reference.sort_unstable();
        let ties = reference.windows(2).filter(|w| w[0].0 == w[1].0).count();
        assert!(ties > 0, "no duplicate keys");
        let expected: Vec<u32> = reference.iter().map(|&(_, r)| r).collect();
        assert_eq!(ix.ordered_rows(&t), expected.as_slice());
    }

    #[test]
    fn order_is_sorted_once_on_first_read_and_shared() {
        let t = table();
        let ix = Arc::new(Index::build(
            IndexId(7),
            IndexDef::new(TableId(0), vec![0], vec![]),
            &t,
        ));
        assert!(ix.order.get().is_none(), "build must not sort");

        // Another table would cache a wrong order: refused, nothing cached.
        let other = table_as(TableId(1));
        let wrong = catch_unwind(|| ix.ordered_rows(&other).len());
        assert!(wrong.is_err(), "ordered_rows accepted another table");
        assert!(ix.order.get().is_none());

        let (s, e) = ix.probe(&t, &[3], None);
        assert_eq!(e - s, t.column(0).count_in_range(3, 3));
        let sorted = ix.order.get().expect("the first probe sorts").as_ptr();

        // A second holder (a catalog snapshot) reads the same leaves.
        let snapshot = Arc::clone(&ix);
        assert_eq!(snapshot.ordered_rows(&t).as_ptr(), sorted);
        assert_eq!(ix.ordered_rows(&t).as_ptr(), sorted);
    }

    /// A `rows`-row table whose `Int` columns follow `dists`.
    fn table_of(rows: usize, dists: Vec<Distribution>) -> Table {
        let cols = dists
            .into_iter()
            .enumerate()
            .map(|(i, d)| ColumnSpec::new(format!("c{i}"), ColumnType::Int, d))
            .collect();
        TableBuilder::new(TableSchema::new("t", cols), rows).build(TableId(0), 3)
    }

    #[test]
    fn packed_sort_matches_comparator_on_edge_cases() {
        let uniform = |lo, hi| Distribution::Uniform { lo, hi };
        // Column 0's codes times `2^shift`: a field exactly `shift` bits
        // wider than column 0's.
        let scaled = |shift: u32| Distribution::Correlated {
            source: 0,
            a: 1 << shift,
            b: 0,
            m: i64::MAX,
            noise: 0,
        };
        // (case, rows, columns, key, radix passes; `None` = comparator).
        // 3,000 rows take 12 row bits, as do 4,096.
        let cases = [
            (
                "negative codes, 11+4 bits",
                3000,
                vec![uniform(-1000, 1000), uniform(-5, 5)],
                vec![0, 1],
                Some(2),
            ),
            ("constant key", 3000, vec![uniform(7, 7)], vec![0], Some(0)),
            ("0 rows", 0, vec![uniform(0, 9)], vec![0], Some(0)),
            ("1 row", 1, vec![uniform(-5, 5)], vec![0], Some(0)),
            ("11 bits", 3000, vec![uniform(0, 1500)], vec![0], Some(1)),
            (
                "11+1 bits",
                3000,
                vec![uniform(0, 1500), uniform(0, 1)],
                vec![0, 1],
                Some(2),
            ),
            (
                "23 bits",
                3000,
                vec![uniform(0, 6_000_000)],
                vec![0],
                Some(3),
            ),
            (
                "3 columns, heavy ties",
                3000,
                vec![uniform(0, 3), uniform(0, 2), uniform(0, 4)],
                vec![2, 0, 1],
                Some(1),
            ),
            (
                "52+12 bits: widest packed",
                4096,
                vec![uniform(0, 1023), scaled(42)],
                vec![1],
                Some(5),
            ),
            (
                "53+12 bits",
                4096,
                vec![uniform(0, 1023), scaled(43)],
                vec![1],
                None,
            ),
            (
                "full i64 range",
                3000,
                vec![uniform(i64::MIN, i64::MAX)],
                vec![0],
                None,
            ),
        ];
        for (case, rows, dists, key, passes) in cases {
            let t = table_of(rows, dists);
            let def = IndexDef::new(TableId(0), key, vec![]);
            let packed = PackedKey::fit(&def, &t);
            assert_eq!(
                packed.as_ref().map(PackedKey::passes),
                passes,
                "{case}: path"
            );
            let reference = sort_rows_cmp(&key_codes(&def, &t), rows);
            assert_eq!(sort_rows(&def, &t), reference, "{case}: order");
        }
    }

    /// How one creation's first read must get its leaf order.
    enum Read {
        /// Sorts; `retained` says whether the table keeps that sort too.
        Sorts { retained: bool },
        /// Shares the order read at this earlier step.
        Shares(usize),
    }

    /// (case, base, key, include, read): one creation and its first read.
    type Step<'t> = (
        &'static str,
        &'t Table,
        &'static [u16],
        &'static [u16],
        Read,
    );

    #[test]
    fn recurring_key_columns_sort_twice_then_share_the_retained_order() {
        let (first, second) = (table(), table());
        let sorts = |retained| Read::Sorts { retained };
        // Every index lives to the end, so a fresh sort never lands on a
        // freed order's address.
        let steps: [Step; 6] = [
            ("first sort", &first, &[0, 1], &[], sorts(false)),
            ("re-created", &first, &[0, 1], &[], sorts(true)),
            ("third creation", &first, &[0, 1], &[], Read::Shares(1)),
            ("other includes", &first, &[0, 1], &[2], Read::Shares(1)),
            ("permuted key", &first, &[1, 0], &[], sorts(false)),
            ("same-seed base", &second, &[0, 1], &[], sorts(false)),
        ];
        let (mut live, mut read) = (Vec::new(), Vec::new());
        for (step, (case, t, key, include, expected)) in steps.into_iter().enumerate() {
            let def = IndexDef::new(TableId(0), key.to_vec(), include.to_vec());
            let ix = Index::build(IndexId(step as u64), def, t);
            let reference = sort_rows_cmp(&key_codes(ix.def(), t), t.rows());
            assert_eq!(ix.ordered_rows(t), reference.as_slice(), "{case}: order");
            let order = ix.order.get().expect("the first read sets the order");
            let holders = Arc::strong_count(order);
            match expected {
                Read::Sorts { retained } => {
                    assert!(!read.contains(&order.as_ptr()), "{case}: shared");
                    let kept = t.leaf_orders().retained(key).map(|o| o.as_ptr());
                    assert_eq!(kept, retained.then_some(order.as_ptr()), "{case}");
                    assert_eq!(holders, 1 + usize::from(retained), "{case}: holders");
                }
                Read::Shares(at) => assert_eq!(order.as_ptr(), read[at], "{case}: sorted"),
            }
            read.push(order.as_ptr());
            live.push(ix);
        }
    }

    #[test]
    fn racing_sorts_of_one_key_share_the_first_retained_one() {
        let orders = LeafOrders::default();
        // Four reads of one key found nothing retained, and each sorted.
        let sorts: Vec<Arc<[u32]>> = (0..4).map(|_| Arc::from([2, 0, 1])).collect();
        let kept: Vec<Arc<[u32]>> = sorts
            .iter()
            .map(|s| orders.record(&[0], Arc::clone(s)))
            .collect();
        // The first keeps its own sort, the second's is retained, and the
        // later ones share it.
        for (read, at) in [0, 1, 1, 1].into_iter().enumerate() {
            assert!(Arc::ptr_eq(&kept[read], &sorts[at]), "read {read}");
        }
        assert!(Arc::ptr_eq(&orders.retained(&[0]).unwrap(), &sorts[1]));
    }

    #[test]
    fn forks_on_threads_re_creating_one_definition_read_equal_orders() {
        let base = Catalog::new(vec![table()]);
        let t = base.table(TableId(0));
        let def = IndexDef::new(TableId(0), vec![1, 0], vec![2]);
        let reference = sort_rows_cmp(&key_codes(&def, t), t.rows());
        // The threads start together, so their first reads race.
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut fork = base.fork_empty();
                    start.wait();
                    for _ in 0..4 {
                        let meta = fork.create_index(def.clone()).unwrap();
                        let ix = fork.index(meta.id).unwrap();
                        assert_eq!(ix.ordered_rows(fork.table(TableId(0))), &reference[..]);
                        fork.drop_index(meta.id).unwrap();
                    }
                });
            }
        });
        let retained = t.leaf_orders().retained(&def.key_cols);
        assert_eq!(retained.as_deref(), Some(&reference[..]));
    }
}
