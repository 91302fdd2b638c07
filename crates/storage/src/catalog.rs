//! The catalog: an immutable, shareable data base plus the mutable
//! per-session overlay of secondary indexes and drift state.
//!
//! Generated table data lives in a single [`BaseData`] behind an `Arc`:
//! forking a catalog for another tuner session ([`Catalog::fork_empty`])
//! is one reference-count bump, never a data copy, and the shared base is
//! `Sync` so forks can run on different threads. Each fork owns the cheap
//! per-session parts — its index set and its drift overlay.
//!
//! Data change (HTAP-style drift) is modelled as a per-table **logical
//! overlay** ([`TableDriftState`]): inserts grow the live row count and the
//! heap, deletes shrink the live row count but leave dead space in the heap
//! (no vacuum), updates rewrite rows in place. The physical column data
//! never changes — drift moves the *size accounting* every cost formula
//! reads (`live_rows`, `live_heap_pages`), which is what makes scans slow
//! down and index maintenance chargeable under churn.
//!
//! Every physical change is versioned per table ([`Catalog::table_version`]
//! moves on index create/drop and on applied drift), giving plan caches a
//! cheap configuration signature to validate against.

use std::collections::BTreeMap;
use std::sync::Arc;

use dba_common::{DbError, DbResult, IndexId, TableId};

use crate::index::{Index, IndexDef};
use crate::table::{Table, PAGE_BYTES};

/// Metadata snapshot for one materialised index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    pub id: IndexId,
    pub def: IndexDef,
    /// Size at creation time, drift included: on a table that has grown
    /// since generation, a freshly built index is proportionally larger
    /// than its generation-time estimate.
    pub size_bytes: u64,
}

/// Logical data-change overlay for one table: rows inserted, updated and
/// deleted since generation. See the module docs for the semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableDriftState {
    /// Rows logically appended since generation.
    pub inserted: u64,
    /// Rows logically rewritten in place.
    pub updated: u64,
    /// Rows logically deleted (dead tuples keep occupying heap pages).
    pub deleted: u64,
}

impl TableDriftState {
    /// Total row versions touched — the unit index maintenance is priced in.
    pub fn rows_changed(&self) -> u64 {
        self.inserted + self.updated + self.deleted
    }

    pub fn is_clean(&self) -> bool {
        self.rows_changed() == 0
    }
}

/// The immutable half of the storage layer: every generated table of a
/// benchmark, built once and shared (`Arc`) by all sessions over it.
///
/// `BaseData` is never mutated after construction — indexes and drift live
/// in each session's [`Catalog`] overlay — so sharing it across threads is
/// safe and forking a session is free.
#[derive(Debug)]
pub struct BaseData {
    tables: Vec<Table>,
}

impl BaseData {
    pub fn new(tables: Vec<Table>) -> Self {
        for (i, t) in tables.iter().enumerate() {
            assert_eq!(
                t.id().raw() as usize,
                i,
                "table ids must be dense and ordered"
            );
        }
        BaseData { tables }
    }

    #[inline]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.raw() as usize]
    }
}

/// Shared base data + per-session overlay (secondary indexes, drift).
#[derive(Debug, Clone)]
pub struct Catalog {
    base: Arc<BaseData>,
    indexes: BTreeMap<IndexId, Arc<Index>>,
    /// Per-index table growth factor *at creation time* (the table's
    /// [`index_growth`](Catalog::index_growth) when the index was built).
    /// Sizing an index live means scaling its generation-baseline
    /// structural size by total growth; billing its growth since creation
    /// means dividing total growth by this snapshot.
    created_growth: BTreeMap<IndexId, f64>,
    /// Per-table drift overlay, parallel to `base.tables()`.
    drift: Vec<TableDriftState>,
    /// Per-table physical version, parallel to `base.tables()`: bumped when
    /// an index on the table is created or dropped and when drift touches
    /// its live data. Plan caches validate against it.
    versions: Vec<u64>,
    next_index: u64,
}

impl Catalog {
    pub fn new(tables: Vec<Table>) -> Self {
        Catalog::from_base(Arc::new(BaseData::new(tables)))
    }

    /// A fresh overlay (no indexes, no drift) over already-generated data.
    /// This is how sessions fork: the `Arc` is bumped, nothing is copied.
    pub fn from_base(base: Arc<BaseData>) -> Self {
        let n = base.tables().len();
        Catalog {
            base,
            indexes: BTreeMap::new(),
            created_growth: BTreeMap::new(),
            drift: vec![TableDriftState::default(); n],
            versions: vec![0; n],
            next_index: 0,
        }
    }

    /// The shared immutable base this catalog overlays.
    #[inline]
    pub fn base(&self) -> &Arc<BaseData> {
        &self.base
    }

    #[inline]
    pub fn tables(&self) -> &[Table] {
        self.base.tables()
    }

    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        self.base.table(id)
    }

    pub fn table_by_name(&self, name: &str) -> DbResult<&Table> {
        self.tables()
            .iter()
            .find(|t| t.name() == name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Physical version of `table`: moves on every index create/drop on it
    /// and on every applied drift round. Equal versions guarantee a cached
    /// plan over the table is still valid (stats staleness is versioned
    /// separately by the optimiser).
    #[inline]
    pub fn table_version(&self, table: TableId) -> u64 {
        self.versions[table.raw() as usize]
    }

    #[inline]
    fn bump_version(&mut self, table: TableId) {
        self.versions[table.raw() as usize] += 1;
    }

    /// Total logical size of all base tables (the paper's “database size”,
    /// used for memory budgets and context features). Tracks drift: the
    /// database grows as rows are inserted.
    pub fn database_bytes(&self) -> u64 {
        self.tables()
            .iter()
            .map(|t| self.live_heap_bytes(t.id()))
            .sum()
    }

    /// Record a round of data change against `table`. Deletes and updates
    /// are capped at the rows that actually exist (live rows plus this
    /// round's inserts). Returns the *applied* delta — callers pricing
    /// maintenance or tracking staleness must use it, not the requested
    /// counts, so nobody is billed for rows that were never touched.
    // bumps: catalog_version
    pub fn apply_drift(
        &mut self,
        table: TableId,
        inserted: u64,
        updated: u64,
        deleted: u64,
    ) -> TableDriftState {
        let live = self.live_rows(table);
        let applied = TableDriftState {
            inserted,
            deleted: deleted.min(live + inserted),
            updated: updated.min(live + inserted),
        };
        let state = &mut self.drift[table.raw() as usize];
        state.inserted += applied.inserted;
        state.deleted += applied.deleted;
        state.updated += applied.updated;
        if applied.rows_changed() > 0 {
            self.bump_version(table);
        }
        applied
    }

    /// Accumulated drift of `table` since generation.
    pub fn drift_state(&self, table: TableId) -> TableDriftState {
        self.drift[table.raw() as usize]
    }

    /// Whether any table has drifted since generation.
    pub fn has_drift(&self) -> bool {
        self.drift.iter().any(|d| !d.is_clean())
    }

    /// Live (visible) row count of `table`: generated + inserted − deleted.
    pub fn live_rows(&self, table: TableId) -> u64 {
        let base = self.table(table).rows() as u64;
        let d = self.drift[table.raw() as usize];
        (base + d.inserted).saturating_sub(d.deleted)
    }

    /// Heap size of `table` in bytes, including dead space: inserts extend
    /// the heap, deletes never shrink it (no vacuum in the model).
    pub fn live_heap_bytes(&self, table: TableId) -> u64 {
        let t = self.table(table);
        let d = self.drift[table.raw() as usize];
        t.row_bytes() * (t.rows() as u64 + d.inserted)
    }

    /// Heap pages a full scan of `table` must read, drift included.
    pub fn live_heap_pages(&self, table: TableId) -> u64 {
        self.live_heap_bytes(table).div_ceil(PAGE_BYTES).max(1)
    }

    /// Growth factor (≥ 1) of `table`'s indexed row population since
    /// generation. Maintained indexes absorb every insert, so their leaf
    /// levels scale with the heap's row count — deleted entries linger like
    /// dead heap tuples (no vacuum). Costing of covering scans and of
    /// maintenance itself multiplies creation-time leaf pages by this
    /// factor, so an index on a churning table pays for its own growth.
    pub fn index_growth(&self, table: TableId) -> f64 {
        let base = self.table(table).rows().max(1) as f64;
        let d = self.drift[table.raw() as usize];
        (base + d.inserted as f64) / base
    }

    /// Growth factor (≥ 1) of `index`'s table **since the index was
    /// created**: total table growth divided by the growth snapshot taken
    /// at creation time. An index created late in a drifted session is
    /// billed only for inserts it actually absorbed — not for growth that
    /// predates it (which is already in its creation-time size). Unknown
    /// ids (e.g. what-if hypotheticals, which are "created" now) grow by
    /// definition 1.0.
    pub fn index_growth_of(&self, id: IndexId) -> f64 {
        let Some(ix) = self.indexes.get(&id) else {
            return 1.0;
        };
        let at_creation = self.created_growth.get(&id).copied().unwrap_or(1.0);
        (self.index_growth(ix.def().table) / at_creation).max(1.0)
    }

    /// Size of `index` at its creation time, drift included: the
    /// generation-baseline structural size scaled by the table growth
    /// snapshot taken when the index was built.
    pub fn index_creation_bytes(&self, id: IndexId) -> u64 {
        let Some(ix) = self.indexes.get(&id) else {
            return 0;
        };
        let at_creation = self.created_growth.get(&id).copied().unwrap_or(1.0);
        (ix.size_bytes() as f64 * at_creation).ceil() as u64
    }

    /// Current live size of `index`: creation-time size plus every insert
    /// absorbed since (deleted entries linger — no vacuum, matching the
    /// heap model).
    pub fn index_live_bytes(&self, id: IndexId) -> u64 {
        let Some(ix) = self.indexes.get(&id) else {
            return 0;
        };
        (ix.size_bytes() as f64 * self.index_growth(ix.def().table)).ceil() as u64
    }

    /// Leaf pages a full (covering) scan of `index` must read today:
    /// the live size in pages.
    pub fn index_live_leaf_pages(&self, id: IndexId) -> u64 {
        self.index_live_bytes(id).div_ceil(PAGE_BYTES).max(1)
    }

    /// Estimated size of materialising `def` **now**, on the live
    /// (drift-grown) table — what a fresh build would cost to write and
    /// hold. This is the size memory-budget checks and build billing must
    /// use on drifted tables; without drift it equals
    /// [`IndexDef::estimated_bytes`].
    pub fn estimated_live_bytes(&self, def: &IndexDef) -> u64 {
        let table = self.table(def.table);
        (def.estimated_bytes(table) as f64 * self.index_growth(def.table)).ceil() as u64
    }

    /// Total size of materialised secondary indexes at their creation-time
    /// (drift-included) sizes.
    pub fn index_bytes(&self) -> u64 {
        self.indexes
            .keys()
            .map(|&id| self.index_creation_bytes(id))
            .sum()
    }

    /// Total *live* size of materialised secondary indexes: creation-time
    /// sizes plus all growth absorbed since. This is what competes with the
    /// memory budget under drift — the quantity safety headroom checks
    /// guard.
    pub fn live_index_bytes(&self) -> u64 {
        self.indexes
            .keys()
            .map(|&id| self.index_live_bytes(id))
            .sum()
    }

    /// Materialise an index. Returns the new index id and its size.
    ///
    /// The caller is responsible for charging creation time through the cost
    /// model; the catalog only records the definition and size. The leaf
    /// order is sorted the first time a plan reads it
    /// ([`Index::ordered_rows`]), once for every snapshot sharing the
    /// index, so an index dropped unread (a vetoed creation) is never
    /// sorted.
    // bumps: catalog_version
    pub fn create_index(&mut self, def: IndexDef) -> DbResult<IndexMeta> {
        if def.key_cols.is_empty() {
            return Err(DbError::Invalid("index with no key columns".into()));
        }
        let table = self
            .tables()
            .get(def.table.raw() as usize)
            .ok_or_else(|| DbError::UnknownTable(format!("{}", def.table)))?;
        for &c in def.key_cols.iter().chain(&def.include_cols) {
            if c as usize >= table.columns().len() {
                return Err(DbError::UnknownColumn {
                    table: table.name().to_string(),
                    column: format!("ordinal {c}"),
                });
            }
        }
        let id = IndexId(self.next_index);
        self.next_index += 1;
        let ix = Index::build(id, def.clone(), self.base.table(def.table));
        let growth_at_creation = self.index_growth(def.table);
        let meta = IndexMeta {
            id,
            def,
            size_bytes: (ix.size_bytes() as f64 * growth_at_creation).ceil() as u64,
        };
        self.indexes.insert(id, Arc::new(ix));
        self.created_growth.insert(id, growth_at_creation);
        self.bump_version(meta.def.table);
        Ok(meta)
    }

    // bumps: catalog_version
    pub fn drop_index(&mut self, id: IndexId) -> DbResult<()> {
        let ix = self
            .indexes
            .remove(&id)
            .ok_or(DbError::UnknownIndex(id.raw()))?;
        self.created_growth.remove(&id);
        self.bump_version(ix.def().table);
        Ok(())
    }

    pub fn index(&self, id: IndexId) -> DbResult<&Arc<Index>> {
        self.indexes.get(&id).ok_or(DbError::UnknownIndex(id.raw()))
    }

    /// All materialised indexes on `table`.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &Arc<Index>> {
        self.indexes
            .values()
            .filter(move |ix| ix.def().table == table)
    }

    pub fn all_indexes(&self) -> impl Iterator<Item = &Arc<Index>> {
        self.indexes.values()
    }

    /// Find a materialised index with exactly this definition.
    pub fn find_index(&self, def: &IndexDef) -> Option<&Arc<Index>> {
        self.indexes.values().find(|ix| ix.def() == def)
    }

    /// Fresh catalog over the same shared base data, with no indexes and no
    /// drift — used to give each tuner an identical starting state. Costs
    /// one `Arc` bump; the generated data is never copied.
    pub fn fork_empty(&self) -> Catalog {
        Catalog::from_base(Arc::clone(&self.base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnType;
    use crate::gen::{ColumnSpec, Distribution};
    use crate::table::{TableBuilder, TableSchema};

    fn catalog() -> Catalog {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("a", ColumnType::Int, Distribution::Uniform { lo: 0, hi: 9 }),
                ColumnSpec::new("b", ColumnType::Int, Distribution::Sequential),
            ],
        );
        let t = TableBuilder::new(schema, 500).build(TableId(0), 3);
        Catalog::new(vec![t])
    }

    #[test]
    fn create_and_drop_index() {
        let mut cat = catalog();
        let meta = cat
            .create_index(IndexDef::new(TableId(0), vec![0], vec![1]))
            .unwrap();
        assert!(cat.index(meta.id).is_ok());
        assert_eq!(cat.indexes_on(TableId(0)).count(), 1);
        assert!(cat.index_bytes() > 0);
        cat.drop_index(meta.id).unwrap();
        assert!(cat.index(meta.id).is_err());
        assert_eq!(cat.index_bytes(), 0);
    }

    #[test]
    fn create_index_validates_columns() {
        let mut cat = catalog();
        let err = cat
            .create_index(IndexDef {
                table: TableId(0),
                key_cols: vec![9],
                include_cols: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, DbError::UnknownColumn { .. }));
        let err = cat
            .create_index(IndexDef {
                table: TableId(0),
                key_cols: vec![],
                include_cols: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, DbError::Invalid(_)));
    }

    #[test]
    fn find_index_by_definition() {
        let mut cat = catalog();
        let def = IndexDef::new(TableId(0), vec![0], vec![]);
        cat.create_index(def.clone()).unwrap();
        assert!(cat.find_index(&def).is_some());
        let other = IndexDef::new(TableId(0), vec![1], vec![]);
        assert!(cat.find_index(&other).is_none());
    }

    #[test]
    fn fork_empty_shares_base_but_not_indexes() {
        let mut cat = catalog();
        cat.create_index(IndexDef::new(TableId(0), vec![0], vec![]))
            .unwrap();
        let before = Arc::strong_count(cat.base());
        let fork = cat.fork_empty();
        assert_eq!(fork.all_indexes().count(), 0);
        assert_eq!(fork.tables().len(), 1);
        // Zero-copy: the fork holds the same allocation, one more ref.
        assert!(Arc::ptr_eq(fork.base(), cat.base()));
        assert_eq!(Arc::strong_count(cat.base()), before + 1);
    }

    #[test]
    fn table_lookup_by_name_errors_cleanly() {
        let cat = catalog();
        assert!(cat.table_by_name("t").is_ok());
        assert!(matches!(
            cat.table_by_name("missing"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn database_bytes_sums_heaps() {
        let cat = catalog();
        assert_eq!(cat.database_bytes(), 16 * 500);
    }

    #[test]
    fn drift_moves_live_rows_and_heap_pages() {
        let mut cat = catalog();
        assert!(!cat.has_drift());
        assert_eq!(cat.live_rows(TableId(0)), 500);
        let pages_before = cat.live_heap_pages(TableId(0));
        let db_before = cat.database_bytes();

        cat.apply_drift(TableId(0), 100_000, 50, 20);
        assert!(cat.has_drift());
        assert_eq!(cat.live_rows(TableId(0)), 500 + 100_000 - 20);
        assert!(cat.live_heap_pages(TableId(0)) > pages_before);
        assert!(cat.database_bytes() > db_before);
        let d = cat.drift_state(TableId(0));
        assert_eq!(d.rows_changed(), 100_000 + 50 + 20);
    }

    #[test]
    fn deletes_cap_at_live_rows_and_keep_heap_pages() {
        let mut cat = catalog();
        // Deleting more rows than exist (500) caps at the live count.
        let applied = cat.apply_drift(TableId(0), 0, 0, 9_999);
        assert_eq!(applied.deleted, 500, "applied delta reports the cap");
        assert_eq!(cat.live_rows(TableId(0)), 0);
        // Dead rows still occupy the heap (no vacuum).
        let t_pages = cat.table(TableId(0)).heap_pages();
        assert_eq!(cat.live_heap_pages(TableId(0)), t_pages);
        // Further deletes and updates on the drained table are no-ops.
        let applied = cat.apply_drift(TableId(0), 0, 7, 10);
        assert_eq!(applied.deleted, 0);
        assert_eq!(applied.updated, 0);
        assert_eq!(applied.rows_changed(), 0);
        assert_eq!(cat.live_rows(TableId(0)), 0);
    }

    #[test]
    fn index_growth_tracks_inserts_only() {
        let mut cat = catalog();
        assert_eq!(cat.index_growth(TableId(0)), 1.0);
        cat.apply_drift(TableId(0), 500, 100, 100);
        // 500 base rows + 500 inserted = 2× leaves; updates/deletes don't
        // grow the leaf level (dead entries replace live ones).
        assert!((cat.index_growth(TableId(0)) - 2.0).abs() < 1e-12);
    }

    /// The drift-sizing contract: an index created *after* the table grew
    /// is creation-priced at the grown size and billed only for growth it
    /// actually absorbs; an index created *before* the growth is billed
    /// for all of it.
    #[test]
    fn per_index_growth_bills_only_growth_since_creation() {
        let mut cat = catalog();
        let early = cat
            .create_index(IndexDef::new(TableId(0), vec![0], vec![]))
            .unwrap();
        let base_size = early.size_bytes;

        // Table doubles its indexed population (500 → 1000 insert-rows).
        cat.apply_drift(TableId(0), 500, 0, 0);
        assert!((cat.index_growth(TableId(0)) - 2.0).abs() < 1e-12);
        // The early index absorbed the doubling.
        assert!((cat.index_growth_of(early.id) - 2.0).abs() < 1e-12);
        assert_eq!(cat.index_live_bytes(early.id), base_size * 2);
        assert_eq!(cat.index_creation_bytes(early.id), base_size);

        // A late index is built over the doubled table: creation size is
        // live-scaled, and it has absorbed no growth yet.
        let late = cat
            .create_index(IndexDef::new(TableId(0), vec![1], vec![]))
            .unwrap();
        let late_base = cat.index(late.id).unwrap().size_bytes();
        assert_eq!(late.size_bytes, late_base * 2, "creation billed live");
        assert!((cat.index_growth_of(late.id) - 1.0).abs() < 1e-12);
        assert_eq!(cat.index_live_bytes(late.id), late.size_bytes);
        assert_eq!(cat.index_creation_bytes(late.id), late.size_bytes);

        // Another 50% growth on the doubled base: early = 3×, late = 1.5×.
        cat.apply_drift(TableId(0), 500, 0, 0);
        assert!((cat.index_growth_of(early.id) - 3.0).abs() < 1e-12);
        assert!((cat.index_growth_of(late.id) - 1.5).abs() < 1e-12);
        // Live sizes agree between per-index and total accounting.
        assert_eq!(
            cat.live_index_bytes(),
            cat.index_live_bytes(early.id) + cat.index_live_bytes(late.id)
        );
        assert!(cat.live_index_bytes() > cat.index_bytes());

        // A hypothetical (unknown) id has by definition absorbed nothing.
        assert!((cat.index_growth_of(IndexId(999)) - 1.0).abs() < 1e-12);
        assert_eq!(cat.index_live_bytes(IndexId(999)), 0);
    }

    #[test]
    fn estimated_live_bytes_tracks_insert_growth() {
        let mut cat = catalog();
        let def = IndexDef::new(TableId(0), vec![0], vec![]);
        let flat = cat.estimated_live_bytes(&def);
        assert_eq!(flat, def.estimated_bytes(cat.table(TableId(0))));
        cat.apply_drift(TableId(0), 1000, 0, 0);
        let grown = cat.estimated_live_bytes(&def);
        assert_eq!(grown, flat * 3, "500 base + 1000 inserted = 3× the rows");
        // Deletes leave dead entries behind: the estimate never shrinks.
        cat.apply_drift(TableId(0), 0, 0, 1200);
        assert_eq!(cat.estimated_live_bytes(&def), grown);
    }

    #[test]
    fn fork_empty_resets_drift() {
        let mut cat = catalog();
        cat.apply_drift(TableId(0), 10, 10, 10);
        let fork = cat.fork_empty();
        assert!(!fork.has_drift());
        assert_eq!(fork.live_rows(TableId(0)), 500);
    }

    #[test]
    fn table_versions_move_on_index_changes_and_drift_only() {
        let mut cat = catalog();
        assert_eq!(cat.table_version(TableId(0)), 0);

        let meta = cat
            .create_index(IndexDef::new(TableId(0), vec![0], vec![]))
            .unwrap();
        assert_eq!(cat.table_version(TableId(0)), 1, "create bumps");
        cat.drop_index(meta.id).unwrap();
        assert_eq!(cat.table_version(TableId(0)), 2, "drop bumps");

        cat.apply_drift(TableId(0), 10, 0, 0);
        assert_eq!(cat.table_version(TableId(0)), 3, "applied drift bumps");
        // A drift round that touches no rows leaves the version alone.
        let applied = cat.apply_drift(TableId(0), 0, 0, 0);
        assert_eq!(applied.rows_changed(), 0);
        assert_eq!(cat.table_version(TableId(0)), 3);

        // Forks start from version 0 again.
        assert_eq!(cat.fork_empty().table_version(TableId(0)), 0);
    }

    #[test]
    fn base_data_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BaseData>();
        assert_send_sync::<Catalog>();
    }

    #[test]
    fn ids_are_monotonic() {
        let mut cat = catalog();
        let a = cat
            .create_index(IndexDef::new(TableId(0), vec![0], vec![]))
            .unwrap();
        let b = cat
            .create_index(IndexDef::new(TableId(0), vec![1], vec![]))
            .unwrap();
        assert!(b.id.raw() > a.id.raw());
        cat.drop_index(a.id).unwrap();
        let c = cat
            .create_index(IndexDef::new(TableId(0), vec![0, 1], vec![]))
            .unwrap();
        assert!(c.id.raw() > b.id.raw(), "ids are never reused");
    }
}
