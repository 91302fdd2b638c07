//! The executor: runs a physical [`Plan`] against real column data.
//!
//! Execution is *actual*: every predicate is evaluated over the stored codes
//! by one selection-vector filter, seeks probe the sorted index, refine the
//! leaf range and gather the needed columns from the heap, covering scans
//! filter the columns their index holds, joins materialise real matching
//! row ids and aggregates sum the payload. Every operator is priced from
//! the shared [`CostModel`] using the **observed** cardinalities. The
//! per-access statistics it emits ([`AccessStats`]) are exactly the
//! observations the paper's reward shaping consumes: which index served
//! which table, how long the access took, and what a full table scan cost
//! when one was performed.
//!
//! An executor built with an enabled [`BudgetTimer`] also times each
//! operator with one `mark`/`elapsed_secs` pair and records an [`OpSample`]
//! pairing the operator's work counters with both its price and the
//! measured seconds. [`BackendKind`] only picks which of the two times the
//! execution reports: `Simulated` reports the price, so a timed simulated
//! run is bit-identical to an untimed one; `Measured` reports the clock.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dba_common::{BudgetTimer, IndexId, QueryId, SimSeconds, TableId};
use dba_storage::{Catalog, Index, Table, PAGE_BYTES};

use crate::backend::{BackendKind, OpKind, OpSample};
use crate::cost::CostModel;
use crate::plan::{seek_shape, AccessMethod, JoinAlgo, Plan};
use crate::query::{Predicate, Query};

/// Rows per batch in the vectorized filter: one selection-vector refill
/// per window keeps the working set cache-resident.
const BATCH_ROWS: usize = 4096;

/// Observed statistics for one table access operator.
#[derive(Debug, Clone)]
pub struct AccessStats {
    pub table: TableId,
    /// The index used, or `None` for a heap scan.
    pub index: Option<IndexId>,
    /// Time charged to this access operator (for index nested-loop inner
    /// sides: the total across all probes).
    pub time: SimSeconds,
    /// Actual rows emitted after local predicates.
    pub rows_out: u64,
    /// True if this was a full heap scan (reference time for reward shaping).
    pub is_full_scan: bool,
}

/// Observed execution of one query.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    pub query: QueryId,
    pub total: SimSeconds,
    pub accesses: Vec<AccessStats>,
    pub join_time: SimSeconds,
    pub agg_time: SimSeconds,
    pub result_rows: u64,
}

impl QueryExecution {
    /// Ids of all indexes the optimiser's plan actually used.
    pub fn indexes_used(&self) -> Vec<IndexId> {
        let mut out = Vec::new();
        for a in &self.accesses {
            if let Some(ix) = a.index {
                if !out.contains(&ix) {
                    out.push(ix);
                }
            }
        }
        out
    }

    /// The observed full-scan time of `table` in this execution, if the plan
    /// performed one.
    pub fn full_scan_time(&self, table: TableId) -> Option<SimSeconds> {
        self.accesses
            .iter()
            .find(|a| a.table == table && a.is_full_scan)
            .map(|a| a.time)
    }

    /// Maximum index access time observed on `table` (footnote-3 fallback
    /// for the full-scan reference).
    pub fn max_index_time(&self, table: TableId) -> Option<SimSeconds> {
        self.accesses
            .iter()
            .filter(|a| a.table == table && a.index.is_some())
            .map(|a| a.time)
            .max_by(|a, b| a.total_cmp(b))
    }
}

/// Runs plans over the catalog, producing observed statistics.
#[derive(Debug)]
pub struct Executor {
    cost: CostModel,
    /// Which time the execution reports: the price or the clock.
    kind: BackendKind,
    timer: BudgetTimer,
    /// Samples recorded since the last drain; stays unallocated when the
    /// timer is disabled.
    samples: Vec<OpSample>,
}

/// Intermediate relation during left-deep join execution: parallel vectors
/// of row ids, one per already-joined table.
struct Intermediate {
    tables: Vec<TableId>,
    /// `columns[i][k]` = row id in `tables[i]` for output tuple `k`.
    columns: Vec<Vec<u32>>,
    len: usize,
}

impl Intermediate {
    fn single(table: TableId, rows: Vec<u32>) -> Self {
        let len = rows.len();
        Intermediate {
            tables: vec![table],
            columns: vec![rows],
            len,
        }
    }

    fn table_pos(&self, table: TableId) -> Option<usize> {
        self.tables.iter().position(|&t| t == table)
    }
}

impl Executor {
    /// The simulated executor: prices every operator and times none.
    pub fn new(cost: CostModel) -> Self {
        Executor::timed(cost, BackendKind::Simulated, BudgetTimer::disabled())
    }

    /// An executor that also times every operator on `timer`, reporting
    /// the price (`Simulated`) or the measured seconds (`Measured`).
    ///
    /// Panics if `kind` is `Measured` and `timer` is disabled: such an
    /// executor would have no time to report.
    pub fn timed(cost: CostModel, kind: BackendKind, timer: BudgetTimer) -> Self {
        assert!(
            kind == BackendKind::Simulated || timer.is_enabled(),
            "a measured executor needs an enabled timer"
        );
        Executor {
            cost,
            kind,
            timer,
            samples: Vec::new(),
        }
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Drain the operator samples recorded since the last call (none
    /// without a timer).
    pub fn take_op_samples(&mut self) -> Vec<OpSample> {
        std::mem::take(&mut self.samples)
    }

    /// Close the operator whose work began at the last `timer.mark()`:
    /// when timed, record its sample; return the time the execution is
    /// charged for it.
    fn charge(&mut self, price: SimSeconds, sample: OpSample) -> SimSeconds {
        let Some(measured_s) = self.timer.elapsed_secs() else {
            return price;
        };
        self.samples.push(OpSample {
            sim_s: price.secs(),
            measured_s,
            ..sample
        });
        match self.kind {
            BackendKind::Simulated => price,
            BackendKind::Measured => SimSeconds::new(measured_s),
        }
    }

    /// Execute `plan` for `query`, returning observed statistics.
    ///
    /// Panics if the plan references indexes that are not materialised —
    /// plans must be produced against the same catalog state.
    pub fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        let mut accesses = Vec::with_capacity(1 + plan.joins.len());
        let mut join_time = SimSeconds::ZERO;

        // Driver access.
        let driver_table = catalog.table(plan.driver.table);
        let preds = query.predicates_on(plan.driver.table);
        let (rows, stats) =
            self.run_access(catalog, driver_table, &plan.driver.method, &preds, query);
        accesses.push(stats);
        let mut inter = Intermediate::single(plan.driver.table, rows);

        // Join steps.
        for step in &plan.joins {
            let inner_table = catalog.table(step.access.table);
            let inner_preds = query.predicates_on(step.access.table);
            // The outer side of this join lives on an already-joined table.
            let outer_col = step
                .join
                .other_side(step.access.table)
                .expect("join step must connect to the new table");
            let outer_pos = inter
                .table_pos(outer_col.table)
                .expect("left-deep plan: outer table must already be joined");
            let inner_col = step
                .join
                .side_on(step.access.table)
                .expect("join step must reference the new table");

            match step.algo {
                JoinAlgo::Hash => {
                    let (inner_rows, stats) = self.run_access(
                        catalog,
                        inner_table,
                        &step.access.method,
                        &inner_preds,
                        query,
                    );
                    accesses.push(stats);

                    // Build on the smaller input, probe with the other. The
                    // price and the sample keep the cost model's roles,
                    // build = inner rows and probe = outer tuples, whichever
                    // side is built. The build table and the hit list are
                    // dropped inside `hash_join`, so their teardown is timed
                    // with the join.
                    self.timer.mark();
                    let new_cols = hash_join(
                        &inter.columns,
                        outer_pos,
                        catalog
                            .table(outer_col.table)
                            .column(outer_col.ordinal)
                            .data(),
                        &inner_rows,
                        inner_table.column(inner_col.ordinal).data(),
                    );
                    let build_rows = inner_rows.len() as u64;
                    let probe_rows = inter.len as u64;
                    let len = new_cols[0].len();
                    let price = self.cost.hash_join(build_rows, probe_rows, len as u64);
                    join_time += self.charge(
                        price,
                        OpSample {
                            build_rows,
                            probe_rows,
                            out_rows: len as u64,
                            ..OpSample::with_op(OpKind::HashJoin)
                        },
                    );
                    inter.tables.push(step.access.table);
                    inter.columns = new_cols;
                    inter.len = len;
                }
                JoinAlgo::IndexNestedLoop => {
                    let index_id = step
                        .access
                        .method
                        .index_id()
                        .expect("INL join requires an inner index");
                    let index = catalog
                        .index(index_id)
                        .expect("plan references unmaterialised index");
                    let covering = matches!(
                        step.access.method,
                        AccessMethod::IndexSeek { covering: true, .. }
                    );
                    // Sorts the leaf order on first read, outside the timing.
                    let order = index.ordered_rows(inner_table);

                    self.timer.mark();
                    let leaf_cap = leaf_capacity(inner_table, index);
                    let outer_vals = catalog.table(outer_col.table).column(outer_col.ordinal);
                    let mut new_cols: Vec<Vec<u32>> =
                        (0..inter.columns.len() + 1).map(|_| Vec::new()).collect();
                    let mut total_matched = 0u64;
                    let mut leaves = 0u64;
                    // Each probe's matches, refined in one reused buffer.
                    let mut matches = Vec::new();
                    for k in 0..inter.len {
                        let ov = outer_vals.value(inter.columns[outer_pos][k] as usize);
                        let (s, e) = index.probe(inner_table, &[ov], None);
                        total_matched += (e - s) as u64;
                        leaves += leaves_spanned(index, leaf_cap, s, e);
                        matches.clear();
                        matches.extend_from_slice(&order[s..e]);
                        refine(inner_table, &inner_preds, &mut matches);
                        for (col, filled) in inter.columns.iter().zip(&mut new_cols) {
                            filled.extend(std::iter::repeat_n(col[k], matches.len()));
                        }
                        new_cols[inter.columns.len()].extend_from_slice(&matches);
                    }
                    let total_out = new_cols[0].len() as u64;
                    let heap_fetches = if covering { 0 } else { total_matched };
                    let price = self.cost.inl_probes(
                        inter.len as u64,
                        total_matched,
                        index.def().leaf_row_bytes(inner_table),
                        heap_fetches,
                        catalog.live_heap_pages(step.access.table),
                    );
                    let time = self.charge(
                        price,
                        OpSample {
                            pages: leaves,
                            rows: total_matched,
                            descents: inter.len as u64,
                            out_rows: total_out,
                            ..OpSample::with_op(OpKind::InlProbe)
                        },
                    );
                    accesses.push(AccessStats {
                        table: step.access.table,
                        index: Some(index_id),
                        time,
                        rows_out: total_out,
                        is_full_scan: false,
                    });
                    inter.tables.push(step.access.table);
                    inter.columns = new_cols;
                    inter.len = total_out as usize;
                }
            }
        }

        let agg_time = if query.aggregated {
            // Sum every payload column over the joined row ids: the work
            // `agg_row_s` prices.
            self.timer.mark();
            for pc in &query.payload {
                if let Some(pos) = inter.table_pos(pc.table) {
                    let col = catalog.table(pc.table).column(pc.ordinal).data();
                    let sum = inter.columns[pos]
                        .iter()
                        .fold(0i64, |acc, &r| acc.wrapping_add(col[r as usize]));
                    std::hint::black_box(sum);
                }
            }
            let price = self.cost.aggregate(inter.len as u64);
            self.charge(
                price,
                OpSample {
                    rows: inter.len as u64,
                    out_rows: 1,
                    ..OpSample::with_op(OpKind::Aggregate)
                },
            )
        } else {
            SimSeconds::ZERO
        };

        let total = accesses.iter().map(|a| a.time).sum::<SimSeconds>() + join_time + agg_time;
        QueryExecution {
            query: query.id,
            total,
            accesses,
            join_time,
            agg_time,
            result_rows: inter.len as u64,
        }
    }

    /// Run a single-table access, returning its matching row ids and stats.
    /// Scans, covering scans among them, return the rows ascending. A seek
    /// returns them in leaf order, by (key tuple, row id), so a range seek's
    /// row ids need not ascend.
    fn run_access(
        &mut self,
        catalog: &Catalog,
        table: &Table,
        method: &AccessMethod,
        preds: &[Predicate],
        query: &Query,
    ) -> (Vec<u32>, AccessStats) {
        let (rows, index, price, sample) = match method {
            AccessMethod::FullScan => {
                self.timer.mark();
                let rows = batch_filter(table, preds);
                // Priced over the *live* heap: drift-grown tables scan
                // slower even though only generated rows materialise.
                let price = self.cost.scan(
                    catalog.live_heap_pages(table.id()),
                    catalog.live_rows(table.id()),
                );
                let sample = OpSample {
                    pages: table.heap_pages(),
                    rows: table.rows() as u64,
                    ..OpSample::with_op(OpKind::SeqScan)
                };
                (rows, None, price, sample)
            }
            AccessMethod::IndexSeek { index, covering } => {
                let ix = catalog
                    .index(*index)
                    .expect("plan references unmaterialised index");
                let shape = seek_shape(ix.def(), preds);
                let leaf_cap = leaf_capacity(table, ix);
                // Sorts the leaf order on first read, outside the timing.
                let order = ix.ordered_rows(table);

                self.timer.mark();
                let (s, e) = ix.probe(table, &shape.eq_values, shape.range);
                let matched = (e - s) as u64;
                let mut rows = order[s..e].to_vec();
                refine(table, &shape.residual, &mut rows);
                // A non-covering seek fetches the columns the query needs
                // from the heap: the work the random heap reads stand for.
                if !covering {
                    let mut fetched = Vec::new();
                    for ord in query.columns_needed_on(table.id()) {
                        table.column(ord).gather_into(&rows, &mut fetched);
                        std::hint::black_box(fetched.as_slice());
                    }
                }
                let heap_fetches = if *covering { 0 } else { matched };
                let price = self.cost.index_seek(
                    matched,
                    ix.def().leaf_row_bytes(table),
                    heap_fetches,
                    catalog.live_heap_pages(table.id()),
                );
                let sample = OpSample {
                    pages: leaves_spanned(ix, leaf_cap, s, e),
                    rows: matched,
                    descents: 1,
                    ..OpSample::with_op(OpKind::IndexSeek)
                };
                (rows, Some(*index), price, sample)
            }
            AccessMethod::CoveringScan { index } => {
                let ix = catalog
                    .index(*index)
                    .expect("plan references unmaterialised index");
                debug_assert!(
                    ix.def().covers(&query.columns_needed_on(table.id())),
                    "covering scan over a non-covering index"
                );

                // The leaves hold every column the query reads and each row
                // once, so filtering those columns in row order yields the
                // scan's matches, ascending.
                self.timer.mark();
                let rows = batch_filter(table, preds);
                // Maintained leaves grow with the table (drift): the
                // catalog's live accounting scales each index by the growth
                // it actually absorbed since creation.
                let price = self.cost.covering_scan(
                    catalog.index_live_leaf_pages(ix.id()),
                    catalog.live_rows(table.id()),
                );
                let leaves = ix.rows().div_ceil(leaf_capacity(table, ix));
                let sample = OpSample {
                    pages: leaves as u64,
                    rows: table.rows() as u64,
                    ..OpSample::with_op(OpKind::CoveringScan)
                };
                (rows, Some(*index), price, sample)
            }
        };
        let rows_out = rows.len() as u64;
        let time = self.charge(
            price,
            OpSample {
                out_rows: rows_out,
                ..sample
            },
        );
        let stats = AccessStats {
            table: table.id(),
            index,
            time,
            rows_out,
            is_full_scan: index.is_none(),
        };
        (rows, stats)
    }
}

/// Multiplicative hasher for the hash join's `i64` keys.
///
/// Join keys are column codes from the program's own seeded generator,
/// never outside input, so the join table needs no defence against keys
/// crafted to collide and can skip SipHash. The table picks a bucket from
/// the hash's low bits, and the low bits of a product depend only on the
/// low bits of the key: keys that differ only above bit 31, such as the
/// strides `k·2^32`, would all share one bucket. Folding the 128-bit
/// product's high half into its low half lets every key bit reach them.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("join keys are i64 and hash through write_i64")
    }

    #[inline]
    fn write_i64(&mut self, key: i64) {
        let product = u128::from(key as u64) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Build keys spanning at most this many codes per row of the join's two
/// inputs together are direct addressed. That bounds the slot array at 4
/// `u32` bounds, 16 bytes, per input row, at most twice what the join holds
/// anyway: a 4-byte row id per input row, and an 8-byte candidate hit per
/// row of the probe side, the larger input. Counting both inputs, not the
/// build side alone, keeps a small build direct when a large side probes
/// it: a filtered `orders` slice keeps a wide span over its few rows, but
/// not over the `lineitem` rows that probe it.
const DIRECT_CODES_PER_ROW: u64 = 4;

/// How a join key finds its slot in a [`JoinTable`].
enum SlotIndex {
    /// Dense build keys: key `k`'s slot is `k - min`, one slot for each of
    /// the `span` codes from `min`, whether any build entry holds it or not.
    Direct { min: i64, span: u64 },
    /// Sparse build keys: one slot per distinct key, in order of first
    /// appearance.
    Map(HashMap<i64, u32, BuildHasherDefault<KeyHasher>>),
}

/// The build side of one hash join in CSR form: `index` gives each key's
/// slot, and slot `s` owns the build entries `rows[bounds[s]..bounds[s + 1]]`
/// in build-input order. One more slot after the keys' slots is always
/// empty: a probe key no build entry holds gets it, so a probe reads a slot
/// and a hit flag without branching on whether the key was found.
struct JoinTable {
    index: SlotIndex,
    bounds: Vec<u32>,
    rows: Vec<u32>,
}

impl JoinTable {
    /// Build over `len` entries, where `entry(i)` is the `i`th entry's
    /// stored id and join key, for a join whose two inputs hold
    /// `input_rows` rows.
    fn build(len: usize, input_rows: usize, entry: impl Fn(usize) -> (u32, i64)) -> Self {
        // Each entry's slot, and in `bounds` the entries of each slot, then
        // the empty slot and one extra entry for the last end.
        let mut slot_of = Vec::with_capacity(len);
        let (index, mut bounds) = match dense_span((0..len).map(|i| entry(i).1), input_rows) {
            Some((min, span)) => {
                let mut bounds = vec![0u32; span as usize + 2];
                for i in 0..len {
                    let slot = entry(i).1.wrapping_sub(min) as u32;
                    bounds[slot as usize] += 1;
                    slot_of.push(slot);
                }
                (SlotIndex::Direct { min, span }, bounds)
            }
            None => {
                let mut slots = HashMap::with_capacity_and_hasher(len, Default::default());
                let mut bounds: Vec<u32> = Vec::new();
                for i in 0..len {
                    let fresh = bounds.len() as u32;
                    let slot = *slots.entry(entry(i).1).or_insert(fresh);
                    if slot == fresh {
                        bounds.push(0);
                    }
                    bounds[slot as usize] += 1;
                    slot_of.push(slot);
                }
                bounds.extend([0, 0]);
                (SlotIndex::Map(slots), bounds)
            }
        };
        // Running sums turn the counts into slot ends. Filling each slot
        // backwards from its end keeps input order within the slot and
        // leaves `bounds[s]` at its start; the extra entry is the last end.
        let mut end = 0;
        for b in &mut bounds {
            end += *b;
            *b = end;
        }
        let mut grouped = vec![0u32; len];
        for (i, &slot) in slot_of.iter().enumerate().rev() {
            let b = &mut bounds[slot as usize];
            *b -= 1;
            grouped[*b as usize] = entry(i).0;
        }
        JoinTable {
            index,
            bounds,
            rows: grouped,
        }
    }

    /// Probe with each `(id, key)` in order. Returns the `(id, slot)` hits
    /// in probe order and the output rows they make, one per build entry
    /// in each hit's slot. A key that no build entry holds gets the empty
    /// slot, and every probe writes its candidate hit while the cursor
    /// moves past hits only, so the direct path takes no data-dependent
    /// branch.
    fn probe(&self, probes: impl ExactSizeIterator<Item = (u32, i64)>) -> (Vec<(u32, u32)>, usize) {
        let mut hits = vec![(0u32, 0u32); probes.len()];
        let (mut n, mut len) = (0, 0);
        let mut record = |id, slot: u32| {
            let (start, end) = (self.bounds[slot as usize], self.bounds[slot as usize + 1]);
            hits[n] = (id, slot);
            n += usize::from(start < end);
            len += (end - start) as usize;
        };
        match &self.index {
            // A key below `min` wraps to `2^64 - (min - key)`, which is at
            // least `span` because the span ends by `i64::MAX`: one unsigned
            // `min` sends keys off either end to the empty slot `span`.
            SlotIndex::Direct { min, span } => {
                for (id, key) in probes {
                    record(id, (key.wrapping_sub(*min) as u64).min(*span) as u32);
                }
            }
            SlotIndex::Map(slots) => {
                let empty = (self.bounds.len() - 2) as u32;
                for (id, key) in probes {
                    record(id, slots.get(&key).copied().unwrap_or(empty));
                }
            }
        }
        hits.truncate(n);
        (hits, len)
    }

    fn slot_rows(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        &self.rows[self.bounds[s] as usize..self.bounds[s + 1] as usize]
    }
}

/// The least of `keys` and the number of codes from it to the greatest,
/// when that is at most [`DIRECT_CODES_PER_ROW`] per input row and fits a
/// `u32` slot. No keys span no codes. Sparse keys outgrow the limit within
/// a few rows, and the scan stops there.
fn dense_span(mut keys: impl Iterator<Item = i64>, input_rows: usize) -> Option<(i64, u64)> {
    let limit = (DIRECT_CODES_PER_ROW * input_rows as u64).min(u64::from(u32::MAX));
    let Some(first) = keys.next() else {
        return Some((0, 0));
    };
    let (mut min, mut max) = (first, first);
    for k in keys {
        min = min.min(k);
        max = max.max(k);
        // `abs_diff` cannot overflow, even from `i64::MIN` to `i64::MAX`.
        if max.abs_diff(min) >= limit {
            return None;
        }
    }
    Some((min, max.abs_diff(min) + 1))
}

/// The input a hash join builds its table on.
#[derive(Debug, PartialEq)]
enum Side {
    Inner,
    Outer,
}

/// Build the join's table on whichever input has fewer rows, the inner one
/// on a tie. An inner table stores inner row `r` under `inner_keys[r]`; an
/// outer table stores tuple number `k` under `outer_keys[outer[key_col][k]]`.
fn build_smaller_side(
    outer: &[Vec<u32>],
    key_col: usize,
    outer_keys: &[i64],
    inner_rows: &[u32],
    inner_keys: &[i64],
) -> (Side, JoinTable) {
    let probe = &outer[key_col];
    let input_rows = probe.len() + inner_rows.len();
    if inner_rows.len() <= probe.len() {
        let table = JoinTable::build(inner_rows.len(), input_rows, |i| {
            let r = inner_rows[i];
            (r, inner_keys[r as usize])
        });
        (Side::Inner, table)
    } else {
        let table = JoinTable::build(probe.len(), input_rows, |k| {
            (k as u32, outer_keys[probe[k] as usize])
        });
        (Side::Outer, table)
    }
}

/// Hash-join the intermediate `outer` (row-id columns) with the rows
/// `inner_rows`: outer tuple `k` matches inner row `r` when
/// `outer_keys[outer[key_col][k]] == inner_keys[r]`. Returns the outer
/// columns followed by the inner row-id column, probe-major and, within
/// one outer tuple, in `inner_rows` order: a nested loop's output exactly,
/// whichever side is built.
fn hash_join(
    outer: &[Vec<u32>],
    key_col: usize,
    outer_keys: &[i64],
    inner_rows: &[u32],
    inner_keys: &[i64],
) -> Vec<Vec<u32>> {
    assert!(
        u32::try_from(outer[key_col].len()).is_ok(),
        "intermediate tuples are indexed by u32"
    );
    match build_smaller_side(outer, key_col, outer_keys, inner_rows, inner_keys) {
        (Side::Inner, table) => probe_with_outer(table, outer, key_col, outer_keys),
        (Side::Outer, table) => probe_with_inner(table, outer, inner_rows, inner_keys),
    }
}

/// Probe an inner-row `table` with each outer tuple in order: the hits
/// come out probe-major, so each output column fills in one pass into
/// capacity reserved for the output length.
fn probe_with_outer(
    table: JoinTable,
    outer: &[Vec<u32>],
    key_col: usize,
    outer_keys: &[i64],
) -> Vec<Vec<u32>> {
    let probe = &outer[key_col];
    let (hits, len) = table.probe(
        probe
            .iter()
            .enumerate()
            .map(|(k, &r)| (k as u32, outer_keys[r as usize])),
    );
    let mut out = Vec::with_capacity(outer.len() + 1);
    for col in outer {
        let mut filled = Vec::with_capacity(len);
        for &(k, slot) in &hits {
            let n = table.slot_rows(slot).len();
            filled.extend(std::iter::repeat_n(col[k as usize], n));
        }
        out.push(filled);
    }
    let mut filled = Vec::with_capacity(len);
    for &(_, slot) in &hits {
        filled.extend_from_slice(table.slot_rows(slot));
    }
    out.push(filled);
    out
}

/// Probe an outer-tuple `table` with each inner row in order, then lay the
/// output out probe-major: tuple `k` emits one row for each inner hit on
/// its slot, in inner order. A count, a prefix sum and a scatter give each
/// hit its place among the rows of every tuple it matches.
fn probe_with_inner(
    table: JoinTable,
    outer: &[Vec<u32>],
    inner_rows: &[u32],
    inner_keys: &[i64],
) -> Vec<Vec<u32>> {
    let (hits, len) = table.probe(inner_rows.iter().map(|&r| (r, inner_keys[r as usize])));
    // Each tuple's output rows, turned into its first output position.
    let mut at = vec![0usize; outer[0].len()];
    for &(_, slot) in &hits {
        for &k in table.slot_rows(slot) {
            at[k as usize] += 1;
        }
    }
    let mut next = 0;
    for a in &mut at {
        (*a, next) = (next, next + *a);
    }
    // Each hit takes the next position of every tuple it matches, which
    // leaves `at[k]` at tuple `k`'s end.
    let mut inner_col = vec![0u32; len];
    for &(r, slot) in &hits {
        for &k in table.slot_rows(slot) {
            let a = &mut at[k as usize];
            inner_col[*a] = r;
            *a += 1;
        }
    }
    let mut out = Vec::with_capacity(outer.len() + 1);
    for col in outer {
        let mut filled = Vec::with_capacity(len);
        let mut start = 0;
        for (&v, &end) in col.iter().zip(&at) {
            filled.extend(std::iter::repeat_n(v, end - start));
            start = end;
        }
        out.push(filled);
    }
    out.push(inner_col);
    out
}

/// Entries per physical leaf page of `index` (at least 8).
fn leaf_capacity(table: &Table, index: &Index) -> usize {
    ((PAGE_BYTES / index.def().leaf_row_bytes(table)) as usize).max(8)
}

/// Leaf pages a probe touches to return entries `[start, end)`: the pages
/// the range spans, or the one leaf a miss lands on (none in an empty
/// index).
fn leaves_spanned(index: &Index, leaf_cap: usize, start: usize, end: usize) -> u64 {
    if index.rows() == 0 {
        0
    } else if end > start {
        ((end - 1) / leaf_cap - start / leaf_cap + 1) as u64
    } else {
        1
    }
}

/// Row ids of `table` matching all `preds`, ascending: seed a selection
/// vector per [`BATCH_ROWS`] window from the first predicate, then
/// [`refine`] it with the rest.
fn batch_filter(table: &Table, preds: &[Predicate]) -> Vec<u32> {
    let n = table.rows();
    let Some((first, rest)) = preds.split_first() else {
        return (0..n as u32).collect();
    };
    let seed = table.column(first.column.ordinal);
    let mut out = Vec::new();
    let mut batch = Vec::with_capacity(BATCH_ROWS.min(n));
    for start in (0..n).step_by(BATCH_ROWS) {
        let end = (start + BATCH_ROWS).min(n);
        batch.clear();
        seed.fill_matching_in(first.lo, first.hi, start, end, &mut batch);
        refine(table, rest, &mut batch);
        out.extend_from_slice(&batch);
    }
    out
}

/// Keep the rows of the selection vector `sel` that satisfy all `preds`,
/// in order: one branch-free pass per predicate.
fn refine(table: &Table, preds: &[Predicate], sel: &mut Vec<u32>) {
    for p in preds {
        table
            .column(p.column.ordinal)
            .retain_matching(p.lo, p.hi, sel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinStep, TableAccess};
    use crate::query::JoinPred;
    use dba_common::{ColumnId, TemplateId};
    use dba_storage::{ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema};

    /// Whether row `r` of `table` satisfies all `preds`: the row-at-a-time
    /// reference the executor's selection-vector filter is checked against.
    fn row_matches(table: &Table, r: u32, preds: &[Predicate]) -> bool {
        preds
            .iter()
            .all(|p| p.matches(table.column(p.column.ordinal).value(r as usize)))
    }

    /// Three-table catalog: `dim` (200 rows), `fact` (5000 rows) with
    /// fact.f_dim a uniform FK into dim, and `sub` (300 rows) with sub.s_dim
    /// one too.
    fn catalog() -> Catalog {
        catalog_with_fact_rows(5000)
    }

    fn catalog_with_fact_rows(fact_rows: usize) -> Catalog {
        let dim = TableSchema::new(
            "dim",
            vec![
                ColumnSpec::new("d_key", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "d_attr",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 9 },
                ),
            ],
        );
        let fact = TableSchema::new(
            "fact",
            vec![
                ColumnSpec::new("f_key", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "f_dim",
                    ColumnType::Int,
                    Distribution::FkUniform { parent_rows: 200 },
                ),
                ColumnSpec::new(
                    "f_val",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 999 },
                ),
            ],
        );
        let sub = TableSchema::new(
            "sub",
            vec![ColumnSpec::new(
                "s_dim",
                ColumnType::Int,
                Distribution::FkUniform { parent_rows: 200 },
            )],
        );
        Catalog::new(vec![
            TableBuilder::new(dim, 200).build(TableId(0), 5),
            TableBuilder::new(fact, fact_rows).build(TableId(1), 5),
            TableBuilder::new(sub, 300).build(TableId(2), 5),
        ])
    }

    fn col(t: u32, o: u16) -> ColumnId {
        ColumnId::new(TableId(t), o)
    }

    fn single_table_query(preds: Vec<Predicate>, payload: Vec<ColumnId>) -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(1)],
            predicates: preds,
            joins: vec![],
            payload,
            aggregated: false,
        }
    }

    fn scan_plan(table: TableId, est: f64) -> Plan {
        Plan {
            driver: TableAccess {
                table,
                method: AccessMethod::FullScan,
                est_rows: est,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        }
    }

    #[test]
    fn full_scan_counts_match_ground_truth() {
        let cat = catalog();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 0, 99)], vec![col(1, 0)]);
        let mut exec = Executor::new(CostModel::unit_scale());
        let result = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        let truth = cat.table(TableId(1)).column(2).count_in_range(0, 99) as u64;
        assert_eq!(result.result_rows, truth);
        assert!(result.accesses[0].is_full_scan);
        assert!(result.total.secs() > 0.0);
        assert_eq!(
            result.full_scan_time(TableId(1)),
            Some(result.accesses[0].time)
        );
    }

    #[test]
    fn index_seek_equals_scan_row_output() {
        let f_key = |lo, hi| Predicate::range(col(1, 0), lo, hi);
        let f_dim = |lo, hi| Predicate::range(col(1, 1), lo, hi);
        let f_val = |lo, hi| Predicate::range(col(1, 2), lo, hi);
        // (case, index key columns, predicates, residual predicates, whether
        // any row matches). f_key is 0..5000 in row order, f_dim uniform in
        // 0..200 and f_val uniform in 0..=999.
        type Case = (&'static str, Vec<u16>, Vec<Predicate>, usize, bool);
        let cases: [Case; 8] = [
            ("equality only", vec![1], vec![f_dim(7, 7)], 0, true),
            (
                "equality plus range",
                vec![1, 2],
                vec![f_val(100, 600), f_dim(7, 7)],
                0,
                true,
            ),
            ("range only", vec![2], vec![f_val(10, 30)], 0, true),
            (
                "equality, a residual on a non-key column",
                vec![1],
                vec![f_dim(7, 7), f_val(0, 499)],
                1,
                true,
            ),
            (
                "range, residuals on a key and a non-key column",
                vec![1, 2],
                vec![f_dim(10, 50), f_val(0, 499), f_key(1000, 3999)],
                2,
                true,
            ),
            (
                "a residual matching nothing",
                vec![2],
                vec![f_val(10, 300), f_key(10_000, 20_000)],
                1,
                false,
            ),
            (
                "an empty range, lo > hi",
                vec![2],
                vec![f_val(30, 10)],
                0,
                false,
            ),
            (
                "an empty range with a residual",
                vec![2],
                vec![f_val(30, 10), f_dim(0, 99)],
                1,
                false,
            ),
        ];
        for (name, keys, preds, residual, any) in cases {
            let mut cat = catalog();
            let meta = cat
                .create_index(IndexDef::new(TableId(1), keys, vec![]))
                .unwrap();
            let (t, ix) = (cat.table(TableId(1)), cat.index(meta.id).unwrap());
            let shape = seek_shape(ix.def(), &preds);
            assert_eq!(shape.residual.len(), residual, "{name}");
            let (s, e) = ix.probe(t, &shape.eq_values, shape.range);
            let want: Vec<u32> = ix.ordered_rows(t)[s..e]
                .iter()
                .copied()
                .filter(|&r| row_matches(t, r, &preds))
                .collect();
            assert_eq!(!want.is_empty(), any, "{name}");

            let q = single_table_query(preds.clone(), vec![col(1, 0)]);
            let mut exec = Executor::new(CostModel::unit_scale());
            let seek = AccessMethod::IndexSeek {
                index: meta.id,
                covering: false,
            };
            let (got, stats) = exec.run_access(&cat, t, &seek, &preds, &q);
            assert_eq!(got, want, "{name}: leaf order");
            assert_eq!(stats.index, Some(meta.id), "{name}");
            assert_eq!(stats.rows_out, want.len() as u64, "{name}");
            // The scan returns the same rows, ascending.
            let (scanned, _) = exec.run_access(&cat, t, &AccessMethod::FullScan, &preds, &q);
            let mut sorted = got;
            sorted.sort_unstable();
            assert_eq!(sorted, scanned, "{name}: the scan's rows");
        }
    }

    #[test]
    fn selective_seek_beats_scan_on_large_table() {
        // 60k rows, high-cardinality column: an equality predicate matches
        // ~0-3 rows, which is the regime where a non-covering secondary
        // index genuinely wins against a sequential scan.
        let schema = TableSchema::new(
            "big",
            vec![
                ColumnSpec::new("k", ColumnType::Int, Distribution::Sequential),
                ColumnSpec::new(
                    "v",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 599_999 },
                ),
                ColumnSpec::new("w", ColumnType::Int, Distribution::Uniform { lo: 0, hi: 9 }),
            ],
        );
        let mut cat = Catalog::new(vec![TableBuilder::new(schema, 60_000).build(TableId(0), 13)]);
        let meta = cat
            .create_index(IndexDef::new(TableId(0), vec![1], vec![]))
            .unwrap();
        // Pick a value that actually occurs so the seek returns rows.
        let needle = cat.table(TableId(0)).column(1).value(1234);
        let q = Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(0)],
            predicates: vec![Predicate::eq(col(0, 1), needle)],
            joins: vec![],
            payload: vec![col(0, 0)],
            aggregated: false,
        };
        let mut exec = Executor::new(CostModel::unit_scale());
        let seek_plan = Plan {
            driver: TableAccess {
                table: TableId(0),
                method: AccessMethod::IndexSeek {
                    index: meta.id,
                    covering: false,
                },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let via_seek = exec.execute(&cat, &q, &seek_plan);
        let via_scan = exec.execute(&cat, &q, &scan_plan(TableId(0), 0.0));
        assert!(via_seek.result_rows >= 1);
        assert_eq!(via_seek.result_rows, via_scan.result_rows);
        assert!(
            via_seek.total.secs() < via_scan.total.secs() / 5.0,
            "seek {} vs scan {}",
            via_seek.total.secs(),
            via_scan.total.secs()
        );
    }

    #[test]
    fn covering_seek_is_cheaper_than_non_covering() {
        let mut cat = catalog();
        let plain = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![]))
            .unwrap();
        let covering = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
            .unwrap();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 10, 300)], vec![col(1, 0)]);
        let mut exec = Executor::new(CostModel::unit_scale());
        let mk = |id, cov| Plan {
            driver: TableAccess {
                table: TableId(1),
                method: AccessMethod::IndexSeek {
                    index: id,
                    covering: cov,
                },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let with_heap = exec.execute(&cat, &q, &mk(plain.id, false));
        let no_heap = exec.execute(&cat, &q, &mk(covering.id, true));
        assert_eq!(with_heap.result_rows, no_heap.result_rows);
        assert!(no_heap.total.secs() < with_heap.total.secs());
    }

    fn join_query() -> Query {
        Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: vec![TableId(0), TableId(1)],
            predicates: vec![
                Predicate::eq(col(0, 1), 3),
                Predicate::range(col(1, 2), 0, 499),
            ],
            joins: vec![JoinPred::new(col(0, 0), col(1, 1))],
            payload: vec![col(1, 0)],
            aggregated: true,
        }
    }

    /// One `dim ⋈ fact` step on `q`'s join, driven by a full scan of `dim`.
    fn join_plan(q: &Query, algo: JoinAlgo, method: AccessMethod) -> Plan {
        Plan {
            driver: TableAccess {
                table: TableId(0),
                method: AccessMethod::FullScan,
                est_rows: 0.0,
            },
            joins: vec![JoinStep {
                access: TableAccess {
                    table: TableId(1),
                    method,
                    est_rows: 0.0,
                },
                algo,
                join: q.joins[0],
                est_rows_out: 0.0,
            }],
            aggregated: true,
            est_cost: SimSeconds::ZERO,
        }
    }

    /// Ground-truth cardinality of `q`, a `dim ⋈ fact` query on
    /// `d_key = f_dim`, computed by a nested loop.
    fn true_join_rows(cat: &Catalog, q: &Query) -> u64 {
        let (dim, fact) = (cat.table(TableId(0)), cat.table(TableId(1)));
        let dim_preds = q.predicates_on(TableId(0));
        let fact_preds = q.predicates_on(TableId(1));
        let mut n = 0u64;
        for dr in (0..dim.rows() as u32).filter(|&r| row_matches(dim, r, &dim_preds)) {
            let key = dim.column(0).value(dr as usize);
            for fr in 0..fact.rows() as u32 {
                if fact.column(1).value(fr as usize) == key && row_matches(fact, fr, &fact_preds) {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn hash_join_matches_ground_truth() {
        let cat = catalog();
        let q = join_query();
        let plan = join_plan(&q, JoinAlgo::Hash, AccessMethod::FullScan);
        let mut exec = Executor::new(CostModel::unit_scale());
        let result = exec.execute(&cat, &q, &plan);
        assert_eq!(result.result_rows, true_join_rows(&cat, &q));
        assert!(result.join_time.secs() > 0.0);
        assert!(result.agg_time.secs() > 0.0);
    }

    /// One [`hash_join`] input, the output length it must produce and the
    /// table it must build.
    struct JoinCase {
        name: &'static str,
        /// Outer row-id columns and the one holding the join-key rows.
        outer: Vec<Vec<u32>>,
        key_col: usize,
        /// Join keys by outer row id.
        outer_keys: Vec<i64>,
        /// Inner rows in inner-input order.
        inner_rows: Vec<u32>,
        /// Join keys by inner row id.
        inner_keys: Vec<i64>,
        out_rows: usize,
        /// The input the join must build on.
        side: Side,
        /// How the built table must index its keys.
        path: Path,
    }

    /// The two ways a [`JoinTable`] finds a key's slot.
    #[derive(Debug, PartialEq)]
    enum Path {
        Direct,
        Map,
    }

    impl JoinCase {
        /// The reference output: the same inputs joined by a nested loop.
        fn nested_loop(&self) -> Vec<Vec<u32>> {
            let mut out = vec![Vec::new(); self.outer.len() + 1];
            for (k, &o) in self.outer[self.key_col].iter().enumerate() {
                for &r in &self.inner_rows {
                    if self.outer_keys[o as usize] == self.inner_keys[r as usize] {
                        for (c, col) in self.outer.iter().enumerate() {
                            out[c].push(col[k]);
                        }
                        out[self.outer.len()].push(r);
                    }
                }
            }
            out
        }

        /// Check the side and path of the table the join builds, and its
        /// output against the nested loop.
        fn check(&self) {
            let (side, table) = build_smaller_side(
                &self.outer,
                self.key_col,
                &self.outer_keys,
                &self.inner_rows,
                &self.inner_keys,
            );
            let path = match table.index {
                SlotIndex::Direct { .. } => Path::Direct,
                SlotIndex::Map(_) => Path::Map,
            };
            assert_eq!(side, self.side, "{}", self.name);
            assert_eq!(path, self.path, "{}", self.name);
            let got = hash_join(
                &self.outer,
                self.key_col,
                &self.outer_keys,
                &self.inner_rows,
                &self.inner_keys,
            );
            assert_eq!(got, self.nested_loop(), "{}", self.name);
            assert_eq!(got[0].len(), self.out_rows, "{}", self.name);
        }
    }

    #[test]
    fn hash_join_output_equals_a_nested_loop() {
        let stride = |k: i64| k << 32;
        let cases = [
            JoinCase {
                name: "duplicate keys on both sides, inner side larger",
                outer: vec![vec![4, 0, 2, 1, 3]],
                key_col: 0,
                outer_keys: vec![5, 7, 5, 9, 7],
                inner_rows: vec![5, 3, 1, 0, 2, 4],
                inner_keys: vec![7, 5, 7, 5, 1, 5],
                out_rows: 10,
                side: Side::Outer,
                path: Path::Direct,
            },
            JoinCase {
                name: "equal sizes build the inner side",
                outer: vec![vec![0, 1, 2]],
                key_col: 0,
                outer_keys: vec![1, 2, 2],
                inner_rows: vec![2, 0, 1],
                inner_keys: vec![2, 1, 2],
                out_rows: 5,
                side: Side::Inner,
                path: Path::Direct,
            },
            JoinCase {
                name: "probe keys with no match",
                outer: vec![vec![0, 1, 2, 3]],
                key_col: 0,
                outer_keys: vec![1, 2, 3, 4],
                inner_rows: vec![2, 0, 1],
                inner_keys: vec![3, 30, 40],
                out_rows: 1,
                side: Side::Inner,
                path: Path::Map,
            },
            JoinCase {
                name: "empty inner side",
                outer: vec![vec![0, 1, 2]],
                key_col: 0,
                outer_keys: vec![1, 2, 3],
                inner_rows: vec![],
                inner_keys: vec![1, 2, 3],
                out_rows: 0,
                side: Side::Inner,
                path: Path::Direct,
            },
            JoinCase {
                name: "empty outer side, non-empty inner",
                outer: vec![vec![]],
                key_col: 0,
                outer_keys: vec![1, 2],
                inner_rows: vec![0, 1],
                inner_keys: vec![1, 2],
                out_rows: 0,
                side: Side::Outer,
                path: Path::Direct,
            },
            JoinCase {
                name: "two-column intermediate, equal sizes",
                outer: vec![vec![3, 1, 0, 2], vec![2, 4, 0, 4]],
                key_col: 1,
                outer_keys: vec![8, -1, 6, 9, 8],
                inner_rows: vec![1, 3, 0, 2],
                inner_keys: vec![8, 6, 8, 7],
                out_rows: 7,
                side: Side::Inner,
                path: Path::Direct,
            },
            JoinCase {
                name: "two-column intermediate repeating outer row ids, inner side larger",
                outer: vec![vec![1, 1, 0, 2], vec![3, 0, 3, 3]],
                key_col: 1,
                outer_keys: vec![5, 9, 9, 7],
                inner_rows: vec![4, 0, 2, 1, 5, 3],
                inner_keys: vec![7, 5, 8, 7, 5, 7],
                out_rows: 11,
                side: Side::Outer,
                path: Path::Direct,
            },
            JoinCase {
                name: "extreme keys, inner side larger",
                outer: vec![vec![0, 1, 2, 3, 4]],
                key_col: 0,
                outer_keys: vec![i64::MIN, -1, 0, i64::MAX, i64::MIN],
                inner_rows: vec![0, 1, 2, 3, 4, 5],
                inner_keys: vec![i64::MAX, 0, -1, i64::MIN, 1, i64::MAX],
                out_rows: 6,
                side: Side::Outer,
                path: Path::Map,
            },
            JoinCase {
                name: "stride keys sharing their low 32 bits, inner side larger",
                outer: vec![(0..64).rev().collect()],
                key_col: 0,
                outer_keys: (0..64).map(stride).collect(),
                inner_rows: (0..96).collect(),
                inner_keys: (0..96).map(|k| stride(k % 48)).collect(),
                out_rows: 96,
                side: Side::Outer,
                path: Path::Map,
            },
            JoinCase {
                name: "inner build spanning exactly 4 codes per input row",
                outer: vec![vec![0, 1, 2, 3]],
                key_col: 0,
                outer_keys: vec![37, 10, 15, 16],
                inner_rows: vec![0, 1, 2],
                inner_keys: vec![10, 37, 15],
                out_rows: 3,
                side: Side::Inner,
                path: Path::Direct,
            },
            JoinCase {
                name: "inner build spanning one code more than 4 per input row",
                outer: vec![vec![0, 1, 2, 3]],
                key_col: 0,
                outer_keys: vec![38, 10, 15, 16],
                inner_rows: vec![0, 1, 2],
                inner_keys: vec![10, 38, 15],
                out_rows: 3,
                side: Side::Inner,
                path: Path::Map,
            },
            JoinCase {
                name: "outer build spanning exactly 4 codes per input row",
                outer: vec![vec![0, 1, 2]],
                key_col: 0,
                outer_keys: vec![10, 37, 15],
                inner_rows: vec![0, 1, 2, 3],
                inner_keys: vec![37, 10, 15, 16],
                out_rows: 3,
                side: Side::Outer,
                path: Path::Direct,
            },
            JoinCase {
                name: "outer build spanning one code more than 4 per input row",
                outer: vec![vec![0, 1, 2]],
                key_col: 0,
                outer_keys: vec![10, 38, 15],
                inner_rows: vec![0, 1, 2, 3],
                inner_keys: vec![38, 10, 15, 16],
                out_rows: 3,
                side: Side::Outer,
                path: Path::Map,
            },
            JoinCase {
                name: "negative codes",
                outer: vec![vec![0, 1, 2, 3, 4]],
                key_col: 0,
                outer_keys: vec![-3, -7, -4, 0, -8],
                inner_rows: vec![3, 1, 0, 2],
                inner_keys: vec![-7, -3, -5, -3],
                out_rows: 3,
                side: Side::Inner,
                path: Path::Direct,
            },
            JoinCase {
                name: "outer probe keys below, above and on empty slots inside the span",
                outer: vec![(0..8).collect()],
                key_col: 0,
                outer_keys: vec![99, 106, 101, 104, 105, 100, i64::MIN, i64::MAX],
                inner_rows: vec![0, 1, 2, 3],
                inner_keys: vec![100, 103, 100, 105],
                out_rows: 3,
                side: Side::Inner,
                path: Path::Direct,
            },
            JoinCase {
                name: "inner probe keys below, above and on empty slots inside the span",
                outer: vec![vec![0, 1, 2, 3]],
                key_col: 0,
                outer_keys: vec![100, 103, 100, 105],
                inner_rows: (0..8).collect(),
                inner_keys: vec![99, 106, 101, 104, 105, 100, i64::MIN, i64::MAX],
                out_rows: 3,
                side: Side::Outer,
                path: Path::Direct,
            },
            JoinCase {
                name: "one key repeated",
                outer: vec![vec![0, 1, 2, 3]],
                key_col: 0,
                outer_keys: vec![42, 41, 43, 42],
                inner_rows: vec![4, 2, 0, 1, 3],
                inner_keys: vec![42; 5],
                out_rows: 10,
                side: Side::Outer,
                path: Path::Direct,
            },
            JoinCase {
                name: "direct span ending at i64::MAX",
                outer: vec![vec![0, 1, 2, 3]],
                key_col: 0,
                outer_keys: vec![i64::MAX, i64::MIN, i64::MAX - 1, i64::MAX - 3],
                inner_rows: vec![0, 1],
                inner_keys: vec![i64::MAX, i64::MAX - 2],
                out_rows: 1,
                side: Side::Inner,
                path: Path::Direct,
            },
            JoinCase {
                name: "direct span starting at i64::MIN",
                outer: vec![vec![0, 1, 2]],
                key_col: 0,
                outer_keys: vec![i64::MAX, i64::MIN + 2, i64::MIN],
                inner_rows: vec![1, 0],
                inner_keys: vec![i64::MIN, i64::MIN + 1],
                out_rows: 1,
                side: Side::Inner,
                path: Path::Direct,
            },
        ];
        for case in &cases {
            case.check();
        }
    }

    /// Seeded draws below a bound, from the workspace's SplitMix64 seed
    /// derivation over a counter.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 += 1;
            dba_common::seed_for(21, "hash-join-sweep", self.0) % n
        }
    }

    #[test]
    fn hash_join_equals_a_nested_loop_over_a_seeded_sweep() {
        let mut draw = Draws(0);
        // Joins per (built side, slot path): [inner, outer][direct, map].
        let mut seen = [[0; 2]; 2];
        for _ in 0..300 {
            // A key domain: dense codes, codes 1,000 apart, or codes 2^40
            // apart from far below zero.
            let (base, gap) = match draw.below(3) {
                0 => (draw.below(100) as i64 - 50, 1),
                1 => (0, 1_000),
                _ => (i64::MIN / 2, 1 << 40),
            };
            let domain = 1 + draw.below(400);
            let key = |d: &mut Draws| base + gap * d.below(domain) as i64;

            let outer_base = 1 + draw.below(300);
            let outer_keys: Vec<i64> = (0..outer_base).map(|_| key(&mut draw)).collect();
            let (columns, tuples) = (1 + draw.below(3), draw.below(301));
            let outer: Vec<Vec<u32>> = (0..columns)
                .map(|_| (0..tuples).map(|_| draw.below(outer_base) as u32).collect())
                .collect();
            let key_col = draw.below(columns) as usize;
            let inner_base = draw.below(301) as u32;
            let inner_keys: Vec<i64> = (0..inner_base).map(|_| key(&mut draw)).collect();
            // All inner rows, or about 3/4 or 1/2 of them in row order, as a
            // filtered scan emits them.
            let dropped = draw.below(3);
            let inner_rows: Vec<u32> = (0..inner_base)
                .filter(|_| draw.below(4) >= dropped)
                .collect();

            // The smaller input is built, the inner one on a tie, and keys
            // spanning at most 4 codes per input row are direct addressed.
            let side = if inner_rows.len() <= outer[key_col].len() {
                Side::Inner
            } else {
                Side::Outer
            };
            let (build_rows, build_keys) = match side {
                Side::Inner => (&inner_rows, &inner_keys),
                Side::Outer => (&outer[key_col], &outer_keys),
            };
            let built: Vec<i128> = build_rows
                .iter()
                .map(|&r| i128::from(build_keys[r as usize]))
                .collect();
            let input_rows = (outer[key_col].len() + inner_rows.len()) as i128;
            let path = match (built.iter().min(), built.iter().max()) {
                (Some(min), Some(max)) if max - min + 1 > 4 * input_rows => Path::Map,
                _ => Path::Direct,
            };
            seen[usize::from(side == Side::Outer)][usize::from(path == Path::Map)] += 1;

            let mut case = JoinCase {
                name: "seeded sweep",
                outer,
                key_col,
                outer_keys,
                inner_rows,
                inner_keys,
                out_rows: 0,
                side,
                path,
            };
            case.out_rows = case.nested_loop()[0].len();
            case.check();
        }
        assert!(
            seen.iter().flatten().all(|&joins| joins >= 20),
            "every side and path is swept: {seen:?}"
        );
    }

    #[test]
    fn key_hash_reaches_the_bucket_bits_from_every_key_bit() {
        let hash = |key: i64| {
            let mut h = KeyHasher::default();
            h.write_i64(key);
            h.finish()
        };
        // Stride keys share their low 32 bits; their buckets must not.
        let buckets: std::collections::HashSet<u64> =
            (0..1024).map(|k: i64| hash(k << 32) & 1023).collect();
        assert!(buckets.len() > 512, "{} of 1024 buckets", buckets.len());
    }

    #[test]
    fn inl_join_matches_hash_join_output() {
        let f_dim = |lo, hi| Predicate::range(col(1, 1), lo, hi);
        let f_val = |lo, hi| Predicate::range(col(1, 2), lo, hi);
        // (case, predicates on fact, whether any row joins). The index is on
        // the join key f_dim, uniform in 0..200; f_val, uniform in 0..=999,
        // is not in it.
        let cases = [
            ("no inner predicate", vec![], true),
            ("one on the index key column", vec![f_dim(0, 99)], true),
            ("one on a non-key column", vec![f_val(0, 499)], true),
            ("two", vec![f_dim(0, 99), f_val(250, 749)], true),
            ("one matching nothing", vec![f_val(1000, 2000)], false),
        ];
        let mut cat = catalog();
        let fk_ix = cat
            .create_index(IndexDef::new(TableId(1), vec![1], vec![]))
            .unwrap();
        let (dim, fact, sub) = (
            cat.table(TableId(0)),
            cat.table(TableId(1)),
            cat.table(TableId(2)),
        );
        let ix = cat.index(fk_ix.id).unwrap();
        let driver = vec![Predicate::eq(col(0, 1), 3)];
        let seek = AccessMethod::IndexSeek {
            index: fk_ix.id,
            covering: false,
        };
        let inl_plan = join_plan(&join_query(), JoinAlgo::IndexNestedLoop, seek);
        let hash_plan = join_plan(&join_query(), JoinAlgo::Hash, AccessMethod::FullScan);
        for (name, inner_preds, any) in cases {
            let mut q = join_query();
            q.predicates = [driver.as_slice(), &inner_preds].concat();
            let want = true_join_rows(&cat, &q);
            assert_eq!(want > 0, any, "{name}");

            let mut timed = Executor::timed(
                CostModel::unit_scale(),
                BackendKind::Simulated,
                BudgetTimer::scripted(1e-6),
            );
            let inl = timed.execute(&cat, &q, &inl_plan);
            let hash = Executor::new(CostModel::unit_scale()).execute(&cat, &q, &hash_plan);
            assert_eq!(inl.result_rows, want, "{name}");
            assert_eq!(hash.result_rows, want, "{name}");
            // The INL inner access is attributed to the index.
            let inner = inl.accesses.iter().find(|a| a.table == TableId(1)).unwrap();
            assert_eq!(inner.index, Some(fk_ix.id), "{name}");
            assert!(!inner.is_full_scan, "{name}");
            assert_eq!(inner.rows_out, want, "{name}");

            // The reference probe loop: each driver row descends once, its
            // leaf range counts as matched, and the range's rows that pass
            // the inner predicates are emitted. A hash join of `sub` on the
            // driver's key after the probes reads the outer column they fill.
            let (mut descents, mut rows, mut out_rows, mut with_sub) = (0, 0, 0, 0);
            for dr in (0..dim.rows() as u32).filter(|&r| row_matches(dim, r, &driver)) {
                let key = dim.column(0).value(dr as usize);
                let (s, e) = ix.probe(fact, &[key], None);
                let emitted = ix.ordered_rows(fact)[s..e]
                    .iter()
                    .filter(|&&r| row_matches(fact, r, &inner_preds))
                    .count() as u64;
                descents += 1;
                rows += (e - s) as u64;
                out_rows += emitted;
                with_sub +=
                    emitted * sub.column(0).data().iter().filter(|&&v| v == key).count() as u64;
            }
            let mut q3 = q.clone();
            q3.tables.push(TableId(2));
            q3.joins.push(JoinPred::new(col(2, 0), col(0, 0)));
            let mut then_sub = inl_plan.clone();
            then_sub.joins.push(JoinStep {
                access: TableAccess {
                    table: TableId(2),
                    method: AccessMethod::FullScan,
                    est_rows: 0.0,
                },
                algo: JoinAlgo::Hash,
                join: q3.joins[1],
                est_rows_out: 0.0,
            });
            let three = Executor::new(CostModel::unit_scale()).execute(&cat, &q3, &then_sub);
            assert_eq!(
                three.result_rows, with_sub,
                "{name}: sub joined after the probes"
            );

            let samples = timed.take_op_samples();
            let probe = samples.iter().find(|s| s.op() == OpKind::InlProbe);
            let probe = probe.expect("an InlProbe sample");
            assert_eq!(
                (probe.rows, probe.out_rows, probe.descents),
                (rows, out_rows, descents),
                "{name}"
            );
            assert_eq!(out_rows, want, "{name}");
        }
    }

    #[test]
    fn drifted_table_scans_slower_but_returns_same_rows() {
        let mut cat = catalog();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 0, 99)], vec![col(1, 0)]);
        let mut exec = Executor::new(CostModel::unit_scale());
        let before = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        cat.apply_drift(TableId(1), 50_000, 0, 0);
        let after = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        // Results come from the generated rows; cost comes from the live heap.
        assert_eq!(after.result_rows, before.result_rows);
        assert!(
            after.total.secs() > before.total.secs() * 2.0,
            "10× heap growth must slow the scan: {} vs {}",
            after.total.secs(),
            before.total.secs()
        );
    }

    #[test]
    fn covering_scan_slows_as_the_indexed_table_grows() {
        let mut cat = catalog();
        let meta = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
            .unwrap();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 10, 300)], vec![col(1, 0)]);
        let plan = Plan {
            driver: TableAccess {
                table: TableId(1),
                method: AccessMethod::CoveringScan { index: meta.id },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let mut exec = Executor::new(CostModel::unit_scale());
        let before = exec.execute(&cat, &q, &plan);
        cat.apply_drift(TableId(1), 45_000, 0, 0); // 10× growth
        let after = exec.execute(&cat, &q, &plan);
        assert!(
            after.total.secs() > before.total.secs() * 3.0,
            "maintained leaves grow with the table: {} vs {}",
            after.total.secs(),
            before.total.secs()
        );
    }

    #[test]
    fn covering_scan_equals_filter_then_sort() {
        // (case, fact rows, f_val range, matching rows if known; `None` =
        // some but not all). f_val is uniform in 0..=999.
        let cases = [
            ("no match", 5000, 1000, 2000, Some(0)),
            ("every row", 5000, 0, 999, Some(5000)),
            ("5,000 rows, two filter batches", 5000, 10, 300, None),
            ("64 rows", 64, 0, 499, None),
            ("a 1-row table", 1, 0, 999, Some(1)),
            ("a 0-row table", 0, 0, 999, Some(0)),
        ];
        for (name, rows, lo, hi, matching) in cases {
            let mut cat = catalog_with_fact_rows(rows);
            let meta = cat
                .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
                .unwrap();
            let preds = vec![Predicate::range(col(1, 2), lo, hi)];
            let q = single_table_query(preds.clone(), vec![col(1, 0)]);
            let t = cat.table(TableId(1));
            let mut want: Vec<u32> = cat
                .index(meta.id)
                .unwrap()
                .ordered_rows(t)
                .iter()
                .copied()
                .filter(|&r| row_matches(t, r, &preds))
                .collect();
            want.sort_unstable();
            let method = AccessMethod::CoveringScan { index: meta.id };
            let mut exec = Executor::new(CostModel::unit_scale());
            let (got, stats) = exec.run_access(&cat, t, &method, &preds, &q);
            assert_eq!(got, want, "{name}");
            assert_eq!(stats.rows_out, want.len() as u64, "{name}");
            match matching {
                Some(n) => assert_eq!(want.len(), n, "{name}"),
                None => assert!((1..rows).contains(&want.len()), "{name}"),
            }
        }
    }

    #[test]
    fn empty_predicates_scan_emits_all_rows() {
        let cat = catalog();
        let q = single_table_query(vec![], vec![col(1, 0)]);
        let mut exec = Executor::new(CostModel::unit_scale());
        let result = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        assert_eq!(result.result_rows, 5000);
    }

    /// One plan per operator class over the two-table catalog: every
    /// access method, both join algorithms, and an aggregate.
    fn operator_sweep(cat: &mut Catalog) -> Vec<(Query, Plan)> {
        let seek_ix = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![]))
            .unwrap();
        let cover_ix = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
            .unwrap();
        let fk_ix = cat
            .create_index(IndexDef::new(TableId(1), vec![1], vec![]))
            .unwrap();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 10, 300)], vec![col(1, 0)]);
        let single = |method| Plan {
            driver: TableAccess {
                table: TableId(1),
                method,
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let jq = join_query();
        let hash = join_plan(&jq, JoinAlgo::Hash, AccessMethod::FullScan);
        let inl = AccessMethod::IndexSeek {
            index: fk_ix.id,
            covering: false,
        };
        let inl = join_plan(&jq, JoinAlgo::IndexNestedLoop, inl);
        vec![
            (q.clone(), single(AccessMethod::FullScan)),
            (
                q.clone(),
                single(AccessMethod::IndexSeek {
                    index: seek_ix.id,
                    covering: false,
                }),
            ),
            (
                q.clone(),
                single(AccessMethod::IndexSeek {
                    index: cover_ix.id,
                    covering: true,
                }),
            ),
            (q, single(AccessMethod::CoveringScan { index: cover_ix.id })),
            (jq.clone(), hash),
            (jq, inl),
        ]
    }

    #[test]
    fn untimed_executor_records_no_samples() {
        let mut cat = catalog();
        let mut exec = Executor::new(CostModel::unit_scale());
        for (q, plan) in operator_sweep(&mut cat) {
            exec.execute(&cat, &q, &plan);
        }
        assert_eq!(exec.samples.capacity(), 0, "no sample buffer is allocated");
        assert!(exec.take_op_samples().is_empty());
    }

    #[test]
    fn timed_simulated_is_bit_identical_and_samples_every_operator() {
        let mut cat = catalog();
        let mut plain = Executor::new(CostModel::unit_scale());
        let mut timed = Executor::timed(
            CostModel::unit_scale(),
            BackendKind::Simulated,
            BudgetTimer::scripted(1e-6),
        );
        let mut ops = Vec::new();
        for (q, plan) in operator_sweep(&mut cat) {
            let a = plain.execute(&cat, &q, &plan);
            let b = timed.execute(&cat, &q, &plan);
            assert_eq!(a.total.secs().to_bits(), b.total.secs().to_bits());
            assert_eq!(a.result_rows, b.result_rows);
            for (x, y) in a.accesses.iter().zip(&b.accesses) {
                assert_eq!(x.time.secs().to_bits(), y.time.secs().to_bits());
                assert_eq!((x.rows_out, x.index), (y.rows_out, y.index));
            }
            // Each access's sample carries exactly the price it was charged.
            let samples = timed.take_op_samples();
            for access in &b.accesses {
                assert!(samples
                    .iter()
                    .any(|s| s.sim_s.to_bits() == access.time.secs().to_bits()));
            }
            assert!(samples.iter().all(|s| s.measured_s > 0.0));
            ops.extend(samples.iter().map(OpSample::op));
        }
        for op in OpKind::ALL {
            assert!(ops.contains(&op), "no {op:?} sample");
        }
    }

    #[test]
    fn measured_executor_charges_the_clock() {
        let cat = catalog();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 0, 99)], vec![col(1, 0)]);
        let plan = scan_plan(TableId(1), 0.0);
        let mut measured = Executor::timed(
            CostModel::unit_scale(),
            BackendKind::Measured,
            BudgetTimer::scripted(0.5),
        );
        let m = measured.execute(&cat, &q, &plan);
        let s = Executor::new(CostModel::unit_scale()).execute(&cat, &q, &plan);
        assert_eq!(m.result_rows, s.result_rows);
        assert_eq!(m.accesses[0].rows_out, s.accesses[0].rows_out);
        // One mark/elapsed pair per operator: the scripted clock advances
        // exactly one step between them.
        assert_eq!(m.total.secs(), 0.5);
        let samples = measured.take_op_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].op(), OpKind::SeqScan);
        assert_eq!(samples[0].sim_s, s.total.secs());
        assert_eq!(samples[0].measured_s, 0.5);
        assert!(measured.take_op_samples().is_empty(), "samples drain");
    }

    #[test]
    #[should_panic(expected = "needs an enabled timer")]
    fn measured_executor_without_a_timer_is_rejected() {
        Executor::timed(
            CostModel::unit_scale(),
            BackendKind::Measured,
            BudgetTimer::disabled(),
        );
    }

    #[test]
    fn batch_filter_is_ascending_and_complete() {
        let cat = catalog();
        let t = cat.table(TableId(1));
        let preds = [
            Predicate::range(col(1, 2), 100, 700),
            Predicate::range(col(1, 1), 0, 150),
        ];
        let want: Vec<u32> = (0..t.rows() as u32)
            .filter(|&r| row_matches(t, r, &preds))
            .collect();
        assert_eq!(batch_filter(t, &preds), want);
        assert_eq!(batch_filter(t, &[]).len(), t.rows());
    }

    #[test]
    fn probe_leaves_follow_page_sized_leaves() {
        let sequential = |rows, id| {
            let key = ColumnSpec::new("k", ColumnType::Int, Distribution::Sequential);
            let t = TableBuilder::new(TableSchema::new("seq", vec![key]), rows).build(id, 1);
            let ix = Index::build(IndexId(0), IndexDef::new(id, vec![0], vec![]), &t);
            (t, ix)
        };
        let (t, ix) = sequential(60_000, TableId(0));
        // 16-byte leaf rows: 512 entries per 8 KiB leaf.
        let cap = leaf_capacity(&t, &ix);
        assert_eq!(cap, 512);
        let leaves = |lo, hi| {
            let (s, e) = ix.probe(&t, &[], Some((lo, hi)));
            leaves_spanned(&ix, cap, s, e)
        };
        assert_eq!(leaves(0, 511), 1);
        assert_eq!(leaves(0, 512), 2);
        assert_eq!(leaves(0, 59_999), 60_000u64.div_ceil(512));
        assert_eq!(leaves(70_000, 70_000), 1, "a miss still lands on a leaf");
        let (_, empty) = sequential(0, TableId(1));
        assert_eq!(leaves_spanned(&empty, cap, 0, 0), 0);
    }
}
