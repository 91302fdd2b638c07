//! The executor: runs a physical [`Plan`] against real column data.
//!
//! Execution is *actual*: every predicate is evaluated over the stored codes
//! by one selection-vector filter, seeks probe the sorted index and refine
//! the leaf range, covering scans filter the columns their index holds, and
//! joins match real join-key codes. Each execution takes two passes. A
//! counting pass returns the counts the shared [`CostModel`] reads, per
//! operator in plan order: rows out, matched leaf entries, probes, and
//! hash-join build, probe and output rows. One pricing function then turns
//! those **observed** counts into a [`QueryExecution`], at the catalog's live
//! sizes and under the index ids the plan names. The per-access statistics
//! it emits ([`AccessStats`]) are exactly the observations the paper's
//! reward shaping consumes: which index served which table, how long the
//! access took, and what a full table scan cost when one was performed.
//!
//! The counting pass does only the work those counts need, and every count
//! it takes is a sum over join tuples. So it carries each intermediate of a
//! left-deep join as tuples of the join-key codes that later steps read,
//! each weighted by the join tuples it stands for: the driver emits the
//! codes the steps read on its table, and every join step joins each outer
//! tuple with its key's inner rows, multiplies the weights and emits the
//! codes the steps after it read. The last step emits none, so its output
//! is one weight, and so is a join-free plan's driver. Every count is an
//! exact `u64` sum of weights times per-key counts, the count a
//! row-at-a-time join takes; a sum or product past `u64` panics rather
//! than wrap. A hash step runs its inner access inside the join. When
//! later steps read no outer code but the key (one-code tuples are their
//! keys, and the last step reads none), it sums the outer weights per key
//! and joins each inner row with its key's sum as the rows stream; else it
//! lists the inner rows by key in a join table, and each outer tuple joins
//! the rows under its key. A step that pairs each outer tuple with inner
//! rows, or probes an index for it, first merges equal tuples, summing
//! their weights; so an intermediate holds at most one tuple per distinct
//! combination of codes and inner row, however many join tuples it stands
//! for. A hash step whose inner access reads every row of its table (a
//! full or covering scan with no predicate on the table) neither scans nor
//! lists: its outer tuples read a join table listing all the table's rows
//! by key, built on first use and kept per (table, key column). A hash
//! step whose inner access scans a whole table under predicates probes
//! that kept table too when its outer tuples are few: when they, and the
//! rows their keys list there summed tuple by tuple as the tuples stand
//! (an exact bound on the pairs it makes), each number under the table's
//! rows over `PROBE_DIVISOR` (8). Each outer tuple then pairs with the rows
//! its key lists that satisfy the predicates, as an index-nested-loop
//! step's probes pair, and the scan's matches are only counted; the step's
//! counts stay the scan's. Every access streams its matches to what
//! consumes them, a selection-vector window at a time, into one window
//! buffer the executor keeps, and a seek's leaf range is copied only to be
//! refined by a residual predicate. An access whose matches are only counted (a
//! join-free plan's driver, a probing step's scan) counts a scan with one
//! predicate by a kernel that fills no selection vector. A non-covering
//! seek's heap fetches and the aggregate are priced from counts, so no
//! operator gathers columns from the heap or sums the payload.
//! The counts depend only on the immutable base data, the query instance
//! and the plan's shape; drift moves only the live sizes the price reads.
//! So the executor also memoises them. The key is exact: the query's
//! predicates, joins, payload and aggregation, each access's table, method,
//! covering flag and index *definition*, and each step's algorithm and join
//! predicate. A repeated pair is priced again at today's live sizes without
//! running an operator. Keying on the definition, not the index id, lets an
//! index dropped and re-created under a new id replay. The memo, kept join
//! tables included, lives and dies with its executor. It holds the
//! catalog's `Arc<BaseData>` and empties itself when it meets another base,
//! and each miss adds one entry (and at most one interned shape).
//!
//! An executor built with an enabled [`BudgetTimer`] ([`Executor::timed`])
//! runs the same program: the timer only observes. It times each operator
//! the counting pass runs with one `mark`/`elapsed_secs` pair and records
//! an [`OpSample`] pairing the operator's work counters with its price and
//! the measured seconds, in plan order. A replay runs no operator and
//! leaves no sample. The driver's access and every join step leave one
//! sample each; the aggregate runs nothing and leaves none. A hash step's
//! sample times its inner access too and adds the access's work counters
//! and price to its own, unless a kept table served it: then it times the
//! kept table's probe (and first build) and holds no scan. A step that
//! probes a kept table for a filtered scan times the probe, the count and
//! any first build, and holds the scan's work and price, which its counts
//! price. The work
//! counters are the priced counts, over join tuples, while a step does its
//! work once per tuple of its intermediate. The execution reports the
//! price, so a timed run is bit-identical to an untimed one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use dba_common::{BudgetTimer, ColumnId, IndexId, QueryId, SimSeconds, TableId};
use dba_storage::{BaseData, Catalog, Index, Table, PAGE_BYTES};

use crate::backend::{OpKind, OpSample};
use crate::cost::CostModel;
use crate::plan::{seek_shape, AccessMethod, JoinAlgo, JoinStep, Plan, SeekShape, TableAccess};
use crate::query::{JoinPred, Predicate, Query};

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
    timer: BudgetTimer,
    /// Samples recorded since the last drain; stays unallocated when the
    /// timer is disabled.
    samples: Vec<OpSample>,
    /// Counts of earlier executions, replayed, and the join tables kept
    /// over whole tables.
    memo: Memo,
    /// The selection-vector window every access fills, [`BATCH_ROWS`] rows
    /// long once the first counting pass has sized it.
    window: Vec<u32>,
    /// Each probe decision of a hash step over a filtered scan of a whole
    /// table, in the order taken: the outer tuples as they stood, the join
    /// key's position in them, and whether the step probed.
    #[cfg(test)]
    probes: Vec<(Vec<Vec<i64>>, usize, bool)>,
}

/// An intermediate relation of a left-deep join: tuples of the key codes
/// later steps read, a fixed number of codes each, and the join tuples
/// each stands for. A tuple may repeat until a step merges them.
#[derive(Debug, Default)]
struct Groups {
    keys: Vec<i64>,
    weights: Vec<u64>,
}

impl Groups {
    /// Each tuple of `width` codes with its weight.
    fn iter(&self, width: usize) -> impl Iterator<Item = (&[i64], u64)> {
        let tuple = move |g: usize| &self.keys[g * width..(g + 1) * width];
        self.weights
            .iter()
            .enumerate()
            .map(move |(g, &w)| (tuple(g), w))
    }

    /// The `k`th code of each tuple of `width` codes, numbered in order.
    fn column(&self, width: usize, k: usize) -> impl Iterator<Item = (u32, i64)> + Clone + '_ {
        let codes = self.keys.get(k..).unwrap_or_default().iter().step_by(width);
        (0..).zip(codes.copied())
    }

    /// The tuples of `width` codes in `self`, each once, with the weights
    /// of its copies summed, in order of first appearance. Dense one-code
    /// tuples find their group by direct addressing, the rest by hashing.
    fn merged(self, width: usize) -> Groups {
        let n = self.weights.len();
        let mut out = Groups::default();
        let mut add = |g: &mut usize, tuple: &[i64], w: u64| {
            if *g == 0 {
                out.keys.extend_from_slice(tuple);
                out.weights.push(0);
                *g = out.weights.len();
            }
            plus(&mut out.weights[*g - 1], w);
        };
        let span = (width == 1).then(|| dense_span(self.keys.iter().copied(), n));
        // Each tuple's group plus one, or 0 before its first appearance.
        match span.flatten() {
            Some((min, span)) => {
                let mut groups = vec![0; span as usize];
                for (key, w) in self.iter(1) {
                    let g = key[0].wrapping_sub(min) as u64 as usize;
                    add(&mut groups[g], key, w);
                }
            }
            None => {
                let mut groups: HashMap<&[i64], usize, BuildHasherDefault<KeyHasher>> =
                    HashMap::with_capacity_and_hasher(n, Default::default());
                for (tuple, w) in self.iter(width) {
                    add(groups.entry(tuple).or_default(), tuple, w);
                }
            }
        }
        out
    }
}

/// Where one code of a join step's output tuple comes from: a code of the
/// outer tuple, or one of the inner columns later steps read.
#[derive(Debug, Clone, Copy)]
enum Source {
    Outer(usize),
    Inner(usize),
}

/// A join step's output: a tuple of the key codes the steps after it read
/// for each outer tuple and the inner rows it joins, made as `sources`
/// says, with the join tuples it stands for, and the join tuples in all.
struct Output {
    sources: Vec<Source>,
    tuples: Groups,
    total: u64,
}

impl Output {
    /// No join tuple yet.
    fn new(sources: Vec<Source>) -> Self {
        Output {
            sources,
            tuples: Groups::default(),
            total: 0,
        }
    }

    /// Add `w` join tuples of `outer` joined with an inner row whose code
    /// in the `k`th inner column later steps read is `inner(k)`.
    #[inline]
    fn add(&mut self, outer: &[i64], inner: impl Fn(usize) -> i64, w: u64) {
        plus(&mut self.total, w);
        let code = |source: &Source| match *source {
            Source::Outer(k) => outer[k],
            Source::Inner(k) => inner(k),
        };
        match &self.sources[..] {
            [] => return,
            [source] => self.tuples.keys.push(code(source)),
            sources => self.tuples.keys.extend(sources.iter().map(code)),
        }
        self.tuples.weights.push(w);
    }

    /// Add `w` join tuples of `outer` joined with each of the inner `rows`,
    /// whose codes in the inner columns later steps read are in `codes`.
    fn add_rows(&mut self, outer: &[i64], rows: &[u32], codes: &[&[i64]], w: u64) {
        if let ([Source::Inner(0)], [column]) = (&self.sources[..], codes) {
            // The output tuple is the inner code: gather it.
            plus(&mut self.total, times(w, rows.len() as u64));
            let tuples = &mut self.tuples;
            tuples.keys.extend(rows.iter().map(|&r| column[r as usize]));
            tuples.weights.resize(tuples.weights.len() + rows.len(), w);
            return;
        }
        for &r in rows {
            self.add(outer, |k| codes[k][r as usize], w);
        }
    }

    /// Join each of the `outer` tuples, with the join tuples it stands
    /// for, with the rows `rows_of` gives it that satisfy `preds` on
    /// `table`, refined a window at a time in `batch`; later steps read the
    /// inner codes in `codes`. An index-nested-loop step's probes and a
    /// hash step's probes of a kept join table both pair this way.
    fn pair<'a, 'r>(
        &mut self,
        outer: impl Iterator<Item = (&'a [i64], u64)>,
        table: &Table,
        preds: &[Predicate],
        codes: &[&[i64]],
        batch: &mut [u32],
        mut rows_of: impl FnMut(&[i64], u64) -> &'r [u32],
    ) {
        for (tuple, w) in outer {
            let matches = Matches {
                table,
                range: Some(rows_of(tuple, w)),
                preds,
            };
            let emitted = matches.stream(batch, |rows| {
                if !codes.is_empty() {
                    self.add_rows(tuple, rows, codes, w);
                }
            });
            if codes.is_empty() && emitted > 0 {
                self.add(tuple, no_code, times(w, emitted));
            }
        }
    }

    /// The output tuples, and the join tuples in all. Tuples of no code
    /// all merge into one, which stands for every join tuple.
    fn finish(self) -> (Groups, u64) {
        let Output {
            sources,
            mut tuples,
            total,
        } = self;
        if sources.is_empty() {
            tuples.weights.push(total);
        }
        (tuples, total)
    }
}

/// The inner codes of a join step whose later steps read none.
fn no_code(_: usize) -> i64 {
    unreachable!("no later step reads an inner code")
}

/// `w × n`, exact: a per-tuple count `n` over the `w` join tuples a group
/// stands for.
#[inline]
fn times(w: u64, n: u64) -> u64 {
    w.checked_mul(n).expect("join counts fit a u64")
}

/// `*sum += n`, exact.
#[inline]
fn plus(sum: &mut u64, n: u64) {
    *sum = sum.checked_add(n).expect("join counts fit a u64");
}

/// What one table access did: the leaf entries its seek matched (none for
/// a scan) and the rows it emitted.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AccessCounts {
    matched: u64,
    rows_out: u64,
}

/// What one join step did. The tuples it probed with are the rows the
/// step before it emitted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StepCounts {
    /// A hash join: the inner access it joined, whether a kept table over
    /// the whole inner table served it (else the access ran inside the
    /// join), and its output tuples.
    Hash {
        inner: AccessCounts,
        kept: bool,
        out_rows: u64,
    },
    /// Index-nested-loop probes: the leaf entries they matched and the
    /// tuples they emitted.
    Inl { matched: u64, out_rows: u64 },
}

/// The counts one execution's price reads, in plan order.
#[derive(Debug, PartialEq)]
struct Counts {
    driver: AccessCounts,
    steps: Box<[StepCounts]>,
}

/// The counts of executions over one base, by (query instance, plan
/// shape), and the join tables kept over its tables.
#[derive(Debug, Default)]
struct Memo {
    /// The base every count here was taken over.
    base: Option<Arc<BaseData>>,
    /// The id of every shape seen: all of a key but the predicates' bounds
    /// ([`encode_shape`]).
    shapes: HashMap<Box<[u32]>, u32>,
    /// Counts by shape id followed by each predicate's `lo` and `hi`.
    counts: HashMap<Box<[i64]>, Counts>,
    /// Join tables over every row of a base table, by join key column.
    tables: HashMap<ColumnId, JoinTable>,
    /// The last lookup's shape and key, reused across calls. A key whose
    /// shape is not interned yet starts with -1.
    shape: Vec<u32>,
    key: Vec<i64>,
}

impl Memo {
    /// The counts memoised for `plan` of `query` over `catalog`'s base, if
    /// any, emptying the memo first if it holds another base's. Builds the
    /// key that [`Memo::insert`] files the next counts under.
    fn get(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> Option<&Counts> {
        if !self
            .base
            .as_ref()
            .is_some_and(|base| Arc::ptr_eq(base, catalog.base()))
        {
            self.shapes.clear();
            self.counts.clear();
            self.tables.clear();
            self.base = Some(Arc::clone(catalog.base()));
        }
        self.shape.clear();
        encode_shape(catalog, query, plan, &mut self.shape);
        let shape = self.shapes.get(self.shape.as_slice());
        self.key.clear();
        self.key.push(shape.map_or(-1, |&id| i64::from(id)));
        self.key
            .extend(query.predicates.iter().flat_map(|p| [p.lo, p.hi]));
        shape.and(self.counts.get(self.key.as_slice()))
    }

    /// Memoise `counts` under the key the last [`Memo::get`] built,
    /// interning its shape if it is new.
    fn insert(&mut self, counts: Counts) {
        if self.key[0] < 0 {
            let id = self.shapes.len() as u32;
            self.shapes.insert(self.shape.as_slice().into(), id);
            self.key[0] = i64::from(id);
        }
        self.counts.insert(self.key.as_slice().into(), counts);
    }

    /// The join table over every row of `column`'s table in this base,
    /// whose codes are `keys`, built on first use.
    fn join_table(&mut self, column: ColumnId, keys: &[i64]) -> &JoinTable {
        self.tables
            .entry(column)
            .or_insert_with(|| JoinTable::over_rows(keys))
    }

    /// The join table over every row of `column`'s table, whose codes are
    /// `keys`, when a hash step whose inner access scans that table under a
    /// predicate should probe it for `outer`'s tuples (`width` codes each,
    /// the join key at `p`) instead: when the tuples number under the
    /// table's rows over [`PROBE_DIVISOR`], and so do the rows their keys
    /// list there, summed tuple by tuple as the tuples stand. The table is
    /// built only for outer tuples that few.
    fn probed(
        &mut self,
        column: ColumnId,
        keys: &[i64],
        outer: &Groups,
        width: usize,
        p: usize,
    ) -> Option<&JoinTable> {
        let limit = keys.len() / PROBE_DIVISOR;
        if outer.weights.len() >= limit {
            return None;
        }
        let table = self.join_table(column, keys);
        (table.listed_under(outer, width, p) < limit).then_some(table)
    }
}

/// Append to `out` the memo key of `query` and `plan` bar the predicates'
/// bounds: the predicates' columns, the joins, the payload and
/// aggregation, and each access's table, method, covering flag and index
/// definition, and each step's algorithm and join predicate. Every list
/// is preceded by its length, so two distinct shapes never encode alike.
/// An index enters by its definition, not its id: its entries depend only
/// on the definition and the base, so an index dropped and re-created
/// under a new id keeps its counts.
fn encode_shape(catalog: &Catalog, query: &Query, plan: &Plan, out: &mut Vec<u32>) {
    fn column(c: ColumnId) -> [u32; 2] {
        [c.table.raw(), u32::from(c.ordinal)]
    }
    fn join(j: JoinPred) -> [u32; 4] {
        let ([a, b], [c, d]) = (column(j.left), column(j.right));
        [a, b, c, d]
    }
    fn access(catalog: &Catalog, a: &TableAccess, out: &mut Vec<u32>) {
        let (method, index) = match a.method {
            AccessMethod::FullScan => (0, None),
            AccessMethod::IndexSeek { index, covering } => (1 + u32::from(covering), Some(index)),
            AccessMethod::CoveringScan { index } => (3, Some(index)),
        };
        out.extend([a.table.raw(), method]);
        if let Some(id) = index {
            let def = catalog
                .index(id)
                .expect("plan references unmaterialised index")
                .def();
            for cols in [&def.key_cols, &def.include_cols] {
                out.push(cols.len() as u32);
                out.extend(cols.iter().map(|&c| u32::from(c)));
            }
        }
    }
    out.push(query.predicates.len() as u32);
    out.extend(query.predicates.iter().flat_map(|p| column(p.column)));
    out.push(query.joins.len() as u32);
    out.extend(query.joins.iter().flat_map(|&j| join(j)));
    out.push(query.payload.len() as u32);
    out.extend(query.payload.iter().flat_map(|&c| column(c)));
    out.push(u32::from(query.aggregated));
    access(catalog, &plan.driver, out);
    out.push(plan.joins.len() as u32);
    for step in &plan.joins {
        out.push(match step.algo {
            JoinAlgo::Hash => 0,
            JoinAlgo::IndexNestedLoop => 1,
        });
        out.extend(join(step.join));
        access(catalog, &step.access, out);
    }
}

impl Executor {
    /// The simulated executor: prices every operator and times none. It
    /// runs only the work the price reads: its join steps count join
    /// tuples by join key, and a hash join over a whole base table reads a
    /// kept join table. A hash join over a filtered scan of a whole table
    /// probes that kept table instead when its outer tuples, and the rows
    /// their keys list there, number under 1/8 of the table's rows
    /// (`PROBE_DIVISOR`); it then only counts the scan's matches. A scan
    /// with one predicate whose matches are only counted fills no selection
    /// vector. The counts of a (query instance, plan shape) pair it has run
    /// over the same base are replayed.
    pub fn new(cost: CostModel) -> Self {
        Executor::timed(cost, BudgetTimer::disabled())
    }

    /// The same executor, also timing each operator it runs on `timer`
    /// into an [`OpSample`]. It runs, keeps and replays exactly what
    /// [`Executor::new`] does and reports the same price. The driver's
    /// access and each join step leave one sample; a hash step's holds the
    /// work and price of its inner access too, unless a kept table over the
    /// whole inner table served it. A step that probed a kept table for a
    /// filtered scan holds the scan's, as its counts do.
    pub fn timed(cost: CostModel, timer: BudgetTimer) -> Self {
        Executor {
            cost,
            timer,
            samples: Vec::new(),
            memo: Memo::default(),
            window: Vec::new(),
            #[cfg(test)]
            probes: Vec::new(),
        }
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Drain the operator samples recorded since the last call (none
    /// without a timer).
    pub fn take_op_samples(&mut self) -> Vec<OpSample> {
        std::mem::take(&mut self.samples)
    }

    /// Close the operator whose work began at the last `timer.mark()`:
    /// when timed, record its sample, which the execution's pricing fills
    /// in.
    fn close(&mut self, sample: OpSample) {
        if let Some(measured_s) = self.timer.elapsed_secs() {
            self.samples.push(OpSample {
                measured_s,
                ..sample
            });
        }
    }

    /// Execute `plan` for `query`, returning observed statistics.
    ///
    /// Panics if the plan references indexes that are not materialised —
    /// plans must be produced against the same catalog state.
    pub fn execute(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> QueryExecution {
        if let Some(counts) = self.memo.get(catalog, query, plan) {
            return price(&self.cost, catalog, query, plan, counts, |price| price);
        }
        let first = self.samples.len();
        let counts = self.count(catalog, query, plan);
        let execution = if self.timer.is_enabled() {
            let mut samples = self.samples[first..].iter_mut();
            price(&self.cost, catalog, query, plan, &counts, |price| {
                let sample = samples.next().expect("one sample per operator run");
                sample.sim_s = price.secs();
                price
            })
        } else {
            price(&self.cost, catalog, query, plan, &counts, |price| price)
        };
        self.memo.insert(counts);
        execution
    }

    /// The counting pass: run `plan` for `query` over the base data and
    /// return the counts its price reads. The driver emits the key codes
    /// the join steps read on its table, and each step the codes the steps
    /// after it read ([`later_keys`]), each tuple weighted by the join
    /// tuples it stands for. Each operator run leaves one sample when
    /// timed, in plan order.
    fn count(&mut self, catalog: &Catalog, query: &Query, plan: &Plan) -> Counts {
        let mut batch = std::mem::take(&mut self.window);
        batch.resize(BATCH_ROWS, 0);
        let mut keys = later_keys(plan, 0);
        let mut groups = Groups::default();
        let driver = self.run_access(catalog, query, &plan.driver, |matches| {
            let table = catalog.table(plan.driver.table);
            let codes: Vec<&[i64]> = keys
                .iter()
                .map(|c| table.column(c.ordinal).data())
                .collect();
            if codes.is_empty() {
                // A join-free plan: its matches are only counted.
                return matches.count(&mut batch);
            }
            matches.stream(&mut batch, |m| {
                if let [column] = codes[..] {
                    groups.keys.extend(m.iter().map(|&r| column[r as usize]));
                } else {
                    for &r in m {
                        groups
                            .keys
                            .extend(codes.iter().map(|column| column[r as usize]));
                    }
                }
                groups.weights.resize(groups.weights.len() + m.len(), 1);
            })
        });
        let mut tuples = driver.rows_out;
        let mut steps = Vec::with_capacity(plan.joins.len());

        for (i, step) in plan.joins.iter().enumerate() {
            let inner_table = catalog.table(step.access.table);
            let inner_preds = query.predicates_on(step.access.table);
            let width = keys.len();
            // The outer side of this join lives on an already-joined table.
            let outer_col = step
                .join
                .other_side(step.access.table)
                .expect("join step must connect to the new table");
            let p = keys
                .iter()
                .position(|&c| c == outer_col)
                .expect("left-deep plan: outer table must already be joined");
            let inner_col = step
                .join
                .side_on(step.access.table)
                .expect("join step must reference the new table");
            // Each code the steps after this one read comes from the outer
            // tuple, the inner join column's too (it equals the outer
            // key), or from the inner row.
            let next = later_keys(plan, i + 1);
            let mut inner_codes: Vec<&[i64]> = Vec::new();
            let sources = next
                .iter()
                .map(|&c| match keys.iter().position(|&k| k == c) {
                    Some(k) => Source::Outer(k),
                    None if c == inner_col => Source::Outer(p),
                    None => {
                        inner_codes.push(inner_table.column(c.ordinal).data());
                        Source::Inner(inner_codes.len() - 1)
                    }
                })
                .collect();
            let inner_keys = inner_table.column(inner_col.ordinal).data();
            let hash = step.algo == JoinAlgo::Hash;
            let kept = hash && reads_every_row(catalog, query, step, &inner_preds);
            // When a hash step's inner access runs inside it and later steps
            // read no outer code but the key (one-code tuples are their keys,
            // and the last step reads none), each inner row makes its output
            // tuple with its key's summed outer weight. Else the step lists
            // the inner rows by key, and each outer tuple makes its output
            // tuples from the rows under its key.
            let by_row = (width == 1 && !inner_codes.is_empty()) || next.is_empty();
            // A step that meets each outer tuple more than once, pairing it
            // with inner rows or probing an index for it, merges equal
            // tuples first. Any other step meets each tuple once, where a
            // merge would cost what it saves. A hash step that probes a
            // kept table for a filtered scan does not merge either: its
            // pairs, copies included, are too few to need it.
            let merge = !hash || (!inner_codes.is_empty() && (kept || !by_row));

            let (counts, out) = match step.algo {
                JoinAlgo::Hash => {
                    let access =
                        (!kept).then(|| Access::new(catalog, query, &step.access, &inner_preds));
                    let mut out = Output::new(sources);
                    self.timer.mark();
                    let (inner, work) = match &access {
                        // The scan would emit every row: read the table kept
                        // over them, whose first build is timed with the
                        // join.
                        None => {
                            if merge {
                                groups = groups.merged(width);
                            }
                            let table = self.memo.join_table(inner_col, inner_keys);
                            table.join(&groups, width, p, &inner_codes, &mut out);
                            let inner = AccessCounts {
                                matched: 0,
                                rows_out: inner_table.rows() as u64,
                            };
                            (inner, OpSample::with_op(OpKind::HashJoin))
                        }
                        // The inner access runs inside the join, its seek's
                        // leaf order sorted on first read outside the
                        // timing.
                        Some(access) => {
                            let (matches, matched, sample) = access.open();
                            let probed = match matches.range {
                                None => self.memo.probed(inner_col, inner_keys, &groups, width, p),
                                Some(_) => None,
                            };
                            #[cfg(test)]
                            if matches.range.is_none() {
                                let tuples = groups.iter(width).map(|(t, _)| t.to_vec());
                                self.probes.push((tuples.collect(), p, probed.is_some()));
                            }
                            let rows_out = match probed {
                                // Few rows are listed under the outer keys:
                                // each outer tuple, as it stands, pairs with
                                // the rows its key lists that the scan
                                // would emit, and the scan's matches are
                                // only counted.
                                Some(table) => {
                                    out.pair(
                                        groups.iter(width),
                                        inner_table,
                                        &inner_preds,
                                        &inner_codes,
                                        &mut batch,
                                        |outer, _| table.rows_under(outer[p]),
                                    );
                                    matches.count(&mut batch)
                                }
                                // The matches stream past the outer weights
                                // summed by key, each joining its key's sum,
                                // or are listed by key, each outer tuple
                                // joining its key's rows.
                                None => {
                                    if merge {
                                        groups = groups.merged(width);
                                    }
                                    let input_rows = groups.weights.len() + matches.candidates();
                                    if by_row {
                                        let sums = KeyCounts::sums(&groups, width, p, input_rows);
                                        matches.stream(&mut batch, |rows| {
                                            sums.join(rows, inner_keys, &inner_codes, &mut out)
                                        })
                                    } else {
                                        let mut rows = Vec::new();
                                        let rows_out = matches
                                            .stream(&mut batch, |m| rows.extend_from_slice(m));
                                        let table = JoinTable::over(&rows, inner_keys, input_rows);
                                        table.join(&groups, width, p, &inner_codes, &mut out);
                                        rows_out
                                    }
                                }
                            };
                            let work = OpSample {
                                op: OpKind::HashJoin,
                                ..sample
                            };
                            (AccessCounts { matched, rows_out }, work)
                        }
                    };
                    let (out, out_rows) = out.finish();
                    // The price and the sample keep the cost model's roles:
                    // build = inner rows and probe = outer tuples.
                    self.close(OpSample {
                        build_rows: inner.rows_out,
                        probe_rows: tuples,
                        out_rows,
                        ..work
                    });
                    (
                        StepCounts::Hash {
                            inner,
                            kept,
                            out_rows,
                        },
                        out,
                    )
                }
                JoinAlgo::IndexNestedLoop => {
                    let index = catalog
                        .index(
                            step.access
                                .method
                                .index_id()
                                .expect("INL join requires an inner index"),
                        )
                        .expect("plan references unmaterialised index");
                    // Sorts the leaf order on first read, outside the timing.
                    let order = index.ordered_rows(inner_table);

                    self.timer.mark();
                    if merge {
                        groups = groups.merged(width);
                    }
                    let leaf_cap = leaf_capacity(inner_table, index);
                    let mut out = Output::new(sources);
                    let (mut matched, mut leaves) = (0u64, 0u64);
                    // Each outer tuple probes once for the tuples it
                    // stands for.
                    out.pair(
                        groups.iter(width),
                        inner_table,
                        &inner_preds,
                        &inner_codes,
                        &mut batch,
                        |outer, w| {
                            let (s, e) = index.probe(inner_table, &[outer[p]], None);
                            plus(&mut matched, times(w, (e - s) as u64));
                            plus(&mut leaves, times(w, leaves_spanned(index, leaf_cap, s, e)));
                            &order[s..e]
                        },
                    );
                    let (out, out_rows) = out.finish();
                    self.close(OpSample {
                        pages: leaves,
                        rows: matched,
                        descents: tuples,
                        out_rows,
                        ..OpSample::with_op(OpKind::InlProbe)
                    });
                    (StepCounts::Inl { matched, out_rows }, out)
                }
            };
            groups = out;
            keys = next;
            tuples = counts.out_rows();
            steps.push(counts);
        }
        self.window = batch;
        Counts {
            driver,
            steps: steps.into(),
        }
    }

    /// Run `access` for `query` as an operator of its own, timed when the
    /// timer is: `run` streams or counts its [`Matches`] and returns how
    /// many there were.
    fn run_access(
        &mut self,
        catalog: &Catalog,
        query: &Query,
        access: &TableAccess,
        run: impl FnOnce(&Matches) -> u64,
    ) -> AccessCounts {
        let preds = query.predicates_on(access.table);
        let access = Access::new(catalog, query, access, &preds);
        self.timer.mark();
        let (matches, matched, sample) = access.open();
        let rows_out = run(&matches);
        self.close(OpSample {
            out_rows: rows_out,
            ..sample
        });
        AccessCounts { matched, rows_out }
    }
}

/// A table access made ready outside its operator's timing: its index is
/// looked up and a seek's leaf order sorted on first read.
enum Access<'a> {
    /// A scan of every row, covering or not, and its sample's work.
    Scan {
        table: &'a Table,
        preds: &'a [Predicate],
        sample: OpSample,
    },
    /// A seek into `index`, whose leaf order is `order`.
    Seek {
        table: &'a Table,
        index: &'a Index,
        order: &'a [u32],
        shape: SeekShape,
    },
}

impl<'a> Access<'a> {
    /// Ready `access` for `query`, whose predicates on its table are
    /// `preds`.
    fn new(
        catalog: &'a Catalog,
        query: &Query,
        access: &TableAccess,
        preds: &'a [Predicate],
    ) -> Self {
        let table = catalog.table(access.table);
        let scan = |op, pages| Access::Scan {
            table,
            preds,
            sample: OpSample {
                pages,
                rows: table.rows() as u64,
                ..OpSample::with_op(op)
            },
        };
        match access.method {
            AccessMethod::FullScan => scan(OpKind::SeqScan, table.heap_pages()),
            // The leaves hold every column the query reads and each row
            // once, so filtering those columns in row order yields the
            // scan's matches, ascending.
            AccessMethod::CoveringScan { index } => {
                let ix = covering_index(catalog, index, access.table, query);
                let leaves = ix.rows().div_ceil(leaf_capacity(table, ix));
                scan(OpKind::CoveringScan, leaves as u64)
            }
            AccessMethod::IndexSeek { index, .. } => {
                let index = catalog
                    .index(index)
                    .expect("plan references unmaterialised index");
                Access::Seek {
                    table,
                    index,
                    // Sorts the leaf order on first read.
                    order: index.ordered_rows(table),
                    shape: seek_shape(index.def(), preds),
                }
            }
        }
    }

    /// Start the access, a seek by descending its index: the rows it
    /// filters, the leaf entries it matched (none for a scan), and its
    /// sample's work counters bar its output.
    fn open(&self) -> (Matches<'_>, u64, OpSample) {
        match self {
            Access::Scan {
                table,
                preds,
                sample,
            } => (
                Matches {
                    table,
                    range: None,
                    preds,
                },
                0,
                *sample,
            ),
            Access::Seek {
                table,
                index,
                order,
                shape,
            } => {
                let (s, e) = index.probe(table, &shape.eq_values, shape.range);
                let matched = (e - s) as u64;
                let sample = OpSample {
                    pages: leaves_spanned(index, leaf_capacity(table, index), s, e),
                    rows: matched,
                    descents: 1,
                    ..OpSample::with_op(OpKind::IndexSeek)
                };
                let matches = Matches {
                    table,
                    range: Some(&order[s..e]),
                    preds: &shape.residual,
                };
                (matches, matched, sample)
            }
        }
    }
}

/// The rows one access emits, in its order: the rows of `table` that
/// satisfy `preds`, ascending, or those of a leaf range, in leaf order.
struct Matches<'a> {
    table: &'a Table,
    /// A seek's or an index-nested-loop probe's leaf range, or `None` for
    /// every row of the table.
    range: Option<&'a [u32]>,
    preds: &'a [Predicate],
}

impl Matches<'_> {
    /// The rows filtered: the table's, or the leaf range's.
    fn candidates(&self) -> usize {
        self.range.map_or(self.table.rows(), <[u32]>::len)
    }

    /// Pass the matches to `sink` in order, at most [`BATCH_ROWS`] at a
    /// time, and return how many there were. A scan fills the front of the
    /// window `batch`, [`BATCH_ROWS`] rows long, from its first predicate
    /// per window and [`refine`]s it with the rest. A leaf range goes to the
    /// sink in place, or is copied into `batch` a window at a time only to
    /// be refined.
    fn stream(&self, batch: &mut [u32], mut sink: impl FnMut(&[u32])) -> u64 {
        let mut emitted = 0;
        let mut emit = |rows: &[u32]| {
            emitted += rows.len() as u64;
            sink(rows);
        };
        match self.range {
            Some(rows) if self.preds.is_empty() => emit(rows),
            Some(rows) => {
                for window in rows.chunks(BATCH_ROWS) {
                    let sel = &mut batch[..window.len()];
                    sel.copy_from_slice(window);
                    let n = refine(self.table, self.preds, sel);
                    emit(&sel[..n]);
                }
            }
            None => {
                let n = self.table.rows();
                let seed = self.preds.split_first();
                for start in (0..n).step_by(BATCH_ROWS) {
                    let sel = &mut batch[..BATCH_ROWS.min(n - start)];
                    let kept = match seed {
                        Some((first, rest)) => {
                            let column = self.table.column(first.column.ordinal);
                            let seeded = column.fill_matching_in(first.lo, first.hi, start, sel);
                            refine(self.table, rest, &mut sel[..seeded])
                        }
                        None => {
                            let rows = start as u32..(start + sel.len()) as u32;
                            for (slot, r) in sel.iter_mut().zip(rows) {
                                *slot = r;
                            }
                            sel.len()
                        }
                    };
                    emit(&sel[..kept]);
                }
            }
        }
        emitted
    }

    /// How many matches [`Matches::stream`] passes, when only their count
    /// is read. A scan with one predicate counts them through
    /// [`dba_storage::Column::count_in_range`] and fills no selection
    /// vector, and a scan with none counts its table's rows; any other
    /// access streams them through `batch`.
    fn count(&self, batch: &mut [u32]) -> u64 {
        match (self.range, self.preds) {
            (None, []) => self.table.rows() as u64,
            (None, [p]) => {
                let column = self.table.column(p.column.ordinal);
                column.count_in_range(p.lo, p.hi) as u64
            }
            _ => self.stream(batch, |_| {}),
        }
    }
}

impl StepCounts {
    fn out_rows(&self) -> u64 {
        match *self {
            StepCounts::Hash { out_rows, .. } | StepCounts::Inl { out_rows, .. } => out_rows,
        }
    }
}

/// The index a covering scan of `table` for `query` reads. Panics if it is
/// not materialised; debug builds also check that it covers every column
/// the query reads on the table.
fn covering_index<'a>(
    catalog: &'a Catalog,
    id: IndexId,
    table: TableId,
    query: &Query,
) -> &'a Index {
    let ix = catalog
        .index(id)
        .expect("plan references unmaterialised index");
    debug_assert!(
        ix.def().covers(&query.columns_needed_on(table)),
        "covering scan over a non-covering index"
    );
    ix
}

/// Whether the inner access of `step` reads every row of its table: a
/// scan, covering or not, and `preds`, the query's predicates on the
/// table, empty. A covering scan's index is checked as a scan checks it.
fn reads_every_row(catalog: &Catalog, query: &Query, step: &JoinStep, preds: &[Predicate]) -> bool {
    preds.is_empty()
        && match step.access.method {
            AccessMethod::FullScan => true,
            AccessMethod::CoveringScan { index } => {
                covering_index(catalog, index, step.access.table, query);
                true
            }
            AccessMethod::IndexSeek { .. } => false,
        }
}

/// The key columns an intermediate holds before step `step` of `plan`:
/// the columns that step and the steps after it key on, on the tables
/// already joined, each once, in step order. None after the last step.
fn later_keys(plan: &Plan, step: usize) -> Vec<ColumnId> {
    let joined: Vec<TableId> = std::iter::once(plan.driver.table)
        .chain(plan.joins[..step].iter().map(|s| s.access.table))
        .collect();
    let mut keys = Vec::new();
    for s in &plan.joins[step..] {
        let c = s
            .join
            .other_side(s.access.table)
            .expect("join step must connect to the new table");
        if joined.contains(&c.table) && !keys.contains(&c) {
            keys.push(c);
        }
    }
    keys
}

/// Price `counts`, the counts of `plan` for `query`, at `catalog`'s live
/// sizes and under the index ids `plan` names: the one path from counts to
/// an execution, whether they were just taken or are replayed. `charge`
/// sees the price of each operator the counting pass runs, in plan order,
/// and returns it: a timed executor copies it into the operator's sample on
/// the way. A hash join's inner access ran inside the join, which is
/// charged with it, or nowhere when a kept join table served it; the
/// aggregate runs no operator. Their prices bypass `charge`.
fn price(
    cost: &CostModel,
    catalog: &Catalog,
    query: &Query,
    plan: &Plan,
    counts: &Counts,
    mut charge: impl FnMut(SimSeconds) -> SimSeconds,
) -> QueryExecution {
    let mut accesses = Vec::with_capacity(1 + plan.joins.len());
    accesses.push(price_access(
        cost,
        catalog,
        &plan.driver,
        counts.driver,
        &mut charge,
    ));
    let mut rows = counts.driver.rows_out;
    let mut join_time = SimSeconds::ZERO;
    for (step, &step_counts) in plan.joins.iter().zip(&*counts.steps) {
        match step_counts {
            StepCounts::Hash {
                inner,
                kept,
                out_rows,
            } => {
                let join = cost.hash_join(inner.rows_out, rows, out_rows);
                let stats = price_access(cost, catalog, &step.access, inner, &mut |price| price);
                charge(if kept { join } else { stats.time + join });
                accesses.push(stats);
                join_time += join;
            }
            StepCounts::Inl { matched, out_rows } => {
                let index = step
                    .access
                    .method
                    .index_id()
                    .expect("INL join requires an inner index");
                let covering = matches!(
                    step.access.method,
                    AccessMethod::IndexSeek { covering: true, .. }
                );
                let heap_fetches = if covering { 0 } else { matched };
                let price = cost.inl_probes(
                    rows,
                    matched,
                    leaf_row_bytes(catalog, index, step.access.table),
                    heap_fetches,
                    catalog.live_heap_pages(step.access.table),
                );
                accesses.push(AccessStats {
                    table: step.access.table,
                    index: Some(index),
                    time: charge(price),
                    rows_out: out_rows,
                    is_full_scan: false,
                });
            }
        }
        rows = step_counts.out_rows();
    }
    let agg_time = if query.aggregated {
        cost.aggregate(rows)
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
        result_rows: rows,
    }
}

/// Price one table access from its counts, as [`price`] does.
fn price_access(
    cost: &CostModel,
    catalog: &Catalog,
    access: &TableAccess,
    counts: AccessCounts,
    charge: &mut impl FnMut(SimSeconds) -> SimSeconds,
) -> AccessStats {
    let table = access.table;
    let (index, price) = match access.method {
        // Priced over the *live* heap: drift-grown tables scan slower even
        // though only generated rows materialise.
        AccessMethod::FullScan => (
            None,
            cost.scan(catalog.live_heap_pages(table), catalog.live_rows(table)),
        ),
        AccessMethod::IndexSeek { index, covering } => {
            let heap_fetches = if covering { 0 } else { counts.matched };
            let price = cost.index_seek(
                counts.matched,
                leaf_row_bytes(catalog, index, table),
                heap_fetches,
                catalog.live_heap_pages(table),
            );
            (Some(index), price)
        }
        // Maintained leaves grow with the table (drift): the catalog's live
        // accounting scales each index by the growth it actually absorbed
        // since creation.
        AccessMethod::CoveringScan { index } => (
            Some(index),
            cost.covering_scan(
                catalog.index_live_leaf_pages(index),
                catalog.live_rows(table),
            ),
        ),
    };
    AccessStats {
        table,
        index,
        time: charge(price),
        rows_out: counts.rows_out,
        is_full_scan: index.is_none(),
    }
}

/// The leaf-entry width of index `id` on `table`.
fn leaf_row_bytes(catalog: &Catalog, id: IndexId, table: TableId) -> u64 {
    let index = catalog
        .index(id)
        .expect("plan references unmaterialised index");
    index.def().leaf_row_bytes(catalog.table(table))
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
    /// A tuple of codes hashes as its length and its codes' bytes: each
    /// 8-byte word is folded into the hash so far.
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..word.len()].copy_from_slice(word);
            self.write_i64((self.0 ^ u64::from_ne_bytes(w)) as i64);
        }
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

/// Keys spanning at most this many codes per input row are direct
/// addressed, one slot per code of the span: a `u32` start per slot in a
/// [`JoinTable`] (three while it is built, at most 48 bytes per input row),
/// a `u64` sum per slot in a [`KeyCounts`] of weights, and a `usize` group
/// per slot when a step merges its tuples (at most 32 bytes each). A merge
/// counts the tuples it merges as its inputs, and a join table the rows it
/// lists. Sums over a step's outer tuples count every row the inner access
/// filters as an input too: a filtered `orders` slice keeps a wide span
/// over its few keys, but not over the `lineitem` rows that look them up.
/// Such a slot array lives until the step ends; a kept table's as long as
/// the table.
const DIRECT_CODES_PER_ROW: u64 = 4;

/// A hash step whose inner access scans a whole table under a predicate
/// probes the join table kept over every row of that table instead, when
/// its outer tuples number under the table's rows divided by this, and so
/// do the rows their keys list there, summed tuple by tuple as the tuples
/// stand (an exact bound on the pairs it makes before filtering them). It
/// then filters only the rows it pairs, where a scan filters every row and
/// lists or sums what it keeps; the scan's matches are still counted, by a
/// kernel that fills no selection vector when there is one predicate. A
/// filtered table's join table is built only for a step whose outer tuples
/// are that few, and then kept as a whole-table inner's is.
const PROBE_DIVISOR: usize = 8;

/// How a join key finds its slot in a [`KeyCounts`] or a [`JoinTable`]. One
/// more slot after the keys' slots is always empty: a key that no entry
/// holds gets it, so a lookup reads a slot without branching on whether the
/// key was found.
#[derive(Debug)]
enum SlotIndex {
    /// Dense keys: key `k`'s slot is `k - min`, one slot for each code of
    /// the span from `min`, whether any entry holds it or not.
    Direct { min: i64 },
    /// Sparse keys: one slot per distinct key, in order of first
    /// appearance.
    Map(HashMap<i64, u32, BuildHasherDefault<KeyHasher>>),
}

impl SlotIndex {
    /// Call `visit(id, slot)` for each `(id, key)` in order, with the key's
    /// slot, or `empty`, the slot after the keys', for a key no entry
    /// holds.
    #[inline]
    fn visit(
        &self,
        empty: u32,
        probes: impl Iterator<Item = (u32, i64)>,
        mut visit: impl FnMut(u32, u32),
    ) {
        match self {
            // The empty slot is the span. A key below `min` wraps to
            // `2^64 - (min - key)`, which is at least the span because the
            // span ends by `i64::MAX`: one unsigned `min` sends keys off
            // either end to the empty slot.
            SlotIndex::Direct { min } => {
                for (id, key) in probes {
                    visit(
                        id,
                        (key.wrapping_sub(*min) as u64).min(u64::from(empty)) as u32,
                    );
                }
            }
            SlotIndex::Map(slots) => {
                for (id, key) in probes {
                    visit(id, slots.get(&key).copied().unwrap_or(empty));
                }
            }
        }
    }
}

/// A count or sum per join key: each key's slot, and each slot's count,
/// the empty slot's last.
#[derive(Debug)]
struct KeyCounts<C> {
    index: SlotIndex,
    counts: Vec<C>,
}

impl<C: Copy + Default> KeyCounts<C> {
    /// None yet, under keys [`dense_span`] gave `span` for, or sparse keys
    /// when it gave none, with room for `keys` of them.
    fn new(span: Option<(i64, u64)>, keys: usize) -> Self {
        match span {
            Some((min, span)) => KeyCounts {
                index: SlotIndex::Direct { min },
                counts: vec![C::default(); span as usize + 1],
            },
            None => KeyCounts {
                index: SlotIndex::Map(HashMap::with_capacity_and_hasher(keys, Default::default())),
                counts: vec![C::default()],
            },
        }
    }

    /// The slot of `key`, which lies in the span. A sparse key not seen
    /// before takes the empty slot, and a new empty slot follows.
    #[inline]
    fn slot(&mut self, key: i64) -> usize {
        match &mut self.index {
            SlotIndex::Direct { min } => {
                let s = key.wrapping_sub(*min) as u64 as usize;
                debug_assert!(s + 1 < self.counts.len(), "key {key} off the span");
                s
            }
            SlotIndex::Map(slots) => {
                let empty = self.counts.len() - 1;
                let s = *slots.entry(key).or_insert(empty as u32) as usize;
                if s == empty {
                    self.counts.push(C::default());
                }
                s
            }
        }
    }
}

/// A hash step's inner rows by join key, kept over a whole table or over
/// the rows an access streams: `index` gives each key's slot, and slot `s`
/// lists its rows in row order as `listed[starts[s]..starts[s + 1]]`, the
/// empty slot's last at none.
#[derive(Debug)]
struct JoinTable {
    index: SlotIndex,
    starts: Vec<u32>,
    listed: Vec<u32>,
}

impl JoinTable {
    /// The table listing `rows`, in order, whose join keys by row id are
    /// `keys`, for a join whose two inputs hold `input_rows` rows.
    fn over(rows: &[u32], keys: &[i64], input_rows: usize) -> Self {
        let key_of = |&r: &u32| keys[r as usize];
        let span = dense_span(rows.iter().map(key_of), input_rows);
        let mut per_slot = KeyCounts::new(span, rows.len());
        let slots: Vec<u32> = rows
            .iter()
            .map(|r| {
                let s = per_slot.slot(key_of(r));
                per_slot.counts[s] += 1;
                s as u32
            })
            .collect();
        let starts = starts(&per_slot.counts);
        let mut next = starts.clone();
        let mut listed = vec![0; rows.len()];
        for (&r, &s) in rows.iter().zip(&slots) {
            listed[next[s as usize] as usize] = r;
            next[s as usize] += 1;
        }
        JoinTable {
            index: per_slot.index,
            starts,
            listed,
        }
    }

    /// The table over every row of a base table whose join keys are `keys`,
    /// row `r` under `keys[r]`: what a scan of all the rows lists.
    fn over_rows(keys: &[i64]) -> Self {
        let all: Vec<u32> = (0..keys.len() as u32).collect();
        let mut table = JoinTable::over(&all, keys, keys.len());
        // A map-addressed index reserves room for a key per row, and the
        // table is kept: shrink it to the distinct keys it holds.
        if let SlotIndex::Map(slots) = &mut table.index {
            slots.shrink_to_fit();
        }
        table
    }

    /// The rows slot `s` lists.
    fn slot(&self, s: u32) -> &[u32] {
        let s = s as usize;
        &self.listed[self.starts[s] as usize..self.starts[s + 1] as usize]
    }

    /// The slot after the keys', which lists no row.
    fn empty(&self) -> u32 {
        (self.starts.len() - 2) as u32
    }

    /// The rows listed under `key`.
    fn rows_under(&self, key: i64) -> &[u32] {
        let mut slot = self.empty();
        self.index
            .visit(slot, std::iter::once((0, key)), |_, s| slot = s);
        self.slot(slot)
    }

    /// The rows the keys of `outer`'s tuples (`width` codes each, the join
    /// key at `p`) list, summed tuple by tuple: the pairs that joining
    /// each tuple with its key's rows makes.
    fn listed_under(&self, outer: &Groups, width: usize, p: usize) -> usize {
        let mut listed = 0;
        self.index
            .visit(self.empty(), outer.column(width, p), |_, s| {
                listed += self.slot(s).len()
            });
        listed
    }

    /// Join each tuple of `outer` (`width` codes each, the join key at `p`)
    /// with the rows under its key, into `out`: all at once when no later
    /// step reads inner codes, else row by row with its codes in `codes`.
    fn join(&self, outer: &Groups, width: usize, p: usize, codes: &[&[i64]], out: &mut Output) {
        let empty = self.empty();
        let probes = || outer.column(width, p);
        if out.sources.is_empty() {
            // The last step: every join tuple is only counted.
            let mut sum = 0;
            self.index.visit(empty, probes(), |g, s| {
                let n = self.slot(s).len() as u64;
                plus(&mut sum, times(outer.weights[g as usize], n));
            });
            out.add(&[], no_code, sum);
            return;
        }
        // The output's length, so that it is allocated once.
        let mut len = outer.weights.len();
        if !codes.is_empty() {
            len = self.listed_under(outer, width, p);
        }
        out.tuples.keys.reserve(len * out.sources.len());
        out.tuples.weights.reserve(len);
        self.index.visit(empty, probes(), |g, s| {
            let g = g as usize;
            let (tuple, w) = (&outer.keys[g * width..(g + 1) * width], outer.weights[g]);
            let rows = self.slot(s);
            if rows.is_empty() {
                return;
            }
            if codes.is_empty() {
                out.add(tuple, no_code, times(w, rows.len() as u64));
            } else {
                out.add_rows(tuple, rows, codes, w);
            }
        });
    }
}

impl KeyCounts<u64> {
    /// The weights of the tuples of `outer` (`width` codes each, the join
    /// key at `p`) summed per key, for a join whose two inputs hold
    /// `input_rows` rows.
    fn sums(outer: &Groups, width: usize, p: usize, input_rows: usize) -> Self {
        let keys = outer.column(width, p).map(|(_, k)| k);
        let mut sums = KeyCounts::new(dense_span(keys.clone(), input_rows), outer.weights.len());
        for (key, &w) in keys.zip(&outer.weights) {
            let s = sums.slot(key);
            plus(&mut sums.counts[s], w);
        }
        sums
    }

    /// Join each of the inner `rows`, whose join keys by row id are `keys`
    /// and whose codes later steps read are in `codes`, with its key's
    /// sum, into `out`, which reads no outer code but the key. A row under
    /// no outer key is dropped.
    fn join(&self, rows: &[u32], keys: &[i64], codes: &[&[i64]], out: &mut Output) {
        let empty = (self.counts.len() - 1) as u32;
        let probes = rows.iter().map(|&r| (r, keys[r as usize]));
        if out.sources.is_empty() {
            // The last step: every join tuple is only counted.
            let mut sum = 0;
            self.index.visit(empty, probes, |_, s| {
                plus(&mut sum, self.counts[s as usize]);
            });
            out.add(&[], no_code, sum);
            return;
        }
        self.index.visit(empty, probes, |r, s| {
            let (r, w) = (r as usize, self.counts[s as usize]);
            if w > 0 {
                out.add(&[keys[r]], |k| codes[k][r], w);
            }
        });
    }
}

/// Each slot's start when slot `s` holds `sizes[s]` entries, laid out in
/// slot order, and the end of the last.
fn starts(sizes: &[u32]) -> Vec<u32> {
    let mut end = 0;
    let mut bounds: Vec<u32> = sizes
        .iter()
        .map(|&c| {
            let start = end;
            end += c;
            start
        })
        .collect();
    bounds.push(end);
    bounds
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

/// Keep the rows of the selection vector `sel` that satisfy all `preds` at
/// its front, in order, and return how many there are: one branch-free
/// pass per predicate over the rows the last one kept.
fn refine(table: &Table, preds: &[Predicate], sel: &mut [u32]) -> usize {
    preds.iter().fold(sel.len(), |kept, p| {
        let column = table.column(p.column.ordinal);
        column.retain_matching(p.lo, p.hi, &mut sel[..kept])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinStep, TableAccess};
    use crate::query::JoinPred;
    use dba_common::{ColumnId, TemplateId};
    use dba_storage::{ColumnSpec, ColumnType, Distribution, IndexDef, TableBuilder, TableSchema};
    use std::collections::{BTreeMap, BTreeSet};

    /// Whether row `r` of `table` satisfies all `preds`: the row-at-a-time
    /// reference the executor's selection-vector filter is checked against.
    fn row_matches(table: &Table, r: u32, preds: &[Predicate]) -> bool {
        preds
            .iter()
            .all(|p| p.matches(table.column(p.column.ordinal).value(r as usize)))
    }

    /// The rows `access` emits for `q`, run as an operator of its own, and
    /// its counts.
    fn access_rows(
        exec: &mut Executor,
        cat: &Catalog,
        q: &Query,
        access: &TableAccess,
    ) -> (Vec<u32>, AccessCounts) {
        let mut rows = Vec::new();
        let counts = exec.run_access(cat, q, access, |matches| {
            matches.stream(&mut [0; BATCH_ROWS], |m| rows.extend_from_slice(m))
        });
        (rows, counts)
    }

    /// Assert that `a` and `b` report the same execution, bit for bit.
    fn assert_same_execution(a: &QueryExecution, b: &QueryExecution, label: &str) {
        let bits =
            |e: &QueryExecution| [e.total, e.join_time, e.agg_time].map(|s| s.secs().to_bits());
        assert_eq!(bits(a), bits(b), "{label}: times");
        assert_eq!(a.result_rows, b.result_rows, "{label}: result rows");
        assert_eq!(a.accesses.len(), b.accesses.len(), "{label}: accesses");
        for (x, y) in a.accesses.iter().zip(&b.accesses) {
            assert_eq!(
                x.time.secs().to_bits(),
                y.time.secs().to_bits(),
                "{label}: access time"
            );
            assert_eq!(
                (x.table, x.index, x.rows_out, x.is_full_scan),
                (y.table, y.index, y.rows_out, y.is_full_scan),
                "{label}: access"
            );
        }
    }

    /// The (query instance, plan shape) pairs `exec` has memoised.
    fn memo_entries(exec: &Executor) -> usize {
        exec.memo.counts.len()
    }

    /// The join tables over a whole table that `exec` keeps.
    fn join_tables(exec: &Executor) -> usize {
        exec.memo.tables.len()
    }

    /// Every memo entry and kept join table of `exec`, rendered and
    /// sorted: two executors holding the same state render alike.
    fn memo_state(exec: &Executor) -> Vec<String> {
        let counts = exec.memo.counts.iter().map(|(k, c)| format!("{k:?} {c:?}"));
        let tables = exec.memo.tables.iter().map(|(k, t)| format!("{k:?} {t:?}"));
        let mut state: Vec<String> = counts.chain(tables).collect();
        state.sort();
        state
    }

    /// Four-table catalog: `dim` (200 rows), `fact` (5000 rows) with
    /// fact.f_dim a uniform FK into dim, `sub` (300 rows) with sub.s_dim
    /// one too, and `aux` (50 rows) with aux.a_val uniform in 0..=999, as
    /// fact.f_val is.
    fn catalog() -> Catalog {
        catalog_with_fact_rows(5000)
    }

    fn catalog_with_fact_rows(fact_rows: usize) -> Catalog {
        generated_catalog(fact_rows, 5)
    }

    /// The four-table catalog with `fact_rows` fact rows, its data
    /// generated from `seed`.
    fn generated_catalog(fact_rows: usize, seed: u64) -> Catalog {
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
        let aux = TableSchema::new(
            "aux",
            vec![ColumnSpec::new(
                "a_val",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 999 },
            )],
        );
        Catalog::new(vec![
            TableBuilder::new(dim, 200).build(TableId(0), seed),
            TableBuilder::new(fact, fact_rows).build(TableId(1), seed),
            TableBuilder::new(sub, 300).build(TableId(2), seed),
            TableBuilder::new(aux, 50).build(TableId(3), seed),
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
        let fact = cat.table(TableId(1));
        let truth = (0..fact.rows() as u32)
            .filter(|&r| row_matches(fact, r, &q.predicates))
            .count() as u64;
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
            let access = |method| TableAccess {
                table: TableId(1),
                method,
                est_rows: 0.0,
            };
            let seek = access(AccessMethod::IndexSeek {
                index: meta.id,
                covering: false,
            });
            let (got, counts) = access_rows(&mut exec, &cat, &q, &seek);
            assert_eq!(got, want, "{name}: leaf order");
            assert_eq!(counts.matched, (e - s) as u64, "{name}");
            assert_eq!(counts.rows_out, want.len() as u64, "{name}");
            // The scan returns the same rows, ascending.
            let scan = access(AccessMethod::FullScan);
            let (scanned, _) = access_rows(&mut exec, &cat, &q, &scan);
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

    /// One grouped hash step: its outer tuples, copies included, the inner
    /// rows it streams, the join tuples it must make, and how its two kinds
    /// of join table must address their keys.
    struct JoinCase {
        name: &'static str,
        /// Outer tuples of `width` codes, the join key at `key`.
        outer: Vec<Vec<i64>>,
        width: usize,
        key: usize,
        /// Inner rows in inner-input order, and each row's join key by row
        /// id.
        inner_rows: Vec<u32>,
        inner_keys: Vec<i64>,
        out_rows: u64,
        /// How the outer weights summed by key, and a table listing the
        /// inner rows by their own keys, address the keys.
        summed: Path,
        listed: Path,
    }

    /// The two ways a join table finds a key's slot.
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Path {
        Direct,
        Map,
    }

    fn path_of(index: &SlotIndex) -> Path {
        match index {
            SlotIndex::Direct { .. } => Path::Direct,
            SlotIndex::Map(_) => Path::Map,
        }
    }

    /// Outer tuples from row-id columns: tuple `k` holds the join key of
    /// row `columns[key][k]` (by `keys`) at `key`, and its other row ids as
    /// codes.
    fn tuples(columns: &[Vec<u32>], key: usize, keys: &[i64]) -> Vec<Vec<i64>> {
        (0..columns[0].len())
            .map(|k| {
                let code = |(c, col): (usize, &Vec<u32>)| {
                    if c == key {
                        keys[col[k] as usize]
                    } else {
                        i64::from(col[k])
                    }
                };
                columns.iter().enumerate().map(code).collect()
            })
            .collect()
    }

    /// Tuples of `width` codes with their weights summed per tuple.
    fn weight_map(groups: &Groups, width: usize) -> BTreeMap<Vec<i64>, u64> {
        let mut map = BTreeMap::new();
        for (tuple, w) in groups.iter(width) {
            *map.entry(tuple.to_vec()).or_default() += w;
        }
        map
    }

    /// How a merge addresses tuples of `width` codes: 0 direct (dense
    /// one-code tuples), 1 hashed (sparse one-code tuples and longer ones).
    fn merge_path(groups: &Groups, width: usize) -> usize {
        if width > 1 {
            return 1;
        }
        let keys: Vec<i128> = groups.keys.iter().map(|&k| i128::from(k)).collect();
        let n = 4 * groups.weights.len() as i128;
        match (keys.iter().min(), keys.iter().max()) {
            (Some(min), Some(max)) if max - min >= n.min(i128::from(u32::MAX)) => 1,
            _ => 0,
        }
    }

    /// What a sweep of join cases covered: the key sums' and the listed
    /// tables' paths (direct, map), merges by [`merge_path`], and joins over
    /// every inner row.
    #[derive(Debug, Default)]
    struct JoinCover {
        listed: [usize; 2],
        summed: [usize; 2],
        merges: [usize; 2],
        whole: usize,
    }

    impl JoinCase {
        /// The outer tuples as an intermediate: each distinct tuple once,
        /// weighted by its copies, when `merged`, else each copy with
        /// weight 1.
        fn groups(&self, merged: bool) -> Groups {
            let mut copies: Vec<(&[i64], u64)> = self.outer.iter().map(|t| (&t[..], 1)).collect();
            if merged {
                let mut map: BTreeMap<&[i64], u64> = BTreeMap::new();
                for (tuple, w) in copies {
                    *map.entry(tuple).or_default() += w;
                }
                copies = map.into_iter().collect();
            }
            Groups {
                keys: copies.iter().flat_map(|(t, _)| t.iter().copied()).collect(),
                weights: copies.iter().map(|&(_, w)| w).collect(),
            }
        }

        /// The reference: a nested loop over every copy of every outer
        /// tuple and every inner row, counting the join tuples under each
        /// output tuple that `sources` makes. An inner code is the inner
        /// row's id.
        fn nested_loop(&self, sources: &[Source]) -> BTreeMap<Vec<i64>, u64> {
            let mut map = BTreeMap::new();
            for tuple in &self.outer {
                for &r in &self.inner_rows {
                    if self.inner_keys[r as usize] == tuple[self.key] {
                        let out = sources.iter().map(|source| match *source {
                            Source::Outer(k) => tuple[k],
                            Source::Inner(_) => i64::from(r),
                        });
                        *map.entry(out.collect()).or_default() += 1;
                    }
                }
            }
            map
        }

        /// Whether the inner rows are every inner row, in row order, as a
        /// scan with no predicate emits them.
        fn every_inner_row(&self) -> bool {
            self.inner_rows
                .iter()
                .copied()
                .eq(0..self.inner_keys.len() as u32)
        }

        /// Run the step on merged and on unmerged outer tuples, with output
        /// tuples of no code, of the outer key, of the inner code and of
        /// every outer code and the inner one. The outer tuples join the
        /// inner rows listed by key; an output reading no outer code but
        /// the key also streams the inner rows past the outer weights
        /// summed by key; and when the inner rows are every inner row, the
        /// outer tuples also join a table kept over the whole inner table.
        /// Each output tuple's weight, summed over its copies, must equal
        /// the nested loop's join tuples under it, before and after a merge,
        /// which must leave each tuple once. The merged outer tuples' key
        /// sums and the listing must address their keys as `summed` and
        /// `listed` say.
        fn check(&self, cover: &mut JoinCover) {
            let key = ColumnSpec::new("k", ColumnType::Int, Distribution::Sequential);
            let schema = TableSchema::new("inner", vec![key]);
            let table = TableBuilder::new(schema, self.inner_keys.len()).build(TableId(0), 0);
            let ids: Vec<i64> = (0..self.inner_keys.len() as i64).collect();
            let all_outer = (0..self.width).map(Source::Outer);
            let source_sets = [
                vec![],
                vec![Source::Outer(self.key)],
                vec![Source::Inner(0)],
                all_outer.chain([Source::Inner(0)]).collect(),
            ];
            for merged in [true, false] {
                let groups = self.groups(merged);
                let input_rows = groups.weights.len() + self.inner_rows.len();
                for sources in &source_sets {
                    let label = format!("{}: merged {merged}, {sources:?}", self.name);
                    let codes: Vec<&[i64]> = match sources.last() {
                        Some(Source::Inner(_)) => vec![&ids],
                        _ => vec![],
                    };
                    let inner = Matches {
                        table: &table,
                        range: Some(&self.inner_rows),
                        preds: &[],
                    };
                    let join = |joined: &JoinTable| {
                        let mut out = Output::new(sources.clone());
                        joined.join(&groups, self.width, self.key, &codes, &mut out);
                        out.finish()
                    };
                    let listed = JoinTable::over(&self.inner_rows, &self.inner_keys, input_rows);
                    let path = path_of(&listed.index);
                    if merged {
                        assert_eq!(path, self.listed, "{label}: listed path");
                        cover.listed[usize::from(path == Path::Map)] += 1;
                    }
                    let mut outputs = vec![join(&listed)];
                    // An output reading no outer code but the key.
                    if (self.width == 1 && !codes.is_empty()) || sources.is_empty() {
                        let sums = KeyCounts::sums(&groups, self.width, self.key, input_rows);
                        let path = path_of(&sums.index);
                        if merged {
                            assert_eq!(path, self.summed, "{label}: summed path");
                            cover.summed[usize::from(path == Path::Map)] += 1;
                        }
                        let mut out = Output::new(sources.clone());
                        let streamed = inner.stream(&mut Vec::new(), |rows| {
                            sums.join(rows, &self.inner_keys, &codes, &mut out)
                        });
                        assert_eq!(streamed, self.inner_rows.len() as u64, "{label}");
                        outputs.push(out.finish());
                    }
                    if self.every_inner_row() {
                        outputs.push(join(&JoinTable::over_rows(&self.inner_keys)));
                        cover.whole += 1;
                    }
                    let want = self.nested_loop(sources);
                    for (got, total) in outputs {
                        let width = sources.len();
                        assert_eq!(total, self.out_rows, "{label}: join tuples");
                        let sum: u64 = got.weights.iter().sum();
                        assert_eq!(sum, total, "{label}: the tuples' weights");
                        let mut got_map = weight_map(&got, width);
                        // No tuple of weight 0: the nested loop lists none.
                        got_map.retain(|_, w| *w > 0);
                        assert_eq!(got_map, want, "{label}");
                        let path = merge_path(&got, width);
                        let once = got.merged(width);
                        assert_eq!(
                            once.weights.len(),
                            weight_map(&once, width).len(),
                            "{label}: merged once"
                        );
                        let mut once_map = weight_map(&once, width);
                        once_map.retain(|_, w| *w > 0);
                        assert_eq!(once_map, want, "{label}: merged");
                        if width > 0 {
                            cover.merges[path] += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hash_join_output_equals_a_nested_loop() {
        let stride = |k: i64| k << 32;
        let case = |name, columns: Vec<Vec<u32>>, key, keys: Vec<i64>, inner_rows, inner_keys| {
            let outer = tuples(&columns, key, &keys);
            JoinCase {
                name,
                outer,
                width: columns.len(),
                key,
                inner_rows,
                inner_keys,
                out_rows: 0,
                summed: Path::Direct,
                listed: Path::Direct,
            }
        };
        let (d, m) = (Path::Direct, Path::Map);
        let cases = [
            (
                case(
                    "duplicate keys on both sides",
                    vec![vec![4, 0, 2, 1, 3]],
                    0,
                    vec![5, 7, 5, 9, 7],
                    vec![5, 3, 1, 0, 2, 4],
                    vec![7, 5, 7, 5, 1, 5],
                ),
                10,
                (d, d),
            ),
            (
                case(
                    "equal sizes",
                    vec![vec![0, 1, 2]],
                    0,
                    vec![1, 2, 2],
                    vec![2, 0, 1],
                    vec![2, 1, 2],
                ),
                5,
                (d, d),
            ),
            (
                case(
                    "probe keys with no match",
                    vec![vec![0, 1, 2, 3]],
                    0,
                    vec![1, 2, 3, 4],
                    vec![2, 0, 1],
                    vec![3, 30, 40],
                ),
                1,
                (d, m),
            ),
            (
                case(
                    "empty inner side",
                    vec![vec![0, 1, 2]],
                    0,
                    vec![1, 2, 3],
                    vec![],
                    vec![1, 2, 3],
                ),
                0,
                (d, d),
            ),
            (
                case(
                    "empty outer side, non-empty inner",
                    vec![vec![]],
                    0,
                    vec![1, 2],
                    vec![0, 1],
                    vec![1, 2],
                ),
                0,
                (d, d),
            ),
            (
                case(
                    "two-code intermediate, equal sizes",
                    vec![vec![3, 1, 0, 2], vec![2, 4, 0, 4]],
                    1,
                    vec![8, -1, 6, 9, 8],
                    vec![1, 3, 0, 2],
                    vec![8, 6, 8, 7],
                ),
                7,
                (d, d),
            ),
            (
                case(
                    "two-code intermediate repeating outer row ids",
                    vec![vec![1, 1, 0, 2], vec![3, 0, 3, 3]],
                    1,
                    vec![5, 9, 9, 7],
                    vec![4, 0, 2, 1, 5, 3],
                    vec![7, 5, 8, 7, 5, 7],
                ),
                11,
                (d, d),
            ),
            (
                case(
                    "extreme keys",
                    vec![vec![0, 1, 2, 3, 4]],
                    0,
                    vec![i64::MIN, -1, 0, i64::MAX, i64::MIN],
                    vec![0, 1, 2, 3, 4, 5],
                    vec![i64::MAX, 0, -1, i64::MIN, 1, i64::MAX],
                ),
                6,
                (m, m),
            ),
            (
                case(
                    "stride keys sharing their low 32 bits",
                    vec![(0..64).rev().collect()],
                    0,
                    (0..64).map(stride).collect(),
                    (0..96).collect(),
                    (0..96).map(|k| stride(k % 48)).collect(),
                ),
                96,
                (m, m),
            ),
            (
                case(
                    "keys spanning exactly 4 codes per input row",
                    vec![vec![0, 1, 2, 3]],
                    0,
                    vec![37, 10, 15, 16],
                    vec![0, 1, 2],
                    vec![10, 37, 15],
                ),
                3,
                (d, d),
            ),
            (
                case(
                    "keys spanning one code more than 4 per input row",
                    vec![vec![0, 1, 2, 3]],
                    0,
                    vec![38, 10, 15, 16],
                    vec![0, 1, 2],
                    vec![10, 38, 15],
                ),
                3,
                (m, m),
            ),
            (
                case(
                    "more inner rows, keys spanning exactly 4 codes per input row",
                    vec![vec![0, 1, 2]],
                    0,
                    vec![10, 37, 15],
                    vec![0, 1, 2, 3],
                    vec![37, 10, 15, 16],
                ),
                3,
                (d, d),
            ),
            (
                case(
                    "more inner rows, keys spanning one code more than 4 per input row",
                    vec![vec![0, 1, 2]],
                    0,
                    vec![10, 38, 15],
                    vec![0, 1, 2, 3],
                    vec![38, 10, 15, 16],
                ),
                3,
                (m, m),
            ),
            (
                case(
                    "negative codes",
                    vec![vec![0, 1, 2, 3, 4]],
                    0,
                    vec![-3, -7, -4, 0, -8],
                    vec![3, 1, 0, 2],
                    vec![-7, -3, -5, -3],
                ),
                3,
                (d, d),
            ),
            (
                case(
                    "outer keys below, above and on empty slots inside the inner span",
                    vec![(0..8).collect()],
                    0,
                    vec![99, 106, 101, 104, 105, 100, i64::MIN, i64::MAX],
                    vec![0, 1, 2, 3],
                    vec![100, 103, 100, 105],
                ),
                3,
                (m, d),
            ),
            (
                case(
                    "inner keys below, above and on empty slots inside the outer span",
                    vec![vec![0, 1, 2, 3]],
                    0,
                    vec![100, 103, 100, 105],
                    (0..8).collect(),
                    vec![99, 106, 101, 104, 105, 100, i64::MIN, i64::MAX],
                ),
                3,
                (d, m),
            ),
            (
                case(
                    "one key repeated",
                    vec![vec![0, 1, 2, 3]],
                    0,
                    vec![42, 41, 43, 42],
                    vec![4, 2, 0, 1, 3],
                    vec![42; 5],
                ),
                10,
                (d, d),
            ),
            (
                case(
                    "direct inner span ending at i64::MAX",
                    vec![vec![0, 1, 2, 3]],
                    0,
                    vec![i64::MAX, i64::MIN, i64::MAX - 1, i64::MAX - 3],
                    vec![0, 1],
                    vec![i64::MAX, i64::MAX - 2],
                ),
                1,
                (m, d),
            ),
            (
                case(
                    "direct inner span starting at i64::MIN",
                    vec![vec![0, 1, 2]],
                    0,
                    vec![i64::MAX, i64::MIN + 2, i64::MIN],
                    vec![1, 0],
                    vec![i64::MIN, i64::MIN + 1],
                ),
                1,
                (m, d),
            ),
        ];
        let mut cover = JoinCover::default();
        for (mut case, out_rows, (summed, listed)) in cases {
            case.out_rows = out_rows;
            (case.summed, case.listed) = (summed, listed);
            case.check(&mut cover);
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
        let mut cover = JoinCover::default();
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

            // Outer tuples of 1 to 3 codes, the key at any of them, the
            // others from a few values so that tuples repeat.
            let width = 1 + draw.below(3) as usize;
            let at = draw.below(width as u64) as usize;
            let copies = draw.below(301);
            let outer: Vec<Vec<i64>> = (0..copies)
                .map(|_| {
                    (0..width)
                        .map(|c| {
                            if c == at {
                                key(&mut draw)
                            } else {
                                draw.below(4) as i64
                            }
                        })
                        .collect()
                })
                .collect();
            let inner_base = draw.below(301) as u32;
            let inner_keys: Vec<i64> = (0..inner_base).map(|_| key(&mut draw)).collect();
            // All inner rows, or about 3/4 or 1/2 of them in row order, as a
            // filtered scan emits them.
            let dropped = draw.below(3);
            let inner_rows: Vec<u32> = (0..inner_base)
                .filter(|_| draw.below(4) >= dropped)
                .collect();

            // Keys spanning at most 4 codes per input row are direct
            // addressed: the distinct outer tuples and the inner rows.
            let distinct: BTreeSet<&Vec<i64>> = outer.iter().collect();
            let input_rows = (distinct.len() + inner_rows.len()) as i128;
            let path_of_keys = |keys: Vec<i64>| {
                let keys: Vec<i128> = keys.into_iter().map(i128::from).collect();
                match (keys.iter().min(), keys.iter().max()) {
                    (Some(min), Some(max)) if max - min + 1 > 4 * input_rows => Path::Map,
                    _ => Path::Direct,
                }
            };
            let summed = path_of_keys(distinct.iter().map(|t| t[at]).collect());
            let listed = path_of_keys(inner_rows.iter().map(|&r| inner_keys[r as usize]).collect());
            let mut case = JoinCase {
                name: "seeded sweep",
                outer,
                width,
                key: at,
                inner_rows,
                inner_keys,
                out_rows: 0,
                summed,
                listed,
            };
            case.out_rows = case.nested_loop(&[]).values().sum();
            case.check(&mut cover);
        }
        let JoinCover {
            listed,
            summed,
            merges,
            whole,
        } = cover;
        for (what, joins) in [("summed", summed), ("listed", listed)] {
            assert!(
                joins.iter().all(|&n| n >= 20),
                "every {what} path is swept: {joins:?} (direct, map)"
            );
        }
        assert!(
            merges.iter().all(|&n| n >= 20),
            "every merge path is swept: {merges:?} (direct, hashed)"
        );
        assert!(whole >= 20, "{whole} joins over every inner row");
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

            let mut timed = Executor::timed(CostModel::unit_scale(), BudgetTimer::scripted(1e-6));
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
            // The probes emit `dim`'s key codes, the ones the `sub` join
            // keys on, timed or not.
            let three = Executor::new(CostModel::unit_scale()).execute(&cat, &q3, &then_sub);
            assert_eq!(
                three.result_rows, with_sub,
                "{name}: sub joined after the probes"
            );
            let samples = timed.take_op_samples();
            assert_same_execution(&three, &timed.execute(&cat, &q3, &then_sub), name);

            let probe = samples.iter().find(|s| s.op == OpKind::InlProbe);
            let probe = probe.expect("an InlProbe sample");
            assert_eq!(
                (probe.rows, probe.out_rows, probe.descents),
                (rows, out_rows, descents),
                "{name}"
            );
            assert_eq!(out_rows, want, "{name}");

            // Later steps key on the probes' inner table (`aux` on
            // fact.f_val), on their outer one (`sub` on dim.d_key) or on
            // both: each count and sample matches the materialising
            // reference.
            let hash_step = |table, join| JoinStep {
                access: TableAccess {
                    table: TableId(table),
                    method: AccessMethod::FullScan,
                    est_rows: 0.0,
                },
                algo: JoinAlgo::Hash,
                join,
                est_rows_out: 0.0,
            };
            let (on_dim, on_fact) = (
                JoinPred::new(col(2, 0), col(0, 0)),
                JoinPred::new(col(3, 0), col(1, 2)),
            );
            for later in [
                vec![(2, on_dim)],
                vec![(3, on_fact)],
                vec![(2, on_dim), (3, on_fact)],
            ] {
                let (mut wide_q, mut wide_plan) = (q.clone(), inl_plan.clone());
                for &(table, join) in &later {
                    wide_q.tables.push(TableId(table));
                    wide_q.joins.push(join);
                    wide_plan.joins.push(hash_step(table, join));
                }
                let label = format!("{name}, then {later:?}");
                let (counts, work) = reference(&cat, &wide_q, &wide_plan);
                let got = Executor::new(CostModel::unit_scale()).count(&cat, &wide_q, &wide_plan);
                assert_eq!(got, counts, "{label}");
                let mut timed =
                    Executor::timed(CostModel::unit_scale(), BudgetTimer::scripted(1e-6));
                let execution = timed.execute(&cat, &wide_q, &wide_plan);
                let plain =
                    Executor::new(CostModel::unit_scale()).execute(&cat, &wide_q, &wide_plan);
                assert_same_execution(&execution, &plain, &label);
                let sampled: Vec<Work> = timed.take_op_samples().iter().map(work_of).collect();
                assert_eq!(sampled, work, "{label}");
            }
        }
    }

    #[test]
    fn drifted_table_scans_slower_but_returns_same_rows() {
        let mut cat = catalog();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 0, 99)], vec![col(1, 0)]);
        let mut exec = Executor::new(CostModel::unit_scale());
        let before = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        cat.apply_drift(TableId(1), 50_000, 0, 0);
        // A replay, priced at the live sizes as a fresh execution is.
        let after = exec.execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        assert_eq!(memo_entries(&exec), 1, "the repeat replays");
        let fresh =
            Executor::new(CostModel::unit_scale()).execute(&cat, &q, &scan_plan(TableId(1), 0.0));
        assert_same_execution(&after, &fresh, "after drift");
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
            let access = TableAccess {
                table: TableId(1),
                method: AccessMethod::CoveringScan { index: meta.id },
                est_rows: 0.0,
            };
            let mut exec = Executor::new(CostModel::unit_scale());
            let (got, counts) = access_rows(&mut exec, &cat, &q, &access);
            assert_eq!(got, want, "{name}");
            assert_eq!(counts.rows_out, want.len() as u64, "{name}");
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

    /// One plan per operator class over the catalog: every access method,
    /// both join algorithms, and an aggregate. The two hash joins of
    /// `join_query` are last steps, only counted: `dim` driving, the `fact`
    /// rows stream past the weights of its ~20 matching keys, and `fact`
    /// driving, the 200 `dim` rows its inner scan filters stream past its
    /// keys' weights. Four plans, driven by a filtered `dim`, hash join a table with
    /// no predicate on it, which the executor reads through a kept table:
    /// `fact` scanned whole and keyed on by a later step through its join
    /// column, `fact` covering-scanned and only counted, `sub` scanned
    /// whole while only `dim`'s keys go on, and `fact` on another key
    /// column. Four more hash join a filtered inner side, whose access runs
    /// inside the join: two as the first of two steps, whose matches are
    /// listed by key for each outer tuple to join (`dim` driving, a later
    /// step keying on the join column) and stream past the outer weights
    /// summed by key (`fact` driving, a later step keying on `dim`), and
    /// two as the last step: a seek with a residual predicate and a
    /// filtered covering scan.
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
        let mut fact_driven = hash.clone();
        fact_driven.driver.table = TableId(1);
        fact_driven.joins[0].access.table = TableId(0);
        let inl = AccessMethod::IndexSeek {
            index: fk_ix.id,
            covering: false,
        };
        let inl = join_plan(&jq, JoinAlgo::IndexNestedLoop, inl);

        let fk_cover = cat
            .create_index(IndexDef::new(TableId(1), vec![1], vec![0]))
            .unwrap();
        let (d_key, f_key, f_dim, f_val, s_dim) =
            (col(0, 0), col(1, 0), col(1, 1), col(1, 2), col(2, 0));
        let range = Predicate::range;
        let dim_query = |tables: &[u32], predicates, joins, payload| Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: tables.iter().map(|&t| TableId(t)).collect(),
            predicates: [vec![Predicate::eq(col(0, 1), 3)], predicates].concat(),
            joins,
            payload,
            aggregated: true,
        };
        // A scan of `q.tables[0]` drives; step `i` hash joins
        // `q.tables[i + 1]` on `q.joins[i]`, read by `methods[i]`.
        let hash_steps = |q: &Query, methods: Vec<AccessMethod>| Plan {
            driver: TableAccess {
                table: q.tables[0],
                method: AccessMethod::FullScan,
                est_rows: 0.0,
            },
            joins: (q.joins.iter().zip(&q.tables[1..]).zip(methods))
                .map(|((&join, &table), method)| JoinStep {
                    access: TableAccess {
                        table,
                        method,
                        est_rows: 0.0,
                    },
                    algo: JoinAlgo::Hash,
                    join,
                    est_rows_out: 0.0,
                })
                .collect(),
            aggregated: true,
            est_cost: SimSeconds::ZERO,
        };
        let scan = AccessMethod::FullScan;
        let hash_plans = [
            (
                dim_query(
                    &[0, 1, 2],
                    vec![Predicate::range(s_dim, 0, 99)],
                    vec![JoinPred::new(d_key, f_dim), JoinPred::new(s_dim, f_dim)],
                    vec![f_val],
                ),
                vec![scan.clone(), scan.clone()],
            ),
            (
                dim_query(
                    &[0, 1],
                    vec![],
                    vec![JoinPred::new(d_key, f_dim)],
                    vec![f_key],
                ),
                vec![AccessMethod::CoveringScan { index: fk_cover.id }],
            ),
            (
                dim_query(
                    &[0, 2, 1],
                    vec![Predicate::range(f_val, 0, 499)],
                    vec![JoinPred::new(s_dim, d_key), JoinPred::new(d_key, f_dim)],
                    vec![f_key],
                ),
                vec![scan.clone(), scan.clone()],
            ),
            (
                dim_query(&[0, 1], vec![], vec![JoinPred::new(d_key, f_key)], vec![]),
                vec![scan.clone()],
            ),
            (
                dim_query(
                    &[0, 1, 2],
                    vec![range(f_val, 0, 499), range(s_dim, 0, 99)],
                    vec![JoinPred::new(d_key, f_dim), JoinPred::new(s_dim, f_dim)],
                    vec![],
                ),
                vec![scan.clone(), scan.clone()],
            ),
            (
                dim_query(
                    &[1, 0, 2],
                    vec![range(f_val, 0, 499), range(s_dim, 0, 99)],
                    vec![JoinPred::new(d_key, f_dim), JoinPred::new(s_dim, d_key)],
                    vec![],
                ),
                vec![scan.clone(), scan],
            ),
            (
                dim_query(
                    &[0, 1],
                    vec![range(f_val, 0, 499), range(f_key, 1000, 3999)],
                    vec![JoinPred::new(d_key, f_dim)],
                    vec![],
                ),
                vec![AccessMethod::IndexSeek {
                    index: seek_ix.id,
                    covering: false,
                }],
            ),
            (
                dim_query(
                    &[0, 1],
                    vec![range(f_key, 0, 2999)],
                    vec![JoinPred::new(d_key, f_dim)],
                    vec![],
                ),
                vec![AccessMethod::CoveringScan { index: fk_cover.id }],
            ),
        ]
        .map(|(q, methods)| {
            let plan = hash_steps(&q, methods);
            (q, plan)
        });
        let mut sweep = vec![
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
            (jq.clone(), fact_driven),
            (jq, inl),
        ];
        sweep.extend(hash_plans);
        sweep
    }

    /// One sample's operator and work counters: pages, rows, descents,
    /// build rows, probe rows and out rows.
    type Work = (OpKind, [u64; 6]);

    /// A sample's [`Work`].
    fn work_of(s: &OpSample) -> Work {
        let counters = [
            s.pages,
            s.rows,
            s.descents,
            s.build_rows,
            s.probe_rows,
            s.out_rows,
        ];
        (s.op, counters)
    }

    /// The leaf pages holding entries `[start, end)` of an index of
    /// `entries` entries, `cap` to a leaf: the one a miss lands on when
    /// the range is empty, and none in an empty index.
    fn leaves_holding(start: usize, end: usize, cap: usize, entries: usize) -> u64 {
        let mut leaves: Vec<usize> = (start..end).map(|e| e / cap).collect();
        leaves.dedup();
        leaves.len().max(usize::from(entries > 0)) as u64
    }

    /// The entries of `index`, keyed on one column of `table`, whose key
    /// lies in `[lo, hi]`, as positions in key order: the rows whose key
    /// sorts below `lo` come first, then the matches.
    fn key_range(table: &Table, index: &Index, lo: i64, hi: i64) -> (usize, usize) {
        let [key] = index.def().key_cols[..] else {
            panic!("the sweep's indexes have one key column")
        };
        let keys = table.column(key).data();
        let start = keys.iter().filter(|&&v| v < lo).count();
        let matched = keys.iter().filter(|&&v| (lo..=hi).contains(&v)).count();
        (start, start + matched)
    }

    /// Run one access of the sweep by brute force: its matching rows and
    /// the work its sample must count.
    fn reference_access(cat: &Catalog, q: &Query, access: &TableAccess) -> (Vec<u32>, Work) {
        let table = cat.table(access.table);
        let preds = q.predicates_on(access.table);
        let rows: Vec<u32> = (0..table.rows() as u32)
            .filter(|&r| row_matches(table, r, &preds))
            .collect();
        let out = rows.len() as u64;
        let all = table.rows() as u64;
        let work = match access.method {
            AccessMethod::FullScan => (OpKind::SeqScan, [table.heap_pages(), all, 0, 0, 0, out]),
            AccessMethod::IndexSeek { index, .. } => {
                let ix = cat.index(index).unwrap();
                let key = ix.def().key_cols[0];
                let (lo, hi) = preds
                    .iter()
                    .find(|p| p.column.ordinal == key)
                    .map_or((i64::MIN, i64::MAX), |p| (p.lo, p.hi));
                let (start, end) = key_range(table, ix, lo, hi);
                let pages = leaves_holding(start, end, leaf_capacity(table, ix), ix.rows());
                let matched = (end - start) as u64;
                (OpKind::IndexSeek, [pages, matched, 1, 0, 0, out])
            }
            AccessMethod::CoveringScan { index } => {
                let ix = cat.index(index).unwrap();
                let pages = leaves_holding(0, ix.rows(), leaf_capacity(table, ix), ix.rows());
                (OpKind::CoveringScan, [pages, all, 0, 0, 0, out])
            }
        };
        (rows, work)
    }

    /// The counts of one access from its reference rows and work: a
    /// seek's matched entries are its sample's rows.
    fn access_counts(rows: &[u32], (op, work): Work) -> AccessCounts {
        AccessCounts {
            matched: if op == OpKind::IndexSeek { work[1] } else { 0 },
            rows_out: rows.len() as u64,
        }
    }

    /// Run `plan` for `q` by brute force, independently of the executor:
    /// the counts its counting pass must return, and the samples a timed
    /// run must leave on a miss, in plan order. Accesses filter row by row,
    /// joins are nested loops over materialised (table, row id) tuples, and
    /// index entries are located by counting the keys that sort before
    /// them. A hash join counts the inner rows as its build and the outer
    /// tuples as its probe. Its inner access leaves no sample of its own:
    /// the join's sample counts the access's pages, rows and descents too,
    /// unless a kept join table serves it, reading a whole table with no
    /// predicate on it. The aggregate leaves no sample either.
    fn reference(cat: &Catalog, q: &Query, plan: &Plan) -> (Counts, Vec<Work>) {
        let (driver_rows, driver) = reference_access(cat, q, &plan.driver);
        let driver_counts = access_counts(&driver_rows, driver);
        let mut work = vec![driver];
        let mut steps = Vec::new();
        let mut tables = vec![plan.driver.table];
        let mut tuples: Vec<Vec<u32>> = driver_rows.into_iter().map(|r| vec![r]).collect();
        for step in &plan.joins {
            let inner = cat.table(step.access.table);
            let outer_col = step.join.other_side(step.access.table).unwrap();
            let inner_key = inner.column(step.join.side_on(step.access.table).unwrap().ordinal);
            let at = tables.iter().position(|&t| t == outer_col.table).unwrap();
            let outer_key = cat.table(outer_col.table).column(outer_col.ordinal);
            let key_of = |tuple: &Vec<u32>| outer_key.value(tuple[at] as usize);
            let (inner_rows, inner_work) = reference_access(cat, q, &step.access);
            let mut joined = Vec::new();
            for tuple in &tuples {
                for &r in inner_rows
                    .iter()
                    .filter(|&&r| inner_key.value(r as usize) == key_of(tuple))
                {
                    joined.push([tuple.as_slice(), &[r]].concat());
                }
            }
            let (probes, out) = (tuples.len() as u64, joined.len() as u64);
            match step.algo {
                JoinAlgo::Hash => {
                    let build = inner_rows.len() as u64;
                    let scan = !matches!(step.access.method, AccessMethod::IndexSeek { .. });
                    let kept = scan && q.predicates_on(step.access.table).is_empty();
                    let [pages, rows, descents, ..] = inner_work.1;
                    let access = if kept {
                        [0; 3]
                    } else {
                        [pages, rows, descents]
                    };
                    let join = [build, probes, out];
                    let counters = [access, join].concat().try_into().unwrap();
                    work.push((OpKind::HashJoin, counters));
                    steps.push(StepCounts::Hash {
                        inner: access_counts(&inner_rows, inner_work),
                        kept,
                        out_rows: out,
                    });
                }
                JoinAlgo::IndexNestedLoop => {
                    let ix = cat.index(step.access.method.index_id().unwrap()).unwrap();
                    let cap = leaf_capacity(inner, ix);
                    let (mut pages, mut matched) = (0, 0);
                    for tuple in &tuples {
                        let (start, end) = key_range(inner, ix, key_of(tuple), key_of(tuple));
                        pages += leaves_holding(start, end, cap, ix.rows());
                        matched += (end - start) as u64;
                    }
                    work.push((OpKind::InlProbe, [pages, matched, probes, 0, 0, out]));
                    steps.push(StepCounts::Inl {
                        matched,
                        out_rows: out,
                    });
                }
            }
            tables.push(step.access.table);
            tuples = joined;
        }
        let counts = Counts {
            driver: driver_counts,
            steps: steps.into(),
        };
        (counts, work)
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

    /// The timed and untimed executors run one program. The sweep runs
    /// three times: the first pass misses, the second replays and the
    /// third replays after drift. Each call reports the same execution on
    /// both and on a fresh executor, which counts the pair afresh, bit for
    /// bit, and leaves both with the same memo entries and join tables. So
    /// a replay, drifted or not, gives what a fresh count gives, for every
    /// operator kind. On a miss the timed executor leaves one sample per
    /// operator it ran, in plan order, whose work counters match the
    /// independent count (as a fresh executor's counts do), whose price is
    /// its operator's and whose time is
    /// one scripted step: exactly one `mark`/`elapsed_secs` pair per
    /// operator. A replay runs no operator and leaves no sample.
    #[test]
    fn timed_and_untimed_executors_run_one_program() {
        let mut cat = catalog();
        let sweep = operator_sweep(&mut cat);
        let mut plain = Executor::new(CostModel::unit_scale());
        let mut timed = Executor::timed(CostModel::unit_scale(), BudgetTimer::scripted(0.5));
        for pass in 0..3 {
            if pass == 2 {
                cat.apply_drift(TableId(0), 300, 20, 10);
                cat.apply_drift(TableId(1), 20_000, 500, 700);
            }
            let mut ops = Vec::new();
            let mut larger = (false, false);
            for (i, (q, plan)) in sweep.iter().enumerate() {
                let label = format!("pass {pass}, plan {i}");
                let a = plain.execute(&cat, q, plan);
                let b = timed.execute(&cat, q, plan);
                assert_same_execution(&a, &b, &label);
                let fresh = Executor::new(CostModel::unit_scale()).execute(&cat, q, plan);
                assert_same_execution(&a, &fresh, &format!("{label}, fresh"));
                assert_eq!(memo_state(&plain), memo_state(&timed), "{label}: memo");
                let entries = if pass == 0 { i + 1 } else { sweep.len() };
                assert_eq!(memo_entries(&timed), entries, "{label}: memo entries");
                let samples = timed.take_op_samples();
                assert!(timed.take_op_samples().is_empty(), "{label}: samples drain");
                if pass > 0 {
                    assert!(samples.is_empty(), "{label}: a replay leaves no sample");
                    continue;
                }
                let work: Vec<Work> = samples.iter().map(work_of).collect();
                let (counts, reference_work) = reference(&cat, q, plan);
                assert_eq!(work, reference_work, "{label}");
                let fresh = Executor::new(CostModel::unit_scale()).count(&cat, q, plan);
                assert_eq!(fresh, counts, "{label}: counts");
                // A hash join's sample carries its step's share of the
                // join time, and the price of an inner access that ran
                // inside it; any other sample the time of one access.
                let mut join_time = SimSeconds::ZERO;
                for s in &samples {
                    assert_eq!(s.measured_s, 0.5, "{label}: {:?} time", s.op);
                }
                let price_bits = |t: SimSeconds| t.secs().to_bits();
                let (driver, steps) = samples.split_first().expect("a driver sample");
                assert_eq!(
                    driver.sim_s.to_bits(),
                    price_bits(b.accesses[0].time),
                    "{label}"
                );
                for ((s, step), access) in steps.iter().zip(&*counts.steps).zip(&b.accesses[1..]) {
                    let price = match *step {
                        StepCounts::Hash { kept, .. } => {
                            let join = plain.cost.hash_join(s.build_rows, s.probe_rows, s.out_rows);
                            join_time += join;
                            // Fewer inner rows than outer tuples, and more.
                            larger.0 |= s.build_rows < s.probe_rows;
                            larger.1 |= s.build_rows > s.probe_rows;
                            if kept {
                                join
                            } else {
                                access.time + join
                            }
                        }
                        StepCounts::Inl { .. } => access.time,
                    };
                    assert_eq!(
                        s.sim_s.to_bits(),
                        price_bits(price),
                        "{label}: {:?} price",
                        s.op
                    );
                }
                assert_eq!(
                    join_time.secs().to_bits(),
                    b.join_time.secs().to_bits(),
                    "{label}: join price"
                );
                ops.extend(samples.iter().map(|s| s.op));
            }
            if pass == 0 {
                for op in OpKind::ALL {
                    assert!(ops.contains(&op), "no {op:?} sample");
                }
                assert_eq!(larger, (true, true), "hash joins with either input larger");
            }
        }
        // Four filtered scans of `fact` meet the 24 `dim` rows with
        // `d_attr = 3` (or 19 tuples after `sub`) and probe the table kept
        // over fact.f_dim; `sub`'s filtered scans meet too many rows under
        // those keys, or too many tuples, and `dim`'s filtered scans meet
        // 2,469 `fact` tuples, so no table is built over dim.d_key.
        let probed = timed.probes.iter().filter(|(_, _, probed)| *probed).count();
        assert_eq!(
            (probed, timed.probes.len()),
            (4, 9),
            "steps probed, of those that could"
        );
        assert_eq!(
            join_tables(&timed),
            3,
            "fact.f_dim (whole and probed), sub.s_dim (whole, and built for a probe \
             decision) and fact.f_key"
        );
    }

    /// The join-key domains of the count sweep.
    #[derive(Clone, Copy, Debug)]
    enum Keys {
        /// Codes near zero, from an offset of the table's own.
        Dense,
        /// Multiples of 2^40, one per value of the table's `s`.
        Sparse,
        /// Codes from `i64::MIN`.
        Low,
        /// Codes up to `i64::MAX`.
        High,
    }

    impl Keys {
        fn draw(d: &mut Draws) -> Keys {
            [Keys::Dense, Keys::Sparse, Keys::Low, Keys::High][d.below(4) as usize]
        }

        /// A table's join-key distribution in this domain, spanning up to
        /// 40 codes more than `spread` unless sparse.
        fn distribution(self, d: &mut Draws, spread: u64) -> Distribution {
            let width = (d.below(40) + spread) as i64;
            match self {
                Keys::Dense => {
                    let lo = d.below(7) as i64 - 3;
                    Distribution::Uniform { lo, hi: lo + width }
                }
                Keys::Sparse => Distribution::Correlated {
                    source: 0,
                    a: 1 << 40,
                    b: 0,
                    m: i64::MAX,
                    noise: 0,
                },
                Keys::Low => Distribution::Uniform {
                    lo: i64::MIN,
                    hi: i64::MIN + width,
                },
                Keys::High => Distribution::Uniform {
                    lo: i64::MAX - width,
                    hi: i64::MAX,
                },
            }
        }
    }

    /// One seeded case of the count sweep: up to four tables of columns
    /// `s` (uniform in 0..=9), the join keys `k` and `j`, `v` (0..=99) and
    /// `w` (0..=9), one in six of them long (100 to 399 rows, its keys
    /// spread over a code or more per row, so that a short outer side can
    /// probe it), each with a seek index on `v`, an index on `k` and one
    /// on `k` covering every column, and a plan of up to three join steps,
    /// each joining the next table's `k` or `j` (`k` for an
    /// index-nested-loop step) with an earlier one's. So a later step keys
    /// on a step's inner table, on its outer tables, or on both. Accesses
    /// and algorithms are drawn at random, and each table gets up to three
    /// predicates on `s`, `v` and `w`, some of them empty ranges. Also
    /// returns each table's key domain: one for every table in two cases of
    /// three, else one each.
    fn sweep_case(d: &mut Draws) -> (Catalog, Query, Plan, Vec<Keys>) {
        let tables = 1 + d.below(4) as u32;
        let shared = (d.below(3) > 0).then(|| Keys::draw(d));
        let domains: Vec<Keys> = (0..tables)
            .map(|_| shared.unwrap_or_else(|| Keys::draw(d)))
            .collect();
        let mut cat = Catalog::new(
            (0..tables)
                .map(|t| {
                    let keys = domains[t as usize];
                    // A long table's join keys spread over a code or more
                    // per row, so that each key lists few of its rows.
                    let (rows, spread) = match d.below(6) {
                        0 => (d.below(3), 0),
                        1 => {
                            let rows = 100 + d.below(300);
                            (rows, rows)
                        }
                        _ => (1 + d.below(80), 0),
                    };
                    let int = |name, dist| ColumnSpec::new(name, ColumnType::Int, dist);
                    let schema = TableSchema::new(
                        format!("t{t}"),
                        vec![
                            int("s", Distribution::Uniform { lo: 0, hi: 9 }),
                            int("k", keys.distribution(d, spread)),
                            int("v", Distribution::Uniform { lo: 0, hi: 99 }),
                            int("w", Distribution::Uniform { lo: 0, hi: 9 }),
                            int("j", keys.distribution(d, spread)),
                        ],
                    );
                    TableBuilder::new(schema, rows as usize).build(TableId(t), d.below(1000))
                })
                .collect(),
        );
        let indexes: Vec<[IndexId; 3]> = (0..tables)
            .map(|t| {
                [
                    (vec![2], vec![]),
                    (vec![1], vec![]),
                    (vec![1], vec![0, 2, 3, 4]),
                ]
                .map(|(key, include)| {
                    let def = IndexDef::new(TableId(t), key, include);
                    cat.create_index(def).unwrap().id
                })
            })
            .collect();
        let mut predicates = Vec::new();
        for t in 0..tables {
            for (c, max) in [(0, 9), (2, 99), (3, 9)] {
                if d.below(3) == 0 {
                    let lo = d.below(max / 2 + 1) as i64;
                    let hi = lo + d.below(max + 1) as i64 - (max / 8) as i64;
                    predicates.push(Predicate::range(col(t, c), lo, hi));
                }
            }
        }
        let access = |d: &mut Draws, t: u32| {
            let [seek, _, cover] = indexes[t as usize];
            let method = match d.below(3) {
                0 => AccessMethod::FullScan,
                1 => AccessMethod::CoveringScan { index: cover },
                _ => AccessMethod::IndexSeek {
                    index: seek,
                    covering: false,
                },
            };
            TableAccess {
                table: TableId(t),
                method,
                est_rows: 0.0,
            }
        };
        let driver = access(d, 0);
        let mut joins = Vec::new();
        let mut steps = Vec::new();
        for t in 1..tables {
            let inl = d.below(3) == 0;
            let key = |d: &mut Draws| [1, 4][d.below(2) as usize];
            let inner = if inl { 1 } else { key(d) };
            let join = JoinPred::new(col(t, inner), col(d.below(u64::from(t)) as u32, key(d)));
            let (algo, access) = if inl {
                let [_, key, cover] = indexes[t as usize];
                let covering = d.below(2) == 0;
                let method = AccessMethod::IndexSeek {
                    index: if covering { cover } else { key },
                    covering,
                };
                let access = TableAccess {
                    table: TableId(t),
                    method,
                    est_rows: 0.0,
                };
                (JoinAlgo::IndexNestedLoop, access)
            } else {
                (JoinAlgo::Hash, access(d, t))
            };
            joins.push(join);
            steps.push(JoinStep {
                access,
                algo,
                join,
                est_rows_out: 0.0,
            });
        }
        let aggregated = d.below(2) == 0;
        let q = Query {
            id: QueryId(0),
            template: TemplateId(0),
            tables: (0..tables).map(TableId).collect(),
            predicates,
            joins,
            payload: vec![],
            aggregated,
        };
        let plan = Plan {
            driver,
            joins: steps,
            aggregated,
            est_cost: SimSeconds::ZERO,
        };
        (cat, q, plan, domains)
    }

    /// A seeded sweep of the counting pass, whose steps carry weighted
    /// key tuples: every field of each access's and step's counts, the
    /// priced execution (bit for bit) and a timed run's samples match a
    /// materialising nested-loop reference. It covers join-free plans, last
    /// hash joins over each inner access method (a seek with a residual
    /// predicate among them) on dense, sparse and `i64`-extreme keys, outers
    /// with more tuples than the inner table, last index-nested-loop joins
    /// with and without inner predicates, three- and four-table plans in
    /// which later steps key on a step's inner table, its outer tables or
    /// both, and 0, 1 and 2+ predicates with empty ranges (`lo > hi`). Each
    /// probe decision of a hash step over a filtered whole-table scan is
    /// checked against the rows its outer keys list, counted row by row,
    /// and the sweep keeps floors on steps on both sides of the bound, and
    /// on probes over duplicate outer tuples, over keys listing no row, as
    /// a last step and as a middle step emitting inner codes.
    #[test]
    fn count_only_operators_match_a_nested_loop_over_a_seeded_sweep() {
        let cost = CostModel::unit_scale();
        let mut d = Draws(1 << 32);
        let mut seen: HashMap<String, usize> = HashMap::new();
        for case in 0..3000 {
            let (cat, q, plan, domains) = sweep_case(&mut d);
            let label = format!("case {case}: {q:?} {plan:?}");
            let (want, samples) = reference(&cat, &q, &plan);
            let mut exec = Executor::new(cost.clone());
            let counts = exec.count(&cat, &q, &plan);
            assert_eq!(counts, want, "{label}");
            let priced = price(&cost, &cat, &q, &plan, &want, |price| price);
            let got = Executor::new(cost.clone()).execute(&cat, &q, &plan);
            assert_same_execution(&got, &priced, &label);
            let mut timed = Executor::timed(cost.clone(), BudgetTimer::scripted(0.5));
            timed.execute(&cat, &q, &plan);
            let work: Vec<Work> = timed.take_op_samples().iter().map(work_of).collect();
            assert_eq!(work, samples, "{label}");

            // What the case covered.
            let mut cover = |what: String| *seen.entry(what).or_default() += 1;
            // Each probe decision, taken by a hash step over a filtered scan
            // of a whole table, probes exactly when the outer tuples, and
            // the rows their keys list in the whole inner table (counted
            // row by row), each number under the table's rows over
            // `PROBE_DIVISOR`.
            let filtered_scans = plan.joins.iter().enumerate().filter(|(_, step)| {
                step.algo == JoinAlgo::Hash
                    && !matches!(step.access.method, AccessMethod::IndexSeek { .. })
                    && !q.predicates_on(step.access.table).is_empty()
            });
            let decisions: Vec<_> = filtered_scans.zip(&exec.probes).collect();
            assert_eq!(decisions.len(), exec.probes.len(), "{label}: decisions");
            for ((i, step), (tuples, p, probed)) in decisions {
                let inner = cat.table(step.access.table);
                let key = inner.column(step.join.side_on(step.access.table).unwrap().ordinal);
                let listed: Vec<usize> = tuples
                    .iter()
                    .map(|t| key.data().iter().filter(|&&k| k == t[*p]).count())
                    .collect();
                let limit = inner.rows() / PROBE_DIVISOR;
                let bound: usize = listed.iter().sum();
                let probes = tuples.len() < limit && bound < limit;
                assert_eq!(*probed, probes, "{label}: step {i} probes");
                let repeats = tuples
                    .iter()
                    .enumerate()
                    .any(|(a, t)| tuples[..a].contains(t));
                if repeats {
                    cover("a bound summed over duplicate outer tuples".into());
                }
                if !probes {
                    cover(if tuples.len() < limit {
                        "a step that scans, its bound over".into()
                    } else {
                        "a step that scans, its outer tuples over".into()
                    });
                    continue;
                }
                if tuples.is_empty() {
                    cover("a step that probes with no outer tuple".into());
                    continue;
                }
                cover("a step that probes".into());
                if listed.contains(&0) {
                    cover("a probing step whose outer key lists no row".into());
                }
                if repeats {
                    cover("a probing step over duplicate outer tuples".into());
                }
                if i + 1 == plan.joins.len() {
                    cover("a last step that probes".into());
                } else if later_keys(&plan, i + 1)
                    .iter()
                    .any(|c| c.table == step.access.table)
                {
                    cover("a middle step that probes and emits inner codes".into());
                }
            }
            if q.predicates.iter().any(|p| p.lo > p.hi) {
                cover("an empty range".into());
            }
            for access in [&plan.driver]
                .into_iter()
                .chain(plan.joins.iter().map(|s| &s.access))
            {
                let preds = q.predicates_on(access.table);
                if let AccessMethod::IndexSeek { index, .. } = access.method {
                    let shape = seek_shape(cat.index(index).unwrap().def(), &preds);
                    if !shape.residual.is_empty() {
                        cover("a seek with a residual predicate".into());
                    }
                }
                cover(format!("{} predicates", preds.len().min(2)));
            }
            // Which tables the steps after a step key on: its inner table,
            // the tables before it, or both.
            for (i, step) in plan.joins.iter().enumerate() {
                let later = later_keys(&plan, i + 1);
                let inner = later.iter().any(|c| c.table == step.access.table);
                let outer = later.iter().any(|c| c.table != step.access.table);
                let on = match (inner, outer) {
                    (true, true) => "both",
                    (true, false) => "the inner table",
                    (false, true) => "the outer tables",
                    (false, false) => continue,
                };
                cover(format!(
                    "a {:?} step whose later steps key on {on}",
                    step.algo
                ));
            }
            let method = |access: &TableAccess| match access.method {
                AccessMethod::FullScan => "scan",
                AccessMethod::CoveringScan { .. } => "covering scan",
                AccessMethod::IndexSeek { .. } => "seek",
            };
            let Some((last, step)) = want.steps.last().zip(plan.joins.last()) else {
                cover(format!("a join-free plan over a {}", method(&plan.driver)));
                continue;
            };
            let outer = match want.steps.len() {
                1 => want.driver.rows_out,
                n => want.steps[n - 2].out_rows(),
            };
            let inner_rows = cat.table(step.access.table).rows() as u64;
            let preds = q.predicates_on(step.access.table).len();
            let (outer_domain, inner_domain) = {
                let outer = step.join.other_side(step.access.table).unwrap().table;
                (
                    domains[outer.raw() as usize],
                    domains[step.access.table.raw() as usize],
                )
            };
            let method = method(&step.access);
            match *last {
                StepCounts::Inl { .. } => {
                    cover(format!("a last INL step, {} predicates", preds.min(1)))
                }
                StepCounts::Hash { .. } if method == "seek" || preds > 0 => {
                    cover(format!("a last hash step over a {method}"));
                    if outer > inner_rows {
                        cover("an outer with more tuples than the inner table".into());
                    }
                    cover(format!(
                        "{outer_domain:?} keys counted against {inner_domain:?}"
                    ));
                    if last.out_rows() > 0 {
                        cover(format!("matches on {inner_domain:?} keys"));
                    }
                }
                StepCounts::Hash { .. } => cover("a last hash step over a whole table".into()),
            }
        }
        for (what, cases) in [
            ("an empty range", 50),
            ("a seek with a residual predicate", 50),
            ("0 predicates", 50),
            ("1 predicates", 50),
            ("2 predicates", 50),
            ("a join-free plan over a scan", 20),
            ("a join-free plan over a covering scan", 20),
            ("a join-free plan over a seek", 20),
            ("a last INL step, 0 predicates", 20),
            ("a last INL step, 1 predicates", 20),
            ("a last hash step over a scan", 20),
            ("a last hash step over a covering scan", 20),
            ("a last hash step over a seek", 20),
            ("a last hash step over a whole table", 20),
            ("an outer with more tuples than the inner table", 20),
            ("matches on Dense keys", 20),
            ("matches on Sparse keys", 20),
            ("matches on Low keys", 20),
            ("matches on High keys", 20),
            ("Low keys counted against High", 2),
            ("High keys counted against Low", 2),
            ("a Hash step whose later steps key on the inner table", 20),
            ("a Hash step whose later steps key on the outer tables", 20),
            ("a Hash step whose later steps key on both", 20),
            (
                "a IndexNestedLoop step whose later steps key on the inner table",
                20,
            ),
            (
                "a IndexNestedLoop step whose later steps key on the outer tables",
                20,
            ),
            ("a IndexNestedLoop step whose later steps key on both", 5),
            ("a step that probes", 20),
            ("a step that probes with no outer tuple", 20),
            ("a step that scans, its bound over", 20),
            ("a step that scans, its outer tuples over", 20),
            ("a bound summed over duplicate outer tuples", 20),
            ("a probing step over duplicate outer tuples", 20),
            ("a probing step whose outer key lists no row", 20),
            ("a last step that probes", 20),
            ("a middle step that probes and emits inner codes", 20),
        ] {
            let got = seen.get(what).copied().unwrap_or(0);
            assert!(got >= cases, "{what}: {got} cases, {seen:?}");
        }
    }

    #[test]
    fn recreated_index_replays_under_its_new_id() {
        let mut cat = catalog();
        let def = IndexDef::new(TableId(1), vec![1], vec![]);
        let first = cat.create_index(def.clone()).unwrap().id;
        let q = single_table_query(vec![Predicate::range(col(1, 1), 20, 40)], vec![col(1, 0)]);
        let seek = |index| Plan {
            driver: TableAccess {
                table: TableId(1),
                method: AccessMethod::IndexSeek {
                    index,
                    covering: false,
                },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let inl = |index| {
            let method = AccessMethod::IndexSeek {
                index,
                covering: false,
            };
            join_plan(&join_query(), JoinAlgo::IndexNestedLoop, method)
        };
        let mut exec = Executor::new(CostModel::unit_scale());
        exec.execute(&cat, &q, &seek(first));
        exec.execute(&cat, &join_query(), &inl(first));
        cat.drop_index(first).unwrap();
        let again = cat.create_index(def).unwrap().id;
        assert_ne!(again, first);

        let replays = [
            (exec.execute(&cat, &q, &seek(again)), seek(again), q.clone()),
            (
                exec.execute(&cat, &join_query(), &inl(again)),
                inl(again),
                join_query(),
            ),
        ];
        assert_eq!(memo_entries(&exec), 2, "both re-created pairs replay");
        for (replay, plan, query) in &replays {
            assert_eq!(replay.indexes_used(), vec![again]);
            let fresh = Executor::new(CostModel::unit_scale()).execute(&cat, query, plan);
            assert_same_execution(replay, &fresh, "re-created index");
        }
    }

    #[test]
    fn covering_and_non_covering_seeks_never_share_an_entry() {
        let mut cat = catalog();
        let id = cat
            .create_index(IndexDef::new(TableId(1), vec![2], vec![0]))
            .unwrap()
            .id;
        let q = single_table_query(vec![Predicate::range(col(1, 2), 10, 300)], vec![col(1, 0)]);
        let seek = |covering| Plan {
            driver: TableAccess {
                table: TableId(1),
                method: AccessMethod::IndexSeek {
                    index: id,
                    covering,
                },
                est_rows: 0.0,
            },
            joins: vec![],
            aggregated: false,
            est_cost: SimSeconds::ZERO,
        };
        let mut exec = Executor::new(CostModel::unit_scale());
        for pass in 0..2 {
            let non_covering = exec.execute(&cat, &q, &seek(false));
            let covering = exec.execute(&cat, &q, &seek(true));
            assert_eq!(memo_entries(&exec), 2, "pass {pass}");
            assert!(covering.total < non_covering.total, "pass {pass}");
            for (got, covers) in [(non_covering, false), (covering, true)] {
                let fresh = Executor::new(CostModel::unit_scale()).execute(&cat, &q, &seek(covers));
                assert_same_execution(&got, &fresh, &format!("pass {pass}, covering {covers}"));
            }
        }
    }

    #[test]
    fn instances_differing_in_one_bound_never_share_an_entry() {
        let cat = catalog();
        let plan = scan_plan(TableId(1), 0.0);
        let mut exec = Executor::new(CostModel::unit_scale());
        for (lo, hi) in [(10, 300), (10, 600), (0, 600)] {
            let q = single_table_query(vec![Predicate::range(col(1, 2), lo, hi)], vec![col(1, 0)]);
            let got = exec.execute(&cat, &q, &plan);
            let fresh = Executor::new(CostModel::unit_scale()).execute(&cat, &q, &plan);
            assert_same_execution(&got, &fresh, &format!("{lo}..={hi}"));
        }
        assert_eq!(memo_entries(&exec), 3);
    }

    #[test]
    fn one_executor_over_two_bases_matches_a_fresh_one_on_each() {
        let mut bases = [generated_catalog(5000, 5), generated_catalog(5000, 6)];
        let sweeps: Vec<_> = bases.iter_mut().map(operator_sweep).collect();
        let mut exec = Executor::new(CostModel::unit_scale());
        let mut rows = [Vec::new(), Vec::new()];
        for pass in 0..2 {
            for (b, (cat, sweep)) in bases.iter().zip(&sweeps).enumerate() {
                for (q, plan) in sweep {
                    let got = exec.execute(cat, q, plan);
                    let fresh = Executor::new(CostModel::unit_scale()).execute(cat, q, plan);
                    assert_same_execution(&got, &fresh, &format!("pass {pass}, base {b}"));
                    rows[b].push(got.result_rows);
                }
            }
        }
        assert_ne!(rows[0], rows[1], "the two bases count differently");
    }

    /// A measuring (timed) executor charges its clock one step per
    /// operator and its sample, not the execution: the execution reports
    /// the untimed price.
    #[test]
    fn measured_executor_charges_the_clock() {
        let cat = catalog();
        let q = single_table_query(vec![Predicate::range(col(1, 2), 0, 99)], vec![col(1, 0)]);
        let plan = scan_plan(TableId(1), 0.0);
        let mut measured = Executor::timed(CostModel::unit_scale(), BudgetTimer::scripted(0.5));
        let m = measured.execute(&cat, &q, &plan);
        let s = Executor::new(CostModel::unit_scale()).execute(&cat, &q, &plan);
        assert_eq!(m.result_rows, s.result_rows);
        assert_eq!(m.accesses[0].rows_out, s.accesses[0].rows_out);
        assert_eq!(m.total.secs().to_bits(), s.total.secs().to_bits());
        let samples = measured.take_op_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].op, OpKind::SeqScan);
        assert_eq!(samples[0].sim_s, s.total.secs());
        // One mark/elapsed pair per operator: the scripted clock advances
        // exactly one step between them.
        assert_eq!(samples[0].measured_s, 0.5);
        assert!(measured.take_op_samples().is_empty(), "samples drain");
    }

    /// A scan's batch filter streams every matching row, ascending, in
    /// windows of at most [`BATCH_ROWS`], with no predicate too.
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
        for (preds, want) in [(&preds[..], want), (&[], (0..t.rows() as u32).collect())] {
            let scan = Matches {
                table: t,
                range: None,
                preds,
            };
            let (mut got, mut windows) = (Vec::new(), 0);
            let n = scan.stream(&mut [0; BATCH_ROWS], |rows| {
                assert!(rows.len() <= BATCH_ROWS);
                got.extend_from_slice(rows);
                windows += 1;
            });
            assert_eq!(got, want);
            assert_eq!(n, want.len() as u64);
            assert_eq!(windows, t.rows().div_ceil(BATCH_ROWS));
        }
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
