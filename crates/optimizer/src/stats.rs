//! Optimiser statistics: equi-width histograms, distinct counts, min/max.
//!
//! Statistics are computed exactly from the base data once — like a freshly
//! ANALYZE'd commercial system. On static data the *errors* the paper needs
//! do not come from stale stats but from the structural assumptions applied
//! at estimation time (uniformity within buckets, independence across
//! columns, containment across joins); see [`crate::est`].
//!
//! Under data drift a second error source appears: **staleness**. The
//! catalog's live row counts move while the statistics keep reporting the
//! counts they were built from. [`StatsCatalog::note_drift`] accumulates
//! how many row versions changed per table; when the stale fraction
//! crosses the driver's threshold, [`StatsCatalog::refresh`] re-adopts the
//! live row counts (histograms stay — the generators are
//! distribution-preserving, so selectivity *fractions* remain exact; only
//! the row-count scale drifts).

use dba_common::TableId;
use dba_storage::{Catalog, Column, Table};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Number of equi-width buckets per histogram (commercial systems commonly
/// use 100-200 steps).
pub const HISTOGRAM_BUCKETS: usize = 100;

/// Equi-width histogram over a column's encoded values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    pub min: i64,
    pub max: i64,
    /// Row counts per bucket.
    pub counts: Vec<u64>,
    /// Distinct values per bucket (exact at build time).
    pub distinct: Vec<u64>,
}

impl Histogram {
    pub fn build(data: &[i64], buckets: usize) -> Option<Histogram> {
        if data.is_empty() {
            return None;
        }
        let min = *data.iter().min().unwrap();
        let max = *data.iter().max().unwrap();
        let span = (max - min) as u128 + 1;
        let b = buckets.min(span as usize).max(1);
        let mut counts = vec![0u64; b];
        for &v in data {
            counts[Self::bucket_of(v, min, span, b)] += 1;
        }
        // Exact per-bucket distinct counts via one sort.
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut distinct = vec![0u64; b];
        for &v in &sorted {
            distinct[Self::bucket_of(v, min, span, b)] += 1;
        }
        Some(Histogram {
            min,
            max,
            counts,
            distinct,
        })
    }

    #[inline]
    fn bucket_of(v: i64, min: i64, span: u128, buckets: usize) -> usize {
        let off = (v - min) as u128;
        ((off * buckets as u128) / span) as usize
    }

    /// Inclusive value range covered by bucket `i`.
    fn bucket_bounds(&self, i: usize) -> (i64, i64) {
        let b = self.counts.len() as u128;
        let span = (self.max - self.min) as u128 + 1;
        let lo = self.min
            + ((span * i as u128) / b) as i64
            + if !(span * i as u128).is_multiple_of(b) {
                1
            } else {
                0
            };
        let hi = self.min + ((span * (i as u128 + 1) - 1) / b) as i64;
        (lo, hi)
    }

    pub fn total_distinct(&self) -> u64 {
        self.distinct.iter().sum()
    }

    /// Estimated rows with value exactly `v`: the containing bucket's rows
    /// spread uniformly over its distinct values (uniformity-within-bucket).
    pub fn estimate_eq(&self, v: i64) -> f64 {
        if v < self.min || v > self.max {
            return 0.0;
        }
        let span = (self.max - self.min) as u128 + 1;
        let i = Self::bucket_of(v, self.min, span, self.counts.len());
        let d = self.distinct[i].max(1);
        self.counts[i] as f64 / d as f64
    }

    /// Estimated rows in `[lo, hi]` (inclusive): full buckets inside plus
    /// uniform fractions of the boundary buckets.
    pub fn estimate_range(&self, lo: i64, hi: i64) -> f64 {
        if hi < self.min || lo > self.max || lo > hi {
            return 0.0;
        }
        let lo = lo.max(self.min);
        let hi = hi.min(self.max);
        let mut rows = 0.0;
        for i in 0..self.counts.len() {
            let (blo, bhi) = self.bucket_bounds(i);
            if bhi < lo || blo > hi {
                continue;
            }
            let overlap_lo = lo.max(blo);
            let overlap_hi = hi.min(bhi);
            let width = (bhi - blo + 1) as f64;
            let frac = (overlap_hi - overlap_lo + 1) as f64 / width;
            rows += self.counts[i] as f64 * frac.clamp(0.0, 1.0);
        }
        rows
    }
}

/// Number of most-frequent values tracked exactly per column (end-biased
/// histogram steps, as in commercial systems).
pub const TOP_K_VALUES: usize = 50;

/// Per-column statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnStats {
    pub rows: u64,
    pub ndv: u64,
    pub histogram: Option<Histogram>,
    /// Exact frequencies of the most common values (end-biased steps):
    /// single-column equality estimates on skewed data are *accurate* in
    /// commercial systems — the paper's misestimates come from AVI
    /// conjunctions and join fan-outs, not marginals.
    pub top_values: Vec<(i64, u64)>,
}

impl ColumnStats {
    pub fn build(column: &Column) -> ColumnStats {
        let rows = column.len() as u64;
        let histogram = Histogram::build(column.data(), HISTOGRAM_BUCKETS);
        let ndv = histogram.as_ref().map(|h| h.total_distinct()).unwrap_or(0);
        let top_values = top_k(column.data(), TOP_K_VALUES);
        ColumnStats {
            rows,
            ndv,
            histogram,
            top_values,
        }
    }

    /// Selectivity (0..=1) of an equality predicate.
    pub fn selectivity_eq(&self, v: i64) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        if let Some(&(_, count)) = self.top_values.iter().find(|&&(val, _)| val == v) {
            return (count as f64 / self.rows as f64).clamp(0.0, 1.0);
        }
        match &self.histogram {
            Some(h) => (h.estimate_eq(v) / self.rows as f64).clamp(0.0, 1.0),
            None => 1.0 / self.ndv.max(1) as f64,
        }
    }

    /// Selectivity of a `[lo, hi]` range predicate.
    pub fn selectivity_range(&self, lo: i64, hi: i64) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        match &self.histogram {
            Some(h) => (h.estimate_range(lo, hi) / self.rows as f64).clamp(0.0, 1.0),
            None => 0.1,
        }
    }
}

/// Exact frequencies of the `k` most common values in `data` (only values
/// occupying more than their uniform share are worth tracking).
fn top_k(data: &[i64], k: usize) -> Vec<(i64, u64)> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut sorted = data.to_vec();
    sorted.sort_unstable();
    let mut freqs: Vec<(i64, u64)> = Vec::new();
    let mut cur = sorted[0];
    let mut count = 0u64;
    for &v in &sorted {
        if v == cur {
            count += 1;
        } else {
            freqs.push((cur, count));
            cur = v;
            count = 1;
        }
    }
    freqs.push((cur, count));
    freqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let uniform_share = (data.len() as f64 / freqs.len() as f64).ceil() as u64;
    freqs
        .into_iter()
        .take(k)
        .filter(|&(_, c)| c > uniform_share)
        .collect()
}

/// Statistics for one table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableStats {
    pub table: TableId,
    pub rows: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn build(table: &Table) -> TableStats {
        TableStats {
            table: table.id(),
            rows: table.rows() as u64,
            columns: table.columns().iter().map(ColumnStats::build).collect(),
        }
    }

    pub fn column(&self, ordinal: u16) -> &ColumnStats {
        &self.columns[ordinal as usize]
    }
}

/// Statistics for every table in a catalog: an immutable ANALYZE output
/// shared across session forks (`Arc`), plus a cheap per-session overlay.
///
/// The expensive part — histograms, top-K steps, distinct counts — is
/// computed once per generated dataset and never mutated; suites sharing
/// data hand each session a [`fork`](Self::fork), which is two small `Vec`
/// allocations and an `Arc` bump, not a re-ANALYZE or a deep clone. What
/// *does* move per session is the overlay: the adopted row-count beliefs
/// (refresh re-reads the live counts) and the per-table staleness
/// counters. Each refresh bumps the table's statistics version
/// ([`table_version`](Self::table_version)), which plan caches validate
/// against.
#[derive(Debug, Clone)]
pub struct StatsCatalog {
    /// Immutable ANALYZE output, shared by every fork.
    base: Arc<Vec<TableStats>>,
    /// Per-table row-count belief (adopted at the last refresh). This is
    /// the count every cardinality estimate scales by — stale under
    /// unrefreshed drift, which is the point.
    rows: Vec<u64>,
    /// Row versions changed per table since the last ANALYZE (staleness).
    changed_since_refresh: Vec<u64>,
    /// Per-table statistics version, bumped on refresh.
    versions: Vec<u64>,
}

impl StatsCatalog {
    /// ANALYZE the whole catalog.
    pub fn build(catalog: &Catalog) -> StatsCatalog {
        let tables: Vec<TableStats> = catalog.tables().iter().map(TableStats::build).collect();
        let rows = tables.iter().map(|t| t.rows).collect();
        let n = tables.len();
        StatsCatalog {
            base: Arc::new(tables),
            rows,
            changed_since_refresh: vec![0; n],
            versions: vec![0; n],
        }
    }

    /// A fresh overlay over the same shared ANALYZE output: row beliefs
    /// reset to the built-time counts, no staleness. This is how sessions
    /// fork statistics — zero-copy for the histogram data.
    pub fn fork(&self) -> StatsCatalog {
        let rows = self.base.iter().map(|t| t.rows).collect();
        let n = self.base.len();
        StatsCatalog {
            base: Arc::clone(&self.base),
            rows,
            changed_since_refresh: vec![0; n],
            versions: vec![0; n],
        }
    }

    /// The shared ANALYZE output backing this overlay.
    pub fn base(&self) -> &Arc<Vec<TableStats>> {
        &self.base
    }

    /// Column-level statistics of `table` (histograms, NDV, top-K). Note
    /// that `TableStats::rows` is the *built-time* count; the optimiser's
    /// current belief is [`rows`](Self::rows).
    pub fn table(&self, id: TableId) -> &TableStats {
        &self.base[id.raw() as usize]
    }

    /// The optimiser's current row-count belief for `table` (built-time
    /// count until a refresh adopts the live count).
    #[inline]
    pub fn rows(&self, table: TableId) -> u64 {
        self.rows[table.raw() as usize]
    }

    /// Statistics version of `table`: moves on every refresh. Plan caches
    /// validate against it.
    #[inline]
    pub fn table_version(&self, table: TableId) -> u64 {
        self.versions[table.raw() as usize]
    }

    /// Record that `rows_changed` row versions of `table` were inserted,
    /// updated or deleted. Estimates keep using the stale counts until
    /// [`refresh`](Self::refresh).
    pub fn note_drift(&mut self, table: TableId, rows_changed: u64) {
        self.changed_since_refresh[table.raw() as usize] += rows_changed;
    }

    /// Stale fraction of `table`: row versions changed since the last
    /// ANALYZE over the row count the statistics currently believe.
    pub fn staleness(&self, table: TableId) -> f64 {
        let i = table.raw() as usize;
        self.changed_since_refresh[i] as f64 / self.rows[i].max(1) as f64
    }

    /// The worst staleness across all tables (auto-ANALYZE trigger).
    pub fn max_staleness(&self) -> f64 {
        (0..self.base.len())
            .map(|i| self.staleness(TableId(i as u32)))
            .fold(0.0, f64::max)
    }

    /// Re-ANALYZE one table against the catalog's live state: adopt the
    /// live row count and clear its staleness counter. Histograms are
    /// kept — selectivity fractions stay exact under the
    /// distribution-preserving drift model; what refresh fixes is the
    /// row-count *scale* every cardinality estimate is multiplied by.
    // bumps: stats_version
    pub fn refresh_table(&mut self, catalog: &Catalog, table: TableId) {
        let i = table.raw() as usize;
        self.rows[i] = catalog.live_rows(table);
        self.changed_since_refresh[i] = 0;
        self.bump_version(table);
    }

    /// The one bump point for the per-table statistics version, mirroring
    /// `Catalog::bump_version` — cached plans and what-if entries key on
    /// it, so every estimate-changing mutation must route through here.
    #[inline]
    fn bump_version(&mut self, table: TableId) {
        self.versions[table.raw() as usize] += 1;
    }

    /// Re-ANALYZE every table (see [`refresh_table`](Self::refresh_table)).
    // bumps: stats_version
    pub fn refresh(&mut self, catalog: &Catalog) {
        for i in 0..self.base.len() {
            self.refresh_table(catalog, TableId(i as u32));
        }
    }

    /// Auto-ANALYZE: refresh exactly the tables whose staleness reached
    /// `threshold` (per-table triggering, as in commercial systems — a
    /// churning dimension must not reset the fact table's counters).
    /// Returns how many tables were refreshed.
    // bumps: stats_version
    pub fn refresh_stale(&mut self, catalog: &Catalog, threshold: f64) -> usize {
        let mut refreshed = 0;
        for i in 0..self.base.len() {
            let t = TableId(i as u32);
            if self.staleness(t) >= threshold {
                self.refresh_table(catalog, t);
                refreshed += 1;
            }
        }
        refreshed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dba_common::rng::rng_for;
    use dba_storage::{ColumnType, Distribution};

    fn column(dist: Distribution, rows: usize, key: u64) -> Column {
        let mut rng = rng_for(21, "stats-test", key);
        Column::new("c", ColumnType::Int, dist.generate(rows, &mut rng, &[]))
    }

    #[test]
    fn uniform_equality_estimates_are_accurate() {
        let c = column(Distribution::Uniform { lo: 0, hi: 999 }, 100_000, 0);
        let s = ColumnStats::build(&c);
        // True selectivity of any value ≈ 1/1000.
        let est = s.selectivity_eq(500);
        assert!(
            (est - 0.001).abs() < 0.0005,
            "uniform estimate {est} should be near 0.001"
        );
    }

    #[test]
    fn uniform_range_estimates_are_accurate() {
        let c = column(Distribution::Uniform { lo: 0, hi: 999 }, 100_000, 1);
        let s = ColumnStats::build(&c);
        let est = s.selectivity_range(100, 299);
        let truth = c.count_in_range(100, 299) as f64 / 100_000.0;
        assert!(
            (est - truth).abs() < 0.02,
            "range estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn extreme_zipf_marginals_are_accurate() {
        // Under zipf(4) the realised domain is tiny (a handful of ranks
        // ever get sampled), so the adaptive-width histogram resolves each
        // value exactly. This documents where the paper's misestimates do
        // NOT come from: single-column marginals are fine even under
        // extreme skew — AVI conjunctions and join fan-outs are the
        // problem (see `crate::est` tests).
        let c = column(Distribution::Zipf { n: 1000, s: 4.0 }, 100_000, 2);
        let s = ColumnStats::build(&c);
        let truth = c.count_in_range(0, 0) as f64 / 100_000.0;
        let est = s.selectivity_eq(0);
        assert!(truth > 0.85, "zipf(4) hot value truth {truth}");
        assert!(
            est > truth * 0.5 && est < truth * 2.0,
            "marginal should be near-exact: est {est}, truth {truth}"
        );
    }

    #[test]
    fn end_biased_stats_catch_the_hot_value_but_not_the_warm_tail() {
        // Commercial histograms are end-biased: the hottest values get
        // exact frequencies, so their equality estimates are accurate even
        // under long-tail skew. Warm values past the tracked top-K fall
        // back to uniformity-within-bucket and are underestimated — and
        // AVI/join-fan-out errors (see `crate::est`) remain in full force.
        let c = column(Distribution::Zipf { n: 100_000, s: 1.2 }, 100_000, 2);
        let s = ColumnStats::build(&c);
        let truth_hot = c.count_in_range(0, 0) as f64 / 100_000.0;
        let est_hot = s.selectivity_eq(0);
        assert!(truth_hot > 0.1, "zipf(1.2) hot value truth {truth_hot}");
        assert!(
            (est_hot - truth_hot).abs() < truth_hot * 0.01,
            "top-K step should be exact: est {est_hot}, truth {truth_hot}"
        );
        // A warm value outside the top-K: bucket-average underestimates it.
        let warm = s.top_values.len() as i64 + 10;
        let truth_warm = c.count_in_range(warm, warm) as f64 / 100_000.0;
        let est_warm = s.selectivity_eq(warm);
        assert!(
            est_warm < truth_warm,
            "warm value should be underestimated: est {est_warm}, truth {truth_warm}"
        );
    }

    #[test]
    fn long_tail_zipf_cold_value_is_overestimated() {
        let c = column(Distribution::Zipf { n: 100_000, s: 1.2 }, 100_000, 3);
        let s = ColumnStats::build(&c);
        let h = s.histogram.as_ref().unwrap();
        // A cold value sharing bucket 0 with the hot values: near the top
        // of the first bucket's range.
        let width = ((h.max - h.min) / HISTOGRAM_BUCKETS as i64).max(1);
        let v = h.min + width - 1;
        let truth = c.count_in_range(v, v) as f64 / 100_000.0;
        let est = s.selectivity_eq(v);
        assert!(
            est > truth * 5.0 || (truth == 0.0 && est > 0.0),
            "est {est} should exceed truth {truth}"
        );
    }

    #[test]
    fn out_of_range_estimates_are_zero() {
        let c = column(Distribution::Uniform { lo: 0, hi: 99 }, 1000, 4);
        let s = ColumnStats::build(&c);
        assert_eq!(s.selectivity_eq(-5), 0.0);
        assert_eq!(s.selectivity_eq(100), 0.0);
        assert_eq!(s.selectivity_range(200, 300), 0.0);
        assert_eq!(s.selectivity_range(50, 40), 0.0);
    }

    #[test]
    fn full_range_selectivity_is_one() {
        let c = column(Distribution::Uniform { lo: 0, hi: 99 }, 10_000, 5);
        let s = ColumnStats::build(&c);
        let est = s.selectivity_range(i64::MIN / 2, i64::MAX / 2);
        assert!((est - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bucket_bounds_partition_domain() {
        let c = column(Distribution::Uniform { lo: 0, hi: 997 }, 50_000, 6);
        let h = ColumnStats::build(&c).histogram.unwrap();
        // Bounds must tile [min, max] without gaps or overlaps.
        let mut expect_lo = h.min;
        for i in 0..h.counts.len() {
            let (lo, hi) = h.bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} lower bound");
            assert!(hi >= lo);
            expect_lo = hi + 1;
        }
        assert_eq!(expect_lo, h.max + 1);
    }

    #[test]
    fn narrow_domain_uses_fewer_buckets() {
        let c = column(Distribution::Uniform { lo: 0, hi: 4 }, 1000, 7);
        let h = ColumnStats::build(&c).histogram.unwrap();
        assert_eq!(h.counts.len(), 5);
        // With one value per bucket, equality estimates are exact.
        for v in 0..5 {
            let truth = c.count_in_range(v, v) as f64;
            assert!((h.estimate_eq(v) - truth).abs() < 1e-9);
        }
    }

    #[test]
    fn ndv_is_exact() {
        let c = Column::new("c", ColumnType::Int, vec![1, 1, 2, 3, 3, 3, 9]);
        let s = ColumnStats::build(&c);
        assert_eq!(s.ndv, 4);
        assert_eq!(s.rows, 7);
    }

    #[test]
    fn staleness_tracks_drift_and_refresh_adopts_live_counts() {
        use dba_storage::{Catalog, ColumnSpec, TableBuilder, TableSchema};

        let schema = TableSchema::new(
            "t",
            vec![ColumnSpec::new(
                "a",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99 },
            )],
        );
        let mut cat = Catalog::new(vec![TableBuilder::new(schema, 1000).build(TableId(0), 3)]);
        let mut stats = StatsCatalog::build(&cat);
        assert_eq!(stats.max_staleness(), 0.0);
        assert_eq!(stats.rows(TableId(0)), 1000);
        assert_eq!(stats.table_version(TableId(0)), 0);

        // 300 inserts + 100 updates + 100 deletes = 500 changed versions.
        cat.apply_drift(TableId(0), 300, 100, 100);
        stats.note_drift(TableId(0), 500);
        assert!((stats.staleness(TableId(0)) - 0.5).abs() < 1e-12);
        assert!((stats.max_staleness() - 0.5).abs() < 1e-12);
        // Estimates still use the stale count until refresh.
        assert_eq!(stats.rows(TableId(0)), 1000);
        assert_eq!(stats.table_version(TableId(0)), 0);

        stats.refresh(&cat);
        assert_eq!(stats.rows(TableId(0)), 1000 + 300 - 100);
        assert_eq!(stats.max_staleness(), 0.0);
        assert_eq!(stats.table_version(TableId(0)), 1, "refresh bumps");
        // The shared ANALYZE output itself never moves.
        assert_eq!(stats.table(TableId(0)).rows, 1000);
    }

    #[test]
    fn refresh_stale_only_touches_tables_past_threshold() {
        use dba_storage::{Catalog, ColumnSpec, TableBuilder, TableSchema};

        let schema = |name: &str| {
            TableSchema::new(
                name,
                vec![ColumnSpec::new(
                    "a",
                    ColumnType::Int,
                    Distribution::Uniform { lo: 0, hi: 99 },
                )],
            )
        };
        let mut cat = Catalog::new(vec![
            TableBuilder::new(schema("hot"), 100).build(TableId(0), 3),
            TableBuilder::new(schema("cold"), 100).build(TableId(1), 4),
        ]);
        let mut stats = StatsCatalog::build(&cat);
        cat.apply_drift(TableId(0), 50, 0, 0);
        stats.note_drift(TableId(0), 50); // 50% stale
        cat.apply_drift(TableId(1), 5, 0, 0);
        stats.note_drift(TableId(1), 5); // 5% stale

        let refreshed = stats.refresh_stale(&cat, 0.2);
        assert_eq!(refreshed, 1, "only the hot table crosses the threshold");
        assert_eq!(stats.rows(TableId(0)), 150);
        assert_eq!(stats.staleness(TableId(0)), 0.0);
        assert_eq!(stats.table_version(TableId(0)), 1);
        // The cold table keeps its stale count, belief and version.
        assert_eq!(stats.rows(TableId(1)), 100);
        assert!(stats.staleness(TableId(1)) > 0.0);
        assert_eq!(stats.table_version(TableId(1)), 0);
    }

    #[test]
    fn fork_shares_analyze_output_but_resets_the_overlay() {
        use dba_storage::{Catalog, ColumnSpec, TableBuilder, TableSchema};

        let schema = TableSchema::new(
            "t",
            vec![ColumnSpec::new(
                "a",
                ColumnType::Int,
                Distribution::Uniform { lo: 0, hi: 99 },
            )],
        );
        let mut cat = Catalog::new(vec![TableBuilder::new(schema, 1000).build(TableId(0), 3)]);
        let mut stats = StatsCatalog::build(&cat);
        cat.apply_drift(TableId(0), 500, 0, 0);
        stats.note_drift(TableId(0), 500);
        stats.refresh(&cat);
        assert_eq!(stats.rows(TableId(0)), 1500);

        let fork = stats.fork();
        // Shared histograms: same allocation, one more ref.
        assert!(Arc::ptr_eq(fork.base(), stats.base()));
        // Fresh overlay: built-time beliefs, no staleness, version 0.
        assert_eq!(fork.rows(TableId(0)), 1000);
        assert_eq!(fork.max_staleness(), 0.0);
        assert_eq!(fork.table_version(TableId(0)), 0);
    }

    #[test]
    fn empty_column_stats() {
        let c = Column::new("c", ColumnType::Int, vec![]);
        let s = ColumnStats::build(&c);
        assert_eq!(s.rows, 0);
        assert!(s.histogram.is_none());
        assert_eq!(s.selectivity_eq(1), 0.0);
    }
}
