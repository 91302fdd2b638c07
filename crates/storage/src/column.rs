//! Typed columnar storage.
//!
//! All column data is held as `Vec<i64>` codes. The [`ColumnType`] records
//! how codes map back to logical values (plain integers, dates as day
//! numbers, fixed-point decimals, or dictionary-coded strings). Keeping a
//! single physical representation makes scans, comparisons and index key
//! ordering uniform and fast, mirroring dictionary/fixed-point encodings in
//! real columnar engines.

use serde::{Deserialize, Serialize};

/// Logical interpretation of a column's `i64` codes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// Plain 64-bit integer (keys, quantities, flags).
    Int,
    /// Date stored as days since an epoch.
    Date,
    /// Fixed-point decimal with `scale` fractional digits (e.g. scale 2 →
    /// code 1234 means 12.34).
    Decimal { scale: u8 },
    /// Dictionary-coded string; codes index a (conceptual) dictionary of
    /// `cardinality` distinct strings. The dictionary itself is not
    /// materialised — workloads only compare codes.
    Dict { cardinality: u32 },
}

impl ColumnType {
    /// Logical width in bytes used for size accounting (what the value would
    /// occupy in a tuned on-disk layout, not our in-memory `i64`).
    pub fn logical_width(&self) -> u32 {
        match self {
            ColumnType::Int => 8,
            ColumnType::Date => 4,
            ColumnType::Decimal { .. } => 8,
            // Dictionary-coded strings store a code; charge a typical
            // string payload amortised into the column for realism.
            ColumnType::Dict { .. } => 16,
        }
    }
}

/// A single materialised column.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    ctype: ColumnType,
    data: Vec<i64>,
}

impl Column {
    pub fn new(name: impl Into<String>, ctype: ColumnType, data: Vec<i64>) -> Self {
        Column {
            name: name.into(),
            ctype,
            data,
        }
    }

    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    pub fn ctype(&self) -> &ColumnType {
        &self.ctype
    }

    /// Raw codes.
    #[inline]
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn value(&self, row: usize) -> i64 {
        self.data[row]
    }

    /// Count rows whose code lies in `[lo, hi]` (inclusive): one pass that
    /// adds each row's match test and writes nothing, so it takes no
    /// data-dependent branch and fills no selection vector. The executor
    /// counts a scan with one predicate through it where only the count is
    /// read: a join-free plan's driver, and the inner table of a hash step
    /// that probes a kept join table. The `whatif_vs_observed` example
    /// holds estimates against it.
    pub fn count_in_range(&self, lo: i64, hi: i64) -> usize {
        let Some(width) = range_width(lo, hi) else {
            return 0;
        };
        self.data
            .iter()
            .map(|&v| usize::from(v.wrapping_sub(lo) as u64 <= width))
            .sum()
    }

    /// Minimum and maximum code, or `None` for an empty column.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        let mut it = self.data.iter();
        let first = *it.next()?;
        let (mut lo, mut hi) = (first, first);
        for &v in it {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }

    /// Number of distinct codes (exact; O(n log n)).
    pub fn distinct_count(&self) -> usize {
        let mut sorted = self.data.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    /// Write the row ids in `[start, start + window.len())` whose code lies
    /// in `[lo, hi]` (inclusive) to the front of `window`, ascending, and
    /// return how many there are. The batch-scan seed: one tight pass over
    /// a contiguous slice into a buffer the caller sized once. Every row id
    /// is written and the cursor advances only past matches, so the pass
    /// takes no data-dependent branch; what lies past the matches is left
    /// unspecified.
    #[inline]
    pub fn fill_matching_in(&self, lo: i64, hi: i64, start: usize, window: &mut [u32]) -> usize {
        let Some(width) = range_width(lo, hi) else {
            return 0;
        };
        let end = start + window.len();
        let mut n = 0;
        for (r, &v) in (start as u32..end as u32).zip(&self.data[start..end]) {
            window[n] = r;
            n += usize::from(v.wrapping_sub(lo) as u64 <= width);
        }
        n
    }

    /// Keep the rows of the selection vector `sel` whose code lies in
    /// `[lo, hi]` (inclusive) at its front, in order, and return how many
    /// there are. Refines in place without a data-dependent branch: each
    /// row is written back at the cursor, which advances only past
    /// matches; what lies past the kept rows is left unspecified.
    #[inline]
    pub fn retain_matching(&self, lo: i64, hi: i64, sel: &mut [u32]) -> usize {
        let Some(width) = range_width(lo, hi) else {
            return 0;
        };
        let mut n = 0;
        for i in 0..sel.len() {
            let r = sel[i];
            sel[n] = r;
            n += usize::from(self.data[r as usize].wrapping_sub(lo) as u64 <= width);
        }
        n
    }
}

/// `hi − lo` for a non-empty range `[lo, hi]`, or `None` for an empty one.
/// A code `v` lies in the range exactly when `v − lo`, wrapped to a `u64`,
/// is at most this width: one unsigned compare instead of two signed ones.
#[inline]
fn range_width(lo: i64, hi: i64) -> Option<u64> {
    (lo <= hi).then(|| hi.abs_diff(lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[i64]) -> Column {
        Column::new("c", ColumnType::Int, values.to_vec())
    }

    #[test]
    fn min_max_and_distinct() {
        let c = col(&[4, -1, 9, 4, 9]);
        assert_eq!(c.min_max(), Some((-1, 9)));
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(col(&[]).min_max(), None);
    }

    /// The scalar reference filter: the rows of `rows` whose code lies in
    /// `[lo, hi]`, in the order given.
    fn scalar_filter(c: &Column, lo: i64, hi: i64, rows: &[u32]) -> Vec<u32> {
        rows.iter()
            .copied()
            .filter(|&r| (lo..=hi).contains(&c.value(r as usize)))
            .collect()
    }

    /// Codes for the filter-kernel tables, including both `i64` extremes.
    const CODES: [i64; 11] = [5, 1, 9, 5, 2, 7, 5, 0, i64::MIN, i64::MAX, -3];

    #[test]
    fn count_in_range_inclusive_bounds() {
        let c = col(&[1, 2, 3, 4, 5, 5, 5]);
        assert_eq!(c.count_in_range(2, 4), 3);
        assert_eq!(c.count_in_range(5, 5), 3);
        assert_eq!(c.count_in_range(6, 10), 0);
        assert_eq!(c.count_in_range(i64::MIN, i64::MAX), 7);

        // The kernel code table, against the scalar reference filter.
        let c = col(&CODES);
        let all: Vec<u32> = (0..c.len() as u32).collect();
        // (case, lo, hi, rows counted)
        let cases: [(&str, i64, i64, usize); 9] = [
            ("a middle range", 2, 7, 5),
            ("a range up to i64::MAX", 5, i64::MAX, 6),
            ("a range from i64::MIN", i64::MIN, 0, 3),
            ("the whole i64 range", i64::MIN, i64::MAX, c.len()),
            ("a single value", 5, 5, 3),
            ("i64::MIN alone", i64::MIN, i64::MIN, 1),
            ("i64::MAX alone", i64::MAX, i64::MAX, 1),
            ("an empty range, lo > hi", 7, 2, 0),
            ("no row matching", 100, 200, 0),
        ];
        for (case, lo, hi, counted) in cases {
            let got = c.count_in_range(lo, hi);
            assert_eq!(got, scalar_filter(&c, lo, hi, &all).len(), "{case}");
            assert_eq!(got, counted, "{case}");
        }
        // An empty window: a column of no rows counts none.
        for (lo, hi) in [(i64::MIN, i64::MAX), (5, 5), (7, 2)] {
            assert_eq!(col(&[]).count_in_range(lo, hi), 0, "{lo}..={hi}");
        }
    }

    #[test]
    fn fill_matching_in_matches_scalar_filter() {
        let c = col(&CODES);
        let n = c.len();
        // (case, lo, hi, window start, window end, stale rows at the front
        // of the window buffer, rows the window fills)
        type Case = (&'static str, i64, i64, usize, usize, &'static [u32], usize);
        let cases: [Case; 10] = [
            ("a middle range", 2, 7, 0, n, &[], 5),
            ("a range up to i64::MAX", 5, i64::MAX, 0, n, &[], 6),
            ("an empty range, lo > hi", 7, 2, 0, n, &[], 0),
            ("the whole i64 range", i64::MIN, i64::MAX, 0, n, &[], n),
            ("a single value", 5, 5, 0, n, &[], 3),
            ("a single extreme value", i64::MIN, i64::MIN, 0, n, &[], 1),
            ("a window not starting at row 0", 2, 7, 3, 9, &[], 4),
            ("stale rows in the buffer", 2, 7, 4, n, &[99, 3, 1], 3),
            ("no row matching", 100, 200, 0, n, &[], 0),
            ("an empty window", i64::MIN, i64::MAX, 5, 5, &[7], 0),
        ];
        for (case, lo, hi, start, end, stale, filled) in cases {
            // The buffer holds what an earlier window left in it.
            let mut window = vec![u32::MAX; end - start];
            let front = stale.len().min(window.len());
            window[..front].copy_from_slice(&stale[..front]);
            let got = c.fill_matching_in(lo, hi, start, &mut window);
            let rows: Vec<u32> = (start as u32..end as u32).collect();
            assert_eq!(window[..got], scalar_filter(&c, lo, hi, &rows), "{case}");
            assert_eq!(got, filled, "{case}");
        }

        // Batch windows concatenate to the full result.
        let all: Vec<u32> = (0..n as u32).collect();
        let mut window = vec![0; n];
        let first = c.fill_matching_in(2, 7, 0, &mut window[..3]);
        let mut batched = window[..first].to_vec();
        let rest = c.fill_matching_in(2, 7, 3, &mut window[..n - 3]);
        batched.extend_from_slice(&window[..rest]);
        assert_eq!(batched, scalar_filter(&c, 2, 7, &all));
    }

    #[test]
    fn retain_matching_refines_in_order() {
        let c = col(&CODES);
        // (case, lo, hi, selection, rows retained)
        let cases: [(&str, i64, i64, &[u32], usize); 9] = [
            ("an ascending selection", 5, 9, &[0, 2, 3, 5, 7], 4),
            (
                "a selection in leaf order",
                2,
                7,
                &[7, 3, 10, 0, 5, 4, 1, 6],
                5,
            ),
            ("an empty range, lo > hi", 9, 5, &[0, 1, 2], 0),
            ("the whole i64 range", i64::MIN, i64::MAX, &[10, 8, 9, 0], 4),
            ("a range from i64::MIN", i64::MIN, 0, &[10, 8, 7, 1], 3),
            ("a single value", 5, 5, &[6, 0, 3, 1], 3),
            ("a single extreme value", i64::MAX, i64::MAX, &[8, 9, 2], 1),
            ("no row matching", 100, 200, &[0, 2], 0),
            ("an empty selection", i64::MIN, i64::MAX, &[], 0),
        ];
        for (case, lo, hi, selection, retained) in cases {
            let mut sel = selection.to_vec();
            let got = c.retain_matching(lo, hi, &mut sel);
            assert_eq!(sel[..got], scalar_filter(&c, lo, hi, selection), "{case}");
            assert_eq!(got, retained, "{case}");
        }

        // Refining a prefix leaves the rows after it alone.
        let mut sel = [0, 1, 2, 3, 4, 5];
        let got = c.retain_matching(5, 5, &mut sel[..4]);
        assert_eq!(sel[..got], [0, 3]);
        assert_eq!(sel[4..], [4, 5]);
    }

    #[test]
    fn logical_widths() {
        assert_eq!(ColumnType::Int.logical_width(), 8);
        assert_eq!(ColumnType::Date.logical_width(), 4);
        assert_eq!(ColumnType::Decimal { scale: 2 }.logical_width(), 8);
        assert_eq!(ColumnType::Dict { cardinality: 10 }.logical_width(), 16);
    }
}
