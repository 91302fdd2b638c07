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

    /// Count rows whose code lies in `[lo, hi]` (inclusive). This is the
    /// ground-truth selectivity oracle used by the executor.
    pub fn count_in_range(&self, lo: i64, hi: i64) -> usize {
        self.data.iter().filter(|&&v| v >= lo && v <= hi).count()
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

    /// Append the row ids in `[start, end)` whose code lies in `[lo, hi]`
    /// (inclusive) to `out`. The batch-scan seed: one tight pass over a
    /// contiguous slice producing an ascending selection vector.
    #[inline]
    pub fn fill_matching_in(&self, lo: i64, hi: i64, start: usize, end: usize, out: &mut Vec<u32>) {
        for (off, &v) in self.data[start..end].iter().enumerate() {
            if v >= lo && v <= hi {
                out.push((start + off) as u32);
            }
        }
    }

    /// Retain only the selected rows whose code lies in `[lo, hi]`
    /// (inclusive). Refines a selection vector in place, preserving order.
    #[inline]
    pub fn retain_matching(&self, lo: i64, hi: i64, sel: &mut Vec<u32>) {
        sel.retain(|&r| {
            let v = self.data[r as usize];
            v >= lo && v <= hi
        });
    }

    /// Gather the codes of `rows` into `out` (cleared first). The heap-fetch
    /// primitive of the executor's non-covering seeks: materialises the
    /// selected values in selection order.
    #[inline]
    pub fn gather_into(&self, rows: &[u32], out: &mut Vec<i64>) {
        out.clear();
        out.reserve(rows.len());
        for &r in rows {
            out.push(self.data[r as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[i64]) -> Column {
        Column::new("c", ColumnType::Int, values.to_vec())
    }

    #[test]
    fn count_in_range_inclusive_bounds() {
        let c = col(&[1, 2, 3, 4, 5, 5, 5]);
        assert_eq!(c.count_in_range(2, 4), 3);
        assert_eq!(c.count_in_range(5, 5), 3);
        assert_eq!(c.count_in_range(6, 10), 0);
        assert_eq!(c.count_in_range(i64::MIN, i64::MAX), 7);
    }

    #[test]
    fn min_max_and_distinct() {
        let c = col(&[4, -1, 9, 4, 9]);
        assert_eq!(c.min_max(), Some((-1, 9)));
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(col(&[]).min_max(), None);
    }

    #[test]
    fn fill_matching_in_matches_scalar_filter() {
        let c = col(&[5, 1, 9, 5, 2, 7, 5, 0]);
        let mut sel = Vec::new();
        c.fill_matching_in(2, 7, 0, c.len(), &mut sel);
        let scalar: Vec<u32> = (0..c.len() as u32)
            .filter(|&r| (2..=7).contains(&c.value(r as usize)))
            .collect();
        assert_eq!(sel, scalar);

        // Batch windows concatenate to the full result.
        let mut batched = Vec::new();
        c.fill_matching_in(2, 7, 0, 3, &mut batched);
        c.fill_matching_in(2, 7, 3, c.len(), &mut batched);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn retain_matching_refines_in_order() {
        let c = col(&[5, 1, 9, 5, 2, 7, 5, 0]);
        let mut sel: Vec<u32> = vec![0, 2, 3, 5, 7];
        c.retain_matching(5, 9, &mut sel);
        assert_eq!(sel, vec![0, 2, 3, 5]);
        c.retain_matching(100, 200, &mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn gather_into_follows_selection_order() {
        let c = col(&[10, 20, 30, 40]);
        let mut out = vec![99]; // must be cleared
        c.gather_into(&[3, 0, 2], &mut out);
        assert_eq!(out, vec![40, 10, 30]);
    }

    #[test]
    fn logical_widths() {
        assert_eq!(ColumnType::Int.logical_width(), 8);
        assert_eq!(ColumnType::Date.logical_width(), 4);
        assert_eq!(ColumnType::Decimal { scale: 2 }.logical_width(), 8);
        assert_eq!(ColumnType::Dict { cardinality: 10 }.logical_width(), 16);
    }
}
