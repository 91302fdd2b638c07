//! Logical query model.
//!
//! Analytical benchmark queries are represented structurally — conjunctive
//! range/equality predicates, equi-joins, a payload (selected columns) and
//! optional aggregation — which is exactly the information the paper's arm
//! generation and context engineering consume (§IV). No SQL text is needed.

use dba_common::{ColumnId, QueryId, TableId, TemplateId};
use serde::{Deserialize, Serialize};

/// A conjunctive predicate on one column: `lo <= col <= hi` over encoded
/// values. Equality is `lo == hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Predicate {
    pub column: ColumnId,
    pub lo: i64,
    pub hi: i64,
}

impl Predicate {
    pub fn eq(column: ColumnId, v: i64) -> Self {
        Predicate {
            column,
            lo: v,
            hi: v,
        }
    }

    pub fn range(column: ColumnId, lo: i64, hi: i64) -> Self {
        Predicate { column, lo, hi }
    }

    #[inline]
    pub fn is_equality(&self) -> bool {
        self.lo == self.hi
    }

    #[inline]
    pub fn matches(&self, v: i64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// An equi-join between two columns of different tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinPred {
    pub left: ColumnId,
    pub right: ColumnId,
}

impl JoinPred {
    pub fn new(left: ColumnId, right: ColumnId) -> Self {
        debug_assert_ne!(left.table, right.table, "self-join not supported");
        JoinPred { left, right }
    }

    /// The side of this join belonging to `table`, if any.
    pub fn side_on(&self, table: TableId) -> Option<ColumnId> {
        if self.left.table == table {
            Some(self.left)
        } else if self.right.table == table {
            Some(self.right)
        } else {
            None
        }
    }

    /// The side of this join *not* belonging to `table`, if the other side is.
    pub fn other_side(&self, table: TableId) -> Option<ColumnId> {
        if self.left.table == table {
            Some(self.right)
        } else if self.right.table == table {
            Some(self.left)
        } else {
            None
        }
    }
}

/// A concrete query instance (a template with bound parameters).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Query {
    pub id: QueryId,
    pub template: TemplateId,
    /// Tables referenced, in no particular order.
    pub tables: Vec<TableId>,
    pub predicates: Vec<Predicate>,
    pub joins: Vec<JoinPred>,
    /// Output columns (the SELECT list, net of aggregates' inputs).
    pub payload: Vec<ColumnId>,
    /// Whether the query aggregates its result (GROUP BY / aggregate-only).
    pub aggregated: bool,
}

impl Query {
    /// Local (non-join) predicates on `table`, in declaration order.
    pub fn predicates_on(&self, table: TableId) -> Vec<Predicate> {
        self.predicates
            .iter()
            .filter(|p| p.column.table == table)
            .copied()
            .collect()
    }

    /// Payload columns that live on `table`.
    pub fn payload_on(&self, table: TableId) -> Vec<ColumnId> {
        self.payload
            .iter()
            .filter(|c| c.table == table)
            .copied()
            .collect()
    }

    /// Join columns on `table` (its side of each join it participates in).
    pub fn join_columns_on(&self, table: TableId) -> Vec<ColumnId> {
        self.joins.iter().filter_map(|j| j.side_on(table)).collect()
    }

    /// Every column of `table` the query must be able to read: predicate,
    /// join and payload columns. Determines what an index must cover for a
    /// covering (index-only) access.
    pub fn columns_needed_on(&self, table: TableId) -> Vec<u16> {
        let mut cols: Vec<u16> = Vec::new();
        let mut push = |c: ColumnId| {
            if c.table == table && !cols.contains(&c.ordinal) {
                cols.push(c.ordinal);
            }
        };
        for p in &self.predicates {
            push(p.column);
        }
        for j in &self.joins {
            if let Some(c) = j.side_on(table) {
                push(c);
            }
        }
        for &c in &self.payload {
            push(c);
        }
        cols
    }

    /// All distinct predicate columns across the query (arm-generation input).
    pub fn predicate_columns(&self) -> Vec<ColumnId> {
        let mut cols = Vec::new();
        for p in &self.predicates {
            if !cols.contains(&p.column) {
                cols.push(p.column);
            }
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: u32, o: u16) -> ColumnId {
        ColumnId::new(TableId(t), o)
    }

    fn sample_query() -> Query {
        Query {
            id: QueryId(1),
            template: TemplateId(3),
            tables: vec![TableId(0), TableId(1)],
            predicates: vec![
                Predicate::eq(col(0, 1), 5),
                Predicate::range(col(0, 2), 10, 20),
                Predicate::eq(col(1, 0), 7),
            ],
            joins: vec![JoinPred::new(col(0, 0), col(1, 1))],
            payload: vec![col(0, 3), col(1, 2)],
            aggregated: true,
        }
    }

    #[test]
    fn predicate_semantics() {
        let p = Predicate::eq(col(0, 0), 5);
        assert!(p.is_equality());
        assert!(p.matches(5));
        assert!(!p.matches(4));
        let r = Predicate::range(col(0, 0), 1, 3);
        assert!(!r.is_equality());
        assert!(r.matches(1) && r.matches(3) && !r.matches(4));
    }

    #[test]
    fn per_table_projections() {
        let q = sample_query();
        assert_eq!(q.predicates_on(TableId(0)).len(), 2);
        assert_eq!(q.predicates_on(TableId(1)).len(), 1);
        assert_eq!(q.payload_on(TableId(0)), vec![col(0, 3)]);
        assert_eq!(q.join_columns_on(TableId(1)), vec![col(1, 1)]);
    }

    #[test]
    fn columns_needed_deduplicates_and_merges() {
        let q = sample_query();
        // table 0: preds on 1,2; join on 0; payload 3.
        let mut needed = q.columns_needed_on(TableId(0));
        needed.sort_unstable();
        assert_eq!(needed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn join_side_resolution() {
        let j = JoinPred::new(col(0, 0), col(1, 1));
        assert_eq!(j.side_on(TableId(0)), Some(col(0, 0)));
        assert_eq!(j.other_side(TableId(0)), Some(col(1, 1)));
        assert_eq!(j.side_on(TableId(2)), None);
    }

    #[test]
    fn predicate_columns_unique() {
        let mut q = sample_query();
        q.predicates.push(Predicate::eq(col(0, 1), 9));
        assert_eq!(q.predicate_columns().len(), 3);
    }
}
