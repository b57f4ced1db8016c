//! The answer checker: a naive, row-at-a-time reference evaluator for
//! every exact statement shape the workloads send, and the comparison
//! of an engine result against it.
//!
//! Each workload builds a statement twice: as SQL text for the engine
//! and as a [`Query`] for this evaluator. The evaluator shares no code
//! with the engine — no zones, morsels, pushdown or plan cache — so a
//! bug common to every engine path still shows up as a mismatch.

use lawsdb_storage::Table;
use std::collections::BTreeMap;

/// Relative tolerance for float results: SUM and AVG fold in a
/// different order than the engine's zone partials and morsels.
const REL_TOL: f64 = 1e-9;

/// A table's columns as f64 (integer columns stay exact below 2^53).
pub struct Data {
    names: Vec<String>,
    cols: Vec<Vec<f64>>,
}

impl Data {
    /// Copy `table`'s columns.
    pub fn from_table(table: &Table) -> Data {
        let names = table
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let cols = table
            .columns()
            .iter()
            .map(|c| c.to_f64_lossy().expect("benchmark tables are numeric"))
            .collect();
        Data { names, cols }
    }

    /// Index of the column named `name`.
    pub fn col(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .expect("known column")
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &[f64] {
        &self.cols[i]
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// Append rows given column by column, in schema order.
    pub fn append(&mut self, cols: &[Vec<f64>]) {
        for (dst, src) in self.cols.iter_mut().zip(cols) {
            dst.extend_from_slice(src);
        }
    }
}

/// A comparison in a WHERE conjunct.
#[derive(Debug, Clone, Copy)]
pub enum Cmp {
    /// `=`
    Eq,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
}

/// One conjunct `column <cmp> value`.
#[derive(Debug, Clone, Copy)]
pub struct Pred {
    /// Column index.
    pub col: usize,
    /// Comparison.
    pub cmp: Cmp,
    /// Literal, parsed from the same text the SQL carries.
    pub value: f64,
}

impl Pred {
    fn holds(&self, x: f64) -> bool {
        match self.cmp {
            Cmp::Eq => x == self.value,
            Cmp::Gt => x > self.value,
            Cmp::Ge => x >= self.value,
            Cmp::Lt => x < self.value,
        }
    }
}

/// An aggregate over one column (`COUNT(*)` has none).
#[derive(Debug, Clone, Copy)]
pub enum Agg {
    /// `COUNT(*)`
    Count,
    /// `SUM(col)`
    Sum(usize),
    /// `AVG(col)`
    Avg(usize),
    /// `MIN(col)`
    Min(usize),
    /// `MAX(col)`
    Max(usize),
}

/// The SELECT list.
#[derive(Debug, Clone)]
pub enum Output {
    /// Plain columns, in table order unless the query sorts.
    Columns(Vec<usize>),
    /// Aggregates, optionally grouped by one column; groups come out in
    /// ascending key order (the workloads always `ORDER BY` the key).
    Aggregate {
        /// GROUP BY column, emitted first.
        group: Option<usize>,
        /// Aggregates in SELECT order.
        aggs: Vec<Agg>,
    },
}

/// A statement as the reference evaluator sees it.
#[derive(Debug, Clone)]
pub struct Query {
    /// Conjunctive WHERE clause.
    pub filter: Vec<Pred>,
    /// SELECT list.
    pub output: Output,
    /// `ORDER BY <output column> DESC`, by output position.
    pub order_desc: Option<usize>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
}

/// Result rows, every value as f64 (NULL as NaN).
pub type Rows = Vec<Vec<f64>>;

#[derive(Clone, Copy)]
struct Acc {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Acc {
    const EMPTY: Acc = Acc {
        n: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }
}

/// Evaluate `q` over the rows `candidates` of `data`, one row at a time.
pub fn evaluate(data: &Data, candidates: impl Iterator<Item = usize>, q: &Query) -> Rows {
    let selected = candidates.filter(|&r| q.filter.iter().all(|p| p.holds(data.cols[p.col][r])));
    let mut rows: Rows = match &q.output {
        Output::Columns(cols) => selected
            .map(|r| cols.iter().map(|&c| data.cols[c][r]).collect())
            .collect(),
        Output::Aggregate { group, aggs } => {
            // Per group, one accumulator per aggregate (COUNT(*) keeps
            // its count in any of them).
            let mut groups: BTreeMap<i64, Vec<Acc>> = BTreeMap::new();
            if group.is_none() {
                groups.insert(0, vec![Acc::EMPTY; aggs.len()]);
            }
            for r in selected {
                let key = group.map_or(0, |g| data.cols[g][r] as i64);
                let accs = groups
                    .entry(key)
                    .or_insert_with(|| vec![Acc::EMPTY; aggs.len()]);
                for (acc, agg) in accs.iter_mut().zip(aggs) {
                    let x = match *agg {
                        Agg::Count => 0.0,
                        Agg::Sum(c) | Agg::Avg(c) | Agg::Min(c) | Agg::Max(c) => data.cols[c][r],
                    };
                    acc.add(x);
                }
            }
            groups
                .into_iter()
                .map(|(key, accs)| {
                    let mut row: Vec<f64> = group.map(|_| key as f64).into_iter().collect();
                    row.extend(accs.iter().zip(aggs).map(|(a, agg)| match agg {
                        Agg::Count => a.n as f64,
                        _ if a.n == 0 => f64::NAN,
                        Agg::Sum(_) => a.sum,
                        Agg::Avg(_) => a.sum / a.n as f64,
                        Agg::Min(_) => a.min,
                        Agg::Max(_) => a.max,
                    }));
                    row
                })
                .collect()
        }
    };
    if let Some(k) = q.order_desc {
        rows.sort_by(|a, b| b[k].total_cmp(&a[k]));
    }
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    rows
}

/// An engine result as [`Rows`].
pub fn rows_of(table: &Table) -> Rows {
    (0..table.row_count())
        .map(|i| {
            table
                .row(i)
                .expect("row index in range")
                .iter()
                .map(|v| v.as_f64().unwrap_or(f64::NAN))
                .collect()
        })
        .collect()
}

/// Integers (keys, counts, `ts`) must match exactly; other values within
/// [`REL_TOL`].
fn close(a: f64, b: f64) -> bool {
    if a.fract() == 0.0 && b.fract() == 0.0 {
        return a == b;
    }
    (a.is_nan() && b.is_nan()) || (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// True when `got` equals `expected` row for row, floats within
/// [`REL_TOL`].
pub fn same_rows(got: &Rows, expected: &Rows) -> bool {
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(g, e)| g.len() == e.len() && g.iter().zip(e).all(|(&x, &y)| close(x, y)))
}

/// Plant a wrong reference answer: shift the first value of the first
/// row, so a correct engine answer must now fail the check.
pub fn plant_wrong(rows: &mut Rows) {
    if let Some(v) = rows.first_mut().and_then(|r| r.first_mut()) {
        *v += 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

    fn data() -> Data {
        let mut b = TableBuilder::new("t");
        b.add_i64("g", vec![1, 0, 1, 0, 2]);
        b.add_f64("v", vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        Data::from_table(&b.build().unwrap())
    }

    #[test]
    fn grouped_aggregate_orders_by_key() {
        let d = data();
        let q = Query {
            filter: vec![Pred {
                col: 1,
                cmp: Cmp::Lt,
                value: 5.0,
            }],
            output: Output::Aggregate {
                group: Some(0),
                aggs: vec![Agg::Count, Agg::Avg(1)],
            },
            order_desc: None,
            limit: None,
        };
        assert_eq!(
            evaluate(&d, 0..d.rows(), &q),
            vec![vec![0.0, 2.0, 3.0], vec![1.0, 2.0, 2.0]]
        );
    }

    #[test]
    fn top_k_sorts_descending_then_limits() {
        let d = data();
        let q = Query {
            filter: vec![Pred {
                col: 0,
                cmp: Cmp::Ge,
                value: 1.0,
            }],
            output: Output::Columns(vec![1]),
            order_desc: Some(0),
            limit: Some(2),
        };
        assert_eq!(evaluate(&d, 0..d.rows(), &q), vec![vec![5.0], vec![3.0]]);
    }
}
