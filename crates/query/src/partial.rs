//! Shard-side partial aggregation and coordinator-side merge for the
//! sharded scatter-gather execution layer (`lawsdb-cluster`).
//!
//! The single-engine aggregate pipeline folds one [`GroupPartial`] per
//! morsel and merges them in morsel order — that merge order is the
//! whole bit-identity story for floating-point `SUM`/`AVG` (IEEE-754
//! addition is not associative, so `(a+b)+(c+d)` and `((a+b)+c)+d`
//! differ in the last ulp). A sharded execution is bit-identical to the
//! unsharded engine exactly when it reproduces the same per-morsel
//! partials and merges them in the same global morsel order:
//!
//! * **Contiguous (range) shards** aligned to a multiple of
//!   `morsel_rows` run the engine's own pipeline locally; their
//!   per-morsel partials *are* the global ones, shifted by the shard's
//!   start row ([`shard_partials_contiguous`]).
//! * **Sparse (hash) shards** carry the original global row index of
//!   every local row. Each contiguous run of local rows falling inside
//!   one global morsel accumulates into its own cell
//!   ([`shard_partials_sparse`]); because a hash shard holds *all* rows
//!   of each of its groups, the per-group fold order matches the global
//!   scan. This requires a non-empty GROUP BY whose groups are wholly
//!   shard-local (partitioning hashed on a group key); global
//!   aggregates over sparse shards must gather rows instead.
//!
//! [`merge_shard_partials`] merges all cells in global morsel order
//! (stable within a morsel, which only matters for disjoint groups) and
//! then orders groups by ascending first-occurrence row — precisely the
//! first-encounter order a serial scan of the global table produces.

use crate::error::{QueryError, Result};
use crate::exec::{
    accumulate_morsel, aggregate_partials, column_from_values, mark_nulls, merge_partials,
    normalize_expr, normalize_name, prepare_agg_args, sort, Accumulator, GroupPartial, KeyPart,
};
use crate::morsel::ExecOptions;
use crate::physical::zone_agg_grid;
use crate::plan::AggSpec;
use crate::pruning::PruningPredicate;
use lawsdb_obs::fields;
use crate::sexpr::ScalarExpr;
use crate::sql::OrderBy;
use lawsdb_storage::{Column, DataType, Field, Schema, Table, Value};

/// Opaque per-morsel partial aggregates of one shard, keyed by *global*
/// morsel index and carrying *global* first-occurrence rows.
#[derive(Debug)]
pub struct ShardPartials {
    cells: Vec<(usize, GroupPartial)>,
    /// Base-table rows this shard scanned to produce the partials.
    pub rows_scanned: usize,
}

/// Partial-aggregate a contiguous (range) shard whose rows are the
/// global rows `[start, start + shard.row_count())`. `start` must be a
/// multiple of `opts.morsel_rows` so shard-local morsels coincide with
/// global morsels. Runs the engine's own pipeline grammars (zone-unit
/// pushdown included, when the shard table carries a synopsis on the
/// same grid as the global table). No plan exists here, so the shard
/// derives its pruner and applies the planner's own pushdown rule.
pub fn shard_partials_contiguous(
    shard: &Table,
    start: usize,
    predicate: Option<&ScalarExpr>,
    group_by: &[String],
    aggs: &[AggSpec],
    opts: &ExecOptions,
) -> Result<ShardPartials> {
    if !start.is_multiple_of(opts.morsel_rows) {
        return Err(QueryError::InvalidAggregate {
            reason: format!(
                "shard start {start} is not aligned to morsel_rows {}",
                opts.morsel_rows
            ),
        });
    }
    let predicate = predicate.map(|p| normalize_expr(p, shard.schema())).transpose()?;
    let pruner = predicate.as_ref().and_then(PruningPredicate::extract);
    let grid = zone_agg_grid(shard, pruner.as_ref(), group_by, aggs);
    let (_, parts) =
        aggregate_partials(shard, predicate.as_ref(), pruner.as_ref(), grid, group_by, aggs, opts)?;
    let base = start / opts.morsel_rows;
    let cells = parts
        .into_iter()
        .enumerate()
        .map(|(i, mut p)| {
            for r in &mut p.first_rows {
                *r += start;
            }
            (base + i, p)
        })
        .collect();
    Ok(ShardPartials { cells, rows_scanned: shard.row_count() })
}

/// Partial-aggregate a sparse (hash) shard. `orig_rows[i]` is the
/// global row index of the shard's local row `i` and must be strictly
/// increasing (a hash partition built by one scan of the global table
/// is). Each run of local rows inside one global morsel folds into its
/// own cell, so per-group accumulation reproduces the global engine's
/// morsel boundaries exactly.
///
/// Requires a non-empty GROUP BY: the bit-identity argument needs every
/// group wholly inside one shard, which only the partition key
/// guarantees. Route global aggregates through the gather path instead.
///
/// Morsel geometry comes from `opts.morsel_rows`; an active
/// `opts.profile` context records one `morsel` leaf per folded run, so
/// a distributed trace shows the same execution grammar the single
/// engine's profile does.
pub fn shard_partials_sparse(
    shard: &Table,
    orig_rows: &[usize],
    predicate: Option<&ScalarExpr>,
    group_by: &[String],
    aggs: &[AggSpec],
    opts: &ExecOptions,
) -> Result<ShardPartials> {
    let morsel_rows = opts.morsel_rows;
    if group_by.is_empty() {
        return Err(QueryError::InvalidAggregate {
            reason: "sparse shard partials need a GROUP BY; gather rows for global aggregates"
                .to_string(),
        });
    }
    if orig_rows.len() != shard.row_count() {
        return Err(QueryError::InvalidAggregate {
            reason: format!(
                "row map covers {} rows but shard has {}",
                orig_rows.len(),
                shard.row_count()
            ),
        });
    }
    debug_assert!(orig_rows.windows(2).all(|w| w[0] < w[1]), "row map must be increasing");
    let predicate = predicate.map(|p| normalize_expr(p, shard.schema())).transpose()?;
    let group_by: Vec<String> = group_by
        .iter()
        .map(|g| normalize_name(shard.schema(), g))
        .collect::<Result<_>>()?;
    let args = prepare_agg_args(shard, aggs)?;
    let mut cells = Vec::new();
    let mut i = 0;
    while i < orig_rows.len() {
        let morsel = orig_rows[i] / morsel_rows;
        let mut j = i + 1;
        while j < orig_rows.len() && orig_rows[j] / morsel_rows == morsel {
            j += 1;
        }
        let run = shard.slice(i, j - i)?;
        let mut p =
            accumulate_morsel(&run, i, predicate.as_ref(), &group_by, &args, aggs.len())?;
        for r in &mut p.first_rows {
            *r = orig_rows[*r];
        }
        if let Some(ctx) = &opts.profile {
            ctx.leaf("morsel", morsel as u64, fields![rows = (j - i) as u64]);
        }
        cells.push((morsel, p));
        i = j;
    }
    Ok(ShardPartials { cells, rows_scanned: shard.row_count() })
}

/// Merged global group state, groups ordered by ascending first-occurrence
/// row (the single engine's output order).
pub struct MergedPartials {
    part: GroupPartial,
    /// Total base-table rows scanned across every shard.
    pub rows_scanned: usize,
}

impl MergedPartials {
    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        self.part.keys.len()
    }

    /// Global first-occurrence row of each group, in output order.
    pub fn first_rows(&self) -> &[usize] {
        &self.part.first_rows
    }
}

/// Merge shard partials in deterministic global order: cells sort
/// stably by global morsel index (shard submission order breaks ties,
/// which only interleaves disjoint groups), fold via the engine's
/// morsel-order merge, then order groups by ascending first row.
pub fn merge_shard_partials(shards: Vec<ShardPartials>) -> MergedPartials {
    let mut rows_scanned = 0;
    let mut cells: Vec<(usize, GroupPartial)> = Vec::new();
    for s in shards {
        rows_scanned += s.rows_scanned;
        cells.extend(s.cells);
    }
    cells.sort_by_key(|(m, _)| *m);
    let merged = merge_partials(cells.into_iter().map(|(_, p)| p).collect());
    let mut idx: Vec<usize> = (0..merged.keys.len()).collect();
    idx.sort_by_key(|&i| merged.first_rows[i]);
    let mut part =
        GroupPartial { keys: Vec::new(), first_rows: Vec::new(), accs: Vec::new() };
    let mut keys: Vec<Option<Vec<KeyPart>>> = merged.keys.into_iter().map(Some).collect();
    let mut accs: Vec<Option<Vec<Accumulator>>> = merged.accs.into_iter().map(Some).collect();
    for i in idx {
        part.keys.push(keys[i].take().expect("each group reordered once"));
        part.first_rows.push(merged.first_rows[i]);
        part.accs.push(accs[i].take().expect("each group reordered once"));
    }
    MergedPartials { part, rows_scanned }
}

/// Assemble the merged groups into the engine-shaped result table:
/// group key columns (typed per the global `schema`) in declared order,
/// then one column per aggregate. `key_value(row, column)` resolves a
/// group key value at a *global* row — the coordinator maps the row back
/// to its owning shard, since no global table exists to gather from.
pub fn assemble_partials(
    schema: &Schema,
    group_by: &[String],
    aggs: &[AggSpec],
    merged: MergedPartials,
    mut key_value: impl FnMut(usize, &str) -> Result<Value>,
) -> Result<Table> {
    let group_by: Vec<String> = group_by
        .iter()
        .map(|g| normalize_name(schema, g))
        .collect::<Result<_>>()?;
    let mut part = merged.part;
    // Global aggregate over an empty input still yields one row.
    if group_by.is_empty() && part.accs.is_empty() {
        part.first_rows.push(usize::MAX);
        part.accs.push(vec![Accumulator::new(); aggs.len()]);
    }
    let mut fields = Vec::new();
    let mut cols = Vec::new();
    for g in &group_by {
        let idx = schema
            .index_of(g)
            .ok_or_else(|| QueryError::UnknownColumn { name: g.clone() })?;
        let dtype = schema.fields()[idx].data_type;
        let values: Vec<Value> = part
            .first_rows
            .iter()
            .map(|&r| key_value(r, g))
            .collect::<Result<_>>()?;
        fields.push(Field { name: g.clone(), data_type: dtype, nullable: true });
        cols.push(column_from_typed(dtype, &values));
    }
    for (ai, a) in aggs.iter().enumerate() {
        let values: Vec<Value> = part.accs.iter().map(|g| g[ai].finish(a.func)).collect();
        let col = column_from_values(&values);
        fields.push(Field::nullable(a.name.clone(), col.data_type()));
        cols.push(col);
    }
    Ok(Table::new("result", Schema::new(fields), cols)?)
}

/// Build a column of a known type from dynamic values — the same shape
/// `Column::take` over the source column would produce, so assembled
/// key columns match the single engine's bit for bit.
fn column_from_typed(dtype: DataType, values: &[Value]) -> Column {
    match dtype {
        DataType::Int64 => Column::from_i64_opt(values.iter().map(|v| v.as_i64()).collect()),
        DataType::Float64 => {
            let mut col = Column::from_f64_opt(values.iter().map(|v| v.as_f64()).collect());
            mark_nulls(&mut col, values);
            col
        }
        DataType::Str => {
            let data: Vec<String> =
                values.iter().map(|v| v.as_str().unwrap_or("").to_string()).collect();
            let mut col = Column::from_str(data);
            mark_nulls(&mut col, values);
            col
        }
        DataType::Bool => {
            let data: Vec<bool> =
                values.iter().map(|v| matches!(v, Value::Bool(true))).collect();
            let mut col = Column::from_bool(&data);
            mark_nulls(&mut col, values);
            col
        }
    }
}

/// The engine's ORDER BY (NULLs last, stable), exposed for the
/// coordinator's final sort over the assembled table.
pub fn sort_rows(t: &Table, keys: &[OrderBy]) -> Result<Table> {
    sort(t, keys)
}

/// The engine's LIMIT: the first `n` rows.
pub fn limit_rows(t: &Table, n: usize) -> Result<Table> {
    let keep: Vec<usize> = (0..t.row_count().min(n)).collect();
    Ok(t.take(&keep)?)
}

/// Stable hash of a value under the engine's *grouping* equivalence
/// (integral floats coerce to integers, exactly like GROUP BY), for
/// hash partitioning on a group key. FNV-1a, deterministic across runs
/// and platforms.
pub fn group_key_hash(v: &Value) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    match KeyPart::from_value(v) {
        KeyPart::Null => eat(&[0]),
        KeyPart::Int(i) => {
            eat(&[1]);
            eat(&i.to_le_bytes());
        }
        KeyPart::Float(bits) => {
            eat(&[2]);
            eat(&bits.to_le_bytes());
        }
        KeyPart::Str(s) => {
            eat(&[3]);
            eat(s.as_bytes());
        }
        KeyPart::Bool(b) => eat(&[4, b as u8]),
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with;
    use crate::plan::LogicalPlan;
    use crate::sql::parse_select;
    use lawsdb_storage::{Catalog, TableBuilder};

    fn fixture(rows: usize) -> Table {
        let mut b = TableBuilder::new("t");
        let mut g = Vec::new();
        let mut v = Vec::new();
        let mut state = 0x5DEECE66Du64;
        for i in 0..rows {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            g.push((i % 7) as i64);
            v.push(((state >> 11) as f64 / (1u64 << 53) as f64) * 2000.0 - 1000.0 + 0.1);
        }
        b.add_i64("g", g);
        b.add_f64("v", v);
        let mut t = b.build().unwrap();
        t.rebuild_synopsis_with(16);
        t
    }

    fn agg_parts(sql: &str) -> (Vec<String>, Vec<AggSpec>, Option<ScalarExpr>) {
        let stmt = parse_select(sql).unwrap();
        let mut plan = LogicalPlan::from_statement(&stmt).unwrap();
        loop {
            match plan {
                LogicalPlan::Aggregate { input, group_by, aggs } => {
                    let pred = match *input {
                        LogicalPlan::Filter { predicate, .. } => Some(predicate),
                        _ => None,
                    };
                    return (group_by, aggs, pred);
                }
                LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => {
                    plan = *input;
                }
                other => panic!("not an aggregate shape: {other:?}"),
            }
        }
    }

    fn bits(t: &Table) -> Vec<Vec<String>> {
        (0..t.row_count())
            .map(|r| {
                t.row(r)
                    .unwrap()
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("f{:016x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn contiguous_shards_merge_bit_identically() {
        let t = fixture(500);
        let catalog = Catalog::new();
        let t = catalog.register(t).unwrap();
        let opts = ExecOptions { threads: 2, morsel_rows: 64, ..ExecOptions::default() };
        for sql in [
            "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g",
            "SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
            "SELECT g, AVG(v) FROM t WHERE v > 0.0 GROUP BY g",
        ] {
            let expect = execute_with(&catalog, sql, &opts).unwrap();
            let (group_by, aggs, pred) = agg_parts(sql);
            // Three shards split at morsel-aligned rows 0/128/320.
            let splits = [(0usize, 128usize), (128, 192), (320, 180)];
            let mut shards = Vec::new();
            for (start, len) in splits {
                let mut s = t.slice(start, len).unwrap();
                s.rebuild_synopsis_with(16);
                shards.push(
                    shard_partials_contiguous(&s, start, pred.as_ref(), &group_by, &aggs, &opts)
                        .unwrap(),
                );
            }
            let merged = merge_shard_partials(shards);
            let got = assemble_partials(t.schema(), &group_by, &aggs, merged, |row, col| {
                Ok(t.column(col).unwrap().value(row).unwrap())
            })
            .unwrap();
            assert_eq!(bits(&got), bits(&expect.table), "{sql}");
        }
    }

    #[test]
    fn sparse_shards_merge_bit_identically() {
        let t = fixture(400);
        let catalog = Catalog::new();
        let t = catalog.register(t).unwrap();
        let opts = ExecOptions { threads: 1, morsel_rows: 32, ..ExecOptions::default() };
        for sql in [
            "SELECT g, SUM(v), COUNT(*), MIN(v) FROM t GROUP BY g",
            "SELECT g, AVG(v) FROM t WHERE v > -200.0 GROUP BY g",
        ] {
            let expect = execute_with(&catalog, sql, &opts).unwrap();
            let (group_by, aggs, pred) = agg_parts(sql);
            // Hash-partition rows on g into 3 shards.
            let n_shards = 3;
            let mut rowsets: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
            let gcol = t.column("g").unwrap();
            for row in 0..t.row_count() {
                let h = group_key_hash(&gcol.value(row).unwrap());
                rowsets[(h % n_shards as u64) as usize].push(row);
            }
            let mut shards = Vec::new();
            for rows in &rowsets {
                let s = t.take(rows).unwrap();
                shards.push(
                    shard_partials_sparse(&s, rows, pred.as_ref(), &group_by, &aggs, &opts)
                        .unwrap(),
                );
            }
            let merged = merge_shard_partials(shards);
            let got = assemble_partials(t.schema(), &group_by, &aggs, merged, |row, col| {
                Ok(t.column(col).unwrap().value(row).unwrap())
            })
            .unwrap();
            assert_eq!(bits(&got), bits(&expect.table), "{sql}");
        }
    }

    #[test]
    fn sparse_global_aggregates_are_refused() {
        let t = fixture(40);
        let (group_by, aggs, _) = agg_parts("SELECT SUM(v) FROM t");
        let rows: Vec<usize> = (0..40).collect();
        let opts = ExecOptions { threads: 1, morsel_rows: 32, ..ExecOptions::default() };
        let err =
            shard_partials_sparse(&t, &rows, None, &group_by, &aggs, &opts).unwrap_err();
        assert!(matches!(err, QueryError::InvalidAggregate { .. }));
    }

    #[test]
    fn grouping_hash_coerces_integral_floats() {
        assert_eq!(group_key_hash(&Value::Float(2.0)), group_key_hash(&Value::Int(2)));
        assert_eq!(group_key_hash(&Value::Float(-0.0)), group_key_hash(&Value::Int(0)));
        assert_ne!(group_key_hash(&Value::Int(1)), group_key_hash(&Value::Int(2)));
    }
}
