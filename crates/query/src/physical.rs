//! Logical→physical planning: the plan the executor runs.
//!
//! The heuristic optimizer ([`crate::optimize`]) rewrites the logical
//! tree; this pass lowers it once into a [`PhysicalPlan`] and makes
//! every access-path decision on the way. For every node it derives an
//! [`Estimate`] (output cardinality + cumulative cost in µs) from
//! zonemap selectivity statistics and the per-operator constants in
//! [`CostConstants`], and for `Filter`-over-`Scan` pipelines it
//! additionally:
//!
//! - extracts the [`PruningPredicate`] the executor prunes zones with,
//!   after resolving column names against the scanned table;
//! - walks the table synopsis zone-by-zone to build an [`AccessPlan`]
//!   (how many zones will be skipped outright, answered wholesale from
//!   compressed-domain bounds, or evaluated row-at-a-time), pricing
//!   exact page scans against the accept/skip paths the pruner exposes;
//! - reorders AND-connected conjuncts most-selective-first (stable on
//!   ties), so the executor's short-circuit evaluation drops rows as
//!   early as possible. SQL `AND` is Kleene: commutative and
//!   associative over `(truth, known)` masks, so any reordering is
//!   result-preserving — `tests/optimizer_equivalence.rs` pins this.
//!
//! Global aggregates over such pipelines get a [`ZoneAggPath`] whose
//! unit grid comes from `zone_agg_grid`, the one zone-aggregate
//! eligibility rule. The executor ([`crate::exec`]) dispatches on
//! [`PhysicalNode`] and re-derives none of these decisions. The plan
//! also renders estimate-annotated EXPLAIN lines, and is the unit
//! cached by [`crate::plan_cache::PlanCache`].

use crate::cost::CostConstants;
use crate::exec::normalize_expr;
use crate::plan::{AggSpec, LogicalPlan};
use crate::pruning::{PruningConjunct, PruningPredicate, ScanStats, ZoneDecision};
use crate::sexpr::ScalarExpr;
use crate::sql::OrderBy;
use lawsdb_storage::zonemap::ZoneSource;
use lawsdb_storage::{Catalog, DataType, Table};

/// Selectivity assumed for conjuncts the synopsis cannot estimate
/// (non-sargable residuals, unknown columns).
pub const DEFAULT_SELECTIVITY: f64 = 0.25;

/// Cardinality and cumulative cost estimate for one physical node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost (this node plus its inputs), µs.
    pub cost_us: f64,
}

impl Estimate {
    fn zero() -> Estimate {
        Estimate { rows: 0.0, cost_us: 0.0 }
    }
}

/// Zone-level access path for a pruned scan, computed at plan time by
/// replaying [`PruningPredicate::plan_range`] against the synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccessPlan {
    /// Zone-aligned chunks the executor will evaluate row-at-a-time.
    pub zones_eval: usize,
    /// Chunks taken wholesale from compressed-domain bounds.
    pub zones_accept: usize,
    /// Chunks skipped by exact write-time zone maps.
    pub zones_skip_data: usize,
    /// Chunks skipped by model-derived bounds.
    pub zones_skip_model: usize,
    /// Rows inside Eval chunks.
    pub rows_eval: usize,
    /// Rows inside AcceptAll chunks.
    pub rows_accept: usize,
    /// Rows never touched at all.
    pub rows_skipped: usize,
}

impl AccessPlan {
    /// Total zone-aligned chunks consulted.
    pub fn zones_total(&self) -> usize {
        self.zones_eval + self.zones_accept + self.zones_skip_data + self.zones_skip_model
    }

    /// Compact render folded into the EXPLAIN Pruning line.
    fn describe(&self) -> String {
        format!(
            "zones[eval={} accept={} skip={}]",
            self.zones_eval,
            self.zones_accept,
            self.zones_skip_data + self.zones_skip_model
        )
    }
}

/// The zone-aggregate pushdown path: for eligible global aggregates,
/// zones the pruner accepts wholesale answer from their materialized
/// [`ZoneAgg`](lawsdb_storage::zonemap::ZoneAgg) partials (constant
/// work per zone, zero page reads) while residual `Eval` zones run the
/// fused filter+aggregate kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ZoneAggPath {
    /// Unit granularity the executor folds at (the zone-unit grammar;
    /// see `zone_agg_grid`).
    pub grid: usize,
    /// Units expected to substitute materialized partials.
    pub zones_pushed: usize,
    /// Rows expected to run the fused scan kernel instead.
    pub rows_fused: usize,
}

impl ZoneAggPath {
    /// Compact render appended to the EXPLAIN Aggregate line.
    fn describe(&self) -> String {
        format!("zone_agg[push={} fused_rows={}]", self.zones_pushed, self.rows_fused)
    }
}

/// One node of the physical plan: the logical operator plus its
/// estimate, and for filters the chosen conjunct order, pruning
/// predicate and access path.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalNode {
    /// Base-table page scan.
    Scan {
        /// Table name.
        table: String,
        /// Columns to materialize, or `None` for all.
        projection: Option<Vec<String>>,
        /// Estimate.
        est: Estimate,
    },
    /// Statically-empty scan (`LIMIT 0` elision); zero IO, zero cost.
    EmptyScan {
        /// Table name.
        table: String,
        /// Columns to materialize, or `None` for all.
        projection: Option<Vec<String>>,
        /// Estimate.
        est: Estimate,
    },
    /// Inner hash equi-join.
    Join {
        /// Left input.
        left: Box<PhysicalNode>,
        /// Right input.
        right: Box<PhysicalNode>,
        /// Key column on the left input.
        left_col: String,
        /// Key column on the right input.
        right_col: String,
        /// Estimate.
        est: Estimate,
    },
    /// Row filter with cost-ordered conjuncts.
    Filter {
        /// Input node.
        input: Box<PhysicalNode>,
        /// Predicate with conjuncts in chosen evaluation order.
        predicate: ScalarExpr,
        /// Combined estimated selectivity of all conjuncts.
        selectivity: f64,
        /// Sargable conjuncts the executor prunes zones with, names
        /// resolved against the scanned table. Set only when the input
        /// is a base scan.
        pruner: Option<PruningPredicate>,
        /// Zone access path when the input is a base scan with a
        /// synopsis.
        access: Option<AccessPlan>,
        /// True when costing changed the conjunct order.
        reordered: bool,
        /// Estimate.
        est: Estimate,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input node.
        input: Box<PhysicalNode>,
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
        /// Zone-aggregate pushdown path, when the query shape and the
        /// scanned table's synopsis make one available.
        zone_agg: Option<ZoneAggPath>,
        /// Estimate.
        est: Estimate,
    },
    /// Projection.
    Project {
        /// Input node.
        input: Box<PhysicalNode>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(ScalarExpr, String)>,
        /// `SELECT *`?
        star: bool,
        /// Estimate.
        est: Estimate,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input node.
        input: Box<PhysicalNode>,
        /// Estimate.
        est: Estimate,
    },
    /// Sort.
    Sort {
        /// Input node.
        input: Box<PhysicalNode>,
        /// Sort keys.
        keys: Vec<OrderBy>,
        /// Estimate.
        est: Estimate,
    },
    /// Row cap.
    Limit {
        /// Input node.
        input: Box<PhysicalNode>,
        /// Row cap.
        n: usize,
        /// Estimate.
        est: Estimate,
    },
}

impl PhysicalNode {
    /// This node's estimate.
    pub fn estimate(&self) -> Estimate {
        match self {
            PhysicalNode::Scan { est, .. }
            | PhysicalNode::EmptyScan { est, .. }
            | PhysicalNode::Join { est, .. }
            | PhysicalNode::Filter { est, .. }
            | PhysicalNode::Aggregate { est, .. }
            | PhysicalNode::Project { est, .. }
            | PhysicalNode::Distinct { est, .. }
            | PhysicalNode::Sort { est, .. }
            | PhysicalNode::Limit { est, .. } => *est,
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let est = self.estimate();
        let ann = format!(" · est_rows={:.0} est_cost={:.1}us", est.rows, est.cost_us);
        match self {
            PhysicalNode::Scan { table, projection, .. } => {
                let cols = match projection {
                    None => "*".to_string(),
                    Some(cols) => cols.join(", "),
                };
                out.push_str(&format!("{pad}Scan {table} [{cols}]{ann}\n"));
            }
            PhysicalNode::EmptyScan { table, projection, .. } => {
                let cols = match projection {
                    None => "*".to_string(),
                    Some(cols) => cols.join(", "),
                };
                out.push_str(&format!("{pad}EmptyScan {table} [{cols}]{ann}\n"));
            }
            PhysicalNode::Join { left, right, left_col, right_col, .. } => {
                out.push_str(&format!("{pad}Join on {left_col} = {right_col}{ann}\n"));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysicalNode::Filter {
                input, predicate, selectivity, pruner, access, reordered, ..
            } => {
                out.push_str(&format!(
                    "{pad}Filter {predicate}{ann} sel={selectivity:.3}{}\n",
                    if *reordered { " (reordered)" } else { "" }
                ));
                // Mirror the logical EXPLAIN's Pruning line, annotated
                // with the planned zone access path. Appended, never
                // restructured: consumers index EXPLAIN output by line.
                if let Some(p) = pruner {
                    let zones = match access {
                        Some(a) => format!(" {}", a.describe()),
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{pad}  Pruning [{}]{}{zones}\n",
                        p.describe(),
                        if p.exact { " (exact)" } else { "" }
                    ));
                }
                input.explain_into(out, depth + 1);
            }
            PhysicalNode::Aggregate { input, group_by, aggs, zone_agg, .. } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.name.clone()).collect();
                // The pushdown path is appended to the Aggregate line,
                // never emitted as its own line: consumers index
                // EXPLAIN output by line.
                let push = match zone_agg {
                    Some(z) => format!(" {}", z.describe()),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "{pad}Aggregate group_by=[{}] aggs=[{}]{ann}{push}\n",
                    group_by.join(", "),
                    aggs.join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            PhysicalNode::Project { input, exprs, star, .. } => {
                let mut items: Vec<String> = Vec::new();
                if *star {
                    items.push("*".to_string());
                }
                items.extend(exprs.iter().map(|(e, n)| format!("{e} AS {n}")));
                out.push_str(&format!("{pad}Project [{}]{ann}\n", items.join(", ")));
                input.explain_into(out, depth + 1);
            }
            PhysicalNode::Distinct { input, .. } => {
                out.push_str(&format!("{pad}Distinct{ann}\n"));
                input.explain_into(out, depth + 1);
            }
            PhysicalNode::Sort { input, keys, .. } => {
                let keys: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.column, if k.desc { " DESC" } else { "" }))
                    .collect();
                out.push_str(&format!("{pad}Sort [{}]{ann}\n", keys.join(", ")));
                input.explain_into(out, depth + 1);
            }
            PhysicalNode::Limit { input, n, .. } => {
                out.push_str(&format!("{pad}Limit {n}{ann}\n"));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// A costed physical plan, ready to execute or cache.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Root physical node.
    pub root: PhysicalNode,
}

impl PhysicalPlan {
    /// The root node's estimate.
    pub fn root_estimate(&self) -> Estimate {
        self.root.estimate()
    }

    /// EXPLAIN text: the logical plan shape with ` · est_rows=… `
    /// `est_cost=…` annotations appended to every line.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.root.explain_into(&mut s, 0);
        s
    }
}

/// Price a (heuristically optimized) logical plan against the catalog's
/// current statistics. Infallible by design: unknown tables or missing
/// synopses degrade to default estimates, never to planning errors —
/// execution reports those.
pub fn plan_physical(catalog: &Catalog, plan: &LogicalPlan, consts: &CostConstants) -> PhysicalPlan {
    PhysicalPlan { root: plan_node(catalog, plan, consts) }
}

fn plan_node(catalog: &Catalog, plan: &LogicalPlan, consts: &CostConstants) -> PhysicalNode {
    match plan {
        LogicalPlan::Scan { table, projection } => {
            let rows = catalog.get(table).map(|t| t.row_count()).unwrap_or(0) as f64;
            PhysicalNode::Scan {
                table: table.clone(),
                projection: projection.clone(),
                est: Estimate { rows, cost_us: rows * consts.scan_tuple_us },
            }
        }
        LogicalPlan::EmptyScan { table, projection } => PhysicalNode::EmptyScan {
            table: table.clone(),
            projection: projection.clone(),
            est: Estimate::zero(),
        },
        LogicalPlan::Join { left, right, left_col, right_col } => {
            let l = plan_node(catalog, left, consts);
            let r = plan_node(catalog, right, consts);
            let (le, re) = (l.estimate(), r.estimate());
            // Equi-join proxy: at most one match per probe row.
            let rows = le.rows.min(re.rows);
            let cost_us = le.cost_us
                + re.cost_us
                + (le.rows + re.rows) * consts.agg_tuple_us
                + rows * consts.accept_tuple_us;
            PhysicalNode::Join {
                left: Box::new(l),
                right: Box::new(r),
                left_col: left_col.clone(),
                right_col: right_col.clone(),
                est: Estimate { rows, cost_us },
            }
        }
        LogicalPlan::Filter { input, predicate } => plan_filter(catalog, input, predicate, consts),
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let i = plan_node(catalog, input, consts);
            let ie = i.estimate();
            let rows =
                if group_by.is_empty() { 1.0 } else { ie.rows.sqrt().ceil().max(1.0) };
            let zone_agg = plan_zone_agg(catalog, &i, group_by, aggs);
            let n_aggs = aggs.len().max(1) as f64;
            // Price zone-aggregate vs row-scan per zone: pushed units
            // cost one constant fold each; only fused-kernel rows pay
            // per-row aggregation. A bare scan under a fully pushed
            // aggregate is elided entirely (the paper's zero-IO path),
            // so its cost drops out; a filtered input keeps its pruned
            // scan cost since Eval zones still materialize.
            let cost_us = match (&zone_agg, &i) {
                (Some(z), PhysicalNode::Scan { .. }) => {
                    z.zones_pushed as f64 * consts.agg_zone_fold_us
                        + z.rows_fused as f64 * n_aggs * consts.agg_tuple_us
                }
                (Some(z), _) => {
                    ie.cost_us
                        + z.zones_pushed as f64 * consts.agg_zone_fold_us
                        + z.rows_fused as f64 * n_aggs * consts.agg_tuple_us
                }
                (None, _) => ie.cost_us + ie.rows * n_aggs * consts.agg_tuple_us,
            };
            PhysicalNode::Aggregate {
                input: Box::new(i),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                zone_agg,
                est: Estimate { rows, cost_us },
            }
        }
        LogicalPlan::Project { input, exprs, star } => {
            let i = plan_node(catalog, input, consts);
            let ie = i.estimate();
            let cost_us = ie.cost_us + ie.rows * exprs.len() as f64 * consts.eval_tuple_us;
            PhysicalNode::Project {
                input: Box::new(i),
                exprs: exprs.clone(),
                star: *star,
                est: Estimate { rows: ie.rows, cost_us },
            }
        }
        LogicalPlan::Distinct { input } => {
            let i = plan_node(catalog, input, consts);
            let ie = i.estimate();
            PhysicalNode::Distinct {
                input: Box::new(i),
                est: Estimate {
                    rows: ie.rows.sqrt().ceil().max(1.0).min(ie.rows.max(1.0)),
                    cost_us: ie.cost_us + ie.rows * consts.agg_tuple_us,
                },
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let i = plan_node(catalog, input, consts);
            let ie = i.estimate();
            let cost_us =
                ie.cost_us + ie.rows * (ie.rows + 2.0).log2() * consts.sort_tuple_us;
            PhysicalNode::Sort {
                input: Box::new(i),
                keys: keys.clone(),
                est: Estimate { rows: ie.rows, cost_us },
            }
        }
        LogicalPlan::Limit { input, n } => {
            let i = plan_node(catalog, input, consts);
            let ie = i.estimate();
            let rows = ie.rows.min(*n as f64);
            PhysicalNode::Limit {
                input: Box::new(i),
                n: *n,
                est: Estimate { rows, cost_us: ie.cost_us + rows * consts.accept_tuple_us },
            }
        }
    }
}

/// One AND-connected conjunct with its costing metadata.
struct ConjunctInfo {
    expr: ScalarExpr,
    /// Present when the conjunct alone is an exact sargable comparison.
    sargable: Option<PruningConjunct>,
    /// Estimated selectivity (DEFAULT_SELECTIVITY when unknowable).
    selectivity: f64,
    /// Position in the original predicate (stable tie-break).
    index: usize,
}

fn plan_filter(
    catalog: &Catalog,
    input: &LogicalPlan,
    predicate: &ScalarExpr,
    consts: &CostConstants,
) -> PhysicalNode {
    let phys_input = plan_node(catalog, input, consts);
    let ie = phys_input.estimate();

    // Synopsis of the base table, when the filter sits on a scan.
    let scanned = match input {
        LogicalPlan::Scan { table, .. } => catalog.get(table).ok(),
        _ => None,
    };
    let synopsis = scanned.as_ref().and_then(|t| t.synopsis());

    // Decompose, estimate, and order the conjuncts.
    let mut infos: Vec<ConjunctInfo> = predicate
        .conjuncts()
        .into_iter()
        .enumerate()
        .map(|(index, expr)| {
            let sargable = PruningPredicate::extract(expr)
                .filter(|p| p.exact && p.conjuncts.len() == 1)
                .map(|p| p.conjuncts.into_iter().next().expect("len checked"));
            let selectivity = sargable
                .as_ref()
                .and_then(|c| {
                    synopsis.and_then(|s| s.estimate_selectivity(&c.column, c.op, c.rhs))
                })
                .unwrap_or(DEFAULT_SELECTIVITY);
            ConjunctInfo { expr: expr.clone(), sargable, selectivity, index }
        })
        .collect();
    // Most-selective sargable conjuncts first; residuals (which cannot
    // prune and tend to be arithmetic-heavy) keep their original order
    // at the back. Kleene AND makes any order result-identical.
    infos.sort_by(|a, b| {
        match (a.sargable.is_some(), b.sargable.is_some()) {
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => a.index.cmp(&b.index),
            (true, true) => a
                .selectivity
                .partial_cmp(&b.selectivity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index.cmp(&b.index)),
        }
    });
    let reordered = infos.windows(2).any(|w| w[0].index > w[1].index);
    let combined_sel: f64 = infos.iter().map(|c| c.selectivity).product();

    // Rebuild the predicate left-deep in the chosen order: the executor
    // evaluates conjuncts left to right with short-circuiting.
    let ordered: Vec<ScalarExpr> = infos.iter().map(|c| c.expr.clone()).collect();
    let predicate = and_chain(ordered);

    // The pruner the executor will run, extracted once here from the
    // predicate with names resolved exactly as the executor resolves
    // them. An unknown table or column keeps the names as written:
    // execution reports the error, EXPLAIN still renders the plan.
    let pruner = match input {
        LogicalPlan::Scan { .. } => {
            let resolved =
                scanned.as_ref().and_then(|t| normalize_expr(&predicate, t.schema()).ok());
            PruningPredicate::extract(resolved.as_ref().unwrap_or(&predicate))
        }
        _ => None,
    };

    // Per-zone access path + cost, when the synopsis can prune.
    let mut access = None;
    let mut cost_us = ie.cost_us + ie.rows * infos.len() as f64 * consts.eval_tuple_us;
    if let (Some(table), Some(syn), Some(pruner)) = (&scanned, synopsis, &pruner) {
        let a = access_plan(pruner, syn, table.row_count());
        // Eval zones pay materialize + short-circuit conjunct
        // evaluation (conjunct i only sees rows surviving 0..i);
        // accept zones pay a gather; skipped zones pay nothing.
        let mut eval_per_row = 0.0;
        let mut alive = 1.0;
        for c in &infos {
            eval_per_row += alive * consts.eval_tuple_us;
            alive *= c.selectivity;
        }
        cost_us = a.zones_total() as f64 * consts.zone_decide_us
            + a.rows_accept as f64 * consts.accept_tuple_us
            + a.rows_eval as f64 * (consts.scan_tuple_us + eval_per_row);
        access = Some(a);
    }

    PhysicalNode::Filter {
        input: Box::new(phys_input),
        predicate,
        selectivity: combined_sel,
        pruner,
        access,
        reordered,
        est: Estimate { rows: (ie.rows * combined_sel).max(0.0), cost_us },
    }
}

/// Replay the pruner over the whole table, exactly as one table-sized
/// morsel of the executor would, to see which zones each access path
/// gets. Zone counts are the replay's own [`ScanStats`], so they equal
/// the executor's counters whenever morsels align with zones.
fn access_plan(
    pruner: &PruningPredicate,
    synopsis: &lawsdb_storage::TableSynopsis,
    row_count: usize,
) -> AccessPlan {
    let mut stats = ScanStats::default();
    let chunks = pruner.plan_range(synopsis, pruner.grid(synopsis), 0, row_count, &mut stats);
    let mut a = AccessPlan {
        zones_accept: stats.pages_compressed_eval,
        zones_skip_data: stats.pages_pruned_zonemap,
        zones_skip_model: stats.pages_pruned_model,
        zones_eval: stats.pages_total - stats.pages_compressed_eval - stats.pages_pruned(),
        ..AccessPlan::default()
    };
    for (_, len, decision) in chunks {
        match decision {
            ZoneDecision::Eval => a.rows_eval += len,
            ZoneDecision::AcceptAll => a.rows_accept += len,
            ZoneDecision::Skip(_) => a.rows_skipped += len,
        }
    }
    a
}

/// Zone-aggregate pushdown eligibility: the one rule that decides it,
/// applied by the planner and by shard partial aggregation
/// ([`crate::partial`]), which runs without a plan.
///
/// Eligible shapes are global (no GROUP BY) aggregates whose every
/// argument is `*` or a bare Int64/Float64 column carrying exact data
/// zones. Returns the unit grid the executor folds at: the finest
/// `zone_rows` among the argument columns and the pruner's columns, so
/// units line up with both the synopsis zones and the pruner's chunk
/// grid. The grid is a function of the table and the query — never of
/// [`crate::ExecOptions`] — so pruned and unpruned runs fold the same
/// units, and a unit partial taken from the synopsis substitutes
/// bit-for-bit for the scanned one.
pub(crate) fn zone_agg_grid(
    t: &Table,
    pruner: Option<&PruningPredicate>,
    group_by: &[String],
    aggs: &[AggSpec],
) -> Option<usize> {
    if !group_by.is_empty() {
        return None;
    }
    let synopsis = t.synopsis()?;
    let mut grid: Option<usize> = None;
    for arg in aggs.iter().filter_map(|a| a.arg.as_ref()) {
        let ScalarExpr::Column(c) = normalize_expr(arg, t.schema()).ok()? else {
            return None;
        };
        let zones = synopsis.column(&c)?;
        // Bool and string columns aggregate through paths the fused
        // numeric kernel does not speak.
        let numeric = matches!(
            t.column(&c).map(|col| col.data_type()),
            Ok(DataType::Int64 | DataType::Float64)
        );
        if zones.source != ZoneSource::Data || !numeric {
            return None;
        }
        grid = Some(grid.map_or(zones.zone_rows, |g| g.min(zones.zone_rows)));
    }
    let pred_grid = pruner.map(|p| p.grid(synopsis));
    Some(
        [grid, pred_grid]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(lawsdb_storage::DEFAULT_ZONE_ROWS),
    )
}

/// Price the zone-aggregate pushdown path for a global aggregate whose
/// input is a base scan (optionally filtered), when [`zone_agg_grid`]
/// finds it eligible.
fn plan_zone_agg(
    catalog: &Catalog,
    input: &PhysicalNode,
    group_by: &[String],
    aggs: &[AggSpec],
) -> Option<ZoneAggPath> {
    let (table, filtered, pruner, access) = match input {
        PhysicalNode::Scan { table, .. } => (table, false, None, None),
        PhysicalNode::Filter { input, pruner, access, .. } => match &**input {
            PhysicalNode::Scan { table, .. } => (table, true, pruner.as_ref(), *access),
            _ => return None,
        },
        _ => return None,
    };
    let t = catalog.get(table).ok()?;
    let grid = zone_agg_grid(&t, pruner, group_by, aggs)?;
    let path = match (filtered, access) {
        // No filter: every unit answers from its materialized partial.
        (false, _) => ZoneAggPath {
            grid,
            zones_pushed: t.row_count().div_ceil(grid.max(1)),
            rows_fused: 0,
        },
        // Pruned filter: accepted rows push, Eval rows run the fused
        // kernel, skipped rows vanish.
        (true, Some(a)) => ZoneAggPath {
            grid,
            zones_pushed: a.rows_accept.div_ceil(grid.max(1)),
            rows_fused: a.rows_eval,
        },
        // Unsargable filter: same grammar, but every unit scans.
        (true, None) => ZoneAggPath { grid, zones_pushed: 0, rows_fused: t.row_count() },
    };
    Some(path)
}

/// Left-deep AND chain over `exprs` (len ≥ 1).
fn and_chain(mut exprs: Vec<ScalarExpr>) -> ScalarExpr {
    let mut it = exprs.drain(..);
    let first = it.next().expect("predicate has at least one conjunct");
    it.fold(first, |acc, e| ScalarExpr::And(Box::new(acc), Box::new(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::ExecOptions;
    use crate::optimize::optimize;
    use crate::plan::LogicalPlan;
    use crate::sql::parse_select;
    use lawsdb_storage::TableBuilder;

    /// 512-row table: `k` increasing (tight zones), `u` uniform noise
    /// (useless zones), zone granularity 64.
    fn zoned_catalog() -> Catalog {
        let catalog = Catalog::new();
        let mut b = TableBuilder::new("t");
        b.add_i64("k", (0..512).collect());
        b.add_f64("u", (0..512).map(|i| ((i * 37) % 100) as f64).collect());
        let mut table = b.build().unwrap();
        table.rebuild_synopsis_with(64);
        catalog.register(table).unwrap();
        catalog
    }

    fn physical_for(catalog: &Catalog, sql: &str) -> PhysicalPlan {
        let stmt = parse_select(sql).unwrap();
        let plan = optimize(&LogicalPlan::from_statement(&stmt).unwrap());
        plan_physical(catalog, &plan, &CostConstants::default())
    }

    fn find_filter(node: &PhysicalNode) -> Option<&PhysicalNode> {
        match node {
            PhysicalNode::Filter { .. } => Some(node),
            PhysicalNode::Scan { .. } | PhysicalNode::EmptyScan { .. } => None,
            PhysicalNode::Join { left, right, .. } => {
                find_filter(left).or_else(|| find_filter(right))
            }
            PhysicalNode::Aggregate { input, .. }
            | PhysicalNode::Project { input, .. }
            | PhysicalNode::Distinct { input, .. }
            | PhysicalNode::Sort { input, .. }
            | PhysicalNode::Limit { input, .. } => find_filter(input),
        }
    }

    #[test]
    fn selective_conjunct_moves_first() {
        let catalog = zoned_catalog();
        // `k < 8` keeps ~8/512 rows; `k < 400` keeps ~400/512. The
        // cost-based order flips them.
        let plan = physical_for(&catalog, "SELECT k FROM t WHERE k < 400 AND k < 8");
        let Some(PhysicalNode::Filter { predicate, reordered, .. }) = find_filter(&plan.root)
        else {
            panic!("no filter in plan");
        };
        assert!(*reordered, "expected conjunct reorder");
        assert_eq!(format!("{predicate}"), "((k < 8) AND (k < 400))");
    }

    #[test]
    fn already_ordered_conjuncts_stay_put() {
        let catalog = zoned_catalog();
        let plan = physical_for(&catalog, "SELECT k FROM t WHERE k < 8 AND k < 400");
        let Some(PhysicalNode::Filter { predicate, reordered, .. }) = find_filter(&plan.root)
        else {
            panic!("no filter in plan");
        };
        assert!(!*reordered);
        assert_eq!(format!("{predicate}"), "((k < 8) AND (k < 400))");
    }

    #[test]
    fn access_plan_counts_skipped_zones() {
        let catalog = zoned_catalog();
        // k < 50 cuts into the first of 8 zones (Eval); the other 7
        // zones have min >= 64 and are refuted outright.
        let plan = physical_for(&catalog, "SELECT k FROM t WHERE k < 50");
        let Some(PhysicalNode::Filter { access, est, .. }) = find_filter(&plan.root) else {
            panic!("no filter in plan");
        };
        let a = access.expect("synopsis present, expected an access plan");
        assert_eq!(a.zones_total(), 8);
        assert_eq!(a.zones_eval, 1);
        assert_eq!(a.zones_skip_data, 7);
        assert_eq!(a.rows_skipped, 448);
        // Cardinality estimate should land near the true 64 rows.
        assert!(est.rows > 32.0 && est.rows < 128.0, "est.rows = {}", est.rows);
    }

    #[test]
    fn pruned_scan_costs_less_than_full_eval() {
        let catalog = zoned_catalog();
        let pruned = physical_for(&catalog, "SELECT k FROM t WHERE k < 50");
        // `u` zones are useless (full-range noise): every zone evals.
        let full = physical_for(&catalog, "SELECT k FROM t WHERE u < 12.0");
        assert!(
            pruned.root_estimate().cost_us < full.root_estimate().cost_us,
            "pruned {} vs full {}",
            pruned.root_estimate().cost_us,
            full.root_estimate().cost_us
        );
    }

    #[test]
    fn explain_annotates_every_line_and_keeps_shape() {
        let catalog = zoned_catalog();
        let plan = physical_for(
            &catalog,
            "SELECT k, COUNT(*) FROM t WHERE k < 50 GROUP BY k ORDER BY k LIMIT 5",
        );
        let text = plan.explain();
        let lines: Vec<&str> = text.lines().map(|l| l.trim_start()).collect();
        assert!(lines[0].starts_with("Limit"));
        assert!(lines[1].starts_with("Sort"));
        assert!(lines[2].starts_with("Aggregate"));
        assert!(lines[3].starts_with("Filter"));
        assert!(lines[4].starts_with("Pruning [k < 50] (exact)"));
        assert!(lines[4].contains("zones[eval=1 accept=0 skip=7]"));
        assert!(lines[5].starts_with("Scan"));
        for (i, line) in lines.iter().enumerate().take(4) {
            assert!(line.contains("est_rows="), "line {i} missing estimate: {line}");
            assert!(line.contains("est_cost="), "line {i} missing estimate: {line}");
        }
    }

    #[test]
    fn zone_aggregate_path_prices_and_annotates_eligible_aggregates() {
        let catalog = zoned_catalog();
        // Unfiltered global aggregate: every zone answers from its
        // materialized partial, the scan is elided entirely.
        let plan = physical_for(&catalog, "SELECT COUNT(*), SUM(k) FROM t");
        let PhysicalNode::Aggregate { zone_agg, est, .. } = &plan.root else {
            panic!("expected Aggregate root, got {:?}", plan.root);
        };
        let z = zone_agg.expect("eligible aggregate gets a zone_agg path");
        assert_eq!(z.zones_pushed, 8);
        assert_eq!(z.rows_fused, 0);
        assert!(plan.explain().contains("zone_agg[push=8 fused_rows=0]"), "{}", plan.explain());
        // 8 constant-time folds price far below a 512-row scan+agg.
        let consts = CostConstants::default();
        assert!(est.cost_us < 512.0 * consts.scan_tuple_us, "cost {}", est.cost_us);

        // Range filter: interior zones push, the boundary zone fuses.
        let plan = physical_for(&catalog, "SELECT SUM(k) FROM t WHERE k < 100");
        let PhysicalNode::Aggregate { zone_agg, .. } = &plan.root else {
            panic!("expected Aggregate root");
        };
        let z = zone_agg.expect("filtered aggregate still eligible");
        assert_eq!(z.zones_pushed, 1, "zone 0 accepted wholesale by k < 100");
        assert_eq!(z.rows_fused, 64, "zone 1 straddles the bound");

        // GROUP BY keeps the scan grammar: no pushdown advertised.
        let plan = physical_for(&catalog, "SELECT k, COUNT(*) FROM t GROUP BY k");
        fn find_agg(n: &PhysicalNode) -> Option<&Option<ZoneAggPath>> {
            match n {
                PhysicalNode::Aggregate { zone_agg, .. } => Some(zone_agg),
                PhysicalNode::Project { input, .. }
                | PhysicalNode::Sort { input, .. }
                | PhysicalNode::Limit { input, .. }
                | PhysicalNode::Distinct { input, .. }
                | PhysicalNode::Filter { input, .. } => find_agg(input),
                _ => None,
            }
        }
        assert_eq!(find_agg(&plan.root), Some(&None));
    }

    #[test]
    fn executor_prunes_with_the_planned_pruner() {
        let catalog = zoned_catalog();
        let plan = physical_for(&catalog, "SELECT k FROM t WHERE k < 8 AND u < 50.0");
        let Some(PhysicalNode::Filter { pruner, access, .. }) = find_filter(&plan.root) else {
            panic!("no filter in plan");
        };
        assert_eq!(pruner.as_ref().map(|p| p.describe()).as_deref(), Some("k < 8 AND u < 50"));
        let a = access.expect("synopsis present, expected an access plan");
        let opts = ExecOptions { threads: 1, morsel_rows: 128, ..ExecOptions::default() };
        let r = crate::exec::execute_physical_with(&catalog, &plan, &opts).unwrap();
        assert_eq!(r.scan_stats.pages_total, a.zones_total());
        assert_eq!(r.scan_stats.pages_pruned_zonemap, a.zones_skip_data);
        let want = (0..8).filter(|i| ((i * 37) % 100) < 50).count();
        assert_eq!(r.table.row_count(), want);
    }

    #[test]
    fn qualified_names_resolve_before_pruning() {
        let catalog = zoned_catalog();
        let plan = physical_for(&catalog, "SELECT k FROM t WHERE t.k < 50");
        let Some(PhysicalNode::Filter { pruner, access, .. }) = find_filter(&plan.root) else {
            panic!("no filter in plan");
        };
        assert_eq!(pruner.as_ref().map(|p| p.describe()).as_deref(), Some("k < 50"));
        assert_eq!(access.map(|a| a.zones_skip_data), Some(7));
    }

    #[test]
    fn unknown_table_degrades_to_zero_estimates() {
        let catalog = Catalog::new();
        let plan = physical_for(&catalog, "SELECT x FROM nope WHERE x > 1");
        assert_eq!(plan.root_estimate().rows, 0.0);
    }
}
