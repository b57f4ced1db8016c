//! Property test for the cost-based planner's soundness claim: the
//! physical plan's choices — per-zone access costing, cost-based
//! conjunct reordering, LIMIT 0 elision — are observationally invisible,
//! and its access-path accounting is what the executor does.
//!
//! On random tables (with NULLs and NaNs), random zone granularities,
//! morsel sizes and thread counts, the physical plan returns exactly
//! the rows and bits of the same plan with every Filter predicate put
//! back in the heuristic optimizer's conjunct order. Reordering is safe
//! because Kleene (SQL 3VL) AND is commutative and associative, and only
//! truth bits ever select rows; this test is the executable form of that
//! argument. When morsels align with zones, the executed pruning and
//! zone-aggregate counters also equal the plan's `zones_skip_data` and
//! `zones_pushed`.

use lawsdb_query::physical::PhysicalNode;
use lawsdb_query::{
    execute_physical_with, optimize::optimize, parse_select, plan_physical, CostConstants,
    ExecOptions, LogicalPlan,
};
use lawsdb_storage::{Catalog, TableBuilder};
use proptest::prelude::*;

/// One generated row: clustered key base, value, null/NaN marker.
type Row = (i64, f64, u8);

fn build_catalog(rows: &[Row], zone_rows: usize) -> Catalog {
    let c = Catalog::new();
    let mut b = TableBuilder::new("t");
    // Sorted keys give zones tight ranges, so access-path costing sees
    // a mix of skipped, accepted and evaluated zones.
    let mut keys: Vec<i64> = rows.iter().map(|r| r.0).collect();
    keys.sort_unstable();
    b.add_i64("k", keys);
    b.add_f64_opt(
        "v",
        rows.iter()
            .map(|r| match r.2 {
                0 => None,
                1 => Some(f64::NAN),
                _ => Some(r.1),
            })
            .collect(),
    );
    let mut t = b.build().unwrap();
    t.rebuild_synopsis_with(zone_rows);
    c.register(t).unwrap();
    c
}

fn queries(thr: f64, key: i64) -> Vec<String> {
    vec![
        // Multi-conjunct shapes where the cost model reorders: a wide
        // key range (low selectivity) ANDed with narrower ones.
        format!("SELECT k, v FROM t WHERE k < {} AND k < {key} AND v > {thr}", key + 40),
        format!("SELECT k, v FROM t WHERE v <= {thr} AND k >= {key} AND k != {}", key + 3),
        format!("SELECT k FROM t WHERE k <= {} AND k = {key}", key + 20),
        // Residual ORs and NaN-aware negation ride along unreordered.
        format!("SELECT k, v FROM t WHERE k > {key} AND (v < {thr} OR v > {})", thr + 5.0),
        format!("SELECT k, v FROM t WHERE NOT (v < {thr}) AND k BETWEEN {key} AND {}", key + 25),
        // Aggregates over reordered filters (fused accumulate path).
        format!(
            "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi \
             FROM t WHERE v > {thr} AND k < {key} AND k >= {}",
            key - 30
        ),
        format!(
            "SELECT k, COUNT(*) AS n FROM t WHERE k < {key} AND v != {thr} \
             GROUP BY k ORDER BY k DESC LIMIT 7"
        ),
        // LIMIT 0 elision: schema must survive, zero rows must come out.
        format!("SELECT k, v FROM t WHERE k < {key} LIMIT 0"),
        "SELECT COUNT(*) AS n FROM t LIMIT 0".to_string(),
    ]
}

/// Put every Filter predicate of `node` back in the order the heuristic
/// plan `logical` (which `node` was planned from) wrote it. Everything
/// else the planner decided stays as planned.
fn heuristic_order(node: &mut PhysicalNode, logical: &LogicalPlan) {
    match (node, logical) {
        (
            PhysicalNode::Filter { input, predicate, .. },
            LogicalPlan::Filter { input: li, predicate: lp },
        ) => {
            *predicate = lp.clone();
            heuristic_order(input, li);
        }
        (PhysicalNode::Join { left, right, .. }, LogicalPlan::Join { left: l, right: r, .. }) => {
            heuristic_order(left, l);
            heuristic_order(right, r);
        }
        (PhysicalNode::Aggregate { input, .. }, LogicalPlan::Aggregate { input: li, .. })
        | (PhysicalNode::Project { input, .. }, LogicalPlan::Project { input: li, .. })
        | (PhysicalNode::Distinct { input, .. }, LogicalPlan::Distinct { input: li })
        | (PhysicalNode::Sort { input, .. }, LogicalPlan::Sort { input: li, .. })
        | (PhysicalNode::Limit { input, .. }, LogicalPlan::Limit { input: li, .. }) => {
            heuristic_order(input, li)
        }
        _ => {}
    }
}

/// The plan's `(zones_skip_data, zones_pushed)` summed over its nodes.
fn planned_zones(node: &PhysicalNode) -> (usize, usize) {
    let (own, inputs): ((usize, usize), Vec<&PhysicalNode>) = match node {
        PhysicalNode::Scan { .. } | PhysicalNode::EmptyScan { .. } => ((0, 0), vec![]),
        PhysicalNode::Join { left, right, .. } => ((0, 0), vec![left, right]),
        PhysicalNode::Filter { input, access, .. } => {
            ((access.map_or(0, |a| a.zones_skip_data), 0), vec![input])
        }
        PhysicalNode::Aggregate { input, zone_agg, .. } => {
            ((0, zone_agg.map_or(0, |z| z.zones_pushed)), vec![input])
        }
        PhysicalNode::Project { input, .. }
        | PhysicalNode::Distinct { input, .. }
        | PhysicalNode::Sort { input, .. }
        | PhysicalNode::Limit { input, .. } => ((0, 0), vec![input]),
    };
    inputs.into_iter().map(planned_zones).fold(own, |(s, p), (s2, p2)| (s + s2, p + p2))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn physical_plan_is_bit_identical_to_heuristic_plan(
        rows in prop::collection::vec((0i64..64, -100.0f64..100.0, 0u8..8), 0..300),
        thr in -90.0f64..90.0,
        key in 0i64..64,
        zone_rows in 1usize..48,
        morsel_rows in 1usize..80,
        par in any::<bool>(),
    ) {
        let catalog = build_catalog(&rows, zone_rows);
        let threads = if par { 4 } else { 1 };
        let opts = ExecOptions { threads, morsel_rows, ..ExecOptions::default() };
        for sql in queries(thr, key) {
            let stmt = parse_select(&sql).unwrap();
            let heuristic = optimize(&LogicalPlan::from_statement(&stmt).unwrap());
            let physical = plan_physical(&catalog, &heuristic, &CostConstants::default());
            let mut reference = physical.clone();
            heuristic_order(&mut reference.root, &heuristic);
            let a = execute_physical_with(&catalog, &physical, &opts).unwrap();
            let b = execute_physical_with(&catalog, &reference, &opts).unwrap();
            // Reordering never changes which zones are pruned (same
            // conjunct set), so even the IO accounting must agree.
            prop_assert_eq!(a.rows_scanned, b.rows_scanned, "rows_scanned: {}", sql);
            prop_assert_eq!(a.scan_stats, b.scan_stats, "scan stats: {}", sql);
            if morsel_rows % zone_rows == 0 {
                let (skip_data, pushed) = planned_zones(&physical.root);
                prop_assert_eq!(
                    a.scan_stats.pages_pruned_zonemap, skip_data, "planned skips: {}", sql
                );
                prop_assert_eq!(
                    a.scan_stats.zones_agg_synopsis, pushed, "planned pushdown: {}", sql
                );
            }
            prop_assert_eq!(a.table.row_count(), b.table.row_count(), "row count: {}", sql);
            prop_assert_eq!(a.table.schema().names(), b.table.schema().names());
            for i in 0..a.table.row_count() {
                // Debug rendering keeps NaN cells comparable (NaN !=
                // NaN under PartialEq, but the bits must match).
                prop_assert_eq!(
                    format!("{:?}", a.table.row(i).unwrap()),
                    format!("{:?}", b.table.row(i).unwrap()),
                    "row {} of {}",
                    i,
                    sql
                );
            }
        }
    }
}
