//! Observability overhead: what the tracing/profiling layer costs on
//! the morsel-executor workloads (`BENCH_query.json`'s query set).
//!
//! Two numbers per `(query, rows)` cell, exported as `BENCH_obs.json`:
//!
//! * **no-subscriber** — the cost of instrumentation when nothing is
//!   listening. With no profile context entered, an `event!` site is
//!   one thread-local read (the fields closure is never invoked), so
//!   the per-query cost is bounded analytically:
//!   `disabled_emit_ns × sites / query_ns`, where `sites` counts every
//!   node of the profile tree an instrumented run of the same query
//!   builds. Gate: ≤ 2 %.
//! * **fully instrumented** — measured A/B: plain `execute_with` vs
//!   `run_profiled` (a fresh collector, its context entered on the
//!   calling thread and set in `ExecOptions::profile`), best of
//!   interleaved trials. Gate: ≤ 8 % (advisory in the report; CI warns).
//!
//! The analytic bound is deliberately pessimistic — it charges every
//! *enabled*-run record as if it were a disabled site, although the
//! plain path skips profile points on a `None` check that is cheaper
//! than the thread-local read being priced.

use lawsdb_cluster::{Cluster, ClusterConfig, PartitionScheme};
use lawsdb_obs::{MetricsRegistry, ProfileCollector, QueryProfile};
use lawsdb_query::{execute_with, ExecOptions, QueryResult};
use lawsdb_storage::{Catalog, TableBuilder};
use std::hint::black_box;

use super::morsel;

/// No-subscriber overhead gate, percent (hard gate in CI).
pub const NO_SUBSCRIBER_GATE_PCT: f64 = 2.0;
/// Fully-instrumented overhead gate, percent (advisory).
pub const INSTRUMENTED_GATE_PCT: f64 = 8.0;
/// Fully-instrumented distributed-tracing overhead gate on the healthy
/// scatter-gather p50, percent (hard gate in CI).
pub const CLUSTER_TRACE_GATE_PCT: f64 = 2.0;

/// One measured `(query, rows)` cell.
#[derive(Debug, Clone)]
pub struct ObsPoint {
    /// Query label (see [`morsel::QUERIES`]).
    pub query: String,
    /// Base-table rows.
    pub rows: usize,
    /// Best plain wall time (µs) — no subscriber, no profile.
    pub plain_us: f64,
    /// Best wall time (µs) with an entered profile collector.
    pub instrumented_us: f64,
    /// `(instrumented − plain) / plain`, percent.
    pub instrumented_pct: f64,
    /// Nodes in the profile tree an instrumented run builds.
    pub sites: usize,
    /// Analytic no-subscriber bound: `disabled_emit_ns × sites`
    /// relative to the plain query time, percent.
    pub no_subscriber_pct: f64,
}

/// One cluster-path cell: healthy scatter-gather over hash shards,
/// untraced vs carrying a live profile context through every shard
/// phase (fetch / execute / gather / merge spans plus morsel leaves)
/// and building the finished trace tree.
#[derive(Debug, Clone)]
pub struct ClusterTracePoint {
    /// Shard count (2 replicas each, all healthy).
    pub shards: usize,
    /// Base-table rows.
    pub rows: usize,
    /// Untraced query latency p50, µs.
    pub plain_p50_us: f64,
    /// Fully-traced query latency p50, µs.
    pub traced_p50_us: f64,
    /// `(traced − plain) / plain`, percent.
    pub trace_pct: f64,
}

/// Experiment report.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Worker threads used throughout.
    pub threads: usize,
    /// Rows per morsel used throughout.
    pub morsel_rows: usize,
    /// Timed trials per side; the best is kept.
    pub trials: usize,
    /// Measured cost of one disabled `event!` site, nanoseconds.
    pub disabled_emit_ns: f64,
    /// All measured cells.
    pub points: Vec<ObsPoint>,
    /// Cluster-path distributed-tracing cells.
    pub cluster_points: Vec<ClusterTracePoint>,
}

impl ObsReport {
    /// Largest analytic no-subscriber bound across cells.
    pub fn max_no_subscriber_pct(&self) -> f64 {
        self.points.iter().map(|p| p.no_subscriber_pct).fold(0.0, f64::max)
    }

    /// Largest measured fully-instrumented overhead across cells.
    pub fn max_instrumented_pct(&self) -> f64 {
        self.points.iter().map(|p| p.instrumented_pct).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Whether the hard gate held.
    pub fn within_no_subscriber_gate(&self) -> bool {
        self.max_no_subscriber_pct() <= NO_SUBSCRIBER_GATE_PCT
    }

    /// Whether the advisory gate held.
    pub fn within_instrumented_gate(&self) -> bool {
        self.max_instrumented_pct() <= INSTRUMENTED_GATE_PCT
    }

    /// Largest measured cluster-path tracing overhead across cells.
    pub fn max_cluster_trace_pct(&self) -> f64 {
        self.cluster_points.iter().map(|p| p.trace_pct).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Whether the cluster-path tracing gate held.
    pub fn within_cluster_trace_gate(&self) -> bool {
        self.max_cluster_trace_pct() <= CLUSTER_TRACE_GATE_PCT
    }
}

/// Time `n` disabled `event!` emissions and return ns per site. No
/// context is entered on the calling thread, so each iteration is the
/// production fast path — one thread-local read, fields never built.
fn measure_disabled_emit_ns(n: usize) -> f64 {
    let (_, us) = crate::time_us(|| {
        for i in 0..n {
            lawsdb_obs::event!("bench.obs.probe", i = black_box(i as u64));
        }
    });
    us * 1000.0 / n as f64
}

/// The cluster-path swept query: grouped aggregation over the shard
/// key — the scatter-gather fast path (same shape as
/// `BENCH_cluster.json`'s sweep).
const CLUSTER_SQL: &str =
    "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS m FROM points GROUP BY g ORDER BY g";

/// Measure distributed-tracing overhead on one healthy cluster:
/// alternate untraced and fully-traced queries against the *same*
/// cluster so environmental drift hits both sides alike (the
/// interleaving discipline `BENCH_cluster.json`'s failover gate uses),
/// and compare p50s. The traced side pays the whole bill: a fresh
/// collector, a live context threaded through every shard phase, and
/// the final tree build.
fn cluster_trace_point(rows: usize, shards: usize, iters: usize) -> ClusterTracePoint {
    let mut state = 0x51ed_270b_a35e_c1f3u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = TableBuilder::new("points");
    b.add_i64("g", (0..rows).map(|i| (i % 16) as i64).collect());
    b.add_f64("v", (0..rows).map(|_| next() * 100.0 - 50.0).collect());
    let table = b.build().expect("cluster bench table builds");
    let registry = MetricsRegistry::new();
    let cluster = Cluster::new(
        &table,
        ClusterConfig {
            shards,
            replicas: 2,
            scheme: PartitionScheme::Hash { key: "g".to_string() },
            ..ClusterConfig::default()
        },
        &registry,
    )
    .expect("cluster build");
    let plain_opts = ExecOptions { threads: 1, ..ExecOptions::default() };
    let traced_query = || {
        let collector = ProfileCollector::new();
        let opts = ExecOptions {
            threads: 1,
            profile: Some(collector.context()),
            ..ExecOptions::default()
        };
        cluster.query(CLUSTER_SQL, &opts).expect("traced query");
        black_box(collector.build("query"));
    };
    for _ in 0..3 {
        cluster.query(CLUSTER_SQL, &plain_opts).expect("warm-up query");
        traced_query();
    }
    let mut lat_plain = Vec::with_capacity(iters);
    let mut lat_traced = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (_, us) = crate::time_us(|| cluster.query(CLUSTER_SQL, &plain_opts));
        lat_plain.push(us);
        let (_, us) = crate::time_us(traced_query);
        lat_traced.push(us);
    }
    lat_plain.sort_by(f64::total_cmp);
    lat_traced.sort_by(f64::total_cmp);
    let plain_p50_us = lat_plain[iters / 2];
    let traced_p50_us = lat_traced[iters / 2];
    ClusterTracePoint {
        shards,
        rows,
        plain_p50_us,
        traced_p50_us,
        trace_pct: (traced_p50_us - plain_p50_us) / plain_p50_us * 100.0,
    }
}

/// A fully instrumented run: `execute_with` recording into a fresh
/// profile collector whose context is also entered on this thread (so
/// every `event!` site records), and the tree it built.
fn run_profiled(
    catalog: &Catalog,
    sql: &str,
    opts: &ExecOptions,
) -> (QueryResult, QueryProfile) {
    let collector = ProfileCollector::new();
    let _entered = collector.context().enter();
    let opts = ExecOptions { profile: Some(collector.context()), ..opts.clone() };
    let r = execute_with(catalog, sql, &opts).expect("instrumented");
    (r, collector.build("query"))
}

/// Run the overhead sweep at the given row scales.
pub fn run(row_scales: &[usize]) -> ObsReport {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let morsel_rows = 64 * 1024;
    let trials = 9;
    let disabled_emit_ns = measure_disabled_emit_ns(4_000_000);
    let mut points = Vec::new();
    for &rows in row_scales {
        let catalog = morsel::dataset(rows);
        for (label, sql) in morsel::QUERIES {
            let opts = ExecOptions { threads, morsel_rows, ..ExecOptions::default() };

            // Count what a fully instrumented run records: one
            // profile tree line per node, events included.
            let (probe, profile) = run_profiled(&catalog, sql, &opts);
            let sites = profile.render().lines().count();

            // Same answer on both sides before any timing counts.
            let a = execute_with(&catalog, sql, &opts).expect("plain");
            assert_eq!(a.table.row_count(), probe.table.row_count(), "{label}");
            assert_eq!(a.rows_scanned, probe.rows_scanned, "{label}");

            // Interleave the trials so drift (thermal, scheduler) hits
            // both sides alike; keep the best of each.
            let (mut best_plain, mut best_instr) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..trials {
                let (_, us) = crate::time_us(|| execute_with(&catalog, sql, &opts));
                best_plain = best_plain.min(us);
                let (_, us) = crate::time_us(|| run_profiled(&catalog, sql, &opts));
                best_instr = best_instr.min(us);
            }

            points.push(ObsPoint {
                query: label.to_string(),
                rows,
                plain_us: best_plain,
                instrumented_us: best_instr,
                instrumented_pct: (best_instr - best_plain) / best_plain * 100.0,
                sites,
                no_subscriber_pct: disabled_emit_ns * sites as f64
                    / (best_plain * 1000.0)
                    * 100.0,
            });
        }
    }
    // Cluster path: the largest swept scale, both shard counts the
    // failover sweep uses.
    let cluster_rows = row_scales.iter().copied().max().unwrap_or(100_000);
    let cluster_points =
        [2usize, 4].iter().map(|&s| cluster_trace_point(cluster_rows, s, 31)).collect();
    ObsReport { threads, morsel_rows, trials, disabled_emit_ns, points, cluster_points }
}

/// Print the report as a paper-style table.
pub fn print(r: &ObsReport) {
    println!("=== observability overhead (tracing + per-query profiles) ===");
    println!(
        "threads: {}   morsel size: {} rows   best of {} trials   \
         disabled event!: {:.2} ns/site",
        r.threads, r.morsel_rows, r.trials, r.disabled_emit_ns
    );
    println!("query              rows        plain instrumented   overhead  sites  no-sub");
    for p in &r.points {
        println!(
            "{:<12} {:>10} {:>12} {:>12} {:>9.2}% {:>6} {:>6.3}%",
            p.query,
            p.rows,
            crate::fmt_us(p.plain_us),
            crate::fmt_us(p.instrumented_us),
            p.instrumented_pct,
            p.sites,
            p.no_subscriber_pct
        );
    }
    println!(
        "no-subscriber bound: {:.3}% (gate ≤{NO_SUBSCRIBER_GATE_PCT}%: {})   \
         instrumented: {:.2}% (gate ≤{INSTRUMENTED_GATE_PCT}%: {})",
        r.max_no_subscriber_pct(),
        r.within_no_subscriber_gate(),
        r.max_instrumented_pct(),
        r.within_instrumented_gate()
    );
    println!("\ncluster path (healthy scatter-gather, interleaved plain vs traced):");
    println!("shards        rows    plain p50   traced p50   overhead");
    for p in &r.cluster_points {
        println!(
            "{:<6} {:>11} {:>12} {:>12} {:>9.2}%",
            p.shards,
            p.rows,
            crate::fmt_us(p.plain_p50_us),
            crate::fmt_us(p.traced_p50_us),
            p.trace_pct
        );
    }
    println!(
        "cluster tracing overhead: {:.2}% (gate ≤{CLUSTER_TRACE_GATE_PCT}%: {})",
        r.max_cluster_trace_pct(),
        r.within_cluster_trace_gate()
    );
}

/// Render the report as JSON (hand-rolled: the workspace carries no
/// serialization dependency).
pub fn to_json(r: &ObsReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"observability_overhead\",\n");
    out.push_str(&format!("  \"threads\": {},\n", r.threads));
    out.push_str(&format!("  \"morsel_rows\": {},\n", r.morsel_rows));
    out.push_str(&format!("  \"trials\": {},\n", r.trials));
    out.push_str(&format!("  \"disabled_emit_ns\": {:.3},\n", r.disabled_emit_ns));
    out.push_str(&format!("  \"no_subscriber_gate_pct\": {NO_SUBSCRIBER_GATE_PCT},\n"));
    out.push_str(&format!("  \"instrumented_gate_pct\": {INSTRUMENTED_GATE_PCT},\n"));
    out.push_str(&format!("  \"max_no_subscriber_pct\": {:.4},\n", r.max_no_subscriber_pct()));
    out.push_str(&format!("  \"max_instrumented_pct\": {:.3},\n", r.max_instrumented_pct()));
    out.push_str(&format!(
        "  \"within_no_subscriber_gate\": {},\n",
        r.within_no_subscriber_gate()
    ));
    out.push_str(&format!(
        "  \"within_instrumented_gate\": {},\n",
        r.within_instrumented_gate()
    ));
    out.push_str(&format!("  \"cluster_trace_gate_pct\": {CLUSTER_TRACE_GATE_PCT},\n"));
    out.push_str(&format!(
        "  \"max_cluster_trace_pct\": {:.3},\n",
        r.max_cluster_trace_pct()
    ));
    out.push_str(&format!(
        "  \"within_cluster_trace_gate\": {},\n",
        r.within_cluster_trace_gate()
    ));
    out.push_str("  \"cluster_results\": [\n");
    for (i, p) in r.cluster_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"rows\": {}, \"plain_p50_us\": {:.1}, \
             \"traced_p50_us\": {:.1}, \"trace_pct\": {:.3}}}{}\n",
            p.shards,
            p.rows,
            p.plain_p50_us,
            p.traced_p50_us,
            p.trace_pct,
            if i + 1 == r.cluster_points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"results\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"rows\": {}, \"plain_us\": {:.1}, \
             \"instrumented_us\": {:.1}, \"instrumented_pct\": {:.3}, \
             \"sites\": {}, \"no_subscriber_pct\": {:.4}}}{}\n",
            p.query,
            p.rows,
            p.plain_us,
            p.instrumented_us,
            p.instrumented_pct,
            p.sites,
            p.no_subscriber_pct,
            if i + 1 == r.points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
