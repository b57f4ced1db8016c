//! Cost-based adaptive optimizer: kernel throughput and plan choice.
//!
//! Two measurements, exported together as `BENCH_optimizer.json`
//! (`report -- bench-optimizer`):
//!
//! * **kernel** — throughput of the branch-free word-at-a-time
//!   comparison kernel (`ScalarExpr::eval_mask` over a dense and a
//!   NULL-laden column), the hot loop every filter and fused aggregate
//!   runs through.
//! * **policy** — a query sweep over a LOFAR-shaped database with a
//!   captured per-source power law, timing three policies per query:
//!   `always-exact` (base-table scan), `always-model` (model
//!   reconstruction, falling back to exact when no model covers the
//!   query), and the engine's cost-based `adaptive` choice
//!   ([`lawsdb_core::LawsDb::query_adaptive_with`]). The report carries a
//!   win rate and a geomean latency per static policy; the CI smoke
//!   gate is [`OptimizerReport::within_gate`] — the optimizer must not
//!   lose more than [`GATE_PCT`]% (geomean) to the *best* static
//!   policy, i.e. adapting must cost at most noise.

use lawsdb_core::{Answer, LawsDb};
use lawsdb_expr::ast::CmpOp;
use lawsdb_fit::FitOptions;
use lawsdb_query::ScalarExpr;
use lawsdb_storage::TableBuilder;

/// Maximum geomean regression (percent) of the adaptive policy against
/// the best static policy before `bench-optimizer` fails the build.
pub const GATE_PCT: f64 = 5.0;

/// One kernel microbench cell.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// Comparison operator benched.
    pub op: String,
    /// `dense` (no NULLs) or `nullable` (1/8 NULL lanes).
    pub lanes: String,
    /// Rows evaluated per call.
    pub rows: usize,
    /// Best-of-5 wall time per `eval_mask` call (µs).
    pub best_us: f64,
    /// Throughput in millions of rows per second.
    pub mrows_per_s: f64,
}

/// One plan-choice cell: the same query under all three policies.
#[derive(Debug, Clone)]
pub struct PolicyPoint {
    /// Query shape label.
    pub kind: String,
    /// The benchmarked SQL.
    pub sql: String,
    /// Best-of-5 wall time, cost-based adaptive choice (µs).
    pub adaptive_us: f64,
    /// Best-of-5 wall time, always-exact policy (µs).
    pub exact_us: f64,
    /// Best-of-5 wall time, always-model policy (µs; includes the
    /// exact fallback when no model covers the query).
    pub model_us: f64,
    /// Which path the adaptive policy picked.
    pub chose_model: bool,
}

/// Experiment report.
#[derive(Debug, Clone)]
pub struct OptimizerReport {
    /// Base-table rows in the policy sweep.
    pub rows: usize,
    /// Kernel microbench cells.
    pub kernel: Vec<KernelPoint>,
    /// Plan-choice cells.
    pub policy: Vec<PolicyPoint>,
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.max(1e-9).ln(), n + 1));
    if n == 0 { 0.0 } else { (sum / n as f64).exp() }
}

impl OptimizerReport {
    /// Fraction of queries where adaptive at least ties always-exact
    /// (within [`GATE_PCT`]% noise allowance).
    pub fn win_rate_vs_exact(&self) -> f64 {
        win_rate(self.policy.iter().map(|p| (p.adaptive_us, p.exact_us)))
    }

    /// Fraction of queries where adaptive at least ties always-model.
    pub fn win_rate_vs_model(&self) -> f64 {
        win_rate(self.policy.iter().map(|p| (p.adaptive_us, p.model_us)))
    }

    /// Geomean latency (µs) of the adaptive policy.
    pub fn geomean_adaptive_us(&self) -> f64 {
        geomean(self.policy.iter().map(|p| p.adaptive_us))
    }

    /// Geomean latency (µs) of the always-exact policy.
    pub fn geomean_exact_us(&self) -> f64 {
        geomean(self.policy.iter().map(|p| p.exact_us))
    }

    /// Geomean latency (µs) of the always-model policy.
    pub fn geomean_model_us(&self) -> f64 {
        geomean(self.policy.iter().map(|p| p.model_us))
    }

    /// The smoke gate: adaptive geomean latency must be within
    /// [`GATE_PCT`]% of the best static policy's.
    pub fn within_gate(&self) -> bool {
        let best = self.geomean_exact_us().min(self.geomean_model_us());
        self.geomean_adaptive_us() <= best * (1.0 + GATE_PCT / 100.0)
    }
}

fn win_rate(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (wins, n) = pairs.fold((0usize, 0usize), |(w, n), (a, b)| {
        (w + usize::from(a <= b * (1.0 + GATE_PCT / 100.0)), n + 1)
    });
    if n == 0 { 0.0 } else { wins as f64 / n as f64 }
}

fn best_of_5(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let ((), us) = crate::time_us(&mut f);
        best = best.min(us);
    }
    best
}

/// Kernel microbench: `eval_mask` over `rows` f64 lanes, per operator,
/// dense and with 1/8 NULL lanes.
fn kernel_sweep(rows: usize) -> Vec<KernelPoint> {
    let mut b = TableBuilder::new("lanes");
    b.add_f64("dense", (0..rows).map(|i| (i % 1000) as f64).collect());
    b.add_f64_opt(
        "nullable",
        (0..rows)
            .map(|i| if i % 8 == 0 { None } else { Some((i % 1000) as f64) })
            .collect(),
    );
    let t = b.build().expect("build");
    let mut out = Vec::new();
    for (op, name) in [(CmpOp::Lt, "<"), (CmpOp::Eq, "="), (CmpOp::Ge, ">=")] {
        for lanes in ["dense", "nullable"] {
            let expr = ScalarExpr::Cmp(
                op,
                Box::new(ScalarExpr::Column(lanes.to_string())),
                Box::new(ScalarExpr::Number(500.0)),
            );
            // Warm once (identity/NaN handling is covered by unit
            // tests; here only the steady state matters).
            let mask = expr.eval_mask(&t).expect("eval");
            assert!(mask.len() == rows);
            let best_us = best_of_5(|| {
                std::hint::black_box(expr.eval_mask(&t).expect("eval"));
            });
            out.push(KernelPoint {
                op: name.to_string(),
                lanes: lanes.to_string(),
                rows,
                best_us,
                mrows_per_s: rows as f64 / best_us,
            });
        }
    }
    out
}

/// LOFAR-shaped database with sources interleaved round-robin — the
/// adversarial layout for zone maps (every zone spans the full key
/// range, so nothing prunes) and therefore the regime where the model
/// path's zero-IO answer can actually beat the vectorized scan. A
/// per-source power law over `intensity` is captured.
pub fn interleaved_dataset(sources: usize, rounds: usize) -> LawsDb {
    let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
    let mut src = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for i in 0..sources * rounds {
        let s = i % sources;
        let f = freqs[(i / sources) % 4];
        let p = 0.5 + 4.5 * (s as f64 / sources.max(1) as f64);
        src.push(s as i64);
        nu.push(f);
        intensity.push(p * f.powf(-0.7));
    }
    let mut b = TableBuilder::new("measurements");
    b.add_i64("source", src);
    b.add_f64("nu", nu);
    b.add_f64("intensity", intensity);
    let db = LawsDb::new();
    db.register_table(b.build().expect("build")).expect("register");
    db.capture_model(
        "measurements",
        "intensity ~ p * nu ^ alpha",
        Some("source"),
        &FitOptions::default(),
    )
    .expect("capture");
    db
}

/// The policy-sweep query set over the `measurements` fixture.
fn sweep_queries(sources: usize) -> Vec<(String, String)> {
    let mid = (sources / 2).max(1);
    vec![
        // Point lookups: the model path reconstructs one tuple with
        // zero IO; exact scans the source's observations.
        ("point".into(), format!(
            "SELECT intensity FROM measurements WHERE source = {mid} AND nu = 0.15"
        )),
        ("point".into(), "SELECT intensity FROM measurements \
             WHERE source = 1 AND nu = 0.18".into()),
        // Aggregates: no model covers them, so always-model pays a
        // failed attempt before scanning anyway.
        ("agg".into(), "SELECT COUNT(*) AS n, AVG(intensity) AS m \
             FROM measurements WHERE nu = 0.15".into()),
        ("agg".into(), "SELECT COUNT(*) AS n FROM measurements \
             WHERE intensity > 1000".into()),
        // Selective tail scan over model-backed zones.
        ("tail".into(), "SELECT source, intensity FROM measurements \
             WHERE intensity > 20 AND nu = 0.12".into()),
        // LIMIT 0: the planner elides the scan entirely.
        ("limit0".into(), "SELECT source, intensity FROM measurements \
             WHERE nu = 0.15 LIMIT 0".into()),
    ]
}

/// Run the sweep: kernel microbench at `kernel_rows` lanes, plan-choice
/// sweep over a `sources × rounds`-row model-covered database.
pub fn run(kernel_rows: usize, sources: usize, rounds: usize) -> OptimizerReport {
    let kernel = kernel_sweep(kernel_rows);

    let obs = rounds;
    let db = interleaved_dataset(sources, rounds);
    let mut policy = Vec::new();
    for (kind, sql) in sweep_queries(sources) {
        // Warm the plan cache so every policy sees steady state.
        let a = db.query_adaptive_with(&sql, &db.exec).expect("adaptive");
        let chose_model = matches!(a, Answer::Approx(_));
        let adaptive_us = best_of_5(|| {
            std::hint::black_box(db.query_adaptive_with(&sql, &db.exec).expect("adaptive"));
        });
        let exact_us = best_of_5(|| {
            std::hint::black_box(db.query(&sql).expect("exact"));
        });
        let model_us = best_of_5(|| match db.query_approx(&sql) {
            Ok(ans) => {
                std::hint::black_box(ans);
            }
            // A forced-model policy's only recourse: scan after all.
            Err(_) => {
                std::hint::black_box(db.query(&sql).expect("exact fallback"));
            }
        });
        policy.push(PolicyPoint { kind, sql, adaptive_us, exact_us, model_us, chose_model });
    }

    OptimizerReport { rows: sources * obs, kernel, policy }
}

/// Print the report as a paper-style table.
pub fn print(r: &OptimizerReport) {
    println!("=== cost-based adaptive optimizer ===");
    println!("-- comparison kernel ({} rows/call) --", r.kernel.first().map_or(0, |k| k.rows));
    println!("op  lanes       best      Mrows/s");
    for k in &r.kernel {
        println!(
            "{:<3} {:<9} {:>9} {:>9.0}",
            k.op,
            k.lanes,
            crate::fmt_us(k.best_us),
            k.mrows_per_s
        );
    }
    println!("-- plan choice ({} rows) --", r.rows);
    println!("kind     adaptive      exact      model  chose");
    for p in &r.policy {
        println!(
            "{:<7} {:>9} {:>10} {:>10}  {}",
            p.kind,
            crate::fmt_us(p.adaptive_us),
            crate::fmt_us(p.exact_us),
            crate::fmt_us(p.model_us),
            if p.chose_model { "model" } else { "exact" },
        );
    }
    println!(
        "win rate vs always-exact: {:.0}%   vs always-model: {:.0}%",
        r.win_rate_vs_exact() * 100.0,
        r.win_rate_vs_model() * 100.0
    );
    println!(
        "geomean latency: adaptive {} | exact {} | model {}",
        crate::fmt_us(r.geomean_adaptive_us()),
        crate::fmt_us(r.geomean_exact_us()),
        crate::fmt_us(r.geomean_model_us())
    );
}

/// Render the report as JSON (hand-rolled: the workspace carries no
/// serialization dependency).
pub fn to_json(r: &OptimizerReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"optimizer\",\n");
    out.push_str(&format!("  \"rows\": {},\n", r.rows));
    out.push_str(&format!("  \"win_rate_vs_exact\": {:.4},\n", r.win_rate_vs_exact()));
    out.push_str(&format!("  \"win_rate_vs_model\": {:.4},\n", r.win_rate_vs_model()));
    out.push_str(&format!("  \"geomean_adaptive_us\": {:.2},\n", r.geomean_adaptive_us()));
    out.push_str(&format!("  \"geomean_exact_us\": {:.2},\n", r.geomean_exact_us()));
    out.push_str(&format!("  \"geomean_model_us\": {:.2},\n", r.geomean_model_us()));
    out.push_str("  \"kernel\": [\n");
    for (i, k) in r.kernel.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"lanes\": \"{}\", \"rows\": {}, \
             \"best_us\": {:.2}, \"mrows_per_s\": {:.1}}}{}\n",
            k.op,
            k.lanes,
            k.rows,
            k.best_us,
            k.mrows_per_s,
            if i + 1 == r.kernel.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"policy\": [\n");
    for (i, p) in r.policy.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"adaptive_us\": {:.1}, \"exact_us\": {:.1}, \
             \"model_us\": {:.1}, \"chose_model\": {}}}{}\n",
            p.kind,
            p.adaptive_us,
            p.exact_us,
            p.model_us,
            p.chose_model,
            if i + 1 == r.policy.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_the_optimizer_adapts() {
        let r = run(100_000, 200, 200);
        assert_eq!(r.kernel.len(), 6);
        for k in &r.kernel {
            assert!(k.best_us > 0.0 && k.mrows_per_s > 0.0, "{k:?}");
        }
        assert_eq!(r.policy.len(), 6);
        for p in &r.policy {
            assert!(p.adaptive_us > 0.0 && p.exact_us > 0.0 && p.model_us > 0.0, "{p:?}");
        }
        // The optimizer must actually use both paths across the sweep:
        // model for point lookups, exact where no model applies.
        assert!(r.policy.iter().any(|p| p.chose_model), "never chose the model path");
        assert!(r.policy.iter().any(|p| !p.chose_model), "never chose the exact path");
        let json = to_json(&r);
        assert!(json.contains("\"win_rate_vs_exact\""));
        assert!(json.contains("\"geomean_adaptive_us\""));
    }
}
