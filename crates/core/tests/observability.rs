//! End-to-end acceptance for the unified observability layer: one
//! resilient query under full instrumentation produces a single
//! `QueryProfile` tree containing morsel timings, pruning decisions per
//! zone source, governor charges, storage retry/quarantine events
//! recorded under the query's entered context, and the degradation
//! reason — and a `MockClock` run of the same query is byte-identical
//! across executions.

use lawsdb_core::{DurableDb, LawsDb};
use lawsdb_fit::FitOptions as RawFitOptions;
use lawsdb_obs::{FieldValue, MockClock, ProfileCollector};
use lawsdb_query::governor::ResourceBudget;
use lawsdb_query::ExecOptions;
use lawsdb_storage::fault::{FaultMode, FaultSchedule, FaultyDevice};
use lawsdb_storage::retry::{RetryPolicy, RetryingDevice};
use lawsdb_storage::{BlockDevice, SimulatedDevice, TableBuilder};
use std::sync::Arc;

/// An engine over `t(x, y = 2x)` with a captured linear model whose
/// `prediction ± residual` zones replace `y`'s data zones, budgeted so
/// the governor is armed on every query.
fn zoned_engine(n: usize, exec: ExecOptions) -> LawsDb {
    let mut b = TableBuilder::new("t");
    b.add_f64("x", (0..n).map(|i| i as f64).collect());
    b.add_f64("y", (0..n).map(|i| 2.0 * i as f64).collect());
    let db = LawsDb::new().with_exec_options(ExecOptions {
        budget: ResourceBudget { max_rows: Some(10 * n), ..ResourceBudget::default() },
        ..exec
    });
    db.register_table(b.build().expect("table builds")).expect("registers");
    db.capture_model("t", "y ~ a + b * x", None, &RawFitOptions::default())
        .expect("perfect linear law passes the quality gate");
    db
}

/// The paper-shaped range query: `x`'s *data* zones refute the low
/// ranges, `y`'s *model* zones refute the high ones, and the middle
/// zone needs per-row evaluation.
const SQL: &str = "SELECT y FROM t WHERE x >= 15000 AND y <= 32000";

#[test]
fn resilient_query_profile_unifies_every_signal() {
    let db = zoned_engine(20_000, ExecOptions::default());
    let collector = ProfileCollector::new();

    // Storage-layer trouble under the query's entered context: a
    // transient read fault that retries to recovery, and a
    // checksum-failed page that gets quarantined. Both land in the
    // profile as root points.
    let scope = collector.context().enter();
    {
        let mut inner = SimulatedDevice::new(64);
        let p = inner.allocate();
        inner.write_page(p, b"payload").expect("writes");
        let d = RetryingDevice::new(
            FaultyDevice::new(inner, FaultSchedule::crash_at(0, FaultMode::Transient, 7)),
            RetryPolicy::default_reads(),
        );
        d.read_page_owned(p).expect("transient fault recovers within budget");
    }
    {
        let mut b = TableBuilder::new("measurements");
        b.add_f64("v", vec![1.0, 2.0, 3.0]);
        let t = b.build().expect("builds");
        let mut ddb = DurableDb::new(SimulatedDevice::new(256));
        ddb.recover().expect("fresh device recovers");
        ddb.store_table(&t).expect("stores");
        let (start, _) = ddb.column_pages("measurements", 0).expect("pages");
        let mut dev = ddb.into_device();
        dev.poke_page(start).expect("page exists")[0] ^= 0xFF;
        let mut ddb = DurableDb::new(dev);
        ddb.recover().expect("recovers");
        assert!(ddb.read_table("measurements").is_err(), "corruption detected");
    }

    let r = db.query_resilient_collected(SQL, &collector).expect("query runs");
    drop(scope);

    assert!(!r.answer.is_approximate(), "range query degrades to exact");
    let p = r.profile.expect("collected run attaches a profile");
    assert_eq!(p.root.name, "query");

    // (1) The degradation decision, with its reason.
    let degrades = p.find("resilient.degrade");
    assert_eq!(degrades.len(), 1);
    assert_eq!(
        degrades[0].field("reason").and_then(FieldValue::as_str),
        Some("no_model")
    );

    // (2) Plan-node spans with per-morsel timing leaves under them.
    assert!(!p.find("plan.filter").is_empty(), "{p}");
    let morsels = p.find("morsel");
    assert!(!morsels.is_empty());
    assert!(morsels.iter().all(|m| m.field("duration_us").is_some()));

    // (3) Pruning decisions attributed per zone source: x's data zones
    // refute the low ranges, y's model zones the high ones.
    let decisions: Vec<&str> = p
        .find("zone")
        .iter()
        .filter_map(|z| z.field("decision").and_then(FieldValue::as_str))
        .collect();
    assert!(decisions.contains(&"skip_zonemap"), "{decisions:?}");
    assert!(decisions.contains(&"skip_model"), "{decisions:?}");
    assert!(decisions.contains(&"eval"), "{decisions:?}");

    // (4) Governor charges and the end-of-query summary.
    let charges = p.find("governor.rows");
    assert_eq!(charges.len(), 1);
    assert_eq!(charges[0].field("rows").and_then(FieldValue::as_u64), Some(20_000));
    let summary = p.find("governor.summary");
    assert_eq!(summary.len(), 1);
    assert_eq!(
        summary[0].field("rows_admitted").and_then(FieldValue::as_u64),
        Some(20_000)
    );

    // (5) Storage events from far below the executor.
    assert!(!p.find("storage.retry.attempt").is_empty(), "{p}");
    assert!(!p.find("storage.retry.recovered").is_empty(), "{p}");
    assert!(!p.find("storage.page.quarantine").is_empty(), "{p}");

    // The rendered tree carries all of it in one printable artifact.
    let text = p.render();
    for needle in [
        "resilient.degrade",
        "plan.filter",
        "morsel #",
        "skip_zonemap",
        "skip_model",
        "governor.rows",
        "storage.page.quarantine",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn mock_clock_profiles_are_byte_identical() {
    let run = || {
        let db = zoned_engine(
            20_000,
            ExecOptions { threads: 1, morsel_rows: 8192, ..ExecOptions::default() },
        );
        let collector = ProfileCollector::with_clock(Arc::new(MockClock::new(3)));
        let r = db.query_resilient_collected(SQL, &collector).expect("query runs");
        r.profile.expect("profile attached").render()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same query, same clock, same tree — byte for byte");
    assert!(a.contains("morsel #"), "{a}");
}

#[test]
fn engine_metrics_registry_sees_health_and_pruning() {
    let db = zoned_engine(20_000, ExecOptions::default());
    let r = db.query_resilient(SQL).expect("runs");
    assert!(!r.answer.is_approximate());

    let snap = db.metrics().snapshot();
    // Health counters are registry counters now.
    assert_eq!(snap.counter("lawsdb_core_exact_fallbacks"), 1);
    assert_eq!(snap.counter("lawsdb_core_approx_answers"), 0);
    // The engine-wide pruning counters saw the same zones the per-query
    // ScanStats reported.
    let exact = match &r.answer {
        lawsdb_core::Answer::Exact(q) => q,
        lawsdb_core::Answer::Approx(_) => unreachable!(),
    };
    assert!(exact.scan_stats.pages_pruned_model > 0);
    assert_eq!(
        snap.counter("lawsdb_query_pages_pruned_model"),
        exact.scan_stats.pages_pruned_model as u64
    );
    assert_eq!(
        snap.counter("lawsdb_query_pages_total"),
        exact.scan_stats.pages_total as u64
    );

    // Both exposition formats render the same counters.
    let prom = db.stats_prometheus();
    assert!(prom.contains("lawsdb_core_exact_fallbacks 1"), "{prom}");
    assert!(prom.contains("# TYPE lawsdb_query_pages_total counter"), "{prom}");
    let json = db.stats_json();
    assert!(json.contains("\"lawsdb_core_exact_fallbacks\":1"), "{json}");
}

#[test]
fn model_answer_records_resilient_approx() {
    // Noise-free per-source power laws: the grouped model passes the
    // quality gate and the freshness guard, so the ladder answers from
    // it and says so in the profile.
    let freqs = [0.12, 0.15, 0.16, 0.18];
    let laws = [(2.0, -0.7), (0.5, -1.2)];
    let (mut src, mut nu, mut intensity) = (Vec::new(), Vec::new(), Vec::new());
    for (s, &(p, a)) in laws.iter().enumerate() {
        for i in 0..40 {
            let f: f64 = freqs[i % 4];
            src.push(s as i64);
            nu.push(f);
            intensity.push(p * f.powf(a));
        }
    }
    let mut b = TableBuilder::new("measurements");
    b.add_i64("source", src);
    b.add_f64("nu", nu);
    b.add_f64("intensity", intensity);
    let db = LawsDb::new();
    db.register_table(b.build().expect("builds")).expect("registers");
    let model = db
        .capture_model(
            "measurements",
            "intensity ~ p * nu ^ alpha",
            Some("source"),
            &RawFitOptions::default(),
        )
        .expect("captures");

    let collector = ProfileCollector::with_clock(Arc::new(MockClock::new(1)));
    let r = db
        .query_resilient_collected(
            "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15",
            &collector,
        )
        .expect("query runs");
    assert!(r.answer.is_approximate());
    let p = r.profile.expect("profile attached");
    let approx = p.find("resilient.approx");
    assert_eq!(approx.len(), 1, "{p}");
    assert_eq!(approx[0].field("model").and_then(FieldValue::as_u64), Some(model.id.0));
    assert!(p.find("resilient.degrade").is_empty(), "{p}");
}
