//! The fit layer's quality judgments are on the event stream: every
//! `FitDiagnostics::compute` emits one `fit.diagnostics` event carrying
//! the paper's Table 1 columns into the calling thread's profile
//! context.

use lawsdb_fit::diagnostics::FitDiagnostics;
use lawsdb_obs::{FieldValue, MockClock, ProfileCollector};
use std::sync::Arc;

#[test]
fn every_judged_fit_emits_a_diagnostics_event() {
    let collector = ProfileCollector::with_clock(Arc::new(MockClock::new(1)));
    let names = vec!["b0".to_string(), "b1".to_string()];
    let d = {
        let _in = collector.context().enter();
        FitDiagnostics::compute(5, &names, &[0.0, 1.0], 0.05, 10.0, None)
    };

    let profile = collector.build("fit");
    let diag = profile.find("fit.diagnostics");
    assert_eq!(diag.len(), 1);
    assert_eq!(diag[0].field("n").and_then(FieldValue::as_u64), Some(5));
    assert_eq!(diag[0].field("p").and_then(FieldValue::as_u64), Some(2));
    let r2 = match diag[0].field("r2") {
        Some(FieldValue::F64(v)) => *v,
        other => panic!("r2 should be an f64 field, got {other:?}"),
    };
    assert_eq!(r2, d.r2);
    assert!(diag[0].field("residual_se").is_some());
    assert!(diag[0].field("f_stat").is_some());
}

#[test]
fn no_context_means_compute_is_silent_and_cheap() {
    let bystander = ProfileCollector::with_clock(Arc::new(MockClock::new(1)));
    let names = vec!["k".to_string()];
    // No context is entered on this thread: nothing is recorded.
    let d = FitDiagnostics::compute(10, &names, &[2.0], 1.0, 100.0, None);
    assert!(d.is_acceptable(0.9, 0.05));
    assert!(bystander.build("fit").find("fit.diagnostics").is_empty());
}
