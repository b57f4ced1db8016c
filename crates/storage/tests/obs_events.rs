//! `storage::fault`, `storage::retry` and the WAL emit structured
//! events, so resilience tests can assert on the event stream instead
//! of side-channel counters. Each test enters its own profile context
//! and reads the events back from that collector's tree, in the order
//! they fired.

use lawsdb_obs::{FieldValue, MockClock, ProfileCollector, ProfileTreeNode};
use lawsdb_storage::fault::{FaultMode, FaultSchedule, FaultyDevice};
use lawsdb_storage::io::{BlockDevice, SimulatedDevice};
use lawsdb_storage::retry::{RetryPolicy, RetryingDevice};
use lawsdb_storage::wal::DurableStore;
use lawsdb_storage::TableBuilder;
use std::sync::{Arc, Mutex, PoisonError};

/// Guards the `global_metrics` delta assertion: the registry is
/// process-wide, so every test whose read recovers through a retry
/// holds it.
static LOCK: Mutex<()> = Mutex::new(());

fn faulty(schedule: FaultSchedule) -> FaultyDevice {
    let mut inner = SimulatedDevice::new(128);
    let p = inner.allocate();
    inner.write_page(p, b"payload").unwrap();
    FaultyDevice::new(inner, schedule)
}

/// Run `work` under a fresh collector's context and return the events
/// it recorded, in firing order.
fn events_of(work: impl FnOnce()) -> Vec<ProfileTreeNode> {
    let collector = ProfileCollector::with_clock(Arc::new(MockClock::new(1)));
    {
        let _in = collector.context().enter();
        work();
    }
    collector.build("test").root.children
}

fn named<'a>(events: &'a [ProfileTreeNode], name: &str) -> Vec<(usize, &'a ProfileTreeNode)> {
    events.iter().enumerate().filter(|(_, e)| e.name == name).collect()
}

#[test]
fn fault_lifecycle_is_on_the_event_stream() {
    let events = events_of(|| {
        let d = faulty(FaultSchedule::crash_at(0, FaultMode::IoError, 99));
        assert!(d.read_page_owned(0).is_err());
    });

    let armed = named(&events, "storage.fault.armed");
    assert_eq!(armed.len(), 1);
    let (armed_at, armed) = armed[0];
    assert_eq!(armed.field("op").and_then(FieldValue::as_u64), Some(0));
    assert_eq!(armed.field("mode").and_then(FieldValue::as_str), Some("io_error"));
    assert_eq!(armed.field("seed").and_then(FieldValue::as_u64), Some(99));

    let fired = named(&events, "storage.fault.fired");
    assert_eq!(fired.len(), 1);
    let (fired_at, fired) = fired[0];
    assert_eq!(fired.field("mode").and_then(FieldValue::as_str), Some("io_error"));
    assert_eq!(fired.field("crashes"), Some(&FieldValue::Bool(true)));
    // Armed strictly precedes fired.
    assert!(armed_at < fired_at);
}

#[test]
fn retry_recovery_emits_attempt_then_recovered() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let events = events_of(|| {
        let d = RetryingDevice::new(
            faulty(FaultSchedule::crash_at(0, FaultMode::Transient, 1234)),
            RetryPolicy::default_reads(),
        );
        d.read_page_owned(0).expect("transient run is within the retry budget");
    });

    let attempts = named(&events, "storage.retry.attempt");
    assert!(!attempts.is_empty(), "at least one backoff was scheduled");
    // Backoff doubles from the policy base and is attached per attempt.
    assert_eq!(
        attempts[0].1.field("backoff_us").and_then(FieldValue::as_u64),
        Some(RetryPolicy::default_reads().base_delay_us)
    );
    let recovered = named(&events, "storage.retry.recovered");
    assert_eq!(recovered.len(), 1);
    let (recovered_at, recovered) = recovered[0];
    let total_attempts = recovered.field("attempts").and_then(FieldValue::as_u64).unwrap();
    assert_eq!(total_attempts, attempts.len() as u64 + 1);
    // The fault fired exactly once, before any retry succeeded.
    let fired = named(&events, "storage.fault.fired");
    assert_eq!(fired.len(), 1);
    assert!(fired[0].0 < recovered_at);
}

#[test]
fn retry_exhaustion_is_a_terminal_event() {
    let events = events_of(|| {
        let d = RetryingDevice::new(
            faulty(FaultSchedule::crash_at(0, FaultMode::IoError, 7)),
            RetryPolicy::default_reads(),
        );
        assert!(d.read_page_owned(0).is_err());
    });

    let attempts = named(&events, "storage.retry.attempt").len();
    assert_eq!(attempts as u32, RetryPolicy::default_reads().max_attempts - 1);
    let exhausted = named(&events, "storage.retry.exhausted");
    assert_eq!(exhausted.len(), 1);
    assert_eq!(
        exhausted[0].1.field("attempts").and_then(FieldValue::as_u64),
        Some(u64::from(RetryPolicy::default_reads().max_attempts))
    );
    assert!(named(&events, "storage.retry.recovered").is_empty());
}

#[test]
fn wal_recovery_and_commits_are_on_the_event_stream() {
    let events = events_of(|| {
        let mut b = TableBuilder::new("t");
        b.add_f64("v", vec![1.0, 2.0, 3.0]);
        let t = b.build().unwrap();
        let mut store = DurableStore::new(SimulatedDevice::new(256), 8);
        store.recover().expect("a fresh device formats");
        store.store_table(&t).expect("stores");
    });

    let recovered = named(&events, "storage.wal.recovered");
    assert_eq!(recovered.len(), 1);
    let (recovered_at, recovered) = recovered[0];
    assert_eq!(recovered.field("formatted"), Some(&FieldValue::Bool(true)));
    let commits = named(&events, "storage.wal.commit");
    assert!(!commits.is_empty());
    assert!(commits.iter().all(|(at, _)| *at > recovered_at), "recovery precedes commits");
    let seqs: Vec<u64> =
        commits.iter().filter_map(|(_, c)| c.field("seq").and_then(FieldValue::as_u64)).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "commit seqs increase: {seqs:?}");
}

#[test]
fn no_context_means_no_events_but_counters_still_count() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // A collector that is never entered sees nothing, even while this
    // thread's storage work fires events.
    let bystander = ProfileCollector::with_clock(Arc::new(MockClock::new(1)));
    let before = lawsdb_obs::global_metrics()
        .snapshot()
        .counter("lawsdb_storage_retry_recovered");
    let d = RetryingDevice::new(
        faulty(FaultSchedule::crash_at(0, FaultMode::Transient, 1234)),
        RetryPolicy::default_reads(),
    );
    d.read_page_owned(0).expect("recovers");
    let after = lawsdb_obs::global_metrics()
        .snapshot()
        .counter("lawsdb_storage_retry_recovered");
    assert_eq!(after - before, 1, "registry counters are always on");
    assert!(bystander.build("test").root.children.is_empty());
}
