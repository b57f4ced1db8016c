//! LawsDB observability substrate: structured tracing, a metrics
//! registry, and per-query execution profiles.
//!
//! Dependency-free by design — this crate sits below `lawsdb-storage`
//! in the build graph so every layer (pager, WAL, retry, morsel
//! executor, governor, pruning, fit diagnostics, resilience ladder)
//! reports through the same pipe. Three pillars:
//!
//! - [`trace`]: the `event!` macro and typed [`FieldValue`]s. An event
//!   is a point in the calling thread's current [`ProfileContext`]
//!   (see [`ProfileContext::enter`]); with none entered, an emit site
//!   is one thread-local read and builds no fields.
//! - [`metrics`]: named counters/gauges/histograms with sharded atomics
//!   and Prometheus-text + JSON exposition.
//! - [`profile`]: `EXPLAIN ANALYZE`-style [`QueryProfile`] trees
//!   assembled from executor spans, morsel leaves, pruning decisions,
//!   governor charges, and storage/fit events recorded under an entered
//!   context, timed by a mockable [`Clock`].
//!
//! See DESIGN.md §12 for the span taxonomy and metric naming scheme
//! (`lawsdb_<crate>_<name>`).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod clock;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod trace;

pub use clock::{Clock, MockClock, MonotonicClock};
pub use metrics::{
    global as global_metrics, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, RegistrySnapshot,
};
pub use profile::{
    EnteredContext, ProfileCollector, ProfileContext, ProfileSpan, ProfileTreeNode, QueryProfile,
};
pub use record::{
    attribute_layers, dominant_layer, FlightRecord, FlightRecorder, RecorderConfig,
    TraceNode, LAYERS,
};
pub use trace::FieldValue;
