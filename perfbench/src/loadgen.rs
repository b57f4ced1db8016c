//! The closed-loop load generator: [`CLIENTS`] analysts, one thread and one
//! in-process connection each, every one waiting for its answer before
//! sending the next request.

use crate::layers::{digest, Digest, SpanRec};
use crate::rng::Rng;
use lawsdb_server::{Client, ClientError, PipeStream, QueryMode, Server, WireResult};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client connections, one thread each. One, although the benchmark was
/// tuned on a 2-vCPU VM: with two clients, concurrent model
/// reconstructions on the two vCPUs made `lofar_model`'s p95 swing
/// between runs (interquartile spread 0.28 of the median over
/// interleaved runs, against 0.05 with one client), beyond any bound a
/// regression check can use.
pub const CLIENTS: usize = 1;

/// `Sample::shape` of an append (reads use their workload's shape index).
pub const APPEND: u8 = u8::MAX;

/// One client's connection and input stream.
pub struct Conn {
    /// Client index, `0..CLIENTS`.
    pub index: usize,
    /// The wire client.
    pub client: Client<PipeStream>,
    /// This client's statement stream.
    pub rng: Rng,
    /// Spans of traced operations, written out when the run ends.
    pub spans: Vec<SpanRec>,
    epoch: Instant,
}

/// An answer checked (exact) or scored (approximate) after the phase,
/// with the table versions the read may have seen (see `lofar`).
pub struct Pending {
    /// Workload-defined statement key.
    pub key: (u8, u32, u8),
    /// Oldest and newest table version the read may have seen.
    pub versions: (u32, u32),
    /// ±bound the engine claimed, on approximate answers.
    pub bound: Option<f64>,
    /// Values per answer row.
    pub width: usize,
    /// The answer, row after row (one allocation: tens of thousands of
    /// answers are held until the phase ends).
    pub values: Vec<f64>,
}

impl Pending {
    /// The answer as rows.
    pub fn rows(&self) -> crate::check::Rows {
        self.values
            .chunks(self.width.max(1))
            .map(<[f64]>::to_vec)
            .collect()
    }
}

/// One measured operation.
pub struct Sample {
    /// Workload shape index, or [`APPEND`].
    pub shape: u8,
    /// Client-observed latency, microseconds.
    pub latency_us: f64,
    /// When the operation completed.
    pub end: Instant,
    /// Errored or refused by admission.
    pub errored: bool,
    /// Answered, but the answer failed its check.
    pub mismatch: bool,
    /// Sent with tracing on.
    pub traced: bool,
    /// True when a captured model answered.
    pub approximate: bool,
    /// `WireResult::service_us`.
    pub service_us: u64,
    /// `WireResult::queue_us`.
    pub queue_us: u64,
    /// Result rows returned.
    pub rows_out: u64,
    /// What the trace tree says, on traced reads.
    pub digest: Option<Box<Digest>>,
    /// An answer to check after the run.
    pub pending: Option<Box<Pending>>,
}

impl Sample {
    /// A sample for an operation that did not go over the wire.
    pub fn local(shape: u8, latency: Duration, errored: bool) -> Sample {
        Sample {
            shape,
            latency_us: latency.as_secs_f64() * 1e6,
            end: Instant::now(),
            errored,
            mismatch: false,
            traced: false,
            approximate: false,
            service_us: 0,
            queue_us: 0,
            rows_out: 0,
            digest: None,
            pending: None,
        }
    }

    /// Client-observed latency.
    pub fn latency(&self) -> Duration {
        Duration::from_secs_f64(self.latency_us / 1e6)
    }
}

/// A read's reply and the sample describing it.
pub struct Reply {
    /// The result, when the read succeeded.
    pub result: Option<WireResult>,
    /// The sample (shape, latency, wire timings, trace digest).
    pub sample: Sample,
}

impl Conn {
    /// Send one read and time it from request to decoded `ResultSet`.
    pub fn read(&mut self, shape: u8, mode: QueryMode, sql: &str, traced: bool) -> Reply {
        let start = Instant::now();
        let result = if traced {
            self.client.query_traced(mode, sql)
        } else {
            self.client.query(mode, sql)
        };
        let latency = start.elapsed();
        let mut sample = Sample::local(shape, latency, result.is_err());
        sample.traced = traced;
        let mut result: Option<WireResult> = result.map_err(log_error).ok();
        if let Some(w) = &mut result {
            sample.approximate = w.approximate;
            sample.service_us = w.service_us;
            sample.queue_us = w.queue_us;
            sample.rows_out = w.table.row_count() as u64;
            if let Some(tree) = w.trace.take() {
                let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
                let op = ((self.index as u64) << 48) | w.query_id;
                sample.digest = Some(Box::new(digest(
                    &tree,
                    op,
                    start_us,
                    sample.latency_us,
                    &mut self.spans,
                )));
            }
        }
        Reply { result, sample }
    }

    /// Keep a span for an operation that did not go over the wire.
    pub fn span(&mut self, op: u64, name: &str, start: Instant, end: Instant) {
        let at = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        // Bit 47 keeps these apart from reads, which carry query ids.
        let op = ((self.index as u64) << 48) | 1 << 47 | op;
        self.spans.push(SpanRec {
            op,
            id: 0,
            parent: None,
            name: name.to_string(),
            start_us: at(start),
            end_us: at(end),
        });
    }
}

fn log_error(e: ClientError) {
    eprintln!("perfbench: read failed: {e}");
}

/// What each workload does for one operation.
pub trait Load: Sync {
    /// Operation `i` of a client. `traced` asks for a trace tree;
    /// `warmup` operations are discarded.
    fn op(&self, conn: &mut Conn, i: u64, traced: bool, warmup: bool) -> Sample;

    /// Run once by the first client before its warm-up.
    fn prime(&self, _conn: &mut Conn) {}
}

/// The samples of the measured phase.
pub struct Phase {
    /// Every completed operation, all clients.
    pub samples: Vec<Sample>,
    /// Spans of traced operations.
    pub spans: Vec<SpanRec>,
    /// Origin of every span's timestamps.
    pub epoch: Instant,
    /// Wall seconds from the first client's start to the last completion.
    pub wall_s: f64,
    /// `VmHWM` when the phase ended (before the benchmark's own checks).
    pub peak_rss_mb: f64,
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `load` closed-loop from [`CLIENTS`] clients: a discarded warm-up
/// of `warmup_s`, then `seconds` measured, on the same connections (so
/// the server's session threads and their allocator arenas are settled
/// before timing starts). In a traced run every second read of a client
/// is traced, so traced and untraced reads share one load and its drift.
pub fn run(
    server: &Arc<Server>,
    load: &dyn Load,
    seed: u64,
    warmup_s: f64,
    seconds: f64,
    trace: bool,
) -> Phase {
    let epoch = Instant::now();
    let barrier = Barrier::new(CLIENTS);
    let per_client: Vec<(Vec<Sample>, Vec<SpanRec>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let client =
                        Client::connect(server.connect()).expect("in-process connect succeeds");
                    let mut conn = Conn {
                        index,
                        client,
                        rng: Rng::stream(seed, 64 + index as u64),
                        spans: Vec::new(),
                        epoch,
                    };
                    if index == 0 {
                        load.prime(&mut conn);
                    }
                    barrier.wait();
                    let mut i = 0u64;
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < warmup_s {
                        load.op(&mut conn, i, false, true);
                        i += 1;
                    }
                    barrier.wait();
                    let mut samples = Vec::new();
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < seconds {
                        samples.push(load.op(&mut conn, i, trace && i % 2 == 1, false));
                        i += 1;
                    }
                    conn.client.close().expect("clean session close");
                    (samples, conn.spans, start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = per_client
        .iter()
        .map(|c| c.2)
        .min()
        .expect("at least one client");
    let last = per_client
        .iter()
        .flat_map(|c| c.0.iter().map(|s| s.end))
        .max()
        .unwrap_or(start);
    let wall_s = last.duration_since(start).as_secs_f64();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (s, sp, _) in per_client {
        samples.extend(s);
        spans.extend(sp);
    }
    Phase {
        samples,
        spans,
        epoch,
        wall_s,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Time `f` once, microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}
