//! Per-layer attribution from outside the program: each traced read's
//! `TraceNode` tree is folded into a [`Digest`] (plan-operator self
//! times, scan and governor counts, server and cluster phases), and its
//! spans join the benchmark's own span log.

use crate::loadgen::{mean, median, Sample};
use lawsdb_obs::{attribute_layers, TraceNode};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Self time of the `plan.<op>` spans, as `query.self_us.<op>`.
const SELF_US: [&str; 6] = [
    "query.self_us.scan",
    "query.self_us.filter",
    "query.self_us.project",
    "query.self_us.aggregate",
    "query.self_us.sort",
    "query.self_us.limit",
];

/// Cluster phases of `obs::attribute_layers`, as `cluster.<phase>_us`.
const CLUSTER_US: [&str; 4] = [
    "cluster.fetch_us",
    "cluster.execute_us",
    "cluster.gather_us",
    "cluster.merge_us",
];

/// One span: a benchmark operation, a probe, or a node of a server
/// trace (shifted so the server root starts at the client's send time).
#[derive(Clone)]
pub struct SpanRec {
    /// Operation id (client index in the high bits, query id below).
    pub op: u64,
    /// Span id within the operation; 0 is the operation itself.
    pub id: u32,
    /// Parent span id.
    pub parent: Option<u32>,
    /// Span name.
    pub name: String,
    /// Start, microseconds since the run began.
    pub start_us: f64,
    /// End, microseconds since the run began.
    pub end_us: f64,
}

/// What one trace tree says, kept instead of the tree itself (olap trees
/// carry hundreds of zone points each).
#[derive(Default)]
pub struct Digest {
    /// Root span length.
    pub root_us: u64,
    /// Σ of `attribute_layers`.
    pub attributed_us: u64,
    /// Per [`SELF_US`] entry, summed over the tree.
    pub self_us: [u64; SELF_US.len()],
    /// Per [`CLUSTER_US`] entry, from `attribute_layers`.
    pub cluster_us: [u64; CLUSTER_US.len()],
    /// Σ `cluster.shard` span time.
    pub shard_sum_us: u64,
    /// `scan.stats` pages_total.
    pub pages_total: u64,
    /// `scan.stats` pruned_zonemap + pruned_model.
    pub pages_pruned: u64,
    /// `scan.stats` zones_agg_synopsis.
    pub zones_agg: u64,
    /// `governor.summary` rows_admitted, when the governor was armed.
    pub rows_admitted: Option<u64>,
    /// `server.encode` span length and its `bytes` field.
    pub encode: Option<(u64, u64)>,
    /// `server.decode` point's `us` field.
    pub decode_us: Option<u64>,
    /// `resilient.approx` point's `tuples` field.
    pub tuples: Option<u64>,
}

fn field(n: &TraceNode, key: &str) -> u64 {
    n.field(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

/// Fold `tree` into a [`Digest`], appending its spans to `spans` under
/// a `bench.read` span that covers the client-observed latency.
pub fn digest(
    tree: &TraceNode,
    op: u64,
    start_us: f64,
    latency_us: f64,
    spans: &mut Vec<SpanRec>,
) -> Digest {
    let mut d = Digest {
        root_us: tree.duration_us.unwrap_or(0),
        attributed_us: attribute_layers(tree).iter().map(|(_, us)| us).sum(),
        ..Digest::default()
    };
    spans.push(SpanRec {
        op,
        id: 0,
        parent: None,
        name: "bench.read".to_string(),
        start_us,
        end_us: start_us + latency_us,
    });
    let origin = tree.start_us;
    walk(tree, &mut d, op, 0, start_us, origin, spans);
    // Off the cluster, `execute` is the engine's own plan spans.
    if d.shard_sum_us > 0 {
        for (layer, us) in attribute_layers(tree) {
            let metric = format!("cluster.{layer}_us");
            if let Some(i) = CLUSTER_US.iter().position(|m| *m == metric) {
                d.cluster_us[i] = us;
            }
        }
    }
    d
}

fn walk(
    n: &TraceNode,
    d: &mut Digest,
    op: u64,
    parent: u32,
    start_us: f64,
    origin: u64,
    spans: &mut Vec<SpanRec>,
) {
    let mut id = parent;
    if let Some(dur) = n.duration_us {
        let children: u64 = n.children.iter().filter_map(|c| c.duration_us).sum();
        if let Some(op_name) = n.name.strip_prefix("plan.") {
            if let Some(i) = SELF_US
                .iter()
                .position(|m| m.strip_prefix("query.self_us.") == Some(op_name))
            {
                d.self_us[i] += dur.saturating_sub(children);
            }
        }
        match n.name.as_str() {
            "cluster.shard" => d.shard_sum_us += dur,
            "server.encode" => d.encode = Some((dur, field(n, "bytes"))),
            _ => {}
        }
        id = spans.len() as u32 + 1;
        let at = start_us + n.start_us.saturating_sub(origin) as f64;
        spans.push(SpanRec {
            op,
            id,
            parent: Some(parent),
            name: n.name.clone(),
            start_us: at,
            end_us: at + dur as f64,
        });
    } else {
        match n.name.as_str() {
            "scan.stats" => {
                d.pages_total += field(n, "pages_total");
                d.pages_pruned += field(n, "pruned_zonemap") + field(n, "pruned_model");
                d.zones_agg += field(n, "zones_agg_synopsis");
            }
            "governor.summary" => {
                *d.rows_admitted.get_or_insert(0) += field(n, "rows_admitted");
            }
            "server.decode" => d.decode_us = Some(field(n, "us")),
            "resilient.approx" => d.tuples = Some(field(n, "tuples")),
            _ => {}
        }
    }
    for c in &n.children {
        walk(c, d, op, id, start_us, origin, spans);
    }
}

/// Per-layer metrics every workload reports from its traced phase:
/// server timings, plan-operator self times, scan counts, cluster
/// phases and trace coverage.
pub fn from_phase(samples: &[Sample], out: &mut BTreeMap<&'static str, f64>) {
    let reads: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.shape != crate::loadgen::APPEND)
        .collect();
    let plain: Vec<&Sample> = reads
        .iter()
        .copied()
        .filter(|s| !s.traced && !s.errored)
        .collect();
    let traced: Vec<&Sample> = reads
        .iter()
        .copied()
        .filter(|s| s.traced && !s.errored)
        .collect();
    let digests: Vec<&Digest> = traced.iter().filter_map(|s| s.digest.as_deref()).collect();
    let n = digests.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Digest) -> u64| digests.iter().map(|d| f(d)).sum::<u64>() as f64;

    let queue: Vec<f64> = plain.iter().map(|s| s.queue_us as f64).collect();
    let service: Vec<f64> = plain.iter().map(|s| s.service_us as f64).collect();
    let wire: Vec<f64> = plain
        .iter()
        .map(|s| s.latency_us - (s.service_us + s.queue_us) as f64)
        .collect();
    // A mean: the server clock counts whole microseconds, and the queue
    // wait of one client is almost always the same one or two.
    out.insert("server.queue_us_mean", mean(&queue));
    out.insert("server.service_us_p50", median(&service));
    out.insert("server.wire_us_p50", median(&wire));
    let encode: Vec<f64> = digests
        .iter()
        .filter_map(|d| d.encode)
        .map(|e| e.0 as f64)
        .collect();
    let bytes: Vec<f64> = digests
        .iter()
        .filter_map(|d| d.encode)
        .map(|e| e.1 as f64)
        .collect();
    let decode: Vec<f64> = digests
        .iter()
        .filter_map(|d| d.decode_us)
        .map(|u| u as f64)
        .collect();
    out.insert("server.encode_us", mean(&encode));
    out.insert("server.decode_us", mean(&decode));
    out.insert("server.result_bytes_mean", mean(&bytes));

    for (i, name) in SELF_US.into_iter().enumerate() {
        out.insert(name, sum(&|d| d.self_us[i]) / n);
    }
    let pages = sum(&|d| d.pages_total);
    out.insert("query.pages_total", pages / n);
    out.insert(
        "query.pages_pruned_frac",
        if pages > 0.0 {
            sum(&|d| d.pages_pruned) / pages
        } else {
            0.0
        },
    );
    out.insert("query.zones_agg_synopsis", sum(&|d| d.zones_agg) / n);
    let governed: Vec<(u64, u64)> = traced
        .iter()
        .filter_map(|s| {
            s.digest
                .as_ref()
                .and_then(|d| d.rows_admitted)
                .map(|a| (a, s.rows_out))
        })
        .collect();
    let rows_out: u64 = governed.iter().map(|g| g.1).sum();
    out.insert(
        "query.rows_admitted_per_row_out",
        if rows_out > 0 {
            governed.iter().map(|g| g.0).sum::<u64>() as f64 / rows_out as f64
        } else {
            0.0
        },
    );
    let tuples: Vec<f64> = digests
        .iter()
        .filter_map(|d| d.tuples)
        .map(|t| t as f64)
        .collect();
    out.insert("approx.tuples_per_read", mean(&tuples));

    for (i, name) in CLUSTER_US.into_iter().enumerate() {
        out.insert(name, sum(&|d| d.cluster_us[i]) / n);
    }
    let shard_ratio: Vec<f64> = digests
        .iter()
        .filter(|d| d.shard_sum_us > 0 && d.root_us > 0)
        .map(|d| d.shard_sum_us as f64 / d.root_us as f64)
        .collect();
    out.insert("cluster.shard_sum_over_wall", median(&shard_ratio));

    let untraced_p50 = median(&plain.iter().map(|s| s.latency_us).collect::<Vec<_>>());
    let traced_p50 = median(&traced.iter().map(|s| s.latency_us).collect::<Vec<_>>());
    out.insert(
        "obs.trace_overhead_frac",
        if untraced_p50 > 0.0 {
            traced_p50 / untraced_p50 - 1.0
        } else {
            0.0
        },
    );
    let root = sum(&|d| d.root_us);
    out.insert(
        "obs.unattributed_frac",
        if root > 0.0 {
            1.0 - sum(&|d| d.attributed_us) / root
        } else {
            0.0
        },
    );
}

/// Write `spans` as JSON lines to `path`.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
            s.op,
            s.id,
            parent,
            s.name.replace(['"', '\\'], "_"),
            s.start_us,
            s.end_us
        )?;
    }
    w.flush()
}
