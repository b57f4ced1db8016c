//! The LawsDB benchmark: real clients drive the whole stack — `Client`
//! → protocol → `server` admission → `core` → `query`/`approx`/`cluster`
//! → `storage` — through one of four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload olap_exact --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` runs with every second read traced and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. A readable
//! summary goes to standard error. See `perfbench/README.md`.

mod check;
mod events;
mod layers;
mod loadgen;
mod lofar;
mod rng;

use lawsdb_obs::RegistrySnapshot;
use lawsdb_server::Server;
use lawsdb_storage::{Table, TableBuilder};
use loadgen::{median, percentile, time_us, Load, Phase, APPEND};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics, printed by `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("throughput_ops", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1`: (name, unit). A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("server.queue_us_mean", "us"),
    ("server.service_us_p50", "us"),
    ("server.wire_us_p50", "us"),
    ("server.encode_us", "us"),
    ("server.decode_us", "us"),
    ("server.result_bytes_mean", "bytes"),
    ("query.plan_miss_us", "us"),
    ("query.plan_hit_us", "us"),
    ("query.plan_cache_hit_frac", "frac"),
    ("query.exec_us.range_scan", "us"),
    ("query.exec_us.global_agg", "us"),
    ("query.exec_us.filter_agg", "us"),
    ("query.exec_us.topk", "us"),
    ("query.exec_us.window_groupby", "us"),
    ("query.self_us.scan", "us"),
    ("query.self_us.filter", "us"),
    ("query.self_us.project", "us"),
    ("query.self_us.aggregate", "us"),
    ("query.self_us.sort", "us"),
    ("query.self_us.limit", "us"),
    ("query.pages_total", "count"),
    ("query.pages_pruned_frac", "frac"),
    ("query.zones_agg_synopsis", "count"),
    ("query.rows_admitted_per_row_out", "ratio"),
    ("approx.answer_us.point", "us"),
    ("approx.answer_us.source_avg", "us"),
    ("approx.answer_us.q2", "us"),
    ("approx.tuples_per_read", "count"),
    ("model_answer_frac", "frac"),
    ("bound_coverage", "frac"),
    ("approx_rel_err_p50", "frac"),
    ("append_p50_ms", "ms"),
    ("core.guard_us", "us"),
    ("core.append_us", "us"),
    ("core.stale_demotions", "count"),
    ("core.exact_fallbacks", "count"),
    ("storage.clone_us", "us"),
    ("storage.append_rows_us", "us"),
    ("storage.build_s", "s"),
    ("storage.table_bytes", "bytes"),
    ("fit.capture_s", "s"),
    ("cluster.fetch_us", "us"),
    ("cluster.execute_us", "us"),
    ("cluster.gather_us", "us"),
    ("cluster.merge_us", "us"),
    ("cluster.shard_sum_over_wall", "ratio"),
    ("cluster.fetch_ops_per_query", "count"),
    ("cluster.query_us", "us"),
    ("cluster.failovers", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.unattributed_frac", "frac"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact OLAP mix on one engine.
    OlapExact,
    /// LOFAR reads answered from the captured law.
    LofarModel,
    /// LOFAR reads with appends beside them.
    LofarAppend,
    /// Scatter-gather over hash shards.
    ClusterScatter,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OlapExact,
        Workload::LofarModel,
        Workload::LofarAppend,
        Workload::ClusterScatter,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapExact => "olap_exact",
            Workload::LofarModel => "lofar_model",
            Workload::LofarAppend => "lofar_append",
            Workload::ClusterScatter => "cluster_scatter",
        }
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `olap_exact` table rows.
    pub events_rows: usize,
    /// `cluster_scatter` table rows.
    pub cluster_rows: usize,
    /// LOFAR sources (≈ 40.7 rows each).
    pub lofar_sources: usize,
    /// Rows in a `range_scan` window.
    pub range_rows: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        events_rows: 1_000_000,
        cluster_rows: 200_000,
        lofar_sources: 10_000,
        range_rows: 2_000,
    };

    /// A `window_groupby` window: 10% of the table.
    pub fn window_rows(&self) -> usize {
        self.events_rows / 10
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Shift the reference answers of one statement shape, so correct
    /// engine answers fail the check (the smoke test's proof that
    /// mismatches are counted).
    pub plant_wrong: bool,
}

/// A run's outcome.
pub struct Report {
    /// Operations in the measured phase.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed their check.
    pub failed: u64,
    /// Answers that failed their check.
    pub mismatches: u64,
    /// Reads in the measured phase (latency sample count).
    pub reads: usize,
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    spans: Vec<layers::SpanRec>,
    epoch: Instant,
}

impl Report {
    /// Counts, and the metrics of the mode: end-to-end ones from an
    /// untraced phase, the phase-derived per-layer ones from a traced one
    /// (workloads add their probes).
    pub fn new(cfg: &Config, phase: &Phase, setup_s: f64) -> Report {
        let mismatches = phase.samples.iter().filter(|s| s.mismatch).count() as u64;
        let errors = phase.samples.iter().filter(|s| s.errored).count() as u64;
        let reads: Vec<f64> = phase
            .samples
            .iter()
            .filter(|s| s.shape != APPEND && !s.traced)
            .map(|s| s.latency_us / 1e3)
            .collect();
        let mut metrics = BTreeMap::new();
        if cfg.trace {
            for (name, _) in PER_LAYER {
                metrics.insert(name, 0.0);
            }
            layers::from_phase(&phase.samples, &mut metrics);
        } else {
            metrics.insert("read_p50_ms", median(&reads));
            metrics.insert("read_p95_ms", percentile(&reads, 0.95));
            metrics.insert("throughput_ops", phase.samples.len() as f64 / phase.wall_s);
            metrics.insert("setup_s", setup_s);
            metrics.insert("peak_rss_mb", phase.peak_rss_mb);
        }
        Report {
            attempted: phase.samples.len() as u64,
            failed: mismatches + errors,
            mismatches,
            reads: reads.len(),
            metrics,
            spans: phase.spans.clone(),
            epoch: phase.epoch,
        }
    }

    /// Time one probe call into a layer, keeping it as a `probe.<name>`
    /// span.
    pub fn probe<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let at = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(layers::SpanRec {
            op: PROBE_OP | self.spans.len() as u64,
            id: 0,
            parent: None,
            name: format!("probe.{name}"),
            start_us: at(start),
            end_us: at(end),
        });
        (out, (end - start).as_secs_f64() * 1e6)
    }
}

/// Operation-id prefix of probe spans (reads carry the client index).
const PROBE_OP: u64 = 0xFFFF << 48;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Run `setup` [`SETUPS`] times (each result dropped before the next
/// starts); keep the last and return the median seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (t, us) = time_us(&mut setup);
        times.push(us / 1e6);
        last = Some(t);
    }
    (last.expect("at least one setup"), median(&times))
}

/// The warm-up (discarded), then the measured phase.
pub fn measure(cfg: &Config, server: &Arc<Server>, load: &dyn Load) -> Phase {
    let warmup_s = (cfg.seconds * 0.1).clamp(0.2, 1.0);
    loadgen::run(server, load, cfg.seed, warmup_s, cfg.seconds, cfg.trace)
}

/// `query.plan_cache_hit_frac` over the measured phase.
pub fn plan_cache_frac(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let (hit, miss) = (
        delta("lawsdb_query_plan_cache_hit"),
        delta("lawsdb_query_plan_cache_miss"),
    );
    m.insert(
        "query.plan_cache_hit_frac",
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        },
    );
}

/// `storage.*`: timed `Table::clone`, `Table::append_rows` of 256 rows
/// on the copy, `TableBuilder::build` of the same columns, and
/// `Table::byte_size`.
pub fn storage_probes(table: &Table, r: &mut Report) {
    let batch = table
        .slice(0, 256.min(table.row_count()))
        .expect("in range");
    let mut clone = Vec::new();
    let mut append = Vec::new();
    let mut build = Vec::new();
    for _ in 0..5 {
        let (mut copy, us) = r.probe("Table::clone", || table.clone());
        clone.push(us);
        append.push(
            r.probe("Table::append_rows", || {
                copy.append_rows(batch.columns()).expect("same schema")
            })
            .1,
        );
        drop(copy);
        let mut builder = TableBuilder::new(table.name());
        for (field, column) in table.schema().fields().iter().zip(table.columns()) {
            builder.add_column(field.clone(), column.clone());
        }
        build.push(
            r.probe("TableBuilder::build", || {
                builder.build().expect("same columns")
            })
            .1 / 1e6,
        );
    }
    let m = &mut r.metrics;
    m.insert("storage.clone_us", median(&clone));
    m.insert("storage.append_rows_us", median(&append));
    m.insert("storage.build_s", median(&build));
    m.insert("storage.table_bytes", table.byte_size() as f64);
}

/// Run one workload.
pub fn run(cfg: &Config) -> Report {
    match cfg.workload {
        Workload::OlapExact => events::run_olap(cfg),
        Workload::LofarModel => lofar::run(cfg, false),
        Workload::LofarAppend => lofar::run(cfg, true),
        Workload::ClusterScatter => events::run_cluster(cfg),
    }
}

/// The result line.
fn to_json(cfg: &Config, r: &Report) -> String {
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = r.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.mismatches == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

const USAGE: &str =
    "usage: perfbench --workload <olap_exact|lofar_model|lofar_append|cluster_scatter> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::OlapExact,
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: Scale::FULL,
        plant_wrong: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    eprintln!(
        "perfbench {} seed={} seconds={} trace={}: {} ops ({} reads timed), {} failed, {} wrong answers",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        report.attempted,
        report.reads,
        report.failed,
        report.mismatches
    );
    for (name, value) in &report.metrics {
        eprintln!("  {name:<34} {value:.6}");
    }
    if cfg.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        match layers::write_spans(&path, &report.spans) {
            Ok(()) => eprintln!(
                "  spans: {} written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("  spans: not written ({e})"),
        }
    }
    println!("{}", to_json(&cfg, &report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        events_rows: 40_000,
        cluster_rows: 16_000,
        lofar_sources: 200,
        range_rows: 500,
    };

    fn tiny(workload: Workload, trace: bool, plant_wrong: bool) -> Config {
        Config {
            workload,
            seed: 7,
            seconds: 0.4,
            trace,
            scale: TINY,
            plant_wrong,
        }
    }

    /// Every metric is printed with its unit, and `BENCHMARK.json`
    /// declares the same names and units.
    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let manifest = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        for w in Workload::ALL {
            assert!(
                manifest.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
            for trace in [false, true] {
                let cfg = tiny(w, trace, false);
                let r = run(&cfg);
                assert!(r.attempted > 0, "{}: no operations", w.name());
                assert_eq!(
                    r.failed,
                    0,
                    "{} trace={trace}: failures on a correct engine",
                    w.name()
                );
                let line = to_json(&cfg, &r);
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, unit) in table {
                    let printed = format!("\"{name}\": {{\"value\": ");
                    assert!(line.contains(&printed), "{} lacks {name}", w.name());
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                    let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                    assert!(
                        manifest.contains(&declared),
                        "BENCHMARK.json lacks {declared}"
                    );
                }
                if !trace {
                    for (name, _) in END_TO_END {
                        assert!(r.metrics[name] > 0.0, "{}: {name} is 0", w.name());
                    }
                }
            }
        }
    }

    /// A planted wrong reference answer is counted as a failure.
    #[test]
    fn planted_wrong_answer_counts_as_failed() {
        for w in [
            Workload::OlapExact,
            Workload::ClusterScatter,
            Workload::LofarAppend,
        ] {
            let r = run(&tiny(w, false, true));
            assert!(
                r.mismatches > 0 && r.failed >= r.mismatches,
                "{}: planted mismatch not counted",
                w.name()
            );
            assert!(!to_json(&tiny(w, false, true), &r).starts_with("{\"correct\": true"));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cfg = parse(&args(
            "--workload lofar_append --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
            (Workload::LofarAppend, 9, 3.0, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload olap_exact --trace 2")).is_err());
    }
}
