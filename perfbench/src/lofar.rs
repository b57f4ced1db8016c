//! The LOFAR workloads: reads answered from the captured law
//! `intensity ~ p * nu ^ alpha` (`lofar_model`), and the same reads with
//! appends of new observations beside them (`lofar_append`).
//!
//! Appends change the exact answer while a read is in flight, so answers
//! are checked after the measured phase: each read records the oldest
//! and newest table version it may have seen, and an exact answer must
//! equal the reference answer at one of them. Approximate answers are
//! scored, not checked: against the exact answer at the version they saw.

use crate::check::{evaluate, plant_wrong, same_rows, Agg, Cmp, Data, Output, Pred, Query, Rows};
use crate::loadgen::{median, time_us, Conn, Load, Pending, Sample, APPEND};
use crate::rng::Rng;
use crate::{measure, storage_probes, timed_setup, Config, Report};
use lawsdb_core::LawsDb;
use lawsdb_data::lofar::{SourceTruth, PAPER_FREQUENCIES};
use lawsdb_data::{LofarConfig, LofarDataset};
use lawsdb_fit::FitOptions;
use lawsdb_server::{QueryMode, Server, ServerConfig};
use lawsdb_storage::Column;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Read shapes, in `Pending::key.0` order.
pub const SHAPES: [&str; 3] = ["point", "source_avg", "q2"];
const POINT: u8 = 0;
const SOURCE_AVG: u8 = 1;
const Q2: u8 = 2;

/// Rows per append batch.
const BATCH_ROWS: usize = 256;
/// Each client appends once per this many reads.
const READS_PER_APPEND: u64 = 9;

const TABLE: &str = "measurements";
const FORMULA: &str = "intensity ~ p * nu ^ alpha";

fn sql(shape: u8, source: u32, band: u8) -> String {
    let nu = PAPER_FREQUENCIES[band as usize];
    match shape {
        POINT => format!("SELECT intensity FROM {TABLE} WHERE source = {source} AND nu = {nu}"),
        SOURCE_AVG => format!("SELECT AVG(intensity) AS m FROM {TABLE} WHERE source = {source}"),
        _ => format!(
            "SELECT source, intensity FROM {TABLE} WHERE nu = {nu} AND intensity > 3 \
             ORDER BY intensity DESC LIMIT 5"
        ),
    }
}

/// The reference data: the table at setup plus every applied batch, with
/// a per-source row index (the `source = s` conjunct's candidate rows).
struct Reference {
    data: Data,
    base_rows: usize,
    by_source: Vec<Vec<usize>>,
    cache: HashMap<((u8, u32, u8), u32), Rows>,
    plant: bool,
}

impl Reference {
    fn new(mut data: Data, batches: &[[Vec<f64>; 3]], sources: usize, plant: bool) -> Reference {
        let base_rows = data.rows();
        for b in batches {
            data.append(b);
        }
        let mut by_source = vec![Vec::new(); sources];
        for (row, &s) in data.column(data.col("source")).iter().enumerate() {
            by_source[s as usize].push(row);
        }
        Reference {
            data,
            base_rows,
            by_source,
            cache: HashMap::new(),
            plant,
        }
    }

    /// The exact answer to `key` at table `version` (batches applied).
    fn exact(&mut self, key: (u8, u32, u8), version: u32) -> &Rows {
        let limit = self.base_rows + version as usize * BATCH_ROWS;
        let (d, by_source, plant) = (&self.data, &self.by_source, self.plant);
        self.cache.entry((key, version)).or_insert_with(|| {
            let (shape, source, band) = key;
            let [src, nu, intensity] = ["source", "nu", "intensity"].map(|c| d.col(c));
            let nu_eq = Pred {
                col: nu,
                cmp: Cmp::Eq,
                value: PAPER_FREQUENCIES[band as usize],
            };
            let src_eq = Pred {
                col: src,
                cmp: Cmp::Eq,
                value: source as f64,
            };
            let own = by_source[source as usize]
                .iter()
                .copied()
                .take_while(|&r| r < limit);
            let mut rows = match shape {
                POINT => evaluate(
                    d,
                    own,
                    &Query {
                        filter: vec![src_eq, nu_eq],
                        output: Output::Columns(vec![intensity]),
                        order_desc: None,
                        limit: None,
                    },
                ),
                SOURCE_AVG => evaluate(
                    d,
                    own,
                    &Query {
                        filter: vec![src_eq],
                        output: Output::Aggregate {
                            group: None,
                            aggs: vec![Agg::Avg(intensity)],
                        },
                        order_desc: None,
                        limit: None,
                    },
                ),
                _ => evaluate(
                    d,
                    0..limit,
                    &Query {
                        filter: vec![
                            nu_eq,
                            Pred {
                                col: intensity,
                                cmp: Cmp::Gt,
                                value: 3.0,
                            },
                        ],
                        output: Output::Columns(vec![src, intensity]),
                        order_desc: Some(1),
                        limit: Some(5),
                    },
                ),
            };
            if plant && shape == Q2 {
                plant_wrong(&mut rows);
            }
            rows
        })
    }

    /// The exact mean intensity of one (source, band) cell — what a
    /// reconstructed tuple estimates.
    fn cell_mean(&mut self, source: u32, band: u8, version: u32) -> Option<f64> {
        let rows = self.exact((POINT, source, band), version);
        (!rows.is_empty()).then(|| rows.iter().map(|r| r[0]).sum::<f64>() / rows.len() as f64)
    }
}

/// The LOFAR closed loop.
struct Lofar {
    db: Arc<LawsDb>,
    sources: u32,
    truth: Vec<SourceTruth>,
    /// Sources that follow the law; appends observe only these.
    lawful: Vec<usize>,
    noise_rel: f64,
    seed: u64,
    appends: bool,
    /// Applied batches, in order; the lock serializes writers.
    batches: Mutex<Vec<[Vec<f64>; 3]>>,
    /// Appends begun / completed: a read sees a version in between.
    started: AtomicU32,
    done: AtomicU32,
}

impl Lofar {
    /// Batch `k`: new observations of lawful sources at the paper's
    /// bands, drawn from their ground-truth law with the generator's
    /// relative noise.
    fn batch(&self, k: usize) -> [Vec<f64>; 3] {
        let mut rng = Rng::stream(self.seed, 1_000 + k as u64);
        let mut cols: [Vec<f64>; 3] = Default::default();
        for _ in 0..BATCH_ROWS {
            let t = &self.truth[self.lawful[rng.below(self.lawful.len())]];
            let nu = PAPER_FREQUENCIES[rng.below(PAPER_FREQUENCIES.len())];
            let clean = t.p * nu.powf(t.alpha);
            cols[0].push(t.source as f64);
            cols[1].push(nu);
            cols[2].push((clean * (1.0 + self.noise_rel * rng.normal())).max(0.0));
        }
        cols
    }

    fn columns(batch: &[Vec<f64>; 3]) -> [Column; 3] {
        [
            Column::from_i64(batch[0].iter().map(|&s| s as i64).collect()),
            Column::from_f64(batch[1].clone()),
            Column::from_f64(batch[2].clone()),
        ]
    }

    /// One append through the engine's public API. Writers take the
    /// benchmark's lock: `LawsDb::append_rows` replaces the table with
    /// an extended copy, and two unsynchronized appends lose one batch.
    fn append(&self) -> Sample {
        let mut batches = self.batches.lock().expect("writer lock is never poisoned");
        let batch = self.batch(batches.len());
        let cols = Self::columns(&batch);
        self.started.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        let result = self.db.append_rows(TABLE, &cols);
        let latency = start.elapsed();
        if result.is_ok() {
            batches.push(batch);
            self.done.fetch_add(1, Ordering::SeqCst);
        } else {
            self.started.fetch_sub(1, Ordering::SeqCst);
        }
        Sample::local(APPEND, latency, result.is_err())
    }

    fn draw(&self, rng: &mut Rng) -> (u8, u32, u8) {
        let shape = match rng.below(10) {
            0..=6 => POINT,
            7 | 8 => SOURCE_AVG,
            _ => Q2,
        };
        let source = rng.below(self.sources as usize) as u32;
        (shape, source, rng.below(PAPER_FREQUENCIES.len()) as u8)
    }
}

impl Load for Lofar {
    fn op(&self, conn: &mut Conn, i: u64, traced: bool, warmup: bool) -> Sample {
        // Warm-up only reads, so the model is live when timing starts.
        if self.appends && !warmup && i % (READS_PER_APPEND + 1) == READS_PER_APPEND {
            let sample = self.append();
            if traced {
                conn.span(i, "bench.append", sample.end - sample.latency(), sample.end);
            }
            return sample;
        }
        let key = self.draw(&mut conn.rng);
        let oldest = self.done.load(Ordering::SeqCst);
        let reply = conn.read(
            key.0,
            QueryMode::Resilient,
            &sql(key.0, key.1, key.2),
            traced,
        );
        let newest = self.started.load(Ordering::SeqCst);
        let mut sample = reply.sample;
        if let (Some(w), false) = (reply.result, warmup) {
            sample.pending = Some(Box::new(Pending {
                key,
                versions: (oldest, newest),
                bound: if w.approximate { w.error_bound } else { None },
                width: w.table.columns().len(),
                values: crate::check::rows_of(&w.table).concat(),
            }));
        }
        sample
    }
}

/// Check exact answers and score approximate ones; returns
/// (model_answer_frac, bound_coverage, approx_rel_err_p50).
fn check(reference: &mut Reference, samples: &mut [Sample]) -> (f64, f64, f64) {
    let (mut reads, mut approx, mut covered) = (0usize, 0usize, 0usize);
    let mut rel_errs = Vec::new();
    for s in samples.iter_mut() {
        let Some(p) = &s.pending else { continue };
        let rows = p.rows();
        reads += 1;
        let (shape, source, band) = p.key;
        let (oldest, newest) = p.versions;
        if !s.approximate {
            s.mismatch = !(oldest..=newest).any(|v| same_rows(&rows, reference.exact(p.key, v)));
            continue;
        }
        approx += 1;
        // Pair every answered value with the exact value it estimates.
        let pairs: Option<Vec<(f64, f64)>> = match shape {
            POINT | SOURCE_AVG if rows.len() != 1 || rows[0].len() != 1 => None,
            POINT => reference
                .cell_mean(source, band, oldest)
                .map(|e| vec![(rows[0][0], e)]),
            SOURCE_AVG => reference
                .exact(p.key, oldest)
                .first()
                .map(|r| vec![(rows[0][0], r[0])]),
            _ => rows
                .iter()
                .map(|r| match r.as_slice() {
                    [src, value] if (*src as u32) < reference.by_source.len() as u32 => reference
                        .cell_mean(*src as u32, band, oldest)
                        .map(|e| (*value, e)),
                    _ => None,
                })
                .collect(),
        };
        let Some(pairs) = pairs else {
            s.mismatch = true;
            continue;
        };
        let within = p
            .bound
            .is_some_and(|b| pairs.iter().all(|(a, e)| (a - e).abs() <= b));
        covered += within as usize;
        let rel = pairs
            .iter()
            .map(|(a, e)| (a - e).abs() / e.abs().max(f64::MIN_POSITIVE))
            .fold(0.0, f64::max);
        rel_errs.push(rel);
    }
    let frac = |n: usize, d: usize| if d > 0 { n as f64 / d as f64 } else { 0.0 };
    (
        frac(approx, reads),
        frac(covered, approx),
        median(&rel_errs),
    )
}

/// `lofar_model` (`appends == false`) and `lofar_append`.
pub fn run(cfg: &Config, appends: bool) -> Report {
    let mut capture_s = Vec::new();
    let lofar_cfg = LofarConfig {
        seed: cfg.seed,
        ..LofarConfig::with_sources(cfg.scale.lofar_sources)
    };
    let ((db, server, truth), setup_s) = timed_setup(|| {
        let LofarDataset { table, truth, .. } = LofarDataset::generate(&lofar_cfg);
        let mut db = LawsDb::new();
        // The generator's noisy spectra (and its 1% anomalous sources)
        // pool to R² ≈ 0.4, below the default gate of 0.8; the paper's
        // law is still the right model, as in the repository's own
        // LOFAR experiments, which lower the gate the same way.
        db.quality.min_r2 = 0.0;
        db.register_table(table).expect("fresh catalog");
        let options = FitOptions::default().with_initial("alpha", -0.7);
        let (model, us) = time_us(|| db.capture_model(TABLE, FORMULA, Some("source"), &options));
        model.expect("the LOFAR law is captured");
        capture_s.push(us / 1e6);
        let db = Arc::new(db);
        let server = Server::new(Arc::clone(&db), ServerConfig::default());
        (db, server, truth)
    });
    let base = Data::from_table(&db.table(TABLE).expect("registered"));
    let lawful = truth
        .iter()
        .enumerate()
        .filter(|(_, t)| t.anomaly.is_none())
        .map(|(i, _)| i)
        .collect();
    let load = Lofar {
        db: Arc::clone(&db),
        sources: truth.len() as u32,
        truth,
        lawful,
        noise_rel: lofar_cfg.noise_rel,
        seed: cfg.seed,
        appends,
        batches: Mutex::new(Vec::new()),
        started: AtomicU32::new(0),
        done: AtomicU32::new(0),
    };
    let before = db.metrics().snapshot();
    let mut phase = measure(cfg, &server, &load);
    let after = db.metrics().snapshot();
    let batches = std::mem::take(&mut *load.batches.lock().expect("writer lock is never poisoned"));
    let mut reference = Reference::new(base, &batches, load.sources as usize, cfg.plant_wrong);
    // Every acknowledged append must be in the table.
    if db.table(TABLE).expect("registered").row_count() != reference.data.rows() {
        phase
            .samples
            .iter_mut()
            .filter(|s| s.shape == APPEND)
            .for_each(|s| s.mismatch = true);
    }
    let (model_frac, coverage, rel_err) = check(&mut reference, &mut phase.samples);
    drop(reference);
    let mut report = Report::new(cfg, &phase, setup_s);
    if cfg.trace {
        let m = &mut report.metrics;
        m.insert("model_answer_frac", model_frac);
        m.insert("bound_coverage", coverage);
        m.insert("approx_rel_err_p50", rel_err);
        let append_ms: Vec<f64> = phase
            .samples
            .iter()
            .filter(|s| s.shape == APPEND)
            .map(|s| s.latency_us / 1e3)
            .collect();
        m.insert("append_p50_ms", median(&append_ms));
        m.insert("fit.capture_s", median(&capture_s));
        let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
        m.insert("core.stale_demotions", delta("lawsdb_core_stale_demotions"));
        m.insert("core.exact_fallbacks", delta("lawsdb_core_exact_fallbacks"));
        crate::plan_cache_frac(&before, &after, m);
        probes(&load, cfg.seed, &mut report);
        storage_probes(&db.table(TABLE).expect("registered"), &mut report);
        if appends {
            let times: Vec<f64> = (0..10)
                .map(|_| {
                    report
                        .probe("LawsDb::append_rows", || load.append())
                        .0
                        .latency_us
                })
                .collect();
            report.metrics.insert("core.append_us", median(&times));
        }
    }
    report
}

/// Timed calls into `query`, `approx` and `core` on this seed's
/// statements, without the wire.
fn probes(load: &Lofar, seed: u64, r: &mut Report) {
    let db = &load.db;
    let mut rng = Rng::stream(seed, 3);
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    for _ in 0..32 {
        // An extra conjunct: never one of the measured statements.
        let (_, source, band) = load.draw(&mut rng);
        let sql = format!("{} AND intensity >= 0", sql(POINT, source, band));
        miss.push(
            r.probe("LawsDb::physical_plan", || {
                db.physical_plan(&sql).expect("plans")
            })
            .1,
        );
        hit.push(
            r.probe("LawsDb::physical_plan", || {
                db.physical_plan(&sql).expect("plans")
            })
            .1,
        );
    }
    r.metrics.insert("query.plan_miss_us", median(&miss));
    r.metrics.insert("query.plan_hit_us", median(&hit));
    // The model answers only while it is live: after the first append
    // it is stale, and these probes have nothing to time.
    if db.query_approx(&sql(POINT, 0, 0)).is_err() {
        return;
    }
    for (shape, name) in ANSWER_US.into_iter().enumerate() {
        let n = if shape as u8 == Q2 { 8 } else { 40 };
        let times: Vec<f64> = (0..n)
            .map(|_| {
                let source = rng.below(load.sources as usize) as u32;
                let q = sql(
                    shape as u8,
                    source,
                    rng.below(PAPER_FREQUENCIES.len()) as u8,
                );
                r.probe("LawsDb::query_approx", || {
                    db.query_approx(&q).expect("model answers")
                })
                .1
            })
            .collect();
        r.metrics.insert(name, median(&times));
    }
    let guard: Vec<f64> = (0..40)
        .map(|i| {
            let q = sql(POINT, rng.below(load.sources as usize) as u32, 0);
            // Alternate the order, so drift between the two calls cancels.
            let (resilient, approx) = if i % 2 == 0 {
                let res = r
                    .probe("LawsDb::query_resilient", || {
                        db.query_resilient(&q).expect("answers")
                    })
                    .1;
                (
                    res,
                    r.probe("LawsDb::query_approx", || {
                        db.query_approx(&q).expect("model answers")
                    })
                    .1,
                )
            } else {
                let a = r
                    .probe("LawsDb::query_approx", || {
                        db.query_approx(&q).expect("model answers")
                    })
                    .1;
                (
                    r.probe("LawsDb::query_resilient", || {
                        db.query_resilient(&q).expect("answers")
                    })
                    .1,
                    a,
                )
            };
            resilient - approx
        })
        .collect();
    r.metrics.insert("core.guard_us", median(&guard));
}

const ANSWER_US: [&str; SHAPES.len()] = [
    "approx.answer_us.point",
    "approx.answer_us.source_avg",
    "approx.answer_us.q2",
];
