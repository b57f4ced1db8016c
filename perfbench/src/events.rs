//! The `events(ts, g, v, w)` workloads: `olap_exact` on one engine and
//! `cluster_scatter` on a sharded cluster. Both draw statements from a
//! fixed pool whose reference answers are computed once, before the
//! measured phase, and check every answer inline.

use crate::check::{
    evaluate, plant_wrong, rows_of, same_rows, Agg, Cmp, Data, Output, Pred, Query, Rows,
};
use crate::loadgen::{median, Conn, Load, Sample};
use crate::rng::Rng;
use crate::{measure, storage_probes, timed_setup, Config, Report};
use lawsdb_cluster::{Cluster, ClusterConfig, PartitionScheme};
use lawsdb_core::LawsDb;
use lawsdb_query::ExecOptions;
use lawsdb_server::{QueryMode, Server, ServerConfig};
use lawsdb_storage::{Table, TableBuilder};
use std::collections::HashSet;
use std::sync::Arc;

/// `olap_exact` statement shapes, in pool order.
pub const OLAP_SHAPES: [&str; 5] = [
    "range_scan",
    "global_agg",
    "filter_agg",
    "topk",
    "window_groupby",
];

/// `cluster_scatter` statement shapes.
pub const CLUSTER_SHAPES: [&str; 3] = ["group_by", "filter_agg", "group_lookup"];

/// Distinct groups in `g`.
const GROUPS: usize = 64;

/// `events`: `ts` strictly increasing, `g` uniform in `0..64`, `v` and
/// `w` uniform in `[0, 100)` and unsorted.
pub fn generate(rows: usize, seed: u64) -> Table {
    let mut rng = Rng::stream(seed, 1);
    let mut t = 1_600_000_000i64;
    let ts = (0..rows)
        .map(|_| {
            t += 1 + rng.below(3) as i64;
            t
        })
        .collect();
    let g = (0..rows).map(|_| rng.below(GROUPS) as i64).collect();
    let v = (0..rows).map(|_| rng.f64() * 100.0).collect();
    let w = (0..rows).map(|_| rng.f64() * 100.0).collect();
    let mut b = TableBuilder::new("events");
    b.add_i64("ts", ts)
        .add_i64("g", g)
        .add_f64("v", v)
        .add_f64("w", w);
    b.build().expect("generated columns are consistent")
}

/// One pooled statement: SQL for the engine, [`Query`] for the checker.
pub struct Stmt {
    /// Index into the workload's shape list.
    pub shape: u8,
    /// SQL text.
    pub sql: String,
    /// The same statement for the reference evaluator.
    pub query: Query,
}

/// A literal with two decimals, `lo_cents/100 <= x < hi_cents/100`, as
/// SQL text and value.
fn literal(rng: &mut Rng, lo_cents: usize, hi_cents: usize) -> (String, f64) {
    let cents = lo_cents + rng.below(hi_cents - lo_cents);
    let text = format!("{}.{:02}", cents / 100, cents % 100);
    let value = text.parse().expect("formatted literal parses");
    (text, value)
}

/// 2–4 distinct aggregates over `v`/`w`, as a SELECT list and [`Agg`]s.
fn aggregates(rng: &mut Rng, data: &Data) -> (String, Vec<Agg>) {
    let (v, w) = (data.col("v"), data.col("w"));
    let all = [
        ("COUNT(*)", Agg::Count),
        ("SUM(v)", Agg::Sum(v)),
        ("SUM(w)", Agg::Sum(w)),
        ("AVG(v)", Agg::Avg(v)),
        ("AVG(w)", Agg::Avg(w)),
        ("MIN(v)", Agg::Min(v)),
        ("MAX(v)", Agg::Max(v)),
        ("MIN(w)", Agg::Min(w)),
        ("MAX(w)", Agg::Max(w)),
    ];
    let mut picked: Vec<usize> = Vec::new();
    let k = 2 + rng.below(3);
    while picked.len() < k {
        let i = rng.below(all.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    let list = picked
        .iter()
        .enumerate()
        .map(|(j, &i)| format!("{} AS a{j}", all[i].0));
    (
        list.collect::<Vec<_>>().join(", "),
        picked.iter().map(|&i| all[i].1).collect(),
    )
}

/// A `ts` window of exactly `rows` rows starting at a random row.
fn window(rng: &mut Rng, data: &Data, rows: usize) -> (i64, i64) {
    let ts = data.column(data.col("ts"));
    let start = rng.below(ts.len() - rows);
    (ts[start] as i64, ts[start + rows] as i64)
}

/// Draw `per_shape` distinct statements of each `olap_exact` shape.
pub fn olap_pool(
    data: &Data,
    per_shape: usize,
    range_rows: usize,
    window_rows: usize,
    rng: &mut Rng,
) -> Vec<Stmt> {
    let [ts, g, v, w] = ["ts", "g", "v", "w"].map(|c| data.col(c));
    let mut pool = Vec::new();
    let mut seen = HashSet::new();
    for shape in 0..OLAP_SHAPES.len() as u8 {
        let mut made = 0;
        while made < per_shape {
            let (sql, query) = match shape {
                0 => {
                    let (lo, hi) = window(rng, data, range_rows);
                    (
                        format!("SELECT ts, g, v, w FROM events WHERE ts >= {lo} AND ts < {hi}"),
                        Query {
                            filter: vec![
                                Pred {
                                    col: ts,
                                    cmp: Cmp::Ge,
                                    value: lo as f64,
                                },
                                Pred {
                                    col: ts,
                                    cmp: Cmp::Lt,
                                    value: hi as f64,
                                },
                            ],
                            output: Output::Columns(vec![ts, g, v, w]),
                            order_desc: None,
                            limit: None,
                        },
                    )
                }
                1 => {
                    let (list, aggs) = aggregates(rng, data);
                    (
                        format!("SELECT {list} FROM events"),
                        Query {
                            filter: vec![],
                            output: Output::Aggregate { group: None, aggs },
                            order_desc: None,
                            limit: None,
                        },
                    )
                }
                2 => {
                    let (x, xv) = literal(rng, 1000, 9000);
                    let (y, yv) = literal(rng, 1000, 9000);
                    (
                        format!("SELECT COUNT(*) AS n, SUM(v) AS s, AVG(w) AS a FROM events WHERE v > {x} AND w < {y}"),
                        Query {
                            filter: vec![Pred { col: v, cmp: Cmp::Gt, value: xv }, Pred { col: w, cmp: Cmp::Lt, value: yv }],
                            output: Output::Aggregate { group: None, aggs: vec![Agg::Count, Agg::Sum(v), Agg::Avg(w)] },
                            order_desc: None,
                            limit: None,
                        },
                    )
                }
                3 => {
                    // A selective filter (0.15–0.4% of rows) keeps the
                    // sort small, so GROUP BY stays the dominant cost.
                    let (x, xv) = literal(rng, 9960, 9985);
                    (
                        format!(
                            "SELECT ts, g, v, w FROM events WHERE v > {x} ORDER BY w DESC LIMIT 10"
                        ),
                        Query {
                            filter: vec![Pred {
                                col: v,
                                cmp: Cmp::Gt,
                                value: xv,
                            }],
                            output: Output::Columns(vec![ts, g, v, w]),
                            order_desc: Some(3),
                            limit: Some(10),
                        },
                    )
                }
                _ => {
                    let (lo, hi) = window(rng, data, window_rows);
                    (
                        format!(
                            "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(w) AS a FROM events \
                             WHERE ts >= {lo} AND ts < {hi} GROUP BY g ORDER BY g"
                        ),
                        Query {
                            filter: vec![
                                Pred {
                                    col: ts,
                                    cmp: Cmp::Ge,
                                    value: lo as f64,
                                },
                                Pred {
                                    col: ts,
                                    cmp: Cmp::Lt,
                                    value: hi as f64,
                                },
                            ],
                            output: Output::Aggregate {
                                group: Some(g),
                                aggs: vec![Agg::Count, Agg::Sum(v), Agg::Avg(w)],
                            },
                            order_desc: None,
                            limit: None,
                        },
                    )
                }
            };
            if seen.insert(sql.clone()) {
                pool.push(Stmt { shape, sql, query });
                made += 1;
            }
        }
    }
    pool
}

/// Draw `per_shape` distinct statements of each `cluster_scatter` shape.
pub fn cluster_pool(data: &Data, per_shape: usize, rng: &mut Rng) -> Vec<Stmt> {
    let [g, v, w] = ["g", "v", "w"].map(|c| data.col(c));
    let fixed = || vec![Agg::Count, Agg::Sum(v), Agg::Avg(w)];
    let mut pool = Vec::new();
    let mut seen = HashSet::new();
    for shape in 0..CLUSTER_SHAPES.len() as u8 {
        let mut made = 0;
        while made < per_shape {
            let (sql, filter, group, aggs) = match shape {
                0 => {
                    let (list, aggs) = aggregates(rng, data);
                    (
                        format!("SELECT g, {list} FROM events GROUP BY g ORDER BY g"),
                        vec![],
                        Some(g),
                        aggs,
                    )
                }
                1 => {
                    let (x, xv) = literal(rng, 500, 9500);
                    (
                        format!("SELECT COUNT(*) AS n, SUM(v) AS s, AVG(w) AS a FROM events WHERE v > {x}"),
                        vec![Pred { col: v, cmp: Cmp::Gt, value: xv }],
                        None,
                        fixed(),
                    )
                }
                _ => {
                    let k = rng.below(GROUPS);
                    (
                        format!("SELECT COUNT(*) AS n, SUM(v) AS s, AVG(w) AS a FROM events WHERE g = {k}"),
                        vec![Pred { col: g, cmp: Cmp::Eq, value: k as f64 }],
                        None,
                        fixed(),
                    )
                }
            };
            if seen.insert(sql.clone()) {
                let query = Query {
                    filter,
                    output: Output::Aggregate { group, aggs },
                    order_desc: None,
                    limit: None,
                };
                pool.push(Stmt { shape, sql, query });
                made += 1;
            }
        }
    }
    pool
}

/// Closed-loop reads drawn uniformly from a statement pool, each answer
/// checked against the pool's reference answer.
struct Pooled {
    mode: QueryMode,
    stmts: Vec<Stmt>,
    refs: Vec<Rows>,
}

impl Pooled {
    fn new(mode: QueryMode, stmts: Vec<Stmt>, data: &Data, plant: bool) -> Pooled {
        let mut refs: Vec<Rows> = stmts
            .iter()
            .map(|s| evaluate(data, 0..data.rows(), &s.query))
            .collect();
        if plant {
            // Every statement of the first shape, so short runs hit one.
            stmts
                .iter()
                .zip(&mut refs)
                .filter(|(s, _)| s.shape == 0)
                .for_each(|(_, r)| plant_wrong(r));
        }
        Pooled { mode, stmts, refs }
    }
}

impl Load for Pooled {
    /// Send every pooled statement once, so the engine's plan cache
    /// (exact mode only) holds the whole pool before anything is timed.
    fn prime(&self, conn: &mut Conn) {
        if self.mode != QueryMode::Exact {
            return;
        }
        for s in &self.stmts {
            let _ = conn.client.query(self.mode, &s.sql);
        }
    }

    fn op(&self, conn: &mut Conn, _i: u64, traced: bool, _warmup: bool) -> Sample {
        let k = conn.rng.below(self.stmts.len());
        let stmt = &self.stmts[k];
        let reply = conn.read(stmt.shape, self.mode, &stmt.sql, traced);
        let mut sample = reply.sample;
        if let Some(w) = reply.result {
            sample.mismatch = !same_rows(&rows_of(&w.table), &self.refs[k]);
        }
        sample
    }
}

/// Statements per shape in the `olap_exact` pool: 5 × 25 = 125 fit the
/// engine's 256-entry plan cache.
const OLAP_PER_SHAPE: usize = 25;

/// `olap_exact`: one engine, exact mode, five statement shapes.
pub fn run_olap(cfg: &Config) -> Report {
    let ((db, server), setup_s) = timed_setup(|| {
        let table = generate(cfg.scale.events_rows, cfg.seed);
        let db = Arc::new(LawsDb::new());
        db.register_table(table).expect("fresh catalog");
        let server = Server::new(Arc::clone(&db), ServerConfig::default());
        (db, server)
    });
    let table = db.table("events").expect("registered");
    let data = Data::from_table(&table);
    let mut rng = Rng::stream(cfg.seed, 2);
    let stmts = olap_pool(
        &data,
        OLAP_PER_SHAPE,
        cfg.scale.range_rows,
        cfg.scale.window_rows(),
        &mut rng,
    );
    let load = Pooled::new(QueryMode::Exact, stmts, &data, cfg.plant_wrong);
    let before = db.metrics().snapshot();
    let phase = measure(cfg, &server, &load);
    let after = db.metrics().snapshot();
    let mut report = Report::new(cfg, &phase, setup_s);
    if cfg.trace {
        crate::plan_cache_frac(&before, &after, &mut report.metrics);
        plan_probes(&db, &load.stmts, &mut rng, &mut report);
        storage_probes(&table, &mut report);
    }
    report
}

/// `query.plan_{miss,hit}_us` on statements never sent, and
/// `query.exec_us.<shape>` per pooled shape, without the wire.
fn plan_probes(db: &LawsDb, pool: &[Stmt], rng: &mut Rng, r: &mut Report) {
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    for _ in 0..32 {
        // Three decimals: never one of the pool's statements.
        let x = 10.0 + rng.below(80_000) as f64 / 1000.0;
        let sql = format!(
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE v > {x:.3} AND w < 50.125"
        );
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
    let opts = ExecOptions {
        threads: 1,
        ..ExecOptions::default()
    };
    for (shape, name) in EXEC_US.into_iter().enumerate() {
        let mut times = Vec::new();
        for s in pool.iter().filter(|s| s.shape as usize == shape).take(6) {
            for _ in 0..2 {
                times.push(
                    r.probe("LawsDb::query_with", || {
                        db.query_with(&s.sql, &opts).expect("pooled statement runs")
                    })
                    .1,
                );
            }
        }
        r.metrics.insert(name, median(&times));
    }
}

const EXEC_US: [&str; OLAP_SHAPES.len()] = [
    "query.exec_us.range_scan",
    "query.exec_us.global_agg",
    "query.exec_us.filter_agg",
    "query.exec_us.topk",
    "query.exec_us.window_groupby",
];

/// Shards and replicas per shard of `cluster_scatter`.
const SHARDS: usize = 4;
const REPLICAS: usize = 2;
const CLUSTER_PER_SHAPE: usize = 20;

/// `cluster_scatter`: hash shards × healthy replicas behind the server.
pub fn run_cluster(cfg: &Config) -> Report {
    let ((table, db, server, cluster), setup_s) = timed_setup(|| {
        let table = generate(cfg.scale.cluster_rows, cfg.seed);
        let db = Arc::new(LawsDb::new());
        let server = Server::new(Arc::clone(&db), ServerConfig::default());
        let cluster = Arc::new(
            Cluster::new(
                &table,
                ClusterConfig {
                    shards: SHARDS,
                    replicas: REPLICAS,
                    scheme: PartitionScheme::Hash {
                        key: "g".to_string(),
                    },
                    ..ClusterConfig::default()
                },
                db.metrics(),
            )
            .expect("cluster builds"),
        );
        server.attach_cluster(Arc::clone(&cluster));
        (table, db, server, cluster)
    });
    let data = Data::from_table(&table);
    let mut rng = Rng::stream(cfg.seed, 2);
    let stmts = cluster_pool(&data, CLUSTER_PER_SHAPE, &mut rng);
    let load = Pooled::new(QueryMode::Cluster, stmts, &data, cfg.plant_wrong);
    let before = db.metrics().snapshot();
    let phase = measure(cfg, &server, &load);
    let after = db.metrics().snapshot();
    let mut report = Report::new(cfg, &phase, setup_s);
    if cfg.trace {
        // A healthy query reads each shard once, from its first replica.
        let ops: u64 = (0..SHARDS)
            .map(|s| cluster.fetch_ops(s, 0).expect("healthy replica"))
            .sum();
        report
            .metrics
            .insert("cluster.fetch_ops_per_query", ops as f64);
        report.metrics.insert(
            "cluster.failovers",
            (after.counter("lawsdb_cluster_failovers") - before.counter("lawsdb_cluster_failovers"))
                as f64,
        );
        let opts = ExecOptions {
            threads: 1,
            ..ExecOptions::default()
        };
        let times: Vec<f64> = load
            .stmts
            .iter()
            .step_by(CLUSTER_PER_SHAPE / 3)
            .map(|s| {
                report
                    .probe("Cluster::query", || {
                        cluster.query(&s.sql, &opts).expect("pooled statement runs")
                    })
                    .1
            })
            .collect();
        report.metrics.insert("cluster.query_us", median(&times));
        storage_probes(&table, &mut report);
    }
    report
}
