//! Prepared-query benchmark (hand-rolled harness).
//!
//! Quantifies the fixed per-query compile overhead that the plan cache
//! eliminates: for a set of sub-millisecond XMark queries, the
//! compile-vs-execute split of an ad-hoc run, the cost of a cached
//! preparation (one hash lookup + `Rc` clone), and the end-to-end
//! speedup of the compile-once/run-many path. Also measures service
//! throughput over a hot shape mix with the per-worker plan cache on
//! and off.
//!
//! All timings are min-of-N with the two arms interleaved (so drift
//! hits both equally). Run with `cargo bench -p xqr-bench --bench
//! prepare`; results go to `BENCH_prepare.json` at the repo root.
//! `--test` runs a scaled-down pass and skips the JSON (CI smoke).

use std::time::{Duration, Instant};

use xqr_engine::service::{QueryRequest, QueryService, ServiceConfig};
use xqr_engine::{CompileOptions, Engine, ExecutionMode, PlanCacheConfig};

/// Navigation, aggregate, and join shapes that execute in well under a
/// millisecond on the benchmark document — exactly the regime where the
/// fixed compile cost dominates ad-hoc latency.
const QUERIES: &[usize] = &[1, 2, 5, 6, 13, 17];

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1.0e3
}

struct Row {
    query: usize,
    /// Ad-hoc prepare (parse + normalize + compile + rewrite), min-of-N.
    compile_us: f64,
    /// Cached prepare (text-key lookup + re-hydration), min-of-N.
    cached_prepare_us: f64,
    /// Execution alone (run of an already prepared plan), min-of-N.
    execute_us: f64,
    /// prepare+run, compiling every time.
    adhoc_total_us: f64,
    /// prepare+run through a warm plan cache.
    prepared_total_us: f64,
}

impl Row {
    fn prepare_speedup(&self) -> f64 {
        self.compile_us / self.cached_prepare_us.max(0.001)
    }
    fn total_speedup(&self) -> f64 {
        self.adhoc_total_us / self.prepared_total_us.max(0.001)
    }
}

fn bench_query(engine: &Engine, n: usize, iters: usize) -> Row {
    let q = xqr_xmark::query(n);
    let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin);
    // Warm: one compile into the cache, one run to fault in the document
    // index structures.
    engine.clear_plan_cache();
    engine
        .prepare_cached(q, &opts)
        .expect("benchmark query compiles")
        .run(engine)
        .expect("benchmark query runs");

    let mut compile = Duration::MAX;
    let mut cached = Duration::MAX;
    let mut execute = Duration::MAX;
    let mut adhoc_total = Duration::MAX;
    let mut prepared_total = Duration::MAX;
    for _ in 0..iters {
        // Interleave every arm inside one iteration so clock drift and
        // cache pollution hit all five measurements alike.
        let t = Instant::now();
        let p = engine.prepare(q, &opts).unwrap();
        compile = compile.min(t.elapsed());

        let t = Instant::now();
        let _ = p.run(engine).unwrap();
        execute = execute.min(t.elapsed());

        let t = Instant::now();
        let p = engine.prepare_cached(q, &opts).unwrap();
        cached = cached.min(t.elapsed());
        let _ = p.run(engine).unwrap();

        let t = Instant::now();
        let _ = engine.prepare(q, &opts).unwrap().run(engine).unwrap();
        adhoc_total = adhoc_total.min(t.elapsed());

        let t = Instant::now();
        let _ = engine
            .prepare_cached(q, &opts)
            .unwrap()
            .run(engine)
            .unwrap();
        prepared_total = prepared_total.min(t.elapsed());
    }
    Row {
        query: n,
        compile_us: us(compile),
        cached_prepare_us: us(cached),
        execute_us: us(execute),
        adhoc_total_us: us(adhoc_total),
        prepared_total_us: us(prepared_total),
    }
}

/// Service throughput over a hot shape mix, with the per-worker plan
/// cache on or off. With the cache off every dispatch pays a full
/// compile; with it on, each worker compiles each shape once.
fn service_throughput(xml: &str, cache: bool, jobs: usize) -> f64 {
    let svc = QueryService::new(ServiceConfig {
        workers: 4,
        queue_capacity: jobs + 1,
        plan_cache: if cache {
            PlanCacheConfig::default()
        } else {
            PlanCacheConfig {
                max_entries: 0,
                ..PlanCacheConfig::default()
            }
        },
        ..ServiceConfig::default()
    });
    svc.bind_document("auction.xml", xml);
    // Warm every worker's document store (first dispatch parses).
    for _ in 0..8 {
        svc.run(QueryRequest::new("1")).expect("warmup");
    }
    let t0 = Instant::now();
    let tickets: Vec<_> = (0..jobs)
        .map(|i| {
            svc.submit(QueryRequest::new(xqr_xmark::query(
                QUERIES[i % QUERIES.len()],
            )))
            .expect("queue sized for the whole batch")
        })
        .collect();
    for t in tickets {
        t.wait().expect("benchmark queries succeed");
    }
    jobs as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let xml = xqr_xmark::generate(&xqr_xmark::GenOptions::for_bytes(if smoke {
        60_000
    } else {
        200_000
    }));
    let iters = if smoke { 5 } else { 60 };
    let mut engine = Engine::new();
    engine.bind_document("auction.xml", &xml).unwrap();

    let rows: Vec<Row> = QUERIES
        .iter()
        .map(|&n| bench_query(&engine, n, iters))
        .collect();
    println!("prepared vs ad-hoc (min of {iters}, microseconds):");
    println!(
        "  {:>4} {:>12} {:>14} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "Q", "compile", "cached-prep", "execute", "adhoc", "prepared", "prep-x", "total-x"
    );
    for r in &rows {
        println!(
            "  {:>4} {:>12.1} {:>14.2} {:>12.1} {:>12.1} {:>12.1} {:>8.0}x {:>8.1}x",
            format!("Q{}", r.query),
            r.compile_us,
            r.cached_prepare_us,
            r.execute_us,
            r.adhoc_total_us,
            r.prepared_total_us,
            r.prepare_speedup(),
            r.total_speedup()
        );
    }
    let sub_ms_10x = rows
        .iter()
        .filter(|r| r.execute_us < 1_000.0 && r.prepare_speedup() >= 10.0)
        .count();
    println!(
        "{sub_ms_10x}/{} sub-ms queries prepare >=10x faster through the cache",
        rows.len()
    );

    let jobs = if smoke { 24 } else { 240 };
    let qps_off = service_throughput(&xml, false, jobs);
    let qps_on = service_throughput(&xml, true, jobs);
    println!(
        "service throughput ({jobs} jobs, 4 workers): cache off {qps_off:>8.1} q/s   \
         cache on {qps_on:>8.1} q/s   ({:.2}x)",
        qps_on / qps_off
    );

    if smoke {
        return;
    }

    let mut json = String::from("{\n  \"bench\": \"prepare\",\n  \"queries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": {}, \"compile_us\": {:.2}, \"cached_prepare_us\": {:.3}, \
             \"execute_us\": {:.2}, \"adhoc_total_us\": {:.2}, \"prepared_total_us\": {:.2}, \
             \"prepare_speedup\": {:.1}, \"total_speedup\": {:.2}}}{}\n",
            r.query,
            r.compile_us,
            r.cached_prepare_us,
            r.execute_us,
            r.adhoc_total_us,
            r.prepared_total_us,
            r.prepare_speedup(),
            r.total_speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sub_ms_queries_with_10x_prepare\": {sub_ms_10x},\n  \"service\": \
         {{\"jobs\": {jobs}, \"workers\": 4, \"qps_cache_off\": {qps_off:.1}, \
         \"qps_cache_on\": {qps_on:.1}, \"speedup\": {:.3}}}\n}}\n",
        qps_on / qps_off
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prepare.json");
    std::fs::write(path, json).expect("write BENCH_prepare.json");
    println!("wrote {path}");
}
