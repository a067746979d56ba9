//! The in-process workloads: one thread calling a bare `Engine`.
//!
//! A request is prepare (`Engine::prepare`, or `prepare_cached` where
//! the workload goes through the plan cache), `PreparedQuery::run`,
//! `serialize_sequence`, and the digest check of the serialized result.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use xqr_core::algebra::plan_size;
use xqr_core::{canonicalize_module, compile_module, module_hash, rewrite_module_with};
use xqr_core::{CompiledModule, RuleConfig};
use xqr_engine::{CompileOptions, Engine, ProfileNode};
use xqr_frontend::{normalize_module, parse_query_with};
use xqr_xml::metrics::metrics;
use xqr_xml::MetricsSnapshot;
use xqr_xml::{parse_document, serialize_sequence, Limits, ParseOptions};

use crate::golden::{self, Digest};
use crate::harness::{
    attribute, end_to_end, enough_setups, group_by_query, peak_rss_mib, request_times_us,
    timed_setup, Attribution, Checker, Outcome, RunConfig, Window,
};
use crate::json::Value;
use crate::metrics::{rule_metric, RULES};
use crate::span::{to_jsonl, SpanId, Trace};
use crate::stats::{mean, median};
use crate::workload::{Generator, Request, Workload};

/// One untraced request; the digest is part of it.
pub fn request(engine: &Engine, cached: bool, text: &str) -> Result<Digest, String> {
    let options = CompileOptions::default();
    let prepared = if cached {
        engine.prepare_cached(text, &options)
    } else {
        engine.prepare(text, &options)
    }
    .map_err(|e| e.to_string())?;
    let result = prepared.run(engine).map_err(|e| e.to_string())?;
    let xml = serialize_sequence(&result);
    Ok(Digest::of(result.len(), xml.as_bytes()))
}

/// The requests of `pass` with each key kept once: the warm-up queries.
pub fn distinct(pass: Vec<Request>) -> Vec<Request> {
    let mut seen = std::collections::HashSet::new();
    pass.into_iter()
        .filter(|r| seen.insert(r.key.clone()))
        .collect()
}

/// A cold set-up: parse and bind the document, then run each warm-up
/// query once, which builds the lazy structure index and postings and
/// (for a cached workload) fills the plan cache.
fn setup(w: Workload, uri: &str, xml: &str, warm: &[Request], checker: &mut Checker) -> Engine {
    let doc = parse_document(xml, &ParseOptions::default()).expect("generated document parses");
    let mut engine = Engine::new();
    engine.bind_document_node(uri, doc.root());
    for r in warm {
        checker.check(&r.key, request(&engine, w.uses_plan_cache(), &r.text));
    }
    engine
}

fn run_pass(
    engine: &Engine,
    cached: bool,
    pass: &[Request],
    checker: &mut Checker,
    mut sample: impl FnMut(&Request, u64),
) {
    for r in pass {
        let t = Instant::now();
        let ok = checker.check(&r.key, request(engine, cached, &r.text));
        let ns = t.elapsed().as_nanos() as u64;
        if ok {
            sample(r, ns);
        }
    }
}

/// The untraced run: cold set-ups, warm-up, then whole passes until the
/// window has elapsed.
pub fn measure(cfg: &RunConfig) -> Outcome {
    let w = cfg.workload;
    let golden = golden::parse(w.golden_text()).expect("checked-in golden file parses");
    let mut checker = Checker::new(&golden);
    let (uri, xml) = w.document();
    let mut gen = Generator::new(w, cfg.seed, 0);
    let first = gen.next_pass();
    let warm_pass_len = first.len();
    let warm = distinct(first);
    let mut setups = Vec::new();
    let engine = timed_setup(&mut setups, || setup(w, uri, &xml, &warm, &mut checker));

    let cached = w.uses_plan_cache();
    let t0 = Instant::now();
    while t0.elapsed() < cfg.warmup {
        run_pass(&engine, cached, &gen.next_pass(), &mut checker, |_, _| ());
    }

    let mut window = Window {
        samples: Vec::new(),
        passes_ns: Vec::new(),
        requests_per_pass: warm_pass_len,
        clients: 1,
        wall: Duration::ZERO,
    };
    let t0 = Instant::now();
    while t0.elapsed() < cfg.window {
        let pass = gen.next_pass();
        let t = Instant::now();
        run_pass(&engine, cached, &pass, &mut checker, |r, ns| {
            window.samples.push((r.query, ns))
        });
        window.passes_ns.push(t.elapsed().as_nanos() as u64);
    }
    window.wall = t0.elapsed();
    // Memory is read here, after one set-up and the window: the further
    // set-ups below exist only to steady `setup_s`.
    let rss = peak_rss_mib();
    drop(engine);
    while !enough_setups(&setups) {
        drop(timed_setup(&mut setups, || {
            setup(w, uri, &xml, &warm, &mut checker)
        }));
    }
    report_failure(&checker);
    let (metrics, detail) = end_to_end(cfg, &window, &setups, rss);
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        detail,
    }
}

pub fn report_failure(checker: &Checker) {
    if let Some(problem) = &checker.first_failure {
        eprintln!(
            "FAILED {} of {} requests; first: {problem}",
            checker.failed, checker.attempted
        );
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct Counters {
    pub staged: u64,
    pub query_bytes: u64,
    pub ops_compiled: u64,
    pub ops_rewritten: u64,
    pub rule_firings: BTreeMap<&'static str, u64>,
    pub hits: u64,
    pub misses: u64,
    pub hit_ns: u64,
    pub miss_ns: u64,
    pub result_items: u64,
    pub result_bytes: u64,
    pub spilled: u64,
    /// `(query, runtime.run ns)` per traced request.
    pub run_ns: Vec<(u16, u64)>,
}

fn module_ops(m: &CompiledModule) -> usize {
    plan_size(&m.body)
        + m.functions
            .values()
            .map(|f| plan_size(&f.body))
            .sum::<usize>()
}

/// What a traced engine request produced, for the caller to digest.
pub struct Answer {
    pub items: usize,
    pub xml: String,
    /// Whether the plan came out of the plan cache.
    pub hit: bool,
}

/// The engine's part of a traced request, as children of `parent`:
/// `engine.prepare`, `runtime.run`, `xml.serialize`.
pub fn traced_engine_request(
    trace: &mut Trace,
    n: u32,
    parent: SpanId,
    engine: &Engine,
    cached: bool,
    r: &Request,
    c: &mut Counters,
) -> Result<Answer, String> {
    let options = CompileOptions::default();
    let span = trace.begin(n, "engine.prepare", Some(parent));
    let prepared = if cached {
        engine.prepare_cached_outcome(&r.text, &options)
    } else {
        engine.prepare(&r.text, &options).map(|p| (p, false))
    };
    let ns = trace.end(span);
    let (prepared, hit) = prepared.map_err(|e| e.to_string())?;
    if hit {
        c.hits += 1;
        c.hit_ns += ns;
    } else if cached {
        c.misses += 1;
        c.miss_ns += ns;
    }
    let span = trace.begin(n, "runtime.run", Some(parent));
    let result = prepared.run(engine);
    c.run_ns.push((r.query, trace.end(span)));
    let result = result.map_err(|e| e.to_string())?;
    c.spilled += u64::from(prepared.last_run_spilled());
    let xml = trace.time(n, "xml.serialize", Some(parent), || {
        serialize_sequence(&result)
    });
    c.result_items += result.len() as u64;
    c.result_bytes += xml.len() as u64;
    Ok(Answer {
        items: result.len(),
        xml,
        hit,
    })
}

/// Replays what `Engine::prepare` does for this text one public stage at
/// a time, under a root of its own, so the prepare call's time can be
/// split between `frontend` and `core`.
pub fn staged(trace: &mut Trace, n: u32, text: &str, c: &mut Counters) {
    let root = trace.begin(n, "staged", None);
    let depth = Limits::default().max_parse_depth;
    let parsed = trace.time(n, "frontend.parse", Some(root), || {
        parse_query_with(text, depth)
    });
    if let Ok(module) = parsed {
        let core = trace.time(n, "frontend.normalize", Some(root), || {
            normalize_module(&module)
        });
        let mut compiled = trace.time(n, "core.compile", Some(root), || compile_module(&core));
        c.ops_compiled += module_ops(&compiled) as u64;
        let stats = trace.time(n, "core.rewrite", Some(root), || {
            rewrite_module_with(&mut compiled, RuleConfig::default())
        });
        trace.time(n, "core.canon", Some(root), || {
            canonicalize_module(&mut compiled);
            black_box(module_hash(&compiled))
        });
        c.ops_rewritten += module_ops(&compiled) as u64;
        for (rule, times) in &stats.applications {
            *c.rule_firings.entry(rule).or_default() += *times as u64;
        }
        c.staged += 1;
        c.query_bytes += text.len() as u64;
    }
    trace.end(root);
}

/// The traced run: passes alternate between untraced (the reference the
/// tracing overhead is taken against) and traced, each on fresh requests.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let w = cfg.workload;
    let cached = w.uses_plan_cache();
    let golden = golden::parse(w.golden_text()).expect("checked-in golden file parses");
    let mut checker = Checker::new(&golden);
    let (uri, xml) = w.document();
    let mut gen = Generator::new(w, cfg.seed, 0);
    let warm = distinct(gen.next_pass());
    let mut trace = Trace::new();
    let before = metrics().snapshot();
    let setup = traced_setup(&mut trace, uri, &xml, &warm, cached, &mut checker);
    let engine = &setup.engine;

    let t0 = Instant::now();
    while t0.elapsed() < cfg.warmup {
        run_pass(engine, cached, &gen.next_pass(), &mut checker, |_, _| ());
    }
    let warmed = metrics().snapshot();

    let mut c = Counters::default();
    let mut untraced_us: Vec<f64> = Vec::new();
    let mut n = 0u32;
    let t0 = Instant::now();
    while t0.elapsed() < cfg.window {
        run_pass(engine, cached, &gen.next_pass(), &mut checker, |_, ns| {
            untraced_us.push(ns as f64 / 1e3)
        });
        let pass = gen.next_pass();
        let mut replay = Vec::new();
        for r in &pass {
            let root = trace.begin(n, "request", None);
            let got = traced_engine_request(&mut trace, n, root, engine, cached, r, &mut c);
            let span = trace.begin(n, "bench.digest", Some(root));
            // A hit ran no stage; there is nothing to replay.
            if !got.as_ref().is_ok_and(|a| a.hit) {
                replay.push((n, r));
            }
            checker.check(&r.key, got.map(|a| Digest::of(a.items, a.xml.as_bytes())));
            trace.end(span);
            trace.end(root);
            n += 1;
        }
        // The stages are replayed after the pass, not between its
        // requests: a replay just before a request would hand its prepare
        // call warm parser and compiler code that an untraced request
        // does not find.
        for (n, r) in replay {
            staged(&mut trace, n, &r.text, &mut c);
        }
    }
    let after = metrics().snapshot();
    report_failure(&checker);

    let a = attribute(&trace.spans);
    let mut m = layer_metrics(&a, &trace, &untraced_us, &c);
    setup.xml_metrics(&mut m, &before, &warmed);
    m.insert(
        "plancache.evictions".into(),
        (after.plan_cache_evictions - warmed.plan_cache_evictions) as f64,
    );

    let top_ops = profile_pass(engine, &distinct(gen.next_pass()));
    let detail = trace_detail(cfg, &a, &c, top_ops);
    write_trace(w, &trace);
    layer_outcome(&checker, &m, detail)
}

/// The traced run's set-up: the document parsed under an `xml.parse`
/// span and bound to a bare engine, the warm-up queries run once.
pub struct TracedSetup {
    pub engine: Engine,
    parse_ns: u64,
    nodes: usize,
    bytes: usize,
}

pub fn traced_setup(
    trace: &mut Trace,
    uri: &str,
    xml: &str,
    warm: &[Request],
    cached: bool,
    checker: &mut Checker,
) -> TracedSetup {
    let root = trace.begin(u32::MAX, "setup", None);
    let span = trace.begin(u32::MAX, "xml.parse", Some(root));
    let doc = parse_document(xml, &ParseOptions::default()).expect("generated document parses");
    let parse_ns = trace.end(span);
    let mut engine = Engine::new();
    engine.bind_document_node(uri, doc.root());
    trace.time(u32::MAX, "setup.warm", Some(root), || {
        for r in warm {
            checker.check(&r.key, request(&engine, cached, &r.text));
        }
    });
    trace.end(root);
    TracedSetup {
        engine,
        parse_ns,
        nodes: doc.node_count(),
        bytes: xml.len(),
    }
}

impl TracedSetup {
    /// The `xml` layer's set-up metrics; index builds are those between
    /// the two snapshots (set-up and warm-up build them lazily).
    pub fn xml_metrics(
        &self,
        m: &mut BTreeMap<String, f64>,
        before: &MetricsSnapshot,
        warmed: &MetricsSnapshot,
    ) {
        let builds = |s: &MetricsSnapshot| s.struct_index_builds + s.postings_builds;
        m.insert("xml.parse_ms".into(), self.parse_ns as f64 / 1e6);
        m.insert(
            "xml.parse_mb_s".into(),
            self.bytes as f64 / 1e6 / (self.parse_ns as f64 / 1e9),
        );
        m.insert("xml.nodes".into(), self.nodes as f64);
        m.insert(
            "xml.index_builds".into(),
            (builds(warmed) - builds(before)) as f64,
        );
    }
}

/// The result of a traced run: every per-layer metric of the contract,
/// 0 for those this workload's layers never touch.
pub fn layer_outcome(checker: &Checker, m: &BTreeMap<String, f64>, detail: Value) -> Outcome {
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: crate::metrics::per_layer()
            .into_iter()
            .map(|(name, _, _)| {
                let v = m.get(&name).copied().unwrap_or(0.0);
                (name, v)
            })
            .collect(),
        detail,
    }
}

/// The per-layer metrics every workload derives the same way from its
/// trace and counters.
pub fn layer_metrics(
    a: &Attribution,
    trace: &Trace,
    untraced_us: &[f64],
    c: &Counters,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let (mean_us, p50_us) = request_times_us(&trace.spans);
    m.insert("trace.requests".to_string(), a.requests as f64);
    m.insert("trace.request_us".into(), mean_us);
    m.insert("trace.request_p50_us".into(), p50_us);
    m.insert("trace.untraced_request_us".into(), mean(untraced_us));
    if !untraced_us.is_empty() {
        m.insert(
            "trace.overhead_share".into(),
            mean_us / mean(untraced_us) - 1.0,
        );
    }
    m.insert(
        "trace.unattributed_share".into(),
        a.unattributed_ns / a.total_ns.max(1.0),
    );
    for (layer, ns) in &a.layer_ns {
        m.insert(format!("self_us.{layer}"), a.per_request_us(*ns));
    }
    let ser_ns = a.by_name.get("xml.serialize").map_or(0.0, |(_, ns)| *ns);
    m.insert("xml.serialize_ms".into(), a.mean_us("xml.serialize") / 1e3);
    if ser_ns > 0.0 {
        m.insert(
            "xml.serialize_mb_s".into(),
            c.result_bytes as f64 / 1e6 / (ser_ns / 1e9),
        );
    }
    for (metric, span) in [
        ("frontend.parse_us", "frontend.parse"),
        ("frontend.normalize_us", "frontend.normalize"),
        ("core.compile_us", "core.compile"),
        ("core.rewrite_us", "core.rewrite"),
        ("core.canon_us", "core.canon"),
    ] {
        m.insert(metric.into(), a.mean_us(span));
    }
    let per_staged = |v: u64| v as f64 / c.staged.max(1) as f64;
    m.insert("frontend.query_bytes".into(), per_staged(c.query_bytes));
    m.insert("core.plan_ops_compiled".into(), per_staged(c.ops_compiled));
    m.insert(
        "core.plan_ops_rewritten".into(),
        per_staged(c.ops_rewritten),
    );
    m.insert(
        "core.rule_firings".into(),
        per_staged(c.rule_firings.values().sum()),
    );
    for rule in RULES {
        let fired = c.rule_firings.get(rule).copied().unwrap_or(0);
        m.insert(rule_metric(rule), per_staged(fired));
    }
    debug_assert!(c.rule_firings.keys().all(|r| RULES.contains(r)));
    if c.hits > 0 {
        m.insert(
            "plancache.hit_us".into(),
            c.hit_ns as f64 / c.hits as f64 / 1e3,
        );
    }
    if c.misses > 0 {
        // Only misses are replayed in stages, so the stages' total is theirs.
        let stages: f64 = ["frontend", "core"]
            .iter()
            .map(|l| {
                a.layer_ns
                    .iter()
                    .find(|(n, _)| n == l)
                    .map_or(0.0, |(_, ns)| *ns)
            })
            .sum();
        m.insert(
            "plancache.miss_us".into(),
            (c.miss_ns as f64 - stages) / c.misses as f64 / 1e3,
        );
    }
    if c.hits + c.misses > 0 {
        m.insert(
            "plancache.hit_ratio".into(),
            c.hits as f64 / (c.hits + c.misses) as f64,
        );
    }
    let requests = c.run_ns.len().max(1) as f64;
    m.insert("runtime.execute_ms".into(), a.mean_us("runtime.run") / 1e3);
    m.insert(
        "runtime.share".into(),
        a.by_name
            .get("runtime.run")
            .map_or(0.0, |(_, ns)| ns / a.total_ns.max(1.0)),
    );
    m.insert(
        "runtime.result_items".into(),
        c.result_items as f64 / requests,
    );
    m.insert("runtime.spilled".into(), c.spilled as f64);
    m
}

/// One extra pass with per-operator profiling on: operator label →
/// (self ms, rows), summed over the pass, largest first.
pub fn profile_pass(engine: &Engine, pass: &[Request]) -> Vec<(String, f64, u64)> {
    fn walk(n: &ProfileNode, into: &mut BTreeMap<String, (u64, u64)>) {
        let e = into.entry(n.label.clone()).or_default();
        e.0 += n.exclusive_nanos;
        e.1 += n.rows;
        n.children.iter().for_each(|c| walk(c, into));
    }
    let mut ops = BTreeMap::new();
    for r in pass {
        let options = CompileOptions::default().with_profiling();
        let Ok(prepared) = engine.prepare(&r.text, &options) else {
            continue;
        };
        if prepared.run(engine).is_ok() {
            if let Some(root) = prepared.profile().and_then(|p| p.root) {
                walk(&root, &mut ops);
            }
        }
    }
    let mut ops: Vec<(String, f64, u64)> = ops
        .into_iter()
        .map(|(label, (ns, rows))| (label, ns as f64 / 1e6, rows))
        .collect();
    ops.sort_by(|a, b| b.1.total_cmp(&a.1));
    ops.truncate(8);
    ops
}

/// The traced run's detail rows: the layer table, per-query execute
/// times with their share of a pass, and the hottest operators.
pub fn trace_detail(
    cfg: &RunConfig,
    a: &Attribution,
    c: &Counters,
    top_ops: Vec<(String, f64, u64)>,
) -> Value {
    let layers = a
        .layer_ns
        .iter()
        .map(|(layer, ns)| {
            Value::obj([
                ("layer", Value::str(*layer)),
                ("self_us", Value::Num(a.per_request_us(*ns))),
                ("share", Value::Num(ns / a.total_ns.max(1.0))),
            ])
        })
        .collect();
    let by_query = group_by_query(cfg.workload, &c.run_ns);
    let total_ms: f64 = by_query.iter().flat_map(|(_, v)| v).sum();
    let execute = by_query
        .iter()
        .map(|(q, v)| {
            Value::obj([
                ("query", Value::str(q)),
                ("execute_ms", Value::Num(median(v))),
                (
                    "share_of_runtime",
                    Value::Num(v.iter().sum::<f64>() / total_ms.max(1e-9)),
                ),
            ])
        })
        .collect();
    let top_ops = top_ops
        .into_iter()
        .map(|(label, self_ms, rows)| {
            Value::obj([
                ("operator", Value::Str(label)),
                ("self_ms", Value::Num(self_ms)),
                ("rows", Value::Num(rows as f64)),
            ])
        })
        .collect();
    Value::obj([
        ("workload", Value::str(cfg.workload.name())),
        ("seed", Value::Num(cfg.seed as f64)),
        ("traced_requests", Value::Num(a.requests as f64)),
        ("request_mean_us", Value::Num(a.per_request_us(a.total_ns))),
        (
            "unattributed_us",
            Value::Num(a.per_request_us(a.unattributed_ns)),
        ),
        ("layers", Value::Arr(layers)),
        ("runtime.execute_ms", Value::Arr(execute)),
        ("runtime.top_ops", Value::Arr(top_ops)),
    ])
}

/// Spans written per run; a longer trace is cut here (the metrics use
/// all of it).
const MAX_WRITTEN_SPANS: usize = 200_000;

pub fn write_trace(w: Workload, trace: &Trace) {
    let dir = crate::out_dir();
    let path = dir.join(format!("trace-{}.jsonl", w.name()));
    let kept = &trace.spans[..trace.spans.len().min(MAX_WRITTEN_SPANS)];
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, to_jsonl(kept)))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}
