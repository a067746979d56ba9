//! `serve-hot`: the full socket path, closed loop.
//!
//! A `QueryService` (two workers, queue of 64) behind a `QueryServer` on
//! a loopback port. Each client connects, POSTs one query, reads to EOF
//! and checks the body's digest before sending its next request — the
//! callers modelled are application servers that wait for each reply.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xqr_engine::{
    ObserveConfig, QueryRequest, QueryServer, QueryService, ServerConfig, ServiceConfig,
};
use xqr_xml::metrics::metrics;

use crate::golden::{self, Digest, Golden};
use crate::harness::{
    attribute, end_to_end, enough_setups, peak_rss_mib, timed_setup, Checker, Outcome, RunConfig,
    Window,
};
use crate::inproc::{
    distinct, layer_metrics, layer_outcome, profile_pass, report_failure, trace_detail,
    traced_engine_request, traced_setup, write_trace, Counters,
};
use crate::span::Trace;
use crate::workload::{Generator, Request, Workload};

const WORKERS: usize = 2;
const QUEUE: usize = 64;
const W: Workload = Workload::ServeHot;

/// Client threads: two, or one on a single-core box — never more than
/// the cores the server's own threads need too.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A running service with its listener; dropping it drains both.
struct Stack {
    server: QueryServer,
}

impl Stack {
    fn start(uri: &str, xml: &str) -> Stack {
        let svc = Arc::new(service(uri, xml, ObserveConfig::default()));
        let server = QueryServer::start(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
            .expect("bind a loopback port");
        Stack { server }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.server.stop(None);
    }
}

fn service(uri: &str, xml: &str, observe: ObserveConfig) -> QueryService {
    let svc = QueryService::new(ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE,
        observe,
        ..ServiceConfig::default()
    });
    svc.bind_document(uri, xml);
    svc
}

struct Reply {
    status: u16,
    rows: Option<usize>,
    body_at: usize,
    raw: Vec<u8>,
}

impl Reply {
    fn parse(raw: Vec<u8>) -> Result<Reply, String> {
        let split = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("response has no header terminator")?;
        let head = String::from_utf8_lossy(&raw[..split]);
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("response has no status")?;
        let rows = head.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("x-rows")
                .then(|| v.trim().parse().ok())?
        });
        Ok(Reply {
            status,
            rows,
            body_at: split + 4,
            raw,
        })
    }

    /// Anything but a 200 with a row count is a failed request.
    fn digest(&self) -> Result<Digest, String> {
        match (self.status, self.rows) {
            (200, Some(rows)) => Ok(Digest::of(rows, &self.raw[self.body_at..])),
            (status, _) => Err(format!("HTTP {status}")),
        }
    }
}

fn http_head(text: &str) -> String {
    format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{text}",
        text.len()
    )
}

/// One request over a fresh connection, read to EOF.
fn post(addr: SocketAddr, text: &str) -> Result<Digest, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.write_all(http_head(text).as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    Reply::parse(raw)?.digest()
}

/// Closed-loop clients for `duration`, each cycling through the shapes.
fn drive(
    addr: SocketAddr,
    seed: u64,
    stream_base: u64,
    duration: Duration,
    golden: &Golden,
    checker: &mut Checker,
) -> Window {
    let t0 = Instant::now();
    type Client<'a> = (Vec<(u16, u64)>, Vec<u64>, Checker<'a>);
    let per_client: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients() as u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut gen = Generator::new(W, seed, stream_base + c);
                    let mut checker = Checker::new(golden);
                    let (mut samples, mut cycles) = (Vec::new(), Vec::new());
                    while t0.elapsed() < duration {
                        let cycle = Instant::now();
                        for r in gen.next_pass() {
                            let t = Instant::now();
                            let ok = checker.check(&r.key, post(addr, &r.text));
                            let ns = t.elapsed().as_nanos() as u64;
                            if ok {
                                samples.push((r.query, ns));
                            }
                        }
                        cycles.push(cycle.elapsed().as_nanos() as u64);
                    }
                    (samples, cycles, checker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut window = Window {
        samples: Vec::new(),
        passes_ns: Vec::new(),
        requests_per_pass: W.keys().len(),
        clients: clients(),
        wall: t0.elapsed(),
    };
    for (samples, cycles, c) in per_client {
        window.samples.extend(samples);
        window.passes_ns.extend(cycles);
        checker.absorb(c);
    }
    window
}

/// A cold set-up: start the service and the listener, then have every
/// client send each distinct query once, so both workers parse the
/// document, build its indexes and fill their plan caches.
fn setup(uri: &str, xml: &str, warm: &[Request], golden: &Golden, checker: &mut Checker) -> Stack {
    let stack = Stack::start(uri, xml);
    let addr = stack.server.addr();
    let per_client: Vec<Checker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(move || {
                    let mut checker = Checker::new(golden);
                    for r in warm {
                        checker.check(&r.key, post(addr, &r.text));
                    }
                    checker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    });
    per_client.into_iter().for_each(|c| checker.absorb(c));
    stack
}

pub fn measure(cfg: &RunConfig) -> Outcome {
    let golden = golden::parse(W.golden_text()).expect("checked-in golden file parses");
    let mut checker = Checker::new(&golden);
    let (uri, xml) = W.document();
    let warm = distinct(Generator::new(W, cfg.seed, 0).next_pass());
    let mut setups = Vec::new();
    let stack = timed_setup(&mut setups, || {
        setup(uri, &xml, &warm, &golden, &mut checker)
    });
    let addr = stack.server.addr();
    drive(addr, cfg.seed, 100, cfg.warmup, &golden, &mut checker);
    let window = drive(addr, cfg.seed, 0, cfg.window, &golden, &mut checker);
    // Memory is read here, after one set-up and the window: the further
    // set-ups below exist only to steady `setup_s`.
    let rss = peak_rss_mib();
    drop(stack);
    while !enough_setups(&setups) {
        drop(timed_setup(&mut setups, || {
            setup(uri, &xml, &warm, &golden, &mut checker)
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

/// One HTTP request with client-side spans under `http`: connect, send,
/// wait for the first byte, read the rest.
fn traced_post(
    trace: &mut Trace,
    n: u32,
    parent: u32,
    addr: SocketAddr,
    text: &str,
) -> Result<Reply, String> {
    fn exchange(
        trace: &mut Trace,
        n: u32,
        http: u32,
        addr: SocketAddr,
        text: &str,
    ) -> std::io::Result<Vec<u8>> {
        let mut stream = trace.time(n, "http.connect", Some(http), || TcpStream::connect(addr))?;
        trace.time(n, "http.send", Some(http), || {
            stream.write_all(http_head(text).as_bytes())
        })?;
        let mut raw = vec![0u8; 16 * 1024];
        let got = trace.time(n, "http.first_byte", Some(http), || stream.read(&mut raw))?;
        raw.truncate(got);
        trace.time(n, "http.read_body", Some(http), || {
            stream.read_to_end(&mut raw)
        })?;
        Ok(raw)
    }
    let http = trace.begin(n, "http", Some(parent));
    let raw = exchange(trace, n, http, addr, text);
    trace.end(http);
    Reply::parse(raw.map_err(|e| e.to_string())?)
}

/// The traced run: a single client replays each request four ways — over
/// HTTP, through `QueryService::run`, through a service with lifecycle
/// observability off, and on a bare `Engine` — so the server's and the
/// service's own time fall out as differences.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let golden = golden::parse(W.golden_text()).expect("checked-in golden file parses");
    let mut checker = Checker::new(&golden);
    let (uri, xml) = W.document();
    let mut gen = Generator::new(W, cfg.seed, 0);
    let warm = distinct(gen.next_pass());
    let mut trace = Trace::new();

    let bare = traced_setup(&mut trace, uri, &xml, &warm, true, &mut checker);
    let engine = &bare.engine;

    let before = metrics().snapshot();
    let stack = setup(uri, &xml, &warm, &golden, &mut checker);
    let addr = stack.server.addr();
    let t0 = Instant::now();
    while t0.elapsed() < cfg.warmup {
        for r in gen.next_pass() {
            checker.check(&r.key, post(addr, &r.text));
        }
    }
    let warmed = metrics().snapshot();
    // The replays below the socket run on services of their own, each
    // visited once per pass like the listener's, so that no path finds
    // its workers' caches warmer than another's.
    let plain = service(uri, &xml, ObserveConfig::default());
    let quiet = service(
        uri,
        &xml,
        ObserveConfig {
            enabled: false,
            ..ObserveConfig::default()
        },
    );
    let via = |svc: &QueryService, text: &str| {
        svc.run(QueryRequest::new(text)).map_err(|e| e.to_string())
    };
    for svc in [&plain, &quiet] {
        for r in warm.iter().cycle().take(2 * WORKERS * warm.len()) {
            let got = via(svc, &r.text).map(|o| Digest::of(o.rows, o.xml.as_bytes()));
            checker.check(&r.key, got);
        }
    }

    let loop_start = metrics().snapshot();
    let mut c = Counters::default();
    let mut untraced_us: Vec<f64> = Vec::new();
    let mut non_200 = 0u64;
    let mut n = 0u32;
    let t0 = Instant::now();
    while t0.elapsed() < cfg.window {
        for r in gen.next_pass() {
            let t = Instant::now();
            checker.check(&r.key, post(addr, &r.text));
            untraced_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        // One pass, replayed path by path rather than request by
        // request: a path that ran a query straight after another path
        // did would find that query's data warm in the core's caches and
        // look faster than it is.
        let pass = gen.next_pass();
        let first = n;
        for r in &pass {
            let root = trace.begin(n, "request", None);
            let reply = traced_post(&mut trace, n, root, addr, &r.text);
            let span = trace.begin(n, "bench.digest", Some(root));
            non_200 += u64::from(reply.as_ref().is_ok_and(|r| r.status != 200));
            checker.check(&r.key, reply.and_then(|r| r.digest()));
            trace.end(span);
            trace.end(root);
            n += 1;
        }
        for (n, r) in (first..).zip(&pass) {
            let span = trace.begin(n, "service", None);
            let out = via(&plain, &r.text);
            trace.end(span);
            if let Ok(o) = &out {
                // The service reports these two durations about itself;
                // they sit at the start and the end of its span.
                let s = trace.spans[span as usize].clone();
                let run = o.run_nanos.min(s.nanos());
                trace.record(
                    n,
                    "service.queue",
                    Some(span),
                    s.start_ns,
                    s.start_ns + o.queue_nanos,
                );
                trace.record(n, "service.worker", Some(span), s.end_ns - run, s.end_ns);
            }
            checker.check(&r.key, out.map(|o| Digest::of(o.rows, o.xml.as_bytes())));
        }
        for (n, r) in (first..).zip(&pass) {
            let out = trace.time(n, "service.noobs", None, || via(&quiet, &r.text));
            checker.check(&r.key, out.map(|o| Digest::of(o.rows, o.xml.as_bytes())));
        }
        for (n, r) in (first..).zip(&pass) {
            let span = trace.begin(n, "engine", None);
            let got = traced_engine_request(&mut trace, n, span, engine, true, r, &mut c);
            trace.end(span);
            checker.check(&r.key, got.map(|a| Digest::of(a.items, a.xml.as_bytes())));
        }
    }
    let after = metrics().snapshot();
    report_failure(&checker);

    let a = attribute(&trace.spans);
    let mut m = layer_metrics(&a, &trace, &untraced_us, &c);
    let per_request = |ns: f64| a.per_request_us(ns);
    let dur = |name: &str| a.by_name.get(name).map_or(0.0, |(_, ns)| *ns);
    bare.xml_metrics(&mut m, &before, &warmed);
    m.insert(
        "plancache.evictions".into(),
        (after.plan_cache_evictions - before.plan_cache_evictions) as f64,
    );
    m.insert(
        "service.admit_overhead_us".into(),
        per_request(dur("service") - dur("service.queue") - dur("service.worker")),
    );
    m.insert(
        "service.queue_wait_us".into(),
        per_request(dur("service.queue")),
    );
    m.insert(
        "service.worker_overhead_us".into(),
        per_request(dur("service.worker") - dur("engine")),
    );
    m.insert(
        "service.observe_us".into(),
        per_request(dur("service") - dur("service.noobs")),
    );
    m.insert(
        "service.shed".into(),
        (after.service_shed - before.service_shed) as f64,
    );
    m.insert(
        "service.doc_reparses".into(),
        (warmed.documents_parsed - before.documents_parsed) as f64,
    );
    m.insert(
        "service.rehydrations".into(),
        ((warmed.plan_cache_rehydrations - before.plan_cache_rehydrations)
            + (after.plan_cache_rehydrations - loop_start.plan_cache_rehydrations)) as f64,
    );
    m.insert("server.connect_us".into(), a.mean_us("http.connect"));
    m.insert("server.first_byte_us".into(), a.mean_us("http.first_byte"));
    m.insert("server.read_body_us".into(), a.mean_us("http.read_body"));
    m.insert(
        "server.overhead_us".into(),
        per_request(dur("http") - dur("service")),
    );
    m.insert("server.non_200".into(), non_200 as f64);

    let top_ops = profile_pass(engine, &warm);
    let detail = trace_detail(cfg, &a, &c, top_ops);
    write_trace(W, &trace);
    drop(stack);
    layer_outcome(&checker, &m, detail)
}
