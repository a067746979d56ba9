//! `xqr` — command-line XQuery runner.
//!
//! ```text
//! xqr [OPTIONS] (-q QUERY | QUERY_FILE)
//!
//!   -q, --query TEXT        inline query text
//!   -d, --doc URI=PATH      bind an XML file under a URI (repeatable)
//!       --var NAME=VALUE    bind an external variable to a string value
//!       --param NAME=VALUE  bind a declared external variable, cast to its
//!                           declared type (repeatable)
//!       --repeat N          run the query N times through the plan cache
//!       --mode MODE         no-algebra | no-optim | nl | hash | sort  [hash]
//!       --explain           print the compiled plan instead of running
//!       --stats             print rewrite-rule applications to stderr
//!       --pretty            indent element-only output
//!       --time              print evaluation time to stderr
//!       --metrics           print the engine metrics in Prometheus text
//!                           exposition format to stderr after the run
//!       --slow-query-ms N   emit a wide-event JSON line to stderr for any
//!                           run slower than N milliseconds
//!       --serve ADDR        serve queries over HTTP on ADDR (e.g.
//!                           127.0.0.1:7700; port 0 picks a free port)
//!                           instead of running one query
//!       --drain-ms N        graceful-drain budget on shutdown  [5000]
//! ```
//!
//! ## Serve mode
//!
//! `--serve ADDR` starts the hardened network frontend
//! ([`xqr::engine::QueryServer`]) over an admission-controlled
//! [`xqr::engine::QueryService`]: `POST /query` with the query text as
//! the body (optional `X-Tenant`, `X-Deadline-Ms`, `X-Max-Tuples`,
//! `X-Max-Bytes` headers), plus `GET /healthz`, `/readyz`, `/metrics`,
//! `/metrics.json`, `/observe.json`, and `/server.json`. Documents
//! bound with `--doc` are served to every worker. The process drains
//! gracefully — stop accepting, finish in-flight work under the
//! `--drain-ms` budget, cancel survivors — on SIGTERM, SIGINT, or
//! stdin closing (whichever comes first).
//!
//! `--var` binds an untyped string engine-wide; `--param` goes through the
//! prepared-query parameter API: the name must be a `declare variable $x
//! ... external`, and the value is cast to the declared sequence type (a
//! `--param` for an undeclared name is an `XPST0008` error, an unbound
//! required external fails with `XPDY0002`). `--repeat` re-prepares
//! through the engine's plan cache each iteration, so `--repeat 100
//! --time` shows the compile-once/run-many effect directly.
//!
//! Example:
//!
//! ```sh
//! xqr -d auction.xml=data/auction.xml \
//!     -q "for $p in doc('auction.xml')//person return $p/name/text()"
//! ```

use std::process::ExitCode;
use std::time::Instant;

use xqr::engine::{CompileOptions, Engine, ExecutionMode};
use xqr::xml::{AtomicValue, Item, Sequence};

struct Args {
    query: Option<String>,
    query_file: Option<String>,
    docs: Vec<(String, String)>,
    vars: Vec<(String, String)>,
    params: Vec<(String, String)>,
    repeat: usize,
    mode: ExecutionMode,
    explain: bool,
    stats: bool,
    pretty: bool,
    time: bool,
    metrics: bool,
    slow_query_ms: Option<u64>,
    serve: Option<String>,
    drain_ms: u64,
}

const USAGE: &str = "usage: xqr [OPTIONS] (-q QUERY | QUERY_FILE)
  -q, --query TEXT        inline query text
  -d, --doc URI=PATH      bind an XML file under a URI (repeatable)
      --var NAME=VALUE    bind an external variable to a string value
      --param NAME=VALUE  bind a declared external variable, cast to its
                          declared type (repeatable)
      --repeat N          run the query N times through the plan cache
      --mode MODE         no-algebra | no-optim | nl | hash | sort  [hash]
      --explain           print the compiled plan instead of running
      --stats             print rewrite-rule applications to stderr
      --pretty            indent element-only output
      --time              print evaluation time to stderr
      --metrics           print Prometheus-format engine metrics to stderr
      --slow-query-ms N   emit a wide-event JSON line to stderr for any
                          run slower than N milliseconds
      --serve ADDR        serve queries over HTTP on ADDR (POST /query;
                          port 0 picks a free port)
      --drain-ms N        graceful-drain budget on shutdown  [5000]";

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        query: None,
        query_file: None,
        docs: Vec::new(),
        vars: Vec::new(),
        params: Vec::new(),
        repeat: 1,
        mode: ExecutionMode::OptimHashJoin,
        explain: false,
        stats: false,
        pretty: false,
        time: false,
        metrics: false,
        slow_query_ms: None,
        serve: None,
        drain_ms: 5000,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg {
            "-q" | "--query" => out.query = Some(value(&mut i)?),
            "-d" | "--doc" => {
                let v = value(&mut i)?;
                let (uri, path) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--doc expects URI=PATH, got {v:?}"))?;
                out.docs.push((uri.to_string(), path.to_string()));
            }
            "--var" => {
                let v = value(&mut i)?;
                let (name, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--var expects NAME=VALUE, got {v:?}"))?;
                out.vars.push((name.to_string(), val.to_string()));
            }
            "--param" => {
                let v = value(&mut i)?;
                let (name, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--param expects NAME=VALUE, got {v:?}"))?;
                out.params.push((name.to_string(), val.to_string()));
            }
            "--repeat" => {
                let v = value(&mut i)?;
                out.repeat = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--repeat expects a count >= 1, got {v:?}"))?;
            }
            "--mode" => {
                out.mode = match value(&mut i)?.as_str() {
                    "no-algebra" => ExecutionMode::NoAlgebra,
                    "no-optim" => ExecutionMode::AlgebraNoOptim,
                    "nl" => ExecutionMode::OptimNestedLoop,
                    "hash" => ExecutionMode::OptimHashJoin,
                    "sort" => ExecutionMode::OptimSortJoin,
                    other => return Err(format!("unknown mode {other:?}")),
                };
            }
            "--metrics" => out.metrics = true,
            "--slow-query-ms" => {
                let v = value(&mut i)?;
                out.slow_query_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--slow-query-ms expects milliseconds, got {v:?}"))?,
                );
            }
            "--serve" => out.serve = Some(value(&mut i)?),
            "--drain-ms" => {
                let v = value(&mut i)?;
                out.drain_ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("--drain-ms expects milliseconds, got {v:?}"))?;
            }
            "--explain" => out.explain = true,
            "--stats" => out.stats = true,
            "--pretty" => out.pretty = true,
            "--time" => out.time = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') && out.query_file.is_none() => {
                out.query_file = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if out.serve.is_none() && out.query.is_none() && out.query_file.is_none() {
        return Err("a query is required (use -q TEXT or a QUERY_FILE, or --serve ADDR)".into());
    }
    Ok(out)
}

/// SIGTERM/SIGINT land here (set from a raw signal handler, so only
/// async-signal-safe work happens in the handler itself).
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Raw libc signal(2) via FFI — no crates, no allocation in the
    // handler, just a flag store the serve loop polls.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// `--serve` mode: an admission-controlled service behind the hardened
/// network frontend, drained gracefully on SIGTERM/SIGINT/stdin-EOF.
fn serve(args: &Args, addr: &str) -> Result<(), String> {
    use xqr::engine::{QueryServer, QueryService, ServerConfig, ServiceConfig};

    let svc = std::sync::Arc::new(QueryService::new(ServiceConfig {
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2),
        ..ServiceConfig::default()
    }));
    for (uri, path) in &args.docs {
        let xml = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        svc.bind_document(uri, xml);
    }
    let drain = std::time::Duration::from_millis(args.drain_ms);
    let cfg = ServerConfig {
        drain_deadline: drain,
        ..ServerConfig::default()
    };
    let mut server =
        QueryServer::start(svc, addr, cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // The exact line scripts and the example client wait for.
    println!("listening on {}", server.addr());
    install_signal_handlers();
    // Closing stdin also triggers the drain, so orchestration that
    // pipes into the process gets clean shutdown without signals.
    std::thread::spawn(|| {
        let mut sink = String::new();
        loop {
            sink.clear();
            match std::io::BufRead::read_line(&mut std::io::stdin().lock(), &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    while !SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("draining (budget {}ms)...", args.drain_ms);
    let report = server.stop(Some(drain));
    eprintln!(
        "drained: {} queued shed, {} in-flight cancelled, connections {}",
        report.service.drained_queued,
        report.service.cancelled,
        if report.conns_drained_in_time {
            "closed in time"
        } else {
            "timed out"
        }
    );
    Ok(())
}

fn run(args: Args) -> Result<(), String> {
    if let Some(addr) = &args.serve {
        return serve(&args, addr);
    }
    let query = match (&args.query, &args.query_file) {
        (Some(q), _) => q.clone(),
        (None, Some(f)) => {
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?
        }
        _ => unreachable!(),
    };
    let mut engine = Engine::new();
    for (uri, path) in &args.docs {
        let xml = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        engine
            .bind_document(uri, &xml)
            .map_err(|e| format!("cannot parse {path}: {e}"))?;
    }
    for (name, val) in &args.vars {
        engine.bind_variable(name, Sequence::singleton(AtomicValue::string(val.as_str())));
    }
    let options = CompileOptions::mode(args.mode);
    let t_prepare = Instant::now();
    let mut prepared = engine
        .prepare_cached(&query, &options)
        .map_err(|e| e.to_string())?;
    let prepare_elapsed = t_prepare.elapsed();
    bind_params(&mut prepared, &args.params)?;
    if args.stats {
        if let Some(stats) = prepared.rewrite_stats() {
            for (rule, n) in &stats.applications {
                eprintln!("{n}\u{00d7} ({rule})");
            }
        }
    }
    if args.explain {
        println!("{}", prepared.explain());
        return Ok(());
    }
    let t = Instant::now();
    let t_run = Instant::now();
    let mut result = prepared.run(&engine).map_err(|e| e.to_string())?;
    slow_query_event(&args, &query, &prepared, t_run.elapsed(), result.len());
    // Further iterations re-prepare through the plan cache — each one is
    // a hash lookup plus an execution, the compile-once/run-many path.
    for _ in 1..args.repeat {
        let mut p = engine
            .prepare_cached(&query, &options)
            .map_err(|e| e.to_string())?;
        bind_params(&mut p, &args.params)?;
        let t_run = Instant::now();
        result = p.run(&engine).map_err(|e| e.to_string())?;
        slow_query_event(&args, &query, &p, t_run.elapsed(), result.len());
    }
    if args.time {
        eprintln!("prepare: {prepare_elapsed:?} (first; repeats hit the plan cache)");
        let total = t.elapsed();
        if args.repeat > 1 {
            eprintln!(
                "evaluation: {total:?} over {} runs ({:?}/run)",
                args.repeat,
                total / args.repeat as u32
            );
        } else {
            eprintln!("evaluation: {total:?}");
        }
    }
    if args.pretty {
        for item in result.iter() {
            match item {
                Item::Node(n) => print!("{}", xqr::xml::serialize::serialize_node_pretty(n)),
                Item::Atomic(a) => println!("{}", a.string_value()),
            }
        }
    } else {
        println!("{}", xqr::xml::serialize_sequence(&result));
    }
    if args.metrics {
        eprint!("{}", engine.metrics_prometheus());
    }
    Ok(())
}

/// Emits one wide-event JSON line to stderr when a run exceeded the
/// `--slow-query-ms` threshold: the query head, the canonical plan hash,
/// the wall clock, and the result cardinality.
fn slow_query_event(
    args: &Args,
    query: &str,
    prepared: &xqr::engine::PreparedQuery,
    elapsed: std::time::Duration,
    rows: usize,
) {
    let Some(threshold) = args.slow_query_ms else {
        return;
    };
    if (elapsed.as_millis() as u64) < threshold {
        return;
    }
    let head: String = query.chars().take(120).collect();
    eprintln!(
        "{{\"event\":\"slow-query\",\"wall_ms\":{:.3},\"threshold_ms\":{threshold},\
         \"rows\":{rows},\"plan_hash\":{},\"query\":\"{}\"}}",
        elapsed.as_secs_f64() * 1e3,
        match prepared.canonical_hash() {
            Some(h) => format!("\"{h:016x}\""),
            None => "null".to_string(),
        },
        xqr::xml::metrics::json_escape(&head)
    );
}

/// Binds every `--param` through the prepared-query parameter API,
/// casting the string value to the parameter's declared type (a bare
/// `declare variable $x external` without a type gets the string as-is).
fn bind_params(
    prepared: &mut xqr::engine::PreparedQuery,
    params: &[(String, String)],
) -> Result<(), String> {
    use xqr::types::{ItemType, SequenceType};
    for (name, val) in params {
        let declared: Option<SequenceType> = prepared
            .parameters()
            .into_iter()
            .find(|(n, _, _)| n.local_part() == name.as_str())
            .and_then(|(_, t, _)| t);
        let value = match declared {
            Some(SequenceType {
                item: ItemType::Atomic(t),
                ..
            }) => Sequence::singleton(
                xqr::types::cast::cast_from_string(val, t)
                    .map_err(|e| format!("--param {name}: {e}"))?,
            ),
            _ => Sequence::singleton(AtomicValue::string(val.as_str())),
        };
        prepared
            .bind_param(name, value)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
