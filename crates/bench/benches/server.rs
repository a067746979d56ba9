//! Network query frontend benchmark (hand-rolled harness).
//!
//! Measures the hardened TCP/HTTP frontend end to end — real sockets,
//! real connection threads, one request per connection — on three axes:
//!
//! 1. throughput and end-to-end latency quantiles of a mixed XMark
//!    workload at 1, 4, and 16 concurrent client connections;
//! 2. overload behaviour when 16 clients offer at roughly 2x the
//!    measured sustainable rate against a deliberately small queue:
//!    the shed rate and the guarantee that every reply is a *mapped*
//!    status (200 or 429 — nothing unexplained);
//! 3. drain latency: how long `QueryServer::stop` takes to quiesce a
//!    server under active load.
//!
//! Run with `cargo bench -p xqr-bench --bench server`; results are
//! written to `BENCH_server.json` at the repo root. `--test` runs a
//! scaled-down pass and skips the JSON (CI smoke).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xqr_engine::server::{QueryServer, ServerConfig};
use xqr_engine::service::{QueryService, ServiceConfig};

/// The service bench's mixed workload: path navigation (Q1, Q6), an
/// aggregate (Q5), a join (Q8), and construction-heavy shapes (Q13, Q17).
const QUERIES: &[usize] = &[1, 5, 6, 8, 13, 17];

fn start_server(workers: usize, queue: usize, xml: &str) -> (Arc<QueryService>, QueryServer) {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        workers,
        queue_capacity: queue,
        ..ServiceConfig::default()
    }));
    svc.bind_document("auction.xml", xml);
    let server = QueryServer::start(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
        .expect("bind benchmark server");
    (svc, server)
}

/// One POST /query over a fresh connection; returns the HTTP status.
fn post(addr: SocketAddr, query: &str) -> u16 {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return 0;
    };
    let req = format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{query}",
        query.len()
    );
    if stream.write_all(req.as_bytes()).is_err() {
        return 0;
    }
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    text.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1.0e6
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct ConnectionsRow {
    connections: usize,
    requests: usize,
    throughput_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// `connections` closed-loop clients each issue `per_conn` sequential
/// requests (connect, POST, read to EOF); latency is the full network
/// round trip including connection setup.
fn run_connections(xml: &str, connections: usize, per_conn: usize) -> ConnectionsRow {
    let (_svc, mut server) = start_server(4, connections * per_conn + 1, xml);
    let addr = server.addr();
    post(addr, "1"); // warm the listener and one worker engine
    let t0 = Instant::now();
    let threads: Vec<_> = (0..connections)
        .map(|c| {
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_conn);
                for i in 0..per_conn {
                    let q = xqr_xmark::query(QUERIES[(c + i) % QUERIES.len()]);
                    let t = Instant::now();
                    let status = post(addr, q);
                    assert_eq!(status, 200, "benchmark queries succeed");
                    latencies.push(t.elapsed().as_nanos() as u64);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    let wall = t0.elapsed();
    server.stop(None);
    latencies.sort_unstable();
    ConnectionsRow {
        connections,
        requests: connections * per_conn,
        throughput_qps: latencies.len() as f64 / wall.as_secs_f64(),
        p50_ms: ms(quantile(&latencies, 0.50)),
        p99_ms: ms(quantile(&latencies, 0.99)),
    }
}

struct OverloadRow {
    offered: usize,
    ok: usize,
    shed_429: usize,
    other: usize,
    shed_rate_pct: f64,
}

/// 16 clients pace a combined offered rate of ~2x `sustainable_qps`
/// against a 4-worker server with a small queue; every reply must be a
/// mapped 200 or 429 (`other` counts anything else and should be zero).
fn run_overload(xml: &str, sustainable_qps: f64, offered: usize) -> OverloadRow {
    let (_svc, mut server) = start_server(4, 8, xml);
    let addr = server.addr();
    post(addr, "1");
    const CLIENTS: usize = 16;
    let interval =
        Duration::from_secs_f64(CLIENTS as f64 / (2.0 * sustainable_qps.max(CLIENTS as f64)));
    let ok = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));
    let other = Arc::new(AtomicUsize::new(0));
    let per_client = offered.div_ceil(CLIENTS);
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (ok, shed, other) = (Arc::clone(&ok), Arc::clone(&shed), Arc::clone(&other));
            std::thread::spawn(move || {
                let t0 = Instant::now();
                for i in 0..per_client {
                    let q = xqr_xmark::query(QUERIES[(c + i) % QUERIES.len()]);
                    match post(addr, q) {
                        200 => ok.fetch_add(1, Ordering::Relaxed),
                        429 => shed.fetch_add(1, Ordering::Relaxed),
                        _ => other.fetch_add(1, Ordering::Relaxed),
                    };
                    // Spin-paced: `thread::sleep` overshoots
                    // sub-millisecond intervals badly enough to silently
                    // drop the offered rate well below 2x.
                    let next = t0 + interval.saturating_mul(i as u32 + 1);
                    while Instant::now() < next {
                        std::hint::spin_loop();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("offer thread");
    }
    server.stop(None);
    let (ok, shed_429, other) = (
        ok.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
        other.load(Ordering::Relaxed),
    );
    let offered = ok + shed_429 + other;
    OverloadRow {
        offered,
        ok,
        shed_429,
        other,
        shed_rate_pct: 100.0 * shed_429 as f64 / offered.max(1) as f64,
    }
}

struct DrainRow {
    conns_at_drain: usize,
    drained_queued: usize,
    cancelled: usize,
    drain_ms: f64,
}

/// Stops a server while 8 clients hammer it and reports how long the
/// two-stage drain (connections, then in-flight queries) takes.
fn run_drain(xml: &str) -> DrainRow {
    let (_svc, mut server) = start_server(4, 32, xml);
    let addr = server.addr();
    post(addr, "1");
    let stop = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..8)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    let q = xqr_xmark::query(QUERIES[(c + i) % QUERIES.len()]);
                    let _ = post(addr, q); // refusals expected once draining
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let t0 = Instant::now();
    let report = server.stop(Some(Duration::from_secs(5)));
    let drain_ms = t0.elapsed().as_secs_f64() * 1.0e3;
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().expect("load thread");
    }
    DrainRow {
        conns_at_drain: report.conns_at_drain,
        drained_queued: report.service.drained_queued,
        cancelled: report.service.cancelled,
        drain_ms,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let xml = xqr_xmark::generate(&xqr_xmark::GenOptions::for_bytes(if smoke {
        60_000
    } else {
        200_000
    }));
    let per_conn = if smoke { 4 } else { 24 };

    let rows: Vec<ConnectionsRow> = [1usize, 4, 16]
        .iter()
        .map(|&c| run_connections(&xml, c, per_conn))
        .collect();
    println!("server throughput vs connections ({per_conn} requests per connection):");
    for r in &rows {
        println!(
            "  conns {:>2}  {:>8.1} q/s   p50 {:>8.3} ms   p99 {:>8.3} ms",
            r.connections, r.throughput_qps, r.p50_ms, r.p99_ms
        );
    }

    // Overload: offer at 2x the 4-connection sustainable rate.
    let sustainable = rows[1].throughput_qps;
    let overload = run_overload(&xml, sustainable, if smoke { 32 } else { 160 });
    println!(
        "overload at ~2x: offered {}  ok {}  shed(429) {}  other {}  ({:.1}% shed)",
        overload.offered, overload.ok, overload.shed_429, overload.other, overload.shed_rate_pct
    );
    assert_eq!(
        overload.other, 0,
        "every overload reply must be a mapped 200 or 429"
    );

    let drain = run_drain(&xml);
    println!(
        "drain under load: {} conns open, {} queued shed, {} cancelled, stop took {:.1} ms",
        drain.conns_at_drain, drain.drained_queued, drain.cancelled, drain.drain_ms
    );

    if smoke {
        return;
    }

    let mut json = String::from("{\n  \"bench\": \"server\",\n  \"connections\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"connections\": {}, \"requests\": {}, \"throughput_qps\": {:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            r.connections,
            r.requests,
            r.throughput_qps,
            r.p50_ms,
            r.p99_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"overload_2x\": {{\"offered\": {}, \"ok\": {}, \"shed_429\": {}, \
         \"other\": {}, \"shed_rate_pct\": {:.1}}},\n",
        overload.offered, overload.ok, overload.shed_429, overload.other, overload.shed_rate_pct
    ));
    json.push_str(&format!(
        "  \"drain_under_load\": {{\"conns_at_drain\": {}, \"drained_queued\": {}, \
         \"cancelled\": {}, \"drain_ms\": {:.1}}}\n}}\n",
        drain.conns_at_drain, drain.drained_queued, drain.cancelled, drain.drain_ms
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, json).expect("write BENCH_server.json");
    println!("wrote {path}");
}
