//! Runs a query service behind a `QueryServer` and keeps an XMark
//! workload flowing so the scrape endpoints have live data — the target
//! CI curls during the observability job.
//!
//! ```sh
//! cargo run --example observe_scrape -- 127.0.0.1:9184 5
//! ```
//!
//! Arguments: the listen address (default `127.0.0.1:0`) and how many
//! seconds to keep serving (default 5). The bound address is printed on
//! the first line as `listening on <addr>` so a caller using port 0 can
//! discover the port. While running, the one listener answers:
//!
//! * `POST /query`   — run the XQuery in the request body
//! * `/metrics`      — Prometheus text exposition (process + service)
//! * `/metrics.json` — process-wide metrics registry as JSON
//! * `/observe.json` — the full lifecycle report: phase latency
//!   quantiles, the per-shape table, the journal, the slow-query log
//!
//! On exit it prints the final human-readable lifecycle report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xqr::engine::{QueryRequest, QueryServer, QueryService, ServerConfig, ServiceConfig};
use xqr::xmark::{generate, query, GenOptions, QUERY_COUNT};

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:0".to_string());
    let secs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(5).max(1);

    let svc = Arc::new(QueryService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServiceConfig::default()
    }));
    svc.bind_document("auction.xml", generate(&GenOptions::for_bytes(80_000)));

    let mut server = QueryServer::start(Arc::clone(&svc), addr.as_str(), ServerConfig::default())
        .expect("bind listener");
    println!("listening on {}", server.addr());

    // Keep a mixed workload flowing (with an occasional deliberately
    // slow-ish join) so scrapes observe moving counters.
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let n = 1 + i % QUERY_COUNT;
        if let Err(e) = svc.run(QueryRequest::new(query(n))) {
            eprintln!("Q{n}: {e}");
        }
        i += 1;
        std::thread::sleep(Duration::from_millis(10));
    }

    server.stop(None);
    println!("{}", svc.observe().render_text());
}
