//! What every workload shares: checking responses, turning latencies
//! into the end-to-end metrics, and attributing a trace to layers.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::golden::{Digest, Golden};
use crate::json::Value;
use crate::metrics::{END_TO_END, LAYERS};
use crate::span::{self_times, Span};
use crate::stats::{mean, median, percentile};
use crate::workload::Workload;

/// Fewest cold set-ups per run; `setup_s` is the median of all of them.
pub const SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;

/// Untimed passes between set-up and the measured window.
pub const WARMUP: Duration = Duration::from_secs(2);

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub warmup: Duration,
}

/// A finished run: the counts and metrics of the result line, and the
/// detail rows (`benchmark/out/…json`) the full report embeds.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub detail: Value,
}

/// Compares every response with its golden row. Errors, refusals and
/// mismatches are all failures; the first is kept for the report.
pub struct Checker<'a> {
    golden: &'a Golden,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl<'a> Checker<'a> {
    pub fn new(golden: &'a Golden) -> Checker<'a> {
        Checker {
            golden,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    pub fn check(&mut self, key: &str, got: Result<Digest, String>) -> bool {
        self.attempted += 1;
        let problem = match (got, self.golden.get(key)) {
            (Ok(d), Some(want)) if d == *want => return true,
            (Ok(d), Some(want)) => format!("{key}: got {d:?}, golden {want:?}"),
            (Ok(_), None) => format!("{key}: no golden row"),
            (Err(e), _) => format!("{key}: {e}"),
        };
        self.failed += 1;
        self.first_failure.get_or_insert(problem);
        false
    }

    pub fn absorb(&mut self, other: Checker<'_>) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Whether a run has timed enough cold set-ups: at least [`SETUPS`], and
/// more while they fit in [`SETUP_BUDGET_S`] — a 6 ms set-up is timed some
/// 150 times, since the median of nine such short spans is not steady.
pub fn enough_setups(seconds: &[f64]) -> bool {
    (seconds.len() >= SETUPS && seconds.iter().sum::<f64>() >= SETUP_BUDGET_S)
        || seconds.len() >= 200
}

/// Runs `setup` from cold and times it.
pub fn timed_setup<T>(seconds: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let product = setup();
    seconds.push(t.elapsed().as_secs_f64());
    product
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// What a measured window recorded.
pub struct Window {
    /// `(query, latency_ns)` of every correct request; `query` indexes
    /// [`Workload::queries`]. Sixteen bytes a sample, so that the
    /// harness's own bookkeeping stays small beside the memory measured.
    pub samples: Vec<(u16, u64)>,
    /// Duration of every whole pass (a client's whole cycle, when clients
    /// run side by side): the same work each time.
    pub passes_ns: Vec<u64>,
    pub requests_per_pass: usize,
    pub clients: usize,
    pub wall: Duration,
}

/// The end-to-end metrics and detail rows of a measured window.
///
/// `throughput_qps` is the rate at the median pass — requests in a pass
/// over the median pass time, times the clients running passes side by
/// side — not requests over wall time: a few seconds of a noisy
/// neighbour move the wall-time rate by their full length and the median
/// pass hardly at all. The wall-time rate is kept in the detail rows.
pub fn end_to_end(
    cfg: &RunConfig,
    window: &Window,
    setups: &[f64],
    peak_rss_mib: f64,
) -> (Vec<(String, f64)>, Value) {
    let Window { samples, wall, .. } = window;
    let mut sorted: Vec<u64> = samples.iter().map(|(_, ns)| *ns).collect();
    sorted.sort_unstable();
    let tail = |p: f64| percentile(&sorted, p).map(ms);
    // Below the sample floor the slowest request stands in, so a short
    // smoke run still prints a number; the detail row says which it was.
    let slowest = ms(*sorted.last().expect("a window has samples"));
    let p50 = tail(0.50).unwrap_or(slowest);
    let p95 = tail(0.95).unwrap_or(slowest);
    let passes: Vec<f64> = window.passes_ns.iter().map(|ns| *ns as f64 / 1e9).collect();
    let per_median_pass = (window.clients * window.requests_per_pass) as f64 / median(&passes);
    let values = [per_median_pass, p50, p95, median(setups), peak_rss_mib];
    debug_assert_eq!(values.len(), END_TO_END.len());
    let metrics = END_TO_END
        .iter()
        .map(|(name, _, _)| name.to_string())
        .zip(values)
        .collect();

    let by_query = group_by_query(cfg.workload, samples);
    let total_ms: f64 = by_query.iter().flat_map(|(_, v)| v).sum();
    let per_query = by_query
        .iter()
        .map(|(q, v)| {
            Value::obj([
                ("query", Value::str(q)),
                ("requests", Value::Num(v.len() as f64)),
                ("p50_ms", Value::Num(median(v))),
                ("time_share", Value::Num(v.iter().sum::<f64>() / total_ms)),
            ])
        })
        .collect();
    let detail = Value::obj([
        ("workload", Value::str(cfg.workload.name())),
        ("seed", Value::Num(cfg.seed as f64)),
        ("window_s", Value::Num(wall.as_secs_f64())),
        ("warmup_s", Value::Num(cfg.warmup.as_secs_f64())),
        ("clients", Value::Num(window.clients as f64)),
        ("samples", Value::Num(samples.len() as f64)),
        ("passes", Value::Num(passes.len() as f64)),
        (
            "wall_time_qps",
            Value::Num(samples.len() as f64 / wall.as_secs_f64()),
        ),
        ("p95_has_ten_beyond", Value::Bool(tail(0.95).is_some())),
        ("latency_p99_ms", tail(0.99).map_or(Value::Null, Value::Num)),
        (
            "setup_runs_s",
            Value::Arr(setups.iter().map(|s| Value::Num(*s)).collect()),
        ),
        ("per_query", Value::Arr(per_query)),
    ]);
    (metrics, detail)
}

/// Milliseconds per query shape, in [`Workload::queries`] order.
pub fn group_by_query(w: Workload, samples: &[(u16, u64)]) -> Vec<(String, Vec<f64>)> {
    let mut groups: Vec<(String, Vec<f64>)> =
        w.queries().into_iter().map(|q| (q, Vec::new())).collect();
    for (query, ns) in samples {
        groups[*query as usize].1.push(ms(*ns));
    }
    groups.retain(|(_, v)| !v.is_empty());
    groups
}

/// A trace attributed to layers. Every nanosecond of the `request` spans
/// lands in exactly one layer or in `unattributed_ns`, so the layers add
/// up to the requests' total time by construction; what is measured is
/// how much stays unattributed and whether a by-difference layer goes
/// negative.
pub struct Attribution {
    pub requests: u64,
    pub total_ns: f64,
    /// Signed: a layer taken by difference can come out below zero.
    pub layer_ns: Vec<(&'static str, f64)>,
    pub unattributed_ns: f64,
    /// Total duration by span name.
    pub by_name: HashMap<&'static str, (u64, f64)>,
}

impl Attribution {
    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(n, ns)| ns / (*n).max(1) as f64 / 1e3)
    }

    pub fn per_request_us(&self, ns: f64) -> f64 {
        ns / self.requests.max(1) as f64 / 1e3
    }
}

/// Span names the attribution knows. A request is
/// `request → {http → {http.*}, engine.prepare, runtime.run,
/// xml.serialize, bench.digest}`; beside it, under roots of their own,
/// sit the replays of the same request one layer down: `service` (the
/// request through `QueryService::run`), `engine` (on a bare `Engine`)
/// and `staged` (the prepare pipeline stage by stage). A layer that
/// cannot be timed from outside is the difference between two replays.
pub fn attribute(spans: &[Span]) -> Attribution {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, (u64, f64)> = HashMap::new();
    let mut self_by_name: HashMap<&'static str, f64> = HashMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.nanos() as f64;
        *self_by_name.entry(s.name).or_default() += *own as f64;
    }
    let dur = |name: &str| by_name.get(name).map_or(0.0, |(_, ns)| *ns);
    let own = |name: &str| self_by_name.get(name).copied().unwrap_or(0.0);

    let frontend = dur("frontend.parse") + dur("frontend.normalize");
    let core = dur("core.compile") + dur("core.rewrite") + dur("core.canon");
    let layer = |name: &str| match name {
        "engine.server" => dur("http") - dur("service"),
        "engine.service" => dur("service") - dur("engine"),
        "engine.prepare" => dur("engine.prepare") - frontend - core,
        "frontend" => frontend,
        "core" => core,
        "runtime" => dur("runtime.run"),
        "xml" => dur("xml.serialize"),
        "bench" => dur("bench.digest"),
        other => unreachable!("unknown layer {other}"),
    };
    Attribution {
        requests: by_name.get("request").map_or(0, |(n, _)| *n),
        total_ns: dur("request"),
        layer_ns: LAYERS.iter().map(|l| (*l, layer(l))).collect(),
        unattributed_ns: own("request") + own("engine"),
        by_name,
    }
}

/// Mean of the `request` spans' durations and their median, in µs.
pub fn request_times_us(spans: &[Span]) -> (f64, f64) {
    let us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.nanos() as f64 / 1e3)
        .collect();
    if us.is_empty() {
        return (0.0, 0.0);
    }
    (mean(&us), median(&us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Trace;

    fn golden() -> Golden {
        crate::golden::parse("Q1\t1\t3\t00000000000000ff\n").unwrap()
    }

    #[test]
    fn checker_counts_every_kind_of_failure() {
        let g = golden();
        let mut c = Checker::new(&g);
        let good = Digest {
            items: 1,
            bytes: 3,
            fnv: 0xff,
        };
        assert!(c.check("Q1", Ok(good)));
        assert!(!c.check("Q1", Ok(Digest { fnv: 1, ..good })));
        assert!(!c.check("Q2", Ok(good)));
        assert!(!c.check("Q1", Err("HTTP 429".into())));
        assert_eq!((c.attempted, c.failed), (4, 3));
        assert!(c.first_failure.as_deref().unwrap().starts_with("Q1: got"));
        let mut total = Checker::new(&g);
        total.absorb(c);
        assert_eq!((total.attempted, total.failed), (4, 3));
    }

    /// A served request with its three replays, built by hand: the
    /// layers must add up to the request and each difference must be
    /// the one the module comment names.
    #[test]
    fn layers_add_up_to_the_request() {
        let mut t = Trace::new();
        let req = t.record(0, "request", None, 0, 1000);
        let http = t.record(0, "http", Some(req), 10, 900);
        t.record(0, "http.connect", Some(http), 10, 60);
        t.record(0, "http.first_byte", Some(http), 100, 850);
        t.record(0, "bench.digest", Some(req), 910, 990);
        let svc = t.record(0, "service", None, 2000, 2500);
        t.record(0, "service.queue", Some(svc), 2010, 2050);
        let eng = t.record(0, "engine", None, 3000, 3300);
        t.record(0, "engine.prepare", Some(eng), 3000, 3020);
        t.record(0, "runtime.run", Some(eng), 3020, 3220);
        t.record(0, "xml.serialize", Some(eng), 3220, 3290);
        let a = attribute(&t.spans);
        let layer = |n: &str| a.layer_ns.iter().find(|(l, _)| *l == n).unwrap().1;
        assert_eq!(a.requests, 1);
        assert_eq!(layer("engine.server"), 890.0 - 500.0);
        assert_eq!(layer("engine.service"), 500.0 - 300.0);
        assert_eq!(layer("engine.prepare"), 20.0);
        assert_eq!(layer("runtime"), 200.0);
        assert_eq!(layer("xml"), 70.0);
        assert_eq!(layer("bench"), 80.0);
        // request self 30 (1000 − 890 − 80) + engine self 10.
        assert_eq!(a.unattributed_ns, 40.0);
        let sum: f64 = a.layer_ns.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum + a.unattributed_ns, a.total_ns);
    }

    #[test]
    fn staged_stages_come_out_of_the_prepare_call() {
        let mut t = Trace::new();
        let req = t.record(0, "request", None, 0, 500);
        t.record(0, "engine.prepare", Some(req), 0, 300);
        t.record(0, "runtime.run", Some(req), 300, 480);
        let staged = t.record(0, "staged", None, 600, 900);
        t.record(0, "frontend.parse", Some(staged), 600, 700);
        t.record(0, "core.compile", Some(staged), 700, 850);
        let a = attribute(&t.spans);
        let layer = |n: &str| a.layer_ns.iter().find(|(l, _)| *l == n).unwrap().1;
        assert_eq!(layer("frontend"), 100.0);
        assert_eq!(layer("core"), 150.0);
        assert_eq!(layer("engine.prepare"), 50.0);
        assert_eq!(layer("engine.server"), 0.0);
        let sum: f64 = a.layer_ns.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum + a.unattributed_ns, a.total_ns);
        assert_eq!(request_times_us(&t.spans), (0.5, 0.5));
    }
}
