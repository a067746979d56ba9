//! Service-level query lifecycle observability.
//!
//! Every submission the [`crate::service::QueryService`] admits carries a
//! `QueryId` (the ticket id) through its whole lifecycle — admission →
//! queue → dispatch → prepare → execute → serialize — and finishes as a
//! [`QueryTimeline`]: one wide event holding the per-phase durations, the
//! canonical plan hash, the memory reservation, the plan-cache outcome,
//! spill/fallback flags, and the error code if any. Completed timelines
//! land in three sinks:
//!
//! * **per-phase latency histograms** — log-linear HDR-style
//!   ([`xqr_xml::metrics::LatencyHistogram`], ≤ 6.25% relative error)
//!   for admit, queue, prepare, execute, serialize, and total, giving
//!   p50/p95/p99 per phase without storing raw samples;
//! * **a per-plan-shape statistics table** keyed by the canonical plan
//!   hash — invocations, errors, rows, cache hits, spill/fallback counts,
//!   and a latency histogram per shape. The same hash appears in
//!   `EXPLAIN` and in profile JSON, so shape rows join to `EXPLAIN
//!   ANALYZE` output directly;
//! * **a bounded journal** (ring buffer) of recent timelines, plus a
//!   separate **slow-query log** of timelines whose total exceeded
//!   [`ObserveConfig::slow_query`] (or that were sampled in via
//!   [`ObserveConfig::sample_every`]).
//!
//! Everything is snapshotted by [`ObserveReport`] and rendered as JSON or
//! Prometheus text; [`crate::server::QueryServer`] serves both at
//! `/observe.json` and `/metrics`. Every latency series goes through
//! [`HistogramSnapshot::write_prometheus`], the writer the process-wide
//! registry uses too. Recording is a handful of atomics plus one short
//! mutex hold per *completed query* — nothing touches the per-tuple path
//! — so the layer stays on by default; the benchmark of record prices it
//! per request as `serve-hot`'s `service.observe_us`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use xqr_xml::metrics::{json_escape, HistogramSnapshot, LatencyHistogram, ShedReason};

/// Tuning for the service observability layer.
#[derive(Clone, Debug)]
pub struct ObserveConfig {
    /// Master switch: `false` skips timelines, histograms, journal, and
    /// shape accounting entirely (the scrape surface then serves only the
    /// process-wide counters).
    pub enabled: bool,
    /// Completed timelines retained in the journal ring.
    pub journal_capacity: usize,
    /// Timelines retained in the slow-query log ring.
    pub slow_log_capacity: usize,
    /// Total-latency threshold above which a completed timeline is copied
    /// into the slow-query log. `None` disables threshold capture.
    pub slow_query: Option<Duration>,
    /// Also capture every Nth completed timeline into the slow-query log
    /// regardless of latency (wide-event sampling). 0 disables sampling.
    pub sample_every: u64,
    /// Query text is truncated to this many bytes in timelines (wide
    /// events carry the head of the text, not an unbounded copy).
    pub max_query_text: usize,
    /// Distinct plan shapes tracked in the statistics table; shapes seen
    /// past the cap are counted in `shapes_dropped` instead of growing
    /// the table without bound.
    pub max_shapes: usize,
}

impl Default for ObserveConfig {
    fn default() -> ObserveConfig {
        ObserveConfig {
            enabled: true,
            journal_capacity: 256,
            slow_log_capacity: 64,
            slow_query: Some(Duration::from_millis(250)),
            sample_every: 0,
            max_query_text: 120,
            max_shapes: 512,
        }
    }
}

/// Lifecycle phases a query moves through inside the service. `Total`
/// covers admission + queue + worker-side run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecyclePhase {
    Admit,
    Queue,
    Prepare,
    Execute,
    Serialize,
    Total,
}

/// All phases, in pipeline order (also the histogram index order).
pub const LIFECYCLE_PHASES: [LifecyclePhase; 6] = [
    LifecyclePhase::Admit,
    LifecyclePhase::Queue,
    LifecyclePhase::Prepare,
    LifecyclePhase::Execute,
    LifecyclePhase::Serialize,
    LifecyclePhase::Total,
];

impl LifecyclePhase {
    pub fn label(self) -> &'static str {
        match self {
            LifecyclePhase::Admit => "admit",
            LifecyclePhase::Queue => "queue",
            LifecyclePhase::Prepare => "prepare",
            LifecyclePhase::Execute => "execute",
            LifecyclePhase::Serialize => "serialize",
            LifecyclePhase::Total => "total",
        }
    }

    fn index(self) -> usize {
        match self {
            LifecyclePhase::Admit => 0,
            LifecyclePhase::Queue => 1,
            LifecyclePhase::Prepare => 2,
            LifecyclePhase::Execute => 3,
            LifecyclePhase::Serialize => 4,
            LifecyclePhase::Total => 5,
        }
    }
}

/// One completed (or terminally rejected) submission as a wide event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTimeline {
    /// The ticket id ([`crate::service::QueryTicket::id`]); profiles run
    /// with this id set carry it in their JSON, so `EXPLAIN ANALYZE`
    /// output joins to this entry.
    pub id: u64,
    /// Head of the query text (truncated to the configured bound).
    pub query: String,
    /// Canonical plan hash once preparation succeeded (`None` for
    /// prepare-time failures and pre-dispatch rejections); joins to the
    /// plan-shape table, `EXPLAIN`, and the breaker registry.
    pub plan_hash: Option<u64>,
    /// Admitted memory reservation in bytes.
    pub reservation: u64,
    /// Admission-decision duration (inside `submit`).
    pub admit_nanos: u64,
    /// Time spent queued before a worker picked the job up (or before it
    /// was drained/expired).
    pub queue_nanos: u64,
    pub prepare_nanos: u64,
    pub execute_nanos: u64,
    pub serialize_nanos: u64,
    /// Admission + queue + worker-side wall time.
    pub total_nanos: u64,
    /// Result rows (0 on failure).
    pub rows: u64,
    /// Plan-cache outcome: `"hit"`, `"rehydrated"`, `"miss"`, or `"none"`
    /// (never reached preparation / cache disabled).
    pub cache: &'static str,
    /// Stable error code (`XQRG*`, `XPST*`, …), `"internal"`, or
    /// `"syntax"`; `None` for success.
    pub error: Option<String>,
    /// The run crossed the spill watermark.
    pub spilled: bool,
    /// The run was retried with spilling disabled after a spill I/O
    /// failure.
    pub fell_back: bool,
    /// Whether a worker actually executed the query (false: shed while
    /// queued, deadline expired in queue, cancelled, drained at
    /// shutdown).
    pub dispatched: bool,
    /// Completion wall-clock time (ms since the Unix epoch).
    pub finished_unix_ms: u64,
}

impl QueryTimeline {
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"id\":{},\"query\":\"{}\",\"plan_hash\":{},\"reservation\":{},\
             \"admit_nanos\":{},\"queue_nanos\":{},\"prepare_nanos\":{},\
             \"execute_nanos\":{},\"serialize_nanos\":{},\"total_nanos\":{},\
             \"rows\":{},\"cache\":\"{}\",\"error\":{},\"spilled\":{},\
             \"fell_back\":{},\"dispatched\":{},\"finished_unix_ms\":{}",
            self.id,
            json_escape(&self.query),
            match self.plan_hash {
                Some(h) => format!("\"{h:016x}\""),
                None => "null".to_string(),
            },
            self.reservation,
            self.admit_nanos,
            self.queue_nanos,
            self.prepare_nanos,
            self.execute_nanos,
            self.serialize_nanos,
            self.total_nanos,
            self.rows,
            self.cache,
            match &self.error {
                Some(e) => format!("\"{}\"", json_escape(e)),
                None => "null".to_string(),
            },
            self.spilled,
            self.fell_back,
            self.dispatched,
            self.finished_unix_ms
        );
        s.push('}');
        s
    }
}

/// Latency histogram of one lifecycle phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseLatency {
    pub phase: &'static str,
    pub latency: HistogramSnapshot,
}

impl PhaseLatency {
    fn to_json(&self) -> String {
        format!(
            "{{\"phase\":\"{}\",{}}}",
            self.phase,
            self.latency.json_members()
        )
    }
}

/// One row of the per-plan-shape statistics table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeStats {
    /// Canonical plan hash — the join key against `EXPLAIN` output,
    /// profile JSON, and the circuit-breaker registry.
    pub plan_hash: u64,
    pub invocations: u64,
    pub errors: u64,
    pub rows: u64,
    pub cache_hits: u64,
    pub spills: u64,
    pub fallbacks: u64,
    /// Worker-side (prepare + execute + serialize) latency.
    pub latency: HistogramSnapshot,
    /// Breaker state for this shape: `"closed"`, `"open"`, `"half-open"`.
    pub breaker: &'static str,
    /// Most recent error code recorded for this shape.
    pub last_error: Option<String>,
    /// Head of the first query text seen compiling to this shape.
    pub example_query: String,
}

impl ShapeStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"plan_hash\":\"{:016x}\",\"invocations\":{},\"errors\":{},\"rows\":{},\
             \"cache_hits\":{},\"spills\":{},\"fallbacks\":{},{},\
             \"breaker\":\"{}\",\"last_error\":{},\"example_query\":\"{}\"}}",
            self.plan_hash,
            self.invocations,
            self.errors,
            self.rows,
            self.cache_hits,
            self.spills,
            self.fallbacks,
            self.latency.json_members(),
            self.breaker,
            match &self.last_error {
                Some(e) => format!("\"{}\"", json_escape(e)),
                None => "null".to_string(),
            },
            json_escape(&self.example_query)
        )
    }
}

/// A frozen view of everything the observability layer knows, plus the
/// service gauges filled in by `QueryService::observe`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObserveReport {
    pub admitted: u64,
    pub shed: u64,
    pub shed_queue_full: u64,
    pub shed_reservation: u64,
    pub shed_deadline: u64,
    pub shed_shutdown: u64,
    pub completed_ok: u64,
    pub completed_err: u64,
    /// Shapes seen past `max_shapes` and not tracked individually.
    pub shapes_dropped: u64,
    // Service gauges (point-in-time, filled by the service).
    pub queue_depth: usize,
    pub reserved_bytes: u64,
    pub doc_cache_bytes: u64,
    pub known_plan_shapes: usize,
    pub open_breakers: usize,
    pub phases: Vec<PhaseLatency>,
    /// Shape table, most-invoked first.
    pub shapes: Vec<ShapeStats>,
    /// Most recent completed timelines, oldest first.
    pub journal: Vec<QueryTimeline>,
    /// Slow/sampled wide events, oldest first.
    pub slow: Vec<QueryTimeline>,
}

impl ObserveReport {
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"admitted\":{},\"shed\":{},\"shed_queue_full\":{},\"shed_reservation\":{},\
             \"shed_deadline\":{},\"shed_shutdown\":{},\"completed_ok\":{},\
             \"completed_err\":{},\"shapes_dropped\":{},\"queue_depth\":{},\
             \"reserved_bytes\":{},\"doc_cache_bytes\":{},\"known_plan_shapes\":{},\
             \"open_breakers\":{}",
            self.admitted,
            self.shed,
            self.shed_queue_full,
            self.shed_reservation,
            self.shed_deadline,
            self.shed_shutdown,
            self.completed_ok,
            self.completed_err,
            self.shapes_dropped,
            self.queue_depth,
            self.reserved_bytes,
            self.doc_cache_bytes,
            self.known_plan_shapes,
            self.open_breakers
        );
        for (key, items) in [
            (
                "phases",
                self.phases.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
            ),
            (
                "shapes",
                self.shapes.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
            ),
            (
                "journal",
                self.journal.iter().map(|t| t.to_json()).collect::<Vec<_>>(),
            ),
            (
                "slow",
                self.slow.iter().map(|t| t.to_json()).collect::<Vec<_>>(),
            ),
        ] {
            let _ = write!(s, ",\"{key}\":[{}]", items.join(","));
        }
        s.push('}');
        s
    }

    /// Service-local Prometheus series (the phase and shape histograms in
    /// summary form), appended to the process-wide exposition by
    /// `QueryService::prometheus_text`.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "# TYPE xqr_service_sheds_total counter");
        for (reason, v) in [
            ("queue-full", self.shed_queue_full),
            ("unservable-reservation", self.shed_reservation),
            ("ewma-deadline", self.shed_deadline),
            ("shutdown", self.shed_shutdown),
        ] {
            let _ = writeln!(s, "xqr_service_sheds_total{{reason=\"{reason}\"}} {v}");
        }
        for (name, v) in [
            ("admitted_total", self.admitted),
            ("completed_ok_total", self.completed_ok),
            ("completed_err_total", self.completed_err),
        ] {
            let _ = writeln!(
                s,
                "# TYPE xqr_service_{name} counter\nxqr_service_{name} {v}"
            );
        }
        let _ = writeln!(
            s,
            "# TYPE xqr_service_reserved_bytes gauge\nxqr_service_reserved_bytes {}",
            self.reserved_bytes
        );
        let _ = writeln!(s, "# TYPE xqr_service_phase_latency_seconds summary");
        for p in &self.phases {
            p.latency.write_prometheus(
                &mut s,
                "xqr_service_phase_latency_seconds",
                &format!("phase=\"{}\"", p.phase),
            );
        }
        let _ = writeln!(s, "# TYPE xqr_service_shape_invocations_total counter");
        for sh in &self.shapes {
            let _ = writeln!(
                s,
                "xqr_service_shape_invocations_total{{plan=\"{:016x}\"}} {}",
                sh.plan_hash, sh.invocations
            );
        }
        let _ = writeln!(s, "# TYPE xqr_service_shape_latency_seconds summary");
        for sh in &self.shapes {
            sh.latency.write_prometheus(
                &mut s,
                "xqr_service_shape_latency_seconds",
                &format!("plan=\"{:016x}\"", sh.plan_hash),
            );
        }
        s
    }

    /// Human-readable dump: counters, the per-phase quantile table, the
    /// shape table, and the slow-query log.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        fn ms(n: u64) -> f64 {
            n as f64 / 1e6
        }
        let mut s = String::new();
        let _ = writeln!(
            s,
            "admitted {}  ok {}  err {}  shed {} (queue-full {}, reservation {}, \
             ewma-deadline {}, shutdown {})",
            self.admitted,
            self.completed_ok,
            self.completed_err,
            self.shed,
            self.shed_queue_full,
            self.shed_reservation,
            self.shed_deadline,
            self.shed_shutdown
        );
        let _ = writeln!(
            s,
            "queue depth {}  reserved {} B  doc cache {} B  shapes {}  open breakers {}",
            self.queue_depth,
            self.reserved_bytes,
            self.doc_cache_bytes,
            self.known_plan_shapes,
            self.open_breakers
        );
        let _ = writeln!(
            s,
            "phase        count        p50        p95        p99        max"
        );
        for p in &self.phases {
            let h = &p.latency;
            let _ = writeln!(
                s,
                "{:<10} {:>7} {:>9.3}ms {:>9.3}ms {:>9.3}ms {:>9.3}ms",
                p.phase,
                h.count,
                ms(h.quantile(0.50)),
                ms(h.quantile(0.95)),
                ms(h.quantile(0.99)),
                ms(h.max)
            );
        }
        for sh in &self.shapes {
            let _ = writeln!(
                s,
                "shape {:016x}  n={} err={} rows={} hits={} spills={} fallbacks={} \
                 p50={:.3}ms p99={:.3}ms breaker={}  {}",
                sh.plan_hash,
                sh.invocations,
                sh.errors,
                sh.rows,
                sh.cache_hits,
                sh.spills,
                sh.fallbacks,
                ms(sh.latency.quantile(0.50)),
                ms(sh.latency.quantile(0.99)),
                sh.breaker,
                sh.example_query
            );
        }
        for t in &self.slow {
            let _ = writeln!(s, "slow {}", t.to_json());
        }
        s
    }
}

struct ShapeAccum {
    invocations: u64,
    errors: u64,
    rows: u64,
    cache_hits: u64,
    spills: u64,
    fallbacks: u64,
    hist: LatencyHistogram,
    last_error: Option<String>,
    example_query: String,
}

/// The always-on accumulator a [`crate::service::QueryService`] owns.
/// Shared across worker threads: counters and histograms are atomic, the
/// journal/shape sinks take a short mutex per completed query.
pub(crate) struct ServiceObservability {
    cfg: ObserveConfig,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_reservation: AtomicU64,
    shed_deadline: AtomicU64,
    shed_shutdown: AtomicU64,
    completed_ok: AtomicU64,
    completed_err: AtomicU64,
    shapes_dropped: AtomicU64,
    completed_seq: AtomicU64,
    hist: [LatencyHistogram; 6],
    journal: Mutex<VecDeque<QueryTimeline>>,
    slow: Mutex<VecDeque<QueryTimeline>>,
    shapes: Mutex<HashMap<u64, ShapeAccum>>,
}

impl ServiceObservability {
    pub(crate) fn new(cfg: ObserveConfig) -> ServiceObservability {
        ServiceObservability {
            cfg,
            admitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_reservation: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_shutdown: AtomicU64::new(0),
            completed_ok: AtomicU64::new(0),
            completed_err: AtomicU64::new(0),
            shapes_dropped: AtomicU64::new(0),
            completed_seq: AtomicU64::new(0),
            hist: std::array::from_fn(|_| LatencyHistogram::new()),
            journal: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
            shapes: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Truncates query text to the configured wide-event bound (on a char
    /// boundary).
    pub(crate) fn clip_query(&self, q: &str) -> String {
        let mut end = self.cfg.max_query_text.min(q.len());
        while end < q.len() && !q.is_char_boundary(end) {
            end += 1;
        }
        q[..end].to_string()
    }

    /// Counts one admission. The service calls this under its queue lock,
    /// before the job is pushed, so no worker can complete the job first.
    pub(crate) fn record_admitted(&self) {
        if self.cfg.enabled {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the admission-decision duration — for admitted *and* shed
    /// submissions, so overload leaves a latency trace too.
    pub(crate) fn record_admit_decision(&self, nanos: u64) {
        if self.cfg.enabled {
            self.hist[LifecyclePhase::Admit.index()].record(nanos);
        }
    }

    pub(crate) fn record_shed(&self, reason: ShedReason) {
        if !self.cfg.enabled {
            return;
        }
        let c = match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::Reservation => &self.shed_reservation,
            ShedReason::Deadline => &self.shed_deadline,
            ShedReason::Shutdown => &self.shed_shutdown,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Ingests a finished timeline: phase histograms, shape table, the
    /// journal ring, and the slow-query log.
    pub(crate) fn complete(&self, tl: QueryTimeline) {
        if !self.cfg.enabled {
            return;
        }
        // `Release`: a report that sees this completion also sees the
        // admission that preceded it (see `report`).
        if tl.error.is_none() {
            self.completed_ok.fetch_add(1, Ordering::Release);
        } else {
            self.completed_err.fetch_add(1, Ordering::Release);
        }
        self.hist[LifecyclePhase::Queue.index()].record(tl.queue_nanos);
        self.hist[LifecyclePhase::Total.index()].record(tl.total_nanos);
        if tl.dispatched {
            self.hist[LifecyclePhase::Prepare.index()].record(tl.prepare_nanos);
            self.hist[LifecyclePhase::Execute.index()].record(tl.execute_nanos);
            self.hist[LifecyclePhase::Serialize.index()].record(tl.serialize_nanos);
        }
        if let Some(hash) = tl.plan_hash {
            let mut shapes = self.shapes.lock().unwrap_or_else(|p| p.into_inner());
            let len = shapes.len();
            match shapes.entry(hash) {
                std::collections::hash_map::Entry::Vacant(_) if len >= self.cfg.max_shapes => {
                    self.shapes_dropped.fetch_add(1, Ordering::Relaxed);
                }
                e => {
                    let acc = e.or_insert_with(|| ShapeAccum {
                        invocations: 0,
                        errors: 0,
                        rows: 0,
                        cache_hits: 0,
                        spills: 0,
                        fallbacks: 0,
                        hist: LatencyHistogram::new(),
                        last_error: None,
                        example_query: tl.query.clone(),
                    });
                    acc.invocations += 1;
                    acc.rows += tl.rows;
                    acc.cache_hits += u64::from(tl.cache == "hit");
                    acc.spills += u64::from(tl.spilled);
                    acc.fallbacks += u64::from(tl.fell_back);
                    acc.hist
                        .record(tl.prepare_nanos + tl.execute_nanos + tl.serialize_nanos);
                    if let Some(e) = &tl.error {
                        acc.errors += 1;
                        acc.last_error = Some(e.clone());
                    }
                }
            }
        }
        let seq = self.completed_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let slow_hit = self
            .cfg
            .slow_query
            .is_some_and(|t| tl.total_nanos >= t.as_nanos() as u64)
            || (self.cfg.sample_every > 0 && seq.is_multiple_of(self.cfg.sample_every));
        if slow_hit && self.cfg.slow_log_capacity > 0 {
            let mut slow = self.slow.lock().unwrap_or_else(|p| p.into_inner());
            if slow.len() >= self.cfg.slow_log_capacity {
                slow.pop_front();
            }
            slow.push_back(tl.clone());
        }
        if self.cfg.journal_capacity > 0 {
            let mut journal = self.journal.lock().unwrap_or_else(|p| p.into_inner());
            if journal.len() >= self.cfg.journal_capacity {
                journal.pop_front();
            }
            journal.push_back(tl);
        }
    }

    /// Freezes the layer's state (gauges and breaker states are filled in
    /// by the service). Reads shapes, then completions, then `admitted`:
    /// every completion is counted before its shape row and after its
    /// admission, so the snapshot satisfies `invocations ≤ completed ≤
    /// admitted` however it interleaves with running queries.
    pub(crate) fn report(&self) -> ObserveReport {
        let mut shapes: Vec<ShapeStats> = {
            let map = self.shapes.lock().unwrap_or_else(|p| p.into_inner());
            map.iter()
                .map(|(&hash, acc)| ShapeStats {
                    plan_hash: hash,
                    invocations: acc.invocations,
                    errors: acc.errors,
                    rows: acc.rows,
                    cache_hits: acc.cache_hits,
                    spills: acc.spills,
                    fallbacks: acc.fallbacks,
                    latency: acc.hist.snapshot(),
                    breaker: "closed",
                    last_error: acc.last_error.clone(),
                    example_query: acc.example_query.clone(),
                })
                .collect()
        };
        shapes.sort_by(|a, b| {
            b.invocations
                .cmp(&a.invocations)
                .then(a.plan_hash.cmp(&b.plan_hash))
        });
        let completed_ok = self.completed_ok.load(Ordering::Acquire);
        let completed_err = self.completed_err.load(Ordering::Acquire);
        let admitted = self.admitted.load(Ordering::Relaxed);
        let shed_queue_full = self.shed_queue_full.load(Ordering::Relaxed);
        let shed_reservation = self.shed_reservation.load(Ordering::Relaxed);
        let shed_deadline = self.shed_deadline.load(Ordering::Relaxed);
        let shed_shutdown = self.shed_shutdown.load(Ordering::Relaxed);
        ObserveReport {
            admitted,
            shed: shed_queue_full + shed_reservation + shed_deadline + shed_shutdown,
            shed_queue_full,
            shed_reservation,
            shed_deadline,
            shed_shutdown,
            completed_ok,
            completed_err,
            shapes_dropped: self.shapes_dropped.load(Ordering::Relaxed),
            queue_depth: 0,
            reserved_bytes: 0,
            doc_cache_bytes: 0,
            known_plan_shapes: 0,
            open_breakers: 0,
            phases: LIFECYCLE_PHASES
                .iter()
                .map(|p| PhaseLatency {
                    phase: p.label(),
                    latency: self.hist[p.index()].snapshot(),
                })
                .collect(),
            shapes,
            journal: self
                .journal
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .cloned()
                .collect(),
            slow: self
                .slow
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .cloned()
                .collect(),
        }
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub(crate) fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(id: u64, total_ms: u64, hash: Option<u64>, error: Option<&str>) -> QueryTimeline {
        QueryTimeline {
            id,
            query: format!("q{id}"),
            plan_hash: hash,
            reservation: 1024,
            admit_nanos: 500,
            queue_nanos: 10_000,
            prepare_nanos: 20_000,
            execute_nanos: total_ms * 1_000_000,
            serialize_nanos: 5_000,
            total_nanos: total_ms * 1_000_000 + 35_500,
            rows: 3,
            cache: "hit",
            error: error.map(str::to_string),
            spilled: false,
            fell_back: false,
            dispatched: true,
            finished_unix_ms: 1,
        }
    }

    #[test]
    fn journal_is_bounded_and_ordered() {
        let obs = ServiceObservability::new(ObserveConfig {
            journal_capacity: 4,
            slow_query: None,
            ..ObserveConfig::default()
        });
        for i in 0..10 {
            obs.complete(timeline(i, 1, Some(7), None));
        }
        let r = obs.report();
        assert_eq!(r.journal.len(), 4);
        let ids: Vec<u64> = r.journal.iter().map(|t| t.id).collect();
        assert_eq!(
            ids,
            vec![6, 7, 8, 9],
            "ring keeps the most recent, oldest first"
        );
        assert_eq!(r.completed_ok, 10);
        assert_eq!(r.shapes.len(), 1);
        assert_eq!(r.shapes[0].invocations, 10);
        assert_eq!(r.shapes[0].rows, 30);
        assert_eq!(r.shapes[0].cache_hits, 10);
    }

    #[test]
    fn slow_log_threshold_and_sampling() {
        let obs = ServiceObservability::new(ObserveConfig {
            slow_query: Some(Duration::from_millis(50)),
            slow_log_capacity: 8,
            ..ObserveConfig::default()
        });
        obs.complete(timeline(1, 1, None, None)); // fast: not captured
        obs.complete(timeline(2, 80, None, None)); // slow: captured
        let r = obs.report();
        assert_eq!(r.slow.len(), 1);
        assert_eq!(r.slow[0].id, 2);

        let sampled = ServiceObservability::new(ObserveConfig {
            slow_query: None,
            sample_every: 3,
            ..ObserveConfig::default()
        });
        for i in 0..9 {
            sampled.complete(timeline(i, 1, None, None));
        }
        assert_eq!(sampled.report().slow.len(), 3, "every 3rd sampled");
    }

    #[test]
    fn errors_and_shape_cap() {
        let obs = ServiceObservability::new(ObserveConfig {
            max_shapes: 2,
            slow_query: None,
            ..ObserveConfig::default()
        });
        obs.complete(timeline(1, 1, Some(1), Some("XQRG0003")));
        obs.complete(timeline(2, 1, Some(2), None));
        obs.complete(timeline(3, 1, Some(3), None)); // over the cap
        let r = obs.report();
        assert_eq!(r.completed_ok, 2);
        assert_eq!(r.completed_err, 1);
        assert_eq!(r.shapes.len(), 2);
        assert_eq!(r.shapes_dropped, 1);
        let errored = r.shapes.iter().find(|s| s.plan_hash == 1).unwrap();
        assert_eq!(errored.errors, 1);
        assert_eq!(errored.last_error.as_deref(), Some("XQRG0003"));
    }

    #[test]
    fn disabled_layer_records_nothing() {
        let obs = ServiceObservability::new(ObserveConfig {
            enabled: false,
            ..ObserveConfig::default()
        });
        obs.record_admitted();
        obs.record_admit_decision(10);
        obs.record_shed(ShedReason::QueueFull);
        obs.complete(timeline(1, 1, Some(7), None));
        let r = obs.report();
        assert_eq!(r.admitted, 0);
        assert_eq!(r.shed, 0);
        assert_eq!(r.completed_ok, 0);
        assert!(r.journal.is_empty());
        assert!(r.shapes.is_empty());
    }

    #[test]
    fn report_json_and_prometheus_render() {
        let obs = ServiceObservability::new(ObserveConfig {
            slow_query: Some(Duration::ZERO),
            ..ObserveConfig::default()
        });
        obs.record_admitted();
        obs.record_admit_decision(700);
        obs.complete(timeline(1, 2, Some(0xabcd), None));
        let r = obs.report();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"phases\":["));
        assert!(j.contains("\"plan_hash\":\"000000000000abcd\""));
        assert!(j.contains("\"journal\":[{"));
        assert!(j.contains("\"slow\":[{"));
        let p = r.prometheus_text();
        assert!(p.contains("xqr_service_admitted_total 1"));
        assert!(
            p.contains("xqr_service_phase_latency_seconds{phase=\"execute\",quantile=\"0.99\"}")
        );
        assert!(p.contains("xqr_service_shape_invocations_total{plan=\"000000000000abcd\"} 1"));
        assert!(!r.render_text().is_empty());
    }

    #[test]
    fn clip_query_respects_char_boundaries() {
        let obs = ServiceObservability::new(ObserveConfig {
            max_query_text: 5,
            ..ObserveConfig::default()
        });
        assert_eq!(obs.clip_query("abcdefgh"), "abcde");
        // 'é' is 2 bytes; the cut lands mid-char and must move forward.
        assert_eq!(obs.clip_query("abcdéf"), "abcdé");
        assert_eq!(obs.clip_query("ab"), "ab");
    }
}
