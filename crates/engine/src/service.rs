//! Admission-controlled concurrent query service.
//!
//! The engine core is deliberately single-threaded — node stores, tuple
//! tables, and the governor are `Rc`-based — so concurrency lives one
//! layer up: [`QueryService`] owns a pool of worker threads, each with a
//! **private** [`Engine`] (its own parsed documents, its own arenas), and
//! the only state crossing threads is plain data: query text, compile
//! options, raw document bytes (the shared [`DocTextCache`]),
//! cancellation flags, reply channels, and the service control plane.
//!
//! A submission passes three gates before it runs:
//!
//! 1. **Admission** ([`QueryService::submit`]) — the service holds a
//!    bounded FIFO queue and an aggregate *memory-reservation* budget.
//!    Each query reserves `Limits::max_bytes` (or
//!    [`ServiceConfig::default_reservation`]); a full queue, a
//!    reservation that can never fit, or a deadline that an EWMA-based
//!    wait estimate says will expire in the queue are **shed**
//!    immediately with `XQRG0007` — predictable rejection instead of
//!    queue collapse.
//! 2. **Dispatch** — a worker takes the queue head once its reservation
//!    fits under the in-flight total (strict FIFO: the head blocks
//!    rather than being bypassed, which is safe because reservations
//!    larger than the whole budget were already shed). The query's
//!    deadline is *rebased* by its queue wait, documents are synced from
//!    the shared text cache (loading through the transient-retry policy
//!    at the `doc::load` failpoint), and the `service::dispatch`
//!    failpoint can inject faults for chaos tests.
//! 3. **Circuit breakers** ([`CircuitBreakers`]) — a plan shape that
//!    repeatedly dies with internal errors fast-fails with `XQRG0008`
//!    until a cooldown half-opens it. Prepare-time panics are keyed by a
//!    query-text hash; execution panics by the normalized plan hash.
//!
//! Workers run each query behind their own `catch_unwind` (in addition
//! to the engine's internal isolation) so a worker thread survives any
//! single query's failure; results are serialized to XML *inside* the
//! worker (sequences hold `Rc` nodes and must not cross threads) and
//! delivered through the ticket's channel.
//!
//! Shedding, admission, queue depth, breaker trips, and cache traffic
//! are all metered in the process [`metrics`] registry; per-query
//! `queue`/`admit` trace spans flow through any tracer installed by
//! [`ServiceConfig::configure_engine`].
//!
//! Every submission additionally carries a **query id** through its whole
//! lifecycle: the service's [`crate::observe`] layer turns each finished
//! query into a [`QueryTimeline`] wide event (per-phase durations, plan
//! hash, reservation, cache outcome, error code) feeding per-phase latency
//! histograms, a per-plan-shape statistics table, a bounded journal, and a
//! slow-query log. [`QueryService::observe`] snapshots all of it, and
//! [`crate::server::QueryServer`] serves it over HTTP (Prometheus text at
//! `/metrics`, process counters at `/metrics.json`, the full report at
//! `/observe.json`).

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xqr_core::TraceEvent;
use xqr_xml::limits::{ERR_DEADLINE, ERR_OVERLOADED};
use xqr_xml::metrics::{metrics, ShedReason};
use xqr_xml::retry::RetryPolicy;
use xqr_xml::{CancellationToken, Governor, Limits};

use crate::breaker::{BreakerConfig, CircuitBreakers};
use crate::doccache::DocTextCache;
use crate::observe::{self, ObserveConfig, ObserveReport, QueryTimeline, ServiceObservability};
use crate::plancache::PlanCacheConfig;
use crate::{classify, panic_message, BudgetKind, CompileOptions, Engine, EngineError, Phase};

/// Per-worker engine setup hook (see [`ServiceConfig::configure_engine`]).
pub type EngineHook = Arc<dyn Fn(&mut Engine) + Send + Sync>;

/// Tuning for a [`QueryService`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads (= concurrency slots).
    pub workers: usize,
    /// Bounded admission queue; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Aggregate memory-reservation budget across in-flight queries.
    pub memory_budget: u64,
    /// Reservation for queries without an explicit `Limits::max_bytes`.
    pub default_reservation: u64,
    /// Byte budget of the shared raw-document-text cache.
    pub doc_cache_budget: u64,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Transient-retry policy for document loading.
    pub retry: RetryPolicy,
    /// Per-worker engine hook, run once when each worker builds its
    /// private [`Engine`] — install tracers, schemas, or external
    /// variable bindings here.
    pub configure_engine: Option<EngineHook>,
    /// Per-worker plan-cache tuning (each worker caches compiled plans
    /// privately; the shapes seen are shared through a `Send` registry
    /// of canonical hashes).
    pub plan_cache: PlanCacheConfig,
    /// Lifecycle-observability tuning (journal size, slow-query
    /// threshold, sampling); on by default.
    pub observe: ObserveConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            memory_budget: 256 << 20,
            default_reservation: 16 << 20,
            doc_cache_budget: 64 << 20,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            configure_engine: None,
            plan_cache: PlanCacheConfig::default(),
            observe: ObserveConfig::default(),
        }
    }
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("memory_budget", &self.memory_budget)
            .field("default_reservation", &self.default_reservation)
            .field("doc_cache_budget", &self.doc_cache_budget)
            .field("observe", &self.observe)
            .finish_non_exhaustive()
    }
}

/// One query submission.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    pub query: String,
    pub options: CompileOptions,
}

impl QueryRequest {
    pub fn new(query: impl Into<String>) -> QueryRequest {
        QueryRequest {
            query: query.into(),
            options: CompileOptions::default(),
        }
    }

    pub fn with_options(mut self, options: CompileOptions) -> QueryRequest {
        self.options = options;
        self
    }
}

/// A successful run's result, serialized inside the worker (node trees
/// are thread-local and cannot cross the channel).
#[derive(Clone, Debug)]
pub struct ServiceOutput {
    /// The query id assigned at admission (same as the ticket's); joins
    /// this result to the service's lifecycle journal and to profile
    /// output.
    pub id: u64,
    /// The serialized result sequence.
    pub xml: String,
    /// Items in the result sequence.
    pub rows: usize,
    /// Time spent queued before a worker picked the query up.
    pub queue_nanos: u64,
    /// Wall time of the worker-side execution (prepare + run + serialize).
    pub run_nanos: u64,
}

/// Handle to an admitted submission.
#[derive(Debug)]
pub struct QueryTicket {
    id: u64,
    token: CancellationToken,
    rx: Receiver<Result<ServiceOutput, EngineError>>,
}

impl QueryTicket {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The cancellation handle: callable from any thread; the query
    /// fails with `XQRG0002` at its next cooperative check (including
    /// while still queued).
    pub fn token(&self) -> CancellationToken {
        self.token.clone()
    }

    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the query finishes (or is shed/cancelled/failed).
    pub fn wait(self) -> Result<ServiceOutput, EngineError> {
        match self.rx.recv() {
            Ok(reply) => reply,
            // Workers reply through `catch_unwind`, so a dropped sender
            // means the whole service was torn down abnormally.
            Err(_) => Err(EngineError::Internal {
                phase: Phase::Execute,
                plan_context: "query service".to_string(),
                message: "worker dropped the reply channel".to_string(),
            }),
        }
    }

    /// Non-blocking poll; `None` while the query is still in flight.
    pub fn try_wait(&self) -> Option<Result<ServiceOutput, EngineError>> {
        self.rx.try_recv().ok()
    }
}

struct Job {
    id: u64,
    query: String,
    /// The request's options; the deadline in `options.limits` is rebased
    /// by the queue wait at dispatch.
    options: CompileOptions,
    reservation: u64,
    token: CancellationToken,
    reply: Sender<Result<ServiceOutput, EngineError>>,
    enqueued: Instant,
    /// Admission-decision duration, carried into the lifecycle timeline.
    admit_nanos: u64,
}

/// One running query, as seen by [`QueryService::inflight`]. Everything
/// here is plain data or `Send` handles: the snapshot is safe to poll
/// from any thread (the server's stuck-query watchdog does).
#[derive(Clone, Debug)]
pub struct InflightQuery {
    pub id: u64,
    /// The breaker shape key: the canonical plan hash when the shared
    /// registry already knows this query's shape, else the text hash.
    pub shape: u64,
    /// The query's cancellation handle (escalation path).
    pub token: CancellationToken,
    /// Wall time since the worker picked the query up.
    pub running_for: Duration,
    /// The queue-rebased deadline, when the query carries one.
    pub deadline: Option<Duration>,
    /// The governor's liveness counter at snapshot time; it advances on
    /// every governed clock consultation, so a stalled value means the
    /// query is not reaching cooperative checkpoints.
    pub progress: u64,
}

/// Outcome of [`QueryService::drain`].
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Queued-but-undispatched queries shed with `XQRG0007`.
    pub drained_queued: usize,
    /// In-flight queries still running at the drain deadline, cancelled
    /// through their tokens.
    pub cancelled: usize,
    /// True when every in-flight query finished inside the deadline
    /// without needing cancellation.
    pub completed_in_time: bool,
}

/// Worker-side registration of a running query (see
/// [`QueryService::inflight`]).
struct InflightEntry {
    shape: u64,
    token: CancellationToken,
    started: Instant,
    deadline: Option<Duration>,
}

struct State {
    queue: VecDeque<Job>,
    /// Sum of in-flight (dispatched, not yet finished) reservations.
    reserved: u64,
    /// Workers currently executing a query.
    running: usize,
    /// Exponentially weighted moving average of worker-side run time,
    /// feeding the admission-time wait estimate. 0 = no history yet.
    ewma_run_nanos: u64,
    shutdown: bool,
    next_id: u64,
}

/// The cross-worker view of the plan cache. Compiled plans are `Rc`-based
/// and live in each worker's private [`Engine`] cache; the only plan state
/// that crosses threads is plain data — text key → canonical plan hash.
/// The registry serves two purposes:
///
/// * **miss accounting**: the first worker anywhere to compile a shape
///   records a `plan_cache_miss`; later workers compiling the same shape
///   into their private caches record `plan_cache_rehydrations` instead,
///   keeping the reported miss count O(distinct shapes), not
///   O(shapes × workers);
/// * **breaker keying**: once any worker has published a shape's
///   canonical hash, dispatches of that shape consult the *plan-keyed*
///   circuit breaker before compiling — a tripped plan fast-fails even
///   on a worker that never compiled it.
pub(crate) struct SharedPlanRegistry {
    map: Mutex<HashMap<u64, u64>>,
}

impl SharedPlanRegistry {
    fn new() -> SharedPlanRegistry {
        SharedPlanRegistry {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Canonical hash for a text key, if any worker published it.
    fn lookup(&self, text_key: u64) -> Option<u64> {
        self.map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&text_key)
            .copied()
    }

    /// Publishes a freshly compiled shape; `true` when this is the first
    /// sighting of the text key anywhere in the service.
    fn register(&self, text_key: u64, canonical: u64) -> bool {
        self.map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(text_key, canonical)
            .is_none()
    }

    fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

struct Shared {
    workers: usize,
    queue_capacity: usize,
    memory_budget: u64,
    default_reservation: u64,
    retry: RetryPolicy,
    breakers: CircuitBreakers,
    cache: DocTextCache,
    plans: SharedPlanRegistry,
    plan_cache: PlanCacheConfig,
    /// Queries currently executing on workers, keyed by id; polled by
    /// the watchdog, drained by [`QueryService::drain`].
    inflight: Mutex<HashMap<u64, InflightEntry>>,
    state: Mutex<State>,
    /// Signalled on new work, freed reservations, and shutdown.
    work_ready: Condvar,
    configure_engine: Option<EngineHook>,
    /// The lifecycle-observability accumulator (timelines, histograms,
    /// journal, per-shape stats).
    observe: ServiceObservability,
}

/// The concurrent query service. See the module docs for the admission /
/// dispatch / breaker pipeline.
pub struct QueryService {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl QueryService {
    pub fn new(cfg: ServiceConfig) -> QueryService {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            workers,
            queue_capacity: cfg.queue_capacity.max(1),
            memory_budget: cfg.memory_budget,
            default_reservation: cfg.default_reservation.min(cfg.memory_budget).max(1),
            retry: cfg.retry,
            breakers: CircuitBreakers::new(cfg.breaker),
            cache: DocTextCache::new(cfg.doc_cache_budget),
            plans: SharedPlanRegistry::new(),
            plan_cache: cfg.plan_cache,
            inflight: Mutex::new(HashMap::new()),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                reserved: 0,
                running: 0,
                ewma_run_nanos: 0,
                shutdown: false,
                next_id: 1,
            }),
            work_ready: Condvar::new(),
            configure_engine: cfg.configure_engine,
            observe: ServiceObservability::new(cfg.observe),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("xqr-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        QueryService { shared, handles }
    }

    /// Binds a document for all workers (new version; each worker
    /// re-parses into its private store on its next dispatch).
    pub fn bind_document(&self, uri: &str, xml: impl Into<String>) {
        self.shared.cache.insert(uri, xml.into());
    }

    /// Registers a loader-backed document URI (see [`Self::set_loader`]).
    pub fn register_document(&self, uri: &str) {
        self.shared.cache.register(uri);
    }

    /// Installs the document source loader used for registered URIs and
    /// for re-fetching evicted texts. Flaky loaders are retried under
    /// the service's [`RetryPolicy`] at the `doc::load` failpoint site.
    pub fn set_loader(&self, f: impl Fn(&str) -> std::io::Result<String> + Send + Sync + 'static) {
        self.shared.cache.set_loader(f);
    }

    /// Submits a query. Returns a ticket on admission; sheds with
    /// `XQRG0007` ([`EngineError::LimitExceeded`], phase `admit`) when
    /// the service is overloaded.
    pub fn submit(&self, req: QueryRequest) -> Result<QueryTicket, EngineError> {
        xqr_xml::failpoint::check("service::admit").map_err(|e| classify(e, Phase::Admit))?;
        let t_admit = Instant::now();
        let limits = &req.options.limits;
        let reservation = limits
            .as_ref()
            .and_then(|l| l.max_bytes)
            .unwrap_or(self.shared.default_reservation);
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.shutdown {
            return Err(self.shed(
                ShedReason::Shutdown,
                t_admit,
                "service is shutting down".into(),
            ));
        }
        if reservation > self.shared.memory_budget {
            return Err(self.shed(
                ShedReason::Reservation,
                t_admit,
                format!(
                    "memory reservation {reservation} exceeds the service budget {}",
                    self.shared.memory_budget
                ),
            ));
        }
        if st.queue.len() >= self.shared.queue_capacity {
            return Err(self.shed(
                ShedReason::QueueFull,
                t_admit,
                format!("admission queue full ({} queued)", st.queue.len()),
            ));
        }
        // Deadline-aware shedding: estimate this query's queue wait from
        // the run-time EWMA and the backlog; a deadline that would expire
        // while waiting is refused now, not after burning a slot.
        if let (Some(deadline), true) = (
            limits.as_ref().and_then(|l| l.deadline),
            st.ewma_run_nanos > 0,
        ) {
            let backlog = st.queue.len() as u64 + u64::from(st.running >= self.shared.workers);
            let wait_estimate =
                Duration::from_nanos((backlog * st.ewma_run_nanos) / self.shared.workers as u64);
            if wait_estimate >= deadline {
                return Err(self.shed(
                    ShedReason::Deadline,
                    t_admit,
                    format!(
                        "estimated queue wait {wait_estimate:?} exceeds the query \
                         deadline {deadline:?}"
                    ),
                ));
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        let token = CancellationToken::new();
        let (tx, rx) = mpsc::channel();
        let admit_nanos = t_admit.elapsed().as_nanos() as u64;
        // Counted before the job becomes visible to workers, so no
        // report can see its completion without its admission.
        self.shared.observe.record_admitted();
        st.queue.push_back(Job {
            id,
            query: req.query,
            options: req.options,
            reservation,
            token: token.clone(),
            reply: tx,
            enqueued: Instant::now(),
            admit_nanos,
        });
        metrics().record_service_admitted();
        metrics().record_queue_enter();
        drop(st);
        self.shared.observe.record_admit_decision(admit_nanos);
        self.shared.work_ready.notify_one();
        Ok(QueryTicket { id, token, rx })
    }

    /// Convenience: submit and block for the result.
    pub fn run(&self, req: QueryRequest) -> Result<ServiceOutput, EngineError> {
        self.submit(req)?.wait()
    }

    /// Queries waiting for a worker (diagnostics / tests).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .queue
            .len()
    }

    /// Sum of in-flight memory reservations (diagnostics / tests).
    pub fn reserved_bytes(&self) -> u64 {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .reserved
    }

    /// Open or half-open circuit breakers (diagnostics / tests).
    pub fn open_breakers(&self) -> usize {
        self.shared.breakers.open_count()
    }

    /// Resident bytes in the shared document text cache.
    pub fn doc_cache_bytes(&self) -> u64 {
        self.shared.cache.resident_bytes()
    }

    /// Distinct plan shapes the shared registry has seen (diagnostics /
    /// tests); service-wide `plan_cache_misses` is bounded by this, not
    /// by shapes × workers.
    pub fn known_plan_shapes(&self) -> usize {
        self.shared.plans.len()
    }

    /// Builds the overload rejection for one shed submission, counting it
    /// per reason (process-wide and per-service) and recording the
    /// admission-decision duration — overload leaves a latency trace too.
    fn shed(&self, reason: ShedReason, t_admit: Instant, message: String) -> EngineError {
        metrics().record_service_shed(reason);
        self.shared.observe.record_shed(reason);
        self.shared
            .observe
            .record_admit_decision(t_admit.elapsed().as_nanos() as u64);
        EngineError::LimitExceeded {
            code: ERR_OVERLOADED,
            phase: Phase::Admit,
            budget: BudgetKind::Overloaded,
            message,
        }
    }

    /// A frozen view of the lifecycle-observability layer: per-phase
    /// latency quantiles, the per-plan-shape statistics table (annotated
    /// with each shape's breaker state), the recent-query journal, the
    /// slow-query log, and point-in-time service gauges.
    pub fn observe(&self) -> ObserveReport {
        let shared = &self.shared;
        let mut r = shared.observe.report();
        {
            let st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            r.queue_depth = st.queue.len();
            r.reserved_bytes = st.reserved;
        }
        r.doc_cache_bytes = shared.cache.resident_bytes();
        r.known_plan_shapes = shared.plans.len();
        r.open_breakers = shared.breakers.open_count();
        for s in &mut r.shapes {
            s.breaker = shared.breakers.state_of(s.plan_hash);
        }
        r
    }

    /// [`QueryService::observe`] as JSON.
    pub fn observe_json(&self) -> String {
        self.observe().to_json()
    }

    /// Prometheus text exposition: the process-wide counter registry
    /// (including the query-duration summary) followed by this service's
    /// series (shed reasons, per-phase and per-shape latency summaries).
    pub fn prometheus_text(&self) -> String {
        let mut s = metrics().snapshot().prometheus_text();
        s.push_str(&self.observe().prometheus_text());
        s
    }

    /// The service half of `/readyz` (the server adds its own accept
    /// state): the service accepts work (not shutting down) *and* the
    /// admission queue is below its shed threshold, so an admitted probe
    /// query would not be rejected outright.
    pub fn ready(&self) -> bool {
        let st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        !st.shutdown && st.queue.len() < self.shared.queue_capacity
    }

    /// Snapshot of the queries currently executing on workers: id, the
    /// breaker shape key, a clone of the cancellation token, wall time
    /// since dispatch, the (queue-rebased) deadline, and the governor's
    /// liveness counter. The stuck-query watchdog polls this.
    pub fn inflight(&self) -> Vec<InflightQuery> {
        self.shared
            .inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(&id, e)| InflightQuery {
                id,
                shape: e.shape,
                token: e.token.clone(),
                running_for: e.started.elapsed(),
                deadline: e.deadline,
                progress: e.token.progress(),
            })
            .collect()
    }

    /// The per-shape circuit breakers (crate-internal: the server's
    /// watchdog records escalations as breaker failures).
    pub(crate) fn breakers(&self) -> &CircuitBreakers {
        &self.shared.breakers
    }

    /// The memory reservation [`Self::submit`] would charge for a query
    /// running under `limits` — the same arithmetic, exposed so the
    /// network frontend can charge tenant reservation shares
    /// consistently with service admission.
    pub(crate) fn effective_reservation(&self, limits: Option<&Limits>) -> u64 {
        limits
            .and_then(|l| l.max_bytes)
            .unwrap_or(self.shared.default_reservation)
    }

    /// Drains the service for shutdown. Three stages, in order:
    ///
    /// 1. **Stop admitting.** The shutdown flag flips; new submissions
    ///    shed with `ShedReason::Shutdown`.
    /// 2. **Shed the queue.** Every queued-but-undispatched query is
    ///    failed with `XQRG0007`, counted as a `shutdown` shed, and
    ///    journaled with a `dispatched: false` timeline.
    /// 3. **Drain in-flight.** Running queries get up to `deadline` to
    ///    finish; survivors are cancelled through their tokens (failing
    ///    with `XQRG0002`, journaled like any other error) and given the
    ///    same grace again to unwind.
    ///
    /// Idempotent; [`Drop`] performs the same teardown with an
    /// effectively unbounded in-flight wait (it must join the workers).
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let drained_queued = shed_queue_for_shutdown(&self.shared);
        self.shared.work_ready.notify_all();
        let t0 = Instant::now();
        let completed_before = |shared: &Shared| {
            let st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.running == 0
        };
        while !completed_before(&self.shared) && t0.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Cancel the survivors; they unwind at their next governed tick.
        let survivors = self.inflight();
        for q in &survivors {
            q.token.cancel();
        }
        let grace = Instant::now();
        while !completed_before(&self.shared) && grace.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        DrainReport {
            drained_queued,
            cancelled: survivors.len(),
            completed_in_time: survivors.is_empty(),
        }
    }

    /// Routes the scrape/health GET endpoints [`crate::server::QueryServer`]
    /// delegates here: `/metrics` (Prometheus text), `/metrics.json` (the
    /// process-wide registry), `/observe.json` (the full
    /// [`ObserveReport`]) and `/healthz`. `None` means 404.
    pub(crate) fn route(&self, path: &str) -> Option<(u16, &'static str, String)> {
        match path {
            "/metrics" => Some((
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.prometheus_text(),
            )),
            "/metrics.json" => Some((200, "application/json", metrics().snapshot().dump_json())),
            "/observe.json" | "/observe" => Some((200, "application/json", self.observe_json())),
            "/healthz" => Some((200, "text/plain; charset=utf-8", "ok\n".to_string())),
            _ => None,
        }
    }
}

/// Flips the shutdown flag and sheds every queued-but-undispatched job:
/// `XQRG0007` reply, a `shutdown` shed in both the process registry and
/// the service accumulator, and a `dispatched: false` timeline (the
/// query was admitted, waited, and never ran — so it counts as admitted
/// *and* failed *and* shutdown-shed, keeping the accounting identity
/// `completed_ok + completed_err == admitted` intact). Returns the
/// number of jobs shed. Shared by [`QueryService::drain`] and [`Drop`];
/// idempotent — an already-empty queue sheds nothing.
fn shed_queue_for_shutdown(shared: &Shared) -> usize {
    let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
    st.shutdown = true;
    let mut drained = 0usize;
    while let Some(job) = st.queue.pop_front() {
        drained += 1;
        metrics().record_queue_leave();
        metrics().record_service_shed(ShedReason::Shutdown);
        shared.observe.record_shed(ShedReason::Shutdown);
        let err = EngineError::LimitExceeded {
            code: ERR_OVERLOADED,
            phase: Phase::Admit,
            budget: BudgetKind::Overloaded,
            message: "service shut down before the query was dispatched".to_string(),
        };
        if shared.observe.enabled() {
            let queue_nanos = job.enqueued.elapsed().as_nanos() as u64;
            shared.observe.complete(QueryTimeline {
                id: job.id,
                query: shared.observe.clip_query(&job.query),
                plan_hash: None,
                reservation: job.reservation,
                admit_nanos: job.admit_nanos,
                queue_nanos,
                prepare_nanos: 0,
                execute_nanos: 0,
                serialize_nanos: 0,
                total_nanos: job.admit_nanos + queue_nanos,
                rows: 0,
                cache: "none",
                error: Some(ERR_OVERLOADED.to_string()),
                spilled: false,
                fell_back: false,
                dispatched: false,
                finished_unix_ms: observe::unix_ms(),
            });
        }
        let _ = job.reply.send(Err(err));
    }
    drained
}

impl Drop for QueryService {
    /// Graceful teardown: in-flight queries finish, queued queries are
    /// shed through the shutdown drain path (`XQRG0007` with a
    /// `shutdown` shed timeline — same as [`QueryService::drain`]),
    /// workers are joined.
    fn drop(&mut self) {
        shed_queue_for_shutdown(&self.shared);
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut engine = Engine::new();
    engine.set_plan_cache_config(shared.plan_cache.clone());
    if let Some(f) = &shared.configure_engine {
        f(&mut engine);
    }
    // Versions of the cache texts this worker has parsed into its
    // private document store.
    let mut doc_versions: HashMap<String, u64> = HashMap::new();
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                // Strict FIFO with memory-fit gating: only the head is
                // eligible, and only once its reservation fits. Safe from
                // permanent starvation because reservations exceeding the
                // whole budget are shed at submit.
                let head_fits = st
                    .queue
                    .front()
                    .is_some_and(|j| st.reserved + j.reservation <= shared.memory_budget);
                if head_fits {
                    let job = st.queue.pop_front().expect("head exists");
                    st.reserved += job.reservation;
                    st.running += 1;
                    metrics().record_queue_leave();
                    break job;
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        let reservation = job.reservation;
        let run_nanos = execute_job(shared, &mut engine, &mut doc_versions, job);
        let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.reserved = st.reserved.saturating_sub(reservation);
        st.running -= 1;
        if let Some(n) = run_nanos {
            st.ewma_run_nanos = if st.ewma_run_nanos == 0 {
                n
            } else {
                (st.ewma_run_nanos * 7 + n) / 8
            };
        }
        drop(st);
        // A freed reservation may unblock the queue head for every
        // waiting worker, not just one.
        shared.work_ready.notify_all();
    }
}

/// Per-run observability state, filled in by the execution closure via
/// `Cell`s so the values survive the `catch_unwind` edge on every exit
/// path (including panics).
#[derive(Default)]
struct RunMeta {
    prepare_nanos: Cell<u64>,
    execute_nanos: Cell<u64>,
    serialize_nanos: Cell<u64>,
    plan_hash: Cell<Option<u64>>,
    rows: Cell<u64>,
    spilled: Cell<bool>,
    fell_back: Cell<bool>,
}

/// Completes the lifecycle timeline for one job picked up by a worker.
/// `worker_nanos` counts from dispatch; `dispatched` is false when the
/// query never reached its execution closure (deadline expired in queue,
/// cancelled while queued, document sync failure, breaker fast-fail).
#[allow(clippy::too_many_arguments)]
fn finish_timeline(
    shared: &Shared,
    job: &Job,
    queue_nanos: u64,
    worker_nanos: u64,
    meta: &RunMeta,
    cache: &'static str,
    error: Option<&EngineError>,
    dispatched: bool,
) {
    if !shared.observe.enabled() {
        return;
    }
    shared.observe.complete(QueryTimeline {
        id: job.id,
        query: shared.observe.clip_query(&job.query),
        plan_hash: meta.plan_hash.get(),
        reservation: job.reservation,
        admit_nanos: job.admit_nanos,
        queue_nanos,
        prepare_nanos: meta.prepare_nanos.get(),
        execute_nanos: meta.execute_nanos.get(),
        serialize_nanos: meta.serialize_nanos.get(),
        total_nanos: job.admit_nanos + queue_nanos + worker_nanos,
        rows: meta.rows.get(),
        cache,
        error: error.map(|e| e.code().unwrap_or("internal").to_string()),
        spilled: meta.spilled.get(),
        fell_back: meta.fell_back.get(),
        dispatched,
        finished_unix_ms: observe::unix_ms(),
    });
}

/// Runs one dispatched job and replies on its channel. Returns the
/// worker-side wall time when the query actually executed (feeding the
/// admission EWMA); `None` for pre-execution rejections.
fn execute_job(
    shared: &Shared,
    engine: &mut Engine,
    doc_versions: &mut HashMap<String, u64>,
    job: Job,
) -> Option<u64> {
    let queue_nanos = job.enqueued.elapsed().as_nanos() as u64;
    let t_dispatch = Instant::now();
    let meta = RunMeta::default();
    // Pre-execution rejection: reply + timeline in one place.
    let reject = |e: EngineError| {
        finish_timeline(
            shared,
            &job,
            queue_nanos,
            t_dispatch.elapsed().as_nanos() as u64,
            &meta,
            "none",
            Some(&e),
            false,
        );
        let _ = job.reply.send(Err(e));
    };
    engine.trace(TraceEvent::Span {
        phase: "queue",
        nanos: queue_nanos,
        detail: format!("query {} waited for a worker", job.id),
    });

    // Rebase the deadline by the time already spent queued: a 100 ms
    // deadline submitted 80 ms ago has 20 ms left, not 100.
    let mut options = job.options.clone();
    if let Some(l) = &mut options.limits {
        if let Some(d) = l.deadline {
            match d.checked_sub(Duration::from_nanos(queue_nanos)) {
                Some(rem) if !rem.is_zero() => l.deadline = Some(rem),
                _ => {
                    reject(EngineError::LimitExceeded {
                        code: ERR_DEADLINE,
                        phase: Phase::Admit,
                        budget: BudgetKind::Deadline,
                        message: format!("deadline {d:?} expired while queued ({queue_nanos} ns)"),
                    });
                    return None;
                }
            }
        }
    }
    let effective = options.limits.clone().unwrap_or_default();
    let gov = Governor::new(&effective, job.token.clone());

    // Cancelled while queued (or deadline raced to zero just now).
    if let Err(e) = gov.check_time() {
        reject(classify(e, Phase::Admit));
        return None;
    }
    engine.trace(TraceEvent::Span {
        phase: "admit",
        nanos: 0,
        detail: format!(
            "query {} dispatched; reservation={} bytes",
            job.id, job.reservation
        ),
    });

    // The breaker/watchdog shape key: the canonical plan hash when the
    // shared registry already knows this text key's plan, else the
    // query-text hash (computed up front so the in-flight registration
    // below covers document sync too — loader stalls are watchable).
    let text_key = crate::text_cache_key(&job.query, &options);
    let text_shape = text_key;
    let known_shape = shared.plans.lookup(text_key);

    // Register with the watchdog-visible in-flight table for the whole
    // worker-side lifetime; the guard removes the entry on every exit
    // path, including panics unwinding past `catch_unwind` below.
    shared
        .inflight
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(
            job.id,
            InflightEntry {
                shape: known_shape.unwrap_or(text_shape),
                token: job.token.clone(),
                started: t_dispatch,
                deadline: options.limits.as_ref().and_then(|l| l.deadline),
            },
        );
    struct InflightGuard<'a> {
        shared: &'a Shared,
        id: u64,
    }
    impl Drop for InflightGuard<'_> {
        fn drop(&mut self) {
            self.shared
                .inflight
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(&self.id);
        }
    }
    let _inflight = InflightGuard { shared, id: job.id };

    // Sync this worker's private document store with the shared text
    // cache: (re)parse any text whose version moved, loading evicted or
    // registered texts through the retry policy under this query's
    // governor (so a cancel or deadline aborts the backoff).
    for uri in shared.cache.uris() {
        match shared.cache.ensure(&uri, &gov, &shared.retry) {
            Ok((version, text)) => {
                if doc_versions.get(&uri) != Some(&version) {
                    match engine.bind_document(&uri, &text) {
                        Ok(()) => {
                            doc_versions.insert(uri.clone(), version);
                        }
                        Err(e) => {
                            reject(e);
                            return None;
                        }
                    }
                }
            }
            Err(e) => {
                reject(classify(e, Phase::Admit));
                return None;
            }
        }
    }

    if let Err(e) = xqr_xml::failpoint::check("service::dispatch") {
        reject(classify(e, Phase::Execute));
        return None;
    }

    // Breaker pre-check: by *canonical plan hash* when the shared
    // registry already knows this text key's plan (so a tripped plan
    // shape fast-fails before any worker pays a compile), else by the
    // query-text hash — the fallback key that catches prepare-time
    // failures, which happen before a plan (and its canonical hash)
    // exists.
    if let Err(e) = shared.breakers.admit(known_shape.unwrap_or(text_shape)) {
        meta.plan_hash.set(known_shape);
        reject(classify(e, Phase::Admit));
        return None;
    }

    let t0 = Instant::now();
    // The run-time breaker key, published by the closure once the plan
    // exists so that a panic unwinding past the closure is still charged
    // to the right shape (not the text shape, whose count every
    // successful prepare resets).
    let run_shape = Cell::new(known_shape.unwrap_or(text_shape));
    // Plan-cache outcome for the timeline, set once preparation resolves.
    let cache_outcome = Cell::new("none");
    // Belt and braces: the engine isolates panics itself, but the worker
    // thread must survive even a panic outside that boundary (prepare
    // glue, serialization). The reply is sent *after* the unwind edge.
    let outcome = catch_unwind(AssertUnwindSafe(
        || -> Result<(String, usize), (Option<u64>, EngineError)> {
            let t_prep = Instant::now();
            let (prepared, local_hit) = engine
                .prepare_cached_outcome(&job.query, &options)
                .map_err(|e| (Some(text_shape), e))?;
            meta.prepare_nanos.set(t_prep.elapsed().as_nanos() as u64);
            shared.breakers.record(text_shape, false);
            // Cache traffic accounting through the shared registry: a
            // true miss is the first sighting of the shape *anywhere* in
            // the service; a worker-local miss on a registered shape is
            // a re-hydration (each worker compiles each shape once), so
            // `plan_cache_misses` stays O(distinct shapes).
            // The run-time breaker key: the canonical plan hash, so
            // syntactic variants normalizing to the same plan share one
            // breaker. NoAlgebra has no plan; the text shape stands in.
            let shape = prepared.canonical_hash().unwrap_or(text_shape);
            if local_hit {
                metrics().record_plan_cache_hit();
                cache_outcome.set("hit");
            } else if known_shape.is_some() || !shared.plans.register(text_key, shape) {
                metrics().record_plan_cache_rehydration();
                cache_outcome.set("rehydrated");
            } else {
                metrics().record_plan_cache_miss();
                cache_outcome.set("miss");
            }
            run_shape.set(shape);
            meta.plan_hash.set(Some(shape));
            // Profiles recorded by this run carry the query id, joining
            // EXPLAIN ANALYZE output to the lifecycle journal.
            prepared.set_query_id(job.id);
            if shape != text_shape && known_shape != Some(shape) {
                if let Err(e) = shared.breakers.admit(shape) {
                    return Err((None, classify(e, Phase::Admit)));
                }
            }
            let t_exec = Instant::now();
            let run = prepared.run_cancellable(engine, job.token.clone());
            meta.execute_nanos.set(t_exec.elapsed().as_nanos() as u64);
            meta.spilled.set(prepared.last_run_spilled());
            meta.fell_back.set(prepared.last_run_fell_back());
            let seq = run.map_err(|e| (Some(shape), e))?;
            let t_ser = Instant::now();
            let xml = xqr_xml::serialize_sequence(&seq);
            meta.serialize_nanos.set(t_ser.elapsed().as_nanos() as u64);
            meta.rows.set(seq.len() as u64);
            shared.breakers.record(shape, false);
            Ok((xml, seq.len()))
        },
    ));
    let run_nanos = t0.elapsed().as_nanos() as u64;
    let reply = match outcome {
        Ok(Ok((xml, rows))) => Ok(ServiceOutput {
            id: job.id,
            xml,
            rows,
            queue_nanos,
            run_nanos,
        }),
        Ok(Err((record_shape, e))) => {
            // Only engine-fault failures feed the breaker; budget trips
            // and dynamic errors are the query's own problem. A `None`
            // shape marks a breaker fast-fail (no outcome to record).
            if let Some(shape) = record_shape {
                shared
                    .breakers
                    .record(shape, matches!(e, EngineError::Internal { .. }));
            }
            Err(e)
        }
        Err(p) => {
            shared.breakers.record(run_shape.get(), true);
            Err(EngineError::Internal {
                phase: Phase::Execute,
                plan_context: "service worker".to_string(),
                message: panic_message(p),
            })
        }
    };
    finish_timeline(
        shared,
        &job,
        queue_nanos,
        t_dispatch.elapsed().as_nanos() as u64,
        &meta,
        cache_outcome.get(),
        reply.as_ref().err(),
        true,
    );
    let _ = job.reply.send(reply);
    Some(run_nanos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xml::limits::{ERR_CANCELLED as CANCELLED, ERR_DEADLINE as DEADLINE};

    fn small_service(workers: usize, queue: usize) -> QueryService {
        QueryService::new(ServiceConfig {
            workers,
            queue_capacity: queue,
            ..ServiceConfig::default()
        })
    }

    /// Blocks the single worker deterministically: the worker's document
    /// sync stalls in the loader until a permit is sent. Returns the
    /// permit sender.
    fn block_worker_on_doc(svc: &QueryService) -> Sender<()> {
        let (permit_tx, permit_rx) = mpsc::channel::<()>();
        let permit_rx = Mutex::new(permit_rx);
        svc.register_document("gate.xml");
        svc.set_loader(move |_| {
            let _ = permit_rx.lock().unwrap().recv();
            Ok("<gate/>".to_string())
        });
        permit_tx
    }

    fn spin_until(deadline: Duration, mut cond: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < deadline, "condition never became true");
            std::thread::yield_now();
        }
    }

    #[test]
    fn roundtrip_with_shared_documents() {
        let svc = small_service(2, 8);
        svc.bind_document("cat.xml", "<items><item id='1'/><item id='2'/></items>");
        let out = svc
            .run(QueryRequest::new("count(doc('cat.xml')//item)"))
            .unwrap();
        assert_eq!(out.xml, "2");
        assert_eq!(out.rows, 1);
        // Rebinding bumps the version; workers re-parse on next dispatch.
        svc.bind_document("cat.xml", "<items><item/></items>");
        let out = svc
            .run(QueryRequest::new("count(doc('cat.xml')//item)"))
            .unwrap();
        assert_eq!(out.xml, "1");
    }

    #[test]
    fn many_submissions_one_worker_stay_fifo_correct() {
        let svc = small_service(1, 64);
        let tickets: Vec<_> = (0..20)
            .map(|i| svc.submit(QueryRequest::new(format!("{i} + 1"))).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap().xml, (i + 1).to_string());
        }
    }

    #[test]
    fn queue_overflow_is_shed_with_xqrg0007() {
        let svc = small_service(1, 1);
        let release = block_worker_on_doc(&svc);
        let t1 = svc.submit(QueryRequest::new("1")).unwrap();
        // Wait for the worker to take t1 off the queue, then fill the
        // single queue slot.
        spin_until(Duration::from_secs(10), || svc.queue_depth() == 0);
        let t2 = svc.submit(QueryRequest::new("2")).unwrap();
        let shed = svc.submit(QueryRequest::new("3")).unwrap_err();
        match shed {
            EngineError::LimitExceeded {
                code,
                phase,
                budget,
                ..
            } => {
                assert_eq!(code, ERR_OVERLOADED);
                assert_eq!(phase, Phase::Admit);
                assert_eq!(budget, BudgetKind::Overloaded);
            }
            other => panic!("expected overload shed, got {other}"),
        }
        release.send(()).unwrap();
        assert_eq!(t1.wait().unwrap().xml, "1");
        assert_eq!(t2.wait().unwrap().xml, "2");
    }

    #[test]
    fn oversized_reservation_is_shed_immediately() {
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            memory_budget: 1 << 20,
            ..ServiceConfig::default()
        });
        let req = QueryRequest::new("1").with_options(
            CompileOptions::default().limits(Limits::default().with_max_bytes(2 << 20)),
        );
        let err = svc.submit(req).unwrap_err();
        assert_eq!(err.code(), Some(ERR_OVERLOADED));
    }

    #[test]
    fn deadline_expired_in_queue_fails_at_admit() {
        let svc = small_service(1, 8);
        let release = block_worker_on_doc(&svc);
        let t1 = svc.submit(QueryRequest::new("1")).unwrap();
        spin_until(Duration::from_secs(10), || svc.queue_depth() == 0);
        let req = QueryRequest::new("2").with_options(
            CompileOptions::default()
                .limits(Limits::default().with_deadline(Duration::from_millis(5))),
        );
        let t2 = svc.submit(req).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        release.send(()).unwrap();
        assert_eq!(t1.wait().unwrap().xml, "1");
        let err = t2.wait().unwrap_err();
        assert_eq!(err.code(), Some(DEADLINE), "{err}");
        match err {
            EngineError::LimitExceeded { phase, .. } => assert_eq!(phase, Phase::Admit),
            other => panic!("expected limit error, got {other}"),
        }
    }

    #[test]
    fn cancelling_a_queued_query_fails_with_xqrg0002() {
        let svc = small_service(1, 8);
        let release = block_worker_on_doc(&svc);
        let t1 = svc.submit(QueryRequest::new("1")).unwrap();
        spin_until(Duration::from_secs(10), || svc.queue_depth() == 0);
        let t2 = svc.submit(QueryRequest::new("2")).unwrap();
        t2.cancel();
        release.send(()).unwrap();
        assert_eq!(t1.wait().unwrap().xml, "1");
        assert_eq!(t2.wait().unwrap_err().code(), Some(CANCELLED));
    }

    #[test]
    fn shutdown_fails_queued_queries_and_joins_workers() {
        let svc = small_service(1, 8);
        let release = block_worker_on_doc(&svc);
        let t1 = svc.submit(QueryRequest::new("1")).unwrap();
        spin_until(Duration::from_secs(10), || svc.queue_depth() == 0);
        let t2 = svc.submit(QueryRequest::new("2")).unwrap();
        // The worker is stalled on t1's document load, so t2 is still
        // queued when the drop below drains it. The helper releases the
        // worker only after t2's drain reply proves the drain happened,
        // then the join inside drop can complete.
        let helper = std::thread::spawn(move || {
            let err = t2.wait().unwrap_err();
            release.send(()).unwrap();
            err
        });
        drop(svc); // t1 in flight: completes; t2 queued: drained
        assert_eq!(t1.wait().unwrap().xml, "1");
        // Drop goes through the shutdown drain path: queued queries shed
        // with the overload code (reason `shutdown`), not a bare cancel.
        let err = helper.join().unwrap();
        assert_eq!(err.code(), Some(ERR_OVERLOADED));
        assert!(err.to_string().contains("shut down"), "{err}");
    }

    #[test]
    fn drain_sheds_queue_and_cancels_survivors() {
        let svc = small_service(1, 8);
        let release = block_worker_on_doc(&svc);
        let t1 = svc.submit(QueryRequest::new("1")).unwrap();
        spin_until(Duration::from_secs(10), || svc.queue_depth() == 0);
        let t2 = svc.submit(QueryRequest::new("2")).unwrap();
        // The worker registers t1 a beat after dequeuing it.
        spin_until(Duration::from_secs(10), || !svc.inflight().is_empty());
        // Short deadline: t1 is stalled in the loader (which ignores the
        // token), so drain cancels it and reports the survivor.
        let report = svc.drain(Duration::from_millis(50));
        assert_eq!(report.drained_queued, 1);
        assert_eq!(report.cancelled, 1);
        assert!(!report.completed_in_time);
        assert_eq!(t2.wait().unwrap_err().code(), Some(ERR_OVERLOADED));
        release.send(()).unwrap();
        // The cancelled survivor unwinds at its next governed check; a
        // trivial query racing past every checkpoint may still finish.
        match t1.wait() {
            Err(e) => assert_eq!(e.code(), Some(CANCELLED)),
            Ok(out) => assert_eq!(out.xml, "1"),
        }
        // New submissions shed with the shutdown reason.
        let err = svc.submit(QueryRequest::new("3")).unwrap_err();
        assert_eq!(err.code(), Some(ERR_OVERLOADED));
    }

    #[test]
    fn inflight_snapshot_tracks_progress_and_empties() {
        let svc = small_service(1, 8);
        let release = block_worker_on_doc(&svc);
        let t1 = svc.submit(QueryRequest::new("sum(1 to 50)")).unwrap();
        spin_until(Duration::from_secs(10), || !svc.inflight().is_empty());
        let snap = svc.inflight();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].id, t1.id());
        release.send(()).unwrap();
        assert_eq!(t1.wait().unwrap().xml, "1275");
        spin_until(Duration::from_secs(10), || svc.inflight().is_empty());
    }

    #[test]
    fn reservations_are_released_after_each_query() {
        let svc = small_service(2, 8);
        for _ in 0..4 {
            svc.run(QueryRequest::new("sum(1 to 100)")).unwrap();
        }
        // The reply is sent before the worker returns its reservation,
        // so give the bookkeeping a beat.
        spin_until(Duration::from_secs(10), || svc.reserved_bytes() == 0);
        assert_eq!(svc.queue_depth(), 0);
    }

    #[test]
    fn syntax_and_dynamic_errors_pass_through() {
        let svc = small_service(1, 8);
        assert!(matches!(
            svc.run(QueryRequest::new("for $x in")),
            Err(EngineError::Syntax(_))
        ));
        assert!(matches!(
            svc.run(QueryRequest::new("exactly-one(())")),
            Err(EngineError::Dynamic(_))
        ));
        // The worker survived both failures.
        assert_eq!(svc.run(QueryRequest::new("1 + 1")).unwrap().xml, "2");
    }

    #[test]
    fn plan_registry_counts_shapes_not_submissions() {
        let svc = small_service(2, 32);
        for _ in 0..4 {
            assert_eq!(
                svc.run(QueryRequest::new(
                    "for $x in (1,2,3) where $x > 1 return $x"
                ))
                .unwrap()
                .xml,
                "2 3"
            );
            assert_eq!(svc.run(QueryRequest::new("1 + 1")).unwrap().xml, "2");
        }
        // 8 submissions, 2 shapes: the registry is keyed by shape.
        assert_eq!(svc.known_plan_shapes(), 2);
    }

    #[test]
    fn disabled_plan_cache_still_serves_queries() {
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            plan_cache: PlanCacheConfig {
                max_entries: 0,
                ..PlanCacheConfig::default()
            },
            ..ServiceConfig::default()
        });
        for _ in 0..3 {
            assert_eq!(svc.run(QueryRequest::new("2 * 3")).unwrap().xml, "6");
        }
    }

    #[test]
    fn per_worker_engine_hook_runs() {
        let svc = QueryService::new(ServiceConfig {
            workers: 1,
            configure_engine: Some(Arc::new(|e: &mut Engine| {
                e.bind_variable("n", xqr_xml::Sequence::integers([21]));
            })),
            ..ServiceConfig::default()
        });
        let out = svc
            .run(QueryRequest::new("declare variable $n external; $n * 2"))
            .unwrap();
        assert_eq!(out.xml, "42");
    }
}
