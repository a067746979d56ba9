//! # xqr-engine — the public facade
//!
//! Ties the pipeline together: parse → normalize (paper-modified Core) →
//! compile into the algebra → optionally rewrite (Section 5 unnesting) →
//! evaluate with the selected join algorithm (Section 6). The
//! [`ExecutionMode`] enum matches the four configurations of the paper's
//! **Table 3**:
//!
//! | mode | paper row |
//! |---|---|
//! | [`ExecutionMode::NoAlgebra`] | "No algebra" — direct Core interpreter |
//! | [`ExecutionMode::AlgebraNoOptim`] | "Algebra + No optim" |
//! | [`ExecutionMode::OptimNestedLoop`] | "Optim + nested-loop joins" |
//! | [`ExecutionMode::OptimHashJoin`] | "Optim + XQuery joins" (hash) |
//! | [`ExecutionMode::OptimSortJoin`] | "Optim + XQuery joins" (sort) |
//!
//! ```
//! use xqr_engine::{CompileOptions, Engine, ExecutionMode};
//!
//! let mut engine = Engine::new();
//! engine.bind_document("catalog.xml", "<items><item id='1'/><item id='2'/></items>").unwrap();
//! let q = engine
//!     .prepare(
//!         "for $i in doc('catalog.xml')//item return <got>{ $i/@id }</got>",
//!         &CompileOptions::default(),
//!     )
//!     .unwrap();
//! let result = q.run(&engine).unwrap();
//! assert_eq!(result.len(), 2);
//! ```

pub mod breaker;
pub mod doccache;
pub mod observe;
pub mod plancache;
pub mod server;
pub mod service;
pub mod session;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use xqr_core::algebra::plan_size;
use xqr_core::{
    compile_module, pretty, rewrite_module_traced, rewrite_module_with, CompiledModule,
    RewriteStats,
};

pub use xqr_core::RuleConfig;
pub use xqr_core::{CollectingTracer, NoopTracer, StderrTracer, TraceEvent, Tracer};
use xqr_frontend::{frontend_with, normalize_module, parse_query_with, CoreModule, SyntaxError};
use xqr_runtime::{eval_core_module_profiled, Ctx, InterpProfile, Profiler};
use xqr_types::Schema;
use xqr_xml::limits::{
    ERR_BREAKER, ERR_BYTES, ERR_CANCELLED, ERR_DEADLINE, ERR_OVERLOADED, ERR_RECURSION,
    ERR_SPILL_BUDGET, ERR_SPILL_IO, ERR_TENANT, ERR_TUPLES,
};
use xqr_xml::metrics::metrics;
use xqr_xml::parse::{parse_document, ParseOptions};
use xqr_xml::{Governor, NodeHandle, QName, Sequence, XmlError};

pub use xqr_runtime::{JoinAlgorithm, ProfileNode, QueryProfile};
pub use xqr_xml::{CancellationToken, Limits, MetricsSnapshot, RetryPolicy};

pub use breaker::{BreakerConfig, CircuitBreakers};
pub use doccache::DocTextCache;
pub use observe::{
    LifecyclePhase, ObserveConfig, ObserveReport, PhaseLatency, QueryTimeline, ShapeStats,
    LIFECYCLE_PHASES,
};
pub use plancache::{PlanCache, PlanCacheConfig};
pub use server::{QueryServer, ServerConfig, ServerDrainReport, WatchdogConfig};
pub use service::{
    DrainReport, InflightQuery, QueryRequest, QueryService, QueryTicket, ServiceConfig,
    ServiceOutput,
};
pub use session::{QuotaError, SessionConfig, SessionManager, SessionPermit, TenantQuotas};
pub use xqr_xml::metrics::ShedReason;

/// How a prepared query executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecutionMode {
    /// Direct Core interpretation — the paper's "No algebra" baseline.
    NoAlgebra,
    /// Algebraic compilation without the Section 5 rewritings.
    AlgebraNoOptim,
    /// Rewritten plans, all joins nested-loop.
    OptimNestedLoop,
    /// Rewritten plans, typed hash joins (Fig. 6) where applicable.
    #[default]
    OptimHashJoin,
    /// Rewritten plans, order-preserving B-tree (sort) joins.
    OptimSortJoin,
}

impl ExecutionMode {
    /// All modes, in the order of Table 3.
    pub const ALL: [ExecutionMode; 4] = [
        ExecutionMode::NoAlgebra,
        ExecutionMode::AlgebraNoOptim,
        ExecutionMode::OptimNestedLoop,
        ExecutionMode::OptimHashJoin,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::NoAlgebra => "No algebra",
            ExecutionMode::AlgebraNoOptim => "Algebra + No optim",
            ExecutionMode::OptimNestedLoop => "Optim + nested-loop joins",
            ExecutionMode::OptimHashJoin => "Optim + XQuery joins",
            ExecutionMode::OptimSortJoin => "Optim + XQuery sort joins",
        }
    }

    fn join_algorithm(self) -> JoinAlgorithm {
        match self {
            ExecutionMode::OptimHashJoin => JoinAlgorithm::Hash,
            ExecutionMode::OptimSortJoin => JoinAlgorithm::Sort,
            _ => JoinAlgorithm::NestedLoop,
        }
    }
}

/// Compilation options.
#[derive(Clone, Debug, Default)]
pub struct CompileOptions {
    pub mode: ExecutionMode,
    /// Rewrite-rule families applied in the optimizing modes (ablation
    /// studies disable subsets; see `crates/bench/benches/ablation.rs`).
    pub rules: RuleConfig,
    /// Per-query resource limits; `None` falls back to the engine-wide
    /// limits installed with [`Engine::set_limits`] (and to
    /// [`Limits::default`] when neither is set).
    pub limits: Option<Limits>,
    /// Collect a per-operator runtime profile on every run (EXPLAIN
    /// ANALYZE). Off by default: the disabled path is a single `Option`
    /// check per operator open/dispatch.
    pub profile: bool,
}

impl CompileOptions {
    pub fn mode(mode: ExecutionMode) -> CompileOptions {
        CompileOptions {
            mode,
            ..CompileOptions::default()
        }
    }

    pub fn with_rules(mode: ExecutionMode, rules: RuleConfig) -> CompileOptions {
        CompileOptions {
            mode,
            rules,
            ..CompileOptions::default()
        }
    }

    /// Attaches per-query resource limits.
    pub fn limits(mut self, limits: Limits) -> CompileOptions {
        self.limits = Some(limits);
        self
    }

    /// Enables per-operator runtime profiling ([`PreparedQuery::explain_analyze`]).
    pub fn with_profiling(mut self) -> CompileOptions {
        self.profile = true;
        self
    }
}

/// Which pipeline stage an error arose in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Service-side admission/dispatch (queueing, shedding, breakers),
    /// before the query pipeline proper starts.
    Admit,
    Parse,
    Normalize,
    Compile,
    Rewrite,
    Execute,
}

impl Phase {
    pub fn label(self) -> &'static str {
        match self {
            Phase::Admit => "admit",
            Phase::Parse => "parse",
            Phase::Normalize => "normalize",
            Phase::Compile => "compile",
            Phase::Rewrite => "rewrite",
            Phase::Execute => "execute",
        }
    }
}

/// Which resource budget a [`EngineError::LimitExceeded`] tripped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetKind {
    Deadline,
    Cancelled,
    Tuples,
    Bytes,
    Recursion,
    /// Spill I/O failed irrecoverably (`XQRG0005`: retries exhausted or a
    /// corrupt frame).
    SpillIo,
    /// The spill *disk* budget (`Limits::with_spill`) is exhausted
    /// (`XQRG0006`).
    SpillDisk,
    /// The query service shed this submission (`XQRG0007`): queue full,
    /// reservation unservable, or deadline shorter than the estimated
    /// queue wait.
    Overloaded,
    /// A circuit breaker fast-failed this plan shape (`XQRG0008`) after
    /// repeated internal failures; retry after the cooldown.
    BreakerOpen,
    /// A per-tenant session quota refused the request (`XQRG0009`):
    /// concurrent-query cap, aggregate reservation share, or request
    /// rate. The service itself may be perfectly healthy.
    TenantQuota,
}

impl BudgetKind {
    fn from_code(code: &str) -> Option<BudgetKind> {
        match code {
            ERR_DEADLINE => Some(BudgetKind::Deadline),
            ERR_CANCELLED => Some(BudgetKind::Cancelled),
            ERR_TUPLES => Some(BudgetKind::Tuples),
            ERR_BYTES => Some(BudgetKind::Bytes),
            ERR_RECURSION => Some(BudgetKind::Recursion),
            ERR_SPILL_IO => Some(BudgetKind::SpillIo),
            ERR_SPILL_BUDGET => Some(BudgetKind::SpillDisk),
            ERR_OVERLOADED => Some(BudgetKind::Overloaded),
            ERR_BREAKER => Some(BudgetKind::BreakerOpen),
            ERR_TENANT => Some(BudgetKind::TenantQuota),
            _ => None,
        }
    }
}

/// Errors from preparation or execution.
#[derive(Debug, Clone)]
pub enum EngineError {
    Syntax(SyntaxError),
    Dynamic(XmlError),
    /// A resource budget tripped (governor codes `XQRG0001`–`XQRG0008`,
    /// recursion `XQRT0005`).
    LimitExceeded {
        /// The stable `err:`-style code of the violated budget.
        code: &'static str,
        /// Pipeline stage where the budget tripped.
        phase: Phase,
        /// Which budget tripped.
        budget: BudgetKind,
        message: String,
    },
    /// A panic caught at the engine's isolation boundary: the fault is
    /// contained to this query instead of unwinding through the caller.
    Internal {
        /// Pipeline stage that panicked.
        phase: Phase,
        /// What was being evaluated (mode label plus the plan's root).
        plan_context: String,
        message: String,
    },
}

impl EngineError {
    /// The `err:`-style code, when one applies.
    pub fn code(&self) -> Option<&str> {
        match self {
            EngineError::Syntax(_) => None,
            EngineError::Dynamic(e) => Some(e.code),
            EngineError::LimitExceeded { code, .. } => Some(code),
            EngineError::Internal { .. } => None,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Syntax(e) => write!(f, "{e}"),
            EngineError::Dynamic(e) => write!(f, "{e}"),
            EngineError::LimitExceeded {
                code,
                phase,
                budget,
                message,
            } => write!(
                f,
                "[{code}] limit exceeded ({budget:?}, during {}): {message}",
                phase.label()
            ),
            EngineError::Internal {
                phase,
                plan_context,
                message,
            } => write!(
                f,
                "internal error during {} of {plan_context}: {message}",
                phase.label()
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SyntaxError> for EngineError {
    fn from(e: SyntaxError) -> Self {
        EngineError::Syntax(e)
    }
}

impl From<XmlError> for EngineError {
    fn from(e: XmlError) -> Self {
        EngineError::Dynamic(e)
    }
}

/// Classifies a dynamic error: governor codes become structured
/// [`EngineError::LimitExceeded`], everything else stays [`EngineError::Dynamic`].
fn classify(e: XmlError, phase: Phase) -> EngineError {
    match BudgetKind::from_code(e.code) {
        Some(budget) => EngineError::LimitExceeded {
            code: e.code,
            phase,
            budget,
            message: e.message,
        },
        None => EngineError::Dynamic(e),
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs a closure behind the isolation boundary: a panic becomes
/// [`EngineError::Internal`] instead of unwinding through the caller.
fn isolate<T>(phase: Phase, plan_context: &str, f: impl FnOnce() -> T) -> Result<T, EngineError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| EngineError::Internal {
        phase,
        plan_context: plan_context.to_string(),
        message: panic_message(p),
    })
}

/// The engine: documents, schema, and external variable bindings shared by
/// prepared queries.
#[derive(Default)]
pub struct Engine {
    documents: HashMap<String, NodeHandle>,
    schema: Schema,
    externals: HashMap<QName, Sequence>,
    /// Engine-wide resource limits, the default for every prepare/run and
    /// for document parsing. Overridden per query by
    /// [`CompileOptions::limits`].
    limits: Option<Limits>,
    /// Receiver of phase/rule trace events; `None` skips event
    /// construction entirely.
    tracer: Option<Rc<dyn Tracer>>,
    /// The plan cache behind [`Engine::prepare_cached`] (plain
    /// [`Engine::prepare`] never consults it).
    plan_cache: RefCell<PlanCache>,
}

impl Engine {
    pub fn new() -> Engine {
        #[allow(unused_mut)]
        let mut e = Engine::default();
        #[cfg(feature = "trace-log")]
        if std::env::var_os("XQR_TRACE").is_some_and(|v| !v.is_empty() && v != "0") {
            e.tracer = Some(Rc::new(StderrTracer));
        }
        e
    }

    /// Installs a tracer receiving one span per pipeline phase and one
    /// event per rewrite rule that fires.
    pub fn set_tracer(&mut self, tracer: Rc<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Removes the installed tracer.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    fn trace(&self, ev: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.event(&ev);
        }
    }

    /// Process-wide engine metrics as JSON.
    pub fn metrics_json(&self) -> String {
        metrics().snapshot().dump_json()
    }

    /// A frozen copy of the process-wide engine metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        metrics().snapshot()
    }

    /// Process-wide engine metrics in Prometheus text exposition format
    /// (counters, failures per error code, and the query duration
    /// summary).
    pub fn metrics_prometheus(&self) -> String {
        metrics().snapshot().prometheus_text()
    }

    /// Installs engine-wide resource limits (deadline, budgets, depth
    /// guards) applied to every subsequent `bind_document`/`prepare`/`run`
    /// unless a query overrides them via [`CompileOptions::limits`].
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = Some(limits);
    }

    /// Parses and registers a document under a URI for `fn:doc`. Document
    /// parsing runs under the engine-wide limits: element nesting is
    /// bounded by `max_document_depth`, and a configured deadline or a
    /// cancelled token aborts the parse cooperatively.
    pub fn bind_document(&mut self, uri: &str, xml: &str) -> Result<(), EngineError> {
        let opts = match &self.limits {
            None => ParseOptions::default(),
            Some(l) => ParseOptions {
                max_depth: l.max_document_depth,
                governor: Some(Governor::new(l, CancellationToken::new())),
                ..ParseOptions::default()
            },
        };
        let doc = parse_document(xml, &opts).map_err(|e| {
            let e: XmlError = e.into();
            classify(e, Phase::Parse)
        })?;
        self.documents.insert(uri.to_string(), doc.root());
        Ok(())
    }

    /// Registers an already-parsed node under a URI.
    pub fn bind_document_node(&mut self, uri: &str, node: NodeHandle) {
        self.documents.insert(uri.to_string(), node);
    }

    /// Binds an external variable.
    pub fn bind_variable(&mut self, name: &str, value: Sequence) {
        self.externals.insert(QName::local(name), value);
    }

    /// Installs the schema used by validation and `element(*, T)` tests.
    pub fn set_schema(&mut self, schema: Schema) {
        self.schema = schema;
    }

    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Parses, normalizes, and (depending on the mode) compiles + rewrites.
    pub fn prepare(
        &self,
        query: &str,
        options: &CompileOptions,
    ) -> Result<PreparedQuery, EngineError> {
        xqr_xml::failpoint::check("phase::parse").map_err(|e| classify(e, Phase::Parse))?;
        let limits = options.limits.clone().or_else(|| self.limits.clone());
        let parse_depth = limits
            .as_ref()
            .map(|l| l.max_parse_depth)
            .unwrap_or(Limits::default().max_parse_depth);
        // With a tracer installed, parse and normalize are timed as
        // separate spans; otherwise the fused frontend path runs as before.
        let core = if self.tracer.is_some() {
            let t0 = Instant::now();
            let module = isolate(Phase::Parse, "query parser", || {
                parse_query_with(query, parse_depth)
            })??;
            self.trace(TraceEvent::Span {
                phase: "parse",
                nanos: t0.elapsed().as_nanos() as u64,
                detail: String::new(),
            });
            let t0 = Instant::now();
            let core = isolate(Phase::Normalize, "parsed module", || {
                normalize_module(&module)
            })?;
            self.trace(TraceEvent::Span {
                phase: "normalize",
                nanos: t0.elapsed().as_nanos() as u64,
                detail: String::new(),
            });
            core
        } else {
            isolate(Phase::Normalize, "query frontend", || {
                frontend_with(query, parse_depth)
            })??
        };
        let mode = options.mode;
        let profile = options.profile;
        if mode == ExecutionMode::NoAlgebra {
            return Ok(PreparedQuery {
                mode,
                core: Some(Rc::new(core)),
                plan: None,
                stats: None,
                canonical_hash: None,
                params: HashMap::new(),
                limits,
                fallback_note: RefCell::new(None),
                profile,
                last_profile: RefCell::new(None),
                query_id: Cell::new(None),
                last_spilled: Cell::new(false),
                last_fell_back: Cell::new(false),
            });
        }
        xqr_xml::failpoint::check("phase::compile").map_err(|e| classify(e, Phase::Compile))?;
        let t0 = self.tracer.as_ref().map(|_| Instant::now());
        let mut compiled = isolate(Phase::Compile, "normalized core module", || {
            compile_module(&core)
        })?;
        if let Some(t0) = t0 {
            self.trace(TraceEvent::Span {
                phase: "compile",
                nanos: t0.elapsed().as_nanos() as u64,
                detail: format!("{} ops", plan_size(&compiled.body)),
            });
        }
        let stats = if mode == ExecutionMode::AlgebraNoOptim {
            None
        } else {
            xqr_xml::failpoint::check("phase::rewrite").map_err(|e| classify(e, Phase::Rewrite))?;
            let tracing = self.tracer.is_some();
            let t0 = tracing.then(Instant::now);
            let stats = isolate(Phase::Rewrite, "compiled plan", || {
                if tracing {
                    rewrite_module_traced(&mut compiled, options.rules)
                } else {
                    rewrite_module_with(&mut compiled, options.rules)
                }
            })?;
            if let Some(t0) = t0 {
                for ev in &stats.events {
                    self.trace(TraceEvent::Rule {
                        rule: ev.rule,
                        before_ops: ev.before_ops,
                        after_ops: ev.after_ops,
                        nanos: ev.nanos,
                    });
                }
                self.trace(TraceEvent::Span {
                    phase: "rewrite",
                    nanos: t0.elapsed().as_nanos() as u64,
                    detail: format!(
                        "{} rule firings, {} ops",
                        stats.events.len(),
                        plan_size(&compiled.body)
                    ),
                });
            }
            Some(stats)
        };
        // Canonical normalization (deterministic field/constant renaming,
        // commutative-operand ordering) runs last, so the plan that
        // executes, renders in EXPLAIN, and keys the plan cache and the
        // circuit breakers is the same canonical form.
        let canonical_hash = isolate(Phase::Rewrite, "canonicalization", || {
            xqr_core::canonicalize_module(&mut compiled);
            xqr_core::module_hash(&compiled)
        })?;
        Ok(PreparedQuery {
            mode,
            core: None,
            plan: Some(Rc::new(compiled)),
            stats: stats.map(Rc::new),
            canonical_hash: Some(canonical_hash),
            params: HashMap::new(),
            limits,
            fallback_note: RefCell::new(None),
            profile,
            last_profile: RefCell::new(None),
            query_id: Cell::new(None),
            last_spilled: Cell::new(false),
            last_fell_back: Cell::new(false),
        })
    }

    /// Like [`Engine::prepare`], but consults (and fills) the engine's
    /// plan cache: a repeat preparation of the same query shape skips
    /// parse/normalize/compile/rewrite entirely and costs one hash lookup
    /// plus an `Rc` clone. Records `plan_cache_hits`/`plan_cache_misses`
    /// in the process metrics.
    pub fn prepare_cached(
        &self,
        query: &str,
        options: &CompileOptions,
    ) -> Result<PreparedQuery, EngineError> {
        let (prepared, hit) = self.prepare_cached_outcome(query, options)?;
        if hit {
            metrics().record_plan_cache_hit();
        } else {
            metrics().record_plan_cache_miss();
        }
        Ok(prepared)
    }

    /// [`Engine::prepare_cached`] without the metrics recording; returns
    /// whether the plan came out of this engine's cache. The service uses
    /// this to distinguish a true miss (shape never seen anywhere) from a
    /// per-worker re-hydration of a shape the shared registry knows.
    pub fn prepare_cached_outcome(
        &self,
        query: &str,
        options: &CompileOptions,
    ) -> Result<(PreparedQuery, bool), EngineError> {
        xqr_xml::failpoint::check("engine::prepare").map_err(|e| classify(e, Phase::Parse))?;
        let text_key = text_cache_key(query, options);
        if let Some(cached) = self.plan_cache.borrow_mut().get(text_key) {
            return Ok((self.rehydrate_prepared(&cached, options), true));
        }
        let prepared = self.prepare(query, options)?;
        if !self.plan_cache.borrow().enabled() {
            return Ok((prepared, false));
        }
        let estimated_bytes = prepared.estimated_bytes(query.len());
        let cached = Rc::new(plancache::CachedPlan {
            core: prepared.core.clone(),
            plan: prepared.plan.clone(),
            stats: prepared.stats.clone(),
            canonical_hash: prepared
                .canonical_hash
                // NoAlgebra keeps no plan to canonicalize; the text key
                // stands in as the entry identity.
                .unwrap_or(text_key),
            estimated_bytes,
        });
        // A syntactic variant may already be cached under the same
        // canonical hash; adopt the shared entry so equal plans are
        // stored (and counted) once.
        let shared = self.plan_cache.borrow_mut().insert(text_key, cached);
        Ok((self.rehydrate_prepared(&shared, options), false))
    }

    /// Builds a [`PreparedQuery`] from a cached artifact: the immutable
    /// compiled plan is shared by `Rc`, the mutable execution state
    /// (params, fallback note, profile) is fresh per instance.
    fn rehydrate_prepared(
        &self,
        cached: &plancache::CachedPlan,
        options: &CompileOptions,
    ) -> PreparedQuery {
        PreparedQuery {
            mode: options.mode,
            core: cached.core.clone(),
            plan: cached.plan.clone(),
            stats: cached.stats.clone(),
            canonical_hash: cached.plan.is_some().then_some(cached.canonical_hash),
            params: HashMap::new(),
            limits: options.limits.clone().or_else(|| self.limits.clone()),
            fallback_note: RefCell::new(None),
            profile: options.profile,
            last_profile: RefCell::new(None),
            query_id: Cell::new(None),
            last_spilled: Cell::new(false),
            last_fell_back: Cell::new(false),
        }
    }

    /// Replaces the plan-cache configuration (and drops cached plans).
    pub fn set_plan_cache_config(&mut self, cfg: PlanCacheConfig) {
        *self.plan_cache.borrow_mut() = PlanCache::new(cfg);
    }

    /// Number of plans in this engine's cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.borrow().len()
    }

    /// Estimated bytes retained by this engine's plan cache.
    pub fn plan_cache_bytes(&self) -> usize {
        self.plan_cache.borrow().bytes()
    }

    /// Drops every cached plan (benchmarks use this for cold-cache runs).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.borrow_mut().clear();
    }

    /// One-shot convenience: prepare + run with default options.
    pub fn execute(&self, query: &str) -> Result<Sequence, EngineError> {
        self.prepare(query, &CompileOptions::default())?.run(self)
    }

    /// One-shot convenience returning serialized XML.
    pub fn execute_to_string(&self, query: &str) -> Result<String, EngineError> {
        Ok(xqr_xml::serialize_sequence(&self.execute(query)?))
    }
}

/// The plan-cache text key: FNV over the query text plus every compile
/// option that affects the resulting plan: the mode and the rule config.
/// Execution-only options (limits, profiling) are *not* keyed — they live
/// on the `PreparedQuery`, not the cached plan.
fn text_cache_key(query: &str, options: &CompileOptions) -> u64 {
    let rules = &options.rules;
    let fingerprint = [
        options.mode as u8,
        u8::from(rules.remove_map),
        u8::from(rules.unnesting),
        u8::from(rules.join_insertion),
        u8::from(rules.push_rules),
    ];
    let mut h = xqr_core::canon::fnv1a(query.as_bytes());
    for b in fingerprint {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A prepared query, bound to an execution mode. The compiled artifacts
/// are shared (`Rc`) so cache hits re-use one plan across many prepared
/// instances; per-run state (parameter bindings, profiles) is per
/// instance.
pub struct PreparedQuery {
    mode: ExecutionMode,
    core: Option<Rc<CoreModule>>,
    plan: Option<Rc<CompiledModule>>,
    stats: Option<Rc<RewriteStats>>,
    /// Canonical plan hash (`None` for NoAlgebra, which keeps no plan).
    canonical_hash: Option<u64>,
    /// Per-instance external-variable bindings ([`PreparedQuery::bind_param`]),
    /// overlaid over the engine-wide [`Engine::bind_variable`] bindings at
    /// run time — one compiled plan serves many argument sets.
    params: HashMap<QName, Sequence>,
    /// Effective limits (query-level, else engine-wide) captured at
    /// prepare time.
    limits: Option<Limits>,
    /// Set when a run was retried with spilling disabled; surfaced by
    /// [`PreparedQuery::explain`].
    fallback_note: RefCell<Option<String>>,
    /// Collect per-operator stats on every run.
    profile: bool,
    /// The profile of the most recent run (when `profile` is set).
    last_profile: RefCell<Option<QueryProfile>>,
    /// Service query id ([`PreparedQuery::set_query_id`]); stamped into
    /// recorded profiles so `EXPLAIN ANALYZE` joins to lifecycle journals.
    query_id: Cell<Option<u64>>,
    /// Whether the most recent run crossed the spill watermark.
    last_spilled: Cell<bool>,
    /// Whether the most recent run was retried with spilling disabled.
    last_fell_back: Cell<bool>,
}

impl PreparedQuery {
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Rewrite statistics (None for NoAlgebra / AlgebraNoOptim).
    pub fn rewrite_stats(&self) -> Option<&RewriteStats> {
        self.stats.as_deref()
    }

    /// The canonical plan hash ([`xqr_core::canon`]): identical for
    /// queries whose plans normalize to the same form. `None` for
    /// NoAlgebra, which compiles no plan.
    pub fn canonical_hash(&self) -> Option<u64> {
        self.canonical_hash
    }

    /// Tags subsequent runs with a service query id: profiles recorded by
    /// those runs carry the id (see [`QueryProfile::query_id`]), joining
    /// `EXPLAIN ANALYZE` output to the service's lifecycle journal.
    pub fn set_query_id(&self, id: u64) {
        self.query_id.set(Some(id));
    }

    /// The service query id, if one was set.
    pub fn query_id(&self) -> Option<u64> {
        self.query_id.get()
    }

    /// Whether the most recent run crossed the spill watermark (wrote
    /// intermediate state to disk).
    pub fn last_run_spilled(&self) -> bool {
        self.last_spilled.get()
    }

    /// Whether the most recent run degraded to the spill-disabled retry
    /// (see [`PreparedQuery::run_cancellable`]).
    pub fn last_run_fell_back(&self) -> bool {
        self.last_fell_back.get()
    }

    /// The query's external parameters: name, declared type (if any), and
    /// whether a default value exists.
    pub fn parameters(&self) -> Vec<(QName, Option<xqr_types::SequenceType>, bool)> {
        match (&self.plan, &self.core) {
            (Some(m), _) => m
                .parameters()
                .map(|g| (g.name.clone(), g.as_type.clone(), g.plan.is_some()))
                .collect(),
            (None, Some(core)) => core
                .variables
                .iter()
                .filter(|g| g.external)
                .map(|g| (g.name.clone(), g.as_type.clone(), g.value.is_some()))
                .collect(),
            (None, None) => Vec::new(),
        }
    }

    /// Binds a value to a declared external variable for this prepared
    /// instance (overriding any engine-wide [`Engine::bind_variable`]
    /// binding of the same name). Fails with `XPST0008` when the query
    /// declares no such external variable; a declared-type mismatch
    /// surfaces as `XPTY0004` at run time.
    pub fn bind_param(&mut self, name: &str, value: Sequence) -> Result<(), EngineError> {
        let q = QName::local(name);
        if !self.parameters().iter().any(|(n, _, _)| *n == q) {
            return Err(EngineError::Dynamic(XmlError::new(
                "XPST0008",
                format!("query declares no external variable ${name}"),
            )));
        }
        self.params.insert(q, value);
        Ok(())
    }

    /// Removes every [`PreparedQuery::bind_param`] binding.
    pub fn clear_params(&mut self) {
        self.params.clear();
    }

    /// Estimated retained bytes of the compiled artifacts (for the plan
    /// cache's byte budget): ~200 bytes per algebra op plus the query
    /// text.
    fn estimated_bytes(&self, query_len: usize) -> usize {
        let mut ops = 0usize;
        if let Some(m) = &self.plan {
            ops += plan_size(&m.body);
            for g in &m.globals {
                if let Some(p) = &g.plan {
                    ops += plan_size(p);
                }
            }
            for f in m.functions.values() {
                ops += plan_size(&f.body);
            }
        }
        ops * 200 + query_len + 64
    }

    /// The optimized (or naive) algebra plan, in the paper's notation,
    /// with a per-operator streams/materializes note on the plan tree
    /// itself, followed by a summary of the pipeline strategy. Uses the
    /// same annotation mechanism as [`PreparedQuery::explain_analyze`].
    pub fn explain(&self) -> String {
        let base = match &self.plan {
            Some(m) => {
                let ann = xqr_runtime::explain_annotations(&m.body, self.mode.join_algorithm());
                let plan = pretty::indented_annotated(&m.body, &ann);
                format!(
                    "{plan}\nexecution: pipelined\n{}",
                    xqr_runtime::pipeline_report(&m.body)
                )
            }
            None => "(no algebra: direct Core interpretation)".to_string(),
        };
        match &*self.fallback_note.borrow() {
            Some(note) => format!("{base}\n{note}"),
            None => base,
        }
    }

    /// The plan annotated with the measured per-operator stats of the most
    /// recent run: rows produced, `next()`/eval calls, estimated inclusive
    /// and self time, join build time, peak materialized bytes, group-by
    /// partitions, and kernel dispatches. Requires preparing with
    /// [`CompileOptions::with_profiling`] and running the query first.
    pub fn explain_analyze(&self) -> String {
        let profile = self.last_profile.borrow();
        let Some(p) = &*profile else {
            return "(no profile recorded: prepare with CompileOptions::with_profiling() \
                    and run the query first)"
                .to_string();
        };
        let mut out = String::new();
        if let (Some(m), Some(_)) = (&self.plan, &p.root) {
            out.push_str(&pretty::indented_annotated(&m.body, &p.annotations()));
            out.push('\n');
        }
        out.push_str(&format!(
            "strategy: {}\nwall: {}",
            p.strategy,
            xqr_runtime::fmt_nanos(p.wall_nanos)
        ));
        // The journal join keys: a service-assigned query id and the
        // canonical plan hash correlate this rendering with the lifecycle
        // timeline and the per-shape statistics table.
        if let Some(id) = p.query_id {
            out.push_str(&format!("\nquery: {id}"));
        }
        if let Some(h) = p.plan_hash {
            out.push_str(&format!("\nplan: {h:016x}"));
        }
        if let Some(counts) = &p.interp {
            for (k, v) in counts {
                out.push_str(&format!("\n{k}  {v}"));
            }
        }
        out
    }

    /// The profile of the most recent run, if profiling was enabled.
    pub fn profile(&self) -> Option<QueryProfile> {
        self.last_profile.borrow().clone()
    }

    /// The most recent profile as JSON.
    pub fn profile_json(&self) -> Option<String> {
        self.last_profile.borrow().as_ref().map(|p| p.to_json())
    }

    /// The compiled module (algebra modes only).
    pub fn compiled(&self) -> Option<&CompiledModule> {
        self.plan.as_deref()
    }

    /// Executes against the engine's documents/bindings under the
    /// effective [`Limits`], behind the panic-isolation boundary.
    pub fn run(&self, engine: &Engine) -> Result<Sequence, EngineError> {
        self.run_cancellable(engine, CancellationToken::new())
    }

    /// [`PreparedQuery::run`] with an externally held cancellation handle:
    /// `token.cancel()` from any thread makes the query fail with
    /// `XQRG0002` at its next cooperative check.
    ///
    /// A run that fails because spilling itself failed (`XQRG0005`) is
    /// rerun once with spilling disabled, under the strict in-memory byte
    /// budget; if that rerun fails too, the original `XQRG0005` is
    /// returned. No other failure is retried.
    pub fn run_cancellable(
        &self,
        engine: &Engine,
        token: CancellationToken,
    ) -> Result<Sequence, EngineError> {
        metrics().record_query_start();
        let t0 = Instant::now();
        let limits = self.limits.clone().unwrap_or_default();
        let governor = Governor::new(&limits, token.clone());
        self.last_spilled.set(false);
        self.last_fell_back.set(false);
        let result = match self.run_once(engine, &governor) {
            Err(EngineError::LimitExceeded {
                code,
                phase,
                budget,
                message,
            }) if code == ERR_SPILL_IO && self.plan.is_some() => {
                // Spilling itself failed irrecoverably (retries exhausted
                // or a corrupt frame): retry once with spilling disabled,
                // degrading to the strict in-memory byte budget — a broken
                // disk shouldn't fail a query that fits in memory.
                metrics().record_fallback();
                self.last_fell_back.set(true);
                *self.fallback_note.borrow_mut() = Some(format!(
                    "fallback: spilling failed during {} ({message}); \
                     retried with spilling disabled",
                    phase.label()
                ));
                let strict = Governor::new(&limits.clone().with_spill(None), token);
                match self.run_once(engine, &strict) {
                    Ok(v) => Ok(v),
                    Err(_retry_err) => Err(EngineError::LimitExceeded {
                        code,
                        phase,
                        budget,
                        message,
                    }),
                }
            }
            other => other,
        };
        let wall = t0.elapsed().as_nanos() as u64;
        if governor.spilled() {
            self.last_spilled.set(true);
        }
        match &result {
            Ok(v) => {
                metrics().record_query_ok(wall);
                if engine.tracer.is_some() {
                    if governor.spilled() {
                        engine.trace(TraceEvent::Span {
                            phase: "spill",
                            nanos: 0,
                            detail: format!(
                                "memory watermark crossed; {} bytes spilled to disk",
                                governor.spill_bytes_total()
                            ),
                        });
                    }
                    engine.trace(TraceEvent::Span {
                        phase: "execute",
                        nanos: wall,
                        detail: format!("rows={}", v.len()),
                    });
                }
            }
            Err(e) => metrics().record_query_error(e.code().unwrap_or("internal")),
        }
        result
    }

    /// One governed execution attempt behind `catch_unwind`.
    fn run_once(&self, engine: &Engine, governor: &Governor) -> Result<Sequence, EngineError> {
        xqr_xml::failpoint::check("phase::execute").map_err(|e| classify(e, Phase::Execute))?;
        let profiler =
            (self.profile && self.plan.is_some()).then(|| Profiler::new(governor.clone()));
        let interp_profile =
            (self.profile && self.plan.is_none()).then(|| Rc::new(InterpProfile::default()));
        let t0 = self.profile.then(Instant::now);
        // Engine-wide externals overlaid by this instance's bind_param
        // bindings: the parameter-binding half of the prepared-query path.
        let globals = || {
            let mut g = engine.externals.clone();
            g.extend(self.params.iter().map(|(k, v)| (k.clone(), v.clone())));
            g
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| match self.mode {
            ExecutionMode::NoAlgebra => {
                let core = self.core.as_deref().expect("core kept for NoAlgebra");
                eval_core_module_profiled(
                    core,
                    &engine.schema,
                    &engine.documents,
                    globals(),
                    governor.clone(),
                    interp_profile.clone(),
                )
            }
            mode => {
                let module = self.plan.as_deref().expect("compiled plan");
                let mut ctx = Ctx::new(
                    module,
                    &engine.schema,
                    &engine.documents,
                    mode.join_algorithm(),
                );
                ctx.globals = globals();
                ctx.governor = governor.clone();
                ctx.profiler = profiler.clone();
                xqr_runtime::eval::eval_module(&mut ctx)
            }
        }));
        if let Some(t0) = t0 {
            // Snapshot even on a failed run: the partial profile shows how
            // far the plan got before the error.
            let wall = t0.elapsed().as_nanos() as u64;
            let mut snap = if let Some(p) = &profiler {
                p.snapshot("pipelined", wall)
            } else {
                QueryProfile {
                    strategy: "core-interp".to_string(),
                    wall_nanos: wall,
                    query_id: None,
                    plan_hash: None,
                    root: None,
                    interp: interp_profile.as_ref().map(|ip| ip.counts()),
                }
            };
            snap.query_id = self.query_id.get();
            snap.plan_hash = self.canonical_hash;
            *self.last_profile.borrow_mut() = Some(snap);
        }
        match outcome {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(classify(e, Phase::Execute)),
            Err(p) => Err(EngineError::Internal {
                phase: Phase::Execute,
                plan_context: self.plan_context(),
                message: panic_message(p),
            }),
        }
    }

    /// Short description of what was executing, for [`EngineError::Internal`].
    fn plan_context(&self) -> String {
        match &self.plan {
            None => format!("{} (Core interpreter)", self.mode.label()),
            Some(m) => {
                let plan = pretty::indented(&m.body);
                let root = plan.lines().next().unwrap_or("?").trim().to_string();
                format!("{} plan rooted at {root}", self.mode.label())
            }
        }
    }

    /// Executes and serializes.
    pub fn run_to_string(&self, engine: &Engine) -> Result<String, EngineError> {
        Ok(xqr_xml::serialize_sequence(&self.run(engine)?))
    }

    /// [`PreparedQuery::run_cancellable`], serialized.
    pub fn run_cancellable_to_string(
        &self,
        engine: &Engine,
        token: CancellationToken,
    ) -> Result<String, EngineError> {
        Ok(xqr_xml::serialize_sequence(
            &self.run_cancellable(engine, token)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(xml: &str) -> Engine {
        let mut e = Engine::new();
        e.bind_document("doc.xml", xml).unwrap();
        e
    }

    fn run_all_modes(engine: &Engine, q: &str) -> Vec<String> {
        ExecutionMode::ALL
            .iter()
            .map(|m| {
                engine
                    .prepare(q, &CompileOptions::mode(*m))
                    .unwrap_or_else(|e| panic!("{m:?} prepare: {e}"))
                    .run_to_string(engine)
                    .unwrap_or_else(|e| panic!("{m:?} run: {e}"))
            })
            .collect()
    }

    /// All four execution modes must agree — the central cross-check.
    fn assert_modes_agree(engine: &Engine, q: &str) -> String {
        let results = run_all_modes(engine, q);
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "modes disagree on {q:?}");
        }
        results.into_iter().next().expect("non-empty")
    }

    #[test]
    fn arithmetic_and_sequences() {
        let e = Engine::new();
        assert_eq!(assert_modes_agree(&e, "1 + 2 * 3"), "7");
        assert_eq!(assert_modes_agree(&e, "(1, 2, 3)"), "1 2 3");
        assert_eq!(assert_modes_agree(&e, "sum(1 to 10)"), "55");
        assert_eq!(assert_modes_agree(&e, "7 div 2"), "3.5");
        assert_eq!(assert_modes_agree(&e, "7 idiv 2"), "3");
    }

    #[test]
    fn flwor_basics() {
        let e = Engine::new();
        assert_eq!(
            assert_modes_agree(&e, "for $x in (1,2,3) where $x > 1 return $x * 10"),
            "20 30"
        );
        assert_eq!(
            assert_modes_agree(&e, "for $x at $i in ('a','b') return $i"),
            "1 2"
        );
        assert_eq!(
            assert_modes_agree(&e, "for $x in (3,1,2) order by $x descending return $x"),
            "3 2 1"
        );
        assert_eq!(
            assert_modes_agree(&e, "for $x in (1,2), $y in (10,20) return $x + $y"),
            "11 21 12 22"
        );
    }

    #[test]
    fn figure4_query_all_modes() {
        // The Section 5 / Fig. 4 example; ensures the GroupBy pipeline
        // computes the same result as plain interpretation.
        let e = Engine::new();
        assert_eq!(
            assert_modes_agree(
                &e,
                "for $x in (1,1,3) \
                 let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) \
                 return ($x, $a)"
            ),
            "1 15 1 15 3"
        );
    }

    #[test]
    fn paths_and_predicates() {
        let e = engine_with("<r><a id='1'>x</a><a id='2'>y</a><b/></r>");
        assert_eq!(
            assert_modes_agree(&e, "doc('doc.xml')/r/a[@id = '2']/text()"),
            "y"
        );
        assert_eq!(assert_modes_agree(&e, "count(doc('doc.xml')//a)"), "2");
        assert_eq!(
            assert_modes_agree(&e, "doc('doc.xml')/r/a[2]/@id/string(.)"),
            "2"
        );
        assert_eq!(
            assert_modes_agree(&e, "doc('doc.xml')/r/a[last()]/text()"),
            "y"
        );
    }

    #[test]
    fn join_query_all_modes() {
        let e = engine_with("<db><p id='1'/><p id='2'/><o ref='1'/><o ref='1'/><o ref='3'/></db>");
        // Correlated count per p — the unnesting pipeline.
        assert_eq!(
            assert_modes_agree(
                &e,
                "for $p in doc('doc.xml')//p \
                 let $os := for $o in doc('doc.xml')//o \
                            where $o/@ref = $p/@id return $o \
                 return count($os)"
            ),
            "2 0"
        );
    }

    #[test]
    fn constructors() {
        let e = Engine::new();
        assert_eq!(
            assert_modes_agree(&e, "<a x=\"{1+1}\">t{2+3}</a>"),
            "<a x=\"2\">t5</a>"
        );
        assert_eq!(
            assert_modes_agree(&e, "element item { attribute id {'7'}, text {'v'} }"),
            "<item id=\"7\">v</item>"
        );
    }

    #[test]
    fn quantifiers_and_conditionals() {
        let e = Engine::new();
        assert_eq!(
            assert_modes_agree(&e, "some $x in (1,2,3) satisfies $x = 2"),
            "true"
        );
        assert_eq!(
            assert_modes_agree(&e, "every $x in (1,2,3) satisfies $x < 3"),
            "false"
        );
        assert_eq!(assert_modes_agree(&e, "if (1 = 1) then 'y' else 'n'"), "y");
    }

    #[test]
    fn user_functions() {
        let e = Engine::new();
        let q = "declare function local:fact($n as xs:integer) as xs:integer \
                 { if ($n <= 1) then 1 else $n * local:fact($n - 1) }; \
                 local:fact(6)";
        assert_eq!(assert_modes_agree(&e, q), "720");
    }

    #[test]
    fn external_variables() {
        let mut e = Engine::new();
        e.bind_variable("size", Sequence::integers([5]));
        let q = "declare variable $size external; $size * 2";
        assert_eq!(assert_modes_agree(&e, q), "10");
    }

    #[test]
    fn explain_shows_group_by_for_nested_query() {
        let e = Engine::new();
        let q = "for $x in (1,2) let $a := (for $y in (1,2) where $y = $x return $y) \
                 return count($a)";
        let prepared = e
            .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap();
        assert!(
            prepared.explain().contains("GroupBy"),
            "{}",
            prepared.explain()
        );
        assert!(prepared.explain().contains("LOuterJoin"));
        assert!(prepared.rewrite_stats().unwrap().count("insert group-by") >= 1);
    }

    #[test]
    fn explain_reports_execution_strategy() {
        let e = Engine::new();
        let q = "for $x in (1,2,3) where $x > 1 return $x";
        let pipelined = e
            .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap();
        assert!(
            pipelined.explain().contains("execution: pipelined"),
            "{}",
            pipelined.explain()
        );
        assert!(pipelined.explain().contains("pipelined (streaming):"));
    }

    #[test]
    fn mode_errors_match() {
        let e = Engine::new();
        for m in ExecutionMode::ALL {
            let r = e
                .prepare("exactly-one(())", &CompileOptions::mode(m))
                .unwrap()
                .run(&e);
            assert!(r.is_err(), "{m:?}");
        }
    }

    #[test]
    fn prepare_cached_hits_on_repeat() {
        let e = Engine::new();
        let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin);
        let q = "for $x in (1,2,3) where $x > 1 return $x * 10";
        let (p1, hit1) = e.prepare_cached_outcome(q, &opts).unwrap();
        assert!(!hit1, "first preparation is a miss");
        assert_eq!(e.plan_cache_len(), 1);
        let (p2, hit2) = e.prepare_cached_outcome(q, &opts).unwrap();
        assert!(hit2, "repeat preparation hits the cache");
        assert_eq!(p1.run_to_string(&e).unwrap(), p2.run_to_string(&e).unwrap());
        assert_eq!(
            p1.explain(),
            p2.explain(),
            "cached plan explains identically"
        );
        assert_eq!(p1.canonical_hash(), p2.canonical_hash());
    }

    #[test]
    fn prepare_cached_dedups_renamed_queries() {
        // Alpha-renamed queries canonicalize to the same plan: two text
        // keys, one cache entry, equal canonical hashes.
        let e = Engine::new();
        let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin);
        let a = e
            .prepare_cached("for $x in (1,2,3) where $x > 1 return $x * 10", &opts)
            .unwrap();
        let b = e
            .prepare_cached("for $y in (1,2,3) where $y > 1 return $y * 10", &opts)
            .unwrap();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        assert_eq!(e.plan_cache_len(), 1, "variants share one entry");
    }

    #[test]
    fn cache_keys_by_mode_and_options() {
        let e = Engine::new();
        let q = "1 + 2";
        e.prepare_cached(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap();
        let (_, hit) = e
            .prepare_cached_outcome(q, &CompileOptions::mode(ExecutionMode::AlgebraNoOptim))
            .unwrap();
        assert!(!hit, "a different mode is a different plan");
    }

    #[test]
    fn bind_param_runs_with_bound_value() {
        let e = Engine::new();
        let q = "declare variable $n as xs:integer external; $n * 2";
        let mut p = e
            .prepare_cached(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap();
        let params = p.parameters();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].0, QName::local("n"));
        assert!(params[0].1.is_some(), "declared type is surfaced");
        assert!(!params[0].2, "no default value");
        p.bind_param("n", Sequence::integers([21])).unwrap();
        assert_eq!(p.run_to_string(&e).unwrap(), "42");
        // Re-binding the same prepared instance re-uses the plan.
        p.bind_param("n", Sequence::integers([5])).unwrap();
        assert_eq!(p.run_to_string(&e).unwrap(), "10");
    }

    #[test]
    fn bind_param_overrides_engine_binding_per_instance() {
        let mut e = Engine::new();
        e.bind_variable("n", Sequence::integers([1]));
        let q = "declare variable $n as xs:integer external; $n";
        let mut p = e
            .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap();
        assert_eq!(p.run_to_string(&e).unwrap(), "1");
        p.bind_param("n", Sequence::integers([7])).unwrap();
        assert_eq!(p.run_to_string(&e).unwrap(), "7");
        p.clear_params();
        assert_eq!(p.run_to_string(&e).unwrap(), "1");
    }

    #[test]
    fn external_default_used_when_unbound() {
        let e = Engine::new();
        let q = "declare variable $n as xs:integer external := 9; $n + 1";
        assert_eq!(assert_modes_agree(&e, q), "10");
        let mut p = e
            .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap();
        assert!(p.parameters()[0].2, "default value is surfaced");
        p.bind_param("n", Sequence::integers([99])).unwrap();
        assert_eq!(p.run_to_string(&e).unwrap(), "100");
    }

    #[test]
    fn external_binding_errors() {
        let e = Engine::new();
        let q = "declare variable $n as xs:integer external; $n";
        let mut p = e
            .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
            .unwrap();
        // Unbound required external: XPDY0002 at run time, all modes.
        for m in ExecutionMode::ALL {
            let err = e
                .prepare(q, &CompileOptions::mode(m))
                .unwrap()
                .run(&e)
                .unwrap_err();
            assert!(err.to_string().contains("XPDY0002"), "{m:?}: {err}");
        }
        // Unknown parameter name: XPST0008 at bind time.
        let err = p.bind_param("nope", Sequence::integers([1])).unwrap_err();
        assert!(err.to_string().contains("XPST0008"), "{err}");
        // Declared-type mismatch: XPTY0004 at run time.
        p.bind_param("n", Sequence::singleton(xqr_xml::AtomicValue::string("x")))
            .unwrap();
        let err = p.run(&e).unwrap_err();
        assert!(err.to_string().contains("XPTY0004"), "{err}");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn prepare_failpoint_fails_cached_preparation() {
        let _g = xqr_xml::failpoint::FailGuard::new("engine::prepare", "err(1)").unwrap();
        let e = Engine::new();
        let err = match e.prepare_cached("1", &CompileOptions::default()) {
            Err(err) => err,
            Ok(_) => panic!("prepare should trip the armed failpoint"),
        };
        assert!(
            err.to_string().contains(xqr_xml::failpoint::ERR_INJECTED),
            "{err}"
        );
        // The failure is injected before the cache is consulted; the next
        // preparation succeeds and populates the cache.
        assert!(e.prepare_cached("1", &CompileOptions::default()).is_ok());
    }
}
