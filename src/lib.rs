//! # xqr — an algebraic XQuery compiler
//!
//! Meta-crate re-exporting the public API of the engine and its substrates.
//! See [`xqr_engine::Engine`] for the main entry point.
//!
//! This workspace is a from-scratch Rust reproduction of *"A Complete and
//! Efficient Algebraic Compiler for XQuery"* (Ré, Siméon, Fernández,
//! ICDE 2006): complete compilation of XQuery 1.0 into a tuple/XML algebra,
//! unnesting rewritings introducing `GroupBy`/`LOuterJoin`, and
//! XQuery-aware join algorithms.

pub use xqr_clio as clio;
pub use xqr_core as core;
pub use xqr_engine as engine;
pub use xqr_frontend as frontend;
pub use xqr_runtime as runtime;
pub use xqr_types as types;
pub use xqr_xmark as xmark;
pub use xqr_xml as xml;

pub use xqr_engine::{
    BreakerConfig, BudgetKind, CancellationToken, CollectingTracer, CompileOptions, Engine,
    EngineError, ExecutionMode, JoinAlgorithm, LifecyclePhase, Limits, MetricsSnapshot, NoopTracer,
    ObserveConfig, ObserveReport, Phase, PhaseLatency, PlanCache, PlanCacheConfig, PreparedQuery,
    ProfileNode, QueryProfile, QueryRequest, QueryService, QueryTicket, QueryTimeline, RetryPolicy,
    ServiceConfig, ServiceOutput, ShapeStats, ShedReason, StderrTracer, TraceEvent, Tracer,
};
