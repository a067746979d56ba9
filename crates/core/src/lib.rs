//! # xqr-core — the paper's contribution
//!
//! The complete XQuery logical algebra (**Table 1** of the paper), the
//! compilation judgment from the (modified) XQuery Core into the algebra
//! (**Section 4**, Figs. 2–3), and the unnesting rewritings (**Section 5**,
//! Fig. 5) that introduce the XQuery-specific `GroupBy` and `LOuterJoin`
//! operators.
//!
//! * [`algebra`] — the operators and plan tree;
//! * [`fields`] — free-`IN` analysis and tuple-field inference used by the
//!   rewrite conditions ("when Op₁ independent of IN") and the join
//!   key-splitting in `xqr-runtime`;
//! * [`pretty`] — plan printer in the paper's
//!   `Op[params]{deps}(inputs)` notation;
//! * [`compile`] — Core → algebra;
//! * [`rewrite`] — the rewrite engine and rules: *(remove map)*, *(insert
//!   product)*, *(insert join)*, *(insert group-by)*, *(map through
//!   group-by)*, *(remove duplicate null)*, *(insert outer-join)*.

pub mod algebra;
pub mod canon;
pub mod compile;
pub mod fields;
pub mod fuse;
pub mod pretty;
pub mod rewrite;
pub mod trace;

pub use algebra::{Field, NamePlan, Op, OrderSpecPlan, Plan};
pub use canon::{canonicalize_module, module_hash};
pub use compile::{compile_module, CompiledFunction, CompiledGlobal, CompiledModule};
pub use fields::{output_fields, used_input_fields, uses_input};
pub use rewrite::{
    rewrite_module, rewrite_module_traced, rewrite_module_with, rewrite_plan, RewriteStats,
    RuleConfig, RuleEvent,
};
pub use trace::{CollectingTracer, NoopTracer, StderrTracer, TraceEvent, Tracer};
