//! The dynamic evaluation context (the paper's implicit *algebra context*:
//! function parameters and compiled plans for user functions, plus globals,
//! loaded documents, the schema, and physical-operator configuration).

use std::collections::HashMap;

use xqr_core::CompiledModule;
use xqr_types::Schema;
use xqr_xml::{Governor, NodeHandle, QName, Sequence, XmlError};

/// Which physical algorithm `Join`/`LOuterJoin` use when an equality key
/// can be split across the inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinAlgorithm {
    /// Always nested loop (the paper's "NL Join" column).
    NestedLoop,
    /// The typed, order-preserving hash join of Fig. 6.
    Hash,
    /// The order-preserving B-tree index (sort) join.
    Sort,
}

/// Dynamic context for plan evaluation.
pub struct Ctx<'a> {
    pub module: &'a CompiledModule,
    pub schema: &'a Schema,
    /// Pre-loaded documents for `Parse` (fn:doc), keyed by URI.
    pub documents: &'a HashMap<String, NodeHandle>,
    /// Global variable values (externals and evaluated declarations).
    pub globals: HashMap<QName, Sequence>,
    /// Function-call frames (parameters by name).
    frames: Vec<HashMap<QName, Sequence>>,
    pub join_algorithm: JoinAlgorithm,
    /// The resource governor: budgets, deadline, cancellation, and the
    /// single source of truth for user-function recursion depth (shared
    /// with the Core interpreter, which tracks depth through the same
    /// type).
    pub governor: Governor,
    /// Per-operator profiling (`explain_analyze`). `None` — the default —
    /// leaves every instrumentation site at a single branch test.
    pub profiler: Option<crate::profile::Profiler>,
    /// The query's scoped spill directory, created lazily on first spill
    /// and removed (with everything in it) when the context drops — the
    /// engine drops the context on every exit path, including unwinds.
    spill: Option<std::rc::Rc<crate::spill::SpillManager>>,
    /// Per-step-site compiled-test caches for the eager `TreeJoin` arm,
    /// keyed by plan address. A step inside a per-tuple dependent plan is
    /// re-evaluated once per row; without this it recompiles its node test
    /// (a `QName` allocation plus an interned-name hash lookup) every
    /// time. Every plan node, function bodies included, keeps its address
    /// for the whole run.
    step_tests: std::cell::RefCell<
        HashMap<usize, std::rc::Rc<std::cell::RefCell<xqr_xml::axes::TestCache>>>,
    >,
    /// Loop-invariant join inner sides, built once per run and shared by
    /// later opens of the same join, keyed by the join's plan address.
    /// Entries are made and read only while no function frame is active:
    /// an inner side in a function body may read parameters, which vary
    /// between calls.
    join_builds: HashMap<usize, std::rc::Rc<crate::joins::JoinBuild>>,
}

impl<'a> Ctx<'a> {
    pub fn new(
        module: &'a CompiledModule,
        schema: &'a Schema,
        documents: &'a HashMap<String, NodeHandle>,
        join_algorithm: JoinAlgorithm,
    ) -> Self {
        Ctx {
            module,
            schema,
            documents,
            globals: HashMap::new(),
            frames: Vec::new(),
            join_algorithm,
            governor: Governor::unlimited(),
            profiler: None,
            spill: None,
            step_tests: std::cell::RefCell::new(HashMap::new()),
            join_builds: HashMap::new(),
        }
    }

    /// May this open of a join keep its build for later opens, or take
    /// one that an earlier open kept? Not inside a function call (see
    /// `join_builds`), and not past the spill watermark, where held
    /// builds are memory the query is short of. Nor under a strict byte
    /// budget (spilling off): an idle kept build stays reserved where a
    /// per-open one was released when its cursor closed, and with no
    /// spill path to fall back on that reservation could fail a query
    /// that fits when every open builds.
    pub(crate) fn can_share_join_builds(&self) -> bool {
        let strict = self.governor.has_byte_budget() && !self.governor.spill_enabled();
        self.frames.is_empty() && !self.governor.should_spill() && !strict
    }

    pub(crate) fn shared_join_build(
        &self,
        join: &xqr_core::algebra::Plan,
    ) -> Option<std::rc::Rc<crate::joins::JoinBuild>> {
        self.join_builds.get(&(join as *const _ as usize)).cloned()
    }

    pub(crate) fn share_join_build(
        &mut self,
        join: &xqr_core::algebra::Plan,
        build: std::rc::Rc<crate::joins::JoinBuild>,
    ) {
        self.join_builds.insert(join as *const _ as usize, build);
    }

    /// Releases every kept build (their byte charges return to the
    /// governor once the cursors still probing them finish).
    pub(crate) fn drop_join_builds(&mut self) {
        self.join_builds.clear();
    }

    /// The compiled-test cache for a `TreeJoin` step site, creating it on
    /// first use. Bounded defensively: a pathological plan churn (many
    /// distinct sites) clears the whole map rather than growing without
    /// limit.
    pub(crate) fn step_cache(
        &self,
        plan: &xqr_core::algebra::Plan,
    ) -> std::rc::Rc<std::cell::RefCell<xqr_xml::axes::TestCache>> {
        let key = plan as *const _ as usize;
        let mut map = self.step_tests.borrow_mut();
        if map.len() > 1024 && !map.contains_key(&key) {
            map.clear();
        }
        map.entry(key).or_default().clone()
    }

    /// The query's spill manager, creating the scoped temp directory on
    /// first use.
    pub(crate) fn spill_manager(
        &mut self,
    ) -> xqr_xml::Result<std::rc::Rc<crate::spill::SpillManager>> {
        if let Some(m) = &self.spill {
            return Ok(m.clone());
        }
        let m = crate::spill::SpillManager::create(&self.governor)?;
        self.spill = Some(m.clone());
        Ok(m)
    }

    /// Resolves a free variable: innermost function frame, then globals.
    pub fn lookup_var(&self, q: &QName) -> xqr_xml::Result<Sequence> {
        if let Some(frame) = self.frames.last() {
            if let Some(v) = frame.get(q) {
                return Ok(v.clone());
            }
        }
        self.globals
            .get(q)
            .cloned()
            .ok_or_else(|| XmlError::new("XPDY0002", format!("unbound variable ${q}")))
    }

    pub fn push_frame(&mut self, frame: HashMap<QName, Sequence>) -> xqr_xml::Result<()> {
        self.governor.enter_frame()?;
        self.frames.push(frame);
        Ok(())
    }

    pub fn pop_frame(&mut self) {
        self.frames.pop();
        self.governor.exit_frame();
    }

    pub fn resolve_document(&self, uri: &str) -> xqr_xml::Result<NodeHandle> {
        self.documents
            .get(uri)
            .cloned()
            .ok_or_else(|| XmlError::new("FODC0002", format!("document not available: {uri}")))
    }
}
