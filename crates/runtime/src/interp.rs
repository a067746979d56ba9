//! The direct Core interpreter — the paper's **"No algebra"** baseline
//! (Table 3, first row).
//!
//! Reproduces the original Galax evaluation strategy: expressions are
//! evaluated directly off the normalized Core AST; variables live in a
//! QName-keyed dynamic context that is *searched* at each reference (the
//! paper attributes a large part of the algebra's 4× speedup to replacing
//! those "dynamic lookups in the dynamic context by direct compiled memory
//! access"); FLWOR tuple streams are materialized as vectors of
//! environment maps; every nested block re-evaluates per binding
//! (nested-loop semantics throughout, no join or unnesting optimization).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use xqr_frontend::core_ast::{CoreClause, CoreExpr, CoreModule, CoreOrderSpec};
use xqr_types::Schema;
use xqr_xml::axes::tree_join_governed;
use xqr_xml::{AtomicValue, Governor, NodeHandle, QName, Sequence, SequenceBuilder, XmlError};

use crate::compare::{atomize_optional, effective_boolean_value, order_key_compare};
use crate::construct::{
    construct_attribute, construct_document, construct_element, construct_text,
};
use crate::functions::{call_builtin, is_builtin, BuiltinCtx};

/// A persistent environment: a linked list searched front-to-back — the
/// deliberate "dynamic lookup" of the baseline.
#[derive(Clone, Default)]
struct Env(Option<Rc<EnvNode>>);

struct EnvNode {
    name: QName,
    value: Sequence,
    parent: Env,
}

impl Env {
    fn bind(&self, name: QName, value: Sequence) -> Env {
        Env(Some(Rc::new(EnvNode {
            name,
            value,
            parent: self.clone(),
        })))
    }

    fn lookup(&self, name: &QName) -> Option<Sequence> {
        let mut cur = &self.0;
        while let Some(node) = cur {
            if &node.name == name {
                return Some(node.value.clone());
            }
            cur = &node.parent.0;
        }
        None
    }
}

/// Evaluation counters for the "No algebra" baseline: one count per Core
/// expression kind plus one per FLWOR clause kind (`clause:for`, …). The
/// baseline has no plan tree to hang per-operator stats on, so the profile
/// is a flat histogram of what the interpreter actually evaluated.
#[derive(Default)]
pub struct InterpProfile {
    counts: RefCell<BTreeMap<&'static str, u64>>,
}

impl InterpProfile {
    fn bump(&self, key: &'static str) {
        *self.counts.borrow_mut().entry(key).or_insert(0) += 1;
    }

    pub fn counts(&self) -> BTreeMap<String, u64> {
        self.counts
            .borrow()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }
}

fn expr_kind(e: &CoreExpr) -> &'static str {
    match e {
        CoreExpr::Literal(_) => "Literal",
        CoreExpr::Var(_) => "Var",
        CoreExpr::Seq(_) => "Seq",
        CoreExpr::Empty => "Empty",
        CoreExpr::Flwor { .. } => "Flwor",
        CoreExpr::Quantified { .. } => "Quantified",
        CoreExpr::Typeswitch { .. } => "Typeswitch",
        CoreExpr::If { .. } => "If",
        CoreExpr::Step { .. } => "Step",
        CoreExpr::Call { .. } => "Call",
        CoreExpr::ElementCtor { .. } => "ElementCtor",
        CoreExpr::AttributeCtor { .. } => "AttributeCtor",
        CoreExpr::TextCtor(_) => "TextCtor",
        CoreExpr::CommentCtor(_) => "CommentCtor",
        CoreExpr::PiCtor { .. } => "PiCtor",
        CoreExpr::DocumentCtor(_) => "DocumentCtor",
        CoreExpr::Cast { .. } => "Cast",
        CoreExpr::Castable { .. } => "Castable",
        CoreExpr::TypeAssert { .. } => "TypeAssert",
        CoreExpr::InstanceOf { .. } => "InstanceOf",
        CoreExpr::Validate { .. } => "Validate",
    }
}

struct Interp<'a> {
    module: &'a CoreModule,
    schema: &'a Schema,
    documents: &'a HashMap<String, NodeHandle>,
    globals: HashMap<QName, Sequence>,
    /// Shared resource governor: budgets, deadline/cancellation, and the
    /// single recursion-depth authority (the interpreter used to keep its
    /// own `depth` counter next to the plan evaluator's — they now share
    /// this one).
    governor: Governor,
    /// Optional evaluation counters (EXPLAIN ANALYZE on the baseline).
    profile: Option<Rc<InterpProfile>>,
}

/// Evaluates a normalized Core module directly (no algebra), ungoverned.
pub fn eval_core_module(
    module: &CoreModule,
    schema: &Schema,
    documents: &HashMap<String, NodeHandle>,
    externals: HashMap<QName, Sequence>,
) -> xqr_xml::Result<Sequence> {
    eval_core_module_with(module, schema, documents, externals, Governor::unlimited())
}

/// Evaluates a normalized Core module under a resource governor.
pub fn eval_core_module_with(
    module: &CoreModule,
    schema: &Schema,
    documents: &HashMap<String, NodeHandle>,
    externals: HashMap<QName, Sequence>,
    governor: Governor,
) -> xqr_xml::Result<Sequence> {
    eval_core_module_profiled(module, schema, documents, externals, governor, None)
}

/// Evaluates under a governor with optional evaluation counters.
pub fn eval_core_module_profiled(
    module: &CoreModule,
    schema: &Schema,
    documents: &HashMap<String, NodeHandle>,
    externals: HashMap<QName, Sequence>,
    governor: Governor,
    profile: Option<Rc<InterpProfile>>,
) -> xqr_xml::Result<Sequence> {
    let mut it = Interp {
        module,
        schema,
        documents,
        globals: externals,
        governor,
        profile,
    };
    for g in &module.variables {
        if g.external {
            if let Some(bound) = it.globals.get(&g.name) {
                if let Some(st) = &g.as_type {
                    if !st.matches(bound, it.schema) {
                        return Err(XmlError::new(
                            "XPTY0004",
                            format!(
                                "value bound to external variable ${} does not \
                                 match its declared type {st}",
                                g.name
                            ),
                        ));
                    }
                }
                continue;
            }
            let Some(v) = &g.value else {
                return Err(XmlError::new(
                    "XPDY0002",
                    format!("external variable ${} was not bound", g.name),
                ));
            };
            let evaluated = it.eval(v, &Env::default())?;
            it.globals.insert(g.name.clone(), evaluated);
        } else if let Some(v) = &g.value {
            let evaluated = it.eval(v, &Env::default())?;
            it.globals.insert(g.name.clone(), evaluated);
        }
    }
    it.eval(&module.body, &Env::default())
}

impl<'a> Interp<'a> {
    fn eval(&mut self, e: &CoreExpr, env: &Env) -> xqr_xml::Result<Sequence> {
        if let Some(p) = &self.profile {
            p.bump(expr_kind(e));
        }
        match e {
            CoreExpr::Literal(v) => Ok(Sequence::singleton(v.clone())),
            CoreExpr::Var(q) => env
                .lookup(q)
                .or_else(|| self.globals.get(q).cloned())
                .ok_or_else(|| XmlError::new("XPDY0002", format!("unbound variable ${q}"))),
            CoreExpr::Seq(items) => {
                let mut out = SequenceBuilder::new();
                for i in items {
                    out.push(self.eval(i, env)?);
                }
                Ok(out.finish())
            }
            CoreExpr::Empty => Ok(Sequence::empty()),
            CoreExpr::Flwor { clauses, ret } => {
                let envs = self.clause_stream(clauses, env)?;
                let mut out = SequenceBuilder::new();
                for e2 in envs {
                    self.governor.tick()?;
                    out.push(self.eval(ret, &e2)?);
                }
                Ok(out.finish())
            }
            CoreExpr::Quantified {
                every,
                clauses,
                satisfies,
            } => {
                let envs = self.clause_stream(clauses, env)?;
                for e2 in envs {
                    self.governor.tick()?;
                    let v = self.eval(satisfies, &e2)?;
                    let b = effective_boolean_value(&v)?;
                    if *every && !b {
                        return Ok(Sequence::singleton(AtomicValue::Boolean(false)));
                    }
                    if !*every && b {
                        return Ok(Sequence::singleton(AtomicValue::Boolean(true)));
                    }
                }
                Ok(Sequence::singleton(AtomicValue::Boolean(*every)))
            }
            CoreExpr::Typeswitch {
                var,
                input,
                cases,
                default,
            } => {
                let v = self.eval(input, env)?;
                let env = env.bind(var.clone(), v.clone());
                for (st, body) in cases {
                    if st.matches(&v, self.schema) {
                        return self.eval(body, &env);
                    }
                }
                self.eval(default, &env)
            }
            CoreExpr::If { cond, then, els } => {
                let c = self.eval(cond, env)?;
                if effective_boolean_value(&c)? {
                    self.eval(then, env)
                } else {
                    self.eval(els, env)
                }
            }
            CoreExpr::Step { input, axis, test } => {
                let items = self.eval(input, env)?;
                tree_join_governed(&items, *axis, test, self.schema, Some(&self.governor))
            }
            CoreExpr::Call { name, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, env)?);
                }
                self.call(name, argv)
            }
            CoreExpr::ElementCtor { name, content } => {
                let q = self.resolve_name(name, env)?;
                let items = self.eval(content, env)?;
                Ok(Sequence::singleton_item(construct_element(&q, &items)?))
            }
            CoreExpr::AttributeCtor { name, content } => {
                let q = self.resolve_name(name, env)?;
                let items = self.eval(content, env)?;
                Ok(Sequence::singleton_item(construct_attribute(&q, &items)?))
            }
            CoreExpr::TextCtor(c) => {
                let items = self.eval(c, env)?;
                construct_text(&items)
            }
            CoreExpr::CommentCtor(c) => {
                let items = self.eval(c, env)?;
                let mut b = xqr_xml::TreeBuilder::new();
                let s: Vec<String> = items.atomized().iter().map(|a| a.string_value()).collect();
                b.comment(&s.join(" "));
                Ok(Sequence::singleton(b.finish(None).root()))
            }
            CoreExpr::PiCtor { target, content } => {
                let items = self.eval(content, env)?;
                let mut b = xqr_xml::TreeBuilder::new();
                let s: Vec<String> = items.atomized().iter().map(|a| a.string_value()).collect();
                b.pi(target, &s.join(" "));
                Ok(Sequence::singleton(b.finish(None).root()))
            }
            CoreExpr::DocumentCtor(c) => {
                let items = self.eval(c, env)?;
                Ok(Sequence::singleton_item(construct_document(&items)?))
            }
            CoreExpr::Cast { expr, ty, optional } => {
                let items = self.eval(expr, env)?;
                match atomize_optional(&items)? {
                    Some(a) => Ok(Sequence::singleton(xqr_types::cast_atomic(&a, *ty)?)),
                    None if *optional => Ok(Sequence::empty()),
                    None => Err(XmlError::new("XPTY0004", "cast of an empty sequence")),
                }
            }
            CoreExpr::Castable { expr, ty, optional } => {
                let items = self.eval(expr, env)?;
                let ok = match atomize_optional(&items) {
                    Ok(Some(a)) => xqr_types::cast_atomic(&a, *ty).is_ok(),
                    Ok(None) => *optional,
                    Err(_) => false,
                };
                Ok(Sequence::singleton(AtomicValue::Boolean(ok)))
            }
            CoreExpr::TypeAssert { expr, st } => {
                let items = self.eval(expr, env)?;
                st.assert(&items, self.schema)
            }
            CoreExpr::InstanceOf { expr, st } => {
                let items = self.eval(expr, env)?;
                Ok(Sequence::singleton(AtomicValue::Boolean(
                    st.matches(&items, self.schema),
                )))
            }
            CoreExpr::Validate { mode, expr } => {
                let items = self.eval(expr, env)?;
                xqr_types::validate_sequence(&items, self.schema, *mode)
            }
        }
    }

    /// Materializes the FLWOR tuple stream as environment vectors.
    fn clause_stream(&mut self, clauses: &[CoreClause], env: &Env) -> xqr_xml::Result<Vec<Env>> {
        let mut envs = vec![env.clone()];
        for clause in clauses {
            if let Some(p) = &self.profile {
                p.bump(match clause {
                    CoreClause::For { .. } => "clause:for",
                    CoreClause::Let { .. } => "clause:let",
                    CoreClause::Where(_) => "clause:where",
                    CoreClause::OrderBy(_) => "clause:order-by",
                });
            }
            match clause {
                CoreClause::For {
                    var,
                    at,
                    as_type,
                    expr,
                } => {
                    let mut next = Vec::new();
                    for e2 in &envs {
                        let items = self.eval(expr, e2)?;
                        for (i, item) in items.iter().enumerate() {
                            self.governor.tick()?;
                            let v = Sequence::singleton_item(item.clone());
                            if let Some(st) = as_type {
                                let single = xqr_types::SequenceType::new(
                                    st.item.clone(),
                                    xqr_types::Occurrence::One,
                                );
                                single.assert(&v, self.schema)?;
                            }
                            let mut bound = e2.bind(var.clone(), v);
                            if let Some(at_var) = at {
                                bound =
                                    bound.bind(at_var.clone(), Sequence::integers([i as i64 + 1]));
                            }
                            next.push(bound);
                        }
                    }
                    envs = next;
                }
                CoreClause::Let { var, as_type, expr } => {
                    let mut next = Vec::with_capacity(envs.len());
                    for e2 in &envs {
                        self.governor.tick()?;
                        let mut v = self.eval(expr, e2)?;
                        if let Some(st) = as_type {
                            v = st.assert(&v, self.schema)?;
                        }
                        next.push(e2.bind(var.clone(), v));
                    }
                    envs = next;
                }
                CoreClause::Where(pred) => {
                    let mut next = Vec::with_capacity(envs.len());
                    for e2 in envs {
                        self.governor.tick()?;
                        let v = self.eval(pred, &e2)?;
                        if effective_boolean_value(&v)? {
                            next.push(e2);
                        }
                    }
                    envs = next;
                }
                CoreClause::OrderBy(specs) => {
                    envs = self.order_envs(specs, envs)?;
                }
            }
        }
        Ok(envs)
    }

    fn order_envs(&mut self, specs: &[CoreOrderSpec], envs: Vec<Env>) -> xqr_xml::Result<Vec<Env>> {
        let mut keyed: Vec<(Vec<Sequence>, Env)> = Vec::with_capacity(envs.len());
        for e in envs {
            self.governor.tick()?;
            let mut keys = Vec::with_capacity(specs.len());
            for s in specs {
                keys.push(self.eval(&s.key, &e)?);
            }
            keyed.push((keys, e));
        }
        let mut err = None;
        keyed.sort_by(|a, b| {
            for (i, s) in specs.iter().enumerate() {
                match order_key_compare(&a.0[i], &b.0[i], s.empty_least) {
                    Ok(ord) => {
                        let ord = if s.descending { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    Err(e) => {
                        if err.is_none() {
                            err = Some(e);
                        }
                        return std::cmp::Ordering::Equal;
                    }
                }
            }
            std::cmp::Ordering::Equal
        });
        if let Some(e) = err {
            return Err(e);
        }
        Ok(keyed.into_iter().map(|(_, e)| e).collect())
    }

    fn call(&mut self, name: &QName, argv: Vec<Sequence>) -> xqr_xml::Result<Sequence> {
        let local = name.local_part();
        if is_builtin(local) {
            let bctx = BuiltinCtx {
                documents: Some(self.documents),
            };
            return call_builtin(local, &argv, &bctx);
        }
        let func = self
            .module
            .functions
            .iter()
            .find(|f| &f.name == name)
            .cloned()
            .ok_or_else(|| XmlError::new("XPST0017", format!("unknown function {name}()")))?;
        if func.params.len() != argv.len() {
            return Err(XmlError::new(
                "XPST0017",
                format!("{name}() expects {} arguments", func.params.len()),
            ));
        }
        self.governor.enter_frame()?;
        let mut env = Env::default();
        for ((p, ty), v) in func.params.iter().zip(argv) {
            if let Some(st) = ty {
                if let Err(e) = st.assert(&v, self.schema) {
                    self.governor.exit_frame();
                    return Err(e);
                }
            }
            env = env.bind(p.clone(), v);
        }
        let result = self.eval(&func.body, &env);
        self.governor.exit_frame();
        let v = result?;
        if let Some(st) = &func.return_type {
            st.assert(&v, self.schema)?;
        }
        Ok(v)
    }

    fn resolve_name(
        &mut self,
        name: &Result<QName, Box<CoreExpr>>,
        env: &Env,
    ) -> xqr_xml::Result<QName> {
        match name {
            Ok(q) => Ok(q.clone()),
            Err(e) => {
                let items = self.eval(e, env)?;
                let a = atomize_optional(&items)?
                    .ok_or_else(|| XmlError::new("XPTY0004", "empty constructor name"))?;
                match a {
                    AtomicValue::QName(q) => Ok(q),
                    other => {
                        let s = other.string_value();
                        Ok(match s.split_once(':') {
                            Some((p, l)) => QName::full(Some(p), None, l),
                            None => QName::local(&s),
                        })
                    }
                }
            }
        }
    }
}

/// Small extension trait: singleton from an `Item`.
trait SeqExt {
    fn singleton_item(item: xqr_xml::Item) -> Sequence;
}

impl SeqExt for Sequence {
    fn singleton_item(item: xqr_xml::Item) -> Sequence {
        Sequence::from_vec(vec![item])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_shadowing_and_lookup_order() {
        let env = Env::default()
            .bind(QName::local("x"), Sequence::integers([1]))
            .bind(QName::local("y"), Sequence::integers([2]))
            .bind(QName::local("x"), Sequence::integers([3]));
        assert_eq!(
            env.lookup(&QName::local("x")),
            Some(Sequence::integers([3]))
        );
        assert_eq!(
            env.lookup(&QName::local("y")),
            Some(Sequence::integers([2]))
        );
        assert_eq!(env.lookup(&QName::local("z")), None);
    }

    #[test]
    fn env_is_persistent() {
        let base = Env::default().bind(QName::local("x"), Sequence::integers([1]));
        let extended = base.bind(QName::local("x"), Sequence::integers([2]));
        // The original binding is untouched by the extension.
        assert_eq!(
            base.lookup(&QName::local("x")),
            Some(Sequence::integers([1]))
        );
        assert_eq!(
            extended.lookup(&QName::local("x")),
            Some(Sequence::integers([2]))
        );
    }

    #[test]
    fn module_evaluation_with_globals() {
        let module = xqr_frontend::frontend(
            "declare variable $base := 10; \
             declare variable $derived := $base * 2; \
             $base + $derived",
        )
        .unwrap();
        let schema = Schema::new();
        let docs = HashMap::new();
        let out = eval_core_module(&module, &schema, &docs, HashMap::new()).unwrap();
        assert_eq!(out, Sequence::integers([30]));
    }

    #[test]
    fn missing_external_is_an_error() {
        let module =
            xqr_frontend::frontend("declare variable $missing external; $missing").unwrap();
        let schema = Schema::new();
        let docs = HashMap::new();
        let err = eval_core_module(&module, &schema, &docs, HashMap::new()).unwrap_err();
        assert_eq!(err.code, "XPDY0002");
    }
}
