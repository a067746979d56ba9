//! Normalization: surface syntax → the (paper-modified) XQuery Core.
//!
//! Follows the W3C Formal Semantics normalization rules with the paper's
//! Section 4 changes:
//!
//! * FLWOR expressions keep their clause structure;
//! * each path step with predicates becomes **one complete FLWOR block**
//!   (`for $fs:dot at $fs:position in … where … return $fs:dot`) instead of
//!   a for + conditional chain — positional predicates become `where`
//!   clauses over the `at` variable;
//! * typeswitch is normalized to bind one common variable;
//! * general/value comparisons, arithmetic and set operators are lowered to
//!   `fs:`/`op:` calls that carry the full XQuery predicate semantics
//!   (atomization, existential quantification, `fs:convert-operand`);
//! * logical `and`/`or` become conditionals (preserving 2-valued EBV).
//!
//! A final **nested-FLWOR hoisting** pass lifts FLWOR blocks buried inside
//! constructor content or call arguments of a `return` clause into fresh
//! `let` clauses. This is what makes the (insert group-by) rewriting of
//! Section 5 fire for Clio-style queries, where nested blocks appear inside
//! element constructors rather than in `let` clauses.

use xqr_xml::axes::{Axis, NodeTest};
use xqr_xml::{AtomicValue, QName};

use crate::ast::*;
use crate::core_ast::*;

/// The context-item variable (`$fs:dot` in the paper's examples).
pub const FS_DOT: &str = "fs:dot";
/// The positional variable bound by `at` clauses in step FLWORs.
pub const FS_POSITION: &str = "fs:position";
/// The context-size variable (bound only when `last()` occurs).
pub const FS_LAST: &str = "fs:last";
/// The sequence variable materializing a step result for predicates.
pub const FS_SEQ: &str = "fs:seq";

/// Normalizes a parsed module.
pub fn normalize_module(m: &Module) -> CoreModule {
    let mut n = Normalizer::default();
    let functions = m
        .functions
        .iter()
        .map(|f| CoreFunction {
            // Canonicalize "prefix:local" into a single local name, matching
            // how call sites are normalized.
            name: canonical_function_name(&f.name),
            params: f.params.clone(),
            return_type: f.return_type.clone(),
            body: {
                let mut b = n.expr(&f.body);
                hoist_nested_flwors(&mut b, &mut n.counter);
                b
            },
        })
        .collect();
    let variables = m
        .variables
        .iter()
        .map(|v| CoreGlobal {
            name: v.name.clone(),
            as_type: v.as_type.clone(),
            external: v.external,
            value: v.value.as_ref().map(|e| n.expr(e)),
        })
        .collect();
    let mut body = n.expr(&m.body);
    hoist_nested_flwors(&mut body, &mut n.counter);
    CoreModule {
        functions,
        variables,
        body,
    }
}

/// Canonical function naming: `fn:`-prefixed builtins fold to their local
/// name; other prefixes keep `prefix:local` as one local name.
pub fn canonical_function_name(q: &QName) -> QName {
    match q.prefix() {
        None | Some("fn") => QName::local(q.local_part()),
        Some(p) => QName::local(&format!("{p}:{}", q.local_part())),
    }
}

/// Normalizes a standalone expression (for tests).
pub fn normalize_expr(e: &Expr) -> CoreExpr {
    let mut n = Normalizer::default();
    let mut c = n.expr(e);
    hoist_nested_flwors(&mut c, &mut n.counter);
    c
}

#[derive(Default)]
struct Normalizer {
    counter: usize,
}

impl Normalizer {
    fn expr(&mut self, e: &Expr) -> CoreExpr {
        match e {
            Expr::Literal(v) => CoreExpr::Literal(v.clone()),
            Expr::VarRef(q) => CoreExpr::Var(q.clone()),
            Expr::ContextItem => CoreExpr::var(FS_DOT),
            Expr::Sequence(items) => {
                if items.is_empty() {
                    CoreExpr::Empty
                } else if items.len() == 1 {
                    self.expr(&items[0])
                } else {
                    CoreExpr::Seq(items.iter().map(|i| self.expr(i)).collect())
                }
            }
            Expr::Flwor {
                clauses,
                return_expr,
            } => {
                let core_clauses = clauses.iter().map(|c| self.clause(c)).collect();
                CoreExpr::Flwor {
                    clauses: core_clauses,
                    ret: Box::new(self.expr(return_expr)),
                }
            }
            Expr::Quantified {
                every,
                bindings,
                satisfies,
            } => {
                let clauses = bindings
                    .iter()
                    .map(|(v, t, e)| CoreClause::For {
                        var: v.clone(),
                        at: None,
                        as_type: t.clone(),
                        expr: self.expr(e),
                    })
                    .collect();
                CoreExpr::Quantified {
                    every: *every,
                    clauses,
                    satisfies: Box::new(self.ebv(satisfies)),
                }
            }
            Expr::Typeswitch {
                input,
                cases,
                default_var,
                default,
            } => {
                // The paper's common-variable form.
                let var = self.fresh("fs:tsw");
                let cases = cases
                    .iter()
                    .map(|c| {
                        let body = self.bind_alias(&c.var, &var, &c.body);
                        (c.seq_type.clone(), body)
                    })
                    .collect();
                let default = self.bind_alias(default_var, &var, default);
                CoreExpr::Typeswitch {
                    var,
                    input: Box::new(self.expr(input)),
                    cases,
                    default: Box::new(default),
                }
            }
            Expr::If { cond, then, els } => CoreExpr::If {
                cond: Box::new(self.ebv(cond)),
                then: Box::new(self.expr(then)),
                els: Box::new(self.expr(els)),
            },
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs),
            Expr::UnaryMinus(inner) => {
                CoreExpr::call("fs:numeric-unary-minus", vec![self.expr(inner)])
            }
            Expr::Root => CoreExpr::call("root", vec![CoreExpr::var(FS_DOT)]),
            Expr::PathSlash(lhs, rhs) => self.path_slash(lhs, rhs),
            Expr::AxisStep {
                axis,
                test,
                predicates,
            } => {
                // A leading step applies to the context item.
                self.step_with_predicates(CoreExpr::var(FS_DOT), *axis, test, predicates)
            }
            Expr::Filter {
                primary,
                predicates,
            } => {
                let input = self.expr(primary);
                self.apply_predicates(input, predicates)
            }
            Expr::FunctionCall { name, args } => self.function_call(name, args),
            Expr::DirectElement {
                name,
                attributes,
                content,
            } => {
                let mut parts: Vec<CoreExpr> = Vec::new();
                for (aname, avparts) in attributes {
                    parts.push(CoreExpr::AttributeCtor {
                        name: Ok(aname.clone()),
                        content: Box::new(self.attr_value(avparts)),
                    });
                }
                for c in content {
                    parts.push(match c {
                        DirectContent::Text(t) => CoreExpr::TextCtor(Box::new(CoreExpr::Literal(
                            AtomicValue::string(t.as_str()),
                        ))),
                        DirectContent::Enclosed(e) | DirectContent::Child(e) => self.expr(e),
                    });
                }
                let content = match parts.len() {
                    0 => CoreExpr::Empty,
                    1 => parts.pop().expect("one part"),
                    _ => CoreExpr::Seq(parts),
                };
                CoreExpr::ElementCtor {
                    name: Ok(name.clone()),
                    content: Box::new(content),
                }
            }
            Expr::CompElement { name, content } => CoreExpr::ElementCtor {
                name: self.comp_name(name),
                content: Box::new(self.opt_content(content)),
            },
            Expr::CompAttribute { name, content } => CoreExpr::AttributeCtor {
                name: self.comp_name(name),
                content: Box::new(self.opt_content(content)),
            },
            Expr::CompText(c) => CoreExpr::TextCtor(Box::new(self.expr(c))),
            Expr::CompComment(c) => CoreExpr::CommentCtor(Box::new(self.expr(c))),
            Expr::CompPi { target, content } => CoreExpr::PiCtor {
                target: target.clone(),
                content: Box::new(self.opt_content(content)),
            },
            Expr::CompDocument(c) => CoreExpr::DocumentCtor(Box::new(self.expr(c))),
            Expr::InstanceOf(inner, st) => CoreExpr::InstanceOf {
                expr: Box::new(self.expr(inner)),
                st: st.clone(),
            },
            Expr::TreatAs(inner, st) => CoreExpr::TypeAssert {
                expr: Box::new(self.expr(inner)),
                st: st.clone(),
            },
            Expr::CastAs(inner, ty, opt) => CoreExpr::Cast {
                expr: Box::new(self.expr(inner)),
                ty: *ty,
                optional: *opt,
            },
            Expr::CastableAs(inner, ty, opt) => CoreExpr::Castable {
                expr: Box::new(self.expr(inner)),
                ty: *ty,
                optional: *opt,
            },
            Expr::Validate(mode, inner) => CoreExpr::Validate {
                mode: match mode {
                    ValidationModeAst::Lax => xqr_types::ValidationMode::Lax,
                    ValidationModeAst::Strict => xqr_types::ValidationMode::Strict,
                },
                expr: Box::new(self.expr(inner)),
            },
        }
    }

    fn fresh(&mut self, base: &str) -> QName {
        self.counter += 1;
        QName::local(&format!("{base}#{}", self.counter))
    }

    /// Wraps `case $u as T return E` bodies so the case variable aliases the
    /// common typeswitch variable.
    fn bind_alias(&mut self, alias: &Option<QName>, common: &QName, body: &Expr) -> CoreExpr {
        let b = self.expr(body);
        match alias {
            None => b,
            Some(v) => CoreExpr::Flwor {
                clauses: vec![CoreClause::Let {
                    var: v.clone(),
                    as_type: None,
                    expr: CoreExpr::Var(common.clone()),
                }],
                ret: Box::new(b),
            },
        }
    }

    fn clause(&mut self, c: &FlworClause) -> CoreClause {
        match c {
            FlworClause::For {
                var,
                as_type,
                at,
                expr,
            } => CoreClause::For {
                var: var.clone(),
                at: at.clone(),
                as_type: as_type.clone(),
                expr: self.expr(expr),
            },
            FlworClause::Let { var, as_type, expr } => CoreClause::Let {
                var: var.clone(),
                as_type: as_type.clone(),
                expr: self.expr(expr),
            },
            FlworClause::Where(e) => CoreClause::Where(self.ebv(e)),
            FlworClause::OrderBy { specs, .. } => CoreClause::OrderBy(
                specs
                    .iter()
                    .map(|s| CoreOrderSpec {
                        key: self.expr(&s.key),
                        descending: s.descending,
                        empty_least: s.empty_least,
                    })
                    .collect(),
            ),
        }
    }

    /// Effective boolean value wrapping, skipped for statically boolean
    /// expressions (keeps join predicates recognizable).
    fn ebv(&mut self, e: &Expr) -> CoreExpr {
        let c = self.expr(e);
        if c.is_statically_boolean() {
            c
        } else {
            CoreExpr::call("boolean", vec![c])
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> CoreExpr {
        use BinOp::*;
        let name = match op {
            Or => {
                return CoreExpr::If {
                    cond: Box::new(self.ebv(lhs)),
                    then: Box::new(CoreExpr::boolean(true)),
                    els: Box::new(self.ebv(rhs)),
                }
            }
            And => {
                return CoreExpr::If {
                    cond: Box::new(self.ebv(lhs)),
                    then: Box::new(self.ebv(rhs)),
                    els: Box::new(CoreExpr::boolean(false)),
                }
            }
            GenEq => "fs:general-eq",
            GenNe => "fs:general-ne",
            GenLt => "fs:general-lt",
            GenLe => "fs:general-le",
            GenGt => "fs:general-gt",
            GenGe => "fs:general-ge",
            ValEq => "fs:value-eq",
            ValNe => "fs:value-ne",
            ValLt => "fs:value-lt",
            ValLe => "fs:value-le",
            ValGt => "fs:value-gt",
            ValGe => "fs:value-ge",
            Is => "op:is-same-node",
            Before => "op:node-before",
            After => "op:node-after",
            Add => "fs:numeric-add",
            Sub => "fs:numeric-subtract",
            Mul => "fs:numeric-multiply",
            Div => "fs:numeric-divide",
            IDiv => "fs:numeric-integer-divide",
            Mod => "fs:numeric-mod",
            Range => "op:to",
            Union => "op:union",
            Intersect => "op:intersect",
            Except => "op:except",
        };
        CoreExpr::call(name, vec![self.expr(lhs), self.expr(rhs)])
    }

    fn function_call(&mut self, name: &QName, args: &[Expr]) -> CoreExpr {
        let local = name.local_part();
        // fn:-prefixed builtins are canonicalized to their local name; other
        // prefixes (user functions, clio:, …) keep "prefix:local".
        let canonical = match name.prefix() {
            None | Some("fn") => local.to_string(),
            Some(p) => format!("{p}:{local}"),
        };
        match canonical.as_str() {
            "position" if args.is_empty() => return CoreExpr::var(FS_POSITION),
            "last" if args.is_empty() => return CoreExpr::var(FS_LAST),
            "true" if args.is_empty() => return CoreExpr::boolean(true),
            "false" if args.is_empty() => return CoreExpr::boolean(false),
            // The zero-argument forms take the context item: `f()` is
            // `f(.)`, which raises XPDY0002 where there is none.
            "name" | "local-name" | "namespace-uri" | "string" | "number" | "string-length"
            | "normalize-space" | "root"
                if args.is_empty() =>
            {
                return CoreExpr::call(&canonical, vec![CoreExpr::var(FS_DOT)]);
            }
            _ => {}
        }
        // Constructor functions: `xs:decimal(E)` ≡ `E cast as xs:decimal?`.
        if matches!(name.prefix(), Some("xs") | Some("xdt")) && args.len() == 1 {
            if let Some(ty) = crate::parser::atomic_type_of(name) {
                return CoreExpr::Cast {
                    expr: Box::new(self.expr(&args[0])),
                    ty,
                    optional: true,
                };
            }
        }
        let args = args.iter().map(|a| self.expr(a)).collect();
        CoreExpr::Call {
            name: QName::local(&canonical),
            args,
        }
    }

    fn comp_name(&mut self, name: &Result<QName, Box<Expr>>) -> Result<QName, Box<CoreExpr>> {
        match name {
            Ok(q) => Ok(q.clone()),
            Err(e) => Err(Box::new(self.expr(e))),
        }
    }

    fn opt_content(&mut self, content: &Option<Box<Expr>>) -> CoreExpr {
        match content {
            Some(c) => self.expr(c),
            None => CoreExpr::Empty,
        }
    }

    fn attr_value(&mut self, parts: &[AttrValuePart]) -> CoreExpr {
        if parts.is_empty() {
            return CoreExpr::Literal(AtomicValue::string(""));
        }
        let core_parts: Vec<CoreExpr> = parts
            .iter()
            .map(|p| match p {
                AttrValuePart::Text(t) => CoreExpr::Literal(AtomicValue::string(t.as_str())),
                AttrValuePart::Enclosed(e) => CoreExpr::call("fs:avt", vec![self.expr(e)]),
            })
            .collect();
        if core_parts.len() == 1 {
            core_parts.into_iter().next().expect("one part")
        } else {
            CoreExpr::call("concat", core_parts)
        }
    }

    // ----- Paths -----------------------------------------------------------

    fn path_slash(&mut self, lhs: &Expr, rhs: &Expr) -> CoreExpr {
        let input = self.expr(lhs);
        match rhs {
            Expr::AxisStep {
                axis,
                test,
                predicates,
            } => self.step_with_predicates(input, *axis, test, predicates),
            other => {
                // General `E1/E2`: map E2 over each node of E1 (binding the
                // context item), then sort/dedup into document order.
                let body = self.expr(other);
                CoreExpr::call(
                    "fs:distinct-docorder",
                    vec![CoreExpr::Flwor {
                        clauses: vec![CoreClause::For {
                            var: QName::local(FS_DOT),
                            at: None,
                            as_type: None,
                            expr: input,
                        }],
                        ret: Box::new(body),
                    }],
                )
            }
        }
    }

    fn step_with_predicates(
        &mut self,
        input: CoreExpr,
        axis: Axis,
        test: &NodeTest,
        predicates: &[Expr],
    ) -> CoreExpr {
        if predicates.is_empty() {
            return CoreExpr::Step {
                input: Box::new(input),
                axis,
                test: test.clone(),
            };
        }
        // If every predicate is statically boolean, the step can stay
        // set-at-a-time: positions are never consulted, and filtering the
        // document-ordered step output is equivalent to per-node filtering.
        let normalized: Vec<CoreExpr> = predicates.iter().map(|p| self.expr(p)).collect();
        let all_boolean = normalized.iter().all(|p| {
            p.is_statically_boolean()
                && !expr_uses_var(p, FS_POSITION)
                && !expr_uses_var(p, FS_LAST)
        });
        if all_boolean {
            let step = CoreExpr::Step {
                input: Box::new(input),
                axis,
                test: test.clone(),
            };
            return self.fold_boolean_predicates(step, normalized);
        }
        // Otherwise positions matter: one FLWOR block per context node, per
        // the paper's $d/descendant::person[position()=1] example.
        let step = CoreExpr::Step {
            input: Box::new(CoreExpr::var(FS_DOT)),
            axis,
            test: test.clone(),
        };
        let filtered = self.fold_positional_predicates(step, normalized);
        CoreExpr::call(
            "fs:distinct-docorder",
            vec![CoreExpr::Flwor {
                clauses: vec![CoreClause::For {
                    var: QName::local(FS_DOT),
                    at: None,
                    as_type: None,
                    expr: input,
                }],
                ret: Box::new(filtered),
            }],
        )
    }

    /// Filters over an arbitrary sequence (`E[p]…`), preserving input order.
    fn apply_predicates(&mut self, input: CoreExpr, predicates: &[Expr]) -> CoreExpr {
        let normalized: Vec<CoreExpr> = predicates.iter().map(|p| self.expr(p)).collect();
        self.fold_positional_predicates(input, normalized)
    }

    fn fold_boolean_predicates(&mut self, mut input: CoreExpr, preds: Vec<CoreExpr>) -> CoreExpr {
        for pred in preds {
            input = CoreExpr::Flwor {
                clauses: vec![
                    CoreClause::For {
                        var: QName::local(FS_DOT),
                        at: None,
                        as_type: None,
                        expr: input,
                    },
                    CoreClause::Where(pred),
                ],
                ret: Box::new(CoreExpr::var(FS_DOT)),
            };
        }
        input
    }

    fn fold_positional_predicates(
        &mut self,
        mut input: CoreExpr,
        preds: Vec<CoreExpr>,
    ) -> CoreExpr {
        for pred in preds {
            let uses_last = expr_uses_var(&pred, FS_LAST);
            let uses_position = expr_uses_var(&pred, FS_POSITION);
            let cond = if pred.is_statically_boolean() {
                pred
            } else if pred.is_statically_numeric() {
                CoreExpr::call("fs:value-eq", vec![CoreExpr::var(FS_POSITION), pred])
            } else {
                // Dynamic: numeric values test the position, others take EBV.
                CoreExpr::call("fs:predicate-test", vec![pred, CoreExpr::var(FS_POSITION)])
            };
            let needs_seq_var = uses_last;
            let mut clauses: Vec<CoreClause> = Vec::new();
            let source = if needs_seq_var {
                clauses.push(CoreClause::Let {
                    var: QName::local(FS_SEQ),
                    as_type: None,
                    expr: input,
                });
                clauses.push(CoreClause::Let {
                    var: QName::local(FS_LAST),
                    as_type: None,
                    expr: CoreExpr::call("count", vec![CoreExpr::var(FS_SEQ)]),
                });
                CoreExpr::var(FS_SEQ)
            } else {
                input
            };
            let _ = uses_position;
            clauses.push(CoreClause::For {
                var: QName::local(FS_DOT),
                at: Some(QName::local(FS_POSITION)),
                as_type: None,
                expr: source,
            });
            clauses.push(CoreClause::Where(cond));
            input = CoreExpr::Flwor {
                clauses,
                ret: Box::new(CoreExpr::var(FS_DOT)),
            };
        }
        input
    }
}

/// Does `e` reference the given (local-name) variable freely? Conservative:
/// ignores shadowing, which only widens the answer.
fn expr_uses_var(e: &CoreExpr, name: &str) -> bool {
    let mut found = false;
    visit_exprs(e, &mut |x| {
        if let CoreExpr::Var(q) = x {
            if q.local_part() == name {
                found = true;
            }
        }
    });
    found
}

/// The hoisting pass: inside every FLWOR's return expression, lift nested
/// FLWOR blocks (reachable without crossing binding or conditional
/// constructs) into fresh trailing `let` clauses.
pub fn hoist_nested_flwors(e: &mut CoreExpr, counter: &mut usize) {
    // Bottom-up: process children first so nested blocks are themselves
    // already in hoisted form when they get lifted.
    match e {
        CoreExpr::Literal(_) | CoreExpr::Var(_) | CoreExpr::Empty => {}
        CoreExpr::Seq(items) => {
            for i in items {
                hoist_nested_flwors(i, counter);
            }
        }
        CoreExpr::Flwor { clauses, ret } => {
            for c in clauses.iter_mut() {
                match c {
                    CoreClause::For { expr, .. } | CoreClause::Let { expr, .. } => {
                        hoist_nested_flwors(expr, counter)
                    }
                    CoreClause::Where(w) => hoist_nested_flwors(w, counter),
                    CoreClause::OrderBy(specs) => {
                        for s in specs {
                            hoist_nested_flwors(&mut s.key, counter);
                        }
                    }
                }
            }
            hoist_nested_flwors(ret, counter);
            let mut lets = Vec::new();
            extract_nested(ret, &mut lets, counter, true);
            clauses.extend(lets);
        }
        CoreExpr::Quantified {
            clauses, satisfies, ..
        } => {
            for c in clauses.iter_mut() {
                if let CoreClause::For { expr, .. } = c {
                    hoist_nested_flwors(expr, counter);
                }
            }
            hoist_nested_flwors(satisfies, counter);
        }
        CoreExpr::Typeswitch {
            input,
            cases,
            default,
            ..
        } => {
            hoist_nested_flwors(input, counter);
            for (_, b) in cases {
                hoist_nested_flwors(b, counter);
            }
            hoist_nested_flwors(default, counter);
        }
        CoreExpr::If { cond, then, els } => {
            hoist_nested_flwors(cond, counter);
            hoist_nested_flwors(then, counter);
            hoist_nested_flwors(els, counter);
        }
        CoreExpr::Step { input, .. } => hoist_nested_flwors(input, counter),
        CoreExpr::Call { args, .. } => {
            for a in args {
                hoist_nested_flwors(a, counter);
            }
        }
        CoreExpr::ElementCtor { name, content } | CoreExpr::AttributeCtor { name, content } => {
            if let Err(ne) = name {
                hoist_nested_flwors(ne, counter);
            }
            hoist_nested_flwors(content, counter);
        }
        CoreExpr::TextCtor(c)
        | CoreExpr::CommentCtor(c)
        | CoreExpr::DocumentCtor(c)
        | CoreExpr::PiCtor { content: c, .. } => hoist_nested_flwors(c, counter),
        CoreExpr::Cast { expr, .. }
        | CoreExpr::Castable { expr, .. }
        | CoreExpr::TypeAssert { expr, .. }
        | CoreExpr::InstanceOf { expr, .. }
        | CoreExpr::Validate { expr, .. } => hoist_nested_flwors(expr, counter),
    }
}

/// Replaces hoistable nested FLWORs within `e` by fresh variables, pushing
/// `let` clauses into `out`. `top` is true only for the return expression
/// itself (which is never hoisted).
fn extract_nested(e: &mut CoreExpr, out: &mut Vec<CoreClause>, counter: &mut usize, top: bool) {
    if !top {
        if matches!(e, CoreExpr::Flwor { .. }) {
            *counter += 1;
            let var = QName::local(&format!("fs:hoist#{counter}"));
            let flwor = std::mem::replace(e, CoreExpr::Var(var.clone()));
            out.push(CoreClause::Let {
                var,
                as_type: None,
                expr: flwor,
            });
            return;
        }
        // Do not cross binding or conditional constructs.
        if matches!(
            e,
            CoreExpr::Quantified { .. } | CoreExpr::Typeswitch { .. } | CoreExpr::If { .. }
        ) {
            return;
        }
    }
    match e {
        CoreExpr::Seq(items) => {
            for i in items {
                extract_nested(i, out, counter, false);
            }
        }
        CoreExpr::Flwor { .. } if top => {
            // The return expression is itself a FLWOR: leave it be (its own
            // return was already processed by the bottom-up pass).
        }
        CoreExpr::Call { args, .. } => {
            for a in args {
                extract_nested(a, out, counter, false);
            }
        }
        CoreExpr::ElementCtor { name, content } | CoreExpr::AttributeCtor { name, content } => {
            if let Err(ne) = name {
                extract_nested(ne, out, counter, false);
            }
            extract_nested(content, out, counter, false);
        }
        CoreExpr::TextCtor(c)
        | CoreExpr::CommentCtor(c)
        | CoreExpr::DocumentCtor(c)
        | CoreExpr::PiCtor { content: c, .. } => extract_nested(c, out, counter, false),
        CoreExpr::Step { input, .. } => extract_nested(input, out, counter, false),
        CoreExpr::Cast { expr, .. }
        | CoreExpr::Castable { expr, .. }
        | CoreExpr::TypeAssert { expr, .. }
        | CoreExpr::InstanceOf { expr, .. }
        | CoreExpr::Validate { expr, .. } => extract_nested(expr, out, counter, false),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr_str;

    fn norm(s: &str) -> CoreExpr {
        normalize_expr(&parse_expr_str(s).unwrap())
    }

    #[test]
    fn literals_and_vars() {
        assert!(matches!(
            norm("1"),
            CoreExpr::Literal(AtomicValue::Integer(1))
        ));
        assert!(matches!(norm("$x"), CoreExpr::Var(_)));
        assert!(matches!(norm("()"), CoreExpr::Empty));
    }

    #[test]
    fn comparisons_become_fs_calls() {
        let c = norm("$a = $b");
        let CoreExpr::Call { name, args } = c else {
            panic!()
        };
        assert_eq!(name.local_part(), "fs:general-eq");
        assert_eq!(args.len(), 2);
        let c = norm("$a eq $b");
        assert!(matches!(c, CoreExpr::Call { ref name, .. } if name.local_part() == "fs:value-eq"));
    }

    #[test]
    fn and_or_become_conditionals() {
        let c = norm("$a = 1 and $b = 2");
        let CoreExpr::If { els, .. } = c else {
            panic!("expected If")
        };
        assert!(matches!(
            *els,
            CoreExpr::Literal(AtomicValue::Boolean(false))
        ));
        let c = norm("$a = 1 or $b = 2");
        let CoreExpr::If { then, .. } = c else {
            panic!("expected If")
        };
        assert!(matches!(
            *then,
            CoreExpr::Literal(AtomicValue::Boolean(true))
        ));
    }

    #[test]
    fn simple_paths_become_steps() {
        // Simple step chains stay set-at-a-time TreeJoins.
        let c = norm("$d/a/b");
        let CoreExpr::Step {
            input,
            axis: Axis::Child,
            ..
        } = c
        else {
            panic!()
        };
        assert!(matches!(*input, CoreExpr::Step { .. }));
    }

    #[test]
    fn positional_predicate_matches_paper_form() {
        // $d/descendant::person[position() = 1] — paper Section 4.
        let c = norm("$d/descendant::person[position() = 1]");
        // fs:distinct-docorder( for $fs:dot in $d return
        //   for $fs:dot at $fs:position in step where … return $fs:dot )
        let CoreExpr::Call { name, args } = c else {
            panic!("expected ddo call")
        };
        assert_eq!(name.local_part(), "fs:distinct-docorder");
        let CoreExpr::Flwor { clauses, ret } = &args[0] else {
            panic!("outer flwor")
        };
        assert_eq!(clauses.len(), 1);
        let CoreExpr::Flwor { clauses: inner, .. } = &**ret else {
            panic!("inner flwor")
        };
        assert!(matches!(&inner[0], CoreClause::For { at: Some(_), .. }));
        assert!(matches!(&inner[1], CoreClause::Where(_)));
    }

    #[test]
    fn boolean_predicate_stays_set_at_a_time() {
        let c = norm("$auction//closed_auction[.//person = $p]");
        // No ddo wrapper needed: Flwor{for fs:dot in Step, where …}.
        let CoreExpr::Flwor { clauses, .. } = c else {
            panic!("expected flwor, got {c:?}")
        };
        assert!(matches!(
            &clauses[0],
            CoreClause::For {
                at: None,
                expr: CoreExpr::Step { .. },
                ..
            }
        ));
        assert!(matches!(&clauses[1], CoreClause::Where(_)));
    }

    #[test]
    fn numeric_literal_predicate_is_position_test() {
        let c = norm("$items[3]");
        let CoreExpr::Flwor { clauses, .. } = c else {
            panic!()
        };
        let CoreClause::Where(w) = &clauses[1] else {
            panic!()
        };
        let CoreExpr::Call { name, .. } = w else {
            panic!()
        };
        assert_eq!(name.local_part(), "fs:value-eq");
    }

    #[test]
    fn last_binds_context_size() {
        let c = norm("$items[last()]");
        let CoreExpr::Flwor { clauses, .. } = c else {
            panic!()
        };
        assert!(matches!(&clauses[0], CoreClause::Let { var, .. } if var.local_part() == FS_SEQ));
        assert!(matches!(&clauses[1], CoreClause::Let { var, .. } if var.local_part() == FS_LAST));
    }

    #[test]
    fn context_item_becomes_fs_dot() {
        let c = norm("$x/a[. = 1]");
        let CoreExpr::Flwor { clauses, .. } = c else {
            panic!()
        };
        let CoreClause::Where(CoreExpr::Call { args, .. }) = &clauses[1] else {
            panic!()
        };
        assert!(matches!(&args[0], CoreExpr::Var(v) if v.local_part() == FS_DOT));
    }

    #[test]
    fn typeswitch_gets_common_variable() {
        let c = norm("typeswitch ($a) case $u as xs:integer return $u default $o return $o");
        let CoreExpr::Typeswitch {
            var,
            cases,
            default,
            ..
        } = c
        else {
            panic!()
        };
        assert!(var.local_part().starts_with("fs:tsw"));
        // The case body aliases the common variable via a let.
        let CoreExpr::Flwor { clauses, .. } = &cases[0].1 else {
            panic!()
        };
        assert!(matches!(&clauses[0], CoreClause::Let { expr: CoreExpr::Var(v), .. } if v == &var));
        assert!(matches!(&*default, CoreExpr::Flwor { .. }));
    }

    #[test]
    fn where_gets_ebv_only_when_needed() {
        let c = norm("for $x in $s where $x/a return $x");
        let CoreExpr::Flwor { clauses, .. } = c else {
            panic!()
        };
        let CoreClause::Where(w) = &clauses[1] else {
            panic!()
        };
        assert!(matches!(w, CoreExpr::Call { name, .. } if name.local_part() == "boolean"));
        let c = norm("for $x in $s where $x = 1 return $x");
        let CoreExpr::Flwor { clauses, .. } = c else {
            panic!()
        };
        let CoreClause::Where(w) = &clauses[1] else {
            panic!()
        };
        assert!(matches!(w, CoreExpr::Call { name, .. } if name.local_part() == "fs:general-eq"));
    }

    #[test]
    fn nested_flwor_in_constructor_is_hoisted() {
        // The Clio pattern: a nested FLWOR inside element content.
        let c = norm("for $x in $s return <a>{ for $y in $t where $y = $x return $y }</a>");
        let CoreExpr::Flwor { clauses, ret } = c else {
            panic!()
        };
        assert_eq!(clauses.len(), 2, "for + hoisted let");
        let CoreClause::Let { var, expr, .. } = &clauses[1] else {
            panic!("hoisted let")
        };
        assert!(var.local_part().starts_with("fs:hoist"));
        assert!(matches!(expr, CoreExpr::Flwor { .. }));
        // The constructor now references the hoisted variable.
        let CoreExpr::ElementCtor { content, .. } = &*ret else {
            panic!()
        };
        assert!(
            matches!(&**content, CoreExpr::Var(v) if v == var),
            "constructor references hoisted var"
        );
    }

    #[test]
    fn hoisting_does_not_cross_conditionals() {
        let c = norm(
            "for $x in $s return <a>{ if ($x = 1) then (for $y in $t return $y) else () }</a>",
        );
        let CoreExpr::Flwor { clauses, .. } = c else {
            panic!()
        };
        assert_eq!(clauses.len(), 1, "nothing hoisted out of the conditional");
    }

    #[test]
    fn direct_constructor_content() {
        let c = norm(r#"<item person="{$p}">x{ $n }</item>"#);
        let CoreExpr::ElementCtor { name, content } = c else {
            panic!()
        };
        assert_eq!(name.unwrap().local_part(), "item");
        let CoreExpr::Seq(parts) = &*content else {
            panic!()
        };
        assert_eq!(parts.len(), 3); // attribute, text, enclosed
        assert!(matches!(&parts[0], CoreExpr::AttributeCtor { .. }));
        assert!(matches!(&parts[1], CoreExpr::TextCtor(_)));
    }

    #[test]
    fn position_and_last_rewritten() {
        let c = norm("position()");
        assert!(matches!(c, CoreExpr::Var(v) if v.local_part() == FS_POSITION));
        let c = norm("last()");
        assert!(matches!(c, CoreExpr::Var(v) if v.local_part() == FS_LAST));
    }

    #[test]
    fn arithmetic_calls() {
        let c = norm("1 + 2 * 3");
        let CoreExpr::Call { name, args } = c else {
            panic!()
        };
        assert_eq!(name.local_part(), "fs:numeric-add");
        assert!(
            matches!(&args[1], CoreExpr::Call { name, .. } if name.local_part() == "fs:numeric-multiply")
        );
    }

    #[test]
    fn quantified_normalization() {
        let c = norm("some $x in (1,2) satisfies $x = 2");
        let CoreExpr::Quantified {
            every: false,
            clauses,
            satisfies,
        } = c
        else {
            panic!()
        };
        assert_eq!(clauses.len(), 1);
        assert!(satisfies.is_statically_boolean());
    }
}
