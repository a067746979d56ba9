//! Canonical plan normalization: a deterministic form for compiled plans
//! so that trivially equivalent plans render — and therefore hash —
//! identically.
//!
//! Three normalizations run over the rewritten algebra, in order:
//!
//! 1. **Commutative-operand ordering.** Binary calls whose semantics are
//!    symmetric (`fs:general-eq`/`ne`, `fs:value-eq`/`ne`,
//!    `fs:numeric-add`/`multiply`, `op:union`/`intersect`) order their
//!    operands by a structural key; asymmetric comparisons flip their
//!    operator when swapped (`fs:general-lt(a,b)` ⇒ `fs:general-gt(b,a)`),
//!    which XQuery permits because operand evaluation order is
//!    implementation-defined. The ordering key deliberately erases tuple
//!    field names and lifted-constant names so the decision is identical
//!    for plans that differ only by variable naming.
//! 2. **Lifted-constant renaming.** Compiler-lifted globals
//!    (`fs:const-<name>#<n>`, from constant lifting in `compile.rs`) carry
//!    the source variable's name; they are renamed positionally to
//!    `fs:const#<i>` along with every reference. User-declared globals
//!    keep their names: external globals are bound *by name* at execution
//!    time, and non-external ones can be shadowed by function parameters.
//! 3. **Tuple-field renaming.** Field names are globally unique per
//!    compile (`fresh_field`), so a single first-occurrence walk over the
//!    module (globals in declaration order, functions sorted by name, then
//!    the body) renames every field to `f<k>` without capture.
//!
//! [`module_hash`] then hashes a rendering that, unlike the pretty
//! printer, includes every operator payload with *typed* literals
//! (`Scalar` prints `xs:integer:1`, not the bare string value, so
//! `1` and `'1'` cannot collide) in canonical lexical form — the literal
//! canonicalization half of the normalization.

use std::collections::HashMap;
use std::fmt::Write as _;

use xqr_xml::QName;

use crate::algebra::{Field, NamePlan, Op, Plan};
use crate::compile::CompiledModule;
use crate::pretty::node_test_display;

/// Canonicalizes a compiled module in place. Idempotent; run after the
/// rewriter so the final plan is what is normalized.
pub fn canonicalize_module(m: &mut CompiledModule) {
    for_each_plan_mut(m, &mut reorder_commutative);
    rename_lifted_constants(m);
    rename_fields(m);
}

/// FNV-1a hash of [`module_rendering`] — the canonical plan hash used to
/// key the plan cache and the circuit breakers.
pub fn module_hash(m: &CompiledModule) -> u64 {
    fnv1a(module_rendering(m).as_bytes())
}

/// The canonical rendering the hash is computed over: globals in
/// declaration order, functions sorted by name, then the body, every
/// operator payload included.
pub fn module_rendering(m: &CompiledModule) -> String {
    let mut out = String::new();
    for g in &m.globals {
        let _ = write!(out, "global {}", g.name);
        if g.external {
            out.push_str(" external");
        }
        if let Some(st) = &g.as_type {
            let _ = write!(out, " as {st}");
        }
        if let Some(p) = &g.plan {
            out.push_str(" = ");
            write_canonical(&mut out, p, false);
        }
        out.push('\n');
    }
    let mut names: Vec<&QName> = m.functions.keys().collect();
    names.sort();
    for name in names {
        let f = &m.functions[name];
        let _ = write!(out, "function {name}(");
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "${p}");
        }
        out.push_str(") = ");
        write_canonical(&mut out, &f.body, false);
        out.push('\n');
    }
    out.push_str("body = ");
    write_canonical(&mut out, &m.body, false);
    out
}

pub use xqr_xml::retry::fnv1a;

// ----- Commutative-operand ordering -------------------------------------

/// Symmetric binary calls: operands may swap freely.
const SYMMETRIC: &[&str] = &[
    "fs:general-eq",
    "fs:general-ne",
    "fs:value-eq",
    "fs:value-ne",
    "fs:numeric-add",
    "fs:numeric-multiply",
    "op:union",
    "op:intersect",
];

/// Asymmetric comparisons and the operator the swapped form takes.
const FLIPPED: &[(&str, &str)] = &[
    ("fs:general-lt", "fs:general-gt"),
    ("fs:general-gt", "fs:general-lt"),
    ("fs:general-le", "fs:general-ge"),
    ("fs:general-ge", "fs:general-le"),
    ("fs:value-lt", "fs:value-gt"),
    ("fs:value-gt", "fs:value-lt"),
    ("fs:value-le", "fs:value-ge"),
    ("fs:value-ge", "fs:value-le"),
];

fn reorder_commutative(p: &mut Plan) {
    for (c, _) in p.op.children_mut() {
        reorder_commutative(c);
    }
    let Op::Call { name, args } = &mut p.op else {
        return;
    };
    if args.len() != 2 {
        return;
    }
    let n = name.to_string();
    let flip = FLIPPED
        .iter()
        .find(|(from, _)| *from == n)
        .map(|(_, to)| *to);
    if !SYMMETRIC.contains(&n.as_str()) && flip.is_none() {
        return;
    }
    let (ka, kb) = (shape_key(&args[0]), shape_key(&args[1]));
    // Swap only on a strict ordering violation; ties keep source order,
    // which is itself deterministic for plans equivalent up to renaming.
    if kb < ka {
        args.swap(0, 1);
        if let Some(to) = flip {
            *name = QName::local(to);
        }
    }
}

/// The ordering key: the canonical rendering with field names and
/// lifted-constant names erased, so renaming cannot perturb the order.
fn shape_key(p: &Plan) -> String {
    let mut s = String::new();
    write_canonical(&mut s, p, true);
    s
}

// ----- Lifted-constant renaming -----------------------------------------

fn is_lifted(q: &QName) -> bool {
    q.prefix().is_none() && q.local_part().starts_with("fs:const-")
}

fn rename_lifted_constants(m: &mut CompiledModule) {
    let mut map: HashMap<QName, QName> = HashMap::new();
    for g in m.globals.iter_mut() {
        if is_lifted(&g.name) {
            let canonical = QName::local(&format!("fs:const#{}", map.len()));
            map.insert(g.name.clone(), canonical.clone());
            g.name = canonical;
        }
    }
    if map.is_empty() {
        return;
    }
    for_each_plan_mut(m, &mut |p| rename_vars(p, &map));
}

fn rename_vars(p: &mut Plan, map: &HashMap<QName, QName>) {
    if let Op::Var(q) = &mut p.op {
        if let Some(new) = map.get(q) {
            *q = new.clone();
        }
    }
    for (c, _) in p.op.children_mut() {
        rename_vars(c, map);
    }
}

// ----- Tuple-field renaming ---------------------------------------------

fn rename_fields(m: &mut CompiledModule) {
    let mut map: HashMap<Field, Field> = HashMap::new();
    for_each_plan_mut(m, &mut |p| {
        rename_fields_in(p, &mut map);
    });
}

fn rename_fields_in(p: &mut Plan, map: &mut HashMap<Field, Field>) {
    let mut rename = |f: &mut Field| {
        let n = map.len();
        let canonical = map
            .entry(f.clone())
            .or_insert_with(|| format!("f{n}").into());
        *f = canonical.clone();
    };
    match &mut p.op {
        Op::Tuple(fields) => {
            for (f, _) in fields.iter_mut() {
                rename(f);
            }
        }
        Op::FieldAccess { field, .. }
        | Op::MapIndex { field, .. }
        | Op::MapIndexStep { field, .. } => rename(field),
        Op::LOuterJoin { null_field, .. }
        | Op::OMap { null_field, .. }
        | Op::OMapConcat { null_field, .. } => rename(null_field),
        Op::GroupBy {
            agg,
            index_fields,
            null_fields,
            ..
        } => {
            rename(agg);
            for f in index_fields.iter_mut() {
                rename(f);
            }
            for f in null_fields.iter_mut() {
                rename(f);
            }
        }
        _ => {}
    }
    for (c, _) in p.op.children_mut() {
        rename_fields_in(c, map);
    }
}

// ----- Module traversal --------------------------------------------------

/// Visits every plan in the module in the canonical deterministic order:
/// globals in declaration order, functions sorted by name, then the body.
fn for_each_plan_mut(m: &mut CompiledModule, f: &mut dyn FnMut(&mut Plan)) {
    for g in m.globals.iter_mut() {
        if let Some(p) = &mut g.plan {
            f(p);
        }
    }
    let mut names: Vec<QName> = m.functions.keys().cloned().collect();
    names.sort();
    for name in &names {
        f(&mut m.functions.get_mut(name).expect("function exists").body);
    }
    f(&mut m.body);
}

// ----- Canonical rendering -----------------------------------------------

/// Writes the canonical form of a plan. With `erase_names` the rendering
/// becomes the *ordering key*: field names and lifted-constant names are
/// replaced by placeholders so renaming cannot change comparison results.
fn write_canonical(out: &mut String, p: &Plan, erase_names: bool) {
    out.push_str(p.op.name());
    write_payload(out, &p.op, erase_names);
    let children = p.op.children();
    if !children.is_empty() {
        out.push('(');
        for (i, (c, _)) in children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_canonical(out, c, erase_names);
        }
        out.push(')');
    }
}

fn write_field(out: &mut String, f: &Field, erase: bool) {
    if erase {
        out.push('#');
    } else {
        let _ = write!(out, "#{f}");
    }
}

/// Every non-child payload of an operator, typed literals included. The
/// pretty printer omits some payloads (it optimizes for readability
/// against the paper's notation); the hash rendering must not.
fn write_payload(out: &mut String, op: &Op, erase: bool) {
    match op {
        Op::Scalar(v) => {
            // Typed, canonical lexical form: the `{:?}` escapes the string
            // so `1` (integer) and `"1"` (string) stay distinct even
            // before the type tag, and embedded separators cannot forge
            // another rendering.
            let _ = write!(out, "[{}:{:?}]", v.type_of(), v.string_value());
        }
        Op::Element { name, .. } | Op::Attribute { name, .. } => match name {
            NamePlan::Static(q) => {
                let _ = write!(out, "[{q}]");
            }
            NamePlan::Dynamic(_) => out.push_str("[dyn]"),
        },
        Op::Pi { target, .. } => {
            let _ = write!(out, "[{target:?}]");
        }
        Op::TreeJoin { axis, test, .. } => {
            let _ = write!(out, "[{}::{}]", axis.name(), node_test_display(test));
        }
        Op::Castable { ty, optional, .. } | Op::Cast { ty, optional, .. } => {
            let _ = write!(out, "[{ty}{}]", if *optional { "?" } else { "" });
        }
        Op::Validate { mode, .. } => {
            let _ = write!(out, "[{mode:?}]");
        }
        Op::TypeMatches { st, .. } | Op::TypeAssert { st, .. } => {
            let _ = write!(out, "[{st}]");
        }
        Op::Var(q) => {
            if erase && is_lifted(q) {
                out.push_str("[$const]");
            } else {
                let _ = write!(out, "[${q}]");
            }
        }
        Op::Call { name, .. } => {
            let _ = write!(out, "[{name}]");
        }
        Op::Tuple(fields) => {
            out.push('[');
            for (i, (f, _)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                write_field(out, f, erase);
            }
            out.push(']');
        }
        Op::FieldAccess { field, .. }
        | Op::MapIndex { field, .. }
        | Op::MapIndexStep { field, .. } => write_field(out, field, erase),
        Op::LOuterJoin { null_field, .. }
        | Op::OMap { null_field, .. }
        | Op::OMapConcat { null_field, .. } => write_field(out, null_field, erase),
        Op::OrderBy { specs, .. } => {
            out.push('[');
            for (i, s) in specs.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                let _ = write!(
                    out,
                    "{}{}",
                    if s.descending { "desc" } else { "asc" },
                    if s.empty_least { "+el" } else { "+eg" }
                );
            }
            out.push(']');
        }
        Op::GroupBy {
            agg,
            index_fields,
            null_fields,
            ..
        } => {
            out.push('[');
            write_field(out, agg, erase);
            out.push(',');
            out.push('[');
            for (i, f) in index_fields.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                write_field(out, f, erase);
            }
            out.push_str("],[");
            for (i, f) in null_fields.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                write_field(out, f, erase);
            }
            out.push_str("]]");
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_module;
    use crate::rewrite::rewrite_module;
    use xqr_frontend::frontend;

    fn canonical(q: &str) -> (CompiledModule, u64) {
        let core = frontend(q).expect("parse");
        let mut m = compile_module(&core);
        rewrite_module(&mut m);
        canonicalize_module(&mut m);
        let h = module_hash(&m);
        (m, h)
    }

    #[test]
    fn hash_is_deterministic_and_idempotent() {
        let q = "for $x in (1,2,3) where $x > 1 return $x * 10";
        let (mut m1, h1) = canonical(q);
        let (_, h2) = canonical(q);
        assert_eq!(h1, h2);
        canonicalize_module(&mut m1);
        assert_eq!(module_hash(&m1), h1, "canonicalization is idempotent");
    }

    #[test]
    fn flwor_variable_renaming_does_not_change_the_hash() {
        let (_, a) = canonical("for $x in (1,2,3) where $x > 1 return $x * 10");
        let (_, b) = canonical("for $y in (1,2,3) where $y > 1 return $y * 10");
        assert_eq!(a, b);
    }

    #[test]
    fn lifted_constant_renaming_does_not_change_the_hash() {
        let (_, a) = canonical("let $d := doc('x.xml') return $d/child::site");
        let (_, b) = canonical("let $e := doc('x.xml') return $e/child::site");
        assert_eq!(a, b);
    }

    #[test]
    fn commutative_operands_share_a_hash() {
        let (_, a) = canonical("for $x in (1,2) where $x = 1 return $x");
        let (_, b) = canonical("for $x in (1,2) where 1 = $x return $x");
        assert_eq!(a, b);
        let (_, c) = canonical("1 + 2");
        let (_, d) = canonical("2 + 1");
        assert_eq!(c, d);
    }

    #[test]
    fn flipped_comparisons_share_a_hash() {
        let (_, a) = canonical("for $x in (1,2,3) where $x > 1 return $x");
        let (_, b) = canonical("for $x in (1,2,3) where 1 < $x return $x");
        assert_eq!(a, b);
    }

    #[test]
    fn different_literals_and_types_hash_differently() {
        let (_, a) = canonical("for $x in (1,2) where $x = 1 return $x");
        let (_, b) = canonical("for $x in (1,2) where $x = 2 return $x");
        assert_ne!(a, b);
        let (_, c) = canonical("1");
        let (_, d) = canonical("'1'");
        assert_ne!(c, d, "typed literal rendering keeps 1 and '1' apart");
    }

    #[test]
    fn distinct_documents_hash_differently() {
        let (_, a) = canonical("doc('a.xml')/child::r");
        let (_, b) = canonical("doc('b.xml')/child::r");
        assert_ne!(a, b);
    }

    #[test]
    fn canonical_plans_render_identically() {
        let (m1, _) = canonical("for $x in (1,2,3) where $x > 1 return $x");
        let (m2, _) = canonical("for $z in (1,2,3) where 1 < $z return $z");
        assert_eq!(module_rendering(&m1), module_rendering(&m2));
        assert_eq!(
            crate::pretty::indented(&m1.body),
            crate::pretty::indented(&m2.body)
        );
    }

    #[test]
    fn canonicalized_plans_still_execute_identically() {
        // Guard: canonicalization is a pure renaming/reordering — results
        // are byte-identical with and without it (checked end to end by
        // tests/prepare_differential.rs; this is the in-crate smoke test).
        let q = "for $x in (5,1,4) where 2 < $x order by $x return $x * 3";
        let core = frontend(q).unwrap();
        let mut plain = compile_module(&core);
        rewrite_module(&mut plain);
        let mut canon = plain.clone();
        canonicalize_module(&mut canon);
        // Structure is preserved op-for-op.
        assert_eq!(
            crate::algebra::plan_size(&plain.body),
            crate::algebra::plan_size(&canon.body)
        );
    }
}
