//! Plan analyses: free-`IN` usage and tuple-field inference.
//!
//! These power the side conditions of the Fig. 5 rewritings ("when Op₁
//! independent of IN") and the hash join's key splitting (which side of a
//! join does each operand of an equality depend on?). Each question has
//! one walk here.

use std::collections::BTreeSet;

use crate::algebra::{ChildKind, Field, Op, Plan};

/// Does this plan reference the enclosing `IN` (directly, or through any
/// child that inherits the binding)? Children in dependent (rebinding)
/// positions never contribute: their `IN` is their operator's own input.
pub fn uses_input(p: &Plan) -> bool {
    if matches!(p.op, Op::Input) {
        return true;
    }
    p.op.children()
        .iter()
        .any(|(c, kind)| *kind == ChildKind::Inherit && uses_input(c))
}

/// The fields of the free `IN` this plan reads (`IN#q` occurrences), or
/// `None` when it hands the whole tuple to a sub-plan (anything but
/// `IN#q`): a dependent child of that sub-plan can read any field.
pub fn used_input_fields(p: &Plan) -> Option<BTreeSet<Field>> {
    fn walk(p: &Plan, out: &mut BTreeSet<Field>) -> Option<()> {
        match &p.op {
            Op::Input => return None,
            Op::FieldAccess { field, input } if matches!(input.op, Op::Input) => {
                out.insert(field.clone());
            }
            op => {
                for (c, kind) in op.children() {
                    if kind == ChildKind::Inherit {
                        walk(c, out)?;
                    }
                }
            }
        }
        Some(())
    }
    let mut out = BTreeSet::new();
    walk(p, &mut out).map(|()| out)
}

/// Flattens the `Cond{then}(cond)` chains (with a `false` else branch)
/// that `and` lowers to into `out`, in predicate order.
pub fn conjuncts<'p>(pred: &'p Plan, out: &mut Vec<&'p Plan>) {
    if let Op::Cond { cond, then, els } = &pred.op {
        if matches!(&els.op, Op::Scalar(xqr_xml::AtomicValue::Boolean(false))) {
            conjuncts(cond, out);
            conjuncts(then, out);
            return;
        }
    }
    out.push(pred);
}

/// The tuple fields this (table-producing) plan outputs, and whether the
/// set is exact — so callers may test disjointness as well as
/// containment. An inexact set holds the fields the plan itself
/// introduces: `IN` used as a table contributes none (its fields depend
/// on the enclosing context), and a conditional contributes those its
/// branches share.
pub fn output_fields(p: &Plan) -> (BTreeSet<Field>, bool) {
    match &p.op {
        Op::Input => (BTreeSet::new(), false),
        Op::Tuple(fields) => (fields.iter().map(|(f, _)| f.clone()).collect(), true),
        Op::Cond { then, els, .. } => {
            let (ft, exact_t) = output_fields(then);
            let (fe, exact_e) = output_fields(els);
            let exact = exact_t && exact_e && ft == fe;
            (ft.intersection(&fe).cloned().collect(), exact)
        }
        Op::Select { input, .. } | Op::OrderBy { input, .. } => output_fields(input),
        Op::MapOp { dep, .. } | Op::MapFromItem { dep, .. } => output_fields(dep),
        Op::TupleConcat(a, b)
        | Op::Product(a, b)
        | Op::Join {
            left: a, right: b, ..
        }
        | Op::MapConcat { input: a, dep: b } => union(&[a, b], None),
        Op::LOuterJoin {
            null_field,
            left: a,
            right: b,
            ..
        }
        | Op::OMapConcat {
            null_field,
            input: a,
            dep: b,
        } => union(&[a, b], Some(null_field)),
        Op::OMap {
            null_field: own,
            input,
        }
        | Op::MapIndex { field: own, input }
        | Op::MapIndexStep { field: own, input }
        | Op::GroupBy {
            agg: own, input, ..
        } => union(&[input], Some(own)),
        // Item-producing operators (and the empty `TupleTable`) have no
        // tuple fields.
        _ => (BTreeSet::new(), true),
    }
}

/// [`output_fields`] of several plans, plus the field `own` an operator
/// adds.
fn union(parts: &[&Plan], own: Option<&Field>) -> (BTreeSet<Field>, bool) {
    let mut out: BTreeSet<Field> = own.into_iter().cloned().collect();
    let mut exact = true;
    for c in parts {
        let (fields, e) = output_fields(c);
        out.extend(fields);
        exact &= e;
    }
    (out, exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xml::AtomicValue;

    fn mfi(field: &str, input: Plan) -> Plan {
        Plan::new(Op::MapFromItem {
            dep: Plan::boxed(Op::Tuple(vec![(field.into(), Plan::input())])),
            input: Box::new(input),
        })
    }

    #[test]
    fn input_detection_respects_rebinding() {
        // MapFromItem{[t:IN]}(Var x): the dep's IN is rebound → independent.
        let p = mfi("t", Plan::new(Op::Var(xqr_xml::QName::local("x"))));
        assert!(!uses_input(&p));
        // MapFromItem{[t:IN]}(IN#x): the input inherits → dependent.
        let p = mfi("t", Plan::in_field("x"));
        assert!(uses_input(&p));
        assert!(uses_input(&Plan::input()));
        assert!(!uses_input(&Plan::scalar(AtomicValue::Integer(1))));
    }

    #[test]
    fn used_fields_only_from_free_input() {
        let p = Plan::new(Op::Call {
            name: xqr_xml::QName::local("fs:general-eq"),
            args: vec![Plan::in_field("t"), Plan::in_field("p")],
        });
        let used = used_input_fields(&p).unwrap();
        assert_eq!(used.len(), 2);
        assert!(used.contains("t") && used.contains("p"));
        // Fields accessed under a rebinding dep are not free.
        let p = Plan::new(Op::MapToItem {
            dep: Plan::boxed(Op::FieldAccess {
                field: "inner".into(),
                input: Plan::boxed(Op::Input),
            }),
            input: Plan::boxed(Op::TupleTable),
        });
        assert_eq!(used_input_fields(&p), Some(BTreeSet::new()));
    }

    #[test]
    fn conjunct_flattening() {
        // and-chains become Cond{b}(a) with else=false.
        let eq = |l: &str, r: &str| {
            Plan::call("fs:general-eq", vec![Plan::in_field(l), Plan::in_field(r)])
        };
        let pred = Plan::new(Op::Cond {
            cond: Box::new(eq("l", "r")),
            then: Box::new(eq("l2", "r2")),
            els: Plan::boxed(Op::Scalar(AtomicValue::Boolean(false))),
        });
        let mut cs = Vec::new();
        conjuncts(&pred, &mut cs);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn output_field_inference() {
        let persons = mfi("p", Plan::new(Op::Var(xqr_xml::QName::local("doc"))));
        let auctions = mfi("t", Plan::new(Op::Var(xqr_xml::QName::local("doc"))));
        let join = Plan::new(Op::LOuterJoin {
            null_field: "null".into(),
            pred: Plan::boxed(Op::Scalar(AtomicValue::Boolean(true))),
            left: Box::new(Plan::new(Op::MapIndexStep {
                field: "index".into(),
                input: Box::new(persons),
            })),
            right: Box::new(auctions),
        });
        let (fields, exact) = output_fields(&join);
        assert!(exact);
        let names: Vec<&str> = fields.iter().map(|f| &**f).collect();
        assert_eq!(names, ["index", "null", "p", "t"]);
    }

    #[test]
    fn whole_input_is_not_a_field_read() {
        // IN#x reads one field; `IN` under a map hands the tuple on.
        assert_eq!(
            used_input_fields(&Plan::in_field("x")).map(|f| f.len()),
            Some(1)
        );
        let p = Plan::new(Op::MapToItem {
            dep: Box::new(Plan::in_field("hidden")),
            input: Plan::boxed(Op::Input),
        });
        assert_eq!(used_input_fields(&p), None);
    }

    #[test]
    fn conditional_fields_are_exact_or_unknown() {
        let cond = |then: Plan, els: Plan| {
            Plan::new(Op::Cond {
                cond: Plan::boxed(Op::Scalar(AtomicValue::Boolean(true))),
                then: Box::new(then),
                els: Box::new(els),
            })
        };
        let var = || Plan::new(Op::Var(xqr_xml::QName::local("v")));
        let same = cond(mfi("a", var()), mfi("a", var()));
        assert_eq!(output_fields(&same), (BTreeSet::from(["a".into()]), true));
        // Differing branches: inexact, and only the shared fields are known.
        let differ = cond(mfi("a", var()), mfi("b", var()));
        assert_eq!(output_fields(&differ), (BTreeSet::new(), false));
    }

    #[test]
    fn unknown_fields_for_raw_input() {
        assert_eq!(output_fields(&Plan::input()), (BTreeSet::new(), false));
        // `IN` poisons exactness but not the fields the plan adds itself.
        let p = Plan::new(Op::MapConcat {
            dep: Plan::boxed(Op::Tuple(vec![("a".into(), Plan::input())])),
            input: Plan::boxed(Op::Input),
        });
        assert_eq!(output_fields(&p), (BTreeSet::from(["a".into()]), false));
    }
}
