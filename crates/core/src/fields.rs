//! Plan analyses: free-`IN` usage and tuple-field inference.
//!
//! These power the side conditions of the Fig. 5 rewritings ("when Op₁
//! independent of IN") and the hash join's key splitting (which side of a
//! join does each operand of an equality depend on?).

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

/// The fields accessed on the free `IN` of this plan (`IN#q` occurrences).
pub fn used_input_fields(p: &Plan) -> BTreeSet<Field> {
    let mut out = BTreeSet::new();
    collect_used(p, &mut out);
    out
}

fn collect_used(p: &Plan, out: &mut BTreeSet<Field>) {
    if let Op::FieldAccess { field, input } = &p.op {
        if matches!(input.op, Op::Input) {
            out.insert(field.clone());
        }
    }
    for (c, kind) in p.op.children() {
        if kind == ChildKind::Inherit {
            collect_used(c, out);
        }
    }
}

/// Does this plan hand the whole `IN` tuple to a sub-plan (anything but
/// `IN#q`)? Then [`used_input_fields`] under-reports what it reads: a
/// dependent child of that sub-plan can access any field of the tuple.
pub fn passes_whole_input(p: &Plan) -> bool {
    match &p.op {
        Op::Input => true,
        Op::FieldAccess { input, .. } if matches!(input.op, Op::Input) => false,
        op => op
            .children()
            .iter()
            .any(|(c, kind)| *kind == ChildKind::Inherit && passes_whole_input(c)),
    }
}

/// Infers the set of tuple fields this (table-producing) plan outputs —
/// exactly, so callers may test disjointness as well as containment.
/// `None` means unknown: the plan is `IN` used as a table (its fields
/// depend on the enclosing context), or a conditional whose branches
/// produce different fields.
pub fn output_fields(p: &Plan) -> Option<BTreeSet<Field>> {
    match &p.op {
        Op::TupleTable => Some(BTreeSet::new()),
        Op::Input => None,
        Op::Tuple(fields) => Some(fields.iter().map(|(f, _)| f.clone()).collect()),
        Op::TupleConcat(a, b) => {
            let mut fa = output_fields(a)?;
            fa.extend(output_fields(b)?);
            Some(fa)
        }
        Op::Select { input, .. } | Op::OrderBy { input, .. } => output_fields(input),
        Op::Product(a, b) => {
            let mut fa = output_fields(a)?;
            fa.extend(output_fields(b)?);
            Some(fa)
        }
        Op::Join { left, right, .. } => {
            let mut fa = output_fields(left)?;
            fa.extend(output_fields(right)?);
            Some(fa)
        }
        Op::LOuterJoin {
            null_field,
            left,
            right,
            ..
        } => {
            let mut fa = output_fields(left)?;
            fa.extend(output_fields(right)?);
            fa.insert(null_field.clone());
            Some(fa)
        }
        Op::MapOp { dep, .. } => output_fields(dep),
        Op::OMap { null_field, input } => {
            let mut fa = output_fields(input)?;
            fa.insert(null_field.clone());
            Some(fa)
        }
        Op::MapConcat { dep, input } => {
            let mut fa = output_fields(input)?;
            fa.extend(output_fields(dep)?);
            Some(fa)
        }
        Op::OMapConcat {
            null_field,
            dep,
            input,
        } => {
            let mut fa = output_fields(input)?;
            fa.extend(output_fields(dep)?);
            fa.insert(null_field.clone());
            Some(fa)
        }
        Op::MapIndex { field, input } | Op::MapIndexStep { field, input } => {
            let mut fa = output_fields(input)?;
            fa.insert(field.clone());
            Some(fa)
        }
        Op::GroupBy { agg, input, .. } => {
            let mut fa = output_fields(input)?;
            fa.insert(agg.clone());
            Some(fa)
        }
        Op::MapFromItem { dep, .. } => output_fields(dep),
        Op::Cond { then, els, .. } => {
            let ft = output_fields(then)?;
            (output_fields(els)? == ft).then_some(ft)
        }
        // Item-producing operators have no tuple fields.
        _ => Some(BTreeSet::new()),
    }
}

/// Like [`output_fields`], but returns only the fields this plan *itself*
/// introduces: `IN` contributes nothing instead of poisoning the analysis.
/// Used by rewrite guards that ask "which fields disappear when this
/// subtree produces no tuples?".
pub fn known_output_fields(p: &Plan) -> BTreeSet<Field> {
    match &p.op {
        Op::TupleTable | Op::Input => BTreeSet::new(),
        Op::Tuple(fields) => fields.iter().map(|(f, _)| f.clone()).collect(),
        Op::TupleConcat(a, b) | Op::Product(a, b) => {
            let mut fa = known_output_fields(a);
            fa.extend(known_output_fields(b));
            fa
        }
        Op::Select { input, .. } | Op::OrderBy { input, .. } => known_output_fields(input),
        Op::Join { left, right, .. } => {
            let mut fa = known_output_fields(left);
            fa.extend(known_output_fields(right));
            fa
        }
        Op::LOuterJoin {
            null_field,
            left,
            right,
            ..
        } => {
            let mut fa = known_output_fields(left);
            fa.extend(known_output_fields(right));
            fa.insert(null_field.clone());
            fa
        }
        Op::MapOp { dep, .. } => known_output_fields(dep),
        Op::OMap { null_field, input } => {
            let mut fa = known_output_fields(input);
            fa.insert(null_field.clone());
            fa
        }
        Op::MapConcat { dep, input } => {
            let mut fa = known_output_fields(input);
            fa.extend(known_output_fields(dep));
            fa
        }
        Op::OMapConcat {
            null_field,
            dep,
            input,
        } => {
            let mut fa = known_output_fields(input);
            fa.extend(known_output_fields(dep));
            fa.insert(null_field.clone());
            fa
        }
        Op::MapIndex { field, input } | Op::MapIndexStep { field, input } => {
            let mut fa = known_output_fields(input);
            fa.insert(field.clone());
            fa
        }
        Op::GroupBy { agg, input, .. } => {
            let mut fa = known_output_fields(input);
            fa.insert(agg.clone());
            fa
        }
        Op::MapFromItem { dep, .. } => known_output_fields(dep),
        Op::Cond { then, els, .. } => {
            let ft = known_output_fields(then);
            let fe = known_output_fields(els);
            ft.intersection(&fe).cloned().collect()
        }
        _ => BTreeSet::new(),
    }
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
        let used = used_input_fields(&p);
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
        assert!(used_input_fields(&p).is_empty());
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
        let fields = output_fields(&join).unwrap();
        let names: Vec<&str> = fields.iter().map(|f| &**f).collect();
        assert_eq!(names, ["index", "null", "p", "t"]);
    }

    #[test]
    fn whole_input_is_not_a_field_read() {
        // IN#x reads one field; `IN` under a map hands the tuple on.
        assert!(!passes_whole_input(&Plan::in_field("x")));
        let p = Plan::new(Op::MapToItem {
            dep: Box::new(Plan::in_field("hidden")),
            input: Plan::boxed(Op::Input),
        });
        assert!(passes_whole_input(&p));
        assert!(used_input_fields(&p).is_empty());
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
        assert_eq!(output_fields(&same).map(|f| f.len()), Some(1));
        assert_eq!(output_fields(&cond(mfi("a", var()), mfi("b", var()))), None);
    }

    #[test]
    fn unknown_fields_for_raw_input() {
        assert_eq!(output_fields(&Plan::input()), None);
        let p = Plan::new(Op::MapConcat {
            dep: Plan::boxed(Op::Tuple(vec![("a".into(), Plan::input())])),
            input: Plan::boxed(Op::Input),
        });
        assert_eq!(output_fields(&p), None);
    }
}
