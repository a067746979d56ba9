//! The complete XQuery logical algebra — Table 1 of the paper.
//!
//! A [`Plan`] is a tree of [`Op`] nodes. Following the paper's notation,
//! each operator has *static parameters* (`[...]`), *dependent
//! sub-operators* (`{...}`, whose `IN` is rebound per element by the
//! operator), and *independent inputs* (`(...)`, evaluated against the
//! enclosing `IN`). [`Op::Input`] is the explicit `IN` reference.
//!
//! Two places deliberately generalize the paper's table:
//! constructors accept computed names ([`NamePlan::Dynamic`]) so the whole
//! language compiles, and `Sequence` is n-ary (the paper's binary form is
//! the n=2 case).
//!
//! One operator is left out: Table 1's document projection copied a kept
//! document on every run and made the XMark suite 1.6–1.9× slower
//! (DESIGN.md §4a).

use std::rc::Rc;

use xqr_types::{SequenceType, ValidationMode};
use xqr_xml::axes::{Axis, NodeTest};
use xqr_xml::{AtomicValue, QName};

/// A tuple-field name.
pub type Field = Rc<str>;

/// A constructor name: static QName or computed from a plan.
#[derive(Clone, Debug)]
pub enum NamePlan {
    Static(QName),
    Dynamic(Box<Plan>),
}

/// One `OrderBy` key: a dependent plan (tuple → items) plus direction and
/// empty-ordering flags, per XQuery's order specs.
#[derive(Clone, Debug)]
pub struct OrderSpecPlan {
    pub key: Plan,
    pub descending: bool,
    pub empty_least: bool,
}

/// A logical query plan.
#[derive(Clone, Debug)]
pub struct Plan {
    pub op: Op,
}

impl Plan {
    pub fn new(op: Op) -> Plan {
        Plan { op }
    }

    pub fn boxed(op: Op) -> Box<Plan> {
        Box::new(Plan { op })
    }

    /// `IN`.
    pub fn input() -> Plan {
        Plan::new(Op::Input)
    }

    /// `IN#field` — field access on the current input tuple.
    pub fn in_field(field: &str) -> Plan {
        Plan::new(Op::FieldAccess {
            field: field.into(),
            input: Plan::boxed(Op::Input),
        })
    }

    pub fn scalar(v: AtomicValue) -> Plan {
        Plan::new(Op::Scalar(v))
    }

    pub fn call(name: &str, args: Vec<Plan>) -> Plan {
        Plan::new(Op::Call {
            name: QName::local(name),
            args,
        })
    }
}

/// The operators of Table 1.
#[derive(Clone, Debug)]
pub enum Op {
    // ===== XML operators =====================================================
    /// `Sequence(S(i1), S(i2))` — n-ary sequence construction.
    Sequence(Vec<Plan>),
    /// `Empty()` — the empty sequence.
    Empty,
    /// `Scalar[a]()` — an atomic constant.
    Scalar(AtomicValue),
    /// `Element[q](S(i))` — element construction (content deep-copied).
    Element { name: NamePlan, content: Box<Plan> },
    /// `Attribute[q](S(a))`.
    Attribute { name: NamePlan, content: Box<Plan> },
    /// `Text(a)`.
    Text(Box<Plan>),
    /// `Comment(a)`.
    Comment(Box<Plan>),
    /// `PI(a)`.
    Pi { target: String, content: Box<Plan> },
    /// Document-node constructor (needed for `document { … }`).
    DocumentNode(Box<Plan>),
    /// `TreeJoin[axis, nodetest](S(i))` — set-at-a-time navigation,
    /// document order, duplicate-free.
    TreeJoin {
        axis: Axis,
        test: NodeTest,
        input: Box<Plan>,
    },
    /// `Castable[Type](a)`.
    Castable {
        ty: xqr_xml::AtomicType,
        optional: bool,
        input: Box<Plan>,
    },
    /// `Cast[Type](a)`.
    Cast {
        ty: xqr_xml::AtomicType,
        optional: bool,
        input: Box<Plan>,
    },
    /// `Validate[Type](i)`.
    Validate {
        mode: ValidationMode,
        input: Box<Plan>,
    },
    /// `TypeMatches[Type](S(i))` — `instance of`.
    TypeMatches { st: SequenceType, input: Box<Plan> },
    /// `TypeAssert[Type](S(i))` — identity or dynamic error.
    TypeAssert { st: SequenceType, input: Box<Plan> },
    /// `Var[q]()` — a global variable or function parameter from the
    /// algebra context.
    Var(QName),
    /// `Call[q](S(i1) … S(in))` — built-in or user function call.
    Call { name: QName, args: Vec<Plan> },
    /// `Cond{S(i1), S(i2)}(boolean)` — the branches see the *enclosing*
    /// `IN` (they are lazily evaluated, not input-rebinding).
    Cond {
        cond: Box<Plan>,
        then: Box<Plan>,
        els: Box<Plan>,
    },
    /// `Parse(URI)`.
    Parse { uri: Box<Plan> },
    /// `Serialize(URI, S(i))` — serializes to a string (URI-less form).
    Serialize { input: Box<Plan> },

    // ===== Tuple operators ===================================================
    /// `IN` — the dependent input.
    Input,
    /// `([])` — the singleton table holding the empty tuple (the input of a
    /// top-level FLWOR, paper plan P1 line 13).
    TupleTable,
    /// `[q1:e1; …; qn:en]` — tuple construction.
    Tuple(Vec<(Field, Plan)>),
    /// `++` — tuple concatenation.
    TupleConcat(Box<Plan>, Box<Plan>),
    /// `#q(τ)` — field access.
    FieldAccess { field: Field, input: Box<Plan> },
    /// `Select{pred}(S(τ))`.
    Select { pred: Box<Plan>, input: Box<Plan> },
    /// `Product(S(τ1), S(τ2))`.
    Product(Box<Plan>, Box<Plan>),
    /// `Join{pred}(S(τ1), S(τ2))`.
    Join {
        pred: Box<Plan>,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    /// `LOuterJoin[q]{pred}(S(τ1), S(τ2))` — adds boolean field `q`, true
    /// on null-padded rows.
    LOuterJoin {
        null_field: Field,
        pred: Box<Plan>,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    /// `Map{τ1→τ2}(S(τ1))`.
    MapOp { dep: Box<Plan>, input: Box<Plan> },
    /// `OMap[q](S(τ))` — outer map: emits `[q:true]` when the input table
    /// is empty, else flags every tuple `[q:false]`.
    OMap { null_field: Field, input: Box<Plan> },
    /// `MapConcat{τ1→S(τ2)}(S(τ1))` — the dependent join (D-Join).
    MapConcat { dep: Box<Plan>, input: Box<Plan> },
    /// `OMapConcat[q]{…}(…)` — outer dependent join.
    OMapConcat {
        null_field: Field,
        dep: Box<Plan>,
        input: Box<Plan>,
    },
    /// `MapIndex[q](S(τ))` — consecutive 1-based indices.
    MapIndex { field: Field, input: Box<Plan> },
    /// `MapIndexStep[q](S(τ))` — ascending but not necessarily consecutive.
    MapIndexStep { field: Field, input: Box<Plan> },
    /// `OrderBy{keys}(S(τ))` — stable, with XQuery value coercion.
    OrderBy {
        specs: Vec<OrderSpecPlan>,
        input: Box<Plan>,
    },
    /// `GroupBy[qAgg, qIndices, qNulls]{per-partition}{per-item}(S(τ))` —
    /// the XQuery-specific group-by of Section 5.
    GroupBy {
        agg: Field,
        index_fields: Vec<Field>,
        null_fields: Vec<Field>,
        per_partition: Box<Plan>,
        per_item: Box<Plan>,
        input: Box<Plan>,
    },

    // ===== XML/Tuple boundary ================================================
    /// `MapFromItem{i→τ}(S(i))`.
    MapFromItem { dep: Box<Plan>, input: Box<Plan> },
    /// `MapToItem{τ→i}(S(τ))`.
    MapToItem { dep: Box<Plan>, input: Box<Plan> },
    /// `MapSome{τ→boolean}(S(τ))`.
    MapSome { dep: Box<Plan>, input: Box<Plan> },
    /// `MapEvery{τ→boolean}(S(τ))`.
    MapEvery { dep: Box<Plan>, input: Box<Plan> },
}

/// How a child plan relates to its parent's `IN`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChildKind {
    /// Evaluated against the enclosing `IN` (independent inputs, `Cond`
    /// branches, call arguments, tuple field values, …).
    Inherit,
    /// The parent rebinds `IN` for this child (dependent sub-operators).
    Rebinds,
}

impl Op {
    /// All child plans with their binding kind — the single traversal point
    /// used by the analyses and the rewrite engine.
    pub fn children(&self) -> Vec<(&Plan, ChildKind)> {
        use ChildKind::*;
        match self {
            Op::Sequence(items) | Op::Call { args: items, .. } => {
                items.iter().map(|p| (p, Inherit)).collect()
            }
            Op::Empty | Op::Scalar(_) | Op::Var(_) | Op::Input | Op::TupleTable => Vec::new(),
            Op::Element { name, content } | Op::Attribute { name, content } => {
                let mut v = Vec::new();
                if let NamePlan::Dynamic(n) = name {
                    v.push((n.as_ref(), Inherit));
                }
                v.push((content.as_ref(), Inherit));
                v
            }
            Op::Text(c) | Op::Comment(c) | Op::DocumentNode(c) | Op::Pi { content: c, .. } => {
                vec![(c.as_ref(), Inherit)]
            }
            Op::TreeJoin { input, .. }
            | Op::Castable { input, .. }
            | Op::Cast { input, .. }
            | Op::Validate { input, .. }
            | Op::TypeMatches { input, .. }
            | Op::TypeAssert { input, .. }
            | Op::Parse { uri: input }
            | Op::Serialize { input }
            | Op::FieldAccess { input, .. }
            | Op::OMap { input, .. }
            | Op::MapIndex { input, .. }
            | Op::MapIndexStep { input, .. } => vec![(input.as_ref(), Inherit)],
            Op::Cond { cond, then, els } => vec![
                (cond.as_ref(), Inherit),
                (then.as_ref(), Inherit),
                (els.as_ref(), Inherit),
            ],
            Op::Tuple(fields) => fields.iter().map(|(_, p)| (p, Inherit)).collect(),
            Op::TupleConcat(a, b) | Op::Product(a, b) => {
                vec![(a.as_ref(), Inherit), (b.as_ref(), Inherit)]
            }
            Op::Select { pred, input } => {
                vec![(pred.as_ref(), Rebinds), (input.as_ref(), Inherit)]
            }
            Op::Join { pred, left, right } => vec![
                (pred.as_ref(), Rebinds),
                (left.as_ref(), Inherit),
                (right.as_ref(), Inherit),
            ],
            Op::LOuterJoin {
                pred, left, right, ..
            } => vec![
                (pred.as_ref(), Rebinds),
                (left.as_ref(), Inherit),
                (right.as_ref(), Inherit),
            ],
            Op::MapOp { dep, input }
            | Op::MapConcat { dep, input }
            | Op::OMapConcat { dep, input, .. }
            | Op::MapFromItem { dep, input }
            | Op::MapToItem { dep, input }
            | Op::MapSome { dep, input }
            | Op::MapEvery { dep, input } => {
                vec![(dep.as_ref(), Rebinds), (input.as_ref(), Inherit)]
            }
            Op::OrderBy { specs, input } => {
                let mut v: Vec<(&Plan, ChildKind)> =
                    specs.iter().map(|s| (&s.key, Rebinds)).collect();
                v.push((input.as_ref(), Inherit));
                v
            }
            Op::GroupBy {
                per_partition,
                per_item,
                input,
                ..
            } => vec![
                (per_partition.as_ref(), Rebinds),
                (per_item.as_ref(), Rebinds),
                (input.as_ref(), Inherit),
            ],
        }
    }

    /// Mutable version of [`Op::children`] (same order).
    pub fn children_mut(&mut self) -> Vec<(&mut Plan, ChildKind)> {
        use ChildKind::*;
        match self {
            Op::Sequence(items) | Op::Call { args: items, .. } => {
                items.iter_mut().map(|p| (p, Inherit)).collect()
            }
            Op::Empty | Op::Scalar(_) | Op::Var(_) | Op::Input | Op::TupleTable => Vec::new(),
            Op::Element { name, content } | Op::Attribute { name, content } => {
                let mut v = Vec::new();
                if let NamePlan::Dynamic(n) = name {
                    v.push((n.as_mut(), Inherit));
                }
                v.push((content.as_mut(), Inherit));
                v
            }
            Op::Text(c) | Op::Comment(c) | Op::DocumentNode(c) | Op::Pi { content: c, .. } => {
                vec![(c.as_mut(), Inherit)]
            }
            Op::TreeJoin { input, .. }
            | Op::Castable { input, .. }
            | Op::Cast { input, .. }
            | Op::Validate { input, .. }
            | Op::TypeMatches { input, .. }
            | Op::TypeAssert { input, .. }
            | Op::Parse { uri: input }
            | Op::Serialize { input }
            | Op::FieldAccess { input, .. }
            | Op::OMap { input, .. }
            | Op::MapIndex { input, .. }
            | Op::MapIndexStep { input, .. } => vec![(input.as_mut(), Inherit)],
            Op::Cond { cond, then, els } => vec![
                (cond.as_mut(), Inherit),
                (then.as_mut(), Inherit),
                (els.as_mut(), Inherit),
            ],
            Op::Tuple(fields) => fields.iter_mut().map(|(_, p)| (p, Inherit)).collect(),
            Op::TupleConcat(a, b) | Op::Product(a, b) => {
                vec![(a.as_mut(), Inherit), (b.as_mut(), Inherit)]
            }
            Op::Select { pred, input } => {
                vec![(pred.as_mut(), Rebinds), (input.as_mut(), Inherit)]
            }
            Op::Join { pred, left, right } => vec![
                (pred.as_mut(), Rebinds),
                (left.as_mut(), Inherit),
                (right.as_mut(), Inherit),
            ],
            Op::LOuterJoin {
                pred, left, right, ..
            } => vec![
                (pred.as_mut(), Rebinds),
                (left.as_mut(), Inherit),
                (right.as_mut(), Inherit),
            ],
            Op::MapOp { dep, input }
            | Op::MapConcat { dep, input }
            | Op::OMapConcat { dep, input, .. }
            | Op::MapFromItem { dep, input }
            | Op::MapToItem { dep, input }
            | Op::MapSome { dep, input }
            | Op::MapEvery { dep, input } => {
                vec![(dep.as_mut(), Rebinds), (input.as_mut(), Inherit)]
            }
            Op::OrderBy { specs, input } => {
                let mut v: Vec<(&mut Plan, ChildKind)> =
                    specs.iter_mut().map(|s| (&mut s.key, Rebinds)).collect();
                v.push((input.as_mut(), Inherit));
                v
            }
            Op::GroupBy {
                per_partition,
                per_item,
                input,
                ..
            } => vec![
                (per_partition.as_mut(), Rebinds),
                (per_item.as_mut(), Rebinds),
                (input.as_mut(), Inherit),
            ],
        }
    }

    /// The operator's display name (paper spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Sequence(_) => "Sequence",
            Op::Empty => "Empty",
            Op::Scalar(_) => "Scalar",
            Op::Element { .. } => "Element",
            Op::Attribute { .. } => "Attribute",
            Op::Text(_) => "Text",
            Op::Comment(_) => "Comment",
            Op::Pi { .. } => "PI",
            Op::DocumentNode(_) => "DocumentNode",
            Op::TreeJoin { .. } => "TreeJoin",
            Op::Castable { .. } => "Castable",
            Op::Cast { .. } => "Cast",
            Op::Validate { .. } => "Validate",
            Op::TypeMatches { .. } => "TypeMatches",
            Op::TypeAssert { .. } => "TypeAssert",
            Op::Var(_) => "Var",
            Op::Call { .. } => "Call",
            Op::Cond { .. } => "Cond",
            Op::Parse { .. } => "Parse",
            Op::Serialize { .. } => "Serialize",
            Op::Input => "IN",
            Op::TupleTable => "([])",
            Op::Tuple(_) => "Tuple",
            Op::TupleConcat(..) => "++",
            Op::FieldAccess { .. } => "#",
            Op::Select { .. } => "Select",
            Op::Product(..) => "Product",
            Op::Join { .. } => "Join",
            Op::LOuterJoin { .. } => "LOuterJoin",
            Op::MapOp { .. } => "Map",
            Op::OMap { .. } => "OMap",
            Op::MapConcat { .. } => "MapConcat",
            Op::OMapConcat { .. } => "OMapConcat",
            Op::MapIndex { .. } => "MapIndex",
            Op::MapIndexStep { .. } => "MapIndexStep",
            Op::OrderBy { .. } => "OrderBy",
            Op::GroupBy { .. } => "GroupBy",
            Op::MapFromItem { .. } => "MapFromItem",
            Op::MapToItem { .. } => "MapToItem",
            Op::MapSome { .. } => "MapSome",
            Op::MapEvery { .. } => "MapEvery",
        }
    }
}

/// Counts the operators in a plan (used by tests and stats).
pub fn plan_size(p: &Plan) -> usize {
    1 + p
        .op
        .children()
        .iter()
        .map(|(c, _)| plan_size(c))
        .sum::<usize>()
}

/// Counts operators satisfying a predicate.
pub fn count_ops(p: &Plan, f: &dyn Fn(&Op) -> bool) -> usize {
    let here = usize::from(f(&p.op));
    here + p
        .op
        .children()
        .iter()
        .map(|(c, _)| count_ops(c, f))
        .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_all_slots() {
        let p = Plan::new(Op::Select {
            pred: Plan::boxed(Op::Scalar(AtomicValue::Boolean(true))),
            input: Plan::boxed(Op::TupleTable),
        });
        let kids = p.op.children();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].1, ChildKind::Rebinds);
        assert_eq!(kids[1].1, ChildKind::Inherit);
        assert_eq!(plan_size(&p), 3);
    }

    #[test]
    fn in_field_shape() {
        let p = Plan::in_field("p");
        let Op::FieldAccess { field, input } = &p.op else {
            panic!()
        };
        assert_eq!(&**field, "p");
        assert!(matches!(input.op, Op::Input));
    }

    #[test]
    fn count_ops_works() {
        let p = Plan::new(Op::Sequence(vec![
            Plan::input(),
            Plan::new(Op::Sequence(vec![Plan::input()])),
        ]));
        assert_eq!(count_ops(&p, &|o| matches!(o, Op::Input)), 2);
    }
}
