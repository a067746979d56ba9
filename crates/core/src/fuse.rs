//! Peephole analysis marking *fusable* comparison predicates.
//!
//! The compiler lowers value predicates and arithmetic into per-tuple
//! `Call[fs:*]` nodes; profiling shows these dominate the value-heavy
//! XMark queries (one dynamic dispatch, one atomization, one type
//! promotion per row). The batched executor in `xqr-runtime` replaces
//! those chains with type-specialized kernels — but only for predicate
//! shapes this module certifies: a single two-argument `fs:general-*` /
//! `fs:value-*` comparison whose operands are *fusable chains*
//! (deterministic, side-effect-free expressions that read the input tuple
//! through field access only). Anything else keeps the scalar path.
//!
//! The analysis is purely structural and lives in `xqr-core` beside the
//! other plan analyses (`fields`), so both the runtime and the explain
//! machinery can consult it without duplicating the shape rules.

use crate::algebra::{Op, Plan};

/// A comparison predicate split into its operator name and operands.
pub struct ComparisonSplit<'p> {
    /// The builtin's local name (`fs:general-gt`, `fs:value-eq`, …).
    pub name: &'p str,
    /// The two-letter operator suffix (`eq`, `ne`, `lt`, `le`, `gt`, `ge`).
    pub suffix: &'p str,
    /// General (existential, atomizing, error-swallowing) vs value
    /// (singleton, strict) comparison semantics.
    pub general: bool,
    pub lhs: &'p Plan,
    pub rhs: &'p Plan,
}

/// Splits a predicate of the shape `Call[fs:general-*|fs:value-*](a, b)`.
pub fn comparison_split(pred: &Plan) -> Option<ComparisonSplit<'_>> {
    let Op::Call { name, args } = &pred.op else {
        return None;
    };
    if args.len() != 2 {
        return None;
    }
    let local = name.local_part();
    let (general, suffix) = if let Some(s) = local.strip_prefix("fs:general-") {
        (true, s)
    } else if let Some(s) = local.strip_prefix("fs:value-") {
        (false, s)
    } else {
        return None;
    };
    if !matches!(suffix, "eq" | "ne" | "lt" | "le" | "gt" | "ge") {
        return None;
    }
    Some(ComparisonSplit {
        name: local,
        suffix,
        general,
        lhs: &args[0],
        rhs: &args[1],
    })
}

/// Is this operand expression a fusable chain? Fusable chains are
/// deterministic and side-effect-free, read `IN` only through
/// `FieldAccess` over `Input` (never the raw tuple), and are closed under
/// the step/cardinality/arithmetic calls the normalizer emits around
/// comparison operands. Their value for a given tuple can therefore be
/// computed once and cached — re-evaluation can neither change the result
/// nor produce a different dynamic error.
pub fn fusable_operand(p: &Plan) -> bool {
    match &p.op {
        Op::Scalar(_) | Op::Var(_) => true,
        Op::FieldAccess { input, .. } => matches!(input.op, Op::Input),
        Op::TreeJoin { input, .. } => fusable_operand(input),
        Op::Cast { input, .. } | Op::Castable { input, .. } => fusable_operand(input),
        Op::Call { name, args } => {
            matches!(
                name.local_part(),
                "exactly-one"
                    | "zero-or-one"
                    | "one-or-more"
                    | "data"
                    | "string"
                    | "number"
                    | "count"
                    | "fs:numeric-add"
                    | "fs:numeric-subtract"
                    | "fs:numeric-multiply"
                    | "fs:numeric-divide"
                    | "fs:numeric-mod"
                    | "fs:numeric-unary-minus"
            ) && args.iter().all(fusable_operand)
        }
        _ => false,
    }
}

/// [`comparison_split`] restricted to predicates whose operands are both
/// fusable chains — the exact shape the batched kernels accept.
pub fn fusable_comparison(pred: &Plan) -> Option<ComparisonSplit<'_>> {
    let split = comparison_split(pred)?;
    if fusable_operand(split.lhs) && fusable_operand(split.rhs) {
        Some(split)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xml::AtomicValue;

    #[test]
    fn splits_general_and_value_comparisons() {
        let p = Plan::call(
            "fs:general-gt",
            vec![Plan::in_field("a"), Plan::scalar(AtomicValue::Integer(1))],
        );
        let s = comparison_split(&p).expect("splits");
        assert!(s.general);
        assert_eq!(s.suffix, "gt");
        let p = Plan::call(
            "fs:value-eq",
            vec![Plan::in_field("a"), Plan::in_field("b")],
        );
        let s = comparison_split(&p).expect("splits");
        assert!(!s.general);
        assert_eq!(s.suffix, "eq");
    }

    #[test]
    fn rejects_non_comparisons() {
        assert!(comparison_split(&Plan::call(
            "fs:numeric-add",
            vec![Plan::in_field("a"), Plan::in_field("b")],
        ))
        .is_none());
        assert!(
            comparison_split(&Plan::call("fs:general-gt", vec![Plan::in_field("a")])).is_none()
        );
        assert!(comparison_split(&Plan::input()).is_none());
    }

    #[test]
    fn fusable_chains() {
        // The Q11/Q12 inner operand shape: 5000 * exactly-one(.../text()).
        let chain = Plan::call(
            "fs:numeric-multiply",
            vec![
                Plan::scalar(AtomicValue::Integer(5000)),
                Plan::call("exactly-one", vec![Plan::in_field("i")]),
            ],
        );
        assert!(fusable_operand(&chain));
        assert!(fusable_operand(&Plan::in_field("x")));
        assert!(fusable_operand(&Plan::scalar(AtomicValue::Boolean(true))));
        // Raw IN (whole-tuple access) is not fusable.
        assert!(!fusable_operand(&Plan::input()));
        // Unknown calls are not fusable.
        assert!(!fusable_operand(&Plan::call(
            "doc",
            vec![Plan::in_field("u")]
        )));
    }

    #[test]
    fn fusable_comparison_requires_both_sides() {
        let good = Plan::call(
            "fs:general-gt",
            vec![Plan::in_field("a"), Plan::scalar(AtomicValue::Integer(1))],
        );
        assert!(fusable_comparison(&good).is_some());
        let bad = Plan::call(
            "fs:general-gt",
            vec![Plan::in_field("a"), Plan::call("doc", vec![Plan::input()])],
        );
        assert!(fusable_comparison(&bad).is_none());
    }
}
