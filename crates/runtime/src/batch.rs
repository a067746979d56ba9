//! Batched, type-specialized comparison kernels for the scalar hot path.
//!
//! Profiling shows the value-heavy XMark queries spend most of their time
//! in per-tuple `Call[fs:*]` nodes: one dynamic dispatch, one
//! atomization, and one type promotion *per row* (Q11 alone runs
//! `fs:numeric-multiply` + `fs:general-gt` 212 036 times). This module
//! replaces those chains with two kernels, both gated on the
//! [`xqr_core::fuse`] peephole so only provably safe shapes fuse:
//!
//! * [`NlJoinKernel`] — a nested-loop join predicate
//!   `op(outer_expr, inner_expr)` whose operands each read only one
//!   side's fields. The inner operand is evaluated
//!   **once per inner row** (memoized in predicate-argument order during
//!   the first probe, so the first probe's evaluation order — and
//!   therefore the first dynamic error — matches the scalar path
//!   exactly), and once the cache is
//!   complete and found type-uniform, subsequent probes compare through a
//!   monomorphic `f64`/`i64` lane: the Table 2 promotion is resolved once
//!   per batch instead of once per pair.
//! * [`SelectKernel`] — a `Select`-over-`Call` comparison fused into a
//!   single predicate kernel: no boolean `Sequence` is materialized per
//!   row, constant operands are evaluated once, and the (value,
//!   atomic-type) promotion is resolved from the first row and reused
//!   while the batch stays type-homogeneous.
//!
//! Heterogeneous or non-atomic rows fall back to the existing scalar
//! helpers ([`general_pair`], [`value_compare`]) row by row, so dynamic
//! errors, NaN rules, empty-sequence rules, and promotion order are
//! preserved bit-for-bit. The lanes themselves mirror `value_compare`
//! exactly: promotion targets come from `comparable_types`, conversions
//! from `convert_operand`/`promote_numeric`, IEEE comparisons reproduce
//! the NaN branch (`Ne` is the only operator NaN satisfies), and a failed
//! untyped cast under a *general* comparison contributes no pair (the
//! documented `FORG0001`/`XPTY0004` swallow rule). `fs:value-*` kernels
//! never use a lane — their errors must surface per pair, in pair order.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xqr_core::algebra::{Op, Plan};
use xqr_core::fields::uses_input;
use xqr_core::fuse::{fusable_comparison, ComparisonSplit};
use xqr_types::convert::{comparable_types, convert_operand};
use xqr_types::promote_numeric;
use xqr_xml::{AtomicType, AtomicValue, XmlError};

use crate::compare::{atomize_optional, general_pair, value_compare, CmpOp};
use crate::context::Ctx;
use crate::eval::eval_dep_items;
use crate::joins::{joined, split_by_side};
use crate::profile::OpStats;
use crate::value::{InputVal, NullFlag, Table, Tuple};

/// Default number of tuples pulled per `next_batch` call. Budgets still
/// apply per tuple (the governor ticks inside the batch loop), so a batch
/// never outruns the configured limits.
pub(crate) const BATCH_SIZE: usize = 1024;

// ===== Fused operand chains ==================================================

/// An operand of a fusable comparison, pre-compiled once per cursor. The
/// normalizer wraps comparison operands in `fs:numeric-*` arithmetic with
/// one literal side (`5000 * exactly-one($i/text())`); that shape runs
/// without the per-row `Call` dispatch and `Sequence` round-trip.
pub(crate) enum FusedOperand<'p> {
    /// `Call[fs:numeric-*](Scalar, e)` or `(e, Scalar)`: evaluate `e` per
    /// tuple, then run the arithmetic directly on the atoms.
    NumericBinary {
        name: &'p str,
        konst: &'p AtomicValue,
        row: &'p Plan,
        const_is_left: bool,
    },
    /// Any other fusable chain: evaluated through the regular interpreter.
    Generic(&'p Plan),
}

impl<'p> FusedOperand<'p> {
    pub(crate) fn compile(p: &'p Plan) -> FusedOperand<'p> {
        if let Op::Call { name, args } = &p.op {
            let n = name.local_part();
            if args.len() == 2
                && matches!(
                    n,
                    "fs:numeric-add"
                        | "fs:numeric-subtract"
                        | "fs:numeric-multiply"
                        | "fs:numeric-divide"
                        | "fs:numeric-mod"
                )
            {
                if let Op::Scalar(v) = &args[0].op {
                    return FusedOperand::NumericBinary {
                        name: n,
                        konst: v,
                        row: &args[1],
                        const_is_left: true,
                    };
                }
                if let Op::Scalar(v) = &args[1].op {
                    return FusedOperand::NumericBinary {
                        name: n,
                        konst: v,
                        row: &args[0],
                        const_is_left: false,
                    };
                }
            }
        }
        FusedOperand::Generic(p)
    }

    /// The operand's atomized value for one tuple — same evaluation order
    /// and dynamic errors as the scalar `Call` path.
    pub(crate) fn eval_atoms(
        &self,
        ctx: &mut Ctx<'_>,
        input: &InputVal,
    ) -> xqr_xml::Result<Vec<AtomicValue>> {
        match self {
            FusedOperand::Generic(p) => Ok(eval_dep_items(p, ctx, input)?.atomized()),
            FusedOperand::NumericBinary {
                name,
                konst,
                row,
                const_is_left,
            } => {
                // Scalar order: both arguments evaluate (the literal is
                // free), then both atomize left-to-right, then the
                // arithmetic dispatches.
                let rv = eval_dep_items(row, ctx, input)?;
                let row_atom = atomize_optional(&rv)?;
                let (x, y) = if *const_is_left {
                    (Some((*konst).clone()), row_atom)
                } else {
                    (row_atom, Some((*konst).clone()))
                };
                match (x, y) {
                    (Some(x), Some(y)) => Ok(vec![crate::functions::arithmetic(name, &x, &y)?]),
                    _ => Ok(Vec::new()),
                }
            }
        }
    }
}

// ===== Shared comparison helpers =============================================

/// IEEE comparison at the promoted `f64` lane — reproduces
/// `value_compare`'s NaN branch exactly (`Ne` is the only operator a NaN
/// pair satisfies; `-0.0 == 0.0`).
#[inline]
fn f64_holds(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

#[inline]
fn i64_holds(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// The value `a` takes at numeric comparison target `target` (Table 2
/// conversion against an operand of type `other`, then numeric
/// promotion), as an `f64`. `None` when the conversion fails — under a
/// general comparison that pair can never match (the swallow rule), which
/// is the only context lanes are used in.
fn lane_f64(a: &AtomicValue, other: AtomicType, target: AtomicType) -> Option<f64> {
    let conv = convert_operand(a, other).ok()?;
    if conv.type_of() == target {
        conv.as_f64()
    } else {
        promote_numeric(&conv, target).ok()?.as_f64()
    }
}

/// Enforces the `fs:value-*` singleton rule on an already-atomized
/// operand — same error as [`atomize_optional`].
fn optional_atom(atoms: &[AtomicValue]) -> xqr_xml::Result<Option<&AtomicValue>> {
    match atoms.len() {
        0 => Ok(None),
        1 => Ok(Some(&atoms[0])),
        _ => Err(XmlError::new(
            "XPTY0004",
            "expected at most one atomic value",
        )),
    }
}

/// One predicate evaluation over pre-atomized operands, in predicate
/// argument order (`first op second`) — general existential semantics or
/// strict value semantics, exactly as `call_builtin` would produce.
fn pair_predicate(
    op: CmpOp,
    general: bool,
    first: &[AtomicValue],
    second: &[AtomicValue],
) -> xqr_xml::Result<bool> {
    if general {
        for a in first {
            for b in second {
                if general_pair(op, a, b)? {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    } else {
        match (optional_atom(first)?, optional_atom(second)?) {
            // Either side empty: the builtin returns the empty sequence,
            // whose effective boolean value is false.
            (Some(a), Some(b)) => value_compare(op, a, b),
            _ => Ok(false),
        }
    }
}

/// The single-atom type shared by every non-empty row, when one exists.
fn uniform_type(rows: &[Option<Vec<AtomicValue>>]) -> Option<AtomicType> {
    let mut t = None;
    for row in rows {
        let atoms = row.as_ref()?;
        match atoms.as_slice() {
            [] => {}
            [a] => match t {
                None => t = Some(a.type_of()),
                Some(seen) if seen == a.type_of() => {}
                Some(_) => return None,
            },
            _ => return None,
        }
    }
    t
}

// ===== Nested-loop join kernel ===============================================

/// Per-row cache and comparison lane for one [`NlJoinKernel`]. Interior
/// mutability because `JoinProbe::matches` takes `&self`.
struct JoinCache {
    /// Atomized inner-operand values, one per inner-table row, filled in
    /// row order (`rows[..filled]` are `Some`).
    rows: Vec<Option<Vec<AtomicValue>>>,
    filled: usize,
    /// `Some` once the cache is complete and uniformity has been checked.
    uniform: Option<Option<AtomicType>>,
    lane: Option<JoinLane>,
}

/// A monomorphic comparison lane, valid for probes whose (single) outer
/// atom has type `outer_type`.
struct JoinLane {
    outer_type: AtomicType,
    inner_type: AtomicType,
    target: AtomicType,
    vals: LaneVals,
}

enum LaneVals {
    /// Per inner row: the promoted f64, or `None` for an empty row / a
    /// failed untyped conversion (no pair can match — swallow rule).
    F64(Vec<Option<f64>>),
    /// Integer × Integer comparisons stay exact.
    I64(Vec<Option<i64>>),
}

/// A fused nested-loop join predicate: a fusable comparison `op(a, b)`
/// whose operands each read one join side, plus the per-open
/// inner-operand cache and comparison lane.
pub(crate) struct NlJoinKernel<'p> {
    op: CmpOp,
    general: bool,
    outer: FusedOperand<'p>,
    inner: FusedOperand<'p>,
    /// Predicate arguments were `(inner, outer)` — the inner operand is
    /// the *first* argument and evaluates first within each pair.
    swapped: bool,
    stats: Option<Rc<OpStats>>,
    cache: RefCell<JoinCache>,
}

impl<'p> NlJoinKernel<'p> {
    /// `Some` when the predicate has the fusable shape and
    /// [`split_by_side`] separates its operands.
    pub(crate) fn build(
        pred: &'p Plan,
        left_plan: &Plan,
        right_plan: &Plan,
        stats: Option<Rc<OpStats>>,
    ) -> Option<NlJoinKernel<'p>> {
        let ComparisonSplit {
            suffix,
            general,
            lhs,
            rhs,
            ..
        } = fusable_comparison(pred)?;
        let side = split_by_side(lhs, rhs, left_plan, right_plan)?;
        Some(NlJoinKernel {
            op: CmpOp::by_suffix(suffix)?,
            general,
            outer: FusedOperand::compile(side.outer),
            inner: FusedOperand::compile(side.inner),
            swapped: side.swapped,
            stats,
            cache: RefCell::new(JoinCache {
                rows: Vec::new(),
                filled: 0,
                uniform: None,
                lane: None,
            }),
        })
    }

    /// One predicate evaluation over the operands' atoms, in predicate
    /// argument order.
    fn holds(&self, outer: &[AtomicValue], inner: &[AtomicValue]) -> xqr_xml::Result<bool> {
        if self.swapped {
            pair_predicate(self.op, self.general, inner, outer)
        } else {
            pair_predicate(self.op, self.general, outer, inner)
        }
    }

    fn fill_row(
        &self,
        cache: &mut JoinCache,
        k: usize,
        right: &Table,
        ctx: &mut Ctx<'_>,
    ) -> xqr_xml::Result<()> {
        debug_assert_eq!(k, cache.filled, "inner rows fill in order");
        let input = InputVal::Tuple(right[k].clone());
        cache.rows[k] = Some(self.inner.eval_atoms(ctx, &input)?);
        cache.filled = k + 1;
        Ok(())
    }

    /// The joined tuples for one outer tuple, in inner order — the fused
    /// equivalent of the scalar `NestedLoop` probe loop.
    pub(crate) fn matches(
        &self,
        lt: &Tuple,
        right: &Table,
        flag: Option<&NullFlag>,
        ctx: &mut Ctx<'_>,
    ) -> xqr_xml::Result<Vec<Tuple>> {
        if right.is_empty() {
            // Zero pairs: the scalar loop evaluates nothing.
            return Ok(Vec::new());
        }
        let mut guard = self.cache.borrow_mut();
        let cache = &mut *guard;
        if cache.rows.is_empty() {
            cache.rows = (0..right.len()).map(|_| None).collect();
        }
        if let Some(s) = &self.stats {
            s.add_batches(1);
        }
        // Scalar pair order: the predicate's first argument evaluates
        // first. When the inner operand is the first argument, inner row
        // 0 must evaluate before the outer operand on the very first
        // probe.
        if self.swapped && cache.filled == 0 {
            self.fill_row(cache, 0, right, ctx)?;
        }
        let outer_atoms = self.outer.eval_atoms(ctx, &InputVal::Tuple(lt.clone()))?;

        let mut out = Vec::new();
        if cache.filled == right.len() && self.general && outer_atoms.is_empty() {
            // Existential semantics: an empty operand matches nothing, and
            // with the inner cache full no operand is left to evaluate.
            return Ok(out);
        }
        if cache.filled == right.len() && self.general && outer_atoms.len() == 1 {
            let tx = outer_atoms[0].type_of();
            if self.ensure_lane(cache, tx) {
                let lane = cache.lane.as_ref().expect("lane just ensured");
                self.run_lane(lane, &outer_atoms[0], (lt, right, flag), ctx, &mut out)?;
                if let Some(s) = &self.stats {
                    s.add_fused_rows(right.len() as u64);
                }
                return Ok(out);
            }
        }
        // Filling / generic path: still one operand evaluation per inner
        // row (memoized), per-pair comparison through the scalar helpers.
        for k in 0..right.len() {
            ctx.governor.tick()?;
            if k >= cache.filled {
                self.fill_row(cache, k, right, ctx)?;
            }
            let row = cache.rows[k].as_ref().expect("filled");
            if self.holds(&outer_atoms, row)? {
                out.push(joined(lt, &right[k], flag));
            }
        }
        if let Some(s) = &self.stats {
            s.add_fallback_rows(right.len() as u64);
        }
        Ok(out)
    }

    /// Builds (or reuses) the lane for outer type `tx`. Returns false when
    /// the batch does not specialize (mixed types, non-numeric target).
    fn ensure_lane(&self, cache: &mut JoinCache, tx: AtomicType) -> bool {
        if let Some(lane) = &cache.lane {
            if lane.outer_type == tx {
                return true;
            }
        }
        let uniform = *cache
            .uniform
            .get_or_insert_with(|| uniform_type(&cache.rows));
        let Some(tin) = uniform else { return false };
        let Some(target) = comparable_types(tx, tin) else {
            return false;
        };
        let vals = match target {
            AtomicType::Double | AtomicType::Float => LaneVals::F64(
                cache
                    .rows
                    .iter()
                    .map(|r| {
                        let atoms = r.as_ref().expect("cache complete");
                        atoms.first().and_then(|a| lane_f64(a, tx, target))
                    })
                    .collect(),
            ),
            AtomicType::Integer => LaneVals::I64(
                cache
                    .rows
                    .iter()
                    .map(|r| {
                        let atoms = r.as_ref().expect("cache complete");
                        atoms.first().and_then(|a| match a {
                            AtomicValue::Integer(i) => Some(*i),
                            _ => None,
                        })
                    })
                    .collect(),
            ),
            _ => return false,
        };
        cache.lane = Some(JoinLane {
            outer_type: tx,
            inner_type: tin,
            target,
            vals,
        });
        true
    }

    fn run_lane(
        &self,
        lane: &JoinLane,
        outer: &AtomicValue,
        (lt, right, flag): (&Tuple, &Table, Option<&NullFlag>),
        ctx: &mut Ctx<'_>,
        out: &mut Vec<Tuple>,
    ) -> xqr_xml::Result<()> {
        match &lane.vals {
            LaneVals::F64(vals) => {
                let fx = lane_f64(outer, lane.inner_type, lane.target);
                for (k, fy) in vals.iter().enumerate() {
                    ctx.governor.tick()?;
                    if let (Some(fx), Some(fy)) = (fx, *fy) {
                        let (a, b) = if self.swapped { (fy, fx) } else { (fx, fy) };
                        if f64_holds(self.op, a, b) {
                            out.push(joined(lt, &right[k], flag));
                        }
                    }
                }
            }
            LaneVals::I64(vals) => {
                let ix = match outer {
                    AtomicValue::Integer(i) => Some(*i),
                    _ => None,
                };
                for (k, iy) in vals.iter().enumerate() {
                    ctx.governor.tick()?;
                    if let (Some(ix), Some(iy)) = (ix, *iy) {
                        let (a, b) = if self.swapped { (iy, ix) } else { (ix, iy) };
                        if i64_holds(self.op, a, b) {
                            out.push(joined(lt, &right[k], flag));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

// ===== Select predicate kernel ===============================================

/// The typed comparison resolved from a batch's first row — reused while
/// rows keep the same (lhs type, rhs type) shape.
#[derive(Clone, Copy)]
struct TypedCmp {
    tx: AtomicType,
    ty: AtomicType,
    kind: CmpKind,
}

#[derive(Clone, Copy)]
enum CmpKind {
    F64 { target: AtomicType },
    I64,
    Generic,
}

#[derive(Default)]
struct ConstCache {
    /// Constant operands (no tuple fields), evaluated once at their
    /// correct position in the first row's argument order.
    lhs: Option<Vec<AtomicValue>>,
    rhs: Option<Vec<AtomicValue>>,
}

/// A fused `Select{Call[fs:general-*|fs:value-*]}` predicate: evaluates
/// the operand chains directly and compares without materializing a
/// boolean sequence per row.
pub(crate) struct SelectKernel<'p> {
    op: CmpOp,
    general: bool,
    lhs: FusedOperand<'p>,
    rhs: FusedOperand<'p>,
    lhs_const: bool,
    rhs_const: bool,
    stats: Option<Rc<OpStats>>,
    consts: RefCell<ConstCache>,
    cmp: Cell<Option<TypedCmp>>,
}

impl<'p> SelectKernel<'p> {
    pub(crate) fn build(pred: &'p Plan, stats: Option<Rc<OpStats>>) -> Option<SelectKernel<'p>> {
        let ComparisonSplit {
            suffix,
            general,
            lhs,
            rhs,
            ..
        } = fusable_comparison(pred)?;
        let op = CmpOp::by_suffix(suffix)?;
        Some(SelectKernel {
            op,
            general,
            lhs_const: !uses_input(lhs),
            rhs_const: !uses_input(rhs),
            lhs: FusedOperand::compile(lhs),
            rhs: FusedOperand::compile(rhs),
            stats,
            consts: RefCell::new(ConstCache::default()),
            cmp: Cell::new(None),
        })
    }

    pub(crate) fn note_batch(&self) {
        if let Some(s) = &self.stats {
            s.add_batches(1);
        }
    }

    /// Does the predicate hold for this tuple? Exactly the effective
    /// boolean value the scalar `Call` would produce, including its
    /// dynamic errors in argument order. Takes the tuple by value and
    /// hands it back (no clone on the per-row path).
    pub(crate) fn matches(&self, t: Tuple, ctx: &mut Ctx<'_>) -> (Tuple, xqr_xml::Result<bool>) {
        let input = InputVal::Tuple(t);
        let r = self.matches_inner(ctx, &input);
        let InputVal::Tuple(t) = input else {
            unreachable!()
        };
        (t, r)
    }

    fn matches_inner(&self, ctx: &mut Ctx<'_>, input: &InputVal) -> xqr_xml::Result<bool> {
        let mut consts = self.consts.borrow_mut();
        let consts = &mut *consts;
        // Argument order: lhs evaluates before rhs, always; a constant
        // operand evaluates once, at its position in the first row.
        let row_l;
        let la: &[AtomicValue] = if self.lhs_const {
            if consts.lhs.is_none() {
                consts.lhs = Some(self.lhs.eval_atoms(ctx, input)?);
            }
            consts.lhs.as_deref().expect("just filled")
        } else {
            row_l = self.lhs.eval_atoms(ctx, input)?;
            &row_l
        };
        let row_r;
        let ra: &[AtomicValue] = if self.rhs_const {
            if consts.rhs.is_none() {
                consts.rhs = Some(self.rhs.eval_atoms(ctx, input)?);
            }
            consts.rhs.as_deref().expect("just filled")
        } else {
            row_r = self.rhs.eval_atoms(ctx, input)?;
            &row_r
        };
        // Resolve the typed comparison from the first single-atom row;
        // rows that keep the same type pair run the monomorphic kernel.
        if let ([a], [b]) = (la, ra) {
            let (tx, ty) = (a.type_of(), b.type_of());
            let cmp = match self.cmp.get() {
                Some(c) if c.tx == tx && c.ty == ty => c,
                _ => {
                    let c = TypedCmp {
                        tx,
                        ty,
                        kind: resolve_kind(self.general, tx, ty),
                    };
                    self.cmp.set(Some(c));
                    c
                }
            };
            match cmp.kind {
                CmpKind::F64 { target } => {
                    if let Some(s) = &self.stats {
                        s.add_fused_rows(1);
                    }
                    let fa = lane_f64(a, ty, target);
                    let fb = lane_f64(b, tx, target);
                    return Ok(match (fa, fb) {
                        (Some(fa), Some(fb)) => f64_holds(self.op, fa, fb),
                        // A failed untyped conversion under a general
                        // comparison: the pair contributes nothing.
                        _ => false,
                    });
                }
                CmpKind::I64 => {
                    if let (AtomicValue::Integer(x), AtomicValue::Integer(y)) = (a, b) {
                        if let Some(s) = &self.stats {
                            s.add_fused_rows(1);
                        }
                        return Ok(i64_holds(self.op, *x, *y));
                    }
                }
                CmpKind::Generic => {}
            }
        }
        if let Some(s) = &self.stats {
            s.add_fallback_rows(1);
        }
        pair_predicate(self.op, self.general, la, ra)
    }
}

/// Picks the monomorphic kernel for a (lhs, rhs) type pair. Lanes are
/// general-comparison only: a failed conversion must *swallow* for the
/// `None` shortcut to be semantics-preserving; `fs:value-*` errors have
/// to surface, so they stay on the generic per-row path.
fn resolve_kind(general: bool, tx: AtomicType, ty: AtomicType) -> CmpKind {
    if !general {
        return CmpKind::Generic;
    }
    match comparable_types(tx, ty) {
        Some(AtomicType::Double) | Some(AtomicType::Float) => CmpKind::F64 {
            target: comparable_types(tx, ty).expect("just matched"),
        },
        Some(AtomicType::Integer) => CmpKind::I64,
        _ => CmpKind::Generic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_lane_reproduces_nan_and_zero_rules() {
        let nan = f64::NAN;
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert!(!f64_holds(op, nan, 1.0), "{op:?}");
            assert!(!f64_holds(op, 1.0, nan), "{op:?}");
            assert!(!f64_holds(op, nan, nan), "{op:?}");
        }
        assert!(f64_holds(CmpOp::Ne, nan, 1.0));
        assert!(f64_holds(CmpOp::Ne, nan, nan));
        assert!(f64_holds(CmpOp::Eq, -0.0, 0.0));
        assert!(!f64_holds(CmpOp::Lt, -0.0, 0.0));
    }

    #[test]
    fn lane_conversion_matches_value_compare() {
        use AtomicType as T;
        // Untyped vs numeric promotes through xs:double (Table 2).
        let u = AtomicValue::untyped("42.5");
        assert_eq!(lane_f64(&u, T::Integer, T::Double), Some(42.5));
        // Unparseable untyped: no lane value — the pair never matches,
        // exactly as the swallowed FORG0001 would behave.
        assert_eq!(
            lane_f64(&AtomicValue::untyped("x"), T::Integer, T::Double),
            None
        );
        // Typed numerics promote with the scalar path's exact casts.
        assert_eq!(
            lane_f64(&AtomicValue::Integer(7), T::Double, T::Double),
            Some(7.0)
        );
        assert_eq!(
            lane_f64(&AtomicValue::Float(1.5), T::Double, T::Double),
            Some(1.5)
        );
    }

    #[test]
    fn uniformity_ignores_empty_rows() {
        use AtomicValue as V;
        let rows = vec![
            Some(vec![V::Double(1.0)]),
            Some(vec![]),
            Some(vec![V::Double(2.0)]),
        ];
        assert_eq!(uniform_type(&rows), Some(AtomicType::Double));
        let mixed = vec![Some(vec![V::Double(1.0)]), Some(vec![V::Integer(2)])];
        assert_eq!(uniform_type(&mixed), None);
        let multi = vec![Some(vec![V::Double(1.0), V::Double(2.0)])];
        assert_eq!(uniform_type(&multi), None);
    }

    #[test]
    fn numeric_binary_compiles_from_literal_side() {
        let p = Plan::call(
            "fs:numeric-multiply",
            vec![
                Plan::scalar(AtomicValue::Integer(5000)),
                Plan::call("exactly-one", vec![Plan::in_field("i")]),
            ],
        );
        match FusedOperand::compile(&p) {
            FusedOperand::NumericBinary {
                name,
                konst,
                const_is_left,
                ..
            } => {
                assert_eq!(name, "fs:numeric-multiply");
                assert_eq!(*konst, AtomicValue::Integer(5000));
                assert!(const_is_left);
            }
            _ => panic!("expected a fused numeric binary"),
        }
        // No literal side: stays generic.
        let g = Plan::call(
            "fs:numeric-add",
            vec![Plan::in_field("a"), Plan::in_field("b")],
        );
        assert!(matches!(
            FusedOperand::compile(&g),
            FusedOperand::Generic(_)
        ));
    }

    #[test]
    fn value_kernels_never_take_a_lane() {
        assert!(matches!(
            resolve_kind(false, AtomicType::Double, AtomicType::Double),
            CmpKind::Generic
        ));
        assert!(matches!(
            resolve_kind(true, AtomicType::Double, AtomicType::Double),
            CmpKind::F64 { .. }
        ));
        assert!(matches!(
            resolve_kind(true, AtomicType::Integer, AtomicType::Integer),
            CmpKind::I64
        ));
        assert!(matches!(
            resolve_kind(true, AtomicType::String, AtomicType::String),
            CmpKind::Generic
        ));
    }
}
