//! The XQuery join algorithms of Section 6.
//!
//! Three physical implementations of `Join`/`LOuterJoin`, all
//! **order-preserving** (output follows the left/outer input's order; for
//! a given outer tuple, matches follow the inner input's order — recovered
//! via the sequence-order counter stored with each hash entry, Fig. 6):
//!
//! * **nested loop** — evaluates the full predicate per tuple pair;
//! * **hash join** — Fig. 6's `materialize` / `allMatches` /
//!   `equalityJoin`: the inner input is materialized into a hash table
//!   keyed on `(value, type)` pairs produced by `promoteToSimpleTypes`, so
//!   each side is independent of the other's *values*; the original types
//!   are checked against Table 2 (`fs:convert-operand`) at probe time, and
//!   per-probe matches are sorted by inner order and de-duplicated to
//!   preserve the existential semantics of the predicate;
//! * **sort (B-tree index) join** — the same structure over an ordered map
//!   (the paper's "variants of standard index-hash and B-tree index
//!   joins").
//!
//! Predicate analysis splits a conjunction (nested `Cond{…}(…)` chains
//! produced by normalizing `and`) into one hashable `fs:general-eq`
//! equality whose sides depend on disjoint inputs ([`split_by_side`], which
//! needs only the inner side's fields), plus residual conjuncts checked per
//! index candidate — from memoized operands when the conjunct is itself a
//! side-separable comparison, on the joined tuple otherwise.
//!
//! A join is two halves: a [`JoinProbe`] (the analysis, borrowed from the
//! plan, redone per open) and a [`JoinBuild`] (the materialized inner
//! side). A loop-invariant inner side is built by the join's first open
//! and shared by the rest, so a correlated join in a per-partition plan
//! costs one build per run rather than one per partition.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use xqr_core::algebra::{Op, Plan};
use xqr_core::fields::{output_fields, passes_whole_input, used_input_fields};
use xqr_core::fuse::uses_input;
use xqr_types::convert::{comparable_types, promote_to_simple_types};
use xqr_xml::{AtomicType, AtomicValue};

use crate::batch::SidedComparison;
use crate::compare::effective_boolean_value;
use crate::context::{Ctx, JoinAlgorithm};
use crate::eval::eval_dep_items;
use crate::profile::OpStats;
use crate::value::{InputVal, Table, Tuple};

/// How one join open probes its inner side: the plan-borrowing half of a
/// join (the materialized half is [`JoinBuild`]). `pipeline::JoinCursor`
/// streams the outer input through `matches` one tuple at a time — the
/// inner table is the only materialization point.
pub(crate) enum JoinProbe<'p> {
    /// Full-predicate nested loop (also the fallback when the predicate
    /// has no separable equality). When the predicate is a fusable
    /// comparison whose operands separate by side,
    /// `kernel` memoizes the inner operand per inner row and compares
    /// through a type-specialized lane instead of re-evaluating the
    /// predicate per pair.
    NestedLoop {
        pred: &'p Plan,
        kernel: Option<crate::batch::NlJoinKernel<'p>>,
    },
    /// Fig. 6 hash/B-tree index over the inner side's key values; the
    /// other conjuncts run per candidate.
    Indexed {
        split: SplitPredicate<'p>,
        residual: Vec<Residual<'p>>,
    },
}

/// A non-key conjunct of an indexed join, checked per index candidate.
pub(crate) enum Residual<'p> {
    /// A fusable comparison whose operands separate by side: the outer
    /// operand evaluates once per outer tuple and the inner operand once
    /// per inner row (memoized in the [`JoinBuild`]), both lazily at the
    /// first candidate that reaches this conjunct — where the per-pair
    /// evaluation would have evaluated them first, so the same dynamic
    /// error surfaces at the same point. Counters land on the conjunct's
    /// plan node: `batches` outer tuples, `fallback` candidates compared.
    Memoized(SidedComparison<'p>, Option<Rc<OpStats>>),
    /// Anything else: evaluated on the joined tuple.
    PerPair(&'p Plan),
}

/// The materialized inner side of a join: the table, for an indexed join
/// the Fig. 6 index over it, and the memoized residuals' inner operands.
/// Built per open — or once per run, shared by `Rc` through
/// [`Ctx::shared_join_build`], when the inner side is loop-invariant.
pub(crate) struct JoinBuild {
    pub(crate) right: Table,
    index: Option<KeyIndex>,
    /// Per residual conjunct (empty for a `PerPair` one), the inner
    /// operand's atoms per inner row, filled on first use.
    memo: Vec<RefCell<Vec<Option<Vec<AtomicValue>>>>>,
    /// The index's and the memoized operands' live-byte accounting:
    /// releases back to the governor when the build drops.
    charge: RefCell<xqr_xml::ByteCharge>,
}

impl<'p> JoinProbe<'p> {
    /// Picks the physical join for one open. `shared_build` says whether
    /// the build will be kept for later opens (see [`analyze_predicate`]);
    /// `stats_for` finds a conjunct's profile counters, if any are kept.
    pub(crate) fn plan(
        pred: &'p Plan,
        left_plan: &'p Plan,
        right_plan: &'p Plan,
        shared_build: bool,
        algo: JoinAlgorithm,
        stats_for: &dyn Fn(&Plan) -> Option<Rc<OpStats>>,
    ) -> JoinProbe<'p> {
        let split = match algo {
            JoinAlgorithm::NestedLoop => None,
            _ => analyze_predicate(pred, left_plan, right_plan, shared_build),
        };
        match split {
            Some(split) => {
                let residual = split
                    .residual
                    .iter()
                    .map(
                        |&c| match SidedComparison::build(c, left_plan, right_plan) {
                            Some(cmp) => Residual::Memoized(cmp, stats_for(c)),
                            None => Residual::PerPair(c),
                        },
                    )
                    .collect();
                JoinProbe::Indexed { split, residual }
            }
            // The kernel's counters land on the predicate's own plan node,
            // so `EXPLAIN ANALYZE` shows batches/fused/fallback on the
            // `Call` line.
            None => JoinProbe::NestedLoop {
                pred,
                kernel: crate::batch::NlJoinKernel::build(
                    pred,
                    left_plan,
                    right_plan,
                    stats_for(pred),
                ),
            },
        }
    }

    /// Materializes this probe's half of the join over the inner table.
    pub(crate) fn build(&self, right: Table, ctx: &mut Ctx<'_>) -> xqr_xml::Result<JoinBuild> {
        let mut charge = xqr_xml::ByteCharge::new(&ctx.governor);
        let (index, memo) = match self {
            JoinProbe::NestedLoop { .. } => (None, Vec::new()),
            JoinProbe::Indexed { split, residual } => (
                Some(materialize(&right, split, ctx, &mut charge)?),
                residual
                    .iter()
                    .map(|r| match r {
                        Residual::Memoized(..) => RefCell::new(vec![None; right.len()]),
                        Residual::PerPair(_) => RefCell::default(),
                    })
                    .collect(),
            ),
        };
        Ok(JoinBuild {
            right,
            index,
            memo,
            charge: RefCell::new(charge),
        })
    }

    /// The joined output tuples for one outer tuple, in inner order; empty
    /// means unmatched (the caller decides between dropping the tuple and
    /// outer-join null flagging).
    pub(crate) fn matches(
        &self,
        lt: &Tuple,
        build: &JoinBuild,
        ctx: &mut Ctx<'_>,
    ) -> xqr_xml::Result<Vec<Tuple>> {
        let right = &build.right;
        let mut out = Vec::new();
        match self {
            JoinProbe::NestedLoop { pred, kernel } => {
                if let Some(k) = kernel {
                    return k.matches(lt, right, ctx);
                }
                // A constant-true predicate (cross products from unnesting)
                // skips per-pair evaluation entirely.
                if matches!(&pred.op, Op::Scalar(AtomicValue::Boolean(true))) {
                    // Bulk-charge the cross product before building it.
                    ctx.governor.charge_tuples(right.len() as u64)?;
                    out.reserve(right.len());
                    for rt in right {
                        out.push(lt.concat(rt));
                    }
                    return Ok(out);
                }
                for rt in right {
                    ctx.governor.tick()?;
                    // Move the joined tuple into the binding and back out:
                    // no per-pair clone.
                    let input = InputVal::Tuple(lt.concat(rt));
                    let v = eval_dep_items(pred, ctx, &input)?;
                    let InputVal::Tuple(joined) = input else {
                        unreachable!()
                    };
                    if effective_boolean_value(&v)? {
                        out.push(joined);
                    }
                }
            }
            JoinProbe::Indexed { split, residual } => {
                let index = build
                    .index
                    .as_ref()
                    .expect("indexed probe over its own build");
                let ms = all_matches(index, lt, split.left_key, ctx, split.specialized)?;
                // Each memoized conjunct's outer operand, once per outer tuple.
                let mut outer: Vec<Option<Vec<AtomicValue>>> = vec![None; residual.len()];
                'candidates: for idx in ms {
                    // Concatenated only when a per-pair conjunct needs it
                    // or the candidate survives.
                    let mut joined = None;
                    for (i, r) in residual.iter().enumerate() {
                        let keep = match r {
                            Residual::Memoized(cmp, stats) => {
                                if let Some(s) = stats {
                                    s.add_batches(outer[i].is_none() as u64);
                                    s.add_fallback_rows(1);
                                }
                                let mut rows = build.memo[i].borrow_mut();
                                let fills = rows[idx].is_none() && ctx.governor.has_byte_budget();
                                let keep = memoized_holds(
                                    cmp,
                                    (lt, &mut outer[i]),
                                    (&right[idx], &mut rows[idx]),
                                    ctx,
                                )?;
                                if fills {
                                    // The memoized operand lives as long as
                                    // the index: same flat per-item rate.
                                    let atoms = rows[idx].as_ref().map_or(0, Vec::len) as u64;
                                    build.charge.borrow_mut().add(24 + 24 * atoms)?;
                                }
                                keep
                            }
                            Residual::PerPair(p) => {
                                let input = joined
                                    .get_or_insert_with(|| InputVal::Tuple(lt.concat(&right[idx])));
                                effective_boolean_value(&eval_dep_items(p, ctx, input)?)?
                            }
                        };
                        if !keep {
                            continue 'candidates;
                        }
                    }
                    out.push(match joined {
                        Some(InputVal::Tuple(t)) => t,
                        _ => lt.concat(&right[idx]),
                    });
                }
            }
        }
        Ok(out)
    }
}

/// One memoized residual comparison for one candidate pair: `outer` and
/// `inner` are the operands' slots for this outer tuple and this inner
/// row, filled on first use in predicate argument order, as the `Call`
/// would evaluate them.
fn memoized_holds(
    cmp: &SidedComparison<'_>,
    (lt, outer): (&Tuple, &mut Option<Vec<AtomicValue>>),
    (rt, inner): (&Tuple, &mut Option<Vec<AtomicValue>>),
    ctx: &mut Ctx<'_>,
) -> xqr_xml::Result<bool> {
    let mut fill = |operand: &crate::batch::FusedOperand<'_>,
                    t: &Tuple,
                    slot: &mut Option<Vec<AtomicValue>>|
     -> xqr_xml::Result<()> {
        if slot.is_none() {
            *slot = Some(operand.eval_atoms(ctx, &InputVal::Tuple(t.clone()))?);
        }
        Ok(())
    };
    if cmp.swapped {
        fill(&cmp.inner, rt, inner)?;
    }
    fill(&cmp.outer, lt, outer)?;
    fill(&cmp.inner, rt, inner)?;
    cmp.holds(
        outer.as_deref().expect("just filled"),
        inner.as_deref().expect("just filled"),
    )
}

/// Which operand of a two-operand predicate reads which side of a join.
pub(crate) struct SideSplit<'p> {
    pub(crate) outer: &'p Plan,
    pub(crate) inner: &'p Plan,
    /// Predicate arguments were `(inner, outer)`.
    pub(crate) swapped: bool,
    /// The probe side's fields are unknown — it is `IN`-rooted, the one
    /// tuple of an enclosing dependent plan — so the split rests on the
    /// inner side's fields alone.
    pub(crate) in_rooted: bool,
}

/// The one "which operand reads which side" test. The joined tuple is
/// `outer ++ inner` with the inner side shadowing, so an operand is
/// *inner* when it reads only inner fields, and *outer* when it reads no
/// inner field — checked as containment in the left plan's fields when
/// those are known, as disjointness from the right plan's when the left
/// is `IN`-rooted. The right plan's fields must be known either way, and
/// an operand that hands the whole tuple to a sub-plan reads both sides.
pub(crate) fn split_by_side<'p>(
    lhs: &'p Plan,
    rhs: &'p Plan,
    left_plan: &Plan,
    right_plan: &Plan,
) -> Option<SideSplit<'p>> {
    if passes_whole_input(lhs) || passes_whole_input(rhs) {
        return None;
    }
    let right = output_fields(right_plan)?;
    let left = output_fields(left_plan);
    let (a, b) = (used_input_fields(lhs), used_input_fields(rhs));
    let outer = |u: &std::collections::BTreeSet<_>| {
        u.is_disjoint(&right) && left.as_ref().is_none_or(|l| u.is_subset(l))
    };
    let (outer, inner, swapped) = if outer(&a) && b.is_subset(&right) {
        (lhs, rhs, false)
    } else if outer(&b) && a.is_subset(&right) {
        (rhs, lhs, true)
    } else {
        return None;
    };
    Some(SideSplit {
        outer,
        inner,
        swapped,
        in_rooted: left.is_none(),
    })
}

/// One hashable equality plus residual conjuncts.
pub struct SplitPredicate<'p> {
    pub left_key: &'p Plan,
    pub right_key: &'p Plan,
    pub residual: Vec<&'p Plan>,
    /// When static analysis proves both key expressions produce the same
    /// comparable type, keys are stored/probed at that single type instead
    /// of enumerating every promotion — the specialization the paper
    /// suggests ("if we can infer statically that both operands are
    /// integers, we can build a key directly on the integer value").
    pub specialized: Option<AtomicType>,
}

/// Conservative static type inference for join-key expressions.
pub fn static_key_type(p: &Plan) -> Option<AtomicType> {
    match &p.op {
        Op::Scalar(v) => Some(v.type_of()),
        Op::Cast { ty, .. } => Some(*ty),
        Op::Call { name, args } => match name.local_part() {
            "count" | "string-length" | "op:to" => Some(AtomicType::Integer),
            "string" | "concat" | "string-join" | "substring" | "upper-case" | "lower-case"
            | "normalize-space" | "translate" | "fs:avt" => Some(AtomicType::String),
            "number" => Some(AtomicType::Double),
            "fs:numeric-add" | "fs:numeric-subtract" | "fs:numeric-multiply" => {
                let a = static_key_type(args.first()?)?;
                let b = static_key_type(args.get(1)?)?;
                xqr_types::widest_numeric(a, b)
            }
            _ => None,
        },
        _ => None,
    }
}

/// The single comparison type when both static key types are known and
/// comparable without the untyped rules.
fn specialized_type(l: &Plan, r: &Plan) -> Option<AtomicType> {
    let lt = static_key_type(l)?;
    let rt = static_key_type(r)?;
    if lt == AtomicType::UntypedAtomic || rt == AtomicType::UntypedAtomic {
        return None;
    }
    comparable_types(lt, rt)
}

/// Flattens the `Cond{then}(cond)` conjunction chains that `and` lowers to.
fn conjuncts<'p>(pred: &'p Plan, out: &mut Vec<&'p Plan>) {
    if let Op::Cond { cond, then, els } = &pred.op {
        if matches!(&els.op, Op::Scalar(AtomicValue::Boolean(false))) {
            conjuncts(cond, out);
            conjuncts(then, out);
            return;
        }
    }
    out.push(pred);
}

/// Finds an equality conjunct whose operands read disjoint input sides.
///
/// An `IN`-rooted probe side delivers one outer tuple per open, and one
/// probe never amortizes an index build (XMark Q9: 257 builds of 95 rows
/// cost more than the 24 415 predicate calls they replace) — such a join
/// is indexed only when `shared_build` says the build outlives the open.
pub fn analyze_predicate<'p>(
    pred: &'p Plan,
    left_plan: &Plan,
    right_plan: &Plan,
    shared_build: bool,
) -> Option<SplitPredicate<'p>> {
    let mut cs = Vec::new();
    conjuncts(pred, &mut cs);
    let (idx, side) = cs.iter().enumerate().find_map(|(i, c)| {
        let Op::Call { name, args } = &c.op else {
            return None;
        };
        if name.local_part() != "fs:general-eq" || args.len() != 2 {
            return None;
        }
        let side = split_by_side(&args[0], &args[1], left_plan, right_plan)?;
        // A constant operand is no key.
        (uses_input(side.outer) && uses_input(side.inner)).then_some((i, side))
    })?;
    if side.in_rooted && !shared_build {
        return None;
    }
    cs.remove(idx);
    Some(SplitPredicate {
        left_key: side.outer,
        right_key: side.inner,
        residual: cs,
        specialized: specialized_type(side.outer, side.inner),
    })
}

/// Is this join's inner side the same table on every open of one run? The
/// paper's own Fig. 5 side condition — the plan is independent of `IN` —
/// which leaves globals and documents, both fixed for the run. (Function
/// parameters are not: [`Ctx::shared_join_build`] refuses inside a call.)
/// Same *values* is not enough: an inner side that constructs nodes hands
/// out fresh identities per evaluation (`$r | $r`, `is`), so it is built
/// per open like a variant one.
pub(crate) fn inner_side_invariant(right_plan: &Plan) -> bool {
    !xqr_core::fields::uses_input(right_plan) && !constructs_nodes(right_plan)
}

/// Can evaluating this plan create nodes? The constructors, `Validate`
/// (which returns annotated *copies*), and any user function (its body is
/// not inspected). Builtins return atoms or nodes that already exist.
fn constructs_nodes(p: &Plan) -> bool {
    match &p.op {
        Op::Element { .. }
        | Op::Attribute { .. }
        | Op::Text(_)
        | Op::Comment(_)
        | Op::Pi { .. }
        | Op::DocumentNode(_)
        | Op::Validate { .. } => true,
        Op::Call { name, .. } if !crate::functions::is_builtin(name.local_part()) => true,
        op => op.children().iter().any(|(c, _)| constructs_nodes(c)),
    }
}

/// The `explain()` note for one join: the [`JoinProbe`] its opens will
/// plan, and how often the inner side is built. `dependent` says the join
/// sits in a dependent plan — an `IN` is in scope, so it can open more
/// than once and `open_join` keeps an invariant build. Static: inside a
/// function call, past the spill watermark or under a strict byte budget
/// every open builds.
pub(crate) fn describe(
    pred: &Plan,
    left_plan: &Plan,
    right_plan: &Plan,
    algo: JoinAlgorithm,
    dependent: bool,
) -> String {
    let shared = dependent && inner_side_invariant(right_plan);
    let how = match JoinProbe::plan(pred, left_plan, right_plan, shared, algo, &|_| None) {
        JoinProbe::Indexed { split, residual } => {
            let memoized = residual
                .iter()
                .filter(|r| matches!(r, Residual::Memoized(..)))
                .count();
            format!(
                "index key: {} = {}; residual: {} (memoized {memoized})",
                xqr_core::pretty::compact(split.left_key),
                xqr_core::pretty::compact(split.right_key),
                residual.len(),
            )
        }
        JoinProbe::NestedLoop { kernel, .. } => {
            let why = match algo {
                JoinAlgorithm::NestedLoop => "nested-loop mode",
                _ => "no separable equality",
            };
            let kernel = match kernel {
                Some(_) => "; batched comparison kernel",
                None => "",
            };
            format!("nested loop ({why}){kernel}")
        }
    };
    let inner = if shared { "once per run" } else { "per open" };
    format!("{how}; inner side: {inner}")
}

// ===== Fig. 6: typed, order-preserving hash join ============================

/// A canonical, hashable, orderable join-key value. The `(value, type)`
/// pairs of Fig. 6 become `(AtomicType, KeyVal)` — two values collide only
/// when they are equal *at that type*.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub(crate) enum KeyVal {
    Bool(bool),
    Int(i64),
    Dec(i128),
    /// IEEE bits with -0.0 normalized; NaN keys are skipped entirely.
    Bits(u64),
    Str(String),
    Millis(i64),
    Months(i64, i64),
    Greg(i64),
    Bytes(Vec<u8>),
    Name(String),
}

pub(crate) fn key_of(v: &AtomicValue) -> Option<(AtomicType, KeyVal)> {
    use AtomicValue as V;
    let kv = match v {
        V::Boolean(b) => KeyVal::Bool(*b),
        V::Integer(i) => KeyVal::Int(*i),
        V::Decimal(d) => KeyVal::Dec(d.units()),
        V::Double(d) => {
            if d.is_nan() {
                return None;
            }
            KeyVal::Bits(if *d == 0.0 {
                0.0f64.to_bits()
            } else {
                d.to_bits()
            })
        }
        V::Float(f) => {
            if f.is_nan() {
                return None;
            }
            let d = *f as f64;
            KeyVal::Bits(if d == 0.0 {
                0.0f64.to_bits()
            } else {
                d.to_bits()
            })
        }
        V::String(s) | V::UntypedAtomic(s) | V::AnyUri(s) => KeyVal::Str(s.to_string()),
        V::Date(d) => KeyVal::Millis(d.epoch_millis()),
        V::Time(t) => KeyVal::Millis(t.normalized_millis()),
        V::DateTime(dt) => KeyVal::Millis(dt.epoch_millis()),
        V::Duration(d) => KeyVal::Months(d.months, d.millis),
        V::GYear(y) => KeyVal::Greg(*y as i64),
        V::GYearMonth(y, m) => KeyVal::Greg(*y as i64 * 16 + *m as i64),
        V::GMonth(m) => KeyVal::Greg(*m as i64),
        V::GMonthDay(m, d) => KeyVal::Greg(*m as i64 * 64 + *d as i64),
        V::GDay(d) => KeyVal::Greg(*d as i64),
        V::HexBinary(b) | V::Base64Binary(b) => KeyVal::Bytes(b.to_vec()),
        V::QName(q) => KeyVal::Name(q.to_string()),
    };
    Some((v.type_of(), kv))
}

/// One hash-table entry: the original (pre-conversion) value and type, the
/// inner tuple's index/sequence order (Fig. 6 stores "the original value
/// and type …, the corresponding tuple value, and the ordinal position").
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub(crate) orig_value: AtomicValue,
    pub(crate) orig_type: AtomicType,
    pub(crate) tuple_idx: usize,
}

/// The two index structures share this small interface.
pub(crate) enum KeyIndex {
    Hash(HashMap<(AtomicType, KeyVal), Vec<Entry>>),
    BTree(BTreeMap<(AtomicType, KeyVal), Vec<Entry>>),
}

impl KeyIndex {
    pub(crate) fn new(algo: JoinAlgorithm) -> KeyIndex {
        match algo {
            JoinAlgorithm::Sort => KeyIndex::BTree(BTreeMap::new()),
            _ => KeyIndex::Hash(HashMap::new()),
        }
    }

    pub(crate) fn put(&mut self, key: (AtomicType, KeyVal), e: Entry) {
        match self {
            KeyIndex::Hash(m) => m.entry(key).or_default().push(e),
            KeyIndex::BTree(m) => m.entry(key).or_default().push(e),
        }
    }

    fn get(&self, key: &(AtomicType, KeyVal)) -> &[Entry] {
        match self {
            KeyIndex::Hash(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
            KeyIndex::BTree(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
        }
    }
}

/// Fig. 6 `materialize`: builds the `(value, type)`-keyed index over the
/// inner input, charging its footprint to `charge`.
fn materialize(
    inner: &Table,
    split: &SplitPredicate<'_>,
    ctx: &mut Ctx<'_>,
    charge: &mut xqr_xml::ByteCharge,
) -> xqr_xml::Result<KeyIndex> {
    let mut index = KeyIndex::new(ctx.join_algorithm);
    for (tuple_idx, tup) in inner.iter().enumerate() {
        ctx.governor.tick()?;
        xqr_xml::failpoint::check("join::build_charge")?;
        if ctx.governor.has_byte_budget() {
            // The index retains roughly one entry per key value per tuple;
            // the charge releases when the build drops.
            charge.add(tup.approx_bytes())?;
        }
        let key_vals =
            eval_dep_items(split.right_key, ctx, &InputVal::Tuple(tup.clone()))?.atomized();
        for key in key_vals {
            for promoted in promoted_keys(&key, split.specialized) {
                if let Some(k) = key_of(&promoted) {
                    index.put(
                        k,
                        Entry {
                            orig_value: key.clone(),
                            orig_type: key.type_of(),
                            tuple_idx,
                        },
                    );
                }
            }
        }
    }
    Ok(index)
}

/// The `(value, type)` pairs for one key: the full `promoteToSimpleTypes`
/// enumeration, or — when the join is statically specialized — the single
/// promoted value at the comparison type (values that cannot promote there
/// cannot match and store nothing).
pub(crate) fn promoted_keys(
    key: &AtomicValue,
    specialized: Option<AtomicType>,
) -> Vec<AtomicValue> {
    match specialized {
        None => promote_to_simple_types(key),
        Some(t) => {
            if key.type_of() == t {
                vec![key.clone()]
            } else if key.type_of().is_numeric() && t.is_numeric() {
                xqr_types::promote_numeric(key, t)
                    .map(|v| vec![v])
                    .unwrap_or_default()
            } else if t == AtomicType::String {
                vec![AtomicValue::string(key.string_value())]
            } else {
                // Static prediction missed (dynamic value of another type):
                // fall back to the full enumeration for this value.
                promote_to_simple_types(key)
            }
        }
    }
}

/// Fig. 6 `allMatches`: probes the index with one outer tuple's key values,
/// checks the original types against Table 2, and returns inner tuple
/// indices sorted by the inner sequence order with duplicates removed.
pub(crate) fn all_matches(
    index: &KeyIndex,
    tup: &Tuple,
    key_expr: &Plan,
    ctx: &mut Ctx<'_>,
    specialized: Option<AtomicType>,
) -> xqr_xml::Result<Vec<usize>> {
    let key_vals = eval_dep_items(key_expr, ctx, &InputVal::Tuple(tup.clone()))?.atomized();
    let mut matches: Vec<usize> = Vec::new();
    for key in key_vals {
        for promoted in promoted_keys(&key, specialized) {
            if let Some(k) = key_of(&promoted) {
                for entry in index.get(&k) {
                    // Line 25: is (type1, typeof(key)) in Table 2 — i.e. are
                    // the ORIGINAL types actually comparable? Then recheck
                    // op:equal on the original values: promoted entries can
                    // collide lossily (e.g. two distinct decimals rounding
                    // to the same float).
                    if comparable_types(entry.orig_type, key.type_of()).is_some()
                        && crate::compare::value_compare(
                            crate::compare::CmpOp::Eq,
                            &entry.orig_value,
                            &key,
                        )
                        .unwrap_or(false)
                    {
                        matches.push(entry.tuple_idx);
                    }
                }
            }
        }
    }
    // Sort on original sequence order and remove duplicate tuples.
    matches.sort_unstable();
    matches.dedup();
    Ok(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xml::QName;

    fn eq_pred(l: &str, r: &str) -> Plan {
        Plan::call("fs:general-eq", vec![Plan::in_field(l), Plan::in_field(r)])
    }

    fn table_plan(field: &str) -> Plan {
        table_plan_over(field, Plan::new(Op::Var(QName::local("x"))))
    }

    fn table_plan_over(field: &str, items: Plan) -> Plan {
        Plan::new(Op::MapFromItem {
            dep: Plan::boxed(Op::Tuple(vec![(field.into(), Plan::input())])),
            input: Box::new(items),
        })
    }

    #[test]
    fn conjunct_flattening() {
        // and-chains become Cond{b}(a) with else=false.
        let a = eq_pred("l", "r");
        let b = eq_pred("l2", "r2");
        let pred = Plan::new(Op::Cond {
            cond: Box::new(a),
            then: Box::new(b),
            els: Plan::boxed(Op::Scalar(AtomicValue::Boolean(false))),
        });
        let mut cs = Vec::new();
        conjuncts(&pred, &mut cs);
        assert_eq!(cs.len(), 2);
    }

    fn only_field(p: &Plan) -> String {
        let used = used_input_fields(p);
        assert_eq!(used.len(), 1, "{used:?}");
        used.iter().next().expect("one field").to_string()
    }

    /// `MapIndexStep[i](IN)`: the probe side of a join inside a
    /// per-partition plan — its fields are the enclosing tuple's.
    fn in_rooted() -> Plan {
        Plan::new(Op::MapIndexStep {
            field: "i".into(),
            input: Plan::boxed(Op::Input),
        })
    }

    #[test]
    fn predicate_analysis_splits_sides() {
        let pred = eq_pred("r", "l"); // deliberately swapped
        let lp = table_plan("l");
        let rp = table_plan("r");
        let split = analyze_predicate(&pred, &lp, &rp, false).expect("splittable");
        assert_eq!(only_field(split.left_key), "l");
        assert_eq!(only_field(split.right_key), "r");
        assert!(split.residual.is_empty());
    }

    #[test]
    fn side_split_needs_only_the_inner_sides_fields() {
        let (l, r, x) = (
            Plan::in_field("l"),
            Plan::in_field("r"),
            Plan::in_field("x"),
        );
        let rp = table_plan("r");
        // Known probe side: containment decides, in either argument order.
        let s = split_by_side(&l, &r, &table_plan("l"), &rp).expect("separates");
        assert!(!s.swapped && !s.in_rooted);
        let s = split_by_side(&r, &l, &table_plan("l"), &rp).expect("separates");
        assert!(s.swapped);
        assert_eq!(
            (only_field(s.outer), only_field(s.inner)),
            ("l".into(), "r".into())
        );
        // A field neither side produces is not an outer field of a known side...
        assert!(split_by_side(&x, &r, &table_plan("l"), &rp).is_none());
        // ...but under an `IN`-rooted probe side anything off the inner side is.
        let s = split_by_side(&r, &x, &in_rooted(), &rp).expect("separates");
        assert!(s.swapped && s.in_rooted);
        // The inner side must be known either way.
        assert!(split_by_side(&l, &r, &table_plan("l"), &in_rooted()).is_none());
    }

    #[test]
    fn side_split_rejects_cross_side_operands() {
        // l + r on one side: not separable, whatever the probe side.
        let both = Plan::call(
            "fs:numeric-add",
            vec![Plan::in_field("l"), Plan::in_field("r")],
        );
        let r = Plan::in_field("r");
        for lp in [table_plan("l"), in_rooted()] {
            assert!(split_by_side(&both, &r, &lp, &table_plan("r")).is_none());
        }
        let pred = Plan::call("fs:general-eq", vec![both, r]);
        assert!(analyze_predicate(&pred, &table_plan("l"), &table_plan("r"), true).is_none());
        // An operand that hands the whole tuple to a sub-plan reads both
        // sides, whatever fields it names itself.
        let whole = Plan::new(Op::Sequence(vec![
            Plan::in_field("l"),
            Plan::new(Op::MapToItem {
                dep: Box::new(Plan::in_field("r")),
                input: Plan::boxed(Op::Input),
            }),
        ]));
        let r = Plan::in_field("r");
        assert!(split_by_side(&whole, &r, &table_plan("l"), &table_plan("r")).is_none());
    }

    #[test]
    fn in_rooted_probe_side_indexes_only_a_shared_build() {
        let pred = eq_pred("outer", "r");
        let rp = table_plan("r");
        assert!(analyze_predicate(&pred, &in_rooted(), &rp, false).is_none());
        let split = analyze_predicate(&pred, &in_rooted(), &rp, true).expect("indexed");
        assert_eq!(only_field(split.left_key), "outer");
        assert_eq!(only_field(split.right_key), "r");
        // `table_plan` reads a variable, not `IN`: loop-invariant.
        assert!(inner_side_invariant(&rp));
        assert!(!inner_side_invariant(&in_rooted()));
    }

    #[test]
    fn node_constructing_inner_side_is_not_invariant() {
        // Same values on every evaluation, fresh node identities each time.
        let over = |items: Plan| table_plan_over("r", items);
        let elem = Plan::new(Op::Element {
            name: xqr_core::algebra::NamePlan::Static(QName::local("a")),
            content: Box::new(Plan::scalar(AtomicValue::Integer(1))),
        });
        assert!(!inner_side_invariant(&over(elem.clone())));
        // ...also when the constructor sits in a dependent sub-plan...
        let nested = Plan::new(Op::MapToItem {
            dep: Box::new(elem),
            input: Box::new(table_plan("x")),
        });
        assert!(!inner_side_invariant(&over(nested)));
        // ...or may sit in a user function's body.
        assert!(!inner_side_invariant(&over(Plan::call("mk", vec![]))));
        assert!(inner_side_invariant(&over(Plan::call(
            "reverse",
            vec![Plan::new(Op::Var(QName::local("x")))]
        ))));
    }

    #[test]
    fn describe_names_the_join_that_runs() {
        let second = Plan::call(
            "fs:general-eq",
            vec![Plan::in_field("l2"), Plan::in_field("r")],
        );
        let pred = Plan::new(Op::Cond {
            cond: Box::new(eq_pred("l", "r")),
            then: Box::new(second),
            els: Plan::boxed(Op::Scalar(AtomicValue::Boolean(false))),
        });
        let lp = Plan::new(Op::Product(
            Box::new(table_plan("l")),
            Box::new(table_plan("l2")),
        ));
        let rp = table_plan("r");
        assert_eq!(
            describe(&pred, &lp, &rp, JoinAlgorithm::Hash, true),
            "index key: IN#l = IN#r; residual: 1 (memoized 1); inner side: once per run"
        );
        // A top-level join opens once and keeps nothing.
        assert_eq!(
            describe(&pred, &lp, &rp, JoinAlgorithm::Hash, false),
            "index key: IN#l = IN#r; residual: 1 (memoized 1); inner side: per open"
        );
        // Nested-loop mode shares the table.
        assert_eq!(
            describe(&pred, &lp, &rp, JoinAlgorithm::NestedLoop, true),
            "nested loop (nested-loop mode); inner side: once per run"
        );
        let lt = Plan::call(
            "fs:general-lt",
            vec![Plan::in_field("l"), Plan::in_field("r")],
        );
        assert_eq!(
            describe(&lt, &lp, &rp, JoinAlgorithm::Sort, true),
            "nested loop (no separable equality); batched comparison kernel; \
             inner side: once per run"
        );
        // An `IN`-rooted probe side is indexed only over a kept build.
        let eq = eq_pred("outer", "r");
        assert_eq!(
            describe(&eq, &in_rooted(), &rp, JoinAlgorithm::Hash, true),
            "index key: IN#outer = IN#r; residual: 0 (memoized 0); inner side: once per run"
        );
        let per_open = table_plan_over("r", Plan::in_field("k"));
        assert_eq!(
            describe(&eq, &in_rooted(), &per_open, JoinAlgorithm::Hash, true),
            "nested loop (no separable equality); batched comparison kernel; \
             inner side: per open"
        );
    }

    #[test]
    fn key_of_merges_zero_signs_and_rejects_nan() {
        let a = key_of(&AtomicValue::Double(0.0)).unwrap();
        let b = key_of(&AtomicValue::Double(-0.0)).unwrap();
        assert_eq!(a, b);
        assert!(key_of(&AtomicValue::Double(f64::NAN)).is_none());
    }

    #[test]
    fn promoted_keys_collide_across_numeric_types() {
        // integer 5 and decimal 5.0 must share their Decimal/Double entries.
        let i5: Vec<_> = promote_to_simple_types(&AtomicValue::Integer(5))
            .iter()
            .filter_map(key_of)
            .collect();
        let d5: Vec<_> =
            promote_to_simple_types(&AtomicValue::Decimal(xqr_xml::Decimal::from_i64(5)))
                .iter()
                .filter_map(key_of)
                .collect();
        assert!(i5.iter().any(|k| d5.contains(k)));
    }
}

#[cfg(test)]
mod specialization_tests {
    use super::*;
    use xqr_xml::QName;

    #[test]
    fn static_types_inferred() {
        assert_eq!(
            static_key_type(&Plan::scalar(AtomicValue::Integer(1))),
            Some(AtomicType::Integer)
        );
        assert_eq!(
            static_key_type(&Plan::call("count", vec![Plan::input()])),
            Some(AtomicType::Integer)
        );
        assert_eq!(
            static_key_type(&Plan::new(Op::Cast {
                ty: AtomicType::Date,
                optional: false,
                input: Plan::boxed(Op::Input),
            })),
            Some(AtomicType::Date)
        );
        assert_eq!(static_key_type(&Plan::in_field("x")), None);
        assert_eq!(
            static_key_type(&Plan::new(Op::Var(QName::local("v")))),
            None
        );
    }

    #[test]
    fn specialized_keys_are_single_entry() {
        // Integer key under integer specialization: one entry, not four.
        assert_eq!(
            promoted_keys(&AtomicValue::Integer(5), Some(AtomicType::Integer)).len(),
            1
        );
        assert_eq!(promoted_keys(&AtomicValue::Integer(5), None).len(), 4);
        // Cross-numeric specialization promotes to the comparison type.
        let ks = promoted_keys(&AtomicValue::Integer(5), Some(AtomicType::Double));
        assert_eq!(ks, vec![AtomicValue::Double(5.0)]);
        // Dynamic value off the static prediction falls back safely.
        let ks = promoted_keys(&AtomicValue::untyped("x"), Some(AtomicType::Date));
        assert_eq!(ks.len(), 1, "full enumeration fallback: {ks:?}");
    }
}

/// One join node opened once per outer tuple (a per-tuple dependent plan):
/// which opens build, and what the governor still holds afterwards.
#[cfg(test)]
mod shared_build_tests {
    use super::*;
    use std::collections::HashMap;
    use xqr_core::compile::CompiledModule;
    use xqr_types::Schema;
    use xqr_xml::{CancellationToken, Governor, Limits};

    fn gen(field: &str, items: Plan) -> Plan {
        Plan::new(Op::MapFromItem {
            dep: Plan::boxed(Op::Tuple(vec![(field.into(), Plan::input())])),
            input: Box::new(items),
        })
    }

    fn ints(vs: &[i64]) -> Plan {
        Plan::new(Op::Sequence(
            vs.iter()
                .map(|v| Plan::scalar(AtomicValue::Integer(*v)))
                .collect(),
        ))
    }

    /// `for $k in (1,2) return (for $x in (1,2,3), $y in <inner> where $x = $y return $x)`,
    /// the inner `for` already a `Join` in the outer one's dependent plan.
    fn correlated(inner: Plan) -> Plan {
        correlated_on(x_eq_y(), inner)
    }

    fn x_eq_y() -> Plan {
        Plan::call(
            "fs:general-eq",
            vec![Plan::in_field("x"), Plan::in_field("y")],
        )
    }

    fn correlated_on(pred: Plan, inner: Plan) -> Plan {
        let join = Plan::new(Op::Join {
            pred: Box::new(pred),
            left: Box::new(gen("x", ints(&[1, 2, 3]))),
            right: Box::new(gen("y", inner)),
        });
        Plan::new(Op::MapToItem {
            dep: Box::new(Plan::in_field("x")),
            input: Plan::boxed(Op::MapConcat {
                dep: Box::new(join),
                input: Box::new(gen("k", ints(&[1, 2]))),
            }),
        })
    }

    struct Run {
        result: String,
        /// (opens, builds) of the join node.
        join: (u64, u64),
        held_before_drop: u64,
        held_after_drop: u64,
    }

    /// [`run_under`] a roomy byte budget with spilling available.
    fn run(plan: &Plan, algo: JoinAlgorithm, spill: &[bool]) -> Run {
        run_under(&Limits::none().with_max_bytes(1 << 20), plan, algo, spill)
    }

    /// Evaluates `plan` once per entry of `spill` in one context, forcing
    /// spill mode before the passes marked `true`.
    fn run_under(limits: &Limits, plan: &Plan, algo: JoinAlgorithm, spill: &[bool]) -> Run {
        let module = CompiledModule {
            functions: HashMap::new(),
            globals: Vec::new(),
            body: Plan::new(Op::Empty),
        };
        let (schema, docs) = (Schema::default(), HashMap::new());
        let gov = Governor::new(limits, CancellationToken::new());
        let mut ctx = Ctx::new(&module, &schema, &docs, algo);
        ctx.governor = gov.clone();
        let profiler = crate::profile::Profiler::new(gov.clone());
        profiler.register(plan);
        ctx.profiler = Some(profiler.clone());
        let mut items = xqr_xml::Sequence::empty();
        for &force in spill {
            if force {
                gov.force_spill_mode();
            }
            items = crate::eval::eval_plan(plan, &mut ctx).expect("runs");
        }
        let held_before_drop = gov.bytes_used();
        drop(ctx);
        fn find(n: &crate::profile::ProfileNode) -> Option<(u64, u64)> {
            if n.label == "Join" {
                return Some((n.opens, n.builds));
            }
            n.children.iter().find_map(find)
        }
        let root = profiler.snapshot("pipelined", 0).root.expect("registered");
        Run {
            result: xqr_xml::serialize_sequence(&items),
            join: find(&root).expect("a join node"),
            held_before_drop,
            held_after_drop: gov.bytes_used(),
        }
    }

    #[test]
    fn invariant_inner_side_builds_once_and_returns_its_reservation() {
        let plan = correlated(ints(&[2, 3]));
        let hash = run(&plan, JoinAlgorithm::Hash, &[false]);
        assert_eq!(hash.result, "2 3 2 3");
        assert_eq!(hash.join, (2, 1), "two opens share one build");
        // The kept index stays reserved while the context lives...
        assert!(hash.held_before_drop > hash.held_after_drop);
        // ...and what remains is the cumulative table charge alone: the
        // nested-loop run, which has no index to reserve for, ends equal.
        let nl = run(&plan, JoinAlgorithm::NestedLoop, &[false]);
        assert_eq!(nl.result, hash.result);
        assert_eq!(nl.join, (2, 1), "nested-loop mode shares the table");
        assert_eq!(nl.held_before_drop, nl.held_after_drop);
        assert_eq!(hash.held_after_drop, nl.held_after_drop);
    }

    #[test]
    fn variant_inner_side_builds_per_open() {
        // The inner side is the outer tuple's own `k`: each open must see
        // its own (a kept build would answer "1 1").
        let plan = correlated(Plan::in_field("k"));
        for algo in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::Sort,
            JoinAlgorithm::NestedLoop,
        ] {
            let r = run(&plan, algo, &[false]);
            assert_eq!(r.result, "1 2", "{algo:?}");
            assert_eq!(r.join, (2, 2), "{algo:?}");
        }
    }

    #[test]
    fn node_constructing_inner_side_builds_per_open() {
        // `<a>2</a>` per evaluation is a new node: a kept build would hand
        // the first open's node to the second.
        let elem = Plan::new(Op::Element {
            name: xqr_core::algebra::NamePlan::Static(xqr_xml::QName::local("a")),
            content: Box::new(Plan::scalar(AtomicValue::Integer(2))),
        });
        for algo in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::Sort,
            JoinAlgorithm::NestedLoop,
        ] {
            let r = run(&correlated(elem.clone()), algo, &[false]);
            assert_eq!(r.result, "2 2", "{algo:?}");
            assert_eq!(r.join, (2, 2), "{algo:?}");
        }
    }

    #[test]
    fn strict_byte_budget_keeps_no_build() {
        // Spilling off: reservations follow the per-open pattern exactly —
        // every open builds, and nothing stays reserved between opens.
        let strict = Limits::none().with_max_bytes(1 << 20).with_spill(None);
        let plan = correlated(ints(&[2, 3]));
        let r = run_under(&strict, &plan, JoinAlgorithm::Hash, &[false]);
        assert_eq!(r.result, "2 3 2 3");
        assert_eq!(r.join, (2, 2));
        assert_eq!(r.held_before_drop, r.held_after_drop, "nothing kept");
    }

    #[test]
    fn memoized_residual_operands_are_reserved_with_the_build() {
        // `where $x = $y and $x = $y`: the second conjunct is a memoized
        // residual, its inner operand kept per inner row beside the index.
        let twice = Plan::new(Op::Cond {
            cond: Box::new(x_eq_y()),
            then: Box::new(x_eq_y()),
            els: Plan::boxed(Op::Scalar(AtomicValue::Boolean(false))),
        });
        let one = run(&correlated(ints(&[2, 3])), JoinAlgorithm::Hash, &[false]);
        let two = run(
            &correlated_on(twice, ints(&[2, 3])),
            JoinAlgorithm::Hash,
            &[false],
        );
        assert_eq!(two.result, one.result);
        assert_eq!(two.join, (2, 1));
        // Two inner rows matched, one atom each.
        assert_eq!(
            two.held_before_drop - two.held_after_drop,
            one.held_before_drop - one.held_after_drop + 2 * 48
        );
    }

    #[test]
    fn spill_mode_keeps_no_build() {
        let plan = correlated(ints(&[2, 3]));
        let r = run(&plan, JoinAlgorithm::Hash, &[true]);
        assert_eq!(r.result, "2 3 2 3");
        assert_eq!(r.join, (2, 2), "every open runs its own Grace join");
        assert_eq!(r.held_before_drop, r.held_after_drop, "nothing kept");
        // The watermark flipping mid-run: the first pass kept a build, the
        // second drops it at its first open and keeps none.
        let r = run(&plan, JoinAlgorithm::Hash, &[false, true]);
        assert_eq!(r.result, "2 3 2 3");
        assert_eq!(r.join, (4, 3));
        assert_eq!(r.held_before_drop, r.held_after_drop, "kept build released");
    }
}
