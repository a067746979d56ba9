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
//! produced by normalizing `and`) into an index key and residual conjuncts.
//! The key's components are the first `fs:general-eq` whose sides depend
//! on disjoint inputs ([`split_by_side`], which needs only the inner side's
//! fields) and every further one whose operands [`cannot_raise`]: build and
//! probe emit the cross product of the components' keys, so the index
//! returns exactly the pairs that satisfy them all. The residual conjuncts
//! run per index candidate, on the joined tuple.
//!
//! A join is two halves: a [`JoinProbe`] (the analysis, borrowed from the
//! plan, redone per open) and a [`JoinBuild`] (the materialized inner
//! side). A loop-invariant inner side is built by the join's first open
//! and shared by the rest, so a correlated join in a per-partition plan
//! costs one build per run rather than one per partition.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use xqr_core::algebra::{Op, Plan};
use xqr_core::fields::{conjuncts, output_fields, used_input_fields, uses_input};
use xqr_types::convert::{comparable_types, promote_to_simple_types};
use xqr_xml::{AtomicType, AtomicValue, Axis, KindTest, NodeTest};

use crate::compare::effective_boolean_value;
use crate::context::{Ctx, JoinAlgorithm};
use crate::eval::eval_dep_items;
use crate::profile::OpStats;
use crate::value::{InputVal, NullFlag, Table, Tuple};

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
    /// Fig. 6 hash/B-tree index over the inner side's composite key
    /// values; the residual conjuncts run per candidate.
    Indexed(SplitPredicate<'p>),
}

/// The materialized inner side of a join: the table and, for an indexed
/// join, the Fig. 6 index over it. Built per open — or once per run,
/// shared by `Rc` through [`Ctx::shared_join_build`], when the inner side
/// is loop-invariant.
pub(crate) struct JoinBuild {
    pub(crate) right: Table,
    index: Option<KeyIndex>,
    /// The index's live-byte accounting: releases back to the governor
    /// when the build drops.
    _charge: xqr_xml::ByteCharge,
}

/// One joined output tuple, `lt ++ rt`, flagged as matched when the join
/// is an outer join.
pub(crate) fn joined(lt: &Tuple, rt: &Tuple, flag: Option<&NullFlag>) -> Tuple {
    match flag {
        Some(f) => f.joined(lt, rt),
        None => lt.concat(rt),
    }
}

impl<'p> JoinProbe<'p> {
    /// Picks the physical join for one open. `shared_build` says whether
    /// the build will be kept for later opens (see [`analyze_predicate`]);
    /// `stats_for` finds the predicate's profile counters, if any are kept.
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
            Some(split) => JoinProbe::Indexed(split),
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
        let index = match self {
            JoinProbe::NestedLoop { .. } => None,
            JoinProbe::Indexed(split) => {
                Some(materialize(&right, split, ctx, &mut charge, |_| true)?)
            }
        };
        Ok(JoinBuild {
            right,
            index,
            _charge: charge,
        })
    }

    /// The joined output tuples for one outer tuple, in inner order, each
    /// flagged as matched under `flag`; empty means unmatched (the caller
    /// decides between dropping the tuple and outer-join null flagging).
    pub(crate) fn matches(
        &self,
        lt: &Tuple,
        build: &JoinBuild,
        flag: Option<&NullFlag>,
        ctx: &mut Ctx<'_>,
    ) -> xqr_xml::Result<Vec<Tuple>> {
        let right = &build.right;
        let mut out = Vec::new();
        match self {
            JoinProbe::NestedLoop { pred, kernel } => {
                if let Some(k) = kernel {
                    return k.matches(lt, right, flag, ctx);
                }
                // A constant-true predicate (cross products from unnesting)
                // skips per-pair evaluation entirely.
                if matches!(&pred.op, Op::Scalar(AtomicValue::Boolean(true))) {
                    // Bulk-charge the cross product before building it.
                    ctx.governor.charge_tuples(right.len() as u64)?;
                    out.reserve(right.len());
                    for rt in right {
                        out.push(joined(lt, rt, flag));
                    }
                    return Ok(out);
                }
                for rt in right {
                    ctx.governor.tick()?;
                    // Move the joined tuple into the binding and back out:
                    // no per-pair clone.
                    let input = InputVal::Tuple(joined(lt, rt, flag));
                    let v = eval_dep_items(pred, ctx, &input)?;
                    let InputVal::Tuple(t) = input else {
                        unreachable!()
                    };
                    if effective_boolean_value(&v)? {
                        out.push(t);
                    }
                }
            }
            JoinProbe::Indexed(split) => {
                let index = build
                    .index
                    .as_ref()
                    .expect("indexed probe over its own build");
                let candidates = all_matches(index, lt, split, ctx)?;
                keep_holding(split, lt, right, candidates, flag, ctx, |_, t| out.push(t))?;
            }
        }
        Ok(out)
    }
}

/// Fig. 6 `equalityJoin`'s last step: joins `lt` with each index
/// candidate (in inner order) and hands `emit` the joined tuples on which
/// every residual conjunct holds — the one residual path, per pair, on the
/// joined tuple. No candidates ([`all_matches`] gave `None`) means every
/// row of `right`, under the whole predicate.
pub(crate) fn keep_holding(
    split: &SplitPredicate<'_>,
    lt: &Tuple,
    right: &Table,
    candidates: Option<Vec<usize>>,
    flag: Option<&NullFlag>,
    ctx: &mut Ctx<'_>,
    mut emit: impl FnMut(usize, Tuple),
) -> xqr_xml::Result<()> {
    let (candidates, checks) = match candidates {
        Some(c) => (c, split.residual.as_slice()),
        None => (
            (0..right.len()).collect(),
            std::slice::from_ref(&split.pred),
        ),
    };
    'candidates: for idx in candidates {
        // Move the joined tuple into the binding and back out: no
        // per-pair clone.
        let input = InputVal::Tuple(joined(lt, &right[idx], flag));
        for p in checks {
            if !effective_boolean_value(&eval_dep_items(p, ctx, &input)?)? {
                continue 'candidates;
            }
        }
        let InputVal::Tuple(t) = input else {
            unreachable!()
        };
        emit(idx, t);
    }
    Ok(())
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
    let (Some(a), Some(b)) = (used_input_fields(lhs), used_input_fields(rhs)) else {
        return None;
    };
    let (right, true) = output_fields(right_plan) else {
        return None;
    };
    let (left, left_exact) = output_fields(left_plan);
    let outer = |u: &std::collections::BTreeSet<_>| {
        u.is_disjoint(&right) && (!left_exact || u.is_subset(&left))
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
        in_rooted: !left_exact,
    })
}

/// The index key (one or more equality components) plus the residual
/// conjuncts.
pub struct SplitPredicate<'p> {
    /// The whole predicate, for outer tuples the index cannot probe (see
    /// [`for_each_key`]).
    pub pred: &'p Plan,
    /// The key's components, in predicate order; the first is the first
    /// separable equality, the rest are those that cannot raise.
    pub keys: Vec<KeyComponent<'p>>,
    pub residual: Vec<&'p Plan>,
}

/// One `fs:general-eq` conjunct of an index key.
pub struct KeyComponent<'p> {
    pub outer: &'p Plan,
    pub inner: &'p Plan,
}

/// Splits a join predicate into its index key and residual conjuncts.
///
/// The first equality conjunct whose operands read disjoint input sides is
/// the key. A further one joins the key only when both its operands
/// [`cannot_raise`]: the index evaluates every component for every row,
/// where `and` evaluates a later conjunct only for pairs the earlier ones
/// accept (`string-length($q) = $p and xs:integer($q) = $p` must not cast
/// `"xyz"`). The general comparison itself never raises.
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
    let mut keys: Vec<KeyComponent<'p>> = Vec::new();
    let mut residual = Vec::new();
    let mut in_rooted = false;
    for c in cs {
        let side = match &c.op {
            Op::Call { name, args } if name.local_part() == "fs:general-eq" && args.len() == 2 => {
                split_by_side(&args[0], &args[1], left_plan, right_plan)
            }
            _ => None,
        };
        // A constant operand is no key.
        match side.filter(|s| uses_input(s.outer) && uses_input(s.inner)) {
            Some(s)
                if keys.is_empty()
                    || cannot_raise(s.outer, left_plan) && cannot_raise(s.inner, right_plan) =>
            {
                in_rooted |= s.in_rooted;
                keys.push(KeyComponent {
                    outer: s.outer,
                    inner: s.inner,
                });
            }
            _ => residual.push(c),
        }
    }
    if keys.is_empty() || (in_rooted && !shared_build) {
        return None;
    }
    Some(SplitPredicate {
        pred,
        keys,
        residual,
    })
}

/// Can this key operand be evaluated on every row of its side without
/// raising? A syntactic first cut: a chain of `child`/`attribute` steps
/// ending in `text()` or an attribute step, over an `IN` field that `side`
/// binds per item of a step chain. Such a field holds one node (or is
/// absent, on an outer join's padded rows), a child or attribute step over
/// a node cannot fail, and text and attribute nodes atomize without error.
fn cannot_raise(operand: &Plan, side: &Plan) -> bool {
    let last = matches!(
        &operand.op,
        Op::TreeJoin {
            axis: Axis::Attribute,
            ..
        } | Op::TreeJoin {
            test: NodeTest::Kind(KindTest::Text),
            ..
        }
    );
    let mut p = operand;
    while let Op::TreeJoin {
        axis: Axis::Child | Axis::Attribute,
        input,
        ..
    } = &p.op
    {
        p = input;
    }
    last && matches!(&p.op, Op::FieldAccess { field, input }
        if matches!(input.op, Op::Input) && binds_per_node(side, field))
}

/// Does `plan` bind `field` to each node of a step chain,
/// `MapFromItem{[field:IN]}(TreeJoin…)`? Fields are compiler-fresh, so
/// the first binder found is the only one.
fn binds_per_node(plan: &Plan, field: &str) -> bool {
    match &plan.op {
        Op::MapFromItem { dep, input }
            if matches!(&dep.op, Op::Tuple(fs)
            if matches!(fs.as_slice(), [(f, v)] if &**f == field && matches!(v.op, Op::Input))) =>
        {
            matches!(input.op, Op::TreeJoin { .. })
        }
        op => op.children().iter().any(|(c, _)| binds_per_node(c, field)),
    }
}

/// Is this join's inner side the same table on every open of one run? The
/// paper's own Fig. 5 side condition — the plan is independent of `IN` —
/// which leaves globals and documents, both fixed for the run. (Function
/// parameters are not: [`Ctx::shared_join_build`] refuses inside a call.)
/// Same *values* is not enough: an inner side that constructs nodes hands
/// out fresh identities per evaluation (`$r | $r`, `is`), so it is built
/// per open like a variant one.
pub(crate) fn inner_side_invariant(right_plan: &Plan) -> bool {
    !uses_input(right_plan) && !constructs_nodes(right_plan)
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
        JoinProbe::Indexed(split) => {
            let compact = xqr_core::pretty::compact;
            let key: Vec<String> = (split.keys.iter())
                .map(|k| format!("{} = {}", compact(k.outer), compact(k.inner)))
                .collect();
            let residual = split.residual.len();
            format!("index key: {}; residual: {residual}", key.join(" and "))
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
/// when they are equal *at that type*. Text and binary keys share the
/// atom's own allocation.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub(crate) enum KeyVal {
    Bool(bool),
    Int(i64),
    Dec(i128),
    /// IEEE bits with -0.0 normalized; NaN keys are skipped entirely.
    Bits(u64),
    Str(Rc<str>),
    Millis(i64),
    Months(i64, i64),
    Greg(i64),
    Bytes(Rc<[u8]>),
    Name(String),
}

/// One component of a composite key: a Fig. 6 `(value, type)` pair.
pub(crate) type KeyPart = (AtomicType, KeyVal);

pub(crate) fn key_of(v: &AtomicValue) -> Option<KeyPart> {
    use AtomicValue as V;
    let bits = |d: f64| {
        // -0.0 and 0.0 are one key.
        KeyVal::Bits(if d == 0.0 { 0 } else { d.to_bits() })
    };
    let kv = match v {
        V::Boolean(b) => KeyVal::Bool(*b),
        V::Integer(i) => KeyVal::Int(*i),
        V::Decimal(d) => KeyVal::Dec(d.units()),
        V::Double(d) if d.is_nan() => return None,
        V::Double(d) => bits(*d),
        V::Float(f) if f.is_nan() => return None,
        V::Float(f) => bits(*f as f64),
        V::String(s) | V::UntypedAtomic(s) | V::AnyUri(s) => KeyVal::Str(s.clone()),
        V::Date(d) => KeyVal::Millis(d.epoch_millis()),
        V::Time(t) => KeyVal::Millis(t.normalized_millis()),
        V::DateTime(dt) => KeyVal::Millis(dt.epoch_millis()),
        V::Duration(d) => KeyVal::Months(d.months, d.millis),
        V::GYear(y) => KeyVal::Greg(*y as i64),
        V::GYearMonth(y, m) => KeyVal::Greg(*y as i64 * 16 + *m as i64),
        V::GMonth(m) => KeyVal::Greg(*m as i64),
        V::GMonthDay(m, d) => KeyVal::Greg(*m as i64 * 64 + *d as i64),
        V::GDay(d) => KeyVal::Greg(*d as i64),
        V::HexBinary(b) | V::Base64Binary(b) => KeyVal::Bytes(b.clone()),
        V::QName(q) => KeyVal::Name(q.to_string()),
    };
    Some((v.type_of(), kv))
}

/// One index entry: the inner tuple's index/sequence order, and where its
/// original (pre-conversion) component values start in
/// [`KeyIndex::origs`] (Fig. 6 stores "the original value and type …, the
/// corresponding tuple value, and the ordinal position").
struct Entry {
    tuple_idx: usize,
    origs: usize,
}

/// The two index structures share this small interface.
enum KeyMap {
    Hash(HashMap<Box<[KeyPart]>, Vec<Entry>>),
    BTree(BTreeMap<Box<[KeyPart]>, Vec<Entry>>),
}

/// The Fig. 6 index over composite keys.
pub(crate) struct KeyIndex {
    map: KeyMap,
    /// Each entry's original component values, one per key component.
    origs: Vec<AtomicValue>,
    /// The types of those values that decide how an outer tuple probes.
    types: KeyTypes,
}

/// Bytes one index entry is charged at: the entry, its original values,
/// and its share of the bucket.
const ENTRY_BYTES: u64 = 48;

impl KeyIndex {
    fn new(algo: JoinAlgorithm) -> KeyIndex {
        KeyIndex {
            map: match algo {
                JoinAlgorithm::Sort => KeyMap::BTree(BTreeMap::new()),
                _ => KeyMap::Hash(HashMap::new()),
            },
            origs: Vec::new(),
            types: KeyTypes::default(),
        }
    }

    fn put(&mut self, key: &[KeyPart], origs: &[&AtomicValue], tuple_idx: usize) {
        let e = Entry {
            tuple_idx,
            origs: self.origs.len(),
        };
        self.origs.extend(origs.iter().map(|&v| v.clone()));
        // A key is allocated once, by the first entry under it.
        match &mut self.map {
            KeyMap::Hash(m) => match m.get_mut(key) {
                Some(bucket) => bucket.push(e),
                None => drop(m.insert(key.into(), vec![e])),
            },
            KeyMap::BTree(m) => match m.get_mut(key) {
                Some(bucket) => bucket.push(e),
                None => drop(m.insert(key.into(), vec![e])),
            },
        }
    }

    fn get(&self, key: &[KeyPart]) -> &[Entry] {
        let bucket = match &self.map {
            KeyMap::Hash(m) => m.get(key),
            KeyMap::BTree(m) => m.get(key),
        };
        bucket.map_or(&[], Vec::as_slice)
    }
}

/// Types that Table 2 compares with an untyped value by casting it, but
/// that `promoteToSimpleTypes` does not enumerate for it: nearly every
/// numeric string is also a gYear, a hexBinary and a base64Binary. An
/// untyped outer value is cast to those of them the index holds.
const ON_DEMAND: [AtomicType; 8] = [
    AtomicType::Duration,
    AtomicType::GYearMonth,
    AtomicType::GYear,
    AtomicType::GMonthDay,
    AtomicType::GDay,
    AtomicType::GMonth,
    AtomicType::HexBinary,
    AtomicType::Base64Binary,
];

/// Per key component, which of the untyped and [`ON_DEMAND`] types the
/// inner side's values have, one bit per type.
#[derive(Default)]
pub(crate) struct KeyTypes(Vec<u32>);

impl KeyTypes {
    fn record(&mut self, component: usize, t: AtomicType) {
        if t == AtomicType::UntypedAtomic || ON_DEMAND.contains(&t) {
            if self.0.len() <= component {
                self.0.resize(component + 1, 0);
            }
            self.0[component] |= 1 << t as u32;
        }
    }

    fn holds(&self, component: usize, t: AtomicType) -> bool {
        self.0
            .get(component)
            .is_some_and(|b| b & (1 << t as u32) != 0)
    }
}

/// Which side of a join a key is computed for.
pub(crate) enum Side<'a> {
    /// Probing an index whose inner values have these types.
    Outer(&'a KeyTypes),
    /// Building, recording the values' types.
    Inner(&'a mut KeyTypes),
}

/// Fig. 6 `promoteToSimpleTypes` over a whole key, for one tuple: each
/// component's operand (on `side`) is evaluated and atomized, each atom
/// promoted, and `emit` receives every composite key of the cross product
/// of the components' promoted keys, with the original atom behind each
/// component. A component with no key (an empty operand, only NaN) means
/// the tuple has no key, and the components after it are not evaluated.
/// The Grace join partitions on the same keys.
///
/// Returns `false`, having emitted nothing, when an outer value of an
/// [`ON_DEMAND`] type meets a component whose inner values include
/// untyped ones: no key of the untyped values anticipates that type, so
/// the outer tuple meets every inner row under the whole predicate.
pub(crate) fn for_each_key(
    split: &SplitPredicate<'_>,
    mut side: Side<'_>,
    tup: &Tuple,
    ctx: &mut Ctx<'_>,
    mut emit: impl FnMut(&[KeyPart], &[&AtomicValue]) -> xqr_xml::Result<()>,
) -> xqr_xml::Result<bool> {
    let input = InputVal::Tuple(tup.clone());
    // Per component, each promoted key with the atom it came from.
    let mut keys: Vec<Vec<(KeyPart, AtomicValue)>> = Vec::with_capacity(split.keys.len());
    for (i, c) in split.keys.iter().enumerate() {
        let expr = match side {
            Side::Outer(_) => c.outer,
            Side::Inner(_) => c.inner,
        };
        let mut ks = Vec::new();
        for v in eval_dep_items(expr, ctx, &input)?.atomized() {
            let mut put = |p: &AtomicValue| {
                if let Some(k) = key_of(p) {
                    ks.push((k, v.clone()))
                }
            };
            match &mut side {
                Side::Inner(types) => types.record(i, v.type_of()),
                Side::Outer(types) => {
                    let untyped_inner = types.holds(i, AtomicType::UntypedAtomic);
                    if untyped_inner && ON_DEMAND.contains(&v.type_of()) {
                        return Ok(false);
                    }
                    if let AtomicValue::UntypedAtomic(text) = &v {
                        for &t in ON_DEMAND.iter().filter(|&&t| types.holds(i, t)) {
                            if let Ok(p) = xqr_types::cast::cast_from_string(text.trim(), t) {
                                put(&p);
                            }
                        }
                    }
                }
            }
            promote_to_simple_types(&v, |p| put(&p));
        }
        if ks.is_empty() {
            return Ok(true);
        }
        keys.push(ks);
    }
    let total: usize = keys.iter().map(Vec::len).product();
    let (mut key, mut origs) = (
        Vec::with_capacity(keys.len()),
        Vec::with_capacity(keys.len()),
    );
    for mut r in 0..total {
        key.clear();
        origs.clear();
        for ks in &keys {
            let (k, atom) = &ks[r % ks.len()];
            r /= ks.len();
            key.push(k.clone());
            origs.push(atom);
        }
        emit(&key, &origs)?;
    }
    Ok(true)
}

/// Fig. 6 `materialize`: builds the composite-key index over the inner
/// rows, charging their footprint and one [`ENTRY_BYTES`] per entry to
/// `charge`. `keep` filters the keys stored (the Grace join keeps a
/// partition's own).
pub(crate) fn materialize(
    inner: &Table,
    split: &SplitPredicate<'_>,
    ctx: &mut Ctx<'_>,
    charge: &mut xqr_xml::ByteCharge,
    keep: impl Fn(&[KeyPart]) -> bool,
) -> xqr_xml::Result<KeyIndex> {
    let mut index = KeyIndex::new(ctx.join_algorithm);
    let mut types = KeyTypes::default();
    let budget = ctx.governor.has_byte_budget();
    for (tuple_idx, tup) in inner.iter().enumerate() {
        ctx.governor.tick()?;
        xqr_xml::failpoint::check("join::build_charge")?;
        let mut entries = 0;
        for_each_key(split, Side::Inner(&mut types), tup, ctx, |key, origs| {
            if keep(key) {
                index.put(key, origs, tuple_idx);
                entries += 1;
            }
            Ok(())
        })?;
        if budget {
            charge.add(tup.approx_bytes() + ENTRY_BYTES * entries)?;
        }
    }
    index.types = types;
    Ok(index)
}

/// Does one key component match? `key_type` is the type both sides'
/// values were promoted to for this key; `inner` and `outer` are the
/// original values. Line 25 of Fig. 6: the original types must be
/// comparable under Table 2 (`fs:convert-operand`). Where the comparison
/// type is a string, numeric or boolean type, every pair equal there also
/// shares a key at that type, and key equality at it is value equality:
/// the match is exactly `key_type` being that type. Elsewhere `op:equal`
/// rechecks the original values, since promoted keys can collide (and an
/// untyped value meets an `xs:anyURI` only under their string keys).
fn component_matches(key_type: AtomicType, inner: &AtomicValue, outer: &AtomicValue) -> bool {
    use AtomicType as T;
    match comparable_types(inner.type_of(), outer.type_of()) {
        None => false,
        Some(t) if t == T::String || t == T::Boolean || t.is_numeric() => t == key_type,
        Some(_) => {
            crate::compare::value_compare(crate::compare::CmpOp::Eq, inner, outer).unwrap_or(false)
        }
    }
}

/// Fig. 6 `allMatches`: probes the index with each of one outer tuple's
/// composite keys, checks each component against Table 2, and returns
/// inner tuple indices sorted by the inner sequence order with duplicates
/// removed — or `None` when the tuple cannot probe (see [`for_each_key`]).
pub(crate) fn all_matches(
    index: &KeyIndex,
    tup: &Tuple,
    split: &SplitPredicate<'_>,
    ctx: &mut Ctx<'_>,
) -> xqr_xml::Result<Option<Vec<usize>>> {
    let mut matches: Vec<usize> = Vec::new();
    let keyed = for_each_key(split, Side::Outer(&index.types), tup, ctx, |key, outer| {
        for e in index.get(key) {
            let inner = index.origs[e.origs..].iter().zip(outer);
            if key
                .iter()
                .zip(inner)
                .all(|((t, _), (i, o))| component_matches(*t, i, o))
            {
                matches.push(e.tuple_idx);
            }
        }
        Ok(())
    })?;
    if !keyed {
        return Ok(None);
    }
    // Sort on original sequence order and remove duplicate tuples.
    matches.sort_unstable();
    matches.dedup();
    Ok(Some(matches))
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

    fn only_field(p: &Plan) -> String {
        let used = used_input_fields(p).expect("field reads only");
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
        assert_eq!(split.keys.len(), 1);
        assert_eq!(only_field(split.keys[0].outer), "l");
        assert_eq!(only_field(split.keys[0].inner), "r");
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
        assert_eq!(only_field(split.keys[0].outer), "outer");
        assert_eq!(only_field(split.keys[0].inner), "r");
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
            "index key: IN#l = IN#r; residual: 1; inner side: once per run"
        );
        // A top-level join opens once and keeps nothing.
        assert_eq!(
            describe(&pred, &lp, &rp, JoinAlgorithm::Hash, false),
            "index key: IN#l = IN#r; residual: 1; inner side: per open"
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
            "index key: IN#outer = IN#r; residual: 0; inner side: once per run"
        );
        let per_open = table_plan_over("r", Plan::in_field("k"));
        assert_eq!(
            describe(&eq, &in_rooted(), &per_open, JoinAlgorithm::Hash, true),
            "nested loop (no separable equality); batched comparison kernel; \
             inner side: per open"
        );
    }

    fn keys(v: &AtomicValue) -> Vec<KeyPart> {
        let mut out = Vec::new();
        promote_to_simple_types(v, |p| out.extend(key_of(&p)));
        out
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
        let i5 = keys(&AtomicValue::Integer(5));
        let d5 = keys(&AtomicValue::Decimal(xqr_xml::Decimal::from_i64(5)));
        assert!(i5.iter().any(|k| d5.contains(k)));
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
    fn kept_build_reserves_its_rows_and_entries_only() {
        // `where $x = $y and $x = $y`: the second conjunct (bare fields,
        // so it may raise) is a per-pair residual and keeps nothing.
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
        // Two one-field rows of one item each, and four entries per row
        // (an integer key is stored as integer, decimal, float and double).
        let row = Tuple::from_fields(vec![("y".into(), xqr_xml::Sequence::integers([2]))]);
        let reserved = |r: &Run| r.held_before_drop - r.held_after_drop;
        assert_eq!(reserved(&one), 2 * row.approx_bytes() + 8 * ENTRY_BYTES);
        assert_eq!(reserved(&two), reserved(&one));
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
