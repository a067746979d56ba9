//! The unnesting rewritings of Section 5 (Fig. 5).
//!
//! Standard rules:
//! * **(remove map)** — `MapConcat{Op1}(([])) → Op1` when `Op1` is
//!   independent of `IN`;
//! * **(insert product)** — `MapConcat{Op1}(Op2) → Product(Op2, Op1)` when
//!   `Op1` is independent of `IN`;
//! * **(insert join)** — `Select{Op1}(Product(Op2, Op3)) → Join{Op1}(Op2, Op3)`.
//!
//! New rules (unique to the paper's algebra):
//! * **(insert group-by)** — a unary tuple constructor over an item
//!   operator chain ending in `MapToItem` is a trivial `GroupBy` whose
//!   every partition holds one tuple:
//!   `[x : CTX(MapToItem{Op2}(Op3))] →
//!    GroupBy[x,[],[null]]{CTX(IN)}{Op2}(OMap[null](Op3))`;
//! * **(map through group-by)** — pushes the enclosing dependent join
//!   through the `GroupBy`, adding an index field (a `MapIndexStep`, as in
//!   plan P1″) and an outer-join null flag;
//! * **(remove duplicate null)** — collapses `OMapConcat[n1]{OMap[n2](…)}`;
//! * **(insert outer-join)** —
//!   `OMapConcat[n]{Join{p}(IN, Op1)}(Op2) → LOuterJoin[n]{p}(Op2, Op1)`.
//!
//! The engine applies rules bottom-up to a fixpoint; statistics of rule
//! applications are returned for inspection (`explain`-style output and the
//! ablation benchmarks use them).

use std::collections::BTreeMap;

use crate::algebra::{Field, Op, Plan};
use crate::compile::CompiledModule;
use crate::fields::{conjuncts, output_fields, used_input_fields, uses_input};

/// Which rule families the rewriter applies — the ablation knobs used by
/// `benches/ablation.rs` to quantify each design choice of Section 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleConfig {
    /// (remove map).
    pub remove_map: bool,
    /// (insert group-by), (map through group-by) both variants,
    /// (remove duplicate null).
    pub unnesting: bool,
    /// (insert product), (insert join), (insert outer-join).
    pub join_insertion: bool,
    /// The push extensions of DESIGN.md §4a (deep-nesting flattening).
    pub push_rules: bool,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            remove_map: true,
            unnesting: true,
            join_insertion: true,
            push_rules: true,
        }
    }
}

impl RuleConfig {
    pub fn all() -> RuleConfig {
        RuleConfig::default()
    }

    pub fn none() -> RuleConfig {
        RuleConfig {
            remove_map: false,
            unnesting: false,
            join_insertion: false,
            push_rules: false,
        }
    }
}

/// One rewrite-rule firing, recorded when per-rule tracing is enabled:
/// which rule fired and the operator count of the subtree it fired on,
/// immediately before and after.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleEvent {
    pub rule: &'static str,
    pub before_ops: usize,
    pub after_ops: usize,
    pub nanos: u64,
}

/// Rewrite statistics: rule name → number of applications. With `trace`
/// set (see [`rewrite_module_traced`]) also one [`RuleEvent`] per firing,
/// in firing order.
#[derive(Clone, Debug, Default)]
pub struct RewriteStats {
    pub applications: BTreeMap<&'static str, usize>,
    pub passes: usize,
    pub events: Vec<RuleEvent>,
    trace: bool,
    last_rule: Option<&'static str>,
}

impl RewriteStats {
    fn record(&mut self, rule: &'static str) {
        *self.applications.entry(rule).or_insert(0) += 1;
        self.last_rule = Some(rule);
    }

    pub fn total(&self) -> usize {
        self.applications.values().sum()
    }

    pub fn count(&self, rule: &str) -> usize {
        self.applications.get(rule).copied().unwrap_or(0)
    }
}

/// Rewrites every plan of a compiled module in place (all rules).
pub fn rewrite_module(m: &mut CompiledModule) -> RewriteStats {
    rewrite_module_with(m, RuleConfig::all())
}

/// Rewrites with an explicit rule configuration (ablation studies).
pub fn rewrite_module_with(m: &mut CompiledModule, rules: RuleConfig) -> RewriteStats {
    let mut stats = RewriteStats::default();
    let mut ctx = Ctx {
        rules,
        ..Ctx::default()
    };
    fixpoint(&mut m.body, &mut ctx, &mut stats);
    let mut functions: Vec<_> = m.functions.values_mut().collect();
    functions.sort_by(|a, b| a.name.cmp(&b.name));
    for f in functions {
        fixpoint(&mut f.body, &mut ctx, &mut stats);
    }
    for g in m.globals.iter_mut() {
        if let Some(p) = &mut g.plan {
            fixpoint(p, &mut ctx, &mut stats);
        }
    }
    stats
}

/// Like [`rewrite_module_with`], but records a [`RuleEvent`] per rule
/// firing into the returned stats (`events`). The timing cost
/// (`Instant::now` + `plan_size` around each firing) is paid only on this
/// entry point; the untraced path is unchanged.
pub fn rewrite_module_traced(m: &mut CompiledModule, rules: RuleConfig) -> RewriteStats {
    let mut stats = RewriteStats {
        trace: true,
        ..RewriteStats::default()
    };
    let mut ctx = Ctx {
        rules,
        ..Ctx::default()
    };
    fixpoint(&mut m.body, &mut ctx, &mut stats);
    let mut functions: Vec<_> = m.functions.values_mut().collect();
    functions.sort_by(|a, b| a.name.cmp(&b.name));
    for f in functions {
        fixpoint(&mut f.body, &mut ctx, &mut stats);
    }
    for g in m.globals.iter_mut() {
        if let Some(p) = &mut g.plan {
            fixpoint(p, &mut ctx, &mut stats);
        }
    }
    stats
}

/// Rewrites a single plan in place.
pub fn rewrite_plan(p: &mut Plan) -> RewriteStats {
    let mut stats = RewriteStats::default();
    let mut ctx = Ctx::default();
    fixpoint(p, &mut ctx, &mut stats);
    stats
}

struct Ctx {
    fresh: usize,
    rules: RuleConfig,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            fresh: 0,
            rules: RuleConfig::all(),
        }
    }
}

impl Ctx {
    fn fresh_field(&mut self, base: &str) -> Field {
        self.fresh += 1;
        format!("{base}_{}", self.fresh).into()
    }
}

const MAX_PASSES: usize = 32;

fn fixpoint(p: &mut Plan, ctx: &mut Ctx, stats: &mut RewriteStats) {
    for _ in 0..MAX_PASSES {
        stats.passes += 1;
        if !pass(p, ctx, stats) {
            return;
        }
    }
}

/// One bottom-up pass; returns true if anything changed.
fn pass(p: &mut Plan, ctx: &mut Ctx, stats: &mut RewriteStats) -> bool {
    let mut changed = false;
    for (c, _) in p.op.children_mut() {
        changed |= pass(c, ctx, stats);
    }
    // Apply rules at this node until stable.
    loop {
        let r = ctx.rules;
        // The `||` chain below fires at most one rule per iteration, so a
        // snapshot around the chain attributes exactly one firing. Taken
        // only under per-rule tracing; the normal path pays one bool test.
        let before_ops = if stats.trace {
            crate::algebra::plan_size(p)
        } else {
            0
        };
        let t0 = stats.trace.then(std::time::Instant::now);
        stats.last_rule = None;
        let fired = (r.remove_map && remove_map(p, stats))
            || (r.unnesting && insert_group_by(p, ctx, stats))
            || (r.unnesting && map_through_group_by(p, ctx, stats))
            || (r.unnesting && remove_duplicate_null(p, stats))
            || (r.join_insertion && insert_join(p, stats))
            || (r.join_insertion && insert_outer_join(p, stats))
            || (r.push_rules && push_omap_concat_into_outer_join(p, stats))
            || (r.push_rules && push_omap_concat_through_index(p, stats))
            || (r.join_insertion && insert_product(p, stats));
        if fired {
            if let Some(t0) = t0 {
                stats.events.push(RuleEvent {
                    rule: stats.last_rule.unwrap_or("unknown"),
                    before_ops,
                    after_ops: crate::algebra::plan_size(p),
                    nanos: t0.elapsed().as_nanos() as u64,
                });
            }
            changed = true;
            // Newly exposed children may enable further rewrites below this
            // node within the same pass.
            for (c, _) in p.op.children_mut() {
                pass(c, ctx, stats);
            }
        } else {
            break;
        }
    }
    changed
}

/// (remove map): `MapConcat{Op1}(([])) → Op1` when Op1 independent of IN.
fn remove_map(p: &mut Plan, stats: &mut RewriteStats) -> bool {
    let Op::MapConcat { dep, input } = &p.op else {
        return false;
    };
    if !matches!(input.op, Op::TupleTable) || uses_input(dep) {
        return false;
    }
    let Op::MapConcat { dep, .. } = std::mem::replace(&mut p.op, Op::Empty) else {
        unreachable!()
    };
    *p = *dep;
    stats.record("remove map");
    true
}

/// (insert product): `MapConcat{Op1}(Op2) → Product(Op2, Op1)` when Op1 is
/// independent of IN. Tuple-constructor deps (`let` bindings) and GroupBy
/// deps are excluded — those are handled by the group-by rules.
fn insert_product(p: &mut Plan, stats: &mut RewriteStats) -> bool {
    let Op::MapConcat { dep, input } = &p.op else {
        return false;
    };
    if matches!(input.op, Op::TupleTable) {
        return false;
    }
    if matches!(dep.op, Op::Tuple(_) | Op::GroupBy { .. }) || uses_input(dep) {
        return false;
    }
    let Op::MapConcat { dep, input } = std::mem::replace(&mut p.op, Op::Empty) else {
        unreachable!()
    };
    p.op = Op::Product(input, dep);
    stats.record("insert product");
    true
}

/// (insert join): `Select{p}(Product(l, r)) → Join{p}(l, r)`.
fn insert_join(p: &mut Plan, stats: &mut RewriteStats) -> bool {
    let Op::Select { input, .. } = &p.op else {
        return false;
    };
    if !matches!(input.op, Op::Product(..)) {
        return false;
    }
    let Op::Select { pred, input } = std::mem::replace(&mut p.op, Op::Empty) else {
        unreachable!()
    };
    let Op::Product(left, right) = input.op else {
        unreachable!()
    };
    p.op = Op::Join { pred, left, right };
    stats.record("insert join");
    true
}

/// (insert group-by): the dependent slot of a `let`-style MapConcat holds a
/// unary tuple constructor `[x : CTX(MapToItem{Op2}(Op3))]` where CTX is a
/// chain of unary item operators and Op3 is a correlated tuple stream. The
/// constructor is a trivial GroupBy in which every partition has one tuple.
fn insert_group_by(p: &mut Plan, ctx: &mut Ctx, stats: &mut RewriteStats) -> bool {
    let Op::MapConcat { dep, .. } = &p.op else {
        return false;
    };
    let Op::Tuple(fields) = &dep.op else {
        return false;
    };
    if fields.len() != 1 {
        return false;
    }
    // Walk the CTX spine down to a MapToItem.
    if !spine_reaches_correlated_map_to_item(&fields[0].1) {
        return false;
    }
    let Op::MapConcat { dep, input } = std::mem::replace(&mut p.op, Op::Empty) else {
        unreachable!()
    };
    let Op::Tuple(mut fields) = dep.op else {
        unreachable!()
    };
    let (agg_field, value) = fields.pop().expect("unary tuple");
    let null_field = ctx.fresh_field("null");
    // Split CTX(MapToItem{Op2}(Op3)).
    let (per_partition, per_item, inner) = split_spine(value);
    let gb = Plan::new(Op::GroupBy {
        agg: agg_field,
        index_fields: Vec::new(),
        null_fields: vec![null_field.clone()],
        per_partition: Box::new(per_partition),
        per_item: Box::new(per_item),
        input: Plan::boxed(Op::OMap {
            null_field,
            input: Box::new(inner),
        }),
    });
    p.op = Op::MapConcat {
        dep: Box::new(gb),
        input,
    };
    stats.record("insert group-by");
    true
}

/// Checks the spine shape CTX(MapToItem{_}(Op3)) with CTX a chain of unary
/// item operators, and Op3 using the free IN (a correlated nested block).
fn spine_reaches_correlated_map_to_item(mut v: &Plan) -> bool {
    loop {
        match &v.op {
            Op::MapToItem { input, .. } => return uses_input(input),
            Op::TypeAssert { input, .. }
            | Op::Cast { input, .. }
            | Op::TreeJoin { input, .. }
            | Op::Validate { input, .. } => v = input,
            Op::Call { args, .. } if args.len() == 1 => v = &args[0],
            _ => return false,
        }
    }
}

/// Splits `CTX(MapToItem{Op2}(Op3))` into
/// `(CTX(IN), Op2, Op3)` — the GroupBy's per-partition operator, per-item
/// operator, and input.
fn split_spine(v: Plan) -> (Plan, Plan, Plan) {
    match v.op {
        Op::MapToItem { dep, input } => (Plan::input(), *dep, *input),
        Op::TypeAssert { st, input } => {
            let (pp, pi, inner) = split_spine(*input);
            (
                Plan::new(Op::TypeAssert {
                    st,
                    input: Box::new(pp),
                }),
                pi,
                inner,
            )
        }
        Op::Cast {
            ty,
            optional,
            input,
        } => {
            let (pp, pi, inner) = split_spine(*input);
            (
                Plan::new(Op::Cast {
                    ty,
                    optional,
                    input: Box::new(pp),
                }),
                pi,
                inner,
            )
        }
        Op::TreeJoin { axis, test, input } => {
            let (pp, pi, inner) = split_spine(*input);
            (
                Plan::new(Op::TreeJoin {
                    axis,
                    test,
                    input: Box::new(pp),
                }),
                pi,
                inner,
            )
        }
        Op::Validate { mode, input } => {
            let (pp, pi, inner) = split_spine(*input);
            (
                Plan::new(Op::Validate {
                    mode,
                    input: Box::new(pp),
                }),
                pi,
                inner,
            )
        }
        Op::Call { name, mut args } => {
            let (pp, pi, inner) = split_spine(args.pop().expect("unary call"));
            (
                Plan::new(Op::Call {
                    name,
                    args: vec![pp],
                }),
                pi,
                inner,
            )
        }
        other => unreachable!("split_spine on {:?}", other.name()),
    }
}

/// (map through group-by):
/// `MapConcat{GroupBy[x,inds,nulls]{p}{i}(g)}(outer) →
///  GroupBy[x,inds+ind1,nulls+null1]{p}{i}
///      (OMapConcat[null1]{g}(MapIndexStep[ind1](outer)))`.
///
/// The `OMapConcat` variant (needed when an *outer* unnesting level already
/// wrapped this one — triple-and-deeper nestings like the Clio N3/N4
/// queries) pushes the existing null flag into the GroupBy's null list:
/// `OMapConcat[n]{GroupBy[x,inds,nulls]{p}{i}(g)}(outer) →
///  GroupBy[x,inds+ind1,nulls+n]{p}{i}
///      (OMapConcat[n]{g}(MapIndexStep[ind1](outer)))`.
/// An outer tuple whose block is empty yields one `[n:true]` row; the
/// partition skips the per-item operator and aggregates the empty sequence,
/// and the surviving `n` flag keeps enclosing GroupBys' null checks intact.
fn map_through_group_by(p: &mut Plan, ctx: &mut Ctx, stats: &mut RewriteStats) -> bool {
    let is_outer = match &p.op {
        Op::MapConcat { dep, .. } | Op::OMapConcat { dep, .. } => {
            if !matches!(dep.op, Op::GroupBy { .. }) || !uses_input(dep) {
                return false;
            }
            matches!(p.op, Op::OMapConcat { .. })
        }
        _ => return false,
    };
    let (dep, outer, existing_null) = match std::mem::replace(&mut p.op, Op::Empty) {
        Op::MapConcat { dep, input } => (dep, input, None),
        Op::OMapConcat {
            null_field,
            dep,
            input,
        } => (dep, input, Some(null_field)),
        _ => unreachable!(),
    };
    let Op::GroupBy {
        agg,
        mut index_fields,
        mut null_fields,
        per_partition,
        per_item,
        input,
    } = dep.op
    else {
        unreachable!()
    };
    let ind1 = ctx.fresh_field("index");
    index_fields.push(ind1.clone());
    let null1 = existing_null.unwrap_or_else(|| ctx.fresh_field("null"));
    null_fields.push(null1.clone());
    let indexed = Plan::new(Op::MapIndexStep {
        field: ind1,
        input: outer,
    });
    let omc = Plan::new(Op::OMapConcat {
        null_field: null1,
        dep: input,
        input: Box::new(indexed),
    });
    p.op = Op::GroupBy {
        agg,
        index_fields,
        null_fields,
        per_partition,
        per_item,
        input: Box::new(omc),
    };
    stats.record(if is_outer {
        "map through group-by (outer)"
    } else {
        "map through group-by"
    });
    true
}

/// (remove duplicate null):
/// `GroupBy[…, nulls ∋ n1,n2](OMapConcat[n1]{OMap[n2](inner)}(src))` drops
/// the inner OMap and n2.
fn remove_duplicate_null(p: &mut Plan, stats: &mut RewriteStats) -> bool {
    let Op::GroupBy {
        null_fields, input, ..
    } = &mut p.op
    else {
        return false;
    };
    let Op::OMapConcat {
        null_field: n1,
        dep,
        ..
    } = &mut input.op
    else {
        return false;
    };
    let Op::OMap { null_field: n2, .. } = &dep.op else {
        return false;
    };
    if !null_fields.contains(n1) || !null_fields.contains(n2) {
        return false;
    }
    let n2 = n2.clone();
    let Op::OMap { input: inner, .. } = std::mem::replace(&mut dep.op, Op::Empty) else {
        unreachable!()
    };
    **dep = *inner;
    null_fields.retain(|f| f != &n2);
    stats.record("remove duplicate null");
    true
}

/// (insert outer-join):
/// `OMapConcat[n]{Join{p}(IN, r)}(l) → LOuterJoin[n]{p}(l, r)` when `r` is
/// independent of IN. The degenerate predicate-free case
/// `OMapConcat[n]{Product(IN, r)}(l)` becomes a constant-true outer join,
/// which evaluates `r` once instead of per outer tuple.
fn insert_outer_join(p: &mut Plan, stats: &mut RewriteStats) -> bool {
    enum Shape {
        Join,
        Product,
    }
    let shape = {
        let Op::OMapConcat { dep, .. } = &p.op else {
            return false;
        };
        match &dep.op {
            Op::Join { left, right, .. } if matches!(left.op, Op::Input) && !uses_input(right) => {
                Shape::Join
            }
            Op::Product(left, right) if matches!(left.op, Op::Input) && !uses_input(right) => {
                Shape::Product
            }
            _ => return false,
        }
    };
    let Op::OMapConcat {
        null_field,
        dep,
        input: l,
    } = std::mem::replace(&mut p.op, Op::Empty)
    else {
        unreachable!()
    };
    let (pred, right) = match (shape, dep.op) {
        (Shape::Join, Op::Join { pred, right, .. }) => (pred, right),
        (Shape::Product, Op::Product(_, right)) => (
            Plan::boxed(Op::Scalar(xqr_xml::AtomicValue::Boolean(true))),
            right,
        ),
        _ => unreachable!(),
    };
    p.op = Op::LOuterJoin {
        null_field,
        pred,
        left: l,
        right,
    };
    stats.record("insert outer-join");
    true
}

/// (push outer-map into outer-join): when a dependent block has already
/// been partially unnested into an `LOuterJoin` whose left side still reads
/// `IN`, the surrounding `OMapConcat` can move inside — an outer join
/// preserves every left row, so "block empty" ⟺ "left input empty", and the
/// null flag transfers:
/// `OMapConcat[n]{LOuterJoin[m]{p}(l, r)}(outer) →
///  LOuterJoin[m]{p}(OMapConcat[n]{l}(outer), r)`
/// when `l` uses IN and `r` does not. Rows flagged `[n:true]` lack the
/// left-side fields; the predicate reads empty sequences and fails, so they
/// surface as `[m:true]` null rows — and `n`/`m` are both in the enclosing
/// GroupBy's null list. This is what flattens triple-and-deeper nestings
/// (Clio N3/N4) into cascades of outer joins.
fn push_omap_concat_into_outer_join(p: &mut Plan, stats: &mut RewriteStats) -> bool {
    {
        let Op::OMapConcat { dep, .. } = &p.op else {
            return false;
        };
        let Op::LOuterJoin {
            pred, left, right, ..
        } = &dep.op
        else {
            return false;
        };
        if !uses_input(left) || uses_input(right) {
            return false;
        }
        // Soundness guard: a null-padded left row (fields empty) must never
        // satisfy the predicate, or pushing would fabricate matches. A
        // general-comparison conjunct that reads left-side fields
        // guarantees this — general comparisons over () are always false,
        // and one false conjunct kills the conjunction.
        if !pred_rejects_empty_left(pred, left) {
            return false;
        }
    }
    let Op::OMapConcat {
        null_field,
        dep,
        input: outer,
    } = std::mem::replace(&mut p.op, Op::Empty)
    else {
        unreachable!()
    };
    let Op::LOuterJoin {
        null_field: m,
        pred,
        left,
        right,
    } = dep.op
    else {
        unreachable!()
    };
    let pushed = Plan::new(Op::OMapConcat {
        null_field,
        dep: left,
        input: outer,
    });
    p.op = Op::LOuterJoin {
        null_field: m,
        pred,
        left: Box::new(pushed),
        right,
    };
    stats.record("push omap into outer-join");
    true
}

/// Does some general-comparison conjunct of `pred` read fields that only
/// the (unnested) left input produces? An operand that hands the whole
/// tuple on proves nothing.
fn pred_rejects_empty_left(pred: &Plan, left: &Plan) -> bool {
    let (left_fields, _) = output_fields(left);
    if left_fields.is_empty() {
        return false;
    }
    let mut cs = Vec::new();
    conjuncts(pred, &mut cs);
    cs.iter().any(|c| {
        let Op::Call { name, args } = &c.op else {
            return false;
        };
        if !name.local_part().starts_with("fs:general-") {
            return false;
        }
        args.iter().any(|a| {
            matches!(used_input_fields(a), Some(used) if used.iter().any(|f| left_fields.contains(f)))
        })
    })
}

/// (push outer-map through index): `MapIndexStep` only promises ascending,
/// not consecutive, integers (the paper introduces it precisely to ease
/// rewritings), so per-block indexing commutes with the dependent map:
/// `OMapConcat[n]{MapIndexStep[f](x)}(outer) →
///  MapIndexStep[f](OMapConcat[n]{x}(outer))`.
fn push_omap_concat_through_index(p: &mut Plan, stats: &mut RewriteStats) -> bool {
    {
        let Op::OMapConcat { dep, .. } = &p.op else {
            return false;
        };
        if !matches!(dep.op, Op::MapIndexStep { .. }) {
            return false;
        }
    }
    let Op::OMapConcat {
        null_field,
        dep,
        input: outer,
    } = std::mem::replace(&mut p.op, Op::Empty)
    else {
        unreachable!()
    };
    let Op::MapIndexStep { field, input: x } = dep.op else {
        unreachable!()
    };
    let pushed = Plan::new(Op::OMapConcat {
        null_field,
        dep: x,
        input: outer,
    });
    p.op = Op::MapIndexStep {
        field,
        input: Box::new(pushed),
    };
    stats.record("push omap through index");
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::count_ops;
    use crate::compile::compile_expr;
    use crate::pretty::compact;
    use xqr_frontend::parser::parse_expr_str;

    fn optimized(q: &str) -> (Plan, RewriteStats) {
        let e = parse_expr_str(q).unwrap();
        let core = xqr_frontend::normalize::normalize_expr(&e);
        let mut p = compile_expr(&core);
        let stats = rewrite_plan(&mut p);
        (p, stats)
    }

    #[test]
    fn remove_map_on_top_level_flwor() {
        let (p, stats) = optimized("for $x in $s return $x");
        assert!(stats.count("remove map") >= 1);
        assert_eq!(
            count_ops(&p, &|o| matches!(o, Op::TupleTable)),
            0,
            "{}",
            compact(&p)
        );
    }

    #[test]
    fn section5_example_yields_group_by_and_outer_join() {
        // for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y
        // return $y * 10) return ($x, $a) — the Fig. 4 query.
        let (p, stats) = optimized(
            "for $x in (1,1,3) \
             let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) \
             return ($x, $a)",
        );
        assert!(stats.count("insert group-by") >= 1, "{stats:?}");
        assert!(stats.count("map through group-by") >= 1, "{stats:?}");
        assert!(stats.count("remove duplicate null") >= 1, "{stats:?}");
        assert!(stats.count("insert outer-join") >= 1, "{stats:?}");
        assert_eq!(count_ops(&p, &|o| matches!(o, Op::GroupBy { .. })), 1);
        assert_eq!(count_ops(&p, &|o| matches!(o, Op::LOuterJoin { .. })), 1);
        assert_eq!(count_ops(&p, &|o| matches!(o, Op::MapIndexStep { .. })), 1);
        assert_eq!(
            count_ops(&p, &|o| matches!(
                o,
                Op::MapConcat { .. } | Op::OMapConcat { .. }
            )),
            0,
            "fully unnested: {}",
            compact(&p)
        );
    }

    #[test]
    fn paper_q8_reaches_p2_shape() {
        // Section 2's query: P1 → P2.
        let (p, stats) = optimized(
            "for $p in $auction//person \
             let $a as element(*,Auction)* := \
                for $t in $auction//closed_auction \
                where $t/buyer/@person = $p/@id \
                return validate { $t } \
             return <item person=\"{$p/name/text()}\">{ count($a/element(*,USSeller)) }</item>",
        );
        assert!(stats.count("insert group-by") >= 1);
        assert!(stats.count("insert outer-join") >= 1);
        let Op::MapToItem { input, .. } = &p.op else {
            panic!("MapToItem root")
        };
        let Op::GroupBy {
            per_partition,
            per_item,
            input: gb_in,
            index_fields,
            null_fields,
            ..
        } = &input.op
        else {
            panic!("GroupBy under root, got {}", compact(input));
        };
        assert_eq!(index_fields.len(), 1);
        assert_eq!(null_fields.len(), 1);
        assert!(
            matches!(per_partition.op, Op::TypeAssert { .. }),
            "P2 line 7"
        );
        assert!(matches!(per_item.op, Op::Validate { .. }), "P2 line 8");
        let Op::LOuterJoin { left, right, .. } = &gb_in.op else {
            panic!("LOuterJoin under GroupBy, got {}", compact(gb_in));
        };
        assert!(matches!(left.op, Op::MapIndexStep { .. }), "P2 line 11");
        assert!(matches!(right.op, Op::MapFromItem { .. }), "P2 line 13");
    }

    #[test]
    fn uncorrelated_nested_flwor_becomes_constant_outer_join() {
        // The nested block has no predicate against the outer tuple;
        // unnesting still applies and yields a constant-true LOuterJoin,
        // which evaluates the inner block once rather than per outer tuple.
        let (p, stats) =
            optimized("for $x in $s let $a := (for $y in $t return $y) return ($x, $a)");
        assert!(stats.count("insert group-by") >= 1);
        assert!(
            stats.count("insert outer-join") >= 1,
            "{stats:?}\n{}",
            compact(&p)
        );
        let mut found_const_pred = false;
        fn walk(p: &Plan, found: &mut bool) {
            if let Op::LOuterJoin { pred, .. } = &p.op {
                if matches!(pred.op, Op::Scalar(xqr_xml::AtomicValue::Boolean(true))) {
                    *found = true;
                }
            }
            for (c, _) in p.op.children() {
                walk(c, found);
            }
        }
        walk(&p, &mut found_const_pred);
        assert!(found_const_pred, "{}", compact(&p));
    }

    #[test]
    fn independent_for_becomes_product_then_join() {
        let (p, stats) =
            optimized("for $x in $s for $y in $t where $x/@id = $y/@ref return ($x, $y)");
        assert!(stats.count("insert product") >= 1, "{stats:?}");
        assert!(stats.count("insert join") >= 1, "{stats:?}");
        assert_eq!(count_ops(&p, &|o| matches!(o, Op::Join { .. })), 1);
    }

    #[test]
    fn correlated_for_stays_dependent() {
        let (p, stats) = optimized("for $x in $s for $y in $x/item return $y");
        assert_eq!(stats.count("insert product"), 0);
        assert_eq!(
            count_ops(&p, &|o| matches!(o, Op::MapConcat { .. })),
            1,
            "{}",
            compact(&p)
        );
    }

    #[test]
    fn nested_path_variant_unnests_too() {
        // Section 4's "variant of query Q1" with a nested path instead of a
        // nested FLWOR.
        let (p, stats) = optimized(
            "for $p in $auction//person \
             let $a := $auction//closed_auction[.//@person = $p/@id] \
             return count($a)",
        );
        assert!(
            stats.count("insert group-by") >= 1,
            "{stats:?}\n{}",
            compact(&p)
        );
        assert!(stats.count("insert outer-join") >= 1, "{stats:?}");
    }

    #[test]
    fn rewriting_is_idempotent() {
        let (mut p, _) = optimized(
            "for $x in (1,1,3) \
             let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) \
             return ($x, $a)",
        );
        let again = rewrite_plan(&mut p);
        assert_eq!(again.total(), 0, "no further rewrites on an optimized plan");
    }
}
