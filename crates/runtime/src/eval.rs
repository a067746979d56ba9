//! The plan evaluator: the XML operators, the pipeline breakers
//! (`OrderBy`, `GroupBy`, tuple construction) and the tuples-to-items
//! boundaries. The streaming tuple operators live in [`crate::pipeline`];
//! here a table is always [`pipeline::collect`] over a cursor.

use std::collections::HashMap;

use xqr_core::algebra::{NamePlan, Op, OrderSpecPlan, Plan};
use xqr_types::validate_sequence;
use xqr_xml::axes::tree_join_cached;
use xqr_xml::{AtomicValue, Item, QName, Sequence, SequenceBuilder, TreeBuilder, XmlError};

use crate::compare::{atomize_optional, effective_boolean_value, order_key_compare};
use crate::context::Ctx;
use crate::functions::{call_builtin, is_builtin, BuiltinCtx};
use crate::groupby::execute_group_by_streaming;
use crate::pipeline;
use crate::value::{InputVal, Table, Tuple, Value};

/// Evaluates a module: globals in declaration order, then the body.
///
/// External globals are the plan's parameters: a caller-supplied binding
/// (already in `ctx.globals`) wins and is checked against the declared
/// type; otherwise the compiled default plan runs; otherwise `XPDY0002`.
pub fn eval_module(ctx: &mut Ctx<'_>) -> xqr_xml::Result<Sequence> {
    // Globals run from the module's own plans (not per-run clones), so
    // their nodes keep one address all run: `Ctx::shared_join_build` keys
    // on it.
    let module = ctx.module;
    for g in &module.globals {
        if g.external {
            if let Some(bound) = ctx.globals.get(&g.name) {
                if let Some(st) = &g.as_type {
                    if !st.matches(bound, ctx.schema) {
                        return Err(XmlError::new(
                            "XPTY0004",
                            format!(
                                "value bound to external variable ${} does not \
                                 match its declared type {st}",
                                g.name
                            ),
                        ));
                    }
                }
                continue;
            }
            let Some(p) = &g.plan else {
                return Err(XmlError::new(
                    "XPDY0002",
                    format!("external variable ${} was not bound", g.name),
                ));
            };
            let v = eval_plan(p, ctx)?;
            ctx.globals.insert(g.name.clone(), v);
        } else if let Some(p) = &g.plan {
            let v = eval_plan(p, ctx)?;
            ctx.globals.insert(g.name.clone(), v);
        }
    }
    let body = ctx.module.body.clone();
    // The profiler keys stats by node address over this exact clone; the
    // clone outlives evaluation, so registered addresses stay valid for
    // the whole run (globals and per-call function bodies run unprofiled).
    if let Some(p) = &ctx.profiler {
        p.register(&body);
    }
    eval_plan(&body, ctx)
}

/// Evaluates a plan with no `IN` in scope, expecting an item sequence.
pub fn eval_plan(plan: &Plan, ctx: &mut Ctx<'_>) -> xqr_xml::Result<Sequence> {
    eval(plan, ctx, None)?.into_items()
}

/// Evaluates a dependent sub-plan with the given `IN`, as items.
pub fn eval_dep_items(
    plan: &Plan,
    ctx: &mut Ctx<'_>,
    input: &InputVal,
) -> xqr_xml::Result<Sequence> {
    eval(plan, ctx, Some(input))?.into_items()
}

pub(crate) fn eval_items(
    plan: &Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<Sequence> {
    eval(plan, ctx, input)?.into_items()
}

/// Evaluates a table-valued plan. A streaming chain materializes once,
/// here: its cursor is opened and drained. A breaker's `eval_inner` arm
/// already returns the table (replaying it through a cursor would only
/// copy it).
pub(crate) fn eval_table(
    plan: &Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<Table> {
    let table = if pipeline::streams(&plan.op) {
        let cur = pipeline::open_cursor(plan, ctx, input)?;
        pipeline::collect(cur, ctx)?
    } else {
        eval(plan, ctx, input)?.into_table()?
    };
    // Every materialized intermediate passes through here; the byte budget
    // counts their cumulative footprint, and the profiler records the
    // largest single materialization per operator. Skipped entirely when
    // neither is on.
    if ctx.governor.has_byte_budget() {
        // The budget needs the real footprint: full walk, and the profiler
        // reuses the exact figure for free.
        let mut n = 0u64;
        for t in &table {
            n += t.approx_bytes();
        }
        if let Some(s) = ctx.profiler.as_ref().and_then(|p| p.stats_for(plan)) {
            s.record_peak_bytes(n);
        }
        ctx.governor.charge_bytes(n)?;
    } else if let Some(s) = ctx.profiler.as_ref().and_then(|p| p.stats_for(plan)) {
        // Profiler only: estimate from a bounded prefix — a full
        // `approx_bytes` walk of a large join input costs more than the
        // operator being measured.
        const PEAK_SAMPLE: usize = 64;
        let mut n = 0u64;
        for t in table.iter().take(PEAK_SAMPLE) {
            n += t.approx_bytes();
        }
        if table.len() > PEAK_SAMPLE {
            n = n * table.len() as u64 / PEAK_SAMPLE as u64;
        }
        s.record_peak_bytes(n);
    }
    Ok(table)
}

/// Is this operator recorded by [`eval`]? The breakers, path steps, the
/// tuples-to-items boundaries, calls and node constructors — the nodes
/// evaluated here where cardinality and time attribution is meaningful (a
/// constructor's self time is its finish-then-copy of the content). The
/// streaming tuple operators are absent: their cursor's `ProfiledCursor`
/// is their only recorder. Leaf scalar/variable/field plans stay out too:
/// they evaluate per tuple inside dependent sub-plans, where wrapping
/// each `eval` would cost more than the work being measured.
fn profiled_op(op: &Op) -> bool {
    matches!(
        op,
        Op::Element { .. }
            | Op::Attribute { .. }
            | Op::Text(_)
            | Op::DocumentNode(_)
            | Op::Comment(_)
            | Op::Pi { .. }
            | Op::MapToItem { .. }
            | Op::MapSome { .. }
            | Op::MapEvery { .. }
            | Op::OrderBy { .. }
            | Op::GroupBy { .. }
            | Op::TreeJoin { .. }
            | Op::Cond { .. }
            | Op::TupleConcat(..)
            | Op::Call { .. }
    )
}

/// Profiling dispatcher around [`eval_inner`]. With no profiler installed
/// this is one `Option` branch. With one installed, instrumented operators
/// record an invocation (sampled timing) and the rows of their result —
/// except a fused `TreeJoin`, whose work the streaming item cursor layer
/// records instead (the arm below merely drains that cursor, and timing it
/// here too would double-count the node).
pub(crate) fn eval(
    plan: &Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<Value> {
    let stats = match &ctx.profiler {
        Some(p) if profiled_op(&plan.op) && !pipeline::treejoin_fuses(plan) => p.stats_for(plan),
        _ => None,
    };
    let Some(stats) = stats else {
        return eval_inner(plan, ctx, input);
    };
    let t0 = stats.begin(ctx.governor.sampling_clock());
    let r = eval_inner(plan, ctx, input);
    stats.end(t0);
    if let Ok(v) = &r {
        stats.add_rows(v.row_count());
    }
    r
}

fn eval_inner(plan: &Plan, ctx: &mut Ctx<'_>, input: Option<&InputVal>) -> xqr_xml::Result<Value> {
    match &plan.op {
        // ===== XML operators ==================================================
        Op::Sequence(items) => {
            let mut out = SequenceBuilder::new();
            for i in items {
                out.push(eval_items(i, ctx, input)?);
            }
            Ok(Value::Items(out.finish()))
        }
        Op::Empty => Ok(Value::empty_items()),
        Op::Scalar(v) => Ok(Value::Items(Sequence::singleton(v.clone()))),
        Op::Element { name, content } => {
            let q = resolve_name(name, ctx, input)?;
            let items = eval_items(content, ctx, input)?;
            Ok(Value::Items(Sequence::singleton(construct_element(
                &q, &items,
            )?)))
        }
        Op::Attribute { name, content } => {
            let q = resolve_name(name, ctx, input)?;
            let items = eval_items(content, ctx, input)?;
            Ok(Value::Items(Sequence::singleton(construct_attribute(
                &q, &items,
            )?)))
        }
        Op::Text(c) => {
            let items = eval_items(c, ctx, input)?;
            Ok(Value::Items(construct_text(&items)?))
        }
        Op::Comment(c) => {
            let items = eval_items(c, ctx, input)?;
            let mut b = TreeBuilder::new();
            b.comment(&joined_string(&items));
            Ok(Value::Items(Sequence::singleton(b.finish(None).root())))
        }
        Op::Pi { target, content } => {
            let items = eval_items(content, ctx, input)?;
            let mut b = TreeBuilder::new();
            b.pi(target, &joined_string(&items));
            Ok(Value::Items(Sequence::singleton(b.finish(None).root())))
        }
        Op::DocumentNode(c) => {
            let items = eval_items(c, ctx, input)?;
            let mut b = TreeBuilder::new();
            b.start_document();
            copy_content(&mut b, &items)?;
            b.end_document();
            Ok(Value::Items(Sequence::singleton(
                b.try_finish(None)?.root(),
            )))
        }
        Op::TreeJoin {
            axis,
            test,
            input: src,
        } => {
            // A fused step chain streams node-by-node: inner step outputs
            // feed the outer stepper without materializing the intermediate
            // sequence. A lone step runs the set-at-a-time kernel directly.
            if pipeline::treejoin_fuses(plan) {
                let mut cur = pipeline::open_item_cursor(plan, ctx, input)?;
                let mut out = SequenceBuilder::new();
                while let Some(r) = cur.next(ctx) {
                    out.push_item(r?);
                }
                Ok(Value::Items(out.finish()))
            } else {
                let items = eval_items(src, ctx, input)?;
                if let Some(s) = match &ctx.profiler {
                    Some(p) => p.stats_for(plan),
                    None => None,
                } {
                    // One kernel dispatch per context node fed to the
                    // set-at-a-time stepper.
                    s.add_kernel_dispatches(items.len() as u64);
                }
                // Per-site compiled-test cache: this arm runs once per row
                // when the step sits inside a dependent plan, and the test
                // compilation (name interning) would otherwise repeat.
                let cache = ctx.step_cache(plan);
                let stepped = tree_join_cached(
                    &items,
                    *axis,
                    test,
                    ctx.schema,
                    Some(&ctx.governor),
                    &mut cache.borrow_mut(),
                )?;
                Ok(Value::Items(stepped))
            }
        }
        Op::Cast {
            ty,
            optional,
            input: src,
        } => {
            let items = eval_items(src, ctx, input)?;
            match atomize_optional(&items)? {
                Some(a) => Ok(Value::Items(Sequence::singleton(xqr_types::cast_atomic(
                    &a, *ty,
                )?))),
                None if *optional => Ok(Value::empty_items()),
                None => Err(XmlError::new("XPTY0004", "cast of an empty sequence")),
            }
        }
        Op::Castable {
            ty,
            optional,
            input: src,
        } => {
            let items = eval_items(src, ctx, input)?;
            let ok = match atomize_optional(&items) {
                Ok(Some(a)) => xqr_types::cast_atomic(&a, *ty).is_ok(),
                Ok(None) => *optional,
                Err(_) => false,
            };
            Ok(Value::Items(Sequence::singleton(AtomicValue::Boolean(ok))))
        }
        Op::Validate { mode, input: src } => {
            let items = eval_items(src, ctx, input)?;
            Ok(Value::Items(validate_sequence(&items, ctx.schema, *mode)?))
        }
        Op::TypeMatches { st, input: src } => {
            let items = eval_items(src, ctx, input)?;
            Ok(Value::Items(Sequence::singleton(AtomicValue::Boolean(
                st.matches(&items, ctx.schema),
            ))))
        }
        Op::TypeAssert { st, input: src } => {
            let items = eval_items(src, ctx, input)?;
            Ok(Value::Items(st.assert(&items, ctx.schema)?))
        }
        Op::Var(q) => Ok(Value::Items(ctx.lookup_var(q)?)),
        Op::Call { name, args } => {
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval_items(a, ctx, input)?);
            }
            call_function(name, argv, ctx)
        }
        Op::Cond { cond, then, els } => {
            let c = eval_items(cond, ctx, input)?;
            if effective_boolean_value(&c)? {
                eval(then, ctx, input)
            } else {
                eval(els, ctx, input)
            }
        }
        Op::Parse { uri } => {
            let u = eval_items(uri, ctx, input)?;
            let s = u
                .get(0)
                .map(|i| i.string_value())
                .ok_or_else(|| XmlError::new("FODC0002", "empty document URI"))?;
            Ok(Value::Items(Sequence::singleton(ctx.resolve_document(&s)?)))
        }
        Op::Serialize { input: src } => {
            let items = eval_items(src, ctx, input)?;
            Ok(Value::Items(Sequence::singleton(AtomicValue::string(
                xqr_xml::serialize_sequence(&items),
            ))))
        }

        // ===== Tuple operators ================================================
        Op::Input => match input {
            None => Err(XmlError::new(
                "XQRT0007",
                "IN referenced outside a dependent operator",
            )),
            Some(InputVal::Tuple(t)) => Ok(Value::Table(vec![t.clone()])),
            Some(InputVal::Item(i)) => Ok(Value::Items(Sequence::singleton(i.clone()))),
            Some(InputVal::Items(s)) => Ok(Value::Items(s.clone())),
        },
        Op::TupleTable => Ok(Value::Table(vec![Tuple::empty()])),
        Op::Tuple(fields) => {
            let mut fs = Vec::with_capacity(fields.len());
            for (f, v) in fields {
                fs.push((f.clone(), eval_items(v, ctx, input)?));
            }
            Ok(Value::Table(vec![Tuple::from_fields(fs)]))
        }
        Op::TupleConcat(a, b) => {
            let ta = eval_table(a, ctx, input)?;
            let tb = eval_table(b, ctx, input)?;
            match (ta.len(), tb.len()) {
                (1, 1) => Ok(Value::Table(vec![ta[0].concat(&tb[0])])),
                _ => Err(XmlError::new("XQRT0008", "++ expects single tuples")),
            }
        }
        Op::FieldAccess { field, input: src } => {
            if matches!(src.op, Op::Input) {
                // Fast path: IN#q.
                match input {
                    Some(InputVal::Tuple(t)) => return Ok(Value::Items(t.get(field))),
                    _ => {
                        return Err(XmlError::new(
                            "XQRT0009",
                            format!("IN#{field} used where IN is not a tuple"),
                        ))
                    }
                }
            }
            let t = eval_table(src, ctx, input)?;
            if t.len() != 1 {
                return Err(XmlError::new("XQRT0009", "#field on a non-singleton table"));
            }
            Ok(Value::Items(t[0].get(field)))
        }
        // The streaming operators: one implementation each, in the cursor
        // layer (a table-position `Cond` streams there too; the arm above
        // serves item-valued conditionals).
        Op::Select { .. }
        | Op::Product(..)
        | Op::Join { .. }
        | Op::LOuterJoin { .. }
        | Op::MapOp { .. }
        | Op::OMap { .. }
        | Op::MapConcat { .. }
        | Op::OMapConcat { .. }
        | Op::MapIndex { .. }
        | Op::MapIndexStep { .. }
        | Op::MapFromItem { .. } => Ok(Value::Table(eval_table(plan, ctx, input)?)),
        Op::OrderBy { specs, input: src } => {
            let table = eval_table(src, ctx, input)?;
            if ctx.governor.should_spill() {
                let stats = match &ctx.profiler {
                    Some(p) => p.stats_for(plan),
                    None => None,
                };
                return Ok(Value::Table(crate::spill::external_sort(
                    specs,
                    table,
                    ctx,
                    stats.as_deref(),
                )?));
            }
            Ok(Value::Table(order_by(specs, table, ctx)?))
        }
        Op::GroupBy {
            agg,
            index_fields,
            null_fields,
            per_partition,
            per_item,
            input: src,
        } => {
            // GroupBy breaks the pipeline on its output, but *consumes* its
            // input tuple-by-tuple, hash-partitioning on the fly — the
            // grouped table (typically a join output, the largest
            // intermediate of the unnesting pipeline) is never stored or
            // sorted.
            let stats = match &ctx.profiler {
                Some(p) => p.stats_for(plan),
                None => None,
            };
            let mut cur = pipeline::open_cursor(src, ctx, input)?;
            Ok(Value::Table(execute_group_by_streaming(
                agg,
                index_fields,
                null_fields,
                per_partition,
                per_item,
                &mut *cur,
                ctx,
                stats.as_deref(),
            )?))
        }

        // ===== Boundary operators =============================================
        Op::MapToItem { dep, input: src } => {
            // The tuples-to-items boundary: the source feeds the output
            // builder straight from its cursor — its table never exists.
            let mut out = SequenceBuilder::new();
            let mut cur = pipeline::open_cursor(src, ctx, input)?;
            if input.is_none() {
                // Top-level boundary: the stream is long enough to
                // amortize the batch buffer. (Dependent-position
                // `MapToItem`s run per outer row over tiny streams, where
                // the per-call buffer costs more than the loop it saves —
                // those stay row-at-a-time below.)
                let mut batch = Table::new();
                loop {
                    batch.clear();
                    let more = cur.next_batch(ctx, &mut batch, crate::batch::BATCH_SIZE);
                    // Tuples pulled before a source error must be processed
                    // first: a downstream error from an earlier tuple takes
                    // precedence over the source's later one, exactly as in
                    // the row-at-a-time loop.
                    for t in batch.drain(..) {
                        out.push(eval_dep_items(dep, ctx, &InputVal::Tuple(t))?);
                    }
                    if !more? {
                        break;
                    }
                }
            } else {
                while let Some(t) = cur.next(ctx) {
                    out.push(eval_dep_items(dep, ctx, &InputVal::Tuple(t?))?);
                }
            }
            Ok(Value::Items(out.finish()))
        }
        // The quantifiers short-circuit for real: the source stops
        // producing at the first decisive tuple.
        Op::MapSome { dep, input: src } => quantify(dep, src, true, ctx, input),
        Op::MapEvery { dep, input: src } => quantify(dep, src, false, ctx, input),
    }
}

/// `MapSome` (`decisive = true`) / `MapEvery` (`decisive = false`): pulls
/// source tuples until one's dependent predicate equals `decisive`; the
/// result is `decisive` if such a tuple exists and its negation otherwise.
fn quantify(
    dep: &Plan,
    src: &Plan,
    decisive: bool,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<Value> {
    let mut result = !decisive;
    let mut cur = pipeline::open_cursor(src, ctx, input)?;
    while let Some(t) = cur.next(ctx) {
        let v = eval_dep_items(dep, ctx, &InputVal::Tuple(t?))?;
        if effective_boolean_value(&v)? == decisive {
            result = decisive;
            break;
        }
    }
    Ok(Value::Items(Sequence::singleton(AtomicValue::Boolean(
        result,
    ))))
}

fn call_function(name: &QName, argv: Vec<Sequence>, ctx: &mut Ctx<'_>) -> xqr_xml::Result<Value> {
    let local = name.local_part();
    if is_builtin(local) {
        let bctx = BuiltinCtx {
            documents: Some(ctx.documents),
        };
        return Ok(Value::Items(call_builtin(local, &argv, &bctx)?));
    }
    // User-defined function from the algebra context.
    let func = ctx
        .module
        .functions
        .get(name)
        .cloned()
        .ok_or_else(|| XmlError::new("XPST0017", format!("unknown function {name}()")))?;
    if func.params.len() != argv.len() {
        return Err(XmlError::new(
            "XPST0017",
            format!("{name}() expects {} arguments", func.params.len()),
        ));
    }
    let mut frame = HashMap::new();
    for ((p, v), ty) in func.params.iter().zip(argv).zip(func.param_types.iter()) {
        if let Some(st) = ty {
            st.assert(&v, ctx.schema)?;
        }
        frame.insert(p.clone(), v);
    }
    ctx.push_frame(frame)?;
    let result = eval(&func.body, ctx, None);
    ctx.pop_frame();
    let v = result?.into_items()?;
    if let Some(st) = &func.return_type {
        st.assert(&v, ctx.schema)?;
    }
    Ok(Value::Items(v))
}

fn order_by(specs: &[OrderSpecPlan], table: Table, ctx: &mut Ctx<'_>) -> xqr_xml::Result<Table> {
    // Precompute keys (one pass), then stable sort.
    let mut keyed: Vec<(Vec<Sequence>, Tuple)> = Vec::with_capacity(table.len());
    for t in table {
        ctx.governor.tick()?;
        let mut keys = Vec::with_capacity(specs.len());
        for s in specs {
            keys.push(eval_dep_items(&s.key, ctx, &InputVal::Tuple(t.clone()))?);
        }
        keyed.push((keys, t));
    }
    let mut err: Option<XmlError> = None;
    keyed.sort_by(|a, b| {
        for (i, s) in specs.iter().enumerate() {
            match order_key_compare(&a.0[i], &b.0[i], s.empty_least) {
                Ok(ord) => {
                    let ord = if s.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                Err(e) => {
                    if err.is_none() {
                        err = Some(e);
                    }
                    return std::cmp::Ordering::Equal;
                }
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok(keyed.into_iter().map(|(_, t)| t).collect())
}

fn resolve_name(
    name: &NamePlan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<QName> {
    match name {
        NamePlan::Static(q) => Ok(q.clone()),
        NamePlan::Dynamic(p) => {
            let items = eval_items(p, ctx, input)?;
            let a = atomize_optional(&items)?
                .ok_or_else(|| XmlError::new("XPTY0004", "empty constructor name"))?;
            match a {
                AtomicValue::QName(q) => Ok(q),
                other => {
                    let s = other.string_value();
                    match s.split_once(':') {
                        Some((p, l)) => Ok(QName::full(Some(p), None, l)),
                        None => Ok(QName::local(&s)),
                    }
                }
            }
        }
    }
}

fn joined_string(items: &Sequence) -> String {
    items
        .atomized()
        .iter()
        .map(|a| a.string_value())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Element construction: copies content (fresh node identities), merging
/// adjacent atomic values into space-separated text, attributes collected
/// onto the element. Exposed for reuse by the Core interpreter.
pub fn construct_element(name: &QName, items: &Sequence) -> xqr_xml::Result<Item> {
    let mut b = TreeBuilder::new();
    b.start_element(name.clone());
    copy_content(&mut b, items)?;
    b.end_element();
    Ok(Item::Node(b.try_finish(None)?.root()))
}

/// Attribute construction per the spec: value is the space-joined string
/// value of the atomized content.
pub fn construct_attribute(name: &QName, items: &Sequence) -> xqr_xml::Result<Item> {
    let mut b = TreeBuilder::new();
    b.attribute(name.clone(), &joined_string(items));
    Ok(Item::Node(b.try_finish(None)?.root()))
}

/// Text-node construction; empty content constructs no node.
pub fn construct_text(items: &Sequence) -> xqr_xml::Result<Sequence> {
    if items.is_empty() {
        return Ok(Sequence::empty());
    }
    let mut b = TreeBuilder::new();
    b.start_element(QName::local("#wrap"));
    b.text(&joined_string(items));
    b.end_element();
    let doc = b.try_finish(None)?;
    let wrap = doc.root();
    let children = wrap.children();
    if children.is_empty() {
        return Ok(Sequence::empty());
    }
    Ok(Sequence::singleton(children[0].clone()))
}

fn copy_content(b: &mut TreeBuilder, items: &Sequence) -> xqr_xml::Result<()> {
    let mut pending_text = String::new();
    let mut prev_atomic = false;
    for item in items.iter() {
        match item {
            Item::Atomic(a) => {
                if prev_atomic {
                    pending_text.push(' ');
                }
                pending_text.push_str(&a.string_value());
                prev_atomic = true;
            }
            Item::Node(n) => {
                if !pending_text.is_empty() {
                    b.text(&pending_text);
                    pending_text.clear();
                }
                prev_atomic = false;
                b.copy_node(n);
            }
        }
    }
    if !pending_text.is_empty() {
        b.text(&pending_text);
    }
    Ok(())
}
