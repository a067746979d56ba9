//! Cursor execution of the tuple operators — the one implementation of
//! every operator [`streams`] names.
//!
//! The paper runs the tuple algebra as a pull pipeline; this module is that
//! layer: a [`TupleCursor`] per streaming operator, composed into a chain so
//! that a tuple flows from the scan to the consumer without the
//! intermediate tables ever existing. Materialization happens only at
//! genuine pipeline breakers — `OrderBy`, `GroupBy`, and the build (inner)
//! side of `Product`/`Join`/`LOuterJoin` — which are evaluated all at once
//! by [`crate::eval`] and consume cursors on their streaming side. A table
//! is [`collect`] over a cursor; a row-at-a-time consumer pulls `next`; a
//! batched consumer pulls `next_batch`.
//!
//! The Core interpreter (`crate::interp`) is the independent oracle for
//! this layer. Both compute the same results; only the *interleaving* of
//! dependent-plan evaluation differs, which can change *which* of several
//! dynamic errors surfaces first (XQuery leaves that choice to the
//! implementation) and lets `MapSome`/`MapEvery` stop consuming input at
//! the first decisive tuple.

use xqr_core::algebra::{Field, Op, Plan};
use xqr_xml::axes::{self, Axis};
use xqr_xml::{Item, NodeKind, Sequence, XmlError};

use crate::compare::effective_boolean_value;
use crate::context::{Ctx, JoinAlgorithm};
use crate::eval::{eval, eval_items, eval_table};
use crate::joins::JoinProbe;
use crate::value::{InputVal, NullFlag, Table, Tuple};

/// A pull-based tuple stream. `next` yields the stream's tuples in order;
/// the dynamic context is threaded through each call because dependent
/// sub-plans evaluate lazily inside the cursor.
pub(crate) trait TupleCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>>;

    /// Pulls roughly `n` more tuples into `out` (the batched pull
    /// interface; `n` is a target — producing cursors may overshoot by
    /// one match set). Returns `Ok(true)` while the stream may have more.
    ///
    /// Error contract: tuples pulled before an error **remain in `out`**,
    /// and consumers that do per-tuple work must process them *before*
    /// surfacing the error. That protocol keeps batched execution's
    /// observable error precedence identical to the row-at-a-time
    /// interleaving: an earlier tuple's downstream error still wins over a
    /// later tuple's source error. Budgets are unaffected — every tuple is
    /// still ticked/charged individually inside the batch loop.
    fn next_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        out: &mut Table,
        n: usize,
    ) -> xqr_xml::Result<bool> {
        next_n(self, ctx, out, n)
    }
}

/// The row-at-a-time batch pull: `n` calls of `next`.
fn next_n<'p, C: TupleCursor<'p> + ?Sized>(
    cur: &mut C,
    ctx: &mut Ctx<'_>,
    out: &mut Table,
    n: usize,
) -> xqr_xml::Result<bool> {
    for _ in 0..n {
        match cur.next(ctx) {
            Some(Ok(t)) => out.push(t),
            Some(Err(e)) => return Err(e),
            None => return Ok(false),
        }
    }
    Ok(true)
}

pub(crate) type BoxCursor<'p> = Box<dyn TupleCursor<'p> + 'p>;

/// Does this operator have a streaming cursor (true) or is it a pipeline
/// breaker / non-tuple operator evaluated all at once (false)?
pub fn streams(op: &Op) -> bool {
    matches!(
        op,
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
            | Op::MapFromItem { .. }
            | Op::Cond { .. }
    )
}

/// Is this item-valued plan a path step the streaming `TreeJoin` cursor can
/// evaluate incrementally? (Forward axes only; see [`axes::streamable_axis`].)
pub fn treejoin_streams(plan: &Plan) -> bool {
    matches!(&plan.op, Op::TreeJoin { axis, .. } if axes::streamable_axis(*axis))
}

/// Does a `TreeJoin` chain contain a descendant-axis step anywhere?
fn chain_has_descendant(mut plan: &Plan) -> bool {
    while let Op::TreeJoin { axis, input, .. } = &plan.op {
        if matches!(axis, Axis::Descendant | Axis::DescendantOrSelf) {
            return true;
        }
        plan = input;
    }
    false
}

/// A chain of at least two streamable steps, at least one of them a
/// descendant axis: the inner steps' outputs feed the outer stepper
/// context-by-context and are never materialized. A lone step over a
/// materialized source gains nothing from a cursor (the evaluator's
/// set-at-a-time kernel is the same loop without indirection), and a pure
/// child/self/attribute chain has small intermediates — the per-node
/// cursor dispatch measurably loses to the eager kernels there.
pub fn treejoin_fuses(plan: &Plan) -> bool {
    matches!(&plan.op, Op::TreeJoin { axis, input, .. }
        if axes::streamable_axis(*axis) && treejoin_streams(input))
        && chain_has_descendant(plan)
}

/// Opens a cursor over a table-valued plan. Streaming operators get their
/// dedicated cursor over their (recursively opened) input; everything else
/// is evaluated to a table here and replayed.
///
/// With a profiler installed, streaming operators are wrapped in a
/// [`ProfiledCursor`] — their only recorder — attributing each pull to the
/// plan node. Breakers (the `_` arm) are excluded: they run through `eval`,
/// which records them itself. `Cond` is excluded too — it contributes no
/// cursor of its own (the chosen branch's cursor is returned directly), so
/// its time shows up on the branch.
pub(crate) fn open_cursor<'p>(
    plan: &'p Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<BoxCursor<'p>> {
    let stats = match &ctx.profiler {
        Some(p) if streams(&plan.op) && !matches!(plan.op, Op::Cond { .. }) => p.stats_for(plan),
        _ => None,
    };
    let cur = open_cursor_raw(plan, ctx, input)?;
    Ok(match stats {
        Some(stats) => {
            stats.record_open();
            Box::new(ProfiledCursor { inner: cur, stats })
        }
        None => cur,
    })
}

fn open_cursor_raw<'p>(
    plan: &'p Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<BoxCursor<'p>> {
    match &plan.op {
        Op::Select { pred, input: src } => {
            // Fusable comparison predicates run through the batched
            // kernel (counters land on the predicate's plan node).
            let stats = ctx.profiler.as_ref().and_then(|p| p.stats_for(pred));
            let kernel = crate::batch::SelectKernel::build(pred, stats);
            Ok(Box::new(SelectCursor {
                src: open_cursor(src, ctx, input)?,
                pred,
                kernel,
            }))
        }
        Op::Product(a, b) => Ok(Box::new(ProductCursor {
            left: open_cursor(a, ctx, input)?,
            right: eval_table(b, ctx, input)?,
            cur: None,
            ridx: 0,
        })),
        Op::Join { pred, left, right } => open_join(plan, pred, left, right, None, ctx, input),
        Op::LOuterJoin {
            null_field,
            pred,
            left,
            right,
        } => open_join(plan, pred, left, right, Some(null_field), ctx, input),
        Op::MapOp { dep, input: src } => Ok(Box::new(DepCursor::new(
            open_cursor(src, ctx, input)?,
            dep,
            DepMode::Replace,
        ))),
        Op::MapConcat { dep, input: src } => Ok(Box::new(DepCursor::new(
            open_cursor(src, ctx, input)?,
            dep,
            DepMode::Concat,
        ))),
        Op::OMapConcat {
            null_field,
            dep,
            input: src,
        } => Ok(Box::new(DepCursor::new(
            open_cursor(src, ctx, input)?,
            dep,
            DepMode::OuterConcat(NullFlag::new(null_field)),
        ))),
        Op::OMap {
            null_field,
            input: src,
        } => Ok(Box::new(OMapCursor {
            src: open_cursor(src, ctx, input)?,
            flag: NullFlag::new(null_field),
            emitted_any: false,
            done: false,
        })),
        Op::MapIndex { field, input: src } | Op::MapIndexStep { field, input: src } => {
            Ok(Box::new(IndexCursor {
                src: open_cursor(src, ctx, input)?,
                field,
                i: 0,
            }))
        }
        Op::MapFromItem { dep, input: src } => Ok(Box::new(MapFromItemCursor {
            src: open_item_cursor(src, ctx, input)?,
            dep,
            pending: Vec::new().into_iter(),
        })),
        // A conditional in table position streams its chosen branch.
        Op::Cond { cond, then, els } => {
            let c = eval_items(cond, ctx, input)?;
            if effective_boolean_value(&c)? {
                open_cursor(then, ctx, input)
            } else {
                open_cursor(els, ctx, input)
            }
        }
        // Pipeline breakers and the rest: evaluate fully, replay. (The
        // table's bytes were already charged at its materialization point;
        // no second charge here.)
        _ => {
            let table = eval(plan, ctx, input)?.into_table()?;
            Ok(Box::new(MaterializedCursor::new(table)))
        }
    }
}

fn open_join<'p>(
    plan: &'p Plan,
    pred: &'p Plan,
    left: &'p Plan,
    right: &'p Plan,
    outer_null: Option<&'p Field>,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<BoxCursor<'p>> {
    // The build (inner) side is a breaker: materialized and indexed up
    // front. The probe (outer) side streams.
    let stats = match &ctx.profiler {
        Some(p) => p.stats_for(plan),
        None => None,
    };
    // Past the soft watermark a splittable join runs out-of-core: both
    // sides materialize (the outer order must be recoverable across
    // partitions), the Grace join produces the full output, and the cursor
    // replays it. The result's footprint stays charged until the cursor
    // drops.
    if ctx.governor.should_spill() {
        ctx.drop_join_builds();
        let split = match ctx.join_algorithm {
            JoinAlgorithm::NestedLoop => None,
            _ => crate::joins::analyze_predicate(pred, left, right, false),
        };
        if let Some(split) = split {
            let left_table = eval_table(left, ctx, input)?;
            let right_table = eval_table(right, ctx, input)?;
            if let Some(s) = &stats {
                s.record_build();
            }
            let out = crate::spill::grace_join(
                &split,
                &left_table,
                &right_table,
                outer_null.map(NullFlag::new).as_ref(),
                ctx,
                stats.as_deref(),
            )?;
            let mut charge = xqr_xml::ByteCharge::new(&ctx.governor);
            for t in &out {
                charge.add(t.approx_bytes())?;
            }
            return Ok(Box::new(MaterializedCursor {
                iter: out.into_iter(),
                _charge: Some(charge),
            }));
        }
    }
    // A loop-invariant inner side is built by the first open and shared
    // by the rest (a correlated join under a per-partition plan opens
    // once per partition). Only a join with an `IN` in scope can open
    // again; a top-level one keeps nothing past its cursor.
    let shared =
        input.is_some() && ctx.can_share_join_builds() && crate::joins::inner_side_invariant(right);
    let profiler = &ctx.profiler;
    let stats_for = |p: &Plan| profiler.as_ref().and_then(|prof| prof.stats_for(p));
    let probe = JoinProbe::plan(pred, left, right, shared, ctx.join_algorithm, &stats_for);
    let build = match shared.then(|| ctx.shared_join_build(plan)).flatten() {
        Some(build) => build,
        None => {
            let t0 = stats.as_ref().map(|_| std::time::Instant::now());
            let right_table = eval_table(right, ctx, input)?;
            let build = std::rc::Rc::new(probe.build(right_table, ctx)?);
            if let (Some(s), Some(t0)) = (&stats, t0) {
                // Build phase: inner-side materialization plus probe-index
                // construction (the inner side's own operators also record
                // their share separately).
                s.add_build_nanos(t0.elapsed().as_nanos() as u64);
                s.record_build();
            }
            if shared {
                ctx.share_join_build(plan, build.clone());
            }
            build
        }
    };
    Ok(Box::new(JoinCursor {
        left: open_cursor(left, ctx, input)?,
        build,
        probe,
        flag: outer_null.map(NullFlag::new),
        pending: Vec::new().into_iter(),
    }))
}

/// Drains a cursor into a table, a batch at a time.
pub(crate) fn collect(mut cur: BoxCursor<'_>, ctx: &mut Ctx<'_>) -> xqr_xml::Result<Table> {
    let mut out = Table::new();
    while cur.next_batch(ctx, &mut out, crate::batch::BATCH_SIZE)? {}
    Ok(out)
}

/// Replays an already-computed table. The optional charge is the table's
/// live-byte accounting, released back to the governor when the cursor
/// drops.
pub(crate) struct MaterializedCursor {
    iter: std::vec::IntoIter<Tuple>,
    _charge: Option<xqr_xml::ByteCharge>,
}

impl MaterializedCursor {
    pub(crate) fn new(table: Table) -> MaterializedCursor {
        MaterializedCursor {
            iter: table.into_iter(),
            _charge: None,
        }
    }
}

impl<'p> TupleCursor<'p> for MaterializedCursor {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }
        self.iter.next().map(Ok)
    }
}

/// Profiling wrapper: attributes each `next()` (sampled timing, see
/// `crate::profile`) and every produced row to one plan node's stats. The
/// wrapper never ticks the governor itself — budget behavior is identical
/// with and without profiling.
struct ProfiledCursor<'p> {
    inner: BoxCursor<'p>,
    stats: std::rc::Rc<crate::profile::OpStats>,
}

impl<'p> TupleCursor<'p> for ProfiledCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        let t0 = self.stats.begin(ctx.governor.sampling_clock());
        let r = self.inner.next(ctx);
        self.stats.end(t0);
        if let Some(Ok(_)) = &r {
            self.stats.add_rows(1);
        }
        r
    }

    fn next_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        out: &mut Table,
        n: usize,
    ) -> xqr_xml::Result<bool> {
        // One exact measurement covers the whole batch; no extrapolation.
        let before = out.len();
        let t0 = std::time::Instant::now();
        let r = self.inner.next_batch(ctx, out, n);
        self.stats.add_exact_nanos(t0.elapsed().as_nanos() as u64);
        self.stats.add_rows((out.len() - before) as u64);
        self.stats.add_batches(1);
        r
    }
}

/// Item-stream analogue of [`ProfiledCursor`], wrapping the streaming
/// `TreeJoin` steppers (which never pass through `eval`, so nothing else
/// would record them).
struct ProfiledItemCursor<'p> {
    inner: BoxItemCursor<'p>,
    stats: std::rc::Rc<crate::profile::OpStats>,
}

impl<'p> ItemCursor<'p> for ProfiledItemCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Item>> {
        let t0 = self.stats.begin(ctx.governor.sampling_clock());
        let r = self.inner.next(ctx);
        self.stats.end(t0);
        if let Some(Ok(_)) = &r {
            self.stats.add_rows(1);
        }
        r
    }
}

/// `Select[pred]` — filters, evaluating the predicate with `IN` rebound.
/// A fusable comparison predicate runs through the [`crate::batch`]
/// kernel (type promotion resolved once, no per-row boolean sequence);
/// everything else evaluates the predicate plan per row.
struct SelectCursor<'p> {
    src: BoxCursor<'p>,
    pred: &'p Plan,
    kernel: Option<crate::batch::SelectKernel<'p>>,
}

impl<'p> SelectCursor<'p> {
    /// The scalar predicate: evaluate, take the effective boolean value.
    fn keep_scalar(&self, t: Tuple, ctx: &mut Ctx<'_>) -> (Tuple, xqr_xml::Result<bool>) {
        // Move the tuple into the binding and back out: no clone.
        let bound = InputVal::Tuple(t);
        let keep = crate::eval::eval_dep_items(self.pred, ctx, &bound)
            .and_then(|v| effective_boolean_value(&v));
        let InputVal::Tuple(t) = bound else {
            unreachable!()
        };
        (t, keep)
    }
}

impl<'p> TupleCursor<'p> for SelectCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }

        loop {
            let t = match self.src.next(ctx)? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            let (t, keep) = match &self.kernel {
                Some(k) => k.matches(t, ctx),
                None => self.keep_scalar(t, ctx),
            };
            match keep {
                Ok(true) => return Some(Ok(t)),
                Ok(false) => continue,
                Err(e) => return Some(Err(e)),
            }
        }
    }

    fn next_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        out: &mut Table,
        n: usize,
    ) -> xqr_xml::Result<bool> {
        let Some(kernel) = &self.kernel else {
            return next_n(self, ctx, out, n);
        };
        // Pull a source batch, then filter. A source error is surfaced
        // only after the rows pulled before it have been filtered — the
        // scalar interleaving's error precedence.
        kernel.note_batch();
        let mut batch = Table::with_capacity(n);
        let more = self.src.next_batch(ctx, &mut batch, n);
        for t in batch {
            let (t, keep) = kernel.matches(t, ctx);
            if keep? {
                ctx.governor.tick()?;
                out.push(t);
            }
        }
        more
    }
}

/// `Product` — streams the left input against a materialized right table.
struct ProductCursor<'p> {
    left: BoxCursor<'p>,
    right: Table,
    cur: Option<Tuple>,
    ridx: usize,
}

impl<'p> TupleCursor<'p> for ProductCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }

        loop {
            if let Some(lt) = &self.cur {
                if self.ridx < self.right.len() {
                    let out = lt.concat(&self.right[self.ridx]);
                    self.ridx += 1;
                    return Some(Ok(out));
                }
                self.cur = None;
            }
            match self.left.next(ctx)? {
                Ok(t) => {
                    self.cur = Some(t);
                    self.ridx = 0;
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }

    fn next_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        out: &mut Table,
        n: usize,
    ) -> xqr_xml::Result<bool> {
        let target = out.len() + n;
        if let Some(lt) = self.cur.take() {
            ctx.governor
                .charge_tuples((self.right.len() - self.ridx) as u64)?;
            for rt in &self.right[self.ridx..] {
                out.push(lt.concat(rt));
            }
            self.ridx = 0;
        }
        // Expand whole outer tuples (may overshoot the target by one
        // right-table expansion), bulk-charging each before building it.
        while out.len() < target {
            let Some(lt) = self.left.next(ctx) else {
                return Ok(false);
            };
            let lt = lt?;
            ctx.governor.charge_tuples(self.right.len() as u64)?;
            out.reserve(self.right.len());
            for rt in &self.right {
                out.push(lt.concat(rt));
            }
        }
        Ok(true)
    }
}

/// The three dependent-map shapes share one cursor; they differ only in
/// how a source tuple combines with its dependent table.
enum DepMode {
    /// `Map` — yield the dependent tuples as-is.
    Replace,
    /// `MapConcat` — yield `t ++ u` for each dependent tuple `u`.
    Concat,
    /// `OMapConcat` — like `Concat`, but an empty dependent table yields
    /// `t` extended with the true null flag (and matches get false).
    OuterConcat(NullFlag),
}

struct DepCursor<'p> {
    src: BoxCursor<'p>,
    dep: &'p Plan,
    mode: DepMode,
    /// Source tuple being expanded (`None` in `Replace` mode, which never
    /// combines it with the dependent tuples).
    cur: Option<Tuple>,
    inner: std::vec::IntoIter<Tuple>,
}

impl<'p> DepCursor<'p> {
    fn new(src: BoxCursor<'p>, dep: &'p Plan, mode: DepMode) -> DepCursor<'p> {
        DepCursor {
            src,
            dep,
            mode,
            cur: None,
            inner: Vec::new().into_iter(),
        }
    }

    /// Pulls the next source tuple and evaluates its dependent table into
    /// `inner`; `None` when the source is exhausted. In `OuterConcat` mode
    /// an empty dependent table immediately yields the null-flagged source
    /// tuple instead.
    fn advance(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Option<Tuple>>> {
        let t = match self.src.next(ctx)? {
            Ok(t) => t,
            Err(e) => return Some(Err(e)),
        };
        // `Replace` never revisits the source tuple, so it moves into
        // the binding without a clone (mirroring the eager `MapOp`).
        let bound = match self.mode {
            DepMode::Replace => InputVal::Tuple(t),
            _ => {
                let input = InputVal::Tuple(t.clone());
                self.cur = Some(t);
                input
            }
        };
        let produced = match eval(self.dep, ctx, Some(&bound)).and_then(|v| v.into_table()) {
            Ok(p) => p,
            Err(e) => return Some(Err(e)),
        };
        if produced.is_empty() {
            if let DepMode::OuterConcat(flag) = &self.mode {
                let t = self.cur.take().unwrap();
                return Some(Ok(Some(flag.unmatched(&t))));
            }
        }
        self.inner = produced.into_iter();
        Some(Ok(None))
    }

    fn combine(&self, u: Tuple) -> Tuple {
        match &self.mode {
            DepMode::Replace => u,
            DepMode::Concat => self.cur.as_ref().unwrap().concat(&u),
            DepMode::OuterConcat(flag) => flag.joined(self.cur.as_ref().unwrap(), &u),
        }
    }
}

impl<'p> TupleCursor<'p> for DepCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }

        loop {
            if let Some(u) = self.inner.next() {
                return Some(Ok(self.combine(u)));
            }
            match self.advance(ctx)? {
                Ok(None) => continue,
                Ok(Some(t)) => return Some(Ok(t)),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// `OMap` — null-flags every tuple; an empty input produces the single
/// all-null tuple.
struct OMapCursor<'p> {
    src: BoxCursor<'p>,
    flag: NullFlag,
    emitted_any: bool,
    done: bool,
}

impl<'p> TupleCursor<'p> for OMapCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }

        if self.done {
            return None;
        }
        match self.src.next(ctx) {
            Some(Ok(t)) => {
                self.emitted_any = true;
                Some(Ok(self.flag.matched(&t)))
            }
            Some(Err(e)) => Some(Err(e)),
            None => {
                self.done = true;
                if self.emitted_any {
                    None
                } else {
                    Some(Ok(self.flag.unmatched(&Tuple::empty())))
                }
            }
        }
    }
}

/// `MapIndex` / `MapIndexStep` — adds the 1-based position field.
struct IndexCursor<'p> {
    src: BoxCursor<'p>,
    field: &'p Field,
    i: i64,
}

impl<'p> TupleCursor<'p> for IndexCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }

        match self.src.next(ctx)? {
            Ok(t) => {
                self.i += 1;
                Some(Ok(t.with(self.field.clone(), Sequence::integers([self.i]))))
            }
            Err(e) => Some(Err(e)),
        }
    }

    fn next_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        out: &mut Table,
        n: usize,
    ) -> xqr_xml::Result<bool> {
        // Pull the source batch through, then annotate in place. A budget
        // trip mid-annotation keeps the rows already annotated (the
        // scalar path would have yielded exactly those) and drops the
        // rest with the error.
        let start = out.len();
        let more = self.src.next_batch(ctx, out, n);
        let mut k = start;
        while k < out.len() {
            if let Err(e) = ctx.governor.tick() {
                out.truncate(k);
                return Err(e);
            }
            self.i += 1;
            out[k] = out[k].with(self.field.clone(), Sequence::integers([self.i]));
            k += 1;
        }
        more
    }
}

/// `MapFromItem` — the items-to-tuples boundary: pulls items from an item
/// cursor (a streaming path step or a replayed sequence), streaming out
/// each item's dependent table.
struct MapFromItemCursor<'p> {
    src: BoxItemCursor<'p>,
    dep: &'p Plan,
    pending: std::vec::IntoIter<Tuple>,
}

impl<'p> TupleCursor<'p> for MapFromItemCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }

        loop {
            if let Some(t) = self.pending.next() {
                return Some(Ok(t));
            }
            let item = match self.src.next(ctx)? {
                Ok(i) => i,
                Err(e) => return Some(Err(e)),
            };
            match eval(self.dep, ctx, Some(&InputVal::Item(item))).and_then(|v| v.into_table()) {
                Ok(p) => self.pending = p.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

// ===== item cursors (streaming TreeJoin) ====================================

/// A pull-based item stream — the item-sequence analogue of [`TupleCursor`],
/// used below the items-to-tuples boundary and by the evaluator's `TreeJoin`
/// arm so multi-step paths flow node-by-node instead of materializing every
/// intermediate step result.
pub(crate) trait ItemCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Item>>;
}

pub(crate) type BoxItemCursor<'p> = Box<dyn ItemCursor<'p> + 'p>;

/// Opens an item cursor over an item-valued plan. A *fusing* path chain
/// (see [`treejoin_fuses`]) streams through the incremental steppers;
/// anything else — including lone steps and pure child/self/attribute
/// chains, where the eager kernels win — evaluates eagerly and replays.
pub(crate) fn open_item_cursor<'p>(
    plan: &'p Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<BoxItemCursor<'p>> {
    if treejoin_fuses(plan) {
        open_step_cursor(plan, ctx, input)
    } else {
        let items = eval_items(plan, ctx, input)?;
        Ok(Box::new(SeqItemCursor { items, pos: 0 }))
    }
}

/// Streaming arm of [`open_item_cursor`]: unconditionally streams any
/// streamable step (the fuse decision was made at the chain's entry; inner
/// steps of a qualifying chain must keep streaming so intermediates are
/// never built). Each step of the chain gets its own [`ProfiledItemCursor`]
/// when profiling, so per-step cardinalities are visible (a step's context
/// count is its inner step's row count).
fn open_step_cursor<'p>(
    plan: &'p Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<BoxItemCursor<'p>> {
    let stats = match &ctx.profiler {
        Some(p) => p.stats_for(plan),
        None => None,
    };
    let cur = open_step_cursor_raw(plan, ctx, input)?;
    Ok(match stats {
        Some(stats) => {
            stats.record_open();
            Box::new(ProfiledItemCursor { inner: cur, stats })
        }
        None => cur,
    })
}

fn open_step_cursor_raw<'p>(
    plan: &'p Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<BoxItemCursor<'p>> {
    if let Op::TreeJoin {
        axis,
        test,
        input: src,
    } = &plan.op
    {
        if axes::streamable_axis(*axis) {
            // `descendant-or-self` over attribute contexts is the one case
            // that can emit out of order (a "late" attribute's id exceeds
            // its element's children); prove it can't happen or fall back.
            let attr_sensitive =
                *axis == Axis::DescendantOrSelf && axes::test_can_match_attributes(*axis, test);
            let src_attr_free = matches!(&src.op, Op::TreeJoin { axis: a, test: t, .. }
                if axes::step_never_yields_attributes(*a, t));
            if treejoin_streams(src) && (!attr_sensitive || src_attr_free) {
                return Ok(Box::new(TreeJoinItemCursor::new(
                    open_step_cursor(src, ctx, input)?,
                    *axis,
                    test,
                )));
            }
            // Materialized source: validate + sort once, then stream.
            let items = eval_items(src, ctx, input)?;
            let ctxs = axes::normalize_contexts(&items)?;
            if !attr_sensitive || ctxs.iter().all(|n| n.kind() != NodeKind::Attribute) {
                return Ok(Box::new(TreeJoinItemCursor::new(
                    Box::new(NodeVecCursor {
                        nodes: ctxs.into_iter(),
                    }),
                    *axis,
                    test,
                )));
            }
            // Rare unsafe case: evaluate the step set-at-a-time, replay.
            let out =
                axes::tree_join_governed(&items, *axis, test, ctx.schema, Some(&ctx.governor))?;
            return Ok(Box::new(SeqItemCursor { items: out, pos: 0 }));
        }
    }
    let items = eval_items(plan, ctx, input)?;
    Ok(Box::new(SeqItemCursor { items, pos: 0 }))
}

/// Replays an already-computed item sequence.
struct SeqItemCursor {
    items: Sequence,
    pos: usize,
}

impl<'p> ItemCursor<'p> for SeqItemCursor {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Item>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }
        let item = self.items.get(self.pos)?.clone();
        self.pos += 1;
        Some(Ok(item))
    }
}

/// Replays a normalized (document-ordered, deduplicated) context set.
struct NodeVecCursor {
    nodes: std::vec::IntoIter<xqr_xml::NodeHandle>,
}

impl<'p> ItemCursor<'p> for NodeVecCursor {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Item>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }
        self.nodes.next().map(|n| Ok(Item::Node(n)))
    }
}

/// Streaming `TreeJoin`: pulls context nodes from the source cursor and
/// yields step results incrementally through [`axes::StepStream`], charging
/// the governor one tuple per context and per produced node (mirroring the
/// set-at-a-time kernel) so exploding steps trip the budget mid-stream.
struct TreeJoinItemCursor<'p> {
    src: BoxItemCursor<'p>,
    stream: axes::StepStream<'p>,
    src_done: bool,
}

impl<'p> TreeJoinItemCursor<'p> {
    fn new(src: BoxItemCursor<'p>, axis: Axis, test: &'p xqr_xml::NodeTest) -> Self {
        TreeJoinItemCursor {
            src,
            stream: axes::StepStream::new(axis, test),
            src_done: false,
        }
    }
}

impl<'p> ItemCursor<'p> for TreeJoinItemCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Item>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }
        loop {
            if let Some(n) = self.stream.pop(ctx.schema) {
                if let Err(e) = ctx.governor.charge_tuples(1) {
                    return Some(Err(e));
                }
                return Some(Ok(Item::Node(n)));
            }
            if self.src_done {
                return None;
            }
            match self.src.next(ctx) {
                None => {
                    self.src_done = true;
                    self.stream.finish();
                }
                Some(Ok(item)) => {
                    let Some(node) = item.as_node() else {
                        return Some(Err(XmlError::new(
                            "XPTY0020",
                            "path step applied to a non-node item",
                        )));
                    };
                    if let Err(e) = ctx.governor.charge_tuples(1) {
                        return Some(Err(e));
                    }
                    self.stream.push_context(node, ctx.schema);
                }
                Some(Err(e)) => return Some(Err(e)),
            }
        }
    }
}

/// `Join` / `LOuterJoin` — probes the build (its own, or one shared with
/// the join's other opens) with each outer tuple.
struct JoinCursor<'p> {
    left: BoxCursor<'p>,
    build: std::rc::Rc<crate::joins::JoinBuild>,
    probe: JoinProbe<'p>,
    flag: Option<NullFlag>,
    pending: std::vec::IntoIter<Tuple>,
}

impl<'p> TupleCursor<'p> for JoinCursor<'p> {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
        if let Err(e) = ctx.governor.tick() {
            return Some(Err(e));
        }

        loop {
            // `pending` holds matched tuples, flagged when they were built.
            if let Some(t) = self.pending.next() {
                return Some(Ok(t));
            }
            let lt = match self.left.next(ctx)? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            let ms = match self
                .probe
                .matches(&lt, &self.build, self.flag.as_ref(), ctx)
            {
                Ok(ms) => ms,
                Err(e) => return Some(Err(e)),
            };
            if ms.is_empty() {
                if let Some(f) = &self.flag {
                    return Some(Ok(f.unmatched(&lt)));
                }
                continue;
            }
            self.pending = ms.into_iter();
        }
    }

    fn next_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        out: &mut Table,
        n: usize,
    ) -> xqr_xml::Result<bool> {
        let target = out.len() + n;
        for t in &mut self.pending {
            out.push(t);
            if out.len() >= target {
                return Ok(true);
            }
        }
        // Probe whole outer tuples; a probe's match set is pushed intact
        // (the batch may overshoot the target by one set).
        while out.len() < target {
            let Some(lt) = self.left.next(ctx) else {
                return Ok(false);
            };
            let lt = lt?;
            let ms = self
                .probe
                .matches(&lt, &self.build, self.flag.as_ref(), ctx)?;
            ctx.governor.charge_tuples(ms.len().max(1) as u64)?;
            match &self.flag {
                Some(f) if ms.is_empty() => out.push(f.unmatched(&lt)),
                _ => out.extend(ms),
            }
        }
        Ok(true)
    }
}

/// Per-operator pipelining summary for `explain()`: which tuple operators
/// of this plan stream through the cursor layer and which materialize.
pub fn pipeline_report(plan: &Plan) -> String {
    use std::collections::BTreeMap;
    let mut streaming: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut breaking: BTreeMap<&'static str, usize> = BTreeMap::new();
    fn walk(
        p: &Plan,
        streaming: &mut BTreeMap<&'static str, usize>,
        breaking: &mut BTreeMap<&'static str, usize>,
    ) {
        match &p.op {
            // Cond appears on both sides of the boundary; don't count it.
            Op::Cond { .. } => {}
            // Path steps stream when fused into a step chain.
            Op::TreeJoin { .. } if treejoin_fuses(p) => {
                *streaming.entry(p.op.name()).or_default() += 1
            }
            op if streams(op) => *streaming.entry(op.name()).or_default() += 1,
            Op::OrderBy { .. }
            | Op::GroupBy { .. }
            | Op::TupleTable
            | Op::Tuple(_)
            | Op::TupleConcat(..) => *breaking.entry(p.op.name()).or_default() += 1,
            _ => {}
        }
        for (c, _) in p.op.children() {
            walk(c, streaming, breaking);
        }
    }
    walk(plan, &mut streaming, &mut breaking);
    let fmt = |m: &BTreeMap<&'static str, usize>| {
        if m.is_empty() {
            "none".to_string()
        } else {
            m.iter()
                .map(|(n, c)| {
                    if *c == 1 {
                        n.to_string()
                    } else {
                        format!("{n}\u{00d7}{c}")
                    }
                })
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    format!(
        "pipelined (streaming): {}\nmaterialized (breakers; Join/Product inner side also \
         materializes for the build): {}",
        fmt(&streaming),
        fmt(&breaking)
    )
}

/// Per-operator execution notes for `explain()`, preorder-aligned with the
/// plan (`Op::children()` order) for `pretty::indented_annotated` — the
/// same annotation mechanism `explain_analyze()` uses, so the static and
/// measured renderings share one plan-tree shape instead of ad-hoc
/// appended notes.
pub fn explain_annotations(plan: &Plan, algo: JoinAlgorithm) -> Vec<Option<String>> {
    // `dependent`: an `IN` is in scope here (some ancestor rebinds it).
    fn walk(p: &Plan, algo: JoinAlgorithm, dependent: bool, out: &mut Vec<Option<String>>) {
        let note = match &p.op {
            Op::Cond { .. } => None,
            Op::TreeJoin { .. } if treejoin_fuses(p) => {
                Some("streams (fused step chain)".to_string())
            }
            Op::TreeJoin { .. } => None,
            Op::Join {
                pred, left, right, ..
            }
            | Op::LOuterJoin {
                pred, left, right, ..
            } => Some(format!(
                "streams probe side; {}",
                crate::joins::describe(pred, left, right, algo, dependent)
            )),
            Op::Product(..) => {
                Some("streams probe side; inner side materializes for the build".to_string())
            }
            Op::Select { pred, .. } if xqr_core::fuse::fusable_comparison(pred).is_some() => {
                Some("streams; batched comparison kernel".to_string())
            }
            op if streams(op) => Some("streams".to_string()),
            Op::OrderBy { .. } | Op::GroupBy { .. } => {
                Some("materializes (pipeline breaker)".to_string())
            }
            _ => None,
        };
        out.push(note);
        for (c, kind) in p.op.children() {
            let rebinds = kind == xqr_core::algebra::ChildKind::Rebinds;
            walk(c, algo, dependent || rebinds, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, algo, false, &mut out);
    out
}
