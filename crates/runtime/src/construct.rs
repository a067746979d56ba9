//! Node construction (XQuery 1.0 §3.7): the constructor operators
//! (`Element`, `Attribute`, `Text`, `Comment`, `Pi`, `DocumentNode`).
//!
//! **Write once.** An element constructor writes its content straight
//! into one [`TreeBuilder`]. A constructor that sits directly in that
//! content — reached through `Sequence`s only, with no variable, field or
//! function call in between — opens, fills and closes its node in the
//! parent's arena, where the node stays. The rule is syntactic, so the
//! node is one that nothing else can see and identity is unchanged. Every
//! other content expression is evaluated to items, and its nodes are
//! deep-copied (fresh identity, shared strings: [`TreeBuilder::copy_node`]).
//!
//! The Core interpreter builds through [`construct_element`] (which
//! finishes each element and copies it into its parent) and
//! [`construct_document`]. The oracle shares only the content rules
//! (`Content`), never the plan walk.

use xqr_core::algebra::{NamePlan, Op, Plan};
use xqr_xml::{AtomicValue, Item, NodeHandle, NodeKind, QName, Sequence, TreeBuilder, XmlError};

use crate::compare::atomize_optional;
use crate::context::Ctx;
use crate::eval::eval_items;
use crate::value::{InputVal, Value};

/// Evaluates a constructor operator at the top of its tree: the node gets
/// a document of its own.
pub(crate) fn construct_node(
    plan: &Plan,
    ctx: &mut Ctx<'_>,
    input: Option<&InputVal>,
) -> xqr_xml::Result<Value> {
    if let Op::DocumentNode(c) = &plan.op {
        let doc = construct_document(&eval_items(c, ctx, input)?)?;
        return Ok(Value::Items(Sequence::singleton(doc)));
    }
    let mut w = Content::new();
    if w.construct(plan, ctx, input)? == 0 {
        return Ok(Value::empty_items());
    }
    Ok(Value::Items(Sequence::singleton(w.finish()?)))
}

/// Document construction over evaluated content, under the element
/// content rules (§3.7.3.3): adjacent atomic values join with one space.
pub fn construct_document(items: &Sequence) -> xqr_xml::Result<Item> {
    let mut w = Content::new();
    w.b.start_document();
    w.items(items);
    w.flush_text();
    w.b.end_document();
    w.finish()
}

/// Element construction over evaluated content: copies content (fresh
/// node identities), merging adjacent atomic values into space-separated
/// text, attributes collected onto the element. The Core interpreter's
/// constructor.
pub fn construct_element(name: &QName, items: &Sequence) -> xqr_xml::Result<Item> {
    let mut w = Content::new();
    let outer = w.start_element(name.clone());
    w.items(items);
    w.end_element(outer)?;
    w.finish()
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
    let s = joined_string(items);
    if s.is_empty() {
        return Ok(Sequence::empty());
    }
    let mut b = TreeBuilder::new();
    b.text(&s);
    Ok(Sequence::singleton(b.try_finish(None)?.root()))
}

/// The content of the element (or document) open in a builder, under
/// XQuery 1.0 §3.7.1.3: adjacent atomic values join with one space into
/// one text node, adjacent text nodes merge, and an attribute that
/// follows other content is `XQTY0024`.
struct Content {
    b: TreeBuilder,
    /// Atomic values not yet written.
    text: String,
    prev_atomic: bool,
    /// An attribute followed other content of the open element. Raised
    /// when the element closes — after all of its content is evaluated,
    /// where finish-then-copy raises it too — so a later content error
    /// still comes first.
    misplaced_attribute: bool,
}

impl Content {
    fn new() -> Content {
        Content {
            b: TreeBuilder::new(),
            text: String::new(),
            prev_atomic: false,
            misplaced_attribute: false,
        }
    }

    fn finish(self) -> xqr_xml::Result<Item> {
        Ok(Item::Node(self.b.try_finish(None)?.root()))
    }

    fn flush_text(&mut self) {
        if !self.text.is_empty() {
            self.b.text(&self.text);
            self.text.clear();
        }
    }

    /// A node boundary in the content: the pending text run ends.
    fn node_boundary(&mut self) {
        self.flush_text();
        self.prev_atomic = false;
    }

    /// Opens an element; the result is the enclosing element's
    /// misplaced-attribute flag, for `end_element`.
    fn start_element(&mut self, name: QName) -> bool {
        self.node_boundary();
        self.b.start_element(name);
        std::mem::take(&mut self.misplaced_attribute)
    }

    fn end_element(&mut self, outer: bool) -> xqr_xml::Result<()> {
        if self.misplaced_attribute {
            return Err(XmlError::new(
                "XQTY0024",
                "an attribute node follows other content of its element",
            ));
        }
        self.node_boundary();
        self.b.end_element();
        self.misplaced_attribute = outer;
        Ok(())
    }

    /// Whether an attribute written now would follow other content (the
    /// element then fails when it closes, and the attribute is dropped).
    fn attribute_is_misplaced(&mut self) -> bool {
        if !self.text.is_empty() || self.b.element_has_children() {
            self.misplaced_attribute = true;
        }
        self.misplaced_attribute
    }

    fn atomic(&mut self, a: &AtomicValue) {
        if self.prev_atomic {
            self.text.push(' ');
        }
        self.text.push_str(&a.string_value());
        self.prev_atomic = true;
    }

    fn copy(&mut self, n: &NodeHandle) {
        if n.kind() == NodeKind::Attribute && self.attribute_is_misplaced() {
            return;
        }
        self.node_boundary();
        self.b.copy_node(n);
    }

    /// Evaluated content: atomics into the text run, nodes copied.
    fn items(&mut self, items: &Sequence) {
        for item in items.iter() {
            match item {
                Item::Atomic(a) => self.atomic(a),
                Item::Node(n) => self.copy(n),
            }
        }
    }

    /// Writes the content plan of the open element, in order.
    fn write(
        &mut self,
        plan: &Plan,
        ctx: &mut Ctx<'_>,
        input: Option<&InputVal>,
    ) -> xqr_xml::Result<()> {
        match &plan.op {
            Op::Sequence(parts) => {
                for p in parts {
                    self.write(p, ctx, input)?;
                }
                Ok(())
            }
            Op::Element { .. }
            | Op::Attribute { .. }
            | Op::Text(_)
            | Op::Comment(_)
            | Op::Pi { .. } => {
                // Written in place, the constructor keeps its own EXPLAIN
                // ANALYZE line: one call, and a row per node it writes.
                let stats = ctx.profiler.as_ref().and_then(|p| p.stats_for(plan));
                let t0 = stats
                    .as_ref()
                    .and_then(|s| s.begin(ctx.governor.sampling_clock()));
                let r = self.construct(plan, ctx, input);
                if let Some(s) = &stats {
                    s.end(t0);
                    if let Ok(rows) = &r {
                        s.add_rows(*rows);
                    }
                }
                r.map(drop)
            }
            _ => {
                let items = eval_items(plan, ctx, input)?;
                self.items(&items);
                Ok(())
            }
        }
    }

    /// Writes one constructor's node into the builder: the name first,
    /// then the content. Returns the nodes written (a text constructor
    /// over empty content writes none).
    fn construct(
        &mut self,
        plan: &Plan,
        ctx: &mut Ctx<'_>,
        input: Option<&InputVal>,
    ) -> xqr_xml::Result<u64> {
        match &plan.op {
            Op::Element { name, content } => {
                let q = resolve_name(name, ctx, input)?;
                let outer = self.start_element(q);
                self.write(content, ctx, input)?;
                self.end_element(outer)?;
            }
            Op::Attribute { name, content } => {
                let q = resolve_name(name, ctx, input)?;
                let value = joined_string(&eval_items(content, ctx, input)?);
                if !self.attribute_is_misplaced() {
                    self.node_boundary();
                    self.b.attribute(q, &value);
                }
            }
            Op::Text(c) => {
                let value = joined_string(&eval_items(c, ctx, input)?);
                if value.is_empty() {
                    return Ok(0);
                }
                self.node_boundary();
                self.b.text(&value);
            }
            Op::Comment(c) => {
                let value = joined_string(&eval_items(c, ctx, input)?);
                self.node_boundary();
                self.b.comment(&value);
            }
            Op::Pi { target, content } => {
                let value = joined_string(&eval_items(content, ctx, input)?);
                self.node_boundary();
                self.b.pi(target, &value);
            }
            _ => unreachable!("construct is called on node constructors only"),
        }
        Ok(1)
    }
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
    let mut s = String::new();
    for (i, a) in items.atomized().iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&a.string_value());
    }
    s
}
