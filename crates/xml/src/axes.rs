//! XPath axes and node tests — the machinery behind the `TreeJoin` operator.
//!
//! `TreeJoin[axis, nodetest]` (paper Table 1) is "a set-at-a-time operator
//! for navigation, which takes a set of nodes in document order and returns
//! a set of nodes in document order after applying the given step". The
//! entry point here is [`tree_join`] (or [`tree_join_governed`] under a
//! resource budget).
//!
//! The implementation is built on the node store's structural index
//! (DESIGN.md §4d): node ids are preorder numbers and every node knows its
//! subtree's contiguous id range, so
//!
//! * descendant axes are range scans — or, for a `//name` step, a galloping
//!   walk of that name's postings list restricted to the context range;
//! * `following` / `preceding` are pure range arithmetic per tree;
//! * name tests compile to interned-id integer compares per document;
//! * overlapping descendant contexts are *pruned by containment* before any
//!   work happens, which also proves the output already sorted — the final
//!   sort + dedup is elided whenever a linear order check passes.
//!
//! The pre-index per-node walk survives as [`naive`] (test/feature-gated)
//! and serves as the oracle for the differential suite.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use crate::item::{Item, Sequence};
use crate::limits::Governor;
use crate::node::{Document, NodeData, NodeHandle, NodeId, NodeKind, TypeHierarchy};
use crate::qname::QName;
use crate::XmlError;

/// The twelve XPath axes (the `namespace` axis is deprecated in XQuery and
/// not supported).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
}

impl Axis {
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Attribute => "attribute",
            Axis::SelfAxis => "self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
        }
    }

    pub fn by_name(s: &str) -> Option<Axis> {
        Some(match s {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "attribute" => Axis::Attribute,
            "self" => Axis::SelfAxis,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            _ => return None,
        })
    }

    /// Principal node kind: Attribute for the attribute axis, Element else.
    pub fn principal_kind(self) -> NodeKind {
        match self {
            Axis::Attribute => NodeKind::Attribute,
            _ => NodeKind::Element,
        }
    }
}

/// A name test: possibly wildcarded in the URI and/or local part.
/// `*` = both None; `ns:*` = uri set, local None; `*:local` = uri None
/// (distinguished from plain `local` by `any_uri`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NameTest {
    pub uri: Option<String>,
    pub local: Option<String>,
    /// True for `*:local` (match any namespace); false means "no namespace"
    /// when `uri` is None.
    pub any_uri: bool,
}

impl NameTest {
    pub fn any() -> Self {
        NameTest {
            uri: None,
            local: None,
            any_uri: true,
        }
    }

    pub fn local(name: &str) -> Self {
        NameTest {
            uri: None,
            local: Some(name.to_string()),
            any_uri: false,
        }
    }

    pub fn with_uri(uri: &str, name: &str) -> Self {
        NameTest {
            uri: Some(uri.to_string()),
            local: Some(name.to_string()),
            any_uri: false,
        }
    }

    pub fn matches(&self, name: &QName) -> bool {
        if let Some(l) = &self.local {
            if l != name.local_part() {
                return false;
            }
        }
        if self.any_uri {
            return true;
        }
        match &self.uri {
            Some(u) => name.uri() == Some(u.as_str()),
            None => name.uri().is_none(),
        }
    }
}

/// Kind tests per XQuery sequence types.
#[derive(Clone, PartialEq, Debug)]
pub enum KindTest {
    /// `node()`
    AnyKind,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction(target?)`
    Pi(Option<String>),
    /// `document-node()`
    Document,
    /// `element(name-or-*, type?)`
    Element(Option<NameTest>, Option<QName>),
    /// `attribute(name-or-*, type?)`
    Attribute(Option<NameTest>, Option<QName>),
}

/// A node test: either a name test (against the axis's principal node kind)
/// or a kind test.
#[derive(Clone, PartialEq, Debug)]
pub enum NodeTest {
    Name(NameTest),
    Kind(KindTest),
}

impl NodeTest {
    /// Does `node` satisfy this test on `axis`? Type constraints in
    /// element/attribute kind tests consult the `types` hierarchy; untyped
    /// nodes only satisfy a type constraint of `xs:anyType`/`xdt:untyped`.
    pub fn matches(&self, node: &NodeHandle, axis: Axis, types: &dyn TypeHierarchy) -> bool {
        test_matches_data(self, node.data(), axis, types)
    }
}

fn test_matches_data(
    test: &NodeTest,
    data: &NodeData,
    axis: Axis,
    types: &dyn TypeHierarchy,
) -> bool {
    match test {
        NodeTest::Name(nt) => {
            data.kind == axis.principal_kind() && data.name.as_ref().is_some_and(|n| nt.matches(n))
        }
        NodeTest::Kind(kt) => kind_test_matches_data(kt, data, types),
    }
}

/// Kind-test matching shared with `instance of` checking in `xqr-types`.
pub fn kind_test_matches(kt: &KindTest, node: &NodeHandle, types: &dyn TypeHierarchy) -> bool {
    kind_test_matches_data(kt, node.data(), types)
}

fn kind_test_matches_data(kt: &KindTest, data: &NodeData, types: &dyn TypeHierarchy) -> bool {
    match kt {
        KindTest::AnyKind => true,
        KindTest::Text => data.kind == NodeKind::Text,
        KindTest::Comment => data.kind == NodeKind::Comment,
        KindTest::Pi(target) => {
            data.kind == NodeKind::Pi
                && target
                    .as_ref()
                    .is_none_or(|t| data.name.as_ref().is_some_and(|n| n.local_part() == t))
        }
        KindTest::Document => data.kind == NodeKind::Document,
        KindTest::Element(name, ty) => {
            data.kind == NodeKind::Element
                && name
                    .as_ref()
                    .is_none_or(|nt| data.name.as_ref().is_some_and(|n| nt.matches(n)))
                && type_constraint_ok(data, ty, types, "untyped")
        }
        KindTest::Attribute(name, ty) => {
            data.kind == NodeKind::Attribute
                && name
                    .as_ref()
                    .is_none_or(|nt| data.name.as_ref().is_some_and(|n| nt.matches(n)))
                && type_constraint_ok(data, ty, types, "untypedAtomic")
        }
    }
}

fn type_constraint_ok(
    data: &NodeData,
    constraint: &Option<QName>,
    types: &dyn TypeHierarchy,
    untyped_name: &str,
) -> bool {
    match constraint {
        None => true,
        Some(required) => {
            let annotated = data
                .type_name
                .clone()
                .unwrap_or_else(|| QName::local(untyped_name));
            types.derives_from(&annotated, required)
        }
    }
}

// ===== compiled tests =======================================================

/// A node test specialized against one document's interned name table, so
/// the per-candidate check is a kind/u32 compare instead of string work.
#[derive(Clone, Copy, Debug)]
enum CompiledTest {
    /// The tested name does not occur in this document at all.
    NoMatch,
    /// Every node matches (`node()`).
    AnyNode,
    /// Kind-only check (`text()`, `element()`, `*`, …).
    KindOnly(NodeKind),
    /// Kind plus interned-name equality (the common `name` test).
    KindName(NodeKind, u32),
    /// Partially wildcarded names, PI targets, or type constraints: fall
    /// back to the full structural match.
    Generic,
}

fn compile_test(test: &NodeTest, axis: Axis, doc: &Document) -> CompiledTest {
    match test {
        NodeTest::Name(nt) => compile_name(nt, axis.principal_kind(), doc),
        NodeTest::Kind(kt) => match kt {
            KindTest::AnyKind => CompiledTest::AnyNode,
            KindTest::Text => CompiledTest::KindOnly(NodeKind::Text),
            KindTest::Comment => CompiledTest::KindOnly(NodeKind::Comment),
            KindTest::Document => CompiledTest::KindOnly(NodeKind::Document),
            KindTest::Pi(None) => CompiledTest::KindOnly(NodeKind::Pi),
            KindTest::Pi(Some(_)) => CompiledTest::Generic,
            KindTest::Element(name, None) => match name {
                None => CompiledTest::KindOnly(NodeKind::Element),
                Some(nt) => compile_name(nt, NodeKind::Element, doc),
            },
            KindTest::Attribute(name, None) => match name {
                None => CompiledTest::KindOnly(NodeKind::Attribute),
                Some(nt) => compile_name(nt, NodeKind::Attribute, doc),
            },
            KindTest::Element(..) | KindTest::Attribute(..) => CompiledTest::Generic,
        },
    }
}

fn compile_name(nt: &NameTest, kind: NodeKind, doc: &Document) -> CompiledTest {
    match (&nt.uri, &nt.local, nt.any_uri) {
        // `*`
        (None, None, true) => CompiledTest::KindOnly(kind),
        // exact name (with or without namespace)
        (uri, Some(local), false) => {
            let q = match uri {
                Some(u) => QName::with_uri(u, local),
                None => QName::local(local),
            };
            match doc.lookup_name(&q) {
                Some(id) => CompiledTest::KindName(kind, id),
                None => CompiledTest::NoMatch,
            }
        }
        // `ns:*` / `*:local`
        _ => CompiledTest::Generic,
    }
}

#[inline]
fn matches_id(
    doc: &Document,
    id: NodeId,
    compiled: CompiledTest,
    test: &NodeTest,
    axis: Axis,
    types: &dyn TypeHierarchy,
) -> bool {
    match compiled {
        CompiledTest::NoMatch => false,
        CompiledTest::AnyNode => true,
        CompiledTest::KindOnly(k) => doc.kind_of(id) == k,
        CompiledTest::KindName(k, n) => doc.kind_of(id) == k && doc.name_id_of(id) == n,
        CompiledTest::Generic => test_matches_data(test, doc.data(id), axis, types),
    }
}

fn handle(doc: &Rc<Document>, id: NodeId) -> NodeHandle {
    NodeHandle {
        doc: Rc::clone(doc),
        id,
    }
}

/// First index `i >= lo` with `list[i] >= target`: exponential (galloping)
/// probe from `lo`, then binary search inside the bracketed window. Cost is
/// O(log gap), so walking a postings list with a monotone hint is near
/// linear in the entries actually visited.
fn gallop(list: &[u32], lo: usize, target: u32) -> usize {
    if lo >= list.len() || list[lo] >= target {
        return lo;
    }
    let mut step = 1usize;
    while lo + step < list.len() && list[lo + step] < target {
        step <<= 1;
    }
    let left = lo + (step >> 1) + 1;
    let right = (lo + step + 1).min(list.len());
    left + list[left..right].partition_point(|&x| x < target)
}

// ===== per-context step kernel ==============================================

/// Cross-call cache of a step site's compiled tests, one per document.
/// The set-at-a-time kernel recompiles its node test — a `QName`
/// construction (an `Rc<str>` allocation) and an interned-name hash
/// lookup — on every invocation; a step inside a per-tuple dependent plan
/// pays that once per row. Callers that evaluate the same plan-site step
/// repeatedly hold one `TestCache` per site and pass it to
/// [`tree_join_cached`].
///
/// Entries key by document *identity* and hold the `Rc`, so a freed
/// document's address can never be recycled into a false hit. One cache
/// serves one `(axis, test)` site; the caller keys it by a site that
/// outlives the cache.
#[derive(Default)]
pub struct TestCache {
    entries: Vec<(Rc<Document>, CompiledTest)>,
}

impl TestCache {
    /// Entries kept per site; effectively one in practice (multi-document
    /// step inputs are rare), bounded defensively.
    const MAX_ENTRIES: usize = 8;

    fn get(&self, doc: &Rc<Document>) -> Option<CompiledTest> {
        self.entries
            .iter()
            .find(|(d, _)| Rc::ptr_eq(d, doc))
            .map(|(_, c)| *c)
    }

    fn put(&mut self, doc: &Rc<Document>, compiled: CompiledTest) {
        if self.entries.len() >= Self::MAX_ENTRIES {
            self.entries.clear();
        }
        self.entries.push((Rc::clone(doc), compiled));
    }
}

/// Per-document state of a step evaluation: the compiled test plus the
/// cursors that make sorted multi-context evaluation linear.
struct DocState {
    doc: Rc<Document>,
    compiled: CompiledTest,
    /// Exclusive end of the descendant range already covered by an earlier
    /// context (containment pruning for the descendant axes).
    prune_end: u32,
    /// Monotone entry hint into the active postings list.
    post_pos: usize,
}

/// Applies one `(axis, test)` step context-by-context. Contexts must arrive
/// in document order (ascending `order_key`), which [`tree_join_governed`]
/// guarantees; under that precondition the descendant axes emit strictly
/// increasing ids and the final sort is elided.
struct StepKernel<'t> {
    axis: Axis,
    test: &'t NodeTest,
    state: Option<DocState>,
    /// Optional cross-call compiled-test cache of this kernel's
    /// `(axis, test)` site.
    cache: Option<&'t mut TestCache>,
}

impl<'t> StepKernel<'t> {
    fn new(axis: Axis, test: &'t NodeTest) -> Self {
        StepKernel {
            axis,
            test,
            state: None,
            cache: None,
        }
    }

    fn with_cache(axis: Axis, test: &'t NodeTest, cache: Option<&'t mut TestCache>) -> Self {
        StepKernel {
            axis,
            test,
            state: None,
            cache,
        }
    }

    fn ensure_doc(&mut self, doc: &Rc<Document>) {
        let stale = match &self.state {
            Some(s) => !Rc::ptr_eq(&s.doc, doc),
            None => true,
        };
        if stale {
            let compiled = match self.cache.as_mut().and_then(|c| c.get(doc)) {
                Some(c) => c,
                None => {
                    let c = compile_test(self.test, self.axis, doc);
                    if let Some(cache) = self.cache.as_mut() {
                        cache.put(doc, c);
                    }
                    c
                }
            };
            self.state = Some(DocState {
                doc: Rc::clone(doc),
                compiled,
                prune_end: 0,
                post_pos: 0,
            });
        }
    }

    /// Appends the step result for one context node to `out`. Not used for
    /// `following`/`preceding`, which are evaluated per context *group*.
    fn apply(&mut self, node: &NodeHandle, types: &dyn TypeHierarchy, out: &mut Vec<NodeHandle>) {
        self.ensure_doc(&node.doc);
        let st = self.state.as_mut().unwrap();
        let compiled = st.compiled;
        if matches!(compiled, CompiledTest::NoMatch) {
            return;
        }
        let doc = &node.doc;
        let m = |id: NodeId| matches_id(doc, id, compiled, self.test, self.axis, types);
        match self.axis {
            Axis::SelfAxis => {
                if m(node.id) {
                    out.push(node.clone());
                }
            }
            Axis::Child => {
                for &c in &node.data().children {
                    if m(c) {
                        out.push(handle(doc, c));
                    }
                }
            }
            Axis::Attribute => {
                for &a in &node.data().attributes {
                    if m(a) {
                        out.push(handle(doc, a));
                    }
                }
            }
            Axis::Parent => {
                if let Some(p) = node.data().parent {
                    if m(p) {
                        out.push(handle(doc, p));
                    }
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                // Walk up (descending ids), then reverse into document order.
                let start = out.len();
                if self.axis == Axis::AncestorOrSelf && m(node.id) {
                    out.push(node.clone());
                }
                let mut cur = node.data().parent;
                while let Some(p) = cur {
                    if m(p) {
                        out.push(handle(doc, p));
                    }
                    cur = doc.data(p).parent;
                }
                out[start..].reverse();
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                let Some(p) = node.data().parent else {
                    return;
                };
                // Child ids are ascending, so the node's index in its
                // parent is one binary search away (attributes are not in
                // `children` and correctly yield nothing).
                let sibs = &doc.data(p).children;
                let Ok(pos) = sibs.binary_search(&node.id) else {
                    return;
                };
                let slice = if self.axis == Axis::FollowingSibling {
                    &sibs[pos + 1..]
                } else {
                    &sibs[..pos]
                };
                for &s in slice {
                    if m(s) {
                        out.push(handle(doc, s));
                    }
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                let end = doc.subtree_end(node.id);
                if node.id.0 < st.prune_end {
                    // Contained in an earlier context's range: everything
                    // this context could produce was already emitted —
                    // except an attribute context's own self, which range
                    // scans skip.
                    if self.axis == Axis::DescendantOrSelf
                        && node.kind() == NodeKind::Attribute
                        && m(node.id)
                    {
                        out.push(node.clone());
                    }
                    return;
                }
                st.prune_end = end;
                if self.axis == Axis::DescendantOrSelf && m(node.id) {
                    out.push(node.clone());
                }
                if let CompiledTest::KindName(NodeKind::Element, nid) = compiled {
                    // `//name`: walk the postings list inside the range.
                    let list = doc.element_postings(nid);
                    let mut p = gallop(list, st.post_pos, node.id.0 + 1);
                    while p < list.len() && list[p] < end {
                        out.push(handle(doc, NodeId(list[p])));
                        p += 1;
                    }
                    st.post_pos = p;
                } else {
                    for i in (node.id.0 + 1)..end {
                        let id = NodeId(i);
                        if doc.kind_of(id) != NodeKind::Attribute && m(id) {
                            out.push(handle(doc, id));
                        }
                    }
                }
            }
            Axis::Following | Axis::Preceding => unreachable!("group axes"),
        }
    }
}

// ===== group axes (following / preceding) ===================================

/// `following` and `preceding` over a sorted context set collapse to one
/// contiguous range per (document, tree) group:
///
/// * following: `[min subtree_end(c), tree_end)` — every node after the
///   earliest-ending context, which subsumes all later contexts' results;
/// * preceding: `preceding(L)` for the *last* context `L` of the group
///   (`x < L` with `subtree_end(x) <= L`, i.e. not an ancestor of `L`) —
///   any `x` excluded as an ancestor of `L` is an ancestor of (or contains)
///   every earlier context too, so the union loses nothing.
fn apply_group_axis(
    axis: Axis,
    test: &NodeTest,
    ctxs: &[NodeHandle],
    types: &dyn TypeHierarchy,
    gov: Option<&Governor>,
    out: &mut Vec<NodeHandle>,
) -> crate::Result<()> {
    let mut i = 0;
    while i < ctxs.len() {
        let doc = &ctxs[i].doc;
        let tree = doc.tree_root_of(ctxs[i].id);
        let tree_end = doc.subtree_end(tree);
        let mut min_end = u32::MAX;
        let mut j = i;
        while j < ctxs.len()
            && Rc::ptr_eq(&ctxs[j].doc, doc)
            && doc.tree_root_of(ctxs[j].id) == tree
        {
            min_end = min_end.min(doc.subtree_end(ctxs[j].id));
            j += 1;
        }
        let compiled = compile_test(test, axis, doc);
        let before = out.len();
        if !matches!(compiled, CompiledTest::NoMatch) {
            let m = |id: NodeId| matches_id(doc, id, compiled, test, axis, types);
            match axis {
                Axis::Following => {
                    if let CompiledTest::KindName(NodeKind::Element, nid) = compiled {
                        let list = doc.element_postings(nid);
                        let mut p = gallop(list, 0, min_end);
                        while p < list.len() && list[p] < tree_end {
                            out.push(handle(doc, NodeId(list[p])));
                            p += 1;
                        }
                    } else {
                        for k in min_end..tree_end {
                            let id = NodeId(k);
                            if doc.kind_of(id) != NodeKind::Attribute && m(id) {
                                out.push(handle(doc, id));
                            }
                        }
                    }
                }
                Axis::Preceding => {
                    let last = ctxs[j - 1].id.0;
                    if let CompiledTest::KindName(NodeKind::Element, nid) = compiled {
                        let list = doc.element_postings(nid);
                        let mut p = gallop(list, 0, tree.0);
                        while p < list.len() && list[p] < last {
                            let id = NodeId(list[p]);
                            if doc.subtree_end(id) <= last {
                                out.push(handle(doc, id));
                            }
                            p += 1;
                        }
                    } else {
                        for k in tree.0..last {
                            let id = NodeId(k);
                            if doc.kind_of(id) != NodeKind::Attribute
                                && doc.subtree_end(id) <= last
                                && m(id)
                            {
                                out.push(handle(doc, id));
                            }
                        }
                    }
                }
                _ => unreachable!(),
            }
        }
        if let Some(g) = gov {
            g.charge_tuples((j - i) as u64 + (out.len() - before) as u64)?;
        }
        i = j;
    }
    Ok(())
}

// ===== tree_join ============================================================

/// Validates that every input item is a node and returns the context set in
/// document order: a strictly-increasing input passes through untouched
/// (the common case — step outputs are sorted), anything else is sorted and
/// deduplicated once here.
pub fn normalize_contexts(input: &Sequence) -> crate::Result<Vec<NodeHandle>> {
    let mut ctxs: Vec<NodeHandle> = Vec::with_capacity(input.len());
    let mut sorted = true;
    for item in input.iter() {
        let node = item
            .as_node()
            .ok_or_else(|| XmlError::new("XPTY0020", "path step applied to a non-node item"))?;
        if let Some(prev) = ctxs.last() {
            if prev.order_key() >= node.order_key() {
                sorted = false;
            }
        }
        ctxs.push(node.clone());
    }
    if !sorted {
        ctxs.sort_by_key(|n| n.order_key());
        ctxs.dedup_by(|a, b| a.same_node(b));
    }
    Ok(ctxs)
}

/// Sort/dedup elision: a linear order check replaces the unconditional
/// `sort_by_key` + `dedup_by` — the kernels produce strictly increasing
/// output for every forward axis and per-group axis, so the repair path
/// only runs for multi-context reverse axes with overlapping results.
fn finalize(mut out: Vec<NodeHandle>) -> Sequence {
    let strictly_sorted = out.windows(2).all(|w| w[0].order_key() < w[1].order_key());
    if !strictly_sorted {
        out.sort_by_key(|n| n.order_key());
        out.dedup_by(|a, b| a.same_node(b));
    }
    Sequence::from_vec(out.into_iter().map(Item::Node).collect())
}

/// The `TreeJoin[axis, nodetest]` primitive: applies the step to every node
/// of the input (erroring on non-node items, per XPTY0020), returning the
/// result in document order without duplicates.
pub fn tree_join(
    input: &Sequence,
    axis: Axis,
    test: &NodeTest,
    types: &dyn TypeHierarchy,
) -> crate::Result<Sequence> {
    tree_join_governed(input, axis, test, types, None)
}

/// [`tree_join`] under a resource governor: charges one tuple per context
/// plus one per produced node, so exploding steps trip the budget.
pub fn tree_join_governed(
    input: &Sequence,
    axis: Axis,
    test: &NodeTest,
    types: &dyn TypeHierarchy,
    gov: Option<&Governor>,
) -> crate::Result<Sequence> {
    tree_join_inner(input, axis, test, types, gov, None)
}

/// [`tree_join_governed`] with a caller-held [`TestCache`], amortizing test
/// compilation across repeated invocations of the same step site (a step
/// inside a per-tuple dependent plan otherwise recompiles every row).
pub fn tree_join_cached(
    input: &Sequence,
    axis: Axis,
    test: &NodeTest,
    types: &dyn TypeHierarchy,
    gov: Option<&Governor>,
    cache: &mut TestCache,
) -> crate::Result<Sequence> {
    tree_join_inner(input, axis, test, types, gov, Some(cache))
}

fn tree_join_inner(
    input: &Sequence,
    axis: Axis,
    test: &NodeTest,
    types: &dyn TypeHierarchy,
    gov: Option<&Governor>,
    mut cache: Option<&mut TestCache>,
) -> crate::Result<Sequence> {
    let mut out: Vec<NodeHandle> = Vec::new();
    match axis {
        Axis::Following | Axis::Preceding => {
            let ctxs = normalize_contexts(input)?;
            apply_group_axis(axis, test, &ctxs, types, gov, &mut out)?;
        }
        _ => {
            // Fast path: apply the kernel while iterating the input
            // directly, verifying the document-order precondition inline —
            // no context vector is built for the common already-sorted case
            // (step outputs, single contexts).
            let mut kernel = StepKernel::with_cache(axis, test, cache.as_deref_mut());
            let mut prev: Option<(u64, u32)> = None;
            let mut sorted = true;
            for item in input.iter() {
                let node = item.as_node().ok_or_else(|| {
                    XmlError::new("XPTY0020", "path step applied to a non-node item")
                })?;
                let key = node.order_key();
                if prev.is_some_and(|p| p >= key) {
                    sorted = false;
                    break;
                }
                prev = Some(key);
                let before = out.len();
                kernel.apply(node, types, &mut out);
                if let Some(g) = gov {
                    g.charge_tuples(1 + (out.len() - before) as u64)?;
                }
            }
            drop(kernel);
            if !sorted {
                // Rare: unsorted or duplicate contexts (unnormalized input
                // at the runtime boundary). Sort + dedup once and redo.
                let ctxs = normalize_contexts(input)?;
                out.clear();
                let mut kernel = StepKernel::with_cache(axis, test, cache);
                for c in &ctxs {
                    let before = out.len();
                    kernel.apply(c, types, &mut out);
                    if let Some(g) = gov {
                        g.charge_tuples(1 + (out.len() - before) as u64)?;
                    }
                }
            }
        }
    }
    Ok(finalize(out))
}

// ===== streaming stepper ====================================================

/// Which axes the streaming stepper can emit incrementally in document
/// order (forward axes whose outputs never precede a later context).
pub fn streamable_axis(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::SelfAxis | Axis::Child | Axis::Attribute | Axis::Descendant | Axis::DescendantOrSelf
    )
}

/// Can `test` on `axis` ever accept an attribute node?
pub fn test_can_match_attributes(axis: Axis, test: &NodeTest) -> bool {
    match test {
        NodeTest::Name(_) => axis.principal_kind() == NodeKind::Attribute,
        NodeTest::Kind(kt) => matches!(kt, KindTest::AnyKind | KindTest::Attribute(..)),
    }
}

/// Does a `(axis, test)` step never *output* attribute nodes, regardless of
/// its context set? Used by the runtime to prove that a downstream
/// `descendant-or-self` stream stays in document order (an attribute
/// context inside an earlier context's subtree is the one case that can
/// emit out of order).
pub fn step_never_yields_attributes(axis: Axis, test: &NodeTest) -> bool {
    match axis {
        Axis::Attribute => false,
        Axis::Child
        | Axis::Descendant
        | Axis::FollowingSibling
        | Axis::PrecedingSibling
        | Axis::Following
        | Axis::Preceding
        | Axis::Parent
        | Axis::Ancestor => true,
        Axis::DescendantOrSelf | Axis::SelfAxis | Axis::AncestorOrSelf => {
            !test_can_match_attributes(axis, test)
        }
    }
}

/// Heap entry ordered by document-order key.
struct OrderedNode(NodeHandle);

impl PartialEq for OrderedNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.order_key() == other.0.order_key()
    }
}
impl Eq for OrderedNode {}
impl PartialOrd for OrderedNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.order_key().cmp(&other.0.order_key())
    }
}

/// Lazy scan over one descendant range (generic scan or postings walk).
struct ScanState {
    doc: Rc<Document>,
    compiled: CompiledTest,
    next: u32,
    end: u32,
    /// `(name id, position)` when walking a postings list instead.
    postings: Option<(u32, usize)>,
}

/// Incremental step evaluation for the runtime's streaming `TreeJoin`
/// cursor: contexts are pushed one at a time in document order and result
/// nodes are pulled without materializing the whole step.
///
/// Ordering contract: outputs of a context pushed *later* always have a
/// document-order key strictly greater than the keys of all previously
/// pushed contexts (children/attributes/self of a node have ids ≥ the
/// node's id; descendant ranges of unpruned contexts are disjoint and
/// ascending). Child/attribute/self results are therefore buffered in a
/// min-heap and released up to the latest context's key (the watermark);
/// descendant results stream straight out of the active range scan.
///
/// The caller must drain the stream (pop until `None`) before pushing the
/// next context, and for `descendant-or-self` with a test that can match
/// attributes must guarantee attribute-free contexts (see
/// [`step_never_yields_attributes`]); [`tree_join`] remains the fallback
/// for everything else.
pub struct StepStream<'t> {
    kernel: StepKernel<'t>,
    heap: BinaryHeap<Reverse<OrderedNode>>,
    ready: VecDeque<NodeHandle>,
    scan: Option<ScanState>,
    watermark: Option<(u64, u32)>,
    finished: bool,
    scratch: Vec<NodeHandle>,
}

impl<'t> StepStream<'t> {
    pub fn new(axis: Axis, test: &'t NodeTest) -> StepStream<'t> {
        debug_assert!(streamable_axis(axis));
        StepStream {
            kernel: StepKernel::new(axis, test),
            heap: BinaryHeap::new(),
            ready: VecDeque::new(),
            scan: None,
            watermark: None,
            finished: false,
            scratch: Vec::new(),
        }
    }

    /// Feeds the next context node (strictly after all previous contexts in
    /// document order).
    pub fn push_context(&mut self, node: &NodeHandle, types: &dyn TypeHierarchy) {
        debug_assert!(!self.finished);
        debug_assert!(self.watermark.is_none_or(|w| node.order_key() > w));
        debug_assert!(self.scan.is_none(), "previous scan must be drained");
        self.watermark = Some(node.order_key());
        match self.kernel.axis {
            Axis::Descendant | Axis::DescendantOrSelf => {
                self.kernel.ensure_doc(&node.doc);
                let st = self.kernel.state.as_mut().unwrap();
                let compiled = st.compiled;
                if matches!(compiled, CompiledTest::NoMatch) {
                    return;
                }
                let doc = &node.doc;
                let end = doc.subtree_end(node.id);
                if node.id.0 < st.prune_end {
                    // See `StepKernel::apply`: only an attribute context's
                    // or-self can contribute here, and the runtime gating
                    // guarantees that case never streams.
                    debug_assert!(
                        self.kernel.axis != Axis::DescendantOrSelf
                            || node.kind() != NodeKind::Attribute
                            || !matches_id(
                                doc,
                                node.id,
                                compiled,
                                self.kernel.test,
                                self.kernel.axis,
                                types
                            )
                    );
                    return;
                }
                st.prune_end = end;
                if self.kernel.axis == Axis::DescendantOrSelf
                    && matches_id(
                        doc,
                        node.id,
                        compiled,
                        self.kernel.test,
                        self.kernel.axis,
                        types,
                    )
                {
                    self.ready.push_back(node.clone());
                }
                let postings = match compiled {
                    CompiledTest::KindName(NodeKind::Element, nid) => {
                        let list = doc.element_postings(nid);
                        Some((nid, gallop(list, st.post_pos, node.id.0 + 1)))
                    }
                    _ => None,
                };
                self.scan = Some(ScanState {
                    doc: Rc::clone(doc),
                    compiled,
                    next: node.id.0 + 1,
                    end,
                    postings,
                });
            }
            _ => {
                // Small per-context batches (self/child/attribute): buffer
                // in the heap, release up to the watermark.
                self.scratch.clear();
                let mut scratch = std::mem::take(&mut self.scratch);
                self.kernel.apply(node, types, &mut scratch);
                for n in scratch.drain(..) {
                    self.heap.push(Reverse(OrderedNode(n)));
                }
                self.scratch = scratch;
                self.release();
            }
        }
    }

    /// No more contexts: everything still buffered becomes emittable.
    pub fn finish(&mut self) {
        self.finished = true;
        while let Some(Reverse(OrderedNode(n))) = self.heap.pop() {
            self.ready.push_back(n);
        }
    }

    fn release(&mut self) {
        let Some(w) = self.watermark else { return };
        while let Some(Reverse(top)) = self.heap.peek() {
            if top.0.order_key() <= w {
                let Reverse(OrderedNode(n)) = self.heap.pop().unwrap();
                self.ready.push_back(n);
            } else {
                break;
            }
        }
    }

    /// Next in-order result node, or `None` when more contexts (or
    /// `finish`) are needed first.
    pub fn pop(&mut self, types: &dyn TypeHierarchy) -> Option<NodeHandle> {
        if let Some(n) = self.ready.pop_front() {
            return Some(n);
        }
        let done = match &mut self.scan {
            None => true,
            Some(s) => match &mut s.postings {
                Some((nid, pos)) => {
                    let list = s.doc.element_postings(*nid);
                    if *pos < list.len() && list[*pos] < s.end {
                        let id = NodeId(list[*pos]);
                        *pos += 1;
                        return Some(handle(&s.doc, id));
                    }
                    false
                }
                None => {
                    while s.next < s.end {
                        let id = NodeId(s.next);
                        s.next += 1;
                        if s.doc.kind_of(id) != NodeKind::Attribute
                            && matches_id(
                                &s.doc,
                                id,
                                s.compiled,
                                self.kernel.test,
                                self.kernel.axis,
                                types,
                            )
                        {
                            return Some(handle(&s.doc, id));
                        }
                    }
                    false
                }
            },
        };
        if !done {
            // Scan exhausted: persist the postings hint for the next range.
            let s = self.scan.take().unwrap();
            if let (Some((_, pos)), Some(st)) = (s.postings, self.kernel.state.as_mut()) {
                if Rc::ptr_eq(&st.doc, &s.doc) {
                    st.post_pos = pos;
                }
            }
        }
        None
    }
}

// ===== naive reference ======================================================

/// The pre-index reference implementation: per-node recursive walks plus an
/// unconditional sort + dedup. It shares nothing with the kernels above
/// beyond the node tests, and serves as the oracle for the differential
/// suite (`tests/axes_differential.rs`). Enable outside tests with the
/// `naive-axes` feature.
#[cfg(any(test, feature = "naive-axes"))]
pub mod naive {
    use super::*;

    fn descendants(node: &NodeHandle) -> Vec<NodeHandle> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeHandle> = node.children();
        stack.reverse();
        while let Some(n) = stack.pop() {
            out.push(n.clone());
            let mut cs = n.children();
            cs.reverse();
            stack.extend(cs);
        }
        out
    }

    fn collect_subtree(root: &NodeHandle, out: &mut Vec<NodeHandle>) {
        out.push(root.clone());
        out.extend(descendants(root));
    }

    fn siblings(node: &NodeHandle, following: bool) -> Vec<NodeHandle> {
        let Some(parent) = node.parent() else {
            return Vec::new();
        };
        if node.kind() == NodeKind::Attribute {
            return Vec::new();
        }
        let sibs = parent.children();
        let pos = sibs.iter().position(|s| s.same_node(node));
        match pos {
            Some(i) if following => sibs[i + 1..].to_vec(),
            Some(i) => sibs[..i].to_vec(),
            None => Vec::new(),
        }
    }

    fn axis_nodes(node: &NodeHandle, axis: Axis) -> Vec<NodeHandle> {
        match axis {
            Axis::Child => node.children(),
            Axis::Attribute => node.attributes(),
            Axis::SelfAxis => vec![node.clone()],
            Axis::Parent => node.parent().into_iter().collect(),
            Axis::Descendant => descendants(node),
            Axis::DescendantOrSelf => {
                let mut v = vec![node.clone()];
                v.extend(descendants(node));
                v
            }
            Axis::Ancestor => {
                let mut v = Vec::new();
                let mut cur = node.parent();
                while let Some(p) = cur {
                    cur = p.parent();
                    v.push(p);
                }
                v.reverse(); // document order
                v
            }
            Axis::AncestorOrSelf => {
                let mut v = axis_nodes(node, Axis::Ancestor);
                v.push(node.clone());
                v
            }
            Axis::FollowingSibling => siblings(node, true),
            Axis::PrecedingSibling => siblings(node, false),
            Axis::Following => {
                // Nodes after self in document order, excluding descendants.
                let root = tree_root(node);
                let key = node.order_key();
                let desc_max = descendants(node)
                    .last()
                    .map(|d| d.order_key())
                    .unwrap_or(key);
                let mut v: Vec<NodeHandle> = Vec::new();
                collect_subtree(&root, &mut v);
                v.retain(|n| n.order_key() > desc_max && n.order_key() > key);
                v
            }
            Axis::Preceding => {
                // Nodes before self in document order, excluding ancestors.
                let root = tree_root(node);
                let key = node.order_key();
                let mut ancestors = axis_nodes(node, Axis::Ancestor);
                ancestors.push(root.clone());
                let mut v: Vec<NodeHandle> = Vec::new();
                collect_subtree(&root, &mut v);
                v.retain(|n| n.order_key() < key && !ancestors.iter().any(|a| a.same_node(n)));
                v
            }
        }
    }

    fn tree_root(node: &NodeHandle) -> NodeHandle {
        let mut cur = node.clone();
        while let Some(p) = cur.parent() {
            cur = p;
        }
        cur
    }

    /// Reference `TreeJoin`: per-node axis walk, full-result sort + dedup.
    pub fn tree_join(
        input: &Sequence,
        axis: Axis,
        test: &NodeTest,
        types: &dyn TypeHierarchy,
    ) -> crate::Result<Sequence> {
        let mut out: Vec<NodeHandle> = Vec::new();
        for item in input.iter() {
            let node = item
                .as_node()
                .ok_or_else(|| XmlError::new("XPTY0020", "path step applied to a non-node item"))?;
            for candidate in axis_nodes(node, axis) {
                if test.matches(&candidate, axis, types) {
                    out.push(candidate);
                }
            }
        }
        out.sort_by_key(|n| n.order_key());
        out.dedup_by(|a, b| a.same_node(b));
        Ok(Sequence::from_vec(
            out.into_iter().map(Item::Node).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TreeBuilder;
    use crate::node::TrivialHierarchy;

    /// <r><a i="1"><b/><c><b/></c></a><a i="2"/>text</r>
    fn sample() -> NodeHandle {
        let mut bld = TreeBuilder::new();
        bld.start_document();
        bld.start_element(QName::local("r"));
        bld.start_element(QName::local("a"));
        bld.attribute(QName::local("i"), "1");
        bld.start_element(QName::local("b"));
        bld.end_element();
        bld.start_element(QName::local("c"));
        bld.start_element(QName::local("b"));
        bld.end_element();
        bld.end_element();
        bld.end_element();
        bld.start_element(QName::local("a"));
        bld.attribute(QName::local("i"), "2");
        bld.end_element();
        bld.text("text");
        bld.end_element();
        bld.end_document();
        bld.finish(None).root()
    }

    fn names(seq: &Sequence) -> Vec<String> {
        seq.iter()
            .map(|i| {
                let n = i.as_node().unwrap();
                n.name()
                    .map(|q| q.local_part().to_string())
                    .unwrap_or_else(|| "#text".into())
            })
            .collect()
    }

    fn step(input: &NodeHandle, axis: Axis, test: NodeTest) -> Sequence {
        tree_join(
            &Sequence::singleton(input.clone()),
            axis,
            &test,
            &TrivialHierarchy,
        )
        .unwrap()
    }

    #[test]
    fn child_axis_with_name_test() {
        let doc = sample();
        let r = step(&doc, Axis::Child, NodeTest::Name(NameTest::local("r")));
        assert_eq!(names(&r), ["r"]);
        let root = r.get(0).unwrap().as_node().unwrap().clone();
        let aa = step(&root, Axis::Child, NodeTest::Name(NameTest::local("a")));
        assert_eq!(names(&aa), ["a", "a"]);
    }

    #[test]
    fn descendant_finds_all_in_doc_order() {
        let doc = sample();
        let bs = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::local("b")));
        assert_eq!(names(&bs), ["b", "b"]);
        let keys: Vec<_> = bs
            .iter()
            .map(|i| i.as_node().unwrap().order_key())
            .collect();
        assert!(keys[0] < keys[1]);
    }

    #[test]
    fn attribute_axis() {
        let doc = sample();
        let a_elems = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::local("a")));
        let attrs = tree_join(
            &a_elems,
            Axis::Attribute,
            &NodeTest::Name(NameTest::local("i")),
            &TrivialHierarchy,
        )
        .unwrap();
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs.get(0).unwrap().string_value(), "1");
        assert_eq!(attrs.get(1).unwrap().string_value(), "2");
    }

    #[test]
    fn name_test_does_not_match_attributes_on_child_axis() {
        let doc = sample();
        let any_child = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::any()));
        // Elements only — not the text node, not attributes.
        assert_eq!(names(&any_child), ["r", "a", "b", "c", "b", "a"]);
    }

    #[test]
    fn kind_tests() {
        let doc = sample();
        let texts = step(&doc, Axis::Descendant, NodeTest::Kind(KindTest::Text));
        assert_eq!(texts.len(), 1);
        assert_eq!(texts.get(0).unwrap().string_value(), "text");
        let all = step(&doc, Axis::Descendant, NodeTest::Kind(KindTest::AnyKind));
        assert_eq!(all.len(), 7); // 6 elements + 1 text (attributes not on descendant)
    }

    #[test]
    fn parent_and_ancestor() {
        let doc = sample();
        let bs = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::local("b")));
        let deep_b = bs.get(1).unwrap().as_node().unwrap().clone();
        let anc = step(&deep_b, Axis::Ancestor, NodeTest::Name(NameTest::any()));
        assert_eq!(names(&anc), ["r", "a", "c"]);
        let par = step(&deep_b, Axis::Parent, NodeTest::Kind(KindTest::AnyKind));
        assert_eq!(names(&par), ["c"]);
    }

    #[test]
    fn sibling_axes() {
        let doc = sample();
        let aa = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::local("a")));
        let first_a = aa.get(0).unwrap().as_node().unwrap().clone();
        let foll = step(
            &first_a,
            Axis::FollowingSibling,
            NodeTest::Kind(KindTest::AnyKind),
        );
        assert_eq!(names(&foll), ["a", "#text"]);
        let second_a = aa.get(1).unwrap().as_node().unwrap().clone();
        let prec = step(
            &second_a,
            Axis::PrecedingSibling,
            NodeTest::Kind(KindTest::AnyKind),
        );
        assert_eq!(names(&prec), ["a"]);
    }

    #[test]
    fn following_and_preceding() {
        let doc = sample();
        let cs = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::local("c")));
        let c = cs.get(0).unwrap().as_node().unwrap().clone();
        let foll = step(&c, Axis::Following, NodeTest::Kind(KindTest::AnyKind));
        assert_eq!(names(&foll), ["a", "#text"]);
        let prec = step(&c, Axis::Preceding, NodeTest::Kind(KindTest::AnyKind));
        assert_eq!(names(&prec), ["b"]);
    }

    #[test]
    fn dedup_across_input_nodes() {
        let doc = sample();
        let aa = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::local("a")));
        // Both <a> nodes plus the root: descendants overlap; output must dedup.
        let mut input: Vec<Item> = aa.items().to_vec();
        input.push(Item::Node(doc.clone()));
        let out = tree_join(
            &Sequence::from_vec(input),
            Axis::Descendant,
            &NodeTest::Name(NameTest::local("b")),
            &TrivialHierarchy,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn non_node_input_is_type_error() {
        let r = tree_join(
            &Sequence::integers([1]),
            Axis::Child,
            &NodeTest::Kind(KindTest::AnyKind),
            &TrivialHierarchy,
        );
        assert_eq!(r.unwrap_err().code, "XPTY0020");
    }

    // ===== indexed ≡ naive and order/dedup regressions =====================

    /// Every node of the sample tree including attributes, via naive walk.
    fn all_nodes(root: &NodeHandle) -> Vec<NodeHandle> {
        let mut out = vec![root.clone()];
        for i in (root.id.0 + 1)..root.doc.subtree_end(root.id) {
            out.push(NodeHandle {
                doc: Rc::clone(&root.doc),
                id: NodeId(i),
            });
        }
        out
    }

    const ALL_AXES: [Axis; 12] = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Attribute,
        Axis::SelfAxis,
        Axis::Parent,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Following,
        Axis::Preceding,
    ];

    /// Indexed kernels agree with the naive walk on every axis, for both
    /// single contexts and the full (overlapping) node set, under several
    /// node tests.
    #[test]
    fn indexed_equals_naive_on_all_axes() {
        let doc = sample();
        let tests = [
            NodeTest::Kind(KindTest::AnyKind),
            NodeTest::Name(NameTest::local("b")),
            NodeTest::Name(NameTest::any()),
            NodeTest::Kind(KindTest::Text),
            NodeTest::Kind(KindTest::Attribute(Some(NameTest::local("i")), None)),
        ];
        let everything = all_nodes(&doc);
        let full: Sequence =
            Sequence::from_vec(everything.iter().cloned().map(Item::Node).collect());
        for axis in ALL_AXES {
            for test in &tests {
                let a = tree_join(&full, axis, test, &TrivialHierarchy).unwrap();
                let b = naive::tree_join(&full, axis, test, &TrivialHierarchy).unwrap();
                assert_eq!(
                    names(&a),
                    names(&b),
                    "axis {axis:?} test {test:?} (full input)"
                );
                assert_eq!(a.len(), b.len());
                for n in &everything {
                    let s = Sequence::singleton(n.clone());
                    let a = tree_join(&s, axis, test, &TrivialHierarchy).unwrap();
                    let b = naive::tree_join(&s, axis, test, &TrivialHierarchy).unwrap();
                    assert_eq!(a.len(), b.len(), "axis {axis:?} test {test:?} ctx {n:?}");
                    for (x, y) in a.iter().zip(b.iter()) {
                        assert!(x.as_node().unwrap().same_node(y.as_node().unwrap()));
                    }
                }
            }
        }
    }

    /// Regression: reverse axes keep document order and dedup with multiple
    /// overlapping contexts (the one case where the elision check must fall
    /// back to the repair sort).
    #[test]
    fn reverse_axes_multi_context_order_and_dedup() {
        let doc = sample();
        let leaves = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::local("b")));
        assert_eq!(leaves.len(), 2);
        for axis in [
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::Preceding,
            Axis::PrecedingSibling,
            Axis::Parent,
        ] {
            let out = tree_join(
                &leaves,
                axis,
                &NodeTest::Kind(KindTest::AnyKind),
                &TrivialHierarchy,
            )
            .unwrap();
            let keys: Vec<_> = out
                .iter()
                .map(|i| i.as_node().unwrap().order_key())
                .collect();
            for w in keys.windows(2) {
                assert!(w[0] < w[1], "axis {axis:?} out of order or duplicated");
            }
        }
        // Both <b> elements share ancestors r and a: dedup must collapse.
        let anc = tree_join(
            &leaves,
            Axis::Ancestor,
            &NodeTest::Name(NameTest::any()),
            &TrivialHierarchy,
        )
        .unwrap();
        assert_eq!(names(&anc), ["r", "a", "c"]);
    }

    /// Unsorted / duplicated context input is normalized before kernels run.
    #[test]
    fn unsorted_input_is_normalized() {
        let doc = sample();
        let aa = step(&doc, Axis::Descendant, NodeTest::Name(NameTest::local("a")));
        let (a1, a2) = (
            aa.get(0).unwrap().as_node().unwrap().clone(),
            aa.get(1).unwrap().as_node().unwrap().clone(),
        );
        let reversed = Sequence::from_vec(vec![
            Item::Node(a2.clone()),
            Item::Node(a1.clone()),
            Item::Node(a2),
        ]);
        let out = tree_join(
            &reversed,
            Axis::Attribute,
            &NodeTest::Name(NameTest::local("i")),
            &TrivialHierarchy,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(0).unwrap().string_value(), "1");
        assert_eq!(out.get(1).unwrap().string_value(), "2");
    }

    /// The streaming stepper agrees with `tree_join` on every streamable
    /// axis over the full (overlapping) context set.
    #[test]
    fn step_stream_matches_tree_join() {
        let doc = sample();
        let everything = all_nodes(&doc);
        let non_attr: Vec<NodeHandle> = everything
            .iter()
            .filter(|n| n.kind() != NodeKind::Attribute)
            .cloned()
            .collect();
        let tests = [
            NodeTest::Kind(KindTest::AnyKind),
            NodeTest::Name(NameTest::local("b")),
            NodeTest::Kind(KindTest::Text),
        ];
        for axis in [
            Axis::SelfAxis,
            Axis::Child,
            Axis::Attribute,
            Axis::Descendant,
            Axis::DescendantOrSelf,
        ] {
            for test in &tests {
                // Attribute contexts only stream when provably safe.
                let ctxs = if step_never_yields_attributes(axis, test) {
                    &everything
                } else {
                    &non_attr
                };
                let mut stream = StepStream::new(axis, test);
                let mut got: Vec<NodeHandle> = Vec::new();
                for c in ctxs {
                    stream.push_context(c, &TrivialHierarchy);
                    while let Some(n) = stream.pop(&TrivialHierarchy) {
                        got.push(n);
                    }
                }
                stream.finish();
                while let Some(n) = stream.pop(&TrivialHierarchy) {
                    got.push(n);
                }
                let want = tree_join(
                    &Sequence::from_vec(ctxs.iter().cloned().map(Item::Node).collect()),
                    axis,
                    test,
                    &TrivialHierarchy,
                )
                .unwrap();
                assert_eq!(got.len(), want.len(), "axis {axis:?} test {test:?}");
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!(g.same_node(w.as_node().unwrap()), "axis {axis:?}");
                }
            }
        }
    }
}
