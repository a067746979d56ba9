//! Arena-backed node store with node identity and global document order.
//!
//! Every [`Document`] (parsed *or* constructed — element constructors create
//! fresh documents, giving new node identities per XQuery semantics) draws a
//! unique sequence number from a global counter. Node ids inside a document
//! are assigned in document order by [`crate::build::TreeBuilder`], so the
//! pair `(document sequence, node id)` is a total document order across all
//! live documents — exactly what the `TreeJoin` operator and order-based
//! duplicate elimination need.
//!
//! Documents are immutable once built; validation (in `xqr-types`) produces
//! an annotated *copy* rather than mutating in place.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::atomic::AtomicValue;
use crate::qname::QName;

static DOC_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Name id of nodes without a name (documents, text, comments).
pub const NO_NAME: u32 = u32::MAX;

/// Kinds of nodes in the XQuery data model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum NodeKind {
    Document,
    Element,
    Attribute,
    Text,
    Comment,
    Pi,
}

/// Index of a node within its document's arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct NodeId(pub u32);

/// The per-node record stored in a document's arena.
#[derive(Clone, Debug)]
pub struct NodeData {
    pub kind: NodeKind,
    /// Element/attribute name; PI target is stored as a no-namespace name.
    pub name: Option<QName>,
    /// Text/comment/PI content or attribute string value.
    pub value: Option<Rc<str>>,
    pub parent: Option<NodeId>,
    /// Child element/text/comment/PI nodes (not attributes), in order.
    pub children: Vec<NodeId>,
    /// Attribute nodes, in order.
    pub attributes: Vec<NodeId>,
    /// Validation type annotation; `None` means untyped
    /// (`xdt:untyped` for elements, `xdt:untypedAtomic` for attributes).
    pub type_name: Option<QName>,
    /// Typed value produced by validation (simple-typed content only).
    pub typed_value: Option<Vec<AtomicValue>>,
}

impl NodeData {
    pub fn new(kind: NodeKind) -> Self {
        NodeData {
            kind,
            name: None,
            value: None,
            parent: None,
            children: Vec::new(),
            attributes: Vec::new(),
            type_name: None,
            typed_value: None,
        }
    }
}

/// An immutable tree of nodes. The root is always node 0 and may be a
/// document node (parsed documents) or an element/text/… node (constructed
/// fragments).
///
/// Beyond the arena itself the document carries a *structural index*,
/// derived once at build time (see DESIGN.md §4d):
///
/// * `subtree_size` — node ids are assigned in preorder, so the subtree of
///   node `i` is exactly the contiguous id range `[i, i + subtree_size[i])`.
///   Descendant/following/preceding steps become range arithmetic.
/// * `names` / `name_ids` — every distinct `QName` is interned to a `u32`,
///   turning name tests into integer compares.
/// * `postings` — lazily built per-name sorted lists of element ids, so a
///   `//name` step scans one postings list instead of the whole subtree.
#[derive(Debug)]
pub struct Document {
    seq: u64,
    base_uri: Option<String>,
    nodes: Vec<NodeData>,
    /// Structural index, derived on first structural access. Constructed
    /// fragments that are only ever serialized or copied never pay for it —
    /// eager derivation showed up as a measurable per-constructor tax on
    /// constructor-heavy queries.
    index: OnceCell<StructIndex>,
    /// Lazily built name → sorted element-id postings lists.
    postings: OnceCell<Postings>,
}

#[derive(Debug)]
struct StructIndex {
    /// `subtree_size[i]` = number of nodes (including attributes and `i`
    /// itself) in the subtree rooted at node `i`.
    subtree_size: Vec<u32>,
    /// Interned name per node (`NO_NAME` for unnamed kinds).
    name_ids: Vec<u32>,
    /// Interned name table, indexed by name id.
    names: Vec<QName>,
    /// Reverse map for compiling name tests to ids.
    name_index: HashMap<QName, u32>,
    /// Ids of top-level (parentless) nodes; usually just `[0]`, but
    /// constructed fragments may hold several trees in one arena.
    top_roots: Vec<u32>,
}

#[derive(Debug)]
struct Postings {
    /// `by_name[name_id]` = element ids bearing that name, ascending.
    by_name: Vec<Vec<u32>>,
}

impl Document {
    pub(crate) fn from_nodes(nodes: Vec<NodeData>, base_uri: Option<String>) -> Rc<Document> {
        Rc::new(Document {
            seq: DOC_COUNTER.fetch_add(1, Ordering::Relaxed),
            base_uri,
            nodes,
            index: OnceCell::new(),
            postings: OnceCell::new(),
        })
    }

    /// Whether the structural index has been derived yet (it is built on
    /// first structural access and never discarded).
    pub fn has_index(&self) -> bool {
        self.index.get().is_some()
    }

    fn index(&self) -> &StructIndex {
        self.index.get_or_init(|| {
            let nodes = &self.nodes;
            let n = nodes.len();
            // Parents always precede children in the arena, so one reverse
            // pass accumulates exact subtree sizes.
            let mut subtree_size = vec![1u32; n];
            for i in (1..n).rev() {
                if let Some(p) = nodes[i].parent {
                    subtree_size[p.0 as usize] += subtree_size[i];
                }
            }
            let mut names: Vec<QName> = Vec::new();
            let mut name_index: HashMap<QName, u32> = HashMap::new();
            let mut name_ids = Vec::with_capacity(n);
            for nd in nodes {
                let nid = match &nd.name {
                    None => NO_NAME,
                    Some(q) => *name_index.entry(q.clone()).or_insert_with(|| {
                        names.push(q.clone());
                        (names.len() - 1) as u32
                    }),
                };
                name_ids.push(nid);
            }
            // Top-level trees partition the arena into contiguous runs.
            let mut top_roots = Vec::new();
            let mut i = 0u32;
            while (i as usize) < n {
                debug_assert!(nodes[i as usize].parent.is_none());
                top_roots.push(i);
                i += subtree_size[i as usize];
            }
            crate::metrics::metrics().record_struct_index_build();
            StructIndex {
                subtree_size,
                name_ids,
                names,
                name_index,
                top_roots,
            }
        })
    }

    /// Exclusive end of the preorder id range covering `id`'s subtree:
    /// descendants-or-self of `id` are exactly the ids `id.0..end` (the
    /// range includes attribute nodes, which axis kernels filter out).
    pub fn subtree_end(&self, id: NodeId) -> u32 {
        id.0 + self.index().subtree_size[id.0 as usize]
    }

    pub fn kind_of(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0 as usize].kind
    }

    /// Interned name id of a node (`NO_NAME` for unnamed kinds).
    pub fn name_id_of(&self, id: NodeId) -> u32 {
        self.index().name_ids[id.0 as usize]
    }

    /// Id of `name` in this document's intern table, if any node bears it.
    pub fn lookup_name(&self, name: &QName) -> Option<u32> {
        self.index().name_index.get(name).copied()
    }

    /// Root of the top-level tree containing `id` (O(log #trees)).
    pub fn tree_root_of(&self, id: NodeId) -> NodeId {
        let idx = self.index();
        let k = idx.top_roots.partition_point(|&r| r <= id.0);
        NodeId(idx.top_roots[k - 1])
    }

    /// Sorted element-id postings list for an interned name, built for the
    /// whole document on first use.
    pub fn element_postings(&self, name_id: u32) -> &[u32] {
        let p = self.postings.get_or_init(|| {
            let idx = self.index();
            let mut by_name = vec![Vec::new(); idx.names.len()];
            for (i, nd) in self.nodes.iter().enumerate() {
                if nd.kind == NodeKind::Element {
                    let nid = idx.name_ids[i];
                    if nid != NO_NAME {
                        by_name[nid as usize].push(i as u32);
                    }
                }
            }
            let entries: u64 = by_name.iter().map(|v| v.len() as u64).sum();
            crate::metrics::metrics().record_postings_build(entries);
            Postings { by_name }
        });
        p.by_name
            .get(name_id as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    pub fn base_uri(&self) -> Option<&str> {
        self.base_uri.as_deref()
    }

    /// Global creation sequence number (first component of document order).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0 as usize]
    }

    /// Handle to the root node (id 0).
    pub fn root(self: &Rc<Self>) -> NodeHandle {
        NodeHandle {
            doc: Rc::clone(self),
            id: NodeId(0),
        }
    }
}

/// A reference to one node: the owning document plus the node's id.
#[derive(Clone)]
pub struct NodeHandle {
    pub doc: Rc<Document>,
    pub id: NodeId,
}

impl NodeHandle {
    pub fn data(&self) -> &NodeData {
        self.doc.data(self.id)
    }

    pub fn kind(&self) -> NodeKind {
        self.data().kind
    }

    pub fn name(&self) -> Option<&QName> {
        self.data().name.as_ref()
    }

    pub fn type_name(&self) -> Option<&QName> {
        self.data().type_name.as_ref()
    }

    pub fn typed_value_annotation(&self) -> Option<&[AtomicValue]> {
        self.data().typed_value.as_deref()
    }

    fn at(&self, id: NodeId) -> NodeHandle {
        NodeHandle {
            doc: Rc::clone(&self.doc),
            id,
        }
    }

    pub fn parent(&self) -> Option<NodeHandle> {
        self.data().parent.map(|p| self.at(p))
    }

    pub fn children(&self) -> Vec<NodeHandle> {
        self.data().children.iter().map(|&c| self.at(c)).collect()
    }

    pub fn attributes(&self) -> Vec<NodeHandle> {
        self.data().attributes.iter().map(|&c| self.at(c)).collect()
    }

    /// Identity comparison (same node in the same document).
    pub fn same_node(&self, other: &NodeHandle) -> bool {
        self.id == other.id && Rc::ptr_eq(&self.doc, &other.doc)
    }

    /// Total document-order key across all documents.
    pub fn order_key(&self) -> (u64, u32) {
        (self.doc.seq, self.id.0)
    }

    /// The node's string value per the data model. For elements and
    /// documents this is one flat pass over the node's contiguous subtree
    /// id range — no recursion, so arbitrarily deep trees are safe.
    pub fn string_value(&self) -> String {
        match self.kind() {
            NodeKind::Text | NodeKind::Comment | NodeKind::Pi | NodeKind::Attribute => {
                self.data().value.as_deref().unwrap_or("").to_string()
            }
            NodeKind::Element | NodeKind::Document => {
                // Flat scan when the structural index is already built;
                // otherwise an explicit child stack (still no recursion, and
                // it avoids forcing index derivation on fresh fragments).
                let mut out = String::new();
                if self.doc.has_index() {
                    let end = self.doc.subtree_end(self.id);
                    for i in self.id.0..end {
                        let data = self.doc.data(NodeId(i));
                        if data.kind == NodeKind::Text {
                            if let Some(v) = &data.value {
                                out.push_str(v);
                            }
                        }
                    }
                } else {
                    let mut stack: Vec<NodeId> = vec![self.id];
                    while let Some(id) = stack.pop() {
                        let data = self.doc.data(id);
                        if data.kind == NodeKind::Text {
                            if let Some(v) = &data.value {
                                out.push_str(v);
                            }
                        }
                        stack.extend(data.children.iter().rev().copied());
                    }
                }
                out
            }
        }
    }

    /// The typed value: validation annotation if present, else untypedAtomic
    /// of the string value (string for comments/PIs, per XDM). A text or
    /// attribute node's atom shares the node's stored string.
    pub fn typed_value(&self) -> Vec<AtomicValue> {
        if let Some(tv) = self.typed_value_annotation() {
            return tv.to_vec();
        }
        match (self.kind(), &self.data().value) {
            (NodeKind::Comment | NodeKind::Pi, _) => {
                vec![AtomicValue::string(self.string_value())]
            }
            (NodeKind::Text | NodeKind::Attribute, Some(v)) => {
                vec![AtomicValue::UntypedAtomic(v.clone())]
            }
            _ => vec![AtomicValue::untyped(self.string_value())],
        }
    }

    /// Root of this node's tree.
    pub fn tree_root(&self) -> NodeHandle {
        self.at(self.doc.tree_root_of(self.id))
    }

    /// All descendant nodes in document order (excluding attributes),
    /// not including `self`: a scan of the subtree's preorder id range.
    pub fn descendants(&self) -> Vec<NodeHandle> {
        let end = self.doc.subtree_end(self.id);
        let mut out = Vec::new();
        for i in (self.id.0 + 1)..end {
            if self.doc.kind_of(NodeId(i)) != NodeKind::Attribute {
                out.push(self.at(NodeId(i)));
            }
        }
        out
    }
}

impl PartialEq for NodeHandle {
    fn eq(&self, other: &Self) -> bool {
        self.same_node(other)
    }
}

impl Eq for NodeHandle {}

impl std::hash::Hash for NodeHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.order_key().hash(state);
    }
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind() {
            NodeKind::Element => write!(f, "element({})", self.name().unwrap()),
            NodeKind::Attribute => write!(
                f,
                "attribute({}=\"{}\")",
                self.name().unwrap(),
                self.data().value.as_deref().unwrap_or("")
            ),
            NodeKind::Text => write!(f, "text({:?})", self.data().value.as_deref().unwrap_or("")),
            NodeKind::Comment => write!(f, "comment(…)"),
            NodeKind::Pi => write!(f, "pi({})", self.name().unwrap().local_part()),
            NodeKind::Document => write!(f, "document-node()"),
        }
    }
}

/// A type-derivation oracle used by kind-test matching; implemented by the
/// schema in `xqr-types`. `derives_from(sub, sup)` answers whether type name
/// `sub` derives (reflexively, transitively) from `sup`.
pub trait TypeHierarchy {
    fn derives_from(&self, sub: &QName, sup: &QName) -> bool;
}

/// A hierarchy with no user types: only reflexive derivation plus everything
/// deriving from `xs:anyType`.
pub struct TrivialHierarchy;

impl TypeHierarchy for TrivialHierarchy {
    fn derives_from(&self, sub: &QName, sup: &QName) -> bool {
        sub == sup || sup.local_part() == "anyType"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TreeBuilder;

    fn sample() -> Rc<Document> {
        // <a x="1"><b>hi</b><c/>tail</a>
        let mut b = TreeBuilder::new();
        b.start_document();
        b.start_element(QName::local("a"));
        b.attribute(QName::local("x"), "1");
        b.start_element(QName::local("b"));
        b.text("hi");
        b.end_element();
        b.start_element(QName::local("c"));
        b.end_element();
        b.text("tail");
        b.end_element();
        b.end_document();
        b.finish(None)
    }

    #[test]
    fn structure_navigation() {
        let doc = sample();
        let root = doc.root();
        assert_eq!(root.kind(), NodeKind::Document);
        let a = &root.children()[0];
        assert_eq!(a.name().unwrap().local_part(), "a");
        assert_eq!(a.children().len(), 3);
        assert_eq!(a.attributes().len(), 1);
        let b = &a.children()[0];
        assert_eq!(b.parent().unwrap().name().unwrap().local_part(), "a");
    }

    #[test]
    fn string_values() {
        let doc = sample();
        let a = &doc.root().children()[0];
        assert_eq!(a.string_value(), "hitail");
        assert_eq!(a.attributes()[0].string_value(), "1");
        assert_eq!(a.children()[0].string_value(), "hi");
    }

    #[test]
    fn document_order_ids_are_preorder() {
        let doc = sample();
        let a = &doc.root().children()[0];
        let desc = a.descendants();
        let keys: Vec<_> = desc.iter().map(|n| n.order_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "descendants come out in document order");
    }

    #[test]
    fn identity_and_cross_document_order() {
        let d1 = sample();
        let d2 = sample();
        let a1 = &d1.root().children()[0];
        let a2 = &d2.root().children()[0];
        assert!(!a1.same_node(a2));
        assert!(a1.same_node(&d1.root().children()[0]));
        assert!(
            a1.order_key() < a2.order_key(),
            "earlier-created doc sorts first"
        );
    }

    #[test]
    fn typed_value_defaults_to_untyped_atomic() {
        let doc = sample();
        let a = &doc.root().children()[0];
        assert_eq!(a.typed_value(), vec![AtomicValue::untyped("hitail")]);
    }

    #[test]
    fn subtree_ranges_cover_descendants() {
        let doc = sample();
        let root = doc.root();
        // Document node covers the whole arena.
        assert_eq!(doc.subtree_end(root.id), doc.node_count() as u32);
        let a = &root.children()[0];
        // <a>'s range holds itself, one attribute, b, "hi", c, "tail".
        assert_eq!(doc.subtree_end(a.id) - a.id.0, 6);
        for d in a.descendants() {
            assert!(d.id.0 > a.id.0 && d.id.0 < doc.subtree_end(a.id));
        }
        assert_eq!(doc.tree_root_of(a.children()[0].id), root.id);
    }

    #[test]
    fn name_interning_and_postings() {
        let doc = sample();
        let a_id = doc.lookup_name(&QName::local("a")).expect("a interned");
        let b_id = doc.lookup_name(&QName::local("b")).expect("b interned");
        assert_ne!(a_id, b_id);
        assert!(doc.lookup_name(&QName::local("nope")).is_none());
        let bs = doc.element_postings(b_id);
        assert_eq!(bs.len(), 1);
        let root = doc.root();
        assert_eq!(doc.name_id_of(root.children()[0].id), a_id);
        // Postings lists are ascending element ids of that name only.
        for &i in bs {
            assert_eq!(doc.kind_of(NodeId(i)), NodeKind::Element);
            assert_eq!(doc.name_id_of(NodeId(i)), b_id);
        }
    }

    #[test]
    fn string_value_on_deep_tree_is_iterative() {
        // 20k nested elements with one text leaf: the old recursive
        // collector would blow the stack; the range scan must not.
        let mut b = TreeBuilder::new();
        for _ in 0..20_000 {
            b.start_element(QName::local("d"));
        }
        b.text("leaf");
        for _ in 0..20_000 {
            b.end_element();
        }
        let doc = b.finish(None);
        let root = doc.root();
        assert_eq!(root.string_value(), "leaf");
        assert_eq!(doc.subtree_end(root.id), doc.node_count() as u32);
    }
}
