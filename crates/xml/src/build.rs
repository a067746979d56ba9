//! Tree construction.
//!
//! [`TreeBuilder`] assigns node ids in creation order; callers must emit
//! nodes in document order (the builder's start/end API makes that the only
//! possibility), which is what gives [`crate::node::NodeHandle::order_key`]
//! its meaning. Used by the XML parser, by element/attribute constructor
//! operators (which deep-copy their content per XQuery semantics), and by
//! validation when producing annotated copies.

use std::rc::Rc;

use crate::atomic::AtomicValue;
use crate::node::{Document, NodeData, NodeHandle, NodeId, NodeKind};
use crate::qname::QName;
use crate::XmlError;

/// An incremental, document-order tree builder.
pub struct TreeBuilder {
    nodes: Vec<NodeData>,
    stack: Vec<NodeId>,
}

impl TreeBuilder {
    pub fn new() -> Self {
        TreeBuilder {
            nodes: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn push_node(&mut self, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let mut data = data;
        data.parent = self.stack.last().copied();
        if let Some(&parent) = self.stack.last() {
            if data.kind == NodeKind::Attribute {
                self.nodes[parent.0 as usize].attributes.push(id);
            } else {
                self.nodes[parent.0 as usize].children.push(id);
            }
        }
        self.nodes.push(data);
        id
    }

    /// Opens a document node (must be the first node, if used).
    pub fn start_document(&mut self) -> NodeId {
        let id = self.push_node(NodeData::new(NodeKind::Document));
        self.stack.push(id);
        id
    }

    pub fn end_document(&mut self) {
        let popped = self.stack.pop();
        debug_assert!(popped.is_some());
    }

    pub fn start_element(&mut self, name: QName) -> NodeId {
        let mut d = NodeData::new(NodeKind::Element);
        d.name = Some(name);
        let id = self.push_node(d);
        self.stack.push(id);
        id
    }

    /// Sets the type annotation on the currently open element.
    pub fn annotate_type(&mut self, ty: QName, typed_value: Option<Vec<AtomicValue>>) {
        if let Some(&id) = self.stack.last() {
            self.nodes[id.0 as usize].type_name = Some(ty);
            self.nodes[id.0 as usize].typed_value = typed_value;
        }
    }

    pub fn end_element(&mut self) {
        let popped = self.stack.pop();
        debug_assert!(popped.is_some());
    }

    pub fn attribute(&mut self, name: QName, value: &str) -> NodeId {
        self.push_value(NodeKind::Attribute, Some(name), value.into())
    }

    /// An attribute carrying a type annotation and typed value.
    pub fn typed_attribute(
        &mut self,
        name: QName,
        value: &str,
        ty: QName,
        typed: Vec<AtomicValue>,
    ) -> NodeId {
        let id = self.attribute(name, value);
        self.nodes[id.0 as usize].type_name = Some(ty);
        self.nodes[id.0 as usize].typed_value = Some(typed);
        id
    }

    /// Appends a text node; consecutive text nodes are merged, and empty
    /// text is dropped, per the data model's construction rules.
    pub fn text(&mut self, content: &str) {
        if !content.is_empty() && !self.merge_text(content) {
            self.push_value(NodeKind::Text, None, content.into());
        }
    }

    /// [`TreeBuilder::text`] for a value that is already shared: a text
    /// node that starts a run keeps the caller's string instead of a copy.
    fn text_shared(&mut self, content: &Rc<str>) {
        if !content.is_empty() && !self.merge_text(content) {
            self.push_value(NodeKind::Text, None, Rc::clone(content));
        }
    }

    /// Appends `content` to the open node's last child when that child is a
    /// text node; false when there is none to merge into.
    fn merge_text(&mut self, content: &str) -> bool {
        let Some(&parent) = self.stack.last() else {
            return false;
        };
        let Some(&last) = self.nodes[parent.0 as usize].children.last() else {
            return false;
        };
        let last = &mut self.nodes[last.0 as usize];
        if last.kind != NodeKind::Text {
            return false;
        }
        let existing = last.value.take().unwrap_or_default();
        last.value = Some(format!("{existing}{content}").into());
        true
    }

    fn push_value(&mut self, kind: NodeKind, name: Option<QName>, value: Rc<str>) -> NodeId {
        let mut d = NodeData::new(kind);
        d.name = name;
        d.value = Some(value);
        self.push_node(d)
    }

    pub fn comment(&mut self, content: &str) {
        self.push_value(NodeKind::Comment, None, content.into());
    }

    pub fn pi(&mut self, target: &str, content: &str) {
        self.push_value(NodeKind::Pi, Some(QName::local(target)), content.into());
    }

    /// Whether the open node is an element that already has a child —
    /// text, element, comment or PI. An attribute written after one is
    /// `XQTY0024`.
    pub fn element_has_children(&self) -> bool {
        self.stack.last().is_some_and(|&p| {
            let open = &self.nodes[p.0 as usize];
            open.kind == NodeKind::Element && !open.children.is_empty()
        })
    }

    /// Deep-copies an existing node (and its subtree) into the builder,
    /// preserving type annotations. This is what element construction does
    /// with enclosed node sequences. The copy walks the source arena by
    /// id, reserves each element's child and attribute lists exactly, and
    /// shares the source's string values (a copied text node that merges
    /// into a preceding one still concatenates).
    pub fn copy_node(&mut self, node: &NodeHandle) {
        self.copy_from(&node.doc, node.id);
    }

    fn copy_from(&mut self, doc: &Document, id: NodeId) {
        let src = doc.data(id);
        match src.kind {
            NodeKind::Document => {
                for &c in &src.children {
                    self.copy_from(doc, c);
                }
            }
            NodeKind::Element => {
                let mut d = NodeData::new(NodeKind::Element);
                d.name = src.name.clone();
                d.type_name = src.type_name.clone();
                d.typed_value = src.typed_value.clone();
                d.attributes = Vec::with_capacity(src.attributes.len());
                d.children = Vec::with_capacity(src.children.len());
                let copy = self.push_node(d);
                self.stack.push(copy);
                for &a in &src.attributes {
                    self.copy_from(doc, a);
                }
                for &c in &src.children {
                    self.copy_from(doc, c);
                }
                self.stack.pop();
            }
            NodeKind::Text => {
                if let Some(v) = &src.value {
                    self.text_shared(v);
                }
            }
            NodeKind::Attribute | NodeKind::Comment | NodeKind::Pi => {
                let value = src.value.clone().unwrap_or_else(|| "".into());
                let copy = self.push_value(src.kind, src.name.clone(), value);
                let d = &mut self.nodes[copy.0 as usize];
                d.type_name = src.type_name.clone();
                d.typed_value = src.typed_value.clone();
            }
        }
    }

    /// True when nothing is currently open and at least one node exists.
    pub fn is_complete(&self) -> bool {
        self.stack.is_empty() && !self.nodes.is_empty()
    }

    /// Freezes the builder into a document. Errors if elements are still open.
    pub fn try_finish(self, base_uri: Option<String>) -> crate::Result<Rc<Document>> {
        if !self.stack.is_empty() {
            return Err(XmlError::new("XQDY0001", "unbalanced tree construction"));
        }
        if self.nodes.is_empty() {
            return Err(XmlError::new("XQDY0002", "empty tree construction"));
        }
        Ok(Document::from_nodes(self.nodes, base_uri))
    }

    /// Freezes the builder, panicking on imbalance (internal use).
    pub fn finish(self, base_uri: Option<String>) -> Rc<Document> {
        self.try_finish(base_uri).expect("balanced construction")
    }
}

impl Default for TreeBuilder {
    fn default() -> Self {
        TreeBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_merging() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("e"));
        b.text("a");
        b.text("b");
        b.text("");
        b.end_element();
        let doc = b.finish(None);
        let e = doc.root();
        assert_eq!(e.children().len(), 1);
        assert_eq!(e.string_value(), "ab");
    }

    #[test]
    fn copy_gives_fresh_identity() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("e"));
        b.attribute(QName::local("k"), "v");
        b.text("x");
        b.end_element();
        let d1 = b.finish(None);
        let orig = d1.root();

        let mut b2 = TreeBuilder::new();
        b2.start_element(QName::local("wrap"));
        b2.copy_node(&orig);
        b2.end_element();
        let d2 = b2.finish(None);
        let copy = &d2.root().children()[0];
        assert!(!copy.same_node(&orig));
        assert_eq!(copy.string_value(), "x");
        assert_eq!(copy.attributes()[0].string_value(), "v");
    }

    #[test]
    fn copies_share_strings_and_merged_text_concatenates() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("e"));
        b.attribute(QName::local("k"), "v");
        b.text("x");
        b.end_element();
        let d1 = b.finish(None);
        let orig = d1.root();
        let text = orig.children()[0].clone();

        let mut b2 = TreeBuilder::new();
        b2.start_element(QName::local("wrap"));
        b2.copy_node(&orig);
        b2.copy_node(&text);
        b2.copy_node(&text);
        b2.end_element();
        let d2 = b2.finish(None);
        let wrap = d2.root();
        let copy = &wrap.children()[0];
        let shared = |a: &NodeHandle, b: &NodeHandle| {
            Rc::ptr_eq(
                a.data().value.as_ref().unwrap(),
                b.data().value.as_ref().unwrap(),
            )
        };
        assert!(shared(&copy.attributes()[0], &orig.attributes()[0]));
        assert!(shared(&copy.children()[0], &text));
        // The second copied text node merges into the first.
        assert_eq!(wrap.children().len(), 2);
        assert_eq!(wrap.children()[1].string_value(), "xx");
        assert_eq!(text.string_value(), "x");
    }

    #[test]
    fn unbalanced_is_an_error() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("e"));
        assert!(b.try_finish(None).is_err());
    }

    #[test]
    fn empty_is_an_error() {
        let b = TreeBuilder::new();
        assert!(b.try_finish(None).is_err());
    }
}
