//! Items and sequences — the value domain of the algebra's XML side.
//!
//! A [`Sequence`] is an ordered, flat list of [`Item`]s behind an `Rc`, so
//! that passing sequences between operators (and storing them in tuple
//! fields) is O(1). Sequences never nest.

use std::fmt;
use std::rc::Rc;

use crate::atomic::AtomicValue;
use crate::node::NodeHandle;

/// One item: a node or an atomic value.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    Node(NodeHandle),
    Atomic(AtomicValue),
}

impl Item {
    pub fn as_node(&self) -> Option<&NodeHandle> {
        match self {
            Item::Node(n) => Some(n),
            Item::Atomic(_) => None,
        }
    }

    pub fn as_atomic(&self) -> Option<&AtomicValue> {
        match self {
            Item::Atomic(a) => Some(a),
            Item::Node(_) => None,
        }
    }

    /// `fn:string` of a single item.
    pub fn string_value(&self) -> String {
        match self {
            Item::Node(n) => n.string_value(),
            Item::Atomic(a) => a.string_value(),
        }
    }

    /// `fn:data` of a single item (may yield several atomics for list types).
    pub fn atomized(&self) -> Vec<AtomicValue> {
        match self {
            Item::Node(n) => n.typed_value(),
            Item::Atomic(a) => vec![a.clone()],
        }
    }
}

impl From<AtomicValue> for Item {
    fn from(a: AtomicValue) -> Self {
        Item::Atomic(a)
    }
}

impl From<NodeHandle> for Item {
    fn from(n: NodeHandle) -> Self {
        Item::Node(n)
    }
}

/// An ordered sequence of items (cheaply clonable).
#[derive(Clone, PartialEq)]
pub struct Sequence(Rc<Vec<Item>>);

impl Sequence {
    pub fn empty() -> Self {
        Sequence(Rc::new(Vec::new()))
    }

    pub fn singleton(item: impl Into<Item>) -> Self {
        Sequence(Rc::new(vec![item.into()]))
    }

    pub fn from_vec(items: Vec<Item>) -> Self {
        Sequence(Rc::new(items))
    }

    pub fn from_atomics(values: Vec<AtomicValue>) -> Self {
        Sequence(Rc::new(values.into_iter().map(Item::Atomic).collect()))
    }

    pub fn integers(values: impl IntoIterator<Item = i64>) -> Self {
        Sequence(Rc::new(
            values
                .into_iter()
                .map(|v| Item::Atomic(AtomicValue::Integer(v)))
                .collect(),
        ))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.0.iter()
    }

    /// Consumes the sequence, returning its items; clones only if shared.
    pub fn into_vec(self) -> Vec<Item> {
        Rc::try_unwrap(self.0).unwrap_or_else(|rc| (*rc).clone())
    }

    pub fn items(&self) -> &[Item] {
        &self.0
    }

    pub fn get(&self, i: usize) -> Option<&Item> {
        self.0.get(i)
    }

    /// Concatenation (XQuery `,` — sequences flatten).
    pub fn concat(&self, other: &Sequence) -> Sequence {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Sequence(Rc::new(v))
    }

    /// `fn:data` over the whole sequence.
    pub fn atomized(&self) -> Vec<AtomicValue> {
        let mut out = Vec::with_capacity(self.len());
        for item in self.iter() {
            match item {
                Item::Atomic(a) => out.push(a.clone()),
                Item::Node(n) => out.extend(n.typed_value()),
            }
        }
        out
    }

    /// Sorts node items into document order and removes duplicates; errors
    /// are not possible here because the caller guarantees node-only input.
    /// Non-node items are kept in place (used by TreeJoin where inputs are
    /// all nodes).
    pub fn document_order_dedup(&self) -> Sequence {
        let mut nodes: Vec<NodeHandle> = Vec::with_capacity(self.len());
        for item in self.iter() {
            if let Item::Node(n) = item {
                nodes.push(n.clone());
            }
        }
        if nodes.len() != self.len() {
            // Mixed content: leave untouched (callers validate beforehand).
            return self.clone();
        }
        nodes.sort_by_key(|n| n.order_key());
        nodes.dedup_by(|a, b| a.same_node(b));
        Sequence(Rc::new(nodes.into_iter().map(Item::Node).collect()))
    }
}

impl Default for Sequence {
    fn default() -> Self {
        Sequence::empty()
    }
}

/// Incremental sequence concatenation in amortised O(total items).
///
/// Evaluator loops that previously folded with `out = out.concat(&next)`
/// copied every already-accumulated item per step — O(n²) over the loop.
/// The builder appends into one buffer instead, and keeps the common
/// zero/one-input cases allocation-free: a single pushed sequence is
/// returned as-is (sharing its `Rc`), not copied.
#[derive(Default)]
pub enum SequenceBuilder {
    #[default]
    Empty,
    One(Sequence),
    Many(Vec<Item>),
}

impl SequenceBuilder {
    pub fn new() -> Self {
        SequenceBuilder::Empty
    }

    /// Appends a whole sequence (XQuery `,` flattening).
    pub fn push(&mut self, seq: Sequence) {
        if seq.is_empty() {
            return;
        }
        match self {
            SequenceBuilder::Empty => *self = SequenceBuilder::One(seq),
            SequenceBuilder::One(first) => {
                let mut v = Vec::with_capacity(first.len() + seq.len());
                v.extend_from_slice(first.items());
                v.extend_from_slice(seq.items());
                *self = SequenceBuilder::Many(v);
            }
            SequenceBuilder::Many(v) => v.extend_from_slice(seq.items()),
        }
    }

    /// Appends a single item.
    pub fn push_item(&mut self, item: Item) {
        match self {
            SequenceBuilder::Empty => *self = SequenceBuilder::Many(vec![item]),
            SequenceBuilder::One(first) => {
                let mut v = Vec::with_capacity(first.len() + 1);
                v.extend_from_slice(first.items());
                v.push(item);
                *self = SequenceBuilder::Many(v);
            }
            SequenceBuilder::Many(v) => v.push(item),
        }
    }

    pub fn finish(self) -> Sequence {
        match self {
            SequenceBuilder::Empty => Sequence::empty(),
            SequenceBuilder::One(seq) => seq,
            SequenceBuilder::Many(v) => Sequence::from_vec(v),
        }
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Sequence(Rc::new(iter.into_iter().collect()))
    }
}

impl<'a> IntoIterator for &'a Sequence {
    type Item = &'a Item;
    type IntoIter = std::slice::Iter<'a, Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item:?}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TreeBuilder;
    use crate::qname::QName;

    #[test]
    fn concat_flattens() {
        let a = Sequence::integers([1, 2]);
        let b = Sequence::integers([3]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.concat(&Sequence::empty()).len(), 3);
        assert_eq!(Sequence::empty().concat(&c).len(), 3);
    }

    #[test]
    fn builder_matches_concat_fold() {
        let parts = [
            Sequence::integers([1, 2]),
            Sequence::empty(),
            Sequence::integers([3]),
            Sequence::integers([4, 5, 6]),
        ];
        let mut builder = SequenceBuilder::new();
        let mut folded = Sequence::empty();
        for p in &parts {
            builder.push(p.clone());
            folded = folded.concat(p);
        }
        assert_eq!(builder.finish(), folded);

        // Zero and one pushed sequences stay allocation-free.
        assert!(SequenceBuilder::new().finish().is_empty());
        let single = Sequence::integers([9]);
        let mut b = SequenceBuilder::new();
        b.push(Sequence::empty());
        b.push(single.clone());
        assert_eq!(b.finish(), single);

        let mut b = SequenceBuilder::new();
        b.push_item(Item::Atomic(AtomicValue::Integer(1)));
        b.push(Sequence::integers([2]));
        b.push_item(Item::Atomic(AtomicValue::Integer(3)));
        assert_eq!(b.finish(), Sequence::integers([1, 2, 3]));
    }

    #[test]
    fn atomize_mixed() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("e"));
        b.text("42");
        b.end_element();
        let doc = b.finish(None);
        let seq = Sequence::from_vec(vec![
            Item::Node(doc.root()),
            Item::Atomic(AtomicValue::Integer(7)),
        ]);
        let atoms = seq.atomized();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0], AtomicValue::untyped("42"));
        assert_eq!(atoms[1], AtomicValue::Integer(7));
    }

    #[test]
    fn doc_order_dedup() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        b.start_element(QName::local("a"));
        b.end_element();
        b.start_element(QName::local("b"));
        b.end_element();
        b.end_element();
        let doc = b.finish(None);
        let r = doc.root();
        let a = r.children()[0].clone();
        let bb = r.children()[1].clone();
        let seq = Sequence::from_vec(vec![
            Item::Node(bb.clone()),
            Item::Node(a.clone()),
            Item::Node(bb.clone()),
        ]);
        let sorted = seq.document_order_dedup();
        assert_eq!(sorted.len(), 2);
        assert!(sorted.get(0).unwrap().as_node().unwrap().same_node(&a));
        assert!(sorted.get(1).unwrap().as_node().unwrap().same_node(&bb));
    }
}
