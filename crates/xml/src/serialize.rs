//! Serialization of items and sequences back to XML text — the engine of
//! the algebra's `Serialize` operator.
//!
//! The writer walks the node arena by id and writes names and escaped
//! values straight into a [`Markup`] sink, so serializing allocates
//! nothing per node. A sink need not store the text: `clio:deep-distinct`
//! hashes and compares serializations as byte streams.

use std::fmt::Write as _;

use crate::item::{Item, Sequence};
use crate::node::{Document, NodeHandle, NodeId, NodeKind};
use crate::qname::QName;

/// Where serialized markup goes, one piece at a time. The pieces of a
/// node, concatenated, are its [`serialize_node`] string.
pub trait Markup {
    fn put(&mut self, s: &str);
}

impl Markup for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// Serializes one node to markup.
pub fn serialize_node(node: &NodeHandle) -> String {
    let mut out = String::new();
    write_node(&mut out, &node.doc, node.id);
    out
}

/// Serializes a sequence per the XQuery serialization rules: adjacent atomic
/// values are separated by single spaces; nodes are serialized as markup.
pub fn serialize_sequence(seq: &Sequence) -> String {
    let mut out = String::new();
    let mut prev_atomic = false;
    for item in seq.iter() {
        match item {
            Item::Atomic(a) => {
                if prev_atomic {
                    out.push(' ');
                }
                out.push_str(&a.string_value());
                prev_atomic = true;
            }
            Item::Node(n) => {
                write_node(&mut out, &n.doc, n.id);
                prev_atomic = false;
            }
        }
    }
    out
}

/// Writes the markup of node `id` of `doc` into `out`.
pub fn write_node<M: Markup>(out: &mut M, doc: &Document, id: NodeId) {
    let data = doc.data(id);
    let value = data.value.as_deref().unwrap_or("");
    match data.kind {
        NodeKind::Document => {
            for &c in &data.children {
                write_node(out, doc, c);
            }
        }
        NodeKind::Element => {
            let name = data.name.as_ref().expect("element has a name");
            out.put("<");
            put_name(out, name);
            for &a in &data.attributes {
                out.put(" ");
                write_node(out, doc, a);
            }
            // Emit a namespace declaration for elements whose QName carries
            // a URI but no ancestor declared it; keep it simple: redeclare on
            // every element whose own name has a URI differing from parent's.
            if let Some(uri) = name.uri() {
                let parent_uri = data
                    .parent
                    .and_then(|p| doc.data(p).name.as_ref())
                    .and_then(QName::uri);
                if parent_uri != Some(uri) {
                    match name.prefix() {
                        Some(p) => {
                            out.put(" xmlns:");
                            out.put(p);
                            out.put("=\"");
                        }
                        None => out.put(" xmlns=\""),
                    }
                    put_escaped(out, uri, true);
                    out.put("\"");
                }
            }
            if data.children.is_empty() {
                out.put("/>");
            } else {
                out.put(">");
                for &c in &data.children {
                    write_node(out, doc, c);
                }
                out.put("</");
                put_name(out, name);
                out.put(">");
            }
        }
        NodeKind::Text => put_escaped(out, value, false),
        NodeKind::Comment => {
            out.put("<!--");
            out.put(value);
            out.put("-->");
        }
        NodeKind::Pi => {
            out.put("<?");
            out.put(data.name.as_ref().expect("pi has a target").local_part());
            out.put(" ");
            out.put(value);
            out.put("?>");
        }
        NodeKind::Attribute => {
            // A free-standing attribute serializes as name="value".
            put_name(out, data.name.as_ref().expect("attribute has a name"));
            out.put("=\"");
            put_escaped(out, value, true);
            out.put("\"");
        }
    }
}

/// The lexical name, `prefix:local` or `local`.
fn put_name<M: Markup>(out: &mut M, name: &QName) {
    if let Some(p) = name.prefix() {
        out.put(p);
        out.put(":");
    }
    out.put(name.local_part());
}

/// Escapes character data (`attr = false`: `<`, `>`, `&`) or a
/// double-quoted attribute value (`attr = true`: `<`, `&`, `"`) into `out`.
fn put_escaped<M: Markup>(out: &mut M, s: &str, attr: bool) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'<' => "&lt;",
            b'&' => "&amp;",
            b'>' if !attr => "&gt;",
            b'"' if attr => "&quot;",
            _ => continue,
        };
        out.put(&s[start..i]);
        out.put(entity);
        start = i + 1;
    }
    out.put(&s[start..]);
}

/// Serializes one node with two-space indentation (for human inspection;
/// whitespace-sensitive mixed content is kept inline).
pub fn serialize_node_pretty(node: &NodeHandle) -> String {
    let mut out = String::new();
    write_pretty(&mut out, &node.doc, node.id, 0);
    out
}

fn write_pretty(out: &mut String, doc: &Document, id: NodeId, depth: usize) {
    let data = doc.data(id);
    match data.kind {
        NodeKind::Document => {
            for &c in &data.children {
                write_pretty(out, doc, c, depth);
            }
        }
        NodeKind::Element => {
            let name = data.name.as_ref().expect("element has a name");
            let _ = write!(out, "{}<", "  ".repeat(depth));
            put_name(out, name);
            for &a in &data.attributes {
                out.push(' ');
                write_node(out, doc, a);
            }
            let children = &data.children;
            if children.is_empty() {
                out.push_str("/>\n");
            } else if children
                .iter()
                .all(|&c| doc.kind_of(c) == NodeKind::Element)
            {
                out.push_str(">\n");
                for &c in children {
                    write_pretty(out, doc, c, depth + 1);
                }
                let _ = write!(out, "{}</", "  ".repeat(depth));
                put_name(out, name);
                out.push_str(">\n");
            } else {
                // Mixed or text content: keep inline to preserve values.
                out.push('>');
                for &c in children {
                    write_node(out, doc, c);
                }
                out.push_str("</");
                put_name(out, name);
                out.push_str(">\n");
            }
        }
        _ => {
            let _ = write!(out, "{}", "  ".repeat(depth));
            write_node(out, doc, id);
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicValue;
    use crate::parse::{parse_document, ParseOptions};

    fn round_trip(s: &str) -> String {
        let d = parse_document(s, &ParseOptions::default()).unwrap();
        serialize_node(&d.root())
    }

    #[test]
    fn simple_round_trip() {
        assert_eq!(
            round_trip("<a><b x=\"1\">t</b><c/></a>"),
            "<a><b x=\"1\">t</b><c/></a>"
        );
    }

    #[test]
    fn escaping() {
        assert_eq!(round_trip("<a>&lt;&amp;</a>"), "<a>&lt;&amp;</a>");
        assert_eq!(
            round_trip("<a x=\"&quot;q&quot;\"/>"),
            "<a x=\"&quot;q&quot;\"/>"
        );
    }

    #[test]
    fn atomics_space_separated() {
        let seq = Sequence::from_atomics(vec![
            AtomicValue::Integer(1),
            AtomicValue::Integer(2),
            AtomicValue::string("x"),
        ]);
        assert_eq!(serialize_sequence(&seq), "1 2 x");
    }

    #[test]
    fn namespace_declarations_follow_the_parent() {
        let d = parse_document(
            r#"<p:a xmlns:p="urn:x" k="&quot;&lt;&amp;>"><p:b/><c xmlns="urn:y">t&gt;"<d/></c></p:a>"#,
            &ParseOptions::default(),
        )
        .unwrap();
        assert_eq!(
            serialize_node(&d.root()),
            r#"<p:a k="&quot;&lt;&amp;>" xmlns:p="urn:x"><p:b/><c xmlns="urn:y">t&gt;"<d/></c></p:a>"#
        );
        // A non-root node declares its namespace only when its parent's
        // differs: `<d/>` sits under `<c>` in the same namespace.
        let c = &d.root().children()[0].children()[1];
        assert_eq!(serialize_node(&c.children()[1]), "<d/>");
        assert_eq!(serialize_node(c), r#"<c xmlns="urn:y">t&gt;"<d/></c>"#);
    }

    #[test]
    fn comment_and_pi_round_trip() {
        assert_eq!(
            round_trip("<a><!--c--><?t d?></a>"),
            "<a><!--c--><?t d?></a>"
        );
    }
}

#[cfg(test)]
mod pretty_tests {
    use super::*;
    use crate::parse::{parse_document, ParseOptions};

    #[test]
    fn pretty_indents_element_only_content() {
        let d = parse_document("<a><b><c/></b><d>text</d></a>", &ParseOptions::default()).unwrap();
        let out = serialize_node_pretty(&d.root());
        assert_eq!(out, "<a>\n  <b>\n    <c/>\n  </b>\n  <d>text</d>\n</a>\n");
    }

    #[test]
    fn pretty_preserves_mixed_content_inline() {
        let d = parse_document("<a>x<b/>y</a>", &ParseOptions::default()).unwrap();
        let out = serialize_node_pretty(&d.root());
        assert_eq!(out, "<a>x<b/>y</a>\n");
    }
}
