//! XML serialization of nodes and subtrees.

use std::fmt::Write;

use crate::node::{NodeId, NodeKind};
use crate::store::NodeStore;

/// Serialize the subtree rooted at `node` to XML text.
///
/// Attribute values and character data are escaped; document nodes serialize
/// as the concatenation of their children.
pub fn serialize_node(store: &NodeStore, node: NodeId) -> String {
    let mut out = String::new();
    write_node(store, node, &mut out);
    out
}

fn write_node(store: &NodeStore, node: NodeId, out: &mut String) {
    match store.kind(node) {
        NodeKind::Document => {
            for child in store.children(node) {
                write_node(store, child, out);
            }
        }
        NodeKind::Element(name) => {
            let name = store.resolve_name(*name);
            // Writing into a `String` cannot fail.
            let _ = write!(out, "<{name}");
            for attr in store.attributes(node) {
                out.push(' ');
                write_node(store, attr, out);
            }
            let children = store.children(node);
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for child in children {
                    write_node(store, child, out);
                }
                let _ = write!(out, "</{name}>");
            }
        }
        NodeKind::Attribute(name, value) => {
            // A bare attribute node serializes as name="value".
            let value = escape_attribute(store.resolve_text(*value));
            let _ = write!(out, "{}=\"{value}\"", store.resolve_name(*name));
        }
        NodeKind::Text(text) => out.push_str(&escape_text(store.resolve_text(*text))),
        NodeKind::Comment(text) => {
            out.push_str("<!--");
            out.push_str(store.resolve_text(*text));
            out.push_str("-->");
        }
        NodeKind::ProcessingInstruction(target, content) => {
            let content = store.resolve_text(*content);
            out.push_str("<?");
            out.push_str(store.resolve_text(*target));
            if !content.is_empty() {
                out.push(' ');
                out.push_str(content);
            }
            out.push_str("?>");
        }
    }
}

/// Escape character data (`&`, `<`, `>`).
pub fn escape_text(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Escape an attribute value (`&`, `<`, `"`).
pub fn escape_attribute(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_simple_markup() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<a x=\"1\"><b>text</b><c/></a>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        assert_eq!(
            serialize_node(&store, root),
            "<a x=\"1\"><b>text</b><c/></a>"
        );
    }

    #[test]
    fn escapes_special_characters() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<a x=\"a &amp; b\">1 &lt; 2</a>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        assert_eq!(
            serialize_node(&store, root),
            "<a x=\"a &amp; b\">1 &lt; 2</a>"
        );
    }

    #[test]
    fn document_node_serializes_children() {
        let mut store = NodeStore::new();
        let doc = store.parse_document("<a><!-- c --><b/></a>").unwrap();
        let docnode = store.document_node(doc).unwrap();
        assert_eq!(serialize_node(&store, docnode), "<a><!-- c --><b/></a>");
    }

    #[test]
    fn parse_serialize_roundtrip_is_stable() {
        let mut store = NodeStore::new();
        let text = "<r><a id=\"1\"><b/>mixed<c k=\"v\">x</c></a></r>";
        let doc = store.parse_document(text).unwrap();
        let root = store.document_element(doc).unwrap();
        let once = serialize_node(&store, root);
        let doc2 = store.parse_document(&once).unwrap();
        let root2 = store.document_element(doc2).unwrap();
        let twice = serialize_node(&store, root2);
        assert_eq!(once, twice);
    }
}
