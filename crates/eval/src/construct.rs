//! Node construction: direct and computed constructors.
//!
//! Every invocation of a constructor creates **fresh node identities** — the
//! property that makes constructors non-distributive (Section 3.2 of the
//! paper: `text { "c" }` is not set-equal to
//! `for $y in $x return text { "c" }`) and that can make an inflationary
//! fixed point undefined (the node domain keeps growing).

use xqy_parser::ast::{ConstructorContent, Expr};
use xqy_xdm::{Item, NodeId, NodeKind, QName, Sequence};

use crate::context::{Environment, Focus};
use crate::error::EvalError;
use crate::evaluator::Evaluator;
use crate::Result;

/// Evaluate a constructor expression.
pub fn construct(
    eval: &mut Evaluator<'_>,
    expr: &Expr,
    env: &mut Environment,
    focus: Option<&Focus>,
) -> Result<Sequence> {
    match expr {
        Expr::DirectElement {
            name,
            attributes,
            content,
        } => {
            let frag = eval.store.new_fragment();
            let element = eval.store.create_element(frag, QName::parse(name));
            for (attr_name, parts) in attributes {
                let value = constructor_parts_string(eval, parts, env, focus)?;
                eval.store
                    .add_attribute(element, QName::parse(attr_name), value)?;
            }
            for part in content {
                match part {
                    ConstructorContent::Text(text) => {
                        let t = eval.store.create_text(frag, text.clone());
                        eval.store.append_child(element, t)?;
                    }
                    ConstructorContent::Expr(e) => {
                        let value = eval.eval_expr(e, env, focus)?;
                        append_content(eval, element, &value)?;
                    }
                }
            }
            Ok(Sequence::from_nodes(vec![element]))
        }
        Expr::ComputedElement { name, content } => {
            let value = eval.eval_expr(content, env, focus)?;
            let frag = eval.store.new_fragment();
            let element = eval.store.create_element(frag, QName::parse(name));
            append_content(eval, element, &value)?;
            Ok(Sequence::from_nodes(vec![element]))
        }
        Expr::ComputedAttribute { name, content } => {
            let value = eval.eval_expr(content, env, focus)?;
            let text = sequence_to_string(eval, &value);
            let frag = eval.store.new_fragment();
            // A parentless attribute node: create a placeholder element to
            // own it is *not* correct (the attribute would get a parent), so
            // we store the attribute as the root of its own fragment.
            let attr = create_detached_attribute(eval, frag, name, text);
            Ok(Sequence::from_nodes(vec![attr]))
        }
        Expr::ComputedText { content } => {
            let value = eval.eval_expr(content, env, focus)?;
            let text = sequence_to_string(eval, &value);
            let frag = eval.store.new_fragment();
            let node = eval.store.create_text(frag, text);
            Ok(Sequence::from_nodes(vec![node]))
        }
        other => Err(EvalError::Type(format!(
            "not a constructor expression: {other:?}"
        ))),
    }
}

fn create_detached_attribute(
    eval: &mut Evaluator<'_>,
    frag: xqy_xdm::DocId,
    name: &str,
    value: String,
) -> NodeId {
    // The store only creates attributes attached to elements; emulate a
    // detached attribute by creating a scratch element and taking its
    // attribute node (the scratch element is unreachable from queries).
    let scratch = eval
        .store
        .create_element(frag, QName::local("fn:attr-holder"));
    eval.store
        .add_attribute(scratch, QName::parse(name), value)
        .expect("scratch element accepts attributes")
}

/// Append evaluated content to an element under construction: nodes are
/// deep-copied (fresh identities), attribute nodes become attributes,
/// adjacent atomic values merge into a single text node separated by spaces.
fn append_content(eval: &mut Evaluator<'_>, element: NodeId, value: &Sequence) -> Result<()> {
    let frag = xqy_xdm::DocId(element.doc);
    let mut pending_text = String::new();
    for item in value.iter() {
        match item {
            Item::Atomic(a) => {
                if !pending_text.is_empty() {
                    pending_text.push(' ');
                }
                match a.as_str() {
                    Some(s) => pending_text.push_str(s),
                    None => pending_text.push_str(&a.string_value()),
                }
            }
            Item::Node(n) => {
                if !pending_text.is_empty() {
                    let t = eval
                        .store
                        .create_text(frag, std::mem::take(&mut pending_text));
                    eval.store.append_child(element, t)?;
                }
                match *eval.store.kind(*n) {
                    NodeKind::Attribute(name, attr_value) => {
                        // Name and payload symbols already live in this
                        // store — re-attach them without resolving.
                        eval.store
                            .add_attribute_interned(element, name, attr_value)?;
                    }
                    NodeKind::Document => {
                        for child in eval.store.children(*n) {
                            let copy = eval.store.deep_copy(child, frag);
                            eval.store.append_child(element, copy)?;
                        }
                    }
                    _ => {
                        let copy = eval.store.deep_copy(*n, frag);
                        eval.store.append_child(element, copy)?;
                    }
                }
            }
        }
    }
    if !pending_text.is_empty() {
        let t = eval.store.create_text(frag, pending_text);
        eval.store.append_child(element, t)?;
    }
    Ok(())
}

fn constructor_parts_string(
    eval: &mut Evaluator<'_>,
    parts: &[ConstructorContent],
    env: &mut Environment,
    focus: Option<&Focus>,
) -> Result<String> {
    let mut out = String::new();
    for part in parts {
        match part {
            ConstructorContent::Text(t) => out.push_str(t),
            ConstructorContent::Expr(e) => {
                let value = eval.eval_expr(e, env, focus)?;
                out.push_str(&sequence_to_string(eval, &value));
            }
        }
    }
    Ok(out)
}

fn sequence_to_string(eval: &Evaluator<'_>, value: &Sequence) -> String {
    value
        .iter()
        .map(|item| eval.item_string(item))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_xdm::{serialize::serialize_node, NodeStore};

    fn eval_to_xml(src: &str) -> String {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        let result = evaluator.eval_query_str(src).unwrap();
        let node = result.nodes()[0];
        serialize_node(&store, node)
    }

    #[test]
    fn direct_element_with_text_and_nested_elements() {
        assert_eq!(
            eval_to_xml("<a x=\"1\">hi<b/></a>"),
            "<a x=\"1\">hi<b/></a>"
        );
    }

    #[test]
    fn enclosed_expressions_are_evaluated() {
        assert_eq!(
            eval_to_xml("<a n=\"{ 1 + 1 }\">{ 2 + 3 }</a>"),
            "<a n=\"2\">5</a>"
        );
    }

    #[test]
    fn computed_constructors() {
        assert_eq!(eval_to_xml("element out { 1 + 1 }"), "<out>2</out>");
        assert_eq!(eval_to_xml("text { 'c' }"), "c");
    }

    #[test]
    fn attribute_content_nodes_become_attributes() {
        let xml = eval_to_xml("<p>{ attribute id { 42 } }</p>");
        assert_eq!(xml, "<p id=\"42\"/>");
    }

    #[test]
    fn adjacent_atomics_merge_with_spaces() {
        assert_eq!(eval_to_xml("<a>{ (1, 2, 3) }</a>"), "<a>1 2 3</a>");
    }

    #[test]
    fn copied_content_gets_fresh_identity() {
        let mut store = NodeStore::new();
        store
            .parse_document_with_uri("d.xml", "<r><x><y/></x></r>")
            .unwrap();
        let mut evaluator = Evaluator::new(&mut store);
        let result = evaluator
            .eval_query_str(
                "let $x := doc('d.xml')/r/x return <wrap>{ $x }</wrap>/x is doc('d.xml')/r/x",
            )
            .unwrap();
        assert_eq!(result.items()[0], Item::boolean(false));
    }

    #[test]
    fn constructors_create_distinct_identities_each_time() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        // The same constructor evaluated twice yields different nodes; this
        // is what breaks distributivity for constructor payloads.
        let result = evaluator
            .eval_query_str("count(distinct-values((text { 'c' } is text { 'c' })))")
            .unwrap();
        assert_eq!(result.len(), 1);
        let result = evaluator
            .eval_query_str("text { 'c' } is text { 'c' }")
            .unwrap();
        assert_eq!(result.items()[0], Item::boolean(false));
    }
}
