//! A small, dependency-free XML parser.
//!
//! The parser covers the XML subset the reproduced paper's workloads use:
//! elements, attributes, character data, CDATA sections, comments,
//! processing instructions, the XML declaration, a (skipped) DOCTYPE, and
//! the five predefined entities plus numeric character references.
//!
//! It does **not** implement namespaces-aware validation, external entities,
//! or DTD content models — ID-typed attributes are instead declared through
//! [`NodeStore::register_id_attribute`](crate::NodeStore::register_id_attribute).

use std::borrow::Cow;

use crate::error::XdmError;
use crate::node::NodeId;
use crate::store::{DocId, NodeStore};
use crate::Result;

/// Parse `text` into a new document inside `store`.  On an error the
/// document is left behind half-built: [`NodeStore::parse_document`], the
/// one caller, takes it back out.
pub(crate) fn parse_into(store: &mut NodeStore, text: &str) -> Result<DocId> {
    let doc = store.new_document();
    let root = store
        .document_node(doc)
        .expect("freshly created document has a document node");
    let mut parser = Parser {
        text,
        pos: 0,
        store,
        doc,
        depth: 0,
        chars: String::new(),
    };
    parser.skip_prolog()?;
    parser.parse_content(root, true)?;
    parser.skip_whitespace_and_misc()?;
    if parser.pos != text.len() {
        return Err(XdmError::parse(
            parser.pos,
            "trailing content after document element",
        ));
    }
    Ok(doc)
}

/// Deepest element nesting the parser accepts: it bounds this descent's
/// stack and the depth of the tree the recursive walkers over a document
/// (string value, serialization, deep copy) descend, where running out of
/// stack would abort the process.  Sized for the unoptimised build on a
/// 2 MiB thread.
const MAX_ELEMENT_DEPTH: usize = 128;

struct Parser<'a, 's> {
    /// Scanned as bytes.  Every delimiter the parser stops at is ASCII, so
    /// the offsets it cuts `text` at are character boundaries.
    text: &'a str,
    pos: usize,
    store: &'s mut NodeStore,
    doc: DocId,
    /// Open elements around `pos`.
    depth: usize,
    /// The character data gathered since the last node was created.  Runs
    /// end where child markup begins, so one buffer serves every level.
    chars: String,
}

impl<'a, 's> Parser<'a, 's> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.text.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn error(&self, msg: impl Into<String>) -> XdmError {
        XdmError::parse(self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn skip_prolog(&mut self) -> Result<()> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            let end = self.find("?>")?;
            self.pos = end + 2;
        }
        self.skip_whitespace_and_misc()?;
        if self.starts_with("<!DOCTYPE") {
            // Skip to the matching '>' accounting for an optional internal
            // subset in square brackets.
            let mut depth = 0usize;
            while let Some(c) = self.peek() {
                match c {
                    b'[' => depth += 1,
                    b']' => depth = depth.saturating_sub(1),
                    b'>' if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    _ => {}
                }
                self.pos += 1;
            }
        }
        self.skip_whitespace_and_misc()?;
        Ok(())
    }

    /// Skip whitespace, comments and PIs outside the document element.
    fn skip_whitespace_and_misc(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.pos = end + 3;
            } else if self.starts_with("<?") && !self.starts_with("<?xml") {
                let end = self.find("?>")?;
                self.pos = end + 2;
            } else {
                return Ok(());
            }
        }
    }

    fn find(&self, needle: &str) -> Result<usize> {
        let hay = &self.text.as_bytes()[self.pos..];
        hay.windows(needle.len())
            .position(|w| w == needle.as_bytes())
            .map(|p| self.pos + p)
            .ok_or_else(|| self.error(format!("expected '{needle}'")))
    }

    fn read_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ch = c as char;
            if ch.is_ascii_alphanumeric() || matches!(ch, '_' | '-' | '.' | ':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// Parse element content (children of `parent`).  When `top_level` is
    /// true exactly one element child is required (the document element).
    fn parse_content(&mut self, parent: NodeId, top_level: bool) -> Result<()> {
        let mut element_seen = false;
        loop {
            match self.peek() {
                None => {
                    if top_level && !element_seen {
                        return Err(self.error("missing document element"));
                    }
                    self.flush_text(parent)?;
                    return Ok(());
                }
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.flush_text(parent)?;
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        self.flush_text(parent)?;
                        let end = self.find("-->")?;
                        let content = &self.text[self.pos + 4..end];
                        let comment = self.store.create_comment(self.doc, content);
                        self.store
                            .append_child(parent, comment)
                            .map_err(|e| self.error(e.to_string()))?;
                        self.pos = end + 3;
                    } else if self.starts_with("<![CDATA[") {
                        let end = self.find("]]>")?;
                        self.chars.push_str(&self.text[self.pos + 9..end]);
                        self.pos = end + 3;
                    } else if self.starts_with("<?") {
                        self.flush_text(parent)?;
                        let end = self.find("?>")?;
                        let raw = &self.text[self.pos + 2..end];
                        let (target, content) = match raw.split_once(char::is_whitespace) {
                            Some((t, c)) => (t, c.trim_start()),
                            None => (raw, ""),
                        };
                        let pi = self.store.create_pi(self.doc, target, content);
                        self.store
                            .append_child(parent, pi)
                            .map_err(|e| self.error(e.to_string()))?;
                        self.pos = end + 2;
                    } else {
                        self.flush_text(parent)?;
                        if top_level && element_seen {
                            return Err(self.error("multiple document elements"));
                        }
                        self.parse_element(parent)?;
                        element_seen = true;
                        if top_level {
                            self.skip_whitespace_and_misc()?;
                        }
                    }
                }
                Some(_) => {
                    if top_level {
                        // Character data outside the document element: only
                        // whitespace is allowed (already skipped), anything
                        // else is an error.
                        if !self.peek().map(|c| c.is_ascii_whitespace()).unwrap_or(true) {
                            return Err(self.error("character data outside document element"));
                        }
                        self.pos += 1;
                    } else {
                        let data = self.read_char_data()?;
                        self.chars.push_str(&data);
                    }
                }
            }
        }
    }

    fn flush_text(&mut self, parent: NodeId) -> Result<()> {
        // Whitespace-only runs between elements are not materialized; this
        // mirrors a data-oriented (non-mixed-content) reading of the
        // benchmark documents and keeps node counts meaningful.
        if !self.chars.chars().all(char::is_whitespace) {
            let node = self.store.create_text(self.doc, &self.chars);
            self.store
                .append_child(parent, node)
                .map_err(|e| self.error(e.to_string()))?;
        }
        self.chars.clear();
        Ok(())
    }

    fn read_char_data(&mut self) -> Result<Cow<'a, str>> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'<' {
                break;
            }
            self.pos += 1;
        }
        decode_entities(&self.text[start..self.pos], start)
    }

    fn parse_element(&mut self, parent: NodeId) -> Result<()> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        if self.depth == MAX_ELEMENT_DEPTH {
            return Err(self.error(format!(
                "elements nested deeper than {MAX_ELEMENT_DEPTH} levels"
            )));
        }
        self.bump(1);
        let name = self.read_name()?;
        let element = self.store.create_element_lexical(self.doc, name);
        self.store
            .append_child(parent, element)
            .map_err(|e| self.error(e.to_string()))?;

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump(1);
                    self.depth += 1;
                    self.parse_content(element, false)?;
                    self.depth -= 1;
                    // Closing tag.
                    if !self.starts_with("</") {
                        return Err(self.error(format!("expected closing tag for <{name}>")));
                    }
                    self.bump(2);
                    let close = self.read_name()?;
                    if close != name {
                        return Err(self.error(format!(
                            "mismatched closing tag: expected </{name}>, found </{close}>"
                        )));
                    }
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        return Err(self.error("expected '>' after closing tag name"));
                    }
                    self.bump(1);
                    return Ok(());
                }
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.error("expected '/>'"));
                    }
                    self.bump(2);
                    return Ok(());
                }
                Some(_) => {
                    let attr_name = self.read_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.error("expected '=' in attribute"));
                    }
                    self.bump(1);
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.error("expected quoted attribute value")),
                    };
                    self.bump(1);
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.error("unterminated attribute value"));
                    }
                    let value = decode_entities(&self.text[start..self.pos], start)?;
                    self.bump(1);
                    self.store
                        .add_attribute_lexical(element, attr_name, &value)
                        .map_err(|e| self.error(e.to_string()))?;
                }
                None => return Err(self.error("unexpected end of input inside tag")),
            }
        }
    }
}

/// Replace the predefined entities and numeric character references in `raw`.
fn decode_entities(raw: &str, offset: usize) -> Result<Cow<'_, str>> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let end = rest
            .find(';')
            .ok_or_else(|| XdmError::parse(offset, "unterminated entity reference"))?;
        let entity = &rest[1..end];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| XdmError::parse(offset, "invalid hex character reference"))?;
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| XdmError::parse(offset, "invalid character reference"))?;
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            other => {
                return Err(XdmError::parse(
                    offset,
                    format!("unknown entity reference '&{other};'"),
                ))
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Axis, NodeTest};

    #[test]
    fn parses_simple_document() {
        let mut store = NodeStore::new();
        let doc = store.parse_document("<a><b>x</b><c/></a>").unwrap();
        let root = store.document_element(doc).unwrap();
        assert_eq!(store.name(root).unwrap().local, "a");
        assert_eq!(store.children(root).len(), 2);
    }

    #[test]
    fn parses_declaration_doctype_comments_and_pis() {
        let mut store = NodeStore::new();
        let text = "<?xml version=\"1.0\"?>\n<!DOCTYPE r [<!ELEMENT r ANY>]>\n<!-- hi -->\n<r><?target data?><!-- inner --><x/></r>";
        let doc = store.parse_document(text).unwrap();
        let root = store.document_element(doc).unwrap();
        assert_eq!(store.name(root).unwrap().local, "r");
        let kids = store.children(root);
        assert_eq!(kids.len(), 3); // PI, comment, element
    }

    #[test]
    fn decodes_entities_in_text_and_attributes() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<a t=\"x &amp; y\">1 &lt; 2 &#65;&#x42;</a>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        assert_eq!(store.attribute_value(root, "t"), Some("x & y"));
        assert_eq!(store.string_value(root), "1 < 2 AB");
    }

    #[test]
    fn cdata_is_text() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<a><![CDATA[<not-a-tag>]]></a>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        assert_eq!(store.string_value(root), "<not-a-tag>");
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let mut store = NodeStore::new();
        let doc = store.parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        let root = store.document_element(doc).unwrap();
        let kids = store.axis_nodes(root, Axis::Child, &NodeTest::AnyNode);
        assert_eq!(kids.len(), 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        let mut store = NodeStore::new();
        assert!(store.parse_document("<a><b></a>").is_err());
        assert!(store.parse_document("<a>").is_err());
        assert!(store.parse_document("<a/><b/>").is_err());
        assert!(store.parse_document("no markup").is_err());
        assert!(store.parse_document("<a attr=novalue/>").is_err());
        assert!(store.parse_document("<a>&unknown;</a>").is_err());
    }

    #[test]
    fn mismatched_close_tag_reports_names() {
        let mut store = NodeStore::new();
        let err = store.parse_document("<a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched"));
    }
}
