//! Error type for the XDM substrate.

use std::fmt;

/// Errors raised by the data-model layer.
///
/// Parsing errors carry a byte offset into the input so callers can point at
/// the offending location; structural errors describe which invariant was
/// violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdmError {
    /// The XML parser rejected the input.
    Parse {
        /// Byte offset of the error in the source text.
        offset: usize,
        /// Human readable description.
        message: String,
    },
    /// A [`NodeId`](crate::NodeId) referred to a document or node that does
    /// not exist in the store.
    DanglingNode(String),
    /// An operation was applied to a node of the wrong kind
    /// (e.g. asking for the attributes of a text node).
    WrongNodeKind(String),
    /// A value could not be cast to the requested atomic type.
    InvalidCast(String),
}

impl XdmError {
    /// Construct a parse error at `offset`.
    pub fn parse(offset: usize, message: impl Into<String>) -> Self {
        XdmError::Parse {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for XdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdmError::Parse { offset, message } => {
                write!(f, "XML parse error at byte {offset}: {message}")
            }
            XdmError::DanglingNode(msg) => write!(f, "dangling node reference: {msg}"),
            XdmError::WrongNodeKind(msg) => write!(f, "wrong node kind: {msg}"),
            XdmError::InvalidCast(msg) => write!(f, "invalid cast: {msg}"),
        }
    }
}

impl std::error::Error for XdmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_error_mentions_offset() {
        let err = XdmError::parse(42, "unexpected '<'");
        let text = err.to_string();
        assert!(text.contains("42"));
        assert!(text.contains("unexpected '<'"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(XdmError::parse(1, "x"), XdmError::parse(1, "x"));
        assert_ne!(XdmError::parse(1, "x"), XdmError::parse(2, "x"));
    }
}
