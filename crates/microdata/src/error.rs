//! Error type shared by all microdata operations.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by dataset construction, access and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An attribute name was looked up that the schema does not define.
    UnknownAttribute(String),
    /// A row had a different number of cells than the schema has attributes.
    ArityMismatch { expected: usize, got: usize },
    /// A value's type did not match the attribute's declared kind.
    TypeMismatch {
        attribute: String,
        expected: &'static str,
        got: &'static str,
    },
    /// Two datasets that must share a schema (e.g. original vs masked) do not.
    SchemaMismatch,
    /// An operation required a non-empty dataset.
    EmptyDataset,
    /// A numeric operation was requested on a non-numeric attribute.
    NotNumeric(String),
    /// TSV text could not be parsed. `line` is 1-based over the whole
    /// input (schema and header lines included).
    Tsv { line: usize, message: String },
    /// A binary image could not be written, read back or decoded: a
    /// spilled segment image ([`crate::segio`]) or a PIR record
    /// ([`crate::pircodec`]).
    Serial(String),
    /// A parameter was outside its valid domain.
    InvalidParameter(String),
    /// An evaluation exceeded its resource budget (e.g. a per-query
    /// deadline expressed as a row-scan allowance). The paper's tracker
    /// semantics require this to surface as an explicit refusal, never a
    /// silent partial answer.
    ResourceExhausted(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            Error::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} attributes, row has {got}"
                )
            }
            Error::TypeMismatch {
                attribute,
                expected,
                got,
            } => {
                write!(
                    f,
                    "type mismatch for `{attribute}`: expected {expected}, got {got}"
                )
            }
            Error::SchemaMismatch => write!(f, "datasets do not share a schema"),
            Error::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            Error::NotNumeric(name) => write!(f, "attribute `{name}` is not numeric"),
            Error::Tsv { line, message } => write!(f, "TSV parse error at line {line}: {message}"),
            Error::Serial(message) => write!(f, "serialisation error: {message}"),
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::ResourceExhausted(msg) => write!(f, "resource budget exhausted: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::UnknownAttribute("age".into()), "age"),
            (
                Error::ArityMismatch {
                    expected: 4,
                    got: 3,
                },
                "4",
            ),
            (
                Error::TypeMismatch {
                    attribute: "h".into(),
                    expected: "float",
                    got: "str",
                },
                "float",
            ),
            (Error::SchemaMismatch, "schema"),
            (Error::EmptyDataset, "non-empty"),
            (Error::NotNumeric("aids".into()), "aids"),
            (
                Error::Tsv {
                    line: 7,
                    message: "bad escape".into(),
                },
                "line 7",
            ),
            (
                Error::InvalidParameter("k must be >= 2".into()),
                "k must be >= 2",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }
}
