//! Attribute definitions: kind (statistical type) and disclosure role.

/// Statistical type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeKind {
    /// Real-valued (height in cm, income in EUR).
    Continuous,
    /// Integer-valued but treated numerically (age in years).
    Integer,
    /// Unordered categories (diagnosis code, city).
    Nominal,
    /// Ordered categories, stored as strings with an external order
    /// (education level). Masking methods may exploit the order.
    Ordinal,
    /// Two-valued flag (the paper's AIDS Y/N column).
    Boolean,
}

impl AttributeKind {
    /// Whether values of this kind can be averaged / perturbed numerically.
    pub fn is_numeric(self) -> bool {
        matches!(self, AttributeKind::Continuous | AttributeKind::Integer)
    }
}

/// Disclosure role of an attribute, following the taxonomy of §2 of the
/// paper (after Dalenius \[9\] and Samarati \[20\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeRole {
    /// Directly identifies the respondent; removed before any processing.
    Identifier,
    /// *Key attribute*: identifies with some ambiguity when linked with
    /// external data (the paper's height and weight).
    QuasiIdentifier,
    /// Sensitive payload whose association with an identity must be
    /// prevented (blood pressure, AIDS).
    Confidential,
    /// Neither identifying nor sensitive.
    NonConfidential,
}

/// One column of a microdata schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    /// Column name, unique within a schema.
    pub name: String,
    /// Statistical type.
    pub kind: AttributeKind,
    /// Disclosure role.
    pub role: AttributeRole,
}

impl AttributeDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, kind: AttributeKind, role: AttributeRole) -> Self {
        Self {
            name: name.into(),
            kind,
            role,
        }
    }

    /// A continuous quasi-identifier (the most common case in this repo).
    pub fn continuous_qi(name: impl Into<String>) -> Self {
        Self::new(
            name,
            AttributeKind::Continuous,
            AttributeRole::QuasiIdentifier,
        )
    }

    /// A continuous confidential attribute.
    pub fn continuous_confidential(name: impl Into<String>) -> Self {
        Self::new(name, AttributeKind::Continuous, AttributeRole::Confidential)
    }

    /// A boolean confidential attribute (e.g. AIDS in Table 1).
    pub fn boolean_confidential(name: impl Into<String>) -> Self {
        Self::new(name, AttributeKind::Boolean, AttributeRole::Confidential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_kinds() {
        assert!(AttributeKind::Continuous.is_numeric());
        assert!(AttributeKind::Integer.is_numeric());
        assert!(!AttributeKind::Nominal.is_numeric());
        assert!(!AttributeKind::Ordinal.is_numeric());
        assert!(!AttributeKind::Boolean.is_numeric());
    }

    #[test]
    fn constructors_set_roles() {
        let a = AttributeDef::continuous_qi("height");
        assert_eq!(a.role, AttributeRole::QuasiIdentifier);
        assert_eq!(a.kind, AttributeKind::Continuous);
        let b = AttributeDef::boolean_confidential("aids");
        assert_eq!(b.role, AttributeRole::Confidential);
        assert_eq!(b.kind, AttributeKind::Boolean);
    }
}
