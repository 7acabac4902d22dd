//! # tdf-hippocratic
//!
//! A hippocratic-database layer after Agrawal–Kiernan–Srikant–Xu \[4\] and
//! the healthcare deployment described in \[3\] — the paper's §1/§2 example
//! of a "real-world technology integrating k-anonymization for respondent
//! privacy and PPDM based on noise addition for owner privacy".
//!
//! Ten founding principles distilled to their executable core:
//!
//! * **purpose specification & consent** — every attribute is disclosed
//!   only for purposes the policy names and the respondent consented to;
//! * **limited disclosure** — queries are *rewritten*: unauthorized
//!   columns come back suppressed, unconsented records are filtered out;
//! * **limited retention** — records past their retention horizon vanish;
//! * **compliance/audit** — every access is journaled;
//! * **safety** — external releases go through k-anonymization
//!   (respondent privacy) and/or noise masking (owner privacy) from
//!   `tdf-anonymity` / `tdf-sdc`.

pub mod db;
pub mod policy;

pub use db::{AccessRecord, HippocraticDb};
pub use policy::{Consent, PolicyRule, PrivacyPolicy, Purpose};
