//! # tdf-anonymity
//!
//! Privacy *models* and anonymization *algorithms* for respondent privacy —
//! the first dimension of the paper's framework.
//!
//! Models (checkers over a released dataset):
//!
//! * **k-anonymity** (Samarati–Sweeney \[20, 21, 23\]) — every combination of
//!   quasi-identifier values is shared by at least `k` records;
//! * **p-sensitive k-anonymity** (Truta–Vinay \[24\]) — additionally, each
//!   equivalence class exhibits at least `p` distinct values of every
//!   confidential attribute (the paper's footnote 3);
//! * **l-diversity** and **t-closeness** — later refinements included for
//!   completeness of the assessment harness.
//!
//! Algorithms (transformations that *enforce* a model):
//!
//! * full-domain **global recoding** over generalization hierarchies, with
//!   Samarati-style minimal-lattice search \[2\];
//! * **Mondrian** multidimensional partitioning for numeric
//!   quasi-identifiers;
//! * greedy **local suppression**.
//!
//! Microaggregation — the third route to k-anonymity the paper cites
//! ([1, 10, 12]) — lives in `tdf-sdc` because it doubles as an owner-privacy
//! masking method; `tdf-sdc::microaggregation` documents the equivalence.

pub mod attacks;
pub mod hierarchy;
pub mod model;
pub mod mondrian;
pub mod recoding;
pub mod sensitive;
pub mod suppression;

pub use attacks::homogeneity_attack;
pub use hierarchy::{Hierarchy, TreeHierarchy};
pub use model::{
    entropy_l_diversity_level, is_k_anonymous, k_anonymity_level, l_diversity_level,
    p_sensitivity_level, t_closeness, t_closeness_numeric, EquivalenceClassSummary,
};
pub use mondrian::mondrian_anonymize;
pub use recoding::{apply_recoding, minimal_recoding, RecodingResult};
pub use sensitive::enforce_p_sensitivity;
pub use suppression::suppress_to_k_anonymity;
