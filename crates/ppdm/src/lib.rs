//! # tdf-ppdm
//!
//! Non-cryptographic privacy-preserving data mining — the *owner privacy*
//! technologies the paper calls "non-crypto PPDM" (§2, §4, §5).
//!
//! The owner masks its data once and then answers (or publishes) freely;
//! crucially, it "does not need to know the exact query being computed on
//! his protected data" (§4), which is what makes these methods composable
//! with PIR — the composition `tdf-core::pipeline` exploits.
//!
//! * [`agrawal`] — the seminal Agrawal–Srikant scheme \[5\]: additive value
//!   distortion plus Bayesian reconstruction of the original *distribution*
//!   (not the values), enabling distribution-level mining;
//! * [`classifier`] — a histogram Bayes classifier that trains on original,
//!   distorted, or reconstructed distributions — the utility yardstick of
//!   the `fig_reconstruction` experiment;
//! * [`decision_tree`] — a CART-style tree with threshold splits, the
//!   literal model family \[5\] evaluates;
//! * [`condensation`] — Aggarwal–Yu condensation \[1\]: microaggregation
//!   groups re-emitted as synthetic records with preserved moments; the
//!   centroid-releasing variant of the same grouping yields k-anonymity
//!   (\[12\]), while the synthetic variant bounds linkage at ~1/k;
//! * [`randomized_response`] — Warner's randomized response and the
//!   Du–Zhan PPDM use of it \[13\] (see the paper's footnote 1: in practice
//!   the *owner*, not the respondent, runs the randomizing device);
//! * [`rules`] — an Apriori miner plus Verykios-style association-rule
//!   hiding \[25\], with lost/ghost side-effect accounting;
//! * [`sparsity`] — the Domingo-Ferrer–Sebé–Castellà attack \[11\] showing
//!   owner privacy *without* respondent privacy: in high dimension,
//!   noise-masked records become re-identifiable.

pub mod agrawal;
pub mod classifier;
pub mod condensation;
pub mod decision_tree;
pub mod randomized_response;
pub mod rules;
pub mod sparsity;

pub use agrawal::{distort_column, reconstruct_distribution, ReconstructionReport};
pub use condensation::condense;
pub use rules::{apriori, generate_rules, hide_rules, Itemset, Rule};
