//! # tdf-sdc
//!
//! Statistical disclosure control (SDC) — the toolbox of the respondent-
//! privacy dimension, after the *Handbook on Statistical Disclosure
//! Control* \[17\] and Willenborg–DeWaal \[26\].
//!
//! Masking methods (each takes an original dataset and returns a protected
//! release):
//!
//! * [`microaggregation`] — MDAV and fixed-size heuristics; with group size
//!   `k` applied to the quasi-identifiers this *guarantees k-anonymity*
//!   (Domingo-Ferrer–Torra \[12\]) and coincides with the condensation
//!   approach to PPDM (Aggarwal–Yu \[1\]);
//! * [`noise`] — uncorrelated and correlated additive Gaussian noise
//!   (the masking of Agrawal–Srikant \[5\] and of hippocratic databases);
//! * [`swapping`] — rank swapping;
//! * [`pram`] — post-randomization of categorical attributes;
//! * [`coding`] — top/bottom coding and rounding;
//! * [`tables`] — tabular protection: frequency tables with primary and
//!   complementary cell suppression, audited by exact linear algebra.
//! * [`epoch`] — incremental republication over sealed segments: cached
//!   masked images for O(delta) epochs, segment-parallel masking, and
//!   the `TDF_RECHURN` continuity knob trading republication cost
//!   against cross-epoch linkability.
//!
//! Metrics:
//!
//! * [`risk`] — disclosure risk: distance-based record linkage, interval
//!   disclosure, uniqueness (within one release) and
//!   [`risk::cross_epoch_linkage_rate`] (trackability across releases);
//! * [`utility`] — information loss: IL1s, moment/covariance preservation.
//!
//! The same masked release scores on *both* of the paper's first two
//! dimensions: record linkage measures respondent risk, while the owner's
//! exposure is the fraction of original values an adversary can reconstruct
//! from the release (see `tdf-core::scoring`).

pub mod coding;
pub mod epoch;
pub mod microaggregation;
pub mod noise;
pub mod pram;
pub mod risk;
pub mod swapping;
pub mod tables;
pub mod utility;

pub use epoch::{EpochMasker, EpochPublisher, EpochRelease};
pub use microaggregation::{fixed_microaggregate, mdav_microaggregate, MicroaggregationResult};
pub use noise::{add_correlated_noise, add_noise, NoiseConfig};
pub use risk::{
    cross_epoch_linkage_rate, interval_disclosure_rate, record_linkage_rate, uniqueness_rate,
};
pub use utility::{il1s, UtilityReport};
