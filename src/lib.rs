//! # dbpriv — the three-dimensional database-privacy toolkit
//!
//! Facade crate re-exporting every subsystem of the `tdf` workspace, which
//! reproduces Josep Domingo-Ferrer, *A Three-Dimensional Conceptual
//! Framework for Database Privacy* (SDM@VLDB 2007).
//!
//! The three dimensions, and where to find their technologies:
//!
//! * **Respondent privacy** — [`anonymity`] (k-anonymity & friends) and
//!   [`sdc`] (masking, risk and utility metrics);
//! * **Owner privacy** — [`ppdm`] (non-cryptographic privacy-preserving
//!   data mining) and [`smc`] (cryptographic PPDM / secure multiparty
//!   computation);
//! * **User privacy** — [`pir`] (private information retrieval).
//!
//! The framework itself — dimensions, metrics, technology scoring, and the
//! composition pipelines of §6 of the paper — lives in [`core`].
//!
//! The hot kernels (MDAV, Mondrian, record linkage, multi-server PIR) run
//! on [`par`], the in-tree deterministic parallelism layer (a persistent
//! sharded executor): `TDF_THREADS` requests a count, clamped to the
//! measured cores (`TDF_CORES` overrides detection; `1` forces the serial
//! path) — results are bit-identical at every thread count.
//!
//! Every kernel is instrumented through [`obs`], the zero-dependency
//! observability layer: set `TDF_OBS=1` for counters/gauges/histograms or
//! `TDF_OBS=2` to add spans; instrumentation never changes results.
//!
//! Robustness is exercised through [`faultkit`], the seed-deterministic
//! fault-injection layer: set `TDF_FAULTS` to a plan such as
//! `pir.server_drop=1@0.1,par.worker_panic=3` and the hot paths inject —
//! and survive — server drops, corrupted answers, worker panics and
//! query deadlines; a zero-rate plan is bit-identical to no plan.
//!
//! The interactive statistical database goes online through [`serve`]:
//! a hermetic TCP server (framed binary protocol over `std::net`)
//! wrapping [`querydb`]'s admission path — per-user ε-budgets, tracker
//! detection, deadlines — with typed refusals on the wire.
//!
//! Owner-initiated reversibility lives in [`disguise`]: crash-atomic
//! unsubscribe/resubscribe transactions that re-own a user's rows to
//! deterministic ghost principals and redact their quasi-identifiers,
//! journalled through a checksummed write-ahead log so that a crash at
//! any instruction leaves the ledger all-or-nothing — recovery replays
//! committed transactions and discards torn tails, and
//! restore ∘ disguise is the bit-exact identity.

pub use faultkit;
pub use obs;
pub use par;
pub use tdf_anonymity as anonymity;
pub use tdf_core as core;
pub use tdf_disguise as disguise;
pub use tdf_hippocratic as hippocratic;
pub use tdf_mathkit as mathkit;
pub use tdf_microdata as microdata;
pub use tdf_pir as pir;
pub use tdf_ppdm as ppdm;
pub use tdf_querydb as querydb;
pub use tdf_sdc as sdc;
pub use tdf_serve as serve;
pub use tdf_smc as smc;
