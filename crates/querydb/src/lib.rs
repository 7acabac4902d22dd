//! # tdf-querydb
//!
//! An interactively queryable statistical database — the §3 battlefield of
//! the paper, where *respondent privacy* and *user privacy* collide.
//!
//! Users submit statistical queries (`SELECT AVG(blood_pressure) FROM t
//! WHERE height < 165 AND weight > 105`); the owner must prevent sequences
//! of queries from isolating a single respondent, which — as the paper
//! stresses — traditionally requires the owner to *see every query*:
//! exactly zero user privacy.
//!
//! * [`ast`] / [`parser`] — the mini-SQL the examples in §3 are written in;
//! * [`engine`] — evaluation over a `tdf-microdata` dataset;
//! * [`control`] — inference-control policies: none, query-set-size
//!   restriction, exact auditing (Chin–Ozsoyoglu \[7\], on the exact
//!   rational algebra of `tdf-mathkit`), output perturbation
//!   (Duncan–Mukherjee \[14\]), and interval answers (CVC-style \[16\]);
//! * [`statdb`] — the database front-end, with the owner's query log;
//! * [`tracker`] — the Schlörer tracker attack \[22\] that defeats naive
//!   size restriction;
//! * [`dp`] — a differentially-private answering policy with budget
//!   accounting, the field's post-2007 answer to this dilemma (included as
//!   the §6 "future research" extension).

pub mod ast;
pub mod control;
pub mod dp;
pub mod engine;
pub mod parser;
pub mod profiling;
pub mod statdb;
pub mod tracker;

pub use ast::{Aggregate, Predicate, Query};
pub use control::{Answer, ControlPolicy, QuerySetHistory};
pub use engine::{evaluate, evaluate_segmented, Evaluation, QueryLimits};
pub use statdb::StatDb;
