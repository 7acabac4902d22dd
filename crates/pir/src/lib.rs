//! # tdf-pir
//!
//! Private information retrieval — the technology of the paper's *user
//! privacy* dimension (§3–§4, refs [6, 8]).
//!
//! A PIR protocol lets a user fetch record `i` from a database of `n`
//! records without the server(s) learning `i`. This crate implements:
//!
//! * [`trivial`] — the download-everything baseline (perfectly private,
//!   linear communication);
//! * [`linear`] — the basic Chor–Goldreich–Kushilevitz–Sudan \[8\] k-server
//!   XOR scheme (n-bit queries, one-record answers, information-theoretic
//!   privacy against any k−1 colluding servers);
//! * [`square`] — the O(√n) two-server refinement (the "square scheme");
//! * [`cube`] — the 2^d-server cube scheme with O(d·n^(1/d)) uplink;
//! * [`cpir`] — single-server *computational* PIR in the style of
//!   Kushilevitz–Ostrovsky, built on the Goldwasser–Micali
//!   quadratic-residuosity cryptosystem ([`gm`]) from `tdf-mathkit` primes;
//! * [`batch`] — multi-query batching: `q` pending two-server queries
//!   fused into one cache-hot database sweep, amortizing data traffic
//!   across the batch;
//! * [`hints`] — the offline/online split: √n-subset parities prepared
//!   offline so the online path touches O(√n) words, with a
//!   hint-refresh protocol after consumption;
//! * [`redundant`] — the (m, t)-redundant failure-tolerant retrieval:
//!   checksum-verified pairwise replication that detects and masks up to
//!   `t` byzantine or silent servers (never returns a wrong record);
//! * [`cost`] — communication/computation accounting, so the `fig_pir_cost`
//!   experiment can reproduce the asymptotic separations;
//! * [`store`] — a PIR-backed record store with an explicit server *view*,
//!   used by `tdf-core` to measure query leakage in bits.

pub mod batch;
pub mod bits;
pub mod cost;
pub mod cpir;
pub mod cube;
pub mod gm;
pub mod hints;
pub mod linear;
pub mod redundant;
pub mod square;
pub mod store;
pub mod trivial;

pub use batch::{BatchOutcome, BatchQuery};
pub use bits::BitVec;
pub use cost::CostReport;
pub use hints::ClientHints;
pub use redundant::{PirError, VerifiedDatabase};
pub use store::{Database, ServerView};
