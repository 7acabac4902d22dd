//! # tdf-serve
//!
//! Privacy-as-a-service: the statistical database of `tdf-querydb`
//! exposed as a long-lived TCP service, hermetic over `std::net`.
//!
//! The paper's user-privacy dimension presumes an *online* statistical
//! database that real users query interactively; this crate is that
//! deployment surface. The privacy boundary is the query endpoint
//! itself (after the service-oriented architectures of the cloud-
//! database line of work in PAPERS.md): every request passes an
//! admission path — per-user ε-budget, tracker (differencing)
//! detection, evaluation deadlines — and every refusal travels as a
//! typed wire code mirroring `querydb`'s in-process `Answer::Refused`.
//!
//! * [`protocol`] — the framed binary wire format (length-delimited, so
//!   truncation is always detectable);
//! * [`session`] — per-user budget + history state and the admission
//!   path;
//! * [`batch`] — PIR batch admission: concurrent `PIR_FETCH` requests
//!   from different connections coalesce into one fused database sweep;
//! * [`server`] — accept loop, connection workers, the background
//!   segment compactor (`TDF_COMPACT_MIN`), draining shutdown,
//!   `tdf-obs` metrics;
//! * [`client`] — a blocking client.
//!
//! The served paths are benchmarked end to end by `perfbench/`, a cargo
//! package of its own at the repository root.

pub mod batch;
pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use batch::{PirBatcher, SweepFailed};
pub use client::Client;
pub use protocol::{RefusalReason, Request, Response};
pub use server::{pir_record, Server, ServerConfig};
pub use session::{SessionConfig, UserSession};
