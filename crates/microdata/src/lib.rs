//! # tdf-microdata
//!
//! Tabular *microdata* substrate for the three-dimensional database-privacy
//! toolkit. A microdata file, in the statistical-disclosure-control sense of
//! the paper this repository reproduces (Domingo-Ferrer, *A Three-Dimensional
//! Conceptual Framework for Database Privacy*, SDM@VLDB 2007), is a table in
//! which every record describes one *respondent* and every attribute is
//! classified by the role it plays in a disclosure scenario:
//!
//! * **identifiers** — unambiguously name the respondent (passport number);
//!   always removed before any release;
//! * **quasi-identifiers** (*key attributes* in the paper, after Dalenius and
//!   Samarati) — do not identify on their own but can be linked with external
//!   information (height, weight, zip code, birth date);
//! * **confidential attributes** — the sensitive payload (blood pressure,
//!   AIDS status);
//! * **non-confidential** — everything else.
//!
//! The crate provides typed values, schemas, datasets, CSV/TSV/JSON I/O
//! (all hand-rolled — the workspace builds with zero external crates),
//! summary statistics, record distances, deterministic random sampling, the
//! synthetic populations used by every experiment in this repository, and
//! faithful reconstructions of the paper's Table 1 toy datasets.
//!
//! ```
//! use tdf_microdata::patients;
//!
//! let d1 = patients::dataset1();
//! assert_eq!(d1.num_rows(), 10);
//! ```

pub mod attribute;
pub mod bitmap;
pub mod column;
pub mod csv;
pub mod dataset;
pub mod distance;
pub mod error;
pub mod patients;
pub mod rng;
pub mod sampling;
pub mod schema;
pub mod segio;
pub mod segment;
pub mod ser;
pub mod stats;
pub mod synth;
pub mod value;

pub use attribute::{AttributeDef, AttributeKind, AttributeRole};
pub use bitmap::Bitmap;
pub use column::{BoolCol, CatCol, Column, ColumnView, F64Cells, FloatCol, IntCol};
pub use dataset::Dataset;
pub use error::{Error, Result};
pub use schema::Schema;
pub use segment::{CompactedRun, CompactionReport, SegMeta, SegmentedDataset};
pub use value::Value;
