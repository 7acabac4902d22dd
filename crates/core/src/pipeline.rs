//! The §6 composition: *privacy for everyone*.
//!
//! "One possible way to fulfill the three privacy dimensions is for a
//! database which is not originally k-anonymous to be k-anonymized (via
//! microaggregation-condensation, recoding, suppression, etc.) and to be
//! added a PIR protocol to protect user queries." — §6.
//!
//! [`ThreeDimensionalDb`] is that deployment: the owner k-anonymizes the
//! microdata with MDAV microaggregation, loads the masked records into
//! replicated PIR servers, and users evaluate statistical queries *locally*
//! over privately retrieved records — the servers never see a predicate.
//! The client answers with the one query evaluator,
//! [`tdf_querydb::engine`], over its fetched copy of the release, so its
//! answers are the ones `StatDb` and the server give. (This realizes the
//! §3 assumption "assuming PIR protocols existed for those query types":
//! any per-record query type reduces to `n` record retrievals, which is
//! what we account.)

use rngkit::Rng;
use std::sync::Arc;
use std::sync::RwLock;
use tdf_microdata::{AttributeKind, Dataset, Error, Result, Value};
use tdf_pir::cost::CostReport;
use tdf_pir::store::Database;
use tdf_querydb::ast::Query;
use tdf_querydb::engine::{check_query, evaluate_with_limits, QueryLimits};
use tdf_sdc::microaggregation::mdav_microaggregate;

/// Serializes a dataset's rows into fixed-size PIR records: numeric cells
/// as big-endian `f64` bits, booleans as one byte, missing as NaN/0xFF.
/// Categorical strings are not supported in the PIR store (mask before
/// loading, or recode categories to integers).
pub fn encode_records(data: &Dataset) -> Result<Vec<Vec<u8>>> {
    // Per-column readers hoisted once; records are then serialized straight
    // from the typed column storage without materializing any `Value`.
    enum Reader<'a> {
        Bool(&'a tdf_microdata::BoolCol),
        Num(tdf_microdata::F64Cells<'a>),
        Cat(usize),
    }
    let readers: Vec<Reader> = (0..data.num_columns())
        .map(|c| match data.schema().attribute(c).kind {
            AttributeKind::Boolean => match data.col(c) {
                tdf_microdata::ColumnView::Bool(b) => Reader::Bool(b),
                _ => unreachable!("Boolean attributes use packed bool storage"),
            },
            AttributeKind::Continuous | AttributeKind::Integer => {
                Reader::Num(data.f64_cells(c).expect("numeric column"))
            }
            AttributeKind::Nominal | AttributeKind::Ordinal => Reader::Cat(c),
        })
        .collect();
    let mut out = Vec::with_capacity(data.num_rows());
    for i in 0..data.num_rows() {
        let mut rec = Vec::new();
        for reader in &readers {
            match reader {
                Reader::Bool(b) => rec.push(b.opt(i).map_or(0xFF, u8::from)),
                Reader::Num(cells) => {
                    let x = cells.get(i).unwrap_or(f64::NAN);
                    rec.extend_from_slice(&x.to_be_bytes());
                }
                Reader::Cat(c) => {
                    return Err(Error::InvalidParameter(format!(
                        "categorical attribute `{}` cannot be PIR-encoded",
                        data.schema().attribute(*c).name
                    )))
                }
            }
        }
        out.push(rec);
    }
    Ok(out)
}

/// Decodes one PIR record back into a row of `schema`-shaped values.
pub fn decode_record(data_schema: &tdf_microdata::Schema, rec: &[u8]) -> Result<Vec<Value>> {
    let mut row = Vec::with_capacity(data_schema.len());
    let mut pos = 0usize;
    for attr in data_schema.attributes() {
        match attr.kind {
            AttributeKind::Boolean => {
                let b = *rec.get(pos).ok_or(Error::EmptyDataset)?;
                row.push(match b {
                    0 => Value::Bool(false),
                    1 => Value::Bool(true),
                    _ => Value::Missing,
                });
                pos += 1;
            }
            AttributeKind::Continuous | AttributeKind::Integer => {
                let bytes: [u8; 8] = rec
                    .get(pos..pos + 8)
                    .ok_or(Error::EmptyDataset)?
                    .try_into()
                    .expect("slice of length 8");
                let x = f64::from_be_bytes(bytes);
                row.push(if x.is_nan() {
                    Value::Missing
                } else {
                    Value::Float(x)
                });
                pos += 8;
            }
            _ => {
                return Err(Error::InvalidParameter(format!(
                    "categorical attribute `{}` cannot be PIR-decoded",
                    attr.name
                )))
            }
        }
    }
    Ok(row)
}

/// How much of each dimension a deployment enables (for the F1 sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentConfig {
    /// k-anonymize the data before loading (respondent dimension); `None`
    /// loads raw data.
    pub k: Option<usize>,
    /// Serve via PIR (user dimension); `false` = plaintext indexed access.
    pub pir: bool,
}

/// The §6 deployment: (optionally masked) records behind (optional) PIR,
/// shared across replicated servers.
pub struct ThreeDimensionalDb {
    original: Dataset,
    released: Dataset,
    /// Replicated server state — `Arc<RwLock>` because the two PIR servers
    /// of the linear scheme are logically independent readers.
    store: Arc<RwLock<Database>>,
    config: DeploymentConfig,
    /// Cumulative communication over all retrievals.
    cost: CostReport,
    /// Plaintext-access log (only populated when `pir == false`): the
    /// owner's record of which rows each user touched.
    plain_access_log: Vec<usize>,
}

impl ThreeDimensionalDb {
    /// Builds the deployment from original microdata.
    pub fn deploy(original: Dataset, config: DeploymentConfig) -> Result<Self> {
        let released = match config.k {
            Some(k) => {
                let qi = original.schema().quasi_identifier_indices();
                mdav_microaggregate(&original, &qi, k)?.data
            }
            None => original.clone(),
        };
        let store = Arc::new(RwLock::new(Database::new(encode_records(&released)?)));
        Ok(Self {
            original,
            released,
            store,
            config,
            cost: CostReport::default(),
            plain_access_log: Vec::new(),
        })
    }

    /// The masked release loaded into the servers (what an intruder who
    /// compromises a server sees).
    pub fn released(&self) -> &Dataset {
        &self.released
    }

    /// The original microdata (the owner's secret).
    pub fn original(&self) -> &Dataset {
        &self.original
    }

    /// Total communication spent so far.
    pub fn cost(&self) -> CostReport {
        self.cost
    }

    /// Rows the owner observed being accessed (empty under PIR).
    pub fn plain_access_log(&self) -> &[usize] {
        &self.plain_access_log
    }

    /// Privately fetches record `i` (two-server linear PIR), or reads it
    /// in the clear when the deployment has no PIR layer.
    pub fn fetch<R: Rng + ?Sized>(&mut self, rng: &mut R, index: usize) -> Result<Vec<Value>> {
        let store = self.store.read().expect("store lock");
        let rec = if self.config.pir {
            let (rec, _views, cost) = tdf_pir::linear::retrieve(rng, &store, 2, index);
            self.cost += cost;
            rec
        } else {
            self.plain_access_log.push(index);
            self.cost += CostReport {
                uplink_bits: (usize::BITS - store.len().leading_zeros()) as u64,
                downlink_bits: (store.record_size() * 8) as u64,
                server_ops: 1,
                words_scanned: 0,
                servers: 1,
            };
            store.record(index).to_vec()
        };
        drop(store);
        decode_record(self.released.schema(), &rec)
    }

    /// Evaluates a statistical query entirely client-side: every record is
    /// fetched (privately under PIR) into a local copy of the release, and
    /// the one query evaluator, [`tdf_querydb::engine::evaluate_with_limits`],
    /// answers over that copy — the fold `StatDb` and the server use. Under
    /// PIR the servers learn only that *some* full scan happened — never the
    /// predicate or the aggregate.
    ///
    /// The evaluation is [`QueryLimits::unlimited`]: the injected
    /// `querydb.deadline` is a *server's* row allowance, and the client has
    /// already paid for its fetches.
    ///
    /// A query the release's schema cannot answer (an unknown attribute, a
    /// non-numeric aggregate) is rejected by [`check_query`] before any
    /// record is fetched, with the error evaluation would give.
    pub fn private_query<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        query: &Query,
    ) -> Result<Option<f64>> {
        check_query(query, self.released.schema())?;
        let n = self.store.read().expect("store lock").len();
        let mut fetched = Dataset::new(self.released.schema().clone());
        for i in 0..n {
            fetched.push_row(self.fetch(rng, i)?)?;
        }
        Ok(evaluate_with_limits(&fetched, query, &QueryLimits::unlimited())?.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_anonymity::is_k_anonymous;
    use tdf_microdata::patients;
    use tdf_microdata::rng::seeded;
    use tdf_querydb::parser::parse;

    #[test]
    fn encode_decode_round_trip() {
        let d = patients::dataset2();
        let recs = encode_records(&d).unwrap();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[0].len(), 8 * 3 + 1);
        for (i, rec) in recs.iter().enumerate() {
            let row = decode_record(d.schema(), rec).unwrap();
            assert_eq!(row, d.row(i), "row {i}");
        }
    }

    #[test]
    fn missing_cells_survive_encoding() {
        let mut d = patients::dataset1();
        d.set_value(0, 0, Value::Missing).unwrap();
        d.set_value(0, 3, Value::Missing).unwrap();
        let recs = encode_records(&d).unwrap();
        let row = decode_record(d.schema(), &recs[0]).unwrap();
        assert!(row[0].is_missing());
        assert!(row[3].is_missing());
    }

    #[test]
    fn categorical_data_is_rejected() {
        let d = tdf_microdata::synth::census(5, 1);
        assert!(encode_records(&d).is_err());
    }

    #[test]
    fn deployment_masks_and_serves() {
        let d = patients::dataset2();
        let mut db = ThreeDimensionalDb::deploy(
            d.clone(),
            DeploymentConfig {
                k: Some(3),
                pir: true,
            },
        )
        .unwrap();
        assert!(is_k_anonymous(db.released(), 3));
        let mut r = seeded(1);
        let row = db.fetch(&mut r, 0).unwrap();
        assert_eq!(row.len(), 4);
        // Confidential attribute untouched by QI microaggregation.
        assert_eq!(row[2], d.value(0, 2));
    }

    #[test]
    fn private_query_matches_plain_evaluation_on_release() {
        let d = patients::dataset1();
        let mut db =
            ThreeDimensionalDb::deploy(d.clone(), DeploymentConfig { k: None, pir: true }).unwrap();
        let mut r = seeded(2);
        let q = parse("SELECT AVG(blood_pressure) FROM t WHERE height = 170").unwrap();
        let got = db.private_query(&mut r, &q).unwrap().unwrap();
        let want = tdf_querydb::engine::evaluate(db.released(), &q).unwrap();
        assert_eq!(Some(got.to_bits()), want.value.map(f64::to_bits));
        assert_eq!(got, 132.0);
        // Servers saw no plaintext access.
        assert!(db.plain_access_log().is_empty());
        assert!(db.cost().total_bits() > 0);
    }

    #[test]
    fn private_query_matches_evaluate_on_release_bit_for_bit() {
        use tdf_microdata::synth::{patients as synth_patients, PatientConfig};
        use tdf_querydb::ast::Aggregate;
        use tdf_querydb::engine::evaluate;
        let d = synth_patients(&PatientConfig {
            n: 60,
            ..Default::default()
        });
        for k in [None, Some(3)] {
            for pir in [true, false] {
                let mut db =
                    ThreeDimensionalDb::deploy(d.clone(), DeploymentConfig { k, pir }).unwrap();
                let mut r = seeded(6);
                for sql in [
                    "SELECT COUNT(*) FROM t WHERE height < 170",
                    "SELECT SUM(weight) FROM t WHERE height >= 160 AND height <= 185",
                    "SELECT AVG(blood_pressure) FROM t WHERE weight > 70",
                    "SELECT MIN(height) FROM t WHERE weight < 90",
                    "SELECT MAX(weight) FROM t",
                    "SELECT SUM(weight) FROM t WHERE height > 999",
                    "SELECT COUNT(*) FROM t WHERE height < 160 OR weight > 95",
                    "SELECT MAX(blood_pressure) FROM t WHERE NOT aids = Y",
                    "SELECT AVG(weight) FROM t WHERE height IN (160, 165.5, 170, 180)",
                ] {
                    let q = parse(sql).unwrap();
                    let want = evaluate(db.released(), &q).unwrap();
                    // The query set's size, through the client's COUNT over
                    // the same predicate.
                    let count_q = Query {
                        aggregate: Aggregate::Count,
                        predicate: q.predicate.clone(),
                    };
                    let size = db.private_query(&mut r, &count_q).unwrap();
                    assert_eq!(
                        size,
                        Some(want.query_set.len() as f64),
                        "{k:?} pir={pir} {sql}"
                    );
                    let got = db.private_query(&mut r, &q).unwrap().map(f64::to_bits);
                    let want = want.value.map(f64::to_bits);
                    assert!(
                        got == want,
                        "{k:?} pir={pir} {sql}: {got:#x?} != {want:#x?}"
                    );
                }
            }
        }
    }

    #[test]
    fn private_query_rejects_what_evaluate_rejects() {
        let d = patients::dataset1();
        for k in [None, Some(3)] {
            let mut db =
                ThreeDimensionalDb::deploy(d.clone(), DeploymentConfig { k, pir: true }).unwrap();
            let mut r = seeded(7);
            let sum_aids = parse("SELECT SUM(aids) FROM t").unwrap();
            assert_eq!(
                db.private_query(&mut r, &sum_aids),
                Err(Error::NotNumeric("aids".into())),
                "{k:?}"
            );
            let unknown = parse("SELECT COUNT(*) FROM t WHERE salary > 3").unwrap();
            assert_eq!(
                db.private_query(&mut r, &unknown),
                Err(Error::UnknownAttribute("salary".into())),
                "{k:?}"
            );
            let unknown_agg = parse("SELECT AVG(salary) FROM t").unwrap();
            assert_eq!(
                db.private_query(&mut r, &unknown_agg),
                Err(Error::UnknownAttribute("salary".into())),
                "{k:?}"
            );
            // Rejected before the first retrieval: nothing was paid.
            assert_eq!(db.cost(), CostReport::default(), "{k:?}");
            // A well-formed query still pays all n retrievals.
            let ok = parse("SELECT COUNT(*) FROM t").unwrap();
            assert_eq!(db.private_query(&mut r, &ok), Ok(Some(10.0)));
            assert!(db.cost().server_ops > 0, "{k:?}");
        }
    }

    #[test]
    fn the_papers_isolation_attack_dies_on_the_masked_deployment() {
        // E6 in miniature: Dataset 2 masked to 3-anonymity + PIR. The two
        // §3 queries still *run* (user privacy!), but no longer isolate.
        let d = patients::dataset2();
        let mut db = ThreeDimensionalDb::deploy(
            d,
            DeploymentConfig {
                k: Some(3),
                pir: true,
            },
        )
        .unwrap();
        let mut r = seeded(3);
        let count = db
            .private_query(
                &mut r,
                &parse("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105").unwrap(),
            )
            .unwrap()
            .unwrap();
        assert_ne!(count, 1.0, "masked release must not isolate one record");
    }

    #[test]
    fn plaintext_deployment_logs_accesses() {
        let d = patients::dataset1();
        let mut db = ThreeDimensionalDb::deploy(
            d,
            DeploymentConfig {
                k: Some(3),
                pir: false,
            },
        )
        .unwrap();
        let mut r = seeded(4);
        db.fetch(&mut r, 7).unwrap();
        db.fetch(&mut r, 2).unwrap();
        assert_eq!(db.plain_access_log(), &[7, 2]);
    }

    #[test]
    fn pir_costs_more_than_plaintext() {
        let d = patients::dataset1();
        let mut pir_db =
            ThreeDimensionalDb::deploy(d.clone(), DeploymentConfig { k: None, pir: true }).unwrap();
        let mut plain_db = ThreeDimensionalDb::deploy(
            d,
            DeploymentConfig {
                k: None,
                pir: false,
            },
        )
        .unwrap();
        let mut r = seeded(5);
        pir_db.fetch(&mut r, 0).unwrap();
        plain_db.fetch(&mut r, 0).unwrap();
        assert!(pir_db.cost().total_bits() > plain_db.cost().total_bits());
    }
}
