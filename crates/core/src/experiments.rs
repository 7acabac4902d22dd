//! Executable versions of the paper's worked examples (§2–§4) and the §6
//! composition sweep.
//!
//! Each `eN` function reproduces one independence demonstration and
//! returns the measured facts plus a `matches_paper` verdict; the
//! `tdf-bench` binaries print them and EXPERIMENTS.md records them.

use crate::metrics::{owner_score, respondent_score};
use crate::pipeline::{DeploymentConfig, ThreeDimensionalDb};
use rngkit::Rng;
use tdf_microdata::patients;
use tdf_microdata::rng::seeded;
use tdf_microdata::synth::{patients as synth_patients, PatientConfig};
use tdf_microdata::Result;
use tdf_ppdm::sparsity;
use tdf_querydb::ast::{CmpOp, Predicate};
use tdf_querydb::control::{Auditor, ControlPolicy};
use tdf_querydb::statdb::StatDb;
use tdf_querydb::tracker::disclose_individual;
use tdf_sdc::utility::{utility_report, UtilityReport};
use tdf_smc::id3::{distributed_id3, DataShape, PartySlice};
use tdf_smc::secure_sum::sharing_secure_sum;

/// Generic outcome of one independence experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Experiment id ("E1" … "E7").
    pub id: &'static str,
    /// One-line statement of the paper's claim.
    pub claim: &'static str,
    /// Measured facts, as printable lines.
    pub facts: Vec<String>,
    /// Whether the measurements support the paper's claim.
    pub matches_paper: bool,
}

/// E1 — §2 "respondent privacy without owner privacy": publishing the
/// spontaneously 3-anonymous Dataset 1 protects patients but hands the
/// pharmaceutical company's trial data to competitors.
pub fn e1_respondent_without_owner() -> Result<ExperimentOutcome> {
    let d = patients::dataset1();
    let respondent = respondent_score(&d, &d)?;
    // The release *is* the dataset: owner disclosure is total.
    let owner = owner_score(&d, &d, &d.schema().numeric_indices(), 0.1)?;
    let respondent_ok = respondent >= 1.0 - 1.0 / 3.0 - 1e-9; // linkage ≤ 1/3
    let owner_violated = owner < 0.05;
    Ok(ExperimentOutcome {
        id: "E1",
        claim: "Dataset 1 is publishable for respondents (3-anonymous) yet publication violates owner privacy",
        facts: vec![
            format!("respondent score of the release: {respondent:.3} (linkage \u{2264} 1/3)"),
            format!("owner score of the release: {owner:.3} (full dataset disclosed)"),
        ],
        matches_paper: respondent_ok && owner_violated,
    })
}

/// E2 — §2 "respondent and owner privacy": masking (noise \[5\] /
/// condensation \[1\]) protects both while keeping the data analytically
/// useful.
pub fn e2_masking_protects_both() -> Result<ExperimentOutcome> {
    let d = synth_patients(&PatientConfig {
        n: 400,
        ..Default::default()
    });
    let numeric = d.schema().numeric_indices();
    let mut rng = seeded(2);
    let masked = tdf_ppdm::condensation::condense(&d, &numeric, 5, &mut rng)?;
    let respondent = respondent_score(&d, &masked)?;
    let owner = owner_score(&d, &masked, &numeric, 0.1)?;
    let utility: UtilityReport = utility_report(&d, &masked, &numeric)?;
    let ok = respondent > 0.5 && owner > 0.5 && utility.max_correlation_drift < 0.15;
    Ok(ExperimentOutcome {
        id: "E2",
        claim: "adequate masking yields respondent AND owner privacy without destroying utility",
        facts: vec![
            format!("respondent score: {respondent:.3}"),
            format!("owner score: {owner:.3}"),
            format!(
                "max correlation drift: {:.3}",
                utility.max_correlation_drift
            ),
            format!("IL1s information loss: {:.3}", utility.il1s),
        ],
        matches_paper: ok,
    })
}

/// E3 — §2 "owner privacy without respondent privacy", both variants:
/// (a) releasing a single Dataset 2 record violates the respondent but not
/// the owner; (b) the \[11\] sparsity attack on noise addition.
pub fn e3_owner_without_respondent() -> Result<ExperimentOutcome> {
    // (a) single-record release from Dataset 2.
    let d = patients::dataset2();
    let single_rows = 1.0 / d.num_rows() as f64;
    // The single record discloses its respondent entirely (unique QI),
    // while the owner loses one record out of ten.
    // (b) sparsity: same noise, rising dimension, rising linkage.
    let low = sparsity::linkage_rate_at_dimension(200, 2, 1.0, 3);
    let high = sparsity::linkage_rate_at_dimension(200, 40, 1.0, 3);
    let ok = high > low + 0.2 && high > 0.5;
    Ok(ExperimentOutcome {
        id: "E3",
        claim: "owner privacy can hold while respondent privacy fails (single-record leak; high-dimensional noise reconstruction [11])",
        facts: vec![
            format!("(a) single-record release: respondent linkage 1.0, owner loses {:.0}% of cells", single_rows * 100.0),
            format!("(b) sparsity attack linkage: d=2 \u{2192} {low:.2}, d=40 \u{2192} {high:.2}"),
        ],
        matches_paper: ok,
    })
}

/// E4 — §3 "respondent privacy without user privacy": interactive SDC.
/// The size filter is defeated by the tracker \[22\]; exact auditing \[7\]
/// stops it; either way the owner logs every query — zero user privacy.
pub fn e4_interactive_sdc() -> Result<ExperimentOutcome> {
    let target =
        Predicate::cmp("height", CmpOp::Lt, 165.0).and(Predicate::cmp("weight", CmpOp::Gt, 105.0));
    let tracker = Predicate::cmp("aids", CmpOp::Eq, false);

    let mut size_db = StatDb::new(
        patients::dataset2(),
        ControlPolicy::SizeRestriction { min_size: 2 },
    );
    let tracked = disclose_individual(&mut size_db, "blood_pressure", &target, &tracker)?;

    let d2 = patients::dataset2();
    let n = d2.num_rows();
    let mut audit_db = StatDb::new(d2, ControlPolicy::Audit(Auditor::new("blood_pressure", n)));
    let audited = disclose_individual(&mut audit_db, "blood_pressure", &target, &tracker)?;

    let queries_seen = size_db.query_log().len() + audit_db.query_log().len();
    let ok = tracked == Some(146.0) && audited.is_none() && queries_seen > 0;
    Ok(ExperimentOutcome {
        id: "E4",
        claim: "query control can give respondent privacy (auditing beats the tracker) but the owner sees every query: no user privacy",
        facts: vec![
            format!("tracker vs size restriction: disclosed {tracked:?} (true value 146)"),
            format!("tracker vs exact auditing: disclosed {audited:?}, {} refusals", audit_db.refusals()),
            format!("queries visible to the owner: {queries_seen}"),
        ],
        matches_paper: ok,
    })
}

/// E5 — §3 "user privacy without respondent privacy": the paper's verbatim
/// two-query PIR isolation attack on Dataset 2.
pub fn e5_pir_isolation_attack() -> Result<ExperimentOutcome> {
    let mut db = ThreeDimensionalDb::deploy(
        patients::dataset2(),
        DeploymentConfig { k: None, pir: true },
    )?;
    let mut rng = seeded(5);
    let count_q =
        tdf_querydb::parser::parse("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105")?;
    let avg_q = tdf_querydb::parser::parse(
        "SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105",
    )?;
    let count = db.private_query(&mut rng, &count_q)?;
    let avg = db.private_query(&mut rng, &avg_q)?;
    let server_learned_nothing = db.plain_access_log().is_empty();
    let ok = count == Some(1.0) && avg == Some(146.0) && server_learned_nothing;
    Ok(ExperimentOutcome {
        id: "E5",
        claim: "PIR on unmasked Dataset 2: the user's queries stay private, yet two queries re-identify Mr./Mrs. X (blood pressure 146)",
        facts: vec![
            format!("COUNT(*) WHERE height<165 AND weight>105 = {count:?}"),
            format!("AVG(blood_pressure) same predicate = {avg:?}"),
            format!("owner observed zero plaintext accesses: {server_learned_nothing}"),
        ],
        matches_paper: ok,
    })
}

/// E6 — §3 "respondent and user privacy": the same attack dies against a
/// k-anonymized release served over PIR.
pub fn e6_kanon_plus_pir() -> Result<ExperimentOutcome> {
    let original = patients::dataset2();
    let mut db = ThreeDimensionalDb::deploy(
        original.clone(),
        DeploymentConfig {
            k: Some(3),
            pir: true,
        },
    )?;
    let mut rng = seeded(6);
    let count_q =
        tdf_querydb::parser::parse("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105")?;
    let count = db.private_query(&mut rng, &count_q)?;
    let respondent = respondent_score(&original, db.released())?;
    let isolating = count == Some(1.0);
    let ok = !isolating && respondent >= 1.0 - 1.0 / 3.0 - 1e-9;
    Ok(ExperimentOutcome {
        id: "E6",
        claim:
            "k-anonymous records + PIR: no query can isolate a respondent, and queries stay private",
        facts: vec![
            format!("isolating COUNT now returns {count:?} (was 1 on the raw data)"),
            format!("respondent score of the PIR-served release: {respondent:.3}"),
        ],
        matches_paper: ok,
    })
}

/// E7 — §4 owner/user independence: crypto PPDM reveals only the joint
/// result (owner privacy) but every party knows the computation (no user
/// privacy); non-crypto PPDM + PIR gives both, at a weaker owner level.
pub fn e7_crypto_vs_noncrypto() -> Result<ExperimentOutcome> {
    // Crypto side: 3-party secure sum + distributed ID3; check transcripts.
    let mut rng = seeded(7);
    let inputs = [1234u64, 5678, 9012];
    let (sum, transcript) = sharing_secure_sum(&mut rng, &inputs.map(tdf_mathkit::Fp61::new));
    let inputs_hidden = (0..3).all(|p| inputs.iter().all(|&v| !transcript.party_saw_value(p, v)));

    let (parties, shape) = toy_partition();
    let id3 = distributed_id3(&mut rng, &parties, &shape, 3);
    let only_aggregates = id3
        .transcripts
        .iter()
        .flat_map(|t| t.messages())
        .all(|m| m.payload.len() == 1);

    let ok = sum.raw() == 1234 + 5678 + 9012 && inputs_hidden && only_aggregates;
    Ok(ExperimentOutcome {
        id: "E7",
        claim: "crypto PPDM: parties learn only the result (owner privacy) while the computation itself is known to all (no user privacy)",
        facts: vec![
            format!("secure sum correct: {}", sum.raw() == 15924),
            format!("no party saw another's raw input: {inputs_hidden}"),
            format!(
                "distributed ID3 exchanged {} secure-sum aggregates, records never moved: {only_aggregates}",
                id3.secure_sums
            ),
        ],
        matches_paper: ok,
    })
}

fn toy_partition() -> (Vec<PartySlice>, DataShape) {
    let mut a = PartySlice::default();
    let mut b = PartySlice::default();
    for i in 0..40usize {
        let row = vec![i % 3, (i / 3) % 2];
        let label = usize::from(i % 3 == 0);
        let slice = if i % 2 == 0 { &mut a } else { &mut b };
        slice.rows.push(row);
        slice.labels.push(label);
    }
    (
        vec![a, b],
        DataShape {
            attribute_cardinalities: vec![3, 2],
            num_classes: 2,
        },
    )
}

/// Runs every independence experiment.
pub fn all_experiments() -> Result<Vec<ExperimentOutcome>> {
    Ok(vec![
        e1_respondent_without_owner()?,
        e2_masking_protects_both()?,
        e3_owner_without_respondent()?,
        e4_interactive_sdc()?,
        e5_pir_isolation_attack()?,
        e6_kanon_plus_pir()?,
        e7_crypto_vs_noncrypto()?,
    ])
}

/// One point of the §6 / F1 risk–utility sweep.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Microaggregation parameter.
    pub k: usize,
    /// Respondent score of the deployment's release.
    pub respondent: f64,
    /// Owner score of the release.
    pub owner: f64,
    /// User score of the access channel (1 under PIR, 0 in the clear).
    pub user: f64,
    /// IL1s information loss of the release.
    pub information_loss: f64,
    /// Communication bits per full statistical query.
    pub bits_per_query: u64,
}

/// F1 — sweeps `k` for a deployment shape, measuring all three scores plus
/// the utility penalty the paper's §6 asks about.
pub fn tradeoff_sweep<R: Rng + ?Sized>(
    config_pir: bool,
    ks: &[usize],
    n: usize,
    rng: &mut R,
) -> Result<Vec<TradeoffPoint>> {
    let data = synth_patients(&PatientConfig {
        n,
        ..Default::default()
    });
    let numeric = data.schema().numeric_indices();
    let mut out = Vec::with_capacity(ks.len());
    for &k in ks {
        let mut db = ThreeDimensionalDb::deploy(
            data.clone(),
            DeploymentConfig {
                k: if k > 1 { Some(k) } else { None },
                pir: config_pir,
            },
        )?;
        let q = tdf_querydb::parser::parse("SELECT AVG(blood_pressure) FROM t WHERE weight > 90")?;
        let before = db.cost();
        let _ = db.private_query(rng, &q)?;
        let bits_per_query = db.cost().total_bits() - before.total_bits();
        out.push(TradeoffPoint {
            k,
            respondent: respondent_score(&data, db.released())?,
            owner: owner_score(&data, db.released(), &numeric, 0.1)?,
            user: if config_pir { 1.0 } else { 0.0 },
            information_loss: tdf_sdc::utility::il1s(&data, db.released(), &numeric)?,
            bits_per_query,
        })
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_independence_experiment_matches_the_paper() {
        for outcome in all_experiments().unwrap() {
            assert!(
                outcome.matches_paper,
                "{} failed: {:?}",
                outcome.id, outcome.facts
            );
        }
    }

    #[test]
    fn e5_and_e6_are_the_same_attack_with_opposite_outcomes() {
        let e5 = e5_pir_isolation_attack().unwrap();
        let e6 = e6_kanon_plus_pir().unwrap();
        assert!(e5.matches_paper && e6.matches_paper);
        assert!(e5.facts[0].contains("Some(1.0)"));
        assert!(!e6.facts[0].contains("Some(1.0)"));
    }

    #[test]
    fn tradeoff_respondent_rises_and_utility_falls_with_k() {
        let mut rng = seeded(77);
        let points = tradeoff_sweep(true, &[1, 3, 10, 25], 150, &mut rng).unwrap();
        assert_eq!(points.len(), 4);
        assert!(points[0].respondent < points[3].respondent);
        assert!(points[0].information_loss < points[3].information_loss);
        for p in &points {
            assert_eq!(p.user, 1.0);
            assert!(p.bits_per_query > 0);
        }
    }

    #[test]
    fn pir_deployment_costs_more_communication_than_plain() {
        let mut rng = seeded(78);
        let with_pir = tradeoff_sweep(true, &[3], 100, &mut rng).unwrap();
        let without = tradeoff_sweep(false, &[3], 100, &mut rng).unwrap();
        assert!(with_pir[0].bits_per_query > without[0].bits_per_query);
        assert_eq!(without[0].user, 0.0);
    }
}
