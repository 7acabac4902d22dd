//! Integration tests spanning multiple crates: mask → serialize → serve →
//! query → attack pipelines that no single crate exercises alone.

use dbpriv::anonymity::{is_k_anonymous, mondrian_anonymize, suppress_to_k_anonymity};
use dbpriv::microdata::csv::{from_csv, to_csv};
use dbpriv::microdata::rng::seeded;
use dbpriv::microdata::synth::{patients, PatientConfig};
use dbpriv::ppdm::condensation::condense;
use dbpriv::querydb::control::ControlPolicy;
use dbpriv::querydb::statdb::StatDb;
use dbpriv::sdc::microaggregation::mdav_microaggregate;
use dbpriv::sdc::noise::{add_noise, NoiseConfig};
use dbpriv::sdc::risk::record_linkage_rate;
use dbpriv::sdc::utility::il1s;

fn population(n: usize) -> dbpriv::microdata::Dataset {
    patients(&PatientConfig {
        n,
        seed: 0xC0FFEE,
        ..Default::default()
    })
}

#[test]
fn every_anonymizer_reaches_its_target_k() {
    let data = population(250);
    let qi = data.schema().quasi_identifier_indices();
    for k in [2usize, 5, 11] {
        assert!(is_k_anonymous(
            &mdav_microaggregate(&data, &qi, k).unwrap().data,
            k
        ));
        assert!(is_k_anonymous(&mondrian_anonymize(&data, k).data, k));
        assert!(is_k_anonymous(&suppress_to_k_anonymity(&data, k).data, k));
        // Condensation releases synthetic records, so it bounds *linkage*
        // at ~1/k instead of producing literal equivalence classes.
        let condensed = condense(&data, &qi, k, &mut seeded(k as u64)).unwrap();
        let rate = record_linkage_rate(&data, &condensed, &qi).unwrap();
        assert!(rate < 2.5 / k as f64, "k = {k}: linkage {rate}");
    }
}

#[test]
fn masked_releases_survive_csv_round_trips() {
    let data = population(60);
    let qi = data.schema().quasi_identifier_indices();
    let masked = mdav_microaggregate(&data, &qi, 4).unwrap().data;
    let text = to_csv(&masked);
    let back = from_csv(masked.schema().clone(), &text).unwrap();
    assert_eq!(masked, back);
    assert!(is_k_anonymous(&back, 4));
}

#[test]
fn risk_utility_ordering_across_methods() {
    // At comparable strength, every masking method trades linkage risk
    // against information loss; unmasked data sit at one extreme.
    let data = population(300);
    let qi = data.schema().quasi_identifier_indices();
    let noise = add_noise(&data, &NoiseConfig::new(0.8, qi.clone()), &mut seeded(1)).unwrap();
    let microagg = mdav_microaggregate(&data, &qi, 8).unwrap().data;

    let raw_risk = record_linkage_rate(&data, &data, &qi).unwrap();
    let noise_risk = record_linkage_rate(&data, &noise, &qi).unwrap();
    let micro_risk = record_linkage_rate(&data, &microagg, &qi).unwrap();
    assert!(raw_risk > noise_risk && raw_risk > micro_risk);

    let raw_loss = il1s(&data, &data, &qi).unwrap();
    let noise_loss = il1s(&data, &noise, &qi).unwrap();
    assert_eq!(raw_loss, 0.0);
    assert!(noise_loss > 0.0);
}

#[test]
fn masked_statdb_blunts_even_unrestricted_queries() {
    // Data masking instead of query control (§6's recommendation when user
    // privacy matters): the isolating query is allowed but harmless.
    let data = dbpriv::microdata::patients::dataset2();
    let qi = data.schema().quasi_identifier_indices();
    let masked = mdav_microaggregate(&data, &qi, 3).unwrap().data;
    let mut db = StatDb::new(masked, ControlPolicy::None);
    let a = db
        .query_str("SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105")
        .unwrap();
    assert_ne!(a.point(), Some(1.0), "no single record may be isolated");
}

#[test]
fn smc_aggregates_match_plain_statdb_aggregates() {
    // The crypto and non-crypto roads must agree on the statistics.
    use dbpriv::mathkit::Fp61;
    use dbpriv::smc::secure_sum::sharing_secure_sum;

    let data = population(90);
    let parts = data.horizontal_partition(3);
    let local_counts: Vec<Fp61> = parts
        .iter()
        .map(|p| Fp61::new(p.matching_indices(|r| r[3].as_bool() == Some(true)).len() as u64))
        .collect();
    let (secure_total, _) = sharing_secure_sum(&mut seeded(2), &local_counts);

    let mut db = StatDb::new(data, ControlPolicy::None);
    let plain = db
        .query_str("SELECT COUNT(*) FROM t WHERE aids = Y")
        .unwrap();
    assert_eq!(plain.point(), Some(secure_total.raw() as f64));
}

#[test]
fn pir_served_statistics_match_direct_statistics() {
    use dbpriv::core::pipeline::{DeploymentConfig, ThreeDimensionalDb};
    let data = population(40);
    let mut deployment =
        ThreeDimensionalDb::deploy(data.clone(), DeploymentConfig { k: None, pir: true }).unwrap();
    let mut db = StatDb::new(data, ControlPolicy::None);
    let mut rng = seeded(3);
    for src in [
        "SELECT COUNT(*) FROM t WHERE weight > 80",
        "SELECT AVG(blood_pressure) FROM t WHERE height < 175",
        "SELECT SUM(weight) FROM t WHERE aids = N",
        "SELECT MAX(blood_pressure) FROM t",
        "SELECT MIN(height) FROM t WHERE weight > 70",
    ] {
        let q = dbpriv::querydb::parser::parse(src).unwrap();
        let private = deployment.private_query(&mut rng, &q).unwrap();
        let direct = db.query(q).unwrap().point();
        assert_eq!(
            private.map(f64::to_bits),
            direct.map(f64::to_bits),
            "{src}: {private:?} vs {direct:?}"
        );
    }
}
