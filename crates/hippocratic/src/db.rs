//! The hippocratic database: purpose-bound access with an audit trail.

use crate::policy::{Consent, PrivacyPolicy, Purpose};
use rngkit::Rng;
use tdf_anonymity::is_k_anonymous;
use tdf_microdata::{Dataset, Error, Result, Value};
use tdf_sdc::microaggregation::mdav_microaggregate;
use tdf_sdc::noise::{add_noise, NoiseConfig};

/// One journaled access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Declared purpose.
    pub purpose: Purpose,
    /// Requested attributes.
    pub attributes: Vec<String>,
    /// Number of records disclosed.
    pub records_disclosed: usize,
    /// Whether the access was served (policy allowed something).
    pub served: bool,
}

/// A dataset guarded by a privacy policy, per-respondent consent and
/// collection timestamps.
#[derive(Debug)]
pub struct HippocraticDb {
    data: Dataset,
    policy: PrivacyPolicy,
    consent: Vec<Consent>,
    /// Age of each record in days since collection.
    age_days: Vec<u32>,
    audit: Vec<AccessRecord>,
}

impl HippocraticDb {
    /// Creates a guarded database. `consent` and `age_days` must align with
    /// the dataset's records.
    pub fn new(
        data: Dataset,
        policy: PrivacyPolicy,
        consent: Vec<Consent>,
        age_days: Vec<u32>,
    ) -> Result<Self> {
        if consent.len() != data.num_rows() || age_days.len() != data.num_rows() {
            return Err(Error::InvalidParameter(
                "consent and age vectors must align with records".into(),
            ));
        }
        Ok(Self {
            data,
            policy,
            consent,
            age_days,
            audit: Vec::new(),
        })
    }

    /// The audit trail of every access ever made.
    pub fn audit_trail(&self) -> &[AccessRecord] {
        &self.audit
    }

    /// Row indices currently live for `purpose`: consented and within the
    /// purpose's retention horizon.
    fn live_rows(&self, purpose: Purpose) -> Vec<usize> {
        let retention = match self.policy.rule(purpose) {
            Some(r) => r.retention_days,
            None => return Vec::new(),
        };
        (0..self.data.num_rows())
            .filter(|&i| self.consent[i].covers(purpose) && self.age_days[i] <= retention)
            .collect()
    }

    /// Purpose-bound query: returns the requested attributes for every
    /// live record, with unauthorized attributes *suppressed* rather than
    /// erroring (limited disclosure).
    pub fn access(&mut self, purpose: Purpose, attributes: &[&str]) -> Result<Dataset> {
        // Validate attribute names first.
        let mut cols = Vec::with_capacity(attributes.len());
        for a in attributes {
            cols.push(self.data.schema().index_of(a)?);
        }
        let rows = self.live_rows(purpose);
        // Columnar gather of the live records, then whole-column
        // suppression of the attributes the policy disallows.
        let mut out = self.data.project(&cols).take(&rows);
        for (j, a) in attributes.iter().enumerate() {
            if !self.policy.allows(purpose, a) {
                for i in 0..out.num_rows() {
                    out.set_value(i, j, Value::Missing)?;
                }
            }
        }
        let served = attributes.iter().any(|a| self.policy.allows(purpose, a)) && !rows.is_empty();
        self.audit.push(AccessRecord {
            purpose,
            attributes: attributes.iter().map(|s| (*s).to_owned()).collect(),
            records_disclosed: if served { out.num_rows() } else { 0 },
            served,
        });
        Ok(out)
    }

    /// External research release: k-anonymized via microaggregation of the
    /// quasi-identifiers (respondent privacy) and noise-masked on the
    /// numeric confidential attributes (owner privacy) — the combination
    /// \[3\] deploys, as the paper recounts in §2.
    pub fn research_release<R: Rng + ?Sized>(
        &mut self,
        k: usize,
        noise_alpha: f64,
        rng: &mut R,
    ) -> Result<Dataset> {
        let rows = self.live_rows(Purpose::Research);
        if rows.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let consented = self.data.take(&rows);
        let qi = consented.schema().quasi_identifier_indices();
        let anonymized = mdav_microaggregate(&consented, &qi, k)?.data;
        let numeric_conf: Vec<usize> = anonymized
            .schema()
            .confidential_indices()
            .into_iter()
            .filter(|&c| anonymized.schema().attribute(c).kind.is_numeric())
            .collect();
        let released = if numeric_conf.is_empty() || noise_alpha == 0.0 {
            anonymized
        } else {
            add_noise(
                &anonymized,
                &NoiseConfig::new(noise_alpha, numeric_conf),
                rng,
            )?
        };
        debug_assert!(is_k_anonymous(&released, k));
        self.audit.push(AccessRecord {
            purpose: Purpose::Research,
            attributes: self
                .data
                .schema()
                .names()
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            records_disclosed: released.num_rows(),
            served: true,
        });
        Ok(released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::patients;
    use tdf_microdata::rng::seeded;
    use tdf_microdata::synth::{patients as synth, PatientConfig};

    fn policy() -> PrivacyPolicy {
        PrivacyPolicy::new()
            .allow(
                Purpose::Treatment,
                &["height", "weight", "blood_pressure", "aids"],
                3650,
            )
            .allow(Purpose::Billing, &["blood_pressure"], 365)
            .allow(
                Purpose::Research,
                &["height", "weight", "blood_pressure", "aids"],
                1825,
            )
    }

    fn db_with(consents: Vec<Consent>, ages: Vec<u32>) -> HippocraticDb {
        HippocraticDb::new(patients::dataset1(), policy(), consents, ages).unwrap()
    }

    fn all_consent_db() -> HippocraticDb {
        db_with(vec![Consent::all(); 10], vec![0; 10])
    }

    #[test]
    fn treatment_sees_everything_consented() {
        let mut db = all_consent_db();
        let out = db.access(Purpose::Treatment, &["height", "aids"]).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert!(!out.value(0, 1).is_missing());
    }

    #[test]
    fn billing_gets_unauthorized_columns_suppressed() {
        let mut db = all_consent_db();
        let out = db
            .access(Purpose::Billing, &["blood_pressure", "aids"])
            .unwrap();
        assert_eq!(out.num_rows(), 10);
        for i in 0..out.num_rows() {
            assert!(!out.value(i, 0).is_missing(), "blood_pressure allowed");
            assert!(
                out.value(i, 1).is_missing(),
                "aids must be suppressed for billing"
            );
        }
    }

    #[test]
    fn marketing_gets_nothing() {
        let mut db = all_consent_db();
        let out = db.access(Purpose::Marketing, &["height"]).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert!(!db.audit_trail()[0].served);
    }

    #[test]
    fn unconsented_respondents_are_invisible() {
        let mut consents = vec![Consent::all(); 10];
        consents[0] = Consent::none();
        consents[1] = Consent::to(&[Purpose::Billing]);
        let mut db = db_with(consents, vec![0; 10]);
        let out = db.access(Purpose::Treatment, &["height"]).unwrap();
        assert_eq!(out.num_rows(), 8);
    }

    #[test]
    fn retention_expires_records_per_purpose() {
        let mut ages = vec![0u32; 10];
        ages[3] = 400; // beyond billing's 365, within treatment's 3650
        let mut db = db_with(vec![Consent::all(); 10], ages);
        assert_eq!(
            db.access(Purpose::Billing, &["blood_pressure"])
                .unwrap()
                .num_rows(),
            9
        );
        assert_eq!(
            db.access(Purpose::Treatment, &["height"])
                .unwrap()
                .num_rows(),
            10
        );
    }

    #[test]
    fn audit_trail_records_every_access() {
        let mut db = all_consent_db();
        db.access(Purpose::Treatment, &["height"]).unwrap();
        db.access(Purpose::Marketing, &["height"]).unwrap();
        let trail = db.audit_trail();
        assert_eq!(trail.len(), 2);
        assert!(trail[0].served);
        assert_eq!(trail[0].records_disclosed, 10);
        assert!(!trail[1].served);
        assert_eq!(trail[1].records_disclosed, 0);
    }

    #[test]
    fn research_release_is_k_anonymous_and_masked() {
        let data = synth(&PatientConfig {
            n: 200,
            ..Default::default()
        });
        let n = data.num_rows();
        let mut db =
            HippocraticDb::new(data.clone(), policy(), vec![Consent::all(); n], vec![0; n])
                .unwrap();
        let released = db.research_release(5, 0.3, &mut seeded(1)).unwrap();
        assert!(is_k_anonymous(&released, 5));
        // Confidential blood pressures are perturbed.
        let changed = (0..released.num_rows())
            .filter(|&i| released.value(i, 2) != data.value(i, 2))
            .count();
        assert!(changed > n / 2);
    }

    #[test]
    fn research_release_without_consent_fails() {
        let mut db = db_with(vec![Consent::to(&[Purpose::Treatment]); 10], vec![0; 10]);
        assert!(db.research_release(3, 0.2, &mut seeded(2)).is_err());
    }

    #[test]
    fn misaligned_vectors_rejected() {
        let r = HippocraticDb::new(
            patients::dataset1(),
            policy(),
            vec![Consent::all(); 3],
            vec![0; 10],
        );
        assert!(r.is_err());
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let mut db = all_consent_db();
        assert!(db.access(Purpose::Treatment, &["salary"]).is_err());
    }
}
