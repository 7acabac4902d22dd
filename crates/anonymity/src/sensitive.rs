//! Enforcement of p-sensitive k-anonymity (Truta–Vinay \[24\]).
//!
//! The paper's footnote 3: "If records sharing a combination of key
//! attributes in a k-anonymous dataset also share the values for one or
//! more confidential attributes, then k-anonymity does not guarantee
//! respondent privacy" — each equivalence class must also exhibit at least
//! `p` distinct values of every confidential attribute.
//!
//! The enforcement here post-processes any k-anonymous grouping: classes
//! whose confidential diversity is below `p` are *merged* with their
//! nearest neighbouring class (by quasi-identifier centroid) until every
//! class is both large enough and diverse enough; merged classes get a
//! common quasi-identifier centroid, preserving k-anonymity.

use std::collections::HashSet;
use tdf_microdata::{Dataset, Error, Result, Value};

/// Result of a p-sensitivity enforcement pass.
#[derive(Debug, Clone)]
pub struct PSensitiveResult {
    /// The adjusted dataset (k-anonymous and p-sensitive).
    pub data: Dataset,
    /// Number of class merges performed.
    pub merges: usize,
}

fn class_diversity(data: &Dataset, members: &[usize], conf: &[usize]) -> usize {
    conf.iter()
        .map(|&c| {
            let view = data.col(c);
            members
                .iter()
                .map(|&i| view.key(i))
                .collect::<HashSet<_>>()
                .len()
        })
        .min()
        .unwrap_or(usize::MAX)
}

fn centroid(data: &Dataset, members: &[usize], qi: &[usize]) -> Vec<f64> {
    qi.iter()
        .map(|&c| {
            let view = data.col(c);
            members.iter().filter_map(|&i| view.f64(i)).sum::<f64>() / members.len() as f64
        })
        .collect()
}

/// Merges under-diverse equivalence classes of an (already k-anonymous)
/// dataset until every class has at least `p` distinct values of every
/// confidential attribute. Quasi-identifiers must be numeric (merged
/// classes receive their joint centroid).
///
/// Errors when `p` exceeds the global diversity of some confidential
/// attribute (no grouping can ever satisfy it).
pub fn enforce_p_sensitivity(data: &Dataset, p: usize) -> Result<PSensitiveResult> {
    if p == 0 {
        return Err(Error::InvalidParameter("p must be at least 1".into()));
    }
    let conf = data.schema().confidential_indices();
    if conf.is_empty() {
        return Err(Error::InvalidParameter(
            "p-sensitivity needs at least one confidential attribute".into(),
        ));
    }
    let all: Vec<usize> = (0..data.num_rows()).collect();
    if data.is_empty() {
        return Ok(PSensitiveResult {
            data: data.clone(),
            merges: 0,
        });
    }
    if class_diversity(data, &all, &conf) < p {
        return Err(Error::InvalidParameter(format!(
            "the dataset has fewer than {p} distinct values of some confidential attribute"
        )));
    }
    let qi: Vec<usize> = data
        .schema()
        .quasi_identifier_indices()
        .into_iter()
        .filter(|&c| data.schema().attribute(c).kind.is_numeric())
        .collect();

    // Start from the current equivalence classes.
    let mut classes: Vec<Vec<usize>> = data.quasi_identifier_groups().into_values().collect();
    let mut merges = 0usize;

    loop {
        // Find an under-diverse class.
        let offender = classes
            .iter()
            .position(|members| class_diversity(data, members, &conf) < p);
        let offender = match offender {
            Some(i) => i,
            None => break,
        };
        if classes.len() == 1 {
            // Single class but still under-diverse: impossible, caught by
            // the global check above.
            unreachable!("global diversity check guarantees feasibility");
        }
        // Merge with the nearest class by QI centroid.
        let c0 = centroid(data, &classes[offender], &qi);
        let (nearest, _) = classes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != offender)
            .map(|(i, members)| {
                let c1 = centroid(data, members, &qi);
                let d: f64 = c0.iter().zip(&c1).map(|(a, b)| (a - b) * (a - b)).sum();
                (i, d)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least two classes");
        let absorbed = classes.remove(nearest);
        // Removing `nearest` shifts `offender` down when it sat above it.
        let keep_idx = if nearest > offender {
            offender
        } else {
            offender - 1
        };
        classes[keep_idx].extend(absorbed);
        merges += 1;
    }

    // Re-materialize: every class gets its centroid on the numeric QIs.
    let mut out = data.clone();
    for members in &classes {
        let c = centroid(data, members, &qi);
        for &i in members {
            for (j, &col) in qi.iter().enumerate() {
                out.set_value(i, col, Value::Float(c[j]))?;
            }
        }
    }
    Ok(PSensitiveResult { data: out, merges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{k_anonymity_level, p_sensitivity_level};
    use tdf_microdata::{AttributeDef, Schema};

    /// A 3-anonymous dataset whose first class is confidentially
    /// homogeneous (all share the sensitive flag) — the footnote 3 hazard.
    fn homogeneous_dataset() -> Dataset {
        let schema = Schema::new(vec![
            AttributeDef::continuous_qi("h"),
            AttributeDef::continuous_qi("w"),
            AttributeDef::boolean_confidential("s"),
        ])
        .unwrap();
        Dataset::with_rows(
            schema,
            vec![
                vec![170.0.into(), 70.0.into(), true.into()],
                vec![170.0.into(), 70.0.into(), true.into()],
                vec![170.0.into(), 70.0.into(), true.into()],
                vec![180.0.into(), 90.0.into(), false.into()],
                vec![180.0.into(), 90.0.into(), true.into()],
                vec![180.0.into(), 90.0.into(), false.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn detects_and_repairs_the_footnote3_hazard() {
        let d = homogeneous_dataset();
        assert_eq!(k_anonymity_level(&d), Some(3));
        assert_eq!(p_sensitivity_level(&d), Some(1), "class 1 is homogeneous");
        let fixed = enforce_p_sensitivity(&d, 2).unwrap();
        assert!(fixed.merges >= 1);
        assert!(p_sensitivity_level(&fixed.data).unwrap() >= 2);
        // Merging never breaks k-anonymity (classes only grow).
        assert!(k_anonymity_level(&fixed.data).unwrap() >= 3);
    }

    #[test]
    fn already_sensitive_data_is_untouched() {
        let d = tdf_microdata::patients::dataset1();
        assert_eq!(p_sensitivity_level(&d), Some(2));
        let r = enforce_p_sensitivity(&d, 2).unwrap();
        assert_eq!(r.merges, 0);
        assert_eq!(r.data, d);
    }

    #[test]
    fn impossible_p_is_rejected() {
        let d = homogeneous_dataset();
        // Only two distinct values of `s` exist globally.
        assert!(enforce_p_sensitivity(&d, 3).is_err());
        assert!(enforce_p_sensitivity(&d, 0).is_err());
    }

    #[test]
    fn works_on_synthetic_patients() {
        use tdf_microdata::synth::{patients, PatientConfig};
        use tdf_sdc_shim::mdav;
        // Microaggregate first, then enforce sensitivity on the AIDS flag.
        let data = patients(&PatientConfig {
            n: 120,
            ..Default::default()
        });
        let masked = mdav(&data, 4);
        let fixed = enforce_p_sensitivity(&masked, 2).unwrap();
        assert!(p_sensitivity_level(&fixed.data).unwrap() >= 2);
        assert!(k_anonymity_level(&fixed.data).unwrap() >= 4);
    }

    /// Minimal local microaggregation so this crate's tests need not
    /// depend on `tdf-sdc` (which depends on us).
    mod tdf_sdc_shim {
        use super::*;
        pub fn mdav(data: &Dataset, k: usize) -> Dataset {
            // Cheap k-anonymizer: sort by height, group consecutive k.
            let mut order: Vec<usize> = (0..data.num_rows()).collect();
            order.sort_by(|&a, &b| {
                data.value(a, 0)
                    .as_f64()
                    .unwrap()
                    .total_cmp(&data.value(b, 0).as_f64().unwrap())
            });
            let mut out = data.clone();
            let mut i = 0;
            while i < order.len() {
                let take = if order.len() - i < 2 * k {
                    order.len() - i
                } else {
                    k
                };
                let members = &order[i..i + take];
                for col in [0usize, 1] {
                    let mean = members
                        .iter()
                        .map(|&m| data.value(m, col).as_f64().unwrap())
                        .sum::<f64>()
                        / take as f64;
                    for &m in members {
                        out.set_value(m, col, Value::Float(mean)).unwrap();
                    }
                }
                i += take;
            }
            out
        }
    }
}
