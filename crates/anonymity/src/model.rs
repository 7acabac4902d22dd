//! Checkers for respondent-privacy models.

use std::collections::{BTreeSet, HashSet};
use tdf_microdata::column::CellKey;
use tdf_microdata::{Dataset, Value};

/// Summary of one equivalence class (records sharing a quasi-identifier
/// combination), in the style of the paper's Table 1 analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceClassSummary {
    /// The shared quasi-identifier values.
    pub key: Vec<Value>,
    /// Row indices of the members.
    pub members: Vec<usize>,
    /// For each confidential attribute (schema order), the number of
    /// distinct values inside the class.
    pub distinct_confidential: Vec<usize>,
}

/// Per-class breakdown of a dataset w.r.t. its quasi-identifiers.
pub fn equivalence_classes(data: &Dataset) -> Vec<EquivalenceClassSummary> {
    let conf = data.schema().confidential_indices();
    let views: Vec<_> = conf.iter().map(|&c| data.col(c)).collect();
    data.quasi_identifier_groups()
        .into_iter()
        .map(|(key, members)| {
            // Distinct counts on packed cell keys: no `Value` clones.
            let distinct_confidential = views
                .iter()
                .map(|view| {
                    members
                        .iter()
                        .map(|&i| view.key(i))
                        .collect::<HashSet<CellKey>>()
                        .len()
                })
                .collect();
            EquivalenceClassSummary {
                key,
                members,
                distinct_confidential,
            }
        })
        .collect()
}

/// The k-anonymity level of a dataset: the size of its smallest
/// equivalence class. `None` for an empty dataset (vacuously anonymous).
pub fn k_anonymity_level(data: &Dataset) -> Option<usize> {
    data.quasi_identifier_groups().values().map(Vec::len).min()
}

/// True when every equivalence class has at least `k` members.
///
/// The paper's Dataset 1 "spontaneously satisfies k-anonymity for k = 3";
/// Dataset 2 does not.
/// ```
/// use tdf_microdata::patients;
/// use tdf_anonymity::is_k_anonymous;
///
/// assert!(is_k_anonymous(&patients::dataset1(), 3));  // Table 1, left
/// assert!(!is_k_anonymous(&patients::dataset2(), 3)); // Table 1, right
/// ```
pub fn is_k_anonymous(data: &Dataset, k: usize) -> bool {
    k_anonymity_level(data).is_none_or(|level| level >= k)
}

/// The p-sensitivity level: the minimum, over equivalence classes and
/// confidential attributes, of the number of distinct confidential values
/// in the class (Truta–Vinay \[24\], the paper's footnote 3). `None` when the
/// dataset is empty or has no confidential attributes.
pub fn p_sensitivity_level(data: &Dataset) -> Option<usize> {
    if data.schema().confidential_indices().is_empty() {
        return None;
    }
    equivalence_classes(data)
        .iter()
        .flat_map(|c| c.distinct_confidential.iter().copied())
        .min()
}

/// Distinct l-diversity level of a single confidential attribute `conf_col`:
/// the minimum number of distinct sensitive values per equivalence class.
pub fn l_diversity_level(data: &Dataset, conf_col: usize) -> Option<usize> {
    let view = data.col(conf_col);
    let groups = data.quasi_identifier_groups();
    groups
        .values()
        .map(|members| {
            members
                .iter()
                .map(|&i| view.key(i))
                .collect::<HashSet<CellKey>>()
                .len()
        })
        .min()
}

/// Entropy l-diversity level of confidential attribute `conf_col`:
/// `min over classes of 2^H(class distribution)` — the effective number of
/// sensitive values an intruder must still discriminate between. Stricter
/// than distinct l-diversity when one value dominates a class.
pub fn entropy_l_diversity_level(data: &Dataset, conf_col: usize) -> Option<f64> {
    let view = data.col(conf_col);
    let groups = data.quasi_identifier_groups();
    groups
        .values()
        .map(|members| {
            let mut counts: std::collections::HashMap<CellKey, usize> =
                std::collections::HashMap::new();
            for &i in members {
                *counts.entry(view.key(i)).or_default() += 1;
            }
            let n = members.len() as f64;
            let entropy: f64 = counts
                .values()
                .map(|&c| {
                    let p = c as f64 / n;
                    -p * p.log2()
                })
                .sum();
            entropy.exp2()
        })
        .fold(None, |acc: Option<f64>, l| {
            Some(acc.map_or(l, |a| a.min(l)))
        })
}

/// t-closeness of a *numeric* confidential attribute: the maximum, over
/// equivalence classes, of the ordered earth-mover's distance between the
/// class's value distribution and the global one, computed on value ranks
/// (the normalization of the original t-closeness paper for numeric data).
pub fn t_closeness_numeric(data: &Dataset, conf_col: usize) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let view = data.col(conf_col);
    // Global sorted values define the rank scale.
    let mut global: Vec<f64> = data.numeric_column(conf_col);
    if global.is_empty() {
        return None;
    }
    global.sort_by(f64::total_cmp);
    let m = global.len();
    let rank_of = |x: f64| -> f64 {
        // Position of x in the global order, averaged over ties.
        let lo = global.partition_point(|&v| v < x);
        let hi = global.partition_point(|&v| v <= x);
        (lo + hi) as f64 / 2.0 / m as f64
    };
    let emd = |members: &[usize]| -> f64 {
        // Ordered EMD between the class's rank distribution and uniform:
        // mean absolute deviation of cumulative sums.
        let mut ranks: Vec<f64> = members
            .iter()
            .filter_map(|&i| view.f64(i))
            .map(rank_of)
            .collect();
        if ranks.is_empty() {
            return 0.0;
        }
        ranks.sort_by(f64::total_cmp);
        let k = ranks.len() as f64;
        // The class's j-th order statistic should sit near (j+0.5)/k of
        // the global rank scale; the mean |gap| is the transport cost.
        ranks
            .iter()
            .enumerate()
            .map(|(j, &r)| (r - (j as f64 + 0.5) / k).abs())
            .sum::<f64>()
            / k
    };
    data.quasi_identifier_groups()
        .values()
        .map(|members| emd(members))
        .fold(None, |acc: Option<f64>, d| {
            Some(acc.map_or(d, |a| a.max(d)))
        })
}

/// t-closeness of a categorical/boolean confidential attribute: the maximum,
/// over equivalence classes, of the total-variation distance between the
/// class's sensitive-value distribution and the global one. `None` for an
/// empty dataset. Lower is better; a dataset is "t-close" when the returned
/// value is ≤ t.
pub fn t_closeness(data: &Dataset, conf_col: usize) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let view = data.col(conf_col);
    // Sorted value domain, tracked as (value, packed key) so per-member
    // lookups compare packed keys instead of cloned `Value`s.
    let domain: Vec<(Value, CellKey)> = {
        let mut set = BTreeSet::new();
        for i in 0..data.num_rows() {
            set.insert(data.value(i, conf_col));
        }
        set.into_iter()
            .map(|v| {
                let rep = (0..data.num_rows())
                    .find(|&i| view.cmp_value(i, &v) == std::cmp::Ordering::Equal)
                    .expect("domain value present");
                (v, view.key(rep))
            })
            .collect()
    };
    let dist = |members: &[usize]| -> Vec<f64> {
        let mut counts = vec![0usize; domain.len()];
        for &i in members {
            let k = view.key(i);
            let pos = domain
                .iter()
                .position(|&(_, dk)| dk == k)
                .expect("value in domain");
            counts[pos] += 1;
        }
        counts
            .iter()
            .map(|&c| c as f64 / members.len() as f64)
            .collect()
    };
    let all: Vec<usize> = (0..data.num_rows()).collect();
    let global = dist(&all);
    data.quasi_identifier_groups()
        .values()
        .map(|members| {
            let local = dist(members);
            0.5 * local
                .iter()
                .zip(&global)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        })
        .fold(None, |acc: Option<f64>, d| {
            Some(acc.map_or(d, |a| a.max(d)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::patients;

    #[test]
    fn table1_dataset1_is_3_anonymous_as_the_paper_states() {
        let d = patients::dataset1();
        assert_eq!(k_anonymity_level(&d), Some(3));
        assert!(is_k_anonymous(&d, 3));
        assert!(is_k_anonymous(&d, 2));
        assert!(!is_k_anonymous(&d, 4));
    }

    #[test]
    fn table1_dataset2_is_not_3_anonymous_as_the_paper_states() {
        let d = patients::dataset2();
        assert_eq!(k_anonymity_level(&d), Some(1));
        assert!(!is_k_anonymous(&d, 3));
        assert!(is_k_anonymous(&d, 1));
    }

    #[test]
    fn dataset1_is_2_sensitive() {
        // Footnote 3 of the paper: k-anonymity alone does not protect when
        // a class shares one confidential value. Dataset 1 happens to have
        // 2 distinct AIDS values in every class.
        let d = patients::dataset1();
        let p = p_sensitivity_level(&d).unwrap();
        assert_eq!(p, 2);
    }

    #[test]
    fn empty_dataset_is_vacuously_anonymous() {
        let d = Dataset::new(patients::patient_schema());
        assert_eq!(k_anonymity_level(&d), None);
        assert!(is_k_anonymous(&d, 100));
        assert_eq!(p_sensitivity_level(&d), None);
        assert_eq!(t_closeness(&d, 3), None);
    }

    #[test]
    fn equivalence_class_summaries_match_groups() {
        let d = patients::dataset1();
        let classes = equivalence_classes(&d);
        assert_eq!(classes.len(), 3);
        let sizes: Vec<usize> = classes.iter().map(|c| c.members.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 3, 4]);
        // Each summary reports distinct counts for bp and aids.
        for c in &classes {
            assert_eq!(c.distinct_confidential.len(), 2);
            assert!(c.distinct_confidential[0] >= 1);
        }
    }

    #[test]
    fn l_diversity_of_aids_in_dataset1() {
        let d = patients::dataset1();
        // AIDS column index 3: every class has both Y and N → l = 2.
        assert_eq!(l_diversity_level(&d, 3), Some(2));
        // Blood pressure is distinct everywhere → l = class size.
        assert_eq!(l_diversity_level(&d, 2), Some(3));
    }

    #[test]
    fn entropy_l_diversity_penalizes_skew() {
        use tdf_microdata::{AttributeDef, Schema};
        let schema = Schema::new(vec![
            AttributeDef::continuous_qi("q"),
            AttributeDef::boolean_confidential("s"),
        ])
        .unwrap();
        // Class A: 50/50 split (entropy 1 bit -> level 2). Class B: 3/1
        // split (entropy 0.811 -> level ~1.75). Distinct l-diversity sees
        // 2 everywhere; entropy l-diversity sees the skew.
        let d = Dataset::with_rows(
            schema,
            vec![
                vec![1.0.into(), true.into()],
                vec![1.0.into(), false.into()],
                vec![2.0.into(), true.into()],
                vec![2.0.into(), true.into()],
                vec![2.0.into(), true.into()],
                vec![2.0.into(), false.into()],
            ],
        )
        .unwrap();
        assert_eq!(l_diversity_level(&d, 1), Some(2));
        let e = entropy_l_diversity_level(&d, 1).unwrap();
        assert!(e < 2.0 && e > 1.5, "entropy level {e}");
    }

    #[test]
    fn numeric_t_closeness_flags_clustered_classes() {
        use tdf_microdata::{AttributeDef, Schema};
        let schema = Schema::new(vec![
            AttributeDef::continuous_qi("q"),
            AttributeDef::continuous_confidential("s"),
        ])
        .unwrap();
        // Well-mixed: each class interleaves with the global order.
        let mixed = Dataset::with_rows(
            schema.clone(),
            (0..8)
                .map(|i| vec![((i % 2) as f64 + 1.0).into(), (100.0 + i as f64).into()])
                .collect(),
        )
        .unwrap();
        // Clustered: one class holds all the largest values.
        let clustered = Dataset::with_rows(
            schema,
            (0..8)
                .map(|i| {
                    let class = if i < 4 { 1.0 } else { 2.0 };
                    vec![class.into(), (100.0 + i as f64).into()]
                })
                .collect(),
        )
        .unwrap();
        let good = t_closeness_numeric(&mixed, 1).unwrap();
        let bad = t_closeness_numeric(&clustered, 1).unwrap();
        assert!(good < 0.1, "mixed classes should be close: {good}");
        assert!(bad > good + 0.1, "clustered {bad} vs mixed {good}");
        // The paper's Dataset 1 sits in between (small classes, real data).
        let d1 = t_closeness_numeric(&patients::dataset1(), 2).unwrap();
        assert!((0.0..=0.5).contains(&d1), "dataset1 t-closeness {d1}");
    }

    #[test]
    fn t_closeness_zero_when_classes_mirror_global() {
        use tdf_microdata::{AttributeDef, Schema};
        let schema = Schema::new(vec![
            AttributeDef::continuous_qi("q"),
            AttributeDef::boolean_confidential("s"),
        ])
        .unwrap();
        let d = Dataset::with_rows(
            schema,
            vec![
                vec![1.0.into(), true.into()],
                vec![1.0.into(), false.into()],
                vec![2.0.into(), true.into()],
                vec![2.0.into(), false.into()],
            ],
        )
        .unwrap();
        assert!(t_closeness(&d, 1).unwrap() < 1e-12);
    }

    #[test]
    fn t_closeness_large_for_homogeneous_classes() {
        use tdf_microdata::{AttributeDef, Schema};
        let schema = Schema::new(vec![
            AttributeDef::continuous_qi("q"),
            AttributeDef::boolean_confidential("s"),
        ])
        .unwrap();
        let d = Dataset::with_rows(
            schema,
            vec![
                vec![1.0.into(), true.into()],
                vec![1.0.into(), true.into()],
                vec![2.0.into(), false.into()],
                vec![2.0.into(), false.into()],
            ],
        )
        .unwrap();
        // Each class is pure while the global split is 50/50 → distance 0.5.
        assert!((t_closeness(&d, 1).unwrap() - 0.5).abs() < 1e-12);
    }
}
