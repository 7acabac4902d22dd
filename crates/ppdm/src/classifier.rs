//! Histogram (naive) Bayes classification on per-class distributions.
//!
//! Agrawal–Srikant's point \[5\] is that a classifier trained on
//! *reconstructed* per-class distributions matches one trained on the
//! original data. This module provides exactly that yardstick: a naive
//! Bayes classifier whose class-conditional densities are histograms that
//! can come from (a) original values, (b) raw noisy values, or (c) the
//! Bayesian reconstruction of [`crate::agrawal`].

/// A trained histogram Bayes classifier.
#[derive(Debug, Clone)]
pub struct HistogramBayes {
    lo: f64,
    hi: f64,
    bins: usize,
    /// `class_priors[c]` = P(class c).
    class_priors: Vec<f64>,
    /// `densities[c][a][b]` = P(attribute a in bin b | class c).
    densities: Vec<Vec<Vec<f64>>>,
}

impl HistogramBayes {
    /// Trains from per-class per-attribute bin distributions.
    ///
    /// `densities[c][a]` must each sum to ~1 over `bins` bins spanning
    /// `[lo, hi)`; `class_priors` to ~1 over classes.
    pub fn from_distributions(
        lo: f64,
        hi: f64,
        bins: usize,
        class_priors: Vec<f64>,
        densities: Vec<Vec<Vec<f64>>>,
    ) -> Self {
        assert!(!class_priors.is_empty(), "need at least one class");
        assert_eq!(class_priors.len(), densities.len());
        Self {
            lo,
            hi,
            bins,
            class_priors,
            densities,
        }
    }

    /// Trains directly from labelled numeric rows.
    pub fn train(
        rows: &[Vec<f64>],
        labels: &[usize],
        num_classes: usize,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Self {
        assert_eq!(rows.len(), labels.len());
        assert!(!rows.is_empty(), "need training data");
        let num_attrs = rows[0].len();
        let mut priors = vec![0.0; num_classes];
        let mut counts = vec![vec![vec![1.0f64; bins]; num_attrs]; num_classes]; // Laplace
        let width = (hi - lo) / bins as f64;
        for (row, &c) in rows.iter().zip(labels) {
            priors[c] += 1.0;
            for (a, &x) in row.iter().enumerate() {
                let b = (((x - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
                counts[c][a][b] += 1.0;
            }
        }
        let total: f64 = priors.iter().sum();
        for p in &mut priors {
            *p /= total;
        }
        let densities = counts
            .into_iter()
            .map(|per_attr| {
                per_attr
                    .into_iter()
                    .map(|bins_c| {
                        let s: f64 = bins_c.iter().sum();
                        bins_c.into_iter().map(|v| v / s).collect()
                    })
                    .collect()
            })
            .collect();
        Self {
            lo,
            hi,
            bins,
            class_priors: priors,
            densities,
        }
    }

    /// Predicts the class of a numeric row.
    pub fn classify(&self, row: &[f64]) -> usize {
        let width = (self.hi - self.lo) / self.bins as f64;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (c, &prior) in self.class_priors.iter().enumerate() {
            let mut score = prior.max(1e-12).ln();
            for (a, &x) in row.iter().enumerate() {
                let b = (((x - self.lo) / width).floor() as i64).clamp(0, self.bins as i64 - 1)
                    as usize;
                score += self.densities[c][a][b].max(1e-12).ln();
            }
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }

    /// Accuracy over a labelled test set.
    pub fn accuracy(&self, rows: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert_eq!(rows.len(), labels.len());
        if rows.is_empty() {
            return 0.0;
        }
        let hits = rows
            .iter()
            .zip(labels)
            .filter(|(row, &l)| self.classify(row) == l)
            .count();
        hits as f64 / rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::rng::{seeded, standard_normal};

    /// Two Gaussian classes separated along both attributes.
    fn two_class(n: usize, sep: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut r = seeded(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { -sep / 2.0 } else { sep / 2.0 };
            rows.push(vec![
                center + standard_normal(&mut r),
                center + standard_normal(&mut r),
            ]);
            labels.push(c);
        }
        (rows, labels)
    }

    #[test]
    fn separable_classes_are_learned() {
        let (rows, labels) = two_class(2000, 4.0, 1);
        let model = HistogramBayes::train(&rows, &labels, 2, -8.0, 8.0, 24);
        let (test_rows, test_labels) = two_class(500, 4.0, 2);
        let acc = model.accuracy(&test_rows, &test_labels);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn overlapping_classes_bound_accuracy() {
        let (rows, labels) = two_class(2000, 0.5, 3);
        let model = HistogramBayes::train(&rows, &labels, 2, -8.0, 8.0, 24);
        let (test_rows, test_labels) = two_class(500, 0.5, 4);
        let acc = model.accuracy(&test_rows, &test_labels);
        assert!(acc > 0.5 && acc < 0.8, "accuracy {acc}");
    }

    #[test]
    fn from_distributions_matches_train() {
        // A hand-built model: class 0 concentrated low, class 1 high.
        let densities = vec![vec![vec![0.9, 0.1]], vec![vec![0.1, 0.9]]];
        let model = HistogramBayes::from_distributions(0.0, 2.0, 2, vec![0.5, 0.5], densities);
        assert_eq!(model.classify(&[0.5]), 0);
        assert_eq!(model.classify(&[1.5]), 1);
    }

    #[test]
    fn priors_break_ties() {
        let densities = vec![vec![vec![0.5, 0.5]], vec![vec![0.5, 0.5]]];
        let model = HistogramBayes::from_distributions(0.0, 2.0, 2, vec![0.9, 0.1], densities);
        assert_eq!(model.classify(&[0.5]), 0);
    }

    #[test]
    fn accuracy_of_empty_test_set_is_zero() {
        let (rows, labels) = two_class(100, 2.0, 5);
        let model = HistogramBayes::train(&rows, &labels, 2, -8.0, 8.0, 8);
        assert_eq!(model.accuracy(&[], &[]), 0.0);
    }
}
