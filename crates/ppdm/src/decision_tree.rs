//! A binary decision tree (CART-style, Gini impurity, threshold splits)
//! for numeric data.
//!
//! Agrawal–Srikant's evaluation \[5\] is about decision trees: "decision-tree
//! classifiers properly run on the masked data". [`crate::classifier`]
//! covers the distribution-level route; this module provides the literal
//! tree, so the `fig_release_utility` family of experiments can train the
//! exact model family the paper's reference evaluates — on original,
//! masked, or condensed releases alike.

/// A trained binary decision tree.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionTree {
    /// Leaf predicting a class.
    Leaf(usize),
    /// Internal threshold split: `attribute < threshold` goes left.
    Node {
        /// Attribute index tested.
        attribute: usize,
        /// Split threshold.
        threshold: f64,
        /// Subtree for `x[attribute] < threshold`.
        left: Box<DecisionTree>,
        /// Subtree for `x[attribute] >= threshold`.
        right: Box<DecisionTree>,
    },
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_split: 10,
        }
    }
}

fn gini(labels: &[usize], members: &[usize], num_classes: usize) -> f64 {
    if members.is_empty() {
        return 0.0;
    }
    let mut counts = vec![0usize; num_classes];
    for &i in members {
        counts[labels[i]] += 1;
    }
    let n = members.len() as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
}

fn majority(labels: &[usize], members: &[usize], num_classes: usize) -> usize {
    let mut counts = vec![0usize; num_classes];
    for &i in members {
        counts[labels[i]] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl DecisionTree {
    /// Trains a tree on numeric rows and class labels.
    pub fn train(
        rows: &[Vec<f64>],
        labels: &[usize],
        num_classes: usize,
        config: &TreeConfig,
    ) -> DecisionTree {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        assert!(!rows.is_empty(), "need training data");
        let members: Vec<usize> = (0..rows.len()).collect();
        grow(
            rows,
            labels,
            num_classes,
            &members,
            config.max_depth,
            config,
        )
    }

    /// Predicts the class of one row.
    pub fn classify(&self, row: &[f64]) -> usize {
        match self {
            DecisionTree::Leaf(c) => *c,
            DecisionTree::Node {
                attribute,
                threshold,
                left,
                right,
            } => {
                if row[*attribute] < *threshold {
                    left.classify(row)
                } else {
                    right.classify(row)
                }
            }
        }
    }

    /// Accuracy on a labelled test set.
    pub fn accuracy(&self, rows: &[Vec<f64>], labels: &[usize]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        let hits = rows
            .iter()
            .zip(labels)
            .filter(|(r, &l)| self.classify(r) == l)
            .count();
        hits as f64 / rows.len() as f64
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        match self {
            DecisionTree::Leaf(_) => 1,
            DecisionTree::Node { left, right, .. } => 1 + left.size() + right.size(),
        }
    }

    /// Depth of the tree (leaf = 0).
    pub fn depth(&self) -> usize {
        match self {
            DecisionTree::Leaf(_) => 0,
            DecisionTree::Node { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

fn grow(
    rows: &[Vec<f64>],
    labels: &[usize],
    num_classes: usize,
    members: &[usize],
    depth_left: usize,
    config: &TreeConfig,
) -> DecisionTree {
    let node_gini = gini(labels, members, num_classes);
    if depth_left == 0 || members.len() < config.min_split || node_gini == 0.0 {
        return DecisionTree::Leaf(majority(labels, members, num_classes));
    }

    // Best (attribute, threshold) by weighted Gini, scanning midpoints of
    // consecutive distinct values.
    let num_attrs = rows[members[0]].len();
    let mut best: Option<(usize, f64, f64)> = None; // (attr, threshold, score)
                                                    // `a` indexes into every row, not one slice: a range loop is clearest.
    #[allow(clippy::needless_range_loop)]
    for a in 0..num_attrs {
        let mut sorted: Vec<usize> = members.to_vec();
        sorted.sort_by(|&i, &j| rows[i][a].total_cmp(&rows[j][a]));
        for w in sorted.windows(2) {
            let (lo, hi) = (rows[w[0]][a], rows[w[1]][a]);
            if lo == hi {
                continue;
            }
            let threshold = (lo + hi) / 2.0;
            let (left, right): (Vec<usize>, Vec<usize>) =
                members.iter().partition(|&&i| rows[i][a] < threshold);
            let n = members.len() as f64;
            let score = left.len() as f64 / n * gini(labels, &left, num_classes)
                + right.len() as f64 / n * gini(labels, &right, num_classes);
            if best.is_none_or(|(_, _, s)| score < s) {
                best = Some((a, threshold, score));
            }
        }
    }
    let (attribute, threshold, score) = match best {
        Some(b) => b,
        None => return DecisionTree::Leaf(majority(labels, members, num_classes)),
    };
    if score >= node_gini - 1e-12 {
        // No split improves purity.
        return DecisionTree::Leaf(majority(labels, members, num_classes));
    }
    let (left_m, right_m): (Vec<usize>, Vec<usize>) = members
        .iter()
        .partition(|&&i| rows[i][attribute] < threshold);
    DecisionTree::Node {
        attribute,
        threshold,
        left: Box::new(grow(
            rows,
            labels,
            num_classes,
            &left_m,
            depth_left - 1,
            config,
        )),
        right: Box::new(grow(
            rows,
            labels,
            num_classes,
            &right_m,
            depth_left - 1,
            config,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agrawal::distort_column;
    use tdf_microdata::rng::{seeded, standard_normal};

    fn xor_like(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        // A distribution naive Bayes cannot learn but a depth-2 tree can:
        // label = (x > 0) XOR (y > 0).
        let mut r = seeded(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x = standard_normal(&mut r) * 2.0;
            let y = standard_normal(&mut r) * 2.0;
            rows.push(vec![x, y]);
            labels.push(usize::from((x > 0.0) != (y > 0.0)));
        }
        (rows, labels)
    }

    #[test]
    fn learns_xor_which_naive_bayes_cannot() {
        let (rows, labels) = xor_like(1500, 1);
        let tree = DecisionTree::train(&rows, &labels, 2, &TreeConfig::default());
        let (test_rows, test_labels) = xor_like(500, 2);
        let acc = tree.accuracy(&test_rows, &test_labels);
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(tree.depth() >= 2, "XOR needs at least two levels");
    }

    #[test]
    fn pure_nodes_stop_growing() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![0, 0, 0, 0];
        let tree = DecisionTree::train(&rows, &labels, 2, &TreeConfig::default());
        assert_eq!(tree, DecisionTree::Leaf(0));
    }

    #[test]
    fn depth_limit_is_respected() {
        let (rows, labels) = xor_like(800, 3);
        let tree = DecisionTree::train(
            &rows,
            &labels,
            2,
            &TreeConfig {
                max_depth: 1,
                min_split: 2,
            },
        );
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn constant_features_yield_a_leaf() {
        let rows = vec![vec![5.0]; 20];
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let tree = DecisionTree::train(&rows, &labels, 2, &TreeConfig::default());
        assert!(matches!(tree, DecisionTree::Leaf(_)));
    }

    #[test]
    fn the_agrawal_srikant_claim_with_a_real_tree() {
        // Trees trained on noisy data degrade gracefully at moderate noise
        // when the class structure is axis-aligned (the [5] setting).
        let mut r = seeded(9);
        let n = 2000;
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let x = if c == 0 { -2.0 } else { 2.0 } + standard_normal(&mut r);
            rows.push(vec![x]);
            labels.push(c);
        }
        let clean_tree = DecisionTree::train(&rows, &labels, 2, &TreeConfig::default());
        let col: Vec<f64> = rows.iter().map(|row| row[0]).collect();
        let noisy: Vec<Vec<f64>> = distort_column(&col, 1.0, &mut r)
            .into_iter()
            .map(|x| vec![x])
            .collect();
        let noisy_tree = DecisionTree::train(&noisy, &labels, 2, &TreeConfig::default());
        let acc_clean = clean_tree.accuracy(&rows, &labels);
        let acc_noisy_model = noisy_tree.accuracy(&rows, &labels);
        assert!(acc_clean > 0.95, "{acc_clean}");
        assert!(acc_noisy_model > 0.85, "{acc_noisy_model}");
    }

    #[test]
    #[should_panic(expected = "need training data")]
    fn empty_training_panics() {
        let _ = DecisionTree::train(&[], &[], 2, &TreeConfig::default());
    }
}
