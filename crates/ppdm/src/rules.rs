//! Association-rule mining (Apriori) and rule hiding (Verykios et al. \[25\]).
//!
//! Rule hiding is *use-specific* non-crypto PPDM in the paper's taxonomy
//! (§5): the owner sanitizes the transaction database so that designated
//! sensitive rules can no longer be mined at the agreed thresholds, while
//! trying to keep the remaining rules intact. The inevitable collateral —
//! *lost* rules (legitimate rules destroyed) and *ghost* rules (spurious
//! rules created) — is what the `fig_rule_hiding` experiment charts.

use std::collections::{BTreeMap, BTreeSet};
use tdf_microdata::synth::Transaction;

/// An itemset (sorted, deduplicated item ids).
pub type Itemset = Vec<u32>;

/// An association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rule {
    /// Left-hand side.
    pub antecedent: Itemset,
    /// Right-hand side.
    pub consequent: Itemset,
    /// Support of antecedent ∪ consequent (fraction of transactions),
    /// scaled by 1e6 and stored as integer for exact ordering.
    pub support_ppm: u64,
    /// Confidence, scaled by 1e6.
    pub confidence_ppm: u64,
}

impl Rule {
    /// Support as a fraction.
    pub fn support(&self) -> f64 {
        self.support_ppm as f64 / 1e6
    }

    /// Confidence as a fraction.
    pub fn confidence(&self) -> f64 {
        self.confidence_ppm as f64 / 1e6
    }
}

fn support_count(txs: &[Transaction], items: &[u32]) -> usize {
    txs.iter()
        .filter(|t| items.iter().all(|i| t.binary_search(i).is_ok()))
        .count()
}

/// Apriori: all itemsets with support ≥ `min_support`, with their
/// absolute support counts.
pub fn apriori(txs: &[Transaction], min_support: f64) -> BTreeMap<Itemset, usize> {
    assert!((0.0..=1.0).contains(&min_support), "support is a fraction");
    let n = txs.len();
    if n == 0 {
        return BTreeMap::new();
    }
    let min_count = (min_support * n as f64).ceil().max(1.0) as usize;

    let mut frequent: BTreeMap<Itemset, usize> = BTreeMap::new();
    // 1-itemsets.
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for t in txs {
        for &i in t {
            *counts.entry(i).or_default() += 1;
        }
    }
    let mut current: Vec<Itemset> = counts
        .iter()
        .filter(|(_, &c)| c >= min_count)
        .map(|(&i, _)| vec![i])
        .collect();
    for items in &current {
        frequent.insert(items.clone(), counts[&items[0]]);
    }

    // Level-wise join + prune.
    while !current.is_empty() {
        let mut next: BTreeSet<Itemset> = BTreeSet::new();
        for (a_idx, a) in current.iter().enumerate() {
            for b in current.iter().skip(a_idx + 1) {
                // Join candidates sharing all but the last item.
                if a[..a.len() - 1] == b[..b.len() - 1] {
                    let mut cand = a.clone();
                    cand.push(*b.last().expect("non-empty"));
                    cand.sort_unstable();
                    // Prune: all (k−1)-subsets must be frequent.
                    let all_subsets_frequent = (0..cand.len()).all(|skip| {
                        let sub: Itemset = cand
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != skip)
                            .map(|(_, &v)| v)
                            .collect();
                        frequent.contains_key(&sub)
                    });
                    if all_subsets_frequent {
                        next.insert(cand);
                    }
                }
            }
        }
        current = Vec::new();
        for cand in next {
            let c = support_count(txs, &cand);
            if c >= min_count {
                frequent.insert(cand.clone(), c);
                current.push(cand);
            }
        }
    }
    frequent
}

/// Generates all rules with confidence ≥ `min_confidence` from the
/// frequent itemsets of `txs` at `min_support`.
pub fn generate_rules(txs: &[Transaction], min_support: f64, min_confidence: f64) -> Vec<Rule> {
    let frequent = apriori(txs, min_support);
    let n = txs.len() as f64;
    let mut rules = Vec::new();
    for (items, &count) in &frequent {
        if items.len() < 2 {
            continue;
        }
        // Every non-empty proper subset as antecedent.
        let masks = 1u32..(1 << items.len()) - 1;
        for mask in masks {
            let antecedent: Itemset = items
                .iter()
                .enumerate()
                .filter(|(j, _)| mask >> j & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            let consequent: Itemset = items
                .iter()
                .enumerate()
                .filter(|(j, _)| mask >> j & 1 == 0)
                .map(|(_, &v)| v)
                .collect();
            if antecedent.is_empty() || consequent.is_empty() {
                continue;
            }
            let ant_count = frequent
                .get(&antecedent)
                .copied()
                .unwrap_or_else(|| support_count(txs, &antecedent));
            if ant_count == 0 {
                continue;
            }
            let confidence = count as f64 / ant_count as f64;
            if confidence >= min_confidence {
                rules.push(Rule {
                    antecedent,
                    consequent,
                    support_ppm: (count as f64 / n * 1e6).round() as u64,
                    confidence_ppm: (confidence * 1e6).round() as u64,
                });
            }
        }
    }
    rules.sort();
    rules
}

/// Outcome of a hiding run.
#[derive(Debug, Clone)]
pub struct HidingReport {
    /// Sanitized transactions.
    pub transactions: Vec<Transaction>,
    /// Sensitive rules still minable after sanitization (ideally empty).
    pub still_visible: Vec<Rule>,
    /// Non-sensitive rules that were lost (side effect).
    pub lost_rules: Vec<Rule>,
    /// Rules that appeared only after sanitization (ghosts).
    pub ghost_rules: Vec<Rule>,
    /// Number of item deletions performed.
    pub deletions: usize,
}

fn rule_key(r: &Rule) -> (Itemset, Itemset) {
    (r.antecedent.clone(), r.consequent.clone())
}

/// Hides the rules whose (antecedent, consequent) pairs appear in
/// `sensitive` by deleting consequent items from supporting transactions
/// until each rule drops below `min_support` or `min_confidence`
/// (support-reduction strategy of \[25\]).
pub fn hide_rules(
    txs: &[Transaction],
    sensitive: &[(Itemset, Itemset)],
    min_support: f64,
    min_confidence: f64,
) -> HidingReport {
    let before = generate_rules(txs, min_support, min_confidence);
    let mut sanitized: Vec<Transaction> = txs.to_vec();
    let n = txs.len() as f64;
    let mut deletions = 0usize;

    for (ant, cons) in sensitive {
        let full: Itemset = {
            let mut f = ant.clone();
            f.extend(cons.iter().copied());
            f.sort_unstable();
            f.dedup();
            f
        };
        loop {
            let full_count = support_count(&sanitized, &full);
            let ant_count = support_count(&sanitized, ant);
            let support = full_count as f64 / n;
            let confidence = if ant_count > 0 {
                full_count as f64 / ant_count as f64
            } else {
                0.0
            };
            if support < min_support || confidence < min_confidence {
                break;
            }
            // Delete one consequent item from one supporting transaction:
            // pick the supporting transaction with most items (heuristic:
            // richer baskets absorb the edit with less collateral).
            let victim = sanitized
                .iter()
                .enumerate()
                .filter(|(_, t)| full.iter().all(|i| t.binary_search(i).is_ok()))
                .max_by_key(|(_, t)| t.len())
                .map(|(i, _)| i);
            match victim {
                Some(vi) => {
                    let item = cons[0];
                    sanitized[vi].retain(|&x| x != item);
                    deletions += 1;
                }
                None => break,
            }
        }
    }

    let after = generate_rules(&sanitized, min_support, min_confidence);
    let before_keys: BTreeSet<_> = before.iter().map(rule_key).collect();
    let after_keys: BTreeSet<_> = after.iter().map(rule_key).collect();
    let sensitive_keys: BTreeSet<_> = sensitive
        .iter()
        .map(|(a, c)| (a.clone(), c.clone()))
        .collect();

    let still_visible = after
        .iter()
        .filter(|r| sensitive_keys.contains(&rule_key(r)))
        .cloned()
        .collect();
    let lost_rules = before
        .iter()
        .filter(|r| !sensitive_keys.contains(&rule_key(r)) && !after_keys.contains(&rule_key(r)))
        .cloned()
        .collect();
    let ghost_rules = after
        .iter()
        .filter(|r| !before_keys.contains(&rule_key(r)))
        .cloned()
        .collect();
    HidingReport {
        transactions: sanitized,
        still_visible,
        lost_rules,
        ghost_rules,
        deletions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::synth::{transactions, TransactionConfig};

    fn txs() -> Vec<Transaction> {
        transactions(&TransactionConfig::default())
    }

    #[test]
    fn apriori_finds_planted_itemsets() {
        let frequent = apriori(&txs(), 0.15);
        assert!(
            frequent.contains_key(&vec![1, 2]),
            "planted {{1,2}} at 0.35"
        );
        assert!(
            frequent.contains_key(&vec![3, 4, 5]),
            "planted {{3,4,5}} at 0.25"
        );
        assert!(frequent.contains_key(&vec![1]));
        // Noise-only pairs must be absent.
        assert!(!frequent.contains_key(&vec![20, 30]));
    }

    #[test]
    fn support_counts_are_exact() {
        let data: Vec<Transaction> = vec![vec![1, 2, 3], vec![1, 2], vec![2, 3], vec![1, 2, 3]];
        let frequent = apriori(&data, 0.5);
        assert_eq!(frequent.get(&vec![1, 2]), Some(&3));
        assert_eq!(frequent.get(&vec![2, 3]), Some(&3));
        assert_eq!(frequent.get(&vec![1, 2, 3]), Some(&2));
        assert_eq!(frequent.get(&vec![1, 3]), Some(&2));
    }

    #[test]
    fn rules_have_correct_confidence() {
        let data: Vec<Transaction> = vec![vec![1, 2], vec![1, 2], vec![1, 2], vec![1], vec![2]];
        let rules = generate_rules(&data, 0.5, 0.7);
        let r12 = rules
            .iter()
            .find(|r| r.antecedent == vec![1] && r.consequent == vec![2])
            .expect("1 => 2 minable");
        assert!((r12.confidence() - 0.75).abs() < 1e-6);
        assert!((r12.support() - 0.6).abs() < 1e-6);
    }

    #[test]
    fn hiding_removes_sensitive_rule() {
        let data = txs();
        let sensitive = vec![(vec![1], vec![2])];
        let report = hide_rules(&data, &sensitive, 0.1, 0.5);
        assert!(
            report.still_visible.is_empty(),
            "{:?}",
            report.still_visible
        );
        assert!(report.deletions > 0);
    }

    #[test]
    fn hiding_keeps_transaction_count() {
        let data = txs();
        let report = hide_rules(&data, &[(vec![3], vec![4])], 0.1, 0.5);
        assert_eq!(report.transactions.len(), data.len());
    }

    #[test]
    fn hiding_nothing_is_free() {
        let data = txs();
        let report = hide_rules(&data, &[], 0.1, 0.5);
        assert_eq!(report.deletions, 0);
        assert!(report.lost_rules.is_empty());
        assert!(report.ghost_rules.is_empty());
        assert_eq!(report.transactions, data);
    }

    #[test]
    fn aggressive_hiding_causes_side_effects() {
        let data = txs();
        // Hiding {3} => {4} at a high threshold forces many deletions of
        // item 4, which degrades sibling rules like {3} => {4,5}.
        let report = hide_rules(&data, &[(vec![3], vec![4]), (vec![1], vec![2])], 0.05, 0.3);
        assert!(report.still_visible.is_empty());
        assert!(
            !report.lost_rules.is_empty(),
            "support-reduction hiding always costs collateral rules"
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(apriori(&[], 0.5).is_empty());
        assert!(generate_rules(&[], 0.5, 0.5).is_empty());
    }
}
