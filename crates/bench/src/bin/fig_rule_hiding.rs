//! **F5** — association-rule hiding \[25\]: sensitive rules hidden versus
//! collateral damage (lost legitimate rules, ghost rules, item deletions)
//! as the set of rules to hide grows.

use tdf_bench::Series;
use tdf_microdata::synth::{transactions, TransactionConfig};
use tdf_ppdm::rules::{generate_rules, hide_rules, Itemset};

fn main() {
    let txs = transactions(&TransactionConfig {
        seed: tdf_bench::seed_from_env(0xBA5_CE7),
        ..Default::default()
    });
    let (min_support, min_confidence) = (0.08, 0.4);
    let before = generate_rules(&txs, min_support, min_confidence);
    println!(
        "F5 — rule hiding on {} transactions; {} rules minable at support {} / confidence {}\n",
        txs.len(),
        before.len(),
        min_support,
        min_confidence
    );

    let sensitive_pool: Vec<(Itemset, Itemset)> = vec![
        (vec![1], vec![2]),
        (vec![3], vec![4]),
        (vec![4], vec![5]),
        (vec![1], vec![7]),
    ];

    let mut series = Series::new(
        "fig_rule_hiding",
        &[
            "hidden_rules",
            "deletions",
            "still_visible",
            "lost_rules",
            "ghost_rules",
            "remaining_rules",
        ],
    );
    for take in 0..=sensitive_pool.len() {
        let sensitive = &sensitive_pool[..take];
        let report = hide_rules(&txs, sensitive, min_support, min_confidence);
        let after = generate_rules(&report.transactions, min_support, min_confidence);
        println!(
            "hide {take}: deletions {:>4}, still visible {}, lost {:>2}, ghosts {:>2}, rules left {:>3}",
            report.deletions,
            report.still_visible.len(),
            report.lost_rules.len(),
            report.ghost_rules.len(),
            after.len()
        );
        series.push(&[
            take.to_string(),
            report.deletions.to_string(),
            report.still_visible.len().to_string(),
            report.lost_rules.len().to_string(),
            report.ghost_rules.len().to_string(),
            after.len().to_string(),
        ]);
    }
    series.save().expect("results dir writable");
    println!(
        "\nReading: hiding succeeds (still_visible = 0) but collateral grows with the\n\
         number of hidden rules — the utility cost of use-specific owner privacy."
    );
}
