//! **F4** — Agrawal–Srikant \[5\] reconstruction fidelity and mining utility
//! versus noise level: total-variation distance of the raw noisy vs the
//! Bayes-reconstructed distribution, and accuracy of a histogram Bayes
//! classifier trained on (a) original, (b) raw noisy, (c) reconstructed
//! per-class distributions.

use tdf_bench::{f3, Series};
use tdf_microdata::rng::{seeded, standard_normal};
use tdf_microdata::stats;
use tdf_ppdm::agrawal::{distort_column, empirical_distribution, reconstruct_distribution};
use tdf_ppdm::classifier::HistogramBayes;

/// Two-class, two-attribute population with *asymmetric* classes (unequal
/// spread and prior), so that training on raw noisy values misplaces the
/// decision boundary — the failure mode \[5\]'s reconstruction repairs.
fn population(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut r = seeded(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = usize::from(i % 10 >= 7); // 70/30 prior
        let (center, spread) = if c == 0 { (-0.5, 0.4) } else { (1.5, 1.6) };
        rows.push(vec![
            center + spread * standard_normal(&mut r),
            center + spread * standard_normal(&mut r),
        ]);
        labels.push(c);
    }
    (rows, labels)
}

fn main() {
    let (lo, hi, bins) = (-8.0f64, 8.0f64, 24usize);
    let n = 4000;
    let sigmas = [0.25f64, 0.5, 1.0, 2.0, 4.0];
    println!("F4 — Agrawal–Srikant reconstruction vs noise level (n = {n})\n");

    let seed = tdf_bench::seed_from_env(1);
    let (train_rows, train_labels) = population(n, seed);
    let (test_rows, test_labels) = population(1000, seed.wrapping_add(1));
    let baseline = HistogramBayes::train(&train_rows, &train_labels, 2, lo, hi, bins)
        .accuracy(&test_rows, &test_labels);
    println!("classifier accuracy on ORIGINAL data: {baseline:.3}\n");

    let mut series = Series::new(
        "fig_reconstruction",
        &[
            "sigma",
            "tv_noisy",
            "tv_reconstructed",
            "acc_original",
            "acc_noisy",
            "acc_reconstructed",
        ],
    );
    for &sigma in &sigmas {
        let mut rng = seeded(seed.wrapping_mul(42) ^ sigma.to_bits());
        // Column-level fidelity on attribute 0 of class 0.
        let xs: Vec<f64> = train_rows
            .iter()
            .zip(&train_labels)
            .filter(|(_, &l)| l == 0)
            .map(|(r, _)| r[0])
            .collect();
        let ws = distort_column(&xs, sigma, &mut rng);
        let truth = empirical_distribution(&xs, lo, hi, bins);
        let noisy_dist = empirical_distribution(&ws, lo, hi, bins);
        let recon = reconstruct_distribution(&ws, sigma, lo, hi, bins, 200);
        let tv_noisy = stats::total_variation(&noisy_dist, &truth);
        let tv_recon = recon.tv_distance(&truth);

        // Mining utility: train on noisy rows vs reconstructed per-class
        // distributions.
        let noisy_rows: Vec<Vec<f64>> = {
            let mut out = Vec::with_capacity(train_rows.len());
            for row in &train_rows {
                out.push(
                    row.iter()
                        .map(|&x| x + sigma * standard_normal(&mut rng))
                        .collect(),
                );
            }
            out
        };
        let acc_noisy = HistogramBayes::train(&noisy_rows, &train_labels, 2, lo, hi, bins)
            .accuracy(&test_rows, &test_labels);

        // Reconstructed per-class, per-attribute densities.
        let mut densities = Vec::with_capacity(2);
        let mut priors = Vec::with_capacity(2);
        for class in 0..2usize {
            let members: Vec<usize> = (0..train_rows.len())
                .filter(|&i| train_labels[i] == class)
                .collect();
            priors.push(members.len() as f64 / train_rows.len() as f64);
            let per_attr: Vec<Vec<f64>> = (0..2)
                .map(|a| {
                    let noisy: Vec<f64> = members.iter().map(|&i| noisy_rows[i][a]).collect();
                    reconstruct_distribution(&noisy, sigma, lo, hi, bins, 200).density
                })
                .collect();
            densities.push(per_attr);
        }
        let acc_recon = HistogramBayes::from_distributions(lo, hi, bins, priors, densities)
            .accuracy(&test_rows, &test_labels);

        println!(
            "sigma {sigma:>4}: TV noisy {tv_noisy:.3} vs reconstructed {tv_recon:.3}; \
             accuracy orig {baseline:.3} / noisy {acc_noisy:.3} / reconstructed {acc_recon:.3}"
        );
        series.push(&[
            f3(sigma),
            f3(tv_noisy),
            f3(tv_recon),
            f3(baseline),
            f3(acc_noisy),
            f3(acc_recon),
        ]);
    }
    series.save().expect("results dir writable");
    println!(
        "\nReading: reconstruction recovers the distribution shape the noise smeared;\n\
         classifiers trained on reconstructed distributions track the original accuracy\n\
         far better than ones trained on raw noisy values — the [5] headline result."
    );
}
