//! Agrawal–Srikant value distortion and Bayesian distribution
//! reconstruction \[5\].
//!
//! The owner publishes `w_i = x_i + r_i` with `r_i` drawn from a known
//! noise distribution. A miner cannot see the `x_i`, but can recover the
//! *distribution* of X by iterating Bayes' rule over a discretized domain:
//!
//! `f^{t+1}(a) ∝ Σ_i  φ(w_i − a) · f^t(a) / Σ_{a'} φ(w_i − a') · f^t(a')`
//!
//! where `φ` is the noise density. The paper's §2 uses exactly this method
//! as its respondent+owner example — and its §2 "owner without respondent"
//! example cites \[11\]'s attack against it (see [`crate::sparsity`]).

use rngkit::Rng;
use tdf_microdata::rng::standard_normal;
use tdf_microdata::stats;

/// Gaussian density with standard deviation `sigma`.
fn phi(x: f64, sigma: f64) -> f64 {
    let z = x / sigma;
    (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
}

/// Distorts a column of values with Gaussian noise of standard deviation
/// `sigma`, returning the noisy values.
pub fn distort_column<R: Rng + ?Sized>(xs: &[f64], sigma: f64, rng: &mut R) -> Vec<f64> {
    xs.iter()
        .map(|&x| x + sigma * standard_normal(rng))
        .collect()
}

/// Result of a reconstruction run.
#[derive(Debug, Clone)]
pub struct ReconstructionReport {
    /// Bin midpoints of the discretized domain.
    pub bin_centers: Vec<f64>,
    /// Reconstructed probability per bin (sums to 1).
    pub density: Vec<f64>,
    /// Number of EM iterations performed.
    pub iterations: usize,
}

impl ReconstructionReport {
    /// Total-variation distance to another distribution over the same bins.
    pub fn tv_distance(&self, other: &[f64]) -> f64 {
        stats::total_variation(&self.density, other)
    }
}

/// Reconstructs the distribution of the original values from noisy values
/// `ws`, given the noise standard deviation, over `bins` equal-width bins
/// spanning `[lo, hi)`. Stops after `max_iter` iterations or when the
/// update moves by < 1e-6 in total variation.
pub fn reconstruct_distribution(
    ws: &[f64],
    sigma: f64,
    lo: f64,
    hi: f64,
    bins: usize,
    max_iter: usize,
) -> ReconstructionReport {
    assert!(
        bins > 0 && hi > lo && sigma > 0.0,
        "invalid reconstruction domain"
    );
    let width = (hi - lo) / bins as f64;
    let centers: Vec<f64> = (0..bins).map(|b| lo + (b as f64 + 0.5) * width).collect();
    // Uniform prior.
    let mut f = vec![1.0 / bins as f64; bins];

    // Precompute φ(w_i − a_b) for all (i, b).
    let kernel: Vec<Vec<f64>> = ws
        .iter()
        .map(|&w| centers.iter().map(|&a| phi(w - a, sigma)).collect())
        .collect();

    let mut iterations = 0;
    for _ in 0..max_iter {
        iterations += 1;
        let mut next = vec![0.0; bins];
        for k in &kernel {
            let denom: f64 = k.iter().zip(&f).map(|(p, q)| p * q).sum();
            if denom <= 0.0 {
                continue;
            }
            for b in 0..bins {
                next[b] += k[b] * f[b] / denom;
            }
        }
        let total: f64 = next.iter().sum();
        if total > 0.0 {
            for v in &mut next {
                *v /= total;
            }
        }
        let delta = stats::total_variation(&next, &f);
        f = next;
        if delta < 1e-6 {
            break;
        }
    }
    ReconstructionReport {
        bin_centers: centers,
        density: f,
        iterations,
    }
}

/// Convenience: the true (empirical) distribution of `xs` over the same
/// binning, for comparing against a reconstruction.
pub fn empirical_distribution(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<f64> {
    stats::to_distribution(&stats::histogram(xs, lo, hi, bins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::rng::seeded;

    /// Bimodal sample: the shape reconstruction must recover.
    fn bimodal(n: usize, seed: u64) -> Vec<f64> {
        let mut r = seeded(seed);
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { -3.0 } else { 3.0 };
                c + standard_normal(&mut r) * 0.5
            })
            .collect()
    }

    #[test]
    fn reconstruction_beats_naive_noisy_histogram() {
        let xs = bimodal(4000, 1);
        let sigma = 2.0;
        let ws = distort_column(&xs, sigma, &mut seeded(2));
        let (lo, hi, bins) = (-8.0, 8.0, 32);
        let truth = empirical_distribution(&xs, lo, hi, bins);
        let noisy = empirical_distribution(&ws, lo, hi, bins);
        let recon = reconstruct_distribution(&ws, sigma, lo, hi, bins, 200);
        let tv_noisy = stats::total_variation(&noisy, &truth);
        let tv_recon = recon.tv_distance(&truth);
        assert!(
            tv_recon < tv_noisy * 0.55,
            "reconstruction {tv_recon} should beat raw noisy {tv_noisy}"
        );
    }

    #[test]
    fn reconstruction_recovers_bimodality() {
        let xs = bimodal(4000, 3);
        let sigma = 1.5;
        let ws = distort_column(&xs, sigma, &mut seeded(4));
        let recon = reconstruct_distribution(&ws, sigma, -8.0, 8.0, 16, 200);
        // Mass near ±3 must dominate mass near 0.
        let near = |target: f64| -> f64 {
            recon
                .bin_centers
                .iter()
                .zip(&recon.density)
                .filter(|(&c, _)| (c - target).abs() < 1.0)
                .map(|(_, &d)| d)
                .sum()
        };
        assert!(
            near(-3.0) > 2.0 * near(0.0),
            "left mode {} vs middle {}",
            near(-3.0),
            near(0.0)
        );
        assert!(near(3.0) > 2.0 * near(0.0));
    }

    #[test]
    fn density_is_normalized() {
        let xs = bimodal(500, 5);
        let ws = distort_column(&xs, 1.0, &mut seeded(6));
        let recon = reconstruct_distribution(&ws, 1.0, -8.0, 8.0, 20, 50);
        let total: f64 = recon.density.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(recon.density.iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn distortion_has_requested_spread() {
        let xs = vec![0.0; 20_000];
        let ws = distort_column(&xs, 3.0, &mut seeded(7));
        let sd = stats::std_dev(&ws).unwrap();
        assert!((sd - 3.0).abs() < 0.1, "sd {sd}");
    }

    #[test]
    fn converges_before_max_iterations_on_easy_input() {
        let xs = bimodal(1000, 8);
        let ws = distort_column(&xs, 0.5, &mut seeded(9));
        let recon = reconstruct_distribution(&ws, 0.5, -8.0, 8.0, 16, 500);
        assert!(recon.iterations < 500, "iterations {}", recon.iterations);
    }

    #[test]
    #[should_panic(expected = "invalid reconstruction domain")]
    fn invalid_domain_panics() {
        let _ = reconstruct_distribution(&[1.0], 1.0, 5.0, 1.0, 4, 10);
    }
}
