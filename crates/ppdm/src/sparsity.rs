//! The high-dimensional sparsity attack on noise addition
//! (Domingo-Ferrer, Sebé & Castellà \[11\]) — the paper's §2 example of
//! *owner privacy without respondent privacy*.
//!
//! As dimensionality grows, data become sparse: records drift apart while
//! per-attribute noise stays bounded, so nearest-neighbour linkage between
//! the noisy release and the intruder's external data succeeds almost
//! surely. The owner's aggregate secrets stay protected (the distribution
//! is reconstructible only approximately) while respondents become
//! re-identifiable — a *non-trivial* failure of respondent privacy.

use tdf_microdata::rng::seeded;
use tdf_microdata::{AttributeDef, Dataset, Schema, Value};
use tdf_sdc::noise::{add_noise, NoiseConfig};
use tdf_sdc::risk::record_linkage_rate;

/// Generates an i.i.d. standard-Gaussian cloud of `n` records in `dims`
/// dimensions, all columns quasi-identifiers.
pub fn gaussian_cloud(n: usize, dims: usize, seed: u64) -> Dataset {
    let schema = Schema::new(
        (0..dims)
            .map(|d| AttributeDef::continuous_qi(format!("x{d}")))
            .collect(),
    )
    .expect("generated names are unique");
    let mut rng = seeded(seed);
    let mut data = Dataset::new(schema);
    for _ in 0..n {
        let row: Vec<Value> = (0..dims)
            .map(|_| Value::Float(tdf_microdata::rng::standard_normal(&mut rng)))
            .collect();
        data.push_row(row).expect("row fits");
    }
    data
}

/// One point of the sparsity curve: masks a `dims`-dimensional cloud with
/// relative noise `alpha` and returns the record-linkage success rate.
pub fn linkage_rate_at_dimension(n: usize, dims: usize, alpha: f64, seed: u64) -> f64 {
    let data = gaussian_cloud(n, dims, seed);
    let cols: Vec<usize> = (0..dims).collect();
    let masked = add_noise(
        &data,
        &NoiseConfig::new(alpha, cols.clone()),
        &mut seeded(seed ^ 0xA5),
    )
    .expect("numeric columns");
    record_linkage_rate(&data, &masked, &cols).expect("aligned datasets")
}

/// The full sweep used by the `fig_sparsity` experiment: linkage rate per
/// dimensionality.
pub fn sparsity_sweep(n: usize, dims: &[usize], alpha: f64, seed: u64) -> Vec<(usize, f64)> {
    dims.iter()
        .map(|&d| (d, linkage_rate_at_dimension(n, d, alpha, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_shape() {
        let d = gaussian_cloud(50, 7, 1);
        assert_eq!(d.num_rows(), 50);
        assert_eq!(d.num_columns(), 7);
        assert_eq!(d.schema().quasi_identifier_indices().len(), 7);
    }

    #[test]
    fn linkage_grows_with_dimensionality() {
        // The headline effect of [11]: same noise level, rising dimension,
        // rising re-identification.
        let low = linkage_rate_at_dimension(200, 2, 1.0, 42);
        let high = linkage_rate_at_dimension(200, 40, 1.0, 42);
        assert!(
            high > low + 0.2,
            "linkage must rise with dimension: d=2 → {low}, d=40 → {high}"
        );
        assert!(
            high > 0.5,
            "high-dimensional linkage should be strong: {high}"
        );
    }

    #[test]
    fn linkage_falls_with_noise_amplitude() {
        let quiet = linkage_rate_at_dimension(200, 10, 0.2, 7);
        let loud = linkage_rate_at_dimension(200, 10, 3.0, 7);
        assert!(quiet > loud, "quiet {quiet} vs loud {loud}");
    }

    #[test]
    fn sweep_is_ordered_and_complete() {
        let sweep = sparsity_sweep(100, &[2, 8, 32], 1.0, 3);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].0, 2);
        assert_eq!(sweep[2].0, 32);
        for (_, rate) in &sweep {
            assert!((0.0..=1.0).contains(rate));
        }
    }
}
