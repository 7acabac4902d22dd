//! Additive noise masking.
//!
//! Uncorrelated noise adds independent Gaussian noise with per-column
//! standard deviation `alpha · sd(column)` — the masking of
//! Agrawal–Srikant \[5\]. Correlated noise draws the noise vector from a
//! Gaussian with covariance `alpha² · Σ`, where `Σ` is the data covariance
//! matrix, so that the masked data preserve the correlation structure
//! (at the cost of the vulnerabilities \[11\] exposes — see
//! `tdf-ppdm::sparsity`).

use rngkit::Rng;
use tdf_microdata::column::F64Cells;
use tdf_microdata::rng::standard_normal;
use tdf_microdata::stats;
use tdf_microdata::{Dataset, Error, Result};

/// Noise parameters.
#[derive(Debug, Clone)]
pub struct NoiseConfig {
    /// Noise amplitude relative to each column's standard deviation.
    pub alpha: f64,
    /// Columns to perturb (must be numeric).
    pub cols: Vec<usize>,
}

impl NoiseConfig {
    /// Noise on the given columns with relative amplitude `alpha`.
    pub fn new(alpha: f64, cols: Vec<usize>) -> Self {
        Self { alpha, cols }
    }
}

/// Masks `data` with independent (uncorrelated) Gaussian noise.
pub fn add_noise<R: Rng + ?Sized>(
    data: &Dataset,
    config: &NoiseConfig,
    rng: &mut R,
) -> Result<Dataset> {
    validate(data, config)?;
    let sds: Vec<f64> = config
        .cols
        .iter()
        .map(|&c| stats::std_dev(&data.numeric_column(c)).unwrap_or(0.0))
        .collect();
    let cells = numeric_cells(data, &config.cols);
    // The RNG is consumed row-major (row, then column) exactly as the old
    // row-at-a-time loop did, so seeded runs are bit-identical; only the
    // reads and writes are columnar.
    let mut masked: Vec<Vec<(usize, f64)>> = vec![Vec::new(); config.cols.len()];
    for i in 0..data.num_rows() {
        for (j, col_cells) in cells.iter().enumerate() {
            if let Some(x) = col_cells.get(i) {
                let noisy = x + config.alpha * sds[j] * standard_normal(rng);
                masked[j].push((i, noisy));
            }
        }
    }
    let mut out = data.clone();
    write_floats(&mut out, &config.cols, &masked)?;
    Ok(out)
}

/// Per-column numeric cell readers (`validate` guarantees numeric kinds).
fn numeric_cells<'a>(data: &'a Dataset, cols: &[usize]) -> Vec<F64Cells<'a>> {
    cols.iter()
        .map(|&c| data.f64_cells(c).expect("numeric column"))
        .collect()
}

/// Writes each column's `(row, value)` list through the float storage.
fn write_floats(out: &mut Dataset, cols: &[usize], masked: &[Vec<(usize, f64)>]) -> Result<()> {
    for (&c, col_masked) in cols.iter().zip(masked) {
        let dst = out.float_col_mut(c)?;
        for &(i, v) in col_masked {
            dst.set(i, Some(v));
        }
    }
    Ok(())
}

/// Masks `data` with *variance-preserving* noise: each perturbed column is
/// rescaled around its mean by `1/√(1 + alpha²)` after noise addition, so
/// means and variances of the release match the original exactly in
/// expectation (the unbiased variant recommended by the SDC handbooks when
/// analysts will compute second moments from the release).
pub fn add_unbiased_noise<R: Rng + ?Sized>(
    data: &Dataset,
    config: &NoiseConfig,
    rng: &mut R,
) -> Result<Dataset> {
    validate(data, config)?;
    let scale = 1.0 / (1.0 + config.alpha * config.alpha).sqrt();
    let mut out = add_noise(data, config, rng)?;
    for &c in &config.cols {
        let mean = stats::mean(&data.numeric_column(c)).unwrap_or(0.0);
        let dst = out.float_col_mut(c)?;
        for i in 0..dst.values().len() {
            if !dst.is_missing(i) {
                let x = dst.values()[i];
                dst.set(i, Some(mean + (x - mean) * scale));
            }
        }
    }
    Ok(out)
}

/// Masks `data` with correlated Gaussian noise whose covariance is
/// `alpha² · Σ(data)`, preserving the covariance structure up to a known
/// scale factor `1 + alpha²`.
pub fn add_correlated_noise<R: Rng + ?Sized>(
    data: &Dataset,
    config: &NoiseConfig,
    rng: &mut R,
) -> Result<Dataset> {
    validate(data, config)?;
    if data.num_rows() < 2 {
        return Err(Error::EmptyDataset);
    }
    let sigma = stats::covariance_matrix(data, &config.cols)?;
    let chol = cholesky(&sigma).ok_or_else(|| {
        Error::InvalidParameter("covariance matrix is not positive definite".into())
    })?;
    let d = config.cols.len();
    let cells = numeric_cells(data, &config.cols);
    let mut masked: Vec<Vec<(usize, f64)>> = vec![Vec::new(); d];
    let mut z = vec![0.0f64; d];
    for i in 0..data.num_rows() {
        for slot in z.iter_mut() {
            *slot = standard_normal(rng);
        }
        // noise = alpha · L · z has covariance alpha²·Σ.
        for (j, col_cells) in cells.iter().enumerate() {
            if let Some(x) = col_cells.get(i) {
                let n: f64 = (0..=j).map(|t| chol[j][t] * z[t]).sum();
                masked[j].push((i, x + config.alpha * n));
            }
        }
    }
    let mut out = data.clone();
    write_floats(&mut out, &config.cols, &masked)?;
    Ok(out)
}

fn validate(data: &Dataset, config: &NoiseConfig) -> Result<()> {
    if config.alpha < 0.0 {
        return Err(Error::InvalidParameter("alpha must be non-negative".into()));
    }
    for &c in &config.cols {
        if !data.schema().attribute(c).kind.is_numeric() {
            return Err(Error::NotNumeric(data.schema().attribute(c).name.clone()));
        }
    }
    Ok(())
}

/// Cholesky factorisation of a symmetric positive-definite matrix;
/// returns the lower-triangular factor `L` with `L·Lᵀ = m`.
fn cholesky(m: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = m.len();
    let mut l = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let s: f64 = (0..j).map(|t| l[i][t] * l[j][t]).sum();
            if i == j {
                let v = m[i][i] - s;
                if v <= 0.0 {
                    return None;
                }
                l[i][j] = v.sqrt();
            } else {
                l[i][j] = (m[i][j] - s) / l[j][j];
            }
        }
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::rng::seeded;
    use tdf_microdata::synth::{patients, PatientConfig};

    fn data() -> Dataset {
        patients(&PatientConfig {
            n: 3000,
            ..Default::default()
        })
    }

    #[test]
    fn uncorrelated_noise_preserves_means_and_scales_variance() {
        let d = data();
        let cfg = NoiseConfig::new(0.5, vec![0, 1]);
        let masked = add_noise(&d, &cfg, &mut seeded(1)).unwrap();
        for c in [0usize, 1] {
            let m0 = stats::mean(&d.numeric_column(c)).unwrap();
            let m1 = stats::mean(&masked.numeric_column(c)).unwrap();
            assert!((m0 - m1).abs() / m0 < 0.01, "col {c} mean drift");
            let v0 = stats::variance(&d.numeric_column(c)).unwrap();
            let v1 = stats::variance(&masked.numeric_column(c)).unwrap();
            // Var(X + alpha·sd·Z) = (1 + alpha²)·Var(X) = 1.25·Var(X).
            assert!((v1 / v0 - 1.25).abs() < 0.08, "col {c}: ratio {}", v1 / v0);
        }
    }

    #[test]
    fn zero_alpha_is_identity() {
        let d = data();
        let cfg = NoiseConfig::new(0.0, vec![0, 1]);
        let masked = add_noise(&d, &cfg, &mut seeded(2)).unwrap();
        assert_eq!(masked, d);
    }

    #[test]
    fn correlated_noise_preserves_correlations() {
        let d = data();
        let cfg = NoiseConfig::new(1.0, vec![0, 1, 2]);
        let masked = add_correlated_noise(&d, &cfg, &mut seeded(3)).unwrap();
        let rho0 = stats::correlation(&d.numeric_column(0), &d.numeric_column(1)).unwrap();
        let rho1 =
            stats::correlation(&masked.numeric_column(0), &masked.numeric_column(1)).unwrap();
        assert!((rho0 - rho1).abs() < 0.05, "rho {rho0} vs {rho1}");
    }

    #[test]
    fn uncorrelated_noise_dilutes_correlations() {
        let d = data();
        let cfg = NoiseConfig::new(2.0, vec![0, 1]);
        let masked = add_noise(&d, &cfg, &mut seeded(4)).unwrap();
        let rho0 = stats::correlation(&d.numeric_column(0), &d.numeric_column(1)).unwrap();
        let rho1 =
            stats::correlation(&masked.numeric_column(0), &masked.numeric_column(1)).unwrap();
        // With alpha = 2 the correlation shrinks by 1/(1+alpha²) = 1/5.
        assert!(rho1.abs() < rho0.abs() * 0.5, "rho {rho0} vs {rho1}");
    }

    #[test]
    fn rejects_invalid_parameters() {
        let d = data();
        assert!(add_noise(&d, &NoiseConfig::new(-1.0, vec![0]), &mut seeded(5)).is_err());
        assert!(add_noise(&d, &NoiseConfig::new(0.1, vec![3]), &mut seeded(5)).is_err());
    }

    #[test]
    fn unbiased_noise_preserves_variance() {
        let d = data();
        let cfg = NoiseConfig::new(1.0, vec![0, 1]);
        let masked = add_unbiased_noise(&d, &cfg, &mut seeded(9)).unwrap();
        for c in [0usize, 1] {
            let v0 = stats::variance(&d.numeric_column(c)).unwrap();
            let v1 = stats::variance(&masked.numeric_column(c)).unwrap();
            assert!((v1 / v0 - 1.0).abs() < 0.05, "col {c}: ratio {}", v1 / v0);
            let m0 = stats::mean(&d.numeric_column(c)).unwrap();
            let m1 = stats::mean(&masked.numeric_column(c)).unwrap();
            assert!((m0 - m1).abs() / m0 < 0.01);
        }
        // Values still move substantially (privacy is not free).
        let changed = (0..d.num_rows())
            .filter(|&i| d.value(i, 0) != masked.value(i, 0))
            .count();
        assert!(changed > d.num_rows() * 9 / 10);
    }

    #[test]
    fn cholesky_round_trips() {
        let m = vec![
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ];
        let l = cholesky(&m).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let recon: f64 = (0..3).map(|t| l[i][t] * l[j][t]).sum();
                assert!((recon - m[i][j]).abs() < 1e-9);
            }
        }
        // Non-PD matrix is rejected.
        assert!(cholesky(&[vec![1.0, 2.0], vec![2.0, 1.0]]).is_none());
    }
}
