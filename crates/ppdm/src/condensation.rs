//! Condensation-based PPDM (Aggarwal–Yu \[1\]).
//!
//! Records are grouped into clusters of at least `k` (via MDAV
//! microaggregation — the two methods coincide, as the paper notes in §2),
//! per-cluster first and second moments are retained, and a *synthetic*
//! dataset is emitted by sampling each cluster's Gaussian. Released data
//! preserve the covariance structure ("a variety of analyses can be validly
//! carried out") while no released record is a real respondent.

use rngkit::Rng;
use tdf_microdata::column::F64Cells;
use tdf_microdata::rng::standard_normal;
use tdf_microdata::{Dataset, Error, Result};
use tdf_sdc::microaggregation::mdav_microaggregate;

/// Condenses the numeric columns `cols` of `data` with group size `k`,
/// emitting one synthetic record per original record.
pub fn condense<R: Rng + ?Sized>(
    data: &Dataset,
    cols: &[usize],
    k: usize,
    rng: &mut R,
) -> Result<Dataset> {
    if k < 2 {
        return Err(Error::InvalidParameter("condensation needs k >= 2".into()));
    }
    let grouping = mdav_microaggregate(data, cols, k)?;
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); grouping.num_groups];
    for (i, &g) in grouping.group_of.iter().enumerate() {
        groups[g].push(i);
    }

    // Synthetic row for original position i is drawn from i's group, so the
    // release stays row-aligned with the original (for risk measurement)
    // while containing no real record. Moments are read through contiguous
    // column cells; the release is assembled by a columnar donor gather
    // plus per-column overwrites of the aggregated attributes.
    let d = cols.len();
    let cells: Vec<F64Cells> = cols
        .iter()
        .map(|&c| data.f64_cells(c).expect("numeric column"))
        .collect();
    let mut donors: Vec<usize> = vec![0; data.num_rows()];
    let mut synth: Vec<Vec<f64>> = vec![vec![0.0; data.num_rows()]; d];
    for members in &groups {
        // Per-group mean and covariance (raw space; missing reads as 0.0,
        // as in the row-major version).
        let mut mean = vec![0.0; d];
        for &i in members {
            for (j, col_cells) in cells.iter().enumerate() {
                mean[j] += col_cells.get(i).unwrap_or(0.0);
            }
        }
        for m in &mut mean {
            *m /= members.len() as f64;
        }
        let mut cov = vec![vec![0.0; d]; d];
        if members.len() > 1 {
            for &i in members {
                for a in 0..d {
                    for b in 0..d {
                        let xa = cells[a].get(i).unwrap_or(0.0) - mean[a];
                        let xb = cells[b].get(i).unwrap_or(0.0) - mean[b];
                        cov[a][b] += xa * xb;
                    }
                }
            }
            for row in &mut cov {
                for v in row.iter_mut() {
                    *v /= (members.len() - 1) as f64;
                }
            }
        }
        let chol = cholesky_psd(&cov);

        // One synthetic record per member; non-aggregated columns are
        // copied from a random *member of the same group* so that
        // (quasi-identifier, confidential) pairings survive only at group
        // granularity.
        let mut z = vec![0.0f64; d];
        for &i in members {
            donors[i] = members[rng.gen_range(0..members.len())];
            for slot in z.iter_mut() {
                *slot = standard_normal(rng);
            }
            for j in 0..d {
                let noise: f64 = (0..=j).map(|t| chol[j][t] * z[t]).sum();
                synth[j][i] = mean[j] + noise;
            }
        }
    }
    let mut out = data.take(&donors);
    for (j, &c) in cols.iter().enumerate() {
        let dst = out.float_col_mut(c)?;
        for (i, &v) in synth[j].iter().enumerate() {
            dst.set(i, Some(v));
        }
    }
    Ok(out)
}

/// Cholesky for positive *semi*-definite matrices: zero-variance directions
/// get zero factors instead of failing.
fn cholesky_psd(m: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = m.len();
    let mut l = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let s: f64 = (0..j).map(|t| l[i][t] * l[j][t]).sum();
            if i == j {
                let v = m[i][i] - s;
                l[i][j] = if v > 0.0 { v.sqrt() } else { 0.0 };
            } else if l[j][j] > 0.0 {
                l[i][j] = (m[i][j] - s) / l[j][j];
            }
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::rng::seeded;
    use tdf_microdata::stats;
    use tdf_microdata::synth::{patients, PatientConfig};

    fn data() -> Dataset {
        patients(&PatientConfig {
            n: 800,
            ..Default::default()
        })
    }

    #[test]
    fn synthetic_data_preserves_means() {
        let d = data();
        let s = condense(&d, &[0, 1, 2], 10, &mut seeded(1)).unwrap();
        assert_eq!(s.num_rows(), d.num_rows());
        for c in [0usize, 1, 2] {
            let m0 = stats::mean(&d.numeric_column(c)).unwrap();
            let m1 = stats::mean(&s.numeric_column(c)).unwrap();
            assert!((m0 - m1).abs() / m0.abs() < 0.02, "col {c}: {m0} vs {m1}");
        }
    }

    #[test]
    fn synthetic_data_preserves_correlations() {
        // The paper's §2 claim for [1]: "the covariance structure of the
        // original attributes is preserved".
        let d = data();
        let s = condense(&d, &[0, 1, 2], 20, &mut seeded(2)).unwrap();
        let rho0 = stats::correlation(&d.numeric_column(0), &d.numeric_column(1)).unwrap();
        let rho1 = stats::correlation(&s.numeric_column(0), &s.numeric_column(1)).unwrap();
        assert!((rho0 - rho1).abs() < 0.1, "rho {rho0} vs {rho1}");
    }

    #[test]
    fn no_original_record_is_released_verbatim() {
        let d = data();
        let s = condense(&d, &[0, 1, 2], 5, &mut seeded(3)).unwrap();
        let mut exact = 0usize;
        for i in 0..d.num_rows() {
            for j in 0..s.num_rows() {
                if (0..3).all(|c| {
                    (d.value(i, c).as_f64().unwrap() - s.value(j, c).as_f64().unwrap()).abs()
                        < 1e-12
                }) {
                    exact += 1;
                }
            }
        }
        assert_eq!(exact, 0, "synthetic records must not replicate originals");
    }

    #[test]
    fn linkage_risk_drops() {
        let d = data();
        let s = condense(&d, &[0, 1], 10, &mut seeded(4)).unwrap();
        let rate = tdf_sdc::risk::record_linkage_rate(&d, &s, &[0, 1]).unwrap();
        assert!(rate < 0.2, "linkage {rate}");
    }

    #[test]
    fn rejects_k_below_two() {
        let d = data();
        assert!(condense(&d, &[0, 1], 1, &mut seeded(5)).is_err());
    }

    #[test]
    fn psd_cholesky_handles_zero_variance() {
        let l = cholesky_psd(&[vec![0.0, 0.0], vec![0.0, 4.0]]);
        assert_eq!(l[0][0], 0.0);
        assert_eq!(l[1][1], 2.0);
    }
}
