//! Randomized response (Warner 1965; Du–Zhan PPDM use \[13\]).
//!
//! The respondent (or, per the paper's footnote 1, more realistically the
//! *data owner* acting on the respondents' behalf) answers the sensitive
//! question truthfully with probability `p` and answers the *opposite*
//! question with probability `1 − p`. Individual answers are deniable, yet
//! population frequencies are recoverable:
//!
//! `λ = P(yes) = π·p + (1 − π)(1 − p)  ⇒  π̂ = (λ − (1 − p)) / (2p − 1)`.

use rngkit::Rng;

/// Applies Warner's randomized response to a vector of true booleans.
/// `p` is the probability of answering the direct question (`p ≠ 0.5`).
pub fn warner_mask<R: Rng + ?Sized>(truth: &[bool], p: f64, rng: &mut R) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    truth
        .iter()
        .map(|&t| if rng.gen::<f64>() < p { t } else { !t })
        .collect()
}

/// Unbiased estimator of the true proportion from masked answers.
/// Returns `None` when `p = 0.5` (the channel destroys all information).
pub fn warner_estimate(masked: &[bool], p: f64) -> Option<f64> {
    if (p - 0.5).abs() < 1e-9 || masked.is_empty() {
        return None;
    }
    let lambda = masked.iter().filter(|&&b| b).count() as f64 / masked.len() as f64;
    Some((lambda - (1.0 - p)) / (2.0 * p - 1.0))
}

/// Standard error of the Warner estimator for sample size `n`.
pub fn warner_std_error(pi: f64, p: f64, n: usize) -> f64 {
    assert!(n > 0 && (p - 0.5).abs() > 1e-9);
    let lambda = pi * p + (1.0 - pi) * (1.0 - p);
    (lambda * (1.0 - lambda) / n as f64).sqrt() / (2.0 * p - 1.0).abs()
}

/// Multi-attribute randomized response (Du–Zhan style): each boolean
/// attribute of each record is masked independently; joint frequencies of
/// attribute patterns can be unbiased via the tensor channel inverse.
/// Here we provide the one- and two-attribute estimators the experiments
/// need.
pub fn joint_estimate_2(masked: &[(bool, bool)], p: f64) -> Option<[f64; 4]> {
    if (p - 0.5).abs() < 1e-9 || masked.is_empty() {
        return None;
    }
    let n = masked.len() as f64;
    // Observed pattern frequencies, order: (F,F), (F,T), (T,F), (T,T).
    let mut obs = [0.0f64; 4];
    for &(a, b) in masked {
        obs[(a as usize) * 2 + (b as usize)] += 1.0 / n;
    }
    // Per-bit channel: P(observed o | true t) = p if o==t else 1−p;
    // invert the 2×2 kernel per attribute: M⁻¹ = 1/(2p−1) · [[p, −(1−p)], [−(1−p), p]].
    let inv = |o0: f64, o1: f64| -> (f64, f64) {
        let d = 2.0 * p - 1.0;
        ((p * o0 - (1.0 - p) * o1) / d, (p * o1 - (1.0 - p) * o0) / d)
    };
    // Apply the inverse on the first bit, then the second.
    let (a0b0, a1b0) = inv(obs[0], obs[2]);
    let (a0b1, a1b1) = inv(obs[1], obs[3]);
    let (t00, t01) = inv(a0b0, a0b1);
    let (t10, t11) = inv(a1b0, a1b1);
    Some([t00, t01, t10, t11])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::rng::seeded;

    fn truth(n: usize, pi: f64, seed: u64) -> Vec<bool> {
        let mut r = seeded(seed);
        (0..n)
            .map(|_| rngkit::Rng::gen::<f64>(&mut r) < pi)
            .collect()
    }

    #[test]
    fn estimator_recovers_prevalence() {
        let t = truth(40_000, 0.23, 1);
        let masked = warner_mask(&t, 0.75, &mut seeded(2));
        let est = warner_estimate(&masked, 0.75).unwrap();
        assert!((est - 0.23).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn raw_masked_frequency_is_biased() {
        let t = truth(40_000, 0.1, 3);
        let masked = warner_mask(&t, 0.7, &mut seeded(4));
        let raw = masked.iter().filter(|&&b| b).count() as f64 / masked.len() as f64;
        // λ = 0.1·0.7 + 0.9·0.3 = 0.34: far from the truth.
        assert!((raw - 0.34).abs() < 0.02, "raw {raw}");
        let est = warner_estimate(&masked, 0.7).unwrap();
        assert!((est - 0.1).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn p_half_destroys_information() {
        let t = truth(100, 0.4, 5);
        let masked = warner_mask(&t, 0.5, &mut seeded(6));
        assert!(warner_estimate(&masked, 0.5).is_none());
    }

    #[test]
    fn individual_answers_are_deniable() {
        // With p = 0.7, ~30% of answers differ from the truth.
        let t = truth(20_000, 0.5, 7);
        let masked = warner_mask(&t, 0.7, &mut seeded(8));
        let flipped = t.iter().zip(&masked).filter(|(a, b)| a != b).count() as f64 / t.len() as f64;
        assert!((flipped - 0.3).abs() < 0.02, "flipped {flipped}");
    }

    #[test]
    fn std_error_shrinks_with_n_and_grows_near_half() {
        let se_small = warner_std_error(0.2, 0.8, 100);
        let se_big = warner_std_error(0.2, 0.8, 10_000);
        assert!(se_big < se_small / 5.0);
        let se_sharp = warner_std_error(0.2, 0.95, 1000);
        let se_noisy = warner_std_error(0.2, 0.55, 1000);
        assert!(se_noisy > se_sharp * 3.0);
    }

    #[test]
    fn joint_estimator_recovers_2d_pattern() {
        let mut r = seeded(9);
        let n = 60_000;
        // True joint: P(A)=0.3, P(B|A)=0.8, P(B|¬A)=0.1 — correlated bits.
        let data: Vec<(bool, bool)> = (0..n)
            .map(|_| {
                let a = rngkit::Rng::gen::<f64>(&mut r) < 0.3;
                let b = rngkit::Rng::gen::<f64>(&mut r) < if a { 0.8 } else { 0.1 };
                (a, b)
            })
            .collect();
        let p = 0.8;
        let masked: Vec<(bool, bool)> = data
            .iter()
            .map(|&(a, b)| {
                let ma = if rngkit::Rng::gen::<f64>(&mut r) < p {
                    a
                } else {
                    !a
                };
                let mb = if rngkit::Rng::gen::<f64>(&mut r) < p {
                    b
                } else {
                    !b
                };
                (ma, mb)
            })
            .collect();
        let est = joint_estimate_2(&masked, p).unwrap();
        // Truth: t11 = P(A∧B) = 0.3·0.8 = 0.24; t00 = 0.7·0.9 = 0.63.
        assert!((est[3] - 0.24).abs() < 0.03, "t11 {}", est[3]);
        assert!((est[0] - 0.63).abs() < 0.03, "t00 {}", est[0]);
        let total: f64 = est.iter().sum();
        assert!((total - 1.0).abs() < 0.02);
    }
}
