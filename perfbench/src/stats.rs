//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it. `q` is in
/// `(0, 1]`; an empty slice gives `None`.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The best of values: the lowest, or the highest when
/// `higher_is_better`. Work from the rest of a shared host only ever
/// slows a repetition down: on the reference host each vCPU's speed
/// drifts by up to 1.6× over minutes, and a repetition's server thread
/// stays on one vCPU. The best repetition of a run tracks the program's
/// own cost as long as one repetition lands on a vCPU that is fast.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best of no values");
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().fold(values[0], pick)
}

/// Mean, or 0 for no values.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Nanoseconds → milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
