//! Differentially private query answering (Laplace mechanism) with an
//! explicit privacy budget.
//!
//! The paper (2007) predates the mainstream adoption of differential
//! privacy, but its §6 asks for "other possible solutions satisfying the
//! privacy of respondents, owners and users" — ε-DP is the answer the
//! field converged on for the respondent dimension of interactive
//! databases: a *provable* bound on what any query sequence reveals about
//! one respondent, replacing both size restriction and auditing. Included
//! here as the natural extension experiment.
//!
//! Sensitivity model: COUNT queries have sensitivity 1; SUM/AVG need a
//! declared per-attribute value range `[lo, hi]` (sensitivity `hi − lo`
//! for SUM; `(hi − lo) / max(1, |query set|)` for AVG). MIN/MAX have
//! unbounded sensitivity and are refused.

use crate::ast::{Aggregate, Query};
use crate::control::Answer;
use crate::engine::Evaluation;
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use std::collections::BTreeMap;
use tdf_microdata::rng::laplace;
use tdf_microdata::Dataset;

/// A Laplace-mechanism answering policy with budget tracking.
#[derive(Debug)]
pub struct DpPolicy {
    /// ε spent per query.
    epsilon_per_query: f64,
    /// Total ε the owner is willing to spend; further queries are refused.
    budget: f64,
    spent: f64,
    /// Declared value ranges per attribute (required for SUM/AVG).
    ranges: BTreeMap<String, (f64, f64)>,
    rng: StdRng,
}

impl DpPolicy {
    /// Creates a policy spending `epsilon_per_query` per answer out of a
    /// total `budget`.
    pub fn new(epsilon_per_query: f64, budget: f64, seed: u64) -> Self {
        assert!(
            epsilon_per_query > 0.0 && budget > 0.0,
            "epsilon and budget must be positive"
        );
        Self {
            epsilon_per_query,
            budget,
            spent: 0.0,
            ranges: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Declares the value range of an attribute (enables SUM/AVG on it).
    pub fn with_range(mut self, attribute: &str, lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "range must be non-degenerate");
        self.ranges.insert(attribute.to_owned(), (lo, hi));
        self
    }

    /// ε spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Remaining budget.
    pub fn remaining(&self) -> f64 {
        (self.budget - self.spent).max(0.0)
    }

    /// True when the next answer would overspend the budget: the policy
    /// then refuses every query, whatever its aggregate.
    pub fn exhausted(&self) -> bool {
        self.spent + self.epsilon_per_query > self.budget + 1e-12
    }

    /// Answers one evaluated query under ε-DP.
    pub fn apply(&mut self, _data: &Dataset, query: &Query, eval: &Evaluation) -> Answer {
        self.apply_eval(query, eval)
    }

    /// [`DpPolicy::apply`] without the dataset handle. The mechanism only
    /// reads the evaluation (value + query-set size) and the declared
    /// ranges, so callers evaluating out-of-core — where no monolithic
    /// [`Dataset`] exists — use this entry point.
    pub fn apply_eval(&mut self, query: &Query, eval: &Evaluation) -> Answer {
        let answer = self.answer(query, eval);
        match &answer {
            Answer::Refused(_) => obs::count("querydb.dp.refusals", 1),
            _ => {
                obs::count("querydb.dp.answers", 1);
                // The ε ledger is exported in micro-ε so it stays an exact,
                // sum-mergeable integer counter.
                obs::count(
                    "querydb.dp.epsilon_spent_micro",
                    (self.epsilon_per_query * 1e6).round() as u64,
                );
            }
        }
        answer
    }

    fn answer(&mut self, query: &Query, eval: &Evaluation) -> Answer {
        if self.exhausted() {
            return Answer::Refused("privacy budget exhausted");
        }
        let sensitivity = match &query.aggregate {
            Aggregate::Count => 1.0,
            Aggregate::Sum(attr) => match self.ranges.get(attr) {
                Some(&(lo, hi)) => hi - lo,
                None => return Answer::Refused("no declared range for SUM attribute"),
            },
            Aggregate::Avg(attr) => match self.ranges.get(attr) {
                Some(&(lo, hi)) => (hi - lo) / eval.query_set.len().max(1) as f64,
                None => return Answer::Refused("no declared range for AVG attribute"),
            },
            Aggregate::Min(_) | Aggregate::Max(_) => {
                return Answer::Refused("extrema have unbounded sensitivity under DP")
            }
        };
        let value = eval.value.unwrap_or(0.0);
        self.spent += self.epsilon_per_query;
        let scale = sensitivity / self.epsilon_per_query;
        Answer::Perturbed(value + laplace(&mut self.rng, scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate;
    use crate::parser::parse;
    use tdf_microdata::patients;

    fn ask(policy: &mut DpPolicy, data: &Dataset, src: &str) -> Answer {
        let q = parse(src).unwrap();
        let e = evaluate(data, &q).unwrap();
        policy.apply(data, &q, &e)
    }

    #[test]
    fn noisy_counts_concentrate_around_truth() {
        let d = patients::dataset1();
        let mut errors = Vec::new();
        for seed in 0..200 {
            let mut p = DpPolicy::new(1.0, 10.0, seed);
            if let Answer::Perturbed(v) = ask(&mut p, &d, "SELECT COUNT(*) FROM t WHERE aids = Y") {
                errors.push((v - 3.0).abs());
            }
        }
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        // Laplace(1/1) has mean absolute deviation 1.
        assert!((mean_err - 1.0).abs() < 0.3, "mean error {mean_err}");
    }

    #[test]
    fn budget_exhaustion_refuses() {
        let d = patients::dataset1();
        let mut p = DpPolicy::new(1.0, 2.5, 7);
        assert!(!ask(&mut p, &d, "SELECT COUNT(*) FROM t").is_refused());
        assert!(!ask(&mut p, &d, "SELECT COUNT(*) FROM t").is_refused());
        // Third query would spend 3.0 > 2.5.
        assert!(ask(&mut p, &d, "SELECT COUNT(*) FROM t").is_refused());
        assert_eq!(p.spent(), 2.0);
        assert!(p.remaining() < 0.6);
    }

    #[test]
    fn sums_need_declared_ranges() {
        let d = patients::dataset1();
        let mut p = DpPolicy::new(1.0, 10.0, 1);
        assert!(ask(&mut p, &d, "SELECT SUM(weight) FROM t").is_refused());
        let mut p = DpPolicy::new(1.0, 10.0, 1).with_range("weight", 40.0, 160.0);
        match ask(&mut p, &d, "SELECT SUM(weight) FROM t") {
            Answer::Perturbed(v) => assert!((v - 805.0).abs() < 600.0, "{v}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extrema_are_refused() {
        let d = patients::dataset1();
        let mut p = DpPolicy::new(1.0, 10.0, 2).with_range("weight", 40.0, 160.0);
        assert!(ask(&mut p, &d, "SELECT MAX(weight) FROM t").is_refused());
    }

    #[test]
    fn empty_query_sets_are_not_distinguishable() {
        // The answer for an empty set is noise around 0, not a refusal —
        // refusing would itself leak the emptiness.
        let d = patients::dataset1();
        let mut p = DpPolicy::new(1.0, 10.0, 3).with_range("weight", 40.0, 160.0);
        let a = ask(&mut p, &d, "SELECT AVG(weight) FROM t WHERE height > 999");
        assert!(matches!(a, Answer::Perturbed(_)), "{a:?}");
    }

    #[test]
    fn smaller_epsilon_means_noisier_answers() {
        let d = patients::dataset1();
        let spread = |eps: f64| -> f64 {
            let mut vals = Vec::new();
            for seed in 0..100 {
                let mut p = DpPolicy::new(eps, 1000.0, seed);
                if let Answer::Perturbed(v) = ask(&mut p, &d, "SELECT COUNT(*) FROM t") {
                    vals.push(v);
                }
            }
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        assert!(spread(0.1) > 3.0 * spread(1.0));
    }

    #[test]
    fn the_isolation_attack_yields_only_noise() {
        // The paper's §3 attack against DP: COUNT ≈ 1 ± noise, AVG of the
        // singleton is noise-dominated (sensitivity (hi−lo)/1).
        let d = patients::dataset2();
        let mut p = DpPolicy::new(0.5, 10.0, 11).with_range("blood_pressure", 120.0, 160.0);
        let avg = ask(
            &mut p,
            &d,
            "SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105",
        );
        match avg {
            Answer::Perturbed(v) => {
                // Laplace scale = 40/0.5 = 80: the answer is useless to the
                // attacker with overwhelming probability.
                assert!((v - 146.0).abs() > 1.0, "noise must dominate: {v}");
            }
            other => panic!("{other:?}"),
        }
    }
}
