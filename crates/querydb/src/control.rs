//! Inference-control policies for the interactive statistical database.
//!
//! The owner's dilemma (§3 of the paper): answers must stay useful while no
//! sequence of them may pin down one respondent's confidential value.
//! Every policy here *sees the plaintext query* — the structural reason
//! interactive SDC provides no user privacy.

use crate::ast::{Aggregate, Query};
use crate::engine::Evaluation;
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use tdf_mathkit::linalg::QMatrix;
use tdf_mathkit::Rational;
use tdf_microdata::rng::standard_normal;
use tdf_microdata::{Bitmap, Dataset};

/// The database's reply to a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The exact value.
    Exact(f64),
    /// A perturbed value (output noise).
    Perturbed(f64),
    /// An interval guaranteed to contain the true value.
    Interval(f64, f64),
    /// The query was refused.
    Refused(&'static str),
}

impl Answer {
    /// A best-guess point value, if the answer carries one.
    pub fn point(&self) -> Option<f64> {
        match self {
            Answer::Exact(v) | Answer::Perturbed(v) => Some(*v),
            Answer::Interval(lo, hi) => Some(0.5 * (lo + hi)),
            Answer::Refused(_) => None,
        }
    }

    /// True when the query was refused.
    pub fn is_refused(&self) -> bool {
        matches!(self, Answer::Refused(_))
    }
}

/// An inference-control policy (stateful: auditing accumulates knowledge).
#[derive(Debug)]
pub enum ControlPolicy {
    /// Answer everything exactly.
    None,
    /// Refuse query sets smaller than `min_size` or larger than
    /// `n − min_size` (the classic, tracker-vulnerable filter).
    SizeRestriction {
        /// Minimum (and complement-minimum) query-set size.
        min_size: usize,
    },
    /// Chin–Ozsoyoglu exact auditing \[7\] of one protected attribute:
    /// refuse any SUM/AVG whose answer would make some respondent's value
    /// of that attribute uniquely determined.
    Audit(Auditor),
    /// Duncan–Mukherjee output perturbation \[14\]: answer everything, plus
    /// Gaussian noise of standard deviation `sd` (deterministic per seed).
    Noise {
        /// Noise standard deviation.
        sd: f64,
        /// RNG for the noise stream.
        rng: StdRng,
    },
    /// CVC-style interval answers \[16\]: return `[v·(1−γ), v·(1+γ)]`
    /// (widened symmetrically for values near zero).
    Interval {
        /// Relative half-width of the interval.
        gamma: f64,
    },
    /// Deterministic rounding of every answer to a multiple of `base` —
    /// the third classic output-coarsening family (with noise and
    /// intervals) in the SDC handbooks [17, 26].
    Rounding {
        /// Rounding base (> 0).
        base: f64,
    },
    /// Dobkin–Jones–Lipton overlap restriction: a query is refused when
    /// its set is smaller than `min_size` or shares more than
    /// `max_overlap` records with any previously *answered* query — the
    /// classic structural defence against differencing sequences.
    ///
    /// The history holds one word-packed bitmap per answered query set
    /// ([`QuerySetHistory`]): ⌈n/64⌉ `u64` words for a set whose largest
    /// row index is below `n`, whatever the set's size. The policy keeps
    /// every answered set; the serve crate's `UserSession`, which keeps
    /// the same history, is bounded by its budget to budget/ε sets.
    OverlapRestriction {
        /// Minimum query-set size.
        min_size: usize,
        /// Maximum permitted overlap with any answered query set.
        max_overlap: usize,
        /// Query sets already answered.
        history: QuerySetHistory,
    },
}

impl ControlPolicy {
    /// Convenience constructor for the noise policy.
    pub fn noise(sd: f64, seed: u64) -> Self {
        ControlPolicy::Noise {
            sd,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Applies the policy to an already-evaluated query.
    pub fn apply(&mut self, data: &Dataset, query: &Query, eval: &Evaluation) -> Answer {
        match self {
            ControlPolicy::None => match eval.value {
                Some(v) => Answer::Exact(v),
                None => Answer::Refused("aggregate undefined on empty query set"),
            },
            ControlPolicy::SizeRestriction { min_size } => {
                let n = data.num_rows();
                let k = eval.query_set.len();
                if k < *min_size || k > n.saturating_sub(*min_size) {
                    Answer::Refused("query set size outside permitted band")
                } else {
                    match eval.value {
                        Some(v) => Answer::Exact(v),
                        None => Answer::Refused("aggregate undefined on empty query set"),
                    }
                }
            }
            ControlPolicy::Audit(auditor) => auditor.apply(data, query, eval),
            ControlPolicy::Noise { sd, rng } => match eval.value {
                Some(v) => Answer::Perturbed(v + *sd * standard_normal(rng)),
                None => Answer::Refused("aggregate undefined on empty query set"),
            },
            ControlPolicy::Interval { gamma } => match eval.value {
                Some(v) => {
                    let half = (v.abs() * *gamma).max(*gamma);
                    Answer::Interval(v - half, v + half)
                }
                None => Answer::Refused("aggregate undefined on empty query set"),
            },
            ControlPolicy::Rounding { base } => match eval.value {
                Some(v) => Answer::Perturbed((v / *base).round() * *base),
                None => Answer::Refused("aggregate undefined on empty query set"),
            },
            ControlPolicy::OverlapRestriction {
                min_size,
                max_overlap,
                history,
            } => {
                if eval.query_set.len() < *min_size {
                    return Answer::Refused("query set below minimum size");
                }
                if history.overlaps(eval.query_set.bits(), *max_overlap) {
                    return Answer::Refused("query set overlaps an answered query too much");
                }
                match eval.value {
                    Some(v) => {
                        history.record(eval.query_set.bits().clone());
                        Answer::Exact(v)
                    }
                    None => Answer::Refused("aggregate undefined on empty query set"),
                }
            }
        }
    }

    /// Convenience constructor for the overlap-restriction policy.
    pub fn overlap(min_size: usize, max_overlap: usize) -> Self {
        ControlPolicy::OverlapRestriction {
            min_size,
            max_overlap,
            history: QuerySetHistory::default(),
        }
    }
}

/// The answered query sets an overlap restriction checks new queries
/// against, each a word-packed [`Bitmap`] over global row indices.
///
/// A set whose largest row index is below `n` takes ⌈n/64⌉ words, and
/// the overlap of two sets is a popcount of their word-wise AND. Sets
/// recorded before the population grew are shorter than later ones and
/// compare over their common prefix: rows appended after a set was
/// answered cannot be in it.
#[derive(Debug, Default)]
pub struct QuerySetHistory {
    sets: Vec<Bitmap>,
}

impl QuerySetHistory {
    /// True when `current` shares more than `max_overlap` rows with some
    /// answered set.
    pub fn overlaps(&self, current: &Bitmap, max_overlap: usize) -> bool {
        self.sets
            .iter()
            .any(|prev| prev.and_count_ones(current, max_overlap) > max_overlap)
    }

    /// Adds the set of a query that was just answered.
    pub fn record(&mut self, current: Bitmap) {
        self.sets.push(current);
    }
}

/// Exact auditor for one protected numeric attribute.
///
/// Unknowns are the attribute values of the `n` respondents; every answered
/// SUM/AVG contributes one linear equation. A query is refused when
/// answering it would make any unknown determined. Values are quantized at
/// `1/scale` so the rational algebra is exact.
#[derive(Debug)]
pub struct Auditor {
    protected: String,
    scale: i64,
    system: QMatrix,
    refused: usize,
    answered: usize,
}

impl Auditor {
    /// Creates an auditor for attribute `protected` over `n` respondents.
    pub fn new(protected: impl Into<String>, n: usize) -> Self {
        Self {
            protected: protected.into(),
            scale: 1000,
            system: QMatrix::new(n),
            refused: 0,
            answered: 0,
        }
    }

    /// Queries refused so far.
    pub fn refused_count(&self) -> usize {
        self.refused
    }

    /// Queries answered (and absorbed) so far.
    pub fn answered_count(&self) -> usize {
        self.answered
    }

    fn to_rational(&self, v: f64) -> Rational {
        Rational::from_ratio((v * self.scale as f64).round() as i64, self.scale)
    }

    fn apply(&mut self, data: &Dataset, query: &Query, eval: &Evaluation) -> Answer {
        let touches_protected = query.aggregate.attribute() == Some(self.protected.as_str());
        match (&query.aggregate, touches_protected) {
            // COUNTs and aggregates of other attributes reveal nothing
            // about the protected attribute's values.
            (Aggregate::Count, _) | (_, false) => match eval.value {
                Some(v) => {
                    self.answered += 1;
                    Answer::Exact(v)
                }
                None => Answer::Refused("aggregate undefined on empty query set"),
            },
            // MIN/MAX of the protected attribute: auditing them exactly is
            // intractable; a safe auditor refuses.
            (Aggregate::Min(_) | Aggregate::Max(_), true) => {
                self.refused += 1;
                Answer::Refused("extrema of the protected attribute are not auditable")
            }
            (Aggregate::Sum(_) | Aggregate::Avg(_), true) => {
                let value = match eval.value {
                    Some(v) => v,
                    None => return Answer::Refused("aggregate undefined on empty query set"),
                };
                // The linear equation this answer would hand the user.
                let mut row = vec![Rational::zero(); data.num_rows()];
                for i in eval.query_set.iter() {
                    row[i] = Rational::one();
                }
                // Exact rational right-hand side, recomputed from data.
                let col = data
                    .schema()
                    .index_of(&self.protected)
                    .expect("protected attribute exists");
                let view = data.col(col);
                let rhs = eval
                    .query_set
                    .iter()
                    .map(|i| self.to_rational(view.f64(i).unwrap_or(0.0)))
                    .fold(Rational::zero(), |a, b| a.add_ref(&b));

                // Would answering disclose any single respondent's value?
                // (Invariant: the current system determines nothing, since
                // dangerous queries are refused before absorption — so one
                // probe absorption suffices for all targets.)
                let dangerous = {
                    let mut probe = self.system.clone();
                    probe.absorb_row_space(&row);
                    !probe.all_determined().is_empty()
                };
                if dangerous {
                    self.refused += 1;
                    return Answer::Refused("answer would disclose an individual value");
                }
                self.system.absorb(&row, &rhs);
                self.answered += 1;
                Answer::Exact(value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Predicate;
    use crate::engine::evaluate;
    use crate::parser::parse;
    use tdf_microdata::patients;

    fn run(policy: &mut ControlPolicy, data: &Dataset, src: &str) -> Answer {
        let q = parse(src).unwrap();
        let e = evaluate(data, &q).unwrap();
        policy.apply(data, &q, &e)
    }

    #[test]
    fn no_control_answers_exactly() {
        let d = patients::dataset2();
        let mut p = ControlPolicy::None;
        let a = run(
            &mut p,
            &d,
            "SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105",
        );
        assert_eq!(a, Answer::Exact(146.0));
    }

    #[test]
    fn size_restriction_blocks_small_and_large_sets() {
        let d = patients::dataset2();
        let mut p = ControlPolicy::SizeRestriction { min_size: 2 };
        let small = run(
            &mut p,
            &d,
            "SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105",
        );
        assert!(small.is_refused());
        let large = run(&mut p, &d, "SELECT COUNT(*) FROM t WHERE height > 0");
        assert!(large.is_refused(), "complement too small must also refuse");
        let ok = run(
            &mut p,
            &d,
            "SELECT AVG(blood_pressure) FROM t WHERE aids = N",
        );
        assert!(matches!(ok, Answer::Exact(_)));
    }

    #[test]
    fn auditor_answers_first_sum_then_blocks_the_isolating_one() {
        let d = patients::dataset1();
        let mut p = ControlPolicy::Audit(Auditor::new("blood_pressure", d.num_rows()));
        // Sum over the (170, 70) group: 4 records — safe.
        let a1 = run(
            &mut p,
            &d,
            "SELECT SUM(blood_pressure) FROM t WHERE height = 170",
        );
        assert!(matches!(a1, Answer::Exact(_)));
        // Sum over the same group minus one member would determine that
        // member: refuse.
        let a2 = run(
            &mut p,
            &d,
            "SELECT SUM(blood_pressure) FROM t WHERE height = 170 AND aids = N",
        );
        assert!(a2.is_refused(), "got {a2:?}");
    }

    #[test]
    fn auditor_blocks_singleton_sums_immediately() {
        let d = patients::dataset2();
        let mut p = ControlPolicy::Audit(Auditor::new("blood_pressure", d.num_rows()));
        let a = run(
            &mut p,
            &d,
            "SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105",
        );
        assert!(a.is_refused());
    }

    #[test]
    fn auditor_allows_counts_and_other_attributes() {
        let d = patients::dataset2();
        let mut p = ControlPolicy::Audit(Auditor::new("blood_pressure", d.num_rows()));
        let c = run(
            &mut p,
            &d,
            "SELECT COUNT(*) FROM t WHERE height < 165 AND weight > 105",
        );
        assert_eq!(c, Answer::Exact(1.0));
        let w = run(&mut p, &d, "SELECT SUM(weight) FROM t WHERE height < 165");
        assert!(matches!(w, Answer::Exact(_)));
    }

    #[test]
    fn auditor_refuses_minmax_of_protected() {
        let d = patients::dataset1();
        let mut p = ControlPolicy::Audit(Auditor::new("blood_pressure", d.num_rows()));
        let a = run(&mut p, &d, "SELECT MAX(blood_pressure) FROM t");
        assert!(a.is_refused());
        let ok = run(&mut p, &d, "SELECT MAX(weight) FROM t");
        assert!(matches!(ok, Answer::Exact(_)));
    }

    #[test]
    fn noise_perturbs_but_tracks_truth() {
        let d = patients::dataset1();
        let mut p = ControlPolicy::noise(2.0, 99);
        let a = run(&mut p, &d, "SELECT AVG(blood_pressure) FROM t");
        match a {
            Answer::Perturbed(v) => assert!((v - 134.4).abs() < 10.0, "{v}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overlap_restriction_blocks_differencing() {
        let d = patients::dataset1();
        let mut p = ControlPolicy::overlap(3, 2);
        // First query over the (170, 70) class: 4 records, answered.
        let a1 = run(
            &mut p,
            &d,
            "SELECT SUM(blood_pressure) FROM t WHERE height = 170",
        );
        assert!(matches!(a1, Answer::Exact(_)));
        // Subset differing by one record: overlap 3 > 2 → refused.
        let a2 = run(
            &mut p,
            &d,
            "SELECT SUM(blood_pressure) FROM t WHERE height = 170 AND aids = N",
        );
        assert!(a2.is_refused(), "{a2:?}");
        // A disjoint class is fine.
        let a3 = run(
            &mut p,
            &d,
            "SELECT SUM(blood_pressure) FROM t WHERE height = 175",
        );
        assert!(matches!(a3, Answer::Exact(_)));
    }

    #[test]
    fn overlap_restriction_stops_the_tracker() {
        use crate::ast::CmpOp;
        use crate::statdb::StatDb;
        use crate::tracker::disclose_individual;
        let d = patients::dataset2();
        let mut db = StatDb::new(d, ControlPolicy::overlap(2, 3));
        let target = Predicate::cmp("height", CmpOp::Lt, 165.0).and(Predicate::cmp(
            "weight",
            CmpOp::Gt,
            105.0,
        ));
        let tracker = Predicate::cmp("aids", CmpOp::Eq, false);
        let got = disclose_individual(&mut db, "blood_pressure", &target, &tracker).unwrap();
        assert_eq!(
            got, None,
            "tracker probes overlap heavily and must be cut off"
        );
        assert!(db.refusals() > 0);
    }

    #[test]
    fn rounding_coarsens_answers() {
        let d = patients::dataset1();
        let mut p = ControlPolicy::Rounding { base: 10.0 };
        let a = run(&mut p, &d, "SELECT SUM(weight) FROM t");
        assert_eq!(a, Answer::Perturbed(810.0)); // 805 rounds up
        let b = run(&mut p, &d, "SELECT AVG(blood_pressure) FROM t");
        match b {
            Answer::Perturbed(v) => {
                assert_eq!(v % 10.0, 0.0);
                assert!((v - 134.4).abs() < 10.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interval_contains_truth() {
        let d = patients::dataset1();
        let mut p = ControlPolicy::Interval { gamma: 0.05 };
        let a = run(&mut p, &d, "SELECT SUM(weight) FROM t");
        match a {
            Answer::Interval(lo, hi) => {
                let truth = 805.0; // 3*80 + 3*95 + 4*70
                assert!(lo < truth && truth < hi, "[{lo}, {hi}]");
            }
            other => panic!("{other:?}"),
        }
    }
}
