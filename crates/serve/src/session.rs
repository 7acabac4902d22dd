//! Per-user session state and the admission path.
//!
//! Every user id (claimed, not authenticated — the server models the
//! paper's honest-but-curious statistical office, not an auth system)
//! owns one [`UserSession`]: a differential-privacy budget and a history
//! of answered query sets. The admission path applies, in order,
//!
//! 1. a static size floor (query sets below `min_query_set` records),
//! 2. Dobkin–Jones–Lipton overlap restriction against the user's own
//!    answered history (the tracker/differencing defence),
//! 3. the ε-budget of [`DpPolicy`] — which also supplies the Laplace
//!    noise for answered queries.
//!
//! All three refuse through the same [`Response::Refused`] shape that
//! `querydb` kernels use in-process, with a wire [`RefusalReason`] code.
//!
//! **Determinism.** A session's outcomes depend only on the sequence of
//! *its own* admitted queries: the DP noise stream is seeded per user
//! (`splitmix64(master_seed ^ user_id)`), draws one value per *answered*
//! query, and the server serialises each user's admissions under the
//! session lock. N clients hammering one user therefore produce exactly
//! the same multiset of answers and refusals in any interleaving.

use crate::protocol::{RefusalReason, Response};
use tdf_microdata::{Error, SegmentedDataset};
use tdf_querydb::dp::DpPolicy;
use tdf_querydb::engine::{evaluate_segmented_with_limits, QueryLimits};
use tdf_querydb::parser::parse;
use tdf_querydb::{Answer, QuerySetHistory};

/// Admission and budget parameters shared by every session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// ε spent per answered query.
    pub epsilon_per_query: f64,
    /// Total ε each user may spend before refusal.
    pub budget: f64,
    /// Master seed; each user's noise stream is derived from it.
    pub seed: u64,
    /// Minimum admissible query-set size.
    pub min_query_set: usize,
    /// Maximum record overlap with any of the user's answered queries.
    pub max_overlap: usize,
    /// Per-query row-scan budget (0 = unlimited); exceeding it refuses
    /// with the deadline reason, never answers from a partial scan.
    pub max_rows: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            epsilon_per_query: 0.5,
            budget: 20.0,
            seed: 0x7DF,
            min_query_set: 2,
            max_overlap: usize::MAX,
            max_rows: 0,
        }
    }
}

/// Declared attribute ranges for the synthetic patient population — what
/// lets SUM/AVG queries through the DP sensitivity model.
fn patient_dp_policy(cfg: &SessionConfig, user: u64) -> DpPolicy {
    let mut state = cfg.seed ^ user;
    let user_seed = rngkit::splitmix64(&mut state);
    DpPolicy::new(cfg.epsilon_per_query, cfg.budget, user_seed)
        .with_range("height", 140.0, 210.0)
        .with_range("weight", 40.0, 160.0)
        .with_range("blood_pressure", 90.0, 220.0)
}

/// One user's server-side state.
#[derive(Debug)]
pub struct UserSession {
    user: u64,
    dp: DpPolicy,
    min_query_set: usize,
    max_overlap: usize,
    max_rows: u64,
    /// Query sets of this user's *answered* queries, for overlap checks:
    /// ⌈n/64⌉ words each, at most budget/ε of them.
    answered: QuerySetHistory,
}

impl UserSession {
    /// Creates the session for `user` under `cfg`.
    pub fn new(cfg: &SessionConfig, user: u64) -> Self {
        Self {
            user,
            dp: patient_dp_policy(cfg, user),
            min_query_set: cfg.min_query_set,
            max_overlap: cfg.max_overlap,
            max_rows: cfg.max_rows,
            answered: QuerySetHistory::default(),
        }
    }

    /// The session's user id.
    pub fn user(&self) -> u64 {
        self.user
    }

    /// Remaining ε budget.
    pub fn remaining_budget(&self) -> f64 {
        self.dp.remaining()
    }

    /// Runs one query through the full admission path against a
    /// segmented (possibly out-of-core) dataset: parse, evaluate under
    /// the session's limits, size floor, overlap (tracker) restriction,
    /// then the ε-budgeted DP answer.
    pub fn answer_segmented(&mut self, data: &SegmentedDataset, sql: &str) -> Response {
        let query = match parse(sql) {
            Ok(q) => q,
            Err(e) => return Response::Error(format!("parse error: {e}")),
        };
        let limits = match self.max_rows {
            0 => QueryLimits::unlimited(),
            n => QueryLimits::with_max_rows(n),
        }
        .tightened(QueryLimits::ambient());
        let eval = match evaluate_segmented_with_limits(data, &query, &limits) {
            Ok(eval) => eval,
            Err(Error::ResourceExhausted(_)) => {
                return refuse(
                    RefusalReason::Deadline,
                    "query exceeded its evaluation deadline",
                )
            }
            Err(e) => return Response::Error(format!("evaluation error: {e}")),
        };
        if eval.query_set.len() < self.min_query_set {
            return refuse(RefusalReason::Policy, "query set below minimum size");
        }
        if self
            .answered
            .overlaps(eval.query_set.bits(), self.max_overlap)
        {
            return refuse(
                RefusalReason::Tracker,
                "tracker pattern detected: query set overlaps an answered query",
            );
        }
        // Read before the answer: an exhausted policy refuses for the
        // budget, any other refusal is about the query itself.
        let exhausted = self.dp.exhausted();
        let response = match self.dp.apply_eval(&query, &eval) {
            Answer::Refused(msg) => {
                let reason = if exhausted {
                    RefusalReason::Budget
                } else {
                    RefusalReason::Other
                };
                return refuse(reason, msg);
            }
            Answer::Perturbed(v) => Response::Perturbed(v),
            // DpPolicy only produces Perturbed or Refused; keep the match
            // exhaustive so a policy change here is a compile error.
            Answer::Exact(v) => Response::Exact(v),
            Answer::Interval(lo, hi) => Response::Interval(lo, hi),
        };
        self.answered.record(eval.query_set.into_bits());
        response
    }
}

fn refuse(reason: RefusalReason, message: &str) -> Response {
    Response::Refused {
        reason,
        message: message.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::synth::{patients, PatientConfig};
    use tdf_microdata::Dataset;

    fn patients_200() -> Dataset {
        patients(&PatientConfig {
            n: 200,
            seed: 0xD0C7,
            ..Default::default()
        })
    }

    /// The 200-patient table as one resident segment.
    fn data() -> SegmentedDataset {
        SegmentedDataset::from_dataset(&patients_200(), 200)
    }

    fn cfg() -> SessionConfig {
        SessionConfig {
            epsilon_per_query: 1.0,
            budget: 3.0,
            seed: 0x5EED,
            min_query_set: 2,
            max_overlap: 10_000,
            max_rows: 0,
        }
    }

    #[test]
    fn budget_exhaustion_refuses_with_the_budget_reason() {
        let d = data();
        let mut s = UserSession::new(&cfg(), 1);
        for _ in 0..3 {
            let r = s.answer_segmented(&d, "SELECT COUNT(*) FROM t WHERE height >= 150");
            assert!(matches!(r, Response::Perturbed(_)), "{r:?}");
        }
        match s.answer_segmented(&d, "SELECT COUNT(*) FROM t WHERE height >= 150") {
            Response::Refused { reason, .. } => assert_eq!(reason, RefusalReason::Budget),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.remaining_budget(), 0.0);
    }

    #[test]
    fn dp_refusals_are_typed_by_budget_state_not_by_message() {
        use tdf_microdata::synth::census;
        let d = SegmentedDataset::from_dataset(&census(200, 0xD0C7), 200);
        let sum = "SELECT SUM(income) FROM t WHERE age >= 0";
        let mut s = UserSession::new(&cfg(), 5);
        match s.answer_segmented(&d, sum) {
            Response::Refused { reason, message } => {
                assert_eq!(reason, RefusalReason::Other, "{message}");
                assert_eq!(message, "no declared range for SUM attribute");
            }
            other => panic!("{other:?}"),
        }
        for _ in 0..3 {
            let r = s.answer_segmented(&d, "SELECT COUNT(*) FROM t WHERE age >= 0");
            assert!(matches!(r, Response::Perturbed(_)), "{r:?}");
        }
        // The same range-less SUM, now behind an exhausted budget.
        match s.answer_segmented(&d, sum) {
            Response::Refused { reason, message } => {
                assert_eq!(reason, RefusalReason::Budget, "{message}");
                assert_eq!(message, "privacy budget exhausted");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overlapping_queries_trip_the_tracker_defence() {
        let d = data();
        let mut c = cfg();
        c.max_overlap = 10;
        let mut s = UserSession::new(&c, 2);
        let first = s.answer_segmented(&d, "SELECT AVG(weight) FROM t WHERE height >= 150");
        assert!(matches!(first, Response::Perturbed(_)), "{first:?}");
        // Nearly the same query set: overlap far above 10.
        match s.answer_segmented(&d, "SELECT AVG(weight) FROM t WHERE height >= 151") {
            Response::Refused { reason, .. } => assert_eq!(reason, RefusalReason::Tracker),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tiny_query_sets_are_refused_by_policy() {
        let d = data();
        let mut s = UserSession::new(&cfg(), 3);
        match s.answer_segmented(&d, "SELECT COUNT(*) FROM t WHERE height >= 10000") {
            Response::Refused { reason, .. } => assert_eq!(reason, RefusalReason::Policy),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_errors_not_refusals() {
        let d = data();
        let mut s = UserSession::new(&cfg(), 4);
        assert!(matches!(
            s.answer_segmented(&d, "SELEKT nope"),
            Response::Error(_)
        ));
    }

    #[test]
    fn spilled_small_segments_answer_like_one_resident_segment() {
        let one = data();
        let spilled = SegmentedDataset::from_dataset(&patients_200(), 64);
        spilled.spill_all();
        for sql in [
            "SELECT COUNT(*) FROM t WHERE height >= 150",
            "SELECT AVG(weight) FROM t WHERE height < 180",
            "SELECT SUM(blood_pressure) FROM t WHERE weight >= 60",
        ] {
            let a = UserSession::new(&cfg(), 9).answer_segmented(&one, sql);
            let b = UserSession::new(&cfg(), 9).answer_segmented(&spilled, sql);
            assert_eq!(a, b, "{sql}: out-of-core admission must not drift");
        }
    }

    #[test]
    fn noise_streams_are_deterministic_per_user() {
        let d = data();
        let sql = "SELECT COUNT(*) FROM t WHERE height >= 150";
        let a = UserSession::new(&cfg(), 9).answer_segmented(&d, sql);
        let b = UserSession::new(&cfg(), 9).answer_segmented(&d, sql);
        assert_eq!(a, b, "same user, same seed, same stream");
        let c = UserSession::new(&cfg(), 10).answer_segmented(&d, sql);
        assert_ne!(a, c, "different users draw different noise");
    }
}
