//! The Schlörer tracker attack \[22\].
//!
//! Query-set-size restriction refuses queries whose sets are too small or
//! too large — but a *tracker* predicate `T` of comfortable size lets the
//! attacker reassemble forbidden answers from permitted ones, via
//! inclusion–exclusion:
//!
//! `q(C ∨ T) + q(C ∨ ¬T) = q(C) + q(ALL)` and `q(ALL) = q(T) + q(¬T)`
//!
//! hold for COUNT and SUM alike, and every query on the left/right sides
//! can be made to pass the size filter. This is why the paper calls the SDC
//! problem for interactive databases "known to be difficult since the
//! 1980s" (§3).

use crate::ast::{Aggregate, Predicate, Query};
use crate::control::Answer;
use crate::statdb::StatDb;
use tdf_microdata::Result;

/// Outcome of a tracker attack.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerOutcome {
    /// The inferred aggregate over the forbidden query set, if every
    /// auxiliary query was answered.
    pub inferred: Option<f64>,
    /// Number of auxiliary queries issued.
    pub queries_issued: usize,
    /// Number of auxiliary queries refused by the database.
    pub refused: usize,
}

fn ask(db: &mut StatDb, aggregate: Aggregate, predicate: Predicate) -> Result<Answer> {
    db.query(Query {
        aggregate,
        predicate,
    })
}

/// Runs the general tracker attack to compute `aggregate` over the
/// (presumably forbidden) `target` query set, padding with `tracker`.
///
/// The four auxiliary queries are `q(target ∨ tracker)`,
/// `q(target ∨ ¬tracker)`, `q(tracker)` and `q(¬tracker)`; the identity
/// above recovers `q(target)`. Works against exact-answer policies; against
/// output noise the estimate degrades; against auditing the final queries
/// are refused.
pub fn general_tracker_attack(
    db: &mut StatDb,
    aggregate: Aggregate,
    target: &Predicate,
    tracker: &Predicate,
) -> Result<TrackerOutcome> {
    obs::count("querydb.tracker.attacks", 1);
    let mut refused = 0usize;
    let mut values = Vec::with_capacity(4);
    let probes = [
        target.clone().or(tracker.clone()),
        target.clone().or(tracker.clone().not()),
        tracker.clone(),
        tracker.clone().not(),
    ];
    for p in probes {
        match ask(db, aggregate.clone(), p)? {
            Answer::Refused(_) => refused += 1,
            a => values.push(a.point().expect("non-refused answers carry a value")),
        }
    }
    let inferred = if refused == 0 {
        // q(C) = q(C∨T) + q(C∨¬T) − (q(T) + q(¬T)).
        Some(values[0] + values[1] - (values[2] + values[3]))
    } else {
        None
    };
    obs::count("querydb.tracker.refused", refused as u64);
    Ok(TrackerOutcome {
        inferred,
        queries_issued: 4,
        refused,
    })
}

/// Convenience: full §3-style disclosure of one respondent's value of
/// `attribute` using COUNT + SUM trackers. Returns the value when the
/// target set turned out to be a singleton and all queries were answered.
pub fn disclose_individual(
    db: &mut StatDb,
    attribute: &str,
    target: &Predicate,
    tracker: &Predicate,
) -> Result<Option<f64>> {
    let count = general_tracker_attack(db, Aggregate::Count, target, tracker)?;
    let sum = general_tracker_attack(db, Aggregate::Sum(attribute.to_owned()), target, tracker)?;
    Ok(match (count.inferred, sum.inferred) {
        (Some(c), Some(s)) if (c - 1.0).abs() < 1e-6 => Some(s),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use crate::control::{Auditor, ControlPolicy};
    use tdf_microdata::patients;

    fn target() -> Predicate {
        // The paper's Mr./Mrs. X: unique in Dataset 2.
        Predicate::cmp("height", CmpOp::Lt, 165.0).and(Predicate::cmp("weight", CmpOp::Gt, 105.0))
    }

    fn tracker() -> Predicate {
        // aids = N matches 7 of 10 records: comfortably inside the band.
        Predicate::cmp("aids", CmpOp::Eq, false)
    }

    #[test]
    fn direct_isolation_is_refused_but_tracker_succeeds() {
        let mut db = StatDb::new(
            patients::dataset2(),
            ControlPolicy::SizeRestriction { min_size: 2 },
        );
        // The direct §3 attack is stopped by the size filter...
        let direct = db
            .query_str("SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105")
            .unwrap();
        assert!(direct.is_refused());
        // ...and the tracker walks around it: full disclosure of 146.
        let value = disclose_individual(&mut db, "blood_pressure", &target(), &tracker())
            .unwrap()
            .expect("tracker defeats size restriction");
        assert!((value - 146.0).abs() < 1e-9, "disclosed {value}");
    }

    #[test]
    fn tracker_count_identity_holds_on_dataset1() {
        let mut db = StatDb::new(patients::dataset1(), ControlPolicy::None);
        let t = Predicate::cmp("aids", CmpOp::Eq, false);
        let c = Predicate::cmp("height", CmpOp::Eq, 175.0);
        let out = general_tracker_attack(&mut db, Aggregate::Count, &c, &t).unwrap();
        assert_eq!(out.inferred, Some(3.0));
        assert_eq!(out.refused, 0);
    }

    #[test]
    fn auditing_stops_the_tracker() {
        let d = patients::dataset2();
        let n = d.num_rows();
        let mut db = StatDb::new(d, ControlPolicy::Audit(Auditor::new("blood_pressure", n)));
        let value = disclose_individual(&mut db, "blood_pressure", &target(), &tracker()).unwrap();
        assert_eq!(value, None, "auditor must refuse some tracker query");
        assert!(db.refusals() > 0);
    }

    #[test]
    fn noise_bounds_the_disclosure() {
        let mut db = StatDb::new(patients::dataset2(), ControlPolicy::noise(5.0, 1234));
        let value = disclose_individual(&mut db, "blood_pressure", &target(), &tracker()).unwrap();
        // The count estimate is itself noisy; the attack may or may not
        // conclude. When it does, the value must be off the mark by the
        // accumulated noise rather than exact.
        if let Some(v) = value {
            assert!(
                (v - 146.0).abs() > 1e-9,
                "noise must not reproduce the exact value"
            );
        }
    }

    #[test]
    fn queries_issued_accounting() {
        let mut db = StatDb::new(patients::dataset2(), ControlPolicy::None);
        let out = general_tracker_attack(&mut db, Aggregate::Count, &target(), &tracker()).unwrap();
        assert_eq!(out.queries_issued, 4);
        assert_eq!(db.query_log().len(), 4);
    }
}
