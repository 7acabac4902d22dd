//! Query evaluation over a microdata dataset.

use crate::ast::{Aggregate, CmpOp, Predicate, Query};
use std::cmp::Ordering;
use tdf_microdata::{ColumnView, Dataset, Error, Result, Schema, SegmentedDataset, Value};

/// The evaluation of one query: its query set and exact aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Row indices matching the predicate (the *query set* of the
    /// inference-control literature).
    pub query_set: Vec<usize>,
    /// The exact aggregate over the query set. `None` when the aggregate
    /// is undefined (e.g. AVG over an empty set).
    pub value: Option<f64>,
}

/// Per-query resource limits. The deadline is expressed as a row-scan
/// allowance, not a wall-clock duration, so refusal decisions are
/// deterministic and reproducible; a query whose scan would exceed the
/// allowance is refused *before* any row is read — never answered from a
/// partial scan, which would be a silent wrong answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryLimits {
    /// Maximum rows one evaluation may scan; `None` is unlimited.
    pub max_rows: Option<u64>,
}

impl QueryLimits {
    /// No limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A row-scan allowance of `max_rows`.
    pub fn with_max_rows(max_rows: u64) -> Self {
        QueryLimits {
            max_rows: Some(max_rows),
        }
    }

    /// The ambient limits of this evaluation: the fault plan's injected
    /// per-query deadline (`querydb.deadline`, a row allowance), when one
    /// applies to this draw. With no plan installed this is free.
    pub fn ambient() -> Self {
        QueryLimits {
            max_rows: faultkit::param("querydb.deadline"),
        }
    }

    /// The stricter combination of two limit sets.
    pub fn tightened(self, other: QueryLimits) -> Self {
        QueryLimits {
            max_rows: match (self.max_rows, other.max_rows) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }
}

/// Evaluates `query` against `data`, exactly and without any protection,
/// under the ambient [`QueryLimits`] (the injected deadline, if any).
pub fn evaluate(data: &Dataset, query: &Query) -> Result<Evaluation> {
    evaluate_with_limits(data, query, &QueryLimits::ambient())
}

/// [`evaluate`] under explicit resource limits. Exceeding the row
/// allowance returns [`Error::ResourceExhausted`] with nothing scanned.
pub fn evaluate_with_limits(
    data: &Dataset,
    query: &Query,
    limits: &QueryLimits,
) -> Result<Evaluation> {
    let mut fold = Fold::begin(query, data.schema(), data.num_rows(), limits)?;
    fold.part(data, 0)?;
    Ok(fold.finish())
}

/// [`evaluate`] over a [`SegmentedDataset`], streaming one part at a time
/// under the ambient limits. Global row indices are `part start + local`,
/// and the aggregate folds across parts in row order, so the result is the
/// one the materialized table gives.
pub fn evaluate_segmented(data: &SegmentedDataset, query: &Query) -> Result<Evaluation> {
    evaluate_segmented_with_limits(data, query, &QueryLimits::ambient())
}

/// [`evaluate_segmented`] under explicit resource limits. The deadline is
/// charged for the *whole* table up front — sealed segments plus tail — so
/// a refusal never pins (or reloads) a single segment.
pub fn evaluate_segmented_with_limits(
    data: &SegmentedDataset,
    query: &Query,
    limits: &QueryLimits,
) -> Result<Evaluation> {
    let mut fold = Fold::begin(query, data.schema(), data.num_rows(), limits)?;
    data.for_each_part(|part, base| fold.part(part, base))?;
    Ok(fold.finish())
}

/// The one query evaluator. A front opens a fold over the whole table and
/// feeds it every part, in row order, with the part's global start row.
/// Sum and Avg left-fold from `+0.0` in row order; Min and Max select
/// under `f64::total_cmp`, whose ties are bit-identical values, so part
/// boundaries cannot show in the result.
struct Fold<'q> {
    query: &'q Query,
    agg_col: Option<usize>,
    /// The ordering that makes a cell the new extreme: `Less` for Min.
    wins: Ordering,
    query_set: Vec<usize>,
    sum: f64,
    present: usize,
    extreme: Option<f64>,
    _span: obs::Span,
}

impl<'q> Fold<'q> {
    /// Checks the query against `schema` and charges the deadline for all
    /// `rows` of the table before any part is read.
    fn begin(query: &'q Query, schema: &Schema, rows: usize, limits: &QueryLimits) -> Result<Self> {
        // Resolve the aggregate attribute early so bad queries fail loudly.
        let agg_col = match query.aggregate.attribute() {
            Some(name) => {
                let idx = schema.index_of(name)?;
                if !schema.attribute(idx).kind.is_numeric() {
                    return Err(Error::NotNumeric(name.to_owned()));
                }
                Some(idx)
            }
            None => None,
        };

        let span = obs::span("querydb.evaluate");
        obs::count("querydb.queries", 1);
        if let Some(max_rows) = limits.max_rows {
            if rows as u64 > max_rows {
                obs::count("querydb.deadline_refusals", 1);
                return Err(Error::ResourceExhausted(format!(
                    "query needs {rows} row scans but its deadline allows {max_rows}"
                )));
            }
        }
        obs::count("querydb.rows_scanned", rows as u64);
        // The predicate compiles per part, so its names are checked once
        // here: a bad query must fail even when every part is empty.
        check_predicate_names(&query.predicate, schema)?;
        Ok(Fold {
            query,
            agg_col,
            wins: match query.aggregate {
                Aggregate::Min(_) => Ordering::Less,
                _ => Ordering::Greater,
            },
            query_set: Vec::new(),
            sum: 0.0,
            present: 0,
            extreme: None,
            _span: span,
        })
    }

    /// Scans one part whose first row is global row `base`.
    fn part(&mut self, data: &Dataset, base: usize) -> Result<()> {
        // Attribute names resolve to column views once per part; the row
        // loop then reads cells straight out of the columnar storage.
        let compiled = CompiledPredicate::compile(&self.query.predicate, data)?;
        let cells = self.agg_col.map(|c| data.f64_cells(c).expect("numeric"));
        for i in 0..data.num_rows() {
            if !compiled.matches(i) {
                continue;
            }
            self.query_set.push(base + i);
            if let Some(v) = cells.as_ref().and_then(|c| c.get(i)) {
                self.sum += v;
                self.present += 1;
                if self.extreme.is_none_or(|b| v.total_cmp(&b) == self.wins) {
                    self.extreme = Some(v);
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Evaluation {
        let value = match &self.query.aggregate {
            Aggregate::Count => Some(self.query_set.len() as f64),
            Aggregate::Sum(_) => Some(self.sum),
            Aggregate::Avg(_) => (self.present > 0).then(|| self.sum / self.present as f64),
            Aggregate::Min(_) | Aggregate::Max(_) => self.extreme,
        };
        Evaluation {
            query_set: self.query_set,
            value,
        }
    }
}

/// Resolves every attribute the predicate mentions against `schema`,
/// returning the same error the per-part compile would.
fn check_predicate_names(p: &Predicate, schema: &Schema) -> Result<()> {
    match p {
        Predicate::True => Ok(()),
        Predicate::Cmp { attribute, .. } | Predicate::In { attribute, .. } => {
            schema.index_of(attribute).map(|_| ())
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            check_predicate_names(a, schema)?;
            check_predicate_names(b, schema)
        }
        Predicate::Not(inner) => check_predicate_names(inner, schema),
    }
}

/// A predicate with attribute names resolved to column views: compiled once
/// per query, then evaluated per row without hash lookups, `Value`
/// materialization, or allocation.
enum CompiledPredicate<'a> {
    True,
    Cmp {
        view: ColumnView<'a>,
        op: CmpOp,
        literal: &'a Value,
    },
    And(Box<CompiledPredicate<'a>>, Box<CompiledPredicate<'a>>),
    Or(Box<CompiledPredicate<'a>>, Box<CompiledPredicate<'a>>),
    Not(Box<CompiledPredicate<'a>>),
    In {
        view: ColumnView<'a>,
        values: &'a [Value],
    },
}

impl<'a> CompiledPredicate<'a> {
    fn compile(p: &'a Predicate, data: &'a Dataset) -> Result<Self> {
        Ok(match p {
            Predicate::True => CompiledPredicate::True,
            Predicate::Cmp {
                attribute,
                op,
                literal,
            } => CompiledPredicate::Cmp {
                view: data.col(data.schema().index_of(attribute)?),
                op: *op,
                literal,
            },
            Predicate::And(a, b) => CompiledPredicate::And(
                Box::new(Self::compile(a, data)?),
                Box::new(Self::compile(b, data)?),
            ),
            Predicate::Or(a, b) => CompiledPredicate::Or(
                Box::new(Self::compile(a, data)?),
                Box::new(Self::compile(b, data)?),
            ),
            Predicate::Not(inner) => CompiledPredicate::Not(Box::new(Self::compile(inner, data)?)),
            Predicate::In { attribute, values } => CompiledPredicate::In {
                view: data.col(data.schema().index_of(attribute)?),
                values,
            },
        })
    }

    fn matches(&self, i: usize) -> bool {
        match self {
            CompiledPredicate::True => true,
            CompiledPredicate::Cmp { view, op, literal } => {
                if view.is_missing(i) {
                    return false; // suppressed cells match nothing
                }
                let ord = view.cmp_value(i, literal);
                match op {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                }
            }
            CompiledPredicate::And(a, b) => a.matches(i) && b.matches(i),
            CompiledPredicate::Or(a, b) => a.matches(i) || b.matches(i),
            CompiledPredicate::Not(inner) => !inner.matches(i),
            CompiledPredicate::In { view, values } => {
                if view.is_missing(i) {
                    return false;
                }
                values.iter().any(|v| view.cmp_value(i, v).is_eq())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use tdf_microdata::patients;

    fn count_where(predicate: Predicate) -> Query {
        Query {
            aggregate: Aggregate::Count,
            predicate,
        }
    }

    #[test]
    fn the_papers_isolation_queries_return_1_and_146() {
        // §3: "The first query tells the user that there is only one
        // individual in the dataset smaller than 165 cm and heavier than
        // 105 kg ... the average blood pressure 146 returned by the second
        // query corresponds to that single individual."
        let d = patients::dataset2();
        let p = Predicate::cmp("height", CmpOp::Lt, 165.0).and(Predicate::cmp(
            "weight",
            CmpOp::Gt,
            105.0,
        ));
        let count = evaluate(&d, &count_where(p)).unwrap();
        assert_eq!(count.value, Some(1.0));
        assert_eq!(count.query_set, vec![patients::DATASET2_ISOLATED_ROW]);
        let avg = evaluate(
            &d,
            &parse("SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(avg.value, Some(146.0));
        assert_eq!(avg.query_set, vec![patients::DATASET2_ISOLATED_ROW]);
    }

    #[test]
    fn boolean_and_negation() {
        let d = patients::dataset1();
        let p = Predicate::cmp("aids", CmpOp::Eq, true);
        let set_size = |p: Predicate| evaluate(&d, &count_where(p)).unwrap().query_set.len();
        assert_eq!(set_size(p.clone()), 3);
        assert_eq!(set_size(p.not()), 7);
    }

    #[test]
    fn missing_cells_never_match() {
        let mut d = patients::dataset1();
        d.set_value(0, 0, Value::Missing).unwrap();
        let p = Predicate::cmp("height", CmpOp::Gt, 0.0);
        let e = evaluate(&d, &count_where(p)).unwrap();
        assert!(!e.query_set.contains(&0));
        assert!(e.query_set.contains(&1));
    }

    #[test]
    fn aggregates_on_dataset1() {
        let d = patients::dataset1();
        let count = evaluate(&d, &parse("SELECT COUNT(*) FROM t").unwrap()).unwrap();
        assert_eq!(count.value, Some(10.0));
        let min = evaluate(&d, &parse("SELECT MIN(blood_pressure) FROM t").unwrap()).unwrap();
        assert_eq!(min.value, Some(128.0));
        let max = evaluate(&d, &parse("SELECT MAX(weight) FROM t").unwrap()).unwrap();
        assert_eq!(max.value, Some(95.0));
        let sum = evaluate(
            &d,
            &parse("SELECT SUM(weight) FROM t WHERE height = 170").unwrap(),
        )
        .unwrap();
        assert_eq!(sum.value, Some(280.0));
    }

    #[test]
    fn empty_query_set_semantics() {
        let d = patients::dataset1();
        let q = parse("SELECT AVG(weight) FROM t WHERE height > 999").unwrap();
        let e = evaluate(&d, &q).unwrap();
        assert!(e.query_set.is_empty());
        assert_eq!(e.value, None);
        let c = evaluate(
            &d,
            &parse("SELECT COUNT(*) FROM t WHERE height > 999").unwrap(),
        )
        .unwrap();
        assert_eq!(c.value, Some(0.0));
    }

    #[test]
    fn non_numeric_aggregate_is_rejected() {
        let d = patients::dataset1();
        let q = parse("SELECT SUM(aids) FROM t").unwrap();
        assert!(evaluate(&d, &q).is_err());
    }

    #[test]
    fn row_budget_refuses_before_scanning() {
        let d = patients::dataset1(); // 10 rows
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        // A generous allowance changes nothing.
        let ok = evaluate_with_limits(&d, &q, &QueryLimits::with_max_rows(10)).unwrap();
        assert_eq!(ok.value, Some(10.0));
        assert_eq!(ok, evaluate(&d, &q).unwrap());
        // A tight allowance is an explicit typed refusal, not a partial
        // answer.
        let err = evaluate_with_limits(&d, &q, &QueryLimits::with_max_rows(9)).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");
        assert!(err.to_string().contains("10 row scans"));
    }

    #[test]
    fn limits_tighten_to_the_stricter_combination() {
        let a = QueryLimits::with_max_rows(5);
        let b = QueryLimits::with_max_rows(9);
        assert_eq!(a.tightened(b).max_rows, Some(5));
        assert_eq!(b.tightened(a).max_rows, Some(5));
        assert_eq!(a.tightened(QueryLimits::unlimited()).max_rows, Some(5));
        assert_eq!(QueryLimits::unlimited().tightened(b).max_rows, Some(9));
        assert_eq!(
            QueryLimits::unlimited().tightened(QueryLimits::unlimited()),
            QueryLimits::unlimited()
        );
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let d = patients::dataset1();
        let q = parse("SELECT SUM(salary) FROM t").unwrap();
        assert!(evaluate(&d, &q).is_err());
        let q2 = parse("SELECT COUNT(*) FROM t WHERE salary > 3").unwrap();
        assert!(evaluate(&d, &q2).is_err());
        let q3 = count_where(Predicate::cmp("zip", CmpOp::Eq, 1.0));
        assert!(evaluate(&d, &q3).is_err());
    }

    #[test]
    fn segmented_evaluation_matches_monolithic_bit_for_bit() {
        use tdf_microdata::synth::{patients as synth_patients, PatientConfig};
        use tdf_microdata::SegmentedDataset;
        let d = synth_patients(&PatientConfig {
            n: 137,
            ..Default::default()
        });
        let seg = SegmentedDataset::from_dataset(&d, 40); // 3 sealed + tail of 17
        let queries = [
            "SELECT COUNT(*) FROM t WHERE height < 170",
            "SELECT SUM(weight) FROM t WHERE height >= 160 AND height <= 180",
            "SELECT AVG(blood_pressure) FROM t WHERE weight > 70",
            "SELECT MIN(height) FROM t WHERE weight < 90",
            "SELECT MAX(weight) FROM t",
            "SELECT AVG(weight) FROM t WHERE height > 999",
        ];
        for sql in queries {
            let q = parse(sql).unwrap();
            let mono = evaluate(&d, &q).unwrap();
            let segd = evaluate_segmented(&seg, &q).unwrap();
            assert_eq!(segd.query_set, mono.query_set, "{sql}");
            match (mono.value, segd.value) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{sql}"),
                (a, b) => assert_eq!(a, b, "{sql}"),
            }
        }
    }

    #[test]
    fn segmented_evaluation_streams_through_spilled_segments() {
        use tdf_microdata::synth::{patients as synth_patients, PatientConfig};
        use tdf_microdata::SegmentedDataset;
        let d = synth_patients(&PatientConfig {
            n: 160,
            ..Default::default()
        });
        let seg = SegmentedDataset::from_dataset(&d, 40);
        assert_eq!(seg.spill_all(), 4);
        let q = parse("SELECT SUM(weight) FROM t WHERE height < 175").unwrap();
        let mono = evaluate(&d, &q).unwrap();
        let segd = evaluate_segmented(&seg, &q).unwrap();
        assert_eq!(segd, mono, "out-of-core scan must be exact");
    }

    #[test]
    fn segmented_deadline_refuses_for_the_whole_table() {
        use tdf_microdata::synth::{patients as synth_patients, PatientConfig};
        use tdf_microdata::SegmentedDataset;
        let d = synth_patients(&PatientConfig {
            n: 100,
            ..Default::default()
        });
        let seg = SegmentedDataset::from_dataset(&d, 30);
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        let ok =
            evaluate_segmented_with_limits(&seg, &q, &QueryLimits::with_max_rows(100)).unwrap();
        assert_eq!(ok.value, Some(100.0));
        let err =
            evaluate_segmented_with_limits(&seg, &q, &QueryLimits::with_max_rows(99)).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");
    }

    #[test]
    fn segmented_rejects_bad_names_even_with_empty_parts() {
        use tdf_microdata::SegmentedDataset;
        let d = patients::dataset1();
        let empty = SegmentedDataset::new(d.schema().clone());
        let q = parse("SELECT COUNT(*) FROM t WHERE salary > 3").unwrap();
        assert!(evaluate_segmented(&empty, &q).is_err());
        let q2 = parse("SELECT SUM(salary) FROM t").unwrap();
        assert!(evaluate_segmented(&empty, &q2).is_err());
    }
}
