//! Query evaluation over a microdata dataset.
//!
//! Each part of the table is evaluated into a selection [`Bitmap`], 64
//! rows per word: every predicate leaf is one typed comparison kernel
//! over its column, leaves combine by word AND, OR and NOT, and the
//! aggregate folds over the set bits of the selection. The table-wide
//! selection is the query set.

use crate::ast::{Aggregate, CmpOp, Predicate, Query};
use std::cmp::Ordering;
use tdf_microdata::{Bitmap, ColumnView, Dataset, Error, Result, Schema, SegmentedDataset, Value};

/// The evaluation of one query: its query set and exact aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The rows matching the predicate (the *query set* of the
    /// inference-control literature).
    pub query_set: QuerySet,
    /// The exact aggregate over the query set. `None` when the aggregate
    /// is undefined (e.g. AVG over an empty set).
    pub value: Option<f64>,
}

/// A query set as the evaluator produces it: one bit per row of the
/// table, set where the row matches. The overlap restriction checks and
/// records this bitmap as it is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuerySet(Bitmap);

impl QuerySet {
    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones()
    }

    /// True when no row matches.
    pub fn is_empty(&self) -> bool {
        self.0.none()
    }

    /// The rows of the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter_ones()
    }

    /// True when `row` is in the set.
    pub fn contains(&self, row: usize) -> bool {
        row < self.0.len() && self.0.get(row)
    }

    /// The set as a bitmap over row indices.
    pub fn bits(&self) -> &Bitmap {
        &self.0
    }

    /// The set's bitmap, by value.
    pub fn into_bits(self) -> Bitmap {
        self.0
    }
}

impl From<Bitmap> for QuerySet {
    fn from(bits: Bitmap) -> Self {
        QuerySet(bits)
    }
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

/// Checks `query` against `schema` without reading a row: the aggregate
/// attribute must exist and be numeric, and every attribute the predicate
/// names must exist. The evaluator runs the same two checks, so a client
/// that screens a query here gets the error evaluation would give.
pub fn check_query(query: &Query, schema: &Schema) -> Result<()> {
    aggregate_column(query, schema)?;
    check_predicate_names(&query.predicate, schema)
}

/// Resolves the aggregate attribute, which must be numeric.
fn aggregate_column(query: &Query, schema: &Schema) -> Result<Option<usize>> {
    let Some(name) = query.aggregate.attribute() else {
        return Ok(None);
    };
    let idx = schema.index_of(name)?;
    if !schema.attribute(idx).kind.is_numeric() {
        return Err(Error::NotNumeric(name.to_owned()));
    }
    Ok(Some(idx))
}

/// Resolves every attribute the predicate mentions against `schema`,
/// returning the same error the per-part selection would.
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

/// The one query evaluator. A front opens a fold over the whole table and
/// feeds it every part, in row order, with the part's global start row.
/// Each part is selected into a bitmap, which is placed into the
/// table-wide query set at the part's start row. Sum and Avg left-fold
/// from `+0.0` over the selected rows in row order; Min and Max select
/// under `f64::total_cmp`, whose ties are bit-identical values, so part
/// boundaries cannot show in the result.
struct Fold<'q> {
    query: &'q Query,
    agg_col: Option<usize>,
    /// The ordering that makes a cell the new extreme: `Less` for Min.
    wins: Ordering,
    query_set: Bitmap,
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
        let agg_col = aggregate_column(query, schema)?;

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
        // The predicate is selected per part, so its names are checked
        // once here: a bad query must fail even when every part is empty.
        check_predicate_names(&query.predicate, schema)?;
        Ok(Fold {
            query,
            agg_col,
            wins: match query.aggregate {
                Aggregate::Min(_) => Ordering::Less,
                _ => Ordering::Greater,
            },
            query_set: Bitmap::zeros(rows),
            sum: 0.0,
            present: 0,
            extreme: None,
            _span: span,
        })
    }

    /// Scans one part whose first row is global row `base`.
    fn part(&mut self, data: &Dataset, base: usize) -> Result<()> {
        let selection = select(&self.query.predicate, data)?;
        self.query_set.or_at(base, &selection);
        if let Some(c) = self.agg_col {
            match data.col(c) {
                ColumnView::Float(col) => self.fold(selection, col.missing(), |i| col.values()[i]),
                ColumnView::Int(col) => {
                    self.fold(selection, col.missing(), |i| col.values()[i] as f64)
                }
                _ => unreachable!("numeric attributes are stored as float or integer columns"),
            }
        }
        Ok(())
    }

    /// Folds the aggregate over the selected rows whose cell is present,
    /// in row order.
    fn fold(&mut self, mut rows: Bitmap, missing: &Bitmap, cell: impl Fn(usize) -> f64) {
        rows.and_not_assign(missing);
        for i in rows.iter_ones() {
            let v = cell(i);
            self.sum += v;
            self.present += 1;
            if self.extreme.is_none_or(|b| v.total_cmp(&b) == self.wins) {
                self.extreme = Some(v);
            }
        }
    }

    fn finish(self) -> Evaluation {
        let query_set = QuerySet::from(self.query_set);
        let value = match &self.query.aggregate {
            Aggregate::Count => Some(query_set.len() as f64),
            Aggregate::Sum(_) => Some(self.sum),
            Aggregate::Avg(_) => (self.present > 0).then(|| self.sum / self.present as f64),
            Aggregate::Min(_) | Aggregate::Max(_) => self.extreme,
        };
        Evaluation { query_set, value }
    }
}

/// Evaluates `p` over every row of `data` into a selection bitmap. Every
/// leaf runs over every word, and leaves combine by word AND, OR and NOT;
/// NOT complements only the part's rows, so a row whose cell is missing
/// (and so fails the leaf) passes the negation.
fn select(p: &Predicate, data: &Dataset) -> Result<Bitmap> {
    let view = |attribute: &str| Ok::<_, Error>(data.col(data.schema().index_of(attribute)?));
    Ok(match p {
        Predicate::True => constant(data.num_rows(), true),
        Predicate::Cmp {
            attribute,
            op,
            literal,
        } => leaf(view(attribute)?, *op, literal),
        Predicate::In { attribute, values } => {
            let view = view(attribute)?;
            let mut selection = Bitmap::zeros(data.num_rows());
            for v in values {
                selection.or_assign(&leaf(view, CmpOp::Eq, v));
            }
            selection
        }
        Predicate::And(a, b) => {
            let mut selection = select(a, data)?;
            selection.and_assign(&select(b, data)?);
            selection
        }
        Predicate::Or(a, b) => {
            let mut selection = select(a, data)?;
            selection.or_assign(&select(b, data)?);
            selection
        }
        Predicate::Not(inner) => {
            let mut selection = select(inner, data)?;
            selection.not_assign();
            selection
        }
    })
}

/// One comparison leaf: the rows whose present cell `c` satisfies
/// `Value::total_cmp(c, literal)` under `op`, which is what
/// `ColumnView::cmp_value` computes. Each column type compares in its own
/// domain; a literal of a type the column cannot compare with orders by
/// type tag alone, the same for every present cell. Missing cells match
/// nothing.
fn leaf(view: ColumnView<'_>, op: CmpOp, literal: &Value) -> Bitmap {
    let mut selection = match (view, literal) {
        (ColumnView::Float(c), &Value::Float(x)) => fill_cmp(c.values(), op, |a| a.total_cmp(&x)),
        (ColumnView::Float(c), &Value::Int(i)) => {
            let x = i as f64;
            fill_cmp(c.values(), op, |a| a.total_cmp(&x))
        }
        (ColumnView::Int(c), &Value::Int(i)) => fill_cmp(c.values(), op, |a| a.cmp(&i)),
        (ColumnView::Int(c), &Value::Float(x)) => {
            fill_cmp(c.values(), op, |a| (a as f64).total_cmp(&x))
        }
        (ColumnView::Bool(c), &Value::Bool(b)) => {
            // A cell is `true` or `false`; each either passes or not.
            let when = |cell: bool| if op.holds(cell.cmp(&b)) { !0u64 } else { 0 };
            let (t, f) = (when(true), when(false));
            let words = c.bits().words().iter().map(|&d| (d & t) | (!d & f));
            Bitmap::from_words(words.collect(), c.len())
        }
        (ColumnView::Cat(c), _) => {
            // One verdict per dictionary code, looked up per row.
            let verdict: Vec<bool> = c
                .pool()
                .iter()
                .map(|v| op.holds(v.total_cmp(literal)))
                .collect();
            fill(c.codes(), |code| verdict.get(code as usize) == Some(&true))
        }
        _ => {
            let present = match view {
                ColumnView::Float(_) => Value::Float(0.0),
                ColumnView::Int(_) => Value::Int(0),
                _ => Value::Bool(false),
            };
            constant(view.len(), op.holds(present.total_cmp(literal)))
        }
    };
    selection.and_not_assign(view.missing());
    selection
}

/// [`fill`] with the comparison `ord(cell)` tested against `op`, the
/// operator hoisted out of the row loop.
fn fill_cmp<T: Copy>(cells: &[T], op: CmpOp, ord: impl Fn(T) -> Ordering) -> Bitmap {
    match op {
        CmpOp::Lt => fill(cells, |c| ord(c).is_lt()),
        CmpOp::Le => fill(cells, |c| ord(c).is_le()),
        CmpOp::Gt => fill(cells, |c| ord(c).is_gt()),
        CmpOp::Ge => fill(cells, |c| ord(c).is_ge()),
        CmpOp::Eq => fill(cells, |c| ord(c).is_eq()),
        CmpOp::Ne => fill(cells, |c| ord(c).is_ne()),
    }
}

/// The bitmap with bit `i` set when `test(cells[i])`, built 64 rows per
/// word.
fn fill<T: Copy>(cells: &[T], test: impl Fn(T) -> bool) -> Bitmap {
    let words = cells.chunks(64).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0u64, |word, (j, &c)| word | (u64::from(test(c)) << j))
    });
    Bitmap::from_words(words.collect(), cells.len())
}

/// `len` bits, all set or all clear.
fn constant(len: usize, set: bool) -> Bitmap {
    Bitmap::from_words(vec![if set { !0 } else { 0 }; len.div_ceil(64)], len)
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
        assert_eq!(
            count.query_set.iter().collect::<Vec<_>>(),
            [patients::DATASET2_ISOLATED_ROW]
        );
        let avg = evaluate(
            &d,
            &parse("SELECT AVG(blood_pressure) FROM t WHERE height < 165 AND weight > 105")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(avg.value, Some(146.0));
        assert_eq!(
            avg.query_set.iter().collect::<Vec<_>>(),
            [patients::DATASET2_ISOLATED_ROW]
        );
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
        assert!(!e.query_set.contains(0));
        assert!(e.query_set.contains(1));
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
    fn query_set_len_counts_the_rows_it_iterates() {
        use tdf_microdata::synth::{patients as synth_patients, PatientConfig};
        use tdf_microdata::SegmentedDataset;
        let d = synth_patients(&PatientConfig {
            n: 131,
            ..Default::default()
        });
        let seg = SegmentedDataset::from_dataset(&d, 37);
        for sql in [
            "SELECT COUNT(*) FROM t",
            "SELECT COUNT(*) FROM t WHERE height < 170",
            "SELECT COUNT(*) FROM t WHERE NOT height < 170",
            "SELECT COUNT(*) FROM t WHERE height > 999",
        ] {
            let q = parse(sql).unwrap();
            for e in [
                evaluate(&d, &q).unwrap(),
                evaluate_segmented(&seg, &q).unwrap(),
            ] {
                let rows: Vec<usize> = e.query_set.iter().collect();
                assert_eq!(e.query_set.len(), rows.len(), "{sql}");
                assert_eq!(e.value, Some(rows.len() as f64), "{sql}");
                assert_eq!(e.query_set.is_empty(), rows.is_empty(), "{sql}");
                assert!(rows.iter().all(|&i| e.query_set.contains(i)), "{sql}");
                assert_eq!(e.query_set.bits().len(), 131, "one bit per table row");
                assert!(!e.query_set.contains(131));
            }
        }
    }

    #[test]
    fn an_empty_table_gives_an_empty_query_set() {
        use tdf_microdata::SegmentedDataset;
        let d = patients::dataset1();
        let empty = Dataset::new(d.schema().clone());
        let q = parse("SELECT COUNT(*) FROM t WHERE NOT height > 999").unwrap();
        for e in [
            evaluate(&empty, &q).unwrap(),
            evaluate_segmented(&SegmentedDataset::new(d.schema().clone()), &q).unwrap(),
        ] {
            assert!(e.query_set.is_empty());
            assert_eq!(e.query_set.len(), 0);
            assert_eq!(e.query_set.iter().count(), 0);
            assert!(e.query_set.bits().is_empty());
            assert_eq!(e.value, Some(0.0));
        }
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
