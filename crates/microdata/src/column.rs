//! Typed columnar storage: one contiguous buffer per attribute.
//!
//! Every attribute of a [`crate::Dataset`] is stored in one of four column
//! layouts chosen from its [`crate::AttributeKind`]:
//!
//! * [`FloatCol`] — `Vec<f64>` plus a word-packed missing bitmap
//!   (continuous attributes, and integer attributes after a float write);
//! * [`IntCol`] — `Vec<i64>` plus missing bitmap (integer attributes);
//! * [`BoolCol`] — two packed bitmaps, data and missing (boolean attributes);
//! * [`CatCol`] — dictionary-encoded categoricals: an interned value pool
//!   plus `u32` codes per row (nominal / ordinal attributes).
//!
//! Missing cells are tracked in the bitmap; the payload slot of a missing
//! cell always holds a fixed filler (`0.0` / `0` / `false` / code `0`) so
//! gathers and appends stay branch-free.
//!
//! The enum [`ColumnView`] is the zero-copy read API handed out by
//! `Dataset::col`: kernels match on it once per column and then scan the
//! typed buffer directly instead of dispatching on `Value` per cell.

use crate::attribute::AttributeKind;
use crate::bitmap::Bitmap;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Filler stored in the payload slot of a missing cell.
const FLOAT_FILL: f64 = 0.0;
const INT_FILL: i64 = 0;

/// Continuous column: contiguous `f64` buffer + missing bitmap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloatCol {
    data: Vec<f64>,
    missing: Bitmap,
}

impl FloatCol {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw values; slots flagged missing hold `0.0`.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw values. Writing a slot does *not* clear its missing bit;
    /// use [`FloatCol::set`] for that.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The missing bitmap.
    pub fn missing(&self) -> &Bitmap {
        &self.missing
    }

    /// True when cell `i` is missing.
    pub fn is_missing(&self, i: usize) -> bool {
        self.missing.get(i)
    }

    /// Cell `i` as an `Option<f64>`.
    pub fn opt(&self, i: usize) -> Option<f64> {
        if self.missing.get(i) {
            None
        } else {
            Some(self.data[i])
        }
    }

    /// Appends a cell.
    pub fn push(&mut self, v: Option<f64>) {
        self.data.push(v.unwrap_or(FLOAT_FILL));
        self.missing.push(v.is_none());
    }

    /// Overwrites cell `i`.
    pub fn set(&mut self, i: usize, v: Option<f64>) {
        self.data[i] = v.unwrap_or(FLOAT_FILL);
        self.missing.set(i, v.is_none());
    }

    /// Rebuilds a column from its raw buffers (segment reload).
    pub fn from_parts(data: Vec<f64>, missing: Bitmap) -> Self {
        assert_eq!(data.len(), missing.len(), "missing bitmap length mismatch");
        Self { data, missing }
    }
}

/// Integer column: contiguous `i64` buffer + missing bitmap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntCol {
    data: Vec<i64>,
    missing: Bitmap,
}

impl IntCol {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw values; slots flagged missing hold `0`.
    pub fn values(&self) -> &[i64] {
        &self.data
    }

    /// The missing bitmap.
    pub fn missing(&self) -> &Bitmap {
        &self.missing
    }

    /// True when cell `i` is missing.
    pub fn is_missing(&self, i: usize) -> bool {
        self.missing.get(i)
    }

    /// Cell `i` as an `Option<i64>`.
    pub fn opt(&self, i: usize) -> Option<i64> {
        if self.missing.get(i) {
            None
        } else {
            Some(self.data[i])
        }
    }

    /// Appends a cell.
    pub fn push(&mut self, v: Option<i64>) {
        self.data.push(v.unwrap_or(INT_FILL));
        self.missing.push(v.is_none());
    }

    /// Overwrites cell `i`.
    pub fn set(&mut self, i: usize, v: Option<i64>) {
        self.data[i] = v.unwrap_or(INT_FILL);
        self.missing.set(i, v.is_none());
    }

    /// Rebuilds a column from its raw buffers (segment reload).
    pub fn from_parts(data: Vec<i64>, missing: Bitmap) -> Self {
        assert_eq!(data.len(), missing.len(), "missing bitmap length mismatch");
        Self { data, missing }
    }
}

/// Boolean column: packed data bits + missing bitmap (2 bits per row).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoolCol {
    data: Bitmap,
    missing: Bitmap,
}

impl BoolCol {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The packed data bits; slots flagged missing hold `false`.
    pub fn bits(&self) -> &Bitmap {
        &self.data
    }

    /// The missing bitmap.
    pub fn missing(&self) -> &Bitmap {
        &self.missing
    }

    /// True when cell `i` is missing.
    pub fn is_missing(&self, i: usize) -> bool {
        self.missing.get(i)
    }

    /// Cell `i` as an `Option<bool>`.
    pub fn opt(&self, i: usize) -> Option<bool> {
        if self.missing.get(i) {
            None
        } else {
            Some(self.data.get(i))
        }
    }

    /// Appends a cell.
    pub fn push(&mut self, v: Option<bool>) {
        self.data.push(v.unwrap_or(false));
        self.missing.push(v.is_none());
    }

    /// Overwrites cell `i`.
    pub fn set(&mut self, i: usize, v: Option<bool>) {
        self.data.set(i, v.unwrap_or(false));
        self.missing.set(i, v.is_none());
    }

    /// Rebuilds a column from its raw bitmaps (segment reload).
    pub fn from_parts(data: Bitmap, missing: Bitmap) -> Self {
        assert_eq!(data.len(), missing.len(), "missing bitmap length mismatch");
        Self { data, missing }
    }
}

/// Dictionary-encoded categorical column.
///
/// Distinct values (`Str` or coded `Int`) are interned once into `pool` in
/// first-seen order — codes are stable under push order — and each row
/// stores only a `u32` code. Equality tests in k-anonymity grouping and
/// attack comparators become integer compares; the heap `String` is touched
/// only when a cell is materialized back into a [`Value`].
#[derive(Debug, Clone, Default)]
pub struct CatCol {
    pool: Vec<Value>,
    index: HashMap<Value, u32>,
    codes: Vec<u32>,
    missing: Bitmap,
}

impl CatCol {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The per-row codes; slots flagged missing hold `0`.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The missing bitmap.
    pub fn missing(&self) -> &Bitmap {
        &self.missing
    }

    /// True when cell `i` is missing.
    pub fn is_missing(&self, i: usize) -> bool {
        self.missing.get(i)
    }

    /// The interned dictionary, in first-seen order.
    pub fn pool(&self) -> &[Value] {
        &self.pool
    }

    /// Number of distinct interned values.
    pub fn num_categories(&self) -> usize {
        self.pool.len()
    }

    /// The dictionary value behind `code`.
    pub fn decode(&self, code: u32) -> &Value {
        &self.pool[code as usize]
    }

    /// Cell `i`'s code, `None` when missing.
    pub fn code(&self, i: usize) -> Option<u32> {
        if self.missing.get(i) {
            None
        } else {
            Some(self.codes[i])
        }
    }

    /// Borrowed cell value, `None` when missing.
    pub fn value_ref(&self, i: usize) -> Option<&Value> {
        self.code(i).map(|c| self.decode(c))
    }

    /// The code `v` is interned under, if any (no insertion).
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        self.index.get(v).copied()
    }

    /// Interns `v`, returning its stable code.
    ///
    /// Panics on values a categorical attribute cannot hold (enforced
    /// upstream by `Schema::value_fits`).
    pub fn intern(&mut self, v: &Value) -> u32 {
        debug_assert!(
            matches!(v, Value::Str(_) | Value::Int(_)),
            "categorical columns hold Str or Int, got {}",
            v.type_name()
        );
        if let Some(&c) = self.index.get(v) {
            return c;
        }
        let c = u32::try_from(self.pool.len()).expect("dictionary overflow");
        self.pool.push(v.clone());
        self.index.insert(v.clone(), c);
        c
    }

    /// Appends a cell.
    pub fn push(&mut self, v: Option<&Value>) {
        match v {
            Some(v) => {
                let c = self.intern(v);
                self.codes.push(c);
                self.missing.push(false);
            }
            None => {
                self.codes.push(0);
                self.missing.push(true);
            }
        }
    }

    /// Overwrites cell `i` with an already-interned code.
    pub fn set_code(&mut self, i: usize, code: u32) {
        assert!((code as usize) < self.pool.len(), "unknown dictionary code");
        self.codes[i] = code;
        self.missing.set(i, false);
    }

    /// Overwrites cell `i`.
    pub fn set(&mut self, i: usize, v: Option<&Value>) {
        match v {
            Some(v) => {
                let c = self.intern(v);
                self.codes[i] = c;
                self.missing.set(i, false);
            }
            None => {
                self.codes[i] = 0;
                self.missing.set(i, true);
            }
        }
    }

    /// Rebuilds a column from its dictionary and raw code buffer (segment
    /// reload); the interning index is reconstructed from the pool.
    pub fn from_parts(pool: Vec<Value>, codes: Vec<u32>, missing: Bitmap) -> Self {
        assert_eq!(codes.len(), missing.len(), "missing bitmap length mismatch");
        assert!(
            codes.iter().all(|&c| (c as usize) < pool.len().max(1)),
            "code outside dictionary"
        );
        let index = pool
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Self {
            pool,
            index,
            codes,
            missing,
        }
    }
}

impl PartialEq for CatCol {
    /// Logical equality: same cells, regardless of dictionary order.
    fn eq(&self, other: &Self) -> bool {
        if self.codes.len() != other.codes.len() {
            return false;
        }
        // Remap our codes into the other dictionary once, then compare codes.
        let remap: Vec<Option<u32>> = self
            .pool
            .iter()
            .map(|v| other.index.get(v).copied())
            .collect();
        (0..self.codes.len()).all(|i| match (self.missing.get(i), other.missing.get(i)) {
            (true, true) => true,
            (false, false) => remap[self.codes[i] as usize] == Some(other.codes[i]),
            _ => false,
        })
    }
}

/// One stored column of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Continuous storage (also integer attributes after a float write).
    Float(FloatCol),
    /// Integer storage.
    Int(IntCol),
    /// Boolean storage.
    Bool(BoolCol),
    /// Dictionary-encoded categorical storage.
    Cat(CatCol),
}

impl Column {
    /// Empty column with the storage layout for `kind`.
    pub fn for_kind(kind: AttributeKind) -> Self {
        match kind {
            AttributeKind::Continuous => Column::Float(FloatCol::default()),
            AttributeKind::Integer => Column::Int(IntCol::default()),
            AttributeKind::Boolean => Column::Bool(BoolCol::default()),
            AttributeKind::Nominal | AttributeKind::Ordinal => Column::Cat(CatCol::default()),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Float(c) => c.len(),
            Column::Int(c) => c.len(),
            Column::Bool(c) => c.len(),
            Column::Cat(c) => c.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-only typed view.
    pub fn view(&self) -> ColumnView<'_> {
        match self {
            Column::Float(c) => ColumnView::Float(c),
            Column::Int(c) => ColumnView::Int(c),
            Column::Bool(c) => ColumnView::Bool(c),
            Column::Cat(c) => ColumnView::Cat(c),
        }
    }

    /// Converts integer storage to float storage in place (one O(n) pass).
    ///
    /// Integer attributes legally receive fractional `Float` cells from
    /// maskers (microaggregation and Mondrian write partition means); the
    /// first such write promotes the whole column. Promoted cells
    /// materialize as `Value::Float`, which compares `group_eq`-equal to
    /// the original `Int` representation.
    pub fn promote_to_float(&mut self) {
        if let Column::Int(c) = self {
            let data: Vec<f64> = c
                .values()
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    if c.is_missing(i) {
                        FLOAT_FILL
                    } else {
                        v as f64
                    }
                })
                .collect();
            *self = Column::Float(FloatCol {
                data,
                missing: c.missing.clone(),
            });
        }
    }

    /// Appends `v`, promoting integer storage when a `Float` arrives.
    ///
    /// The value must already satisfy `Schema::value_fits` for the owning
    /// attribute; violations panic.
    pub fn push(&mut self, v: &Value) {
        if matches!(self, Column::Int(_)) && matches!(v, Value::Float(_)) {
            self.promote_to_float();
        }
        match (self, v) {
            (Column::Float(c), Value::Missing) => c.push(None),
            (Column::Float(c), v) => c.push(Some(v.as_f64().expect("numeric cell"))),
            (Column::Int(c), Value::Missing) => c.push(None),
            (Column::Int(c), Value::Int(i)) => c.push(Some(*i)),
            (Column::Bool(c), Value::Missing) => c.push(None),
            (Column::Bool(c), Value::Bool(b)) => c.push(Some(*b)),
            (Column::Cat(c), Value::Missing) => c.push(None),
            (Column::Cat(c), v @ (Value::Str(_) | Value::Int(_))) => c.push(Some(v)),
            (col, v) => panic!(
                "value kind {} does not fit column layout {}",
                v.type_name(),
                col.layout_name()
            ),
        }
    }

    /// Overwrites cell `i`, promoting integer storage when a `Float` arrives.
    pub fn set(&mut self, i: usize, v: &Value) {
        if matches!(self, Column::Int(_)) && matches!(v, Value::Float(_)) {
            self.promote_to_float();
        }
        match (self, v) {
            (Column::Float(c), Value::Missing) => c.set(i, None),
            (Column::Float(c), v) => c.set(i, Some(v.as_f64().expect("numeric cell"))),
            (Column::Int(c), Value::Missing) => c.set(i, None),
            (Column::Int(c), Value::Int(x)) => c.set(i, Some(*x)),
            (Column::Bool(c), Value::Missing) => c.set(i, None),
            (Column::Bool(c), Value::Bool(b)) => c.set(i, Some(*b)),
            (Column::Cat(c), Value::Missing) => c.set(i, None),
            (Column::Cat(c), v @ (Value::Str(_) | Value::Int(_))) => c.set(i, Some(v)),
            (col, v) => panic!(
                "value kind {} does not fit column layout {}",
                v.type_name(),
                col.layout_name()
            ),
        }
    }

    /// Swaps cells `i` and `j` without changing representation.
    pub fn swap(&mut self, i: usize, j: usize) {
        match self {
            Column::Float(c) => {
                c.data.swap(i, j);
                let (a, b) = (c.missing.get(i), c.missing.get(j));
                c.missing.set(i, b);
                c.missing.set(j, a);
            }
            Column::Int(c) => {
                c.data.swap(i, j);
                let (a, b) = (c.missing.get(i), c.missing.get(j));
                c.missing.set(i, b);
                c.missing.set(j, a);
            }
            Column::Bool(c) => {
                let (a, b) = (c.data.get(i), c.data.get(j));
                c.data.set(i, b);
                c.data.set(j, a);
                let (a, b) = (c.missing.get(i), c.missing.get(j));
                c.missing.set(i, b);
                c.missing.set(j, a);
            }
            Column::Cat(c) => {
                c.codes.swap(i, j);
                let (a, b) = (c.missing.get(i), c.missing.get(j));
                c.missing.set(i, b);
                c.missing.set(j, a);
            }
        }
    }

    /// Materializes cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        self.view().get(i)
    }

    /// True when cell `i` is missing.
    pub fn is_missing(&self, i: usize) -> bool {
        match self {
            Column::Float(c) => c.is_missing(i),
            Column::Int(c) => c.is_missing(i),
            Column::Bool(c) => c.is_missing(i),
            Column::Cat(c) => c.is_missing(i),
        }
    }

    /// New column holding cells `idx` in order (row gather).
    pub fn gather(&self, idx: &[usize]) -> Column {
        match self {
            Column::Float(c) => {
                let mut out = FloatCol::default();
                for &i in idx {
                    out.push(c.opt(i));
                }
                Column::Float(out)
            }
            Column::Int(c) => {
                let mut out = IntCol::default();
                for &i in idx {
                    out.push(c.opt(i));
                }
                Column::Int(out)
            }
            Column::Bool(c) => {
                let mut out = BoolCol::default();
                for &i in idx {
                    out.push(c.opt(i));
                }
                Column::Bool(out)
            }
            Column::Cat(c) => {
                // Keep the dictionary (and thus code stability) intact;
                // only the per-row codes are gathered.
                let mut out = CatCol {
                    pool: c.pool.clone(),
                    index: c.index.clone(),
                    codes: Vec::with_capacity(idx.len()),
                    missing: Bitmap::new(),
                };
                for &i in idx {
                    out.codes.push(c.codes[i]);
                    out.missing.push(c.missing.get(i));
                }
                Column::Cat(out)
            }
        }
    }

    /// Appends every cell of `other` (vertical union). Categorical codes
    /// are remapped through this column's dictionary.
    pub fn append(&mut self, other: &Column) {
        // Mixed Int/Float storage for the same integer attribute can arise
        // when one side was promoted; promote ours first in that case.
        if matches!(self, Column::Int(_)) && matches!(other, Column::Float(_)) {
            self.promote_to_float();
        }
        match (self, other) {
            (Column::Float(a), Column::Float(b)) => {
                for i in 0..b.len() {
                    a.push(b.opt(i));
                }
            }
            (Column::Float(a), Column::Int(b)) => {
                for i in 0..b.len() {
                    a.push(b.opt(i).map(|v| v as f64));
                }
            }
            (Column::Int(a), Column::Int(b)) => {
                for i in 0..b.len() {
                    a.push(b.opt(i));
                }
            }
            (Column::Bool(a), Column::Bool(b)) => {
                for i in 0..b.len() {
                    a.push(b.opt(i));
                }
            }
            (Column::Cat(a), Column::Cat(b)) => {
                for i in 0..b.len() {
                    a.push(b.value_ref(i));
                }
            }
            (a, b) => panic!(
                "cannot append column layout {} onto {}",
                b.layout_name(),
                a.layout_name()
            ),
        }
    }

    /// Approximate heap bytes held by this column's buffers (payload +
    /// bitmaps + dictionary). Used by the segment cache to charge sealed
    /// segments against the `TDF_SEGCACHE` byte budget.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Float(c) => c.data.len() * 8 + c.missing.heap_bytes(),
            Column::Int(c) => c.data.len() * 8 + c.missing.heap_bytes(),
            Column::Bool(c) => c.data.heap_bytes() + c.missing.heap_bytes(),
            Column::Cat(c) => {
                let pool: usize = c
                    .pool
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => s.len() + 24,
                        _ => 16,
                    })
                    .sum();
                c.codes.len() * 4 + c.missing.heap_bytes() + pool
            }
        }
    }

    fn layout_name(&self) -> &'static str {
        match self {
            Column::Float(_) => "float",
            Column::Int(_) => "int",
            Column::Bool(_) => "bool",
            Column::Cat(_) => "cat",
        }
    }
}

/// Packed per-cell grouping key: payload bits plus a missing flag.
///
/// Within one column the mapping cell → key is injective w.r.t.
/// `Value::group_eq` (float cells key on `f64::to_bits`, whose equality is
/// exactly `f64::total_cmp` equality; categorical cells key on their
/// dictionary code, which interns by the same equality), so grouping on
/// packed keys produces the same partition as grouping on cloned `Value`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(u64, bool);

/// Zero-copy read-only view of one column.
#[derive(Debug, Clone, Copy)]
pub enum ColumnView<'a> {
    /// Continuous storage.
    Float(&'a FloatCol),
    /// Integer storage.
    Int(&'a IntCol),
    /// Boolean storage.
    Bool(&'a BoolCol),
    /// Dictionary-encoded categorical storage.
    Cat(&'a CatCol),
}

impl<'a> ColumnView<'a> {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnView::Float(c) => c.len(),
            ColumnView::Int(c) => c.len(),
            ColumnView::Bool(c) => c.len(),
            ColumnView::Cat(c) => c.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when cell `i` is missing.
    pub fn is_missing(&self, i: usize) -> bool {
        match self {
            ColumnView::Float(c) => c.is_missing(i),
            ColumnView::Int(c) => c.is_missing(i),
            ColumnView::Bool(c) => c.is_missing(i),
            ColumnView::Cat(c) => c.is_missing(i),
        }
    }

    /// The missing bitmap.
    pub fn missing(&self) -> &'a Bitmap {
        match *self {
            ColumnView::Float(c) => c.missing(),
            ColumnView::Int(c) => c.missing(),
            ColumnView::Bool(c) => c.missing(),
            ColumnView::Cat(c) => c.missing(),
        }
    }

    /// Materializes cell `i` into an owned [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnView::Float(c) => c.opt(i).map_or(Value::Missing, Value::Float),
            ColumnView::Int(c) => c.opt(i).map_or(Value::Missing, Value::Int),
            ColumnView::Bool(c) => c.opt(i).map_or(Value::Missing, Value::Bool),
            ColumnView::Cat(c) => c.value_ref(i).cloned().unwrap_or(Value::Missing),
        }
    }

    /// Numeric view of cell `i` (same semantics as `Value::as_f64`).
    pub fn f64(&self, i: usize) -> Option<f64> {
        match self {
            ColumnView::Float(c) => c.opt(i),
            ColumnView::Int(c) => c.opt(i).map(|v| v as f64),
            ColumnView::Bool(c) => c.opt(i).map(|b| if b { 1.0 } else { 0.0 }),
            ColumnView::Cat(c) => c.value_ref(i).and_then(Value::as_f64),
        }
    }

    /// Equality of cells `i` and `j` under `Value::group_eq`, without
    /// materializing either cell.
    pub fn group_eq(&self, i: usize, j: usize) -> bool {
        match self {
            ColumnView::Float(c) => match (c.opt(i), c.opt(j)) {
                (Some(a), Some(b)) => a.total_cmp(&b) == Ordering::Equal,
                (None, None) => true,
                _ => false,
            },
            ColumnView::Int(c) => c.opt(i) == c.opt(j),
            ColumnView::Bool(c) => c.opt(i) == c.opt(j),
            ColumnView::Cat(c) => c.code(i) == c.code(j),
        }
    }

    /// `Value::total_cmp` between cell `i` and `other`, without cloning.
    pub fn cmp_value(&self, i: usize, other: &Value) -> Ordering {
        match self {
            ColumnView::Float(c) => c
                .opt(i)
                .map_or(Value::Missing, Value::Float)
                .total_cmp(other),
            ColumnView::Int(c) => c.opt(i).map_or(Value::Missing, Value::Int).total_cmp(other),
            ColumnView::Bool(c) => c
                .opt(i)
                .map_or(Value::Missing, Value::Bool)
                .total_cmp(other),
            ColumnView::Cat(c) => match c.value_ref(i) {
                Some(v) => v.total_cmp(other),
                None => Value::Missing.total_cmp(other),
            },
        }
    }

    /// Packed grouping key for cell `i` (see [`CellKey`]).
    pub fn key(&self, i: usize) -> CellKey {
        match self {
            ColumnView::Float(c) => match c.opt(i) {
                Some(x) => CellKey(x.to_bits(), false),
                None => CellKey(0, true),
            },
            ColumnView::Int(c) => match c.opt(i) {
                Some(x) => CellKey(x as u64, false),
                None => CellKey(0, true),
            },
            ColumnView::Bool(c) => match c.opt(i) {
                Some(b) => CellKey(b as u64, false),
                None => CellKey(0, true),
            },
            ColumnView::Cat(c) => match c.code(i) {
                Some(code) => CellKey(code as u64, false),
                None => CellKey(0, true),
            },
        }
    }

    /// The underlying float column, when float-backed.
    pub fn as_float(&self) -> Option<&'a FloatCol> {
        match self {
            ColumnView::Float(c) => Some(c),
            _ => None,
        }
    }

    /// The underlying categorical column, when dictionary-encoded.
    pub fn as_cat(&self) -> Option<&'a CatCol> {
        match self {
            ColumnView::Cat(c) => Some(c),
            _ => None,
        }
    }

    /// Contiguous `f64` image of a numeric (or boolean) column.
    ///
    /// Zero-copy for float-backed columns, one conversion pass for
    /// integer / boolean storage, `None` for categorical columns (whose
    /// `Int` members still answer through [`ColumnView::f64`]).
    pub fn f64_cells(&self) -> Option<F64Cells<'a>> {
        match self {
            ColumnView::Float(c) => Some(F64Cells {
                vals: Cow::Borrowed(c.values()),
                missing: c.missing(),
            }),
            ColumnView::Int(c) => Some(F64Cells {
                vals: Cow::Owned(c.values().iter().map(|&v| v as f64).collect()),
                missing: c.missing(),
            }),
            ColumnView::Bool(c) => Some(F64Cells {
                vals: Cow::Owned(
                    (0..c.len())
                        .map(|i| if c.bits().get(i) { 1.0 } else { 0.0 })
                        .collect(),
                ),
                missing: c.missing(),
            }),
            ColumnView::Cat(_) => None,
        }
    }
}

/// Contiguous `f64` image of a column: `vals[i]` is meaningful iff
/// `!missing.get(i)` (missing slots hold `0.0`).
pub struct F64Cells<'a> {
    /// The per-row values (borrowed straight from float storage).
    pub vals: Cow<'a, [f64]>,
    /// The missing bitmap.
    pub missing: &'a Bitmap,
}

impl F64Cells<'_> {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Cell `i` as an `Option<f64>`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        if self.missing.get(i) {
            None
        } else {
            Some(self.vals[i])
        }
    }

    /// True when no cell is missing (enables branch-free scans).
    #[inline]
    pub fn all_present(&self) -> bool {
        self.missing.none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cat_codes_are_stable_under_push_order() {
        let mut c = CatCol::default();
        for v in ["b", "a", "b", "c", "a"] {
            c.push(Some(&Value::Str(v.into())));
        }
        assert_eq!(c.codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(c.pool().len(), 3);
        assert_eq!(c.decode(0), &Value::Str("b".into()));
        assert_eq!(c.decode(2), &Value::Str("c".into()));
    }

    #[test]
    fn cat_interning_dedups_and_mixes_int_str() {
        let mut c = CatCol::default();
        let a = c.intern(&Value::Str("3".into()));
        let b = c.intern(&Value::Int(3));
        let a2 = c.intern(&Value::Str("3".into()));
        assert_eq!(a, a2);
        assert_ne!(a, b, "Str(\"3\") and Int(3) are distinct categories");
        assert_eq!(c.num_categories(), 2);
    }

    #[test]
    fn missing_bitmap_at_word_boundaries() {
        for n in [63usize, 64, 65] {
            let mut c = CatCol::default();
            for i in 0..n {
                if i == n - 1 {
                    c.push(None);
                } else {
                    c.push(Some(&Value::Str(format!("v{}", i % 5))));
                }
            }
            assert_eq!(c.len(), n);
            assert!(c.is_missing(n - 1), "n = {n}");
            assert_eq!(c.missing().count_ones(), 1, "n = {n}");
            assert_eq!(c.value_ref(n - 1), None);
            assert_eq!(c.get_value(0), Value::Str("v0".into()));
        }
    }

    #[test]
    fn int_column_promotes_on_float_write() {
        let mut col = Column::for_kind(AttributeKind::Integer);
        col.push(&Value::Int(30));
        col.push(&Value::Missing);
        col.push(&Value::Int(41));
        col.set(2, &Value::Float(35.5));
        assert!(matches!(col, Column::Float(_)));
        assert_eq!(col.get(0), Value::Float(30.0));
        assert_eq!(
            col.get(0),
            Value::Int(30),
            "group_eq across representations"
        );
        assert!(col.get(1).is_missing());
        assert_eq!(col.get(2), Value::Float(35.5));
    }

    #[test]
    fn cat_logical_eq_ignores_dictionary_order() {
        let mut a = CatCol::default();
        let mut b = CatCol::default();
        a.intern(&Value::Str("zzz".into())); // extra unused category
        for v in ["x", "y"] {
            a.push(Some(&Value::Str(v.into())));
        }
        for v in ["y", "x"] {
            b.push(Some(&Value::Str(v.into())));
        }
        b.swap_rows_for_test();
        assert_eq!(a, b);
    }

    impl CatCol {
        fn get_value(&self, i: usize) -> Value {
            self.value_ref(i).cloned().unwrap_or(Value::Missing)
        }
        fn swap_rows_for_test(&mut self) {
            self.codes.swap(0, 1);
        }
    }
}
