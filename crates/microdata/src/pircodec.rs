//! Fixed-size binary records for a PIR store (the §6 deployment's codec).
//!
//! Sits next to [`crate::segio`], the spill codec: where a segment image
//! carries whole columns, a PIR record carries one row, so a client can
//! retrieve it privately by index and decode it alone. Numeric cells are
//! big-endian `f64` bits (missing as NaN), booleans one byte (missing as
//! `0xFF`). Categorical strings have no fixed width and are rejected:
//! mask before loading, or recode categories to integers.
//!
//! A record too short for its schema is a typed [`Error::Serial`] naming
//! the byte offset where the missing cell starts, never a panic.

use crate::attribute::AttributeKind;
use crate::column::ColumnView;
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;

/// Serializes a dataset's rows into fixed-size PIR records, one per row.
pub fn encode_records(data: &Dataset) -> Result<Vec<Vec<u8>>> {
    // Per-column readers hoisted once; records are then serialized straight
    // from the typed column storage without materializing any `Value`.
    enum Reader<'a> {
        Bool(&'a crate::BoolCol),
        Num(crate::F64Cells<'a>),
        Cat(usize),
    }
    let readers: Vec<Reader> = (0..data.num_columns())
        .map(|c| match data.schema().attribute(c).kind {
            AttributeKind::Boolean => match data.col(c) {
                ColumnView::Bool(b) => Reader::Bool(b),
                _ => unreachable!("Boolean attributes use packed bool storage"),
            },
            AttributeKind::Continuous | AttributeKind::Integer => {
                Reader::Num(data.f64_cells(c).expect("numeric column"))
            }
            AttributeKind::Nominal | AttributeKind::Ordinal => Reader::Cat(c),
        })
        .collect();
    let mut out = Vec::with_capacity(data.num_rows());
    for i in 0..data.num_rows() {
        let mut rec = Vec::new();
        for reader in &readers {
            match reader {
                Reader::Bool(b) => rec.push(b.opt(i).map_or(0xFF, u8::from)),
                Reader::Num(cells) => {
                    let x = cells.get(i).unwrap_or(f64::NAN);
                    rec.extend_from_slice(&x.to_be_bytes());
                }
                Reader::Cat(c) => {
                    return Err(Error::InvalidParameter(format!(
                        "categorical attribute `{}` cannot be PIR-encoded",
                        data.schema().attribute(*c).name
                    )))
                }
            }
        }
        out.push(rec);
    }
    Ok(out)
}

/// Decodes one PIR record back into a row of `schema`-shaped values.
pub fn decode_record(schema: &Schema, rec: &[u8]) -> Result<Vec<Value>> {
    let mut row = Vec::with_capacity(schema.len());
    let mut pos = 0usize;
    for attr in schema.attributes() {
        let width = match attr.kind {
            AttributeKind::Boolean => 1,
            AttributeKind::Continuous | AttributeKind::Integer => 8,
            AttributeKind::Nominal | AttributeKind::Ordinal => {
                return Err(Error::InvalidParameter(format!(
                    "categorical attribute `{}` cannot be PIR-decoded",
                    attr.name
                )))
            }
        };
        let cell = rec.get(pos..pos + width).ok_or_else(|| {
            Error::Serial(format!(
                "PIR record truncated at byte {pos}: `{}` needs {width} bytes, {} remain",
                attr.name,
                rec.len().saturating_sub(pos)
            ))
        })?;
        row.push(match *cell {
            // A one-byte cell is a Boolean; any other byte is missing.
            [0] => Value::Bool(false),
            [1] => Value::Bool(true),
            [_] => Value::Missing,
            _ => {
                let x = f64::from_be_bytes(cell.try_into().expect("slice of length 8"));
                if x.is_nan() {
                    Value::Missing
                } else {
                    Value::Float(x)
                }
            }
        });
        pos += width;
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patients;

    #[test]
    fn encode_decode_round_trip() {
        let d = patients::dataset2();
        let recs = encode_records(&d).unwrap();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[0].len(), 8 * 3 + 1);
        for (i, rec) in recs.iter().enumerate() {
            let row = decode_record(d.schema(), rec).unwrap();
            assert_eq!(row, d.row(i), "row {i}");
        }
    }

    #[test]
    fn missing_cells_survive_encoding() {
        let mut d = patients::dataset1();
        d.set_value(0, 0, Value::Missing).unwrap();
        d.set_value(0, 3, Value::Missing).unwrap();
        let recs = encode_records(&d).unwrap();
        let row = decode_record(d.schema(), &recs[0]).unwrap();
        assert!(row[0].is_missing());
        assert!(row[3].is_missing());
    }

    #[test]
    fn categorical_data_is_rejected() {
        let d = crate::synth::census(5, 1);
        assert!(encode_records(&d).is_err());
    }

    #[test]
    fn truncated_records_are_typed_errors_naming_the_offset() {
        let d = patients::dataset2();
        for rec in encode_records(&d).unwrap() {
            // Three f64 cells, then the bool at byte 24: a prefix of `keep`
            // bytes runs out inside the cell starting at `keep / 8 * 8`.
            for keep in 0..rec.len() {
                let cell_start = keep / 8 * 8;
                match decode_record(d.schema(), &rec[..keep]) {
                    Err(Error::Serial(m)) => assert!(
                        m.contains(&format!("truncated at byte {cell_start}:")),
                        "prefix {keep}: {m}"
                    ),
                    other => panic!("prefix {keep}: expected Error::Serial, got {other:?}"),
                }
            }
        }
    }
}
