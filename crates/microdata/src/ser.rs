//! Hand-rolled, self-describing dataset serialisation (TSV).
//!
//! The workspace is hermetic — `serde` is banned along with every other
//! registry dependency — so the one text interchange format the toolkit
//! needs is implemented directly here: a `#schema` header line
//! (`name:kind:role` per column), a column-name line, then one escaped
//! record per line. `\N` encodes a missing cell (the classic dump
//! convention), and tab / newline / backslash are escaped so arbitrary
//! strings survive. (The binary codecs are [`crate::segio`] for sealed
//! segments and [`crate::pircodec`] for PIR records.)
//!
//! Parsing validates against the embedded schema, so a parsed dataset is
//! as well-formed as one built through [`Dataset::push_row`].

use crate::attribute::{AttributeDef, AttributeKind, AttributeRole};
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;

// ---------------------------------------------------------------------------
// Schema tag tables
// ---------------------------------------------------------------------------

fn kind_tag(kind: AttributeKind) -> &'static str {
    match kind {
        AttributeKind::Continuous => "continuous",
        AttributeKind::Integer => "integer",
        AttributeKind::Nominal => "nominal",
        AttributeKind::Ordinal => "ordinal",
        AttributeKind::Boolean => "boolean",
    }
}

fn kind_from_tag(tag: &str) -> Result<AttributeKind> {
    Ok(match tag {
        "continuous" => AttributeKind::Continuous,
        "integer" => AttributeKind::Integer,
        "nominal" => AttributeKind::Nominal,
        "ordinal" => AttributeKind::Ordinal,
        "boolean" => AttributeKind::Boolean,
        other => return Err(Error::Serial(format!("unknown attribute kind `{other}`"))),
    })
}

fn role_tag(role: AttributeRole) -> &'static str {
    match role {
        AttributeRole::Identifier => "identifier",
        AttributeRole::QuasiIdentifier => "quasi_identifier",
        AttributeRole::Confidential => "confidential",
        AttributeRole::NonConfidential => "non_confidential",
    }
}

fn role_from_tag(tag: &str) -> Result<AttributeRole> {
    Ok(match tag {
        "identifier" => AttributeRole::Identifier,
        "quasi_identifier" => AttributeRole::QuasiIdentifier,
        "confidential" => AttributeRole::Confidential,
        "non_confidential" => AttributeRole::NonConfidential,
        other => return Err(Error::Serial(format!("unknown attribute role `{other}`"))),
    })
}

// ---------------------------------------------------------------------------
// TSV
// ---------------------------------------------------------------------------

/// Missing-cell marker (the classic database dump convention).
const TSV_MISSING: &str = "\\N";

fn tsv_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Unescapes one TSV cell. `Err` carries the message only — callers wrap
/// it in [`Error::Tsv`] with the line it came from.
fn tsv_unescape(s: &str) -> std::result::Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("bad escape `\\{other}`")),
            None => return Err("truncated escape at end of cell".into()),
        }
    }
    Ok(out)
}

/// Serialises a dataset to TSV with an embedded `#schema` line.
pub fn dataset_to_tsv(data: &Dataset) -> String {
    let mut out = String::from("#schema\t");
    let schema_cells: Vec<String> = data
        .schema()
        .attributes()
        .iter()
        .map(|a| {
            format!(
                "{}:{}:{}",
                tsv_escape(&a.name),
                kind_tag(a.kind),
                role_tag(a.role)
            )
        })
        .collect();
    out.push_str(&schema_cells.join("\t"));
    out.push('\n');
    let names: Vec<String> = data
        .schema()
        .attributes()
        .iter()
        .map(|a| tsv_escape(&a.name))
        .collect();
    out.push_str(&names.join("\t"));
    out.push('\n');
    for row in data.rows() {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Missing => TSV_MISSING.to_owned(),
                Value::Str(s) => tsv_escape(s),
                Value::Float(x) if x.is_finite() => format!("{x:?}"),
                other => other.to_string(),
            })
            .collect();
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    out
}

/// Parses one data cell. `Err` carries the message only — the caller
/// attaches the line number.
fn tsv_cell_to_value(cell: &str, kind: AttributeKind) -> std::result::Result<Value, String> {
    if cell == TSV_MISSING {
        return Ok(Value::Missing);
    }
    Ok(match kind {
        AttributeKind::Continuous => Value::Float(
            cell.parse::<f64>()
                .map_err(|_| format!("bad float `{cell}`"))?,
        ),
        AttributeKind::Integer => Value::Int(
            cell.parse::<i64>()
                .map_err(|_| format!("bad int `{cell}`"))?,
        ),
        AttributeKind::Boolean => match cell {
            "Y" => Value::Bool(true),
            "N" => Value::Bool(false),
            other => return Err(format!("bad bool `{other}` (want Y/N)")),
        },
        AttributeKind::Nominal | AttributeKind::Ordinal => Value::Str(tsv_unescape(cell)?),
    })
}

/// Parses a dataset from the TSV produced by [`dataset_to_tsv`].
///
/// Every failure is a typed [`Error::Tsv`] naming the offending 1-based
/// line (line 1 is the `#schema` line, line 2 the header, data from
/// line 3) — adversarial or truncated input never panics.
pub fn dataset_from_tsv(text: &str) -> Result<Dataset> {
    let tsv_err = |line: usize, message: String| Error::Tsv { line, message };
    let mut lines = text.lines();
    let schema_line = lines
        .next()
        .ok_or_else(|| tsv_err(1, "empty TSV input".into()))?;
    let mut schema_cells = schema_line.split('\t');
    if schema_cells.next() != Some("#schema") {
        return Err(tsv_err(1, "TSV must start with a #schema line".into()));
    }
    let mut attrs = Vec::new();
    for cell in schema_cells {
        let mut parts = cell.rsplitn(3, ':');
        let bad_cell = || tsv_err(1, format!("bad schema cell `{cell}` (want name:kind:role)"));
        let role = parts.next().ok_or_else(bad_cell)?;
        let kind = parts.next().ok_or_else(bad_cell)?;
        let name = parts.next().ok_or_else(bad_cell)?;
        attrs.push(AttributeDef::new(
            tsv_unescape(name).map_err(|m| tsv_err(1, m))?,
            kind_from_tag(kind).map_err(|e| tsv_err(1, e.to_string()))?,
            role_from_tag(role).map_err(|e| tsv_err(1, e.to_string()))?,
        ));
    }
    let schema = Schema::new(attrs).map_err(|e| tsv_err(1, e.to_string()))?;
    let header = lines
        .next()
        .ok_or_else(|| tsv_err(2, "truncated input: TSV needs a header line".into()))?;
    let expected: Vec<String> = schema
        .attributes()
        .iter()
        .map(|a| tsv_escape(&a.name))
        .collect();
    if header.split('\t').map(str::to_owned).collect::<Vec<_>>() != expected {
        return Err(tsv_err(2, "TSV header does not match schema".into()));
    }
    let mut data = Dataset::new(schema);
    for (lineno, line) in lines.enumerate() {
        let line_1based = lineno + 3; // schema + header precede the data
        if line.is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != data.schema().len() {
            return Err(tsv_err(
                line_1based,
                format!(
                    "expected {} cells, found {}",
                    data.schema().len(),
                    cells.len()
                ),
            ));
        }
        let row: Vec<Value> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                tsv_cell_to_value(c, data.schema().attribute(i).kind).map_err(|m| {
                    tsv_err(
                        line_1based,
                        format!("column `{}`: {m}", data.schema().attribute(i).name),
                    )
                })
            })
            .collect::<Result<_>>()?;
        data.push_row(row)
            .map_err(|e| tsv_err(line_1based, e.to_string()))?;
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{census, patients, PatientConfig};

    #[test]
    fn tsv_round_trips_patients_and_census() {
        for d in [
            patients(&PatientConfig {
                n: 25,
                ..Default::default()
            }),
            census(25, 9),
        ] {
            let text = dataset_to_tsv(&d);
            let back = dataset_from_tsv(&text).unwrap();
            assert_eq!(d, back);
        }
    }

    #[test]
    fn tsv_escapes_awkward_strings_and_missing() {
        let schema = Schema::new(vec![AttributeDef::new(
            "note",
            AttributeKind::Nominal,
            AttributeRole::NonConfidential,
        )])
        .unwrap();
        let mut d = Dataset::new(schema);
        d.push_row(vec![Value::Str("a\tb\\c\nd".into())]).unwrap();
        d.push_row(vec![Value::Missing]).unwrap();
        d.push_row(vec![Value::Str("\\N".into())]).unwrap();
        let text = dataset_to_tsv(&d);
        let back = dataset_from_tsv(&text).unwrap();
        assert_eq!(back.value(0, 0), Value::Str("a\tb\\c\nd".into()));
        assert!(back.value(1, 0).is_missing());
        // The literal string `\N` is escaped, so it is not read back as
        // the missing-cell marker.
        assert_eq!(back.value(2, 0), Value::Str("\\N".into()));
    }

    #[test]
    fn tsv_round_trips_awkward_cells() {
        let schema = Schema::new(vec![
            AttributeDef::new(
                "note",
                AttributeKind::Nominal,
                AttributeRole::NonConfidential,
            ),
            AttributeDef::new("x", AttributeKind::Continuous, AttributeRole::Confidential),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        d.push_row(vec![
            Value::Str("tab\t\"quote\"\nline".into()),
            Value::Float(f64::NAN),
        ])
        .unwrap();
        d.push_row(vec![Value::Missing, Value::Float(f64::NEG_INFINITY)])
            .unwrap();
        d.push_row(vec![Value::Str("\\N".into()), Value::Float(-0.0)])
            .unwrap();
        // Dataset equality compares float cells bit for bit, so this also
        // pins the NaN payload and the sign of the zero.
        let back = dataset_from_tsv(&dataset_to_tsv(&d)).unwrap();
        assert_eq!(d, back);
        assert_eq!(back.value(2, 0), Value::Str("\\N".into()));
    }

    #[test]
    fn tsv_rejects_bad_input_with_line_numbers() {
        let line_of = |text: &str| match dataset_from_tsv(text).unwrap_err() {
            Error::Tsv { line, .. } => line,
            other => panic!("expected Error::Tsv, got {other:?}"),
        };
        assert_eq!(line_of(""), 1);
        assert_eq!(line_of("no schema line\nx\n"), 1);
        assert_eq!(line_of("#schema\ta:integer:confidential"), 2, "truncated");
        assert_eq!(line_of("#schema\ta:integer:confidential\nwrong\n1\n"), 2);
        let bad_cell = "#schema\ta:integer:confidential\na\n7\nnot_an_int\n";
        let err = dataset_from_tsv(bad_cell).unwrap_err();
        assert_eq!(
            err,
            Error::Tsv {
                line: 4,
                message: "column `a`: bad int `not_an_int`".into()
            }
        );
        assert!(err.to_string().contains("line 4"), "{err}");
    }
}
