//! dbgen-compatible `.tbl` interchange: pipe-delimited, one row per line,
//! trailing delimiter, dates as `YYYY-MM-DD`, decimals with two places.
//!
//! The original study populated its database with the TPC Council's `dbgen`;
//! this module lets the reproduction exchange populations with any tool that
//! speaks that format.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::schema::{tpcd_schema, ColType, TableDef, Value};
use crate::{Date, DbData};

/// Renders one table's rows in `.tbl` format.
pub fn to_tbl(def: &TableDef, rows: &[Vec<Value>]) -> String {
    // Fixed-width row payload plus delimiters bounds the text length from
    // above (variable-width strings render at most their declared width), so
    // one reservation covers the whole table.
    let mut out =
        String::with_capacity(rows.len() * (def.row_width() as usize + def.columns.len() + 4));
    for row in rows {
        for value in row {
            match value {
                Value::Int(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Dec(v) => {
                    let _ = write!(out, "{}.{:02}", v / 100, (v % 100).abs());
                }
                Value::Date(d) => {
                    let _ = write!(out, "{d}");
                }
                Value::Str(s) => out.push_str(s),
            }
            out.push('|');
        }
        out.push('\n');
    }
    out
}

/// Parses `.tbl` text back into rows matching `def`'s column types.
///
/// # Errors
///
/// Returns a descriptive error for arity mismatches or unparsable fields.
pub fn from_tbl(def: &TableDef, text: &str) -> Result<Vec<Vec<Value>>, TblError> {
    let mut rows = Vec::with_capacity(text.len() / (def.row_width() as usize / 2).max(1));
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut fields: Vec<&str> = line.split('|').collect();
        // dbgen writes a trailing delimiter, leaving one empty field.
        if fields.last() == Some(&"") {
            fields.pop();
        }
        if fields.len() != def.columns.len() {
            return Err(TblError::new(
                def.name,
                lineno + 1,
                format!(
                    "expected {} fields, found {}",
                    def.columns.len(),
                    fields.len()
                ),
            ));
        }
        let mut row = Vec::with_capacity(fields.len());
        for (field, col) in fields.iter().zip(&def.columns) {
            let value = parse_field(field, col.ty).map_err(|msg| {
                TblError::new(def.name, lineno + 1, format!("column {}: {msg}", col.name))
            })?;
            row.push(value);
        }
        rows.push(row);
    }
    Ok(rows)
}

fn parse_field(field: &str, ty: ColType) -> Result<Value, String> {
    match ty {
        ColType::Int => field
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("bad integer {field:?}")),
        ColType::Dec => {
            let (whole, frac) = match field.split_once('.') {
                Some((w, f)) => (w, f),
                None => (field, "0"),
            };
            let sign = if whole.starts_with('-') { -1 } else { 1 };
            let whole: i64 = whole
                .parse()
                .map_err(|_| format!("bad decimal {field:?}"))?;
            let mut frac = frac.to_owned();
            frac.truncate(2);
            while frac.len() < 2 {
                frac.push('0');
            }
            let frac: i64 = frac.parse().map_err(|_| format!("bad decimal {field:?}"))?;
            Ok(Value::Dec(whole * 100 + sign * frac))
        }
        ColType::Date => {
            let parts: Vec<&str> = field.split('-').collect();
            if parts.len() != 3 {
                return Err(format!("bad date {field:?}"));
            }
            let parse = |s: &str| s.parse::<i64>().map_err(|_| format!("bad date {field:?}"));
            let (y, m, d) = (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
            if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
                return Err(format!("bad date {field:?}"));
            }
            Ok(Value::Date(Date::from_ymd(y as i32, m as u32, d as u32)))
        }
        ColType::Str(_) => Ok(Value::Str(field.to_owned())),
    }
}

impl DbData {
    /// Writes all eight tables as `<dir>/<table>.tbl`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory is not writable.
    pub fn write_tbl(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for def in tpcd_schema() {
            let text = to_tbl(def, &self.rows(def.name));
            fs::write(dir.join(format!("{}.tbl", def.name)), text)?;
        }
        Ok(())
    }
}

/// A `.tbl` parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TblError {
    table: &'static str,
    line: usize,
    message: String,
}

impl TblError {
    fn new(table: &'static str, line: usize, message: String) -> Self {
        TblError {
            table,
            line,
            message,
        }
    }
}

impl std::fmt::Display for TblError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.tbl line {}: {}", self.table, self.line, self.message)
    }
}

impl std::error::Error for TblError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{table_def, Generator};

    #[test]
    fn every_table_roundtrips() {
        let db = Generator::new(0.001, 4).generate();
        for def in tpcd_schema() {
            let rows = db.rows(def.name);
            let text = to_tbl(def, &rows);
            let back = from_tbl(def, &text).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(back, rows, "roundtrip of {}", def.name);
        }
    }

    #[test]
    fn format_matches_dbgen_conventions() {
        let def = table_def("region").unwrap();
        let rows = vec![vec![
            Value::Int(0),
            Value::Str("AFRICA".into()),
            Value::Str("nice comment".into()),
        ]];
        assert_eq!(to_tbl(def, &rows), "0|AFRICA|nice comment|\n");
    }

    #[test]
    fn decimals_and_dates_render_canonically() {
        let def = table_def("orders").unwrap();
        let db = Generator::new(0.001, 4).generate();
        let text = to_tbl(def, &db.rows("orders"));
        let first = text.lines().next().unwrap();
        let fields: Vec<&str> = first.split('|').collect();
        // o_totalprice has two decimals; o_orderdate is ISO.
        assert!(fields[3].contains('.'));
        assert_eq!(fields[3].split('.').nth(1).unwrap().len(), 2);
        assert_eq!(fields[4].len(), 10);
        assert_eq!(fields[4].matches('-').count(), 2);
    }

    #[test]
    fn negative_decimals_roundtrip() {
        let def = table_def("supplier").unwrap();
        let row = vec![
            Value::Int(1),
            Value::Str("Supplier#1".into()),
            Value::Str("addr".into()),
            Value::Int(3),
            Value::Str("11-1".into()),
            Value::Dec(-507), // -5.07
            Value::Str("c".into()),
        ];
        let text = to_tbl(def, std::slice::from_ref(&row));
        assert!(text.contains("|-5.07|"));
        assert_eq!(from_tbl(def, &text).unwrap(), vec![row]);
    }

    #[test]
    fn arity_and_type_errors_are_reported_with_position() {
        let def = table_def("region").unwrap();
        let err = from_tbl(def, "0|AFRICA|\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = from_tbl(def, "zero|AFRICA|c|\n").unwrap_err();
        assert!(err.to_string().contains("r_regionkey"));
    }

    #[test]
    fn write_tbl_creates_all_files() {
        let dir = std::env::temp_dir().join(format!("dss_tbl_{}", std::process::id()));
        let db = Generator::new(0.001, 4).generate();
        db.write_tbl(&dir).expect("writable temp dir");
        for def in tpcd_schema() {
            let path = dir.join(format!("{}.tbl", def.name));
            let text = std::fs::read_to_string(&path).expect("file written");
            assert_eq!(text.lines().count() as u64, db.rows(def.name).len() as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
