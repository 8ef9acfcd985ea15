//! Result tables: the common output format of every experiment runner,
//! printable as an aligned text table and writable as CSV.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// A named table of rows × numeric columns, mirroring one paper figure or
/// table.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Experiment identifier, e.g. `"fig3.10"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers (not counting the row-label column).
    pub columns: Vec<String>,
    /// Rows: label + one value per column (`NaN` renders as `-`).
    pub rows: Vec<(String, Vec<f64>)>,
}

impl ResultTable {
    /// Create an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ResultTable {
            id: id.into(),
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((label.into(), values));
    }

    /// Look up a cell by row label and column name.
    pub fn cell(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let (_, values) = self.rows.iter().find(|(l, _)| l == row)?;
        values.get(c).copied()
    }

    /// Mean of one column over all rows (ignoring NaN cells).
    pub fn column_mean(&self, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter_map(|(_, v)| v.get(c).copied())
            .filter(|v| v.is_finite())
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Write the table as CSV.
    ///
    /// Labels and headers are quoted per RFC 4180 when they contain a
    /// comma, double quote, or line break, so a benchmark label like
    /// `alu,dense` round-trips instead of corrupting the row. Plain
    /// fields are written verbatim — existing golden CSVs are unchanged.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "label")?;
        for c in &self.columns {
            write!(w, ",{}", csv_field(c))?;
        }
        writeln!(w)?;
        for (label, values) in &self.rows {
            write!(w, "{}", csv_field(label))?;
            for v in values {
                if v.is_finite() {
                    write!(w, ",{v}")?;
                } else {
                    write!(w, ",")?;
                }
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Save the table as `<dir>/<id>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (directory creation, file write).
    pub fn save_csv(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id.replace('.', "_")));
        let f = std::fs::File::create(&path)?;
        self.write_csv(io::BufWriter::new(f))?;
        Ok(path)
    }
}

/// Escape one CSV field per RFC 4180: wrap in double quotes (doubling any
/// embedded quote) iff the text contains a comma, quote, or line break;
/// return it borrowed and verbatim otherwise.
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([5])
            .max()
            .unwrap_or(5);
        let col_w: Vec<usize> = self.columns.iter().map(|c| c.len().max(9)).collect();
        write!(f, "{:label_w$}", "")?;
        for (c, w) in self.columns.iter().zip(&col_w) {
            write!(f, "  {c:>w$}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:label_w$}")?;
            for (v, w) in values.iter().zip(&col_w) {
                if v.is_finite() {
                    write!(f, "  {v:>w$.3}")?;
                } else {
                    write!(f, "  {:>w$}", "-")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultTable {
        let mut t = ResultTable::new("fig0.0", "Sample", ["a", "b"]);
        t.push_row("r1", vec![1.0, 2.0]);
        t.push_row("r2", vec![3.0, f64::NAN]);
        t
    }

    #[test]
    fn cell_lookup() {
        let t = sample();
        assert_eq!(t.cell("r1", "b"), Some(2.0));
        assert_eq!(t.cell("r9", "b"), None);
        assert_eq!(t.cell("r1", "z"), None);
    }

    #[test]
    fn column_mean_skips_nan() {
        let t = sample();
        assert_eq!(t.column_mean("a"), Some(2.0));
        assert_eq!(t.column_mean("b"), Some(2.0));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).expect("write to vec");
        let s = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "label,a,b");
        assert_eq!(lines[1], "r1,1,2");
        assert_eq!(lines[2], "r2,3,");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = sample();
        t.push_row("bad", vec![1.0]);
    }

    /// Split one RFC 4180 CSV record back into its fields — the consumer
    /// side of the quoting contract `write_csv` promises.
    fn parse_csv_record(line: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            let cur = fields.last_mut().expect("at least one field");
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if cur.is_empty() => quoted = true,
                ',' if !quoted => fields.push(String::new()),
                c => cur.push(c),
            }
        }
        fields
    }

    #[test]
    fn special_labels_and_headers_are_quoted() {
        let mut t = ResultTable::new("fig0.1", "Quoting", ["plain", "a,b", "say \"hi\""]);
        t.push_row("alu,dense", vec![1.0, 2.0, 3.0]);
        t.push_row("multi\nline", vec![4.0, 5.0, 6.0]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).expect("write to vec");
        let s = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "label,plain,\"a,b\",\"say \"\"hi\"\"\"");
        assert_eq!(lines[1], "\"alu,dense\",1,2,3");
        // Round-trip: a conforming CSV reader recovers the original texts.
        assert_eq!(
            parse_csv_record(lines[0]),
            vec!["label", "plain", "a,b", "say \"hi\""]
        );
        assert_eq!(parse_csv_record(lines[1]), vec!["alu,dense", "1", "2", "3"]);
    }

    #[test]
    fn plain_labels_stay_verbatim() {
        // Golden-CSV compatibility: quoting must not touch ordinary fields.
        let mut buf = Vec::new();
        sample().write_csv(&mut buf).expect("write to vec");
        let s = String::from_utf8(buf).expect("utf8");
        assert!(!s.contains('"'), "no quotes introduced: {s}");
    }

    #[test]
    fn display_renders() {
        let s = format!("{}", sample());
        assert!(s.contains("fig0.0"));
        assert!(s.contains("r1"));
    }
}
