//! The CSV interval format `irs-cli` speaks: one `lo,hi[,weight]`
//! triple per line.
//!
//! One module for every `irs-cli` command (generate/query/snapshot/
//! serve), so a file written by one command always loads in the others.
//! Header lines (starting with a letter) are only recognized *before*
//! the first data line; a malformed line in the data body is an error
//! naming the line, never silently skipped. Weights must be positive
//! and finite — the loader rejects them with a `file:line` message
//! rather than letting an index builder abort on an unnamed row.

use irs_core::{Interval, Interval64};
use std::io::BufRead;
use std::path::Path;

/// Parses `lo,hi[,weight]` lines from any reader; `path` is used only in
/// error messages. Missing weights default to `1.0`.
pub fn parse_csv(reader: impl BufRead, path: &str) -> Result<(Vec<Interval64>, Vec<f64>), String> {
    let mut data = Vec::new();
    let mut weights = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("{path}:{}: {what}", lineno + 1);
        if line.starts_with(|c: char| c.is_alphabetic()) {
            if data.is_empty() {
                continue; // header
            }
            return Err(err(
                "malformed data line (non-numeric; headers may only open the file)",
            ));
        }
        let mut parts = line.split(',');
        let lo: i64 = parts
            .next()
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| err("bad lo"))?;
        let hi: i64 = parts
            .next()
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| err("bad hi"))?;
        if lo > hi {
            return Err(err("lo > hi"));
        }
        let w: f64 = match parts.next() {
            Some(v) => v.trim().parse().map_err(|_| err("bad weight"))?,
            None => 1.0,
        };
        // Catch these here with a file:line error; the index builders
        // only assert, which would abort without naming the bad row.
        if !(w.is_finite() && w > 0.0) {
            return Err(err("bad weight (must be positive and finite)"));
        }
        data.push(Interval::new(lo, hi));
        weights.push(w);
    }
    if data.is_empty() {
        return Err(format!("{path}: no intervals"));
    }
    Ok((data, weights))
}

/// Opens and parses a CSV interval file.
pub fn load_csv(path: impl AsRef<Path>) -> Result<(Vec<Interval64>, Vec<f64>), String> {
    let path = path.as_ref();
    let shown = path.display().to_string();
    let file = std::fs::File::open(path).map_err(|e| format!("{shown}: {e}"))?;
    parse_csv(std::io::BufReader::new(file), &shown)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<(Vec<Interval64>, Vec<f64>), String> {
        parse_csv(text.as_bytes(), "test.csv")
    }

    #[test]
    fn plain_rows_parse_with_default_weight() {
        let (data, weights) = parse("1,5\n2,8,3.5\n").unwrap();
        assert_eq!(data, vec![Interval::new(1, 5), Interval::new(2, 8)]);
        assert_eq!(weights, vec![1.0, 3.5]);
    }

    #[test]
    fn leading_header_and_blank_lines_are_skipped() {
        let (data, _) = parse("lo,hi,weight\n\n10,20\n30,40\n").unwrap();
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn malformed_line_mid_file_errors_with_line_number() {
        // A mid-file alphabetic line must not be skipped as a "header".
        let err = parse("1,5\nnot,a,row\n2,8\n").unwrap_err();
        assert!(
            err.contains("test.csv:2"),
            "error must name the line: {err}"
        );
        assert!(err.contains("malformed"), "{err}");
    }

    #[test]
    fn numeric_garbage_errors_with_line_number() {
        let err = parse("1,5\n3,\n").unwrap_err();
        assert!(err.contains("test.csv:2"), "{err}");
        let err = parse("1,5\n4,2\n").unwrap_err();
        assert!(err.contains("lo > hi"), "{err}");
        let err = parse("1,5\n4,9,heavy\n").unwrap_err();
        assert!(err.contains("bad weight"), "{err}");
    }

    #[test]
    fn non_positive_or_non_finite_weights_error_with_line_number() {
        // These parse as f64 but would abort deep inside the index
        // builders; the loader must reject them with file:line instead.
        for bad in ["-3", "0", "NaN", "inf"] {
            let err = parse(&format!("1,5,2\n2,8,{bad}\n")).unwrap_err();
            assert!(err.contains("test.csv:2"), "`{bad}`: {err}");
            assert!(err.contains("bad weight"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse("").unwrap_err().contains("no intervals"));
        assert!(parse("lo,hi\n").unwrap_err().contains("no intervals"));
    }
}
