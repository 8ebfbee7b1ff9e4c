//! A JSON value and its single-line writer — result files and the final
//! stdout line. Reading (`compare`, the tests) goes through the repo's
//! own `irs_bench::baseline` parser; the build is offline (no serde) and
//! nothing in the repo renders JSON trees, so only the writer lives here.

use std::fmt::Write as _;

/// A JSON value; objects keep insertion order so output is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a member (builder style; only meaningful on objects).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Sets or replaces a member of an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(members) = self {
            let value = value.into();
            match members.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => members.push((key.to_string(), value)),
            }
        }
    }

    /// Single-line rendering. `f64` uses Rust's shortest round-trip
    /// form, so a written value reads back bit-for-bit; non-finite
    /// numbers (which JSON cannot carry) become `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_bench::baseline::{parse, JsonValue};

    /// What the writer renders, the repo's reader reads back: every
    /// digit, every escape, members in order.
    #[test]
    fn round_trip_keeps_every_digit_and_order() {
        let doc = Json::obj()
            .with("correct", true)
            .with("attempted", 1000usize)
            .with(
                "metrics",
                Json::obj().with(
                    "query_p50_us",
                    Json::obj()
                        .with("value", 10.123456789012345)
                        .with("unit", "us"),
                ),
            )
            .with("notes", vec!["a \"quoted\"\nline", "tab\there"])
            .with("nothing", Json::Null);
        let text = doc.render();
        assert!(!text.contains('\n'), "result files are one line: {text}");
        let read = parse(&text).unwrap();
        let JsonValue::Obj(members) = &read else {
            panic!("not an object: {read:?}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "metrics", "notes", "nothing"]
        );
        assert_eq!(read.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(read.get("attempted").unwrap().as_usize(), Some(1000));
        let value = read.get("metrics").unwrap().get("query_p50_us").unwrap();
        assert_eq!(
            value.get("value").unwrap().as_f64(),
            Some(10.123456789012345)
        );
        assert_eq!(value.get("unit").unwrap().as_str(), Some("us"));
        assert_eq!(
            read.get("notes"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Str("a \"quoted\"\nline".to_string()),
                JsonValue::Str("tab\there".to_string()),
            ]))
        );
        assert_eq!(read.get("nothing"), Some(&JsonValue::Null));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
