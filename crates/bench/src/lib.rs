//! Shared harness for `repro` (`src/bin/repro.rs`), which regenerates
//! every table and figure of the paper's §V, plus extension experiments,
//! on the calibrated synthetic datasets (see DESIGN.md's substitution
//! notes). Scale knobs come from the environment, so one runner serves
//! quick smoke runs and full paper-scale runs:
//!
//! - `IRS_BENCH_SCALE`   — intervals per dataset (default 200,000; at
//!   least 5, so every size sweep point and update batch is non-empty)
//! - `IRS_BENCH_QUERIES` — queries per measurement (default 1,000, as in
//!   the paper; at least 1)
//! - `IRS_BENCH_S`       — sample size (default 1,000, as in the paper;
//!   at least 1)
//! - `IRS_BENCH_SEED`    — RNG seed (default 42)
//!
//! A value that does not parse, or is below its minimum, is an error.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use irs_core::{Interval64, PreparedSampler, RangeCount};
use irs_datagen::{DatasetProfile, QueryWorkload};
use rand::{rngs::SmallRng, SeedableRng};
use std::time::{Duration, Instant};

pub mod baseline;

/// Knobs shared by every experiment.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Intervals per dataset.
    pub scale: usize,
    /// Queries per measurement.
    pub queries: usize,
    /// Samples per query.
    pub s: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl BenchConfig {
    /// Reads the configuration from the environment (defaults and
    /// minimums above); the error names the offending variable.
    pub fn from_env() -> Result<Self, String> {
        let knob = |key: &str, default: u64, min: u64| {
            let raw = std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
            parse_knob(key, raw.as_deref(), default, min)
        };
        Ok(BenchConfig {
            scale: knob("IRS_BENCH_SCALE", 200_000, 5)? as usize,
            queries: knob("IRS_BENCH_QUERIES", 1_000, 1)? as usize,
            s: knob("IRS_BENCH_S", 1_000, 1)? as usize,
            seed: knob("IRS_BENCH_SEED", 42, 0)?,
        })
    }

    /// Banner line describing the run, printed by every experiment.
    pub fn banner(&self, what: &str) -> String {
        format!(
            "## {what}\n(n = {} per dataset, {} queries, s = {}, seed = {})",
            self.scale, self.queries, self.s, self.seed
        )
    }
}

/// Parses one knob: `None` (unset) gives `default`; anything that is
/// not an integer of at least `min` is an error naming `key`.
pub fn parse_knob(key: &str, raw: Option<&str>, default: u64, min: u64) -> Result<u64, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    match raw.trim().parse::<u64>() {
        Ok(v) if v >= min => Ok(v),
        _ => Err(format!("{key} must be an integer >= {min}, got `{raw}`")),
    }
}

/// One generated dataset plus its profile metadata.
pub struct Dataset {
    /// The published statistics this dataset was calibrated against.
    pub profile: DatasetProfile,
    /// The generated intervals.
    pub data: Vec<Interval64>,
}

impl Dataset {
    /// Name column used in the tables.
    pub fn name(&self) -> &'static str {
        self.profile.name
    }

    /// The paper's query workload over this dataset's domain.
    pub fn queries(&self, cfg: &BenchConfig, extent_pct: f64) -> Vec<Interval64> {
        QueryWorkload::new((0, self.profile.domain_size)).generate(
            cfg.queries,
            extent_pct,
            cfg.seed ^ 0x51ED_BEEF,
        )
    }
}

/// Generates the four calibrated datasets at `cfg.scale`.
pub fn datasets(cfg: &BenchConfig) -> Vec<Dataset> {
    irs_datagen::profiles::ALL_PROFILES
        .iter()
        .map(|&profile| Dataset {
            profile,
            data: profile.generate(cfg.scale, cfg.seed),
        })
        .collect()
}

/// Wall-clock one closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

/// Mean microseconds over `queries` of the time `timed` reports for each
/// (it times only its own phase of the work).
fn mean_micros(queries: &[Interval64], timed: impl FnMut(Interval64) -> Duration) -> f64 {
    let total: Duration = queries.iter().copied().map(timed).sum();
    total.as_secs_f64() * 1e6 / queries.len() as f64
}

/// Average microseconds per query of the *candidate computation* phase
/// (phase 1 of the paper's cost split, Table V). `prepare` is an index's
/// `prepare` or `prepare_weighted`.
pub fn avg_candidate_micros<P>(queries: &[Interval64], prepare: impl Fn(Interval64) -> P) -> f64
where
    P: PreparedSampler,
{
    mean_micros(queries, |q| {
        let (dt, prepared) = time(|| prepare(q));
        std::hint::black_box(prepared.candidate_count());
        dt
    })
}

/// Average microseconds per query of the *sampling* phase (phase 2 —
/// alias building included, Tables VI and IX).
pub fn avg_sampling_micros<P: PreparedSampler>(
    queries: &[Interval64],
    s: usize,
    seed: u64,
    prepare: impl Fn(Interval64) -> P,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(s);
    mean_micros(queries, |q| {
        let prepared = prepare(q);
        let (dt, _) = time(|| {
            out.clear();
            prepared.sample_into(&mut rng, s, &mut out);
        });
        std::hint::black_box(out.len());
        dt
    })
}

/// Average end-to-end microseconds per query (candidate + sampling), the
/// "running time" of Figs. 6-10.
pub fn avg_total_micros<P: PreparedSampler>(
    queries: &[Interval64],
    s: usize,
    seed: u64,
    prepare: impl Fn(Interval64) -> P,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(s);
    mean_micros(queries, |q| {
        let (dt, _) = time(|| {
            out.clear();
            prepare(q).sample_into(&mut rng, s, &mut out);
        });
        std::hint::black_box(out.len());
        dt
    })
}

/// Average microseconds per range-counting query (Table X).
pub fn avg_count_micros<C: RangeCount<i64>>(index: &C, queries: &[Interval64]) -> f64 {
    mean_micros(queries, |q| {
        let (dt, count) = time(|| index.range_count(q));
        std::hint::black_box(count);
        dt
    })
}

/// One machine-readable result row, emitted as a single JSON object per
/// line (JSONL) so experiment output can be collected with `grep '^{'`
/// and post-processed without parsing the human tables.
///
/// Hand-rolled because the offline build environment has no serde; field
/// order follows insertion order, strings are minimally escaped.
///
/// ```
/// irs_bench::JsonRow::new("demo").str("dataset", "taxi").int("n", 10).num("us", 1.5).emit();
/// ```
pub struct JsonRow {
    buf: String,
}

impl JsonRow {
    /// Starts a row tagged `{"experiment": name, …}`.
    pub fn new(experiment: &str) -> Self {
        let mut row = JsonRow {
            buf: String::from("{"),
        };
        row.push_key("experiment");
        row.push_str_value(experiment);
        row
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.buf.push(',');
        self.push_key(key);
        self.push_str_value(value);
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: usize) -> Self {
        self.buf.push(',');
        self.push_key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (emitted with enough digits to round-trip the
    /// magnitudes the benches produce; non-finite values become `null`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.buf.push(',');
        self.push_key(key);
        if value.is_finite() {
            self.buf.push_str(&format!("{value:.6}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Finishes the row and returns it (for tests or custom sinks).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Finishes the row and prints it on its own line.
    pub fn emit(self) {
        println!("{}", self.finish());
    }

    fn push_key(&mut self, key: &str) {
        self.push_str_value(key);
        self.buf.push(':');
    }

    fn push_str_value(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\t' => self.buf.push_str("\\t"),
                '\r' => self.buf.push_str("\\r"),
                c if (c as u32) < 0x20 => self.buf.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }
}

/// Renders one table row: left-aligned label plus fixed-width columns.
pub fn row<C: std::fmt::Display>(label: &str, cells: impl IntoIterator<Item = C>) -> String {
    let mut s = format!("{label:<16}");
    for c in cells {
        s.push_str(&format!("{c:>14}"));
    }
    s
}

/// Header row for the four datasets.
pub fn dataset_header(datasets: &[Dataset]) -> String {
    row("", datasets.iter().map(Dataset::name))
}

/// Formats a microsecond value the way the paper's tables read.
pub fn us(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_row_shape() {
        let row = JsonRow::new("t")
            .str("a", "x\"y")
            .int("n", 3)
            .num("v", 1.25)
            .finish();
        assert_eq!(row, r#"{"experiment":"t","a":"x\"y","n":3,"v":1.250000}"#);
    }

    #[test]
    fn json_row_non_finite_is_null() {
        let row = JsonRow::new("t").num("v", f64::NAN).finish();
        assert_eq!(row, r#"{"experiment":"t","v":null}"#);
    }

    #[test]
    fn knobs_refuse_what_they_cannot_use() {
        assert_eq!(parse_knob("K", None, 7, 1), Ok(7));
        assert_eq!(parse_knob("K", Some("20000"), 7, 5), Ok(20_000));
        assert_eq!(parse_knob("K", Some("0"), 7, 0), Ok(0));
        for bad in ["20k", "", "-3", "1.5"] {
            let err = parse_knob("IRS_BENCH_SCALE", Some(bad), 7, 5).unwrap_err();
            assert!(err.starts_with("IRS_BENCH_SCALE "), "{err}");
        }
        assert!(parse_knob("IRS_BENCH_QUERIES", Some("0"), 7, 1).is_err());
        assert!(parse_knob("IRS_BENCH_SCALE", Some("2"), 7, 5).is_err());
    }
}
