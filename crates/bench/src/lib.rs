//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's §V on the calibrated synthetic datasets (see DESIGN.md's
//! substitution notes). Scale knobs come from the environment so the same
//! binaries serve quick smoke runs and full paper-scale runs:
//!
//! - `IRS_BENCH_SCALE`   — intervals per dataset (default 200,000)
//! - `IRS_BENCH_QUERIES` — queries per measurement (default 1,000, as in
//!   the paper)
//! - `IRS_BENCH_S`       — sample size (default 1,000, as in the paper)
//! - `IRS_BENCH_SEED`    — RNG seed (default 42)

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use irs_core::{Interval64, PreparedSampler, RangeSampler, WeightedRangeSampler};
use irs_datagen::{DatasetProfile, QueryWorkload};
use rand::{rngs::SmallRng, SeedableRng};
use std::time::{Duration, Instant};

pub mod baseline;

/// Knobs shared by every experiment binary.
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
    /// Reads the configuration from the environment (defaults above).
    pub fn from_env() -> Self {
        fn env_usize(key: &str, default: usize) -> usize {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        BenchConfig {
            scale: env_usize("IRS_BENCH_SCALE", 200_000),
            queries: env_usize("IRS_BENCH_QUERIES", 1_000),
            s: env_usize("IRS_BENCH_S", 1_000),
            seed: env_usize("IRS_BENCH_SEED", 42) as u64,
        }
    }

    /// Banner line describing the run, printed by every binary.
    pub fn banner(&self, what: &str) -> String {
        format!(
            "## {what}\n(n = {} per dataset, {} queries, s = {}, seed = {})",
            self.scale, self.queries, self.s, self.seed
        )
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

/// Average microseconds per query of the *candidate computation* phase
/// (phase 1 of the paper's cost split, Table V).
pub fn avg_candidate_micros<S>(index: &S, queries: &[Interval64]) -> f64
where
    S: RangeSampler<i64>,
{
    let mut total = Duration::ZERO;
    for &q in queries {
        let (dt, prepared) = time(|| index.prepare(q));
        total += dt;
        std::hint::black_box(prepared.candidate_count());
    }
    total.as_secs_f64() * 1e6 / queries.len() as f64
}

/// Average microseconds per query of the *sampling* phase (phase 2 —
/// alias building included, Table VI / IX).
pub fn avg_sampling_micros<S>(index: &S, queries: &[Interval64], s: usize, seed: u64) -> f64
where
    S: RangeSampler<i64>,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(s);
    let mut total = Duration::ZERO;
    for &q in queries {
        let prepared = index.prepare(q);
        let (dt, _) = time(|| {
            out.clear();
            prepared.sample_into(&mut rng, s, &mut out);
        });
        total += dt;
        std::hint::black_box(out.len());
    }
    total.as_secs_f64() * 1e6 / queries.len() as f64
}

/// Weighted-path analogue of [`avg_candidate_micros`].
pub fn avg_candidate_micros_weighted<S>(index: &S, queries: &[Interval64]) -> f64
where
    S: WeightedRangeSampler<i64>,
{
    let mut total = Duration::ZERO;
    for &q in queries {
        let (dt, prepared) = time(|| index.prepare_weighted(q));
        total += dt;
        std::hint::black_box(prepared.candidate_count());
    }
    total.as_secs_f64() * 1e6 / queries.len() as f64
}

/// Weighted-path analogue of [`avg_sampling_micros`].
pub fn avg_sampling_micros_weighted<S>(
    index: &S,
    queries: &[Interval64],
    s: usize,
    seed: u64,
) -> f64
where
    S: WeightedRangeSampler<i64>,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(s);
    let mut total = Duration::ZERO;
    for &q in queries {
        let prepared = index.prepare_weighted(q);
        let (dt, _) = time(|| {
            out.clear();
            prepared.sample_into(&mut rng, s, &mut out);
        });
        total += dt;
        std::hint::black_box(out.len());
    }
    total.as_secs_f64() * 1e6 / queries.len() as f64
}

/// Average end-to-end microseconds per query (candidate + sampling), the
/// "running time" of Figs. 6-10.
pub fn avg_total_micros<S>(index: &S, queries: &[Interval64], s: usize, seed: u64) -> f64
where
    S: RangeSampler<i64>,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(s);
    let mut total = Duration::ZERO;
    for &q in queries {
        let (dt, _) = time(|| {
            out.clear();
            let prepared = index.prepare(q);
            prepared.sample_into(&mut rng, s, &mut out);
        });
        total += dt;
        std::hint::black_box(out.len());
    }
    total.as_secs_f64() * 1e6 / queries.len() as f64
}

/// Weighted analogue of [`avg_total_micros`].
pub fn avg_total_micros_weighted<S>(index: &S, queries: &[Interval64], s: usize, seed: u64) -> f64
where
    S: WeightedRangeSampler<i64>,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(s);
    let mut total = Duration::ZERO;
    for &q in queries {
        let (dt, _) = time(|| {
            out.clear();
            let prepared = index.prepare_weighted(q);
            prepared.sample_into(&mut rng, s, &mut out);
        });
        total += dt;
        std::hint::black_box(out.len());
    }
    total.as_secs_f64() * 1e6 / queries.len() as f64
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
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<16}");
    for c in cells {
        s.push_str(&format!("{c:>14}"));
    }
    s
}

/// Header row for the four datasets.
pub fn dataset_header(datasets: &[Dataset]) -> String {
    row(
        "",
        &datasets
            .iter()
            .map(|d| d.name().to_string())
            .collect::<Vec<_>>(),
    )
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

/// Formats bytes as GB with paper-style precision.
pub fn gb(bytes: usize) -> String {
    format!("{:.3}", bytes as f64 / 1e9)
}

/// Formats a duration in seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
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
}
