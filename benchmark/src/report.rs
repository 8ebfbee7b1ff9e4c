//! What leaves the benchmark: the result file of a run, the contract's
//! final stdout line, the dictionary (`list`), and `compare`.

use crate::json::Json;
use crate::run::Outcome;
use crate::spec::{self, Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use irs_bench::baseline::{parse, JsonValue};

/// `run_seconds` of BENCHMARK.json: the length of the query phase. Rule
/// 4 asks for 20 s; the driver's budget (92 runs and two builds within
/// 3420 s) leaves room for the floor of 10 s.
pub const RUN_SECONDS: u64 = 10;

/// The full record of a run: every metric with its unit, spread and
/// sample count, the verdict, the host it ran on and its noise.
pub fn result_json(outcome: &Outcome) -> Json {
    let metrics = Json::Obj(
        outcome
            .measured
            .iter()
            .map(|(name, s)| {
                let unit = spec::metric(name).map_or("", |m| m.unit);
                let entry = Json::obj()
                    .with("value", s.median)
                    .with("unit", unit)
                    .with("iqr", s.iqr)
                    .with("n", s.n);
                (name.to_string(), entry)
            })
            .collect(),
    );
    Json::obj()
        .with("workload", outcome.spec.name)
        .with("seed", outcome.opts.seed)
        .with("seconds", outcome.opts.seconds)
        .with("trace", outcome.opts.trace)
        .with("smoke", outcome.opts.smoke)
        .with("valid", outcome.invalid.is_empty())
        .with("invalid_reasons", outcome.invalid.clone())
        .with("correct", outcome.correct())
        .with("attempted", outcome.gate.attempted)
        .with("failed", outcome.gate.failed)
        .with("failures", outcome.gate.notes.clone())
        .with("host", outcome.host.clone())
        .with("phases", outcome.phases.clone())
        .with("metrics", metrics)
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` — every end-to-end metric of a plain run,
/// every per-layer metric of a traced one.
pub fn final_line(outcome: &Outcome) -> Result<Json, String> {
    let wanted: &[MetricSpec] = if outcome.opts.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = Json::obj();
    for m in wanted {
        let (_, s) = outcome
            .measured
            .iter()
            .find(|(name, _)| *name == m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        metrics.set(
            m.name,
            Json::obj().with("value", s.median).with("unit", m.unit),
        );
    }
    Ok(Json::obj()
        .with("correct", outcome.correct())
        .with("attempted", outcome.gate.attempted.max(1))
        .with("failed", outcome.gate.failed)
        .with("metrics", metrics))
}

/// `BENCHMARK.json`, generated from the dictionary.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<Json>| {
        rows.iter()
            .map(|r| format!("    {}", r.render()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    out += "  \"workloads\": [\n";
    out += &rows(
        WORKLOADS
            .iter()
            .map(|w| Json::obj().with("name", w.name).with("why", w.why))
            .collect(),
    );
    out += "\n  ],\n  \"end_to_end\": [\n";
    let row = |m: &MetricSpec| {
        let row = Json::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.name());
        match m.bound {
            Some(bound) => row.with("bound", bound),
            None => row,
        }
    };
    out += &rows(END_TO_END.iter().map(row).collect());
    out += "\n  ],\n  \"per_layer\": [\n";
    out += &rows(PER_LAYER.iter().map(row).collect());
    out += "\n  ]\n}\n";
    out
}

/// `list`: every workload with its reason; every metric with unit,
/// direction, bound, gated or not, and what it should move.
pub fn list() -> String {
    let mut out = String::from("WORKLOADS\n");
    for w in &WORKLOADS {
        out += &format!("  {}\n      {}\n", w.name, w.why);
    }
    out += "\nEND-TO-END METRICS (gated; every workload reports all of them; --trace 0)\n";
    for m in &END_TO_END {
        out += &format!(
            "  {:<26} {:<6} {:<7} bound {:>4.0} %  gated    {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.moves
        );
    }
    out += "\nPER-LAYER METRICS (ungated; --trace 1): the end-to-end tails, then every layer\n";
    for m in &PER_LAYER {
        out += &format!(
            "  {:<50} {:<6} {:<7} ungated  -> {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.moves
        );
    }
    out
}

/// Every run in a result file: one JSON object, or one per line (what
/// `repeat.sh` concatenates).
fn read_runs(path: &str) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Values of one metric on one workload, from the valid, correct plain
/// runs of a set.
fn values(runs: &[JsonValue], workload: &str, metric: &str) -> Vec<f64> {
    let flag = |r: &JsonValue, key: &str| r.get(key) == Some(&JsonValue::Bool(true));
    let mut v: Vec<f64> = runs
        .iter()
        .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(workload))
        .filter(|r| flag(r, "valid") && flag(r, "correct") && !flag(r, "trace"))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect();
    stats::sorted(&mut v);
    v
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// The run-to-run spread exceeds the bound, so the two sides cannot
    /// be told apart.
    Unresolved,
    Missing,
}

/// One workload × metric row of `compare`. `a` and `b` are sorted.
pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let bound = m.bound.unwrap_or(f64::INFINITY);
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, 0.0, 0.0);
    }
    let (base, new) = (stats::median(a), stats::median(b));
    // Positive = worse, as a share of the first side's median.
    let worse_by = match m.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let iqr = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        q3 - q1
    };
    let spread = iqr(a).max(iqr(b)) / base;
    let (a_best, b_worst) = match m.better {
        Better::Lower => (a[0], b[b.len() - 1]),
        Better::Higher => (a[a.len() - 1], b[0]),
    };
    let b_always_better = match m.better {
        Better::Lower => b_worst < a_best,
        Better::Higher => b_worst > a_best,
    };
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if -worse_by > spread.max(0.01) && b_always_better {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, spread)
}

/// `compare <a> <b>`: per workload × gated metric, the second side's
/// median against the first's and the bound. Returns the table and
/// whether any row is a regression, unresolved or missing.
pub fn compare(a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_runs(a_path)?, read_runs(b_path)?);
    let mut out = format!(
        "{:<24} {:<24} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a median", "b median", "worse by", "spread", "bound"
    );
    let mut bad = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            let (verdict, worse_by, spread) = judge(m, &va, &vb);
            bad |= !matches!(verdict, Verdict::Ok | Verdict::Improved);
            out += &format!(
                "{:<24} {:<24} {:>12.4} {:>12.4} {:>8.2}% {:>7.2}% {:>6.0}%  {:?} (n={}/{})\n",
                w.name,
                m.name,
                stats::median(&va),
                stats::median(&vb),
                worse_by * 100.0,
                spread * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                verdict,
                va.len(),
                vb.len()
            );
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_output_has_the_contract_shape() {
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let doc = parse(&text).unwrap();
        let members = |v: &JsonValue| match v {
            JsonValue::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        let items = |key: &str| match doc.get(key) {
            Some(JsonValue::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        assert_eq!(
            members(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(items("paths"), [JsonValue::Str("benchmark".to_string())]);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_usize(),
            Some(RUN_SECONDS as usize)
        );
        assert_eq!(items("workloads").len(), WORKLOADS.len());
        for w in items("workloads") {
            assert_eq!(members(&w), ["name", "why"]);
        }
        assert_eq!(items("end_to_end").len(), END_TO_END.len());
        for m in items("end_to_end") {
            assert_eq!(members(&m), ["name", "unit", "better", "bound"]);
        }
        assert_eq!(items("per_layer").len(), PER_LAYER.len());
        for m in items("per_layer") {
            assert_eq!(members(&m), ["name", "unit", "better"]);
        }
    }

    #[test]
    fn list_names_every_workload_and_metric() {
        let text = list();
        for w in &WORKLOADS {
            assert!(text.contains(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(text.contains(m.name), "{}", m.name);
        }
    }

    #[test]
    fn compare_verdicts() {
        // A higher-is-better and a lower-is-better metric, both bounded at 10 %.
        let bounded = |name: &str| MetricSpec {
            bound: Some(0.10),
            ..*spec::metric(name).unwrap()
        };
        let (qps, p50) = (&bounded("query_qps"), &bounded("query_p50_us"));
        let steady = [100.0, 101.0, 102.0, 103.0, 104.0];
        assert_eq!(judge(qps, &steady, &steady).0, Verdict::Ok);
        let slower = [80.0, 81.0, 82.0, 83.0, 84.0];
        assert_eq!(judge(qps, &steady, &slower).0, Verdict::Regression);
        assert_eq!(judge(p50, &slower, &steady).0, Verdict::Regression);
        assert_eq!(judge(qps, &slower, &steady).0, Verdict::Improved);
        // Within the bound but with a spread wider than it: unresolved.
        let noisy = [80.0, 95.0, 100.0, 110.0, 125.0];
        assert_eq!(judge(qps, &steady, &noisy).0, Verdict::Unresolved);
        // ... unless every run of b beats every run of a.
        let noisy_but_better = [120.0, 130.0, 150.0, 170.0, 190.0];
        assert_ne!(
            judge(qps, &steady, &noisy_but_better).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(qps, &steady, &[]).0, Verdict::Missing);
    }
}
