//! The paper reproduction runner: Tables III–X and Figs. 5–10 of §V, the
//! AIT-V rejection count of §III-C, and three extension experiments, all
//! from one static experiment table.
//!
//! ```text
//! repro                  # every experiment, in table order
//! repro table05 fig07    # just these
//! ```
//!
//! Scale comes from the `IRS_BENCH_*` knobs (see the crate docs). Each
//! experiment prints its human table, plus one JSON row per measured cell
//! (`grep '^{'`). Structures are built one at a time, each dropped before
//! the next is built.

use irs_ait::{Ait, AitV, Awit, DynamicAwit};
use irs_bench::*;
use irs_core::{
    Interval64, MemoryFootprint, PreparedSampler, RangeCount, RangeSampler, WeightedRangeSampler,
};
use irs_datagen::uniform_weights;
use irs_hint::HintM;
use irs_interval_tree::IntervalTree;
use irs_kds::Kds;
use irs_period_index::PeriodIndex;
use irs_timeline::TimelineIndex;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::time::Duration;
use Axis::{Extent, Fixed, SampleSize, SizePct};
use Body::{Bespoke, Sweep};
use Layout::{Captioned, Datasets, Methods, Metrics};
use Metric::{Build, Candidate, Count, Heap, Sampling, Total};

/// What one cell measures.
#[derive(Clone, Copy, Debug)]
enum Metric {
    Build,
    Heap,
    Candidate,
    Sampling,
    Total,
    Count,
}

impl Metric {
    /// The JSON `metric` (its suffix is the unit of `value`), and the
    /// label where a table lays metrics out as rows or columns.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Build => ("build_s", "Pre-processing"),
            Heap => ("heap_bytes", "Memory"),
            Candidate => ("candidate_us", "candidate"),
            Sampling => ("sampling_us", "sampling"),
            Total => ("total_us", "total"),
            Count => ("count_us", "count"),
        }
    }

    /// A table cell: seconds, GB, or microseconds as the paper prints them.
    fn format(self, v: f64) -> String {
        match self {
            Build => format!("{v:.2}"),
            Heap => format!("{:.3}", v / 1e9),
            _ => us(v),
        }
    }
}

/// A built structure, boxed with the measurements it answers: every
/// metric but `Build`, which the runner times itself. The measurement
/// loops are monomorphised; only the call into one is dynamic.
type Built = Box<dyn Fn(Metric, &[Interval64], usize, u64) -> f64>;

/// The sampling metrics of `index`, whose phase 1 is `prepare`.
fn sampler_metric<P: PreparedSampler>(
    metric: Metric,
    index: &impl MemoryFootprint,
    (queries, s, seed): (&[Interval64], usize, u64),
    prepare: impl Fn(Interval64) -> P,
) -> f64 {
    match metric {
        Heap => index.heap_bytes() as f64,
        Candidate => avg_candidate_micros(queries, prepare),
        Sampling => avg_sampling_micros(queries, s, seed, prepare),
        Total => avg_total_micros(queries, s, seed, prepare),
        Build | Count => unreachable!("{metric:?} on a sampler"),
    }
}

/// Uniform sampling.
fn plain(index: impl RangeSampler<i64> + MemoryFootprint + 'static) -> Built {
    Box::new(move |metric, queries: &[Interval64], s, seed| {
        sampler_metric(metric, &index, (queries, s, seed), |q| index.prepare(q))
    })
}

/// Weight-proportional sampling.
fn weighted(index: impl WeightedRangeSampler<i64> + MemoryFootprint + 'static) -> Built {
    Box::new(move |metric, queries: &[Interval64], s, seed| {
        sampler_metric(metric, &index, (queries, s, seed), |q| {
            index.prepare_weighted(q)
        })
    })
}

/// Range counting.
fn counted(index: impl RangeCount<i64> + MemoryFootprint + 'static) -> Built {
    Box::new(move |metric, queries: &[Interval64], _, _| match metric {
        Heap => index.heap_bytes() as f64,
        Count => avg_count_micros(&index, queries),
        _ => unreachable!("{metric:?} on a counter"),
    })
}

/// One structure, weighted or not, as a row or column of a table.
struct Method {
    label: &'static str,
    /// Builds over `(data, weights)`; unweighted builds ignore `weights`.
    build: fn(&[Interval64], &[f64]) -> Built,
}

const fn method(label: &'static str, build: fn(&[Interval64], &[f64]) -> Built) -> Method {
    Method { label, build }
}

const ITREE: Method = method("Interval tree", |d, _| plain(IntervalTree::new(d)));
const HINT: Method = method("HINTm", |d, _| plain(HintM::new(d)));
const KDS: Method = method("KDS", |d, _| plain(Kds::new(d)));
const AIT: Method = method("AIT", |d, _| plain(Ait::new(d)));
const AITV: Method = method("AIT-V", |d, _| plain(AitV::new(d)));
const AWIT: Method = method("AWIT", |d, w| weighted(Awit::new(d, w)));
const UNIFORM: &[Method] = &[ITREE, HINT, KDS, AIT, AITV];
const LANDSCAPE: &[Method] = &[
    ITREE,
    method("Timeline", |d, _| plain(TimelineIndex::new(d))),
    method("Period index", |d, _| plain(PeriodIndex::new(d))),
    HINT,
    KDS,
    AIT,
    AITV,
];
const WEIGHTED: &[Method] = &[
    method("Interval tree", |d, w| {
        weighted(IntervalTree::new_weighted(d, w))
    }),
    method("HINTm", |d, w| weighted(HintM::new_weighted(d, w))),
    method("KDS", |d, w| weighted(Kds::new_weighted(d, w))),
    AWIT,
];
const COUNTERS: &[Method] = &[
    method("AIT", |d, _| counted(Ait::new(d))),
    method("HINTm", |d, _| counted(HintM::new(d))),
    method("kd-tree", |d, _| counted(Kds::new(d))),
];

/// What a sweep varies inside each dataset, over the paper's values. The
/// rest takes the paper's defaults: 8 % extent, `s` from the config, all
/// of the data.
#[derive(Clone, Copy)]
enum Axis {
    /// No sweep: the datasets alone vary.
    Fixed,
    Extent,
    SampleSize,
    SizePct,
}

/// One value of an axis.
struct Point {
    label: String,
    extent: f64,
    s: usize,
    pct: usize,
}

impl Axis {
    fn label(self) -> &'static str {
        match self {
            Fixed => "",
            Extent => "extent%",
            SampleSize => "s",
            SizePct => "size%",
        }
    }

    fn points(self, cfg: &BenchConfig) -> Vec<Point> {
        let at = |label, extent, s, pct| Point {
            label,
            extent,
            s,
            pct,
        };
        match self {
            Fixed => vec![at(String::new(), 8.0, cfg.s, 100)],
            Extent => [1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0]
                .map(|e| at(format!("{e}%"), e, cfg.s, 100))
                .into(),
            SampleSize => [100, 300, 1_000, 3_000, 10_000]
                .map(|s| at(s.to_string(), 8.0, s, 100))
                .into(),
            SizePct => [20, 40, 60, 80, 100]
                .map(|p| at(format!("{p}%"), 8.0, cfg.s, p))
                .into(),
        }
    }
}

/// How a sweep's cells are printed, named by what the columns are.
#[derive(Clone, Copy)]
enum Layout {
    /// Rows are the methods, or the metrics when there are several.
    Datasets,
    /// A section per dataset: columns are the methods, rows the points.
    Methods,
    /// A section per dataset: columns are the metrics, rows the methods.
    Metrics,
    /// A captioned table per metric: columns are the methods and the
    /// dataset, rows the points of each dataset in turn.
    Captioned(&'static [&'static str]),
}

enum Body {
    /// Every method at every point of the axis, on every dataset, for
    /// each metric.
    Sweep(Axis, &'static [Metric], &'static [Method], Layout),
    /// An experiment whose shape does not fit a sweep.
    Bespoke(fn(&str, &BenchConfig, &[Dataset])),
}

struct Experiment {
    id: &'static str,
    title: &'static str,
    body: Body,
}

const fn sweep(
    id: &'static str,
    axis: Axis,
    metrics: &'static [Metric],
    methods: &'static [Method],
    layout: Layout,
) -> Experiment {
    let body = Sweep(axis, metrics, methods, layout);
    Experiment {
        id,
        title: "",
        body,
    }
}

const fn bespoke(id: &'static str, run: fn(&str, &BenchConfig, &[Dataset])) -> Experiment {
    Experiment {
        id,
        title: "",
        body: Bespoke(run),
    }
}

impl Experiment {
    /// The banner title, as the paper names the table or figure.
    const fn titled(self, title: &'static str) -> Self {
        Experiment { title, ..self }
    }
}

const BUILD_HEAP: &[Metric] = &[Build, Heap];
const PHASES: &[Metric] = &[Candidate, Sampling, Total];
const FIG05: Layout = Captioned(&[
    "(a)+(b) pre-processing time [sec]",
    "(c)+(d) memory usage [GB]",
]);

const EXPERIMENTS: &[Experiment] = &[
    sweep("table03", Fixed, &[Build], UNIFORM, Datasets)
        .titled("Table III: pre-processing time [sec] (non-weighted)"),
    sweep("table04", Fixed, &[Heap], UNIFORM, Datasets)
        .titled("Table IV: memory usage [GB] (non-weighted)"),
    sweep("table05", Fixed, &[Candidate], UNIFORM, Datasets)
        .titled("Table V: candidate computation time [microsec]"),
    sweep("table06", Fixed, &[Sampling], UNIFORM, Datasets)
        .titled("Table VI: sampling time [microsec] (non-weighted, alias build included)"),
    bespoke("table07", table07).titled("Table VII: amortized update time of AIT [millisec]"),
    sweep("table08", Fixed, BUILD_HEAP, &[AWIT], Datasets)
        .titled("Table VIII: AWIT pre-processing time [sec] and memory [GB]"),
    sweep("table09", Fixed, &[Sampling], WEIGHTED, Datasets)
        .titled("Table IX: sampling time [microsec] (weighted, alias build included)"),
    sweep("table10", Fixed, &[Count], COUNTERS, Datasets)
        .titled("Table X: range counting time [microsec]"),
    sweep("fig05", SizePct, BUILD_HEAP, &[AIT, AITV], FIG05)
        .titled("Fig. 5: AIT / AIT-V build time [sec] and memory [GB] vs n"),
    sweep("fig06", Extent, &[Total], UNIFORM, Methods)
        .titled("Fig. 6: running time [microsec] vs domain extent (non-weighted)"),
    sweep("fig07", SampleSize, &[Total], UNIFORM, Methods)
        .titled("Fig. 7: running time [microsec] vs sample size (non-weighted)"),
    sweep("fig08", SizePct, &[Total], UNIFORM, Methods)
        .titled("Fig. 8: running time [microsec] vs dataset size (non-weighted)"),
    sweep("fig09", Extent, &[Total], WEIGHTED, Methods)
        .titled("Fig. 9: running time [microsec] vs domain extent (weighted)"),
    sweep("fig10", SizePct, &[Total], WEIGHTED, Methods)
        .titled("Fig. 10: running time [microsec] vs dataset size (weighted)"),
    bespoke("aitv_rejections", aitv_rejections)
        .titled("AIT-V rejection sampling: attempts per s accepted samples"),
    sweep("baseline_landscape", Fixed, PHASES, LANDSCAPE, Metrics)
        .titled("Extension: full baseline landscape (candidate / sampling / total, microsec)"),
    bespoke("dynamic_weighted", dynamic_weighted)
        .titled("Extension: dynamic weighted IRS (DynamicAwit)"),
];

fn main() {
    let fail = |msg: String| -> ! {
        eprintln!("repro: {msg}");
        std::process::exit(2)
    };
    let cfg = BenchConfig::from_env().unwrap_or_else(|e| fail(e));
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    if let Some(bad) = wanted.iter().find(|w| !ids.contains(&w.as_str())) {
        let known = ids.join(" ");
        fail(format!("unknown experiment `{bad}`; known: {known}"));
    }
    let sets = datasets(&cfg);
    for exp in EXPERIMENTS {
        if wanted.is_empty() || wanted.iter().any(|w| w == exp.id) {
            run(exp, &cfg, &sets);
        }
    }
}

fn run(exp: &Experiment, cfg: &BenchConfig, sets: &[Dataset]) {
    println!("{}", cfg.banner(exp.title));
    match exp.body {
        Sweep(axis, metrics, methods, layout) => {
            let points = axis.points(cfg);
            let cells = measure(exp.id, axis, &points, metrics, methods, cfg, sets);
            let text = |d, p, m, k: usize| metrics[k].format(cells[&(d, p, m, k)]);
            print(layout, axis.label(), &points, metrics, methods, sets, text);
        }
        Bespoke(run) => run(exp.id, cfg, sets),
    }
    println!();
}

/// Prints one cell's JSON row.
fn emit(id: &str, ds: &Dataset, method: &str, at: &Point, metric: &str, v: f64, cfg: &BenchConfig) {
    JsonRow::new(id)
        .str("dataset", ds.name())
        .str("method", method)
        .num("extent_pct", at.extent)
        .int("size_pct", at.pct)
        .int("s", at.s)
        .str("metric", metric)
        .num("value", v)
        .int("n", ds.data.len() * at.pct / 100)
        .int("queries", cfg.queries)
        .int("seed", cfg.seed as usize)
        .emit();
}

fn weights(ds: &Dataset, cfg: &BenchConfig) -> Vec<f64> {
    uniform_weights(ds.data.len(), cfg.seed ^ 0xA11A5)
}

/// (dataset, point, method, metric) → value.
type Cells = HashMap<(usize, usize, usize, usize), f64>;

/// Builds each method once per dataset, or once per point of a size
/// sweep, and measures every metric at every point on that build.
fn measure(
    id: &str,
    axis: Axis,
    points: &[Point],
    metrics: &[Metric],
    methods: &[Method],
    cfg: &BenchConfig,
    sets: &[Dataset],
) -> Cells {
    let mut cells = Cells::new();
    for (d, ds) in sets.iter().enumerate() {
        let weights = weights(ds, cfg);
        let queries: Vec<_> = points.iter().map(|p| ds.queries(cfg, p.extent)).collect();
        for (m, method) in methods.iter().enumerate() {
            let mut built: Option<(Duration, Built)> = None;
            for (p, at) in points.iter().enumerate() {
                if built.is_none() || matches!(axis, SizePct) {
                    drop(built.take());
                    let n = ds.data.len() * at.pct / 100;
                    built = Some(time(|| (method.build)(&ds.data[..n], &weights[..n])));
                }
                let (build_time, index) = built.as_ref().expect("built above");
                for (k, &metric) in metrics.iter().enumerate() {
                    let value = match metric {
                        Build => build_time.as_secs_f64(),
                        _ => index(metric, &queries[p], at.s, cfg.seed),
                    };
                    cells.insert((d, p, m, k), value);
                    emit(id, ds, method.label, at, metric.names().0, value, cfg);
                }
            }
        }
    }
    cells
}

/// Prints a sweep's cells, `text(dataset, point, method, metric)`, the
/// way the paper's table or figure lays them out.
fn print(
    layout: Layout,
    axis: &str,
    points: &[Point],
    metrics: &[Metric],
    methods: &[Method],
    sets: &[Dataset],
    text: impl Fn(usize, usize, usize, usize) -> String,
) {
    let labels = || methods.iter().map(|m| m.label);
    match layout {
        Datasets => {
            println!("{}", dataset_header(sets));
            for (m, method) in methods.iter().enumerate() {
                for (k, metric) in metrics.iter().enumerate() {
                    let label = match metrics.len() {
                        1 => method.label,
                        _ => metric.names().1,
                    };
                    println!("{}", row(label, (0..sets.len()).map(|d| text(d, 0, m, k))));
                }
            }
        }
        Methods => {
            for (d, ds) in sets.iter().enumerate() {
                println!("\n### {}\n{}", ds.name(), row(axis, labels()));
                for (p, at) in points.iter().enumerate() {
                    println!(
                        "{}",
                        row(&at.label, (0..methods.len()).map(|m| text(d, p, m, 0)))
                    );
                }
            }
        }
        Metrics => {
            let header = row("structure", metrics.iter().map(|k| k.names().1));
            for (d, ds) in sets.iter().enumerate() {
                println!("\n### {}\n{header}", ds.name());
                for (m, method) in methods.iter().enumerate() {
                    println!(
                        "{}",
                        row(method.label, (0..metrics.len()).map(|k| text(d, 0, m, k)))
                    );
                }
            }
        }
        Captioned(captions) => {
            for (k, caption) in captions.iter().enumerate() {
                println!("\n{caption}\n{}", row(axis, labels().chain(["dataset"])));
                for (d, ds) in sets.iter().enumerate() {
                    for (p, at) in points.iter().enumerate() {
                        let cells = (0..methods.len()).map(|m| text(d, p, m, k));
                        println!("{}", row(&at.label, cells.chain([ds.name().into()])));
                    }
                }
            }
        }
    }
}

/// Prints and returns the updates per measurement of Table VII and the
/// dynamic-AWIT extension: the paper's 5 000, at most n / 4.
fn update_batch(cfg: &BenchConfig) -> usize {
    let k = 5_000.min(cfg.scale / 4);
    println!("(k = {k} updates per measurement)");
    k
}

/// Mean milliseconds per update over a timed batch of `k`.
fn ms_per(dt: Duration, k: usize) -> f64 {
    dt.as_secs_f64() * 1e3 / k as f64
}

/// Prints labelled rows under the dataset header.
fn print_rows(sets: &[Dataset], labels: &[&str], rows: &[Vec<String>]) {
    println!("{}", dataset_header(sets));
    for (label, cells) in labels.iter().zip(rows) {
        println!("{}", row(label, cells));
    }
}

/// Table VII: builds on `n − k` intervals and inserts the remaining `k`
/// one by one, then through the insertion pool; deletion removes `k`
/// intervals from the full index.
fn table07(id: &str, cfg: &BenchConfig, sets: &[Dataset]) {
    let k = update_batch(cfg);
    let at = &Fixed.points(cfg)[0];
    let mut rows = vec![vec![]; 3];
    for ds in sets {
        let (base, tail) = ds.data.split_at(ds.data.len() - k);
        let mut ait = Ait::new(base);
        let (insert, _) = time(|| {
            for &iv in tail {
                ait.insert(iv);
            }
        });
        drop(ait);
        let mut ait = Ait::new(base);
        let (batch, _) = time(|| {
            for &iv in tail {
                ait.insert_buffered(iv);
            }
            ait.flush_pool();
        });
        drop(ait);
        let mut ait = Ait::new(&ds.data);
        let (delete, _) = time(|| {
            for (id, &iv) in (base.len() as u32..).zip(tail) {
                assert!(ait.delete(iv, id));
            }
        });
        let ms = [insert, batch, delete].map(|dt| ms_per(dt, k));
        let names = ["insert_ms", "batch_insert_ms", "delete_ms"];
        for (r, (name, ms)) in names.into_iter().zip(ms).enumerate() {
            rows[r].push(format!("{ms:.3}"));
            emit(id, ds, "AIT", at, name, ms, cfg);
        }
    }
    print_rows(sets, &["Insertion", "Batch insertion", "Deletion"], &rows);
}

/// §III-C: the member draws AIT-V needs for `s` accepted samples. The
/// paper reports ~1 087 attempts for s = 1 000 on Book and ~1 020 on BTC.
fn aitv_rejections(id: &str, cfg: &BenchConfig, sets: &[Dataset]) {
    let at = &Fixed.points(cfg)[0];
    let columns = ["attempts", "accepted", "ratio", "fallbacks"];
    println!("{}", row("dataset", columns));
    for ds in sets {
        let aitv = AitV::new(&ds.data);
        let queries = ds.queries(cfg, at.extent);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (mut attempts, mut accepted, mut fallbacks) = (0.0, 0.0, 0.0);
        let mut out = Vec::with_capacity(cfg.s);
        for &q in &queries {
            let prepared = aitv.prepare(q);
            out.clear();
            prepared.sample_into(&mut rng, cfg.s, &mut out);
            let st = prepared.stats();
            attempts += st.attempts as f64;
            accepted += st.accepted as f64;
            fallbacks += st.fallbacks as f64;
        }
        let (n, ratio) = (queries.len() as f64, attempts / accepted.max(1.0));
        let values = [attempts / n, accepted / n, ratio, fallbacks];
        let cells = values
            .iter()
            .zip([1, 1, 4, 0])
            .map(|(v, p)| format!("{v:.p$}"));
        println!("{}", row(ds.name(), cells));
        for (name, v) in columns.into_iter().zip(values) {
            emit(id, ds, "AIT-V", at, name, v, cfg);
        }
    }
}

/// Beyond the paper: §IV leaves weighted updates as future work, and
/// `DynamicAwit` closes the gap with a weighted pool, tombstones and
/// amortized rebuilds. Reports the amortized update cost against one
/// full AWIT rebuild per update, and the query-time overhead against a
/// static AWIT.
fn dynamic_weighted(id: &str, cfg: &BenchConfig, sets: &[Dataset]) {
    let k = update_batch(cfg);
    let at = &Fixed.points(cfg)[0];
    let mut rows = vec![vec![]; 5];
    for ds in sets {
        let weights = weights(ds, cfg);
        let (base, tail) = ds.data.split_at(ds.data.len() - k);
        let (wbase, wtail) = weights.split_at(base.len());
        let queries = ds.queries(cfg, at.extent);

        let mut dyn_idx = DynamicAwit::new(base, wbase);
        let (insert, _) = time(|| {
            for (&iv, &w) in tail.iter().zip(wtail) {
                dyn_idx.insert(iv, w);
            }
        });
        // Delete what was just inserted.
        let (delete, _) = time(|| {
            for (id, &iv) in (base.len() as u32..).zip(tail) {
                assert!(dyn_idx.delete(iv, id));
            }
        });
        drop(dyn_idx);

        // The naive alternative rebuilds per update, so its per-update
        // cost is one rebuild.
        let (rebuild, awit) = time(|| Awit::new(&ds.data, &weights));
        let fixed = avg_total_micros(&queries, cfg.s, cfg.seed, |q| awit.prepare_weighted(q));
        drop(awit);

        // The dynamic index with a partly full pool and tombstone set.
        let mut dyn_idx = DynamicAwit::new(&ds.data, &weights);
        let churn = 200.min(k);
        for (&iv, &w) in tail.iter().zip(wtail).take(churn) {
            dyn_idx.insert(iv, w * 0.5 + 1.0);
        }
        for (id, &iv) in (0..churn as u32).zip(&ds.data) {
            dyn_idx.delete(iv, id);
        }
        let dynamic = avg_total_micros(&queries, cfg.s, cfg.seed, |q| dyn_idx.prepare_weighted(q));

        let (insert, delete) = (ms_per(insert, k), ms_per(delete, k));
        let rebuild = rebuild.as_secs_f64() * 1e3;
        let cells = [
            ("DynamicAwit", "insert_ms", insert, format!("{insert:.3}")),
            ("DynamicAwit", "delete_ms", delete, format!("{delete:.3}")),
            ("AWIT", "rebuild_ms", rebuild, format!("{rebuild:.1}")),
            ("AWIT", "query_static_us", fixed, us(fixed)),
            ("DynamicAwit", "query_dynamic_us", dynamic, us(dynamic)),
        ];
        for (r, (method, name, v, text)) in cells.into_iter().enumerate() {
            rows[r].push(text);
            emit(id, ds, method, at, name, v, cfg);
        }
    }
    let labels = [
        "Insert [ms]",
        "Delete [ms]",
        "Naive rebuild [ms]",
        "Query static [us]",
        "Query dynamic [us]",
    ];
    print_rows(sets, &labels, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_covers_the_paper() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "an experiment id repeats");
        let tables = (3..=10).map(|t| format!("table{t:02}"));
        let figs = (5..=10).map(|f| format!("fig{f:02}"));
        let extensions = ["aitv_rejections", "baseline_landscape", "dynamic_weighted"];
        for id in tables.chain(figs).chain(extensions.map(String::from)) {
            assert!(ids.contains(&id.as_str()), "no experiment {id}");
        }
    }
}
