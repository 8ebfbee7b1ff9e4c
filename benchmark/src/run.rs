//! One run of one workload: set-ups, then the query phase, then the
//! mutation phase, then the correctness gate — strictly one after the
//! other (rule 1), all timed from outside with `Instant` (rule 6).

use crate::check::{self, Gate, Oracle};
use crate::host::{self, StealProbe};
use crate::json::Json;
use crate::openloop::{self, WallClock};
use crate::pin::{self, Pinning};
use crate::spec::{TopPath, WorkloadSpec};
use crate::stats::{self, Summary};
use crate::target::{LibTarget, RunResult, Server, Target, WireTarget};
use crate::trace::{self, SpanLog};
use crate::workload::{self, splitmix64, Dataset, LiveMap, Scale, Step, CALL_POOL};
use irs::catalog::{Catalog, CollectionSpec, KindSpec, DEFAULT_COLLECTION};
use irs::prelude::{Client, Irs};
use irs::{Interval64, ItemId, Query, QueryOutput, UpdateOutput};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One call in this many (a seeded subset, at most [`ORACLE_CALLS_MAX`])
/// is also compared with the linear-scan oracle, which is `O(n)` per
/// query. Every call has every sampled id checked against the live map.
const ORACLE_ONE_IN: u64 = 64;
const ORACLE_CALLS_MAX: usize = 96;
/// Seeded count queries replayed against the oracle after the mutation
/// phase: an acked mutation that was not applied shows here.
const POST_MUTATION_COUNTS: usize = 8;

#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    pub seed: u64,
    /// Length of the query phase (`run_seconds` of BENCHMARK.json).
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Where the benchmark may write: `benchmark/out` of its own checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The repo's `irs-cli`, built next to this binary by `run.sh`.
fn cli_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cli = exe.with_file_name("irs-cli");
    if cli.exists() {
        Ok(cli)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release --bin irs-cli` (benchmark/run.sh does)",
            cli.display()
        ))
    }
}

/// Inputs and scratch space of a run, made before anything is timed.
pub struct Stage {
    /// When the run began, for the progress lines on stderr.
    pub began: Instant,
    pub spec: &'static WorkloadSpec,
    pub opts: RunOptions,
    pub scale: Scale,
    pub pin: Pinning,
    pub work: PathBuf,
    /// The repo's `irs-cli`; empty when the run starts no child.
    pub cli: PathBuf,
    pub dataset: Dataset,
    pub calls: Vec<Vec<Query<i64>>>,
    /// `heap_bytes` of the in-process build identical to the child's
    /// (wire workloads only; `lib-*` read their own client).
    reference_heap: Option<usize>,
}

/// A program under test that is up and answering.
pub struct Live {
    pub target: Box<dyn Target>,
    client: Option<Client<i64>>,
    pub server: Option<Server>,
}

impl Live {
    /// Another caller's handle on the same backend: a `Client` clone, or
    /// a second connection.
    fn second_target(&self, spec: &WorkloadSpec) -> Result<Box<dyn Target>, String> {
        match (&self.client, &self.server) {
            (Some(client), _) => Ok(Box::new(LibTarget(client.clone()))),
            (None, Some(server)) => Ok(Box::new(WireTarget {
                remote: server.connect()?,
                in_default: spec.path == TopPath::WireCatalogWal,
            })),
            (None, None) => Err("nothing is live".to_string()),
        }
    }

    /// Takes the program down; the wire `Stats` of a child come back.
    pub fn stop(self) -> Result<Option<irs::wire::ServerStats>, String> {
        drop(self.target);
        drop(self.client);
        self.server.map(Server::stop).transpose()
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

impl Stage {
    pub fn prepare(
        spec: &'static WorkloadSpec,
        opts: RunOptions,
        pin: Pinning,
    ) -> Result<Self, String> {
        let scale = Scale::of(spec, opts.smoke);
        let work = out_dir().join(format!("work-{}-{}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let dataset = workload::dataset(scale.n, spec.weighted, opts.seed);
        let calls = workload::calls(spec.call, spec.weighted, &dataset.data, opts.seed);
        let needs_cli = spec.path != TopPath::Lib || opts.trace;
        let mut stage = Stage {
            began: Instant::now(),
            spec,
            opts,
            scale,
            pin,
            cli: if needs_cli {
                cli_path()?
            } else {
                PathBuf::new()
            },
            work,
            dataset,
            calls,
            reference_heap: None,
        };
        match spec.path {
            TopPath::Lib => {}
            TopPath::WireSingle => {
                workload::write_csv(&stage.csv_path(), &stage.dataset)
                    .map_err(|e| format!("write csv: {e}"))?;
                // What `irs-cli serve --data` builds (its default seed).
                let twin = Irs::builder()
                    .kind(spec.kind)
                    .seed(42)
                    .build(&stage.dataset.data)
                    .map_err(|e| e.to_string())?;
                stage.reference_heap = Some(twin.heap_bytes());
            }
            TopPath::WireCatalogWal => {
                let catalog = Catalog::<i64>::new();
                let info = catalog
                    .create(
                        CollectionSpec::new(DEFAULT_COLLECTION)
                            .kind(KindSpec::Fixed(spec.kind))
                            .seed(opts.seed)
                            .data(stage.dataset.data.clone()),
                    )
                    .map_err(|e| e.to_string())?;
                stage.reference_heap = Some(info.heap_bytes);
                catalog
                    .save(stage.work.join("pristine"))
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(stage)
    }

    fn csv_path(&self) -> PathBuf {
        self.work.join("data.csv")
    }

    /// One set-up: from seeded data generation (wire workloads: from
    /// child spawn) to the first verified answer through the top path.
    /// Returns the live program and the seconds it took.
    pub fn set_up(&self, live_map: &LiveMap) -> Result<(Live, f64), String> {
        let spec = self.spec;
        // A pristine snapshot copy and an empty log for every warm
        // restart; the copy is harness work, so it is not timed.
        let serve_dir = self.work.join("serve");
        let wal = self.work.join("serve.wal");
        if spec.path == TopPath::WireCatalogWal {
            let _ = std::fs::remove_dir_all(&serve_dir);
            let _ = std::fs::remove_file(&wal);
            copy_dir(&self.work.join("pristine"), &serve_dir).map_err(|e| e.to_string())?;
        }
        let start = Instant::now();
        let mut live = match spec.path {
            TopPath::Lib => {
                let ds = workload::dataset(self.scale.n, spec.weighted, self.opts.seed);
                let mut builder = Irs::builder()
                    .kind(spec.kind)
                    .shards(spec.shards)
                    .seed(self.opts.seed);
                if let Some(w) = ds.weights {
                    builder = builder.weights(w);
                }
                let client = builder.build(&ds.data).map_err(|e| e.to_string())?;
                Live {
                    target: Box::new(LibTarget(client.clone())),
                    client: Some(client),
                    server: None,
                }
            }
            TopPath::WireSingle | TopPath::WireCatalogWal => {
                let in_default = spec.path == TopPath::WireCatalogWal;
                let csv = self.csv_path();
                let args: Vec<&str> = if in_default {
                    vec![
                        "--catalog",
                        serve_dir.to_str().ok_or("non-UTF-8 path")?,
                        "--wal",
                        wal.to_str().ok_or("non-UTF-8 path")?,
                    ]
                } else {
                    vec![
                        "--data",
                        csv.to_str().ok_or("non-UTF-8 path")?,
                        "--kind",
                        spec.kind.name(),
                    ]
                };
                let server = Server::spawn(&self.cli, &args)?;
                let remote = server.connect()?;
                Live {
                    target: Box::new(WireTarget { remote, in_default }),
                    client: None,
                    server: Some(server),
                }
            }
        };
        let first = &self.calls[0];
        let t0 = Instant::now();
        let results = live.target.run(first)?;
        let elapsed = start.elapsed().as_secs_f64();
        check::check_call(live_map, None, first, &results, t0, Instant::now())
            .map_err(|e| format!("first answer after set-up: {e}"))?;
        Ok((live, elapsed))
    }

    fn heap_bytes(&self, live: &Live) -> usize {
        match (&live.client, self.reference_heap) {
            (Some(client), _) => client.heap_bytes(),
            (None, Some(bytes)) => bytes,
            (None, None) => 0,
        }
    }
}

/// One call of the query phase with its full answer, kept for the gate.
struct Recorded {
    call: usize,
    start: Instant,
    end: Instant,
    answer: RunResult,
}

struct CallerLog {
    caller: usize,
    begin: Instant,
    recorded: Vec<Recorded>,
    elapsed: f64,
}

impl CallerLog {
    fn latencies_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.recorded
            .iter()
            .map(|r| (r.end - r.start).as_secs_f64() * 1e6)
    }
}

/// Rule 7: a phase is judged by its best block. The host only ever slows
/// a run, in bursts that last from a fraction of a second to minutes (a
/// neighbour's memory traffic: `wire-small-s` blocks read 11.0-11.3 us or
/// 15-16.6 us, nothing between), so the quietest block is what repeats:
/// `query_p50_us` is the lowest block median, `query_qps` the highest block
/// rate. A block is long enough for every caller to walk the whole call
/// pool (blocks see equal inputs) and for 10 writes of
/// `wire-write-beside-read` to land in it.
const BLOCK_SECONDS: f64 = 0.25;

/// Queries per second of every full block, and the median call latency
/// of every full block in which a call completed.
struct Blocks {
    p50_us: Vec<f64>,
    qps: Vec<f64>,
}

fn blocks(callers: &[CallerLog], queries_per_call: usize) -> Blocks {
    let origin = callers.iter().map(|c| c.begin).min();
    let full = callers
        .iter()
        .map(|c| c.elapsed)
        .fold(f64::INFINITY, f64::min)
        / BLOCK_SECONDS;
    let (Some(origin), true) = (origin, full.is_finite()) else {
        return Blocks {
            p50_us: Vec::new(),
            qps: Vec::new(),
        };
    };
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); full as usize];
    for r in callers.iter().flat_map(|c| &c.recorded) {
        // A call belongs to the block it completed in.
        let block = ((r.end - origin).as_secs_f64() / BLOCK_SECONDS) as usize;
        if let Some(slot) = latencies.get_mut(block) {
            slot.push((r.end - r.start).as_secs_f64() * 1e6);
        }
    }
    Blocks {
        qps: latencies
            .iter()
            .map(|l| (l.len() * queries_per_call) as f64 / BLOCK_SECONDS)
            .collect(),
        // A block in which no call completed (a stall longer than a block)
        // has a rate, 0, but no latency.
        p50_us: latencies
            .iter_mut()
            .filter(|l| !l.is_empty())
            .map(|l| stats::median(stats::sorted(l)))
            .collect(),
    }
}

/// The closed loop of one caller: call, wait for the answer, call again,
/// until `seconds` have passed. Every answer stays in memory, unjudged
/// (rule 6).
fn query_loop(
    target: &mut dyn Target,
    calls: &[Vec<Query<i64>>],
    caller: usize,
    seconds: f64,
    mut spans: Option<&mut SpanLog>,
) -> CallerLog {
    let limit = Duration::from_secs_f64(seconds);
    let recorded = Vec::with_capacity((seconds * 200_000.0) as usize);
    let begin = Instant::now();
    let mut log = CallerLog {
        caller,
        begin,
        recorded,
        elapsed: 0.0,
    };
    let mut i = 0usize;
    loop {
        // Callers walk the pool from different offsets.
        let call = (i + caller * (CALL_POOL / 2)) % CALL_POOL;
        let start = Instant::now();
        let answer = target.run(&calls[call]);
        let end = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.push("query", start, end, i as u32);
        }
        log.recorded.push(Recorded {
            call,
            start,
            end,
            answer,
        });
        i += 1;
        if end - begin >= limit {
            log.elapsed = (end - begin).as_secs_f64();
            return log;
        }
    }
}

/// One acked (or refused) mutation, as the writer saw it.
pub(crate) struct Applied {
    step: Step,
    sent: Instant,
    acked: Instant,
    result: Result<UpdateOutput, String>,
}

/// Judges a writer's log and folds the acked mutations into the live
/// map.
fn absorb(log: &[Applied], live_map: &mut LiveMap, gate: &mut Gate) {
    for a in log {
        let verdict = match (&a.step, &a.result) {
            (Step::Insert { iv, weight }, Ok(UpdateOutput::Inserted(id))) => {
                live_map.record_insert(*id, *iv, weight.unwrap_or(1.0), a.sent);
                Ok(())
            }
            (Step::Delete { id }, Ok(UpdateOutput::Removed)) => {
                live_map.record_delete(*id, a.acked);
                Ok(())
            }
            (step, Ok(other)) => Err(format!("{step:?} answered with {other:?}")),
            (step, Err(e)) => Err(format!("{step:?} refused: {e}")),
        };
        gate.judge(verdict);
    }
}

/// The open-loop writer beside the query phase: mutation `i` is due at
/// `i / rate`, until `stop` is raised. It shares the pinned CPU with the
/// reader and the server, so it sleeps to its due times. Returns its
/// log and how late it ran.
pub(crate) fn beside_writer(
    target: &mut dyn Target,
    steps: &[Step],
    rate: f64,
    stop: &AtomicBool,
) -> (Vec<Applied>, Vec<f64>) {
    let mut log = Vec::new();
    let clock = WallClock::start(false);
    let run = openloop::run(&clock, rate, steps.len(), |i| {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let sent = Instant::now();
        let result = target.apply(steps[i].mutation());
        log.push(Applied {
            step: steps[i],
            sent,
            acked: Instant::now(),
            result,
        });
        true
    });
    (log, run.lateness_us)
}

struct QueryPhase {
    callers: Vec<CallerLog>,
    writes: Vec<Applied>,
    writer_lateness_us: Vec<f64>,
    steal_share: f64,
}

fn query_phase(
    stage: &Stage,
    live: &mut Live,
    steps: &[Step],
    seconds: f64,
    spans: Option<&mut SpanLog>,
) -> Result<QueryPhase, String> {
    let spec = stage.spec;
    let callers = stage.pin.callers(spec.callers);
    let steal = StealProbe::start(stage.pin.main);
    let mut phase = QueryPhase {
        callers: Vec::new(),
        writes: Vec::new(),
        writer_lateness_us: Vec::new(),
        steal_share: 0.0,
    };
    if let Some(rate) = spec.writes_beside_reads_per_s {
        let mut writer = live.second_target(spec)?;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let due = &steps[..steps.len().min((seconds * rate) as usize + 2)];
            let beside = scope.spawn(|| beside_writer(&mut *writer, due, rate, &stop));
            let log = query_loop(&mut *live.target, &stage.calls, 0, seconds, spans);
            stop.store(true, Ordering::Relaxed);
            phase.callers.push(log);
            if let Ok((writes, lateness)) = beside.join() {
                phase.writes = writes;
                phase.writer_lateness_us = lateness;
            }
        });
    } else if callers == 2 {
        let mut second = live.second_target(spec)?;
        let barrier = Barrier::new(2);
        let other_cpu = stage.pin.other;
        std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                // The one thread of this workload off the pinned CPU.
                let pinned = pin::pin_to(other_cpu);
                barrier.wait();
                let log = query_loop(&mut *second, &stage.calls, 1, seconds, None);
                (log, pinned)
            });
            barrier.wait();
            let log = query_loop(&mut *live.target, &stage.calls, 0, seconds, spans);
            phase.callers.push(log);
            match other.join() {
                Ok((log, Ok(()))) => phase.callers.push(log),
                Ok((_, Err(e))) => return Err(format!("second caller could not pin: {e}")),
                Err(_) => return Err("second caller panicked".to_string()),
            }
            Ok(())
        })?;
    } else {
        let log = query_loop(&mut *live.target, &stage.calls, 0, seconds, spans);
        phase.callers.push(log);
    }
    phase.steal_share = steal.share();
    Ok(phase)
}

/// Verifies everything the query phase recorded: every call against the
/// live map, a seeded subset also against the oracle.
fn judge_query_phase(stage: &Stage, phase: &QueryPhase, live_map: &LiveMap, gate: &mut Gate) {
    let oracle = Oracle::new(live_map);
    let mut oracle_left = ORACLE_CALLS_MAX;
    for log in &phase.callers {
        for (i, r) in log.recorded.iter().enumerate() {
            let results = match &r.answer {
                Ok(results) => results,
                Err(e) => {
                    gate.judge(Err(format!("call {i}: {e}")));
                    continue;
                }
            };
            let pick = splitmix64(stage.opts.seed ^ (i as u64) ^ ((log.caller as u64) << 40));
            let with_oracle = pick.is_multiple_of(ORACLE_ONE_IN) && oracle_left > 0;
            oracle_left -= usize::from(with_oracle);
            gate.judge(check::check_call(
                live_map,
                with_oracle.then_some(&oracle),
                &stage.calls[r.call],
                results,
                r.start,
                r.end,
            ));
        }
    }
}

struct MutationPhase {
    latency_us: Vec<f64>,
    /// Mutations per second of every equal-count block, in order.
    block_ops_s: Vec<f64>,
    elapsed: f64,
    steal_share: f64,
}

/// A mutation this many times slower than the median one — and within a
/// tenth of the slowest — is a stall that ends an amortisation cycle (the
/// pool→rebuild of `awit-dynamic`: 0.45 s against 0.45 us), not a hiccup.
const STALL_TIMES_MEDIAN: f64 = 1000.0;
/// Fewer stalls than this and the phase has no cycles to speak of.
const MIN_CYCLES: usize = 3;
/// Equal-count blocks of a phase without cycles.
const MUTATION_BLOCKS: usize = 10;

/// Rule 7 for the mutation phase: mutations per second of every block,
/// in order. Where mutations are cheap and a rebuild now and then is the
/// cost, a block is one whole cycle — the mutations up to and including a
/// stall — so every block holds exactly one rebuild; the tail after the
/// last stall is dropped. Elsewhere (every `ait` mutation costs about the
/// same) a block is a tenth of the phase. `ops` are `(sent, acked)`.
fn mutation_block_rates(ops: &[(Instant, Instant)]) -> Vec<f64> {
    let mut sorted: Vec<f64> = ops.iter().map(|(s, a)| (*a - *s).as_secs_f64()).collect();
    let in_order = sorted.clone();
    stats::sorted(&mut sorted);
    let slowest = sorted.last().copied().unwrap_or(0.0);
    let stall = (STALL_TIMES_MEDIAN * stats::median(&sorted)).max(slowest / 10.0);
    let rate = |block: &[(Instant, Instant)]| match (block.first(), block.last()) {
        (Some(first), Some(last)) => block.len() as f64 / (last.1 - first.0).as_secs_f64(),
        _ => 0.0,
    };
    let ends: Vec<usize> = (0..ops.len()).filter(|&i| in_order[i] >= stall).collect();
    if ends.len() >= MIN_CYCLES {
        let starts = std::iter::once(0).chain(ends.iter().map(|&e| e + 1));
        starts.zip(&ends).map(|(s, &e)| rate(&ops[s..=e])).collect()
    } else {
        let per_block = (ops.len() / MUTATION_BLOCKS).max(1);
        ops.chunks_exact(per_block).map(rate).collect()
    }
}

/// The fixed-count mutation phase: one writer, one mutation per call,
/// closed loop.
fn mutation_phase(
    stage: &Stage,
    live: &mut Live,
    steps: &[Step],
    live_map: &mut LiveMap,
    gate: &mut Gate,
    mut spans: Option<&mut SpanLog>,
) -> MutationPhase {
    let steal = StealProbe::start(stage.pin.main);
    let mut log = Vec::with_capacity(steps.len());
    let begin = Instant::now();
    for (i, &step) in steps.iter().enumerate() {
        let sent = Instant::now();
        let result = live.target.apply(step.mutation());
        let acked = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.push("mutation", sent, acked, i as u32);
        }
        log.push(Applied {
            step,
            sent,
            acked,
            result,
        });
    }
    let elapsed = begin.elapsed().as_secs_f64();
    let steal_share = steal.share();
    absorb(&log, live_map, gate);
    let ops: Vec<(Instant, Instant)> = log.iter().map(|a| (a.sent, a.acked)).collect();
    MutationPhase {
        block_ops_s: mutation_block_rates(&ops),
        latency_us: log
            .iter()
            .map(|a| (a.acked - a.sent).as_secs_f64() * 1e6)
            .collect(),
        elapsed,
        steal_share,
    }
}

/// After the mutations: counts through the top path must equal the
/// oracle over build data ± acked mutations, and the fixed narrow query,
/// drawn [`check::DISTRIBUTION_DRAWS`] times with pinned seeds, must
/// follow the exact distribution.
fn judge_final_state(stage: &Stage, live: &mut Live, live_map: &LiveMap, gate: &mut Gate) {
    let oracle = Oracle::new(live_map);
    let seed = stage.opts.seed;
    let counts: Vec<Query<i64>> = irs::datagen::QueryWorkload::from_data(&stage.dataset.data)
        .generate(POST_MUTATION_COUNTS, 1.0, seed ^ 0xC0_0175)
        .into_iter()
        .map(|q| Query::Count { q })
        .collect();
    let now = Instant::now();
    match live.target.run(&counts) {
        Ok(results) => gate.judge(check::check_call(
            live_map,
            Some(&oracle),
            &counts,
            &results,
            now,
            Instant::now(),
        )),
        Err(e) => gate.judge(Err(format!("post-mutation counts: {e}"))),
    }

    // Tune a query around a seeded data interval into the candidate
    // window; every step is a deterministic function of the seed.
    let anchor = stage.dataset.data[(splitmix64(seed) % stage.dataset.data.len() as u64) as usize];
    let mut half_width = 2_000i64;
    let narrow = |hw: i64| Interval64::new(anchor.lo - hw, anchor.hi + hw);
    for _ in 0..40 {
        let n = oracle.count(narrow(half_width));
        if n < *check::DISTRIBUTION_CANDIDATES.start() {
            half_width = half_width * 3 / 2;
        } else if n > *check::DISTRIBUTION_CANDIDATES.end() {
            half_width = half_width * 2 / 3;
        } else {
            break;
        }
    }
    let q = narrow(half_width);
    let candidates = oracle.candidates(q);
    let s = 1000;
    let query = [if stage.spec.weighted {
        Query::SampleWeighted { q, s }
    } else {
        Query::Sample { q, s }
    }];
    let mut draws: Vec<ItemId> = Vec::with_capacity(check::DISTRIBUTION_DRAWS);
    for i in 0..(check::DISTRIBUTION_DRAWS / s) as u64 {
        gate.attempt(1);
        match live.target.run_seeded(&query, splitmix64(seed ^ i)) {
            Ok(mut results) => match results.pop() {
                Some(Ok(QueryOutput::Samples(ids))) => draws.extend(ids),
                other => gate.fail(format!("distribution draw {i}: {other:?}")),
            },
            Err(e) => gate.fail(format!("distribution draw {i}: {e}")),
        }
    }
    gate.judge(check::check_distribution(&candidates, &draws));
}

impl Stage {
    /// Progress on stderr: which step ended, and when.
    pub fn progress(&self, what: &str) {
        eprintln!(
            "irs-benchmark: {:7.2} s  {what}",
            self.began.elapsed().as_secs_f64()
        );
    }
}

/// The measured numbers of one run, by metric name.
pub type Measured = Vec<(&'static str, Summary)>;

/// Everything one run produced.
pub struct Outcome {
    pub spec: &'static WorkloadSpec,
    pub opts: RunOptions,
    pub measured: Measured,
    pub gate: Gate,
    /// Reasons the run does not count (could not pin, child died, …).
    pub invalid: Vec<String>,
    pub host: Json,
    pub phases: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.invalid.is_empty() && self.gate.failed == 0
    }
}

pub fn run(spec: &'static WorkloadSpec, opts: RunOptions) -> Result<Outcome, String> {
    let pin = Pinning::establish();
    let host = host::fingerprint(&pin);
    let mut invalid = Vec::new();
    if let Some(e) = &pin.error {
        invalid.push(format!("could not pin: {e}"));
    }
    let stage = Stage::prepare(spec, opts, pin)?;
    stage.progress("inputs ready");
    let result = run_staged(&stage, host, invalid);
    let _ = std::fs::remove_dir_all(&stage.work);
    result
}

fn run_staged(stage: &Stage, host: Json, mut invalid: Vec<String>) -> Result<Outcome, String> {
    let spec = stage.spec;
    let opts = stage.opts;
    let mut gate = Gate::default();
    let mut measured = Measured::new();
    let mut live_map = LiveMap::new(&stage.dataset);
    let mut spans = opts.trace.then(SpanLog::default);
    // A traced run runs the same phases as a plain one, with a span
    // recorded around every call, and the ladder after them.
    let (seconds, mutations) = (opts.seconds, stage.scale.mutations);
    let steps = workload::mutation_stream(
        // Enough for the writes beside the reads and the phase after.
        mutations + (seconds * spec.writes_beside_reads_per_s.unwrap_or(0.0)) as usize + 2,
        stage.scale.n,
        spec.weighted,
        opts.seed,
    );
    let run_steal = StealProbe::start(stage.pin.main);

    // Set-ups, back to back; the last one stays up for the phases.
    let setup_steal = StealProbe::start(stage.pin.main);
    let mut setup_times = Vec::new();
    let mut live = None;
    for _ in 0..=stage.scale.timed_setups {
        // Dropping a `Server` kills the child and waits for it: the
        // set-ups before the last owe nobody a drain or a catalog save.
        drop(live.take());
        gate.attempt(1);
        let (up, seconds) = stage.set_up(&live_map)?;
        setup_times.push(seconds);
        live = Some(up);
    }
    let mut live = live.ok_or("no set-up ran")?;
    let setup_steal = setup_steal.share();
    stage.progress("set-ups done");
    let (cold, setup) = stats::setup_times(&setup_times);
    measured.push(("setup_s", setup));
    measured.push(("setup_cold_s", Summary::exact(cold, 1)));
    let heap = stage.heap_bytes(&live) as f64 / stage.scale.n as f64;
    measured.push(("heap_bytes_per_interval", Summary::exact(heap, 1)));
    let rss = match &live.server {
        Some(server) => server.rss_mib(),
        None => host::rss_mib(std::process::id()),
    };
    // An unreadable RSS must not pass for a small one.
    if rss.is_none() {
        invalid.push("VmRSS of the process holding the index could not be read".to_string());
    }
    measured.push(("rss_mib", Summary::exact(rss.unwrap_or(f64::NAN), 1)));

    // Query phase.
    let phase = query_phase(stage, &mut live, &steps, seconds, spans.as_mut())?;
    let beside = phase.writes.len();
    absorb(&phase.writes, &mut live_map, &mut gate);
    stage.progress("query phase done");
    judge_query_phase(stage, &phase, &live_map, &mut gate);
    stage.progress("query phase verified");
    let mut by_block = blocks(&phase.callers, spec.call.queries_per_call());
    let calls: usize = phase.callers.iter().map(|c| c.recorded.len()).sum();
    let elapsed = phase.callers.iter().map(|c| c.elapsed).fold(0.0, f64::max);
    let whole_phase_qps = (calls * spec.call.queries_per_call()) as f64 / elapsed;
    let mut latency: Vec<f64> = phase
        .callers
        .iter()
        .flat_map(CallerLog::latencies_us)
        .collect();
    let whole_phase_p50_us = stats::median(stats::sorted(&mut latency));
    // In time order for the result file: bursts of the host show there.
    let (block_p50_us, block_qps) = (by_block.p50_us.clone(), by_block.qps.clone());
    measured.push(("query_qps", Summary::best_of(&mut by_block.qps, true)));
    measured.push((
        "query_p50_us",
        Summary::best_of(&mut by_block.p50_us, false),
    ));
    measured.push((
        "query_p99_us",
        Summary::exact(stats::percentile(&latency, 99.0), latency.len()),
    ));
    if spec.writes_beside_reads_per_s.is_some() {
        let stall = latency.last().copied().unwrap_or(0.0);
        measured.push(("read_stall_max_us", Summary::exact(stall, latency.len())));
        let mut lateness = phase.writer_lateness_us.clone();
        let p99 = stats::percentile(stats::sorted(&mut lateness), 99.0);
        measured.push((
            "irs_server.loadgen.writer_lateness_p99_us",
            Summary::exact(p99, lateness.len()),
        ));
    }

    // Mutation phase, continuing the stream where the writes beside the
    // reads left off.
    let rest = &steps[beside..beside + mutations];
    let mutated = mutation_phase(
        stage,
        &mut live,
        rest,
        &mut live_map,
        &mut gate,
        spans.as_mut(),
    );
    let mut latency = mutated.latency_us;
    measured.push((
        "mutation_ops_s",
        Summary::best_of(&mut mutated.block_ops_s.clone(), true),
    ));
    measured.push(("mutation_p50_us", Summary::of(&mut latency)));
    let p99 = stats::percentile(&latency, 99.0);
    measured.push(("mutation_p99_us", Summary::exact(p99, latency.len())));
    let max = latency.last().copied().unwrap_or(0.0);
    measured.push(("mutation_max_us", Summary::exact(max, latency.len())));
    measured.push(("host.steal_share", Summary::exact(run_steal.share(), 1)));
    stage.progress("mutation phase done");

    judge_final_state(stage, &mut live, &live_map, &mut gate);
    stage.progress("final state verified");

    if let Some(server) = &mut live.server {
        if !server.alive() {
            invalid.push("the server child died".to_string());
        }
    }
    match live.stop() {
        Ok(Some(stats)) if stats.protocol_errors > 0 => gate.fail(format!(
            "wire Stats report {} protocol errors",
            stats.protocol_errors
        )),
        Ok(_) => {}
        Err(e) => invalid.push(format!("the server child did not stop cleanly: {e}")),
    }

    let mut phases = Json::obj()
        .with(
            "setup",
            Json::obj()
                .with("seconds", setup_times.clone())
                .with("steal_share", setup_steal),
        )
        .with(
            "query",
            Json::obj()
                .with("seconds", elapsed)
                .with("calls", calls)
                .with("callers", phase.callers.len())
                .with("writes_beside", beside)
                .with("whole_phase_qps", whole_phase_qps)
                .with("whole_phase_p50_us", whole_phase_p50_us)
                .with("block_seconds", BLOCK_SECONDS)
                .with("block_p50_us", block_p50_us)
                .with("block_qps", block_qps)
                .with("steal_share", phase.steal_share),
        )
        .with(
            "mutation",
            Json::obj()
                .with("seconds", mutated.elapsed)
                .with("count", rest.len())
                .with("whole_phase_ops_s", rest.len() as f64 / mutated.elapsed)
                .with("block_ops_s", mutated.block_ops_s.clone())
                .with("steal_share", mutated.steal_share),
        );

    if let Some(mut spans) = spans {
        let ladder = trace::run(stage, &mut spans, &mut gate, &mut invalid)?;
        measured.extend(ladder.measured);
        phases.set("ladder", ladder.report);
        let path = out_dir().join(format!("trace-{}.json", spec.name));
        spans
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    phases.set("harness_peak_rss_mib", host::own_peak_rss_mib());
    Ok(Outcome {
        spec,
        opts,
        measured,
        gate,
        invalid,
        host,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One caller's log of back-to-back calls, `latency_ms` each, starting
    /// `offset_ms` after `origin`.
    fn caller(origin: Instant, caller: usize, offset_ms: u64, latency_ms: &[u64]) -> CallerLog {
        let begin = origin + Duration::from_millis(offset_ms);
        let mut at = begin;
        let recorded = latency_ms
            .iter()
            .map(|&ms| {
                let start = at;
                at += Duration::from_millis(ms);
                Recorded {
                    call: 0,
                    start,
                    end: at,
                    answer: Ok(Vec::new()),
                }
            })
            .collect();
        CallerLog {
            caller,
            begin,
            recorded,
            elapsed: (at - begin).as_secs_f64(),
        }
    }

    #[test]
    fn blocks_count_completions_and_take_medians_per_quarter_second() {
        let origin = Instant::now();
        // 100 ms calls for a second, a 600 ms stall, then 50 ms calls: the
        // stall leaves one block empty and ends in the next but one, whose
        // median latency it does not move.
        let mut latency = vec![100; 10];
        latency.push(600);
        latency.extend([50; 18]);
        let one = caller(origin, 0, 0, &latency);
        assert!((one.elapsed - 2.5).abs() < 1e-9);
        let b = blocks(std::slice::from_ref(&one), 16);
        // A call ending exactly on a boundary belongs to the block it opens;
        // the call that ends the phase opens a block that is not full.
        let completions = [2.0, 2.0, 3.0, 2.0, 1.0, 0.0, 3.0, 5.0, 5.0, 5.0];
        assert_eq!(b.qps, completions.map(|n| n * 16.0 / BLOCK_SECONDS));
        assert_eq!(
            b.p50_us,
            [100.0, 100.0, 100.0, 100.0, 100.0, 50.0, 50.0, 50.0, 50.0].map(|ms| ms * 1000.0)
        );

        // Two callers: a block holds the completions of both, and only
        // blocks that every caller ran through in full count.
        let two = caller(origin, 1, 0, &[250; 7]);
        let b = blocks(&[one, two], 1);
        assert_eq!(b.qps.len(), 7);
        assert_eq!(b.qps[1], (2.0 + 1.0) / BLOCK_SECONDS);
        assert!(blocks(&[], 1).qps.is_empty());
    }

    /// Back-to-back mutations of the given durations, in microseconds.
    fn ops(origin: Instant, latency_us: &[u64]) -> Vec<(Instant, Instant)> {
        let mut at = origin;
        latency_us
            .iter()
            .map(|&us| {
                let sent = at;
                at += Duration::from_micros(us);
                (sent, at)
            })
            .collect()
    }

    #[test]
    fn mutation_blocks_are_rebuild_cycles_or_tenths() {
        let origin = Instant::now();
        // Four cycles of 99 pool pushes (1 us) and a rebuild (0.1 s, the
        // second one slowed to 0.2 s), a 5 ms hiccup inside the third, and
        // a tail of pushes without a rebuild.
        let mut latency = Vec::new();
        for rebuild_us in [100_000, 200_000, 100_000, 100_000] {
            latency.extend([1; 99]);
            latency.push(rebuild_us);
        }
        latency[250] = 5_000;
        latency.extend([1; 50]);
        let rates = mutation_block_rates(&ops(origin, &latency));
        assert_eq!(
            rates.len(),
            4,
            "one block per rebuild, tail dropped: {rates:?}"
        );
        let per_s = |busy_us: f64| 100.0 / (busy_us * 1e-6);
        assert!((rates[0] - per_s(100_099.0)).abs() < 1e-6);
        assert!((rates[1] - per_s(200_099.0)).abs() < 1e-6);
        assert!(
            (rates[2] - per_s(105_098.0)).abs() < 1e-6,
            "the hiccup is no stall"
        );

        // Mutations that all cost about the same: ten equal-count blocks,
        // however slow the slowest is.
        let mut even = vec![5_000; 1000];
        even[1] = 150_000;
        let rates = mutation_block_rates(&ops(origin, &even));
        assert_eq!(rates.len(), 10);
        assert!((rates[9] - 200.0).abs() < 1e-6);
        assert!(rates[0] < rates[9]);
        assert!(mutation_block_rates(&[]).is_empty());
    }
}
