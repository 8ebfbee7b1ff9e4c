//! `irs-cli` — command-line front end for the library.
//!
//! ```text
//! irs-cli generate     --profile taxi --n 100000 --out trips.csv
//! irs-cli count        --data trips.csv --lo 100 --hi 5000
//! irs-cli sample       --data trips.csv --lo 100 --hi 5000 --s 10 [--weighted]
//! irs-cli stab         --data trips.csv --at 250
//! irs-cli bench-engine --n 1000000 --shards 1,2,4,8 --batches 64,256
//! irs-cli bench-updates --n 1000000 --updates 100000 --shards 1,4
//! irs-cli snapshot save --data trips.csv --kind ait --shards 4 --out snap/
//! irs-cli snapshot inspect --dir snap/
//! irs-cli snapshot load --dir snap/ --lo 100 --hi 5000 --s 10
//! irs-cli serve        --data trips.csv --addr 127.0.0.1:7878
//! irs-cli remote 127.0.0.1:7878 count --lo 100 --hi 5000
//! ```
//!
//! Data files are CSV with one `lo,hi[,weight]` triple per line (header
//! lines starting with a letter may open the file). No external
//! dependencies — argument parsing is by hand.

use irs::cli::Opts;
use irs::prelude::*;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `remote` takes a positional address and action before its options.
    if cmd == "remote" {
        let result = match (args.get(1), args.get(2)) {
            (Some(addr), Some(action)) => Opts::parse(args.get(3..).unwrap_or(&[]))
                .map_err(RemoteError::from)
                .and_then(|opts| cmd_remote(addr, action, &opts)),
            _ => Err(RemoteError::from(
                "remote needs an address and an action: \
                 irs-cli remote <HOST:PORT> <ACTION> [options]"
                    .to_string(),
            )),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                // Runtime errors (connection refused, typed wire
                // refusals) are self-describing; the usage dump is for
                // argument mistakes only.
                eprintln!("error: {}", e.message);
                if let Some(code) = e.code {
                    // Scriptable: the numeric wire code alone after the
                    // prefix, greppable as `^wire-code: `.
                    eprintln!("wire-code: {}", code as u16);
                }
                ExitCode::FAILURE
            }
        };
    }
    // `snapshot` takes a positional action before its options.
    if cmd == "snapshot" {
        let result = match args.get(1) {
            None => Err("snapshot needs an action: save | load | inspect".to_string()),
            Some(action) => Opts::parse(args.get(2..).unwrap_or(&[]))
                .and_then(|opts| cmd_snapshot(action, &opts)),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match Opts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "count" => cmd_count(&opts),
        "sample" => cmd_sample(&opts),
        "stab" => cmd_stab(&opts),
        "bench-engine" => cmd_bench_engine(&opts),
        "bench-updates" => cmd_bench_updates(&opts),
        "serve" => irs::cli::serve(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
irs-cli — independent range sampling on interval data

USAGE:
  irs-cli generate --profile <book|btc|renfe|taxi> --n <N> --out <FILE> [--seed <S>]
  irs-cli count    --data <FILE> --lo <LO> --hi <HI>
  irs-cli sample   --data <FILE> --lo <LO> --hi <HI> --s <S> [--weighted] [--seed <S>]
  irs-cli stab     --data <FILE> --at <P>
  irs-cli bench-engine [--profile <P>] [--n <N>] [--kind <K>]
                       [--shards <K1,K2,..>] [--batches <B1,B2,..>] [--threads <T1,T2,..>]
                       [--s <S>] [--queries <Q>] [--extent <PCT>] [--seed <S>]
                       [--compare <BASELINE.json>]
  irs-cli bench-updates [--profile <P>] [--n <N>] [--kind <ait|awit-dynamic>] [--weighted]
                        [--updates <U>] [--shards <K1,K2,..>] [--seed <S>]
  irs-cli snapshot save    --data <FILE> --out <DIR> [--kind <K>] [--shards <N>]
                           [--weighted] [--seed <S>]
  irs-cli snapshot inspect --dir <DIR>
  irs-cli snapshot load    --dir <DIR> [--lo <LO> --hi <HI> --s <S>]
  irs-cli serve    (--data <FILE> | --snapshot <DIR> | --catalog <DIR>) [--addr <HOST:PORT>]
                   [--kind <K>] [--shards <N>] [--weighted] [--seed <S>] [--wal <FILE>]
  irs-cli serve    --replica-of <HOST:PORT> --replica-dir <DIR> [--addr <HOST:PORT>]
  irs-cli remote <HOST:PORT> <ACTION> [options]
     ACTION: health | stats | shutdown | promote | replication-status
           | count --lo <LO> --hi <HI> [--collection <NAME>]
           | sample --lo <LO> --hi <HI> --s <S> [--seed <S>] [--weighted] [--collection <NAME>]
           | stab --at <P> [--collection <NAME>]
           | insert --lo <LO> --hi <HI> [--weight <W>] [--collection <NAME>]
           | delete --id <ID> [--collection <NAME>]
           | save --out <DIR> | inspect --dir <DIR> | load --dir <DIR>
           | create --name <NAME> [--kind <K|auto>] [--shards <N>] [--seed <S>]
                    [--weighted] [--update-rate <R>] [--extent <X>]
           | drop --name <NAME> | ls | reindex --name <NAME> --kind <K>
           | save-catalog --out <DIR> | load-catalog --dir <DIR>

bench-engine measures engine queries/sec (sample + search workloads) at
each shard count × batch size × caller-thread count on a synthetic
dataset (default: 1,000,000 taxi-profile intervals, shard counts
1..num_cpus doubling, threads 1..num_cpus doubling, s = 1000). The
--threads axis drives the shared engine from that many concurrent
caller threads — the multi-caller scaling curve of the concurrent read
path — and every cell is also emitted as a machine-readable JSONL row
(`grep '^{'` to collect). With --compare <BASELINE.json> it instead
re-runs every bench-engine row of a pinned baseline file (the committed
BENCH_*.json shape, a bare row array, or collected JSONL) and prints
per-row sample/search QPS deltas plus a geometric-mean summary; the
matrix comes from the baseline rows, only --seed/--extent apply.

bench-updates measures live-update throughput (Table VII's axes: one-by-one
insertion, pooled batch insertion, deletion) through the unified client at
each shard count, emitting both a human table and machine-readable JSONL
rows (`grep '^{'` to collect).

snapshot saves a built backend (any kind, any shard count) to a
directory of CRC-checked files, inspects a snapshot's manifest without
loading it, and loads one back — skipping index construction — ready to
serve (optionally proving it with one sample query). See DESIGN.md,
\"On-disk snapshot format\".

serve runs the irs-server daemon in-process over a freshly built backend
(--data, with the same build options as snapshot save), a loaded
snapshot (--snapshot), or a multi-tenant catalog directory (--catalog:
an existing catalog.irs is loaded, a fresh directory starts empty, and
the tenancy is saved back on drain); default address 127.0.0.1:7878,
port 0 for an OS-assigned port. It serves until a remote `shutdown`
arrives, then drains gracefully. remote speaks the wire protocol to any
running server — snapshot and catalog paths name directories on the
*server's* filesystem. On a catalog server, data actions take
--collection <NAME> (untagged actions address the collection named
\"default\"), and create/drop/ls/reindex manage the tenancy —
`--kind auto` (the default) lets the planner pick from --update-rate,
--extent, and --weighted. A typed server refusal prints its numeric
code on stderr as `wire-code: <N>` and exits non-zero. See DESIGN.md,
\"Wire protocol\" and \"Catalog\".

--wal <FILE> puts the server on the replication writer seat: every
acked mutation batch is appended to the write-ahead log (fsynced
before the ack leaves) so replicas can bootstrap and follow, and a
crash recovers to the last acked batch. On startup an existing log is
recovered — with --snapshot the checkpoint sidecar picks the replay
start (point-in-time recovery); a torn trailing record is truncated.
serve --replica-of bootstraps a *read-only* replica into --replica-dir
(snapshot fetch, then live log tailing); `remote promote` hands it the
writer seat, and `remote replication-status` prints any node's role
and log position. See DESIGN.md, \"Replication\".

Data files: CSV lines `lo,hi[,weight]`.";

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let profile = match opts.req("profile")? {
        "book" => irs::datagen::BOOK,
        "btc" => irs::datagen::BTC,
        "renfe" => irs::datagen::RENFE,
        "taxi" => irs::datagen::TAXI,
        other => return Err(format!("unknown profile `{other}`")),
    };
    let n: usize = opts.num("n")?;
    let seed: u64 = opts.num_or("seed", 42)?;
    let path = opts.req("out")?;
    let data = profile.generate(n, seed);
    let weights = irs::datagen::uniform_weights(n, seed ^ 1);
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(file);
    for (iv, wt) in data.iter().zip(&weights) {
        writeln!(w, "{},{},{}", iv.lo, iv.hi, wt).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    println!("wrote {n} {}-profile intervals to {path}", profile.name);
    Ok(())
}

/// CSV loading now lives in `irs::datagen` (shared with `irs-server`).
fn load(path: &str) -> Result<(Vec<Interval64>, Vec<f64>), String> {
    irs::datagen::load_csv(path)
}

fn cmd_count(opts: &Opts) -> Result<(), String> {
    let (data, _) = load(opts.req("data")?)?;
    let q = Interval::new(opts.num::<i64>("lo")?, opts.num::<i64>("hi")?);
    let client = Irs::builder()
        .kind(IndexKind::Ait)
        .build(&data)
        .map_err(|e| e.to_string())?;
    println!("{}", client.count(q).map_err(|e| e.to_string())?);
    Ok(())
}

fn cmd_sample(opts: &Opts) -> Result<(), String> {
    let (data, weights) = load(opts.req("data")?)?;
    let q = Interval::new(opts.num::<i64>("lo")?, opts.num::<i64>("hi")?);
    let s: usize = opts.num("s")?;
    let seed: u64 = opts.num_or("seed", 42)?;
    // One facade, two problems: AWIT for weighted IRS, AIT for uniform.
    // (The loader has already validated the weights with file:line
    // errors; the builder re-validates as its own gate.)
    let weighted = opts.get("weighted").is_some();
    let builder = if weighted {
        Irs::builder()
            .kind(IndexKind::Awit)
            .weights(weights.clone())
    } else {
        Irs::builder().kind(IndexKind::Ait)
    };
    let client = builder.seed(seed).build(&data).map_err(|e| e.to_string())?;
    let ids = if weighted {
        client.sample_weighted(q, s)
    } else {
        client.sample(q, s)
    }
    .map_err(|e| e.to_string())?;
    if ids.is_empty() {
        eprintln!("(empty result set)");
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for id in ids {
        let iv = data[id as usize];
        writeln!(out, "{}\t{},{}\t{}", id, iv.lo, iv.hi, weights[id as usize])
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_stab(opts: &Opts) -> Result<(), String> {
    let (data, _) = load(opts.req("data")?)?;
    let p: i64 = opts.num("at")?;
    let client = Irs::builder()
        .kind(IndexKind::Ait)
        .build(&data)
        .map_err(|e| e.to_string())?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for id in client.stab(p).map_err(|e| e.to_string())? {
        let iv = data[id as usize];
        writeln!(out, "{}\t{},{}", id, iv.lo, iv.hi).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_snapshot(action: &str, opts: &Opts) -> Result<(), String> {
    match action {
        "save" => {
            let (data, weights) = load(opts.req("data")?)?;
            let dir = opts.req("out")?;
            let kind = match opts.get("kind") {
                None => IndexKind::Ait,
                Some(name) => {
                    IndexKind::parse(name).ok_or_else(|| format!("unknown kind `{name}`"))?
                }
            };
            let shards: usize = opts.num_or("shards", 1)?;
            let seed: u64 = opts.num_or("seed", 42)?;
            let mut builder = Irs::builder().kind(kind).shards(shards).seed(seed);
            if opts.get("weighted").is_some() {
                builder = builder.weights(weights);
            }
            let built = std::time::Instant::now();
            let client = builder.build(&data).map_err(|e| e.to_string())?;
            let build_ms = built.elapsed().as_secs_f64() * 1e3;
            let saved = std::time::Instant::now();
            client.save(dir).map_err(|e| e.to_string())?;
            let save_ms = saved.elapsed().as_secs_f64() * 1e3;
            let bytes: u64 = std::fs::read_dir(dir)
                .map_err(|e| e.to_string())?
                .filter_map(|f| f.and_then(|f| f.metadata()).ok())
                .map(|m| m.len())
                .sum();
            println!(
                "saved {} × {} shard(s) ({} intervals, {bytes} bytes) to {dir} \
                 [build {build_ms:.0} ms, save {save_ms:.0} ms]",
                kind,
                client.shard_count(),
                client.len(),
            );
            Ok(())
        }
        "inspect" => {
            let info = irs::inspect_snapshot(opts.req("dir")?).map_err(|e| e.to_string())?;
            let m = &info.manifest;
            println!("format-version: {}", info.format_version);
            println!("snapshot-id:    {:#018x}", m.snapshot_id);
            println!("kind:           {}", m.kind);
            println!("endpoint:       {}", m.endpoint);
            println!("weighted:       {}", m.weighted);
            println!("shards:         {}", m.shards);
            println!("seed:           {}", m.seed);
            println!("batch-counter:  {}", m.batch_counter);
            println!("live intervals: {}", m.len);
            println!("shard lengths:  {:?}", m.shard_lens);
            Ok(())
        }
        "load" => {
            let dir = opts.req("dir")?;
            let loaded = std::time::Instant::now();
            let client = Client::<i64>::load(dir).map_err(|e| e.to_string())?;
            let load_ms = loaded.elapsed().as_secs_f64() * 1e3;
            println!(
                "loaded {} × {} shard(s), {} live intervals [{load_ms:.0} ms]",
                client.kind(),
                client.shard_count(),
                client.len(),
            );
            if let (Some(_), Some(_)) = (opts.get("lo"), opts.get("hi")) {
                let q = Interval::new(opts.num::<i64>("lo")?, opts.num::<i64>("hi")?);
                let s: usize = opts.num_or("s", 10)?;
                let ids = client.sample(q, s).map_err(|e| e.to_string())?;
                println!("sample({q:?}, {s}) -> {ids:?}");
            }
            Ok(())
        }
        other => Err(format!(
            "unknown snapshot action `{other}` (want save | load | inspect)"
        )),
    }
}

/// Comma-separated positive-count list option, e.g. `--shards 1,2,4,8`
/// (same syntax and validation as the bench binaries' env knobs).
fn num_list(opts: &Opts, key: &str, default: Vec<usize>) -> Result<Vec<usize>, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => irs::engine_throughput::parse_count_list(v).map_err(|e| format!("--{key}: {e}")),
    }
}

fn cmd_bench_engine(opts: &Opts) -> Result<(), String> {
    if let Some(path) = opts.get("compare") {
        return cmd_bench_engine_compare(opts, path);
    }
    let profile = match opts.get("profile").unwrap_or("taxi") {
        "book" => irs::datagen::BOOK,
        "btc" => irs::datagen::BTC,
        "renfe" => irs::datagen::RENFE,
        "taxi" => irs::datagen::TAXI,
        other => return Err(format!("unknown profile `{other}`")),
    };
    let kind = match opts.get("kind") {
        None => IndexKind::Ait,
        Some(name) => IndexKind::parse(name).ok_or_else(|| format!("unknown kind `{name}`"))?,
    };
    let n: usize = opts.num_or("n", 1_000_000)?;
    let s: usize = opts.num_or("s", 1_000)?;
    let query_count: usize = opts.num_or("queries", 2_048)?;
    let extent: f64 = opts.num_or("extent", 1.0)?;
    if !(0.0..=100.0).contains(&extent) {
        return Err(format!(
            "--extent: {extent} is not a percentage in [0, 100]"
        ));
    }
    let seed: u64 = opts.num_or("seed", 42)?;
    let cpus = irs::engine_throughput::cpu_count();
    let shard_counts = num_list(
        opts,
        "shards",
        irs::engine_throughput::default_shard_sweep(),
    )?;
    let batch_sizes = num_list(opts, "batches", vec![64, 256, 1024])?;
    // Caller-thread axis: how many threads hammer the shared engine at
    // once. Defaults to the same doubling sweep as shards, so the
    // multi-caller scaling curve lands in the JSONL by default.
    let thread_counts = num_list(
        opts,
        "threads",
        irs::engine_throughput::default_shard_sweep(),
    )?;

    println!(
        "# engine throughput — kind = {kind}, profile = {}, n = {n}, s = {s}",
        profile.name
    );
    println!("# {query_count} queries at {extent}% extent, seed = {seed}, {cpus} CPUs");
    let data = profile.generate(n, seed);
    let queries =
        irs::datagen::QueryWorkload::from_data(&data).generate(query_count, extent, seed ^ 0xBE7C);
    // `threaded_qps` can't run more callers than there are queries;
    // clamp (and dedup) here so every printed/emitted row reports a
    // concurrency level that actually ran.
    let mut thread_counts: Vec<usize> = thread_counts
        .into_iter()
        .map(|t| t.min(queries.len().max(1)))
        .collect();
    thread_counts.dedup();
    println!(
        "{:>7} {:>7} {:>8} {:>14} {:>14}",
        "shards", "batch", "threads", "sample q/s", "search q/s"
    );
    // Scaling ratio baseline: the *first thread count's* run at the
    // same shard count and batch size, labeled with that count (only
    // "vs 1-thread" when the list starts at 1).
    let base_threads = thread_counts[0];
    for &shards in &shard_counts {
        let engine = Engine::try_new(&data, EngineConfig::new(kind).shards(shards).seed(seed))
            .map_err(|e| e.to_string())?;
        for &batch in &batch_sizes {
            let mut baseline_sample: Option<f64> = None;
            for &threads in &thread_counts {
                let sample_qps =
                    irs::engine_throughput::threaded_qps(&engine, &queries, threads, batch, |&q| {
                        Query::Sample { q, s }
                    });
                let search_qps =
                    irs::engine_throughput::threaded_qps(&engine, &queries, threads, batch, |&q| {
                        Query::Search { q }
                    });
                let speedup = match baseline_sample {
                    None => {
                        baseline_sample = Some(sample_qps);
                        String::new()
                    }
                    Some(base) => {
                        format!(
                            "  ({:.2}x sample vs {base_threads}-thread)",
                            sample_qps / base
                        )
                    }
                };
                println!(
                    "{shards:>7} {batch:>7} {threads:>8} {sample_qps:>14.0} {search_qps:>14.0}{speedup}"
                );
                irs_bench::JsonRow::new("bench-engine")
                    .str("kind", kind.name())
                    .str("profile", profile.name)
                    .int("n", n)
                    .int("shards", shards)
                    .int("batch", batch)
                    .int("threads", threads)
                    .int("s", s)
                    .int("queries", queries.len())
                    .num("sample_qps", sample_qps)
                    .num("search_qps", search_qps)
                    .emit();
            }
        }
    }
    Ok(())
}

/// `bench-engine --compare <baseline.json>`: re-runs every
/// `bench-engine` row of a pinned baseline file (the committed
/// `BENCH_*.json` shape, a bare row array, or JSONL) on this machine
/// and prints per-row QPS deltas. Rows keep the baseline's own matrix
/// (kind, n, shards, batch, threads, s, queries); only `--seed` and
/// `--extent` come from the command line, defaulting to the pinned
/// values.
fn cmd_bench_engine_compare(opts: &Opts, path: &str) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("--compare: {path}: {e}"))?;
    let rows =
        irs_bench::baseline::baseline_rows(&doc).map_err(|e| format!("--compare: {path}: {e}"))?;
    let seed: u64 = opts.num_or("seed", 42)?;
    let extent: f64 = opts.num_or("extent", 1.0)?;

    let field = |row: &irs_bench::baseline::JsonValue, key: &'static str| {
        row.get(key)
            .cloned()
            .ok_or_else(|| format!("--compare: row missing `{key}`"))
    };
    println!("# engine throughput vs baseline {path} (seed = {seed})");
    println!(
        "{:>13} {:>8} {:>7} {:>7} {:>8} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "kind",
        "n",
        "shards",
        "batch",
        "threads",
        "base smp/s",
        "now smp/s",
        "Δsmp",
        "base srch/s",
        "now srch/s",
        "Δsrch"
    );
    // Builds are the expensive part; baselines group rows by (kind, n,
    // shards), so caching the last dataset and engine re-runs the whole
    // pinned matrix with one build per group.
    let mut data_key: Option<(String, usize)> = None;
    let mut data: Vec<Interval64> = Vec::new();
    let mut engine_key: Option<(String, String, usize, usize)> = None;
    let mut engine: Option<Engine<i64>> = None;
    let mut sample_ratios: Vec<f64> = Vec::new();
    let mut search_ratios: Vec<f64> = Vec::new();
    for row in &rows {
        if row.get("experiment").and_then(|v| v.as_str()) != Some("bench-engine") {
            continue;
        }
        let kind_name = field(row, "kind")?
            .as_str()
            .map(str::to_string)
            .ok_or("--compare: `kind` is not a string")?;
        let kind = IndexKind::parse(&kind_name)
            .ok_or_else(|| format!("--compare: unknown kind `{kind_name}`"))?;
        let profile_name = field(row, "profile")?
            .as_str()
            .map(str::to_lowercase)
            .ok_or("--compare: `profile` is not a string")?;
        let profile = match profile_name.as_str() {
            "book" => irs::datagen::BOOK,
            "btc" => irs::datagen::BTC,
            "renfe" => irs::datagen::RENFE,
            "taxi" => irs::datagen::TAXI,
            other => return Err(format!("--compare: unknown profile `{other}`")),
        };
        let as_count = |key: &'static str| -> Result<usize, String> {
            field(row, key)?
                .as_usize()
                .ok_or_else(|| format!("--compare: `{key}` is not a count"))
        };
        let n = as_count("n")?;
        let shards = as_count("shards")?;
        let batch = as_count("batch")?;
        let threads = as_count("threads")?;
        let s = as_count("s")?;
        let query_count = as_count("queries")?;
        let base_sample = field(row, "sample_qps")?
            .as_f64()
            .ok_or("--compare: `sample_qps` is not a number")?;
        let base_search = field(row, "search_qps")?
            .as_f64()
            .ok_or("--compare: `search_qps` is not a number")?;

        let dkey = (profile_name.clone(), n);
        if data_key.as_ref() != Some(&dkey) {
            data = profile.generate(n, seed);
            data_key = Some(dkey);
            engine_key = None;
        }
        let ekey = (kind_name.clone(), profile_name.clone(), n, shards);
        if engine_key.as_ref() != Some(&ekey) {
            engine = Some(
                Engine::try_new(&data, EngineConfig::new(kind).shards(shards).seed(seed))
                    .map_err(|e| e.to_string())?,
            );
            engine_key = Some(ekey);
        }
        let engine = engine.as_ref().expect("engine built above");
        let queries = irs::datagen::QueryWorkload::from_data(&data).generate(
            query_count,
            extent,
            seed ^ 0xBE7C,
        );
        let threads = threads.min(queries.len().max(1));
        let sample_qps =
            irs::engine_throughput::threaded_qps(engine, &queries, threads, batch, |&q| {
                Query::Sample { q, s }
            });
        let search_qps =
            irs::engine_throughput::threaded_qps(engine, &queries, threads, batch, |&q| {
                Query::Search { q }
            });
        let pct = |now: f64, base: f64| (now / base - 1.0) * 100.0;
        println!(
            "{:>13} {:>8} {:>7} {:>7} {:>8} {:>12.0} {:>12.0} {:>+7.1}% {:>12.0} {:>12.0} {:>+7.1}%",
            kind_name, n, shards, batch, threads,
            base_sample, sample_qps, pct(sample_qps, base_sample),
            base_search, search_qps, pct(search_qps, base_search),
        );
        sample_ratios.push(sample_qps / base_sample);
        search_ratios.push(search_qps / base_search);
        irs_bench::JsonRow::new("bench-engine-compare")
            .str("kind", kind.name())
            .str("profile", profile.name)
            .int("n", n)
            .int("shards", shards)
            .int("batch", batch)
            .int("threads", threads)
            .int("s", s)
            .int("queries", query_count)
            .num("baseline_sample_qps", base_sample)
            .num("sample_qps", sample_qps)
            .num("baseline_search_qps", base_search)
            .num("search_qps", search_qps)
            .emit();
    }
    if sample_ratios.is_empty() {
        return Err(format!("--compare: no bench-engine rows in {path}"));
    }
    let geomean =
        |ratios: &[f64]| (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!(
        "# geometric mean vs baseline over {} rows: sample {:.2}x, search {:.2}x",
        sample_ratios.len(),
        geomean(&sample_ratios),
        geomean(&search_ratios),
    );
    Ok(())
}

/// Table VII through the unified client: one-by-one insertion, pooled
/// batch insertion, and deletion throughput per shard count, as a human
/// table plus `JsonRow` JSONL for the bench trajectory.
fn cmd_bench_updates(opts: &Opts) -> Result<(), String> {
    let profile = match opts.get("profile").unwrap_or("taxi") {
        "book" => irs::datagen::BOOK,
        "btc" => irs::datagen::BTC,
        "renfe" => irs::datagen::RENFE,
        "taxi" => irs::datagen::TAXI,
        other => return Err(format!("unknown profile `{other}`")),
    };
    let kind = match opts.get("kind") {
        None => IndexKind::Ait,
        Some(name) => IndexKind::parse(name).ok_or_else(|| format!("unknown kind `{name}`"))?,
    };
    if !kind.capabilities(false).update {
        return Err(format!(
            "kind `{kind}` is a static snapshot; update-capable kinds: ait, awit-dynamic"
        ));
    }
    let weighted = opts.get("weighted").is_some();
    if weighted && !kind.supports_mutation(true, UpdateOp::InsertWeighted) {
        return Err(format!("kind `{kind}` cannot ingest weighted intervals"));
    }
    let n: usize = opts.num_or("n", 1_000_000)?;
    let updates: usize = opts.num_or("updates", 100_000)?;
    let seed: u64 = opts.num_or("seed", 42)?;
    let shard_counts = num_list(opts, "shards", vec![1, irs::engine_throughput::cpu_count()])?;

    println!(
        "# live-update throughput — kind = {kind}, profile = {}, n = {n}, {updates} updates{}",
        profile.name,
        if weighted { ", weighted" } else { "" }
    );
    let data = profile.generate(n, seed);
    let weights = irs::datagen::uniform_weights(n, seed ^ 1);
    let fresh = profile.generate(updates, seed ^ 0xF5E5);
    println!(
        "{:>7} {:>16} {:>16} {:>16}",
        "shards", "insert ops/s", "batch-ins ops/s", "delete ops/s"
    );
    for &shards in &shard_counts {
        let mut builder = Irs::builder().kind(kind).shards(shards).seed(seed);
        if weighted {
            builder = builder.weights(weights.clone());
        }
        let mut client = builder.build(&data).map_err(|e| e.to_string())?;

        // One-by-one insertion (the expensive path of Table VII).
        let t = std::time::Instant::now();
        let mut ids = Vec::with_capacity(updates);
        for (i, &iv) in fresh.iter().enumerate() {
            let id = if weighted {
                client.insert_weighted(iv, 1.0 + (i % 100) as f64)
            } else {
                client.insert(iv)
            }
            .map_err(|e| e.to_string())?;
            ids.push(id);
        }
        let one_by_one = updates as f64 / t.elapsed().as_secs_f64();

        // Deletion of exactly those intervals.
        let t = std::time::Instant::now();
        for &id in &ids {
            client.remove(id).map_err(|e| e.to_string())?;
        }
        let deletes = updates as f64 / t.elapsed().as_secs_f64();

        // Pooled batch insertion on a fresh client (so the pools start
        // cold, matching the one-by-one run's starting state).
        let mut builder = Irs::builder().kind(kind).shards(shards).seed(seed);
        if weighted {
            builder = builder.weights(weights.clone());
        }
        let mut client = builder.build(&data).map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        client.extend_batch(&fresh).map_err(|e| e.to_string())?;
        let batched = updates as f64 / t.elapsed().as_secs_f64();

        println!("{shards:>7} {one_by_one:>16.0} {batched:>16.0} {deletes:>16.0}");
        for (mode, ops) in [
            ("insert", one_by_one),
            ("insert-batch", batched),
            ("delete", deletes),
        ] {
            irs_bench::JsonRow::new("bench-updates")
                .str("kind", kind.name())
                .str("profile", profile.name)
                .int("n", n)
                .int("shards", shards)
                .int("updates", updates)
                .str("mode", mode)
                .str("weighted", if weighted { "yes" } else { "no" })
                .num("ops_per_sec", ops)
                .num("us_per_op", 1e6 / ops)
                .emit();
        }
    }
    Ok(())
}

/// A remote-command failure: the message plus, when the server answered
/// with a typed refusal, its stable numeric wire code.
struct RemoteError {
    code: Option<irs::ErrorCode>,
    message: String,
}

impl From<String> for RemoteError {
    fn from(message: String) -> Self {
        RemoteError {
            code: None,
            message,
        }
    }
}

/// Runs one query, routed to a named collection when one is given.
fn remote_one(
    remote: &mut irs::RemoteClient<i64>,
    collection: Option<&str>,
    seed: Option<u64>,
    query: Query<i64>,
) -> Result<QueryOutput, irs::WireError> {
    let results = match (collection, seed) {
        (None, None) => remote.run(&[query]),
        (None, Some(s)) => remote.run_seeded(&[query], s),
        (Some(c), None) => remote.run_in(c, &[query]),
        (Some(c), Some(s)) => remote.run_seeded_in(c, &[query], s),
    }?;
    results.into_iter().next().expect("one result per query")
}

/// Applies one mutation, routed to a named collection when one is given.
fn remote_one_mut(
    remote: &mut irs::RemoteClient<i64>,
    collection: Option<&str>,
    m: Mutation<i64>,
) -> Result<UpdateOutput, irs::WireError> {
    let results = match collection {
        None => remote.apply(&[m]),
        Some(c) => remote.apply_in(c, &[m]),
    }?;
    results.into_iter().next().expect("one result per mutation")
}

fn cmd_remote(addr: &str, action: &str, opts: &Opts) -> Result<(), RemoteError> {
    let mut remote = irs::RemoteClient::<i64>::connect(addr)
        .map_err(|e| RemoteError::from(format!("connect {addr}: {e}")))?;
    let wire = |e: irs::WireError| RemoteError {
        code: Some(e.code),
        message: e.to_string(),
    };
    let collection = opts.get("collection");
    match action {
        "health" => {
            remote.health().map_err(wire)?;
            println!("ok");
        }
        "stats" => {
            let s = remote.stats().map_err(wire)?;
            println!("kind:            {}", s.kind);
            println!("endpoint:        {}", s.endpoint);
            println!("shards:          {}", s.shards);
            println!("live intervals:  {}", s.len);
            println!("shard lengths:   {:?}", s.shard_lens);
            println!("weighted:        {}", s.weighted);
            println!(
                "connections:     {} accepted, {} active",
                s.connections_accepted, s.connections_active
            );
            println!(
                "requests:        {} ({} queries, {} mutations)",
                s.requests, s.queries, s.mutations
            );
            println!("protocol errors: {}", s.protocol_errors);
            println!("uptime:          {:.1} s", s.uptime_ms as f64 / 1e3);
            println!("draining:        {}", s.draining);
        }
        "count" => {
            let q = Interval::new(opts.num::<i64>("lo")?, opts.num::<i64>("hi")?);
            match remote_one(&mut remote, collection, None, Query::Count { q }).map_err(wire)? {
                QueryOutput::Count(n) => println!("{n}"),
                other => return Err(format!("unexpected output {other:?}").into()),
            }
        }
        "sample" => {
            let q = Interval::new(opts.num::<i64>("lo")?, opts.num::<i64>("hi")?);
            let s: usize = opts.num("s")?;
            let query = if opts.get("weighted").is_some() {
                Query::SampleWeighted { q, s }
            } else {
                Query::Sample { q, s }
            };
            let seed = match opts.get("seed") {
                Some(_) => Some(opts.num("seed")?),
                None => None,
            };
            match remote_one(&mut remote, collection, seed, query).map_err(wire)? {
                QueryOutput::Samples(ids) => {
                    if ids.is_empty() {
                        eprintln!("(empty result set)");
                    }
                    for id in ids {
                        println!("{id}");
                    }
                }
                other => return Err(format!("unexpected output {other:?}").into()),
            }
        }
        "stab" => {
            let p: i64 = opts.num("at")?;
            match remote_one(&mut remote, collection, None, Query::Stab { p }).map_err(wire)? {
                QueryOutput::Ids(ids) => {
                    for id in ids {
                        println!("{id}");
                    }
                }
                other => return Err(format!("unexpected output {other:?}").into()),
            }
        }
        "insert" => {
            let iv = Interval::new(opts.num::<i64>("lo")?, opts.num::<i64>("hi")?);
            let m = match opts.get("weight") {
                Some(_) => Mutation::InsertWeighted {
                    iv,
                    weight: opts.num("weight")?,
                },
                None => Mutation::Insert { iv },
            };
            match remote_one_mut(&mut remote, collection, m).map_err(wire)? {
                UpdateOutput::Inserted(id) => println!("inserted id {id}"),
                other => return Err(format!("unexpected output {other:?}").into()),
            }
        }
        "delete" => {
            let id: irs::ItemId = opts.num("id")?;
            remote_one_mut(&mut remote, collection, Mutation::Delete { id }).map_err(wire)?;
            println!("removed");
        }
        "create" => {
            let spec = irs::WireCollectionSpec {
                name: opts.req("name")?.to_string(),
                kind: match opts.get("kind") {
                    None | Some("auto") => None,
                    Some(k) => Some(k.to_string()),
                },
                update_rate: opts.num_or("update-rate", 0.0)?,
                expected_extent: opts.num_or("extent", 0.001)?,
                weighted: opts.get("weighted").is_some(),
                shards: opts.num_or("shards", 1)?,
                seed: opts.num_or("seed", 42)?,
            };
            let s = remote.create_collection(spec).map_err(wire)?;
            println!(
                "created {} — kind {}{}, {} shard(s)",
                s.name,
                s.kind,
                if s.auto { " (planner-chosen)" } else { "" },
                s.shards,
            );
        }
        "drop" => {
            let name = opts.req("name")?;
            remote.drop_collection(name).map_err(wire)?;
            println!("dropped {name}");
        }
        "ls" => {
            let list = remote.list_collections().map_err(wire)?;
            if list.is_empty() {
                println!("(no collections)");
            } else {
                println!(
                    "{:<20} {:>14} {:>7} {:>10} {:>9} {:>12} {:>5}",
                    "name", "kind", "shards", "len", "weighted", "heap-bytes", "auto"
                );
                for s in list {
                    println!(
                        "{:<20} {:>14} {:>7} {:>10} {:>9} {:>12} {:>5}",
                        s.name, s.kind, s.shards, s.len, s.weighted, s.heap_bytes, s.auto
                    );
                }
            }
        }
        "reindex" => {
            let name = opts.req("name")?;
            let kind = opts.req("kind")?;
            let s = remote.reindex(name, kind).map_err(wire)?;
            println!(
                "reindexed {} — now kind {} ({} intervals)",
                s.name, s.kind, s.len
            );
        }
        "save-catalog" => {
            let dir = opts.req("out")?;
            remote.save_catalog(dir).map_err(wire)?;
            println!("catalog saved (server-side) to {dir}");
        }
        "load-catalog" => {
            let dir = opts.req("dir")?;
            remote.load_catalog(dir).map_err(wire)?;
            println!("server now serves catalog {dir}");
        }
        "save" => {
            let dir = opts.req("out")?;
            remote.save(dir).map_err(wire)?;
            println!("saved (server-side) to {dir}");
        }
        "inspect" => {
            let s = remote.inspect_snapshot(opts.req("dir")?).map_err(wire)?;
            println!("format-version: {}", s.format_version);
            println!("kind:           {}", s.kind);
            println!("endpoint:       {}", s.endpoint);
            println!("weighted:       {}", s.weighted);
            println!("shards:         {}", s.shards);
            println!("seed:           {}", s.seed);
            println!("live intervals: {}", s.len);
        }
        "load" => {
            let dir = opts.req("dir")?;
            remote.load(dir).map_err(wire)?;
            println!("server now serves snapshot {dir}");
        }
        "replication-status" => {
            let s = remote.replication_status().map_err(wire)?;
            println!("role:          {}", s.role);
            println!("last-seq:      {}", s.last_seq);
            println!("log-start-seq: {}", s.log_start_seq);
            if let Some(p) = &s.primary {
                println!("primary:       {p}");
            }
        }
        "promote" => {
            let s = remote.promote().map_err(wire)?;
            println!("promoted; now {} at seq {}", s.role, s.last_seq);
        }
        "shutdown" => {
            remote.shutdown().map_err(wire)?;
            println!("shutdown acknowledged; server is draining");
        }
        other => Err(format!("unknown remote action `{other}`"))?,
    }
    Ok(())
}
