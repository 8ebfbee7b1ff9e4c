//! The library side of `irs-cli`: option parsing — a flat `--key value`
//! bag with typed accessors; no external dependencies, parsing is by
//! hand, and unknown options are simply never read (each command
//! documents what it consumes) — and the [`serve`] command that runs
//! the daemon.

use crate::{Catalog, Engine, IndexKind, Irs, LogRecord, Serving, WalWriter, DEFAULT_COLLECTION};
use std::path::Path;

/// Flat `--key value` option bag. Boolean flags (`--weighted`) take no
/// value; everything else does.
pub struct Opts(Vec<(String, String)>);

/// Option names that are flags (present/absent, no value).
const FLAGS: &[&str] = &["weighted"];

impl Opts {
    /// Parses `--key value` pairs (and bare flags) from `args`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got `{a}`"))?;
            if FLAGS.contains(&key) {
                pairs.push((key.to_string(), "true".to_string()));
                continue;
            }
            let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), val.clone()));
        }
        Ok(Opts(pairs))
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a required `--key`.
    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// A required numeric option.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.req(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }

    /// An optional numeric option with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: not a number")),
        }
    }
}

/// Builds (from `--data`, with `--kind --shards --weighted --seed`) or
/// loads (from `--snapshot`) the single backend `serve` fronts.
fn serve_backend(opts: &Opts) -> Result<Engine<i64>, String> {
    match (opts.get("snapshot"), opts.get("data")) {
        (Some(dir), None) => Engine::load(dir).map_err(|e| e.to_string()),
        (None, Some(path)) => {
            let (data, weights) = crate::datagen::load_csv(path)?;
            let kind = match opts.get("kind") {
                None => IndexKind::Ait,
                Some(name) => {
                    IndexKind::parse(name).ok_or_else(|| format!("unknown kind `{name}`"))?
                }
            };
            let mut builder = Irs::builder()
                .kind(kind)
                .shards(opts.num_or("shards", 1)?)
                .seed(opts.num_or("seed", 42)?);
            if opts.get("weighted").is_some() {
                builder = builder.weights(weights);
            }
            builder.build(&data).map_err(|e| e.to_string())
        }
        _ => Err(
            "serve needs exactly one of --data <FILE>, --snapshot <DIR>, --catalog <DIR> \
             or --replica-of <HOST:PORT>"
                .to_string(),
        ),
    }
}

/// Recovers the `--wal` log, if one was asked for, and re-applies every
/// record the starting state predates: those past the checkpoint
/// sidecar of `state_dir` (the snapshot or catalog directory the state
/// was loaded from), or all of them over a fresh build. A torn trailing
/// record is truncated — recovery working, but the operator still sees
/// that it happened.
fn recover_wal(
    opts: &Opts,
    state_dir: Option<&str>,
    mut apply: impl FnMut(&LogRecord<i64>),
) -> Result<Option<WalWriter<i64>>, String> {
    let Some(path) = opts.get("wal") else {
        return Ok(None);
    };
    let checkpoint = match state_dir {
        Some(dir) => crate::read_checkpoint(Path::new(dir))
            .map_err(|e| e.to_string())?
            .unwrap_or(0),
        None => 0,
    };
    let (wal, replay) = WalWriter::recover(path).map_err(|e| e.to_string())?;
    for record in replay.records.iter().filter(|r| r.seq > checkpoint) {
        apply(record);
    }
    if !replay.records.is_empty() {
        println!(
            "wal: recovered {} logged record(s) through seq {}",
            replay.records.len(),
            replay.last_seq(),
        );
    }
    if let Some(stopped) = &replay.stopped {
        eprintln!("wal: log tail truncated at the last valid record ({stopped})");
    }
    Ok(Some(wal))
}

/// `irs-cli serve`: runs the daemon in-process until a remote
/// `shutdown` arrives, then drains.
///
/// What it fronts is picked by exactly one of `--data` (build),
/// `--snapshot` (load), `--catalog` (a whole tenancy: an existing
/// `catalog.irs` is loaded, a fresh directory starts empty, and the
/// tenancy is saved back on drain) or `--replica-of` + `--replica-dir`
/// (bootstrap from a primary, read-only until promoted). `--wal` puts
/// any of the first three on the replication writer seat.
pub fn serve(opts: &Opts) -> Result<(), String> {
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7878");
    if let Some(primary) = opts.get("replica-of") {
        let dir = opts.req("replica-dir")?;
        let handle = crate::serve_replica::<i64>(addr, primary, dir).map_err(|e| e.to_string())?;
        println!(
            "irs-server (replica of {primary}) listening on {} — bootstrap dir {dir}",
            handle.local_addr(),
        );
        println!(
            "read-only until promoted (irs-cli remote <addr> promote); \
             serving until a remote `shutdown` arrives"
        );
        handle.join();
        println!("drained; bye");
        return Ok(());
    }
    let catalog_dir = opts.get("catalog");
    let (serving, wal, fronting): (Serving<i64>, _, String) = match catalog_dir {
        Some(dir) => {
            let catalog = if Path::new(dir)
                .join(crate::catalog::CATALOG_MANIFEST_FILE)
                .exists()
            {
                Catalog::<i64>::load(dir).map_err(|e| e.to_string())?
            } else {
                Catalog::new()
            };
            let wal = recover_wal(opts, Some(dir), |record| {
                let name = record.collection.as_deref().unwrap_or(DEFAULT_COLLECTION);
                let _ = catalog.apply_in(name, &record.muts);
            })?;
            let names: Vec<String> = catalog.list().into_iter().map(|i| i.name).collect();
            let fronting = format!("catalog of {} collection(s) {names:?}", names.len());
            (catalog.into(), wal, fronting)
        }
        None => {
            let engine = serve_backend(opts)?;
            let wal = recover_wal(opts, opts.get("snapshot"), |record| {
                let _ = engine.apply(&record.muts);
            })?;
            let stats = engine.stats();
            let fronting = format!(
                "{} × {} shard(s), {} intervals{}",
                stats.kind,
                stats.shards,
                stats.len,
                if stats.weighted { ", weighted" } else { "" },
            );
            (engine.into(), wal, fronting)
        }
    };
    let role = match opts.get("wal") {
        Some(path) => format!(" (primary, wal {path})"),
        None => String::new(),
    };
    let handle = crate::serve(serving, addr, wal).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "irs-server{role} listening on {} — {fronting}",
        handle.local_addr()
    );
    println!("serving until a remote `shutdown` arrives (irs-cli remote <addr> shutdown)");
    // Taken before `join` consumes the handle; a clone shares all state
    // with the catalog the server mutates.
    let catalog = handle.catalog();
    handle.join();
    match (catalog, catalog_dir) {
        (Some(catalog), Some(dir)) => {
            catalog.save(dir).map_err(|e| e.to_string())?;
            println!("drained; catalog saved to {dir}; bye");
        }
        _ => println!("drained; bye"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn pairs_and_flags_parse() {
        let o = opts(&["--n", "100", "--weighted", "--out", "x.csv"]).unwrap();
        assert_eq!(o.num::<usize>("n").unwrap(), 100);
        assert!(o.get("weighted").is_some());
        assert_eq!(o.req("out").unwrap(), "x.csv");
        assert!(o.get("missing").is_none());
        assert_eq!(o.num_or::<u64>("seed", 42).unwrap(), 42);
    }

    #[test]
    fn malformed_options_are_errors() {
        assert!(opts(&["bare"]).is_err());
        assert!(opts(&["--n"]).is_err());
        let o = opts(&["--n", "ten"]).unwrap();
        assert!(o.num::<usize>("n").is_err());
        assert!(o.req("out").is_err());
    }
}
