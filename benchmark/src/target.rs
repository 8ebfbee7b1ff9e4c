//! The top path of a workload behind one small interface, so the phase
//! loops and the correctness gate are written once: the in-process
//! `Client`, or a `RemoteClient` connection to an `irs-cli serve` child.

use crate::host;
use irs::catalog::DEFAULT_COLLECTION;
use irs::prelude::{Client, RemoteClient};
use irs::wire::ServerStats;
use irs::{Mutation, Query, QueryOutput, UpdateOutput};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// One result per query, or why the whole call failed.
pub type RunResult = Result<Vec<Result<QueryOutput, String>>, String>;

pub trait Target: Send {
    fn run(&mut self, queries: &[Query<i64>]) -> RunResult;
    fn run_seeded(&mut self, queries: &[Query<i64>], seed: u64) -> RunResult;
    /// One mutation per call, as the mutation phase issues them.
    fn apply(&mut self, m: Mutation<i64>) -> Result<UpdateOutput, String>;
}

fn stringify<E: std::fmt::Display>(
    results: Vec<Result<QueryOutput, E>>,
) -> Vec<Result<QueryOutput, String>> {
    results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

/// The single result of a one-element batch.
pub(crate) fn only<T, E: std::fmt::Display>(mut results: Vec<Result<T, E>>) -> Result<T, String> {
    match results.pop() {
        Some(r) if results.is_empty() => r.map_err(|e| e.to_string()),
        _ => Err("expected exactly one result".to_string()),
    }
}

pub struct LibTarget(pub Client<i64>);

impl Target for LibTarget {
    fn run(&mut self, queries: &[Query<i64>]) -> RunResult {
        Ok(stringify(self.0.run(queries)))
    }

    fn run_seeded(&mut self, queries: &[Query<i64>], seed: u64) -> RunResult {
        Ok(stringify(self.0.run_seeded(queries, seed)))
    }

    fn apply(&mut self, m: Mutation<i64>) -> Result<UpdateOutput, String> {
        only(self.0.writer().apply(&[m]))
    }
}

/// A connection to the child; `in_default` addresses the catalog's
/// `default` collection by name (`run_in` / `apply_in`) instead of
/// sending plain frames.
pub struct WireTarget {
    pub remote: RemoteClient<i64>,
    pub in_default: bool,
}

impl Target for WireTarget {
    fn run(&mut self, queries: &[Query<i64>]) -> RunResult {
        let results = if self.in_default {
            self.remote.run_in(DEFAULT_COLLECTION, queries)
        } else {
            self.remote.run(queries)
        };
        results.map(stringify).map_err(|e| e.to_string())
    }

    fn run_seeded(&mut self, queries: &[Query<i64>], seed: u64) -> RunResult {
        let results = if self.in_default {
            self.remote.run_seeded_in(DEFAULT_COLLECTION, queries, seed)
        } else {
            self.remote.run_seeded(queries, seed)
        };
        results.map(stringify).map_err(|e| e.to_string())
    }

    fn apply(&mut self, m: Mutation<i64>) -> Result<UpdateOutput, String> {
        let results = if self.in_default {
            self.remote.apply_in(DEFAULT_COLLECTION, &[m])
        } else {
            self.remote.apply(&[m])
        };
        only(results.map_err(|e| e.to_string())?)
    }
}

/// An `irs-cli serve` child process on an OS-assigned loopback port. It
/// inherits the harness's CPU mask, so it runs on the pinned CPU.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `irs-cli serve <args> --addr 127.0.0.1:0` and waits for
    /// its "listening on" banner, which the CLI prints once the index is
    /// built (or loaded) and the socket is bound.
    pub fn spawn(cli: &Path, args: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(cli)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("child has no stdout")?);
        let mut banner = String::new();
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("irs-cli serve exited before listening: {banner}"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
            banner.push_str(&line);
        };
        Ok(Server {
            child,
            stdout,
            addr,
        })
    }

    pub fn connect(&self) -> Result<RemoteClient<i64>, String> {
        RemoteClient::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    pub fn rss_mib(&self) -> Option<f64> {
        host::rss_mib(self.child.id())
    }

    /// Whether the child is still running (a dead child invalidates
    /// the run).
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Reads the wire `Stats`, asks the child to drain, and waits until
    /// it has exited. A child that does not answer is killed, and that
    /// is reported.
    pub fn stop(mut self) -> Result<ServerStats, String> {
        let drained = self.connect().and_then(|mut remote| {
            let stats = remote.stats().map_err(|e| e.to_string())?;
            remote.shutdown().map_err(|e| e.to_string())?;
            Ok(stats)
        });
        if drained.is_err() {
            let _ = self.child.kill();
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let stats = drained?;
        if !status.success() {
            return Err(format!("irs-cli serve exited with {status}"));
        }
        Ok(stats)
    }
}

impl Drop for Server {
    /// Kills the child (a no-op once [`Server::stop`] has reaped it) and
    /// waits for it: a run that fails midway must not leave it behind,
    /// and the set-ups before the last owe nobody a drain.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
