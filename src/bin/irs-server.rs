//! `irs-server` — the standalone network daemon.
//!
//! ```text
//! irs-server --data trips.csv --addr 0.0.0.0:7878 --kind ait --shards 4
//! irs-server --snapshot snap/ --addr 127.0.0.1:7878 --wal log.irs
//! ```
//!
//! `irs-cli serve` under its own name ([`irs::cli::serve`]): builds a
//! backend from a CSV interval file (or loads a snapshot or catalog
//! directory, or bootstraps a replica) and serves it over the
//! `irs-wire` protocol until a remote `shutdown` request arrives, then
//! drains gracefully: in-flight batches finish and flush before the
//! process exits. Talk to it with `irs-cli remote <addr> <action>`,
//! `irs::RemoteClient`, or any client speaking the protocol in
//! DESIGN.md, "Wire protocol".

use irs::cli::Opts;
use std::process::ExitCode;

const USAGE: &str = "\
irs-server — serve an interval backend over TCP (irs-wire protocol)

USAGE:
  irs-server (--data <FILE> | --snapshot <DIR> | --catalog <DIR>) [--addr <HOST:PORT>]
             [--kind <K>] [--shards <N>] [--weighted] [--seed <S>] [--wal <FILE>]
  irs-server --replica-of <HOST:PORT> --replica-dir <DIR> [--addr <HOST:PORT>]

The same command as `irs-cli serve` (see `irs-cli help` for --catalog,
--wal and --replica-of). Defaults: --addr 127.0.0.1:7878 (port 0 =
OS-assigned), --kind ait, --shards 1, --seed 42. Data files: CSV lines
`lo,hi[,weight]`.

The server runs until a wire `shutdown` request arrives
(`irs-cli remote <addr> shutdown`), then drains: it stops accepting,
finishes every in-flight request, and exits without losing an acked
mutation.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("help" | "--help" | "-h")
    ) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match Opts::parse(&args).and_then(|opts| irs::cli::serve(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
