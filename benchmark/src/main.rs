//! `irs-benchmark` — the repo benchmark. See README.md for the metric
//! and workload dictionary and the rules that make it repeat.
//!
//! ```text
//! irs-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
//! irs-benchmark --all --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
//! irs-benchmark list [--benchmark-json]
//! irs-benchmark compare <a.json> <b.json>
//! ```

mod check;
mod host;
mod json;
mod openloop;
mod pin;
mod report;
mod run;
mod spec;
mod stats;
mod target;
mod trace;
mod workload;

use irs::cli::Opts;
use run::RunOptions;
use spec::WorkloadSpec;
use std::process::ExitCode;

/// Runs one workload: progress on stderr, the result file under
/// `benchmark/out`, the contract's JSON object as the last stdout line.
fn run_one(spec: &'static WorkloadSpec, opts: RunOptions) -> Result<bool, String> {
    eprintln!(
        "irs-benchmark: {} seed {} trace {} ({} s query phase{})",
        spec.name,
        opts.seed,
        u8::from(opts.trace),
        opts.seconds,
        if opts.smoke { ", smoke" } else { "" }
    );
    let outcome = run::run(spec, opts)?;
    let path = run::out_dir().join(format!(
        "result-{}-trace{}.json",
        spec.name,
        u8::from(opts.trace)
    ));
    std::fs::write(&path, report::result_json(&outcome).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for reason in &outcome.invalid {
        eprintln!("irs-benchmark: INVALID RUN: {reason}");
    }
    for note in &outcome.gate.notes {
        eprintln!("irs-benchmark: FAILED: {note}");
    }
    println!("{}", report::final_line(&outcome)?.render());
    Ok(outcome.invalid.is_empty())
}

fn run_command(args: &[String]) -> Result<bool, String> {
    // The two bare flags; everything else is `--key value`.
    let flag = |name: &str| args.iter().any(|a| a == name);
    let rest: Vec<String> = args
        .iter()
        .filter(|a| *a != "--all" && *a != "--smoke")
        .cloned()
        .collect();
    let opts = Opts::parse(&rest)?;
    let smoke = flag("--smoke");
    let run_opts = RunOptions {
        seed: opts.num("seed")?,
        seconds: opts.num_or(
            "seconds",
            if smoke {
                1.0
            } else {
                report::RUN_SECONDS as f64
            },
        )?,
        trace: match opts.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
        },
        smoke,
    };
    if !(run_opts.seconds >= 1.0 && run_opts.seconds <= 60.0) {
        return Err("--seconds: expected 1 to 60".to_string());
    }
    if flag("--all") {
        if opts.get("workload").is_some() {
            return Err("--all and --workload exclude each other".to_string());
        }
        return run_all(&rest, smoke);
    }
    let name = opts.req("workload")?;
    let spec = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    run_one(spec, run_opts)
}

/// `--all`: every workload in a process of its own, one after the other,
/// exactly as the driver runs them — a fresh heap (so `rss_mib` of the
/// `lib-*` workloads is the index's, not the previous workload's) and an
/// unpinned parent (so the allowed CPU set is the host's).
fn run_all(args: &[String], smoke: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut valid = true;
    for spec in &spec::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(args)
            .args(smoke.then_some("--smoke"))
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        match status.code() {
            Some(0) => {}
            Some(2) => valid = false,
            _ => return Err(format!("{} ended with {status}", spec.name)),
        }
    }
    Ok(valid)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") if args.iter().any(|a| a == "--benchmark-json") => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        Some("list") => {
            print!("{}", report::list());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a, b).map(|(table, bad)| {
                print!("{table}");
                !bad
            }),
            _ => Err("usage: irs-benchmark compare <a.json> <b.json>".to_string()),
        },
        Some(_) => run_command(&args),
        None => Err("usage: irs-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] | --all ... | list | compare <a> <b>".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("irs-benchmark: error: {e}");
            ExitCode::FAILURE
        }
    }
}
