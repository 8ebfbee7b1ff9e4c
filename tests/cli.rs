//! `irs-cli` end to end: the binary run as a child process on files in
//! a temp directory, as a shell user would run it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const N: usize = 2_000;

/// A unique, self-cleaning working directory per test case.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("irs-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        WorkDir(dir)
    }

    /// A path inside the directory, as a command-line argument.
    fn arg(&self, name: &str) -> String {
        self.0
            .join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn irs_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_irs-cli"))
        .args(args)
        .output()
        .expect("irs-cli starts")
}

/// Runs `irs-cli` and returns its stdout, failing on a non-zero exit.
fn ok(args: &[&str]) -> String {
    let out = irs_cli(args);
    assert!(
        out.status.success(),
        "irs-cli {args:?} exited {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Writes a taxi-profile CSV of `N` intervals and returns its path.
fn generate(dir: &WorkDir) -> String {
    let csv = dir.arg("trips.csv");
    ok(&[
        "generate",
        "--profile",
        "taxi",
        "--n",
        &N.to_string(),
        "--out",
        &csv,
    ]);
    assert!(Path::new(&csv).exists());
    csv
}

#[test]
fn generate_count_and_seeded_sample_repeat() {
    let dir = WorkDir::new("sample");
    let csv = generate(&dir);
    let range = ["--lo", "0", "--hi", "100000000"];

    let count: usize = ok(&[&["count", "--data", &csv][..], &range].concat())
        .trim()
        .parse()
        .expect("count prints one number");
    assert!(count > 0 && count <= N, "count {count}");

    let sample = [
        &["sample", "--data", &csv, "--s", "5", "--seed", "7"][..],
        &range,
    ]
    .concat();
    let first = ok(&sample);
    assert_eq!(first.lines().count(), 5, "{first}");
    assert_eq!(ok(&sample), first, "one seed, two different samples");
}

#[test]
fn snapshot_save_inspect_load() {
    let dir = WorkDir::new("snapshot");
    let csv = generate(&dir);
    let snap = dir.arg("snap");
    ok(&[
        "snapshot", "save", "--data", &csv, "--shards", "2", "--out", &snap,
    ]);
    let manifest = ok(&["snapshot", "inspect", "--dir", &snap]);
    assert!(
        manifest.contains(&format!("live intervals: {N}")),
        "{manifest}"
    );
    let loaded = ok(&["snapshot", "load", "--dir", &snap]);
    assert!(loaded.contains(&format!("{N} live intervals")), "{loaded}");
}

#[test]
fn help_exits_zero() {
    assert!(ok(&["help"]).contains("USAGE:"));
}

#[test]
fn unknown_commands_exit_nonzero() {
    for cmd in ["bogus", "bench-engine", "bench-updates"] {
        let out = irs_cli(&[cmd]);
        assert!(!out.status.success(), "`{cmd}` exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown command"), "`{cmd}`: {stderr}");
    }
}
