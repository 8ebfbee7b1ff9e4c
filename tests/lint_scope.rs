//! The lint scopes that enforce the workspace's contracts stay wide
//! enough (see DESIGN.md, "Static analysis & enforced contracts").

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A file that implements `Codec` parses untrusted bytes, so it denies
/// the panic family and slice indexing.
#[test]
fn every_codec_file_denies_panics_and_indexing() {
    let mut files = Vec::new();
    rust_files(&root().join("crates"), &mut files);
    rust_files(&root().join("src"), &mut files);
    let mut codec_files = 0;
    for path in files {
        let src = fs::read_to_string(&path).unwrap();
        if !src.contains("Codec for") {
            continue;
        }
        codec_files += 1;
        let denies: String = src.lines().filter(|l| l.starts_with("#![deny(")).collect();
        let missing: Vec<&str> = ["unwrap_used", "expect_used", "panic", "unreachable"]
            .into_iter()
            .chain(["todo", "unimplemented", "indexing_slicing"])
            .filter(|lint| !denies.contains(&format!("clippy::{lint}")))
            .collect();
        assert!(missing.is_empty(), "{} lacks {missing:?}", path.display());
    }
    assert!(codec_files >= 9, "only {codec_files} files implement Codec");
}

/// Every crate inherits the workspace `[lints]` table, except the two
/// with their own table without `unsafe_code`: `irs-sampling` (the
/// prefetch intrinsic) and the root package (a test's `GlobalAlloc`).
#[test]
fn every_crate_opts_into_the_workspace_lints() {
    let manifest = |dir: &Path| fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let own_table = "[lints.rust]\nmissing_docs = \"deny\"\n";
    let workspace = manifest(root());
    assert!(workspace.contains(own_table));
    assert!(workspace
        .contains("[workspace.lints.rust]\nmissing_docs = \"deny\"\nunsafe_code = \"forbid\"\n"));
    for dir in fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
    {
        let table = if dir.ends_with("sampling") {
            own_table
        } else {
            "[lints]\nworkspace = true\n"
        };
        assert!(
            manifest(&dir).contains(table),
            "{} lacks {table}",
            dir.display()
        );
    }
}
