//! # irs-audit — the workspace's conventions, machine-checked
//!
//! A dependency-free static analyzer that turns the repository's
//! safety conventions into enforced contracts. It is deliberately *not*
//! a compiler plugin: the build environment is offline (no `syn`, no
//! clippy lints-as-a-library), so the auditor scans workspace sources
//! with a small hand-rolled line/token scanner — comments, string
//! literals, character literals, and `#[cfg(test)]` regions are
//! understood well enough that rules fire only on reachable production
//! code.
//!
//! ## Rule families
//!
//! | Rule | What it enforces | Where |
//! |---|---|---|
//! | `no-panic` | no `.unwrap()` / `.expect(..)` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` | decode, wire-framing, server-connection, and engine paths |
//! | `no-index` | no direct slice indexing `x[..]` (use `.get(..)` and a typed error) | byte-decode paths and every `impl Codec for` block |
//! | `lock-discipline` | every `.read()` / `.write()` / `.lock()` recovers from poisoning (`.unwrap_or_else(\|e\| e.into_inner())` or an explicit match), never bare `.unwrap()` | engine, server, catalog |
//! | `crate-hygiene` | every workspace library crate carries `#![deny(missing_docs)]` and, except the crates in [`UNSAFE_CRATE_ROOTS`], `#![forbid(unsafe_code)]` | all `crates/*/src/lib.rs` + the root crate |
//! | `registry` | wire error codes, request/response tags, snapshot role bytes, and the snapshot format version are **append-only**: each is pinned in `contracts/registry.txt`, and renumbering / renaming / removing any pinned entry fails the audit | `contracts/registry.txt` vs. source |
//! | `pragma` | every waiver is well-formed, names a real rule, carries a reason, and still suppresses something (stale pragmas fail) | everywhere |
//!
//! ## Waivers
//!
//! A vetted site is waived with a pragma on the same line or the line
//! directly above:
//!
//! ```text
//! // audit: allow(no-panic): length checked two lines above; slice cannot be short
//! let magic: [u8; 4] = buf[..4].try_into().expect("4-byte slice");
//! ```
//!
//! The reason is mandatory, the rule name must be one of `no-panic`,
//! `no-index`, or `lock-discipline` (the other families cannot be
//! waived), and a pragma that no longer suppresses a violation is
//! itself a violation — so waivers cannot outlive the code they
//! excused.
//!
//! ## Entry points
//!
//! [`audit_workspace`] runs every rule against a workspace tree and
//! returns an [`AuditReport`]; the `irs-audit` binary wraps it for CI
//! (exit 0 clean, exit 1 with one `file:line: [rule] message` diagnostic
//! per violation). [`extract_registry`] reads the current contract
//! values out of source — `irs-audit --print-registry` uses it to
//! (re)generate `contracts/registry.txt` when a new entry is appended.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Workspace-relative path of the committed contract registry.
pub const REGISTRY_PATH: &str = "contracts/registry.txt";

/// Source file the `ErrorCode` enum (wire error codes) is extracted
/// from.
pub const ERROR_CODE_SOURCE: &str = "crates/core/src/wire.rs";

/// Source file the wire request/response tags are extracted from.
pub const WIRE_TAG_SOURCE: &str = "crates/wire/src/message.rs";

/// Source file the snapshot role bytes and format version are
/// extracted from.
pub const SNAPSHOT_SOURCE: &str = "crates/core/src/persist.rs";

/// Files whose whole body must be panic-free (`no-panic`): the
/// byte-decode layer, the wire framing and message vocabulary, the
/// remote client, the server connection loop, the engine's
/// query/persist paths, the sampling primitives, and the index
/// structures' query paths. `impl Codec for` blocks anywhere in the
/// workspace are covered in addition to this list.
pub const NO_PANIC_FILES: &[&str] = &[
    "crates/core/src/persist.rs",
    "crates/core/src/wal.rs",
    "crates/core/src/wire.rs",
    "crates/wire/src/frame.rs",
    "crates/wire/src/message.rs",
    "crates/wire/src/client.rs",
    "crates/server/src/lib.rs",
    "crates/engine/src/engine.rs",
    "crates/engine/src/query.rs",
    "crates/engine/src/persist.rs",
    "crates/sampling/src/alias.rs",
    "crates/sampling/src/cumsum.rs",
    "crates/sampling/src/eytzinger.rs",
    "crates/ait/src/ait.rs",
    "crates/ait/src/awit.rs",
    "crates/ait/src/aitv.rs",
    "crates/ait/src/records.rs",
    "crates/kds/src/tree.rs",
];

/// Files whose whole body must avoid direct slice indexing
/// (`no-index`): the paths that parse untrusted bytes. `impl Codec
/// for` blocks anywhere are covered in addition.
pub const NO_INDEX_FILES: &[&str] = &[
    "crates/core/src/persist.rs",
    "crates/core/src/wal.rs",
    "crates/core/src/wire.rs",
    "crates/wire/src/frame.rs",
    "crates/wire/src/message.rs",
];

/// Library roots exempt from `crate-hygiene`'s `#![forbid(unsafe_code)]`
/// requirement. `irs-sampling` holds the workspace's only `unsafe`: the
/// prefetch intrinsic and the Eytzinger descent's unchecked read.
pub const UNSAFE_CRATE_ROOTS: &[&str] = &["crates/sampling/src/lib.rs"];

/// Directories whose sources must follow the poisoned-lock recovery
/// discipline (`lock-discipline`).
pub const LOCK_DISCIPLINE_DIRS: &[&str] = &[
    "crates/engine/src",
    "crates/server/src",
    "crates/catalog/src",
];

// ---------------------------------------------------------------------
// Rules, violations, errors
// ---------------------------------------------------------------------

/// One enforced rule family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// No `unwrap`/`expect`/`panic!`-family macros on audited paths.
    NoPanic,
    /// No direct slice indexing on byte-decode paths.
    NoIndex,
    /// Poisoned-lock recovery on every `read()`/`write()`/`lock()`.
    LockDiscipline,
    /// `#![deny(missing_docs)]` on every workspace library crate, and
    /// `#![forbid(unsafe_code)]` on all but [`UNSAFE_CRATE_ROOTS`].
    CrateHygiene,
    /// Append-only wire/snapshot registries pinned in
    /// `contracts/registry.txt`.
    Registry,
    /// Pragma grammar: well-formed, reasoned, and not stale.
    Pragma,
}

impl Rule {
    /// The rule's stable kebab-case name, as used in pragmas and
    /// diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::NoIndex => "no-index",
            Rule::LockDiscipline => "lock-discipline",
            Rule::CrateHygiene => "crate-hygiene",
            Rule::Registry => "registry",
            Rule::Pragma => "pragma",
        }
    }

    /// Parses a stable rule name.
    pub fn parse(name: &str) -> Option<Rule> {
        match name {
            "no-panic" => Some(Rule::NoPanic),
            "no-index" => Some(Rule::NoIndex),
            "lock-discipline" => Some(Rule::LockDiscipline),
            "crate-hygiene" => Some(Rule::CrateHygiene),
            "registry" => Some(Rule::Registry),
            "pragma" => Some(Rule::Pragma),
            _ => None,
        }
    }

    /// Whether a pragma may waive this rule. Registry, hygiene, and
    /// pragma violations cannot be excused — they are repairs, not
    /// judgment calls.
    pub fn allowable(self) -> bool {
        matches!(self, Rule::NoPanic | Rule::NoIndex | Rule::LockDiscipline)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a rule violated at a specific line of a specific file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What was found and how to fix it, in one sentence.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Why the audit itself could not run (as opposed to finding
/// violations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// A file or directory could not be read.
    Io {
        /// The path the operation targeted.
        path: String,
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// A registry source file no longer contains the construct the
    /// extractor reads (the enum or constants moved or were renamed) —
    /// the auditor's own configuration must be updated alongside.
    ExtractionFailed {
        /// The file scanned.
        path: String,
        /// What was expected there.
        what: &'static str,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Io { path, kind } => write!(f, "i/o error on `{path}`: {kind}"),
            AuditError::ExtractionFailed { path, what } => {
                write!(
                    f,
                    "cannot extract {what} from `{path}`: construct not found"
                )
            }
        }
    }
}

impl std::error::Error for AuditError {}

fn io_err(path: &Path, e: &std::io::Error) -> AuditError {
    AuditError::Io {
        path: path.display().to_string(),
        kind: e.kind(),
    }
}

/// What [`audit_workspace`] returns: every violation (empty = clean)
/// plus scan statistics.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// All findings, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Rust sources scanned.
    pub files_scanned: usize,
    /// Pragmas that waived at least one violation.
    pub pragmas_honored: usize,
}

// ---------------------------------------------------------------------
// Lexing: comments, strings, char literals, cfg(test) regions
// ---------------------------------------------------------------------

/// A source file split into per-line code and comment channels. The
/// code channel has comment bodies and string/char-literal contents
/// blanked to spaces (delimiters kept), so token rules cannot fire on
/// prose; the comment channel carries comment text for pragma parsing.
/// Column positions are preserved in both channels.
#[derive(Debug)]
struct Lexed {
    code: Vec<String>,
    comment: Vec<String>,
    in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
    CharLit,
}

impl Lexed {
    fn new(content: &str) -> Lexed {
        let mut code: Vec<String> = Vec::new();
        let mut comment: Vec<String> = Vec::new();
        let mut state = LexState::Code;
        for raw in content.lines() {
            let chars: Vec<char> = raw.chars().collect();
            let mut code_line = String::with_capacity(chars.len());
            let mut comment_line = String::with_capacity(chars.len());
            let mut i = 0;
            // A line comment never spans lines.
            if state == LexState::LineComment {
                state = LexState::Code;
            }
            while i < chars.len() {
                let c = chars[i];
                let next = chars.get(i + 1).copied();
                match state {
                    LexState::Code => match c {
                        '/' if next == Some('/') => {
                            state = LexState::LineComment;
                            code_line.push(' ');
                            comment_line.push(c);
                        }
                        '/' if next == Some('*') => {
                            state = LexState::BlockComment(1);
                            code_line.push_str("  ");
                            comment_line.push_str("/*");
                            i += 1;
                        }
                        '"' => {
                            state = LexState::Str;
                            code_line.push('"');
                            comment_line.push(' ');
                        }
                        'r' | 'b' => {
                            // Possible raw/byte string: r", r#", br", b".
                            let mut j = i + 1;
                            if c == 'b' && chars.get(j) == Some(&'r') {
                                j += 1;
                            }
                            let mut hashes = 0u8;
                            while chars.get(j) == Some(&'#') {
                                hashes += 1;
                                j += 1;
                            }
                            let is_raw = (c == 'r' || chars.get(i + 1) == Some(&'r'))
                                && chars.get(j) == Some(&'"');
                            let is_byte_str =
                                c == 'b' && hashes == 0 && chars.get(i + 1) == Some(&'"');
                            // Only when an identifier is not already in
                            // progress (e.g. `for` ends in 'r').
                            let fresh = i == 0 || !is_ident_char(chars[i - 1]);
                            if fresh && (is_raw || is_byte_str) {
                                for &ch in &chars[i..=j] {
                                    code_line.push(ch);
                                    comment_line.push(' ');
                                }
                                state = if is_byte_str {
                                    LexState::Str
                                } else {
                                    LexState::RawStr(hashes)
                                };
                                i = j;
                            } else {
                                code_line.push(c);
                                comment_line.push(' ');
                            }
                        }
                        '\'' => {
                            // Char literal vs. lifetime: '\x' and 'c'
                            // (third char is the closing quote) are
                            // literals; anything else is a lifetime.
                            let is_char = next == Some('\\')
                                || (chars.get(i + 2) == Some(&'\'')
                                    && !(i > 0 && is_ident_char(chars[i - 1]) && next.is_none()));
                            if is_char {
                                state = LexState::CharLit;
                            }
                            code_line.push('\'');
                            comment_line.push(' ');
                        }
                        _ => {
                            code_line.push(c);
                            comment_line.push(' ');
                        }
                    },
                    LexState::LineComment => {
                        code_line.push(' ');
                        comment_line.push(c);
                    }
                    LexState::BlockComment(depth) => {
                        if c == '*' && next == Some('/') {
                            code_line.push_str("  ");
                            comment_line.push_str("*/");
                            i += 1;
                            state = if depth == 1 {
                                LexState::Code
                            } else {
                                LexState::BlockComment(depth - 1)
                            };
                        } else if c == '/' && next == Some('*') {
                            code_line.push_str("  ");
                            comment_line.push_str("/*");
                            i += 1;
                            state = LexState::BlockComment(depth + 1);
                        } else {
                            code_line.push(' ');
                            comment_line.push(c);
                        }
                    }
                    LexState::Str => {
                        comment_line.push(' ');
                        match c {
                            '\\' => {
                                code_line.push(' ');
                                if next.is_some() {
                                    code_line.push(' ');
                                    comment_line.push(' ');
                                    i += 1;
                                }
                            }
                            '"' => {
                                code_line.push('"');
                                state = LexState::Code;
                            }
                            _ => code_line.push(' '),
                        }
                    }
                    LexState::RawStr(hashes) => {
                        comment_line.push(' ');
                        let closes = c == '"'
                            && (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                        if closes {
                            code_line.push('"');
                            for _ in 0..hashes {
                                code_line.push('#');
                                comment_line.push(' ');
                            }
                            i += hashes as usize;
                            state = LexState::Code;
                        } else {
                            code_line.push(' ');
                        }
                    }
                    LexState::CharLit => {
                        comment_line.push(' ');
                        match c {
                            '\\' => {
                                code_line.push(' ');
                                if next.is_some() {
                                    code_line.push(' ');
                                    comment_line.push(' ');
                                    i += 1;
                                }
                            }
                            '\'' => {
                                code_line.push('\'');
                                state = LexState::Code;
                            }
                            _ => code_line.push(' '),
                        }
                    }
                }
                i += 1;
            }
            code.push(code_line);
            comment.push(comment_line);
        }
        let in_test = vec![false; code.len()];
        let mut lexed = Lexed {
            code,
            comment,
            in_test,
        };
        lexed.mark_test_regions();
        lexed
    }

    /// Marks every line belonging to a `#[cfg(test)]`-gated item (the
    /// attribute line through the item's closing brace or semicolon) so
    /// rules skip test-only code.
    fn mark_test_regions(&mut self) {
        let mut line = 0;
        while line < self.code.len() {
            let code = &self.code[line];
            let is_gate = code.contains("#[") && code.contains("cfg(test");
            if !is_gate {
                line += 1;
                continue;
            }
            // Walk forward from the attribute to the end of the item it
            // gates: the matching close of the first `{`, or a `;`
            // (for gated use/const items), whichever comes first.
            let mut depth = 0usize;
            let mut opened = false;
            let mut l = line;
            // Skip past the attribute's own brackets by starting the
            // scan after `]` of this attr: simplest is to scan from the
            // next line for `{`/`;` — attributes with inline items on
            // the same line are not used in this workspace.
            'outer: while l < self.code.len() {
                let start_col = if l == line {
                    match self.code[l].find(']') {
                        Some(c) => c + 1,
                        None => self.code[l].len(),
                    }
                } else {
                    0
                };
                for c in self.code[l][start_col..].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        ';' if !opened => break 'outer,
                        _ => {}
                    }
                }
                l += 1;
            }
            let end = l.min(self.code.len() - 1);
            for t in &mut self.in_test[line..=end] {
                *t = true;
            }
            line = end + 1;
        }
    }

    /// The file's code with all whitespace removed, excluding
    /// `#[cfg(test)]` regions, with a byte→line map for diagnostics.
    fn stream(&self) -> Stream {
        let mut chars = Vec::new();
        let mut line_of = Vec::new();
        for (idx, code) in self.code.iter().enumerate() {
            if self.in_test[idx] {
                continue;
            }
            for c in code.chars() {
                if !c.is_whitespace() {
                    chars.push(c);
                    line_of.push(idx);
                }
            }
        }
        Stream { chars, line_of }
    }

    /// Like [`Lexed::stream`] but with whitespace runs (including line
    /// breaks) collapsed to a single space — keyword boundaries stay
    /// visible, so `impl Codec for` is distinguishable from an
    /// identifier like `implCodec`.
    fn stream_spaced(&self) -> Stream {
        let mut chars: Vec<char> = Vec::new();
        let mut line_of = Vec::new();
        for (idx, code) in self.code.iter().enumerate() {
            if self.in_test[idx] {
                continue;
            }
            for c in code.chars().chain(std::iter::once('\n')) {
                if c.is_whitespace() {
                    if chars.last().is_some_and(|&last| last != ' ') {
                        chars.push(' ');
                        line_of.push(idx);
                    }
                } else {
                    chars.push(c);
                    line_of.push(idx);
                }
            }
        }
        Stream { chars, line_of }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whitespace-free code stream with a char→line map.
struct Stream {
    chars: Vec<char>,
    line_of: Vec<usize>,
}

impl Stream {
    /// All positions where `pattern` occurs.
    fn find_all(&self, pattern: &str) -> Vec<usize> {
        let pat: Vec<char> = pattern.chars().collect();
        let mut out = Vec::new();
        if pat.is_empty() || self.chars.len() < pat.len() {
            return out;
        }
        for (start, window) in self.chars.windows(pat.len()).enumerate() {
            if window == pat.as_slice() {
                out.push(start);
            }
        }
        out
    }

    fn line(&self, pos: usize) -> usize {
        self.line_of.get(pos).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------

#[derive(Debug)]
struct PragmaSite {
    line: usize, // 0-based
    rule: Rule,
    used: bool,
}

/// Parses `// audit: allow(<rule>): <reason>` pragmas out of the
/// comment channel. Malformed pragmas are violations immediately;
/// well-formed ones are returned for suppression matching.
fn collect_pragmas(file: &str, lexed: &Lexed, violations: &mut Vec<Violation>) -> Vec<PragmaSite> {
    let mut pragmas = Vec::new();
    for (idx, comment) in lexed.comment.iter().enumerate() {
        let Some(at) = comment.find("audit:") else {
            continue;
        };
        // Pragmas live in plain `//` comments only. Doc comments
        // (`///`, `//!`) are prose — DESIGN.md and module docs quote
        // the pragma grammar without triggering it.
        let lead = comment.trim_start();
        if !lead.starts_with("//") || lead.starts_with("///") || lead.starts_with("//!") {
            continue;
        }
        if lexed.in_test[idx] {
            // Pragmas in test code gate nothing (rules skip tests);
            // flag them so they cannot accumulate as dead weight.
            violations.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: Rule::Pragma,
                message: "audit pragma inside #[cfg(test)] code has no effect; remove it"
                    .to_string(),
            });
            continue;
        }
        let rest = comment[at + "audit:".len()..].trim_start();
        let mut bad = |message: String| {
            violations.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: Rule::Pragma,
                message,
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            bad(format!(
                "malformed audit pragma (expected `audit: allow(<rule>): <reason>`), found `{}`",
                rest.trim_end()
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("audit pragma is missing the closing `)` after the rule name".to_string());
            continue;
        };
        let rule_name = args[..close].trim();
        let Some(rule) = Rule::parse(rule_name) else {
            bad(format!("audit pragma names unknown rule `{rule_name}`"));
            continue;
        };
        if !rule.allowable() {
            bad(format!(
                "rule `{rule_name}` cannot be waived by pragma; fix the violation instead"
            ));
            continue;
        }
        let after = args[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad(format!(
                "audit pragma `allow({rule_name})` requires a reason: `audit: allow({rule_name}): <why this site is safe>`"
            ));
            continue;
        }
        pragmas.push(PragmaSite {
            line: idx,
            rule,
            used: false,
        });
    }
    pragmas
}

/// Applies pragma suppression: a violation of rule R at line L is
/// waived by an `allow(R)` pragma on line L or L−1. Returns the
/// surviving violations and the number of pragmas that earned their
/// keep; stale pragmas become violations.
fn apply_pragmas(
    file: &str,
    raw: Vec<Violation>,
    mut pragmas: Vec<PragmaSite>,
    violations: &mut Vec<Violation>,
) -> usize {
    for v in raw {
        let line0 = v.line - 1;
        let waived = pragmas
            .iter_mut()
            .find(|p| p.rule == v.rule && (p.line == line0 || p.line + 1 == line0));
        match waived {
            Some(p) => p.used = true,
            None => violations.push(v),
        }
    }
    let mut honored = 0;
    for p in pragmas {
        if p.used {
            honored += 1;
        } else {
            violations.push(Violation {
                file: file.to_string(),
                line: p.line + 1,
                rule: Rule::Pragma,
                message: format!(
                    "stale pragma: `allow({})` no longer suppresses any violation; remove it",
                    p.rule
                ),
            });
        }
    }
    honored
}

// ---------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------

/// `(whitespace-free pattern, diagnostic label)` pairs for `no-panic`.
const PANIC_PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()`"),
    (".expect(", "`.expect(..)`"),
    ("panic!(", "`panic!`"),
    ("unreachable!(", "`unreachable!`"),
    ("todo!(", "`todo!`"),
    ("unimplemented!(", "`unimplemented!`"),
];

/// Bare-unwrap patterns for `lock-discipline`.
const LOCK_PATTERNS: &[(&str, &str)] = &[
    (".read().unwrap()", "`.read().unwrap()`"),
    (".write().unwrap()", "`.write().unwrap()`"),
    (".lock().unwrap()", "`.lock().unwrap()`"),
    (".read().expect(", "`.read().expect(..)`"),
    (".write().expect(", "`.write().expect(..)`"),
    (".lock().expect(", "`.lock().expect(..)`"),
];

fn scan_no_panic(file: &str, stream: &Stream, mask: Option<&[bool]>) -> Vec<Violation> {
    let mut out = Vec::new();
    for &(pattern, label) in PANIC_PATTERNS {
        for pos in stream.find_all(pattern) {
            let line = stream.line(pos);
            if let Some(mask) = mask {
                if !mask.get(line).copied().unwrap_or(false) {
                    continue;
                }
            }
            if pattern.starts_with(is_ident_char) {
                // Macro patterns must not fire mid-identifier
                // (`my_panic!` is someone else's macro).
                if pos > 0 && is_ident_char(stream.chars[pos - 1]) {
                    continue;
                }
            }
            out.push(Violation {
                file: file.to_string(),
                line: line + 1,
                rule: Rule::NoPanic,
                message: format!(
                    "{label} on a panic-free path; return a typed error, or waive a proven-infallible site with `// audit: allow(no-panic): <reason>`"
                ),
            });
        }
    }
    out
}

fn scan_no_index(file: &str, lexed: &Lexed, mask: Option<&[bool]>) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, code) in lexed.code.iter().enumerate() {
        if lexed.in_test[idx] {
            continue;
        }
        if let Some(mask) = mask {
            if !mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
        }
        let chars: Vec<char> = code.chars().collect();
        for (col, &c) in chars.iter().enumerate() {
            if c != '[' || col == 0 {
                continue;
            }
            // Indexing is written with no space before the bracket; a
            // preceding value-producing token (identifier, call, prior
            // index, `?`) makes this `expr[..]`. `#[attr]`, `![`,
            // `vec![`, slice types `&[T]`, and array literals all have
            // a non-value char before the bracket.
            let prev = chars[col - 1];
            if is_ident_char(prev) || prev == ')' || prev == ']' || prev == '?' {
                out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: Rule::NoIndex,
                    message: "direct slice indexing on a byte-decode path; use `.get(..)` with a typed error, or waive a bounds-proven site with `// audit: allow(no-index): <reason>`".to_string(),
                });
                break; // one finding per line keeps diagnostics readable
            }
        }
    }
    out
}

fn scan_lock_discipline(file: &str, stream: &Stream) -> Vec<Violation> {
    let mut out = Vec::new();
    for &(pattern, label) in LOCK_PATTERNS {
        for pos in stream.find_all(pattern) {
            out.push(Violation {
                file: file.to_string(),
                line: stream.line(pos) + 1,
                rule: Rule::LockDiscipline,
                message: format!(
                    "{label} discards the poisoned-lock recovery path; use `.unwrap_or_else(|e| e.into_inner())` or match the `PoisonError` explicitly"
                ),
            });
        }
    }
    out
}

/// Lines covered by `impl .. Codec for ..` blocks: decode paths that
/// live next to each index structure's definition.
fn codec_region_mask(lexed: &Lexed) -> Vec<bool> {
    let stream = lexed.stream_spaced();
    let mut mask = vec![false; lexed.code.len()];
    for impl_pos in stream.find_all("impl") {
        if impl_pos > 0 && is_ident_char(stream.chars[impl_pos - 1]) {
            continue; // mid-identifier (`simplify`)
        }
        match stream.chars.get(impl_pos + 4) {
            Some(&c) if c == ' ' || c == '<' => {}
            _ => continue, // `implicit…` or truncated input
        }
        // The impl header runs to its opening `{`; the block is a
        // Codec impl when the header names the trait.
        let Some(open_rel) = stream.chars[impl_pos..].iter().position(|&c| c == '{') else {
            continue;
        };
        let open = impl_pos + open_rel;
        let header: String = stream.chars[impl_pos..open].iter().collect();
        let Some(codec_at) = header.find("Codec for ") else {
            continue;
        };
        // `Codec` must be a whole path segment (`persist::Codec for`
        // is fine; `MyCodec for` is a different trait).
        if codec_at > 0 && is_ident_char(header.as_bytes()[codec_at - 1] as char) {
            continue;
        }
        let mut depth = 0usize;
        let mut end = open;
        for (k, &c) in stream.chars[open..].iter().enumerate() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let first = stream.line(impl_pos);
        let last = stream.line(end).min(mask.len() - 1);
        for m in &mut mask[first..=last] {
            *m = true;
        }
    }
    mask
}

// ---------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------

/// One pinned contract value: a named constant in an append-only
/// family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistryEntry {
    /// The family: `error-code`, `request-tag`, `response-tag`,
    /// `snapshot-role`, or `format-version`.
    pub family: &'static str,
    /// The stable name (enum variant or constant).
    pub name: String,
    /// The numeric value.
    pub value: u64,
    /// Source file the entry was extracted from (diagnostics).
    pub file: String,
    /// 1-based source line (diagnostics).
    pub line: usize,
}

impl fmt::Display for RegistryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} = {}", self.family, self.name, self.value)
    }
}

fn parse_number(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        s.replace('_', "").parse().ok()
    }
}

/// Extracts `Variant = N,` rows from the `pub enum ErrorCode` block.
fn extract_error_codes(rel: &str, lexed: &Lexed) -> Result<Vec<RegistryEntry>, AuditError> {
    let Some(start) = lexed
        .code
        .iter()
        .position(|l| l.contains("pub enum ErrorCode"))
    else {
        return Err(AuditError::ExtractionFailed {
            path: rel.to_string(),
            what: "`pub enum ErrorCode`",
        });
    };
    let mut out = Vec::new();
    let mut depth = 0usize;
    for (idx, code) in lexed.code.iter().enumerate().skip(start) {
        let trimmed = code.trim();
        if depth == 1 {
            if let Some(body) = trimmed.strip_suffix(',') {
                if let Some((name, value)) = body.split_once('=') {
                    let name = name.trim();
                    if !name.is_empty()
                        && name.chars().all(is_ident_char)
                        && name.starts_with(|c: char| c.is_ascii_uppercase())
                    {
                        if let Some(value) = parse_number(value) {
                            out.push(RegistryEntry {
                                family: "error-code",
                                name: name.to_string(),
                                value,
                                file: rel.to_string(),
                                line: idx + 1,
                            });
                        }
                    }
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 && idx > start {
                        if out.is_empty() {
                            return Err(AuditError::ExtractionFailed {
                                path: rel.to_string(),
                                what: "discriminants in `pub enum ErrorCode`",
                            });
                        }
                        return Ok(out);
                    }
                }
                _ => {}
            }
        }
    }
    Ok(out)
}

/// Extracts `const <PREFIX>NAME: u8 = N;` constants (wire tags,
/// snapshot roles).
fn extract_consts(
    rel: &str,
    lexed: &Lexed,
    prefix: &str,
    family: &'static str,
) -> Vec<RegistryEntry> {
    let mut out = Vec::new();
    for (idx, code) in lexed.code.iter().enumerate() {
        if lexed.in_test[idx] {
            continue;
        }
        let trimmed = code.trim().trim_start_matches("pub ");
        let Some(rest) = trimmed.strip_prefix("const ") else {
            continue;
        };
        if !rest.starts_with(prefix) {
            continue;
        }
        let Some((decl, value)) = rest.split_once('=') else {
            continue;
        };
        let Some((name, _ty)) = decl.split_once(':') else {
            continue;
        };
        let value = value.trim().trim_end_matches(';');
        if let Some(value) = parse_number(value) {
            out.push(RegistryEntry {
                family,
                name: name.trim().to_string(),
                value,
                file: rel.to_string(),
                line: idx + 1,
            });
        }
    }
    out
}

/// Reads every contract value out of the workspace sources: wire error
/// codes, request/response tags, snapshot role bytes, and the snapshot
/// format version.
pub fn extract_registry(root: &Path) -> Result<Vec<RegistryEntry>, AuditError> {
    let read = |rel: &str| -> Result<Lexed, AuditError> {
        let path = root.join(rel);
        let content = std::fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
        Ok(Lexed::new(&content))
    };

    let mut entries = Vec::new();

    let wire = read(ERROR_CODE_SOURCE)?;
    entries.extend(extract_error_codes(ERROR_CODE_SOURCE, &wire)?);

    let message = read(WIRE_TAG_SOURCE)?;
    let req = extract_consts(WIRE_TAG_SOURCE, &message, "REQ_", "request-tag");
    let resp = extract_consts(WIRE_TAG_SOURCE, &message, "RESP_", "response-tag");
    if req.is_empty() || resp.is_empty() {
        return Err(AuditError::ExtractionFailed {
            path: WIRE_TAG_SOURCE.to_string(),
            what: "`const REQ_*` / `const RESP_*` wire tags",
        });
    }
    entries.extend(req);
    entries.extend(resp);

    let persist = read(SNAPSHOT_SOURCE)?;
    let roles = extract_consts(SNAPSHOT_SOURCE, &persist, "ROLE_", "snapshot-role");
    if roles.is_empty() {
        return Err(AuditError::ExtractionFailed {
            path: SNAPSHOT_SOURCE.to_string(),
            what: "`const ROLE_*` snapshot role bytes",
        });
    }
    entries.extend(roles);
    let version = extract_consts(
        SNAPSHOT_SOURCE,
        &persist,
        "FORMAT_VERSION",
        "format-version",
    );
    if version.len() != 1 {
        return Err(AuditError::ExtractionFailed {
            path: SNAPSHOT_SOURCE.to_string(),
            what: "`const FORMAT_VERSION`",
        });
    }
    entries.extend(version);
    Ok(entries)
}

/// Renders entries in the committed registry file format.
pub fn render_registry(entries: &[RegistryEntry]) -> String {
    let mut out = String::new();
    out.push_str(
        "# contracts/registry.txt — the append-only contract registry.\n\
         #\n\
         # Every wire error code, wire request/response tag, snapshot role\n\
         # byte, and the snapshot format version is pinned here. The\n\
         # `irs-audit` registry rule fails the build if any pinned entry is\n\
         # renumbered, renamed, or removed, or if a new value appears in\n\
         # source without being appended here. To add an entry: add it in\n\
         # source, then append the matching line (or regenerate with\n\
         # `cargo run -p irs-audit -- --print-registry`). Never edit or\n\
         # delete existing lines — numbers never change meaning and are\n\
         # never reused (see DESIGN.md, \"Static analysis & enforced\n\
         # contracts\").\n\n",
    );
    let mut family = "";
    for e in entries {
        if e.family != family {
            if !family.is_empty() {
                out.push('\n');
            }
            family = e.family;
        }
        out.push_str(&format!("{e}\n"));
    }
    out
}

/// Compares extracted entries against the committed registry text,
/// producing `registry` violations for drift in either direction.
pub fn diff_registry(extracted: &[RegistryEntry], committed: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Parse the committed file: `family name = value` per line.
    let mut pinned: Vec<(usize, String, String, u64)> = Vec::new(); // (line, family, name, value)
    for (idx, raw) in committed.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = (|| {
            let (family, rest) = line.split_once(' ')?;
            let (name, value) = rest.split_once('=')?;
            Some((
                family.to_string(),
                name.trim().to_string(),
                parse_number(value)?,
            ))
        })();
        match parsed {
            Some((family, name, value)) => pinned.push((idx + 1, family, name, value)),
            None => violations.push(Violation {
                file: REGISTRY_PATH.to_string(),
                line: idx + 1,
                rule: Rule::Registry,
                message: format!(
                    "unparseable registry line `{line}` (expected `<family> <name> = <number>`)"
                ),
            }),
        }
    }
    for e in extracted {
        match pinned.iter().find(|(_, f, n, _)| f == e.family && n == &e.name) {
            None => violations.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: Rule::Registry,
                message: format!(
                    "{} `{}` = {} is not pinned in {REGISTRY_PATH}; append `{e}` (the registry is append-only)",
                    e.family, e.name, e.value
                ),
            }),
            Some((line, _, _, value)) if *value != e.value => violations.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: Rule::Registry,
                message: format!(
                    "{} `{}` changed value: source says {}, {REGISTRY_PATH}:{line} pins {} — numbers never change meaning; assign a fresh number instead",
                    e.family, e.name, e.value, value
                ),
            }),
            Some(_) => {}
        }
    }
    for (line, family, name, _) in &pinned {
        if !extracted
            .iter()
            .any(|e| e.family == family && &e.name == name)
        {
            violations.push(Violation {
                file: REGISTRY_PATH.to_string(),
                line: *line,
                rule: Rule::Registry,
                message: format!(
                    "pinned {family} `{name}` no longer exists in source — contracts are append-only; restore it (renames need a fresh entry, keeping the old number reserved)"
                ),
            });
        }
    }
    violations
}

// ---------------------------------------------------------------------
// Per-file orchestration
// ---------------------------------------------------------------------

/// Audits one source file's content. Pure (no filesystem): the real
/// tree and the unit-test fixtures go through the same code. Returns
/// the surviving violations and the number of honored pragmas.
pub fn audit_source(rel: &str, content: &str) -> (Vec<Violation>, usize) {
    let lexed = Lexed::new(content);
    let mut violations = Vec::new();
    let pragmas = collect_pragmas(rel, &lexed, &mut violations);
    let mut raw = Vec::new();

    let stream = lexed.stream();
    let codec_mask = codec_region_mask(&lexed);
    let has_codec_impl = codec_mask.iter().any(|&m| m);

    // no-panic: listed files entirely, plus Codec impl regions anywhere.
    if NO_PANIC_FILES.contains(&rel) {
        raw.extend(scan_no_panic(rel, &stream, None));
    } else if has_codec_impl {
        raw.extend(scan_no_panic(rel, &stream, Some(&codec_mask)));
    }

    // no-index: untrusted-byte files entirely, plus Codec impl regions.
    if NO_INDEX_FILES.contains(&rel) {
        raw.extend(scan_no_index(rel, &lexed, None));
    } else if has_codec_impl {
        raw.extend(scan_no_index(rel, &lexed, Some(&codec_mask)));
    }

    // lock-discipline: every file in the concurrency crates.
    if LOCK_DISCIPLINE_DIRS.iter().any(|d| rel.starts_with(d)) {
        raw.extend(scan_lock_discipline(rel, &stream));
    }

    // crate-hygiene: every library root must deny missing docs and,
    // outside the named exceptions, forbid unsafe code.
    let is_lib_root =
        rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    if is_lib_root {
        let mut required = vec!["#![deny(missing_docs)]"];
        if !UNSAFE_CRATE_ROOTS.contains(&rel) {
            required.push("#![forbid(unsafe_code)]");
        }
        for attr in required {
            if !lexed.code.iter().any(|l| l.contains(attr)) {
                raw.push(Violation {
                    file: rel.to_string(),
                    line: 1,
                    rule: Rule::CrateHygiene,
                    message: format!("library crate is missing `{attr}`"),
                });
            }
        }
    }

    let honored = apply_pragmas(rel, raw, pragmas, &mut violations);
    (violations, honored)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AuditError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every Rust source the audit covers: the root crate's `src/` and
/// each `crates/*/src/`. Integration tests, examples, benches, and the
/// offline dependency shims are out of scope — rules target production
/// code.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, AuditError> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs_files(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries = std::fs::read_dir(&crates).map_err(|e| io_err(&crates, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&crates, &e))?;
            let crate_src = entry.path().join("src");
            if crate_src.is_dir() {
                collect_rs_files(&crate_src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs every rule against the workspace at `root` (the directory
/// holding the top-level `Cargo.toml`, `crates/`, and `contracts/`).
pub fn audit_workspace(root: &Path) -> Result<AuditReport, AuditError> {
    let mut violations = Vec::new();
    let mut pragmas_honored = 0;
    let files = workspace_sources(root)?;
    let files_scanned = files.len();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let content = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        let (file_violations, honored) = audit_source(&rel, &content);
        violations.extend(file_violations);
        pragmas_honored += honored;
    }

    let extracted = extract_registry(root)?;
    let registry_path = root.join(REGISTRY_PATH);
    match std::fs::read_to_string(&registry_path) {
        Ok(committed) => violations.extend(diff_registry(&extracted, &committed)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => violations.push(Violation {
            file: REGISTRY_PATH.to_string(),
            line: 1,
            rule: Rule::Registry,
            message: format!(
                "{REGISTRY_PATH} does not exist; bootstrap it with `cargo run -p irs-audit -- --print-registry > {REGISTRY_PATH}`"
            ),
        }),
        Err(e) => return Err(io_err(&registry_path, &e)),
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(AuditReport {
        violations,
        files_scanned,
        pragmas_honored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // A path inside the full no-panic + no-index scope.
    const DECODE_PATH: &str = "crates/wire/src/frame.rs";
    // A path inside the lock-discipline scope only (catalog is not in
    // the no-panic file list, and this is not a crate root).
    const LOCK_PATH: &str = "crates/catalog/src/store.rs";
    // A path outside every scope (and not a crate root, so
    // crate-hygiene stays quiet on fixtures).
    const FREE_PATH: &str = "crates/datagen/src/gen.rs";

    fn violations(rel: &str, src: &str) -> Vec<Violation> {
        audit_source(rel, src).0
    }

    fn rules(rel: &str, src: &str) -> Vec<Rule> {
        violations(rel, src).into_iter().map(|v| v.rule).collect()
    }

    // --- no-panic ---

    #[test]
    fn no_panic_true_positive() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let vs = violations(DECODE_PATH, src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::NoPanic);
        assert_eq!(vs[0].line, 1);
    }

    #[test]
    fn no_panic_catches_every_macro_and_split_lines() {
        for snippet in [
            "fn f() { panic!(\"boom\") }",
            "fn f() { unreachable!() }",
            "fn f() { todo!() }",
            "fn f() { unimplemented!() }",
            "fn f(x: Option<u8>) { x\n    .expect(\"reason\"); }",
            "fn f(x: Option<u8>) { x\n    .unwrap\n    (); }",
        ] {
            assert_eq!(rules(DECODE_PATH, snippet), [Rule::NoPanic], "{snippet}");
        }
    }

    #[test]
    fn no_panic_true_negatives() {
        for snippet in [
            // Recovery combinators are not panics.
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }",
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }",
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or_default() }",
            // Out-of-scope files are not scanned.
            // Words in comments and strings are not code.
            "// .unwrap() would panic!( here\nfn f() {}",
            "fn f() -> &'static str { \".unwrap() panic!(\" }",
            // A user macro that merely contains the word.
            "fn f() { my_panic!(\"x\") }",
        ] {
            assert_eq!(rules(DECODE_PATH, snippet), [], "{snippet}");
        }
        assert_eq!(
            rules(FREE_PATH, "fn f(x: Option<u8>) -> u8 { x.unwrap() }"),
            []
        );
    }

    #[test]
    fn no_panic_skips_cfg_test_code() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); panic!(\"x\") }\n}\n";
        assert_eq!(rules(DECODE_PATH, src), []);
    }

    #[test]
    fn no_panic_allowed_by_pragma_same_and_previous_line() {
        let trailing = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // audit: allow(no-panic): proven Some above\n";
        let preceding = "// audit: allow(no-panic): proven Some above\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        for src in [trailing, preceding] {
            let (vs, honored) = audit_source(DECODE_PATH, src);
            assert_eq!(vs, [], "{src}");
            assert_eq!(honored, 1);
        }
    }

    #[test]
    fn stale_pragma_is_a_violation() {
        let src = "// audit: allow(no-panic): this excuses nothing\nfn f() {}\n";
        let vs = violations(DECODE_PATH, src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::Pragma);
        assert!(vs[0].message.contains("stale"), "{}", vs[0].message);
    }

    #[test]
    fn pragma_grammar_is_enforced() {
        // Unknown rule, unwaivable rule, missing reason, malformed.
        for (src, needle) in [
            ("// audit: allow(no-crash): x\nfn f() {}\n", "unknown rule"),
            (
                "// audit: allow(registry): x\nfn f() {}\n",
                "cannot be waived",
            ),
            (
                "// audit: allow(no-panic)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
                "requires a reason",
            ),
            ("// audit: please ignore this\nfn f() {}\n", "malformed"),
        ] {
            let vs = violations(DECODE_PATH, src);
            assert!(
                vs.iter()
                    .any(|v| v.rule == Rule::Pragma && v.message.contains(needle)),
                "{src} -> {vs:?}"
            );
        }
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_waive() {
        let src =
            "// audit: allow(no-index): wrong rule\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let got = rules(DECODE_PATH, src);
        // The unwrap survives and the pragma is stale.
        assert!(got.contains(&Rule::NoPanic), "{got:?}");
        assert!(got.contains(&Rule::Pragma), "{got:?}");
    }

    // --- no-index ---

    #[test]
    fn no_index_true_positive() {
        let src = "fn f(buf: &[u8]) -> u8 { buf[0] }\n";
        let vs = violations(DECODE_PATH, src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::NoIndex);
    }

    #[test]
    fn no_index_true_negatives() {
        for snippet in [
            "fn f(buf: &[u8]) -> Option<&u8> { buf.get(0) }",
            "fn f(buf: &mut [u8]) {}",                  // slice type
            "#[derive(Debug)]\nstruct S;",              // attribute
            "fn f() -> Vec<u8> { vec![1, 2] }",         // macro bracket
            "fn f() -> [u8; 2] { [1, 2] }",             // array type + literal
            "fn f() { let _a = [0u8; 4]; }",            // array literal
            "fn f(v: &[u8]) { for _x in v.iter() {} }", // no bracket at all
        ] {
            assert_eq!(rules(DECODE_PATH, snippet), [], "{snippet}");
        }
        // Indexing outside the decode scope is not this rule's business.
        assert_eq!(rules(LOCK_PATH, "fn f(b: &[u8]) -> u8 { b[0] }"), []);
    }

    #[test]
    fn no_index_allowed_by_pragma() {
        let src = "fn f(b: &[u8], i: usize) -> u8 {\n    // audit: allow(no-index): i is masked to 0..256 above\n    b[i & 0xFF]\n}\n";
        let (vs, honored) = audit_source(DECODE_PATH, src);
        assert_eq!(vs, []);
        assert_eq!(honored, 1);
    }

    // --- lock-discipline ---

    #[test]
    fn lock_discipline_true_positive_across_lines() {
        let src = "fn f(l: &std::sync::RwLock<u8>) -> u8 {\n    *l.read()\n        .unwrap()\n}\n";
        let vs = violations(LOCK_PATH, src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::LockDiscipline);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn lock_discipline_catches_expect_and_all_lock_kinds() {
        for snippet in [
            "fn f(l: &std::sync::RwLock<u8>) { l.write().unwrap(); }",
            "fn f(l: &std::sync::Mutex<u8>) { l.lock().unwrap(); }",
            "fn f(l: &std::sync::Mutex<u8>) { l.lock().expect(\"poisoned\"); }",
        ] {
            let got = rules(LOCK_PATH, snippet);
            assert!(got.contains(&Rule::LockDiscipline), "{snippet} -> {got:?}");
        }
    }

    #[test]
    fn lock_discipline_true_negatives() {
        for snippet in [
            "fn f(l: &std::sync::RwLock<u8>) -> u8 { *l.read().unwrap_or_else(|e| e.into_inner()) }",
            "fn f(l: &std::sync::RwLock<u8>) -> u8 { match l.read() { Ok(g) => *g, Err(_) => 0 } }",
            // Reader-returning io calls are not locks.
            "fn f(mut s: impl std::io::Read) { let mut b = [0u8; 4]; let _ = s.read(&mut b); }",
        ] {
            assert_eq!(rules(LOCK_PATH, snippet), [], "{snippet}");
        }
        // Out of scope: the datagen crate takes no locks.
        assert_eq!(
            rules(
                FREE_PATH,
                "fn f(l: &std::sync::Mutex<u8>) { l.lock().unwrap(); }"
            ),
            []
        );
    }

    #[test]
    fn lock_discipline_allowed_by_pragma() {
        let src = "fn f(l: &std::sync::Mutex<u8>) {\n    // audit: allow(lock-discipline): single-threaded tool, poisoning is unreachable\n    l.lock().unwrap();\n}\n";
        let (vs, honored) = audit_source(LOCK_PATH, src);
        assert_eq!(vs, []);
        assert_eq!(honored, 1);
    }

    // --- codec regions ---

    #[test]
    fn codec_impl_blocks_are_audited_anywhere() {
        let src = "impl Codec for Foo {\n    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {\n        let b = r.buf[0];\n        Ok(Foo(b, r.next().unwrap()))\n    }\n}\n";
        let got = rules(FREE_PATH, src);
        assert!(got.contains(&Rule::NoPanic), "{got:?}");
        assert!(got.contains(&Rule::NoIndex), "{got:?}");
    }

    #[test]
    fn code_outside_codec_impls_is_untouched_in_unscoped_files() {
        let src = "impl Codec for Foo {\n    fn encode_into(&self, out: &mut Vec<u8>) { out.push(0) }\n}\nfn helper(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules(FREE_PATH, src), []);
    }

    #[test]
    fn generic_codec_impl_headers_are_recognized() {
        let src = "impl<E: Endpoint + Codec> Codec for Key<E> {\n    fn decode(r: &mut R) -> Result<Self, PersistError> { r.0.unwrap() }\n}\n";
        assert_eq!(rules(FREE_PATH, src), [Rule::NoPanic]);
    }

    // --- crate hygiene ---

    #[test]
    fn missing_docs_lint_is_required_on_lib_roots() {
        let src = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        let vs = violations("crates/kds/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::CrateHygiene);
        assert!(vs[0].message.contains("missing_docs"), "{}", vs[0].message);

        let ok = "#![deny(missing_docs)]\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert_eq!(rules("crates/kds/src/lib.rs", ok), []);
        assert_eq!(rules("src/lib.rs", ok), []);
        // Non-root modules carry no such requirement.
        assert_eq!(rules("crates/kds/src/tree.rs", "pub fn f() {}\n"), []);
    }

    #[test]
    fn forbid_unsafe_is_required_on_lib_roots_but_the_named_exception() {
        // True positives: a root without the attribute, or with it only
        // in a comment, or with the weaker `deny` form.
        for src in [
            "#![deny(missing_docs)]\npub fn f() {}\n",
            "#![deny(missing_docs)]\n// #![forbid(unsafe_code)]\npub fn f() {}\n",
            "#![deny(missing_docs)]\n#![deny(unsafe_code)]\npub fn f() {}\n",
        ] {
            for root in ["crates/kds/src/lib.rs", "src/lib.rs"] {
                let vs = violations(root, src);
                assert_eq!(vs.len(), 1, "{root}: {src}");
                assert_eq!(vs[0].rule, Rule::CrateHygiene);
                assert!(vs[0].message.contains("forbid(unsafe_code)"));
            }
        }
        // True negatives: the exempt crate, and non-root modules.
        let no_forbid = "#![deny(missing_docs)]\npub fn f() {}\n";
        assert_eq!(rules("crates/sampling/src/lib.rs", no_forbid), []);
        assert_eq!(rules("crates/kds/src/tree.rs", "pub fn f() {}\n"), []);
        // The exemption waives only the unsafe requirement.
        assert_eq!(
            rules("crates/sampling/src/lib.rs", "pub fn f() {}\n"),
            [Rule::CrateHygiene]
        );
    }

    // --- registry ---

    fn entry(family: &'static str, name: &str, value: u64) -> RegistryEntry {
        RegistryEntry {
            family,
            name: name.to_string(),
            value,
            file: "src.rs".to_string(),
            line: 1,
        }
    }

    #[test]
    fn registry_roundtrip_is_clean() {
        let extracted = vec![
            entry("error-code", "BadFrame", 400),
            entry("request-tag", "REQ_HEALTH", 1),
        ];
        let committed = render_registry(&extracted);
        assert_eq!(diff_registry(&extracted, &committed), []);
    }

    #[test]
    fn registry_detects_unpinned_renumbered_and_removed() {
        let committed = "error-code BadFrame = 400\nrequest-tag REQ_HEALTH = 1\n";
        // Renumbered in source.
        let renumbered = vec![
            entry("error-code", "BadFrame", 499),
            entry("request-tag", "REQ_HEALTH", 1),
        ];
        let vs = diff_registry(&renumbered, committed);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("changed value"), "{}", vs[0].message);

        // New in source, not pinned.
        let added = vec![
            entry("error-code", "BadFrame", 400),
            entry("error-code", "FrameTooLarge", 401),
            entry("request-tag", "REQ_HEALTH", 1),
        ];
        let vs = diff_registry(&added, committed);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("not pinned"), "{}", vs[0].message);

        // Removed from source but still pinned.
        let removed = vec![entry("error-code", "BadFrame", 400)];
        let vs = diff_registry(&removed, committed);
        assert_eq!(vs.len(), 1);
        assert!(
            vs[0].message.contains("no longer exists"),
            "{}",
            vs[0].message
        );
    }

    #[test]
    fn registry_extraction_parses_enum_and_consts() {
        let wire = "/// docs\npub enum ErrorCode {\n    /// doc\n    BadFrame = 400,\n    FrameTooLarge = 0x191,\n}\n";
        let lexed = Lexed::new(wire);
        let entries = extract_error_codes("wire.rs", &lexed).expect("extracts");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "BadFrame");
        assert_eq!(entries[0].value, 400);
        assert_eq!(entries[1].value, 401);

        let msg =
            "const REQ_HEALTH: u8 = 1;\nconst RESP_OK: u8 = 1;\npub const ROLE_SHARD: u8 = 0x02;\n";
        let lexed = Lexed::new(msg);
        let req = extract_consts("m.rs", &lexed, "REQ_", "request-tag");
        assert_eq!(req.len(), 1);
        assert_eq!(req[0].value, 1);
        let role = extract_consts("m.rs", &lexed, "ROLE_", "snapshot-role");
        assert_eq!(role[0].value, 2);
    }

    // --- lexer corner cases ---

    #[test]
    fn lexer_handles_raw_strings_chars_and_nested_comments() {
        for snippet in [
            "fn f() -> &'static str { r#\"x.unwrap() \"quoted\" panic!(\"#  }",
            "fn f() -> char { '\\'' } fn g() -> char { '[' }",
            "/* outer /* x.unwrap() */ still comment panic!( */ fn f() {}",
            "fn f(b: &[u8]) -> u8 { b\"bytes.unwrap()\"[0]; 0 }", // byte string content inert
        ] {
            let got = rules(DECODE_PATH, snippet);
            // The byte-string case still flags its *indexing*, nothing else.
            assert!(
                got.iter().all(|r| *r == Rule::NoIndex),
                "{snippet} -> {got:?}"
            );
        }
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src =
            "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g(y: Option<u8>) -> u8 { y.unwrap() }\n";
        assert_eq!(rules(DECODE_PATH, src), [Rule::NoPanic]);
    }
}
