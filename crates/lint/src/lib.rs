//! pm-lsh-lint — workspace static analysis for PM-LSH.
//!
//! Four token-level passes over the workspace's Rust sources, built on a
//! small comment- and string-aware lexer (no external crates — nothing
//! resolves offline, so like `crates/proptest` this tool is std-only):
//!
//! 1. **unsafe-audit** — every `unsafe` site needs an adjacent `// SAFETY:`
//!    comment (or `# Safety` rustdoc section for `unsafe fn`); the full
//!    site list is rendered into the checked-in `docs/UNSAFE.md` ledger
//!    and compared for drift.
//! 2. **hot-path** — modules marked `//! lint: hot-path` ban panic,
//!    allocation, blocking and I/O constructs outside `#[cfg(test)]`.
//! 3. **protocol** — wire and snapshot constants in the source must match
//!    every citation in `docs/PROTOCOL.md` / `docs/ARCHITECTURE.md`.
//! 4. **ffi-audit** — calls to locally-declared `extern "C"` functions
//!    must not discard their return value.
//!
//! False positives use the scoped escape hatch
//! `// lint: allow(<pass>) -- <reason>`; the reason is mandatory.
//!
//! Entry point: [`run_check`]. The `pm-lsh-lint` binary wraps it as
//! `cargo run -p pm-lsh-lint -- check [--fix-ledger]`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod annot;
pub mod ffi_audit;
pub mod hotpath;
pub mod ledger;
pub mod lexer;
pub mod protocol;
pub mod unsafe_audit;

/// The lint passes (plus the annotation grammar itself, whose parse errors
/// are findings too).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    UnsafeAudit,
    HotPath,
    Protocol,
    FfiAudit,
    Annotation,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::UnsafeAudit => "unsafe-audit",
            Pass::HotPath => "hot-path",
            Pass::Protocol => "protocol",
            Pass::FfiAudit => "ffi-audit",
            Pass::Annotation => "annotation",
        })
    }
}

/// One reported problem.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line; 0 when the finding is about the file as a whole.
    pub line: u32,
    pub pass: Pass,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, pass: Pass, message: impl Into<String>) -> Self {
        Finding {
            file: file.to_string(),
            line,
            pass,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

/// The result of a full workspace check.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Files scanned (for the summary line).
    pub files_scanned: usize,
    /// Unsafe sites collected into the ledger.
    pub unsafe_sites: usize,
    /// `--fix-ledger` rewrote `docs/UNSAFE.md` this run.
    pub ledger_written: bool,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Walks upward from `start` to the workspace root (the `Cargo.toml`
/// containing `[workspace]`).
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Directory names never scanned: build output, VCS metadata, and the
/// lint's own known-bad test fixtures.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// All `.rs` files under `root`, workspace-relative, sorted.
pub fn workspace_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_path_buf());
                }
            }
        }
    }
    files.sort();
    files
}

fn rel_str(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The three files the protocol pass extracts its constants from, and the
/// two docs it checks them against.
const PROTO_SOURCES: [&str; 3] = [
    "crates/engine/src/frame.rs",
    "crates/engine/src/server.rs",
    "crates/persist/src/format.rs",
];
const PROTO_DOCS: [&str; 2] = ["docs/PROTOCOL.md", "docs/ARCHITECTURE.md"];

/// Path of the generated unsafe ledger, workspace-relative.
pub const LEDGER_PATH: &str = "docs/UNSAFE.md";

/// Runs all passes over the workspace at `root`. With `fix_ledger`, an
/// out-of-date `docs/UNSAFE.md` is rewritten instead of reported.
pub fn run_check(root: &Path, fix_ledger: bool) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut entries: Vec<ledger::LedgerEntry> = Vec::new();

    for rel in workspace_rs_files(root) {
        let path = rel_str(&rel);
        let src = fs::read_to_string(root.join(&rel))?;
        report.files_scanned += 1;
        let file = match lexer::lex(&src) {
            Ok(f) => f,
            Err(e) => {
                report.findings.push(Finding::new(
                    &path,
                    e.line,
                    Pass::Annotation,
                    format!("lex error: {}", e.message),
                ));
                continue;
            }
        };
        let ann = annot::parse(&file, &path, &mut report.findings);
        let sites = unsafe_audit::check(&file, &path, &ann, &mut report.findings);
        entries.extend(sites.into_iter().map(|site| ledger::LedgerEntry {
            path: path.clone(),
            site,
        }));
        if ann.hot_path {
            hotpath::check(&file, &path, &ann, &mut report.findings);
        }
        ffi_audit::check(&file, &path, &ann, &mut report.findings);
    }

    // Protocol-constant consistency.
    let mut proto_srcs = Vec::new();
    for p in PROTO_SOURCES.iter().chain(PROTO_DOCS.iter()) {
        match fs::read_to_string(root.join(p)) {
            Ok(text) => proto_srcs.push(text),
            Err(_) => {
                report.findings.push(Finding::new(
                    p,
                    0,
                    Pass::Protocol,
                    "file missing — the protocol pass extracts wire constants from it",
                ));
            }
        }
    }
    if let [frame, server, format, protocol_md, architecture_md] = proto_srcs.as_slice() {
        if let Some(consts) = protocol::extract(frame, server, format, &mut report.findings) {
            protocol::check_docs(&consts, protocol_md, architecture_md, &mut report.findings);
        }
    }

    // Ledger drift.
    report.unsafe_sites = entries.len();
    let rendered = ledger::render(&mut entries);
    let ledger_path = root.join(LEDGER_PATH);
    let on_disk = fs::read_to_string(&ledger_path).unwrap_or_default();
    if on_disk != rendered {
        if fix_ledger {
            fs::write(&ledger_path, &rendered)?;
            report.ledger_written = true;
        } else {
            report.findings.push(Finding::new(
                LEDGER_PATH,
                0,
                Pass::UnsafeAudit,
                "unsafe ledger is out of date — regenerate with \
                 `cargo run -p pm-lsh-lint -- check --fix-ledger`",
            ));
        }
    }

    report.findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.message.cmp(&b.message))
    });
    Ok(report)
}
