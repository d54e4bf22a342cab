//! Every upper-case `.md` document a source file names (`ROADMAP.md`,
//! `docs/PROTOCOL.md`) exists, at the repo root or under `docs/`: a
//! pointer to a document that was never written sends its reader nowhere.

use std::path::{Path, PathBuf};

/// The directories whose `.rs` files are read.
const SOURCES: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Every `.rs` file under `dir`, recursively, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The upper-case `.md` names in `text`: an upper-case letter, then
/// upper-case letters, digits or `_`, then `.md`, with no other letter or
/// digit on either side.
fn md_names(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let name_byte = |b: u8| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_';
    let mut names = Vec::new();
    let mut from = 0;
    while let Some(found) = text[from..].find(".md") {
        let end = from + found;
        from = end + 3;
        let mut start = end;
        while start > 0 && name_byte(bytes[start - 1]) {
            start -= 1;
        }
        let fenced = |at: Option<&u8>| !at.is_some_and(u8::is_ascii_alphanumeric);
        if start < end
            && bytes[start].is_ascii_uppercase()
            && fenced(start.checked_sub(1).map(|at| &bytes[at]))
            && fenced(bytes.get(end + 3))
        {
            names.push(&text[start..end + 3]);
        }
    }
    names
}

#[test]
fn every_named_document_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SOURCES {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(!files.is_empty(), "found no source file");
    let mut dangling = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        for (line, content) in text.lines().enumerate() {
            for name in md_names(content) {
                if !root.join(name).is_file() && !root.join("docs").join(name).is_file() {
                    let at = file.strip_prefix(root).unwrap_or(file);
                    dangling.push(format!("{}:{}: {name}", at.display(), line + 1));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "documents named but found neither at the root nor under docs/:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn names_are_read_whole() {
    let line = "see docs/UNSAFE.md, notes.md, XUNSAFE.mdx and (ROADMAP.md)";
    assert_eq!(md_names(line), ["UNSAFE.md", "ROADMAP.md"]);
    assert_eq!(md_names("aREADME.md 2X.md .md"), Vec::<&str>::new());
}
