//! Pass 3 — protocol-constant consistency.
//!
//! The wire and on-disk formats are *specified* in `docs/PROTOCOL.md` and
//! `docs/ARCHITECTURE.md` and *implemented* in `crates/engine/src/frame.rs`,
//! `crates/engine/src/server.rs` and `crates/persist`. Nothing ties the two
//! together — a renumbered opcode or a changed frame-cap formula ships with
//! stale docs and breaks every external client written against them.
//!
//! This pass extracts the named constants from the **source** (the single
//! source of truth) and verifies every citation in the docs matches:
//!
//! * binary opcodes/statuses (`OP_*`, `STATUS_*`) vs the PROTOCOL.md
//!   byte tables (`| 0xNN | NAME | ...` rows);
//! * the binary frame cap (`frame_cap`) and the text line cap
//!   (`line_cap = ...`) vs every `max(F, B + M·d)` formula cited in
//!   either doc;
//! * the `.pmlsh` magic, format version and section ids vs
//!   ARCHITECTURE.md's layout table;
//! * the `BATCH` verb's cap (`BATCH_MAX_OPS`) and reply shapes
//!   (`BATCH_OK_PREFIX`, `BATCH_FAIL_PREFIX`) vs the PROTOCOL.md prose
//!   that external clients parse replies by.
//!
//! Values are compared, not prose: editing either side without the other
//! fails the `lint` CI job.

use crate::lexer::{lex, LexFile, Tok};
use crate::{Finding, Pass};

/// The constants extracted from the source of truth.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoConsts {
    /// `(name, value)` for each opcode/status in `frame.rs`.
    pub opcodes: Vec<(&'static str, u128)>,
    /// `frame_cap` as `(floor, base, per_dim)` — `max(floor, base + per_dim·d)`.
    pub frame_cap: (u128, u128, u128),
    /// `line_cap` as `(floor, base, per_dim)`.
    pub line_cap: (u128, u128, u128),
    /// `.pmlsh` snapshot magic bytes, as text.
    pub magic: String,
    /// `.pmlsh` format version.
    pub format_version: u128,
    /// `(section name, id)` in file order.
    pub sections: Vec<(&'static str, u128)>,
    /// Most op lines one `BATCH` request may carry (`BATCH_MAX_OPS`).
    pub batch_max_ops: u128,
    /// Verbatim prefix of a successful `BATCH` reply (`BATCH_OK_PREFIX`).
    pub batch_ok_prefix: String,
    /// Verbatim prefix of a per-op failure line (`BATCH_FAIL_PREFIX`).
    pub batch_fail_prefix: String,
}

/// The doc table names each opcode/status row is keyed by, and the source
/// constant it must match. Request and reply tables share a namespace —
/// the names are disjoint.
const OPCODE_NAMES: [(&str, &str); 5] = [
    ("QUERY", "OP_QUERY"),
    ("PING", "OP_PING"),
    ("OK", "STATUS_OK"),
    ("ERR", "STATUS_ERR"),
    ("PONG", "STATUS_PONG"),
];

/// ARCHITECTURE.md layout-table section names → `SEC_*` constants.
const SECTION_NAMES: [(&str, &str); 7] = [
    ("HEADER", "SEC_HEADER"),
    ("PROJ", "SEC_PROJ"),
    ("DATA", "SEC_DATA"),
    ("POINTS", "SEC_POINTS"),
    ("IDMAPS", "SEC_IDMAPS"),
    ("ECDF", "SEC_ECDF"),
    ("SUBSPACE", "SEC_SUBSPACE"),
];

/// Value of `const NAME: ... = <int>;`.
fn const_int(file: &LexFile, name: &str) -> Option<u128> {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !matches!(&toks[i].tok, Tok::Ident(w) if w == "const") {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(n)) if n == name) {
            continue;
        }
        // First integer between the `=` and the `;`.
        let mut j = i + 2;
        while j < toks.len() && toks[j].tok != Tok::Punct('=') {
            j += 1;
        }
        while j < toks.len() && toks[j].tok != Tok::Punct(';') {
            if let Tok::Int(v) = toks[j].tok {
                return Some(v);
            }
            j += 1;
        }
        return None;
    }
    None
}

/// String content of `const NAME: ... = ..."TEXT"...;`.
fn const_str(file: &LexFile, name: &str) -> Option<String> {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !matches!(&toks[i].tok, Tok::Ident(w) if w == "const") {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(n)) if n == name) {
            continue;
        }
        // Skip the type annotation first: `[u8; 8]` contains a `;`.
        let mut j = i + 2;
        while j < toks.len() && toks[j].tok != Tok::Punct('=') {
            j += 1;
        }
        while j < toks.len() && toks[j].tok != Tok::Punct(';') {
            if let Tok::Str(s) = &toks[j].tok {
                return Some(s.clone());
            }
            j += 1;
        }
        return None;
    }
    None
}

/// The integer literals in the body of `fn NAME`, in source order.
fn fn_body_ints(file: &LexFile, name: &str) -> Option<Vec<u128>> {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !matches!(&toks[i].tok, Tok::Ident(w) if w == "fn") {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(n)) if n == name) {
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && toks[j].tok != Tok::Punct('{') {
            j += 1;
        }
        let mut depth = 0i32;
        let mut ints = Vec::new();
        while j < toks.len() {
            match toks[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(ints);
                    }
                }
                Tok::Int(v) => ints.push(v),
                _ => {}
            }
            j += 1;
        }
        return Some(ints);
    }
    None
}

/// The integer literals of the first `NAME = ...;` assignment.
fn assign_ints(file: &LexFile, name: &str) -> Option<Vec<u128>> {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !matches!(&toks[i].tok, Tok::Ident(w) if w == name) {
            continue;
        }
        // `name =` but not `name ==`.
        if toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('='))
            || toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct('='))
        {
            continue;
        }
        let mut ints = Vec::new();
        let mut j = i + 2;
        while j < toks.len() && toks[j].tok != Tok::Punct(';') {
            if let Tok::Int(v) = toks[j].tok {
                ints.push(v);
            }
            j += 1;
        }
        return Some(ints);
    }
    None
}

fn triple(
    ints: &[u128],
    what: &str,
    path: &str,
    findings: &mut Vec<Finding>,
) -> Option<(u128, u128, u128)> {
    // Written as `(BASE + MULT * dim).max(FLOOR)` in both sources.
    if let [base, mult, floor] = ints {
        Some((*floor, *base, *mult))
    } else {
        findings.push(Finding::new(
            path,
            0,
            Pass::Protocol,
            format!(
                "{what} no longer has the `(base + mult * d).max(floor)` shape the lint \
                 extracts ({ints:?}); teach crates/lint/src/protocol.rs the new shape"
            ),
        ));
        None
    }
}

/// Extracts [`ProtoConsts`] from the three source files' contents. Missing
/// constants are findings — renaming a wire constant without updating the
/// lint is itself drift.
pub fn extract(
    frame_src: &str,
    server_src: &str,
    format_src: &str,
    findings: &mut Vec<Finding>,
) -> Option<ProtoConsts> {
    let mut lex_ok = |src: &str, path: &str| match lex(src) {
        Ok(f) => Some(f),
        Err(e) => {
            findings.push(Finding::new(
                path,
                e.line,
                Pass::Protocol,
                format!("lex error: {}", e.message),
            ));
            None
        }
    };
    let frame = lex_ok(frame_src, "crates/engine/src/frame.rs")?;
    let server = lex_ok(server_src, "crates/engine/src/server.rs")?;
    let format = lex_ok(format_src, "crates/persist/src/format.rs")?;

    let before = findings.len();
    let mut opcodes = Vec::new();
    for (_, const_name) in OPCODE_NAMES {
        match const_int(&frame, const_name) {
            Some(v) => opcodes.push((const_name, v)),
            None => findings.push(Finding::new(
                "crates/engine/src/frame.rs",
                0,
                Pass::Protocol,
                format!("wire constant `{const_name}` not found (moved or renamed?)"),
            )),
        }
    }
    let frame_cap = fn_body_ints(&frame, "frame_cap")
        .and_then(|ints| triple(&ints, "`frame_cap`", "crates/engine/src/frame.rs", findings));
    if fn_body_ints(&frame, "frame_cap").is_none() {
        findings.push(Finding::new(
            "crates/engine/src/frame.rs",
            0,
            Pass::Protocol,
            "fn `frame_cap` not found (moved or renamed?)",
        ));
    }
    let line_cap = assign_ints(&server, "line_cap")
        .and_then(|ints| triple(&ints, "`line_cap`", "crates/engine/src/server.rs", findings));
    if assign_ints(&server, "line_cap").is_none() {
        findings.push(Finding::new(
            "crates/engine/src/server.rs",
            0,
            Pass::Protocol,
            "`line_cap = ...` assignment not found (moved or renamed?)",
        ));
    }
    let magic = const_str(&format, "MAGIC");
    if magic.is_none() {
        findings.push(Finding::new(
            "crates/persist/src/format.rs",
            0,
            Pass::Protocol,
            "const `MAGIC` not found",
        ));
    }
    let format_version = const_int(&format, "FORMAT_VERSION");
    if format_version.is_none() {
        findings.push(Finding::new(
            "crates/persist/src/format.rs",
            0,
            Pass::Protocol,
            "const `FORMAT_VERSION` not found",
        ));
    }
    let mut sections = Vec::new();
    for (_, const_name) in SECTION_NAMES {
        match const_int(&format, const_name) {
            Some(v) => sections.push((const_name, v)),
            None => findings.push(Finding::new(
                "crates/persist/src/format.rs",
                0,
                Pass::Protocol,
                format!("section id `{const_name}` not found"),
            )),
        }
    }
    let batch_max_ops = const_int(&server, "BATCH_MAX_OPS");
    if batch_max_ops.is_none() {
        findings.push(Finding::new(
            "crates/engine/src/server.rs",
            0,
            Pass::Protocol,
            "const `BATCH_MAX_OPS` not found (moved or renamed?)",
        ));
    }
    let batch_ok_prefix = const_str(&server, "BATCH_OK_PREFIX");
    if batch_ok_prefix.is_none() {
        findings.push(Finding::new(
            "crates/engine/src/server.rs",
            0,
            Pass::Protocol,
            "const `BATCH_OK_PREFIX` not found (moved or renamed?)",
        ));
    }
    let batch_fail_prefix = const_str(&server, "BATCH_FAIL_PREFIX");
    if batch_fail_prefix.is_none() {
        findings.push(Finding::new(
            "crates/engine/src/server.rs",
            0,
            Pass::Protocol,
            "const `BATCH_FAIL_PREFIX` not found (moved or renamed?)",
        ));
    }
    if findings.len() != before {
        return None;
    }
    Some(ProtoConsts {
        opcodes,
        frame_cap: frame_cap?,
        line_cap: line_cap?,
        magic: magic?,
        format_version: format_version?,
        sections,
        batch_max_ops: batch_max_ops?,
        batch_ok_prefix: batch_ok_prefix?,
        batch_fail_prefix: batch_fail_prefix?,
    })
}

/// Parses `0xNN` / `NN` (the docs cite opcodes in hex, section ids in
/// decimal).
fn parse_doc_int(cell: &str) -> Option<u128> {
    let cell = cell.trim().trim_matches('`').trim();
    if let Some(hex) = cell.strip_prefix("0x") {
        u128::from_str_radix(hex, 16).ok()
    } else {
        cell.parse().ok()
    }
}

/// Markdown-table rows of the form `| <int> | <NAME> | ...` keyed by a
/// known name set: `(name, cited value, line)`.
fn doc_table_rows<'a>(doc: &str, names: &'a [(&'a str, &str)]) -> Vec<(&'a str, u128, u32)> {
    let mut rows = Vec::new();
    for (lineno, line) in doc.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed.split('|').map(str::trim).collect();
        // `| a | b |` splits to ["", "a", "b", ""].
        if cells.len() < 4 {
            continue;
        }
        let Some(value) = parse_doc_int(cells[1]) else {
            continue;
        };
        let name_cell = cells[2].trim_matches('`');
        if let Some((name, _)) = names.iter().find(|(n, _)| *n == name_cell) {
            rows.push((*name, value, lineno as u32 + 1));
        }
    }
    rows
}

/// Every `max(F, B + M·d)` citation in `doc`: `(floor, base, mult, line)`.
fn doc_cap_formulas(doc: &str) -> Vec<(u128, u128, u128, u32)> {
    let mut out = Vec::new();
    for (lineno, line) in doc.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("max(") {
            rest = &rest[pos + 4..];
            // Expect `F, B + M·d)` with flexible spacing.
            let Some(close) = rest.find(')') else {
                continue;
            };
            let inner = &rest[..close];
            let Some((floor_s, tail)) = inner.split_once(',') else {
                continue;
            };
            let Some((base_s, mult_s)) = tail.split_once('+') else {
                continue;
            };
            let Some(mult_s) = mult_s.trim().strip_suffix("·d") else {
                continue;
            };
            let (Ok(floor), Ok(base), Ok(mult)) = (
                floor_s.trim().parse::<u128>(),
                base_s.trim().parse::<u128>(),
                mult_s.trim().parse::<u128>(),
            ) else {
                continue;
            };
            out.push((floor, base, mult, lineno as u32 + 1));
        }
    }
    out
}

/// Checks the two docs against the extracted constants.
pub fn check_docs(
    consts: &ProtoConsts,
    protocol_md: &str,
    architecture_md: &str,
    findings: &mut Vec<Finding>,
) {
    const PROTO: &str = "docs/PROTOCOL.md";
    const ARCH: &str = "docs/ARCHITECTURE.md";

    // Opcode/status tables in PROTOCOL.md.
    let rows = doc_table_rows(protocol_md, &OPCODE_NAMES);
    for (doc_name, const_name) in OPCODE_NAMES {
        let expected = consts
            .opcodes
            .iter()
            .find(|(n, _)| *n == const_name)
            .map(|(_, v)| *v)
            .expect("extract() filled every opcode");
        let cited: Vec<&(&str, u128, u32)> =
            rows.iter().filter(|(n, _, _)| *n == doc_name).collect();
        if cited.is_empty() {
            findings.push(Finding::new(
                PROTO,
                0,
                Pass::Protocol,
                format!("binary-protocol table row for `{doc_name}` ({const_name}) is missing"),
            ));
        }
        for (_, value, line) in cited {
            if *value != expected {
                findings.push(Finding::new(
                    PROTO,
                    *line,
                    Pass::Protocol,
                    format!(
                        "`{doc_name}` cited as 0x{value:02x} but {const_name} = 0x{expected:02x} \
                         in crates/engine/src/frame.rs"
                    ),
                ));
            }
        }
    }

    // Cap formulas: every citation in either doc must match frame_cap or
    // line_cap, and PROTOCOL.md must cite both at least once.
    let expected = [consts.frame_cap, consts.line_cap];
    let mut seen = [false; 2];
    for (path, doc) in [(PROTO, protocol_md), (ARCH, architecture_md)] {
        for (floor, base, mult, line) in doc_cap_formulas(doc) {
            match expected.iter().position(|&e| e == (floor, base, mult)) {
                Some(idx) => {
                    if path == PROTO {
                        seen[idx] = true;
                    }
                }
                None => findings.push(Finding::new(
                    path,
                    line,
                    Pass::Protocol,
                    format!(
                        "cap formula `max({floor}, {base} + {mult}·d)` matches neither \
                         frame_cap `max({}, {} + {}·d)` nor line_cap `max({}, {} + {}·d)`",
                        consts.frame_cap.0,
                        consts.frame_cap.1,
                        consts.frame_cap.2,
                        consts.line_cap.0,
                        consts.line_cap.1,
                        consts.line_cap.2,
                    ),
                )),
            }
        }
    }
    for (idx, what) in [(0usize, "binary frame cap"), (1, "text line cap")] {
        if !seen[idx] {
            findings.push(Finding::new(
                PROTO,
                0,
                Pass::Protocol,
                format!("the {what} formula is no longer cited in docs/PROTOCOL.md"),
            ));
        }
    }

    // Magic strings and format version.
    for (path, doc) in [(PROTO, protocol_md), (ARCH, architecture_md)] {
        if !doc.contains(&consts.magic) {
            findings.push(Finding::new(
                path,
                0,
                Pass::Protocol,
                format!("snapshot magic `{}` is not cited", consts.magic),
            ));
        }
    }
    let version_phrase = format!("format version {}", consts.format_version);
    if !architecture_md.contains(&version_phrase) {
        findings.push(Finding::new(
            ARCH,
            0,
            Pass::Protocol,
            format!("`.pmlsh` layout section does not cite `{version_phrase}`"),
        ));
    }

    // The BATCH verb's cap and reply shapes: external clients parse the
    // `OK applied=` summary and count `FAIL ` lines by these strings, so
    // PROTOCOL.md must cite all three verbatim.
    let cap_phrase = format!("at most {} ops", consts.batch_max_ops);
    if !protocol_md.contains(&cap_phrase) {
        findings.push(Finding::new(
            PROTO,
            0,
            Pass::Protocol,
            format!(
                "the BATCH op cap is no longer cited as `{cap_phrase}` \
                 (BATCH_MAX_OPS in crates/engine/src/server.rs)"
            ),
        ));
    }
    for (what, prefix) in [
        ("success-reply prefix", &consts.batch_ok_prefix),
        ("failure-line prefix", &consts.batch_fail_prefix),
    ] {
        if !protocol_md.contains(prefix.as_str()) {
            findings.push(Finding::new(
                PROTO,
                0,
                Pass::Protocol,
                format!("the BATCH {what} `{prefix}` is not cited in docs/PROTOCOL.md"),
            ));
        }
    }

    // Section-id table in ARCHITECTURE.md.
    let rows = doc_table_rows(architecture_md, &SECTION_NAMES);
    for (doc_name, const_name) in SECTION_NAMES {
        let expected = consts
            .sections
            .iter()
            .find(|(n, _)| *n == const_name)
            .map(|(_, v)| *v)
            .expect("extract() filled every section");
        let cited: Vec<&(&str, u128, u32)> =
            rows.iter().filter(|(n, _, _)| *n == doc_name).collect();
        if cited.is_empty() {
            findings.push(Finding::new(
                ARCH,
                0,
                Pass::Protocol,
                format!("`.pmlsh` layout table row for `{doc_name}` ({const_name}) is missing"),
            ));
        }
        for (_, value, line) in cited {
            if *value != expected {
                findings.push(Finding::new(
                    ARCH,
                    *line,
                    Pass::Protocol,
                    format!(
                        "section `{doc_name}` cited with id {value} but {const_name} = {expected} \
                         in crates/persist/src/format.rs"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: &str = concat!(
        "pub const OP_QUERY: u8 = 1;\n",
        "pub const OP_PING: u8 = 2;\n",
        "pub const STATUS_OK: u8 = 0;\n",
        "pub const STATUS_ERR: u8 = 1;\n",
        "pub const STATUS_PONG: u8 = 2;\n",
        "pub fn frame_cap(dim: usize) -> usize { (64 + 8 * dim).max(512) }\n",
    );
    const SERVER: &str = concat!(
        "const BATCH_MAX_OPS: usize = 4096;\n",
        "const BATCH_OK_PREFIX: &str = \"OK applied=\";\n",
        "const BATCH_FAIL_PREFIX: &str = \"FAIL \";\n",
        "fn recompute(&mut self) { self.line_cap = (64 + 32 * self.dim).max(512); }\n",
    );
    const FORMAT: &str = concat!(
        "pub const MAGIC: [u8; 8] = *b\"PMLSHSNP\";\n",
        "pub const FORMAT_VERSION: u32 = 5;\n",
        "const SEC_HEADER: u32 = 1;\nconst SEC_PROJ: u32 = 2;\nconst SEC_DATA: u32 = 3;\n",
        "const SEC_POINTS: u32 = 4;\nconst SEC_IDMAPS: u32 = 5;\nconst SEC_ECDF: u32 = 6;\n",
        "const SEC_SUBSPACE: u32 = 7;\n",
    );

    fn consts() -> ProtoConsts {
        let mut findings = Vec::new();
        let c = extract(FRAME, SERVER, FORMAT, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        c.unwrap()
    }

    fn good_protocol() -> String {
        concat!(
            "| opcode | name | layout |\n|---|---|---|\n",
            "| `0x01` | QUERY | k, d, components |\n| `0x02` | PING | empty |\n",
            "| `0x00` | OK | count, pairs |\n| `0x01` | ERR | utf-8 |\n| `0x02` | PONG | empty |\n",
            "The frame cap is `max(512, 64 + 8·d)` bytes.\n",
            "The line cap is `max(512, 64 + 32·d)` bytes.\n",
            "Snapshots are detected by magic `PMLSHSNP`.\n",
            "`BATCH <count>` accepts at most 4096 ops; the reply starts\n",
            "`OK applied=` and is followed by `FAIL ` lines.\n",
        )
        .to_string()
    }

    fn good_architecture() -> String {
        concat!(
            "The file layout (format version 5): magic \"PMLSHSNP\".\n",
            "| id | section | payload |\n|---|---|---|\n",
            "| 1 | HEADER | params |\n| 2 | PROJ | matrix |\n| 3 | DATA | rows |\n",
            "| 4 | POINTS | column |\n| 5 | IDMAPS | ids |\n| 6 | ECDF | samples |\n",
            "| 7 | SUBSPACE | mean, basis, table |\n",
        )
        .to_string()
    }

    #[test]
    fn extraction_reads_the_source_shapes() {
        let c = consts();
        assert_eq!(c.frame_cap, (512, 64, 8));
        assert_eq!(c.line_cap, (512, 64, 32));
        assert_eq!(c.magic, "PMLSHSNP");
        assert_eq!(c.sections.len(), 7);
        assert_eq!(c.opcodes[0], ("OP_QUERY", 1));
        assert_eq!(c.batch_max_ops, 4096);
        assert_eq!(c.batch_ok_prefix, "OK applied=");
        assert_eq!(c.batch_fail_prefix, "FAIL ");
    }

    #[test]
    fn consistent_docs_pass() {
        let mut findings = Vec::new();
        check_docs(
            &consts(),
            &good_protocol(),
            &good_architecture(),
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn edited_opcode_is_caught() {
        let doc = good_protocol().replace("| `0x01` | QUERY |", "| `0x03` | QUERY |");
        let mut findings = Vec::new();
        check_docs(&consts(), &doc, &good_architecture(), &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("QUERY"));
    }

    #[test]
    fn missing_table_row_is_caught() {
        let doc = good_protocol().replace("| `0x02` | PING | empty |\n", "");
        let mut findings = Vec::new();
        check_docs(&consts(), &doc, &good_architecture(), &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("PING"));
    }

    #[test]
    fn edited_cap_formula_is_caught() {
        let doc = good_protocol().replace("64 + 8·d", "64 + 16·d");
        let mut findings = Vec::new();
        check_docs(&consts(), &doc, &good_architecture(), &mut findings);
        // One for the mismatching citation, one for frame cap no longer cited.
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn edited_section_id_is_caught() {
        let doc = good_architecture().replace("| 5 | IDMAPS |", "| 7 | IDMAPS |");
        let mut findings = Vec::new();
        check_docs(&consts(), &good_protocol(), &doc, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("IDMAPS"));
    }

    #[test]
    fn missing_magic_is_caught() {
        let doc = good_architecture().replace("PMLSHSNP", "PMLSHXXX");
        let mut findings = Vec::new();
        check_docs(&consts(), &good_protocol(), &doc, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("PMLSHSNP"));
    }

    #[test]
    fn changed_source_constant_fails_against_stale_docs() {
        // Simulate the *source* changing while docs stay stale.
        let frame = FRAME.replace("OP_PING: u8 = 2", "OP_PING: u8 = 7");
        let mut findings = Vec::new();
        let c = extract(&frame, SERVER, FORMAT, &mut findings).unwrap();
        check_docs(&c, &good_protocol(), &good_architecture(), &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("PING"));
    }

    #[test]
    fn missing_batch_citations_are_caught() {
        // Strip the whole BATCH paragraph from the doc: the cap phrase
        // and both reply prefixes go missing, one finding each.
        let doc = good_protocol()
            .replace(
                "`BATCH <count>` accepts at most 4096 ops; the reply starts\n",
                "",
            )
            .replace("`OK applied=` and is followed by `FAIL ` lines.\n", "");
        let mut findings = Vec::new();
        check_docs(&consts(), &doc, &good_architecture(), &mut findings);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("at most 4096 ops")));
        assert!(findings.iter().any(|f| f.message.contains("OK applied=")));
        assert!(findings.iter().any(|f| f.message.contains("FAIL ")));
    }

    #[test]
    fn raised_batch_cap_fails_against_stale_docs() {
        // The source raises the cap; the doc still says 4096.
        let server = SERVER.replace("BATCH_MAX_OPS: usize = 4096", "BATCH_MAX_OPS: usize = 8192");
        let mut findings = Vec::new();
        let c = extract(FRAME, &server, FORMAT, &mut findings).unwrap();
        check_docs(&c, &good_protocol(), &good_architecture(), &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("at most 8192 ops"));
    }

    #[test]
    fn renamed_batch_constant_is_extraction_drift() {
        let server = SERVER.replace("BATCH_OK_PREFIX", "BATCH_SUMMARY_PREFIX");
        let mut findings = Vec::new();
        assert!(extract(FRAME, &server, FORMAT, &mut findings).is_none());
        assert!(findings
            .iter()
            .any(|f| f.message.contains("BATCH_OK_PREFIX")));
    }

    #[test]
    fn renamed_constant_is_extraction_drift() {
        let frame = FRAME.replace("OP_QUERY", "OPCODE_QUERY");
        let mut findings = Vec::new();
        assert!(extract(&frame, SERVER, FORMAT, &mut findings).is_none());
        assert!(!findings.is_empty());
    }
}
