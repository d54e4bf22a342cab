//! The wire grammar: the one place a request line (or a decoded binary
//! frame) becomes a typed [`Command`]. `crate::server` executes commands
//! and `crate::reply` encodes what they answer; neither tokenizes.
//!
//! # Wire protocol
//!
//! One request per line, one response line per request, UTF-8, fields
//! separated by single spaces:
//!
//! ```text
//! QUERY <k> <v1> ... <vd>  ->  OK <id>:<dist>,<id>:<dist>,...
//! PING                     ->  PONG
//! HELLO [text|binary]      ->  OK text | OK binary (switches framing)
//! STATS                    ->  STATS index=<name> <EngineStats as one line>
//! INDEXINFO                ->  INDEXINFO name=<name> points=... dim=... m=... c=... epoch=... reindexing=... state=... pct=... shards=...
//! LISTINDEXES              ->  INDEXES <name1>,<name2>,...   (sorted; bare "INDEXES" when empty)
//! USE <name>               ->  OK using <name>
//! AUTH <token>             ->  OK authenticated
//! ATTACH <name> <path>     ->  OK attached <name> points=<n> dim=<d> secs=<s>   (auth-gated)
//! DETACH <name>            ->  OK detached <name>                               (auth-gated)
//! REINDEX <path>           ->  OK index=<name> epoch=<e> points=<n> secs=<s>    (auth-gated)
//! INSERT <v1> ... <vd>     ->  OK id=<id> epoch=<e> points=<n>                  (auth-gated)
//! DELETE <id>              ->  OK deleted <id> epoch=<e> points=<n>             (auth-gated)
//! BATCH <count>            ->  OK applied=<a> failed=<f> epoch=<e> points=<n>   (auth-gated;
//!                              <count> op lines follow, then the reply + <f> FAIL lines)
//! SAVE <path>              ->  OK saved <name> points=<n> bytes=<b> secs=<s>    (auth-gated)
//! QUIT                     ->  BYE (and the server closes the connection)
//! anything else            ->  ERR <message>
//! ```
//!
//! `HELLO binary` switches the connection to the length-prefixed binary
//! frame format of [`crate::frame`] — the server answers `OK binary` in
//! text and both directions speak frames from the next byte on. Binary
//! mode carries `QUERY` and `PING` only; everything else (attach,
//! auth, index management) stays on text connections. Text remains the
//! default: a client that never says `HELLO` sees the protocol above,
//! byte for byte. A decoded frame becomes the same [`Command`] a line
//! does ([`from_frame`]), so a verb added to the binary framing is one
//! more arm there, not a second implementation.
//!
//! `QUERY`, `STATS`, `INDEXINFO`, `REINDEX`, `INSERT`, `DELETE` and
//! `SAVE` operate on the connection's *current* index — the router's
//! default at connect time, switched with `USE`. When
//! [`crate::ServerConfig::auth_token`] is set, the mutating verbs
//! (`REINDEX`/`ATTACH`/`DETACH`/`INSERT`/`DELETE`) and `SAVE` (which
//! writes server-side files) answer `ERR authentication required` until
//! the connection sends a matching `AUTH <token>`; without a configured
//! token they are open (and `AUTH` answers `OK authentication not
//! required`). [`crate::ServerHandle::set_auth_token`] swaps the accepted
//! token at runtime without a restart.
//!
//! Which error wins is part of the grammar ([`Gate`]): a gated verb
//! answers the missing `AUTH` first, then a missing current index, and
//! only then its own malformed arguments; `QUERY` judges its arguments
//! first, then the index, then the dimensionality; a `BATCH` header is
//! validated before anything else (no op line follows a bad one).
//!
//! `ATTACH` auto-detects the file format: a `.pmlsh` snapshot (by magic
//! bytes — see `pm-lsh-persist`) is loaded directly and serves within
//! milliseconds with its saved parameters, as one
//! [`crate::ShardedEngine`] of as many shards as the file holds (a
//! `SAVE` writes one file at every shard count); fvecs/csv datasets are
//! built from scratch
//! with [`crate::ServerConfig::attach_params`].
//! `INSERT`/`DELETE` publish a fresh snapshot per call (each bumps the
//! `INDEXINFO` epoch); a `QUERY` after an `OK` reply observes the
//! mutation.
//!
//! `BATCH <count>` amortizes that cost: the `count` lines that follow
//! (each a bare `INSERT <v1> ... <vd>` or `DELETE <id>`, at most
//! `BATCH_MAX_OPS` of them) are collected without being interpreted as
//! top-level commands, syntactically validated *all-or-nothing* (any
//! malformed line answers one `ERR batch line <i>: ...` and nothing
//! applies), then applied through [`crate::ShardedEngine::apply`] as one
//! copy-on-write publication — the epoch bumps once per batch, not once
//! per op. The reply is one `OK applied=<a> failed=<f> epoch=<e>
//! points=<n>` line followed by exactly `f` lines `FAIL <op-index>
//! <message>` for ops the engine refused semantically (wrong
//! dimensionality, non-finite after parse, unknown id, would-empty); the
//! rest of the batch still applies. `BATCH` is text-only and auth-gated
//! like the other mutating verbs; a connection that may not mutate has
//! its op lines counted, not stored.
//!
//! Malformed input never takes the server down: every parse failure is an
//! `ERR` response, every I/O failure closes only that connection, a `k`
//! beyond the indexed point count is clamped, and request lines are
//! capped at `max(512, 64 + 32·d)` bytes of the current index (512 with
//! none selected; binary frames at [`crate::frame::frame_cap`]). The
//! full specification, with a worked `nc` transcript, lives in
//! `docs/PROTOCOL.md`.

use crate::frame;
use crate::server::BATCH_MAX_OPS;
use crate::MutOp;
use std::str::SplitAsciiWhitespace;

/// One request, either framing, with its arguments checked and typed.
#[derive(Debug, PartialEq)]
pub(crate) enum Command {
    /// `QUERY <k> <v1> ... <vd>`.
    Query(usize, Vec<f32>),
    Ping,
    /// `HELLO [text|binary]`: whether to speak frames from the next byte on.
    Hello(bool),
    Stats,
    IndexInfo,
    ListIndexes,
    Use(String),
    Auth(String),
    /// `ATTACH <name> <path>`.
    Attach(String, String),
    Detach(String),
    Reindex(String),
    Save(String),
    /// A top-level `INSERT` / `DELETE`.
    Mutate(MutOp),
    /// A valid `BATCH <count>` header: `count` op lines follow.
    Batch(usize),
    /// The op lines of a completed `BATCH`, still text: parsing up to
    /// `BATCH_MAX_OPS` × d floats is `pmlsh-op` work, not the reactor's.
    BatchOps(Vec<String>),
    Quit,
}

/// What the executor checks *before* it looks at a request's arguments —
/// the order in which errors win is auth, current index, arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gate {
    Open,
    /// `QUERY`/`STATS`/`INDEXINFO`: need the current index, not `AUTH`.
    Routed,
    /// `ATTACH`/`DETACH`: mutate the router, not the current index.
    Auth,
    /// `REINDEX`/`SAVE`/`INSERT`/`DELETE`/`BATCH` ops: `AUTH`, then the
    /// current index.
    Mutate,
}

impl Gate {
    /// Needs a prior `AUTH` when the server has a token.
    pub(crate) fn auth(self) -> bool {
        matches!(self, Gate::Auth | Gate::Mutate)
    }

    /// Needs the connection's current index to resolve.
    pub(crate) fn index(self) -> bool {
        matches!(self, Gate::Routed | Gate::Mutate)
    }
}

/// A tokenized request: the checks that outrank its arguments, and the
/// arguments' verdict — a [`Command`] or the unprefixed error message.
pub(crate) type Request = (Gate, Result<Command, String>);

/// A decoded frame as the request its text line would parse into. `k` is
/// not judged here: a zero is the engine's `ZeroK`, after the index
/// lookup, as binary clients have always seen.
pub(crate) fn from_frame(request: frame::Request) -> Request {
    match request {
        frame::Request::Ping => (Gate::Open, Ok(Command::Ping)),
        frame::Request::Query { k, query } => (Gate::Routed, Ok(Command::Query(k as usize, query))),
    }
}

/// The one tokenizer: fields are runs of non-whitespace. (`trim` first:
/// it also strips the non-ASCII whitespace a line may end in.)
fn tokens(line: &str) -> SplitAsciiWhitespace<'_> {
    line.trim().split_ascii_whitespace()
}

/// What `<VERB> takes exactly one ...` calls a path argument.
const PATH: &str = "(whitespace-free) path";

/// Parses one text request line; `None` for a blank one (which gets no
/// reply). `dim` — the current index's dimensionality — only sizes the
/// float buffer of `QUERY`/`INSERT`.
pub(crate) fn parse_line(line: &str, dim: usize) -> Option<Request> {
    let mut fields = tokens(line);
    let verb = fields.next()?;
    let command = match verb {
        "QUERY" => match positive(fields.next()) {
            Some(k) => floats(fields, dim).map(|query| Command::Query(k, query)),
            None => Err("QUERY needs a positive integer k".to_string()),
        },
        "PING" => Ok(Command::Ping),
        "HELLO" => match (fields.next(), fields.next()) {
            (None, _) | (Some("text"), None) => Ok(Command::Hello(false)),
            (Some("binary"), None) => Ok(Command::Hello(true)),
            _ => Err("HELLO supports: text, binary".to_string()),
        },
        "STATS" => Ok(Command::Stats),
        "INDEXINFO" => Ok(Command::IndexInfo),
        "LISTINDEXES" => Ok(Command::ListIndexes),
        "USE" => one_arg(verb, fields, "an index name", "index name").map(Command::Use),
        "AUTH" => one_arg(verb, fields, "a token", "(whitespace-free) token").map(Command::Auth),
        "ATTACH" => match (fields.next(), fields.next(), fields.next()) {
            (Some(name), Some(path), None) => Ok(Command::Attach(name.into(), path.into())),
            _ => Err("ATTACH needs <name> <path> (both whitespace-free)".to_string()),
        },
        "DETACH" => one_arg(verb, fields, "an index name", "index name").map(Command::Detach),
        "REINDEX" => one_arg(verb, fields, "a dataset file path", PATH).map(Command::Reindex),
        "SAVE" => one_arg(verb, fields, "a destination file path", PATH).map(Command::Save),
        "INSERT" | "DELETE" => mut_op(verb, fields, dim).map(Command::Mutate),
        "BATCH" => match (positive(fields.next()), fields.next()) {
            (None, _) => Err("BATCH needs a positive op count".to_string()),
            (Some(_), Some(_)) => Err("BATCH takes exactly one op count".to_string()),
            (Some(count), None) if count > BATCH_MAX_OPS => {
                Err(format!("BATCH accepts at most {BATCH_MAX_OPS} ops"))
            }
            (Some(count), None) => Ok(Command::Batch(count)),
        },
        "QUIT" => Ok(Command::Quit),
        other => Err(format!("unknown command '{other}'")),
    };
    let gate = match (verb, &command) {
        ("ATTACH" | "DETACH", _) => Gate::Auth,
        ("REINDEX" | "SAVE" | "INSERT" | "DELETE", _) => Gate::Mutate,
        // QUERY is the one routed verb whose arguments outrank the index
        // lookup: malformed, it answers for itself with no index at all.
        ("QUERY" | "STATS" | "INDEXINFO", Ok(_)) => Gate::Routed,
        // Everything else — a BATCH header included — is open.
        _ => Gate::Open,
    };
    Some((gate, command))
}

/// Parses one mutation line — a top-level `INSERT <v1> ... <vd>` /
/// `DELETE <id>` request or a `BATCH` op line, one grammar for both
/// (finite float components, a `u32` id) — into the op, or the server's
/// own wording of what is wrong with it (no `ERR ` prefix). A
/// wrong-dimensionality insert parses: refusing it is the engine's
/// per-op call.
pub fn parse_mut_op(line: &str) -> Result<MutOp, String> {
    let mut fields = tokens(line);
    match fields.next() {
        Some(verb) => mut_op(verb, fields, 0),
        None => Err("empty op line".to_string()),
    }
}

fn mut_op(verb: &str, mut fields: SplitAsciiWhitespace, dim: usize) -> Result<MutOp, String> {
    match verb {
        "INSERT" => match floats(fields, dim)? {
            point if point.is_empty() => Err("INSERT needs <v1> ... <vd>".to_string()),
            point => Ok(MutOp::Insert(point)),
        },
        "DELETE" => match (fields.next().map(str::parse), fields.next()) {
            (Some(Ok(id)), None) => Ok(MutOp::Delete(id)),
            (Some(Ok(_)), Some(_)) => Err("DELETE takes exactly one point id".to_string()),
            _ => Err("DELETE needs a point id".to_string()),
        },
        other => Err(format!("unknown batch op '{other}' (INSERT or DELETE)")),
    }
}

/// `QUERY`'s k and `BATCH`'s count: an integer >= 1.
fn positive(field: Option<&str>) -> Option<usize> {
    field?.parse().ok().filter(|&n| n >= 1)
}

/// The rest of a line as finite `f32` components (`QUERY` and `INSERT`
/// share the vector rules). Sized off `dim` so a well-formed high-d
/// vector never reallocates mid-parse.
fn floats(fields: SplitAsciiWhitespace, dim: usize) -> Result<Vec<f32>, String> {
    let mut values = Vec::with_capacity(dim.max(16));
    for field in fields {
        match field.parse::<f32>() {
            Ok(v) if v.is_finite() => values.push(v),
            _ => return Err(format!("bad vector component '{field}'")),
        }
    }
    Ok(values)
}

/// The single argument of `USE`/`AUTH`/`DETACH`/`REINDEX`/`SAVE`, or
/// `<verb> needs <needs>` for none and `<verb> takes exactly one <one>`
/// for more.
fn one_arg(
    verb: &str,
    mut fields: SplitAsciiWhitespace,
    needs: &str,
    one: &str,
) -> Result<String, String> {
    match (fields.next(), fields.next()) {
        (Some(arg), None) => Ok(arg.to_string()),
        (None, _) => Err(format!("{verb} needs {needs}")),
        (Some(_), Some(_)) => Err(format!("{verb} takes exactly one {one}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_mutation_grammar_for_top_level_lines_and_batch_ops() {
        for line in [
            "INSERT 1 2.5 -3",
            "DELETE 7",
            "INSERT",
            "DELETE x",
            "DELETE 1 2",
        ] {
            let want = (Gate::Mutate, parse_mut_op(line).map(Command::Mutate));
            assert_eq!(parse_line(line, 3), Some(want), "{line}");
        }
        assert_eq!(
            parse_mut_op("INSERT 1 2.5 -3"),
            Ok(MutOp::Insert(vec![1.0, 2.5, -3.0]))
        );
        assert_eq!(parse_mut_op("  DELETE 7 "), Ok(MutOp::Delete(7)));
        assert_eq!(parse_mut_op(" "), Err("empty op line".to_string()));
        assert_eq!(
            parse_mut_op("QUIT"),
            Err("unknown batch op 'QUIT' (INSERT or DELETE)".to_string())
        );
    }

    #[test]
    fn gates_say_which_check_outranks_the_arguments() {
        let gate = |line: &str| parse_line(line, 0).expect("not blank").0;
        assert!(parse_line("  \r", 0).is_none());
        // QUERY: arguments first, then the index.
        assert_eq!(gate("QUERY x"), Gate::Open);
        assert_eq!(gate("QUERY 1 abc"), Gate::Open);
        assert_eq!(gate("QUERY 1 1 2"), Gate::Routed);
        // Gated verbs: the gate holds whether or not the arguments parse.
        for (line, want) in [
            ("ATTACH", Gate::Auth),
            ("ATTACH a b", Gate::Auth),
            ("DETACH a b", Gate::Auth),
            ("REINDEX", Gate::Mutate),
            ("SAVE a b", Gate::Mutate),
            ("SAVE a", Gate::Mutate),
            // A BATCH header is judged before auth.
            ("BATCH 0", Gate::Open),
            ("BATCH 3", Gate::Open),
        ] {
            assert_eq!(gate(line), want, "{line}");
        }
        // A frame decodes into the command its text line parses into.
        let query = vec![1.0, 2.0];
        let framed = from_frame(frame::Request::Query { k: 3, query });
        assert_eq!(Some(framed), parse_line("QUERY 3 1 2", 2));
        assert_eq!(
            Some(from_frame(frame::Request::Ping)),
            parse_line("PING", 0)
        );
    }
}
