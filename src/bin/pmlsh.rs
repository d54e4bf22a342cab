//! `pmlsh` — command-line interface to the PM-LSH workspace.
//!
//! ```text
//! pmlsh gen         --dataset cifar --scale smoke --out data.fvecs [--queries queries.fvecs --nq 100]
//! pmlsh stats       --data data.fvecs
//! pmlsh query       --data data.fvecs --queries queries.fvecs --k 10 [--c 1.5] [--algo pm-lsh]
//! pmlsh bench       --data data.fvecs --queries queries.fvecs --k 10
//! pmlsh batch-query --data audio=a.fvecs,deep=d.fvecs --index deep --queries q.fvecs --k 10
//! pmlsh batch-query --addr 127.0.0.1:7878 --queries q.fvecs --k 10 [--binary]
//! pmlsh serve       --data audio=a.fvecs,deep=d.pmlsh --port 7878 [--threads 4]
//!                   [--shards 4] [--auth-token t] [--max-connections 1024]
//!                   [--drain-timeout-ms 5000]
//! pmlsh save        --data a.fvecs --out a.pmlsh                  (build + snapshot)
//! pmlsh save        --addr 127.0.0.1:7878 --out /srv/a.pmlsh      (running server)
//! pmlsh reindex     --addr 127.0.0.1:7878 --data new.fvecs [--index deep] [--auth-token t]
//! pmlsh insert      --addr 127.0.0.1:7878 --vector 0.1,0.2,... [--index deep] [--auth-token t]
//! pmlsh delete      --addr 127.0.0.1:7878 --id 42 [--index deep] [--auth-token t]
//! pmlsh batch-mutate --addr 127.0.0.1:7878 --ops ops.txt [--index deep] [--auth-token t]
//! ```
//!
//! `--data` takes either one bare path (index name `default`) or a
//! comma-separated list of `name=path` pairs — `serve` attaches every
//! entry to one multi-index server, `batch-query` picks one with
//! `--index`. Files starting with the `.pmlsh` snapshot magic are loaded
//! as pre-built indexes (no rebuild — instant serving with the saved
//! parameters); files ending in `.csv` are parsed as headerless CSV;
//! anything else as little-endian `fvecs` (the TEXMEX format the paper's
//! real datasets ship in), so the same binary drives both the synthetic
//! stand-ins and the real datasets when available.

use pm_lsh::data::{write_csv, write_fvecs};
use pm_lsh::prelude::*;
use pm_lsh::stats::dataset_stats::{homogeneity_of_viewpoints, lid_mle, relative_contrast};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "gen" => known_opts(&opts, &["dataset", "out", "scale", "queries", "nq"])
            .and_then(|()| cmd_gen(&opts)),
        "stats" => known_opts(&opts, &["data"]).and_then(|()| cmd_stats(&opts)),
        "query" => known_opts(&opts, &["data", "queries", "k", "c", "algo", "no-truth"])
            .and_then(|()| cmd_query(&opts)),
        "bench" => {
            known_opts(&opts, &["data", "queries", "k", "c"]).and_then(|()| cmd_bench(&opts))
        }
        "batch-query" => known_opts(
            &opts,
            &[
                "data",
                "index",
                "queries",
                "k",
                "c",
                "no-truth",
                "threads",
                "build-threads",
                "batch-size",
                "addr",
                "binary",
                "auth-token",
            ],
        )
        .and_then(|()| cmd_batch_query(&opts)),
        "serve" => known_opts(
            &opts,
            &[
                "data",
                "port",
                "c",
                "threads",
                "build-threads",
                "batch-size",
                "shards",
                "auth-token",
                "max-connections",
                "max-index-connections",
                "drain-timeout-ms",
            ],
        )
        .and_then(|()| cmd_serve(&opts)),
        "save" => known_opts(
            &opts,
            &[
                "data",
                "out",
                "c",
                "build-threads",
                "addr",
                "index",
                "auth-token",
            ],
        )
        .and_then(|()| cmd_save(&opts)),
        "reindex" => known_opts(&opts, &["addr", "data", "index", "auth-token"])
            .and_then(|()| cmd_reindex(&opts)),
        "insert" => known_opts(&opts, &["addr", "vector", "index", "auth-token"])
            .and_then(|()| cmd_insert(&opts)),
        "delete" => known_opts(&opts, &["addr", "id", "index", "auth-token"])
            .and_then(|()| cmd_delete(&opts)),
        "batch-mutate" => known_opts(&opts, &["addr", "ops", "index", "auth-token"])
            .and_then(|()| cmd_batch_mutate(&opts)),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "pmlsh — PM-LSH approximate nearest-neighbor search

USAGE:
  pmlsh gen    --dataset <audio|deep|nus|mnist|gist|cifar|trevi> --out <file>
               [--scale smoke|bench|full] [--queries <file>] [--nq <n>]
  pmlsh stats  --data <file>
  pmlsh query  --data <file> --queries <file> [--k <n>] [--c <ratio>]
               [--algo pm-lsh|srs|qalsh|multi-probe|r-lsh|lscan] [--no-truth]
  pmlsh bench  --data <file> --queries <file> [--k <n>] [--c <ratio>]
  pmlsh batch-query --data <specs> [--index <name>] --queries <file>
               [--k <n>] [--c <ratio>] [--threads <n>] [--build-threads <n>]
               [--no-truth]
  pmlsh batch-query --addr <host:port> --queries <file> [--k <n>]
               [--index <name>] [--auth-token <t>] [--binary]
  pmlsh serve  --data <specs> --port <p> [--threads <n>] [--c <ratio>]
               [--build-threads <n>] [--batch-size <n>] [--shards <n>]
               [--auth-token <t>] [--max-connections <n>]
               [--max-index-connections <n>] [--drain-timeout-ms <ms>]
  pmlsh save   --data <file> --out <file.pmlsh> [--c <ratio>]
               [--build-threads <n>]
  pmlsh save   --addr <host:port> --out <server-side file.pmlsh>
               [--index <name>] [--auth-token <t>]
  pmlsh reindex --addr <host:port> --data <server-side file>
               [--index <name>] [--auth-token <t>]
  pmlsh insert --addr <host:port> --vector <v1,v2,...>
               [--index <name>] [--auth-token <t>]
  pmlsh delete --addr <host:port> --id <point id>
               [--index <name>] [--auth-token <t>]
  pmlsh batch-mutate --addr <host:port> --ops <file>
               [--index <name>] [--auth-token <t>]

`--data <specs>` is one bare path (served as index 'default') or a
comma-separated list of name=path pairs; `serve` attaches every entry,
`batch-query` picks one with --index (default: the first). `.pmlsh`
snapshots (detected by magic bytes) are loaded as pre-built indexes
with their saved parameters — no rebuild; files ending in .csv are
headerless CSV; anything else is fvecs.
`serve` speaks a newline-delimited protocol: `QUERY <k> <v1> ... <vd>` is
answered with `OK <id>:<dist>,...`; also PING, STATS, INDEXINFO,
LISTINDEXES, USE <name>, AUTH <token>, ATTACH <name> <path>,
DETACH <name>, REINDEX <path>, INSERT <v1..vd>, DELETE <id>,
SAVE <path> and QUIT (see docs/PROTOCOL.md). `HELLO binary` switches a
connection to a length-prefixed binary framing for QUERY/PING;
`batch-query --addr` runs a query file against a running server over
either framing and prints one `query <i>: id:dist,...` line per query,
so text and binary runs can be diffed. With --auth-token set, the
mutating verbs (ATTACH/DETACH/REINDEX/INSERT/DELETE/BATCH) and SAVE
require a prior AUTH on the connection. `save` snapshots an index to a `.pmlsh`
file: with --data it builds locally and writes --out; with --addr it
asks a running server to save its current index to a path writable by
the *server*. `reindex` asks a running server to rebuild onto a dataset
file readable by the *server* and swap it in without dropping queries;
`insert`/`delete` apply single-point mutations between rebuilds (each
publishes a fresh snapshot and bumps the INDEXINFO epoch).
`batch-mutate` streams a whole ops file — one `INSERT <v1> ... <vd>` or
`DELETE <id>` per line, blank lines and `#` comments skipped — through
the server's BATCH verb, which applies every op against one snapshot
clone and publishes once (one epoch bump per batch instead of one per
op); semantic per-op failures are reported as FAIL lines, syntactic
errors reject the whole batch unapplied.
`--threads 0` (the default) uses all available cores per index;
`--build-threads <n>` builds an index on n threads (0 = all cores,
default 1); the index is the same for every n. `--shards <n>`
partitions each dataset round-robin into n independent PM-LSH shards
queried scatter-gather (INDEXINFO reports shards=n); a SAVE writes
one `.pmlsh` file at every shard count, and serving that file restores
the shard set it holds regardless of --shards.";

fn parse_opts(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if !key.starts_with("--") {
            return Err(format!("expected --flag, got '{key}'"));
        }
        let name = key.trim_start_matches("--").to_string();
        if name == "no-truth" || name == "binary" {
            map.insert(name, "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        match map.entry(name) {
            // Only --data is list-valued: repeating it accumulates
            // comma-separated (`--data a=x --data b=y` == `--data
            // a=x,b=y`). Every other flag repeated is a mistake — reject
            // it rather than silently keeping (or worse, joining) one.
            std::collections::hash_map::Entry::Occupied(mut e) if e.key() == "data" => {
                let joined = e.get_mut();
                joined.push(',');
                joined.push_str(value);
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                return Err(format!("{key} given more than once"));
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value.clone());
            }
        }
        i += 2;
    }
    Ok(map)
}

/// Parses a `--data` value: one bare path (index name `default`) or a
/// comma-separated list of `name=path` pairs, order preserved (the first
/// entry becomes the served default).
fn parse_data_specs(specs: &str) -> Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = Vec::new();
    for entry in specs.split(',') {
        if entry.is_empty() {
            return Err("--data holds an empty entry (stray comma?)".to_string());
        }
        let (name, path) = match entry.split_once('=') {
            Some((name, path)) => (name.to_string(), path.to_string()),
            None => ("default".to_string(), entry.to_string()),
        };
        Router::validate_name(&name).map_err(|e| e.to_string())?;
        if path.is_empty() {
            return Err(format!("--data entry '{entry}' has an empty path"));
        }
        if out.iter().any(|(existing, _)| *existing == name) {
            return Err(if name == "default" {
                "--data lists several bare paths; name them (name=path,...)".to_string()
            } else {
                format!("--data names index '{name}' twice")
            });
        }
        out.push((name, path));
    }
    Ok(out)
}

/// Rejects misspelled flags instead of silently ignoring them (a typo'd
/// `--thread 4` would otherwise run single-threaded without a word).
fn known_opts(opts: &HashMap<String, String>, allowed: &[&str]) -> Result<(), String> {
    for key in opts.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown option '--{key}'"));
        }
    }
    Ok(())
}

/// Reads a dataset or query file, refusing an empty or non-finite one
/// (the engine's one dataset reader, so every command words it alike).
fn load(path: &str) -> Result<Dataset, String> {
    pm_lsh::engine::read_dataset(path)
}

fn save(path: &str, data: &Dataset) -> Result<(), String> {
    let p = Path::new(path);
    let result = if p.extension().is_some_and(|e| e == "csv") {
        write_csv(p, data)
    } else {
        write_fvecs(p, data)
    };
    result.map_err(|e| format!("writing {path}: {e}"))
}

fn dataset_by_name(name: &str) -> Result<PaperDataset, String> {
    Ok(match name.to_lowercase().as_str() {
        "audio" => PaperDataset::Audio,
        "deep" => PaperDataset::Deep,
        "nus" => PaperDataset::Nus,
        "mnist" => PaperDataset::Mnist,
        "gist" => PaperDataset::Gist,
        "cifar" => PaperDataset::Cifar,
        "trevi" => PaperDataset::Trevi,
        other => return Err(format!("unknown dataset '{other}'")),
    })
}

fn cmd_gen(opts: &HashMap<String, String>) -> Result<(), String> {
    let dataset = dataset_by_name(opts.get("dataset").ok_or("gen needs --dataset")?)?;
    let out = opts.get("out").ok_or("gen needs --out")?;
    let scale = match opts.get("scale").map(|s| s.as_str()) {
        None | Some("smoke") => Scale::Smoke,
        Some("bench") => Scale::Bench,
        Some("full") => Scale::Full,
        Some(other) => return Err(format!("unknown scale '{other}'")),
    };
    let generator = dataset.generator(scale);
    let data = generator.dataset();
    save(out, &data)?;
    println!("wrote {} points in R^{} to {out}", data.len(), data.dim());
    if let Some(qpath) = opts.get("queries") {
        let nq: usize = opts
            .get("nq")
            .map(|s| s.parse().map_err(|_| "--nq must be an integer"))
            .transpose()?
            .unwrap_or(100);
        let queries = generator.queries(nq);
        save(qpath, &queries)?;
        println!("wrote {nq} queries to {qpath}");
    }
    Ok(())
}

fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), String> {
    let data = load(opts.get("data").ok_or("stats needs --data")?)?;
    let mut rng = Rng::new(0xc11);
    let queries = 30.min(data.len() / 4).max(1);
    let start = Instant::now();
    let hv = homogeneity_of_viewpoints(data.view(), 24, 400.min(data.len()), &mut rng);
    let rc = relative_contrast(data.view(), queries, &mut rng);
    let lid = lid_mle(
        data.view(),
        queries,
        100.min(data.len() / 2).max(2),
        &mut rng,
    );
    println!("n   = {}", data.len());
    println!("d   = {}", data.dim());
    println!("HV  = {hv:.4}");
    println!("RC  = {rc:.2}");
    println!("LID = {lid:.1}");
    println!("({:.1} s)", start.elapsed().as_secs_f64());
    Ok(())
}

/// PM-LSH parameters at the paper's operating point when `c` is the
/// default 1.5, Eq. 10-derived otherwise.
fn pmlsh_params(c: f64) -> PmLshParams {
    if (c - 1.5).abs() < 1e-9 {
        PmLshParams::paper_defaults()
    } else {
        PmLshParams::default().with_c(c)
    }
}

fn build_algo(name: &str, data: Arc<Dataset>, c: f64) -> Result<Box<dyn AnnIndex>, String> {
    let pm_params = pmlsh_params(c);
    Ok(match name.to_lowercase().as_str() {
        "pm-lsh" | "pmlsh" => Box::new(PmLsh::build(data, pm_params)),
        "srs" => Box::new(Srs::build(
            data,
            SrsParams {
                c,
                ..SrsParams::paper_operating_point()
            },
        )),
        "qalsh" => Box::new(Qalsh::build(
            data,
            QalshParams {
                c,
                ..Default::default()
            },
        )),
        "multi-probe" | "multiprobe" => {
            Box::new(MultiProbe::build(data, MultiProbeParams::default()))
        }
        "r-lsh" | "rlsh" => Box::new(RLsh::build(data, pm_params)),
        "lscan" => Box::new(LScan::build(data, LScanParams::default())),
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}

fn parse_kc(opts: &HashMap<String, String>) -> Result<(usize, f64), String> {
    let k: usize = opts
        .get("k")
        .map(|s| s.parse().map_err(|_| "--k must be an integer"))
        .transpose()?
        .unwrap_or(10);
    Ok((k, parse_c(opts)?))
}

fn parse_c(opts: &HashMap<String, String>) -> Result<f64, String> {
    let c: f64 = opts
        .get("c")
        .map(|s| s.parse().map_err(|_| "--c must be a float"))
        .transpose()?
        .unwrap_or(1.5);
    if c <= 1.0 {
        return Err("--c must exceed 1.0".into());
    }
    Ok(c)
}

fn cmd_query(opts: &HashMap<String, String>) -> Result<(), String> {
    let data = Arc::new(load(opts.get("data").ok_or("query needs --data")?)?);
    let queries = load(opts.get("queries").ok_or("query needs --queries")?)?;
    if queries.dim() != data.dim() {
        return Err(format!(
            "dimension mismatch: data R^{}, queries R^{}",
            data.dim(),
            queries.dim()
        ));
    }
    let (k, c) = parse_kc(opts)?;
    let algo_name = opts.get("algo").map(|s| s.as_str()).unwrap_or("pm-lsh");
    let with_truth = !opts.contains_key("no-truth");

    let start = Instant::now();
    let algo = build_algo(algo_name, data.clone(), c)?;
    println!(
        "built {} over {} points in {:.1} s",
        algo.name(),
        data.len(),
        start.elapsed().as_secs_f64()
    );

    let truth = if with_truth {
        Some(exact_knn_batch(data.view(), queries.view(), k, 0))
    } else {
        None
    };

    let start = Instant::now();
    let mut recall_sum = 0.0;
    let mut ratio_sum = 0.0;
    for (qi, q) in queries.iter().enumerate() {
        let res = algo.query(q, k);
        if qi < 3 {
            let ids: Vec<String> = res
                .neighbors
                .iter()
                .take(5)
                .map(|n| format!("{}:{:.3}", n.id, n.dist))
                .collect();
            println!("query {qi}: [{}]", ids.join(", "));
        }
        if let Some(t) = &truth {
            recall_sum += recall(&res.neighbors, &t[qi]);
            ratio_sum += overall_ratio(&res.neighbors, &t[qi]);
        }
    }
    let nq = queries.len() as f64;
    println!(
        "{} queries in {:.2} ms each",
        queries.len(),
        start.elapsed().as_secs_f64() * 1e3 / nq
    );
    if truth.is_some() {
        println!(
            "recall@{k} = {:.4}, overall ratio = {:.4}",
            recall_sum / nq,
            ratio_sum / nq
        );
    }
    Ok(())
}

fn parse_engine_config(opts: &HashMap<String, String>) -> Result<EngineConfig, String> {
    let mut config = EngineConfig::default();
    if let Some(t) = opts.get("threads") {
        config.threads = t.parse().map_err(|_| "--threads must be an integer")?;
    }
    if let Some(b) = opts.get("batch-size") {
        config.batch_size = b.parse().map_err(|_| "--batch-size must be an integer")?;
    }
    Ok(config)
}

fn cmd_batch_query(opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(addr) = opts.get("addr") {
        return wire_batch_query(addr, opts);
    }
    for flag in ["binary", "auth-token"] {
        if opts.contains_key(flag) {
            return Err(format!("--{flag} only applies with --addr (wire mode)"));
        }
    }
    let specs = parse_data_specs(opts.get("data").ok_or("batch-query needs --data")?)?;
    let (name, path) = match opts.get("index") {
        Some(wanted) => specs
            .iter()
            .find(|(name, _)| name == wanted)
            .ok_or_else(|| format!("--index '{wanted}' is not in --data"))?,
        None => &specs[0],
    };
    if specs.len() > 1 {
        println!("querying index '{name}' ({path})");
    }
    let (k, c) = parse_kc(opts)?;
    let config = parse_engine_config(opts)?;
    let build = parse_build_opts(opts)?;
    let with_truth = !opts.contains_key("no-truth");

    let engine = open_engine(path, c, build, 1, config)?;
    let queries = load(opts.get("queries").ok_or("batch-query needs --queries")?)?;
    if queries.dim() != engine.dim() {
        return Err(format!(
            "dimension mismatch: data R^{}, queries R^{}",
            engine.dim(),
            queries.dim()
        ));
    }
    if with_truth && engine.shard_count() > 1 {
        return Err(format!(
            "{path} holds {} shards; the ground-truth scan needs one (pass --no-truth)",
            engine.shard_count()
        ));
    }
    println!("engine: {} worker thread(s)", config.effective_threads());

    let query_vecs: Vec<&[f32]> = queries.iter().collect();
    let start = Instant::now();
    let results = engine.query_batch(&query_vecs, k);
    let elapsed = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    println!(
        "{} queries in {:.3} s  ({:.0} queries/s, {:.3} ms each)",
        results.len(),
        elapsed,
        results.len() as f64 / elapsed,
        elapsed * 1e3 / results.len() as f64
    );
    println!("engine stats: {stats}");

    if with_truth {
        let index = engine.shards()[0].index();
        // A freshly opened index holds every row in its row store's base.
        let truth = exact_knn_batch(index.data().base().view(), queries.view(), k, 0);
        let nq = results.len() as f64;
        let (mut recall_sum, mut ratio_sum) = (0.0, 0.0);
        for (res, t) in results.iter().zip(&truth) {
            recall_sum += recall(&res.neighbors, t);
            ratio_sum += overall_ratio(&res.neighbors, t);
        }
        println!(
            "recall@{k} = {:.4}, overall ratio = {:.4}",
            recall_sum / nq,
            ratio_sum / nq
        );
    }
    Ok(())
}

/// `batch-query --addr`: runs the query file against a *running* server
/// over the wire — newline text by default, length-prefixed binary with
/// `--binary`. Every result prints as `query <i>: id:dist,...` so a text
/// run and a binary run of the same file can be diffed line-for-line
/// (`{}` on an f32 is shortest-roundtrip, so rendering the binary reply's
/// bits locally reproduces the server's own text rendering exactly).
fn wire_batch_query(addr: &str, opts: &HashMap<String, String>) -> Result<(), String> {
    for flag in [
        "data",
        "c",
        "threads",
        "build-threads",
        "batch-size",
        "no-truth",
    ] {
        if opts.contains_key(flag) {
            return Err(format!(
                "--{flag} does not apply with --addr (the server owns the index)"
            ));
        }
    }
    let queries = load(opts.get("queries").ok_or("batch-query needs --queries")?)?;
    let k: usize = opts
        .get("k")
        .map(|s| s.parse().map_err(|_| "--k must be an integer"))
        .transpose()?
        .unwrap_or(10);
    let binary = opts.contains_key("binary");

    let mut client = WireClient::connect(addr)?;
    client.setup_session(opts)?;
    if binary {
        client.hello_binary()?;
    }

    let start = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let rendered = if binary {
            let pairs = client.query_binary(k as u32, q)?;
            let mut s = String::new();
            for (j, (id, dist)) in pairs.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{id}:{dist}"));
            }
            s
        } else {
            let mut line = String::from("QUERY ");
            line.push_str(&k.to_string());
            for v in q {
                line.push(' ');
                line.push_str(&v.to_string());
            }
            line.push('\n');
            let reply = client.exchange(line)?;
            match reply.strip_prefix("OK") {
                Some(payload) => payload.trim_start().to_string(),
                None => return Err(format!("server refused query {i}: {reply}")),
            }
        };
        println!("query {i}: {rendered}");
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "{} queries in {:.3} s  ({:.0} queries/s, {} framing)",
        queries.len(),
        elapsed,
        queries.len() as f64 / elapsed,
        if binary { "binary" } else { "text" }
    );
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let specs = parse_data_specs(opts.get("data").ok_or("serve needs --data")?)?;
    let port: u16 = opts
        .get("port")
        .ok_or("serve needs --port")?
        .parse()
        .map_err(|_| "--port must be 0..=65535")?;
    let c = parse_c(opts)?;
    let config = parse_engine_config(opts)?;
    let build = parse_build_opts(opts)?;
    let max_connections: usize = opts
        .get("max-connections")
        .map(|s| {
            s.parse()
                .map_err(|_| "--max-connections must be an integer")
        })
        .transpose()?
        .unwrap_or_else(|| ServerConfig::default().max_connections);
    let drain_timeout = opts
        .get("drain-timeout-ms")
        .map(|s| {
            s.parse()
                .map_err(|_| "--drain-timeout-ms must be an integer")
        })
        .transpose()?
        .map(std::time::Duration::from_millis)
        .unwrap_or_else(|| ServerConfig::default().drain_timeout);

    let shards: usize = opts
        .get("shards")
        .map(|s| s.parse().map_err(|_| "--shards must be an integer"))
        .transpose()?
        .unwrap_or(1);
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }

    // The first --data entry becomes the default index new connections
    // start on (attach order = spec order).
    let router = Router::new();
    for (name, path) in &specs {
        print!("[{name}] ");
        let engine = open_engine(path, c, build, shards, config)?;
        router.attach(name, engine).map_err(|e| e.to_string())?;
    }

    let auth_token = opts.get("auth-token").cloned();
    if auth_token.as_deref() == Some("") {
        return Err("--auth-token must not be empty (omit it to serve open)".into());
    }
    let max_connections_per_index: usize = opts
        .get("max-index-connections")
        .map(|s| {
            s.parse()
                .map_err(|_| "--max-index-connections must be an integer")
        })
        .transpose()?
        .unwrap_or_else(|| ServerConfig::default().max_connections_per_index);
    let server_config = ServerConfig {
        max_connections,
        max_connections_per_index,
        drain_timeout,
        auth_token,
        // Wire ATTACHes inherit the CLI's parameters and engine tuning.
        attach_params: pmlsh_params(c),
        attach_engine_config: config,
    };
    let authed = server_config.auth_token.is_some();
    let handle = serve_router(router.clone(), ("0.0.0.0", port), server_config)
        .map_err(|e| format!("binding port {port}: {e}"))?;
    println!(
        "serving {} index(es) [{}] on {} ({} worker thread(s) each, max {max_connections} \
         connections, mutating verbs {}); protocol: QUERY <k> <v1..vd> | PING | STATS | \
         INDEXINFO | LISTINDEXES | USE | AUTH | ATTACH | DETACH | REINDEX | INSERT | \
         DELETE | BATCH | SAVE | QUIT",
        router.len(),
        router.names().join(","),
        handle.addr(),
        config.effective_threads(),
        if authed { "AUTH-gated" } else { "open" },
    );
    handle.join();
    Ok(())
}

/// `pmlsh save` — snapshot an index to a versioned, checksummed `.pmlsh`
/// file. Two modes: `--data` builds locally and writes `--out`; `--addr`
/// sends the `SAVE` verb to a running server, which writes `--out` on
/// *its* filesystem (auth-gated when the server has a token).
fn cmd_save(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = opts.get("out").ok_or("save needs --out <file.pmlsh>")?;
    match (opts.get("addr"), opts.get("data")) {
        (Some(_), Some(_)) => {
            Err("save takes --data (local build) or --addr (running server), not both".into())
        }
        (None, None) => Err("save needs --data <file> or --addr <host:port>".into()),
        (Some(addr), None) => {
            for flag in ["c", "build-threads"] {
                if opts.contains_key(flag) {
                    return Err(format!(
                        "--{flag} only applies to a local save (the server keeps its own \
                         parameters)"
                    ));
                }
            }
            if out.chars().any(|ch| ch.is_ascii_whitespace()) {
                return Err("the wire protocol cannot carry whitespace in paths".into());
            }
            let mut client = WireClient::connect(addr)?;
            client.setup_session(opts)?;
            let reply = client.exchange(format!("SAVE {out}\n"))?;
            if let Some(err) = reply.strip_prefix("ERR ") {
                return Err(format!("server refused: {err}"));
            }
            println!("{reply}");
            Ok(())
        }
        (None, Some(data_path)) => {
            for flag in ["index", "auth-token"] {
                if opts.contains_key(flag) {
                    return Err(format!("--{flag} only applies with --addr"));
                }
            }
            let c = parse_c(opts)?;
            let build = parse_build_opts(opts)?;
            // One worker: the engine here only carries the index to disk.
            let config = EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            };
            let engine = open_engine(data_path, c, build, 1, config)?;
            let start = Instant::now();
            let report = engine
                .save(out)
                .map_err(|e| format!("writing {out}: {e}"))?;
            println!(
                "wrote {} points ({} bytes) to {out} in {:.2} s",
                report.points,
                report.bytes,
                start.elapsed().as_secs_f64()
            );
            Ok(())
        }
    }
}

/// Opens `path` as a served engine ([`ShardedEngine::open`]) and reports
/// what it holds. A `.pmlsh` snapshot (magic bytes, not extension)
/// restores the shard set it was saved with, with its saved parameters —
/// `--c`, `--build-threads` and `--shards` do not apply; a dataset file
/// is checked and built into `shards` shards.
fn open_engine(
    path: &str,
    c: f64,
    build: BuildOptions,
    shards: usize,
    config: EngineConfig,
) -> Result<ShardedEngine, String> {
    let start = Instant::now();
    let engine = ShardedEngine::open(path, pmlsh_params(c), build, shards, config)?;
    println!(
        "opened {path}: {} points in R^{} across {} shard(s) in {:.3} s",
        engine.len(),
        engine.dim(),
        engine.shard_count(),
        start.elapsed().as_secs_f64()
    );
    Ok(engine)
}

/// `--build-threads <n>` (0 = all cores); one thread when omitted. The
/// index built is the same either way.
fn parse_build_opts(opts: &HashMap<String, String>) -> Result<BuildOptions, String> {
    let threads = opts
        .get("build-threads")
        .map(|s| s.parse().map_err(|_| "--build-threads must be an integer"))
        .transpose()?
        .unwrap_or(1);
    Ok(BuildOptions::with_threads(threads))
}

/// A newline-delimited protocol client over one TCP connection, shared by
/// the `reindex`, `insert` and `delete` subcommands (auth and the current
/// index are per-connection server state, so each command runs its whole
/// session on a single connection).
struct WireClient {
    addr: String,
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl WireClient {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let reader = std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            addr: addr.to_string(),
            reader,
            writer: stream,
        })
    }

    fn exchange(&mut self, request: String) -> Result<String, String> {
        use std::io::Write;
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("sending to {}: {e}", self.addr))?;
        self.recv_line()
    }

    /// Reads one reply line without sending anything. `BATCH` replies span
    /// `1 + failed` lines, so the FAIL lines are drained with extra reads.
    fn recv_line(&mut self) -> Result<String, String> {
        use std::io::BufRead;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("reading from {}: {e}", self.addr))?;
        if n == 0 {
            // EOF before a reply line: the server dropped the connection
            // (e.g. the request tripped the line cap). Silence must not
            // look like success to scripts checking our exit code.
            return Err(format!(
                "{} closed the connection without replying",
                self.addr
            ));
        }
        Ok(reply.trim_end().to_string())
    }

    /// Switches this connection to the length-prefixed binary framing.
    /// Must run after `setup_session` (AUTH/USE are text-only verbs).
    fn hello_binary(&mut self) -> Result<(), String> {
        let reply = self.exchange("HELLO binary\n".to_string())?;
        if reply != "OK binary" {
            return Err(format!("{}: HELLO binary refused: {reply}", self.addr));
        }
        Ok(())
    }

    /// One binary QUERY round-trip; returns the (id, distance) pairs.
    fn query_binary(&mut self, k: u32, query: &[f32]) -> Result<Vec<(u64, f32)>, String> {
        use std::io::{Read, Write};
        let mut framed = Vec::new();
        pm_lsh::engine::frame::encode_query(k, query, &mut framed);
        self.writer
            .write_all(&framed)
            .map_err(|e| format!("sending to {}: {e}", self.addr))?;
        let mut prefix = [0u8; 4];
        self.reader
            .read_exact(&mut prefix)
            .map_err(|e| format!("reading from {}: {e}", self.addr))?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > 1 << 20 {
            return Err(format!(
                "{} sent an implausible {len}-byte reply frame",
                self.addr
            ));
        }
        let mut payload = vec![0u8; len];
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| format!("reading from {}: {e}", self.addr))?;
        match pm_lsh::engine::frame::decode_reply(&payload)
            .map_err(|e| format!("{} sent a bad frame: {e}", self.addr))?
        {
            pm_lsh::engine::frame::Reply::Ok(pairs) => Ok(pairs),
            pm_lsh::engine::frame::Reply::Err(msg) => Err(format!("server refused: {msg}")),
            pm_lsh::engine::frame::Reply::Pong => {
                Err(format!("{} answered QUERY with PONG", self.addr))
            }
        }
    }

    /// Establishes the per-connection session state: `AUTH` when
    /// `--auth-token` was given, `USE` when `--index` was.
    fn setup_session(&mut self, opts: &HashMap<String, String>) -> Result<(), String> {
        if let Some(token) = opts.get("auth-token") {
            let reply = self.exchange(format!("AUTH {token}\n"))?;
            if let Some(err) = reply.strip_prefix("ERR ") {
                return Err(format!("authentication failed: {err}"));
            }
        }
        if let Some(index) = opts.get("index") {
            let reply = self.exchange(format!("USE {index}\n"))?;
            if let Some(err) = reply.strip_prefix("ERR ") {
                return Err(format!("selecting index '{index}': {err}"));
            }
        }
        Ok(())
    }
}

fn cmd_reindex(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts.get("addr").ok_or("reindex needs --addr <host:port>")?;
    let data = opts.get("data").ok_or("reindex needs --data <path>")?;
    if data.chars().any(|ch| ch.is_ascii_whitespace()) {
        return Err("the wire protocol cannot carry whitespace in paths".into());
    }
    let mut client = WireClient::connect(addr)?;
    client.setup_session(opts)?;

    println!("asking {addr} to reindex onto {data} (server-side path) ...");
    let reply = client.exchange(format!("REINDEX {data}\n"))?;
    if let Some(err) = reply.strip_prefix("ERR ") {
        return Err(format!("server refused: {err}"));
    }
    println!("{reply}");
    println!("{}", client.exchange("INDEXINFO\n".to_string())?);
    Ok(())
}

fn cmd_insert(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts.get("addr").ok_or("insert needs --addr <host:port>")?;
    let vector = opts
        .get("vector")
        .ok_or("insert needs --vector v1,v2,...")?;
    // Parse locally first: a malformed component should fail before any
    // network traffic, with a message naming the component.
    let mut components = Vec::new();
    for field in vector.split(',') {
        match field.trim().parse::<f32>() {
            Ok(v) if v.is_finite() => components.push(v),
            _ => return Err(format!("--vector holds a bad component '{field}'")),
        }
    }
    if components.is_empty() {
        return Err("--vector must hold at least one component".into());
    }
    let mut client = WireClient::connect(addr)?;
    client.setup_session(opts)?;

    let mut line = String::from("INSERT");
    for v in &components {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    line.push('\n');
    let reply = client.exchange(line)?;
    if let Some(err) = reply.strip_prefix("ERR ") {
        return Err(format!("server refused: {err}"));
    }
    println!("{reply}");
    println!("{}", client.exchange("INDEXINFO\n".to_string())?);
    Ok(())
}

fn cmd_delete(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts.get("addr").ok_or("delete needs --addr <host:port>")?;
    let id: u32 = opts
        .get("id")
        .ok_or("delete needs --id <point id>")?
        .parse()
        .map_err(|_| "--id must be a non-negative integer")?;
    let mut client = WireClient::connect(addr)?;
    client.setup_session(opts)?;

    let reply = client.exchange(format!("DELETE {id}\n"))?;
    if let Some(err) = reply.strip_prefix("ERR ") {
        return Err(format!("server refused: {err}"));
    }
    println!("{reply}");
    println!("{}", client.exchange("INDEXINFO\n".to_string())?);
    Ok(())
}

fn cmd_batch_mutate(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .ok_or("batch-mutate needs --addr <host:port>")?;
    let path = opts.get("ops").ok_or("batch-mutate needs --ops <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;

    // Validate locally first, like `insert` does for --vector: a malformed
    // op line should fail before any network traffic, with a message naming
    // the file line — the server would reject the whole batch anyway
    // (syntactic errors are all-or-nothing), in the same words.
    let mut ops: Vec<&str> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        pm_lsh_engine::server::parse_mut_op(line)
            .map_err(|msg| format!("{path}:{}: {msg}", lineno + 1))?;
        ops.push(line);
    }
    if ops.is_empty() {
        return Err(format!(
            "{path} holds no ops (blank lines and '#' comments are skipped)"
        ));
    }

    let mut client = WireClient::connect(addr)?;
    client.setup_session(opts)?;

    // The whole batch is one request: the header line, then every op line.
    // The server replies once, after the last op line arrives.
    let mut request = format!("BATCH {}\n", ops.len());
    for op in &ops {
        request.push_str(op);
        request.push('\n');
    }
    println!("sending {} ops to {addr} as one batch ...", ops.len());
    let reply = client.exchange(request)?;
    if let Some(err) = reply.strip_prefix("ERR ") {
        return Err(format!("server refused: {err}"));
    }
    println!("{reply}");
    // `OK applied=<a> failed=<f> epoch=<e> points=<n>`: <f> FAIL lines
    // follow the summary, one per op the server rejected semantically.
    let failed: usize = reply
        .split_ascii_whitespace()
        .find_map(|field| field.strip_prefix("failed="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable batch reply '{reply}'"))?;
    for _ in 0..failed {
        println!("{}", client.recv_line()?);
    }
    println!("{}", client.exchange("INDEXINFO\n".to_string())?);
    Ok(())
}

fn cmd_bench(opts: &HashMap<String, String>) -> Result<(), String> {
    let data = Arc::new(load(opts.get("data").ok_or("bench needs --data")?)?);
    let queries = load(opts.get("queries").ok_or("bench needs --queries")?)?;
    let (k, c) = parse_kc(opts)?;
    let truth = exact_knn_batch(data.view(), queries.view(), k, 0);

    println!(
        "{:<12} {:>9} {:>10} {:>8} {:>8}",
        "algorithm", "build(s)", "ms/query", "recall", "ratio"
    );
    for name in ["pm-lsh", "srs", "qalsh", "multi-probe", "r-lsh", "lscan"] {
        let b0 = Instant::now();
        let algo = build_algo(name, data.clone(), c)?;
        let build_s = b0.elapsed().as_secs_f64();
        let q0 = Instant::now();
        let mut recall_sum = 0.0;
        let mut ratio_sum = 0.0;
        for (qi, q) in queries.iter().enumerate() {
            let res = algo.query(q, k);
            recall_sum += recall(&res.neighbors, &truth[qi]);
            ratio_sum += overall_ratio(&res.neighbors, &truth[qi]);
        }
        let nq = queries.len() as f64;
        println!(
            "{:<12} {:>9.2} {:>10.3} {:>8.4} {:>8.4}",
            algo.name(),
            build_s,
            q0.elapsed().as_secs_f64() * 1e3 / nq,
            recall_sum / nq,
            ratio_sum / nq
        );
    }
    Ok(())
}
