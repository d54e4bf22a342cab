//! Cold-start bench: loading a `.pmlsh` snapshot vs rebuilding from the
//! fvecs it came from.
//!
//! The scenario is a server (re)start: the index must be in memory and
//! answering before the first query. Path A reads the dataset file and
//! runs the paper build (`pmlsh serve --data name=file.fvecs`); path B
//! deserializes a previously saved snapshot (`--data name=file.pmlsh`).
//! Both start from the filesystem, so the comparison is end to end —
//! file read included.
//!
//! Before any number is reported, the loaded index's `neighbors` **and**
//! `QueryStats` are asserted bit-identical to the rebuilt index's on the
//! whole query stream (the build is deterministic, so rebuild and
//! snapshot describe the same index — the snapshot must not change a
//! single answer).
//!
//! At Smoke scale, the scale CI runs it at, the run then asserts that
//! Audio's best of 7 loads takes at most 2.5 ms. The gate is a ceiling on
//! the load path itself, not on its ratio to a rebuild, which keeps
//! getting cheaper: a build is a projection and an ECDF sample since the
//! served index stopped bulk-loading a PM-tree. The ceiling is the one the
//! former 5x-over-rebuild gate set. Before that change, on a shared 2-vCPU
//! x86-64 box (`taskset -c 1`, five runs), an Audio Smoke rebuild took
//! 12.1–13.9 ms, so the 5x gate failed any load above about 2.5 ms, and a
//! load took 0.79–0.94 ms, about a third of that. Bench and Full loads,
//! and Trevi's at every scale, are printed, not gated.
//!
//! Measured since, same box and pinning, best of 7 per run, two or three
//! runs: Audio at Smoke (n = 2 000, 1.98 MiB snapshot) rebuilds in
//! 3.6–3.8 ms and loads in 0.8 ms, so the ratio a rebuild gives is 4.3–4.7x
//! and the former gate would fail on every run. At Bench (n = 54 000,
//! 43 MiB) Audio rebuilds in 64–82 ms (364–369 ms with the bulk load) and
//! loads in 72–73 ms (72–78 ms before). Trevi, whose build is mostly the
//! ECDF's 50 000 pairs at d = 4096, rebuilds in 76–81 ms and loads in
//! 5.4–6.1 ms at Smoke (13 MiB), and in 0.38–0.42 s against 0.28–0.32 s at
//! Bench (189 MiB), both paths dominated there by reading the raw rows.
//!
//! Knobs: `PMLSH_SCALE` (smoke|bench|full), `PMLSH_QUERIES`,
//! `PMLSH_FORCE_SCALAR=1` (pin the scalar kernels).

use pm_lsh_bench::{f, queries_from_env, scale_from_env, Table};
use pm_lsh_core::{PmLsh, PmLshParams, QueryResult};
use pm_lsh_data::{read_auto, write_fvecs, PaperDataset, Scale};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const REPEATS: usize = 7;
/// The ceiling on Audio's best Smoke-scale load; see the module docs.
const MAX_SMOKE_LOAD_S: f64 = 2.5e-3;

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pmlsh-bench-{tag}-{}-{}.{ext}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

fn main() {
    let scale = scale_from_env();
    println!("snapshot load vs fvecs rebuild — scale {scale:?}, k = {K}\n");

    let ceiling = (scale == Scale::Smoke).then_some(MAX_SMOKE_LOAD_S);
    run_dataset(PaperDataset::Audio, scale, ceiling);
    // Trevi's load is printed, not gated: see the module docs.
    run_dataset(PaperDataset::Trevi, scale, None);
}

fn run_dataset(ds: PaperDataset, scale: Scale, ceiling: Option<f64>) {
    let generator = ds.generator(scale);
    let data = generator.dataset();
    let queries = generator.queries(queries_from_env());
    println!(
        "{} — n = {}, d = {}, {} queries",
        ds.name(),
        data.len(),
        data.dim(),
        queries.len()
    );

    let fvecs = temp_path(ds.name(), "fvecs");
    let snap = temp_path(ds.name(), "pmlsh");
    write_fvecs(&fvecs, &data).expect("write fvecs");

    // --- path A: cold start from the dataset file --------------------------
    let mut built: Option<PmLsh> = None;
    let mut build_best_s = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let data = Arc::new(read_auto(&fvecs, None).expect("read fvecs"));
        let index = PmLsh::build(data, PmLshParams::paper_defaults());
        build_best_s = build_best_s.min(start.elapsed().as_secs_f64());
        built = Some(index);
    }
    let built = built.unwrap();
    let reference: Vec<QueryResult> = queries.iter().map(|q| built.query(q, K)).collect();

    let snapshot_bytes = pm_lsh_persist::save(&built, &snap)
        .expect("save snapshot")
        .bytes;

    // --- path B: cold start from the snapshot -------------------------------
    let mut loaded: Option<PmLsh> = None;
    let mut load_best_s = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let index = pm_lsh_persist::load(&snap).expect("load snapshot");
        load_best_s = load_best_s.min(start.elapsed().as_secs_f64());
        loaded = Some(index);
    }
    let loaded = loaded.unwrap();

    // Parity before performance: the snapshot must not change one answer.
    for (qi, q) in queries.iter().enumerate() {
        let got = loaded.query(q, K);
        assert_eq!(
            got.neighbors,
            reference[qi].neighbors,
            "{}: loaded index diverged on query {qi}",
            ds.name()
        );
        assert_eq!(
            got.stats,
            reference[qi].stats,
            "{}: loaded index did different work on query {qi}",
            ds.name()
        );
    }

    let speedup = build_best_s / load_best_s;
    let mut table = Table::new(&["cold-start path", "seconds", "speedup", "identical"]);
    table.row(vec![
        "fvecs read + build".into(),
        f(build_best_s, 4),
        "1.00x".into(),
        "-".into(),
    ]);
    table.row(vec![
        ".pmlsh load".into(),
        f(load_best_s, 4),
        format!("{speedup:.1}x"),
        "yes".into(),
    ]);
    print!("{}", table.render());
    println!(
        "snapshot: {:.2} MiB on disk\n",
        snapshot_bytes as f64 / (1024.0 * 1024.0)
    );
    if let Some(ceiling) = ceiling {
        assert!(
            load_best_s <= ceiling,
            "{}: the best snapshot load took {:.2} ms (gate: {:.2} ms)",
            ds.name(),
            load_best_s * 1e3,
            ceiling * 1e3
        );
    }

    let _ = std::fs::remove_file(&fvecs);
    let _ = std::fs::remove_file(&snap);
}
