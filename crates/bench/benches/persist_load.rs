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
//! single answer). On Audio the run then asserts that the best of 7 loads
//! is ≥ 5x faster than the best of 7 rebuilds. The gate is a floor against
//! a load path that has stopped being cheap, not a record of the ratio: at
//! Smoke scale a load is 1–5 ms and a rebuild 12–80 ms, so one scheduling
//! hiccup on a shared box moves the ratio by whole multiples. Measured on
//! the 2-core dev box: best-of-3 ratios of 8.3x and 9.2x under load (which
//! failed the former 10x gate in 2 runs of 3 on an unchanged commit), and
//! best-of-7 ratios of 11.8–13.1x (Audio) and 16.3–17.3x (Trevi) over
//! three quiet runs.
//!
//! Trevi's ratio is printed but not gated. At the default Bench scale
//! both of its paths are dominated by reading 190 MiB of raw rows
//! (n = 12 000, d = 4096): rebuild 0.36–0.39 s, load 0.22–0.23 s, 1.7x.
//! Audio at Bench scale (n = 54 000, 46 MiB snapshot): rebuild 0.35 s,
//! load 0.053–0.057 s, 6.3–6.7x. Two runs each.
//!
//! Knobs: `PMLSH_SCALE` (smoke|bench|full), `PMLSH_QUERIES`,
//! `PMLSH_FORCE_SCALAR=1` (pin the scalar kernels).

use pm_lsh_bench::{f, queries_from_env, scale_from_env, Table};
use pm_lsh_core::{PmLsh, PmLshParams, QueryResult};
use pm_lsh_data::{read_auto, write_fvecs, PaperDataset};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const REPEATS: usize = 7;
const MIN_SPEEDUP: f64 = 5.0;

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

    run_dataset(PaperDataset::Audio, scale, Some(MIN_SPEEDUP));
    // Trevi's ratio is printed, not gated: see the module docs.
    run_dataset(PaperDataset::Trevi, scale, None);
}

fn run_dataset(ds: PaperDataset, scale: pm_lsh_data::Scale, floor: Option<f64>) {
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
        f(build_best_s, 3),
        "1.00x".into(),
        "-".into(),
    ]);
    table.row(vec![
        ".pmlsh load".into(),
        f(load_best_s, 3),
        format!("{speedup:.1}x"),
        "yes".into(),
    ]);
    print!("{}", table.render());
    println!(
        "snapshot: {:.2} MiB on disk\n",
        snapshot_bytes as f64 / (1024.0 * 1024.0)
    );
    if let Some(floor) = floor {
        assert!(
            speedup >= floor,
            "{}: snapshot load is only {speedup:.1}x faster than rebuild (gate: {floor}x)",
            ds.name()
        );
    }

    let _ = std::fs::remove_file(&fvecs);
    let _ = std::fs::remove_file(&snap);
}
