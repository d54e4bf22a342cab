//! The measured run (`--trace 0`): repeated set-up, warm-up, the timed
//! closed loop with machine-speed probes, and the end-to-end metrics.

use crate::check;
use crate::probe::{stretch_factors, Probes, Reading};
use crate::stats::{fifths, median, percentile, samples_beyond};
use crate::wire::{Client, Packed};
use crate::workload::{self, Op, Setup, Shape, Spec};
use crate::{Options, Outcome};
use pm_lsh_core::{BuildOptions, PmLsh, PmLshParams};
use pm_lsh_data::Generator;
use pm_lsh_engine::{
    serve_router, Engine, EngineConfig, Router, ServerConfig, ServerHandle, ShardedEngine,
};
use pm_lsh_metric::Dataset;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// The paper's operating point (β = 0.2809): what `pmlsh serve` uses.
pub fn params() -> PmLshParams {
    PmLshParams::paper_defaults()
}

/// One worker per shard, whatever `available_parallelism` says: the load
/// is one closed-loop connection, and results must not depend on the
/// core count of the box. `batch_size: 1` because that one connection
/// never has a second request for the micro-batcher to coalesce: with the
/// default (32) every query sleeps out `max_wait` (200 us, more than the
/// whole search on `audio_wire`), and what a timed sleep costs on this VM
/// depends on the host, not on the code (README, "Noise").
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: 1,
        batch_size: 1,
        ..EngineConfig::default()
    }
}

/// `ShardedEngine::build` the way the sharded workload serves it; also
/// builds the twin its replies are checked against.
pub fn build_sharded(corpus: &Dataset, shards: usize) -> ShardedEngine {
    ShardedEngine::build(
        corpus,
        params(),
        BuildOptions::with_threads(1),
        shards,
        engine_config(),
    )
}

/// A served index with the one client connection attached to it.
pub struct Hosted {
    pub client: Client,
    pub engine: ShardedEngine,
    /// `Some` until dropped.
    handle: Option<ServerHandle>,
    pub setup_s: f64,
    /// Resident-set growth across the set-up, in bytes.
    pub rss_bytes: f64,
}

impl Hosted {
    pub fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("live until dropped").addr()
    }
}

/// Drains the server. `ServerHandle::shutdown` signals the reactor through
/// the same waker a stalled server no longer hears (see `wire::STALL`), so
/// a helper keeps knocking on the listener — any event makes the reactor
/// look at its stop flag — until the shutdown has returned.
impl Drop for Hosted {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.client.close();
        let addr = handle.addr();
        let (done, wait) = std::sync::mpsc::channel::<()>();
        let knock = std::thread::spawn(move || {
            while wait.recv_timeout(Duration::from_millis(50)) == Err(RecvTimeoutError::Timeout) {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
            }
        });
        handle.shutdown();
        drop(done);
        let _ = knock.join();
    }
}

/// Name the snapshot is attached under in the `Attach` flavour.
const ATTACH_NAME: &str = "bench";

/// Brings the workload's index up behind a loopback server and times it:
/// corpus already in memory → first `PONG`. `prebuilt` skips the index
/// construction (the traced run times that separately).
pub fn host(
    spec: &Spec,
    corpus: &Dataset,
    snapshot: &Path,
    prebuilt: Option<ShardedEngine>,
) -> io::Result<Hosted> {
    let rss_before = resident_bytes();
    // The served index owns its rows; copy them before the clock starts so
    // `index_rss_mb` counts the row store and `setup_s` does not count
    // the benchmark's own memcpy.
    let owned = (spec.setup == Setup::Build && prebuilt.is_none()).then(|| corpus.clone());
    let start = Instant::now();
    let config = ServerConfig {
        attach_params: params(),
        attach_engine_config: engine_config(),
        ..ServerConfig::default()
    };
    let router = Router::new();
    let built = match (prebuilt, spec.setup) {
        (Some(engine), _) => Some(engine),
        (None, Setup::Build) => {
            let index = PmLsh::build(owned.expect("copied above"), params());
            Some(Engine::new(index, engine_config()).into())
        }
        (None, Setup::Sharded(shards)) => Some(build_sharded(corpus, shards)),
        (None, Setup::Attach) => None,
    };
    if let Some(engine) = &built {
        router
            .attach("default", engine.clone())
            .map_err(io::Error::other)?;
    }
    let handle = serve_router(router.clone(), ("127.0.0.1", 0), config)?;
    let mut client = Client::connect(handle.addr())?;
    let engine = match built {
        Some(engine) => engine,
        None => {
            let path = snapshot
                .to_str()
                .ok_or_else(|| io::Error::other("snapshot path is not UTF-8"))?;
            client.expect(&format!("ATTACH {ATTACH_NAME} {path}"), "OK attached")?;
            client.expect(&format!("USE {ATTACH_NAME}"), "OK using")?;
            router
                .get(ATTACH_NAME)
                .ok_or_else(|| io::Error::other("attached index vanished"))?
        }
    };
    client.expect("PING", "PONG")?;
    let setup_s = start.elapsed().as_secs_f64();
    let rss_bytes = resident_bytes() - rss_before;
    client.hello(spec.framing)?;
    Ok(Hosted {
        client,
        engine,
        handle: Some(handle),
        setup_s,
        rss_bytes,
    })
}

/// Raw timings of one driven op list.
pub struct Timed {
    /// Send → last reply byte, per op, nanoseconds.
    pub lat_ns: Vec<f64>,
    /// Previous completion (or probe end) → this completion, per op: the
    /// op's share of wall time, client-side gaps included.
    pub slot_ns: Vec<f64>,
    /// One reading before every `probe_every`-th op and one after the last.
    pub readings: Vec<Reading>,
    pub replies: Packed,
    /// Process CPU over the phase, probes' own time taken out.
    pub cpu_ms: f64,
}

/// Sends every request on the one connection, each after the previous
/// reply arrived (closed loop), probing machine speed every `probe_every` ops.
pub fn drive(
    client: &mut Client,
    reqs: &Packed,
    probe_every: usize,
    probes: &Probes,
) -> io::Result<Timed> {
    let n = reqs.len();
    let mut t = Timed {
        lat_ns: Vec::with_capacity(n),
        slot_ns: Vec::with_capacity(n),
        readings: Vec::with_capacity(n / probe_every + 2),
        replies: Packed::with_capacity(n, n * 256),
        cpu_ms: 0.0,
    };
    let cpu_before = process_cpu_ms();
    let mut mark = Instant::now();
    for i in 0..n {
        if i % probe_every == 0 {
            t.readings.push(probes.read());
            mark = Instant::now();
        }
        let sent = Instant::now();
        t.replies
            .push_with(|reply| client.roundtrip(reqs.get(i), reply))?;
        let done = Instant::now();
        t.lat_ns.push((done - sent).as_nanos() as f64);
        t.slot_ns.push((done - mark).as_nanos() as f64);
        mark = done;
    }
    t.readings.push(probes.read());
    let probe_ms: f64 = t.readings.iter().map(|r| r.wall_ns() / 1e6).sum();
    t.cpu_ms = process_cpu_ms() - cpu_before - probe_ms;
    Ok(t)
}

/// utime + stime of this process from `/proc/self/stat`, in milliseconds.
/// Linux reports them in `USER_HZ` ticks, which is 100 on every
/// architecture Linux runs on; 0 where `/proc` is missing.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, so the 12th and 13th after ')'.
    let mut fields = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_ascii_whitespace()
        .skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) * 10.0
}

/// Resident set size of this process in bytes (`/proc/self/statm`, second
/// field, in 4 KiB pages on every Linux this repo targets); 0 without `/proc`.
fn resident_bytes() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages = statm
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|f| f.parse::<f64>().ok());
    pages.unwrap_or(0.0) * 4096.0
}

/// The timing metrics of one driven op list, once with every timing
/// scaled by its stretch's machine factor and once raw.
pub struct Timings {
    pub query_qps: f64,
    pub query_p50_us: f64,
    pub query_p99_us: f64,
    pub cpu_ms_per_op: f64,
    /// `deep_churn` only: p50 of `INSERT`, of `DELETE`, and of `BATCH` ÷ 64.
    pub writes: Option<[f64; 3]>,
}

/// `sensitivity` is the workload's memory sensitivity; `None` leaves the
/// timings raw.
pub fn timings(ops: &[Op], t: &Timed, probe_every: usize, sensitivity: Option<f64>) -> Timings {
    let factors = sensitivity.map(|a| stretch_factors(&t.readings, a));
    let factor = |i: usize| factors.as_ref().map_or(1.0, |f| f[i / probe_every]);
    let lat_us = |want: fn(&Op) -> bool| -> Vec<f64> {
        (0..ops.len())
            .filter(|&i| want(&ops[i]))
            .map(|i| t.lat_ns[i] * factor(i) / 1e3)
            .collect()
    };
    let queries = lat_us(|op| matches!(op, Op::Query(_)));
    // Throughput per fifth of the op list (same op mix in each): queries
    // completed ÷ the wall time their slots took.
    let qps: Vec<f64> = fifths(ops.len())
        .into_iter()
        .map(|range| {
            let slots = range.filter(|&i| matches!(ops[i], Op::Query(_)));
            let (count, ns) = slots.fold((0usize, 0.0), |(c, ns), i| {
                (c + 1, ns + t.slot_ns[i] * factor(i))
            });
            count as f64 / (ns / 1e9)
        })
        .collect();
    let wall_raw: f64 = t.slot_ns.iter().sum();
    let wall: f64 = (0..ops.len()).map(|i| t.slot_ns[i] * factor(i)).sum();
    let inserts = lat_us(|op| matches!(op, Op::Insert(_)));
    let writes = (!inserts.is_empty()).then(|| {
        let deletes = lat_us(|op| matches!(op, Op::Delete(_)));
        let batches = lat_us(|op| matches!(op, Op::Batch(_)));
        [
            median(&inserts),
            median(&deletes),
            median(&batches) / workload::BATCH_OPS as f64,
        ]
    });
    Timings {
        query_qps: median(&qps),
        query_p50_us: percentile(&queries, 50.0),
        query_p99_us: percentile(&queries, 99.0),
        // CPU is only known for the phase as a whole; scale it by the
        // phase's mean factor.
        cpu_ms_per_op: t.cpu_ms * (wall / wall_raw) / ops.len() as f64,
        writes,
    }
}

/// Wall-clock seconds of each phase of a run, for budgeting the run
/// against the driver's cap (reported as `info.phase_*_s`).
struct Phases {
    last: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Phases {
    fn mark(&mut self, name: &'static str) {
        self.done.push((name, self.last.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }
}

/// The whole `--trace 0` run of one workload.
pub fn run(spec: &Spec, opts: &Options) -> io::Result<Outcome> {
    let mut phases = Phases {
        last: Instant::now(),
        done: Vec::new(),
    };
    let shape = spec.scaled(opts.seconds, opts.quick);
    let gen = Generator::new(spec.synth());
    let corpus = gen.dataset();
    let probes = Probes::new();
    let snapshot = opts.scratch.join(format!("{}.pmlsh", spec.name));
    if spec.setup == Setup::Attach {
        // Written without fsync: the file is an input to ATTACH, not a
        // durability test (`persist.save_s` in the traced run times the
        // real save).
        let index = PmLsh::build(corpus.clone(), params());
        std::fs::write(&snapshot, pm_lsh_persist::serialize(&index))?;
    }
    phases.mark("corpus");

    // Set-up, repeated, before anything that depends on the seed exists:
    // the heap the first repetition grows into is then the same on every
    // run, which is what lets `index_rss_mb` repeat. Each repetition is
    // fenced by probe readings; the last one's server is the one measured.
    let reps = if opts.quick { 2 } else { spec.setup_reps };
    let mut setup_raw = Vec::with_capacity(reps);
    let mut setup_scaled = Vec::with_capacity(reps);
    let mut first_rss = None;
    let mut hosted = None;
    let mut before = probes.read();
    for _ in 0..reps {
        drop(hosted.take());
        let h = host(spec, &corpus, &snapshot, None)?;
        let after = probes.read();
        let a = spec.mem_sensitivity;
        setup_raw.push(h.setup_s);
        setup_scaled.push(h.setup_s * (before.factor(a) * after.factor(a)).sqrt());
        // Later repetitions reuse pages the allocator kept from the
        // instance before, and grow by less.
        first_rss.get_or_insert(h.rss_bytes);
        before = after;
        hosted = Some(h);
    }
    let mut hosted = hosted.expect("at least one set-up repetition");
    phases.mark("setup");

    let script = workload::script(spec, &gen, shape, opts.seed, usize::MAX);
    let timed_queries = script.query_ops().count();
    phases.mark("script");
    let truth = check::oracle(&corpus, &script, spec.k);
    phases.mark("oracle");
    let requests = workload::encode(spec, &script);
    let warmup = workload::warmup(spec, &gen, timed_queries);
    phases.mark("encode");

    drive(&mut hosted.client, &warmup, usize::MAX, &probes)?;
    phases.mark("warmup");
    let timed = drive(&mut hosted.client, &requests, spec.probe_every, &probes)?;
    phases.mark("timed");

    // Everything below is checking, none of it timed.
    let verdict = check::validate(spec, &script, &timed.replies);
    let twin = matches!(shape, Shape::Churn { .. }).then(|| build_sharded(&corpus, spec.shards()));
    let reference = check::reference(spec, &script, &hosted.engine, twin.as_ref());
    let mismatched = verdict
        .scored
        .iter()
        .zip(&reference)
        .filter(|(wire, inproc)| !check::bit_equal(wire, inproc))
        .count();
    let (recall, ratio) = check::quality(&verdict.scored, &truth);
    let invariants = check::invariants(&hosted.engine);
    let rss_total = resident_bytes();
    drop(hosted);
    phases.mark("check");

    let mut notes = verdict.notes;
    if mismatched > 0 {
        notes.push(format!(
            "{mismatched} scored replies differ from the in-process answer"
        ));
    }
    if let Err(e) = &invariants {
        notes.push(format!("verify_invariants: {e}"));
    }
    if recall < spec.recall_floor {
        notes.push(format!(
            "recall_at_k {recall:.4} below the floor {}",
            spec.recall_floor
        ));
    }
    if ratio > crate::RATIO_CEILING {
        notes.push(format!(
            "overall_ratio {ratio:.5} above {}",
            crate::RATIO_CEILING
        ));
    }
    let failed = verdict.failed + mismatched;

    let comp = timings(
        &script.ops,
        &timed,
        spec.probe_every,
        Some(spec.mem_sensitivity),
    );
    let raw = timings(&script.ops, &timed, spec.probe_every, None);
    let factors = stretch_factors(&timed.readings, spec.mem_sensitivity);
    let mut out = Outcome::new(
        failed == 0 && notes.is_empty(),
        script.ops.len(),
        failed,
        notes,
    );
    out.metric("setup_s", median(&setup_scaled));
    out.metric("query_qps", comp.query_qps);
    out.metric("query_p50_us", comp.query_p50_us);
    out.metric("cpu_ms_per_op", comp.cpu_ms_per_op);
    out.metric("recall_at_k", recall);
    out.metric("overall_ratio", ratio);
    out.metric(
        "index_rss_mb",
        first_rss.expect("at least one set-up repetition") / (1 << 20) as f64,
    );
    out.info("raw_setup_s", median(&setup_raw));
    out.info("raw_query_qps", raw.query_qps);
    out.info("raw_query_p50_us", raw.query_p50_us);
    out.info("query_p99_us", comp.query_p99_us);
    out.info("raw_query_p99_us", raw.query_p99_us);
    out.info("raw_cpu_ms_per_op", raw.cpu_ms_per_op);
    if let (Some(c), Some(r)) = (comp.writes, raw.writes) {
        for (i, name) in ["insert_p50_us", "delete_p50_us", "batch_us_per_op"]
            .into_iter()
            .enumerate()
        {
            out.info(name, c[i]);
            out.info(&format!("raw_{name}"), r[i]);
        }
    }
    out.info("machine_factor", median(&factors));
    out.info(
        "ref_core_ns",
        median(&timed.readings.iter().map(|r| r.core_ns).collect::<Vec<_>>()),
    );
    out.info(
        "ref_mem_ns",
        median(&timed.readings.iter().map(|r| r.mem_ns).collect::<Vec<_>>()),
    );
    for (name, secs) in phases.done {
        out.info(&format!("phase_{name}_s"), secs);
    }
    out.info("rss_mb", rss_total / (1 << 20) as f64);
    out.count("ops", script.ops.len());
    out.count("queries", timed_queries);
    out.count("scored_queries", truth.len());
    out.count("samples_beyond_p99", samples_beyond(timed_queries, 99.0));
    out.count("setup_reps", reps);
    out.count("probes", timed.readings.len());
    if comp.writes.is_some() {
        let kind = |want: fn(&Op) -> bool| script.ops.iter().filter(|op| want(op)).count();
        out.count("inserts", kind(|op| matches!(op, Op::Insert(_))));
        out.count("deletes", kind(|op| matches!(op, Op::Delete(_))));
        out.count("batches", kind(|op| matches!(op, Op::Batch(_))));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(scale: f64) -> Reading {
        Reading {
            core_ns: crate::probe::REF_CORE_NS * scale,
            mem_ns: crate::probe::REF_MEM_NS * scale,
        }
    }

    #[test]
    fn median_of_fifths_and_compensation() {
        // Ten queries of 1 ms; the machine runs at half speed during the
        // second stretch (ops 5..10), where everything takes 2 ms.
        let ops: Vec<Op> = (0..10).map(Op::Query).collect();
        let ns = |i: usize| if i < 5 { 1e6 } else { 2e6 };
        let t = Timed {
            lat_ns: (0..10).map(ns).collect(),
            slot_ns: (0..10).map(ns).collect(),
            readings: vec![reading(1.0), reading(1.0), reading(4.0)],
            replies: Packed::default(),
            cpu_ms: 15.0,
        };
        let raw = timings(&ops, &t, 5, None);
        // Fifths of two ops each: 1000, 1000, 2 / 3 ms, 500, 500 queries/s.
        assert!((raw.query_qps - 2.0 / 3e-3).abs() < 1e-6);
        assert_eq!(raw.query_p50_us, 1000.0);
        assert_eq!(raw.query_p99_us, 2000.0);
        assert!((raw.cpu_ms_per_op - 1.5).abs() < 1e-12);
        // Stretch factors: 1 and sqrt(1 * 1/4) = 1/2, so the slow stretch
        // is scaled back to 1 ms per op.
        let comp = timings(&ops, &t, 5, Some(0.5));
        assert!((comp.query_qps - 1000.0).abs() < 1e-6);
        assert!((comp.query_p99_us - 1000.0).abs() < 1e-9);
        assert!((comp.cpu_ms_per_op - 1.0).abs() < 1e-12);
        assert!(comp.writes.is_none());
    }

    #[test]
    fn write_medians_stay_apart() {
        let ops = vec![
            Op::Batch(Vec::new()),
            Op::Insert(0),
            Op::Delete(0),
            Op::Query(0),
            Op::Insert(1),
        ];
        let t = Timed {
            lat_ns: vec![64e3, 7e3, 1e3, 5e3, 9e3],
            slot_ns: vec![64e3, 7e3, 1e3, 5e3, 9e3],
            readings: vec![reading(1.0), reading(1.0)],
            replies: Packed::default(),
            cpu_ms: 0.0,
        };
        let w = timings(&ops, &t, 5, Some(0.5)).writes.unwrap();
        assert_eq!(w, [8.0, 1.0, 1.0]);
    }

    #[test]
    fn cpu_clock_reads_something() {
        let before = process_cpu_ms();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            process_cpu_ms() - before >= 20.0,
            "60 ms of spinning shows as CPU time"
        );
    }
}
