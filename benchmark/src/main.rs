//! `pmlsh-benchmark` — the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! pmlsh-benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>] [--quick]
//! pmlsh-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! `run` hosts the real `serve_router` server in-process on loopback,
//! drives it from one closed-loop connection, and prints one JSON object
//! as the last line of stdout; everything for humans goes to stderr and
//! the full row (envelope, raw figures, counts) is appended to
//! `<out>/runs.jsonl`.

mod check;
mod compare;
mod json;
mod probe;
mod run;
mod stats;
mod trace;
mod wire;
mod workload;

use json::Json;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Correctness gate on `overall_ratio`, every workload.
pub const RATIO_CEILING: f64 = 1.02;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// Printed by `--trace 0`, in this order; mirrors `BENCHMARK.json` (the
/// `contract` test below keeps the two from drifting).
pub const END_TO_END: [MetricDef; 7] = [
    def("setup_s", "s", Better::Lower, 0.25),
    def("query_qps", "1/s", Better::Higher, 0.25),
    def("query_p50_us", "us", Better::Lower, 0.25),
    def("cpu_ms_per_op", "ms", Better::Lower, 0.25),
    def("recall_at_k", "ratio", Better::Higher, 0.01),
    def("overall_ratio", "ratio", Better::Lower, 0.002),
    def("index_rss_mb", "MiB", Better::Lower, 0.05),
];

/// Figures that travel in the row's `info` and are judged by `compare`
/// only, with these bounds: the tail latency (its spread over ten runs
/// reached 28 % on this box, wider than any bound the contract allows, so
/// it cannot be a metric the driver rejects on), and `deep_churn`'s three
/// write figures (the contract has one metric list for all workloads, and
/// the read-only workloads have no writes).
pub const INFO_METRICS: [MetricDef; 4] = [
    def("query_p99_us", "us", Better::Lower, 0.25),
    def("insert_p50_us", "us", Better::Lower, 0.20),
    def("delete_p50_us", "us", Better::Lower, 0.20),
    def("batch_us_per_op", "us", Better::Lower, 0.20),
];

/// Printed by `--trace 1`: `(name, unit, better)`; no bounds.
pub const PER_LAYER: [(&str, &str, Better); 51] = {
    use Better::{Higher, Lower};
    [
        ("server.ping_rtt_us", "us", Lower),
        ("server.shell_text_us", "us", Lower),
        ("server.shell_binary_us", "us", Lower),
        ("server.write_shell_us", "us", Lower),
        ("server.start_s", "s", Lower),
        ("frame.decode_query_ns", "ns", Lower),
        ("frame.encode_ok_ns", "ns", Lower),
        ("wire.insert_us", "us", Lower),
        ("wire.delete_us", "us", Lower),
        ("wire.batch_us_per_op", "us", Lower),
        ("engine.query_us", "us", Lower),
        ("engine.dispatch_us", "us", Lower),
        ("engine.mean_batch", "count", Higher),
        ("engine.gather_us", "us", Lower),
        ("engine.fanout_work_ratio", "ratio", Lower),
        ("engine.insert_us", "us", Lower),
        ("engine.delete_us", "us", Lower),
        ("engine.batch_us_per_op", "us", Lower),
        ("engine.clone_us", "us", Lower),
        ("core.query_us", "us", Lower),
        ("core.self_us", "us", Lower),
        ("core.candidates_per_query", "count", Lower),
        ("core.rounds_per_query", "count", Lower),
        ("core.budget", "count", Lower),
        ("core.budget_fill", "ratio", Lower),
        ("core.apply_us_per_op", "us", Lower),
        ("core.build_s", "s", Lower),
        ("hash.project_ns", "ns", Lower),
        ("hash.project_all_s", "s", Lower),
        ("pmtree.traverse_us", "us", Lower),
        ("pmtree.traverse_ns_per_candidate", "ns", Lower),
        ("pmtree.proj_dists_per_query", "count", Lower),
        ("pmtree.proj_dists_per_candidate", "ratio", Lower),
        ("pmtree.height", "count", Lower),
        ("pmtree.node_count", "count", Lower),
        ("pmtree.insert_us", "us", Lower),
        ("pmtree.delete_us", "us", Lower),
        ("pmtree.build_s", "s", Lower),
        ("metric.verify_us", "us", Lower),
        ("metric.verify_ns_per_candidate", "ns", Lower),
        ("metric.kernel_ns_hot", "ns", Lower),
        ("metric.kernel_ns_stream", "ns", Lower),
        ("metric.abandon_share", "ratio", Higher),
        ("metric.bytes_per_query", "B", Lower),
        ("metric.topk_push_ns", "ns", Lower),
        ("persist.save_s", "s", Lower),
        ("persist.load_s", "s", Lower),
        ("persist.bytes_per_point", "B", Lower),
        ("persist.crc_gbps", "GB/s", Higher),
        ("trace.replay_match", "count", Higher),
        ("trace.overhead_ratio", "ratio", Higher),
    ]
};

/// Parsed `run` flags.
pub struct Options {
    pub seed: u64,
    pub seconds: usize,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    /// `<out>/tmp-<pid>`: snapshot files live here for the run's duration.
    pub scratch: PathBuf,
    /// CPUs the process could use when it started, and the one the run
    /// was then pinned to (see [`pin_to_one_cpu`]).
    pub nproc: usize,
    pub pinned_cpu: Option<usize>,
}

/// What a run found: the contract's four keys plus what only the
/// `runs.jsonl` row carries.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
    metrics: Vec<(String, f64)>,
    info: Vec<(String, f64)>,
    counts: Vec<(String, usize)>,
}

impl Outcome {
    pub fn new(correct: bool, attempted: usize, failed: usize, notes: Vec<String>) -> Self {
        Self {
            correct,
            attempted,
            failed,
            notes,
            metrics: Vec::new(),
            info: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.to_string(), value));
    }

    pub fn count(&mut self, name: &str, value: usize) {
        self.counts.push((name.to_string(), value));
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric '{name}' was never measured"))
            .1
    }

    /// The object the contract wants as the last line of stdout: exactly
    /// `correct`, `attempted`, `failed`, `metrics`, the metrics being the
    /// whole list for this `--trace` value, in table order.
    fn contract_row(&self, trace: bool) -> Json {
        let mut metrics = Json::obj();
        let mut put = |name: &str, unit: &str| {
            let mut m = Json::obj();
            m.set("value", self.value(name)).set("unit", unit);
            metrics.set(name, m);
        };
        if trace {
            PER_LAYER.iter().for_each(|(name, unit, _)| put(name, unit));
        } else {
            END_TO_END.iter().for_each(|d| put(d.name, d.unit));
        }
        let mut row = Json::obj();
        row.set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        row
    }
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: pmlsh-benchmark run --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>] [--quick]\n       pmlsh-benchmark compare <a.jsonl> <b.jsonl>",
        names.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<(&'static workload::Spec, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = workload::BASE_SECONDS;
    let mut trace = false;
    let mut quick = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed '{value}'"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..=60, got '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let spec = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    Ok((
        spec,
        Options {
            seed,
            seconds,
            trace,
            quick,
            out,
            scratch,
            nproc: nproc(),
            pinned_cpu: None,
        },
    ))
}

/// `git rev-parse --short HEAD`, or "unknown" outside a git checkout (the
/// driver's checkouts are not repositories).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Restricts this process, and every thread it will start, to the highest
/// CPU it may run on, and returns that CPU.
///
/// A closed loop on one connection has one runnable thread at any moment
/// (client -> reactor -> batcher -> worker -> reactor -> client), so a
/// second CPU adds no work done, only cross-CPU wake-ups — and what waking
/// an idle vCPU costs on this VM flips between two host states the guest
/// cannot observe (README, "Noise": 4 us or 20 us per hand-off, caches
/// cold after the slow kind). On one CPU a hand-off is a context switch
/// and the CPU never idles. `std` cannot set an affinity mask and the
/// repo's lint forbids a foreign call here, so util-linux's `taskset` sets
/// it on this process before any thread exists; threads inherit it.
fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    // "0-1", "0,2-3", "5": the last number is the highest CPU.
    let cpu: usize = allowed
        .trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("cannot read a CPU out of '{}'", allowed.trim()))?;
    let set = std::process::Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if set.success() && nproc() == 1 {
        Ok(cpu)
    } else {
        Err(format!("taskset -cp {cpu} left {} CPUs allowed", nproc()))
    }
}

/// The full row for `runs.jsonl`: the contract's object plus the run
/// envelope, the raw figures and the sample counts.
fn full_row(spec: &workload::Spec, opts: &Options, outcome: &Outcome) -> Json {
    let mut row = outcome.contract_row(opts.trace);
    let mut envelope = Json::obj();
    envelope
        .set("git_rev", git_rev())
        .set("workload", spec.name)
        .set("seed", opts.seed)
        .set("seconds", opts.seconds)
        .set("trace", usize::from(opts.trace))
        .set("quick", opts.quick)
        .set("nproc", opts.nproc)
        .set("pinned_cpu", opts.pinned_cpu.map_or(Json::Null, Json::from))
        .set("simd", format!("{:?}", pm_lsh_metric::simd::active_level()))
        .set("ref_core_ns", probe::REF_CORE_NS)
        .set("ref_mem_ns", probe::REF_MEM_NS);
    let mut counts = Json::obj();
    for (name, value) in &outcome.counts {
        counts.set(name, *value);
    }
    let mut info = Json::obj();
    for (name, value) in &outcome.info {
        info.set(name, *value);
    }
    row.set("envelope", envelope)
        .set("counts", counts)
        .set("info", info)
        .set(
            "notes",
            Json::Arr(
                outcome
                    .notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        );
    row
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let (spec, mut opts) = parse_run(args)?;
    if cfg!(debug_assertions) && !opts.quick {
        return Err("refusing to measure a debug build (use --release; --quick runs anywhere but its numbers are never reported)".into());
    }
    if opts.nproc < 2 {
        return Err(
            "refusing to run on one core: the sharded workload runs two legs at once, and every run of a series must see the same box"
                .into(),
        );
    }
    // The sharded workload runs its shard legs at once and keeps every
    // CPU; the others have one runnable thread at any moment.
    if spec.shards() == 1 {
        match pin_to_one_cpu() {
            Ok(cpu) => opts.pinned_cpu = Some(cpu),
            // Still a valid run, of the noisier kind the README describes.
            Err(e) => eprintln!("warning: running unpinned: {e}"),
        }
    }
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("creating {}: {e}", opts.scratch.display()))?;
    let attempt = || {
        if opts.trace {
            trace::run(spec, &opts)
        } else {
            run::run(spec, &opts)
        }
    };
    // A stalled server (see `wire::STALL`) ends the attempt; one rerun from
    // scratch, on a fresh server, still fits the driver's time limit.
    let result = attempt().or_else(|e| {
        if e.kind() == std::io::ErrorKind::TimedOut {
            eprintln!("{}: {e}; rerunning once", spec.name);
            attempt()
        } else {
            Err(e)
        }
    });
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let outcome = result.map_err(|e| format!("{} failed: {e}", spec.name))?;

    for note in &outcome.notes {
        eprintln!("INCORRECT: {note}");
    }
    eprintln!(
        "{} seed={} trace={} attempted={} failed={} correct={}",
        spec.name,
        opts.seed,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.failed,
        outcome.correct
    );
    for (name, value) in outcome.metrics.iter().chain(&outcome.info) {
        eprintln!("  {name:<34} {value:>16.6}");
    }
    let runs = opts.out.join("runs.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&runs)
        .and_then(|mut f| writeln!(f, "{}", full_row(spec, &opts, &outcome).render()))
        .map_err(|e| format!("appending to {}: {e}", runs.display()))?;
    println!("{}", outcome.contract_row(opts.trace).render());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]).map(|()| true),
        _ => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Measured, but the correctness gate failed: the row was printed
        // with `correct: false`.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod contract {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the binary prints. They must name the same metrics, units,
    /// directions and bounds, in the same order, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let keys: Vec<&str> = match &doc {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(workload::BASE_SECONDS as f64)
        );
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("{key} is not a list"),
        };
        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).expect(key).to_string();
        let direction = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };

        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, workload::WORKLOADS.map(|w| w.name));
        assert!(list("workloads")
            .iter()
            .all(|w| text(w, "why").len() <= 200));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(item, "name"), def.name);
            assert_eq!(text(item, "unit"), def.unit);
            assert_eq!(text(item, "better"), direction(def.better));
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(def.bound));
            assert!(def.bound <= 0.25);
        }
        // The contract wants set-up time to carry the largest bound.
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(item, "name"), *name);
            assert_eq!(text(item, "unit"), *unit);
            assert_eq!(text(item, "better"), direction(*better));
        }
    }
}
