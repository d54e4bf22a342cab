//! Drives the built binary: a `--quick` run of every workload at both
//! `--trace` values must print the contract's object as its last stdout
//! line, report no failed operation, and exit 0.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["audio_wire", "audio_verify", "trevi_highdim", "deep_churn"];

fn quick(workload: &str, trace: &str, out: &std::path::Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_pmlsh-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "20",
            "--quick",
        ])
        .args(["--trace", trace, "--out"])
        .arg(out)
        .output()
        .expect("spawn pmlsh-benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited {:?}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_runs_quick_and_correct() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("quick-{}", std::process::id()));
    for workload in WORKLOADS {
        let row = quick(workload, "0", &out);
        assert!(
            row.starts_with("{\"correct\":true,\"attempted\":"),
            "{workload}: {row}"
        );
        assert!(
            row.contains("\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":"),
            "{workload}: {row}"
        );
        for metric in [
            "query_qps",
            "query_p50_us",
            "cpu_ms_per_op",
            "recall_at_k",
            "overall_ratio",
            "index_rss_mb",
        ] {
            assert!(
                row.contains(&format!("\"{metric}\":{{\"value\":")),
                "{workload} lacks {metric}"
            );
        }
        let row = quick(workload, "1", &out);
        assert!(
            row.starts_with("{\"correct\":true,"),
            "{workload} traced: {row}"
        );
        assert!(
            row.contains("\"trace.replay_match\":{\"value\":1,"),
            "{workload} traced: {row}"
        );
        assert!(out.join(format!("trace-{workload}.jsonl")).exists());
    }
    let runs = std::fs::read_to_string(out.join("runs.jsonl")).expect("runs.jsonl");
    assert_eq!(runs.lines().count(), 2 * WORKLOADS.len());
    assert!(runs
        .lines()
        .all(|l| l.contains("\"envelope\":{\"git_rev\":")));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn bad_flags_exit_nonzero_without_a_result() {
    for args in [
        &["run", "--workload", "nope", "--seed", "1"][..],
        &["run", "--workload", "audio_wire"],
        &[
            "run",
            "--workload",
            "audio_wire",
            "--seed",
            "1",
            "--trace",
            "2",
        ],
        &[
            "run",
            "--workload",
            "audio_wire",
            "--seed",
            "1",
            "--frobnicate",
            "1",
        ],
        &["compare", "only-one.jsonl"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pmlsh-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
