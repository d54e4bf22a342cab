//! The `pmlsh` binary end to end: a dataset file with a NaN in it is a
//! clean `error:` exit naming the poisoned row and component, never a
//! panic deep inside the build.

use std::path::PathBuf;
use std::process::Command;

/// Writes a 300 × 8 CSV whose row 17 starts with `nan` and returns its
/// path (unique per test, so parallel tests never share a file).
fn nan_csv(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pmlsh-cli-{test}-{}.csv", std::process::id()));
    let mut text = String::new();
    for row in 0..300 {
        let values: Vec<String> = (0..8)
            .map(|col| match (row, col) {
                (17, 0) => "nan".to_string(),
                _ => format!("{}", ((row * 8 + col) % 97) as f32 * 0.125 - 6.0),
            })
            .collect();
        text.push_str(&values.join(","));
        text.push('\n');
    }
    std::fs::write(&path, text).expect("write the CSV");
    path
}

/// Runs `pmlsh <args>` and checks the refusal: exit code 1, an `error:`
/// line naming row 17 component 0, and no panic.
fn assert_refused(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_pmlsh"))
        .args(args)
        .output()
        .expect("run pmlsh");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains("row 17 component 0")),
        "{args:?}: no error line naming the row and component: {stderr}"
    );
}

#[test]
fn save_refuses_a_dataset_with_a_nan() {
    let data = nan_csv("save");
    let out = data.with_extension("pmlsh");
    assert_refused(&[
        "save",
        "--data",
        data.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(!out.exists(), "a refused save must write nothing");
    let _ = std::fs::remove_file(data);
}

#[test]
fn batch_query_refuses_a_dataset_with_a_nan() {
    let data = nan_csv("batch-query");
    let path = data.to_str().unwrap();
    assert_refused(&["batch-query", "--data", path, "--queries", path]);
    let _ = std::fs::remove_file(data);
}
