//! `compare <a.jsonl> <b.jsonl>`: the A/A check, and the tool later issues
//! use to judge a change. Per workload and end-to-end metric it prints the
//! median and quartiles of each set of `runs.jsonl` rows, the same for the
//! raw (uncompensated) figure where there is one, and a verdict.

use crate::json::Json;
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use crate::{Better, MetricDef, END_TO_END, INFO_METRICS};

/// How set B stands against set A on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's quartile spread is wider than the bound: nothing can be said.
    Unresolved,
}

/// Quartile spread as a share of the median — the driver's steadiness figure.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med.abs()
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > def.bound || spread(b) > def.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let worsening = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worsening > def.bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| Json::parse(line).map_err(|e| format!("{path} line {}: {e}", i + 1)))
        .collect()
}

/// Values of `metric` over the measured (`trace` 0, not `--quick`) rows of
/// `workload`; `info` selects the row's `info` object instead of `metrics`.
fn values(rows: &[Json], workload: &str, metric: &str, info: bool) -> Vec<f64> {
    rows.iter()
        .filter(|row| {
            let env = row.get("envelope");
            env.and_then(|e| e.get("workload")).and_then(Json::as_str) == Some(workload)
                && env.and_then(|e| e.get("trace")).and_then(Json::as_f64) == Some(0.0)
                && env.and_then(|e| e.get("quick")) == Some(&Json::Bool(false))
        })
        .filter_map(|row| {
            if info {
                row.get("info")?.get(metric)?.as_f64()
            } else {
                row.get("metrics")?.get(metric)?.get("value")?.as_f64()
            }
        })
        .collect()
}

fn cell(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("{:>34}", "-");
    }
    let [q1, med, q3] = quartiles(values);
    format!("{med:>12.5} [{q1:>9.5}..{q3:>9.5}]")
}

pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<16} {:>6} {:>34} {:>34} {:>7} {:>7}  verdict",
        "workload", "metric", "bound", "A median [q1..q3]", "B median [q1..q3]", "sprd A", "sprd B"
    );
    for w in &WORKLOADS {
        let metrics = END_TO_END
            .iter()
            .map(|d| (d, false))
            .chain(INFO_METRICS.iter().map(|d| (d, true)));
        for (def, info) in metrics {
            let (va, vb) = (
                values(&a, w.name, def.name, info),
                values(&b, w.name, def.name, info),
            );
            if va.len() < 2 || vb.len() < 2 {
                if !info {
                    println!(
                        "{:<14} {:<16} needs two runs per set, got {} and {}",
                        w.name,
                        def.name,
                        va.len(),
                        vb.len()
                    );
                }
                continue;
            }
            println!(
                "{:<14} {:<16} {:>6.3} {} {} {:>6.2}% {:>6.2}%  {:?}",
                w.name,
                def.name,
                def.bound,
                cell(&va),
                cell(&vb),
                100.0 * spread(&va),
                100.0 * spread(&vb),
                judge(def, &va, &vb),
            );
            let raw = format!("raw_{}", def.name);
            let (ra, rb) = (
                values(&a, w.name, &raw, true),
                values(&b, w.name, &raw, true),
            );
            if ra.len() >= 2 && rb.len() >= 2 {
                println!(
                    "{:<14} {:<16} {:>6} {} {} {:>6.2}% {:>6.2}%  (raw, not judged)",
                    "",
                    format!("  {raw}"),
                    "",
                    cell(&ra),
                    cell(&rb),
                    100.0 * spread(&ra),
                    100.0 * spread(&rb),
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "query_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let faster = [85.0, 86.0, 84.0, 85.5, 84.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&LOWER, &steady, &steady), Verdict::Within);
        assert_eq!(judge(&LOWER, &steady, &slower), Verdict::Worse);
        assert_eq!(judge(&LOWER, &steady, &faster), Verdict::Within);
        assert_eq!(judge(&HIGHER, &steady, &faster), Verdict::Worse);
        assert_eq!(judge(&HIGHER, &steady, &slower), Verdict::Within);
        assert_eq!(judge(&LOWER, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&LOWER, &noisy, &steady), Verdict::Unresolved);
    }

    #[test]
    fn rows_are_filtered_by_workload_trace_and_quick() {
        let row = |workload: &str, trace: usize, quick: bool, v: f64| {
            let mut env = Json::obj();
            env.set("workload", workload)
                .set("trace", trace)
                .set("quick", quick);
            let mut m = Json::obj();
            m.set("value", v).set("unit", "us");
            let mut metrics = Json::obj();
            metrics.set("query_p50_us", m);
            let mut info = Json::obj();
            info.set("raw_query_p50_us", v * 2.0);
            let mut row = Json::obj();
            row.set("envelope", env)
                .set("metrics", metrics)
                .set("info", info);
            Json::parse(&row.render()).unwrap()
        };
        let rows = vec![
            row("audio_wire", 0, false, 1.0),
            row("audio_wire", 0, false, 2.0),
            row("audio_wire", 1, false, 3.0),
            row("audio_wire", 0, true, 4.0),
            row("deep_churn", 0, false, 5.0),
        ];
        assert_eq!(
            values(&rows, "audio_wire", "query_p50_us", false),
            vec![1.0, 2.0]
        );
        assert_eq!(
            values(&rows, "audio_wire", "raw_query_p50_us", true),
            vec![2.0, 4.0]
        );
    }
}
