//! Shared machinery of the PM-LSH experiment harness.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (the README's "Experiments" section describes them); this
//! library holds what they share: workload preparation (dataset,
//! queries and exact ground truth), the algorithm roster of Section 6.1,
//! timed workload execution, and plain-text table rendering.
//!
//! Environment knobs honored by every binary:
//!
//! * `PMLSH_SCALE` — `smoke` | `bench` (default) | `full`
//! * `PMLSH_QUERIES` — queries per dataset (default 100; paper uses 200)

#![warn(missing_docs)]

pub mod micro;

use pm_lsh_baselines::{
    AnnIndex, LScan, LScanParams, MultiProbe, MultiProbeParams, Qalsh, QalshParams, RLsh, Srs,
    SrsParams,
};
use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_data::{exact_knn_batch, MetricsAccumulator, PaperDataset, Scale, WorkloadMetrics};
use pm_lsh_metric::{Dataset, Neighbor};
use std::sync::Arc;
use std::time::Instant;

/// A prepared workload: shared dataset, query set and exact ground truth.
pub struct Workbench {
    /// Which paper dataset this stands in for.
    pub dataset: PaperDataset,
    /// The data points (shared across all indexes).
    pub data: Arc<Dataset>,
    /// The query points.
    pub queries: Dataset,
    /// Exact `k_max`-NN per query; prefixes give the truth for smaller `k`.
    pub truth: Vec<Vec<Neighbor>>,
}

impl Workbench {
    /// Generates the dataset and queries and computes exact ground truth up
    /// to `k_max` neighbors.
    pub fn prepare(dataset: PaperDataset, scale: Scale, n_queries: usize, k_max: usize) -> Self {
        let generator = dataset.generator(scale);
        let data = Arc::new(generator.dataset());
        let queries = generator.queries(n_queries);
        let truth = exact_knn_batch(data.view(), queries.view(), k_max, 0);
        Self {
            dataset,
            data,
            queries,
            truth,
        }
    }

    /// Runs `algo` over every query at depth `k`, timing each query and
    /// scoring it against the ground-truth prefix.
    pub fn run(&self, algo: &dyn AnnIndex, k: usize) -> WorkloadMetrics {
        assert!(
            self.truth.iter().all(|t| t.len() >= k),
            "ground truth shallower than k = {k}"
        );
        let mut acc = MetricsAccumulator::new();
        for (qi, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            let res = algo.query(q, k);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            acc.record(
                elapsed_ms,
                &res.neighbors,
                &self.truth[qi][..k],
                res.candidates_verified,
            );
        }
        acc.finish()
    }
}

/// The full algorithm roster of Section 6.1, built over one shared dataset.
///
/// All LSH-based algorithms use `m = 15` hash functions and the given
/// approximation ratio `c`; PM-LSH runs at the paper's published operating
/// point (β = 0.2809 at c = 1.5, Eq. 10-derived otherwise).
pub fn build_all(data: Arc<Dataset>, c: f64) -> Vec<Box<dyn AnnIndex>> {
    let pm_params = if (c - 1.5).abs() < 1e-9 {
        PmLshParams::paper_defaults()
    } else {
        PmLshParams::default().with_c(c)
    };
    vec![
        Box::new(PmLsh::build(data.clone(), pm_params)),
        Box::new(Srs::build(
            data.clone(),
            SrsParams {
                c,
                ..SrsParams::paper_operating_point()
            },
        )),
        Box::new(Qalsh::build(
            data.clone(),
            QalshParams {
                c,
                ..Default::default()
            },
        )),
        Box::new(MultiProbe::build(data.clone(), MultiProbeParams::default())),
        Box::new(RLsh::build(data.clone(), pm_params)),
        Box::new(LScan::build(data, LScanParams::default())),
    ]
}

/// Reads the `PMLSH_SCALE` environment knob.
pub fn scale_from_env() -> Scale {
    match std::env::var("PMLSH_SCALE").as_deref() {
        Ok("smoke") => Scale::Smoke,
        Ok("full") => Scale::Full,
        Ok("bench") | Err(_) => Scale::Bench,
        Ok(other) => panic!("unknown PMLSH_SCALE '{other}' (use smoke|bench|full)"),
    }
}

/// Reads the `PMLSH_QUERIES` environment knob (default 100).
pub fn queries_from_env() -> usize {
    std::env::var("PMLSH_QUERIES")
        .ok()
        .map(|s| s.parse().expect("PMLSH_QUERIES must be an integer"))
        .unwrap_or(100)
}

/// Minimal fixed-width table printer for paper-style output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - cells[i].len();
                if i == 0 {
                    line.push_str(&cells[i]);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&cells[i]);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Convenience: `format!`-style float with fixed decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_smoke_runs_all_algorithms() {
        let wb = Workbench::prepare(PaperDataset::Audio, Scale::Smoke, 5, 10);
        assert_eq!(wb.queries.len(), 5);
        assert_eq!(wb.truth.len(), 5);
        let algos = build_all(wb.data.clone(), 1.5);
        assert_eq!(algos.len(), 6);
        for algo in &algos {
            let m = wb.run(algo.as_ref(), 10);
            assert!(m.recall >= 0.0 && m.recall <= 1.0, "{}", algo.name());
            assert!(m.overall_ratio >= 1.0, "{}", algo.name());
            assert!(m.avg_query_ms >= 0.0);
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1.00".into()]);
        t.row(vec!["b".into(), "23.50".into()]);
        let s = t.render();
        assert!(s.contains("alpha"));
        assert!(s.lines().count() == 4);
        // numeric column right-aligned
        assert!(s.lines().last().unwrap().ends_with("23.50"));
    }
}
