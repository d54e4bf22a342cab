//! Table 4 — performance overview: query time, overall ratio and recall of
//! all six algorithms on all seven datasets at the default setting
//! `k = 50, c = 1.5`.
//!
//! ```text
//! cargo run -p pm-lsh-bench --release --bin table4_overview
//! ```

use pm_lsh_bench::{build_all, f, queries_from_env, scale_from_env, Table, Workbench};
use pm_lsh_data::PaperDataset;

fn main() {
    let scale = scale_from_env();
    let n_queries = queries_from_env();
    let k = 50;
    let c = 1.5;

    let mut leaders = Vec::new();
    let mut table = Table::new(&[
        "Dataset",
        "Metric",
        "PM-LSH",
        "SRS",
        "QALSH",
        "Multi-Probe",
        "R-LSH",
        "LScan",
    ]);

    for ds in PaperDataset::ALL {
        let wb = Workbench::prepare(ds, scale, n_queries, k);
        eprintln!("table4: {} prepared (n = {})", ds.name(), wb.data.len());
        let algos = build_all(wb.data.clone(), c);
        let metrics: Vec<_> = algos
            .iter()
            .map(|a| {
                let m = wb.run(a.as_ref(), k);
                eprintln!(
                    "  {:<12} {:>8.2} ms  ratio {:.4}  recall {:.4}",
                    a.name(),
                    m.avg_query_ms,
                    m.overall_ratio,
                    m.recall
                );
                m
            })
            .collect();

        let names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
        let times: Vec<f64> = metrics.iter().map(|m| m.avg_query_ms).collect();
        let recalls: Vec<f64> = metrics.iter().map(|m| m.recall).collect();
        leaders.push((
            ds.name(),
            best(&names, &times, f64::min),
            best(&names, &recalls, f64::max),
        ));

        table.row(
            std::iter::once(ds.name().to_string())
                .chain(std::iter::once("Time (ms)".to_string()))
                .chain(metrics.iter().map(|m| f(m.avg_query_ms, 2)))
                .collect(),
        );
        table.row(
            std::iter::once(String::new())
                .chain(std::iter::once("Overall Ratio".to_string()))
                .chain(metrics.iter().map(|m| f(m.overall_ratio, 4)))
                .collect(),
        );
        table.row(
            std::iter::once(String::new())
                .chain(std::iter::once("Recall".to_string()))
                .chain(metrics.iter().map(|m| f(m.recall, 4)))
                .collect(),
        );
    }

    println!("Table 4 — performance overview (k = 50, c = 1.5, m = 15)");
    println!("{}", table.render());
    println!("measured ordering:");
    for (dataset, fastest, most_accurate) in leaders {
        println!("  {dataset}: fastest {fastest}; highest recall {most_accurate}");
    }
}

/// The algorithms whose value `pick` selects from the row, joined: all of
/// them on a tie.
fn best(names: &[&str], values: &[f64], pick: fn(f64, f64) -> f64) -> String {
    let chosen = values.iter().copied().reduce(pick);
    (names.iter().zip(values))
        .filter(|&(_, &v)| Some(v) == chosen)
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(" = ")
}
