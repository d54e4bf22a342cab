//! Figs. 10 & 11 — recall–time and ratio–time trade-off curves on the
//! Cifar, Trevi and Deep stand-ins, obtained by varying each algorithm's
//! quality knob (the approximation ratio `c ∈ {1.1, …, 2.0}` for PM-LSH /
//! SRS / QALSH / R-LSH, the probe budget for Multi-Probe, the scanned
//! fraction for LScan).
//!
//! Each dataset's table ends with what it measured, not the paper's claim:
//! for every PM-LSH point, whether another algorithm reaches at least its
//! recall in no more time, and which.
//!
//! ```text
//! cargo run -p pm-lsh-bench --release --bin fig10_11_tradeoff
//! ```

use pm_lsh_baselines::{
    LScan, LScanParams, MultiProbe, MultiProbeParams, Qalsh, QalshParams, RLsh, Srs, SrsParams,
};
use pm_lsh_bench::{f, queries_from_env, scale_from_env, Table, Workbench};
use pm_lsh_core::{PmLsh, PmLshParams, QueryContext};
use pm_lsh_data::{PaperDataset, WorkloadMetrics};

fn main() {
    let scale = scale_from_env();
    let n_queries = queries_from_env();
    let k = 50;
    // The paper sweeps c ∈ {1.1, …, 2.0}; five of those values already
    // trace the curve, and each c costs a full SRS/QALSH/R-LSH rebuild.
    // Set PMLSH_FULL_SWEEP=1 for all ten.
    let cs: Vec<f64> = if std::env::var("PMLSH_FULL_SWEEP").is_ok() {
        (1..=10).map(|i| 1.0 + i as f64 / 10.0).collect()
    } else {
        vec![1.1, 1.25, 1.5, 1.75, 2.0]
    };

    for ds in [PaperDataset::Cifar, PaperDataset::Trevi, PaperDataset::Deep] {
        let wb = Workbench::prepare(ds, scale, n_queries, k);
        eprintln!("fig10/11: {} prepared (n = {})", ds.name(), wb.data.len());
        // (algorithm, knob, metrics) per measured point.
        let mut points: Vec<(&str, String, WorkloadMetrics)> = Vec::new();

        // PM-LSH and R-LSH: one index, vary c per query (the candidate
        // budget re-derives from Eq. 10).
        let pm = PmLsh::build(wb.data.clone(), PmLshParams::default());
        let mut ctx = QueryContext::new();
        let mut found = Vec::new();
        for &c in &cs {
            let mut acc = pm_lsh_data::MetricsAccumulator::new();
            for (qi, q) in wb.queries.iter().enumerate() {
                let start = std::time::Instant::now();
                let stats = pm.query_into(q, k, c, &mut ctx, &mut found);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                acc.record(ms, &found, &wb.truth[qi][..k], stats.candidates_verified);
            }
            let m = acc.finish();
            points.push(("PM-LSH", format!("c={c:.1}"), m));
        }
        for &c in &cs {
            let rlsh = RLsh::build(wb.data.clone(), PmLshParams::default().with_c(c));
            let m = wb.run(&rlsh, k);
            points.push(("R-LSH", format!("c={c:.1}"), m));
        }
        for &c in &cs {
            let srs = Srs::build(
                wb.data.clone(),
                SrsParams {
                    c,
                    ..SrsParams::paper_operating_point()
                },
            );
            let m = wb.run(&srs, k);
            points.push(("SRS", format!("c={c:.1}"), m));
        }
        for &c in &cs {
            let qalsh = Qalsh::build(
                wb.data.clone(),
                QalshParams {
                    c,
                    ..Default::default()
                },
            );
            let m = wb.run(&qalsh, k);
            points.push(("QALSH", format!("c={c:.1}"), m));
        }
        for probes in [8usize, 16, 32, 64, 128, 256, 512] {
            let mp = MultiProbe::build(
                wb.data.clone(),
                MultiProbeParams {
                    probe_budget: probes,
                    ..Default::default()
                },
            );
            let m = wb.run(&mp, k);
            points.push(("Multi-Probe", format!("T={probes}"), m));
        }
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let scan = LScan::build(
                wb.data.clone(),
                LScanParams {
                    fraction: frac,
                    ..Default::default()
                },
            );
            let m = wb.run(&scan, k);
            points.push(("LScan", format!("p={frac:.1}"), m));
        }

        let mut table = Table::new(&["algo", "knob", "time(ms)", "recall", "ratio"]);
        for (algo, knob, m) in &points {
            table.row(vec![
                algo.to_string(),
                knob.clone(),
                f(m.avg_query_ms, 2),
                f(m.recall, 4),
                f(m.overall_ratio, 4),
            ]);
        }
        println!(
            "Figs. 10/11 — quality–time trade-off on {} (k = {k})",
            ds.name()
        );
        println!("{}", table.render());
        println!("measured: does another algorithm reach a PM-LSH point's recall in no more time?");
        for (_, knob, pm) in points.iter().filter(|(algo, ..)| *algo == "PM-LSH") {
            let rival = (points.iter())
                .filter(|(algo, _, m)| {
                    *algo != "PM-LSH" && m.recall >= pm.recall && m.avg_query_ms <= pm.avg_query_ms
                })
                .min_by(|a, b| a.2.avg_query_ms.total_cmp(&b.2.avg_query_ms));
            let verdict = match rival {
                Some((algo, knob, m)) => format!(
                    "yes, {algo} {knob} ({} ms, recall {})",
                    f(m.avg_query_ms, 2),
                    f(m.recall, 4)
                ),
                None => "no".to_string(),
            };
            println!(
                "  PM-LSH {knob} ({} ms, recall {}): {verdict}",
                f(pm.avg_query_ms, 2),
                f(pm.recall, 4)
            );
        }
    }
}
