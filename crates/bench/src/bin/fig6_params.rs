//! Fig. 6 — PM-LSH parameter study on the Trevi stand-in: query time when
//! varying the number of pivots `s` (a), and time / recall / overall ratio
//! when varying the number of hash functions `m` (b–d). `k = 50, c = 1.5`.
//!
//! Panel (a) reads flat in `s`: PM-LSH's queries take their candidates
//! from one sweep over the tree's projected point column, which measures
//! no pivot distance, filters on none and reads no leaf entry, so `s`
//! does not enter a query's cost. The pivots' effect on the
//! PM-tree's own range query is measured by `benches/ablation.rs`
//! (`s = 0` vs `5` on `PmTree::range`).
//!
//! ```text
//! cargo run -p pm-lsh-bench --release --bin fig6_params
//! ```

use pm_lsh_bench::{f, queries_from_env, scale_from_env, Table, Workbench};

use pm_lsh_core::{PmLsh, PmLshParams};
use pm_lsh_data::PaperDataset;
use pm_lsh_pmtree::PmTreeConfig;

fn main() {
    let scale = scale_from_env();
    let n_queries = queries_from_env();
    let k = 50;
    let wb = Workbench::prepare(PaperDataset::Trevi, scale, n_queries, k);
    eprintln!(
        "fig6: Trevi stand-in, n = {}, {} queries",
        wb.data.len(),
        n_queries
    );

    // (a) vary the number of pivots s — the sweep filters on none of them.
    let mut ta = Table::new(&["s", "time(ms)", "recall", "ratio"]);
    for s in 0..=9usize {
        let params = PmLshParams {
            tree: PmTreeConfig {
                num_pivots: s,
                ..Default::default()
            },
            ..PmLshParams::paper_defaults()
        };
        let index = PmLsh::build(wb.data.clone(), params);
        let m = wb.run(&index, k);
        ta.row(vec![
            s.to_string(),
            f(m.avg_query_ms, 2),
            f(m.recall, 4),
            f(m.overall_ratio, 4),
        ]);
    }
    println!("Fig. 6(a) — varying the number of pivots s (m = 15)");
    println!("{}", ta.render());

    // (b–d) vary the number of hash functions m.
    let mut tb = Table::new(&["m", "time(ms)", "recall", "ratio"]);
    for m_hash in [1u32, 5, 10, 15, 20, 25] {
        let params = PmLshParams {
            m: m_hash,
            ..PmLshParams::paper_defaults()
        };
        let index = PmLsh::build(wb.data.clone(), params);
        let m = wb.run(&index, k);
        tb.row(vec![
            m_hash.to_string(),
            f(m.avg_query_ms, 2),
            f(m.recall, 4),
            f(m.overall_ratio, 4),
        ]);
    }
    println!("Fig. 6(b–d) — varying the number of hash functions m (s = 5)");
    println!("{}", tb.render());
    println!("(paper: quality improves and time grows with m; s has little effect; defaults m = 15, s = 5)");
}
