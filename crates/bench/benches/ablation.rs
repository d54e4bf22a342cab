//! Ablation benches for the two design choices of the PM-tree layer that
//! still have an alternative to measure against:
//!
//! * **Pivot count s = 0 (plain M-tree) vs s = 5 (PM-tree)** — the paper's
//!   headline structural claim (Table 2 / Fig. 6a).
//! * **Incremental cursor vs restarted range queries** for Algorithm 2's
//!   radius enlargement — why PM-LSH's "combination of RE and MI" wins.

use pm_lsh_bench::micro::Criterion;
use pm_lsh_data::{PaperDataset, Scale};
use pm_lsh_hash::GaussianProjector;
use pm_lsh_pmtree::{PmTree, PmTreeConfig};
use pm_lsh_stats::{distance_distribution, Rng};
use std::hint::black_box;
use std::time::Duration;

fn bench_ablation(criterion: &mut Criterion) {
    let generator = PaperDataset::Cifar.generator(Scale::Smoke);
    let data = generator.dataset();
    let queries = generator.queries(8);
    let mut rng = Rng::new(77);
    let projector = GaussianProjector::new(data.dim(), 15, &mut rng);
    let projected = projector.project_all(data.view());
    let proj_queries = projector.project_all(queries.view());
    let f = distance_distribution(projected.view(), 20_000, &mut rng);
    let rq = f.quantile(0.08) as f32;

    let pm5 = PmTree::build(projected.view(), PmTreeConfig::default(), &mut rng);
    let pm0 = PmTree::build(
        projected.view(),
        PmTreeConfig {
            num_pivots: 0,
            ..Default::default()
        },
        &mut rng,
    );

    let mut group = criterion.benchmark_group("ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    group.bench_function("pivots_s5", |bencher| {
        let mut qi = 0usize;
        bencher.iter(|| {
            let q = proj_queries.point(qi % proj_queries.len());
            qi += 1;
            black_box(pm5.range(black_box(q), rq))
        });
    });
    group.bench_function("pivots_s0_mtree", |bencher| {
        let mut qi = 0usize;
        bencher.iter(|| {
            let q = proj_queries.point(qi % proj_queries.len());
            qi += 1;
            black_box(pm0.range(black_box(q), rq))
        });
    });

    // Radius enlargement: one surviving cursor vs restarting a range query
    // per round (what a naive RE implementation does).
    let radii: Vec<f32> = (0..4).map(|i| rq * 0.4 * 1.5f32.powi(i)).collect();
    group.bench_function("enlarge_incremental", |bencher| {
        let mut qi = 0usize;
        bencher.iter(|| {
            let q = proj_queries.point(qi % proj_queries.len());
            qi += 1;
            let mut cur = pm5.cursor(black_box(q));
            let mut count = 0u32;
            for &r in &radii {
                while cur.next_within(r).is_some() {
                    count += 1;
                }
            }
            black_box(count)
        });
    });
    group.bench_function("enlarge_restarting", |bencher| {
        let mut qi = 0usize;
        bencher.iter(|| {
            let q = proj_queries.point(qi % proj_queries.len());
            qi += 1;
            let mut count = 0u32;
            for &r in &radii {
                count += pm5.range(black_box(q), r).len() as u32;
            }
            black_box(count)
        });
    });

    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_ablation(&mut criterion);
}
