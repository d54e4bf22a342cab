//! Microbenchmarks of the substrates: distance kernels, χ² quantiles, tree
//! construction and traversal primitives. These back the engineering claims
//! (unrolled kernels, lazy lower bounds) rather than a specific paper
//! artifact.
//!
//! The kernels run at every level this CPU can run, through
//! `simd::kernels` (the dispatchers the served path runs): `sq_dist` at
//! the projected space's m = 15 and at the datasets' d = 192 … 4096, and
//! `sq_dist_blocks` over a 12 000 × 15 column in blocks of eight rows, the
//! served sweep's kernel and shape. Before it is timed, each level's block
//! kernel is asserted bit-equal, row by row, to the scalar `sq_dist` on
//! that column.

use pm_lsh_bench::micro::{BenchmarkId, Criterion, Throughput};
use pm_lsh_bptree::BPlusTree;
use pm_lsh_metric::simd::kernels;
use pm_lsh_metric::{SimdLevel, BLOCK_ROWS};
use pm_lsh_pmtree::{PmTree, PmTreeConfig};
use pm_lsh_rtree::{RTree, RTreeConfig};
use pm_lsh_stats::{chi2_quantile, Rng};
use std::hint::black_box;
use std::time::Duration;

fn random_matrix(n: usize, d: usize, seed: u64) -> pm_lsh_metric::Dataset {
    let mut rng = Rng::new(seed);
    let mut ds = pm_lsh_metric::Dataset::with_capacity(d, n);
    let mut buf = vec![0.0f32; d];
    for _ in 0..n {
        rng.fill_normal(&mut buf);
        ds.push(&buf);
    }
    ds
}

fn bench_kernels(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("kernels");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));
    let levels: Vec<SimdLevel> = [
        SimdLevel::Scalar,
        SimdLevel::Sse2,
        SimdLevel::Avx2Fma,
        SimdLevel::Neon,
    ]
    .into_iter()
    .filter(|level| level.is_available())
    .collect();

    for d in [15usize, 192, 960, 4096] {
        let m = random_matrix(2, d, 1);
        group.throughput(Throughput::Elements(d as u64));
        for &level in &levels {
            let id = BenchmarkId::new(format!("sq_dist/{d}"), level);
            group.bench_function(id, |bencher| {
                bencher
                    .iter(|| kernels::sq_dist(level, black_box(m.point(0)), black_box(m.point(1))));
            });
        }
    }

    // The sweep's column: row r, coordinate j at (r / 8)·8m + 8j + r % 8.
    let (n, m) = (12_000, 15);
    let rows = random_matrix(n, m, 5);
    let mut column = vec![f32::NAN; n.div_ceil(BLOCK_ROWS) * BLOCK_ROWS * m];
    for (r, row) in rows.iter().enumerate() {
        for (j, &x) in row.iter().enumerate() {
            column[r / BLOCK_ROWS * BLOCK_ROWS * m + BLOCK_ROWS * j + r % BLOCK_ROWS] = x;
        }
    }
    let q = random_matrix(1, m, 6);
    let want: Vec<u32> = (rows.iter())
        .map(|row| kernels::sq_dist(SimdLevel::Scalar, q.point(0), row).to_bits())
        .collect();
    group.throughput(Throughput::Elements(n as u64));
    for &level in &levels {
        let mut got = Vec::with_capacity(column.len() / m);
        kernels::sq_dist_blocks(level, q.point(0), &column, |sq| {
            got.extend(sq.map(f32::to_bits))
        });
        assert_eq!(
            got[..n],
            want[..],
            "{level}: the block kernel is not the scalar kernel"
        );
        let id = BenchmarkId::new("sq_dist_blocks/12000x15", level);
        group.bench_function(id, |bencher| {
            bencher.iter(|| {
                let mut sum = 0.0f32;
                kernels::sq_dist_blocks(level, q.point(0), black_box(&column), |sq| {
                    sum += sq.iter().sum::<f32>()
                });
                sum
            });
        });
    }
    group.finish();
}

fn bench_substrates(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("substrates");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    // χ² quantile (the Eq. 10 derivation path)
    group.bench_function("chi2_quantile_m15", |bencher| {
        bencher.iter(|| black_box(chi2_quantile(black_box(0.6321), 15)));
    });

    // index construction over 2k projected points
    let projected = random_matrix(2000, 15, 2);
    group.bench_function("pmtree_build_2k", |bencher| {
        bencher.iter(|| {
            let mut rng = Rng::new(3);
            black_box(PmTree::build(
                projected.view(),
                PmTreeConfig::default(),
                &mut rng,
            ))
        });
    });
    group.bench_function("rtree_build_2k", |bencher| {
        bencher.iter(|| black_box(RTree::build(projected.view(), RTreeConfig::default())));
    });
    group.bench_function("bptree_bulk_load_2k", |bencher| {
        let mut pairs: Vec<(f32, u32)> = projected
            .iter()
            .enumerate()
            .map(|(i, p)| (p[0], i as u32))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        bencher.iter(|| black_box(BPlusTree::bulk_load(black_box(&pairs))));
    });

    // incremental NN traversal
    let mut rng = Rng::new(4);
    let pm = PmTree::build(projected.view(), PmTreeConfig::default(), &mut rng);
    let rt = RTree::build(projected.view(), RTreeConfig::default());
    let q: Vec<f32> = projected.point(7).to_vec();
    group.bench_function("pmtree_knn50", |bencher| {
        bencher.iter(|| black_box(pm.knn(black_box(&q), 50)));
    });
    group.bench_function("rtree_knn50", |bencher| {
        bencher.iter(|| black_box(rt.knn(black_box(&q), 50)));
    });

    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_kernels(&mut criterion);
    bench_substrates(&mut criterion);
}
