//! Cross-level property tests for the SIMD kernels.
//!
//! Every test runs each kernel level this CPU can run through
//! `simd::kernels`, which hands the level to the same dispatcher the
//! public entry points run: the arms tested are the arms production
//! dispatches (NEON's on an aarch64 runner, AVX2+FMA's on a CPU that has
//! it). Pins the numerical contract of `pm_lsh_metric::simd`:
//!
//! * scalar, SSE2 and NEON are **bit-identical**,
//! * AVX2+FMA agrees with scalar within a relative tolerance,
//! * the public entry points are the active level's kernels,
//! * the block kernel (`sq_dist_blocks`) is bit-identical, row by row, to
//!   the **scalar** full kernel at every level — also on rows holding NaN
//!   and on a tail block the rows do not fill,
//! * every `sq_dist_within` returns the exact full kernel value of its
//!   level whenever it does not abandon, lands on the same side of the
//!   bound as the full kernel, and treats a partial sum *equal* to the
//!   bound as "keep going" (strict-inequality abandonment),
//! * every row-verification kernel (`sq_dist_rows_within`) keeps and
//!   abandons exactly the rows its level's `sq_dist_within` would against
//!   the bound in force, hands each kept row on with the full kernel's
//!   value, and follows a bound that moves during the walk — over a row
//!   store that is all base (the flat walk) and over the same rows as a
//!   base and a tail of chunks, the last one partial.
//!
//! Lengths cover every remainder branch of the 4- and 8-lane loops plus
//! the paper's real dimensionalities (Audio-ish 100/960 and Trevi's 4096).

use pm_lsh_metric::simd::{self, kernels};
use pm_lsh_metric::{
    dot, sq_dist, sq_dist_blocks, sq_dist_rows_within, sq_dist_within, Dataset, PointId, RowStore,
    SimdLevel, BLOCK_ROWS, CHUNK_ROWS,
};
use proptest::prelude::*;

const DIMS: &[usize] = &[1, 2, 3, 4, 7, 8, 15, 16, 33, 100, 960, 4096];

/// Every kernel level this CPU can run.
fn runnable_levels() -> impl Iterator<Item = SimdLevel> {
    [
        SimdLevel::Scalar,
        SimdLevel::Sse2,
        SimdLevel::Avx2Fma,
        SimdLevel::Neon,
    ]
    .into_iter()
    .filter(|level| level.is_available())
}

/// Deterministic splitmix64-based vector fill, so each proptest case only
/// has to draw a seed (the shim cannot generate 4096-long vectors per dim
/// without dependent strategies for every entry of `DIMS`).
fn fill(mut state: u64, len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (((z >> 40) as f32) / ((1u64 << 24) as f32) * 2.0 - 1.0) * scale
        })
        .collect()
}

#[test]
fn levels_this_cpu_runs() {
    assert!(SimdLevel::Scalar.is_available());
    assert_eq!(SimdLevel::Sse2.is_available(), cfg!(target_arch = "x86_64"));
    assert_eq!(
        SimdLevel::Neon.is_available(),
        cfg!(target_arch = "aarch64")
    );
    assert!(simd::active_level().is_available());
}

#[test]
#[should_panic(expected = "cannot run on this CPU")]
fn kernels_refuse_a_level_this_cpu_cannot_run() {
    // Every target lacks SSE2 or NEON.
    let level = [SimdLevel::Sse2, SimdLevel::Neon]
        .into_iter()
        .find(|level| !level.is_available())
        .expect("no target has both SSE2 and NEON");
    kernels::sq_dist(level, &[1.0], &[2.0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn implementations_agree_across_lengths(
        seed in 0u64..u64::MAX,
        scale in 0.1f32..50.0,
    ) {
        for (di, &d) in DIMS.iter().enumerate() {
            let a = fill(seed ^ ((di as u64) << 1), d, scale);
            let b = fill(seed ^ (((di as u64) << 1) | 1), d, scale);
            let sq_scalar = kernels::sq_dist(SimdLevel::Scalar, &a, &b);
            let dot_scalar = kernels::dot(SimdLevel::Scalar, &a, &b);
            // dot has cancellation, so tolerate relative-to-magnitude.
            let mag: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();

            for level in runnable_levels() {
                let sq = kernels::sq_dist(level, &a, &b);
                let dot = kernels::dot(level, &a, &b);
                if level == SimdLevel::Avx2Fma {
                    // AVX2+FMA only promises tolerance (8 lanes + fused
                    // rounding).
                    let sq_tol = 1e-5f32 * sq_scalar.abs().max(1.0);
                    prop_assert!(
                        (sq - sq_scalar).abs() <= sq_tol,
                        "{} sq_dist {} vs scalar {} at d={}", level, sq, sq_scalar, d
                    );
                    prop_assert!(
                        (dot - dot_scalar).abs() <= 1e-5f32 * mag.max(1.0),
                        "{} dot {} vs scalar {} at d={}", level, dot, dot_scalar, d
                    );
                } else {
                    // Scalar, SSE2 and NEON promise bit-identical results.
                    prop_assert_eq!(
                        sq.to_bits(), sq_scalar.to_bits(),
                        "{} sq_dist diverged from scalar at d={}", level, d
                    );
                    prop_assert_eq!(
                        dot.to_bits(), dot_scalar.to_bits(),
                        "{} dot diverged from scalar at d={}", level, d
                    );
                }
            }

            // The public entry points run the active level's kernels, and
            // a disabled bound is exactly the full kernel.
            let active = simd::active_level();
            prop_assert_eq!(
                sq_dist(&a, &b).to_bits(),
                kernels::sq_dist(active, &a, &b).to_bits(),
                "sq_dist is not the {} kernel at d={}", active, d
            );
            prop_assert_eq!(
                dot(&a, &b).to_bits(),
                kernels::dot(active, &a, &b).to_bits(),
                "dot is not the {} kernel at d={}", active, d
            );
            prop_assert_eq!(
                sq_dist_within(&a, &b, f32::INFINITY).to_bits(),
                sq_dist(&a, &b).to_bits(),
                "within(INF) != full at d={}", d
            );
        }
    }

    #[test]
    fn early_abandon_contract_holds(
        seed in 0u64..u64::MAX,
        frac in 0.0f64..1.3,
    ) {
        for (di, &d) in DIMS.iter().enumerate() {
            let a = fill(seed ^ ((di as u64) << 8), d, 4.0);
            let b = fill(seed ^ (((di as u64) << 8) | 7), d, 4.0);

            // Each level is checked against ITS OWN full value (AVX2's
            // full value differs from scalar's in the last ulps).
            for level in runnable_levels() {
                let full = kernels::sq_dist(level, &a, &b);
                let bound = (full as f64 * frac) as f32;
                let got = kernels::sq_dist_within(level, &a, &b, bound);
                // Same side of the bound as the full kernel...
                prop_assert_eq!(
                    got > bound,
                    full > bound,
                    "{}: within={} full={} bound={} d={}", level, got, full, bound, d
                );
                // ...and bit-exact whenever the candidate is kept.
                if got <= bound {
                    prop_assert_eq!(
                        got.to_bits(), full.to_bits(),
                        "{}: kept value not exact at d={}", level, d
                    );
                }
                // Strict inequality at the boundary: a bound exactly equal
                // to the full distance must NOT abandon (every partial sum
                // is <= full, so none strictly exceeds the bound).
                let at_boundary = kernels::sq_dist_within(level, &a, &b, full);
                prop_assert_eq!(
                    at_boundary.to_bits(), full.to_bits(),
                    "{}: abandoned at an exactly-equal bound, d={}", level, d
                );
            }

            // The public entry point is the active level's kernel.
            let active = simd::active_level();
            let bound = (sq_dist(&a, &b) as f64 * frac) as f32;
            prop_assert_eq!(
                sq_dist_within(&a, &b, bound).to_bits(),
                kernels::sq_dist_within(active, &a, &b, bound).to_bits(),
                "sq_dist_within is not the {} kernel at d={}", active, d
            );
        }
    }
}

/// The strict-abandonment boundary with the partial sum pinned mid-vector:
/// all mass sits in the first 4-lane block, so every intermediate check
/// sees `partial == bound` and must keep accumulating the zero tail.
#[test]
fn partial_sum_equal_to_bound_does_not_abandon() {
    for &d in &[17usize, 33, 100, 960] {
        let mut a = vec![0.0f32; d];
        let b = vec![0.0f32; d];
        a[0] = 3.0;
        a[1] = 4.0;
        assert_eq!(sq_dist(&a, &b), 25.0); // reached by element 2
        assert_eq!(sq_dist_within(&a, &b, 25.0), 25.0, "d={d}");
        // One ulp below the mass: must abandon (or at least report > bound).
        let below = 25.0f32.next_down();
        for level in runnable_levels() {
            assert_eq!(kernels::sq_dist(level, &a, &b), 25.0, "{level}: d={d}");
            assert_eq!(
                kernels::sq_dist_within(level, &a, &b, 25.0),
                25.0,
                "{level}: d={d}"
            );
            assert!(
                kernels::sq_dist_within(level, &a, &b, below) > below,
                "{level}: d={d}"
            );
        }
    }
}

/// `rows` (row-major, `m` floats each) as a blocked column: row `r`'s
/// coordinate `j` at `(r / 8)·8m + 8j + r % 8`, the tail block's free
/// lanes NaN.
fn blocked(rows: &[f32], m: usize) -> Vec<f32> {
    let n = rows.len() / m;
    let mut column = vec![f32::NAN; n.div_ceil(BLOCK_ROWS) * BLOCK_ROWS * m];
    for (r, row) in rows.chunks_exact(m).enumerate() {
        let base = (r / BLOCK_ROWS) * BLOCK_ROWS * m + r % BLOCK_ROWS;
        for (j, &x) in row.iter().enumerate() {
            column[base + BLOCK_ROWS * j] = x;
        }
    }
    column
}

/// A block kernel's values against the scalar one-row kernel, over
/// m ∈ 1..=33, 64 and 100 and row counts on both sides of a block
/// boundary: bit for bit, or NaN for NaN (a NaN's payload is not part of
/// the contract). Every tail lane past the last row must come back NaN.
fn assert_blocks_match(level: &str, blocks_fn: impl Fn(&[f32], &[f32], &mut dyn FnMut([f32; 8]))) {
    for m in (1..=33usize).chain([64, 100]) {
        let q = fill(m as u64, m, 3.0);
        for count in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 23] {
            let mut rows = fill(((m as u64) << 8) | count as u64, m * count, 3.0);
            // Some rows carry a NaN, at a spread of positions.
            for r in (0..count).filter(|r| r % 3 == 1) {
                rows[r * m + (r * 7) % m] = f32::NAN;
            }
            let mut got = Vec::new();
            blocks_fn(&q, &blocked(&rows, m), &mut |sq| got.extend(sq));
            assert_eq!(
                got.len(),
                count.div_ceil(8) * 8,
                "{level}: m = {m}, {count} rows"
            );
            for (r, (&got, row)) in got.iter().zip(rows.chunks_exact(m)).enumerate() {
                let want = kernels::sq_dist(SimdLevel::Scalar, row, &q);
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{level}: m = {m}, row {r} of {count}: {got} vs {want}"
                );
                assert_eq!(got.is_nan(), r % 3 == 1, "{level}: m = {m}, row {r}");
            }
            assert!(
                got[count..].iter().all(|d| d.is_nan()),
                "{level}: m = {m}, tail lanes"
            );
        }
    }
}

#[test]
fn block_kernel_is_the_scalar_kernel_row_by_row() {
    for level in runnable_levels() {
        assert_blocks_match(&level.to_string(), |q, blocks, each| {
            kernels::sq_dist_blocks(level, q, blocks, each)
        });
    }
    assert_blocks_match("public", |q, blocks, each| sq_dist_blocks(q, blocks, each));
}

/// Whether this process runs under `PMLSH_FORCE_SCALAR=1`, which must pin
/// the scalar level. The level is fixed at a process's first distance
/// call, so unless this process was started with the variable (as the
/// scalar CI job starts the whole suite), the test `name` re-runs itself
/// in a child process that is, must pass there, and has nothing left to
/// check here.
fn under_forced_scalar(name: &str) -> bool {
    if std::env::var("PMLSH_FORCE_SCALAR").as_deref() == Ok("1") {
        assert_eq!(simd::active_level(), SimdLevel::Scalar);
        return true;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", name, "--test-threads", "1"])
        .env("PMLSH_FORCE_SCALAR", "1")
        .output()
        .expect("re-run under PMLSH_FORCE_SCALAR=1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 passed"), "{stdout}");
    false
}

/// Under `PMLSH_FORCE_SCALAR=1` the public block kernel is the scalar
/// level's, and still the scalar one-row kernel row by row.
#[test]
fn block_kernel_under_forced_scalar() {
    if under_forced_scalar("block_kernel_under_forced_scalar") {
        assert_blocks_match("forced scalar", |q, blocks, each| {
            sq_dist_blocks(q, blocks, each)
        });
    }
}

#[test]
#[should_panic(expected = "not whole blocks")]
fn block_kernel_rejects_a_partial_block() {
    // Seven rows of 2 are not a block of eight.
    sq_dist_blocks(&[1.0, 2.0], &[0.5; 14], |_| {});
}

/// What one walk did: every `(id, sq bits)` handed to `keep`, in order.
/// `keep` moves the bound to the third smallest kept squared distance so
/// far (∞ until three are kept), so the bound changes during the walk.
fn record(walk: impl FnOnce(&mut dyn FnMut(PointId, f32) -> f32)) -> Vec<(PointId, u32)> {
    let (mut kept, mut best) = (Vec::new(), Vec::new());
    walk(&mut |id, sq| {
        kept.push((id, sq.to_bits()));
        best.push(sq);
        best.sort_by(f32::total_cmp);
        best.truncate(3);
        if best.len() == 3 {
            best[2]
        } else {
            f32::INFINITY
        }
    });
    kept
}

/// Checks `walk` against its level's `within` and `full` kernels: row
/// lengths below, at and above the eight 64-byte lines a walk reads ahead
/// (128 floats), walks from empty to longer than the store with repeated
/// ids, rows holding NaN, and start bounds from ∞ to below every distance.
/// Each walk runs twice: over a store whose rows are all base (the flat
/// walk), and over the same rows as a base of 5 and a tail of two full
/// chunks and a partial one; both must keep what `within` keeps.
fn assert_walk_matches(
    level: &str,
    walk: impl Fn(&[f32], &RowStore, &[PointId], f32, &mut dyn FnMut(PointId, f32) -> f32),
    within: impl Fn(&[f32], &[f32], f32) -> f32,
    full: impl Fn(&[f32], &[f32]) -> f32,
) {
    let mut checked_abandons = 0;
    for m in [1usize, 5, 16, 100, 127, 128, 129, 192, 300, 1000] {
        let q = fill(m as u64, m, 3.0);
        let (base_rows, count) = (5usize, 5 + 2 * CHUNK_ROWS + 9);
        let mut rows = fill((m as u64) << 8, m * count, 3.0);
        rows[5 * m + m / 2] = f32::NAN;
        let flat = RowStore::from(Dataset::from_flat(rows.clone(), m));
        let mut split = RowStore::from(Dataset::from_flat(rows[..base_rows * m].to_vec(), m));
        for row in rows.chunks_exact(m).skip(base_rows) {
            split.push(row);
        }
        let mut fulls: Vec<f32> = rows.chunks_exact(m).map(|row| full(&q, row)).collect();
        fulls.sort_by(f32::total_cmp);
        for len in [0usize, 1, 2, 3, 7, 24, 40, count + 20] {
            // A scattered walk: row 5 (NaN) is named, some rows twice.
            let ids: Vec<PointId> = (0..len).map(|i| ((i * 7 + 3) % count) as PointId).collect();
            for start in [f32::INFINITY, fulls[count / 2], fulls[0] * 0.5, 0.0] {
                let what = format!("{level}: m = {m}, {len} ids, start bound {start}");
                // The same walk, one `within` call per row.
                let want = record(|keep| {
                    let mut bound = start;
                    for &id in &ids {
                        let row = &rows[id as usize * m..][..m];
                        let sq = within(&q, row, bound);
                        if sq <= bound {
                            bound = keep(id, sq);
                        } else {
                            checked_abandons += 1;
                        }
                    }
                });
                for (store, how) in [(&flat, "flat"), (&split, "base + tail")] {
                    let got = record(|keep| walk(&q, store, &ids, start, keep));
                    assert_eq!(got, want, "{what}, {how}");
                    for &(id, bits) in &got {
                        let row = &rows[id as usize * m..][..m];
                        assert_eq!(bits, full(&q, row).to_bits(), "{what}: row {id}");
                    }
                }
            }
        }
    }
    assert!(
        checked_abandons > 1000,
        "{level}: {checked_abandons} abandons"
    );
}

#[test]
fn row_verification_keeps_and_abandons_as_within_does() {
    for level in runnable_levels() {
        assert_walk_matches(
            &level.to_string(),
            |q, rows, ids, bound, keep| {
                kernels::sq_dist_rows_within(level, q, rows, ids.iter().copied(), bound, keep)
            },
            |a, b, bound| kernels::sq_dist_within(level, a, b, bound),
            |a, b| kernels::sq_dist(level, a, b),
        );
    }
    assert_walk_matches(
        "public",
        |q, rows, ids, bound, keep| sq_dist_rows_within(q, rows, ids.iter().copied(), bound, keep),
        sq_dist_within,
        sq_dist,
    );
}

/// Under `PMLSH_FORCE_SCALAR=1` the public row walk keeps and abandons as
/// the scalar level's `sq_dist_within` does.
#[test]
fn row_verification_under_forced_scalar() {
    if under_forced_scalar("row_verification_under_forced_scalar") {
        assert_walk_matches(
            "forced scalar",
            |q, rows, ids, bound, keep| {
                sq_dist_rows_within(q, rows, ids.iter().copied(), bound, keep)
            },
            |a, b, bound| kernels::sq_dist_within(SimdLevel::Scalar, a, b, bound),
            |a, b| kernels::sq_dist(SimdLevel::Scalar, a, b),
        );
    }
}

#[test]
#[should_panic(expected = "not whole rows")]
fn row_verification_rejects_a_partial_row() {
    // Rows of 3 are not whole rows of a 2-float query.
    let rows = RowStore::from(Dataset::from_flat(vec![1.0, 2.0, 3.0], 3));
    sq_dist_rows_within(&[1.0, 2.0], &rows, [0], f32::INFINITY, |_, sq| sq);
}

#[test]
#[should_panic]
fn row_verification_rejects_an_id_past_the_store() {
    let mut rows = RowStore::from(Dataset::from_flat(vec![1.0, 2.0], 2));
    rows.push(&[3.0, 4.0]);
    sq_dist_rows_within(&[1.0, 2.0], &rows, [2], f32::INFINITY, |_, sq| sq);
}
