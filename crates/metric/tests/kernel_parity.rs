//! Cross-implementation property tests for the SIMD kernel matrix.
//!
//! Pins the numerical contract of `pm_lsh_metric::simd`:
//!
//! * scalar and SSE2 (and NEON, on aarch64 hardware) are **bit-identical**,
//! * AVX2+FMA agrees with scalar within a relative tolerance,
//! * every row kernel (`sq_dist_rows`) is bit-identical, row by row, to
//!   the full kernel of its own level — also on rows holding NaN,
//! * every `sq_dist_within` variant returns the exact full kernel value
//!   whenever it does not abandon, lands on the same side of the bound as
//!   the full kernel, and treats a partial sum *equal* to the bound as
//!   "keep going" (strict-inequality abandonment),
//! * every row-verification kernel (`sq_dist_rows_within`) keeps and
//!   abandons exactly the rows its level's `sq_dist_within` would against
//!   the bound in force, hands each kept row on with the full kernel's
//!   value, and follows a bound that moves during the walk.
//!
//! Lengths cover every remainder branch of the 4- and 8-lane loops plus
//! the paper's real dimensionalities (Audio-ish 100/960 and Trevi's 4096).

use pm_lsh_metric::simd::{self, kernels};
use pm_lsh_metric::{
    dot, sq_dist, sq_dist_rows, sq_dist_rows_within, sq_dist_within, PointId, SimdLevel,
};
use proptest::prelude::*;

const DIMS: &[usize] = &[1, 2, 3, 4, 7, 8, 15, 16, 33, 100, 960, 4096];

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
            let sq_scalar = kernels::sq_dist_scalar(&a, &b);
            let dot_scalar = kernels::dot_scalar(&a, &b);

            #[cfg(target_arch = "x86_64")]
            {
                // SSE2 promises bit-identical results to scalar.
                prop_assert_eq!(
                    kernels::sq_dist_sse2(&a, &b).to_bits(),
                    sq_scalar.to_bits(),
                    "sse2 sq_dist diverged from scalar at d={}", d
                );
                prop_assert_eq!(
                    kernels::dot_sse2(&a, &b).to_bits(),
                    dot_scalar.to_bits(),
                    "sse2 dot diverged from scalar at d={}", d
                );
                // AVX2+FMA only promises tolerance (8 lanes + fused rounding).
                if simd::avx2_fma_available() {
                    let sq_avx = kernels::sq_dist_avx2(&a, &b);
                    let sq_tol = 1e-5f32 * sq_scalar.abs().max(1.0);
                    prop_assert!(
                        (sq_avx - sq_scalar).abs() <= sq_tol,
                        "avx2 sq_dist {} vs scalar {} at d={}", sq_avx, sq_scalar, d
                    );
                    let dot_avx = kernels::dot_avx2(&a, &b);
                    // dot has cancellation, so tolerate relative-to-magnitude.
                    let mag: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
                    let dot_tol = 1e-5f32 * mag.max(1.0);
                    prop_assert!(
                        (dot_avx - dot_scalar).abs() <= dot_tol,
                        "avx2 dot {} vs scalar {} at d={}", dot_avx, dot_scalar, d
                    );
                }
            }

            // The dispatched entry points agree with themselves: a disabled
            // bound is exactly the full kernel, whatever level is active.
            prop_assert_eq!(
                sq_dist_within(&a, &b, f32::INFINITY).to_bits(),
                sq_dist(&a, &b).to_bits(),
                "within(INF) != full at d={}", d
            );
            // And dot/sq_dist stay within tolerance of scalar end to end.
            let sq_fast = sq_dist(&a, &b);
            prop_assert!(
                (sq_fast - sq_scalar).abs() <= 1e-5f32 * sq_scalar.abs().max(1.0)
            );
            let dot_fast = dot(&a, &b);
            let mag: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            prop_assert!((dot_fast - dot_scalar).abs() <= 1e-5f32 * mag.max(1.0));
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

            // Each implementation is checked against ITS OWN full value
            // (AVX2's full value differs from scalar's in the last ulps).
            type Pair = (fn(&[f32], &[f32]) -> f32, fn(&[f32], &[f32], f32) -> f32);
            let mut impls: Vec<(&str, Pair)> = vec![
                ("scalar", (kernels::sq_dist_scalar, kernels::sq_dist_within_scalar)),
                ("dispatch", (sq_dist, sq_dist_within)),
            ];
            #[cfg(target_arch = "x86_64")]
            {
                impls.push(("sse2", (kernels::sq_dist_sse2, kernels::sq_dist_within_sse2)));
                if simd::avx2_fma_available() {
                    impls.push(("avx2", (kernels::sq_dist_avx2, kernels::sq_dist_within_avx2)));
                }
            }

            for (name, (full_fn, within_fn)) in impls {
                let full = full_fn(&a, &b);
                let bound = (full as f64 * frac) as f32;
                let got = within_fn(&a, &b, bound);
                // Same side of the bound as the full kernel...
                prop_assert_eq!(
                    got > bound,
                    full > bound,
                    "{}: within={} full={} bound={} d={}", name, got, full, bound, d
                );
                // ...and bit-exact whenever the candidate is kept.
                if got <= bound {
                    prop_assert_eq!(
                        got.to_bits(), full.to_bits(),
                        "{}: kept value not exact at d={}", name, d
                    );
                }
                // Strict inequality at the boundary: a bound exactly equal
                // to the full distance must NOT abandon (every partial sum
                // is <= full, so none strictly exceeds the bound).
                let at_boundary = within_fn(&a, &b, full);
                prop_assert_eq!(
                    at_boundary.to_bits(), full.to_bits(),
                    "{}: abandoned at an exactly-equal bound, d={}", name, d
                );
            }
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
        let full = sq_dist(&a, &b); // exactly 25.0, reached by element 2
        assert_eq!(full, 25.0);
        assert_eq!(sq_dist_within(&a, &b, 25.0), 25.0, "d={d}");
        assert_eq!(kernels::sq_dist_within_scalar(&a, &b, 25.0), 25.0, "d={d}");
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(kernels::sq_dist_within_sse2(&a, &b, 25.0), 25.0, "d={d}");
            if simd::avx2_fma_available() {
                assert_eq!(kernels::sq_dist_within_avx2(&a, &b, 25.0), 25.0, "d={d}");
            }
        }
        // One ulp below the mass: must abandon (or at least report > bound).
        let below = 25.0f32.next_down();
        assert!(sq_dist_within(&a, &b, below) > below, "d={d}");
    }
}

/// A row kernel's values against its level's one-row kernel: bit for bit,
/// or NaN for NaN (a NaN's payload is not part of the contract).
fn assert_rows_match(
    level: &str,
    rows_fn: fn(&[f32], &[f32]) -> Vec<f32>,
    one_fn: fn(&[f32], &[f32]) -> f32,
) {
    for m in 1..=40usize {
        let q = fill(m as u64, m, 3.0);
        for count in 0..=9usize {
            let mut rows = fill(((m as u64) << 8) | count as u64, m * count, 3.0);
            // Some rows carry a NaN, at a spread of positions.
            for r in (0..count).filter(|r| r % 3 == 1) {
                rows[r * m + (r * 7) % m] = f32::NAN;
            }
            let got = rows_fn(&q, &rows);
            assert_eq!(got.len(), count, "{level}: m = {m}, {count} rows");
            for (r, (&got, row)) in got.iter().zip(rows.chunks_exact(m)).enumerate() {
                let want = one_fn(&q, row);
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{level}: m = {m}, row {r} of {count}: {got} vs {want}"
                );
                assert_eq!(got.is_nan(), r % 3 == 1, "{level}: m = {m}, row {r}");
            }
        }
    }
}

/// `sq_dist_rows` as the tests read it: collected into a `Vec`.
fn dispatched_rows(q: &[f32], rows: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    sq_dist_rows(q, rows, |d| out.push(d));
    out
}

#[test]
fn row_kernel_is_the_full_kernel_row_by_row() {
    assert_rows_match(
        "scalar",
        kernels::sq_dist_rows_scalar,
        kernels::sq_dist_scalar,
    );
    assert_rows_match("dispatch", dispatched_rows, sq_dist);
    #[cfg(target_arch = "x86_64")]
    {
        assert_rows_match("sse2", kernels::sq_dist_rows_sse2, kernels::sq_dist_sse2);
        if simd::avx2_fma_available() {
            assert_rows_match("avx2", kernels::sq_dist_rows_avx2, kernels::sq_dist_avx2);
        }
    }
}

/// `true` when this process runs under `PMLSH_FORCE_SCALAR=1`. Otherwise
/// the test `name` is re-run in a child process that does, and must pass
/// there. The level is fixed at a process's first distance call, so a
/// process started without the variable (unlike the scalar CI job, which
/// starts the whole suite with it) cannot switch to scalar itself.
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

/// The dispatched row kernel under `PMLSH_FORCE_SCALAR=1`.
#[test]
fn row_kernel_under_forced_scalar() {
    if under_forced_scalar("row_kernel_under_forced_scalar") {
        assert_rows_match("forced scalar", dispatched_rows, sq_dist);
    }
}

#[test]
#[should_panic(expected = "not whole rows")]
fn row_kernel_rejects_a_partial_row() {
    sq_dist_rows(&[1.0, 2.0], &[1.0, 2.0, 3.0], |_| {});
}

/// A row-verification kernel as the tests drive it.
type Walk<'a> = &'a dyn Fn(&[f32], &[f32], &[PointId], f32, &mut dyn FnMut(PointId, f32) -> f32);

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
fn assert_walk_matches(
    level: &str,
    walk: Walk<'_>,
    within: fn(&[f32], &[f32], f32) -> f32,
    full: fn(&[f32], &[f32]) -> f32,
) {
    let mut checked_abandons = 0;
    for m in [1usize, 5, 16, 100, 127, 128, 129, 192, 300, 1000] {
        let q = fill(m as u64, m, 3.0);
        let count = 24usize;
        let mut rows = fill((m as u64) << 8, m * count, 3.0);
        rows[5 * m + m / 2] = f32::NAN;
        let mut fulls: Vec<f32> = rows.chunks_exact(m).map(|row| full(&q, row)).collect();
        fulls.sort_by(f32::total_cmp);
        for len in [0usize, 1, 2, 3, 7, 24, 40] {
            // A scattered walk: row 5 (NaN) is named, some rows twice.
            let ids: Vec<PointId> = (0..len).map(|i| ((i * 7 + 3) % count) as PointId).collect();
            for start in [f32::INFINITY, fulls[count / 2], fulls[0] * 0.5, 0.0] {
                let what = format!("{level}: m = {m}, {len} ids, start bound {start}");
                let got = record(|keep| walk(&q, &rows, &ids, start, keep));
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
                assert_eq!(got, want, "{what}");
                for &(id, bits) in &got {
                    let row = &rows[id as usize * m..][..m];
                    assert_eq!(bits, full(&q, row).to_bits(), "{what}: row {id}");
                }
            }
        }
    }
    assert!(
        checked_abandons > 1000,
        "{level}: {checked_abandons} abandons"
    );
}

/// The dispatched row-verification kernel, as [`Walk`].
fn dispatched_walk(
    q: &[f32],
    rows: &[f32],
    ids: &[PointId],
    bound: f32,
    keep: &mut dyn FnMut(PointId, f32) -> f32,
) {
    sq_dist_rows_within(q, rows, ids.iter().copied(), bound, keep);
}

#[test]
fn row_verification_keeps_and_abandons_as_within_does() {
    assert_walk_matches(
        "scalar",
        &|q, rows, ids, bound, keep| {
            kernels::sq_dist_rows_within_scalar(q, rows, ids.iter().copied(), bound, keep)
        },
        kernels::sq_dist_within_scalar,
        kernels::sq_dist_scalar,
    );
    assert_walk_matches("dispatch", &dispatched_walk, sq_dist_within, sq_dist);
    #[cfg(target_arch = "x86_64")]
    {
        assert_walk_matches(
            "sse2",
            &|q, rows, ids, bound, keep| {
                kernels::sq_dist_rows_within_sse2(q, rows, ids.iter().copied(), bound, keep)
            },
            kernels::sq_dist_within_sse2,
            kernels::sq_dist_sse2,
        );
        if simd::avx2_fma_available() {
            assert_walk_matches(
                "avx2",
                &|q, rows, ids, bound, keep| {
                    kernels::sq_dist_rows_within_avx2(q, rows, ids.iter().copied(), bound, keep)
                },
                kernels::sq_dist_within_avx2,
                kernels::sq_dist_avx2,
            );
        }
    }
}

/// The dispatched row-verification kernel under `PMLSH_FORCE_SCALAR=1`.
#[test]
fn row_verification_under_forced_scalar() {
    if under_forced_scalar("row_verification_under_forced_scalar") {
        assert_walk_matches("forced scalar", &dispatched_walk, sq_dist_within, sq_dist);
    }
}

#[test]
#[should_panic(expected = "not whole rows")]
fn row_verification_rejects_a_partial_row() {
    sq_dist_rows_within(
        &[1.0, 2.0],
        &[1.0, 2.0, 3.0],
        [0],
        f32::INFINITY,
        |_, sq| sq,
    );
}

#[test]
#[should_panic]
fn row_verification_rejects_an_id_past_the_store() {
    sq_dist_rows_within(&[1.0, 2.0], &[1.0, 2.0], [1], f32::INFINITY, |_, sq| sq);
}
