//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every `.pmlsh` section and the file as a whole. Hand-rolled
//! because the workspace is dependency-free by design; the tables are built
//! at compile time.
//!
//! Snapshot loading checksums every byte of the file once, as it streams
//! past: each piece (a section's payload, or the framing between two) gets
//! its own CRC, and `crc32_combine` folds the pieces' CRCs into the
//! whole-file CRC without reading a byte again. The kernel is the hot loop
//! of a restore, so it is dispatched like the distance kernels in
//! `pm-lsh-metric`:
//!
//! * **portable** — a slice-by-8 table kernel (eight 256-entry tables,
//!   one 64-bit load per step) — roughly an order of magnitude faster
//!   than the classic byte-at-a-time loop;
//! * **x86-64 with PCLMULQDQ + SSE4.1** (runtime-detected) — the Intel
//!   carry-less-multiply folding scheme: four 128-bit lanes folded per
//!   64-byte block, then reduced 512 → 128 → 64 → 32 bits via Barrett
//!   reduction. Multiple GB/s on any recent core.
//!
//! Both kernels compute the *same function* — the checksum is part of the
//! on-disk format, so hardware can only change speed, never a single bit
//! of output. Setting `PMLSH_FORCE_SCALAR=1` pins the portable kernel
//! (read once, at first use), matching the metric crate's convention.

const POLY: u32 = 0xEDB8_8320;

/// Eight tables for slice-by-8: `TABLES[k][b]` is the CRC contribution of
/// byte `b` seen `k` positions before the end of an 8-byte block.
/// `TABLES[0]` is the classic single-byte table.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Portable slice-by-8 kernel: folds eight bytes per iteration with one
/// 64-bit load and eight independent table lookups (no loop-carried
/// table-to-table dependency inside the block).
fn update_slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

// ---------------------------------------------------------------------------
// x86-64: PCLMULQDQ folding (runtime-detected).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // intrinsics kernel — the crate is otherwise safe code
mod clmul {
    use core::arch::x86_64::*;

    // Folding constants for the reflected IEEE polynomial (Intel's "Fast
    // CRC Computation Using PCLMULQDQ" scheme): K1/K2 fold 512 bits ahead,
    // K3/K4 fold 128 bits, K5 folds 64 → 32 bits, and P/MU drive the final
    // Barrett reduction back to a 32-bit remainder.
    const K1: i64 = 0x0001_5444_2bd4; // x^(4·128+32) mod P
    const K2: i64 = 0x0001_c6e4_1596; // x^(4·128-32) mod P
    const K3: i64 = 0x0001_7519_97d0; // x^(128+32) mod P
    const K4: i64 = 0x0000_ccaa_009e; // x^(128-32) mod P
    const K5: i64 = 0x0001_63cd_6124; // x^64 mod P
    const P: i64 = 0x0001_db71_0641; // the polynomial, bit-reflected
    const MU: i64 = 0x0001_f701_1641; // floor(x^64 / P), bit-reflected

    /// Folds `bytes` into `crc`. Requires `bytes.len() >= 64`; processes
    /// the longest prefix that is a multiple of 16 bytes and returns the
    /// new state plus the unprocessed tail for the table kernel.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        debug_assert!(bytes.len() >= 64);
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        let mut p = body.as_ptr() as *const __m128i;
        let mut len = body.len();

        // Four independent 128-bit lanes; the incoming state XORs into the
        // low 32 bits of the first (reflected domain: lowest byte first).
        let mut x1 = _mm_xor_si128(_mm_loadu_si128(p), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = _mm_loadu_si128(p.add(1));
        let mut x3 = _mm_loadu_si128(p.add(2));
        let mut x4 = _mm_loadu_si128(p.add(3));
        p = p.add(4);
        len -= 64;

        let k1k2 = _mm_set_epi64x(K2, K1);
        while len >= 64 {
            let y1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
            let y2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
            let y3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
            let y4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
            x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
            x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
            x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, y1), _mm_loadu_si128(p));
            x2 = _mm_xor_si128(_mm_xor_si128(x2, y2), _mm_loadu_si128(p.add(1)));
            x3 = _mm_xor_si128(_mm_xor_si128(x3, y3), _mm_loadu_si128(p.add(2)));
            x4 = _mm_xor_si128(_mm_xor_si128(x4, y4), _mm_loadu_si128(p.add(3)));
            p = p.add(4);
            len -= 64;
        }

        // Fold the four lanes into one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        for next in [x2, x3, x4] {
            let y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, y), next);
        }

        // Fold any remaining whole 16-byte blocks.
        while len >= 16 {
            let y = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, y), _mm_loadu_si128(p));
            p = p.add(1);
            len -= 16;
        }
        debug_assert_eq!(len, 0);

        // Reduce 128 → 64 bits.
        let mask32 = _mm_set_epi32(0, -1, 0, -1);
        let y = _mm_clmulepi64_si128(x1, k3k4, 0x10);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), y);
        let k5 = _mm_set_epi64x(0, K5);
        let hi = _mm_srli_si128(x1, 4);
        x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
        x1 = _mm_xor_si128(x1, hi);

        // Barrett reduction 64 → 32 bits.
        let pmu = _mm_set_epi64x(MU, P);
        let mut t = _mm_and_si128(x1, mask32);
        t = _mm_clmulepi64_si128(t, pmu, 0x10);
        t = _mm_and_si128(t, mask32);
        t = _mm_clmulepi64_si128(t, pmu, 0x00);
        x1 = _mm_xor_si128(x1, t);

        (_mm_extract_epi32(x1, 1) as u32, tail)
    }
}

// ---------------------------------------------------------------------------
// Dispatch (detected once, then cached — same shape as pm-lsh-metric).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod dispatch {
    use std::sync::atomic::{AtomicU8, Ordering};

    const UNINIT: u8 = 0;
    const PORTABLE: u8 = 1;
    const CLMUL: u8 = 2;

    static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

    /// `true` when the PCLMULQDQ kernel should run (cached after first use).
    #[inline]
    pub(super) fn clmul_active() -> bool {
        match LEVEL.load(Ordering::Relaxed) {
            CLMUL => true,
            PORTABLE => false,
            _ => detect(),
        }
    }

    #[cold]
    fn detect() -> bool {
        let forced_scalar = match std::env::var("PMLSH_FORCE_SCALAR") {
            Ok(v) => !v.is_empty() && v != "0",
            Err(_) => false,
        };
        let use_clmul = !forced_scalar
            && std::is_x86_feature_detected!("pclmulqdq")
            && std::is_x86_feature_detected!("sse4.1");
        LEVEL.store(if use_clmul { CLMUL } else { PORTABLE }, Ordering::Relaxed);
        use_clmul
    }
}

/// Folds `bytes` into the raw (pre-finalize) CRC state.
fn update_dispatch(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    // The folding kernel needs at least 64 bytes to fill its four lanes;
    // shorter inputs go straight to the table kernel.
    if bytes.len() >= 64 && dispatch::clmul_active() {
        // SAFETY: PCLMULQDQ + SSE4.1 were runtime-detected above.
        #[allow(unsafe_code)]
        let (folded, tail) = unsafe { clmul::update(crc, bytes) };
        return update_slice8(folded, tail);
    }
    update_slice8(crc, bytes)
}

/// A streaming CRC-32 accumulator.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update_dispatch(self.state, bytes);
    }

    /// Finishes and returns the checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Combining: CRC(a ++ b) from CRC(a), CRC(b) and |b| (zlib's GF(2) shift).
// ---------------------------------------------------------------------------

/// `a·b mod P` over GF(2), both operands in the reflected bit order. `a`
/// must be nonzero, or the loop never ends; every caller passes a power of
/// `x` mod P, which never is zero.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k]` is `x^(2^k) mod P`.
const fn build_x2n() -> [u32; 32] {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    t[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        t[k] = p;
        k += 1;
    }
    t
}

static X2N: [u32; 32] = build_x2n();

/// `x^(n·2^k) mod P`.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a ++ b`, given `crc32(a)`, `crc32(b)` and `b.len()`.
///
/// It shifts `a`'s remainder past `len_b` zero bytes (`x^(8·len_b)`, one
/// table product per set bit of `len_b`), so it costs at most 64 products
/// whatever the length and reads no data: a reader folds its pieces' CRCs
/// into the whole-file CRC with it instead of checksumming the file again.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// The classic one-byte-at-a-time loop — the reference definition both
    /// production kernels must reproduce bit-for-bit.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The classic check value for this polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn kernels_match_reference_on_every_length() {
        // Cover both sides of the 64-byte folding threshold, every 16-byte
        // block boundary near it, and lengths with every tail size 0..16.
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..200).chain([255, 256, 1023, 1024, 4095, 4096]) {
            let expect = crc32_reference(&data[..len]);
            assert_eq!(
                crc32(&data[..len]),
                expect,
                "dispatch diverged at len {len}"
            );
            let mut portable = 0xFFFF_FFFFu32;
            portable = update_slice8(portable, &data[..len]);
            assert_eq!(
                portable ^ 0xFFFF_FFFF,
                expect,
                "slice-by-8 diverged at len {len}"
            );
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        // Chunk sizes straddling the folding kernel's 64-byte threshold:
        // the split state must carry across updates bit-exactly.
        for chunk in [1usize, 5, 16, 63, 64, 65, 128, 333] {
            let mut crc = Crc32::new();
            for c in data.chunks(chunk) {
                crc.update(c);
            }
            assert_eq!(crc.finish(), crc32(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0xA5u8; 64];
        let base = crc32(&data);
        data[37] ^= 0x04;
        assert_ne!(crc32(&data), base);
    }

    /// The portable kernel alone, finalized.
    fn crc32_portable(bytes: &[u8]) -> u32 {
        update_slice8(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn combine_of_a_split_is_the_whole(
            words in collection::vec(0u32..256, 0..600),
            cut in 0usize..600,
        ) {
            let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            // Random splits, empty sides included (cut 0 and cut past the
            // end), of lengths that straddle the 64-byte PCLMUL fold width,
            // with the pieces checksummed by each kernel.
            let (a, b) = bytes.split_at(cut.min(bytes.len()));
            for kernel in [crc32 as fn(&[u8]) -> u32, crc32_portable] {
                prop_assert_eq!(
                    crc32_combine(kernel(a), kernel(b), b.len() as u64),
                    crc32_reference(&bytes)
                );
            }
        }
    }

    #[test]
    fn combine_at_the_fold_width_and_past_it() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        for len_b in [0usize, 1, 15, 16, 63, 64, 65, 127, 128, 129, 1000, 4000] {
            for len_a in [0usize, 1, 63, 64, 65, 96] {
                let (a, b) = (&data[..len_a], &data[len_a..len_a + len_b]);
                let whole = crc32_reference(&data[..len_a + len_b]);
                assert_eq!(crc32_combine(crc32(a), crc32(b), len_b as u64), whole);
                assert_eq!(
                    crc32_combine(crc32_portable(a), crc32_portable(b), len_b as u64),
                    whole
                );
            }
        }
        // Folding many pieces in turn is one pass over their concatenation.
        let folded = data
            .chunks(333)
            .fold(0, |acc, c| crc32_combine(acc, crc32(c), c.len() as u64));
        assert_eq!(folded, crc32(&data));
    }
}
