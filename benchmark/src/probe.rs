//! Machine-speed probes for drift compensation.
//!
//! This box's speed drifts over minutes (shared 2-core VM), by more than
//! the bounds the benchmark wants to enforce. At fixed positions in the op
//! list, while the server is idle, the client runs two fixed kernels that
//! contain no repo code: `ref_core` (a register-resident multiply-add
//! chain — tracks clock and stolen time) and `ref_mem` (a 64-byte stride
//! over a 64 MiB buffer — tracks contention for the shared last-level
//! cache and memory). Timings taken between two probes are scaled back to
//! the reference machine state.
//!
//! The model: a slow-down of the CPU itself (`core` = measured ÷ reference
//! of `ref_core`) hits everything once; contention for memory
//! (`mem ÷ core`) hits a workload with that workload's *memory
//! sensitivity* `a`, so `time ∝ core^(1-a) · mem^a`. `a = 0.5` is the plain
//! geometric mean of the two probes. On this box `ref_core` barely moves
//! (±1 %) while `ref_mem` swings ±15 % between runs, and the three
//! memory-bound workloads swing with it more than proportionally; the
//! sensitivities in `workload::WORKLOADS` come from the A/A runs in
//! README.md.

use std::hint::black_box;
use std::time::Instant;

/// Reference time of [`ref_core`] on the machine the seed numbers were
/// taken on (median of the A/A runs in README.md).
pub const REF_CORE_NS: f64 = 3_040_000.0;
/// Reference time of [`ref_mem`] on the same machine.
pub const REF_MEM_NS: f64 = 5_000_000.0;

const MEM_BYTES: usize = 64 << 20;
const LINE_WORDS: usize = 8; // 64-byte cache line of u64

/// One probe reading: nanoseconds of each kernel.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub core_ns: f64,
    pub mem_ns: f64,
}

impl Reading {
    /// What to multiply a timing taken at this machine state by to get
    /// the timing the reference state would have given, for a workload of
    /// memory sensitivity `a`: `(ref/core)^(1-a) · (ref/mem)^a`; > 1 means
    /// the machine is currently faster than the reference.
    pub fn factor(&self, a: f64) -> f64 {
        (REF_CORE_NS / self.core_ns).powf(1.0 - a) * (REF_MEM_NS / self.mem_ns).powf(a)
    }

    /// Wall time the probe itself took, in nanoseconds.
    pub fn wall_ns(&self) -> f64 {
        self.core_ns + self.mem_ns
    }
}

/// Owns the 64 MiB buffer `ref_mem` strides over.
pub struct Probes {
    mem: Vec<u64>,
}

impl Probes {
    pub fn new() -> Self {
        // Written once so every page is resident before the first reading.
        let mem = (0..(MEM_BYTES / 8) as u64).collect();
        Self { mem }
    }

    /// Runs both kernels once.
    pub fn read(&self) -> Reading {
        let t = Instant::now();
        black_box(ref_core(black_box(1.000_000_1)));
        let core_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        black_box(ref_mem(black_box(&self.mem)));
        let mem_ns = t.elapsed().as_nanos() as f64;
        Reading { core_ns, mem_ns }
    }
}

/// Eight independent multiply-add chains, register resident. Plain `*`
/// and `+`: `mul_add` is a libm call on the baseline x86-64 target.
fn ref_core(a: f64) -> f64 {
    let mut x = [0.5f64, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2];
    for _ in 0..1_200_000 {
        for v in &mut x {
            *v = *v * a + 1e-9;
        }
    }
    x.iter().sum()
}

/// One load per cache line across the whole buffer.
fn ref_mem(mem: &[u64]) -> u64 {
    let mut acc = 0u64;
    let mut i = 0;
    while i < mem.len() {
        acc = acc.wrapping_add(mem[i]);
        i += LINE_WORDS;
    }
    acc
}

/// Per-stretch scale factors from the `stretches + 1` readings that fence
/// them: stretch `j` lies between readings `j` and `j + 1` and takes the
/// geometric mean of their factors.
pub fn stretch_factors(readings: &[Reading], a: f64) -> Vec<f64> {
    readings
        .windows(2)
        .map(|w| (w[0].factor(a) * w[1].factor(a)).sqrt())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_gives_unit_factor() {
        let r = Reading {
            core_ns: REF_CORE_NS,
            mem_ns: REF_MEM_NS,
        };
        assert!((r.factor(0.5) - 1.0).abs() < 1e-12);
        // Everything twice as slow: a CPU slow-down, whatever the sensitivity.
        let slow = Reading {
            core_ns: 2.0 * REF_CORE_NS,
            mem_ns: 2.0 * REF_MEM_NS,
        };
        for a in [0.0, 0.5, 1.25] {
            assert!((slow.factor(a) - 0.5).abs() < 1e-12);
        }
        let f = stretch_factors(&[r, slow, slow], 0.5);
        assert_eq!(f.len(), 2);
        assert!((f[0] - 0.5f64.sqrt()).abs() < 1e-12);
        assert!((f[1] - 0.5).abs() < 1e-12);
        // Memory alone 21 % slower: sensitivity 0.5 is the geometric mean,
        // a higher one corrects more than proportionally.
        let contended = Reading {
            core_ns: REF_CORE_NS,
            mem_ns: 1.21 * REF_MEM_NS,
        };
        assert!((contended.factor(0.5) - 1.0 / 1.1).abs() < 1e-12);
        assert!(contended.factor(1.25) < 1.0 / 1.21);
    }
}
