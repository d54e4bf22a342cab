//! Stand-ins for the paper's seven datasets (Table 3).
//!
//! | Dataset | n (paper) | d | HV | RC | LID |
//! |---------|-----------|------|--------|------|------|
//! | Audio | 54 K | 192 | 0.9273 | 2.97 | 5.6 |
//! | Deep | 1 M | 256 | 0.9393 | 1.96 | 12.1 |
//! | NUS | 269 K | 500 | 0.9995 | 1.67 | 24.5 |
//! | MNIST | 60 K | 784 | 0.9531 | 2.38 | 6.5 |
//! | GIST | 983 K | 960 | 0.9670 | 1.94 | 18.9 |
//! | Cifar | 50 K | 1024 | 0.9457 | 1.97 | 9.0 |
//! | Trevi | 100 K | 4096 | 0.9432 | 2.95 | 9.2 |
//!
//! The generator specs below target the RC/LID character of each dataset:
//! `latent_dim` tracks LID and the center-spread/within-scale ratio tracks
//! RC. Datasets whose full size exceeds laptop memory are scaled down at
//! [`Scale::Bench`]; [`PaperDataset::n_at`] states each reduction.

use crate::synth::{Generator, SynthSpec};

/// The seven datasets of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// Audio features, 54 K × 192 — easy (high RC, low LID).
    Audio,
    /// Deep CNN features, 1 M × 256 — large and moderately hard.
    Deep,
    /// NUS-WIDE features, 269 K × 500 — hardest (RC 1.67, LID 24.5).
    Nus,
    /// MNIST pixels, 60 K × 784 — easy.
    Mnist,
    /// GIST descriptors, 983 K × 960 — large and hard.
    Gist,
    /// CIFAR pixels, 50 K × 1024 — moderate.
    Cifar,
    /// Trevi patches, 100 K × 4096 — highest dimensionality, easy contrast.
    Trevi,
}

/// Dataset size profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances for unit/integration tests (seconds end-to-end).
    Smoke,
    /// Laptop-scale benchmark instances (≤ ~50 M floats each).
    Bench,
    /// The paper's full cardinalities (needs ~16 GB RAM for the largest).
    Full,
}

/// Reference statistics from Table 3 of the paper.
#[derive(Clone, Copy, Debug)]
pub struct PaperStats {
    /// Cardinality used in the paper.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Homogeneity of viewpoints.
    pub hv: f64,
    /// Relative contrast.
    pub rc: f64,
    /// Local intrinsic dimensionality.
    pub lid: f64,
}

impl PaperDataset {
    /// All seven datasets in the paper's Table 3 order.
    pub const ALL: [PaperDataset; 7] = [
        PaperDataset::Audio,
        PaperDataset::Deep,
        PaperDataset::Nus,
        PaperDataset::Mnist,
        PaperDataset::Gist,
        PaperDataset::Cifar,
        PaperDataset::Trevi,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PaperDataset::Audio => "Audio",
            PaperDataset::Deep => "Deep",
            PaperDataset::Nus => "NUS",
            PaperDataset::Mnist => "MNIST",
            PaperDataset::Gist => "GIST",
            PaperDataset::Cifar => "Cifar",
            PaperDataset::Trevi => "Trevi",
        }
    }

    /// The paper's Table 3 reference row.
    pub fn paper_stats(&self) -> PaperStats {
        match self {
            PaperDataset::Audio => PaperStats {
                n: 54_000,
                dim: 192,
                hv: 0.9273,
                rc: 2.97,
                lid: 5.6,
            },
            PaperDataset::Deep => PaperStats {
                n: 1_000_000,
                dim: 256,
                hv: 0.9393,
                rc: 1.96,
                lid: 12.1,
            },
            PaperDataset::Nus => PaperStats {
                n: 269_000,
                dim: 500,
                hv: 0.9995,
                rc: 1.67,
                lid: 24.5,
            },
            PaperDataset::Mnist => PaperStats {
                n: 60_000,
                dim: 784,
                hv: 0.9531,
                rc: 2.38,
                lid: 6.5,
            },
            PaperDataset::Gist => PaperStats {
                n: 983_000,
                dim: 960,
                hv: 0.9670,
                rc: 1.94,
                lid: 18.9,
            },
            PaperDataset::Cifar => PaperStats {
                n: 50_000,
                dim: 1024,
                hv: 0.9457,
                rc: 1.97,
                lid: 9.0,
            },
            PaperDataset::Trevi => PaperStats {
                n: 100_000,
                dim: 4096,
                hv: 0.9432,
                rc: 2.95,
                lid: 9.2,
            },
        }
    }

    /// Cardinality at a given scale. `Bench` keeps every dataset within
    /// ~50 M floats (≈ 200 MB of `f32`), the per-dataset reductions being:
    /// Deep 1 M → 200 K, NUS 269 K → 100 K, GIST 983 K → 50 K,
    /// Trevi 100 K → 12 K; the rest already fit at full size.
    pub fn n_at(&self, scale: Scale) -> usize {
        let full = self.paper_stats().n;
        match scale {
            Scale::Full => full,
            Scale::Bench => match self {
                PaperDataset::Deep => 200_000,
                PaperDataset::Nus => 100_000,
                PaperDataset::Gist => 50_000,
                PaperDataset::Trevi => 12_000,
                _ => full,
            },
            Scale::Smoke => match self {
                PaperDataset::Trevi => 800,
                _ => 2_000,
            },
        }
    }

    /// The synthetic spec at a given scale. Latent dimensionality and
    /// cluster geometry are tuned toward each dataset's RC/LID character.
    pub fn spec(&self, scale: Scale) -> SynthSpec {
        let stats = self.paper_stats();
        let n = self.n_at(scale);
        // RC grows with center spread; LID tracks latent_dim. The constants
        // below were calibrated with the `table3_datasets` binary, which
        // prints each stand-in's statistics beside the paper's Table 3 row.
        let (latent, spread, within, noise, clusters) = match self {
            PaperDataset::Audio => (6, 0.30, 1.0, 0.07, 80),
            PaperDataset::Deep => (15, 0.33, 1.0, 0.030, 150),
            PaperDataset::Nus => (72, 0.68, 1.0, 0.02, 120),
            PaperDataset::Mnist => (7, 0.28, 1.0, 0.06, 80),
            PaperDataset::Gist => (56, 1.08, 1.0, 0.02, 120),
            PaperDataset::Cifar => (12, 0.31, 1.0, 0.045, 80),
            PaperDataset::Trevi => (30, 1.75, 1.0, 0.02, 80),
        };
        // Clusters scale down with tiny instances so each keeps enough
        // members (~100+) for meaningful nearest-neighbor structure.
        let clusters = clusters.min((n / 100).max(1));
        SynthSpec {
            n,
            dim: stats.dim,
            clusters,
            latent_dim: latent,
            center_spread: spread,
            within_scale: within,
            noise,
            seed: 0xda7a_0000 + *self as u64,
        }
    }

    /// A ready generator at the given scale.
    pub fn generator(&self, scale: Scale) -> Generator {
        Generator::new(self.spec(scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_are_constructible_at_smoke() {
        for ds in PaperDataset::ALL {
            let g = ds.generator(Scale::Smoke);
            let data = g.dataset();
            assert_eq!(data.len(), ds.n_at(Scale::Smoke));
            assert_eq!(data.dim(), ds.paper_stats().dim);
        }
    }

    #[test]
    fn bench_scale_fits_memory_envelope() {
        for ds in PaperDataset::ALL {
            let floats = ds.n_at(Scale::Bench) * ds.paper_stats().dim;
            assert!(
                floats <= 52_000_000,
                "{} too large at bench scale",
                ds.name()
            );
        }
    }

    #[test]
    fn names_and_order_match_table3() {
        let names: Vec<&str> = PaperDataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec!["Audio", "Deep", "NUS", "MNIST", "GIST", "Cifar", "Trevi"]
        );
    }
}
