//! PM-LSH parameters and the Eq. 10 derivation.
//!
//! Given `m` hash functions, approximation ratio `c` and tail probability
//! `α₁`, Eq. 10 fixes the radius multiplier `t` and the false-positive
//! budget:
//!
//! ```text
//! t² = χ²_{α₁}(m)          (upper quantile)
//! t² = c² χ²_{1−α₂}(m)     ⇒  α₂ = CDF_{χ²(m)}(t²/c²)
//! β  = 2 α₂                (Lemma 5 sets Pr[E2] = 1 − α₂/β = 1/2)
//! ```
//!
//! **Reproduction note.** For the paper's defaults `m = 15, c = 1.5,
//! α₁ = 1/e`, this derivation yields `α₂ ≈ 0.0483, β ≈ 0.0967`, while
//! Section 6.1 of the paper reports `α₂ = 0.1405, β = 0.2809`. The paper's
//! pair is internally consistent (`β = 2α₂`) but does not follow from Eq. 10
//! under any quantile convention we could find; a larger β only makes the
//! algorithm examine more candidates (≈ 28 % of n instead of ≈ 10 %),
//! trading time for recall. [`PmLshParams::paper_defaults`] pins the paper's
//! experimental value so the Table 4 / Figs. 7–11 reproductions match the
//! published operating point, while [`PmLshParams::default`] keeps the
//! faithful Eq. 10 derivation.

use pm_lsh_pmtree::PmTreeConfig;
use pm_lsh_stats::{chi2_cdf, chi2_upper_quantile};

/// User-facing PM-LSH configuration.
#[derive(Clone, Copy, Debug)]
pub struct PmLshParams {
    /// Number of Gaussian hash functions `m` (projected dimensionality).
    pub m: u32,
    /// Approximation ratio `c > 1` used during radius enlargement.
    pub c: f64,
    /// Tail probability `α₁` of event E1 (paper default `1/e`).
    pub alpha1: f64,
    /// Overrides the derived candidate fraction `β` when set (the paper's
    /// experiments run with `β = 0.2809`).
    pub beta_override: Option<f64>,
    /// Shrink factor applied to the estimated start radius `r_min`
    /// (the paper asks for "an r_min slightly smaller than r").
    pub rmin_shrink: f64,
    /// PM-tree layout (capacity 16, s = 5 pivots by default). The served
    /// index is a column and builds no tree, so this shapes only static
    /// trees bulk-loaded beside it (`PmTree::build` over its projected
    /// rows) and one draw of the build's RNG: with `s > 0` and more points
    /// than `pivot_sample`, the build draws the pivot sample the bulk load
    /// it replaced drew, so `F`'s samples stay where they were. The field
    /// goes once no caller reads it.
    pub tree: PmTreeConfig,
    /// Number of sampled point pairs used to estimate the distance
    /// distribution `F` at build time.
    pub distance_samples: usize,
    /// Seed for the projector and the sampling of `F`.
    pub seed: u64,
}

impl Default for PmLshParams {
    fn default() -> Self {
        Self {
            m: 15,
            c: 1.5,
            alpha1: 1.0 / std::f64::consts::E,
            beta_override: None,
            rmin_shrink: 0.95,
            tree: PmTreeConfig::default(),
            distance_samples: 50_000,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl PmLshParams {
    /// The configuration of the paper's Section 6 experiments: `m = 15`,
    /// `c = 1.5`, `s = 5`, `α₁ = 1/e` and the published `β = 0.2809`.
    pub fn paper_defaults() -> Self {
        Self {
            beta_override: Some(0.2809),
            ..Self::default()
        }
    }

    /// Same settings with a different approximation ratio (β re-derived from
    /// Eq. 10 unless overridden).
    pub fn with_c(mut self, c: f64) -> Self {
        assert!(c > 1.0, "approximation ratio must exceed 1");
        self.c = c;
        self
    }

    /// Derives `t`, `α₂` and `β` via Eq. 10.
    pub fn derive(&self) -> DerivedParams {
        assert!(self.m >= 1, "need at least one hash function");
        assert!(self.c > 1.0, "approximation ratio must exceed 1");
        assert!(
            self.alpha1 > 0.0 && self.alpha1 < 1.0,
            "alpha1 must be in (0,1)"
        );
        let t_sq = chi2_upper_quantile(self.alpha1, self.m);
        let t = t_sq.sqrt();
        let alpha2 = chi2_cdf(t_sq / (self.c * self.c), self.m);
        let beta = self.beta_override.unwrap_or(2.0 * alpha2);
        assert!(beta > 0.0 && beta < 1.0, "derived beta {beta} out of range");
        DerivedParams { t, alpha2, beta }
    }
}

/// The Eq. 10 outputs consumed by the query algorithms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DerivedParams {
    /// Projected-radius multiplier: a range query with original radius `r`
    /// scans `B(q', t·r)` in the projected space.
    pub t: f64,
    /// Tail probability of event E2.
    pub alpha2: f64,
    /// Candidate budget fraction: the algorithms stop after verifying
    /// `β·n + k` candidates.
    pub beta: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_stats::chi2_sf;

    #[test]
    fn eq10_at_paper_defaults() {
        let d = PmLshParams::default().derive();
        // t² is the upper 1/e quantile of χ²(15)
        assert!((d.t * d.t - 16.2154).abs() < 1e-3, "t²={}", d.t * d.t);
        assert!((chi2_sf(d.t * d.t, 15) - 1.0 / std::f64::consts::E).abs() < 1e-10);
        // Faithful Eq. 10 outputs (see the module docs for why these differ
        // from the paper's stated 0.1405 / 0.2809):
        assert!((d.alpha2 - 0.0483).abs() < 1e-3, "alpha2={}", d.alpha2);
        assert!((d.beta - 0.0967).abs() < 1e-3, "beta={}", d.beta);
    }

    #[test]
    fn paper_pinned_beta() {
        let d = PmLshParams::paper_defaults().derive();
        assert_eq!(d.beta, 0.2809);
        // t is unaffected by the β pin
        assert!((d.t - 4.0268).abs() < 1e-3);
    }

    #[test]
    fn beta_shrinks_with_larger_c() {
        // A looser approximation ratio tolerates fewer false positives.
        let b15 = PmLshParams::default().with_c(1.5).derive().beta;
        let b20 = PmLshParams::default().with_c(2.0).derive().beta;
        assert!(b20 < b15);
    }

    #[test]
    fn t_grows_with_smaller_alpha1() {
        let strict = PmLshParams {
            alpha1: 0.05,
            ..Default::default()
        }
        .derive();
        let loose = PmLshParams {
            alpha1: 0.5,
            ..Default::default()
        }
        .derive();
        assert!(
            strict.t > loose.t,
            "smaller tail mass needs a wider interval"
        );
    }

    #[test]
    fn e1_e2_events_hold_empirically() {
        // Lemma 4 head-on: sample points at distance exactly r (E1) and
        // exactly c·r (E2 boundary) and check the tail probabilities.
        use pm_lsh_stats::Rng;
        let p = PmLshParams::default();
        let d = p.derive();
        let m = p.m as usize;
        let mut rng = Rng::new(99);
        let trials = 30_000;
        let r = 2.0f64;

        // E1: point inside B(q, r) has projected distance <= t·r w.p. >= 1-α1
        let mut e1_fail = 0usize;
        for _ in 0..trials {
            let mut sq = 0.0;
            for _ in 0..m {
                let rho = r * rng.normal();
                sq += rho * rho;
            }
            if sq.sqrt() > d.t * r {
                e1_fail += 1;
            }
        }
        let fail_rate = e1_fail as f64 / trials as f64;
        assert!(
            (fail_rate - p.alpha1).abs() < 0.01,
            "E1 fail rate {fail_rate}"
        );

        // E2: point at distance c·r has projected distance < t·r w.p. α2
        let mut e2_hit = 0usize;
        let cr = p.c * r;
        for _ in 0..trials {
            let mut sq = 0.0;
            for _ in 0..m {
                let rho = cr * rng.normal();
                sq += rho * rho;
            }
            if sq.sqrt() < d.t * r {
                e2_hit += 1;
            }
        }
        let hit_rate = e2_hit as f64 / trials as f64;
        assert!((hit_rate - d.alpha2).abs() < 0.01, "E2 hit rate {hit_rate}");
    }
}
