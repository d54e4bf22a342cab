//! The pre-hot-path-refactor query implementations, kept verbatim.
//!
//! The PR that rebuilt the query hot path (early-abandoning verification,
//! scratch reuse, squared-distance domain) promised *result-identical*
//! behavior. That promise is only checkable against the code it replaced,
//! so the old implementations live on here, word for word:
//!
//! * `tests/hotpath_parity.rs` (workspace root) asserts that every
//!   refactored entry point returns identical `neighbors` **and** identical
//!   [`QueryStats`] on the Audio smoke dataset;
//! * `crates/bench/benches/query_hotpath.rs` uses them as the "before"
//!   measurement for the recorded speedup.
//!
//! Both paths share the dispatched distance kernels (the reference
//! computes full distances through [`euclidean`], whose `sq_dist` is the
//! same kernel the early-abandoning `sq_dist_within` completes to when a
//! candidate is kept), so the comparison isolates exactly the structural
//! changes: allocation reuse, abandonment, and the sqrt placement.
//!
//! These functions allocate per query by design — do not use them on a
//! serving path.

use crate::index::{PmLsh, QueryResult, QueryStats};
use crate::params::PmLshParams;
use pm_lsh_metric::{euclidean, Neighbor, TopK};

impl PmLsh {
    /// Pre-refactor Algorithm 2 with the build-time `c`. See the module
    /// docs; prefer [`PmLsh::query`].
    pub fn query_reference(&self, q: &[f32], k: usize) -> QueryResult {
        self.query_with_c_reference(q, k, self.params().c)
    }

    /// Pre-refactor Algorithm 2 with an explicit approximation ratio.
    /// See the module docs; prefer [`PmLsh::query_into`].
    pub fn query_with_c_reference(&self, q: &[f32], k: usize, c: f64) -> QueryResult {
        assert_eq!(q.len(), self.data().dim(), "query has wrong dimensionality");
        assert!(k >= 1, "k must be positive");
        assert!(c > 1.0, "approximation ratio must exceed 1");
        let params = *self.params();
        let derived = if c == params.c {
            self.derived()
        } else {
            PmLshParams {
                c,
                beta_override: None,
                ..params
            }
            .derive()
        };

        let n = self.data().len();
        let budget = ((derived.beta * n as f64).ceil() as usize + k).min(n);
        let qp = self.project(q);
        let mut cursor = self.tree().cursor(&qp);

        let mut top = TopK::new(k);
        let mut verified = 0usize;
        let mut rounds = 0u32;
        let mut r = self.select_rmin(k);

        loop {
            rounds += 1;
            // Termination test of Algorithm 2 line 4: k candidates already
            // within c·r of the query.
            if top.is_full() && (top.kth_dist() as f64) <= c * r {
                break;
            }
            // Pull candidates from the incremental range query B(q', t·r).
            let proj_radius = (derived.t * r) as f32;
            while verified < budget {
                match cursor.next_within(proj_radius) {
                    Some((id, _proj_dist)) => {
                        let d = euclidean(q, self.data().point_id(id));
                        top.push(d, id);
                        verified += 1;
                    }
                    None => break,
                }
            }
            // Termination test of line 9: candidate budget exhausted.
            if verified >= budget {
                break;
            }
            // The whole tree was consumed below the current radius.
            if cursor.is_exhausted() {
                break;
            }
            r *= c;
        }

        QueryResult {
            neighbors: top.into_sorted_vec(),
            stats: QueryStats {
                candidates_verified: verified,
                projected_dist_computations: cursor.distance_computations(),
                rounds,
            },
        }
    }

    /// Pre-refactor Algorithm 1 (`(r, c)`-ball-cover). See the module
    /// docs; prefer [`PmLsh::query_bc`].
    pub fn query_bc_reference(&self, q: &[f32], r: f64) -> Option<Neighbor> {
        assert_eq!(q.len(), self.data().dim(), "query has wrong dimensionality");
        assert!(r > 0.0, "radius must be positive");
        let n = self.data().len();
        let beta_n = (self.derived().beta * n as f64).ceil() as usize;
        let qp = self.project(q);
        let mut cursor = self.tree().cursor(&qp);
        let proj_radius = (self.derived().t * r) as f32;

        let mut best: Option<Neighbor> = None;
        let mut count = 0usize;
        while let Some((id, _)) = cursor.next_within(proj_radius) {
            let d = euclidean(q, self.data().point_id(id));
            if best.is_none_or(|b| Neighbor::new(d, id) < b) {
                best = Some(Neighbor::new(d, id));
            }
            count += 1;
            if count > beta_n {
                // Line 3–4: enough candidates guarantee one inside B(q, cr).
                return best;
            }
        }
        // Line 6–9: fewer than βn+1 candidates — only answer when a
        // verified point is inside B(q, cr).
        match best {
            Some(b) if (b.dist as f64) <= self.params().c * r => Some(b),
            _ => None,
        }
    }
}
