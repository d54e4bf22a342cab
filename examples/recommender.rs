//! Embedding-based recommendation — the paper's recommendation motivation
//! (Section 1) on a Deep-like dataset of item embeddings.
//!
//! A user profile is the centroid of recently liked items; serving a
//! recommendation slate is a (c, k)-ANN query around that profile. The
//! example also shows the time/quality dial: the same index answers with a
//! tighter or looser approximation ratio per query (`query_into`'s `c`).
//!
//! ```text
//! cargo run --release --example recommender
//! ```

use pm_lsh::prelude::*;

fn main() {
    // Deep stand-in: 256-dimensional item embeddings.
    let generator = PaperDataset::Deep.generator(Scale::Smoke);
    let items = generator.dataset();
    let n = items.len();
    println!("item catalog: {n} embeddings in R^{}", items.dim());

    let index = PmLsh::build(items, PmLshParams::paper_defaults());

    // Simulate 20 users; each likes a handful of items from one taste
    // cluster (consecutive ids share clusters under the generator).
    let mut rng = Rng::new(0x5eed);
    let k = 10;
    let mut served = 0usize;
    let mut liked_excluded = true;
    let start = std::time::Instant::now();
    for _user in 0..20 {
        let anchor = rng.below(n);
        let liked: Vec<usize> = (0..5).map(|j| (anchor + j * 40) % n).collect();
        // profile = centroid of liked items
        let dim = index.data().dim();
        let mut profile = vec![0.0f32; dim];
        for &item in &liked {
            for (p, &v) in profile.iter_mut().zip(index.data().point(item)) {
                *p += v / liked.len() as f32;
            }
        }

        let result = index.query(&profile, k + liked.len());
        let slate: Vec<PointId> = result
            .neighbors
            .iter()
            .map(|nb| nb.id)
            .filter(|id| !liked.contains(&(*id as usize)))
            .take(k)
            .collect();
        served += slate.len();
        if slate.iter().any(|id| liked.contains(&(*id as usize))) {
            liked_excluded = false;
        }
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "served {} recommendations over 20 users in {:.1} ms ({:.2} ms/slate)",
        served,
        elapsed,
        elapsed / 20.0
    );
    assert!(liked_excluded, "slates must not repeat liked items");
    assert_eq!(served, 20 * k);

    // The latency/quality dial: compare candidate work at c = 1.2 vs 2.0.
    let profile = index.data().point(0).to_vec();
    let (mut ctx, mut slate) = (QueryContext::new(), Vec::new());
    let tight = index.query_into(&profile, k, 1.2, &mut ctx, &mut slate);
    let loose = index.query_into(&profile, k, 2.0, &mut ctx, &mut slate);
    println!(
        "quality dial: c = 1.2 verified {} candidates, c = 2.0 verified {}",
        tight.candidates_verified, loose.candidates_verified
    );
    assert!(tight.candidates_verified >= loose.candidates_verified);
    println!("ok: tighter guarantees cost more verification, as Eq. 10 predicts");
}
