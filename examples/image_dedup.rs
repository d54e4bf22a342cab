//! Near-duplicate image detection — the paper's de-duplication motivation
//! (Section 1) on a Cifar-like feature dataset.
//!
//! We plant near-duplicates (small perturbations of existing "images") and
//! use PM-LSH's `(r, c)`-ball-cover query (Algorithm 1) to flag them: a
//! duplicate is any point whose ball of radius `r_dup` around the probe is
//! non-empty. The BC query is exactly the decision primitive the paper
//! builds the ANN query from.
//!
//! ```text
//! cargo run --release --example image_dedup
//! ```

use pm_lsh::prelude::*;

fn main() {
    // Cifar stand-in: 1024-dimensional "image features".
    let generator = PaperDataset::Cifar.generator(Scale::Smoke);
    let catalog = generator.dataset();
    println!("catalog: {} images in R^{}", catalog.len(), catalog.dim());

    // Estimate the duplicate radius from the data: well below the typical
    // nearest-neighbor distance.
    let probe_truth = exact_knn(catalog.view(), catalog.point(0), 2);
    let nn_dist = probe_truth[1].dist; // [0] is the point itself
    let r_dup = (nn_dist * 0.25) as f64;
    println!(
        "typical NN distance {:.2}; duplicate radius {:.2}",
        nn_dist, r_dup
    );

    let index = PmLsh::build(catalog, PmLshParams::paper_defaults());

    // Wave of incoming uploads: half are perturbed copies of catalog images
    // (true duplicates), half are fresh images.
    let mut rng = Rng::new(0xded0);
    let fresh = generator.queries(50);
    let mut uploads: Vec<(Vec<f32>, bool)> = Vec::new();
    for i in 0..50 {
        let mut copy = index.data().point(i * 7).to_vec();
        for v in copy.iter_mut() {
            *v += rng.normal_f32() * 0.002; // tiny jitter: a re-encode
        }
        uploads.push((copy, true));
        uploads.push((fresh.point(i).to_vec(), false));
    }

    let mut true_pos = 0usize;
    let mut false_pos = 0usize;
    let mut false_neg = 0usize;
    let mut ctx = QueryContext::new();
    let start = std::time::Instant::now();
    for (upload, is_dup) in &uploads {
        let verdict = index.query_bc(upload, r_dup, &mut ctx);
        match (verdict.is_some(), is_dup) {
            (true, true) => true_pos += 1,
            (true, false) => false_pos += 1,
            (false, true) => false_neg += 1,
            (false, false) => {}
        }
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;

    println!(
        "screened {} uploads in {:.1} ms ({:.2} ms each)",
        uploads.len(),
        elapsed,
        elapsed / uploads.len() as f64
    );
    println!("duplicates caught: {true_pos}/50, missed: {false_neg}, false alarms: {false_pos}");
    assert!(
        true_pos >= 45,
        "BC query should catch nearly all planted duplicates"
    );
    assert!(
        false_pos <= 5,
        "fresh images should rarely sit within c·r of the catalog"
    );
    println!("ok: ball-cover screening behaves as Lemma 5 promises");
}
