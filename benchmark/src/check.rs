//! Correctness: the linear-scan oracle, reply validation against the
//! script's mirror, and bit-equality with the in-process answer.

use crate::wire::{self, Packed};
use crate::workload::{Op, Script, Spec, BATCH_OPS};
use pm_lsh_core::{MutOp, QueryContext};
use pm_lsh_engine::ShardedEngine;
use pm_lsh_metric::{euclidean, Dataset, Neighbor, TopK};

/// Exact k-NN of every scored query against the live set *as of that
/// query's position in the script* (corpus rows plus the script's inserts,
/// minus its deletes) — the linear-scan mirror. Queries are processed in
/// blocks so each row is read once per block, not once per query: at
/// d = 4096 the scan is otherwise bound by re-streaming 190 MiB per query.
pub fn oracle(corpus: &Dataset, script: &Script, k: usize) -> Vec<Vec<Neighbor>> {
    const BLOCK: usize = 8;
    let scored: Vec<(usize, u32)> = script.scored_queries().collect();
    let rows = script.born.len();
    let row = |id: usize| {
        if id < corpus.len() {
            corpus.point(id)
        } else {
            script.points.point(id - corpus.len())
        }
    };
    let mut truth = vec![Vec::new(); scored.len()];
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let per_thread = scored
        .len()
        .div_ceil(threads)
        .next_multiple_of(BLOCK)
        .max(BLOCK);
    std::thread::scope(|scope| {
        for (part, out) in scored.chunks(per_thread).zip(truth.chunks_mut(per_thread)) {
            scope.spawn(move || {
                for (block, out) in part.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
                    let mut tops: Vec<TopK> = block.iter().map(|_| TopK::new(k)).collect();
                    for id in 0..rows {
                        let p = row(id);
                        for ((op, q), top) in block.iter().zip(&mut tops) {
                            if script.live_at(id, *op) {
                                top.push(
                                    euclidean(script.queries.point(*q as usize), p),
                                    id as u32,
                                );
                            }
                        }
                    }
                    for (top, slot) in tops.into_iter().zip(out) {
                        *slot = top.into_sorted_vec();
                    }
                }
            });
        }
    });
    truth
}

/// Eq. 12 and Eq. 11 averaged over the scored queries.
pub fn quality(found: &[Vec<Neighbor>], truth: &[Vec<Neighbor>]) -> (f64, f64) {
    let n = truth.len() as f64;
    let recall: f64 = found
        .iter()
        .zip(truth)
        .map(|(f, t)| pm_lsh_data::recall(f, t))
        .sum();
    let ratio: f64 = found
        .iter()
        .zip(truth)
        .map(|(f, t)| pm_lsh_data::overall_ratio(f, t))
        .sum();
    (recall / n, ratio / n)
}

pub fn bit_equal(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

/// What validating a run's replies found.
pub struct Verdict {
    /// Ops whose reply was an `ERR`, malformed, or differed from the mirror.
    pub failed: usize,
    /// Decoded answers of the scored queries, in order.
    pub scored: Vec<Vec<Neighbor>>,
    /// First few problems, for the human reading stderr.
    pub notes: Vec<String>,
}

/// Checks every reply against the script: queries must decode to exactly
/// `min(k, live)` neighbours in ascending `(dist, id)` order; writes must
/// report the id and live count the mirror predicts.
pub fn validate(spec: &Spec, script: &Script, replies: &Packed) -> Verdict {
    let mut v = Verdict {
        failed: 0,
        scored: Vec::new(),
        notes: Vec::new(),
    };
    for (i, op) in script.ops.iter().enumerate() {
        let reply = replies.get(i);
        let live = script.live_after[i];
        let problem = match op {
            Op::Query(_) => {
                let decoded = wire::decode_neighbors(spec.framing, reply);
                if i < script.scored_ops {
                    v.scored.push(decoded.clone().unwrap_or_default());
                }
                match decoded {
                    Ok(found) if found.len() != spec.k.min(live) => Some(format!(
                        "{} neighbours, expected {}",
                        found.len(),
                        spec.k.min(live)
                    )),
                    Ok(found) if !found.windows(2).all(|w| w[0] <= w[1]) => {
                        Some("neighbours not sorted".to_string())
                    }
                    Ok(_) => None,
                    Err(e) => Some(e),
                }
            }
            Op::Insert(row) => expect_fields(
                reply,
                &[
                    format!("id={}", spec.n as u32 + row),
                    format!("points={live}"),
                ],
            ),
            Op::Delete(id) => expect_fields(
                reply,
                &["deleted".into(), id.to_string(), format!("points={live}")],
            ),
            Op::Batch(_) => expect_fields(
                reply,
                &[
                    format!("applied={BATCH_OPS}"),
                    "failed=0".into(),
                    format!("points={live}"),
                ],
            ),
        };
        if let Some(problem) = problem {
            v.failed += 1;
            if v.notes.len() < 5 {
                v.notes.push(format!("op {i}: {problem}"));
            }
        }
    }
    v
}

/// `None` when `reply` is an `OK` line carrying every wanted field.
fn expect_fields(reply: &[u8], want: &[String]) -> Option<String> {
    let line = String::from_utf8_lossy(reply);
    let fields: Vec<&str> = line.split_ascii_whitespace().collect();
    if fields.first() != Some(&"OK") {
        return Some(format!("'{line}'"));
    }
    want.iter()
        .find(|w| !fields.contains(&w.as_str()))
        .map(|w| format!("'{line}' lacks '{w}'"))
}

/// The in-process answers the scored wire replies must equal bit for bit.
///
/// Read-only workloads: `PmLsh::query_into` on the served snapshot (the
/// epoch never moves). `deep_churn`: the scored prefix of the script
/// replayed against `twin`, an identically built engine, so every query
/// is answered on the same epoch the wire query saw.
pub fn reference(
    spec: &Spec,
    script: &Script,
    served: &ShardedEngine,
    twin: Option<&ShardedEngine>,
) -> Vec<Vec<Neighbor>> {
    let mut out = Vec::new();
    match twin {
        None => {
            // Pure reads of one immutable snapshot: split across the cores.
            let index = served.shards()[0].index();
            let rows: Vec<u32> = script.scored_queries().map(|(_, q)| q).collect();
            out = vec![Vec::new(); rows.len()];
            let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
            let per_thread = rows.len().div_ceil(threads).max(1);
            std::thread::scope(|scope| {
                for (rows, out) in rows.chunks(per_thread).zip(out.chunks_mut(per_thread)) {
                    let index = &index;
                    scope.spawn(move || {
                        let mut ctx = QueryContext::new();
                        for (q, found) in rows.iter().zip(out) {
                            index.query_into(
                                script.queries.point(*q as usize),
                                spec.k,
                                index.params().c,
                                &mut ctx,
                                found,
                            );
                        }
                    });
                }
            });
        }
        Some(twin) => {
            for op in &script.ops[..script.scored_ops] {
                if let Some(found) = apply_in_process(script, twin, op, spec.k) {
                    out.push(found);
                }
            }
        }
    }
    out
}

/// Runs one script op against an engine directly; queries return their
/// neighbours. Panics if the engine refuses a write — the script only
/// holds writes the mirror proved valid.
fn apply_in_process(
    script: &Script,
    engine: &ShardedEngine,
    op: &Op,
    k: usize,
) -> Option<Vec<Neighbor>> {
    match op {
        Op::Query(q) => Some(engine.query(script.queries.point(*q as usize), k).neighbors),
        Op::Insert(row) => {
            engine
                .insert(script.points.point(*row as usize))
                .expect("scripted insert");
            None
        }
        Op::Delete(id) => {
            engine.delete(*id).expect("scripted delete");
            None
        }
        Op::Batch(ops) => {
            engine.apply(&mut_ops(script, ops)).expect("scripted batch");
            None
        }
    }
}

fn mut_ops(script: &Script, ops: &[Op]) -> Vec<MutOp> {
    ops.iter()
        .map(|op| match op {
            Op::Insert(row) => MutOp::Insert(script.points.point(*row as usize).to_vec()),
            Op::Delete(id) => MutOp::Delete(*id),
            _ => unreachable!("a batch holds only inserts and deletes"),
        })
        .collect()
}

/// `PmTree::verify_invariants` on every shard's current snapshot.
pub fn invariants(served: &ShardedEngine) -> Result<(), String> {
    for (s, shard) in served.shards().iter().enumerate() {
        shard
            .index()
            .tree()
            .verify_invariants()
            .map_err(|e| format!("shard {s}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, script, Shape};
    use pm_lsh_data::Generator;

    #[test]
    fn oracle_follows_the_mirror_through_churn() {
        let spec = Spec {
            n: 400,
            ..*find("deep_churn").unwrap()
        };
        let gen = Generator::new(spec.synth());
        let corpus = gen.dataset();
        let shape = Shape::Churn {
            cycles: 5,
            queries: 21,
        };
        let s = script(&spec, &gen, shape, 1, usize::MAX);
        let truth = oracle(&corpus, &s, 10);
        assert_eq!(truth.len(), 105);
        // Brute force one query by hand at its own epoch.
        let (op, q) = s.query_ops().nth(60).unwrap();
        let mut top = TopK::new(10);
        for id in 0..s.born.len() {
            if s.live_at(id, op) {
                let p = if id < 400 {
                    corpus.point(id)
                } else {
                    s.points.point(id - 400)
                };
                top.push(euclidean(s.queries.point(q as usize), p), id as u32);
            }
        }
        assert!(bit_equal(&truth[60], &top.into_sorted_vec()));
        // No answer names a point that was dead at query time.
        for ((op, _), t) in s.query_ops().zip(&truth) {
            assert!(t.iter().all(|n| s.live_at(n.id as usize, op)));
        }
    }

    #[test]
    fn write_replies_are_checked_field_by_field() {
        assert!(expect_fields(
            b"OK id=7 epoch=3 points=9",
            &["id=7".into(), "points=9".into()]
        )
        .is_none());
        assert!(expect_fields(b"OK id=8 epoch=3 points=9", &["id=7".into()]).is_some());
        assert!(expect_fields(b"ERR unknown id 7", &[]).is_some());
        assert!(expect_fields(
            b"OK deleted 17 epoch=3 points=9",
            &["deleted".into(), "17".into()]
        )
        .is_none());
    }
}
