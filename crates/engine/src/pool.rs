//! A fixed pool of query workers over `std::thread` + `std::sync::mpsc`.
//!
//! Every job carries the immutable [`PmLsh`] snapshot it must be answered
//! against, pinned by the caller at enqueue time — the index is read-only
//! after build, so the queries themselves need no synchronization at all;
//! the only shared mutable state is the job channel and the stats
//! collector, and the only way out of the pool is the job's own reply
//! closure (one shape for blocking callers, the batch gather and the
//! serving reactor alike). Jobs travel in small vectors (a micro-batch
//! shard), so one channel receive and one mutex acquisition amortize
//! over several queries. Because the snapshot is pinned per request (and a whole
//! `query_batch` shares one pin per shard), a concurrent
//! [`crate::ShardedEngine::reindex`] swap never disturbs running work:
//! requests enqueued before the swap are answered by the old index,
//! requests after it by the new one, and a single batch is never split
//! across epochs.

use crate::stats::StatsCollector;
use pm_lsh_core::{PmLsh, QueryContext, QueryResult};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Test-only fault injection: a query whose FIRST component equals this
/// finite, validation-passing sentinel panics inside the worker's
/// catch_unwind, exercising the panicked-leg path
/// (`ShardedEngine::try_query -> Err(QueryError::Internal)`, `ERR internal
/// error` on the wire) that no validated input can reach. Keying the
/// injection on the job itself keeps concurrently running tests from
/// stealing each other's fault.
#[cfg(test)]
pub(crate) const CRASH_TEST_SENTINEL: f32 = 8.0e30;

/// One kNN request travelling through the micro-batcher and the pool —
/// one shard's leg of one logical query, built only by the scatter in
/// `crate::sharded`.
pub(crate) struct QueryJob {
    /// The snapshot this request was validated against and must be
    /// answered by (an `Arc` clone: a few ns, and what makes reindex
    /// swaps invisible to in-flight work).
    pub snapshot: Arc<PmLsh>,
    /// The query point (owned: the caller may return before workers run).
    pub query: Vec<f32>,
    /// Neighbors requested.
    pub k: usize,
    /// `Some(pooled_budget)` when this job is one shard's leg of a
    /// scatter-gather query: the worker answers it with
    /// [`PmLsh::query_fanout_into`], which spends the pooled candidate
    /// budget instead of stopping at the local (non-final) top-k.
    pub fanout_budget: Option<usize>,
    /// When the request entered the engine; latency is measured from here.
    pub enqueued: Instant,
    /// Invoked exactly once, on the worker thread, with the answer —
    /// `None` when the query panicked inside the worker's `catch_unwind`.
    /// A job dropped unrun (its pool shut down first) drops the closure
    /// uncalled.
    pub reply: Box<dyn FnOnce(Option<QueryResult>) + Send>,
}

/// The fixed worker pool. Dropping it closes the job channel and joins
/// every worker.
pub(crate) struct WorkerPool {
    jobs: Option<Sender<Vec<QueryJob>>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    pub(crate) fn new(threads: usize, stats: Arc<StatsCollector>) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Vec<QueryJob>>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("pmlsh-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &stats))
                    .expect("failed to spawn engine worker thread")
            })
            .collect();
        Self {
            jobs: Some(tx),
            workers,
            threads,
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Hands a shard of jobs to whichever worker picks it up first.
    pub(crate) fn submit(&self, shard: Vec<QueryJob>) {
        if shard.is_empty() {
            return;
        }
        self.jobs
            .as_ref()
            .expect("worker pool already shut down")
            .send(shard)
            .expect("all engine workers exited");
    }

    /// Splits `jobs` into one contiguous shard per worker and submits them,
    /// so a batch costs at most `threads` channel sends while still
    /// spreading across the whole pool. The single place sharding policy
    /// lives — both the batcher and `query_batch` go through here.
    pub(crate) fn submit_sharded(&self, mut jobs: Vec<QueryJob>) {
        if jobs.is_empty() {
            return;
        }
        let shard_len = jobs.len().div_ceil(self.threads);
        while jobs.len() > shard_len {
            let tail = jobs.split_off(shard_len);
            self.submit(std::mem::replace(&mut jobs, tail));
        }
        self.submit(jobs);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets every worker's recv() fail and exit.
        drop(self.jobs.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Vec<QueryJob>>>, stats: &StatsCollector) {
    // One long-lived QueryContext per worker thread: after the first few
    // queries its buffers reach the working-set high-water mark and the
    // whole query hot path stops allocating. The context is not tied to a
    // snapshot, so it survives reindex swaps (buffers resize on the next
    // query if the dimensionality changed), and a panicking query leaves
    // only stale-but-cleared-on-reuse state behind.
    let mut ctx = QueryContext::new();
    loop {
        // Hold the mutex only for the receive itself, never during a query.
        let shard = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling worker panicked mid-recv
        };
        let Ok(shard) = shard else { return };
        for job in shard {
            // Isolate panics to the offending job: the worker survives (the
            // pool never respawns threads), the rest of the shard still
            // runs, and only the panicking job's caller hears `None`.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(test)]
                if job.query.first() == Some(&CRASH_TEST_SENTINEL) {
                    panic!("injected worker panic (test only)");
                }
                let (snapshot, q, k) = (&job.snapshot, &job.query, job.k);
                let mut neighbors = Vec::new();
                let stats = match job.fanout_budget {
                    Some(budget) => {
                        snapshot.query_fanout_into(q, k, budget, &mut ctx, &mut neighbors)
                    }
                    None => {
                        snapshot.query_into(q, k, snapshot.params().c, &mut ctx, &mut neighbors)
                    }
                };
                QueryResult { neighbors, stats }
            }));
            if let Ok(result) = &outcome {
                stats.record_query(job.enqueued.elapsed(), &result.stats);
            }
            (job.reply)(outcome.ok());
        }
    }
}
