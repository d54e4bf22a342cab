//! The micro-batching request queue in front of the worker pool.
//!
//! Single queries (the TCP serving path: many connections, one query
//! each) enter through a channel as ready-to-run [`QueryJob`]s — the
//! batcher has no request type of its own. A collector thread groups
//! whatever is waiting — up to `batch_size` jobs, waiting at most
//! `max_wait` after the first — and hands the group to the pool as one
//! shard per worker, amortizing channel and mutex traffic over several
//! queries.
//!
//! The channel is unbounded, like the pool's, so enqueueing never blocks
//! the reactor thread. What bounds it is upstream: a connection has at
//! most one query in flight and a blocking caller waits for its answer,
//! so the queue holds at most one job per connection or caller thread.

use crate::pool::{QueryJob, WorkerPool};
use crate::stats::StatsCollector;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The queue plus its collector thread. Dropping it closes the
/// queue and joins the collector (which flushes whatever is pending).
pub(crate) struct BatchQueue {
    requests: Option<Sender<QueryJob>>,
    collector: Option<JoinHandle<()>>,
}

impl BatchQueue {
    pub(crate) fn new(
        pool: Arc<WorkerPool>,
        stats: Arc<StatsCollector>,
        batch_size: usize,
        max_wait: Duration,
    ) -> Self {
        let (tx, rx) = channel::<QueryJob>();
        let batch_size = batch_size.max(1);
        let collector = std::thread::Builder::new()
            .name("pmlsh-batcher".to_string())
            .spawn(move || collector_loop(&rx, &pool, &stats, batch_size, max_wait))
            .expect("failed to spawn engine batcher thread");
        Self {
            requests: Some(tx),
            collector: Some(collector),
        }
    }

    /// Enqueues one request; never blocks.
    pub(crate) fn enqueue(&self, job: QueryJob) {
        self.requests
            .as_ref()
            .expect("batch queue already shut down")
            .send(job)
            .expect("engine batcher exited");
    }
}

impl Drop for BatchQueue {
    fn drop(&mut self) {
        drop(self.requests.take());
        if let Some(handle) = self.collector.take() {
            let _ = handle.join();
        }
    }
}

fn collector_loop(
    rx: &Receiver<QueryJob>,
    pool: &WorkerPool,
    stats: &StatsCollector,
    batch_size: usize,
    max_wait: Duration,
) {
    loop {
        // Block for the first request of the next batch.
        let Ok(first) = rx.recv() else { return };
        let mut batch = vec![first];
        let deadline = Instant::now() + max_wait;
        let mut disconnected = false;
        while batch.len() < batch_size {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => batch.push(job),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        stats.record_batch(batch.len());
        pool.submit_sharded(batch);
        if disconnected {
            return;
        }
    }
}
