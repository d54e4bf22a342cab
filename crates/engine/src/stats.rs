//! Aggregate serving statistics: throughput, latency quantiles and summed
//! per-query execution counters.
//!
//! Workers record into a lock-free [`StatsCollector`] (atomic counters plus
//! a geometrically-bucketed latency histogram); [`EngineStats`] is a cheap
//! point-in-time snapshot. Quantiles are read from the histogram, so they
//! are exact to within one bucket (~25% relative width) — plenty for the
//! p50/p99 that `STATS` reports, at zero coordination cost on the hot
//! path.

use pm_lsh_core::QueryStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of histogram buckets. Bucket `i` covers latencies around
/// `GROWTH^i` nanoseconds; 256 buckets reach far beyond any real latency.
const BUCKETS: usize = 256;

/// Geometric growth factor between adjacent bucket boundaries.
const GROWTH: f64 = 1.25;

/// A point-in-time snapshot of an engine's serving statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Queries answered since the engine started.
    pub queries: u64,
    /// Mean throughput over the engine's lifetime, in queries per second.
    pub qps: f64,
    /// Mean per-query latency in milliseconds, measured from enqueue to
    /// completion — queue wait included. Note that `query_batch` enqueues
    /// its whole burst at one instant, so under a large batch these
    /// figures are dominated by position in the queue, exactly as they
    /// would be for a client that submitted the burst over a socket.
    pub mean_ms: f64,
    /// Median enqueue-to-completion latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile enqueue-to-completion latency, in milliseconds.
    pub p99_ms: f64,
    /// Pool submissions: runs of query legs dispatched together, at most
    /// `batch_size` legs each.
    pub batches: u64,
    /// Mean query legs per pool submission (1.0 when no two legs of this
    /// shard were ever dispatched together).
    pub mean_batch: f64,
    /// Execution counters summed over every answered query.
    pub query_stats: QueryStats,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} qps={:.1} mean_ms={:.3} p50_ms={:.3} p99_ms={:.3} \
             batches={} mean_batch={:.2} candidates={} proj_dists={} rounds={}",
            self.queries,
            self.qps,
            self.mean_ms,
            self.p50_ms,
            self.p99_ms,
            self.batches,
            self.mean_batch,
            self.query_stats.candidates_verified,
            self.query_stats.projected_dist_computations,
            self.query_stats.rounds,
        )
    }
}

/// Shared accumulator the worker pool and the leg dispatch record into.
#[derive(Debug)]
pub(crate) struct StatsCollector {
    started: Instant,
    queries: AtomicU64,
    total_latency_ns: AtomicU64,
    latency_buckets: Vec<AtomicU64>,
    candidates_verified: AtomicU64,
    projected_dist_computations: AtomicU64,
    rounds: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
}

impl StatsCollector {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            queries: AtomicU64::new(0),
            total_latency_ns: AtomicU64::new(0),
            latency_buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            candidates_verified: AtomicU64::new(0),
            projected_dist_computations: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
        }
    }

    /// Records one answered query: its end-to-end latency and counters.
    pub(crate) fn record_query(&self, latency: Duration, stats: &QueryStats) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.total_latency_ns.fetch_add(ns, Ordering::Relaxed);
        self.latency_buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.candidates_verified
            .fetch_add(stats.candidates_verified as u64, Ordering::Relaxed);
        self.projected_dist_computations
            .fetch_add(stats.projected_dist_computations, Ordering::Relaxed);
        self.rounds
            .fetch_add(stats.rounds as u64, Ordering::Relaxed);
    }

    /// Records one pool submission of `len` query legs.
    pub(crate) fn record_batch(&self, len: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(len as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> EngineStats {
        // Read the histogram buckets *before* the query counter. A writer
        // in `record_query` bumps `queries` first and its latency bucket
        // second, so sampling in the opposite order guarantees the counter
        // we report is never ahead of the histogram mass the quantiles are
        // computed from. (`quantile_ms` additionally derives its rank from
        // the summed bucket counts, not from `queries`, so a torn read can
        // shift a quantile by at most one in-flight sample — it can never
        // fall off the end of the histogram into the ~5e15 ms sentinel
        // bucket.)
        let counts: Vec<u64> = self
            .latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let queries = self.queries.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let total_ns = self.total_latency_ns.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        EngineStats {
            queries,
            qps: queries as f64 / elapsed,
            mean_ms: if queries == 0 {
                0.0
            } else {
                total_ns as f64 / queries as f64 / 1e6
            },
            p50_ms: quantile_ms(&counts, 0.50),
            p99_ms: quantile_ms(&counts, 0.99),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            query_stats: QueryStats {
                candidates_verified: self.candidates_verified.load(Ordering::Relaxed) as usize,
                projected_dist_computations: self
                    .projected_dist_computations
                    .load(Ordering::Relaxed),
                rounds: self.rounds.load(Ordering::Relaxed).min(u32::MAX as u64) as u32,
            },
        }
    }
}

fn bucket_index(latency_ns: u64) -> usize {
    if latency_ns <= 1 {
        return 0;
    }
    (((latency_ns as f64).ln() / GROWTH.ln()) as usize).min(BUCKETS - 1)
}

/// Representative latency of bucket `i`: the geometric middle of its range.
fn bucket_value_ns(i: usize) -> f64 {
    GROWTH.powi(i as i32) * GROWTH.sqrt()
}

/// Reads quantile `q` out of a latency histogram. The rank is derived
/// from the histogram's own summed counts (never from an external total,
/// which can race ahead of the buckets), so the walk always terminates
/// inside the recorded mass; the defensive fall-through returns the last
/// *non-empty* bucket rather than the empty top sentinel.
fn quantile_ms(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_value_ns(i) / 1e6;
        }
    }
    counts
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0.0, |i| bucket_value_ns(i) / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0;
        for ns in [1u64, 10, 100, 1_000, 100_000, 1_000_000, 1_000_000_000] {
            let b = bucket_index(ns);
            assert!(b >= last, "bucket({ns}) = {b} regressed below {last}");
            last = b;
        }
        assert!(last < BUCKETS);
    }

    #[test]
    fn bucket_resolution_is_within_growth_factor() {
        for ns in [537u64, 12_345, 9_876_543] {
            let mid = bucket_value_ns(bucket_index(ns));
            let ratio = mid / ns as f64;
            assert!(
                (1.0 / GROWTH..=GROWTH).contains(&ratio),
                "bucket mid {mid:.0} vs {ns}: ratio {ratio:.3}"
            );
        }
    }

    #[test]
    fn snapshot_reports_quantiles_and_sums() {
        let c = StatsCollector::new();
        for i in 1..=100u64 {
            let qs = QueryStats {
                candidates_verified: 2,
                projected_dist_computations: 3,
                rounds: 1,
            };
            c.record_query(Duration::from_micros(i * 10), &qs);
        }
        c.record_batch(4);
        let s = c.snapshot();
        assert_eq!(s.queries, 100);
        assert_eq!(s.query_stats.candidates_verified, 200);
        assert_eq!(s.query_stats.projected_dist_computations, 300);
        assert_eq!(s.query_stats.rounds, 100);
        assert_eq!(s.batches, 1);
        assert!((s.mean_batch - 4.0).abs() < 1e-12);
        // p50 should sit near 0.5 ms, p99 near 1 ms, within bucket slop.
        assert!(s.p50_ms > 0.3 && s.p50_ms < 0.8, "p50 {}", s.p50_ms);
        assert!(s.p99_ms > 0.7 && s.p99_ms < 1.4, "p99 {}", s.p99_ms);
        assert!(s.p50_ms <= s.p99_ms);
        assert!(s.qps > 0.0);
        let line = s.to_string();
        assert!(
            line.contains("queries=100") && line.contains("candidates=200"),
            "{line}"
        );
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = StatsCollector::new().snapshot();
        assert_eq!(s.queries, 0);
        assert_eq!(s.mean_ms, 0.0);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.p99_ms, 0.0);
    }

    /// Regression for the sentinel-bucket race: `record_query` bumps the
    /// query counter before the histogram bucket, so a snapshot taken
    /// between the two writes used to compute a rank beyond the summed
    /// bucket counts and fall through to `bucket_value_ns(BUCKETS - 1)`
    /// (~5e15 ms). Hammer the collector from several writers while a
    /// reader snapshots in a tight loop; every observed quantile must
    /// stay near the recorded latencies (~1 ms), far below the sentinel.
    #[test]
    fn concurrent_snapshots_never_report_the_sentinel_bucket() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let collector = Arc::new(StatsCollector::new());
        let stop = Arc::new(AtomicBool::new(false));
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 20_000;
        // Any sane recorded latency is ~1 ms; the sentinel bucket is
        // ~5e15 ms. A generous 1e6 ms ceiling separates the two by nine
        // orders of magnitude without being timing-sensitive.
        const CEILING_MS: f64 = 1e6;

        std::thread::scope(|scope| {
            let reader = {
                let collector = Arc::clone(&collector);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut snapshots = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let s = collector.snapshot();
                        assert!(
                            s.p50_ms < CEILING_MS && s.p99_ms < CEILING_MS,
                            "sentinel bucket leaked into quantiles: p50={} p99={}",
                            s.p50_ms,
                            s.p99_ms
                        );
                        assert!(s.p50_ms <= s.p99_ms, "p50 {} > p99 {}", s.p50_ms, s.p99_ms);
                        snapshots += 1;
                    }
                    snapshots
                })
            };
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let collector = Arc::clone(&collector);
                    scope.spawn(move || {
                        let qs = QueryStats {
                            candidates_verified: 1,
                            projected_dist_computations: 1,
                            rounds: 1,
                        };
                        for i in 0..PER_WRITER {
                            let ns = 1_000_000 + (w as u64 * PER_WRITER + i) % 1_000;
                            collector.record_query(Duration::from_nanos(ns), &qs);
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().expect("writer thread");
            }
            stop.store(true, Ordering::Relaxed);
            let snapshots = reader.join().expect("reader thread");
            assert!(snapshots > 0, "reader never snapshotted");
        });

        let s = collector.snapshot();
        assert_eq!(s.queries, WRITERS as u64 * PER_WRITER);
        // All latencies were ~1 ms; the quantiles must land in-bucket.
        assert!(s.p50_ms > 0.5 && s.p50_ms < 2.0, "p50 {}", s.p50_ms);
        assert!(s.p99_ms > 0.5 && s.p99_ms < 2.0, "p99 {}", s.p99_ms);
    }
}
