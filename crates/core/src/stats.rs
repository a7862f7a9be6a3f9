//! Search statistics: the instrumentation behind every figure in the
//! paper's evaluation (visited nodes, constraint evaluations, prunes,
//! elapsed time, timeout status) — plus [`BuildCharge`], the shared
//! accounting helper for runs that perform a filter build as a distinct
//! phase before their search, and [`LatencyHistogram`], the fixed-bucket
//! concurrent histogram behind the service layer's queue-wait and
//! dispatch-latency telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counters collected by one search run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Permutation-tree nodes visited (ECF/RWB) or covered-set extensions
    /// attempted (LNS).
    pub nodes_visited: u64,
    /// Constraint-expression evaluations (filter construction + lazy
    /// checks).
    pub constraint_evals: u64,
    /// Branches pruned because the candidate set became empty.
    pub prunes: u64,
    /// Feasible embeddings reported to the sink.
    pub solutions: u64,
    /// Filter cells materialized (0 for LNS — that is its point).
    pub filter_cells: u64,
    /// Subtree tasks published by the work-stealing parallel search's
    /// depth-bounded splitting (0 for sequential runs; the per-worker
    /// seed tasks are not counted — only dynamic re-splits).
    pub tasks_spawned: u64,
    /// Subtree tasks a worker executed that a *different* worker
    /// published (taken from the shared injector or a sibling's deque).
    /// `> 0` proves load actually moved between workers.
    pub tasks_stolen: u64,
    /// Filter builds this run avoided because a service-layer filter
    /// cache (the `service` crate's `FilterCache`, keyed by model
    /// epoch) already held the matrix. 0 for engine-level runs; the
    /// service's prepared-query path sets it to 1 per cache hit, so a
    /// repeated-submit loop proves "exactly one build" by summing this
    /// across responses.
    pub filter_cache_hits: u64,
    /// Worker-pool threads that were already alive *before this run
    /// began* (parked from an earlier run) and served this parallel
    /// search. Equals the worker count on a fully warm
    /// [`WorkerPool`](crate::WorkerPool) — i.e. the run spawned zero
    /// new threads — and 0 on a cold pool or a sequential run; threads
    /// spawned by the run's own filter-build fan-out count as new, not
    /// warm.
    pub pool_reuse: u64,
    /// 1 when this run rode along in a cross-request planner group led
    /// by another request: it reused the group's pinned filter without
    /// ever touching the shared cache (the `service` crate's planner
    /// sets it; engine-level runs report 0). A planner burst of N
    /// equivalent requests therefore proves "exactly one build" by
    /// `Σ filter_cache_hits + Σ coalesced_requests == N - 1`.
    pub coalesced_requests: u64,
    /// 1 when this run's filter came from *waiting on another thread's
    /// in-flight build* of the same key (the service filter cache's
    /// concurrent-miss deduplication) instead of building its own copy.
    /// Such a run also reports `filter_cache_hits = 1` — the wait is
    /// how the hit was delivered.
    pub dedup_waits: u64,
    /// How many registry deltas behind the feed head the serving model
    /// snapshot was when this run was admitted — 0 for a fresh model
    /// (or any engine-level run). Set by the service layer when a
    /// degraded model feed serves under a bounded-staleness policy; a
    /// non-zero value means the result is correct against a known-old
    /// epoch, not necessarily against the live world.
    pub staleness_lag: u64,
    /// Coarsening levels of the substrate hierarchy a hierarchical run
    /// refined through (0 for flat runs, or when the host was already
    /// below the coarsening floor).
    pub hier_levels: u64,
    /// Super-node candidates a hierarchical run pruned across all
    /// levels (degree gate, abstract node verdicts and arc-consistency
    /// combined) — each pruned super-node removed its whole subtree
    /// from the exact search.
    pub hier_pruned: u64,
    /// Filter cells the hierarchical run actually expanded at the host
    /// level: the sum of the per-query-node restricted candidate sets.
    /// Compare against [`SearchStats::hier_full_cells`] for the
    /// pruning ratio.
    pub hier_expanded_cells: u64,
    /// The full `|VQ|·|VR|` cell count a flat run would have scanned.
    pub hier_full_cells: u64,
    /// 1 when the service's `HierarchyCache` already held (or another
    /// request was already building) the coarsened substrate for this
    /// `(host, epoch)` and the run skipped hierarchy construction
    /// entirely (0 for engine-level runs and cache misses).
    pub hierarchy_cache_hits: u64,
    /// 1 when a superseded cached filter was repaired **in place** to
    /// this run's epoch ([`FilterMatrix::patch`](crate::FilterMatrix)):
    /// only the dirty-set rows were re-evaluated and the run then hit
    /// the patched entry instead of rebuilding. 0 for engine-level
    /// runs; the service's prepared-query path sets it.
    pub patches: u64,
    /// 1 when an in-place patch was *attempted* but had to fall back to
    /// a full rebuild — the delta admitted a new candidate (an addition
    /// a subtractive patch cannot express) or the patch budget expired.
    /// Such a run pays a normal cache miss.
    pub patch_rebuilds: u64,
    /// Wall-clock time of the whole run (filter construction + search).
    ///
    /// This is always the *caller-observed* duration: the parallel search
    /// sets it from its own `start.elapsed()` after joining the workers,
    /// never by accumulating per-worker durations (those go to
    /// [`SearchStats::cpu_time`]).
    pub elapsed: Duration,
    /// Aggregate time spent inside search workers. For a sequential run
    /// this equals [`SearchStats::elapsed`]; for a parallel run it is the
    /// *sum* of the workers' individual search durations and can exceed
    /// `elapsed` by up to the worker count.
    pub cpu_time: Duration,
    /// True when the deadline expired before the search space was
    /// exhausted.
    pub timed_out: bool,
}

impl SearchStats {
    /// Merge counters from a worker (parallel search).
    ///
    /// Work counters sum; `filter_cells` takes the max (workers share one
    /// filter); `staleness_lag` takes the max (workers share one model
    /// snapshot, so the values are equal anyway); `cpu_time` sums (it is
    /// per-worker search time by definition). `elapsed` is deliberately
    /// **not** summed — per-worker
    /// durations overlap in wall time, so the merged value keeps the max
    /// as a lower bound and the parallel driver overwrites it with the
    /// authoritative caller-side `start.elapsed()` afterwards.
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.constraint_evals += other.constraint_evals;
        self.prunes += other.prunes;
        self.solutions += other.solutions;
        self.filter_cells = self.filter_cells.max(other.filter_cells);
        self.tasks_spawned += other.tasks_spawned;
        self.tasks_stolen += other.tasks_stolen;
        self.filter_cache_hits += other.filter_cache_hits;
        self.coalesced_requests += other.coalesced_requests;
        self.dedup_waits += other.dedup_waits;
        self.pool_reuse += other.pool_reuse;
        self.staleness_lag = self.staleness_lag.max(other.staleness_lag);
        self.hier_levels = self.hier_levels.max(other.hier_levels);
        self.hier_pruned = self.hier_pruned.max(other.hier_pruned);
        self.hier_expanded_cells = self.hier_expanded_cells.max(other.hier_expanded_cells);
        self.hier_full_cells = self.hier_full_cells.max(other.hier_full_cells);
        self.hierarchy_cache_hits += other.hierarchy_cache_hits;
        self.patches += other.patches;
        self.patch_rebuilds += other.patch_rebuilds;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.cpu_time += other.cpu_time;
        self.timed_out |= other.timed_out;
    }
}

/// The shared accounting contract for runs that perform a filter build
/// as a separate phase before their search — the idiom that used to be
/// copy-pasted across `Engine::run_with_scratch`'s parallel branch,
/// `parallel::search_with_scratch` and the service's cached-run path,
/// now stated once:
///
/// 1. snapshot the worker pool's lifetime spawn count **before** the
///    build ([`BuildCharge::begin`]);
/// 2. build, then record the build phase's end
///    ([`BuildCharge::finish_build`]) — everything the pool spawned in
///    between is *build fan-out*, not warm capacity;
/// 3. run the search, charging it only the budget the build left over
///    ([`BuildCharge::remaining`]);
/// 4. fold the build phase into the run's stats: evals and wall/cpu
///    time via [`BuildCharge::charge_build`] (for callers that kept the
///    build's counters separate), and **always** the `pool_reuse`
///    correction via [`BuildCharge::settle_pool_reuse`] — the search
///    stage credits every pre-existing pool thread as warm, so exactly
///    the build-phase spawns must be deducted (a cold run reports 0,
///    a partially warm pool keeps credit for its genuinely warm
///    threads, and search-stage spawns are never deducted because they
///    were never credited).
#[derive(Debug)]
pub struct BuildCharge {
    start: Instant,
    /// Set by [`BuildCharge::mark_build_start`] when real build work
    /// begins later than `begin()` — e.g. a run that first blocked on
    /// another thread's in-flight build. Wall time before this mark is
    /// charged to `elapsed` but never to `cpu_time` (a parked thread
    /// does no work).
    build_start: Option<Instant>,
    spawned_before: u64,
    build_spawned: u64,
    spent: Duration,
    build_spent: Duration,
}

impl BuildCharge {
    /// Start the build phase: `spawned_before` is the pool's
    /// [`spawned_total`](crate::WorkerPool::spawned_total) right now
    /// (pass 0 for builds that cannot fan out).
    pub fn begin(spawned_before: u64) -> Self {
        BuildCharge {
            start: Instant::now(),
            build_start: None,
            spawned_before,
            build_spawned: 0,
            spent: Duration::ZERO,
            build_spent: Duration::ZERO,
        }
    }

    /// Record that actual build *work* starts now — everything since
    /// `begin()` was waiting (blocked on someone else's build), which
    /// consumes the budget and the caller's wall clock but no CPU.
    /// Without this mark the whole phase counts as build work.
    pub fn mark_build_start(&mut self) {
        self.build_start = Some(Instant::now());
    }

    /// End the build phase: `spawned_after` is the pool's spawn count
    /// now. Records the phase's wall time (and the build-work portion
    /// of it) and its thread fan-out.
    pub fn finish_build(&mut self, spawned_after: u64) {
        self.build_spawned = spawned_after.saturating_sub(self.spawned_before);
        self.spent = self.start.elapsed();
        self.build_spent = match self.build_start {
            Some(build_start) => build_start.elapsed(),
            None => self.spent,
        };
    }

    /// Wall time the build phase consumed (valid after
    /// [`BuildCharge::finish_build`]).
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Threads the build fan-out spawned (valid after
    /// [`BuildCharge::finish_build`]).
    pub fn build_spawned(&self) -> u64 {
        self.build_spawned
    }

    /// The budget the build left for the search stage: `timeout` minus
    /// the build's wall time, saturating at zero (`None` stays
    /// unlimited). Later cache hitters never pay this — only the run
    /// that actually built.
    pub fn remaining(&self, timeout: Option<Duration>) -> Option<Duration> {
        timeout.map(|t| t.saturating_sub(self.spent))
    }

    /// The budget left *right now*: `timeout` minus everything elapsed
    /// since [`BuildCharge::begin`], saturating at zero. For callers
    /// that burned wall time **before** starting their build — e.g. a
    /// run that waited on another thread's in-flight build, saw it
    /// abandoned, and took over as the new builder — so the build phase
    /// itself runs on what the wait left over, never on a fresh copy of
    /// the original budget.
    pub fn remaining_now(&self, timeout: Option<Duration>) -> Option<Duration> {
        timeout.map(|t| t.saturating_sub(self.start.elapsed()))
    }

    /// Fold separately-collected build counters into the run's stats:
    /// the build's constraint evaluations, the whole phase's wall time
    /// into `elapsed`, and only the build-*work* portion into
    /// `cpu_time` — time spent blocked before
    /// [`BuildCharge::mark_build_start`] (waiting on someone else's
    /// build) is wall time, not CPU. The build work itself is
    /// single-stream from the run's point of view (its internal
    /// fan-out already summed into `build_stats` by the builder).
    pub fn charge_build(&self, stats: &mut SearchStats, build_stats: &SearchStats) {
        stats.constraint_evals += build_stats.constraint_evals;
        stats.elapsed += self.spent;
        stats.cpu_time += self.build_spent;
    }

    /// Deduct exactly the build-phase spawns from the run's
    /// `pool_reuse` credit. See the type docs for why this is the whole
    /// correction: the search stage credits pre-existing threads only,
    /// so build fan-out is the one source of wrongly-counted "warmth".
    pub fn settle_pool_reuse(&self, stats: &mut SearchStats) {
        stats.pool_reuse = stats.pool_reuse.saturating_sub(self.build_spawned);
    }
}

/// Number of buckets in a [`LatencyHistogram`]: bucket 0 is `< 1µs`,
/// bucket `i ≥ 1` covers `[2^(i−1) µs, 2^i µs)`, and the last bucket is
/// the overflow catch-all (everything ≥ ~2.1 s).
pub const LATENCY_BUCKETS: usize = 23;

fn latency_bucket(d: Duration) -> usize {
    let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    let idx = (u64::BITS - micros.leading_zeros()) as usize;
    idx.min(LATENCY_BUCKETS - 1)
}

/// Upper bound (exclusive) of bucket `i`, in microseconds; the overflow
/// bucket reports `u64::MAX`.
fn bucket_upper_micros(i: usize) -> u64 {
    if i >= LATENCY_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// A concurrent fixed-bucket latency histogram: power-of-two microsecond
/// buckets, lock-free recording (one relaxed atomic increment per
/// sample), bounded memory regardless of traffic. This is the overload-
/// observability primitive behind the service's queue-wait and
/// dispatch-latency telemetry: under a shedding burst the *distribution*
/// is the signal (is the queue wait collapsing or fanning out into the
/// tail?), which counters and EWMAs cannot show.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (relaxed; safe from any thread).
    pub fn record(&self, sample: Duration) {
        self.buckets[latency_bucket(sample)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts. Racy by nature (a
    /// concurrent `record` may or may not be included), which is fine
    /// for telemetry.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// A frozen copy of a [`LatencyHistogram`]: plain counts, `Copy`, safe
/// to embed in telemetry structs and compare in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`LATENCY_BUCKETS`] for the bucket
    /// boundaries).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`), or `None` for an empty histogram. Bucketed, so
    /// an upper *bound*, not an exact order statistic: `quantile(0.5)`
    /// of samples all in `[2, 4) µs` reports 4 µs.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Duration::from_micros(bucket_upper_micros(i)));
            }
        }
        None
    }

    /// Accumulate another snapshot into this one (bucket-wise sum).
    /// This is the roll-up primitive for per-shard telemetry: merging
    /// every shard's snapshot yields exactly the histogram one shared
    /// recorder would have produced, since the buckets are aligned.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// One-line human summary (`count, p50, p90, p99, max-bucket`) for
    /// CLI/diagnostic output. Quantiles are bucket upper bounds.
    pub fn summary(&self) -> String {
        let fmt = |d: Option<Duration>| match d {
            None => "-".to_string(),
            Some(d) if d == Duration::from_micros(u64::MAX) => ">2s".to_string(),
            Some(d) => format!("{d:?}"),
        };
        format!(
            "n={} p50<{} p90<{} p99<{}",
            self.count(),
            fmt(self.quantile(0.5)),
            fmt(self.quantile(0.9)),
            fmt(self.quantile(0.99)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            nodes_visited: 10,
            constraint_evals: 100,
            prunes: 5,
            solutions: 1,
            filter_cells: 50,
            tasks_spawned: 3,
            tasks_stolen: 1,
            filter_cache_hits: 1,
            coalesced_requests: 1,
            dedup_waits: 0,
            pool_reuse: 2,
            staleness_lag: 3,
            hier_levels: 4,
            hier_pruned: 90,
            hier_expanded_cells: 12,
            hier_full_cells: 120,
            hierarchy_cache_hits: 1,
            patches: 1,
            patch_rebuilds: 0,
            elapsed: Duration::from_millis(20),
            cpu_time: Duration::from_millis(20),
            timed_out: false,
        };
        let b = SearchStats {
            nodes_visited: 7,
            constraint_evals: 30,
            prunes: 2,
            solutions: 0,
            filter_cells: 60,
            tasks_spawned: 2,
            tasks_stolen: 2,
            filter_cache_hits: 0,
            coalesced_requests: 1,
            dedup_waits: 1,
            pool_reuse: 4,
            staleness_lag: 1,
            hier_levels: 0,
            hier_pruned: 0,
            hier_expanded_cells: 0,
            hier_full_cells: 0,
            hierarchy_cache_hits: 1,
            patches: 1,
            patch_rebuilds: 1,
            elapsed: Duration::from_millis(35),
            cpu_time: Duration::from_millis(35),
            timed_out: true,
        };
        a.merge(&b);
        assert_eq!(a.nodes_visited, 17);
        assert_eq!(a.constraint_evals, 130);
        assert_eq!(a.prunes, 7);
        assert_eq!(a.solutions, 1);
        assert_eq!(a.filter_cells, 60); // max, filters are shared
        assert_eq!(a.tasks_spawned, 5); // sum, per-worker publishes
        assert_eq!(a.tasks_stolen, 3); // sum, per-worker steals
        assert_eq!(a.filter_cache_hits, 1); // sum, per-run hits
        assert_eq!(a.coalesced_requests, 2); // sum, per-run rides
        assert_eq!(a.dedup_waits, 1); // sum, per-run build waits
        assert_eq!(a.pool_reuse, 6); // sum, per-run warm threads
        assert_eq!(a.staleness_lag, 3); // max, one shared model snapshot
        assert_eq!(a.hier_levels, 4); // max, one driver-side refinement
        assert_eq!(a.hier_pruned, 90); // max, driver-side value survives
        assert_eq!(a.hier_expanded_cells, 12); // max, shared restriction
        assert_eq!(a.hier_full_cells, 120); // max, one shared matrix size
        assert_eq!(a.hierarchy_cache_hits, 2); // sum, per-run hits
        assert_eq!(a.patches, 2); // sum, per-run in-place repairs
        assert_eq!(a.patch_rebuilds, 1); // sum, per-run patch fallbacks
        assert_eq!(a.elapsed, Duration::from_millis(35)); // max, wall-clock
        assert_eq!(a.cpu_time, Duration::from_millis(55)); // sum, cpu-time
        assert!(a.timed_out);
    }

    #[test]
    fn build_charge_contract() {
        // Cold pool: the build fans out from 0 to 4 threads; the search
        // stage then credits those same 4 as "already alive" — settle
        // must zero the credit out.
        let mut charge = BuildCharge::begin(0);
        charge.finish_build(4);
        assert_eq!(charge.build_spawned(), 4);
        let mut stats = SearchStats {
            pool_reuse: 4,
            ..SearchStats::default()
        };
        charge.settle_pool_reuse(&mut stats);
        assert_eq!(stats.pool_reuse, 0, "cold run must report no reuse");

        // Partially warm: 2 threads predate the run, the build spawns 2
        // more; only the build's 2 are deducted.
        let mut charge = BuildCharge::begin(2);
        charge.finish_build(4);
        assert_eq!(charge.build_spawned(), 2);
        let mut stats = SearchStats {
            pool_reuse: 4,
            ..SearchStats::default()
        };
        charge.settle_pool_reuse(&mut stats);
        assert_eq!(stats.pool_reuse, 2, "warm threads keep their credit");

        // No fan-out at all (sequential build, fully warm pool): the
        // settle is a no-op, never an over-deduction.
        let mut charge = BuildCharge::begin(4);
        charge.finish_build(4);
        let mut stats = SearchStats {
            pool_reuse: 4,
            ..SearchStats::default()
        };
        charge.settle_pool_reuse(&mut stats);
        assert_eq!(stats.pool_reuse, 4);
    }

    #[test]
    fn build_charge_budget_and_counters() {
        let mut charge = BuildCharge::begin(0);
        std::thread::sleep(Duration::from_millis(5));
        charge.finish_build(0);
        assert!(charge.spent() >= Duration::from_millis(5));

        // The search budget is what the build left over, floored at 0;
        // unlimited stays unlimited.
        assert_eq!(charge.remaining(None), None);
        let rem = charge.remaining(Some(Duration::from_secs(1))).unwrap();
        assert!(rem < Duration::from_secs(1));
        assert_eq!(
            charge.remaining(Some(Duration::from_nanos(1))),
            Some(Duration::ZERO),
            "an overspent budget floors at zero, never underflows"
        );

        // charge_build folds the build's evals and wall time into a
        // separately-collected run.
        let build_stats = SearchStats {
            constraint_evals: 12,
            ..SearchStats::default()
        };
        let mut run_stats = SearchStats {
            constraint_evals: 3,
            elapsed: Duration::from_millis(1),
            cpu_time: Duration::from_millis(1),
            ..SearchStats::default()
        };
        charge.charge_build(&mut run_stats, &build_stats);
        assert_eq!(run_stats.constraint_evals, 15);
        assert_eq!(run_stats.elapsed, Duration::from_millis(1) + charge.spent());
        assert_eq!(
            run_stats.cpu_time,
            Duration::from_millis(1) + charge.spent(),
            "without a build-start mark the whole phase is build work"
        );
    }

    #[test]
    fn build_charge_splits_wait_from_build_work() {
        // A takeover builder: blocked on someone else's build first,
        // then built itself. The wait charges the wall clock (elapsed,
        // budget) but never cpu_time.
        let mut charge = BuildCharge::begin(0);
        std::thread::sleep(Duration::from_millis(8)); // "waiting"
        charge.mark_build_start();
        std::thread::sleep(Duration::from_millis(2)); // "building"
        charge.finish_build(0);

        let mut stats = SearchStats::default();
        charge.charge_build(&mut stats, &SearchStats::default());
        assert!(stats.elapsed >= Duration::from_millis(10), "wait + build");
        assert!(stats.cpu_time >= Duration::from_millis(2));
        assert!(
            stats.elapsed >= stats.cpu_time + Duration::from_millis(6),
            "the wait portion must be missing from cpu_time (elapsed {:?}, cpu {:?})",
            stats.elapsed,
            stats.cpu_time
        );
        // The budget, in contrast, is charged for the *whole* phase.
        assert_eq!(
            charge.remaining(Some(Duration::from_millis(5))),
            Some(Duration::ZERO),
            "waiting consumes the budget even though it is not CPU time"
        );
    }

    #[test]
    fn merge_never_sums_elapsed() {
        // Regression: merging N workers each reporting `elapsed = t` must
        // not produce `N * t` — overlapping wall time is not additive.
        let worker = SearchStats {
            elapsed: Duration::from_millis(10),
            cpu_time: Duration::from_millis(10),
            ..SearchStats::default()
        };
        let mut merged = SearchStats::default();
        for _ in 0..4 {
            merged.merge(&worker);
        }
        assert_eq!(merged.elapsed, Duration::from_millis(10));
        assert_eq!(merged.cpu_time, Duration::from_millis(40));
    }

    #[test]
    fn latency_buckets_partition_the_range() {
        // Sub-microsecond → bucket 0; exact powers of two open a new
        // bucket; the overflow bucket swallows everything huge.
        assert_eq!(latency_bucket(Duration::ZERO), 0);
        assert_eq!(latency_bucket(Duration::from_nanos(999)), 0);
        assert_eq!(latency_bucket(Duration::from_micros(1)), 1);
        assert_eq!(latency_bucket(Duration::from_micros(2)), 2);
        assert_eq!(latency_bucket(Duration::from_micros(3)), 2);
        assert_eq!(latency_bucket(Duration::from_micros(4)), 3);
        assert_eq!(
            latency_bucket(Duration::from_secs(3600)),
            LATENCY_BUCKETS - 1
        );
        // Every bucket's samples sit strictly below its upper bound.
        for i in 0..LATENCY_BUCKETS - 1 {
            let upper = bucket_upper_micros(i);
            assert!(latency_bucket(Duration::from_micros(upper.saturating_sub(1))) <= i);
            assert_eq!(latency_bucket(Duration::from_micros(upper)), i + 1);
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().quantile(0.5), None);
        // 90 fast samples, 10 slow ones: p50 is fast, p99 is slow.
        for _ in 0..90 {
            h.record(Duration::from_micros(3));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(40));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.quantile(0.5), Some(Duration::from_micros(4)));
        assert_eq!(snap.quantile(0.9), Some(Duration::from_micros(4)));
        // 40 ms lands in the [32768, 65536) µs bucket.
        assert_eq!(snap.quantile(0.99), Some(Duration::from_micros(65536)));
        assert!(snap.summary().starts_with("n=100 "));
        // Snapshots are plain values: equality and copy semantics.
        let again = snap;
        assert_eq!(again, h.snapshot());
    }

    #[test]
    fn histogram_merge_equals_shared_recorder() {
        // Two disjoint recorders merged bucket-wise must equal one
        // recorder that saw all the traffic — the per-shard roll-up
        // contract.
        let (a, b, shared) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for i in 0..50u64 {
            let d = Duration::from_micros(1 << (i % 12));
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            shared.record(d);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, shared.snapshot());
        assert_eq!(merged.count(), 50);
        // Merging an empty snapshot is the identity.
        merged.merge(&HistogramSnapshot::default());
        assert_eq!(merged, shared.snapshot());
    }
}
