//! Fault-injection chaos harness for the overload-resilient service.
//!
//! Seeded long-run interleavings drive the planner through everything
//! ISSUE 6 makes survivable at once: concurrent submits at mixed
//! priorities and budgets, heavily oversubscribed bursts, epoch churn
//! (wholesale model swaps mid-flight), tickets dropped at arbitrary
//! lifecycle stages, reservation commits racing the registry, plus the
//! service's own fault injector forcing panics inside member runs and
//! abandoning designated filter builds.
//!
//! The harness never checks *schedules* — interleavings are free. It
//! checks the invariants that must hold regardless:
//!
//! - every delivered mapping re-verifies against one of the model
//!   snapshots that was live while the request was in flight;
//! - the admission ledger balances: `accepted + shed == submitted`;
//! - the queue-depth gauge returns to zero once every ticket is waited
//!   or dropped — no slot leaks through any shed/cancel/panic path;
//! - nothing is left behind: no undelivered results, no in-flight
//!   builds, parked scratches within their adaptive cap;
//! - the service still answers correctly afterwards (no poisoned lock
//!   ever escapes as a wedge).
//!
//! The default run is a CI-sized smoke (~30 seeded rounds); set
//! `NETEMBED_CHAOS_FULL=1` for the long nightly run. Worker counts
//! honour `NETEMBED_TEST_WORKERS` like the rest of the suite.

use netgraph::{Direction, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{
    AdmissionPolicy, FaultPlan, NetEmbedService, PlannedRequest, Priority, QueryResponse,
    ReservationManager, ServiceConfig, ServiceError, ShedMode, ShedReason,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use netembed::{Algorithm, Options, Outcome, SearchMode};

/// Worker counts exercised by the burst test. CI pins this via
/// `NETEMBED_TEST_WORKERS` (1–4), like `tests/planner.rs`.
fn test_workers() -> Vec<usize> {
    match std::env::var("NETEMBED_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => vec![1, 2, 4],
    }
}

/// Seeded rounds per chaos test: a small CI smoke by default, the long
/// soak when `NETEMBED_CHAOS_FULL` is set (nightly).
fn chaos_rounds() -> u64 {
    if std::env::var("NETEMBED_CHAOS_FULL").is_ok_and(|v| !v.is_empty() && v != "0") {
        300
    } else {
        30
    }
}

/// Six hosts in a ring + chords; `delay_scale` distinguishes the two
/// epoch-churn snapshots (every response must verify against one of
/// them).
fn ring_host(delay_scale: f64) -> Network {
    let mut h = Network::new(Direction::Undirected);
    let ids: Vec<_> = (0..6).map(|i| h.add_node(format!("h{i}"))).collect();
    for i in 0..6 {
        let e = h.add_edge(ids[i], ids[(i + 1) % 6]);
        h.set_edge_attr(e, "avgDelay", delay_scale * (10.0 + i as f64 * 5.0));
    }
    for (u, v) in [(0usize, 2), (1, 4), (3, 5)] {
        let e = h.add_edge(ids[u], ids[v]);
        h.set_edge_attr(e, "avgDelay", delay_scale * 12.0);
    }
    h
}

fn edge_query() -> Network {
    let mut q = Network::new(Direction::Undirected);
    let x = q.add_node("x");
    let y = q.add_node("y");
    q.add_edge(x, y);
    q
}

fn path_query() -> Network {
    let mut q = Network::new(Direction::Undirected);
    let a = q.add_node("a");
    let b = q.add_node("b");
    let c = q.add_node("c");
    q.add_edge(a, b);
    q.add_edge(b, c);
    q
}

/// Every mapping in `resp` must satisfy its constraint against at least
/// one of the snapshots that were live during the run (the registry
/// only ever holds one of the two, so the planner's epoch snapshot was
/// one of them).
fn assert_mappings_verify(
    resp: &QueryResponse,
    query: &Network,
    constraint: &str,
    snapshots: &[&Network],
) {
    for mapping in resp.mappings() {
        let ok = snapshots.iter().any(|host| {
            let problem = netembed::Problem::new(query, host, constraint)
                .expect("chaos constraints compile against every snapshot");
            netembed::check_mapping(&problem, mapping).is_ok()
        });
        assert!(
            ok,
            "delivered mapping verifies against no live snapshot \
             (constraint `{constraint}`): {mapping:?}"
        );
    }
}

/// A response from the chaos mix is acceptable iff it is a verified
/// success, a deterministic shed, an injected-panic `Internal`, or a
/// timed-out `Inconclusive` (deadline, hopeless-deadline shed, degrade
/// mode, truncated build — all indistinguishable by design).
fn classify(
    result: Result<QueryResponse, ServiceError>,
    query: &Network,
    constraint: &str,
    snapshots: &[&Network],
    tally: &Tally,
) {
    match result {
        Ok(resp) => {
            assert_mappings_verify(&resp, query, constraint, snapshots);
            if resp.stats.timed_out {
                tally.timed_out.fetch_add(1, Ordering::Relaxed);
            } else {
                assert!(
                    !matches!(resp.outcome, Outcome::Inconclusive),
                    "Inconclusive without timed_out from the chaos mix"
                );
                tally.delivered.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(ServiceError::Overloaded(_)) => {
            tally.shed.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServiceError::Internal(msg)) => {
            assert!(
                msg.contains("injected planner fault"),
                "unexpected internal panic: {msg}"
            );
            tally.injected.fetch_add(1, Ordering::Relaxed);
        }
        Err(other) => panic!("chaos surfaced an unexpected error: {other}"),
    }
}

#[derive(Default)]
struct Tally {
    delivered: AtomicU64,
    timed_out: AtomicU64,
    shed: AtomicU64,
    injected: AtomicU64,
    dropped: AtomicU64,
}

/// Counts finished threads on drop, unwinding included, so a thread
/// spinning on another's progress can tell "not yet" from "never".
struct Finished<'a>(&'a AtomicUsize);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Yield until `ready` holds: the handshake every spawned thread of
/// this harness performs before acting on another thread's progress.
fn spin_until(ready: impl Fn() -> bool) {
    while !ready() {
        std::thread::yield_now();
    }
}

const CONSTRAINTS: [&str; 3] = ["rEdge.avgDelay <= 30.0", "rEdge.avgDelay <= 45.0", "true"];

fn chaos_request(rng: &mut StdRng) -> (PlannedRequest, Network, &'static str) {
    let query = if rng.random_bool(0.5) {
        edge_query()
    } else {
        path_query()
    };
    let constraint = CONSTRAINTS[rng.random_range(0..CONSTRAINTS.len())];
    let timeout = match rng.random_range(0..4u32) {
        0 => None,
        1 => Some(Duration::from_millis(20)),
        2 => Some(Duration::from_micros(200)),
        _ => Some(Duration::from_nanos(50)),
    };
    let req = PlannedRequest {
        host: "plab".into(),
        query: query.clone(),
        constraint: constraint.into(),
        options: Options {
            mode: SearchMode::UpTo(8),
            timeout,
            ..Options::default()
        },
    };
    (req, query, constraint)
}

fn priority(rng: &mut StdRng) -> Priority {
    match rng.random_range(0..4u32) {
        0 => Priority::Low,
        1 | 2 => Priority::Normal,
        _ => Priority::High,
    }
}

/// One seeded round: a fresh service under a tight admission policy
/// with fault injection armed, three client threads of mixed
/// submit/wait/drop traffic racing a churn thread that swaps models
/// and commits reservations. Ends with the full invariant sweep.
fn chaos_round(seed: u64) {
    const CLIENTS: usize = 3;
    const OPS_PER_CLIENT: usize = 8;

    let mut cfg_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let shed = if cfg_rng.random_bool(0.5) {
        ShedMode::Reject
    } else {
        ShedMode::DegradeInconclusive
    };
    // The parked-scratch cap is adaptive, not configured; the draw that
    // used to pick it stays, so every seed keeps the rest of its config.
    let _ = cfg_rng.random_range(1..=4usize);
    let config = ServiceConfig::default()
        .planner_shards(cfg_rng.random_range(1..=4))
        .admission(
            AdmissionPolicy::default()
                .max_queue_depth(cfg_rng.random_range(2..=5))
                .max_group_size(cfg_rng.random_range(1..=3))
                .max_dedup_waiters(cfg_rng.random_range(1..=4))
                .shed(shed),
        )
        .faults(FaultPlan {
            panic_every_nth_run: 7,
            truncate_every_nth_build: 4,
        });
    let svc = NetEmbedService::with_config(config);
    let model_a = ring_host(1.0);
    let model_b = ring_host(1.3);
    svc.registry().register("plab", model_a.clone());

    let tally = Tally::default();
    let snapshots = [&model_a, &model_b];
    // Handshakes: every thread starts once all have spawned, so traffic
    // and churn overlap even on one core; the churn thread then steps
    // only on observed dispatch progress.
    let started = AtomicUsize::new(0);
    let clients_done = AtomicUsize::new(0);
    let all_started = || started.load(Ordering::SeqCst) == CLIENTS + 1;

    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let svc = &svc;
            let tally = &tally;
            let snapshots = &snapshots;
            let (started, clients_done, all_started) = (&started, &clients_done, &all_started);
            s.spawn(move || {
                let _done = Finished(clients_done);
                started.fetch_add(1, Ordering::SeqCst);
                spin_until(all_started);
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0xA5A5));
                let planner = svc.planner();
                for _ in 0..OPS_PER_CLIENT {
                    let (req, query, constraint) = chaos_request(&mut rng);
                    let pri = priority(&mut rng);
                    match planner.submit_with(&req, pri) {
                        Err(e) => classify(Err(e), &query, constraint, snapshots, tally),
                        Ok(ticket) => match rng.random_range(0..10u32) {
                            // Drop the ticket without waiting — the
                            // member may be queued, mid-dispatch, or
                            // already delivered; every path must
                            // release its gauge slot.
                            0 | 1 => {
                                if rng.random_bool(0.5) {
                                    std::thread::yield_now();
                                }
                                drop(ticket);
                                tally.dropped.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => classify(ticket.wait(), &query, constraint, snapshots, tally),
                        },
                    }
                }
            });
        }
        // Churn: wholesale model swaps (epoch bumps) and reservation
        // commit/release cycles racing the client traffic. Each step
        // waits until the planner dispatched another group since the
        // last one (or every client finished).
        let svc = &svc;
        let (started, clients_done, all_started) = (&started, &clients_done, &all_started);
        s.spawn(move || {
            started.fetch_add(1, Ordering::SeqCst);
            spin_until(all_started);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE);
            let reservations = ReservationManager::new();
            let planner = svc.planner();
            let mut dispatched = planner.groups_dispatched();
            for step in 0..8 {
                spin_until(|| {
                    planner.groups_dispatched() > dispatched
                        || clients_done.load(Ordering::SeqCst) == CLIENTS
                });
                dispatched = planner.groups_dispatched();
                let next = if step % 2 == 0 {
                    ring_host(1.3)
                } else {
                    ring_host(1.0)
                };
                svc.registry().register("plab", next);
                if rng.random_bool(0.5) {
                    // A reservation commit against whichever snapshot is
                    // current; no capacity attrs are declared, so it
                    // always succeeds and exercises the ticket cycle.
                    let query = edge_query();
                    if let Ok(resp) = svc.submit(&PlannedRequest {
                        host: "plab".into(),
                        query: query.clone(),
                        constraint: "true".into(),
                        options: Options {
                            mode: SearchMode::First,
                            ..Options::default()
                        },
                    }) {
                        if let Some(mapping) = resp.mappings().first() {
                            let ticket = reservations
                                .reserve(svc.registry(), "plab", &query, mapping, &[])
                                .expect("capacity-free reservation always fits")
                                .ticket;
                            reservations
                                .release(svc.registry(), ticket)
                                .expect("release of a live ticket");
                        }
                    }
                }
            }
        });
    });

    // ---- invariant sweep ----------------------------------------------
    let t = svc.telemetry();
    assert_eq!(
        t.accepted + t.shed.total(),
        t.submitted,
        "seed {seed}: admission ledger out of balance: {t:?}"
    );
    assert_eq!(
        t.queue_depth, 0,
        "seed {seed}: queue-depth gauge leaked a slot: {t:?}"
    );
    let planner = svc.planner();
    assert_eq!(
        planner.pending_requests(),
        0,
        "seed {seed}: members left queued after quiescence"
    );
    assert_eq!(
        planner.undelivered_results(),
        0,
        "seed {seed}: parked results leaked past every drop path"
    );
    assert_eq!(
        svc.cache().in_flight(),
        0,
        "seed {seed}: an in-flight filter build was stranded"
    );
    assert!(
        t.parked_scratches <= svc.effective_max_parked_scratches(),
        "seed {seed}: parked scratches above the adaptive cap"
    );

    // Per-shard ledgers balance individually and roll up exactly to the
    // global ledger — every shed/cancel/evict/drop path charged the
    // shard that owned the request, and only that shard.
    assert_eq!(t.shards.len(), t.planner_shards, "seed {seed}");
    let mut submitted = 0u64;
    let mut accepted = 0u64;
    let mut shed_total = 0u64;
    for (idx, shard) in t.shards.iter().enumerate() {
        assert_eq!(
            shard.accepted + shard.shed.total(),
            shard.submitted,
            "seed {seed}: shard {idx} ledger out of balance: {shard:?}"
        );
        assert_eq!(
            shard.queue_depth, 0,
            "seed {seed}: shard {idx} gauge leaked a slot: {shard:?}"
        );
        submitted += shard.submitted;
        accepted += shard.accepted;
        shed_total += shard.shed.total();
    }
    assert_eq!(
        (submitted, accepted, shed_total),
        (t.submitted, t.accepted, t.shed.total()),
        "seed {seed}: per-shard ledgers do not roll up to the global ledger: {t:?}"
    );

    // The service must still answer — injected panics poison no lock
    // for good. The injector stays armed (period 7), so one retry is
    // enough to step over a scheduled fault.
    let final_req = PlannedRequest {
        host: "plab".into(),
        query: edge_query(),
        constraint: "true".into(),
        options: Options::default(),
    };
    let functional = (0..4).any(|_| match planner.run(&final_req) {
        Ok(resp) => !resp.mappings().is_empty(),
        Err(ServiceError::Internal(_)) => false, // injected panic: try again
        Err(e) => panic!("seed {seed}: service wedged after chaos: {e}"),
    });
    assert!(
        functional,
        "seed {seed}: four post-chaos runs in a row produced nothing \
         (injector periods are 7 and 4 — two consecutive faults are \
         already impossible)"
    );
}

/// The injector fires dozens of intentional panics per run; keep their
/// backtraces out of the test log. Real panics still print.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected planner fault"));
        if !injected {
            default(info);
        }
    }));
}

#[test]
fn chaos_seeded_rounds_hold_every_invariant() {
    quiet_injected_panics();
    for seed in 0..chaos_rounds() {
        chaos_round(seed);
    }
}

/// The acceptance burst: ~100× more concurrent clients than the queue
/// admits. Every request must end as a verified success (bitwise
/// identical to an isolated submit), a deterministic
/// [`ServiceError::Overloaded`] reject, or — in degrade mode — a
/// timed-out `Inconclusive`. Exercised at every pinned worker count.
#[test]
fn oversubscribed_burst_sheds_cleanly_with_identical_survivors() {
    const CLIENTS: usize = 100;
    for workers in test_workers() {
        for shed in [ShedMode::Reject, ShedMode::DegradeInconclusive] {
            let svc = NetEmbedService::with_config(
                ServiceConfig::default()
                    .admission(AdmissionPolicy::default().max_queue_depth(1).shed(shed)),
            );
            let host = ring_host(1.0);
            svc.registry().register("plab", host.clone());
            let req = PlannedRequest {
                host: "plab".into(),
                query: edge_query(),
                constraint: "rEdge.avgDelay <= 30.0".into(),
                options: Options {
                    algorithm: Algorithm::ParallelEcf { threads: workers },
                    ..Options::default()
                },
            };
            let expected = {
                let iso = NetEmbedService::new();
                iso.registry().register("plab", host.clone());
                sorted_mappings(&iso.submit(&req).expect("isolated submit"))
            };
            assert!(!expected.is_empty(), "burst scenario must be feasible");

            let barrier = Barrier::new(CLIENTS);
            let results: Vec<Result<QueryResponse, ServiceError>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        let planner = svc.planner();
                        let req = &req;
                        let barrier = &barrier;
                        s.spawn(move || {
                            barrier.wait();
                            planner.run(req)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            let mut succeeded = 0usize;
            let mut degraded = 0usize;
            let mut rejected = 0usize;
            for result in results {
                match result {
                    Ok(resp) if resp.stats.timed_out => {
                        assert_eq!(
                            shed,
                            ShedMode::DegradeInconclusive,
                            "reject mode must not degrade"
                        );
                        assert!(matches!(resp.outcome, Outcome::Inconclusive));
                        assert!(resp.mappings().is_empty());
                        degraded += 1;
                    }
                    Ok(resp) => {
                        assert_eq!(
                            sorted_mappings(&resp),
                            expected,
                            "{workers} workers: an admitted survivor diverged \
                             from its isolated submit"
                        );
                        succeeded += 1;
                    }
                    Err(ServiceError::Overloaded(reason)) => {
                        assert_eq!(shed, ShedMode::Reject, "degrade mode must not reject");
                        assert_eq!(reason, ShedReason::QueueFull);
                        rejected += 1;
                    }
                    Err(other) => panic!("burst surfaced {other}"),
                }
            }
            assert!(succeeded >= 1, "at least the first admit completes");
            assert_eq!(succeeded + degraded + rejected, CLIENTS);

            let t = svc.telemetry();
            assert_eq!(t.submitted, CLIENTS as u64);
            assert_eq!(t.accepted + t.shed.total(), t.submitted);
            assert_eq!(t.accepted, succeeded as u64);
            assert_eq!(t.queue_depth, 0, "burst leaked a gauge slot");
            assert!(t.queue_wait.count() >= succeeded as u64);
            assert!(t.dispatch_latency.count() >= 1);
            assert!(
                t.queue_wait.summary().starts_with("n="),
                "histogram summary renders"
            );
        }
    }
}

/// Order-insensitive view of a response's mappings.
fn sorted_mappings(resp: &QueryResponse) -> Vec<Vec<(u32, u32)>> {
    let mut out: Vec<Vec<(u32, u32)>> = resp
        .mappings()
        .iter()
        .map(|m| m.iter().map(|(q, r)| (q.0, r.0)).collect())
        .collect();
    out.sort();
    out
}

// ---- feed-fault chaos ------------------------------------------------------

use netgraph::{AttrValue, NodeId};
use service::cache::network_fingerprint;
use service::{
    DeltaMutation, DirtySet, FeedConfig, FeedSnapshot, FeedState, RegistryDelta, RegistryFeed,
};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Every edge of [`ring_host`], by endpoint ids — the mutation targets
/// for the feed-fault delta scripts.
const RING_EDGES: [(u32, u32); 9] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 0),
    (0, 2),
    (1, 4),
    (3, 5),
];

/// An `avgDelay` rewrite on one ring edge covering `seq → seq + 1`.
fn edge_delta(seq: u64, (src, dst): (u32, u32), delay: f64) -> RegistryDelta {
    RegistryDelta {
        host: "plab".into(),
        base_seq: seq,
        next_seq: seq + 1,
        mutation: DeltaMutation::SetEdgeAttr {
            src,
            dst,
            attr: "avgDelay".into(),
            value: AttrValue::Num(delay),
        },
        dirty: DirtySet::from_ids([src, dst]),
    }
}

/// Replay one clean delta onto the upstream truth.
fn apply_truth(net: &mut Network, delta: &RegistryDelta) {
    match &delta.mutation {
        DeltaMutation::SetEdgeAttr {
            src,
            dst,
            attr,
            value,
        } => {
            let e = net
                .find_edge(NodeId(*src), NodeId(*dst))
                .expect("script targets ring edges");
            net.set_edge_attr(e, attr.as_str(), value.clone());
        }
        other => unreachable!("feed chaos scripts only edge rewrites, got {other:?}"),
    }
}

/// A scripted stream that emits at most `chunk` deltas per pump and
/// publishes the highest `next_seq` emitted so far, so the snapshot
/// source can serve the matching upstream truth (threads share the
/// high-water mark through an atomic).
struct ScriptedStream {
    script: Vec<RegistryDelta>,
    pos: usize,
    chunk: usize,
    served_this_burst: usize,
    emitted_hwm: Arc<AtomicU64>,
}

impl service::DeltaStream for ScriptedStream {
    fn next_delta(&mut self) -> Option<RegistryDelta> {
        if self.served_this_burst == self.chunk {
            self.served_this_burst = 0;
            return None;
        }
        let delta = self.script.get(self.pos)?.clone();
        self.pos += 1;
        self.served_this_burst += 1;
        self.emitted_hwm
            .fetch_max(delta.next_seq, Ordering::Relaxed);
        Some(delta)
    }
}

/// One seeded feed-fault round: a scripted upstream of edge rewrites is
/// mangled — drops, duplicates, adjacent swaps, three-slot delays, and
/// corrupted (under-declared dirty) deltas that force resyncs — while
/// client threads keep submitting against the host being mutated.
///
/// Invariants checked regardless of the schedule:
/// - every delivered mapping re-verifies against **some** prefix of the
///   clean delta sequence — i.e. a state the feed actually applied
///   (organically or via snapshot), never a torn or invented one;
/// - the feed converges to exactly the clean stream's final state, with
///   the delivery ledger balanced and at least one gap resync;
/// - nothing is lost: the last applied sequence reaches the end.
fn feed_chaos_round(seed: u64) {
    const DELTAS: usize = 30;
    const CLIENTS: usize = 2;
    const OPS_PER_CLIENT: usize = 6;

    let mut rng = StdRng::seed_from_u64(seed ^ 0x00FE_EDFA);
    let base = ring_host(1.0);
    let clean: Vec<RegistryDelta> = (0..DELTAS)
        .map(|i| {
            let edge = RING_EDGES[rng.random_range(0..RING_EDGES.len())];
            edge_delta(i as u64, edge, rng.random_range(5.0..50.0))
        })
        .collect();
    let mut states = vec![base.clone()];
    for delta in &clean {
        let mut next = states.last().unwrap().clone();
        apply_truth(&mut next, delta);
        states.push(next);
    }

    // Fault schedule: mangle the emission order and content.
    let mut script: Vec<RegistryDelta> = Vec::new();
    let mut held: Vec<(usize, RegistryDelta)> = Vec::new();
    let mut dropped = 0usize;
    let mut i = 0usize;
    while i < clean.len() {
        held.retain(|(release_at, delta)| {
            if *release_at <= script.len() {
                script.push(delta.clone());
                false
            } else {
                true
            }
        });
        match rng.random_range(0..20u32) {
            0 | 1 => dropped += 1, // dropped: never emitted
            2 | 3 => {
                script.push(clean[i].clone());
                script.push(clean[i].clone()); // duplicated
            }
            4 | 5 if i + 1 < clean.len() => {
                script.push(clean[i + 1].clone()); // adjacent swap
                script.push(clean[i].clone());
                i += 1;
            }
            6 => held.push((script.len() + 3, clean[i].clone())), // delayed
            7 => {
                // Corrupted: the dirty declaration is stripped, so the
                // delta rejects on apply and forces a resync; the clean
                // version is never emitted (recovered via snapshot).
                let mut corrupt = clean[i].clone();
                corrupt.dirty = DirtySet::new();
                script.push(corrupt);
                dropped += 1;
            }
            _ => script.push(clean[i].clone()),
        }
        i += 1;
    }
    for (_, delta) in held {
        script.push(delta);
    }
    if dropped == 0 {
        // Every round must exercise the resync path: steal one delta
        // from the middle of the schedule.
        let victim = clean[DELTAS / 2].clone();
        script.retain(|d| d.base_seq != victim.base_seq);
        dropped += 1;
    }
    // Close any trailing gap: re-emit the tail so drops near the end
    // still open a gap the parked buffer can see (a duplicate if the
    // tail already landed).
    script.push(clean[DELTAS - 1].clone());

    let svc = NetEmbedService::new();
    svc.registry().register("plab", base.clone());
    let emitted_hwm = Arc::new(AtomicU64::new(0));
    let stream = ScriptedStream {
        script,
        pos: 0,
        chunk: 3,
        served_this_burst: 0,
        emitted_hwm: Arc::clone(&emitted_hwm),
    };
    let snapshot_hwm = Arc::clone(&emitted_hwm);
    let snapshot_states = states.clone();
    let snapshots = move || {
        let seq = snapshot_hwm.load(Ordering::Relaxed);
        Some(FeedSnapshot {
            seq,
            models: vec![("plab".into(), snapshot_states[seq as usize].clone())],
        })
    };
    let converged = AtomicBool::new(false);
    // Handshakes: clients start once the feed has received a delta, and
    // the feed pumps again only after another answer was served (or
    // every client finished), so serving and churn interleave even on
    // one core.
    let served = AtomicUsize::new(0);
    let clients_done = AtomicUsize::new(0);
    let feed_done = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let svc = &svc;
        let converged = &converged;
        let (served, clients_done, feed_done) = (&served, &clients_done, &feed_done);
        s.spawn(move || {
            let _done = Finished(feed_done);
            let mut feed = RegistryFeed::new(stream, snapshots, FeedConfig::default());
            for _ in 0..5_000 {
                let seen = served.load(Ordering::SeqCst);
                let state = feed.pump(svc);
                if state == FeedState::Live && feed.cursor() == DELTAS as u64 {
                    converged.store(true, Ordering::Relaxed);
                    return;
                }
                spin_until(|| {
                    served.load(Ordering::SeqCst) > seen
                        || clients_done.load(Ordering::SeqCst) == CLIENTS
                });
                std::thread::yield_now();
            }
        });
        for client in 0..CLIENTS {
            let states = &states;
            s.spawn(move || {
                let _done = Finished(clients_done);
                spin_until(|| {
                    svc.telemetry().feed.received > 0 || feed_done.load(Ordering::SeqCst) > 0
                });
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0xFEED));
                let snapshots: Vec<&Network> = states.iter().collect();
                let planner = svc.planner();
                for op in 0..OPS_PER_CLIENT {
                    let query = edge_query();
                    let constraint = CONSTRAINTS[rng.random_range(0..CONSTRAINTS.len())];
                    let req = PlannedRequest {
                        host: "plab".into(),
                        query: query.clone(),
                        constraint: constraint.into(),
                        options: Options {
                            mode: SearchMode::UpTo(8),
                            ..Options::default()
                        },
                    };
                    let result = if op % 2 == 0 {
                        svc.submit(&req)
                    } else {
                        planner.run(&req)
                    };
                    let resp = result.expect("no admission bounds configured: never sheds");
                    assert_mappings_verify(&resp, &query, constraint, &snapshots);
                    served.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                }
            });
        }
    });

    assert!(
        converged.load(Ordering::Relaxed),
        "seed {seed}: faulty feed failed to converge"
    );
    let feed_tl = svc.telemetry().feed;
    assert!(
        feed_tl.balanced(),
        "seed {seed}: delivery ledger unbalanced: {feed_tl:?}"
    );
    assert!(
        feed_tl.gap_resyncs >= 1,
        "seed {seed}: {dropped} losses must force a resync: {feed_tl:?}"
    );
    assert_eq!(feed_tl.last_applied_seq, DELTAS as u64, "seed {seed}");
    assert_eq!(feed_tl.lag, 0, "seed {seed}");
    assert_eq!(
        network_fingerprint(&svc.registry().model("plab").unwrap()),
        network_fingerprint(states.last().unwrap()),
        "seed {seed}: converged state diverges from the clean stream"
    );

    // Repair soundness sweep: one more (single-threaded) submit per
    // constraint classifies its epoch window — promote, patch in
    // place, or fall back to a rebuild — with the per-submit
    // accounting holding exactly, and whatever the cache then serves
    // at the converged epoch must be bitwise-identical to a fresh
    // build against the converged model.
    let final_model = svc.registry().model("plab").unwrap();
    let final_epoch = svc.registry().epoch("plab").unwrap();
    for constraint in CONSTRAINTS {
        let query = edge_query();
        let req = PlannedRequest {
            host: "plab".into(),
            query: query.clone(),
            constraint: constraint.into(),
            options: Options {
                mode: SearchMode::UpTo(8),
                ..Options::default()
            },
        };
        let misses_before = svc.cache().misses();
        let resp = svc.submit(&req).expect("no admission bounds: never sheds");
        assert!(
            resp.stats.patches + resp.stats.patch_rebuilds <= 1,
            "seed {seed}: one submit classifies at most one window"
        );
        if resp.stats.patches == 1 {
            assert_eq!(
                resp.stats.filter_cache_hits, 1,
                "seed {seed}: a patched entry must serve the hit"
            );
            assert_eq!(
                svc.cache().misses(),
                misses_before,
                "seed {seed}: a patched submit must not also rebuild"
            );
        }
        if resp.stats.patch_rebuilds == 1 {
            assert_eq!(
                svc.cache().misses(),
                misses_before + 1,
                "seed {seed}: a patch fallback must pay exactly one miss"
            );
        }
        let key = service::FilterKey {
            host: "plab".into(),
            epoch: final_epoch,
            query_hash: network_fingerprint(&query),
            constraint: constraint.into(),
        };
        let cached = svc
            .cache()
            .lookup(&key)
            .expect("sweep submit caches at the converged epoch");
        let problem =
            netembed::Problem::new(&query, &final_model, constraint).expect("valid constraint");
        let mut deadline = netembed::Deadline::unlimited();
        let mut build_stats = netembed::SearchStats::default();
        let fresh = netembed::FilterMatrix::build(&problem, &mut deadline, &mut build_stats)
            .expect("unlimited build");
        assert!(
            *cached == fresh,
            "seed {seed}: the filter served at the converged epoch diverges from a fresh build \
             under {constraint:?}"
        );
    }
    // The repair ledger surfaces in telemetry alongside hits/misses.
    let tl = svc.telemetry();
    assert_eq!(
        tl.filter_cache_patches,
        svc.cache().patches(),
        "seed {seed}"
    );
    assert_eq!(
        tl.filter_cache_patch_rebuilds,
        svc.cache().patch_rebuilds(),
        "seed {seed}"
    );
    assert_eq!(
        tl.filter_cache_promotions,
        svc.cache().promotions(),
        "seed {seed}"
    );
}

#[test]
fn feed_fault_rounds_converge_and_serve_only_applied_states() {
    for seed in 0..chaos_rounds() {
        feed_chaos_round(seed);
    }
}

/// The dirty-window algebra, end to end through a live feed: stepping a
/// clean scripted stream one delta per pump, the registry's
/// `dirty_between` over **every** epoch window must equal the union of
/// the per-delta dirty sets inside that window.
#[test]
fn feed_dirty_windows_compose_to_the_union_of_delta_dirty_sets() {
    const DELTAS: usize = 12;
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1F7);
        let svc = NetEmbedService::new();
        svc.registry().register("plab", ring_host(1.0));
        let clean: Vec<RegistryDelta> = (0..DELTAS)
            .map(|i| {
                let edge = RING_EDGES[rng.random_range(0..RING_EDGES.len())];
                edge_delta(i as u64, edge, rng.random_range(5.0..50.0))
            })
            .collect();
        let stream = ScriptedStream {
            script: clean.clone(),
            pos: 0,
            chunk: 1,
            served_this_burst: 0,
            emitted_hwm: Arc::new(AtomicU64::new(0)),
        };
        let mut feed = RegistryFeed::new(
            stream,
            || -> Option<FeedSnapshot> { panic!("clean stream must not resync") },
            FeedConfig::default(),
        );
        let mut epochs = vec![svc.registry().epoch("plab").unwrap()];
        for step in 0..DELTAS {
            assert_eq!(feed.pump(&svc), FeedState::Live, "seed {seed} step {step}");
            epochs.push(svc.registry().epoch("plab").unwrap());
        }
        for i in 0..=DELTAS {
            for j in i..=DELTAS {
                let mut expected = DirtySet::new();
                for delta in &clean[i..j] {
                    expected.union_with(&delta.dirty);
                }
                assert_eq!(
                    svc.registry().dirty_between("plab", epochs[i], epochs[j]),
                    Some(expected),
                    "seed {seed}: window {i}..{j} does not compose"
                );
            }
        }
        let feed_tl = svc.telemetry().feed;
        assert_eq!(feed_tl.applied, DELTAS as u64, "seed {seed}");
        assert!(feed_tl.balanced(), "seed {seed}: {feed_tl:?}");
        assert_eq!(feed_tl.gap_resyncs, 0, "seed {seed}");
    }
}
