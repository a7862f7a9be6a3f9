//! Concurrency harness for the cross-request planner: many client
//! threads, mixed request keys, interleaved epoch bumps — and the
//! invariant that makes the planner trustworthy: **every result is
//! identical to an isolated sequential submit of the same request**
//! (same mappings, same outcome), no matter how requests were grouped,
//! coalesced or reordered.
//!
//! Also proves the amortization claims by counters: a burst of N
//! equivalent concurrent requests performs exactly one filter build
//! (`Σ filter_cache_hits + Σ coalesced_requests == N − 1`), concurrent
//! cold `submit`s dedup to one build through the cache's in-flight
//! table, and warm planner dispatch spawns zero threads
//! (`ServiceTelemetry::spawned_total` frozen).
//!
//! Worker counts honour `NETEMBED_TEST_WORKERS` (CI pins 1–4), like
//! `tests/epoch_cache.rs`.

use netembed::{Algorithm, Options, Outcome, SearchMode};
use netgraph::{Direction, Network};
use proptest::prelude::*;
use service::cache::{network_fingerprint, FilterFetch, FilterKey};
use service::{
    AdmissionPolicy, NetEmbedService, PlannedRequest, QueryResponse, ServiceConfig, ServiceError,
    ShedMode, ShedReason,
};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Worker counts exercised by the parallel-member tests. CI pins this
/// via `NETEMBED_TEST_WORKERS` so the persistent-pool path runs even on
/// single-core runners.
fn test_workers() -> Vec<usize> {
    match std::env::var("NETEMBED_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => vec![1, 2, 4],
    }
}

/// Six hosts in a ring + chords with spread-out delays: enough mappings
/// to make coalesced runs meaningful, small enough to enumerate fast.
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

/// The ground truth: the same request, alone, on a fresh service built
/// from the same models.
fn isolated_submit(models: &[(&str, Network)], req: &PlannedRequest) -> QueryResponse {
    let svc = NetEmbedService::new();
    for (name, model) in models {
        svc.registry().register(name, model.clone());
    }
    svc.submit(req).expect("isolated submit succeeds")
}

/// Order-insensitive view of a response's mappings (parallel runs emit
/// in scheduling order).
fn sorted_mappings(resp: &QueryResponse) -> Vec<Vec<(u32, u32)>> {
    let mut out: Vec<Vec<(u32, u32)>> = resp
        .mappings()
        .iter()
        .map(|m| m.iter().map(|(q, r)| (q.0, r.0)).collect())
        .collect();
    out.sort();
    out
}

#[test]
fn burst_of_identical_requests_builds_once_and_coalesces() {
    const N: usize = 8;
    let host = ring_host(1.0);
    let svc = NetEmbedService::new();
    svc.registry().register("plab", host.clone());
    let planner = svc.planner();
    let req = PlannedRequest {
        host: "plab".into(),
        query: edge_query(),
        constraint: "rEdge.avgDelay <= 20.0".into(),
        options: Options::default(),
    };
    let expected = isolated_submit(&[("plab", host)], &req);
    assert!(!expected.mappings().is_empty(), "scenario must be feasible");

    let barrier = Barrier::new(N);
    let responses: Vec<QueryResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    planner.run(&req).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Identity: every concurrent result equals the isolated sequential
    // one, bit for bit (ECF is deterministic, so plain Vec equality).
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.mappings(), expected.mappings(), "client {i} diverged");
        assert_eq!(resp.outcome, expected.outcome, "client {i} outcome");
    }

    // Amortization, proven by counters under *every* interleaving: each
    // request either built (exactly one did), hit the shared cache, or
    // rode a group-mate's pin — the latter two partition the other N−1.
    let builds = responses
        .iter()
        .filter(|r| r.stats.constraint_evals > 0)
        .count();
    assert_eq!(builds, 1, "a burst must perform exactly one filter build");
    let hits: u64 = responses.iter().map(|r| r.stats.filter_cache_hits).sum();
    let coalesced: u64 = responses.iter().map(|r| r.stats.coalesced_requests).sum();
    assert_eq!(
        hits + coalesced,
        (N - 1) as u64,
        "hits ({hits}) + coalesced ({coalesced}) must cover the other N-1"
    );
    assert_eq!(svc.cache().misses(), 1, "one designated builder");
    assert_eq!(planner.coalesced_total(), coalesced);
    // Nothing left behind.
    assert_eq!(planner.pending_requests(), 0);
    assert_eq!(planner.pending_groups(), 0);
    assert_eq!(planner.undelivered_results(), 0);
}

#[test]
fn concurrent_cold_submits_dedup_to_one_build() {
    // No planner at all: raw `submit` concurrency exercises the filter
    // cache's in-flight table. Deterministic thanks to the cache's
    // register-then-reprobe protocol: a successful concurrent build is
    // never repeated, so exactly one miss no matter the interleaving.
    const N: usize = 4;
    let host = ring_host(1.0);
    let svc = NetEmbedService::new();
    svc.registry().register("plab", host.clone());
    let req = PlannedRequest {
        host: "plab".into(),
        query: edge_query(),
        constraint: "rEdge.avgDelay <= 20.0".into(),
        options: Options::default(),
    };
    let expected = isolated_submit(&[("plab", host)], &req);

    let barrier = Barrier::new(N);
    let responses: Vec<QueryResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    svc.submit(&req).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for resp in &responses {
        assert_eq!(resp.mappings(), expected.mappings());
        assert_eq!(resp.outcome, expected.outcome);
    }
    let builds = responses
        .iter()
        .filter(|r| r.stats.constraint_evals > 0)
        .count();
    assert_eq!(builds, 1, "in-flight dedup must leave exactly one builder");
    assert_eq!(svc.cache().misses(), 1);
    // The other N−1 either waited on the winner's build or arrived
    // after it memoized.
    assert_eq!(
        svc.cache().hits() + svc.cache().dedup_waits(),
        (N - 1) as u64
    );
    let waits: u64 = responses.iter().map(|r| r.stats.dedup_waits).sum();
    assert_eq!(
        waits,
        svc.cache().dedup_waits(),
        "per-run stat mirrors cache"
    );
    assert_eq!(svc.cache().in_flight(), 0);
}

#[test]
fn stress_mixed_keys_matches_isolated_submits() {
    // Single dispatch lane and the full sharded fan-out must both hold
    // the identity invariant — the acceptance pin for the shard layer.
    stress_mixed_keys(1);
    stress_mixed_keys(4);
}

fn stress_mixed_keys(shards: usize) {
    // M client threads × K requests over a menu of distinct grouping
    // keys (two hosts × two queries × two constraints) and distinct
    // per-member options (deterministic algorithms only, so results
    // admit exact comparison). Every response must equal the isolated
    // sequential submit of the same request.
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 5;
    let host_a = ring_host(1.0);
    let host_b = ring_host(2.0);
    let models: Vec<(&str, Network)> = vec![("ha", host_a.clone()), ("hb", host_b.clone())];

    let mut menu: Vec<PlannedRequest> = Vec::new();
    for (host, query, constraint) in [
        ("ha", edge_query(), "rEdge.avgDelay <= 20.0"),
        ("ha", path_query(), "rEdge.avgDelay <= 25.0"),
        ("hb", edge_query(), "rEdge.avgDelay <= 30.0"),
        ("ha", edge_query(), "rEdge.avgDelay <= 12.0"),
    ] {
        menu.push(PlannedRequest {
            host: host.into(),
            query: query.clone(),
            constraint: constraint.into(),
            options: Options::default(),
        });
        menu.push(PlannedRequest {
            host: host.into(),
            query,
            constraint: constraint.into(),
            options: Options {
                algorithm: Algorithm::Rwb,
                mode: SearchMode::First,
                seed: 42,
                ..Options::default()
            },
        });
    }
    let expected: Vec<QueryResponse> = menu
        .iter()
        .map(|req| isolated_submit(&models, req))
        .collect();

    let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(shards));
    for (name, model) in &models {
        svc.registry().register(name, model.clone());
    }
    let planner = svc.planner();
    assert_eq!(planner.shard_count(), shards);
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let planner = &planner;
            let menu = &menu;
            let expected = &expected;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Staggered walk: every thread visits every menu
                    // item, in different orders, so identical keys from
                    // different clients collide in flight.
                    let idx = (t + round * 3) % menu.len();
                    let resp = planner.run(&menu[idx]).unwrap();
                    assert_eq!(
                        resp.mappings(),
                        expected[idx].mappings(),
                        "{shards} shards: client {t} round {round} menu {idx} diverged"
                    );
                    assert_eq!(resp.outcome, expected[idx].outcome);
                }
            });
        }
    });
    // Queue fully drained; at most one build per distinct key; the
    // per-shard ledgers balance and roll up to the global one.
    assert_eq!(planner.pending_requests(), 0);
    assert_eq!(planner.undelivered_results(), 0);
    assert!(svc.cache().misses() <= 8, "more builds than distinct keys");
    let t = svc.telemetry();
    assert_eq!(t.planner_shards, shards);
    assert_eq!(t.accepted + t.shed.total(), t.submitted);
    assert_eq!(
        t.shards.iter().map(|s| s.submitted).sum::<u64>(),
        t.submitted,
        "per-shard submit counters must roll up exactly"
    );
    for shard in &t.shards {
        assert_eq!(shard.accepted + shard.shed.total(), shard.submitted);
        assert_eq!(shard.queue_depth, 0);
    }
}

/// The lanes belong to the service, not to a planner handle: a
/// per-shard queue bound counts every queued request, whichever handle
/// queued it. Nothing dispatches until someone waits, so no threads are
/// needed.
#[test]
fn handles_of_one_service_share_its_queue_bound() {
    let svc = NetEmbedService::with_config(
        ServiceConfig::default().planner_shards(1).admission(
            AdmissionPolicy::default()
                .max_queue_depth(1)
                .shed(ShedMode::Reject),
        ),
    );
    svc.registry().register("plab", ring_host(1.0));
    let (a, b) = (svc.planner(), svc.planner());
    let request = |constraint: &str| PlannedRequest {
        host: "plab".into(),
        query: edge_query(),
        constraint: constraint.into(),
        options: Options::default(),
    };
    let queued = a.submit(&request("rEdge.avgDelay <= 20.0")).unwrap();
    assert!(
        matches!(
            b.submit(&request("true")),
            Err(ServiceError::Overloaded(ShedReason::QueueFull))
        ),
        "handle B must see handle A's queued request"
    );
    assert_eq!(svc.telemetry().queue_depth, 1);
    assert!(!queued.wait().unwrap().mappings().is_empty());
    let t = svc.telemetry();
    assert_eq!((t.submitted, t.accepted, t.shed.queue_full), (2, 1, 1));
    assert_eq!(t.queue_depth, 0);
}

/// Equivalent requests submitted through different handles join one
/// group: one dispatch, one filter build, and every other member rides
/// the group pin instead of touching the cache.
#[test]
fn equivalent_requests_coalesce_across_handles() {
    let host = ring_host(1.0);
    let svc = NetEmbedService::new();
    svc.registry().register("plab", host.clone());
    let req = PlannedRequest {
        host: "plab".into(),
        query: edge_query(),
        constraint: "rEdge.avgDelay <= 20.0".into(),
        options: Options::default(),
    };
    let expected = isolated_submit(&[("plab", host)], &req);
    let handles = [svc.planner(), svc.planner(), svc.planner()];
    let tickets: Vec<_> = handles.iter().map(|p| p.submit(&req).unwrap()).collect();
    let responses: Vec<QueryResponse> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(handles[0].groups_dispatched(), 1);
    let coalesced: u64 = responses.iter().map(|r| r.stats.coalesced_requests).sum();
    let hits: u64 = responses.iter().map(|r| r.stats.filter_cache_hits).sum();
    assert_eq!((coalesced, hits), (2, 0));
    for resp in &responses {
        assert_eq!(resp.mappings(), expected.mappings());
    }
}

#[test]
fn distinct_key_groups_dispatch_concurrently() {
    // The tentpole claim, proven by counters: with the planner sharded,
    // two groups with different keys are *in dispatch simultaneously* —
    // not interleaved through one serialized lane. Both keys' filter
    // builds are pinned by holding their cache `BuildTicket`s, so each
    // spawned waiter becomes its shard's dispatcher and parks in the
    // cache's dedup wait; the dispatcher-concurrency gauge must then
    // read 2 at once. Releasing the pins lets both groups finish, and
    // their responses must still equal isolated sequential submits.
    let host = ring_host(1.0);
    let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(4));
    svc.registry().register("plab", host.clone());
    let planner = svc.planner();
    assert_eq!(planner.shard_count(), 4);

    let mk = |thr: u32| PlannedRequest {
        host: "plab".into(),
        query: edge_query(),
        constraint: format!("rEdge.avgDelay <= {thr}.0"),
        options: Options::default(),
    };
    let req_a = mk(20);
    let shard_a = planner.shard_for(&req_a).expect("registered host");
    let req_b = (21..120)
        .map(mk)
        .find(|r| planner.shard_for(r).expect("registered host") != shard_a)
        .expect("some constraint must route to another of 4 shards");

    let epoch = svc.registry().epoch("plab").expect("registered host");
    let key_of = |req: &PlannedRequest| FilterKey {
        host: req.host.clone(),
        epoch,
        query_hash: network_fingerprint(&req.query),
        constraint: req.constraint.clone(),
    };
    let pin_a = match svc.cache().fetch_or_build(&key_of(&req_a), None) {
        FilterFetch::MustBuild(ticket) => ticket,
        _ => panic!("cold key A must elect this thread as builder"),
    };
    let pin_b = match svc.cache().fetch_or_build(&key_of(&req_b), None) {
        FilterFetch::MustBuild(ticket) => ticket,
        _ => panic!("cold key B must elect this thread as builder"),
    };

    let expected_a = isolated_submit(&[("plab", host.clone())], &req_a);
    let expected_b = isolated_submit(&[("plab", host.clone())], &req_b);
    assert!(
        !expected_a.mappings().is_empty(),
        "scenario must be feasible"
    );

    let (resp_a, resp_b) = std::thread::scope(|s| {
        let planner_ref = &planner;
        let (ra, rb) = (&req_a, &req_b);
        let client_a = s.spawn(move || planner_ref.run(ra).unwrap());
        let client_b = s.spawn(move || planner_ref.run(rb).unwrap());

        // Two dispatchers — one per shard — must overlap while both are
        // blocked in their dedup waits on the pinned builds.
        let deadline = Instant::now() + Duration::from_secs(30);
        while planner.dispatchers_in_flight() < 2 {
            assert!(
                Instant::now() < deadline,
                "dispatchers never overlapped: distinct-key groups are \
                 being serialized through one lane"
            );
            std::thread::yield_now();
        }
        assert!(planner.peak_concurrent_dispatchers() >= 2);

        // Release the pins: each blocked dispatcher wakes, takes over
        // the abandoned build, and completes its group normally.
        pin_a.abandon();
        pin_b.abandon();
        (client_a.join().unwrap(), client_b.join().unwrap())
    });

    assert_eq!(resp_a.mappings(), expected_a.mappings(), "key A diverged");
    assert_eq!(resp_a.outcome, expected_a.outcome);
    assert_eq!(resp_b.mappings(), expected_b.mappings(), "key B diverged");
    assert_eq!(resp_b.outcome, expected_b.outcome);
    assert_eq!(planner.pending_requests(), 0);
    assert_eq!(planner.undelivered_results(), 0);
    assert_eq!(svc.cache().in_flight(), 0);
}

#[test]
fn hot_key_cannot_starve_cold_key_beyond_dispatch_burst() {
    // Cross-shard fairness pin: with one lane (so hot and cold share
    // it) and `max_dispatch_burst = 2`, a cold-key arrival behind a
    // 6-member hot group waits for at most one burst. The cold waiter
    // becomes the dispatcher: it runs two hot members, re-queues the
    // hot remainder *behind* the cold group, then serves cold — so when
    // `cold.wait()` returns, exactly 4 hot members are still pending.
    const HOT: usize = 6;
    const BURST: usize = 2;
    let host = ring_host(1.0);
    let svc = NetEmbedService::with_config(
        ServiceConfig::default()
            .planner_shards(1)
            .admission(AdmissionPolicy::default().max_dispatch_burst(BURST)),
    );
    svc.registry().register("plab", host.clone());
    let planner = svc.planner();

    let hot_req = PlannedRequest {
        host: "plab".into(),
        query: edge_query(),
        constraint: "rEdge.avgDelay <= 20.0".into(),
        options: Options::default(),
    };
    let cold_req = PlannedRequest {
        host: "plab".into(),
        query: path_query(),
        constraint: "rEdge.avgDelay <= 25.0".into(),
        options: Options::default(),
    };
    let expected_hot = isolated_submit(&[("plab", host.clone())], &hot_req);
    let expected_cold = isolated_submit(&[("plab", host.clone())], &cold_req);

    // Queue the hot burst without waiting (no dispatcher runs yet),
    // then the cold request behind it.
    let hot_tickets: Vec<_> = (0..HOT)
        .map(|_| planner.submit(&hot_req).expect("hot admit"))
        .collect();
    let cold_ticket = planner.submit(&cold_req).expect("cold admit");
    assert_eq!(planner.pending_requests(), HOT + 1);
    assert_eq!(planner.pending_groups(), 2, "hot coalesces to one group");

    let cold_resp = cold_ticket.wait().expect("cold result");
    assert_eq!(cold_resp.mappings(), expected_cold.mappings());
    assert_eq!(cold_resp.outcome, expected_cold.outcome);
    // Fairness evidence: the cold dispatcher ran at most one hot burst
    // before its own group — the rest of the hot members are untouched.
    assert_eq!(
        planner.pending_requests(),
        HOT - BURST,
        "cold waited through more than one hot burst"
    );
    assert_eq!(
        planner.undelivered_results(),
        BURST,
        "exactly one hot burst ran before the cold group"
    );

    for (i, ticket) in hot_tickets.into_iter().enumerate() {
        let resp = ticket.wait().expect("hot result");
        assert_eq!(resp.mappings(), expected_hot.mappings(), "hot member {i}");
        assert_eq!(resp.outcome, expected_hot.outcome);
    }
    // Burst splitting must not break the amortization ledger: the hot
    // key still performs one build, with the other members covered by
    // coalescing or cache hits.
    assert_eq!(planner.pending_requests(), 0);
    assert_eq!(planner.undelivered_results(), 0);
    let t = svc.telemetry();
    assert_eq!(t.submitted, (HOT + 1) as u64);
    assert_eq!(t.accepted, t.submitted, "nothing shed in this scenario");
    assert_eq!(t.shed.total(), 0);
}

#[test]
fn interleaved_epoch_bumps_stay_snapshot_consistent() {
    // A writer flips the model between two versions while clients run.
    // Every response must equal the isolated result for *one* of the
    // two versions — the snapshot its request was enqueued against —
    // never a mixture, never a stale-cache artifact.
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 8;
    let model_a = ring_host(1.0); // generous delays: matches exist
    let model_b = ring_host(10.0); // everything too slow: zero matches
    let req = PlannedRequest {
        host: "churn".into(),
        query: edge_query(),
        constraint: "rEdge.avgDelay <= 20.0".into(),
        options: Options::default(),
    };
    let expect_a = isolated_submit(&[("churn", model_a.clone())], &req);
    let expect_b = isolated_submit(&[("churn", model_b.clone())], &req);
    assert!(!expect_a.mappings().is_empty());
    assert!(expect_b.mappings().is_empty());

    let svc = NetEmbedService::new();
    svc.registry().register("churn", model_a.clone());
    let planner = svc.planner();
    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let planner = &planner;
            let req = &req;
            let (expect_a, expect_b) = (&expect_a, &expect_b);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    let resp = planner.run(req).unwrap();
                    let matches_a = resp.mappings() == expect_a.mappings();
                    let matches_b = resp.mappings() == expect_b.mappings();
                    assert!(
                        matches_a || matches_b,
                        "client {t} round {round}: result matches neither model version"
                    );
                    assert!(
                        matches!(resp.outcome, Outcome::Complete(_)),
                        "client {t} round {round}: complete enumeration expected"
                    );
                }
            });
        }
        // The writer: keep bumping while the clients are in flight.
        let svc_ref = &svc;
        let (ma, mb) = (&model_a, &model_b);
        let barrier = &barrier;
        s.spawn(move || {
            barrier.wait();
            for i in 0..CLIENTS * ROUNDS {
                let model = if i % 2 == 0 { mb } else { ma };
                svc_ref.registry().register("churn", model.clone());
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(planner.pending_requests(), 0);
    assert_eq!(planner.undelivered_results(), 0);
}

#[test]
fn parallel_group_members_agree_with_isolated_runs() {
    // Grouped dispatch must not change parallel results either: the
    // solution *set* (order is scheduling-dependent) matches isolated
    // runs at every pinned worker count, and group members share one
    // leased pool.
    for workers in test_workers() {
        const N: usize = 4;
        let host = ring_host(1.0);
        let req = PlannedRequest {
            host: "plab".into(),
            query: edge_query(),
            constraint: "rEdge.avgDelay <= 20.0".into(),
            options: Options {
                algorithm: Algorithm::ParallelEcf { threads: workers },
                ..Options::default()
            },
        };
        let expected = isolated_submit(&[("plab", host.clone())], &req);
        let svc = NetEmbedService::new();
        svc.registry().register("plab", host);
        let planner = svc.planner();
        let barrier = Barrier::new(N);
        let responses: Vec<QueryResponse> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        planner.run(&req).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(
                sorted_mappings(resp),
                sorted_mappings(&expected),
                "client {i} at {workers} workers diverged"
            );
            assert!(matches!(resp.outcome, Outcome::Complete(_)));
        }
        let builds = responses
            .iter()
            .filter(|r| r.stats.constraint_evals > 0)
            .count();
        assert_eq!(builds, 1, "{workers} workers: burst built more than once");
    }
}

#[test]
fn warm_planner_dispatch_keeps_pool_spawns_frozen() {
    // ROADMAP "scratch-lease tuning" telemetry: after a cold burst
    // spawned the pool, a warm burst must run entirely on parked
    // threads — `spawned_total` frozen between telemetry probes.
    let workers = test_workers().into_iter().max().unwrap_or(2);
    const N: usize = 4;
    let host = ring_host(1.0);
    let svc = NetEmbedService::new();
    svc.registry().register("plab", host);
    let planner = svc.planner();
    let req = PlannedRequest {
        host: "plab".into(),
        query: edge_query(),
        constraint: "rEdge.avgDelay <= 20.0".into(),
        options: Options {
            algorithm: Algorithm::ParallelEcf { threads: workers },
            ..Options::default()
        },
    };
    let burst = |label: &str| -> Vec<QueryResponse> {
        let barrier = Barrier::new(N);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        planner.run(&req).unwrap()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
        .into_iter()
        .inspect(|r| assert!(!r.mappings().is_empty(), "{label}: must embed"))
        .collect()
    };

    burst("cold");
    let warm_before = svc.telemetry();
    assert_eq!(
        warm_before.parked_scratches, 1,
        "serialized dispatch uses one leased scratch"
    );
    assert!(warm_before.spawned_total >= workers as u64);
    assert_eq!(warm_before.pool_threads as u64, warm_before.spawned_total);

    let warm = burst("warm");
    let warm_after = svc.telemetry();
    assert_eq!(
        warm_after.spawned_total, warm_before.spawned_total,
        "warm planner dispatch must spawn no threads"
    );
    assert!(
        warm.iter().any(|r| r.stats.pool_reuse > 0),
        "warm burst never touched a parked pool thread"
    );
    assert!(
        warm.iter().all(|r| r.stats.constraint_evals == 0),
        "warm burst rebuilt a filter"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Group dispatch never changes outcomes: for randomized hosts,
    /// thresholds and request mixes, every planner result equals the
    /// isolated sequential submit of the same request.
    #[test]
    fn random_request_mixes_match_isolated_submits(
        hedges in proptest::collection::vec((0u32..7, 0u32..7, 5u32..60), 4..18),
        thr1 in 8u32..55,
        thr2 in 8u32..55,
        assignment in proptest::collection::vec(0usize..4, 4..14),
        clients in 2usize..4,
    ) {
        // Random undirected host on 7 nodes (self-loops/dupes dropped).
        let mut host = Network::new(Direction::Undirected);
        let ids: Vec<_> = (0..7).map(|i| host.add_node(format!("n{i}"))).collect();
        for &(u, v, d) in &hedges {
            let (u, v) = (ids[(u % 7) as usize], ids[(v % 7) as usize]);
            if u != v && !host.has_edge(u, v) {
                let e = host.add_edge(u, v);
                host.set_edge_attr(e, "avgDelay", d as f64);
            }
        }
        let menu: Vec<PlannedRequest> = vec![
            PlannedRequest {
                host: "h".into(),
                query: edge_query(),
                constraint: format!("rEdge.avgDelay <= {thr1}.0"),
                options: Options::default(),
            },
            PlannedRequest {
                host: "h".into(),
                query: edge_query(),
                constraint: format!("rEdge.avgDelay <= {thr2}.0"),
                options: Options::default(),
            },
            PlannedRequest {
                host: "h".into(),
                query: path_query(),
                constraint: format!("rEdge.avgDelay <= {thr1}.0"),
                options: Options {
                    mode: SearchMode::UpTo(3),
                    ..Options::default()
                },
            },
            PlannedRequest {
                host: "h".into(),
                query: edge_query(),
                constraint: format!("rEdge.avgDelay <= {thr1}.0"),
                options: Options {
                    algorithm: Algorithm::Rwb,
                    mode: SearchMode::First,
                    seed: 7,
                    ..Options::default()
                },
            },
        ];
        let models = vec![("h", host)];
        let expected: Vec<QueryResponse> =
            menu.iter().map(|req| isolated_submit(&models, req)).collect();

        let svc = NetEmbedService::new();
        svc.registry().register("h", models[0].1.clone());
        let planner = svc.planner();
        let failures = std::sync::Mutex::new(Vec::<String>::new());
        std::thread::scope(|s| {
            for t in 0..clients {
                let planner = &planner;
                let (menu, expected) = (&menu, &expected);
                let assignment = &assignment;
                let failures = &failures;
                s.spawn(move || {
                    for (i, &idx) in assignment.iter().enumerate() {
                        if i % clients != t {
                            continue;
                        }
                        let resp = planner.run(&menu[idx]).unwrap();
                        if resp.mappings() != expected[idx].mappings()
                            || resp.outcome != expected[idx].outcome
                        {
                            failures.lock().unwrap().push(format!(
                                "client {t} item {i} (menu {idx}): grouped result diverged"
                            ));
                        }
                    }
                });
            }
        });
        let failures = failures.into_inner().unwrap();
        prop_assert!(failures.is_empty(), "{}", failures.join("; "));
        prop_assert_eq!(planner.pending_requests(), 0);
        prop_assert_eq!(planner.undelivered_results(), 0);
    }
}
