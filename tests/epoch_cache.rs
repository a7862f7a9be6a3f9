//! Epoch/cache semantics, property-tested end to end through the
//! service: a filter served from the epoch-keyed cache must be
//! **bitwise-identical** (the CSR-storage `PartialEq` from the layout
//! properties) to a filter freshly built against the same model
//! snapshot, at every tested worker count; and a model mutation —
//! `registry.update` or a reservation commit — must invalidate exactly
//! the affected host's entries, leaving sibling hosts' cached filters
//! hot. A reservation commit is tracked, so the affected host's filter
//! is patched in place rather than rebuilt.

use netembed::{Algorithm, Deadline, Engine, FilterMatrix, Mapping, Options, Problem, SearchStats};
use netgraph::{Direction, Network, NodeId};
use proptest::prelude::*;
use service::cache::network_fingerprint;
use service::{FilterKey, NetEmbedService, QueryRequest, ReservationManager};

/// Worker counts exercised (1 = sequential build path, >1 = the pooled
/// parallel build). CI pins this via `NETEMBED_TEST_WORKERS=4` so the
/// persistent-pool path runs even on single-core runners.
fn test_workers() -> Vec<usize> {
    match std::env::var("NETEMBED_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => vec![1, 2, 3, 4],
    }
}

/// Random host/query pair (undirected; self-loops and duplicates
/// dropped, query clamped to the host size so the problem is wellformed).
fn build_nets(
    nr: usize,
    hedges: &[(u32, u32, u32)],
    nq: usize,
    qedges: &[(u32, u32)],
) -> (Network, Network) {
    let nq = nq.min(nr);
    let mut host = Network::new(Direction::Undirected);
    for i in 0..nr {
        host.add_node(format!("h{i}"));
    }
    for &(u, v, d) in hedges {
        let (u, v) = (NodeId(u % nr as u32), NodeId(v % nr as u32));
        if u != v && !host.has_edge(u, v) {
            let e = host.add_edge(u, v);
            host.set_edge_attr(e, "d", d as f64);
        }
    }
    let mut query = Network::new(Direction::Undirected);
    for i in 0..nq {
        query.add_node(format!("q{i}"));
    }
    for &(u, v) in qedges {
        let (u, v) = (NodeId(u % nq as u32), NodeId(v % nq as u32));
        if u != v && !query.has_edge(u, v) {
            query.add_edge(u, v);
        }
    }
    (host, query)
}

fn fresh_filter(query: &Network, host: &Network, constraint: &str) -> FilterMatrix {
    let problem = Problem::new(query, host, constraint).expect("wellformed problem");
    let mut dl = Deadline::unlimited();
    let mut stats = SearchStats::default();
    FilterMatrix::build(&problem, &mut dl, &mut stats).expect("unlimited build")
}

/// Sorted host-id vectors of `mappings`.
fn mapping_set(mappings: &[Mapping]) -> Vec<Vec<NodeId>> {
    let mut out: Vec<Vec<NodeId>> = mappings.iter().map(|m| m.as_slice().to_vec()).collect();
    out.sort();
    out
}

fn request(host: &str, query: &Network, constraint: &str, threads: usize) -> QueryRequest {
    QueryRequest {
        host: host.into(),
        query: query.clone(),
        constraint: constraint.into(),
        options: Options {
            algorithm: if threads > 1 {
                Algorithm::ParallelEcf { threads }
            } else {
                Algorithm::Ecf
            },
            ..Options::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache hit returns a filter bitwise-identical to a fresh
    /// sequential build against the same snapshot — whichever worker
    /// count (sequential or pooled-parallel build) populated the cache.
    #[test]
    fn cache_hit_is_bitwise_identical_to_fresh_build(
        nr in 3usize..8,
        hedges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..50), 1..20),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 5u32..45,
    ) {
        let (host, query) = build_nets(nr, &hedges, nq, &qedges);
        let constraint = format!("rEdge.d <= {thr}.0");
        for threads in test_workers() {
            let svc = NetEmbedService::new();
            let epoch = svc.registry().register("h", host.clone());
            let first = svc.submit(&request("h", &query, &constraint, threads)).unwrap();
            prop_assert_eq!(first.stats.filter_cache_hits, 0, "cold submit must build");
            let key = FilterKey {
                host: "h".into(),
                epoch,
                query_hash: network_fingerprint(&query),
                constraint: constraint.clone(),
            };
            let cached = svc.cache().lookup(&key).expect("first submit populated the cache");
            let fresh = fresh_filter(&query, &host, &constraint);
            prop_assert!(
                *cached == fresh,
                "cached filter differs from fresh build at {} threads",
                threads
            );
            // And the hit actually happens on the next submit, returning
            // that same matrix.
            let warm = svc.submit(&request("h", &query, &constraint, threads)).unwrap();
            prop_assert_eq!(warm.stats.filter_cache_hits, 1);
            prop_assert_eq!(warm.stats.constraint_evals, 0);
            prop_assert_eq!(warm.mappings().len(), first.mappings().len());
        }
    }

    /// `registry.update` invalidates exactly the updated host: the
    /// sibling host's cache entry stays hot, the updated host rebuilds
    /// exactly once (against the bumped epoch) and then hits again.
    #[test]
    fn update_invalidates_exactly_the_affected_host(
        nr in 3usize..8,
        hedges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..50), 1..20),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 5u32..45,
        bump in 1u32..40,
    ) {
        let (host, query) = build_nets(nr, &hedges, nq, &qedges);
        let constraint = format!("rEdge.d <= {thr}.0");
        for threads in test_workers() {
            let svc = NetEmbedService::new();
            svc.registry().register("a", host.clone());
            svc.registry().register("b", host.clone());
            svc.submit(&request("a", &query, &constraint, threads)).unwrap();
            svc.submit(&request("b", &query, &constraint, threads)).unwrap();
            prop_assert_eq!(svc.cache().len(), 2);

            // Mutate host `a` (delay shift ⇒ a genuinely different model).
            let new_epoch = svc
                .registry()
                .update("a", |net| {
                    for e in net.edge_refs().collect::<Vec<_>>() {
                        if let Some(d) = net
                            .edge_attr_by_name(e.id, "d")
                            .and_then(netgraph::AttrValue::as_num)
                        {
                            net.set_edge_attr(e.id, "d", d + bump as f64);
                        }
                    }
                })
                .unwrap();
            prop_assert_eq!(svc.registry().epoch("a"), Some(new_epoch));

            // `b` still hits — its epoch never moved.
            let b_warm = svc.submit(&request("b", &query, &constraint, threads)).unwrap();
            prop_assert_eq!(b_warm.stats.filter_cache_hits, 1, "host b was invalidated");

            // `a` rebuilds exactly once, bitwise-identical to a fresh
            // build against the *new* snapshot, then hits again.
            let a_rebuilt = svc.submit(&request("a", &query, &constraint, threads)).unwrap();
            prop_assert_eq!(a_rebuilt.stats.filter_cache_hits, 0, "host a served stale filter");
            let key = FilterKey {
                host: "a".into(),
                epoch: new_epoch,
                query_hash: network_fingerprint(&query),
                constraint: constraint.clone(),
            };
            let cached = svc.cache().lookup(&key).expect("rebuild cached");
            let new_model = svc.registry().model("a").unwrap();
            let fresh = fresh_filter(&query, &new_model, &constraint);
            prop_assert!(*cached == fresh, "post-update cache entry is stale");
            let a_warm = svc.submit(&request("a", &query, &constraint, threads)).unwrap();
            prop_assert_eq!(a_warm.stats.filter_cache_hits, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An epoch bump whose tracked delta only ever *shrinks* the model
    /// (every edge delay rises, so candidates can only leave) is
    /// repaired **in place**: the warm submit hits the patched entry
    /// with zero new misses, and that entry is bitwise-identical to a
    /// filter freshly built against the mutated snapshot.
    #[test]
    fn patched_entry_is_bitwise_identical_to_fresh_build(
        nr in 3usize..8,
        hedges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..50), 1..20),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 5u32..45,
        bump in 1u32..60,
    ) {
        let (host, query) = build_nets(nr, &hedges, nq, &qedges);
        let constraint = format!("rEdge.d <= {thr}.0");
        for threads in test_workers() {
            let svc = NetEmbedService::new();
            svc.registry().register("h", host.clone());
            let cold = svc.submit(&request("h", &query, &constraint, threads)).unwrap();
            prop_assert_eq!(cold.stats.filter_cache_hits, 0);

            // Every edge's delay rises: a purely subtractive delta
            // touching every node.
            let all_nodes = service::DirtySet::from_ids(0..nr as u32);
            let (_, new_epoch) = svc
                .registry()
                .update_dirty("h", all_nodes, |net| {
                    for e in net.edge_refs().collect::<Vec<_>>() {
                        if let Some(d) = net
                            .edge_attr_by_name(e.id, "d")
                            .and_then(netgraph::AttrValue::as_num)
                        {
                            net.set_edge_attr(e.id, "d", d + bump as f64);
                        }
                    }
                })
                .unwrap();

            let misses_before = svc.cache().misses();
            let warm = svc.submit(&request("h", &query, &constraint, threads)).unwrap();
            prop_assert_eq!(warm.stats.filter_cache_hits, 1, "patched entry must hit");
            prop_assert_eq!(warm.stats.patches, 1);
            prop_assert_eq!(svc.cache().misses(), misses_before, "subtractive delta rebuilt");
            let key = FilterKey {
                host: "h".into(),
                epoch: new_epoch,
                query_hash: network_fingerprint(&query),
                constraint: constraint.clone(),
            };
            let cached = svc.cache().lookup(&key).expect("patched entry re-keyed");
            let new_model = svc.registry().model("h").unwrap();
            let fresh = fresh_filter(&query, &new_model, &constraint);
            prop_assert!(
                *cached == fresh,
                "patched filter diverged from the fresh build at {} threads",
                threads
            );
        }
    }
}

/// Regression: a designated in-flight build racing `remove_model` must
/// not resurrect the dead host's cache entry. The removal poisons the
/// host's in-flight slots, so a builder completing *after* the model
/// died publishes nothing.
#[test]
fn inflight_build_completed_after_remove_model_stays_dead() {
    let (host, query) = build_nets(4, &[(0, 1, 5), (1, 2, 5), (2, 3, 5)], 2, &[(0, 1)]);
    let constraint = "rEdge.d <= 10.0";
    let svc = NetEmbedService::new();
    let epoch = svc.registry().register("h", host.clone());
    let key = FilterKey {
        host: "h".into(),
        epoch,
        query_hash: network_fingerprint(&query),
        constraint: constraint.into(),
    };
    let ticket = match svc.cache().fetch_or_build(&key, None) {
        service::cache::FilterFetch::MustBuild(ticket) => ticket,
        _ => panic!("cold fetch must designate a builder"),
    };

    // The model dies while the build is in flight.
    assert!(svc.remove_model("h").is_some());
    assert_eq!(svc.cache().len(), 0);

    // The late builder completes anyway: the poisoned slot must swallow
    // the publish instead of resurrecting a filter for a dead host.
    ticket.complete(std::sync::Arc::new(fresh_filter(&query, &host, constraint)));
    assert_eq!(
        svc.cache().len(),
        0,
        "a completed in-flight build resurrected a removed host's entry"
    );
    assert!(svc.cache().lookup(&key).is_none());
}

/// A reservation commit is a tracked registry update: the reserved
/// host's filter must not be served as it was (capacity dropped —
/// cached candidates would be wrong) but is patched in place, while
/// other hosts' entries stay hot.
#[test]
fn reservation_commit_invalidates_reserved_host_only() {
    let mut host = Network::new(Direction::Undirected);
    let a = host.add_node("a");
    let b = host.add_node("b");
    let c = host.add_node("c");
    for (u, v) in [(a, b), (b, c), (a, c)] {
        host.add_edge(u, v);
    }
    for n in [a, b, c] {
        host.set_node_attr(n, "cpu", 4.0);
    }
    let mut query = Network::new(Direction::Undirected);
    let x = query.add_node("x");
    let y = query.add_node("y");
    query.add_edge(x, y);
    query.set_node_attr(x, "cpu", 3.0);
    query.set_node_attr(y, "cpu", 3.0);
    let constraint = "rNode.cpu >= vNode.cpu";

    let svc = NetEmbedService::new();
    svc.registry().register("prod", host.clone());
    svc.registry().register("staging", host.clone());
    let mgr = ReservationManager::new();

    for threads in test_workers() {
        // (Re)warm both hosts' cache entries for this worker count's
        // first iteration; later iterations reuse them.
        let prod = svc
            .submit(&request("prod", &query, constraint, threads))
            .unwrap();
        assert!(!prod.mappings().is_empty());
        svc.submit(&request("staging", &query, constraint, threads))
            .unwrap();

        // Reserve on prod: cpu drops 4→1 on two nodes, epoch bumps.
        let ticket = mgr
            .reserve(
                svc.registry(),
                "prod",
                &query,
                &prod.mappings()[0],
                &["cpu"],
            )
            .unwrap();

        // Staging still hits; prod repairs its filter in place against
        // the reduced model (the tracked commit is removal-only) and the
        // answer reflects the reservation: fewer placements, exactly the
        // flat ECF set at the new epoch.
        let staging_warm = svc
            .submit(&request("staging", &query, constraint, threads))
            .unwrap();
        assert_eq!(
            staging_warm.stats.filter_cache_hits, 1,
            "staging invalidated by prod reservation (threads {threads})"
        );
        let misses_before = svc.cache().misses();
        let prod_after = svc
            .submit(&request("prod", &query, constraint, threads))
            .unwrap();
        assert_eq!(
            prod_after.stats.patches, 1,
            "prod did not patch its pre-reservation filter (threads {threads})"
        );
        assert_eq!(
            svc.cache().misses(),
            misses_before,
            "a reservation commit rebuilt prod's filter (threads {threads})"
        );
        assert!(
            prod_after.mappings().len() < prod.mappings().len(),
            "reservation must shrink the feasible set (threads {threads})"
        );
        let model = svc.registry().model("prod").unwrap();
        let problem = Problem::new(&query, &model, constraint).unwrap();
        let flat = Engine::run(&problem, &Options::default()).unwrap();
        assert_eq!(
            mapping_set(prod_after.mappings()),
            mapping_set(flat.outcome.mappings()),
            "patched answer diverges from flat ECF (threads {threads})"
        );

        // Release restores capacity for the next worker-count round.
        mgr.release(svc.registry(), ticket.ticket).unwrap();
    }
}
