//! Integration tests for the §VIII extension features working together:
//! link→path mapping, time-window scheduling, region-first negotiation
//! and automorphism compression.

use netembed::automorph::{compress_orbits, query_automorphisms};
use netembed::pathmap::{check_path_mapping, search_paths, PathPolicy};
use netembed::{Deadline, Engine, Options};
use netgraph::{AttrValue, Direction, Network, NodeId};
use service::{NegotiationOutcome, NetEmbedService, Scheduler};
use topogen::{transit_stub, TransitStubParams};

fn fabric(seed: u64) -> Network {
    let mut f = transit_stub(
        &TransitStubParams {
            transit: 3,
            stubs_per_transit: 2,
            stub_size: 4,
            stub_extra_edge_prob: 0.5,
        },
        &mut topogen::rng(seed),
    );
    for n in f.node_ids().collect::<Vec<_>>() {
        f.set_node_attr(n, "cpu", 4.0);
    }
    f
}

#[test]
fn path_mapping_beats_plain_embedding_on_sparse_fabric() {
    let host = fabric(60);
    // A triangle with generous delay windows: the sparse transit-stub
    // fabric has very few host triangles, so plain embedding usually
    // fails where 2-hop path mapping succeeds.
    let mut q = Network::new(Direction::Undirected);
    let ids: Vec<NodeId> = (0..3).map(|i| q.add_node(format!("q{i}"))).collect();
    for i in 0..3 {
        let e = q.add_edge(ids[i], ids[(i + 1) % 3]);
        q.set_edge_attr(e, "dmin", 0.0);
        q.set_edge_attr(e, "dmax", 200.0);
    }

    let policy = PathPolicy {
        max_hops: 3,
        ..PathPolicy::default()
    };
    let mut dl = Deadline::unlimited();
    let (paths, _) = search_paths(&q, &host, &policy, None, 1, &mut dl).unwrap();
    assert!(
        !paths.is_empty(),
        "path mapping must find a placement on the fabric"
    );
    check_path_mapping(&q, &host, &policy, &paths[0]).unwrap();
}

#[test]
fn scheduler_serializes_conflicting_jobs() {
    // A deliberately tiny fabric (7 nodes) so eight 2-node jobs cannot all
    // run concurrently.
    let mut small = transit_stub(
        &TransitStubParams {
            transit: 1,
            stubs_per_transit: 2,
            stub_size: 3,
            stub_extra_edge_prob: 0.5,
        },
        &mut topogen::rng(61),
    );
    for n in small.node_ids().collect::<Vec<_>>() {
        small.set_node_attr(n, "cpu", 4.0);
    }
    let mut scheduler = Scheduler::new(small, &["cpu"]);
    let mut job = Network::new(Direction::Undirected);
    let a = job.add_node("a");
    let b = job.add_node("b");
    job.add_edge(a, b);
    job.set_node_attr(a, "cpu", 4.0); // takes a whole host node
    job.set_node_attr(b, "cpu", 4.0);
    let constraint = "rNode.cpu >= vNode.cpu && rEdge.avgDelay <= 10.0";

    // Stub LANs have ≤ 5ms links; each stub has 4 nodes. Saturate.
    let mut windows = Vec::new();
    for _ in 0..8 {
        let w = scheduler
            .find_window(&job, constraint, 25, 0, 1_000, &Options::default())
            .expect("eventually a window exists");
        windows.push(w);
    }
    // All grants are capacity-consistent (pairwise overlapping grants
    // never share a host node).
    for i in 0..windows.len() {
        for j in (i + 1)..windows.len() {
            let (wi, wj) = (&windows[i], &windows[j]);
            let overlap = wi.start < wj.end && wj.start < wi.end;
            if overlap {
                let hosts_i: std::collections::HashSet<NodeId> =
                    wi.mapping.iter().map(|(_, r)| r).collect();
                for (_, r) in wj.mapping.iter() {
                    assert!(!hosts_i.contains(&r), "overlapping windows share host {r}");
                }
            }
        }
    }
    // At least one job had to wait (a stub LAN holds at most 2 such jobs).
    assert!(
        windows.iter().any(|w| w.start > 0),
        "saturation never forced a later window"
    );
}

/// The region-first template over the transit-stub `domain`
/// attribute: level 0 keeps every query edge inside one domain, level 1
/// is the bare constraint.
fn domain_first(c: &str) -> impl Fn(f64) -> String + '_ {
    move |level| {
        if level == 0.0 {
            format!("({c}) && rSource.domain == rTarget.domain")
        } else {
            c.to_string()
        }
    }
}

fn edge_query() -> Network {
    let mut q = Network::new(Direction::Undirected);
    let a = q.add_node("a");
    let b = q.add_node("b");
    q.add_edge(a, b);
    q
}

#[test]
fn partitioned_fabric_answers_stub_queries_locally() {
    let host = fabric(62);
    let svc = NetEmbedService::new();
    svc.registry().register("fabric", host.clone());
    let levels = [0.0, 1.0];

    // An intra-LAN edge query (≤ 5ms) lives inside one stub domain.
    let q = edge_query();
    let local = svc
        .negotiate(
            "fabric",
            &q,
            &levels,
            &Options::default(),
            domain_first("rEdge.avgDelay <= 5.0"),
        )
        .unwrap();
    let NegotiationOutcome::Satisfied {
        index: 0, outcome, ..
    } = local
    else {
        panic!("intra-LAN query not satisfied at level 0: {local:?}");
    };
    let mappings = outcome.mappings();
    assert!(!mappings.is_empty());
    let domain = |r: NodeId| {
        host.node_attr_by_name(r, "domain")
            .and_then(AttrValue::as_num)
    };
    for m in mappings {
        let first = domain(m.as_slice()[0]);
        assert!(first.is_some());
        assert!(
            m.iter().all(|(_, r)| domain(r) == first),
            "level-0 image spans domains: {m:?}"
        );
    }

    // A wide-area query (≥ 20ms) needs transit links: still found.
    let wide = svc
        .negotiate(
            "fabric",
            &q,
            &levels,
            &Options::default(),
            domain_first("rEdge.avgDelay >= 20.0"),
        )
        .unwrap();
    assert!(
        matches!(wide, NegotiationOutcome::Satisfied { .. }),
        "{wide:?}"
    );
}

#[test]
fn automorphism_compression_matches_engine_counts() {
    // Ring query into a clique host: solutions = orbits × |Aut(ring)|.
    let mut host = Network::new(Direction::Undirected);
    let ids: Vec<NodeId> = (0..6).map(|i| host.add_node(format!("h{i}"))).collect();
    for i in 0..6 {
        for j in (i + 1)..6 {
            host.add_edge(ids[i], ids[j]);
        }
    }
    let ring = topogen::regular::ring(4);
    let engine = Engine::new(&host);
    let res = engine.embed(&ring, "true", &Options::default()).unwrap();

    let autos = query_automorphisms(&ring, 1_000);
    assert_eq!(autos.order(), 8); // D4
    let orbits = compress_orbits(&res.mappings, &autos);
    // Every orbit is full (host is symmetric), so count × 8 = total.
    assert_eq!(orbits.len() * 8, res.mappings.len());
    for o in &orbits {
        assert_eq!(o.size, 8);
    }
}

#[test]
fn scheduler_plus_partition_round_trip() {
    // Schedule against the residual model of a fabric: take the model
    // at t=0, negotiate region-first against it, and check that view
    // agrees with flat feasibility on an easy query.
    let base = fabric(63);
    let scheduler = Scheduler::new(base.clone(), &["cpu"]);
    let model = scheduler.model_at(0);
    let svc = NetEmbedService::new();
    svc.registry().register("residual", model.clone());

    let q = edge_query();
    let flat = Engine::new(&model)
        .embed(&q, "rEdge.avgDelay <= 5.0", &Options::default())
        .unwrap();
    let negotiated = svc
        .negotiate(
            "residual",
            &q,
            &[0.0, 1.0],
            &Options::default(),
            domain_first("rEdge.avgDelay <= 5.0"),
        )
        .unwrap();
    assert_eq!(
        flat.mappings.is_empty(),
        !matches!(negotiated, NegotiationOutcome::Satisfied { .. })
    );
}
