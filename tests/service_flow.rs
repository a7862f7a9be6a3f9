//! Service-level flows: registration, query, reservation, release,
//! negotiation and monitoring churn — the full Figure-1 architecture.

use netembed::{Algorithm, Options, SearchMode};
use netgraph::{AttrValue, Direction, Network, NodeId};
use service::{
    MonitorParams, MonitorSim, NegotiationOutcome, NetEmbedService, QueryRequest,
    ReservationManager,
};

fn host_with_capacity() -> Network {
    let mut h = Network::new(Direction::Undirected);
    let nodes: Vec<NodeId> = (0..8).map(|i| h.add_node(format!("h{i}"))).collect();
    for (i, &n) in nodes.iter().enumerate() {
        h.set_node_attr(n, "cpu", 4.0);
        h.set_node_attr(
            n,
            "osType",
            if i % 2 == 0 { "linux-2.6" } else { "freebsd-5" },
        );
    }
    for i in 0..8 {
        for j in (i + 1)..8 {
            let e = h.add_edge(nodes[i], nodes[j]);
            h.set_edge_attr(e, "avgDelay", (5 + 7 * ((i + j) % 5)) as f64);
        }
    }
    h
}

fn cpu_query(demand: f64) -> Network {
    let mut q = Network::new(Direction::Undirected);
    let a = q.add_node("a");
    let b = q.add_node("b");
    q.add_edge(a, b);
    q.set_node_attr(a, "cpu", demand);
    q.set_node_attr(b, "cpu", demand);
    q
}

#[test]
fn reserve_until_exhaustion_then_release() {
    let svc = NetEmbedService::new();
    svc.registry().register("t", host_with_capacity());
    let mgr = ReservationManager::new();
    let query = cpu_query(3.0);
    let constraint = "rNode.cpu >= vNode.cpu";
    let request = QueryRequest {
        host: "t".into(),
        query: query.clone(),
        constraint: constraint.into(),
        options: Options {
            mode: SearchMode::First,
            ..Options::default()
        },
    };

    // Each reservation takes 3 of 4 cpu units on two hosts; 8 hosts allow
    // 4 slices before exhaustion.
    let mut tickets = Vec::new();
    for i in 0..4 {
        let resp = svc.submit(&request).unwrap();
        assert!(!resp.mappings().is_empty(), "slice {i} should fit");
        let t = mgr
            .reserve(svc.registry(), "t", &query, &resp.mappings()[0], &["cpu"])
            .unwrap();
        tickets.push(t.ticket);
    }
    // Fifth slice: every node is down to 1 cpu unit.
    let resp = svc.submit(&request).unwrap();
    assert!(resp.mappings().is_empty());
    assert!(resp.outcome.definitively_infeasible());

    // Release one slice and retry.
    mgr.release(svc.registry(), tickets[0]).unwrap();
    let resp = svc.submit(&request).unwrap();
    assert!(
        !resp.mappings().is_empty(),
        "capacity restored after release"
    );
}

#[test]
fn negotiation_against_service_model() {
    let svc = NetEmbedService::new();
    svc.registry().register("t", host_with_capacity());
    let q = cpu_query(0.0);
    // Delay values in the host are 5..33; a 1ms budget fails, 40 succeeds.
    // Negotiation runs against the registered model through the service's
    // prepared-query path (per-level filters land in the shared cache).
    let out = svc
        .negotiate("t", &q, &[1.0, 2.0, 40.0], &Options::default(), |budget| {
            format!("rEdge.avgDelay <= {budget}")
        })
        .unwrap();
    match out {
        NegotiationOutcome::Satisfied { index, .. } => assert_eq!(index, 2),
        other => panic!("unexpected {other:?}"),
    }
    // A second service holding the same model as a bare snapshot agrees.
    let fresh = NetEmbedService::new();
    fresh
        .registry()
        .register("t", (*svc.registry().model("t").unwrap()).clone());
    let out = fresh
        .negotiate("t", &q, &[1.0, 2.0, 40.0], &Options::default(), |b| {
            format!("rEdge.avgDelay <= {b}")
        })
        .unwrap();
    assert!(matches!(
        out,
        NegotiationOutcome::Satisfied { index: 2, .. }
    ));
}

#[test]
fn monitoring_churn_invalidates_and_recovers_placements() {
    let svc = NetEmbedService::new();
    svc.registry().register("t", host_with_capacity());
    let mut sim = MonitorSim::new(MonitorParams {
        delay_jitter: 0.3,
        flap_prob: 0.0,
        seed: 17,
    });

    let q = cpu_query(0.0);
    // A tight window around the minimum delay value (5ms).
    let constraint = "rEdge.avgDelay >= 4.5 && rEdge.avgDelay <= 5.5";
    let request = QueryRequest {
        host: "t".into(),
        query: q.clone(),
        constraint: constraint.into(),
        options: Options::default(),
    };
    let initial = svc.submit(&request).unwrap().mappings().len();
    assert!(initial > 0);

    let mut changed = false;
    for _ in 0..15 {
        sim.tick(svc.registry(), "t");
        let now = svc.submit(&request).unwrap().mappings().len();
        if now != initial {
            changed = true;
            break;
        }
    }
    assert!(changed, "30% jitter never changed the answer in 15 ticks");
}

#[test]
fn os_binding_respected_end_to_end() {
    let svc = NetEmbedService::new();
    svc.registry().register("t", host_with_capacity());
    let mut q = cpu_query(1.0);
    q.set_node_attr(NodeId(0), "osType", "linux-2.6");
    q.set_node_attr(NodeId(1), "osType", "linux-2.6");
    let resp = svc
        .submit(&QueryRequest {
            host: "t".into(),
            query: q.clone(),
            constraint: "isBoundTo(vNode.osType, rNode.osType)".into(),
            options: Options::default(),
        })
        .unwrap();
    let host = svc.registry().model("t").unwrap();
    assert!(!resp.mappings().is_empty());
    for m in resp.mappings() {
        for (_, r) in m.iter() {
            assert_eq!(
                host.node_attr_by_name(r, "osType")
                    .and_then(AttrValue::as_str),
                Some("linux-2.6"),
                "os binding violated"
            );
        }
    }
}

#[test]
fn parallel_algorithm_through_service() {
    let svc = NetEmbedService::new();
    svc.registry().register("t", host_with_capacity());
    let q = cpu_query(0.0);
    let serial = svc
        .submit(&QueryRequest {
            host: "t".into(),
            query: q.clone(),
            constraint: "rEdge.avgDelay <= 20.0".into(),
            options: Options::default(),
        })
        .unwrap();
    let parallel = svc
        .submit(&QueryRequest {
            host: "t".into(),
            query: q,
            constraint: "rEdge.avgDelay <= 20.0".into(),
            options: Options {
                algorithm: Algorithm::ParallelEcf { threads: 4 },
                ..Options::default()
            },
        })
        .unwrap();
    assert_eq!(serial.mappings().len(), parallel.mappings().len());
}
