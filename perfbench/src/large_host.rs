//! `large-host`: a closed loop of small hierarchical requests against a
//! power-law host of about 10⁵ nodes, one client,
//! `NetEmbedService::submit` with `Options::hierarchy` set.
//!
//! Queries are 3–5-node shapes pinned to the planted hot region, with
//! varied cpu and bandwidth demands. Every [`COMMIT_EVERY`] requests a
//! tracked commit changes a few nodes' cpu, so the next request finds
//! no hierarchy for the new epoch and re-coarsens the host. This is the
//! only workload where coarsening and refinement dominate; the filter
//! cache is bypassed by the hierarchical path.

use crate::gate::Snapshots;
use crate::measure;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{
    epoch_of, item_rng, replay, Commit, Finish, InlineGate, Outcome, Pass, Probe, Request,
    RunConfig, Scale, Served,
};
use netembed::{Algorithm, EmbedScratch, HierarchySpec, Options, SearchMode, SubstrateHierarchy};
use netgraph::{Direction, Network, NodeId};
use rand::Rng;
use service::{DirtySet, HierarchyKey, NetEmbedService, QueryRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOST: &str = "powerlaw";
/// Requests per commit cycle: a tracked commit, then this many requests.
pub const COMMIT_EVERY: u64 = 100;
/// Nodes whose cpu one commit changes.
const COMMIT_NODES: usize = 8;
pub const LATENCY_LIMIT: Duration = Duration::from_millis(100);
/// Tail percentile reported as `latency_tail_ms`.
pub const TAIL_PCT: f64 = 90.0;
/// One request in this many (of those small enough) is checked against
/// the flat oracle.
const ORACLE_EVERY: u64 = 8;
const SETUP_REPEATS: usize = 3;
const WARMUP: u64 = 8;

fn spec() -> HierarchySpec {
    HierarchySpec::default()
}

/// The host is fixed; the seed varies the request and commit streams.
const HOST_SEED: u64 = 0x4e45_5445_4d42;

fn host(scale: Scale) -> Network {
    let n = match scale {
        Scale::Full => 100_000,
        Scale::Tiny => 1_500,
    };
    topogen::power_law(
        &topogen::PowerLawParams::paper_default(n),
        &mut item_rng(HOST_SEED, 30, 0),
    )
}

/// Request `i`: a small shape in the hot region under one of three
/// constraint families.
fn request(seed: u64, i: u64) -> Request {
    let mut rng = item_rng(seed, 31, i);
    // Stratified: every 15 consecutive requests cover each shape under
    // each constraint family once; the seed draws the demands.
    let (shape, family) = (i % 5, (i / 5) % 3);
    let (n, edges): (usize, Vec<(u32, u32)>) = match shape {
        0 => (3, vec![(0, 1), (1, 2)]),
        1 => (3, vec![(0, 1), (1, 2), (0, 2)]),
        2 => (4, vec![(0, 1), (1, 2), (2, 3)]),
        3 => (4, vec![(0, 1), (0, 2), (0, 3)]),
        _ => (5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]),
    };
    let cpu = rng.random_range(4.0..20.0f64).round();
    let bw = rng.random_range(1.0..2.5f64);
    let mut q = Network::new(Direction::Undirected);
    for v in 0..n {
        let id = q.add_node(format!("q{v}"));
        q.set_node_attr(id, "want", "hot");
        q.set_node_attr(id, "cpu", cpu);
    }
    for (a, b) in edges {
        let e = q.add_edge(NodeId(a), NodeId(b));
        q.set_edge_attr(e, "bw", bw);
    }
    let constraint = match family {
        0 => "rNode.region == vNode.want",
        1 => "rNode.region == vNode.want && rNode.cpu >= vNode.cpu",
        _ => "rNode.region == vNode.want && rEdge.bw >= vEdge.bw",
    };
    // Bounded modes keep a request's cost off its solution count (a
    // 3-node path in the hot region has up to ~1.5k embeddings); only
    // the triangle, with a few hundred at most, enumerates them all.
    let mode = match shape {
        0 => SearchMode::UpTo(32),
        1 => SearchMode::All,
        _ => SearchMode::UpTo(8),
    };
    Request {
        id: i,
        host: 0,
        query: q,
        constraint: constraint.to_string(),
        options: Options {
            algorithm: Algorithm::Ecf,
            mode,
            timeout: Some(Duration::from_millis(1000)),
            hierarchy: Some(spec()),
            ..Options::default()
        },
        planted: None,
        oracle: n <= 4 && rng.random_range(0..ORACLE_EVERY) == 0,
    }
}

fn to_query(r: &Request) -> QueryRequest {
    QueryRequest {
        host: HOST.to_string(),
        query: r.query.clone(),
        constraint: r.constraint.clone(),
        options: r.options.clone(),
    }
}

struct World {
    svc: NetEmbedService,
    snaps: Snapshots,
    nodes: u32,
}

/// Generate, register, coarsen and warm up: the timed unit of
/// `setup_s`, including the first coarsening.
fn setup(cfg: &RunConfig) -> World {
    let svc = NetEmbedService::new();
    svc.registry().register(HOST, host(cfg.scale));
    let (net, epoch) = svc.registry().get(HOST).expect("just registered");
    let nodes = net.node_count() as u32;
    let mut snaps = Snapshots::new(1);
    snaps.record(0, epoch, net);
    svc.warm_hierarchy(HOST, spec()).expect("host registered");
    for i in 0..WARMUP {
        let _ = svc.submit(&to_query(&request(HOST_SEED, i)));
    }
    World { svc, snaps, nodes }
}

/// A tracked cpu update on a few nodes.
fn commit(w: &mut World, seed: u64, i: u64, tr: Option<&mut Tracer>) -> Commit {
    let mut rng = item_rng(seed, 32, i);
    let changes: Vec<(u32, f64)> = (0..COMMIT_NODES)
        .map(|_| {
            (
                rng.random_range(0..w.nodes),
                rng.random_range(1..=32u32) as f64,
            )
        })
        .collect();
    let at = Instant::now();
    let mut tr = tr;
    let span = tr.as_deref_mut().map(|t| t.begin("registry.commit", i));
    w.svc
        .registry()
        .update_dirty(
            HOST,
            DirtySet::from_ids(changes.iter().map(|c| c.0)),
            |net| {
                for &(v, cpu) in &changes {
                    net.set_node_attr(NodeId(v), "cpu", cpu);
                }
            },
        )
        .expect("host registered");
    if let (Some(t), Some(span)) = (tr, span) {
        t.end(span);
    }
    let (net, epoch) = w.svc.registry().get(HOST).expect("host registered");
    // Every earlier record is gated already: older snapshots can go.
    w.snaps.prune_before(0, epoch);
    w.snaps.record(0, epoch, net);
    Commit { host: 0, epoch, at }
}

fn pass(
    w: &mut World,
    cfg: &RunConfig,
    next: &mut u64,
    budget: Duration,
    traced: bool,
    tr: &mut Tracer,
) -> Pass {
    let mut scratch = EmbedScratch::new();
    let mut out = Pass::new(LATENCY_LIMIT);
    let mut gate = InlineGate::new(cfg.corrupt && !traced);
    let start = Instant::now();
    let mut last_reply: Option<Instant> = None;
    // Traced pass: the coarsening after a commit runs as its own span
    // and is charged to the next request's end-to-end time.
    let mut coarsen = Duration::ZERO;
    // Whole commit cycles only: a run never ends mid-cycle, so every
    // run weighs coarsening against cached requests alike.
    while start.elapsed() - gate.time < budget || !next.is_multiple_of(COMMIT_EVERY) {
        let i = *next;
        *next += 1;
        if i.is_multiple_of(COMMIT_EVERY) {
            out.tally
                .commit(commit(w, cfg.seed, i, traced.then_some(&mut *tr)));
            if traced {
                let t = Instant::now();
                let span = tr.begin("hierarchy.coarsen", i);
                w.svc.warm_hierarchy(HOST, spec()).expect("host registered");
                tr.end(span);
                coarsen = t.elapsed();
            }
        }
        let req = Arc::new(request(cfg.seed, i));
        let query = to_query(&req);
        let lo = epoch_of(&w.svc, HOST);
        let t = Instant::now();
        if let Some(prev) = last_reply {
            out.lag.push(measure::ms(t - prev));
        }
        let reply = w.svc.submit(&query);
        let done = Instant::now();
        let hi = epoch_of(&w.svc, HOST);
        if traced {
            let key = HierarchyKey {
                host: HOST.to_string(),
                epoch: lo,
                spec: spec(),
            };
            let net = w
                .snaps
                .between(0, lo, lo)
                .pop()
                .expect("snapshot of the submit epoch");
            let hierarchy = w.svc.hierarchy_cache().lookup(&key).unwrap_or_else(|| {
                tr.leaf("hierarchy.coarsen", i, || {
                    Arc::new(SubstrateHierarchy::build(&net, &spec()))
                })
            });
            replay::hier(tr, &req, &net, &hierarchy, &mut scratch);
        }
        let latency = (done - t) + std::mem::take(&mut coarsen);
        let served = Served {
            request: req,
            lo,
            hi,
            reply,
            latency,
            done,
        };
        out.tally.record(gate.check(served, &w.snaps));
        last_reply = Some(Instant::now());
    }
    out.wall = start.elapsed() - gate.time;
    out.verdict = gate.finish();
    out
}

pub fn run(cfg: &RunConfig, r: &mut Report) -> Outcome {
    let (mut w, setups) = crate::repeat_setup(SETUP_REPEATS, || setup(cfg));
    let mut tr = Tracer::new();
    let mut next = 0u64;
    let budget = cfg.measure_for();
    let before = Probe::of(&w.svc);
    let passes = if cfg.trace {
        let plain = pass(&mut w, cfg, &mut next, budget / 2, false, &mut tr);
        let traced = pass(&mut w, cfg, &mut next, budget / 2, true, &mut tr);
        vec![plain, traced]
    } else {
        vec![pass(&mut w, cfg, &mut next, budget, false, &mut tr)]
    };
    let after = Probe::of(&w.svc);
    r.meta_num("host_nodes", f64::from(w.nodes));
    r.meta_num("commit_every_requests", COMMIT_EVERY as f64);
    crate::finish(
        Finish {
            workload: "large-host",
            cfg,
            setups: &setups,
            passes,
            tracer: &tr,
            before,
            after,
            latency_limit: LATENCY_LIMIT,
            tail_pct: TAIL_PCT,
        },
        r,
    )
}
