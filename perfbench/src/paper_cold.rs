//! `paper-cold`: a closed loop of distinct one-shot requests from the
//! paper's §VII families, one client, `NetEmbedService::submit`.
//!
//! Hosts: the 60-site PlanetLab-like host and BRITE N=150 and N=250.
//! Queries: planted connected subgraphs (n = 5–15) under
//! `SUBGRAPH_CONSTRAINT` and Fig 13 cliques (k = 3–5) under
//! `CLIQUE_CONSTRAINT`, each with its own delay windows; one in five is
//! made infeasible (Fig 10). Algorithm, mode and timeout vary per
//! request. Every request misses the filter cache.
//!
//! A sparse monitor stream (one tracked commit per [`COMMIT_EVERY`]
//! requests, a node `load` reading no constraint uses, followed by a
//! standard probe request on the committed host) keeps
//! `commit_to_answer_ms` defined; with distinct keys there is never a
//! cached filter to repair, so the cache layers stay idle.

use crate::gate::Snapshots;
use crate::measure;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{
    epoch_of, item_rng, replay, Commit, Finish, InlineGate, Outcome, Pass, Probe, Request,
    RunConfig, Scale, Served,
};
use netembed::{Algorithm, EmbedScratch, Options, SearchMode};
use netgraph::{Network, NodeId};
use rand::Rng;
use service::{DirtySet, NetEmbedService, QueryRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tracked monitor commit per this many requests.
pub const COMMIT_EVERY: u64 = 16;
/// Requests answered correctly within this count toward `sla_ratio`.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(25);
/// Tail percentile reported as `latency_tail_ms`.
pub const TAIL_PCT: f64 = 99.0;
/// Per-request timeout choices (ms).
const TIMEOUTS_MS: [u64; 3] = [20, 50, 100];
/// Setup repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Requests run during setup to warm the scratch and worker pool.
const WARMUP: u64 = 64;

struct Host {
    name: String,
    net: Arc<Network>,
}

/// The hosts are fixed; the seed varies the request stream only, so runs
/// with different seeds differ in what is asked, not in the substrate.
const HOST_SEED: u64 = 0x4e45_5445_4d42;

fn hosts(scale: Scale) -> Vec<(String, Network)> {
    let (sites, brite) = match scale {
        Scale::Full => (60, [150, 250]),
        Scale::Tiny => (16, [24, 32]),
    };
    let mut rng = item_rng(HOST_SEED, 1, 0);
    let plab = topogen::planetlab_like(
        &topogen::PlanetlabParams {
            sites,
            ..topogen::PlanetlabParams::default()
        },
        &mut rng,
    );
    let mut out = vec![(format!("plab{sites}"), plab)];
    for n in brite {
        let net = topogen::brite_like(&topogen::BriteParams::paper_default(n), &mut rng);
        out.push((format!("brite{n}"), net));
    }
    out
}

/// Whether request `i` is the probe that follows a monitor commit.
fn is_probe(i: u64) -> bool {
    i % COMMIT_EVERY == COMMIT_EVERY - 1
}

/// Request `i` of the seeded stream. A probe is a planted 8-node
/// subgraph under ECF `First` on the host the commit just changed, so
/// `commit_to_answer_ms` compares like with like across commits.
fn request(seed: u64, i: u64, hosts: &[Host], scale: Scale) -> Request {
    let mut rng = item_rng(seed, 2, i);
    if is_probe(i) {
        let host = (i / COMMIT_EVERY) as usize % hosts.len();
        let n = match scale {
            Scale::Full => 8,
            Scale::Tiny => 3,
        };
        let work = topogen::subgraph_query(
            &hosts[host].net,
            &topogen::SubgraphParams {
                n,
                edge_keep: 0.5,
                slack: 0.01,
            },
            &mut rng,
        );
        return Request {
            id: i,
            host,
            query: work.query,
            constraint: work.constraint,
            options: Options {
                mode: SearchMode::First,
                timeout: Some(Duration::from_millis(100)),
                ..Options::default()
            },
            planted: work.ground_truth,
            oracle: false,
        };
    }
    let host = rng.random_range(0..hosts.len());
    let net = &hosts[host].net;
    let work = if rng.random_bool(0.7) {
        let n = match scale {
            Scale::Full => rng.random_range(5..=15usize),
            Scale::Tiny => rng.random_range(3..=5usize),
        };
        topogen::subgraph_query(
            net,
            &topogen::SubgraphParams {
                n,
                edge_keep: 0.5,
                slack: 0.01,
            },
            &mut rng,
        )
    } else {
        let k = rng.random_range(3..=5usize);
        let lo = rng.random_range(5.0..40.0f64);
        let hi = lo + rng.random_range(20.0..120.0f64);
        topogen::clique_query(k, lo, hi)
    };
    let work = if rng.random_bool(0.2) {
        topogen::make_infeasible(&work, 0.2, &mut rng)
    } else {
        work
    };
    let algorithm = match rng.random_range(0..10u32) {
        0..=3 => Algorithm::Ecf,
        4..=5 => Algorithm::Rwb,
        6..=7 => Algorithm::Lns,
        _ => Algorithm::ParallelEcf { threads: 2 },
    };
    let mode = if rng.random_bool(0.5) {
        SearchMode::First
    } else {
        SearchMode::UpTo(if rng.random_bool(0.5) { 4 } else { 16 })
    };
    let timeout = TIMEOUTS_MS[rng.random_range(0..TIMEOUTS_MS.len())];
    Request {
        id: i,
        host,
        query: work.query,
        constraint: work.constraint,
        options: Options {
            algorithm,
            mode,
            timeout: Some(Duration::from_millis(timeout)),
            seed: i,
            ..Options::default()
        },
        planted: work.ground_truth,
        oracle: false,
    }
}

fn to_query(r: &Request, hosts: &[Host]) -> QueryRequest {
    QueryRequest {
        host: hosts[r.host].name.clone(),
        query: r.query.clone(),
        constraint: r.constraint.clone(),
        options: r.options.clone(),
    }
}

struct World {
    svc: NetEmbedService,
    hosts: Vec<Host>,
    snaps: Snapshots,
}

/// Generate, register and warm up; the timed unit of `setup_s`.
fn setup(cfg: &RunConfig) -> World {
    let svc = NetEmbedService::new();
    let mut snaps = Snapshots::new(3);
    let mut table = Vec::new();
    for (i, (name, net)) in hosts(cfg.scale).into_iter().enumerate() {
        svc.registry().register(&name, net);
        let (net, epoch) = svc.registry().get(&name).expect("just registered");
        snaps.record(i, epoch, net.clone());
        table.push(Host { name, net });
    }
    // Warm-up requests come from a fixed stream of their own: the same
    // set-up work for every seed, distinct from the measured stream.
    for i in 0..WARMUP {
        let r = request(HOST_SEED, i, &table, cfg.scale);
        let _ = svc.submit(&to_query(&r, &table));
    }
    World {
        svc,
        hosts: table,
        snaps,
    }
}

/// A monitor load report on one node of `host`.
fn commit(w: &mut World, host: usize, seed: u64, i: u64, traced: bool, tr: &mut Tracer) -> Commit {
    let mut rng = item_rng(seed, 3, i);
    let node = rng.random_range(0..w.hosts[host].net.node_count() as u32);
    let load: f64 = rng.random_range(0.0..1.0);
    let at = Instant::now();
    let span = traced.then(|| tr.begin("registry.commit", i));
    w.svc
        .registry()
        .update_dirty(&w.hosts[host].name, DirtySet::from_ids([node]), |net| {
            net.set_node_attr(NodeId(node), "load", load)
        })
        .expect("host registered");
    if let Some(span) = span {
        tr.end(span);
    }
    let (net, epoch) = w
        .svc
        .registry()
        .get(&w.hosts[host].name)
        .expect("host registered");
    // Every earlier record is gated already: older snapshots can go.
    w.snaps.prune_before(host, epoch);
    w.snaps.record(host, epoch, net.clone());
    w.hosts[host].net = net;
    Commit { host, epoch, at }
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
    if traced {
        // Warm the replay's scratch (and its worker pool) the way set-up
        // warmed the service's, outside the trace.
        let mut throwaway = Tracer::new();
        for i in 0..WARMUP {
            let r = request(HOST_SEED, i, &w.hosts, cfg.scale);
            replay::cold(
                &mut throwaway,
                &r,
                &w.hosts[r.host].net.clone(),
                &mut scratch,
            );
        }
    }
    let mut out = Pass::new(LATENCY_LIMIT);
    let mut gate = InlineGate::new(cfg.corrupt && !traced);
    let start = Instant::now();
    let mut last_reply: Option<Instant> = None;
    while start.elapsed() - gate.time < budget {
        let i = *next;
        *next += 1;
        if is_probe(i) {
            let host = (i / COMMIT_EVERY) as usize % w.hosts.len();
            out.tally.commit(commit(w, host, cfg.seed, i, traced, tr));
        }
        let req = Arc::new(request(cfg.seed, i, &w.hosts, cfg.scale));
        let query = to_query(&req, &w.hosts);
        let lo = epoch_of(&w.svc, &query.host);
        let t = Instant::now();
        if let Some(prev) = last_reply {
            out.lag.push(measure::ms(t - prev));
        }
        let reply = w.svc.submit(&query);
        let done = Instant::now();
        let hi = epoch_of(&w.svc, &query.host);
        if traced {
            let host = w.hosts[req.host].net.clone();
            replay::cold(tr, &req, &host, &mut scratch);
        }
        let served = Served {
            request: req,
            lo,
            hi,
            reply,
            latency: done - t,
            done,
        };
        out.tally.record(gate.check(served, &w.snaps));
        last_reply = Some(Instant::now());
    }
    out.wall = start.elapsed() - gate.time;
    out.verdict = gate.finish();
    out
}

/// Run the workload and fill `r` with the metrics the run emits.
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
    crate::finish(
        Finish {
            workload: "paper-cold",
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
