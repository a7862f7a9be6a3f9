//! `monitor-churn`: the paper's monitor re-check loop (§III) against a
//! changing model, as a closed loop: one client re-checks the resident
//! applications back to back and applies the model's commits in between.
//!
//! A k=16 fat tree (~2.4k nodes) carries [`APPS`] resident
//! "application" requests — distinct small queries and constraints —
//! re-submitted through the `Planner` in a seeded order. One commit per
//! [`COMMIT_EVERY`] re-checks changes the model: tracked removal-only
//! (→ patch), tracked empty (→ promote), tracked non-touching (→ patch
//! that changes nothing), tracked additive and untracked (→ rebuild).
//! Filters are repaired rather than built; search is tiny.
//!
//! One client on purpose: on a small shared machine, concurrent clients
//! (and, worse, an open loop) turn every scheduler stall into queueing,
//! and the latency then measures the machine rather than the service.

use crate::gate::Snapshots;
use crate::measure;
use crate::replay::{self, Mirror};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{
    epoch_of, item_rng, Commit, Finish, InlineGate, Outcome, Pass, Probe, Request, RunConfig,
    Scale, Served,
};
use netembed::{Algorithm, EmbedScratch, Options, SearchMode};
use netgraph::{AttrValue, Direction, Network, NodeId};
use rand::Rng;
use service::{DirtySet, NetEmbedService, QueryRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOST: &str = "dc";
/// Resident application requests.
pub const APPS: usize = 16;
/// Re-checks per registry commit.
pub const COMMIT_EVERY: u64 = 200;
/// The workload's latency limit (submit → verified reply).
pub const LATENCY_LIMIT: Duration = Duration::from_millis(10);
/// Tail percentile reported as `latency_tail_ms`.
pub const TAIL_PCT: f64 = 99.0;
/// One request in this many is checked against the flat oracle.
const ORACLE_EVERY: u64 = 256;
const SETUP_REPEATS: usize = 15;
/// Rounds of one request per app run during setup (the first builds).
const WARMUP_ROUNDS: usize = 4;

/// Host and resident applications are fixed; the seed varies the order
/// of the re-checks and the targets of the commits.
const MODEL_SEED: u64 = 0x4e45_5445_4d42;

fn host(scale: Scale) -> Network {
    let params = match scale {
        Scale::Full => topogen::FatTreeParams {
            k: 16,
            hosts_per_edge: 16,
        },
        Scale::Tiny => topogen::FatTreeParams {
            k: 4,
            hosts_per_edge: 4,
        },
    };
    topogen::fat_tree(&params, &mut item_rng(MODEL_SEED, 20, 0))
}

/// A path query over the given tiers, with a `cpu` demand on host nodes.
fn path(tiers: &[&str], cpu: f64) -> Network {
    let mut q = Network::new(Direction::Undirected);
    for (i, tier) in tiers.iter().enumerate() {
        let v = q.add_node(format!("q{i}"));
        q.set_node_attr(v, "tier", *tier);
        q.set_node_attr(v, "cpu", if *tier == "host" { cpu } else { 0.0 });
    }
    for i in 1..tiers.len() {
        q.add_edge(NodeId(i as u32 - 1), NodeId(i as u32));
    }
    q
}

/// Resident application `a`: a small query and its own constraint.
fn app(a: usize) -> (Network, String, SearchMode) {
    let mut rng = item_rng(MODEL_SEED, 21, a as u64);
    // A re-check asks for a few dozen placements: enough search and
    // verification that a re-check is not a timer-resolution event.
    let mode = if a.is_multiple_of(2) {
        SearchMode::UpTo(24)
    } else {
        SearchMode::UpTo(48)
    };
    let (query, constraint) = match a % 4 {
        0 => (
            path(&["host", "edge", "host"], 0.0),
            format!(
                "rNode.tier == vNode.tier && rEdge.delay <= {:.4}",
                rng.random_range(0.016..0.028)
            ),
        ),
        1 => (
            path(&["host", "edge"], rng.random_range(8.0..48.0f64).round()),
            format!(
                "rNode.tier == vNode.tier && rNode.cpu >= vNode.cpu && rEdge.delay <= {:.4}",
                rng.random_range(0.016..0.028)
            ),
        ),
        2 => {
            let mut q = path(&["edge", "agg", "edge"], 0.0);
            let bw = rng.random_range(9.55..9.9f64);
            for e in q.edge_refs().map(|e| e.id).collect::<Vec<_>>() {
                q.set_edge_attr(e, "bw", bw);
            }
            (
                q,
                "rNode.tier == vNode.tier && rEdge.bw >= vEdge.bw".to_string(),
            )
        }
        _ => (
            path(
                &["host", "edge", "agg"],
                rng.random_range(8.0..48.0f64).round(),
            ),
            format!(
                "rNode.tier == vNode.tier && rNode.cpu >= vNode.cpu && rEdge.delay <= {:.4}",
                rng.random_range(0.042..0.06)
            ),
        ),
    };
    (query, constraint, mode)
}

fn request(seed: u64, id: u64, apps: &[(Network, String, SearchMode)], a: usize) -> Request {
    let (query, constraint, mode) = &apps[a];
    Request {
        id,
        host: 0,
        query: query.clone(),
        constraint: constraint.clone(),
        options: Options {
            algorithm: Algorithm::Ecf,
            mode: *mode,
            timeout: Some(Duration::from_millis(200)),
            ..Options::default()
        },
        planted: None,
        oracle: item_rng(seed, 22, id).random_range(0..ORACLE_EVERY) == 0,
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

/// What one registry commit does to the model.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Tracked: a host link's delay rises past every limit (→ patch).
    RemoveLink,
    /// Tracked: a host's free cpu drops (→ patch).
    RemoveCpu,
    /// Tracked, nothing changes (→ promote).
    Empty,
    /// Tracked: an attribute no constraint reads (→ patch, no change).
    NonTouching,
    /// Tracked: a degraded link recovers (→ rebuild for delay filters).
    Additive,
    /// Untracked: the dirty chain breaks (→ rebuild).
    Untracked,
}

/// Commit kinds by position in a cycle of 20: every 20 consecutive
/// commits hold the same mix and the seed picks the targets, so runs
/// differ in where the model changes, not in how much of each kind.
const COMMIT_MIX: [Change; 20] = {
    use Change::*;
    [
        RemoveLink,
        RemoveCpu,
        Empty,
        RemoveLink,
        NonTouching,
        RemoveLink,
        Additive,
        RemoveCpu,
        RemoveLink,
        Empty,
        RemoveLink,
        Untracked,
        RemoveLink,
        RemoveCpu,
        NonTouching,
        RemoveLink,
        Empty,
        RemoveLink,
        Additive,
        RemoveLink,
    ]
};

/// The model side: what the commits know about the host.
struct Model {
    snaps: Snapshots,
    /// Host↔edge links, the churn victims.
    links: Vec<(NodeId, NodeId)>,
    hosts: Vec<NodeId>,
    degraded: Vec<(NodeId, NodeId)>,
}

/// Apply commit number `id` of the run; returns the commit record.
fn commit(
    svc: &NetEmbedService,
    m: &mut Model,
    seed: u64,
    id: u64,
    tr: Option<&mut Tracer>,
) -> Commit {
    let mut rng = item_rng(seed, 24, id);
    let mut change = COMMIT_MIX[(id % COMMIT_MIX.len() as u64) as usize];
    if matches!(change, Change::Additive) && m.degraded.is_empty() {
        change = Change::RemoveLink;
    }
    let reg = svc.registry();
    let at = Instant::now();
    let mut tr = tr;
    let span = tr.as_deref_mut().map(|t| t.begin("registry.commit", id));
    let link = m.links[rng.random_range(0..m.links.len())];
    let host = m.hosts[rng.random_range(0..m.hosts.len())];
    let set_delay = |(a, b): (NodeId, NodeId), delay: f64| {
        move |net: &mut Network| {
            let e = net.find_edge(a, b).expect("victim link exists");
            net.set_edge_attr(e, "delay", delay);
        }
    };
    let ends = |(a, b): (NodeId, NodeId)| DirtySet::from_ids([a.0, b.0]);
    match change {
        Change::RemoveLink => {
            reg.update_dirty(HOST, ends(link), set_delay(link, 1.0));
            m.degraded.push(link);
        }
        Change::RemoveCpu => {
            reg.update_dirty(HOST, DirtySet::from_ids([host.0]), |net| {
                net.set_node_attr(host, "cpu", 1.0)
            });
        }
        Change::Empty => {
            reg.update_dirty(HOST, DirtySet::new(), |_| {});
        }
        Change::NonTouching => {
            let label: f64 = rng.random_range(0.0..1.0);
            reg.update_dirty(HOST, DirtySet::from_ids([host.0]), |net| {
                net.set_node_attr(host, "label", label)
            });
        }
        Change::Additive => {
            let i = rng.random_range(0..m.degraded.len());
            let healed = m.degraded.swap_remove(i);
            let delay = 0.01 + rng.random_range(0.0..0.02f64);
            reg.update_dirty(HOST, ends(healed), set_delay(healed, delay));
        }
        Change::Untracked => {
            reg.update(HOST, set_delay(link, 1.0));
            m.degraded.push(link);
        }
    }
    if let (Some(t), Some(span)) = (tr, span) {
        t.end(span);
    }
    let (net, epoch) = reg.get(HOST).expect("host registered");
    // Every earlier record is gated already: older snapshots can go.
    m.snaps.prune_before(0, epoch);
    m.snaps.record(0, epoch, net);
    Commit { host: 0, epoch, at }
}

struct World {
    svc: NetEmbedService,
    apps: Vec<(Network, String, SearchMode)>,
    model: Model,
}

fn setup(cfg: &RunConfig) -> World {
    let svc = NetEmbedService::new();
    let net = host(cfg.scale);
    let tier =
        |v: NodeId| net.node_attr_by_name(v, "tier").and_then(AttrValue::as_str) == Some("host");
    let links: Vec<(NodeId, NodeId)> = net
        .edge_refs()
        .filter(|e| tier(e.src) || tier(e.dst))
        .map(|e| (e.src, e.dst))
        .collect();
    let hosts: Vec<NodeId> = net.node_ids().filter(|&v| tier(v)).collect();
    svc.registry().register(HOST, net);
    let (net, epoch) = svc.registry().get(HOST).expect("just registered");
    let mut snaps = Snapshots::new(1);
    snaps.record(0, epoch, net);
    let apps: Vec<_> = (0..APPS).map(app).collect();
    {
        let planner = svc.planner();
        for round in 0..WARMUP_ROUNDS {
            for a in 0..APPS {
                let id = u64::MAX - (round * APPS + a) as u64;
                let _ = planner.run(&to_query(&request(cfg.seed, id, &apps, a)));
            }
        }
    }
    World {
        svc,
        apps,
        model: Model {
            snaps,
            links,
            hosts,
            degraded: Vec::new(),
        },
    }
}

/// One pass: re-check applications until `budget` has been measured,
/// committing once every [`COMMIT_EVERY`] re-checks. `mirrors` is set in
/// the traced pass, which replays every request.
fn pass(
    w: &mut World,
    cfg: &RunConfig,
    next: &mut u64,
    budget: Duration,
    mut mirrors: Option<&mut [Mirror]>,
    tr: &mut Tracer,
) -> Pass {
    let planner = w.svc.planner();
    let mut scratch = EmbedScratch::new();
    let mut out = Pass::new(LATENCY_LIMIT);
    let mut gate = InlineGate::new(cfg.corrupt && mirrors.is_none());
    let start = Instant::now();
    let mut last_reply: Option<Instant> = None;
    while start.elapsed() - gate.time < budget {
        let i = *next;
        *next += 1;
        if i.is_multiple_of(COMMIT_EVERY) {
            let traced = mirrors.is_some().then_some(&mut *tr);
            out.tally.commit(commit(
                &w.svc,
                &mut w.model,
                cfg.seed,
                i / COMMIT_EVERY,
                traced,
            ));
        }
        let app = item_rng(cfg.seed, 25, i).random_range(0..APPS);
        let req = Arc::new(request(cfg.seed, i, &w.apps, app));
        let query = to_query(&req);
        let lo = epoch_of(&w.svc, HOST);
        let sent = Instant::now();
        if let Some(prev) = last_reply {
            out.lag.push(measure::ms(sent - prev));
        }
        let reply = planner.submit(&query).and_then(|t| t.wait());
        let done = Instant::now();
        let hi = epoch_of(&w.svc, HOST);
        if let Ok(resp) = &reply {
            out.coalesced += resp.stats.coalesced_requests;
        }
        if let Some(mirrors) = mirrors.as_deref_mut() {
            let built = reply.as_ref().is_ok_and(|resp| {
                resp.stats.filter_cache_hits == 0 && resp.stats.coalesced_requests == 0
            });
            let net = w
                .model
                .snaps
                .between(0, lo, lo)
                .pop()
                .expect("snapshot of the submit epoch");
            let repair = replay::warm(
                tr,
                &req,
                w.svc.registry(),
                HOST,
                &net,
                lo,
                built,
                &mut mirrors[app],
                &mut scratch,
            );
            let ms = measure::ms(done - sent);
            match out.buckets.iter_mut().find(|(r, _)| *r == repair) {
                Some((_, times)) => times.push(ms),
                None => out.buckets.push((repair, vec![ms])),
            }
        }
        let served = Served {
            request: req,
            lo,
            hi,
            reply,
            latency: done - sent,
            done,
        };
        out.tally.record(gate.check(served, &w.model.snaps));
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
        let plain = pass(&mut w, cfg, &mut next, budget / 2, None, &mut tr);
        // Bring every mirror to the current epoch outside the trace.
        let epoch = epoch_of(&w.svc, HOST);
        let net = w.svc.registry().model(HOST).expect("host registered");
        let mut scratch = EmbedScratch::new();
        let mut mirrors: Vec<Mirror> = (0..APPS).map(|_| Mirror::default()).collect();
        for (a, m) in mirrors.iter_mut().enumerate() {
            let req = request(cfg.seed, u64::MAX - a as u64, &w.apps, a);
            let mut throwaway = Tracer::new();
            replay::warm(
                &mut throwaway,
                &req,
                w.svc.registry(),
                HOST,
                &net,
                epoch,
                true,
                m,
                &mut scratch,
            );
        }
        let traced = pass(
            &mut w,
            cfg,
            &mut next,
            budget / 2,
            Some(&mut mirrors),
            &mut tr,
        );
        vec![plain, traced]
    } else {
        vec![pass(&mut w, cfg, &mut next, budget, None, &mut tr)]
    };
    let after = Probe::of(&w.svc);
    r.meta_num("commit_every_requests", COMMIT_EVERY as f64);
    crate::finish(
        Finish {
            workload: "monitor-churn",
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
