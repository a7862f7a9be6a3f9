//! End-to-end feed semantics through the service: a faulty delta
//! stream (drops, duplicates, reorders) must converge to exactly the
//! state a clean stream produces — via resync when the faults exceed
//! what the reorder buffer can absorb — with a balanced delivery
//! ledger; degraded feeds must honour the per-service
//! [`StalenessPolicy`] (marked stale answers within the lag budget,
//! deterministic `StaleModel` sheds past it); and an epoch bump must
//! repair the cached filter instead of rebuilding it — *promoted*
//! across a provably-empty dirty window, *patched in place* across a
//! subtractive one, and rebuilt only when the delta admitted a new
//! candidate. A cached coarsening is repaired the same way: promoted
//! across an empty window, patched across an attribute-only one, and
//! rebuilt when the window changed topology or was untracked. The
//! removal-only churn gate
//! ([`removal_only_churn_patches_without_a_single_rebuild`]) is the CI
//! smoke for the patch path; `NETEMBED_CHURN_FULL=1` lengthens it for
//! the nightly soak.

use netgraph::{AttrValue, Direction, Network, NodeId};
use service::cache::network_fingerprint;
use service::{
    AdmissionPolicy, DeltaMutation, DirtySet, FeedConfig, FeedSnapshot, FeedState, NetEmbedService,
    QueryRequest, QueryResponse, RegistryDelta, RegistryFeed, ServiceConfig, ServiceError,
    ShedMode, ShedReason, StalenessPolicy,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Deterministic mixer for the fault schedule (no RNG dependency).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Five-node path host: `cpu` on nodes, `d` on edges.
fn path_host() -> Network {
    let mut h = Network::new(Direction::Undirected);
    let ids: Vec<_> = (0..5).map(|i| h.add_node(format!("h{i}"))).collect();
    for w in ids.windows(2) {
        let e = h.add_edge(w[0], w[1]);
        h.set_edge_attr(e, "d", 10.0);
    }
    for &n in &ids {
        h.set_node_attr(n, "cpu", 8.0);
    }
    h
}

fn edge_query() -> Network {
    let mut q = Network::new(Direction::Undirected);
    let x = q.add_node("x");
    let y = q.add_node("y");
    q.add_edge(x, y);
    q.set_node_attr(x, "cpu", 3.0);
    q.set_node_attr(y, "cpu", 3.0);
    q
}

fn request(host: &str) -> QueryRequest {
    QueryRequest {
        host: host.into(),
        query: edge_query(),
        constraint: "rNode.cpu >= vNode.cpu".into(),
        options: netembed::Options::default(),
    }
}

/// A `cpu` bump on `node` covering sequence `seq → seq + 1`.
fn cpu_delta(seq: u64, node: u32, value: f64) -> RegistryDelta {
    RegistryDelta {
        host: "h".into(),
        base_seq: seq,
        next_seq: seq + 1,
        mutation: DeltaMutation::SetNodeAttr {
            node,
            attr: "cpu".into(),
            value: AttrValue::Num(value),
        },
        dirty: DirtySet::from_ids([node]),
    }
}

fn apply_truth(net: &mut Network, delta: &RegistryDelta) {
    match &delta.mutation {
        DeltaMutation::SetNodeAttr { node, attr, value } => {
            net.set_node_attr(NodeId(*node), attr.as_str(), value.clone());
        }
        other => unreachable!("truth replay only scripts attr sets, got {other:?}"),
    }
}

/// A scripted stream that hands out at most `chunk` deltas per pump
/// (each `None` ends one pump's drain; the next pump resumes), and
/// publishes the highest `next_seq` it has emitted so the snapshot
/// source can serve the matching upstream state.
struct ChunkedStream {
    script: Vec<RegistryDelta>,
    pos: usize,
    chunk: usize,
    served_this_burst: usize,
    emitted_hwm: Rc<Cell<u64>>,
}

impl service::DeltaStream for ChunkedStream {
    fn next_delta(&mut self) -> Option<RegistryDelta> {
        if self.served_this_burst == self.chunk {
            self.served_this_burst = 0;
            return None;
        }
        let delta = self.script.get(self.pos)?.clone();
        self.pos += 1;
        self.served_this_burst += 1;
        self.emitted_hwm
            .set(self.emitted_hwm.get().max(delta.next_seq));
        Some(delta)
    }
}

/// The acceptance gate for the feed: a stream mangled by seeded drops,
/// duplicates and adjacent swaps converges — through at least one gap
/// resync — to exactly the registry state the clean stream produces,
/// with nothing lost and the delivery ledger balanced.
#[test]
fn faulty_stream_converges_to_the_clean_stream_state() {
    const DELTAS: u64 = 40;
    let base = path_host();
    let clean: Vec<RegistryDelta> = (0..DELTAS)
        .map(|i| cpu_delta(i, (i % 5) as u32, 1.0 + i as f64))
        .collect();
    // Upstream truth after each prefix of the clean stream — what a
    // snapshot at sequence `i` must contain.
    let mut states = vec![base.clone()];
    for delta in &clean {
        let mut next = states.last().unwrap().clone();
        apply_truth(&mut next, delta);
        states.push(next);
    }

    // Clean run: everything in order, no snapshot source ever needed.
    let clean_svc = NetEmbedService::new();
    clean_svc.registry().register("h", base.clone());
    let stream: VecDeque<RegistryDelta> = clean.iter().cloned().collect();
    let mut feed = RegistryFeed::new(
        stream,
        || -> Option<FeedSnapshot> { panic!("clean stream must not resync") },
        FeedConfig::default(),
    );
    assert_eq!(feed.pump(&clean_svc), FeedState::Live);
    let clean_feed = clean_svc.feed_status().snapshot();
    assert_eq!(clean_feed.applied, DELTAS);
    assert_eq!(clean_feed.gap_resyncs, 0);
    assert!(clean_feed.balanced(), "clean ledger: {clean_feed:?}");
    let clean_fp = network_fingerprint(&clean_svc.registry().model("h").unwrap());
    assert_eq!(
        clean_fp,
        network_fingerprint(states.last().unwrap()),
        "clean stream must reproduce the upstream truth"
    );

    // Faulty run: seeded drops (at least one — that forces the gap
    // resync), duplicates and adjacent swaps.
    let mut script = Vec::new();
    let mut i = 0usize;
    let mut dropped = 0u64;
    while i < clean.len() {
        match splitmix64(0xFEED ^ i as u64) % 10 {
            0 | 1 => {
                dropped += 1; // dropped: never emitted
            }
            2 => {
                script.push(clean[i].clone());
                script.push(clean[i].clone()); // duplicated
            }
            3 if i + 1 < clean.len() => {
                script.push(clean[i + 1].clone()); // swapped pair
                script.push(clean[i].clone());
                i += 1;
            }
            _ => script.push(clean[i].clone()),
        }
        i += 1;
    }
    assert!(dropped >= 1, "schedule must include a gap");

    let svc = NetEmbedService::new();
    svc.registry().register("h", base.clone());
    let emitted_hwm = Rc::new(Cell::new(0u64));
    let stream = ChunkedStream {
        script,
        pos: 0,
        chunk: 3,
        served_this_burst: 0,
        emitted_hwm: Rc::clone(&emitted_hwm),
    };
    let snapshot_hwm = Rc::clone(&emitted_hwm);
    let snapshots = move || {
        let seq = snapshot_hwm.get();
        Some(FeedSnapshot {
            seq,
            models: vec![("h".into(), states[seq as usize].clone())],
        })
    };
    let mut feed = RegistryFeed::new(stream, snapshots, FeedConfig::default());
    let mut state = FeedState::Live;
    for _ in 0..200 {
        state = feed.pump(&svc);
        if state == FeedState::Live && feed.cursor() == DELTAS {
            break;
        }
    }
    assert_eq!(state, FeedState::Live, "faulty stream failed to converge");
    assert_eq!(
        feed.cursor(),
        DELTAS,
        "zero lost deltas: cursor reaches the end"
    );

    let feed_tl = svc.telemetry().feed;
    assert!(
        feed_tl.balanced(),
        "delivery ledger unbalanced: {feed_tl:?}"
    );
    assert!(
        feed_tl.gap_resyncs >= 1,
        "a dropped delta must force a resync"
    );
    assert!(feed_tl.duplicates >= 1, "schedule included duplicates");
    assert_eq!(feed_tl.last_applied_seq, DELTAS);
    assert_eq!(feed_tl.lag, 0);
    assert_eq!(
        network_fingerprint(&svc.registry().model("h").unwrap()),
        clean_fp,
        "faulty stream must converge to the clean stream's final state"
    );
}

/// `ServeStale { max_lag }`: while the feed is catching up, answers
/// within the lag budget are served with a [`service::Staleness`]
/// marker (mirrored into `SearchStats::staleness_lag`) on both the
/// direct and the planner path; once the lag exceeds the budget both
/// paths shed deterministically as `StaleModel`.
#[test]
fn serve_stale_marks_within_the_lag_budget_and_sheds_past_it() {
    let svc = NetEmbedService::with_config(
        ServiceConfig::default().staleness(StalenessPolicy::ServeStale { max_lag: 5 }),
    );
    svc.registry().register("h", path_host());
    let req = request("h");
    let fresh = svc.submit(&req).unwrap();
    assert_eq!(fresh.staleness, None, "live feed serves fresh answers");
    assert_eq!(fresh.stats.staleness_lag, 0);

    // A future delta parks: the feed is catching up with lag 3 ≤ 5.
    let mut stream: VecDeque<RegistryDelta> = VecDeque::new();
    stream.push_back(cpu_delta(2, 0, 4.0));
    let config = FeedConfig {
        gap_patience: u32::MAX, // never give the gap up: stay CatchingUp
        ..FeedConfig::default()
    };
    let mut feed = RegistryFeed::new(stream, || -> Option<FeedSnapshot> { None }, config);
    assert_eq!(feed.pump(&svc), FeedState::CatchingUp);
    assert_eq!(svc.feed_status().lag(), 3);

    let marked = svc.submit(&req).unwrap();
    let staleness = marked.staleness.expect("degraded feed must mark answers");
    assert_eq!(staleness.lag, 3);
    assert_eq!(marked.stats.staleness_lag, 3);
    let planned = svc.planner().run(&req).unwrap();
    assert_eq!(planned.staleness.map(|s| s.lag), Some(3));

    // Push the frontier past the budget: lag 9 > 5 ⇒ both paths shed.
    feed.stream().push_back(cpu_delta(8, 0, 5.0));
    assert_eq!(feed.pump(&svc), FeedState::CatchingUp);
    assert_eq!(svc.feed_status().lag(), 9);
    match svc.submit(&req) {
        Err(ServiceError::Overloaded(reason)) => assert_eq!(reason, ShedReason::StaleModel),
        other => panic!("expected a StaleModel shed, got {other:?}"),
    }
    match svc.planner().run(&req) {
        Err(ServiceError::Overloaded(reason)) => assert_eq!(reason, ShedReason::StaleModel),
        other => panic!("expected a StaleModel shed, got {other:?}"),
    }
    let telemetry = svc.telemetry();
    assert_eq!(
        telemetry.shed.stale_model, 1,
        "planner sheds land on the ledger"
    );
    assert_eq!(telemetry.feed.state, FeedState::CatchingUp);
    assert_eq!(telemetry.feed.lag, 9);

    // Heal: deliver the missing chain; the parked deltas drain and the
    // feed goes Live, so answers are fresh again.
    for seq in [0, 1, 3, 4, 5, 6, 7] {
        feed.stream().push_back(cpu_delta(seq, 0, seq as f64));
    }
    assert_eq!(feed.pump(&svc), FeedState::Live);
    assert_eq!(svc.feed_status().lag(), 0);
    let healed = svc.submit(&req).unwrap();
    assert_eq!(healed.staleness, None);
    let feed_tl = svc.telemetry().feed;
    assert_eq!(feed_tl.applied, 9);
    assert!(feed_tl.balanced(), "ledger unbalanced: {feed_tl:?}");
}

/// Under `DegradeInconclusive`, a `StaleModel` shed answers the same on
/// both serving paths: a timed-out `Inconclusive` computed against no
/// model, so it carries no staleness marker. Every served response
/// mirrors its marker's lag into `stats.staleness_lag`.
#[test]
fn degraded_stale_sheds_match_across_paths_and_carry_no_marker() {
    let svc = NetEmbedService::with_config(
        ServiceConfig::default()
            .staleness(StalenessPolicy::ServeStale { max_lag: 5 })
            .admission(AdmissionPolicy::default().shed(ShedMode::DegradeInconclusive)),
    );
    svc.registry().register("h", path_host());
    let req = request("h");
    let mirrored = |resp: &QueryResponse| {
        assert_eq!(
            resp.stats.staleness_lag,
            resp.staleness.map_or(0, |s| s.lag),
            "staleness marker not mirrored into stats: {resp:?}"
        );
    };
    mirrored(&svc.submit(&req).unwrap());

    // Lag 3 ≤ 5: both paths serve, marked.
    let mut stream: VecDeque<RegistryDelta> = VecDeque::new();
    stream.push_back(cpu_delta(2, 0, 4.0));
    let config = FeedConfig {
        gap_patience: u32::MAX,
        ..FeedConfig::default()
    };
    let mut feed = RegistryFeed::new(stream, || -> Option<FeedSnapshot> { None }, config);
    assert_eq!(feed.pump(&svc), FeedState::CatchingUp);
    for served in [svc.submit(&req).unwrap(), svc.planner().run(&req).unwrap()] {
        assert_eq!(served.staleness.map(|s| s.lag), Some(3));
        mirrored(&served);
    }

    // Lag 9 > 5: both paths shed, degraded, with equal responses.
    feed.stream().push_back(cpu_delta(8, 0, 5.0));
    assert_eq!(feed.pump(&svc), FeedState::CatchingUp);
    assert_eq!(svc.feed_status().lag(), 9);
    let direct = svc.submit(&req).unwrap();
    let planned = svc.planner().run(&req).unwrap();
    for shed in [&direct, &planned] {
        assert!(matches!(shed.outcome, netembed::Outcome::Inconclusive));
        assert!(shed.stats.timed_out);
        assert_eq!(shed.staleness, None, "a shed answer has no serving model");
        mirrored(shed);
    }
    assert_eq!(direct.outcome, planned.outcome);
    assert_eq!(direct.stats, planned.stats);
    assert_eq!(svc.telemetry().shed.stale_model, 1, "the planner shed");
}

/// `Block`: any degradation sheds immediately — no stale answers at
/// all — and recovery restores service.
#[test]
fn block_policy_sheds_any_degraded_answer() {
    let svc =
        NetEmbedService::with_config(ServiceConfig::default().staleness(StalenessPolicy::Block));
    svc.registry().register("h", path_host());
    let req = request("h");
    assert!(svc.submit(&req).is_ok(), "live feed serves normally");

    let mut stream: VecDeque<RegistryDelta> = VecDeque::new();
    stream.push_back(cpu_delta(1, 0, 4.0));
    let config = FeedConfig {
        gap_patience: u32::MAX,
        ..FeedConfig::default()
    };
    let mut feed = RegistryFeed::new(stream, || -> Option<FeedSnapshot> { None }, config);
    assert_eq!(feed.pump(&svc), FeedState::CatchingUp);
    match svc.submit(&req) {
        Err(ServiceError::Overloaded(ShedReason::StaleModel)) => {}
        other => panic!("Block must shed while degraded, got {other:?}"),
    }

    feed.stream().push_back(cpu_delta(0, 0, 6.0));
    assert_eq!(feed.pump(&svc), FeedState::Live);
    assert!(svc.submit(&req).is_ok(), "recovered feed serves again");
}

/// Build a fresh filter for `req` against the registry's *current*
/// model of `host` — the ground truth a repaired cache entry must be
/// bitwise equal to.
fn fresh_filter(svc: &NetEmbedService, req: &QueryRequest) -> netembed::FilterMatrix {
    let model = svc.registry().model(&req.host).expect("host registered");
    let problem =
        netembed::Problem::new(&req.query, &model, &req.constraint).expect("valid constraint");
    let mut deadline = netembed::Deadline::unlimited();
    let mut stats = netembed::SearchStats::default();
    netembed::FilterMatrix::build(&problem, &mut deadline, &mut stats).expect("fresh build")
}

/// The cache entry for `req` at the registry's current epoch.
fn cached_filter(
    svc: &NetEmbedService,
    req: &QueryRequest,
) -> std::sync::Arc<netembed::FilterMatrix> {
    let key = service::FilterKey {
        host: req.host.clone(),
        epoch: svc.registry().epoch(&req.host).unwrap(),
        query_hash: network_fingerprint(&req.query),
        constraint: req.constraint.clone(),
    };
    svc.cache()
        .lookup(&key)
        .expect("entry cached at head epoch")
}

/// The promotion acceptance gate: an epoch bump whose dirty window is
/// provably *empty* (a tracked no-op delta) re-keys the cached filter
/// — the warm resubmit hits with zero new misses and zero patch work.
#[test]
fn empty_window_epoch_bump_promotes_instead_of_rebuilding() {
    let svc = NetEmbedService::new();
    svc.registry().register("h", path_host());
    let req = request("h");

    let cold = svc.submit(&req).unwrap();
    assert_eq!(cold.stats.filter_cache_hits, 0);
    let epoch_before = svc.registry().epoch("h").unwrap();

    // Bump the epoch with an empty (but tracked) dirty set: nothing
    // about the model a filter can see changed.
    svc.registry()
        .update_dirty("h", DirtySet::new(), |_net| {})
        .unwrap();
    assert_ne!(svc.registry().epoch("h").unwrap(), epoch_before);

    let misses_before = svc.cache().misses();
    let warm = svc.submit(&req).unwrap();
    assert_eq!(
        warm.stats.filter_cache_hits, 1,
        "promotion must serve a hit"
    );
    assert_eq!(warm.stats.patches, 0, "an empty window needs no patch");
    assert_eq!(svc.cache().misses(), misses_before, "no rebuild");
    assert_eq!(svc.cache().promotions(), 1);
    assert_eq!(svc.cache().patches(), 0);
}

/// The patch acceptance gate: an epoch bump with a *non-empty* tracked
/// dirty window repairs the cached filter in place — the warm resubmit
/// hits with zero new misses whether or not the delta touched a
/// candidate — while a delta that *admits* a new candidate is detected
/// and falls back to a full rebuild, so a repaired entry can never
/// under-approximate the fresh build.
#[test]
fn tracked_epoch_bump_patches_in_place_and_detects_additions() {
    let mut host = path_host();
    // Node 4 is too weak to be a candidate for the cpu-3 query.
    host.set_node_attr(NodeId(4), "cpu", 1.0);
    let svc = NetEmbedService::new();
    svc.registry().register("h", host);
    let req = request("h");

    let cold = svc.submit(&req).unwrap();
    assert_eq!(cold.stats.filter_cache_hits, 0);
    assert_eq!((cold.stats.patches, cold.stats.patch_rebuilds), (0, 0));
    let misses_before = svc.cache().misses();

    // A bump confined to the inadmissible node 4 (cpu 1 → 2, still
    // short of the query's 3): the patch re-checks exactly that node,
    // removes nothing, and re-keys the matrix.
    svc.registry()
        .update_dirty("h", DirtySet::from_ids([4]), |net| {
            net.set_node_attr(NodeId(4), "cpu", 2.0);
        })
        .unwrap();
    let warm = svc.submit(&req).unwrap();
    assert_eq!(warm.stats.filter_cache_hits, 1, "patch must serve a hit");
    assert_eq!(warm.stats.patches, 1);
    assert_eq!(svc.cache().misses(), misses_before, "no rebuild");
    assert_eq!(svc.cache().patches(), 1);
    assert_eq!(
        svc.cache().promotions(),
        0,
        "a non-empty window is patched, never blindly promoted"
    );
    assert!(*cached_filter(&svc, &req) == fresh_filter(&svc, &req));

    // A bump that touches a *candidate* but keeps it admissible
    // (cpu 8 → 7 ≥ 3) also patches: under the old promote-or-rebuild
    // split this was a guaranteed full rebuild.
    svc.registry()
        .update_dirty("h", DirtySet::from_ids([0]), |net| {
            net.set_node_attr(NodeId(0), "cpu", 7.0);
        })
        .unwrap();
    let warm = svc.submit(&req).unwrap();
    assert_eq!(warm.stats.filter_cache_hits, 1, "touching bump patches too");
    assert_eq!(warm.stats.patches, 1);
    assert_eq!(svc.cache().misses(), misses_before);
    assert_eq!(svc.cache().patches(), 2);
    assert!(*cached_filter(&svc, &req) == fresh_filter(&svc, &req));

    // Regression (additive soundness): a delta that makes node 4
    // *admissible* cannot be expressed by in-place removal — the patch
    // must detect the addition and fall back to a rebuild whose
    // solution set actually contains the new candidate. The old epoch
    // promotion would have re-keyed the stale matrix here and silently
    // dropped these mappings.
    svc.registry()
        .update_dirty("h", DirtySet::from_ids([4]), |net| {
            net.set_node_attr(NodeId(4), "cpu", 9.0);
        })
        .unwrap();
    let rebuilt = svc.submit(&req).unwrap();
    assert_eq!(
        rebuilt.stats.filter_cache_hits, 0,
        "an additive delta must rebuild"
    );
    assert_eq!(rebuilt.stats.patch_rebuilds, 1);
    assert_eq!(svc.cache().patch_rebuilds(), 1);
    assert_eq!(svc.cache().misses(), misses_before + 1);
    let mappings = match &rebuilt.outcome {
        netembed::Outcome::Complete(m) => m,
        other => panic!("expected a complete run, got {other:?}"),
    };
    assert!(
        mappings
            .iter()
            .any(|m| m.iter().any(|(_, r)| r == NodeId(4))),
        "the rebuild must see the newly admissible node"
    );

    // The planner serves through the same acquisition stage, so a
    // planner-served response reports the repair it triggered too.
    svc.registry()
        .update_dirty("h", DirtySet::from_ids([0]), |net| {
            net.set_node_attr(NodeId(0), "cpu", 6.0);
        })
        .unwrap();
    let planned = svc.planner().run(&req).unwrap();
    assert_eq!(planned.stats.filter_cache_hits, 1, "planner patch hits");
    assert_eq!(
        planned.stats.patches, 1,
        "planner responses report the patch"
    );
    assert_eq!(svc.cache().patches(), 3);
    assert_eq!(svc.cache().misses(), misses_before + 1);
    assert!(*cached_filter(&svc, &req) == fresh_filter(&svc, &req));
}

/// Churn rounds for the removal-only gate: CI smoke by default, the
/// long nightly soak when `NETEMBED_CHURN_FULL` is set.
fn churn_rounds() -> usize {
    if std::env::var("NETEMBED_CHURN_FULL").is_ok_and(|v| !v.is_empty() && v != "0") {
        400
    } else {
        40
    }
}

/// The churn acceptance gate (CI smoke; `NETEMBED_CHURN_FULL=1` for
/// the nightly soak): a sustained stream of removal-only deltas —
/// host capacities only ever shrink — against a warm service keeps the
/// filter cache repaired **in place**: every warm resubmit hits, the
/// miss counter never moves after the cold build, every round is a
/// patch (zero fallbacks), and the patched matrix stays bitwise equal
/// to a from-scratch build at that epoch.
#[test]
fn removal_only_churn_patches_without_a_single_rebuild() {
    let mut host = Network::new(Direction::Undirected);
    let n = 24;
    let ids: Vec<_> = (0..n).map(|i| host.add_node(format!("h{i}"))).collect();
    for w in ids.windows(2) {
        host.add_edge(w[0], w[1]);
    }
    // Close the ring so stripping nodes never disconnects the ends.
    host.add_edge(ids[n - 1], ids[0]);
    for &id in &ids {
        host.set_node_attr(id, "cpu", 8.0);
    }
    let svc = NetEmbedService::new();
    svc.registry().register("h", host);
    let req = request("h");

    let cold = svc.submit(&req).unwrap();
    assert_eq!(cold.stats.filter_cache_hits, 0);
    let misses_after_cold = svc.cache().misses();

    let rounds = churn_rounds();
    for round in 0..rounds {
        // Degrade one node per round, round-robin, each time lower
        // than before: the first lap drops each node below the query's
        // cpu-3 floor (a real candidate removal), later laps keep
        // shrinking already-infeasible nodes (a no-op repair). Leave
        // two adjacent nodes untouched so the query stays feasible.
        let victim = round % (n - 2);
        let value = 2.0 / (1.0 + (round / (n - 2)) as f64);
        svc.registry()
            .update_dirty("h", DirtySet::from_ids([victim as u32]), |net| {
                net.set_node_attr(NodeId(victim as u32), "cpu", value);
            })
            .unwrap();
        let warm = svc.submit(&req).unwrap();
        assert_eq!(
            warm.stats.filter_cache_hits, 1,
            "round {round}: churn under removal-only deltas must stay warm"
        );
        assert_eq!(warm.stats.patches, 1, "round {round}: every bump patches");
        assert_eq!(
            svc.cache().misses(),
            misses_after_cold,
            "round {round}: a removal-only delta must never rebuild"
        );
        match &warm.outcome {
            netembed::Outcome::Complete(m) => assert!(
                !m.is_empty(),
                "round {round}: the untouched ring segment keeps the query feasible"
            ),
            other => panic!("round {round}: expected a complete run, got {other:?}"),
        }
    }
    assert_eq!(svc.cache().patches(), rounds as u64);
    assert_eq!(svc.cache().patch_rebuilds(), 0);
    assert_eq!(svc.cache().promotions(), 0);
    // The end state of the whole churn run is exactly what a cold
    // build at the final epoch produces.
    assert!(
        *cached_filter(&svc, &req) == fresh_filter(&svc, &req),
        "patched matrix diverged from the fresh build"
    );
    let telemetry = svc.telemetry();
    assert_eq!(telemetry.filter_cache_patches, rounds as u64);
    assert_eq!(telemetry.filter_cache_patch_rebuilds, 0);
}

/// The hierarchy promotion gate: a coarsened substrate memoized under
/// a superseded epoch is re-keyed across a provably-empty dirty window
/// instead of being rebuilt — the warm hierarchical resubmit hits.
#[test]
fn empty_window_epoch_bump_promotes_the_hierarchy() {
    let svc = NetEmbedService::new();
    svc.registry().register("h", path_host());
    let mut req = request("h");
    req.options.hierarchy = Some(netembed::HierarchySpec {
        min_nodes: 2,
        ..netembed::HierarchySpec::default()
    });

    let cold = svc.submit(&req).unwrap();
    assert_eq!(cold.stats.hierarchy_cache_hits, 0);
    assert_eq!(svc.hierarchy_cache().misses(), 1);

    svc.registry()
        .update_dirty("h", DirtySet::new(), |_net| {})
        .unwrap();
    let warm = svc.submit(&req).unwrap();
    assert_eq!(
        warm.stats.hierarchy_cache_hits, 1,
        "promoted coarsening must serve a hit"
    );
    assert_eq!(
        svc.hierarchy_cache().misses(),
        1,
        "an empty window must not rebuild the coarsening"
    );
    assert_eq!(svc.hierarchy_cache().promotions(), 1);
    assert_eq!(svc.telemetry().hierarchy_promotions, 1);
}

/// A hierarchical request that enumerates every mapping, so its
/// answer can be compared set for set with the flat ECF oracle.
fn hier_request(host: &str) -> QueryRequest {
    let mut req = request(host);
    req.options.hierarchy = Some(netembed::HierarchySpec {
        min_nodes: 2,
        ..netembed::HierarchySpec::default()
    });
    req.options.mode = netembed::SearchMode::All;
    req
}

/// Sorted host-id vectors of `mappings`.
fn mapping_set(mappings: &[netembed::Mapping]) -> Vec<Vec<NodeId>> {
    let mut out: Vec<Vec<NodeId>> = mappings.iter().map(|m| m.as_slice().to_vec()).collect();
    out.sort();
    out
}

/// `resp` must hold exactly the mappings flat ECF finds against the
/// registry's current model of `req.host`.
fn assert_matches_flat_ecf(svc: &NetEmbedService, req: &QueryRequest, resp: &QueryResponse) {
    let model = svc.registry().model(&req.host).expect("host registered");
    let problem =
        netembed::Problem::new(&req.query, &model, &req.constraint).expect("valid constraint");
    let flat = netembed::Engine::run(
        &problem,
        &netembed::Options {
            algorithm: netembed::Algorithm::Ecf,
            mode: netembed::SearchMode::All,
            ..netembed::Options::default()
        },
    )
    .expect("flat run");
    assert!(matches!(flat.outcome, netembed::Outcome::Complete(_)));
    assert_eq!(
        mapping_set(resp.mappings()),
        mapping_set(flat.outcome.mappings()),
        "the hierarchical answer diverges from flat ECF at the current epoch"
    );
}

/// The hierarchy patch gate: a tracked attribute commit repairs the
/// superseded coarsening in place — no second miss, one patch — and
/// the answer at the new epoch is the flat ECF answer. The commit
/// *admits* a node the old bounds prune, so serving the stale
/// coarsening would lose mappings.
#[test]
fn tracked_cpu_commit_patches_the_hierarchy() {
    let mut host = path_host();
    host.set_node_attr(NodeId(4), "cpu", 1.0);
    let svc = NetEmbedService::new();
    svc.registry().register("h", host);
    let req = hier_request("h");
    let cold = svc.submit(&req).unwrap();
    assert_matches_flat_ecf(&svc, &req, &cold);
    assert_eq!(svc.hierarchy_cache().misses(), 1);

    // Node 4 rises to the query's cpu demand: mappings onto 3–4 appear.
    svc.registry()
        .update_dirty("h", DirtySet::from_ids([4]), |net| {
            net.set_node_attr(NodeId(4), "cpu", 8.0)
        })
        .unwrap();
    let warm = svc.submit(&req).unwrap();
    assert_matches_flat_ecf(&svc, &req, &warm);
    assert_ne!(mapping_set(warm.mappings()), mapping_set(cold.mappings()));
    assert_eq!(warm.stats.hierarchy_cache_hits, 1, "the patch serves a hit");
    assert_eq!(
        svc.hierarchy_cache().misses(),
        1,
        "a cpu commit must not re-coarsen"
    );
    assert_eq!(svc.hierarchy_cache().patches(), 1);
    assert_eq!(svc.hierarchy_cache().patch_rebuilds(), 0);
    let telemetry = svc.telemetry();
    assert_eq!(telemetry.hierarchy_patches, 1);
    assert_eq!(telemetry.hierarchy_patch_rebuilds, 0);
}

/// A tracked commit that adds an edge may change the matching: the
/// patch is refused and the coarsening rebuilt.
#[test]
fn tracked_edge_addition_rebuilds_the_hierarchy() {
    let svc = NetEmbedService::new();
    svc.registry().register("h", path_host());
    let req = hier_request("h");
    svc.submit(&req).unwrap();

    svc.registry()
        .update_dirty("h", DirtySet::from_ids([0, 2]), |net| {
            let e = net.add_edge(NodeId(0), NodeId(2));
            net.set_edge_attr(e, "d", 10.0);
        })
        .unwrap();
    let resp = svc.submit(&req).unwrap();
    assert_matches_flat_ecf(&svc, &req, &resp);
    assert_eq!(resp.stats.hierarchy_cache_hits, 0);
    assert_eq!(svc.hierarchy_cache().misses(), 2);
    assert_eq!(svc.hierarchy_cache().patches(), 0);
    assert_eq!(svc.hierarchy_cache().patch_rebuilds(), 1);
    assert_eq!(svc.telemetry().hierarchy_patch_rebuilds, 1);
}

/// An untracked update leaves no dirty window to classify: the
/// coarsening is rebuilt without a patch attempt.
#[test]
fn untracked_update_rebuilds_the_hierarchy() {
    let svc = NetEmbedService::new();
    svc.registry().register("h", path_host());
    let req = hier_request("h");
    svc.submit(&req).unwrap();

    svc.registry()
        .update("h", |net| net.set_node_attr(NodeId(3), "cpu", 1.0))
        .unwrap();
    let resp = svc.submit(&req).unwrap();
    assert_matches_flat_ecf(&svc, &req, &resp);
    assert_eq!(resp.stats.hierarchy_cache_hits, 0);
    assert_eq!(svc.hierarchy_cache().misses(), 2);
    assert_eq!(svc.hierarchy_cache().patches(), 0);
    assert_eq!(svc.hierarchy_cache().patch_rebuilds(), 0);
}

/// Regression: removing a model must drop its cached filters with it —
/// a later re-register under the same name must not find ghosts.
#[test]
fn remove_model_evicts_the_hosts_cache_entries() {
    let svc = NetEmbedService::new();
    svc.registry().register("a", path_host());
    svc.registry().register("b", path_host());
    svc.submit(&request("a")).unwrap();
    svc.submit(&request("b")).unwrap();
    assert_eq!(svc.cache().len(), 2);

    let removed = svc.remove_model("a");
    assert!(removed.is_some(), "remove returns the evicted model");
    assert!(svc.registry().model("a").is_none());
    assert_eq!(svc.cache().len(), 1, "host a's filters must leave with it");
    assert!(svc.remove_model("a").is_none(), "second remove is a no-op");
    assert_eq!(svc.cache().len(), 1, "no collateral eviction of host b");
    assert!(svc.submit(&request("b")).is_ok(), "host b unaffected");
}
