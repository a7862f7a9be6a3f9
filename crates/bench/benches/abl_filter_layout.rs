//! Ablation: hash-map filter layout (the seed) vs. the CSR-arena layout,
//! on the paper's clique (fig 13) and BRITE (fig 11) scenarios.
//!
//! Five measurements per scenario:
//!
//! * **build** — first-stage filter construction only
//!   (`HashFilterMatrix::build` vs `FilterMatrix::build`);
//! * **build_par_ns** — the same construction via
//!   `FilterMatrix::build_par_pooled` at [`PAR_THREADS`] threads on one
//!   warm `WorkerPool` (bitwise-identical output; the JSON also
//!   records the machine's core count, since the speedup is bounded by
//!   physical parallelism);
//! * **search** — second stage only, over a prebuilt filter: the seed's
//!   allocating, hash-probing, `binary_search`-intersecting DFS vs. the
//!   allocation-free word-level CSR DFS. Both traverse the identical
//!   Lemma-1 order and see identical solution prefixes;
//! * **scratch_reuse** — the CSR search again, but through one caller-held
//!   `SearchScratch` reused across runs (the service batch path), vs. the
//!   fresh-arena-per-call `search_csr` series;
//! * **search_par / search_steal** — the parallel second stage at
//!   [`STEAL_WORKERS`] workers: `search_par` runs the scheduler with
//!   splitting disabled (the static strided root partition, the old
//!   code path), `search_steal` with the default work-stealing policy.
//!   On a multi-core box `search_steal` is where skewed scenarios (see
//!   the `skew-hub` row: one hub node owns every root subtree) catch
//!   up; on a 1-core box the pair documents the scheduler's overhead
//!   (the JSON records `host_cores` — compare `steal_overhead` there);
//! * **pool_cold / pool_warm** — the same stealing search with a fresh
//!   `ParallelScratch` (empty `WorkerPool` → per-run thread spawn+join,
//!   the pre-pool behaviour) vs. one reused scratch whose pool threads
//!   park between runs (the service steady state; zero spawns). The
//!   gap is pure thread-spawn cost, which dominates the µs-scale fig11
//!   parallel rows — compare `pool_warm_speedup` in the JSON;
//! * **planner_coalesce / submit_concurrent** — [`PLANNER_CLIENTS`]
//!   concurrent identical clients against a per-sample **fresh model
//!   epoch** (cold filter cache each time): `submit_concurrent` has
//!   each client go through `NetEmbedService::submit` independently
//!   (concurrent misses deduplicated by the cache's in-flight build
//!   table), `planner_coalesce` funnels them through the cross-request
//!   `service::Planner`, which groups equivalent pending requests and
//!   dispatches each group through one prepared pipeline.
//!   `coalesce_speedup` > 1.0 means grouping beat independent dispatch
//!   on this machine (see `host_cores`);
//! * **embed** — end-to-end bounded enumeration (build + search).
//!
//! Besides the stdout report, results land machine-readably in
//! `BENCH_filter.json` at the workspace root (committed, so the perf
//! trajectory of later PRs has a baseline). Run with:
//!
//! ```text
//! cargo bench -p bench --bench abl_filter_layout
//! ```

use bench::{bench_brite, bench_planetlab, planted, write_report, Field, Json};
use netembed::filter::reference::{self, HashFilterMatrix};
use netembed::order::{compute_order, predecessors};
use netembed::{
    ecf, parallel, CollectUpTo, Deadline, FilterMatrix, NodeOrder, Options, ParallelScratch,
    Problem, SearchMode, SearchScratch, SearchStats, StealPolicy, WorkerPool,
};
use netgraph::Network;
use service::{NetEmbedService, QueryRequest};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use topogen::{clique_query, QueryWorkload};

/// Bounded enumeration cap (mirrors fig13's `UpTo` bound; keeps clique
/// scenarios finite).
const MATCH_CAP: usize = 2000;
/// Samples per measurement; the median is reported. Odd and generous:
/// the µs-scale fig11 searches need the extra samples for a stable
/// median on a busy box.
const SAMPLES: usize = 51;
/// Thread count for the `build_par_ns` series.
const PAR_THREADS: usize = 4;
/// Worker count for the `search_par`/`search_steal` series.
const STEAL_WORKERS: usize = 4;
/// Concurrent client threads for the `planner_coalesce` /
/// `submit_concurrent` series.
const PLANNER_CLIENTS: usize = 4;

fn median_ns(mut f: impl FnMut() -> u64) -> u64 {
    // One untimed warm-up run absorbs first-touch effects (page faults,
    // lazily grown buffers) before sampling starts.
    black_box(f());
    let mut times: Vec<u64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    times[times.len() / 2]
}

struct Row {
    name: String,
    nq: usize,
    nr: usize,
    solutions: usize,
    build_hash_ns: u64,
    build_csr_ns: u64,
    build_par_ns: u64,
    search_hash_ns: u64,
    search_csr_ns: u64,
    search_scratch_ns: u64,
    search_par_ns: u64,
    search_steal_ns: u64,
    pool_cold_ns: u64,
    pool_warm_ns: u64,
    planner_coalesce_ns: u64,
    submit_concurrent_ns: u64,
    embed_hash_ns: u64,
    embed_csr_ns: u64,
}

fn run_scenario(name: &str, host: &Network, wl: &QueryWorkload) -> Row {
    run_scenario_capped(name, host, wl, MATCH_CAP)
}

fn run_scenario_capped(name: &str, host: &Network, wl: &QueryWorkload, cap: usize) -> Row {
    let problem = Problem::new(&wl.query, host, &wl.constraint).expect("valid scenario");

    let build_hash_ns = median_ns(|| {
        let mut dl = Deadline::unlimited();
        let mut stats = SearchStats::default();
        let f = HashFilterMatrix::build(&problem, &mut dl, &mut stats).unwrap();
        f.cell_count() as u64
    });
    let build_csr_ns = median_ns(|| {
        let mut dl = Deadline::unlimited();
        let mut stats = SearchStats::default();
        let f = FilterMatrix::build(&problem, &mut dl, &mut stats).unwrap();
        f.cell_count() as u64
    });
    let mut build_pool = WorkerPool::new();
    let build_par_ns = median_ns(|| {
        let mut dl = Deadline::unlimited();
        let mut stats = SearchStats::default();
        let f = FilterMatrix::build_par_pooled(
            &problem,
            PAR_THREADS,
            &mut dl,
            &mut stats,
            &mut build_pool,
        )
        .unwrap();
        f.cell_count() as u64
    });

    let embed_hash = || {
        let mut dl = Deadline::unlimited();
        let mut stats = SearchStats::default();
        let filter = HashFilterMatrix::build(&problem, &mut dl, &mut stats).unwrap();
        // Candidate counts are layout-independent, so ordering from the
        // hash filter yields the exact order the CSR search uses.
        let order = compute_order(&wl.query, &filter, NodeOrder::AscendingCandidates);
        let preds = predecessors(&wl.query, &order);
        reference::search_up_to(&problem, &filter, &order, &preds, cap).len()
    };
    let embed_csr = || {
        let mut sink = CollectUpTo::new(cap);
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let filter = FilterMatrix::build(&problem, &mut dl, &mut stats).unwrap();
        ecf::search(
            &problem,
            &filter,
            NodeOrder::AscendingCandidates,
            &mut dl,
            &mut sink,
            &mut stats,
            &mut SearchScratch::new(),
        );
        sink.solutions.len()
    };

    // Sanity: both layouts must enumerate the same bounded solution set.
    let (n_hash, n_csr) = (embed_hash(), embed_csr());
    assert_eq!(n_hash, n_csr, "{name}: layouts disagree on solution count");

    // Search-only: both filters prebuilt outside the timer; each side
    // computes the (identical, layout-independent) Lemma-1 order inside
    // its timer, from its own filter.
    let mut dl = Deadline::unlimited();
    let mut s = SearchStats::default();
    let hash_filter = HashFilterMatrix::build(&problem, &mut dl, &mut s).unwrap();
    let csr_filter = FilterMatrix::build(&problem, &mut dl, &mut s).unwrap();
    let search_hash_ns = median_ns(|| {
        let order = compute_order(&wl.query, &hash_filter, NodeOrder::AscendingCandidates);
        let preds = predecessors(&wl.query, &order);
        reference::search_up_to(&problem, &hash_filter, &order, &preds, cap).len() as u64
    });
    let search_csr_ns = median_ns(|| {
        let mut sink = CollectUpTo::new(cap);
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        ecf::search(
            &problem,
            &csr_filter,
            NodeOrder::AscendingCandidates,
            &mut dl,
            &mut sink,
            &mut stats,
            &mut SearchScratch::new(),
        );
        sink.solutions.len() as u64
    });

    // Scratch reuse: same prebuilt search, but the per-depth DFS arena is
    // a caller-held scratch that survives across the sampled runs (the
    // warm-up run pays the allocation; every sample after it is free of
    // arena setup) — the service batch path's steady state.
    let mut scratch = SearchScratch::new();
    let search_scratch_ns = median_ns(|| {
        let mut sink = CollectUpTo::new(cap);
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        ecf::search(
            &problem,
            &csr_filter,
            NodeOrder::AscendingCandidates,
            &mut dl,
            &mut sink,
            &mut stats,
            &mut scratch,
        );
        sink.solutions.len() as u64
    });

    // Parallel second stage at STEAL_WORKERS workers, one warm
    // ParallelScratch per series (the steady state both paths share).
    // `search_par` is the static strided root partition (splitting
    // disabled — the pre-work-stealing code path); `search_steal` is the
    // default work-stealing policy.
    let run_par = |policy: StealPolicy, scratch: &mut ParallelScratch| -> u64 {
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, _) = parallel::search(
            &problem,
            &csr_filter,
            STEAL_WORKERS,
            Some(cap),
            NodeOrder::AscendingCandidates,
            &mut dl,
            &mut stats,
            scratch,
            policy,
        );
        sols.len() as u64
    };
    let mut par_scratch = ParallelScratch::new();
    let search_par_ns = median_ns(|| run_par(StealPolicy::disabled(), &mut par_scratch));
    let mut steal_scratch = ParallelScratch::new();
    let search_steal_ns = median_ns(|| run_par(StealPolicy::default(), &mut steal_scratch));

    // Persistent-pool ablation on the same work-stealing search:
    // `pool_cold` constructs a fresh `ParallelScratch` — and with it an
    // empty `WorkerPool` — inside the timed region, so every run pays
    // the full thread spawn+join (~65µs for 4 threads on the reference
    // box: the pre-pool behaviour of `parallel::search*`); `pool_warm`
    // reuses one scratch whose pool threads stay parked between runs —
    // the service layer's steady state, zero spawns after warm-up.
    let pool_cold_ns = median_ns(|| {
        let mut cold_scratch = ParallelScratch::new();
        run_par(StealPolicy::default(), &mut cold_scratch)
    });
    let mut warm_scratch = ParallelScratch::new();
    let pool_warm_ns = median_ns(|| run_par(StealPolicy::default(), &mut warm_scratch));

    // Cross-request series: PLANNER_CLIENTS concurrent identical
    // clients, each sample against a freshly-bumped model epoch so the
    // filter cache is cold every time (that is the event the planner
    // and the in-flight dedup amortize; an unbumped loop would measure
    // nothing but cache hits). One long-lived service per series keeps
    // scratch/pool warm across samples — the steady state both sides
    // share. `submit_concurrent`: independent `submit`s racing through
    // the cache's in-flight build table. `planner_coalesce`: the same
    // clients funneled through one coalescing planner.
    let request = QueryRequest {
        host: "bench".into(),
        query: wl.query.clone(),
        constraint: wl.constraint.clone(),
        options: Options {
            mode: SearchMode::UpTo(cap),
            ..Options::default()
        },
    };
    let submit_svc = NetEmbedService::new();
    let submit_concurrent_ns = median_ns(|| {
        submit_svc.registry().register("bench", host.clone());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..PLANNER_CLIENTS)
                .map(|_| s.spawn(|| submit_svc.submit(&request).unwrap().mappings().len() as u64))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    });
    let planner_svc = NetEmbedService::new();
    let planner_coalesce_ns = median_ns(|| {
        planner_svc.registry().register("bench", host.clone());
        let planner = planner_svc.planner();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..PLANNER_CLIENTS)
                .map(|_| s.spawn(|| planner.run(&request).unwrap().mappings().len() as u64))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    });

    let embed_hash_ns = median_ns(|| embed_hash() as u64);
    let embed_csr_ns = median_ns(|| embed_csr() as u64);

    let row = Row {
        name: name.to_string(),
        nq: wl.query.node_count(),
        nr: host.node_count(),
        solutions: n_csr,
        build_hash_ns,
        build_csr_ns,
        build_par_ns,
        search_hash_ns,
        search_csr_ns,
        search_scratch_ns,
        search_par_ns,
        search_steal_ns,
        pool_cold_ns,
        pool_warm_ns,
        planner_coalesce_ns,
        submit_concurrent_ns,
        embed_hash_ns,
        embed_csr_ns,
    };
    println!(
        "{:<24} nq={:<3} nr={:<4} sols={:<5} build {:>9} -> {:>9} ns ({:.2}x)   build_pooled({PAR_THREADS}t) {:>9} ns ({:.2}x)   search {:>9} -> {:>9} ns ({:.2}x)   scratch {:>9} ns ({:.2}x)   par({STEAL_WORKERS}w) {:>9} ns   steal({STEAL_WORKERS}w) {:>9} ns ({:.2}x)   pool cold {:>9} -> warm {:>9} ns ({:.2}x)   submit({PLANNER_CLIENTS}c) {:>10} -> planner {:>10} ns ({:.2}x)   embed {:>10} -> {:>10} ns ({:.2}x)",
        row.name,
        row.nq,
        row.nr,
        row.solutions,
        row.build_hash_ns,
        row.build_csr_ns,
        row.build_hash_ns as f64 / row.build_csr_ns.max(1) as f64,
        row.build_par_ns,
        row.build_csr_ns as f64 / row.build_par_ns.max(1) as f64,
        row.search_hash_ns,
        row.search_csr_ns,
        row.search_hash_ns as f64 / row.search_csr_ns.max(1) as f64,
        row.search_scratch_ns,
        row.search_csr_ns as f64 / row.search_scratch_ns.max(1) as f64,
        row.search_par_ns,
        row.search_steal_ns,
        row.search_par_ns as f64 / row.search_steal_ns.max(1) as f64,
        row.pool_cold_ns,
        row.pool_warm_ns,
        row.pool_cold_ns as f64 / row.pool_warm_ns.max(1) as f64,
        row.submit_concurrent_ns,
        row.planner_coalesce_ns,
        row.submit_concurrent_ns as f64 / row.planner_coalesce_ns.max(1) as f64,
        row.embed_hash_ns,
        row.embed_csr_ns,
        row.embed_hash_ns as f64 / row.embed_csr_ns.max(1) as f64,
    );
    row
}

/// The deliberately skewed instance: one hub host node (capacity 1)
/// wired to `spokes` capacity-0 spokes that also form a cycle, and a
/// star query whose hub needs capacity ≥ 1. Every root candidate is the
/// hub — the worst case for the static root partition, the natural case
/// for depth-bounded re-splitting.
fn skew_scenario(spokes: usize, leaves: usize) -> (Network, QueryWorkload) {
    let mut h = Network::new(netgraph::Direction::Undirected);
    let hub = h.add_node("hub");
    h.set_node_attr(hub, "cap", 1.0);
    let ids: Vec<netgraph::NodeId> = (0..spokes)
        .map(|i| {
            let s = h.add_node(format!("s{i}"));
            h.set_node_attr(s, "cap", 0.0);
            s
        })
        .collect();
    for (i, &s) in ids.iter().enumerate() {
        h.add_edge(hub, s);
        h.add_edge(s, ids[(i + 1) % spokes]);
    }
    let mut q = Network::new(netgraph::Direction::Undirected);
    let qh = q.add_node("qh");
    q.set_node_attr(qh, "cap", 1.0);
    for i in 0..leaves {
        let l = q.add_node(format!("ql{i}"));
        q.set_node_attr(l, "cap", 0.0);
        q.add_edge(qh, l);
    }
    (
        h,
        QueryWorkload {
            query: q,
            ground_truth: None,
            constraint: "rNode.cap >= vNode.cap".to_string(),
        },
    )
}

fn write_json(rows: &[Row], path: &Path) {
    // The shard count the planner series ran with: the default-config
    // resolution (NETEMBED_PLANNER_SHARDS, else one lane per core up
    // to 8), recorded so cross-machine numbers stay comparable.
    let planner_shards = NetEmbedService::new().planner_shards();
    let header = [
        ("bench", Json::Str("abl_filter_layout".into())),
        ("unit", Json::Str("ns (median)".into())),
        ("samples", Json::Int(SAMPLES as u64)),
        ("match_cap", Json::Int(MATCH_CAP as u64)),
        ("build_par_threads", Json::Int(PAR_THREADS as u64)),
        ("steal_workers", Json::Int(STEAL_WORKERS as u64)),
        ("planner_clients", Json::Int(PLANNER_CLIENTS as u64)),
        ("planner_shards", Json::Int(planner_shards as u64)),
    ];
    let ratio = |num: u64, den: u64| Json::Fixed(num as f64 / den.max(1) as f64, 3);
    let rows: Vec<Vec<Field>> = rows
        .iter()
        .map(|r| {
            vec![
                ("name", Json::Str(r.name.clone())),
                ("nq", Json::Int(r.nq as u64)),
                ("nr", Json::Int(r.nr as u64)),
                ("solutions", Json::Int(r.solutions as u64)),
                ("build_hashmap_ns", Json::Int(r.build_hash_ns)),
                ("build_csr_ns", Json::Int(r.build_csr_ns)),
                ("build_par_ns", Json::Int(r.build_par_ns)),
                ("search_hashmap_ns", Json::Int(r.search_hash_ns)),
                ("search_csr_ns", Json::Int(r.search_csr_ns)),
                ("search_scratch_ns", Json::Int(r.search_scratch_ns)),
                ("search_par_ns", Json::Int(r.search_par_ns)),
                ("search_steal_ns", Json::Int(r.search_steal_ns)),
                ("search_pool_cold_ns", Json::Int(r.pool_cold_ns)),
                ("search_pool_warm_ns", Json::Int(r.pool_warm_ns)),
                ("planner_coalesce_ns", Json::Int(r.planner_coalesce_ns)),
                ("submit_concurrent_ns", Json::Int(r.submit_concurrent_ns)),
                ("embed_hashmap_ns", Json::Int(r.embed_hash_ns)),
                ("embed_csr_ns", Json::Int(r.embed_csr_ns)),
                ("build_speedup", ratio(r.build_hash_ns, r.build_csr_ns)),
                ("build_par_speedup", ratio(r.build_csr_ns, r.build_par_ns)),
                ("search_speedup", ratio(r.search_hash_ns, r.search_csr_ns)),
                (
                    "scratch_speedup",
                    ratio(r.search_csr_ns, r.search_scratch_ns),
                ),
                // > 1.0 means stealing cost that much more wall time than
                // the static partition *on this machine* — see host_cores.
                ("steal_overhead", ratio(r.search_steal_ns, r.search_par_ns)),
                // > 1.0 means the warm persistent pool saved that factor
                // of wall time over per-run thread spawns.
                ("pool_warm_speedup", ratio(r.pool_cold_ns, r.pool_warm_ns)),
                // > 1.0 means the coalescing planner beat independent
                // concurrent submits for a cold-epoch burst of
                // planner_clients identical requests.
                (
                    "coalesce_speedup",
                    ratio(r.submit_concurrent_ns, r.planner_coalesce_ns),
                ),
                ("embed_speedup", ratio(r.embed_hash_ns, r.embed_csr_ns)),
            ]
        })
        .collect();
    write_report(path, &header, &rows);
}

fn main() {
    let mut rows = Vec::new();

    // Fig 13 scenario: clique queries with a 10–100 ms window over the
    // PlanetLab-like host.
    let planetlab = bench_planetlab();
    for k in [3usize, 4, 5] {
        let wl = clique_query(k, 10.0, 100.0);
        rows.push(run_scenario(&format!("fig13-clique-k{k}"), &planetlab, &wl));
    }

    // Fig 11 scenario: planted subgraph queries over BRITE-like hosts.
    for host_n in [150usize, 250] {
        let host = bench_brite(host_n);
        let n = host_n / 10;
        let wl = planted(&host, n, 4000 + host_n as u64);
        rows.push(run_scenario(
            &format!("fig11-brite-N{host_n}-q{n}"),
            &host,
            &wl,
        ));
    }

    // Skew scenario for the work-stealing series: a single hub host node
    // owns every root candidate (node capacities restrict the query hub
    // to it), so the static root partition runs the whole tree on one
    // worker while `search_steal` re-splits the hub subtree.
    // The match cap is raised for this row so the measured region is
    // dominated by search work rather than the pool's thread spawns
    // (the whole point is comparing schedulers, not thread startup).
    let (skew_host, skew_wl) = skew_scenario(48, 8);
    rows.push(run_scenario_capped(
        "skew-hub-s48-q8",
        &skew_host,
        &skew_wl,
        4 * MATCH_CAP,
    ));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_filter.json");
    write_json(&rows, &path);
    println!("\nwrote {}", path.display());
}
