//! Ablation: in-place filter patching vs. full rebuilds under model
//! churn, end to end through the service.
//!
//! The scenario is the paper's monitoring loop: a warm service keeps
//! answering the same prepared request while the hosting model churns
//! — here a removal-only stream (link delays only ever rise, so filter
//! candidates only ever leave). Three delta disciplines against the
//! same fat-tree host and query:
//!
//! * **patch** — every commit goes through `update_dirty` with the
//!   touched endpoints declared: the epoch bump is repaired in place
//!   (`FilterMatrix::patch` re-evaluates only the dirty rows), so the
//!   warm submit stays a cache hit and the miss counter never moves
//!   after the cold build.
//! * **promote** — tracked no-op commits (empty dirty window): the
//!   superseded entry is re-keyed without touching a single cell; the
//!   floor the patch path is measured against.
//! * **rebuild** — the same mutations through plain `update`, which
//!   breaks the dirty chain: every commit invalidates the entry and
//!   the warm submit pays a full `O(query edges × host edges)` build —
//!   the pre-patch baseline.
//!
//! Reported per mode: median/p90 warm-submit latency across the churn
//! rounds plus the cache's `hits / misses / patches / promotions /
//! patch_rebuilds` ledger. The acceptance numbers are `misses == 1`
//! (the cold build only) with `patches == rounds` on the patch row,
//! against `misses == 1 + rounds` on the rebuild row.
//!
//! The report is printed to stdout; end-to-end churn numbers under a
//! realistic request mix come from perfbench's monitor-churn workload
//! (`submit.{promote,patch,rebuild}_us`). Run with:
//!
//! ```text
//! cargo bench -p bench --bench abl_churn
//! ```

use netembed::{Options, SearchMode};
use netgraph::{Direction, Network, NodeId};
use service::{DirtySet, NetEmbedService, QueryRequest};
use std::hint::black_box;
use std::time::Instant;

/// Removal-only churn commits per mode (one host link degraded per
/// round; the fat tree below has ~2k host links, so victims never
/// repeat).
const ROUNDS: usize = 128;

/// Host links whose delay stays in-constraint at generation time; the
/// churn pushes one per round past the threshold.
const DELAY_LIMIT: f64 = 0.045;

fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct Row {
    mode: &'static str,
    rounds: usize,
    cold_submit_ns: u64,
    median_warm_ns: u64,
    p90_warm_ns: u64,
    hits: u64,
    misses: u64,
    patches: u64,
    promotions: u64,
    patch_rebuilds: u64,
}

/// The three delta disciplines, applied to round `i`'s victim link.
enum Discipline {
    Patch,
    Promote,
    Rebuild,
}

fn edge_query() -> Network {
    let mut q = Network::new(Direction::Undirected);
    let x = q.add_node("x");
    let y = q.add_node("y");
    q.add_edge(x, y);
    q
}

fn run_mode(
    mode: &'static str,
    discipline: Discipline,
    host: &Network,
    victims: &[(NodeId, NodeId)],
) {
    let svc = NetEmbedService::new();
    svc.registry().register("dc", host.clone());
    let req = QueryRequest {
        host: "dc".into(),
        query: edge_query(),
        constraint: format!("rEdge.delay <= {DELAY_LIMIT}"),
        options: Options {
            mode: SearchMode::First,
            ..Options::default()
        },
    };

    let t = Instant::now();
    let cold = svc.submit(&req).expect("cold submit");
    let cold_submit_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(cold.stats.filter_cache_hits, 0, "{mode}: cold must build");
    assert!(cold.outcome.found_any(), "{mode}: base host feasible");

    let mut warm_ns: Vec<u64> = Vec::with_capacity(ROUNDS);
    for (src, dst) in victims.iter().copied().take(ROUNDS) {
        let degrade = move |net: &mut Network| {
            let e = net.find_edge(src, dst).expect("victim link exists");
            net.set_edge_attr(e, "delay", 1.0);
        };
        match discipline {
            Discipline::Patch => {
                svc.registry()
                    .update_dirty("dc", DirtySet::from_ids([src.0, dst.0]), degrade)
                    .expect("tracked commit");
            }
            Discipline::Promote => {
                svc.registry()
                    .update_dirty("dc", DirtySet::new(), |_net| {})
                    .expect("tracked no-op commit");
            }
            Discipline::Rebuild => {
                svc.registry().update("dc", degrade).expect("plain commit");
            }
        }
        let t = Instant::now();
        let warm = black_box(svc.submit(&req).expect("warm submit"));
        warm_ns.push(t.elapsed().as_nanos() as u64);
        assert!(
            warm.outcome.found_any(),
            "{mode}: churn left the query feasible"
        );
    }
    warm_ns.sort_unstable();

    let row = Row {
        mode,
        rounds: ROUNDS,
        cold_submit_ns,
        median_warm_ns: warm_ns[warm_ns.len() / 2],
        p90_warm_ns: percentile_ns(&warm_ns, 0.90),
        hits: svc.cache().hits(),
        misses: svc.cache().misses(),
        patches: svc.cache().patches(),
        promotions: svc.cache().promotions(),
        patch_rebuilds: svc.cache().patch_rebuilds(),
    };

    // The ledger *is* the acceptance: tracked removal-only churn never
    // rebuilds; the broken chain always does.
    match discipline {
        Discipline::Patch => {
            assert_eq!(row.misses, 1, "patch mode must only build once (cold)");
            assert_eq!(row.patches, ROUNDS as u64);
            assert_eq!(row.patch_rebuilds, 0);
        }
        Discipline::Promote => {
            assert_eq!(row.misses, 1, "promote mode must only build once (cold)");
            assert_eq!(row.promotions, ROUNDS as u64);
        }
        Discipline::Rebuild => {
            assert_eq!(
                row.misses,
                1 + ROUNDS as u64,
                "broken chain rebuilds per epoch"
            );
            assert_eq!(row.patches, 0);
        }
    }

    println!(
        "{:<8} rounds={:<4} cold {:>9} ns  warm median {:>9} ns  p90 {:>9} ns  hits={:<4} misses={:<4} patches={:<4} promotions={:<4} patch_rebuilds={}",
        row.mode,
        row.rounds,
        row.cold_submit_ns,
        row.median_warm_ns,
        row.p90_warm_ns,
        row.hits,
        row.misses,
        row.patches,
        row.promotions,
        row.patch_rebuilds,
    );
}

fn main() {
    // k=16 Clos fabric, 16 hosts per edge switch: ~2.4k nodes, ~4k
    // links, 2048 of them host links — the churn victims.
    let host = topogen::fat_tree(
        &topogen::FatTreeParams {
            k: 16,
            hosts_per_edge: 16,
        },
        &mut topogen::rng(0xC0FE),
    );
    let victims: Vec<(NodeId, NodeId)> = host
        .edge_refs()
        .filter(|e| {
            host.node_attr_by_name(e.src, "tier")
                .and_then(netgraph::AttrValue::as_str)
                == Some("host")
                || host
                    .node_attr_by_name(e.dst, "tier")
                    .and_then(netgraph::AttrValue::as_str)
                    == Some("host")
        })
        .map(|e| (e.src, e.dst))
        .collect();
    assert!(victims.len() >= ROUNDS, "enough host links to churn");

    println!(
        "fat tree: {} nodes, {} links, {ROUNDS} removal-only rounds per mode",
        host.node_count(),
        host.edge_count()
    );
    run_mode("promote", Discipline::Promote, &host, &victims);
    run_mode("patch", Discipline::Patch, &host, &victims);
    run_mode("rebuild", Discipline::Rebuild, &host, &victims);
}
