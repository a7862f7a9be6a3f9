//! Multicast distribution tree over a PlanetLab-like overlay.
//!
//! §III's first motivating scenario: "a dynamic multicast service, where
//! an overlay distribution tree must be configured subject to a set of
//! constraints so that some QoS requirements are satisfied."
//!
//! We ask for a 2-level distribution tree (one source, fan-out relays,
//! leaf subscribers per relay) where source→relay links are wide-area
//! (75–350 ms) and relay→leaf links are regional (1–75 ms). If the strict
//! leaf budget is infeasible we relax it via the negotiation loop
//! (§VI-B's "begin with more stringent constraints and relax them").
//!
//! Run with: `cargo run -p netembed-suite --release --example multicast_tree`

use netembed::{Algorithm, Options, SearchMode};
use netgraph::{AttrValue, Direction, Network};
use service::{NegotiationOutcome, NetEmbedService};
use topogen::{planetlab_like, PlanetlabParams};

fn main() {
    // Overlay model: a reduced PlanetLab-like all-pairs mesh.
    let host = planetlab_like(
        &PlanetlabParams {
            sites: 80,
            measured_prob: 0.7,
            clusters: 4,
        },
        &mut topogen::rng(7),
    );
    println!(
        "overlay: {} sites, {} measured pairs",
        host.node_count(),
        host.edge_count()
    );

    // Distribution tree: source → 3 relays → 3 leaves each.
    let mut tree = Network::new(Direction::Undirected);
    let source = tree.add_node("source");
    for r in 0..3 {
        let relay = tree.add_node(format!("relay{r}"));
        let e = tree.add_edge(source, relay);
        tree.set_edge_attr(e, "tier", 0.0); // wide-area hop
        for l in 0..3 {
            let leaf = tree.add_node(format!("leaf{r}-{l}"));
            let e = tree.add_edge(relay, leaf);
            tree.set_edge_attr(e, "tier", 1.0); // regional hop
        }
    }
    println!(
        "requested tree: {} nodes, {} links\n",
        tree.node_count(),
        tree.edge_count()
    );

    // Constraint template: wide-area window fixed, leaf budget `b` is the
    // negotiation lever.
    let template = |leaf_budget: f64| {
        format!(
            "(vEdge.tier == 0.0 && rEdge.avgDelay >= 75.0 && rEdge.avgDelay <= 350.0) || \
             (vEdge.tier == 1.0 && rEdge.avgDelay <= {leaf_budget})"
        )
    };

    let options = Options {
        algorithm: Algorithm::Lns, // regular structure: LNS finds first match fast (§VII-D)
        mode: SearchMode::First,
        timeout: Some(std::time::Duration::from_secs(5)),
        ..Options::default()
    };

    // Try leaf budgets from aggressive to generous.
    let budgets = [5.0, 10.0, 20.0, 40.0, 75.0];
    let svc = NetEmbedService::new();
    svc.registry().register("overlay", host.clone());
    match svc
        .negotiate("overlay", &tree, &budgets, &options, template)
        .expect("valid constraints")
    {
        NegotiationOutcome::Satisfied { level, outcome, .. } => {
            println!("satisfied with leaf delay budget {level} ms");
            let m = &outcome.mappings()[0];
            println!("tree placement:");
            for (q, r) in m.iter() {
                let cluster = host
                    .node_attr_by_name(r, "cluster")
                    .and_then(AttrValue::as_num)
                    .unwrap_or(-1.0);
                println!(
                    "    {:9} -> {} (cluster {})",
                    tree.node_name(q),
                    host.node_name(r),
                    cluster as i64
                );
            }
        }
        NegotiationOutcome::Exhausted => {
            println!("no feasible tree even at the loosest budget — definitive answer");
        }
        NegotiationOutcome::Inconclusive { index } => {
            println!("timed out at budget index {index}; result unknown");
        }
    }
}
