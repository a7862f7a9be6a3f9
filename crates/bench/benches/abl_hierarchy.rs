//! Ablation: flat filter build vs. the multilevel substrate hierarchy
//! on datacenter-scale hosts (fat-tree 10⁴, power-law 10⁵–2·10⁵ nodes).
//!
//! The comparison is **per distinct query**: the service's filter cache
//! makes byte-identical repeat queries cheap on either path, but every
//! *new* query (or model-epoch bump) pays the flat path's full
//! `O(|VQ|·|VR|)` node admission again, while one coarsening — cached
//! per `(host, epoch)` in the service's `HierarchyCache` — serves every
//! query against that host snapshot. So the timed series run at the
//! engine layer: the flat run builds its filter from scratch each
//! sample, the hierarchical run reuses a prebuilt hierarchy (the warm
//! cache steady state) and pays refinement + restricted build + search.
//!
//! Per scenario:
//!
//! * **hier_build** — the one-time `SubstrateHierarchy::build` cost
//!   that the cache amortizes across queries and requests.
//! * **flat_run / hier_run** — end-to-end engine runs, unlimited
//!   budget, first-match mode.
//! * **flat_budget_outcome / hier_budget_outcome** — the same runs
//!   under [`SCALE_BUDGET`]: on the ≥10⁵-node rows the flat run comes
//!   back `inconclusive` (the admission scan alone blows the budget)
//!   while the hierarchical run returns a verified mapping — the
//!   scale-unlock acceptance of the hierarchy PR.
//! * **levels / expanded_cells / full_cells / expanded_ratio /
//!   abstract_evals** — refinement telemetry from the hierarchical
//!   run: `expanded_ratio` ≪ 1.0 is the point (expanded cells over the
//!   full `|VQ|·|VR|` matrix).
//!
//! Results land in `BENCH_scale.json` at the workspace root
//! (committed, like `BENCH_filter.json`). Run with:
//!
//! ```text
//! cargo bench -p bench --bench abl_hierarchy
//! ```

use netembed::{
    Algorithm, EmbedScratch, Engine, HierarchySpec, Options, Outcome, Problem, SearchMode,
    SubstrateHierarchy,
};
use netgraph::{Direction, Network};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Samples per timed series (median reported). The scale rows run
/// tens-of-ms flat scans, so a lean odd count keeps the suite quick.
const SAMPLES: usize = 9;
/// Hierarchy builds are seconds-scale one-time costs; sample them once.
const BUILD_SAMPLES: usize = 1;
/// The scale-unlock budget: generous for the hierarchical path (several
/// times its steady-state latency on the reference box), far below the
/// flat admission scan on the ≥10⁵-node rows.
const SCALE_BUDGET: Duration = Duration::from_millis(40);

fn median_ns(samples: usize, mut f: impl FnMut() -> u64) -> u64 {
    black_box(f());
    let mut times: Vec<u64> = Vec::with_capacity(samples);
    for _ in 0..samples {
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
    levels: u64,
    level_sizes: Vec<usize>,
    expanded_cells: u64,
    full_cells: u64,
    pruned: u64,
    abstract_evals: u64,
    flat_evals: u64,
    hier_build_ns: u64,
    flat_run_ns: u64,
    hier_run_ns: u64,
    flat_budget_outcome: String,
    hier_budget_outcome: String,
}

fn outcome_label(o: &Outcome) -> &'static str {
    match o {
        Outcome::Complete(m) if m.is_empty() => "none",
        Outcome::Complete(_) => "complete",
        Outcome::Partial(_) => "some",
        Outcome::Inconclusive => "inconclusive",
    }
}

/// A 3-node path query with one string attr per node.
fn path_query(attr: &str, values: [&str; 3]) -> Network {
    let mut q = Network::new(Direction::Undirected);
    for (i, v) in values.iter().enumerate() {
        let id = q.add_node(format!("q{i}"));
        q.set_node_attr(id, attr, *v);
    }
    q.add_edge(netgraph::NodeId(0), netgraph::NodeId(1));
    q.add_edge(netgraph::NodeId(1), netgraph::NodeId(2));
    q
}

fn run_scenario(name: &str, host: Network, query: Network, constraint: &str) -> Row {
    let spec = HierarchySpec::default();
    let (nq, nr) = (query.node_count(), host.node_count());
    let problem = Problem::new(&query, &host, constraint).expect("valid scenario");

    let hier_build_ns = median_ns(BUILD_SAMPLES, || {
        SubstrateHierarchy::build(&host, &spec).levels() as u64
    });
    let hier = SubstrateHierarchy::build(&host, &spec);

    let flat_opts = Options {
        algorithm: Algorithm::Ecf,
        mode: SearchMode::First,
        ..Options::default()
    };
    let hier_opts = Options {
        hierarchy: Some(spec),
        ..flat_opts.clone()
    };

    let mut scratch = EmbedScratch::new();
    let flat_run_ns = median_ns(SAMPLES, || {
        Engine::run(&problem, &flat_opts).unwrap().mappings.len() as u64
    });
    let hier_run_ns = median_ns(SAMPLES, || {
        Engine::run_prebuilt(&problem, &hier, &hier_opts, &mut scratch)
            .unwrap()
            .mappings
            .len() as u64
    });

    // Telemetry from one untimed run per path.
    let fres = Engine::run(&problem, &flat_opts).unwrap();
    let hres = Engine::run_prebuilt(&problem, &hier, &hier_opts, &mut scratch).unwrap();
    assert!(
        hres.outcome.found_any() && fres.outcome.found_any(),
        "{name}: both paths must find a mapping unbudgeted"
    );

    // Scale-unlock: identical runs under the budget.
    let budget_flat = Engine::run(
        &problem,
        &Options {
            timeout: Some(SCALE_BUDGET),
            ..flat_opts.clone()
        },
    )
    .unwrap();
    let budget_hier = Engine::run_prebuilt(
        &problem,
        &hier,
        &Options {
            timeout: Some(SCALE_BUDGET),
            ..hier_opts.clone()
        },
        &mut scratch,
    )
    .unwrap();

    let row = Row {
        name: name.to_string(),
        nq,
        nr,
        levels: hres.stats.hier_levels,
        level_sizes: hier.level_sizes(),
        expanded_cells: hres.stats.hier_expanded_cells,
        full_cells: hres.stats.hier_full_cells,
        pruned: hres.stats.hier_pruned,
        abstract_evals: hres.stats.constraint_evals,
        flat_evals: fres.stats.constraint_evals,
        hier_build_ns,
        flat_run_ns,
        hier_run_ns,
        flat_budget_outcome: outcome_label(&budget_flat.outcome).to_string(),
        hier_budget_outcome: outcome_label(&budget_hier.outcome).to_string(),
    };
    println!(
        "{:<18} nq={:<2} nr={:<7} levels={:<2} expanded {:>6}/{:<8} ({:.4}%)  pruned {:>5}  evals {:>9} -> {:<7}  build {:>11} ns  run flat {:>11} -> hier {:>10} ns ({:.2}x)  budget({:?}) flat={} hier={}",
        row.name,
        row.nq,
        row.nr,
        row.levels,
        row.expanded_cells,
        row.full_cells,
        100.0 * row.expanded_cells as f64 / row.full_cells.max(1) as f64,
        row.pruned,
        row.flat_evals,
        row.abstract_evals,
        row.hier_build_ns,
        row.flat_run_ns,
        row.hier_run_ns,
        row.flat_run_ns as f64 / row.hier_run_ns.max(1) as f64,
        SCALE_BUDGET,
        row.flat_budget_outcome,
        row.hier_budget_outcome,
    );
    row
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(rows: &[Row], path: &PathBuf) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"abl_hierarchy\",\n");
    out.push_str("  \"unit\": \"ns (median)\",\n");
    out.push_str(&format!("  \"samples\": {SAMPLES},\n"));
    out.push_str(&format!(
        "  \"scale_budget_ms\": {},\n",
        SCALE_BUDGET.as_millis()
    ));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sizes = r
            .level_sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"nq\": {}, \"nr\": {}, \"levels\": {}, \
             \"level_sizes\": [{}], \
             \"expanded_cells\": {}, \"full_cells\": {}, \"expanded_ratio\": {:.6}, \
             \"pruned_subtrees\": {}, \"abstract_evals\": {}, \"flat_evals\": {}, \
             \"hier_build_ns\": {}, \"flat_run_ns\": {}, \"hier_run_ns\": {}, \
             \"run_speedup\": {:.3}, \
             \"flat_budget_outcome\": \"{}\", \"hier_budget_outcome\": \"{}\"}}{}\n",
            json_escape(&r.name),
            r.nq,
            r.nr,
            r.levels,
            sizes,
            r.expanded_cells,
            r.full_cells,
            r.expanded_cells as f64 / r.full_cells.max(1) as f64,
            r.pruned,
            r.abstract_evals,
            r.flat_evals,
            r.hier_build_ns,
            r.flat_run_ns,
            r.hier_run_ns,
            r.flat_run_ns as f64 / r.hier_run_ns.max(1) as f64,
            json_escape(&r.flat_budget_outcome),
            json_escape(&r.hier_budget_outcome),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write BENCH_scale.json");
}

fn main() {
    let mut rows = Vec::new();

    // Fat-tree 10⁴: k=24 Clos fabric, 35 hosts per edge switch
    // (~10.8k nodes). The query is a host–edge–host path pinned to
    // pod 0; super-nodes whose pod interval excludes 0 prune away.
    let ft = topogen::fat_tree(
        &topogen::FatTreeParams {
            k: 24,
            hosts_per_edge: 35,
        },
        &mut topogen::rng(0xFA7),
    );
    let q = path_query("wantTier", ["host", "edge", "host"]);
    rows.push(run_scenario(
        "fattree-k24-10k",
        ft,
        q,
        "rNode.tier == vNode.wantTier && rNode.pod == 0.0",
    ));

    // Power-law 10⁵ and 2·10⁵ with a planted 48-node hot region: the
    // flat admission scans every node; the refinement descends straight
    // into the handful of hot super-nodes.
    for n in [100_000usize, 200_000] {
        let host = topogen::power_law(
            &topogen::PowerLawParams {
                n,
                m: 2,
                hot_nodes: 48,
            },
            &mut topogen::rng(42),
        );
        let q = path_query("want", ["hot", "hot", "hot"]);
        rows.push(run_scenario(
            &format!("powerlaw-{}k", n / 1000),
            host,
            q,
            "rNode.region == vNode.want",
        ));
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json");
    write_json(&rows, &path);
    println!("\nwrote {}", path.display());
}
