//! Hierarchy soundness and equivalence properties.
//!
//! The multilevel substrate hierarchy is only allowed to *speed up* the
//! filter stage — never to change answers. Three properties pin that
//! down:
//!
//! 1. **Conservative coarsening** — at every level, every super-node's
//!    attribute bounds contain every member leaf's concrete attributes
//!    (the `AttrBounds::contains` oracle). This is the invariant that
//!    makes abstract `Infeasible` verdicts sound.
//! 2. **No false prunes** — on random hosts, queries, and constraints,
//!    top-down refinement never returns `Infeasible` when the flat ECF
//!    enumeration finds solutions, and every flat solution's host nodes
//!    survive inside the refined `allowed` sets.
//! 3. **Solution-set identity** — a hierarchical run (sequential ECF
//!    and work-stealing parallel ECF at 1–4 pinned workers) returns a
//!    solution set identical to the flat run, mapping for mapping.
//! 4. **Exact repair** — across an attribute-only window (node and
//!    edge attributes with every touched node dirty, newly interned
//!    names included), `patch` equals a fresh build of the mutated
//!    host and refines to the same candidate sets; a window that adds
//!    or removes an edge, changes the node count or names an
//!    out-of-range node gives `None`.
//!
//! A scale soak on a ≥10⁵-node power-law substrate runs behind
//! `NETEMBED_HIERARCHY_FULL=1` (nightly CI), mirroring the chaos
//! harness's env gating.

use cexpr::BoundsMap;
use netembed::{
    Algorithm, Deadline, Engine, HierarchySpec, Mapping, Options, Outcome, Problem, Refinement,
    SearchMode, SearchStats, SubstrateHierarchy,
};
use netgraph::{Direction, Network, NodeBitSet, NodeId};
use proptest::prelude::*;

/// Worker counts for the parallel identity property. CI pins this via
/// `NETEMBED_TEST_WORKERS` so scheduler skew surfaces on 1-core boxes.
fn steal_threads() -> Vec<usize> {
    match std::env::var("NETEMBED_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => vec![1, 2, 4],
    }
}

/// Build an attributed host and a bare query from raw edge lists.
/// Hosts carry a numeric `cpu` per node and `d` per edge; self-loops
/// and duplicate edges are dropped, indices wrap.
fn build_nets(
    dir: Direction,
    nr: usize,
    cpus: &[u32],
    hedges: &[(u32, u32, u32)],
    nq: usize,
    qedges: &[(u32, u32)],
) -> (Network, Network) {
    let mut host = Network::new(dir);
    for i in 0..nr {
        let id = host.add_node(format!("h{i}"));
        host.set_node_attr(id, "cpu", cpus[i % cpus.len()] as f64);
    }
    for &(u, v, d) in hedges {
        let (u, v) = (NodeId(u % nr as u32), NodeId(v % nr as u32));
        if u != v && !host.has_edge(u, v) {
            let e = host.add_edge(u, v);
            host.set_edge_attr(e, "d", d as f64);
        }
    }
    let mut query = Network::new(dir);
    for i in 0..nq {
        query.add_node(format!("q{i}"));
    }
    for &(u, v) in qedges {
        let (u, v) = (NodeId(u % nq as u32), NodeId(v % nq as u32));
        if u != v && !query.has_edge(u, v) {
            query.add_edge(u, v);
        }
    }
    (host, query)
}

fn sorted_mappings(mut v: Vec<Mapping>) -> Vec<Mapping> {
    v.sort_by_key(|m| m.as_slice().to_vec());
    v
}

/// Aggressive coarsening: two-node floor so even small hosts produce
/// several levels for the properties to bite on.
const DEEP: HierarchySpec = HierarchySpec {
    max_levels: 16,
    min_nodes: 2,
};

/// Property 1: every super-node's bounds contain every member's
/// concrete attribute map, at every level.
fn check_conservative(host: &Network) -> Result<(), TestCaseError> {
    let hier = SubstrateHierarchy::build(host, &DEEP);
    for level in 0..hier.levels() {
        for sup in 0..hier.level_size(level) {
            let bounds = hier.node_bounds(level, sup);
            for member in hier.leaf_members(level, sup) {
                let concrete = BoundsMap::from_node(host, member);
                for (attr, member_bounds) in concrete.iter() {
                    let sup_bounds = bounds.get(attr);
                    prop_assert!(
                        sup_bounds.is_some(),
                        "level {level} super {sup}: member {member:?} has attr {attr:?} \
                         absent from the super-node bounds"
                    );
                    // A singleton bound from one concrete node must be
                    // inside the aggregate: check via a fresh merge —
                    // merging the member in must not widen anything the
                    // contains oracle can see. Cheapest sound check:
                    // every concrete value the member bounds admit at
                    // its endpoints is admitted by the aggregate.
                    let sup_bounds = sup_bounds.unwrap();
                    let mut widened = sup_bounds.clone();
                    widened.merge(member_bounds);
                    prop_assert!(
                        widened == *sup_bounds,
                        "level {level} super {sup}: member {member:?} attrs escape \
                         the aggregate bounds for {attr:?}"
                    );
                }
            }
        }
    }
    Ok(())
}

/// Properties 2 and 3 on one instance: refinement keeps every flat
/// solution, and hierarchical engine runs return identical sets.
#[allow(clippy::too_many_arguments)]
fn check_equivalence(
    dir: Direction,
    nr: usize,
    cpus: &[u32],
    hedges: &[(u32, u32, u32)],
    nq: usize,
    qedges: &[(u32, u32)],
    cpu_min: u32,
    thr: u32,
) -> Result<(), TestCaseError> {
    let (host, query) = build_nets(dir, nr, cpus, hedges, nq, qedges);
    prop_assume!(query.node_count() <= host.node_count());
    check_conservative(&host)?;

    let constraint = format!("rNode.cpu >= {cpu_min}.0 && rEdge.d <= {thr}.0");
    let problem = Problem::new(&query, &host, &constraint).unwrap();

    // Flat reference run.
    let flat_opts = Options {
        algorithm: Algorithm::Ecf,
        mode: SearchMode::All,
        ..Options::default()
    };
    let flat = Engine::run(&problem, &flat_opts).unwrap();
    let flat_sols = match flat.outcome {
        Outcome::Complete(m) => sorted_mappings(m),
        other => {
            return Err(TestCaseError::fail(format!(
                "flat run without timeout must be Complete, got {other:?}"
            )))
        }
    };

    // Property 2: refinement is a sound over-approximation of the
    // solution supports.
    let hier = SubstrateHierarchy::build(&host, &DEEP);
    let mut dl = Deadline::unlimited();
    let mut rstats = SearchStats::default();
    match hier.refine(&problem, &mut dl, &mut rstats) {
        Refinement::TimedOut => return Err(TestCaseError::fail("unlimited refine timed out")),
        Refinement::Infeasible => {
            prop_assert!(
                flat_sols.is_empty(),
                "refinement pruned a feasible instance ({} solutions)",
                flat_sols.len()
            );
        }
        Refinement::Restricted(allowed) => {
            prop_assert_eq!(allowed.len(), query.node_count());
            for m in &flat_sols {
                for v in query.node_ids() {
                    prop_assert!(
                        allowed[v.index()].contains(m.get(v)),
                        "refinement dropped host {:?} from query {:?}'s domain \
                         although a flat solution uses it",
                        m.get(v),
                        v
                    );
                }
            }
        }
    }

    // Property 3: hierarchical runs return the identical solution set.
    let mut algos = vec![Algorithm::Ecf];
    for threads in steal_threads() {
        algos.push(Algorithm::ParallelEcf { threads });
    }
    for algorithm in algos {
        let opts = Options {
            algorithm,
            mode: SearchMode::All,
            hierarchy: Some(DEEP),
            ..Options::default()
        };
        let hres = Engine::run(&problem, &opts).unwrap();
        let hier_sols = match hres.outcome {
            Outcome::Complete(m) => sorted_mappings(m),
            other => {
                return Err(TestCaseError::fail(format!(
                    "hierarchical {algorithm:?} must be Complete, got {other:?}"
                )))
            }
        };
        prop_assert_eq!(
            &hier_sols,
            &flat_sols,
            "hierarchical {:?} diverges from flat ECF",
            algorithm
        );
        // The hierarchical run must report its refinement telemetry.
        prop_assert!(hres.stats.hier_levels >= 1);
        prop_assert!(hres.stats.hier_expanded_cells <= hres.stats.hier_full_cells);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Undirected instances: conservative bounds, no false prunes, and
    /// flat/hierarchical solution-set identity.
    #[test]
    fn hierarchy_equivalent_undirected(
        nr in 4usize..12,
        cpus in proptest::collection::vec(1u32..8, 1..6),
        hedges in proptest::collection::vec((0u32..12, 0u32..12, 0u32..50), 2..28),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        cpu_min in 0u32..6,
        thr in 5u32..45,
    ) {
        check_equivalence(Direction::Undirected, nr, &cpus, &hedges, nq, &qedges, cpu_min, thr)?;
    }

    /// Directed instances exercise the in/out-arc sides of the
    /// refinement's arc-consistency loop.
    #[test]
    fn hierarchy_equivalent_directed(
        nr in 4usize..12,
        cpus in proptest::collection::vec(1u32..8, 1..6),
        hedges in proptest::collection::vec((0u32..12, 0u32..12, 0u32..50), 2..28),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        cpu_min in 0u32..6,
        thr in 5u32..45,
    ) {
        check_equivalence(Direction::Directed, nr, &cpus, &hedges, nq, &qedges, cpu_min, thr)?;
    }
}

/// Apply attribute-only mutations to `host`, returning the dirty set
/// the registry's contract demands: each mutated node, and both
/// endpoints of each mutated edge. `mem` and `lat` are names the base
/// host never interned; `zone` strings range over more values than a
/// bound tracks exactly.
fn mutate_attrs(host: &mut Network, muts: &[(u8, u32, u32)]) -> Vec<NodeId> {
    let nr = host.node_count() as u32;
    let edges: Vec<netgraph::EdgeRef> = host.edge_refs().collect();
    let mut dirty = Vec::new();
    for &(kind, a, b) in muts {
        let v = NodeId(a % nr);
        match kind % 5 {
            0 => host.set_node_attr(v, "cpu", f64::from(b)),
            1 => host.set_node_attr(v, "mem", f64::from(b)),
            2 => host.set_node_attr(v, "zone", format!("z{}", b % 12)),
            k if !edges.is_empty() => {
                let e = edges[a as usize % edges.len()];
                let name = if k == 3 { "d" } else { "lat" };
                host.set_edge_attr(e.id, name, f64::from(b));
                dirty.extend([e.src, e.dst]);
                continue;
            }
            _ => continue,
        }
        dirty.push(v);
    }
    dirty
}

/// The candidate sets of one refinement (`None` = proven infeasible).
fn refined(
    hier: &SubstrateHierarchy,
    problem: &Problem<'_>,
) -> Result<Option<Vec<NodeBitSet>>, TestCaseError> {
    let mut dl = Deadline::unlimited();
    let mut stats = SearchStats::default();
    match hier.refine(problem, &mut dl, &mut stats) {
        Refinement::Restricted(allowed) => Ok(Some(allowed)),
        Refinement::Infeasible => Ok(None),
        Refinement::TimedOut => Err(TestCaseError::fail("unlimited refine timed out")),
    }
}

/// Property 4, positive half: an attribute-only window patches to
/// exactly the fresh build, and both refine identically.
#[allow(clippy::too_many_arguments)]
fn check_patch_exact(
    dir: Direction,
    nr: usize,
    cpus: &[u32],
    hedges: &[(u32, u32, u32)],
    qedges: &[(u32, u32)],
    muts: &[(u8, u32, u32)],
    cpu_min: u32,
    thr: u32,
) -> Result<(), TestCaseError> {
    let (mut old, query) = build_nets(dir, nr, cpus, hedges, 3, qedges);
    for v in 0..nr {
        old.set_node_attr(NodeId(v as u32), "zone", format!("z{}", v % 10));
    }
    let hier = SubstrateHierarchy::build(&old, &DEEP);
    let mut new = old.clone();
    let dirty = mutate_attrs(&mut new, muts);
    let patched = hier.patch(&new, &dirty);
    let built = SubstrateHierarchy::build(&new, &DEEP);
    prop_assert!(
        patched.as_ref() == Some(&built),
        "patch diverges from a fresh build (dirty {dirty:?})"
    );
    let patched = patched.expect("compared equal to Some above");

    let constraint = format!("rNode.cpu >= {cpu_min}.0 && rEdge.d <= {thr}.0");
    let problem = Problem::new(&query, &new, &constraint).unwrap();
    prop_assert_eq!(refined(&patched, &problem)?, refined(&built, &problem)?);
    Ok(())
}

/// Property 4, negative half: every window that may change the
/// matching is refused.
fn check_patch_refuses(
    dir: Direction,
    nr: usize,
    cpus: &[u32],
    hedges: &[(u32, u32, u32)],
    pick: u32,
) -> Result<(), TestCaseError> {
    let (old, _) = build_nets(dir, nr, cpus, hedges, 1, &[]);
    let hier = SubstrateHierarchy::build(&old, &DEEP);
    prop_assert!(hier.patch(&old, &[]) == Some(SubstrateHierarchy::build(&old, &DEEP)));

    // Add an edge between the first non-adjacent pair at or after `pick`.
    let n = nr as u32;
    let pair = (0..n * n)
        .map(|k| (pick + k) % (n * n))
        .map(|idx| (NodeId(idx / n), NodeId(idx % n)))
        .find(|&(u, v)| u != v && !old.has_edge(u, v));
    if let Some((u, v)) = pair {
        let mut added = old.clone();
        added.add_edge(u, v);
        prop_assert!(
            hier.patch(&added, &[u, v]).is_none(),
            "edge addition patched"
        );
    }

    // Remove one edge: rebuild the host from every other edge.
    let edges: Vec<(u32, u32, u32)> = old
        .edge_refs()
        .map(|e| {
            let d = old.edge_attr_by_name(e.id, "d").and_then(|d| d.as_num());
            (e.src.0, e.dst.0, d.expect("every host edge has d") as u32)
        })
        .collect();
    if !edges.is_empty() {
        let k = pick as usize % edges.len();
        let mut rest = edges.clone();
        let (u, v, _) = rest.remove(k);
        let (removed, _) = build_nets(dir, nr, cpus, &rest, 1, &[]);
        prop_assert!(
            hier.patch(&removed, &[NodeId(u), NodeId(v)]).is_none(),
            "edge removal patched"
        );
    }

    // Grow the node count.
    let mut grown = old.clone();
    let extra = grown.add_node("extra");
    prop_assert!(
        hier.patch(&grown, &[extra]).is_none(),
        "node addition patched"
    );
    prop_assert!(hier.patch(&grown, &[]).is_none(), "node count unchecked");

    // An id past the host.
    prop_assert!(
        hier.patch(&old, &[NodeId(n + pick % 4)]).is_none(),
        "out-of-range id patched"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn patch_equals_build_undirected(
        nr in 4usize..16,
        cpus in proptest::collection::vec(1u32..8, 1..6),
        hedges in proptest::collection::vec((0u32..16, 0u32..16, 0u32..50), 2..40),
        qedges in proptest::collection::vec((0u32..3, 0u32..3), 1..4),
        muts in proptest::collection::vec((0u8..5, 0u32..64, 0u32..50), 0..8),
        cpu_min in 0u32..6,
        thr in 5u32..45,
    ) {
        check_patch_exact(Direction::Undirected, nr, &cpus, &hedges, &qedges, &muts, cpu_min, thr)?;
    }

    #[test]
    fn patch_equals_build_directed(
        nr in 4usize..16,
        cpus in proptest::collection::vec(1u32..8, 1..6),
        hedges in proptest::collection::vec((0u32..16, 0u32..16, 0u32..50), 2..40),
        qedges in proptest::collection::vec((0u32..3, 0u32..3), 1..4),
        muts in proptest::collection::vec((0u8..5, 0u32..64, 0u32..50), 0..8),
        cpu_min in 0u32..6,
        thr in 5u32..45,
    ) {
        check_patch_exact(Direction::Directed, nr, &cpus, &hedges, &qedges, &muts, cpu_min, thr)?;
    }

    #[test]
    fn patch_refuses_topology_and_range_changes(
        directed in any::<bool>(),
        nr in 4usize..12,
        cpus in proptest::collection::vec(1u32..8, 1..6),
        hedges in proptest::collection::vec((0u32..12, 0u32..12, 0u32..50), 1..28),
        pick in 0u32..1000,
    ) {
        let dir = if directed { Direction::Directed } else { Direction::Undirected };
        check_patch_refuses(dir, nr, &cpus, &hedges, pick)?;
    }
}

/// An always-infeasible node constraint must be recognized at the
/// coarsest level: the refinement prunes every domain without ever
/// touching the concrete filter, and the engine classifies the run as
/// definitively infeasible (`Complete([])`), not `Inconclusive`.
#[test]
fn impossible_constraint_pruned_at_coarsest_level() {
    let host = topogen::power_law(
        &topogen::PowerLawParams::paper_default(256),
        &mut topogen::rng(9),
    );
    let mut query = Network::new(Direction::Undirected);
    let a = query.add_node("q0");
    let b = query.add_node("q1");
    query.add_edge(a, b);
    let problem = Problem::new(&query, &host, "rNode.cpu >= 1000.0").unwrap();

    let opts = Options {
        algorithm: Algorithm::Ecf,
        mode: SearchMode::All,
        hierarchy: Some(HierarchySpec::default()),
        ..Options::default()
    };
    let res = Engine::run(&problem, &opts).unwrap();
    assert_eq!(res.outcome, Outcome::Complete(vec![]));
    // Nothing expanded: the prune happened in the abstract.
    assert_eq!(res.stats.hier_expanded_cells, 0);
    assert!(res.stats.hier_pruned > 0);
    assert_eq!(res.stats.filter_cells, 0);
}

/// Scale soak (nightly): on a ≥10⁵-node power-law substrate with a
/// planted hot region, the hierarchical run answers a region-pinned
/// query while expanding only a sliver of the full filter matrix.
/// Gated behind `NETEMBED_HIERARCHY_FULL=1` like the chaos soak.
#[test]
fn hierarchy_soak_100k_power_law() {
    if std::env::var("NETEMBED_HIERARCHY_FULL").is_err() {
        eprintln!("skipping 100k soak; set NETEMBED_HIERARCHY_FULL=1 to run");
        return;
    }
    let params = topogen::PowerLawParams {
        n: 100_000,
        m: 2,
        hot_nodes: 48,
    };
    let host = topogen::power_law(&params, &mut topogen::rng(42));
    assert!(host.node_count() >= 100_000);

    // A 3-node path pinned to the hot region.
    let mut query = Network::new(Direction::Undirected);
    let a = query.add_node("q0");
    let b = query.add_node("q1");
    let c = query.add_node("q2");
    query.add_edge(a, b);
    query.add_edge(b, c);
    let problem = Problem::new(&query, &host, "rNode.region == \"hot\"").unwrap();

    let opts = Options {
        algorithm: Algorithm::Ecf,
        mode: SearchMode::First,
        timeout: Some(std::time::Duration::from_secs(60)),
        hierarchy: Some(HierarchySpec::default()),
        ..Options::default()
    };
    let res = Engine::run(&problem, &opts).unwrap();
    assert!(
        res.outcome.found_any(),
        "hierarchical run must embed the hot-region path, got {:?}",
        res.outcome
    );
    // Every mapped host node really is hot (first `hot_nodes` ids).
    let m = &res.outcome.mappings()[0];
    for v in query.node_ids() {
        assert!(m.get(v).index() < params.hot_nodes);
    }
    // Scale acceptance: expanded cells are a sliver of the full matrix.
    assert!(res.stats.hier_full_cells >= 300_000);
    assert!(
        res.stats.hier_expanded_cells * 10 <= res.stats.hier_full_cells,
        "expanded {} of {} cells — more than 10%",
        res.stats.hier_expanded_cells,
        res.stats.hier_full_cells
    );

    // Repair at scale: an 8-node cpu commit patches to exactly the
    // fresh build of the committed host.
    let spec = HierarchySpec::default();
    let start = std::time::Instant::now();
    let hier = SubstrateHierarchy::build(&host, &spec);
    let build_time = start.elapsed();
    let mut committed = host.clone();
    let dirty: Vec<NodeId> = (0..8u32)
        .map(|i| NodeId(i * 12_347 % params.n as u32))
        .collect();
    for (i, &v) in dirty.iter().enumerate() {
        committed.set_node_attr(v, "cpu", 3.0 * (i + 1) as f64);
    }
    let start = std::time::Instant::now();
    let patched = hier
        .patch(&committed, &dirty)
        .expect("an attribute-only commit patches");
    let patch_time = start.elapsed();
    eprintln!("100k hierarchy: build {build_time:?}, 8-node cpu patch {patch_time:?}");
    assert!(
        patched == SubstrateHierarchy::build(&committed, &spec),
        "the patched hierarchy diverges from a fresh build"
    );
}
