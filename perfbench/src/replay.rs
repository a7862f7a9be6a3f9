//! The traced pass: after the service has answered a request, run the
//! same request again through the public layer functions, one span per
//! call, composed the way the service composes them on the path it took.
//!
//! * [`cold`] mirrors the cold `PreparedQuery::run`: parse + lint,
//!   compile, filter build, search, verify (LNS searches without a
//!   filter).
//! * [`hier`] mirrors the hierarchical path over the service's cached
//!   coarsening: refine, restricted build, search, verify.
//! * [`warm`] mirrors the cached path of a resident request: the filter
//!   is kept in a [`Mirror`] and repaired across the registry's dirty
//!   window the way the service's filter cache repairs it (promote,
//!   patch, or rebuild).
//!
//! The replay runs outside the request's end-to-end span, so tracing
//! never sits inside a measured service call.

use crate::trace::Tracer;
use crate::Request;
use netembed::{
    check_mapping, Algorithm, Deadline, EmbedResult, EmbedScratch, Engine, FilterMatrix,
    PatchOutcome, Problem, Refinement, SearchStats, SubstrateHierarchy,
};
use netgraph::{Network, NodeId};
use service::{ModelEpoch, ModelRegistry};

/// Span names that are not request-path layers: the replay's own root
/// and registry commits (separate events, not inside a request).
pub const NOT_LAYERS: [&str; 2] = ["request", "registry.commit"];

fn search_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Ecf => "search.ecf",
        Algorithm::Rwb => "search.rwb",
        Algorithm::Lns => "search.lns",
        Algorithm::ParallelEcf { .. } => "search.parallel",
    }
}

/// Parse + lint, then compile against `host`.
fn front<'a>(tr: &mut Tracer, req: &'a Request, host: &'a Network) -> Problem<'a> {
    let id = req.id;
    let expr = tr
        .leaf("cexpr.parse", id, || cexpr::parse(&req.constraint))
        .expect("workload constraint parses");
    tr.leaf("cexpr.check", id, || cexpr::check_constraint(&expr))
        .expect("workload constraint is well typed");
    tr.leaf("problem.compile", id, || {
        Problem::from_parsed(&req.query, host, &expr)
    })
    .expect("workload problem compiles")
}

/// Search over a prebuilt filter, then verify every mapping.
fn back(
    tr: &mut Tracer,
    req: &Request,
    problem: &Problem<'_>,
    filter: &FilterMatrix,
    scratch: &mut EmbedScratch,
) {
    let result = tr
        .leaf(search_span(req.options.algorithm), req.id, || {
            Engine::run_prebuilt(problem, filter, &req.options, scratch)
        })
        .expect("prebuilt run");
    finish(tr, req, problem, &result);
}

fn finish(tr: &mut Tracer, req: &Request, problem: &Problem<'_>, result: &EmbedResult) {
    tr.count("search.runs", 1);
    tr.count("search.nodes_visited", result.stats.nodes_visited);
    tr.count("search.prunes", result.stats.prunes);
    tr.count("parallel.tasks_stolen", result.stats.tasks_stolen);
    tr.leaf("verify", req.id, || {
        for m in &result.mappings {
            check_mapping(problem, m).expect("replayed mapping verifies");
        }
    });
}

fn count_build(tr: &mut Tracer, stats: &SearchStats) {
    tr.count("filter.builds", 1);
    tr.count("filter.constraint_evals", stats.constraint_evals);
    tr.count("filter.cells", stats.filter_cells);
}

/// The cold, cache-missing path of one request.
pub fn cold(tr: &mut Tracer, req: &Request, host: &Network, scratch: &mut EmbedScratch) {
    let root = tr.begin("request", req.id);
    let problem = front(tr, req, host);
    match req.options.algorithm {
        Algorithm::Lns => {
            let result = tr
                .leaf("search.lns", req.id, || {
                    Engine::run_with_scratch(&problem, &req.options, scratch)
                })
                .expect("lns run");
            finish(tr, req, &problem, &result);
        }
        algorithm => {
            let mut deadline = Deadline::new(req.options.timeout);
            let mut stats = SearchStats::default();
            let filter = tr
                .leaf("filter.build", req.id, || match algorithm {
                    Algorithm::ParallelEcf { threads } => FilterMatrix::build_par_pooled(
                        &problem,
                        threads,
                        &mut deadline,
                        &mut stats,
                        scratch.parallel.pool_mut(),
                    ),
                    _ => FilterMatrix::build(&problem, &mut deadline, &mut stats),
                })
                .expect("filter build");
            count_build(tr, &stats);
            back(tr, req, &problem, &filter, scratch);
        }
    }
    tr.end(root);
}

/// The hierarchical path of one request over an existing coarsening.
pub fn hier(
    tr: &mut Tracer,
    req: &Request,
    host: &Network,
    hierarchy: &SubstrateHierarchy,
    scratch: &mut EmbedScratch,
) {
    let root = tr.begin("request", req.id);
    let problem = front(tr, req, host);
    let mut deadline = Deadline::new(req.options.timeout);
    let mut stats = SearchStats::default();
    let refined = tr.leaf("hierarchy.refine", req.id, || {
        hierarchy.refine(&problem, &mut deadline, &mut stats)
    });
    tr.count("hierarchy.expanded_cells", stats.hier_expanded_cells);
    tr.count("hierarchy.full_cells", stats.hier_full_cells);
    if let Refinement::Restricted(allowed) = refined {
        let mut build_stats = SearchStats::default();
        let filter = tr
            .leaf("hierarchy.restricted_build", req.id, || {
                FilterMatrix::build_restricted(&problem, &allowed, &mut deadline, &mut build_stats)
            })
            .expect("restricted build");
        count_build(tr, &build_stats);
        back(tr, req, &problem, &filter, scratch);
    }
    tr.end(root);
}

/// How a cached filter reached a request's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// Same epoch: plain cache hit.
    Hit,
    /// Empty dirty window: the entry is re-keyed.
    Promote,
    /// Non-empty window, nothing became newly admissible: patched in place.
    Patch,
    /// Unknown window, additive window, or no entry yet: full build.
    Rebuild,
}

impl Repair {
    pub const ALL: [Repair; 4] = [Repair::Hit, Repair::Promote, Repair::Patch, Repair::Rebuild];

    pub fn name(self) -> &'static str {
        match self {
            Repair::Hit => "hit",
            Repair::Promote => "promote",
            Repair::Patch => "patch",
            Repair::Rebuild => "rebuild",
        }
    }
}

/// The benchmark's own copy of one resident request's cached filter.
#[derive(Default)]
pub struct Mirror {
    at: Option<(ModelEpoch, FilterMatrix)>,
}

/// The cached path of a resident request at `epoch`: repair the mirrored
/// filter across the registry's dirty window, then search and verify.
/// `service_built` says the service's response reported a cache miss
/// (no hit, not coalesced): the replay then builds too, whatever the
/// window, because the service's cache had no entry left to repair.
/// Returns the repair class the replay applied.
#[allow(clippy::too_many_arguments)]
pub fn warm(
    tr: &mut Tracer,
    req: &Request,
    registry: &ModelRegistry,
    host_name: &str,
    host: &Network,
    epoch: ModelEpoch,
    service_built: bool,
    mirror: &mut Mirror,
    scratch: &mut EmbedScratch,
) -> Repair {
    let root = tr.begin("request", req.id);
    let problem = front(tr, req, host);
    let cached = mirror.at.take().filter(|_| !service_built);
    let repair = match cached {
        None => Repair::Rebuild,
        Some((at, filter)) if at == epoch => {
            mirror.at = Some((epoch, filter));
            Repair::Hit
        }
        Some((at, filter)) => match registry.dirty_between(host_name, at, epoch) {
            None => Repair::Rebuild,
            Some(dirty) if dirty.is_empty() => {
                mirror.at = Some((epoch, filter));
                Repair::Promote
            }
            Some(dirty) => {
                let dirty: Vec<NodeId> = dirty.iter().map(NodeId).collect();
                let mut deadline = Deadline::unlimited();
                let mut stats = SearchStats::default();
                let (repaired, outcome) = tr.leaf("filter.patch", req.id, || {
                    let mut repaired = filter.clone();
                    let outcome = repaired.patch(&problem, &dirty, &mut deadline, &mut stats);
                    (repaired, outcome)
                });
                if matches!(outcome, Ok(PatchOutcome::Patched)) {
                    mirror.at = Some((epoch, repaired));
                    Repair::Patch
                } else {
                    Repair::Rebuild
                }
            }
        },
    };
    if repair == Repair::Rebuild {
        let mut deadline = Deadline::unlimited();
        let mut stats = SearchStats::default();
        let filter = tr
            .leaf("filter.build", req.id, || {
                FilterMatrix::build(&problem, &mut deadline, &mut stats)
            })
            .expect("filter build");
        count_build(tr, &stats);
        mirror.at = Some((epoch, filter));
    }
    let (_, filter) = mirror.at.as_ref().expect("mirror holds a filter");
    back(tr, req, &problem, filter, scratch);
    tr.end(root);
    repair
}
