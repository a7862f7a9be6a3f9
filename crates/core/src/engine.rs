//! The high-level embedding API: pick an algorithm, a search mode and a
//! timeout, get back mappings + outcome + statistics.
//!
//! [`Engine`] is the in-process form of the NETEMBED mapping service
//! (component 2 of Figure 1); the `service` crate wraps it with model
//! management, reservations and negotiation.

use crate::deadline::Deadline;
use crate::ecf::{self, SearchEnd};
use crate::filter::FilterMatrix;
use crate::hierarchy::{HierarchySpec, Refinement, SubstrateHierarchy};
use crate::lns::{self, LnsConfig};
use crate::mapping::Mapping;
use crate::order::NodeOrder;
use crate::outcome::Outcome;
use crate::parallel::{self, StealPolicy};
use crate::problem::{Problem, ProblemError};
use crate::rwb;
use crate::scratch::EmbedScratch;
use crate::sink::CollectUpTo;
use crate::stats::{BuildCharge, SearchStats};
use netgraph::{Network, NodeBitSet};
use std::time::{Duration, Instant};

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Exhaustive search with constraint filtering (§V-A).
    Ecf,
    /// Random walk with backtracking (§V-B).
    Rwb,
    /// Lazy neighborhood search (§V-C).
    Lns,
    /// ECF with the root level parallelized over the given thread count.
    ParallelEcf {
        /// Worker threads.
        threads: usize,
    },
}

impl Algorithm {
    /// Worker threads the filter build and the search may use: the
    /// requested count for [`Algorithm::ParallelEcf`], 1 otherwise.
    pub fn threads(self) -> usize {
        match self {
            Algorithm::ParallelEcf { threads } => threads,
            _ => 1,
        }
    }
}

/// How many embeddings to look for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Enumerate every feasible embedding.
    All,
    /// Stop at the first feasible embedding.
    First,
    /// Stop after `k` feasible embeddings.
    UpTo(usize),
}

impl SearchMode {
    /// The most embeddings this mode asks for; `None` for
    /// [`SearchMode::All`].
    pub fn limit(self) -> Option<usize> {
        match self {
            SearchMode::All => None,
            SearchMode::First => Some(1),
            SearchMode::UpTo(k) => Some(k),
        }
    }
}

/// Engine options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Search mode.
    pub mode: SearchMode,
    /// Wall-clock budget; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Query-node ordering (ECF/RWB only).
    pub order: NodeOrder,
    /// RNG seed (RWB only).
    pub seed: u64,
    /// LNS heuristics (LNS only).
    pub lns: LnsConfig,
    /// Work-stealing split policy (ParallelEcf only): the D/K knobs of
    /// depth-bounded subtree re-splitting. The default enables stealing;
    /// [`StealPolicy::disabled`] recovers the static root partition.
    pub steal: StealPolicy,
    /// When set, the filter-based algorithms (ECF/RWB/ParallelEcf) run
    /// hierarchically: the host is coarsened into a
    /// [`SubstrateHierarchy`], a top-down refinement prunes infeasible
    /// super-node subtrees with sound abstract constraint verdicts, and
    /// the exact filter is built only inside the surviving subtrees
    /// ([`FilterMatrix::build_restricted`]). Solution sets are identical
    /// to the flat run; on large substrates only a fraction of the
    /// `O(|VQ|·|VR|)` matrix is expanded. LNS ignores the knob (it
    /// keeps no filter state to restrict). Engine-level runs coarsen
    /// per call, inside the run's deadline clock and `elapsed`; the
    /// service layer caches the hierarchy per `(host, epoch)` and hands
    /// it to [`Engine::run_prebuilt`].
    pub hierarchy: Option<HierarchySpec>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            algorithm: Algorithm::Ecf,
            mode: SearchMode::All,
            timeout: None,
            order: NodeOrder::default(),
            seed: 0,
            lns: LnsConfig::default(),
            steal: StealPolicy::default(),
            hierarchy: None,
        }
    }
}

/// The result of one embedding run.
#[derive(Debug, Clone)]
pub struct EmbedResult {
    /// The embeddings found (order is algorithm-dependent).
    pub mappings: Vec<Mapping>,
    /// §VII-E classification of the result.
    pub outcome: Outcome,
    /// Search statistics (timings, visited nodes, evaluations).
    pub stats: SearchStats,
}

/// An embedding engine bound to one hosting network.
///
/// Entry points differ only in what the caller already holds:
/// [`Engine::embed`] takes constraint source text, [`Engine::run`] and
/// [`Engine::run_with_scratch`] take a compiled [`Problem`] and build
/// its filter, and [`Engine::run_prebuilt`] searches over a filter or
/// hierarchy the caller built. All four share one run core.
pub struct Engine<'a> {
    host: &'a Network,
}

/// What a caller already holds for [`Engine::run_prebuilt`]: a filter
/// built for the run's problem, or a coarsening of its host.
#[derive(Clone, Copy)]
pub enum Prebuilt<'f> {
    /// A filter built with [`FilterMatrix::build`] (or one of its
    /// siblings) for the *same* problem.
    Filter(&'f FilterMatrix),
    /// A hierarchy built with [`SubstrateHierarchy::build`] for the
    /// problem's host.
    Hierarchy(&'f SubstrateHierarchy),
}

impl<'f> From<&'f FilterMatrix> for Prebuilt<'f> {
    fn from(filter: &'f FilterMatrix) -> Self {
        Prebuilt::Filter(filter)
    }
}

impl<'f> From<&'f SubstrateHierarchy> for Prebuilt<'f> {
    fn from(hier: &'f SubstrateHierarchy) -> Self {
        Prebuilt::Hierarchy(hier)
    }
}

impl<'a> Engine<'a> {
    /// Create an engine for `host`.
    pub fn new(host: &'a Network) -> Self {
        Engine { host }
    }

    /// The hosting network.
    pub fn host(&self) -> &Network {
        self.host
    }

    /// Embed `query` under `constraint` (§VI-B source text).
    pub fn embed(
        &self,
        query: &Network,
        constraint: &str,
        options: &Options,
    ) -> Result<EmbedResult, ProblemError> {
        let problem = Problem::new(query, self.host, constraint)?;
        Self::run(&problem, options)
    }

    /// Embed a pre-built problem (lets callers supply separate edge and
    /// node expressions via [`Problem::with_exprs`]).
    pub fn run(problem: &Problem<'_>, options: &Options) -> Result<EmbedResult, ProblemError> {
        Self::run_with_scratch(problem, options, &mut EmbedScratch::new())
    }

    /// [`Engine::run`] with a caller-held [`EmbedScratch`]: repeated
    /// runs reuse the DFS arenas and the worker pool. The filter build
    /// (and, with [`Options::hierarchy`], the coarsening) runs under this
    /// call; batch callers that also want to amortize those across runs
    /// use [`Engine::run_prebuilt`].
    pub fn run_with_scratch(
        problem: &Problem<'_>,
        options: &Options,
        scratch: &mut EmbedScratch,
    ) -> Result<EmbedResult, ProblemError> {
        Self::execute(problem, None, options, scratch)
    }

    /// Run over what the caller already holds — the batch primitive:
    /// one filter build (or one coarsening) plus one scratch serve any
    /// number of runs with different modes, orders, seeds or thread
    /// counts ([`Algorithm::Lns`] ignores it). Over a
    /// [`Prebuilt::Filter`] the returned stats cover only this run;
    /// build-phase counters live with whoever built the filter, except
    /// `filter_cells`, which is re-reported per run so result tables
    /// stay comparable. Over a [`Prebuilt::Hierarchy`] refinement, the
    /// restricted filter build and the exact search all run under this
    /// call's deadline, and a sound coarse-level infeasibility verdict
    /// returns [`Outcome::Complete`] with no mappings — definitively
    /// infeasible without touching the full filter matrix.
    pub fn run_prebuilt<'f>(
        problem: &Problem<'_>,
        prebuilt: impl Into<Prebuilt<'f>>,
        options: &Options,
        scratch: &mut EmbedScratch,
    ) -> Result<EmbedResult, ProblemError> {
        Self::execute(problem, Some(prebuilt.into()), options, scratch)
    }

    /// The one run core: deadline, stats and clock; then the filter
    /// stage the source calls for; then the search into one sink sized
    /// by the mode; then finalization. `source = None` builds
    /// everything (coarsening first when [`Options::hierarchy`] is set).
    fn execute(
        problem: &Problem<'_>,
        source: Option<Prebuilt<'_>>,
        options: &Options,
        scratch: &mut EmbedScratch,
    ) -> Result<EmbedResult, ProblemError> {
        let mut deadline = Deadline::new(options.timeout);
        let mut stats = SearchStats::default();
        let start = Instant::now();
        let mut sink = CollectUpTo::new(options.mode.limit().unwrap_or(usize::MAX));
        let end = match (options.algorithm, source) {
            // LNS keeps no filter state: it ignores whatever the caller
            // holds.
            (Algorithm::Lns, _) => lns::search(
                problem,
                &options.lns,
                &mut deadline,
                &mut sink,
                &mut stats,
                &mut scratch.search,
            )?,
            (_, Some(Prebuilt::Filter(filter))) => Self::search(
                problem,
                filter,
                options,
                &mut deadline,
                &mut sink,
                &mut stats,
                scratch,
            ),
            (_, Some(Prebuilt::Hierarchy(hier))) => Self::refine_and_search(
                problem,
                hier,
                options,
                &mut deadline,
                &mut sink,
                &mut stats,
                scratch,
            )?,
            (_, None) => match options.hierarchy {
                // Engine-level hierarchical runs coarsen here, under this
                // run's clock; the service layer amortizes the coarsening
                // through its hierarchy cache.
                Some(spec) => Self::refine_and_search(
                    problem,
                    &SubstrateHierarchy::build(problem.host, &spec),
                    options,
                    &mut deadline,
                    &mut sink,
                    &mut stats,
                    scratch,
                )?,
                None => Self::build_and_search(
                    problem,
                    None,
                    options,
                    &mut deadline,
                    &mut sink,
                    &mut stats,
                    scratch,
                )?,
            },
        };
        stats.elapsed = start.elapsed();
        // Sequential runs are single-stream: their CPU time is their
        // wall time. Parallel runs keep the build work + worker sum.
        if !matches!(options.algorithm, Algorithm::ParallelEcf { .. }) {
            stats.cpu_time = stats.elapsed;
        }
        let outcome = Outcome::classify(end, sink.solutions.clone());
        Ok(EmbedResult {
            mappings: sink.solutions,
            outcome,
            stats,
        })
    }

    /// Top-down refinement, then the restricted filter build and the
    /// exact search inside the surviving subtrees.
    fn refine_and_search(
        problem: &Problem<'_>,
        hier: &SubstrateHierarchy,
        options: &Options,
        deadline: &mut Deadline,
        sink: &mut CollectUpTo,
        stats: &mut SearchStats,
        scratch: &mut EmbedScratch,
    ) -> Result<SearchEnd, ProblemError> {
        match hier.refine(problem, deadline, stats) {
            Refinement::TimedOut => {
                stats.timed_out = true;
                Ok(SearchEnd::Timeout)
            }
            // The refinement's empty-domain prune is sound: no
            // concretization of a pruned super-node holds a solution,
            // so an empty result here is exhaustive, not a give-up.
            Refinement::Infeasible => Ok(SearchEnd::Exhausted),
            Refinement::Restricted(allowed) => Self::build_and_search(
                problem,
                Some(&allowed),
                options,
                deadline,
                sink,
                stats,
                scratch,
            ),
        }
    }

    /// The one filter-build stage: the algorithm's thread count on the
    /// scratch's pool (inline at one thread), optionally restricted to
    /// `allowed`, charged to the run through [`BuildCharge`] — build
    /// evals and build work into the stats, build-phase spawns out of
    /// `pool_reuse`.
    fn build_and_search(
        problem: &Problem<'_>,
        allowed: Option<&[NodeBitSet]>,
        options: &Options,
        deadline: &mut Deadline,
        sink: &mut CollectUpTo,
        stats: &mut SearchStats,
        scratch: &mut EmbedScratch,
    ) -> Result<SearchEnd, ProblemError> {
        let mut charge = BuildCharge::begin(scratch.parallel.pool().spawned_total());
        let mut build_stats = SearchStats::default();
        let filter = FilterMatrix::build_impl(
            problem,
            options.algorithm.threads(),
            deadline,
            &mut build_stats,
            Some(scratch.parallel.pool_mut()),
            allowed,
        )?;
        charge.finish_build(scratch.parallel.pool().spawned_total());
        let end = Self::search(problem, &filter, options, deadline, sink, stats, scratch);
        charge.charge_build(stats, &build_stats);
        charge.settle_pool_reuse(stats);
        Ok(end)
    }

    /// The search stage for the filter-based algorithms.
    fn search(
        problem: &Problem<'_>,
        filter: &FilterMatrix,
        options: &Options,
        deadline: &mut Deadline,
        sink: &mut CollectUpTo,
        stats: &mut SearchStats,
        scratch: &mut EmbedScratch,
    ) -> SearchEnd {
        match options.algorithm {
            Algorithm::Ecf => ecf::search(
                problem,
                filter,
                options.order,
                deadline,
                sink,
                stats,
                &mut scratch.search,
            ),
            Algorithm::Rwb => rwb::search(
                problem,
                filter,
                options.seed,
                options.order,
                deadline,
                sink,
                stats,
                &mut scratch.search,
            ),
            Algorithm::ParallelEcf { threads } => {
                let (found, end) = parallel::search(
                    problem,
                    filter,
                    threads,
                    options.mode.limit(),
                    options.order,
                    deadline,
                    stats,
                    &mut scratch.parallel,
                    options.steal,
                );
                sink.solutions = found;
                end
            }
            Algorithm::Lns => unreachable!("LNS runs without a filter"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Direction, NodeId};

    fn host() -> Network {
        let mut h = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..5).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                let e = h.add_edge(ids[i], ids[j]);
                h.set_edge_attr(e, "d", ((i + j) * 10) as f64);
            }
        }
        h
    }

    fn edge_query() -> Network {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        q
    }

    #[test]
    fn all_algorithms_agree_on_feasibility_and_count() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        let constraint = "rEdge.d <= 30.0";

        let ecf = engine.embed(&q, constraint, &Options::default()).unwrap();
        let lns = engine
            .embed(
                &q,
                constraint,
                &Options {
                    algorithm: Algorithm::Lns,
                    ..Default::default()
                },
            )
            .unwrap();
        let par = engine
            .embed(
                &q,
                constraint,
                &Options {
                    algorithm: Algorithm::ParallelEcf { threads: 3 },
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(ecf.mappings.len(), lns.mappings.len());
        assert_eq!(ecf.mappings.len(), par.mappings.len());
        assert!(matches!(ecf.outcome, Outcome::Complete(_)));
    }

    #[test]
    fn first_mode_returns_one() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        for algorithm in [
            Algorithm::Ecf,
            Algorithm::Rwb,
            Algorithm::Lns,
            Algorithm::ParallelEcf { threads: 2 },
        ] {
            let r = engine
                .embed(
                    &q,
                    "true",
                    &Options {
                        algorithm,
                        mode: SearchMode::First,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(r.mappings.len(), 1, "algorithm {algorithm:?}");
            assert!(matches!(r.outcome, Outcome::Partial(_)));
        }
    }

    #[test]
    fn up_to_mode_caps_solutions() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        let r = engine
            .embed(
                &q,
                "true",
                &Options {
                    mode: SearchMode::UpTo(3),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.mappings.len(), 3);
    }

    #[test]
    fn cold_parallel_run_reports_zero_pool_reuse() {
        // Regression: a multi-edge query makes the filter build fan out
        // first, spawning the pool threads *before* the search stage —
        // those threads are new, not warm, and must not be counted as
        // reuse on the very first run.
        let h = host();
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        let c = q.add_node("c");
        q.add_edge(a, b);
        q.add_edge(b, c);
        q.add_edge(a, c);
        let problem = Problem::new(&q, &h, "true").unwrap();
        let opts = Options {
            algorithm: Algorithm::ParallelEcf { threads: 4 },
            ..Options::default()
        };
        let mut scratch = EmbedScratch::new();
        let cold = Engine::run_with_scratch(&problem, &opts, &mut scratch).unwrap();
        assert_eq!(cold.stats.pool_reuse, 0, "cold run must report no reuse");
        let warm = Engine::run_with_scratch(&problem, &opts, &mut scratch).unwrap();
        assert!(warm.stats.pool_reuse > 0, "second run must reuse the pool");
        assert_eq!(cold.mappings.len(), warm.mappings.len());
    }

    #[test]
    fn partially_warm_pool_keeps_credit_for_warm_threads() {
        // A 2-thread run leaves 2 parked threads; a following 4-thread
        // run on a 2-edge query builds with only 2 chunks (spawns
        // nothing) and then grows the pool in the *search* stage. The
        // two genuinely warm threads must stay credited — only
        // build-phase spawns are deducted, never search-stage ones.
        let h = host();
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        let c = q.add_node("c");
        q.add_edge(a, b);
        q.add_edge(b, c);
        let problem = Problem::new(&q, &h, "true").unwrap();
        let mut scratch = EmbedScratch::new();
        Engine::run_with_scratch(
            &problem,
            &Options {
                algorithm: Algorithm::ParallelEcf { threads: 2 },
                ..Options::default()
            },
            &mut scratch,
        )
        .unwrap();
        assert_eq!(scratch.parallel.pool().thread_count(), 2);
        let grown = Engine::run_with_scratch(
            &problem,
            &Options {
                algorithm: Algorithm::ParallelEcf { threads: 4 },
                ..Options::default()
            },
            &mut scratch,
        )
        .unwrap();
        assert_eq!(
            grown.stats.pool_reuse, 2,
            "the two pre-existing threads served this run"
        );
        assert_eq!(scratch.parallel.pool().thread_count(), 4);
    }

    #[test]
    fn infeasible_is_complete_empty() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        let r = engine
            .embed(&q, "rEdge.d > 1e9", &Options::default())
            .unwrap();
        assert!(r.outcome.definitively_infeasible());
        assert!(r.mappings.is_empty());
    }

    #[test]
    fn parallel_cpu_time_charges_the_filter_build() {
        // An infeasible instance: the build scans every host edge, then
        // the empty root level ends the search before any worker runs.
        // The build work must still show in `cpu_time`, the way the
        // service's cached-run path charges it.
        let mut h = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..40).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..40 {
            for j in (i + 1)..40 {
                let e = h.add_edge(ids[i], ids[j]);
                h.set_edge_attr(e, "d", (i + j) as f64);
            }
        }
        let mut q = Network::new(Direction::Undirected);
        let qs: Vec<NodeId> = (0..3).map(|i| q.add_node(format!("q{i}"))).collect();
        for i in 0..3 {
            q.add_edge(qs[i], qs[(i + 1) % 3]);
        }
        let r = Engine::new(&h)
            .embed(
                &q,
                "rEdge.d > 1e9",
                &Options {
                    algorithm: Algorithm::ParallelEcf { threads: 2 },
                    ..Options::default()
                },
            )
            .unwrap();
        assert!(r.outcome.definitively_infeasible());
        assert!(r.stats.constraint_evals > 0);
        assert!(r.stats.cpu_time > Duration::ZERO, "build work uncharged");
        assert!(r.stats.cpu_time <= r.stats.elapsed);
    }

    #[test]
    fn parse_error_propagates() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        assert!(matches!(
            engine.embed(&q, "1 +", &Options::default()),
            Err(ProblemError::Parse(_))
        ));
    }

    #[test]
    fn timeout_classifies_inconclusive_or_partial() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        let r = engine
            .embed(
                &q,
                "true",
                &Options {
                    timeout: Some(Duration::ZERO),
                    ..Default::default()
                },
            )
            .unwrap();
        // With a zero budget the filter build aborts immediately.
        assert!(matches!(r.outcome, Outcome::Inconclusive));
        assert!(r.stats.timed_out);
    }
}
