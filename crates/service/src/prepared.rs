//! Prepared queries: the long-lived request handle of the service API.
//!
//! §III describes applications that query the mapping service
//! *repeatedly* — negotiation loops, scheduler sweeps, periodic
//! re-checks under monitoring churn. A [`PreparedQuery`] front-loads
//! everything that is per-*request* rather than per-*run*:
//!
//! * the constraint is parsed and type-linted **once**, at
//!   [`NetEmbedService::prepare`] (a malformed constraint fails there,
//!   as [`ServiceError::BadConstraint`], never mid-search);
//! * each run binds the parsed expression to the *current* registry
//!   snapshot via [`netembed::Problem::from_parsed`] — one compiled
//!   problem serves both the search and the mapping re-verification;
//! * filter builds are memoized in the service's shared
//!   [`FilterCache`] under `(host name, model epoch, query
//!   fingerprint, constraint)` — repeated runs (or repeated `submit`s
//!   of the same request, which are thin wrappers over this type)
//!   rebuild nothing until the model's epoch moves, and an epoch bump
//!   first tries to repair the superseded entry forward;
//! * the handle leases a warm [`netembed::EmbedScratch`] — DFS arenas
//!   *and* the persistent parallel worker pool — from the service, and
//!   returns it on drop, so back-to-back prepared runs are
//!   allocation-free and spawn-free
//!   ([`SearchStats::pool_reuse`](netembed::SearchStats) shows it).
//!
//! Every serving path obtains its filter or coarsening through one
//! `Acquire` stage, built once per batch (here), per group
//! ([`crate::planner`]) or per start ([`crate::schedule`]): it runs the
//! epoch repair, owns the pin, and stamps the repair bits.

use crate::admission::ShedReason;
use crate::cache::{Fetch, FilterCache, FilterFetch, FilterKey, HierarchyKey, PatchDecision};
use crate::{NetEmbedService, QueryResponse, ServiceError};
use cexpr::Expr;
use netembed::{
    Algorithm, BuildCharge, Deadline, EmbedResult, EmbedScratch, Engine, FilterMatrix, Options,
    Outcome, PatchOutcome, Problem, SearchStats, SubstrateHierarchy,
};
use netgraph::{Network, NodeId};
use std::sync::Arc;
use std::time::Duration;

/// A compiled, cache-connected `(host, query, constraint)` request.
/// Created by [`NetEmbedService::prepare`]; run any number of times
/// with [`PreparedQuery::run`] / [`PreparedQuery::run_batch`].
pub struct PreparedQuery<'svc> {
    svc: &'svc NetEmbedService,
    host: String,
    query: Network,
    constraint: String,
    query_hash: u128,
    expr: Expr,
    /// Leased from the service at prepare, returned on drop. `Some`
    /// for the whole life of the handle.
    scratch: Option<EmbedScratch>,
}

impl<'svc> PreparedQuery<'svc> {
    pub(crate) fn new(
        svc: &'svc NetEmbedService,
        host: String,
        query: Network,
        constraint: String,
        expr: Expr,
    ) -> Self {
        let query_hash = crate::cache::network_fingerprint(&query);
        let scratch = Some(svc.checkout_scratch());
        PreparedQuery {
            svc,
            host,
            query,
            constraint,
            query_hash,
            expr,
            scratch,
        }
    }

    /// The registry name this query targets.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The query network.
    pub fn query(&self) -> &Network {
        &self.query
    }

    /// The constraint source text.
    pub fn constraint(&self) -> &str {
        &self.constraint
    }

    /// Swap in a new constraint, keeping the query (and its
    /// fingerprint), the scratch lease and the cache connection. This
    /// is the §VI-B relaxation step made cheap: a negotiation loop
    /// re-constrains one handle per level instead of re-preparing —
    /// no query clone, no re-fingerprint, no scratch churn. The new
    /// constraint is parsed and type-linted here, exactly like
    /// [`NetEmbedService::prepare`].
    pub fn reconstrain(&mut self, constraint: &str) -> Result<(), ServiceError> {
        self.expr = crate::parse_and_lint(constraint)?;
        self.constraint = constraint.to_string();
        Ok(())
    }

    /// Run once under `options` against the current model snapshot.
    pub fn run(&mut self, options: &Options) -> Result<QueryResponse, ServiceError> {
        let mut out = self.run_batch(std::slice::from_ref(options))?;
        Ok(out.pop().expect("one response per run"))
    }

    /// Run a whole batch against **one** model snapshot: every run sees
    /// the same epoch (a concurrent registry update affects the next
    /// batch, not a run in the middle of this one), so one filter build
    /// — or one cache hit — serves every filter-based run. The build is
    /// charged to the run that triggered it; a build its run's deadline
    /// cuts short is discarded, never cached, and the next
    /// filter-needing run retries under its own budget.
    pub fn run_batch(&mut self, runs: &[Options]) -> Result<Vec<QueryResponse>, ServiceError> {
        let (host, epoch) = self
            .svc
            .registry()
            .get(&self.host)
            .ok_or_else(|| ServiceError::UnknownHost(self.host.clone()))?;
        // Staleness gate (crate docs, "Staleness and degradation"): the
        // direct path has no admission queue, so the gate is the whole
        // check — shed through the service's one shed rule, exactly
        // like a planner submit would.
        if self.svc.stale_shed() {
            let shed = self.svc.shed(ShedReason::StaleModel, Duration::ZERO)?;
            return Ok(vec![shed; runs.len()]);
        }
        let problem = Problem::from_parsed(&self.query, &host, &self.expr)?;
        let key = FilterKey {
            host: self.host.clone(),
            epoch,
            query_hash: self.query_hash,
            constraint: self.constraint.clone(),
        };
        // One acquisition stage for the whole batch: one epoch repair,
        // one filter pin (a long batch keeps its filter even if
        // concurrent queries evict the shared entry).
        let mut stage = Acquire::service(self.svc, key, &problem);
        let scratch = self.scratch.as_mut().expect("scratch leased until drop");
        let mut responses = Vec::with_capacity(runs.len());
        for options in runs {
            responses.push(match stage.run(&problem, options, scratch, None) {
                // Stamp serve-time staleness: the epoch this batch is
                // bound to may be lagging a degraded feed.
                Ok(result) => QueryResponse::served(result, self.svc.current_staleness(epoch)),
                // Direct-path dedup shedding resolves through the same
                // shed rule as every other shed.
                Err(ServiceError::Overloaded(reason)) => self.svc.shed(reason, Duration::ZERO)?,
                Err(e) => return Err(e),
            });
        }
        Ok(responses)
    }
}

impl Drop for PreparedQuery<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.svc.checkin_scratch(scratch);
        }
    }
}

impl std::fmt::Debug for PreparedQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("host", &self.host)
            .field("constraint", &self.constraint)
            .field("query_nodes", &self.query.node_count())
            .finish()
    }
}

/// The acquisition stage: the one path from a compiled problem to an
/// engine run through the service's caches. It is built once per
/// [`PreparedQuery`] batch, planner group or scheduler start, and it
///
/// 1. repairs the epoch window once, at construction
///    ([`Acquire::service`]);
/// 2. resolves the filter of each run through the cache's in-flight
///    dedup table ([`FilterCache::fetch_or_build_watch`]) and pins the
///    first one obtained, so later runs reuse that exact `Arc` even if
///    the shared LRU evicts the entry meanwhile;
/// 3. resolves the coarsening of each hierarchical run through the
///    hierarchy cache the same way ([`fetch_hierarchy`]);
/// 4. re-verifies every mapping against the compiled problem (§III's
///    safety net) and stamps the repair bits (`patches` /
///    `patch_rebuilds`) on the first result it hands back, so summing
///    responses counts each repair once.
///
/// A [`Acquire::bare`] stage (the standalone
/// [`crate::schedule::Scheduler`]) has no registry: it skips repair,
/// coarsens per call and injects no faults.
pub(crate) struct Acquire<'a> {
    cache: &'a FilterCache,
    /// The hierarchy cache, registry and fault injector; `None` for a
    /// bare stage.
    svc: Option<&'a NetEmbedService>,
    key: FilterKey,
    pinned: Option<Arc<FilterMatrix>>,
    /// Repair bits not yet credited to a result.
    patches: u64,
    patch_rebuilds: u64,
}

impl<'a> Acquire<'a> {
    /// A service stage for `key`, whose epoch repair runs here against
    /// `problem` (compiled at `key.epoch`). The dirty window between
    /// the newest superseded same-identity entry and `key` decides
    /// ([`crate::cache`], "Epoch repair"):
    ///
    /// * unknowable (broken delta chain, plain `update`) → skip;
    /// * provably empty → promote the entry in place;
    /// * otherwise → clone the superseded matrix and repair it with
    ///   [`FilterMatrix::patch`]; a removal-only window re-keys the
    ///   repaired clone, while a window that *added* a feasible
    ///   candidate falls back to a full rebuild.
    ///
    /// Routing every non-empty window through `patch` is what makes
    /// epoch reuse sound for additive mutations: a touched-host check
    /// could not see a dirty node becoming newly admissible outside the
    /// cached candidate set.
    pub(crate) fn service(svc: &'a NetEmbedService, key: FilterKey, problem: &Problem<'_>) -> Self {
        let (mut patches, mut patch_rebuilds) = (0, 0);
        svc.cache().try_patch(&key, |old, filter| {
            let Some(dirty) = svc.registry().dirty_between(&key.host, old, key.epoch) else {
                return PatchDecision::Skip;
            };
            if dirty.is_empty() {
                return PatchDecision::Promote;
            }
            let ids: Vec<NodeId> = dirty.iter().map(NodeId).collect();
            let mut repaired = filter.clone();
            let mut stats = SearchStats::default();
            match repaired.patch(problem, &ids, &mut Deadline::unlimited(), &mut stats) {
                Ok(PatchOutcome::Patched) => {
                    debug_assert!(!repaired.truncated(), "caching a truncated patch");
                    patches = 1;
                    PatchDecision::Replace(Arc::new(repaired))
                }
                Ok(PatchOutcome::NeedsRebuild) | Err(_) => {
                    patch_rebuilds = 1;
                    PatchDecision::Rebuild
                }
            }
        });
        Acquire {
            svc: Some(svc),
            patches,
            patch_rebuilds,
            ..Self::bare(svc.cache(), key)
        }
    }

    /// A stage over a private cache with no registry behind it.
    pub(crate) fn bare(cache: &'a FilterCache, key: FilterKey) -> Self {
        Acquire {
            cache,
            svc: None,
            key,
            pinned: None,
            patches: 0,
            patch_rebuilds: 0,
        }
    }

    /// True once a filter is pinned: the next filter-based run reuses
    /// it without touching the shared cache.
    pub(crate) fn is_pinned(&self) -> bool {
        self.pinned.is_some()
    }

    /// One engine run: acquire (pin, cache or build), search, verify,
    /// stamp. See [`Acquire::search`] for how each acquisition outcome
    /// is charged.
    pub(crate) fn run(
        &mut self,
        problem: &Problem<'_>,
        options: &Options,
        scratch: &mut EmbedScratch,
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Result<EmbedResult, ServiceError> {
        let mut result = self.search(problem, options, scratch, cancel)?;
        for m in &result.mappings {
            netembed::check_mapping(problem, m).map_err(ServiceError::VerificationFailed)?;
        }
        result.stats.patches += std::mem::take(&mut self.patches);
        result.stats.patch_rebuilds += std::mem::take(&mut self.patch_rebuilds);
        Ok(result)
    }

    /// Pinned/hit → reuse the memoized matrix (`stats.filter_cache_hits
    /// = 1`, zero build evals). A *designated builder* builds under this
    /// run's budget (parallel builds go through the scratch's
    /// persistent pool), charges the build to its own stats and timeout
    /// via the shared [`BuildCharge`] contract, and memoizes the matrix
    /// unless the deadline truncated it (a truncated filter is a
    /// function of the budget, not the key — the ticket is abandoned
    /// and the next run rebuilds under its own budget). A run that
    /// found the key *already being built* blocks — at most for its
    /// own budget — and reuses the winner's matrix, reporting
    /// `dedup_waits = 1` alongside the hit; a wait the budget cut short
    /// reports a plain timeout.
    ///
    /// Overload/cancellation hooks: a dedup wait that hits the cache's
    /// waiter cap returns [`ServiceError::Overloaded`] (the *caller*
    /// resolves it through the service's shed rule); `cancel` is the planner
    /// dispatcher's probe for "the requester dropped its ticket", which
    /// aborts dedup waits with a discarded Inconclusive. The service's
    /// fault injector may force a designated build to abandon (chaos
    /// testing): observably identical to a deadline-truncated build.
    fn search(
        &mut self,
        problem: &Problem<'_>,
        options: &Options,
        scratch: &mut EmbedScratch,
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Result<EmbedResult, ServiceError> {
        if matches!(options.algorithm, Algorithm::Lns) {
            // LNS keeps no filter state (that is its point, §V-C); it
            // only shares the scratch.
            return Ok(Engine::run_with_scratch(problem, options, scratch)?);
        }
        if let Some(spec) = options.hierarchy {
            // Hierarchical runs bypass the filter cache on purpose:
            // their restricted matrix is a product of this run's
            // refinement, and memoizing it under the flat key would let
            // a later flat run serve restricted cells — or a
            // hierarchical run hit a full matrix and skip the pruning it
            // asked for. The shared artifact here is the coarsening.
            let (hier, hit) = match self.svc {
                Some(svc) => {
                    let hkey = HierarchyKey {
                        host: self.key.host.clone(),
                        epoch: self.key.epoch,
                        spec,
                    };
                    match fetch_hierarchy(svc, &hkey, problem.host, cancel) {
                        Some(fetched) => fetched,
                        None => return Ok(timed_out(Duration::ZERO)),
                    }
                }
                None => (
                    Arc::new(SubstrateHierarchy::build(problem.host, &spec)),
                    false,
                ),
            };
            let mut result = Engine::run_prebuilt(problem, &*hier, options, scratch)?;
            result.stats.hierarchy_cache_hits = u64::from(hit);
            return Ok(result);
        }
        if let Some(filter) = self.pinned.clone() {
            let mut result = Engine::run_prebuilt(problem, &*filter, options, scratch)?;
            result.stats.filter_cache_hits += 1;
            return Ok(result);
        }
        let mut charge = BuildCharge::begin(scratch.parallel.pool().spawned_total());
        match self
            .cache
            .fetch_or_build_watch(&self.key, options.timeout, cancel)
        {
            FilterFetch::Hit(filter) => {
                self.pinned = Some(filter.clone());
                let mut result = Engine::run_prebuilt(problem, &*filter, options, scratch)?;
                result.stats.filter_cache_hits += 1;
                Ok(result)
            }
            FilterFetch::Waited(filter) => {
                // Someone else built this key while we blocked: a cache
                // hit delivered late. The wait consumed real wall time
                // on this run's budget (but no CPU), so the search runs
                // on the remainder and the wait is added to `elapsed`.
                self.pinned = Some(filter.clone());
                charge.finish_build(scratch.parallel.pool().spawned_total());
                let run_options = Options {
                    timeout: charge.remaining(options.timeout),
                    ..options.clone()
                };
                let mut result = Engine::run_prebuilt(problem, &*filter, &run_options, scratch)?;
                result.stats.filter_cache_hits += 1;
                result.stats.dedup_waits += 1;
                result.stats.elapsed += charge.spent();
                Ok(result)
            }
            FilterFetch::WaitExpired => {
                // The whole budget went into waiting on a build that did
                // not finish in time — the same observable outcome as a
                // deadline-truncated own build. No `dedup_waits`: like
                // the cache's counter, it only marks waits that actually
                // delivered a filter.
                charge.finish_build(scratch.parallel.pool().spawned_total());
                Ok(timed_out(charge.spent()))
            }
            FilterFetch::Overloaded => Err(ServiceError::Overloaded(ShedReason::DedupWaitersFull)),
            // The requester dropped its ticket while this thread waited
            // on its behalf; the result is discarded at delivery.
            FilterFetch::Cancelled => Ok(timed_out(Duration::ZERO)),
            FilterFetch::MustBuild(ticket) => {
                // Chaos injection: abandon this build as if its deadline
                // had truncated it — waiters wake and one takes over;
                // the "builder" reports a timeout.
                if self.svc.is_some_and(|s| s.faults().should_truncate_build()) {
                    ticket.abandon();
                    charge.finish_build(scratch.parallel.pool().spawned_total());
                    return Ok(timed_out(charge.spent()));
                }
                // A takeover builder (its predecessor's build was
                // abandoned mid-wait) has already burned part of its
                // budget blocking: `remaining_now` keeps the deadline
                // honest, and the build-start mark keeps the blocked
                // time out of `cpu_time`.
                charge.mark_build_start();
                let mut deadline = Deadline::new(charge.remaining_now(options.timeout));
                let mut build_stats = SearchStats::default();
                // A `?` here drops the ticket, which abandons the key so
                // a waiter can take over — builders never strand
                // waiters.
                let filter = Arc::new(FilterMatrix::build_par_pooled(
                    problem,
                    options.algorithm.threads(),
                    &mut deadline,
                    &mut build_stats,
                    scratch.parallel.pool_mut(),
                )?);
                charge.finish_build(scratch.parallel.pool().spawned_total());
                if filter.truncated() {
                    ticket.abandon();
                } else {
                    ticket.complete(filter.clone());
                    self.pinned = Some(filter.clone());
                }
                // The builder's search runs on whatever budget the build
                // left over; later cache hitters get their full timeout.
                let run_options = Options {
                    timeout: charge.remaining(options.timeout),
                    ..options.clone()
                };
                let mut result = Engine::run_prebuilt(problem, &*filter, &run_options, scratch)?;
                charge.charge_build(&mut result.stats, &build_stats);
                charge.settle_pool_reuse(&mut result.stats);
                Ok(result)
            }
        }
    }
}

/// Resolve the coarsening of `key` (built from `host`) through the
/// service's hierarchy cache: repair a superseded coarsening across a
/// tracked dirty window (re-keyed as is when the window is empty,
/// [`SubstrateHierarchy::patch`]ed when it only changed attributes,
/// rebuilt when it changed topology), then take the memo, share an
/// in-flight build, or coarsen as the designated builder. Waits carry
/// no budget, because coarsening is not charged to a request's budget,
/// but they honour `cancel`. Returns the hierarchy and whether this
/// call skipped construction, or `None` when the probe fired.
pub(crate) fn fetch_hierarchy(
    svc: &NetEmbedService,
    key: &HierarchyKey,
    host: &Network,
    cancel: Option<&dyn Fn() -> bool>,
) -> Option<(Arc<SubstrateHierarchy>, bool)> {
    let cache = svc.hierarchy_cache();
    cache.try_patch(key, |old, hier| {
        match svc.registry().dirty_between(&key.host, old, key.epoch) {
            Some(dirty) if dirty.is_empty() => PatchDecision::Promote,
            Some(dirty) => {
                let dirty: Vec<NodeId> = dirty.iter().map(NodeId).collect();
                match hier.patch(host, &dirty) {
                    Some(patched) => PatchDecision::Replace(Arc::new(patched)),
                    None => PatchDecision::Rebuild,
                }
            }
            None => PatchDecision::Skip,
        }
    });
    match cache.fetch_or_build_watch(key, None, cancel) {
        Fetch::Hit(hier) | Fetch::Waited(hier) => Some((hier, true)),
        Fetch::MustBuild(ticket) => {
            let hier = Arc::new(SubstrateHierarchy::build(host, &key.spec));
            ticket.complete(hier.clone());
            Some((hier, false))
        }
        Fetch::Cancelled => None,
        Fetch::WaitExpired | Fetch::Overloaded => {
            unreachable!("hierarchy waits have no budget and no waiter cap")
        }
    }
}

/// The one timed-out `Inconclusive` constructor, for every shed,
/// cancel and budget-exhausted result: zero search work, with `elapsed`
/// reporting the time the request spent waiting — observably the
/// outcome admission predicted (the request's budget would have died
/// waiting anyway).
pub(crate) fn timed_out(elapsed: Duration) -> EmbedResult {
    EmbedResult {
        mappings: Vec::new(),
        outcome: Outcome::Inconclusive,
        stats: SearchStats {
            timed_out: true,
            elapsed,
            ..SearchStats::default()
        },
    }
}
