//! Embedding + scheduling — the paper's second "future work" item (§VIII):
//! *"the embedding problem must be tightly integrated with the scheduling
//! problem — to find a window of time (or the closest window of time) in
//! which some feasible embedding is available"*, motivated by the SNBENCH
//! shared sensor-network infrastructure.
//!
//! Time is modelled in abstract ticks. A [`Scheduler`] keeps a calendar of
//! committed, time-bounded allocations, each deducting capacity attributes
//! from host nodes for its lifetime. `find_window` sweeps the candidate
//! start times (now plus every moment the resource picture changes — i.e.
//! the end of each committed allocation), reconstructs the residual-
//! capacity model at that time, and runs the embedding engine until a
//! feasible window is found.
//!
//! The sweep is session-aware: the scheduler owns a persistent
//! [`netembed::EmbedScratch`] (DFS arenas + worker pool, reused across
//! every start probed and every `find_window` call) and a private
//! [`FilterCache`]. Each candidate start's residual model is identified
//! by the *set of allocations active at that tick* — allocation ids are
//! never reused, so the set fingerprints the model exactly — and the
//! built filter is memoized under it. Re-sweeping an unchanged calendar
//! (the common "ask again for the next job" pattern) rebuilds no
//! filter; committing or cancelling an allocation changes the active
//! sets and thus transparently invalidates exactly the affected
//! windows.

use crate::cache::{network_fingerprint, FilterCache, FilterKey};
use crate::prepared::Acquire;
use crate::registry::ModelEpoch;
use crate::reservation::{deduct, demand_terms, shift};
use netembed::{EmbedScratch, Mapping, Options, Problem, ProblemError, SearchMode};
use netgraph::{Network, NodeId};
use std::fmt;

/// Abstract time tick.
pub type Tick = u64;

/// A committed, time-bounded allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Allocation id.
    pub id: u64,
    /// First tick the resources are held.
    pub start: Tick,
    /// First tick after release (half-open interval `[start, end)`).
    pub end: Tick,
    /// Per-host-node capacity deductions `(node, attr, amount)`.
    pub deductions: Vec<(NodeId, String, f64)>,
}

/// Scheduling errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Engine rejected the query.
    Problem(String),
    /// The requested duration is zero.
    ZeroDuration,
    /// No feasible window within the horizon.
    NoWindow {
        /// The horizon searched up to.
        horizon: Tick,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Problem(e) => write!(f, "{e}"),
            ScheduleError::ZeroDuration => write!(f, "requested duration is zero"),
            ScheduleError::NoWindow { horizon } => {
                write!(f, "no feasible window up to tick {horizon}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<ProblemError> for ScheduleError {
    fn from(e: ProblemError) -> Self {
        ScheduleError::Problem(e.to_string())
    }
}

/// A granted window: when to start, and the embedding that fits there.
#[derive(Debug, Clone)]
pub struct ScheduledEmbedding {
    /// Allocation id in the calendar.
    pub id: u64,
    /// Start tick of the window.
    pub start: Tick,
    /// End tick (exclusive).
    pub end: Tick,
    /// The node mapping valid in that window.
    pub mapping: Mapping,
}

/// The embedding-aware scheduler.
pub struct Scheduler {
    /// Base (unloaded) hosting network.
    base: Network,
    /// Capacity attributes managed over time (e.g. `["cpu"]`).
    capacities: Vec<String>,
    calendar: Vec<Allocation>,
    next_id: u64,
    /// Memoized filters per residual model (see module docs).
    cache: FilterCache,
    /// Persistent search arenas + worker pool for the sweep.
    scratch: EmbedScratch,
}

impl Scheduler {
    /// A scheduler over `base` managing the listed capacity attributes,
    /// with the default filter-cache capacity
    /// ([`crate::cache::DEFAULT_CAPACITY`] residual models).
    pub fn new(base: Network, capacities: &[&str]) -> Self {
        Scheduler {
            base,
            capacities: capacities.iter().map(|s| s.to_string()).collect(),
            calendar: Vec::new(),
            next_id: 1,
            cache: FilterCache::new(),
            scratch: EmbedScratch::new(),
        }
    }

    /// The scheduler's filter cache (hit/miss counters for
    /// observability and tests).
    pub fn cache(&self) -> &FilterCache {
        &self.cache
    }

    /// Cache namespace for the residual model at tick `t`: the set of
    /// allocations active then. Ids are monotonic and never reused, and
    /// each id's deductions are immutable, so equal sets ⇒ identical
    /// residual models.
    fn residual_namespace(&self, t: Tick) -> String {
        let mut active: Vec<u64> = self
            .calendar
            .iter()
            .filter(|a| a.start <= t && t < a.end)
            .map(|a| a.id)
            .collect();
        active.sort_unstable();
        // The id list itself is the namespace — collision-free by
        // construction (and short: it only lists *concurrently active*
        // allocations).
        format!("@sched:{active:?}")
    }

    /// Committed allocations, sorted by start tick.
    pub fn calendar(&self) -> &[Allocation] {
        &self.calendar
    }

    /// The residual-capacity model at tick `t`: base capacities minus the
    /// deductions of every allocation active at `t`.
    pub fn model_at(&self, t: Tick) -> Network {
        let mut model = self.base.clone();
        for alloc in &self.calendar {
            if alloc.start <= t && t < alloc.end {
                shift(&mut model, &alloc.deductions, -1.0);
            }
        }
        model
    }

    /// Candidate start times in `[from, horizon)`: `from` itself plus the
    /// end of every allocation (the only moments capacity increases).
    fn candidate_starts(&self, from: Tick, horizon: Tick) -> Vec<Tick> {
        let mut starts = vec![from];
        for a in &self.calendar {
            if a.end > from && a.end < horizon {
                starts.push(a.end);
            }
        }
        starts.sort_unstable();
        starts.dedup();
        starts
    }

    /// True when the residual model covers the demand `terms` during
    /// the whole `[start, end)` window: the checked deduction succeeds
    /// at `start` and at every allocation start inside the window (the
    /// only moments capacity drops).
    fn window_has_capacity(&self, terms: &[(NodeId, String, f64)], start: Tick, end: Tick) -> bool {
        let inner = self.calendar.iter().map(|a| a.start);
        std::iter::once(start)
            .chain(inner.filter(|&t| t > start && t < end))
            .all(|t| deduct(&mut self.model_at(t), terms).is_ok())
    }

    /// Find the earliest window of `duration` ticks in `[from, horizon)`
    /// where `query` embeds under `constraint` with capacity to spare, and
    /// commit it to the calendar.
    ///
    /// The constraint should include the capacity comparison (e.g.
    /// `rNode.cpu >= vNode.cpu`) so the *embedding* search already honours
    /// residual capacities; the scheduler additionally re-checks capacity
    /// at every boundary inside the window (an embedding found at `t` must
    /// survive allocations that *start* mid-window).
    pub fn find_window(
        &mut self,
        query: &Network,
        constraint: &str,
        duration: Tick,
        from: Tick,
        horizon: Tick,
        options: &Options,
    ) -> Result<ScheduledEmbedding, ScheduleError> {
        if duration == 0 {
            return Err(ScheduleError::ZeroDuration);
        }
        // Same up-front checks as every other service entry point
        // (parse *and* static type lint), parsed once for the whole
        // sweep; every start re-binds the same expression.
        let expr =
            crate::parse_and_lint(constraint).map_err(|e| ScheduleError::Problem(e.to_string()))?;
        let query_hash = network_fingerprint(query);
        let mut options = options.clone();
        options.mode = SearchMode::UpTo(16); // a few candidates to re-check
        for start in self.candidate_starts(from, horizon) {
            if start + duration > horizon {
                break;
            }
            let model = self.model_at(start);
            let namespace = self.residual_namespace(start);
            let problem = Problem::from_parsed(query, &model, &expr)?;
            let key = FilterKey {
                host: namespace,
                epoch: ModelEpoch(0),
                query_hash,
                constraint: constraint.to_string(),
            };
            // Each start probes its own key once, through a bare stage:
            // no registry behind the residual models, so no repair.
            let result = Acquire::bare(&self.cache, key)
                .run(&problem, &options, &mut self.scratch, None)
                .map_err(|e| ScheduleError::Problem(e.to_string()))?;
            for mapping in &result.mappings {
                let deductions = demand_terms(query, mapping, &self.capacities);
                if self.window_has_capacity(&deductions, start, start + duration) {
                    let id = self.next_id;
                    self.next_id += 1;
                    let alloc = Allocation {
                        id,
                        start,
                        end: start + duration,
                        deductions,
                    };
                    let pos = self
                        .calendar
                        .binary_search_by_key(&start, |a| a.start)
                        .unwrap_or_else(|p| p);
                    self.calendar.insert(pos, alloc);
                    return Ok(ScheduledEmbedding {
                        id,
                        start,
                        end: start + duration,
                        mapping: mapping.clone(),
                    });
                }
            }
        }
        Err(ScheduleError::NoWindow { horizon })
    }

    /// Cancel a committed allocation. Returns true when found.
    pub fn cancel(&mut self, id: u64) -> bool {
        match self.calendar.iter().position(|a| a.id == id) {
            Some(i) => {
                self.calendar.remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{AttrValue, Direction};

    /// 4 hosts, 4 cpu each, fully wired.
    fn base() -> Network {
        let mut h = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..4).map(|i| h.add_node(format!("h{i}"))).collect();
        for &n in &ids {
            h.set_node_attr(n, "cpu", 4.0);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                h.add_edge(ids[i], ids[j]);
            }
        }
        h
    }

    /// 2-node query needing `demand` cpu per node.
    fn q(demand: f64) -> Network {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        q.set_node_attr(a, "cpu", demand);
        q.set_node_attr(b, "cpu", demand);
        q
    }

    const CAP: &str = "rNode.cpu >= vNode.cpu";

    #[test]
    fn immediate_window_when_unloaded() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        let w = s
            .find_window(&q(3.0), CAP, 10, 0, 100, &Options::default())
            .unwrap();
        assert_eq!(w.start, 0);
        assert_eq!(w.end, 10);
        assert_eq!(s.calendar().len(), 1);
    }

    #[test]
    fn saturated_now_waits_for_release() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        // Two big slices occupy all four hosts until tick 20.
        for _ in 0..2 {
            let w = s
                .find_window(&q(3.0), CAP, 20, 0, 100, &Options::default())
                .unwrap();
            assert_eq!(w.start, 0);
        }
        // Third request cannot fit before tick 20.
        let w = s
            .find_window(&q(3.0), CAP, 10, 0, 100, &Options::default())
            .unwrap();
        assert_eq!(w.start, 20);
    }

    #[test]
    fn partial_load_allows_small_queries_now() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        s.find_window(&q(3.0), CAP, 50, 0, 100, &Options::default())
            .unwrap();
        // 1-cpu residual on two hosts, 4 on the others: a 2-cpu query fits
        // immediately on the unloaded pair.
        let w = s
            .find_window(&q(2.0), CAP, 10, 0, 100, &Options::default())
            .unwrap();
        assert_eq!(w.start, 0);
    }

    #[test]
    fn no_window_within_horizon() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        // Demand exceeds total capacity: never feasible.
        let err = s
            .find_window(&q(9.0), CAP, 10, 0, 50, &Options::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NoWindow { horizon: 50 }));
        // Feasible demand but the duration does not fit the horizon.
        for _ in 0..2 {
            s.find_window(&q(3.0), CAP, 40, 0, 100, &Options::default())
                .unwrap();
        }
        let err = s
            .find_window(&q(3.0), CAP, 70, 0, 100, &Options::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NoWindow { .. }));
    }

    #[test]
    fn cancellation_frees_the_window() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        let mut ids = Vec::new();
        for _ in 0..2 {
            ids.push(
                s.find_window(&q(3.0), CAP, 30, 0, 100, &Options::default())
                    .unwrap()
                    .id,
            );
        }
        let late = s
            .find_window(&q(3.0), CAP, 10, 0, 100, &Options::default())
            .unwrap();
        assert_eq!(late.start, 30);
        assert!(s.cancel(ids[0]));
        assert!(!s.cancel(ids[0])); // double cancel
        let now = s
            .find_window(&q(3.0), CAP, 10, 0, 100, &Options::default())
            .unwrap();
        assert_eq!(now.start, 0);
    }

    #[test]
    fn mid_window_allocation_start_respected() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        // Allocation A: [10, 40) occupying two hosts heavily. Committed
        // first with an artificial calendar entry.
        let w1 = s
            .find_window(&q(3.0), CAP, 30, 10, 100, &Options::default())
            .unwrap();
        assert_eq!(w1.start, 10);
        // A long window starting at 0 must survive A starting at tick 10 —
        // i.e. it must avoid A's two hosts even though they are free at 0.
        let w2 = s
            .find_window(&q(3.0), CAP, 30, 0, 100, &Options::default())
            .unwrap();
        assert_eq!(w2.start, 0);
        let a_hosts: std::collections::HashSet<NodeId> =
            w1.mapping.iter().map(|(_, r)| r).collect();
        for (_, r) in w2.mapping.iter() {
            assert!(
                !a_hosts.contains(&r),
                "window 2 overlaps allocation 1's hosts"
            );
        }
    }

    #[test]
    fn unchanged_calendar_resweep_hits_filter_cache() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        // Infeasible demand: the sweep probes every start, builds the
        // residual filters, commits nothing.
        let err = s
            .find_window(&q(9.0), CAP, 10, 0, 50, &Options::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NoWindow { .. }));
        let misses = s.cache().misses();
        assert!(misses > 0, "first sweep must build");
        // Same sweep, unchanged calendar: all cache hits, zero rebuilds.
        let _ = s
            .find_window(&q(9.0), CAP, 10, 0, 50, &Options::default())
            .unwrap_err();
        assert_eq!(s.cache().misses(), misses, "re-sweep rebuilt a filter");
        assert!(s.cache().hits() > 0);
        // Committing an allocation changes the active set at its window:
        // the next sweep of an overlapping start must rebuild.
        s.find_window(&q(3.0), CAP, 20, 0, 100, &Options::default())
            .unwrap();
        let misses_before = s.cache().misses();
        let _ = s
            .find_window(&q(9.0), CAP, 10, 0, 50, &Options::default())
            .unwrap_err();
        assert!(
            s.cache().misses() > misses_before,
            "commit must invalidate overlapping residual filters"
        );
    }

    #[test]
    fn ill_typed_constraint_rejected_before_the_sweep() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        let err = s
            .find_window(&q(1.0), "\"fast\" == 1", 10, 0, 50, &Options::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Problem(_)), "{err}");
        let err = s
            .find_window(&q(1.0), "1 +", 10, 0, 50, &Options::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Problem(_)), "{err}");
    }

    #[test]
    fn zero_duration_rejected() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        assert!(matches!(
            s.find_window(&q(1.0), CAP, 0, 0, 10, &Options::default()),
            Err(ScheduleError::ZeroDuration)
        ));
    }

    #[test]
    fn model_at_reflects_calendar() {
        let mut s = Scheduler::new(base(), &["cpu"]);
        let w = s
            .find_window(&q(3.0), CAP, 10, 5, 100, &Options::default())
            .unwrap();
        assert_eq!(w.start, 5);
        let before = s.model_at(0);
        let during = s.model_at(7);
        let after = s.model_at(20);
        let host0 = w.mapping.iter().next().unwrap().1;
        let cpu = |m: &Network| {
            m.node_attr_by_name(host0, "cpu")
                .and_then(AttrValue::as_num)
                .unwrap()
        };
        assert_eq!(cpu(&before), 4.0);
        assert_eq!(cpu(&during), 1.0);
        assert_eq!(cpu(&after), 4.0);
    }
}
