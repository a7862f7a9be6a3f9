//! Interactive requirement negotiation.
//!
//! §III: "An interactive service would facilitate the adjustment
//! (negotiation) of the requirements if the query cannot be satisfied."
//! §VI-B adds that keeping the constraint expression separate from the
//! topology lets a user "begin with more stringent constraints and relax
//! them if there is no compliant mapping". This module automates that
//! loop: the caller supplies a constraint *template* parameterized by a
//! relaxation level, and [`NetEmbedService::negotiate`] walks the levels
//! in order until a feasible embedding appears (or the levels run out).
//!
//! Each level runs through a [`PreparedQuery`](crate::PreparedQuery), so
//! the loop inherits the session machinery: per-level filters are
//! memoized in the service's epoch-keyed cache — *re*-negotiating after
//! nothing changed (a common interactive pattern: the user re-asks with
//! the same levels) rebuilds no filter at all, while any model update
//! transparently invalidates and rebuilds — and all levels share one
//! leased scratch + worker pool.
//!
//! ## Region-first placement
//!
//! A host whose nodes carry a region attribute (`domain` on
//! transit-stub topologies, `cluster` on PlanetLab-like ones) can be
//! asked for a placement inside one region first, falling back to the
//! whole host, with a two-level template:
//!
//! * level 0: `(<c>) && rSource.<attr> == rTarget.<attr>`
//! * level 1: `<c>`
//!
//! For a connected query, every query edge staying inside one region
//! means the whole image lies in one region, so
//! `Satisfied { index: 0, .. }` is the region-local answer and
//! `Satisfied { index: 1, .. }` the cross-region fallback; its `outcome`
//! tells a level's full set ([`Outcome::Complete`]) from a truncated one
//! ([`Outcome::Partial`]). Both levels are served like any other
//! request: cached filters, the hierarchy when [`Options::hierarchy`] is
//! set, and mapping re-verification.
//!
//! ```
//! use netembed::Options;
//! use netgraph::{Direction, Network, NodeId};
//! use service::{NegotiationOutcome, NetEmbedService};
//!
//! // Regions 0 = {h0, h1} and 1 = {h2, h3}; only h1–h2 crosses them.
//! let mut host = Network::new(Direction::Undirected);
//! for i in 0..4 {
//!     let v = host.add_node(format!("h{i}"));
//!     host.set_node_attr(v, "domain", (i / 2) as f64);
//! }
//! for (u, v, delay) in [(0, 1, 2.0), (2, 3, 2.0), (1, 2, 30.0)] {
//!     let e = host.add_edge(NodeId(u), NodeId(v));
//!     host.set_edge_attr(e, "avgDelay", delay);
//! }
//! let svc = NetEmbedService::new();
//! svc.registry().register("fabric", host);
//! let mut query = Network::new(Direction::Undirected);
//! let (a, b) = (query.add_node("a"), query.add_node("b"));
//! query.add_edge(a, b);
//!
//! // The level that answered: 0 = one region, 1 = cross-region.
//! let tier = |c: &str| {
//!     let template = |level: f64| if level == 0.0 {
//!         format!("({c}) && rSource.domain == rTarget.domain")
//!     } else {
//!         c.to_string()
//!     };
//!     match svc.negotiate("fabric", &query, &[0.0, 1.0], &Options::default(), template) {
//!         Ok(NegotiationOutcome::Satisfied { index, .. }) => Some(index),
//!         _ => None,
//!     }
//! };
//! assert_eq!(tier("rEdge.avgDelay <= 5.0"), Some(0));
//! assert_eq!(tier("rEdge.avgDelay >= 20.0"), Some(1));
//! assert_eq!(tier("rEdge.avgDelay > 99.0"), None);
//! ```

use crate::{NetEmbedService, ServiceError};
use netembed::{Options, Outcome};
use netgraph::Network;

/// Result of a negotiation run.
#[derive(Debug, Clone)]
pub enum NegotiationOutcome {
    /// Satisfied at `levels[index]`; what the search found there.
    Satisfied {
        /// Index into the supplied levels.
        index: usize,
        /// The relaxation level value.
        level: f64,
        /// The level's answer: [`Outcome::Complete`] (every feasible
        /// mapping) or [`Outcome::Partial`] (some; more may exist),
        /// never empty.
        outcome: Outcome,
    },
    /// Every level failed definitively (complete-empty results).
    Exhausted,
    /// A level timed out without finding anything — feasibility unknown,
    /// negotiation stops to respect the time budget.
    Inconclusive {
        /// Level index that timed out.
        index: usize,
    },
}

impl NetEmbedService {
    /// Try `levels` in order against the registered model `host`,
    /// building the constraint with `template` and running the engine
    /// until one level yields at least one embedding.
    pub fn negotiate(
        &self,
        host: &str,
        query: &Network,
        levels: &[f64],
        options: &Options,
        template: impl Fn(f64) -> String,
    ) -> Result<NegotiationOutcome, ServiceError> {
        // One handle for the whole loop: the query is cloned and
        // fingerprinted once, and each level just swaps the constraint
        // in ([`crate::PreparedQuery::reconstrain`]).
        let mut handle: Option<crate::PreparedQuery<'_>> = None;
        for (index, &level) in levels.iter().enumerate() {
            let constraint = template(level);
            let prepared = match handle.as_mut() {
                Some(p) => {
                    p.reconstrain(&constraint)?;
                    p
                }
                None => handle.insert(self.prepare(host, query.clone(), &constraint)?),
            };
            let response = prepared.run(options)?;
            match response.outcome {
                Outcome::Inconclusive => {
                    return Ok(NegotiationOutcome::Inconclusive { index });
                }
                outcome if outcome.found_any() => {
                    return Ok(NegotiationOutcome::Satisfied {
                        index,
                        level,
                        outcome,
                    });
                }
                _ => {} // definitive empty: relax further
            }
        }
        Ok(NegotiationOutcome::Exhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryRequest, ServiceError};
    use netgraph::{AttrValue, Direction, NodeId};

    fn host() -> Network {
        let mut h = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..4).map(|i| h.add_node(format!("h{i}"))).collect();
        for (i, d) in [25.0, 35.0, 45.0, 55.0].iter().enumerate() {
            let e = h.add_edge(ids[i], ids[(i + 1) % 4]);
            h.set_edge_attr(e, "avgDelay", *d);
        }
        h
    }

    /// A service with `host` registered as `"t"`.
    fn service_with(host: Network) -> NetEmbedService {
        let svc = NetEmbedService::new();
        svc.registry().register("t", host);
        svc
    }

    fn edge_query() -> Network {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        q
    }

    #[test]
    fn relaxation_finds_first_feasible_level() {
        let svc = service_with(host());
        let q = edge_query();
        // Levels are delay budgets: 10 and 20 fail, 30 admits d=25.
        let out = svc
            .negotiate(
                "t",
                &q,
                &[10.0, 20.0, 30.0, 60.0],
                &Options::default(),
                |lvl| format!("rEdge.avgDelay <= {lvl}"),
            )
            .unwrap();
        match out {
            NegotiationOutcome::Satisfied {
                index,
                level,
                outcome,
            } => {
                assert_eq!(index, 2);
                assert_eq!(level, 30.0);
                assert_eq!(outcome.mappings().len(), 2); // d=25 edge, two orientations
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exhausted_when_nothing_fits() {
        let svc = service_with(host());
        let q = edge_query();
        let out = svc
            .negotiate("t", &q, &[1.0, 2.0], &Options::default(), |lvl| {
                format!("rEdge.avgDelay <= {lvl}")
            })
            .unwrap();
        assert!(matches!(out, NegotiationOutcome::Exhausted));
    }

    #[test]
    fn parse_error_surfaces_as_bad_constraint() {
        let svc = service_with(host());
        let q = edge_query();
        let err = svc
            .negotiate("t", &q, &[1.0], &Options::default(), |_| "1 +".to_string())
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadConstraint(_)), "{err}");
    }

    #[test]
    fn tightest_satisfiable_window_is_reported() {
        let svc = service_with(host());
        let q = edge_query();
        // Percent-style relaxation around 40ms, as in the paper's ±10%
        // example: widen until the 35/45 edges fall inside.
        let out = svc
            .negotiate(
                "t",
                &q,
                &[0.01, 0.05, 0.15, 0.5],
                &Options::default(),
                |tol| {
                    format!(
                        "rEdge.avgDelay >= {} && rEdge.avgDelay <= {}",
                        40.0 * (1.0 - tol),
                        40.0 * (1.0 + tol)
                    )
                },
            )
            .unwrap();
        match out {
            NegotiationOutcome::Satisfied { index, .. } => assert_eq!(index, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn renegotiation_reuses_per_level_filters() {
        // The interactive pattern: same levels asked twice with no model
        // change in between — the second pass must be all cache hits.
        let svc = service_with(host());
        let q = edge_query();
        let levels = [10.0, 20.0, 30.0];
        let template = |lvl: f64| format!("rEdge.avgDelay <= {lvl}");
        let first = svc
            .negotiate("t", &q, &levels, &Options::default(), template)
            .unwrap();
        assert!(matches!(first, NegotiationOutcome::Satisfied { .. }));
        let misses_after_first = svc.cache().misses();
        let hits_after_first = svc.cache().hits();
        let second = svc
            .negotiate("t", &q, &levels, &Options::default(), template)
            .unwrap();
        assert!(matches!(second, NegotiationOutcome::Satisfied { .. }));
        assert_eq!(
            svc.cache().misses(),
            misses_after_first,
            "re-negotiation rebuilt a filter"
        );
        assert_eq!(svc.cache().hits(), hits_after_first + 3, "3 levels, 3 hits");

        // A model update invalidates: the third pass rebuilds each level
        // against the new epoch.
        svc.registry().update("t", |_| {}).unwrap();
        svc.negotiate("t", &q, &levels, &Options::default(), template)
            .unwrap();
        assert_eq!(svc.cache().misses(), misses_after_first + 3);
    }

    /// Two fully-meshed clusters of 4 joined by one inter-cluster edge.
    fn two_cluster_host() -> Network {
        let mut h = Network::new(Direction::Undirected);
        let mut ids = Vec::new();
        for c in 0..2 {
            for i in 0..4 {
                let n = h.add_node(format!("c{c}n{i}"));
                h.set_node_attr(n, "cluster", c as f64);
                ids.push(n);
            }
        }
        for c in 0..2 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    let e = h.add_edge(ids[c * 4 + i], ids[c * 4 + j]);
                    h.set_edge_attr(e, "d", 5.0);
                }
            }
        }
        let bridge = h.add_edge(ids[0], ids[4]);
        h.set_edge_attr(bridge, "d", 100.0);
        h
    }

    fn triangle_query() -> Network {
        let mut q = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..3).map(|i| q.add_node(format!("q{i}"))).collect();
        for i in 0..3 {
            q.add_edge(ids[i], ids[(i + 1) % 3]);
        }
        q
    }

    /// The region-first template of the module docs over `cluster`:
    /// level 0 keeps every query edge inside one cluster, level 1 is
    /// the bare constraint.
    fn region_first(c: &str) -> impl Fn(f64) -> String + '_ {
        move |level| {
            if level == 0.0 {
                format!("({c}) && rSource.cluster == rTarget.cluster")
            } else {
                c.to_string()
            }
        }
    }

    fn negotiate_region_first(svc: &NetEmbedService, q: &Network, c: &str) -> NegotiationOutcome {
        svc.negotiate("t", q, &[0.0, 1.0], &Options::default(), region_first(c))
            .unwrap()
    }

    #[test]
    fn intra_region_query_answered_locally() {
        let svc = service_with(two_cluster_host());
        let q = triangle_query();
        let NegotiationOutcome::Satisfied {
            index: 0, outcome, ..
        } = negotiate_region_first(&svc, &q, "rEdge.d <= 10.0")
        else {
            panic!("an intra-cluster triangle must be satisfied at level 0");
        };
        let mappings = outcome.mappings();
        assert!(!mappings.is_empty());
        // Host ids are valid in the full host; verify independently
        // against the bare constraint, and every image is one cluster.
        let full = svc.registry().model("t").unwrap();
        let problem = netembed::Problem::new(&q, &full, "rEdge.d <= 10.0").unwrap();
        for m in mappings {
            netembed::check_mapping(&problem, m).unwrap();
            let cluster = |r: NodeId| {
                full.node_attr_by_name(r, "cluster")
                    .and_then(AttrValue::as_num)
            };
            let first = cluster(m.as_slice()[0]);
            assert!(m.iter().all(|(_, r)| cluster(r) == first), "{m:?}");
        }
    }

    #[test]
    fn cross_region_query_falls_back_to_global() {
        let svc = service_with(two_cluster_host());
        // An edge requiring the 100ms bridge: no single cluster has it.
        let q = edge_query();
        match negotiate_region_first(&svc, &q, "rEdge.d >= 50.0") {
            NegotiationOutcome::Satisfied {
                index: 1,
                outcome: Outcome::Complete(mappings),
                ..
            } => assert_eq!(mappings.len(), 2), // bridge, 2 orientations
            other => panic!("unexpected {other:?}"),
        }
        // The same request submitted directly hits the filter
        // negotiation cached, and agrees.
        let resp = svc
            .submit(&QueryRequest {
                host: "t".into(),
                query: q,
                constraint: "rEdge.d >= 50.0".into(),
                options: Options::default(),
            })
            .unwrap();
        assert_eq!(resp.stats.filter_cache_hits, 1);
        assert!(matches!(resp.outcome, Outcome::Complete(ref ms) if ms.len() == 2));
    }

    #[test]
    fn infeasible_query_is_globally_definitive() {
        let svc = service_with(two_cluster_host());
        let out = negotiate_region_first(&svc, &triangle_query(), "rEdge.d > 1e9");
        assert!(matches!(out, NegotiationOutcome::Exhausted));
    }

    #[test]
    fn query_larger_than_any_region_falls_back() {
        let svc = service_with(two_cluster_host());
        // 5-node path cannot fit a 4-node cluster.
        let mut q = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..5).map(|i| q.add_node(format!("q{i}"))).collect();
        for w in ids.windows(2) {
            q.add_edge(w[0], w[1]);
        }
        match negotiate_region_first(&svc, &q, "true") {
            NegotiationOutcome::Satisfied {
                index: 1, outcome, ..
            } => {
                assert!(outcome.found_any())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn first_mode_satisfies_with_a_partial_outcome() {
        let svc = service_with(host());
        let first = Options {
            mode: netembed::SearchMode::First,
            ..Options::default()
        };
        // Level 60 admits every edge; `First` stops at one mapping, so
        // the level's answer is a non-empty `Partial`.
        let out = svc
            .negotiate("t", &edge_query(), &[10.0, 60.0], &first, |lvl| {
                format!("rEdge.avgDelay <= {lvl}")
            })
            .unwrap();
        match out {
            NegotiationOutcome::Satisfied {
                index: 1,
                outcome: Outcome::Partial(mappings),
                ..
            } => assert_eq!(mappings.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
