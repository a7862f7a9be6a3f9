//! Resource reservations (§III component 3): "if a resource reservation
//! system is in place, applications would allocate the selected mapping
//! and the network model would be adjusted accordingly."
//!
//! The manager tracks numeric *capacity attributes* on host nodes (e.g.
//! `cpu`, `mem`). Reserving a mapping decrements, on every host node in
//! the image, the capacities demanded by the query node mapped to it
//! (the query node's value for the same attribute); releasing restores
//! them. Each adjustment is one tracked commit into the
//! [`crate::ModelRegistry`] (the deduction nodes dirty), so subsequent
//! queries see the new capacities and the host's cached filters are
//! repaired rather than rebuilt. A reservation's capacity check and its
//! deduction run inside that one commit, in one hold of the registry's
//! write lock: concurrent reservations are serialized there, and each
//! is checked against the capacities the others left.
//!
//! Capacity arithmetic has this one definition, which the
//! [`Scheduler`](crate::Scheduler) and the feed's reservation deltas
//! share: demand terms, a checked deduction and an unchecked shift.

use crate::registry::{DirtySet, ModelRegistry};
use netembed::Mapping;
use netgraph::{AttrValue, Network, NodeId};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A committed reservation (needed to release).
#[derive(Debug, Clone, PartialEq)]
pub struct Reservation {
    /// Registry model name the reservation applies to.
    pub host: String,
    /// Unique ticket id.
    pub ticket: u64,
    /// Per-host-node deductions: `(host node, attribute name, amount)`.
    pub deductions: Vec<(NodeId, String, f64)>,
}

/// Reservation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ReservationError {
    /// The registry has no model with that name.
    UnknownHost(String),
    /// A host node lacks the demanded capacity.
    Insufficient {
        /// Host node.
        node: NodeId,
        /// Capacity attribute.
        attr: String,
        /// Amount requested.
        requested: f64,
        /// Amount available.
        available: f64,
    },
    /// Ticket not found (double release).
    UnknownTicket(u64),
}

impl fmt::Display for ReservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReservationError::UnknownHost(h) => write!(f, "unknown host model `{h}`"),
            ReservationError::Insufficient {
                node,
                attr,
                requested,
                available,
            } => write!(
                f,
                "host node {node} has {available} of `{attr}`, {requested} requested"
            ),
            ReservationError::UnknownTicket(t) => write!(f, "unknown reservation ticket {t}"),
        }
    }
}

impl std::error::Error for ReservationError {}

/// Tracks active reservations against registry models.
pub struct ReservationManager {
    active: Mutex<Vec<Reservation>>,
    next_ticket: AtomicU64,
}

impl ReservationManager {
    /// Manager with no active reservations.
    pub fn new() -> Self {
        ReservationManager {
            active: Mutex::new(Vec::new()),
            next_ticket: AtomicU64::new(1),
        }
    }

    /// Reserve `mapping`'s resources on the named model.
    ///
    /// `capacities` lists the capacity attributes to honour (e.g.
    /// `["cpu", "mem"]`). For each query node with a positive numeric
    /// value for a listed attribute, that amount is deducted from the
    /// mapped host node's value. All-or-nothing: any shortfall aborts
    /// the commit with no change.
    pub fn reserve(
        &self,
        registry: &ModelRegistry,
        host_name: &str,
        query: &Network,
        mapping: &Mapping,
        capacities: &[&str],
    ) -> Result<Reservation, ReservationError> {
        let deductions = demand_terms(query, mapping, capacities);
        let dirty = DirtySet::from_ids(deductions.iter().map(|(node, _, _)| node.0));
        registry
            .commit(host_name, Some(dirty), |net| deduct(net, &deductions))
            .ok_or_else(|| ReservationError::UnknownHost(host_name.to_string()))??;
        let reservation = Reservation {
            host: host_name.to_string(),
            ticket: self.next_ticket.fetch_add(1, Ordering::Relaxed),
            deductions,
        };
        self.active.lock().push(reservation.clone());
        Ok(reservation)
    }

    /// Release a reservation, restoring capacities.
    pub fn release(&self, registry: &ModelRegistry, ticket: u64) -> Result<(), ReservationError> {
        let reservation = {
            let mut active = self.active.lock();
            let idx = active
                .iter()
                .position(|r| r.ticket == ticket)
                .ok_or(ReservationError::UnknownTicket(ticket))?;
            active.swap_remove(idx)
        };
        let terms = &reservation.deductions;
        let dirty = DirtySet::from_ids(terms.iter().map(|(node, _, _)| node.0));
        registry
            .update_dirty(&reservation.host, dirty, |net| shift(net, terms, 1.0))
            .map(|_| ())
            .ok_or_else(|| ReservationError::UnknownHost(reservation.host.clone()))
    }

    /// Number of active reservations.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }
}

/// The capacity demand of placing `query` by `mapping`: one
/// `(host node, attr, amount)` term for each query node with a
/// positive numeric value for a listed capacity attribute.
pub(crate) fn demand_terms(
    query: &Network,
    mapping: &Mapping,
    capacities: &[impl AsRef<str>],
) -> Vec<(NodeId, String, f64)> {
    let mut terms = Vec::new();
    for (q, r) in mapping.iter() {
        for attr in capacities.iter().map(AsRef::as_ref) {
            match query.node_attr_by_name(q, attr).and_then(AttrValue::as_num) {
                Some(amount) if amount > 0.0 => terms.push((r, attr.to_string(), amount)),
                _ => {}
            }
        }
    }
    terms
}

/// Deduct every `(node, attr, amount)` term from `net` in order, or
/// fail at the first node with less left than its term asks for (a
/// missing attribute counts as 0). Each check sees the deductions
/// before it; on failure `net` is partly deducted, so callers run this
/// on a copy they drop.
pub(crate) fn deduct(
    net: &mut Network,
    terms: &[(NodeId, String, f64)],
) -> Result<(), ReservationError> {
    for (node, attr, amount) in terms {
        let available = level(net, *node, attr);
        if available < *amount {
            return Err(ReservationError::Insufficient {
                node: *node,
                attr: attr.clone(),
                requested: *amount,
                available,
            });
        }
        net.set_node_attr(*node, attr, available - amount);
    }
    Ok(())
}

/// Add `sign × amount` to every term's node attribute (a missing
/// attribute counts as 0), unchecked.
pub(crate) fn shift<N: Copy + Into<NodeId>>(
    net: &mut Network,
    terms: &[(N, String, f64)],
    sign: f64,
) {
    for (node, attr, amount) in terms {
        let node = (*node).into();
        let current = level(net, node, attr);
        net.set_node_attr(node, attr, current + sign * amount);
    }
}

fn level(net: &Network, node: NodeId, attr: &str) -> f64 {
    net.node_attr_by_name(node, attr)
        .and_then(AttrValue::as_num)
        .unwrap_or(0.0)
}

impl Default for ReservationManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Direction;

    fn setup() -> (ModelRegistry, Network) {
        let reg = ModelRegistry::new();
        let mut h = Network::new(Direction::Undirected);
        let a = h.add_node("a");
        let b = h.add_node("b");
        h.add_edge(a, b);
        h.set_node_attr(a, "cpu", 8.0);
        h.set_node_attr(b, "cpu", 4.0);
        reg.register("h", h);

        let mut q = Network::new(Direction::Undirected);
        let x = q.add_node("x");
        let y = q.add_node("y");
        q.add_edge(x, y);
        q.set_node_attr(x, "cpu", 3.0);
        q.set_node_attr(y, "cpu", 2.0);
        (reg, q)
    }

    fn cpu(reg: &ModelRegistry, node: u32) -> f64 {
        reg.model("h")
            .unwrap()
            .node_attr_by_name(NodeId(node), "cpu")
            .and_then(AttrValue::as_num)
            .unwrap()
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let (reg, q) = setup();
        let mgr = ReservationManager::new();
        let mapping = Mapping::new(vec![NodeId(0), NodeId(1)]);
        let res = mgr.reserve(&reg, "h", &q, &mapping, &["cpu"]).unwrap();
        assert_eq!(cpu(&reg, 0), 5.0);
        assert_eq!(cpu(&reg, 1), 2.0);
        assert_eq!(mgr.active_count(), 1);

        mgr.release(&reg, res.ticket).unwrap();
        assert_eq!(cpu(&reg, 0), 8.0);
        assert_eq!(cpu(&reg, 1), 4.0);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn insufficient_capacity_rejected_atomically() {
        let (reg, q) = setup();
        let mgr = ReservationManager::new();
        // y (demand 2) mapped to a (8): fine. x (demand 3) to b (4): fine.
        // Take two reservations so b drops to 1, then a third must fail
        // without touching anything.
        let m = Mapping::new(vec![NodeId(1), NodeId(0)]); // x→b, y→a
        mgr.reserve(&reg, "h", &q, &m, &["cpu"]).unwrap();
        assert_eq!(cpu(&reg, 1), 1.0);
        let err = mgr.reserve(&reg, "h", &q, &m, &["cpu"]).unwrap_err();
        assert!(matches!(err, ReservationError::Insufficient { .. }));
        // First reservation still intact; no partial deduction.
        assert_eq!(cpu(&reg, 1), 1.0);
        assert_eq!(cpu(&reg, 0), 6.0);
        assert_eq!(mgr.active_count(), 1);
    }

    #[test]
    fn double_release_rejected() {
        let (reg, q) = setup();
        let mgr = ReservationManager::new();
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        let res = mgr.reserve(&reg, "h", &q, &m, &["cpu"]).unwrap();
        mgr.release(&reg, res.ticket).unwrap();
        assert!(matches!(
            mgr.release(&reg, res.ticket),
            Err(ReservationError::UnknownTicket(_))
        ));
    }

    #[test]
    fn unknown_host_rejected() {
        let (_, q) = setup();
        let empty_reg = ModelRegistry::new();
        let mgr = ReservationManager::new();
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        assert!(matches!(
            mgr.reserve(&empty_reg, "h", &q, &m, &["cpu"]),
            Err(ReservationError::UnknownHost(_))
        ));
    }

    #[test]
    fn reservation_affects_future_queries() {
        let (reg, q) = setup();
        let mgr = ReservationManager::new();
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        mgr.reserve(&reg, "h", &q, &m, &["cpu"]).unwrap();
        // After the reservation, a query demanding cpu ≥ 6 per node is
        // infeasible (capacities now 5 and 2).
        let host = reg.model("h").unwrap();
        let engine = netembed::Engine::new(&host);
        let result = engine
            .embed(&q, "rNode.cpu >= 6.0", &netembed::Options::default())
            .unwrap();
        assert!(result.mappings.is_empty());
    }

    #[test]
    fn concurrent_reserves_never_over_commit() {
        use std::sync::Barrier;
        // Two clients race for 3 of one node's 4 cpu: exactly one wins,
        // the other sees the winner's deduction, and cpu ends at 1.
        let mut q = Network::new(Direction::Undirected);
        let x = q.add_node("x");
        q.set_node_attr(x, "cpu", 3.0);
        let mapping = Mapping::new(vec![NodeId(0)]);
        for trial in 0..500 {
            let reg = ModelRegistry::new();
            let mut h = Network::new(Direction::Undirected);
            let n = h.add_node("n");
            h.set_node_attr(n, "cpu", 4.0);
            reg.register("h", h);
            let mgr = ReservationManager::new();
            let barrier = Barrier::new(2);
            let results: Vec<_> = std::thread::scope(|s| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            mgr.reserve(&reg, "h", &q, &mapping, &["cpu"])
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            let won = results.iter().filter(|r| r.is_ok()).count();
            assert_eq!(won, 1, "trial {trial}: {results:?}");
            assert!(
                results.iter().any(|r| matches!(
                    r,
                    Err(ReservationError::Insufficient { available, .. }) if *available == 1.0
                )),
                "trial {trial}: {results:?}"
            );
            assert_eq!(cpu(&reg, 0), 1.0, "trial {trial}");
        }
    }
}
