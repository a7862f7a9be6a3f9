//! Resource reservations (§III component 3): "if a resource reservation
//! system is in place, applications would allocate the selected mapping
//! and the network model would be adjusted accordingly."
//!
//! The manager tracks numeric *capacity attributes* on host nodes (e.g.
//! `cpu`, `mem`). Reserving a mapping atomically decrements, on every host
//! node in the image, the capacities demanded by the query node mapped to
//! it (the query node's value for the same attribute); releasing restores
//! them. Each adjustment is one tracked commit into the
//! [`crate::ModelRegistry`] ([`ModelRegistry::update_dirty`], the
//! deduction nodes dirty), so subsequent queries see the new capacities
//! and the host's cached filters are repaired rather than rebuilt.

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
    /// `["cpu", "mem"]`). For each query node with a numeric value for a
    /// listed attribute, that amount is deducted from the mapped host
    /// node's value. All-or-nothing: any shortfall aborts with no change.
    pub fn reserve(
        &self,
        registry: &ModelRegistry,
        host_name: &str,
        query: &Network,
        mapping: &Mapping,
        capacities: &[&str],
    ) -> Result<Reservation, ReservationError> {
        let model = registry
            .model(host_name)
            .ok_or_else(|| ReservationError::UnknownHost(host_name.to_string()))?;

        // Plan the deductions and validate against the snapshot.
        let mut deductions: Vec<(NodeId, String, f64)> = Vec::new();
        for (q, r) in mapping.iter() {
            for &attr in capacities {
                let Some(demand) = query.node_attr_by_name(q, attr).and_then(AttrValue::as_num)
                else {
                    continue;
                };
                if demand <= 0.0 {
                    continue;
                }
                let available = model
                    .node_attr_by_name(r, attr)
                    .and_then(AttrValue::as_num)
                    .unwrap_or(0.0);
                // Account for earlier deductions in this same plan (two
                // query nodes cannot share a host node, but be safe).
                let planned: f64 = deductions
                    .iter()
                    .filter(|(n, a, _)| *n == r && a == attr)
                    .map(|(_, _, x)| *x)
                    .sum();
                if available - planned < demand {
                    return Err(ReservationError::Insufficient {
                        node: r,
                        attr: attr.to_string(),
                        requested: demand,
                        available: available - planned,
                    });
                }
                deductions.push((r, attr.to_string(), demand));
            }
        }

        // Commit atomically through the registry (§III component 3:
        // allocate → adjust).
        if !adjust(registry, host_name, &deductions, -1.0) {
            return Err(ReservationError::UnknownHost(host_name.to_string()));
        }

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
        if !adjust(registry, &reservation.host, &reservation.deductions, 1.0) {
            return Err(ReservationError::UnknownHost(reservation.host));
        }
        Ok(())
    }

    /// Number of active reservations.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }
}

/// Add `sign × amount` to every deduction's attribute in one tracked
/// commit whose dirty set is the deduction nodes. `false` when `host`
/// is unknown.
fn adjust(
    registry: &ModelRegistry,
    host: &str,
    deductions: &[(NodeId, String, f64)],
    sign: f64,
) -> bool {
    let dirty = DirtySet::from_ids(deductions.iter().map(|(node, _, _)| node.0));
    registry
        .update_dirty(host, dirty, |net| {
            for (node, attr, amount) in deductions {
                let current = net
                    .node_attr_by_name(*node, attr)
                    .and_then(AttrValue::as_num)
                    .unwrap_or(0.0);
                net.set_node_attr(*node, attr, current + sign * amount);
            }
        })
        .is_some()
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
}
