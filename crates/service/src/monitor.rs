//! Monitoring simulator: the churn source behind the network model.
//!
//! In a deployment, the model of the real network is "maintained either by
//! a monitoring service, a resource manager, or a combination of both"
//! (§III). This simulator stands in for the all-pairs ping daemon of the
//! PlanetLab trace: each tick multiplies every delay attribute by a random
//! factor around 1 and occasionally marks nodes down/up, pushing the
//! updated model into the registry. Tests and examples use it to exercise
//! re-query behaviour under drift.

use crate::registry::ModelRegistry;
use netgraph::{AttrValue, NodeId};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Simulator parameters.
#[derive(Debug, Clone, Copy)]
pub struct MonitorParams {
    /// Maximum relative delay drift per tick (e.g. 0.1 = ±10%).
    pub delay_jitter: f64,
    /// Probability that a node flips availability per tick.
    pub flap_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MonitorParams {
    fn default() -> Self {
        MonitorParams {
            delay_jitter: 0.1,
            flap_prob: 0.01,
            seed: 1,
        }
    }
}

/// Attribute names the simulator perturbs.
const DELAY_ATTRS: [&str; 3] = ["minDelay", "avgDelay", "maxDelay"];

/// Attribute marking node availability (`up`, boolean).
pub const UP_ATTR: &str = "up";

/// The monitoring simulator.
pub struct MonitorSim {
    params: MonitorParams,
    rng: StdRng,
    ticks: u64,
}

impl MonitorSim {
    /// New simulator.
    pub fn new(params: MonitorParams) -> Self {
        MonitorSim {
            rng: StdRng::seed_from_u64(params.seed),
            params,
            ticks: 0,
        }
    }

    /// Ticks applied so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Apply one measurement epoch to the named model. Returns false when
    /// the model does not exist. Ticks go through the untracked
    /// [`ModelRegistry::update`] (a tick rewrites every edge's delays, so
    /// its dirty set would be the whole host): each bumps the model's
    /// [`crate::ModelEpoch`], and the host's cached filters rebuild.
    pub fn tick(&mut self, registry: &ModelRegistry, model: &str) -> bool {
        self.ticks += 1;
        let jitter = self.params.delay_jitter;
        let flap = self.params.flap_prob;
        let rng = &mut self.rng;
        registry
            .update(model, |net| {
                for e in net.edge_refs().collect::<Vec<_>>() {
                    for attr in DELAY_ATTRS {
                        if let Some(d) = net
                            .edge_attr_by_name(e.id, attr)
                            .and_then(AttrValue::as_num)
                        {
                            let factor = 1.0 + rng.random_range(-jitter..=jitter);
                            net.set_edge_attr(e.id, attr, (d * factor).max(0.01));
                        }
                    }
                }
                let n = net.node_count();
                for i in 0..n {
                    if rng.random_bool(flap.clamp(0.0, 1.0)) {
                        let node = NodeId(i as u32);
                        let up = net
                            .node_attr_by_name(node, UP_ATTR)
                            .and_then(AttrValue::as_bool)
                            .unwrap_or(true);
                        net.set_node_attr(node, UP_ATTR, !up);
                    }
                }
            })
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Direction, Network};

    fn model() -> Network {
        let mut h = Network::new(Direction::Undirected);
        let a = h.add_node("a");
        let b = h.add_node("b");
        let e = h.add_edge(a, b);
        h.set_edge_attr(e, "avgDelay", 100.0);
        h.set_edge_attr(e, "minDelay", 90.0);
        h.set_edge_attr(e, "maxDelay", 110.0);
        h
    }

    fn avg(reg: &ModelRegistry) -> f64 {
        reg.model("m")
            .unwrap()
            .edge_attr_by_name(netgraph::EdgeId(0), "avgDelay")
            .and_then(AttrValue::as_num)
            .unwrap()
    }

    #[test]
    fn tick_perturbs_delays_within_bounds() {
        let reg = ModelRegistry::new();
        reg.register("m", model());
        let mut sim = MonitorSim::new(MonitorParams {
            delay_jitter: 0.1,
            flap_prob: 0.0,
            seed: 3,
        });
        let before = avg(&reg);
        assert!(sim.tick(&reg, "m"));
        let after = avg(&reg);
        assert_ne!(before, after);
        assert!((after / before - 1.0).abs() <= 0.1 + 1e-9);
        assert_eq!(sim.ticks(), 1);
    }

    #[test]
    fn unknown_model_returns_false() {
        let reg = ModelRegistry::new();
        let mut sim = MonitorSim::new(MonitorParams::default());
        assert!(!sim.tick(&reg, "missing"));
    }

    #[test]
    fn flapping_toggles_up_attribute() {
        let reg = ModelRegistry::new();
        reg.register("m", model());
        let mut sim = MonitorSim::new(MonitorParams {
            delay_jitter: 0.0,
            flap_prob: 1.0, // every node flips every tick
            seed: 4,
        });
        sim.tick(&reg, "m");
        let net = reg.model("m").unwrap();
        for i in 0..2 {
            assert_eq!(
                net.node_attr_by_name(NodeId(i), UP_ATTR)
                    .and_then(AttrValue::as_bool),
                Some(false)
            );
        }
        sim.tick(&reg, "m");
        let net = reg.model("m").unwrap();
        for i in 0..2 {
            assert_eq!(
                net.node_attr_by_name(NodeId(i), UP_ATTR)
                    .and_then(AttrValue::as_bool),
                Some(true)
            );
        }
    }

    #[test]
    fn drift_changes_query_answers_over_time() {
        let reg = ModelRegistry::new();
        reg.register("m", model());
        let mut sim = MonitorSim::new(MonitorParams {
            delay_jitter: 0.15,
            flap_prob: 0.0,
            seed: 5,
        });
        let mut q = Network::new(Direction::Undirected);
        let x = q.add_node("x");
        let y = q.add_node("y");
        q.add_edge(x, y);
        // Window pinned to the initial value: drifts out eventually.
        let constraint = "rEdge.avgDelay >= 99.0 && rEdge.avgDelay <= 101.0";
        let mut lost_later = false;
        let matched_initially = {
            let host = reg.model("m").unwrap();
            let engine = netembed::Engine::new(&host);
            !engine
                .embed(&q, constraint, &netembed::Options::default())
                .unwrap()
                .mappings
                .is_empty()
        };
        for _ in 0..20 {
            sim.tick(&reg, "m");
            let host = reg.model("m").unwrap();
            let engine = netembed::Engine::new(&host);
            if engine
                .embed(&q, constraint, &netembed::Options::default())
                .unwrap()
                .mappings
                .is_empty()
            {
                lost_later = true;
                break;
            }
        }
        assert!(matched_initially);
        assert!(
            lost_later,
            "15% jitter never left the ±1% window in 20 ticks"
        );
    }
}
