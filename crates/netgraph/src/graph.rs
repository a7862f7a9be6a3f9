//! The [`Network`] type: a directed or undirected multigraph-free graph with
//! typed attributes on nodes and edges and O(1) endpoint→edge lookup.
//!
//! Hosting networks in the paper reach a few thousand nodes and ~30k edges
//! (PlanetLab all-pairs trace: N=296, E=28,996), and the embedding search
//! touches adjacency constantly, so the representation is flat:
//! node/edge payloads live in dense `Vec`s, adjacency is a per-node sorted
//! list of `(neighbor, edge)` pairs, and `(u, v) → EdgeId` is a hash map.

use crate::attr::{AttrId, AttrMap, AttrSchema, AttrValue};
use rustc_hash::FxHashMap;
use std::fmt;

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Dense edge identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Index into edge tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Whether edges are interpreted as ordered or unordered pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Edges are unordered; `(u, v)` and `(v, u)` are the same edge.
    Undirected,
    /// Edges are ordered pairs.
    Directed,
}

#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub name: String,
    pub attrs: AttrMap,
}

#[derive(Debug, Clone)]
pub(crate) struct EdgeData {
    pub src: NodeId,
    pub dst: NodeId,
    pub attrs: AttrMap,
}

/// A borrowed view of one edge: endpoints plus id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Edge id.
    pub id: EdgeId,
    /// Source endpoint (first endpoint for undirected graphs).
    pub src: NodeId,
    /// Target endpoint.
    pub dst: NodeId,
}

/// An attributed graph: the common representation of hosting (real) and
/// query (virtual) networks.
#[derive(Debug, Clone)]
pub struct Network {
    direction: Direction,
    name: String,
    schema: AttrSchema,
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    /// Per-node adjacency: sorted `(neighbor, edge)` pairs. For undirected
    /// graphs each edge appears in both endpoint lists; for directed graphs
    /// `adj_out` holds successors and `adj_in` holds predecessors.
    adj_out: Vec<Vec<(NodeId, EdgeId)>>,
    adj_in: Vec<Vec<(NodeId, EdgeId)>>,
    /// `(u, v) → edge`. For undirected graphs both orientations are present.
    edge_index: FxHashMap<(NodeId, NodeId), EdgeId>,
    node_names: FxHashMap<String, NodeId>,
}

impl Network {
    /// Create an empty network.
    pub fn new(direction: Direction) -> Self {
        Network {
            direction,
            name: String::new(),
            schema: AttrSchema::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
            adj_out: Vec::new(),
            adj_in: Vec::new(),
            edge_index: FxHashMap::default(),
            node_names: FxHashMap::default(),
        }
    }

    /// Set a human-readable network name (carried through GraphML).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Edge interpretation.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// True when edges are unordered pairs.
    #[inline]
    pub fn is_undirected(&self) -> bool {
        self.direction == Direction::Undirected
    }

    /// Attribute schema (interned names).
    #[inline]
    pub fn schema(&self) -> &AttrSchema {
        &self.schema
    }

    /// Mutable attribute schema, for interning new names.
    #[inline]
    pub fn schema_mut(&mut self) -> &mut AttrSchema {
        &mut self.schema
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (each undirected edge counted once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterate all node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate all edges.
    pub fn edge_refs(&self) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| EdgeRef {
            id: EdgeId(i as u32),
            src: e.src,
            dst: e.dst,
        })
    }

    /// Add a node with a unique `name`. Panics on duplicate names; use
    /// [`crate::NetworkBuilder`] for checked construction.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        assert!(
            !self.node_names.contains_key(&name),
            "duplicate node name: {name}"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.node_names.insert(name.clone(), id);
        self.nodes.push(NodeData {
            name,
            attrs: AttrMap::new(),
        });
        self.adj_out.push(Vec::new());
        self.adj_in.push(Vec::new());
        id
    }

    /// Add an edge. Panics on invalid endpoints, self-loops, or duplicate
    /// edges; use [`crate::NetworkBuilder`] for checked construction.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "invalid src node");
        assert!(dst.index() < self.nodes.len(), "invalid dst node");
        assert_ne!(src, dst, "self loops are not supported");
        assert!(
            !self.edge_index.contains_key(&(src, dst)),
            "duplicate edge ({src}, {dst})"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            src,
            dst,
            attrs: AttrMap::new(),
        });
        insert_sorted(&mut self.adj_out[src.index()], (dst, id));
        insert_sorted(&mut self.adj_in[dst.index()], (src, id));
        self.edge_index.insert((src, dst), id);
        if self.direction == Direction::Undirected {
            insert_sorted(&mut self.adj_out[dst.index()], (src, id));
            insert_sorted(&mut self.adj_in[src.index()], (dst, id));
            self.edge_index.insert((dst, src), id);
        }
        id
    }

    /// Node id for `name`.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_names.get(name).copied()
    }

    /// Name of `node`.
    #[inline]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// Endpoints of `edge` as stored (source, target).
    #[inline]
    pub fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.index()];
        (e.src, e.dst)
    }

    /// Edge between `u` and `v`, if any. For undirected graphs the order of
    /// `u` and `v` does not matter.
    #[inline]
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.edge_index.get(&(u, v)).copied()
    }

    /// True when an edge `u → v` exists (either orientation if undirected).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_index.contains_key(&(u, v))
    }

    /// Out-neighbors of `node` as sorted `(neighbor, edge)` pairs. For
    /// undirected graphs this is the full neighbor set.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj_out[node.index()]
    }

    /// In-neighbors of `node` (predecessors). Equal to [`Self::neighbors`]
    /// for undirected graphs.
    #[inline]
    pub fn in_neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj_in[node.index()]
    }

    /// Degree of `node` (out-degree for directed graphs).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj_out[node.index()].len()
    }

    /// Total degree (in + out) — equals `degree` for undirected graphs,
    /// where each incident edge is already counted once in `adj_out`.
    #[inline]
    pub fn total_degree(&self, node: NodeId) -> usize {
        if self.is_undirected() {
            self.adj_out[node.index()].len()
        } else {
            self.adj_out[node.index()].len() + self.adj_in[node.index()].len()
        }
    }

    // ----- attributes ------------------------------------------------------

    /// Intern `name` in the schema and set it on `node`.
    pub fn set_node_attr(&mut self, node: NodeId, name: &str, value: impl Into<AttrValue>) {
        let id = self.schema.intern(name);
        self.nodes[node.index()].attrs.set(id, value.into());
    }

    /// Intern `name` in the schema and set it on `edge`.
    pub fn set_edge_attr(&mut self, edge: EdgeId, name: &str, value: impl Into<AttrValue>) {
        let id = self.schema.intern(name);
        self.edges[edge.index()].attrs.set(id, value.into());
    }

    /// Attribute of `node` by interned id.
    #[inline]
    pub fn node_attr(&self, node: NodeId, id: AttrId) -> Option<&AttrValue> {
        self.nodes[node.index()].attrs.get(id)
    }

    /// Attribute of `edge` by interned id.
    #[inline]
    pub fn edge_attr(&self, edge: EdgeId, id: AttrId) -> Option<&AttrValue> {
        self.edges[edge.index()].attrs.get(id)
    }

    /// Attribute of `node` by name (convenience; resolves through schema).
    pub fn node_attr_by_name(&self, node: NodeId, name: &str) -> Option<&AttrValue> {
        let id = self.schema.get(name)?;
        self.node_attr(node, id)
    }

    /// Attribute of `edge` by name (convenience; resolves through schema).
    pub fn edge_attr_by_name(&self, edge: EdgeId, name: &str) -> Option<&AttrValue> {
        let id = self.schema.get(name)?;
        self.edge_attr(edge, id)
    }

    /// All attributes of `node`.
    pub fn node_attrs(&self, node: NodeId) -> impl Iterator<Item = (AttrId, &AttrValue)> {
        self.nodes[node.index()].attrs.iter()
    }

    /// All attributes of `edge`.
    pub fn edge_attrs(&self, edge: EdgeId) -> impl Iterator<Item = (AttrId, &AttrValue)> {
        self.edges[edge.index()].attrs.iter()
    }

    // ----- derived graphs --------------------------------------------------

    /// Build the subgraph induced by `nodes`, copying attributes and
    /// carrying node names over. Returns the new network plus, for each new
    /// node index, the original [`NodeId`] it came from.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Network, Vec<NodeId>) {
        let mut sub = Network::new(self.direction);
        sub.set_name(format!("{}-sub", self.name));
        let mut old_to_new: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        let mut origin = Vec::with_capacity(nodes.len());
        for &old in nodes {
            let new = sub.add_node(self.node_name(old).to_string());
            old_to_new.insert(old, new);
            origin.push(old);
            for (aid, v) in self.node_attrs(old) {
                let name = self.schema.name(aid).to_string();
                sub.set_node_attr(new, &name, v.clone());
            }
        }
        for e in self.edge_refs() {
            let (Some(&ns), Some(&nd)) = (old_to_new.get(&e.src), old_to_new.get(&e.dst)) else {
                continue;
            };
            // For undirected graphs the edge index contains both
            // orientations but `edge_refs` yields each edge once.
            let new_e = sub.add_edge(ns, nd);
            for (aid, v) in self.edge_attrs(e.id) {
                let name = self.schema.name(aid).to_string();
                sub.set_edge_attr(new_e, &name, v.clone());
            }
        }
        (sub, origin)
    }
}

fn insert_sorted(list: &mut Vec<(NodeId, EdgeId)>, item: (NodeId, EdgeId)) {
    match list.binary_search(&item) {
        Ok(_) => {}
        Err(pos) => list.insert(pos, item),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3(direction: Direction) -> Network {
        let mut g = Network::new(direction);
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g
    }

    #[test]
    fn undirected_edge_lookup_is_symmetric() {
        let g = path3(Direction::Undirected);
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(g.find_edge(a, b), g.find_edge(b, a));
        assert!(g.has_edge(b, a));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn directed_edge_lookup_is_asymmetric() {
        let g = path3(Direction::Directed);
        let (a, b) = (NodeId(0), NodeId(1));
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
    }

    #[test]
    fn neighbors_sorted_and_degree() {
        let mut g = Network::new(Direction::Undirected);
        let hub = g.add_node("hub");
        let others: Vec<NodeId> = (0..5).map(|i| g.add_node(format!("n{i}"))).collect();
        // Insert in reverse to exercise the sorted insert.
        for &o in others.iter().rev() {
            g.add_edge(hub, o);
        }
        let ns: Vec<NodeId> = g.neighbors(hub).iter().map(|(n, _)| *n).collect();
        let mut expect = others.clone();
        expect.sort();
        assert_eq!(ns, expect);
        assert_eq!(g.degree(hub), 5);
        assert_eq!(g.total_degree(hub), 5);
    }

    #[test]
    fn directed_in_out_neighbors() {
        let g = path3(Direction::Directed);
        let b = NodeId(1);
        assert_eq!(g.neighbors(b).len(), 1);
        assert_eq!(g.in_neighbors(b).len(), 1);
        assert_eq!(g.total_degree(b), 2);
    }

    #[test]
    fn attrs_round_trip() {
        let mut g = path3(Direction::Undirected);
        let a = NodeId(0);
        let e = EdgeId(0);
        g.set_node_attr(a, "osType", "linux-2.6");
        g.set_edge_attr(e, "avgDelay", 12.5);
        assert_eq!(
            g.node_attr_by_name(a, "osType").and_then(AttrValue::as_str),
            Some("linux-2.6")
        );
        assert_eq!(
            g.edge_attr_by_name(e, "avgDelay")
                .and_then(AttrValue::as_num),
            Some(12.5)
        );
        assert_eq!(g.node_attr_by_name(a, "missing"), None);
    }

    #[test]
    fn node_by_name() {
        let g = path3(Direction::Undirected);
        assert_eq!(g.node_by_name("b"), Some(NodeId(1)));
        assert_eq!(g.node_by_name("zz"), None);
        assert_eq!(g.node_name(NodeId(2)), "c");
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut g = path3(Direction::Undirected);
        g.add_edge(NodeId(1), NodeId(0)); // (a,b) exists as undirected
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_panics() {
        let mut g = path3(Direction::Undirected);
        g.add_edge(NodeId(0), NodeId(0));
    }

    #[test]
    fn induced_subgraph_preserves_attrs_and_edges() {
        let mut g = Network::new(Direction::Undirected);
        let n: Vec<NodeId> = (0..4).map(|i| g.add_node(format!("v{i}"))).collect();
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            let e = g.add_edge(n[u], n[v]);
            g.set_edge_attr(e, "avgDelay", (u * 10 + v) as f64);
        }
        g.set_node_attr(n[1], "cpu", 2.0);

        let (sub, origin) = g.induced_subgraph(&[n[0], n[1], n[3]]);
        assert_eq!(sub.node_count(), 3);
        // Edges kept: (0,1) and (0,3); edge (1,2),(2,3) dropped.
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(origin, vec![n[0], n[1], n[3]]);
        let b = sub.node_by_name("v1").unwrap();
        assert_eq!(
            sub.node_attr_by_name(b, "cpu").and_then(AttrValue::as_num),
            Some(2.0)
        );
        let e = sub
            .find_edge(sub.node_by_name("v0").unwrap(), b)
            .expect("edge v0-v1 kept");
        assert_eq!(
            sub.edge_attr_by_name(e, "avgDelay")
                .and_then(AttrValue::as_num),
            Some(1.0)
        );
    }

    #[test]
    fn edge_refs_enumerates_each_edge_once() {
        let g = path3(Direction::Undirected);
        let refs: Vec<EdgeRef> = g.edge_refs().collect();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].id, EdgeId(0));
        assert_eq!((refs[1].src, refs[1].dst), (NodeId(1), NodeId(2)));
    }
}
