//! Multilevel substrate hierarchy: repeated coarsening of the host
//! network plus a top-down refinement search.
//!
//! A [`SubstrateHierarchy`] groups host nodes into super-nodes by
//! deterministic greedy matching, level by level, roughly halving the
//! node count each time. Every super-node and super-edge carries
//! *conservatively aggregated* attribute bounds
//! ([`cexpr::BoundsMap`]): a coarse element's bounds contain the exact
//! attribute values of every member, so abstract constraint
//! evaluation ([`cexpr::Compiled::abs_edge`] /
//! [`cexpr::Compiled::abs_node`]) returning
//! [`Verdict::Infeasible`] is a sound prune — no concrete solution
//! can live inside a pruned subtree (coarse-feasible ⊇ fine-feasible).
//!
//! [`SubstrateHierarchy::refine`] walks the hierarchy from the
//! coarsest level down: per query node it keeps a domain of candidate
//! super-nodes (degree gate + abstract node constraint), runs
//! arc-consistency over the query edges using abstract edge verdicts
//! on super-arcs, and descends only into the children of surviving
//! super-nodes. The finest level's survivors expand into per-query-node
//! host [`NodeBitSet`]s that restrict the exact filter build
//! ([`FilterMatrix::build_restricted`](crate::FilterMatrix)), so the
//! exhaustive search touches a small fraction of the full
//! `O(|VQ|·|VR|)` matrix on large substrates.
//!
//! ## Repair
//!
//! [`SubstrateHierarchy::patch`] carries a hierarchy across a model
//! change without re-coarsening. The greedy matching reads topology
//! only, never attributes, and [`BoundsMap::merge_from`] is a lattice
//! join (min/max, OR-ed flags, bounded string-set union), so as long
//! as the grouping holds, re-aggregating a super-node from its
//! children reproduces a fresh build exactly. Two preconditions make
//! the grouping hold:
//!
//! * **Topology.** The node count and every dirty node's `neighbors`
//!   and `in_neighbors` id lists are unchanged. The hierarchy keeps
//!   the host arc lists it coarsened from and checks this; if it
//!   fails, `patch` returns `None` and the caller rebuilds.
//! * **Dirty set.** The dirty nodes cover every change: each mutated
//!   node, and both endpoints of each mutated edge (the service's
//!   `DirtySet` contract). Under it, an edge between two clean nodes
//!   kept its attributes and its existence, which `patch` cannot
//!   check.
//!
//! A patch re-aggregates bottom-up: the parents of the dirty nodes,
//! then their parents, and so on, along with the super-arcs that
//! aggregate a changed arc. It stops at the first level where every
//! recomputed bound equals the stored one. Each level is an
//! `Arc`-shared attribute-free shape plus bounds held in `Arc`-shared
//! chunks, so the patched hierarchy copies pointers and only the
//! chunks it writes; it shares the rest with the hierarchy it came
//! from.

use std::borrow::Cow;
use std::ops::Index;
use std::sync::Arc;

use cexpr::{AbsEdgeCtx, AbsNodeCtx, BoundsMap, Verdict};
use netgraph::{Network, NodeBitSet, NodeId};
use rustc_hash::FxHashMap;

use crate::deadline::Deadline;
use crate::problem::Problem;
use crate::stats::SearchStats;

/// Knobs controlling hierarchy construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchySpec {
    /// Maximum number of coarsening levels to build.
    pub max_levels: usize,
    /// Stop coarsening once a level has at most this many super-nodes.
    pub min_nodes: usize,
}

impl Default for HierarchySpec {
    fn default() -> Self {
        Self {
            max_levels: 16,
            min_nodes: 64,
        }
    }
}

/// Entries per `Arc`-shared chunk of a level's bounds.
const CHUNK: usize = 64;

/// A vector stored as `Arc`-shared fixed-size chunks: a clone copies
/// chunk pointers, and a write copies only the chunk it lands in. A
/// patched hierarchy shares every chunk it did not write with the
/// hierarchy it was patched from.
#[derive(Clone, PartialEq)]
struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T: Clone> Chunked<T> {
    fn new(items: Vec<T>) -> Self {
        let mut chunks = Vec::with_capacity(items.len().div_ceil(CHUNK));
        let mut items = items.into_iter();
        loop {
            let chunk: Vec<T> = items.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(Arc::new(chunk));
        }
        Chunked { chunks }
    }

    fn set(&mut self, i: usize, value: T) {
        Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK] = value;
    }
}

impl<T> Index<usize> for Chunked<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

/// The attribute-free shape of one level: everything the matching,
/// the degree gate and the arc walks read. `child` indices point into
/// the next finer layer; at level 0 they are host node indices. A
/// repair never changes a shape, so patched hierarchies share it.
#[derive(PartialEq, Eq)]
struct Shape {
    /// Number of super-nodes.
    n: usize,
    /// CSR offsets into `child`.
    child_off: Vec<u32>,
    /// Member indices in the next finer layer (host ids at level 0).
    child: Vec<u32>,
    /// Super-node of each member of the next finer layer: `child`
    /// inverted.
    parent: Vec<u32>,
    /// Max out-degree (host `neighbors`) over member host nodes.
    max_out: Vec<u32>,
    /// Max in-degree (host `in_neighbors`) over member host nodes.
    max_in: Vec<u32>,
    /// Super-arc endpoints, sorted by `(src, dst)`, `src != dst`.
    arc_src: Vec<u32>,
    arc_dst: Vec<u32>,
    /// CSR over the arc list grouped by `src`.
    out_off: Vec<u32>,
    /// CSR over `in_arc` grouped by `dst`.
    in_off: Vec<u32>,
    /// Arc indices sorted by `(dst, src)`.
    in_arc: Vec<u32>,
}

impl Shape {
    fn children(&self, sup: usize) -> &[u32] {
        &self.child[self.child_off[sup] as usize..self.child_off[sup + 1] as usize]
    }

    fn out_arcs(&self, sup: usize) -> std::ops::Range<usize> {
        self.out_off[sup] as usize..self.out_off[sup + 1] as usize
    }

    fn in_arcs(&self, sup: usize) -> &[u32] {
        &self.in_arc[self.in_off[sup] as usize..self.in_off[sup + 1] as usize]
    }

    /// Whether `v`'s arcs in `host` are exactly the arcs this (identity)
    /// shape recorded for it, in both directions.
    fn same_arcs(&self, host: &Network, v: NodeId) -> bool {
        let out = self.out_arcs(v.index()).map(|a| self.arc_dst[a]);
        let ins = self
            .in_arcs(v.index())
            .iter()
            .map(|&a| self.arc_src[a as usize]);
        out.eq(host.neighbors(v).iter().map(|&(w, _)| w.0))
            && ins.eq(host.in_neighbors(v).iter().map(|&(w, _)| w.0))
    }
}

/// One coarsening level: a shared shape plus its aggregated bounds.
#[derive(Clone, PartialEq)]
struct Level {
    shape: Arc<Shape>,
    /// Aggregated node-attribute bounds per super-node.
    node_bounds: Chunked<BoundsMap>,
    /// Aggregated bounds over member edges *internal* to the
    /// super-node; `None` when no internal edge exists.
    self_bounds: Chunked<Option<BoundsMap>>,
    /// Aggregated edge bounds per super-arc.
    arc_bounds: Chunked<BoundsMap>,
}

impl Level {
    /// The identity level: one super-node per host node. Only its
    /// shape is stored (as the host topology a patch checks); its
    /// bounds seed the first `coarsen` call.
    fn identity(host: &Network) -> Level {
        let n = host.node_count();
        let mut max_out = Vec::with_capacity(n);
        let mut max_in = Vec::with_capacity(n);
        let mut node_bounds = Vec::with_capacity(n);
        for v in host.node_ids() {
            max_out.push(host.neighbors(v).len() as u32);
            max_in.push(host.in_neighbors(v).len() as u32);
            node_bounds.push(BoundsMap::from_node(host, v));
        }
        // `neighbors` lists are sorted, so iterating nodes in order
        // yields arcs already sorted by (src, dst). Undirected edges
        // appear in both endpoint lists and thus as both arcs.
        let mut arc_src = Vec::new();
        let mut arc_dst = Vec::new();
        let mut arc_bounds: Vec<BoundsMap> = Vec::new();
        for u in host.node_ids() {
            for &(w, e) in host.neighbors(u) {
                if w == u {
                    continue; // self-loops carry no pairwise cell
                }
                let b = BoundsMap::from_edge(host, e);
                if arc_src.last() == Some(&u.0) && arc_dst.last() == Some(&w.0) {
                    // parallel edge between the same ordered pair
                    arc_bounds.last_mut().expect("arc exists").merge_from(&b);
                } else {
                    arc_src.push(u.0);
                    arc_dst.push(w.0);
                    arc_bounds.push(b);
                }
            }
        }
        let (out_off, in_off, in_arc) = build_arc_csr(n, &arc_src, &arc_dst);
        Level {
            shape: Arc::new(Shape {
                n,
                child_off: Vec::new(),
                child: Vec::new(),
                parent: Vec::new(),
                max_out,
                max_in,
                arc_src,
                arc_dst,
                out_off,
                in_off,
                in_arc,
            }),
            node_bounds: Chunked::new(node_bounds),
            self_bounds: Chunked::new(vec![None; n]),
            arc_bounds: Chunked::new(arc_bounds),
        }
    }

    /// Re-aggregate this level's bounds over `fine` (the layer it
    /// coarsens), given the fine elements whose bounds may have
    /// changed: nodes by id, arcs by `(src, dst)`. Writes only bounds
    /// that really differ, and returns this level's changed nodes and
    /// arcs in the same form, for the level above.
    fn repair(
        &mut self,
        fine: &Fine<'_>,
        nodes: &[u32],
        arcs: &[(u32, u32)],
    ) -> (Vec<u32>, Vec<(u32, u32)>) {
        let shape = Arc::clone(&self.shape);
        let parent = &shape.parent;
        let mut sups: Vec<u32> = nodes.iter().map(|&u| parent[u as usize]).collect();
        let mut super_arcs = Vec::new();
        for &(u, w) in arcs {
            let (s, t) = (parent[u as usize], parent[w as usize]);
            if s == t {
                sups.push(s); // an internal arc: the self bounds move
            } else {
                super_arcs.push((s, t));
            }
        }
        sups.sort_unstable();
        sups.dedup();
        super_arcs.sort_unstable();
        super_arcs.dedup();

        let mut changed_nodes = Vec::new();
        for &g in &sups {
            let g_us = g as usize;
            let mut node: Option<BoundsMap> = None;
            let mut internal: Option<BoundsMap> = None;
            for &c in shape.children(g_us) {
                merge_opt(&mut node, &fine.node(c));
                if let Some(b) = fine.self_bounds(c) {
                    merge_opt(&mut internal, b);
                }
                fine.fold_out(c, std::slice::from_mut(&mut internal), |w| {
                    (parent[w as usize] == g).then_some(0)
                });
            }
            let node = node.expect("every group has a member");
            if node != self.node_bounds[g_us] || internal != self.self_bounds[g_us] {
                self.node_bounds.set(g_us, node);
                self.self_bounds.set(g_us, internal);
                changed_nodes.push(g);
            }
        }

        // Super-arcs grouped by source: one pass over the source's
        // members' arcs re-aggregates every wanted arc it emits.
        let mut changed_arcs = Vec::new();
        for group in super_arcs.chunk_by(|a, b| a.0 == b.0) {
            let s = group[0].0;
            let mut acc: Vec<Option<BoundsMap>> = vec![None; group.len()];
            for &c in shape.children(s as usize) {
                fine.fold_out(c, &mut acc, |w| {
                    group
                        .binary_search_by_key(&parent[w as usize], |&(_, t)| t)
                        .ok()
                });
            }
            let range = shape.out_arcs(s as usize);
            let dsts = &shape.arc_dst[range.clone()];
            for (&(_, t), b) in group.iter().zip(acc) {
                let pos = dsts
                    .binary_search(&t)
                    .expect("a fine arc maps to a super-arc");
                let a = range.start + pos;
                let b = b.expect("every super-arc aggregates a fine arc");
                if b != self.arc_bounds[a] {
                    self.arc_bounds.set(a, b);
                    changed_arcs.push((s, t));
                }
            }
        }
        (changed_nodes, changed_arcs)
    }
}

/// The layer a level aggregates, as [`Level::repair`] reads it: the
/// host itself under level 0 (whose identity bounds are not stored),
/// the next finer level above that.
enum Fine<'a> {
    Host(&'a Network),
    Level(&'a Level),
}

impl Fine<'_> {
    fn node(&self, u: u32) -> Cow<'_, BoundsMap> {
        match self {
            Fine::Host(host) => Cow::Owned(BoundsMap::from_node(host, NodeId(u))),
            Fine::Level(l) => Cow::Borrowed(&l.node_bounds[u as usize]),
        }
    }

    fn self_bounds(&self, u: u32) -> Option<&BoundsMap> {
        match self {
            Fine::Host(_) => None,
            Fine::Level(l) => l.self_bounds[u as usize].as_ref(),
        }
    }

    /// Merge the bounds of every arc leaving `u` into `acc[slot(dst)]`,
    /// skipping arcs whose `slot` is `None`.
    fn fold_out(&self, u: u32, acc: &mut [Option<BoundsMap>], slot: impl Fn(u32) -> Option<usize>) {
        match self {
            Fine::Host(host) => {
                for &(w, e) in host.neighbors(NodeId(u)) {
                    if let Some(k) = slot(w.0) {
                        merge_opt(&mut acc[k], &BoundsMap::from_edge(host, e));
                    }
                }
            }
            Fine::Level(l) => {
                for a in l.shape.out_arcs(u as usize) {
                    if let Some(k) = slot(l.shape.arc_dst[a]) {
                        merge_opt(&mut acc[k], &l.arc_bounds[a]);
                    }
                }
            }
        }
    }
}

/// Build the out-CSR and in-CSR over an arc list sorted by `(src, dst)`.
fn build_arc_csr(n: usize, arc_src: &[u32], arc_dst: &[u32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let m = arc_src.len();
    let mut out_off = vec![0u32; n + 1];
    for &s in arc_src {
        out_off[s as usize + 1] += 1;
    }
    for i in 0..n {
        out_off[i + 1] += out_off[i];
    }
    let mut in_count = vec![0u32; n + 1];
    for &d in arc_dst {
        in_count[d as usize + 1] += 1;
    }
    for i in 0..n {
        in_count[i + 1] += in_count[i];
    }
    let in_off = in_count.clone();
    let mut cursor = in_count;
    let mut in_arc = vec![0u32; m];
    for (idx, &d) in arc_dst.iter().enumerate() {
        let slot = cursor[d as usize];
        in_arc[slot as usize] = idx as u32;
        cursor[d as usize] += 1;
    }
    (out_off, in_off, in_arc)
}

/// Coarsen one level by greedy matching: scan nodes in ascending id
/// order, pair each unmatched node with its first unmatched neighbor
/// (out first, then in), then pair leftover singletons with each other
/// so every level at least halves (up to rounding). Deterministic by
/// construction, and a function of the fine shape alone.
fn coarsen(fine: &Level) -> Level {
    let fs = &*fine.shape;
    let n = fs.n;
    const UNMATCHED: u32 = u32::MAX;
    let mut partner = vec![UNMATCHED; n];
    for u in 0..n {
        if partner[u] != UNMATCHED {
            continue;
        }
        let mut found = None;
        for a in fs.out_arcs(u) {
            let w = fs.arc_dst[a] as usize;
            if w != u && partner[w] == UNMATCHED {
                found = Some(w);
                break;
            }
        }
        if found.is_none() {
            for &a in fs.in_arcs(u) {
                let w = fs.arc_src[a as usize] as usize;
                if w != u && partner[w] == UNMATCHED {
                    found = Some(w);
                    break;
                }
            }
        }
        if let Some(w) = found {
            partner[u] = w as u32;
            partner[w] = u as u32;
        }
    }
    // Pair leftover singletons (ascending) so progress is guaranteed
    // even on stars and other matchings-resistant shapes.
    let mut prev_single: Option<usize> = None;
    for u in 0..n {
        if partner[u] != UNMATCHED {
            continue;
        }
        match prev_single.take() {
            None => prev_single = Some(u),
            Some(p) => {
                partner[p] = u as u32;
                partner[u] = p as u32;
            }
        }
    }
    // Assign coarse ids in ascending order of each group's smallest
    // member, so the mapping is stable and deterministic.
    const UNSET: u32 = u32::MAX;
    let mut parent = vec![UNSET; n];
    let mut n_new = 0u32;
    for u in 0..n {
        if parent[u] != UNSET {
            continue;
        }
        parent[u] = n_new;
        if partner[u] != UNMATCHED {
            parent[partner[u] as usize] = n_new;
        }
        n_new += 1;
    }
    let n_new = n_new as usize;

    // Children CSR + aggregated node state.
    let mut child_off = vec![0u32; n_new + 1];
    for &g in &parent {
        child_off[g as usize + 1] += 1;
    }
    for i in 0..n_new {
        child_off[i + 1] += child_off[i];
    }
    let mut cursor = child_off.clone();
    let mut child = vec![0u32; n];
    for (u, &g) in parent.iter().enumerate() {
        child[cursor[g as usize] as usize] = u as u32;
        cursor[g as usize] += 1;
    }

    let mut max_out = vec![0u32; n_new];
    let mut max_in = vec![0u32; n_new];
    let mut node_bounds: Vec<Option<BoundsMap>> = vec![None; n_new];
    let mut self_bounds: Vec<Option<BoundsMap>> = vec![None; n_new];
    for (u, &g) in parent.iter().enumerate() {
        let g = g as usize;
        max_out[g] = max_out[g].max(fs.max_out[u]);
        max_in[g] = max_in[g].max(fs.max_in[u]);
        merge_opt(&mut node_bounds[g], &fine.node_bounds[u]);
        if let Some(sb) = &fine.self_bounds[u] {
            merge_opt(&mut self_bounds[g], sb);
        }
    }
    let node_bounds: Vec<BoundsMap> = node_bounds
        .into_iter()
        .map(|b| b.expect("every group has a member"))
        .collect();

    // Super-arcs: fine arcs between distinct groups, sorted by
    // (src group, dst group, fine arc), fold run by run; intra-group
    // arcs fold into the group's self bounds.
    let mut cross: Vec<(u32, u32, u32)> = Vec::new();
    for a in 0..fs.arc_src.len() {
        let gs = parent[fs.arc_src[a] as usize];
        let gd = parent[fs.arc_dst[a] as usize];
        if gs == gd {
            merge_opt(&mut self_bounds[gs as usize], &fine.arc_bounds[a]);
        } else {
            cross.push((gs, gd, a as u32));
        }
    }
    cross.sort_unstable();
    let mut arc_src: Vec<u32> = Vec::new();
    let mut arc_dst: Vec<u32> = Vec::new();
    let mut arc_bounds: Vec<BoundsMap> = Vec::new();
    for (s, d, a) in cross {
        let b = &fine.arc_bounds[a as usize];
        if arc_src.last() == Some(&s) && arc_dst.last() == Some(&d) {
            arc_bounds.last_mut().expect("arc exists").merge_from(b);
        } else {
            arc_src.push(s);
            arc_dst.push(d);
            arc_bounds.push(b.clone());
        }
    }
    let (out_off, in_off, in_arc) = build_arc_csr(n_new, &arc_src, &arc_dst);
    Level {
        shape: Arc::new(Shape {
            n: n_new,
            child_off,
            child,
            parent,
            max_out,
            max_in,
            arc_src,
            arc_dst,
            out_off,
            in_off,
            in_arc,
        }),
        node_bounds: Chunked::new(node_bounds),
        self_bounds: Chunked::new(self_bounds),
        arc_bounds: Chunked::new(arc_bounds),
    }
}

fn merge_opt(dst: &mut Option<BoundsMap>, src: &BoundsMap) {
    match dst {
        None => *dst = Some(src.clone()),
        Some(d) => d.merge_from(src),
    }
}

/// Outcome of [`SubstrateHierarchy::refine`].
#[derive(Debug)]
pub enum Refinement {
    /// Some query node's domain emptied at a coarse level: the problem
    /// has **no** solution (the prune is sound), without ever touching
    /// the full filter matrix.
    Infeasible,
    /// Per-query-node host candidate sets covering every solution;
    /// feed to [`FilterMatrix::build_restricted`](crate::FilterMatrix).
    Restricted(Vec<NodeBitSet>),
    /// The deadline expired during refinement.
    TimedOut,
}

/// A multilevel coarsening of one host network. Build once per
/// `(host, epoch)` — construction only reads the host, so the same
/// hierarchy serves every query against that snapshot — and
/// [`patch`](SubstrateHierarchy::patch) it forward across tracked
/// attribute changes. Equality compares every level's shape and
/// bounds, so a patched hierarchy can be checked against a fresh
/// build. Cloning is cheap: shapes and bound chunks are shared.
#[derive(Clone, PartialEq)]
pub struct SubstrateHierarchy {
    /// The host's own shape (identity level, no bounds): the topology
    /// a patch must find unchanged at every dirty node.
    host: Arc<Shape>,
    /// `levels[0]` is the finest coarsening (children are host node
    /// ids); the last entry is the coarsest.
    levels: Vec<Level>,
}

impl SubstrateHierarchy {
    /// Coarsen `host` until a level has at most `spec.min_nodes`
    /// super-nodes or `spec.max_levels` levels exist.
    pub fn build(host: &Network, spec: &HierarchySpec) -> Self {
        let floor = spec.min_nodes.max(1);
        let identity = Level::identity(host);
        let mut levels: Vec<Level> = Vec::new();
        while levels.len() < spec.max_levels {
            let fine = levels.last().unwrap_or(&identity);
            if fine.shape.n <= floor {
                break;
            }
            let coarse = coarsen(fine);
            if coarse.shape.n >= fine.shape.n {
                break;
            }
            levels.push(coarse);
        }
        SubstrateHierarchy {
            host: identity.shape,
            levels,
        }
    }

    /// This hierarchy repaired for `host`, a later version of the
    /// host it was built from in which only attributes of `dirty`
    /// nodes and of edges between them changed (module docs,
    /// "Repair"). Re-aggregates only the ancestors of what changed,
    /// level by level, stopping where a bound comes out equal, and
    /// shares everything else with `self`. Returns `None` when the
    /// window may have changed the matching: the node count changed,
    /// a dirty id is out of range, or a dirty node's arc lists differ.
    /// `Some(h)` equals `SubstrateHierarchy::build(host, spec)` under
    /// the spec `self` was built with.
    pub fn patch(&self, host: &Network, dirty: &[NodeId]) -> Option<SubstrateHierarchy> {
        if host.node_count() != self.host.n {
            return None;
        }
        let mut nodes: Vec<u32> = dirty.iter().map(|v| v.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes
            .iter()
            .any(|&v| v as usize >= self.host.n || !self.host.same_arcs(host, NodeId(v)))
        {
            return None;
        }
        // A mutated edge has both endpoints dirty, so the arcs leaving
        // dirty nodes cover every arc whose attributes may have changed.
        let hs = &*self.host;
        let mut arcs: Vec<(u32, u32)> = nodes
            .iter()
            .flat_map(|&v| hs.out_arcs(v as usize).map(move |a| (v, hs.arc_dst[a])))
            .collect();
        let mut patched = self.clone();
        for li in 0..patched.levels.len() {
            if nodes.is_empty() && arcs.is_empty() {
                break;
            }
            let (finer, rest) = patched.levels.split_at_mut(li);
            let fine = finer.last().map_or(Fine::Host(host), Fine::Level);
            (nodes, arcs) = rest[0].repair(&fine, &nodes, &arcs);
        }
        Some(patched)
    }

    /// Number of coarsening levels (0 when the host was already at or
    /// below the `min_nodes` floor).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Host node count this hierarchy was built from.
    pub fn host_nodes(&self) -> usize {
        self.host.n
    }

    /// Super-node count at `level` (0 = finest).
    pub fn level_size(&self, level: usize) -> usize {
        self.levels[level].shape.n
    }

    /// Super-node counts from finest to coarsest.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.shape.n).collect()
    }

    /// All host leaves under super-node `sup` of `level`, ascending.
    pub fn leaf_members(&self, level: usize, sup: usize) -> Vec<NodeId> {
        let mut frontier = vec![sup as u32];
        for li in (0..=level).rev() {
            let shape = &self.levels[li].shape;
            let mut next = Vec::new();
            for &s in &frontier {
                next.extend_from_slice(shape.children(s as usize));
            }
            frontier = next;
        }
        frontier.sort_unstable();
        frontier.into_iter().map(NodeId).collect()
    }

    /// Aggregated node bounds of super-node `sup` at `level`.
    pub fn node_bounds(&self, level: usize, sup: usize) -> &BoundsMap {
        &self.levels[level].node_bounds[sup]
    }

    /// Aggregated bounds of edges internal to super-node `sup`.
    pub fn self_bounds(&self, level: usize, sup: usize) -> Option<&BoundsMap> {
        self.levels[level].self_bounds[sup].as_ref()
    }

    /// Aggregated bounds of the super-arc `s → t`, if present.
    pub fn arc_bounds_between(&self, level: usize, s: usize, t: usize) -> Option<&BoundsMap> {
        let lvl = &self.levels[level];
        lvl.shape
            .out_arcs(s)
            .find(|&a| lvl.shape.arc_dst[a] == t as u32)
            .map(|a| &lvl.arc_bounds[a])
    }

    /// Top-down refinement: per-query-node candidate domains are
    /// filtered (degree gate + abstract node constraint) and propagated
    /// to arc-consistency with abstract edge verdicts at each level,
    /// descending only into surviving super-nodes' children.
    ///
    /// Updates `stats` hierarchy counters (`hier_levels`,
    /// `hier_pruned`, `hier_expanded_cells`, `hier_full_cells`) plus
    /// `constraint_evals`/`prunes` for the abstract work performed.
    pub fn refine(
        &self,
        problem: &Problem<'_>,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
    ) -> Refinement {
        let q = problem.query;
        let nq = problem.nq();
        stats.hier_levels = self.levels.len() as u64;
        stats.hier_full_cells = (nq as u64) * (self.host.n as u64);
        if self.levels.is_empty() {
            let allowed: Vec<NodeBitSet> = (0..nq).map(|_| NodeBitSet::full(self.host.n)).collect();
            stats.hier_expanded_cells = stats.hier_full_cells;
            return Refinement::Restricted(allowed);
        }

        let q_out: Vec<u32> = q.node_ids().map(|v| q.neighbors(v).len() as u32).collect();
        let q_in: Vec<u32> = q
            .node_ids()
            .map(|v| q.in_neighbors(v).len() as u32)
            .collect();
        let qedges: Vec<netgraph::EdgeRef> = q.edge_refs().collect();

        let mut pruned_total = 0u64;
        let mut prev: Option<Vec<NodeBitSet>> = None;
        for li in (0..self.levels.len()).rev() {
            if deadline.check_now() {
                return Refinement::TimedOut;
            }
            let lvl = &self.levels[li];
            let shape = &*lvl.shape;
            // Seed this level's domains: every super-node at the
            // coarsest level, else the children of coarser survivors.
            let mut domains: Vec<NodeBitSet> = Vec::with_capacity(nq);
            let mut considered = 0u64;
            let mut admitted = 0u64;
            for v in 0..nq {
                let mut dom = NodeBitSet::new(shape.n);
                let mut admit = |s: usize, stats: &mut SearchStats| {
                    considered += 1;
                    if shape.max_out[s] < q_out[v] || shape.max_in[s] < q_in[v] {
                        return;
                    }
                    if let Some(node_expr) = problem.node_expr() {
                        stats.constraint_evals += 1;
                        let verdict = node_expr.abs_node(&AbsNodeCtx {
                            q,
                            v_node: NodeId(v as u32),
                            r_node: &lvl.node_bounds[s],
                        });
                        if verdict == Verdict::Infeasible {
                            return;
                        }
                    }
                    admitted += 1;
                    dom.insert(NodeId(s as u32));
                };
                match &prev {
                    None => {
                        for s in 0..shape.n {
                            admit(s, stats);
                        }
                    }
                    Some(coarser) => {
                        let coarser_lvl = &self.levels[li + 1];
                        for sup in coarser[v].iter() {
                            for &c in coarser_lvl.shape.children(sup.index()) {
                                admit(c as usize, stats);
                            }
                        }
                    }
                }
                if dom.is_empty() {
                    stats.hier_pruned = pruned_total + (considered - admitted);
                    return Refinement::Infeasible;
                }
                domains.push(dom);
            }
            pruned_total += considered - admitted;

            // Arc-consistency over query edges with lazily memoized
            // abstract super-arc verdicts (true = Maybe).
            let mut arc_memo: FxHashMap<(u32, u32), bool> = FxHashMap::default();
            let mut self_memo: FxHashMap<(u32, u32), bool> = FxHashMap::default();
            let mut changed = true;
            while changed {
                changed = false;
                for (ei, e) in qedges.iter().enumerate() {
                    if deadline.expired() {
                        return Refinement::TimedOut;
                    }
                    let (a, b) = (e.src.index(), e.dst.index());
                    let edge_maybe =
                        |arc: usize,
                         stats: &mut SearchStats,
                         memo: &mut FxHashMap<(u32, u32), bool>| {
                            *memo.entry((ei as u32, arc as u32)).or_insert_with(|| {
                                stats.constraint_evals += 1;
                                let verdict = problem.edge_expr().abs_edge(&AbsEdgeCtx {
                                    q,
                                    v_edge: e.id,
                                    v_src: e.src,
                                    v_dst: e.dst,
                                    r_edge: &lvl.arc_bounds[arc],
                                    r_src: &lvl.node_bounds[shape.arc_src[arc] as usize],
                                    r_dst: &lvl.node_bounds[shape.arc_dst[arc] as usize],
                                });
                                verdict == Verdict::Maybe
                            })
                        };
                    let self_maybe =
                        |s: usize,
                         stats: &mut SearchStats,
                         memo: &mut FxHashMap<(u32, u32), bool>| {
                            *memo.entry((ei as u32, s as u32)).or_insert_with(|| {
                                let Some(sb) = &lvl.self_bounds[s] else {
                                    return false;
                                };
                                stats.constraint_evals += 1;
                                let verdict = problem.edge_expr().abs_edge(&AbsEdgeCtx {
                                    q,
                                    v_edge: e.id,
                                    v_src: e.src,
                                    v_dst: e.dst,
                                    r_edge: sb,
                                    r_src: &lvl.node_bounds[s],
                                    r_dst: &lvl.node_bounds[s],
                                });
                                verdict == Verdict::Maybe
                            })
                        };

                    // Revise the source side: S ∈ D_a needs an out-arc
                    // to some T ∈ D_b (or an internal edge when the
                    // whole query edge fits inside S).
                    let mut dropped: Vec<NodeId> = Vec::new();
                    for sid in domains[a].iter() {
                        let s = sid.index();
                        let mut supported = false;
                        for arc in shape.out_arcs(s) {
                            let t = shape.arc_dst[arc] as usize;
                            if domains[b].contains(NodeId(t as u32))
                                && edge_maybe(arc, stats, &mut arc_memo)
                            {
                                supported = true;
                                break;
                            }
                        }
                        if !supported
                            && domains[b].contains(sid)
                            && self_maybe(s, stats, &mut self_memo)
                        {
                            supported = true;
                        }
                        if !supported {
                            dropped.push(sid);
                        }
                    }
                    for sid in dropped.drain(..) {
                        domains[a].remove(sid);
                        stats.prunes += 1;
                        pruned_total += 1;
                        changed = true;
                    }
                    if domains[a].is_empty() {
                        stats.hier_pruned = pruned_total;
                        return Refinement::Infeasible;
                    }

                    // Revise the target side via in-arcs.
                    for tid in domains[b].iter() {
                        let t = tid.index();
                        let mut supported = false;
                        for &arc in shape.in_arcs(t) {
                            let arc = arc as usize;
                            let s = shape.arc_src[arc] as usize;
                            if domains[a].contains(NodeId(s as u32))
                                && edge_maybe(arc, stats, &mut arc_memo)
                            {
                                supported = true;
                                break;
                            }
                        }
                        if !supported
                            && domains[a].contains(tid)
                            && self_maybe(t, stats, &mut self_memo)
                        {
                            supported = true;
                        }
                        if !supported {
                            dropped.push(tid);
                        }
                    }
                    for tid in dropped.drain(..) {
                        domains[b].remove(tid);
                        stats.prunes += 1;
                        pruned_total += 1;
                        changed = true;
                    }
                    if domains[b].is_empty() {
                        stats.hier_pruned = pruned_total;
                        return Refinement::Infeasible;
                    }
                }
            }
            prev = Some(domains);
        }

        // Expand level-0 survivors into host candidate sets.
        let lvl0 = &self.levels[0];
        let domains = prev.expect("at least one level was refined");
        let mut allowed = Vec::with_capacity(nq);
        let mut expanded = 0u64;
        for dom in &domains {
            let mut bs = NodeBitSet::new(self.host.n);
            for sup in dom.iter() {
                for &c in lvl0.shape.children(sup.index()) {
                    bs.insert(NodeId(c));
                }
            }
            expanded += bs.len() as u64;
            allowed.push(bs);
        }
        stats.hier_pruned = pruned_total;
        stats.hier_expanded_cells = expanded;
        Refinement::Restricted(allowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Direction;

    fn ring(n: usize) -> Network {
        let mut net = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..n).map(|i| net.add_node(format!("n{i}"))).collect();
        for i in 0..n {
            let e = net.add_edge(ids[i], ids[(i + 1) % n]);
            net.set_edge_attr(e, "bw", 10.0);
        }
        for (i, &v) in ids.iter().enumerate() {
            net.set_node_attr(v, "cpu", (i % 7) as f64);
        }
        net
    }

    #[test]
    fn levels_halve_and_partition() {
        let host = ring(64);
        let spec = HierarchySpec {
            max_levels: 8,
            min_nodes: 4,
        };
        let h = SubstrateHierarchy::build(&host, &spec);
        assert!(h.levels() >= 3);
        let sizes = h.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "sizes must strictly decrease: {sizes:?}");
        }
        assert_eq!(sizes[0], 32, "greedy matching halves a ring exactly");
        // Every level's leaves partition the host node set.
        for li in 0..h.levels() {
            let mut seen: Vec<NodeId> = Vec::new();
            for s in 0..h.level_size(li) {
                seen.extend(h.leaf_members(li, s));
            }
            seen.sort_unstable();
            assert_eq!(seen.len(), 64);
            assert!(seen.windows(2).all(|w| w[0] != w[1]), "no leaf repeats");
        }
    }

    #[test]
    fn bounds_contain_member_attrs() {
        let host = ring(32);
        let h = SubstrateHierarchy::build(
            &host,
            &HierarchySpec {
                max_levels: 8,
                min_nodes: 2,
            },
        );
        let cpu = host.schema().get("cpu").expect("cpu attr interned");
        for li in 0..h.levels() {
            for s in 0..h.level_size(li) {
                let bounds = h.node_bounds(li, s);
                for v in h.leaf_members(li, s) {
                    let val = host.node_attr(v, cpu);
                    let ab = bounds.get(cpu).expect("cpu bounds aggregated");
                    assert!(ab.contains(val), "level {li} super {s} node {v:?}");
                }
            }
        }
    }

    #[test]
    fn min_nodes_floor_respected() {
        let host = ring(16);
        let h = SubstrateHierarchy::build(
            &host,
            &HierarchySpec {
                max_levels: 16,
                min_nodes: 16,
            },
        );
        assert_eq!(h.levels(), 0, "host already at the floor");
        let h2 = SubstrateHierarchy::build(
            &host,
            &HierarchySpec {
                max_levels: 1,
                min_nodes: 2,
            },
        );
        assert_eq!(h2.levels(), 1);
        assert_eq!(h2.level_size(0), 8);
    }
}
