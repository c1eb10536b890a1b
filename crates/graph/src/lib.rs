//! Graph substrate for the synchronizer reproduction.
//!
//! The network of the CONGEST model is an undirected, connected graph `G = (V, E)`.
//! This crate provides:
//!
//! * [`Graph`] — an adjacency-list representation with stable edge indices,
//! * [`generators`] — deterministic graph families used throughout the experiments,
//! * [`metrics`] — distances, eccentricities, diameter, connectivity,
//! * [`weights`] — edge weights and a reference (centralized) minimum spanning tree,
//!   used to validate the distributed MST application.
//!
//! Everything here is *centralized* helper code: the distributed algorithms
//! themselves live in `ds-sync` / `ds-algos` and only ever access local
//! information, as the model requires. The centralized code is used to construct
//! inputs and to check outputs.

#![forbid(unsafe_code)]

pub mod generators;
pub mod metrics;
pub mod rng;
pub mod weights;

use std::fmt;

/// Identifier of a node (processor) in the network.
///
/// Node identifiers are dense indices `0..n`. The paper assumes `O(log n)`-bit unique
/// identifiers; dense indices satisfy that and keep the simulator simple. Algorithms
/// that need *arbitrary* comparable identifiers (e.g. leader election) treat the
/// numeric value as the identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// Index of an undirected edge in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Dense identifier of a *directed* edge (an ordered neighbor pair).
///
/// Every undirected edge `e = {u, v}` (with `u < v`) induces two directed edges:
/// `u → v` with id `2·e` and `v → u` with id `2·e + 1`. Directed edge ids are thus
/// dense in `0 .. Graph::directed_edge_count()`, resolvable from a `(from, to)` pair
/// in `O(deg(from))` via [`Graph::edge_id`], and stable under edge insertion — the
/// flat per-link tables of the simulation engines are indexed by them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DirectedEdgeId(pub u32);

impl DirectedEdgeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The directed edge in the opposite direction over the same undirected edge.
    pub fn reversed(self) -> DirectedEdgeId {
        DirectedEdgeId(self.0 ^ 1)
    }

    /// The undirected edge this directed edge runs over.
    pub fn undirected(self) -> EdgeId {
        EdgeId((self.0 >> 1) as usize)
    }
}

/// An undirected graph with `n` nodes and a stable list of edges.
///
/// Nodes are `NodeId(0) .. NodeId(n-1)`. Edges are stored once (with endpoints in
/// ascending order) and also expanded into per-node adjacency lists. Self-loops and
/// parallel edges are rejected.
///
/// ```
/// use ds_graph::{Graph, NodeId};
/// let g = Graph::path(4);
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert!(g.has_edge(NodeId(1), NodeId(2)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    /// Undirected edge id of each adjacency slot, aligned with `adjacency`: the
    /// per-node half of the directed-edge index (see [`DirectedEdgeId`]).
    adjacency_edges: Vec<Vec<EdgeId>>,
    edges: Vec<(NodeId, NodeId)>,
}

/// Error returned by [`Graph::add_edge`] and the checked constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= node_count`.
    NodeOutOfRange { node: NodeId, node_count: usize },
    /// The two endpoints are equal.
    SelfLoop { node: NodeId },
    /// The edge already exists.
    DuplicateEdge { u: NodeId, v: NodeId },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range for graph with {node_count} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
        }
    }
}

impl std::error::Error for GraphError {}

impl Graph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            adjacency_edges: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, an edge is a self-loop, or an
    /// edge appears twice.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Adds an undirected edge, returning its new [`EdgeId`].
    ///
    /// # Errors
    ///
    /// See [`GraphError`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, GraphError> {
        let n = self.node_count();
        for node in [u, v] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfRange { node, node_count: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        let id = EdgeId(self.edges.len());
        assert!(self.edges.len() < (u32::MAX / 2) as usize, "directed edge ids must fit in u32");
        self.edges.push((a, b));
        self.adjacency[a.index()].push(b);
        self.adjacency[b.index()].push(a);
        self.adjacency_edges[a.index()].push(id);
        self.adjacency_edges[b.index()].push(id);
        Ok(id)
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges `m`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterator over all undirected edges, endpoints in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges.iter().enumerate().map(|(i, &(u, v))| (EdgeId(i), u, v))
    }

    /// Endpoints of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// Neighbors of a node, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[v.index()]
    }

    /// Degree of a node.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Returns `true` if the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return false;
        }
        let (small, other) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.adjacency[small.index()].contains(&other)
    }

    /// Finds the edge index of `{u, v}`, if present. `O(min(deg(u), deg(v)))`.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return None;
        }
        let (small, other) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let slot = self.adjacency[small.index()].iter().position(|&w| w == other)?;
        Some(self.adjacency_edges[small.index()][slot])
    }

    /// Number of directed edges (ordered neighbor pairs): `2·edge_count()`.
    pub fn directed_edge_count(&self) -> usize {
        2 * self.edges.len()
    }

    /// Resolves the directed edge `from → to` to its dense [`DirectedEdgeId`], or
    /// `None` if `to` is not a neighbor of `from`. `O(deg(from))`.
    pub fn edge_id(&self, from: NodeId, to: NodeId) -> Option<DirectedEdgeId> {
        if from.index() >= self.node_count() {
            return None;
        }
        let slot = self.adjacency[from.index()].iter().position(|&w| w == to)?;
        let e = self.adjacency_edges[from.index()][slot];
        Some(Self::directed_id(e, from, to))
    }

    /// `(from, to)` endpoints of a directed edge. `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn directed_endpoints(&self, e: DirectedEdgeId) -> (NodeId, NodeId) {
        let (a, b) = self.edges[e.undirected().index()];
        if e.0 & 1 == 0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Neighbors of `v` paired with the directed edge `v → neighbor`, in insertion
    /// order — the per-node slice of the directed-edge index, `O(1)` per neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_links(&self, v: NodeId) -> impl Iterator<Item = (NodeId, DirectedEdgeId)> + '_ {
        self.adjacency[v.index()]
            .iter()
            .zip(&self.adjacency_edges[v.index()])
            .map(move |(&to, &e)| (to, Self::directed_id(e, v, to)))
    }

    /// The directed id of `from → to` over undirected edge `e` (endpoint order is
    /// normalized ascending in `edges`, so the parity bit is the direction).
    fn directed_id(e: EdgeId, from: NodeId, to: NodeId) -> DirectedEdgeId {
        DirectedEdgeId(2 * e.index() as u32 + u32::from(from > to))
    }

    /// A stable structural hash: node count plus the ordered edge list, folded
    /// through a splitmix64-style mixer (the same dependency-free mixer the
    /// delay models use). The adjacency lists — whose insertion order the
    /// engines observe through [`Graph::neighbor_links`] — are derived from
    /// the edge sequence by `add_edge`, so the ordered edge list determines
    /// the full structure and two graphs built by the same edge sequence hash
    /// identically across processes and runs.
    ///
    /// This is a cache *discriminator*, not a proof of equality: callers that
    /// key caches by it must verify hits with full `==` (`Graph` is `Eq`) so a
    /// 64-bit collision can never alias two topologies.
    pub fn structural_hash(&self) -> u64 {
        fn mix(state: &mut u64, value: u64) {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(value);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *state = z ^ (z >> 31);
        }
        let mut h = 0x5d5_70de_7e97_0a6d_u64;
        mix(&mut h, self.node_count() as u64);
        mix(&mut h, self.edges.len() as u64);
        for &(u, v) in &self.edges {
            mix(&mut h, u.index() as u64);
            mix(&mut h, v.index() as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 5);
    }

    #[test]
    fn add_edge_updates_adjacency_both_ways() {
        let mut g = Graph::new(3);
        let e = g.add_edge(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(e, EdgeId(0));
        assert_eq!(g.endpoints(e), (NodeId(0), NodeId(2)));
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(2)]);
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0)]);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(NodeId(1), NodeId(1)), Err(GraphError::SelfLoop { node: NodeId(1) }));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        assert!(matches!(g.add_edge(NodeId(0), NodeId(5)), Err(GraphError::NodeOutOfRange { .. })));
    }

    #[test]
    fn rejects_duplicate_edge_in_either_direction() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1)).unwrap();
        assert!(matches!(g.add_edge(NodeId(1), NodeId(0)), Err(GraphError::DuplicateEdge { .. })));
    }

    #[test]
    fn edge_between_finds_edges_regardless_of_order() {
        let g = Graph::path(4);
        assert_eq!(g.edge_between(NodeId(2), NodeId(1)), g.edge_between(NodeId(1), NodeId(2)));
        assert!(g.edge_between(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn directed_edge_ids_are_dense_and_consistent() {
        let g = Graph::grid(3, 3);
        assert_eq!(g.directed_edge_count(), 2 * g.edge_count());
        let mut seen = vec![false; g.directed_edge_count()];
        for v in g.nodes() {
            for (to, link) in g.neighbor_links(v) {
                assert!(g.has_edge(v, to));
                // neighbor_links agrees with the pairwise resolver.
                assert_eq!(g.edge_id(v, to), Some(link));
                assert_eq!(g.directed_endpoints(link), (v, to));
                assert_eq!(link.reversed().reversed(), link);
                assert_eq!(g.directed_endpoints(link.reversed()), (to, v));
                assert_eq!(link.undirected(), g.edge_between(v, to).unwrap());
                assert!(!seen[link.index()], "duplicate directed id {link:?}");
                seen[link.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "directed ids cover 0..2m");
        assert_eq!(g.edge_id(NodeId(0), NodeId(8)), None);
        assert_eq!(g.edge_id(NodeId(42), NodeId(0)), None);
    }

    #[test]
    fn structural_hash_discriminates_topologies() {
        // Same construction → same hash, across independent builds.
        assert_eq!(Graph::grid(4, 4).structural_hash(), Graph::grid(4, 4).structural_hash());
        // Different families and different sizes diverge.
        let hashes = [
            Graph::path(4).structural_hash(),
            Graph::cycle(4).structural_hash(),
            Graph::grid(2, 2).structural_hash(),
            Graph::grid(4, 4).structural_hash(),
            Graph::path(5).structural_hash(),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Dropping a single edge changes the hash.
        let full = Graph::cycle(6);
        let trimmed =
            Graph::from_edges(6, full.edges().take(full.edge_count() - 1).map(|(_, u, v)| (u, v)))
                .unwrap();
        assert_ne!(full.structural_hash(), trimmed.structural_hash());
        // Edge *insertion order* is structural: the engines observe adjacency
        // order, so a reordered edge list must not alias.
        let ab_first =
            Graph::from_edges(3, [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]).unwrap();
        let bc_first =
            Graph::from_edges(3, [(NodeId(1), NodeId(2)), (NodeId(0), NodeId(1))]).unwrap();
        assert_ne!(ab_first.structural_hash(), bc_first.structural_hash());
    }

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = Graph::from_edges(3, [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
    }
}
