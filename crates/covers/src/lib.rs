//! Sparse covers, layered covers and network decompositions.
//!
//! The synchronizer relies on the graph-theoretic notion of a *sparse `d`-cover*
//! (Definition 2.1 of the paper): a collection of clusters, each equipped with a
//! rooted low-depth cluster tree, such that
//!
//! * every node belongs to `O(log n)` clusters,
//! * every cluster tree has depth `O(d · polylog n)`, and
//! * for every node `v`, *all* of `B(v, d)` (the `d`-neighborhood of `v`) is contained
//!   in at least one cluster that contains `v`.
//!
//! The paper constructs these from the deterministic network decomposition of
//! Rozhon–Ghaffari (Theorem 4.20/4.21); this crate provides a deterministic
//! construction with the same interface and guarantees of the same flavor
//! (`O(log n)` membership, `O(d log n)` tree depth), built from a `(2d+1)`-separated
//! weak-diameter decomposition by ball carving — see [`decomposition`]. DESIGN.md §3
//! documents this substitution.
//!
//! A cover has one storage format, the per-node *position table* of
//! [`SparseCover`]: each node's tree clusters, with its parent, children and
//! membership in each (DESIGN.md §3.4). The builder emits one entry per tree node,
//! [`SparseCover`] sorts them into the table, and the pipeline runs on
//! epoch-stamped scratch buffers with bounded-radius BFS (DESIGN.md §3.3) — there
//! are no ordered maps anywhere on the build path.
//!
//! Modules:
//!
//! * [`decomposition`] — `k`-separated weak-diameter network decomposition
//!   (Definition 4.19) by deterministic ball carving.
//! * [`builder`] — sparse `d`-covers and layered covers from the decomposition
//!   (Theorem 4.21 interface).
//! * [`stats`] — quality statistics (membership, stretch, edge load) used by the
//!   cover-quality experiment (E6).
//!
//! The construction's contract is held by [`SparseCover::validate`], the
//! sparsity bounds, and a pin in `tests/cover_scale.rs` that rebuilds every
//! cluster from its definition with full-graph searches.

#![forbid(unsafe_code)]

pub mod builder;
pub mod decomposition;
pub(crate) mod scratch;
pub mod stats;

use ds_graph::{Graph, NodeId};
use scratch::BfsScratch;
use std::fmt;

/// Identifier of a cluster within a [`SparseCover`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterId(pub usize);

impl ClusterId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The position of one node in one cluster tree, as answered by the cover's
/// per-node position table ([`SparseCover::tree_pos`]): everything a node-local
/// protocol needs to relay along the tree, without searching the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreePos<'a> {
    /// The cluster whose tree this is.
    pub cluster: ClusterId,
    /// Parent of the node in the cluster tree (`None` at the cluster root).
    pub parent: Option<NodeId>,
    /// Children of the node in the cluster tree, ascending.
    pub children: &'a [NodeId],
    /// Whether the node is a member (terminal) of the cluster, not just a
    /// Steiner node of its tree.
    pub is_member: bool,
}

/// One row entry of the position table: the `k`-th tree cluster of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TreeSlot {
    /// Parent's node index, [`NO_PARENT`] at the cluster root.
    parent: u32,
    /// The node's children in this tree: `tree_children[children_start..children_end]`.
    children_start: u32,
    children_end: u32,
    is_member: bool,
}

const NO_PARENT: u32 = u32::MAX;

/// One node of one cluster tree, as the builder emits it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TreeEntry {
    pub(crate) cluster: ClusterId,
    pub(crate) node: NodeId,
    /// Parent in the cluster tree, `None` at the root.
    pub(crate) parent: Option<NodeId>,
    /// Whether the node is a member of the cluster, not just a Steiner node.
    pub(crate) is_member: bool,
}

/// A sparse `d`-cover (Definition 2.1): clusters with cluster trees such that every
/// `d`-ball is contained in some cluster.
///
/// The clusters exist only as the per-node position table: a cluster is its
/// id, its members are the nodes whose [`clusters_of`](Self::clusters_of) list
/// it, and its tree is the [`tree_pos`](Self::tree_pos) entries that carry it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseCover {
    /// The covering radius `d`.
    pub radius: usize,
    clusters: usize,
    max_height: usize,
    /// Membership, CSR by node: the clusters `v` is a member of are
    /// `member_ids[member_offsets[v]..member_offsets[v + 1]]`, ascending.
    member_offsets: Vec<u32>,
    member_ids: Vec<ClusterId>,
    /// The per-node cluster-tree position table, CSR by node: the tree clusters of
    /// node `v` are `tree_ids[tree_offsets[v]..tree_offsets[v + 1]]` (ascending
    /// cluster id), `tree_slots` runs parallel to `tree_ids`, and each node's
    /// children lists sit back to back in `tree_children`.
    tree_offsets: Vec<u32>,
    tree_ids: Vec<ClusterId>,
    tree_slots: Vec<TreeSlot>,
    tree_children: Vec<NodeId>,
}

impl SparseCover {
    /// Builds the cover of `clusters` clusters, for a graph with `n` nodes, from one
    /// entry per tree node. Entries come cluster by cluster in ascending id.
    ///
    /// A counting sort by node puts the entries in the table's `(node, cluster)`
    /// row order; each parent's slot is one binary search in the parent's row;
    /// children are counted, then filled in ascending node order (so every
    /// children list is sorted); and one DFS per root yields the height.
    ///
    /// # Panics
    ///
    /// Panics if the entries do not describe one rooted tree per cluster: a node
    /// twice in one tree, a parent outside the tree, a cluster with no root or
    /// two, or a tree that is not connected (this is an internal construction
    /// error, not user input).
    pub(crate) fn new(radius: usize, n: usize, clusters: usize, entries: &[TreeEntry]) -> Self {
        assert!(n < NO_PARENT as usize, "node indices must fit the table's u32 slots");
        let mut tree_offsets = vec![0u32; n + 1];
        for e in entries {
            tree_offsets[e.node.index() + 1] += 1;
        }
        for v in 0..n {
            tree_offsets[v + 1] += tree_offsets[v];
        }
        let total = entries.len();
        let mut cursor = tree_offsets[..n].to_vec();
        let mut tree_ids = vec![ClusterId(0); total];
        let blank =
            TreeSlot { parent: NO_PARENT, children_start: 0, children_end: 0, is_member: false };
        let mut tree_slots = vec![blank; total];
        for e in entries {
            let at = cursor[e.node.index()] as usize;
            cursor[e.node.index()] += 1;
            tree_ids[at] = e.cluster;
            tree_slots[at].parent = e.parent.map_or(NO_PARENT, |p| p.index() as u32);
            tree_slots[at].is_member = e.is_member;
        }
        let row = |v: usize| tree_offsets[v] as usize..tree_offsets[v + 1] as usize;

        // Parent slots and children counts (in `children_end`), roots and membership.
        const NO_SLOT: u32 = u32::MAX;
        let mut parent_slot = vec![NO_SLOT; total];
        let mut root_slot = vec![NO_SLOT; clusters];
        let mut member_offsets = Vec::with_capacity(n + 1);
        let mut member_ids = Vec::new();
        member_offsets.push(0);
        for v in 0..n {
            let ids = &tree_ids[row(v)];
            let ascending = ids.windows(2).all(|w| w[0] < w[1]);
            assert!(ascending, "node {v} twice in one tree, or entries out of cluster order");
            for at in row(v) {
                let c = tree_ids[at];
                let p = tree_slots[at].parent;
                if p == NO_PARENT {
                    assert_eq!(root_slot[c.index()], NO_SLOT, "cluster {c:?} has two roots");
                    root_slot[c.index()] = at as u32;
                } else {
                    let k = tree_ids[row(p as usize)].binary_search(&c);
                    let ps = tree_offsets[p as usize] as usize
                        + k.unwrap_or_else(|_| panic!("parent {p} of {v} is not in tree {c:?}"));
                    parent_slot[at] = ps as u32;
                    tree_slots[ps].children_end += 1;
                }
                if tree_slots[at].is_member {
                    member_ids.push(c);
                }
            }
            member_offsets.push(member_ids.len() as u32);
        }
        assert!(root_slot.iter().all(|&r| r != NO_SLOT), "every cluster has a root");

        // Children lists back to back in table order, filled in ascending node
        // order; `child_slots` mirrors them with the children's table slots.
        let mut start = 0;
        for slot in &mut tree_slots {
            let count = slot.children_end;
            slot.children_start = start;
            slot.children_end = start;
            start += count;
        }
        let mut tree_children = vec![NodeId(0); start as usize];
        let mut child_slots = vec![0u32; start as usize];
        for v in 0..n {
            for at in row(v) {
                let ps = parent_slot[at];
                if ps != NO_SLOT {
                    let end = &mut tree_slots[ps as usize].children_end;
                    tree_children[*end as usize] = NodeId(v);
                    child_slots[*end as usize] = at as u32;
                    *end += 1;
                }
            }
        }

        // One DFS per root: every slot has at most one parent slot, so the trees
        // are connected (and acyclic) exactly when the DFS reaches every entry.
        let mut max_height = 0;
        let mut reached = 0;
        let mut stack = Vec::new();
        for &root in &root_slot {
            stack.push((root, 0u32));
            while let Some((at, depth)) = stack.pop() {
                reached += 1;
                max_height = max_height.max(depth as usize);
                let slot = &tree_slots[at as usize];
                let kids = &child_slots[slot.children_start as usize..slot.children_end as usize];
                stack.extend(kids.iter().map(|&c| (c, depth + 1)));
            }
        }
        assert_eq!(reached, total, "every cluster tree must be connected");

        SparseCover {
            radius,
            clusters,
            max_height,
            member_offsets,
            member_ids,
            tree_offsets,
            tree_ids,
            tree_slots,
            tree_children,
        }
    }

    /// Number of nodes of the graph the cover was built for.
    pub fn node_count(&self) -> usize {
        self.tree_offsets.len() - 1
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }

    /// Clusters in which `v` is a member, ascending.
    pub fn clusters_of(&self, v: NodeId) -> &[ClusterId] {
        &self.member_ids
            [self.member_offsets[v.index()] as usize..self.member_offsets[v.index() + 1] as usize]
    }

    /// Clusters in whose tree `v` participates (as member or Steiner node),
    /// ascending. The position of a cluster in this list is its *local index* `k`
    /// at `v`, the key of [`SparseCover::tree_pos`].
    pub fn tree_clusters_of(&self, v: NodeId) -> &[ClusterId] {
        &self.tree_ids
            [self.tree_offsets[v.index()] as usize..self.tree_offsets[v.index() + 1] as usize]
    }

    /// Local index of `cluster` among the tree clusters of `v`, if `v` participates
    /// in its tree: one binary search over the node's own (short) list.
    pub fn tree_index_of(&self, v: NodeId, cluster: ClusterId) -> Option<usize> {
        self.tree_clusters_of(v).binary_search(&cluster).ok()
    }

    /// Position of `v` in its `k`-th tree cluster, in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.tree_clusters_of(v).len()`.
    pub fn tree_pos(&self, v: NodeId, k: usize) -> TreePos<'_> {
        let (lo, hi) = (self.tree_offsets[v.index()], self.tree_offsets[v.index() + 1]);
        assert!(k < (hi - lo) as usize, "node {v} has no tree cluster #{k}");
        let at = lo as usize + k;
        let slot = &self.tree_slots[at];
        TreePos {
            cluster: self.tree_ids[at],
            parent: (slot.parent != NO_PARENT).then_some(NodeId(slot.parent as usize)),
            children: &self.tree_children[slot.children_start as usize..slot.children_end as usize],
            is_member: slot.is_member,
        }
    }

    /// Positions of `v` in all its tree clusters, in local-index order.
    pub fn tree_pos_of(&self, v: NodeId) -> impl ExactSizeIterator<Item = TreePos<'_>> {
        (0..self.tree_clusters_of(v).len()).map(move |k| self.tree_pos(v, k))
    }

    /// Every tree edge of every cluster as `(cluster, child, parent)`, by child.
    pub(crate) fn tree_edges(&self) -> impl Iterator<Item = (ClusterId, NodeId, NodeId)> + '_ {
        (0..self.node_count()).map(NodeId).flat_map(move |v| {
            self.tree_pos_of(v).filter_map(move |pos| pos.parent.map(|p| (pos.cluster, v, p)))
        })
    }

    /// Largest number of clusters any node is a member of.
    pub fn max_membership(&self) -> usize {
        self.member_offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Largest cluster-tree height.
    pub fn max_height(&self) -> usize {
        self.max_height
    }

    /// Validates the Definition 2.1 properties against `graph`.
    ///
    /// Ball coverage is checked with one bounded-radius BFS per node over a reused
    /// scratch buffer, so validation costs `O(Σ_v |B(v, d)|)` edge visits instead
    /// of `n` full-graph BFS runs — cheap enough for the 4096-node tier graphs.
    ///
    /// # Errors
    ///
    /// Returns a [`CoverError`] describing the first violated property.
    pub fn validate(&self, graph: &Graph) -> Result<(), CoverError> {
        // (a) every tree edge is a graph edge (construction already checked that
        // every tree is rooted and connected).
        for (cluster, v, u) in self.tree_edges() {
            if !graph.has_edge(v, u) {
                return Err(CoverError::TreeEdgeMissing { cluster, u, v });
            }
        }
        // (b) ball coverage: for every node v there is a cluster containing v and all
        // of B(v, d).
        let mut bfs = BfsScratch::new(graph.node_count());
        let depth = u32::try_from(self.radius).unwrap_or(u32::MAX);
        for v in graph.nodes() {
            bfs.start(std::slice::from_ref(&v));
            while bfs.depth_reached() < depth && bfs.expand_level(graph).is_some() {}
            let covered = self.clusters_of(v).iter().any(|cid| {
                bfs.order().iter().all(|&u| self.clusters_of(u).binary_search(cid).is_ok())
            });
            if !covered {
                return Err(CoverError::BallNotCovered { node: v, radius: self.radius });
            }
        }
        Ok(())
    }
}

/// A layered sparse cover: layer `j` is a sparse `2^{base+j}`-cover, for every `j`
/// in `0..layers()`.
///
/// Layers may share one cover. [`builder::build_synchronizer_cover`] stops at its
/// first one-cluster layer, and every higher layer resolves to that cover: a
/// larger radius would carve the same cluster, members and tree (DESIGN.md §3.3).
/// A shared layer's [`SparseCover::radius`] is the radius it was built at, which
/// can be below the layer's [`radius`](Self::radius); select layers by the latter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayeredSparseCover {
    /// The distinct covers: `covers[j]` is a `2^{base+j}`-cover.
    covers: Vec<SparseCover>,
    /// Radius exponent of layer 0.
    base: u32,
    /// Number of layers; layers `covers.len() - 1 ..` share the last cover.
    layers: usize,
}

impl LayeredSparseCover {
    /// Wraps a list of covers where `covers[j]` must be a `2^j`-cover; no layer
    /// is shared.
    ///
    /// # Panics
    ///
    /// Panics if `covers[j].radius != 2^j` for some `j`.
    pub fn new(covers: Vec<SparseCover>) -> Self {
        let layers = covers.len();
        Self::shared(covers, 0, layers)
    }

    /// Layers `2^base ..= 2^{base+layers-1}` over the distinct `covers`, the
    /// last of which also serves every layer above it.
    pub(crate) fn shared(covers: Vec<SparseCover>, base: u32, layers: usize) -> Self {
        assert!(covers.len() <= layers, "more covers than layers");
        for (j, c) in covers.iter().enumerate() {
            let e = base as usize + j;
            assert_eq!(c.radius, 1usize << e, "covers[{j}] must be a 2^{e}-cover");
        }
        LayeredSparseCover { covers, base, layers }
    }

    /// The number of layers (largest layer radius is `radius(layers - 1)`).
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The radius layer `j` covers: `2^{base+j}`. A shared layer's cover was
    /// built at a smaller radius but has the same clusters as a build at this one.
    ///
    /// # Panics
    ///
    /// Panics if the layer does not exist.
    pub fn radius(&self, j: usize) -> usize {
        assert!(j < self.layers, "layer {j} of {}", self.layers);
        1usize << (self.base as usize + j)
    }

    /// The cover of layer `j`.
    ///
    /// # Panics
    ///
    /// Panics if the layer does not exist.
    pub fn level(&self, j: usize) -> &SparseCover {
        assert!(j < self.layers, "layer {j} of {}", self.layers);
        &self.covers[j.min(self.covers.len() - 1)]
    }

    /// The lowest layer whose [`radius`](Self::radius) is at least `d`, or the
    /// top layer if `d` exceeds every layer (which is safe whenever that cover
    /// already spans the whole graph). Selects by the layer's radius, never by
    /// a shared cover's own: that is the radius the cover was built at, and
    /// selecting by it would collapse the layers above it into one (and with
    /// them the det synchronizer's phase-A barriers).
    pub fn layer_for_radius(&self, d: usize) -> usize {
        assert!(self.layers > 0, "layered cover is non-empty");
        (0..self.layers).find(|&j| self.radius(j) >= d).unwrap_or(self.layers - 1)
    }

    /// The cover of [`layer_for_radius`](Self::layer_for_radius)`(d)`.
    pub fn cover_for_radius(&self, d: usize) -> &SparseCover {
        self.level(self.layer_for_radius(d))
    }

    /// Iterates over the distinct covers, lowest radius first.
    pub fn iter(&self) -> impl Iterator<Item = &SparseCover> {
        self.covers.iter()
    }
}

/// Violations of the sparse-cover properties, reported by [`SparseCover::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoverError {
    /// A cluster-tree edge does not exist in the graph.
    TreeEdgeMissing { cluster: ClusterId, u: NodeId, v: NodeId },
    /// Some node's `d`-ball is not fully contained in any one of its clusters.
    BallNotCovered { node: NodeId, radius: usize },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::TreeEdgeMissing { cluster, u, v } => {
                write!(f, "cluster {cluster:?} uses tree edge ({u}, {v}) missing from the graph")
            }
            CoverError::BallNotCovered { node, radius } => {
                write!(f, "the {radius}-ball of node {node} is not contained in any cluster")
            }
        }
    }
}

impl std::error::Error for CoverError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(node: usize, parent: Option<usize>) -> TreeEntry {
        TreeEntry {
            cluster: ClusterId(0),
            node: NodeId(node),
            parent: parent.map(NodeId),
            is_member: true,
        }
    }

    /// Root 0 with children 1, 2; member set {0, 1, 2}; in no particular node order.
    fn star_entries() -> Vec<TreeEntry> {
        vec![entry(1, Some(0)), entry(0, None), entry(2, Some(0))]
    }

    #[test]
    fn table_from_entries_has_children_membership_and_height() {
        let cover = SparseCover::new(1, 4, 1, &star_entries());
        assert_eq!(cover.node_count(), 4);
        assert_eq!(cover.cluster_count(), 1);
        let root = cover.tree_pos(NodeId(0), 0);
        assert_eq!((root.parent, root.children), (None, &[NodeId(1), NodeId(2)][..]));
        let leaf = cover.tree_pos(NodeId(1), 0);
        assert_eq!((leaf.parent, leaf.children, leaf.is_member), (Some(NodeId(0)), &[][..], true));
        assert_eq!(cover.clusters_of(NodeId(1)), &[ClusterId(0)]);
        assert!(cover.clusters_of(NodeId(3)).is_empty());
        assert_eq!(cover.tree_pos_of(NodeId(3)).len(), 0);
        assert_eq!(cover.max_membership(), 1);
        assert_eq!(cover.max_height(), 1);
        let edges: Vec<_> = cover.tree_edges().collect();
        let c = ClusterId(0);
        assert_eq!(edges, [(c, NodeId(1), NodeId(0)), (c, NodeId(2), NodeId(0))]);
    }

    #[test]
    #[should_panic(expected = "twice in one tree")]
    fn construction_rejects_a_node_twice_in_one_tree() {
        let mut entries = star_entries();
        entries.push(entry(2, Some(1)));
        SparseCover::new(1, 4, 1, &entries);
    }

    #[test]
    #[should_panic(expected = "is not in tree")]
    fn construction_rejects_a_parent_outside_the_tree() {
        let mut entries = star_entries();
        entries.push(entry(3, Some(4)));
        SparseCover::new(1, 5, 1, &entries);
    }

    #[test]
    #[should_panic(expected = "two roots")]
    fn construction_rejects_a_second_root() {
        let mut entries = star_entries();
        entries.push(entry(3, None));
        SparseCover::new(1, 4, 1, &entries);
    }

    #[test]
    #[should_panic(expected = "every cluster has a root")]
    fn construction_rejects_a_rootless_cluster() {
        SparseCover::new(1, 4, 2, &star_entries());
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn construction_rejects_a_disconnected_tree() {
        // 3 and 4 point at each other: no second root, but the root never reaches them.
        let mut entries = star_entries();
        entries.extend([entry(3, Some(4)), entry(4, Some(3))]);
        SparseCover::new(1, 5, 1, &entries);
    }

    #[test]
    fn validate_detects_uncovered_ball() {
        // The star cluster covers nodes 0..=2 of a 4-node star, so node 3 is in no
        // cluster at all and its 1-ball is not covered.
        let g = Graph::star(4);
        let cover = SparseCover::new(1, 4, 1, &star_entries());
        let err = cover.validate(&g).unwrap_err();
        assert!(matches!(err, CoverError::BallNotCovered { .. }));
    }

    #[test]
    fn validate_detects_missing_tree_edge() {
        // Tree edge (0, 2) does not exist on a path graph 0-1-2.
        let g = Graph::path(3);
        let cover = SparseCover::new(0, 3, 1, &star_entries());
        let err = cover.validate(&g).unwrap_err();
        assert_eq!(
            err,
            CoverError::TreeEdgeMissing { cluster: ClusterId(0), u: NodeId(0), v: NodeId(2) }
        );
    }

    #[test]
    fn layered_cover_selects_smallest_sufficient_radius() {
        let g = Graph::path(9);
        let layered = builder::build_layered_sparse_cover(&g, 4);
        assert_eq!(layered.layers(), 3);
        assert_eq!(layered.cover_for_radius(1).radius, 1);
        assert_eq!(layered.cover_for_radius(3).radius, 4);
        assert_eq!(layered.cover_for_radius(100).radius, 4);
        let _ = g;
    }

    #[test]
    #[should_panic(expected = "covers[1]")]
    fn layered_cover_rejects_wrong_radii() {
        let g = Graph::path(3);
        let c1 = builder::build_sparse_cover(&g, 1);
        let c4 = builder::build_sparse_cover(&g, 4);
        let _ = LayeredSparseCover::new(vec![c1, c4]);
    }
}
