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
//! All structures are stored densely: clusters keep their tree as sorted node
//! arrays with CSR-style children lists, and the construction pipeline runs on
//! epoch-stamped scratch buffers with bounded-radius BFS (see DESIGN.md §3.3 for
//! the complexity argument) — there are no ordered maps anywhere on the build
//! path.
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
//! The pre-dense-id (`BTreeMap`-based) builder survived one release as the
//! `legacy` module, the executable reference the rewrite was pinned
//! bit-identical against; it is gone now, and the construction's contract is
//! held by property checks instead ([`SparseCover::validate`] plus the
//! sparsity bounds, in the builder unit tests and `tests/cover_scale.rs`).

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

/// One cluster of a cover: a set of *member* (terminal) nodes plus a rooted tree that
/// spans them, possibly through non-member (Steiner) nodes — the paper's cluster tree.
///
/// The tree is stored densely: tree nodes live in one sorted array, with parents,
/// depths and CSR-style children lists in parallel arrays. All lookups resolve a
/// node through one binary search over the (typically small) tree-node array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cluster {
    /// Identifier of the cluster within its cover.
    pub id: ClusterId,
    /// Root of the cluster tree.
    pub root: NodeId,
    /// Member (terminal) nodes, sorted ascending: the nodes the cluster covers.
    pub members: Vec<NodeId>,
    /// All tree nodes (members ∪ Steiner nodes ∪ root), sorted ascending.
    tree: Vec<NodeId>,
    /// Parent of `tree[i]` in the cluster tree (`None` for the root).
    parent: Vec<Option<NodeId>>,
    /// Depth (in tree edges) of `tree[i]` below the root.
    depth: Vec<u32>,
    /// Children of `tree[i]`: `child_list[child_offsets[i]..child_offsets[i+1]]`,
    /// each slice sorted ascending.
    child_offsets: Vec<u32>,
    child_list: Vec<NodeId>,
}

impl Cluster {
    /// Builds a cluster from `(node, parent)` pairs (in any order; the root's entry
    /// has parent `None`).
    ///
    /// # Panics
    ///
    /// Panics if the pairs do not describe a tree rooted at `root` containing all
    /// `members` (this is an internal construction error, not user input).
    pub fn from_parents(
        id: ClusterId,
        root: NodeId,
        mut members: Vec<NodeId>,
        mut pairs: Vec<(NodeId, Option<NodeId>)>,
    ) -> Self {
        // Membership lookups binary-search this list, so enforce the sort here
        // rather than trusting the caller.
        members.sort_unstable();
        pairs.sort_unstable_by_key(|&(v, _)| v);
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "duplicate tree node");
        let tree: Vec<NodeId> = pairs.iter().map(|&(v, _)| v).collect();
        let parent: Vec<Option<NodeId>> = pairs.iter().map(|&(_, p)| p).collect();
        let slot = |v: NodeId| tree.binary_search(&v);
        assert_eq!(
            slot(root).ok().map(|i| parent[i].is_none()),
            Some(true),
            "root must be in the tree with no parent"
        );

        // CSR children lists: count per parent, then fill; iterating tree nodes in
        // ascending order keeps every child slice sorted.
        let mut counts = vec![0u32; tree.len()];
        for &p in parent.iter().flatten() {
            counts[slot(p).expect("parent is a tree node")] += 1;
        }
        let mut child_offsets = vec![0u32; tree.len() + 1];
        for i in 0..tree.len() {
            child_offsets[i + 1] = child_offsets[i] + counts[i];
        }
        let mut cursor: Vec<u32> = child_offsets[..tree.len()].to_vec();
        let mut child_list = vec![NodeId(0); child_offsets[tree.len()] as usize];
        for (i, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                let s = slot(p).expect("parent is a tree node");
                child_list[cursor[s] as usize] = tree[i];
                cursor[s] += 1;
            }
        }

        // Depths by an iterative traversal from the root.
        let mut depth = vec![u32::MAX; tree.len()];
        let mut stack = vec![(slot(root).expect("root is a tree node"), 0u32)];
        let mut reached = 0usize;
        while let Some((i, d)) = stack.pop() {
            depth[i] = d;
            reached += 1;
            for &c in &child_list[child_offsets[i] as usize..child_offsets[i + 1] as usize] {
                stack.push((slot(c).expect("child is a tree node"), d + 1));
            }
        }
        assert_eq!(reached, tree.len(), "cluster tree must be connected");
        for &m in &members {
            assert!(slot(m).is_ok(), "member {m} must be a tree node");
        }
        Cluster { id, root, members, tree, parent, depth, child_offsets, child_list }
    }

    /// Dense slot of a tree node, if present.
    fn slot(&self, v: NodeId) -> Option<usize> {
        self.tree.binary_search(&v).ok()
    }

    /// All nodes of the cluster tree (members and Steiner nodes), ascending.
    pub fn tree_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tree.iter().copied()
    }

    /// All `(node, parent)` pairs of the cluster tree, ascending by node.
    pub fn tree_parents(&self) -> impl Iterator<Item = (NodeId, Option<NodeId>)> + '_ {
        self.tree.iter().copied().zip(self.parent.iter().copied())
    }

    /// Whether `v` participates in the cluster tree (as member or Steiner node).
    pub fn contains_tree_node(&self, v: NodeId) -> bool {
        self.slot(v).is_some()
    }

    /// Whether `v` is a member (terminal) of the cluster.
    pub fn contains_member(&self, v: NodeId) -> bool {
        self.members.binary_search(&v).is_ok()
    }

    /// Parent of `v` in the cluster tree (`None` for the root).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a tree node.
    pub fn parent_of(&self, v: NodeId) -> Option<NodeId> {
        self.parent[self.slot(v).expect("not a tree node")]
    }

    /// Children of `v` in the cluster tree.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a tree node.
    pub fn children_of(&self, v: NodeId) -> &[NodeId] {
        let i = self.slot(v).expect("not a tree node");
        &self.child_list[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// Depth of the deepest tree node.
    pub fn height(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0) as usize
    }

    /// Number of member nodes.
    pub fn member_count(&self) -> usize {
        self.members.len()
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

/// A sparse `d`-cover (Definition 2.1): clusters with cluster trees such that every
/// `d`-ball is contained in some cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseCover {
    /// The covering radius `d`.
    pub radius: usize,
    /// The clusters.
    pub clusters: Vec<Cluster>,
    membership: Vec<Vec<ClusterId>>,
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
    /// Assembles a cover from clusters, for a graph with `n` nodes.
    ///
    /// Builds the membership lists and the position table by walking every
    /// cluster's dense tree arrays twice (count, then fill) — no per-node searches.
    pub fn new(radius: usize, clusters: Vec<Cluster>, n: usize) -> Self {
        assert!(n < NO_PARENT as usize, "node indices must fit the table's u32 slots");
        let mut membership = vec![Vec::new(); n];
        // Count pass: tree clusters and tree children per node.
        let mut tree_offsets = vec![0u32; n + 1];
        let mut child_cursor = vec![0u32; n + 1];
        for c in &clusters {
            for &v in &c.members {
                membership[v.index()].push(c.id);
            }
            for (i, &v) in c.tree.iter().enumerate() {
                tree_offsets[v.index() + 1] += 1;
                child_cursor[v.index() + 1] += c.child_offsets[i + 1] - c.child_offsets[i];
            }
        }
        for v in 0..n {
            tree_offsets[v + 1] += tree_offsets[v];
            child_cursor[v + 1] += child_cursor[v];
        }
        // Fill pass, clusters in ascending id order so every node's row is sorted.
        // `members ⊆ tree` and both are sorted, so membership is a merge walk.
        let total = tree_offsets[n] as usize;
        let mut slot_cursor = tree_offsets[..n].to_vec();
        let mut tree_ids = vec![ClusterId(0); total];
        let blank =
            TreeSlot { parent: NO_PARENT, children_start: 0, children_end: 0, is_member: false };
        let mut tree_slots = vec![blank; total];
        let mut tree_children = vec![NodeId(0); child_cursor[n] as usize];
        for c in &clusters {
            let mut members = c.members.iter().peekable();
            for (i, &v) in c.tree.iter().enumerate() {
                let children =
                    &c.child_list[c.child_offsets[i] as usize..c.child_offsets[i + 1] as usize];
                let start = child_cursor[v.index()];
                let end = start + children.len() as u32;
                tree_children[start as usize..end as usize].copy_from_slice(children);
                child_cursor[v.index()] = end;
                let at = slot_cursor[v.index()] as usize;
                slot_cursor[v.index()] += 1;
                tree_ids[at] = c.id;
                tree_slots[at] = TreeSlot {
                    parent: c.parent[i].map_or(NO_PARENT, |p| p.index() as u32),
                    children_start: start,
                    children_end: end,
                    is_member: members.next_if_eq(&&v).is_some(),
                };
            }
        }
        SparseCover {
            radius,
            clusters,
            membership,
            tree_offsets,
            tree_ids,
            tree_slots,
            tree_children,
        }
    }

    /// Number of nodes of the graph the cover was built for.
    pub fn node_count(&self) -> usize {
        self.membership.len()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// The cluster with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// Clusters in which `v` is a member.
    pub fn clusters_of(&self, v: NodeId) -> &[ClusterId] {
        &self.membership[v.index()]
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

    /// Largest number of clusters any node is a member of.
    pub fn max_membership(&self) -> usize {
        self.membership.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Largest cluster-tree height.
    pub fn max_height(&self) -> usize {
        self.clusters.iter().map(Cluster::height).max().unwrap_or(0)
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
        // (a) every tree edge is a graph edge and every tree is rooted and connected
        // (checked during construction); here we re-check edges exist.
        for c in &self.clusters {
            for (v, p) in c.tree_parents() {
                if let Some(p) = p {
                    if !graph.has_edge(v, p) {
                        return Err(CoverError::TreeEdgeMissing { cluster: c.id, u: p, v });
                    }
                }
            }
            if !c.contains_tree_node(c.root) {
                return Err(CoverError::RootMissing { cluster: c.id });
            }
        }
        // (b) ball coverage: for every node v there is a cluster containing v and all
        // of B(v, d).
        let mut bfs = BfsScratch::new(graph.node_count());
        for v in graph.nodes() {
            bfs.start(std::slice::from_ref(&v));
            while bfs.depth_reached() < self.radius as u32 && bfs.expand_level(graph).is_some() {}
            let covered = self.clusters_of(v).iter().any(|&cid| {
                let c = self.cluster(cid);
                bfs.order().iter().all(|&u| c.contains_member(u))
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
    /// A cluster's root is not part of its own tree.
    RootMissing { cluster: ClusterId },
    /// Some node's `d`-ball is not fully contained in any one of its clusters.
    BallNotCovered { node: NodeId, radius: usize },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::TreeEdgeMissing { cluster, u, v } => {
                write!(f, "cluster {cluster:?} uses tree edge ({u}, {v}) missing from the graph")
            }
            CoverError::RootMissing { cluster } => {
                write!(f, "cluster {cluster:?} does not contain its own root")
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

    fn star_cluster() -> Cluster {
        // Root 0 with children 1, 2; member set {0, 1, 2}.
        let pairs =
            vec![(NodeId(1), Some(NodeId(0))), (NodeId(0), None), (NodeId(2), Some(NodeId(0)))];
        Cluster::from_parents(ClusterId(0), NodeId(0), vec![NodeId(0), NodeId(1), NodeId(2)], pairs)
    }

    #[test]
    fn cluster_from_parents_builds_children_and_depths() {
        let c = star_cluster();
        assert_eq!(c.children_of(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(c.parent_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(c.height(), 1);
        assert!(c.contains_member(NodeId(2)));
        assert!(!c.contains_member(NodeId(3)));
        assert_eq!(c.tree_nodes().collect::<Vec<_>>(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(
            c.tree_parents().collect::<Vec<_>>(),
            vec![(NodeId(0), None), (NodeId(1), Some(NodeId(0))), (NodeId(2), Some(NodeId(0)))]
        );
    }

    #[test]
    fn sparse_cover_membership_lookup() {
        let cover = SparseCover::new(1, vec![star_cluster()], 4);
        assert_eq!(cover.node_count(), 4);
        assert_eq!(cover.clusters_of(NodeId(1)), &[ClusterId(0)]);
        assert!(cover.clusters_of(NodeId(3)).is_empty());
        assert_eq!(cover.max_membership(), 1);
        assert_eq!(cover.max_height(), 1);
    }

    /// The position table must agree, entry by entry, with the per-cluster lookups it
    /// replaces on the message paths.
    fn assert_table_matches_cluster_lookups(cover: &SparseCover, n: usize) {
        for v in (0..n).map(NodeId) {
            let expected: Vec<ClusterId> =
                cover.clusters.iter().filter(|c| c.contains_tree_node(v)).map(|c| c.id).collect();
            assert_eq!(cover.tree_clusters_of(v), expected, "tree clusters of {v}");
            assert_eq!(cover.tree_pos_of(v).len(), expected.len());
            for (k, &cid) in expected.iter().enumerate() {
                let cluster = cover.cluster(cid);
                let pos = cover.tree_pos(v, k);
                assert_eq!(
                    (pos.cluster, pos.parent, pos.children, pos.is_member),
                    (cid, cluster.parent_of(v), cluster.children_of(v), cluster.contains_member(v)),
                    "position #{k} of {v}"
                );
                assert_eq!(cover.tree_index_of(v, cid), Some(k));
            }
            assert_eq!(cover.tree_index_of(v, ClusterId(cover.cluster_count())), None);
        }
    }

    #[test]
    fn position_table_matches_cluster_lookups() {
        for (graph, d) in [
            (Graph::grid(16, 16), 4),
            (Graph::torus(12, 12), 2),
            (Graph::random_regular(256, 4, 5), 3),
        ] {
            let cover = builder::build_sparse_cover(&graph, d);
            assert_table_matches_cluster_lookups(&cover, graph.node_count());
        }
    }

    #[test]
    fn validate_detects_uncovered_ball() {
        // The star cluster covers nodes 0..=2 of a 4-node star, so node 3 is in no
        // cluster at all and its 1-ball is not covered.
        let g = Graph::star(4);
        let cover = SparseCover::new(1, vec![star_cluster()], 4);
        let err = cover.validate(&g).unwrap_err();
        assert!(matches!(err, CoverError::BallNotCovered { .. }));
    }

    #[test]
    fn validate_detects_missing_tree_edge() {
        // Tree edge (0, 2) does not exist on a path graph 0-1-2.
        let g = Graph::path(3);
        let cover = SparseCover::new(0, vec![star_cluster()], 3);
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
