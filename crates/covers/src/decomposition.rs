//! `k`-separated weak-diameter network decomposition (Definition 4.19).
//!
//! The paper uses the Rozhon–Ghaffari decomposition (Theorem 4.20). We implement a
//! deterministic *ball-carving* decomposition with the same interface and the same
//! flavor of guarantees:
//!
//! * `O(log n)` color classes,
//! * clusters of the same color are at pairwise distance `> k` in `G`,
//! * every cluster has weak radius `O(k · log n)` around its center (so weak diameter
//!   `O(k · log n)`).
//!
//! The construction is centralized (it looks at the whole graph); the synchronizer
//! consumes only the resulting structure, exactly as in the "given a layered sparse
//! cover" setting of Theorem 5.3. See DESIGN.md §3 for the substitution note.
//!
//! The carving runs on flat, epoch-stamped scratch arrays: each ball is grown by a
//! *bounded* BFS from its center that expands one level at a time while the
//! doubling condition holds, so a center only ever pays for the edges inside its
//! final (outer) ball — not for a full-graph BFS as the pre-dense-id builder did.
//! DESIGN.md §3.3 gives the resulting complexity bound.

use crate::scratch::BfsScratch;
use ds_graph::{metrics, Graph, NodeId};

/// One cluster of a network decomposition: a set of member nodes together with the
/// center and weak radius used to carve it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecompCluster {
    /// The carving center; all members are within `weak_radius` of it in `G`.
    pub center: NodeId,
    /// The member nodes (sorted ascending).
    pub members: Vec<NodeId>,
    /// Maximum distance (in `G`) from the center to a member.
    pub weak_radius: usize,
}

/// A `k`-separated weak-diameter network decomposition: a partition of `V` into color
/// classes, each consisting of clusters at pairwise distance `> separation`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkDecomposition {
    /// The separation parameter `k`.
    pub separation: usize,
    /// Clusters per color class.
    pub colors: Vec<Vec<DecompCluster>>,
}

impl NetworkDecomposition {
    /// Number of color classes.
    pub fn color_count(&self) -> usize {
        self.colors.len()
    }

    /// Iterates over `(color, cluster)` pairs.
    pub fn clusters(&self) -> impl Iterator<Item = (usize, &DecompCluster)> {
        self.colors.iter().enumerate().flat_map(|(c, list)| list.iter().map(move |cl| (c, cl)))
    }

    /// Checks the decomposition invariants: every node in exactly one cluster,
    /// same-color clusters more than `separation` apart, members within the recorded
    /// weak radius of their center.
    pub fn check(&self, graph: &Graph) -> bool {
        let mut assigned = vec![0usize; graph.node_count()];
        for (_, cluster) in self.clusters() {
            let dist = metrics::bfs_distances(graph, cluster.center);
            for &v in &cluster.members {
                assigned[v.index()] += 1;
                match dist[v.index()] {
                    Some(d) if d <= cluster.weak_radius => {}
                    _ => return false,
                }
            }
        }
        if assigned.iter().any(|&c| c != 1) {
            return false;
        }
        for color in &self.colors {
            for (i, a) in color.iter().enumerate() {
                for b in color.iter().skip(i + 1) {
                    let dist = metrics::multi_source_distances(graph, &a.members);
                    let min = b
                        .members
                        .iter()
                        .filter_map(|&v| dist[v.index()])
                        .min()
                        .unwrap_or(usize::MAX);
                    if min <= self.separation {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Builds a `separation`-separated weak-diameter network decomposition of `graph` by
/// deterministic ball carving.
///
/// The number of colors is at most `⌈log₂ n⌉ + 1` and every cluster has weak radius
/// at most `separation · ⌈log₂ n⌉` around its center.
///
/// # Panics
///
/// Panics if the graph has no nodes.
pub fn build_decomposition(graph: &Graph, separation: usize) -> NetworkDecomposition {
    let mut bfs = BfsScratch::new(graph.node_count());
    build_decomposition_with(graph, separation, &mut bfs)
}

/// [`build_decomposition`] over caller-provided scratch buffers (reused across the
/// layers of a layered cover build).
///
/// Each color round carves balls out of the nodes no earlier round carved,
/// growing every ball in the *full* graph (carved nodes still conduct
/// distance); doubling counts and center selection see only uncarved nodes.
pub(crate) fn build_decomposition_with(
    graph: &Graph,
    separation: usize,
    bfs: &mut BfsScratch,
) -> NetworkDecomposition {
    let n = graph.node_count();
    assert!(n > 0, "decomposition requires a non-empty graph");
    let step = separation.max(1);
    let mut uncarved = vec![true; n];
    let mut uncarved_count = n;
    let mut remaining = vec![false; n];
    let mut colors: Vec<Vec<DecompCluster>> = Vec::new();
    // Cumulative count of remaining nodes by ball radius (index = BFS depth).
    let mut cum: Vec<usize> = Vec::new();

    while uncarved_count > 0 {
        remaining.copy_from_slice(&uncarved);
        let mut remaining_count = uncarved_count;
        let mut this_color: Vec<DecompCluster> = Vec::new();
        // Centers are carved smallest-id first and carving only removes nodes, so
        // the minimum remaining id is monotone within a round: one forward cursor
        // replaces the ordered set.
        let mut cursor = 0usize;

        while remaining_count > 0 {
            while !remaining[cursor] {
                cursor += 1;
            }
            let center = NodeId(cursor);

            // Grow the ball from the center by bounded BFS, one `step`-wide ring at
            // a time, while the count of remaining nodes keeps doubling. `cum[r]`
            // counts remaining nodes within distance `r` (in G, like the reference
            // full-BFS construction: carved nodes still conduct distance).
            bfs.start(std::slice::from_ref(&center));
            cum.clear();
            cum.push(1); // the center itself is remaining (it is the minimum)
            let within = |cum: &[usize], r: usize| cum[r.min(cum.len() - 1)];
            let mut j = 0usize;
            loop {
                let outer_radius = (j + 1).saturating_mul(step);
                while (cum.len() - 1) < outer_radius {
                    match bfs.expand_level(graph) {
                        Some((s, e)) => {
                            let fresh =
                                bfs.order()[s..e].iter().filter(|v| remaining[v.index()]).count();
                            cum.push(cum.last().expect("non-empty") + fresh);
                        }
                        None => break,
                    }
                }
                let inner = within(&cum, j.saturating_mul(step)).max(1);
                let outer = within(&cum, outer_radius);
                if outer <= 2 * inner {
                    break;
                }
                j += 1;
            }
            // Saturating: a radius past `usize::MAX` reaches the whole
            // component all the same.
            let inner_radius = j.saturating_mul(step);
            let outer_radius = (j + 1).saturating_mul(step);

            let mut members: Vec<NodeId> = Vec::new();
            let mut weak_radius = 0usize;
            for &v in bfs.order() {
                let d = bfs.dist(v) as usize;
                if d > outer_radius {
                    break; // discovery order is by nondecreasing depth
                }
                if !remaining[v.index()] {
                    continue;
                }
                remaining[v.index()] = false;
                remaining_count -= 1;
                if d <= inner_radius {
                    weak_radius = weak_radius.max(d);
                    members.push(v);
                    uncarved[v.index()] = false;
                    uncarved_count -= 1;
                }
            }
            members.sort_unstable();
            this_color.push(DecompCluster { center, members, weak_radius });
        }

        colors.push(this_color);
    }

    NetworkDecomposition { separation, colors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_covers_every_node_exactly_once() {
        for graph in [
            Graph::path(17),
            Graph::grid(5, 5),
            Graph::cycle(12),
            Graph::random_connected(40, 0.08, 3),
        ] {
            let d = build_decomposition(&graph, 2);
            assert!(d.check(&graph), "invariants hold");
            let total: usize = d.clusters().map(|(_, c)| c.members.len()).sum();
            assert_eq!(total, graph.node_count());
        }
    }

    #[test]
    fn color_count_is_logarithmic() {
        let graph = Graph::random_connected(64, 0.05, 1);
        let d = build_decomposition(&graph, 4);
        // ⌈log₂ 64⌉ + 1 = 7
        assert!(d.color_count() <= 7, "got {} colors", d.color_count());
    }

    #[test]
    fn weak_radius_is_bounded() {
        let graph = Graph::grid(6, 6);
        let sep = 3;
        let d = build_decomposition(&graph, sep);
        let log_n = (graph.node_count() as f64).log2().ceil() as usize;
        for (_, c) in d.clusters() {
            assert!(
                c.weak_radius <= sep * log_n,
                "weak radius {} exceeds {}",
                c.weak_radius,
                sep * log_n
            );
        }
    }

    #[test]
    fn separation_one_on_a_path_gives_separated_segments() {
        let graph = Graph::path(10);
        let d = build_decomposition(&graph, 1);
        assert!(d.check(&graph));
    }

    #[test]
    fn huge_separation_yields_single_cluster() {
        let graph = Graph::grid(4, 4);
        let d = build_decomposition(&graph, 100);
        assert_eq!(d.color_count(), 1);
        assert_eq!(d.colors[0].len(), 1);
        assert_eq!(d.colors[0][0].members.len(), 16);
    }

    #[test]
    fn decompositions_check_out_across_graph_families() {
        // Property replacement for the retired legacy-equivalence pin: every
        // decomposition must satisfy its own invariants (`check`: full
        // coverage, disjointness, per-color separation) and stay non-trivial.
        for graph in [
            Graph::path(23),
            Graph::grid(7, 5),
            Graph::cycle(19),
            Graph::random_connected(48, 0.07, 9),
        ] {
            for sep in [1, 2, 4] {
                let d = build_decomposition(&graph, sep);
                assert!(d.check(&graph), "invalid decomposition (sep {sep})");
                assert!(d.color_count() >= 1, "sep {sep}");
                let members: usize = d.colors.iter().flatten().map(|c| c.members.len()).sum();
                assert_eq!(members, graph.node_count(), "sep {sep}: not a partition");
            }
        }
    }
}
