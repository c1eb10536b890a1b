//! Centralized graph metrics: BFS distances, eccentricity, diameter, connectivity.
//!
//! These are reference computations used to construct experiment inputs and to check
//! the outputs of the distributed algorithms; they are not part of the distributed
//! model.
//!
//! Cost model: one BFS ([`bfs_distances`], [`eccentricity`], [`is_connected`]) is
//! `O(n + m)`, and [`diameter_bounds`] is two of them. The exact [`diameter`] is
//! all-pairs, `O(n·m)` in the worst case, but runs 64 BFS at once on machine words
//! (`⌈n/64⌉` sweeps): a node is visited once per level for all searches whose
//! frontier holds it, so the searches share work where they reach a node at the same
//! level. On expanders and random graphs that is most of the work (random-regular
//! 1,024 is ~19× cheaper than a BFS per node). A cycle is the no-sharing worst case:
//! two sources reach a node at the same level only if they are equally far from it,
//! so each frontier word carries one or two bits and a sweep costs about what its 64
//! single-source BFS cost.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Distances (in hops) from `source` to every node; `None` for unreachable nodes.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<Option<usize>> {
    multi_source_distances(graph, std::slice::from_ref(&source))
}

/// Distances (in hops) from the *closest* node of `sources`; `None` if unreachable.
///
/// # Panics
///
/// Panics if `sources` is empty or contains an out-of-range node.
pub fn multi_source_distances(graph: &Graph, sources: &[NodeId]) -> Vec<Option<usize>> {
    assert!(!sources.is_empty(), "at least one source is required");
    let mut dist = vec![None; graph.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        assert!(s.index() < graph.node_count(), "source out of range");
        if dist[s.index()].is_none() {
            dist[s.index()] = Some(0);
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        for &u in graph.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Hop distance between two nodes, if connected.
pub fn distance(graph: &Graph, u: NodeId, v: NodeId) -> Option<usize> {
    bfs_distances(graph, u)[v.index()]
}

/// Eccentricity of a node: the largest distance from it, if the graph is connected.
pub fn eccentricity(graph: &Graph, v: NodeId) -> Option<usize> {
    bfs_distances(graph, v).into_iter().try_fold(0, |acc, d| d.map(|d| acc.max(d)))
}

/// Diameter of the graph (`None` if disconnected or empty).
///
/// Exact, by multi-source bit-parallel BFS (MS-BFS; Then et al., "The More the
/// Merrier", VLDB 2014): the sources are taken 64 at a time in BFS order from node
/// 0, each owns one bit of a `u64` per node, and one level loop over a flat `u32`
/// CSR advances all 64 searches together. A level steps top-down from the nodes
/// whose frontier word is non-zero, or bottom-up (every node not yet reached by all
/// searches ORs its neighbours' frontier words) once the frontier's edge volume
/// passes half of `n + 2m`. The diameter is the most levels any sweep runs.
///
/// All-pairs work is still `O(n·m)` in the worst case — cycles share nothing
/// between searches (see the module doc). Callers that only need an *upper bound*
/// (e.g. to size a cover) should use [`diameter_bounds`], which costs two BFS runs.
pub fn diameter(graph: &Graph) -> Option<usize> {
    let n = graph.node_count();
    if n == 0 {
        return None;
    }
    let csr = Csr::new(graph);
    let order = csr.bfs_order();
    if order.len() < n {
        return None; // disconnected: node 0's search misses a node
    }
    let bottom_up_volume = (n + csr.targets.len()) / 2;
    let max_degree = graph.nodes().map(|v| graph.degree(v)).max().unwrap_or(0);
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut active: Vec<u32> = Vec::with_capacity(n);
    let mut reached: Vec<u32> = Vec::with_capacity(n);
    let mut best = 0;
    for sources in order.chunks(64) {
        let full = u64::MAX >> (64 - sources.len());
        seen.fill(0);
        for (bit, &s) in sources.iter().enumerate() {
            seen[s as usize] = 1 << bit;
            frontier[s as usize] = 1 << bit;
        }
        active.clear();
        active.extend_from_slice(sources);
        let mut levels = 0;
        loop {
            reached.clear();
            // `len · max_degree` bounds the frontier's edge volume, so a small
            // frontier skips summing its degrees.
            if active.len() * max_degree > bottom_up_volume
                && active.iter().map(|&v| csr.degree(v)).sum::<usize>() > bottom_up_volume
            {
                for u in 0..n {
                    let missing = !seen[u] & full;
                    if missing == 0 {
                        continue;
                    }
                    let mut incoming = 0;
                    for &v in csr.neighbors(u as u32) {
                        incoming |= frontier[v as usize];
                    }
                    let fresh = incoming & missing;
                    if fresh != 0 {
                        seen[u] |= fresh;
                        next[u] = fresh;
                        reached.push(u as u32);
                    }
                }
                for &v in &active {
                    frontier[v as usize] = 0;
                }
            } else {
                for &v in &active {
                    let word = std::mem::take(&mut frontier[v as usize]);
                    for &u in csr.neighbors(v) {
                        let u = u as usize;
                        let fresh = word & !seen[u];
                        if fresh != 0 {
                            seen[u] |= fresh;
                            if next[u] == 0 {
                                reached.push(u as u32);
                            }
                            next[u] |= fresh;
                        }
                    }
                }
            }
            if reached.is_empty() {
                break;
            }
            levels += 1;
            std::mem::swap(&mut frontier, &mut next);
            std::mem::swap(&mut active, &mut reached);
        }
        debug_assert!(seen.iter().all(|&w| w == full), "a connected graph is fully reached");
        best = best.max(levels);
    }
    Some(best)
}

/// A flat `u32` copy of the adjacency lists: node `v`'s neighbours are
/// `targets[offsets[v]..offsets[v + 1]]`, in adjacency order.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    fn new(graph: &Graph) -> Self {
        let mut offsets = Vec::with_capacity(graph.node_count() + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0);
        for v in graph.nodes() {
            targets.extend(graph.neighbors(v).iter().map(|u| u.index() as u32));
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The nodes node 0's BFS reaches, in visiting order.
    fn bfs_order(&self) -> Vec<u32> {
        let n = self.offsets.len() - 1;
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        visited[0] = true;
        order.push(0);
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for &u in self.neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    order.push(u);
                }
            }
        }
        order
    }
}

/// Double-sweep diameter estimate: `(lower, upper)` bounds on the diameter from two
/// BFS runs (`None` if the graph is disconnected or empty).
///
/// The first sweep runs BFS from node 0 and picks a farthest node `u`; the second
/// runs BFS from `u`. Then `ecc(u) ≤ diameter ≤ 2·min(ecc(0), ecc(u))`: the lower
/// bound is an eccentricity, and for any node `v` the triangle inequality gives
/// `diameter ≤ 2·ecc(v)`. On the experiment families (grids, tori, cycles, paths,
/// random graphs) the lower bound is the exact diameter or within a few hops of it.
pub fn diameter_bounds(graph: &Graph) -> Option<(usize, usize)> {
    if graph.node_count() == 0 {
        return None;
    }
    let from_start = bfs_distances(graph, NodeId(0));
    let mut ecc_start = 0;
    let mut farthest = NodeId(0);
    for (i, d) in from_start.iter().enumerate() {
        let d = (*d)?; // disconnected
        if d > ecc_start {
            ecc_start = d;
            farthest = NodeId(i);
        }
    }
    let ecc_far =
        bfs_distances(graph, farthest).into_iter().try_fold(0, |acc, d| d.map(|d| acc.max(d)))?;
    Some((ecc_far.max(ecc_start), 2 * ecc_start.min(ecc_far)))
}

/// Largest distance from the closest source, over all nodes (the paper's `D_1`).
///
/// Returns `None` if some node is unreachable from every source.
pub fn max_distance_to_sources(graph: &Graph, sources: &[NodeId]) -> Option<usize> {
    multi_source_distances(graph, sources).into_iter().try_fold(0, |acc, d| d.map(|d| acc.max(d)))
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(graph: &Graph) -> bool {
    if graph.node_count() == 0 {
        return true;
    }
    bfs_distances(graph, NodeId(0)).iter().all(Option::is_some)
}

/// A BFS tree: for each node, its parent towards the source (`None` for the source
/// itself and for unreachable nodes).
pub fn bfs_tree(graph: &Graph, source: NodeId) -> Vec<Option<NodeId>> {
    let mut parent = vec![None; graph.node_count()];
    let mut visited = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    visited[source.index()] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &u in graph.neighbors(v) {
            if !visited[u.index()] {
                visited[u.index()] = true;
                parent[u.index()] = Some(v);
                queue.push_back(u);
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-node diameter loop the bit-parallel kernel replaced: one BFS per
    /// node, kept as the oracle of the differential tests.
    fn per_node_diameter(graph: &Graph) -> Option<usize> {
        if graph.node_count() == 0 {
            return None;
        }
        let mut best = 0;
        for v in graph.nodes() {
            best = best.max(eccentricity(graph, v)?);
        }
        Some(best)
    }

    fn assert_matches_oracle(label: &str, graph: &Graph) {
        assert_eq!(diameter(graph), per_node_diameter(graph), "{label}");
    }

    /// `(d, n / d)` for the largest divisor `d ≤ √n`.
    fn squarest_factors(n: usize) -> (usize, usize) {
        let d =
            (1..=n).take_while(|d| d * d <= n).filter(|d| n.is_multiple_of(*d)).last().unwrap_or(1);
        (d, n / d)
    }

    /// Every generator family at `n` nodes, where the family has an `n`-node member.
    fn families(n: usize) -> Vec<(String, Graph)> {
        let (rows, cols) = squarest_factors(n);
        let divisor = (2..=n).find(|d| n.is_multiple_of(*d)).unwrap_or(1);
        let mut out = vec![
            (format!("path({n})"), Graph::path(n)),
            (format!("star({n})"), Graph::star(n)),
            (format!("complete({n})"), Graph::complete(n)),
            (format!("grid({rows}, {cols})"), Graph::grid(rows, cols)),
            (format!("binary_tree({n})"), Graph::binary_tree(n)),
            (format!("random_connected({n})"), Graph::random_connected(n, 0.05, n as u64)),
            (
                format!("caterpillar({}, {})", n / divisor, divisor - 1),
                Graph::caterpillar(n / divisor, divisor - 1),
            ),
        ];
        if n >= 3 {
            out.push((format!("cycle({n})"), Graph::cycle(n)));
            out.push((format!("random_regular({n}, 4)"), Graph::random_regular(n, 4, n as u64)));
            let k = (2..=n / 3).find(|k| n.is_multiple_of(*k)).unwrap_or(1);
            out.push((format!("clustered_ring({}, {k})", n / k), Graph::clustered_ring(n / k, k)));
        }
        if n >= 4 {
            let k = (n / 4).max(2);
            out.push((format!("barbell({k}, {})", n - 2 * k), Graph::barbell(k, n - 2 * k)));
        }
        if n.is_multiple_of(2) && n >= 4 {
            out.push((format!("random_regular({n}, 3)"), Graph::random_regular(n, 3, n as u64)));
        }
        if rows >= 3 && cols >= 3 {
            out.push((format!("torus({rows}, {cols})"), Graph::torus(rows, cols)));
        }
        out
    }

    #[test]
    fn diameter_matches_the_per_node_loop_across_sweep_edges() {
        // 63, 64, 65 and 127, 128, 129 nodes straddle the 64-source sweep edges.
        for n in [1, 2, 63, 64, 65, 127, 128, 129] {
            for (label, graph) in families(n) {
                assert_eq!(graph.node_count(), n, "{label}");
                assert_matches_oracle(&label, &graph);
            }
        }
    }

    #[test]
    fn diameter_matches_the_per_node_loop_on_random_graphs() {
        for seed in 0..200u64 {
            let n = 1 + (seed as usize * 37) % 150;
            let p = 0.005 * (1 + seed % 8) as f64;
            let graph = Graph::random_connected(n, p, seed);
            assert_matches_oracle(&format!("random_connected seed {seed}"), &graph);
        }
        for seed in 0..20u64 {
            let n = 3 + (seed as usize * 53) % 300;
            let degree = 2 + seed as usize % 5;
            let degree = if n % 2 == 1 && degree % 2 == 1 { degree + 1 } else { degree };
            let graph = Graph::random_regular(n, degree, seed);
            assert_matches_oracle(&format!("random_regular seed {seed}"), &graph);
        }
        for n in [2, 3, 100, 200] {
            assert_eq!(diameter(&Graph::complete(n)), Some(1), "complete({n})");
            assert_eq!(diameter(&Graph::star(n)), Some(n.min(3) - 1), "star({n})");
        }
    }

    #[test]
    fn diameter_is_none_when_a_later_sweep_holds_another_component() {
        let path_edges =
            |from: usize, to: usize| (from + 1..to).map(|i| (NodeId(i - 1), NodeId(i)));
        let grid_edges = Graph::grid(8, 16).edges().map(|(_, u, v)| (u, v)).collect::<Vec<_>>();
        for (label, graph) in [
            // The second component starts after id 64, in the second sweep.
            (
                "paths 0..100 and 100..140",
                Graph::from_edges(140, path_edges(0, 100).chain(path_edges(100, 140))),
            ),
            // A 129-node grid-plus-tail, and node 129 alone in the third sweep.
            (
                "grid(8, 16) + tail + isolated node",
                Graph::from_edges(130, grid_edges.into_iter().chain([(NodeId(127), NodeId(128))])),
            ),
            // Even ids and odd ids form two paths.
            (
                "interleaved paths",
                Graph::from_edges(130, (2..130).map(|i| (NodeId(i - 2), NodeId(i)))),
            ),
        ] {
            let graph = graph.unwrap();
            assert_eq!(diameter(&graph), None, "{label}");
            assert_eq!(per_node_diameter(&graph), None, "{label}");
        }
    }

    #[test]
    fn diameter_of_the_empty_and_single_node_graphs() {
        assert_eq!(diameter(&Graph::new(0)), None);
        assert_eq!(diameter(&Graph::new(1)), Some(0));
        assert_eq!(diameter(&Graph::new(2)), None);
    }

    #[test]
    fn distances_on_a_path() {
        let g = Graph::path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn multi_source_takes_closest() {
        let g = Graph::path(6);
        let d = multi_source_distances(&g, &[NodeId(0), NodeId(5)]);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(2), Some(1), Some(0)]);
        assert_eq!(max_distance_to_sources(&g, &[NodeId(0), NodeId(5)]), Some(2));
    }

    #[test]
    fn diameter_of_grid() {
        assert_eq!(diameter(&Graph::grid(4, 4)), Some(6));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let g = Graph::new(3);
        assert!(!is_connected(&g));
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn bfs_tree_parents_point_towards_source() {
        let g = Graph::grid(3, 3);
        let parent = bfs_tree(&g, NodeId(0));
        let dist = bfs_distances(&g, NodeId(0));
        assert_eq!(parent[0], None);
        for v in g.nodes().skip(1) {
            let p = parent[v.index()].expect("connected");
            assert_eq!(dist[p.index()].unwrap() + 1, dist[v.index()].unwrap());
            assert!(g.has_edge(p, v));
        }
    }

    #[test]
    fn diameter_bounds_bracket_the_exact_diameter() {
        for g in [
            Graph::path(9),
            Graph::cycle(12),
            Graph::grid(5, 7),
            Graph::star(6),
            Graph::complete(5),
            Graph::random_connected(40, 0.08, 3),
            Graph::new(1),
        ] {
            let exact = diameter(&g).expect("connected");
            let (lower, upper) = diameter_bounds(&g).expect("connected");
            assert!(lower <= exact, "lower {lower} > exact {exact}");
            assert!(exact <= upper, "exact {exact} > upper {upper}");
            assert!(lower <= upper);
        }
        // On a path the double sweep is exact: the first sweep finds an endpoint.
        assert_eq!(diameter_bounds(&Graph::path(9)).unwrap().0, 8);
    }

    #[test]
    fn diameter_bounds_detect_disconnection() {
        assert_eq!(diameter_bounds(&Graph::new(3)), None);
        assert_eq!(diameter_bounds(&Graph::new(0)), None);
    }

    #[test]
    fn eccentricity_matches_diameter_on_path_endpoints() {
        let g = Graph::path(7);
        assert_eq!(eccentricity(&g, NodeId(0)), Some(6));
        assert_eq!(eccentricity(&g, NodeId(3)), Some(3));
    }
}
